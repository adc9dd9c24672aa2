//! Sim-vs-real differential test: the same job set, submitted to the
//! simulated urd's `norns::TaskQueue` and to the real `norns_ipc`
//! engine, must dispatch in the *same order* under every shared
//! arbitration policy. This is the contract PR 1 extracted the
//! `norns-sched` crate for — if the two worlds ever disagree, a
//! workflow tuned in the simulator would behave differently on live
//! daemons.
//!
//! Ordering is observed without races: the real engine runs **one**
//! worker pinned by a plug task while the whole set is submitted, so
//! every arbitration decision sees the full pending set, exactly like
//! the sim-side dispatch loop. Dispatch order is then recovered from
//! `wait_usec` (submission → first worker touch): with one worker,
//! consecutive dispatches are separated by a whole multi-MiB copy,
//! orders of magnitude above the submission loop's skew.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use norns::{JobId, TaskId, TaskQueue};
use norns_ipc::{Engine, EngineConfig, PolicyKind};
use norns_proto::{BackendKind, DataspaceDesc, ResourceDesc, TaskOp, TaskSpec, TaskState};
use norns_sched::DEFAULT_PRIORITY;
use simcore::SimTime;

/// (job, bytes) submission order shared by both worlds. Sizes are
/// distinct so SJF has a unique order, and jobs interleave so
/// fair-share differs from FCFS.
const WORKLOAD: [(u64, u64); 8] = [
    (1, 24 << 20),
    (1, 18 << 20),
    (2, 22 << 20),
    (1, 28 << 20),
    (3, 16 << 20),
    (2, 26 << 20),
    (3, 20 << 20),
    (2, 30 << 20),
];

/// The plug occupying the real engine's single worker while the set is
/// submitted; mirrored in the sim so policies with history (fair
/// share) see identical service sequences.
const PLUG_JOB: u64 = 0;
const PLUG_BYTES: u64 = 96 << 20;

/// Dispatch order of the workload on the simulated queue (task index
/// per WORKLOAD position).
fn sim_order(policy: PolicyKind) -> Vec<usize> {
    let mut q = TaskQueue::new(1, policy.to_policy());
    // Plug: enqueued and dispatched before the rest exists, exactly
    // like the real engine's idle worker grabs it.
    q.enqueue(
        TaskId(999),
        JobId(PLUG_JOB),
        PLUG_BYTES,
        DEFAULT_PRIORITY,
        SimTime::ZERO,
    );
    assert_eq!(q.dispatch().unwrap().task, TaskId(999));
    for (i, (job, bytes)) in WORKLOAD.iter().enumerate() {
        q.enqueue(
            TaskId(i as u64),
            JobId(*job),
            *bytes,
            DEFAULT_PRIORITY,
            SimTime::ZERO,
        );
    }
    q.finish(); // plug completes; arbitration begins over the full set
    let mut order = Vec::new();
    while let Some(t) = q.dispatch() {
        order.push(t.task.0 as usize);
        q.finish();
    }
    order
}

/// Dispatch order of the same workload on the real engine.
fn real_order(policy: PolicyKind, tag: &str) -> Vec<usize> {
    let root: PathBuf =
        std::env::temp_dir().join(format!("norns-differential-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let engine: Arc<Engine> = Engine::with_config(
        EngineConfig {
            workers: 1,
            chunk_size: 1 << 30, // keep every copy monolithic
            ..EngineConfig::default()
        },
        policy,
    );
    engine
        .register_dataspace(DataspaceDesc {
            nsid: "tmp0".into(),
            kind: BackendKind::PosixFilesystem,
            mount: root.join("ds").to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
    let mount = root.join("ds");
    fs::write(mount.join("plug.src"), vec![1u8; PLUG_BYTES as usize]).unwrap();
    for (i, (_, bytes)) in WORKLOAD.iter().enumerate() {
        fs::write(mount.join(format!("in{i}.dat")), vec![2u8; *bytes as usize]).unwrap();
    }
    let copy = |src: &str, dst: &str| {
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: src.into(),
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: dst.into(),
            }),
        )
    };
    let plug = engine
        .submit(PLUG_JOB, copy("plug.src", "plug.dst"), None)
        .unwrap();
    // The plug must be on the worker before the set arrives: a worker
    // that wakes late picks among everything pending by policy, and
    // SJF then runs the smallest task ahead of the plug.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while engine.query(plug).unwrap().state == TaskState::Pending {
        assert!(std::time::Instant::now() < deadline, "the plug never ran");
        std::thread::yield_now();
    }
    let mut ids = Vec::new();
    for (i, (job, _)) in WORKLOAD.iter().enumerate() {
        ids.push(
            engine
                .submit(
                    *job,
                    copy(&format!("in{i}.dat"), &format!("out{i}.dat")),
                    None,
                )
                .unwrap(),
        );
    }
    engine.wait(plug, 0).unwrap();
    let mut touched: Vec<(u64, usize)> = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let stats = engine.wait(*id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_total, WORKLOAD[i].1, "size estimate feeds SJF");
        touched.push((stats.wait_usec, i));
    }
    engine.shutdown();
    let _ = fs::remove_dir_all(&root);
    touched.sort();
    touched.into_iter().map(|(_, i)| i).collect()
}

#[test]
fn fcfs_orders_identically_in_sim_and_real() {
    let sim = sim_order(PolicyKind::Fcfs);
    assert_eq!(sim, vec![0, 1, 2, 3, 4, 5, 6, 7], "FCFS = submission order");
    assert_eq!(real_order(PolicyKind::Fcfs, "fcfs"), sim);
}

#[test]
fn fair_share_orders_identically_in_sim_and_real() {
    let sim = sim_order(PolicyKind::JobFairShare);
    assert_ne!(
        sim,
        vec![0, 1, 2, 3, 4, 5, 6, 7],
        "the workload must discriminate fair-share from FCFS"
    );
    assert_eq!(
        real_order(PolicyKind::JobFairShare, "fair"),
        sim,
        "fair-share service history must evolve identically in both worlds"
    );
}

#[test]
fn sjf_orders_identically_in_sim_and_real() {
    let sim = sim_order(PolicyKind::ShortestFirst);
    // Distinct sizes: SJF order is the size-sorted permutation.
    let mut by_size: Vec<usize> = (0..WORKLOAD.len()).collect();
    by_size.sort_by_key(|&i| WORKLOAD[i].1);
    assert_eq!(sim, by_size);
    assert_eq!(real_order(PolicyKind::ShortestFirst, "sjf"), sim);
}

/// Sim-vs-real differential for the *mapping* semantics: a `scatter`
/// stage-in must place each enumerated child on exactly one node —
/// and on the *same* node — in both worlds (mirroring the simulator's
/// `scatter_mapping_splits_children_across_nodes`), never
/// replicating the way real-mode `scatter` used to when it degraded
/// to `all`.
mod scatter_gather {
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    use norns::{HasNorns, NornsWorld, TaskCompletion};
    use norns_flow::{FlowConfig, FlowJobState, JobBody, NodeSpec, WorkflowExecutor};
    use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
    use norns_proto::{BackendKind, DataspaceDesc};
    use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimDuration};
    use simstore::{Cred, Mode};
    use slurm_sim::{submit_script, HasSlurm, JobState, SchedConfig, Slurmctld};

    const NODES: usize = 2;
    const CHILDREN: [&str; 4] = ["part0.dat", "part1.dat", "part2.dat", "part3.dat"];
    const SCRIPT: &str = "#SBATCH --job-name=sg\n\
                          #SBATCH --nodes=2\n\
                          #NORNS stage_in lustre://case pmdk0://case scatter\n";

    struct Model {
        world: NornsWorld,
        ctld: Slurmctld,
    }

    impl FluidModel for Model {
        fn fluid_mut(&mut self) -> &mut FluidSystem {
            &mut self.world.fluid
        }
        fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
            norns::handle_flow_complete(sim, done);
        }
    }

    impl HasNorns for Model {
        fn norns_mut(&mut self) -> &mut NornsWorld {
            &mut self.world
        }
        fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion) {
            slurm_sim::handle_task_complete(sim, &completion);
        }
    }

    impl HasSlurm for Model {
        fn ctld_mut(&mut self) -> &mut Slurmctld {
            &mut self.ctld
        }
    }

    /// The simulated cluster both halves run on: `NODES` nodes, each
    /// with `pmdk0` and the shared `lustre` registered.
    fn sim_cluster() -> Sim<Model> {
        let tb = cluster::nextgenio_quiet(NODES);
        let ctld = Slurmctld::new(NODES, SchedConfig::default());
        let mut sim = Sim::new(
            Model {
                world: tb.world,
                ctld,
            },
            7,
        );
        for n in 0..NODES {
            norns::sim::ops::register_dataspace(&mut sim, n, "pmdk0", "pmdk0", false).unwrap();
            norns::sim::ops::register_dataspace(&mut sim, n, "lustre", "lustre", false).unwrap();
        }
        sim
    }

    /// Which children each node holds once the simulated job reaches
    /// Running (stage-in complete), as `node → sorted child names`.
    fn sim_placement() -> Vec<Vec<String>> {
        let mut sim = sim_cluster();
        let cred = Cred::new(1000, 1000);
        {
            let t = sim.model.world.storage.resolve("lustre").unwrap();
            for c in CHILDREN {
                sim.model
                    .world
                    .storage
                    .ns_mut(t, None)
                    .write_file(&format!("case/{c}"), 1 << 20, &cred, Mode(0o644))
                    .unwrap();
            }
        }
        let id = submit_script(
            &mut sim,
            SCRIPT,
            cred,
            slurm_sim::JobBody::Fixed(SimDuration::from_secs(60)),
        )
        .unwrap();
        while sim.model.ctld.job(id).unwrap().life.state != JobState::Running && sim.step() {}
        assert_eq!(
            sim.model.ctld.job(id).unwrap().life.state,
            JobState::Running
        );
        let t = sim.model.world.storage.resolve("pmdk0").unwrap();
        (0..NODES)
            .map(|n| {
                CHILDREN
                    .iter()
                    .filter(|c| {
                        sim.model
                            .world
                            .storage
                            .ns(t, Some(n))
                            .exists(&format!("case/{c}"))
                    })
                    .map(|c| c.to_string())
                    .collect()
            })
            .collect()
    }

    fn spawn(root: &Path, name: &str) -> UrdDaemon {
        UrdDaemon::spawn(
            DaemonConfig::in_dir(root.join(name).join("sockets"))
                .with_chunk_size(1 << 30)
                .with_data_addr("127.0.0.1:0"),
        )
        .unwrap()
    }

    fn register(daemon: &UrdDaemon, nsid: &str, mount: &Path) {
        let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
        ctl.register_dataspace(DataspaceDesc {
            nsid: nsid.into(),
            kind: BackendKind::PosixFilesystem,
            mount: mount.to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
    }

    /// Two live daemons under an executor: node 0 hosts the shared
    /// `lustre` tier plus its node-local `pmdk0`, node 1 its own
    /// `pmdk0` (same nsid, own mount — the node-local pattern).
    pub(super) struct RealCluster {
        root: PathBuf,
        daemons: [UrdDaemon; 2],
        pub(super) exec: WorkflowExecutor,
        pub(super) lustre: PathBuf,
        pub(super) pmdk: [PathBuf; 2],
    }

    pub(super) fn real_cluster(tag: &str, config: FlowConfig) -> RealCluster {
        let root: PathBuf =
            std::env::temp_dir().join(format!("norns-diff-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        let daemons = [spawn(&root, "n0"), spawn(&root, "n1")];
        let lustre = root.join("n0/lustre");
        let pmdk = [root.join("n0/pmdk"), root.join("n1/pmdk")];
        register(&daemons[0], "lustre", &lustre);
        register(&daemons[0], "pmdk0", &pmdk[0]);
        register(&daemons[1], "pmdk0", &pmdk[1]);
        let mut exec = WorkflowExecutor::new(config);
        for (name, daemon, dataspaces) in [
            ("n0", &daemons[0], vec!["lustre".into(), "pmdk0".into()]),
            ("n1", &daemons[1], vec!["pmdk0".into()]),
        ] {
            exec.add_node(NodeSpec {
                name: name.into(),
                control_path: daemon.control_path.clone(),
                dataspaces,
            })
            .unwrap();
        }
        RealCluster {
            root,
            daemons,
            exec,
            lustre,
            pmdk,
        }
    }

    impl RealCluster {
        pub(super) fn shutdown(self) {
            drop(self.daemons);
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    /// The scatter workload against the two live daemons.
    fn real_placement() -> Vec<Vec<String>> {
        let mut c = real_cluster("scatter", FlowConfig::default());
        fs::create_dir_all(c.lustre.join("case")).unwrap();
        for child in CHILDREN {
            fs::write(c.lustre.join("case").join(child), vec![7u8; 1 << 10]).unwrap();
        }
        let job = c
            .exec
            .submit(SCRIPT, JobBody::Sleep(Duration::ZERO))
            .unwrap();
        c.exec.run().unwrap();
        assert_eq!(c.exec.job_state(job), Some(FlowJobState::Completed));
        let placement = c
            .pmdk
            .iter()
            .map(|mount| {
                CHILDREN
                    .iter()
                    .filter(|child| mount.join("case").join(child).exists())
                    .map(|child| child.to_string())
                    .collect()
            })
            .collect();
        c.shutdown();
        placement
    }

    #[test]
    fn scatter_places_children_identically_in_sim_and_real() {
        let sim = sim_placement();
        // The sim's contract first: round-robin over sorted children,
        // no replication.
        assert_eq!(
            sim,
            vec![
                vec!["part0.dat".to_string(), "part2.dat".to_string()],
                vec!["part1.dat".to_string(), "part3.dat".to_string()],
            ],
            "sim scatter must deal sorted children round-robin"
        );
        let real = real_placement();
        assert_eq!(
            real, sim,
            "real-mode scatter must place every child on the same node as the simulator, \
             with no replication"
        );
    }

    const GATHER_SCRIPT: &str = "#SBATCH --job-name=gs\n\
                                 #SBATCH --nodes=2\n\
                                 #NORNS stage_out pmdk0://out lustre://final gather\n";

    /// The file node `n`'s share of the application writes under
    /// `pmdk0://out`.
    fn output_of(n: usize) -> String {
        format!("from-n{n}.dat")
    }

    /// Names under `lustre://final` once the simulated job completed,
    /// plus whether any node still holds its output.
    fn sim_gather() -> (Vec<String>, bool) {
        let mut sim = sim_cluster();
        let cred = Cred::new(1000, 1000);
        let id = submit_script(
            &mut sim,
            GATHER_SCRIPT,
            cred.clone(),
            slurm_sim::JobBody::Fixed(SimDuration::from_secs(60)),
        )
        .unwrap();
        while sim.model.ctld.job(id).unwrap().life.state != JobState::Running && sim.step() {}
        // The application: each node writes its own file.
        let pmdk = sim.model.world.storage.resolve("pmdk0").unwrap();
        for n in 0..NODES {
            sim.model
                .world
                .storage
                .ns_mut(pmdk, Some(n))
                .write_file(
                    &format!("out/{}", output_of(n)),
                    1 << 20,
                    &cred,
                    Mode(0o644),
                )
                .unwrap();
        }
        sim.run();
        let job = sim.model.ctld.job(id).unwrap();
        assert_eq!(job.life.state, JobState::Completed);
        assert!(
            job.leftover_stageout.is_empty(),
            "{:?}",
            job.leftover_stageout
        );
        let lustre = sim.model.world.storage.resolve("lustre").unwrap();
        let merged = sim
            .model
            .world
            .storage
            .ns(lustre, None)
            .list("final", &cred)
            .unwrap();
        let held = (0..NODES).any(|n| {
            sim.model
                .world
                .storage
                .ns(pmdk, Some(n))
                .exists(&format!("out/{}", output_of(n)))
        });
        (merged, held)
    }

    /// The same job on the two live daemons: node 0 moves its child
    /// locally, node 1 pushes its own; both are one `Move`.
    fn real_gather() -> (Vec<String>, bool) {
        let mut c = real_cluster("gather", FlowConfig::default());
        let mounts = c.pmdk.clone();
        let job = c
            .exec
            .submit(
                GATHER_SCRIPT,
                JobBody::Run(Box::new(move || {
                    for (n, mount) in mounts.iter().enumerate() {
                        fs::create_dir_all(mount.join("out")).map_err(|e| e.to_string())?;
                        fs::write(mount.join("out").join(output_of(n)), vec![7u8; 1 << 10])
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })),
            )
            .unwrap();
        c.exec.run().unwrap();
        assert_eq!(c.exec.job_state(job), Some(FlowJobState::Completed));
        assert!(
            c.exec.leftovers(job).is_empty(),
            "{:?}",
            c.exec.leftovers(job)
        );
        let mut merged: Vec<String> = fs::read_dir(c.lustre.join("final"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        merged.sort();
        let held = (0..NODES).any(|n| c.pmdk[n].join("out").join(output_of(n)).exists());
        c.shutdown();
        (merged, held)
    }

    /// The stage-out half of the mapping differential: a two-node
    /// `gather` merges each node's children under one destination, with
    /// the same names, and frees the node-local sources, in both worlds
    /// — although the simulator moves a node's tree with one task and
    /// the executor moves it child by child.
    #[test]
    fn gather_merges_children_identically_in_sim_and_real() {
        let (sim, sim_held) = sim_gather();
        assert_eq!(
            sim,
            vec![output_of(0), output_of(1)],
            "sim gather must merge both nodes' children under one destination"
        );
        assert!(!sim_held, "sim gather is a move");
        let (real, real_held) = real_gather();
        assert_eq!(real, sim, "real-mode gather must merge the same names");
        assert!(!real_held, "real-mode gather frees its sources");
    }
}

/// The job-lifecycle differential: the same `#NORNS` scripts run on a
/// simulated two-node cluster and on two live daemons under the
/// executor, one row per §III rule. Both worlds step their jobs through
/// the one table, `norns_flow::job::step`; for every job they must agree
/// on the terminal state, the class of its reason, how many stage-out
/// legs it left behind, and which of the row's locations remain. One
/// row is the named gap: the simulator removes a completed job's
/// non-persisted stage-in data, real mode keeps it.
mod job_lifecycle {
    use std::fs;
    use std::time::Duration;

    use norns::{HasNorns, NornsWorld, TaskCompletion};
    use norns_flow::job::WHY;
    use norns_flow::{FlowConfig, JobBody};
    use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimDuration};
    use simstore::{Cred, Mode};
    use slurm_sim::{submit_script, HasSlurm, JobEvent, JobState, SchedConfig, Slurmctld};

    use super::scatter_gather::real_cluster;

    /// What a job's body does: write these `pmdk0` paths on its node,
    /// then succeed or fail.
    struct Body {
        writes: &'static [&'static str],
        ok: bool,
    }

    const RUNS: Body = Body {
        writes: &[],
        ok: true,
    };

    /// One row: its scripts in submission order (one node each), what
    /// each body does, the locations probed at the end, and whether the
    /// stage-in must time out.
    struct Row {
        name: &'static str,
        jobs: &'static [(&'static str, Body)],
        probes: &'static [&'static str],
        timeout: bool,
    }

    /// A job's verdict: its terminal state, the class of its reason,
    /// and its stage-out leftovers.
    type Verdict = (JobState, Option<&'static str>, usize);

    fn class(reason: Option<&str>) -> Option<&'static str> {
        let reason = reason?;
        let class = WHY.iter().find(|w| reason.starts_with(**w));
        Some(*class.unwrap_or_else(|| panic!("reason {reason:?} is in no class")))
    }

    const ROWS: &[Row] = &[
        Row {
            name: "happy 3-job chain",
            jobs: &[
                (
                    "#SBATCH --job-name=a\n#SBATCH --workflow-start\n\
                     #NORNS stage_in lustre://in.dat pmdk0://a/in.dat\n\
                     #NORNS stage_out pmdk0://a/out.dat lustre://a.out\n",
                    Body {
                        writes: &["a/out.dat"],
                        ok: true,
                    },
                ),
                (
                    "#SBATCH --job-name=b\n#SBATCH --workflow-prior-dependency=a\n\
                     #NORNS stage_in lustre://a.out pmdk0://b/in.dat\n\
                     #NORNS stage_out pmdk0://b/out.dat lustre://b.out\n",
                    Body {
                        writes: &["b/out.dat"],
                        ok: true,
                    },
                ),
                (
                    "#SBATCH --job-name=c\n#SBATCH --workflow-end\n\
                     #SBATCH --workflow-prior-dependency=b\n\
                     #NORNS stage_in lustre://b.out pmdk0://c/in.dat\n\
                     #NORNS stage_out pmdk0://c/out.dat lustre://c.out\n",
                    Body {
                        writes: &["c/out.dat"],
                        ok: true,
                    },
                ),
            ],
            probes: &[
                "lustre://a.out",
                "lustre://b.out",
                "lustre://c.out",
                "pmdk0://c/out.dat",
            ],
            timeout: false,
        },
        Row {
            name: "stage-in origin missing",
            jobs: &[(
                "#SBATCH --job-name=m\n\
                 #NORNS stage_in lustre://in.dat pmdk0://m/in.dat\n\
                 #NORNS stage_in lustre://ghost.dat pmdk0://m/ghost.dat\n",
                RUNS,
            )],
            probes: &["pmdk0://m/in.dat", "pmdk0://m/ghost.dat"],
            timeout: false,
        },
        Row {
            name: "stage-in timeout",
            jobs: &[(
                "#SBATCH --job-name=t\n#NORNS stage_in lustre://big.dat pmdk0://t/big.dat\n",
                RUNS,
            )],
            probes: &["pmdk0://t/big.dat"],
            timeout: true,
        },
        Row {
            name: "body failure",
            jobs: &[(
                "#SBATCH --job-name=f\n\
                 #NORNS stage_in lustre://in.dat pmdk0://f/in.dat\n\
                 #NORNS stage_out pmdk0://f/out.dat lustre://f.out\n",
                Body {
                    writes: &["f/out.dat"],
                    ok: false,
                },
            )],
            probes: &["pmdk0://f/in.dat", "pmdk0://f/out.dat", "lustre://f.out"],
            timeout: false,
        },
        Row {
            name: "stage-out with one failing leg and one good leg",
            jobs: &[(
                "#SBATCH --job-name=o\n\
                 #NORNS stage_out pmdk0://o/good.dat lustre://o/good.dat\n\
                 #NORNS stage_out pmdk0://o/bad.dat lustre://blocker/bad.dat\n",
                Body {
                    writes: &["o/good.dat", "o/bad.dat"],
                    ok: true,
                },
            )],
            probes: &[
                "lustre://o/good.dat",
                "pmdk0://o/good.dat",
                "pmdk0://o/bad.dat",
            ],
            timeout: false,
        },
        Row {
            name: "upstream failure cascading through a chain",
            jobs: &[
                (
                    "#SBATCH --job-name=u1\n#SBATCH --workflow-start\n\
                     #NORNS stage_in lustre://ghost.dat pmdk0://u/ghost.dat\n",
                    RUNS,
                ),
                (
                    "#SBATCH --job-name=u2\n#SBATCH --workflow-prior-dependency=u1\n",
                    RUNS,
                ),
                (
                    "#SBATCH --job-name=u3\n#SBATCH --workflow-end\n\
                     #SBATCH --workflow-prior-dependency=u2\n",
                    RUNS,
                ),
            ],
            probes: &["pmdk0://u/ghost.dat"],
            timeout: false,
        },
        Row {
            name: "success-cleanup gap",
            jobs: &[(
                "#SBATCH --job-name=g\n#NORNS stage_in lustre://in.dat pmdk0://g/in.dat\n",
                RUNS,
            )],
            probes: &["pmdk0://g/in.dat"],
            timeout: false,
        },
    ];

    /// The gap row's one probe: present in real mode only.
    const GAP: &str = "success-cleanup gap";

    struct Model {
        world: NornsWorld,
        ctld: Slurmctld,
        bodies: Vec<(String, &'static Body)>,
    }

    impl FluidModel for Model {
        fn fluid_mut(&mut self) -> &mut FluidSystem {
            &mut self.world.fluid
        }
        fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
            norns::handle_flow_complete(sim, done);
        }
    }

    impl HasNorns for Model {
        fn norns_mut(&mut self) -> &mut NornsWorld {
            &mut self.world
        }
        fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion) {
            slurm_sim::handle_task_complete(sim, &completion);
        }
    }

    impl HasSlurm for Model {
        fn ctld_mut(&mut self) -> &mut Slurmctld {
            &mut self.ctld
        }
        /// A started job's body writes its outputs on its node, and
        /// ends a second later as the row says.
        fn on_job_event(sim: &mut Sim<Self>, event: JobEvent) {
            let JobEvent::Started { job, nodes } = event else {
                return;
            };
            let name = &sim.model.ctld.job(job).unwrap().script.name;
            let body = sim.model.bodies.iter().find(|(n, _)| n == name).unwrap().1;
            let pmdk = sim.model.world.storage.resolve("pmdk0").unwrap();
            for path in body.writes {
                let ns = sim.model.world.storage.ns_mut(pmdk, Some(nodes[0]));
                ns.write_file(path, 1 << 20, &Cred::new(1000, 1000), Mode(0o644))
                    .unwrap();
            }
            let result = if body.ok {
                Ok(())
            } else {
                Err("exit 1".into())
            };
            sim.schedule_in(SimDuration::from_secs(1), move |sim| {
                slurm_sim::app_finished(sim, job, result)
            });
        }
    }

    fn sim_row(row: &'static Row) -> (Vec<Verdict>, Vec<bool>) {
        let tb = cluster::nextgenio_quiet(2);
        let stage_in_timeout = match row.timeout {
            true => SimDuration::from_millis(1),
            false => SchedConfig::default().stage_in_timeout,
        };
        let config = SchedConfig {
            stage_in_timeout,
            ..SchedConfig::default()
        };
        let ctld = Slurmctld::new(2, config);
        let bodies = Vec::new();
        let mut sim = Sim::new(
            Model {
                world: tb.world,
                ctld,
                bodies,
            },
            11,
        );
        let cred = Cred::new(1000, 1000);
        for n in 0..2 {
            norns::sim::ops::register_dataspace(&mut sim, n, "pmdk0", "pmdk0", false).unwrap();
            norns::sim::ops::register_dataspace(&mut sim, n, "lustre", "lustre", false).unwrap();
        }
        let lustre = sim.model.world.storage.resolve("lustre").unwrap();
        let shared = sim.model.world.storage.ns_mut(lustre, None);
        shared
            .write_file("in.dat", 1 << 20, &cred, Mode(0o644))
            .unwrap();
        shared
            .write_file("big.dat", 1 << 30, &cred, Mode(0o644))
            .unwrap();
        shared.write_file("blocker", 1, &cred, Mode(0o644)).unwrap();
        let ids: Vec<_> = row
            .jobs
            .iter()
            .map(|(script, body)| {
                let parsed = norns_flow::parse(script).unwrap();
                sim.model.bodies.push((parsed.name, body));
                submit_script(&mut sim, script, cred.clone(), slurm_sim::JobBody::External).unwrap()
            })
            .collect();
        sim.run();
        let verdicts = ids
            .iter()
            .map(|&id| {
                let job = sim.model.ctld.job(id).unwrap();
                let why = class(job.failure_reason.as_deref());
                (job.life.state, why, job.leftover_stageout.len())
            })
            .collect();
        let pmdk = sim.model.world.storage.resolve("pmdk0").unwrap();
        let storage = &sim.model.world.storage;
        let probes = row
            .probes
            .iter()
            .map(|probe| match probe.split_once("://").unwrap() {
                ("lustre", path) => storage.ns(lustre, None).exists(path),
                (_, path) => (0..2).any(|n| storage.ns(pmdk, Some(n)).exists(path)),
            })
            .collect();
        (verdicts, probes)
    }

    fn real_row(row: &'static Row) -> (Vec<Verdict>, Vec<bool>) {
        let stage_in_timeout = match row.timeout {
            true => Duration::ZERO,
            false => FlowConfig::default().stage_in_timeout,
        };
        let config = FlowConfig {
            stage_in_timeout,
            ..FlowConfig::default()
        };
        let tag = format!("job-{}", row.name.split(' ').next().unwrap());
        let mut c = real_cluster(&tag, config);
        fs::write(c.lustre.join("in.dat"), vec![7u8; 1 << 10]).unwrap();
        fs::write(c.lustre.join("big.dat"), vec![7u8; 1 << 10]).unwrap();
        fs::write(c.lustre.join("blocker"), b"a file, not a directory").unwrap();
        let ids: Vec<_> = row
            .jobs
            .iter()
            .enumerate()
            .map(|(i, (script, body))| {
                // The executor deals one-node jobs round-robin.
                let mount = c.pmdk[i % 2].clone();
                let (writes, ok) = (body.writes, body.ok);
                let run = move || {
                    for path in writes {
                        let file = mount.join(path);
                        fs::create_dir_all(file.parent().unwrap()).map_err(|e| e.to_string())?;
                        fs::write(file, vec![7u8; 1 << 10]).map_err(|e| e.to_string())?;
                    }
                    if ok {
                        Ok(())
                    } else {
                        Err("exit 1".into())
                    }
                };
                c.exec.submit(script, JobBody::Run(Box::new(run))).unwrap()
            })
            .collect();
        c.exec.run().unwrap();
        let verdicts = ids
            .iter()
            .map(|&id| {
                let state = c.exec.job_state(id).unwrap();
                (state, class(c.exec.failure(id)), c.exec.leftovers(id).len())
            })
            .collect();
        let probes = row
            .probes
            .iter()
            .map(|probe| match probe.split_once("://").unwrap() {
                ("lustre", path) => c.lustre.join(path).exists(),
                (_, path) => c.pmdk.iter().any(|m| m.join(path).exists()),
            })
            .collect();
        c.shutdown();
        (verdicts, probes)
    }

    /// What each row must come to, in both worlds.
    fn expected(row: &Row) -> (Vec<Verdict>, Vec<bool>) {
        use JobState::{Cancelled, Completed, Failed};
        let [upstream, _, stage_in, timeout, body] = WHY.map(Some);
        match row.name {
            "happy 3-job chain" => (vec![(Completed, None, 0); 3], vec![true, true, true, false]),
            "stage-in origin missing" => (vec![(Failed, stage_in, 0)], vec![false, false]),
            "stage-in timeout" => (vec![(Cancelled, timeout, 0)], vec![false]),
            "body failure" => (vec![(Failed, body, 0)], vec![true, true, false]),
            "stage-out with one failing leg and one good leg" => {
                (vec![(Completed, None, 1)], vec![true, false, true])
            }
            "upstream failure cascading through a chain" => (
                vec![
                    (Failed, stage_in, 0),
                    (Cancelled, upstream, 0),
                    (Cancelled, upstream, 0),
                ],
                vec![false],
            ),
            GAP => (vec![(Completed, None, 0)], vec![false]),
            other => panic!("no expectation for row {other:?}"),
        }
    }

    #[test]
    fn job_lifecycle_gives_every_row_the_same_verdict_in_both_worlds() {
        for row in ROWS {
            let (verdicts, probes) = expected(row);
            let sim = sim_row(row);
            assert_eq!(
                sim,
                (verdicts.clone(), probes.clone()),
                "sim, row {:?}",
                row.name
            );
            let real = real_row(row);
            // The gap: real mode keeps a completed job's stage-in data.
            let probes = match row.name {
                GAP => vec![true],
                _ => probes,
            };
            assert_eq!(real, (verdicts, probes), "real, row {:?}", row.name);
        }
    }
}

/// The admission differential: every task shape — 3 ops × {memory,
/// local, remote} input × {none, memory, local, remote} output × a
/// file, directory or dataspace-root input — submitted to a simulated
/// two-node cluster and to two live daemons. The simulator must give
/// the one admission table's verdict (`norns_sched::shape`) on every
/// row; the daemon must too, except on the rows it lists as not
/// executed yet, which it refuses with that gap's message. A memory
/// region is never a directory or a root, so its rows come once.
///
/// A verdict is `Ok` for a task that finished, or the `BadArgs`
/// message it was refused with — at submission, or as the task's
/// terminal error where only execution learns the input is a
/// directory (a pull: only the peer sees what it names).
mod admission {
    use std::fs;
    use std::path::{Path, PathBuf};

    use norns::sim::ops;
    use norns::{ApiSource, HasNorns, JobId, JobSpec, NornsError, NornsWorld, TaskCompletion};
    use norns_ipc::{DaemonConfig, UrdDaemon};
    use norns_proto::{
        BackendKind, DataspaceDesc, Durability, ErrorCode, ResourceDesc, TaskOp, TaskSpec,
        TaskState,
    };
    use norns_sched::shape::{admit, Kind, Plugin, Refusal, Shape};
    use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim};
    use simstore::{Cred, Mode};

    /// Bytes in every input file and memory region.
    const SIZE: u64 = 4096;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Form {
        File,
        Directory,
        Root,
    }

    #[derive(Debug, Clone, Copy)]
    struct Row {
        op: TaskOp,
        input: Kind,
        output: Option<Kind>,
        form: Form,
        /// Submitted `synchronous`: only its submit verdict is judged.
        durable: bool,
    }

    /// Every shape, plain and `synchronous`, each row with its own
    /// index (its input and output names).
    fn rows() -> Vec<Row> {
        let mut rows = Vec::new();
        for (durable, op) in [false, true]
            .into_iter()
            .flat_map(|d| [TaskOp::Copy, TaskOp::Move, TaskOp::Remove].map(|op| (d, op)))
        {
            for input in [Kind::Memory, Kind::Local, Kind::Remote] {
                for output in [
                    None,
                    Some(Kind::Memory),
                    Some(Kind::Local),
                    Some(Kind::Remote),
                ] {
                    let forms: &[Form] = match input {
                        Kind::Memory => &[Form::File],
                        _ => &[Form::File, Form::Directory, Form::Root],
                    };
                    for &form in forms {
                        rows.push(Row {
                            op,
                            input,
                            output,
                            form,
                            durable,
                        });
                    }
                }
            }
        }
        rows
    }

    type Verdict = Result<(), String>;

    fn shape(row: Row) -> Shape {
        Shape {
            op: row.op,
            input: row.input,
            output: row.output,
            input_names_root: row.form == Form::Root,
            durable: row.durable,
        }
    }

    /// The table's verdict: the shape, then — for a directory or a
    /// root — whether its plugin carries a directory.
    fn table(row: Row) -> Result<Plugin, Refusal> {
        let plugin = admit(shape(row))?;
        if row.form != Form::File {
            plugin.carries_directory()?;
        }
        Ok(plugin)
    }

    /// The rows the table admits that the daemon does not execute yet:
    /// memory to or from another node (whatever the input turns out to
    /// be: the daemon never looks), and a tree across nodes.
    fn daemon_gap(row: Row) -> Option<Refusal> {
        match admit(shape(row)) {
            Ok(Plugin::MemoryToRemote | Plugin::RemoteToMemory) => Some(Refusal::MemoryAcrossNodes),
            Ok(Plugin::LocalToRemote | Plugin::RemoteToLocal) if row.form != Form::File => {
                Some(Refusal::TreeAcrossNodes)
            }
            _ => None,
        }
    }

    fn message(refusal: Refusal) -> String {
        refusal.message().to_string()
    }

    /// The input path of row `i` (created by each world's seeding).
    fn input_path(i: usize, form: Form) -> String {
        match form {
            Form::File => format!("f{i}"),
            Form::Directory => format!("d{i}"),
            Form::Root => String::new(),
        }
    }

    /// Row `i`'s one task, submitted unchanged to both worlds: a local
    /// input on `lustre`, a local output on `pmdk0`, a remote end on
    /// `peer`'s `pmdk0`.
    fn spec_of(i: usize, row: Row, peer: &str) -> TaskSpec {
        let end = |kind: Kind, local: &str, path: String| match kind {
            Kind::Memory => ResourceDesc::MemoryRegion {
                addr: 0,
                size: SIZE,
            },
            Kind::Local => ResourceDesc::posix(local, path),
            Kind::Remote => ResourceDesc::remote(peer, "pmdk0", path),
        };
        let input = end(row.input, "lustre", input_path(i, row.form));
        let output = row.output.map(|kind| end(kind, "pmdk0", format!("o{i}")));
        let spec = TaskSpec::new(row.op, input, output);
        match row.durable {
            true => spec.with_durability(Durability::Synchronous),
            false => spec,
        }
    }

    // ---- the simulated cluster: `lustre` on node 0 (input), `pmdk0`
    // on both nodes (node 0's is the local output, node 1's the
    // remote end) ----

    struct Model {
        world: NornsWorld,
    }

    impl FluidModel for Model {
        fn fluid_mut(&mut self) -> &mut FluidSystem {
            &mut self.world.fluid
        }
        fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
            norns::handle_flow_complete(sim, done);
        }
    }

    impl HasNorns for Model {
        fn norns_mut(&mut self) -> &mut NornsWorld {
            &mut self.world
        }
        fn on_task_complete(_sim: &mut Sim<Self>, _completion: TaskCompletion) {}
    }

    fn sim_cluster() -> Sim<Model> {
        let world = cluster::nextgenio_quiet(2).world;
        let mut sim = Sim::new(Model { world }, 11);
        for node in 0..2 {
            ops::register_dataspace(&mut sim, node, "lustre", "lustre", false).unwrap();
            ops::register_dataspace(&mut sim, node, "pmdk0", "pmdk0", false).unwrap();
        }
        let job = JobSpec {
            id: JobId(1),
            hosts: vec![0, 1],
            limits: vec![("lustre".into(), 0), ("pmdk0".into(), 0)],
            cred: Cred::new(1000, 1000),
        };
        ops::register_job(&mut sim, job).unwrap();
        sim
    }

    /// Row `i`'s input files, on node 0's `lustre` or node 1's `pmdk0`.
    fn sim_seed(sim: &mut Sim<Model>, i: usize, row: Row) {
        let path = input_path(i, row.form);
        let (tier, node) = match row.input {
            Kind::Remote => ("pmdk0", Some(1)),
            _ => ("lustre", None),
        };
        let files = match row.form {
            Form::File => vec![path.clone()],
            Form::Directory => vec![format!("{path}/a"), format!("{path}/b")],
            Form::Root => vec![],
        };
        let world = &mut sim.model.world;
        let tier = world.storage.resolve(tier).unwrap();
        for file in &files {
            let cred = Cred::new(1000, 1000);
            let ns = world.storage.ns_mut(tier, node);
            ns.write_file(file, SIZE, &cred, Mode(0o644)).unwrap();
        }
    }

    /// The verdict on `spec`: its submit's, then its run's — a durable
    /// task's run is run out, not judged.
    fn sim_verdict(sim: &mut Sim<Model>, spec: TaskSpec) -> Verdict {
        let source = ApiSource::Control;
        let durable = spec.durability != Durability::LocalOnly;
        let id = match ops::submit_task(sim, 0, JobId(1), source, spec, 0) {
            Ok(id) => id,
            Err(NornsError::BadArgs(why)) => return Err(why),
            Err(e) => panic!("sim refused with {e:?}"),
        };
        loop {
            let task = sim.model.world.urds[0].task(id).unwrap();
            if task.life.state.is_terminal() {
                return match &task.error {
                    _ if durable => Ok(()),
                    None => Ok(()),
                    Some(NornsError::BadArgs(why)) => Err(why.clone()),
                    Some(e) => panic!("sim task failed with {e:?}"),
                };
            }
            assert!(sim.step(), "the sim ran dry before the task ended");
        }
    }

    // ---- the live cluster: node A holds `lustre` (input) and `pmdk0`
    // (local output), node B its own `pmdk0` (the remote end), which A
    // knows by the simulator's name for node 1 ----

    struct Live {
        root: PathBuf,
        a: UrdDaemon,
        _b: UrdDaemon,
    }

    fn daemon(root: &Path, name: &str, dataspaces: &[&str]) -> UrdDaemon {
        let config = DaemonConfig::in_dir(root.join(name).join("sockets"));
        let daemon = UrdDaemon::spawn(config.with_data_addr("127.0.0.1:0")).unwrap();
        for nsid in dataspaces {
            let mount = root.join(name).join(nsid);
            fs::create_dir_all(&mount).unwrap();
            let desc = DataspaceDesc {
                nsid: nsid.to_string(),
                kind: BackendKind::PosixFilesystem,
                mount: mount.to_string_lossy().into_owned(),
                quota: 0,
                tracked: false,
            };
            daemon.engine().register_dataspace(desc).unwrap();
        }
        daemon
    }

    fn live_cluster(peer: &str) -> Live {
        let root =
            std::env::temp_dir().join(format!("norns-diff-admission-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let a = daemon(&root, "a", &["lustre", "pmdk0"]);
        let b = daemon(&root, "b", &["pmdk0"]);
        let b_addr = b.data_addr().unwrap().to_string();
        a.engine().register_peer(peer, b_addr);
        Live { root, a, _b: b }
    }

    /// Row `i`'s input files, on A's `lustre` or B's `pmdk0`.
    fn live_seed(live: &Live, i: usize, row: Row) {
        let path = input_path(i, row.form);
        let mount = match row.input {
            Kind::Remote => live.root.join("b/pmdk0"),
            _ => live.root.join("a/lustre"),
        };
        match row.form {
            Form::File => fs::write(mount.join(&path), [7u8; SIZE as usize]).unwrap(),
            Form::Directory => {
                fs::create_dir_all(mount.join(&path)).unwrap();
                for leaf in ["a", "b"] {
                    fs::write(mount.join(&path).join(leaf), [7u8; SIZE as usize]).unwrap();
                }
            }
            Form::Root => {}
        }
    }

    /// As [`sim_verdict`]; a memory input's bytes ride as the payload.
    fn live_verdict(live: &Live, spec: TaskSpec) -> Verdict {
        let engine = live.a.engine();
        let durable = spec.durability != Durability::LocalOnly;
        let payload = match spec.input {
            ResourceDesc::MemoryRegion { size, .. } => Some(vec![7u8; size as usize]),
            _ => None,
        };
        let id = match engine.submit(1, spec, payload) {
            Ok(id) => id,
            Err(e) if e.code == ErrorCode::BadArgs => return Err(e.message),
            Err(e) => panic!("daemon refused with {e}"),
        };
        let stats = engine.wait(id, 0).unwrap();
        match (stats.state, stats.error) {
            _ if durable => Ok(()),
            (TaskState::Finished, _) => Ok(()),
            (TaskState::FinishedWithError, ErrorCode::BadArgs) => {
                Err(engine.error_message(id).unwrap())
            }
            other => panic!(
                "daemon task ended {other:?}: {:?}",
                engine.error_message(id)
            ),
        }
    }

    #[test]
    fn every_shape_gets_the_tables_verdict_in_both_worlds() {
        let rows = rows();
        assert_eq!(rows.len(), 2 * 3 * 4 * (1 + 2 * 3), "every shape, twice");
        let mut sim = sim_cluster();
        let live = live_cluster(sim.model.world.host(1));
        let (mut wrong, mut admitted) = (Vec::new(), [(0, 0); 2]);
        for (i, &row) in rows.iter().enumerate() {
            let verdict = table(row);
            let want_sim: Verdict = verdict.map(drop).map_err(message);
            let want_live = daemon_gap(row).map_or(want_sim.clone(), |gap| Err(message(gap)));
            let spec = spec_of(i, row, sim.model.world.host(1));
            sim_seed(&mut sim, i, row);
            let got_sim = sim_verdict(&mut sim, spec.clone());
            live_seed(&live, i, row);
            let got_live = live_verdict(&live, spec);
            let counted = &mut admitted[usize::from(row.durable)];
            counted.0 += usize::from(got_sim.is_ok());
            counted.1 += usize::from(got_live.is_ok());
            if got_sim != want_sim || got_live != want_live {
                wrong.push(format!(
                    "{row:?}: table {verdict:?}; sim {got_sim:?}; daemon {got_live:?}"
                ));
            }
        }
        drop(live.a);
        let _ = fs::remove_dir_all(&live.root);
        assert!(wrong.is_empty(), "verdicts differ:\n{}", wrong.join("\n"));
        // Both worlds follow the table, so a flipped row would pass the
        // comparison above; the counts pin the table itself. A
        // `synchronous` task is admitted only to a local stage-out: a
        // memory write or a local copy, 7 shapes in each world.
        assert_eq!(
            admitted,
            [(23, 13), (7, 7)],
            "shapes run by the simulator and by the daemon, plain and synchronous"
        );
    }
}

/// The durability differential: one stage-out under each durability
/// mode × {a peer, no peer, a peer that refuses the replica}, plus a
/// cross-filesystem `Move` under each mode (and a refused `synchronous`
/// one), run by a simulated urd and by a live daemon. Both apply the
/// one durability table (`norns_sched::durability`) where a task's run
/// ends, and must agree on whether the verdict came while a replica was
/// still out, on the verdict and the class of its failure, on which
/// copies exist, and on whether the source was freed. The live peer
/// sits behind a relay that holds the replica until the verdict has had
/// 200 ms to come, so an early ACK shows the same way every run. The
/// `Move`'s source lives on tmpfs (`/dev/shm`) in the live world and on
/// the shared tier in the simulator, so in both its landing is a copy;
/// where `/dev/shm` shares the scratch filesystem the `Move` rows say
/// so and are left out.
mod durability {
    use std::fs;
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    use norns::sim::ops;
    use norns::{ApiSource, HasNorns, JobId, JobSpec, NornsError, NornsWorld, TaskCompletion};
    use norns_ipc::{DaemonConfig, UrdDaemon};
    use norns_proto::{
        BackendKind, DataspaceDesc, Durability, ResourceDesc, TaskOp, TaskSpec, TaskState,
    };
    use norns_sched::durability::Why;
    use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim};
    use simstore::{Cred, Mode};

    const SIZE: u64 = 1 << 20;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Peer {
        Ready,
        Absent,
        Refusing,
    }

    #[derive(Debug, Clone, Copy)]
    struct Row {
        mode: Durability,
        op: TaskOp,
        peer: Peer,
    }

    /// What a row comes to in one world.
    #[derive(Debug, Clone, PartialEq)]
    struct Seen {
        /// A replica was still out when the task's verdict came.
        verdict_before_replica: bool,
        state: TaskState,
        class: Option<Why>,
        /// The landed output at the origin, and its replica at the peer.
        copies: (bool, bool),
        source_freed: bool,
    }

    const MODES: [Durability; 3] = [
        Durability::LocalOnly,
        Durability::LocalPlusOne,
        Durability::Synchronous,
    ];

    fn rows() -> Vec<Row> {
        let mut rows = Vec::new();
        for mode in MODES {
            for peer in [Peer::Ready, Peer::Absent, Peer::Refusing] {
                rows.push(Row {
                    mode,
                    op: TaskOp::Copy,
                    peer,
                });
            }
        }
        for mode in MODES {
            let op = TaskOp::Move;
            rows.push(Row {
                mode,
                op,
                peer: Peer::Ready,
            });
        }
        rows.push(Row {
            mode: Durability::Synchronous,
            op: TaskOp::Move,
            peer: Peer::Refusing,
        });
        rows
    }

    /// The failure class a verdict's message names.
    fn class(message: &str) -> Why {
        let why = [Why::NoPeer, Why::ReplicaFailed];
        let found = why.into_iter().find(|w| message.starts_with(w.message()));
        found.unwrap_or_else(|| panic!("{message:?} is in no durability class"))
    }

    /// The row's one stage-out, `src://in.dat` to `ds0://out.dat`,
    /// submitted unchanged to both worlds.
    fn spec_of(row: Row) -> TaskSpec {
        let (input, output) = (
            ResourceDesc::posix("src", "in.dat"),
            ResourceDesc::posix("ds0", "out.dat"),
        );
        TaskSpec::new(row.op, input, Some(output)).with_durability(row.mode)
    }

    /// What every row must come to, in both worlds.
    fn expected(row: Row) -> Seen {
        use Durability::*;
        let replicated = row.peer == Peer::Ready && row.mode != LocalOnly;
        let (state, class) = match (row.mode, row.peer) {
            (Synchronous, Peer::Absent) => (TaskState::FinishedWithError, Some(Why::NoPeer)),
            (Synchronous, Peer::Refusing) => {
                (TaskState::FinishedWithError, Some(Why::ReplicaFailed))
            }
            _ => (TaskState::Finished, None),
        };
        Seen {
            verdict_before_replica: row.mode == LocalPlusOne && row.peer != Peer::Absent,
            state,
            class,
            copies: (true, replicated),
            source_freed: row.op == TaskOp::Move && state == TaskState::Finished,
        }
    }

    // ---- the simulated cluster: node 0 the origin (`src` on the
    // shared tier, `ds0` on its node-local tier), node 1 a peer with
    // its own `ds0`, node 2 a peer without one ----

    struct Model {
        world: NornsWorld,
        /// The client task's verdict, with the replicas still out then.
        verdict: Option<(TaskCompletion, u64)>,
    }

    impl FluidModel for Model {
        fn fluid_mut(&mut self) -> &mut FluidSystem {
            &mut self.world.fluid
        }
        fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
            norns::handle_flow_complete(sim, done);
        }
    }

    impl HasNorns for Model {
        fn norns_mut(&mut self) -> &mut NornsWorld {
            &mut self.world
        }
        fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion) {
            let out = sim.model.world.urd(0).pending_replicas;
            sim.model.verdict = Some((completion, out));
        }
    }

    fn sim_row(row: Row, spec: TaskSpec) -> Seen {
        let world = cluster::nextgenio_quiet(3).world;
        let mut sim = Sim::new(
            Model {
                world,
                verdict: None,
            },
            13,
        );
        ops::register_dataspace(&mut sim, 0, "src", "lustre", false).unwrap();
        ops::register_dataspace(&mut sim, 0, "ds0", "pmdk0", false).unwrap();
        ops::register_dataspace(&mut sim, 1, "ds0", "pmdk0", false).unwrap();
        ops::register_dataspace(&mut sim, 2, "src", "lustre", false).unwrap();
        let peer = match row.peer {
            Peer::Ready => Some(1),
            Peer::Absent => None,
            Peer::Refusing => Some(2),
        };
        if let Some(peer) = peer {
            ops::register_peer(&mut sim, 0, peer);
        }
        let cred = Cred::new(1000, 1000);
        let job = JobSpec {
            id: JobId(1),
            hosts: vec![0],
            limits: vec![("src".into(), 0), ("ds0".into(), 0)],
            cred: cred.clone(),
        };
        ops::register_job(&mut sim, job).unwrap();
        let (lustre, pmdk) = {
            let storage = &sim.model.world.storage;
            (
                storage.resolve("lustre").unwrap(),
                storage.resolve("pmdk0").unwrap(),
            )
        };
        let shared = sim.model.world.storage.ns_mut(lustre, None);
        shared
            .write_file("in.dat", SIZE, &cred, Mode(0o644))
            .unwrap();
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
        sim.run();
        let (completion, out) = sim.model.verdict.take().expect("the task ended");
        let message = |e: &NornsError| match e {
            NornsError::NotFound(m) | NornsError::TaskError(m) => m.clone(),
            other => panic!("sim failed with {other:?}"),
        };
        let storage = &sim.model.world.storage;
        Seen {
            verdict_before_replica: out > 0,
            state: completion.state,
            class: completion.error.as_ref().map(|e| class(&message(e))),
            copies: (
                storage.ns(pmdk, Some(0)).exists("out.dat"),
                peer.is_some_and(|p| storage.ns(pmdk, Some(p)).exists("out.dat")),
            ),
            source_freed: !storage.ns(lustre, None).exists("in.dat"),
        }
    }

    // ---- the live cluster: the same three nodes as daemons ----

    /// A relay to `upstream` that holds every byte sent towards it until
    /// it is opened.
    struct Gate {
        addr: SocketAddr,
        open: Arc<(Mutex<bool>, Condvar)>,
    }

    impl Gate {
        fn new(upstream: SocketAddr) -> Gate {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let open = Arc::new((Mutex::new(false), Condvar::new()));
            let gate = Arc::clone(&open);
            std::thread::spawn(move || {
                for client in listener.incoming() {
                    let Ok(mut up_from) = client else { return };
                    let mut up_to = TcpStream::connect(upstream).unwrap();
                    let (mut down_from, mut down_to) =
                        (up_to.try_clone().unwrap(), up_from.try_clone().unwrap());
                    std::thread::spawn(move || std::io::copy(&mut down_from, &mut down_to));
                    let gate = Arc::clone(&gate);
                    std::thread::spawn(move || {
                        let (lock, cv) = &*gate;
                        drop(cv.wait_while(lock.lock().unwrap(), |open| !*open).unwrap());
                        let _ = std::io::copy(&mut up_from, &mut up_to);
                        let _ = up_to.shutdown(Shutdown::Write);
                    });
                }
            });
            Gate { addr, open }
        }

        fn open(&self) {
            let (lock, cv) = &*self.open;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
    }

    fn daemon(dataspaces: &[(&str, &Path)]) -> UrdDaemon {
        let (_, first) = dataspaces[0];
        let config = DaemonConfig::in_dir(first.parent().unwrap().join("sockets"));
        let daemon = UrdDaemon::spawn(config.with_data_addr("127.0.0.1:0")).unwrap();
        for (nsid, mount) in dataspaces {
            fs::create_dir_all(mount).unwrap();
            let desc = DataspaceDesc {
                nsid: nsid.to_string(),
                kind: BackendKind::PosixFilesystem,
                mount: mount.to_string_lossy().into_owned(),
                quota: 0,
                tracked: false,
            };
            daemon.engine().register_dataspace(desc).unwrap();
        }
        daemon
    }

    /// Where the live `src` dataspace can sit on another filesystem
    /// than `ds0`: `/dev/shm` beside the scratch directory.
    fn fast_dir() -> Option<PathBuf> {
        use std::os::unix::fs::MetadataExt;
        let shm = Path::new("/dev/shm");
        let dev = |p: &Path| fs::metadata(p).map(|m| m.dev()).ok();
        let apart = shm.is_dir() && dev(shm) != dev(&std::env::temp_dir());
        apart.then(|| shm.join(format!("norns-diff-durability-{}", std::process::id())))
    }

    fn live_row(i: usize, row: Row, spec: TaskSpec, fast: &Path) -> Seen {
        let root =
            std::env::temp_dir().join(format!("norns-diff-durability-{}-{i}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let src = fast.join(format!("{i}"));
        let origin = daemon(&[("ds0", &root.join("a/ds0")), ("src", &src)]);
        let ready = daemon(&[("ds0", &root.join("b/ds0"))]);
        let refusing = daemon(&[("src", &root.join("c/src"))]);
        let engine = origin.engine();
        let peer = match row.peer {
            Peer::Ready => Some((&ready, root.join("b/ds0/out.dat"))),
            Peer::Absent => None,
            Peer::Refusing => Some((&refusing, root.join("c/ds0/out.dat"))),
        };
        let gate = peer
            .as_ref()
            .map(|(d, _)| Gate::new(d.data_addr().unwrap()));
        if let Some(gate) = &gate {
            engine.register_peer("peer", gate.addr.to_string());
        }
        fs::write(src.join("in.dat"), vec![7u8; SIZE as usize]).unwrap();
        let id = engine.submit(1, spec, None).unwrap();
        let early = engine.wait(id, 200_000).unwrap();
        let out = engine.status().pending_replicas;
        if let Some(gate) = &gate {
            gate.open();
        }
        let stats = engine.wait(id, 0).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while engine.status().pending_replicas > 0 {
            assert!(Instant::now() < deadline, "replicas never drained");
            std::thread::sleep(Duration::from_millis(5));
        }
        let failure = engine.error_message(id);
        let seen = Seen {
            verdict_before_replica: early.state.is_terminal() && out > 0,
            state: stats.state,
            class: failure.as_deref().map(class),
            copies: (
                root.join("a/ds0/out.dat").exists(),
                peer.as_ref().is_some_and(|(_, landed)| landed.exists()),
            ),
            source_freed: !src.join("in.dat").exists(),
        };
        drop((origin, ready, refusing));
        let _ = fs::remove_dir_all(&root);
        seen
    }

    #[test]
    fn every_durability_row_gets_the_same_result_in_both_worlds() {
        let fast = fast_dir();
        let scratch = fast.clone().unwrap_or_else(|| {
            eprintln!("note: /dev/shm shares the scratch filesystem; the Move rows are left out");
            std::env::temp_dir().join(format!("norns-diff-durability-src-{}", std::process::id()))
        });
        let mut wrong = Vec::new();
        for (i, row) in rows().into_iter().enumerate() {
            if fast.is_none() && row.op == TaskOp::Move {
                continue;
            }
            let want = expected(row);
            let spec = spec_of(row);
            let sim = sim_row(row, spec.clone());
            let live = live_row(i, row, spec, &scratch);
            if sim != want || live != want {
                wrong.push(format!(
                    "{row:?}:\n  want {want:?}\n  sim  {sim:?}\n  live {live:?}"
                ));
            }
        }
        let _ = fs::remove_dir_all(&scratch);
        assert!(wrong.is_empty(), "rows differ:\n{}", wrong.join("\n"));
    }
}

/// The registry differential: seeded sequences of the eight
/// registration verbs (a dataspace registered, updated, unregistered; a
/// job registered or updated with limits naming nothing, either
/// dataspace or one never registered, or unregistered; a process added
/// or removed), run by a simulated urd and by a live daemon over its
/// control socket. Both hold the one job & dataspace table
/// (`norns_sched::registry`), so per verb they must give the table's
/// answer, `Ok` or the same refusal text (on the wire as `BadArgs` for
/// what exists, `NotFound` for what is missing), and agree on the
/// registered job and dataspace counts and on which pids are known.
mod registry {
    use std::fs;
    use std::path::Path;

    use norns::sim::ops;
    use norns::{DataspaceSpec, HasNorns, JobId, JobSpec, NornsWorld, TaskCompletion};
    use norns_ipc::{ClientError, CtlClient, DaemonConfig, UrdDaemon};
    use norns_proto::{BackendKind, DataspaceDesc, ErrorCode, JobDesc};
    use norns_sched::registry::{Refusal, Registry};
    use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim};
    use simstore::Cred;

    /// Both simulator tiers; each world backs a dataspace by its own.
    const NSIDS: [&str; 2] = ["lustre", "pmdk0"];
    const JOBS: [u64; 2] = [1, 2];
    const PIDS: [u64; 2] = [100, 200];
    const LIMITS: [Option<&str>; 4] = [None, Some("lustre"), Some("pmdk0"), Some("ghost")];
    const SEEDS: u64 = 16;
    const STEPS: usize = 48;

    #[derive(Debug, Clone, Copy)]
    enum Verb {
        RegisterDataspace(&'static str),
        UpdateDataspace(&'static str),
        UnregisterDataspace(&'static str),
        RegisterJob(u64, Option<&'static str>),
        UpdateJob(u64, Option<&'static str>),
        UnregisterJob(u64),
        AddProcess(u64, u64),
        RemoveProcess(u64, u64),
    }

    /// The next verb of a sequence, drawn by xorshift from `state`.
    fn draw(state: &mut u64) -> Verb {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let r = (*state >> 8) as usize;
        let (ns, job, pid, limit) = (
            NSIDS[r % 2],
            JOBS[(r >> 1) % 2],
            PIDS[(r >> 2) % 2],
            LIMITS[(r >> 3) % 4],
        );
        match (r >> 5) % 8 {
            0 => Verb::RegisterDataspace(ns),
            1 => Verb::UpdateDataspace(ns),
            2 => Verb::UnregisterDataspace(ns),
            3 => Verb::RegisterJob(job, limit),
            4 => Verb::UpdateJob(job, limit),
            5 => Verb::UnregisterJob(job),
            6 => Verb::AddProcess(job, pid),
            _ => Verb::RemoveProcess(job, pid),
        }
    }

    fn limits(limit: Option<&str>) -> Vec<(String, u64)> {
        limit
            .into_iter()
            .map(|nsid| (nsid.to_string(), 0))
            .collect()
    }

    /// What one world shows after a verb: its answer (`None` for `Ok`,
    /// else the refusal's text), its job and dataspace counts, and
    /// whether each pid is known.
    type Seen = (Option<String>, (u64, u64), Vec<bool>);

    /// The table's own answer, on a bare table.
    fn table(t: &mut Registry<(), (), ()>, verb: Verb) -> Option<Refusal> {
        let answer = match verb {
            Verb::RegisterDataspace(nsid) => t.register_dataspace(nsid.into(), ()),
            Verb::UpdateDataspace(nsid) => t.update_dataspace(nsid.into(), ()),
            Verb::UnregisterDataspace(nsid) => t.unregister_dataspace(nsid),
            Verb::RegisterJob(id, l) => t.register_job(id, limits(l), ()),
            Verb::UpdateJob(id, l) => t.update_job(id, limits(l), ()),
            Verb::UnregisterJob(id) => t.unregister_job(id),
            Verb::AddProcess(job, pid) => t.add_process(job, pid, ()),
            Verb::RemoveProcess(job, pid) => t.remove_process(job, pid),
        };
        answer.err()
    }

    // ---- the simulated urd: node 0 of a quiet testbed ----

    struct Model {
        world: NornsWorld,
    }

    impl FluidModel for Model {
        fn fluid_mut(&mut self) -> &mut FluidSystem {
            &mut self.world.fluid
        }
        fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
            norns::handle_flow_complete(sim, done);
        }
    }

    impl HasNorns for Model {
        fn norns_mut(&mut self) -> &mut NornsWorld {
            &mut self.world
        }
        fn on_task_complete(_sim: &mut Sim<Self>, _completion: TaskCompletion) {}
    }

    fn sim_verb(sim: &mut Sim<Model>, verb: Verb) -> Seen {
        let cred = || Cred::new(1000, 1000);
        let job = |id, l| JobSpec {
            id: JobId(id),
            hosts: vec![0],
            limits: limits(l),
            cred: cred(),
        };
        let answer = match verb {
            Verb::RegisterDataspace(nsid) => ops::register_dataspace(sim, 0, nsid, nsid, false),
            Verb::UpdateDataspace(nsid) => {
                let world = &mut sim.model.world;
                let tier = world.storage.resolve(nsid).unwrap();
                let nsid = nsid.to_string();
                let spec = DataspaceSpec {
                    nsid,
                    tier,
                    tracked: false,
                };
                world.urds[0].controller.update_dataspace(spec)
            }
            Verb::UnregisterDataspace(nsid) => ops::unregister_dataspace(sim, 0, nsid),
            Verb::RegisterJob(id, l) => ops::register_job(sim, job(id, l)),
            Verb::UpdateJob(id, l) => ops::update_job(sim, job(id, l)),
            Verb::UnregisterJob(id) => ops::unregister_job(sim, JobId(id), &[0]).map(drop),
            Verb::AddProcess(id, pid) => ops::add_process(sim, 0, JobId(id), pid, cred()),
            Verb::RemoveProcess(id, pid) => ops::remove_process(sim, 0, JobId(id), pid),
        };
        let status = ops::daemon_status(sim, 0);
        let counts = (
            status.registered_jobs as u64,
            status.registered_dataspaces as u64,
        );
        let controller = &sim.model.world.urds[0].controller;
        let known = PIDS.map(|pid| controller.process_known(pid)).to_vec();
        (answer.err().map(|e| e.to_string()), counts, known)
    }

    // ---- the live daemon, driven over its control socket ----

    /// What the daemon shows after `verb`, and the wire code of its
    /// refusal, if any.
    fn live_verb(
        daemon: &UrdDaemon,
        ctl: &mut CtlClient,
        root: &Path,
        verb: Verb,
    ) -> (Seen, Option<ErrorCode>) {
        let ds = |nsid: &str| DataspaceDesc {
            nsid: nsid.into(),
            kind: BackendKind::PosixFilesystem,
            mount: root.join(nsid).to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        };
        let job = |job_id, l| JobDesc {
            job_id,
            hosts: vec!["node0".into()],
            limits: limits(l),
        };
        let answer = match verb {
            Verb::RegisterDataspace(nsid) => ctl.register_dataspace(ds(nsid)),
            Verb::UpdateDataspace(nsid) => ctl.update_dataspace(ds(nsid)),
            Verb::UnregisterDataspace(nsid) => ctl.unregister_dataspace(nsid),
            Verb::RegisterJob(id, l) => ctl.register_job(job(id, l)),
            Verb::UpdateJob(id, l) => ctl.update_job(job(id, l)),
            Verb::UnregisterJob(id) => ctl.unregister_job(id),
            Verb::AddProcess(id, pid) => ctl.add_process(id, pid, 1000, 1000),
            Verb::RemoveProcess(id, pid) => ctl.remove_process(id, pid),
        };
        let answer = match answer {
            Ok(()) => None,
            Err(ClientError::Remote { code, message }) => Some((code, message)),
            Err(e) => panic!("{verb:?}: the daemon failed: {e}"),
        };
        let status = ctl.status().unwrap();
        let counts = (status.registered_jobs, status.registered_dataspaces);
        let known = PIDS.map(|pid| daemon.engine().process_known(pid)).to_vec();
        let code = answer.as_ref().map(|(code, _)| *code);
        ((answer.map(|(_, message)| message), counts, known), code)
    }

    #[test]
    fn every_registration_verb_gets_the_tables_answer_in_both_worlds() {
        let root = std::env::temp_dir().join(format!("norns-diff-registry-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let (mut wrong, mut refusals) = (Vec::new(), Vec::new());
        for seed in 1..=SEEDS {
            let mut sim = Sim::new(
                Model {
                    world: cluster::nextgenio_quiet(1).world,
                },
                seed,
            );
            let mount = root.join(seed.to_string());
            let config = DaemonConfig::in_dir(mount.join("sockets"));
            let daemon = UrdDaemon::spawn(config).unwrap();
            let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
            let mut bare = Registry::default();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for step in 0..STEPS {
                let verb = draw(&mut state);
                let want = table(&mut bare, verb);
                let sim_seen = sim_verb(&mut sim, verb);
                let (live_seen, code) = live_verb(&daemon, &mut ctl, &mount, verb);
                let want_code = want.as_ref().map(|refusal| match refusal {
                    Refusal::DataspaceExists(_) | Refusal::JobExists(_) => ErrorCode::BadArgs,
                    _ => ErrorCode::NotFound,
                });
                if sim_seen != live_seen
                    || sim_seen.0 != want.as_ref().map(Refusal::message)
                    || code != want_code
                {
                    wrong.push(format!(
                        "seed {seed} step {step} {verb:?}: table {want:?}\n  sim  {sim_seen:?}\n  live {live_seen:?} {code:?}"
                    ));
                }
                refusals.extend(want.map(|refusal| (verb, refusal)));
            }
            drop(ctl);
            drop(daemon);
        }
        let _ = fs::remove_dir_all(&root);
        assert!(wrong.is_empty(), "the worlds differ:\n{}", wrong.join("\n"));
        // The two decided rows were exercised: a duplicate job id whose
        // limits name an unknown dataspace, and an update naming one.
        let duplicate = refusals.iter().any(|(verb, refusal)| {
            matches!(verb, Verb::RegisterJob(_, Some("ghost")))
                && matches!(refusal, Refusal::JobExists(_))
        });
        let update = refusals.iter().any(|(verb, refusal)| {
            matches!(verb, Verb::UpdateJob(..)) && matches!(refusal, Refusal::NoDataspace(_))
        });
        assert!(duplicate && update, "the sequences missed a decided row");
    }
}
