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
use norns_ipc::{Engine, EngineConfig};
use norns_proto::{BackendKind, DataspaceDesc, ResourceDesc, TaskOp, TaskSpec, TaskState};
use norns_sched::{ArbitrationPolicy, Fcfs, JobFairShare, ShortestFirst, DEFAULT_PRIORITY};
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

type SimPolicy = Box<dyn ArbitrationPolicy<JobId, TaskId, SimTime>>;
type IpcPolicy = Box<dyn ArbitrationPolicy<u64, u64, u64>>;

/// Dispatch order of the workload on the simulated queue (task index
/// per WORKLOAD position).
fn sim_order(policy: SimPolicy) -> Vec<usize> {
    let mut q = TaskQueue::new(1, policy);
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
fn real_order(policy: IpcPolicy, tag: &str) -> Vec<usize> {
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
    let sim = sim_order(Box::new(Fcfs));
    assert_eq!(sim, vec![0, 1, 2, 3, 4, 5, 6, 7], "FCFS = submission order");
    assert_eq!(real_order(Box::new(Fcfs), "fcfs"), sim);
}

#[test]
fn fair_share_orders_identically_in_sim_and_real() {
    let sim = sim_order(Box::new(JobFairShare::default()));
    assert_ne!(
        sim,
        vec![0, 1, 2, 3, 4, 5, 6, 7],
        "the workload must discriminate fair-share from FCFS"
    );
    assert_eq!(
        real_order(Box::new(JobFairShare::default()), "fair"),
        sim,
        "fair-share service history must evolve identically in both worlds"
    );
}

#[test]
fn sjf_orders_identically_in_sim_and_real() {
    let sim = sim_order(Box::new(ShortestFirst));
    // Distinct sizes: SJF order is the size-sorted permutation.
    let mut by_size: Vec<usize> = (0..WORKLOAD.len()).collect();
    by_size.sort_by_key(|&i| WORKLOAD[i].1);
    assert_eq!(sim, by_size);
    assert_eq!(real_order(Box::new(ShortestFirst), "sjf"), sim);
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
        while sim.model.ctld.job(id).unwrap().state != JobState::Running && sim.step() {}
        assert_eq!(sim.model.ctld.job(id).unwrap().state, JobState::Running);
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
    struct RealCluster {
        root: PathBuf,
        daemons: [UrdDaemon; 2],
        exec: WorkflowExecutor,
        lustre: PathBuf,
        pmdk: [PathBuf; 2],
    }

    fn real_cluster(tag: &str) -> RealCluster {
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
        let mut exec = WorkflowExecutor::new(FlowConfig::default());
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
        fn shutdown(self) {
            drop(self.daemons);
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    /// The scatter workload against the two live daemons.
    fn real_placement() -> Vec<Vec<String>> {
        let mut c = real_cluster("scatter");
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
        while sim.model.ctld.job(id).unwrap().state != JobState::Running && sim.step() {}
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
        assert_eq!(job.state, JobState::Completed);
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
        let mut c = real_cluster("gather");
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
