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
    use norns::{
        ApiSource, HasNorns, JobId, JobSpec, NornsError, NornsWorld, ResourceRef, TaskCompletion,
    };
    use norns_ipc::{DaemonConfig, UrdDaemon};
    use norns_proto::{BackendKind, DataspaceDesc, ErrorCode, ResourceDesc, TaskSpec, TaskState};
    use norns_sched::shape::{admit, Kind, Plugin, Refusal, Shape, TaskOp};
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
    }

    /// Every shape, each row with its own index (its input and output
    /// names).
    fn rows() -> Vec<Row> {
        let mut rows = Vec::new();
        for op in [TaskOp::Copy, TaskOp::Move, TaskOp::Remove] {
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

    /// The input path of row `i` (created by each world's `seed`).
    fn input_path(i: usize, form: Form) -> String {
        match form {
            Form::File => format!("f{i}"),
            Form::Directory => format!("d{i}"),
            Form::Root => String::new(),
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

    fn sim_spec(sim: &mut Sim<Model>, i: usize, row: Row) -> norns::TaskSpec {
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
        // A local input is on `lustre`, a local output on `pmdk0`.
        let end = |kind: Kind, local: &str, path: String| match kind {
            Kind::Memory => ResourceRef::memory(SIZE),
            Kind::Local => ResourceRef::local(local, path),
            Kind::Remote => ResourceRef::remote(1, "pmdk0", path),
        };
        norns::TaskSpec {
            op: row.op,
            priority: norns_sched::DEFAULT_PRIORITY,
            input: end(row.input, "lustre", path),
            output: row.output.map(|kind| end(kind, "pmdk0", format!("o{i}"))),
        }
    }

    fn sim_verdict(sim: &mut Sim<Model>, spec: norns::TaskSpec) -> Verdict {
        let source = ApiSource::Control;
        let id = match ops::submit_task(sim, 0, JobId(1), source, spec, 0) {
            Ok(id) => id,
            Err(NornsError::BadArgs(why)) => return Err(why),
            Err(e) => panic!("sim refused with {e:?}"),
        };
        loop {
            let task = sim.model.world.urds[0].task(id).unwrap();
            if task.state.is_terminal() {
                return match &task.error {
                    None => Ok(()),
                    Some(NornsError::BadArgs(why)) => Err(why.clone()),
                    Some(e) => panic!("sim task failed with {e:?}"),
                };
            }
            assert!(sim.step(), "the sim ran dry before the task ended");
        }
    }

    // ---- the live cluster: node A holds `lustre` (input) and `pmdk0`
    // (local output), node B its own `pmdk0` (the remote end) ----

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

    fn live_cluster() -> Live {
        let root =
            std::env::temp_dir().join(format!("norns-diff-admission-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let a = daemon(&root, "a", &["lustre", "pmdk0"]);
        let b = daemon(&root, "b", &["pmdk0"]);
        let b_addr = b.data_addr().unwrap().to_string();
        a.engine().register_peer("nodeb", b_addr);
        Live { root, a, _b: b }
    }

    fn live_spec(live: &Live, i: usize, row: Row) -> (TaskSpec, Option<Vec<u8>>) {
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
        let end = |kind: Kind, local: &str, path: String| match kind {
            Kind::Memory => ResourceDesc::MemoryRegion {
                addr: 0,
                size: SIZE,
            },
            Kind::Local => ResourceDesc::PosixPath {
                nsid: local.into(),
                path,
            },
            Kind::Remote => ResourceDesc::RemotePath {
                host: "nodeb".into(),
                nsid: "pmdk0".into(),
                path,
            },
        };
        let op = match row.op {
            TaskOp::Copy => norns_proto::TaskOp::Copy,
            TaskOp::Move => norns_proto::TaskOp::Move,
            TaskOp::Remove => norns_proto::TaskOp::Remove,
        };
        let output = row.output.map(|kind| end(kind, "pmdk0", format!("o{i}")));
        let payload = (row.input == Kind::Memory).then(|| vec![7u8; SIZE as usize]);
        (
            TaskSpec::new(op, end(row.input, "lustre", path), output),
            payload,
        )
    }

    fn live_verdict(live: &Live, spec: TaskSpec, payload: Option<Vec<u8>>) -> Verdict {
        let engine = live.a.engine();
        let id = match engine.submit(1, spec, payload) {
            Ok(id) => id,
            Err(e) if e.code == ErrorCode::BadArgs => return Err(e.message),
            Err(e) => panic!("daemon refused with {e}"),
        };
        let stats = engine.wait(id, 0).unwrap();
        match (stats.state, stats.error) {
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
        assert_eq!(rows.len(), 3 * 4 * (1 + 2 * 3), "every shape, once");
        let mut sim = sim_cluster();
        let live = live_cluster();
        let (mut wrong, mut admitted) = (Vec::new(), (0, 0));
        for (i, &row) in rows.iter().enumerate() {
            let verdict = table(row);
            let want_sim: Verdict = verdict.map(drop).map_err(message);
            let want_live = daemon_gap(row).map_or(want_sim.clone(), |gap| Err(message(gap)));
            let spec = sim_spec(&mut sim, i, row);
            let got_sim = sim_verdict(&mut sim, spec);
            let (spec, payload) = live_spec(&live, i, row);
            let got_live = live_verdict(&live, spec, payload);
            admitted.0 += usize::from(got_sim.is_ok());
            admitted.1 += usize::from(got_live.is_ok());
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
        // comparison above; the counts pin the table itself.
        assert_eq!(
            admitted,
            (23, 13),
            "shapes run by the simulator and by the daemon"
        );
    }
}
