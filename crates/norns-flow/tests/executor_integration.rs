//! The real-mode workflow executor against live urd daemons: script →
//! stage-in → body → stage-out on real sockets and real files, with
//! the simulator's failure semantics (stage-in failure ⇒ Failed +
//! staged-data cleanup, stage-in timeout ⇒ Cancelled, workflow
//! cancel-on-failure) — now under **concurrent** DAG execution: every
//! dependency-ready job runs at once, one job's staging overlapping
//! another's computation, with real `scatter`/`gather` mapping via the
//! wire's v6 directory enumeration.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use norns_flow::{
    FlowConfig, FlowError, FlowEvent, FlowJobState, JobBody, NodeSpec, WorkflowExecutor,
};
use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{BackendKind, DataspaceDesc, ResourceDesc, TaskOp, TaskSpec};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norns-flow-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn a daemon named `name` hosting one dataspace `nsid` backed by
/// `<root>/<name>/ds`; returns the daemon handle (mount dir is
/// `<root>/<name>/ds`).
fn spawn_node(root: &Path, name: &str, nsid: &str, workers: usize) -> UrdDaemon {
    let daemon = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join(name).join("sockets"))
            .with_chunk_size(1 << 30)
            .with_data_addr("127.0.0.1:0"),
    )
    .unwrap();
    let _ = workers;
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(DataspaceDesc {
        nsid: nsid.into(),
        kind: BackendKind::PosixFilesystem,
        mount: root.join(name).join("ds").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    daemon
}

fn node_spec(daemon: &UrdDaemon, name: &str, nsids: &[&str]) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        control_path: daemon.control_path.clone(),
        dataspaces: nsids.iter().map(|s| s.to_string()).collect(),
    }
}

#[test]
fn single_node_workflow_stages_in_runs_and_stages_out() {
    let root = temp_root("single");
    let daemon = spawn_node(&root, "n0", "tmp0", 4);
    let mount = root.join("n0/ds");
    fs::write(mount.join("input.dat"), b"mesh bytes").unwrap();

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon, "n0", &["tmp0"])).unwrap();
    let body_mount = mount.clone();
    let job = exec
        .submit(
            "#SBATCH --job-name=solo\n\
             #NORNS stage_in tmp0://input.dat tmp0://work/in.dat\n\
             #NORNS stage_out tmp0://work/out.dat tmp0://results/out.dat\n",
            JobBody::Run(Box::new(move || {
                // The body sees its staged input and produces output in
                // the same dataspace.
                let staged = fs::read(body_mount.join("work/in.dat")).map_err(|e| e.to_string())?;
                assert_eq!(staged, b"mesh bytes");
                fs::write(body_mount.join("work/out.dat"), b"result bytes")
                    .map_err(|e| e.to_string())
            })),
        )
        .unwrap();
    let outcomes = exec.run().unwrap();
    assert_eq!(outcomes, vec![(job, FlowJobState::Completed)]);
    assert_eq!(
        fs::read(mount.join("results/out.dat")).unwrap(),
        b"result bytes"
    );
    assert!(exec.leftovers(job).is_empty());
    // The event log shows the gated lifecycle in order.
    let kinds: Vec<&str> = exec
        .events()
        .iter()
        .map(|e| match e {
            FlowEvent::Submitted { .. } => "submitted",
            FlowEvent::StageInStarted { .. } => "stage-in",
            FlowEvent::Started { .. } => "started",
            FlowEvent::StageOutStarted { .. } => "stage-out",
            FlowEvent::Completed { .. } => "completed",
            FlowEvent::Failed { .. } => "failed",
            FlowEvent::Cancelled { .. } => "cancelled",
        })
        .collect();
    assert_eq!(
        kinds,
        vec!["submitted", "stage-in", "started", "stage-out", "completed"]
    );
    // Stage-out *releases* the staged source (a Move, degraded to a
    // rename by the engine): the paper's stage-out frees burst-buffer
    // capacity, it does not duplicate into the destination.
    assert!(
        !mount.join("work/out.dat").exists(),
        "stage-out must free its source"
    );
    // One parked wait per wire task (the stage-in copy and the
    // stage-out move); the executor never polls tasks one by one.
    assert_eq!(exec.query_round_trips(), 0);
    assert_eq!(exec.wait_round_trips(), 2, "one wait per wire task");
    drop(daemon);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn independent_jobs_execute_concurrently() {
    let root = temp_root("overlap");
    let daemon_a = spawn_node(&root, "n0", "dsa", 2);
    let daemon_b = spawn_node(&root, "n1", "dsb", 2);
    let mount_a = root.join("n0/ds");
    let mount_b = root.join("n1/ds");
    fs::write(mount_a.join("in.dat"), b"a input").unwrap();
    fs::write(mount_b.join("in.dat"), b"b input").unwrap();

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon_a, "n0", &["dsa"])).unwrap();
    exec.add_node(node_spec(&daemon_b, "n1", &["dsb"])).unwrap();
    // `slow` (submitted first, lands on n0) computes for a while;
    // `quick` (lands on n1) is dependency-free and must not wait for
    // it: its staging proceeds while slow's body runs.
    let slow = exec
        .submit(
            "#SBATCH --job-name=slow\n\
             #NORNS stage_in dsa://in.dat dsa://work/in.dat\n",
            JobBody::Sleep(Duration::from_millis(600)),
        )
        .unwrap();
    let quick = exec
        .submit(
            "#SBATCH --job-name=quick\n\
             #NORNS stage_in dsb://in.dat dsb://work/in.dat\n\
             #NORNS stage_out dsb://work/in.dat dsb://results/out.dat\n",
            JobBody::Sleep(Duration::ZERO),
        )
        .unwrap();
    let outcomes = exec.run().unwrap();
    assert_eq!(
        outcomes,
        vec![
            (slow, FlowJobState::Completed),
            (quick, FlowJobState::Completed)
        ]
    );
    // The overlap proof: quick's stage-in starts before slow's
    // terminal event, and quick finishes its whole lifecycle while
    // slow is still computing — the old sequential executor ran slow
    // to completion first.
    let pos = |pred: &dyn Fn(&FlowEvent) -> bool| exec.events().iter().position(pred).unwrap();
    let quick_stage_in =
        pos(&|e| matches!(e, FlowEvent::StageInStarted { job, .. } if *job == quick));
    let quick_done = pos(&|e| matches!(e, FlowEvent::Completed { job, .. } if *job == quick));
    let slow_done = pos(&|e| matches!(e, FlowEvent::Completed { job, .. } if *job == slow));
    assert!(
        quick_stage_in < slow_done,
        "quick's stage-in must start before slow completes"
    );
    assert!(
        quick_done < slow_done,
        "quick must run to completion while slow is still computing"
    );
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn partial_job_registration_rolls_back() {
    let root = temp_root("rollback");
    let daemon_a = spawn_node(&root, "n0", "dsa", 2);
    let daemon_b = spawn_node(&root, "n1", "dsb", 2);

    // Occupy job id 1 on the *second* node: the executor's first job
    // gets FlowJobId(1), so its registration succeeds on n0 and is
    // rejected on n1 — the regression is n0's registration leaking.
    let mut ctl_b = CtlClient::connect(&daemon_b.control_path).unwrap();
    ctl_b
        .register_job(norns_proto::JobDesc {
            job_id: 1,
            hosts: vec!["elsewhere".into()],
            limits: vec![],
        })
        .unwrap();

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon_a, "n0", &["dsa"])).unwrap();
    exec.add_node(node_spec(&daemon_b, "n1", &["dsb"])).unwrap();
    let job = exec
        .submit(
            "#SBATCH --job-name=doomed\n#SBATCH --nodes=2\n",
            JobBody::Run(Box::new(|| panic!("body must never run"))),
        )
        .unwrap();
    exec.run().unwrap();
    assert_eq!(exec.job_state(job), Some(FlowJobState::Failed));
    assert!(exec.failure(job).unwrap().contains("registration"));
    // Node 0's registration was rolled back — nothing leaked.
    let mut ctl_a = CtlClient::connect(&daemon_a.control_path).unwrap();
    assert_eq!(ctl_a.status().unwrap().registered_jobs, 0);
    assert_eq!(
        ctl_b.status().unwrap().registered_jobs,
        1,
        "only the squatter"
    );
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn scatter_splits_children_and_gather_merges_them_back() {
    let root = temp_root("scatter");
    // n0 hosts the shared `lustre` tier and its own node-local
    // `pmdk0`; n1 hosts its own `pmdk0` (same nsid, different mount —
    // the node-local storage pattern).
    let daemon_a = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join("n0").join("sockets"))
            .with_chunk_size(1 << 30)
            .with_data_addr("127.0.0.1:0"),
    )
    .unwrap();
    let daemon_b = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join("n1").join("sockets"))
            .with_chunk_size(1 << 30)
            .with_data_addr("127.0.0.1:0"),
    )
    .unwrap();
    let lustre = root.join("n0/lustre");
    let pmdk_a = root.join("n0/pmdk");
    let pmdk_b = root.join("n1/pmdk");
    let register = |daemon: &UrdDaemon, nsid: &str, mount: &Path| {
        let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
        ctl.register_dataspace(DataspaceDesc {
            nsid: nsid.into(),
            kind: BackendKind::PosixFilesystem,
            mount: mount.to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
    };
    register(&daemon_a, "lustre", &lustre);
    register(&daemon_a, "pmdk0", &pmdk_a);
    register(&daemon_b, "pmdk0", &pmdk_b);
    fs::create_dir_all(lustre.join("case")).unwrap();
    for i in 0..4 {
        fs::write(lustre.join(format!("case/part{i}.dat")), vec![i; 1 << 10]).unwrap();
    }

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon_a, "n0", &["lustre", "pmdk0"]))
        .unwrap();
    exec.add_node(node_spec(&daemon_b, "n1", &["pmdk0"]))
        .unwrap();
    let out_a = pmdk_a.clone();
    let out_b = pmdk_b.clone();
    let job = exec
        .submit(
            "#SBATCH --job-name=sg\n\
             #SBATCH --nodes=2\n\
             #NORNS stage_in lustre://case pmdk0://case scatter\n\
             #NORNS stage_out pmdk0://out lustre://final gather\n",
            JobBody::Run(Box::new(move || {
                // Each "node" produces its own output under pmdk0://out.
                for (mount, tag) in [(&out_a, "n0"), (&out_b, "n1")] {
                    fs::create_dir_all(mount.join("out")).map_err(|e| e.to_string())?;
                    fs::write(mount.join(format!("out/from-{tag}.dat")), tag.as_bytes())
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            })),
        )
        .unwrap();
    exec.run().unwrap();
    assert_eq!(exec.job_state(job), Some(FlowJobState::Completed));
    assert!(exec.leftovers(job).is_empty(), "{:?}", exec.leftovers(job));

    // Scatter: sorted children dealt round-robin — part0,2 on n0,
    // part1,3 on n1, each on exactly one node (no replication).
    for i in 0..4u8 {
        let (holder, other) = if i % 2 == 0 {
            (&pmdk_a, &pmdk_b)
        } else {
            (&pmdk_b, &pmdk_a)
        };
        let rel = format!("case/part{i}.dat");
        assert_eq!(
            fs::read(holder.join(&rel)).unwrap(),
            vec![i; 1 << 10],
            "child {rel} staged to its node"
        );
        assert!(
            !other.join(&rel).exists(),
            "scatter must not replicate {rel}"
        );
    }
    // Gather: both nodes' children merged into one destination, and
    // the node-local sources freed (a local Move on n0, whose lustre is
    // local, and a pushed Move on n1).
    assert_eq!(fs::read(lustre.join("final/from-n0.dat")).unwrap(), b"n0");
    assert_eq!(fs::read(lustre.join("final/from-n1.dat")).unwrap(), b"n1");
    assert!(
        !pmdk_a.join("out/from-n0.dat").exists(),
        "gather frees n0 source"
    );
    assert!(
        !pmdk_b.join("out/from-n1.dat").exists(),
        "gather frees n1 source"
    );
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn teardown_failures_do_not_strand_other_jobs() {
    let root = temp_root("teardown");
    let daemon_a = spawn_node(&root, "n0", "dsa", 2);
    let daemon_b = spawn_node(&root, "n1", "dsb", 2);
    let mount_a = root.join("n0/ds");
    let mount_b = root.join("n1/ds");
    fs::write(mount_a.join("in.dat"), b"doomed input").unwrap();
    fs::write(mount_b.join("in.dat"), b"survivor input").unwrap();

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon_a, "n0", &["dsa"])).unwrap();
    exec.add_node(node_spec(&daemon_b, "n1", &["dsb"])).unwrap();
    // `doomed` (on n0) kills its own daemon from inside the body: its
    // stage-out submission and unregistration then fail at the
    // *transport* level. The regression: those errors used to abort
    // run(), stranding every other in-flight job.
    let ctl_path = daemon_a.control_path.clone();
    let doomed = exec
        .submit(
            "#SBATCH --job-name=doomed\n\
             #NORNS stage_in dsa://in.dat dsa://work/in.dat\n\
             #NORNS stage_out dsa://work/in.dat dsa://results/out.dat\n",
            JobBody::Run(Box::new(move || {
                let mut ctl = CtlClient::connect(&ctl_path).map_err(|e| e.to_string())?;
                ctl.send_command(norns_proto::DaemonCommand::Shutdown)
                    .map_err(|e| e.to_string())
            })),
        )
        .unwrap();
    let survivor = exec
        .submit(
            "#SBATCH --job-name=survivor\n\
             #NORNS stage_in dsb://in.dat dsb://work/in.dat\n\
             #NORNS stage_out dsb://work/in.dat dsb://results/out.dat\n",
            JobBody::Sleep(Duration::from_millis(100)),
        )
        .unwrap();
    let outcomes = exec.run().unwrap();
    // The doomed job completed (stage-out degraded to recoverable
    // leftovers), with the transport detail recorded, and the
    // survivor ran its full lifecycle untouched.
    assert_eq!(
        outcomes,
        vec![
            (doomed, FlowJobState::Completed),
            (survivor, FlowJobState::Completed)
        ]
    );
    assert!(!exec.leftovers(doomed).is_empty(), "stage-out was lost");
    assert!(exec.leftovers(survivor).is_empty());
    assert_eq!(
        fs::read(mount_b.join("results/out.dat")).unwrap(),
        b"survivor input"
    );
    // Every wait the executor parked was answered (the shut-down
    // daemon failed its own at shutdown), and the survivor's staged
    // input moved out with its stage-out. The doomed job's staged input
    // stays where it landed: its stage-out never ran, and §III keeps
    // that data on the node for recovery.
    for daemon in [&daemon_a, &daemon_b] {
        assert_eq!(daemon.engine().parked_waits(), 0);
    }
    assert!(!mount_b.join("work/in.dat").exists());
    assert_eq!(
        fs::read(mount_a.join("work/in.dat")).unwrap(),
        b"doomed input"
    );
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stage_in_failure_fails_job_cleans_staged_data_and_cancels_downstream() {
    let root = temp_root("failure");
    let daemon = spawn_node(&root, "n0", "tmp0", 1);
    let mount = root.join("n0/ds");
    fs::write(mount.join("good.dat"), b"ok").unwrap();
    // "ghost.dat" does not exist: its stage-in task fails.

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon, "n0", &["tmp0"])).unwrap();
    let first = exec
        .submit(
            "#SBATCH --job-name=first\n\
             #SBATCH --workflow-start\n\
             #NORNS stage_in tmp0://good.dat tmp0://staged/good.dat\n\
             #NORNS stage_in tmp0://ghost.dat tmp0://staged/ghost.dat\n",
            JobBody::Run(Box::new(|| panic!("body must never run: stage-in failed"))),
        )
        .unwrap();
    let second = exec
        .submit(
            "#SBATCH --job-name=second\n\
             #SBATCH --workflow-prior-dependency=first\n",
            JobBody::Run(Box::new(|| {
                panic!("downstream of a failed job must not run")
            })),
        )
        .unwrap();
    let third = exec
        .submit(
            "#SBATCH --job-name=third\n\
             #SBATCH --workflow-end\n\
             #SBATCH --workflow-prior-dependency=second\n",
            JobBody::Sleep(Duration::ZERO),
        )
        .unwrap();
    exec.run().unwrap();
    assert_eq!(exec.job_state(first), Some(FlowJobState::Failed));
    assert!(exec.failure(first).unwrap().contains("stage-in failed"));
    // Cancel-on-failure cascades through the dependency chain.
    assert_eq!(exec.job_state(second), Some(FlowJobState::Cancelled));
    assert_eq!(exec.job_state(third), Some(FlowJobState::Cancelled));
    assert_eq!(
        exec.failure(second),
        Some("upstream workflow job failed"),
        "cascade reason recorded"
    );
    // §III cleanup: the directive that *did* stage before the failure
    // is removed again.
    assert!(
        !mount.join("staged/good.dat").exists(),
        "staged data of the doomed job must be cleaned up"
    );
    assert!(mount.join("good.dat").exists(), "origins are untouched");
    drop(daemon);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stage_in_timeout_cancels_job() {
    let root = temp_root("timeout");
    let daemon = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join("n0").join("sockets"))
            .with_chunk_size(1 << 30)
            .with_queue_capacity(64),
    )
    .unwrap();
    // Single-purpose daemon with 4 workers; jam every worker with big
    // monolithic copies so the job's stage-in task stays pending past
    // its deadline.
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    let mount = root.join("n0/ds");
    ctl.register_dataspace(DataspaceDesc {
        nsid: "tmp0".into(),
        kind: BackendKind::PosixFilesystem,
        mount: mount.to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    fs::write(mount.join("blocker.dat"), vec![7u8; 48 << 20]).unwrap();
    fs::write(mount.join("input.dat"), b"late").unwrap();
    let mut blockers = Vec::new();
    for i in 0..8 {
        blockers.push(
            ctl.submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "blocker.dat".into(),
                    },
                    Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: format!("blocker-copy-{i}.dat"),
                    }),
                ),
                None,
            )
            .unwrap(),
        );
    }

    let mut exec = WorkflowExecutor::new(FlowConfig {
        // Far below what two rounds of 48 MiB copies can take: with
        // 100 ms a warm page cache finished the blockers in time on
        // every other run.
        stage_in_timeout: Duration::from_millis(5),
        ..FlowConfig::default()
    });
    exec.add_node(node_spec(&daemon, "n0", &["tmp0"])).unwrap();
    let job = exec
        .submit(
            "#SBATCH --job-name=late\n\
             #NORNS stage_in tmp0://input.dat tmp0://work/in.dat\n",
            JobBody::Run(Box::new(|| {
                panic!("body must never run: stage-in timed out")
            })),
        )
        .unwrap();
    exec.run().unwrap();
    assert_eq!(exec.job_state(job), Some(FlowJobState::Cancelled));
    assert_eq!(exec.failure(job), Some("stage-in timeout"));
    // The cancelled leg's wait was drained through the pump before
    // run() returned, and nothing it could have staged survives.
    assert_eq!(daemon.engine().parked_waits(), 0);
    assert!(!mount.join("work/in.dat").exists());
    for b in blockers {
        ctl.wait(b, 0).unwrap();
    }
    drop(daemon);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn planning_errors_surface_at_submission() {
    let root = temp_root("plan");
    let daemon = spawn_node(&root, "n0", "tmp0", 1);
    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon, "n0", &["tmp0"])).unwrap();
    // Unknown dataspace.
    assert!(matches!(
        exec.submit(
            "#SBATCH --job-name=a\n#NORNS stage_in nope://x tmp0://x\n",
            JobBody::Sleep(Duration::ZERO),
        ),
        Err(FlowError::Plan(_))
    ));
    // Unknown workflow dependency.
    assert!(matches!(
        exec.submit(
            "#SBATCH --job-name=b\n#SBATCH --workflow-prior-dependency=ghost\n",
            JobBody::Sleep(Duration::ZERO),
        ),
        Err(FlowError::Plan(_))
    ));
    // More nodes than the executor drives.
    assert!(matches!(
        exec.submit(
            "#SBATCH --job-name=c\n#SBATCH --nodes=5\n",
            JobBody::Sleep(Duration::ZERO),
        ),
        Err(FlowError::Plan(_))
    ));
    // Zero nodes: a clean plan error, not a panic while planning a
    // stage-out `all` directive over an empty allocation.
    assert!(matches!(
        exec.submit(
            "#SBATCH --job-name=z\n#SBATCH --nodes=0\n#NORNS stage_out tmp0://a tmp0://b all\n",
            JobBody::Sleep(Duration::ZERO),
        ),
        Err(FlowError::Plan(_))
    ));
    // Broken script grammar.
    assert!(matches!(
        exec.submit("#SBATCH --nodes=1\n", JobBody::Sleep(Duration::ZERO)),
        Err(FlowError::Script(_))
    ));
    drop(daemon);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn remote_leg_routes_through_peer_registry() {
    let root = temp_root("remote");
    let daemon_a = spawn_node(&root, "nodea", "lustre0", 2);
    let daemon_b = spawn_node(&root, "nodeb", "pmdk0", 2);
    let mount_a = root.join("nodea/ds");
    let mount_b = root.join("nodeb/ds");
    fs::create_dir_all(mount_a.join("case")).unwrap();
    fs::write(mount_a.join("case/mesh.dat"), vec![42u8; 1 << 16]).unwrap();

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon_a, "nodea", &["lustre0"]))
        .unwrap();
    exec.add_node(node_spec(&daemon_b, "nodeb", &["pmdk0"]))
        .unwrap();
    // A 1-node job: the round-robin assigns it to nodea first; force it
    // onto nodeb by submitting a placeholder job for nodea... instead,
    // make it a 2-node job with node:1 mappings so the staging runs on
    // nodeb, whose pmdk0 is local and whose lustre0 legs are remote.
    let body_mount = mount_b.clone();
    let job = exec
        .submit(
            "#SBATCH --job-name=remote\n\
             #SBATCH --nodes=2\n\
             #NORNS stage_in lustre0://case/mesh.dat pmdk0://job/mesh.dat node:1\n\
             #NORNS stage_out pmdk0://job/out.dat lustre0://results/out.dat node:1\n",
            JobBody::Run(Box::new(move || {
                let staged =
                    fs::read(body_mount.join("job/mesh.dat")).map_err(|e| e.to_string())?;
                assert_eq!(staged, vec![42u8; 1 << 16]);
                fs::write(body_mount.join("job/out.dat"), b"remote result")
                    .map_err(|e| e.to_string())
            })),
        )
        .unwrap();
    exec.run().unwrap();
    assert_eq!(exec.job_state(job), Some(FlowJobState::Completed));
    // The pull landed on nodeb, the push landed back on nodea.
    assert_eq!(
        fs::read(mount_b.join("job/mesh.dat")).unwrap(),
        vec![42u8; 1 << 16]
    );
    assert_eq!(
        fs::read(mount_a.join("results/out.dat")).unwrap(),
        b"remote result"
    );
    assert_eq!(exec.query_round_trips(), 0);
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}

/// A stage-out whose origin lives outside the job's allocation is
/// pulled by the job's first node as one `Move`, which frees the
/// origin on the node that holds it.
#[test]
fn off_allocation_stage_out_frees_its_remote_origin() {
    let root = temp_root("off-alloc");
    let daemon_a = spawn_node(&root, "nodea", "lustre0", 2);
    let daemon_b = spawn_node(&root, "nodeb", "pmdk0", 2);
    let mount_a = root.join("nodea/ds");
    let mount_b = root.join("nodeb/ds");
    fs::create_dir_all(mount_b.join("left")).unwrap();
    fs::write(mount_b.join("left/out.dat"), b"left behind").unwrap();

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon_a, "nodea", &["lustre0"]))
        .unwrap();
    exec.add_node(node_spec(&daemon_b, "nodeb", &["pmdk0"]))
        .unwrap();
    // One node, assigned round-robin: nodea, which does not host pmdk0.
    let job = exec
        .submit(
            "#SBATCH --job-name=off
             #NORNS stage_out pmdk0://left/out.dat lustre0://results/out.dat
",
            JobBody::Sleep(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(exec.run().unwrap(), vec![(job, FlowJobState::Completed)]);
    assert!(exec.leftovers(job).is_empty(), "{:?}", exec.leftovers(job));
    assert_eq!(
        fs::read(mount_a.join("results/out.dat")).unwrap(),
        b"left behind"
    );
    assert!(
        !mount_b.join("left/out.dat").exists(),
        "the off-allocation origin is freed"
    );
    assert_eq!(exec.wait_round_trips(), 1, "one Move, no release");
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn durability_directive_replicates_stage_out_to_a_peer() {
    let root = temp_root("durable");
    // Two nodes backing the *same* dataspace name with their own
    // mounts — the node-local storage pattern replication relies on.
    let daemon_a = spawn_node(&root, "n0", "bb", 2);
    let daemon_b = spawn_node(&root, "n1", "bb", 2);
    let mount_a = root.join("n0/ds");
    let mount_b = root.join("n1/ds");

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon_a, "n0", &["bb"])).unwrap();
    exec.add_node(node_spec(&daemon_b, "n1", &["bb"])).unwrap();
    let body_mount = mount_a.clone();
    let job = exec
        .submit(
            "#SBATCH --job-name=durable\n\
             #NORNS stage_out bb://work/out.dat bb://results/out.dat\n\
             #NORNS durability local_plus_one\n",
            JobBody::Run(Box::new(move || {
                fs::create_dir_all(body_mount.join("work")).map_err(|e| e.to_string())?;
                fs::write(body_mount.join("work/out.dat"), b"checkpoint bytes")
                    .map_err(|e| e.to_string())
            })),
        )
        .unwrap();
    assert_eq!(exec.run().unwrap(), vec![(job, FlowJobState::Completed)]);
    assert!(exec.leftovers(job).is_empty());

    // The durable leg is a stage-out `Move` like any other: the
    // destination holds the bytes and the source is gone.
    assert_eq!(
        fs::read(mount_a.join("results/out.dat")).unwrap(),
        b"checkpoint bytes"
    );
    assert!(
        !mount_a.join("work/out.dat").exists(),
        "durable stage-out must still free its source"
    );

    // `local_plus_one` ACKed on the local leg; the background copy
    // must land on the peer and the origin's lag drain to zero.
    let mut ctl = CtlClient::connect(&daemon_a.control_path).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = ctl.status().unwrap();
        if status.pending_replicas == 0 && status.pending_replica_bytes == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replication lag stuck at {} replicas",
            status.pending_replicas
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        fs::read(mount_b.join("results/out.dat")).unwrap(),
        b"checkpoint bytes",
        "the peer must hold the replicated stage-out"
    );
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn persist_store_is_a_documented_no_op_and_the_other_ops_are_refused() {
    let root = temp_root("persist");
    let daemon = spawn_node(&root, "n0", "tmp0", 1);
    let mount = root.join("n0/ds");
    fs::write(mount.join("input.dat"), b"keep me").unwrap();
    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(node_spec(&daemon, "n0", &["tmp0"])).unwrap();
    // delete/share/unshare have no real-mode implementation: a plan
    // error naming the directive, not a silently dropped instruction.
    for op in ["delete", "share", "unshare"] {
        let script = format!("#SBATCH --job-name={op}\n#NORNS persist {op} tmp0://work alice\n");
        match exec.submit(&script, JobBody::Sleep(Duration::ZERO)) {
            Err(FlowError::Plan(msg)) => assert!(
                msg.contains(&format!("#NORNS persist {op} tmp0://work alice")),
                "{msg}"
            ),
            other => panic!("persist {op} must be a plan error, got {other:?}"),
        }
    }
    // store is accepted; real mode never removes staged-in data on
    // success, so the data it names is still there after the job.
    let job = exec
        .submit(
            "#SBATCH --job-name=keeper\n\
             #NORNS stage_in tmp0://input.dat tmp0://work/in.dat\n\
             #NORNS persist store tmp0://work alice\n",
            JobBody::Sleep(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(job.0, 1, "refused scripts took no job id");
    assert_eq!(exec.run().unwrap(), vec![(job, FlowJobState::Completed)]);
    assert_eq!(fs::read(mount.join("work/in.dat")).unwrap(), b"keep me");
    drop(daemon);
    let _ = fs::remove_dir_all(&root);
}
