//! A two-job `#NORNS` workflow executed against **live** daemons —
//! the real-mode counterpart of `workflow_staging` (which runs the
//! same orchestration inside the simulator).
//!
//! ```text
//! cargo run --release --example workflow_staging_real
//! ```
//!
//! Two urd daemons play two nodes on one host: `nodea` owns a
//! PFS-like `lustre0` dataspace, `nodeb` a node-local `pmdk0`. The
//! executor parses the same submission scripts the simulator accepts
//! and drives the paper's lifecycle over the wire:
//!
//! * `prep` stages its input from `lustre0` into `nodeb`'s `pmdk0` —
//!   a **remote pull** through the TCP data plane — runs its body
//!   only after stage-in completes, then pushes its result back
//!   (remote push).
//! * `post` depends on `prep` (`--workflow-prior-dependency`), stages
//!   the result locally on `nodea`, and produces the final artifact.
//!
//! The executor's event loop *blocks* on parked `WaitTask`s, one per
//! task, issued right behind each submission: the example asserts it
//! issued zero per-task `QueryTask` polls and exactly one `WaitTask`
//! per staging task.

use std::fs;
use std::path::Path;

use norns_flow::{FlowConfig, FlowEvent, FlowJobState, JobBody, NodeSpec, WorkflowExecutor};
use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{BackendKind, DataspaceDesc};

fn spawn_node(root: &Path, name: &str, nsid: &str, kind: BackendKind) -> UrdDaemon {
    // Port 0 ⇒ ephemeral loopback data plane; the executor reads the
    // bound address from DaemonStatus and cross-registers the peers.
    let daemon = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join(name).join("sockets"))
            .with_chunk_size(1 << 20)
            .with_data_addr("127.0.0.1:0"),
    )
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(DataspaceDesc {
        nsid: nsid.into(),
        kind,
        mount: root.join(name).join("ds").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    daemon
}

fn main() {
    let root = std::env::temp_dir().join(format!("norns-workflow-real-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();

    // 1. Two daemons — "two nodes" on one host.
    let daemon_a = spawn_node(&root, "nodea", "lustre0", BackendKind::Lustre);
    let daemon_b = spawn_node(&root, "nodeb", "pmdk0", BackendKind::NvmDax);
    let mount_a = root.join("nodea/ds");
    let mount_b = root.join("nodeb/ds");
    println!("nodea data plane: {}", daemon_a.data_addr().unwrap());
    println!("nodeb data plane: {}", daemon_b.data_addr().unwrap());

    // 2. The workflow input: an 8 MiB mesh on the shared tier (8 chunk
    //    sub-units at the 1 MiB chunk size once it crosses the wire).
    fs::create_dir_all(mount_a.join("case")).unwrap();
    let mesh: Vec<u8> = (0..8 << 20).map(|i: usize| (i % 251) as u8).collect();
    fs::write(mount_a.join("case/mesh.dat"), &mesh).unwrap();

    // 3. The executor drives both daemons through their control
    //    sockets; scripts are the same text the simulator accepts.
    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(NodeSpec {
        name: "nodea".into(),
        control_path: daemon_a.control_path.clone(),
        dataspaces: vec!["lustre0".into()],
    })
    .unwrap();
    exec.add_node(NodeSpec {
        name: "nodeb".into(),
        control_path: daemon_b.control_path.clone(),
        dataspaces: vec!["pmdk0".into()],
    })
    .unwrap();

    // `prep` runs on node 1 (nodeb): its lustre0 legs are remote.
    let mesh_for_body = mesh.clone();
    let body_mount = mount_b.clone();
    let prep = exec
        .submit(
            "#!/bin/bash\n\
             #SBATCH --job-name=prep\n\
             #SBATCH --nodes=2\n\
             #SBATCH --workflow-start\n\
             #NORNS stage_in lustre0://case/mesh.dat pmdk0://job/mesh.dat node:1\n\
             #NORNS stage_out pmdk0://job/out.dat lustre0://results/prep.dat node:1\n",
            JobBody::Run(Box::new(move || {
                // Gated on stage-in: the pulled mesh must already be
                // local and byte-exact when the body runs.
                let staged =
                    fs::read(body_mount.join("job/mesh.dat")).map_err(|e| e.to_string())?;
                assert_eq!(staged, mesh_for_body, "stage-in gated the body");
                let mut out = staged;
                out.reverse(); // the "computation"
                fs::write(body_mount.join("job/out.dat"), out).map_err(|e| e.to_string())
            })),
        )
        .unwrap();

    // `post` runs on nodea: local staging of prep's pushed result.
    let body_mount = mount_a.clone();
    let post = exec
        .submit(
            "#!/bin/bash\n\
             #SBATCH --job-name=post\n\
             #SBATCH --workflow-end\n\
             #SBATCH --workflow-prior-dependency=prep\n\
             #NORNS stage_in lustre0://results/prep.dat lustre0://post/in.dat\n\
             #NORNS stage_out lustre0://post/final.dat lustre0://results/final.dat\n",
            JobBody::Run(Box::new(move || {
                let data = fs::read(body_mount.join("post/in.dat")).map_err(|e| e.to_string())?;
                let mut fixed = data;
                fixed.reverse(); // undo prep's reversal
                fs::write(body_mount.join("post/final.dat"), fixed).map_err(|e| e.to_string())
            })),
        )
        .unwrap();

    // 4. Run the workflow to quiescence.
    let outcomes = exec.run().unwrap();
    for event in exec.events() {
        println!("  {event:?}");
    }
    assert_eq!(
        outcomes,
        vec![
            (prep, FlowJobState::Completed),
            (post, FlowJobState::Completed)
        ]
    );

    // The dependency gate held: `post` started only after `prep`
    // completed.
    let order: Vec<&FlowEvent> = exec
        .events()
        .iter()
        .filter(|e| matches!(e, FlowEvent::Completed { .. } | FlowEvent::Started { .. }))
        .collect();
    let prep_done = order
        .iter()
        .position(|e| matches!(e, FlowEvent::Completed { job, .. } if *job == prep))
        .unwrap();
    let post_started = order
        .iter()
        .position(|e| matches!(e, FlowEvent::Started { job } if *job == post))
        .unwrap();
    assert!(prep_done < post_started, "workflow dependency gate held");

    // Data integrity end to end: pull → compute → push → local staging
    // → final artifact equals the original mesh.
    assert_eq!(fs::read(mount_b.join("job/mesh.dat")).unwrap(), mesh);
    assert_eq!(
        fs::read(mount_a.join("results/final.dat")).unwrap(),
        mesh,
        "double reversal restored the mesh"
    );

    // Stage-out *freed* the staged data: prep's local out.dat was
    // released after its push (copy + Remove), post's final.dat moved
    // (rename) — the paper's stage-out returns burst-buffer capacity.
    assert!(
        !mount_b.join("job/out.dat").exists(),
        "pushed stage-out source released"
    );
    assert!(
        !mount_a.join("post/final.dat").exists(),
        "local stage-out is a move"
    );

    // 5. The one-wait guarantee: 5 wire tasks (4 staging legs plus
    //    the Remove releasing prep's pushed source), zero per-task
    //    polls and exactly one parked WaitTask per task — where a 2 ms
    //    poller would have issued hundreds of QueryTask round-trips.
    let wire_tasks = 5;
    println!(
        "wire tasks: {wire_tasks}, WaitTask round-trips: {}, QueryTask round-trips: {}",
        exec.wait_round_trips(),
        exec.query_round_trips()
    );
    assert_eq!(exec.query_round_trips(), 0, "no per-task polling");
    assert_eq!(
        exec.wait_round_trips(),
        wire_tasks,
        "one WaitTask per wire task"
    );

    println!(
        "real-mode workflow complete: script → executor → two daemons, one remote leg each way"
    );
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}
