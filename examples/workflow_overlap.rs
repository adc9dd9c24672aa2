//! Overlap proof: asynchronous staging lets one job's data movement
//! proceed while another job computes — the paper's §III headline —
//! demonstrated against **live** daemons.
//!
//! ```text
//! cargo run --release --example workflow_overlap
//! ```
//!
//! Two urd daemons play two nodes; two **independent** jobs are
//! submitted. `alpha` (on node 0) stages in and then computes for
//! 500 ms; `beta` (on node 1) stages in, runs instantly and stages
//! out. The executor's DAG engine admits both at once: the event log
//! must show `StageInStarted(beta)` *before* `Completed(alpha)` —
//! and in fact `beta`'s whole lifecycle finishes while `alpha` is
//! still computing. The old sequential run loop ran `alpha` to its
//! terminal state before `beta` moved a byte.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use norns_flow::{FlowConfig, FlowEvent, FlowJobState, JobBody, NodeSpec, WorkflowExecutor};
use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{BackendKind, DataspaceDesc};

fn spawn_node(root: &Path, name: &str, nsid: &str) -> UrdDaemon {
    let daemon = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join(name).join("sockets")).with_data_addr("127.0.0.1:0"),
    )
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(DataspaceDesc {
        nsid: nsid.into(),
        kind: BackendKind::NvmDax,
        mount: root.join(name).join("ds").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    daemon
}

fn main() {
    let root = std::env::temp_dir().join(format!("norns-overlap-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();

    let daemon_a = spawn_node(&root, "node0", "dsa");
    let daemon_b = spawn_node(&root, "node1", "dsb");
    fs::write(root.join("node0/ds/in.dat"), b"alpha input").unwrap();
    fs::write(root.join("node1/ds/in.dat"), b"beta input").unwrap();

    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    exec.add_node(NodeSpec {
        name: "node0".into(),
        control_path: daemon_a.control_path.clone(),
        dataspaces: vec!["dsa".into()],
    })
    .unwrap();
    exec.add_node(NodeSpec {
        name: "node1".into(),
        control_path: daemon_b.control_path.clone(),
        dataspaces: vec!["dsb".into()],
    })
    .unwrap();

    let alpha = exec
        .submit(
            "#SBATCH --job-name=alpha\n\
             #NORNS stage_in dsa://in.dat dsa://work/in.dat\n",
            JobBody::Sleep(Duration::from_millis(500)),
        )
        .unwrap();
    let beta = exec
        .submit(
            "#SBATCH --job-name=beta\n\
             #NORNS stage_in dsb://in.dat dsb://work/in.dat\n\
             #NORNS stage_out dsb://work/in.dat dsb://results/out.dat\n",
            JobBody::Sleep(Duration::ZERO),
        )
        .unwrap();

    let started = Instant::now();
    let outcomes = exec.run().unwrap();
    let wall = started.elapsed();
    for event in exec.events() {
        println!("  {event:?}");
    }
    assert_eq!(
        outcomes,
        vec![
            (alpha, FlowJobState::Completed),
            (beta, FlowJobState::Completed)
        ]
    );

    // The proof: beta's stage-in began — and its whole lifecycle
    // finished — before alpha's terminal event.
    let pos = |pred: &dyn Fn(&FlowEvent) -> bool| exec.events().iter().position(pred).unwrap();
    let beta_stage_in =
        pos(&|e| matches!(e, FlowEvent::StageInStarted { job, .. } if *job == beta));
    let beta_done = pos(&|e| matches!(e, FlowEvent::Completed { job, .. } if *job == beta));
    let alpha_done = pos(&|e| matches!(e, FlowEvent::Completed { job, .. } if *job == alpha));
    assert!(
        beta_stage_in < alpha_done,
        "beta's staging must start while alpha is still in flight"
    );
    assert!(
        beta_done < alpha_done,
        "beta must complete while alpha computes"
    );
    // And the wall clock agrees: the two jobs' work overlapped rather
    // than being serialized (alpha alone sleeps 500 ms).
    assert!(
        wall < Duration::from_millis(1500),
        "overlapped workflow took {wall:?}; the jobs were serialized"
    );
    assert_eq!(
        fs::read(root.join("node1/ds/results/out.dat")).unwrap(),
        b"beta input"
    );

    println!(
        "overlap proven: beta staged, ran and staged out while alpha computed ({wall:?} wall)"
    );
    drop(daemon_a);
    drop(daemon_b);
    let _ = fs::remove_dir_all(&root);
}
