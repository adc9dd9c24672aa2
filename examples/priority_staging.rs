//! Priority, cancellation and admission control on a live daemon.
//!
//! ```text
//! cargo run --release --example priority_staging
//! ```
//!
//! Starts a real `urd` with the weighted-priority arbitration policy
//! and a single worker, floods it with low-priority transfers, then:
//! 1. submits a high-priority task last and watches it jump the queue,
//! 2. cancels one of the still-pending low-priority tasks,
//! 3. shrinks the queue bound to show the EAGAIN-style `Busy` answer.

use norns_ipc::{CtlClient, DaemonConfig, PolicyKind, UrdDaemon};
use norns_proto::{
    BackendKind, DataspaceDesc, ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskState,
};

fn mem_task(path: &str, size: usize, priority: u8) -> (TaskSpec, Vec<u8>) {
    let spec = TaskSpec::new(
        TaskOp::Copy,
        ResourceDesc::MemoryRegion {
            addr: 0,
            size: size as u64,
        },
        Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: path.into(),
        }),
    )
    .with_priority(priority);
    (spec, vec![0xc3u8; size])
}

fn main() {
    let root = std::env::temp_dir().join(format!("norns-priority-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let daemon = UrdDaemon::spawn({
        let mut cfg =
            DaemonConfig::in_dir(root.join("sockets")).with_policy(PolicyKind::WeightedPriority);
        cfg.engine.workers = 1;
        cfg
    })
    .expect("daemon spawn");
    println!("urd up with policy weighted-priority, 1 worker");

    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(DataspaceDesc {
        nsid: "tmp0".into(),
        kind: BackendKind::Tmpfs,
        mount: root.join("tmp0").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();

    // Occupy the worker with a path→path copy of a 64 MiB file (long
    // enough that the whole backlog below forms while it runs), then
    // build a low-priority backlog.
    std::fs::write(root.join("tmp0/blocker-src"), vec![0x5au8; 64 << 20]).unwrap();
    let blocker = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "blocker-src".into(),
                },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "blocker-dst".into(),
                }),
            ),
            None,
        )
        .unwrap();
    let mut low = Vec::new();
    for i in 0..6 {
        let (spec, payload) = mem_task(&format!("low{i}"), 64 << 10, 10);
        low.push(ctl.submit(1, spec, Some(&payload)).unwrap());
    }
    // The latecomer with priority 250 must overtake the whole backlog.
    let (spec, payload) = mem_task("urgent", 64 << 10, 250);
    let urgent = ctl.submit(1, spec, Some(&payload)).unwrap();

    // Cancel one still-pending low-priority task.
    let victim = *low.last().unwrap();
    match ctl.cancel(victim) {
        Ok(()) => {
            let stats = ctl.wait(victim, 0).unwrap();
            println!("cancelled task {victim}: state {:?}", stats.state);
            assert_eq!(stats.state, TaskState::Cancelled);
        }
        Err(e) => println!("cancel raced with the worker ({e}) — task already taken"),
    }

    let urgent_stats = ctl.wait(urgent, 0).unwrap();
    assert_eq!(urgent_stats.state, TaskState::Finished);
    ctl.wait(blocker, 0).unwrap();
    let mut low_waits = Vec::new();
    for id in &low {
        let stats = ctl.wait(*id, 0).unwrap();
        if stats.state == TaskState::Finished {
            low_waits.push(stats.wait_usec);
        }
    }
    println!(
        "urgent (submitted last, prio 250) waited {} µs; surviving low-prio tasks waited {:?} µs",
        urgent_stats.wait_usec, low_waits
    );
    assert!(
        low_waits.iter().all(|&w| urgent_stats.wait_usec <= w),
        "priority inversion!"
    );

    // Admission control: a daemon with a 2-deep queue answers Busy.
    drop(daemon);
    let daemon = UrdDaemon::spawn({
        let mut cfg = DaemonConfig::in_dir(root.join("sockets2"));
        cfg.engine.workers = 1;
        cfg.engine.queue_capacity = 2;
        cfg
    })
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(DataspaceDesc {
        nsid: "tmp0".into(),
        kind: BackendKind::Tmpfs,
        mount: root.join("tmp0b").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    // Pin the worker so the flood reliably backs up.
    std::fs::write(root.join("tmp0b/blocker-src"), vec![0x77u8; 64 << 20]).unwrap();
    ctl.submit(
        1,
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "blocker-src".into(),
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "blocker-dst".into(),
            }),
        ),
        None,
    )
    .unwrap();
    let mut busy = 0;
    for i in 0..12 {
        let (spec, payload) = mem_task(&format!("flood{i}"), 4 << 20, 100);
        match ctl.submit(1, spec, Some(&payload)) {
            Ok(_) => {}
            Err(norns_ipc::ClientError::Remote {
                code: ErrorCode::Busy,
                ..
            }) => busy += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    println!("flooded a 2-deep queue with 12 tasks: {busy} Busy rejections");
    assert!(busy > 0);
    // A copy whose destination nests inside its source would recurse
    // forever; the daemon must refuse it at submission.
    match ctl.submit(
        1,
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "d".into(),
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "d/sub".into(),
            }),
        ),
        None,
    ) {
        Err(norns_ipc::ClientError::Remote {
            code: ErrorCode::BadArgs,
            ..
        }) => println!("recursive copy (dst inside src) rejected"),
        other => panic!("expected BadArgs for dst-inside-src, got {other:?}"),
    }
    println!("ok: priority honored, cancel works, bounded queue pushes back");
    let _ = std::fs::remove_dir_all(&root);
}
