//! Stress: 8 concurrent client connections × 200 tasks each, mixing
//! submissions (some designed to fail), queries, cancels, bounded
//! waits and pipelined forever waits. At quiesce the daemon's counters must
//! balance exactly: every accepted submission is accounted as
//! completed (successfully or with error) or cancelled, and nothing
//! is left pending or running.

use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use norns_ipc::client::expect_stats;
use norns_ipc::{ClientError, CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{
    BackendKind, DataspaceDesc, ErrorCode, JobDesc, ResourceDesc, TaskOp, TaskSpec, TaskState,
};

mod common;
use common::TempRoot;

const CLIENTS: usize = 8;
const TASKS_PER_CLIENT: usize = 200;

fn temp_root() -> TempRoot {
    TempRoot::new("ipc-stress")
}

#[test]
fn counters_balance_after_mixed_storm() {
    let root = temp_root();
    let daemon = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join("sockets"))
            .with_queue_capacity(CLIENTS * TASKS_PER_CLIENT + 64),
    )
    .unwrap();
    {
        let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
        ctl.register_dataspace(DataspaceDesc {
            nsid: "tmp0".into(),
            kind: BackendKind::PosixFilesystem,
            mount: root.join("ds").to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
        for job in 1..=CLIENTS as u64 {
            ctl.register_job(JobDesc {
                job_id: job,
                hosts: vec!["n0".into()],
                limits: vec![],
            })
            .unwrap();
        }
    }
    fs::write(root.join("ds/seed.dat"), vec![9u8; 64 << 10]).unwrap();

    let accepted = Arc::new(AtomicU64::new(0));
    let control_path = daemon.control_path.clone();
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let accepted = Arc::clone(&accepted);
        let control_path = control_path.clone();
        handles.push(std::thread::spawn(move || {
            let mut ctl = CtlClient::connect(&control_path).unwrap();
            let job = client as u64 + 1;
            let mut outstanding: Vec<u64> = Vec::new();
            for i in 0..TASKS_PER_CLIENT {
                // A quarter of the tasks reference a missing source and
                // fail; the rest copy the seed file.
                let src = if i % 4 == 3 {
                    format!("ghost-{client}-{i}.dat")
                } else {
                    "seed.dat".to_string()
                };
                let spec = TaskSpec::new(
                    TaskOp::Copy,
                    ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: src,
                    },
                    Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: format!("out/{client}/{i}.dat"),
                    }),
                );
                match ctl.submit(job, spec, None) {
                    Ok(id) => {
                        accepted.fetch_add(1, Ordering::SeqCst);
                        outstanding.push(id);
                    }
                    Err(ClientError::Remote {
                        code: ErrorCode::Busy,
                        ..
                    }) => {} // admission pushback: simply dropped
                    Err(e) => panic!("submit failed: {e}"),
                }
                // Interleave the other verbs while the backlog churns.
                match i % 5 {
                    0 => {
                        if let Some(&id) = outstanding.last() {
                            let stats = ctl.query(id).unwrap();
                            assert!(
                                stats.bytes_moved <= stats.bytes_total.max(64 << 10),
                                "progress overlay out of range: {stats:?}"
                            );
                        }
                    }
                    // Cancel an oldish task; any answer is legal
                    // (pending → cancelled, running/finished →
                    // refusal), the counters must absorb both.
                    1 if outstanding.len() >= 8 => {
                        let id = outstanding[outstanding.len() - 8];
                        let _ = ctl.cancel(id);
                    }
                    // A bounded wait on the oldest outstanding task with
                    // a tiny timeout: a terminal answer retires it, the
                    // in-flight snapshot leaves it; both fine.
                    2 if !outstanding.is_empty()
                        && ctl.wait(outstanding[0], 500).unwrap().state.is_terminal() =>
                    {
                        outstanding.remove(0);
                    }
                    _ => {}
                }
            }
            // Quiesce: a forever wait per remaining task, pipelined on
            // the one connection, answered under its own tag as its
            // task ends; each answer is re-verified by a blocking wait
            // issued beside the others still parked (terminal states
            // are sticky).
            let mut waits: HashMap<u64, u64> = outstanding
                .iter()
                .map(|&id| (ctl.issue_wait(id, 0).unwrap(), id))
                .collect();
            while !waits.is_empty() {
                for (tag, response) in ctl.poll(Duration::from_millis(100)).unwrap() {
                    let id = waits.remove(&tag).expect("the answer to an issued wait");
                    let stats = expect_stats(response).unwrap();
                    match stats.state {
                        TaskState::Finished => assert_eq!(stats.error, ErrorCode::Success),
                        TaskState::FinishedWithError => {
                            assert_eq!(stats.error, ErrorCode::NotFound, "only ghosts fail")
                        }
                        TaskState::Cancelled => {}
                        other => panic!("a forever wait answered non-terminal {other:?}"),
                    }
                    assert_eq!(ctl.wait(id, 1).unwrap().state, stats.state);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let accepted = accepted.load(Ordering::SeqCst);
    assert!(
        accepted > (CLIENTS * TASKS_PER_CLIENT / 2) as u64,
        "the storm must mostly be admitted (got {accepted})"
    );
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    let status = ctl.status().unwrap();
    assert_eq!(status.pending_tasks, 0, "quiesced: nothing pending");
    assert_eq!(status.running_tasks, 0, "quiesced: nothing running");
    // completed_tasks counts Finished *and* FinishedWithError;
    // cancelled_tasks counts pre-dispatch and mid-stream cancels.
    assert_eq!(
        status.completed_tasks + status.cancelled_tasks,
        accepted,
        "every accepted submission is accounted exactly once: {status:?}"
    );
    drop(daemon);
    let _ = fs::remove_dir_all(&root);
}
