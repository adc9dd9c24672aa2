//! Thousand-client storm against one reactor daemon.
//!
//! `NORNS_STORM_CLIENTS` pipelined connections (default 1000, clamped
//! to the process fd limit — the daemon lives in-process, so each
//! connection costs two descriptors here) are opened from a handful of
//! driver threads and mix every verb at once: pipelined submissions
//! (a quarter designed to fail), pings, a parked forever `WaitTask` per
//! admitted task, queries, cancels, and blocking drains. The daemon must absorb the
//! whole storm on its fixed reactor pool — the test measures the
//! process thread count at peak concurrency to prove there is no
//! thread-per-connection — and at quiesce its counters must balance
//! exactly: nothing pending, nothing running, every accepted
//! submission accounted once as completed or cancelled. After the
//! daemon drops, the process fd and thread counts return to their
//! pre-spawn baselines (no leak).
//!
//! A slice of the storm's successful submissions carries
//! `local_plus_one` durability against a live replica peer, so the
//! quiesce check also proves the background replication queue drains:
//! the `pending_replicas` / `pending_replica_bytes` lag counters must
//! reach exactly zero once the storm settles.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use norns_ipc::{ClientError, CtlClient, DaemonConfig, UrdDaemon, UserClient};
use norns_proto::{
    push_frame, BackendKind, CtlRequest, DataRequest, DataResponse, DataspaceDesc, Durability,
    ErrorCode, FrameReader, JobDesc, ResourceDesc, Response, TaskOp, TaskSpec,
};

const DRIVERS: usize = 8;

fn temp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norns-ipc-storm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

// SAFETY: `RLimit` above is `#[repr(C)]` with two u64 fields, the
// exact layout of glibc's `struct rlimit` on 64-bit Linux, and the
// signatures match the headers.
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Raise the soft fd limit to the hard limit and return the soft
/// limit in force afterwards.
fn raise_nofile() -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: both calls receive pointers to live, initialised stack
    // `RLimit` values matching the declared parameter types.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur < lim.max {
            let want = RLimit {
                cur: lim.max,
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                lim.cur = lim.max;
            }
        }
    }
    lim.cur
}

fn proc_threads() -> usize {
    fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

fn proc_fds() -> usize {
    fs::read_dir("/proc/self/fd").unwrap().count()
}

fn storm_clients() -> usize {
    std::env::var("NORNS_STORM_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn copy_spec(src: String, dst: String) -> TaskSpec {
    TaskSpec::new(
        TaskOp::Copy,
        ResourceDesc::PosixPath {
            nsid: "storm0".into(),
            path: src,
        },
        Some(ResourceDesc::PosixPath {
            nsid: "storm0".into(),
            path: dst,
        }),
    )
}

/// One connection's slice of the storm, with the tags of the
/// submissions it has in flight.
enum StormConn {
    Ctl(CtlClient, [u64; 2]),
    User(UserClient, [u64; 2]),
}

/// Collect a connection's submission answers into the admitted task
/// ids. Admission pushback is legal: a Busy just drops that task.
fn admitted(
    tags: [u64; 2],
    mut wait_for: impl FnMut(u64) -> Response,
    accepted: &AtomicU64,
) -> Vec<u64> {
    let mut ids = Vec::new();
    for tag in tags {
        match wait_for(tag) {
            Response::TaskSubmitted { task_id } => {
                accepted.fetch_add(1, Ordering::SeqCst);
                ids.push(task_id);
            }
            Response::Error {
                code: ErrorCode::Busy,
                ..
            } => {}
            other => panic!("submit answered {other:?}"),
        }
    }
    ids
}

#[test]
fn thousand_client_storm() {
    let fd_budget = raise_nofile();
    // Two unix-socket fds per connection (both ends live in this
    // process) plus headroom for the daemon, the dataspace files and
    // the harness itself.
    let clients = storm_clients()
        .min((fd_budget.saturating_sub(512) / 2) as usize)
        .max(DRIVERS);
    let root = temp_root();

    let fds_before = proc_fds();
    let threads_before = proc_threads();

    let daemon = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join("sockets")).with_queue_capacity(clients * 2 + 64),
    )
    .unwrap();
    // A replica peer sharing the cluster-wide `storm0` dataspace name:
    // the durable slice of the storm pushes its stage-outs here.
    let peer = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join("peer/sockets")).with_data_addr("127.0.0.1:0"),
    )
    .unwrap();
    {
        let mut peer_ctl = CtlClient::connect(&peer.control_path).unwrap();
        peer_ctl
            .register_dataspace(DataspaceDesc {
                nsid: "storm0".into(),
                kind: BackendKind::PosixFilesystem,
                mount: root.join("peer/ds").to_string_lossy().into_owned(),
                quota: 0,
                tracked: false,
            })
            .unwrap();
    }
    {
        let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
        ctl.register_dataspace(DataspaceDesc {
            nsid: "storm0".into(),
            kind: BackendKind::PosixFilesystem,
            mount: root.join("ds").to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
        ctl.register_peer("peer0", &peer.data_addr().unwrap().to_string())
            .unwrap();
        for d in 0..DRIVERS as u64 {
            ctl.register_job(JobDesc {
                job_id: d + 1,
                hosts: vec!["n0".into()],
                limits: vec![],
            })
            .unwrap();
            ctl.add_process(d + 1, 50_000 + d, 1000, 1000).unwrap();
        }
    }
    fs::write(root.join("ds/seed.dat"), vec![7u8; 4 << 10]).unwrap();

    let accepted = Arc::new(AtomicU64::new(0));
    // Drivers rendezvous here once every connection is open with its
    // initial burst in flight; the main thread measures the process
    // thread count at that peak before releasing them.
    let at_peak = Arc::new(Barrier::new(DRIVERS + 1));
    let measured = Arc::new(Barrier::new(DRIVERS + 1));
    let mut handles = Vec::new();
    for d in 0..DRIVERS {
        let accepted = Arc::clone(&accepted);
        let at_peak = Arc::clone(&at_peak);
        let measured = Arc::clone(&measured);
        let control_path = daemon.control_path.clone();
        let user_path = daemon.user_path.clone();
        let my_conns = clients / DRIVERS + usize::from(d < clients % DRIVERS);
        handles.push(std::thread::spawn(move || {
            let job = d as u64 + 1;
            let pid = 50_000 + d as u64;
            // Phase 1: open every connection and fire its pipelined
            // burst (two submissions — one referencing a missing
            // source — and a ping) without reading anything back.
            let mut conns: Vec<StormConn> = Vec::with_capacity(my_conns);
            for c in 0..my_conns {
                // Every fourth connection's good submission is a
                // replicated stage-out: the ACK rides the local leg
                // and the background queue pushes a copy to `peer0`.
                let mut good = copy_spec("seed.dat".into(), format!("out/{d}/{c}.dat"));
                if c % 4 == 0 {
                    good = good.with_durability(Durability::LocalPlusOne);
                }
                let ghost = copy_spec(format!("ghost-{d}-{c}.dat"), format!("bad/{d}/{c}.dat"));
                if c % 8 == 7 {
                    let mut conn = UserClient::with_pid(&user_path, pid).unwrap();
                    let t1 = conn.issue_submit(good, None).unwrap();
                    let t2 = conn.issue_submit(ghost, None).unwrap();
                    conns.push(StormConn::User(conn, [t1, t2]));
                } else {
                    let mut conn = CtlClient::connect(&control_path).unwrap();
                    let t1 = conn.issue_submit(job, good, None).unwrap();
                    let t2 = conn.issue_submit(job, ghost, None).unwrap();
                    let _ping = conn.issue_ping().unwrap();
                    conns.push(StormConn::Ctl(conn, [t1, t2]));
                }
            }
            at_peak.wait();
            measured.wait();
            // Phase 2: collect the submission answers, then park a
            // forever WaitTask per admitted task while also querying and
            // cancelling behind them on the same connection.
            for sc in conns {
                match sc {
                    StormConn::Ctl(mut conn, tags) => {
                        let ids = admitted(tags, |t| conn.wait_for(t).unwrap(), &accepted);
                        let waits: Vec<u64> = ids
                            .iter()
                            .map(|&id| conn.issue_wait(id, 0).unwrap())
                            .collect();
                        if !ids.is_empty() {
                            let query_tag = conn.issue_query(ids[0]).unwrap();
                            let cancel_tag = conn
                                .issue(
                                    &CtlRequest::CancelTask {
                                        task_id: *ids.last().unwrap(),
                                    },
                                    None,
                                )
                                .unwrap();
                            // Any cancel answer is legal: pending →
                            // cancelled, running/finished → refusal.
                            match conn.wait_for(cancel_tag).unwrap() {
                                Response::Ok | Response::Error { .. } => {}
                                other => panic!("cancel answered {other:?}"),
                            }
                            match conn.wait_for(query_tag).unwrap() {
                                Response::TaskStatus(_) | Response::Error { .. } => {}
                                other => panic!("query answered {other:?}"),
                            }
                        }
                        // Quiesce this connection: every parked wait
                        // answers under its own tag once its task ends.
                        for tag in waits {
                            match conn.wait_for(tag).unwrap() {
                                Response::TaskStatus(stats) => assert!(stats.state.is_terminal()),
                                other => panic!("parked wait answered {other:?}"),
                            }
                        }
                    }
                    StormConn::User(mut conn, tags) => {
                        let ids = admitted(tags, |t| conn.wait_for(t).unwrap(), &accepted);
                        if !ids.is_empty() {
                            let query_tag = conn.issue_query(ids[0]).unwrap();
                            let cancel_tag = conn.issue_cancel(*ids.last().unwrap()).unwrap();
                            match conn.wait_for(cancel_tag).unwrap() {
                                Response::Ok | Response::Error { .. } => {}
                                other => panic!("user cancel answered {other:?}"),
                            }
                            match conn.wait_for(query_tag).unwrap() {
                                Response::TaskStatus(_) | Response::Error { .. } => {}
                                other => panic!("user query answered {other:?}"),
                            }
                        }
                        for id in ids {
                            let stats = conn.wait(id, 0).unwrap();
                            assert!(stats.state.is_terminal());
                        }
                    }
                }
            }
        }));
    }
    at_peak.wait();
    let threads_at_peak = proc_threads();
    measured.wait();
    for h in handles {
        h.join().unwrap();
    }

    // The daemons' thread count must be bounded by their fixed pools
    // (reactors + engine workers: 2 + 4 on each daemon, and the peer's
    // data plane adds at most one handler per pushing worker — 16 in
    // all), not by the number of connections: with
    // thread-per-connection the peak would exceed the baseline by at
    // least `clients`.
    let peak_growth = threads_at_peak.saturating_sub(threads_before);
    assert!(
        peak_growth < DRIVERS + 32,
        "thread count grew by {peak_growth} at {clients} clients — thread-per-connection?"
    );

    let accepted = accepted.load(Ordering::SeqCst);
    assert!(
        accepted > clients as u64,
        "the storm must mostly be admitted (got {accepted} of {})",
        clients * 2
    );
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    // Every ACK is in; the background replication queue must drain to
    // exactly zero lag before the storm counts as quiesced.
    let drain_deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        let status = ctl.status().unwrap();
        if status.pending_replicas == 0 && status.pending_replica_bytes == 0 {
            break status;
        }
        assert!(
            std::time::Instant::now() < drain_deadline,
            "replication lag stuck at {} replicas / {} bytes",
            status.pending_replicas,
            status.pending_replica_bytes
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(status.pending_tasks, 0, "quiesced: nothing pending");
    assert_eq!(status.running_tasks, 0, "quiesced: nothing running");
    assert_eq!(
        status.completed_tasks + status.cancelled_tasks,
        accepted,
        "every accepted submission is accounted exactly once: {status:?}"
    );
    assert_eq!(
        status.accept_errors, 0,
        "a clean storm must not trip the acceptor backoff"
    );
    // The durable slice actually landed on the peer: spot-check one
    // replicated stage-out per driver, byte-identical to the seed.
    let seed = fs::read(root.join("ds/seed.dat")).unwrap();
    let replicated: usize = (0..DRIVERS)
        .map(|d| {
            let path = root.join(format!("peer/ds/out/{d}/0.dat"));
            match fs::read(&path) {
                Ok(bytes) => {
                    assert_eq!(bytes, seed, "replica content for driver {d}");
                    1
                }
                // Legal: that submission was Busy-rejected or its
                // cancel won the race before the local leg ran.
                Err(_) => 0,
            }
        })
        .sum();
    assert!(
        replicated > 0,
        "with {accepted} accepted submissions the storm must land at least one replica"
    );
    // Every data-plane handler that lands a payload makes itself a pipe
    // (the `splice` landing's socket → pipe → file); its two fds must
    // go with the handler thread. 32 connections to the peer's data
    // plane each land a range and hang up: once their handlers have
    // seen that, the process holds exactly the fds it held before.
    let fds_idle = proc_fds();
    for i in 0..32 {
        let mut stream = TcpStream::connect(peer.data_addr().unwrap()).unwrap();
        let store = DataRequest::Store {
            nsid: "storm0".into(),
            path: format!("landed-{}.dat", i % 4),
            offset: 0,
        };
        let mut frame = BytesMut::new();
        push_frame(&mut frame, None, &store, 256 << 10, |_| ());
        stream.write_all(&frame).unwrap();
        stream.write_all(&vec![i as u8; 256 << 10]).unwrap();
        let mut reader = FrameReader::new();
        let answer = loop {
            if let Some(answer) = reader.next_message::<DataResponse>().unwrap() {
                break answer;
            }
            assert!(reader.read_from(&mut stream).unwrap() > 0, "peer hung up");
        };
        assert_eq!(answer, (DataResponse::Ok, 0));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while proc_fds() != fds_idle {
        assert!(
            Instant::now() < deadline,
            "fd leak on the data plane: {fds_idle} before 32 landed ranges, {} after",
            proc_fds()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(ctl);
    drop(daemon);
    drop(peer);

    // Everything the storm opened — client ends, accepted ends, the
    // epoll/eventfd instances, the data-plane listener — must be gone.
    let fds_after = proc_fds();
    assert!(
        fds_after <= fds_before + 4,
        "fd leak: {fds_before} before the daemon, {fds_after} after drop"
    );
    let threads_after = proc_threads();
    assert!(
        threads_after <= threads_before + 2,
        "thread leak: {threads_before} before the daemon, {threads_after} after drop"
    );
    let _ = fs::remove_dir_all(&root);
}

/// `demux` must reject frames whose tag was never issued or was
/// already answered — a protocol violation surfaces as an error, never
/// a panic or a silent drop.
#[test]
fn demux_rejects_unknown_and_duplicate_tags() {
    use std::collections::HashSet;

    use norns_ipc::client::demux;
    use norns_proto::encode_tagged;

    let mut pending: HashSet<u64> = [3u64, 9].into_iter().collect();

    // Unknown tag: never issued.
    let err = demux(&mut pending, encode_tagged(17, &Response::Ok)).unwrap_err();
    assert!(
        matches!(err, ClientError::Protocol(ref m) if m.contains("17")),
        "unknown tag must be a protocol error, got {err:?}"
    );

    // Issued tag demuxes fine...
    let (tag, resp) = demux(&mut pending, encode_tagged(3, &Response::Ok)).unwrap();
    assert_eq!(tag, 3);
    assert!(matches!(resp, Response::Ok));

    // ...but a second answer for the same tag is a duplicate.
    let err = demux(&mut pending, encode_tagged(3, &Response::Ok)).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)));

    // Garbage that fails varint/response decoding is an error too.
    let garbage = bytes::Bytes::from_static(&[0xff; 3]);
    assert!(demux(&mut pending, garbage).is_err());
}
