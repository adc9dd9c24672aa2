//! Integration tests against a live daemon over real sockets.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon, UserClient};
use norns_proto::{
    decode_tagged, encode_frame, encode_tagged, BackendKind, CtlRequest, DaemonCommand,
    DataspaceDesc, Durability, ErrorCode, FrameReader, JobDesc, ResourceDesc, Response, TaskOp,
    TaskSpec, TaskState, DEFAULT_PRIORITY, MAX_FRAME_LEN,
};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norns-ipcd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(tag: &str) -> (UrdDaemon, PathBuf) {
    let root = temp_root(tag);
    let daemon = UrdDaemon::spawn(DaemonConfig::in_dir(root.join("sockets"))).unwrap();
    (daemon, root)
}

fn setup_dataspace(ctl: &mut CtlClient, root: &Path) {
    ctl.register_dataspace(DataspaceDesc {
        nsid: "tmp0".into(),
        kind: BackendKind::Tmpfs,
        mount: root.join("tmp0").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
}

#[test]
fn listing2_flow_over_real_sockets() {
    let (daemon, root) = start("listing2");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    ctl.register_job(JobDesc {
        job_id: 42,
        hosts: vec!["localhost".into()],
        limits: vec![],
    })
    .unwrap();
    ctl.add_process(42, 777, 1000, 1000).unwrap();

    // The Listing 2 pattern: offload a buffer asynchronously, then
    // wait and check the status.
    let mut user = UserClient::with_pid(&daemon.user_path, 777).unwrap();
    let buffer = vec![0xabu8; 256 * 1024];
    let task = user
        .submit(
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::MemoryRegion {
                    addr: 0x1000,
                    size: buffer.len() as u64,
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "path/to/output".into(),
                }),
                durability: Durability::LocalOnly,
            },
            Some(&buffer),
        )
        .unwrap();
    let stats = user.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, buffer.len() as u64);
    let written = std::fs::read(root.join("tmp0/path/to/output")).unwrap();
    assert_eq!(written, buffer);
}

/// A payload too large for one frame is the caller's `InvalidInput`,
/// returned before a byte is written or a tag is spent: both clients'
/// connections go on answering behind it.
#[test]
fn an_oversized_payload_is_refused_before_anything_is_sent() {
    let (daemon, root) = start("oversized");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    let buffer = vec![0u8; MAX_FRAME_LEN as usize];
    let spec = TaskSpec::new(
        TaskOp::Copy,
        ResourceDesc::MemoryRegion {
            addr: 0,
            size: buffer.len() as u64,
        },
        Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: "big".into(),
        }),
    );
    let invalid_input = |r: norns_ipc::ClientResult<u64>| match r {
        Err(norns_ipc::ClientError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput)
        }
        other => panic!("expected InvalidInput, got {other:?}"),
    };
    invalid_input(ctl.submit(1, spec.clone(), Some(&buffer)));
    assert_eq!(ctl.in_flight(), 0);
    ctl.ping().unwrap();
    let mut user = UserClient::with_pid(&daemon.user_path, 777).unwrap();
    invalid_input(user.submit(spec, Some(&buffer)));
    assert_eq!(user.in_flight(), 0);
    assert_eq!(user.dataspaces().unwrap().len(), 1);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn list_dir_enumerates_sorted_contained_and_typed() {
    let (daemon, root) = start("listdir");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    let mount = root.join("tmp0");
    std::fs::create_dir_all(mount.join("case/sub")).unwrap();
    std::fs::write(mount.join("case/beta.dat"), b"b").unwrap();
    std::fs::write(mount.join("case/alpha.dat"), b"a").unwrap();

    // Names only, sorted, directories included.
    assert_eq!(
        ctl.list_dir("tmp0", "case").unwrap(),
        vec![
            "alpha.dat".to_string(),
            "beta.dat".to_string(),
            "sub".to_string()
        ]
    );
    assert_eq!(
        ctl.list_dir("tmp0", "case/sub").unwrap(),
        Vec::<String>::new()
    );
    // A file is BadArgs (scatter planners fall back to single-file
    // placement on this), a missing path NotFound, and the same
    // containment rules as task submission apply.
    for (path, code) in [
        ("case/alpha.dat", ErrorCode::BadArgs),
        ("ghost", ErrorCode::NotFound),
        ("../..", ErrorCode::PermissionDenied),
        ("/etc", ErrorCode::PermissionDenied),
    ] {
        match ctl.list_dir("tmp0", path) {
            Err(norns_ipc::ClientError::Remote { code: got, .. }) => {
                assert_eq!(got, code, "path {path:?}")
            }
            other => panic!("list_dir({path:?}) = {other:?}"),
        }
    }
    match ctl.list_dir("nope", "x") {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound)
        }
        other => panic!("unknown nsid = {other:?}"),
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn user_socket_reports_dataspaces() {
    let (daemon, root) = start("dsinfo");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    let mut user = UserClient::connect(&daemon.user_path).unwrap();
    let ds = user.dataspaces().unwrap();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].nsid, "tmp0");
}

#[test]
fn copy_between_paths_via_control_api() {
    let (daemon, root) = start("copy");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    std::fs::write(root.join("tmp0/input.dat"), vec![3u8; 4096]).unwrap();
    let task = ctl
        .submit(
            0,
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "input.dat".into(),
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "staged/input.dat".into(),
                }),
                durability: Durability::LocalOnly,
            },
            None,
        )
        .unwrap();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, 4096);
    assert!(root.join("tmp0/staged/input.dat").exists());
}

#[test]
fn errors_propagate_to_clients() {
    let (daemon, root) = start("errors");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    // Unknown dataspace.
    let err = ctl.submit(
        0,
        TaskSpec {
            op: TaskOp::Remove,
            priority: DEFAULT_PRIORITY,
            input: ResourceDesc::PosixPath {
                nsid: "ghost".into(),
                path: "x".into(),
            },
            output: None,
            durability: Durability::LocalOnly,
        },
        None,
    );
    match err {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound)
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }
    // Task that fails at execution.
    let task = ctl
        .submit(
            0,
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "absent".into(),
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "y".into(),
                }),
                durability: Durability::LocalOnly,
            },
            None,
        )
        .unwrap();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::NotFound);
}

#[test]
fn pause_and_resume_via_commands() {
    let (daemon, root) = start("pause");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    ctl.send_command(DaemonCommand::PauseAccepting).unwrap();
    let err = ctl.submit(
        0,
        TaskSpec {
            op: TaskOp::Remove,
            priority: DEFAULT_PRIORITY,
            input: ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "x".into(),
            },
            output: None,
            durability: Durability::LocalOnly,
        },
        None,
    );
    assert!(err.is_err());
    ctl.send_command(DaemonCommand::ResumeAccepting).unwrap();
    let st = ctl.status().unwrap();
    assert!(st.accepting);
}

#[test]
fn status_reports_cancelled_tasks_and_chunk_size_over_wire() {
    let root = temp_root("statusv3");
    // One worker and a non-default chunk size: the status must echo the
    // configured knob, and a cancel behind a blocker must be counted.
    let daemon =
        UrdDaemon::spawn(DaemonConfig::in_dir(root.join("sockets")).with_chunk_size(2 << 20))
            .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    assert_eq!(ctl.status().unwrap().chunk_size, 2 << 20);
    assert_eq!(ctl.status().unwrap().cancelled_tasks, 0);
    // Saturate all four workers with blockers, then cancel a queued
    // victim before any worker can reach it.
    std::fs::write(root.join("tmp0/blocker"), vec![0x42u8; 64 << 20]).unwrap();
    let copy = |dst: &str| TaskSpec {
        op: TaskOp::Copy,
        priority: DEFAULT_PRIORITY,
        input: ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: "blocker".into(),
        },
        output: Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: dst.into(),
        }),
        durability: Durability::LocalOnly,
    };
    let mut blockers = Vec::new();
    for i in 0..4 {
        blockers.push(ctl.submit(1, copy(&format!("out{i}")), None).unwrap());
    }
    let victim = ctl.submit(1, copy("victim"), None).unwrap();
    match ctl.cancel(victim) {
        Ok(()) => {
            // Pending-cancel is synchronous; a mid-stream cancel (the
            // worker had already decomposed the victim) lands when its
            // units drain — wait for the terminal state before
            // checking the counter.
            let stats = ctl.wait(victim, 0).unwrap();
            assert_eq!(stats.state, TaskState::Cancelled);
            assert_eq!(ctl.status().unwrap().cancelled_tasks, 1);
        }
        // The victim may have fully finished before the cancel landed;
        // the error is then the contract.
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::TaskError);
        }
        Err(other) => panic!("unexpected cancel failure: {other}"),
    }
    for id in blockers {
        ctl.wait(id, 0).unwrap();
    }
}

#[test]
fn concurrent_clients_hammer_ping() {
    // A miniature of the Fig. 4 benchmark: 8 threads × 500 pings.
    let (daemon, _root) = start("hammer");
    let ctl_path = daemon.control_path.clone();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let path = ctl_path.clone();
            std::thread::spawn(move || {
                let mut c = CtlClient::connect(&path).unwrap();
                for _ in 0..500 {
                    c.ping().unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    assert!(ctl.status().is_ok());
}

/// A one-worker daemon whose worker is pinned for as long as the
/// returned listener lives: the blocker task pulls from a peer that
/// accepts (in the kernel's backlog) and never answers. Nothing
/// submitted behind it runs, so bounded waits on it deterministically
/// expire; dropping the listener resets the pull and frees the worker.
fn pinned(tag: &str) -> (UrdDaemon, CtlClient, u64, std::net::TcpListener) {
    let root = temp_root(tag);
    let mut config = DaemonConfig::in_dir(root.join("sockets"));
    config.engine.workers = 1;
    let daemon = UrdDaemon::spawn(config).unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    ctl.register_peer("silent", &silent.local_addr().unwrap().to_string())
        .unwrap();
    let pull = TaskSpec::new(
        TaskOp::Copy,
        ResourceDesc::RemotePath {
            host: "silent".into(),
            nsid: "tmp0".into(),
            path: "never".into(),
        },
        Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: "never".into(),
        }),
    );
    let blocker = ctl.submit(1, pull, None).unwrap();
    (daemon, ctl, blocker, silent)
}

fn remote_code<T: std::fmt::Debug>(r: norns_ipc::ClientResult<T>) -> ErrorCode {
    match r {
        Err(norns_ipc::ClientError::Remote { code, .. }) => code,
        other => panic!("expected a remote error, got {other:?}"),
    }
}

/// The wire's deadline semantics, kept by the reactor's own epoll
/// timeout: an expired `WaitTask` answers with the in-flight snapshot,
/// never earlier than asked.
#[test]
fn wait_with_timeout_returns_inflight_state() {
    let (daemon, mut ctl, blocker, _silent) = pinned("timeout");
    let bound = Duration::from_millis(40);
    let start = Instant::now();
    let stats = ctl.wait(blocker, bound.as_micros() as u64).unwrap();
    assert!(!stats.state.is_terminal(), "in-flight snapshot: {stats:?}");
    assert!(
        start.elapsed() >= bound,
        "fired after {:?}",
        start.elapsed()
    );
    // An unknown task is a clean remote error, bounded or not.
    assert_eq!(remote_code(ctl.wait(4242, 1000)), ErrorCode::NotFound);
    assert_eq!(daemon.engine().parked_waits(), 0);
}

/// `poll` leaves its read timeout on the stream for the next poll
/// rather than clearing it after every read; a later blocking wait that
/// outlasts it many times over still returns the task's stats, not a
/// timeout error.
#[test]
fn a_poll_timeout_left_on_the_stream_does_not_fail_a_long_blocking_wait() {
    let (_daemon, mut ctl, blocker, silent) = pinned("poll-then-wait");
    assert!(ctl.poll(Duration::from_millis(1)).unwrap().is_empty());
    let hold = Duration::from_millis(60);
    let release = std::thread::spawn(move || {
        std::thread::sleep(hold);
        drop(silent); // resets the pull: the blocker fails
    });
    let start = Instant::now();
    let stats = ctl.wait(blocker, 0).unwrap();
    assert!(start.elapsed() >= Duration::from_millis(50));
    assert_eq!(stats.state, TaskState::FinishedWithError);
    release.join().unwrap();
}

/// Each reactor keeps the deadlines of its own connections: waits
/// issued latest-deadline-first over connections that alternate
/// between the two reactors still fire in deadline order.
#[test]
fn staggered_deadlines_on_different_reactors_fire_in_order() {
    let (daemon, _ctl, blocker, _silent) = pinned("stagger");
    let mut conns: Vec<CtlClient> = (0..4)
        .map(|_| CtlClient::connect(&daemon.control_path).unwrap())
        .collect();
    let bounds: Vec<Duration> = (0..4)
        .map(|i| Duration::from_millis(50 * (4 - i)))
        .collect();
    let start = Instant::now();
    for (conn, bound) in conns.iter_mut().zip(&bounds) {
        conn.issue_wait(blocker, bound.as_micros() as u64).unwrap();
    }
    let mut fired = Vec::new();
    while fired.len() < conns.len() {
        for (i, conn) in conns.iter_mut().enumerate() {
            for (_, response) in conn.try_drain().unwrap() {
                let stats = norns_ipc::client::expect_stats(response).unwrap();
                assert!(!stats.state.is_terminal());
                assert!(start.elapsed() >= bounds[i], "wait {i} fired early");
                fired.push(i);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(fired, [3, 2, 1, 0]);
}

/// Completions racing deadlines: payload sizes and bounds are swept so
/// the task finishes on either side of its wait's expiry. Whichever
/// wins, every tag gets exactly one response (the client's demux
/// rejects a second) and nothing stays parked.
#[test]
fn completion_racing_a_deadline_answers_each_tag_once() {
    let (daemon, root) = start("deadline-race");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    let (mut finished, mut expired) = (0, 0);
    for i in 0..300u64 {
        let payload = vec![i as u8; (i % 8) as usize * (256 << 10)];
        let spec = TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::MemoryRegion {
                addr: 0,
                size: payload.len() as u64,
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: format!("race{}", i % 4),
            }),
        );
        let task = ctl.submit(1, spec, Some(&payload)).unwrap();
        let bound = 1 + (i % 3) * 1000;
        if ctl.wait(task, bound).unwrap().state.is_terminal() {
            finished += 1;
        } else {
            expired += 1;
        }
        assert_eq!(ctl.wait(task, 0).unwrap().state, TaskState::Finished);
    }
    assert!(
        ctl.try_drain().unwrap().is_empty(),
        "a tag was answered twice"
    );
    assert_eq!(daemon.engine().parked_waits(), 0);
    eprintln!("deadline race: {finished} finished first, {expired} expired first");
}

/// A connection that closes with deadlines armed takes its waits with
/// it; when the deadlines later come due on the reactor they find
/// nothing to expire, and the reactor keeps serving.
#[test]
fn closing_a_connection_disarms_its_deadlines() {
    let (daemon, mut ctl, blocker, _silent) = pinned("disarm");
    let engine = daemon.engine();
    let bound = Duration::from_millis(300);
    let mut doomed = CtlClient::connect(&daemon.control_path).unwrap();
    let armed = Instant::now();
    for _ in 0..3 {
        doomed
            .issue_wait(blocker, bound.as_micros() as u64)
            .unwrap();
    }
    let settle = |want: usize| {
        while engine.parked_waits() != want {
            assert!(armed.elapsed() < bound, "parked_waits never reached {want}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    settle(3);
    drop(doomed);
    settle(0);
    std::thread::sleep(bound);
    ctl.ping().unwrap();
    assert_eq!(engine.parked_waits(), 0);
    assert_eq!(ctl.status().unwrap().open_connections, 1);
}

/// Fresh connections that pipeline the moment `connect` returns — no
/// ping, no pause — have every request acted on: each of them parks
/// its waits on a pinned blocker inside the bound. This is the path a
/// `CtlClient::issue` caller and the workflow executor take.
#[test]
fn fresh_connections_pipelining_at_once_have_every_wait_parked() {
    const CONNECTIONS: usize = 8;
    const WAITS: usize = 3;
    let (daemon, _ctl, blocker, _silent) = pinned("fresh-pipelined");
    let engine = daemon.engine();
    let bound = Duration::from_millis(300);
    let armed = Instant::now();
    let fresh: Vec<CtlClient> = (0..CONNECTIONS)
        .map(|_| {
            let mut conn = CtlClient::connect(&daemon.control_path).unwrap();
            for _ in 0..WAITS {
                conn.issue_wait(blocker, 0).unwrap();
            }
            conn
        })
        .collect();
    let want = CONNECTIONS * WAITS;
    while engine.parked_waits() != want {
        let parked = engine.parked_waits();
        assert!(armed.elapsed() < bound, "{parked} of {want} waits parked");
        std::thread::yield_now();
    }
    drop(fresh);
    while engine.parked_waits() != 0 {
        assert!(
            armed.elapsed() < 2 * bound,
            "closed connections kept their waits"
        );
        std::thread::yield_now();
    }
}

/// A blocking verb is the pipelined call at depth 1, so it can run
/// while a parked wait is outstanding on the same connection: it gets
/// its own response, and the wait's response — whichever side of the
/// blocking calls it arrives on — stays retrievable by tag.
#[test]
fn blocking_verbs_interleave_with_a_parked_wait() {
    let root = temp_root("interleave");
    let daemon = UrdDaemon::spawn({
        let mut cfg = DaemonConfig::in_dir(root.join("sockets"));
        cfg.engine.workers = 1;
        cfg
    })
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    let write = |path: &str, len: usize| {
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::MemoryRegion {
                addr: 0,
                size: len as u64,
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: path.into(),
            }),
        )
    };
    // Occupy the single worker so the victim's wait parks.
    let blocker = ctl
        .submit(1, write("big", 8 << 20), Some(&vec![1u8; 8 << 20]))
        .unwrap();
    let victim = ctl.submit(1, write("small", 3), Some(b"abc")).unwrap();
    let wait_tag = ctl.issue_wait(victim, 0).unwrap();
    assert_eq!(ctl.in_flight(), 1);

    ctl.ping().unwrap();
    assert!(ctl.status().unwrap().accepting);
    assert_eq!(ctl.query(victim).unwrap().bytes_total, 3);
    assert_eq!(ctl.wait(blocker, 0).unwrap().state, TaskState::Finished);

    let stats = norns_ipc::client::expect_stats(ctl.wait_for(wait_tag).unwrap()).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(ctl.in_flight(), 0);
    // The tag is spent: asking again is an error, not a hang.
    assert!(ctl.wait_for(wait_tag).is_err());
}

/// v5's batch wait is retired on the wire: a raw v8 frame carrying a
/// `WaitAny` (control discriminant 15) for a finished task is refused
/// with `BadArgs` under its own tag, not answered as a completion, and
/// the connection keeps serving the `Ping` pipelined behind it.
#[test]
fn a_retired_wait_any_frame_is_refused_and_the_connection_keeps_serving() {
    let (daemon, root) = start("retired-wait-any");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    let spec = TaskSpec::new(
        TaskOp::Copy,
        ResourceDesc::MemoryRegion { addr: 0, size: 3 },
        Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: "done".into(),
        }),
    );
    let task = ctl.submit(1, spec, Some(b"abc")).unwrap();
    assert_eq!(ctl.wait(task, 0).unwrap().state, TaskState::Finished);

    // Tag 7, then the v5 layout — discriminant 15, a one-id set, a
    // zero timeout — written by hand: no type encodes it any more.
    let mut retired = BytesMut::new();
    for v in [7, 15, 1, task, 0] {
        norns_proto::wire::put_varint(&mut retired, v);
    }
    let ping = CtlRequest::SendCommand(DaemonCommand::Ping);
    let mut burst = encode_frame(&retired).to_vec();
    burst.extend_from_slice(&encode_frame(&encode_tagged(8, &ping)));
    let mut stream = UnixStream::connect(&daemon.control_path).unwrap();
    stream.write_all(&burst).unwrap();
    let mut reader = FrameReader::new();
    let mut answers = Vec::new();
    while answers.len() < 2 {
        match reader.next_frame().unwrap() {
            Some(frame) => answers.push(decode_tagged::<Response>(frame).unwrap()),
            None => assert!(reader.read_from(&mut stream).unwrap() > 0, "daemon hung up"),
        }
    }
    assert!(
        matches!(
            answers[0],
            (
                7,
                Response::Error {
                    code: ErrorCode::BadArgs,
                    ..
                }
            )
        ),
        "{answers:?}"
    );
    assert_eq!(answers[1], (8, Response::Ok));
}

/// A high-priority stage-in submitted *after* a burst of low-priority
/// transfers must complete first under the weighted-priority policy —
/// the classic priority-inversion scenario the shared arbitration
/// layer exists to solve.
#[test]
fn priority_inversion_resolved_by_weighted_policy() {
    let root = temp_root("prio-inversion");
    // One worker: a single blocker keeps it busy, so the backlog is
    // genuinely arbitrated and the test cannot race a fast blocker.
    let daemon = UrdDaemon::spawn({
        let mut cfg = DaemonConfig::in_dir(root.join("sockets"))
            .with_policy(norns_ipc::PolicyKind::WeightedPriority);
        cfg.engine.workers = 1;
        cfg
    })
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);

    let mem_spec = |path: String, size: u64, prio: u8| TaskSpec {
        op: TaskOp::Copy,
        priority: prio,
        input: ResourceDesc::MemoryRegion { addr: 0, size },
        output: Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path,
        }),
        durability: Durability::LocalOnly,
    };

    // Occupy the single worker with a large path→path blocker (64 MiB
    // travels no wire and far outlasts the 13 submission round-trips,
    // so the backlog below is fully formed while it runs)...
    std::fs::write(root.join("tmp0/blocker-src"), vec![0x5au8; 64 << 20]).unwrap();
    let blockers = vec![ctl
        .submit(
            1,
            TaskSpec {
                op: TaskOp::Copy,
                priority: 50,
                input: ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "blocker-src".into(),
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "blocker-dst".into(),
                }),
                durability: Durability::LocalOnly,
            },
            None,
        )
        .unwrap()];
    // ...then a burst of low-priority transfers...
    let small = b"small transfer payload".to_vec();
    let mut low = Vec::new();
    for i in 0..12 {
        low.push(
            ctl.submit(
                1,
                mem_spec(format!("low{i}"), small.len() as u64, 10),
                Some(&small),
            )
            .unwrap(),
        );
    }
    // ...and finally one high-priority stage-in, submitted last.
    let high = ctl
        .submit(
            1,
            mem_spec("high".into(), small.len() as u64, 250),
            Some(&small),
        )
        .unwrap();

    let high_stats = ctl.wait(high, 0).unwrap();
    assert_eq!(high_stats.state, TaskState::Finished);
    for id in blockers.into_iter().chain(low.clone()) {
        let stats = ctl.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
    }
    // The high-priority task must not have waited longer than any of
    // the earlier-submitted low-priority ones.
    for id in low {
        let stats = ctl.query(id).unwrap();
        assert!(
            high_stats.wait_usec <= stats.wait_usec,
            "priority inversion: high waited {}µs, low task {} only {}µs",
            high_stats.wait_usec,
            id,
            stats.wait_usec
        );
    }
}

/// CancelTask over the wire: a queued task is dropped and reports
/// `Cancelled`; unknown ids produce a clean remote error.
#[test]
fn cancel_task_over_sockets() {
    let root = temp_root("cancel-wire");
    let daemon = UrdDaemon::spawn({
        let mut cfg = DaemonConfig::in_dir(root.join("sockets"));
        cfg.engine.workers = 1;
        cfg
    })
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);

    // Occupy the single worker, then queue a victim.
    let payload = vec![1u8; 8 << 20];
    let blocker = ctl
        .submit(
            1,
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::MemoryRegion {
                    addr: 0,
                    size: payload.len() as u64,
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "big".into(),
                }),
                durability: Durability::LocalOnly,
            },
            Some(&payload),
        )
        .unwrap();
    let victim = ctl
        .submit(
            1,
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::MemoryRegion { addr: 0, size: 3 },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "victim".into(),
                }),
                durability: Durability::LocalOnly,
            },
            Some(b"abc"),
        )
        .unwrap();
    match ctl.cancel(victim) {
        Ok(()) => {
            let stats = ctl.wait(victim, 0).unwrap();
            assert_eq!(stats.state, TaskState::Cancelled);
            assert!(
                !root.join("tmp0/victim").exists(),
                "cancelled task must not run"
            );
        }
        // Tiny race: the worker may already have finished the blocker
        // and grabbed the victim. Then cancel correctly refuses.
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::TaskError);
        }
        Err(other) => panic!("unexpected cancel failure: {other}"),
    }
    ctl.wait(blocker, 0).unwrap();
    // Unknown task id.
    match ctl.cancel(999_999) {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound)
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }
    // User socket speaks CancelTask too.
    let mut user = UserClient::with_pid(&daemon.user_path, 4242).unwrap();
    match user.cancel(999_999) {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound)
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }
}

/// Admission control over the wire: once the bounded queue is full the
/// daemon answers `Busy` instead of buffering without limit.
#[test]
fn bounded_queue_reports_busy_over_sockets() {
    let root = temp_root("busy-wire");
    let daemon = UrdDaemon::spawn({
        let mut cfg = DaemonConfig::in_dir(root.join("sockets"));
        cfg.engine.workers = 1;
        cfg.engine.queue_capacity = 2;
        cfg
    })
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    // Pin the single worker on a long path→path copy so the flood
    // backs up behind the 2-deep queue. The flood's first three
    // submissions must land before the copy ends: at 64 MiB a mapped
    // ext4 copy (~16 ms) often ended first.
    std::fs::write(root.join("tmp0/blocker-src"), vec![0x77u8; 256 << 20]).unwrap();
    let blocker = ctl
        .submit(
            1,
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "blocker-src".into(),
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "blocker-dst".into(),
                }),
                durability: Durability::LocalOnly,
            },
            None,
        )
        .unwrap();
    let payload = vec![0xffu8; 4 << 20];
    let mut accepted = Vec::new();
    let mut busy = 0;
    for i in 0..16 {
        let res = ctl.submit(
            1,
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::MemoryRegion {
                    addr: 0,
                    size: payload.len() as u64,
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: format!("f{i}"),
                }),
                durability: Durability::LocalOnly,
            },
            Some(&payload),
        );
        match res {
            Ok(id) => accepted.push(id),
            Err(norns_ipc::ClientError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::Busy);
                busy += 1;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(
        busy > 0,
        "16 instant 4 MiB submissions must overflow capacity 2"
    );
    ctl.wait(blocker, 0).unwrap();
    for id in accepted {
        let stats = ctl.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The wire-level Shutdown command must actually stop the daemon:
/// workers joined, backlog cancelled, later submissions refused.
#[test]
fn wire_shutdown_stops_the_daemon() {
    let (daemon, root) = start("wire-shutdown");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    ctl.send_command(DaemonCommand::Shutdown).unwrap();
    // The engine refuses new work once the worker pool is stopped.
    let err = ctl.submit(
        0,
        TaskSpec {
            op: TaskOp::Remove,
            priority: DEFAULT_PRIORITY,
            input: ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "x".into(),
            },
            output: None,
            durability: Durability::LocalOnly,
        },
        None,
    );
    match err {
        // The engine may answer one last request with SystemError, or
        // the connection handler may already have closed the stream.
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::SystemError)
        }
        Err(norns_ipc::ClientError::Io(_)) | Err(norns_ipc::ClientError::Protocol(_)) => {}
        Ok(id) => panic!("submission accepted after shutdown: task {id}"),
    }
    // New connections are never served again.
    if let Ok(mut fresh) = CtlClient::connect(&daemon.control_path) {
        assert!(
            fresh.ping().is_err(),
            "daemon served a new client after shutdown"
        );
    }
}

/// A `PosixPath` with an absolute path must not escape the dataspace:
/// `mount.join("/abs")` *replaces* the mount, so without the RootDir
/// check any client could read or write any file the daemon can.
#[test]
fn absolute_paths_cannot_escape_the_dataspace() {
    let (daemon, root) = start("abs-escape");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    // A secret outside the mount that must stay unreadable, and a
    // target path that must stay unwritten.
    let secret = root.join("outside-secret.dat");
    std::fs::write(&secret, b"never staged").unwrap();
    let abs_target = root.join("outside-written.dat");
    let spec = |input: ResourceDesc, output: Option<ResourceDesc>| TaskSpec {
        op: TaskOp::Copy,
        priority: DEFAULT_PRIORITY,
        input,
        output,
        durability: Durability::LocalOnly,
    };
    let expect_denied = |r: Result<u64, norns_ipc::ClientError>, what: &str| match r {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::PermissionDenied, "{what}")
        }
        other => panic!("{what}: expected PermissionDenied, got {other:?}"),
    };
    // Absolute input: reading a file outside the mount.
    expect_denied(
        ctl.submit(
            0,
            spec(
                ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: secret.to_string_lossy().into_owned(),
                },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "stolen".into(),
                }),
            ),
            None,
        ),
        "absolute input path",
    );
    // Absolute output: writing a file outside the mount.
    std::fs::write(root.join("tmp0/in.dat"), b"data").unwrap();
    expect_denied(
        ctl.submit(
            0,
            spec(
                ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "in.dat".into(),
                },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: abs_target.to_string_lossy().into_owned(),
                }),
            ),
            None,
        ),
        "absolute output path",
    );
    // Memory payload to an absolute path (the write primitive).
    expect_denied(
        ctl.submit(
            0,
            spec(
                ResourceDesc::MemoryRegion { addr: 0, size: 4 },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: abs_target.to_string_lossy().into_owned(),
                }),
            ),
            Some(b"pwnd"),
        ),
        "memory to absolute path",
    );
    // Absolute remove.
    expect_denied(
        ctl.submit(
            0,
            TaskSpec {
                op: TaskOp::Remove,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: secret.to_string_lossy().into_owned(),
                },
                output: None,
                durability: Durability::LocalOnly,
            },
            None,
        ),
        "absolute remove",
    );
    assert_eq!(std::fs::read(&secret).unwrap(), b"never staged");
    assert!(!abs_target.exists(), "no file may appear outside the mount");
    assert!(
        !root.join("tmp0/stolen").exists(),
        "no out-of-mount content may be staged in"
    );
}

/// `shutdown` must unblock and join reader threads parked in `read()`
/// on idle client connections — they must not linger until the client
/// hangs up.
#[test]
fn shutdown_joins_reader_threads_despite_idle_clients() {
    let (daemon, root) = start("idle-shutdown");
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    // Idle connections whose reader threads are parked in read():
    // two control clients (one of which has traffic behind it) and a
    // user client that never sent a byte.
    let _idle_ctl = CtlClient::connect(&daemon.control_path).unwrap();
    let _idle_user = UserClient::connect(&daemon.user_path).unwrap();
    ctl.ping().unwrap();
    let started = std::time::Instant::now();
    daemon.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "shutdown must join idle connection threads promptly, took {elapsed:?}"
    );
    // The still-open idle connections are dead, not half-alive.
    let mut idle = _idle_ctl;
    assert!(idle.ping().is_err(), "connections are closed at shutdown");
}

/// User-socket wait/query are scoped to the submitter, exactly like
/// cancel: one job cannot observe another's transfers.
#[test]
fn user_wait_and_query_require_ownership() {
    let root = temp_root("observe-owner");
    let daemon = UrdDaemon::spawn({
        let mut cfg = DaemonConfig::in_dir(root.join("sockets"));
        cfg.engine.workers = 1;
        cfg
    })
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    ctl.register_job(JobDesc {
        job_id: 7,
        hosts: vec!["localhost".into()],
        limits: vec![],
    })
    .unwrap();
    ctl.add_process(7, 111, 1000, 1000).unwrap();
    ctl.add_process(7, 222, 1000, 1000).unwrap();
    let mut owner = UserClient::with_pid(&daemon.user_path, 111).unwrap();
    let mut other = UserClient::with_pid(&daemon.user_path, 222).unwrap();
    let task = owner
        .submit(
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::MemoryRegion { addr: 0, size: 4 },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "mine".into(),
                }),
                durability: Durability::LocalOnly,
            },
            Some(b"mine"),
        )
        .unwrap();
    // A foreign process can neither query nor wait on it — and the
    // denial is immediate, not a blocked wait.
    match other.query(task) {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::PermissionDenied)
        }
        r => panic!("foreign query must be denied, got {r:?}"),
    }
    match other.wait(task, 0) {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::PermissionDenied)
        }
        r => panic!("foreign wait must be denied, got {r:?}"),
    }
    // The owner observes normally; the administrative control API is
    // unscoped.
    let stats = owner.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert!(owner.query(task).is_ok());
    assert!(ctl.query(task).is_ok());
}

/// The control socket is 0600 and the user socket 0666 — and they are
/// bound via a 0700 staging directory, so neither ever existed with
/// umask-default permissions at its public path.
#[test]
fn socket_files_carry_split_permissions() {
    use std::os::unix::fs::PermissionsExt;
    let (daemon, _root) = start("sock-perms");
    let mode = |p: &Path| std::fs::metadata(p).unwrap().permissions().mode() & 0o777;
    assert_eq!(mode(&daemon.control_path), 0o600, "control socket");
    assert_eq!(mode(&daemon.user_path), 0o666, "user socket");
    // The staging directory is gone once the daemon is up.
    let dir = daemon.control_path.parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".urd-staging"))
        .collect();
    assert!(leftovers.is_empty(), "staging dir must be cleaned up");
}

/// User-socket cancels are only honored for the caller's own tasks.
#[test]
fn user_cancel_requires_ownership() {
    let root = temp_root("cancel-owner");
    let daemon = UrdDaemon::spawn({
        let mut cfg = DaemonConfig::in_dir(root.join("sockets"));
        cfg.engine.workers = 1;
        cfg
    })
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    setup_dataspace(&mut ctl, &root);
    // Keep the worker busy so the next submissions stay pending.
    let payload = vec![9u8; 8 << 20];
    let blocker = ctl
        .submit(
            1,
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::MemoryRegion {
                    addr: 0,
                    size: payload.len() as u64,
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "big".into(),
                }),
                durability: Durability::LocalOnly,
            },
            Some(&payload),
        )
        .unwrap();
    ctl.register_job(JobDesc {
        job_id: 7,
        hosts: vec!["localhost".into()],
        limits: vec![],
    })
    .unwrap();
    ctl.add_process(7, 111, 1000, 1000).unwrap();
    ctl.add_process(7, 222, 1000, 1000).unwrap();
    let mut owner = UserClient::with_pid(&daemon.user_path, 111).unwrap();
    let mut other = UserClient::with_pid(&daemon.user_path, 222).unwrap();
    let task = owner
        .submit(
            TaskSpec {
                op: TaskOp::Copy,
                priority: DEFAULT_PRIORITY,
                input: ResourceDesc::MemoryRegion { addr: 0, size: 2 },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "mine".into(),
                }),
                durability: Durability::LocalOnly,
            },
            Some(b"ok"),
        )
        .unwrap();
    // A foreign process may not cancel it...
    match other.cancel(task) {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::PermissionDenied)
        }
        other => panic!("expected PermissionDenied, got {other:?}"),
    }
    // ...but the owner may (unless the worker already grabbed it).
    match owner.cancel(task) {
        Ok(()) => assert_eq!(owner.wait(task, 0).unwrap().state, TaskState::Cancelled),
        Err(norns_ipc::ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::TaskError),
        other => panic!("unexpected: {other:?}"),
    }
    ctl.wait(blocker, 0).unwrap();
}
