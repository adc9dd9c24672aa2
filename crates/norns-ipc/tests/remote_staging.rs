//! Remote staging over the TCP data plane: two real daemons on one
//! host move files between their dataspaces in both directions
//! (`RemotePath` pull and push), with live progress, mid-stream
//! cancel, and proper failures for unknown/unreachable peers and
//! escaping remote paths.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon, MIN_CHUNK_SIZE};
use norns_proto::{
    encode_frame, BackendKind, DataRequest, DataResponse, DataspaceDesc, ErrorCode, FrameReader,
    ResourceDesc, TaskOp, TaskSpec, TaskState, Wire, MAX_DATA_RANGE,
};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norns-remote-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Position-dependent payload: any chunk-offset bug corrupts it.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 211 + 23) % 251) as u8).collect()
}

/// One daemon of a two-node testbed: its own socket dir, one dataspace
/// (`nsid`) backed by `<root>/<name>/ds`, and a loopback data plane.
fn start_node(
    root: &std::path::Path,
    name: &str,
    config: DaemonConfig,
) -> (UrdDaemon, CtlClient, PathBuf) {
    let daemon = UrdDaemon::spawn(config.with_data_addr("127.0.0.1:0")).unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    let mount = root.join(name).join("ds");
    ctl.register_dataspace(DataspaceDesc {
        nsid: format!("{name}-ds"),
        kind: BackendKind::Tmpfs,
        mount: mount.to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    (daemon, ctl, mount)
}

/// Two daemons that know each other as peers `nodea` / `nodeb`.
#[allow(clippy::type_complexity)]
fn two_nodes(
    tag: &str,
    config_a: DaemonConfig,
    config_b: DaemonConfig,
) -> (
    PathBuf,
    (UrdDaemon, CtlClient, PathBuf),
    (UrdDaemon, CtlClient, PathBuf),
) {
    let root = temp_root(tag);
    let mut a = start_node(&root, "nodea", config_a);
    let mut b = start_node(&root, "nodeb", config_b);
    let addr_a = a.0.data_addr().unwrap().to_string();
    let addr_b = b.0.data_addr().unwrap().to_string();
    a.1.register_peer("nodeb", &addr_b).unwrap();
    b.1.register_peer("nodea", &addr_a).unwrap();
    (root, a, b)
}

fn remote(host: &str, nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::RemotePath {
        host: host.into(),
        nsid: nsid.into(),
        path: path.into(),
    }
}

fn local(nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::PosixPath {
        nsid: nsid.into(),
        path: path.into(),
    }
}

#[test]
fn push_and_pull_a_multichunk_file_between_two_daemons() {
    let chunk = MIN_CHUNK_SIZE; // 64 KiB → 13 chunk sub-units
    let cfg = |dir: PathBuf| DaemonConfig::in_dir(dir).with_chunk_size(chunk);
    let root = temp_root("roundtrip");
    let (daemon_a, mut ctl_a, mount_a) =
        start_node(&root, "nodea", cfg(root.join("nodea/sockets")));
    let (daemon_b, mut ctl_b, mount_b) =
        start_node(&root, "nodeb", cfg(root.join("nodeb/sockets")));
    ctl_a
        .register_peer("nodeb", &daemon_b.data_addr().unwrap().to_string())
        .unwrap();
    ctl_b
        .register_peer("nodea", &daemon_a.data_addr().unwrap().to_string())
        .unwrap();
    // Both daemons advertise their data plane in status.
    assert_eq!(
        ctl_a.status().unwrap().data_addr,
        daemon_a.data_addr().unwrap().to_string()
    );

    let data = pattern((chunk * 12) as usize + 4097);
    std::fs::write(mount_a.join("input.dat"), &data).unwrap();

    // Push: A's dataspace → B's dataspace, submitted on A.
    let push_spec = || {
        TaskSpec::new(
            TaskOp::Copy,
            local("nodea-ds", "input.dat"),
            Some(remote("nodeb", "nodeb-ds", "staged/input.dat")),
        )
    };
    let push = ctl_a.submit(1, push_spec(), None).unwrap();
    // Live progress is monotone while the push runs.
    let mut samples = Vec::new();
    loop {
        let stats = ctl_a.query(push).unwrap_or_else(|e| panic!("query: {e}"));
        samples.push(stats.bytes_moved);
        if stats.state.is_terminal() {
            break;
        }
        std::thread::yield_now();
    }
    assert!(
        samples.windows(2).all(|w| w[0] <= w[1]),
        "bytes_moved must be monotone: {samples:?}"
    );
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(stats.bytes_total, data.len() as u64);
    assert_eq!(
        std::fs::read(mount_b.join("staged/input.dat")).unwrap(),
        data,
        "pushed bytes must arrive intact"
    );

    // Pull: B's dataspace → A's dataspace, submitted on A.
    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "staged/input.dat"),
                Some(local("nodea-ds", "out/roundtrip.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(
        stats.bytes_total,
        data.len() as u64,
        "pull learns the remote size from the probe"
    );
    assert_eq!(
        std::fs::read(mount_a.join("out/roundtrip.dat")).unwrap(),
        data,
        "pulled bytes must round-trip intact"
    );

    // An empty file stages cleanly in both directions too.
    std::fs::write(mount_a.join("empty.dat"), b"").unwrap();
    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "empty.dat"),
                Some(remote("nodeb", "nodeb-ds", "empty.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, 0);
    assert_eq!(std::fs::read(mount_b.join("empty.dat")).unwrap(), b"");
}

#[test]
fn cancel_interrupts_a_remote_pull_mid_stream() {
    // One worker and 64 KiB chunks: a 32 MiB pull is 512 sequential
    // units, each a scheduler dispatch + framed round-trip — plenty
    // of runway to land a cancel while the transfer is in progress.
    let mut cfg_a =
        DaemonConfig::in_dir(temp_root("cancel-a").join("sockets")).with_chunk_size(MIN_CHUNK_SIZE);
    cfg_a.engine.workers = 1;
    let cfg_b = DaemonConfig::in_dir(temp_root("cancel-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("cancel", cfg_a, cfg_b);
    let size = (MIN_CHUNK_SIZE * 512) as usize;
    std::fs::write(mount_b.join("big.dat"), pattern(size)).unwrap();

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "big.dat"),
                Some(local("nodea-ds", "staged/big.dat")),
            ),
            None,
        )
        .unwrap();
    // Wait for real mid-stream progress, then cancel.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = ctl_a.query(pull).unwrap();
        if stats.state == TaskState::InProgress && stats.bytes_moved > 0 {
            break;
        }
        assert!(
            !stats.state.is_terminal(),
            "512-unit transfer finished in {:?} before a cancel could land",
            stats.state
        );
        assert!(Instant::now() < deadline, "transfer never started moving");
        std::thread::yield_now();
    }
    ctl_a
        .cancel(pull)
        .expect("mid-stream cancel must be accepted");
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Cancelled);
    assert!(
        stats.bytes_moved < size as u64,
        "cancel must interrupt before completion ({} of {size} moved)",
        stats.bytes_moved
    );
    assert!(
        !mount_a.join("staged/big.dat").exists(),
        "a cancelled pull must not leave the preallocated destination"
    );
    assert_eq!(ctl_a.status().unwrap().cancelled_tasks, 1);
}

#[test]
fn window_one_reproduces_stop_and_wait() {
    // The pipelined path with a window of 1 must behave exactly like
    // the old stop-and-wait loop: one range in flight, same stepping,
    // same results.
    let cfg = |tag: &str| {
        DaemonConfig::in_dir(temp_root(tag).join("sockets"))
            .with_chunk_size(MIN_CHUNK_SIZE)
            .with_remote_window(1)
    };
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("win1", cfg("win1-a"), cfg("win1-b"));
    let data = pattern((MIN_CHUNK_SIZE * 7) as usize + 333);
    std::fs::write(mount_a.join("src.dat"), &data).unwrap();

    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("nodeb", "nodeb-ds", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(std::fs::read(mount_b.join("dst.dat")).unwrap(), data);

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "dst.dat"),
                Some(local("nodea-ds", "back.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(std::fs::read(mount_a.join("back.dat")).unwrap(), data);
}

#[test]
fn wide_window_preserves_patterned_content_integrity() {
    // A 4 MiB chunk with a window of 16 subdivides into many in-flight
    // ranges per chunk; the position-dependent pattern catches any
    // range that lands at the wrong offset. (The buffered push
    // fallback has its own unit test in `engine/remote.rs`.)
    let chunk = 4 << 20;
    let cfg = |tag: &str| {
        DaemonConfig::in_dir(temp_root(tag).join("sockets"))
            .with_chunk_size(chunk)
            .with_remote_window(16)
    };
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("wide", cfg("wide-a"), cfg("wide-b"));
    // 3 chunks plus a ragged tail, so full windows and partial final
    // ranges both occur.
    let data = pattern((chunk * 3) as usize + 70_001);
    std::fs::write(mount_a.join("src.dat"), &data).unwrap();

    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("nodeb", "nodeb-ds", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(
        std::fs::read(mount_b.join("dst.dat")).unwrap(),
        data,
        "windowed push must place every range at its absolute offset"
    );

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "dst.dat"),
                Some(local("nodea-ds", "back.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(
        std::fs::read(mount_a.join("back.dat")).unwrap(),
        data,
        "windowed pull must place every range at its absolute offset"
    );
}

#[test]
fn cancel_interrupts_a_pull_with_a_full_window_in_flight() {
    // 4 MiB chunks with a window of 8 keep eight 512 KiB ranges in
    // flight per chunk; one worker and a 128 MiB transfer leave ample
    // runway to land a cancel while a window is outstanding. The
    // cancel must drain cleanly: task Cancelled, destination removed.
    let chunk: u64 = 4 << 20;
    let mut cfg_a = DaemonConfig::in_dir(temp_root("wincancel-a").join("sockets"))
        .with_chunk_size(chunk)
        .with_remote_window(8);
    cfg_a.engine.workers = 1;
    let cfg_b = DaemonConfig::in_dir(temp_root("wincancel-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("wincancel", cfg_a, cfg_b);
    let size = (chunk * 32) as usize;
    std::fs::write(mount_b.join("big.dat"), pattern(size)).unwrap();

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "big.dat"),
                Some(local("nodea-ds", "staged/big.dat")),
            ),
            None,
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = ctl_a.query(pull).unwrap();
        if stats.state == TaskState::InProgress && stats.bytes_moved > 0 {
            break;
        }
        assert!(
            !stats.state.is_terminal(),
            "32-unit transfer finished in {:?} before a cancel could land",
            stats.state
        );
        assert!(Instant::now() < deadline, "transfer never started moving");
        std::thread::yield_now();
    }
    ctl_a
        .cancel(pull)
        .expect("mid-window cancel must be accepted");
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Cancelled);
    assert!(
        stats.bytes_moved < size as u64,
        "cancel must interrupt before completion ({} of {size} moved)",
        stats.bytes_moved
    );
    assert!(
        !mount_a.join("staged/big.dat").exists(),
        "a cancelled pull must not leave the preallocated destination"
    );
}

#[test]
fn peer_death_mid_window_fails_bounded() {
    // Killing the serving daemon while a window of requests is in
    // flight must fail the task promptly — the drained connection
    // errors, the fresh-connection retry is refused, and the worker
    // moves on. No hang, no partial output left behind.
    let chunk: u64 = 4 << 20;
    let mut cfg_a = DaemonConfig::in_dir(temp_root("windeath-a").join("sockets"))
        .with_chunk_size(chunk)
        .with_remote_window(8);
    cfg_a.engine.workers = 1;
    let cfg_b = DaemonConfig::in_dir(temp_root("windeath-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (daemon_b, ctl_b, mount_b)) =
        two_nodes("windeath", cfg_a, cfg_b);
    let size = (chunk * 32) as usize;
    std::fs::write(mount_b.join("big.dat"), pattern(size)).unwrap();

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "big.dat"),
                Some(local("nodea-ds", "staged/big.dat")),
            ),
            None,
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = ctl_a.query(pull).unwrap();
        if stats.state == TaskState::InProgress && stats.bytes_moved > 0 {
            break;
        }
        assert!(
            !stats.state.is_terminal(),
            "transfer finished in {:?} before the peer could die",
            stats.state
        );
        assert!(Instant::now() < deadline, "transfer never started moving");
        std::thread::yield_now();
    }
    drop(ctl_b);
    daemon_b.shutdown();
    let killed_at = Instant::now();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::SystemError);
    assert!(
        killed_at.elapsed() < Duration::from_secs(60),
        "peer death must fail the task promptly, not hang a window"
    );
    assert!(
        !mount_a.join("staged/big.dat").exists(),
        "a failed pull must not leave the preallocated destination"
    );
}

#[test]
fn unknown_peer_is_rejected_at_submission() {
    let root = temp_root("unknown-peer");
    let (_daemon, mut ctl, _mount) = start_node(
        &root,
        "nodea",
        DaemonConfig::in_dir(root.join("nodea/sockets")),
    );
    let err = ctl.submit(
        1,
        TaskSpec::new(
            TaskOp::Copy,
            remote("ghost", "whatever", "x"),
            Some(local("nodea-ds", "y")),
        ),
        None,
    );
    match err {
        Err(norns_ipc::ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::NotFound);
            assert!(
                message.contains("ghost"),
                "message names the peer: {message}"
            );
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }
}

#[test]
fn unreachable_peer_fails_the_task_instead_of_hanging() {
    let root = temp_root("unreachable");
    let (daemon, mut ctl, mount) = start_node(
        &root,
        "nodea",
        DaemonConfig::in_dir(root.join("nodea/sockets")),
    );
    // A loopback port with nothing listening: connects are refused
    // immediately (no black-hole routing on 127.0.0.1), so the task
    // must fail quickly rather than hang a worker.
    ctl.register_peer("dead", "127.0.0.1:9").unwrap();
    std::fs::write(mount.join("src.dat"), b"payload").unwrap();
    let started = Instant::now();
    let push = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("dead", "their-ds", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::SystemError);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "unreachable peer must fail within the connect timeout"
    );
    let detail = daemon.engine().error_message(push).unwrap();
    assert!(
        detail.contains("127.0.0.1:9"),
        "failure detail names the peer address: {detail}"
    );
}

#[test]
fn serving_daemon_rejects_escaping_remote_paths() {
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) = two_nodes(
        "remote-escape",
        DaemonConfig::in_dir(temp_root("resc-a").join("sockets")),
        DaemonConfig::in_dir(temp_root("resc-b").join("sockets")),
    );
    std::fs::write(mount_a.join("src.dat"), b"payload").unwrap();
    for escape in ["../outside.dat", "/etc/hostname"] {
        // Push to an escaping remote path: the *serving* daemon's
        // containment check rejects the Prepare.
        let push = ctl_a
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    local("nodea-ds", "src.dat"),
                    Some(remote("nodeb", "nodeb-ds", escape)),
                ),
                None,
            )
            .unwrap();
        let stats = ctl_a.wait(push, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError, "push {escape}");
        assert_eq!(stats.error, ErrorCode::PermissionDenied, "push {escape}");
        // Pull from an escaping remote path: the Stat is rejected.
        let pull = ctl_a
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    remote("nodeb", "nodeb-ds", escape),
                    Some(local("nodea-ds", "pulled.dat")),
                ),
                None,
            )
            .unwrap();
        let stats = ctl_a.wait(pull, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError, "pull {escape}");
        assert_eq!(stats.error, ErrorCode::PermissionDenied, "pull {escape}");
    }
    assert!(!mount_b.join("outside.dat").exists());
    assert!(
        !mount_b.parent().unwrap().join("outside.dat").exists(),
        "nothing may be written outside the serving dataspace"
    );
}

#[test]
fn unsupported_remote_combinations_are_rejected() {
    let (_root, (_daemon_a, mut ctl_a, mount_a), _b) = two_nodes(
        "remote-combos",
        DaemonConfig::in_dir(temp_root("combo-a").join("sockets")),
        DaemonConfig::in_dir(temp_root("combo-b").join("sockets")),
    );
    std::fs::write(mount_a.join("src.dat"), b"payload").unwrap();
    let expect_badargs = |r: Result<u64, norns_ipc::ClientError>, what: &str| match r {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::BadArgs, "{what}")
        }
        other => panic!("{what}: expected BadArgs, got {other:?}"),
    };
    // Remote → remote relay.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "a"),
                Some(remote("nodeb", "nodeb-ds", "b")),
            ),
            None,
        ),
        "remote-to-remote",
    );
    // Cross-node move.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(
                TaskOp::Move,
                local("nodea-ds", "src.dat"),
                Some(remote("nodeb", "nodeb-ds", "moved")),
            ),
            None,
        ),
        "remote move",
    );
    // Remote remove.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(TaskOp::Remove, remote("nodeb", "nodeb-ds", "x"), None),
            None,
        ),
        "remote remove",
    );
    // Memory region → remote.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::MemoryRegion { addr: 0, size: 3 },
                Some(remote("nodeb", "nodeb-ds", "mem")),
            ),
            Some(b"abc"),
        ),
        "memory to remote",
    );
}

/// The data-plane server, spoken to in raw `DataRequest` frames the way
/// a peer daemon would: every refusal is an `Error` *response* with a
/// pinned code — the connection stays open and frame-aligned behind
/// each, however much of a refused payload was still on the wire: a
/// `Stat` pipelined behind every request is answered in order — and
/// the two lenient cases (`Discard` of nothing, `Fetch` past EOF) stay
/// lenient.
#[test]
fn data_plane_server_refusals_carry_pinned_codes() {
    let root = temp_root("raw-server");
    let config = DaemonConfig::in_dir(root.join("nodea/sockets"));
    let (daemon, _ctl, mount) = start_node(&root, "nodea", config);
    std::fs::create_dir_all(mount.join("dir")).unwrap();
    std::fs::write(mount.join("file"), b"0123456789").unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.data_addr().unwrap()).unwrap();
    let mut reader = FrameReader::new();
    let ds = || "nodea-ds".to_string();
    let stat = |nsid: &str, path: &str| {
        let (nsid, path) = (nsid.into(), path.into());
        DataRequest::Stat { nsid, path }.to_bytes().to_vec()
    };
    let mut call = |body: &[u8]| {
        let mut both = encode_frame(body).to_vec();
        both.extend_from_slice(&encode_frame(&stat("nodea-ds", "file")));
        stream.write_all(&both).unwrap();
        let mut next = || loop {
            if let Some(mut frame) = reader.next_frame().unwrap() {
                return (DataResponse::decode(&mut frame).unwrap(), frame);
            }
            assert!(reader.read_from(&mut stream).unwrap() > 0, "server hung up");
        };
        let answer = next();
        assert_eq!(
            next().0,
            DataResponse::Stat { size: 10 },
            "the request behind is answered in its own slot"
        );
        answer
    };
    let discard = |path: &str| {
        let (nsid, path) = (ds(), path.into());
        DataRequest::Discard { nsid, path }.to_bytes().to_vec()
    };
    let fetch_of = |path: &str, offset, len| {
        let (nsid, path) = (ds(), path.into());
        let fetch = DataRequest::Fetch {
            nsid,
            path,
            offset,
            len,
        };
        fetch.to_bytes().to_vec()
    };
    let fetch = |offset, len| fetch_of("file", offset, len);
    // A `Store` with `payload` bytes behind it: past a read's worth,
    // most of them are still on the wire when the refusal is decided.
    let store = |nsid: &str, path: &str, payload: usize| {
        let (nsid, path, offset) = (nsid.into(), path.into(), 0);
        let mut body = DataRequest::Store { nsid, path, offset }
            .to_bytes()
            .to_vec();
        body.resize(body.len() + payload, 7);
        body
    };
    for (what, body, want) in [
        (
            "fetch over cap",
            fetch(0, MAX_DATA_RANGE + 1),
            ErrorCode::BadArgs,
        ),
        (
            "store over cap",
            store("nodea-ds", "big", MAX_DATA_RANGE as usize + 1),
            ErrorCode::BadArgs,
        ),
        (
            "store into an unknown dataspace",
            store("nowhere", "big", 2 << 20),
            ErrorCode::NotFound,
        ),
        (
            "store escaping the dataspace",
            store("nodea-ds", "../big", 300 << 10),
            ErrorCode::PermissionDenied,
        ),
        (
            "store onto a directory",
            store("nodea-ds", "dir", (1 << 20) + 17),
            ErrorCode::SystemError,
        ),
        (
            "fetch of a directory",
            fetch_of("dir", 0, 100),
            ErrorCode::SystemError,
        ),
        (
            "stat of a directory",
            stat("nodea-ds", "dir"),
            ErrorCode::BadArgs,
        ),
        (
            "unknown dataspace",
            stat("nowhere", "file"),
            ErrorCode::NotFound,
        ),
        (
            "path escape",
            discard("../escape"),
            ErrorCode::PermissionDenied,
        ),
        ("undecodable request", vec![0xff; 9], ErrorCode::BadArgs),
        (
            "undecodable request, a read's worth and more",
            vec![0xff; 100_000],
            ErrorCode::BadArgs,
        ),
    ] {
        match call(&body).0 {
            DataResponse::Error { code, .. } => assert_eq!(code, want, "{what}"),
            other => panic!("{what}: expected a refusal, got {other:?}"),
        }
    }
    assert_eq!(call(&discard("ghost")).0, DataResponse::Ok);
    for (offset, tail) in [(4, &b"456789"[..]), (64, &b""[..])] {
        let (response, payload) = call(&fetch(offset, 100));
        assert_eq!(response, DataResponse::Data);
        assert_eq!(&payload[..], tail, "fetch at {offset} is cut short at EOF");
    }
    assert!(!mount.join("big").exists(), "a refused store wrote nothing");
    assert!(
        !root.join("nodea/big").exists(),
        "nor outside the dataspace"
    );
}

/// A stand-in peer whose file shrank between a pull's `Stat` and its
/// `Fetch`es: it answers `Stat` with `planned` and cuts every `Fetch`
/// short at `actual`, the way the real server answers a range that
/// crosses end-of-file.
fn peer_whose_source_shrank(planned: u64, actual: u64) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let serve = move |mut stream: std::net::TcpStream| {
        let mut reader = FrameReader::new();
        while reader.read_from(&mut stream).unwrap_or(0) > 0 {
            while let Some(mut frame) = reader.next_frame().unwrap() {
                let body = match DataRequest::decode(&mut frame).unwrap() {
                    DataRequest::Stat { .. } => {
                        DataResponse::Stat { size: planned }.to_bytes().to_vec()
                    }
                    DataRequest::Fetch { offset, len, .. } => {
                        let mut body = DataResponse::Data.to_bytes().to_vec();
                        let served = len.min(actual.saturating_sub(offset));
                        body.resize(body.len() + served as usize, 7);
                        body
                    }
                    other => panic!("a pull sends no {other:?}"),
                };
                if stream.write_all(&encode_frame(&body)).is_err() {
                    return;
                }
            }
        }
    };
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            std::thread::spawn(move || serve(stream.unwrap()));
        }
    });
    addr
}

/// A pull whose size is no multiple of the range step lands its ragged
/// last range; a source that shrank on the peer after the pull was
/// planned answers a range short, which fails the pull and removes its
/// destination. (`server.rs` runs the same against the real server and
/// pins the `truncated at byte N` message `TaskStats` does not carry.)
#[test]
fn pull_lands_a_ragged_tail_and_fails_on_a_source_that_shrank() {
    let cfg_a = DaemonConfig::in_dir(temp_root("ragged-a").join("sockets"));
    let cfg_b = DaemonConfig::in_dir(temp_root("ragged-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("ragged", cfg_a, cfg_b);
    let pull = |ctl: &mut CtlClient, peer: &str, name: &str| {
        let spec = TaskSpec::new(
            TaskOp::Copy,
            remote(peer, "nodeb-ds", name),
            Some(local("nodea-ds", &format!("staged/{name}"))),
        );
        ctl.submit(1, spec, None).unwrap()
    };

    // Default window 8: five 256 KiB ranges and 4 321 bytes behind.
    let data = pattern(5 * (256 << 10) + 4321);
    std::fs::write(mount_b.join("ragged.dat"), &data).unwrap();
    let task = pull(&mut ctl_a, "nodeb", "ragged.dat");
    let stats = ctl_a.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert!(std::fs::read(mount_a.join("staged/ragged.dat")).unwrap() == data);

    // The same size on a peer that lost its last kilobyte since `Stat`.
    let size = data.len() as u64;
    let shrank = peer_whose_source_shrank(size, size - 1000);
    ctl_a.register_peer("shrank", &shrank).unwrap();
    let task = pull(&mut ctl_a, "shrank", "shrinks.dat");
    let stats = ctl_a.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::SystemError);
    assert!(stats.bytes_moved < size);
    assert!(
        !mount_a.join("staged/shrinks.dat").exists(),
        "a failed pull must not leave the preallocated destination"
    );
}
