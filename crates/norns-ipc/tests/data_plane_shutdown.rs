//! Shutdown of the data-plane *server*: after a push A→B, the worker
//! of A that ran it keeps its connection to B cached, and on it one of
//! B's handler threads is parked in `read()`; a second peer has sent B
//! half a `Store` and gone quiet, so another handler is parked in
//! `splice()`, inside the payload. `B.shutdown()` must unblock and join
//! both — within a bound, with the client ends still open — exactly
//! like `daemon_integration`'s
//! `shutdown_joins_reader_threads_despite_idle_clients` demands of the
//! unix sockets.
//!
//! The check counts the process's threads (`storm.rs`'s
//! `proc_threads`), so this file holds one test and nothing else: a
//! second test running beside it would move the count.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon, MIN_CHUNK_SIZE};
use norns_proto::{
    push_frame, BackendKind, DataRequest, DataspaceDesc, ResourceDesc, TaskOp, TaskSpec, TaskState,
};

mod common;
use common::TempRoot;

fn proc_threads() -> usize {
    fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

/// The thread count once it has been at `want` or has stopped moving
/// for a moment: a joined thread leaves `/proc` a beat after `join`
/// returns, a parked one never does.
fn settled_threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = proc_threads();
        if now == want || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn start_node(root: &std::path::Path, name: &str) -> (UrdDaemon, CtlClient) {
    let daemon = UrdDaemon::spawn(
        DaemonConfig::in_dir(root.join(name).join("sockets"))
            .with_chunk_size(MIN_CHUNK_SIZE)
            .with_data_addr("127.0.0.1:0"),
    )
    .unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(DataspaceDesc {
        nsid: format!("{name}-ds"),
        kind: BackendKind::Tmpfs,
        mount: root.join(name).join("ds").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    (daemon, ctl)
}

#[test]
fn shutdown_joins_data_plane_handlers_parked_on_cached_peer_connections() {
    let root = TempRoot::new("data-shutdown");
    fs::create_dir_all(root.join("nodea/ds")).unwrap();
    let baseline = proc_threads();

    let (daemon_a, mut ctl_a) = start_node(&root, "nodea");
    let (daemon_b, ctl_b) = start_node(&root, "nodeb");
    // Each daemon is 2 reactors + 4 workers at the defaults.
    let pools = 2 + 4;
    assert_eq!(proc_threads(), baseline + 2 * pools);
    ctl_a
        .register_peer("nodeb", &daemon_b.data_addr().unwrap().to_string())
        .unwrap();

    // 32 chunks, one at a time: whichever workers of A ran a unit keep
    // the connection they pushed it over cached.
    let data: Vec<u8> = (0..32 * MIN_CHUNK_SIZE as usize)
        .map(|i| (i % 251) as u8)
        .collect();
    fs::write(root.join("nodea/ds/input.dat"), &data).unwrap();
    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::PosixPath {
                    nsid: "nodea-ds".into(),
                    path: "input.dat".into(),
                },
                Some(ResourceDesc::RemotePath {
                    host: "nodeb".into(),
                    nsid: "nodeb-ds".into(),
                    path: "staged.dat".into(),
                }),
            ),
            None,
        )
        .unwrap();
    assert_eq!(ctl_a.wait(push, 0).unwrap().state, TaskState::Finished);
    assert!(fs::read(root.join("nodeb/ds/staged.dat")).unwrap() == data);

    // B's handlers are parked in read() on A's cached connections.
    let handlers = proc_threads() - (baseline + 2 * pools);
    assert!(
        (1..=4).contains(&handlers),
        "one handler per pushing worker of A, found {handlers}"
    );

    // A second peer promises B a megabyte, sends the first 100 KB and
    // goes quiet with the connection open: once those bytes have
    // landed, its handler is parked inside the payload.
    let mut stalled = TcpStream::connect(daemon_b.data_addr().unwrap()).unwrap();
    let store = DataRequest::Store {
        nsid: "nodeb-ds".into(),
        path: "half.dat".into(),
        offset: 0,
    };
    let mut half = BytesMut::new();
    push_frame(&mut half, None, &store, 1 << 20, |_| ());
    half.extend_from_slice(&data[..100_000]);
    stalled.write_all(&half).unwrap();
    let landed = root.join("nodeb/ds/half.dat");
    let deadline = Instant::now() + Duration::from_secs(5);
    while fs::metadata(&landed).map_or(0, |m| m.len()) < 100_000 {
        assert!(Instant::now() < deadline, "the half payload never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(proc_threads(), baseline + 2 * pools + handlers + 1);

    let started = Instant::now();
    daemon_b.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown must not wait for A to hang up, took {elapsed:?}"
    );
    // A — its connections to B still cached — is all that is left:
    // B's reactors, its workers and every one of its handlers are
    // joined, not parked until a peer hangs up.
    assert_eq!(
        settled_threads(baseline + pools),
        baseline + pools,
        "B left threads behind ({handlers} handlers were parked)"
    );
    drop(stalled);
    drop(ctl_b);
    drop(ctl_a);
    drop(daemon_a);
}
