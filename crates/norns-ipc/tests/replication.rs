//! Asynchronous replication with durability modes (wire v8), against
//! live daemons over the real TCP data plane.
//!
//! The cluster convention: every node registers the *same* dataspace
//! name (`ds0`) backed by its own mount — the background replication
//! queue pushes a landed stage-out to the same `nsid://path` on each
//! chosen peer. Each test kills the origin daemon mid-flight and
//! asserts the mode's guarantee:
//!
//! * `synchronous` — the ACK never precedes the copies; once `wait`
//!   returns, every peer holds the bytes, origin loss is harmless.
//! * `local_plus_one` — the ACK is early, but after origin loss a
//!   surviving replica holds the bytes (the shutdown drain finishes
//!   in-flight copies).
//! * `local_only` — documented best-effort: no replication happens.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{
    BackendKind, DataspaceDesc, Durability, ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskState,
};

mod common;
use common::TempRoot;

fn temp_root(tag: &str) -> TempRoot {
    TempRoot::new(&format!("repl-{tag}"))
}

/// Position-dependent payload: any chunk-offset bug corrupts it.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 211 + 23) % 251) as u8).collect()
}

/// One node of the replication testbed: its own socket dir, a loopback
/// data plane, and the cluster-wide dataspace `ds0` backed by
/// `<root>/<name>/ds`.
fn start_node(
    root: &std::path::Path,
    name: &str,
    config: DaemonConfig,
) -> (UrdDaemon, CtlClient, PathBuf) {
    let daemon = UrdDaemon::spawn(config.with_data_addr("127.0.0.1:0")).unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    let mount = root.join(name).join("ds");
    ctl.register_dataspace(DataspaceDesc {
        nsid: "ds0".into(),
        kind: BackendKind::Tmpfs,
        mount: mount.to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    (daemon, ctl, mount)
}

fn stage_out(path: &str, durability: Durability) -> TaskSpec {
    stage_out_as(TaskOp::Copy, path, durability)
}

/// `ds0://src.dat` to `ds0://<path>` as an `op` task under `durability`.
fn stage_out_as(op: TaskOp, path: &str, durability: Durability) -> TaskSpec {
    TaskSpec::new(
        op,
        ResourceDesc::PosixPath {
            nsid: "ds0".into(),
            path: "src.dat".into(),
        },
        Some(ResourceDesc::PosixPath {
            nsid: "ds0".into(),
            path: path.into(),
        }),
    )
    .with_durability(durability)
}

/// `synchronous` never ACKs before every copy lands: the moment `wait`
/// returns `Finished`, both peers hold byte-identical files — killing
/// the origin right then loses nothing.
#[test]
fn synchronous_acks_only_after_all_copies_land() {
    let root = temp_root("sync");
    let (origin, mut ctl, mount) = start_node(
        &root,
        "origin",
        DaemonConfig::in_dir(root.join("origin/sockets")).with_target_copies(2),
    );
    let (_r1, mut ctl_r1, mount_r1) =
        start_node(&root, "r1", DaemonConfig::in_dir(root.join("r1/sockets")));
    let (_r2, mut ctl_r2, mount_r2) =
        start_node(&root, "r2", DaemonConfig::in_dir(root.join("r2/sockets")));
    ctl.register_peer("r1", &_r1.data_addr().unwrap().to_string())
        .unwrap();
    ctl.register_peer("r2", &_r2.data_addr().unwrap().to_string())
        .unwrap();

    let data = pattern(2 << 20);
    std::fs::write(mount.join("src.dat"), &data).unwrap();

    let task = ctl
        .submit(1, stage_out("out/ckpt.dat", Durability::Synchronous), None)
        .unwrap();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    // A durable `Move` — a rename here — replicates its landed output
    // the same way, and frees its source.
    let moved = ctl
        .submit(
            1,
            stage_out_as(TaskOp::Move, "out/moved.dat", Durability::Synchronous),
            None,
        )
        .unwrap();
    let stats = ctl.wait(moved, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert!(!mount.join("src.dat").exists(), "a Move frees its source");
    assert_eq!(std::fs::read(mount.join("out/moved.dat")).unwrap(), data);
    // The ACK *is* the guarantee: no settling time allowed. Kill the
    // origin first, then check the copies it can no longer influence.
    let status = ctl.status().unwrap();
    assert_eq!(status.pending_replicas, 0, "lag must be zero at ACK");
    assert_eq!(status.pending_replica_bytes, 0);
    drop(ctl);
    drop(origin);
    for (mount_r, ctl_r) in [(mount_r1, &mut ctl_r1), (mount_r2, &mut ctl_r2)] {
        for landed in ["out/ckpt.dat", "out/moved.dat"] {
            assert_eq!(
                std::fs::read(mount_r.join(landed)).unwrap(),
                data,
                "synchronous {landed} must already be on every peer when the ACK arrives"
            );
        }
        // The peers wrote through their own data plane; they carry no
        // replication lag of their own.
        assert_eq!(ctl_r.status().unwrap().pending_replicas, 0);
    }
}

/// `synchronous` with nowhere to replicate must fail the task rather
/// than silently downgrade to a local-only ACK.
#[test]
fn synchronous_without_peers_fails_instead_of_false_acking() {
    let root = temp_root("sync-nopeer");
    let (_daemon, mut ctl, mount) = start_node(
        &root,
        "origin",
        DaemonConfig::in_dir(root.join("origin/sockets")),
    );
    std::fs::write(mount.join("src.dat"), pattern(4096)).unwrap();
    let task = ctl
        .submit(1, stage_out("out/lone.dat", Durability::Synchronous), None)
        .unwrap();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::NotFound);
    // The local leg still landed — only the guarantee failed.
    assert!(mount.join("out/lone.dat").exists());
}

/// `synchronous` promises every copy: a peer nothing listens for fails
/// the stage-out, with the replica's failure in the task's message,
/// while the copy to the live peer still lands whole — the parent ends
/// only once every replica has — and the lag gauges are back at zero.
#[test]
fn synchronous_fails_when_one_copy_cannot_land() {
    let root = temp_root("sync-deadpeer");
    let (origin, mut ctl, mount) = start_node(
        &root,
        "origin",
        DaemonConfig::in_dir(root.join("origin/sockets")).with_target_copies(2),
    );
    let (_r1, _ctl_r1, mount_r1) =
        start_node(&root, "r1", DaemonConfig::in_dir(root.join("r1/sockets")));
    ctl.register_peer("r1", &_r1.data_addr().unwrap().to_string())
        .unwrap();
    // A port that was bound and released again: connecting is refused.
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    ctl.register_peer("r2", &closed.to_string()).unwrap();

    let data = pattern(1 << 20);
    std::fs::write(mount.join("src.dat"), &data).unwrap();
    let task = ctl
        .submit(1, stage_out("out/ckpt.dat", Durability::Synchronous), None)
        .unwrap();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    let message = origin.engine().error_message(task).expect("failure detail");
    assert!(
        message.starts_with("replication failed:"),
        "message: {message}"
    );
    assert_eq!(
        std::fs::read(mount_r1.join("out/ckpt.dat")).unwrap(),
        data,
        "the live peer's copy lands before the parent fails"
    );
    let status = ctl.status().unwrap();
    assert_eq!(status.pending_replicas, 0);
    assert_eq!(status.pending_replica_bytes, 0);
}

/// `local_plus_one` ACKs as soon as the local leg lands, then kills
/// the origin while the background copy may still be in flight; the
/// origin's shutdown drain finishes it, so a surviving replica holds
/// the bytes after origin loss.
#[test]
fn local_plus_one_survives_origin_loss() {
    let root = temp_root("plusone");
    let (origin, mut ctl, mount) = start_node(
        &root,
        "origin",
        DaemonConfig::in_dir(root.join("origin/sockets")),
    );
    let (_r1, _ctl_r1, mount_r1) =
        start_node(&root, "r1", DaemonConfig::in_dir(root.join("r1/sockets")));
    ctl.register_peer("r1", &_r1.data_addr().unwrap().to_string())
        .unwrap();

    // Big enough that the background push is typically still in
    // flight when the ACK arrives.
    let data = pattern(24 << 20);
    std::fs::write(mount.join("src.dat"), &data).unwrap();

    let task = ctl
        .submit(1, stage_out("out/ckpt.dat", Durability::LocalPlusOne), None)
        .unwrap();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished, "ACK rides the local leg");
    // Kill the origin immediately — mid-replication in the common
    // case. Drop runs the engine's bounded shutdown drain, which
    // lets the in-flight copy land before the workers die.
    drop(ctl);
    drop(origin);
    assert_eq!(
        std::fs::read(mount_r1.join("out/ckpt.dat")).unwrap(),
        data,
        "a surviving replica must hold the stage-out after origin loss"
    );
}

/// `local_plus_one` replication lag is observable in `DaemonStatus`
/// and quiesces to zero once the copies land.
#[test]
fn replication_lag_counters_quiesce_to_zero() {
    let root = temp_root("lag");
    let (_origin, mut ctl, mount) = start_node(
        &root,
        "origin",
        DaemonConfig::in_dir(root.join("origin/sockets")),
    );
    let (_r1, _ctl_r1, mount_r1) =
        start_node(&root, "r1", DaemonConfig::in_dir(root.join("r1/sockets")));
    ctl.register_peer("r1", &_r1.data_addr().unwrap().to_string())
        .unwrap();

    let data = pattern(1 << 20);
    std::fs::write(mount.join("src.dat"), &data).unwrap();
    let mut tasks = Vec::new();
    for i in 0..8 {
        tasks.push(
            ctl.submit(
                1,
                stage_out(&format!("out/s{i}.dat"), Durability::LocalPlusOne),
                None,
            )
            .unwrap(),
        );
    }
    for task in &tasks {
        assert_eq!(ctl.wait(*task, 0).unwrap().state, TaskState::Finished);
    }
    // Every ACK is in; now the lag must drain to exactly zero.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = ctl.status().unwrap();
        if status.pending_replicas == 0 && status.pending_replica_bytes == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication lag stuck at {} replicas / {} bytes",
            status.pending_replicas,
            status.pending_replica_bytes
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for i in 0..8 {
        assert_eq!(
            std::fs::read(mount_r1.join(format!("out/s{i}.dat"))).unwrap(),
            data
        );
    }
}

/// `local_only` is the documented no-replication mode: peers receive
/// nothing, the lag counters never move, and origin loss loses the
/// only copy (best-effort by contract).
#[test]
fn local_only_does_not_replicate() {
    let root = temp_root("localonly");
    let (origin, mut ctl, mount) = start_node(
        &root,
        "origin",
        DaemonConfig::in_dir(root.join("origin/sockets")),
    );
    let (_r1, _ctl_r1, mount_r1) =
        start_node(&root, "r1", DaemonConfig::in_dir(root.join("r1/sockets")));
    ctl.register_peer("r1", &_r1.data_addr().unwrap().to_string())
        .unwrap();

    std::fs::write(mount.join("src.dat"), pattern(1 << 20)).unwrap();
    let task = ctl
        .submit(1, stage_out("out/ckpt.dat", Durability::LocalOnly), None)
        .unwrap();
    assert_eq!(ctl.wait(task, 0).unwrap().state, TaskState::Finished);
    let status = ctl.status().unwrap();
    assert_eq!(status.pending_replicas, 0);
    assert_eq!(status.pending_replica_bytes, 0);
    drop(ctl);
    drop(origin);
    assert!(
        !mount_r1.join("out/ckpt.dat").exists(),
        "local_only must not replicate"
    );
}

/// Durability modes only make sense for local stage-outs; anything
/// else is a submission error, not a silent downgrade.
#[test]
fn durability_on_non_stage_out_is_rejected() {
    let root = temp_root("badargs");
    let (_daemon, mut ctl, mount) = start_node(
        &root,
        "origin",
        DaemonConfig::in_dir(root.join("origin/sockets")),
    );
    let (_r1, _ctl_r1, _mount_r1) =
        start_node(&root, "r1", DaemonConfig::in_dir(root.join("r1/sockets")));
    ctl.register_peer("r1", &_r1.data_addr().unwrap().to_string())
        .unwrap();
    std::fs::write(mount.join("src.dat"), b"x").unwrap();

    // A cross-node push already names its destination; layering a
    // durability mode on top is ambiguous and rejected.
    let remote_out = TaskSpec::new(
        TaskOp::Copy,
        ResourceDesc::PosixPath {
            nsid: "ds0".into(),
            path: "src.dat".into(),
        },
        Some(ResourceDesc::RemotePath {
            host: "r1".into(),
            nsid: "ds0".into(),
            path: "pushed.dat".into(),
        }),
    )
    .with_durability(Durability::LocalPlusOne);
    match ctl.submit(1, remote_out, None) {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::BadArgs)
        }
        other => panic!("remote-output durability = {other:?}"),
    }

    // A remove has no landed output file to replicate.
    let remove = TaskSpec::new(
        TaskOp::Remove,
        ResourceDesc::PosixPath {
            nsid: "ds0".into(),
            path: "src.dat".into(),
        },
        None,
    )
    .with_durability(Durability::Synchronous);
    match ctl.submit(1, remove, None) {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::BadArgs)
        }
        other => panic!("remove durability = {other:?}"),
    }
}

/// A TCP relay to `upstream` that holds every byte sent towards it
/// until `open` is called; `arrived` yields once per connection it
/// accepted.
struct Gate {
    addr: std::net::SocketAddr,
    arrived: std::sync::mpsc::Receiver<()>,
    open: std::sync::Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
}

impl Gate {
    fn new(upstream: std::net::SocketAddr) -> Gate {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tell, arrived) = std::sync::mpsc::channel();
        let open = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let gate = std::sync::Arc::clone(&open);
        std::thread::spawn(move || {
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                let server = TcpStream::connect(upstream).unwrap();
                let (mut down_from, mut down_to) =
                    (server.try_clone().unwrap(), client.try_clone().unwrap());
                std::thread::spawn(move || std::io::copy(&mut down_from, &mut down_to));
                let (mut up_from, mut up_to) = (client, server);
                let gate = std::sync::Arc::clone(&gate);
                let _ = tell.send(());
                std::thread::spawn(move || {
                    let (lock, cv) = &*gate;
                    let _open = cv.wait_while(lock.lock().unwrap(), |open| !*open).unwrap();
                    let _ = std::io::copy(&mut up_from, &mut up_to);
                    let _ = up_to.shutdown(std::net::Shutdown::Write);
                });
            }
        });
        Gate {
            addr,
            arrived,
            open,
        }
    }

    fn open(&self) {
        let (lock, cv) = &*self.open;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
}

/// A peer that accepts a replica's connection and never answers holds
/// no daemon's teardown past the replication drain (2 s): when the
/// drain's window closes, the replica still waiting on the peer is cut
/// off it and ends, so teardown returns within a second of the window
/// instead of sitting out the data plane's 30 s read timeout.
#[test]
fn teardown_is_bounded_when_a_replica_peer_never_answers() {
    let root = temp_root("silent");
    let config = DaemonConfig::in_dir(root.join("origin/sockets"));
    let (origin, mut ctl, mount) = start_node(&root, "origin", config);
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap().to_string();
    ctl.register_peer("silent", &addr).unwrap();
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = silent.accept() {
            let _ = held_tx.send(stream);
        }
    });

    std::fs::write(mount.join("src.dat"), pattern(64 << 10)).unwrap();
    let task = ctl
        .submit(
            1,
            stage_out("out/silent.dat", Durability::LocalPlusOne),
            None,
        )
        .unwrap();
    assert_eq!(ctl.wait(task, 0).unwrap().state, TaskState::Finished);
    let held = held_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the replica connects to the silent peer");
    assert_eq!(ctl.status().unwrap().pending_replicas, 1);

    drop(ctl);
    let started = Instant::now();
    origin.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "teardown took {took:?}");
    let status = origin.engine().status();
    assert_eq!(status.pending_replicas, 0, "the cut replica ended");
    assert_eq!(status.running_tasks, 0);
    drop((held, origin));
}

/// The same bound for a client's own push: a peer that accepts the
/// connection and never answers holds the push in its `Prepare` read,
/// and shutdown gives the running dispatch the drain window, then cuts
/// it off the peer, so the push ends `FinishedWithError` and teardown
/// returns within a second of the window.
#[test]
fn teardown_is_bounded_when_a_push_peer_never_answers() {
    let root = temp_root("silent-push");
    let config = DaemonConfig::in_dir(root.join("origin/sockets"));
    let (origin, mut ctl, mount) = start_node(&root, "origin", config);
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap().to_string();
    ctl.register_peer("silent", &addr).unwrap();
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = silent.accept() {
            let _ = held_tx.send(stream);
        }
    });

    std::fs::write(mount.join("src.dat"), pattern(64 << 10)).unwrap();
    let push = TaskSpec::copy(
        ResourceDesc::posix("ds0", "src.dat"),
        ResourceDesc::remote("silent", "ds0", "out/pushed.dat"),
    );
    let task = ctl.submit(1, push, None).unwrap();
    let held = held_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the push connects to the silent peer");
    assert_eq!(ctl.query(task).unwrap().state, TaskState::InProgress);

    drop(ctl);
    let started = Instant::now();
    origin.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "teardown took {took:?}");
    let stats = origin.engine().query(task).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(origin.engine().status().running_tasks, 0);
    drop((held, origin));
}

/// The bound costs a healthy push nothing: one in flight at shutdown
/// ends at its unit boundary, and its cleanup still reaches the peer,
/// so the peer holds either the whole file or none of it.
#[test]
fn a_healthy_push_in_flight_at_shutdown_leaves_no_partial_file() {
    const SIZE: usize = 64 << 20;
    let root = temp_root("shutdown-push");
    let chunk = norns_ipc::MIN_CHUNK_SIZE;
    let config = DaemonConfig::in_dir(root.join("origin/sockets")).with_chunk_size(chunk);
    let (origin, mut ctl, mount) = start_node(&root, "origin", config);
    let config = DaemonConfig::in_dir(root.join("peer/sockets"));
    let (peer, _peer_ctl, peer_mount) = start_node(&root, "peer", config);
    let peer_addr = peer.data_addr().unwrap().to_string();
    ctl.register_peer("peer", &peer_addr).unwrap();

    let bytes = pattern(SIZE);
    std::fs::write(mount.join("src.dat"), &bytes).unwrap();
    let push = TaskSpec::copy(
        ResourceDesc::posix("ds0", "src.dat"),
        ResourceDesc::remote("peer", "ds0", "pushed.dat"),
    );
    let task = ctl.submit(1, push, None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while ctl.query(task).unwrap().bytes_moved == 0 {
        assert!(Instant::now() < deadline, "the push never started moving");
        std::thread::sleep(Duration::from_micros(200));
    }

    drop(ctl);
    origin.shutdown();
    let state = origin.engine().query(task).unwrap().state;
    let landed = std::fs::read(peer_mount.join("pushed.dat")).ok();
    match state {
        TaskState::Finished => assert!(landed.as_deref() == Some(&bytes[..]), "a torn copy"),
        TaskState::FinishedWithError => {
            assert_eq!(landed.map(|l| l.len()), None, "a partial file on the peer")
        }
        other => panic!("the push ended {other:?}"),
    }
    drop((origin, peer));
}

/// A `synchronous` Move across filesystems — its source on tmpfs
/// (`/dev/shm`), its destination on the scratch filesystem — is a copy,
/// and frees its source only once its replica has landed: the source is
/// still there while the replica is held on its way to the peer, gone
/// once it lands, and kept for good when the peer refuses the replica,
/// which fails the task.
#[test]
fn synchronous_cross_filesystem_move_frees_its_source_after_its_replica() {
    use std::os::unix::fs::MetadataExt;
    let shm = std::path::Path::new("/dev/shm");
    if !shm.is_dir() {
        eprintln!("note: no /dev/shm here; the cross-filesystem Move is not checked");
        return;
    }
    let root = temp_root("xfs-move");
    let fast = TempRoot::under(shm, "repl-xfs-move");
    let dev = |p: &std::path::Path| std::fs::metadata(p).unwrap().dev();
    if dev(&fast) == dev(&root) {
        eprintln!("note: /dev/shm and the scratch directory share a filesystem; not checked");
        return;
    }
    let register_src = |ctl: &mut CtlClient, name: &str| {
        let mount = fast.join(name);
        ctl.register_dataspace(DataspaceDesc {
            nsid: "src".into(),
            kind: BackendKind::Tmpfs,
            mount: mount.to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
        mount
    };
    let move_out = |path: &str| {
        TaskSpec::new(
            TaskOp::Move,
            ResourceDesc::PosixPath {
                nsid: "src".into(),
                path: "out.dat".into(),
            },
            Some(ResourceDesc::PosixPath {
                nsid: "ds0".into(),
                path: path.into(),
            }),
        )
        .with_durability(Durability::Synchronous)
    };
    let data = pattern(2 << 20);

    // A peer behind a gate: the replica is held until the gate opens.
    let config = |name: &str| DaemonConfig::in_dir(root.join(name).join("sockets"));
    let (_origin, mut ctl, mount) = start_node(&root, "origin", config("origin"));
    let (peer, _ctl_peer, peer_mount) = start_node(&root, "peer", config("peer"));
    let gate = Gate::new(peer.data_addr().unwrap());
    ctl.register_peer("peer", &gate.addr.to_string()).unwrap();
    let src = register_src(&mut ctl, "origin");
    std::fs::write(src.join("out.dat"), &data).unwrap();
    let task = ctl.submit(1, move_out("out/moved.dat"), None).unwrap();
    gate.arrived
        .recv_timeout(Duration::from_secs(20))
        .expect("the replica reaches the peer");
    assert_eq!(ctl.query(task).unwrap().state, TaskState::InProgress);
    assert_eq!(std::fs::read(mount.join("out/moved.dat")).unwrap(), data);
    assert!(
        src.join("out.dat").exists(),
        "the source must stay while its only other copy is unconfirmed"
    );
    gate.open();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(
        std::fs::read(peer_mount.join("out/moved.dat")).unwrap(),
        data
    );
    assert!(
        !src.join("out.dat").exists(),
        "the replica landed: the source is freed"
    );

    // A peer that refuses the replica: it has no `ds0`.
    let (_lone, mut ctl_lone, lone_mount) = start_node(&root, "lone", config("lone"));
    let refuser = UrdDaemon::spawn(config("refuser").with_data_addr("127.0.0.1:0")).unwrap();
    ctl_lone
        .register_peer("refuser", &refuser.data_addr().unwrap().to_string())
        .unwrap();
    let src = register_src(&mut ctl_lone, "lone");
    std::fs::write(src.join("out.dat"), &data).unwrap();
    let task = ctl_lone.submit(1, move_out("out/kept.dat"), None).unwrap();
    let stats = ctl_lone.wait(task, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(
        std::fs::read(src.join("out.dat")).unwrap(),
        data,
        "a failed replica keeps the source"
    );
    assert!(
        lone_mount.join("out/kept.dat").exists(),
        "the local leg still landed"
    );
}
