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

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norns-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
