//! Integration tests for the chunked zero-copy data plane and the
//! sharded control plane: live progress through `query()`, byte-exact
//! chunk-boundary behaviour, and concurrent wait/cancel storms against
//! the sharded task table.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use norns_ipc::{Engine, EngineConfig, PolicyKind, MIN_CHUNK_SIZE};
use norns_proto::{
    BackendKind, DataspaceDesc, ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskState,
};

mod common;
use common::TempRoot;

fn temp_root(tag: &str) -> TempRoot {
    TempRoot::new(&format!("ipc-dataplane-{tag}"))
}

/// An engine with one dataspace, `tmp0`, and its mount, under a
/// scratch root that comes first so it is the last binding dropped.
fn engine(tag: &str, config: EngineConfig) -> (TempRoot, Arc<Engine>, PathBuf) {
    let root = temp_root(tag);
    let engine = Engine::with_config(config, PolicyKind::Fcfs);
    engine
        .register_dataspace(DataspaceDesc {
            nsid: "tmp0".into(),
            kind: BackendKind::PosixFilesystem,
            mount: root.join("tmp0").to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
    let mount = root.join("tmp0");
    (root, engine, mount)
}

fn copy_spec(path_in: &str, path_out: &str) -> TaskSpec {
    TaskSpec::new(
        TaskOp::Copy,
        ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: path_in.into(),
        },
        Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: path_out.into(),
        }),
    )
}

/// Position-dependent payload: any chunk offset bug corrupts it.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 89) % 253) as u8).collect()
}

fn write_file(mount: &Path, name: &str, data: &[u8]) {
    fs::write(mount.join(name), data).unwrap();
}

#[test]
fn query_observes_monotonic_live_progress() {
    let (_root, engine, mount) = engine(
        "progress",
        EngineConfig {
            workers: 2,
            chunk_size: MIN_CHUNK_SIZE,
            ..EngineConfig::default()
        },
    );
    // 4096 chunks of 64 KiB: even on a fast tmpfs the copy spans many
    // scheduler round-trips, so the polling loop below must observe
    // intermediate byte counts.
    let size = (MIN_CHUNK_SIZE * 4096) as usize;
    write_file(&mount, "big", &vec![0x5au8; size]);
    let id = engine.submit(1, copy_spec("big", "out"), None).unwrap();
    let mut samples = Vec::new();
    loop {
        let stats = engine.query(id).unwrap();
        samples.push(stats.bytes_moved);
        if stats.state.is_terminal() {
            break;
        }
        std::thread::yield_now();
    }
    let stats = engine.wait(id, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, size as u64);
    assert!(
        samples.windows(2).all(|w| w[0] <= w[1]),
        "bytes_moved must be monotone"
    );
    assert!(
        samples.iter().any(|&b| b > 0 && b < size as u64),
        "query must observe partial progress mid-transfer (samples: {} values, max before \
         terminal {:?})",
        samples.len(),
        samples.iter().rev().nth(1)
    );
    engine.shutdown();
}

#[test]
fn chunk_boundary_sizes_copy_byte_exact() {
    let (_root, engine, mount) = engine(
        "boundary",
        EngineConfig {
            workers: 3,
            chunk_size: MIN_CHUNK_SIZE,
            ..EngineConfig::default()
        },
    );
    let chunk = MIN_CHUNK_SIZE as usize;
    let sizes = [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk];
    for (i, &size) in sizes.iter().enumerate() {
        let data = pattern(size);
        write_file(&mount, &format!("in{i}"), &data);
        let id = engine
            .submit(1, copy_spec(&format!("in{i}"), &format!("out{i}")), None)
            .unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished, "size {size}");
        assert_eq!(stats.bytes_moved, size as u64, "size {size}");
        assert_eq!(
            fs::read(mount.join(format!("out{i}"))).unwrap(),
            data,
            "size {size} content"
        );
    }
    engine.shutdown();
}

#[test]
fn chunked_copy_preserves_patterned_content_across_workers() {
    let (_root, engine, mount) = engine(
        "content",
        EngineConfig {
            workers: 4,
            chunk_size: MIN_CHUNK_SIZE,
            ..EngineConfig::default()
        },
    );
    // 33 chunks with a final partial chunk, issued one at a time to
    // whichever of the four workers asks next.
    let size = (MIN_CHUNK_SIZE * 32) as usize + 4097;
    let data = pattern(size);
    write_file(&mount, "src", &data);
    let id = engine.submit(1, copy_spec("src", "dst"), None).unwrap();
    let stats = engine.wait(id, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, size as u64);
    assert_eq!(fs::read(mount.join("dst")).unwrap(), data);
    engine.shutdown();
}

#[test]
fn concurrent_wait_and_cancel_storm_on_sharded_table() {
    let (_root, engine, _mount) = engine(
        "storm",
        EngineConfig {
            workers: 4,
            queue_capacity: 100_000,
            ..EngineConfig::default()
        },
    );
    const SUBMITTERS: usize = 8;
    const PER_THREAD: usize = 100;
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut cancelled = 0u64;
                for i in 0..PER_THREAD {
                    let spec = TaskSpec::new(
                        TaskOp::Copy,
                        ResourceDesc::MemoryRegion { addr: 0, size: 64 },
                        Some(ResourceDesc::PosixPath {
                            nsid: "tmp0".into(),
                            path: format!("t{t}/f{i}"),
                        }),
                    );
                    let id = engine
                        .submit(t as u64, spec, Some(vec![t as u8; 64]))
                        .unwrap();
                    // A third of the submissions race a cancel against
                    // the dispatcher; every outcome must be coherent.
                    if i % 3 == 0 {
                        match engine.cancel(id, Some(t as u64)) {
                            Ok(()) => cancelled += 1,
                            Err(e) if e.code == ErrorCode::TaskError => {} // already running/done
                            Err(other) => panic!("unexpected cancel error: {other:?}"),
                        }
                    }
                    let stats = engine.wait(id, 0).unwrap();
                    assert!(stats.state.is_terminal(), "task {id} in {:?}", stats.state);
                }
                cancelled
            })
        })
        .collect();
    let cancelled: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(engine.cancelled_tasks(), cancelled);
    let status = engine.status();
    assert_eq!(status.cancelled_tasks, cancelled);
    assert_eq!(
        status.completed_tasks + cancelled,
        (SUBMITTERS * PER_THREAD) as u64,
        "every task either ran or was cancelled, none lost"
    );
    assert_eq!(status.pending_tasks, 0);
    assert_eq!(status.running_tasks, 0);
    engine.shutdown();
}

#[test]
fn cross_submitter_cancel_rejected_under_stress() {
    let (_root, engine, _mount) = engine("owner", EngineConfig::default());
    let spec = || {
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::MemoryRegion {
                addr: 0,
                size: 1 << 20,
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "x".into(),
            }),
        )
    };
    let id = engine.submit(1, spec(), Some(vec![0u8; 1 << 20])).unwrap();
    // Ownership is checked first; TaskError would mean the check was
    // skipped in favour of the pending lookup.
    let refused = engine.cancel(id, Some(2)).expect_err("not the owner");
    assert_eq!(refused.code, ErrorCode::PermissionDenied, "{refused}");
    engine.wait(id, 0).unwrap();
    engine.shutdown();
}
