//! The canonical perf suite: the one binary in this crate that drives
//! live daemons and engines, and the one writer of the five
//! `BENCH_*.json` files at the repo root.
//!
//! ```text
//! cargo run --release --bin bench_suite            # full run
//! NORNS_QUICK=1 cargo run --release --bin bench_suite   # CI smoke
//! cargo run --release --bin bench_suite -- --check      # gate the files in ./ without running
//! ```
//!
//! **How a row is taken.** One sampler ([`sample_turns`]) times every
//! row: the rows a sweep compares take turns inside each repetition
//! (`a b c a b c`), so a slow second on the box costs each of them one
//! sample and none always runs first into a clean page cache. A row
//! states `n` turns and their median, fastest and slowest seconds;
//! rates derive from the median. `fig4_submit` and `policy_mix` rows are
//! distributions of per-operation latencies inside one run instead, and
//! say so with their own `n`.
//!
//! **Where a gate lives.** Each family has one `check_<family>` over
//! its document, comparing medians. A run applies it to the document it
//! just wrote, `--check` to the committed one; a failed gate never stops
//! a run — every family runs, every file is written, then the failures
//! are listed and the exit status is 1. (Byte-exactness and "the task
//! finished" are correctness, not timing: those still panic on the spot.)
//!
//! One output file per family (schema in `norns_bench::json`); what
//! each gate wants is stated once, on its `check_<family>`:
//!
//! 1. **control** — ping ops/sec against a live urd daemon over its
//!    AF_UNIX socket, client counts × wire-v7 pipeline depths; the
//!    paper's Fig. 4 submit hammer (1–32 processes).
//! 2. **local** — the no-network data plane through a bare engine:
//!    chunk size × workers on one file, 1, 2 and 4 files at once, the
//!    four arbitration policies on a skewed real-file mix.
//! 3. **remote** — loopback push + pull across data-plane window sizes
//!    and across chunk sizes with `query()` polled mid-transfer; 1 and 2
//!    files pushed together.
//! 4. **flow** — end-to-end makespan of a two-job `#NORNS` workflow
//!    driven by the norns-flow executor against two live daemons.
//! 5. **replication** — stage-out ACK latency under each wire-v8
//!    durability mode against a live replica peer, plus the time the
//!    background queue takes to drain the replication lag to zero.

use std::fs;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use norns_bench::json::{self, BenchDoc, Json};
use norns_bench::{quick_mode, Summary};
use norns_flow::{FlowConfig, FlowJobState, JobBody, NodeSpec, WorkflowExecutor};
use norns_ipc::{
    ClientError, CtlClient, DaemonConfig, Engine, EngineConfig, IpcPolicy, PolicyKind, UrdDaemon,
};
use norns_proto::{
    BackendKind, DaemonCommand, DataspaceDesc, Durability, ErrorCode, ResourceDesc, TaskOp,
    TaskSpec, TaskState, TaskStats, DEFAULT_PRIORITY,
};

const MIB: u64 = 1 << 20;
const GIB: f64 = (1u64 << 30) as f64;

// --- fixtures shared by every scenario -------------------------------

fn dataspace(nsid: &str, kind: BackendKind, mount: &Path) -> DataspaceDesc {
    DataspaceDesc {
        nsid: nsid.into(),
        kind,
        mount: mount.to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    }
}

/// A live daemon under `root/<name>` with one POSIX dataspace
/// `<name>-ds` mounted at `root/<name>/ds`.
fn spawn_node(root: &Path, name: &str, config: DaemonConfig) -> (UrdDaemon, CtlClient) {
    let daemon = UrdDaemon::spawn(config).unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(dataspace(
        &format!("{name}-ds"),
        BackendKind::PosixFilesystem,
        &root.join(name).join("ds"),
    ))
    .unwrap();
    (daemon, ctl)
}

/// `nodea` and `nodeb` under `root`, data planes on loopback, peer
/// registries cross-wired. `tune` finishes each node's config. Pairs
/// alive together share the two mounts and differ in `sockets`.
fn spawn_pair(
    root: &Path,
    sockets: &str,
    tune: impl Fn(DaemonConfig) -> DaemonConfig,
) -> [(UrdDaemon, CtlClient); 2] {
    let mut nodes = ["nodea", "nodeb"].map(|name| {
        let config = DaemonConfig::in_dir(root.join(name).join(sockets));
        spawn_node(root, name, tune(config.with_data_addr("127.0.0.1:0")))
    });
    let addr = |node: &(UrdDaemon, CtlClient)| node.0.data_addr().unwrap().to_string();
    let (addr_a, addr_b) = (addr(&nodes[0]), addr(&nodes[1]));
    nodes[0].1.register_peer("nodeb", &addr_b).unwrap();
    nodes[1].1.register_peer("nodea", &addr_a).unwrap();
    nodes
}

/// An in-process engine (no sockets) with dataspace `tmp0` at `mount`
/// — for the scenarios that read engine-side counters the wire does
/// not carry.
fn engine_on(mount: &Path, config: EngineConfig, policy: IpcPolicy) -> Arc<Engine> {
    let engine = Engine::with_config(config, policy);
    engine
        .register_dataspace(dataspace("tmp0", BackendKind::PosixFilesystem, mount))
        .unwrap();
    engine
}

fn copy_spec(input: ResourceDesc, output: ResourceDesc) -> TaskSpec {
    TaskSpec {
        op: TaskOp::Copy,
        priority: DEFAULT_PRIORITY,
        input,
        output: Some(output),
        durability: Durability::LocalOnly,
    }
}

fn posix(nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::PosixPath {
        nsid: nsid.into(),
        path: path.into(),
    }
}

/// A copy inside [`engine_on`]'s dataspace.
fn tmp0_copy(from: &str, to: &str) -> TaskSpec {
    copy_spec(posix("tmp0", from), posix("tmp0", to))
}

fn remote(host: &str, nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::RemotePath {
        host: host.into(),
        nsid: nsid.into(),
        path: path.into(),
    }
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Write a source file and flush it: a gigabyte still in writeback
/// throttles the first timed copies (0.64 GiB/s beside 2.7 after them).
fn write_clean(path: &Path, bytes: &[u8]) {
    fs::write(path, bytes).unwrap();
    fs::File::open(path).unwrap().sync_all().unwrap();
}

/// Block until task `id` finishes; anything but `Finished` is fatal.
fn finished(engine: &Engine, id: u64) -> TaskStats {
    let stats = engine.wait(id, 0).expect("task exists");
    assert_eq!(stats.state, TaskState::Finished, "task {id}");
    stats
}

/// The one sampler: time each of `alternatives` `reps` times, the
/// alternatives taking turns inside each repetition (`a b c a b c`,
/// never `a a b b c c`). This box has slow seconds and a page cache the
/// earlier copies dirty; turns spread both over every row a gate
/// compares. `run` returns one sample in seconds; one [`Summary`] per
/// alternative comes back, in order.
fn sample_turns<A>(
    reps: usize,
    alternatives: &mut [A],
    mut run: impl FnMut(&mut A) -> f64,
) -> Vec<Summary> {
    let mut samples = vec![Summary::new(); alternatives.len()];
    for _ in 0..reps {
        for (alternative, summary) in alternatives.iter_mut().zip(&mut samples) {
            summary.record(run(alternative));
        }
    }
    samples
}

/// Median, fastest and slowest of a row's samples under `keys`, scaled.
fn spread(keys: [&'static str; 3], samples: &Summary, scale: f64) -> [(&'static str, Json); 3] {
    let values = [samples.median(), samples.min(), samples.max()];
    std::array::from_fn(|i| (keys[i], Json::num(values[i] * scale)))
}

/// What a sampled row says about its turns: how many, and their
/// median (`secs`), fastest and slowest seconds.
fn turns(secs: &Summary) -> impl Iterator<Item = (&'static str, Json)> {
    let n = ("n", Json::num(secs.count() as f64));
    std::iter::once(n).chain(spread(["secs", "secs_min", "secs_max"], secs, 1.0))
}

/// One staged sample: nothing at `lands_at` when `copy` starts, and
/// once it has returned (off the clock) what landed is compared byte for
/// byte with `payload` and removed — a landed file left dirty in the
/// page cache is the next turn's slow buffered write (`chunk_sweep`).
fn staged<T>(lands_at: &Path, payload: &[u8], copy: impl FnOnce() -> T) -> T {
    let _ = fs::remove_file(lands_at);
    let sample = copy();
    assert!(
        fs::read(lands_at).unwrap() == payload,
        "{} differs from its source",
        lands_at.display()
    );
    fs::remove_file(lands_at).unwrap();
    sample
}

/// Submit one transfer and block in the wire's WaitTask until it
/// finishes; returns elapsed seconds.
fn timed_copy(ctl: &mut CtlClient, spec: TaskSpec, size: u64) -> f64 {
    let start = Instant::now();
    let id = ctl.submit(1, spec, None).unwrap();
    let stats = ctl.wait(id, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished, "transfer failed");
    assert_eq!(stats.bytes_moved, size, "byte count");
    start.elapsed().as_secs_f64()
}

/// Poll `query` until the task is terminal — live progress is part of
/// the data plane's contract (the paper's `NORNS_EPENDING` polling).
/// Asserts it finished with `size` bytes; returns whether a partial
/// `bytes_moved` was seen on the way.
fn poll_to_finish(size: u64, mut query: impl FnMut() -> TaskStats) -> bool {
    let mut partial = false;
    loop {
        let stats = query();
        if stats.state.is_terminal() {
            assert_eq!(stats.state, TaskState::Finished, "transfer failed");
            assert_eq!(stats.bytes_moved, size, "byte count");
            return partial;
        }
        partial |= stats.bytes_moved > 0 && stats.bytes_moved < size;
        std::thread::yield_now();
    }
}

/// [`timed_copy`], polling instead of waiting: (seconds, saw partial
/// progress).
fn polled_copy(ctl: &mut CtlClient, spec: TaskSpec, size: u64) -> (f64, bool) {
    let start = Instant::now();
    let id = ctl.submit(1, spec, None).unwrap();
    let partial = poll_to_finish(size, || ctl.query(id).unwrap());
    (start.elapsed().as_secs_f64(), partial)
}

// --- scenario 1: control-plane ops/sec ------------------------------

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

// SAFETY: `RLimit` above is `#[repr(C)]` with two u64 fields, the
// exact layout of glibc's `struct rlimit` on 64-bit Linux, and the
// signatures match the headers.
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Raise the soft fd limit to the hard limit: both ends of every
/// client connection live in this process.
fn raise_nofile() {
    const RLIMIT_NOFILE: i32 = 7;
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: both calls receive pointers to live, initialised stack
    // `RLimit` values matching the declared parameter types.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
            let want = RLimit {
                cur: lim.max,
                max: lim.max,
            };
            let _ = setrlimit(RLIMIT_NOFILE, &want);
        }
    }
}

/// `clients` threads each hold one control connection and drive
/// `per_client` pings with up to `depth` outstanding. Returns the
/// seconds from the first ping issued to the last response read, on the
/// client threads' own clocks: with hundreds of threads on a small box
/// the main thread is the last one rescheduled after the start line, so
/// a clock started there opens after most of the work is done.
fn measure_concurrent(control_path: &Path, clients: usize, depth: usize, per_client: usize) -> f64 {
    let start_line = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let start_line = Arc::clone(&start_line);
            let control_path = control_path.to_path_buf();
            std::thread::spawn(move || {
                let mut conn = CtlClient::connect(&control_path).unwrap();
                start_line.wait();
                let first_issue = Instant::now();
                let mut issued = 0usize;
                let mut done = 0usize;
                while issued < depth.min(per_client) {
                    conn.issue_ping().unwrap();
                    issued += 1;
                }
                while done < per_client {
                    let responses = conn.poll(Duration::from_secs(30)).unwrap();
                    for (_tag, resp) in responses {
                        assert!(
                            matches!(resp, norns_proto::Response::Ok),
                            "ping answered {resp:?}"
                        );
                        done += 1;
                        if issued < per_client {
                            conn.issue_ping().unwrap();
                            issued += 1;
                        }
                    }
                }
                (first_issue, Instant::now())
            })
        })
        .collect();
    let spans: Vec<(Instant, Instant)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first_issue = spans.iter().map(|span| span.0).min().expect("clients > 0");
    let last_response = spans.iter().map(|span| span.1).max().expect("clients > 0");
    (last_response - first_issue).as_secs_f64()
}

/// The paper's Fig. 4 load: `procs` client threads each submit
/// `per_process` consecutive tasks over their own control connection.
/// The timed span per request is what the paper measures — process the
/// request, create a task descriptor, queue it, respond. Returns the
/// wall-clock seconds of the whole load and every request's latency in
/// µs, all threads pooled.
fn submit_hammer(control_path: &Path, procs: usize, per_process: u64) -> (f64, Summary) {
    // The task itself is a cheap removal of a missing path.
    let spec = TaskSpec::new(TaskOp::Remove, posix("ctrl-ds", "nonexistent"), None);
    let start = Instant::now();
    let handles: Vec<_> = (0..procs)
        .map(|_| {
            let path = control_path.to_path_buf();
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut client = CtlClient::connect(&path).expect("client connect");
                let mut latencies_us = Vec::with_capacity(per_process as usize);
                for _ in 0..per_process {
                    let t0 = Instant::now();
                    // The bounded queue may push back under this
                    // hammering load: EAGAIN-style retry.
                    loop {
                        match client.submit(0, spec.clone(), None) {
                            Ok(_) => break,
                            Err(ClientError::Remote {
                                code: ErrorCode::Busy,
                                ..
                            }) => std::thread::yield_now(),
                            Err(e) => panic!("submit: {e}"),
                        }
                    }
                    latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                latencies_us
            })
        })
        .collect();
    let mut pooled = Summary::new();
    for h in handles {
        for latency_us in h.join().expect("client thread") {
            pooled.record(latency_us);
        }
    }
    (start.elapsed().as_secs_f64(), pooled)
}

fn bench_control(root: &Path) -> BenchDoc {
    let (daemon, mut ctl) = spawn_node(
        root,
        "ctrl",
        DaemonConfig::in_dir(root.join("ctrl/sockets")),
    );
    let ctl_path = daemon.control_path.clone();
    let mut doc = BenchDoc::new("control");

    // Concurrent storm: clients × pipeline depth over one daemon, the
    // depths of one client count taking turns. Depth 1 is the pre-v7
    // one-outstanding discipline over the same reactor daemon.
    raise_nofile();
    let (client_counts, depths): (&[usize], &[usize]) = if quick_mode() {
        (&[1, 64], &[1, 8])
    } else {
        (&[1, 64, 512], &[1, 8, 32])
    };
    let total_target = if quick_mode() { 8_000usize } else { 40_000 };
    let reps = 3;
    for &clients in client_counts {
        let per_client = |depth: usize| (total_target / clients).clamp(depth * 2, 20_000);
        let mut depths = depths.to_vec();
        let spans = sample_turns(reps, &mut depths, |&mut depth| {
            measure_concurrent(&ctl_path, clients, depth, per_client(depth))
        });
        for (depth, secs) in depths.into_iter().zip(&spans) {
            let ops = (clients * per_client(depth)) as f64;
            let knobs = [
                ("scenario", Json::str("control_concurrent")),
                ("clients", Json::num(clients as f64)),
                ("depth", Json::num(depth as f64)),
                ("ops", Json::num(ops)),
            ];
            let rate = [("ops_per_s", Json::num(ops / secs.median()))];
            doc.row(knobs.into_iter().chain(turns(secs)).chain(rate));
        }
    }
    doc.note(format!("control_concurrent: N clients each keep `depth` pings outstanding on their own connection to one daemon; secs runs from the first ping issued to the last response read on the clients' own clocks (connects are not timed), median of {reps} turns with the depths of one client count taking turns, ops_per_s = ops / secs; gate: at every client count >= 64, some depth >= 8 is above depth 1 (the one-outstanding discipline)"));

    // Fig. 4: blocking submits from 1–32 concurrent processes.
    let per_process: u64 = if quick_mode() { 5_000 } else { 50_000 };
    for procs in [1usize, 2, 4, 8, 16, 32] {
        // Keep the completion table small between sweeps.
        ctl.send_command(DaemonCommand::ClearCompletions).unwrap();
        let (secs, latency_us) = submit_hammer(&ctl_path, procs, per_process);
        doc.row([
            ("scenario", Json::str("fig4_submit")),
            ("processes", Json::num(procs as f64)),
            ("requests_per_process", Json::num(per_process as f64)),
            ("n", Json::num(latency_us.count() as f64)),
            ("secs", Json::num(secs)),
            ("req_per_s", Json::num(latency_us.count() as f64 / secs)),
            ("mean_latency_us", Json::num(latency_us.mean())),
            ("p50_latency_us", Json::num(latency_us.median())),
            ("p99_latency_us", Json::num(latency_us.quantile(0.99))),
            ("max_latency_us", Json::num(latency_us.max())),
        ]);
    }
    doc.note("fig4_submit: the paper's Fig. 4 load (consecutive blocking task submissions per process over AF_UNIX; the `fig4` binary prints the rows beside the paper's figures); one run per process count, secs is its wall clock including connects, the latency columns are over the n = processes x requests_per_process request latencies of all processes pooled");
    doc
}

// --- scenario 2: the local data plane --------------------------------

/// Chunk size × workers sweep on one large file through an in-process
/// engine; gated by [`check_local`]. The raw-syscall baseline is
/// `benchmark/`'s `ceiling.copy_file_range_gib_per_s`, not a row here.
fn chunk_sweep(root: &Path, doc: &mut BenchDoc) {
    // 256 MiB in both modes: on this box a buffered write of 512 MiB or
    // more is bimodal whoever issues it (a bare copy_file_range loop:
    // 0.33 or 0.7-2.7 s per GiB, about one copy in three), 256 MiB is not.
    let size = 256 * MIB;
    let reps = if quick_mode() { 5 } else { 7 };
    let mount = root.join("chunk");
    fs::create_dir_all(&mount).unwrap();
    write_clean(&mount.join("src"), &vec![0xc3u8; size as usize]);

    for chunk_mib in [4u64, 8, 32] {
        // (workers, saw partial progress)
        let mut pools = [1usize, 2, 4].map(|workers| (workers, false));
        let samples = sample_turns(reps, &mut pools, |(workers, partial)| {
            let config = EngineConfig {
                workers: *workers,
                chunk_size: chunk_mib * MIB,
                ..EngineConfig::default()
            };
            let engine = engine_on(&mount, config, PolicyKind::Fcfs.to_policy());
            let _ = fs::remove_file(mount.join("dst"));
            let start = Instant::now();
            let id = engine.submit(1, tmp0_copy("src", "dst"), None).unwrap();
            *partial |= poll_to_finish(size, || engine.query(id).unwrap());
            let secs = start.elapsed().as_secs_f64();
            engine.shutdown();
            secs
        });
        let alone = samples[0].median();
        for ((workers, partial), secs) in pools.into_iter().zip(&samples) {
            let knobs = [
                ("scenario", Json::str("chunk_sweep")),
                ("chunk_mib", Json::num(chunk_mib as f64)),
                ("workers", Json::num(workers as f64)),
                ("bytes", Json::num(size as f64)),
            ];
            let derived = [
                ("gib_per_s", Json::num(size as f64 / secs.median() / GIB)),
                ("vs_one_worker", Json::num(alone / secs.median())),
                ("partial_progress_seen", Json::Bool(partial)),
            ];
            doc.row(knobs.into_iter().chain(turns(secs)).chain(derived));
        }
    }
    doc.note(format!(
        "chunk_sweep: one {} MiB file through an in-process engine per chunk size x workers, median of {reps} turns with the worker counts of one chunk size taking turns; a local copy's chunks run one at a time (one destination inode takes one writer at a time), so extra workers buy one file nothing; the file stays at 256 MiB in a full run because buffered writes of 512 MiB and up are bimodal on this box with or without the engine (a bare copy_file_range loop of 1 GiB took 0.33 or 0.7-2.7 s per GiB, about one copy in three slow; PR 20's best-of-3 rows at 1 GiB hid that, a median of 3 at 1 GiB read 0.43-5.9 in vs_one_worker); gate: no 2- or 4-worker row below 0.85x the 1-worker row at the same chunk size (vs_one_worker), and query() saw partial bytes_moved",
        size / MIB
    ));
    let _ = fs::remove_dir_all(&mount);
}

/// What the pool is for now that one file takes one worker: 1, 2 and 4
/// distinct files submitted together to one default-config engine.
fn concurrent_copies(root: &Path, doc: &mut BenchDoc) {
    let size = if quick_mode() { 64 * MIB } else { 256 * MIB };
    let reps = 5;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mount = root.join("concurrent");
    fs::create_dir_all(&mount).unwrap();
    for i in 0..4 {
        write_clean(&mount.join(format!("src{i}")), &vec![0x5au8; size as usize]);
    }
    let spec = |i| tmp0_copy(&format!("src{i}"), &format!("out/dst{i}"));
    let mut file_counts = [1usize, 2, 4];
    let samples = sample_turns(reps, &mut file_counts, |&mut files| {
        let config = EngineConfig::default();
        let engine = engine_on(&mount, config, PolicyKind::Fcfs.to_policy());
        let _ = fs::remove_dir_all(mount.join("out"));
        let start = Instant::now();
        let ids: Vec<u64> = (0..files)
            .map(|i| engine.submit(1, spec(i), None).unwrap())
            .collect();
        for id in ids {
            finished(&engine, id);
        }
        let secs = start.elapsed().as_secs_f64();
        engine.shutdown();
        secs
    });
    for (files, secs) in file_counts.into_iter().zip(&samples) {
        let bytes = (files as u64 * size) as f64;
        let knobs = [
            ("scenario", Json::str("concurrent_copies")),
            ("files", Json::num(files as f64)),
            ("nproc", Json::num(nproc as f64)),
            ("bytes", Json::num(bytes)),
        ];
        let rate = [("gib_per_s", Json::num(bytes / secs.median() / GIB))];
        doc.row(knobs.into_iter().chain(turns(secs)).chain(rate));
    }
    doc.note(format!(
        "concurrent_copies: 1, 2 and 4 distinct {} MiB files submitted together to one in-process engine at the defaults (4 workers, 8 MiB chunks, fcfs), median of {reps} turns with the file counts taking turns, aggregate rate; each file is one chain of chunks on one worker; gate: 2 files move at >= 1.3x the 1-file rate{}; a 2- or 4-file row that writes 512 MiB or more meets this box's slow buffered writes (chunk_sweep's note), which is what a secs_max of seconds beside a median of tenths is; the files=1 row stands in for the old single-size local_copy row (through a daemon: BENCH_remote.json's chunk_ablation_local at 8 MiB)",
        size / MIB,
        if nproc < 2 { " (skipped: nproc < 2)" } else { "" }
    ));
    let _ = fs::remove_dir_all(&mount);
}

/// The four arbitration policies on a skewed real-file mix (the
/// simulated twin is `ablation_sched`): job 1 submits a few huge
/// stage-outs, job 2 floods small transfers behind them, and one
/// *high-priority* small stage-in arrives last — the case
/// weighted-priority exists for. Two workers; sojourn = queue wait +
/// execution as the engine itself measures them.
fn policy_mix(root: &Path, doc: &mut BenchDoc) {
    let (big_mb, big_n, small_mb, small_n) = if quick_mode() {
        (32, 3, 2, 12)
    } else {
        (96, 4, 4, 24)
    };
    let mount = root.join("policy");
    fs::create_dir_all(&mount).unwrap();
    // The engine estimates task size from metadata at submission,
    // which is what SJF arbitrates on.
    let fill = |name: String, byte: u8, mb: usize| {
        fs::write(mount.join(name), vec![byte; mb * MIB as usize]).unwrap()
    };
    for i in 0..big_n {
        fill(format!("big{i}"), 0xb1, big_mb);
    }
    for i in 0..small_n {
        fill(format!("small{i}"), 0x51, small_mb);
    }
    fill("urgent".into(), 0x11, small_mb);

    for policy in [
        PolicyKind::Fcfs,
        PolicyKind::ShortestFirst,
        PolicyKind::JobFairShare,
        PolicyKind::WeightedPriority,
    ] {
        let _ = fs::remove_dir_all(mount.join("out"));
        // Capacity below the task count so the bounded queue genuinely
        // pushes back and the Busy/retry column carries signal.
        let config = EngineConfig {
            workers: 2,
            queue_capacity: 8,
            ..EngineConfig::default()
        };
        let engine = engine_on(&mount, config, policy.to_policy());
        let mut busy_rejections = 0u64;
        let mut submit = |job: u64, name: &str, priority: u8| loop {
            let spec = tmp0_copy(name, &format!("out/{name}")).with_priority(priority);
            match engine.submit(job, spec, None) {
                Ok(id) => break id,
                Err(e) if e.code == ErrorCode::Busy => {
                    busy_rejections += 1;
                    std::thread::yield_now();
                }
                Err(e) => panic!("submit failed: {e}"),
            }
        };
        // All submitted as fast as admission allows, so the backlog
        // forms behind the two workers.
        let big: Vec<u64> = (0..big_n)
            .map(|i| submit(1, &format!("big{i}"), DEFAULT_PRIORITY))
            .collect();
        let small: Vec<u64> = (0..small_n)
            .map(|i| submit(2, &format!("small{i}"), DEFAULT_PRIORITY))
            .collect();
        let urgent = submit(2, "urgent", 250);

        let sojourn_ms = |s: &TaskStats| (s.wait_usec + s.elapsed_usec) as f64 / 1e3;
        let mut all_sojourn = Summary::new();
        let mut small_sojourn = Summary::new();
        for id in big {
            all_sojourn.record(sojourn_ms(&finished(&engine, id)));
        }
        for id in small {
            let ms = sojourn_ms(&finished(&engine, id));
            all_sojourn.record(ms);
            small_sojourn.record(ms);
        }
        let high = finished(&engine, urgent);
        all_sojourn.record(sojourn_ms(&high));
        let high_wait_ms = high.wait_usec as f64 / 1e3;
        engine.shutdown();

        doc.row([
            ("scenario", Json::str("policy_mix")),
            ("policy", Json::str(policy.name())),
            ("n", Json::num(all_sojourn.count() as f64)),
            ("mean_sojourn_ms", Json::num(all_sojourn.mean())),
            ("p95_sojourn_ms", Json::num(all_sojourn.quantile(0.95))),
            ("small_mean_ms", Json::num(small_sojourn.mean())),
            ("small_p95_ms", Json::num(small_sojourn.quantile(0.95))),
            ("high_prio_wait_ms", Json::num(high_wait_ms)),
            ("busy_rejections", Json::num(busy_rejections as f64)),
        ]);
    }
    doc.note(format!(
        "policy_mix: {big_n} x {big_mb} MiB (job 1), then {small_n} x {small_mb} MiB + one priority-250 latecomer (job 2) through an in-process engine, 2 workers, queue capacity 8, one run per policy; the sojourn columns are over that run's n tasks as the engine timed them; sjf shrinks the small-task mean, weighted-priority the urgent wait"
    ));
    let _ = fs::remove_dir_all(&mount);
}

fn bench_local(root: &Path) -> BenchDoc {
    let mut doc = BenchDoc::new("local");
    chunk_sweep(root, &mut doc);
    concurrent_copies(root, &mut doc);
    policy_mix(root, &mut doc);
    doc
}

// --- scenario 3: remote push/pull across window and chunk sizes ------

/// Window sizes swept by the remote scenario; 1 is the stop-and-wait
/// baseline, the rest exercise the pipelined data plane.
fn windows() -> &'static [usize] {
    if quick_mode() {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16]
    }
}

fn push_spec() -> TaskSpec {
    copy_spec(
        posix("nodea-ds", "src.dat"),
        remote("nodeb", "nodeb-ds", "pushed.dat"),
    )
}

/// The no-network twin of [`push_spec`]: same file, same daemon.
fn local_spec() -> TaskSpec {
    copy_spec(posix("nodea-ds", "src.dat"), posix("nodea-ds", "local.dat"))
}

/// [`push_spec`] the other way: `nodeb`'s own copy of the source file.
fn pull_spec() -> TaskSpec {
    copy_spec(
        remote("nodeb", "nodeb-ds", "src.dat"),
        posix("nodea-ds", "pulled.dat"),
    )
}

/// Where one lane per destination file leaves A's workers and B's
/// handlers: 1 and 2 distinct files pushed together over one daemon
/// pair at the defaults. Gated by [`check_remote`].
fn concurrent_pushes(root: &Path, doc: &mut BenchDoc) {
    let size = 64 * MIB;
    let reps = 5;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let payload = patterned(size as usize);
    let [(_daemon_a, mut ctl_a), _node_b] = spawn_pair(root, "sockets-together", |c| c);
    for i in 0..2 {
        write_clean(&root.join(format!("nodea/ds/together{i}.dat")), &payload);
    }
    let lands_at = |i: usize| root.join(format!("nodeb/ds/together{i}.dat"));
    let mut file_counts = [1usize, 2];
    let samples = sample_turns(reps, &mut file_counts, |&mut files| {
        let start = Instant::now();
        let ids: Vec<u64> = (0..files)
            .map(|i| {
                let name = format!("together{i}.dat");
                let spec = copy_spec(posix("nodea-ds", &name), remote("nodeb", "nodeb-ds", &name));
                ctl_a.submit(1, spec, None).unwrap()
            })
            .collect();
        for id in ids {
            let stats = ctl_a.wait(id, 0).unwrap();
            assert_eq!(stats.state, TaskState::Finished, "push failed");
        }
        let secs = start.elapsed().as_secs_f64();
        // Off the clock, as `staged` does for one file.
        for landed in (0..files).map(lands_at) {
            assert!(
                fs::read(&landed).unwrap() == payload,
                "{} differs from its source",
                landed.display()
            );
            fs::remove_file(&landed).unwrap();
        }
        secs
    });
    for (files, secs) in file_counts.into_iter().zip(&samples) {
        let bytes = (files as u64 * size) as f64;
        let knobs = [
            ("scenario", Json::str("concurrent_pushes")),
            ("files", Json::num(files as f64)),
            ("nproc", Json::num(nproc as f64)),
            ("bytes", Json::num(bytes)),
        ];
        let rate = [("gib_per_s", Json::num(bytes / secs.median() / GIB))];
        doc.row(knobs.into_iter().chain(turns(secs)).chain(rate));
    }
    doc.note(format!(
        "concurrent_pushes: 1 and 2 distinct {} MiB files pushed together between two live daemons at the defaults (4 workers, 8 MiB chunks, window 8), median of {reps} turns with the file counts taking turns, aggregate rate; one copy per received byte, one lane per file: each push is one chain of chunks on one worker of the sender and one handler of the receiver, so a second file finds idle workers and a connection of its own instead of queueing behind the first file's lanes; one push already keeps a sending and a receiving thread busy, which is all of this box's two vCPUs, so a second file adds little here (1.1-1.4x) and the gate only asks that it costs nothing; gate: 2 files move at >= {PUSHES_FLOOR}x the 1-file aggregate rate{}",
        size / MIB,
        if nproc < 2 { " (skipped: nproc < 2)" } else { "" }
    ));
}

fn bench_remote(root: &Path) -> BenchDoc {
    let size = if quick_mode() { 64 * MIB } else { 256 * MIB };
    let payload = patterned(size as usize);
    let pushed = root.join("nodeb/ds/pushed.dat");
    let pulled = root.join("nodea/ds/pulled.dat");
    let transfer_row = |scenario: String, knob: (&'static str, f64), secs: &Summary| {
        let knobs = [
            ("scenario", Json::Str(scenario)),
            (knob.0, Json::num(knob.1)),
            ("bytes", Json::num(size as f64)),
        ];
        let rate = [("gib_per_s", Json::num(size as f64 / secs.median() / GIB))];
        knobs.into_iter().chain(turns(secs)).chain(rate)
    };
    let mut doc = BenchDoc::new("remote");

    // Window sweep: one daemon pair per window, all alive over the same
    // two mounts, taking turns at the same source file. Seven turns:
    // the gate divides two of these medians, and at three the quotient
    // of two healthy rows strayed to 0.70.
    let reps = 7;
    let mut pairs: Vec<(usize, [(UrdDaemon, CtlClient); 2])> = windows()
        .iter()
        .map(|&window| {
            let sockets = format!("sockets-w{window}");
            let pair = spawn_pair(root, &sockets, |c| c.with_remote_window(window));
            (window, pair)
        })
        .collect();
    for node in ["nodea", "nodeb"] {
        write_clean(&root.join(node).join("ds/src.dat"), &payload);
    }
    for (dir, spec, lands_at) in [
        ("push", push_spec as fn() -> TaskSpec, &pushed),
        ("pull", pull_spec, &pulled),
    ] {
        let samples = sample_turns(reps, &mut pairs, |(_, [(_, ctl_a), _])| {
            staged(lands_at, &payload, || timed_copy(ctl_a, spec(), size))
        });
        // `windows()` starts at 1.
        let stop_and_wait = samples[0].median();
        for ((window, _), secs) in pairs.iter().zip(&samples) {
            let knob = ("window", *window as f64);
            let vs = [("vs_window_1", Json::num(stop_and_wait / secs.median()))];
            doc.row(transfer_row(format!("remote_{dir}"), knob, secs).chain(vs));
        }
    }
    drop(pairs);
    doc.note(format!(
        "remote_push/remote_pull: one {} MiB file staged over 127.0.0.1 between two live daemons, default chunk size, median of {reps} turns with the windows taking turns (one daemon pair per window, all alive, same mounts); one copy per received byte, one lane per file: the receiving end splices each payload socket -> pipe -> page cache, and a file's chunks travel one at a time over one connection; window=1 is stop-and-wait, vs_window_1 is a row's rate over the window-1 row's",
        size / MIB
    ));
    doc.note(format!("gate: no window>={GATED_WINDOW} row below {WINDOW_FLOOR}x window 1 in either direction. Loopback gives a window no round-trip time to hide, and a window's ranges are smaller (chunk/window, 1 MiB at the defaults: 4x the frames, ACKs and wake-ups per byte), so window 8 sits around 0.9 of stop-and-wait here and the sweep does not rank windows; that a window beats stop-and-wait needs a link with a round-trip time (ROADMAP item 2). Where the floor comes from: 20 consecutive quick runs at PR 22 (64 MiB, 7 turns, 2 vCPUs) put the lowest window>=4 ratio of a run at 0.79-1.07 on push and 0.85-1.62 on pull; with PR 19's stall put back (no TCP_NODELAY on the accepted socket: window 1 is untouched, every larger window pays the 40 ms delayed ACK) 12 quick runs read 0.32-0.60 on push and failed this gate 12 of 12"));

    concurrent_pushes(root, &mut doc);

    // Chunk-size sweep at the default window, polling `query()` while
    // the wire is busy; `local` is the same-daemon, no-network copy of
    // the same file. The three directions of one chunk size take turns.
    let local = root.join("nodea/ds/local.dat");
    let reps = if quick_mode() { 3 } else { 5 };
    for chunk_mib in [1u64, 4, 8] {
        let [(_daemon_a, mut ctl_a), _node_b] =
            spawn_pair(root, "sockets", |c| c.with_chunk_size(chunk_mib * MIB));
        // (direction, spec, lands at, saw partial progress)
        let mut legs = [
            ("local", local_spec as fn() -> TaskSpec, &local, false),
            ("push", push_spec, &pushed, false),
            ("pull", pull_spec, &pulled, false),
        ];
        let samples = sample_turns(reps, &mut legs, |(_, spec, lands_at, partial)| {
            let (secs, saw) = staged(lands_at, &payload, || polled_copy(&mut ctl_a, spec(), size));
            *partial |= saw;
            secs
        });
        for ((direction, _, _, partial), secs) in legs.into_iter().zip(&samples) {
            let knob = ("chunk_mib", chunk_mib as f64);
            let saw = [("partial_progress_seen", Json::Bool(partial))];
            doc.row(transfer_row(format!("chunk_ablation_{direction}"), knob, secs).chain(saw));
        }
    }
    doc.note(format!("chunk_ablation_*: the same file staged both ways per chunk size at the default window, polling query(), median of {reps} turns with local, push and pull taking turns; local = same-daemon baseline; push and pull move one copy per received byte, one lane per file: a transfer is two busy threads (a sender, a receiver) whatever the chunk size, and the client polling query() without a pause is two more (itself and the reactor answering it), so on this box's two vCPUs a polled push or pull gets about half of them and reads about 1.0 GiB/s at every chunk size (before PR 23 a transfer's four lanes out-numbered the poller and read 1.2-1.5; the same push waited for instead of polled went 42-46 -> 38-39 ms at 64 MiB, polled 45 -> 63); every sample is compared byte for byte; a push or pull row at 8 MiB differs from remote_push/remote_pull at window 8 only in the client polling instead of waiting, on the same two vCPUs, and sits under it; gate: a push or pull row saw partial bytes_moved"));
    doc.note("a remote row whose median or secs_max sits tenths of a second above its secs_min had residual data-plane stalls land on some or most of its turns (secs_min is its clean time): /proc/net/netstat still counts fast retransmits, out-of-order queueing and loss probes on loopback during a transfer (ROADMAP item 2, not attributed further)");
    doc
}

// --- scenario 4: norns-flow end-to-end makespan ----------------------

fn bench_flow(root: &Path) -> BenchDoc {
    let mesh_bytes = if quick_mode() { 8 * MIB } else { 64 * MIB };
    let reps = 3;
    let mut wait_round_trips = 0u64;

    // One alternative: each turn is a fresh pair of daemons, a fresh
    // executor and the whole workflow.
    let samples = sample_turns(reps, &mut [()], |_| {
        let run_root = root.join("flow");
        let mk = |name: &str| {
            DaemonConfig::in_dir(run_root.join(name).join("sockets"))
                .with_chunk_size(MIB)
                .with_data_addr("127.0.0.1:0")
        };
        // nodea owns the PFS-like tier, nodeb the node-local one; the
        // executor cross-registers the peers itself.
        let daemon_a = UrdDaemon::spawn(mk("nodea")).unwrap();
        let daemon_b = UrdDaemon::spawn(mk("nodeb")).unwrap();
        for (daemon, name, nsid, kind) in [
            (&daemon_a, "nodea", "lustre0", BackendKind::Lustre),
            (&daemon_b, "nodeb", "pmdk0", BackendKind::NvmDax),
        ] {
            let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
            ctl.register_dataspace(dataspace(nsid, kind, &run_root.join(name).join("ds")))
                .unwrap();
        }
        let mount_a = run_root.join("nodea/ds");
        let mount_b = run_root.join("nodeb/ds");
        fs::create_dir_all(mount_a.join("case")).unwrap();
        let mesh = patterned(mesh_bytes as usize);
        fs::write(mount_a.join("case/mesh.dat"), &mesh).unwrap();

        let mut exec = WorkflowExecutor::new(FlowConfig::default());
        exec.add_node(NodeSpec {
            name: "nodea".into(),
            control_path: daemon_a.control_path.clone(),
            dataspaces: vec!["lustre0".into()],
        })
        .unwrap();
        exec.add_node(NodeSpec {
            name: "nodeb".into(),
            control_path: daemon_b.control_path.clone(),
            dataspaces: vec!["pmdk0".into()],
        })
        .unwrap();

        let body_mount = mount_b.clone();
        exec.submit(
            "#!/bin/bash\n\
             #SBATCH --job-name=prep\n\
             #SBATCH --nodes=2\n\
             #SBATCH --workflow-start\n\
             #NORNS stage_in lustre0://case/mesh.dat pmdk0://job/mesh.dat node:1\n\
             #NORNS stage_out pmdk0://job/out.dat lustre0://results/prep.dat node:1\n",
            JobBody::Run(Box::new(move || {
                let staged =
                    fs::read(body_mount.join("job/mesh.dat")).map_err(|e| e.to_string())?;
                let mut out = staged;
                out.reverse();
                fs::write(body_mount.join("job/out.dat"), out).map_err(|e| e.to_string())
            })),
        )
        .unwrap();
        let body_mount = mount_a.clone();
        exec.submit(
            "#!/bin/bash\n\
             #SBATCH --job-name=post\n\
             #SBATCH --workflow-end\n\
             #SBATCH --workflow-prior-dependency=prep\n\
             #NORNS stage_in lustre0://results/prep.dat lustre0://post/in.dat\n\
             #NORNS stage_out lustre0://post/final.dat lustre0://results/final.dat\n",
            JobBody::Run(Box::new(move || {
                let data = fs::read(body_mount.join("post/in.dat")).map_err(|e| e.to_string())?;
                let mut fixed = data;
                fixed.reverse();
                fs::write(body_mount.join("post/final.dat"), fixed).map_err(|e| e.to_string())
            })),
        )
        .unwrap();

        let start = Instant::now();
        let outcomes = exec.run().unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(
            outcomes
                .iter()
                .all(|(_, state)| *state == FlowJobState::Completed),
            "workflow failed: {outcomes:?}"
        );
        assert_eq!(
            fs::read(mount_a.join("results/final.dat")).unwrap(),
            mesh,
            "end-to-end integrity"
        );
        wait_round_trips = exec.wait_round_trips();
        drop(daemon_a);
        drop(daemon_b);
        let _ = fs::remove_dir_all(&run_root);
        secs
    });

    let mut doc = BenchDoc::new("flow");
    let knobs = [
        ("scenario", Json::str("flow_makespan")),
        ("jobs", Json::num(2u32)),
        ("mesh_bytes", Json::num(mesh_bytes as f64)),
    ];
    let counted = [("wait_round_trips", Json::num(wait_round_trips as f64))];
    doc.row(knobs.into_iter().chain(turns(&samples[0])).chain(counted));
    doc.note(format!(
        "flow_makespan: two-job #NORNS workflow (remote pull, compute, remote push, dependent local staging), {} MiB mesh, 1 MiB chunks, median of {reps} runs, each on fresh daemons and a fresh executor; secs is exec.run(), both job bodies included: each reads the mesh off its mount, reverses it and writes it back",
        mesh_bytes / MIB
    ));
    doc
}

// --- scenario 5: replication ACK latency + lag drain -----------------

/// Poll the origin's status until the replication-lag counters reach
/// zero; returns the elapsed seconds.
fn drain_lag(ctl: &mut CtlClient) -> f64 {
    let start = Instant::now();
    loop {
        let status = ctl.status().unwrap();
        if status.pending_replicas == 0 && status.pending_replica_bytes == 0 {
            return start.elapsed().as_secs_f64();
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "replication lag stuck at {} replicas",
            status.pending_replicas
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn bench_replication(root: &Path) -> BenchDoc {
    let size = if quick_mode() { 4 * MIB } else { 32 * MIB };
    let reps = if quick_mode() { 3 } else { 5 };
    // Origin + one replica peer, both backing the cluster-wide `bb`
    // dataspace with their own mounts (the naming convention the
    // replication queue pushes along).
    let spawn = |name: &str| {
        let daemon = UrdDaemon::spawn(
            DaemonConfig::in_dir(root.join("repl").join(name).join("sockets"))
                .with_data_addr("127.0.0.1:0"),
        )
        .unwrap();
        let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
        let mount = root.join("repl").join(name).join("ds");
        ctl.register_dataspace(dataspace("bb", BackendKind::PosixFilesystem, &mount))
            .unwrap();
        (daemon, ctl)
    };
    let (_origin, mut ctl) = spawn("origin");
    let (peer, _peer_ctl) = spawn("peer");
    ctl.register_peer("peer0", &peer.data_addr().unwrap().to_string())
        .unwrap();
    let payload = patterned(size as usize);
    fs::write(root.join("repl/origin/ds/src.dat"), &payload).unwrap();

    let mut doc = BenchDoc::new("replication");
    // (mode, durability, turns taken, drain seconds)
    let mut modes = [
        ("local_only", Durability::LocalOnly),
        ("local_plus_one", Durability::LocalPlusOne),
        ("synchronous", Durability::Synchronous),
    ]
    .map(|(name, mode)| (name, mode, 0usize, Summary::new()));
    let acks = sample_turns(reps, &mut modes, |(mode_name, mode, rep, drain)| {
        let spec = copy_spec(
            posix("bb", "src.dat"),
            posix("bb", &format!("out/{mode_name}/{rep}.dat")),
        )
        .with_durability(*mode);
        *rep += 1;
        let start = Instant::now();
        let id = ctl.submit(1, spec, None).unwrap();
        let stats = ctl.wait(id, 0).unwrap();
        let ack_secs = start.elapsed().as_secs_f64();
        assert_eq!(stats.state, TaskState::Finished, "stage-out failed");
        // For `local_plus_one` this is the window between the early
        // ACK and the background copy landing; the other modes quiesce
        // (near-)instantly by construction. Draining here also keeps
        // one turn's replica push out of the next turn's ACK.
        drain.record(drain_lag(&mut ctl));
        ack_secs
    });
    for ((mode_name, _, _, drain), ack) in modes.iter().zip(&acks) {
        let knobs = [
            ("scenario", Json::str("replication_ack")),
            ("mode", Json::str(*mode_name)),
            ("bytes", Json::num(size as f64)),
            ("n", Json::num(ack.count() as f64)),
        ];
        let ack = spread(["ack_usec", "ack_usec_min", "ack_usec_max"], ack, 1e6);
        let drain = spread(
            ["drain_usec", "drain_usec_min", "drain_usec_max"],
            drain,
            1e6,
        );
        doc.row(knobs.into_iter().chain(ack).chain(drain));
    }
    // Every durable mode actually landed its copy on the peer.
    for mode_name in ["local_plus_one", "synchronous"] {
        assert_eq!(
            fs::read(root.join(format!("repl/peer/ds/out/{mode_name}/0.dat"))).unwrap(),
            payload,
            "{mode_name} replica intact"
        );
    }
    assert!(
        !root.join("repl/peer/ds/out/local_only").exists(),
        "local_only must not replicate"
    );
    doc.note(format!(
        "replication_ack: {} MiB stage-outs against a live loopback replica peer, median of {reps} turns with the three modes taking turns; ack_usec is submit to the wait's return, drain_usec the ACK-to-zero-lag window after it; gate: local_plus_one (ACKs on the local leg) ACKs faster than synchronous (ACKs when the replica landed); synchronous adds up from its legs: local_only's ACK plus bytes over remote_push's rate in BENCH_remote.json (PR 19 recorded 33-39 ms at 32 MiB before PR 20 shortened the local leg)",
        size / MIB
    ));
    doc
}

// --- the gates: one `check_<family>` per document ---------------------
//
// Each is a pure function of its document and states every bound of its
// family once. `run` applies it to the document a family just produced,
// `check` to the committed file; nothing else in this binary compares
// two timings.

fn num(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

/// The rows of one scenario; an empty set is an error.
fn scenario_rows<'a>(doc: &'a Json, scenario: &str) -> Result<Vec<&'a Json>, String> {
    let rows: Vec<&Json> = doc
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("scenario").and_then(Json::as_str) == Some(scenario))
        .collect();
    if rows.is_empty() {
        let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("BENCH_{bench}.json has no {scenario} rows"));
    }
    Ok(rows)
}

/// `field` of the row among `rows` whose `knob` reads `at`.
fn field_at(rows: &[&Json], knob: &str, at: f64, field: &str) -> Result<f64, String> {
    rows.iter()
        .find(|r| num(r, knob) == Some(at))
        .and_then(|r| num(r, field))
        .ok_or(format!("no {field} in a row with {knob} = {at}"))
}

fn saw_partial_progress(row: &&Json) -> bool {
    row.get("partial_progress_seen").and_then(Json::as_bool) == Some(true)
}

/// Wire-v7 pipelining must pay under concurrency: at every client count
/// of 64 and up, some depth ≥ 8 moves more pings per second than the
/// same turns' depth 1.
fn check_control(control: &Json) -> Result<(), String> {
    let rows = scenario_rows(control, "control_concurrent")?;
    let mut baselines = rows
        .iter()
        .filter(|r| num(r, "clients") >= Some(64.0) && num(r, "depth") == Some(1.0))
        .peekable();
    if baselines.peek().is_none() {
        return Err("control_concurrent: no depth-1 row with clients >= 64".into());
    }
    for baseline in baselines {
        let clients = num(baseline, "clients");
        let deepest = rows
            .iter()
            .filter(|r| num(r, "clients") == clients && num(r, "depth") >= Some(8.0))
            .filter_map(|r| num(r, "ops_per_s"))
            .fold(0.0, f64::max);
        // A depth-1 row without a rate fails like one nothing beat.
        if deepest <= num(baseline, "ops_per_s").unwrap_or(f64::INFINITY) {
            return Err(format!(
                "control_concurrent: depth >= 8 at {deepest:.0} ops/s is not above its depth-1 row: {baseline:?}"
            ));
        }
    }
    scenario_rows(control, "fig4_submit").map(drop)
}

/// Two files submitted together move at no less than `floor` x the
/// one-file aggregate rate — on a box with a second CPU to move them.
fn two_files_keep_up(doc: &Json, scenario: &str, floor: f64) -> Result<(), String> {
    let together = scenario_rows(doc, scenario)?;
    let rate = |files: f64| field_at(&together, "files", files, "gib_per_s");
    let (one, two) = (rate(1.0)?, rate(2.0)?);
    if num(together[0], "nproc") >= Some(2.0) && two < floor * one {
        return Err(format!(
            "{scenario}: 2 files {two:.3} < {floor} x 1 file {one:.3} GiB/s"
        ));
    }
    Ok(())
}

/// Live progress, and what one lane per file promises: extra workers do
/// not slow one file's copy, a second file uses a second worker.
fn check_local(local: &Json) -> Result<(), String> {
    let sweep = scenario_rows(local, "chunk_sweep")?;
    if let Some(slow) = sweep.iter().find(|r| num(r, "vs_one_worker") < Some(0.85)) {
        return Err(format!(
            "chunk_sweep: below 0.85 x its 1-worker row: {slow:?}"
        ));
    }
    if !sweep.iter().any(saw_partial_progress) {
        return Err("chunk_sweep: no row saw partial bytes_moved".into());
    }
    two_files_keep_up(local, "concurrent_copies", 1.3)?;
    let policies = scenario_rows(local, "policy_mix")?.len();
    if policies != 4 {
        return Err(format!("policy_mix: {policies} policy rows, expected 4"));
    }
    Ok(())
}

/// Windows the remote gate covers, and how far under the same turns'
/// window 1 one may sit. ROADMAP item 0 asked for 0.85; that is where a
/// healthy window 8 sits on this box (0.87-0.9 of window 1 at 64 MiB),
/// so the floor was moved once, to between what healthy runs and a
/// stalled window read (both in BENCH_remote.json's notes).
const GATED_WINDOW: usize = 4;
const WINDOW_FLOOR: f64 = 0.7;

/// How far under one push's rate two pushes together may sit: a second
/// file must not cost the first its lane. (That it adds rate is not
/// asked for: one push already occupies a sender and a receiver thread.)
const PUSHES_FLOOR: f64 = 0.9;

/// The window never costs much (a stalled one does), in either
/// direction, a second pushed file does not slow the first, and a
/// remote transfer shows live progress.
fn check_remote(remote: &Json) -> Result<(), String> {
    for scenario in ["remote_push", "remote_pull"] {
        let rows = scenario_rows(remote, scenario)?;
        let mut windowed = rows
            .iter()
            .filter(|r| num(r, "window") >= Some(GATED_WINDOW as f64))
            .peekable();
        if windowed.peek().is_none() {
            return Err(format!("{scenario}: no rows with window >= {GATED_WINDOW}"));
        }
        if let Some(stalled) = windowed.find(|r| num(r, "vs_window_1") < Some(WINDOW_FLOOR)) {
            return Err(format!(
                "{scenario}: below {WINDOW_FLOOR} x its window-1 row: {stalled:?}"
            ));
        }
    }
    two_files_keep_up(remote, "concurrent_pushes", PUSHES_FLOOR)?;
    let mut staged = scenario_rows(remote, "chunk_ablation_push")?;
    staged.extend(scenario_rows(remote, "chunk_ablation_pull")?);
    if !staged.iter().any(saw_partial_progress) {
        return Err("chunk_ablation: no remote transfer saw partial bytes_moved".into());
    }
    Ok(())
}

/// No bound yet: the makespan row is there.
fn check_flow(flow: &Json) -> Result<(), String> {
    scenario_rows(flow, "flow_makespan").map(drop)
}

/// One row per durability mode, and the early ACK is early:
/// `local_plus_one` returns before `synchronous` does.
fn check_replication(replication: &Json) -> Result<(), String> {
    let acks = scenario_rows(replication, "replication_ack")?;
    let ack_of = |mode: &str| {
        acks.iter()
            .find(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
            .and_then(|r| num(r, "ack_usec"))
            .ok_or(format!("replication_ack: no ack_usec for mode {mode}"))
    };
    ack_of("local_only")?;
    let (plus_one, synchronous) = (ack_of("local_plus_one")?, ack_of("synchronous")?);
    if plus_one >= synchronous {
        return Err(format!(
            "replication_ack: local_plus_one {plus_one:.0} usec >= synchronous {synchronous:.0} usec"
        ));
    }
    Ok(())
}

type Family = fn(&Path) -> BenchDoc;
type Gate = fn(&Json) -> Result<(), String>;

/// (document, the family that writes it, its gate), in run order.
const FAMILIES: [(&str, Family, Gate); 5] = [
    ("control", bench_control, check_control),
    ("local", bench_local, check_local),
    ("remote", bench_remote, check_remote),
    ("flow", bench_flow, check_flow),
    ("replication", bench_replication, check_replication),
];

/// `--check`: every gate on the five documents in the working
/// directory. Returns the failures.
fn check() -> Vec<String> {
    let failed = |(bench, _, gate): &(&str, Family, Gate)| {
        let verdict = json::load(bench).and_then(|doc| gate(&doc));
        if verdict.is_ok() {
            println!("BENCH_{bench}.json: ok");
        }
        verdict.err()
    };
    FAMILIES.iter().filter_map(failed).collect()
}

/// Run every family, write and print every document, gate each as it
/// is written. Returns the failures: none of them stops the run.
fn run() -> Vec<String> {
    let root = std::env::temp_dir().join(format!("norns-bench-suite-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let mut failures = Vec::new();
    for (_, family, gate) in FAMILIES {
        // One scratch tree per family, gone before the next starts.
        fs::create_dir_all(&root).unwrap();
        let doc = family(&root);
        let _ = fs::remove_dir_all(&root);
        doc.print();
        println!("  json: {}\n", doc.write().unwrap().display());
        failures.extend(gate(&doc.to_json()).err());
    }
    failures
}

fn main() {
    let failures = if std::env::args().any(|a| a == "--check") {
        check()
    } else {
        run()
    };
    for failure in &failures {
        eprintln!("gate failed: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("every gate holds");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document holding `rows`, each a JSON object literal.
    fn doc(rows: &[String]) -> Json {
        Json::parse(&format!(r#"{{"bench":"t","rows":[{}]}}"#, rows.join(","))).unwrap()
    }

    /// `good` with every `from` replaced by `to`: one broken thing at a time.
    fn broken(good: &[String], from: &str, to: &str) -> Vec<String> {
        assert!(good.iter().any(|row| row.contains(from)), "{from}");
        good.iter().map(|row| row.replace(from, to)).collect()
    }

    #[test]
    fn the_sampler_gives_every_alternative_one_turn_per_repetition() {
        let mut calls = Vec::new();
        let samples = sample_turns(2, &mut ["a", "b", "c"], |name| {
            calls.push(*name);
            calls.len() as f64
        });
        assert_eq!(calls, ["a", "b", "c", "a", "b", "c"]);
        let of = |i: usize| samples[i].samples().to_vec();
        assert_eq!(
            (of(0), of(1), of(2)),
            (vec![1., 4.], vec![2., 5.], vec![3., 6.])
        );
    }

    #[test]
    fn a_sampled_row_states_n_and_its_median_fastest_and_slowest_turn() {
        let mut secs = Summary::new();
        [0.5, 0.2, 0.3].into_iter().for_each(|s| secs.record(s));
        let fields: Vec<_> = turns(&secs).collect();
        let expect = [
            ("n", 3.0),
            ("secs", 0.3),
            ("secs_min", 0.2),
            ("secs_max", 0.5),
        ];
        assert_eq!(fields, expect.map(|(k, v)| (k, Json::Num(v))));
    }

    fn remote_rows(push_ratios: [f64; 3], pull_ratios: [f64; 3]) -> Vec<String> {
        let mut rows = Vec::new();
        for (dir, ratios) in [("push", push_ratios), ("pull", pull_ratios)] {
            for (window, ratio) in [1, 4, 8].into_iter().zip(ratios) {
                rows.push(format!(
                    r#"{{"scenario":"remote_{dir}","window":{window},"vs_window_1":{ratio}}}"#
                ));
            }
            rows.push(format!(
                r#"{{"scenario":"chunk_ablation_{dir}","partial_progress_seen":true}}"#
            ));
        }
        for (files, rate) in [(1, 1.2), (2, 1.15)] {
            rows.push(format!(
                r#"{{"scenario":"concurrent_pushes","files":{files},"nproc":2,"gib_per_s":{rate}}}"#
            ));
        }
        rows
    }

    #[test]
    fn the_window_gate_passes_near_window_1_and_fails_on_a_stalled_window() {
        let near = remote_rows([1.0, 0.9, 1.1], [1.0, 1.1, 0.9]);
        assert_eq!(check_remote(&doc(&near)), Ok(()));
        // PR 19's pre-fix push efficiency, in either direction.
        for stalled in [
            remote_rows([1.0, 0.14, 0.14], [1.0, 1.0, 1.0]),
            remote_rows([1.0, 1.0, 1.0], [1.0, 1.0, 0.14]),
        ] {
            let refusal = check_remote(&doc(&stalled)).unwrap_err();
            assert!(refusal.contains("window-1"), "{refusal}");
        }
        // Windows below the gated ones are not its business.
        let only_small = broken(&near, r#""window":4"#, r#""window":2"#);
        assert_eq!(check_remote(&doc(&only_small)), Ok(()));
        let none_gated = broken(&only_small, r#""window":8"#, r#""window":3"#);
        assert!(check_remote(&doc(&none_gated)).is_err());
        let no_ratio = broken(&near, "vs_window_1", "vs_nothing");
        assert!(check_remote(&doc(&no_ratio)).is_err());
        let no_progress = broken(&near, "true", "false");
        assert!(check_remote(&doc(&no_progress)).is_err());
        // A second pushed file that costs the first its lane; one CPU
        // cannot show it either way.
        let queued = broken(&near, "1.15", "0.9");
        let refusal = check_remote(&doc(&queued)).unwrap_err();
        assert!(refusal.contains("concurrent_pushes"), "{refusal}");
        let one_cpu = broken(&queued, r#""nproc":2"#, r#""nproc":1"#);
        assert_eq!(check_remote(&doc(&one_cpu)), Ok(()));
    }

    fn control_rows() -> Vec<String> {
        let row = |clients: u32, depth: u32, rate: u32| {
            format!(
                r#"{{"scenario":"control_concurrent","clients":{clients},"depth":{depth},"ops_per_s":{rate}}}"#
            )
        };
        vec![
            row(1, 1, 50_000),
            row(1, 8, 40_000),
            row(64, 1, 100_000),
            row(64, 8, 300_000),
            r#"{"scenario":"fig4_submit","processes":1}"#.to_string(),
        ]
    }

    #[test]
    fn the_control_gate_wants_depth_8_above_depth_1_at_64_clients() {
        let good = control_rows();
        assert_eq!(check_control(&doc(&good)), Ok(()));
        let not_above = broken(&good, "300000", "100000");
        assert!(check_control(&doc(&not_above)).is_err());
        let no_crowd = broken(&good, r#""clients":64"#, r#""clients":32"#);
        assert!(check_control(&doc(&no_crowd)).is_err());
        let no_baseline = broken(
            &good,
            r#""clients":64,"depth":1"#,
            r#""clients":64,"depth":2"#,
        );
        assert!(check_control(&doc(&no_baseline)).is_err());
        assert!(
            check_control(&doc(&good[..4])).is_err(),
            "fig4 rows missing"
        );
    }

    #[test]
    fn the_replication_gate_wants_the_early_ack_below_the_synchronous_one() {
        let row = |mode: &str, ack: u32| {
            format!(r#"{{"scenario":"replication_ack","mode":"{mode}","ack_usec":{ack}}}"#)
        };
        let good = [
            row("local_only", 14_000),
            row("local_plus_one", 15_000),
            row("synchronous", 36_000),
        ];
        assert_eq!(check_replication(&doc(&good)), Ok(()));
        assert!(check_replication(&doc(&broken(&good, "15000", "36000"))).is_err());
        assert!(
            check_replication(&doc(&good[1..])).is_err(),
            "a mode missing"
        );
    }

    fn local_rows() -> Vec<String> {
        let mut rows = vec![
            r#"{"scenario":"chunk_sweep","workers":1,"vs_one_worker":1,"partial_progress_seen":true}"#.to_string(),
            r#"{"scenario":"chunk_sweep","workers":4,"vs_one_worker":0.9,"partial_progress_seen":false}"#.to_string(),
            r#"{"scenario":"concurrent_copies","files":1,"nproc":2,"gib_per_s":3.0}"#.to_string(),
            r#"{"scenario":"concurrent_copies","files":2,"nproc":2,"gib_per_s":5.5}"#.to_string(),
        ];
        rows.extend(
            ["fcfs", "sjf", "job-fair", "weighted"]
                .map(|policy| format!(r#"{{"scenario":"policy_mix","policy":"{policy}"}}"#)),
        );
        rows
    }

    #[test]
    fn each_local_condition_has_a_document_that_fails_it() {
        let good = local_rows();
        assert_eq!(check_local(&doc(&good)), Ok(()));
        let slow_two_files = broken(&good, "5.5", "3.8");
        let failing = [
            (
                "1-worker row",
                broken(&good, r#""vs_one_worker":0.9"#, r#""vs_one_worker":0.8"#),
            ),
            ("partial bytes_moved", broken(&good, "true", "false")),
            ("1.3 x 1 file", slow_two_files.clone()),
            ("expected 4", good[..7].to_vec()),
        ];
        for (names_it, rows) in failing {
            let refusal = check_local(&doc(&rows)).unwrap_err();
            assert!(refusal.contains(names_it), "{refusal}");
        }
        // One CPU cannot run two lanes: the two-file bound is skipped.
        let one_cpu = broken(&slow_two_files, r#""nproc":2"#, r#""nproc":1"#);
        assert_eq!(check_local(&doc(&one_cpu)), Ok(()));
    }
}
