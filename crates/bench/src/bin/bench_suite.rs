//! The canonical perf suite: the one binary in this crate that drives
//! live daemons and engines, and the one writer of the five
//! `BENCH_*.json` files at the repo root.
//!
//! ```text
//! cargo run --release --bin bench_suite            # full run
//! NORNS_QUICK=1 cargo run --release --bin bench_suite   # CI smoke
//! cargo run --release --bin bench_suite -- --check      # validate files only
//! ```
//!
//! One output file per family (schema in `norns_bench::json`); a run
//! writes every file whole:
//!
//! 1. **control** — control-plane ops/sec against a live urd daemon
//!    over its AF_UNIX socket: single-client round-trips (ping and
//!    status), a concurrent sweep of client counts × wire-v7 pipeline
//!    depths, and the paper's Fig. 4 submit hammer (1–32 processes).
//!    Depth 1 *is* the pre-v7 one-outstanding discipline, so every run
//!    carries its own baseline; the suite fails unless pipelined
//!    depth ≥ 8 beats it at 64+ clients.
//! 2. **local** — the no-network data plane through a bare engine:
//!    chunk size × workers on one file (fails if extra workers slow
//!    it or `query()` saw no partial `bytes_moved`); 1, 2 and 4 files
//!    at once (fails unless two move ≥ 1.3× one file's rate); the
//!    four arbitration policies on a skewed real-file mix.
//! 3. **remote** — loopback push + pull bandwidth across data-plane
//!    window sizes and across chunk sizes. Window 1 *is* the old
//!    stop-and-wait protocol, so every run carries its own baseline;
//!    the suite fails if the windowed (≥4) data plane is not strictly
//!    faster than it in both directions. The chunk sweep polls
//!    `query()` and fails unless it saw live progress; every transfer
//!    is compared byte for byte.
//! 4. **flow** — end-to-end makespan of a two-job `#NORNS` workflow
//!    (remote pull, compute, remote push, dependent local staging)
//!    driven by the norns-flow executor against two live daemons.
//! 5. **replication** — stage-out ACK latency under each wire-v8
//!    durability mode against a live replica peer, plus the time the
//!    background queue takes to drain the replication lag to zero.
//!    `local_plus_one` ACKs on the local leg, so the suite fails
//!    unless it ACKs faster than `synchronous` in the same run.
//!
//! `--check` reloads the five files, validates their schema, and
//! re-asserts the gates from the recorded rows — CI runs the suite in
//! quick mode and then this mode.

use std::fs;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use norns_bench::json::{self, BenchDoc, Json};
use norns_bench::{gibps, quick_mode, Summary};
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
const SOURCE: &str = "bench_suite";

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
/// registries cross-wired. `tune` finishes each node's config.
fn spawn_pair(
    root: &Path,
    tune: impl Fn(DaemonConfig) -> DaemonConfig,
) -> [(UrdDaemon, CtlClient); 2] {
    let mut nodes = ["nodea", "nodeb"].map(|name| {
        let config = DaemonConfig::in_dir(root.join(name).join("sockets"));
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
fn write_clean(path: &Path, bytes: Vec<u8>) {
    fs::write(path, bytes).unwrap();
    fs::File::open(path).unwrap().sync_all().unwrap();
}

/// Block until task `id` finishes; anything but `Finished` is fatal.
fn finished(engine: &Engine, id: u64) -> TaskStats {
    let stats = engine.wait(id, 0).expect("task exists");
    assert_eq!(stats.state, TaskState::Finished, "task {id}");
    stats
}

/// Smallest of `reps` timings.
fn best_of(reps: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| run()).fold(f64::MAX, f64::min)
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

/// Concurrent-client sweep: client counts × wire-v7 pipeline depths.
/// Depth 1 is the in-run baseline (one request outstanding, i.e. the
/// pre-v7 request/response discipline over the same reactor daemon).
fn control_sweep() -> (&'static [usize], &'static [usize]) {
    if quick_mode() {
        (&[1, 64], &[1, 8])
    } else {
        (&[1, 64, 512], &[1, 8, 32])
    }
}

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
/// `per_client` pings with up to `depth` outstanding. Returns
/// (total_ops, ops_per_s); only the ping loop is timed, not the
/// connection setup.
fn measure_concurrent(
    control_path: &Path,
    clients: usize,
    depth: usize,
    per_client: usize,
) -> (u64, f64) {
    let start_line = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let start_line = Arc::clone(&start_line);
        let control_path = control_path.to_path_buf();
        handles.push(std::thread::spawn(move || {
            let mut conn = CtlClient::connect(&control_path).unwrap();
            start_line.wait();
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
        }));
    }
    start_line.wait();
    let start = Instant::now();
    for h in handles {
        h.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    let total = (clients * per_client) as u64;
    (total, total as f64 / secs)
}

fn measure_ops(ctl: &mut CtlClient, ops: u64, mut f: impl FnMut(&mut CtlClient)) -> f64 {
    let start = Instant::now();
    for _ in 0..ops {
        f(ctl);
    }
    start.elapsed().as_secs_f64()
}

/// The paper's Fig. 4 load: `procs` client threads each submit
/// `per_process` consecutive tasks over their own control connection.
/// The timed span is what the paper measures — process the request,
/// create a task descriptor, queue it, respond. Returns (requests/s,
/// mean latency µs, worst per-thread p99 µs).
fn submit_hammer(control_path: &Path, procs: usize, per_process: u64) -> (f64, f64, f64) {
    // The task itself is a cheap removal of a missing path.
    let spec = TaskSpec::new(TaskOp::Remove, posix("ctrl-ds", "nonexistent"), None);
    let start = Instant::now();
    let handles: Vec<_> = (0..procs)
        .map(|_| {
            let path = control_path.to_path_buf();
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut client = CtlClient::connect(&path).expect("client connect");
                let mut latencies = Vec::with_capacity(per_process as usize);
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
                    latencies.push(t0.elapsed().as_nanos() as u64);
                }
                latencies.sort_unstable();
                let p99 = latencies[(latencies.len() as f64 * 0.99) as usize];
                (latencies.iter().sum::<u64>(), p99)
            })
        })
        .collect();
    let (mut sum_ns, mut p99_ns) = (0u64, 0u64);
    for h in handles {
        let (sum, p99) = h.join().expect("client thread");
        sum_ns += sum;
        p99_ns = p99_ns.max(p99);
    }
    let total = per_process * procs as u64;
    (
        total as f64 / start.elapsed().as_secs_f64(),
        sum_ns as f64 / total as f64 / 1e3,
        p99_ns as f64 / 1e3,
    )
}

fn bench_control(root: &Path) -> BenchDoc {
    let ops = if quick_mode() { 2_000u64 } else { 20_000 };
    let (daemon, mut ctl) = spawn_node(
        root,
        "ctrl",
        DaemonConfig::in_dir(root.join("ctrl/sockets")),
    );
    let ctl_path = daemon.control_path.clone();

    let mut doc = BenchDoc::new("control");
    let timings = [
        ("ping", measure_ops(&mut ctl, ops, |c| c.ping().unwrap())),
        (
            "status",
            measure_ops(&mut ctl, ops, |c| {
                c.status().unwrap();
            }),
        ),
    ];
    for (op, secs) in timings {
        doc.row(
            SOURCE,
            vec![
                ("scenario", Json::str("control_roundtrip")),
                ("op", Json::str(op)),
                ("ops", Json::num(ops as f64)),
                ("ops_per_s", Json::num(ops as f64 / secs)),
                ("mean_usec", Json::num(secs * 1e6 / ops as f64)),
            ],
        );
    }
    doc.note(format!(
        "{ops} sequential round-trips per op against one live daemon, single client"
    ));

    // Concurrent storm: clients × pipeline depth over the same daemon.
    raise_nofile();
    let (client_counts, depths) = control_sweep();
    let total_target = if quick_mode() { 8_000usize } else { 40_000 };
    // (clients, depth, ops/s)
    let mut sweep: Vec<(usize, usize, f64)> = Vec::new();
    for &clients in client_counts {
        for &depth in depths {
            let per_client = (total_target / clients).clamp(depth * 2, 20_000);
            let (total, rate) = measure_concurrent(&ctl_path, clients, depth, per_client);
            sweep.push((clients, depth, rate));
            doc.row(
                SOURCE,
                vec![
                    ("scenario", Json::str("control_concurrent")),
                    ("clients", Json::num(clients as f64)),
                    ("depth", Json::num(depth as f64)),
                    ("ops", Json::num(total as f64)),
                    ("ops_per_s", Json::num(rate)),
                ],
            );
        }
    }
    // Regression gate: under real concurrency (64+ clients) the
    // pipelined discipline (depth >= 8) must beat the one-outstanding
    // baseline measured in the same run.
    for &clients in client_counts.iter().filter(|c| **c >= 64) {
        let rate_at = |d: usize| {
            sweep
                .iter()
                .find(|(c, dd, _)| *c == clients && *dd == d)
                .map(|(_, _, r)| *r)
                .expect("swept combination")
        };
        let baseline = rate_at(1);
        let best_deep = depths
            .iter()
            .filter(|d| **d >= 8)
            .map(|&d| rate_at(d))
            .fold(0.0f64, f64::max);
        assert!(
            best_deep > baseline,
            "at {clients} clients, pipelined depth>=8 ({best_deep:.0} ops/s) did not beat depth 1 ({baseline:.0} ops/s) — pipelining regression"
        );
    }
    doc.note("control_concurrent rows storm one daemon with N pipelined clients (ping ops/sec); the suite fails unless depth>=8 beats the same-run depth-1 baseline at 64+ clients");

    // Fig. 4: blocking submits from 1–32 concurrent processes.
    let per_process: u64 = if quick_mode() { 5_000 } else { 50_000 };
    for procs in [1usize, 2, 4, 8, 16, 32] {
        // Keep the completion table small between sweeps.
        ctl.send_command(DaemonCommand::ClearCompletions).unwrap();
        let (rate, mean_us, p99_us) = submit_hammer(&ctl_path, procs, per_process);
        doc.row(
            SOURCE,
            vec![
                ("scenario", Json::str("fig4_submit")),
                ("processes", Json::num(procs as f64)),
                ("requests_per_process", Json::num(per_process as f64)),
                ("req_per_s", Json::num(rate)),
                ("mean_latency_us", Json::num(mean_us)),
                ("p99_latency_us", Json::num(p99_us)),
            ],
        );
    }
    doc.note("fig4_submit rows are the paper's Fig. 4 load (consecutive blocking task submissions per process over AF_UNIX; the `fig4` binary prints them beside the paper's figures)");
    doc
}

// --- scenario 2: the local data plane --------------------------------

/// Chunk size × workers sweep on one large file through an in-process
/// engine; gated by [`check_local`]. The raw-syscall baseline is
/// `benchmark/`'s `ceiling.copy_file_range_gib_per_s`, not a row here.
fn chunk_sweep(root: &Path, doc: &mut BenchDoc) {
    let size = if quick_mode() { 256 * MIB } else { 1024 * MIB };
    let reps = 3;
    let mount = root.join("chunk");
    fs::create_dir_all(&mount).unwrap();
    write_clean(&mount.join("src"), vec![0xc3u8; size as usize]);

    for chunk_mib in [4u64, 8, 32] {
        // Pool sizes take turns inside each repetition, so a slow second
        // on the box costs every row the gate compares one repetition.
        let mut best = [1usize, 2, 4].map(|workers| (workers, f64::MAX, false));
        for _ in 0..reps {
            for (workers, secs, partial) in &mut best {
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
                *secs = secs.min(start.elapsed().as_secs_f64());
                engine.shutdown();
            }
        }
        let alone = best[0].1;
        for (workers, secs, partial) in best {
            doc.row(
                SOURCE,
                vec![
                    ("scenario", Json::str("chunk_sweep")),
                    ("chunk_mib", Json::num(chunk_mib as f64)),
                    ("workers", Json::num(workers as f64)),
                    ("bytes", Json::num(size as f64)),
                    ("secs", Json::num(secs)),
                    ("gib_per_s", Json::num(size as f64 / secs / GIB)),
                    ("vs_one_worker", Json::num(alone / secs)),
                    ("partial_progress_seen", Json::Bool(partial)),
                ],
            );
        }
    }
    doc.note(format!(
        "chunk_sweep: one {} MiB file through an in-process engine per chunk size x workers, best-of-{reps} with the worker counts taking turns; a local copy's chunks run one at a time (one destination inode takes one writer at a time), so the suite fails if a 2- or 4-worker row falls below 0.85x the 1-worker row at the same chunk size (vs_one_worker), or if query() never saw partial bytes_moved",
        size / MIB
    ));
    let _ = fs::remove_dir_all(&mount);
}

/// What the pool is for now that one file takes one worker: 1, 2 and 4
/// distinct files submitted together to one default-config engine.
fn concurrent_copies(root: &Path, doc: &mut BenchDoc) {
    let size = if quick_mode() { 64 * MIB } else { 256 * MIB };
    let reps = if quick_mode() { 2 } else { 3 };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mount = root.join("concurrent");
    fs::create_dir_all(&mount).unwrap();
    for i in 0..4 {
        write_clean(&mount.join(format!("src{i}")), vec![0x5au8; size as usize]);
    }
    let spec = |i| tmp0_copy(&format!("src{i}"), &format!("out/dst{i}"));
    for files in [1usize, 2, 4] {
        let secs = best_of(reps, || {
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
        let bytes = (files as u64 * size) as f64;
        doc.row(
            SOURCE,
            vec![
                ("scenario", Json::str("concurrent_copies")),
                ("files", Json::num(files as f64)),
                ("nproc", Json::num(nproc as f64)),
                ("bytes", Json::num(bytes)),
                ("secs", Json::num(secs)),
                ("gib_per_s", Json::num(bytes / secs / GIB)),
            ],
        );
    }
    doc.note(format!(
        "concurrent_copies: 1, 2 and 4 distinct {} MiB files submitted together to one in-process engine at the defaults (4 workers, 8 MiB chunks, fcfs), best-of-{reps}, aggregate rate; each file is one chain of chunks on one worker, so the suite fails unless 2 files move at >= 1.3x the 1-file rate{}; the files=1 row stands in for the old single-size local_copy row (through a daemon: BENCH_remote.json's chunk_ablation_local at 8 MiB)",
        size / MIB,
        if nproc < 2 { " (gate skipped: nproc < 2)" } else { "" }
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

        doc.row(
            SOURCE,
            vec![
                ("scenario", Json::str("policy_mix")),
                ("policy", Json::str(policy.name())),
                ("mean_sojourn_ms", Json::num(all_sojourn.mean())),
                ("p95_sojourn_ms", Json::num(all_sojourn.quantile(0.95))),
                ("small_mean_ms", Json::num(small_sojourn.mean())),
                ("small_p95_ms", Json::num(small_sojourn.quantile(0.95))),
                ("high_prio_wait_ms", Json::num(high_wait_ms)),
                ("busy_rejections", Json::num(busy_rejections as f64)),
            ],
        );
    }
    doc.note(format!(
        "policy_mix: {big_n} x {big_mb} MiB (job 1), then {small_n} x {small_mb} MiB + one priority-250 latecomer (job 2) through an in-process engine, 2 workers, queue capacity 8; sjf shrinks the small-task mean, weighted-priority the urgent wait"
    ));
    let _ = fs::remove_dir_all(&mount);
}

fn bench_local(root: &Path) -> BenchDoc {
    let mut doc = BenchDoc::new("local");
    chunk_sweep(root, &mut doc);
    concurrent_copies(root, &mut doc);
    policy_mix(root, &mut doc);
    check_local(&doc.to_json()).unwrap_or_else(|e| panic!("{e}"));
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

/// Pulls back the file [`push_spec`] landed on `nodeb`.
fn pull_spec() -> TaskSpec {
    copy_spec(
        remote("nodeb", "nodeb-ds", "pushed.dat"),
        posix("nodea-ds", "pulled.dat"),
    )
}

fn bench_remote(root: &Path) -> BenchDoc {
    let size = if quick_mode() { 64 * MIB } else { 256 * MIB };
    let reps = if quick_mode() { 2 } else { 3 };
    let payload = patterned(size as usize);
    let pushed = root.join("nodeb/ds/pushed.dat");
    let pulled = root.join("nodea/ds/pulled.dat");
    let transfer_row = |scenario: String, knob: (&'static str, f64), secs: f64| {
        vec![
            ("scenario", Json::Str(scenario)),
            (knob.0, Json::num(knob.1)),
            ("bytes", Json::num(size as f64)),
            ("secs", Json::num(secs)),
            ("gib_per_s", Json::num(size as f64 / secs / GIB)),
        ]
    };

    let mut doc = BenchDoc::new("remote");
    // (window, push GiB/s, pull GiB/s)
    let mut results: Vec<(usize, f64, f64)> = Vec::new();
    for &window in windows() {
        let [(_daemon_a, mut ctl_a), _node_b] = spawn_pair(root, |c| c.with_remote_window(window));
        fs::write(root.join("nodea/ds/src.dat"), &payload).unwrap();

        let push_secs = best_of(reps, || {
            let _ = fs::remove_file(&pushed);
            timed_copy(&mut ctl_a, push_spec(), size)
        });
        assert!(
            fs::read(&pushed).unwrap() == payload,
            "pushed bytes differ (window {window})"
        );
        let pull_secs = best_of(reps, || {
            let _ = fs::remove_file(&pulled);
            timed_copy(&mut ctl_a, pull_spec(), size)
        });
        assert!(
            fs::read(&pulled).unwrap() == payload,
            "pulled bytes differ (window {window})"
        );

        results.push((window, size as f64 / push_secs, size as f64 / pull_secs));
        for (dir, secs) in [("push", push_secs), ("pull", pull_secs)] {
            let knob = ("window", window as f64);
            doc.row(SOURCE, transfer_row(format!("remote_{dir}"), knob, secs));
        }
    }

    // Regression gate: the pipelined data plane (any window ≥ 4) must
    // beat the same-run stop-and-wait baseline in both directions.
    let (_, base_push, base_pull) = results[0];
    assert_eq!(results[0].0, 1, "window sweep must start at the baseline");
    let windowed = results.iter().filter(|(w, _, _)| *w >= 4);
    let best_push = windowed.clone().map(|r| r.1).fold(0.0f64, f64::max);
    let best_pull = windowed.map(|r| r.2).fold(0.0f64, f64::max);
    assert!(
        best_push > base_push,
        "windowed push ({}) did not beat stop-and-wait ({}) — pipelining regression",
        gibps(best_push),
        gibps(base_push)
    );
    assert!(
        best_pull > base_pull,
        "windowed pull ({}) did not beat stop-and-wait ({}) — pipelining regression",
        gibps(best_pull),
        gibps(base_pull)
    );
    doc.note(format!(
        "remote_push/remote_pull: one {} MiB file staged over 127.0.0.1 between two live daemons, default chunk size, best-of-{reps}",
        size / MIB
    ));
    doc.note("window=1 is the stop-and-wait baseline; the suite fails unless some window>=4 beats it in both directions");
    doc.note("window>=4 at or a little below window=1 is expected on loopback: both directions stream through sendfile, so a stop-and-wait range idles the wire for one request turnaround per 4 MiB, while a window's ranges are smaller (chunk/window, 1 MiB at the defaults: 4x the frames, ACKs and wake-ups per byte, about 8 % slower on 2 vCPUs with 4 workers when PR 19 measured it); a window pays off against a real round-trip time");
    doc.note("the gate above is therefore a coin flip on loopback (windows 1-16 are within noise of each other: it passed 7 of 20 quick runs before PR 19, 4 and 3 of 20 in two sets after): rerun before suspecting a change; a stalled window (the 40 ms Nagle x delayed-ACK pause PR 19 removed) is caught deterministically by norns-ipc's a_window_of_pipelined_stores_is_acknowledged_without_a_stall");

    // Chunk-size sweep at the default window, polling `query()` while
    // the wire is busy; `local` is the same-daemon, no-network copy of
    // the same file.
    let mut any_partial = false;
    for chunk_mib in [1u64, 4, 8] {
        let [(_daemon_a, mut ctl_a), _node_b] =
            spawn_pair(root, |c| c.with_chunk_size(chunk_mib * MIB));
        fs::write(root.join("nodea/ds/src.dat"), &payload).unwrap();
        for (direction, spec, lands_at) in [
            (
                "local",
                local_spec as fn() -> TaskSpec,
                root.join("nodea/ds/local.dat"),
            ),
            ("push", push_spec, pushed.clone()),
            ("pull", pull_spec, pulled.clone()),
        ] {
            let mut partial = false;
            let secs = best_of(reps, || {
                let _ = fs::remove_file(&lands_at);
                let (secs, saw) = polled_copy(&mut ctl_a, spec(), size);
                partial |= saw;
                secs
            });
            assert!(
                fs::read(&lands_at).unwrap() == payload,
                "{direction} bytes differ (chunk {chunk_mib} MiB)"
            );
            any_partial |= partial && direction != "local";
            let mut row = transfer_row(
                format!("chunk_ablation_{direction}"),
                ("chunk_mib", chunk_mib as f64),
                secs,
            );
            row.push(("partial_progress_seen", Json::Bool(partial)));
            doc.row(SOURCE, row);
        }
    }
    assert!(
        any_partial,
        "query() must observe partial bytes_moved during a remote transfer"
    );
    doc.note("chunk_ablation_*: the same file staged both ways per chunk size at the default window, polling query(); local = same-daemon baseline; the suite fails unless every transfer is byte-exact and a remote one showed partial bytes_moved");
    doc.note("a remote row 0.1-0.3 s slower than its neighbours in an otherwise flat sweep is a residual data-plane stall that best-of-N did not hide: /proc/net/netstat still counts fast retransmits, out-of-order queueing and loss probes on loopback during a transfer (ROADMAP item 2, not attributed further)");
    doc
}

// --- scenario 4: norns-flow end-to-end makespan ----------------------

fn bench_flow(root: &Path) -> BenchDoc {
    let mesh_bytes = if quick_mode() { 8 * MIB } else { 64 * MIB };
    let reps = if quick_mode() { 1 } else { 2 };
    let mut best = f64::MAX;
    let mut wait_round_trips = 0u64;

    for rep in 0..reps {
        let run_root = root.join(format!("flow{rep}"));
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
        best = best.min(secs);
        wait_round_trips = exec.wait_round_trips();
        drop(daemon_a);
        drop(daemon_b);
        let _ = fs::remove_dir_all(&run_root);
    }

    let mut doc = BenchDoc::new("flow");
    doc.row(
        SOURCE,
        vec![
            ("scenario", Json::str("flow_makespan")),
            ("jobs", Json::num(2u32)),
            ("mesh_bytes", Json::num(mesh_bytes as f64)),
            ("secs", Json::num(best)),
            ("wait_round_trips", Json::num(wait_round_trips as f64)),
        ],
    );
    doc.note(format!(
        "two-job #NORNS workflow (remote pull, compute, remote push, dependent local staging), {} MiB mesh, best-of-{reps}",
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
    // (mode, best ack secs)
    let mut acks: Vec<(&str, f64)> = Vec::new();
    for (mode_name, mode) in [
        ("local_only", Durability::LocalOnly),
        ("local_plus_one", Durability::LocalPlusOne),
        ("synchronous", Durability::Synchronous),
    ] {
        let mut ack = f64::MAX;
        let mut drain = f64::MAX;
        for rep in 0..reps {
            let spec = copy_spec(
                posix("bb", "src.dat"),
                posix("bb", &format!("out/{mode_name}/{rep}.dat")),
            )
            .with_durability(mode);
            let start = Instant::now();
            let id = ctl.submit(1, spec, None).unwrap();
            let stats = ctl.wait(id, 0).unwrap();
            let ack_secs = start.elapsed().as_secs_f64();
            assert_eq!(stats.state, TaskState::Finished, "stage-out failed");
            ack = ack.min(ack_secs);
            // For `local_plus_one` this is the window between the
            // early ACK and the background copy landing; the other
            // modes quiesce (near-)instantly by construction.
            drain = drain.min(drain_lag(&mut ctl));
        }
        acks.push((mode_name, ack));
        doc.row(
            SOURCE,
            vec![
                ("scenario", Json::str("replication_ack")),
                ("mode", Json::str(mode_name)),
                ("bytes", Json::num(size as f64)),
                ("ack_usec", Json::num(ack * 1e6)),
                ("drain_usec", Json::num(drain * 1e6)),
            ],
        );
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
    // Regression gate: the whole point of the early ACK is that
    // `local_plus_one` returns before the remote copy lands, so it
    // must beat `synchronous` measured in the same run.
    let rate_of = |name: &str| acks.iter().find(|(m, _)| *m == name).unwrap().1;
    assert!(
        rate_of("local_plus_one") < rate_of("synchronous"),
        "local_plus_one ACK ({:.2} ms) did not beat synchronous ({:.2} ms) — early-ACK regression",
        rate_of("local_plus_one") * 1e3,
        rate_of("synchronous") * 1e3
    );
    doc.note(format!(
        "one {} MiB stage-out per mode against a live loopback replica peer, best-of-{reps}; \
         drain_usec is the ACK-to-zero-lag window",
        size / MIB
    ));
    doc.note(
        "the suite fails unless local_plus_one ACKs faster than synchronous in the same run"
            .to_string(),
    );
    doc
}

// --- `--check`: validate the emitted files ---------------------------

fn num(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

/// The suite's rows of one scenario; an empty set is an error.
fn scenario_rows<'a>(doc: &'a Json, scenario: &str) -> Result<Vec<&'a Json>, String> {
    let text = |row: &'a Json, key: &str| row.get(key).and_then(Json::as_str);
    let rows: Vec<&Json> = doc
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| text(r, "source") == Some(SOURCE) && text(r, "scenario") == Some(scenario))
        .collect();
    if rows.is_empty() {
        let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("BENCH_{bench}.json has no {scenario} rows"));
    }
    Ok(rows)
}

/// Largest `value` among `rows` whose `knob` satisfies `pick`; `what`
/// names the selection in the error when nothing matches.
fn best_where(
    rows: &[&Json],
    knob: &str,
    pick: impl Fn(f64) -> bool,
    value: &str,
    what: &str,
) -> Result<f64, String> {
    rows.iter()
        .filter(|r| num(r, knob).is_some_and(&pick))
        .filter_map(|r| num(r, value))
        .reduce(f64::max)
        .ok_or(format!("no {what} rows"))
}

fn saw_partial_progress(row: &&Json) -> bool {
    row.get("partial_progress_seen").and_then(Json::as_bool) == Some(true)
}

/// The local family's gates, on fresh rows (`bench_local`) and recorded
/// ones (`check`): live progress, and what one lane per file promises.
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
    let together = scenario_rows(local, "concurrent_copies")?;
    let rate = |files: f64| best_where(&together, "files", |f| f == files, "gib_per_s", "files");
    let (one, two) = (rate(1.0)?, rate(2.0)?);
    if num(together[0], "nproc") >= Some(2.0) && two < 1.3 * one {
        return Err(format!(
            "concurrent_copies: 2 files {two:.3} < 1.3 x 1 file {one:.3} GiB/s"
        ));
    }
    println!("BENCH_local.json: 2 files {two:.3} vs 1 file {one:.3} GiB/s, live progress seen");
    let policies = scenario_rows(local, "policy_mix")?.len();
    if policies != 4 {
        return Err(format!("policy_mix: {policies} policy rows, expected 4"));
    }
    Ok(())
}

/// Reload all five documents, validate the schema, and re-assert the
/// run-time gates from the recorded rows.
fn check() -> Result<(), String> {
    let load = |bench: &str| -> Result<Json, String> {
        let doc = json::load(bench)?;
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
        if rows.is_empty() {
            return Err(format!("BENCH_{bench}.json has no rows"));
        }
        println!("BENCH_{bench}.json: ok ({} rows)", rows.len());
        Ok(doc)
    };
    let (control, local, remote) = (load("control")?, load("local")?, load("remote")?);
    let (_flow, replication) = (load("flow")?, load("replication")?);

    // The remote doc must show the pipelined data plane beating its
    // same-run stop-and-wait baseline in both directions.
    for dir in ["push", "pull"] {
        let scenario = format!("remote_{dir}");
        let rows = scenario_rows(&remote, &scenario)?;
        let rate = |pick: fn(f64) -> bool, what: &str| {
            best_where(
                &rows,
                "window",
                pick,
                "gib_per_s",
                &format!("{what} {scenario}"),
            )
        };
        let baseline = rate(|w| w == 1.0, "window=1")?;
        let best_windowed = rate(|w| w >= 4.0, "window>=4")?;
        if best_windowed <= baseline {
            return Err(format!(
                "{scenario}: windowed {best_windowed:.3} GiB/s <= stop-and-wait {baseline:.3} GiB/s"
            ));
        }
        println!(
            "BENCH_remote.json: {scenario} windowed {best_windowed:.3} > baseline {baseline:.3} GiB/s"
        );
    }

    // The control doc must show wire-v7 pipelining beating the
    // one-outstanding baseline under concurrency (64+ clients).
    let concurrent = scenario_rows(&control, "control_concurrent")?;
    let mut client_counts: Vec<u64> = concurrent
        .iter()
        .filter_map(|r| num(r, "clients"))
        .map(|c| c as u64)
        .filter(|c| *c >= 64)
        .collect();
    client_counts.sort_unstable();
    client_counts.dedup();
    if client_counts.is_empty() {
        return Err("no control_concurrent rows with clients >= 64".into());
    }
    for clients in client_counts {
        let at_count: Vec<&Json> = concurrent
            .iter()
            .copied()
            .filter(|r| num(r, "clients") == Some(clients as f64))
            .collect();
        let rate = |pick: fn(f64) -> bool, what: &str| {
            let what = format!("{what} control_concurrent at {clients} clients");
            best_where(&at_count, "depth", pick, "ops_per_s", &what)
        };
        let baseline = rate(|d| d == 1.0, "depth=1")?;
        let best_deep = rate(|d| d >= 8.0, "depth>=8")?;
        if best_deep <= baseline {
            return Err(format!(
                "control_concurrent at {clients} clients: pipelined {best_deep:.0} ops/s <= depth-1 {baseline:.0} ops/s"
            ));
        }
        println!(
            "BENCH_control.json: {clients} clients pipelined {best_deep:.0} > depth-1 {baseline:.0} ops/s"
        );
    }
    scenario_rows(&control, "fig4_submit")?;

    // The replication doc must carry an ACK row per durability mode
    // and show the early ACK beating the synchronous one.
    let acks = scenario_rows(&replication, "replication_ack")?;
    let ack_of = |mode: &str| {
        acks.iter()
            .filter(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
            .filter_map(|r| num(r, "ack_usec"))
            .reduce(f64::min)
            .ok_or(format!("no replication_ack row for mode {mode}"))
    };
    ack_of("local_only")?;
    let (plus_one, synchronous) = (ack_of("local_plus_one")?, ack_of("synchronous")?);
    if plus_one >= synchronous {
        return Err(format!(
            "replication_ack: local_plus_one {plus_one:.0} usec >= synchronous {synchronous:.0} usec — early-ACK regression"
        ));
    }
    println!(
        "BENCH_replication.json: local_plus_one ACK {plus_one:.0} < synchronous {synchronous:.0} usec"
    );

    check_local(&local)?;
    let mut staged = scenario_rows(&remote, "chunk_ablation_push")?;
    staged.extend(scenario_rows(&remote, "chunk_ablation_pull")?);
    if !staged.iter().any(saw_partial_progress) {
        return Err("chunk_ablation: no remote transfer saw partial bytes_moved".into());
    }
    Ok(())
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        if let Err(e) = check() {
            eprintln!("bench check failed: {e}");
            std::process::exit(1);
        }
        println!("bench check passed");
        return;
    }

    let root = std::env::temp_dir().join(format!("norns-bench-suite-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for bench in [
        bench_control,
        bench_local,
        bench_remote,
        bench_flow,
        bench_replication,
    ] {
        // One scratch tree per family, gone before the next starts.
        fs::create_dir_all(&root).unwrap();
        let doc = bench(&root);
        let _ = fs::remove_dir_all(&root);
        doc.print();
        println!("  json: {}\n", doc.write().unwrap().display());
    }

    if let Err(e) = check() {
        eprintln!("bench check failed after run: {e}");
        std::process::exit(1);
    }
}
