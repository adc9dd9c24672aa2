//! The canonical perf suite: five scenarios, five `BENCH_*.json`
//! files at the repo root.
//!
//! ```text
//! cargo run --release --bin bench_suite            # full run
//! NORNS_QUICK=1 cargo run --release --bin bench_suite   # CI smoke
//! cargo run --release --bin bench_suite -- --check      # validate files only
//! ```
//!
//! Scenarios (one output file each, schema in `norns_bench::json`):
//!
//! 1. **control** — control-plane ops/sec against a live urd daemon
//!    over its AF_UNIX socket: single-client round-trips (ping and
//!    status) plus a concurrent sweep of client counts × wire-v7
//!    pipeline depths. Depth 1 *is* the pre-v7 one-outstanding
//!    discipline, so every run carries its own baseline; the suite
//!    fails unless pipelined depth ≥ 8 beats it at 64+ clients.
//! 2. **local** — chunked same-daemon copy bandwidth (no network).
//! 3. **remote** — loopback push + pull bandwidth across data-plane
//!    window sizes. Window 1 *is* the old stop-and-wait protocol, so
//!    every run carries its own baseline; the suite fails if the
//!    windowed (≥4) data plane is not strictly faster than that
//!    same-run baseline in both directions.
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
//! re-asserts the remote, control and replication regression gates
//! from the recorded rows — CI runs the suite in quick mode and then
//! this mode.

use std::fs;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use norns_bench::json::{self, BenchDoc, Json};
use norns_bench::{gibps, quick_mode, Report};
use norns_flow::{FlowConfig, FlowJobState, JobBody, NodeSpec, WorkflowExecutor};
use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{
    BackendKind, DataspaceDesc, Durability, ResourceDesc, TaskOp, TaskSpec, TaskState,
    DEFAULT_PRIORITY,
};

const MIB: u64 = 1 << 20;
const SOURCE: &str = "bench_suite";

/// Window sizes swept by the remote scenario; 1 is the stop-and-wait
/// baseline, the rest exercise the pipelined data plane.
fn windows() -> &'static [usize] {
    if quick_mode() {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16]
    }
}

fn spawn_node(root: &Path, name: &str, config: DaemonConfig) -> (UrdDaemon, CtlClient) {
    let daemon = UrdDaemon::spawn(config).unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(DataspaceDesc {
        nsid: format!("{name}-ds"),
        kind: BackendKind::PosixFilesystem,
        mount: root.join(name).join("ds").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    (daemon, ctl)
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

fn remote(host: &str, nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::RemotePath {
        host: host.into(),
        nsid: nsid.into(),
        path: path.into(),
    }
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

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
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

fn bench_control(root: &Path) -> BenchDoc {
    let ops = if quick_mode() { 2_000u64 } else { 20_000 };
    let (daemon, mut ctl) = spawn_node(
        root,
        "ctrl",
        DaemonConfig::in_dir(root.join("ctrl/sockets")),
    );
    let ctl_path = daemon.control_path.clone();

    let mut doc = BenchDoc::new("control");
    let mut report = Report::new(
        "bench_control",
        "control-plane round-trips over AF_UNIX",
        ["op", "ops_per_s", "mean_usec"],
    );
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
        let rate = ops as f64 / secs;
        report.row([
            op.to_string(),
            format!("{rate:.0}"),
            format!("{:.1}", secs * 1e6 / ops as f64),
        ]);
        doc.row(
            SOURCE,
            vec![
                ("scenario", Json::str("control_roundtrip")),
                ("op", Json::str(op)),
                ("ops", Json::num(ops as f64)),
                ("ops_per_s", Json::num(rate)),
                ("mean_usec", Json::num(secs * 1e6 / ops as f64)),
            ],
        );
    }
    doc.note(format!(
        "{ops} sequential round-trips per op against one live daemon, single client"
    ));
    report.print();

    // Concurrent storm: clients × pipeline depth over the same daemon.
    raise_nofile();
    let (client_counts, depths) = control_sweep();
    let total_target = if quick_mode() { 8_000usize } else { 40_000 };
    let mut sweep_report = Report::new(
        "bench_control_concurrent",
        "concurrent clients x wire-v7 pipeline depth (ping ops/sec; depth 1 = baseline)",
        ["clients", "depth", "ops", "ops_per_s"],
    );
    // (clients, depth, ops/s)
    let mut sweep: Vec<(usize, usize, f64)> = Vec::new();
    for &clients in client_counts {
        for &depth in depths {
            let per_client = (total_target / clients).clamp(depth * 2, 20_000);
            let (total, rate) = measure_concurrent(&ctl_path, clients, depth, per_client);
            sweep.push((clients, depth, rate));
            sweep_report.row([
                clients.to_string(),
                depth.to_string(),
                total.to_string(),
                format!("{rate:.0}"),
            ]);
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
        sweep_report.note(format!(
            "{clients} clients: pipelined best {best_deep:.0} ops/s vs depth-1 baseline {baseline:.0} ops/s"
        ));
    }
    doc.note("control_concurrent rows storm one daemon with N pipelined clients; the suite fails unless depth>=8 beats the same-run depth-1 baseline at 64+ clients".to_string());
    sweep_report.print();
    doc
}

// --- scenario 2: local chunked copy ---------------------------------

fn bench_local(root: &Path) -> BenchDoc {
    let size = if quick_mode() { 64 * MIB } else { 256 * MIB };
    let reps = if quick_mode() { 2 } else { 3 };
    let (_daemon, mut ctl) = spawn_node(
        root,
        "local",
        DaemonConfig::in_dir(root.join("local/sockets")),
    );
    let payload = patterned(size as usize);
    fs::write(root.join("local/ds/src.dat"), &payload).unwrap();

    let mut best = f64::MAX;
    for _ in 0..reps {
        let _ = fs::remove_file(root.join("local/ds/dst.dat"));
        best = best.min(timed_copy(
            &mut ctl,
            copy_spec(posix("local-ds", "src.dat"), posix("local-ds", "dst.dat")),
            size,
        ));
    }
    assert_eq!(
        fs::read(root.join("local/ds/dst.dat")).unwrap(),
        payload,
        "local copy intact"
    );

    let mut doc = BenchDoc::new("local");
    doc.row(
        SOURCE,
        vec![
            ("scenario", Json::str("local_copy")),
            ("bytes", Json::num(size as f64)),
            ("secs", Json::num(best)),
            (
                "gib_per_s",
                Json::num(size as f64 / best / (1u64 << 30) as f64),
            ),
        ],
    );
    doc.note(format!(
        "same-daemon chunked copy of one {} MiB file, default chunk size, best-of-{reps}",
        size / MIB
    ));
    let mut report = Report::new(
        "bench_local",
        "same-daemon chunked copy (no network)",
        ["bytes_mib", "gib_per_s"],
    );
    report.row([(size / MIB).to_string(), gibps(size as f64 / best)]);
    report.print();
    doc
}

// --- scenario 3: remote push/pull across window sizes ----------------

fn bench_remote(root: &Path) -> BenchDoc {
    let size = if quick_mode() { 64 * MIB } else { 256 * MIB };
    let reps = if quick_mode() { 2 } else { 3 };
    let payload = patterned(size as usize);

    let mut doc = BenchDoc::new("remote");
    let mut report = Report::new(
        "bench_remote",
        "loopback push/pull vs data-plane window size (window 1 = stop-and-wait)",
        ["window", "push_gib_per_s", "pull_gib_per_s"],
    );
    // (window, push GiB/s, pull GiB/s)
    let mut results: Vec<(usize, f64, f64)> = Vec::new();

    for &window in windows() {
        let node_root = root.join(format!("w{window}"));
        let mk = |name: &str| {
            DaemonConfig::in_dir(node_root.join(name).join("sockets"))
                .with_data_addr("127.0.0.1:0")
                .with_remote_window(window)
        };
        let (daemon_a, mut ctl_a) = spawn_node(&node_root, "nodea", mk("nodea"));
        let (daemon_b, mut ctl_b) = spawn_node(&node_root, "nodeb", mk("nodeb"));
        ctl_a
            .register_peer("nodeb", &daemon_b.data_addr().unwrap().to_string())
            .unwrap();
        ctl_b
            .register_peer("nodea", &daemon_a.data_addr().unwrap().to_string())
            .unwrap();
        fs::write(node_root.join("nodea/ds/src.dat"), &payload).unwrap();

        let mut push_secs = f64::MAX;
        for _ in 0..reps {
            let _ = fs::remove_file(node_root.join("nodeb/ds/pushed.dat"));
            push_secs = push_secs.min(timed_copy(
                &mut ctl_a,
                copy_spec(
                    posix("nodea-ds", "src.dat"),
                    remote("nodeb", "nodeb-ds", "pushed.dat"),
                ),
                size,
            ));
        }
        assert_eq!(
            fs::read(node_root.join("nodeb/ds/pushed.dat")).unwrap(),
            payload,
            "pushed bytes intact (window {window})"
        );

        let mut pull_secs = f64::MAX;
        for _ in 0..reps {
            let _ = fs::remove_file(node_root.join("nodea/ds/pulled.dat"));
            pull_secs = pull_secs.min(timed_copy(
                &mut ctl_a,
                copy_spec(
                    remote("nodeb", "nodeb-ds", "pushed.dat"),
                    posix("nodea-ds", "pulled.dat"),
                ),
                size,
            ));
        }
        assert_eq!(
            fs::read(node_root.join("nodea/ds/pulled.dat")).unwrap(),
            payload,
            "pulled bytes intact (window {window})"
        );

        let push_rate = size as f64 / push_secs;
        let pull_rate = size as f64 / pull_secs;
        results.push((window, push_rate, pull_rate));
        report.row([window.to_string(), gibps(push_rate), gibps(pull_rate)]);
        for (dir, secs, rate) in [
            ("push", push_secs, push_rate),
            ("pull", pull_secs, pull_rate),
        ] {
            doc.row(
                SOURCE,
                vec![
                    ("scenario", Json::str(format!("remote_{dir}"))),
                    ("window", Json::num(window as f64)),
                    ("bytes", Json::num(size as f64)),
                    ("secs", Json::num(secs)),
                    ("gib_per_s", Json::num(rate / (1u64 << 30) as f64)),
                ],
            );
        }
        let _ = fs::remove_dir_all(&node_root);
    }

    // Regression gate: the pipelined data plane (any window ≥ 4) must
    // beat the same-run stop-and-wait baseline in both directions.
    let (_, base_push, base_pull) = results[0];
    assert_eq!(results[0].0, 1, "window sweep must start at the baseline");
    let best_push = results
        .iter()
        .filter(|(w, _, _)| *w >= 4)
        .map(|(_, p, _)| *p)
        .fold(0.0f64, f64::max);
    let best_pull = results
        .iter()
        .filter(|(w, _, _)| *w >= 4)
        .map(|(_, _, p)| *p)
        .fold(0.0f64, f64::max);
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
        "one {} MiB file staged over 127.0.0.1 between two live daemons, default chunk size, best-of-{reps}",
        size / MIB
    ));
    doc.note("window=1 is the stop-and-wait baseline; the suite fails unless some window>=4 beats it in both directions".to_string());
    report.note(format!(
        "windowed best: push {} vs baseline {}, pull {} vs baseline {}",
        gibps(best_push),
        gibps(base_push),
        gibps(best_pull),
        gibps(base_pull)
    ));
    report.print();
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
            ctl.register_dataspace(DataspaceDesc {
                nsid: nsid.into(),
                kind,
                mount: run_root
                    .join(name)
                    .join("ds")
                    .to_string_lossy()
                    .into_owned(),
                quota: 0,
                tracked: false,
            })
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
    let mut report = Report::new(
        "bench_flow",
        "norns-flow two-job workflow makespan",
        ["mesh_mib", "makespan_s", "wait_round_trips"],
    );
    report.row([
        (mesh_bytes / MIB).to_string(),
        format!("{best:.3}"),
        wait_round_trips.to_string(),
    ]);
    report.print();
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
        ctl.register_dataspace(DataspaceDesc {
            nsid: "bb".into(),
            kind: BackendKind::PosixFilesystem,
            mount: root
                .join("repl")
                .join(name)
                .join("ds")
                .to_string_lossy()
                .into_owned(),
            quota: 0,
            tracked: false,
        })
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
    let mut report = Report::new(
        "bench_replication",
        "stage-out ACK latency per durability mode + lag-drain time (one replica peer)",
        ["mode", "ack_msec", "drain_msec"],
    );
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
        report.row([
            mode_name.to_string(),
            format!("{:.2}", ack * 1e3),
            format!("{:.2}", drain * 1e3),
        ]);
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
    report.print();
    doc
}

// --- `--check`: validate the emitted files ---------------------------

/// Reload all five documents, validate the schema, and re-assert the
/// remote, control and replication regression gates from the recorded
/// rows.
fn check() -> Result<(), String> {
    for bench in ["control", "local", "remote", "flow", "replication"] {
        let doc = json::load(bench)?;
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
        if rows.is_empty() {
            return Err(format!("BENCH_{bench}.json has no rows"));
        }
        println!("BENCH_{bench}.json: ok ({} rows)", rows.len());
    }

    // The remote doc must show the pipelined data plane beating its
    // same-run stop-and-wait baseline in both directions.
    let remote = json::load("remote")?;
    let rows = remote.get("rows").and_then(Json::as_arr).unwrap();
    for dir in ["push", "pull"] {
        let scenario = format!("remote_{dir}");
        let rate = |row: &Json| row.get("gib_per_s").and_then(Json::as_f64);
        let suite_rows: Vec<&Json> = rows
            .iter()
            .filter(|r| {
                r.get("source").and_then(Json::as_str) == Some(SOURCE)
                    && r.get("scenario").and_then(Json::as_str) == Some(scenario.as_str())
            })
            .collect();
        let window_of = |row: &Json| row.get("window").and_then(Json::as_f64);
        let baseline = suite_rows
            .iter()
            .find(|r| window_of(r) == Some(1.0))
            .and_then(|r| rate(r))
            .ok_or(format!("no window=1 {scenario} baseline row"))?;
        let best_windowed = suite_rows
            .iter()
            .filter(|r| window_of(r).map(|w| w >= 4.0).unwrap_or(false))
            .filter_map(|r| rate(r))
            .fold(f64::NEG_INFINITY, f64::max);
        if !best_windowed.is_finite() {
            return Err(format!("no window>=4 {scenario} rows"));
        }
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
    let control = json::load("control")?;
    let rows = control.get("rows").and_then(Json::as_arr).unwrap();
    let concurrent: Vec<&Json> = rows
        .iter()
        .filter(|r| {
            r.get("source").and_then(Json::as_str) == Some(SOURCE)
                && r.get("scenario").and_then(Json::as_str) == Some("control_concurrent")
        })
        .collect();
    if concurrent.is_empty() {
        return Err("BENCH_control.json has no control_concurrent rows".into());
    }
    let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64);
    let mut client_counts: Vec<u64> = concurrent
        .iter()
        .filter_map(|r| field(r, "clients"))
        .map(|c| c as u64)
        .filter(|c| *c >= 64)
        .collect();
    client_counts.sort_unstable();
    client_counts.dedup();
    if client_counts.is_empty() {
        return Err("no control_concurrent rows with clients >= 64".into());
    }
    for clients in client_counts {
        let at = |pred: &dyn Fn(f64) -> bool| {
            concurrent
                .iter()
                .filter(|r| field(r, "clients") == Some(clients as f64))
                .filter(|r| field(r, "depth").map(pred).unwrap_or(false))
                .filter_map(|r| field(r, "ops_per_s"))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let baseline = at(&|d| d == 1.0);
        let best_deep = at(&|d| d >= 8.0);
        if !baseline.is_finite() {
            return Err(format!("no depth=1 baseline row at {clients} clients"));
        }
        if !best_deep.is_finite() {
            return Err(format!("no depth>=8 rows at {clients} clients"));
        }
        if best_deep <= baseline {
            return Err(format!(
                "control_concurrent at {clients} clients: pipelined {best_deep:.0} ops/s <= depth-1 {baseline:.0} ops/s"
            ));
        }
        println!(
            "BENCH_control.json: {clients} clients pipelined {best_deep:.0} > depth-1 {baseline:.0} ops/s"
        );
    }

    // The replication doc must carry an ACK row per durability mode
    // and show the early ACK beating the synchronous one.
    let replication = json::load("replication")?;
    let rows = replication.get("rows").and_then(Json::as_arr).unwrap();
    let ack_of = |mode: &str| {
        rows.iter()
            .filter(|r| {
                r.get("source").and_then(Json::as_str) == Some(SOURCE)
                    && r.get("scenario").and_then(Json::as_str) == Some("replication_ack")
                    && r.get("mode").and_then(Json::as_str) == Some(mode)
            })
            .filter_map(|r| r.get("ack_usec").and_then(Json::as_f64))
            .fold(f64::INFINITY, f64::min)
    };
    for mode in ["local_only", "local_plus_one", "synchronous"] {
        if !ack_of(mode).is_finite() {
            return Err(format!("no replication_ack row for mode {mode}"));
        }
    }
    let (plus_one, synchronous) = (ack_of("local_plus_one"), ack_of("synchronous"));
    if plus_one >= synchronous {
        return Err(format!(
            "replication_ack: local_plus_one {plus_one:.0} usec >= synchronous {synchronous:.0} usec — early-ACK regression"
        ));
    }
    println!(
        "BENCH_replication.json: local_plus_one ACK {plus_one:.0} < synchronous {synchronous:.0} usec"
    );
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
    fs::create_dir_all(&root).unwrap();

    for doc in [
        bench_control(&root),
        bench_local(&root),
        bench_remote(&root),
        bench_flow(&root),
        bench_replication(&root),
    ] {
        // merge_into so rows from other binaries (ablation_remote in
        // BENCH_remote.json) survive a suite refresh.
        let path = doc.merge_into().unwrap();
        println!("  json: {}", path.display());
    }
    println!();

    let _ = fs::remove_dir_all(&root);

    if let Err(e) = check() {
        eprintln!("bench check failed after run: {e}");
        std::process::exit(1);
    }
}
