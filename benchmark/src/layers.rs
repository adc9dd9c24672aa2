//! The traced run: an untraced reference pass, a traced pass of the
//! same op loop, per-layer metrics read off its spans, micro-timings
//! against each layer's public functions, and the trace file.
//!
//! Every traced run measures every layer. The control-plane layers
//! (`proto`, `sched`, `client`, `daemon`, `engine`) come from the
//! workload's own traced pass and the micro-timings. Each data layer is
//! the business of one workload (`LAYER_OWNERS`): where that is not the
//! workload being run, it runs as a short traced probe first, so no
//! metric is a placeholder.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use norns_flow::script;
use norns_ipc::{CtlClient, DaemonConfig, PipelinedCtl, UrdDaemon};
use norns_proto::{
    decode_tagged, encode_frame, encode_tagged, CtlRequest, Durability, FrameReader, Response,
    TaskOp, TaskSpec, TaskState, TaskStats, MAX_DATA_RANGE,
};
use norns_sched::Scheduler;

use crate::harness::{
    copy_spec, median, op_index, out_dir, percentile, posix, remote, Cluster, OpRec, Recorder,
    Stop, GIB, JOB, MIB,
};
use crate::workloads::{
    prepare, spawn_cluster, storm_conns, BulkRemote, Workload, BULK_BYTES, CHAIN_SCRIPTS,
    MESH_BYTES, REMOTE_BYTES, SMALL_BYTES,
};
use crate::{count_ops, latencies_ms, ops_per_s, set_up, spec, warm_up, Metrics, RunResult};

/// The workload whose op loop exercises each data layer, and so the one
/// that layer's metrics are read from.
const LAYER_OWNERS: [(&str, &str); 4] = [
    ("transfer", "bulk_local"),
    ("remote", "bulk_remote"),
    ("replication", "durable_stage_out"),
    ("flow", "workflow_chain"),
];

/// Spans of this many ops per client go to the trace file (a 5 s
/// `task_storm` pass records well over a million spans).
const TRACE_FILE_OPS: u32 = 1000;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f` `n` times; the samples.
fn sample<T>(n: usize, f: impl FnMut() -> T) -> Vec<Duration> {
    sample_then(n, f, || {})
}

/// Time `f` `n` times, running `after` untimed behind each — it
/// deletes what `f` wrote, so that `f` always writes a fresh file
/// (see `workloads::RING`).
fn sample_then<T>(n: usize, mut f: impl FnMut() -> T, mut after: impl FnMut()) -> Vec<Duration> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            let took = t.elapsed();
            after();
            took
        })
        .collect()
}

fn p50(samples: &[Duration], unit: fn(Duration) -> f64) -> f64 {
    median(&samples.iter().map(|d| unit(*d)).collect::<Vec<_>>())
}

fn gib_per_s(bytes: u64, millis: f64) -> f64 {
    if millis > 0.0 {
        bytes as f64 / GIB / (millis / 1e3)
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

// ---- span-derived metrics ----------------------------------------------

/// Per-op sums of the spans with one of `names` (on `leg`, if given),
/// in ms.
fn per_op_ms(rec: &Recorder, names: &[&str], leg: Option<&str>) -> Vec<f64> {
    let mut by_op: HashMap<u32, f64> = HashMap::new();
    for s in rec.spans.as_deref().unwrap_or_default() {
        if names.contains(&s.name) && leg.is_none_or(|l| l == s.leg) {
            *by_op.entry(s.op).or_default() += (s.end - s.start) as f64 / 1e6;
        }
    }
    by_op.into_values().collect()
}

/// Every span called `name`, in ms.
fn each_ms(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.spans
        .as_deref()
        .unwrap_or_default()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect()
}

fn counts<'a>(rec: &'a Recorder, name: &str) -> &'a [f64] {
    rec.counts.get(name).map_or(&[], Vec::as_slice)
}

/// Check the two structural promises of the trace: submit + wait cover
/// at least 95 % of each op span that has them, and the wait's three
/// children sum to it. Returns the worst coverage seen.
fn check_spans(rec: &Recorder) -> f64 {
    let spans = rec.spans.as_deref().unwrap_or_default();
    let mut children: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if matches!(
            s.name,
            "client.submit"
                | "client.wait"
                | "sched.queue_wait"
                | "engine.exec"
                | "daemon.delivery"
        ) {
            *children.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    let mut worst: f64 = 1.0;
    for s in spans {
        let Some(&covered) = children.get(&s.id) else {
            continue;
        };
        match s.name {
            "client.wait" => assert_eq!(
                covered,
                s.end - s.start,
                "queue_wait + exec + delivery must sum to client.wait"
            ),
            "op" => worst = worst.min(covered as f64 / (s.end - s.start).max(1) as f64),
            _ => {}
        }
    }
    worst
}

/// The control-plane layers, off the spans every staged task has.
fn span_metrics(rec: &Recorder, m: &mut Metrics) {
    let to_us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    m.insert("trace.samples", rec.ops.len() as f64);
    m.insert(
        "client.submit_rtt_us_p50",
        median(&to_us(each_ms(rec, "client.submit"))),
    );
    m.insert(
        "client.wait_rtt_us_p50",
        median(&to_us(each_ms(rec, "client.wait"))),
    );
    m.insert(
        "client.op_latency_p99_ms",
        percentile(&latencies_ms(&rec.ops), 99.0),
    );
    m.insert(
        "daemon.delivery_us_p50",
        median(&to_us(each_ms(rec, "daemon.delivery"))),
    );
    let queue = counts(rec, "sched.queue_wait_us");
    m.insert("sched.queue_wait_us_p50", median(queue));
    m.insert("sched.queue_wait_us_p99", percentile(queue, 99.0));
    m.insert("engine.exec_us_p50", median(counts(rec, "engine.exec_us")));
    m.insert(
        "daemon.busy_refusals",
        counts(rec, "daemon.busy_refusals").iter().sum(),
    );
}

/// The data layer `owner` owns, off the spans of a pass of its loop.
/// `first` is the first op the workload ever ran.
fn layer_span_metrics(owner: &str, rec: &Recorder, first: &OpRec, m: &mut Metrics) {
    match owner {
        "bulk_local" => {
            let exec_p50 = median(&per_op_ms(rec, &["engine.exec"], None));
            m.insert("transfer.exec_ms_p50", exec_p50);
            m.insert("transfer.gib_per_s", gib_per_s(BULK_BYTES, exec_p50));
            let op = per_op_ms(rec, &["op"], None);
            m.insert(
                "transfer.ack_overhead_ms_p50",
                (median(&op) - exec_p50).max(0.0),
            );
        }
        "bulk_remote" => {
            m.insert("remote.first_op_ms", (first.end - first.start) as f64 / 1e6);
            for (leg, ms_key, exec_key, rate_key) in [
                (
                    "push",
                    "remote.push_ms_p50",
                    "remote.push_exec_ms_p50",
                    "remote.push_gib_per_s",
                ),
                (
                    "pull",
                    "remote.pull_ms_p50",
                    "remote.pull_exec_ms_p50",
                    "remote.pull_gib_per_s",
                ),
            ] {
                // A leg's client-observed time: its submit plus its wait.
                let leg_p50 = median(&per_op_ms(
                    rec,
                    &["client.submit", "client.wait"],
                    Some(leg),
                ));
                m.insert(ms_key, leg_p50);
                m.insert(
                    exec_key,
                    median(&per_op_ms(rec, &["engine.exec"], Some(leg))),
                );
                m.insert(rate_key, gib_per_s(REMOTE_BYTES, leg_p50));
            }
        }
        "durable_stage_out" => {
            let drain = median(&each_ms(rec, "replication.drain"));
            m.insert(
                "replication.early_ack_ms_p50",
                median(&per_op_ms(rec, &["op"], None)),
            );
            m.insert("replication.drain_ms_p50", drain);
            m.insert(
                "replication.replica_push_gib_per_s",
                gib_per_s(BULK_BYTES, drain),
            );
            m.insert(
                "replication.peak_lag_bytes",
                counts(rec, "replication.lag_bytes")
                    .iter()
                    .fold(0.0, |a, b| a.max(*b)),
            );
        }
        "workflow_chain" => {
            m.insert("flow.build_ms_p50", median(&each_ms(rec, "flow.build")));
            m.insert("flow.run_ms_p50", median(&each_ms(rec, "flow.run")));
            m.insert(
                "flow.body_ms_sum_p50",
                median(&per_op_ms(rec, &["flow.body"], None)),
            );
            m.insert(
                "flow.first_stage_in_ms_p50",
                median(&each_ms(rec, "flow.first_stage_in")),
            );
            m.insert("flow.handoff_ms_p50", median(&each_ms(rec, "flow.handoff")));
            m.insert(
                "flow.last_stage_out_ms_p50",
                median(&each_ms(rec, "flow.last_stage_out")),
            );
            m.insert(
                "flow.wait_round_trips_per_run",
                median(counts(rec, "flow.wait_round_trips")),
            );
            m.insert(
                "flow.query_round_trips_per_run",
                median(counts(rec, "flow.query_round_trips")),
            );
        }
        _ => {}
    }
}

// ---- micro-timings: every workload --------------------------------------

/// Codec cost on the workload's own Submit/Wait frames, and their size.
fn micro_proto(workload: &dyn Workload, polls_per_op: f64, m: &mut Metrics) {
    let stats = TaskStats {
        state: TaskState::Finished,
        error: norns_proto::ErrorCode::Success,
        bytes_total: BULK_BYTES,
        bytes_moved: BULK_BYTES,
        wait_usec: 40,
        elapsed_usec: 25_000,
    };
    let submit = CtlRequest::SubmitTask {
        job_id: JOB,
        spec: workload.sample_spec(),
    };
    let wait = CtlRequest::WaitTask {
        task_id: 1000,
        timeout_usec: 0,
    };
    let submitted = Response::TaskSubmitted { task_id: 1000 };
    let status = Response::TaskStatus(stats);
    let frame = |tag: u64| {
        [
            encode_frame(&encode_tagged(tag, &submit)),
            encode_frame(&encode_tagged(tag, &wait)),
            encode_frame(&encode_tagged(tag, &submitted)),
            encode_frame(&encode_tagged(tag, &status)),
        ]
    };
    const ROUNDS: u64 = 20_000;
    let t = Instant::now();
    for tag in 0..ROUNDS {
        std::hint::black_box(frame(std::hint::black_box(tag)));
    }
    m.insert(
        "proto.encode_ns_per_frame",
        t.elapsed().as_nanos() as f64 / (ROUNDS * 4) as f64,
    );

    let frames = frame(1000);
    let mut reader = FrameReader::new();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for (i, bytes) in frames.iter().enumerate() {
            reader.extend(std::hint::black_box(bytes));
            let payload = reader
                .next_frame()
                .expect("well-formed frame")
                .expect("whole frame buffered");
            if i < 2 {
                std::hint::black_box(decode_tagged::<CtlRequest>(payload).expect("request"));
            } else {
                std::hint::black_box(decode_tagged::<Response>(payload).expect("response"));
            }
        }
    }
    m.insert(
        "proto.decode_ns_per_frame",
        t.elapsed().as_nanos() as f64 / (ROUNDS * 4) as f64,
    );

    // Frames and bytes per op, computed from the encoded frames: each
    // staged task costs the four above; `durable_stage_out` adds a
    // Status round trip per drain poll.
    let task_bytes: usize = frames.iter().map(|f| f.len()).sum();
    let poll_bytes = encode_frame(&encode_tagged(1000, &CtlRequest::Status)).len()
        + encode_frame(&encode_tagged(
            1000,
            &Response::Status(workload.cluster().nodes[0].daemon.engine().status()),
        ))
        .len();
    let tasks_per_op = workload.frames_per_op() / 4.0;
    m.insert(
        "proto.frames_per_op",
        workload.frames_per_op() + 2.0 * polls_per_op,
    );
    m.insert(
        "proto.wire_bytes_per_op",
        tasks_per_op * task_bytes as f64 + polls_per_op * poll_bytes as f64,
    );
}

/// `Scheduler::try_enqueue` + `dispatch` + `finish` at depth 32, FCFS.
fn micro_sched(m: &mut Metrics) {
    let mut sched: Scheduler<u64, u64, u64> = Scheduler::fcfs(4).with_capacity(1024);
    for task in 0..32 {
        sched
            .try_enqueue(task, JOB, SMALL_BYTES, 100, task)
            .expect("below capacity");
    }
    const ROUNDS: u64 = 200_000;
    let t = Instant::now();
    for task in 32..32 + ROUNDS {
        sched
            .try_enqueue(task, JOB, SMALL_BYTES, 100, task)
            .expect("below capacity");
        std::hint::black_box(sched.dispatch().expect("a worker is free"));
        sched.finish();
    }
    m.insert(
        "sched.enqueue_dispatch_ns",
        t.elapsed().as_nanos() as f64 / ROUNDS as f64,
    );
}

/// Reactor round trips with no engine work, the 4 KiB task through the
/// engine alone and through the socket, daemon spawn and shutdown.
fn micro_daemon(cluster: &Cluster, m: &mut Metrics) {
    let node = &cluster.nodes[0];
    let mut ctl = cluster.ctl(0);
    let pings: Vec<f64> = sample(5000, || ctl.ping().expect("ping"))
        .into_iter()
        .map(us)
        .collect();
    m.insert("daemon.ping_rtt_us_p50", median(&pings));
    m.insert("daemon.ping_rtt_us_p99", percentile(&pings, 99.0));

    // `task_storm`'s connections x 16 outstanding pings: the reactor's
    // ceiling with no engine work behind it.
    let window = Duration::from_millis(500);
    let t = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..storm_conns())
            .map(|_| {
                scope.spawn(|| {
                    let mut conn =
                        PipelinedCtl::connect(&node.daemon.control_path).expect("connect");
                    let mut answered = 0u64;
                    for _ in 0..16 {
                        conn.issue_ping().expect("issue ping");
                    }
                    while conn.in_flight() > 0 {
                        let got = conn.poll(Duration::from_millis(200)).expect("poll").len();
                        answered += got as u64;
                        if t.elapsed() < window {
                            for _ in 0..got {
                                conn.issue_ping().expect("issue ping");
                            }
                        }
                    }
                    answered
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("ping client"))
            .sum()
    });
    m.insert(
        "daemon.pipelined_ping_per_s",
        total as f64 / t.elapsed().as_secs_f64(),
    );

    // `task_storm`'s op — a 4 KiB same-dataspace `Move` — through the
    // engine alone, then through the socket.
    let dir = node.mount.join("micro");
    fs::create_dir_all(&dir).expect("create micro dir");
    fs::write(dir.join("small.a"), vec![7u8; SMALL_BYTES as usize]).expect("write small");
    let mut at_b = false;
    let mut bounce = || {
        let (from, to) = if at_b { ("b", "a") } else { ("a", "b") };
        at_b = !at_b;
        TaskSpec::new(
            TaskOp::Move,
            posix(node.nsid, &format!("micro/small.{from}")),
            Some(posix(node.nsid, &format!("micro/small.{to}"))),
        )
    };
    let engine = node.daemon.engine();
    let in_process = sample(5000, || {
        let id = engine.submit(JOB, bounce(), None).expect("engine submit");
        engine.wait(id, 0).expect("engine wait")
    });
    let over_socket = sample(5000, || {
        let id = ctl.submit(JOB, bounce(), None).expect("submit");
        ctl.wait(id, 0).expect("wait")
    });
    m.insert("engine.submit_wait_us_p50", p50(&in_process, us));
    m.insert(
        "daemon.wire_overhead_us_p50",
        p50(&over_socket, us) - p50(&in_process, us),
    );
    m.insert(
        "engine.peak_chunk_workers",
        engine.peak_chunk_workers() as f64,
    );

    let mut spawns = Vec::new();
    let mut shutdowns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let spare = UrdDaemon::spawn(DaemonConfig::in_dir("spare").with_data_addr("127.0.0.1:0"))
            .expect("spawn spare daemon");
        spawns.push(t.elapsed());
        let t = Instant::now();
        drop(spare);
        shutdowns.push(t.elapsed());
    }
    m.insert("daemon.spawn_ms", p50(&spawns, ms));
    m.insert("daemon.shutdown_ms", p50(&shutdowns, ms));
}

// ---- micro-timings: ceilings and floors ---------------------------------

/// `std::io::copy` File→File (`copy_file_range` on Linux) of an object
/// the workload copies, inside the same dataspace.
fn ceiling_copy(cluster: &Cluster, object: &str, bytes: u64) -> f64 {
    let mount = &cluster.nodes[0].mount;
    let samples = sample_then(
        7,
        || {
            let mut src = fs::File::open(mount.join(object)).expect("open source");
            let mut dst = fs::File::create(mount.join("ceiling.dat")).expect("create copy");
            std::io::copy(&mut src, &mut dst).expect("copy")
        },
        || {
            let _ = fs::remove_file(mount.join("ceiling.dat"));
        },
    );
    gib_per_s(bytes, p50(&samples, ms))
}

/// One loopback `TcpStream` pair moving `bytes` in `MAX_DATA_RANGE`
/// writes, memory to memory.
fn ceiling_tcp(bytes: u64) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let chunk = MAX_DATA_RANGE as usize;
    let rounds = 5;
    let reader = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = vec![0u8; chunk];
        for _ in 0..rounds {
            let mut left = bytes as usize;
            while left > 0 {
                let n = stream.read(&mut buf[..chunk.min(left)]).expect("read");
                assert!(n > 0, "sender closed early");
                left -= n;
            }
            stream.write_all(&[1]).expect("ack");
        }
    });
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    let block = vec![0x5Au8; chunk];
    let samples = sample(rounds, || {
        for _ in 0..bytes / chunk as u64 {
            stream.write_all(&block).expect("write");
        }
        let mut ack = [0u8];
        stream.read_exact(&mut ack).expect("ack");
    });
    reader.join().expect("reader thread");
    gib_per_s(bytes, p50(&samples, ms))
}

/// p50 latency in ms of `n` submit→wait ops of `spec` through `ctl`;
/// `outputs` are deleted behind each.
fn staged_p50(
    ctl: &mut CtlClient,
    n: usize,
    bytes: u64,
    spec: &TaskSpec,
    outputs: &[std::path::PathBuf],
) -> f64 {
    let samples = sample_then(
        n,
        || {
            let id = ctl.submit(JOB, spec.clone(), None).expect("submit");
            let stats = ctl.wait(id, 0).expect("wait");
            assert_eq!(stats.state, TaskState::Finished, "micro task failed");
            assert_eq!(stats.bytes_moved, bytes, "micro task byte count");
        },
        || {
            for path in outputs {
                let _ = fs::remove_file(path);
            }
        },
    );
    p50(&samples, ms)
}

/// Ceilings, floors and comparison ops of the data layer `owner`
/// owns, on its cluster; after `layer_span_metrics`, whose rates the
/// ratios here divide.
fn layer_micro(owner: &str, cluster: &Cluster, rec: &mut Recorder, m: &mut Metrics) {
    let mut ctl = cluster.ctl(0);
    match owner {
        "bulk_local" => {
            let ceiling = ceiling_copy(cluster, "src.dat", BULK_BYTES);
            m.insert("ceiling.copy_file_range_gib_per_s", ceiling);
            m.insert(
                "transfer.efficiency",
                ratio(m["transfer.gib_per_s"], ceiling),
            );
        }
        "bulk_remote" => {
            let ceiling = ceiling_tcp(REMOTE_BYTES);
            m.insert("ceiling.loopback_tcp_gib_per_s", ceiling);
            for (efficiency, rate) in [
                ("remote.push_efficiency", "remote.push_gib_per_s"),
                ("remote.pull_efficiency", "remote.pull_gib_per_s"),
            ] {
                m.insert(efficiency, ratio(m[rate], ceiling));
            }
            fs::write(
                cluster.nodes[0].mount.join("small.dat"),
                vec![7u8; SMALL_BYTES as usize],
            )
            .expect("write small object");
            m.insert(
                "remote.fixed_cost_ms_p50",
                staged_p50(
                    &mut ctl,
                    200,
                    SMALL_BYTES,
                    &BulkRemote::push_spec("small.dat", "small.dat"),
                    &[cluster.nodes[1].mount.join("small.dat")],
                ),
            );
        }
        "durable_stage_out" => {
            let outputs: Vec<_> = cluster
                .nodes
                .iter()
                .map(|n| n.mount.join("out/micro.dat"))
                .collect();
            let local = copy_spec(posix("bb", "src.dat"), posix("bb", "out/micro.dat"));
            let mut p50_of = |spec: &TaskSpec| staged_p50(&mut ctl, 7, BULK_BYTES, spec, &outputs);
            let plain_local = p50_of(&local);
            let sync = p50_of(&local.clone().with_durability(Durability::Synchronous));
            let plain_push = p50_of(&BulkRemote::push_spec("src.dat", "out/micro.dat"));
            m.insert("replication.sync_ack_ms_p50", sync);
            m.insert(
                "replication.vs_plain_push_ratio",
                ratio(
                    m["replication.replica_push_gib_per_s"],
                    gib_per_s(BULK_BYTES, plain_push),
                ),
            );
            m.insert(
                "replication.ack_vs_local_ratio",
                ratio(m["replication.early_ack_ms_p50"], plain_local),
            );
        }
        "workflow_chain" => {
            let parses = sample(1000, || {
                for text in CHAIN_SCRIPTS {
                    std::hint::black_box(script::parse(text).expect("chain script parses"));
                }
            });
            m.insert("flow.parse_us_per_script", p50(&parses, us) / 3.0);
            m.insert("flow.staging_floor_ms", staging_floor(cluster, rec));
            m.insert(
                "flow.executor_overhead_ms_p50",
                m["flow.run_ms_p50"] - m["flow.body_ms_sum_p50"] - m["flow.staging_floor_ms"],
            );
        }
        _ => {}
    }
}

/// The chain's staging legs issued back to back through blocking
/// clients, no executor: B pulls the mesh from A, pushes it back and
/// removes its copy; A copies in and moves out, twice. Median of 5, ms.
/// The legs leave their `client.*` spans in `rec`: the executor speaks
/// the wire itself, so these are the only ones the chain has.
fn staging_floor(cluster: &Cluster, rec: &mut Recorder) -> f64 {
    let mut a = cluster.ctl(0);
    let mut b = cluster.ctl(1);
    // The executor links the peers in both directions; so does the floor.
    let addr = cluster.nodes[0].daemon.data_addr().expect("data plane");
    b.register_peer("a", &addr.to_string())
        .expect("register peer");
    let op = rec.next_op();
    let mut run = |ctl: &mut CtlClient, spec: TaskSpec| {
        let start = rec.now();
        let id = ctl.submit(JOB, spec, None).expect("floor submit");
        let submitted = rec.now();
        let stats = ctl.wait(id, 0).expect("floor wait");
        let end = rec.now();
        assert_eq!(stats.state, TaskState::Finished, "floor leg failed");
        rec.staged_spans(0, op, "floor", start, submitted, end, &stats);
    };
    let lustre = |p: &str| posix("lustre0", p);
    let at_a = |p: &str| remote("a", "lustre0", p);
    let pmdk = |p: &str| posix("pmdk0", p);
    let mv = |from, to| TaskSpec::new(TaskOp::Move, from, Some(to));
    let floor = cluster.nodes[0].mount.join("floor");
    let mut legs = || {
        run(
            &mut b,
            copy_spec(at_a("case/mesh.dat"), pmdk("floor/in.dat")),
        );
        run(
            &mut b,
            copy_spec(pmdk("floor/in.dat"), at_a("floor/prep.dat")),
        );
        run(
            &mut b,
            TaskSpec::new(TaskOp::Remove, pmdk("floor/in.dat"), None),
        );
        for (from, stage, to) in [
            ("floor/prep.dat", "floor/mid.in", "floor/mid.dat"),
            ("floor/mid.dat", "floor/post.in", "floor/final.dat"),
        ] {
            run(&mut a, copy_spec(lustre(from), lustre(stage)));
            run(&mut a, mv(lustre(stage), lustre(to)));
        }
    };
    let samples = sample_then(5, &mut legs, || {
        for name in ["prep.dat", "mid.dat", "final.dat"] {
            let _ = fs::remove_file(floor.join(name));
        }
    });
    p50(&samples, ms)
}

// ---- the traced run -------------------------------------------------------

/// One pass of the workload's loop: its record, its ops per second,
/// and the peak of the engine's parked waits, sampled every millisecond
/// while a traced pass runs.
fn pass(workload: &mut dyn Workload, seconds: f64, tracing: bool) -> (Recorder, f64, usize) {
    let stop_sampler = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, tracing);
    let engine = workload.cluster().nodes[0].daemon.engine().clone();
    std::thread::scope(|scope| {
        if tracing {
            scope.spawn(|| {
                while !stop_sampler.load(Ordering::Relaxed) {
                    peak.fetch_max(engine.parked_waits(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        workload.run(
            Stop::At(origin + Duration::from_secs_f64(seconds)),
            &mut rec,
        );
        stop_sampler.store(true, Ordering::Relaxed);
    });
    let rate = ops_per_s(&rec.ops, origin.elapsed().as_secs_f64());
    (rec, rate, peak.into_inner())
}

/// A layer measured outside its owner's run: the owner's loop, traced,
/// for as many ops as its warm-up (about a second), from a fresh
/// set-up.
/// Returns `(attempted, failed)`.
fn probe(owner: &str, seed: u64, m: &mut Metrics) -> (u64, u64) {
    let cluster = spawn_cluster(owner).expect("a layer's owner is a workload");
    let mut workload = prepare(owner, seed, cluster).workload;
    let mut rec = Recorder::new(Instant::now(), true);
    workload.run(Stop::Count(workload.warmup_ops()), &mut rec);
    layer_span_metrics(owner, &rec, &rec.ops[0], m);
    layer_micro(owner, workload.cluster(), &mut rec, m);
    count_ops(&rec.ops)
}

pub fn run_traced(name: &str, seed: u64, seconds: f64) -> RunResult {
    let mut m: Metrics = spec::PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();
    let (mut attempted, mut failed) = (0, 0);
    for (_, owner) in LAYER_OWNERS {
        if owner != name {
            let (a, f) = probe(owner, seed, &mut m);
            attempted += a;
            failed += f;
        }
    }

    let setup = set_up(name);
    m.insert("setup.spawn_ms", setup.cluster.spawn_ms);
    m.insert("setup.register_ms", setup.cluster.register_ms);
    m.insert(
        "setup.shake_down_ms",
        setup.seconds * 1e3 - setup.cluster.spawn_ms - setup.cluster.register_ms,
    );
    let prepared = prepare(name, seed, setup.cluster);
    m.insert("setup.inputs_ms", prepared.inputs_ms);
    let mut workload = prepared.workload;
    let warm_from = Instant::now();
    let warmup = warm_up(workload.as_mut());
    m.insert("setup.warmup_ms", ms(warm_from.elapsed()));
    let first = warmup.ops[0];
    m.insert("setup.first_op_ms", (first.end - first.start) as f64 / 1e6);

    // Same loop untraced, then traced, a quarter of --seconds each: the
    // difference is the tracing overhead.
    let (reference, untraced, _) = pass(workload.as_mut(), seconds * 0.25, false);
    let (mut rec, traced, parked_peak) = pass(workload.as_mut(), seconds * 0.25, true);
    m.insert("client.ops_per_s", untraced);
    m.insert(
        "trace.overhead_pct",
        ratio(untraced - traced, untraced) * 100.0,
    );
    m.insert("engine.parked_waits_peak", parked_peak as f64);
    let coverage = check_spans(&rec);
    eprintln!(
        "[{name}] traced pass: {} ops, {} spans, submit+wait cover >= {:.1} % of every op span",
        rec.ops.len(),
        rec.spans.as_ref().map_or(0, Vec::len),
        coverage * 100.0
    );

    layer_span_metrics(name, &rec, &first, &mut m);
    layer_micro(name, workload.cluster(), &mut rec, &mut m);
    span_metrics(&rec, &mut m);
    let polls_per_op = ratio(
        counts(&rec, "replication.status_polls").iter().sum(),
        rec.ops.len() as f64,
    );
    micro_proto(workload.as_ref(), polls_per_op, &mut m);
    micro_sched(&mut m);
    micro_daemon(workload.cluster(), &mut m);
    write_trace(name, seed, &rec, &m);

    for ops in [&setup.shake_down.ops, &warmup.ops, &reference.ops, &rec.ops] {
        let (a, f) = count_ops(ops);
        attempted += a;
        failed += f;
    }
    RunResult {
        attempted,
        failed,
        metrics: m,
    }
}

// ---- the trace file ---------------------------------------------------------

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Filesystem type under the scratch directory, from `/proc/mounts`.
fn scratch_fs_type() -> String {
    let here = out_dir();
    let here = here.to_string_lossy();
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_, at, kind) = (fields.next()?, fields.next()?, fields.next()?);
            here.starts_with(at).then_some((at.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, kind)| kind.to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// `benchmark/out/trace-<workload>.json`: run metadata, the per-layer
/// metrics, and the spans of the first `TRACE_FILE_OPS` ops per client.
fn write_trace(name: &str, seed: u64, rec: &Recorder, m: &Metrics) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n\"workload\": \"{name}\",\n\"meta\": {{\"seed\": {seed}, \"git_rev\": \"{}\", \
         \"nproc\": {nproc}, \"storm_connections\": {}, \"kernel\": \"{}\", \"scratch_fs\": \"{}\", \"l3\": \"{}\", \
         \"bulk_object_bytes\": {BULK_BYTES}, \"remote_object_bytes\": {REMOTE_BYTES}, \
         \"mesh_bytes\": {MESH_BYTES}, \
         \"small_object_bytes\": {SMALL_BYTES}, \"ops_traced\": {}, \"spans_recorded\": {}, \
         \"spans_written_for_first_ops_per_client\": {TRACE_FILE_OPS}}},\n",
        git_rev(),
        storm_conns(),
        read_trimmed("/proc/sys/kernel/osrelease"),
        scratch_fs_type(),
        read_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        rec.ops.len(),
        rec.spans.as_ref().map_or(0, Vec::len),
    ));
    let metrics: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                spec::unit_of(k)
            )
        })
        .collect();
    out.push_str(&format!(
        "\"metrics\": {{{}}},\n\"spans\": [\n",
        metrics.join(", ")
    ));
    let spans: Vec<String> = rec
        .spans
        .as_deref()
        .unwrap_or_default()
        .iter()
        .filter(|s| op_index(s.op) <= TRACE_FILE_OPS)
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"leg\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.leg, s.start, s.end
            )
        })
        .collect();
    out.push_str(&spans.join(",\n"));
    out.push_str("\n]\n}\n");
    let path = out_dir().join(format!("trace-{name}.json"));
    fs::write(&path, out).expect("write trace file");
    eprintln!(
        "[{name}] {} MiB of spans in memory; trace written to {}",
        std::mem::size_of_val(rec.spans.as_deref().unwrap_or_default()) as u64 / MIB,
        path.display()
    );
}
