//! The names the binary prints: workloads, end-to-end metrics and
//! per-layer metrics with their units. `BENCHMARK.json` at the
//! repository root is the contract itself — bounds, `run_seconds`, the
//! reasons for each workload — and the only place those live; `--sets`
//! reads the bounds from it, and the smoke test checks that every name
//! and unit there is one the binary prints.

pub const WORKLOADS: [&str; 5] = [
    "task_storm",
    "bulk_local",
    "bulk_remote",
    "durable_stage_out",
    "workflow_chain",
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

pub const END_TO_END: [MetricSpec; 2] = [metric("latency_p50_ms", "ms"), metric("setup_s", "s")];

pub const PER_LAYER: [MetricSpec; 65] = [
    // proto (norns-proto)
    metric("proto.encode_ns_per_frame", "ns"),
    metric("proto.decode_ns_per_frame", "ns"),
    metric("proto.frames_per_op", "count"),
    metric("proto.wire_bytes_per_op", "B"),
    // sched (norns-sched)
    metric("sched.enqueue_dispatch_ns", "ns"),
    metric("sched.queue_wait_us_p50", "us"),
    metric("sched.queue_wait_us_p99", "us"),
    // client, daemon (norns-ipc)
    metric("daemon.ping_rtt_us_p50", "us"),
    metric("daemon.ping_rtt_us_p99", "us"),
    metric("daemon.pipelined_ping_per_s", "1/s"),
    metric("client.ops_per_s", "1/s"),
    metric("client.submit_rtt_us_p50", "us"),
    metric("client.wait_rtt_us_p50", "us"),
    metric("client.op_latency_p99_ms", "ms"),
    metric("daemon.delivery_us_p50", "us"),
    metric("daemon.wire_overhead_us_p50", "us"),
    metric("daemon.spawn_ms", "ms"),
    metric("daemon.shutdown_ms", "ms"),
    metric("daemon.busy_refusals", "count"),
    // engine
    metric("engine.submit_wait_us_p50", "us"),
    metric("engine.exec_us_p50", "us"),
    metric("engine.peak_chunk_workers", "count"),
    metric("engine.parked_waits_peak", "count"),
    // transfer (engine::transfer)
    metric("transfer.exec_ms_p50", "ms"),
    metric("transfer.gib_per_s", "GiB/s"),
    metric("transfer.ack_overhead_ms_p50", "ms"),
    metric("ceiling.copy_file_range_gib_per_s", "GiB/s"),
    metric("transfer.efficiency", "ratio"),
    // remote (engine::remote)
    metric("remote.push_ms_p50", "ms"),
    metric("remote.pull_ms_p50", "ms"),
    metric("remote.push_gib_per_s", "GiB/s"),
    metric("remote.pull_gib_per_s", "GiB/s"),
    metric("remote.push_exec_ms_p50", "ms"),
    metric("remote.pull_exec_ms_p50", "ms"),
    metric("remote.fixed_cost_ms_p50", "ms"),
    metric("remote.first_op_ms", "ms"),
    metric("ceiling.loopback_tcp_gib_per_s", "GiB/s"),
    metric("remote.push_efficiency", "ratio"),
    metric("remote.pull_efficiency", "ratio"),
    // replication
    metric("replication.early_ack_ms_p50", "ms"),
    metric("replication.drain_ms_p50", "ms"),
    metric("replication.sync_ack_ms_p50", "ms"),
    metric("replication.replica_push_gib_per_s", "GiB/s"),
    metric("replication.vs_plain_push_ratio", "ratio"),
    metric("replication.ack_vs_local_ratio", "ratio"),
    metric("replication.peak_lag_bytes", "B"),
    // flow (norns-flow)
    metric("flow.parse_us_per_script", "us"),
    metric("flow.build_ms_p50", "ms"),
    metric("flow.run_ms_p50", "ms"),
    metric("flow.body_ms_sum_p50", "ms"),
    metric("flow.first_stage_in_ms_p50", "ms"),
    metric("flow.handoff_ms_p50", "ms"),
    metric("flow.last_stage_out_ms_p50", "ms"),
    metric("flow.staging_floor_ms", "ms"),
    metric("flow.executor_overhead_ms_p50", "ms"),
    metric("flow.wait_round_trips_per_run", "count"),
    metric("flow.query_round_trips_per_run", "count"),
    // harness
    metric("setup.spawn_ms", "ms"),
    metric("setup.register_ms", "ms"),
    metric("setup.shake_down_ms", "ms"),
    metric("setup.inputs_ms", "ms"),
    metric("setup.first_op_ms", "ms"),
    metric("setup.warmup_ms", "ms"),
    metric("trace.overhead_pct", "%"),
    metric("trace.samples", "count"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the spec"))
        .unit
}

fn manifest() -> Result<String, String> {
    let path = crate::harness::package_dir().join("../BENCHMARK.json");
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The number behind the first `"key":` of `text`.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = text.split_once(&format!("\"{key}\":"))?.1.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `run_seconds` of `BENCHMARK.json`: the timed phase when `--seconds`
/// is not given.
pub fn run_seconds() -> Result<f64, String> {
    number_after(&manifest()?, "run_seconds").ok_or("BENCHMARK.json has no run_seconds".into())
}

/// The bound `BENCHMARK.json` sets on an end-to-end metric.
pub fn bound_of(metric: &str) -> Result<f64, String> {
    let text = manifest()?;
    text.split_once(&format!("\"name\": \"{metric}\""))
        .and_then(|(_, rest)| number_after(rest.split('}').next()?, "bound"))
        .ok_or(format!("BENCHMARK.json sets no bound on {metric}"))
}
