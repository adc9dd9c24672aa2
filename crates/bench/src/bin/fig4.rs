//! Fig. 4 — NORNS throughput and latency serving *local* requests.
//!
//! The one figure of the paper set that needs the **real** urd daemon:
//! up to 32 concurrent client processes, each submitting 50×10³
//! consecutive requests over the local `AF_UNIX` socket; the latency
//! covers "the time taken to process the request, create a task
//! descriptor, add it to the task queue, and respond to the client".
//! Paper: ≈700k req/s aggregate, ≤50 µs latency.
//!
//! `bench_suite` is the only binary that drives a live daemon, so the
//! measurement is its `fig4_submit` scenario; this binary tabulates
//! the rows it recorded in `BENCH_control.json` in the paper set's
//! format (`results/fig4.csv`). Run `bench_suite` first to refresh
//! them.

use norns_bench::json::{self, Json};
use norns_bench::Report;

fn main() {
    let doc = json::load("control").unwrap_or_else(|e| {
        eprintln!("{e}\nrun `cargo run --release --bin bench_suite` from the repo root first");
        std::process::exit(1);
    });
    let mut report = Report::new(
        "fig4",
        "Local request throughput/latency against the real urd daemon",
        [
            "processes",
            "throughput_req_s",
            "mean_latency_us",
            "pooled_p50_latency_us",
            "pooled_p99_latency_us",
        ],
    );
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let mut per_process = 0.0;
    for row in rows
        .iter()
        .filter(|r| r.get("scenario").and_then(Json::as_str) == Some("fig4_submit"))
    {
        let num = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        per_process = num("requests_per_process");
        report.row([
            format!("{:.0}", num("processes")),
            format!("{:.0}", num("req_per_s")),
            format!("{:.1}", num("mean_latency_us")),
            format!("{:.1}", num("p50_latency_us")),
            format!("{:.1}", num("p99_latency_us")),
        ]);
    }
    report.note("pooled_*: over the request latencies of all processes together");
    report.note("paper: ≈700k req/s aggregate, ≤50 µs request latency (C++/epoll on");
    report.note("dual Xeon 8260M); absolute numbers depend on this machine");
    report.note(format!(
        "requests per process: {per_process:.0} (BENCH_control.json, quick = {})",
        doc.get("quick").and_then(Json::as_bool).unwrap_or(false)
    ));
    report.finish();
}
