//! `norns-benchmark` — the repository's `BENCHMARK.json` harness.
//!
//! ```text
//! norns-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! norns-benchmark --sets <N> [--seed <n>] [--seconds <s>]     # noise self-test
//! ```
//!
//! One run = set-up, inputs, a warm-up, then a closed-loop timed phase
//! against live in-process `urd` daemons, in five segments with another
//! set-up between each two (`setup_s` is the median of the five).
//! `--trace 1` instead runs a traced pass of the same loop plus
//! per-layer micro-timings and prints the per-layer metrics. The last
//! line of standard output is the result object; everything else goes
//! to standard error. See `benchmark/README.md`.

mod harness;
mod layers;
mod spec;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use harness::{median, percentile, Cluster, OpRec, Recorder, Stop};
use workloads::{prepare, shake_down, spawn_cluster, Workload};

/// Set-ups per untraced run, and segments of its timed phase;
/// `setup_s` is the median of the set-ups.
const SETUPS: usize = 5;
pub type Metrics = BTreeMap<&'static str, f64>;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// The timed phase; `run_seconds` of `BENCHMARK.json` if not given.
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        sets: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--sets" => args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            // Test hook: corrupt the first verified output on disk.
            "--flip-byte" => harness::FLIP_NEXT.store(true, Ordering::SeqCst),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// What one run reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// `(attempted, failed)` of a pass.
pub fn count_ops(ops: &[OpRec]) -> (u64, u64) {
    (
        ops.len() as u64,
        ops.iter().filter(|o| o.failed).count() as u64,
    )
}

/// Ops per second of a closed-loop pass: the ops completed and
/// verified over its wall time.
pub fn ops_per_s(ops: &[OpRec], wall_seconds: f64) -> f64 {
    ops.iter().filter(|o| !o.failed).count() as f64 / wall_seconds
}

pub fn latencies_ms(ops: &[OpRec]) -> Vec<f64> {
    ops.iter()
        .filter(|o| !o.failed)
        .map(|o| (o.end - o.start) as f64 / 1e6)
        .collect()
}

/// What `setup_s` times: scratch directory, daemons spawned, dataspaces
/// and peers registered, and the control plane shaken down (see
/// `workloads::shake_down`).
pub struct Setup {
    pub seconds: f64,
    pub cluster: Cluster,
    pub shake_down: Recorder,
}

pub fn set_up(name: &str) -> Setup {
    let started = Instant::now();
    let cluster = spawn_cluster(name).expect("workload name checked by the caller");
    let shake_down = shake_down(&cluster);
    Setup {
        seconds: started.elapsed().as_secs_f64(),
        cluster,
        shake_down,
    }
}

/// The fixed-count warm-up between input generation and timed phase,
/// about a second of the workload's own ops; the first of them pays for
/// connections and every other lazy initialisation. Not part of
/// `setup_s`: a second of data-plane ops repeats no better than the
/// data plane does (see `workloads::REMOTE_BYTES`).
pub fn warm_up(workload: &mut dyn Workload) -> Recorder {
    let mut warmup = Recorder::new(Instant::now(), false);
    workload.run(Stop::Count(workload.warmup_ops()), &mut warmup);
    warmup
}

/// The untraced run: the end-to-end metrics.
///
/// The timed phase runs in `SETUPS` equal segments with a set-up ahead
/// of each: the first set-up's daemons serve the workload, the others
/// are brought up, timed and dropped while the workload stands still.
/// The host changes speed by up to a factor of two every few seconds
/// (README, Noise); half a second of set-up lands in one such spell,
/// and only set-ups spread over the whole run see the same mix of them
/// from one run to the next.
fn run_end_to_end(name: &str, seed: u64, seconds: f64) -> RunResult {
    let setup = set_up(name);
    let mut setup_secs = vec![setup.seconds];
    let (mut attempted, mut failed) = count_ops(&setup.shake_down.ops);
    let mut workload = prepare(name, seed, setup.cluster).workload;
    let (a, f) = count_ops(&warm_up(workload.as_mut()).ops);
    attempted += a;
    failed += f;

    let mut rec = Recorder::new(Instant::now(), false);
    let mut wall = 0.0;
    for segment in 0..SETUPS {
        if segment > 0 {
            let extra = set_up(name);
            let (a, f) = count_ops(&extra.shake_down.ops);
            attempted += a;
            failed += f;
            setup_secs.push(extra.seconds);
        }
        let from = Instant::now();
        workload.run(
            Stop::At(from + Duration::from_secs_f64(seconds / SETUPS as f64)),
            &mut rec,
        );
        wall += from.elapsed().as_secs_f64();
    }
    drop(workload);

    let (a, f) = count_ops(&rec.ops);
    attempted += a;
    failed += f;
    let latencies = latencies_ms(&rec.ops);
    eprintln!(
        "[{name}] seed {seed}: {a} ops in {wall:.2} s ({:.2}/s), {f} failed; \
         latency n={} p50 {:.3} ms p99 {:.3} ms; set-ups {setup_secs:.3?} s",
        ops_per_s(&rec.ops, wall),
        latencies.len(),
        median(&latencies),
        percentile(&latencies, 99.0),
    );
    let mut metrics = Metrics::new();
    metrics.insert("latency_p50_ms", median(&latencies));
    metrics.insert("setup_s", median(&setup_secs));
    RunResult {
        attempted,
        failed,
        metrics,
    }
}

/// The result object the driver reads: the last line of stdout.
fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0 && result.attempted > 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method),
/// which the driver judges spreads by.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let cut = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// `--sets N`: N full sets back to back; per workload and metric the
/// median, the quartiles and their distance as a share of the median
/// (the whole range below four sets), against the metric's bound.
/// Fails if a spread the driver would judge exceeds its bound.
fn noise_self_test(sets: usize, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    if sets < 2 {
        return Err("--sets needs at least 2 sets to have a spread".into());
    }
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut failed_ops = 0;
    for set in 0..sets {
        for workload in spec::WORKLOADS {
            let result = run_end_to_end(workload, seed + set as u64, seconds);
            failed_ops += result.failed;
            for (metric, value) in result.metrics {
                samples.entry((workload, metric)).or_default().push(value);
            }
        }
    }
    println!(
        "{:<18} {:<15} {:>11} {:>11} {:>11} {:>8} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "max dev", "bound"
    );
    let mut over = 0;
    for ((workload, metric), values) in &samples {
        let (q1, q2, q3) = quartiles(values);
        // Below four sets the quartiles are extrapolations (with two,
        // 1.5 times the whole range); judge the range itself.
        let spread = if values.len() >= 4 {
            (q3 - q1) / q2
        } else {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            (hi - lo) / q2
        };
        let max_dev = values
            .iter()
            .map(|v| (v - q2).abs() / q2)
            .fold(0.0, f64::max);
        let bound = spec::bound_of(metric)?;
        // The driver judges the spread of every metric but `setup_s`
        // (whose medians it compares between sets instead).
        let verdict = if *metric == "setup_s" {
            "not judged"
        } else if spread > bound {
            over += 1;
            "OVER"
        } else if spread > bound / 2.0 {
            "wide"
        } else {
            ""
        };
        println!(
            "{workload:<18} {metric:<15} {q2:>11.4} {q1:>11.4} {q3:>11.4} {:>7.2}% {:>7.2}% {:>5.0}% {verdict}",
            spread * 100.0,
            max_dev * 100.0,
            bound * 100.0
        );
    }
    if over > 0 || failed_ops > 0 {
        println!("{over} spread(s) over their bound, {failed_ops} failed op(s)");
        return Ok(ExitCode::FAILURE);
    }
    println!("every spread within its bound over {sets} sets");
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let seconds = match args.seconds {
        Some(seconds) => seconds,
        None => spec::run_seconds()?,
    };
    if args.sets > 0 {
        return noise_self_test(args.sets, args.seed, seconds);
    }
    let name = args.workload.ok_or("--workload <name> is required")?;
    if !spec::WORKLOADS.contains(&name.as_str()) {
        return Err(format!(
            "unknown workload {name:?}; one of {:?}",
            spec::WORKLOADS
        ));
    }
    let result = if args.trace {
        layers::run_traced(&name, args.seed, seconds)
    } else {
        run_end_to_end(&name, args.seed, seconds)
    };
    println!("{}", result_line(&result));
    Ok(if result.failed == 0 && result.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("norns-benchmark: {e}");
        ExitCode::from(2)
    })
}
