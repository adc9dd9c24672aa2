//! Ablation — arbitration policies on the **real-I/O** path.
//!
//! The sim-side `ablation_sched` compares policies inside the
//! simulator; this binary runs the same skewed task mix through the
//! real `norns-ipc` engine (actual files, actual worker threads, the
//! shared `norns-sched` scheduler behind a mutex+condvar), so the
//! sim-vs-real arbitration comparison is a reportable scenario.
//!
//! Mix: job 1 submits a few huge stage-outs, job 2 floods small
//! transfers slightly later, and one *high-priority* small stage-in
//! arrives last — the case the weighted-priority policy exists for.
//! Two workers; per-task sojourn = queue wait + execution, measured by
//! the engine itself (`TaskStats::{wait_usec, elapsed_usec}`).

use std::fs;
use std::str::FromStr;
use std::sync::Arc;

use norns_bench::{quick_mode, Report};
use norns_ipc::{Engine, PolicyKind};
use norns_proto::{BackendKind, DataspaceDesc, ResourceDesc, TaskOp, TaskSpec, TaskState};
use simcore::metrics::Summary;

const MIB: usize = 1 << 20;

struct RunResult {
    all_sojourn: Summary,
    small_sojourn: Summary,
    high_wait_ms: f64,
    busy_rejections: u64,
}

fn run(policy: PolicyKind) -> RunResult {
    let root = std::env::temp_dir().join(format!(
        "norns-ablation-ipc-{}-{}",
        policy.name(),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();

    let (big_mb, big_n, small_mb, small_n) = if quick_mode() {
        (32, 3, 2, 12)
    } else {
        (96, 4, 4, 24)
    };

    // Capacity below the task count so the bounded queue genuinely
    // pushes back and the Busy/retry column carries signal.
    let engine: Arc<Engine> = Engine::with_policy(2, 8, policy.to_policy());
    engine
        .register_dataspace(DataspaceDesc {
            nsid: "tmp0".into(),
            kind: BackendKind::PosixFilesystem,
            mount: root.join("tmp0").to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();

    // Source files: the engine estimates task size from metadata at
    // submission, which is what SJF arbitrates on.
    let src_dir = root.join("tmp0");
    for i in 0..big_n {
        fs::write(src_dir.join(format!("big{i}")), vec![0xb1u8; big_mb * MIB]).unwrap();
    }
    for i in 0..small_n {
        fs::write(
            src_dir.join(format!("small{i}")),
            vec![0x51u8; small_mb * MIB],
        )
        .unwrap();
    }
    fs::write(src_dir.join("urgent"), vec![0x11u8; small_mb * MIB]).unwrap();

    let copy = |name: &str, prio: u8| {
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: name.into(),
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: format!("out/{name}"),
            }),
        )
        .with_priority(prio)
    };

    // Job 1: huge stage-outs first; job 2: the small flood; then the
    // single high-priority latecomer. All submitted as fast as the
    // admission path allows, so the backlog forms behind 2 workers.
    let mut ids = Vec::new();
    let mut busy_rejections = 0u64;
    let mut submit = |job: u64, spec: TaskSpec, ids: &mut Vec<(u64, bool)>, small: bool| loop {
        match engine.submit(job, spec.clone(), None) {
            Ok(id) => {
                ids.push((id, small));
                break;
            }
            Err(e) if e.code == norns_proto::ErrorCode::Busy => {
                busy_rejections += 1;
                std::thread::yield_now();
            }
            Err(e) => panic!("submit failed: {e}"),
        }
    };
    for i in 0..big_n {
        submit(1, copy(&format!("big{i}"), 100), &mut ids, false);
    }
    for i in 0..small_n {
        submit(2, copy(&format!("small{i}"), 100), &mut ids, true);
    }
    let high_spec = copy("urgent", 250);
    let mut high_id = Vec::new();
    submit(2, high_spec, &mut high_id, false);
    let high_id = high_id[0].0;

    let mut all_sojourn = Summary::new();
    let mut small_sojourn = Summary::new();
    for (id, small) in &ids {
        let stats = engine.wait(*id, 0).expect("task exists");
        assert_eq!(stats.state, TaskState::Finished, "task {id}");
        let sojourn_ms = (stats.wait_usec + stats.elapsed_usec) as f64 / 1e3;
        all_sojourn.record(sojourn_ms);
        if *small {
            small_sojourn.record(sojourn_ms);
        }
    }
    let high = engine.wait(high_id, 0).expect("urgent task exists");
    assert_eq!(high.state, TaskState::Finished);
    let high_wait_ms = high.wait_usec as f64 / 1e3;
    all_sojourn.record((high.wait_usec + high.elapsed_usec) as f64 / 1e3);

    engine.shutdown();
    let _ = fs::remove_dir_all(&root);
    RunResult {
        all_sojourn,
        small_sojourn,
        high_wait_ms,
        busy_rejections,
    }
}

fn main() {
    // Optional single-policy run: `ablation_policy_ipc sjf`.
    let only: Option<PolicyKind> = std::env::args().nth(1).map(|s| {
        PolicyKind::from_str(&s).unwrap_or_else(|e| {
            eprintln!("{e}; expected one of: fcfs sjf job-fair weighted-priority");
            std::process::exit(2);
        })
    });
    let policies = match only {
        Some(p) => vec![p],
        None => vec![
            PolicyKind::Fcfs,
            PolicyKind::ShortestFirst,
            PolicyKind::JobFairShare,
            PolicyKind::WeightedPriority,
        ],
    };
    let mut report = Report::new(
        "ablation_policy_ipc",
        "arbitration policies on the real-I/O engine (2 workers, skewed mix)",
        [
            "policy",
            "mean_sojourn_ms",
            "p95_sojourn_ms",
            "small_mean_ms",
            "small_p95_ms",
            "high_prio_wait_ms",
            "busy_rejections",
        ],
    );
    for policy in policies {
        let r = run(policy);
        report.row([
            policy.name().to_string(),
            format!("{:.1}", r.all_sojourn.mean()),
            format!("{:.1}", r.all_sojourn.quantile(0.95)),
            format!("{:.1}", r.small_sojourn.mean()),
            format!("{:.1}", r.small_sojourn.quantile(0.95)),
            format!("{:.1}", r.high_wait_ms),
            r.busy_rejections.to_string(),
        ]);
    }
    report.note("same policies as the simulated ablation_sched, now on real files");
    report.note("sjf shrinks the small-task mean; weighted-priority shrinks the urgent wait");
    report.finish();
}
