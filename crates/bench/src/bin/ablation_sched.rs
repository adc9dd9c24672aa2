//! Ablation — urd task-queue arbitration policies.
//!
//! The paper ships FCFS and names pluggable arbitration as future
//! work; we implement two of those strategies and compare them on a
//! skewed task mix: many small stage-ins from one job plus a few huge
//! stage-outs from another, all contending for 2 worker slots.

use norns::sim::ops;
use norns::{
    ApiSource, JobFairShare, JobId, JobSpec, ResourceDesc, ShortestFirst, TaskQueue, TaskSpec,
};
use norns_bench::Report;
use simcore::metrics::Summary;
use simcore::Sim;
use simstore::{Cred, Mode};
use workloads::{register_tiers, BenchWorld};

const MIB: u64 = 1 << 20;

fn run(policy: &str) -> (f64, f64) {
    let tb = cluster::nextgenio_quiet(2);
    let mut sim = Sim::new(BenchWorld::new(tb.world), 17);
    register_tiers(&mut sim);
    // Queue with 2 workers and the chosen policy.
    sim.model.world.urds[0].queue = match policy {
        "fcfs" => TaskQueue::fcfs(2),
        "sjf" => TaskQueue::new(2, Box::new(ShortestFirst)),
        "job-fair" => TaskQueue::new(2, Box::new(JobFairShare::default())),
        _ => unreachable!(),
    };
    for job in [1u64, 2] {
        ops::register_job(
            &mut sim,
            JobSpec {
                id: JobId(job),
                hosts: vec![0, 1],
                limits: vec![("pmdk0".into(), 0), ("lustre".into(), 0)],
                cred: Cred::new(1000, 1000),
            },
        )
        .unwrap();
    }
    // Job 1: 4 large stage-outs (8 GiB each). Job 2: 24 small ones
    // (64 MiB each), submitted slightly later.
    {
        let world = &mut sim.model.world;
        let t = world.storage.resolve("pmdk0").unwrap();
        let cred = Cred::new(1000, 1000);
        for i in 0..4 {
            world
                .storage
                .ns_mut(t, Some(0))
                .write_file(&format!("big{i}"), 8192 * MIB, &cred, Mode(0o644))
                .unwrap();
        }
        for i in 0..24 {
            world
                .storage
                .ns_mut(t, Some(0))
                .write_file(&format!("small{i}"), 64 * MIB, &cred, Mode(0o644))
                .unwrap();
        }
    }
    for i in 0..4 {
        let spec = TaskSpec::copy(
            ResourceDesc::posix("pmdk0", format!("big{i}")),
            ResourceDesc::posix("lustre", format!("big{i}")),
        );
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 1).unwrap();
    }
    for i in 0..24 {
        let spec = TaskSpec::copy(
            ResourceDesc::posix("pmdk0", format!("small{i}")),
            ResourceDesc::posix("lustre", format!("small{i}")),
        );
        ops::submit_task(&mut sim, 0, JobId(2), ApiSource::Control, spec, 2).unwrap();
    }
    sim.run();
    let mut sojourns = Summary::new();
    let mut job2 = Summary::new();
    for c in &sim.model.completions {
        let s = (c.stats.finished.unwrap() - c.stats.submitted).as_secs_f64();
        sojourns.record(s);
        if c.job == JobId(2) {
            job2.record(s);
        }
    }
    (sojourns.mean(), job2.mean())
}

fn main() {
    let mut report = Report::new(
        "ablation_sched",
        "urd arbitration policies on a skewed task mix (2 workers)",
        ["policy", "mean_sojourn_s", "small_job_mean_sojourn_s"],
    );
    for policy in ["fcfs", "sjf", "job-fair"] {
        let (all, small) = run(policy);
        report.row([
            policy.to_string(),
            format!("{all:.1}"),
            format!("{small:.1}"),
        ]);
    }
    report.note("fcfs = paper default; sjf cuts mean sojourn; job-fair protects the small job");
    report.finish();
}
