//! Table IV — Synthetic workflow benchmark with data staging.
//!
//! The workflow runs on NVM (producer 64 s / consumer 30 s as in
//! Table III) while NORNS stages data between Lustre and the node's
//! NVM. HPCG runs on the nodes where staging happens, measuring the
//! impact of administrative I/O on a co-located application. Paper:
//!
//! | component       | runtime |
//! |-----------------|---------|
//! | Producer        | 64 s    |
//! | Consumer        | 30 s    |
//! | HPCG stage out  | 137 s   |
//! | HPCG stage in   | 142 s   |
//! | HPCG no activity| 122 s   |

use norns::sim::ops;
use norns::{ApiSource, JobId, JobSpec, ResourceDesc, TaskSpec};
use norns_bench::Report;
use simcore::Sim;
use simstore::Cred;
use workloads::hpcg::{self, HpcgConfig};
use workloads::prodcons::{materialize_output, run_phase, ProdConsConfig};
use workloads::{register_tiers, wait_task_completions, BenchWorld};

fn fresh_world() -> Sim<BenchWorld> {
    let tb = cluster::nextgenio_quiet(2);
    let mut sim = Sim::new(BenchWorld::new(tb.world), 99);
    register_tiers(&mut sim);
    ops::register_job(
        &mut sim,
        JobSpec {
            id: JobId(1),
            hosts: vec![0, 1],
            limits: vec![("pmdk0".into(), 0), ("lustre".into(), 0)],
            cred: Cred::new(1000, 1000),
        },
    )
    .unwrap();
    sim
}

/// HPCG on `node` while a NORNS staging task runs on the same node.
/// The staging benchmark moves the 200 GB the workflow reads+writes
/// between components (§V-D: "a job that reads and writes 200GB of
/// data between workflow components").
fn hpcg_with_staging(spec: Option<TaskSpec>, node: usize) -> f64 {
    let mut sim = fresh_world();
    let cfg = ProdConsConfig {
        data_bytes: 200 * simcore::units::GB,
        ..ProdConsConfig::default()
    };
    // Data to stage must exist first.
    materialize_output(&mut sim, "pmdk0", Some(0), "out", &cfg);
    {
        // Stage-in source on Lustre for the pre-consumer experiment.
        let t = sim.model.world.storage.resolve("lustre").unwrap();
        let cred = Cred::new(1000, 1000);
        let per = cfg.data_bytes / cfg.files;
        for i in 0..cfg.files {
            sim.model
                .world
                .storage
                .ns_mut(t, None)
                .write_file(
                    &format!("staged/part{i:04}"),
                    per,
                    &cred,
                    simstore::Mode(0o644),
                )
                .unwrap();
        }
    }
    let hcfg = HpcgConfig::paper_test_case();
    let started = sim.now();
    let tokens = hpcg::start(&mut sim, &[node], &hcfg);
    if let Some(spec) = spec {
        ops::submit_task(&mut sim, node, JobId(1), ApiSource::Control, spec, 0).unwrap();
        // Let the staging task finish too (HPCG usually outlasts it).
        let _ = wait_task_completions(&mut sim, 1);
    }
    let res = hpcg::finish(&mut sim, started, &tokens);
    res.runtime().as_secs_f64()
}

fn main() {
    let mut report = Report::new(
        "table4",
        "Synthetic workflow with data staging + HPCG impact",
        ["component", "paper_s", "measured_s"],
    );

    // Producer / consumer on NVM (same as Table III's NVM rows).
    let cfg = ProdConsConfig::default();
    let mut sim = fresh_world();
    let p = run_phase(&mut sim, 0, "pmdk0", &cfg.producer()).as_secs_f64();
    let c = run_phase(&mut sim, 0, "pmdk0", &cfg.consumer()).as_secs_f64();
    report.row(["Producer".into(), "64".to_string(), format!("{p:.1}")]);
    report.row(["Consumer".into(), "30".to_string(), format!("{c:.1}")]);

    // HPCG while the producer's output is staged out to Lustre.
    let stage_out = TaskSpec::mv(
        ResourceDesc::posix("pmdk0", "out"),
        ResourceDesc::posix("lustre", "archive/out"),
    );
    let hpcg_out = hpcg_with_staging(Some(stage_out), 0);
    report.row([
        "HPCG stage out".into(),
        "137".to_string(),
        format!("{hpcg_out:.1}"),
    ]);

    // HPCG while the consumer's input is staged in from Lustre.
    let stage_in = TaskSpec::copy(
        ResourceDesc::posix("lustre", "staged"),
        ResourceDesc::posix("pmdk0", "in"),
    );
    let hpcg_in = hpcg_with_staging(Some(stage_in), 0);
    report.row([
        "HPCG stage in".into(),
        "142".to_string(),
        format!("{hpcg_in:.1}"),
    ]);

    // HPCG baseline.
    let hpcg_idle = hpcg_with_staging(None, 0);
    report.row([
        "HPCG no activity".into(),
        "122".to_string(),
        format!("{hpcg_idle:.1}"),
    ]);

    report.note(format!(
        "measured staging impact: stage-out +{:.0}%, stage-in +{:.0}% (paper ~12-16%)",
        (hpcg_out / hpcg_idle - 1.0) * 100.0,
        (hpcg_in / hpcg_idle - 1.0) * 100.0
    ));
    report.note("producer/consumer are unaffected by staging mode (paper: 'commensurate')");
    report.finish();
}
