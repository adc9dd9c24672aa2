//! Table V — OpenFOAM workflow using Lustre vs NVMs + data staging.
//!
//! Aircraft-surface transition simulation, ≈43 M mesh points,
//! decomposed for 768 ranks over 16 nodes, 20 solver timesteps,
//! 160 GB of output with a directory per process. Paper:
//!
//! | phase         | Lustre | NVMs  |
//! |---------------|--------|-------|
//! | decomposition | 1191 s | 1105 s|
//! | data-staging  |   –    |  32 s |
//! | solver        |  123 s |  66 s |

use norns::sim::ops;
use norns::{ApiSource, JobId, JobSpec, ResourceDesc, TaskSpec};
use norns_bench::Report;
use simcore::{Sim, SimDuration, SimTime};
use simstore::Cred;
use workloads::openfoam::{decompose, solver, OpenFoamConfig};
use workloads::{register_tiers, BenchWorld};

fn world(nodes: usize, seed: u64) -> Sim<BenchWorld> {
    let tb = cluster::nextgenio(nodes);
    let mut sim = Sim::new(BenchWorld::new(tb.world), seed);
    register_tiers(&mut sim);
    cluster::drive_interference(
        &mut sim,
        SimDuration::from_secs(600),
        SimTime::from_secs(36_000),
    );
    ops::register_job(
        &mut sim,
        JobSpec {
            id: JobId(1),
            hosts: (0..nodes).collect(),
            limits: vec![("pmdk0".into(), 0), ("lustre".into(), 0)],
            cred: Cred::new(1000, 1000),
        },
    )
    .unwrap();
    sim
}

fn main() {
    let cfg = OpenFoamConfig::default();
    let solver_nodes: Vec<usize> = (0..cfg.solver_nodes).collect();

    // ---- Lustre end to end ----
    let mut sim = world(cfg.solver_nodes, 41);
    let dec_lustre = decompose(&mut sim, 0, "lustre", "case", &cfg)
        .runtime()
        .as_secs_f64();
    let sol_lustre = solver(&mut sim, &solver_nodes, "lustre", &cfg)
        .runtime()
        .as_secs_f64();

    // ---- NVM + staging ----
    let mut sim = world(cfg.solver_nodes, 42);
    let dec_nvm = decompose(&mut sim, 0, "pmdk0", "case", &cfg)
        .runtime()
        .as_secs_f64();
    // Redistribute the decomposed case from node 0 to the other
    // solver nodes (node-to-node NORNS transfers, the paper's 32 s
    // step). The transfers are pushed by the decompose node's urd,
    // whose worker serializes the mmap'd case directories — matching
    // the paper's single sequential copy stream.
    sim.model.world.urds[0].queue = norns::TaskQueue::fcfs(1);
    let staging_start = sim.now();
    let mut outstanding = 0;
    for r in 0..cfg.ranks {
        let target = r % cfg.solver_nodes;
        if target == 0 {
            continue; // already local to the decompose node
        }
        let spec = TaskSpec::copy(
            ResourceDesc::posix("pmdk0", format!("case/processor{r}")),
            ResourceDesc::remote(
                sim.model.world.host(target),
                "pmdk0",
                format!("case/processor{r}"),
            ),
        );
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, r as u64).unwrap();
        outstanding += 1;
    }
    let _ = workloads::wait_task_completions(&mut sim, outstanding);
    let staging = (sim.now() - staging_start).as_secs_f64();
    let sol_nvm = solver(&mut sim, &solver_nodes, "pmdk0", &cfg)
        .runtime()
        .as_secs_f64();

    let mut report = Report::new(
        "table5",
        "OpenFOAM workflow: Lustre vs NVMs + data staging",
        [
            "phase",
            "paper_lustre_s",
            "measured_lustre_s",
            "paper_nvm_s",
            "measured_nvm_s",
        ],
    );
    report.row([
        "decomposition".to_string(),
        "1191".to_string(),
        format!("{dec_lustre:.0}"),
        "1105".to_string(),
        format!("{dec_nvm:.0}"),
    ]);
    report.row([
        "data-staging".to_string(),
        "-".to_string(),
        "-".to_string(),
        "32".to_string(),
        format!("{staging:.0}"),
    ]);
    report.row([
        "solver".to_string(),
        "123".to_string(),
        format!("{sol_lustre:.0}"),
        "66".to_string(),
        format!("{sol_nvm:.0}"),
    ]);
    report.note(format!(
        "solver speedup: paper 1.86x, measured {:.2}x; staging cost amortizes over longer runs",
        sol_lustre / sol_nvm
    ));
    report.finish();
}
