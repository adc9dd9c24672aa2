//! A data-driven workflow on the extended scheduler (simulated
//! NEXTGenIO): producer → consumer with `persist store`, data
//! affinity, and stage-out to Lustre — the full §III machinery.
//!
//! ```text
//! cargo run --release --example workflow_staging
//! ```

use norns::{HasNorns, NornsWorld, TaskCompletion};
use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimDuration, SimTime};
use simstore::{Cred, Mode};
use slurm_sim::{submit_script, HasSlurm, JobBody, JobEvent, SchedConfig, Slurmctld};

struct Model {
    world: NornsWorld,
    ctld: Slurmctld,
    log: Vec<(SimTime, String)>,
}

impl FluidModel for Model {
    fn fluid_mut(&mut self) -> &mut FluidSystem {
        &mut self.world.fluid
    }
    fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
        norns::handle_flow_complete(sim, done);
    }
}

impl HasNorns for Model {
    fn norns_mut(&mut self) -> &mut NornsWorld {
        &mut self.world
    }
    fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion) {
        slurm_sim::handle_task_complete(sim, &completion);
    }
}

impl HasSlurm for Model {
    fn ctld_mut(&mut self) -> &mut Slurmctld {
        &mut self.ctld
    }
    fn on_job_event(sim: &mut Sim<Self>, event: JobEvent) {
        let now = sim.now();
        let name = sim
            .model
            .ctld
            .job(event.job())
            .map(|j| j.script.name.clone())
            .unwrap_or_default();
        let line = match &event {
            JobEvent::Submitted { .. } => format!("{name}: submitted"),
            JobEvent::StageInStarted { nodes, .. } => {
                format!("{name}: stage-in on nodes {nodes:?}")
            }
            JobEvent::Started { nodes, .. } => format!("{name}: compute on nodes {nodes:?}"),
            JobEvent::StageOutStarted { .. } => format!("{name}: stage-out"),
            JobEvent::Completed {
                leftovers, tracked, ..
            } => {
                format!("{name}: completed ({leftovers} stage-out leftovers, tracked data: {tracked:?})")
            }
            JobEvent::Failed { reason, .. } => format!("{name}: FAILED ({reason})"),
            JobEvent::Cancelled { reason, .. } => format!("{name}: cancelled ({reason})"),
        };
        // The producer "application" writes its output when it starts.
        if matches!(event, JobEvent::Started { .. }) && name == "producer" {
            let nodes = sim.model.ctld.job(event.job()).unwrap().nodes.clone();
            let t = sim.model.world.storage.resolve("pmdk0").unwrap();
            sim.model
                .world
                .storage
                .ns_mut(t, Some(nodes[0]))
                .write_file(
                    "wf/out.bin",
                    20_000_000_000,
                    &Cred::new(1000, 1000),
                    Mode(0o644),
                )
                .unwrap();
        }
        sim.model.log.push((now, line));
    }
}

fn main() {
    let tb = cluster::nextgenio_quiet(4);
    let nodes = tb.world.nodes();
    let mut sim = Sim::new(
        Model {
            world: tb.world,
            ctld: Slurmctld::new(nodes, SchedConfig::default()),
            log: vec![],
        },
        1,
    );
    workloads::register_tiers(&mut sim);
    let cred = Cred::new(1000, 1000);

    // Producer: 1 node, keeps its 20 GB output on NVM for the workflow.
    submit_script(
        &mut sim,
        "#SBATCH --job-name=producer\n#SBATCH --nodes=1\n#SBATCH --workflow-start\n\
         #NORNS persist store pmdk0://wf alice\n",
        cred.clone(),
        JobBody::Fixed(SimDuration::from_secs(60)),
    )
    .unwrap();

    // Consumer: 2 nodes; node reuse + node-to-node pull for the rest;
    // final results staged out to Lustre.
    submit_script(
        &mut sim,
        "#SBATCH --job-name=consumer\n#SBATCH --nodes=2\n\
         #SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=producer\n\
         #NORNS stage_in pmdk0://wf pmdk0://wf all\n\
         #NORNS stage_out pmdk0://wf lustre://archive/run1 gather\n",
        cred,
        JobBody::Fixed(SimDuration::from_secs(30)),
    )
    .unwrap();

    sim.run();

    println!("workflow timeline:");
    for (t, line) in &sim.model.log {
        println!("  [{:>8.3}s] {line}", t.as_secs_f64());
    }
    let t = sim.model.world.storage.resolve("lustre").unwrap();
    let archived = sim
        .model
        .world
        .storage
        .ns(t, None)
        .exists("archive/run1/out.bin");
    println!("result archived on Lustre: {archived}");
    assert!(archived);
}
