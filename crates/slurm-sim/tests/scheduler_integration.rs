//! End-to-end scheduler tests: full workflows with staging on a
//! simulated NEXTGenIO slice.

use norns::{HasNorns, NornsWorld, TaskCompletion};
use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimDuration, SimTime};
use simstore::{Cred, Mode};
use slurm_sim::{
    submit_script, HasSlurm, JobBody, JobEvent, JobState, SchedConfig, SlurmJobId, Slurmctld,
};

const GIB: u64 = 1 << 30;

struct Model {
    world: NornsWorld,
    ctld: Slurmctld,
    events: Vec<(SimTime, JobEvent)>,
    /// (job name, bytes, tier, path) written into node-local storage
    /// when the job starts — simulates the application's output.
    writes_on_start: Vec<(String, u64, String, String)>,
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
        sim.model.events.push((now, event.clone()));
        // Simulate application output at job start.
        if let JobEvent::Started { job, nodes } = &event {
            let name = sim.model.ctld.job(*job).unwrap().script.name.clone();
            let writes = sim.model.writes_on_start.clone();
            for (jname, bytes, tier, path) in writes {
                if jname == name {
                    let t = sim.model.world.storage.resolve(&tier).unwrap();
                    for &n in nodes {
                        let node_arg = if sim.model.world.storage.kind(t).is_node_local() {
                            Some(n)
                        } else {
                            None
                        };
                        sim.model
                            .world
                            .storage
                            .ns_mut(t, node_arg)
                            .write_file(&path, bytes, &Cred::new(1000, 1000), Mode(0o644))
                            .unwrap();
                    }
                }
            }
        }
    }
}

fn testbed(nodes: usize, config: SchedConfig) -> Sim<Model> {
    let tb = cluster::nextgenio_quiet(nodes);
    let ctld = Slurmctld::new(nodes, config);
    let model = Model {
        world: tb.world,
        ctld,
        events: Vec::new(),
        writes_on_start: Vec::new(),
    };
    let mut sim = Sim::new(model, 7);
    for n in 0..nodes {
        norns::sim::ops::register_dataspace(&mut sim, n, "pmdk0", "pmdk0", false).unwrap();
        norns::sim::ops::register_dataspace(&mut sim, n, "lustre", "lustre", false).unwrap();
    }
    sim
}

fn cred() -> Cred {
    Cred::new(1000, 1000)
}

fn state_of(sim: &Sim<Model>, id: SlurmJobId) -> JobState {
    sim.model.ctld.job(id).unwrap().state
}

fn put_pfs(sim: &mut Sim<Model>, path: &str, bytes: u64) {
    let t = sim.model.world.storage.resolve("lustre").unwrap();
    sim.model
        .world
        .storage
        .ns_mut(t, None)
        .write_file(path, bytes, &cred(), Mode(0o644))
        .unwrap();
}

fn nvm_has(sim: &Sim<Model>, node: usize, path: &str) -> bool {
    let t = sim.model.world.storage.resolve("pmdk0").unwrap();
    sim.model.world.storage.ns(t, Some(node)).exists(path)
}

#[test]
fn fixed_job_without_staging_completes() {
    let mut sim = testbed(4, SchedConfig::default());
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=hello\n#SBATCH --nodes=2\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(120)),
    )
    .unwrap();
    sim.run();
    assert_eq!(state_of(&sim, id), JobState::Completed);
    let job = sim.model.ctld.job(id).unwrap();
    assert_eq!(job.compute_time(), Some(SimDuration::from_secs(120)));
    assert_eq!(job.nodes.len(), 2);
    assert_eq!(sim.model.ctld.free_nodes(), 4, "nodes released");
}

#[test]
fn stage_in_runs_before_compute_and_cleans_after() {
    let mut sim = testbed(2, SchedConfig::default());
    put_pfs(&mut sim, "inputs/mesh.dat", 2 * GIB);
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=sim\n#SBATCH --nodes=2\n\
         #NORNS stage_in lustre://inputs/mesh.dat pmdk0://work/mesh.dat all\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(60)),
    )
    .unwrap();
    // Run until the job starts computing.
    while state_of(&sim, id) != JobState::Running && sim.step() {}
    assert_eq!(state_of(&sim, id), JobState::Running);
    // Data present on both nodes during compute.
    assert!(nvm_has(&sim, 0, "work/mesh.dat"));
    assert!(nvm_has(&sim, 1, "work/mesh.dat"));
    let job = sim.model.ctld.job(id).unwrap();
    let stage_secs = job.stage_in_time().unwrap().as_secs_f64();
    // Two nodes pulling 2 GiB each from Lustre concurrently: client
    // lanes 2×2.4 GiB/s demand vs ~4.4 GiB/s OST read: ≈0.9-1.1 s.
    assert!(
        (0.5..2.0).contains(&stage_secs),
        "stage-in took {stage_secs}"
    );
    sim.run();
    assert_eq!(state_of(&sim, id), JobState::Completed);
    // cleanup_stage_in removed the staged copies.
    assert!(!nvm_has(&sim, 0, "work/mesh.dat"));
    assert!(!nvm_has(&sim, 1, "work/mesh.dat"));
}

#[test]
fn stage_out_moves_results_to_pfs() {
    let mut sim = testbed(1, SchedConfig::default());
    sim.model.writes_on_start.push((
        "producer".into(),
        4 * GIB,
        "pmdk0".into(),
        "out/result.dat".into(),
    ));
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=producer\n#SBATCH --nodes=1\n\
         #NORNS stage_out pmdk0://out lustre://archive/run1 gather\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(30)),
    )
    .unwrap();
    sim.run();
    assert_eq!(state_of(&sim, id), JobState::Completed);
    let t = sim.model.world.storage.resolve("lustre").unwrap();
    assert!(sim
        .model
        .world
        .storage
        .ns(t, None)
        .exists("archive/run1/result.dat"));
    assert!(
        !nvm_has(&sim, 0, "out/result.dat"),
        "move semantics clear the NVM"
    );
    let job = sim.model.ctld.job(id).unwrap();
    assert!(job.stage_out_time().unwrap() > SimDuration::ZERO);
    assert!(job.leftover_stageout.is_empty());
}

#[test]
fn workflow_persist_reuses_producer_node() {
    let mut sim = testbed(4, SchedConfig::default());
    sim.model.writes_on_start.push((
        "producer".into(),
        8 * GIB,
        "pmdk0".into(),
        "shared/data.bin".into(),
    ));
    let producer = submit_script(
        &mut sim,
        "#SBATCH --job-name=producer\n#SBATCH --nodes=1\n#SBATCH --workflow-start\n\
         #NORNS persist store pmdk0://shared alice\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(60)),
    )
    .unwrap();
    let consumer = submit_script(
        &mut sim,
        "#SBATCH --job-name=consumer\n#SBATCH --nodes=1\n\
         #SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=producer\n\
         #NORNS stage_in pmdk0://shared pmdk0://shared all\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(30)),
    )
    .unwrap();
    sim.run();
    assert_eq!(state_of(&sim, producer), JobState::Completed);
    assert_eq!(state_of(&sim, consumer), JobState::Completed);
    let pnodes = sim.model.ctld.job(producer).unwrap().nodes.clone();
    let cnodes = sim.model.ctld.job(consumer).unwrap().nodes.clone();
    assert_eq!(
        pnodes, cnodes,
        "data affinity should reuse the producer's node"
    );
    // Stage-in was a no-op: data already local.
    let cjob = sim.model.ctld.job(consumer).unwrap();
    assert_eq!(cjob.stage_in_time(), Some(SimDuration::ZERO));
    // The consumer must not start before the producer completes.
    let pfin = sim.model.ctld.job(producer).unwrap().finished.unwrap();
    let cstart = sim
        .model
        .ctld
        .job(consumer)
        .unwrap()
        .stage_in_started
        .unwrap();
    assert!(cstart >= pfin);
}

#[test]
fn persisted_data_is_pulled_node_to_node_when_needed() {
    let mut sim = testbed(2, SchedConfig::default());
    sim.model.writes_on_start.push((
        "producer".into(),
        2 * GIB,
        "pmdk0".into(),
        "shared/data.bin".into(),
    ));
    let producer = submit_script(
        &mut sim,
        "#SBATCH --job-name=producer\n#SBATCH --nodes=1\n#SBATCH --workflow-start\n\
         #NORNS persist store pmdk0://shared alice\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    // Consumer needs BOTH nodes: node 0 holds the data (skip), node 1
    // pulls it over the fabric.
    let consumer = submit_script(
        &mut sim,
        "#SBATCH --job-name=consumer\n#SBATCH --nodes=2\n\
         #SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=producer\n\
         #NORNS stage_in pmdk0://shared pmdk0://shared all\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    sim.run();
    assert_eq!(state_of(&sim, producer), JobState::Completed);
    assert_eq!(state_of(&sim, consumer), JobState::Completed);
    let cjob = sim.model.ctld.job(consumer).unwrap();
    let stage = cjob.stage_in_time().unwrap().as_secs_f64();
    // 2 GiB over the 1.7 GiB/s pull session ≈ 1.2 s.
    assert!(
        (0.8..2.5).contains(&stage),
        "node-to-node stage took {stage}"
    );
}

#[test]
fn workflow_failure_cancels_downstream_jobs() {
    let mut sim = testbed(2, SchedConfig::default());
    // Producer's stage-in references a missing PFS file → job fails.
    let producer = submit_script(
        &mut sim,
        "#SBATCH --job-name=producer\n#SBATCH --nodes=1\n#SBATCH --workflow-start\n\
         #NORNS stage_in lustre://missing.dat pmdk0://in all\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    let consumer = submit_script(
        &mut sim,
        "#SBATCH --job-name=consumer\n#SBATCH --nodes=1\n\
         #SBATCH --workflow-prior-dependency=producer\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    let tail = submit_script(
        &mut sim,
        "#SBATCH --job-name=tail\n#SBATCH --nodes=1\n\
         #SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=consumer\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    sim.run();
    assert_eq!(state_of(&sim, producer), JobState::Failed);
    assert_eq!(state_of(&sim, consumer), JobState::Cancelled);
    assert_eq!(state_of(&sim, tail), JobState::Cancelled);
    assert_eq!(sim.model.ctld.free_nodes(), 2);
}

#[test]
fn stage_in_timeout_cancels_and_cleans() {
    let config = SchedConfig {
        stage_in_timeout: SimDuration::from_millis(200),
        ..Default::default()
    };
    let mut sim = testbed(1, config);
    // 100 GiB from Lustre takes far longer than 200 ms.
    put_pfs(&mut sim, "big/dataset", 100 * GIB);
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=big\n#SBATCH --nodes=1\n\
         #NORNS stage_in lustre://big/dataset pmdk0://big all\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    sim.run();
    assert_eq!(state_of(&sim, id), JobState::Cancelled);
    let job = sim.model.ctld.job(id).unwrap();
    assert_eq!(job.failure_reason.as_deref(), Some("stage-in timeout"));
    // In-flight transfer finished eventually, then cleanup removed it.
    assert!(!nvm_has(&sim, 0, "big"), "staged data must be cleaned up");
    assert_eq!(sim.model.ctld.free_nodes(), 1, "node returned to the pool");
}

#[test]
fn stage_out_failure_leaves_data_for_recovery() {
    let mut sim = testbed(1, SchedConfig::default());
    // Fill Lustre almost completely so the stage-out hits NoSpace.
    {
        let t = sim.model.world.storage.resolve("lustre").unwrap();
        let ns = sim.model.world.storage.ns_mut(t, None);
        let avail = ns.available();
        ns.write_file("filler.bin", avail - GIB / 2, &cred(), Mode(0o644))
            .unwrap();
    }
    sim.model.writes_on_start.push((
        "producer".into(),
        2 * GIB,
        "pmdk0".into(),
        "out/result.dat".into(),
    ));
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=producer\n#SBATCH --nodes=1\n\
         #NORNS stage_out pmdk0://out lustre://archive gather\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(5)),
    )
    .unwrap();
    sim.run();
    // Job still completes; data left on the node for later recovery.
    assert_eq!(state_of(&sim, id), JobState::Completed);
    let job = sim.model.ctld.job(id).unwrap();
    assert_eq!(job.leftover_stageout.len(), 1);
    assert!(nvm_has(&sim, 0, "out/result.dat"), "data left in place");
}

#[test]
fn workflow_boost_prioritizes_later_phases() {
    let config = SchedConfig {
        backfill: false,
        ..Default::default()
    };
    let mut sim = testbed(1, config);
    sim.model
        .writes_on_start
        .push(("phase1".into(), GIB, "pmdk0".into(), "wf/data".into()));
    let phase1 = submit_script(
        &mut sim,
        "#SBATCH --job-name=phase1\n#SBATCH --nodes=1\n#SBATCH --workflow-start\n\
         #NORNS persist store pmdk0://wf alice\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(100)),
    )
    .unwrap();
    // An unrelated job queued while phase1 runs (older than phase2).
    let unrelated = submit_script(
        &mut sim,
        "#SBATCH --job-name=other\n#SBATCH --nodes=1\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(100)),
    )
    .unwrap();
    let phase2 = submit_script(
        &mut sim,
        "#SBATCH --job-name=phase2\n#SBATCH --nodes=1\n\
         #SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=phase1\n\
         #NORNS stage_in pmdk0://wf pmdk0://wf all\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(50)),
    )
    .unwrap();
    sim.run();
    let p2_start = sim.model.ctld.job(phase2).unwrap().started.unwrap();
    let other_start = sim.model.ctld.job(unrelated).unwrap().started.unwrap();
    assert!(
        p2_start < other_start,
        "workflow boost should run phase2 ({p2_start}) before the older unrelated job ({other_start})"
    );
    assert_eq!(state_of(&sim, phase1), JobState::Completed);
    assert_eq!(state_of(&sim, phase2), JobState::Completed);
    assert_eq!(state_of(&sim, unrelated), JobState::Completed);
}

#[test]
fn backfill_lets_small_jobs_jump_blocked_heads() {
    let run = |backfill: bool| -> (SimTime, SimTime) {
        let config = SchedConfig {
            backfill,
            ..Default::default()
        };
        let mut sim = testbed(2, config);
        let _a = submit_script(
            &mut sim,
            "#SBATCH --job-name=a\n#SBATCH --nodes=1\n",
            cred(),
            JobBody::Fixed(SimDuration::from_secs(100)),
        )
        .unwrap();
        // Head of queue: needs both nodes, blocked while A runs.
        let b = submit_script(
            &mut sim,
            "#SBATCH --job-name=b\n#SBATCH --nodes=2\n",
            cred(),
            JobBody::Fixed(SimDuration::from_secs(10)),
        )
        .unwrap();
        // Small job that fits on the free node right now.
        let c = submit_script(
            &mut sim,
            "#SBATCH --job-name=c\n#SBATCH --nodes=1\n",
            cred(),
            JobBody::Fixed(SimDuration::from_secs(10)),
        )
        .unwrap();
        sim.run();
        (
            sim.model.ctld.job(c).unwrap().started.unwrap(),
            sim.model.ctld.job(b).unwrap().started.unwrap(),
        )
    };
    let (c_with, _) = run(true);
    let (c_without, _) = run(false);
    assert!(
        c_with < c_without,
        "backfill should start C earlier ({c_with} vs {c_without})"
    );
    assert_eq!(c_with, SimTime::ZERO, "C backfills immediately");
}

#[test]
fn workflow_status_reports_all_jobs() {
    let mut sim = testbed(2, SchedConfig::default());
    sim.model
        .writes_on_start
        .push(("p".into(), GIB, "pmdk0".into(), "d/x".into()));
    let p = submit_script(
        &mut sim,
        "#SBATCH --job-name=p\n#SBATCH --nodes=1\n#SBATCH --workflow-start\n\
         #NORNS persist store pmdk0://d alice\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(500)),
    )
    .unwrap();
    let c = submit_script(
        &mut sim,
        "#SBATCH --job-name=c\n#SBATCH --nodes=1\n\
         #SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=p\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(5)),
    )
    .unwrap();
    // Mid-run: p running, c pending.
    sim.run_until(SimTime::from_secs(100));
    let wf = sim.model.ctld.job(p).unwrap().workflow.unwrap();
    let status = sim.model.ctld.workflow_status(wf);
    assert_eq!(status.len(), 2);
    assert_eq!(status[0].1, "p");
    assert_eq!(status[0].2, JobState::Running);
    assert_eq!(status[1].1, "c");
    assert_eq!(status[1].2, JobState::Pending);
    sim.run();
    let status = sim.model.ctld.workflow_status(wf);
    assert!(status.iter().all(|(_, _, s)| *s == JobState::Completed));
    let _ = c;
}

#[test]
fn scatter_mapping_splits_children_across_nodes() {
    let mut sim = testbed(2, SchedConfig::default());
    // 4 children in a PFS dir, scattered over 2 nodes.
    for i in 0..4 {
        put_pfs(&mut sim, &format!("case/processor{i}/U"), GIB / 4);
    }
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=solver\n#SBATCH --nodes=2\n\
         #NORNS stage_in lustre://case pmdk0://case scatter\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(600)),
    )
    .unwrap();
    while state_of(&sim, id) != JobState::Running && sim.step() {}
    // Children alternate: processor0,2 → node0; processor1,3 → node1.
    assert!(nvm_has(&sim, 0, "case/processor0/U"));
    assert!(nvm_has(&sim, 1, "case/processor1/U"));
    assert!(nvm_has(&sim, 0, "case/processor2/U"));
    assert!(nvm_has(&sim, 1, "case/processor3/U"));
    assert!(
        !nvm_has(&sim, 0, "case/processor1/U"),
        "scatter must not replicate"
    );
    sim.run();
}

#[test]
fn events_are_logged_in_order() {
    let mut sim = testbed(1, SchedConfig::default());
    put_pfs(&mut sim, "in.dat", GIB);
    sim.model
        .writes_on_start
        .push(("j".into(), GIB, "pmdk0".into(), "out.dat".into()));
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=j\n#SBATCH --nodes=1\n\
         #NORNS stage_in lustre://in.dat pmdk0://in.dat all\n\
         #NORNS stage_out pmdk0://out.dat lustre://out.dat gather\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    sim.run();
    let kinds: Vec<&'static str> = sim
        .model
        .events
        .iter()
        .filter(|(_, e)| e.job() == id)
        .map(|(_, e)| match e {
            JobEvent::Submitted { .. } => "submitted",
            JobEvent::StageInStarted { .. } => "stage-in",
            JobEvent::Started { .. } => "started",
            JobEvent::StageOutStarted { .. } => "stage-out",
            JobEvent::Completed { .. } => "completed",
            _ => "other",
        })
        .collect();
    assert_eq!(
        kinds,
        vec!["submitted", "stage-in", "started", "stage-out", "completed"]
    );
}

#[test]
fn out_of_range_node_mapping_is_refused_at_submit_in_both_phases() {
    // The real-mode executor refuses these scripts at `submit`; the
    // simulator used to accept them — failing the stage-in at run time
    // and, worse, staging *nothing* for the stage-out while reporting
    // the job Completed with no leftover.
    let mut sim = testbed(2, SchedConfig::default());
    for directive in [
        "stage_in lustre://in.dat pmdk0://in.dat node:2",
        "stage_out pmdk0://out.dat lustre://out.dat node:2",
    ] {
        let err = submit_script(
            &mut sim,
            &format!("#SBATCH --job-name=j\n#SBATCH --nodes=2\n#NORNS {directive}\n"),
            cred(),
            JobBody::Fixed(SimDuration::from_secs(10)),
        )
        .unwrap_err();
        assert!(err.contains("node:2 out of range"), "{directive}: {err}");
    }
    assert_eq!(sim.model.ctld.queue_len(), 0, "nothing was queued");
    // The last in-range slot still plans.
    sim.model
        .writes_on_start
        .push(("ok".into(), GIB, "pmdk0".into(), "out.dat".into()));
    let id = submit_script(
        &mut sim,
        "#SBATCH --job-name=ok\n#SBATCH --nodes=2\n\
         #NORNS stage_out pmdk0://out.dat lustre://out.dat node:1\n",
        cred(),
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    sim.run();
    assert_eq!(state_of(&sim, id), JobState::Completed);
    let t = sim.model.world.storage.resolve("lustre").unwrap();
    assert!(sim.model.world.storage.ns(t, None).exists("out.dat"));
    assert!(!nvm_has(&sim, 1, "out.dat"), "node 1's copy was moved");
    assert!(nvm_has(&sim, 0, "out.dat"), "node 0 was not asked");
}
