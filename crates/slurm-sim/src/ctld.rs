//! `slurmctld` — the extended batch scheduler.
//!
//! Implements the paper's §III extensions around a classic FCFS (+
//! optional skip-ahead backfill) core:
//!
//! * workflow units with updated priorities as phases progress,
//! * `#NORNS stage_in/stage_out/persist` execution through the NORNS
//!   control API, with mapping-aware per-node task planning,
//! * ETA-aware data-affinity node selection (schedule computation to
//!   the nodes that already hold persisted data),
//! * stage-in timeout → job termination + cleanup of staged data,
//! * stage-out failure → data left in place for later recovery,
//! * tracked-dataspace checks at node release.
//!
//! Every decision about a job — its state, what a failed leg, a refused
//! submission, the stage-in timeout or a failed body does to it, when
//! its dependents are cancelled — is a row of one pure table,
//! [`norns_flow::job::step`], which the real-mode executor runs too.
//! This module applies it at one site, `apply`, and keeps only its own
//! side effects: allocation, priority, `persist` directives and stage
//! tags. One gap stays: a completed job's non-persisted stage-in data is
//! removed here (`cleanup_after_success`), and real mode keeps it.

use std::collections::HashMap;

use norns::sim::ops as nops;
use norns::{ApiSource, JobId as NornsJobId, ResourceDesc, TaskCompletion, TaskSpec};
use norns_flow::job::{self, Action, Event};
use norns_flow::plan::{self, plan, Listing, Stage};
use simcore::{EventId, Sim, SimDuration, SimTime};
use simnet::NodeId;
use simstore::{Cred, NsError};

use crate::job::{
    decode_stage_tag, stage_tag, Job, JobBody, JobState, Legs, SlurmJobId, StagePurpose,
};
use crate::script::{split_location, JobScript, PersistOp, WorkflowPos};
use crate::workflow::{PersistedData, WorkflowId, WorkflowRegistry};

/// Scheduler tunables (ablation knobs for the benches).
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Kill a job whose stage-in has not finished by this deadline
    /// ("until a pre-configured timeout is encountered", §III).
    pub stage_in_timeout: SimDuration,
    /// Skip-ahead backfill: later jobs may start if the queue head
    /// does not fit.
    pub backfill: bool,
    /// Prefer nodes already holding the job's persisted input data.
    pub data_affinity: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            stage_in_timeout: SimDuration::from_secs(1800),
            backfill: true,
            data_affinity: true,
        }
    }
}

/// Queue priority: weight of queue age (per second).
const AGE_WEIGHT: f64 = 1.0;

/// Queue priority boost for jobs whose workflow already has completed
/// phases ("each intermediate job gets updated priorities … as the
/// different phases progress").
const WORKFLOW_BOOST: f64 = 10_000.0;

/// Scheduler-visible job/lifecycle events, delivered to the embedding
/// model (workload drivers) and appended to the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    Submitted {
        job: SlurmJobId,
    },
    StageInStarted {
        job: SlurmJobId,
        nodes: Vec<NodeId>,
    },
    Started {
        job: SlurmJobId,
        nodes: Vec<NodeId>,
    },
    StageOutStarted {
        job: SlurmJobId,
    },
    /// `leftovers` stage-out legs left their data behind; `tracked`
    /// is, per node, the tracked dataspaces still holding data when the
    /// job unregistered.
    Completed {
        job: SlurmJobId,
        leftovers: usize,
        tracked: Vec<(NodeId, Vec<String>)>,
    },
    Failed {
        job: SlurmJobId,
        reason: String,
    },
    Cancelled {
        job: SlurmJobId,
        reason: String,
    },
}

impl JobEvent {
    pub fn job(&self) -> SlurmJobId {
        match self {
            JobEvent::Submitted { job }
            | JobEvent::StageInStarted { job, .. }
            | JobEvent::Started { job, .. }
            | JobEvent::StageOutStarted { job }
            | JobEvent::Completed { job, .. }
            | JobEvent::Failed { job, .. }
            | JobEvent::Cancelled { job, .. } => *job,
        }
    }
}

/// The controller state.
pub struct Slurmctld {
    pub config: SchedConfig,
    jobs: HashMap<u64, Job>,
    queue: Vec<SlurmJobId>,
    pub workflows: WorkflowRegistry,
    node_owner: Vec<Option<SlurmJobId>>,
    next_job: u64,
    pass_pending: bool,
    /// The job whose phase is being submitted, and the completions its
    /// legs delivered meanwhile (a task whose plan fails, or a zero-byte
    /// flow, ends inside its submission), applied after it.
    held: Option<(SlurmJobId, Vec<TaskCompletion>)>,
    pub log: Vec<(SimTime, JobEvent)>,
}

impl Slurmctld {
    pub fn new(nodes: usize, config: SchedConfig) -> Self {
        Slurmctld {
            config,
            jobs: HashMap::new(),
            queue: Vec::new(),
            workflows: WorkflowRegistry::new(),
            node_owner: vec![None; nodes],
            next_job: 0,
            pass_pending: false,
            held: None,
            log: Vec::new(),
        }
    }

    pub fn job(&self, id: SlurmJobId) -> Option<&Job> {
        self.jobs.get(&id.0)
    }

    fn job_mut(&mut self, id: SlurmJobId) -> &mut Job {
        self.jobs.get_mut(&id.0).expect("unknown job id")
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub fn free_nodes(&self) -> usize {
        self.node_owner.iter().filter(|o| o.is_none()).count()
    }

    /// Jobs and states of a workflow (`squeue --workflow` analogue).
    pub fn workflow_status(&self, wf: WorkflowId) -> Vec<(SlurmJobId, String, JobState)> {
        let Some(w) = self.workflows.get(wf) else {
            return Vec::new();
        };
        w.jobs
            .iter()
            .map(|id| {
                let job = &self.jobs[&id.0];
                (*id, job.script.name.clone(), job.life.state)
            })
            .collect()
    }

    fn priority(&self, id: SlurmJobId, now: SimTime) -> f64 {
        let job = &self.jobs[&id.0];
        let age = (now - job.submitted).as_secs_f64() * AGE_WEIGHT;
        let boost = match job.workflow {
            Some(wf) => {
                let progressed = self
                    .workflows
                    .get(wf)
                    .map(|w| {
                        w.jobs
                            .iter()
                            .any(|j| self.jobs[&j.0].life.state == JobState::Completed)
                    })
                    .unwrap_or(false);
                if progressed {
                    WORKFLOW_BOOST
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        age + boost
    }

    fn deps_satisfied(&self, id: SlurmJobId) -> bool {
        let job = &self.jobs[&id.0];
        let Some(wf) = job.workflow else { return true };
        let Some(w) = self.workflows.get(wf) else {
            return true;
        };
        w.dependencies(id)
            .iter()
            .all(|d| self.jobs[&d.0].life.state == JobState::Completed)
    }

    /// Pick nodes for a job, preferring affinity nodes.
    fn pick_nodes(&self, want: usize, affinity: &[NodeId]) -> Option<Vec<NodeId>> {
        let free: Vec<NodeId> = self
            .node_owner
            .iter()
            .enumerate()
            .filter_map(|(n, o)| if o.is_none() { Some(n) } else { None })
            .collect();
        if free.len() < want {
            return None;
        }
        let mut picked: Vec<NodeId> = Vec::with_capacity(want);
        if self.config.data_affinity {
            for &n in affinity {
                if picked.len() < want && free.contains(&n) && !picked.contains(&n) {
                    picked.push(n);
                }
            }
        }
        for n in free {
            if picked.len() >= want {
                break;
            }
            if !picked.contains(&n) {
                picked.push(n);
            }
        }
        picked.sort_unstable();
        Some(picked)
    }
}

/// Implemented by models embedding the scheduler.
pub trait HasSlurm: norns::HasNorns {
    fn ctld_mut(&mut self) -> &mut Slurmctld;

    /// Lifecycle notifications (workload drivers react to `Started`).
    fn on_job_event(_sim: &mut Sim<Self>, _event: JobEvent) {}
}

/// A directive location as a path on whichever node runs the task.
/// A script's `#NORNS durability` for its stage-outs, `local_only`
/// unless it says otherwise (both ends of a simulated stage-out are
/// local, so every mode applies).
fn local_ref(location: &str) -> ResourceDesc {
    let (nsid, path) = split_location(location).expect("directive locations are checked at submit");
    ResourceDesc::posix(nsid, path)
}

fn emit<M: HasSlurm>(sim: &mut Sim<M>, event: JobEvent) {
    let now = sim.now();
    sim.model.ctld_mut().log.push((now, event.clone()));
    M::on_job_event(sim, event);
}

/// Submit a parsed job script. Returns the assigned job id.
pub fn submit<M: HasSlurm>(
    sim: &mut Sim<M>,
    script: JobScript,
    cred: Cred,
    body: JobBody,
) -> Result<SlurmJobId, String> {
    let now = sim.now();
    let nodes_in_cluster = sim.model.norns_mut().nodes();
    if script.nodes > nodes_in_cluster {
        return Err(format!(
            "job wants {} nodes but the cluster has {nodes_in_cluster}",
            script.nodes
        ));
    }
    // What the planner can refuse without an allocation (malformed
    // locations, `node:k` beyond `--nodes`) is refused here, in both
    // phases, exactly like the real-mode executor's `submit`.
    for d in script.stage_in.iter().chain(&script.stage_out) {
        plan::check(d, script.nodes)?;
    }
    let ctld = sim.model.ctld_mut();
    ctld.next_job += 1;
    let id = SlurmJobId(ctld.next_job);
    let mut job = Job::new(id, script, body, cred, now);
    // Workflow membership.
    job.workflow = match &job.script.workflow {
        WorkflowPos::None => None,
        WorkflowPos::Start => Some(ctld.workflows.start(id, &job.script.name)),
        WorkflowPos::Dependent(deps) => Some(
            ctld.workflows
                .attach(id, &job.script.name.clone(), deps, false)
                .map_err(|e| e.to_string())?,
        ),
        WorkflowPos::End(deps) => Some(
            ctld.workflows
                .attach(id, &job.script.name.clone(), deps, true)
                .map_err(|e| e.to_string())?,
        ),
    };
    ctld.jobs.insert(id.0, job);
    ctld.queue.push(id);
    emit(sim, JobEvent::Submitted { job: id });
    kick(sim);
    Ok(id)
}

/// Submit from script text (`sbatch` analogue).
pub fn submit_script<M: HasSlurm>(
    sim: &mut Sim<M>,
    text: &str,
    cred: Cred,
    body: JobBody,
) -> Result<SlurmJobId, String> {
    let script = crate::script::parse(text).map_err(|e| e.to_string())?;
    submit(sim, script, cred, body)
}

/// External job bodies call this when the application is done; an
/// `Err` fails the job and leaves its staged data in place.
pub fn app_finished<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId, result: Result<(), String>) {
    let ok = result.is_ok();
    apply(
        sim,
        id,
        Event::BodyEnded { ok },
        result.err().into_iter().collect(),
    );
}

/// Schedule a pass soon (coalesced).
fn kick<M: HasSlurm>(sim: &mut Sim<M>) {
    let ctld = sim.model.ctld_mut();
    if ctld.pass_pending {
        return;
    }
    ctld.pass_pending = true;
    sim.schedule_now(|sim| {
        sim.model.ctld_mut().pass_pending = false;
        schedule_pass(sim);
    });
}

/// One scheduling pass: sort the queue by priority, start everything
/// that is ready and fits.
fn schedule_pass<M: HasSlurm>(sim: &mut Sim<M>) {
    let now = sim.now();
    // Order queue by (priority desc, id asc).
    let order: Vec<SlurmJobId> = {
        let ctld = sim.model.ctld_mut();
        let mut q = ctld.queue.clone();
        q.sort_by(|a, b| {
            let pa = ctld.priority(*a, now);
            let pb = ctld.priority(*b, now);
            pb.partial_cmp(&pa).unwrap().then(a.0.cmp(&b.0))
        });
        q
    };
    for id in order {
        let (ready, want, affinity) = {
            let ctld = sim.model.ctld_mut();
            if !ctld.queue.contains(&id) {
                continue; // already started or cancelled this pass
            }
            let ready = ctld.deps_satisfied(id);
            let job = &ctld.jobs[&id.0];
            let world_nodes = job.script.nodes;
            let affinity = if ready {
                stage_in_affinity(ctld, id)
            } else {
                Vec::new()
            };
            (ready, world_nodes, affinity)
        };
        if !ready {
            continue;
        }
        let picked = sim.model.ctld_mut().pick_nodes(want, &affinity);
        match picked {
            Some(nodes) => {
                {
                    let ctld = sim.model.ctld_mut();
                    ctld.queue.retain(|j| *j != id);
                    for &n in &nodes {
                        ctld.node_owner[n] = Some(id);
                    }
                    let job = ctld.job_mut(id);
                    job.nodes = nodes;
                }
                apply(sim, id, Event::Deps { doomed: false }, Vec::new());
            }
            None => {
                let backfill = sim.model.ctld_mut().config.backfill;
                if !backfill {
                    break; // strict FCFS: head of queue blocks
                }
            }
        }
    }
}

/// Nodes holding persisted data this job's stage-ins reference.
fn stage_in_affinity(ctld: &Slurmctld, id: SlurmJobId) -> Vec<NodeId> {
    let job = &ctld.jobs[&id.0];
    let Some(w) = job.workflow.and_then(|wf| ctld.workflows.get(wf)) else {
        return Vec::new();
    };
    let mut nodes = Vec::new();
    for d in &job.script.stage_in {
        let persisted = split_location(&d.origin)
            .ok()
            .and_then(|(nsid, path)| w.persisted(nsid, path));
        for &h in persisted.iter().flat_map(|p| &p.holders) {
            if !nodes.contains(&h) {
                nodes.push(h);
            }
        }
    }
    nodes
}

// ------------------------------------------------------------------ //
// Stage-in
// ------------------------------------------------------------------ //

/// The one site a job's state changes: step it through the lifecycle
/// table on `event` and carry out the actions it returns, in order.
/// `notes` is what the event reports: the detail of a terminal reason,
/// or the leftovers it records.
fn apply<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId, event: Event, notes: Vec<String>) {
    let job = sim.model.ctld_mut().job_mut(id);
    let next = job::step(job.life, event);
    job.life = next.job;
    let mut tracked = Vec::new();
    for action in next.actions {
        match action {
            Action::Register => register(sim, id),
            Action::SubmitStageIn => begin_stage_in(sim, id),
            Action::StartBody => begin_compute(sim, id),
            Action::SubmitStageOut => begin_stage_out(sim, id),
            Action::CancelOutstanding => {
                let legs = sim.model.ctld_mut().job_mut(id).outstanding_stage.clone();
                for (node, task, _) in legs {
                    let _ = nops::cancel_task(sim, node, task);
                }
            }
            Action::RemoveLanded => remove_landed(sim, id),
            Action::RecordLeftover => {
                let job = sim.model.ctld_mut().job_mut(id);
                job.leftover_stageout.extend(notes.iter().cloned());
            }
            Action::Unregister => tracked = unregister(sim, id),
            Action::Emit(why) => terminate(sim, id, why, &notes, std::mem::take(&mut tracked)),
            Action::CancelDependents => cancel_dependents(sim, id),
        }
    }
}

/// Register the job with the urds on its nodes, granting every
/// dataspace registered there (quota-less; Slurm owns the grants).
fn register<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let now = sim.now();
    let (nodes, cred) = {
        let job = sim.model.ctld_mut().job_mut(id);
        job.stage_in_started = Some(now);
        (job.nodes.clone(), job.cred.clone())
    };
    let limits: Vec<(String, u64)> = {
        let world = sim.model.norns_mut();
        let mut names: Vec<String> = world.urds[nodes[0]]
            .controller
            .dataspaces()
            .map(|d| d.nsid.clone())
            .collect();
        names.sort();
        names.into_iter().map(|n| (n, 0)).collect()
    };
    let spec = norns::JobSpec {
        id: NornsJobId(id.0),
        hosts: nodes,
        limits,
        cred,
    };
    let registered = nops::register_job(sim, spec).map_err(|e| e.to_string());
    let ok = registered.is_ok();
    apply(
        sim,
        id,
        Event::Registered { ok },
        registered.err().into_iter().collect(),
    );
}

/// Plan and submit the stage-in legs; one refused submission kills the
/// stage-in, so the rest is not submitted.
fn begin_stage_in<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let nodes = sim.model.ctld_mut().job_mut(id).nodes.clone();
    emit(sim, JobEvent::StageInStarted { job: id, nodes });
    let (mut legs, mut refused) = (Vec::new(), Vec::new());
    sim.model.ctld_mut().held = Some((id, Vec::new()));
    match plan_stage_in(sim, id) {
        Err(e) => refused.push(e),
        Ok(plans) => {
            for (node, spec) in plans {
                let dst = spec.output.as_ref().and_then(|o| {
                    o.nsid()
                        .map(|n| (n.to_string(), o.path().unwrap_or("").to_string()))
                });
                let tag = stage_tag(StagePurpose::StageIn, id);
                match nops::submit_task(sim, node, NornsJobId(id.0), ApiSource::Control, spec, tag)
                {
                    Ok(task) => legs.push((node, task, dst)),
                    Err(e) => {
                        refused.push(format!("submission refused: {e}"));
                        break;
                    }
                }
            }
        }
    }
    submitted(sim, id, legs, refused);
}

/// Apply a phase's submission — `legs` submitted, `refused` not — arm a
/// stage-in's timeout, then apply the completions its legs delivered
/// while they were being submitted.
fn submitted<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId, legs: Legs, refused: Vec<String>) {
    let held = sim.model.ctld_mut().held.take().map(|(_, h)| h);
    let event = Event::Submitted {
        legs: legs.len(),
        refused: refused.len(),
    };
    sim.model
        .ctld_mut()
        .job_mut(id)
        .outstanding_stage
        .extend(legs);
    apply(sim, id, event, refused);
    if sim.model.ctld_mut().job_mut(id).life.state == JobState::StagingIn {
        let timeout = sim.model.ctld_mut().config.stage_in_timeout;
        let ev = sim.schedule_in(timeout, move |sim| {
            apply(sim, id, Event::StageInTimeout, Vec::new())
        });
        sim.model.ctld_mut().job_mut(id).stage_timeout = ev;
    }
    for completion in held.into_iter().flatten() {
        handle_task_complete(sim, &completion);
    }
}

/// Expand the job's stage-in directives into per-node NORNS tasks:
/// the shared planner says which node takes which path, this world
/// decides who serves it. A shared origin (PFS / burst buffer) is read
/// in place; a node-local origin is data persisted by an earlier phase,
/// pulled from its holders in rotation — unless the target is itself a
/// holder, the data-affinity win the paper schedules for.
fn plan_stage_in<M: HasSlurm>(
    sim: &mut Sim<M>,
    id: SlurmJobId,
) -> Result<Vec<(NodeId, TaskSpec)>, String> {
    let (directives, nodes, wf, cred) = {
        let ctld = sim.model.ctld_mut();
        let job = &ctld.jobs[&id.0];
        (
            job.script.stage_in.clone(),
            job.nodes.clone(),
            job.workflow,
            job.cred.clone(),
        )
    };
    let mut out = Vec::new();
    for d in directives {
        let (src_ns, src_path) = split_location(&d.origin).map_err(|e| e.to_string())?;
        let world = sim.model.norns_mut();
        let src_tier = world
            .storage
            .resolve(src_ns)
            .ok_or_else(|| format!("unknown dataspace in origin: {src_ns}"))?;
        let holders: Option<Vec<NodeId>> = if world.storage.kind(src_tier).is_node_local() {
            let ctld = sim.model.ctld_mut();
            let persisted = wf
                .and_then(|w| ctld.workflows.get(w))
                .and_then(|w| w.persisted(src_ns, src_path))
                .ok_or_else(|| format!("stage_in origin {} not persisted by workflow", d.origin))?;
            Some(persisted.holders.clone())
        } else {
            None
        };
        let listed_on = holders.as_ref().map(|h| h[0]);
        let origin = sim.model.norns_mut().storage.ns(src_tier, listed_on);
        let slots = plan(Stage::In, &d, nodes.len(), |_| {
            match origin.list(src_path, &cred) {
                Ok(children) => Ok(Listing::Children(children)),
                Err(NsError::NotADirectory(_)) => Ok(Listing::NotADirectory),
                Err(NsError::NotFound(_)) => Ok(Listing::Missing),
                Err(e) => Err(format!("cannot list {}: {e}", d.origin)),
            }
        })?;
        for slot in slots {
            let node = nodes[slot.node_slot];
            let (ns, path) = split_location(&slot.origin).map_err(|e| e.to_string())?;
            let src = match &holders {
                None => ResourceDesc::posix(ns, path),
                Some(h) if h.contains(&node) => continue, // data already local
                Some(h) => {
                    let host = sim.model.norns_mut().host(h[slot.index % h.len()]);
                    ResourceDesc::remote(host, ns, path)
                }
            };
            out.push((node, TaskSpec::copy(src, local_ref(&slot.destination))));
        }
    }
    Ok(out)
}

/// Remove everything the (now doomed) job staged to node-local
/// storage: through its urd while the job is registered, epilog-style
/// once it is not (a leg whose cancel lost the race landed after the
/// job ended).
fn remove_landed<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let landed = std::mem::take(&mut sim.model.ctld_mut().job_mut(id).landed);
    let tag = stage_tag(StagePurpose::Cleanup, id);
    for (node, nsid, path) in landed {
        let spec = TaskSpec::remove(ResourceDesc::posix(&nsid, &path));
        if nops::submit_task(sim, node, NornsJobId(id.0), ApiSource::Control, spec, tag).is_err() {
            force_remove(sim, node, &nsid, &path);
        }
    }
}

// ------------------------------------------------------------------ //
// Compute phase
// ------------------------------------------------------------------ //

fn begin_compute<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let now = sim.now();
    let (timeout_ev, nodes, body) = {
        let ctld = sim.model.ctld_mut();
        let job = ctld.job_mut(id);
        let ev = std::mem::replace(&mut job.stage_timeout, EventId::NONE);
        job.started = Some(now);
        job.landed.clear();
        (ev, job.nodes.clone(), job.body)
    };
    sim.cancel(timeout_ev);
    emit(sim, JobEvent::Started { job: id, nodes });
    if let JobBody::Fixed(dur) = body {
        sim.schedule_in(dur, move |sim| app_finished(sim, id, Ok(())));
    }
}

// ------------------------------------------------------------------ //
// Persist directives
// ------------------------------------------------------------------ //

fn apply_persist_directives<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let (directives, nodes, wf, cred) = {
        let ctld = sim.model.ctld_mut();
        let job = &ctld.jobs[&id.0];
        (
            job.script.persist.clone(),
            job.nodes.clone(),
            job.workflow,
            job.cred.clone(),
        )
    };
    for p in directives {
        let Ok((nsid, path)) = split_location(&p.location) else {
            continue;
        };
        match p.op {
            PersistOp::Store => {
                // Record which nodes actually hold data at the path.
                let holders: Vec<NodeId> = {
                    let world = sim.model.norns_mut();
                    let Some(tier) = world.storage.resolve(nsid) else {
                        continue;
                    };
                    if !world.storage.kind(tier).is_node_local() {
                        continue; // "location must be a node-local storage resource"
                    }
                    nodes
                        .iter()
                        .copied()
                        .filter(|&n| world.storage.ns(tier, Some(n)).exists(path))
                        .collect()
                };
                if let Some(wf) = wf {
                    if !holders.is_empty() {
                        sim.model.ctld_mut().workflows.record_persist(
                            wf,
                            PersistedData {
                                nsid: nsid.to_string(),
                                path: path.to_string(),
                                holders,
                                owner: p.user.clone(),
                                shared_with: Vec::new(),
                            },
                        );
                    }
                }
            }
            PersistOp::Delete => {
                let holders = wf
                    .and_then(|w| {
                        let ctld = sim.model.ctld_mut();
                        ctld.workflows
                            .get(w)
                            .and_then(|w| w.persisted(nsid, path))
                            .map(|pd| pd.holders.clone())
                    })
                    .unwrap_or_else(|| nodes.clone());
                let tag = stage_tag(StagePurpose::Cleanup, id);
                for node in holders {
                    let spec = TaskSpec::remove(ResourceDesc::posix(nsid, path));
                    let _ = nops::submit_task(
                        sim,
                        node,
                        NornsJobId(id.0),
                        ApiSource::Control,
                        spec,
                        tag,
                    );
                }
                if let Some(wf) = wf {
                    sim.model
                        .ctld_mut()
                        .workflows
                        .remove_persist(wf, nsid, path);
                }
            }
            PersistOp::Share | PersistOp::Unshare => {
                let share = p.op == PersistOp::Share;
                if let Some(wf) = wf {
                    let holders = {
                        let ctld = sim.model.ctld_mut();
                        let entry = ctld.workflows.get_mut(wf).and_then(|w| {
                            w.persisted
                                .iter_mut()
                                .find(|pd| pd.nsid == nsid && pd.path == path)
                        });
                        match entry {
                            Some(pd) => {
                                if share {
                                    if !pd.shared_with.contains(&p.user) {
                                        pd.shared_with.push(p.user.clone());
                                    }
                                } else {
                                    pd.shared_with.retain(|u| u != &p.user);
                                }
                                pd.holders.clone()
                            }
                            None => Vec::new(),
                        }
                    };
                    // Reflect sharing in filesystem modes.
                    let mode = if share {
                        simstore::Mode(0o755)
                    } else {
                        simstore::Mode(0o700)
                    };
                    let world = sim.model.norns_mut();
                    if let Some(tier) = world.storage.resolve(nsid) {
                        for n in holders {
                            let _ = world
                                .storage
                                .ns_mut(tier, Some(n))
                                .set_mode(path, &cred, mode);
                        }
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------------ //
// Stage-out and completion
// ------------------------------------------------------------------ //

/// The body succeeded: apply its `persist` directives, then submit the
/// stage-out legs; a refused one leaves its data for later recovery,
/// as §III prescribes, and the rest are submitted.
fn begin_stage_out<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let now = sim.now();
    sim.model.ctld_mut().job_mut(id).compute_finished = Some(now);
    apply_persist_directives(sim, id);
    let (directives, nodes, cred, durability) = {
        let ctld = sim.model.ctld_mut();
        let job = ctld.job_mut(id);
        job.stage_out_started = Some(now);
        (
            job.script.stage_out.clone(),
            job.nodes.clone(),
            job.cred.clone(),
            job.script.durability.unwrap_or_default(),
        )
    };
    let (mut legs, mut refused) = (Vec::new(), Vec::new());
    sim.model.ctld_mut().held = Some((id, Vec::new()));
    for d in directives {
        let (src_ns, src_path) =
            split_location(&d.origin).expect("directive locations are checked at submit");
        let world = sim.model.norns_mut();
        let Some(tier) = world.storage.resolve(src_ns) else {
            continue;
        };
        // A node contributes the tree it holds, moved by one task (the
        // simulated `mv` merges directories, so the tree is never
        // split per child); a tree with no bytes in it has no children
        // worth a task.
        let slots = plan(Stage::Out, &d, nodes.len(), |slot| {
            let ns = world.storage.ns(tier, Some(nodes[slot]));
            Ok(if !ns.exists(src_path) {
                Listing::Missing
            } else if ns.is_empty_tree(src_path, &cred).unwrap_or(true) {
                Listing::Children(Vec::new())
            } else {
                Listing::NotADirectory
            })
        })
        .expect("directives are checked at submit and the listing cannot fail");
        for slot in slots {
            let node = nodes[slot.node_slot];
            let spec = TaskSpec::mv(local_ref(&slot.origin), local_ref(&slot.destination))
                .with_durability(durability);
            let tag = stage_tag(StagePurpose::StageOut, id);
            match nops::submit_task(sim, node, NornsJobId(id.0), ApiSource::Control, spec, tag) {
                Ok(task) => legs.push((node, task, None)),
                Err(e) => refused.push(format!("{} on node{node}: {e}", slot.origin)),
            }
        }
    }
    if !legs.is_empty() {
        emit(sim, JobEvent::StageOutStarted { job: id });
    }
    submitted(sim, id, legs, refused);
}

/// Cleanup of staged-in data on successful completion (skips persisted
/// locations).
fn cleanup_after_success<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let (dirs, nodes, wf) = {
        let ctld = sim.model.ctld_mut();
        let job = &ctld.jobs[&id.0];
        (job.script.stage_in.clone(), job.nodes.clone(), job.workflow)
    };
    let tag = stage_tag(StagePurpose::Cleanup, id);
    for d in dirs {
        let (dst_ns, dst_path) =
            split_location(&d.destination).expect("directive locations are checked at submit");
        // Skip if this destination (or the directive origin) is
        // persisted for later phases.
        let persisted = {
            let ctld = sim.model.ctld_mut();
            wf.and_then(|w| ctld.workflows.get(w))
                .map(|w| w.persisted(dst_ns, dst_path).is_some())
                .unwrap_or(false)
        };
        if persisted {
            continue;
        }
        for &node in &nodes {
            let exists = {
                let world = sim.model.norns_mut();
                world
                    .storage
                    .resolve(dst_ns)
                    .map(|t| {
                        world.storage.kind(t).is_node_local()
                            && world.storage.ns(t, Some(node)).exists(dst_path)
                    })
                    .unwrap_or(false)
            };
            if exists {
                let spec = TaskSpec::remove(local_ref(&d.destination));
                let _ =
                    nops::submit_task(sim, node, NornsJobId(id.0), ApiSource::Control, spec, tag);
            }
        }
    }
}

/// Unregister from NORNS, returning the non-empty tracked dataspaces; a
/// completed job first removes its stage-in data (the gap real mode
/// does not share).
fn unregister<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) -> Vec<(NodeId, Vec<String>)> {
    let job = sim.model.ctld_mut().job_mut(id);
    let (nodes, completed) = (job.nodes.clone(), job.life.state == JobState::Completed);
    if completed {
        cleanup_after_success(sim, id);
    }
    nops::unregister_job(sim, NornsJobId(id.0), &nodes).unwrap_or_default()
}

/// The terminal event: release the nodes, log the end, and wake the
/// scheduler.
fn terminate<M: HasSlurm>(
    sim: &mut Sim<M>,
    id: SlurmJobId,
    why: Option<&'static str>,
    notes: &[String],
    tracked: Vec<(NodeId, Vec<String>)>,
) {
    let now = sim.now();
    let reason = why.map(|why| match notes {
        [] => why.to_string(),
        _ => format!("{why}: {}", notes.join("; ")),
    });
    let ctld = sim.model.ctld_mut();
    let job = ctld.job_mut(id);
    job.finished = Some(now);
    job.failure_reason = reason.clone();
    let (state, leftovers, nodes) = (
        job.life.state,
        job.leftover_stageout.len(),
        job.nodes.clone(),
    );
    for n in nodes {
        if ctld.node_owner[n] == Some(id) {
            ctld.node_owner[n] = None;
        }
    }
    ctld.queue.retain(|j| *j != id);
    let reason = reason.unwrap_or_default();
    let event = match state {
        JobState::Completed => JobEvent::Completed {
            job: id,
            leftovers,
            tracked,
        },
        JobState::Failed => JobEvent::Failed { job: id, reason },
        _ => JobEvent::Cancelled { job: id, reason },
    };
    emit(sim, event);
    kick(sim);
}

/// "If a workflow job fails; then all subsequent jobs are cancelled."
fn cancel_dependents<M: HasSlurm>(sim: &mut Sim<M>, id: SlurmJobId) {
    let ctld = sim.model.ctld_mut();
    let Some(w) = ctld.jobs[&id.0]
        .workflow
        .and_then(|wf| ctld.workflows.get_mut(wf))
    else {
        return;
    };
    w.failed = true;
    for j in w.downstream_of(id) {
        apply(sim, j, Event::Deps { doomed: true }, Vec::new());
    }
}

// ------------------------------------------------------------------ //
// NORNS task completion routing
// ------------------------------------------------------------------ //

/// The embedding model's `on_task_complete` must call this; returns
/// true when the completion belonged to a scheduler staging task. A
/// staging leg's end is applied to its job.
pub fn handle_task_complete<M: HasSlurm>(sim: &mut Sim<M>, completion: &TaskCompletion) -> bool {
    let Some((purpose, id)) = decode_stage_tag(completion.tag) else {
        return false;
    };
    let ctld = sim.model.ctld_mut();
    match &mut ctld.held {
        _ if purpose == StagePurpose::Cleanup => return true, // fire-and-forget
        Some((held, completions)) if *held == id => {
            completions.push(completion.clone());
            return true;
        }
        _ => {}
    }
    let Some(job) = ctld.jobs.get_mut(&id.0) else {
        return true;
    };
    let key = (completion.node, completion.task);
    let Some(pos) = job
        .outstanding_stage
        .iter()
        .position(|(n, t, _)| (*n, *t) == key)
    else {
        return true;
    };
    let (node, task, dst) = job.outstanding_stage.remove(pos);
    let ok = completion.state == norns::TaskState::Finished;
    if let (true, Some((nsid, path))) = (ok, dst) {
        job.landed.push((node, nsid, path));
    }
    let error = completion
        .error
        .as_ref()
        .map_or_else(|| "unknown".into(), |e| e.to_string());
    let note = match purpose {
        // "leave the data on the node local resources for future
        // stage_out operations to try and recover"
        StagePurpose::StageOut => format!("task {} on node{node}: {error}", task.0),
        _ => error,
    };
    let notes = if ok { Vec::new() } else { vec![note] };
    apply(sim, id, Event::LegEnded { ok }, notes);
    true
}

/// Epilog-style direct removal (slurmd cleaning a node with root
/// rights) for data whose owning job is already unregistered.
fn force_remove<M: HasSlurm>(sim: &mut Sim<M>, node: NodeId, nsid: &str, path: &str) {
    let world = sim.model.norns_mut();
    if let Some(tier) = world.storage.resolve(nsid) {
        let ns_node = if world.storage.kind(tier).is_node_local() {
            Some(node)
        } else {
            None
        };
        let _ = world
            .storage
            .ns_mut(tier, ns_node)
            .remove(path, &Cred::root(), true);
    }
}

// ------------------------------------------------------------------ //
// Queries for experiments
// ------------------------------------------------------------------ //

/// Makespan of a set of jobs (submission of first → finish of last).
pub fn makespan(ctld: &Slurmctld, jobs: &[SlurmJobId]) -> Option<SimDuration> {
    let first = jobs
        .iter()
        .filter_map(|j| ctld.job(*j))
        .map(|j| j.submitted)
        .min()?;
    let last = jobs.iter().filter_map(|j| ctld.job(*j)?.finished).max()?;
    Some(last - first)
}
