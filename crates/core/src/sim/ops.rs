//! The NORNS operations, generic over any model embedding a
//! [`NornsWorld`](super::NornsWorld).
//!
//! Functions here mirror the two API surfaces of Table I:
//!
//! | paper (C)                           | here                         |
//! |-------------------------------------|------------------------------|
//! | `nornsctl_register_dataspace`       | [`register_dataspace`]       |
//! | `nornsctl_unregister_dataspace`     | [`unregister_dataspace`]     |
//! | `nornsctl_register_job`             | [`register_job`]             |
//! | `nornsctl_update_job`               | [`update_job`]               |
//! | `nornsctl_unregister_job`           | [`unregister_job`]           |
//! | `nornsctl_add_process`              | [`add_process`]              |
//! | `nornsctl_remove_process`           | [`remove_process`]           |
//! | `nornsctl_submit` / `norns_submit`  | [`submit_task`]              |
//! | `nornsctl_cancel`                   | [`cancel_task`]              |
//! | `nornsctl_status`                   | [`daemon_status`]            |
//! | `norns_get_dataspace_info`          | [`dataspace_info`]           |
//! | `norns_error` / `norns_wait` result | [`task_stats`], completions  |
//! | E.T.A. tracking (§IV-A)             | [`task_eta`], [`drain_eta`]  |
//!
//! Waiting is event-driven in the simulator: callers receive
//! [`super::TaskCompletion`] through [`HasNorns::on_task_complete`]
//! instead of blocking.
//!
//! A task moves through `norns_sched::lifecycle` as in the daemon, at
//! twins of its sites: `admit` (`Engine::admit`) is the one place a
//! task is made, queued and counted, and `step` (`Engine::step`) the
//! one caller of `lifecycle::step`, where every state, stamp, counter,
//! worker slot and end is applied. Two rows follow from that: the
//! status counters are the table's sums, so a stage-out awaiting its
//! replicas counts as running; and only a copy that moves file bytes
//! holds an abort point, so a cancel of a running memory write or
//! rename is refused "already running", as the daemon refuses it.

use simcore::{CompletedFlow, FlowSpec, Sim, SimDuration, SimTime};
use simnet::NodeId;
use simstore::{Cred, IoDir, IoShard, TierRef};

use crate::controller::{ApiSource, DataspaceSpec, JobSpec};
use crate::error::{NornsError, Result};
use crate::sim::urd::{PlannedLeg, TaskRecord, UrdStatus, REPLICA_JOB};
use crate::sim::{app_tag, task_tag, HasNorns, RpcOutcome, RpcReply, RpcRequest};
use crate::task::{Durability, JobId, ResourceDesc, TaskId, TaskSpec, TaskState, TaskStats};
use crate::PluginKind;
use norns_sched::durability::{self, Action, Op, Phase, Record, Route, Why};
use norns_sched::lifecycle::{self, Abort, Answer, Event, Next, Outcome, Role};

// ---------------------------------------------------------------- //
// Registration (control API)
// ---------------------------------------------------------------- //

/// Register a dataspace on `node`, backed by the storage tier named
/// `tier_name` (`backend_init` + `register_dataspace` in Table I).
pub fn register_dataspace<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    nsid: &str,
    tier_name: &str,
    tracked: bool,
) -> Result<()> {
    let tier = tier(sim, tier_name)?;
    let nsid = nsid.to_string();
    let spec = DataspaceSpec {
        nsid,
        tier,
        tracked,
    };
    sim.model.norns_mut().urds[node]
        .controller
        .register_dataspace(spec)
}

pub fn unregister_dataspace<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, nsid: &str) -> Result<()> {
    sim.model.norns_mut().urds[node]
        .controller
        .unregister_dataspace(nsid)
}

/// Register a job on every one of its hosts.
pub fn register_job<M: HasNorns>(sim: &mut Sim<M>, spec: JobSpec) -> Result<()> {
    let world = sim.model.norns_mut();
    for host in spec.hosts.clone() {
        world.urds[host].controller.register_job(spec.clone())?;
    }
    Ok(())
}

pub fn update_job<M: HasNorns>(sim: &mut Sim<M>, spec: JobSpec) -> Result<()> {
    let world = sim.model.norns_mut();
    for host in spec.hosts.clone() {
        world.urds[host].controller.update_job(spec.clone())?;
    }
    Ok(())
}

/// Unregister a job from all of `hosts`. Returns, per host, the
/// tracked dataspaces that still hold data (the paper's "non-empty
/// dataspace" report at node release).
pub fn unregister_job<M: HasNorns>(
    sim: &mut Sim<M>,
    job: JobId,
    hosts: &[NodeId],
) -> Result<Vec<(NodeId, Vec<String>)>> {
    let world = sim.model.norns_mut();
    let mut leftovers = Vec::new();
    for &host in hosts {
        let non_empty = non_empty_tracked(world, host);
        if !non_empty.is_empty() {
            leftovers.push((host, non_empty));
        }
        world.urds[host].controller.unregister_job(job)?;
    }
    Ok(leftovers)
}

fn non_empty_tracked(world: &super::NornsWorld, node: NodeId) -> Vec<String> {
    let mut out = Vec::new();
    for ds in world.urds[node].controller.tracked_dataspaces() {
        let ns_node = super::plan::ns_node(world, ds.tier, node);
        let ns = world.storage.ns(ds.tier, ns_node);
        if ns.used() > 0 {
            out.push(ds.nsid.clone());
        }
    }
    out
}

pub fn add_process<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    job: JobId,
    pid: u64,
    cred: Cred,
) -> Result<()> {
    sim.model.norns_mut().urds[node]
        .controller
        .add_process(job, pid, cred)
}

pub fn remove_process<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    job: JobId,
    pid: u64,
) -> Result<()> {
    sim.model.norns_mut().urds[node]
        .controller
        .remove_process(job, pid)
}

// ---------------------------------------------------------------- //
// Task submission and monitoring
// ---------------------------------------------------------------- //

/// Submit an I/O task to the urd on `node`. Validation (job, process,
/// dataspace grants, then the task's shape through the admission
/// table, as `Engine::submit` judges it) happens synchronously, as in
/// the real daemon; the transfer itself runs asynchronously. Returns
/// the task id to monitor.
pub fn submit_task<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    job: JobId,
    source: ApiSource,
    spec: TaskSpec,
    tag: u64,
) -> Result<TaskId> {
    let world = sim.model.norns_mut();
    let urd = &mut world.urds[node];
    if !urd.accepting() {
        return Err(NornsError::NotAccepting);
    }
    let cred = urd.controller.validate(job, source, &spec)?;
    let plugin = norns_sched::shape::admit(spec.shape())?;
    // Size estimate for size-aware arbitration policies: memory sizes
    // are declared; path sizes come from a best-effort stat (the real
    // daemon stats sources at submission too).
    let est = match &spec.input {
        ResourceDesc::MemoryRegion { size, .. } => *size,
        input => super::plan::resolve_side(world, node, input)
            .ok()
            .and_then(|side| super::plan::side_bytes(world, &side, &cred, plugin).ok())
            .map(|(bytes, _)| bytes)
            .unwrap_or(0),
    };
    let owner = Owner::Client { job, tag };
    let id = admit(sim, node, owner, spec, cred, plugin, est);
    maybe_dispatch(sim, node);
    Ok(id)
}

/// Who a task is admitted for: a client's job, or the urd itself — a
/// replica of a durable stage-out, reporting its end to `parent` if
/// that one awaits it.
enum Owner {
    Client { job: JobId, tag: u64 },
    Replica { parent: Option<TaskId> },
}

/// The one admission of the simulated urd, twin of the engine's
/// `Engine::admit`: the only place a [`TaskRecord`] is made, queued
/// and counted by `lifecycle::admit`. A `synchronous` stage-out makes
/// one copy, the live daemon's default `target_copies`.
fn admit<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    owner: Owner,
    spec: TaskSpec,
    cred: Cred,
    plugin: PluginKind,
    bytes: u64,
) -> TaskId {
    let now = sim.now();
    let urd = &mut sim.model.norns_mut().urds[node];
    let (job, tag, parent, role) = match owner {
        Owner::Client { job, tag } => (job, tag, None, Role::Client),
        Owner::Replica { parent } => (REPLICA_JOB, 0, parent, Role::Replica),
    };
    let id = urd.alloc_task_id();
    urd.queue.enqueue(id, job, bytes, spec.priority, now);
    urd.pending_replicas += u64::from(role == Role::Replica);
    let admitted = lifecycle::admit(role);
    urd.count(admitted.counts);
    let record = TaskRecord {
        durable: Record::new(spec.durability, Op::Copy, Route::LocalCopy, 1, 0),
        id,
        job,
        spec,
        cred,
        tag,
        life: admitted.task,
        parent,
        plugin,
        total_bytes: bytes,
        moved_bytes: 0,
        submitted: now,
        started: None,
        finished: None,
        error: None,
        charged: None,
        exec: Default::default(),
    };
    urd.tasks.insert(id, record);
    id
}

/// Cancel a task (the daemon's `CancelTask`), answered by the one
/// lifecycle table: a queued task leaves the queue, a running chain —
/// holding its abort point — stops where it is, its flows cut and
/// nothing landed at its destination, and any other running or ended
/// task refuses. A cancelled task completes `Cancelled` through
/// [`HasNorns::on_task_complete`].
pub fn cancel_task<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, task: TaskId) -> Result<()> {
    let next = step(sim, node, task, Event::Cancel, None).ok_or(NornsError::NoSuchTask(task.0))?;
    if let Answer::Refused(why) = next.answer {
        return Err(NornsError::TaskError(why.into()));
    }
    if !next.settles {
        let cancelled = Some(NornsError::TaskError("cancelled".into()));
        step(sim, node, task, Event::End(Outcome::Cancelled), cancelled);
    }
    Ok(())
}

/// Latest stats snapshot for a task.
pub fn task_stats<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, task: TaskId) -> Result<TaskStats> {
    sim.model.norns_mut().urds[node]
        .task(task)
        .map(|r| r.stats())
        .ok_or(NornsError::NoSuchTask(task.0))
}

/// Current E.T.A. for a task (§IV-A).
pub fn task_eta<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, task: TaskId) -> Result<SimTime> {
    let now = sim.now();
    sim.model.norns_mut().urds[node]
        .task_eta(task, now)
        .ok_or(NornsError::NoSuchTask(task.0))
}

/// When will all staging on `node` drain (used by the scheduler to
/// plan node reuse).
pub fn drain_eta<M: HasNorns>(sim: &mut Sim<M>, node: NodeId) -> SimTime {
    let now = sim.now();
    sim.model.norns_mut().urds[node].drain_eta(now)
}

/// `nornsctl_status`.
pub fn daemon_status<M: HasNorns>(sim: &mut Sim<M>, node: NodeId) -> UrdStatus {
    sim.model.norns_mut().urds[node].status()
}

/// `norns_get_dataspace_info`: dataspace ids visible on a node.
pub fn dataspace_info<M: HasNorns>(sim: &mut Sim<M>, node: NodeId) -> Vec<String> {
    let mut v: Vec<String> = sim.model.norns_mut().urds[node]
        .controller
        .dataspaces()
        .map(|d| d.nsid.clone())
        .collect();
    v.sort();
    v
}

/// Pause/resume request acceptance (`nornsctl_send_command`).
pub fn set_accepting<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, on: bool) {
    sim.model.norns_mut().urds[node].set_accepting(on);
}

// ---------------------------------------------------------------- //
// Execution machinery
// ---------------------------------------------------------------- //

/// Give every free worker slot the task the arbitration policy picks:
/// it is dispatched, and a copy that moves file bytes — the daemon's
/// chain — holds an abort point from its plan on. A memory write, a
/// rename and the memory-across-nodes plugins hold none, as in the
/// daemon.
pub(crate) fn maybe_dispatch<M: HasNorns>(sim: &mut Sim<M>, node: NodeId) {
    loop {
        let picked = sim.model.norns_mut().urds[node].queue.dispatch();
        let Some(pending) = picked else { return };
        let task = pending.task;
        let built = super::plan::build(sim, node, task);
        step(sim, node, task, Event::Dispatch, None);
        let world = sim.model.norns_mut();
        let rec = world.urds[node].task(task).expect("dispatched task exists");
        let chain = matches!(
            rec.plugin,
            PluginKind::LocalToRemote | PluginKind::RemoteToLocal | PluginKind::LocalToLocal
        ) && super::plan::landing(world, node, &rec.spec, rec.plugin).1
            != Route::Rename;
        if chain {
            step(sim, node, task, Event::Plan, None);
        }
        match built {
            Ok(built) => {
                let rec = sim.model.norns_mut().urds[node]
                    .task_mut(task)
                    .expect("dispatched task exists");
                rec.total_bytes = built.total_bytes;
                rec.exec.legs = built.legs;
                rec.charged = built.charged;
                start_next_leg(sim, node, task);
            }
            Err(e) => complete_task(sim, node, task, Some(e)),
        }
    }
}

fn start_next_leg<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, task: TaskId) {
    let leg = {
        let rec = sim.model.norns_mut().urds[node]
            .task_mut(task)
            .expect("running task");
        rec.exec.legs.pop_front()
    };
    match leg {
        None => complete_task(sim, node, task, None),
        Some(PlannedLeg {
            latency, shards, ..
        }) => {
            if latency > SimDuration::ZERO {
                sim.schedule_in(latency, move |sim| launch_shards(sim, node, task, shards));
            } else {
                launch_shards(sim, node, task, shards);
            }
        }
    }
}

fn launch_shards<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    task: TaskId,
    shards: Vec<(Vec<simcore::ResourceId>, u64)>,
) {
    let rec = sim.model.norns_mut().urds[node]
        .task_mut(task)
        .expect("running task");
    if rec.life.state != TaskState::InProgress {
        return; // cancelled while its leg's latency ran
    }
    if shards.is_empty() {
        // Metadata-only leg (removal).
        start_next_leg(sim, node, task);
        return;
    }
    rec.exec.outstanding = shards.len();
    let tag = task_tag(node, task);
    for (path, bytes) in shards {
        let flow = simcore::start_flow(sim, FlowSpec::new(bytes as f64, path).with_tag(tag));
        if let Some(rec) = sim.model.norns_mut().urds[node].task_mut(task) {
            rec.exec.flows.push(flow);
        }
    }
}

/// Called from [`super::handle_flow_complete`] for task-owned flows.
pub(crate) fn task_flow_finished<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    task: TaskId,
    done: &CompletedFlow,
) {
    let leg_done = {
        let Some(rec) = sim.model.norns_mut().urds[node].task_mut(task) else {
            return; // task vanished (should not happen)
        };
        rec.moved_bytes += done.bytes as u64;
        rec.exec.outstanding -= 1;
        rec.exec.flows.retain(|f| *f != done.flow);
        rec.exec.outstanding == 0
    };
    if leg_done {
        start_next_leg(sim, node, task);
    }
}

/// The end of a task's run: a run that landed writes its output
/// (a removal removes its input) and goes through the durability
/// table; one that failed or cannot land ends as it is.
fn complete_task<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    task: TaskId,
    error: Option<NornsError>,
) {
    let error = error.or_else(|| {
        let world = sim.model.norns_mut();
        let rec = world.urds[node].task(task).expect("completing task");
        let (spec, cred, job) = (rec.spec.clone(), rec.cred.clone(), rec.job);
        super::plan::land(world, node, job, &spec, &cred).err()
    });
    match error {
        None => durable(sim, node, task, durability::Event::Landed, None),
        Some(e) => {
            step(sim, node, task, Event::End(Outcome::Failed), Some(e));
        }
    }
}

/// The one durability apply site of the simulated urd: `event` through
/// `norns_sched::durability::step` on the task's record — a landing
/// first takes its op, route and peers — and the table's actions
/// carried out in order: the source freed from its namespace, replicas
/// spawned as internal push tasks, the ACK or the failure as the
/// lifecycle's end. A source that cannot be freed fails the task in
/// place of what the table said next.
fn durable<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    task: TaskId,
    event: durability::Event,
    failure: Option<NornsError>,
) {
    let landed = event == durability::Event::Landed;
    let world = sim.model.norns_mut();
    let rec = world.urds[node].task(task).expect("durable task");
    let (spec, cred, job) = (rec.spec.clone(), rec.cred.clone(), rec.job);
    let landing = landed.then(|| super::plan::landing(world, node, &spec, rec.plugin));
    let urd = &mut world.urds[node];
    let peers = urd.peers.clone();
    let rec = urd.task_mut(task).expect("durable task");
    if let Some(landing) = landing {
        (rec.durable.op, rec.durable.route) = landing;
        if rec.durable.mode != Durability::LocalOnly {
            rec.durable.peers = peers.len().min(usize::from(u8::MAX)) as u8;
        }
    }
    // The first replica failure, kept until the verdict.
    rec.error = rec.error.take().or(failure);
    let next = durability::step(rec.durable, event);
    rec.durable = next.record;
    let awaiting = matches!(next.record.phase, Phase::Awaiting { .. });
    if landed && awaiting {
        // Off its worker, awaiting its replicas: they report to it.
        step(
            sim,
            node,
            task,
            Event::End(Outcome::Done { awaiting }),
            None,
        );
    }
    let mut verdict = None;
    for action in next.actions.iter() {
        match action {
            Action::FreeSource => {
                let world = sim.model.norns_mut();
                if let Err(e) = super::plan::free_source(world, node, job, &spec, &cred) {
                    verdict = Some(Err(e));
                    break;
                }
            }
            Action::Spawn(n) => {
                for &peer in peers.iter().take(usize::from(n)) {
                    spawn_replica(sim, node, task, peer, awaiting);
                }
            }
            Action::Ack => verdict = Some(Ok(())),
            Action::Fail(why @ Why::NoPeer) => {
                verdict = Some(Err(NornsError::NotFound(why.message().into())));
            }
            Action::Fail(why @ Why::ReplicaFailed) => {
                let rec = sim.model.norns_mut().urds[node].task_mut(task);
                let first = rec.and_then(|r| r.error.take());
                let detail =
                    first.map_or_else(|| "replica ended unlanded".into(), |e| e.to_string());
                let message = format!("{}: {detail}", why.message());
                verdict = Some(Err(NornsError::TaskError(message)));
            }
        }
    }
    let Some(verdict) = verdict else { return };
    let event = match (landed, &verdict) {
        (true, Ok(())) => Event::End(Outcome::Done { awaiting: false }),
        (true, Err(_)) => Event::End(Outcome::Failed),
        (false, verdict) => Event::Durable {
            ok: verdict.is_ok(),
        },
    };
    step(sim, node, task, event, verdict.err());
}

/// Admit one replica of a landed stage-out: an internal push task
/// owned by [`REPLICA_JOB`], from the landed `nsid://path` to the
/// peer's same-named dataspace — a `simcore` flow like any other push
/// — reporting its end to `parent` if it `reports` (a `synchronous`
/// stage-out awaits it). It runs when the urd next dispatches.
fn spawn_replica<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    parent: TaskId,
    peer: NodeId,
    reports: bool,
) {
    let world = sim.model.norns_mut();
    let rec = world.urds[node].task(parent).expect("replicated task");
    let Some(ResourceDesc::PosixPath { nsid, path }) = rec.spec.output.clone() else {
        unreachable!("a durable stage-out lands on a local path")
    };
    let spec = TaskSpec::copy(
        ResourceDesc::posix(&nsid, &path),
        ResourceDesc::remote(world.host(peer), nsid, path),
    )
    .with_priority(rec.spec.priority);
    let (cred, bytes, push) = (rec.cred.clone(), rec.moved_bytes, PluginKind::LocalToRemote);
    let parent = reports.then_some(parent);
    let owner = Owner::Replica { parent };
    admit(sim, node, owner, spec, cred, push, bytes);
}

/// The one apply site of the simulated urd, twin of the engine's
/// `Engine::step`: `event` through `norns_sched::lifecycle::step` on
/// the task's record (`failure` is what ends it, if this is its end);
/// `None` for an unknown task. The state and the status counters
/// change here alone. It stamps `started` at the first worker touch
/// and `finished` at the terminal transition; a pending task that ends
/// leaves the queue; an accepted cancel of a running chain cuts its
/// flows and drops its legs; a run that ends — landed and awaiting its
/// replicas, or not — frees its worker slot and has the queue dispatch
/// again on a fresh event. The terminal transition releases the quota
/// charged at plan time on a failure, feeds a finished run to the
/// E.T.A. estimator, and tells the end — to the model for a client's
/// task, to the stage-out a replica reports to.
fn step<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    task: TaskId,
    event: Event,
    failure: Option<NornsError>,
) -> Option<Next> {
    let now = sim.now();
    let urd = &mut sim.model.norns_mut().urds[node];
    let rec = urd.tasks.get_mut(&task)?;
    let next = lifecycle::step(rec.life, event);
    let was = std::mem::replace(&mut rec.life, next.task);
    if next.task.facts.started && rec.started.is_none() {
        rec.started = Some(now);
    }
    let mut cut = Vec::new();
    if next.task.facts.abort == Abort::Raised {
        rec.exec.legs.clear();
        cut = std::mem::take(&mut rec.exec.flows);
    }
    let ran = matches!(event, Event::End(_));
    let mut settled = None;
    if next.settles {
        rec.finished = Some(now);
        rec.error = failure.clone();
        if let (None, true, Some(started)) = (&failure, ran, rec.started) {
            urd.eta.observe(rec.plugin, rec.moved_bytes, now - started);
        }
        settled = Some((
            rec.completion(node, failure),
            rec.parent,
            rec.charged.clone(),
        ));
    }
    if was.state == TaskState::Pending && next.settles {
        urd.queue.cancel_pending(task);
    }
    if ran {
        urd.queue.finish();
    }
    urd.count(next.counts);
    urd.pending_replicas -= u64::from(next.to_parent.is_some());
    for flow in cut {
        simcore::cancel_flow(sim, flow);
    }
    if let Some((completion, parent, charged)) = settled {
        if let (Some(_), Some((cnode, nsid, bytes))) = (&completion.error, charged) {
            let controller = &mut sim.model.norns_mut().urds[cnode].controller;
            controller.release(completion.job, &nsid, bytes);
        }
        match (next.to_parent, parent) {
            (None, _) => M::on_task_complete(sim, completion),
            (Some(ok), Some(parent)) => {
                let event = durability::Event::ReplicaEnded { ok };
                durable(sim, node, parent, event, completion.error);
            }
            (Some(_), None) => {}
        }
    }
    if ran {
        // Flatten recursion: dispatch follow-up work on a fresh event.
        sim.schedule_now(move |sim| maybe_dispatch(sim, node));
    }
    Some(next)
}

/// Register `peer` as a replication target of the urd on `node` (the
/// daemon's `RegisterPeer`): a durable stage-out there replicates to
/// its same-named dataspace on `peer`.
pub fn register_peer<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, peer: NodeId) {
    let peers = &mut sim.model.norns_mut().urds[node].peers;
    if !peers.contains(&peer) {
        peers.push(peer);
    }
}

// ---------------------------------------------------------------- //
// Raw application I/O (outside NORNS)
// ---------------------------------------------------------------- //

/// Issue raw application I/O from `node` against a tier, bypassing
/// NORNS — this is how workload models generate ordinary POSIX traffic
/// (the paper's baseline runs). Completion is reported through
/// [`HasNorns::on_app_io_complete`] with the returned token.
pub fn app_io<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    tier_name: &str,
    dir: IoDir,
    bytes: u64,
    files: u64,
    stripe: Option<usize>,
) -> Result<u64> {
    let tier = tier(sim, tier_name)?;
    let storage = &mut sim.model.norns_mut().storage;
    let shards = storage.plan_io(tier, node, dir, bytes, stripe);
    let setup = storage.setup_cost(tier, files.max(1));
    Ok(launch_app_io(sim, shards, setup))
}

/// Collective I/O against one shared striped file: the OST set is
/// allocated once and every node's stream hits exactly those OSTs
/// (unlike [`app_io`], where each call gets its own allocation). This
/// is the semantics of a single-shared-file MPI-IO benchmark. Returns
/// one token per node.
pub fn app_shared_io<M: HasNorns>(
    sim: &mut Sim<M>,
    nodes: &[NodeId],
    tier_name: &str,
    dir: IoDir,
    bytes_per_node: u64,
    stripe: Option<usize>,
) -> Result<Vec<u64>> {
    let tier = tier(sim, tier_name)?;
    let osts = sim.model.norns_mut().storage.allocate_osts(tier, stripe);
    let mut tokens = Vec::with_capacity(nodes.len());
    for &node in nodes {
        let storage = &mut sim.model.norns_mut().storage;
        let shards = if osts.is_empty() {
            storage.plan_io(tier, node, dir, bytes_per_node, stripe)
        } else {
            storage.plan_io_fixed(tier, node, dir, bytes_per_node, &osts)
        };
        let setup = storage.setup_cost(tier, 1);
        tokens.push(launch_app_io(sim, shards, setup));
    }
    Ok(tokens)
}

/// One application I/O op: its shards' flows start after `setup`, and
/// its end is told with the token returned.
fn launch_app_io<M: HasNorns>(sim: &mut Sim<M>, shards: Vec<IoShard>, setup: SimDuration) -> u64 {
    let world = sim.model.norns_mut();
    let token = world.alloc_app_token();
    let outstanding = shards.len();
    world.app_ops.insert(token, super::AppOp { outstanding });
    let tag = app_tag(token);
    sim.schedule_in(setup, move |sim| {
        for shard in shards {
            let spec = FlowSpec::new(shard.bytes as f64, shard.path).with_tag(tag);
            simcore::start_flow(sim, spec);
        }
    });
    token
}

/// A sustained memory-bandwidth consumer on `node` (outside NORNS):
/// workload models use this for memory-bound compute kernels (HPCG).
/// The kernel processes `bytes` of memory traffic at up to
/// `demand_bps`; co-located staging shares the same memory controller,
/// so the kernel stretches exactly when transfers are active — the
/// paper's Table IV mechanism.
pub fn app_mem_io<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    bytes: u64,
    demand_bps: f64,
) -> Result<u64> {
    let world = sim.model.norns_mut();
    let token = world.alloc_app_token();
    let path = vec![world.ram_resource(node)];
    world.app_ops.insert(token, super::AppOp { outstanding: 1 });
    let tag = app_tag(token);
    simcore::start_flow(
        sim,
        FlowSpec::new(bytes as f64, path)
            .with_cap(demand_bps)
            .with_tag(tag),
    );
    Ok(token)
}

/// Raw node-to-node transfer outside NORNS (e.g. MPI traffic models).
pub fn app_net_io<M: HasNorns>(
    sim: &mut Sim<M>,
    from: NodeId,
    to: NodeId,
    bytes: u64,
) -> Result<u64> {
    let world = sim.model.norns_mut();
    let token = world.alloc_app_token();
    let path = world.fabric.raw_path(from, to);
    if path.is_empty() {
        return Err(NornsError::BadArgs(
            "app_net_io requires distinct nodes".into(),
        ));
    }
    world.app_ops.insert(token, super::AppOp { outstanding: 1 });
    let tag = app_tag(token);
    simcore::start_flow(sim, FlowSpec::new(bytes as f64, path).with_tag(tag));
    Ok(token)
}

// ---------------------------------------------------------------- //
// Remote RPC (urd ↔ urd control plane)
// ---------------------------------------------------------------- //

/// Issue a control RPC from `from` to the urd on `to`. The reply is
/// delivered through [`HasNorns::on_rpc_reply`] with `token`.
pub fn rpc_call<M: HasNorns>(
    sim: &mut Sim<M>,
    from: NodeId,
    to: NodeId,
    request: RpcRequest,
    token: u64,
) {
    let timing = sim.model.norns_mut().rpc_timing;
    let latency = timing.one_way(160, sim.rng());
    sim.schedule_in(latency, move |sim| {
        rpc_arrive(sim, from, to, request, token)
    });
}

fn rpc_arrive<M: HasNorns>(
    sim: &mut Sim<M>,
    _from: NodeId,
    to: NodeId,
    request: RpcRequest,
    token: u64,
) {
    let now = sim.now();
    let mean = sim.model.norns_mut().urds[to].request_service_mean;
    let svc = SimDuration::from_secs_f64(sim.rng().exponential(mean.as_secs_f64().max(1e-9)));
    let world = sim.model.norns_mut();
    let seq = world.alloc_rpc_seq();
    world
        .rpc_inflight
        .insert((to, seq), super::RpcWork { token, request });
    let urd = &mut world.urds[to];
    urd.rpc_server
        .submit(now, seq, svc, &mut urd.rpc_pending_svc);
    rearm_rpc(sim, to);
}

fn rearm_rpc<M: HasNorns>(sim: &mut Sim<M>, node: NodeId) {
    let (old, next) = {
        let urd = &mut sim.model.norns_mut().urds[node];
        (urd.rpc_tick, urd.rpc_server.next_completion())
    };
    sim.cancel(old);
    let id = match next {
        Some(t) => sim.schedule_at(t, move |sim| rpc_tick(sim, node)),
        None => simcore::EventId::NONE,
    };
    sim.model.norns_mut().urds[node].rpc_tick = id;
}

fn rpc_tick<M: HasNorns>(sim: &mut Sim<M>, node: NodeId) {
    let now = sim.now();
    let served = {
        let urd = &mut sim.model.norns_mut().urds[node];
        urd.rpc_tick = simcore::EventId::NONE;
        let served = urd.rpc_server.complete_due(now);
        urd.rpc_server.try_start(now, &mut urd.rpc_pending_svc);
        served
    };
    rearm_rpc(sim, node);
    let timing = sim.model.norns_mut().rpc_timing;
    for s in served {
        let work = sim.model.norns_mut().rpc_inflight.remove(&(node, s.tag));
        let Some(work) = work else { continue };
        let outcome = process_request(sim, node, work.request);
        let latency = timing.one_way(64, sim.rng());
        let reply = RpcReply {
            token: work.token,
            from: node,
            outcome,
        };
        sim.schedule_in(latency, move |sim| M::on_rpc_reply(sim, reply));
    }
}

fn process_request<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, req: RpcRequest) -> RpcOutcome {
    match req {
        RpcRequest::Ping => RpcOutcome::Pong,
        RpcRequest::Status => RpcOutcome::Status(sim.model.norns_mut().urds[node].status()),
        RpcRequest::QueryTask { task } => match sim.model.norns_mut().urds[node].task(task) {
            Some(rec) => RpcOutcome::TaskStatus(rec.stats()),
            None => RpcOutcome::Err(NornsError::NoSuchTask(task.0)),
        },
        RpcRequest::Submit { job, spec, tag } => {
            match submit_task(sim, node, job, ApiSource::Control, spec, tag) {
                Ok(id) => RpcOutcome::Submitted(id),
                Err(e) => RpcOutcome::Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Helpers used by testbeds
// ---------------------------------------------------------------- //

/// Look up a tier by name, for direct namespace manipulation in
/// workload setup code.
pub fn tier<M: HasNorns>(sim: &mut Sim<M>, name: &str) -> Result<TierRef> {
    sim.model
        .norns_mut()
        .storage
        .resolve(name)
        .ok_or_else(|| NornsError::NoSuchDataspace(name.to_string()))
}

/// The lifecycle table, simulated: seeded sequences of submits, cancels
/// and simulator steps on a one-worker urd, every cancel answer, task
/// state and status counter checked against `norns_sched::lifecycle`
/// as a model runs it — the twin of the engine's
/// `lifecycle_live_sequences_answer_as_the_table`.
#[cfg(test)]
mod tests {
    use norns_sched::lifecycle::{
        self, Answer, Counts, Event, Next, Outcome, Role, Task, TaskState,
    };
    use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimDuration};
    use simnet::FabricParams;
    use simstore::{Cred, LocalParams, Mode, TierKind};

    use crate::sim::{
        handle_flow_complete, ops, HasNorns, NornsWorld, TaskCompletion, WorldConfig,
    };
    use crate::{
        ApiSource, Durability, JobId, JobSpec, NornsError, ResourceDesc, TaskId, TaskSpec,
    };

    /// Rounds a sequence chooses before it steps every task to its end.
    const ROUNDS: usize = 20;
    /// Client tasks a sequence submits at most.
    const TASKS: usize = 8;
    /// Bytes of every task but a `Large` copy's.
    const SMALL: u64 = 4096;
    /// A `Large` copy's bytes: seconds of simulated copying, so it runs
    /// across every round's [`horizon`].
    const LARGE: u64 = 8 << 30;

    /// The simulated time a step round runs without a transition before
    /// it gives up: every task but a `Large` copy ends well inside it.
    fn horizon() -> SimDuration {
        SimDuration::from_millis(10)
    }

    struct Model {
        world: NornsWorld,
        /// The step round's horizon passed.
        timed_out: bool,
    }

    impl FluidModel for Model {
        fn fluid_mut(&mut self) -> &mut FluidSystem {
            &mut self.world.fluid
        }
        fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
            handle_flow_complete(sim, done);
        }
    }

    impl HasNorns for Model {
        fn norns_mut(&mut self) -> &mut NornsWorld {
            &mut self.world
        }
        fn on_task_complete(_sim: &mut Sim<Self>, _completion: TaskCompletion) {}
    }

    /// What a sequence task is, and so the events the one worker runs it
    /// through.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        /// Memory to a local path: runs whole, with no abort point.
        Write,
        /// A local copy: a chain.
        Copy,
        /// A `synchronous` local copy: a chain that lands, then awaits the
        /// replica it queues behind everything already queued.
        Durable,
        /// The urd's replica push behind a `Durable` copy: a chain.
        Replica,
        /// A `Move` within one dataspace: a rename, with no abort point.
        Rename,
        /// A local copy whose own flow keeps it running across rounds.
        Large,
    }

    impl Kind {
        /// The events of the worker's first touch.
        fn starts(self) -> &'static [Event] {
            match self {
                Kind::Write | Kind::Rename => &[Event::Dispatch],
                _ => &[Event::Dispatch, Event::Plan],
            }
        }

        /// The event its run ends with.
        fn ends(self) -> Event {
            let awaiting = self == Kind::Durable;
            Event::End(Outcome::Done { awaiting })
        }
    }

    /// One task of a sequence, as the table models it.
    struct Modelled {
        id: TaskId,
        kind: Kind,
        task: Task,
        /// A replica's `synchronous` parent, by index.
        parent: Option<usize>,
    }

    /// The table's side of a sequence: every task, the counters summed
    /// over every row, and whether the urd owes a dispatch on a fresh
    /// event (a run ended since the last one).
    #[derive(Default)]
    struct Table {
        tasks: Vec<Modelled>,
        counts: Counts,
        owed: bool,
    }

    impl Table {
        fn add(&mut self, by: Counts) {
            self.counts.pending += by.pending;
            self.counts.running += by.running;
            self.counts.completed += by.completed;
            self.counts.cancelled += by.cancelled;
        }

        fn admit(&mut self, id: TaskId, kind: Kind, parent: Option<usize>) {
            let role = match parent {
                Some(_) => Role::Replica,
                None => Role::Client,
            };
            let admitted = lifecycle::admit(role);
            self.add(admitted.counts);
            let task = admitted.task;
            self.tasks.push(Modelled {
                id,
                kind,
                task,
                parent,
            });
        }

        /// One step of the table on task `i`; a replica's end is stepped
        /// on its parent as the durability verdict.
        fn apply(&mut self, i: usize, event: Event) -> Next {
            let next = lifecycle::step(self.tasks[i].task, event);
            self.tasks[i].task = next.task;
            self.add(next.counts);
            if let (Some(landed), Some(parent)) = (next.to_parent, self.tasks[i].parent) {
                self.apply(parent, Event::Durable { ok: landed });
            }
            self.owed |= matches!(event, Event::End(_));
            next
        }

        /// The task on the worker: running, and not awaiting its replica.
        fn on_worker(&self) -> Option<usize> {
            let runs = |t: &Task| t.state == TaskState::InProgress && !t.facts.awaiting;
            self.tasks.iter().position(|t| runs(&t.task))
        }

        /// A free worker takes the task queued first.
        fn dispatch(&mut self) {
            if self.on_worker().is_some() {
                return;
            }
            let pending = self
                .tasks
                .iter()
                .position(|t| t.task.state == TaskState::Pending);
            if let Some(i) = pending {
                for &event in self.tasks[i].kind.starts() {
                    self.apply(i, event);
                }
            }
        }

        /// What the simulator's next transition is: the dispatch it owes,
        /// else the end of the run on the worker — a `Large` copy's only
        /// once the sequence `drains`. A landed `Durable` copy admits its
        /// replica `id`.
        fn step(&mut self, drains: bool, id: TaskId) {
            let free = self.on_worker().is_none();
            let pending = self
                .tasks
                .iter()
                .any(|t| t.task.state == TaskState::Pending);
            if std::mem::take(&mut self.owed) && free && pending {
                return self.dispatch();
            }
            let Some(i) = self.on_worker() else { return };
            let kind = self.tasks[i].kind;
            if kind == Kind::Large && !drains {
                return;
            }
            self.apply(i, kind.ends());
            if kind == Kind::Durable {
                self.admit(id, Kind::Replica, Some(i));
            }
        }
    }

    /// A seeded splitmix64: every choice a sequence makes.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    fn cred() -> Cred {
        Cred::new(1000, 1000)
    }

    /// Two nodes with a node-local `pmdk0` each, a one-worker urd on
    /// node 0 replicating to node 1, and job 1 granted `pmdk0` on both.
    fn one_worker() -> Sim<Model> {
        let config = WorldConfig {
            workers_per_node: 1,
            ..WorldConfig::default()
        };
        let mut world = NornsWorld::new(2, FabricParams::omni_path_tcp(2), config);
        let (params, kind) = (LocalParams::dcpmm(), TierKind::NodeLocalNvm);
        let net = &mut world.fluid.net;
        world.storage.add_local_class(net, "pmdk0", 2, params, kind);
        let model = Model {
            world,
            timed_out: false,
        };
        let mut sim = Sim::new(model, 7);
        for node in 0..2 {
            ops::register_dataspace(&mut sim, node, "pmdk0", "pmdk0", false).unwrap();
        }
        let job = JobSpec {
            id: JobId(1),
            hosts: vec![0, 1],
            limits: vec![("pmdk0".into(), 0)],
            cred: cred(),
        };
        ops::register_job(&mut sim, job).unwrap();
        ops::register_peer(&mut sim, 0, 1);
        sim
    }

    /// The spec of client task `i` of `kind`, its input file written.
    fn spec(sim: &mut Sim<Model>, i: usize, kind: Kind) -> TaskSpec {
        let input = format!("in{i}");
        let bytes = if kind == Kind::Large { LARGE } else { SMALL };
        if kind != Kind::Write {
            let tier = ops::tier(sim, "pmdk0").unwrap();
            let ns = sim.model.world.storage.ns_mut(tier, Some(0));
            ns.write_file(&input, bytes, &cred(), Mode(0o644)).unwrap();
        }
        let (input, output) = (
            ResourceDesc::posix("pmdk0", input),
            ResourceDesc::posix("pmdk0", format!("out{i}")),
        );
        match kind {
            Kind::Write => TaskSpec::copy(
                ResourceDesc::MemoryRegion {
                    addr: 0,
                    size: SMALL,
                },
                output,
            ),
            Kind::Rename => TaskSpec::mv(input, output),
            Kind::Durable => TaskSpec::copy(input, output).with_durability(Durability::Synchronous),
            _ => TaskSpec::copy(input, output),
        }
    }

    /// Every task's state on node 0, and how many there are: what a
    /// transition changes.
    fn states(sim: &mut Sim<Model>, ids: u64) -> Vec<Option<TaskState>> {
        let urd = &sim.model.world.urds[0];
        (1..=ids + 1)
            .map(|id| urd.task(TaskId(id)).map(|t| t.life.state))
            .collect()
    }

    /// Run the simulator to its next transition — or, unless it `drains`,
    /// to the horizon, whichever comes first.
    fn run_to_transition(sim: &mut Sim<Model>, drains: bool, ids: u64) {
        let before = states(sim, ids);
        let horizon = (!drains)
            .then(|| sim.schedule_in(horizon(), |sim: &mut Sim<Model>| sim.model.timed_out = true));
        while !sim.model.timed_out && sim.step() && states(sim, ids) == before {}
        if let Some(horizon) = horizon {
            sim.cancel(horizon);
        }
        sim.model.timed_out = false;
    }

    /// One seeded sequence: tasks of every [`Kind`] submitted, cancelled
    /// and run in an order the seed picks. The urd's every cancel answer,
    /// task state and status counter must be the table's.
    fn sim_sequence(seed: u64) {
        let mut rng = Rng(seed);
        let mut sim = one_worker();
        let (mut table, mut log) = (Table::default(), Vec::new());
        for round in 0.. {
            let drains = round >= ROUNDS;
            let open: Vec<usize> = (0..table.tasks.len())
                .filter(|&i| !table.tasks[i].task.state.is_terminal())
                .collect();
            if drains && open.is_empty() {
                break;
            }
            assert!(
                round < 1000,
                "seed {seed}: the sequence never drained; {log:?}"
            );
            let pick = match rng.below(4) {
                1.. if !open.is_empty() => open[rng.below(open.len())],
                _ => rng.below(table.tasks.len().max(1)),
            };
            let clients = table
                .tasks
                .iter()
                .filter(|t| t.kind != Kind::Replica)
                .count();
            let op = if drains { 4 } else { rng.below(5) };
            match op {
                0 | 1 if clients < TASKS => {
                    let kinds = [
                        Kind::Write,
                        Kind::Copy,
                        Kind::Durable,
                        Kind::Rename,
                        Kind::Large,
                    ];
                    let kind = kinds[rng.below(kinds.len())];
                    let spec = spec(&mut sim, table.tasks.len(), kind);
                    let id = ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0)
                        .unwrap_or_else(|e| panic!("seed {seed}: submit {kind:?}: {e}; {log:?}"));
                    table.admit(id, kind, None);
                    table.dispatch();
                    log.push(format!("submit {kind:?} as {}", id.0));
                }
                2 if !table.tasks.is_empty() => {
                    let id = table.tasks[pick].id;
                    let answer = ops::cancel_task(&mut sim, 0, id);
                    log.push(format!("cancel {}: {answer:?}", id.0));
                    let next = table.apply(pick, Event::Cancel);
                    if next.answer == Answer::Ok && !next.settles {
                        table.apply(pick, Event::End(Outcome::Cancelled));
                    }
                    match (next.answer, &answer) {
                        (Answer::Ok, Ok(())) => {}
                        (Answer::Refused(why), Err(NornsError::TaskError(e))) if e == why => {}
                        (table, _) => {
                            panic!(
                                "seed {seed} round {round}: table {table:?}, sim {answer:?}; {log:?}"
                            )
                        }
                    }
                }
                _ => {
                    let ids = table.tasks.len() as u64;
                    run_to_transition(&mut sim, drains, ids);
                    table.step(drains, TaskId(ids + 1));
                    log.push(format!("step to {}", sim.now()));
                }
            }
            let urd = &sim.model.world.urds[0];
            for t in &table.tasks {
                let state = urd.task(t.id).map(|r| r.life.state);
                assert_eq!(
                    state,
                    Some(t.task.state),
                    "seed {seed} round {round}, task {} ({:?}): {log:?}",
                    t.id.0,
                    t.kind
                );
            }
            let status = urd.status();
            let sim_counts = [
                status.pending_tasks as i64,
                status.running_tasks as i64,
                status.completed_tasks as i64,
                status.cancelled_tasks as i64,
            ];
            let Counts {
                pending,
                running,
                completed,
                cancelled,
            } = table.counts;
            let counts = [pending, running, completed, cancelled].map(i64::from);
            assert_eq!(sim_counts, counts, "seed {seed} round {round}: {log:?}");
        }
    }

    /// The table, simulated: ≥ 200 seeded sequences each run, fixed here.
    #[test]
    fn lifecycle_sim_sequences_answer_as_the_table() {
        for seed in 0..200 {
            sim_sequence(seed);
        }
    }
}
