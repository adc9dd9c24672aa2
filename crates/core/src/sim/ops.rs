//! The NORNS operations, generic over any model embedding a
//! [`NornsWorld`].
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
//! | `nornsctl_status`                   | [`daemon_status`]            |
//! | `norns_get_dataspace_info`          | [`dataspace_info`]           |
//! | `norns_error` / `norns_wait` result | [`task_stats`], completions  |
//! | E.T.A. tracking (§IV-A)             | [`task_eta`], [`drain_eta`]  |
//!
//! Waiting is event-driven in the simulator: callers receive
//! [`super::TaskCompletion`] through [`HasNorns::on_task_complete`]
//! instead of blocking.

use simcore::{CompletedFlow, FlowSpec, Sim, SimDuration, SimTime};
use simnet::NodeId;
use simstore::{Cred, IoDir, TierRef};

use crate::controller::{ApiSource, DataspaceSpec, JobSpec};
use crate::error::{NornsError, Result};
use crate::sim::urd::{PlannedLeg, UrdStatus};
use crate::sim::{app_tag, task_tag, HasNorns, RpcOutcome, RpcReply, RpcRequest, TaskCompletion};
use crate::task::{JobId, TaskId, TaskSpec, TaskState, TaskStats};

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
    let world = sim.model.norns_mut();
    let tier = world
        .storage
        .resolve(tier_name)
        .ok_or_else(|| NornsError::NoSuchDataspace(tier_name.to_string()))?;
    world.urds[node]
        .controller
        .register_dataspace(DataspaceSpec {
            nsid: nsid.to_string(),
            tier,
            tracked,
        })
}

pub fn unregister_dataspace<M: HasNorns>(sim: &mut Sim<M>, node: NodeId, nsid: &str) -> Result<()> {
    sim.model.norns_mut().urds[node]
        .controller
        .unregister_dataspace(nsid)
        .map(|_| ())
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
/// dataspace grants, request shape) happens synchronously, as in the
/// real daemon; the transfer itself runs asynchronously. Returns the
/// task id to monitor.
pub fn submit_task<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    job: JobId,
    source: ApiSource,
    spec: TaskSpec,
    tag: u64,
) -> Result<TaskId> {
    let now = sim.now();
    let world = sim.model.norns_mut();
    let urd = &mut world.urds[node];
    if !urd.accepting() {
        return Err(NornsError::NotAccepting);
    }
    let (cred, plugin) = urd.controller.validate(job, source, &spec)?;
    let id = urd.alloc_task_id();
    // Size estimate for size-aware arbitration policies: memory sizes
    // are declared; path sizes come from a best-effort stat (the real
    // daemon stats sources at submission too).
    let est = match &spec.input {
        crate::resource::ResourceRef::Memory { size } => *size,
        input => super::plan::resolve_side(world, node, input)
            .ok()
            .and_then(|side| super::plan::side_bytes(world, &side, &cred, plugin).ok())
            .map(|(bytes, _)| bytes)
            .unwrap_or(0),
    };
    let urd = &mut world.urds[node];
    urd.queue.enqueue(id, job, est, spec.priority, now);
    urd.tasks.insert(
        id,
        super::urd::TaskRecord {
            id,
            job,
            spec,
            cred,
            tag,
            state: TaskState::Pending,
            plugin,
            total_bytes: est,
            moved_bytes: 0,
            submitted: now,
            started: None,
            finished: None,
            error: None,
            charged: None,
            exec: Default::default(),
        },
    );
    maybe_dispatch(sim, node);
    Ok(id)
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

pub(crate) fn maybe_dispatch<M: HasNorns>(sim: &mut Sim<M>, node: NodeId) {
    loop {
        let picked = sim.model.norns_mut().urds[node].queue.dispatch();
        let Some(pending) = picked else { return };
        let task = pending.task;
        match super::plan::build(sim, node, task) {
            Ok(built) => {
                let now = sim.now();
                let rec = sim.model.norns_mut().urds[node]
                    .task_mut(task)
                    .expect("dispatched task exists");
                rec.state = TaskState::InProgress;
                rec.started = Some(now);
                rec.total_bytes = built.total_bytes;
                rec.exec.legs = built.legs;
                if let Some((cnode, nsid, bytes)) = built.charged {
                    rec.charged = Some((cnode, nsid, bytes));
                }
                start_next_leg(sim, node, task);
            }
            Err(e) => {
                let now = sim.now();
                let rec = sim.model.norns_mut().urds[node]
                    .task_mut(task)
                    .expect("dispatched task exists");
                rec.state = TaskState::InProgress;
                rec.started = Some(now);
                complete_task(sim, node, task, Some(e));
            }
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
    if shards.is_empty() {
        // Metadata-only leg (removal).
        start_next_leg(sim, node, task);
        return;
    }
    {
        let rec = sim.model.norns_mut().urds[node]
            .task_mut(task)
            .expect("running task");
        rec.exec.outstanding = shards.len();
    }
    let tag = task_tag(node, task);
    for (path, bytes) in shards {
        simcore::start_flow(sim, FlowSpec::new(bytes as f64, path).with_tag(tag));
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
        rec.exec.outstanding == 0
    };
    if leg_done {
        start_next_leg(sim, node, task);
    }
}

fn complete_task<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    task: TaskId,
    error: Option<NornsError>,
) {
    let now = sim.now();
    // Apply namespace effects on success.
    let (spec, cred, job, plugin, charged) = {
        let rec = sim.model.norns_mut().urds[node]
            .task(task)
            .expect("completing task");
        (
            rec.spec.clone(),
            rec.cred.clone(),
            rec.job,
            rec.plugin,
            rec.charged.clone(),
        )
    };
    let error = match error {
        Some(e) => Some(e),
        None => {
            let world = sim.model.norns_mut();
            super::plan::apply_effects(world, node, job, &spec, &cred).err()
        }
    };
    // On failure, release any quota charged at plan time.
    if error.is_some() {
        if let Some((cnode, nsid, bytes)) = &charged {
            let world = sim.model.norns_mut();
            world.urds[*cnode].controller.release(job, nsid, *bytes);
        }
    }

    let completion = {
        let urd = &mut sim.model.norns_mut().urds[node];
        let elapsed = {
            let rec = urd.task_mut(task).expect("completing task");
            rec.finished = Some(now);
            rec.state = if error.is_some() {
                TaskState::FinishedWithError
            } else {
                TaskState::Finished
            };
            rec.error = error.clone();
            rec.started.map(|s| now - s)
        };
        if error.is_none() {
            if let Some(elapsed) = elapsed {
                let bytes = urd.task(task).map(|r| r.moved_bytes).unwrap_or(0);
                urd.eta.observe(plugin, bytes, elapsed);
            }
        }
        urd.queue.finish();
        urd.record_completion();
        let rec = urd.task(task).expect("completing task");
        TaskCompletion {
            node,
            task,
            job,
            tag: rec.tag,
            state: rec.state,
            stats: rec.stats(),
            error,
        }
    };
    M::on_task_complete(sim, completion);
    // Flatten recursion: dispatch follow-up work on a fresh event.
    sim.schedule_now(move |sim| maybe_dispatch(sim, node));
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
    let world = sim.model.norns_mut();
    let tier = world
        .storage
        .resolve(tier_name)
        .ok_or_else(|| NornsError::NoSuchDataspace(tier_name.to_string()))?;
    let token = world.alloc_app_token();
    let shards = world.storage.plan_io(tier, node, dir, bytes, stripe);
    let setup = world.storage.setup_cost(tier, files.max(1));
    world.app_ops.insert(
        token,
        super::AppOp {
            outstanding: shards.len(),
        },
    );
    let tag = app_tag(token);
    sim.schedule_in(setup, move |sim| {
        for shard in shards {
            simcore::start_flow(
                sim,
                FlowSpec::new(shard.bytes as f64, shard.path).with_tag(tag),
            );
        }
    });
    Ok(token)
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
    let world = sim.model.norns_mut();
    let tier = world
        .storage
        .resolve(tier_name)
        .ok_or_else(|| NornsError::NoSuchDataspace(tier_name.to_string()))?;
    let osts = world.storage.allocate_osts(tier, stripe);
    let mut tokens = Vec::with_capacity(nodes.len());
    for &node in nodes {
        let world = sim.model.norns_mut();
        let token = world.alloc_app_token();
        let shards = if osts.is_empty() {
            world
                .storage
                .plan_io(tier, node, dir, bytes_per_node, stripe)
        } else {
            world
                .storage
                .plan_io_fixed(tier, node, dir, bytes_per_node, &osts)
        };
        world.app_ops.insert(
            token,
            super::AppOp {
                outstanding: shards.len(),
            },
        );
        let tag = app_tag(token);
        let setup = world.storage.setup_cost(tier, 1);
        sim.schedule_in(setup, move |sim| {
            for shard in shards {
                simcore::start_flow(
                    sim,
                    FlowSpec::new(shard.bytes as f64, shard.path).with_tag(tag),
                );
            }
        });
        tokens.push(token);
    }
    Ok(tokens)
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
