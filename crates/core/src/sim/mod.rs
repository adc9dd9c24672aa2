//! Simulation driver for the NORNS service.
//!
//! [`NornsWorld`] is the complete simulated cluster state from NORNS'
//! point of view: the shared fluid-bandwidth network, the interconnect
//! fabric, every storage tier, and one [`SimUrd`] per compute node.
//! Top-level models (a plain benchmark world, or the Slurm simulator)
//! embed a `NornsWorld` and implement [`HasNorns`]; all operations are
//! generic free functions in [`ops`] so the same daemon logic serves
//! both.
//!
//! Flow completions are routed by tag: task flows encode
//! `(node, task)`; application flows (raw I/O issued by workload
//! models, outside NORNS) carry an app token.

pub mod ops;
pub mod plan;
pub mod urd;

use std::collections::HashMap;

use simcore::{CompletedFlow, FluidModel, FluidSystem, ResourceId, Sim, SimDuration};
use simnet::{Fabric, FabricParams, NodeId, RpcTiming};
use simstore::StorageSystem;

use crate::error::NornsError;
use crate::task::{JobId, TaskId, TaskSpec, TaskState, TaskStats};
use urd::{SimUrd, UrdStatus};

/// Tag bit marking application (non-NORNS) flows.
const APP_FLAG: u64 = 1 << 63;

pub(crate) fn task_tag(node: NodeId, task: TaskId) -> u64 {
    debug_assert!(node < (1 << 15), "node id too large for tag encoding");
    debug_assert!(task.0 < (1 << 48), "task id too large for tag encoding");
    ((node as u64) << 48) | task.0
}

pub(crate) fn app_tag(token: u64) -> u64 {
    debug_assert!(token < APP_FLAG);
    APP_FLAG | token
}

fn decode_tag(tag: u64) -> FlowOwner {
    if tag & APP_FLAG != 0 {
        FlowOwner::App {
            token: tag & !APP_FLAG,
        }
    } else {
        FlowOwner::Task {
            node: (tag >> 48) as NodeId,
            task: TaskId(tag & ((1 << 48) - 1)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowOwner {
    Task { node: NodeId, task: TaskId },
    App { token: u64 },
}

/// Tunables of the simulated deployment.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// urd worker threads per node (concurrent transfers).
    pub workers_per_node: usize,
    /// Local AF_UNIX request round trip (client → accept thread →
    /// response), excluding queueing.
    pub ipc_latency: SimDuration,
    /// Per-node memory bandwidth available to staging memcpys.
    pub ram_bps: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            workers_per_node: 4,
            ipc_latency: SimDuration::from_micros(8),
            ram_bps: simcore::units::gib_per_s(12.0),
        }
    }
}

/// In-flight application I/O operation (raw tier access issued by a
/// workload model without going through NORNS).
#[derive(Debug)]
struct AppOp {
    outstanding: usize,
}

/// In-flight RPC bookkeeping at the target urd.
#[derive(Debug)]
pub(crate) struct RpcWork {
    pub token: u64,
    pub request: RpcRequest,
}

/// Control-plane requests a urd accepts from remote peers.
#[derive(Debug, Clone)]
pub enum RpcRequest {
    /// Submit a task on behalf of `job` (control-API trust level).
    Submit {
        job: JobId,
        spec: TaskSpec,
        tag: u64,
    },
    QueryTask {
        task: TaskId,
    },
    Status,
    /// Pure no-op request used by the request-rate benchmarks (the
    /// paper's Fig. 5 measures exactly this path: process, create
    /// descriptor, enqueue, respond).
    Ping,
}

/// Outcome delivered back to the RPC initiator.
#[derive(Debug, Clone)]
pub enum RpcOutcome {
    Submitted(TaskId),
    TaskStatus(TaskStats),
    Status(UrdStatus),
    Pong,
    Err(NornsError),
}

/// A completed RPC exchange.
#[derive(Debug, Clone)]
pub struct RpcReply {
    /// Caller-chosen correlation token.
    pub token: u64,
    /// The node that served the request.
    pub from: NodeId,
    pub outcome: RpcOutcome,
}

/// Notification that a task reached a terminal state.
#[derive(Debug, Clone)]
pub struct TaskCompletion {
    pub node: NodeId,
    pub task: TaskId,
    pub job: JobId,
    pub tag: u64,
    pub state: TaskState,
    pub stats: TaskStats,
    pub error: Option<NornsError>,
}

/// The complete simulated NORNS deployment.
pub struct NornsWorld {
    pub fluid: FluidSystem,
    pub fabric: Fabric,
    pub storage: StorageSystem,
    pub urds: Vec<SimUrd>,
    pub config: WorldConfig,
    pub rpc_timing: RpcTiming,
    /// Per-node RAM bandwidth resource for memory-plugin legs.
    ram: Vec<ResourceId>,
    app_ops: HashMap<u64, AppOp>,
    next_app_token: u64,
    rpc_inflight: HashMap<(NodeId, u64), RpcWork>,
    next_rpc_seq: u64,
}

impl NornsWorld {
    pub fn new(nodes: usize, fabric_params: FabricParams, config: WorldConfig) -> Self {
        let mut fluid = FluidSystem::new();
        let protocol = fabric_params.protocol;
        let fabric = Fabric::build(&mut fluid.net, nodes, fabric_params);
        let ram = (0..nodes)
            .map(|n| {
                fluid
                    .net
                    .add_resource(config.ram_bps, format!("node{n}.ram"))
            })
            .collect();
        let urds = (0..nodes)
            .map(|n| SimUrd::new(n, config.workers_per_node))
            .collect();
        NornsWorld {
            fluid,
            fabric,
            storage: StorageSystem::new(),
            urds,
            rpc_timing: RpcTiming::new(protocol),
            config,
            ram,
            app_ops: HashMap::new(),
            next_app_token: 1,
            rpc_inflight: HashMap::new(),
            next_rpc_seq: 1,
        }
    }

    pub fn nodes(&self) -> usize {
        self.urds.len()
    }

    pub fn urd(&self, node: NodeId) -> &SimUrd {
        &self.urds[node]
    }

    pub(crate) fn ram_resource(&self, node: NodeId) -> ResourceId {
        self.ram[node]
    }

    pub(crate) fn alloc_app_token(&mut self) -> u64 {
        let t = self.next_app_token;
        self.next_app_token += 1;
        t
    }

    pub(crate) fn alloc_rpc_seq(&mut self) -> u64 {
        let s = self.next_rpc_seq;
        self.next_rpc_seq += 1;
        s
    }
}

/// Implemented by every top-level simulation model embedding NORNS.
pub trait HasNorns: FluidModel {
    fn norns_mut(&mut self) -> &mut NornsWorld;

    /// A NORNS task reached a terminal state.
    fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion);

    /// A raw application I/O op (issued via [`ops::app_io`]) finished.
    fn on_app_io_complete(_sim: &mut Sim<Self>, _token: u64) {}

    /// A remote RPC issued via [`ops::rpc_call`] completed.
    fn on_rpc_reply(_sim: &mut Sim<Self>, _reply: RpcReply) {}
}

/// Entry point the top-level model's `FluidModel::on_flow_complete`
/// must delegate to.
pub fn handle_flow_complete<M: HasNorns>(sim: &mut Sim<M>, done: CompletedFlow) {
    match decode_tag(done.tag) {
        FlowOwner::Task { node, task } => ops::task_flow_finished(sim, node, task, &done),
        FlowOwner::App { token } => {
            let world = sim.model.norns_mut();
            let finished = match world.app_ops.get_mut(&token) {
                Some(op) => {
                    op.outstanding -= 1;
                    op.outstanding == 0
                }
                None => false,
            };
            if finished {
                world.app_ops.remove(&token);
                M::on_app_io_complete(sim, token);
            }
        }
    }
}

#[cfg(test)]
mod tag_tests {
    use super::*;

    #[test]
    fn task_tags_roundtrip() {
        let tag = task_tag(33, TaskId(123_456));
        assert_eq!(
            decode_tag(tag),
            FlowOwner::Task {
                node: 33,
                task: TaskId(123_456)
            }
        );
    }

    #[test]
    fn app_tags_roundtrip() {
        let tag = app_tag(987);
        assert_eq!(decode_tag(tag), FlowOwner::App { token: 987 });
    }

    #[test]
    fn tags_do_not_collide() {
        assert_ne!(task_tag(0, TaskId(1)), app_tag(1));
    }
}
