//! The simulated `urd` daemon instance living on each compute node.
//!
//! Holds the components of Fig. 3: the job & dataspace controller, the
//! task queue with its arbitration policy, the completion records, the
//! E.T.A. estimator and a FIFO "accept thread" server that models
//! request-processing latency for RPC experiments.

use std::collections::HashMap;

use simcore::{EventId, FifoServer, SimDuration, SimTime};
use simnet::NodeId;
use simstore::Cred;

use crate::controller::Controller;
use crate::error::NornsError;
use crate::eta::EtaEstimator;
use crate::queue::TaskQueue;
use crate::sim::TaskCompletion;
use crate::task::{JobId, TaskId, TaskSpec, TaskStats};
use crate::PluginKind;
use norns_sched::durability::Record;
use norns_sched::lifecycle::{Counts, Task};

/// The job key of the daemon's own replica pushes, as the live engine's
/// `REPLICA_OWNER`: no client job can have it.
pub const REPLICA_JOB: JobId = JobId(u64::MAX);

/// One leg of a planned transfer (built by `sim::plan`).
#[derive(Debug, Clone)]
pub struct PlannedLeg {
    pub label: &'static str,
    /// Fixed pre-leg latency (RPC round trips, fallocate/mmap setup,
    /// MDS operations).
    pub latency: SimDuration,
    /// Flows to launch for this leg: (resource path, bytes).
    pub shards: Vec<(Vec<simcore::ResourceId>, u64)>,
}

/// Execution progress of a running task.
#[derive(Debug, Default)]
pub(crate) struct ExecState {
    /// Legs not yet started.
    pub legs: std::collections::VecDeque<PlannedLeg>,
    /// Outstanding flows in the currently running leg.
    pub outstanding: usize,
    /// The flows it started, for a cancel to cut.
    pub flows: Vec<simcore::FlowId>,
}

/// Everything urd knows about one task.
#[derive(Debug)]
pub struct TaskRecord {
    pub id: TaskId,
    pub job: JobId,
    pub spec: TaskSpec,
    pub cred: Cred,
    /// Caller correlation tag (the scheduler uses it to map staging
    /// operations back to workflow steps).
    pub tag: u64,
    /// Its lifecycle record, stepped by the table both worlds run.
    pub life: Task,
    /// Its durability record, stepped by the durability table both
    /// worlds run once it lands.
    pub durable: Record,
    /// A replica's `synchronous` stage-out, which its end reports to.
    pub parent: Option<TaskId>,
    pub plugin: PluginKind,
    pub total_bytes: u64,
    pub moved_bytes: u64,
    pub submitted: SimTime,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
    pub error: Option<NornsError>,
    /// Quota charged at plan time: (node, nsid, bytes); released on
    /// task failure.
    pub(crate) charged: Option<(NodeId, String, u64)>,
    pub(crate) exec: ExecState,
}

impl TaskRecord {
    pub fn stats(&self) -> TaskStats {
        TaskStats {
            state: self.life.state,
            bytes_total: self.total_bytes,
            bytes_moved: self.moved_bytes,
            submitted: self.submitted,
            started: self.started,
            finished: self.finished,
        }
    }

    /// What its completion callback is told.
    pub(crate) fn completion(&self, node: NodeId, error: Option<NornsError>) -> TaskCompletion {
        TaskCompletion {
            node,
            task: self.id,
            job: self.job,
            tag: self.tag,
            state: self.life.state,
            stats: self.stats(),
            error,
        }
    }
}

/// Daemon status snapshot (mirrors `nornsctl_status`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrdStatus {
    pub accepting: bool,
    pub pending_tasks: usize,
    pub running_tasks: usize,
    pub completed_tasks: u64,
    pub cancelled_tasks: u64,
    pub registered_jobs: usize,
    pub registered_dataspaces: usize,
}

/// The per-node daemon state.
pub struct SimUrd {
    pub node: NodeId,
    pub controller: Controller,
    pub queue: TaskQueue,
    pub eta: EtaEstimator,
    pub(crate) tasks: HashMap<TaskId, TaskRecord>,
    next_task: u64,
    accepting: bool,
    /// The status counters, moved by the lifecycle table's rows alone
    /// (`ops::admit` and `ops::step`): a stage-out awaiting its
    /// replicas counts as running. The queue keeps only ordering and
    /// worker slots.
    counts: [u64; 4],
    /// Models the single epoll accept thread from Fig. 3 for the
    /// request-rate experiments.
    pub(crate) rpc_server: FifoServer,
    pub(crate) rpc_pending_svc: Vec<(u64, SimDuration)>,
    pub(crate) rpc_tick: EventId,
    /// Mean request-processing time of the accept thread (deserialize,
    /// validate, create descriptor, enqueue, respond).
    pub request_service_mean: SimDuration,
    /// Replication peers, in registration order (the live daemon's
    /// peer registry).
    pub(crate) peers: Vec<NodeId>,
    /// Replica pushes spawned and not yet ended (the live daemon's
    /// `pending_replicas`).
    pub pending_replicas: u64,
}

impl SimUrd {
    pub fn new(node: NodeId, workers: usize) -> Self {
        SimUrd {
            node,
            controller: Controller::new(),
            queue: TaskQueue::fcfs(workers),
            eta: EtaEstimator::default(),
            tasks: HashMap::new(),
            next_task: 1,
            accepting: true,
            counts: [0; 4],
            rpc_server: FifoServer::new(1),
            rpc_pending_svc: Vec::new(),
            rpc_tick: EventId::NONE,
            request_service_mean: SimDuration::from_micros(22),
            peers: Vec::new(),
            pending_replicas: 0,
        }
    }

    pub fn accepting(&self) -> bool {
        self.accepting
    }

    pub fn set_accepting(&mut self, on: bool) {
        self.accepting = on;
    }

    pub(crate) fn alloc_task_id(&mut self) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        id
    }

    pub fn task(&self, id: TaskId) -> Option<&TaskRecord> {
        self.tasks.get(&id)
    }

    pub(crate) fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskRecord> {
        self.tasks.get_mut(&id)
    }

    /// Move the status counters by a lifecycle row's deltas.
    pub(crate) fn count(&mut self, by: Counts) {
        let by = [by.pending, by.running, by.completed, by.cancelled];
        for (counter, by) in self.counts.iter_mut().zip(by) {
            *counter = counter.saturating_add_signed(i64::from(by));
        }
    }

    pub fn status(&self) -> UrdStatus {
        let [pending, running, completed, cancelled] = self.counts;
        UrdStatus {
            accepting: self.accepting,
            pending_tasks: pending as usize,
            running_tasks: running as usize,
            completed_tasks: completed,
            cancelled_tasks: cancelled,
            registered_jobs: self.controller.job_count(),
            registered_dataspaces: self.controller.dataspace_count(),
        }
    }

    /// Current E.T.A. for a task, per §IV-A: finished tasks report
    /// their completion time; running tasks extrapolate from their own
    /// progress; queued tasks use the route estimate.
    pub fn task_eta(&self, id: TaskId, now: SimTime) -> Option<SimTime> {
        let rec = self.tasks.get(&id)?;
        if rec.life.state.is_terminal() {
            return rec.finished;
        }
        Some(self.eta.eta(
            rec.plugin,
            rec.total_bytes,
            rec.moved_bytes,
            rec.started.unwrap_or(now),
            now,
        ))
    }

    /// The instant at which all current staging work on this node is
    /// expected to drain — what slurmctld uses to plan node reuse.
    pub fn drain_eta(&self, now: SimTime) -> SimTime {
        let mut latest = now;
        for rec in self.tasks.values() {
            if !rec.life.state.is_terminal() {
                if let Some(eta) = self.task_eta(rec.id, now) {
                    latest = latest.max(eta);
                }
            }
        }
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_ids_are_unique_and_monotonic() {
        let mut urd = SimUrd::new(0, 4);
        let a = urd.alloc_task_id();
        let b = urd.alloc_task_id();
        assert!(b > a);
    }

    #[test]
    fn status_snapshot() {
        let urd = SimUrd::new(3, 2);
        let st = urd.status();
        assert!(st.accepting);
        assert_eq!(st.pending_tasks, 0);
        assert_eq!(st.running_tasks, 0);
        assert_eq!(st.completed_tasks, 0);
    }

    #[test]
    fn accepting_toggle() {
        let mut urd = SimUrd::new(0, 1);
        urd.set_accepting(false);
        assert!(!urd.accepting());
        urd.set_accepting(true);
        assert!(urd.accepting());
    }

    #[test]
    fn drain_eta_with_no_tasks_is_now() {
        let urd = SimUrd::new(0, 1);
        let now = SimTime::from_secs(9);
        assert_eq!(urd.drain_eta(now), now);
    }
}
