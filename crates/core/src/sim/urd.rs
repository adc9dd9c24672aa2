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
use crate::plugins::PluginKind;
use crate::queue::TaskQueue;
use crate::task::{JobId, TaskId, TaskSpec, TaskState, TaskStats};

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
    pub state: TaskState,
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
            state: self.state,
            bytes_total: self.total_bytes,
            bytes_moved: self.moved_bytes,
            submitted: self.submitted,
            started: self.started,
            finished: self.finished,
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
    completed: u64,
    /// Models the single epoll accept thread from Fig. 3 for the
    /// request-rate experiments.
    pub(crate) rpc_server: FifoServer,
    pub(crate) rpc_pending_svc: Vec<(u64, SimDuration)>,
    pub(crate) rpc_tick: EventId,
    /// Mean request-processing time of the accept thread (deserialize,
    /// validate, create descriptor, enqueue, respond).
    pub request_service_mean: SimDuration,
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
            completed: 0,
            rpc_server: FifoServer::new(1),
            rpc_pending_svc: Vec::new(),
            rpc_tick: EventId::NONE,
            request_service_mean: SimDuration::from_micros(22),
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

    pub(crate) fn record_completion(&mut self) {
        self.completed += 1;
    }

    pub fn status(&self) -> UrdStatus {
        UrdStatus {
            accepting: self.accepting,
            pending_tasks: self.queue.pending_len(),
            running_tasks: self.queue.running(),
            completed_tasks: self.completed,
            registered_jobs: self.controller.job_count(),
            registered_dataspaces: self.controller.dataspace_count(),
        }
    }

    /// Current E.T.A. for a task, per §IV-A: finished tasks report
    /// their completion time; running tasks extrapolate from their own
    /// progress; queued tasks use the route estimate.
    pub fn task_eta(&self, id: TaskId, now: SimTime) -> Option<SimTime> {
        let rec = self.tasks.get(&id)?;
        match rec.state {
            TaskState::Finished | TaskState::FinishedWithError => rec.finished,
            _ => Some(self.eta.eta(
                rec.plugin,
                rec.total_bytes,
                rec.moved_bytes,
                rec.started.unwrap_or(now),
                now,
            )),
        }
    }

    /// The instant at which all current staging work on this node is
    /// expected to drain — what slurmctld uses to plan node reuse.
    pub fn drain_eta(&self, now: SimTime) -> SimTime {
        let mut latest = now;
        for rec in self.tasks.values() {
            if !rec.state.is_terminal() {
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
