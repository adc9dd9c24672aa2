//! The urd task queue, backed by the shared `norns-sched` arbitration
//! layer.
//!
//! The paper: "task order in the queue is controlled by a *task
//! scheduler* component, which arbitrates the order of the execution of
//! I/O tasks depending on several metrics. FCFS is the default
//! arbitration policy, but the component will be extended in the future
//! to support other strategies." The policies themselves (FCFS,
//! shortest-first, per-job fair share, weighted priority) live in the
//! `norns-sched` crate so the real-I/O daemon (`norns-ipc`) arbitrates
//! through the exact same implementations; this module instantiates
//! them over simulated time.

use simcore::SimTime;

use crate::task::{JobId, TaskId};

pub use norns_sched::{
    ArbitrationPolicy, Fcfs, JobFairShare, PendingTask as GenericPendingTask, ShortestFirst,
    WeightedPriority, DEFAULT_PRIORITY,
};

/// A task waiting in the simulated urd's queue.
pub type PendingTask = norns_sched::PendingTask<JobId, TaskId, SimTime>;

/// Policy trait object over the simulated key types.
pub type SimPolicy = Box<dyn ArbitrationPolicy<JobId, TaskId, SimTime>>;

/// The pending queue plus worker-slot accounting for one simulated
/// urd: [`norns_sched::Scheduler`] over the sim key types.
pub type TaskQueue = norns_sched::Scheduler<JobId, TaskId, SimTime>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_picks_in_submission_order() {
        let mut q = TaskQueue::fcfs(1);
        q.enqueue(TaskId(1), JobId(1), 100, DEFAULT_PRIORITY, SimTime::ZERO);
        q.enqueue(TaskId(2), JobId(1), 10, DEFAULT_PRIORITY, SimTime::ZERO);
        let first = q.dispatch().unwrap();
        assert_eq!(first.task, TaskId(1));
        // Worker busy: no more dispatches.
        assert!(q.dispatch().is_none());
        q.finish();
        assert_eq!(q.dispatch().unwrap().task, TaskId(2));
    }

    #[test]
    fn sim_policies_come_from_norns_sched() {
        let mut q = TaskQueue::new(4, Box::new(JobFairShare::default()));
        // Job 1 floods, job 2 submits one task late.
        q.enqueue(TaskId(1), JobId(1), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        q.enqueue(TaskId(2), JobId(1), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        q.enqueue(TaskId(3), JobId(1), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        q.enqueue(TaskId(4), JobId(2), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        assert_eq!(q.dispatch().unwrap().task, TaskId(1));
        // Next pick must prefer job 2 even though job 1 queued earlier.
        assert_eq!(q.dispatch().unwrap().task, TaskId(4));
        assert_eq!(q.dispatch().unwrap().task, TaskId(2));
        assert_eq!(q.dispatch().unwrap().task, TaskId(3));
    }

    #[test]
    fn sjf_over_sim_types() {
        let mut q = TaskQueue::new(1, Box::new(ShortestFirst));
        q.enqueue(TaskId(1), JobId(1), 500, DEFAULT_PRIORITY, SimTime::ZERO);
        q.enqueue(TaskId(2), JobId(1), 50, DEFAULT_PRIORITY, SimTime::ZERO);
        q.enqueue(TaskId(3), JobId(1), 5000, DEFAULT_PRIORITY, SimTime::ZERO);
        assert_eq!(q.dispatch().unwrap().task, TaskId(2));
    }

    #[test]
    fn priority_respected_by_weighted_policy() {
        let mut q = TaskQueue::new(1, Box::new(WeightedPriority::default()));
        q.enqueue(TaskId(1), JobId(1), 1, 10, SimTime::ZERO);
        q.enqueue(TaskId(2), JobId(1), 1, 200, SimTime::ZERO);
        assert_eq!(q.dispatch().unwrap().task, TaskId(2));
    }

    #[test]
    fn worker_limit_respected() {
        let mut q = TaskQueue::fcfs(2);
        for i in 0..5 {
            q.enqueue(TaskId(i), JobId(0), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        }
        assert!(q.dispatch().is_some());
        assert!(q.dispatch().is_some());
        assert!(q.dispatch().is_none(), "2 workers max");
        assert_eq!(q.running(), 2);
        assert_eq!(q.pending_len(), 3);
        q.finish();
        assert!(q.dispatch().is_some());
    }

    #[test]
    fn cancel_pending_removes() {
        let mut q = TaskQueue::fcfs(1);
        q.enqueue(TaskId(1), JobId(0), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        q.enqueue(TaskId(2), JobId(0), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        assert!(q.cancel_pending(TaskId(2)));
        assert!(!q.cancel_pending(TaskId(2)));
        assert_eq!(q.dispatch().unwrap().task, TaskId(1));
        assert!(q.dispatch().is_none());
    }

    #[test]
    #[should_panic(expected = "finish() without")]
    fn finish_without_dispatch_panics() {
        let mut q = TaskQueue::fcfs(1);
        q.finish();
    }

    #[test]
    fn counters() {
        let mut q = TaskQueue::fcfs(8);
        for i in 0..3 {
            q.enqueue(TaskId(i), JobId(0), 1, DEFAULT_PRIORITY, SimTime::ZERO);
        }
        assert_eq!(q.enqueued_total(), 3);
        assert_eq!(q.policy_name(), "fcfs");
        assert_eq!(q.workers(), 8);
    }
}
