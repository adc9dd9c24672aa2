//! I/O tasks: the unit of work a urd daemon executes.

use simcore::{SimDuration, SimTime};

use crate::resource::ResourceRef;

/// Task identifier, unique per urd instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Batch job identifier (assigned by the scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// `iotask_init`'s operations (paper Table I), shared with the admission table.
pub use norns_sched::shape::TaskOp;

/// Lifecycle of a task inside urd: pending queue → worker → completion
/// list (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    Pending,
    InProgress,
    Finished,
    FinishedWithError,
}

impl TaskState {
    pub fn is_terminal(self) -> bool {
        matches!(self, TaskState::Finished | TaskState::FinishedWithError)
    }
}

/// What a task should do, as validated at submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    pub op: TaskOp,
    /// Submitter-assigned urgency for priority-aware arbitration
    /// (mirrors the real daemon's `TaskSpec.priority`).
    pub priority: u8,
    pub input: ResourceRef,
    pub output: Option<ResourceRef>,
}

impl TaskSpec {
    pub fn copy(input: ResourceRef, output: ResourceRef) -> Self {
        TaskSpec {
            op: TaskOp::Copy,
            priority: norns_sched::DEFAULT_PRIORITY,
            input,
            output: Some(output),
        }
    }

    pub fn mv(input: ResourceRef, output: ResourceRef) -> Self {
        TaskSpec {
            op: TaskOp::Move,
            priority: norns_sched::DEFAULT_PRIORITY,
            input,
            output: Some(output),
        }
    }

    pub fn remove(input: ResourceRef) -> Self {
        TaskSpec {
            op: TaskOp::Remove,
            priority: norns_sched::DEFAULT_PRIORITY,
            input,
            output: None,
        }
    }

    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Completion statistics (`norns_error(&tsk, &stats)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStats {
    pub state: TaskState,
    pub bytes_total: u64,
    pub bytes_moved: u64,
    pub submitted: SimTime,
    pub started: Option<SimTime>,
    pub finished: Option<SimTime>,
}

impl TaskStats {
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finished? - self.started?)
    }

    pub fn queue_wait(&self) -> Option<SimDuration> {
        Some(self.started? - self.submitted)
    }

    /// Mean transfer rate in bytes/s once finished.
    pub fn mean_rate(&self) -> Option<f64> {
        let secs = self.elapsed()?.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.bytes_moved as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceRef;

    #[test]
    fn spec_constructors() {
        let a = ResourceRef::local("pmdk0", "in");
        let b = ResourceRef::local("lustre", "out");
        let c = TaskSpec::copy(a.clone(), b.clone());
        assert_eq!(c.op, TaskOp::Copy);
        assert!(c.output.is_some());
        let m = TaskSpec::mv(a.clone(), b);
        assert_eq!(m.op, TaskOp::Move);
        let r = TaskSpec::remove(a);
        assert_eq!(r.op, TaskOp::Remove);
        assert!(r.output.is_none());
    }

    #[test]
    fn terminal_states() {
        assert!(!TaskState::Pending.is_terminal());
        assert!(!TaskState::InProgress.is_terminal());
        assert!(TaskState::Finished.is_terminal());
        assert!(TaskState::FinishedWithError.is_terminal());
    }

    #[test]
    fn stats_math() {
        let stats = TaskStats {
            state: TaskState::Finished,
            bytes_total: 1000,
            bytes_moved: 1000,
            submitted: SimTime::from_secs(1),
            started: Some(SimTime::from_secs(3)),
            finished: Some(SimTime::from_secs(8)),
        };
        assert_eq!(stats.queue_wait(), Some(SimDuration::from_secs(2)));
        assert_eq!(stats.elapsed(), Some(SimDuration::from_secs(5)));
        assert!((stats.mean_rate().unwrap() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn unfinished_stats_are_none() {
        let stats = TaskStats {
            state: TaskState::Pending,
            bytes_total: 10,
            bytes_moved: 0,
            submitted: SimTime::ZERO,
            started: None,
            finished: None,
        };
        assert_eq!(stats.elapsed(), None);
        assert_eq!(stats.mean_rate(), None);
    }
}
