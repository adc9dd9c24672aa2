//! I/O tasks: the unit of work a urd daemon executes.

use simcore::{SimDuration, SimTime};

/// Task identifier, unique per urd instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Batch job identifier (assigned by the scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// What a task should do — `iotask_init(type, input, output)` over a
/// memory region or dataspace path (paper Table I) — is the wire's one
/// task description, which the live daemon takes too: its operation,
/// durability mode and lifecycle state are the tables' own enums.
pub use norns_proto::{Durability, ResourceDesc, TaskOp, TaskSpec, TaskState};

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
