//! The sharded task table.
//!
//! The task table is the daemon's *control plane*: every `submit`,
//! `query`, progress snapshot, cancel and completion touches it. It is
//! split into [`DEFAULT_SHARDS`] id-keyed shards, each behind its own
//! mutex, so traffic on different tasks does not serialize on one
//! lock. Task ids are allocated sequentially, so consecutive tasks
//! land on different shards and the lock traffic spreads evenly.
//!
//! The table only stores state. Waiting is not its business: a
//! terminal transition is delivered to waiters by the engine's
//! wait-subscription registry, which wakes exactly the subscribers of
//! that task.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use norns_proto::TaskStats;

use super::replication::ReplRequest;

/// Task-table shard count; a power of two, so an id maps to its shard
/// with a mask.
pub const DEFAULT_SHARDS: usize = 16;
const _: () = assert!(DEFAULT_SHARDS.is_power_of_two());

/// One tracked task.
pub(crate) struct TaskEntry {
    pub stats: TaskStats,
    pub submitted_at: Instant,
    /// Scheduler key of the submitter (job id on the control path,
    /// tagged pid on the user path); authorizes user-socket cancels.
    pub owner: u64,
    /// Live byte counter advanced by the data plane as chunks land;
    /// [`TaskEntry::snapshot`] overlays it on `stats.bytes_moved`, so
    /// `query()` is a real progress API while the task is in flight.
    pub progress: Arc<AtomicU64>,
    /// Human-readable failure detail (the wire's `TaskStats` only
    /// carries the error code); surfaced via `Engine::error_message`.
    pub error_message: Option<String>,
    /// Mid-stream cancel request; decomposed transfers observe it
    /// between chunk ranges (and remote ones between round-trips).
    pub abort: Arc<AtomicBool>,
    /// Whether the running transfer honors `abort` — true once a
    /// worker decomposed it into a chunked or remote plan. Tasks
    /// without abort points (small inline copies) stay uncancellable
    /// once running, as before.
    pub abortable: bool,
    /// Replication a qualifying stage-out asked for at submission,
    /// taken when its local leg reaches `complete_task`.
    pub replicate: Option<ReplRequest>,
}

impl TaskEntry {
    fn snapshot(&self) -> TaskStats {
        let mut stats = self.stats.clone();
        if !stats.state.is_terminal() {
            stats.bytes_moved = stats.bytes_moved.max(self.progress.load(Ordering::Relaxed));
        }
        stats
    }
}

/// The id-sharded task table.
pub(crate) struct ShardedTaskTable {
    shards: [Mutex<HashMap<u64, TaskEntry>>; DEFAULT_SHARDS],
}

impl ShardedTaskTable {
    pub fn new() -> Self {
        ShardedTaskTable {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, task_id: u64) -> &Mutex<HashMap<u64, TaskEntry>> {
        &self.shards[task_id as usize & (DEFAULT_SHARDS - 1)]
    }

    pub fn insert(&self, task_id: u64, entry: TaskEntry) {
        self.shard(task_id).lock().insert(task_id, entry);
    }

    /// Read-only access to one entry.
    pub fn read<R>(&self, task_id: u64, f: impl FnOnce(&TaskEntry) -> R) -> Option<R> {
        self.shard(task_id).lock().get(&task_id).map(f)
    }

    /// Current stats with live progress overlaid.
    pub fn snapshot(&self, task_id: u64) -> Option<TaskStats> {
        self.read(task_id, TaskEntry::snapshot)
    }

    /// Mutate one entry.
    pub fn update<R>(&self, task_id: u64, f: impl FnOnce(&mut TaskEntry) -> R) -> Option<R> {
        self.shard(task_id).lock().get_mut(&task_id).map(f)
    }

    /// Drop every entry the predicate rejects (completion-list GC).
    pub fn retain(&self, mut keep: impl FnMut(&TaskEntry) -> bool) {
        for shard in &self.shards {
            shard.lock().retain(|_, t| keep(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use norns_proto::{ErrorCode, TaskState};

    fn entry(state: TaskState) -> TaskEntry {
        TaskEntry {
            stats: TaskStats {
                state,
                error: ErrorCode::Success,
                bytes_total: 100,
                bytes_moved: 0,
                wait_usec: 0,
                elapsed_usec: 0,
            },
            submitted_at: Instant::now(),
            owner: 1,
            error_message: None,
            progress: Arc::new(AtomicU64::new(0)),
            abort: Arc::new(AtomicBool::new(false)),
            abortable: false,
            replicate: None,
        }
    }

    #[test]
    fn snapshot_overlays_live_progress() {
        let table = ShardedTaskTable::new();
        let e = entry(TaskState::InProgress);
        let progress = Arc::clone(&e.progress);
        table.insert(7, e);
        assert_eq!(table.snapshot(7).unwrap().bytes_moved, 0);
        progress.store(42, Ordering::Relaxed);
        assert_eq!(table.snapshot(7).unwrap().bytes_moved, 42);
        // Terminal stats are authoritative; progress is ignored.
        table.update(7, |t| {
            t.stats.state = TaskState::Finished;
            t.stats.bytes_moved = 100;
        });
        progress.store(999, Ordering::Relaxed);
        assert_eq!(table.snapshot(7).unwrap().bytes_moved, 100);
    }

    #[test]
    fn retain_drops_terminal_entries() {
        let table = ShardedTaskTable::new();
        table.insert(1, entry(TaskState::Finished));
        table.insert(2, entry(TaskState::Pending));
        table.retain(|t| !t.stats.state.is_terminal());
        assert!(table.snapshot(1).is_none());
        assert!(table.snapshot(2).is_some());
    }
}
