//! The sharded task table: one record per task, holding every fact
//! about it.
//!
//! The task table is the daemon's *control plane*: every `submit`,
//! `query`, progress snapshot, wait, cancel and completion touches it.
//! It is split into [`SHARDS`] id-keyed shards, each behind its own
//! mutex, so traffic on different tasks does not serialize on one
//! lock. Task ids are allocated sequentially, so consecutive tasks
//! land on different shards and the lock traffic spreads evenly.
//!
//! An entry is the task's whole record, as the paper's urd keeps one
//! for `norns_wait` / `norns_error`: stats and progress, the stamps its
//! durations come from, the waits parked on it, its part in
//! replication. Everything about a task changes under its own shard
//! lock, so no side table has to be kept in step with this one. No
//! code holds two shard locks at once: what a transition owes a waiter
//! or another task ([`Settled`]) is paid after its closure returns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use norns_proto::TaskStats;
use norns_sched::lifecycle::Task;

use super::remote::Cut;
use super::replication::ReplRole;
use super::waits::WaitCallback;
use super::EngineError;

/// Task-table shard count; a power of two, so an id maps to its shard
/// with a mask.
const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two());

/// One tracked task.
pub(crate) struct TaskEntry {
    /// The state and facts `norns_sched::lifecycle` decides on; only
    /// `Engine::step` changes them, and `stats.state` with them.
    pub life: Task,
    pub stats: TaskStats,
    /// The task's clock, two stamps: admitted, and first touched by a
    /// worker (`None` while pending). `stats.wait_usec` runs from the
    /// first to the second, `stats.elapsed_usec` from the second to
    /// the terminal transition, so their sum is the task's submit →
    /// terminal span.
    pub submitted_at: Instant,
    pub started_at: Option<Instant>,
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
    /// The flag behind a chain's abort point (`life.facts.abort`):
    /// read by the chain between units, raised by an accepted cancel.
    pub abort: Arc<AtomicBool>,
    /// The grip on the peer socket a remote transfer holds, which
    /// `Engine::shutdown` cuts once its drain window closes.
    pub cut: Arc<Cut>,
    /// The task's part in replication, if it has one.
    pub replicate: Option<ReplRole>,
    /// Waits parked on the task, by subscription id; the terminal
    /// transition takes them all.
    pub waiters: Vec<(u64, WaitCallback)>,
}

impl TaskEntry {
    pub fn snapshot(&self) -> TaskStats {
        let mut stats = self.stats.clone();
        if !stats.state.is_terminal() {
            stats.bytes_moved = stats.bytes_moved.max(self.progress.load(Ordering::Relaxed));
        }
        stats
    }
}

/// What a terminal transition owes once its shard lock is released
/// (`Engine::settle` takes it, `Engine::deliver` pays it): stats for
/// the parked waits, and a replica's `synchronous` parent with the
/// replica's failure, if any.
pub(crate) struct Settled {
    pub stats: TaskStats,
    pub waiters: Vec<(u64, WaitCallback)>,
    pub parent: Option<(u64, Option<EngineError>)>,
}

/// The id-sharded task table.
pub(crate) struct ShardedTaskTable {
    shards: [Mutex<HashMap<u64, TaskEntry>>; SHARDS],
}

impl ShardedTaskTable {
    pub fn new() -> Self {
        ShardedTaskTable {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, task_id: u64) -> &Mutex<HashMap<u64, TaskEntry>> {
        &self.shards[task_id as usize & (SHARDS - 1)]
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

    /// The id of an entry the predicate picks, if any.
    pub fn find(&self, mut pick: impl FnMut(&TaskEntry) -> bool) -> Option<u64> {
        self.shards.iter().find_map(|shard| {
            shard
                .lock()
                .iter()
                .find(|(_, t)| pick(t))
                .map(|(id, _)| *id)
        })
    }

    /// Visit every entry.
    pub fn each(&self, mut visit: impl FnMut(&TaskEntry)) {
        for shard in &self.shards {
            shard.lock().values().for_each(&mut visit);
        }
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
    use norns_sched::lifecycle::{admit, Role};

    fn entry(state: TaskState) -> TaskEntry {
        TaskEntry {
            life: admit(Role::Client).task,
            stats: TaskStats {
                state,
                error: ErrorCode::Success,
                bytes_total: 100,
                bytes_moved: 0,
                wait_usec: 0,
                elapsed_usec: 0,
            },
            submitted_at: Instant::now(),
            started_at: None,
            owner: 1,
            error_message: None,
            progress: Arc::new(AtomicU64::new(0)),
            abort: Arc::default(),
            cut: Arc::default(),
            replicate: None,
            waiters: Vec::new(),
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
