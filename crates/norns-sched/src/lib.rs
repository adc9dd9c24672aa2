//! # norns-sched — shared task-arbitration layer
//!
//! The paper's urd arbitrates its I/O task queue through a *task
//! scheduler* component: "FCFS is the default arbitration policy, but
//! the component will be extended in the future to support other
//! strategies." This crate is that component, extracted so that **both**
//! execution paths share one implementation:
//!
//! * the simulated urd (`norns::queue::TaskQueue`) wraps a
//!   [`Scheduler<JobId, TaskId, SimTime>`], and
//! * the real-I/O daemon (`norns_ipc::Engine`) drives its worker pool
//!   from a bounded `Scheduler<u64, Work, u64>` behind a
//!   mutex+condvar: its queue entries are the work itself, so no side
//!   table keyed by task id has to be kept in step with the queue.
//!
//! The scheduler is generic over the job key `J`, the task `T` (a key,
//! or the work itself: only [`Scheduler::cancel_pending`] compares it) and
//! the submission timestamp `S` (simulated time on the sim path,
//! microseconds-since-start on the real path); policies only inspect
//! sizes, priorities, job keys and submission order, so one policy
//! serves both worlds — as one admission table ([`shape`]), one task
//! lifecycle ([`lifecycle`]), one durability rule ([`durability`]) and
//! one job & dataspace table ([`registry`]) do.

pub mod durability;
pub mod lifecycle;
pub mod registry;
pub mod shape;

use std::collections::VecDeque;
use std::fmt;

/// Priority assigned when a submitter does not specify one. Higher
/// values are more urgent; the range is the full `u8`.
pub const DEFAULT_PRIORITY: u8 = 100;

/// A task waiting for a worker, as seen by an arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingTask<J, T, S = u64> {
    pub task: T,
    pub job: J,
    /// Estimated transfer size; 0 means "unknown" and size-aware
    /// policies schedule unknown-size tasks last.
    pub bytes: u64,
    /// Submitter-assigned urgency (higher runs earlier under
    /// priority-aware policies).
    pub priority: u8,
    pub submitted: S,
    /// Monotonic submission sequence (FCFS order).
    pub seq: u64,
}

/// Arbitration policy: choose which pending task runs next.
///
/// This is the single policy definition in the workspace; both the
/// simulated and the real daemon dispatch through it.
pub trait ArbitrationPolicy<J, T, S>: fmt::Debug + Send {
    fn name(&self) -> &'static str;

    /// Index into `pending` of the task to dispatch next. `None` only
    /// when `pending` is empty.
    fn pick(&mut self, pending: &VecDeque<PendingTask<J, T, S>>) -> Option<usize>;
}

/// First-come first-served (paper default).
#[derive(Debug, Default, Clone)]
pub struct Fcfs;

impl<J, T, S> ArbitrationPolicy<J, T, S> for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn pick(&mut self, pending: &VecDeque<PendingTask<J, T, S>>) -> Option<usize> {
        if pending.is_empty() {
            None
        } else {
            Some(0)
        }
    }
}

/// Shortest task first (by bytes) — reduces mean completion time at
/// the risk of starving large stage-outs. Unknown sizes (0) sort
/// *last*: treating them as smallest would let a huge tree copy with
/// no size estimate monopolize a worker ahead of genuinely small
/// tasks.
#[derive(Debug, Default, Clone)]
pub struct ShortestFirst;

/// SJF ordering key: unknown (0) is conservatively "largest".
pub fn sjf_size_key(bytes: u64) -> u64 {
    if bytes == 0 {
        u64::MAX
    } else {
        bytes
    }
}

impl<J, T, S> ArbitrationPolicy<J, T, S> for ShortestFirst {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn pick(&mut self, pending: &VecDeque<PendingTask<J, T, S>>) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| (sjf_size_key(t.bytes), t.seq))
            .map(|(i, _)| i)
    }
}

/// Round-robin across jobs so one job's task storm cannot monopolize
/// the staging workers: each pick serves the *least-recently-served*
/// job with pending work (jobs never served yet come first), taking
/// that job's earliest task. Alternating only with the previous job
/// would starve a third job behind two busy ones.
#[derive(Debug, Clone)]
pub struct JobFairShare<J> {
    /// Service history, least-recently-served job at the front.
    served: Vec<J>,
}

// Manual impl: the derive would wrongly require `J: Default`.
impl<J> Default for JobFairShare<J> {
    fn default() -> Self {
        JobFairShare { served: Vec::new() }
    }
}

impl<J, T, S> ArbitrationPolicy<J, T, S> for JobFairShare<J>
where
    J: Copy + PartialEq + fmt::Debug + Send,
{
    fn name(&self) -> &'static str {
        "job-fair"
    }

    fn pick(&mut self, pending: &VecDeque<PendingTask<J, T, S>>) -> Option<usize> {
        // `pending` is seq-ordered, so the first task seen for a job
        // is that job's earliest; rank jobs by recency of service
        // (never served < served long ago < served just now).
        let mut best: Option<(usize, usize)> = None; // (recency rank, idx)
        for (idx, t) in pending.iter().enumerate() {
            let rank = self
                .served
                .iter()
                .position(|j| *j == t.job)
                .map_or(0, |p| p + 1);
            match best {
                Some((best_rank, _)) if best_rank <= rank => {}
                _ => best = Some((rank, idx)),
            }
            if rank == 0 {
                break; // never-served job with the earliest task: optimal
            }
        }
        let (_, idx) = best?;
        let job = pending[idx].job;
        // Keep the history bounded by the set of currently pending
        // jobs: a long-running daemon sees an unbounded stream of
        // short-lived job/pid keys, and entries for drained jobs would
        // otherwise accumulate forever.
        self.served
            .retain(|j| *j != job && pending.iter().any(|t| t.job == *j));
        self.served.push(job);
        Some(idx)
    }
}

/// Priority scheduling with aging: the score of a pending task is
/// `priority * age_weight + age`, where age is measured in submissions
/// that arrived after it. Strict priority order for tasks of similar
/// age, but a task overtakes one `d` priority levels above it after
/// `d * age_weight` newer submissions — so low-priority work cannot
/// starve forever under a sustained high-priority stream.
#[derive(Debug, Clone)]
pub struct WeightedPriority {
    age_weight: u64,
}

impl WeightedPriority {
    pub fn new(age_weight: u64) -> Self {
        assert!(age_weight > 0, "age_weight must be positive");
        WeightedPriority { age_weight }
    }
}

impl Default for WeightedPriority {
    /// A priority level is worth 64 submissions of aging — effectively
    /// strict priority under bursts, starvation-free under floods.
    fn default() -> Self {
        WeightedPriority::new(64)
    }
}

impl<J, T, S> ArbitrationPolicy<J, T, S> for WeightedPriority {
    fn name(&self) -> &'static str {
        "weighted-priority"
    }

    fn pick(&mut self, pending: &VecDeque<PendingTask<J, T, S>>) -> Option<usize> {
        let newest = pending.iter().map(|t| t.seq).max()?;
        pending
            .iter()
            .enumerate()
            // max_by_key returns the *last* maximum; key on (score,
            // Reverse(seq)) so ties go to the earliest submission.
            .max_by_key(|(_, t)| {
                let age = newest - t.seq;
                (
                    t.priority as u64 * self.age_weight + age,
                    std::cmp::Reverse(t.seq),
                )
            })
            .map(|(i, _)| i)
    }
}

/// Error returned when a bounded scheduler rejects a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    pub capacity: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task queue full ({} pending)", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// The pending queue plus worker-slot accounting, generic over job
/// key, task key and timestamp.
#[derive(Debug)]
pub struct Scheduler<J, T, S = u64> {
    pending: VecDeque<PendingTask<J, T, S>>,
    policy: Box<dyn ArbitrationPolicy<J, T, S>>,
    workers: usize,
    running: usize,
    next_seq: u64,
    /// Total tasks ever enqueued (for status reporting).
    enqueued_total: u64,
    /// Admission bound on the *pending* set; `None` = unbounded
    /// (the simulated path).
    capacity: Option<usize>,
}

impl<J, T, S> Scheduler<J, T, S> {
    pub fn new(workers: usize, policy: Box<dyn ArbitrationPolicy<J, T, S>>) -> Self {
        assert!(workers > 0);
        Scheduler {
            pending: VecDeque::new(),
            policy,
            workers,
            running: 0,
            next_seq: 0,
            enqueued_total: 0,
            capacity: None,
        }
    }

    pub fn fcfs(workers: usize) -> Self {
        Self::new(workers, Box::new(Fcfs))
    }

    /// Bound the pending set; [`Scheduler::try_enqueue`] then rejects
    /// submissions past the bound with [`QueueFull`].
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0);
        self.capacity = Some(capacity);
        self
    }

    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|cap| self.pending.len() >= cap)
    }

    pub fn running(&self) -> usize {
        self.running
    }

    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total
    }

    /// Admit a task, honoring the capacity bound.
    pub fn try_enqueue(
        &mut self,
        task: T,
        job: J,
        bytes: u64,
        priority: u8,
        submitted: S,
    ) -> Result<(), QueueFull> {
        if let Some(capacity) = self.capacity.filter(|&cap| self.pending.len() >= cap) {
            return Err(QueueFull { capacity });
        }
        self.enqueue_internal(task, job, bytes, priority, submitted);
        Ok(())
    }

    /// Unbounded enqueue (panics if a capacity bound is configured and
    /// exceeded — bounded callers must use [`Scheduler::try_enqueue`]).
    pub fn enqueue(&mut self, task: T, job: J, bytes: u64, priority: u8, submitted: S) {
        self.try_enqueue(task, job, bytes, priority, submitted)
            .expect("enqueue on a full bounded scheduler");
    }

    /// Admit a daemon-internal task past the capacity bound — the
    /// bookkeeping [`Scheduler::try_enqueue`] runs after its admission
    /// check, and the only place `seq` and `enqueued_total` advance.
    /// The bound exists to push back on *clients*; internal work
    /// derived from an already-admitted task (background replication
    /// of a landed stage-out) must not be bounced by it, or a full
    /// queue would silently void a durability guarantee.
    pub fn enqueue_internal(&mut self, task: T, job: J, bytes: u64, priority: u8, submitted: S) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.enqueued_total += 1;
        self.pending.push_back(PendingTask {
            task,
            job,
            bytes,
            priority,
            submitted,
            seq,
        });
    }

    /// Admit an internal *sub-unit* of an already-dispatched task (the
    /// next chunk of a large transfer). Sub-units keep
    /// the parent's `seq`, `job`, `bytes` and `priority`, so every
    /// policy arbitrates them exactly as it arbitrated the parent:
    /// FCFS keeps them at the head of the line (the oldest transfer's
    /// next chunk goes first), job-fair interleaves them with other
    /// jobs' tasks (a huge file cannot monopolize the pool), and SJF
    /// still sees the parent's total size. The capacity bound is *not*
    /// enforced — the parent was already admitted, and refusing a
    /// sub-unit would strand a half-finished transfer — but sub-units
    /// do occupy the pending set, so [`Scheduler::is_full`] reflects
    /// the genuine backlog and admission pushes back on new work while
    /// a large decomposed transfer is queued.
    pub fn enqueue_unit(&mut self, unit: PendingTask<J, T, S>) {
        // Insert in seq order (the queue invariant policies rely on),
        // after any existing entries with the same seq.
        let idx = self
            .pending
            .iter()
            .position(|t| t.seq > unit.seq)
            .unwrap_or(self.pending.len());
        self.pending.insert(idx, unit);
    }

    /// Dispatch the next task if a worker is free. The caller must
    /// later call [`Scheduler::finish`] exactly once per dispatch.
    pub fn dispatch(&mut self) -> Option<PendingTask<J, T, S>> {
        if self.running >= self.workers || self.pending.is_empty() {
            return None;
        }
        let idx = self.policy.pick(&self.pending)?;
        let task = self
            .pending
            .remove(idx)
            .expect("policy returned valid index");
        self.running += 1;
        Some(task)
    }

    /// Would [`Scheduler::dispatch`] return a task right now?
    pub fn can_dispatch(&self) -> bool {
        self.running < self.workers && !self.pending.is_empty()
    }

    /// Mark a previously dispatched task as finished, freeing a worker.
    pub fn finish(&mut self) {
        assert!(self.running > 0, "finish() without a running task");
        self.running -= 1;
    }

    /// Take out the first pending task `pick` matches, if any; the
    /// rest keep their seq order.
    pub fn remove_pending(
        &mut self,
        mut pick: impl FnMut(&T) -> bool,
    ) -> Option<PendingTask<J, T, S>> {
        let idx = self.pending.iter().position(|t| pick(&t.task))?;
        self.pending.remove(idx)
    }

    /// Take out every pending task, in seq order (a stopping pool's
    /// leftovers). Running slots are untouched.
    pub fn drain_pending(&mut self) -> Vec<PendingTask<J, T, S>> {
        self.pending.drain(..).collect()
    }
}

impl<J, T: PartialEq, S> Scheduler<J, T, S> {
    /// Drop a pending task (e.g. job cancelled before it started).
    pub fn cancel_pending(&mut self, task: T) -> bool {
        self.remove_pending(|t| *t == task).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(task: u64, job: u64, bytes: u64, seq: u64) -> PendingTask<u64, u64, u64> {
        PendingTask {
            task,
            job,
            bytes,
            priority: DEFAULT_PRIORITY,
            submitted: 0,
            seq,
        }
    }

    fn sched(workers: usize) -> Scheduler<u64, u64, u64> {
        Scheduler::fcfs(workers)
    }

    #[test]
    fn fcfs_picks_in_submission_order() {
        let mut q = sched(1);
        q.enqueue(1, 1, 100, DEFAULT_PRIORITY, 0);
        q.enqueue(2, 1, 10, DEFAULT_PRIORITY, 0);
        assert_eq!(q.dispatch().unwrap().task, 1);
        // Worker busy: no more dispatches.
        assert!(q.dispatch().is_none());
        q.finish();
        assert_eq!(q.dispatch().unwrap().task, 2);
    }

    #[test]
    fn sjf_picks_smallest_and_breaks_ties_by_seq() {
        let mut policy = ShortestFirst;
        let pending: VecDeque<_> =
            vec![pt(1, 1, 500, 0), pt(2, 1, 50, 1), pt(3, 1, 5000, 2)].into();
        assert_eq!(policy.pick(&pending), Some(1));
        let pending: VecDeque<_> = vec![pt(9, 1, 100, 5), pt(4, 1, 100, 2)].into();
        assert_eq!(policy.pick(&pending), Some(1), "equal bytes → earliest seq");
    }

    #[test]
    fn fair_share_alternates_jobs() {
        let mut q: Scheduler<u64, u64, u64> = Scheduler::new(4, Box::new(JobFairShare::default()));
        // Job 1 floods, job 2 submits one task late.
        q.enqueue(1, 1, 1, DEFAULT_PRIORITY, 0);
        q.enqueue(2, 1, 1, DEFAULT_PRIORITY, 0);
        q.enqueue(3, 1, 1, DEFAULT_PRIORITY, 0);
        q.enqueue(4, 2, 1, DEFAULT_PRIORITY, 0);
        assert_eq!(q.dispatch().unwrap().task, 1);
        // Next pick must prefer job 2 even though job 1 queued earlier.
        assert_eq!(q.dispatch().unwrap().task, 4);
        assert_eq!(q.dispatch().unwrap().task, 2);
        assert_eq!(q.dispatch().unwrap().task, 3);
    }

    #[test]
    fn weighted_priority_prefers_urgent() {
        let mut q: Scheduler<u64, u64, u64> =
            Scheduler::new(1, Box::new(WeightedPriority::default()));
        q.enqueue(1, 1, 1, 10, 0);
        q.enqueue(2, 1, 1, 200, 0);
        q.enqueue(3, 1, 1, 10, 0);
        assert_eq!(
            q.dispatch().unwrap().task,
            2,
            "high priority jumps the queue"
        );
        q.finish();
        assert_eq!(q.dispatch().unwrap().task, 1, "equal priority → FCFS");
    }

    #[test]
    fn weighted_priority_ages_out_starvation() {
        let mut policy = WeightedPriority::new(4);
        // One old low-priority task vs a newer high-priority one; with
        // enough age the old task must win: Δprio = 1 ⇒ overtake after
        // 4 newer submissions.
        let mut pending: VecDeque<PendingTask<u64, u64, u64>> = VecDeque::new();
        pending.push_back(PendingTask {
            task: 1,
            job: 1,
            bytes: 1,
            priority: 9,
            submitted: 0,
            seq: 0,
        });
        pending.push_back(PendingTask {
            task: 2,
            job: 1,
            bytes: 1,
            priority: 10,
            submitted: 0,
            seq: 6,
        });
        assert_eq!(
            ArbitrationPolicy::<u64, u64, u64>::pick(&mut policy, &pending),
            Some(0),
            "aged task overtakes"
        );
        pending[0].seq = 4; // only 2 submissions of age difference
        assert_eq!(
            ArbitrationPolicy::<u64, u64, u64>::pick(&mut policy, &pending),
            Some(1),
            "fresh tasks follow priority"
        );
    }

    #[test]
    fn worker_limit_respected() {
        let mut q = sched(2);
        for i in 0..5 {
            q.enqueue(i, 0, 1, DEFAULT_PRIORITY, 0);
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
    fn bounded_scheduler_rejects_when_full() {
        let mut q = sched(1).with_capacity(2);
        assert!(q.try_enqueue(1, 0, 1, DEFAULT_PRIORITY, 0).is_ok());
        assert!(q.try_enqueue(2, 0, 1, DEFAULT_PRIORITY, 0).is_ok());
        assert_eq!(
            q.try_enqueue(3, 0, 1, DEFAULT_PRIORITY, 0),
            Err(QueueFull { capacity: 2 })
        );
        // Dispatching frees pending space (the task moves to running).
        assert!(q.dispatch().is_some());
        assert!(q.try_enqueue(3, 0, 1, DEFAULT_PRIORITY, 0).is_ok());
    }

    #[test]
    fn cancel_pending_removes() {
        let mut q = sched(1);
        q.enqueue(1, 0, 1, DEFAULT_PRIORITY, 0);
        q.enqueue(2, 0, 1, DEFAULT_PRIORITY, 0);
        assert!(q.cancel_pending(2));
        assert!(!q.cancel_pending(2));
        assert_eq!(q.dispatch().unwrap().task, 1);
        assert!(q.dispatch().is_none());
    }

    #[test]
    fn remove_pending_takes_only_the_match_and_keeps_seq_order() {
        let mut q = sched(1).with_capacity(4);
        for task in 1..=4 {
            q.try_enqueue(task, task % 2, 1, DEFAULT_PRIORITY, 0)
                .unwrap();
        }
        assert!(q.is_full());
        let taken = q.remove_pending(|t| *t == 2).unwrap();
        assert_eq!((taken.task, taken.job, taken.seq), (2, 0, 1));
        assert!(q.remove_pending(|t| *t == 2).is_none(), "taken once");
        assert!(q.remove_pending(|t| *t > 9).is_none());
        // Its slot is free again, and nothing else moved.
        assert_eq!(q.pending_len(), 3);
        assert!(!q.is_full());
        assert_eq!(q.enqueued_total(), 4);
        q.try_enqueue(5, 0, 1, DEFAULT_PRIORITY, 0).unwrap();
        let mut order = Vec::new();
        while let Some(t) = q.dispatch() {
            order.push((t.task, t.seq));
            q.finish();
        }
        assert_eq!(order, vec![(1, 0), (3, 2), (4, 3), (5, 4)]);
    }

    #[test]
    fn drain_pending_returns_every_entry_in_seq_order() {
        let mut q = sched(1).with_capacity(3);
        for task in 1..=3 {
            q.try_enqueue(task, 0, 1, DEFAULT_PRIORITY, 0).unwrap();
        }
        let running = q.dispatch().unwrap();
        q.enqueue_unit(PendingTask {
            task: 10,
            ..running
        });
        let drained: Vec<(u64, u64)> = q.drain_pending().iter().map(|t| (t.task, t.seq)).collect();
        assert_eq!(drained, vec![(10, 0), (2, 1), (3, 2)]);
        assert_eq!(q.pending_len(), 0);
        assert!(q.dispatch().is_none());
        // The dispatched task still holds its slot; the bound is whole again.
        assert_eq!((q.running(), q.enqueued_total()), (1, 3));
        for task in 4..=6 {
            q.try_enqueue(task, 0, 1, DEFAULT_PRIORITY, 0).unwrap();
        }
        assert!(q.is_full());
        q.finish();
        assert_eq!(q.dispatch().unwrap().task, 4);
    }

    #[test]
    fn a_task_that_is_its_work_needs_no_copy() {
        // The daemon queues its work itself: no `Copy`, no key.
        let mut q: Scheduler<u64, Vec<u8>, u64> = Scheduler::fcfs(1);
        q.enqueue(vec![1], 0, 1, DEFAULT_PRIORITY, 0);
        q.enqueue(vec![2, 2], 0, 2, DEFAULT_PRIORITY, 0);
        assert_eq!(q.remove_pending(|w| w.len() == 2).unwrap().task, vec![2, 2]);
        assert_eq!(q.dispatch().unwrap().task, vec![1]);
    }

    #[test]
    fn units_keep_fcfs_head_of_line() {
        let mut q = sched(2);
        q.enqueue(1, 1, 100, DEFAULT_PRIORITY, 0);
        q.enqueue(2, 1, 1, DEFAULT_PRIORITY, 0);
        let parent = q.dispatch().unwrap();
        assert_eq!(parent.task, 1);
        // Task 1 splits into sub-units; they inherit its seq and must
        // dispatch before the later task 2.
        q.enqueue_unit(PendingTask { task: 10, ..parent });
        q.enqueue_unit(PendingTask { task: 11, ..parent });
        assert_eq!(q.dispatch().unwrap().task, 10);
        q.finish();
        assert_eq!(q.dispatch().unwrap().task, 11);
        q.finish();
        assert_eq!(q.dispatch().unwrap().task, 2);
    }

    #[test]
    fn units_interleave_with_other_jobs_under_fair_share() {
        let mut q: Scheduler<u64, u64, u64> = Scheduler::new(1, Box::new(JobFairShare::default()));
        q.enqueue(1, 1, 1 << 30, DEFAULT_PRIORITY, 0);
        q.enqueue(2, 2, 1, DEFAULT_PRIORITY, 0);
        q.enqueue(3, 2, 1, DEFAULT_PRIORITY, 0);
        let parent = q.dispatch().unwrap();
        assert_eq!(parent.task, 1);
        q.finish();
        // Job 1's huge transfer decomposes into chunks; job-fair must
        // still alternate jobs instead of draining all of job 1.
        q.enqueue_unit(PendingTask { task: 10, ..parent });
        q.enqueue_unit(PendingTask { task: 11, ..parent });
        let mut order = Vec::new();
        while let Some(t) = q.dispatch() {
            order.push(t.task);
            q.finish();
        }
        assert_eq!(order, vec![2, 10, 3, 11], "chunks interleave with job 2");
    }

    #[test]
    fn units_bypass_capacity_but_count_toward_backlog() {
        let mut q = sched(1).with_capacity(1);
        q.enqueue(1, 0, 1, DEFAULT_PRIORITY, 0);
        let parent = q.dispatch().unwrap();
        q.enqueue_unit(PendingTask { task: 10, ..parent });
        q.enqueue_unit(PendingTask { task: 11, ..parent });
        assert_eq!(q.pending_len(), 2, "units never rejected");
        assert!(q.is_full(), "backlog pressure visible to admission");
        assert_eq!(
            q.try_enqueue(2, 0, 1, DEFAULT_PRIORITY, 0),
            Err(QueueFull { capacity: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "finish() without")]
    fn finish_without_dispatch_panics() {
        let mut q = sched(1);
        q.finish();
    }

    #[test]
    fn counters() {
        let mut q = sched(8);
        for i in 0..3 {
            q.enqueue(i, 0, 1, DEFAULT_PRIORITY, 0);
        }
        assert_eq!(q.enqueued_total(), 3);
        assert_eq!(q.policy_name(), "fcfs");
        assert_eq!(q.workers(), 8);
        assert!(q.can_dispatch());
    }
}
