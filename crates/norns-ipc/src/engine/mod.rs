//! The daemon's task engine: registries, validation, a bounded
//! policy-driven dispatch queue and a worker pool executing real
//! filesystem transfers.
//!
//! This is the real-I/O counterpart of the simulated urd: dataspaces
//! map to directories on the host filesystem, `process memory ⇒ local
//! path` writes an actual buffer, `local ⇒ local` moves real bytes.
//!
//! The engine separates a **control plane** from a **data plane**:
//!
//! * Control plane — admission, arbitration and observation. Task
//!   arbitration is shared with the simulated urd via
//!   [`norns_sched::Scheduler`] behind a mutex+condvar; the pending
//!   set is **bounded** (submissions past the capacity are rejected
//!   with [`ErrorCode::Busy`], EAGAIN-style). Task state lives in a
//!   sharded table ([`shard`]) whose id-keyed shards keep traffic on
//!   different tasks off one lock. Every wait — the blocking
//!   [`Engine::wait`] / [`Engine::wait_any`] and the reactor's
//!   callback waits alike — is a subscription in one registry keyed
//!   by task id, so a completion wakes exactly its own waiters.
//!   User-socket admission checks go through an O(1) `pid → job`
//!   reverse index instead of a scan over all jobs.
//! * Data plane — [`transfer`]: transfers larger than the configured
//!   chunk size are decomposed into chunk *sub-units* fed back through
//!   the scheduler, so several workers cooperate on one file (and,
//!   under fair-share, a huge file cannot monopolize the pool); byte
//!   ranges move zero-copy via `copy_file_range` with a pooled-buffer
//!   fallback; `Move` degrades to `rename()` when source and
//!   destination share a filesystem; and a per-task atomic advances
//!   `bytes_moved` live, making `query()` a real progress API.
//! * Remote staging — [`remote`]: tasks whose input or output is a
//!   [`ResourceDesc::RemotePath`] route through the peer registry
//!   (`RemotePath.host` → data-plane TCP address) and stream file
//!   ranges to or from the peer daemon, reusing the same chunk
//!   sub-unit machinery, live progress atomic and mid-stream cancel.

mod remote;
mod shard;
mod transfer;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use norns_proto::{
    DaemonStatus, DataspaceDesc, Durability, ErrorCode, JobDesc, ResourceDesc, TaskOp, TaskSpec,
    TaskState, TaskStats,
};
use norns_sched::{
    ArbitrationPolicy, Fcfs, JobFairShare, PendingTask, Scheduler, ShortestFirst, WeightedPriority,
};

pub use remote::{DEFAULT_REMOTE_WINDOW, MAX_REMOTE_WINDOW};
pub use shard::DEFAULT_SHARDS;
pub use transfer::{DEFAULT_CHUNK_SIZE, MIN_CHUNK_SIZE};

use remote::RemoteTransfer;
use shard::{ShardedTaskTable, TaskEntry};
use transfer::{copy_tree, map_io, ChunkedCopy, PlanOutcome, TransferPlan};

/// Default bound on the pending task set.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Id space for internal chunk sub-units: disjoint from task ids (which
/// are allocated densely from 1), so a sub-unit key can never collide
/// with — or be mistaken for — a client-visible task.
const UNIT_ID_BASE: u64 = 1 << 62;

/// Owner / scheduler-job key for daemon-internal replica push tasks
/// (v8 durability modes). No client scheduler key can ever equal it
/// (control-path job ids and tagged user pids are both far below), so
/// user-socket observation and cancellation can never touch a replica.
const REPLICA_OWNER: u64 = u64::MAX;

/// How long `shutdown` lets the background replication queue drain
/// before cancelling what is left. Bounded: a dead peer must not wedge
/// daemon teardown, but an orderly shutdown should not strand
/// `local_plus_one` copies that are seconds from landing.
const REPLICATION_DRAIN: Duration = Duration::from_secs(2);

/// Policy trait object over the real daemon's key types: job id, task
/// id, and microseconds-since-start as the timestamp.
pub type IpcPolicy = Box<dyn ArbitrationPolicy<u64, u64, u64>>;

/// Named arbitration policies selectable in a [`crate::DaemonConfig`]
/// (the trait objects themselves are not `Clone`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    #[default]
    Fcfs,
    ShortestFirst,
    JobFairShare,
    WeightedPriority,
}

impl PolicyKind {
    pub fn to_policy(self) -> IpcPolicy {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs),
            PolicyKind::ShortestFirst => Box::new(ShortestFirst),
            PolicyKind::JobFairShare => Box::new(JobFairShare::default()),
            PolicyKind::WeightedPriority => Box::new(WeightedPriority::default()),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::ShortestFirst => "sjf",
            PolicyKind::JobFairShare => "job-fair",
            PolicyKind::WeightedPriority => "weighted-priority",
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "fcfs" => PolicyKind::Fcfs,
            "sjf" | "shortest-first" => PolicyKind::ShortestFirst,
            "job-fair" | "fair" => PolicyKind::JobFairShare,
            "weighted-priority" | "priority" => PolicyKind::WeightedPriority,
            other => return Err(format!("unknown policy {other:?}")),
        })
    }
}

/// Engine tuning knobs (see README § data plane).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing transfers.
    pub workers: usize,
    /// Bound on the pending task set (admission control).
    pub queue_capacity: usize,
    /// Transfers larger than this are decomposed into chunk sub-units;
    /// clamped to at least [`MIN_CHUNK_SIZE`].
    pub chunk_size: u64,
    /// Range requests each worker keeps in flight per data-plane
    /// connection during remote staging; `1` is stop-and-wait, clamped
    /// to `1..=`[`MAX_REMOTE_WINDOW`](crate::MAX_REMOTE_WINDOW).
    pub remote_window: usize,
    /// Peers a [`Durability::Synchronous`] stage-out replicates to
    /// before it ACKs (clamped to at least 1; capped by the number of
    /// registered peers). `local_plus_one` always makes one copy.
    pub target_copies: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            chunk_size: DEFAULT_CHUNK_SIZE,
            remote_window: DEFAULT_REMOTE_WINDOW,
            target_copies: 1,
        }
    }
}

/// Payload behind one dispatchable scheduler entry.
enum Work {
    /// An undecomposed task: the validated spec, plus the caller's
    /// buffer for memory-region transfers.
    Whole {
        spec: TaskSpec,
        payload: Option<Vec<u8>>,
    },
    /// One sub-unit of a decomposed transfer (local chunked copy or
    /// remote staging).
    Chunk(Arc<dyn TransferPlan>),
}

#[derive(Default)]
struct Registry {
    dataspaces: HashMap<String, DataspaceDesc>,
    /// nsid → backing directory.
    mounts: HashMap<String, PathBuf>,
    jobs: HashMap<u64, JobDesc>,
    /// (job, pid) pairs registered via `add_process`.
    processes: HashMap<u64, Vec<u64>>,
    /// Reverse index pid → jobs, mirroring `processes`: user-socket
    /// admission (`process_known` / `process_registered`) is a hash
    /// lookup, not a scan over every registered job.
    pid_jobs: HashMap<u64, Vec<u64>>,
    /// Peer registry: `RemotePath.host` → data-plane TCP address.
    peers: HashMap<String, String>,
}

/// Pending work behind the dispatch mutex: the shared scheduler holds
/// the arbitration order, `work` the payloads it arbitrates over.
struct DispatchState {
    sched: Scheduler<u64, u64, u64>,
    work: HashMap<u64, Work>,
    stop: bool,
}

/// What one dispatched whole task turned into.
enum Outcome {
    /// Completed inline on this worker; bytes moved.
    Done(u64),
    /// Decomposed into a chunked or remote transfer; sub-units must be
    /// enqueued.
    Chunked(Arc<dyn TransferPlan>),
}

/// Callback behind a parked wait: invoked exactly once — from the
/// worker thread that drives the terminal transition, from whichever
/// thread resolves the timeout, or inline from the subscribing thread
/// when the wait can resolve immediately. Callbacks must be quick and
/// non-blocking (the reactor's pushes a completion into a queue and
/// wakes an epoll loop; the blocking calls' sends into a channel).
pub type WaitCallback = Box<dyn FnOnce(Result<(u64, TaskStats), (ErrorCode, String)>) + Send>;

/// Timeout semantics differ between the two wait ops: an expired
/// `WaitTask` returns the in-flight snapshot, an expired `WaitAny` is
/// [`ErrorCode::Timeout`].
enum WaitKind {
    Single,
    Any,
}

/// One parked wait.
struct WaitSub {
    kind: WaitKind,
    task_ids: Vec<u64>,
    callback: WaitCallback,
}

/// Registry of parked waits. `by_task` is the inverted index a
/// terminal transition consults; removal from `subs` under the lock is
/// what guarantees each callback fires exactly once even when a
/// completion, a timeout and an unsubscribe race.
#[derive(Default)]
struct WaitSubs {
    next_id: u64,
    subs: HashMap<u64, WaitSub>,
    by_task: HashMap<u64, Vec<u64>>,
}

/// Deadline heap behind the lazily-spawned wait-timer thread.
#[derive(Default)]
struct WaitTimer {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    stop: bool,
}

/// Replication a qualifying stage-out asked for at submission,
/// held until its local leg lands (v8 durability modes).
struct ReplRequest {
    durability: Durability,
    /// The landed local output (`nsid://path`) — the source every
    /// replica pushes, and the name it lands under on each peer.
    nsid: String,
    path: String,
    priority: u8,
}

/// Accounting for one in-flight replica push task.
struct ReplicaMeta {
    parent: u64,
    bytes: u64,
}

/// A `synchronous`-mode parent whose local leg landed but whose
/// terminal transition is deferred until every replica resolves. The
/// parent stays `InProgress` (and keeps its running-count slot) so no
/// observer can see an ACK before the durability guarantee holds.
struct SyncParent {
    remaining: usize,
    bytes_moved: u64,
    elapsed_usec: u64,
    /// First replica failure, if any — a single failed copy fails the
    /// parent (`synchronous` promises *all* copies).
    error: Option<(ErrorCode, String)>,
}

/// Ledger of the background replication queue. Entries are registered
/// *before* a replica becomes dispatchable and removed at its terminal
/// transition, so the lag counters and parent resolution can never
/// race a fast completion.
#[derive(Default)]
struct ReplState {
    /// Submitted-task id → replication request (consumed when the
    /// local leg reaches `complete_task`).
    requests: HashMap<u64, ReplRequest>,
    /// Replica task id → accounting.
    replicas: HashMap<u64, ReplicaMeta>,
    /// Deferred `synchronous` parents awaiting their replicas.
    parents: HashMap<u64, SyncParent>,
}

/// How a copy task's endpoints route through the data plane.
enum Route {
    /// Both endpoints on this node.
    Local,
    /// `RemotePath` input → local output: fetch from the peer.
    Pull { host: String },
    /// Local input → `RemotePath` output: send to the peer.
    Push { host: String },
}

/// Shared daemon state.
pub struct Engine {
    registry: Mutex<Registry>,
    tasks: ShardedTaskTable,
    dispatch: Mutex<DispatchState>,
    dispatch_cv: Condvar,
    next_task: AtomicU64,
    next_unit: AtomicU64,
    /// O(1) status counters, updated at every task state transition
    /// (`status()` must not scan the whole task table — it is polled).
    pending_count: AtomicU64,
    running_count: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    /// High-water mark of workers simultaneously copying chunks of one
    /// transfer — observability for the `ablation_chunk` bench.
    peak_chunk_workers: AtomicU64,
    chunk_size: u64,
    /// Requests kept in flight per data-plane connection (remote
    /// staging); 1 = stop-and-wait.
    remote_window: usize,
    /// Advertised data-plane address (set by the daemon once its TCP
    /// listener is bound; empty on engines without a data plane).
    data_addr: Mutex<String>,
    accepting: AtomicBool,
    /// Set by [`Engine::begin_shutdown`] before the (potentially slow)
    /// teardown in [`Engine::shutdown`] runs: submissions must be
    /// refused from the instant shutdown is decided, not from the
    /// instant the worker pool finishes stopping.
    shutting_down: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
    started_at: Instant,
    /// Parked waits, blocking and callback alike.
    wait_subs: Mutex<WaitSubs>,
    wait_timer: Mutex<WaitTimer>,
    wait_timer_cv: Condvar,
    wait_timer_thread: Mutex<Option<JoinHandle<()>>>,
    /// Listener `accept(2)` failures — maintained by the daemon's
    /// reactor, reported in [`DaemonStatus`] (v7).
    accept_errors: AtomicU64,
    /// Open control/user connections — ditto.
    open_connections: AtomicU64,
    /// Background replication ledger (v8 durability modes).
    repl: Mutex<ReplState>,
    /// Signalled whenever a replica resolves; `shutdown` waits on it
    /// to drain the replication lag before stopping the workers.
    repl_cv: Condvar,
    /// O(1) replication-lag counters for [`DaemonStatus`] (v8):
    /// replica tasks still outstanding, and the bytes they move.
    pending_replicas: AtomicU64,
    pending_replica_bytes: AtomicU64,
    /// Copies a `synchronous` stage-out makes before ACKing.
    target_copies: usize,
}

impl Engine {
    /// Create the engine and its worker pool with the default policy
    /// (FCFS) and knobs.
    pub fn new(workers: usize) -> Arc<Engine> {
        Self::with_config(
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        )
    }

    /// Create the engine with an explicit arbitration policy and
    /// pending-queue capacity (remaining knobs at their defaults).
    pub fn with_policy(workers: usize, capacity: usize, policy: IpcPolicy) -> Arc<Engine> {
        Self::with_config(
            EngineConfig {
                workers,
                queue_capacity: capacity,
                ..EngineConfig::default()
            },
            policy,
        )
    }

    /// Create the engine with the full set of knobs.
    pub fn with_config(config: EngineConfig, policy: IpcPolicy) -> Arc<Engine> {
        let workers = config.workers.max(1);
        let engine = Arc::new(Engine {
            registry: Mutex::new(Registry::default()),
            tasks: ShardedTaskTable::new(),
            dispatch: Mutex::new(DispatchState {
                sched: Scheduler::new(workers, policy).with_capacity(config.queue_capacity),
                work: HashMap::new(),
                stop: false,
            }),
            dispatch_cv: Condvar::new(),
            next_task: AtomicU64::new(1),
            next_unit: AtomicU64::new(UNIT_ID_BASE),
            pending_count: AtomicU64::new(0),
            running_count: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            peak_chunk_workers: AtomicU64::new(0),
            chunk_size: config.chunk_size.max(MIN_CHUNK_SIZE),
            remote_window: config.remote_window.clamp(1, MAX_REMOTE_WINDOW),
            data_addr: Mutex::new(String::new()),
            accepting: AtomicBool::new(true),
            shutting_down: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            started_at: Instant::now(),
            wait_subs: Mutex::new(WaitSubs::default()),
            wait_timer: Mutex::new(WaitTimer::default()),
            wait_timer_cv: Condvar::new(),
            wait_timer_thread: Mutex::new(None),
            accept_errors: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            repl: Mutex::new(ReplState::default()),
            repl_cv: Condvar::new(),
            pending_replicas: AtomicU64::new(0),
            pending_replica_bytes: AtomicU64::new(0),
            target_copies: config.target_copies.max(1),
        });
        let mut handles = engine.workers.lock();
        for i in 0..workers {
            let eng = Arc::clone(&engine);
            let handle = std::thread::Builder::new()
                .name(format!("urd-worker-{i}"))
                .spawn(move || eng.worker_loop())
                .expect("spawn worker thread");
            handles.push(handle);
        }
        drop(handles);
        engine
    }

    /// Stop the worker pool and join every worker thread. Pending
    /// tasks that never ran are marked [`TaskState::Cancelled`]; chunk
    /// sub-units of half-finished transfers are aborted so their tasks
    /// still reach a terminal state. Idempotent; called by `UrdDaemon`
    /// on drop.
    /// Refuse all further client submissions with
    /// [`ErrorCode::SystemError`], ahead of the full teardown in
    /// [`Engine::shutdown`]. The daemon calls this synchronously from
    /// the reactor thread that decoded `DaemonCommand::Shutdown`, so a
    /// pipelined submit behind the shutdown frame can never be
    /// accepted while the join work runs on another thread. Internal
    /// replica tasks are exempt: the replication drain below still
    /// needs them to land.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    pub fn shutdown(&self) {
        self.begin_shutdown();
        // Give the background replication queue a bounded window to
        // drain (v8): an orderly shutdown should not strand
        // `local_plus_one` copies that are about to land, but a dead
        // peer must not wedge teardown — whatever is still pending
        // after the deadline is cancelled by the drain below, which
        // also resolves any deferred `synchronous` parents.
        {
            let mut rp = self.repl.lock();
            let deadline = Instant::now() + REPLICATION_DRAIN;
            while self.pending_replicas.load(Ordering::SeqCst) > 0 {
                if self.repl_cv.wait_until(&mut rp, deadline).timed_out() {
                    break;
                }
            }
        }
        let orphaned: Vec<(u64, Work)> = {
            let mut st = self.dispatch.lock();
            if st.stop {
                Vec::new()
            } else {
                st.stop = true;
                st.work.drain().collect()
            }
        };
        self.dispatch_cv.notify_all();
        for (id, work) in orphaned {
            match work {
                Work::Whole { .. } => self.mark_cancelled(id),
                Work::Chunk(plan) => {
                    if plan.abort_unit("daemon shutdown during transfer") {
                        self.finalize_chunked(&plan);
                    }
                }
            }
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
        // Stop the wait-timer thread, then fail any wait subscription
        // still parked: every task is terminal after the joins above,
        // so leftovers are registration races — they must not dangle
        // past shutdown.
        let timer = {
            let mut tm = self.wait_timer.lock();
            tm.stop = true;
            tm.heap.clear();
            self.wait_timer_thread.lock().take()
        };
        self.wait_timer_cv.notify_all();
        if let Some(handle) = timer {
            let _ = handle.join();
        }
        let leftovers: Vec<WaitSub> = {
            let mut ws = self.wait_subs.lock();
            ws.by_task.clear();
            ws.subs.drain().map(|(_, sub)| sub).collect()
        };
        for sub in leftovers {
            (sub.callback)(Err((ErrorCode::SystemError, "daemon shutting down".into())));
        }
    }

    pub fn set_accepting(&self, on: bool) {
        self.accepting.store(on, Ordering::SeqCst);
    }

    /// Daemon status snapshot — O(1), no task-table scan: the counters
    /// are maintained at state transitions.
    pub fn status(&self) -> DaemonStatus {
        let registry = self.registry.lock();
        DaemonStatus {
            accepting: self.accepting.load(Ordering::SeqCst),
            pending_tasks: self.pending_count.load(Ordering::SeqCst),
            running_tasks: self.running_count.load(Ordering::SeqCst),
            completed_tasks: self.completed.load(Ordering::SeqCst),
            cancelled_tasks: self.cancelled.load(Ordering::SeqCst),
            registered_jobs: registry.jobs.len() as u64,
            registered_dataspaces: registry.dataspaces.len() as u64,
            chunk_size: self.chunk_size,
            data_addr: self.data_addr.lock().clone(),
            accept_errors: self.accept_errors.load(Ordering::SeqCst),
            open_connections: self.open_connections.load(Ordering::SeqCst),
            pending_replicas: self.pending_replicas.load(Ordering::SeqCst),
            pending_replica_bytes: self.pending_replica_bytes.load(Ordering::SeqCst),
        }
    }

    /// Current replication lag as `(replica tasks, bytes)` — zero/zero
    /// once every accepted stage-out's durability guarantee is met.
    pub fn replication_lag(&self) -> (u64, u64) {
        (
            self.pending_replicas.load(Ordering::SeqCst),
            self.pending_replica_bytes.load(Ordering::SeqCst),
        )
    }

    /// Whether the lazily-spawned wait-timer thread slot is occupied
    /// (observability for shutdown-race tests: after `shutdown` the
    /// slot must stay empty forever).
    pub fn wait_timer_alive(&self) -> bool {
        self.wait_timer_thread.lock().is_some()
    }

    /// Record a listener `accept(2)` failure (EMFILE and friends) —
    /// called by the daemon's reactor so storms show up in `status`.
    pub fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::SeqCst);
    }

    /// Accept-failure count since start.
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::SeqCst)
    }

    /// A control/user connection was accepted.
    pub fn conn_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::SeqCst);
    }

    /// A control/user connection was closed.
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::SeqCst);
    }

    /// Currently-open control/user connections.
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::SeqCst)
    }

    /// Name of the active arbitration policy.
    pub fn policy_name(&self) -> &'static str {
        self.dispatch.lock().sched.policy_name()
    }

    /// Tasks cancelled before they ran.
    pub fn cancelled_tasks(&self) -> u64 {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Active data-plane chunk size in bytes.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Requests kept in flight per data-plane connection during remote
    /// staging (1 = stop-and-wait).
    pub fn remote_window(&self) -> usize {
        self.remote_window
    }

    /// High-water mark of workers simultaneously executing chunks of a
    /// single decomposed transfer.
    pub fn peak_chunk_workers(&self) -> u64 {
        self.peak_chunk_workers.load(Ordering::Relaxed)
    }

    // ---- registration ----

    pub fn register_dataspace(&self, desc: DataspaceDesc) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        if reg.dataspaces.contains_key(&desc.nsid) {
            return Err((
                ErrorCode::BadArgs,
                format!("dataspace {} exists", desc.nsid),
            ));
        }
        let mount = PathBuf::from(&desc.mount);
        fs::create_dir_all(&mount)
            .map_err(|e| (ErrorCode::SystemError, format!("mount {}: {e}", desc.mount)))?;
        reg.mounts.insert(desc.nsid.clone(), mount);
        reg.dataspaces.insert(desc.nsid.clone(), desc);
        Ok(())
    }

    pub fn update_dataspace(&self, desc: DataspaceDesc) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        if !reg.dataspaces.contains_key(&desc.nsid) {
            return Err((ErrorCode::NotFound, format!("dataspace {}", desc.nsid)));
        }
        reg.mounts
            .insert(desc.nsid.clone(), PathBuf::from(&desc.mount));
        reg.dataspaces.insert(desc.nsid.clone(), desc);
        Ok(())
    }

    pub fn unregister_dataspace(&self, nsid: &str) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        reg.mounts.remove(nsid);
        reg.dataspaces
            .remove(nsid)
            .map(|_| ())
            .ok_or_else(|| (ErrorCode::NotFound, format!("dataspace {nsid}")))
    }

    pub fn dataspaces(&self) -> Vec<DataspaceDesc> {
        let reg = self.registry.lock();
        let mut v: Vec<_> = reg.dataspaces.values().cloned().collect();
        v.sort_by(|a, b| a.nsid.cmp(&b.nsid));
        v
    }

    pub fn register_job(&self, job: JobDesc) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        for (nsid, _) in &job.limits {
            if !reg.dataspaces.contains_key(nsid) {
                return Err((ErrorCode::NotFound, format!("dataspace {nsid}")));
            }
        }
        if reg.jobs.contains_key(&job.job_id) {
            return Err((ErrorCode::BadArgs, format!("job {} exists", job.job_id)));
        }
        reg.jobs.insert(job.job_id, job);
        Ok(())
    }

    pub fn update_job(&self, job: JobDesc) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        if !reg.jobs.contains_key(&job.job_id) {
            return Err((ErrorCode::NotFound, format!("job {}", job.job_id)));
        }
        reg.jobs.insert(job.job_id, job);
        Ok(())
    }

    pub fn unregister_job(&self, job_id: u64) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        if let Some(pids) = reg.processes.remove(&job_id) {
            for pid in pids {
                if let Some(jobs) = reg.pid_jobs.get_mut(&pid) {
                    if let Some(i) = jobs.iter().position(|j| *j == job_id) {
                        jobs.swap_remove(i);
                    }
                    if jobs.is_empty() {
                        reg.pid_jobs.remove(&pid);
                    }
                }
            }
        }
        reg.jobs
            .remove(&job_id)
            .map(|_| ())
            .ok_or_else(|| (ErrorCode::NotFound, format!("job {job_id}")))
    }

    pub fn add_process(&self, job_id: u64, pid: u64) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        if !reg.jobs.contains_key(&job_id) {
            return Err((ErrorCode::NotFound, format!("job {job_id}")));
        }
        reg.processes.entry(job_id).or_default().push(pid);
        reg.pid_jobs.entry(pid).or_default().push(job_id);
        Ok(())
    }

    pub fn remove_process(&self, job_id: u64, pid: u64) -> Result<(), (ErrorCode, String)> {
        let mut reg = self.registry.lock();
        let procs = reg
            .processes
            .get_mut(&job_id)
            .ok_or_else(|| (ErrorCode::NotFound, format!("job {job_id}")))?;
        let before = procs.len();
        procs.retain(|p| *p != pid);
        if procs.len() == before {
            return Err((ErrorCode::NotFound, format!("process {pid}")));
        }
        if let Some(jobs) = reg.pid_jobs.get_mut(&pid) {
            jobs.retain(|j| *j != job_id);
            if jobs.is_empty() {
                reg.pid_jobs.remove(&pid);
            }
        }
        Ok(())
    }

    /// Does `pid` belong to `job`? (User-socket submissions only.)
    /// O(1) via the reverse index.
    pub fn process_registered(&self, job_id: u64, pid: u64) -> bool {
        let reg = self.registry.lock();
        reg.pid_jobs
            .get(&pid)
            .is_some_and(|jobs| jobs.contains(&job_id))
    }

    /// Is `pid` registered to *any* job? The user socket only accepts
    /// submissions from processes the scheduler registered via
    /// `AddProcess` (paper §IV-B). O(1) via the reverse index — this
    /// runs on every user-socket submission, so it must not scan jobs.
    pub fn process_known(&self, pid: u64) -> bool {
        let reg = self.registry.lock();
        reg.pid_jobs.contains_key(&pid)
    }

    // ---- peer registry (remote staging) ----

    /// Map `host` (as it appears in `RemotePath.host`) to a peer
    /// daemon's data-plane TCP address. Re-registering updates.
    pub fn register_peer(&self, host: impl Into<String>, data_addr: impl Into<String>) {
        self.registry
            .lock()
            .peers
            .insert(host.into(), data_addr.into());
    }

    pub fn unregister_peer(&self, host: &str) -> bool {
        self.registry.lock().peers.remove(host).is_some()
    }

    /// Data-plane address of a registered peer.
    pub fn peer_addr(&self, host: &str) -> Option<String> {
        self.registry.lock().peers.get(host).cloned()
    }

    pub fn peers(&self) -> Vec<(String, String)> {
        let reg = self.registry.lock();
        let mut v: Vec<_> = reg
            .peers
            .iter()
            .map(|(h, a)| (h.clone(), a.clone()))
            .collect();
        v.sort();
        v
    }

    /// Advertise this engine's own data-plane address (shown in
    /// [`DaemonStatus::data_addr`]); called by the daemon after its
    /// TCP listener is bound.
    pub fn set_data_addr(&self, addr: impl Into<String>) {
        *self.data_addr.lock() = addr.into();
    }

    // ---- task lifecycle ----

    /// Resolve a path inside a registered dataspace, enforcing
    /// containment: the path is interpreted strictly relative to the
    /// mount, so neither `..` components nor absolute paths (whose
    /// `RootDir` would make `Path::join` *replace* the mount entirely)
    /// can name anything outside the dataspace. Shared by local task
    /// validation and the remote data-plane server.
    pub(crate) fn resolve_local(
        &self,
        nsid: &str,
        path: &str,
    ) -> Result<PathBuf, (ErrorCode, String)> {
        let reg = self.registry.lock();
        let mount = reg
            .mounts
            .get(nsid)
            .ok_or_else(|| (ErrorCode::NotFound, format!("dataspace {nsid}")))?;
        let rel = Path::new(path);
        if rel.components().any(|c| {
            matches!(
                c,
                std::path::Component::ParentDir
                    | std::path::Component::RootDir
                    | std::path::Component::Prefix(_)
            )
        }) {
            return Err((ErrorCode::PermissionDenied, format!("path escape: {path}")));
        }
        Ok(mount.join(rel))
    }

    /// Enumerate the children of a directory inside a dataspace (the
    /// wire's v6 `ListDir` op): names only, sorted, capped at
    /// [`norns_proto::MAX_DIR_ENTRIES`] — larger directories are
    /// refused rather than silently truncated, so a scatter planner
    /// can never believe it covered a directory it did not. The path
    /// goes through the same containment checks as task submissions;
    /// a non-directory path is [`ErrorCode::BadArgs`].
    pub fn list_dir(&self, nsid: &str, path: &str) -> Result<Vec<String>, (ErrorCode, String)> {
        let local = self.resolve_local(nsid, path)?;
        let meta = fs::metadata(&local).map_err(map_io)?;
        if !meta.is_dir() {
            return Err((
                ErrorCode::BadArgs,
                format!("{nsid}://{path} is not a directory"),
            ));
        }
        let mut names = Vec::new();
        for entry in fs::read_dir(&local).map_err(map_io)? {
            let entry = entry.map_err(map_io)?;
            if names.len() >= norns_proto::MAX_DIR_ENTRIES {
                return Err((
                    ErrorCode::BadArgs,
                    format!(
                        "{nsid}://{path} has more than {} entries",
                        norns_proto::MAX_DIR_ENTRIES
                    ),
                ));
            }
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn resolve(&self, r: &ResourceDesc) -> Result<PathBuf, (ErrorCode, String)> {
        match r {
            ResourceDesc::PosixPath { nsid, path } => self.resolve_local(nsid, path),
            ResourceDesc::RemotePath { .. } => Err((
                ErrorCode::BadArgs,
                "remote endpoint has no local path (routing bug)".into(),
            )),
            ResourceDesc::MemoryRegion { .. } => {
                Err((ErrorCode::BadArgs, "memory region has no path".into()))
            }
        }
    }

    /// Classify a copy/move task's endpoints. Rejects the remote
    /// combinations the data plane does not speak.
    fn route_of(spec: &TaskSpec) -> Result<Route, (ErrorCode, String)> {
        let out_host = match &spec.output {
            Some(ResourceDesc::RemotePath { host, .. }) => Some(host.clone()),
            _ => None,
        };
        match (&spec.input, out_host) {
            (ResourceDesc::RemotePath { .. }, Some(_)) => Err((
                ErrorCode::BadArgs,
                "remote-to-remote relay is not supported; stage through a local dataspace".into(),
            )),
            (ResourceDesc::RemotePath { host, .. }, None) => Ok(Route::Pull { host: host.clone() }),
            (ResourceDesc::MemoryRegion { .. }, Some(_)) => Err((
                ErrorCode::BadArgs,
                "memory → remote staging is not supported; stage to a local dataspace first".into(),
            )),
            (_, Some(host)) => Ok(Route::Push { host }),
            (_, None) => Ok(Route::Local),
        }
    }

    /// The remote (host, nsid, path) triple of a routed spec.
    fn remote_endpoint(spec: &TaskSpec, route: &Route) -> (String, String) {
        let endpoint = match route {
            Route::Pull { .. } => &spec.input,
            Route::Push { .. } => spec.output.as_ref().expect("push has an output"),
            Route::Local => unreachable!("local routes have no remote endpoint"),
        };
        match endpoint {
            ResourceDesc::RemotePath { nsid, path, .. } => (nsid.clone(), path.clone()),
            _ => unreachable!("remote routes have a RemotePath endpoint"),
        }
    }

    /// Validate and enqueue a task for `job`; returns its id.
    /// `payload` carries the caller's buffer for memory-to-path
    /// transfers (the wire protocol ships the bytes; the real C API
    /// uses `process_vm_readv`).
    ///
    /// Admission control: rejects with [`ErrorCode::NotRegistered`]
    /// while paused, and with [`ErrorCode::Busy`] when the bounded
    /// pending queue is full.
    pub fn submit(
        &self,
        job: u64,
        spec: TaskSpec,
        payload: Option<Vec<u8>>,
    ) -> Result<u64, (ErrorCode, String)> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err((ErrorCode::SystemError, "daemon shutting down".into()));
        }
        if !self.accepting.load(Ordering::SeqCst) {
            return Err((ErrorCode::NotRegistered, "daemon paused".into()));
        }
        // Shape validation mirrors the simulated controller.
        let mut bytes_total = 0u64;
        // Durability modes (v8) only make sense for a local stage-out:
        // the landed output file is what the background queue pushes.
        // Everything else must say `local_only` explicitly.
        if spec.durability != Durability::LocalOnly
            && !(spec.op == TaskOp::Copy
                && matches!(Self::route_of(&spec), Ok(Route::Local))
                && matches!(spec.output, Some(ResourceDesc::PosixPath { .. })))
        {
            return Err((
                ErrorCode::BadArgs,
                "durability modes apply only to local copy tasks with a dataspace-path output"
                    .into(),
            ));
        }
        match spec.op {
            TaskOp::Remove => {
                if spec.output.is_some() {
                    return Err((ErrorCode::BadArgs, "remove takes no output".into()));
                }
                if matches!(spec.input, ResourceDesc::RemotePath { .. }) {
                    return Err((
                        ErrorCode::BadArgs,
                        "remote remove is not supported; submit it on the owning daemon".into(),
                    ));
                }
                self.resolve(&spec.input)?;
            }
            _ => {
                let out = spec.output.as_ref().ok_or((
                    ErrorCode::BadArgs,
                    "copy/move require an output".to_string(),
                ))?;
                match Self::route_of(&spec)? {
                    ref route @ (Route::Pull { ref host } | Route::Push { ref host }) => {
                        // Remote staging is copy-only: a cross-node
                        // `Move` would need a remote unlink the data
                        // plane does not speak.
                        if spec.op != TaskOp::Copy {
                            return Err((
                                ErrorCode::BadArgs,
                                "only copy tasks may cross nodes; stage a copy and remove the \
                                 source separately"
                                    .into(),
                            ));
                        }
                        // Unknown peers are a submission error, not a
                        // task failure: fail fast with NotFound.
                        self.peer_addr(host).ok_or_else(|| {
                            (
                                ErrorCode::NotFound,
                                format!("unknown peer {host:?}; register it first"),
                            )
                        })?;
                        if matches!(route, Route::Pull { .. }) {
                            // Local destination must resolve; the
                            // remote size is only known once a
                            // worker probes the peer, so the
                            // estimate stays 0 ("unknown" to SJF).
                            self.resolve(out)?;
                        } else {
                            let src = self.resolve(&spec.input)?;
                            let meta = fs::metadata(&src).map_err(map_io)?;
                            if meta.is_dir() {
                                return Err((
                                    ErrorCode::BadArgs,
                                    "directory trees cannot be staged to a remote node".into(),
                                ));
                            }
                            bytes_total = meta.len();
                        }
                    }
                    Route::Local => {
                        // Resolved once; reused for the nesting check below.
                        let dst = self.resolve(out)?;
                        match &spec.input {
                            ResourceDesc::MemoryRegion { size, .. } => {
                                let got = payload.as_ref().map(|p| p.len() as u64).unwrap_or(0);
                                if got != *size {
                                    return Err((
                                        ErrorCode::BadArgs,
                                        format!("memory payload {got} != declared size {size}"),
                                    ));
                                }
                                bytes_total = *size;
                            }
                            other => {
                                let src = self.resolve(other)?;
                                // A destination equal to or inside the source
                                // would make the recursive copy re-copy its own
                                // output forever (dst appears in src's listing)
                                // and blow the worker's stack.
                                if dst.starts_with(&src) {
                                    return Err((
                                        ErrorCode::BadArgs,
                                        format!(
                                            "destination {} is inside source {}",
                                            dst.display(),
                                            src.display()
                                        ),
                                    ));
                                }
                                // Size estimate feeds size-aware policies (SJF);
                                // directories and races degrade to "unknown" (a
                                // dirent's own length would invert SJF for tree
                                // copies).
                                bytes_total = fs::metadata(&src)
                                    .map(|m| if m.is_dir() { 0 } else { m.len() })
                                    .unwrap_or(0);
                            }
                        }
                    }
                }
            }
        }
        let task_id = self.next_task.fetch_add(1, Ordering::SeqCst);
        let priority = spec.priority;
        let now_us = self.started_at.elapsed().as_micros() as u64;
        // Register the replication request before the task can become
        // dispatchable: a fast worker must find it when the local leg
        // reaches `complete_task`. Rejected admissions take it back.
        if spec.durability != Durability::LocalOnly {
            if let Some(ResourceDesc::PosixPath { nsid, path }) = &spec.output {
                self.repl.lock().requests.insert(
                    task_id,
                    ReplRequest {
                        durability: spec.durability,
                        nsid: nsid.clone(),
                        path: path.clone(),
                        priority,
                    },
                );
            }
        }
        {
            // Admission before the task becomes visible: a Busy
            // rejection must leave no trace in the task table.
            let mut st = self.dispatch.lock();
            if st.stop {
                drop(st);
                self.repl.lock().requests.remove(&task_id);
                return Err((ErrorCode::SystemError, "worker pool stopped".into()));
            }
            st.sched
                .try_enqueue(task_id, job, bytes_total, priority, now_us)
                .map_err(|full| {
                    self.repl.lock().requests.remove(&task_id);
                    (ErrorCode::Busy, format!("{full}; retry later (EAGAIN)"))
                })?;
            st.work.insert(task_id, Work::Whole { spec, payload });
            self.tasks.insert(
                task_id,
                TaskEntry {
                    stats: TaskStats {
                        state: TaskState::Pending,
                        error: ErrorCode::Success,
                        bytes_total,
                        bytes_moved: 0,
                        wait_usec: 0,
                        elapsed_usec: 0,
                    },
                    submitted_at: Instant::now(),
                    owner: job,
                    error_message: None,
                    progress: Arc::new(AtomicU64::new(0)),
                    abort: Arc::new(AtomicBool::new(false)),
                    abortable: false,
                },
            );
            self.pending_count.fetch_add(1, Ordering::SeqCst);
        }
        self.dispatch_cv.notify_one();
        Ok(task_id)
    }

    /// May `requester` observe or revoke this task? `None` (the
    /// administrative control API) may touch anything; user-socket
    /// callers are scoped to their own submissions — wait, query and
    /// cancel all enforce the same ownership rule, so one job cannot
    /// even watch another's transfers.
    ///
    /// Checking the task table also shields the scheduler's internal
    /// chunk sub-units (which carry their own scheduler keys but no
    /// table entry): yanking one would leave its parent transfer a
    /// chunk short of finalizing.
    fn check_owner(&self, task_id: u64, requester: Option<u64>) -> Result<(), (ErrorCode, String)> {
        match self.tasks.read(task_id, |t| t.owner) {
            None => Err((ErrorCode::NotFound, format!("task {task_id}"))),
            Some(owner) => {
                if requester.is_some_and(|who| owner != who) {
                    Err((
                        ErrorCode::PermissionDenied,
                        format!("task {task_id} belongs to another submitter"),
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Cancel a task. Still-pending tasks are dropped before they run;
    /// in-progress *decomposed* transfers (chunked copies and remote
    /// staging) are interrupted mid-stream via their abort flag and
    /// finish `Cancelled` with partial progress cleaned up. Running
    /// tasks without abort points and finished tasks are refused.
    ///
    /// `requester`: `None` for the administrative control API; the
    /// submitter key for user-socket callers, who may only cancel
    /// their own tasks.
    pub fn cancel(&self, task_id: u64, requester: Option<u64>) -> Result<(), (ErrorCode, String)> {
        self.check_owner(task_id, requester)?;
        let removed = {
            let mut st = self.dispatch.lock();
            if st.sched.cancel_pending(task_id) {
                st.work.remove(&task_id);
                true
            } else {
                false
            }
        };
        if removed {
            self.mark_cancelled(task_id);
            return Ok(());
        }
        // Not pending: an in-progress decomposed transfer can still be
        // interrupted — its units observe the abort flag between chunk
        // ranges / wire round-trips.
        let aborted = self
            .tasks
            .read(task_id, |t| {
                if t.stats.state == TaskState::InProgress && t.abortable {
                    t.abort.store(true, Ordering::SeqCst);
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false);
        if aborted {
            return Ok(());
        }
        match self.query(task_id) {
            None => Err((ErrorCode::NotFound, format!("task {task_id}"))),
            Some(stats) if stats.state == TaskState::InProgress => Err((
                ErrorCode::TaskError,
                format!("task {task_id} already running"),
            )),
            // A worker can hold the task between dispatch and the
            // InProgress transition; the table still says Pending.
            Some(stats) if stats.state == TaskState::Pending => Err((
                ErrorCode::TaskError,
                format!("task {task_id} is being dispatched"),
            )),
            Some(_) => Err((
                ErrorCode::TaskError,
                format!("task {task_id} already finished"),
            )),
        }
    }

    /// Transition a pending task to `Cancelled` and notify its
    /// waiters. Counters move inside the shard-locked closure, before
    /// the notification: anyone it unblocks must already see them
    /// updated.
    fn mark_cancelled(&self, task_id: u64) {
        let stats = self
            .tasks
            .update(task_id, |t| {
                if t.stats.state == TaskState::Pending {
                    t.stats.state = TaskState::Cancelled;
                    t.stats.wait_usec = t.submitted_at.elapsed().as_micros() as u64;
                    self.pending_count.fetch_sub(1, Ordering::SeqCst);
                    self.cancelled.fetch_add(1, Ordering::SeqCst);
                    Some(t.stats.clone())
                } else {
                    None
                }
            })
            .flatten();
        if let Some(stats) = stats {
            // A cancelled-before-running stage-out replicates nothing;
            // a cancelled *replica* must drain the lag counters and
            // resolve its parent (shutdown cancels pending replicas
            // through this path).
            self.repl.lock().requests.remove(&task_id);
            self.notify_task_waiters(task_id, &stats);
            self.note_replica_done(task_id, &stats);
        }
    }

    /// Worker thread: pull dispatchable entries (whole tasks and chunk
    /// sub-units) through the shared scheduler until shutdown.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let (pending, work) = {
                let mut st = self.dispatch.lock();
                loop {
                    if st.stop {
                        return;
                    }
                    if let Some(pending) = st.sched.dispatch() {
                        // cancel() and shutdown() remove scheduler and
                        // work entries under this same mutex, so a
                        // dispatched entry always has its payload.
                        let work = st
                            .work
                            .remove(&pending.task)
                            .expect("dispatched task has work payload");
                        break (pending, work);
                    }
                    self.dispatch_cv.wait(&mut st);
                }
            };
            match work {
                Work::Whole { spec, payload } => self.execute_whole(&pending, spec, payload),
                Work::Chunk(plan) => {
                    if plan.run_unit() {
                        self.finalize_chunked(&plan);
                    }
                }
            }
            self.dispatch.lock().sched.finish();
        }
    }

    /// Worker-thread execution of one whole task (which may decompose
    /// into a chunked or remote transfer on the way).
    fn execute_whole(
        self: &Arc<Self>,
        pending: &PendingTask<u64, u64, u64>,
        spec: TaskSpec,
        payload: Option<Vec<u8>>,
    ) {
        let task_id = pending.task;
        let start = Instant::now();
        let (progress, abort) = self
            .tasks
            .update(task_id, |t| {
                t.stats.state = TaskState::InProgress;
                t.stats.wait_usec = t.submitted_at.elapsed().as_micros() as u64;
                (Arc::clone(&t.progress), Arc::clone(&t.abort))
            })
            .unwrap_or_default();
        self.pending_count.fetch_sub(1, Ordering::SeqCst);
        self.running_count.fetch_add(1, Ordering::SeqCst);
        match self.run_transfer(task_id, &spec, payload.as_deref(), &progress, &abort) {
            Ok(Outcome::Done(moved)) => {
                self.complete_task(
                    task_id,
                    PlanOutcome::Done(moved),
                    start.elapsed().as_micros() as u64,
                );
            }
            Ok(Outcome::Chunked(plan)) => {
                // The plan honors the abort flag: from here on a cancel
                // interrupts the transfer mid-stream.
                self.tasks.update(task_id, |t| t.abortable = true);
                // Feed the remaining chunks through the scheduler, then
                // work one chunk ourselves; whichever worker finishes
                // the last unit finalizes the task.
                self.enqueue_chunk_units(pending, &plan);
                if plan.run_unit() {
                    self.finalize_chunked(&plan);
                }
            }
            Err((code, message)) => {
                self.complete_task(
                    task_id,
                    PlanOutcome::Failed(code, message),
                    start.elapsed().as_micros() as u64,
                );
            }
        }
    }

    /// Enqueue one scheduler sub-unit per remaining chunk. Sub-units
    /// inherit the parent's job / priority / size / seq, so arbitration
    /// treats them exactly like the parent: FCFS keeps idle workers
    /// converging on the oldest transfer, fair-share interleaves chunks
    /// with other jobs' tasks.
    fn enqueue_chunk_units(
        &self,
        parent: &PendingTask<u64, u64, u64>,
        plan: &Arc<dyn TransferPlan>,
    ) {
        let extra = plan.extra_units();
        if extra == 0 {
            return;
        }
        {
            let mut st = self.dispatch.lock();
            if st.stop {
                // Shutdown raced the planner: nobody will dispatch
                // these units, so account them as aborted now —
                // otherwise the task never reaches a terminal state.
                drop(st);
                for _ in 0..extra {
                    if plan.abort_unit("daemon shutdown during transfer") {
                        self.finalize_chunked(plan);
                    }
                }
                return;
            }
            // One batched splice: per-unit inserts would be quadratic
            // in the chunk count, all under the dispatch lock.
            let first_id = self.next_unit.fetch_add(extra, Ordering::SeqCst);
            let DispatchState { sched, work, .. } = &mut *st;
            sched.enqueue_units((first_id..first_id + extra).map(|unit_id| {
                work.insert(unit_id, Work::Chunk(Arc::clone(plan)));
                PendingTask {
                    task: unit_id,
                    ..*parent
                }
            }));
        }
        // Several units just became dispatchable: wake the whole pool.
        self.dispatch_cv.notify_all();
    }

    /// Terminal bookkeeping for a decomposed transfer, run by the last
    /// unit.
    fn finalize_chunked(&self, plan: &Arc<dyn TransferPlan>) {
        self.peak_chunk_workers
            .fetch_max(plan.peak_workers(), Ordering::Relaxed);
        self.complete_task(plan.task_id(), plan.finalize(), plan.elapsed_usec());
    }

    /// Funnel for every worker-driven terminal transition. A landed
    /// stage-out with a replication request spawns its background
    /// replicas here — and in `synchronous` mode the terminal
    /// transition itself is deferred until they land, so the caller's
    /// ACK can never precede the durability guarantee.
    fn complete_task(&self, task_id: u64, outcome: PlanOutcome, elapsed_usec: u64) {
        let request = self.repl.lock().requests.remove(&task_id);
        if let Some(req) = request {
            if let PlanOutcome::Done(moved) = outcome {
                if self.begin_replication(task_id, req, moved, elapsed_usec) {
                    return;
                }
            }
            // Failed or cancelled local leg: nothing landed to
            // replicate — the task resolves on its own outcome.
        }
        self.finish_task(task_id, outcome, elapsed_usec);
    }

    /// Move a task to its terminal state, fix up counters and notify
    /// the task's waiters.
    fn finish_task(&self, task_id: u64, outcome: PlanOutcome, elapsed_usec: u64) {
        let stats = self.tasks.update(task_id, |t| {
            let mut cancelled = false;
            match outcome {
                PlanOutcome::Done(moved) => {
                    t.stats.state = TaskState::Finished;
                    t.stats.bytes_moved = moved;
                    t.stats.bytes_total = t.stats.bytes_total.max(moved);
                }
                PlanOutcome::Failed(code, message) => {
                    t.stats.state = TaskState::FinishedWithError;
                    t.stats.error = code;
                    t.error_message = Some(message);
                    // Keep whatever partial progress the data plane made.
                    t.stats.bytes_moved = t.progress.load(Ordering::Relaxed);
                }
                PlanOutcome::Cancelled => {
                    t.stats.state = TaskState::Cancelled;
                    t.stats.bytes_moved = t.progress.load(Ordering::Relaxed);
                    cancelled = true;
                }
            }
            t.stats.elapsed_usec = elapsed_usec;
            // Counters inside the shard-locked closure, before the
            // notification: a waiter unblocked by this completion must
            // already see them updated.
            self.running_count.fetch_sub(1, Ordering::SeqCst);
            // Internal replica tasks never count against the
            // user-facing totals: `completed + cancelled` accounts
            // each accepted submission exactly once, and replication
            // progress is reported through the lag counters instead.
            if t.owner != REPLICA_OWNER {
                if cancelled {
                    self.cancelled.fetch_add(1, Ordering::SeqCst);
                } else {
                    self.completed.fetch_add(1, Ordering::SeqCst);
                }
            }
            t.stats.clone()
        });
        if let Some(stats) = stats {
            self.notify_task_waiters(task_id, &stats);
            self.note_replica_done(task_id, &stats);
        }
    }

    /// Kick off replication for a landed stage-out. Returns `true`
    /// when the parent's terminal transition is deferred (or already
    /// driven) by the replication machinery — `synchronous` mode —
    /// and `false` when the caller should ACK now (`local_plus_one`:
    /// the copies ride behind in the background).
    fn begin_replication(
        &self,
        parent: u64,
        req: ReplRequest,
        moved: u64,
        elapsed_usec: u64,
    ) -> bool {
        let want = match req.durability {
            Durability::LocalOnly => return false,
            Durability::LocalPlusOne => 1,
            Durability::Synchronous => self.target_copies,
        };
        let peers: Vec<String> = self
            .peers()
            .into_iter()
            .map(|(host, _)| host)
            .take(want)
            .collect();
        match req.durability {
            Durability::LocalOnly => false,
            Durability::LocalPlusOne => {
                // Best-effort by contract: with no registered peers
                // (or a stopping pool) the mode degrades to
                // local-only durability. The early ACK stands.
                for host in &peers {
                    let _ = self.submit_replica(
                        parent,
                        host,
                        &req.nsid,
                        &req.path,
                        req.priority,
                        moved,
                    );
                }
                false
            }
            Durability::Synchronous => {
                if peers.is_empty() {
                    // Never false-ACK: a synchronous stage-out with
                    // nowhere to replicate is a failure, not a silent
                    // downgrade.
                    self.finish_task(
                        parent,
                        PlanOutcome::Failed(
                            ErrorCode::NotFound,
                            "synchronous durability requires at least one registered replication \
                             peer"
                                .into(),
                        ),
                        elapsed_usec,
                    );
                    return true;
                }
                // Parent record first: a replica finishing before its
                // siblings are even submitted must find something to
                // decrement.
                self.repl.lock().parents.insert(
                    parent,
                    SyncParent {
                        remaining: peers.len(),
                        bytes_moved: moved,
                        elapsed_usec,
                        error: None,
                    },
                );
                for host in &peers {
                    if let Err(e) =
                        self.submit_replica(parent, host, &req.nsid, &req.path, req.priority, moved)
                    {
                        self.note_replica_failure(parent, e);
                    }
                }
                true
            }
        }
    }

    /// Enqueue one background replica push — an ordinary scheduler
    /// unit reusing the remote-staging push machinery. The landed
    /// `nsid://path` is pushed to the same-named dataspace and path on
    /// `host` (cluster-wide dataspace naming, the convention the peer
    /// registry already assumes). Ledger entry and lag counters are
    /// registered *before* the unit becomes dispatchable, so a fast
    /// completion can never race the bookkeeping.
    fn submit_replica(
        &self,
        parent: u64,
        host: &str,
        nsid: &str,
        path: &str,
        priority: u8,
        bytes: u64,
    ) -> Result<u64, (ErrorCode, String)> {
        let spec = TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: nsid.into(),
                path: path.into(),
            },
            Some(ResourceDesc::RemotePath {
                host: host.into(),
                nsid: nsid.into(),
                path: path.into(),
            }),
        )
        .with_priority(priority);
        let task_id = self.next_task.fetch_add(1, Ordering::SeqCst);
        let now_us = self.started_at.elapsed().as_micros() as u64;
        {
            let mut rp = self.repl.lock();
            rp.replicas.insert(task_id, ReplicaMeta { parent, bytes });
            self.pending_replicas.fetch_add(1, Ordering::SeqCst);
            self.pending_replica_bytes
                .fetch_add(bytes, Ordering::SeqCst);
        }
        {
            let mut st = self.dispatch.lock();
            if st.stop {
                drop(st);
                let mut rp = self.repl.lock();
                rp.replicas.remove(&task_id);
                self.pending_replicas.fetch_sub(1, Ordering::SeqCst);
                self.pending_replica_bytes
                    .fetch_sub(bytes, Ordering::SeqCst);
                return Err((ErrorCode::SystemError, "worker pool stopped".into()));
            }
            // Past the capacity bound on purpose: admission control
            // pushes back on clients, and bouncing a replica would
            // silently void an accepted task's durability guarantee.
            st.sched
                .enqueue_internal(task_id, REPLICA_OWNER, bytes, priority, now_us);
            st.work.insert(
                task_id,
                Work::Whole {
                    spec,
                    payload: None,
                },
            );
            self.tasks.insert(
                task_id,
                TaskEntry {
                    stats: TaskStats {
                        state: TaskState::Pending,
                        error: ErrorCode::Success,
                        bytes_total: bytes,
                        bytes_moved: 0,
                        wait_usec: 0,
                        elapsed_usec: 0,
                    },
                    submitted_at: Instant::now(),
                    owner: REPLICA_OWNER,
                    error_message: None,
                    progress: Arc::new(AtomicU64::new(0)),
                    abort: Arc::new(AtomicBool::new(false)),
                    abortable: false,
                },
            );
            self.pending_count.fetch_add(1, Ordering::SeqCst);
        }
        self.dispatch_cv.notify_one();
        Ok(task_id)
    }

    /// A replica reached a terminal state (or failed to submit —
    /// see [`Engine::note_replica_failure`]): drain the lag counters
    /// and resolve the `synchronous` parent once its last replica is
    /// in. No-op for ids that are not replicas.
    fn note_replica_done(&self, task_id: u64, stats: &TaskStats) {
        // Failure detail fetched before the ledger lock: the shard
        // lock must never nest inside `repl`.
        let failure = (stats.state != TaskState::Finished).then(|| {
            let code = if stats.error == ErrorCode::Success {
                ErrorCode::SystemError
            } else {
                stats.error
            };
            let msg = self
                .error_message(task_id)
                .unwrap_or_else(|| format!("replica ended {:?}", stats.state));
            (code, msg)
        });
        let resolved = {
            let mut rp = self.repl.lock();
            let Some(meta) = rp.replicas.remove(&task_id) else {
                return;
            };
            self.pending_replicas.fetch_sub(1, Ordering::SeqCst);
            self.pending_replica_bytes
                .fetch_sub(meta.bytes, Ordering::SeqCst);
            self.repl_cv.notify_all();
            Self::settle_parent(&mut rp, meta.parent, failure).map(|p| (meta.parent, p))
        };
        if let Some((parent, record)) = resolved {
            self.resolve_sync_parent(parent, record);
        }
    }

    /// A replica could not even be submitted (pool stopping): account
    /// it against the `synchronous` parent directly.
    fn note_replica_failure(&self, parent: u64, err: (ErrorCode, String)) {
        let resolved = {
            let mut rp = self.repl.lock();
            Self::settle_parent(&mut rp, parent, Some(err))
        };
        if let Some(record) = resolved {
            self.resolve_sync_parent(parent, record);
        }
    }

    /// Decrement a deferred parent's outstanding-replica count,
    /// recording the first failure; returns the record once the last
    /// replica is in. `None` parent entries are `local_plus_one`
    /// (fire-and-forget) — nothing to resolve.
    fn settle_parent(
        rp: &mut ReplState,
        parent: u64,
        failure: Option<(ErrorCode, String)>,
    ) -> Option<SyncParent> {
        let record = rp.parents.get_mut(&parent)?;
        record.remaining -= 1;
        if record.error.is_none() {
            if let Some(err) = failure {
                record.error = Some(err);
            }
        }
        if record.remaining == 0 {
            rp.parents.remove(&parent)
        } else {
            None
        }
    }

    /// Deliver a deferred `synchronous` parent's terminal transition:
    /// `Finished` only if every replica landed, otherwise the first
    /// replica failure becomes the task's failure.
    fn resolve_sync_parent(&self, parent: u64, record: SyncParent) {
        let outcome = match record.error {
            None => PlanOutcome::Done(record.bytes_moved),
            Some((code, msg)) => PlanOutcome::Failed(code, format!("replication failed: {msg}")),
        };
        self.finish_task(parent, outcome, record.elapsed_usec);
    }

    /// Execute (or plan) one transfer. Large single-file copies and
    /// every remote transfer return [`Outcome::Chunked`] instead of
    /// blocking this worker for the whole file.
    fn run_transfer(
        &self,
        task_id: u64,
        spec: &TaskSpec,
        payload: Option<&[u8]>,
        progress: &Arc<AtomicU64>,
        abort: &Arc<AtomicBool>,
    ) -> Result<Outcome, (ErrorCode, String)> {
        match spec.op {
            TaskOp::Remove => {
                let path = self.resolve(&spec.input)?;
                // symlink_metadata: removing a symlink removes the
                // link, never its target's tree.
                let meta = fs::symlink_metadata(&path).map_err(map_io)?;
                if meta.is_dir() {
                    fs::remove_dir_all(&path).map_err(map_io)?;
                } else {
                    fs::remove_file(&path).map_err(map_io)?;
                }
                Ok(Outcome::Done(0))
            }
            TaskOp::Copy | TaskOp::Move => {
                match Self::route_of(spec)? {
                    route @ (Route::Pull { .. } | Route::Push { .. }) => {
                        return self.plan_remote(task_id, spec, &route, progress, abort);
                    }
                    Route::Local => {}
                }
                let out = spec.output.as_ref().expect("validated");
                let dst = self.resolve(out)?;
                if let Some(parent) = dst.parent() {
                    fs::create_dir_all(parent).map_err(map_io)?;
                }
                match &spec.input {
                    ResourceDesc::MemoryRegion { .. } => {
                        // Table II: process memory ⇒ local path.
                        let buf = payload.unwrap_or(&[]);
                        fs::write(&dst, buf).map_err(map_io)?;
                        progress.fetch_add(buf.len() as u64, Ordering::Relaxed);
                        Ok(Outcome::Done(buf.len() as u64))
                    }
                    input => {
                        // Table II: local path ⇒ local path.
                        let src = self.resolve(input)?;
                        let meta = fs::symlink_metadata(&src).map_err(map_io)?;
                        if spec.op == TaskOp::Move && fs::rename(&src, &dst).is_ok() {
                            // Same-filesystem move: a rename moves no
                            // bytes; report the file's size as the data
                            // made available (0 for trees — nothing was
                            // physically copied).
                            let moved = if meta.is_file() { meta.len() } else { 0 };
                            progress.fetch_add(moved, Ordering::Relaxed);
                            return Ok(Outcome::Done(moved));
                        }
                        // Cross-filesystem move (EXDEV) or plain copy.
                        if meta.is_file() && meta.len() > self.chunk_size {
                            let plan = ChunkedCopy::plan(
                                task_id,
                                spec.op,
                                &src,
                                &dst,
                                meta.len(),
                                self.chunk_size,
                                Arc::clone(progress),
                                Arc::clone(abort),
                            )
                            .map_err(map_io)?;
                            return Ok(Outcome::Chunked(plan));
                        }
                        let moved = copy_tree(&src, &dst, progress).map_err(map_io)?;
                        if spec.op == TaskOp::Move {
                            if meta.is_dir() {
                                fs::remove_dir_all(&src).map_err(map_io)?;
                            } else {
                                fs::remove_file(&src).map_err(map_io)?;
                            }
                        }
                        Ok(Outcome::Done(moved))
                    }
                }
            }
        }
    }

    /// Plan a remote staging transfer (worker-side: planning does
    /// network round-trips — a size probe for pulls, a preallocating
    /// `Prepare` for pushes — that must not block `submit`).
    fn plan_remote(
        &self,
        task_id: u64,
        spec: &TaskSpec,
        route: &Route,
        progress: &Arc<AtomicU64>,
        abort: &Arc<AtomicBool>,
    ) -> Result<Outcome, (ErrorCode, String)> {
        let host = match route {
            Route::Pull { host } | Route::Push { host } => host,
            Route::Local => unreachable!("plan_remote is only called on remote routes"),
        };
        // Re-resolved at execution: the registry may have changed since
        // submission.
        let addr = self.peer_addr(host).ok_or_else(|| {
            (
                ErrorCode::NotFound,
                format!("unknown peer {host:?}; register it first"),
            )
        })?;
        let (nsid, rpath) = Self::remote_endpoint(spec, route);
        match route {
            Route::Pull { .. } => {
                let local = self.resolve(spec.output.as_ref().expect("validated"))?;
                let (plan, size) = RemoteTransfer::plan_pull(
                    task_id,
                    &addr,
                    &nsid,
                    &rpath,
                    &local,
                    self.chunk_size,
                    self.remote_window,
                    Arc::clone(progress),
                    Arc::clone(abort),
                )?;
                // The submit-time estimate was 0 (remote size unknown);
                // the probe makes `query()` report a real total.
                self.tasks.update(task_id, |t| t.stats.bytes_total = size);
                Ok(Outcome::Chunked(plan))
            }
            Route::Push { .. } => {
                let local = self.resolve(&spec.input)?;
                let plan = RemoteTransfer::plan_push(
                    task_id,
                    &addr,
                    &nsid,
                    &rpath,
                    &local,
                    self.chunk_size,
                    self.remote_window,
                    Arc::clone(progress),
                    Arc::clone(abort),
                )?;
                Ok(Outcome::Chunked(plan))
            }
            Route::Local => unreachable!(),
        }
    }

    /// Current stats with live `bytes_moved` progress overlaid — the
    /// paper's `NORNS_EPENDING` polling semantics.
    pub fn query(&self, task_id: u64) -> Option<TaskStats> {
        self.tasks.snapshot(task_id)
    }

    /// Human-readable failure detail for a `FinishedWithError` task
    /// (the wire's `TaskStats` only carries the error code) —
    /// diagnostics for remote-staging failures like an unreachable
    /// peer.
    pub fn error_message(&self, task_id: u64) -> Option<String> {
        self.tasks
            .read(task_id, |t| t.error_message.clone())
            .flatten()
    }

    /// `query` with the user-socket ownership rule applied: a
    /// requester may only observe its own submissions (the same
    /// scoping `cancel` enforces — one job cannot watch another's
    /// transfers through the world-connectable socket).
    pub fn query_scoped(
        &self,
        task_id: u64,
        requester: Option<u64>,
    ) -> Result<TaskStats, (ErrorCode, String)> {
        self.check_owner(task_id, requester)?;
        self.query(task_id)
            .ok_or((ErrorCode::NotFound, format!("task {task_id}")))
    }

    // ---- waits ----
    //
    // There is one wait mechanism: a one-shot callback subscribed in
    // the `wait_subs` registry. Every terminal transition funnels
    // through `finish_task` or `mark_cancelled`, which notify the
    // inverted `by_task` index. The reactor daemon must not pin a
    // thread per parked `WaitTask` / `WaitAny`, so its callbacks queue
    // a response and its timeouts are deadlines on a single
    // lazily-spawned timer thread; the blocking calls subscribe a
    // callback that sends into a channel and park the caller on it.
    // Semantics are the same either way: an expired `WaitTask`
    // delivers the in-flight snapshot, an expired `WaitAny` delivers
    // `ErrorCode::Timeout`, `timeout_usec == 0` parks forever.

    /// Block until the task reaches a terminal state or the timeout
    /// expires (`timeout_usec == 0` → wait forever). An expired
    /// timeout returns the in-flight snapshot; `None` means the id is
    /// unknown.
    pub fn wait(&self, task_id: u64, timeout_usec: u64) -> Option<TaskStats> {
        self.wait_parked(WaitKind::Single, vec![task_id], timeout_usec)
            .ok()
            .map(|(_, stats)| stats)
    }

    /// Block until *any* task of the set reaches a terminal state —
    /// the wire's v5 `WaitAny` batch-wait op. Returns the first
    /// completion as `(task_id, stats)`; when several tasks are
    /// already terminal, the earliest in `task_ids` wins.
    ///
    /// One parked wait covers the whole set, so an orchestrator
    /// watching N staging tasks costs one blocked call, not N pollers.
    /// `timeout_usec == 0` means wait forever; a nonzero timeout that
    /// expires yields [`ErrorCode::Timeout`]. An unknown id yields
    /// [`ErrorCode::NotFound`]; an empty set is [`ErrorCode::BadArgs`].
    pub fn wait_any(
        &self,
        task_ids: &[u64],
        timeout_usec: u64,
    ) -> Result<(u64, TaskStats), (ErrorCode, String)> {
        self.wait_any_scoped(task_ids, timeout_usec, None)
    }

    /// [`Engine::wait_any`] with the user-socket ownership rule
    /// applied: every id in the set must belong to `requester`.
    pub fn wait_any_scoped(
        &self,
        task_ids: &[u64],
        timeout_usec: u64,
        requester: Option<u64>,
    ) -> Result<(u64, TaskStats), (ErrorCode, String)> {
        self.check_wait_set(task_ids, requester)?;
        self.wait_parked(WaitKind::Any, task_ids.to_vec(), timeout_usec)
    }

    /// Subscribe a channel-sending callback and park the calling
    /// thread on the channel.
    fn wait_parked(
        &self,
        kind: WaitKind,
        task_ids: Vec<u64>,
        timeout_usec: u64,
    ) -> Result<(u64, TaskStats), (ErrorCode, String)> {
        let (tx, rx) = std::sync::mpsc::channel();
        let sub = self.subscribe_wait(
            kind,
            task_ids,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        if let Some(sub_id) = sub.filter(|_| timeout_usec > 0) {
            match rx.recv_timeout(Duration::from_micros(timeout_usec)) {
                Ok(result) => return result,
                // `take_sub` inside decides a completion racing the
                // deadline: whichever side gets the subscription sends
                // the one result the `recv` below picks up.
                Err(_) => self.fire_wait_timeout(sub_id),
            }
        }
        rx.recv().unwrap_or_else(|_| {
            Err((
                ErrorCode::SystemError,
                "wait subscription dropped unfired".into(),
            ))
        })
    }

    /// The wait-set rules every `WaitAny` entry point enforces: a
    /// non-empty set of at most [`norns_proto::MAX_WAIT_SET`] ids, all
    /// visible to `requester`.
    fn check_wait_set(
        &self,
        task_ids: &[u64],
        requester: Option<u64>,
    ) -> Result<(), (ErrorCode, String)> {
        if task_ids.is_empty() {
            return Err((ErrorCode::BadArgs, "empty wait set".into()));
        }
        if task_ids.len() > norns_proto::MAX_WAIT_SET {
            return Err((
                ErrorCode::BadArgs,
                format!(
                    "wait set of {} exceeds the {}-id cap",
                    task_ids.len(),
                    norns_proto::MAX_WAIT_SET
                ),
            ));
        }
        task_ids
            .iter()
            .try_for_each(|&id| self.check_owner(id, requester))
    }

    /// Callback form of [`Engine::wait`] with the user-socket
    /// ownership rule applied (see [`Engine::query_scoped`]). Returns
    /// the subscription id when the wait parked (cancel it with
    /// [`Engine::unsubscribe_wait`] if the connection dies first), or
    /// `None` when the callback already fired — inline for validation
    /// failures and already-terminal tasks, or from a racing
    /// completion. Either way the callback is invoked exactly once.
    pub fn wait_task_async(
        self: &Arc<Self>,
        task_id: u64,
        timeout_usec: u64,
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        if let Err(e) = self.check_owner(task_id, requester) {
            callback(Err(e));
            return None;
        }
        self.subscribe_with_deadline(WaitKind::Single, vec![task_id], timeout_usec, callback)
    }

    /// Callback form of [`Engine::wait_any_scoped`] (see
    /// [`Engine::wait_task_async`] for the callback contract).
    pub fn wait_any_async(
        self: &Arc<Self>,
        task_ids: &[u64],
        timeout_usec: u64,
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        if let Err(e) = self.check_wait_set(task_ids, requester) {
            callback(Err(e));
            return None;
        }
        self.subscribe_with_deadline(WaitKind::Any, task_ids.to_vec(), timeout_usec, callback)
    }

    /// Drop a parked wait whose subscriber went away (connection
    /// closed). Returns whether the subscription was still live; its
    /// callback is dropped unfired.
    pub fn unsubscribe_wait(&self, sub_id: u64) -> bool {
        self.take_sub(sub_id).is_some()
    }

    /// Parked waits currently registered (observability for tests).
    pub fn parked_waits(&self) -> usize {
        self.wait_subs.lock().subs.len()
    }

    /// Subscribe, then arm `timeout_usec` (when nonzero) on the timer
    /// thread.
    fn subscribe_with_deadline(
        self: &Arc<Self>,
        kind: WaitKind,
        task_ids: Vec<u64>,
        timeout_usec: u64,
        callback: WaitCallback,
    ) -> Option<u64> {
        let sub_id = self.subscribe_wait(kind, task_ids, callback)?;
        if timeout_usec > 0 {
            self.arm_wait_deadline(sub_id, Instant::now() + Duration::from_micros(timeout_usec));
        }
        Some(sub_id)
    }

    /// Register a wait. Returns the subscription id when it parked,
    /// `None` when the callback already fired.
    fn subscribe_wait(
        &self,
        kind: WaitKind,
        task_ids: Vec<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        let sub_id = {
            let mut ws = self.wait_subs.lock();
            ws.next_id += 1;
            let sub_id = ws.next_id;
            for &t in &task_ids {
                ws.by_task.entry(t).or_default().push(sub_id);
            }
            ws.subs.insert(
                sub_id,
                WaitSub {
                    kind,
                    task_ids: task_ids.clone(),
                    callback,
                },
            );
            sub_id
        };
        // Subscribe *then* scan: a completion racing this registration
        // either sees the sub in `by_task` (and fires it) or we see
        // the terminal state here — a lost wakeup is impossible, and
        // remove-under-lock in `take_sub` picks the single firing
        // side. Scanning in set order gives `wait_any` its tie-break
        // (earliest listed terminal task wins).
        for &t in &task_ids {
            match self.tasks.snapshot(t) {
                Some(stats) if stats.state.is_terminal() => {
                    if let Some(sub) = self.take_sub(sub_id) {
                        (sub.callback)(Ok((t, stats)));
                    }
                    return None;
                }
                Some(_) => {}
                None => {
                    if let Some(sub) = self.take_sub(sub_id) {
                        (sub.callback)(Err((ErrorCode::NotFound, format!("task {t}"))));
                    }
                    return None;
                }
            }
        }
        Some(sub_id)
    }

    /// Remove a subscription and its index entries; whoever gets the
    /// `WaitSub` back owns the one permitted callback invocation.
    fn take_sub(&self, sub_id: u64) -> Option<WaitSub> {
        let mut ws = self.wait_subs.lock();
        let sub = ws.subs.remove(&sub_id)?;
        for t in &sub.task_ids {
            if let Some(v) = ws.by_task.get_mut(t) {
                v.retain(|s| *s != sub_id);
                if v.is_empty() {
                    ws.by_task.remove(t);
                }
            }
        }
        Some(sub)
    }

    /// Fire every subscription watching `task_id`. Called after a
    /// terminal transition is visible in the task table; callbacks run
    /// outside the registry lock.
    fn notify_task_waiters(&self, task_id: u64, stats: &TaskStats) {
        let callbacks: Vec<WaitCallback> = {
            let mut ws = self.wait_subs.lock();
            let Some(sub_ids) = ws.by_task.remove(&task_id) else {
                return;
            };
            let mut cbs = Vec::with_capacity(sub_ids.len());
            for sid in sub_ids {
                if let Some(sub) = ws.subs.remove(&sid) {
                    for t in &sub.task_ids {
                        if *t != task_id {
                            if let Some(v) = ws.by_task.get_mut(t) {
                                v.retain(|s| *s != sid);
                                if v.is_empty() {
                                    ws.by_task.remove(t);
                                }
                            }
                        }
                    }
                    cbs.push(sub.callback);
                }
            }
            cbs
        };
        for cb in callbacks {
            cb(Ok((task_id, stats.clone())));
        }
    }

    fn arm_wait_deadline(self: &Arc<Self>, sub_id: u64, deadline: Instant) {
        {
            let mut tm = self.wait_timer.lock();
            if tm.stop {
                // Engine already shut down: resolve as an immediate
                // timeout rather than leaving the sub to dangle.
                drop(tm);
                self.fire_wait_timeout(sub_id);
                return;
            }
            tm.heap.push(Reverse((deadline, sub_id)));
            // The lazy spawn must stay under the `wait_timer` lock —
            // the same lock `shutdown` holds (nested outside
            // `wait_timer_thread`, matching its order) while it sets
            // `stop` and takes the handle. Checking the slot after
            // releasing `tm` races shutdown: it can join the old
            // thread between our release and our slot check, and the
            // respawn here would occupy the slot past shutdown.
            let mut slot = self.wait_timer_thread.lock();
            if slot.is_none() {
                let eng = Arc::clone(self);
                let spawned = std::thread::Builder::new()
                    .name("urd-wait-timer".into())
                    .spawn(move || eng.wait_timer_loop());
                match spawned {
                    Ok(handle) => *slot = Some(handle),
                    Err(e) => {
                        // Out of threads: no timer can ever fire, so
                        // resolve this wait as an immediate timeout
                        // instead of parking it forever. The heap
                        // entry we just pushed goes stale, which
                        // `fire_wait_timeout` tolerates.
                        eprintln!("urd: cannot spawn wait-timer thread: {e}; failing wait fast");
                        drop(slot);
                        drop(tm);
                        self.fire_wait_timeout(sub_id);
                        return;
                    }
                }
            }
        }
        self.wait_timer_cv.notify_one();
    }

    fn wait_timer_loop(self: &Arc<Self>) {
        let mut tm = self.wait_timer.lock();
        loop {
            if tm.stop {
                return;
            }
            match tm.heap.peek().copied() {
                None => self.wait_timer_cv.wait(&mut tm),
                Some(Reverse((deadline, sub_id))) if deadline <= Instant::now() => {
                    tm.heap.pop();
                    drop(tm);
                    self.fire_wait_timeout(sub_id);
                    tm = self.wait_timer.lock();
                }
                Some(Reverse((deadline, _))) => {
                    let _ = self.wait_timer_cv.wait_until(&mut tm, deadline);
                }
            }
        }
    }

    /// Resolve a deadline. A stale heap entry (sub already fired or
    /// unsubscribed) is a no-op — `take_sub` decides.
    fn fire_wait_timeout(&self, sub_id: u64) {
        let Some(sub) = self.take_sub(sub_id) else {
            return;
        };
        let result = match sub.kind {
            WaitKind::Single => match sub.task_ids.first() {
                Some(&id) => match self.tasks.snapshot(id) {
                    Some(stats) => Ok((id, stats)),
                    None => Err((ErrorCode::NotFound, format!("task {id}"))),
                },
                None => Err((
                    ErrorCode::BadArgs,
                    "wait subscription with no task id".to_string(),
                )),
            },
            WaitKind::Any => Err((
                ErrorCode::Timeout,
                format!("no task of {} completed in time", sub.task_ids.len()),
            )),
        };
        (sub.callback)(result);
    }

    pub fn clear_completions(&self) {
        self.tasks.retain(|t| !t.stats.state.is_terminal());
    }

    pub fn uptime_usec(&self) -> u64 {
        self.started_at.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("norns-ipc-engine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn register_tmp0(engine: &Engine, root: &Path) {
        engine
            .register_dataspace(DataspaceDesc {
                nsid: "tmp0".into(),
                kind: norns_proto::BackendKind::PosixFilesystem,
                mount: root.join("tmp0").to_string_lossy().into_owned(),
                quota: 0,
                tracked: false,
            })
            .unwrap();
    }

    fn engine_with_ds(tag: &str) -> (Arc<Engine>, PathBuf) {
        let root = temp_root(tag);
        let engine = Engine::new(2);
        register_tmp0(&engine, &root);
        (engine, root)
    }

    fn copy_spec(path_in: &str, path_out: &str) -> TaskSpec {
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: path_in.into(),
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: path_out.into(),
            }),
        )
    }

    #[test]
    fn memory_to_path_writes_file() {
        let (engine, root) = engine_with_ds("mem");
        let spec = TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::MemoryRegion { addr: 0, size: 5 },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "out/buf".into(),
            }),
        );
        let id = engine.submit(1, spec, Some(b"hello".to_vec())).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, 5);
        assert_eq!(fs::read(root.join("tmp0/out/buf")).unwrap(), b"hello");
        engine.shutdown();
    }

    #[test]
    fn copy_and_move_between_paths() {
        let (engine, root) = engine_with_ds("copy");
        fs::create_dir_all(root.join("tmp0")).unwrap();
        fs::write(root.join("tmp0/a.dat"), vec![7u8; 1024]).unwrap();
        // Copy.
        let id = engine.submit(1, copy_spec("a.dat", "b.dat"), None).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, 1024);
        assert_eq!(stats.bytes_total, 1024, "submit estimated the size");
        assert!(root.join("tmp0/a.dat").exists());
        assert!(root.join("tmp0/b.dat").exists());
        // Move.
        let id = engine
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Move,
                    ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "b.dat".into(),
                    },
                    Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "c.dat".into(),
                    }),
                ),
                None,
            )
            .unwrap();
        engine.wait(id, 0).unwrap();
        assert!(!root.join("tmp0/b.dat").exists());
        assert!(root.join("tmp0/c.dat").exists());
        engine.shutdown();
    }

    #[test]
    fn move_on_same_filesystem_is_a_rename() {
        use std::os::unix::fs::MetadataExt;
        let root = temp_root("rename");
        // Larger than the chunk size: without the rename fast path this
        // would be a chunked copy producing a *new* inode.
        let engine = Engine::with_config(
            EngineConfig {
                workers: 2,
                chunk_size: MIN_CHUNK_SIZE,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        let mount = root.join("tmp0");
        fs::write(
            mount.join("big.dat"),
            vec![9u8; (MIN_CHUNK_SIZE * 3) as usize],
        )
        .unwrap();
        let src_ino = fs::metadata(mount.join("big.dat")).unwrap().ino();
        let id = engine
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Move,
                    ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "big.dat".into(),
                    },
                    Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "moved.dat".into(),
                    }),
                ),
                None,
            )
            .unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, MIN_CHUNK_SIZE * 3);
        assert!(!mount.join("big.dat").exists());
        assert_eq!(
            fs::metadata(mount.join("moved.dat")).unwrap().ino(),
            src_ino,
            "same filesystem ⇒ rename, not copy"
        );
        engine.shutdown();
    }

    #[test]
    fn remove_task_deletes() {
        let (engine, root) = engine_with_ds("rm");
        fs::create_dir_all(root.join("tmp0/d")).unwrap();
        fs::write(root.join("tmp0/d/x"), b"x").unwrap();
        let id = engine
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Remove,
                    ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "d".into(),
                    },
                    None,
                ),
                None,
            )
            .unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert!(!root.join("tmp0/d").exists());
        engine.shutdown();
    }

    #[test]
    fn missing_source_fails_task() {
        let (engine, _root) = engine_with_ds("miss");
        let id = engine.submit(1, copy_spec("ghost", "y"), None).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.error, ErrorCode::NotFound);
        engine.shutdown();
    }

    #[test]
    fn unknown_dataspace_rejected_at_submission() {
        let (engine, _root) = engine_with_ds("unk");
        let err = engine.submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::PosixPath {
                    nsid: "nope".into(),
                    path: "a".into(),
                },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "b".into(),
                }),
            ),
            None,
        );
        assert!(matches!(err, Err((ErrorCode::NotFound, _))));
        engine.shutdown();
    }

    #[test]
    fn path_escape_rejected() {
        let (engine, _root) = engine_with_ds("esc");
        // Both escape shapes: `..` traversal and absolute paths (whose
        // RootDir would make `mount.join` discard the mount entirely).
        for escape in ["../../etc/passwd", "/etc/passwd", "//etc/passwd"] {
            let err = engine.submit(
                1,
                TaskSpec::new(
                    TaskOp::Remove,
                    ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: escape.into(),
                    },
                    None,
                ),
                None,
            );
            assert!(
                matches!(err, Err((ErrorCode::PermissionDenied, _))),
                "path {escape:?} must be denied, got {err:?}"
            );
        }
        engine.shutdown();
    }

    fn tiny_write(path: &str) -> TaskSpec {
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::MemoryRegion { addr: 0, size: 4 },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: path.into(),
            }),
        )
    }

    #[test]
    fn wait_timeout_returns_current_state() {
        let root = temp_root("timeout");
        let engine = Engine::with_policy(1, 64, Box::new(Fcfs));
        register_tmp0(&engine, &root);
        // Pin the single worker on a long copy so the victim behind it
        // is still queued when its bounded wait expires.
        fs::write(root.join("tmp0/blocker-src"), vec![0x77u8; 64 << 20]).unwrap();
        let blocker = engine
            .submit(1, copy_spec("blocker-src", "blocker-dst"), None)
            .unwrap();
        let victim = engine
            .submit(1, tiny_write("victim"), Some(b"abcd".to_vec()))
            .unwrap();
        let stats = engine.wait(victim, 1_000).unwrap();
        assert_eq!(stats.state, TaskState::Pending, "in-flight snapshot");
        assert_eq!(engine.parked_waits(), 0, "an expired wait unsubscribes");
        // Unknown task → None, with or without a timeout.
        assert!(engine.wait(999, 1_000).is_none());
        assert!(engine.wait(999, 0).is_none());
        assert_eq!(engine.wait(victim, 0).unwrap().state, TaskState::Finished);
        engine.wait(blocker, 0).unwrap();
        engine.shutdown();
    }

    /// Timeouts swept from 1 to 400 µs around the few tens of
    /// microseconds a tiny task takes, so the completion and the
    /// deadline race in both orders: whichever claims the
    /// subscription, the blocking wait returns one coherent result and
    /// leaves nothing parked.
    #[test]
    fn blocking_wait_survives_completion_vs_timeout_race() {
        let (engine, _root) = engine_with_ds("waitrace");
        let (mut finished, mut expired) = (0, 0);
        for i in 0..2_000u64 {
            let id = engine
                .submit(1, tiny_write("race"), Some(b"abcd".to_vec()))
                .unwrap();
            let timeout = 1 + i % 400;
            if i % 2 == 0 {
                let stats = engine.wait(id, timeout).expect("task exists");
                if stats.state.is_terminal() {
                    finished += 1;
                } else {
                    expired += 1;
                }
            } else {
                match engine.wait_any(&[id], timeout) {
                    Ok((done, stats)) => {
                        assert_eq!(done, id);
                        assert!(stats.state.is_terminal());
                        finished += 1;
                    }
                    Err((code, _)) => {
                        assert_eq!(code, ErrorCode::Timeout);
                        expired += 1;
                    }
                }
            }
            assert_eq!(engine.wait(id, 0).unwrap().state, TaskState::Finished);
        }
        assert_eq!(engine.parked_waits(), 0);
        assert!(
            finished > 0 && expired > 0,
            "the sweep must hit both sides of the race ({finished} finished, {expired} expired)"
        );
        engine.shutdown();
    }

    #[test]
    fn pause_rejects_submissions() {
        let (engine, _root) = engine_with_ds("pause");
        engine.set_accepting(false);
        let err = engine.submit(
            1,
            TaskSpec::new(
                TaskOp::Remove,
                ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "x".into(),
                },
                None,
            ),
            None,
        );
        assert!(err.is_err());
        engine.set_accepting(true);
        engine.shutdown();
    }

    #[test]
    fn status_counts() {
        let (engine, _root) = engine_with_ds("status");
        let st = engine.status();
        assert!(st.accepting);
        assert_eq!(st.registered_dataspaces, 1);
        assert_eq!(st.cancelled_tasks, 0);
        assert_eq!(st.chunk_size, DEFAULT_CHUNK_SIZE);
        assert!(engine.uptime_usec() < 60_000_000);
        engine.shutdown();
    }

    #[test]
    fn process_reverse_index_tracks_membership() {
        let (engine, _root) = engine_with_ds("pidx");
        engine
            .register_job(JobDesc {
                job_id: 1,
                hosts: vec![],
                limits: vec![],
            })
            .unwrap();
        engine
            .register_job(JobDesc {
                job_id: 2,
                hosts: vec![],
                limits: vec![],
            })
            .unwrap();
        engine.add_process(1, 100).unwrap();
        engine.add_process(2, 100).unwrap();
        engine.add_process(2, 200).unwrap();
        assert!(engine.process_known(100));
        assert!(engine.process_registered(1, 100));
        assert!(engine.process_registered(2, 100));
        assert!(!engine.process_registered(1, 200));
        // Removing pid 100 from job 1 keeps its job-2 registration.
        engine.remove_process(1, 100).unwrap();
        assert!(engine.process_known(100));
        assert!(!engine.process_registered(1, 100));
        // Unregistering job 2 drops both of its pids from the index.
        engine.unregister_job(2).unwrap();
        assert!(!engine.process_known(100));
        assert!(!engine.process_known(200));
        engine.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_with_busy() {
        let root = temp_root("busy");
        // 1 worker, capacity 2: one running + two pending fills it.
        let engine = Engine::with_policy(1, 2, Box::new(Fcfs));
        register_tmp0(&engine, &root);
        // Pin the single worker on a long path→path copy so the flood
        // below deterministically backs up behind capacity 2 (memory
        // payload speed vs. worker drain speed is machine-dependent).
        fs::write(root.join("tmp0/blocker-src"), vec![0x77u8; 64 << 20]).unwrap();
        let blocker = engine
            .submit(1, copy_spec("blocker-src", "blocker-dst"), None)
            .unwrap();
        let submit = |i: usize| {
            engine.submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    ResourceDesc::MemoryRegion {
                        addr: 0,
                        size: 4 << 20,
                    },
                    Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: format!("buf{i}"),
                    }),
                ),
                Some(vec![0xa5u8; 4 << 20]),
            )
        };
        let mut ids = Vec::new();
        let mut busy = 0;
        for i in 0..16 {
            match submit(i) {
                Ok(id) => ids.push(id),
                Err((ErrorCode::Busy, msg)) => {
                    busy += 1;
                    assert!(msg.contains("full"));
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(busy > 0, "16 instant submissions must overflow capacity 2");
        engine.wait(blocker, 0).unwrap();
        for id in ids {
            let stats = engine.wait(id, 0).unwrap();
            assert_eq!(stats.state, TaskState::Finished);
        }
        engine.shutdown();
    }

    #[test]
    fn cancel_pending_task() {
        let root = temp_root("cancel");
        let engine = Engine::with_policy(1, 64, Box::new(Fcfs));
        register_tmp0(&engine, &root);
        // Keep the worker busy with a large write, then queue a victim.
        let blocker = engine
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    ResourceDesc::MemoryRegion {
                        addr: 0,
                        size: 8 << 20,
                    },
                    Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "big".into(),
                    }),
                ),
                Some(vec![1u8; 8 << 20]),
            )
            .unwrap();
        let victim = engine
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    ResourceDesc::MemoryRegion { addr: 0, size: 3 },
                    Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "small".into(),
                    }),
                ),
                Some(b"abc".to_vec()),
            )
            .unwrap();
        match engine.cancel(victim, None) {
            Ok(()) => {
                let stats = engine.wait(victim, 0).unwrap();
                assert_eq!(stats.state, TaskState::Cancelled);
                assert_eq!(engine.cancelled_tasks(), 1);
                assert_eq!(engine.status().cancelled_tasks, 1);
                // Cancelling again reports the terminal state.
                assert!(engine.cancel(victim, None).is_err());
            }
            // The worker may already have grabbed it; then cancel
            // correctly refuses.
            Err((code, _)) => assert_eq!(code, ErrorCode::TaskError),
        }
        engine.wait(blocker, 0).unwrap();
        assert!(matches!(
            engine.cancel(999, None),
            Err((ErrorCode::NotFound, _))
        ));
        engine.shutdown();
    }

    #[test]
    fn shutdown_joins_workers_and_cancels_backlog() {
        let root = temp_root("shutdown");
        let engine = Engine::with_policy(1, 64, Box::new(Fcfs));
        register_tmp0(&engine, &root);
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(
                engine
                    .submit(
                        1,
                        TaskSpec::new(
                            TaskOp::Copy,
                            ResourceDesc::MemoryRegion {
                                addr: 0,
                                size: 1 << 20,
                            },
                            Some(ResourceDesc::PosixPath {
                                nsid: "tmp0".into(),
                                path: format!("f{i}"),
                            }),
                        ),
                        Some(vec![0u8; 1 << 20]),
                    )
                    .unwrap(),
            );
        }
        engine.shutdown();
        engine.shutdown(); // idempotent
                           // Every submitted task is in a terminal state: finished if a
                           // worker got to it, cancelled otherwise — none lost.
        for id in ids {
            let stats = engine.query(id).unwrap();
            assert!(
                stats.state.is_terminal(),
                "task {id} left in {:?}",
                stats.state
            );
        }
        // Submissions after shutdown are refused.
        let err = engine.submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::MemoryRegion { addr: 0, size: 1 },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "z".into(),
                }),
            ),
            Some(vec![0u8]),
        );
        assert!(matches!(err, Err((ErrorCode::SystemError, _))));
    }

    #[test]
    fn cancel_cannot_touch_internal_chunk_units() {
        let root = temp_root("unit-cancel");
        let engine = Engine::with_config(
            EngineConfig {
                workers: 2,
                chunk_size: MIN_CHUNK_SIZE,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        fs::write(
            root.join("tmp0/big"),
            vec![8u8; (MIN_CHUNK_SIZE * 256) as usize],
        )
        .unwrap();
        let id = engine.submit(1, copy_spec("big", "out"), None).unwrap();
        // Unit ids are allocated from UNIT_ID_BASE; cancelling one must
        // be NotFound (units carry no task entry), never Ok — removing
        // a pending sub-unit would wedge the parent mid-transfer.
        for probe in 0..8 {
            assert!(matches!(
                engine.cancel(UNIT_ID_BASE + probe, None),
                Err((ErrorCode::NotFound, _))
            ));
        }
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, MIN_CHUNK_SIZE * 256);
        engine.shutdown();
    }

    #[test]
    fn shutdown_mid_chunked_transfer_reaches_terminal_state() {
        let root = temp_root("chunk-shutdown");
        let engine = Engine::with_config(
            EngineConfig {
                workers: 1,
                chunk_size: MIN_CHUNK_SIZE,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        // Many chunks on one worker: shutdown lands mid-transfer.
        fs::write(
            root.join("tmp0/big"),
            vec![3u8; (MIN_CHUNK_SIZE * 64) as usize],
        )
        .unwrap();
        let id = engine.submit(1, copy_spec("big", "out"), None).unwrap();
        // Give the planner a moment to decompose, then pull the plug.
        std::thread::sleep(std::time::Duration::from_millis(2));
        engine.shutdown();
        let stats = engine.query(id).unwrap();
        assert!(
            stats.state.is_terminal(),
            "chunked task left in {:?}",
            stats.state
        );
        engine.shutdown();
    }

    #[test]
    fn wait_any_returns_first_completion_and_scopes_ownership() {
        let root = temp_root("waitany");
        let engine = Engine::with_policy(1, 64, Box::new(Fcfs));
        register_tmp0(&engine, &root);
        // Blocker pins the single worker so the two waited tasks are
        // still pending when wait_any parks.
        fs::write(root.join("tmp0/blocker-src"), vec![2u8; 32 << 20]).unwrap();
        let blocker = engine
            .submit(7, copy_spec("blocker-src", "blocker-dst"), None)
            .unwrap();
        let a = engine
            .submit(7, tiny_write("a"), Some(b"aaaa".to_vec()))
            .unwrap();
        let b = engine
            .submit(7, tiny_write("b"), Some(b"bbbb".to_vec()))
            .unwrap();
        // Nothing terminal yet: a short timeout expires.
        assert!(matches!(
            engine.wait_any(&[a, b], 5_000),
            Err((ErrorCode::Timeout, _))
        ));
        // FCFS: `a` finishes first; the batch wait names it.
        let (done, stats) = engine.wait_any(&[a, b], 0).unwrap();
        assert_eq!(done, a);
        assert_eq!(stats.state, TaskState::Finished);
        engine.wait(b, 0).unwrap();
        engine.wait(blocker, 0).unwrap();
        // Degenerate and unauthorized sets.
        assert!(matches!(
            engine.wait_any(&[], 0),
            Err((ErrorCode::BadArgs, _))
        ));
        assert!(matches!(
            engine.wait_any(&[a, 999], 0),
            Err((ErrorCode::NotFound, _))
        ));
        assert!(matches!(
            engine.wait_any_scoped(&[a, b], 0, Some(8)),
            Err((ErrorCode::PermissionDenied, _))
        ));
        // Every id owned by the requester: the scoped wait succeeds.
        let (done, _) = engine.wait_any_scoped(&[b, a], 0, Some(7)).unwrap();
        assert_eq!(done, b, "earliest listed terminal wins");
        assert_eq!(engine.parked_waits(), 0);
        engine.shutdown();
    }

    #[test]
    fn priority_orders_backlog_under_weighted_policy() {
        let root = temp_root("prio");
        let engine = Engine::with_policy(1, 64, Box::new(WeightedPriority::default()));
        register_tmp0(&engine, &root);
        // Blocker occupies the single worker; then a low-priority
        // burst followed by one high-priority task.
        let spec = |path: &str, prio: u8| {
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::MemoryRegion { addr: 0, size: 4 },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: path.into(),
                }),
            )
            .with_priority(prio)
        };
        fs::write(root.join("tmp0/blocker-src"), vec![1u8; 64 << 20]).unwrap();
        let blocker = engine
            .submit(1, copy_spec("blocker-src", "blocker-dst"), None)
            .unwrap();
        let mut low = Vec::new();
        for i in 0..4 {
            low.push(
                engine
                    .submit(1, spec(&format!("low{i}"), 10), Some(b"data".to_vec()))
                    .unwrap(),
            );
        }
        let high = engine
            .submit(1, spec("high", 200), Some(b"data".to_vec()))
            .unwrap();
        let high_stats = engine.wait(high, 0).unwrap();
        assert_eq!(high_stats.state, TaskState::Finished);
        engine.wait(blocker, 0).unwrap();
        for id in &low {
            engine.wait(*id, 0).unwrap();
        }
        // The high-priority task waited less than the earliest
        // low-priority one, despite being submitted last.
        let low_waits: Vec<u64> = low
            .iter()
            .map(|id| engine.query(*id).unwrap().wait_usec)
            .collect();
        assert!(
            low_waits.iter().all(|&w| high_stats.wait_usec <= w),
            "high wait {} vs low waits {:?}",
            high_stats.wait_usec,
            low_waits
        );
        engine.shutdown();
    }

    /// Regression: a bounded-wait subscription racing `shutdown` could
    /// observe the timer-thread slot *after* shutdown joined and
    /// emptied it, and lazily respawn the timer thread — leaking it
    /// past shutdown. The spawn must be gated by the same
    /// `wait_timer` lock that shutdown sets `stop` under, so after
    /// `shutdown` returns the slot stays empty no matter how the race
    /// lands.
    #[test]
    fn wait_arm_racing_shutdown_cannot_respawn_timer_thread() {
        use std::sync::atomic::AtomicBool;
        for round in 0..200u64 {
            let (engine, root) = engine_with_ds("timer-race");
            fs::create_dir_all(root.join("tmp0")).unwrap();
            // A fat copy keeps a worker busy through shutdown's join
            // phase, so bounded waits on it keep arming deadlines
            // while shutdown is tearing the timer down.
            fs::write(root.join("tmp0/blk.dat"), vec![5u8; 16 << 20]).unwrap();
            let blocker = engine
                .submit(1, copy_spec("blk.dat", "out.dat"), None)
                .unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let racers: Vec<_> = (0..3)
                .map(|_| {
                    let eng = Arc::clone(&engine);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            let _ = eng.wait_task_async(blocker, 1, None, Box::new(|_| {}));
                        }
                    })
                })
                .collect();
            // Vary the collision point across rounds.
            std::thread::sleep(std::time::Duration::from_micros(50 * (round % 8)));
            engine.shutdown();
            stop.store(true, Ordering::SeqCst);
            for r in racers {
                r.join().unwrap();
            }
            assert!(
                !engine.wait_timer_alive(),
                "wait-timer thread respawned after shutdown (round {round})"
            );
        }
    }
}
