//! The daemon's task engine: registries, validation, a bounded
//! policy-driven dispatch queue and a worker pool executing real
//! filesystem transfers.
//!
//! This is the real-I/O counterpart of the simulated urd: dataspaces
//! map to directories on the host filesystem, `process memory ⇒ local
//! path` writes an actual buffer, `local ⇒ local` moves real bytes.
//! Like the paper's urd it is one task queue, one worker pool and one
//! error code space ([`EngineError`]); it spawns worker threads and
//! nothing else. This file is the task lifecycle — one admission
//! function ([`Engine::submit`] and the replica path both end in it),
//! dispatch, execution and one completion funnel — behind the
//! [`Engine`] facade; the rest is split by concern:
//!
//! * [`registry`] — dataspaces, jobs, the O(1) `pid → job` index
//!   behind user-socket admission, remote-staging peers, and the
//!   dataspace containment check.
//! * [`shard`] — the task table, id-sharded so traffic on different
//!   tasks stays off one lock.
//! * [`waits`] — every wait, blocking or callback, is a subscription
//!   in one registry keyed by task id, so a completion wakes exactly
//!   its own waiters. Deadlines belong to whoever waits: the engine
//!   owns no clock.
//! * [`transfer`] — the local data plane: transfers larger than the
//!   configured chunk size are decomposed into chunk *sub-units* fed
//!   back through the scheduler one at a time — the worker that
//!   finishes a chunk issues the next — so the policy re-arbitrates
//!   every `chunk_size` (under fair-share or SJF a huge file cannot
//!   monopolize a worker), a cancel lands between chunks, and the
//!   rest of the pool stays free for *other* tasks: one destination
//!   inode takes one writer at a time, so the pool's parallelism is
//!   across files, not inside one. Byte ranges move zero-copy via
//!   `copy_file_range` with a pooled-buffer fallback; `Move` degrades
//!   to `rename()` when source and destination share a filesystem;
//!   and a per-task atomic advances `bytes_moved` live, making
//!   `query()` a real progress API.
//! * [`remote`] — both halves of the TCP data plane. Tasks whose
//!   input or output is a [`ResourceDesc::RemotePath`] route through
//!   the peer registry (`RemotePath.host` → data-plane TCP address)
//!   and stream file ranges to or from the peer daemon as the same
//!   chain of chunk sub-units — one at a time, over the one
//!   connection the transfer holds from its plan to its end, whichever
//!   workers run its units — with the same live progress atomic and
//!   mid-stream cancel; the peer answers them from its `DataServer`,
//!   which the daemon hands every accepted data-plane connection.
//! * [`replication`] — the v8 durability modes: replica pushes behind
//!   a landed stage-out.
//!
//! Task arbitration is shared with the simulated urd via
//! [`norns_sched::Scheduler`] behind a mutex+condvar; the pending set
//! is **bounded** (submissions past the capacity are rejected with
//! [`ErrorCode::Busy`], EAGAIN-style). Workers are woken by one rule
//! (`Engine::wake_worker`): an admission wakes a parked worker only
//! while fewer wakes are on their way than there are parked workers
//! and queued entries for them; the worker that comes out of the wait
//! checks the rule again once it took an entry; a chain's successor
//! wakes nobody (the worker that issues it asks for work next). A
//! burst therefore wakes at most one parked worker per entry, each
//! from the admission that queued it, and a burst that finds every
//! worker busy wakes none.

mod error;
mod registry;
mod remote;
mod replication;
mod shard;
mod transfer;
mod waits;

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use norns_proto::{
    DaemonStatus, Durability, ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskState, TaskStats,
};
use norns_sched::{
    ArbitrationPolicy, Fcfs, JobFairShare, PendingTask, Scheduler, ShortestFirst, WeightedPriority,
};

pub use error::EngineError;
pub use remote::{DEFAULT_REMOTE_WINDOW, MAX_REMOTE_WINDOW};
pub use shard::DEFAULT_SHARDS;
pub use transfer::{DEFAULT_CHUNK_SIZE, MIN_CHUNK_SIZE};
pub use waits::{Subscribed, WaitCallback};

pub(crate) use remote::DataServer;

use registry::Registry;
use remote::{Direction, RemoteTransfer};
use replication::{ReplRequest, ReplState};
use shard::{ShardedTaskTable, TaskEntry};
use transfer::{copy_tree, with_parent, Chain, ChunkedCopy, End, PlanOutcome, Step};
use waits::WaitSubs;

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

/// Why a decomposed transfer that shutdown caught mid-file failed.
const SHUTDOWN_MID_TRANSFER: &str = "daemon shutdown during transfer";

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
    /// Range requests a remote transfer keeps in flight on its
    /// data-plane connection; `1` is stop-and-wait, clamped
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
    /// An undecomposed task: the validated spec, how its endpoints
    /// route, and the caller's buffer for memory-region transfers.
    Whole {
        spec: TaskSpec,
        payload: Option<Vec<u8>>,
        route: Route,
    },
    /// The issued unit of a decomposed transfer (local chunked copy or
    /// remote staging): the chain itself, owned by whoever holds it.
    Chunk(Box<Chain>),
}

/// Pending work behind the dispatch mutex: the shared scheduler holds
/// the arbitration order, `work` the payloads it arbitrates over, and
/// `idle`/`waking` what [`Engine::wake_worker`] decides on.
struct DispatchState {
    sched: Scheduler<u64, u64, u64>,
    work: HashMap<u64, Work>,
    stop: bool,
    /// Workers parked on `dispatch_cv`.
    idle: usize,
    /// Wakes on their way to them: each worker that comes out of the
    /// wait takes one back.
    waking: usize,
}

/// What one dispatched whole task turned into.
enum Outcome {
    /// Completed inline on this worker; bytes moved.
    Done(u64),
    /// Decomposed into a chunked or remote transfer whose units go
    /// through the scheduler.
    Chunked(Box<Chain>),
}

/// The far end of a remote staging leg: a path in a peer's dataspace.
struct RemoteEnd {
    host: String,
    nsid: String,
    path: String,
}

/// How a task's endpoints route through the data plane, decided once
/// at admission. (The far end is boxed so the local tasks that
/// dominate the pending set do not carry its three empty strings.)
enum Route {
    /// Both endpoints on this node (and every `Remove`).
    Local,
    /// `RemotePath` input → local output: fetch from the peer.
    Pull(Box<RemoteEnd>),
    /// Local input → `RemotePath` output: send to the peer.
    Push(Box<RemoteEnd>),
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
    /// 1 once a chain has ended (see [`Engine::peak_chunk_workers`]).
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
    /// Zero of the scheduler's microsecond timestamps.
    started_at: Instant,
    /// Parked waits, blocking and callback alike.
    wait_subs: Mutex<WaitSubs>,
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

fn unknown_peer(host: &str) -> EngineError {
    EngineError::not_found(format!("unknown peer {host:?}; register it first"))
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
                idle: 0,
                waking: 0,
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

    /// Refuse all further client submissions with
    /// [`ErrorCode::SystemError`], ahead of the full teardown in
    /// [`Engine::shutdown`]. The daemon calls this synchronously from
    /// the reactor thread that decoded `DaemonCommand::Shutdown`, so a
    /// pipelined submit behind the shutdown frame can never be
    /// accepted while the join work runs on another thread. Internal
    /// replica tasks are exempt: the replication drain in `shutdown`
    /// still needs them to land.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Stop the worker pool and join every worker thread. Pending
    /// tasks that never ran are marked [`TaskState::Cancelled`]; chunk
    /// sub-units of half-finished transfers are aborted — the queued
    /// ones here, the successor of one still on a worker by that
    /// worker in [`Engine::finish_dispatch`] — so their tasks still
    /// reach a terminal state; waits still parked afterwards are
    /// failed. Idempotent; called by `UrdDaemon` on drop.
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
                let orphaned: Vec<(u64, Work)> = st.work.drain().collect();
                // Their scheduler entries go with them: a successor
                // caught between its issue and its dispatch must not
                // stay queued for a pool that will never dispatch it.
                for (id, _) in &orphaned {
                    st.sched.cancel_pending(*id);
                }
                orphaned
            }
        };
        self.dispatch_cv.notify_all();
        for (id, work) in orphaned {
            match work {
                Work::Whole { .. } => self.mark_cancelled(id),
                Work::Chunk(chain) => self.chain_ended(chain.abort(SHUTDOWN_MID_TRANSFER)),
            }
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
        self.fail_parked_waits();
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

    /// Record a listener `accept(2)` failure (EMFILE and friends) —
    /// called by the daemon's reactor so storms show up in `status`.
    pub fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::SeqCst);
    }

    /// A control/user connection was accepted.
    pub fn conn_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::SeqCst);
    }

    /// A control/user connection was closed.
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::SeqCst);
    }

    /// Tasks cancelled before they ran.
    pub fn cancelled_tasks(&self) -> u64 {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Workers that ever moved chunks of one transfer at once. Kept for
    /// `benchmark/`'s `engine.peak_chunk_workers` alone: a chain has one
    /// owner, so it reads 1 once a chain has ended (0 before) and can
    /// read nothing else.
    pub fn peak_chunk_workers(&self) -> u64 {
        self.peak_chunk_workers.load(Ordering::Relaxed)
    }

    /// Advertise this engine's own data-plane address (shown in
    /// [`DaemonStatus::data_addr`]); called by the daemon after its
    /// TCP listener is bound.
    pub fn set_data_addr(&self, addr: impl Into<String>) {
        *self.data_addr.lock() = addr.into();
    }

    // ---- task lifecycle ----

    fn resolve(&self, r: &ResourceDesc) -> Result<PathBuf, EngineError> {
        match r {
            ResourceDesc::PosixPath { nsid, path } => self.resolve_local(nsid, path),
            ResourceDesc::RemotePath { .. } => Err(EngineError::bad_args(
                "remote endpoint has no local path (routing bug)",
            )),
            ResourceDesc::MemoryRegion { .. } => {
                Err(EngineError::bad_args("memory region has no path"))
            }
        }
    }

    /// Classify a task's endpoints. Rejects the remote combinations
    /// the data plane does not speak.
    fn route_of(spec: &TaskSpec) -> Result<Route, EngineError> {
        let remote_end = |r: &ResourceDesc| match r {
            ResourceDesc::RemotePath { host, nsid, path } => Some(Box::new(RemoteEnd {
                host: host.clone(),
                nsid: nsid.clone(),
                path: path.clone(),
            })),
            _ => None,
        };
        match (
            remote_end(&spec.input),
            spec.output.as_ref().and_then(remote_end),
        ) {
            (Some(_), Some(_)) => Err(EngineError::bad_args(
                "remote-to-remote relay is not supported; stage through a local dataspace",
            )),
            (Some(from), None) => Ok(Route::Pull(from)),
            (None, Some(_)) if matches!(spec.input, ResourceDesc::MemoryRegion { .. }) => {
                Err(EngineError::bad_args(
                    "memory → remote staging is not supported; stage to a local dataspace first",
                ))
            }
            (None, Some(to)) => Ok(Route::Push(to)),
            (None, None) => Ok(Route::Local),
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
    ) -> Result<u64, EngineError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(EngineError::new(
                ErrorCode::SystemError,
                "daemon shutting down",
            ));
        }
        if !self.accepting.load(Ordering::SeqCst) {
            return Err(EngineError::new(ErrorCode::NotRegistered, "daemon paused"));
        }
        let route = Self::route_of(&spec);
        // Durability modes (v8) only make sense for a local stage-out:
        // the landed output file is what the background queue pushes.
        // Everything else must say `local_only` explicitly.
        let replicate =
            match (&spec.output, spec.durability) {
                (_, Durability::LocalOnly) => None,
                (Some(ResourceDesc::PosixPath { nsid, path }), durability)
                    if spec.op == TaskOp::Copy && matches!(route, Ok(Route::Local)) =>
                {
                    Some(ReplRequest {
                        synchronous: durability == Durability::Synchronous,
                        nsid: nsid.clone(),
                        path: path.clone(),
                        priority: spec.priority,
                    })
                }
                _ => return Err(EngineError::bad_args(
                    "durability modes apply only to local copy tasks with a dataspace-path output",
                )),
            };
        // Shape validation mirrors the simulated controller.
        let (route, bytes_total) = match spec.op {
            TaskOp::Remove => {
                if spec.output.is_some() {
                    return Err(EngineError::bad_args("remove takes no output"));
                }
                if matches!(spec.input, ResourceDesc::RemotePath { .. }) {
                    return Err(EngineError::bad_args(
                        "remote remove is not supported; submit it on the owning daemon",
                    ));
                }
                self.resolve(&spec.input)?;
                (Route::Local, 0)
            }
            TaskOp::Copy | TaskOp::Move => {
                let out = spec
                    .output
                    .as_ref()
                    .ok_or_else(|| EngineError::bad_args("copy/move require an output"))?;
                let route = route?;
                let bytes_total = match &route {
                    Route::Local => self.validate_local(&spec.input, out, payload.as_deref())?,
                    Route::Pull(end) | Route::Push(end) => {
                        // Remote staging is copy-only: a cross-node
                        // `Move` would need a remote unlink the data
                        // plane does not speak.
                        if spec.op != TaskOp::Copy {
                            return Err(EngineError::bad_args(
                                "only copy tasks may cross nodes; stage a copy and remove the \
                                 source separately",
                            ));
                        }
                        // Unknown peers are a submission error, not a
                        // task failure: fail fast with NotFound.
                        self.peer_addr(&end.host)
                            .ok_or_else(|| unknown_peer(&end.host))?;
                        if matches!(route, Route::Pull(_)) {
                            // Local destination must resolve; the
                            // remote size is only known once a worker
                            // probes the peer, so the estimate stays 0
                            // ("unknown" to SJF).
                            self.resolve(out)?;
                            0
                        } else {
                            let meta = fs::metadata(self.resolve(&spec.input)?)?;
                            if meta.is_dir() {
                                return Err(EngineError::bad_args(
                                    "directory trees cannot be staged to a remote node",
                                ));
                            }
                            meta.len()
                        }
                    }
                };
                (route, bytes_total)
            }
        };
        let task_id = self.next_task.fetch_add(1, Ordering::SeqCst);
        self.admit(task_id, job, bytes_total, spec, payload, route, replicate)?;
        Ok(task_id)
    }

    /// Validate a same-node copy/move; returns the size estimate that
    /// feeds size-aware policies (SJF).
    fn validate_local(
        &self,
        input: &ResourceDesc,
        out: &ResourceDesc,
        payload: Option<&[u8]>,
    ) -> Result<u64, EngineError> {
        let dst = self.resolve(out)?;
        if let ResourceDesc::MemoryRegion { size, .. } = input {
            let got = payload.map_or(0, |p| p.len() as u64);
            if got != *size {
                return Err(EngineError::bad_args(format!(
                    "memory payload {got} != declared size {size}"
                )));
            }
            return Ok(*size);
        }
        let src = self.resolve(input)?;
        // A destination equal to or inside the source would make the
        // recursive copy re-copy its own output forever (dst appears
        // in src's listing) and blow the worker's stack.
        if dst.starts_with(&src) {
            return Err(EngineError::bad_args(format!(
                "destination {} is inside source {}",
                dst.display(),
                src.display()
            )));
        }
        // Directories and races degrade to "unknown" (a dirent's own
        // length would invert SJF for tree copies).
        Ok(fs::metadata(&src)
            .map(|m| if m.is_dir() { 0 } else { m.len() })
            .unwrap_or(0))
    }

    /// The one admission: make a validated task visible and
    /// dispatchable, or leave no trace of it. Client tasks are bounced
    /// with [`ErrorCode::Busy`] past the capacity bound; replicas
    /// (`owner == REPLICA_OWNER`) go in past it on purpose — admission
    /// control pushes back on clients, and bouncing a replica would
    /// silently void an accepted task's durability guarantee.
    /// `replicate` rides in the task's own record until its local leg
    /// lands.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        task_id: u64,
        owner: u64,
        bytes_total: u64,
        spec: TaskSpec,
        payload: Option<Vec<u8>>,
        route: Route,
        replicate: Option<ReplRequest>,
    ) -> Result<(), EngineError> {
        let priority = spec.priority;
        let now_us = self.started_at.elapsed().as_micros() as u64;
        {
            // Admission before the task becomes visible: a rejection
            // must leave no trace in the task table.
            let mut st = self.dispatch.lock();
            if st.stop {
                return Err(EngineError::new(
                    ErrorCode::SystemError,
                    "worker pool stopped",
                ));
            }
            if owner == REPLICA_OWNER {
                st.sched
                    .enqueue_internal(task_id, owner, bytes_total, priority, now_us);
            } else {
                st.sched
                    .try_enqueue(task_id, owner, bytes_total, priority, now_us)
                    .map_err(|full| {
                        EngineError::new(ErrorCode::Busy, format!("{full}; retry later (EAGAIN)"))
                    })?;
            }
            let work = Work::Whole {
                spec,
                payload,
                route,
            };
            st.work.insert(task_id, work);
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
                    owner,
                    error_message: None,
                    progress: Arc::new(AtomicU64::new(0)),
                    abort: Arc::new(AtomicBool::new(false)),
                    abortable: false,
                    replicate,
                },
            );
            self.pending_count.fetch_add(1, Ordering::SeqCst);
            self.wake_worker(st);
        }
        Ok(())
    }

    /// The one worker wake (the rule is in the module docs), called
    /// with the dispatch lock held after an admission and by a woken
    /// worker that took an entry. A parked worker is a free scheduler
    /// slot, so `min(idle, pending)` is how many dispatches could start
    /// now ([`Scheduler::can_dispatch`] only says whether one could).
    /// Notifies after unlocking, so the woken worker does not block on
    /// the mutex it was woken to take.
    fn wake_worker(&self, mut st: MutexGuard<'_, DispatchState>) {
        let wake = st.waking < st.idle.min(st.sched.pending_len());
        st.waking += usize::from(wake);
        drop(st);
        if wake {
            self.dispatch_cv.notify_one();
        }
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
    fn check_owner(&self, task_id: u64, requester: Option<u64>) -> Result<(), EngineError> {
        match self.tasks.read(task_id, |t| t.owner) {
            None => Err(EngineError::not_found(format!("task {task_id}"))),
            Some(owner) if requester.is_some_and(|who| owner != who) => Err(EngineError::new(
                ErrorCode::PermissionDenied,
                format!("task {task_id} belongs to another submitter"),
            )),
            Some(_) => Ok(()),
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
    pub fn cancel(&self, task_id: u64, requester: Option<u64>) -> Result<(), EngineError> {
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
        let stats = self.query_scoped(task_id, None)?;
        let why = match stats.state {
            TaskState::InProgress => "already running",
            // A worker can hold the task between dispatch and the
            // InProgress transition; the table still says Pending.
            TaskState::Pending => "is being dispatched",
            _ => "already finished",
        };
        Err(EngineError::new(
            ErrorCode::TaskError,
            format!("task {task_id} {why}"),
        ))
    }

    /// Transition a pending task to `Cancelled` and notify its
    /// waiters. Counters move inside the shard-locked closure, before
    /// the notification: anyone it unblocks must already see them
    /// updated.
    fn mark_cancelled(&self, task_id: u64) {
        let cancelled = self
            .tasks
            .update(task_id, |t| {
                if t.stats.state == TaskState::Pending {
                    t.stats.state = TaskState::Cancelled;
                    t.stats.wait_usec = t.submitted_at.elapsed().as_micros() as u64;
                    self.pending_count.fetch_sub(1, Ordering::SeqCst);
                    self.cancelled.fetch_add(1, Ordering::SeqCst);
                    Some((t.stats.clone(), t.owner))
                } else {
                    None
                }
            })
            .flatten();
        if let Some((stats, owner)) = cancelled {
            // A cancelled *replica* must drain the lag counters and
            // resolve its parent (shutdown cancels pending replicas
            // through this path).
            self.notify_task_waiters(task_id, &stats);
            self.note_replica_done(task_id, owner, &stats);
        }
    }

    /// Worker thread: pull dispatchable entries (whole tasks and chunk
    /// sub-units) through the shared scheduler until shutdown.
    fn worker_loop(&self) {
        loop {
            let (pending, work) = {
                let mut st = self.dispatch.lock();
                let mut woken = false;
                let taken = loop {
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
                    st.idle += 1;
                    self.dispatch_cv.wait(&mut st);
                    st.idle -= 1;
                    // (Saturating: a spurious wake-up takes back a wake
                    // that is still on its way.)
                    st.waking = st.waking.saturating_sub(1);
                    woken = true;
                };
                if woken {
                    self.wake_worker(st);
                }
                taken
            };
            let step = match work {
                Work::Whole {
                    spec,
                    payload,
                    route,
                } => self.execute_whole(pending.task, &spec, payload.as_deref(), &route),
                Work::Chunk(chain) => Some(chain.step()),
            };
            self.finish_dispatch(&pending, step);
        }
    }

    /// Close one dispatch: settle the `step` of a chain it ran, if it
    /// ran one, and free the worker slot. A chain that ended is its
    /// task's terminal transition; one handed back is issued again in
    /// the critical section that frees the slot. The successor carries
    /// the dispatched entry's job / priority / size / seq, so
    /// arbitration treats it exactly like its parent: FCFS puts it
    /// back at the head of the line, SJF and fair-share weigh it
    /// against whatever arrived meanwhile. No wake: this worker is
    /// about to ask the scheduler for work itself.
    fn finish_dispatch(&self, done: &PendingTask<u64, u64, u64>, step: Option<Step>) {
        let successor = match step {
            Some(Step::Next(chain)) => Some(chain),
            Some(Step::End(end)) => {
                self.chain_ended(end);
                None
            }
            None => None,
        };
        let mut st = self.dispatch.lock();
        st.sched.finish();
        let Some(chain) = successor else { return };
        if st.stop {
            // Nobody will dispatch it: the chain ends here.
            drop(st);
            self.chain_ended(chain.abort(SHUTDOWN_MID_TRANSFER));
            return;
        }
        let unit_id = self.next_unit.fetch_add(1, Ordering::SeqCst);
        st.work.insert(unit_id, Work::Chunk(chain));
        st.sched.enqueue_unit(PendingTask {
            task: unit_id,
            ..*done
        });
    }

    /// A chain ended — on the worker that ran its last unit, or where
    /// shutdown found its issued unit — and its task with it.
    fn chain_ended(&self, end: End) {
        self.peak_chunk_workers.store(1, Ordering::Relaxed);
        self.complete_task(end.task_id, end.outcome, end.elapsed_usec);
    }

    /// Worker-thread execution of one whole task. One that decomposes
    /// into a chunked or remote transfer on the way runs the chain's
    /// first unit here and returns what that left.
    fn execute_whole(
        &self,
        task_id: u64,
        spec: &TaskSpec,
        payload: Option<&[u8]>,
        route: &Route,
    ) -> Option<Step> {
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
        let outcome = match self.run_transfer(task_id, spec, payload, route, &progress, &abort) {
            Ok(Outcome::Chunked(chain)) => {
                // The chain honors the abort flag: from here on a cancel
                // interrupts the transfer mid-stream.
                self.tasks.update(task_id, |t| t.abortable = true);
                return Some(chain.step());
            }
            Ok(Outcome::Done(moved)) => PlanOutcome::Done(moved),
            Err(e) => PlanOutcome::Failed(e),
        };
        self.complete_task(task_id, outcome, start.elapsed().as_micros() as u64);
        None
    }

    /// Funnel for every worker-driven terminal transition. A landed
    /// stage-out with a replication request spawns its background
    /// replicas here — and in `synchronous` mode the terminal
    /// transition itself is deferred until they land, so the caller's
    /// ACK can never precede the durability guarantee.
    fn complete_task(&self, task_id: u64, outcome: PlanOutcome, elapsed_usec: u64) {
        let request = self.tasks.update(task_id, |t| t.replicate.take());
        if let Some(req) = request.flatten() {
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
        let finished = self.tasks.update(task_id, |t| {
            let mut cancelled = false;
            match outcome {
                PlanOutcome::Done(moved) => {
                    t.stats.state = TaskState::Finished;
                    t.stats.bytes_moved = moved;
                    t.stats.bytes_total = t.stats.bytes_total.max(moved);
                }
                PlanOutcome::Failed(e) => {
                    t.stats.state = TaskState::FinishedWithError;
                    t.stats.error = e.code;
                    t.error_message = Some(e.message);
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
            (t.stats.clone(), t.owner)
        });
        if let Some((stats, owner)) = finished {
            self.notify_task_waiters(task_id, &stats);
            self.note_replica_done(task_id, owner, &stats);
        }
    }

    /// Execute (or plan) one transfer. Large single-file copies and
    /// every remote transfer return [`Outcome::Chunked`] instead of
    /// blocking this worker for the whole file.
    fn run_transfer(
        &self,
        task_id: u64,
        spec: &TaskSpec,
        payload: Option<&[u8]>,
        route: &Route,
        progress: &Arc<AtomicU64>,
        abort: &Arc<AtomicBool>,
    ) -> Result<Outcome, EngineError> {
        let (input, out) = match (spec.op, &spec.output, route) {
            (TaskOp::Remove, ..) => {
                let path = self.resolve(&spec.input)?;
                // symlink_metadata: removing a symlink removes the
                // link, never its target's tree.
                if fs::symlink_metadata(&path)?.is_dir() {
                    fs::remove_dir_all(&path)?;
                } else {
                    fs::remove_file(&path)?;
                }
                return Ok(Outcome::Done(0));
            }
            (_, None, _) => return Err(EngineError::bad_args("copy/move require an output")),
            // Planning does network round-trips — a size probe for
            // pulls, a preallocating `Prepare` for pushes — which is
            // why it runs here on a worker and not in `submit`.
            (_, Some(out), Route::Pull(from)) => {
                return self.plan_remote(task_id, Direction::Pull, from, out, progress, abort)
            }
            (_, Some(_), Route::Push(to)) => {
                return self.plan_remote(task_id, Direction::Push, to, &spec.input, progress, abort)
            }
            (_, Some(out), Route::Local) => (&spec.input, out),
        };
        let dst = self.resolve(out)?;
        if let ResourceDesc::MemoryRegion { .. } = input {
            // Table II: process memory ⇒ local path.
            let buf = payload.unwrap_or(&[]);
            with_parent(&dst, |dst| fs::write(dst, buf))?;
            progress.fetch_add(buf.len() as u64, Ordering::Relaxed);
            return Ok(Outcome::Done(buf.len() as u64));
        }
        // Table II: local path ⇒ local path.
        let src = self.resolve(input)?;
        let meta = fs::symlink_metadata(&src)?;
        if spec.op == TaskOp::Move {
            match with_parent(&dst, |dst| fs::rename(&src, dst)) {
                Ok(()) => {
                    // Same-filesystem move: a rename moves no bytes;
                    // report the file's size as the data made available
                    // (0 for trees — nothing was physically copied).
                    let moved = if meta.is_file() { meta.len() } else { 0 };
                    progress.fetch_add(moved, Ordering::Relaxed);
                    return Ok(Outcome::Done(moved));
                }
                // Across filesystems a move is a copy, then a delete.
                Err(e) if e.kind() == io::ErrorKind::CrossesDevices => {}
                // Anything else — a non-empty directory in the way
                // above all — is the task's answer: copying over it
                // would merge the two trees and then delete the source.
                Err(e) => return Err(e.into()),
            }
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
            )?;
            return Ok(Outcome::Chunked(plan));
        }
        let moved = copy_tree(&src, &dst, progress)?;
        if spec.op == TaskOp::Move {
            if meta.is_dir() {
                fs::remove_dir_all(&src)?;
            } else {
                fs::remove_file(&src)?;
            }
        }
        Ok(Outcome::Done(moved))
    }

    /// Plan a remote staging transfer between `local` on this node and
    /// `remote` on a peer.
    fn plan_remote(
        &self,
        task_id: u64,
        direction: Direction,
        remote: &RemoteEnd,
        local: &ResourceDesc,
        progress: &Arc<AtomicU64>,
        abort: &Arc<AtomicBool>,
    ) -> Result<Outcome, EngineError> {
        // Re-resolved at execution: the registry may have changed since
        // submission.
        let addr = self
            .peer_addr(&remote.host)
            .ok_or_else(|| unknown_peer(&remote.host))?;
        let plan = RemoteTransfer::plan(
            task_id,
            direction,
            &addr,
            &remote.nsid,
            &remote.path,
            &self.resolve(local)?,
            self.chunk_size,
            self.remote_window,
            Arc::clone(progress),
            Arc::clone(abort),
        )?;
        // A pull's submit-time estimate was 0 (remote size unknown);
        // the plan makes `query()` report a real total.
        self.tasks
            .update(task_id, |t| t.stats.bytes_total = plan.size());
        Ok(Outcome::Chunked(plan))
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
    ) -> Result<TaskStats, EngineError> {
        self.check_owner(task_id, requester)?;
        self.query(task_id)
            .ok_or_else(|| EngineError::not_found(format!("task {task_id}")))
    }

    pub fn clear_completions(&self) {
        self.tasks.retain(|t| !t.stats.state.is_terminal());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use norns_proto::{DataspaceDesc, JobDesc};
    use std::path::Path;

    pub(crate) fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("norns-ipc-engine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    pub(crate) fn register_tmp0(engine: &Engine, root: &Path) {
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

    /// One worker, so queued tasks stay queued behind a running one.
    fn one_worker(queue_capacity: usize, policy: IpcPolicy) -> Arc<Engine> {
        let config = EngineConfig {
            workers: 1,
            queue_capacity,
            ..EngineConfig::default()
        };
        Engine::with_config(config, policy)
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
        assert!(matches!(
            err,
            Err(EngineError {
                code: ErrorCode::NotFound,
                ..
            })
        ));
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
                matches!(
                    err,
                    Err(EngineError {
                        code: ErrorCode::PermissionDenied,
                        ..
                    })
                ),
                "path {escape:?} must be denied, got {err:?}"
            );
        }
        engine.shutdown();
    }

    pub(crate) fn tiny_write(path: &str) -> TaskSpec {
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
        let engine = one_worker(64, Box::new(Fcfs));
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
                    Err(e) => {
                        assert_eq!(e.code, ErrorCode::Timeout);
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
        assert!(engine.process_known(100) && engine.process_known(200));
        // Removing pid 100 from job 1 keeps its job-2 registration —
        // and only that one: a second removal from job 1 finds nothing.
        engine.remove_process(1, 100).unwrap();
        assert!(engine.process_known(100));
        assert!(engine.remove_process(1, 100).is_err());
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
        let engine = one_worker(2, Box::new(Fcfs));
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
                Err(e) if e.code == ErrorCode::Busy => {
                    busy += 1;
                    assert!(e.message.contains("full"));
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
        let engine = one_worker(64, Box::new(Fcfs));
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
            Err(e) => assert_eq!(e.code, ErrorCode::TaskError),
        }
        engine.wait(blocker, 0).unwrap();
        assert!(matches!(
            engine.cancel(999, None),
            Err(EngineError {
                code: ErrorCode::NotFound,
                ..
            })
        ));
        engine.shutdown();
    }

    #[test]
    fn shutdown_joins_workers_and_cancels_backlog() {
        let root = temp_root("shutdown");
        let engine = one_worker(64, Box::new(Fcfs));
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
        assert!(matches!(
            err,
            Err(EngineError {
                code: ErrorCode::SystemError,
                ..
            })
        ));
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
                Err(EngineError {
                    code: ErrorCode::NotFound,
                    ..
                })
            ));
        }
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, MIN_CHUNK_SIZE * 256);
        engine.shutdown();
    }

    /// `units` chunks of [`MIN_CHUNK_SIZE`] in `tmp0/<name>`.
    fn write_chunks(root: &Path, name: &str, units: u64) {
        fs::write(
            root.join("tmp0").join(name),
            vec![3u8; (MIN_CHUNK_SIZE * units) as usize],
        )
        .unwrap();
    }

    /// An FCFS engine cutting copies into [`MIN_CHUNK_SIZE`] chunks.
    fn chunking_engine(tag: &str, workers: usize) -> (Arc<Engine>, PathBuf) {
        let root = temp_root(tag);
        let engine = Engine::with_config(
            EngineConfig {
                workers,
                chunk_size: MIN_CHUNK_SIZE,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        (engine, root)
    }

    /// Spin until `cond` holds (bounded: a stuck engine fails the test
    /// instead of hanging it).
    pub(crate) fn spin_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// Submit a 1024-chunk copy and return once its chain is under
    /// way: some chunks copied, most of the file still to go.
    fn copy_mid_file(engine: &Engine, root: &Path) -> u64 {
        write_chunks(root, "big", 1024);
        let id = engine.submit(1, copy_spec("big", "out"), None).unwrap();
        spin_until("the first chunks", || {
            engine.query(id).unwrap().bytes_moved >= 2 * MIN_CHUNK_SIZE
        });
        id
    }

    /// Nothing of a finished chain is left in the scheduler, and the
    /// status counters account the one task exactly once.
    pub(crate) fn assert_chain_gone(engine: &Engine, completed: u64, cancelled: u64) {
        // (The waiter is woken from inside the last dispatch, so the
        // worker slot may be a moment behind the terminal state.)
        spin_until("the worker slot", || {
            engine.dispatch.lock().sched.running() == 0
        });
        let st = engine.dispatch.lock();
        assert!(st.work.is_empty(), "a unit outlived its transfer");
        assert_eq!(st.sched.pending_len(), 0);
        drop(st);
        let status = engine.status();
        assert_eq!(
            (status.pending_tasks, status.running_tasks),
            (0, 0),
            "counters must balance"
        );
        assert_eq!(
            (status.completed_tasks, status.cancelled_tasks),
            (completed, cancelled)
        );
    }

    #[test]
    fn chain_shutdown_mid_file_fails_the_task_and_removes_the_destination() {
        let (engine, root) = chunking_engine("chain-shutdown", 2);
        let id = copy_mid_file(&engine, &root);
        // The one issued unit is on a worker: that worker finds `stop`
        // when it comes to issue the successor, and retires the rest.
        engine.shutdown();
        let stats = engine.query(id).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.error, ErrorCode::SystemError);
        assert!(engine.error_message(id).unwrap().contains("shutdown"));
        assert!(stats.bytes_moved < stats.bytes_total);
        assert!(
            !root.join("tmp0/out").exists(),
            "the preallocated destination must not survive"
        );
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown(); // idempotent
        let _ = fs::remove_dir_all(&root);
    }

    /// Regression: shutdown drained a queued successor's work but left
    /// its scheduler entry behind. Pulls from peers that never answer
    /// hold the one worker: the first until `big` and the second pull
    /// are both queued, the second — job-fair, another job — from the
    /// end of `big`'s first unit until shutdown has drained.
    #[test]
    fn chain_shutdown_drops_a_queued_successor_from_the_scheduler() {
        let root = temp_root("chain-shutdown-queued");
        let engine = Engine::with_config(
            EngineConfig {
                workers: 1,
                chunk_size: MIN_CHUNK_SIZE,
                ..EngineConfig::default()
            },
            Box::new(JobFairShare::default()),
        );
        register_tmp0(&engine, &root);
        let pull = |peer: &str, job: u64| {
            let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            engine.register_peer(peer, silent.local_addr().unwrap().to_string());
            let spec = TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::RemotePath {
                    host: peer.into(),
                    nsid: "tmp0".into(),
                    path: "never".into(),
                },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: peer.into(),
                }),
            );
            let id = engine.submit(job, spec, None).unwrap();
            (id, silent)
        };
        let on_worker = |id| engine.query(id).unwrap().state == TaskState::InProgress;
        let (held, first) = pull("first", 3);
        spin_until("the first pull on the worker", || on_worker(held));
        write_chunks(&root, "big", 64);
        let big = engine.submit(1, copy_spec("big", "big.out"), None).unwrap();
        let (blocker, second) = pull("second", 2);
        drop(first); // resets the first pull
        spin_until("the second pull on the worker", || on_worker(blocker));
        std::thread::scope(|scope| {
            scope.spawn(|| engine.shutdown());
            spin_until("the drain", || engine.dispatch.lock().stop);
            drop(second);
        });
        for id in [held, big, blocker] {
            assert_eq!(
                engine.query(id).unwrap().state,
                TaskState::FinishedWithError
            );
        }
        assert!(engine.error_message(big).unwrap().contains("shutdown"));
        assert_chain_gone(&engine, 3, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chain_cancel_between_chunks_issues_no_further_unit() {
        let (engine, root) = chunking_engine("chain-cancel", 2);
        let id = copy_mid_file(&engine, &root);
        engine.cancel(id, None).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Cancelled);
        assert!(stats.bytes_moved < stats.bytes_total);
        assert!(!root.join("tmp0/out").exists());
        // The worker that saw the cancel retired every unit not yet
        // issued: far fewer than the 1023 successors went out, and
        // none is queued now.
        let issued = engine.next_unit.load(Ordering::SeqCst) - UNIT_ID_BASE;
        assert!(issued < 1023, "{issued} units issued");
        assert_chain_gone(&engine, 0, 1);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chain_failed_chunk_fails_the_task_once() {
        let (engine, root) = chunking_engine("chain-fail", 2);
        let id = copy_mid_file(&engine, &root);
        // The source shrinks under the copy: the next chunk comes up
        // short, and a short chunk is a failure, not a hole.
        fs::File::options()
            .write(true)
            .open(root.join("tmp0/big"))
            .unwrap()
            .set_len(0)
            .unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.error, ErrorCode::SystemError);
        let why = engine.error_message(id).unwrap();
        assert!(why.contains("local source truncated at byte"), "{why}");
        assert!(!root.join("tmp0/out").exists());
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    /// What one lane per file buys: the pool's other workers.
    #[test]
    fn chain_leaves_the_other_worker_to_other_tasks() {
        let (engine, root) = chunking_engine("chain-overlap", 2);
        write_chunks(&root, "a", 1024);
        write_chunks(&root, "b", 1024);
        let a = engine.submit(1, copy_spec("a", "a.out"), None).unwrap();
        let b = engine.submit(1, copy_spec("b", "b.out"), None).unwrap();
        // FCFS, two workers, two files: one chain each, side by side —
        // not both workers on `a` with `b` queued behind its chunks.
        let state = |id| engine.query(id).unwrap().state;
        spin_until("both copies in progress at once", || {
            assert!(!state(a).is_terminal(), "`a` finished before `b` started");
            state(a) == TaskState::InProgress && state(b) == TaskState::InProgress
        });
        let (a, b) = (engine.wait(a, 0).unwrap(), engine.wait(b, 0).unwrap());
        assert_eq!(a.state, TaskState::Finished);
        assert_eq!(b.state, TaskState::Finished);
        assert!(
            b.wait_usec * 4 < a.elapsed_usec,
            "`b` queued {} µs behind a copy of {} µs",
            b.wait_usec,
            a.elapsed_usec
        );
        assert_eq!(
            fs::read(root.join("tmp0/b.out")).unwrap().len() as u64,
            b.bytes_total
        );

        // A small task behind a large copy does not wait for it.
        let big = engine.submit(1, copy_spec("a", "a2.out"), None).unwrap();
        let small = engine
            .submit(1, tiny_write("small"), Some(b"abcd".to_vec()))
            .unwrap();
        assert_eq!(engine.wait(small, 0).unwrap().state, TaskState::Finished);
        assert_eq!(
            state(big),
            TaskState::InProgress,
            "the small task must finish first"
        );
        assert_eq!(engine.wait(big, 0).unwrap().state, TaskState::Finished);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    /// A copy onto another name of the source — a hard link, a symlink
    /// — would truncate the source when it opened its destination.
    #[test]
    fn copy_onto_an_alias_of_the_source_is_refused_and_leaves_it_intact() {
        let (engine, root) = chunking_engine("alias", 2);
        let mount = root.join("tmp0");
        // One size below the chunk size (`copy_file`), one above
        // (`ChunkedCopy::plan`).
        for (n, len) in [1_000usize, 100_000].into_iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let src = format!("src{n}");
            fs::write(mount.join(&src), &data).unwrap();
            let (hard, soft) = (format!("hard{n}"), format!("soft{n}"));
            fs::hard_link(mount.join(&src), mount.join(&hard)).unwrap();
            std::os::unix::fs::symlink(&src, mount.join(&soft)).unwrap();
            for alias in [&hard, &soft] {
                let id = engine.submit(1, copy_spec(&src, alias), None).unwrap();
                let stats = engine.wait(id, 0).unwrap();
                assert_eq!(stats.state, TaskState::FinishedWithError, "{alias}");
                assert_eq!(stats.error, ErrorCode::BadArgs, "{alias}");
                let why = engine.error_message(id).unwrap();
                assert!(why.contains(&src) && why.contains(alias.as_str()), "{why}");
                assert!(
                    fs::read(mount.join(&src)).unwrap() == data,
                    "copy {src} → {alias} damaged the source"
                );
            }
            assert!(
                fs::symlink_metadata(mount.join(&soft))
                    .unwrap()
                    .is_symlink(),
                "a refused copy leaves the alias alone"
            );
        }
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wait_any_returns_first_completion_and_scopes_ownership() {
        let root = temp_root("waitany");
        let engine = one_worker(64, Box::new(Fcfs));
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
            Err(EngineError {
                code: ErrorCode::Timeout,
                ..
            })
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
            Err(EngineError {
                code: ErrorCode::BadArgs,
                ..
            })
        ));
        assert!(matches!(
            engine.wait_any(&[a, 999], 0),
            Err(EngineError {
                code: ErrorCode::NotFound,
                ..
            })
        ));
        assert!(matches!(
            engine.wait_any_scoped(&[a, b], 0, Some(8)),
            Err(EngineError {
                code: ErrorCode::PermissionDenied,
                ..
            })
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
        let engine = one_worker(64, Box::new(WeightedPriority::default()));
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

    fn move_spec(path_in: &str, path_out: &str) -> TaskSpec {
        TaskSpec {
            op: TaskOp::Move,
            ..copy_spec(path_in, path_out)
        }
    }

    /// Regression: any failed `rename` used to fall back to
    /// copy-then-delete, so a move onto a non-empty directory merged
    /// the two trees (the source's `x` over the destination's) and
    /// deleted the source.
    #[test]
    fn move_onto_a_non_empty_directory_fails_and_keeps_both() {
        let (engine, root) = engine_with_ds("move-nonempty");
        let mount = root.join("tmp0");
        fs::create_dir_all(mount.join("a")).unwrap();
        fs::create_dir_all(mount.join("b")).unwrap();
        fs::write(mount.join("a/x"), b"a's x").unwrap();
        fs::write(mount.join("b/x"), b"b's x").unwrap();
        fs::write(mount.join("b/y"), b"b's y").unwrap();
        let id = engine.submit(1, move_spec("a", "b"), None).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.error, ErrorCode::SystemError, "ENOTEMPTY");
        assert_eq!(fs::read(mount.join("a/x")).unwrap(), b"a's x");
        assert_eq!(fs::read(mount.join("b/x")).unwrap(), b"b's x");
        assert_eq!(fs::read(mount.join("b/y")).unwrap(), b"b's y");
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    /// A callback a settled wait must never run.
    fn never_called() -> WaitCallback {
        Box::new(|result| panic!("a settled wait ran its callback: {result:?}"))
    }

    fn answered_now(sub: Subscribed) -> Result<(u64, TaskStats), EngineError> {
        match sub {
            Subscribed::Now(result) => result,
            Subscribed::Parked(sub_id) => panic!("a settled wait parked as {sub_id}"),
        }
    }

    #[test]
    fn wake_settled_waits_are_answered_now_and_drop_the_callback() {
        let (engine, root) = engine_with_ds("wake-now");
        let id = engine
            .submit(7, tiny_write("now"), Some(b"abcd".to_vec()))
            .unwrap();
        engine.wait(id, 0).unwrap();
        let code = |sub| answered_now(sub).unwrap_err().code;
        // Terminal: the stats, either call, with or without a scope.
        let (done, stats) = answered_now(engine.wait_task_async(id, None, never_called())).unwrap();
        assert_eq!((done, stats.state), (id, TaskState::Finished));
        let (done, _) =
            answered_now(engine.wait_any_async(&[id], Some(7), never_called())).unwrap();
        assert_eq!(done, id);
        // Unknown.
        let unknown = engine.wait_task_async(999, None, never_called());
        assert_eq!(code(unknown), ErrorCode::NotFound);
        let unknown = engine.wait_any_async(&[id, 999], None, never_called());
        assert_eq!(code(unknown), ErrorCode::NotFound);
        // A foreign requester.
        let foreign = engine.wait_task_async(id, Some(8), never_called());
        assert_eq!(code(foreign), ErrorCode::PermissionDenied);
        let foreign = engine.wait_any_async(&[id], Some(8), never_called());
        assert_eq!(code(foreign), ErrorCode::PermissionDenied);
        assert_eq!(engine.parked_waits(), 0);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wake_pending_wait_parks_and_its_callback_fires_once() {
        let root = temp_root("wake-parked");
        let engine = one_worker(64, Box::new(Fcfs));
        register_tmp0(&engine, &root);
        // The blocker pins the single worker, so the victim is pending
        // when its waits subscribe.
        fs::write(root.join("tmp0/blocker-src"), vec![2u8; 32 << 20]).unwrap();
        let blocker = engine
            .submit(1, copy_spec("blocker-src", "blocker-dst"), None)
            .unwrap();
        let victim = engine
            .submit(1, tiny_write("victim"), Some(b"abcd".to_vec()))
            .unwrap();
        let fired = Arc::new(Mutex::new(Vec::new()));
        let record = || -> WaitCallback {
            let fired = Arc::clone(&fired);
            Box::new(move |result| fired.lock().push(result.map(|(id, s)| (id, s.state))))
        };
        let single = engine.wait_task_async(victim, None, record());
        let any = engine.wait_any_async(&[victim, blocker], None, record());
        assert!(matches!(single, Subscribed::Parked(_)));
        assert!(matches!(any, Subscribed::Parked(_)));
        assert_eq!(engine.parked_waits(), 2);
        engine.wait(victim, 0).unwrap();
        spin_until("both callbacks", || fired.lock().len() == 2);
        // FCFS: the blocker ends first and answers the `WaitAny`, the
        // victim the single wait — each callback once.
        let mut got = fired.lock().clone();
        got.sort_by_key(|r| r.as_ref().map(|(id, _)| *id).ok());
        assert_eq!(
            got,
            [
                Ok((blocker, TaskState::Finished)),
                Ok((victim, TaskState::Finished))
            ]
        );
        assert_eq!(engine.parked_waits(), 0);
        engine.shutdown();
        assert_eq!(fired.lock().len(), 2, "shutdown fired a spent wait again");
        let _ = fs::remove_dir_all(&root);
    }

    /// Waits subscribed right behind their submission race the
    /// completion in every order: whether the answer comes back `Now`
    /// or through the callback, it comes exactly once.
    #[test]
    fn wake_racing_waits_are_each_answered_once() {
        const THREADS: usize = 4;
        const TASKS: usize = 2_000;
        let root = temp_root("wake-race");
        let engine = Engine::with_config(
            EngineConfig {
                workers: 4,
                queue_capacity: THREADS * TASKS,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        let answers: Arc<Vec<AtomicU64>> =
            Arc::new((0..THREADS * TASKS).map(|_| AtomicU64::new(0)).collect());
        let parked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (engine, answers, parked) = (&engine, &answers, &parked);
                scope.spawn(move || {
                    let path = format!("race{t}");
                    for slot in t * TASKS..(t + 1) * TASKS {
                        let id = engine
                            .submit(1, tiny_write(&path), Some(b"abcd".to_vec()))
                            .unwrap();
                        // A wrong answer counts 100, so it cannot pass
                        // for the one right one.
                        let tally =
                            move |answers: &[AtomicU64], result: &Result<(u64, TaskStats), _>| {
                                let right = matches!(result, Ok((done, stats))
                                if *done == id && stats.state == TaskState::Finished);
                                answers[slot]
                                    .fetch_add(if right { 1 } else { 100 }, Ordering::SeqCst);
                            };
                        let mine = Arc::clone(answers);
                        let callback: WaitCallback = Box::new(move |result| tally(&mine, &result));
                        match engine.wait_task_async(id, None, callback) {
                            Subscribed::Now(result) => tally(answers, &result),
                            Subscribed::Parked(_) => {
                                parked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        spin_until("every wait answered", || {
            answers.iter().all(|a| a.load(Ordering::SeqCst) > 0)
        });
        engine.shutdown();
        let wrong: Vec<usize> = (0..answers.len())
            .filter(|&slot| answers[slot].load(Ordering::SeqCst) != 1)
            .collect();
        assert!(
            wrong.is_empty(),
            "waits answered other than once: {wrong:?}"
        );
        assert_eq!(engine.parked_waits(), 0);
        eprintln!(
            "racing waits: {} of {} parked",
            parked.load(Ordering::Relaxed),
            THREADS * TASKS
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// After a burst, every worker is back on `dispatch_cv` and no wake
    /// is left in flight — a wake counted in `waking` and never taken
    /// back would silence later admissions.
    #[test]
    fn wake_burst_of_tiny_writes_leaves_every_worker_parked() {
        let root = temp_root("wake-burst");
        let engine = Engine::with_config(
            EngineConfig {
                workers: 4,
                queue_capacity: 1_000,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        let ids: Vec<u64> = (0..1_000)
            .map(|i| {
                let path = format!("burst{}", i % 16);
                engine
                    .submit(1, tiny_write(&path), Some(b"abcd".to_vec()))
                    .unwrap()
            })
            .collect();
        for id in ids {
            assert_eq!(engine.wait(id, 0).unwrap().state, TaskState::Finished);
        }
        spin_until("four parked workers and no wake in flight", || {
            let st = engine.dispatch.lock();
            st.idle == 4 && st.waking == 0
        });
        // And the next admission still finds one.
        let id = engine
            .submit(1, tiny_write("after"), Some(b"abcd".to_vec()))
            .unwrap();
        assert_eq!(engine.wait(id, 0).unwrap().state, TaskState::Finished);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    /// An admission wakes a parked worker even while another is busy:
    /// a small write never queues behind a long copy with workers idle.
    #[test]
    fn wake_small_write_does_not_queue_behind_a_busy_worker() {
        let root = temp_root("wake-busy");
        let engine = Engine::with_config(
            EngineConfig {
                workers: 4,
                chunk_size: 1 << 20,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        fs::write(root.join("tmp0/big"), vec![5u8; 64 << 20]).unwrap();
        let copy = engine.submit(1, copy_spec("big", "big.out"), None).unwrap();
        spin_until("the copy under way", || {
            engine.query(copy).unwrap().bytes_moved > 0
        });
        let spec = TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::MemoryRegion {
                addr: 0,
                size: 4096,
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "small".into(),
            }),
        );
        let write = engine.submit(1, spec, Some(vec![1u8; 4096])).unwrap();
        assert_eq!(engine.wait(write, 0).unwrap().state, TaskState::Finished);
        assert_eq!(
            engine.query(copy).unwrap().state,
            TaskState::InProgress,
            "the write waited for the copy"
        );
        assert_eq!(engine.wait(copy, 0).unwrap().state, TaskState::Finished);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    /// Every landing site makes a missing parent: a rename, a small and
    /// a chunked copy, a memory write, a pull and a push (the peer's
    /// `Prepare`).
    #[test]
    fn wake_outputs_land_in_a_missing_parent() {
        use std::net::TcpListener;
        let (engine, root) = chunking_engine("wake-parent", 2);
        let mount = root.join("tmp0");
        let peer_root = temp_root("wake-parent-peer");
        let peer = Engine::new(1);
        register_tmp0(&peer, &peer_root);
        fs::write(peer_root.join("tmp0/remote.dat"), b"remote bytes").unwrap();
        let server = DataServer::new(Arc::clone(&peer));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        engine.register_peer("peer", listener.local_addr().unwrap().to_string());
        let acceptor = Arc::clone(&server);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                acceptor.serve(stream);
            }
        });
        fs::write(mount.join("moved"), b"moved").unwrap();
        fs::write(mount.join("small"), b"small").unwrap();
        write_chunks(&root, "chunked", 4);
        let remote = |path: &str| ResourceDesc::RemotePath {
            host: "peer".into(),
            nsid: "tmp0".into(),
            path: path.into(),
        };
        let local = |path: &str| ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: path.into(),
        };
        let cases = [
            (move_spec("moved", "new0/deep/moved"), None),
            (copy_spec("small", "new1/deep/small"), None),
            (copy_spec("chunked", "new2/deep/chunked"), None),
            (tiny_write("new3/deep/written"), Some(b"abcd".to_vec())),
            (
                TaskSpec::new(
                    TaskOp::Copy,
                    remote("remote.dat"),
                    Some(local("new4/deep/pulled")),
                ),
                None,
            ),
            (
                TaskSpec::new(
                    TaskOp::Copy,
                    local("small"),
                    Some(remote("new5/deep/pushed")),
                ),
                None,
            ),
        ];
        for (spec, payload) in cases {
            let id = engine.submit(1, spec.clone(), payload).unwrap();
            let stats = engine.wait(id, 0).unwrap();
            assert_eq!(stats.state, TaskState::Finished, "{spec:?}");
        }
        assert_eq!(fs::read(mount.join("new0/deep/moved")).unwrap(), b"moved");
        assert_eq!(fs::read(mount.join("new1/deep/small")).unwrap(), b"small");
        assert_eq!(
            fs::read(mount.join("new2/deep/chunked")).unwrap(),
            fs::read(mount.join("chunked")).unwrap()
        );
        assert_eq!(fs::read(mount.join("new3/deep/written")).unwrap(), b"abcd");
        assert_eq!(
            fs::read(mount.join("new4/deep/pulled")).unwrap(),
            b"remote bytes"
        );
        assert_eq!(
            fs::read(peer_root.join("tmp0/new5/deep/pushed")).unwrap(),
            b"small"
        );
        engine.shutdown();
        server.close_and_join();
        peer.shutdown();
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(&peer_root);
    }

    /// The parent is made only once the operation needs it, and a copy
    /// or move whose source is missing needs none.
    #[test]
    fn wake_missing_source_leaves_no_parent_behind() {
        let (engine, root) = engine_with_ds("wake-nosrc");
        for spec in [
            copy_spec("ghost", "new/deep/out"),
            move_spec("ghost", "new/deep/out"),
        ] {
            let id = engine.submit(1, spec, None).unwrap();
            let stats = engine.wait(id, 0).unwrap();
            assert_eq!(stats.state, TaskState::FinishedWithError);
            assert_eq!(stats.error, ErrorCode::NotFound);
        }
        assert!(!root.join("tmp0/new").exists());
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    /// Outputs bound for one missing directory race to make it: the
    /// task that loses still lands.
    #[test]
    fn wake_outputs_racing_for_one_missing_parent_all_land() {
        let root = temp_root("wake-parent-race");
        let engine = Engine::with_config(
            EngineConfig {
                workers: 4,
                ..EngineConfig::default()
            },
            Box::new(Fcfs),
        );
        register_tmp0(&engine, &root);
        for round in 0..100 {
            let ids: Vec<u64> = (0..4)
                .map(|i| {
                    let path = format!("race{round}/deep/out{i}");
                    engine
                        .submit(1, tiny_write(&path), Some(b"abcd".to_vec()))
                        .unwrap()
                })
                .collect();
            for id in ids {
                let stats = engine.wait(id, 0).unwrap();
                assert_eq!(stats.state, TaskState::Finished, "round {round}");
            }
        }
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }
}
