//! The real-mode workflow executor.
//!
//! `slurm-sim` proves the paper's §III orchestration against a
//! simulated cluster; this module drives the *same* submission scripts
//! against **live** [`norns_ipc::UrdDaemon`]s: register the job with
//! every daemon it touches, submit its `#NORNS stage_in` tasks
//! (including `RemotePath` legs routed through the peer registry),
//! hold the job body until stage-in completes, run it, then stage out
//! — with the simulator's failure semantics (stage-in timeout ⇒
//! cancel plus staged-data cleanup, stage-in failure ⇒ job failed,
//! workflow cancel-on-failure for downstream jobs, stage-out failure
//! ⇒ data left in place and reported as leftovers).
//!
//! [`WorkflowExecutor::run`] is an event-driven **DAG engine**: every
//! dependency-ready job is admitted concurrently, job bodies run on
//! worker threads, and all jobs' outstanding staging tasks are
//! multiplexed through per-daemon parked v7 `WaitAny` waits — job B's
//! stage-in proceeds while job A computes and stages out, which is the
//! overlap the paper's asynchronous staging exists to deliver (§III).
//!
//! Mapping semantics match the simulator: `node:k` places data on the
//! k-th assigned node, stage-in `all` replicates to every node,
//! stage-out `all` moves one replica, and `scatter`/`gather` are
//! **real** — the executor enumerates the origin directory over the
//! wire's v6 `ListDir` op and splits the children round-robin across
//! the assigned nodes (scatter) or merges each node's children into
//! one destination (gather), never replicating. Stage-out frees the
//! staged source: local legs are `Move` tasks (the engine degrades
//! them to `rename(2)` on the same filesystem) and remote pushes are
//! followed by a `Remove` of the source once the push succeeds.
//!
//! The event loop never polls individual tasks: each daemon with
//! outstanding staging work holds one **parked** wire-v7 `WaitAny`
//! (issued through a [`norns_ipc::CtlClient`] connection) covering
//! *all* of its outstanding task ids, and the executor sleeps on a
//! single epoll set spanning every daemon's control socket. A wait is
//! reissued only when the outstanding set gains an uncovered id, so
//! the wire cost scales with completions, not with tasks × poll
//! interval. Job bodies run on threads of their own and wake the same
//! epoll set when they finish, so the loop has no polling interval at
//! all.
//! [`WorkflowExecutor::wait_round_trips`] and
//! [`WorkflowExecutor::query_round_trips`] expose the counters the
//! examples assert on.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use norns_ipc::{ClientError, CtlClient};
use norns_proto::{
    Durability, ErrorCode, JobDesc, ResourceDesc, Response, TaskOp, TaskSpec, TaskState, TaskStats,
    MAX_WAIT_SET,
};
use polling::{Event, Interest, Poller, Waker};

use crate::script::{self, JobScript, Mapping, ScriptError, StageDirective, WorkflowPos};

/// One daemon the executor drives, as the embedding describes it.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Host name, as it appears in `RemotePath.host` and job `hosts`.
    pub name: String,
    /// Path of the daemon's control socket (`urd.ctl.sock`).
    pub control_path: std::path::PathBuf,
    /// Dataspace ids hosted by this daemon; the executor routes each
    /// stage directive endpoint to a node owning its `nsid`. Several
    /// nodes may host the *same* nsid (the node-local storage pattern:
    /// each daemon backs it with its own mount) — a location then
    /// resolves to the local replica on nodes that host it and to the
    /// first hosting node for everyone else.
    pub dataspaces: Vec<String>,
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Kill a job whose stage-in has not finished by this deadline
    /// ("until a pre-configured timeout is encountered", §III):
    /// outstanding transfers are cancelled, already-staged destinations
    /// removed, the job and its workflow successors cancelled.
    pub stage_in_timeout: Duration,
    /// How long cancelled-but-running staging tasks are drained before
    /// the executor gives up joining them.
    pub cancel_grace: Duration,
    /// Durability applied to stage-out legs of jobs whose script has
    /// no `#NORNS durability` directive (wire v8). Durable modes plan
    /// local stage-outs as copy+release instead of a move, so the
    /// daemon's replication queue can still read the landed output.
    pub durability: Durability,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            stage_in_timeout: Duration::from_secs(30),
            cancel_grace: Duration::from_secs(5),
            durability: Durability::LocalOnly,
        }
    }
}

/// Executor-assigned job id (distinct from the daemons' task ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowJobId(pub u64);

/// Real-mode job lifecycle, mirroring the simulator's states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowJobState {
    Pending,
    StagingIn,
    Running,
    StagingOut,
    Completed,
    Failed,
    Cancelled,
}

impl FlowJobState {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            FlowJobState::Completed | FlowJobState::Failed | FlowJobState::Cancelled
        )
    }
}

/// Lifecycle notifications, appended to [`WorkflowExecutor::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowEvent {
    Submitted { job: FlowJobId },
    StageInStarted { job: FlowJobId, tasks: usize },
    Started { job: FlowJobId },
    StageOutStarted { job: FlowJobId, tasks: usize },
    Completed { job: FlowJobId, leftovers: usize },
    Failed { job: FlowJobId, reason: String },
    Cancelled { job: FlowJobId, reason: String },
}

/// Executor failures (job-level failures are *states*, not errors).
#[derive(Debug)]
pub enum FlowError {
    /// The submission script did not parse.
    Script(ScriptError),
    /// A wire call failed at the transport level.
    Client(ClientError),
    /// The workflow cannot be planned against the configured nodes
    /// (unknown dataspace, unknown dependency, too few nodes, ...).
    Plan(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Script(e) => write!(f, "script: {e}"),
            FlowError::Client(e) => write!(f, "client: {e}"),
            FlowError::Plan(m) => write!(f, "plan: {m}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<ScriptError> for FlowError {
    fn from(e: ScriptError) -> Self {
        FlowError::Script(e)
    }
}

impl From<ClientError> for FlowError {
    fn from(e: ClientError) -> Self {
        FlowError::Client(e)
    }
}

/// The job body: what "running the application" means in real mode.
/// Bodies execute on executor-owned worker threads, so several jobs'
/// computations (and other jobs' staging) overlap.
pub enum JobBody {
    /// Sleep for the duration (placeholder workloads and tests).
    Sleep(Duration),
    /// Run a closure; an `Err` fails the job (stage-out is skipped,
    /// staged data is left in place for recovery). A panic inside the
    /// closure is caught and fails the job the same way.
    Run(Box<dyn FnOnce() -> Result<(), String> + Send>),
}

struct Node {
    spec: NodeSpec,
    ctl: CtlClient,
    /// The node's advertised data-plane address (empty when remote
    /// staging is disabled on it).
    data_addr: String,
    /// Tag of the multiplexed parked `WaitAny` (timeout 0: forever)
    /// currently in flight on this daemon, if any.
    wait_tag: Option<u64>,
    /// Task ids that in-flight wait covers; a new outstanding id not
    /// in here forces a re-issue.
    covered: HashSet<u64>,
    /// Task ids whose completion was already surfaced as an event —
    /// superseded parked waits may announce the same task again.
    delivered: HashSet<u64>,
}

struct JobRec {
    id: FlowJobId,
    script: JobScript,
    body: Option<JobBody>,
    /// Indices into the executor's node table.
    nodes: Vec<usize>,
    /// Dependencies resolved to earlier job ids at submission.
    deps: Vec<FlowJobId>,
    state: FlowJobState,
    /// Whether the job is currently registered with its daemons (set
    /// on successful registration of *every* node, cleared at
    /// teardown; a partial registration is rolled back immediately and
    /// never observable here).
    registered: bool,
    failure: Option<String>,
    /// Stage-out legs that failed; data stays on the nodes "for future
    /// stage_out operations to try and recover" (§III).
    leftovers: Vec<String>,
}

/// A staging task before submission: which daemon runs it, the spec,
/// the destination to remove should the job be killed mid-stage-in,
/// and the local source to release after a successful remote push.
struct PlannedTask {
    node: usize,
    spec: TaskSpec,
    dst: Option<(usize, String, String)>,
    release: Option<(String, String)>,
    label: String,
}

/// One outstanding staging task: which daemon runs it, its
/// destination for post-timeout/failure cleanup (keyed by the node the
/// destination is *local* to — the task's own node for plain paths,
/// the owning peer for pushed `RemotePath` outputs), the source to
/// release after a successful push, and a human-readable label for
/// leftover reports.
struct StageTask {
    node: usize,
    task_id: u64,
    dst: Option<(usize, String, String)>,
    /// `(nsid, path)` of a local stage-out source to `Remove` once the
    /// push succeeds — the copy-based remote leg's analog of `Move`'s
    /// source-freeing (the paper's stage-out releases burst-buffer
    /// capacity).
    release: Option<(String, String)>,
    label: String,
}

/// Per-job phase inside the DAG engine's run loop.
enum Phase {
    StagingIn { deadline: Instant },
    Running,
    StagingOut,
}

/// An admitted, non-terminal job: its phase plus the staging tasks the
/// central `WaitAny` multiplexer is watching for it.
struct ActiveJob {
    phase: Phase,
    outstanding: Vec<StageTask>,
    /// Stage-in tasks that already finished (their destinations are
    /// what a timeout/failure must clean up).
    staged: Vec<StageTask>,
}

/// What the central event wait produced.
enum Next {
    Body(usize, Result<(), String>),
    Staging {
        node: usize,
        task_id: u64,
        stats: TaskStats,
    },
    /// A daemon stopped answering its control socket at the transport
    /// level: every job with staging outstanding there degrades, the
    /// rest of the workflow continues.
    DaemonLost {
        node: usize,
        error: String,
    },
    /// A body finished or a deadline wait expired; the loop re-checks
    /// completions, deadlines and admissions.
    Tick,
}

type BodyResult = (usize, Result<(), String>);

/// Poller key of the body-completion waker; node indices count up from
/// zero and can never reach it.
const KEY_BODY_DONE: u64 = u64::MAX;

/// Drives parsed `#NORNS` scripts against live daemons. See the module
/// docs for the lifecycle; workflow linkage is by job *name*, exactly
/// like the simulator's `--workflow-prior-dependency=<name>` options.
pub struct WorkflowExecutor {
    config: FlowConfig,
    nodes: Vec<Node>,
    jobs: Vec<JobRec>,
    next_node: usize,
    peers_linked: bool,
    events: Vec<FlowEvent>,
    /// One epoll set over every node's pipelined control connection —
    /// the event loop watches all daemons at once instead of
    /// round-robining bounded waits across them.
    poller: Poller,
    /// Rung by a job body's thread once its result is in the run
    /// loop's channel, which the poller cannot watch.
    body_done: Arc<Waker>,
    /// Events decoded but not yet consumed by the run loop (one drain
    /// can surface several completions).
    ready: VecDeque<Next>,
    wait_round_trips: u64,
    query_round_trips: u64,
}

impl WorkflowExecutor {
    pub fn new(config: FlowConfig) -> Self {
        let poller = Poller::new().expect("epoll instance");
        let body_done = Waker::new(&poller, KEY_BODY_DONE).expect("eventfd");
        WorkflowExecutor {
            config,
            nodes: Vec::new(),
            jobs: Vec::new(),
            next_node: 0,
            peers_linked: false,
            events: Vec::new(),
            poller,
            body_done: Arc::new(body_done),
            ready: VecDeque::new(),
            wait_round_trips: 0,
            query_round_trips: 0,
        }
    }

    /// Connect to a daemon's control socket and enroll it as a node.
    pub fn add_node(&mut self, spec: NodeSpec) -> Result<(), FlowError> {
        if self.nodes.iter().any(|n| n.spec.name == spec.name) {
            return Err(FlowError::Plan(format!("duplicate node {:?}", spec.name)));
        }
        let mut ctl = CtlClient::connect(&spec.control_path)?;
        let data_addr = ctl.status()?.data_addr;
        self.poller
            .add(ctl.as_raw_fd(), self.nodes.len() as u64, Interest::READ)
            .map_err(ClientError::Io)?;
        self.nodes.push(Node {
            spec,
            ctl,
            data_addr,
            wait_tag: None,
            covered: HashSet::new(),
            delivered: HashSet::new(),
        });
        Ok(())
    }

    /// Parse and enqueue a submission script (`sbatch` analogue). The
    /// job is validated against the node set now — unknown dataspaces,
    /// unknown workflow dependencies and oversized allocations are
    /// submission errors, not late failures. (`scatter`/`gather`
    /// directives are *expanded* only when the job is admitted: their
    /// child lists come from live directory enumeration, typically of
    /// data an upstream job has yet to produce.)
    pub fn submit(&mut self, script_text: &str, body: JobBody) -> Result<FlowJobId, FlowError> {
        let script = script::parse(script_text)?;
        if script.nodes == 0 {
            return Err(FlowError::Plan(format!(
                "job {:?} wants 0 nodes; a job needs at least one",
                script.name
            )));
        }
        if script.nodes > self.nodes.len() {
            return Err(FlowError::Plan(format!(
                "job {:?} wants {} nodes but the executor drives {}",
                script.name,
                script.nodes,
                self.nodes.len()
            )));
        }
        if self.jobs.iter().any(|j| j.script.name == script.name) {
            return Err(FlowError::Plan(format!(
                "duplicate job name {:?} in workflow",
                script.name
            )));
        }
        let deps = match &script.workflow {
            WorkflowPos::None | WorkflowPos::Start => Vec::new(),
            WorkflowPos::Dependent(names) | WorkflowPos::End(names) => names
                .iter()
                .map(|name| {
                    self.jobs
                        .iter()
                        .find(|j| j.script.name == *name)
                        .map(|j| j.id)
                        .ok_or_else(|| {
                            FlowError::Plan(format!("unknown workflow dependency {name:?}"))
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Round-robin node assignment, preserving the submit order the
        // policies key on.
        let mut nodes = Vec::with_capacity(script.nodes);
        for k in 0..script.nodes {
            nodes.push((self.next_node + k) % self.nodes.len());
        }
        self.next_node = (self.next_node + script.nodes) % self.nodes.len();
        // Every directive must be routable before anything runs.
        for (dir, is_in) in script
            .stage_in
            .iter()
            .map(|d| (d, true))
            .chain(script.stage_out.iter().map(|d| (d, false)))
        {
            self.validate_directive(dir, &nodes, is_in)?;
        }
        let id = FlowJobId(self.jobs.len() as u64 + 1);
        self.jobs.push(JobRec {
            id,
            script,
            body: Some(body),
            nodes,
            deps,
            state: FlowJobState::Pending,
            registered: false,
            failure: None,
            leftovers: Vec::new(),
        });
        self.events.push(FlowEvent::Submitted { job: id });
        Ok(id)
    }

    /// Run every submitted job to a terminal state. All
    /// dependency-ready jobs execute **concurrently**: bodies on
    /// worker threads, staging multiplexed through per-daemon batch
    /// waits, each job gated only on its own workflow dependencies.
    /// Returns the terminal state of each job in submission order.
    pub fn run(&mut self) -> Result<Vec<(FlowJobId, FlowJobState)>, FlowError> {
        self.link_peers()?;
        let (tx, rx) = mpsc::channel::<BodyResult>();
        let mut active: HashMap<usize, ActiveJob> = HashMap::new();
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        self.run_loop(&tx, &rx, &mut active, &mut threads);
        // Bodies are finite; join them so no thread outlives the call
        // (their completions were all consumed by the loop).
        drop(tx);
        for handle in threads {
            let _ = handle.join();
        }
        Ok(self.jobs.iter().map(|j| (j.id, j.state)).collect())
    }

    fn run_loop(
        &mut self,
        tx: &mpsc::Sender<BodyResult>,
        rx: &mpsc::Receiver<BodyResult>,
        active: &mut HashMap<usize, ActiveJob>,
        threads: &mut Vec<JoinHandle<()>>,
    ) {
        loop {
            // Admit every dependency-ready job; cancel those whose
            // upstream failed ("if a workflow job fails; then all
            // subsequent jobs are cancelled").
            self.admit_ready(active, tx, threads);
            // Deliver any body completions that already arrived.
            let mut progressed = false;
            while let Ok((idx, result)) = rx.try_recv() {
                self.body_finished(idx, result, active);
                progressed = true;
            }
            if progressed {
                continue; // completions may have unblocked admissions
            }
            if self.expire_deadlines(active) {
                continue;
            }
            if active.is_empty() {
                debug_assert!(self.jobs.iter().all(|j| j.state.is_terminal()));
                return;
            }
            match self.await_event(active, rx) {
                Next::Body(idx, result) => self.body_finished(idx, result, active),
                Next::Staging {
                    node,
                    task_id,
                    stats,
                } => self.staging_event(node, task_id, stats, active, tx, threads),
                Next::DaemonLost { node, error } => self.daemon_lost(node, &error, active),
                Next::Tick => {}
            }
        }
    }

    // ---- observability ----

    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    pub fn job_state(&self, id: FlowJobId) -> Option<FlowJobState> {
        self.jobs.iter().find(|j| j.id == id).map(|j| j.state)
    }

    pub fn failure(&self, id: FlowJobId) -> Option<&str> {
        self.jobs
            .iter()
            .find(|j| j.id == id)
            .and_then(|j| j.failure.as_deref())
    }

    pub fn leftovers(&self, id: FlowJobId) -> &[String] {
        self.jobs
            .iter()
            .find(|j| j.id == id)
            .map(|j| j.leftovers.as_slice())
            .unwrap_or(&[])
    }

    /// Wire-level `WaitAny` round-trips issued so far. The executor's
    /// whole event loop goes through batch waits, so this grows with
    /// *completions* — not with tasks × polling interval.
    pub fn wait_round_trips(&self) -> u64 {
        self.wait_round_trips
    }

    /// Wire-level per-task `QueryTask` round-trips issued so far —
    /// stays 0: the executor never polls task state.
    pub fn query_round_trips(&self) -> u64 {
        self.query_round_trips
    }

    // ---- planning ----

    /// Submission-time routability check for one directive. Whole-path
    /// mappings are planned in full (and the plan discarded);
    /// `scatter`/`gather` check that both endpoints' dataspaces are
    /// hosted — their per-child expansion happens at admission, once
    /// the directory contents exist.
    fn validate_directive(
        &self,
        dir: &StageDirective,
        assigned: &[usize],
        stage_in: bool,
    ) -> Result<(), FlowError> {
        let whole_path_targets: &[usize] = match (stage_in, dir.mapping) {
            (_, Mapping::Node(k)) => assigned.get(k..k + 1).ok_or_else(|| {
                FlowError::Plan(format!(
                    "mapping node:{k} out of range for a {}-node job",
                    assigned.len()
                ))
            })?,
            // Stage-in `all`/`gather` replicate to every node;
            // stage-out `all` moves one replica (node 0).
            (true, Mapping::All | Mapping::Gather) => assigned,
            (false, Mapping::All) => &assigned[..1],
            (_, Mapping::Scatter) | (false, Mapping::Gather) => {
                for loc in [&dir.origin, &dir.destination] {
                    let (nsid, _) = script::split_location(loc)?;
                    if self.owner_of(nsid).is_none() {
                        return Err(FlowError::Plan(format!("no node hosts dataspace {nsid:?}")));
                    }
                }
                return Ok(());
            }
        };
        for &node in whole_path_targets {
            // Routability dry-run; the mode never changes routing.
            self.plan_task(
                node,
                &dir.origin,
                &dir.destination,
                stage_in,
                Durability::LocalOnly,
            )
            .map_err(FlowError::Plan)?;
        }
        Ok(())
    }

    /// Index of the first node hosting a dataspace.
    fn owner_of(&self, nsid: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.spec.dataspaces.iter().any(|d| d == nsid))
    }

    /// Does `node` host `nsid` locally?
    fn hosts(&self, node: usize, nsid: &str) -> bool {
        self.nodes[node].spec.dataspaces.iter().any(|d| d == nsid)
    }

    /// Resolve a `nsid://path` endpoint as seen from `node`: local
    /// dataspaces become `PosixPath`, dataspaces hosted by another
    /// node become `RemotePath` through that node's daemon.
    fn resolve_endpoint(&self, node: usize, location: &str) -> Result<ResourceDesc, String> {
        let (nsid, path) = script::split_location(location).map_err(|e| e.to_string())?;
        if self.hosts(node, nsid) {
            return Ok(ResourceDesc::PosixPath {
                nsid: nsid.into(),
                path: path.into(),
            });
        }
        let owner = self
            .owner_of(nsid)
            .ok_or_else(|| format!("no node hosts dataspace {nsid:?}"))?;
        Ok(ResourceDesc::RemotePath {
            host: self.nodes[owner].spec.name.clone(),
            nsid: nsid.into(),
            path: path.into(),
        })
    }

    /// Plan the task one origin→destination leg submits on `node`.
    /// Stage-in legs are plain copies (with the destination recorded
    /// for §III cleanup). Stage-out legs *free their source*: local
    /// legs are `Move` tasks, remote pushes are copies whose source is
    /// released by a follow-up `Remove` once the push succeeds. A
    /// durable mode (`durability != local_only`) turns local stage-out
    /// legs into copy+release carrying the durability policy — the
    /// daemon's replication queue reads the *landed output*, so the
    /// source can still be freed, but only after the copy, never as a
    /// move that would leave nothing for the local leg to replicate.
    /// Remote pushes already land their only copy off-node and carry
    /// no durability field.
    fn plan_task(
        &self,
        node: usize,
        origin: &str,
        destination: &str,
        stage_in: bool,
        durability: Durability,
    ) -> Result<PlannedTask, String> {
        let input = self.resolve_endpoint(node, origin)?;
        let output = self.resolve_endpoint(node, destination)?;
        if matches!(input, ResourceDesc::RemotePath { .. })
            && matches!(output, ResourceDesc::RemotePath { .. })
        {
            return Err(format!(
                "stage {origin} → {destination} touches node {:?} on neither end; assign the \
                 job to a node hosting one of the dataspaces",
                self.nodes[node].spec.name
            ));
        }
        let (op, dst, release, applied) = if stage_in {
            // Remember stage-in destinations for timeout/failure
            // cleanup — keyed by the node they are local to, so a
            // pushed RemotePath output is removed on its *owning*
            // peer, not the node that ran the push.
            let dst = match &output {
                ResourceDesc::PosixPath { nsid, path } => Some((node, nsid.clone(), path.clone())),
                ResourceDesc::RemotePath { nsid, path, .. } => self
                    .owner_of(nsid)
                    .map(|owner| (owner, nsid.clone(), path.clone())),
                ResourceDesc::MemoryRegion { .. } => None,
            };
            (TaskOp::Copy, dst, None, Durability::LocalOnly)
        } else {
            match (&input, &output) {
                (ResourceDesc::PosixPath { nsid, path }, ResourceDesc::PosixPath { .. })
                    if durability != Durability::LocalOnly =>
                {
                    (
                        TaskOp::Copy,
                        None,
                        Some((nsid.clone(), path.clone())),
                        durability,
                    )
                }
                (ResourceDesc::PosixPath { .. }, ResourceDesc::PosixPath { .. }) => {
                    (TaskOp::Move, None, None, Durability::LocalOnly)
                }
                // Cross-node staging is copy-only on the data plane;
                // the source is released separately after the push.
                (ResourceDesc::PosixPath { nsid, path }, ResourceDesc::RemotePath { .. }) => (
                    TaskOp::Copy,
                    None,
                    Some((nsid.clone(), path.clone())),
                    Durability::LocalOnly,
                ),
                // Remote origin: nothing local to free.
                _ => (TaskOp::Copy, None, None, Durability::LocalOnly),
            }
        };
        let label = format!(
            "{origin} → {destination} on {:?}",
            self.nodes[node].spec.name
        );
        let mut spec = TaskSpec::new(op, input, Some(output));
        if applied != Durability::LocalOnly {
            spec = spec.with_durability(applied);
        }
        Ok(PlannedTask {
            node,
            spec,
            dst,
            release,
            label,
        })
    }

    /// Append `child` to a `nsid://path` location.
    fn join_location(location: &str, child: &str) -> String {
        if location.ends_with("://") || location.ends_with('/') {
            format!("{location}{child}")
        } else {
            format!("{location}/{child}")
        }
    }

    /// Expand one phase's directives into concrete per-node tasks. An
    /// `Err` fails (stage-in) or degrades (stage-out) the job — it is
    /// never a run-level abort.
    fn expand_phase(
        &mut self,
        assigned: &[usize],
        directives: &[StageDirective],
        stage_in: bool,
        durability: Durability,
    ) -> Result<Vec<PlannedTask>, String> {
        let mut out = Vec::new();
        for dir in directives {
            match (stage_in, dir.mapping) {
                (_, Mapping::Node(k)) => out.push(self.plan_task(
                    assigned[k],
                    &dir.origin,
                    &dir.destination,
                    stage_in,
                    durability,
                )?),
                (true, Mapping::All | Mapping::Gather) => {
                    for &node in assigned {
                        out.push(self.plan_task(
                            node,
                            &dir.origin,
                            &dir.destination,
                            true,
                            durability,
                        )?);
                    }
                }
                (false, Mapping::All) => out.push(self.plan_task(
                    assigned[0],
                    &dir.origin,
                    &dir.destination,
                    false,
                    durability,
                )?),
                (true, Mapping::Scatter) => out.extend(self.plan_scatter(assigned, dir)?),
                (false, Mapping::Scatter | Mapping::Gather) => {
                    out.extend(self.plan_gather(assigned, dir, durability)?)
                }
            }
        }
        Ok(out)
    }

    /// Stage-in `scatter`: enumerate the origin directory on its
    /// owning node (wire v6 `ListDir`) and deal the children
    /// round-robin across the assigned nodes — each child lands on
    /// exactly one node, matching `slurm-sim`'s placement. A plain
    /// file cannot be split: it lands whole on the first node, also
    /// like the simulator.
    fn plan_scatter(
        &mut self,
        assigned: &[usize],
        dir: &StageDirective,
    ) -> Result<Vec<PlannedTask>, String> {
        let (nsid, path) = script::split_location(&dir.origin).map_err(|e| e.to_string())?;
        let owner = self
            .owner_of(nsid)
            .ok_or_else(|| format!("no node hosts dataspace {nsid:?}"))?;
        let (nsid, path) = (nsid.to_string(), path.to_string());
        match self.nodes[owner].ctl.list_dir(&nsid, &path) {
            Ok(children) => children
                .iter()
                .enumerate()
                .map(|(i, child)| {
                    self.plan_task(
                        assigned[i % assigned.len()],
                        &Self::join_location(&dir.origin, child),
                        &Self::join_location(&dir.destination, child),
                        true,
                        Durability::LocalOnly,
                    )
                })
                .collect(),
            Err(ClientError::Remote {
                code: ErrorCode::BadArgs,
                ..
            }) => Ok(vec![self.plan_task(
                assigned[0],
                &dir.origin,
                &dir.destination,
                true,
                Durability::LocalOnly,
            )?]),
            Err(e) => Err(format!("cannot enumerate {}: {e}", dir.origin)),
        }
    }

    /// Stage-out `gather` (and `scatter`, which the simulator treats
    /// identically on the way out): every assigned node hosting the
    /// origin dataspace locally contributes the children it holds,
    /// merged into one destination directory — per child, so remote
    /// pushes (file-only on the data plane) work and nothing is
    /// replicated. Nodes without the directory contribute nothing; a
    /// plain file moves whole.
    fn plan_gather(
        &mut self,
        assigned: &[usize],
        dir: &StageDirective,
        durability: Durability,
    ) -> Result<Vec<PlannedTask>, String> {
        let (nsid, path) = script::split_location(&dir.origin).map_err(|e| e.to_string())?;
        let (nsid, path) = (nsid.to_string(), path.to_string());
        let contributors: Vec<usize> = assigned
            .iter()
            .copied()
            .filter(|&n| self.hosts(n, &nsid))
            .collect();
        if contributors.is_empty() {
            // The origin lives off-allocation; degrade to the `all`
            // behavior (one whole-path task on the first node).
            return Ok(vec![self.plan_task(
                assigned[0],
                &dir.origin,
                &dir.destination,
                false,
                durability,
            )?]);
        }
        let mut out = Vec::new();
        for node in contributors {
            match self.nodes[node].ctl.list_dir(&nsid, &path) {
                Ok(children) => {
                    for child in &children {
                        out.push(self.plan_task(
                            node,
                            &Self::join_location(&dir.origin, child),
                            &Self::join_location(&dir.destination, child),
                            false,
                            durability,
                        )?);
                    }
                }
                Err(ClientError::Remote {
                    code: ErrorCode::BadArgs,
                    ..
                }) => out.push(self.plan_task(
                    node,
                    &dir.origin,
                    &dir.destination,
                    false,
                    durability,
                )?),
                Err(ClientError::Remote {
                    code: ErrorCode::NotFound,
                    ..
                }) => {} // this node staged nothing under the origin
                Err(e) => {
                    return Err(format!(
                        "cannot enumerate {} on {:?}: {e}",
                        dir.origin, self.nodes[node].spec.name
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Cross-register every node pair in the daemons' peer registries
    /// (`RemotePath.host` → data-plane address), once per executor.
    fn link_peers(&mut self) -> Result<(), FlowError> {
        if self.peers_linked {
            return Ok(());
        }
        let links: Vec<(String, String)> = self
            .nodes
            .iter()
            .filter(|n| !n.data_addr.is_empty())
            .map(|n| (n.spec.name.clone(), n.data_addr.clone()))
            .collect();
        for i in 0..self.nodes.len() {
            for (name, addr) in &links {
                if *name != self.nodes[i].spec.name {
                    self.nodes[i].ctl.register_peer(name, addr)?;
                }
            }
        }
        self.peers_linked = true;
        Ok(())
    }

    // ---- job lifecycle ----

    fn emit(&mut self, event: FlowEvent) {
        self.events.push(event);
    }

    /// Terminal bookkeeping: best-effort unregistration from every
    /// daemon the job touched (teardown problems are recorded, never
    /// propagated — one job's sick daemon must not strand the others),
    /// then the state transition and its event.
    fn finish_job(&mut self, idx: usize, state: FlowJobState, reason: &str) {
        let id = self.jobs[idx].id;
        let mut problems = Vec::new();
        if self.jobs[idx].registered {
            self.jobs[idx].registered = false;
            for n in self.jobs[idx].nodes.clone() {
                match self.nodes[n].ctl.unregister_job(id.0) {
                    // Remote errors mean "already gone" (e.g. the
                    // daemon was shut down) — not worth recording.
                    Ok(()) | Err(ClientError::Remote { .. }) => {}
                    Err(e) => {
                        problems.push(format!("unregister on {:?}: {e}", self.nodes[n].spec.name))
                    }
                }
            }
        }
        self.jobs[idx].state = state;
        if !reason.is_empty() {
            // Append: earlier best-effort-teardown detail (recorded by
            // note_problems on e.g. the submission-failure path) must
            // survive the terminal reason.
            let failure = &mut self.jobs[idx].failure;
            *failure = Some(match failure.take() {
                Some(existing) => format!("{reason}; {existing}"),
                None => reason.to_string(),
            });
        }
        let leftovers = self.jobs[idx].leftovers.len();
        match state {
            FlowJobState::Completed => self.emit(FlowEvent::Completed { job: id, leftovers }),
            FlowJobState::Failed => self.emit(FlowEvent::Failed {
                job: id,
                reason: reason.to_string(),
            }),
            FlowJobState::Cancelled => self.emit(FlowEvent::Cancelled {
                job: id,
                reason: reason.to_string(),
            }),
            other => unreachable!("finish_job with non-terminal state {other:?}"),
        }
        self.note_problems(idx, problems);
    }

    /// Append best-effort-teardown details to the job's failure
    /// string (diagnostics only; they change no state).
    fn note_problems(&mut self, idx: usize, problems: Vec<String>) {
        if problems.is_empty() {
            return;
        }
        let detail = problems.join("; ");
        let failure = &mut self.jobs[idx].failure;
        *failure = Some(match failure.take() {
            Some(existing) => format!("{existing}; teardown: {detail}"),
            None => format!("teardown: {detail}"),
        });
    }

    /// Admission fixpoint: start every Pending job whose dependencies
    /// all completed; cancel every Pending job with a failed or
    /// cancelled dependency (cascading through chains in one pass).
    fn admit_ready(
        &mut self,
        active: &mut HashMap<usize, ActiveJob>,
        tx: &mpsc::Sender<BodyResult>,
        threads: &mut Vec<JoinHandle<()>>,
    ) {
        loop {
            let mut changed = false;
            for idx in 0..self.jobs.len() {
                if self.jobs[idx].state != FlowJobState::Pending {
                    continue;
                }
                let mut ready = true;
                let mut doomed = false;
                for dep in self.jobs[idx].deps.clone() {
                    match self
                        .jobs
                        .iter()
                        .find(|j| j.id == dep)
                        .map(|j| j.state)
                        .expect("deps resolved at submission")
                    {
                        FlowJobState::Completed => {}
                        s if s.is_terminal() => doomed = true,
                        _ => ready = false,
                    }
                }
                if doomed {
                    self.finish_job(idx, FlowJobState::Cancelled, "upstream workflow job failed");
                    changed = true;
                } else if ready {
                    self.start_job(idx, active, tx, threads);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Register the job with its daemons (rolling back on partial
    /// failure — nodes `0..k` must not stay registered forever when
    /// node `k` refuses), then plan and submit its stage-in tasks.
    fn start_job(
        &mut self,
        idx: usize,
        active: &mut HashMap<usize, ActiveJob>,
        tx: &mpsc::Sender<BodyResult>,
        threads: &mut Vec<JoinHandle<()>>,
    ) {
        let id = self.jobs[idx].id;
        let job_nodes = self.jobs[idx].nodes.clone();
        let hosts: Vec<String> = job_nodes
            .iter()
            .map(|&n| self.nodes[n].spec.name.clone())
            .collect();
        // Register the job with every daemon it touches (quota-less;
        // the embedding owns the grants, as Slurm does in the paper).
        let mut registered: Vec<usize> = Vec::new();
        for &n in &job_nodes {
            match self.nodes[n].ctl.register_job(JobDesc {
                job_id: id.0,
                hosts: hosts.clone(),
                limits: vec![],
            }) {
                Ok(()) => registered.push(n),
                Err(e) => {
                    // Roll back what was already registered before
                    // failing the job; a `?`-style early return here
                    // would leak registrations on nodes 0..k.
                    for &r in &registered {
                        let _ = self.nodes[r].ctl.unregister_job(id.0);
                    }
                    self.finish_job(
                        idx,
                        FlowJobState::Failed,
                        &format!(
                            "job registration on {:?} failed: {e}",
                            self.nodes[n].spec.name
                        ),
                    );
                    return;
                }
            }
        }
        self.jobs[idx].registered = true;
        self.jobs[idx].state = FlowJobState::StagingIn;
        let stage_in = self.jobs[idx].script.stage_in.clone();
        let planned = match self.expand_phase(&job_nodes, &stage_in, true, Durability::LocalOnly) {
            Ok(p) => p,
            Err(reason) => {
                self.finish_job(idx, FlowJobState::Failed, &reason);
                return;
            }
        };
        match self.submit_planned(idx, planned, true) {
            Ok(tasks) => {
                self.emit(FlowEvent::StageInStarted {
                    job: id,
                    tasks: tasks.len(),
                });
                if tasks.is_empty() {
                    self.begin_body(idx, active, tx, threads);
                } else {
                    active.insert(
                        idx,
                        ActiveJob {
                            phase: Phase::StagingIn {
                                deadline: Instant::now() + self.config.stage_in_timeout,
                            },
                            outstanding: tasks,
                            staged: Vec::new(),
                        },
                    );
                }
            }
            Err(reason) => self.finish_job(idx, FlowJobState::Failed, &reason),
        }
    }

    /// Submit one phase's planned tasks. A daemon-side rejection
    /// cancels what was already submitted (cleaning any stage-in data
    /// that finished meanwhile) and fails the phase as a unit;
    /// transport errors are treated the same way — per-job failures,
    /// never run-level aborts.
    fn submit_planned(
        &mut self,
        idx: usize,
        planned: Vec<PlannedTask>,
        stage_in: bool,
    ) -> Result<Vec<StageTask>, String> {
        let job_id = self.jobs[idx].id.0;
        let mut tasks: Vec<StageTask> = Vec::new();
        for p in planned {
            match self.nodes[p.node].ctl.submit(job_id, p.spec, None) {
                Ok(task_id) => tasks.push(StageTask {
                    node: p.node,
                    task_id,
                    dst: p.dst,
                    release: p.release,
                    label: p.label,
                }),
                Err(e) => {
                    let reason = format!("stage task {} rejected: {e}", p.label);
                    let (finished, mut problems) = self.cancel_and_drain(&tasks);
                    if stage_in {
                        let staged: Vec<StageTask> = tasks
                            .into_iter()
                            .filter(|t| finished.contains(&(t.node, t.task_id)))
                            .collect();
                        problems.extend(self.cleanup_staged(&staged));
                    }
                    self.note_problems(idx, problems);
                    return Err(reason);
                }
            }
        }
        Ok(tasks)
    }

    /// Move the job into its Running phase: the body executes on a
    /// worker thread (panics caught and mapped to failures) and
    /// reports through the run loop's channel, so other jobs' staging
    /// and bodies proceed meanwhile.
    fn begin_body(
        &mut self,
        idx: usize,
        active: &mut HashMap<usize, ActiveJob>,
        tx: &mpsc::Sender<BodyResult>,
        threads: &mut Vec<JoinHandle<()>>,
    ) {
        self.jobs[idx].state = FlowJobState::Running;
        self.emit(FlowEvent::Started {
            job: self.jobs[idx].id,
        });
        let body = self.jobs[idx].body.take().expect("body taken once");
        let tx = tx.clone();
        let body_done = Arc::clone(&self.body_done);
        threads.push(std::thread::spawn(move || {
            let result = match body {
                JobBody::Sleep(d) => {
                    std::thread::sleep(d);
                    Ok(())
                }
                JobBody::Run(f) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                    .unwrap_or_else(|panic| {
                        Err(panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "job body panicked".into()))
                    }),
            };
            let _ = tx.send((idx, result));
            body_done.wake();
        }));
        active.insert(
            idx,
            ActiveJob {
                phase: Phase::Running,
                outstanding: Vec::new(),
                staged: Vec::new(),
            },
        );
    }

    /// A job body returned: fail the job, or plan and submit its
    /// stage-out.
    fn body_finished(
        &mut self,
        idx: usize,
        result: Result<(), String>,
        active: &mut HashMap<usize, ActiveJob>,
    ) {
        active.remove(&idx);
        if let Err(reason) = result {
            // Staged data is deliberately left in place: a failed
            // application's inputs and partial outputs are what the
            // operator debugs with.
            self.finish_job(
                idx,
                FlowJobState::Failed,
                &format!("job body failed: {reason}"),
            );
            return;
        }
        self.jobs[idx].state = FlowJobState::StagingOut;
        let job_nodes = self.jobs[idx].nodes.clone();
        let stage_out = self.jobs[idx].script.stage_out.clone();
        // The script's `#NORNS durability` directive overrides the
        // executor-wide default for this job's stage-outs.
        let durability = self.jobs[idx]
            .script
            .durability
            .unwrap_or(self.config.durability);
        let submitted = self
            .expand_phase(&job_nodes, &stage_out, false, durability)
            .and_then(|planned| self.submit_planned(idx, planned, false));
        match submitted {
            Ok(tasks) if tasks.is_empty() => self.finish_job(idx, FlowJobState::Completed, ""),
            Ok(tasks) => {
                self.emit(FlowEvent::StageOutStarted {
                    job: self.jobs[idx].id,
                    tasks: tasks.len(),
                });
                active.insert(
                    idx,
                    ActiveJob {
                        phase: Phase::StagingOut,
                        outstanding: tasks,
                        staged: Vec::new(),
                    },
                );
            }
            Err(reason) => {
                // Stage-out planning/submission failure leaves the
                // data on the nodes for recovery; the job completed.
                self.jobs[idx].leftovers.push(reason);
                self.finish_job(idx, FlowJobState::Completed, "");
            }
        }
    }

    /// Kill every job whose stage-in deadline passed: cancel its
    /// outstanding transfers, remove what it already staged, cancel
    /// the job ("the scheduler will terminate the job and clean up all
    /// data already staged to nodes", §III). Returns whether anything
    /// expired.
    fn expire_deadlines(&mut self, active: &mut HashMap<usize, ActiveJob>) -> bool {
        let now = Instant::now();
        let expired: Vec<usize> = active
            .iter()
            .filter(|(_, a)| matches!(a.phase, Phase::StagingIn { deadline } if now >= deadline))
            .map(|(idx, _)| *idx)
            .collect();
        for &idx in &expired {
            let job = active.remove(&idx).expect("selected from the map");
            self.kill_staging_in(idx, job, FlowJobState::Cancelled, "stage-in timeout");
        }
        !expired.is_empty()
    }

    /// Tear down a StagingIn job that must die (task failure, timeout,
    /// lost daemon): cancel and drain its outstanding transfers, fold
    /// the drain's late finishers into the staged set — they staged
    /// data too — remove every staged destination (§III cleanup), and
    /// finish the job.
    fn kill_staging_in(&mut self, idx: usize, job: ActiveJob, state: FlowJobState, reason: &str) {
        let (finished, mut problems) = self.cancel_and_drain(&job.outstanding);
        let mut staged = job.staged;
        staged.extend(
            job.outstanding
                .into_iter()
                .filter(|t| finished.contains(&(t.node, t.task_id))),
        );
        problems.extend(self.cleanup_staged(&staged));
        self.finish_job(idx, state, reason);
        self.note_problems(idx, problems);
    }

    /// Block until the next event: a body completion or a staging
    /// completion on some daemon. Each busy daemon holds one parked
    /// forever-wait (wire v7 pipelining) covering all its outstanding
    /// ids; the executor epolls every control socket at once and
    /// drains whichever answers. A wait is reissued only when the
    /// outstanding set gains an id the parked one doesn't cover, so
    /// round trips scale with completions, not with polling slices.
    fn await_event(
        &mut self,
        active: &HashMap<usize, ActiveJob>,
        rx: &mpsc::Receiver<BodyResult>,
    ) -> Next {
        if let Some(next) = self.ready.pop_front() {
            return next;
        }
        let mut busy: Vec<usize> = active
            .values()
            .flat_map(|a| a.outstanding.iter().map(|t| t.node))
            .collect();
        busy.sort_unstable();
        busy.dedup();
        let earliest_deadline: Option<Instant> = active
            .values()
            .filter_map(|a| match a.phase {
                Phase::StagingIn { deadline } => Some(deadline),
                _ => None,
            })
            .min();
        if busy.is_empty() {
            // Only job bodies are in flight: their completions are the
            // only possible next event, so park on the channel.
            debug_assert!(
                active.values().any(|a| matches!(a.phase, Phase::Running)),
                "active jobs but nothing to wait on"
            );
            let (idx, result) = rx.recv().expect("run() holds a sender");
            return Next::Body(idx, result);
        }
        // Make sure every busy daemon has a parked wait covering all
        // of its outstanding ids (across every job).
        for &node in &busy {
            let mut ids: Vec<u64> = active
                .values()
                .flat_map(|a| a.outstanding.iter())
                .filter(|t| t.node == node)
                .map(|t| t.task_id)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.truncate(MAX_WAIT_SET);
            let covered = {
                let n = &self.nodes[node];
                n.wait_tag.is_some() && ids.iter().all(|id| n.covered.contains(id))
            };
            if !covered {
                // A superseded wait may still fire for a task the new
                // one also covers; `delivered` dedupes those.
                self.wait_round_trips += 1;
                match self.nodes[node].ctl.issue_wait_any(&ids, 0) {
                    Ok(tag) => {
                        let n = &mut self.nodes[node];
                        n.wait_tag = Some(tag);
                        n.covered = ids.into_iter().collect();
                    }
                    // The daemon can no longer take requests: degrade
                    // its jobs, keep driving the others.
                    Err(e) => {
                        return Next::DaemonLost {
                            node,
                            error: e.to_string(),
                        }
                    }
                }
            }
        }
        // Drain anything that already arrived before sleeping.
        for &node in &busy {
            self.drain_node(node);
        }
        if let Some(next) = self.ready.pop_front() {
            return next;
        }
        // Sleep on the epoll set — every daemon's socket plus the
        // body-completion waker — until the nearest stage-in deadline
        // (or forever during stage-out).
        let until = earliest_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let mut events: Vec<Event> = Vec::new();
        match self.poller.wait(&mut events, until) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Next::Tick,
            Err(e) => panic!("epoll wait failed: {e}"),
        }
        for ev in &events {
            let node = ev.key as usize;
            if ev.key == KEY_BODY_DONE {
                // The run loop collects the result from the channel.
                self.body_done.drain();
            } else if node < self.nodes.len() {
                self.drain_node(node);
            }
        }
        self.ready.pop_front().unwrap_or(Next::Tick)
    }

    /// Pull every decoded response off one daemon's pipelined
    /// connection and queue the resulting events. Completions a
    /// superseded wait already announced are dropped (task ids are
    /// never reused by a daemon); stale bounded-wait timeouts are
    /// ignored.
    fn drain_node(&mut self, node: usize) {
        let drained = match self.nodes[node].ctl.try_drain() {
            Ok(d) => d,
            Err(e) => {
                self.ready.push_back(Next::DaemonLost {
                    node,
                    error: e.to_string(),
                });
                return;
            }
        };
        for (tag, response) in drained {
            {
                let n = &mut self.nodes[node];
                if n.wait_tag == Some(tag) {
                    n.wait_tag = None;
                    n.covered.clear();
                }
            }
            match response {
                Response::TaskCompleted { task_id, stats }
                    if self.nodes[node].delivered.insert(task_id) =>
                {
                    self.ready.push_back(Next::Staging {
                        node,
                        task_id,
                        stats,
                    });
                }
                Response::Error {
                    code: ErrorCode::Timeout,
                    ..
                } => {}
                Response::Error { code, message } => {
                    self.ready.push_back(Next::DaemonLost {
                        node,
                        error: ClientError::Remote { code, message }.to_string(),
                    });
                }
                // A pipelined wait only answers with TaskCompleted or
                // Error; anything else is a stashed leftover from a
                // blocking call and carries no event.
                _ => {}
            }
        }
    }

    /// A daemon stopped answering mid-wait. Every job with staging
    /// outstanding there loses those legs: a StagingIn job dies (its
    /// input cannot arrive — legs on healthy daemons are cancelled and
    /// staged data cleaned, §III), a StagingOut job records the lost
    /// legs as recoverable leftovers and still completes. Jobs and
    /// legs on other daemons are untouched — one sick daemon must not
    /// strand the rest of the workflow.
    fn daemon_lost(&mut self, node: usize, error: &str, active: &mut HashMap<usize, ActiveJob>) {
        let affected: Vec<usize> = active
            .iter()
            .filter(|(_, a)| a.outstanding.iter().any(|t| t.node == node))
            .map(|(idx, _)| *idx)
            .collect();
        for idx in affected {
            let mut job = active.remove(&idx).expect("selected from the map");
            match job.phase {
                Phase::StagingIn { .. } => {
                    // The dead daemon's legs cannot be cancelled or
                    // drained; strip them so teardown only talks to
                    // live daemons.
                    job.outstanding.retain(|t| t.node != node);
                    self.kill_staging_in(
                        idx,
                        job,
                        FlowJobState::Failed,
                        &format!(
                            "daemon {:?} unreachable during stage-in: {error}",
                            self.nodes[node].spec.name
                        ),
                    );
                }
                Phase::Running => unreachable!("Running jobs have no outstanding staging"),
                Phase::StagingOut => {
                    let mut kept = Vec::new();
                    for t in job.outstanding {
                        if t.node == node {
                            self.jobs[idx].leftovers.push(format!(
                                "lost with daemon {:?}: {}",
                                self.nodes[node].spec.name, t.label
                            ));
                        } else {
                            kept.push(t);
                        }
                    }
                    job.outstanding = kept;
                    if job.outstanding.is_empty() {
                        self.finish_job(idx, FlowJobState::Completed, "");
                    } else {
                        active.insert(idx, job);
                    }
                }
            }
        }
    }

    /// Route one staging completion to the job that owns it and
    /// advance that job's state machine.
    fn staging_event(
        &mut self,
        node: usize,
        task_id: u64,
        stats: TaskStats,
        active: &mut HashMap<usize, ActiveJob>,
        tx: &mpsc::Sender<BodyResult>,
        threads: &mut Vec<JoinHandle<()>>,
    ) {
        let Some(idx) = active
            .iter()
            .find(|(_, a)| {
                a.outstanding
                    .iter()
                    .any(|t| t.node == node && t.task_id == task_id)
            })
            .map(|(idx, _)| *idx)
        else {
            return; // stale completion of an already-drained task
        };
        let job = active.get_mut(&idx).expect("found above");
        let pos = job
            .outstanding
            .iter()
            .position(|t| t.node == node && t.task_id == task_id)
            .expect("found above");
        let done = job.outstanding.swap_remove(pos);
        let ok = stats.state == TaskState::Finished;
        match job.phase {
            Phase::StagingIn { .. } => {
                if ok {
                    job.staged.push(done);
                    if job.outstanding.is_empty() {
                        active.remove(&idx);
                        self.begin_body(idx, active, tx, threads);
                    }
                } else {
                    let detail = format!(
                        "{} (task {task_id}) ended {:?} ({:?})",
                        done.label, stats.state, stats.error
                    );
                    let job = active.remove(&idx).expect("present");
                    self.kill_staging_in(
                        idx,
                        job,
                        FlowJobState::Failed,
                        &format!("stage-in failed: {detail}"),
                    );
                }
            }
            Phase::Running => unreachable!("Running jobs have no outstanding staging"),
            Phase::StagingOut => {
                if ok {
                    // Release the local source of a successful remote
                    // push — the copy-based leg's analog of `Move`
                    // freeing staged capacity. The Remove joins the
                    // outstanding set so completion still gates on it.
                    if let Some((nsid, path)) = &done.release {
                        let spec = TaskSpec::new(
                            TaskOp::Remove,
                            ResourceDesc::PosixPath {
                                nsid: nsid.clone(),
                                path: path.clone(),
                            },
                            None,
                        );
                        let label = format!(
                            "release {nsid}://{path} on {:?}",
                            self.nodes[done.node].spec.name
                        );
                        let job_id = self.jobs[idx].id.0;
                        match self.nodes[done.node].ctl.submit(job_id, spec, None) {
                            Ok(release_id) => job.outstanding.push(StageTask {
                                node: done.node,
                                task_id: release_id,
                                dst: None,
                                release: None,
                                label,
                            }),
                            Err(e) => self.jobs[idx]
                                .leftovers
                                .push(format!("{label} not submitted: {e}")),
                        }
                    }
                    let job = active.get_mut(&idx).expect("present");
                    if job.outstanding.is_empty() {
                        active.remove(&idx);
                        self.finish_job(idx, FlowJobState::Completed, "");
                    }
                } else {
                    // "leave the data on the node local resources for
                    // future stage_out operations to try and recover"
                    // — including the sibling legs cancelled because
                    // of the failure: their data was never staged out
                    // either.
                    let detail = format!(
                        "{} (task {task_id}) ended {:?} ({:?})",
                        done.label, stats.state, stats.error
                    );
                    let job = active.remove(&idx).expect("present");
                    self.jobs[idx].leftovers.push(detail);
                    let (finished, problems) = self.cancel_and_drain(&job.outstanding);
                    for t in &job.outstanding {
                        if !finished.contains(&(t.node, t.task_id)) {
                            self.jobs[idx]
                                .leftovers
                                .push(format!("cancelled before staging out: {}", t.label));
                        }
                    }
                    self.finish_job(idx, FlowJobState::Completed, "");
                    self.note_problems(idx, problems);
                }
            }
        }
    }

    /// Cancel every task in the set, then drain the stragglers a
    /// worker had already picked up (bounded by `cancel_grace`) so no
    /// transfer is left racing the job's teardown. Best-effort: wire
    /// problems are *returned* for the caller to record, never
    /// propagated — teardown of one job must not strand the others.
    /// Also returns the `(node, task_id)` keys of tasks that ended
    /// `Finished` anyway (their work completed despite the cancel, so
    /// e.g. stage-in cleanup must cover their destinations too) —
    /// keyed per node because task ids are per-daemon counters and
    /// collide across daemons.
    fn cancel_and_drain(&mut self, tasks: &[StageTask]) -> (Vec<(usize, u64)>, Vec<String>) {
        let mut problems: Vec<String> = Vec::new();
        for t in tasks {
            match self.nodes[t.node].ctl.cancel(t.task_id) {
                Ok(()) | Err(ClientError::Remote { .. }) => {} // running/finished: drained below
                Err(e) => problems.push(format!("cancel {}: {e}", t.label)),
            }
        }
        let keys = tasks.iter().map(|t| (t.node, t.task_id)).collect();
        let (finished, drain_problems) = self.drain_within_grace(keys, "drain");
        problems.extend(drain_problems);
        (finished, problems)
    }

    /// Join the `(node, task_id)` set, one node's `wait_any` at a time,
    /// for at most `cancel_grace` in total; whatever is still running
    /// at the deadline is left to the daemon. Returns the keys that
    /// ended `Finished` and the transport problems met (`what` names
    /// the caller in them).
    fn drain_within_grace(
        &mut self,
        mut left: Vec<(usize, u64)>,
        what: &str,
    ) -> (Vec<(usize, u64)>, Vec<String>) {
        let mut finished: Vec<(usize, u64)> = Vec::new();
        let mut problems: Vec<String> = Vec::new();
        let grace = Instant::now() + self.config.cancel_grace;
        while !left.is_empty() && Instant::now() < grace {
            let node = left[0].0;
            let mut ids: Vec<u64> = left
                .iter()
                .filter(|(n, _)| *n == node)
                .map(|(_, id)| *id)
                .collect();
            // Over-cap sets are waited in MAX_WAIT_SET windows: each
            // completion shrinks `left`, letting later ids in.
            ids.truncate(MAX_WAIT_SET);
            let remaining = grace.saturating_duration_since(Instant::now());
            self.wait_round_trips += 1;
            match self.nodes[node]
                .ctl
                .wait_any(&ids, (remaining.as_micros() as u64).max(1))
            {
                Ok((task_id, stats)) => {
                    if stats.state == TaskState::Finished {
                        finished.push((node, task_id));
                    }
                    left.retain(|key| *key != (node, task_id));
                }
                Err(ClientError::Remote {
                    code: ErrorCode::Timeout,
                    ..
                }) => {}
                // The whole set may already be gone (cancelled tasks
                // are terminal, completion GC may collect them).
                Err(ClientError::Remote { .. }) => left.retain(|(n, _)| *n != node),
                Err(e) => {
                    problems.push(format!("{what} on {:?}: {e}", self.nodes[node].spec.name));
                    left.retain(|(n, _)| *n != node);
                }
            }
        }
        (finished, problems)
    }

    /// Remove the destinations of already-finished stage-in transfers
    /// after a timeout or failure killed the job (§III cleanup). Each
    /// removal is submitted to the node the destination is local to
    /// (its owning peer for pushed `RemotePath` legs). Joining the
    /// removals is bounded by `cancel_grace`: the timeout path must
    /// never wait unboundedly behind the very congestion that made the
    /// job miss its deadline. Best-effort like [`Self::cancel_and_drain`]:
    /// problems are returned, never propagated.
    fn cleanup_staged(&mut self, staged: &[StageTask]) -> Vec<String> {
        let mut problems: Vec<String> = Vec::new();
        let mut removals: Vec<(usize, u64)> = Vec::new();
        for t in staged {
            let Some((owner, nsid, path)) = &t.dst else {
                continue;
            };
            let spec = TaskSpec::new(
                TaskOp::Remove,
                ResourceDesc::PosixPath {
                    nsid: nsid.clone(),
                    path: path.clone(),
                },
                None,
            );
            match self.nodes[*owner].ctl.submit(0, spec, None) {
                Ok(task_id) => removals.push((*owner, task_id)),
                Err(ClientError::Remote { .. }) => {}
                Err(e) => problems.push(format!("cleanup of {}: {e}", t.label)),
            }
        }
        // Removals still running at the deadline keep running
        // daemon-side; only the waiting stops.
        let (_, wait_problems) = self.drain_within_grace(removals, "cleanup wait");
        problems.extend(wait_problems);
        problems
    }
}
