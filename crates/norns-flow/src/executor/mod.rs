//! The real-mode workflow executor.
//!
//! `slurm-sim` proves the paper's §III orchestration against a
//! simulated cluster; this module drives the *same* submission scripts
//! against **live** [`norns_ipc::UrdDaemon`]s: register the job with
//! every daemon it touches, submit its `#NORNS stage_in` tasks
//! (including `RemotePath` legs routed through the peer registry),
//! hold the job body until stage-in completes, run it, then stage out.
//! Every decision about a job — its state, what a failed leg, a refused
//! submission, the stage-in timeout or a failed body does to it, when
//! its dependents are cancelled — is a row of one pure table,
//! [`crate::job::step`], which the simulated `slurmctld` runs too; this
//! executor applies it at one site, `WorkflowExecutor::step`, and keeps
//! only its own side effects: registration rollback, body threads, the
//! epoll pump and daemon-loss detection (a lost daemon's legs end as
//! failed legs). One gap stays: the simulator removes a completed job's
//! non-persisted stage-in data, this executor keeps it.
//!
//! [`WorkflowExecutor::run`] is an event-driven **DAG engine**: every
//! dependency-ready job is admitted concurrently, job bodies run on
//! worker threads, and every staging task has one parked v7 `WaitTask`
//! on its daemon's pipelined connection, all answered through one epoll
//! pump — job B's stage-in proceeds while job A computes and stages
//! out, which is the overlap the paper's asynchronous staging exists to
//! deliver (§III).
//!
//! Which node moves which path is decided by [`crate::plan`], the
//! mapping table shared with the simulator: `node:k` places data on
//! the k-th assigned node, stage-in `all` replicates to every node,
//! stage-out `all` moves one replica, and `scatter`/`gather` are
//! **real** — the executor answers the planner's listing callback over
//! the wire's v6 `ListDir` op, so children are split round-robin
//! across the assigned nodes (scatter) or merged per child into one
//! destination (gather), never replicated. This module only turns each
//! planned slot into a wire task: local dataspaces become `PosixPath`,
//! dataspaces hosted elsewhere `RemotePath`, a stage-in slot is a
//! `Copy` and a stage-out slot one `Move`, which frees the staged
//! source once every byte has landed, on whichever node it is (the
//! engine degrades a same-filesystem one to `rename(2)`).
//!
//! The code is split by concern: this file holds the public types,
//! submission and the per-slot conversion; [`lifecycle`] is the table's
//! apply site and the actions that move a job on (admission,
//! registration, submitting a phase, the body); [`wait`] submits every
//! task with its parked `WaitTask` and is the one blocking point, a
//! single epoll set over every daemon that routes each answer to its
//! task by tag; [`teardown`] is everything that undoes work — the
//! deadline, cancels, §III removals, a lost daemon.
//! [`WorkflowExecutor::wait_round_trips`] and
//! [`WorkflowExecutor::query_round_trips`] expose the counters the
//! examples assert on.

mod lifecycle;
mod teardown;
mod wait;

use std::collections::{HashMap, VecDeque};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use norns_ipc::{ClientError, CtlClient};
use norns_proto::{Durability, ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskStats};
use polling::{Interest, Poller, Waker};

use crate::job::{self, JobState};
use crate::plan::{plan, Listing, Slot, Stage};
use crate::script::{self, JobScript, PersistOp, ScriptError, WorkflowPos};

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
    /// Durability applied to stage-out legs of jobs whose script has
    /// no `#NORNS durability` directive (wire v8). It rides a
    /// stage-out `Move` whose two ends are local — the daemon's
    /// replication queue pushes the landed output; a leg that crosses
    /// nodes lands its only copy off-node and carries none.
    pub durability: Durability,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            stage_in_timeout: Duration::from_secs(30),
            durability: Durability::LocalOnly,
        }
    }
}

/// How long, once every job has ended, the answers still owed for its
/// teardown — cancelled legs, §III removals — are waited for before
/// they are left to their daemons.
const CANCEL_GRACE: Duration = Duration::from_secs(5);

/// Executor-assigned job id (distinct from the daemons' task ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowJobId(pub u64);

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
    /// The parked `WaitTask` (timeout 0: forever) of every task this
    /// daemon still owes an answer for: request tag → task id.
    waits: HashMap<u64, u64>,
}

/// A submitted job. Its id is its position in the job table plus one.
struct JobRec {
    id: FlowJobId,
    script: JobScript,
    body: Option<JobBody>,
    /// Indices into the executor's node table.
    nodes: Vec<usize>,
    /// Dependencies, as indices of earlier jobs in the job table.
    deps: Vec<usize>,
    /// Its record in the one job lifecycle table.
    life: job::Job,
    failure: Option<String>,
    /// Stage-out legs that failed; data stays on the nodes "for future
    /// stage_out operations to try and recover" (§III).
    leftovers: Vec<String>,
    /// Its staging legs whose parked waits are still owed.
    legs: Vec<Leg>,
    /// Its stage-in legs that landed while it stages in: what a kill
    /// removes.
    landed: Vec<Leg>,
    /// When its stage-in times out.
    deadline: Option<Instant>,
}

/// One staging leg, planned and then submitted: which daemon runs it,
/// its destination for post-timeout/failure cleanup (keyed by the node
/// the destination is *local* to — the task's own node for plain
/// paths, the owning peer for pushed `RemotePath` outputs), and a
/// human-readable label for leftover reports.
struct Leg {
    node: usize,
    /// The daemon's task id; 0 until the leg is submitted.
    task_id: u64,
    dst: Option<(usize, String, String)>,
    label: String,
}

/// What the central event wait produced.
enum Next {
    /// A task's parked wait answered: its final stats, or the
    /// daemon's refusal of the wait.
    Staging {
        node: usize,
        task_id: u64,
        outcome: Result<TaskStats, ClientError>,
    },
    /// A daemon stopped answering its control socket at the transport
    /// level: every job with staging outstanding there degrades, the
    /// rest of the workflow continues.
    DaemonLost { node: usize, error: String },
    /// A body finished or a deadline wait expired; the loop re-checks
    /// completions, deadlines and admissions.
    Tick,
}

type BodyResult = (usize, Result<(), String>);

/// The body threads and the channel they report through.
struct RunState {
    tx: mpsc::Sender<BodyResult>,
    rx: mpsc::Receiver<BodyResult>,
    threads: Vec<JoinHandle<()>>,
}

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
    run: RunState,
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
}

impl WorkflowExecutor {
    pub fn new(config: FlowConfig) -> Self {
        let poller = Poller::new().expect("epoll instance");
        let body_done = Waker::new(&poller, KEY_BODY_DONE).expect("eventfd");
        let (tx, rx) = mpsc::channel();
        WorkflowExecutor {
            config,
            nodes: Vec::new(),
            jobs: Vec::new(),
            next_node: 0,
            peers_linked: false,
            events: Vec::new(),
            run: RunState {
                tx,
                rx,
                threads: Vec::new(),
            },
            poller,
            body_done: Arc::new(body_done),
            ready: VecDeque::new(),
            wait_round_trips: 0,
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
            waits: HashMap::new(),
        });
        Ok(())
    }

    /// Parse and enqueue a submission script (`sbatch` analogue). The
    /// job is validated against the node set now — unknown dataspaces,
    /// unknown workflow dependencies, oversized allocations and
    /// out-of-range `node:k` mappings are submission errors, not late
    /// failures. (`scatter`/`gather` directives are *listed* only when
    /// the job is admitted: their children come from live directory
    /// enumeration, typically of data an upstream job has yet to
    /// produce.)
    ///
    /// `#NORNS persist store` is accepted and changes nothing: real
    /// mode never removes a completed job's staged-in data (the
    /// lifecycle's one gap with the simulator, which removes what no
    /// `persist store` names), so it is already stored.
    /// `delete`/`share`/`unshare` have no real-mode implementation and
    /// are refused rather than silently dropped.
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
        if let Some(p) = script.persist.iter().find(|p| p.op != PersistOp::Store) {
            return Err(FlowError::Plan(format!(
                "#NORNS persist {} {} {}: real mode implements only `persist store`",
                p.op.render(),
                p.location,
                p.user
            )));
        }
        let deps = match &script.workflow {
            WorkflowPos::None | WorkflowPos::Start => Vec::new(),
            WorkflowPos::Dependent(names) | WorkflowPos::End(names) => names
                .iter()
                .map(|name| {
                    self.jobs
                        .iter()
                        .position(|j| j.script.name == *name)
                        .ok_or_else(|| {
                            FlowError::Plan(format!("unknown workflow dependency {name:?}"))
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Round-robin node assignment, preserving the submit order the
        // policies key on.
        let nodes: Vec<usize> = (0..script.nodes)
            .map(|k| (self.next_node + k) % self.nodes.len())
            .collect();
        self.next_node = (self.next_node + script.nodes) % self.nodes.len();
        // Every directive must be routable before anything runs: plan
        // both phases without touching a daemon and discard the legs.
        for stage in [Stage::In, Stage::Out] {
            self.expand(&nodes, &script, stage, false)
                .map_err(FlowError::Plan)?;
        }
        let id = FlowJobId(self.jobs.len() as u64 + 1);
        self.jobs.push(JobRec {
            id,
            script,
            body: Some(body),
            nodes,
            deps,
            life: job::Job::default(),
            failure: None,
            leftovers: Vec::new(),
            legs: Vec::new(),
            landed: Vec::new(),
            deadline: None,
        });
        self.events.push(FlowEvent::Submitted { job: id });
        Ok(id)
    }

    /// Run every submitted job to a terminal state. All
    /// dependency-ready jobs execute **concurrently**: bodies on
    /// worker threads, staging multiplexed through one parked wait per
    /// task, each job gated only on its own workflow dependencies.
    /// Returns the terminal state of each job in submission order.
    pub fn run(&mut self) -> Result<Vec<(FlowJobId, JobState)>, FlowError> {
        self.link_peers()?;
        let mut grace = None;
        loop {
            self.admit_ready();
            // Deliver any body completions that already arrived; they
            // may have unblocked admissions.
            let mut progressed = false;
            while let Ok((idx, result)) = self.run.rx.try_recv() {
                self.body_finished(idx, result);
                progressed = true;
            }
            if progressed || self.expire_deadlines() {
                continue;
            }
            if self.jobs.iter().all(|j| j.life.state.is_terminal()) {
                // Owed: an answer queued by the pump, or a parked wait.
                let owed = !self.ready.is_empty() || self.nodes.iter().any(|n| !n.waits.is_empty());
                let until = *grace.get_or_insert_with(|| Instant::now() + CANCEL_GRACE);
                if !owed || Instant::now() >= until {
                    break;
                }
            }
            match self.await_event(grace) {
                Next::Staging {
                    node,
                    task_id,
                    outcome,
                } => self.leg_ended(node, task_id, outcome),
                Next::DaemonLost { node, error } => self.daemon_lost(node, &error),
                Next::Tick => {}
            }
        }
        // Bodies are finite; join them so no thread outlives the call
        // (their completions were all consumed by the loop).
        for handle in self.run.threads.drain(..) {
            let _ = handle.join();
        }
        Ok(self.jobs.iter().map(|j| (j.id, j.life.state)).collect())
    }

    // ---- observability ----

    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    fn job(&self, id: FlowJobId) -> Option<&JobRec> {
        self.jobs.get((id.0 as usize).checked_sub(1)?)
    }

    pub fn job_state(&self, id: FlowJobId) -> Option<JobState> {
        self.job(id).map(|j| j.life.state)
    }

    pub fn failure(&self, id: FlowJobId) -> Option<&str> {
        self.job(id)?.failure.as_deref()
    }

    pub fn leftovers(&self, id: FlowJobId) -> &[String] {
        self.job(id).map_or(&[], |j| &j.leftovers)
    }

    /// Wire-level `WaitTask`s issued so far: exactly one per task the
    /// executor submitted (stage legs and §III cleanup removals) —
    /// never tasks × polling interval.
    pub fn wait_round_trips(&self) -> u64 {
        self.wait_round_trips
    }

    /// Wire-level per-task `QueryTask` round-trips issued so far:
    /// always 0, because the executor has no code path that polls task
    /// state. Kept so callers can keep asserting exactly that.
    pub fn query_round_trips(&self) -> u64 {
        0
    }

    // ---- planning: one planned slot → one wire task ----

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

    /// Turn one planned slot into the task `node` submits for it.
    /// Stage-in legs are copies, their destination recorded for §III
    /// cleanup. A stage-out leg is one `Move`, which frees its source
    /// on whichever node holds it (the paper's stage-out hands
    /// node-local capacity back); it carries the durability policy
    /// when both its ends are local, since replication pushes the
    /// landed output — a leg that crosses nodes lands its only copy
    /// off-node.
    fn plan_leg(
        &self,
        node: usize,
        slot: &Slot,
        stage: Stage,
        durability: Durability,
    ) -> Result<(Leg, TaskSpec), String> {
        let (origin, destination) = (&slot.origin, &slot.destination);
        let input = self.resolve_endpoint(node, origin)?;
        let output = self.resolve_endpoint(node, destination)?;
        let remote = |r: &ResourceDesc| matches!(r, ResourceDesc::RemotePath { .. });
        if remote(&input) && remote(&output) {
            return Err(format!(
                "stage {origin} → {destination} touches node {:?} on neither end; assign the \
                 job to a node hosting one of the dataspaces",
                self.nodes[node].spec.name
            ));
        }
        // Remember stage-in destinations for timeout/failure cleanup —
        // keyed by the node they are local to, so a pushed RemotePath
        // output is removed on its *owning* peer, not the node that
        // ran the push.
        let dst = match (stage, &output) {
            (Stage::In, ResourceDesc::RemotePath { nsid, path, .. }) => self
                .owner_of(nsid)
                .map(|owner| (owner, nsid.clone(), path.clone())),
            (Stage::In, ResourceDesc::PosixPath { nsid, path }) => {
                Some((node, nsid.clone(), path.clone()))
            }
            _ => None,
        };
        let (op, durability) = match stage {
            Stage::In => (TaskOp::Copy, Durability::LocalOnly),
            Stage::Out if remote(&input) || remote(&output) => {
                (TaskOp::Move, Durability::LocalOnly)
            }
            Stage::Out => (TaskOp::Move, durability),
        };
        let label = format!(
            "{origin} → {destination} on {:?}",
            self.nodes[node].spec.name
        );
        let spec = TaskSpec::new(op, input, Some(output)).with_durability(durability);
        let leg = Leg {
            node,
            task_id: 0,
            dst,
            label,
        };
        Ok((leg, spec))
    }

    /// The planner's listing callback: what the `slot`-th assigned
    /// node holds at `origin`, asked over the wire's v6 `ListDir`. A
    /// stage-in origin is one location, listed on the node owning its
    /// dataspace. A stage-out origin is node-local: only nodes hosting
    /// the dataspace contribute — unless none of the job's nodes does,
    /// in which case the first one moves the whole path from wherever
    /// it lives. With `live` unset (submission, when the data does not
    /// exist yet) every holder answers "one unit", which plans exactly
    /// the legs whose routability can be checked up front.
    fn origin_listing(
        &mut self,
        assigned: &[usize],
        stage: Stage,
        origin: &str,
        slot: usize,
        live: bool,
    ) -> Result<Listing, String> {
        let (nsid, path) = script::split_location(origin).map_err(|e| e.to_string())?;
        let node = if stage == Stage::In {
            self.owner_of(nsid)
                .ok_or_else(|| format!("no node hosts dataspace {nsid:?}"))?
        } else if self.hosts(assigned[slot], nsid) {
            assigned[slot]
        } else {
            let off_allocation = !assigned.iter().any(|&n| self.hosts(n, nsid));
            return Ok(if off_allocation && slot == 0 {
                Listing::NotADirectory
            } else {
                Listing::Missing
            });
        };
        if !live {
            return Ok(Listing::NotADirectory);
        }
        match self.nodes[node].ctl.list_dir(nsid, path) {
            Ok(children) => Ok(Listing::Children(children)),
            Err(ClientError::Remote {
                code: ErrorCode::BadArgs,
                ..
            }) => Ok(Listing::NotADirectory),
            Err(ClientError::Remote {
                code: ErrorCode::NotFound,
                ..
            }) => Ok(Listing::Missing),
            Err(e) => Err(format!(
                "cannot enumerate {origin} on {:?}: {e}",
                self.nodes[node].spec.name
            )),
        }
    }

    /// Expand one phase's directives into concrete per-node legs:
    /// [`crate::plan`] picks the slots, [`Self::plan_leg`] turns each
    /// into a wire task. The script's `#NORNS durability` directive
    /// overrides the executor-wide default for its stage-outs. An
    /// `Err` fails (stage-in) or degrades (stage-out) the job — it is
    /// never a run-level abort.
    fn expand(
        &mut self,
        assigned: &[usize],
        script: &JobScript,
        stage: Stage,
        live: bool,
    ) -> Result<Vec<(Leg, TaskSpec)>, String> {
        let directives = match stage {
            Stage::In => &script.stage_in,
            Stage::Out => &script.stage_out,
        };
        let durability = script.durability.unwrap_or(self.config.durability);
        let mut out = Vec::new();
        for dir in directives {
            let slots = plan(stage, dir, assigned.len(), |slot| {
                self.origin_listing(assigned, stage, &dir.origin, slot, live)
            })?;
            for slot in slots {
                out.push(self.plan_leg(assigned[slot.node_slot], &slot, stage, durability)?);
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
}
