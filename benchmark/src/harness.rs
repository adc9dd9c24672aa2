//! Shared plumbing: scratch directories, seeded inputs, the daemon
//! cluster every workload drives, the per-op recorder with its
//! in-memory spans, and the order statistics the metrics are built
//! from.

use std::collections::BTreeMap;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{
    BackendKind, DataspaceDesc, ResourceDesc, TaskOp, TaskSpec, TaskState, TaskStats,
};

pub const KIB: u64 = 1 << 10;
pub const MIB: u64 = 1 << 20;
pub const GIB: f64 = (1u64 << 30) as f64;

/// Job id every control-socket submission runs under (the control API
/// does not require the job to be registered).
pub const JOB: u64 = 1;

// ---- order statistics ------------------------------------------------

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the even-count midpoint (matches Python's
/// `statistics.median`, which the driver uses).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

// ---- seeded inputs ----------------------------------------------------

/// SplitMix64: the seed decides file contents and `task_storm`'s name
/// order and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` pseudo-random bytes; `len` is a multiple of 8.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for word in out.chunks_exact_mut(8) {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

// ---- scratch ----------------------------------------------------------

/// `benchmark/`, in the checkout `cargo run` was started from, or
/// else the one the binary was built in.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out`, inside the checkout (the driver allows reads and
/// writes nowhere else).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// A scratch directory removed on drop, so it goes away on exit and on
/// an unwinding panic alike.
///
/// The process `chdir`s into it and hands daemons *relative* socket
/// directories: `sockaddr_un` holds 108 bytes, which an absolute path
/// below an arbitrary checkout can exceed. Dataspace mounts stay
/// absolute. Dropping it returns to the directory it was created in,
/// so a second scratch may live and die inside the first one's
/// lifetime, as long as nothing connects to the first one's daemons
/// meanwhile.
pub struct Scratch {
    root: PathBuf,
    created_in: PathBuf,
}

static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    pub fn create() -> Scratch {
        let root = out_dir().join(format!(
            "scratch-{}-{}",
            std::process::id(),
            NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch directory");
        let created_in = std::env::current_dir().expect("current directory");
        std::env::set_current_dir(&root).expect("enter scratch directory");
        Scratch { root, created_in }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.created_in);
        let _ = fs::remove_dir_all(&self.root);
    }
}

// ---- the daemon cluster ----------------------------------------------

pub struct Node {
    pub name: &'static str,
    pub nsid: &'static str,
    pub daemon: UrdDaemon,
    /// Absolute backing directory of the node's dataspace.
    pub mount: PathBuf,
}

/// Live in-process daemons. Field order matters: daemons shut down
/// before the scratch directory under them is removed.
pub struct Cluster {
    pub nodes: Vec<Node>,
    pub spawn_ms: f64,
    pub register_ms: f64,
    pub scratch: Scratch,
}

impl Cluster {
    /// Spawn one daemon per `(name, nsid)` with the repository's
    /// **default** configuration plus a loopback data plane, register
    /// each node's dataspace, and tell node 0 about every other node's
    /// data-plane address.
    pub fn spawn(layout: &[(&'static str, &'static str)]) -> Cluster {
        let scratch = Scratch::create();
        let started = Instant::now();
        let mut nodes = Vec::new();
        for &(name, nsid) in layout {
            let daemon = UrdDaemon::spawn(DaemonConfig::in_dir(name).with_data_addr("127.0.0.1:0"))
                .expect("spawn urd daemon");
            let mount = scratch.root().join(name).join("ds");
            fs::create_dir_all(&mount).expect("create dataspace mount");
            nodes.push(Node {
                name,
                nsid,
                daemon,
                mount,
            });
        }
        let spawn_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        for node in &nodes {
            let mut ctl = CtlClient::connect(&node.daemon.control_path).expect("connect ctl");
            ctl.register_dataspace(DataspaceDesc {
                nsid: node.nsid.into(),
                kind: BackendKind::PosixFilesystem,
                mount: node.mount.to_string_lossy().into_owned(),
                quota: 0,
                tracked: false,
            })
            .expect("register dataspace");
        }
        let mut ctl = CtlClient::connect(&nodes[0].daemon.control_path).expect("connect ctl");
        for peer in &nodes[1..] {
            let addr = peer.daemon.data_addr().expect("data plane enabled");
            ctl.register_peer(peer.name, &addr.to_string())
                .expect("register peer");
        }
        let register_ms = started.elapsed().as_secs_f64() * 1e3;
        Cluster {
            nodes,
            spawn_ms,
            register_ms,
            scratch,
        }
    }

    pub fn ctl(&self, node: usize) -> CtlClient {
        CtlClient::connect(&self.nodes[node].daemon.control_path).expect("connect ctl")
    }
}

pub fn posix(nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::PosixPath {
        nsid: nsid.into(),
        path: path.into(),
    }
}

pub fn remote(host: &str, nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::RemotePath {
        host: host.into(),
        nsid: nsid.into(),
        path: path.into(),
    }
}

pub fn copy_spec(input: ResourceDesc, output: ResourceDesc) -> TaskSpec {
    TaskSpec::new(TaskOp::Copy, input, Some(output))
}

// ---- output verification ----------------------------------------------

/// Set by the hidden `--flip-byte` flag: the next verified file gets
/// one byte flipped on disk first, so the smoke test can see the
/// comparison catch it.
pub static FLIP_NEXT: AtomicBool = AtomicBool::new(false);

/// Does the file hold exactly `expected`? Streams in 1 MiB blocks so
/// a 64 MiB compare allocates nothing large.
pub fn file_matches(path: &Path, expected: &[u8]) -> bool {
    if FLIP_NEXT.swap(false, Ordering::SeqCst) {
        if let Ok(mut bytes) = fs::read(path) {
            if let Some(b) = bytes.get_mut(0) {
                *b ^= 0xFF;
            }
            let _ = fs::write(path, bytes);
        }
    }
    let Ok(mut file) = fs::File::open(path) else {
        return false;
    };
    if file.metadata().map(|m| m.len()).ok() != Some(expected.len() as u64) {
        return false;
    }
    let mut block = vec![0u8; (MIB as usize).min(expected.len().max(1))];
    let mut offset = 0;
    while offset < expected.len() {
        let want = block.len().min(expected.len() - offset);
        if file.read_exact(&mut block[..want]).is_err()
            || block[..want] != expected[offset..offset + want]
        {
            return false;
        }
        offset += want;
    }
    true
}

// ---- recording --------------------------------------------------------

/// When a workload's op loop ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many ops (warm-up, micro passes).
    Count(u64),
    /// When the clock passes this instant (timed phases).
    At(Instant),
}

impl Stop {
    pub fn reached(&self, done: u64) -> bool {
        match *self {
            Stop::Count(n) => done >= n,
            Stop::At(t) => Instant::now() >= t,
        }
    }

    /// The share of the work one of `n` equal clients gets.
    pub fn split(&self, n: u64) -> Stop {
        match *self {
            Stop::Count(total) => Stop::Count(total.div_ceil(n)),
            at => at,
        }
    }
}

/// One op as the client saw it; times are ns since the recorder's
/// origin.
#[derive(Clone, Copy)]
pub struct OpRec {
    pub start: u64,
    /// End of the client-observed latency (for `durable_stage_out`,
    /// the ACK).
    pub end: u64,
    /// End of the op's cycle — after drain and verification — which is
    /// what throughput counts.
    pub done: u64,
    pub failed: bool,
}

/// A span of the traced pass. `leg` tells apart the spans one op has
/// under the same name (`push`/`pull`, a chain's jobs).
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub leg: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Op and span ids carry the client thread's number above this bit, so
/// that recorders merged from several client threads keep ids unique.
const CLIENT_SHIFT: u32 = 28;

/// An op id without its client number: the op's index on its client.
pub fn op_index(op: u32) -> u32 {
    op & ((1 << CLIENT_SHIFT) - 1)
}

/// Per-pass record: ops always, spans and counters only when tracing.
pub struct Recorder {
    origin: Instant,
    pub ops: Vec<OpRec>,
    pub spans: Option<Vec<Span>>,
    /// Counts taken at the same boundaries as the spans.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    /// The client thread's number, shifted by `CLIENT_SHIFT`.
    id_base: u32,
}

impl Recorder {
    pub fn new(origin: Instant, tracing: bool) -> Recorder {
        Recorder {
            origin,
            ops: Vec::new(),
            spans: tracing.then(Vec::new),
            counts: BTreeMap::new(),
            id_base: 0,
        }
    }

    /// A recorder for one of several client threads of the same pass.
    pub fn fork(&self, client: u32) -> Recorder {
        let mut r = Recorder::new(self.origin, self.spans.is_some());
        r.id_base = client << CLIENT_SHIFT;
        r
    }

    pub fn merge(&mut self, other: Recorder) {
        self.ops.extend(other.ops);
        if let (Some(mine), Some(theirs)) = (self.spans.as_mut(), other.spans) {
            mine.extend(theirs);
        }
        for (name, values) in other.counts {
            self.counts.entry(name).or_default().extend(values);
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span; returns its id (0 when tracing is off; real ids
    /// start at 1, so 0 also means "no parent").
    pub fn span(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        leg: &'static str,
        start: u64,
        end: u64,
    ) -> u32 {
        let Some(spans) = self.spans.as_mut() else {
            return 0;
        };
        let id = self.id_base + spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent,
            op,
            name,
            leg,
            start,
            end,
        });
        id
    }

    /// Set the end of a span recorded before its extent was known.
    pub fn close(&mut self, id: u32, end: u64) {
        if let Some(spans) = self.spans.as_mut() {
            spans[(id - self.id_base - 1) as usize].end = end;
        }
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.tracing() {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Op id for the next op's spans (unique across forked recorders).
    pub fn next_op(&self) -> u32 {
        self.id_base + self.ops.len() as u32 + 1
    }

    /// The spans every staged task gets: `client.submit`, then
    /// `client.wait` tiled by `sched.queue_wait`, `engine.exec` and
    /// `daemon.delivery`. Queue wait and execution are the daemon's
    /// own `TaskStats`, laid out from the moment the submit was sent
    /// (the task cannot have been queued earlier); the part of them
    /// that falls before the wait was issued is cut off, so the three
    /// children always sum to the wait span. `daemon.delivery` is the
    /// rest: the wait's answer on its way back, plus whatever the
    /// daemon did with the submit before it queued the task.
    #[allow(clippy::too_many_arguments)]
    pub fn staged_spans(
        &mut self,
        parent: u32,
        op: u32,
        leg: &'static str,
        start: u64,
        submitted: u64,
        end: u64,
        stats: &TaskStats,
    ) {
        if !self.tracing() {
            return;
        }
        self.span(parent, op, "client.submit", leg, start, submitted);
        let wait = self.span(parent, op, "client.wait", leg, submitted, end);
        let within = |t: u64| t.clamp(submitted, end);
        let dispatched = within(start + stats.wait_usec * 1000);
        let finished = within(start + (stats.wait_usec + stats.elapsed_usec) * 1000);
        self.span(wait, op, "sched.queue_wait", leg, submitted, dispatched);
        self.span(wait, op, "engine.exec", leg, dispatched, finished);
        self.span(wait, op, "daemon.delivery", leg, finished, end);
        self.count("sched.queue_wait_us", stats.wait_usec as f64);
        self.count("engine.exec_us", stats.elapsed_usec as f64);
    }

    /// Submit one task over the blocking client and wait for it.
    /// Returns `(end, ok)`; a refusal, a non-`Finished` state or a
    /// wrong byte count is not ok.
    pub fn staged(
        &mut self,
        ctl: &mut CtlClient,
        spec: TaskSpec,
        bytes: u64,
        parent: u32,
        op: u32,
        leg: &'static str,
    ) -> (u64, bool) {
        let start = self.now();
        let id = match ctl.submit(JOB, spec, None) {
            Ok(id) => id,
            Err(e) => {
                self.refused(&e);
                return (self.now(), false);
            }
        };
        let submitted = self.now();
        let stats = ctl.wait(id, 0);
        let end = self.now();
        match stats {
            Ok(stats) => {
                self.staged_spans(parent, op, leg, start, submitted, end, &stats);
                let ok = stats.state == TaskState::Finished && stats.bytes_moved == bytes;
                (end, ok)
            }
            Err(_) => (end, false),
        }
    }

    /// Count a `Busy` refusal (reported as `daemon.busy_refusals`).
    pub fn refused(&mut self, error: &norns_ipc::ClientError) {
        if let norns_ipc::ClientError::Remote {
            code: norns_proto::ErrorCode::Busy,
            ..
        } = error
        {
            self.count("daemon.busy_refusals", 1.0);
        }
    }
}
