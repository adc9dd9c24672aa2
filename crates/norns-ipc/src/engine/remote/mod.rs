//! The remote-staging backend: `RemotePath` transfers over TCP.
//!
//! NORNS' defining capability is asynchronous staging *between nodes*
//! (paper Table II: `process memory ⇒ remote path`, `local path ⇒
//! remote path`, …). Both halves of that data plane live in this
//! directory. This file is the client's transfer logic: a daemon
//! executing a task whose input or output is a
//! [`norns_proto::ResourceDesc::RemotePath`] resolves the peer host
//! through its peer registry and streams file ranges to or from the
//! peer's data-plane listener using the framed
//! [`DataRequest`]/[`DataResponse`] protocol (wire v4). [`conn`] is
//! one client connection and the per-worker cache of them; [`server`]
//! answers the protocol on the peer, one blocking handler thread per
//! accepted connection.
//!
//! Remote transfers reuse the whole chunk machinery: a transfer larger
//! than the configured chunk size decomposes into chunk sub-units fed
//! back through `norns-sched`, each unit moving one disjoint range — a
//! chain like a local copy's, one unit in flight per destination file:
//! the receiving end lands a payload with one copy, so a second
//! connection into the same file only queued on its inode's write
//! lock, and the workers and connections it held go to other transfers.
//!
//! **Pipelining.** Within a unit, ranges no longer travel as strict
//! stop-and-wait round-trips: the worker keeps up to `window`
//! [`MAX_DATA_RANGE`]-bounded requests in flight on one connection,
//! writing a window of `Fetch`/`Store` frames before draining their
//! responses in request order (the peer's data-plane loop services a
//! connection's requests sequentially, so responses arrive in order).
//! That keeps the wire full instead of paying a full client⇆server
//! turnaround per range. `window == 1` reproduces the old
//! stop-and-wait behavior exactly. Every drained response advances the
//! task's live progress atomic, and the abort flag is observed between
//! window refills, so `query()` shows a remote transfer advancing and
//! `cancel()` interrupts one mid-stream (in-flight responses are
//! drained so a cached connection never desynchronizes).
//!
//! **Syscall fast paths.** A payload leaves through one `sendfile(2)`
//! loop whichever end sends it — a `Store`'s on the pushing side, a
//! `Data`'s on the serving one — right behind a header that went out
//! in one write, and never crosses userspace; a file pair the kernel
//! refuses degrades, for that range, to a `pread` through the thread's
//! pooled buffer. It is received with one copy per byte, none of them
//! in userspace: `splice(2)` links the received pages into the
//! thread's pipe and copies them from there into the page cache
//! ([`conn::land_payload`], the one landing site of both ends); a file
//! the kernel will not splice into takes `read`s into the pooled
//! buffer for that range, the same rule again. Both ends of a
//! connection set `TCP_NODELAY` — each answers small frames the other
//! is blocked on.
//!
//! Failure model: unknown peers are rejected at submission
//! (`NotFound`); unreachable peers fail the task with a bounded
//! connect timeout instead of hanging; a failed or cancelled pull
//! removes the preallocated local destination, a failed or cancelled
//! push asks the peer to discard the partial remote file. A failure on
//! a *cached* connection retries the remaining ranges once on a fresh
//! connection — safe because every range names an absolute offset
//! (idempotent replay).

mod conn;
mod server;

use std::collections::VecDeque;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use norns_proto::{DataRequest, DataResponse, ErrorCode, MAX_DATA_RANGE};

use super::error::EngineError;
use super::transfer::{truncated, ChunkGrid, RangeMover};
use conn::{store_conn, take_conn, DataConn};

pub(crate) use server::DataServer;

/// Default per-connection request window: enough in-flight ranges to
/// hide a round-trip of latency without making cancel drains costly.
pub const DEFAULT_REMOTE_WINDOW: usize = 8;

/// Hard cap on the per-connection request window. Above this the
/// in-flight bytes stop buying latency hiding and only raise the cost
/// of a mid-stream cancel (which drains the window).
pub const MAX_REMOTE_WINDOW: usize = 256;

/// Floor on the pipelined range step: windowing a small chunk must not
/// shatter it into requests so small that per-frame overhead dominates.
const RANGE_STEP_FLOOR: u64 = 256 << 10;

/// Pause before the second (last-chance) `Discard` attempt in
/// [`RemoteTransfer::cleanup`] — long enough for a peer daemon
/// mid-restart to come back up and bind its data listener.
const DISCARD_RETRY_DELAY: Duration = Duration::from_millis(200);

/// Run one request/response round-trip against `addr`, reusing this
/// worker's cached connection. A failure on a *cached* connection may
/// just mean it went stale (peer restarted, idle timeout), so the
/// round-trip is retried once on a fresh connection — safe because
/// every data request is idempotent (`Fetch`/`Store` name absolute
/// ranges; `Stat`/`Prepare`/`Discard` are naturally re-runnable). The
/// peer's `Error` response comes back as ours.
fn round_trip(addr: &str, req: &DataRequest) -> Result<DataResponse, EngineError> {
    if let Some(mut conn) = take_conn(addr) {
        if let Ok(resp) = conn.call(req) {
            store_conn(addr, conn);
            return reply(resp);
        }
        // Stale: drop it and fall through to a fresh connection.
    }
    let mut conn = DataConn::connect(addr)?;
    let resp = conn.call(req)?;
    store_conn(addr, conn);
    reply(resp)
}

/// A peer's answer as a `Result`: its `Error` response is ours.
fn reply(resp: DataResponse) -> Result<DataResponse, EngineError> {
    match resp {
        DataResponse::Error { code, message } => Err(EngineError::new(code, message)),
        other => Ok(other),
    }
}

fn unexpected(resp: &DataResponse) -> EngineError {
    EngineError::new(
        ErrorCode::SystemError,
        format!("unexpected data response: {resp:?}"),
    )
}

/// A round-trip whose only interesting success is `Ok`.
fn expect_ok(addr: &str, req: &DataRequest) -> Result<(), EngineError> {
    match round_trip(addr, req)? {
        DataResponse::Ok => Ok(()),
        other => Err(unexpected(&other)),
    }
}

/// `Stat` round-trip: the remote file's size in bytes.
fn stat(addr: &str, nsid: &str, path: &str) -> Result<u64, EngineError> {
    let req = DataRequest::Stat {
        nsid: nsid.into(),
        path: path.into(),
    };
    match round_trip(addr, &req)? {
        DataResponse::Stat { size } => Ok(size),
        other => Err(unexpected(&other)),
    }
}

/// Which way the bytes flow, from the executing daemon's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// `RemotePath` input → local dataspace output.
    Pull,
    /// Local dataspace input → `RemotePath` output.
    Push,
}

/// How one windowed exchange over a connection ended.
enum WindowEnd {
    /// Every planned range was acknowledged.
    Complete,
    /// The abort flag interrupted the exchange; `true` iff the
    /// connection drained cleanly and may be reused.
    Cancelled(bool),
}

/// A remote staging transfer decomposed into chunk sub-units.
pub(crate) struct RemoteTransfer {
    direction: Direction,
    /// Peer data-plane address (resolved from the peer registry).
    addr: String,
    /// Remote endpoint inside the peer's dataspace.
    nsid: String,
    rpath: String,
    /// Local endpoint: the pull destination or push source.
    local: File,
    local_path: PathBuf,
    /// Requests kept in flight per connection (≥ 1; 1 = stop-and-wait).
    window: usize,
}

impl RemoteTransfer {
    /// Plan a transfer and lay out its chunk grid. A pull probes the
    /// remote size and preallocates the local destination; a push
    /// opens the local source and asks the peer to create and
    /// preallocate the destination. The grid's `size()` is the
    /// now-known transfer size (a pull's submit-time estimate was 0).
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        task_id: u64,
        direction: Direction,
        addr: &str,
        nsid: &str,
        rpath: &str,
        local_path: &Path,
        chunk_size: u64,
        window: usize,
        progress: Arc<AtomicU64>,
        abort: Arc<AtomicBool>,
    ) -> Result<Arc<ChunkGrid>, EngineError> {
        let (local, size) = match direction {
            Direction::Pull => {
                let size = stat(addr, nsid, rpath)?;
                if let Some(parent) = local_path.parent() {
                    fs::create_dir_all(parent)?;
                }
                let local = File::create(local_path)?;
                // Preallocate (the fallocate analog), as the local
                // chunked copy does: units then write disjoint interior
                // ranges. A failed preallocation (ENOSPC) must not
                // leave the truncated destination behind — its
                // existence would fake a staged file.
                if let Err(e) = local.set_len(size) {
                    let _ = fs::remove_file(local_path);
                    return Err(e.into());
                }
                (local, size)
            }
            Direction::Push => {
                let local = File::open(local_path)?;
                let meta = local.metadata()?;
                if meta.is_dir() {
                    return Err(EngineError::new(
                        ErrorCode::BadArgs,
                        "directory trees cannot be staged to a remote node",
                    ));
                }
                let prepare = DataRequest::Prepare {
                    nsid: nsid.into(),
                    path: rpath.into(),
                    size: meta.len(),
                };
                expect_ok(addr, &prepare)?;
                (local, meta.len())
            }
        };
        let transfer = RemoteTransfer {
            direction,
            addr: addr.to_string(),
            nsid: nsid.to_string(),
            rpath: rpath.to_string(),
            local,
            local_path: local_path.to_path_buf(),
            window: window.clamp(1, MAX_REMOTE_WINDOW),
        };
        Ok(ChunkGrid::new(
            task_id,
            size,
            chunk_size,
            progress,
            abort,
            Box::new(transfer),
        ))
    }

    /// The per-request range step for a chunk of `len` bytes: aim for
    /// `window` requests per chunk so the window actually fills, but
    /// never below [`RANGE_STEP_FLOOR`] (per-frame overhead) and never
    /// above [`MAX_DATA_RANGE`] (the wire's range cap). With
    /// `window == 1` this is exactly the old stop-and-wait step.
    fn range_step(len: u64, window: usize) -> u64 {
        if len == 0 {
            return 1;
        }
        len.div_ceil(window as u64)
            .clamp(RANGE_STEP_FLOOR, MAX_DATA_RANGE)
            .min(len)
    }

    /// Send the request for the range at `off` of `len` bytes (no
    /// response handling — that's the drain half of the window loop).
    fn send_range(&self, conn: &mut DataConn, off: u64, len: u64) -> Result<(), EngineError> {
        match self.direction {
            Direction::Pull => conn.send_request(&DataRequest::Fetch {
                nsid: self.nsid.clone(),
                path: self.rpath.clone(),
                offset: off,
                len,
            }),
            Direction::Push => conn.send_store(
                &DataRequest::Store {
                    nsid: self.nsid.clone(),
                    path: self.rpath.clone(),
                    offset: off,
                },
                &self.local,
                off,
                len,
            ),
        }
    }

    /// Drain and apply the response for the range at `off` of `len`
    /// bytes (responses arrive in request order).
    fn recv_range(&self, conn: &mut DataConn, off: u64, len: u64) -> Result<(), EngineError> {
        let (resp, payload) = conn.recv_response()?;
        match (self.direction, reply(resp)?) {
            // A payload of the wrong length is left where it is: the
            // connection skips it before the next response.
            (Direction::Pull, DataResponse::Data) if payload as u64 != len => {
                Err(truncated("remote", off + payload as u64))
            }
            (Direction::Pull, DataResponse::Data) => conn.recv_payload(&self.local, off),
            (Direction::Push, DataResponse::Ok) => Ok(()),
            (_, other) => Err(unexpected(&other)),
        }
    }

    /// Run one windowed exchange: keep up to `self.window` range
    /// requests in flight on `conn`, draining responses in order.
    /// `acked` advances past each confirmed range so a retry after a
    /// connection failure resumes from the first unconfirmed byte.
    fn run_window(
        &self,
        grid: &ChunkGrid,
        conn: &mut DataConn,
        offset: u64,
        len: u64,
        step: u64,
        acked: &mut u64,
    ) -> Result<WindowEnd, EngineError> {
        let end = offset + len;
        let mut next = offset;
        let mut inflight: VecDeque<(u64, u64)> = VecDeque::with_capacity(self.window);
        loop {
            // Refill the window (the abort flag is observed here,
            // between refills, exactly as the stop-and-wait path
            // observed it between round-trips).
            if !grid.abort_requested() {
                while inflight.len() < self.window && next < end {
                    let l = step.min(end - next);
                    self.send_range(conn, next, l)?;
                    inflight.push_back((next, l));
                    next += l;
                }
            }
            if grid.abort_requested() {
                // Stop issuing and drain what's in flight so the
                // connection stays frame-aligned and reusable; a
                // drain failure just poisons the connection.
                let mut clean = true;
                while let Some((off, l)) = inflight.pop_front() {
                    if self.recv_range(conn, off, l).is_err() {
                        clean = false;
                        break;
                    }
                    *acked += l;
                    grid.progress().fetch_add(l, Ordering::Relaxed);
                }
                grid.cancel();
                return Ok(WindowEnd::Cancelled(clean));
            }
            let Some((off, l)) = inflight.pop_front() else {
                return Ok(WindowEnd::Complete);
            };
            self.recv_range(conn, off, l)?;
            *acked += l;
            grid.progress().fetch_add(l, Ordering::Relaxed);
        }
    }

    /// Remove whatever the interrupted transfer left behind: the
    /// preallocated local destination of a pull, or (best-effort) the
    /// partial remote destination of a push.
    fn cleanup(&self) {
        match self.direction {
            Direction::Pull => {
                let _ = fs::remove_file(&self.local_path);
            }
            Direction::Push => {
                let req = DataRequest::Discard {
                    nsid: self.nsid.clone(),
                    path: self.rpath.clone(),
                };
                if expect_ok(&self.addr, &req).is_err() {
                    // The attempt rode this worker's cached connection
                    // or caught the peer mid-restart (a transient
                    // error, a dead listener). Give the peer a beat
                    // and replay the Discard once — `round_trip` drops
                    // a connection that failed, so this one connects
                    // afresh — otherwise the `Prepare`d remote partial
                    // is stranded forever.
                    std::thread::sleep(DISCARD_RETRY_DELAY);
                    let _ = expect_ok(&self.addr, &req);
                }
            }
        }
    }
}

impl RangeMover for RemoteTransfer {
    /// Move one claimed chunk over the wire with up to `window`
    /// requests in flight, checking the abort flag between refills. A
    /// failure on a cached connection replays the unconfirmed ranges
    /// once on a fresh connection (absolute offsets are idempotent).
    fn move_range(&self, grid: &ChunkGrid, offset: u64, len: u64) -> Result<(), EngineError> {
        if grid.abort_requested() {
            grid.cancel();
            return Ok(());
        }
        if len == 0 {
            return Ok(());
        }
        let step = Self::range_step(len, self.window);
        let mut acked = 0u64;
        let (mut conn, mut may_retry) = match take_conn(&self.addr) {
            Some(conn) => (conn, true),
            None => (DataConn::connect(&self.addr)?, false),
        };
        loop {
            match self.run_window(
                grid,
                &mut conn,
                offset + acked,
                len - acked,
                step,
                &mut acked,
            ) {
                Ok(WindowEnd::Complete) | Ok(WindowEnd::Cancelled(true)) => {
                    store_conn(&self.addr, conn);
                    return Ok(());
                }
                Ok(WindowEnd::Cancelled(false)) => return Ok(()),
                Err(e) => {
                    if !may_retry {
                        return Err(e);
                    }
                    // The cached connection went stale: replay the
                    // remaining ranges on a fresh one.
                    may_retry = false;
                    conn = DataConn::connect(&self.addr)?;
                }
            }
        }
    }

    fn finish(&self, landed: bool) -> Result<(), EngineError> {
        if !landed {
            self.cleanup();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_chain_gone, register_tmp0, spin_until, temp_root};
    use super::super::transfer::{PlanOutcome, UnitEnd, MIN_CHUNK_SIZE};
    use super::super::{Engine, EngineConfig};
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;

    use norns_proto::{
        encode_frame, FrameReader, ResourceDesc, TaskOp, TaskSpec, TaskState, TaskStats, Wire,
    };
    use norns_sched::Fcfs;
    use parking_lot::Mutex;

    #[test]
    fn range_step_window_one_is_stop_and_wait() {
        // window = 1 must reproduce the old per-round-trip step:
        // MAX_DATA_RANGE-bounded, whole-range for small chunks.
        assert_eq!(RemoteTransfer::range_step(64 << 10, 1), 64 << 10);
        assert_eq!(RemoteTransfer::range_step(8 << 20, 1), MAX_DATA_RANGE);
        assert_eq!(
            RemoteTransfer::range_step(MAX_DATA_RANGE, 1),
            MAX_DATA_RANGE
        );
    }

    #[test]
    fn range_step_fills_the_window() {
        // An 8 MiB chunk with window 8 → 1 MiB steps (8 in flight).
        assert_eq!(RemoteTransfer::range_step(8 << 20, 8), 1 << 20);
        // Never below the floor …
        assert_eq!(RemoteTransfer::range_step(512 << 10, 8), RANGE_STEP_FLOOR);
        // … unless the chunk itself is smaller.
        assert_eq!(RemoteTransfer::range_step(64 << 10, 8), 64 << 10);
        // Never above the wire's range cap.
        assert_eq!(RemoteTransfer::range_step(1 << 30, 4), MAX_DATA_RANGE);
        // Zero-length chunks never divide by zero.
        assert_eq!(RemoteTransfer::range_step(0, 8), 1);
    }

    /// What a scripted peer does with one request.
    enum Scripted {
        Answer(DataResponse),
        /// A `Data` with these bytes behind it.
        Data(Vec<u8>),
        /// Answer, then hang up: a daemon caught mid-restart.
        AnswerAndHangUp(DataResponse),
    }

    fn refuse(code: ErrorCode, message: &str) -> Scripted {
        Scripted::Answer(DataResponse::Error {
            code,
            message: message.into(),
        })
    }

    /// A data-plane peer that answers from a script and keeps a record:
    /// the connections it accepted and every request, in arrival order.
    struct ScriptedPeer {
        addr: String,
        accepted: Arc<AtomicUsize>,
        log: Arc<Mutex<Vec<DataRequest>>>,
    }

    impl ScriptedPeer {
        /// `script` sees each request and how many of its verb came
        /// before it; `None` is `Ok`. It runs on the connection's
        /// thread, so a script that blocks holds that answer back.
        fn spawn(
            script: impl Fn(&DataRequest, usize) -> Option<Scripted> + Send + Sync + 'static,
        ) -> ScriptedPeer {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = ScriptedPeer {
                addr: listener.local_addr().unwrap().to_string(),
                accepted: Arc::new(AtomicUsize::new(0)),
                log: Arc::new(Mutex::new(Vec::new())),
            };
            let (accepted, log) = (Arc::clone(&peer.accepted), Arc::clone(&peer.log));
            let script = Arc::new(script);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let (log, script) = (Arc::clone(&log), Arc::clone(&script));
                    std::thread::spawn(move || Self::serve(stream, &log, &*script));
                }
            });
            peer
        }

        fn serve(
            mut stream: TcpStream,
            log: &Mutex<Vec<DataRequest>>,
            script: &dyn Fn(&DataRequest, usize) -> Option<Scripted>,
        ) {
            let mut reader = FrameReader::new();
            loop {
                let mut frame = loop {
                    match reader.next_frame() {
                        Ok(Some(frame)) => break frame,
                        Ok(None) => {}
                        Err(_) => return,
                    }
                    if !matches!(reader.read_from(&mut stream), Ok(1..)) {
                        return;
                    }
                };
                let Ok(request) = DataRequest::decode(&mut frame) else {
                    return;
                };
                let verb = std::mem::discriminant(&request);
                let earlier = {
                    let mut log = log.lock();
                    log.push(request.clone());
                    log.iter()
                        .filter(|r| std::mem::discriminant(*r) == verb)
                        .count()
                        - 1
                };
                let scripted =
                    script(&request, earlier).unwrap_or(Scripted::Answer(DataResponse::Ok));
                let (response, payload, hang_up) = match scripted {
                    Scripted::Answer(response) => (response, Vec::new(), false),
                    Scripted::Data(payload) => (DataResponse::Data, payload, false),
                    Scripted::AnswerAndHangUp(response) => (response, Vec::new(), true),
                };
                let mut body = response.to_bytes().to_vec();
                body.extend_from_slice(&payload);
                if stream.write_all(&encode_frame(&body)).is_err() || hang_up {
                    return;
                }
            }
        }

        fn count(&self, verb: impl Fn(&DataRequest) -> bool) -> usize {
            self.log.lock().iter().filter(|r| verb(r)).count()
        }

        fn stores(&self) -> usize {
            self.count(|r| matches!(r, DataRequest::Store { .. }))
        }

        fn discards(&self) -> usize {
            self.count(|r| matches!(r, DataRequest::Discard { .. }))
        }
    }

    /// Regression: a failed push's `cleanup` used to fire its
    /// `Discard` best-effort exactly once; a peer mid-restart that
    /// answers with a transient error (or hangs up) left the
    /// `Prepare`d remote partial stranded forever. The Discard must be
    /// replayed once on a fresh connection, like `transfer_range`
    /// replays ranges.
    #[test]
    fn push_cleanup_retries_discard_against_restarting_peer() {
        // The peer fails every Store (so the push fails), then answers
        // the *first* Discard with a transient error and hangs up, and
        // honours any later one.
        let peer = ScriptedPeer::spawn(|request, earlier| match request {
            DataRequest::Store { .. } => Some(refuse(ErrorCode::NoSpace, "scripted store failure")),
            DataRequest::Discard { .. } if earlier == 0 => {
                Some(Scripted::AnswerAndHangUp(DataResponse::Error {
                    code: ErrorCode::SystemError,
                    message: "daemon restarting".into(),
                }))
            }
            _ => None,
        });

        let dir = temp_root("discard-retry");
        let src = dir.join("src.dat");
        fs::write(&src, vec![3u8; 4096]).unwrap();

        let plan = RemoteTransfer::plan(
            9,
            Direction::Push,
            &peer.addr,
            "ds0",
            "dst.dat",
            &src,
            1 << 20,
            1,
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        assert!(
            matches!(peer.log.lock()[..], [DataRequest::Prepare { .. }]),
            "Prepare must have landed"
        );
        while plan.run_unit() != UnitEnd::Last {}
        let outcome = plan.finalize();
        assert!(
            matches!(outcome, PlanOutcome::Failed(..)),
            "scripted push must fail"
        );
        assert_eq!(
            peer.discards(),
            2,
            "cleanup must replay the Discard once on a fresh connection"
        );
        assert!(
            matches!(peer.log.lock().last(), Some(DataRequest::Discard { .. })),
            "the honoured Discard is the peer's last word"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    // --- the remote chain's edges (CI loops every `chain_` test) ------

    const CHAIN_UNITS: u64 = 16;

    /// An FCFS engine cutting transfers into [`MIN_CHUNK_SIZE`] chunks,
    /// dataspace `tmp0` holding a `CHAIN_UNITS`-chunk `big`, and `peer`
    /// registered as host `peer`.
    fn chain_engine(tag: &str, workers: usize, peer: &ScriptedPeer) -> (Arc<Engine>, PathBuf) {
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
        engine.register_peer("peer", &peer.addr);
        let data: Vec<u8> = (0..CHAIN_UNITS * MIN_CHUNK_SIZE)
            .map(|i| (i % 251) as u8)
            .collect();
        fs::write(root.join("tmp0/big"), data).unwrap();
        (engine, root)
    }

    fn tmp0(path: &str) -> ResourceDesc {
        ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: path.into(),
        }
    }

    fn on_peer(path: &str) -> ResourceDesc {
        ResourceDesc::RemotePath {
            host: "peer".into(),
            nsid: "ds0".into(),
            path: path.into(),
        }
    }

    fn push(engine: &Engine) -> u64 {
        let spec = TaskSpec::new(TaskOp::Copy, tmp0("big"), Some(on_peer("dst.dat")));
        engine.submit(1, spec, None).unwrap()
    }

    /// A script that answers its third `Store` only once told to, and
    /// the two flags the test holds: `held` goes up when that `Store`
    /// has arrived, raising `release` lets its `Ok` out.
    fn holding_the_third_store() -> (
        impl Fn(&DataRequest, usize) -> Option<Scripted> + Send + Sync,
        Arc<AtomicBool>,
        Arc<AtomicBool>,
    ) {
        let held = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (holds, released) = (Arc::clone(&held), Arc::clone(&release));
        let script = move |request: &DataRequest, earlier: usize| {
            if matches!(request, DataRequest::Store { .. }) && earlier == 2 {
                holds.store(true, Ordering::SeqCst);
                spin_until("the release", || released.load(Ordering::SeqCst));
            }
            None
        };
        (script, held, release)
    }

    /// The interrupted push's one terminal state, and what the peer
    /// saw of it: three `Store`s, then the `Discard` of the partial.
    fn assert_push_ended(peer: &ScriptedPeer, stats: &TaskStats, state: TaskState) {
        assert_eq!(stats.state, state);
        assert_eq!(stats.bytes_moved, 3 * MIN_CHUNK_SIZE);
        assert_eq!(peer.stores(), 3, "a unit was issued behind the stop");
        assert_eq!(peer.discards(), 1);
        assert!(matches!(
            peer.log.lock().last(),
            Some(DataRequest::Discard { .. })
        ));
    }

    /// The chain on the wire: every chunk of a push travels over the
    /// one connection its worker keeps cached — `Prepare` included, no
    /// handshake per chunk — and the `Store`s arrive in file order.
    /// (One worker: with more, whichever is awake may take the next
    /// unit, over a connection of its own.)
    #[test]
    fn chain_push_is_served_on_one_connection_in_file_order() {
        let peer = ScriptedPeer::spawn(|_, _| None);
        let (engine, root) = chain_engine("chain-push", 1, &peer);
        let stats = engine.wait(push(&engine), 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, CHAIN_UNITS * MIN_CHUNK_SIZE);
        assert_eq!(peer.accepted.load(Ordering::SeqCst), 1);
        let log = peer.log.lock();
        assert!(matches!(log[0], DataRequest::Prepare { size, .. }
            if size == CHAIN_UNITS * MIN_CHUNK_SIZE));
        let offsets: Vec<u64> = log[1..]
            .iter()
            .map(|request| match request {
                DataRequest::Store { offset, .. } => *offset,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let in_file_order: Vec<u64> = (0..CHAIN_UNITS).map(|i| i * MIN_CHUNK_SIZE).collect();
        assert_eq!(offsets, in_file_order);
        drop(log);
        assert_eq!(engine.peak_chunk_workers(), 1);
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chain_cancel_mid_push_discards_the_partial() {
        let (script, held, release) = holding_the_third_store();
        let peer = ScriptedPeer::spawn(script);
        let (engine, root) = chain_engine("chain-push-cancel", 2, &peer);
        let id = push(&engine);
        spin_until("the third Store", || held.load(Ordering::SeqCst));
        engine.cancel(id, None).unwrap();
        release.store(true, Ordering::SeqCst);
        let stats = engine.wait(id, 0).unwrap();
        assert_push_ended(&peer, &stats, TaskState::Cancelled);
        assert_chain_gone(&engine, 0, 1);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chain_failing_store_mid_push_fails_the_task_once() {
        // The disk fills behind the second chunk. (The refused `Store`
        // came over the worker's cached connection, so it is replayed
        // once on a fresh one before the failure stands.)
        let peer = ScriptedPeer::spawn(|request, earlier| match request {
            DataRequest::Store { .. } if earlier >= 2 => {
                Some(refuse(ErrorCode::NoSpace, "scripted store failure"))
            }
            _ => None,
        });
        let (engine, root) = chain_engine("chain-push-fail", 2, &peer);
        let id = push(&engine);
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.error, ErrorCode::NoSpace);
        assert_eq!(stats.bytes_moved, 2 * MIN_CHUNK_SIZE);
        assert_eq!((peer.stores(), peer.discards()), (4, 1));
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chain_shutdown_mid_push_fails_the_task_and_discards_the_partial() {
        let (script, held, release) = holding_the_third_store();
        let peer = ScriptedPeer::spawn(script);
        let (engine, root) = chain_engine("chain-push-shutdown", 2, &peer);
        let id = push(&engine);
        spin_until("the third Store", || held.load(Ordering::SeqCst));
        // The unit is on a worker, parked on the held `Ok`. Let it out
        // once shutdown has stopped the pool: that worker then finds
        // `stop` where it would issue the successor, and ends the chain.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                spin_until("shutdown to stop the pool", || engine.dispatch.lock().stop);
                release.store(true, Ordering::SeqCst);
            });
            engine.shutdown();
        });
        let stats = engine.query(id).unwrap();
        assert_push_ended(&peer, &stats, TaskState::FinishedWithError);
        assert_eq!(stats.error, ErrorCode::SystemError);
        assert!(engine.error_message(id).unwrap().contains("shutdown"));
        assert_chain_gone(&engine, 1, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// The pull side of the same chain: a `Fetch` that fails mid-file
    /// ends it once, and the preallocated local destination goes.
    #[test]
    fn chain_failing_fetch_mid_pull_removes_the_partial() {
        let peer = ScriptedPeer::spawn(|request, earlier| match request {
            DataRequest::Stat { .. } => Some(Scripted::Answer(DataResponse::Stat {
                size: CHAIN_UNITS * MIN_CHUNK_SIZE,
            })),
            DataRequest::Fetch { .. } if earlier >= 2 => {
                Some(refuse(ErrorCode::SystemError, "scripted fetch failure"))
            }
            DataRequest::Fetch { len, .. } => Some(Scripted::Data(vec![7u8; *len as usize])),
            _ => None,
        });
        let (engine, root) = chain_engine("chain-pull-fail", 2, &peer);
        let spec = TaskSpec::new(TaskOp::Copy, on_peer("src.dat"), Some(tmp0("pulled")));
        let id = engine.submit(1, spec, None).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.bytes_moved, 2 * MIN_CHUNK_SIZE);
        let why = engine.error_message(id).unwrap();
        assert!(why.contains("scripted fetch failure"), "{why}");
        // Two landed, the third refused and replayed once.
        assert_eq!(peer.count(|r| matches!(r, DataRequest::Fetch { .. })), 4);
        assert!(!root.join("tmp0/pulled").exists());
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }
}
