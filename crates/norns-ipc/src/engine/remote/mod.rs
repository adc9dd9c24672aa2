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
//! one client connection, a transfer's hold on it and the per-worker
//! cache it rests in between transfers; [`server`] answers the
//! protocol on the peer, one blocking handler thread per accepted
//! connection.
//!
//! A remote transfer is a [`Chain`] like a local copy's: one larger
//! than the configured chunk size decomposes into chunk sub-units fed
//! back through `norns-sched` one at a time, each moving one disjoint
//! range — one unit in flight per destination file: the receiving end
//! lands a payload with one copy, so a second connection into the same
//! file only queued on its inode's write lock, and the workers and
//! connections it held go to other transfers. The chain's mover *holds
//! its connection* from `plan` to `finish`: the `Stat`/`Prepare`, every
//! range of every unit and a `Discard` ride one connection and one
//! handler thread on the peer, whichever workers lend the threads.
//!
//! **Pipelining.** Within a unit, ranges do not travel as strict
//! stop-and-wait round-trips: the worker keeps up to `window`
//! [`MAX_DATA_RANGE`]-bounded requests in flight on the connection,
//! writing a window of `Fetch`/`Store` frames before draining their
//! responses in request order (the peer's data-plane loop services a
//! connection's requests sequentially, so responses arrive in order).
//! That keeps the wire full instead of paying a full client⇆server
//! turnaround per range. `window == 1` is stop-and-wait. The window is
//! drained at each unit's end. Every drained response advances the
//! task's live progress atomic, and the abort flag is observed between
//! window refills, so `query()` shows a remote transfer advancing and
//! `cancel()` interrupts one mid-stream (in-flight responses are
//! drained so the connection never desynchronizes).
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
//! push asks the peer to discard the partial remote file. A peer's
//! `Error` is an answer — it ends the transfer with the peer's code,
//! over a connection that stays good. A *connection* that fails, if it
//! came out of the cache or has been held since an earlier exchange,
//! is reopened once and the unacknowledged remainder replayed
//! ([`HeldConn::exchange`], the one retry rule) — safe because every
//! range names an absolute offset (idempotent replay).

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
use super::transfer::{truncated, with_parent, Chain, RangeMover};
use conn::{DataConn, HeldConn};

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

/// What the peer said to one request: its `Error` response is ours.
type Answer<T> = Result<T, EngineError>;

fn answer(resp: DataResponse) -> Answer<DataResponse> {
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

/// One request/response round-trip over `conn`.
fn round_trip(conn: &mut HeldConn, req: &DataRequest) -> Result<DataResponse, EngineError> {
    answer(conn.exchange(|conn| Ok((conn.call(req)?, true)))?)
}

/// A round-trip whose only interesting success is `Ok`.
fn expect_ok(conn: &mut HeldConn, req: &DataRequest) -> Result<(), EngineError> {
    match round_trip(conn, req)? {
        DataResponse::Ok => Ok(()),
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

/// A remote staging transfer decomposed into chunk sub-units: its two
/// ends, and the connection between them.
pub(crate) struct RemoteTransfer {
    ends: Ends,
    conn: HeldConn,
}

/// What a remote transfer moves, and how its ranges travel.
struct Ends {
    direction: Direction,
    /// Remote endpoint inside the peer's dataspace.
    nsid: String,
    rpath: String,
    /// Local endpoint: the pull destination or push source.
    local: File,
    local_path: PathBuf,
    /// Requests kept in flight on the connection (≥ 1; 1 =
    /// stop-and-wait).
    window: usize,
    progress: Arc<AtomicU64>,
    abort: Arc<AtomicBool>,
}

impl RemoteTransfer {
    /// Plan a transfer and lay out its chain. A pull probes the
    /// remote size and preallocates the local destination; a push
    /// opens the local source and asks the peer to create and
    /// preallocate the destination. The chain's `size()` is the
    /// now-known transfer size (a pull's submit-time estimate was 0).
    /// `window` is the engine's, already clamped.
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
    ) -> Result<Box<Chain>, EngineError> {
        let mut conn = HeldConn::acquire(addr);
        let (local, size) = match direction {
            Direction::Pull => {
                let stat = DataRequest::Stat {
                    nsid: nsid.into(),
                    path: rpath.into(),
                };
                let size = match round_trip(&mut conn, &stat)? {
                    DataResponse::Stat { size } => size,
                    other => return Err(unexpected(&other)),
                };
                let local = with_parent(local_path, |path| File::create(path))?;
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
                expect_ok(&mut conn, &prepare)?;
                (local, meta.len())
            }
        };
        let ends = Ends {
            direction,
            nsid: nsid.to_string(),
            rpath: rpath.to_string(),
            local,
            local_path: local_path.to_path_buf(),
            window,
            progress: Arc::clone(&progress),
            abort: Arc::clone(&abort),
        };
        Ok(Chain::new(
            task_id,
            size,
            chunk_size,
            progress,
            abort,
            Box::new(RemoteTransfer { ends, conn }),
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

    /// Remove whatever the interrupted transfer left behind: the
    /// preallocated local destination of a pull, or (best-effort) the
    /// partial remote destination of a push.
    fn cleanup(&mut self) {
        match self.ends.direction {
            Direction::Pull => {
                let _ = fs::remove_file(&self.ends.local_path);
            }
            Direction::Push => {
                let req = DataRequest::Discard {
                    nsid: self.ends.nsid.clone(),
                    path: self.ends.rpath.clone(),
                };
                if expect_ok(&mut self.conn, &req).is_err() {
                    // The peer was caught mid-restart (a transient
                    // error, a dead listener). Give it a beat and
                    // replay the Discard once — over a fresh
                    // connection if that one failed — otherwise the
                    // `Prepare`d remote partial is stranded forever.
                    std::thread::sleep(DISCARD_RETRY_DELAY);
                    let _ = expect_ok(&mut self.conn, &req);
                }
            }
        }
    }
}

impl Ends {
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

    /// Read the response for the range at `off` of `len` bytes
    /// (responses arrive in request order) and land its payload.
    fn recv_range(
        &self,
        conn: &mut DataConn,
        off: u64,
        len: u64,
    ) -> Result<Answer<()>, EngineError> {
        let (resp, payload) = conn.recv_response()?;
        Ok(match (self.direction, answer(resp)) {
            (_, Err(refusal)) => Err(refusal),
            // A payload of the wrong length is left where it is: the
            // connection skips it before the next response.
            (Direction::Pull, Ok(DataResponse::Data)) if payload as u64 != len => {
                Err(truncated("remote", off + payload as u64))
            }
            (Direction::Pull, Ok(DataResponse::Data)) => {
                conn.recv_payload(&self.local, off)?;
                Ok(())
            }
            (Direction::Push, Ok(DataResponse::Ok)) => Ok(()),
            (_, Ok(other)) => Err(unexpected(&other)),
        })
    }

    /// Run one windowed exchange ([`HeldConn::exchange`]'s contract):
    /// keep up to `self.window` requests for `step`-byte ranges in
    /// flight on `conn` from `*acked` to `end`, reading responses in
    /// order; `acked` advances past each confirmed range, so a rerun
    /// over a reopened connection resumes from the first unconfirmed
    /// byte. The abort flag or a refusal stops the refills, and what
    /// is in flight is drained so the connection stays frame-aligned;
    /// a drain that fails just costs the connection.
    fn run_window(
        &self,
        conn: &mut DataConn,
        acked: &mut u64,
        end: u64,
        step: u64,
    ) -> Result<(Answer<()>, bool), EngineError> {
        let mut next = *acked;
        let mut inflight: VecDeque<(u64, u64)> = VecDeque::with_capacity(self.window);
        let mut refused = None;
        let in_step = loop {
            let stopping = refused.is_some() || self.abort.load(Ordering::SeqCst);
            while !stopping && inflight.len() < self.window && next < end {
                let len = step.min(end - next);
                self.send_range(conn, next, len)?;
                inflight.push_back((next, len));
                next += len;
            }
            let Some((off, len)) = inflight.pop_front() else {
                break true;
            };
            match self.recv_range(conn, off, len) {
                Ok(Ok(())) => {
                    *acked += len;
                    self.progress.fetch_add(len, Ordering::Relaxed);
                }
                Ok(Err(refusal)) => {
                    refused.get_or_insert(refusal);
                }
                Err(_) if stopping => break false,
                Err(e) => return Err(e),
            }
        };
        Ok((refused.map_or(Ok(()), Err), in_step))
    }
}

impl RangeMover for RemoteTransfer {
    /// Move one chunk over the transfer's connection with up to
    /// `window` requests in flight.
    fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError> {
        let step = Self::range_step(len, self.ends.window);
        let (ends, mut acked) = (&self.ends, offset);
        self.conn
            .exchange(|conn| ends.run_window(conn, &mut acked, offset + len, step))?
    }

    fn finish(&mut self, landed: bool) -> Result<(), EngineError> {
        if !landed {
            self.cleanup();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        assert_chain_gone, register_tmp0, spin_until, temp_root, tiny_write,
    };
    use super::super::transfer::{PlanOutcome, Step, MIN_CHUNK_SIZE};
    use super::super::{Engine, EngineConfig, IpcPolicy};
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;

    use norns_proto::{
        encode_frame, FrameReader, ResourceDesc, TaskOp, TaskSpec, TaskState, TaskStats, Wire,
    };
    use norns_sched::{Fcfs, JobFairShare};
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
    /// replayed once, over a fresh connection: the one the transfer
    /// held went with the peer.
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
        let Step::End(end) = plan.step() else {
            panic!("a refused Store ends the chain");
        };
        assert!(
            matches!(end.outcome, PlanOutcome::Failed(..)),
            "scripted push must fail"
        );
        assert_eq!(peer.stores(), 1, "a refusal is not replayed");
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
        chain_engine_under(Box::new(Fcfs), tag, workers, peer)
    }

    fn chain_engine_under(
        policy: IpcPolicy,
        tag: &str,
        workers: usize,
        peer: &ScriptedPeer,
    ) -> (Arc<Engine>, PathBuf) {
        let root = temp_root(tag);
        let engine = Engine::with_config(
            EngineConfig {
                workers,
                chunk_size: MIN_CHUNK_SIZE,
                ..EngineConfig::default()
            },
            policy,
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

    /// The `Store` offsets the peer saw behind the `Prepare` that must
    /// come first.
    fn store_offsets(peer: &ScriptedPeer) -> Vec<u64> {
        let log = peer.log.lock();
        assert!(matches!(log[0], DataRequest::Prepare { size, .. }
            if size == CHAIN_UNITS * MIN_CHUNK_SIZE));
        log[1..]
            .iter()
            .map(|request| match request {
                DataRequest::Store { offset, .. } => *offset,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    fn in_file_order() -> Vec<u64> {
        (0..CHAIN_UNITS).map(|i| i * MIN_CHUNK_SIZE).collect()
    }

    /// The chain on the wire: every exchange of a push travels over
    /// the one connection the transfer holds — `Prepare` included, no
    /// handshake per chunk — and the `Store`s arrive in file order,
    /// whichever workers run its units. Four of them here, under
    /// job-fair arbitration, with a second job's backlog of tiny
    /// writes kept queued: the worker that issues a successor unit is
    /// as often as not handed one of those, and another takes the unit.
    #[test]
    fn chain_push_is_served_on_one_connection_in_file_order() {
        let peer = ScriptedPeer::spawn(|_, _| None);
        let fair = Box::new(JobFairShare::default());
        let (engine, root) = chain_engine_under(fair, "chain-push", 4, &peer);
        let mut backlog = Vec::new();
        let mut top_up = |tasks: usize| {
            let tiny = || engine.submit(2, tiny_write("tiny"), Some(b"abcd".to_vec()));
            backlog.extend((0..tasks).filter_map(|_| tiny().ok()));
        };
        top_up(64);
        let id = push(&engine);
        while !engine.query(id).unwrap().state.is_terminal() {
            top_up(8);
        }
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, CHAIN_UNITS * MIN_CHUNK_SIZE);
        assert_eq!(peer.accepted.load(Ordering::SeqCst), 1);
        assert_eq!(store_offsets(&peer), in_file_order());
        for tiny in &backlog {
            assert_eq!(engine.wait(*tiny, 0).unwrap().state, TaskState::Finished);
        }
        assert_chain_gone(&engine, 1 + backlog.len() as u64, 0);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    /// The stale case of the one retry rule: the peer closes the
    /// connection between two units (a restart, an idle timeout). The
    /// unit that finds it dead reopens it, once, and replays the range
    /// nobody acknowledged — and nothing that was.
    #[test]
    fn chain_push_replays_a_range_over_a_connection_the_peer_closed() {
        let peer = ScriptedPeer::spawn(|request, earlier| match request {
            DataRequest::Store { .. } if earlier == 2 => {
                Some(Scripted::AnswerAndHangUp(DataResponse::Ok))
            }
            _ => None,
        });
        let (engine, root) = chain_engine("chain-push-stale", 2, &peer);
        let stats = engine.wait(push(&engine), 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, CHAIN_UNITS * MIN_CHUNK_SIZE);
        assert_eq!(peer.accepted.load(Ordering::SeqCst), 2, "one reconnect");
        // The `Store` that met the closed socket was never read; its
        // replay is the fourth the peer sees, and every range once.
        assert_eq!(store_offsets(&peer), in_file_order());
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
        // The disk fills behind the second chunk. The refusal is the
        // peer's answer, not a stale connection: nothing is replayed,
        // and the `Discard` rides the connection that carried it.
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
        assert_eq!((peer.stores(), peer.discards()), (3, 1));
        assert_eq!(peer.accepted.load(Ordering::SeqCst), 1);
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
        // Two landed, the third refused: an answer, not replayed.
        assert_eq!(peer.count(|r| matches!(r, DataRequest::Fetch { .. })), 3);
        assert_eq!(peer.accepted.load(Ordering::SeqCst), 1);
        assert!(!root.join("tmp0/pulled").exists());
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
        let _ = fs::remove_dir_all(&root);
    }
}
