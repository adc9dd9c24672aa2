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
//! **Pipelining.** A unit is one burst: the worker writes every
//! `Fetch`/`Store` of the unit on the connection, then reads their
//! answers in request order (the peer's data-plane loop services a
//! connection's requests sequentially, so answers arrive in order).
//! That keeps the wire full instead of paying a full client⇆server
//! turnaround per range. Every request is whole: [`MAX_DATA_RANGE`]
//! (4 MiB), or what is left of the unit — a 16 MiB leg at the defaults
//! (8 MiB chunks) is 4 frames, 4 answers and 4 wake-ups each way, two
//! per unit. The bytes in flight are the unit, so the chunk size is the
//! one knob that sizes them; the burst is drained at each unit's end.
//! Every answer advances the task's live progress atomic, so `query()`
//! shows a remote transfer advancing, and `cancel()` lands where a local
//! copy's does: the [`Chain`] reads the abort flag around each unit,
//! which always ends on a connection that is frame-aligned.
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
//! connect timeout instead of hanging; a destination that cannot be
//! allocated (`ENOSPC`, `EDQUOT`, `EFBIG`) fails the plan before any
//! range moves, here for a pull, on the peer's `Prepare` for a push;
//! a failed or cancelled pull removes the local destination it
//! created, a failed or cancelled push asks the peer to discard
//! the partial remote file. A landed `Move` frees its source when the
//! durability table says (`RangeMover::free_source`, at once on these
//! routes): a push unlinks its local source, a pull asks the peer to
//! `Discard` its own — the one remote removal,
//! [`RemoteTransfer::discard`], both ends' cleanups share; a Move that
//! fails or is cancelled keeps its source whole. A peer's
//! `Error` is an answer — it ends the
//! transfer with the peer's code, over a connection that stays good. A
//! *connection* that fails, if it came out of the cache or has been
//! held since an earlier exchange, is reopened once and the
//! unacknowledged remainder replayed ([`HeldConn::exchange`], the one
//! retry rule) — safe because every range names an absolute offset
//! (idempotent replay).

mod conn;
mod server;

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use norns_proto::{DataRequest, DataResponse, ErrorCode, TaskOp, MAX_DATA_RANGE};
use norns_sched::durability::{Op, Route};
use norns_sched::shape::Plugin;

use super::error::EngineError;
use super::transfer::{open_landing, open_source, truncated, Chain, RangeMover};
pub(crate) use conn::Cut;
use conn::{DataConn, HeldConn};

pub(crate) use server::DataServer;

/// Pause before the second (last-chance) `Discard` attempt in
/// [`RemoteTransfer::discard`] — long enough for a peer daemon
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
    /// `Copy` or `Move`: a Move's source is freed by `free_source`.
    op: TaskOp,
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
    progress: Arc<AtomicU64>,
}

impl RemoteTransfer {
    /// Plan a transfer and lay out its chain: `plugin` is
    /// `RemoteToLocal` (a pull) or `LocalToRemote` (a push). A pull
    /// probes the remote size and lands the local destination
    /// (`open_landing`); a push opens the local source and asks the
    /// peer to land the destination (`Prepare`). The chain's `size()`
    /// is the now-known transfer size (a pull's submit-time estimate
    /// was 0).
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        task_id: u64,
        op: TaskOp,
        plugin: Plugin,
        addr: &str,
        nsid: &str,
        rpath: &str,
        local_path: &Path,
        chunk_size: u64,
        progress: Arc<AtomicU64>,
        abort: Arc<AtomicBool>,
        cut: Arc<Cut>,
    ) -> Result<Box<Chain>, EngineError> {
        let direction = match plugin {
            Plugin::RemoteToLocal => Direction::Pull,
            _ => Direction::Push,
        };
        let mut conn = HeldConn::acquire(addr, cut);
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
                // Landed before the first `Fetch` by the rule every
                // destination follows: units then land disjoint ranges
                // in blocks that are already there.
                (open_landing(local_path, size, None)?, size)
            }
            Direction::Push => {
                // A directory that appeared since submit is refused
                // here, with anything else that is not a regular file.
                let (local, meta) = open_source(local_path)?;
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
            progress: Arc::clone(&progress),
        };
        Ok(Chain::new(
            task_id,
            size,
            chunk_size,
            progress,
            abort,
            Box::new(RemoteTransfer { op, ends, conn }),
        ))
    }

    /// Ask the peer to remove the remote end: a push's partial
    /// destination, or a pulled `Move`'s source.
    fn discard(&mut self) -> Result<(), EngineError> {
        let req = DataRequest::Discard {
            nsid: self.ends.nsid.clone(),
            path: self.ends.rpath.clone(),
        };
        expect_ok(&mut self.conn, &req).or_else(|_| {
            // The peer was caught mid-restart (a transient error, a
            // dead listener). Give it a beat and replay the Discard
            // once — over a fresh connection if that one failed —
            // otherwise the remote file is stranded forever.
            std::thread::sleep(DISCARD_RETRY_DELAY);
            expect_ok(&mut self.conn, &req)
        })
    }
}

impl Ends {
    /// Send the request for the range at `off` of `len` bytes (no
    /// response handling — that's the drain half of the unit).
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

    /// Run one unit's exchange ([`HeldConn::exchange`]'s contract):
    /// write a request for every range from `*acked` to `end` — each
    /// [`MAX_DATA_RANGE`] bytes, or what is left — then read the answers
    /// in order; `acked` advances past each confirmed range, so a rerun
    /// over a reopened connection resumes from the first unconfirmed
    /// byte. A refusal ends the unit: the answers behind it are drained
    /// so the connection stays frame-aligned, and a drain that fails
    /// just costs the connection.
    fn run_unit(
        &self,
        conn: &mut DataConn,
        acked: &mut u64,
        end: u64,
    ) -> Result<(Answer<()>, bool), EngineError> {
        let ranges = (*acked..end)
            .step_by(MAX_DATA_RANGE as usize)
            .map(move |off| (off, MAX_DATA_RANGE.min(end - off)));
        for (off, len) in ranges.clone() {
            self.send_range(conn, off, len)?;
        }
        let (mut refused, mut in_step) = (None, true);
        for (off, len) in ranges {
            match self.recv_range(conn, off, len) {
                Ok(Ok(())) => {
                    *acked += len;
                    self.progress.fetch_add(len, Ordering::Relaxed);
                }
                Ok(Err(refusal)) => {
                    refused.get_or_insert(refusal);
                }
                Err(_) if refused.is_some() => {
                    in_step = false;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok((refused.map_or(Ok(()), Err), in_step))
    }
}

impl RangeMover for RemoteTransfer {
    /// Move one chunk over the transfer's connection, all of its
    /// ranges in flight at once.
    fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError> {
        let (ends, mut acked) = (&self.ends, offset);
        self.conn
            .exchange(|conn| ends.run_unit(conn, &mut acked, offset + len))?
    }

    /// Remove what an interrupted transfer left behind — the pull's
    /// local destination, or (best-effort) the push's
    /// partial remote one.
    fn finish(&mut self, landed: bool) -> Result<(), EngineError> {
        match (landed, self.ends.direction) {
            (true, _) => {}
            (false, Direction::Pull) => {
                let _ = fs::remove_file(&self.ends.local_path);
            }
            (false, Direction::Push) => {
                let _ = self.discard();
            }
        }
        Ok(())
    }

    fn landing(&self) -> (Op, Route) {
        let op = if self.op == TaskOp::Move {
            Op::Move
        } else {
            Op::Copy
        };
        match self.ends.direction {
            Direction::Push => (op, Route::Push),
            Direction::Pull => (op, Route::Pull),
        }
    }

    /// A pushed `Move` unlinks its local source; a pulled one
    /// `Discard`s the peer's, over the transfer's own connection.
    fn free_source(&mut self) -> Result<(), EngineError> {
        match (self.op, self.ends.direction) {
            (TaskOp::Move, Direction::Push) => Ok(fs::remove_file(&self.ends.local_path)?),
            (TaskOp::Move, Direction::Pull) => self.discard(),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        assert_chain_gone, register_tmp0, silent_pull, spin_until, temp_root, tiny_write, TempRoot,
    };
    use super::super::transfer::tests::{assert_allocated, drive};
    use super::super::transfer::{PlanOutcome, Step, DEFAULT_CHUNK_SIZE, MIN_CHUNK_SIZE};
    use super::super::{Engine, EngineConfig, PolicyKind};
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;

    use norns_proto::{
        encode_frame, FrameReader, ResourceDesc, TaskSpec, TaskState, TaskStats, Wire,
    };
    use parking_lot::Mutex;

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
    /// the connections it accepted, every request in arrival order, and
    /// every range it answered.
    struct ScriptedPeer {
        addr: String,
        accepted: Arc<AtomicUsize>,
        log: Arc<Mutex<Vec<DataRequest>>>,
        ranges: Arc<Mutex<Vec<Range>>>,
    }

    /// One `Fetch` or `Store` as the peer answered it.
    struct Range {
        offset: u64,
        len: u64,
        /// Requests on its connection that had arrived and were not
        /// answered yet when it was, itself included.
        in_flight: usize,
    }

    impl ScriptedPeer {
        /// `script` sees each request and how many of its verb came
        /// before it; `None` is `Ok`. It runs on the connection's
        /// answering thread, so a script that blocks holds that answer
        /// back.
        fn spawn(
            script: impl Fn(&DataRequest, usize) -> Option<Scripted> + Send + Sync + 'static,
        ) -> ScriptedPeer {
            Self::spawn_counting(Arc::default(), script)
        }

        /// [`ScriptedPeer::spawn`], counting every request that arrives,
        /// on any connection, into `arrived` as it comes off the socket —
        /// before its answer, which a script may be holding back.
        fn spawn_counting(
            arrived: Arc<AtomicUsize>,
            script: impl Fn(&DataRequest, usize) -> Option<Scripted> + Send + Sync + 'static,
        ) -> ScriptedPeer {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = ScriptedPeer {
                addr: listener.local_addr().unwrap().to_string(),
                accepted: Arc::new(AtomicUsize::new(0)),
                log: Arc::default(),
                ranges: Arc::default(),
            };
            let accepted = Arc::clone(&peer.accepted);
            let (log, ranges) = (Arc::clone(&peer.log), Arc::clone(&peer.ranges));
            let script = Arc::new(script);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let (log, ranges) = (Arc::clone(&log), Arc::clone(&ranges));
                    let (script, arrived) = (Arc::clone(&script), Arc::clone(&arrived));
                    std::thread::spawn(move || {
                        Self::serve(stream, &log, &ranges, &arrived, &*script)
                    });
                }
            });
            peer
        }

        /// Answer one connection's requests in order. A reader thread
        /// takes each one off the socket as it arrives, so what is in
        /// flight when an answer goes out is a count.
        fn serve(
            mut stream: TcpStream,
            log: &Mutex<Vec<DataRequest>>,
            ranges: &Mutex<Vec<Range>>,
            on_peer: &Arc<AtomicUsize>,
            script: &dyn Fn(&DataRequest, usize) -> Option<Scripted>,
        ) {
            let arrived = Arc::new(AtomicUsize::new(0));
            let (frames, requests) = std::sync::mpsc::channel();
            let (mut socket, counted) = (stream.try_clone().unwrap(), Arc::clone(&arrived));
            let on_peer = Arc::clone(on_peer);
            std::thread::spawn(move || {
                let mut reader = FrameReader::new();
                loop {
                    match reader.next_frame() {
                        Ok(Some(frame)) => {
                            counted.fetch_add(1, Ordering::SeqCst);
                            on_peer.fetch_add(1, Ordering::SeqCst);
                            if frames.send(frame).is_err() {
                                return;
                            }
                        }
                        Ok(None) if matches!(reader.read_from(&mut socket), Ok(1..)) => {}
                        _ => return,
                    }
                }
            });
            for (answered, mut frame) in requests.into_iter().enumerate() {
                let Ok(request) = DataRequest::decode(&mut frame) else {
                    break;
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
                let range = match request {
                    DataRequest::Fetch { offset, len, .. } => Some((offset, len)),
                    DataRequest::Store { offset, .. } => Some((offset, frame.len() as u64)),
                    _ => None,
                };
                if let Some((offset, len)) = range {
                    let in_flight = arrived.load(Ordering::SeqCst) - answered;
                    ranges.lock().push(Range {
                        offset,
                        len,
                        in_flight,
                    });
                }
                let (response, payload, hang_up) = match scripted {
                    Scripted::Answer(response) => (response, Vec::new(), false),
                    Scripted::Data(payload) => (DataResponse::Data, payload, false),
                    Scripted::AnswerAndHangUp(response) => (response, Vec::new(), true),
                };
                let mut body = response.to_bytes().to_vec();
                body.extend_from_slice(&payload);
                if stream.write_all(&encode_frame(&body)).is_err() || hang_up {
                    break;
                }
            }
            // The reader's clone would keep the connection open.
            let _ = stream.shutdown(std::net::Shutdown::Both);
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
            TaskOp::Copy,
            Plugin::LocalToRemote,
            &peer.addr,
            "ds0",
            "dst.dat",
            &src,
            1 << 20,
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
            Arc::default(),
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
    }

    /// A peer that answers `Stat` with `size`, every `Fetch` with its
    /// whole range and every `Store` with `Ok` — each range's answer a
    /// millisecond late, so a request sent past its unit would be on
    /// the wire to count.
    fn serving(size: u64) -> ScriptedPeer {
        ScriptedPeer::spawn(move |request, _| match request {
            DataRequest::Stat { .. } => Some(Scripted::Answer(DataResponse::Stat { size })),
            DataRequest::Fetch { len, .. } => {
                std::thread::sleep(Duration::from_millis(1));
                Some(Scripted::Data(vec![7u8; *len as usize]))
            }
            DataRequest::Store { .. } => {
                std::thread::sleep(Duration::from_millis(1));
                None
            }
            _ => None,
        })
    }

    /// The plugin that moves bytes `direction`.
    fn plugin(direction: Direction) -> Plugin {
        match direction {
            Direction::Pull => Plugin::RemoteToLocal,
            Direction::Push => Plugin::LocalToRemote,
        }
    }

    /// Plan a transfer of `local` against `peer` in `chunk`-sized units.
    fn plan(direction: Direction, peer: &ScriptedPeer, local: &Path, chunk: u64) -> Box<Chain> {
        let (progress, abort) = (Arc::default(), Arc::default());
        RemoteTransfer::plan(
            1,
            TaskOp::Copy,
            plugin(direction),
            &peer.addr,
            "ds0",
            "remote.dat",
            local,
            chunk,
            progress,
            abort,
            Arc::default(),
        )
        .unwrap()
    }

    /// A pull's destination has a block behind every byte of its length
    /// as soon as the plan returns, before the first `Fetch`.
    #[test]
    fn prealloc_a_pull_allocates_its_destination_at_plan() {
        let size = 3 * MAX_DATA_RANGE + 4321;
        let peer = serving(size);
        let root = temp_root("prealloc-pull");
        let local = root.join("sub/pulled.dat");
        let _chain = plan(Direction::Pull, &peer, &local, DEFAULT_CHUNK_SIZE);
        assert_allocated(&local, size);
        assert_eq!(peer.count(|r| matches!(r, DataRequest::Fetch { .. })), 0);
    }

    // --- the remote chain's edges (CI loops every `chain_` test) ------

    const CHAIN_UNITS: u64 = 16;

    /// An FCFS engine cutting transfers into [`MIN_CHUNK_SIZE`] chunks,
    /// dataspace `tmp0` holding a `CHAIN_UNITS`-chunk `big`, and `peer`
    /// registered as host `peer`.
    fn chain_engine(tag: &str, workers: usize, peer: &ScriptedPeer) -> (Arc<Engine>, TempRoot) {
        chain_engine_under(PolicyKind::Fcfs, tag, workers, peer)
    }

    fn chain_engine_under(
        policy: PolicyKind,
        tag: &str,
        workers: usize,
        peer: &ScriptedPeer,
    ) -> (Arc<Engine>, TempRoot) {
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
        fs::write(root.join("tmp0/big"), big()).unwrap();
        (engine, root)
    }

    /// What `tmp0/big` holds.
    fn big() -> Vec<u8> {
        (0..CHAIN_UNITS * MIN_CHUNK_SIZE)
            .map(|i| (i % 251) as u8)
            .collect()
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
        push_as(engine, TaskOp::Copy)
    }

    /// `tmp0/big` pushed to the peer's `dst.dat` as an `op` task.
    fn push_as(engine: &Engine, op: TaskOp) -> u64 {
        let spec = TaskSpec::new(op, tmp0("big"), Some(on_peer("dst.dat")));
        engine.submit(1, spec, None).unwrap()
    }

    /// A script that answers the `Store` with `nth` before it only once
    /// told to, and the two flags the test holds: `held` goes up when
    /// that `Store` has arrived, raising `release` lets its `Ok` out.
    fn holding_store(
        nth: usize,
    ) -> (
        impl Fn(&DataRequest, usize) -> Option<Scripted> + Send + Sync,
        Arc<AtomicBool>,
        Arc<AtomicBool>,
    ) {
        let held = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (holds, released) = (Arc::clone(&held), Arc::clone(&release));
        let script = move |request: &DataRequest, earlier: usize| {
            if matches!(request, DataRequest::Store { .. }) && earlier == nth {
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
        let fair = PolicyKind::JobFairShare;
        let (engine, _root) = chain_engine_under(fair, "chain-push", 4, &peer);
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
        let (engine, _root) = chain_engine("chain-push-stale", 2, &peer);
        let stats = engine.wait(push(&engine), 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, CHAIN_UNITS * MIN_CHUNK_SIZE);
        assert_eq!(peer.accepted.load(Ordering::SeqCst), 2, "one reconnect");
        // The `Store` that met the closed socket was never read; its
        // replay is the fourth the peer sees, and every range once.
        assert_eq!(store_offsets(&peer), in_file_order());
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
    }

    #[test]
    fn chain_cancel_mid_push_discards_the_partial() {
        let (script, held, release) = holding_store(2);
        let peer = ScriptedPeer::spawn(script);
        let (engine, _root) = chain_engine("chain-push-cancel", 2, &peer);
        let id = push(&engine);
        spin_until("the third Store", || held.load(Ordering::SeqCst));
        engine.cancel(id, None).unwrap();
        release.store(true, Ordering::SeqCst);
        let stats = engine.wait(id, 0).unwrap();
        assert_push_ended(&peer, &stats, TaskState::Cancelled);
        assert_chain_gone(&engine, 0, 1);
        engine.shutdown();
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
        let (engine, _root) = chain_engine("chain-push-fail", 2, &peer);
        let id = push(&engine);
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.error, ErrorCode::NoSpace);
        assert_eq!(stats.bytes_moved, 2 * MIN_CHUNK_SIZE);
        assert_eq!((peer.stores(), peer.discards()), (3, 1));
        assert_eq!(peer.accepted.load(Ordering::SeqCst), 1);
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
    }

    #[test]
    fn chain_shutdown_mid_push_fails_the_task_and_discards_the_partial() {
        let (script, held, release) = holding_store(2);
        let peer = ScriptedPeer::spawn(script);
        let (engine, _root) = chain_engine("chain-push-shutdown", 2, &peer);
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
    }

    // --- a Move across nodes frees its source last, or never ---------

    /// A push `Move` frees its local source only once every byte is on
    /// the peer: while the last `Store`'s answer is held the source is
    /// still there, and it is gone when the task is `Finished`.
    #[test]
    fn chain_move_push_frees_its_source_after_the_last_store() {
        let last = CHAIN_UNITS as usize - 1;
        let (script, held, release) = holding_store(last);
        let peer = ScriptedPeer::spawn(script);
        let (engine, root) = chain_engine("chain-move-push", 2, &peer);
        let id = push_as(&engine, TaskOp::Move);
        spin_until("the last Store", || held.load(Ordering::SeqCst));
        assert_eq!(fs::read(root.join("tmp0/big")).unwrap(), big());
        release.store(true, Ordering::SeqCst);
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, CHAIN_UNITS * MIN_CHUNK_SIZE);
        assert!(
            !root.join("tmp0/big").exists(),
            "a landed Move frees its source"
        );
        assert_eq!((peer.stores(), peer.discards()), (CHAIN_UNITS as usize, 0));
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
    }

    /// A push `Move` the peer refuses mid-file, and one cancelled
    /// mid-file, each `Discard` the partial and keep their source
    /// byte for byte.
    #[test]
    fn chain_move_refused_or_cancelled_push_keeps_its_source() {
        let peer = ScriptedPeer::spawn(|request, earlier| match request {
            DataRequest::Store { .. } if earlier >= 2 => {
                Some(refuse(ErrorCode::NoSpace, "scripted store failure"))
            }
            _ => None,
        });
        let (engine, root) = chain_engine("chain-move-push-refused", 2, &peer);
        let stats = engine.wait(push_as(&engine, TaskOp::Move), 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!((peer.stores(), peer.discards()), (3, 1));
        assert!(matches!(
            peer.log.lock().last(),
            Some(DataRequest::Discard { path, .. }) if path == "dst.dat"
        ));
        assert_eq!(fs::read(root.join("tmp0/big")).unwrap(), big());
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();

        let (script, held, release) = holding_store(2);
        let peer = ScriptedPeer::spawn(script);
        let (engine, root) = chain_engine("chain-move-push-cancel", 2, &peer);
        let id = push_as(&engine, TaskOp::Move);
        spin_until("the third Store", || held.load(Ordering::SeqCst));
        engine.cancel(id, None).unwrap();
        release.store(true, Ordering::SeqCst);
        let stats = engine.wait(id, 0).unwrap();
        assert_push_ended(&peer, &stats, TaskState::Cancelled);
        assert_eq!(fs::read(root.join("tmp0/big")).unwrap(), big());
        assert_chain_gone(&engine, 0, 1);
        engine.shutdown();
    }

    /// A peer holding `src.dat` of `CHAIN_UNITS` chunks that serves
    /// every `Fetch` whole, refusing from the one with `refuse_from`
    /// before it on, and answers its first `Discard` the way a daemon
    /// caught mid-restart does.
    fn pull_source(refuse_from: usize) -> ScriptedPeer {
        ScriptedPeer::spawn(move |request, earlier| match request {
            DataRequest::Stat { .. } => Some(Scripted::Answer(DataResponse::Stat {
                size: CHAIN_UNITS * MIN_CHUNK_SIZE,
            })),
            DataRequest::Fetch { .. } if earlier >= refuse_from => {
                Some(refuse(ErrorCode::SystemError, "scripted fetch failure"))
            }
            DataRequest::Fetch { len, .. } => Some(Scripted::Data(vec![7u8; *len as usize])),
            DataRequest::Discard { .. } if earlier == 0 => {
                Some(Scripted::AnswerAndHangUp(DataResponse::Error {
                    code: ErrorCode::SystemError,
                    message: "daemon restarting".into(),
                }))
            }
            _ => None,
        })
    }

    fn pull_move(engine: &Engine) -> u64 {
        let spec = TaskSpec::new(TaskOp::Move, on_peer("src.dat"), Some(tmp0("pulled")));
        engine.submit(1, spec, None).unwrap()
    }

    /// A pull `Move` frees the peer's source with a `Discard` once the
    /// last `Fetch` has landed: it is the last request the peer sees,
    /// and it takes the same one retry a push's cleanup does.
    #[test]
    fn chain_move_pull_discards_its_source_last() {
        let peer = pull_source(usize::MAX);
        let (engine, root) = chain_engine("chain-move-pull", 2, &peer);
        let stats = engine.wait(pull_move(&engine), 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, CHAIN_UNITS * MIN_CHUNK_SIZE);
        let pulled = fs::read(root.join("tmp0/pulled")).unwrap();
        assert_eq!(pulled, vec![7u8; (CHAIN_UNITS * MIN_CHUNK_SIZE) as usize]);
        let log = peer.log.lock();
        let fetches = log
            .iter()
            .filter(|r| matches!(r, DataRequest::Fetch { .. }))
            .count();
        assert_eq!(fetches, CHAIN_UNITS as usize);
        assert!(
            matches!(&log[log.len() - 2..], [
                DataRequest::Discard { path: first, .. },
                DataRequest::Discard { path: again, .. },
            ] if first == "src.dat" && again == "src.dat"),
            "the source's Discard, replayed once, ends the transfer"
        );
        drop(log);
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
    }

    /// A pull `Move` that fails mid-file removes its partial and sends
    /// no `Discard`: the peer keeps its source.
    #[test]
    fn chain_move_failed_pull_sends_no_discard() {
        let peer = pull_source(2);
        let (engine, root) = chain_engine("chain-move-pull-fail", 2, &peer);
        let stats = engine.wait(pull_move(&engine), 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError);
        assert_eq!(stats.bytes_moved, 2 * MIN_CHUNK_SIZE);
        assert_eq!(peer.discards(), 0, "a failed Move keeps its source");
        assert!(!root.join("tmp0/pulled").exists());
        assert_chain_gone(&engine, 1, 0);
        engine.shutdown();
    }

    const MIB: u64 = 1 << 20;

    /// Every range a transfer of `size` bytes puts on the wire, in
    /// `chunk`-sized units.
    fn ranges_on_the_wire(direction: Direction, size: u64, chunk: u64) -> Vec<Range> {
        let peer = serving(size);
        let root = temp_root(&format!("chain-ranges-{direction:?}-{chunk}"));
        let local = root.join("local.dat");
        if direction == Direction::Push {
            fs::write(&local, vec![7u8; size as usize]).unwrap();
        }
        let chain = plan(direction, &peer, &local, chunk);
        assert!(matches!(drive(chain).1, PlanOutcome::Done(n) if n == size));
        let ranges = std::mem::take(&mut *peer.ranges.lock());
        ranges
    }

    /// `size` bytes in `chunk`-sized units put exactly `whole` on the
    /// wire, pushed and pulled, and no range ever has more in flight
    /// than what is left of its unit, itself included — so never a
    /// range of the next unit before this one's last answer.
    fn assert_units_go_out_whole(size: u64, chunk: u64, whole: &[(u64, u64)]) {
        for direction in [Direction::Push, Direction::Pull] {
            let ranges = ranges_on_the_wire(direction, size, chunk);
            let on_wire: Vec<_> = ranges.iter().map(|r| (r.offset, r.len)).collect();
            assert_eq!(on_wire, whole, "{direction:?} of {size} in {chunk}");
            for range in &ranges {
                let unit_end = (range.offset - range.offset % chunk + chunk).min(size);
                let left = (unit_end - range.offset).div_ceil(MAX_DATA_RANGE) as usize;
                assert!(
                    range.in_flight <= left,
                    "{direction:?} of {size} in {chunk}: {} in flight at {}, {left} left of its unit",
                    range.in_flight,
                    range.offset
                );
            }
        }
    }

    /// A unit goes out whole: its `Store`s or `Fetch`es are
    /// [`MAX_DATA_RANGE`] but its last, and they are all of what is in
    /// flight. At the defaults a 16 MiB transfer is two units of two
    /// 4 MiB ranges; at a 12 MiB chunk 29 MiB + 123 is three ranges a
    /// unit and a ragged tail.
    #[test]
    fn chain_units_go_out_whole_and_one_at_a_time() {
        let four = |at: u64| (at * MIB, 4 * MIB);
        assert_units_go_out_whole(
            16 * MIB,
            DEFAULT_CHUNK_SIZE,
            &[four(0), four(4), four(8), four(12)],
        );
        assert_units_go_out_whole(
            29 * MIB + 123,
            12 * MIB,
            &[
                four(0),
                four(4),
                four(8),
                four(12),
                four(16),
                four(20),
                four(24),
                (28 * MIB, MIB + 123),
            ],
        );
    }

    /// How late the clock tests' peer answers its first request.
    const LATE: Duration = Duration::from_millis(200);

    /// A task's clock starts at its first worker touch, before its
    /// plan: a pull whose peer answers `Stat` late counts the delay in
    /// its span, and the span is no longer than the caller waited.
    #[test]
    fn clock_a_pull_counts_its_plan() {
        let peer = ScriptedPeer::spawn(|request, _| match request {
            DataRequest::Stat { .. } => {
                std::thread::sleep(LATE);
                Some(Scripted::Answer(DataResponse::Stat { size: 4096 }))
            }
            DataRequest::Fetch { len, .. } => Some(Scripted::Data(vec![7u8; *len as usize])),
            _ => None,
        });
        let (engine, _root) = chain_engine("clock-pull", 1, &peer);
        let began = std::time::Instant::now();
        let spec = TaskSpec::new(TaskOp::Copy, on_peer("src.dat"), Some(tmp0("pulled")));
        let id = engine.submit(1, spec, None).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        let wall = began.elapsed();
        assert_eq!(stats.state, TaskState::Finished);
        let span = Duration::from_micros(stats.wait_usec + stats.elapsed_usec);
        assert!(
            span >= LATE && span <= wall,
            "span {span:?}: a {LATE:?} Stat, {wall:?} waited"
        );
        engine.shutdown();
    }

    /// A `synchronous` stage-out ACKs once its replica landed, and its
    /// clock runs until then: a peer that answers the replica's
    /// `Prepare` late shows in the parent's `elapsed_usec`.
    #[test]
    fn clock_a_synchronous_parent_counts_its_replicas() {
        let peer = ScriptedPeer::spawn(|request, _| {
            if matches!(request, DataRequest::Prepare { .. }) {
                std::thread::sleep(LATE);
            }
            None
        });
        let (engine, _root) = chain_engine("clock-sync", 1, &peer);
        let spec = TaskSpec::new(TaskOp::Copy, tmp0("big"), Some(tmp0("landed")))
            .with_durability(norns_proto::Durability::Synchronous);
        let id = engine.submit(1, spec, None).unwrap();
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(peer.count(|r| matches!(r, DataRequest::Prepare { .. })), 1);
        assert!(
            Duration::from_micros(stats.elapsed_usec) >= LATE,
            "elapsed {} µs behind a {LATE:?} Prepare",
            stats.elapsed_usec
        );
        engine.shutdown();
    }

    /// A `synchronous` stage-out whose local leg landed waits on its
    /// replicas with no abort point: a cancel while the replica's
    /// `Prepare` is held is refused, and the task ends `Finished`. A
    /// cancel answered `Ok` would have to end it `Cancelled`.
    #[test]
    fn cancel_of_a_synchronous_parent_awaiting_its_replicas_is_refused() {
        let (arrived, release) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (seen, held) = (Arc::clone(&arrived), Arc::clone(&release));
        let peer = ScriptedPeer::spawn(move |request, _| {
            if matches!(request, DataRequest::Prepare { .. }) {
                seen.store(true, Ordering::SeqCst);
                while !held.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            None
        });
        let (engine, _root) = chain_engine("cancel-sync", 1, &peer);
        let spec = TaskSpec::new(TaskOp::Copy, tmp0("big"), Some(tmp0("landed")))
            .with_durability(norns_proto::Durability::Synchronous);
        let id = engine.submit(1, spec, None).unwrap();
        spin_until("the replica's Prepare", || arrived.load(Ordering::SeqCst));
        let cancelled = engine.cancel(id, None);
        release.store(true, Ordering::SeqCst);
        let stats = engine.wait(id, 0).unwrap();
        if cancelled.is_ok() {
            assert_eq!(
                stats.state,
                TaskState::Cancelled,
                "a cancel answered Ok must end the task Cancelled"
            );
        }
        assert!(
            matches!(&cancelled, Err(e) if e.code == ErrorCode::TaskError),
            "{cancelled:?}"
        );
        assert_eq!(stats.state, TaskState::Finished);
        engine.shutdown();
    }

    /// The peer answers nothing of a unit until the unit's last range
    /// has arrived: a mover that waited for an answer before sending
    /// the next range would never finish. The peer gives up after a
    /// bound and refuses, so that shows as a failed transfer, not a
    /// hung test.
    #[test]
    fn chain_unit_is_on_the_wire_before_its_first_answer() {
        let (size, chunk) = (29 * MIB + 123, 12 * MIB);
        for direction in [Direction::Push, Direction::Pull] {
            let arrived = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&arrived);
            let peer = ScriptedPeer::spawn_counting(arrived, move |request, earlier| {
                let (offset, len) = match request {
                    DataRequest::Stat { .. } => {
                        return Some(Scripted::Answer(DataResponse::Stat { size }))
                    }
                    DataRequest::Fetch { offset, len, .. } => (*offset, Some(*len)),
                    DataRequest::Store { offset, .. } => (*offset, None),
                    _ => return None,
                };
                if offset % chunk == 0 {
                    // The unit's last request, counting the `Stat` or
                    // `Prepare` in front of every range.
                    let unit = chunk.min(size - offset);
                    let last = 1 + earlier + unit.div_ceil(MAX_DATA_RANGE) as usize;
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while seen.load(Ordering::SeqCst) < last {
                        if std::time::Instant::now() > deadline {
                            return Some(refuse(ErrorCode::Timeout, "unit not sent whole"));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                len.map(|len| Scripted::Data(vec![7u8; len as usize]))
            });
            let root = temp_root(&format!("chain-whole-{direction:?}"));
            let local = root.join("local.dat");
            if direction == Direction::Push {
                fs::write(&local, vec![7u8; size as usize]).unwrap();
            }
            let (units, outcome) = drive(plan(direction, &peer, &local, chunk));
            match outcome {
                PlanOutcome::Done(n) => assert_eq!((units, n), (3, size), "{direction:?}"),
                PlanOutcome::Failed(e) => panic!("{direction:?}: {e:?}"),
                PlanOutcome::Cancelled => panic!("{direction:?}: cancelled"),
            }
        }
    }

    use super::super::Subscribed;
    use norns_proto::Durability;
    use norns_sched::lifecycle::{self, Answer, Counts, Event, Next, Outcome, Role, Task};

    /// A pull holds its abort point before its plan: a cancel while the
    /// peer is still answering its `Stat` is accepted, and the pull
    /// ends `Cancelled` — no `Fetch` sent, the destination the plan
    /// allocated removed.
    #[test]
    fn lifecycle_a_cancel_while_a_pull_plans_ends_it_cancelled() {
        let arrived = Arc::new(AtomicUsize::new(0));
        let peer = ScriptedPeer::spawn_counting(Arc::clone(&arrived), |request, _| match request {
            DataRequest::Stat { .. } => {
                std::thread::sleep(LATE);
                Some(Scripted::Answer(DataResponse::Stat { size: 3 * MIB }))
            }
            DataRequest::Fetch { len, .. } => Some(Scripted::Data(vec![7u8; *len as usize])),
            _ => None,
        });
        let (engine, root) = chain_engine("cancel-plan", 1, &peer);
        let spec = TaskSpec::new(TaskOp::Copy, on_peer("src.dat"), Some(tmp0("pulled")));
        let id = engine.submit(1, spec, None).unwrap();
        spin_until("the pull's Stat", || arrived.load(Ordering::SeqCst) == 1);
        engine
            .cancel(id, None)
            .expect("a cancel while the pull plans is accepted");
        let stats = engine.wait(id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Cancelled);
        assert_eq!(peer.count(|r| matches!(r, DataRequest::Fetch { .. })), 0);
        assert!(!root.join("tmp0/pulled").exists());
        assert_chain_gone(&engine, 0, 1);
        engine.shutdown();
    }

    /// A replica is the daemon's own task, and only the control socket
    /// may cancel it. A cancel while its `Prepare` is held is accepted:
    /// a `local_plus_one` copy is dropped without a word (its parent
    /// had ACKed), and a `synchronous` parent fails with the cancelled
    /// replica as its reason. No client cancelled anything.
    #[test]
    fn lifecycle_the_control_socket_cancels_a_replica() {
        for durability in [Durability::LocalPlusOne, Durability::Synchronous] {
            let (arrived, release) = (
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
            );
            let (seen, held) = (Arc::clone(&arrived), Arc::clone(&release));
            let peer = ScriptedPeer::spawn(move |request, _| {
                if matches!(request, DataRequest::Prepare { .. }) {
                    seen.store(true, Ordering::SeqCst);
                    while !held.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                None
            });
            let tag = format!("cancel-replica-{durability:?}");
            let (engine, _root) = chain_engine(&tag, 1, &peer);
            let spec = TaskSpec::new(TaskOp::Copy, tmp0("big"), Some(tmp0("landed")))
                .with_durability(durability);
            let id = engine.submit(1, spec, None).unwrap();
            spin_until("the replica's Prepare", || arrived.load(Ordering::SeqCst));
            // The replica is the next task the engine admitted.
            let replica = id + 1;
            let refused = engine.cancel(replica, Some(1)).unwrap_err();
            assert_eq!(refused.code, ErrorCode::PermissionDenied);
            engine.cancel(replica, None).unwrap();
            release.store(true, Ordering::SeqCst);
            let stats = engine.wait(id, 0).unwrap();
            assert_eq!(engine.wait(replica, 0).unwrap().state, TaskState::Cancelled);
            if durability == Durability::LocalPlusOne {
                assert_eq!(stats.state, TaskState::Finished);
            } else {
                assert_eq!(stats.state, TaskState::FinishedWithError);
                assert_eq!(stats.error, ErrorCode::SystemError);
                let why = engine.error_message(id).unwrap();
                assert_eq!(why, "replication failed: replica ended Cancelled");
            }
            let status = engine.status();
            assert_eq!((status.completed_tasks, status.cancelled_tasks), (1, 0));
            assert_eq!((status.pending_replicas, status.running_tasks), (0, 0));
            engine.shutdown();
        }
    }

    /// What a sequence task is, and so the events the single worker
    /// runs it through once it reaches it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        /// A memory write: runs whole, with no abort point.
        Write,
        /// A local copy: a chain that plans, lands and commits at once.
        Copy,
        /// A `synchronous` local copy: lands at once, then awaits the
        /// replica it queues behind everything already queued.
        Durable,
        /// The daemon's replica push behind a `Durable` copy: lands at
        /// once when the worker reaches it.
        Replica,
        /// A pull whose `Stat` the peer holds until the sequence lets
        /// it go: a chain pinned in its plan, then landed.
        Held,
        /// A pull from a listener nobody answers (`silent_pull`): a
        /// chain pinned in its plan until the listener goes, then failed.
        Silent,
    }

    impl Kind {
        /// The events from the worker's first touch to where the task
        /// ends, awaits its replica or stays pinned.
        fn runs(self) -> &'static [Event] {
            const LANDS: [Event; 4] = [
                Event::Dispatch,
                Event::Plan,
                Event::Commit,
                Event::End(Outcome::Done { awaiting: false }),
            ];
            const AWAITS: [Event; 4] = [
                Event::Dispatch,
                Event::Plan,
                Event::Commit,
                Event::End(Outcome::Done { awaiting: true }),
            ];
            match self {
                Kind::Write => &[
                    Event::Dispatch,
                    Event::End(Outcome::Done { awaiting: false }),
                ],
                Kind::Copy | Kind::Replica => &LANDS,
                Kind::Durable => &AWAITS,
                Kind::Held | Kind::Silent => &[Event::Dispatch, Event::Plan],
            }
        }

        /// The events once a pinned task is let go.
        fn released(self) -> &'static [Event] {
            match self {
                Kind::Held => &[Event::Commit, Event::End(Outcome::Done { awaiting: false })],
                _ => &[Event::End(Outcome::Failed)],
            }
        }

        fn pins(self) -> bool {
            matches!(self, Kind::Held | Kind::Silent)
        }
    }

    /// One task of a sequence, as the table models it.
    struct Live {
        id: u64,
        kind: Kind,
        task: Task,
        /// A replica's `synchronous` parent, by index.
        parent: Option<usize>,
        /// The held pull's remote path: the key its `Stat` is held by.
        path: String,
        /// The silent pull's listener, and the connection its plan made.
        silent: Option<(TcpListener, Option<TcpStream>)>,
        /// Waits the table parked, and the callbacks that ran.
        parked: usize,
        answered: Arc<AtomicUsize>,
    }

    impl Live {
        fn new(id: u64, kind: Kind, role: Role, counts: &mut Counts) -> Live {
            let admitted = lifecycle::admit(role);
            counts.pending += admitted.counts.pending;
            Live {
                id,
                kind,
                task: admitted.task,
                parent: None,
                path: String::new(),
                silent: None,
                parked: 0,
                answered: Arc::default(),
            }
        }

        /// On a worker: pinned in its plan, or awaiting its replica.
        fn running(&self) -> bool {
            self.task.state == lifecycle::TaskState::InProgress
        }
    }

    /// The `Stat`s of held pulls, by remote path: in once it arrived
    /// at the peer, `true` once the sequence let it go.
    type Holds = Arc<Mutex<std::collections::HashMap<String, bool>>>;

    /// A seeded splitmix64: every choice a sequence makes.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Rounds a sequence chooses before it lets every task end.
    const ROUNDS: usize = 20;

    /// One step of the table on sequence task `i`, its counter moves
    /// summed into `counts`, and what a replica's end tells its parent
    /// stepped on the parent too.
    fn apply(live: &mut [Live], i: usize, counts: &mut Counts, event: Event) -> Next {
        let next = lifecycle::step(live[i].task, event);
        live[i].task = next.task;
        counts.pending += next.counts.pending;
        counts.running += next.counts.running;
        counts.completed += next.counts.completed;
        counts.cancelled += next.counts.cancelled;
        // A parent's one replica: its end is the durability verdict.
        if let (Some(landed), Some(parent)) = (next.to_parent, live[i].parent) {
            apply(live, parent, counts, Event::Durable { ok: landed });
        }
        next
    }

    /// One seeded sequence against a live one-worker engine: tasks of
    /// every [`Kind`] submitted, cancelled, waited on and let go in an
    /// order the seed picks. The engine's every cancel answer, parked
    /// or settled wait, `QueryTask` state and status counter must be
    /// the table's.
    fn live_sequence(seed: u64, peer: &ScriptedPeer, holds: &Holds) {
        let mut rng = Rng(seed);
        let root = temp_root(&format!("lifecycle-live-{seed}"));
        let config = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::with_config(config, PolicyKind::Fcfs);
        register_tmp0(&engine, &root);
        engine.register_peer("peer", &peer.addr);
        fs::write(root.join("tmp0/src"), vec![5u8; 1000]).unwrap();
        let (mut live, mut counts, mut log) = (Vec::<Live>::new(), Counts::default(), Vec::new());
        // Twenty rounds the seed picks, then as many releases as it
        // takes to end every task.
        for round in 0.. {
            if round >= ROUNDS && live.iter().all(|t| t.task.state.is_terminal()) {
                break;
            }
            // Mostly a task that has not ended: those answer differently.
            let open: Vec<usize> = (0..live.len())
                .filter(|&i| !live[i].task.state.is_terminal())
                .collect();
            let pick = match rng.below(4) {
                1.. if !open.is_empty() => open[rng.below(open.len())],
                _ => rng.below(live.len().max(1)),
            };
            let op = if round < ROUNDS { rng.below(5) } else { 4 };
            match op {
                0 | 1 if live.len() < 8 => {
                    let i = live.len();
                    let kinds = [
                        Kind::Write,
                        Kind::Copy,
                        Kind::Durable,
                        Kind::Held,
                        Kind::Silent,
                    ];
                    let kind = kinds[rng.below(kinds.len())];
                    let path = format!("s{seed}-{i}");
                    let mut silent = None;
                    let id = match kind {
                        Kind::Write => {
                            let spec = tiny_write(&format!("write{i}"));
                            engine.submit(1, spec, Some(b"abcd".to_vec())).unwrap()
                        }
                        Kind::Copy | Kind::Durable => {
                            let out = tmp0(&format!("copy{i}"));
                            let spec = TaskSpec::new(TaskOp::Copy, tmp0("src"), Some(out));
                            let spec = match kind {
                                Kind::Durable => spec.with_durability(Durability::Synchronous),
                                _ => spec,
                            };
                            engine.submit(1, spec, None).unwrap()
                        }
                        Kind::Held => {
                            let remote = ResourceDesc::RemotePath {
                                host: "peer".into(),
                                nsid: "ds0".into(),
                                path: path.clone(),
                            };
                            let spec = TaskSpec::new(TaskOp::Copy, remote, Some(tmp0(&path)));
                            engine.submit(1, spec, None).unwrap()
                        }
                        Kind::Silent | Kind::Replica => {
                            let (id, listener) = silent_pull(&engine, &format!("silent{i}"), 1);
                            listener.set_nonblocking(true).unwrap();
                            silent = Some((listener, None));
                            id
                        }
                    };
                    live.push(Live {
                        path,
                        silent,
                        ..Live::new(id, kind, Role::Client, &mut counts)
                    });
                    log.push(format!("submit {kind:?} as {id}"));
                }
                2 if !live.is_empty() => {
                    let answer = engine.cancel(live[pick].id, None);
                    let next = apply(&mut live, pick, &mut counts, Event::Cancel);
                    log.push(format!("cancel {}: {answer:?}", live[pick].id));
                    match (next.answer, &answer) {
                        (Answer::Ok, Ok(())) => {}
                        (Answer::Refused(why), Err(e))
                            if e.code == ErrorCode::TaskError && e.message.ends_with(why) => {}
                        (table, _) => {
                            panic!("seed {seed}: table {table:?}, engine {answer:?}; {log:?}")
                        }
                    }
                }
                3 if !live.is_empty() => {
                    let answered = Arc::clone(&live[pick].answered);
                    let sub = engine.wait_task_async(live[pick].id, None, move |_| {
                        answered.fetch_add(1, Ordering::SeqCst);
                    });
                    let table = apply(&mut live, pick, &mut counts, Event::Wait).answer;
                    let parked = matches!(sub, Subscribed::Parked(_));
                    log.push(format!("wait {}: parked {parked}", live[pick].id));
                    match (table, sub) {
                        (Answer::Park, Subscribed::Parked(_)) => live[pick].parked += 1,
                        (Answer::Now, Subscribed::Now(Ok(_))) => {}
                        (table, _) => panic!("seed {seed}: table {table:?} for a wait; {log:?}"),
                    }
                }
                _ => {
                    if let Some(i) = live.iter().position(|t| t.running() && t.kind.pins()) {
                        log.push(format!("release {}", live[i].id));
                        holds.lock().insert(live[i].path.clone(), true);
                        live[i].silent = None;
                        for &event in live[i].kind.released() {
                            apply(&mut live, i, &mut counts, event);
                        }
                        engine.wait(live[i].id, 0).unwrap();
                    }
                }
            }
            // The worker runs on to the next task that pins it, or to
            // an empty queue: queued tasks run in admission order, a
            // replica behind every task admitted before it.
            while !live.iter().any(|t| t.running() && t.kind.pins()) {
                let Some(i) = live
                    .iter()
                    .position(|t| t.task.state == lifecycle::TaskState::Pending)
                else {
                    break;
                };
                for &event in live[i].kind.runs() {
                    apply(&mut live, i, &mut counts, event);
                }
                match live[i].kind {
                    Kind::Held => {
                        let path = &live[i].path;
                        spin_until("a held Stat", || holds.lock().contains_key(path))
                    }
                    Kind::Silent => {
                        let (listener, accepted) = live[i].silent.as_mut().unwrap();
                        spin_until("a silent plan", || {
                            *accepted = listener.accept().ok().map(|(s, _)| s);
                            accepted.is_some()
                        })
                    }
                    Kind::Durable => {
                        // Its replica is the next task the engine admits.
                        let id = live.iter().map(|t| t.id).max().unwrap() + 1;
                        spin_until("the replica", || engine.query(id).is_some());
                        let replica = Live {
                            parent: Some(i),
                            ..Live::new(id, Kind::Replica, Role::Replica, &mut counts)
                        };
                        live.push(replica);
                        log.push(format!("replica {id} of {}", live[i].id));
                    }
                    Kind::Replica => {
                        engine.wait(live[i].id, 0).unwrap();
                        let parent = live[i].parent.unwrap();
                        engine.wait(live[parent].id, 0).unwrap();
                    }
                    Kind::Write | Kind::Copy => {
                        engine.wait(live[i].id, 0).unwrap();
                    }
                }
            }
            let status = engine.status();
            for t in &live {
                let state = engine.query(t.id).unwrap().state;
                let answered = t.answered.load(Ordering::SeqCst);
                let owed = if t.task.state.is_terminal() {
                    t.parked
                } else {
                    0
                };
                assert_eq!(
                    (state, answered),
                    (t.task.state, owed),
                    "seed {seed} round {round}, task {}: {log:?}",
                    t.id
                );
            }
            let table = [
                counts.pending,
                counts.running,
                counts.completed,
                counts.cancelled,
            ];
            let engine_counts = [
                status.pending_tasks,
                status.running_tasks,
                status.completed_tasks,
                status.cancelled_tasks,
            ];
            assert_eq!(
                engine_counts.map(|n| n as i64),
                table.map(i64::from),
                "seed {seed} round {round}: {log:?}"
            );
        }
        engine.shutdown();
    }

    /// The table, live: ≥ 200 seeded sequences each run, fixed here.
    #[test]
    fn lifecycle_live_sequences_answer_as_the_table() {
        let holds = Holds::default();
        let shared = Arc::clone(&holds);
        let peer = ScriptedPeer::spawn(move |request, _| match request {
            DataRequest::Stat { path, .. } => {
                shared.lock().insert(path.clone(), false);
                let released = || shared.lock()[path];
                while !released() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Some(Scripted::Answer(DataResponse::Stat { size: 4096 }))
            }
            DataRequest::Fetch { len, .. } => Some(Scripted::Data(vec![7u8; *len as usize])),
            _ => None,
        });
        for seed in 0..200 {
            live_sequence(seed, &peer, &holds);
        }
    }
}
