//! The remote-staging backend: `RemotePath` transfers over TCP.
//!
//! NORNS' defining capability is asynchronous staging *between nodes*
//! (paper Table II: `process memory ⇒ remote path`, `local path ⇒
//! remote path`, …). This module is the client half of that data
//! plane: a daemon executing a task whose input or output is a
//! [`norns_proto::ResourceDesc::RemotePath`] resolves the peer host
//! through its peer registry and streams file ranges to or from the
//! peer's data-plane listener using the framed
//! [`DataRequest`]/[`DataResponse`] protocol (wire v4).
//!
//! Remote transfers reuse the whole chunk machinery: a transfer larger
//! than the configured chunk size decomposes into chunk sub-units fed
//! back through `norns-sched`, each unit moving one disjoint range.
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
//! **Syscall fast paths.** Push payloads travel disk→socket via
//! `sendfile(2)` where the kernel allows it (frame header and request
//! go out in one vectored write, the payload never crosses userspace);
//! the fallback is a `pread` into a pooled per-worker buffer followed
//! by a single vectored write of header + request + payload — never a
//! fresh allocation per range, never two small writes per frame.
//!
//! Failure model: unknown peers are rejected at submission
//! (`NotFound`); unreachable peers fail the task with a bounded
//! connect timeout instead of hanging; a failed or cancelled pull
//! removes the preallocated local destination, a failed or cancelled
//! push asks the peer to discard the partial remote file. A failure on
//! a *cached* connection retries the remaining ranges once on a fresh
//! connection — safe because every range names an absolute offset
//! (idempotent replay).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File};
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};

use norns_proto::{
    encode_frame, frame_header, DataRequest, DataResponse, ErrorCode, FrameReader, Wire,
    MAX_DATA_RANGE,
};

use super::error::EngineError;
use super::transfer::{ChunkGrid, RangeMover};

/// Bound on establishing a data-plane connection: an unreachable peer
/// must fail the task, not hang a worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on any single data-plane read/write. Generous — one bounded
/// range, not a whole file, travels per syscall.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

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

/// Per-worker pooled buffer for the push fallback path (when
/// `sendfile` is unavailable): payloads are `pread` into this and go
/// out in one vectored write.
const REMOTE_POOL_BUF: usize = 1 << 20;

/// Bound on this worker's connection cache. Long-lived daemons see
/// peers come and go; without a cap every peer ever spoken to would
/// pin one socket per worker thread forever.
const CONN_CACHE_CAP: usize = 16;

/// Pause before the second (last-chance) `Discard` attempt in
/// [`RemoteTransfer::cleanup`] — long enough for a peer daemon
/// mid-restart to come back up and bind its data listener.
const DISCARD_RETRY_DELAY: Duration = Duration::from_millis(200);

/// Map a data-plane I/O error onto a wire error code. Timeouts get
/// their own code so callers can distinguish a dead peer mid-transfer
/// from a local filesystem failure.
fn map_net(e: io::Error) -> EngineError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            EngineError::new(ErrorCode::Timeout, format!("data plane timeout: {e}"))
        }
        _ => e.into(),
    }
}

/// Is `sendfile(2)` still worth attempting? Cleared the first time the
/// syscall refuses a socket/file pair (old kernels, exotic
/// filesystems); every push then takes the pooled `pread` +
/// vectored-write path.
#[cfg(target_os = "linux")]
static SENDFILE_RUNTIME_OFF: AtomicBool = AtomicBool::new(false);

#[cfg(target_os = "linux")]
fn sendfile_enabled() -> bool {
    !SENDFILE_RUNTIME_OFF.load(Ordering::Relaxed)
}

#[cfg(target_os = "linux")]
fn disable_sendfile() {
    SENDFILE_RUNTIME_OFF.store(true, Ordering::Relaxed);
}

/// One `sendfile(2)` round-trip with an explicit source offset (the
/// file's cursor is never touched — chunk workers share the `File`).
#[cfg(target_os = "linux")]
fn sendfile_once(socket: &TcpStream, file: &File, offset: u64, len: usize) -> io::Result<usize> {
    use std::os::unix::io::AsRawFd;
    // Declared directly (glibc) — the workspace builds offline with no
    // libc crate.
    // SAFETY: signature transcribed from the glibc header for x86_64
    // Linux (`sendfile64` is the default under _FILE_OFFSET_BITS=64).
    extern "C" {
        fn sendfile(
            out_fd: std::ffi::c_int,
            in_fd: std::ffi::c_int,
            offset: *mut i64,
            count: usize,
        ) -> isize;
    }
    let mut off = offset as i64;
    // SAFETY: both fds are live for the duration of the call (borrowed
    // from `&TcpStream` / `&File`), and `off` is a live stack i64 the
    // kernel updates in place.
    let n = unsafe { sendfile(socket.as_raw_fd(), file.as_raw_fd(), &mut off, len) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Errors that mean "this pair can't use `sendfile`, take the buffered
/// path" rather than "the transfer failed".
#[cfg(target_os = "linux")]
fn sendfile_wants_fallback(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput
    )
}

thread_local! {
    /// Per-worker pooled payload buffer for the push fallback path.
    static RANGE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Write every byte of up to three slices through `write_vectored`,
/// coalescing frame header, request and payload into single syscalls.
fn write_all_vectored(stream: &mut TcpStream, parts: &[&[u8]]) -> io::Result<()> {
    let mut part = 0usize;
    let mut off = 0usize;
    // Skip leading empty parts.
    while part < parts.len() && parts[part].is_empty() {
        part += 1;
    }
    while part < parts.len() {
        let mut slices = [IoSlice::new(&[]); 4];
        let mut n_slices = 0;
        for (i, p) in parts.iter().enumerate().skip(part) {
            let s = if i == part { &p[off..] } else { &p[..] };
            if !s.is_empty() {
                slices[n_slices] = IoSlice::new(s);
                n_slices += 1;
            }
        }
        if n_slices == 0 {
            break;
        }
        let mut n = match stream.write_vectored(&slices[..n_slices]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "data connection refused bytes",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 && part < parts.len() {
            let rem = parts[part].len() - off;
            if n >= rem {
                n -= rem;
                part += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
        while part < parts.len() && off == parts[part].len() {
            part += 1;
            off = 0;
        }
    }
    Ok(())
}

/// One framed connection to a peer's data plane. Supports both the
/// single round-trip [`DataConn::call`] (control-ish ops: `Stat`,
/// `Prepare`, `Discard`) and split send/receive halves so transfers
/// can keep a window of range requests in flight.
pub(crate) struct DataConn {
    stream: TcpStream,
    reader: FrameReader,
}

impl DataConn {
    pub fn connect(addr: &str) -> Result<DataConn, EngineError> {
        let bad_addr = |why: String| EngineError::new(ErrorCode::BadArgs, why);
        let sockaddr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(|e| bad_addr(format!("peer address {addr:?}: {e}")))?
            .next()
            .ok_or_else(|| bad_addr(format!("peer address {addr:?} resolves to nothing")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)
            .map_err(|e| EngineError::new(ErrorCode::SystemError, format!("peer {addr}: {e}")))?;
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Request/response exchanges: Nagle only adds latency.
        let _ = stream.set_nodelay(true);
        Ok(DataConn {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Send one request frame with no trailing payload (`Stat`,
    /// `Fetch`, `Prepare`, `Discard`): header + request in a single
    /// vectored write.
    fn send_request(&mut self, req: &DataRequest) -> Result<(), EngineError> {
        let body = req.to_bytes();
        let header = frame_header(body.len());
        write_all_vectored(&mut self.stream, &[&header, &body]).map_err(map_net)
    }

    /// Send one `Store` frame whose payload is `len` bytes of `file`
    /// at `offset`. The payload travels disk→socket via `sendfile(2)`
    /// where available; otherwise it is `pread` into this worker's
    /// pooled buffer and written together with header + request in one
    /// vectored write. A source that comes up short (shrank under the
    /// transfer) is an error: the frame length is already committed.
    fn send_store(
        &mut self,
        req: &DataRequest,
        file: &File,
        offset: u64,
        len: u64,
    ) -> Result<(), EngineError> {
        let body = req.to_bytes();
        let header = frame_header(body.len() + len as usize);
        #[cfg(target_os = "linux")]
        if sendfile_enabled() {
            write_all_vectored(&mut self.stream, &[&header, &body]).map_err(map_net)?;
            let mut sent = 0u64;
            while sent < len {
                let want = (len - sent).min(1 << 30) as usize;
                match sendfile_once(&self.stream, file, offset + sent, want) {
                    Ok(0) => return Err(truncated("local", offset + sent)),
                    Ok(n) => sent += n as u64,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if sent == 0 && sendfile_wants_fallback(&e) => {
                        // First refusal on this box: remember and take
                        // the buffered path for the rest of the frame
                        // (header is committed, only payload remains).
                        disable_sendfile();
                        break;
                    }
                    Err(e) => return Err(map_net(e)),
                }
            }
            if sent == len {
                return Ok(());
            }
            // sendfile refused before moving anything: stream position
            // is right after the request; fill the payload buffered.
            return self.write_payload_buffered(file, offset + sent, len - sent, &[]);
        }
        self.write_payload_buffered(file, offset, len, &[&header, &body])
    }

    /// Buffered push path: `pread` the payload into the pooled
    /// per-worker buffer and write `prefix` slices + payload in one
    /// vectored write. A short read is an error — the frame header
    /// already promised `len` payload bytes.
    fn write_payload_buffered(
        &mut self,
        file: &File,
        mut offset: u64,
        len: u64,
        prefix: &[&[u8]],
    ) -> Result<(), EngineError> {
        RANGE_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            let want = (len.min(REMOTE_POOL_BUF as u64) as usize).max(1);
            if buf.len() < want {
                buf.resize(want, 0);
            }
            let mut remaining = len;
            let mut first = true;
            while remaining > 0 || first {
                let step = remaining.min(REMOTE_POOL_BUF as u64) as usize;
                let mut filled = 0usize;
                while filled < step {
                    match file.read_at(&mut buf[filled..step], offset + filled as u64) {
                        Ok(0) => return Err(truncated("local", offset + filled as u64)),
                        Ok(n) => filled += n,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
                let parts: Vec<&[u8]> = if first {
                    prefix.iter().copied().chain([&buf[..step]]).collect()
                } else {
                    vec![&buf[..step]]
                };
                write_all_vectored(&mut self.stream, &parts).map_err(map_net)?;
                offset += step as u64;
                remaining -= step as u64;
                first = false;
            }
            Ok(())
        })
    }

    /// Read one response frame (blocking, bounded by the stream's
    /// read timeout). Returns the decoded response and whatever
    /// payload followed it.
    fn recv_response(&mut self) -> Result<(DataResponse, Bytes), EngineError> {
        let garbled = |what: String| EngineError::new(ErrorCode::SystemError, what);
        loop {
            if let Some(mut frame) = self
                .reader
                .next_frame()
                .map_err(|e| garbled(format!("data plane framing: {e}")))?
            {
                let resp = DataResponse::decode(&mut frame)
                    .map_err(|e| garbled(format!("data plane decode: {e}")))?;
                return Ok((resp, frame));
            }
            if self.reader.read_from(&mut self.stream).map_err(map_net)? == 0 {
                return Err(garbled("peer closed the data connection".into()));
            }
        }
    }

    /// One round-trip: send `req` (+ optional trailing payload), read
    /// one response frame.
    pub fn call(
        &mut self,
        req: &DataRequest,
        payload: Option<&[u8]>,
    ) -> Result<(DataResponse, Bytes), EngineError> {
        let mut body = BytesMut::from(&req.to_bytes()[..]);
        if let Some(p) = payload {
            body.extend_from_slice(p);
        }
        self.stream
            .write_all(&encode_frame(&body))
            .map_err(map_net)?;
        self.recv_response()
    }
}

/// A cached connection plus the logical timestamp of its last use
/// (eviction order).
struct CachedConn {
    conn: DataConn,
    last_used: u64,
}

thread_local! {
    /// Per-worker connection cache, keyed by peer address, with a
    /// monotonically increasing use counter. Each transfer borrows a
    /// cached connection instead of paying a TCP handshake per chunk;
    /// the cache is **bounded** at [`CONN_CACHE_CAP`] entries with
    /// least-recently-used eviction, so a long-lived daemon talking to
    /// a rotating peer set cannot leak one socket per former peer per
    /// worker thread.
    static CONN_CACHE: RefCell<(HashMap<String, CachedConn>, u64)> =
        RefCell::new((HashMap::new(), 0));
}

/// Take this worker's cached connection to `addr`, if any.
fn take_conn(addr: &str) -> Option<DataConn> {
    CONN_CACHE.with(|c| c.borrow_mut().0.remove(addr).map(|e| e.conn))
}

/// Return a healthy connection to the cache, evicting the
/// least-recently-used entry if the bound is hit.
fn store_conn(addr: &str, conn: DataConn) {
    CONN_CACHE.with(|c| {
        let (map, tick) = &mut *c.borrow_mut();
        *tick += 1;
        if !map.contains_key(addr) && map.len() >= CONN_CACHE_CAP {
            if let Some(oldest) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                map.remove(&oldest);
            }
        }
        map.insert(
            addr.to_string(),
            CachedConn {
                conn,
                last_used: *tick,
            },
        );
    });
}

/// Run one request/response round-trip against `addr`, reusing this
/// worker's cached connection. A failure on a *cached* connection may
/// just mean it went stale (peer restarted, idle timeout), so the
/// round-trip is retried once on a fresh connection — safe because
/// every data request is idempotent (`Fetch`/`Store` name absolute
/// ranges; `Stat`/`Prepare`/`Discard` are naturally re-runnable).
fn round_trip(
    addr: &str,
    req: &DataRequest,
    payload: Option<&[u8]>,
) -> Result<(DataResponse, Bytes), EngineError> {
    if let Some(mut conn) = take_conn(addr) {
        if let Ok(result) = conn.call(req, payload) {
            store_conn(addr, conn);
            return Ok(result);
        }
        // Stale: drop it and fall through to a fresh connection.
    }
    let mut conn = DataConn::connect(addr)?;
    let result = conn.call(req, payload)?;
    store_conn(addr, conn);
    Ok(result)
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

fn truncated(side: &str, at: u64) -> EngineError {
    EngineError::new(
        ErrorCode::SystemError,
        format!("{side} source truncated at byte {at}"),
    )
}

/// A round-trip whose only interesting success is `Ok`.
fn expect_ok(addr: &str, req: &DataRequest, payload: Option<&[u8]>) -> Result<(), EngineError> {
    match reply(round_trip(addr, req, payload)?.0)? {
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
    match reply(round_trip(addr, &req, None)?.0)? {
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
                expect_ok(addr, &prepare, None)?;
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
            (Direction::Pull, DataResponse::Data) => {
                if (payload.len() as u64) != len {
                    return Err(truncated("remote", off + payload.len() as u64));
                }
                self.local.write_all_at(&payload, off)?;
                Ok(())
            }
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
                if expect_ok(&self.addr, &req, None).is_ok() {
                    return;
                }
                // The first attempt rode this worker's cached
                // connection (or caught the peer mid-restart and got
                // a transient error / dead listener). Give the peer a
                // beat and replay the Discard once on an explicitly
                // fresh connection — mirroring `transfer_range`'s
                // stale-connection replay — otherwise the `Prepare`d
                // remote partial is stranded forever.
                std::thread::sleep(DISCARD_RETRY_DELAY);
                if let Ok(mut conn) = DataConn::connect(&self.addr) {
                    if let Ok((DataResponse::Ok, _)) = conn.call(&req, None) {
                        store_conn(&self.addr, conn);
                    }
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
    use super::super::transfer::PlanOutcome;
    use super::*;
    use std::net::TcpListener;

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

    /// The per-worker connection cache is bounded: inserting more
    /// peers than the cap evicts the least-recently-stored entry
    /// instead of growing without limit.
    #[test]
    fn conn_cache_is_bounded_with_lru_eviction() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Keep the server end alive so connects succeed.
        let server = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                match stream {
                    Ok(s) => held.push(s),
                    Err(_) => break,
                }
                if held.len() >= CONN_CACHE_CAP + 5 {
                    break;
                }
            }
            held
        });
        for i in 0..CONN_CACHE_CAP + 5 {
            let conn = DataConn::connect(&addr.to_string()).unwrap();
            store_conn(&format!("peer-{i}"), conn);
        }
        let (len, has_first, has_last) = CONN_CACHE.with(|c| {
            let map = &c.borrow().0;
            (
                map.len(),
                map.contains_key("peer-0"),
                map.contains_key(&format!("peer-{}", CONN_CACHE_CAP + 4)),
            )
        });
        assert_eq!(len, CONN_CACHE_CAP, "cache must stay at the cap");
        assert!(!has_first, "oldest entry must be evicted");
        assert!(has_last, "newest entry must survive");
        let _ = server.join();
    }

    /// The buffered push fallback (what every `Store` takes once
    /// `sendfile` has been refused) must put exactly the promised
    /// range on the wire, in order: several pooled-buffer refills plus
    /// a ragged tail, once carrying the frame header + request itself
    /// and once taking over mid-frame (`prefix = &[]`, the hand-over
    /// after a first-call refusal).
    #[test]
    fn buffered_push_fallback_sends_the_exact_range() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Receiver: every frame until the sender hangs up.
        let receiver = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new();
            let mut frames = Vec::new();
            loop {
                while let Some(frame) = reader.next_frame().unwrap() {
                    frames.push(frame);
                }
                if reader.read_from(&mut stream).unwrap() == 0 {
                    return frames;
                }
            }
        });

        let dir = std::env::temp_dir().join(format!("norns-buffered-push-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // The range starts off a buffer boundary inside a larger file,
        // so a wrong offset or an over-read shows up too.
        let offset = 4099u64;
        let len = 3 * REMOTE_POOL_BUF as u64 + 12_345;
        let data: Vec<u8> = (0..offset + len + 777).map(|i| (i % 251) as u8).collect();
        fs::write(dir.join("src.dat"), &data).unwrap();
        let file = File::open(dir.join("src.dat")).unwrap();

        let req = DataRequest::Store {
            nsid: "ds0".into(),
            path: "dst.dat".into(),
            offset,
        };
        let body = req.to_bytes();
        let header = frame_header(body.len() + len as usize);
        let mut conn = DataConn::connect(&addr).unwrap();
        conn.write_payload_buffered(&file, offset, len, &[&header, &body])
            .unwrap();
        write_all_vectored(&mut conn.stream, &[&header, &body]).unwrap();
        conn.write_payload_buffered(&file, offset, len, &[])
            .unwrap();
        drop(conn);

        let frames = receiver.join().unwrap();
        assert_eq!(frames.len(), 2, "one frame per call, nothing left over");
        let want = &data[offset as usize..(offset + len) as usize];
        for mut frame in frames {
            assert_eq!(frame.len(), body.len() + len as usize, "frame length");
            assert_eq!(DataRequest::decode(&mut frame).unwrap(), req);
            assert!(&frame[..] == want, "payload differs from the source range");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a failed push's `cleanup` used to fire its
    /// `Discard` best-effort exactly once; a peer mid-restart that
    /// answers with a transient error (or hangs up) left the
    /// `Prepare`d remote partial stranded forever. The Discard must be
    /// replayed once on a fresh connection, like `transfer_range`
    /// replays ranges.
    #[test]
    fn push_cleanup_retries_discard_against_restarting_peer() {
        use std::sync::atomic::AtomicUsize;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // `partial` models the peer-side `Prepare`d file; `discards`
        // counts Discard attempts. The scripted peer fails every
        // Store (so the push fails), then answers the *first* Discard
        // with a transient error and hangs up — a daemon caught
        // mid-restart — and honours any later one.
        let partial = Arc::new(AtomicBool::new(false));
        let discards = Arc::new(AtomicUsize::new(0));
        {
            let partial = Arc::clone(&partial);
            let discards = Arc::clone(&discards);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { break };
                    let partial = Arc::clone(&partial);
                    let discards = Arc::clone(&discards);
                    std::thread::spawn(move || {
                        let mut reader = FrameReader::new();
                        loop {
                            let mut frame = loop {
                                match reader.next_frame() {
                                    Ok(Some(f)) => break f,
                                    Ok(None) => {}
                                    Err(_) => return,
                                }
                                if !matches!(reader.read_from(&mut stream), Ok(1..)) {
                                    return;
                                }
                            };
                            let Ok(req) = DataRequest::decode(&mut frame) else {
                                return;
                            };
                            let resp = match req {
                                DataRequest::Prepare { .. } => {
                                    partial.store(true, Ordering::SeqCst);
                                    DataResponse::Ok
                                }
                                DataRequest::Store { .. } => DataResponse::Error {
                                    code: ErrorCode::NoSpace,
                                    message: "scripted store failure".into(),
                                },
                                DataRequest::Discard { .. } => {
                                    if discards.fetch_add(1, Ordering::SeqCst) == 0 {
                                        let resp = DataResponse::Error {
                                            code: ErrorCode::SystemError,
                                            message: "daemon restarting".into(),
                                        };
                                        let _ = stream.write_all(&encode_frame(&resp.to_bytes()));
                                        return; // hang up
                                    }
                                    partial.store(false, Ordering::SeqCst);
                                    DataResponse::Ok
                                }
                                _ => DataResponse::Error {
                                    code: ErrorCode::BadArgs,
                                    message: "unexpected request".into(),
                                },
                            };
                            if stream.write_all(&encode_frame(&resp.to_bytes())).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
        }

        let dir = std::env::temp_dir().join(format!("norns-discard-retry-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let src = dir.join("src.dat");
        fs::write(&src, vec![3u8; 4096]).unwrap();

        let plan = RemoteTransfer::plan(
            9,
            Direction::Push,
            &addr,
            "ds0",
            "dst.dat",
            &src,
            1 << 20,
            1,
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        assert!(partial.load(Ordering::SeqCst), "Prepare must have landed");
        while !plan.run_unit() {}
        let outcome = plan.finalize();
        assert!(
            matches!(outcome, PlanOutcome::Failed(..)),
            "scripted push must fail"
        );
        assert_eq!(
            discards.load(Ordering::SeqCst),
            2,
            "cleanup must replay the Discard once on a fresh connection"
        );
        assert!(
            !partial.load(Ordering::SeqCst),
            "the Prepare'd remote partial must be gone after cleanup"
        );
    }
}
