//! The client end of one data-plane connection, the hold a transfer
//! has on it from its plan to its end ([`HeldConn`], with the one rule
//! for a connection that went stale), the per-worker cache that keeps
//! it open between transfers, and the three things both ends of a
//! connection do the same way: tune the socket ([`tune`]), put a file
//! range on it ([`send_file_range`]) and land a payload from it in a
//! file ([`land_payload`]).
//!
//! A [`DataConn`] puts a request on the wire one way — frame header +
//! request in a single write, then (for `Store`) the payload — and
//! reads responses back in request order, so a transfer can put a
//! whole unit's ranges in flight. A payload travels disk→socket via
//! `sendfile(2)` whichever end sends it; a file pair the kernel
//! refuses before any byte moved degrades *for that range* to a
//! `pread` into the thread's pooled buffer, the same rule `copy_range`
//! follows for `copy_file_range` (a long local file on ext4 maps its
//! units instead, `transfer.rs::SourceMap`; a payload has no mapped
//! path). The receiving end copies it once:
//! `splice(2)` moves it socket → this thread's pipe → page cache, and
//! a pair the kernel refuses before any byte landed degrades the same
//! way, to `read`s into the pooled buffer.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::fs::FileExt;
use std::time::Duration;

use bytes::BytesMut;

use norns_proto::{push_frame, DataRequest, DataResponse, ErrorCode, FrameReader};

use super::super::error::EngineError;
use super::super::transfer::{read_full_at, with_pool_buf, POOL_BUF};
use super::truncated;

/// Bound on establishing a data-plane connection: an unreachable peer
/// must fail the task, not hang a worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on any single data-plane read/write. Generous — one bounded
/// range, not a whole file, travels per syscall. On the serving end it
/// is also how long a handler waits on an idle peer before closing the
/// connection; the peer's next transfer then finds its cached
/// connection stale and replays on a fresh one.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Bound on this worker's connection cache. Long-lived daemons see
/// peers come and go; without a cap every peer ever spoken to would
/// pin one socket per worker thread forever.
pub(super) const CONN_CACHE_CAP: usize = 16;

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

/// The one place a data-plane socket is tuned, for the connecting and
/// the accepted end alike. Both ends answer small frames the other is
/// blocked on — a `Fetch` or the `Ok` behind a `Store` — so Nagle only
/// adds latency: left on at the accepting end, the last `Ok` of a
/// unit sat in the kernel until the peer's delayed ACK (40 ms) let
/// it out. Best-effort: a socket that refuses an option still works.
pub(super) fn tune(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
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

/// Errors that mean "this pair can't use `sendfile` / `splice`, take
/// the buffered path" rather than "the transfer failed".
#[cfg(target_os = "linux")]
fn wants_fallback(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput
    )
}

/// Put `len` bytes of `file` at `offset` on the stream, right behind a
/// frame header that promised them: a `Store`'s payload on the pushing
/// side, a `Data`'s on the serving one. They travel disk→socket via
/// `sendfile(2)`; a pair the kernel refuses before any byte moved
/// takes the buffered path for this range. A source that comes up
/// short (shrank under the transfer) is an error: the frame length is
/// already committed.
pub(super) fn send_file_range(
    stream: &mut TcpStream,
    file: &File,
    offset: u64,
    len: u64,
) -> Result<(), EngineError> {
    let mut sent = 0u64;
    #[cfg(target_os = "linux")]
    while sent < len {
        let want = (len - sent).min(1 << 30) as usize;
        match sendfile_once(stream, file, offset + sent, want) {
            Ok(0) => return Err(truncated("local", offset + sent)),
            Ok(n) => sent += n as u64,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Fall back only if nothing moved yet: a mid-range
            // refusal is a real error, not an unsupported pair.
            Err(e) if sent == 0 && wants_fallback(&e) => break,
            Err(e) => return Err(map_net(e)),
        }
    }
    if sent < len {
        write_payload_buffered(stream, file, offset + sent, len - sent)?;
    }
    Ok(())
}

/// Buffered path behind a refused `sendfile`: `pread` the payload
/// through this thread's pooled buffer onto the stream. A short read
/// is an error — the header already promised `len` payload bytes.
fn write_payload_buffered(
    stream: &mut TcpStream,
    file: &File,
    mut offset: u64,
    len: u64,
) -> Result<(), EngineError> {
    with_pool_buf(len, |buf| {
        let mut remaining = len;
        while remaining > 0 {
            let step = remaining.min(buf.len() as u64) as usize;
            let filled = read_full_at(file, &mut buf[..step], offset)?;
            if filled < step {
                return Err(truncated("local", offset + filled as u64));
            }
            stream.write_all(&buf[..step]).map_err(map_net)?;
            offset += step as u64;
            remaining -= step as u64;
        }
        Ok(())
    })
}

/// This thread's pipe: the kernel-side buffer a payload crosses between
/// the socket and its file. Both ends close when the thread exits.
#[cfg(target_os = "linux")]
struct Pipe {
    rd: File,
    wr: File,
}

#[cfg(target_os = "linux")]
thread_local! {
    /// Made by the first payload this thread splices; absent while a
    /// range is crossing it, and from one that failed until the next.
    static PIPE: RefCell<Option<Pipe>> = const { RefCell::new(None) };
}

#[cfg(target_os = "linux")]
impl Pipe {
    /// A fresh pipe, grown to [`POOL_BUF`] where the kernel allows it
    /// (an unprivileged process may be held to less; the default 64 KiB
    /// only means more `splice` calls per range).
    fn new() -> io::Result<Pipe> {
        use std::os::unix::io::{AsRawFd, FromRawFd};
        const O_CLOEXEC: std::ffi::c_int = 0o2000000;
        const F_SETPIPE_SZ: std::ffi::c_int = 1031;
        // SAFETY: signatures transcribed from the glibc headers for
        // Linux; `fcntl` is variadic there and `F_SETPIPE_SZ` takes
        // one `int` argument.
        extern "C" {
            fn pipe2(fds: *mut std::ffi::c_int, flags: std::ffi::c_int) -> std::ffi::c_int;
            fn fcntl(fd: std::ffi::c_int, cmd: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        let mut fds = [0 as std::ffi::c_int; 2];
        // SAFETY: `fds` is a live array of the two ints `pipe2` fills.
        if unsafe { pipe2(fds.as_mut_ptr(), O_CLOEXEC) } < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `pipe2` succeeded, so both are open fds nobody else
        // owns; each `File` closes its own exactly once.
        let pipe = unsafe {
            Pipe {
                rd: File::from_raw_fd(fds[0]),
                wr: File::from_raw_fd(fds[1]),
            }
        };
        // SAFETY: the fd is live (borrowed from `pipe.wr`) and the
        // command takes an int. Best-effort: a refusal keeps the size.
        let _ = unsafe {
            fcntl(
                pipe.wr.as_raw_fd(),
                F_SETPIPE_SZ,
                POOL_BUF as std::ffi::c_int,
            )
        };
        Ok(pipe)
    }
}

/// One `splice(2)`: up to `len` bytes from `from` to `to`, one of them
/// a pipe. `to_offset` is where a regular file takes them (its cursor
/// is never touched); `None` for a pipe or a socket.
#[cfg(target_os = "linux")]
fn splice_once(
    from: &impl std::os::unix::io::AsRawFd,
    to: &impl std::os::unix::io::AsRawFd,
    to_offset: Option<u64>,
    len: usize,
) -> io::Result<usize> {
    // Declared directly (glibc), like `sendfile` above.
    // SAFETY: signature transcribed from the glibc header; `loff_t` is
    // i64 on every Linux target this repo builds for.
    extern "C" {
        fn splice(
            fd_in: std::ffi::c_int,
            off_in: *mut i64,
            fd_out: std::ffi::c_int,
            off_out: *mut i64,
            len: usize,
            flags: std::ffi::c_uint,
        ) -> isize;
    }
    let mut off = to_offset.map(|o| o as i64);
    let off_out = off.as_mut().map_or(std::ptr::null_mut(), |o| o as *mut i64);
    // SAFETY: both fds are live for the duration of the call (borrowed
    // from their owners); `off_out` is null or points at `off`, a live
    // stack i64 the kernel updates in place.
    let n = unsafe {
        splice(
            from.as_raw_fd(),
            std::ptr::null_mut(),
            to.as_raw_fd(),
            off_out,
            len,
            0,
        )
    };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Move the payload bytes still on `stream` into `file` at `offset`
/// through this thread's pipe: socket → pipe links the received pages,
/// pipe → file is the one copy. Returns the bytes landed, and tells
/// `reader` of every byte that left the socket, landed or not. Short
/// of the payload without an error only when the kernel refused the
/// pair (or there is no pipe to be had) before any byte landed — the
/// bytes a refusing file left in the pipe are read out of it and
/// written, the rest is the caller's to move.
#[cfg(target_os = "linux")]
fn splice_payload(
    reader: &mut FrameReader,
    stream: &TcpStream,
    file: &File,
    offset: u64,
) -> io::Result<u64> {
    let Some(pipe) = PIPE.take().or_else(|| Pipe::new().ok()) else {
        return Ok(0);
    };
    let mut landed = 0u64;
    'range: while reader.untaken() > 0 {
        let filled = match splice_once(stream, &pipe.wr, None, reader.untaken().min(POOL_BUF)) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if landed == 0 && wants_fallback(&e) => break,
            Err(e) => return Err(e),
        };
        reader.took_off_stream(filled);
        let mut in_pipe = filled;
        while in_pipe > 0 {
            match splice_once(&pipe.rd, file, Some(offset + landed), in_pipe) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    in_pipe -= n;
                    landed += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if landed == 0 && wants_fallback(&e) => {
                    with_pool_buf(in_pipe as u64, |buf| {
                        (&pipe.rd).read_exact(buf)?;
                        file.write_all_at(buf, offset)
                    })?;
                    landed += in_pipe as u64;
                    break 'range;
                }
                Err(e) => return Err(e),
            }
        }
    }
    // Every early return above drops the pipe with whatever a failed
    // write stranded in it; only an empty one is kept.
    PIPE.set(Some(pipe));
    Ok(landed)
}

/// Land the payload behind the message `reader` last popped — a
/// `Store`'s on the serving side, a `Data`'s on the pulling one — in
/// `file` at `offset`. The bytes that arrived with the message are
/// written from the reader's buffer; the rest never enters userspace
/// ([`splice_payload`]) unless the kernel refuses the pair, in which
/// case this range is read through the thread's pooled buffer. Whatever
/// the outcome, `reader` knows exactly what left the stream, so the
/// rest of a payload that failed half way is skipped and the connection
/// stays frame-aligned.
pub(super) fn land_payload(
    reader: &mut FrameReader,
    stream: &mut TcpStream,
    file: &File,
    mut offset: u64,
) -> io::Result<()> {
    offset += reader.take_buffered(|prefix| {
        file.write_all_at(prefix, offset)
            .map(|()| prefix.len() as u64)
    })?;
    if reader.untaken() == 0 {
        // A small frame, buffered whole: no pipe is made for it.
        return Ok(());
    }
    #[cfg(target_os = "linux")]
    {
        offset += splice_payload(reader, stream, file, offset)?;
    }
    with_pool_buf(reader.untaken() as u64, |buf| {
        while reader.untaken() > 0 {
            let want = reader.untaken().min(buf.len());
            let n = match stream.read(&mut buf[..want]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            reader.took_off_stream(n);
            file.write_all_at(&buf[..n], offset)?;
            offset += n as u64;
        }
        Ok(())
    })
}

/// One framed connection to a peer's data plane, with split send and
/// receive halves so a transfer can put a unit's range requests in
/// flight; a single round-trip ([`DataConn::call`]) is one of each.
pub(crate) struct DataConn {
    pub(super) stream: TcpStream,
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
        tune(&stream);
        Ok(DataConn {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Put one request on the wire — frame header + request in a
    /// single write — promising `payload_len` payload bytes behind it.
    fn send_head(&mut self, req: &DataRequest, payload_len: usize) -> Result<(), EngineError> {
        let mut head = BytesMut::new();
        push_frame(&mut head, None, req, payload_len, |_| ());
        self.stream.write_all(&head).map_err(map_net)
    }

    /// Send one request frame with no trailing payload (`Stat`,
    /// `Fetch`, `Prepare`, `Discard`).
    pub(super) fn send_request(&mut self, req: &DataRequest) -> Result<(), EngineError> {
        self.send_head(req, 0)
    }

    /// Send one `Store` frame whose payload is `len` bytes of `file`
    /// at `offset`.
    pub(super) fn send_store(
        &mut self,
        req: &DataRequest,
        file: &File,
        offset: u64,
        len: u64,
    ) -> Result<(), EngineError> {
        self.send_head(req, len as usize)?;
        send_file_range(&mut self.stream, file, offset, len)
    }

    /// Read one response (blocking, bounded by the stream's read
    /// timeout). Returns it decoded, with the count of payload bytes
    /// behind it: [`DataConn::recv_payload`] puts them in a file, and
    /// a caller that leaves them has them skipped before the next
    /// response, so the connection stays frame-aligned either way.
    pub(super) fn recv_response(&mut self) -> Result<(DataResponse, usize), EngineError> {
        let garbled = |what: String| EngineError::new(ErrorCode::SystemError, what);
        loop {
            if let Some(response) = self
                .reader
                .next_message()
                .map_err(|e| garbled(format!("data plane framing: {e}")))?
            {
                return Ok(response);
            }
            if self.reader.read_from(&mut self.stream).map_err(map_net)? == 0 {
                return Err(garbled("peer closed the data connection".into()));
            }
        }
    }

    /// Land the payload behind the `Data` just received in `file` at
    /// `offset`.
    pub(super) fn recv_payload(&mut self, file: &File, offset: u64) -> Result<(), EngineError> {
        land_payload(&mut self.reader, &mut self.stream, file, offset).map_err(map_net)
    }

    /// One round-trip (`Stat`, `Prepare`, `Discard`): send `req`, read
    /// its response (none of the three carries a payload back).
    pub(super) fn call(&mut self, req: &DataRequest) -> Result<DataResponse, EngineError> {
        self.send_request(req)?;
        Ok(self.recv_response()?.0)
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
    /// monotonically increasing use counter. A transfer takes the
    /// connection of the worker that plans it, instead of paying a TCP
    /// handshake per transfer, and leaves it with the worker that ends
    /// it ([`HeldConn`]); the cache is **bounded** at
    /// [`CONN_CACHE_CAP`] entries with least-recently-used eviction, so
    /// a long-lived daemon talking to a rotating peer set cannot leak
    /// one socket per former peer per worker thread.
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

/// The connection to `addr` one transfer holds from its plan to its
/// end: the planning worker's cached one, or one opened by the first
/// exchange that finds none. Every exchange of the transfer rides it —
/// one connection, one handler thread on the peer, whichever workers
/// run the transfer's units — and it goes to the cache of the thread
/// that drops the transfer.
pub(super) struct HeldConn {
    addr: String,
    conn: Option<DataConn>,
}

impl HeldConn {
    pub fn acquire(addr: &str) -> HeldConn {
        HeldConn {
            addr: addr.to_string(),
            conn: take_conn(addr),
        }
    }

    /// Run `exchange` over the held connection. An `Err` from it means
    /// the *connection* failed, as every `Err` of a [`DataConn`] call
    /// does; whatever the peer answered, refusals included, is its
    /// `Ok` value, beside whether the connection is still in step
    /// (every response it owes has been read) and may be kept.
    ///
    /// The one retry rule of the data plane's client: a connection
    /// this call did not open may just have gone stale (peer
    /// restarted, idle timeout), so its failure reopens it, once, and
    /// runs `exchange` again — which must replay only what it has not
    /// seen acknowledged. Safe because every data request is
    /// idempotent: `Fetch`/`Store` name absolute ranges,
    /// `Stat`/`Prepare`/`Discard` are naturally re-runnable.
    pub fn exchange<T>(
        &mut self,
        mut exchange: impl FnMut(&mut DataConn) -> Result<(T, bool), EngineError>,
    ) -> Result<T, EngineError> {
        let (mut conn, mut may_reopen) = match self.conn.take() {
            Some(conn) => (conn, true),
            None => (DataConn::connect(&self.addr)?, false),
        };
        loop {
            match exchange(&mut conn) {
                Ok((answer, in_step)) => {
                    self.conn = in_step.then_some(conn);
                    return Ok(answer);
                }
                Err(_) if may_reopen => {
                    may_reopen = false;
                    conn = DataConn::connect(&self.addr)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for HeldConn {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            store_conn(&self.addr, conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::net::TcpListener;

    use norns_proto::Wire;

    use crate::engine::tests::{temp_root, TempRoot};
    use crate::engine::transfer::tests::pool_buf_len;

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

    /// The buffered push fallback (what a `Store` takes when
    /// `sendfile` refuses its file pair) must put exactly the promised
    /// range on the wire, in order, behind the frame header its caller
    /// has already committed: several pooled-buffer
    /// refills plus a ragged tail, twice over so a byte left over or
    /// missing from the first frame garbles the second.
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

        let dir = temp_root("buffered-push");
        // The range starts off a buffer boundary inside a larger file,
        // so a wrong offset or an over-read shows up too.
        let offset = 4099u64;
        let len = 3 * POOL_BUF as u64 + 12_345;
        let data: Vec<u8> = (0..offset + len + 777).map(|i| (i % 251) as u8).collect();
        fs::write(dir.join("src.dat"), &data).unwrap();
        let file = File::open(dir.join("src.dat")).unwrap();

        let req = DataRequest::Store {
            nsid: "ds0".into(),
            path: "dst.dat".into(),
            offset,
        };
        let body = req.to_bytes();
        let mut conn = DataConn::connect(&addr).unwrap();
        for _ in 0..2 {
            conn.send_head(&req, len as usize).unwrap();
            write_payload_buffered(&mut conn.stream, &file, offset, len).unwrap();
        }
        drop(conn);

        let frames = receiver.join().unwrap();
        assert_eq!(frames.len(), 2, "one frame per call, nothing left over");
        let want = &data[offset as usize..(offset + len) as usize];
        for mut frame in frames {
            assert_eq!(frame.len(), body.len() + len as usize, "frame length");
            assert_eq!(DataRequest::decode(&mut frame).unwrap(), req);
            assert!(&frame[..] == want, "payload differs from the source range");
        }
    }

    /// A source that shrank under the transfer must fail the range,
    /// not pad or silently shorten a frame whose header is committed.
    #[test]
    fn buffered_push_fallback_refuses_a_short_source() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let dir = temp_root("short-push");
        fs::write(dir.join("src.dat"), vec![9u8; 1000]).unwrap();
        let file = File::open(dir.join("src.dat")).unwrap();
        let mut conn = DataConn::connect(&addr).unwrap();
        let err = write_payload_buffered(&mut conn.stream, &file, 0, 1001).unwrap_err();
        assert_eq!(err.code, ErrorCode::SystemError);
        assert!(err.message.contains("truncated at byte 1000"), "{err}");
    }

    /// Position-dependent bytes, different per `salt`, so a stale, a
    /// missing or a misplaced byte shows.
    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + salt) % 251) as u8).collect()
    }

    /// The receiving end of a loopback connection as a handler or a
    /// pulling worker holds it — tuned stream, reader — and the bare
    /// sending end. The test thread is the receiver, so the thread's
    /// pipe and pooled buffer are its own to look at.
    struct Landing {
        rx: TcpStream,
        reader: FrameReader,
        dir: TempRoot,
    }

    fn landing(tag: &str) -> (Landing, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        tx.set_nodelay(true).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tune(&rx);
        let dir = temp_root(&format!("landing-{tag}"));
        let landing = Landing {
            rx,
            reader: FrameReader::new(),
            dir,
        };
        (landing, tx)
    }

    fn store_at(offset: u64) -> DataRequest {
        DataRequest::Store {
            nsid: "ds0".into(),
            path: "dst.dat".into(),
            offset,
        }
    }

    /// The header + message of a `Store` promising `len` payload bytes.
    fn head(offset: u64, len: usize) -> BytesMut {
        let mut head = BytesMut::new();
        push_frame(&mut head, None, &store_at(offset), len, |_| ());
        head
    }

    impl Landing {
        /// Read until the next message pops; its payload length.
        fn pop(&mut self) -> (DataRequest, usize) {
            loop {
                if let Some(popped) = self.reader.next_message().unwrap() {
                    return popped;
                }
                assert!(
                    self.reader.read_from(&mut self.rx).unwrap() > 0,
                    "peer hung up"
                );
            }
        }

        /// One `Store` from `tx` into `file`: the header goes out with
        /// the payload's first `with_head` bytes in one write and is
        /// popped before the rest is sent — `with_head == 0` is a
        /// payload wholly on the stream, anything else one with a
        /// buffered prefix. Returns what `land_payload` said.
        fn land(
            &mut self,
            tx: &mut TcpStream,
            file: &File,
            offset: u64,
            payload: &[u8],
            with_head: usize,
        ) -> io::Result<()> {
            let mut first = head(offset, payload.len());
            first.extend_from_slice(&payload[..with_head]);
            tx.write_all(&first).unwrap();
            assert_eq!(self.pop(), (store_at(offset), payload.len()));
            assert_eq!(self.reader.buffered() > 0, with_head > 0);
            std::thread::scope(|scope| {
                scope.spawn(|| tx.write_all(&payload[with_head..]).unwrap());
                land_payload(&mut self.reader, &mut self.rx, file, offset)
            })
        }
    }

    fn pipe_is_kept() -> bool {
        PIPE.with(|pipe| pipe.borrow().is_some())
    }

    /// The splice path lands exactly the promised range: larger than
    /// the pipe, ragged tail, an offset off every page boundary, with
    /// and without a prefix that arrived with the header — and leaves
    /// the bytes around the range alone. None of it crosses userspace:
    /// the thread's pooled buffer is never grown.
    #[test]
    fn a_spliced_payload_lands_byte_exact_without_entering_userspace() {
        let (mut landing, mut tx) = landing("splice");
        let path = landing.dir.join("dst.dat");
        let size = 5 * POOL_BUF;
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        for (turn, (offset, len, with_head)) in [
            (4099u64, 3 * POOL_BUF + 12_345, 0usize),
            (0, 2 * POOL_BUF + 1, 10_000),
            // A frame shorter than one read is popped whole.
            (777, 4096, 4096),
            (POOL_BUF as u64 + 13, 70_001, 70_001),
            (5, 0, 0),
        ]
        .into_iter()
        .enumerate()
        {
            let before = vec![0xEEu8; size];
            file.write_all_at(&before, 0).unwrap();
            let payload = pattern(len, turn);
            landing
                .land(&mut tx, &file, offset, &payload, with_head)
                .unwrap();
            let mut want = before;
            want[offset as usize..offset as usize + len].copy_from_slice(&payload);
            assert!(fs::read(&path).unwrap() == want, "turn {turn} garbled");
            assert_eq!(landing.reader.untaken(), 0);
        }
        assert_eq!(
            pool_buf_len(),
            0,
            "a payload went through the pooled buffer"
        );
        assert!(pipe_is_kept(), "a clean range keeps the thread's pipe");
    }

    /// A destination the kernel will not splice into — `O_APPEND`
    /// refuses with `EINVAL` before any byte lands — takes the pooled
    /// buffer for that range, the pipe's first fill included, and lands
    /// the same bytes. (`pwrite` on an `O_APPEND` file appends whatever
    /// the offset, so each range goes behind the last.)
    #[test]
    fn a_refused_splice_falls_back_to_the_pooled_buffer_for_that_range() {
        let (mut landing, mut tx) = landing("fallback");
        let path = landing.dir.join("dst.dat");
        let file = File::options()
            .append(true)
            .create(true)
            .open(&path)
            .unwrap();
        let mut want = Vec::new();
        for (turn, (len, with_head)) in [(2 * POOL_BUF + 777, 0usize), (POOL_BUF + 3, 5_000)]
            .into_iter()
            .enumerate()
        {
            let payload = pattern(len, turn);
            landing
                .land(&mut tx, &file, want.len() as u64, &payload, with_head)
                .unwrap();
            want.extend_from_slice(&payload);
            assert!(fs::read(&path).unwrap() == want, "turn {turn} garbled");
        }
        assert!(pool_buf_len() > 0, "the fallback reads through the pool");
        assert!(
            pipe_is_kept(),
            "a refusal leaves the pipe empty: it is kept"
        );
    }

    /// A file write that fails once the socket's bytes are in the pipe
    /// strands them there. The pipe is dropped with them, the reader
    /// knows exactly what left the socket — the rest of the payload is
    /// skipped — and the next range on the same connection and thread
    /// lands byte-exact: no stale byte ahead of it, no misaligned frame.
    #[test]
    fn a_failed_file_write_costs_the_pipe_not_the_connection() {
        let (mut landing, mut tx) = landing("hygiene");
        let path = landing.dir.join("dst.dat");
        fs::write(&path, b"").unwrap();
        let len = 2 * POOL_BUF + 99;

        // An fd that refuses the write: opened read-only.
        let read_only = File::open(&path).unwrap();
        let refused = landing.land(&mut tx, &read_only, 0, &pattern(len, 1), 0);
        assert!(refused.is_err(), "a read-only fd took a payload");
        assert!(!pipe_is_kept(), "the pipe holds stranded bytes");
        let left = landing.reader.untaken();
        assert!(left > 0 && left < len, "{left} of {len} untaken");

        let file = File::options().write(true).open(&path).unwrap();
        let payload = pattern(len, 2);
        landing.land(&mut tx, &file, 0, &payload, 0).unwrap();
        assert!(fs::read(&path).unwrap() == payload);
        assert!(pipe_is_kept(), "a fresh pipe took its place");
    }

    /// `splice` on a socket honours `SO_RCVTIMEO`: a peer that promises
    /// a payload and stalls — before its first byte, or half way —
    /// fails the range with `Timeout` at the stream's read timeout.
    #[test]
    fn a_peer_that_stalls_inside_a_payload_times_the_range_out() {
        let (landing, mut tx) = landing("stall");
        let Landing { rx, reader, dir } = landing;
        let mut conn = DataConn { stream: rx, reader };
        let timeout = Duration::from_millis(100);
        conn.stream.set_read_timeout(Some(timeout)).unwrap();
        let file = File::create(dir.join("dst.dat")).unwrap();
        let len = POOL_BUF;
        for sent in [0, len / 3] {
            let mut frame = BytesMut::new();
            push_frame(&mut frame, None, &DataResponse::Data, len, |_| ());
            tx.write_all(&frame).unwrap();
            assert_eq!(conn.recv_response().unwrap(), (DataResponse::Data, len));
            tx.write_all(&pattern(sent, 3)).unwrap();
            let started = std::time::Instant::now();
            let err = conn.recv_payload(&file, 0).unwrap_err();
            assert_eq!(err.code, ErrorCode::Timeout, "{err}");
            assert!(started.elapsed() >= timeout);
            assert!(started.elapsed() < 20 * timeout, "{:?}", started.elapsed());
            assert_eq!(conn.reader.untaken(), len - sent);
            // The peer delivers after all: the rest is skipped and the
            // next response pops aligned.
            tx.write_all(&pattern(len - sent, 4)).unwrap();
        }
        let mut frame = BytesMut::new();
        push_frame(&mut frame, None, &DataResponse::Ok, 0, |_| ());
        tx.write_all(&frame).unwrap();
        assert_eq!(conn.recv_response().unwrap(), (DataResponse::Ok, 0));
    }

    /// A peer that hangs up inside a payload fails the range.
    #[test]
    fn a_peer_that_hangs_up_inside_a_payload_fails_the_range() {
        let (mut landing, mut tx) = landing("eof");
        let file = File::create(landing.dir.join("dst.dat")).unwrap();
        tx.write_all(&head(0, 200_000)).unwrap();
        tx.write_all(&pattern(150_000, 5)).unwrap();
        drop(tx);
        assert_eq!(landing.pop().1, 200_000);
        let cut = land_payload(&mut landing.reader, &mut landing.rx, &file, 0);
        assert_eq!(cut.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(landing.reader.untaken(), 50_000);
    }
}
