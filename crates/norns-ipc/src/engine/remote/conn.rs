//! The client end of one data-plane connection, the per-worker cache
//! that keeps it open between transfers, and the three things both
//! ends of a connection do the same way: tune the socket ([`tune`]),
//! put a file range on it ([`send_file_range`]) and land a payload
//! from it in a file ([`land_payload`]).
//!
//! A [`DataConn`] puts a request on the wire one way — frame header +
//! request in a single write, then (for `Store`) the payload — and
//! reads responses back in request order, so a transfer can keep a
//! window of ranges in flight. A payload travels disk→socket via
//! `sendfile(2)` whichever end sends it; a file pair the kernel
//! refuses before any byte moved degrades *for that range* to a
//! `pread` into the thread's pooled buffer, the same rule `copy_range`
//! follows for `copy_file_range`. The receiving end copies it twice:
//! socket → pooled buffer → page cache.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::fs::FileExt;
use std::time::Duration;

use bytes::BytesMut;

use norns_proto::{push_frame, DataRequest, DataResponse, ErrorCode, FrameReader};

use super::super::error::EngineError;
use super::super::transfer::{read_full_at, with_pool_buf};
use super::truncated;

/// Bound on establishing a data-plane connection: an unreachable peer
/// must fail the task, not hang a worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on any single data-plane read/write. Generous — one bounded
/// range, not a whole file, travels per syscall. On the serving end it
/// is also how long a handler waits on an idle peer before closing the
/// connection; the peer's next request then finds its cached
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
/// window sat in the kernel until the peer's delayed ACK (40 ms) let
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

/// Errors that mean "this pair can't use `sendfile`, take the buffered
/// path" rather than "the transfer failed".
#[cfg(target_os = "linux")]
fn sendfile_wants_fallback(e: &io::Error) -> bool {
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
            Err(e) if sent == 0 && sendfile_wants_fallback(&e) => break,
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

/// Land the `len` payload bytes behind the message `reader` last
/// popped — a `Store`'s on the serving side, a `Data`'s on the pulling
/// one — in `file` at `offset`: each piece goes from the socket into
/// this thread's pooled buffer and from there into the page cache, and
/// the kernel queues the next one meanwhile.
pub(super) fn land_payload(
    reader: &mut FrameReader,
    stream: &mut TcpStream,
    len: usize,
    file: &File,
    mut offset: u64,
) -> io::Result<()> {
    with_pool_buf(len as u64, |buf| {
        reader.take_payload(stream, buf, |piece| {
            file.write_all_at(piece, offset)?;
            offset += piece.len() as u64;
            Ok(())
        })
    })
}

/// One framed connection to a peer's data plane, with split send and
/// receive halves so transfers can keep a window of range requests in
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

    /// Land the `len` payload bytes behind the `Data` just received in
    /// `file` at `offset`.
    pub(super) fn recv_payload(
        &mut self,
        len: usize,
        file: &File,
        offset: u64,
    ) -> Result<(), EngineError> {
        land_payload(&mut self.reader, &mut self.stream, len, file, offset).map_err(map_net)
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
pub(super) fn take_conn(addr: &str) -> Option<DataConn> {
    CONN_CACHE.with(|c| c.borrow_mut().0.remove(addr).map(|e| e.conn))
}

/// Return a healthy connection to the cache, evicting the
/// least-recently-used entry if the bound is hit.
pub(super) fn store_conn(addr: &str, conn: DataConn) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::net::TcpListener;

    use norns_proto::Wire;

    use crate::engine::transfer::POOL_BUF;

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

        let dir = std::env::temp_dir().join(format!("norns-buffered-push-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
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
        let _ = fs::remove_dir_all(&dir);
    }

    /// A source that shrank under the transfer must fail the range,
    /// not pad or silently shorten a frame whose header is committed.
    #[test]
    fn buffered_push_fallback_refuses_a_short_source() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let dir = std::env::temp_dir().join(format!("norns-short-push-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("src.dat"), vec![9u8; 1000]).unwrap();
        let file = File::open(dir.join("src.dat")).unwrap();
        let mut conn = DataConn::connect(&addr).unwrap();
        let err = write_payload_buffered(&mut conn.stream, &file, 0, 1001).unwrap_err();
        assert_eq!(err.code, ErrorCode::SystemError);
        assert!(err.message.contains("truncated at byte 1000"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
