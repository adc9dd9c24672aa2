//! The server half of the data plane: answers a peer daemon's
//! [`DataRequest`]s against this daemon's dataspaces.
//!
//! Each accepted connection gets a dedicated **blocking** handler
//! thread — on purpose (README § Data-plane architecture): `Fetch` and
//! `Store` sit in a `sendfile` or positioned writes of up to
//! [`MAX_DATA_RANGE`] against whatever tier backs the dataspace, which
//! `epoll` cannot make nonblocking, and peer connections are few,
//! long-lived and answered strictly in order. The price is a shutdown
//! path of its own: [`DataServer::close_and_join`] force-closes every
//! live stream and joins every handler.
//!
//! The server knows nothing of listeners or reactors: whoever accepts
//! hands it the `TcpStream`.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::BytesMut;
use parking_lot::Mutex;

use norns_proto::{
    push_frame, DataRequest, DataResponse, ErrorCode, FrameError, FrameReader, MAX_DATA_RANGE,
};

use super::super::error::EngineError;
use super::super::transfer::with_parent;
use super::super::Engine;
use super::conn::{land_payload, send_file_range, tune};

/// One live connection: a clone of its stream (for `shutdown(2)`) and
/// its blocking handler thread (for joining).
struct ConnEntry {
    stream: TcpStream,
    handle: JoinHandle<()>,
}

/// The data-plane server: a handler thread per connection handed to
/// [`DataServer::serve`], all of them registered so shutdown can
/// unblock and join them.
pub(crate) struct DataServer {
    engine: Arc<Engine>,
    next_conn: AtomicU64,
    /// Live connections, keyed by an id each handler uses to drop its
    /// own entry on the way out.
    conns: Mutex<HashMap<u64, ConnEntry>>,
}

impl DataServer {
    pub fn new(engine: Arc<Engine>) -> Arc<DataServer> {
        Arc::new(DataServer {
            engine,
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        })
    }

    /// Serve a freshly accepted peer connection on a blocking handler
    /// thread of its own. The registry lock is held from before the
    /// spawn until the entry is in, so a handler that finishes at once
    /// still finds its entry to remove, and every live handler is one
    /// `close_and_join` can reach. A connection that cannot be
    /// registered (no fd left for the clone, no thread left for the
    /// handler) is refused and counted as an accept error.
    pub fn serve(self: &Arc<Self>, stream: TcpStream) {
        let _ = stream.set_nonblocking(false);
        tune(&stream);
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let mut conns = self.conns.lock();
        let spawned = stream.try_clone().and_then(|clone| {
            let server = Arc::clone(self);
            let handle = std::thread::Builder::new().spawn(move || {
                server.serve_connection(stream);
                server.conns.lock().remove(&id);
            })?;
            Ok(ConnEntry {
                stream: clone,
                handle,
            })
        });
        match spawned {
            Ok(entry) => {
                conns.insert(id, entry);
            }
            Err(_) => self.engine.note_accept_error(),
        }
    }

    /// Unblock every handler parked in `read()` and join its thread.
    /// The caller has stopped accepting first, so one pass drains all.
    /// It never runs on a handler thread — no data-plane verb reaches
    /// daemon shutdown — so no join here can be a self-join.
    pub fn close_and_join(&self) {
        let drained: Vec<ConnEntry> = self.conns.lock().drain().map(|(_, e)| e).collect();
        for entry in &drained {
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
        for entry in drained {
            let _ = entry.handle.join();
        }
    }

    /// The framed request/response loop of one connection. Responses
    /// to a batch of pipelined requests are queued and written back
    /// once the batch is decoded — one `write` per read batch in the
    /// common case, so a peer keeping a window of requests in flight
    /// is never stalled by per-response flushes. Only a `Data` cuts
    /// the queue short: its payload follows its header out at once.
    /// Returns when the peer hangs up, violates the protocol, or
    /// `close_and_join` shuts the stream down.
    fn serve_connection(&self, stream: TcpStream) {
        let mut conn = PeerConn {
            stream,
            reader: FrameReader::new(),
            out: BytesMut::new(),
        };
        while matches!(conn.reader.read_from(&mut conn.stream), Ok(1..)) {
            loop {
                let served = match conn.reader.next_message() {
                    Ok(Some((request, payload))) => {
                        handle_data(&self.engine, &mut conn, request, payload)
                    }
                    Ok(None) => break,
                    Err(FrameError::Wire(e)) => {
                        Err(EngineError::new(ErrorCode::BadArgs, e.to_string()))
                    }
                    Err(_) => return, // protocol violation: drop the client
                };
                match served {
                    Ok(None) => {}
                    // The queued `Data` header promised this range
                    // behind it, so nothing can be answered in its
                    // place any more: a range that does not go out
                    // whole takes the connection with it.
                    Ok(Some((file, offset, len))) => {
                        let sent = conn.flush()
                            && send_file_range(&mut conn.stream, &file, offset, len).is_ok();
                        if !sent {
                            return;
                        }
                    }
                    // The peer gets an `Error` response in this
                    // request's slot and the connection stays open:
                    // the reader skips whatever payload the refusal
                    // left untaken.
                    Err(e) => push_response(&mut conn.out, &e.into()),
                }
            }
            if !conn.flush() {
                return;
            }
        }
    }
}

/// One peer connection as its handler thread holds it.
struct PeerConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Responses not yet written; payloads never enter it, so it stays
    /// a few bytes per request of the batch being answered.
    out: BytesMut,
}

impl PeerConn {
    /// Write the queued responses out; `false` once the peer is gone.
    fn flush(&mut self) -> bool {
        let written = self.stream.write_all(&self.out).is_ok();
        self.out.clear();
        written
    }
}

/// Append one framed response with no payload.
fn push_response(out: &mut BytesMut, response: &DataResponse) {
    push_frame(out, None, response, 0, |_| ());
}

/// Serve one data-plane request from a peer daemon, whose frame
/// carries `payload` bytes behind it, appending its one framed
/// response to `conn.out`. A `Data` response is only its header: the
/// file range returned with it is the payload that header promises,
/// for the caller to send right behind it. Every path goes through the
/// engine's dataspace containment checks — a remote peer gets no more
/// filesystem reach than a local client. On `Err` nothing was appended
/// and the caller answers with the error instead.
fn handle_data(
    engine: &Engine,
    conn: &mut PeerConn,
    request: DataRequest,
    payload: usize,
) -> Result<Option<(File, u64, u64)>, EngineError> {
    let over_cap = |what: &str, len: u64| {
        EngineError::new(
            ErrorCode::BadArgs,
            format!("{what} of {len} bytes exceeds the {MAX_DATA_RANGE}-byte range cap"),
        )
    };
    let response = match request {
        DataRequest::Stat { nsid, path } => {
            let meta = fs::metadata(engine.resolve_local(&nsid, &path)?)?;
            if meta.is_dir() {
                return Err(EngineError::new(
                    ErrorCode::BadArgs,
                    "directory trees cannot be staged remotely",
                ));
            }
            DataResponse::Stat { size: meta.len() }
        }
        DataRequest::Fetch {
            nsid,
            path,
            offset,
            len,
        } => {
            if len > MAX_DATA_RANGE {
                return Err(over_cap("fetch", len));
            }
            let file = File::open(engine.resolve_local(&nsid, &path)?)?;
            let meta = file.metadata()?;
            // A directory opens and has a length too, and would fail
            // only once the header below had promised its bytes.
            if !meta.is_file() {
                return Err(EngineError::new(
                    ErrorCode::SystemError,
                    "only a regular file can be fetched",
                ));
            }
            // A range that crosses end-of-file is answered short, which
            // is how the peer learns the file ended.
            let len = len.min(meta.len().saturating_sub(offset));
            push_frame(
                &mut conn.out,
                None,
                &DataResponse::Data,
                len as usize,
                |_| (),
            );
            return Ok(Some((file, offset, len)));
        }
        DataRequest::Prepare { nsid, path, size } => {
            let local = engine.resolve_local(&nsid, &path)?;
            // A failed preallocation must not leave the empty file
            // behind: the pusher's plan fails on our `Error` before it
            // has a chain, so no `Discard` follows, and the file's
            // existence would fake a staged one.
            if let Err(e) = with_parent(&local, |path| File::create(path))?.set_len(size) {
                let _ = fs::remove_file(&local);
                return Err(e.into());
            }
            DataResponse::Ok
        }
        DataRequest::Store { nsid, path, offset } => {
            if payload as u64 > MAX_DATA_RANGE {
                return Err(over_cap("store", payload as u64));
            }
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(engine.resolve_local(&nsid, &path)?)?;
            land_payload(&mut conn.reader, &mut conn.stream, &file, offset)?;
            DataResponse::Ok
        }
        DataRequest::Discard { nsid, path } => {
            match fs::remove_file(engine.resolve_local(&nsid, &path)?) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => DataResponse::Ok,
            }
        }
    };
    push_response(&mut conn.out, &response);
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::super::conn::DataConn;
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::path::{Path, PathBuf};
    use std::time::{Duration, Instant};

    use norns_proto::{BackendKind, DataspaceDesc, Wire};

    /// Position-dependent bytes so an offset or ordering bug corrupts
    /// the payload.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    /// A server over one dataspace `ds0` and a client connection to
    /// it through a loopback socket — no daemon, no reactor.
    fn served(tag: &str) -> (Arc<DataServer>, DataConn, PathBuf) {
        let mount = std::env::temp_dir().join(format!("norns-server-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&mount);
        fs::create_dir_all(&mount).unwrap();
        let engine = Engine::new(1);
        engine
            .register_dataspace(DataspaceDesc {
                nsid: "ds0".into(),
                kind: BackendKind::PosixFilesystem,
                mount: mount.to_string_lossy().into_owned(),
                quota: 0,
                tracked: false,
            })
            .unwrap();
        let server = DataServer::new(engine);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = DataConn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        server.serve(listener.accept().unwrap().0);
        (server, conn, mount)
    }

    /// The next response, with the payload behind it landed the way a
    /// pull lands it.
    fn recv(conn: &mut DataConn, mount: &Path) -> (DataResponse, Vec<u8>) {
        let (response, _) = conn.recv_response().unwrap();
        let landed = mount.join("landed.tmp");
        conn.recv_payload(&File::create(&landed).unwrap(), 0)
            .unwrap();
        (response, fs::read(landed).unwrap())
    }

    fn store(path: &str, offset: u64) -> DataRequest {
        DataRequest::Store {
            nsid: "ds0".into(),
            path: path.into(),
            offset,
        }
    }

    fn fetch(path: &str, offset: u64, len: u64) -> DataRequest {
        DataRequest::Fetch {
            nsid: "ds0".into(),
            path: path.into(),
            offset,
            len,
        }
    }

    #[test]
    fn prepare_pipelined_stores_then_fetch_back_is_byte_exact() {
        let (server, mut conn, mount) = served("roundtrip");
        let step = 256u64 << 10;
        let data = pattern(5 * step as usize + 4321);
        fs::write(mount.join("src.dat"), &data).unwrap();
        let src = File::open(mount.join("src.dat")).unwrap();
        let size = data.len() as u64;

        let prepare = DataRequest::Prepare {
            nsid: "ds0".into(),
            path: "sub/dst.dat".into(),
            size,
        };
        assert_eq!(conn.call(&prepare).unwrap(), DataResponse::Ok);
        assert_eq!(fs::metadata(mount.join("sub/dst.dat")).unwrap().len(), size);

        // Every `Store` is on the wire before the first response is
        // read; the ragged last range rides along.
        let ranges: Vec<(u64, u64)> = (0..size.div_ceil(step))
            .map(|i| (i * step, step.min(size - i * step)))
            .collect();
        for &(offset, len) in &ranges {
            conn.send_store(&store("sub/dst.dat", offset), &src, offset, len)
                .unwrap();
        }
        for _ in &ranges {
            assert_eq!(conn.recv_response().unwrap().0, DataResponse::Ok);
        }
        assert!(fs::read(mount.join("sub/dst.dat")).unwrap() == data);

        let mut back = Vec::new();
        for &(offset, len) in &ranges {
            conn.send_request(&fetch("sub/dst.dat", offset, len))
                .unwrap();
        }
        for _ in &ranges {
            let (response, payload) = recv(&mut conn, &mount);
            assert_eq!(response, DataResponse::Data);
            back.extend_from_slice(&payload);
        }
        assert!(back == data, "fetched bytes differ from the stored ones");
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// One read batch of `Fetch`es: each `Data` payload leaves right
    /// behind its header, cutting the queued responses short; every
    /// response must still arrive whole and in request order —
    /// including an `Error` in the middle, a payload cut short at EOF,
    /// and a small reply behind them all.
    #[test]
    fn a_pipelined_fetch_batch_arrives_complete_and_in_order() {
        let (server, mut conn, mount) = served("batch");
        let len = 768u64 << 10;
        let data = pattern(6 * len as usize + 99);
        fs::write(mount.join("big.dat"), &data).unwrap();

        // Ranges out of file order, so a reordered response shows.
        let offsets = [3 * len, 0, 5 * len, len, 6 * len, 2 * len, 4 * len];
        let stat = DataRequest::Stat {
            nsid: "ds0".into(),
            path: "big.dat".into(),
        };
        // All request frames in one write: one read batch on the peer.
        let mut batch = Vec::new();
        for (i, &offset) in offsets.iter().enumerate() {
            if i == 3 {
                batch.extend_from_slice(&norns_proto::encode_frame(
                    &fetch("missing.dat", 0, len).to_bytes(),
                ));
            }
            batch.extend_from_slice(&norns_proto::encode_frame(
                &fetch("big.dat", offset, len).to_bytes(),
            ));
        }
        batch.extend_from_slice(&norns_proto::encode_frame(&stat.to_bytes()));
        conn.stream.write_all(&batch).unwrap();

        for (i, &offset) in offsets.iter().enumerate() {
            if i == 3 {
                match conn.recv_response().unwrap().0 {
                    DataResponse::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
                    other => panic!("expected the refusal in slot 3, got {other:?}"),
                }
            }
            let (response, payload) = recv(&mut conn, &mount);
            assert_eq!(response, DataResponse::Data);
            let want = &data[offset as usize..data.len().min((offset + len) as usize)];
            assert!(&payload[..] == want, "range at {offset} garbled");
        }
        assert_eq!(
            conn.recv_response().unwrap().0,
            DataResponse::Stat {
                size: data.len() as u64
            }
        );
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// A `Fetch` that crosses end-of-file is answered short: the
    /// `Data` header counts the bytes the file had from there on, and
    /// exactly those follow it — byte for byte what the peer sees,
    /// behind the response queued ahead of it.
    #[test]
    fn fetch_answered_short_at_eof_carries_the_clamped_length() {
        let (server, mut conn, mount) = served("short");
        let data = pattern(99);
        fs::write(mount.join("tail.dat"), &data).unwrap();

        let stat = DataRequest::Stat {
            nsid: "ds0".into(),
            path: "tail.dat".into(),
        };
        let mut batch = norns_proto::encode_frame(&stat.to_bytes()).to_vec();
        for offset in [40, 99, 1000] {
            let request = fetch("tail.dat", offset, 1000).to_bytes();
            batch.extend_from_slice(&norns_proto::encode_frame(&request));
        }
        conn.stream.write_all(&batch).unwrap();

        let stat = DataResponse::Stat { size: 99 }.to_bytes();
        let body = DataResponse::Data.to_bytes();
        let mut want = norns_proto::encode_frame(&stat).to_vec();
        want.extend_from_slice(&norns_proto::frame_header(body.len() + 59));
        want.extend_from_slice(&body);
        want.extend_from_slice(&data[40..]);
        // At and past end-of-file: a `Data` with nothing behind it.
        want.extend_from_slice(&norns_proto::encode_frame(&body));
        want.extend_from_slice(&norns_proto::encode_frame(&body));
        let mut got = vec![0u8; want.len()];
        conn.stream.read_exact(&mut got).unwrap();
        assert_eq!(got, want);
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// The client half against the real server: a source that shrank
    /// after the pull was planned answers the range that reaches its
    /// new end short, the pull fails `truncated` at exactly that byte,
    /// and its preallocated destination is removed.
    #[test]
    fn a_pull_answered_short_fails_truncated_at_the_source_end() {
        use super::super::super::transfer::{Chain, PlanOutcome, Step};
        use super::super::{Direction, RemoteTransfer};
        use std::sync::atomic::AtomicBool;

        let (server, _conn, mount) = served("shrank");
        let size = 3 * (256u64 << 10) + 4321;
        fs::write(mount.join("src.dat"), pattern(size as usize)).unwrap();
        // Each transfer connects for itself, so this server keeps
        // accepting.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = Arc::clone(&server);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                acceptor.serve(stream.unwrap());
            }
        });
        let plan = |name: &str| {
            RemoteTransfer::plan(
                7,
                Direction::Pull,
                &addr,
                "ds0",
                "src.dat",
                &mount.join(name),
                8 << 20,
                8,
                Arc::new(AtomicU64::new(0)),
                Arc::new(AtomicBool::new(false)),
            )
            .unwrap()
        };

        // One unit each: the file is smaller than the chunk.
        let run = |chain: Box<Chain>| match chain.step() {
            Step::End(end) => end.outcome,
            Step::Next(_) => panic!("a second unit"),
        };

        // Whole first: three full ranges and the ragged one behind.
        assert!(matches!(run(plan("whole.dat")), PlanOutcome::Done(n) if n == size));
        assert!(fs::read(mount.join("whole.dat")).unwrap() == pattern(size as usize));

        let shrank = plan("shrank.dat");
        assert_eq!(fs::metadata(mount.join("shrank.dat")).unwrap().len(), size);
        let source = OpenOptions::new()
            .write(true)
            .open(mount.join("src.dat"))
            .unwrap();
        source.set_len(size - 5000).unwrap();
        match run(shrank) {
            PlanOutcome::Failed(e) => {
                let at = format!("remote source truncated at byte {}", size - 5000);
                assert!(e.message.contains(&at), "{e}");
            }
            _ => panic!("a pull of a source that shrank must fail"),
        }
        assert!(!mount.join("shrank.dat").exists());
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// Regression: a `Prepare` whose preallocation failed used to
    /// leave the empty file it had just created, and nobody discards it
    /// — the pusher's plan fails on the `Error` before it has anything
    /// to clean up. No filesystem preallocates 2^64 - 1 bytes.
    #[test]
    fn a_prepare_that_cannot_preallocate_leaves_no_file() {
        let (server, mut conn, mount) = served("efbig");
        let prepare = DataRequest::Prepare {
            nsid: "ds0".into(),
            path: "sub/huge.dat".into(),
            size: u64::MAX,
        };
        let refused = conn.call(&prepare).unwrap();
        assert!(matches!(refused, DataResponse::Error { .. }), "{refused:?}");
        assert!(!mount.join("sub/huge.dat").exists(), "a fake destination");
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// A `Store` whose file write fails with its payload half way
    /// between socket and file (`/dev/full`: `ENOSPC` on every write)
    /// is answered with the usual `Error` in its slot, and the `Store`s
    /// pipelined behind it on the same connection — the same handler
    /// thread, the same pipe — land byte-exact.
    #[test]
    fn a_store_that_fails_mid_range_is_an_error_in_its_slot() {
        let (server, mut conn, mount) = served("enospc");
        std::os::unix::fs::symlink("/dev/full", mount.join("full.dat")).unwrap();
        let step = 1u64 << 20;
        let data = pattern(3 * step as usize);
        fs::write(mount.join("src.dat"), &data).unwrap();
        let src = File::open(mount.join("src.dat")).unwrap();

        let slots = ["dst.dat", "full.dat", "dst.dat", "full.dat", "dst.dat"];
        let mut good = 0;
        for path in slots {
            let offset = if path == "dst.dat" { good * step } else { 0 };
            good += (path == "dst.dat") as u64;
            conn.send_store(&store(path, offset), &src, offset, step)
                .unwrap();
        }
        for path in slots {
            match (path, conn.recv_response().unwrap().0) {
                ("dst.dat", DataResponse::Ok) => {}
                ("full.dat", DataResponse::Error { code, .. }) => {
                    assert_eq!(code, ErrorCode::NoSpace)
                }
                (path, other) => panic!("{path} answered {other:?}"),
            }
        }
        assert!(fs::read(mount.join("dst.dat")).unwrap() == data);
        assert_eq!(server.conns.lock().len(), 1, "the connection survived");
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// The accepted end of a connection is tuned like the connecting
    /// one. Without `TCP_NODELAY` there, the `Ok` behind the last
    /// `Store` of a window waits in the kernel for the peer's delayed
    /// ACK of the `Ok` before it: 40 ms per window.
    #[test]
    fn the_accepted_socket_is_tuned_like_the_connecting_one() {
        let (server, conn, mount) = served("tuned");
        assert!(conn.stream.nodelay().unwrap());
        for entry in server.conns.lock().values() {
            assert!(entry.stream.nodelay().unwrap());
            assert!(entry.stream.read_timeout().unwrap().is_some());
            assert!(entry.stream.write_timeout().unwrap().is_some());
        }
        assert_eq!(server.conns.lock().len(), 1);
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// The stall itself: eight pipelined 256 KiB `Store`s — each
    /// completes in a read batch of its own, so each `Ok` is its own
    /// small write — must all be acknowledged without a delayed-ACK
    /// pause between them. Checked to fail at the parent commit, where
    /// the accepted socket still had Nagle on: every one of its five
    /// rounds took 40 ms or more.
    #[test]
    fn a_window_of_pipelined_stores_is_acknowledged_without_a_stall() {
        let (server, mut conn, mount) = served("stall");
        let step = 256u64 << 10;
        let data = pattern(8 * step as usize);
        fs::write(mount.join("src.dat"), &data).unwrap();
        let src = File::open(mount.join("src.dat")).unwrap();
        let prepare = DataRequest::Prepare {
            nsid: "ds0".into(),
            path: "dst.dat".into(),
            size: data.len() as u64,
        };
        assert_eq!(conn.call(&prepare).unwrap(), DataResponse::Ok);

        let best = (0..5)
            .map(|_| {
                let started = Instant::now();
                for i in 0..8 {
                    conn.send_store(&store("dst.dat", i * step), &src, i * step, step)
                        .unwrap();
                }
                for _ in 0..8 {
                    assert_eq!(conn.recv_response().unwrap().0, DataResponse::Ok);
                }
                started.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            best < Duration::from_millis(30),
            "best of 5 windows took {best:?}"
        );
        assert!(fs::read(mount.join("dst.dat")).unwrap() == data);
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// The registry holds exactly the live connections: a handler
    /// whose peer hangs up drops its own entry, and `close_and_join`
    /// unblocks and joins one parked in `read()` on an idle peer.
    #[test]
    fn close_and_join_reaches_a_handler_parked_on_an_idle_peer() {
        let (server, gone, mount) = served("close");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut idle = DataConn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        server.serve(listener.accept().unwrap().0);
        let live = || server.conns.lock().len();
        assert_eq!(live(), 2);

        drop(gone);
        let deadline = Instant::now() + Duration::from_secs(5);
        while live() != 1 {
            assert!(Instant::now() < deadline, "hung-up peer's entry lingers");
            std::thread::sleep(Duration::from_millis(1));
        }

        let started = Instant::now();
        server.close_and_join();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(live(), 0);
        let stat = DataRequest::Stat {
            nsid: "ds0".into(),
            path: "x".into(),
        };
        assert!(
            idle.call(&stat).is_err(),
            "the idle peer sees its end close"
        );
        let _ = fs::remove_dir_all(&mount);
    }
}
