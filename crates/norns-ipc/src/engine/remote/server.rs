//! The server half of the data plane: answers a peer daemon's
//! [`DataRequest`]s against this daemon's dataspaces.
//!
//! Each accepted connection gets a dedicated **blocking** handler
//! thread — on purpose (README § Data-plane architecture): `Fetch` and
//! `Store` sit in positioned file reads and writes of up to
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
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use norns_proto::{
    push_frame, DataRequest, DataResponse, ErrorCode, FrameReader, Wire, MAX_DATA_RANGE,
};

use super::super::error::EngineError;
use super::super::transfer::read_full_at;
use super::super::Engine;

/// Buffered responses past this size are flushed mid-batch: bounds the
/// daemon's per-connection memory against a peer pipelining many large
/// `Fetch` requests and gets bytes moving while the remaining frames
/// decode.
const RESPONSE_FLUSH_THRESHOLD: usize = 1 << 20;

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
    /// to a batch of pipelined requests are written back in as few
    /// syscalls as possible: one `write` per read batch in the common
    /// case, with a mid-batch flush only past
    /// [`RESPONSE_FLUSH_THRESHOLD`] — a peer keeping a window of
    /// requests in flight is never stalled by per-response flushes.
    /// Returns when the peer hangs up, violates the protocol, or
    /// `close_and_join` shuts the stream down.
    fn serve_connection(&self, mut stream: TcpStream) {
        let mut reader = FrameReader::new();
        // Responses not yet written; its allocation is reused across
        // batches, so a `Fetch` payload costs no allocation per range.
        let mut out = BytesMut::new();
        while matches!(reader.read_from(&mut stream), Ok(1..)) {
            loop {
                let batch_done = match reader.next_frame() {
                    Ok(Some(frame)) => {
                        let start = out.len();
                        if let Err(e) = handle_data(&self.engine, frame, &mut out) {
                            // The peer gets an `Error` response in
                            // this request's slot; the connection
                            // stays open.
                            out.truncate(start);
                            push_response(&mut out, &e.into());
                        }
                        false
                    }
                    Ok(None) => true,
                    Err(_) => return, // protocol violation: drop the client
                };
                if batch_done || out.len() >= RESPONSE_FLUSH_THRESHOLD {
                    if stream.write_all(&out).is_err() {
                        return;
                    }
                    out.clear();
                }
                if batch_done {
                    break;
                }
            }
        }
    }
}

/// Append one framed response with no payload.
fn push_response(out: &mut BytesMut, response: &DataResponse) {
    push_frame(out, None, response, 0, |_| ());
}

/// Serve one data-plane request from a peer daemon, appending its one
/// framed response to `out`. Every path goes through the engine's
/// dataspace containment checks — a remote peer gets no more
/// filesystem reach than a local client. On `Err` the caller discards
/// whatever was appended and answers with the error instead.
fn handle_data(engine: &Engine, frame: Bytes, out: &mut BytesMut) -> Result<(), EngineError> {
    let mut payload = frame;
    let req = DataRequest::decode(&mut payload)
        .map_err(|e| EngineError::new(ErrorCode::BadArgs, e.to_string()))?;
    let over_cap = |what: &str, len: u64| {
        EngineError::new(
            ErrorCode::BadArgs,
            format!("{what} of {len} bytes exceeds the {MAX_DATA_RANGE}-byte range cap"),
        )
    };
    let response = match req {
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
            // The payload is read straight into the outbound buffer's
            // tail, behind a frame header patched once its length is
            // known: a read that hits EOF sends a short payload, which
            // is how the peer learns the file ended.
            push_frame(out, None, &DataResponse::Data, 0, |out| {
                let payload_at = out.len();
                out.resize(payload_at + len as usize, 0);
                read_full_at(&file, &mut out[payload_at..], offset)
                    .map(|filled| out.truncate(payload_at + filled))
            })?;
            return Ok(());
        }
        DataRequest::Prepare { nsid, path, size } => {
            let local = engine.resolve_local(&nsid, &path)?;
            if let Some(parent) = local.parent() {
                fs::create_dir_all(parent)?;
            }
            File::create(&local)?.set_len(size)?;
            DataResponse::Ok
        }
        DataRequest::Store { nsid, path, offset } => {
            if payload.len() as u64 > MAX_DATA_RANGE {
                return Err(over_cap("store", payload.len() as u64));
            }
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(engine.resolve_local(&nsid, &path)?)?;
            file.write_all_at(&payload, offset)?;
            DataResponse::Ok
        }
        DataRequest::Discard { nsid, path } => {
            match fs::remove_file(engine.resolve_local(&nsid, &path)?) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => DataResponse::Ok,
            }
        }
    };
    push_response(out, &response);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::conn::DataConn;
    use super::*;
    use std::net::TcpListener;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use norns_proto::{BackendKind, DataspaceDesc};

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
            let store = DataRequest::Store {
                nsid: "ds0".into(),
                path: "sub/dst.dat".into(),
                offset,
            };
            conn.send_store(&store, &src, offset, len).unwrap();
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
            let (response, payload) = conn.recv_response().unwrap();
            assert_eq!(response, DataResponse::Data);
            back.extend_from_slice(&payload);
        }
        assert!(back == data, "fetched bytes differ from the stored ones");
        server.close_and_join();
        let _ = fs::remove_dir_all(&mount);
    }

    /// One read batch whose responses add up to several times
    /// `RESPONSE_FLUSH_THRESHOLD` is flushed mid-batch; every response
    /// must still arrive whole and in request order — including an
    /// `Error` in the middle, a payload cut short at EOF, and a small
    /// reply behind them all.
    #[test]
    fn a_batch_past_the_flush_threshold_arrives_complete_and_in_order() {
        let (server, mut conn, mount) = served("batch");
        let len = 768u64 << 10;
        let data = pattern(6 * len as usize + 99);
        fs::write(mount.join("big.dat"), &data).unwrap();
        assert!(data.len() > 4 * RESPONSE_FLUSH_THRESHOLD);

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
            let (response, payload) = conn.recv_response().unwrap();
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

    /// A `Fetch` that crosses end-of-file is framed in place: its
    /// header, reserved before the read, is patched to the bytes that
    /// were there, and the zero-filled rest of the range is cut off.
    #[test]
    fn fetch_answered_short_at_eof_carries_the_patched_length() {
        let (server, _conn, mount) = served("short");
        let data = pattern(99);
        fs::write(mount.join("tail.dat"), &data).unwrap();

        let mut out = BytesMut::new();
        push_response(&mut out, &DataResponse::Ok);
        let fetch_at = out.len();
        let request = fetch("tail.dat", 40, 1000).to_bytes();
        handle_data(&server.engine, request, &mut out).unwrap();

        let body = DataResponse::Data.to_bytes();
        let header = norns_proto::frame_header(body.len() + 59);
        assert_eq!(&out[fetch_at..][..header.len()], &header);
        assert_eq!(&out[fetch_at + header.len()..][..body.len()], &body[..]);
        assert_eq!(&out[fetch_at + header.len() + body.len()..], &data[40..]);
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
