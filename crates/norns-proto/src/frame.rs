//! Stream framing.
//!
//! Messages travel over byte streams (AF_UNIX sockets) as frames:
//!
//! ```text
//! +----------+---------+------------------+
//! | len: u32 | ver: u8 | payload (len-1)  |
//! +----------+---------+------------------+
//! ```
//!
//! `len` is little-endian and counts the version byte plus payload.
//! [`FrameReader`] is an incremental decoder that accepts arbitrary
//! chunk boundaries (short reads, coalesced frames) — required because
//! every reader ([`FrameReader::read_from`]) takes whatever the kernel
//! buffered.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::wire::{get_varint, put_varint, Wire, WireError};

/// Protocol version carried in every frame. v2 added `priority` to
/// `TaskSpec`, `wait_usec` to `TaskStats`, the `CancelTask` requests,
/// `TaskState::Cancelled` and `ErrorCode::Busy`. v3 added
/// `cancelled_tasks` and `chunk_size` to `DaemonStatus` (the chunked
/// data plane reports its knobs; `bytes_moved` in `TaskStats` became a
/// live progress counter without a wire change). v4 added the remote
/// staging data plane: the `DataRequest`/`DataResponse` message set
/// spoken between daemons over TCP, `data_addr` in `DaemonStatus`,
/// `RegisterPeer` on the control API, and a `pid` on the user-socket
/// `WaitTask`/`QueryTask` (observation is scoped to the submitter the
/// same way cancellation is). v5 added the `WaitAny` batch-wait op on
/// both sockets (one parked round-trip returns the first completion of
/// a task set, capped at `MAX_WAIT_SET` ids) and its
/// `Response::TaskCompleted` answer — the primitive real-mode workflow
/// orchestrators block on instead of polling per task. v6 added the
/// `ListDir` directory-enumeration op on the control API and its
/// `Response::DirEntries` answer (capped at `MAX_DIR_ENTRIES` names) —
/// what real-mode `scatter`/`gather` planning uses to split a
/// directory's children across a job's nodes instead of replicating
/// them. v7 made the control and user planes pipelined: every request
/// and response payload on those sockets is prefixed with a varint
/// `tag` (see [`crate::encode_tagged`]) echoed back verbatim, so a
/// client can keep many requests outstanding on one connection and
/// match responses arriving out of order — long waits no longer
/// monopolize a connection. `DaemonStatus` gained `accept_errors` and
/// `open_connections` so connection storms are observable. The
/// daemon-to-daemon data plane stays untagged (strictly sequential).
/// Older peers are rejected at the framing layer. v8 added durability
/// modes for stage-outs: `TaskSpec` gained a trailing `durability`
/// field (`local_only`/`local_plus_one`/`synchronous`) selecting when
/// a task ACKs relative to background replication to registered
/// peers, and `DaemonStatus` gained the replication-lag counters
/// `pending_replicas` and `pending_replica_bytes` (appended after
/// `open_connections`, the same way `accept_errors` was appended in
/// v7) so a quiescent daemon can prove its replication queue drained.
pub const PROTOCOL_VERSION: u8 = 8;

/// Frames larger than this are rejected outright (a corrupt or hostile
/// peer must not make the daemon allocate gigabytes).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// The 5-byte prefix (length + version) of a frame whose payload is
/// `payload_len` bytes. Senders do not call this: [`push_frame`] is
/// the one place a header is laid down and sized.
pub fn frame_header(payload_len: usize) -> [u8; 5] {
    let len = payload_len as u32 + 1;
    assert!(len <= MAX_FRAME_LEN, "frame too large");
    let l = len.to_le_bytes();
    [l[0], l[1], l[2], l[3], PROTOCOL_VERSION]
}

/// The one frame assembler: append one frame to `out`, in place.
///
/// Reserves the header, encodes the v7 `tag` (control and user planes;
/// the data plane passes `None`) and `msg` behind it, lets `payload`
/// append whatever trails the message, then patches the length. The
/// length also counts `behind` bytes the caller promises to put on the
/// stream right after the buffer — a `sendfile`d range never enters
/// it. Returns what `payload` returned; a caller whose `payload`
/// failed discards the frame by truncating `out` to where it stood.
pub fn push_frame<T: Wire, R>(
    out: &mut BytesMut,
    tag: Option<u64>,
    msg: &T,
    behind: usize,
    payload: impl FnOnce(&mut BytesMut) -> R,
) -> R {
    let header_at = out.len();
    out.put_slice(&frame_header(0));
    let body_at = out.len();
    if let Some(tag) = tag {
        put_varint(out, tag);
    }
    msg.encode(out);
    let result = payload(out);
    let header = frame_header(out.len() - body_at + behind);
    out[header_at..body_at].copy_from_slice(&header);
    result
}

/// Wrap a payload in a frame.
pub fn encode_frame(payload: &[u8]) -> Bytes {
    let header = frame_header(payload.len());
    let mut buf = BytesMut::with_capacity(header.len() + payload.len());
    buf.put_slice(&header);
    buf.put_slice(payload);
    buf.freeze()
}

/// Encode a v7 control/user-plane payload: varint `tag` followed by
/// the message body. The daemon echoes the tag back on the matching
/// response, which is what lets a client keep many requests
/// outstanding on one connection and demultiplex out-of-order
/// completions. Frame header and [`FrameReader`] are unchanged — the
/// tag lives inside the payload.
pub fn encode_tagged<T: Wire>(tag: u64, msg: &T) -> Bytes {
    let mut buf = BytesMut::new();
    put_varint(&mut buf, tag);
    msg.encode(&mut buf);
    buf.freeze()
}

/// Decode a v7 tagged payload into `(tag, message)`.
pub fn decode_tagged<T: Wire>(payload: Bytes) -> Result<(u64, T), WireError> {
    let mut buf = payload;
    let tag = get_varint(&mut buf)?;
    let msg = T::decode(&mut buf)?;
    Ok((tag, msg))
}

/// Errors surfaced by the incremental reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    TooLarge(u32),
    BadVersion(u8),
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Bytes one [`FrameReader::read_from`] call asks the source for.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental frame decoder.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: BytesMut,
    /// Landing area for [`FrameReader::read_from`], allocated on first
    /// use and kept: a socket read costs no per-call zeroing.
    scratch: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed freshly read bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// One `read` from `src`, appended to the buffered bytes. Returns
    /// the count (`0` is end of stream); errors, `WouldBlock` and
    /// `Interrupted` included, pass through untouched.
    pub fn read_from(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        self.scratch.resize(READ_CHUNK, 0);
        let n = src.read(&mut self.scratch)?;
        self.buf.extend_from_slice(&self.scratch[..n]);
        Ok(n)
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to pop one complete frame payload. `Ok(None)` means "need
    /// more bytes".
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge(len));
        }
        if self.buf.len() < 4 + len as usize {
            return Ok(None);
        }
        self.buf.advance(4);
        let mut frame = self.buf.split_to(len as usize).freeze();
        let ver = frame.get_u8();
        if ver != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(ver));
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_header_matches_encode_frame() {
        for payload in [&b""[..], b"x", &[7u8; 1024]] {
            let framed = encode_frame(payload);
            let header = frame_header(payload.len());
            assert_eq!(&framed[..5], &header);
            assert_eq!(&framed[5..], payload);
        }
    }

    #[test]
    fn single_frame_roundtrip() {
        let payload = b"hello urd";
        let framed = encode_frame(payload);
        let mut reader = FrameReader::new();
        reader.extend(&framed);
        let got = reader.next_frame().unwrap().unwrap();
        assert_eq!(&got[..], payload);
        assert_eq!(reader.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let framed = encode_frame(b"slow drip");
        let mut reader = FrameReader::new();
        let mut out = None;
        for b in framed.iter() {
            reader.extend(&[*b]);
            if let Some(f) = reader.next_frame().unwrap() {
                out = Some(f);
            }
        }
        assert_eq!(&out.unwrap()[..], b"slow drip");
    }

    #[test]
    fn coalesced_frames_split_correctly() {
        let mut all = Vec::new();
        for p in [b"one".as_slice(), b"two".as_slice(), b"three".as_slice()] {
            all.extend_from_slice(&encode_frame(p));
        }
        let mut reader = FrameReader::new();
        reader.extend(&all);
        assert_eq!(&reader.next_frame().unwrap().unwrap()[..], b"one");
        assert_eq!(&reader.next_frame().unwrap().unwrap()[..], b"two");
        assert_eq!(&reader.next_frame().unwrap().unwrap()[..], b"three");
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn read_from_appends_what_the_source_gave() {
        let framed = encode_frame(b"from a socket");
        let (mut head, mut tail) = framed.split_at(3);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_from(&mut head).unwrap(), 3);
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.read_from(&mut tail).unwrap(), framed.len() - 3);
        assert_eq!(&reader.next_frame().unwrap().unwrap()[..], b"from a socket");
        assert_eq!(reader.read_from(&mut tail).unwrap(), 0, "end of stream");
    }

    #[test]
    fn empty_payload_is_legal() {
        let framed = encode_frame(b"");
        let mut reader = FrameReader::new();
        reader.extend(&framed);
        let got = reader.next_frame().unwrap().unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn zero_length_frame_rejected() {
        let mut reader = FrameReader::new();
        reader.extend(&[0, 0, 0, 0]);
        assert!(matches!(reader.next_frame(), Err(FrameError::TooLarge(0))));
    }

    #[test]
    fn oversized_frame_rejected_before_buffering() {
        let mut reader = FrameReader::new();
        let bad_len = (MAX_FRAME_LEN + 1).to_le_bytes();
        reader.extend(&bad_len);
        assert!(matches!(reader.next_frame(), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_u8(99); // bad version
        buf.put_u8(0);
        let mut reader = FrameReader::new();
        reader.extend(&buf);
        assert!(matches!(
            reader.next_frame(),
            Err(FrameError::BadVersion(99))
        ));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_payload(payload: Vec<u8>) {
            let framed = encode_frame(&payload);
            let mut reader = FrameReader::new();
            reader.extend(&framed);
            let got = reader.next_frame().unwrap().unwrap();
            prop_assert_eq!(got.to_vec(), payload);
        }

        #[test]
        fn prop_roundtrip_with_random_chunking(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            chunk in 1usize..17,
        ) {
            let mut stream = Vec::new();
            for p in &payloads {
                stream.extend_from_slice(&encode_frame(p));
            }
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                reader.extend(piece);
                while let Some(f) = reader.next_frame().unwrap() {
                    got.push(f.to_vec());
                }
            }
            prop_assert_eq!(got, payloads);
        }
    }
}
