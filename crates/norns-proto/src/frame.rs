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
//! buffered. It pops a frame whole ([`FrameReader::next_frame`]), or
//! its message alone with the payload behind it left on the stream for
//! the caller to move to where it belongs ([`FrameReader::take_buffered`],
//! [`FrameReader::took_off_stream`]) — what the data plane does with a
//! megabyte `Store` or `Data`.

use std::io::{self, Read};

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
/// both sockets and its `Response::TaskCompleted` answer, since retired
/// within v8: once v7 let one connection hold many parked waits, a
/// `WaitTask` per task does the batch wait's work, and the three
/// discriminants now decode to `BadDiscriminant`. v6 added the
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
    /// Payload bytes behind the message [`FrameReader::next_message`]
    /// last returned that nobody took yet: the first of them sit at
    /// the front of `buf`, the rest are still on the stream. What is
    /// left of them when the next frame is asked for is skipped, so a
    /// payload its receiver refuses cannot misalign the stream.
    untaken: usize,
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
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.scratch.resize(READ_CHUNK, 0);
        let n = src.read(&mut self.scratch)?;
        self.buf.extend_from_slice(&self.scratch[..n]);
        Ok(n)
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Skip what is buffered of an untaken payload, then read the
    /// length prefix of the frame at the front. `Ok(None)` means "need
    /// more bytes".
    fn frame_len(&mut self) -> Result<Option<usize>, FrameError> {
        let skip = self.untaken.min(self.buf.len());
        self.buf.advance(skip);
        self.untaken -= skip;
        if self.untaken > 0 || self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge(len));
        }
        Ok(Some(len as usize))
    }

    /// Try to pop one complete frame payload. `Ok(None)` means "need
    /// more bytes".
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        let Some(len) = self.frame_len()? else {
            return Ok(None);
        };
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        let mut frame = self.buf.split_to(len).freeze();
        let ver = frame.get_u8();
        if ver != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(ver));
        }
        Ok(Some(frame))
    }

    /// The receive-side mirror of [`push_frame`]'s `behind`: pop the
    /// message at the head of the next frame, and the count of payload
    /// bytes that trail it, without waiting for those to be buffered —
    /// the caller moves them from the stream to where they belong
    /// ([`FrameReader::take_buffered`], then the stream itself and
    /// [`FrameReader::took_off_stream`]), and one that has no use for
    /// them just asks for the next message. `Ok(None)` means "need
    /// more bytes".
    ///
    /// A frame shorter than one read is waited for whole, as
    /// [`FrameReader::next_frame`] does. A longer one is decoded as
    /// soon as its message is buffered, which a frame's first
    /// [`READ_CHUNK`] bytes must hold. A message that does not decode
    /// is an `Err` that leaves the stream aligned behind its frame.
    pub fn next_message<T: Wire>(&mut self) -> Result<Option<(T, usize)>, FrameError> {
        let Some(len) = self.frame_len()? else {
            return Ok(None);
        };
        let buffered = (self.buf.len() - 4).min(len);
        let head_len = len.min(READ_CHUNK);
        if buffered == 0 || (len < READ_CHUNK && buffered < len) {
            return Ok(None);
        }
        // `decode` wants a buffer of its own, so the message is decoded
        // from a copy of the frame's first bytes — one sized to the
        // message (a few dozen bytes), not to the up to `READ_CHUNK`
        // of payload that arrived with it: the copy is widened only
        // while the message runs off its end.
        let avail = buffered.min(head_len);
        let mut peek = avail.min(256);
        let (msg, consumed) = loop {
            let mut head = Bytes::from(self.buf[4..4 + peek].to_vec());
            let ver = head.get_u8();
            if ver != PROTOCOL_VERSION {
                return Err(FrameError::BadVersion(ver));
            }
            match T::decode(&mut head) {
                Err(WireError::Truncated | WireError::BadLength(_)) if peek < avail => {
                    peek = (peek * 4).min(avail)
                }
                Err(WireError::Truncated | WireError::BadLength(_)) if avail < head_len => {
                    return Ok(None)
                }
                Ok(msg) => break (Ok(msg), peek - head.len()),
                Err(e) => break (Err(e), 1),
            }
        };
        // From here on the frame is popped: the message's bytes are
        // consumed (just the version byte if it did not decode) and
        // everything behind them is payload for the taking.
        self.buf.advance(4 + consumed);
        self.untaken = len - consumed;
        Ok(Some((msg?, self.untaken)))
    }

    /// Hand `sink` what is already buffered of the payload behind the
    /// message [`FrameReader::next_message`] last returned — the bytes
    /// that arrived in the same reads as the message — and count them
    /// taken whatever `sink` returns. What [`FrameReader::untaken`]
    /// reports afterwards is still on the stream.
    pub fn take_buffered<R>(&mut self, sink: impl FnOnce(&[u8]) -> R) -> R {
        let buffered = self.untaken.min(self.buf.len());
        self.untaken -= buffered;
        let sunk = sink(&self.buf[..buffered]);
        self.buf.advance(buffered);
        sunk
    }

    /// Payload bytes behind the last message that nobody took yet.
    pub fn untaken(&self) -> usize {
        self.untaken
    }

    /// The caller moved `n` payload bytes off the stream itself, past
    /// this reader — to wherever they belong, or nowhere: what counts
    /// is that they left the stream. Only valid once
    /// [`FrameReader::take_buffered`] has emptied the buffer, so that
    /// the next byte on the stream is the next untaken one. Whatever
    /// is still untaken when the next frame is asked for is skipped.
    pub fn took_off_stream(&mut self, n: usize) {
        assert!(
            self.buf.is_empty() && n <= self.untaken,
            "{n} bytes taken past a reader holding {} with {} untaken",
            self.buf.len(),
            self.untaken
        );
        self.untaken -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataRequest;
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

    fn store(path: &str, offset: u64) -> DataRequest {
        DataRequest::Store {
            nsid: "ds0".into(),
            path: path.into(),
            offset,
        }
    }

    /// One frame as `push_frame` lays it down with its payload behind.
    fn framed(msg: &DataRequest, payload: &[u8]) -> Vec<u8> {
        let mut out = BytesMut::new();
        push_frame(&mut out, None, msg, payload.len(), |_| ());
        out.extend_from_slice(payload);
        out.to_vec()
    }

    /// Position-dependent bytes, cheap to make by the megabyte.
    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + salt) % 251) as u8).collect()
    }

    /// A stream handed over in reads of the given sizes, round and
    /// round — what a socket does to frame boundaries.
    struct Dribble<'a> {
        left: &'a [u8],
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let (head, tail) = self.left.split_at(n.min(buf.len()).min(self.left.len()));
            buf[..head.len()].copy_from_slice(head);
            self.left = tail;
            Ok(head.len())
        }
    }

    /// What a receiver does with the payload behind the last message:
    /// the buffered prefix first, then reads of at most `piece` bytes
    /// straight off `src`, each reported to the reader — until the
    /// payload is whole or `pieces` of them were taken. Returns the
    /// bytes and the size of each piece.
    fn take(
        reader: &mut FrameReader,
        src: &mut impl Read,
        piece: usize,
        pieces: usize,
    ) -> (Vec<u8>, Vec<usize>) {
        let mut payload = reader.take_buffered(|prefix| prefix.to_vec());
        let mut sizes = vec![payload.len()];
        let mut piece = vec![0u8; piece];
        while reader.untaken() > 0 && sizes.len() < pieces {
            let want = reader.untaken().min(piece.len());
            let n = src.read(&mut piece[..want]).unwrap();
            assert!(n > 0, "stream ended inside a payload");
            reader.took_off_stream(n);
            payload.extend_from_slice(&piece[..n]);
            sizes.push(n);
        }
        (payload, sizes)
    }

    /// Every message of `stream` through the receive path, with the
    /// payload behind it — taken, unless `leave` says to walk past it.
    fn received(
        stream: &[u8],
        sizes: &[usize],
        piece: usize,
        leave: impl Fn(usize) -> bool,
    ) -> Vec<(DataRequest, Option<Vec<u8>>)> {
        let mut src = Dribble {
            left: stream,
            sizes,
            turn: 0,
        };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.next_message::<DataRequest>().unwrap() {
                Some((msg, _)) if leave(got.len()) => got.push((msg, None)),
                Some((msg, len)) => {
                    assert_eq!(reader.untaken(), len);
                    let (payload, _) = take(&mut reader, &mut src, piece, usize::MAX);
                    assert_eq!(payload.len(), len);
                    assert_eq!(reader.untaken(), 0);
                    got.push((msg, Some(payload)));
                }
                None if reader.read_from(&mut src).unwrap() == 0 => break,
                None => {}
            }
        }
        assert_eq!(reader.buffered(), 0);
        got
    }

    #[test]
    fn a_large_payload_is_taken_off_the_stream_not_out_of_the_buffer() {
        let payload = pattern((1 << 20) + 17, 3);
        let stream = framed(&store("big", 4096), &payload);
        let mut src = &stream[..];
        let mut reader = FrameReader::new();
        assert_eq!(reader.next_message::<DataRequest>().unwrap(), None);
        reader.read_from(&mut src).unwrap();
        let (msg, len) = reader.next_message::<DataRequest>().unwrap().unwrap();
        assert_eq!((msg, len), (store("big", 4096), payload.len()));
        assert!(reader.buffered() < READ_CHUNK, "only the head was buffered");

        let (got, pieces) = take(&mut reader, &mut src, 300_000, usize::MAX);
        assert!(got == payload);
        assert_eq!(pieces.len(), 5, "what was buffered, then four reads");
        assert!(pieces[0] > 0 && pieces[0] < READ_CHUNK);
        assert_eq!(reader.buffered(), 0);
    }

    /// Frame alignment on refusal: a payload nobody takes, one whose
    /// receiver gives up half way and a message that does not decode
    /// are all walked past, and the frame behind each pops intact.
    #[test]
    fn an_untaken_payload_is_skipped_before_the_next_frame() {
        let big = pattern((1 << 20) + 5, 9);
        let mut stream = framed(&store("refused", 0), &big);
        stream.extend_from_slice(&framed(&store("half", 0), &big));
        stream.extend_from_slice(&encode_frame(&[0xff; 70_000]));
        stream.extend_from_slice(&encode_frame(&[0xff; 9]));
        stream.extend_from_slice(&framed(&store("kept", 7), b"tail"));
        let mut src = Dribble {
            left: &stream,
            sizes: &[50_000, 3, 70_000],
            turn: 0,
        };
        let mut reader = FrameReader::new();
        let mut popped = Vec::new();
        loop {
            match reader.next_message::<DataRequest>() {
                Ok(Some((msg, len))) if msg == store("half", 0) => {
                    let (got, _) = take(&mut reader, &mut src, 4096, 3);
                    assert!(got.len() < len && reader.untaken() == len - got.len());
                    popped.push(Ok(msg));
                }
                Ok(Some((msg, _))) => popped.push(Ok(msg)),
                Err(e) => popped.push(Err(e)),
                Ok(None) if reader.read_from(&mut src).unwrap() == 0 => break,
                Ok(None) => {}
            }
        }
        let undecodable =
            |popped: &Result<DataRequest, FrameError>| matches!(popped, Err(FrameError::Wire(_)));
        assert_eq!(popped.len(), 5);
        assert_eq!(popped[0], Ok(store("refused", 0)));
        assert_eq!(popped[1], Ok(store("half", 0)));
        assert!(undecodable(&popped[2]) && undecodable(&popped[3]));
        assert_eq!(popped[4], Ok(store("kept", 7)));
        assert_eq!(reader.buffered(), 0, "nothing is left over");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The receive path against the reference: small frames and
        /// frames past a megabyte, mixed, cut at arbitrary read
        /// boundaries and taken through pieces of arbitrary size,
        /// yield the messages and payloads `next_frame` yields on the
        /// whole stream — and leaving any of the payloads untaken
        /// changes nothing for the frames behind it.
        #[test]
        fn prop_receive_path_matches_next_frame(
            frames in proptest::collection::vec(
                (prop_oneof![0usize..300, (1usize << 20)..(1 << 20) + 70_000], 0usize..251),
                1..5,
            ),
            sizes in proptest::collection::vec(prop_oneof![1usize..64, 1usize..200_000], 1..6),
            piece in prop_oneof![1usize..4096, 4096usize..(2 << 20)],
            left in 0usize..5,
        ) {
            let mut stream = Vec::new();
            for (i, &(len, salt)) in frames.iter().enumerate() {
                let msg = match len % 3 {
                    0 => DataRequest::Stat { nsid: "ds0".into(), path: format!("f{i}") },
                    // Up to 2 KB of path: a message longer than the
                    // reader's first peek at it.
                    _ => store(&format!("dir/{}f{i}", "p".repeat(salt * 8)), (len * salt) as u64),
                };
                stream.extend_from_slice(&framed(&msg, &pattern(len, salt)));
            }
            let mut reference = FrameReader::new();
            reference.extend(&stream);
            let mut want = Vec::new();
            while let Some(mut frame) = reference.next_frame().unwrap() {
                let msg = DataRequest::decode(&mut frame).unwrap();
                want.push((msg, Some(frame.to_vec())));
            }
            prop_assert_eq!(want.len(), frames.len());

            let got = received(&stream, &sizes, piece, |_| false);
            prop_assert!(got == want);
            let mut skipping = received(&stream, &sizes, piece, |i| i == left);
            if let Some(skipped) = skipping.get_mut(left) {
                prop_assert!(skipped.1.is_none());
                skipped.1 = want[left].1.clone();
            }
            prop_assert!(skipping == want);
        }
    }
}
