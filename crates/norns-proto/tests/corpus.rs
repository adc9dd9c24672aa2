//! Wire-protocol corpus: every message variant of every message set
//! round-trips encode→decode (through raw bytes *and* through the
//! framing layer), and malformed input — truncated frames, wrong
//! version bytes, oversized length prefixes, arbitrary garbage — is
//! rejected with an error, never a panic. This is the compatibility
//! gate a protocol bump (v6 added `ListDir`/`DirEntries`) must keep
//! green.

use bytes::{BufMut, Bytes, BytesMut};
use norns_proto::{
    decode_tagged, encode_frame, encode_tagged, push_frame, BackendKind, CtlRequest, DaemonCommand,
    DaemonStatus, DataRequest, DataResponse, DataspaceDesc, Durability, ErrorCode, FrameError,
    FrameReader, JobDesc, ResourceDesc, Response, TaskOp, TaskSpec, TaskState, TaskStats,
    UserRequest, Wire, WireError, MAX_DIR_ENTRIES, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

fn sample_spec() -> TaskSpec {
    TaskSpec {
        op: TaskOp::Copy,
        priority: 42,
        input: ResourceDesc::RemotePath {
            host: "node07".into(),
            nsid: "pmdk0".into(),
            path: "job/mesh.dat".into(),
        },
        output: Some(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: "mesh.dat".into(),
        }),
        durability: Durability::LocalOnly,
    }
}

fn sample_stats(state: TaskState, error: ErrorCode) -> TaskStats {
    TaskStats {
        state,
        error,
        bytes_total: 1 << 40,
        bytes_moved: 1 << 20,
        wait_usec: 7,
        elapsed_usec: 1_000_001,
    }
}

/// Every `CtlRequest` variant (and through them, every `DaemonCommand`
/// and resource/spec shape).
fn ctl_corpus() -> Vec<CtlRequest> {
    let mut reqs = vec![
        CtlRequest::Status,
        CtlRequest::RegisterDataspace(DataspaceDesc {
            nsid: "pmdk0".into(),
            kind: BackendKind::NvmDax,
            mount: "/mnt/pmem0".into(),
            quota: 1 << 40,
            tracked: true,
        }),
        CtlRequest::UpdateDataspace(DataspaceDesc {
            nsid: "l0".into(),
            kind: BackendKind::Lustre,
            mount: "/lustre".into(),
            quota: 0,
            tracked: false,
        }),
        CtlRequest::UnregisterDataspace { nsid: "l0".into() },
        // Every remaining backend kind crosses the wire at least once
        // (`norns-lint`'s wire-exhaustiveness rule holds this corpus
        // to the full `BackendKind` enum).
        CtlRequest::RegisterDataspace(DataspaceDesc {
            nsid: "fs0".into(),
            kind: BackendKind::PosixFilesystem,
            mount: "/scratch".into(),
            quota: 1 << 30,
            tracked: true,
        }),
        CtlRequest::RegisterDataspace(DataspaceDesc {
            nsid: "tmp0".into(),
            kind: BackendKind::Tmpfs,
            mount: "/tmp/norns".into(),
            quota: 1 << 28,
            tracked: false,
        }),
        CtlRequest::RegisterJob(JobDesc {
            job_id: 42,
            hosts: vec!["n0".into(), "n1".into()],
            limits: vec![("pmdk0".into(), 1 << 30)],
        }),
        CtlRequest::UpdateJob(JobDesc {
            job_id: 42,
            hosts: vec![],
            limits: vec![],
        }),
        CtlRequest::UnregisterJob { job_id: 42 },
        CtlRequest::AddProcess {
            job_id: 42,
            pid: 4242,
            uid: 1000,
            gid: 1000,
        },
        CtlRequest::RemoveProcess {
            job_id: 42,
            pid: 4242,
        },
        CtlRequest::SubmitTask {
            job_id: 42,
            spec: sample_spec(),
        },
        CtlRequest::SubmitTask {
            job_id: 42,
            spec: TaskSpec {
                op: TaskOp::Move,
                priority: 0,
                input: ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "stage/out.dat".into(),
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "l0".into(),
                    path: "archive/out.dat".into(),
                }),
                durability: Durability::LocalPlusOne,
            },
        },
        // v8: every durability mode crosses the wire at least once
        // (`norns-lint`'s wire-exhaustiveness rule holds this corpus
        // to the full `Durability` enum).
        CtlRequest::SubmitTask {
            job_id: 43,
            spec: TaskSpec {
                op: TaskOp::Copy,
                priority: 100,
                input: ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "stage/ckpt.dat".into(),
                },
                output: Some(ResourceDesc::PosixPath {
                    nsid: "pmdk0".into(),
                    path: "stage/ckpt.dat".into(),
                }),
                durability: Durability::Synchronous,
            },
        },
        CtlRequest::WaitTask {
            task_id: 7,
            timeout_usec: 0,
        },
        CtlRequest::QueryTask { task_id: u64::MAX },
        CtlRequest::CancelTask { task_id: 7 },
        CtlRequest::RegisterPeer {
            host: "node07".into(),
            data_addr: "10.0.0.7:50051".into(),
        },
        CtlRequest::ListDir {
            nsid: "lustre".into(),
            path: "case/run1".into(),
        },
        CtlRequest::ListDir {
            nsid: "pmdk0".into(),
            path: "".into(),
        },
    ];
    for cmd in [
        DaemonCommand::Ping,
        DaemonCommand::PauseAccepting,
        DaemonCommand::ResumeAccepting,
        DaemonCommand::ClearCompletions,
        DaemonCommand::Shutdown,
    ] {
        reqs.push(CtlRequest::SendCommand(cmd));
    }
    reqs
}

fn user_corpus() -> Vec<UserRequest> {
    vec![
        UserRequest::GetDataspaceInfo,
        UserRequest::SubmitTask {
            pid: 99,
            spec: TaskSpec {
                op: TaskOp::Remove,
                priority: 0,
                input: ResourceDesc::MemoryRegion {
                    addr: u64::MAX,
                    size: 4096,
                },
                output: None,
                durability: Durability::LocalOnly,
            },
        },
        UserRequest::WaitTask {
            pid: 99,
            task_id: 3,
            timeout_usec: 1,
        },
        UserRequest::QueryTask {
            pid: 99,
            task_id: 3,
        },
        UserRequest::CancelTask {
            pid: 99,
            task_id: 3,
        },
    ]
}

fn data_request_corpus() -> Vec<DataRequest> {
    vec![
        DataRequest::Stat {
            nsid: "pmdk0".into(),
            path: "x".into(),
        },
        DataRequest::Fetch {
            nsid: "pmdk0".into(),
            path: "x".into(),
            offset: 1 << 30,
            len: 4 << 20,
        },
        DataRequest::Prepare {
            nsid: "tmp0".into(),
            path: "y".into(),
            size: 0,
        },
        DataRequest::Store {
            nsid: "tmp0".into(),
            path: "y".into(),
            offset: 0,
        },
        DataRequest::Discard {
            nsid: "tmp0".into(),
            path: "y".into(),
        },
    ]
}

fn data_response_corpus() -> Vec<DataResponse> {
    vec![
        DataResponse::Ok,
        DataResponse::Stat { size: u64::MAX },
        DataResponse::Data,
        DataResponse::Error {
            code: ErrorCode::NoSpace,
            message: "disk full".into(),
        },
    ]
}

fn response_corpus() -> Vec<Response> {
    let mut resps = vec![
        Response::Ok,
        Response::Status(DaemonStatus {
            accepting: false,
            pending_tasks: 1,
            running_tasks: 2,
            completed_tasks: 3,
            cancelled_tasks: 4,
            registered_jobs: 5,
            registered_dataspaces: 6,
            chunk_size: 8 << 20,
            data_addr: "127.0.0.1:40971".into(),
            accept_errors: u64::MAX,
            open_connections: 4096,
            pending_replicas: 17,
            pending_replica_bytes: 48 << 20,
        }),
        Response::Dataspaces(vec![]),
        Response::TaskSubmitted { task_id: u64::MAX },
        Response::DirEntries { entries: vec![] },
        Response::DirEntries {
            entries: vec!["processor0".into(), "αβγ — non-ascii name".into()],
        },
        Response::DirEntries {
            entries: (0..MAX_DIR_ENTRIES).map(|i| format!("f{i}")).collect(),
        },
    ];
    // Every error code and every task state cross the wire somewhere.
    for code in [
        ErrorCode::Success,
        ErrorCode::TaskError,
        ErrorCode::NotFound,
        ErrorCode::PermissionDenied,
        ErrorCode::BadArgs,
        ErrorCode::NoSpace,
        ErrorCode::Timeout,
        ErrorCode::NotRegistered,
        ErrorCode::SystemError,
        ErrorCode::Busy,
    ] {
        resps.push(Response::Error {
            code,
            message: "αβγ — non-ascii survives".into(),
        });
    }
    for state in [
        TaskState::Pending,
        TaskState::InProgress,
        TaskState::Finished,
        TaskState::FinishedWithError,
        TaskState::Cancelled,
    ] {
        resps.push(Response::TaskStatus(sample_stats(
            state,
            ErrorCode::Success,
        )));
    }
    resps
}

/// Round-trip through raw bytes and through a framed stream, then
/// check that chopping the encoding anywhere never panics and that
/// dropping the final byte is always an error (no message tolerates a
/// missing tail field).
fn exhaust<T: Wire + PartialEq + std::fmt::Debug>(corpus: Vec<T>) {
    for msg in corpus {
        let bytes = msg.to_bytes();
        assert_eq!(T::from_bytes(bytes.clone()).unwrap(), msg);
        // Through the framing layer, delivered in 3-byte chunks.
        let framed = encode_frame(&bytes);
        let mut reader = FrameReader::new();
        let mut got = None;
        for chunk in framed.chunks(3) {
            reader.extend(chunk);
            if let Some(frame) = reader.next_frame().unwrap() {
                got = Some(frame);
            }
        }
        assert_eq!(T::from_bytes(got.expect("one frame")).unwrap(), msg);
        // Truncations: never a panic; losing the last byte always errs.
        for cut in 0..bytes.len() {
            let _ = T::from_bytes(bytes.slice(0..cut));
        }
        if !bytes.is_empty() {
            assert!(
                T::from_bytes(bytes.slice(0..bytes.len() - 1)).is_err(),
                "truncated {msg:?} decoded"
            );
        }
    }
}

#[test]
fn every_ctl_request_roundtrips_and_rejects_truncation() {
    exhaust(ctl_corpus());
}

#[test]
fn every_user_request_roundtrips_and_rejects_truncation() {
    exhaust(user_corpus());
}

#[test]
fn every_data_message_roundtrips_and_rejects_truncation() {
    exhaust(data_request_corpus());
    exhaust(data_response_corpus());
}

#[test]
fn every_response_roundtrips_and_rejects_truncation() {
    exhaust(response_corpus());
}

#[test]
fn wrong_version_byte_rejected_for_every_message() {
    for msg in ctl_corpus() {
        let bytes = msg.to_bytes();
        let mut buf = BytesMut::new();
        buf.put_u32_le(bytes.len() as u32 + 1);
        buf.put_u8(PROTOCOL_VERSION.wrapping_sub(1)); // a v5 peer
        buf.put_slice(&bytes);
        let mut reader = FrameReader::new();
        reader.extend(&buf);
        assert!(
            matches!(reader.next_frame(), Err(FrameError::BadVersion(_))),
            "stale peer must be rejected at the framing layer"
        );
    }
}

#[test]
fn oversized_and_zero_length_prefixes_rejected() {
    for bad_len in [0u32, MAX_FRAME_LEN + 1, u32::MAX] {
        let mut reader = FrameReader::new();
        reader.extend(&bad_len.to_le_bytes());
        assert!(
            matches!(reader.next_frame(), Err(FrameError::TooLarge(_))),
            "length {bad_len} must be rejected before buffering"
        );
    }
    // An oversized *element* length inside a structurally valid frame
    // must be a wire error, not an allocation.
    let mut payload = BytesMut::new();
    payload.put_u8(2); // CtlRequest::RegisterDataspace
    payload.put_u8(0xff); // nsid length varint: huge
    payload.put_u8(0xff);
    payload.put_u8(0xff);
    payload.put_u8(0xff);
    payload.put_u8(0x7f);
    assert!(CtlRequest::from_bytes(payload.freeze()).is_err());
}

/// `BackendKind` discriminants 2 (`NvmeSsd`) and 5 (`BurstBuffer`) are
/// retired: a peer that still sends one is refused, not reinterpreted.
#[test]
fn retired_backend_discriminants_rejected() {
    let desc = DataspaceDesc {
        nsid: "nvme0".into(),
        kind: BackendKind::Tmpfs,
        mount: "/mnt/nvme0".into(),
        quota: 1 << 38,
        tracked: true,
    };
    let bytes = desc.to_bytes();
    // Layout: varint nsid length, nsid, then the one-byte kind.
    let kind_at = 1 + desc.nsid.len();
    assert_eq!(bytes[kind_at], 4, "Tmpfs keeps discriminant 4");
    for retired in [2u8, 5] {
        let mut patched = BytesMut::from(&bytes[..]);
        patched[kind_at] = retired;
        assert_eq!(
            DataspaceDesc::from_bytes(patched.freeze()),
            Err(WireError::BadDiscriminant(retired as u64))
        );
    }
}

/// v5's batch wait is retired: `CtlRequest` 15 and `UserRequest` 5
/// (`WaitAny`) and `Response` 6 (`TaskCompleted`) are refused, not
/// reinterpreted, however well-formed the body behind them.
#[test]
fn retired_wait_any_discriminants_rejected() {
    let encode = |disc: u64, fields: &[u64], stats: Option<TaskStats>| {
        let mut buf = BytesMut::new();
        for v in std::iter::once(disc).chain(fields.iter().copied()) {
            norns_proto::wire::put_varint(&mut buf, v);
        }
        if let Some(stats) = stats {
            stats.encode(&mut buf);
        }
        buf.freeze()
    };
    // The bodies they carried: a one-id set and a timeout (behind a
    // pid on the user socket); a task id and its stats.
    assert_eq!(
        CtlRequest::from_bytes(encode(15, &[1, 7, 0], None)),
        Err(WireError::BadDiscriminant(15))
    );
    assert_eq!(
        UserRequest::from_bytes(encode(5, &[99, 1, 7, 0], None)),
        Err(WireError::BadDiscriminant(5))
    );
    let stats = sample_stats(TaskState::Finished, ErrorCode::Success);
    assert_eq!(
        Response::from_bytes(encode(6, &[7], Some(stats))),
        Err(WireError::BadDiscriminant(6))
    );
}

#[test]
fn hostile_dir_entry_count_rejected() {
    let mut buf = BytesMut::new();
    buf.put_u8(7); // Response::DirEntries
                   // Count claims u64::MAX names follow.
    for _ in 0..9 {
        buf.put_u8(0xff);
    }
    buf.put_u8(0x01);
    assert!(Response::from_bytes(buf.freeze()).is_err());
}

#[test]
fn truncated_frames_wait_for_more_bytes_without_spurious_frames() {
    let framed = encode_frame(b"payload");
    for cut in 0..framed.len() {
        let mut reader = FrameReader::new();
        reader.extend(&framed[..cut]);
        assert_eq!(
            reader.next_frame().unwrap(),
            None,
            "prefix of {cut} bytes is not a frame"
        );
    }
}

#[test]
fn garbage_streams_never_panic() {
    // Deterministic pseudo-random garbage thrown at every decoder and
    // at the frame reader; errors are fine, panics are not.
    let mut x: u64 = 0x9e3779b97f4a7c15;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for round in 0..256 {
        let len = (round % 61) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| step() as u8).collect();
        let b = Bytes::from(garbage.clone());
        let _ = CtlRequest::from_bytes(b.clone());
        let _ = UserRequest::from_bytes(b.clone());
        let _ = DataRequest::from_bytes(b.clone());
        let _ = DataResponse::from_bytes(b.clone());
        let _ = Response::from_bytes(b);
        let mut reader = FrameReader::new();
        reader.extend(&garbage);
        // Drain until the reader errors or wants more input.
        while let Ok(Some(_)) = reader.next_frame() {}
    }
}

/// The tag values worth exercising: zero, a one-byte varint, the
/// 1/2-byte varint boundary, and the full 10-byte encoding.
const TAG_CORPUS: [u64; 5] = [0, 1, 0x7f, 0x80, u64::MAX];

#[test]
fn v7_tagged_payloads_roundtrip_for_every_message() {
    for tag in TAG_CORPUS {
        for msg in ctl_corpus() {
            let (t, got) = decode_tagged::<CtlRequest>(encode_tagged(tag, &msg)).unwrap();
            assert_eq!((t, got), (tag, msg));
        }
        for msg in user_corpus() {
            let (t, got) = decode_tagged::<UserRequest>(encode_tagged(tag, &msg)).unwrap();
            assert_eq!((t, got), (tag, msg));
        }
        for msg in response_corpus() {
            let (t, got) = decode_tagged::<Response>(encode_tagged(tag, &msg)).unwrap();
            assert_eq!((t, got), (tag, msg));
        }
    }
}

#[test]
fn truncated_tagged_payloads_error_without_panic() {
    // An empty payload has no tag at all.
    assert!(decode_tagged::<Response>(Bytes::new()).is_err());
    for tag in TAG_CORPUS {
        for msg in response_corpus() {
            let bytes = encode_tagged(tag, &msg);
            for cut in 0..bytes.len() {
                let _ = decode_tagged::<Response>(bytes.slice(0..cut));
            }
            assert!(
                decode_tagged::<Response>(bytes.slice(0..bytes.len() - 1)).is_err(),
                "tagged {msg:?} decoded with its last byte missing"
            );
        }
    }
    // A frame that is *only* a tag (varint present, message body
    // absent) must also error, not panic.
    for tag in TAG_CORPUS {
        let mut buf = BytesMut::new();
        norns_proto::wire::put_varint(&mut buf, tag);
        assert!(decode_tagged::<CtlRequest>(buf.freeze()).is_err());
    }
}

#[test]
fn v7_tagged_frames_survive_the_framing_layer() {
    // A pipelined burst: many tagged requests coalesced into one byte
    // stream, delivered in awkward chunks, decode back in order with
    // their tags intact.
    let reqs: Vec<CtlRequest> = ctl_corpus();
    let mut stream = BytesMut::new();
    for (i, r) in reqs.iter().enumerate() {
        stream.put_slice(&encode_frame(&encode_tagged(i as u64, r)));
    }
    let stream = stream.freeze();
    let mut reader = FrameReader::new();
    let mut seen = Vec::new();
    for chunk in stream.chunks(7) {
        reader.extend(chunk);
        while let Some(frame) = reader.next_frame().unwrap() {
            seen.push(decode_tagged::<CtlRequest>(frame).unwrap());
        }
    }
    assert_eq!(seen.len(), reqs.len());
    for (i, (tag, req)) in seen.into_iter().enumerate() {
        assert_eq!(tag, i as u64);
        assert_eq!(req, reqs[i]);
    }
}

/// Golden bytes: the encoding of every entry of the five corpora, and
/// of one tagged framed request, pinned byte for byte in
/// `golden_v8.hex`. Round trips cannot see a field reorder or a moved
/// discriminant — both ends move together; this can. A deliberate
/// wire change bumps `PROTOCOL_VERSION` and replaces the table: on a
/// mismatch the table this build produces is left beside the test
/// binary's scratch directory to diff against or copy over.
///
/// A retired variant's corpus entries leave the table with it, and
/// their slot numbers are not handed out again, so every surviving
/// line keeps the label it was pinned under.
#[test]
fn golden_bytes_pin_every_layout() {
    /// Slots of the retired v5 batch wait: `CtlRequest::WaitAny` (2),
    /// `UserRequest::WaitAny` and `Response::TaskCompleted` (one per
    /// task state).
    const RETIRED_SLOTS: [(&str, usize); 8] = [
        ("ctl", 18),
        ("ctl", 19),
        ("user", 5),
        ("response", 18),
        ("response", 20),
        ("response", 22),
        ("response", 24),
        ("response", 26),
    ];
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
    fn dump<T: Wire>(name: &str, corpus: Vec<T>, table: &mut String) {
        let slots = (0..).filter(|&i| !RETIRED_SLOTS.contains(&(name, i)));
        for (i, msg) in slots.zip(&corpus) {
            table.push_str(&format!("{name}[{i}] {}\n", hex(&msg.to_bytes())));
        }
    }
    let mut table = String::new();
    dump("ctl", ctl_corpus(), &mut table);
    dump("user", user_corpus(), &mut table);
    dump("data_request", data_request_corpus(), &mut table);
    dump("data_response", data_response_corpus(), &mut table);
    dump("response", response_corpus(), &mut table);
    let submit = CtlRequest::SubmitTask {
        job_id: 42,
        spec: sample_spec(),
    };
    let framed = encode_frame(&encode_tagged(0x80, &submit));
    table.push_str(&format!("tagged_frame {}\n", hex(&framed)));

    let golden = include_str!("golden_v8.hex");
    if table != golden {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_v8.hex");
        std::fs::write(&actual, &table).expect("write this build's table");
        let first = table
            .lines()
            .zip(golden.lines())
            .find(|(built, pinned)| built != pinned)
            .map_or("the entry count", |(built, _)| {
                built.split(' ').next().unwrap_or(built)
            });
        panic!(
            "wire layout differs from tests/golden_v8.hex at {first}; this build's table is in {}",
            actual.display()
        );
    }
}

/// The in-place frame assembler against the reference it replaced at
/// the five frame sites: for every corpus entry, with and without a
/// tag and a trailing payload, behind bytes already queued in the
/// buffer, `push_frame` appends exactly
/// `encode_frame([tag] + message + payload)`.
#[test]
fn push_frame_matches_the_copying_reference_for_every_message() {
    fn check<T: Wire>(corpus: Vec<T>) {
        for msg in &corpus {
            for payload in [&b""[..], b"trailing payload"] {
                let untagged = encode_frame(&[&msg.to_bytes()[..], payload].concat());
                let tagged = encode_frame(&[&encode_tagged(0x80, msg)[..], payload].concat());
                let mut out = BytesMut::from(&b"queued"[..]);
                push_frame(&mut out, None, msg, 0, |out| out.put_slice(payload));
                push_frame(&mut out, Some(0x80), msg, 0, |out| out.put_slice(payload));
                assert_eq!(
                    &out[..],
                    &[b"queued", &untagged[..], &tagged[..]].concat()[..]
                );
                // A payload promised behind the buffer (a `sendfile`d
                // range) is counted in the header and nowhere else.
                let mut head = BytesMut::new();
                push_frame(&mut head, None, msg, payload.len(), |_| ());
                assert_eq!(&head[..], &untagged[..untagged.len() - payload.len()]);
            }
        }
    }
    check(ctl_corpus());
    check(user_corpus());
    check(data_request_corpus());
    check(data_response_corpus());
    check(response_corpus());
}
