//! The NORNS message set.
//!
//! Mirrors Table I of the paper: the administrative `nornsctl` surface
//! (daemon management, dataspace/job/process registration, task
//! control) and the user `norns` surface (dataspace queries, task
//! submission/monitoring). Each API speaks over its own socket; both
//! share [`Response`].
//!
//! Every layout is stated once, in its listing below: a struct's
//! fields, or an enum's `discriminant => Variant` list, cross the wire
//! in listing order, and `wire_struct!` / `wire_enum!` emit the type as
//! written plus both directions of its [`Wire`] impl. Adding a message
//! is one listing line here, one entry in `tests/corpus.rs` (with its
//! line in `tests/golden_v8.hex`) and, for a request, one dispatch
//! arm; `norns-lint` refuses a variant that skips the last two.
//! Retiring a message is deleting its line: its number then decodes to
//! `BadDiscriminant` and is never reused (`BackendKind` 2 and 5, and
//! v5's batch wait — `CtlRequest` 15, `UserRequest` 5, `Response` 6 —
//! whose work a parked `WaitTask` per task on one pipelined v7
//! connection does).

use bytes::{Bytes, BytesMut};

use crate::wire::{get_seq, get_varint, put_varint, wire_enum, wire_struct, Wire, WireError};

wire_enum! {
    /// Storage backend kinds a dataspace can be backed by (paper §IV-A:
    /// "lustre://", "nvme0://", "pmdk0://" ...).
    ///
    /// Discriminants 2 and 5 are retired (`NvmeSsd`, `BurstBuffer`: no
    /// caller ever registered one); they decode to `BadDiscriminant`
    /// and must not be reused.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum BackendKind {
        0 => PosixFilesystem,
        1 => Lustre,
        3 => NvmDax,
        4 => Tmpfs,
    }
}

wire_struct! {
    /// A dataspace visible to jobs on a node.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DataspaceDesc {
        /// Dataspace id, e.g. `pmdk0`.
        pub nsid: String,
        pub kind: BackendKind,
        /// Backing mount point or root path on the node.
        pub mount: String,
        /// Byte quota granted to the owning job (0 = unlimited).
        pub quota: u64,
        /// Whether Slurm asked NORNS to "track" this dataspace (check
        /// emptiness at node release; paper §IV-A).
        pub tracked: bool,
    }
}

wire_enum! {
    /// One end of an I/O task (paper Listing 2: `NORNS_MEMORY_REGION`,
    /// `NORNS_POSIX_PATH`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ResourceDesc {
        /// A region of the calling process' memory.
        0 => MemoryRegion { addr: u64, size: u64 },
        /// A path inside a dataspace on this node.
        1 => PosixPath { nsid: String, path: String },
        /// A path inside a dataspace on a remote node.
        2 => RemotePath {
            host: String,
            nsid: String,
            path: String,
        },
    }
}

wire_enum! {
    /// Task operation (`iotask_init(type, input, output)`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TaskOp {
        0 => Copy,
        1 => Move,
        2 => Remove,
    }
}

wire_enum! {
    /// Durability policy for a stage-out (v8). Governs when the task ACKs
    /// (reaches a terminal `Finished`) relative to background replication
    /// to the daemon's registered peers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum Durability {
        /// The local leg is the whole task — no replication. Best-effort
        /// durability: origin loss loses the data. The pre-v8 behaviour,
        /// and the default.
        #[default]
        0 => LocalOnly,
        /// ACK as soon as the local leg lands, then asynchronously push
        /// one copy to a peer in the background. Origin loss after the
        /// replication lag drains leaves a surviving replica.
        1 => LocalPlusOne,
        /// Do not ACK until the local leg *and* every replica
        /// (`target_copies` peers) have landed. Strongest guarantee,
        /// highest ACK latency.
        2 => Synchronous,
    }
}

wire_struct! {
    /// A full I/O task description.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TaskSpec {
        pub op: TaskOp,
        /// Submitter-assigned urgency (higher runs earlier under the
        /// daemon's priority-aware arbitration policies). Most callers use
        /// [`DEFAULT_PRIORITY`].
        pub priority: u8,
        pub input: ResourceDesc,
        /// Absent for `Remove`.
        pub output: Option<ResourceDesc>,
        /// Replication policy for the task's output (v8). Only meaningful
        /// for local stage-outs (a `Copy` or `Move` to a `PosixPath` on
        /// the same node); everything else must use
        /// [`Durability::LocalOnly`].
        pub durability: Durability,
    }
}

/// Default task priority (mirrors `norns_sched::DEFAULT_PRIORITY`;
/// duplicated so the wire crate stays dependency-free).
pub const DEFAULT_PRIORITY: u8 = 100;

impl TaskSpec {
    /// Spec with the default priority and [`Durability::LocalOnly`].
    pub fn new(op: TaskOp, input: ResourceDesc, output: Option<ResourceDesc>) -> Self {
        TaskSpec {
            op,
            priority: DEFAULT_PRIORITY,
            input,
            output,
            durability: Durability::LocalOnly,
        }
    }

    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}

wire_enum! {
    /// Task lifecycle states (paper: pending queue → workers → completion
    /// list).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TaskState {
        0 => Pending,
        1 => InProgress,
        2 => Finished,
        3 => FinishedWithError,
        /// Cancelled: dropped while still pending, or (for decomposed
        /// chunked/remote transfers) interrupted mid-stream with partial
        /// output cleaned up (v4).
        4 => Cancelled,
    }
}

impl TaskState {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Finished | TaskState::FinishedWithError | TaskState::Cancelled
        )
    }
}

wire_enum! {
    /// Error codes, after the C API's `NORNS_*` values.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode {
        0 => Success,
        1 => TaskError,
        2 => NotFound,
        3 => PermissionDenied,
        4 => BadArgs,
        5 => NoSpace,
        6 => Timeout,
        7 => NotRegistered,
        8 => SystemError,
        /// EAGAIN-style admission rejection: the daemon's bounded task
        /// queue is full; retry later.
        9 => Busy,
    }
}

wire_struct! {
    /// Completion statistics (`norns_error(&tsk, &stats)`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TaskStats {
        pub state: TaskState,
        pub error: ErrorCode,
        pub bytes_total: u64,
        pub bytes_moved: u64,
        /// Queue wait: submission → first worker touch (µs); for a task
        /// that never started (cancelled while pending, or by
        /// shutdown), submission → its terminal transition.
        pub wait_usec: u64,
        /// First worker touch → terminal transition (µs): a remote
        /// transfer's plan and a `synchronous` stage-out's replicas
        /// included; 0 for a task that never started. So
        /// `wait_usec + elapsed_usec` is the task's submit → terminal
        /// span.
        pub elapsed_usec: u64,
    }
}

wire_struct! {
    /// Job registration payload (`job_init(hosts, limits)`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JobDesc {
        pub job_id: u64,
        pub hosts: Vec<String>,
        /// Per-dataspace byte quotas: (nsid, bytes).
        pub limits: Vec<(String, u64)>,
    }
}

wire_enum! {
    /// Daemon-level commands (`nornsctl_send_command`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DaemonCommand {
        0 => Ping,
        1 => PauseAccepting,
        2 => ResumeAccepting,
        3 => ClearCompletions,
        4 => Shutdown,
    }
}

wire_enum! {
    /// Requests accepted on the *control* socket (Table I, top half).
    ///
    /// Discriminant 15 is retired (`WaitAny`, v5's batch wait: since v7
    /// one pipelined connection holds a parked `WaitTask` per task
    /// instead); it decodes to `BadDiscriminant` and must not be reused.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum CtlRequest {
        0 => SendCommand(DaemonCommand),
        1 => Status,
        2 => RegisterDataspace(DataspaceDesc),
        3 => UpdateDataspace(DataspaceDesc),
        4 => UnregisterDataspace {
            nsid: String,
        },
        5 => RegisterJob(JobDesc),
        6 => UpdateJob(JobDesc),
        7 => UnregisterJob {
            job_id: u64,
        },
        8 => AddProcess {
            job_id: u64,
            pid: u64,
            uid: u32,
            gid: u32,
        },
        9 => RemoveProcess {
            job_id: u64,
            pid: u64,
        },
        10 => SubmitTask {
            job_id: u64,
            spec: TaskSpec,
        },
        11 => WaitTask {
            task_id: u64,
            timeout_usec: u64,
        },
        12 => QueryTask {
            task_id: u64,
        },
        /// Drop the task if still pending (`TaskState::Cancelled`), or
        /// interrupt it mid-stream if the data plane can abort it (chunked
        /// and remote transfers); other running tasks are left untouched.
        13 => CancelTask {
            task_id: u64,
        },
        /// Map a `RemotePath.host` to that daemon's data-plane address
        /// (v4). Registering an existing host updates its address.
        14 => RegisterPeer {
            host: String,
            data_addr: String,
        },
        /// Enumerate the children of a directory inside a dataspace (v6).
        /// Answered by [`Response::DirEntries`] with the child names
        /// sorted, capped at [`MAX_DIR_ENTRIES`]. This is what real-mode
        /// `scatter`/`gather` planning uses to split a directory's
        /// children across a job's nodes. Paths go through the same
        /// dataspace containment checks as task submissions; a
        /// non-directory path yields [`ErrorCode::BadArgs`].
        16 => ListDir {
            nsid: String,
            path: String,
        },
    }
}

/// Largest entry list one [`Response::DirEntries`] may carry (v6). A
/// hostile length prefix must not trigger a huge allocation, and a
/// scatter planner looping over the entries must stay bounded; daemons
/// refuse to enumerate larger directories rather than silently
/// truncating.
pub const MAX_DIR_ENTRIES: usize = 4096;

wire_enum! {
    /// Requests accepted on the *user* socket (Table I, bottom half).
    ///
    /// Discriminant 5 is retired (`WaitAny`, as on the control socket);
    /// it decodes to `BadDiscriminant` and must not be reused.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum UserRequest {
        0 => GetDataspaceInfo,
        1 => SubmitTask {
            pid: u64,
            spec: TaskSpec,
        },
        /// Wait for one of the caller's own tasks (v4: carries the pid —
        /// observation through the world-connectable user socket is scoped
        /// to the submitter, exactly like cancellation, so one job cannot
        /// watch another's transfers).
        2 => WaitTask {
            pid: u64,
            task_id: u64,
            timeout_usec: u64,
        },
        /// Query one of the caller's own tasks (pid-scoped; see
        /// [`UserRequest::WaitTask`]).
        3 => QueryTask {
            pid: u64,
            task_id: u64,
        },
        /// Drop the task if still pending; mirrors the control API but
        /// carries the caller's pid — user-socket cancels only apply to
        /// the caller's own tasks.
        4 => CancelTask {
            pid: u64,
            task_id: u64,
        },
    }
}

wire_struct! {
    /// Daemon status snapshot (`nornsctl_status`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DaemonStatus {
        pub accepting: bool,
        pub pending_tasks: u64,
        pub running_tasks: u64,
        pub completed_tasks: u64,
        /// Tasks cancelled before a worker touched them (v3).
        pub cancelled_tasks: u64,
        pub registered_jobs: u64,
        pub registered_dataspaces: u64,
        /// Active data-plane chunk size in bytes: transfers larger than
        /// this are decomposed into chunk sub-units executed by multiple
        /// workers (v3).
        pub chunk_size: u64,
        /// TCP address of the daemon's remote-staging data plane, empty
        /// when no data-plane listener is configured (v4).
        pub data_addr: String,
        /// Listener `accept(2)` failures since start — nonzero under fd
        /// exhaustion (EMFILE) or similar pressure (v7).
        pub accept_errors: u64,
        /// Control/user connections currently open on the reactor (v7).
        pub open_connections: u64,
        /// Replica push tasks still outstanding in the background
        /// replication queue (v8). Zero means every accepted stage-out's
        /// durability guarantee has been met — the replication lag has
        /// drained.
        pub pending_replicas: u64,
        /// Bytes those outstanding replicas still have to move (v8).
        pub pending_replica_bytes: u64,
    }
}

/// Largest byte range one [`DataRequest::Fetch`] or
/// [`DataRequest::Store`] may carry. Must stay comfortably under
/// [`crate::MAX_FRAME_LEN`] (the payload travels inside one frame);
/// transfers iterate ranges of at most this size per round-trip, which
/// is also the granularity of live progress and mid-stream cancels.
pub const MAX_DATA_RANGE: u64 = 4 << 20;

wire_enum! {
    /// Requests spoken on the TCP *data plane* between daemons (v4).
    ///
    /// The wire format mirrors the control sockets — length-prefixed,
    /// versioned frames — but the peer is another urd, not a client: a
    /// daemon executing a `RemotePath` transfer fetches or stores file
    /// ranges inside the serving daemon's dataspaces. Paths go through the
    /// same dataspace containment checks as local submissions.
    ///
    /// Security: the data plane carries no authentication (the paper's
    /// deployment model trusts the compute fabric). Bind it to loopback or
    /// an interconnect unreachable from user networks.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DataRequest {
        /// Size probe for a file inside a dataspace (pull planning).
        0 => Stat { nsid: String, path: String },
        /// Read up to `len` bytes at `offset`; answered by
        /// [`DataResponse::Data`] whose payload is the frame remainder.
        1 => Fetch {
            nsid: String,
            path: String,
            offset: u64,
            len: u64,
        },
        /// Create the destination (parents included) and allocate all
        /// `size` bytes of it before the first `Store` (push planning:
        /// `fallocate(2)`, or the length alone on a filesystem that
        /// cannot allocate ahead). A full disk or quota is refused here,
        /// before any range moves.
        2 => Prepare {
            nsid: String,
            path: String,
            size: u64,
        },
        /// Write the frame-remainder payload at `offset`.
        3 => Store {
            nsid: String,
            path: String,
            offset: u64,
        },
        /// Remove a file: a partially staged destination after a failed
        /// or cancelled push, or a pulled `Move`'s source once it has
        /// landed. Missing files are not an error.
        4 => Discard { nsid: String, path: String },
    }
}

wire_enum! {
    /// Data-plane responses (v4).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DataResponse {
        0 => Ok,
        1 => Stat {
            size: u64,
        },
        /// The fetched bytes follow as the frame remainder; a shorter
        /// payload than requested means the range crossed end-of-file.
        2 => Data,
        3 => Error {
            code: ErrorCode,
            message: String,
        },
    }
}

wire_enum! {
    /// Responses shared by both sockets.
    ///
    /// Discriminant 6 is retired (`TaskCompleted`, the answer to the
    /// retired `WaitAny`); it decodes to `BadDiscriminant` and must not
    /// be reused.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        0 => Ok,
        1 => Error {
            code: ErrorCode,
            message: String,
        },
        2 => Status(DaemonStatus),
        3 => Dataspaces(Vec<DataspaceDesc>),
        4 => TaskSubmitted {
            task_id: u64,
        },
        5 => TaskStatus(TaskStats),
        /// Answer to `ListDir` (v6): the directory's child names, sorted,
        /// at most [`MAX_DIR_ENTRIES`] of them.
        7 => DirEntries {
            entries: Vec<String> [..= MAX_DIR_ENTRIES],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn dataspace_roundtrip() {
        roundtrip(DataspaceDesc {
            nsid: "pmdk0".into(),
            kind: BackendKind::NvmDax,
            mount: "/mnt/pmem0".into(),
            quota: 1 << 40,
            tracked: true,
        });
    }

    #[test]
    fn resource_variants_roundtrip() {
        roundtrip(ResourceDesc::MemoryRegion {
            addr: 0xdead_beef,
            size: 4096,
        });
        roundtrip(ResourceDesc::PosixPath {
            nsid: "tmp0".into(),
            path: "path/to/out".into(),
        });
        roundtrip(ResourceDesc::RemotePath {
            host: "node07".into(),
            nsid: "pmdk0".into(),
            path: "job42/mesh.dat".into(),
        });
    }

    #[test]
    fn taskspec_with_and_without_output() {
        roundtrip(TaskSpec {
            op: TaskOp::Copy,
            priority: 255,
            input: ResourceDesc::MemoryRegion { addr: 1, size: 2 },
            output: Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: "o".into(),
            }),
            durability: Durability::Synchronous,
        });
        roundtrip(TaskSpec {
            op: TaskOp::Remove,
            priority: 0,
            input: ResourceDesc::PosixPath {
                nsid: "lustre".into(),
                path: "x".into(),
            },
            output: None,
            durability: Durability::LocalOnly,
        });
        let spec = TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: "a".into(),
                path: "b".into(),
            },
            None,
        );
        assert_eq!(spec.priority, DEFAULT_PRIORITY);
        assert_eq!(spec.durability, Durability::LocalOnly);
        roundtrip(
            spec.with_priority(7)
                .with_durability(Durability::LocalPlusOne),
        );
    }

    #[test]
    fn all_ctl_requests_roundtrip() {
        let reqs = vec![
            CtlRequest::SendCommand(DaemonCommand::Ping),
            CtlRequest::SendCommand(DaemonCommand::Shutdown),
            CtlRequest::Status,
            CtlRequest::RegisterDataspace(DataspaceDesc {
                nsid: "lustre".into(),
                kind: BackendKind::Lustre,
                mount: "/lustre".into(),
                quota: 0,
                tracked: false,
            }),
            CtlRequest::UnregisterDataspace {
                nsid: "lustre".into(),
            },
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
                spec: TaskSpec {
                    op: TaskOp::Move,
                    priority: 42,
                    input: ResourceDesc::PosixPath {
                        nsid: "pmdk0".into(),
                        path: "a".into(),
                    },
                    output: Some(ResourceDesc::PosixPath {
                        nsid: "lustre".into(),
                        path: "b".into(),
                    }),
                    durability: Durability::LocalPlusOne,
                },
            },
            CtlRequest::WaitTask {
                task_id: 7,
                timeout_usec: 1_000_000,
            },
            CtlRequest::QueryTask { task_id: 7 },
            CtlRequest::CancelTask { task_id: 7 },
            CtlRequest::RegisterPeer {
                host: "node07".into(),
                data_addr: "10.0.0.7:50051".into(),
            },
            CtlRequest::ListDir {
                nsid: "lustre".into(),
                path: "case".into(),
            },
        ];
        for r in reqs {
            let b = r.to_bytes();
            assert_eq!(CtlRequest::from_bytes(b).unwrap(), r);
        }
    }

    #[test]
    fn all_user_requests_roundtrip() {
        let reqs = vec![
            UserRequest::GetDataspaceInfo,
            UserRequest::SubmitTask {
                pid: 99,
                spec: TaskSpec {
                    op: TaskOp::Copy,
                    priority: DEFAULT_PRIORITY,
                    input: ResourceDesc::MemoryRegion {
                        addr: 0,
                        size: 1 << 20,
                    },
                    output: Some(ResourceDesc::PosixPath {
                        nsid: "tmp0".into(),
                        path: "ckpt".into(),
                    }),
                    durability: Durability::Synchronous,
                },
            },
            UserRequest::WaitTask {
                pid: 99,
                task_id: 3,
                timeout_usec: 0,
            },
            UserRequest::QueryTask {
                pid: 99,
                task_id: 3,
            },
            UserRequest::CancelTask {
                pid: 99,
                task_id: 3,
            },
        ];
        for r in reqs {
            let b = r.to_bytes();
            assert_eq!(UserRequest::from_bytes(b).unwrap(), r);
        }
    }

    #[test]
    fn all_responses_roundtrip() {
        let resps = vec![
            Response::Ok,
            Response::Error {
                code: ErrorCode::PermissionDenied,
                message: "denied".into(),
            },
            Response::Status(DaemonStatus {
                accepting: true,
                pending_tasks: 1,
                running_tasks: 2,
                completed_tasks: 3,
                cancelled_tasks: 6,
                registered_jobs: 4,
                registered_dataspaces: 5,
                chunk_size: 8 << 20,
                data_addr: "127.0.0.1:40971".into(),
                accept_errors: 9,
                open_connections: 1024,
                pending_replicas: 3,
                pending_replica_bytes: 48 << 20,
            }),
            Response::Dataspaces(vec![DataspaceDesc {
                nsid: "pmdk0".into(),
                kind: BackendKind::NvmDax,
                mount: "/mnt/pmem0".into(),
                quota: 7,
                tracked: false,
            }]),
            Response::TaskSubmitted { task_id: 1234 },
            Response::TaskStatus(TaskStats {
                state: TaskState::Finished,
                error: ErrorCode::Success,
                bytes_total: 100,
                bytes_moved: 100,
                wait_usec: 21,
                elapsed_usec: 555,
            }),
            Response::TaskStatus(TaskStats {
                state: TaskState::Cancelled,
                error: ErrorCode::Busy,
                bytes_total: 0,
                bytes_moved: 0,
                wait_usec: 0,
                elapsed_usec: 0,
            }),
            Response::DirEntries { entries: vec![] },
            Response::DirEntries {
                entries: vec!["processor0".into(), "processor1".into()],
            },
        ];
        for r in resps {
            let b = r.to_bytes();
            assert_eq!(Response::from_bytes(b).unwrap(), r);
        }
    }

    #[test]
    fn all_data_messages_roundtrip() {
        let reqs = vec![
            DataRequest::Stat {
                nsid: "pmdk0".into(),
                path: "job42/mesh.dat".into(),
            },
            DataRequest::Fetch {
                nsid: "pmdk0".into(),
                path: "job42/mesh.dat".into(),
                offset: 8 << 20,
                len: 1 << 20,
            },
            DataRequest::Prepare {
                nsid: "tmp0".into(),
                path: "staged/out.dat".into(),
                size: 1 << 30,
            },
            DataRequest::Store {
                nsid: "tmp0".into(),
                path: "staged/out.dat".into(),
                offset: 0,
            },
            DataRequest::Discard {
                nsid: "tmp0".into(),
                path: "staged/out.dat".into(),
            },
        ];
        for r in reqs {
            let b = r.to_bytes();
            assert_eq!(DataRequest::from_bytes(b).unwrap(), r);
        }
        let resps = vec![
            DataResponse::Ok,
            DataResponse::Stat { size: 42 << 20 },
            DataResponse::Data,
            DataResponse::Error {
                code: ErrorCode::PermissionDenied,
                message: "path escape".into(),
            },
        ];
        for r in resps {
            let b = r.to_bytes();
            assert_eq!(DataResponse::from_bytes(b).unwrap(), r);
        }
    }

    #[test]
    fn data_request_payload_rides_behind_the_header() {
        // Data-plane frames carry the range payload after the encoded
        // request, exactly like control-socket memory payloads.
        let req = DataRequest::Store {
            nsid: "tmp0".into(),
            path: "x".into(),
            offset: 7,
        };
        let mut framed = BytesMut::from(&req.to_bytes()[..]);
        framed.extend_from_slice(b"range bytes");
        let mut buf = framed.freeze();
        let back = DataRequest::decode(&mut buf).unwrap();
        assert_eq!(back, req);
        assert_eq!(&buf[..], b"range bytes");
    }

    #[test]
    fn garbage_decodes_to_error_not_panic() {
        for len in 0..64 {
            let garbage: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = CtlRequest::from_bytes(Bytes::from(garbage.clone()));
            let _ = UserRequest::from_bytes(Bytes::from(garbage.clone()));
            let _ = DataRequest::from_bytes(Bytes::from(garbage.clone()));
            let _ = DataResponse::from_bytes(Bytes::from(garbage.clone()));
            let _ = Response::from_bytes(Bytes::from(garbage));
        }
    }

    #[test]
    fn oversized_dir_entry_list_rejected() {
        // A hostile entry count must be rejected before the per-name
        // decode loop allocates or spins.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 7); // Response::DirEntries
        put_varint(&mut buf, MAX_DIR_ENTRIES as u64 + 1);
        assert!(matches!(
            Response::from_bytes(buf.freeze()),
            Err(WireError::BadLength(_))
        ));
        let entries: Vec<String> = (0..MAX_DIR_ENTRIES).map(|i| format!("f{i}")).collect();
        roundtrip(Response::DirEntries { entries });
    }

    #[test]
    fn out_of_range_narrow_fields_rejected_not_truncated() {
        // A `uid` of 2^32 used to decode as uid 0 (root).
        let encode = |uid: u64| {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, 8); // CtlRequest::AddProcess
            for field in [42, 4242, uid, 1000] {
                put_varint(&mut buf, field);
            }
            buf.freeze()
        };
        assert_eq!(
            CtlRequest::from_bytes(encode(u32::MAX as u64)).unwrap(),
            CtlRequest::AddProcess {
                job_id: 42,
                pid: 4242,
                uid: u32::MAX,
                gid: 1000,
            }
        );
        assert_eq!(
            CtlRequest::from_bytes(encode(1 << 32)),
            Err(WireError::BadLength(1 << 32))
        );
    }

    #[test]
    fn bad_discriminants_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 99);
        assert!(matches!(
            Response::from_bytes(buf.freeze()),
            Err(WireError::BadDiscriminant(99))
        ));
    }
}
