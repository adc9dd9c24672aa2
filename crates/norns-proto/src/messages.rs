//! The NORNS message set.
//!
//! Mirrors Table I of the paper: the administrative `nornsctl` surface
//! (daemon management, dataspace/job/process registration, task
//! control) and the user `norns` surface (dataspace queries, task
//! submission/monitoring). Each API speaks over its own socket; both
//! share [`Response`].

use bytes::{Bytes, BytesMut};

use crate::wire::{
    get_bool, get_str, get_varint, get_vec, put_bool, put_str, put_varint, put_vec, Wire, WireError,
};

/// Storage backend kinds a dataspace can be backed by (paper §IV-A:
/// "lustre://", "nvme0://", "pmdk0://" ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    PosixFilesystem,
    Lustre,
    NvmDax,
    Tmpfs,
}

impl BackendKind {
    // Discriminants 2 and 5 are retired (`NvmeSsd`, `BurstBuffer`: no
    // caller ever registered one); they decode to `BadDiscriminant`
    // and must not be reused.
    fn to_u64(self) -> u64 {
        match self {
            BackendKind::PosixFilesystem => 0,
            BackendKind::Lustre => 1,
            BackendKind::NvmDax => 3,
            BackendKind::Tmpfs => 4,
        }
    }

    fn from_u64(v: u64) -> Result<Self, WireError> {
        Ok(match v {
            0 => BackendKind::PosixFilesystem,
            1 => BackendKind::Lustre,
            3 => BackendKind::NvmDax,
            4 => BackendKind::Tmpfs,
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

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

impl Wire for DataspaceDesc {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.nsid);
        put_varint(buf, self.kind.to_u64());
        put_str(buf, &self.mount);
        put_varint(buf, self.quota);
        put_bool(buf, self.tracked);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(DataspaceDesc {
            nsid: get_str(buf)?,
            kind: BackendKind::from_u64(get_varint(buf)?)?,
            mount: get_str(buf)?,
            quota: get_varint(buf)?,
            tracked: get_bool(buf)?,
        })
    }
}

/// One end of an I/O task (paper Listing 2: `NORNS_MEMORY_REGION`,
/// `NORNS_POSIX_PATH`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceDesc {
    /// A region of the calling process' memory.
    MemoryRegion { addr: u64, size: u64 },
    /// A path inside a dataspace on this node.
    PosixPath { nsid: String, path: String },
    /// A path inside a dataspace on a remote node.
    RemotePath {
        host: String,
        nsid: String,
        path: String,
    },
}

impl Wire for ResourceDesc {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ResourceDesc::MemoryRegion { addr, size } => {
                put_varint(buf, 0);
                put_varint(buf, *addr);
                put_varint(buf, *size);
            }
            ResourceDesc::PosixPath { nsid, path } => {
                put_varint(buf, 1);
                put_str(buf, nsid);
                put_str(buf, path);
            }
            ResourceDesc::RemotePath { host, nsid, path } => {
                put_varint(buf, 2);
                put_str(buf, host);
                put_str(buf, nsid);
                put_str(buf, path);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_varint(buf)? {
            0 => ResourceDesc::MemoryRegion {
                addr: get_varint(buf)?,
                size: get_varint(buf)?,
            },
            1 => ResourceDesc::PosixPath {
                nsid: get_str(buf)?,
                path: get_str(buf)?,
            },
            2 => ResourceDesc::RemotePath {
                host: get_str(buf)?,
                nsid: get_str(buf)?,
                path: get_str(buf)?,
            },
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Task operation (`iotask_init(type, input, output)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOp {
    Copy,
    Move,
    Remove,
}

impl TaskOp {
    fn to_u64(self) -> u64 {
        match self {
            TaskOp::Copy => 0,
            TaskOp::Move => 1,
            TaskOp::Remove => 2,
        }
    }

    fn from_u64(v: u64) -> Result<Self, WireError> {
        Ok(match v {
            0 => TaskOp::Copy,
            1 => TaskOp::Move,
            2 => TaskOp::Remove,
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Durability policy for a stage-out (v8). Governs when the task ACKs
/// (reaches a terminal `Finished`) relative to background replication
/// to the daemon's registered peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// The local leg is the whole task — no replication. Best-effort
    /// durability: origin loss loses the data. The pre-v8 behaviour,
    /// and the default.
    #[default]
    LocalOnly,
    /// ACK as soon as the local leg lands, then asynchronously push
    /// one copy to a peer in the background. Origin loss after the
    /// replication lag drains leaves a surviving replica.
    LocalPlusOne,
    /// Do not ACK until the local leg *and* every replica
    /// (`target_copies` peers) have landed. Strongest guarantee,
    /// highest ACK latency.
    Synchronous,
}

impl Durability {
    fn to_u64(self) -> u64 {
        match self {
            Durability::LocalOnly => 0,
            Durability::LocalPlusOne => 1,
            Durability::Synchronous => 2,
        }
    }

    fn from_u64(v: u64) -> Result<Self, WireError> {
        Ok(match v {
            0 => Durability::LocalOnly,
            1 => Durability::LocalPlusOne,
            2 => Durability::Synchronous,
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

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
    /// for local stage-outs (`Copy` to a `PosixPath`); everything else
    /// must use [`Durability::LocalOnly`].
    pub durability: Durability,
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

impl Wire for TaskSpec {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.op.to_u64());
        put_varint(buf, self.priority as u64);
        self.input.encode(buf);
        match &self.output {
            Some(o) => {
                put_bool(buf, true);
                o.encode(buf);
            }
            None => put_bool(buf, false),
        }
        put_varint(buf, self.durability.to_u64());
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let op = TaskOp::from_u64(get_varint(buf)?)?;
        let priority = get_varint(buf)?;
        if priority > u8::MAX as u64 {
            return Err(WireError::BadLength(priority));
        }
        let input = ResourceDesc::decode(buf)?;
        let output = if get_bool(buf)? {
            Some(ResourceDesc::decode(buf)?)
        } else {
            None
        };
        let durability = Durability::from_u64(get_varint(buf)?)?;
        Ok(TaskSpec {
            op,
            priority: priority as u8,
            input,
            output,
            durability,
        })
    }
}

/// Task lifecycle states (paper: pending queue → workers → completion
/// list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    Pending,
    InProgress,
    Finished,
    FinishedWithError,
    /// Cancelled: dropped while still pending, or (for decomposed
    /// chunked/remote transfers) interrupted mid-stream with partial
    /// output cleaned up (v4).
    Cancelled,
}

impl TaskState {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Finished | TaskState::FinishedWithError | TaskState::Cancelled
        )
    }
}

impl TaskState {
    fn to_u64(self) -> u64 {
        match self {
            TaskState::Pending => 0,
            TaskState::InProgress => 1,
            TaskState::Finished => 2,
            TaskState::FinishedWithError => 3,
            TaskState::Cancelled => 4,
        }
    }

    fn from_u64(v: u64) -> Result<Self, WireError> {
        Ok(match v {
            0 => TaskState::Pending,
            1 => TaskState::InProgress,
            2 => TaskState::Finished,
            3 => TaskState::FinishedWithError,
            4 => TaskState::Cancelled,
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Error codes, after the C API's `NORNS_*` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    Success,
    TaskError,
    NotFound,
    PermissionDenied,
    BadArgs,
    NoSpace,
    Timeout,
    NotRegistered,
    SystemError,
    /// EAGAIN-style admission rejection: the daemon's bounded task
    /// queue is full; retry later.
    Busy,
}

impl ErrorCode {
    fn to_u64(self) -> u64 {
        match self {
            ErrorCode::Success => 0,
            ErrorCode::TaskError => 1,
            ErrorCode::NotFound => 2,
            ErrorCode::PermissionDenied => 3,
            ErrorCode::BadArgs => 4,
            ErrorCode::NoSpace => 5,
            ErrorCode::Timeout => 6,
            ErrorCode::NotRegistered => 7,
            ErrorCode::SystemError => 8,
            ErrorCode::Busy => 9,
        }
    }

    fn from_u64(v: u64) -> Result<Self, WireError> {
        Ok(match v {
            0 => ErrorCode::Success,
            1 => ErrorCode::TaskError,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::PermissionDenied,
            4 => ErrorCode::BadArgs,
            5 => ErrorCode::NoSpace,
            6 => ErrorCode::Timeout,
            7 => ErrorCode::NotRegistered,
            8 => ErrorCode::SystemError,
            9 => ErrorCode::Busy,
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Completion statistics (`norns_error(&tsk, &stats)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStats {
    pub state: TaskState,
    pub error: ErrorCode,
    pub bytes_total: u64,
    pub bytes_moved: u64,
    /// Queue wait: submission → first worker touch (µs).
    pub wait_usec: u64,
    pub elapsed_usec: u64,
}

impl Wire for TaskStats {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.state.to_u64());
        put_varint(buf, self.error.to_u64());
        put_varint(buf, self.bytes_total);
        put_varint(buf, self.bytes_moved);
        put_varint(buf, self.wait_usec);
        put_varint(buf, self.elapsed_usec);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(TaskStats {
            state: TaskState::from_u64(get_varint(buf)?)?,
            error: ErrorCode::from_u64(get_varint(buf)?)?,
            bytes_total: get_varint(buf)?,
            bytes_moved: get_varint(buf)?,
            wait_usec: get_varint(buf)?,
            elapsed_usec: get_varint(buf)?,
        })
    }
}

/// Job registration payload (`job_init(hosts, limits)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDesc {
    pub job_id: u64,
    pub hosts: Vec<String>,
    /// Per-dataspace byte quotas: (nsid, bytes).
    pub limits: Vec<(String, u64)>,
}

impl Wire for JobDesc {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.job_id);
        put_varint(buf, self.hosts.len() as u64);
        for h in &self.hosts {
            put_str(buf, h);
        }
        put_varint(buf, self.limits.len() as u64);
        for (nsid, quota) in &self.limits {
            put_str(buf, nsid);
            put_varint(buf, *quota);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let job_id = get_varint(buf)?;
        let nh = get_varint(buf)?;
        let mut hosts = Vec::with_capacity((nh as usize).min(1024));
        for _ in 0..nh {
            hosts.push(get_str(buf)?);
        }
        let nl = get_varint(buf)?;
        let mut limits = Vec::with_capacity((nl as usize).min(1024));
        for _ in 0..nl {
            limits.push((get_str(buf)?, get_varint(buf)?));
        }
        Ok(JobDesc {
            job_id,
            hosts,
            limits,
        })
    }
}

/// Daemon-level commands (`nornsctl_send_command`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonCommand {
    Ping,
    PauseAccepting,
    ResumeAccepting,
    ClearCompletions,
    Shutdown,
}

impl DaemonCommand {
    fn to_u64(self) -> u64 {
        match self {
            DaemonCommand::Ping => 0,
            DaemonCommand::PauseAccepting => 1,
            DaemonCommand::ResumeAccepting => 2,
            DaemonCommand::ClearCompletions => 3,
            DaemonCommand::Shutdown => 4,
        }
    }

    fn from_u64(v: u64) -> Result<Self, WireError> {
        Ok(match v {
            0 => DaemonCommand::Ping,
            1 => DaemonCommand::PauseAccepting,
            2 => DaemonCommand::ResumeAccepting,
            3 => DaemonCommand::ClearCompletions,
            4 => DaemonCommand::Shutdown,
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Requests accepted on the *control* socket (Table I, top half).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlRequest {
    SendCommand(DaemonCommand),
    Status,
    RegisterDataspace(DataspaceDesc),
    UpdateDataspace(DataspaceDesc),
    UnregisterDataspace {
        nsid: String,
    },
    RegisterJob(JobDesc),
    UpdateJob(JobDesc),
    UnregisterJob {
        job_id: u64,
    },
    AddProcess {
        job_id: u64,
        pid: u64,
        uid: u32,
        gid: u32,
    },
    RemoveProcess {
        job_id: u64,
        pid: u64,
    },
    SubmitTask {
        job_id: u64,
        spec: TaskSpec,
    },
    WaitTask {
        task_id: u64,
        timeout_usec: u64,
    },
    QueryTask {
        task_id: u64,
    },
    /// Drop the task if still pending (`TaskState::Cancelled`), or
    /// interrupt it mid-stream if the data plane can abort it (chunked
    /// and remote transfers); other running tasks are left untouched.
    CancelTask {
        task_id: u64,
    },
    /// Map a `RemotePath.host` to that daemon's data-plane address
    /// (v4). Registering an existing host updates its address.
    RegisterPeer {
        host: String,
        data_addr: String,
    },
    /// Block until *any* task in the set reaches a terminal state
    /// (v5). Answered by [`Response::TaskCompleted`] naming the first
    /// completion; `timeout_usec == 0` means wait forever, a nonzero
    /// timeout that expires yields [`ErrorCode::Timeout`]. The set is
    /// capped at [`MAX_WAIT_SET`] ids. This is the batch-wait primitive
    /// workflow orchestrators use instead of polling each task.
    WaitAny {
        task_ids: Vec<u64>,
        timeout_usec: u64,
    },
    /// Enumerate the children of a directory inside a dataspace (v6).
    /// Answered by [`Response::DirEntries`] with the child names
    /// sorted, capped at [`MAX_DIR_ENTRIES`]. This is what real-mode
    /// `scatter`/`gather` planning uses to split a directory's
    /// children across a job's nodes. Paths go through the same
    /// dataspace containment checks as task submissions; a
    /// non-directory path yields [`ErrorCode::BadArgs`].
    ListDir {
        nsid: String,
        path: String,
    },
}

impl Wire for CtlRequest {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            CtlRequest::SendCommand(c) => {
                put_varint(buf, 0);
                put_varint(buf, c.to_u64());
            }
            CtlRequest::Status => put_varint(buf, 1),
            CtlRequest::RegisterDataspace(d) => {
                put_varint(buf, 2);
                d.encode(buf);
            }
            CtlRequest::UpdateDataspace(d) => {
                put_varint(buf, 3);
                d.encode(buf);
            }
            CtlRequest::UnregisterDataspace { nsid } => {
                put_varint(buf, 4);
                put_str(buf, nsid);
            }
            CtlRequest::RegisterJob(j) => {
                put_varint(buf, 5);
                j.encode(buf);
            }
            CtlRequest::UpdateJob(j) => {
                put_varint(buf, 6);
                j.encode(buf);
            }
            CtlRequest::UnregisterJob { job_id } => {
                put_varint(buf, 7);
                put_varint(buf, *job_id);
            }
            CtlRequest::AddProcess {
                job_id,
                pid,
                uid,
                gid,
            } => {
                put_varint(buf, 8);
                put_varint(buf, *job_id);
                put_varint(buf, *pid);
                put_varint(buf, *uid as u64);
                put_varint(buf, *gid as u64);
            }
            CtlRequest::RemoveProcess { job_id, pid } => {
                put_varint(buf, 9);
                put_varint(buf, *job_id);
                put_varint(buf, *pid);
            }
            CtlRequest::SubmitTask { job_id, spec } => {
                put_varint(buf, 10);
                put_varint(buf, *job_id);
                spec.encode(buf);
            }
            CtlRequest::WaitTask {
                task_id,
                timeout_usec,
            } => {
                put_varint(buf, 11);
                put_varint(buf, *task_id);
                put_varint(buf, *timeout_usec);
            }
            CtlRequest::QueryTask { task_id } => {
                put_varint(buf, 12);
                put_varint(buf, *task_id);
            }
            CtlRequest::CancelTask { task_id } => {
                put_varint(buf, 13);
                put_varint(buf, *task_id);
            }
            CtlRequest::RegisterPeer { host, data_addr } => {
                put_varint(buf, 14);
                put_str(buf, host);
                put_str(buf, data_addr);
            }
            CtlRequest::WaitAny {
                task_ids,
                timeout_usec,
            } => {
                put_varint(buf, 15);
                put_task_set(buf, task_ids);
                put_varint(buf, *timeout_usec);
            }
            CtlRequest::ListDir { nsid, path } => {
                put_varint(buf, 16);
                put_str(buf, nsid);
                put_str(buf, path);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_varint(buf)? {
            0 => CtlRequest::SendCommand(DaemonCommand::from_u64(get_varint(buf)?)?),
            1 => CtlRequest::Status,
            2 => CtlRequest::RegisterDataspace(DataspaceDesc::decode(buf)?),
            3 => CtlRequest::UpdateDataspace(DataspaceDesc::decode(buf)?),
            4 => CtlRequest::UnregisterDataspace {
                nsid: get_str(buf)?,
            },
            5 => CtlRequest::RegisterJob(JobDesc::decode(buf)?),
            6 => CtlRequest::UpdateJob(JobDesc::decode(buf)?),
            7 => CtlRequest::UnregisterJob {
                job_id: get_varint(buf)?,
            },
            8 => CtlRequest::AddProcess {
                job_id: get_varint(buf)?,
                pid: get_varint(buf)?,
                uid: get_varint(buf)? as u32,
                gid: get_varint(buf)? as u32,
            },
            9 => CtlRequest::RemoveProcess {
                job_id: get_varint(buf)?,
                pid: get_varint(buf)?,
            },
            10 => CtlRequest::SubmitTask {
                job_id: get_varint(buf)?,
                spec: TaskSpec::decode(buf)?,
            },
            11 => CtlRequest::WaitTask {
                task_id: get_varint(buf)?,
                timeout_usec: get_varint(buf)?,
            },
            12 => CtlRequest::QueryTask {
                task_id: get_varint(buf)?,
            },
            13 => CtlRequest::CancelTask {
                task_id: get_varint(buf)?,
            },
            14 => CtlRequest::RegisterPeer {
                host: get_str(buf)?,
                data_addr: get_str(buf)?,
            },
            15 => CtlRequest::WaitAny {
                task_ids: get_task_set(buf)?,
                timeout_usec: get_varint(buf)?,
            },
            16 => CtlRequest::ListDir {
                nsid: get_str(buf)?,
                path: get_str(buf)?,
            },
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Largest task-id set one `WaitAny` request may carry (v5). A hostile
/// length prefix must not trigger a huge allocation, and a daemon
/// handler scanning the set on every completion wake must stay cheap.
pub const MAX_WAIT_SET: usize = 4096;

fn put_task_set(buf: &mut BytesMut, ids: &[u64]) {
    put_varint(buf, ids.len() as u64);
    for id in ids {
        put_varint(buf, *id);
    }
}

fn get_task_set(buf: &mut Bytes) -> Result<Vec<u64>, WireError> {
    let n = get_varint(buf)?;
    if n > MAX_WAIT_SET as u64 {
        return Err(WireError::BadLength(n));
    }
    let mut ids = Vec::with_capacity(n as usize);
    for _ in 0..n {
        ids.push(get_varint(buf)?);
    }
    Ok(ids)
}

/// Largest entry list one [`Response::DirEntries`] may carry (v6).
/// Like [`MAX_WAIT_SET`], a hostile length prefix must not trigger a
/// huge allocation, and a scatter planner looping over the entries
/// must stay bounded; daemons refuse to enumerate larger directories
/// rather than silently truncating.
pub const MAX_DIR_ENTRIES: usize = 4096;

fn put_name_list(buf: &mut BytesMut, names: &[String]) {
    put_varint(buf, names.len() as u64);
    for name in names {
        put_str(buf, name);
    }
}

fn get_name_list(buf: &mut Bytes) -> Result<Vec<String>, WireError> {
    let n = get_varint(buf)?;
    if n > MAX_DIR_ENTRIES as u64 {
        return Err(WireError::BadLength(n));
    }
    let mut names = Vec::with_capacity(n as usize);
    for _ in 0..n {
        names.push(get_str(buf)?);
    }
    Ok(names)
}

/// Requests accepted on the *user* socket (Table I, bottom half).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserRequest {
    GetDataspaceInfo,
    SubmitTask {
        pid: u64,
        spec: TaskSpec,
    },
    /// Wait for one of the caller's own tasks (v4: carries the pid —
    /// observation through the world-connectable user socket is scoped
    /// to the submitter, exactly like cancellation, so one job cannot
    /// watch another's transfers).
    WaitTask {
        pid: u64,
        task_id: u64,
        timeout_usec: u64,
    },
    /// Query one of the caller's own tasks (pid-scoped; see
    /// [`UserRequest::WaitTask`]).
    QueryTask {
        pid: u64,
        task_id: u64,
    },
    /// Drop the task if still pending; mirrors the control API but
    /// carries the caller's pid — user-socket cancels only apply to
    /// the caller's own tasks.
    CancelTask {
        pid: u64,
        task_id: u64,
    },
    /// Block until any task in the set is terminal (v5); every id must
    /// belong to the declared pid (the same scoping as `WaitTask`).
    /// `timeout_usec == 0` means wait forever.
    WaitAny {
        pid: u64,
        task_ids: Vec<u64>,
        timeout_usec: u64,
    },
}

impl Wire for UserRequest {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            UserRequest::GetDataspaceInfo => put_varint(buf, 0),
            UserRequest::SubmitTask { pid, spec } => {
                put_varint(buf, 1);
                put_varint(buf, *pid);
                spec.encode(buf);
            }
            UserRequest::WaitTask {
                pid,
                task_id,
                timeout_usec,
            } => {
                put_varint(buf, 2);
                put_varint(buf, *pid);
                put_varint(buf, *task_id);
                put_varint(buf, *timeout_usec);
            }
            UserRequest::QueryTask { pid, task_id } => {
                put_varint(buf, 3);
                put_varint(buf, *pid);
                put_varint(buf, *task_id);
            }
            UserRequest::CancelTask { pid, task_id } => {
                put_varint(buf, 4);
                put_varint(buf, *pid);
                put_varint(buf, *task_id);
            }
            UserRequest::WaitAny {
                pid,
                task_ids,
                timeout_usec,
            } => {
                put_varint(buf, 5);
                put_varint(buf, *pid);
                put_task_set(buf, task_ids);
                put_varint(buf, *timeout_usec);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_varint(buf)? {
            0 => UserRequest::GetDataspaceInfo,
            1 => UserRequest::SubmitTask {
                pid: get_varint(buf)?,
                spec: TaskSpec::decode(buf)?,
            },
            2 => UserRequest::WaitTask {
                pid: get_varint(buf)?,
                task_id: get_varint(buf)?,
                timeout_usec: get_varint(buf)?,
            },
            3 => UserRequest::QueryTask {
                pid: get_varint(buf)?,
                task_id: get_varint(buf)?,
            },
            4 => UserRequest::CancelTask {
                pid: get_varint(buf)?,
                task_id: get_varint(buf)?,
            },
            5 => UserRequest::WaitAny {
                pid: get_varint(buf)?,
                task_ids: get_task_set(buf)?,
                timeout_usec: get_varint(buf)?,
            },
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

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

impl Wire for DaemonStatus {
    fn encode(&self, buf: &mut BytesMut) {
        put_bool(buf, self.accepting);
        put_varint(buf, self.pending_tasks);
        put_varint(buf, self.running_tasks);
        put_varint(buf, self.completed_tasks);
        put_varint(buf, self.cancelled_tasks);
        put_varint(buf, self.registered_jobs);
        put_varint(buf, self.registered_dataspaces);
        put_varint(buf, self.chunk_size);
        put_str(buf, &self.data_addr);
        put_varint(buf, self.accept_errors);
        put_varint(buf, self.open_connections);
        put_varint(buf, self.pending_replicas);
        put_varint(buf, self.pending_replica_bytes);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(DaemonStatus {
            accepting: get_bool(buf)?,
            pending_tasks: get_varint(buf)?,
            running_tasks: get_varint(buf)?,
            completed_tasks: get_varint(buf)?,
            cancelled_tasks: get_varint(buf)?,
            registered_jobs: get_varint(buf)?,
            registered_dataspaces: get_varint(buf)?,
            chunk_size: get_varint(buf)?,
            data_addr: get_str(buf)?,
            accept_errors: get_varint(buf)?,
            open_connections: get_varint(buf)?,
            pending_replicas: get_varint(buf)?,
            pending_replica_bytes: get_varint(buf)?,
        })
    }
}

/// Largest byte range one [`DataRequest::Fetch`] or
/// [`DataRequest::Store`] may carry. Must stay comfortably under
/// [`crate::MAX_FRAME_LEN`] (the payload travels inside one frame);
/// transfers iterate ranges of at most this size per round-trip, which
/// is also the granularity of live progress and mid-stream cancels.
pub const MAX_DATA_RANGE: u64 = 4 << 20;

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
    Stat { nsid: String, path: String },
    /// Read up to `len` bytes at `offset`; answered by
    /// [`DataResponse::Data`] whose payload is the frame remainder.
    Fetch {
        nsid: String,
        path: String,
        offset: u64,
        len: u64,
    },
    /// Create the destination (parents included) and preallocate it to
    /// `size` bytes (push planning — the `fallocate` analog).
    Prepare {
        nsid: String,
        path: String,
        size: u64,
    },
    /// Write the frame-remainder payload at `offset`.
    Store {
        nsid: String,
        path: String,
        offset: u64,
    },
    /// Remove a partially staged destination after a failed or
    /// cancelled push. Missing files are not an error.
    Discard { nsid: String, path: String },
}

impl Wire for DataRequest {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            DataRequest::Stat { nsid, path } => {
                put_varint(buf, 0);
                put_str(buf, nsid);
                put_str(buf, path);
            }
            DataRequest::Fetch {
                nsid,
                path,
                offset,
                len,
            } => {
                put_varint(buf, 1);
                put_str(buf, nsid);
                put_str(buf, path);
                put_varint(buf, *offset);
                put_varint(buf, *len);
            }
            DataRequest::Prepare { nsid, path, size } => {
                put_varint(buf, 2);
                put_str(buf, nsid);
                put_str(buf, path);
                put_varint(buf, *size);
            }
            DataRequest::Store { nsid, path, offset } => {
                put_varint(buf, 3);
                put_str(buf, nsid);
                put_str(buf, path);
                put_varint(buf, *offset);
            }
            DataRequest::Discard { nsid, path } => {
                put_varint(buf, 4);
                put_str(buf, nsid);
                put_str(buf, path);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_varint(buf)? {
            0 => DataRequest::Stat {
                nsid: get_str(buf)?,
                path: get_str(buf)?,
            },
            1 => DataRequest::Fetch {
                nsid: get_str(buf)?,
                path: get_str(buf)?,
                offset: get_varint(buf)?,
                len: get_varint(buf)?,
            },
            2 => DataRequest::Prepare {
                nsid: get_str(buf)?,
                path: get_str(buf)?,
                size: get_varint(buf)?,
            },
            3 => DataRequest::Store {
                nsid: get_str(buf)?,
                path: get_str(buf)?,
                offset: get_varint(buf)?,
            },
            4 => DataRequest::Discard {
                nsid: get_str(buf)?,
                path: get_str(buf)?,
            },
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Data-plane responses (v4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataResponse {
    Ok,
    Stat {
        size: u64,
    },
    /// The fetched bytes follow as the frame remainder; a shorter
    /// payload than requested means the range crossed end-of-file.
    Data,
    Error {
        code: ErrorCode,
        message: String,
    },
}

impl Wire for DataResponse {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            DataResponse::Ok => put_varint(buf, 0),
            DataResponse::Stat { size } => {
                put_varint(buf, 1);
                put_varint(buf, *size);
            }
            DataResponse::Data => put_varint(buf, 2),
            DataResponse::Error { code, message } => {
                put_varint(buf, 3);
                put_varint(buf, code.to_u64());
                put_str(buf, message);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_varint(buf)? {
            0 => DataResponse::Ok,
            1 => DataResponse::Stat {
                size: get_varint(buf)?,
            },
            2 => DataResponse::Data,
            3 => DataResponse::Error {
                code: ErrorCode::from_u64(get_varint(buf)?)?,
                message: get_str(buf)?,
            },
            other => return Err(WireError::BadDiscriminant(other)),
        })
    }
}

/// Responses shared by both sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok,
    Error {
        code: ErrorCode,
        message: String,
    },
    Status(DaemonStatus),
    Dataspaces(Vec<DataspaceDesc>),
    TaskSubmitted {
        task_id: u64,
    },
    TaskStatus(TaskStats),
    /// Answer to `WaitAny` (v5): which task of the waited set reached a
    /// terminal state first, with its final stats.
    TaskCompleted {
        task_id: u64,
        stats: TaskStats,
    },
    /// Answer to `ListDir` (v6): the directory's child names, sorted,
    /// at most [`MAX_DIR_ENTRIES`] of them.
    DirEntries {
        entries: Vec<String>,
    },
}

impl Wire for Response {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Response::Ok => put_varint(buf, 0),
            Response::Error { code, message } => {
                put_varint(buf, 1);
                put_varint(buf, code.to_u64());
                put_str(buf, message);
            }
            Response::Status(s) => {
                put_varint(buf, 2);
                s.encode(buf);
            }
            Response::Dataspaces(list) => {
                put_varint(buf, 3);
                put_vec(buf, list);
            }
            Response::TaskSubmitted { task_id } => {
                put_varint(buf, 4);
                put_varint(buf, *task_id);
            }
            Response::TaskStatus(stats) => {
                put_varint(buf, 5);
                stats.encode(buf);
            }
            Response::TaskCompleted { task_id, stats } => {
                put_varint(buf, 6);
                put_varint(buf, *task_id);
                stats.encode(buf);
            }
            Response::DirEntries { entries } => {
                put_varint(buf, 7);
                put_name_list(buf, entries);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_varint(buf)? {
            0 => Response::Ok,
            1 => Response::Error {
                code: ErrorCode::from_u64(get_varint(buf)?)?,
                message: get_str(buf)?,
            },
            2 => Response::Status(DaemonStatus::decode(buf)?),
            3 => Response::Dataspaces(get_vec(buf)?),
            4 => Response::TaskSubmitted {
                task_id: get_varint(buf)?,
            },
            5 => Response::TaskStatus(TaskStats::decode(buf)?),
            6 => Response::TaskCompleted {
                task_id: get_varint(buf)?,
                stats: TaskStats::decode(buf)?,
            },
            7 => Response::DirEntries {
                entries: get_name_list(buf)?,
            },
            other => return Err(WireError::BadDiscriminant(other)),
        })
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
            CtlRequest::WaitAny {
                task_ids: vec![1, 7, 1 << 40],
                timeout_usec: 500_000,
            },
            CtlRequest::WaitAny {
                task_ids: vec![],
                timeout_usec: 0,
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
            UserRequest::WaitAny {
                pid: 99,
                task_ids: vec![3, 4, 5],
                timeout_usec: 0,
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
            Response::TaskCompleted {
                task_id: 9,
                stats: TaskStats {
                    state: TaskState::FinishedWithError,
                    error: ErrorCode::NotFound,
                    bytes_total: 10,
                    bytes_moved: 3,
                    wait_usec: 4,
                    elapsed_usec: 5,
                },
            },
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
    fn oversized_wait_set_rejected() {
        // A hostile count must be rejected before any per-id decode
        // loop allocates or spins.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 15); // CtlRequest::WaitAny
        put_varint(&mut buf, MAX_WAIT_SET as u64 + 1);
        assert!(matches!(
            CtlRequest::from_bytes(buf.freeze()),
            Err(WireError::BadLength(_))
        ));
        let ids: Vec<u64> = (0..MAX_WAIT_SET as u64).collect();
        roundtrip(CtlRequest::WaitAny {
            task_ids: ids,
            timeout_usec: 1,
        });
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
    fn bad_discriminants_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 99);
        assert!(matches!(
            Response::from_bytes(buf.freeze()),
            Err(WireError::BadDiscriminant(99))
        ));
    }
}
