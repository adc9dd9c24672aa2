//! Client libraries for the real daemon: [`CtlClient`] (the
//! `nornsctl` API) and [`UserClient`] (the `norns` API).
//!
//! The API is asynchronous at its core, like the paper's
//! (`norns_submit` returns an id, `norns_wait` is layered on top):
//! `issue_*` writes a tagged request and returns its tag at once, many
//! requests may be outstanding on the one connection, and responses
//! arriving out of order are demultiplexed by tag (wire v7) through
//! `wait_for` / `poll` / `try_drain`. A blocking verb is the same call
//! at depth 1 — issue, then `wait_for` that tag — so it can be mixed
//! freely with outstanding pipelined requests.
//!
//! Each client owns one connection; spawn one per thread to model
//! concurrent processes (as the Fig. 4 benchmark does), or hold one
//! client and batch.

use std::collections::HashSet;
use std::io::{ErrorKind, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use bytes::{Bytes, BytesMut};

use norns_proto::{
    decode_tagged, push_frame, CtlRequest, DaemonCommand, DaemonStatus, DataspaceDesc, ErrorCode,
    FrameReader, JobDesc, Response, TaskSpec, TaskStats, UserRequest, Wire,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Protocol(String),
    /// The daemon replied with an error response.
    Remote {
        code: ErrorCode,
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Remote { code, message } => write!(f, "daemon error {code:?}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

pub type ClientResult<T> = Result<T, ClientError>;

fn protocol(e: impl std::fmt::Display) -> ClientError {
    ClientError::Protocol(e.to_string())
}

/// The `Err` arm shared by every `expect_*`: a daemon error response
/// or a response of the wrong shape.
fn unexpected<T>(r: Response) -> ClientResult<T> {
    match r {
        Response::Error { code, message } => Err(ClientError::Remote { code, message }),
        other => Err(protocol(format!("unexpected response: {other:?}"))),
    }
}

pub fn expect_ok(r: Response) -> ClientResult<()> {
    match r {
        Response::Ok => Ok(()),
        other => unexpected(other),
    }
}

pub fn expect_task_id(r: Response) -> ClientResult<u64> {
    match r {
        Response::TaskSubmitted { task_id } => Ok(task_id),
        other => unexpected(other),
    }
}

pub fn expect_stats(r: Response) -> ClientResult<TaskStats> {
    match r {
        Response::TaskStatus(stats) => Ok(stats),
        other => unexpected(other),
    }
}

pub fn expect_completion(r: Response) -> ClientResult<(u64, TaskStats)> {
    match r {
        Response::TaskCompleted { task_id, stats } => Ok((task_id, stats)),
        other => unexpected(other),
    }
}

/// Match one tagged response frame against the set of outstanding
/// tags. A response whose tag was never issued — or was already
/// answered — is a protocol violation, surfaced as an error rather
/// than a panic or a silent drop.
pub fn demux(pending: &mut HashSet<u64>, frame: Bytes) -> ClientResult<(u64, Response)> {
    let (tag, response) = decode_tagged::<Response>(frame).map_err(protocol)?;
    if !pending.remove(&tag) {
        return Err(protocol(format!(
            "response carries unknown or duplicate tag {tag}"
        )));
    }
    Ok((tag, response))
}

/// One connection with many tagged requests outstanding (wire v7).
/// Every response read off the socket lands in `stash`; the collection
/// calls differ only in how long they are willing to block for it.
struct Conn {
    stream: UnixStream,
    reader: FrameReader,
    next_tag: u64,
    pending: HashSet<u64>,
    stash: Vec<(u64, Response)>,
    /// The stream's `SO_RCVTIMEO`: `poll`'s timeout, or `None` once a
    /// blocking `wait_for` has cleared it. Set only when it changes, so
    /// a run of polls costs one `setsockopt`.
    read_timeout: Option<Duration>,
}

impl Conn {
    fn connect(path: &Path) -> ClientResult<Self> {
        Ok(Conn {
            stream: UnixStream::connect(path)?,
            reader: FrameReader::new(),
            next_tag: 0,
            pending: HashSet::new(),
            stash: Vec::new(),
            read_timeout: None,
        })
    }

    /// Write one v7 request — varint tag, request body, optional
    /// trailing inline memory payload — and return its tag.
    fn issue(&mut self, request: &impl Wire, payload: Option<&[u8]>) -> ClientResult<u64> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        let mut frame = BytesMut::with_capacity(64 + payload.map_or(0, <[u8]>::len));
        push_frame(&mut frame, Some(tag), request, 0, |frame| {
            frame.extend_from_slice(payload.unwrap_or_default());
        });
        self.stream.write_all(&frame)?;
        self.pending.insert(tag);
        Ok(tag)
    }

    /// The one socket read: a single `read` in whatever blocking mode
    /// the stream is in, demultiplexing every frame it completes into
    /// the stash. `Ok(false)` means the read would block or its
    /// timeout elapsed; EOF is an `UnexpectedEof` I/O error.
    fn fill(&mut self) -> ClientResult<bool> {
        loop {
            match self.reader.read_from(&mut self.stream) {
                Ok(0) => {
                    let closed = "daemon closed the connection";
                    return Err(std::io::Error::new(ErrorKind::UnexpectedEof, closed).into());
                }
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            }
        }
        while let Some(frame) = self.reader.next_frame().map_err(protocol)? {
            self.stash.push(demux(&mut self.pending, frame)?);
        }
        Ok(true)
    }

    /// Collect whatever responses have already arrived, without ever
    /// blocking. A closed connection is an error only once there is
    /// nothing left to hand back and something still outstanding.
    fn try_drain(&mut self) -> ClientResult<Vec<(u64, Response)>> {
        self.stream.set_nonblocking(true)?;
        let read = loop {
            match self.fill() {
                Ok(true) => {}
                other => break other,
            }
        };
        self.stream.set_nonblocking(false)?;
        if let Err(e) = read {
            let closed = matches!(&e, ClientError::Io(io) if io.kind() == ErrorKind::UnexpectedEof);
            if !closed || (self.stash.is_empty() && !self.pending.is_empty()) {
                return Err(e);
            }
        }
        Ok(std::mem::take(&mut self.stash))
    }

    /// Collect responses, blocking up to `timeout` for the first
    /// arrival. An empty vec means the timeout elapsed.
    fn poll(&mut self, timeout: Duration) -> ClientResult<Vec<(u64, Response)>> {
        if self.stash.is_empty() {
            self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
            self.fill()?;
        }
        Ok(std::mem::take(&mut self.stash))
    }

    /// Give the stream this `SO_RCVTIMEO` unless it already has it.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> ClientResult<()> {
        if self.read_timeout != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        Ok(())
    }

    /// Block until the response for `tag` arrives; responses for other
    /// tags stay stashed for a later collection call.
    fn wait_for(&mut self, tag: u64) -> ClientResult<Response> {
        loop {
            if let Some(pos) = self.stash.iter().position(|(t, _)| *t == tag) {
                return Ok(self.stash.remove(pos).1);
            }
            if !self.pending.contains(&tag) {
                return Err(protocol(format!("tag {tag} has no outstanding request")));
            }
            self.set_read_timeout(None)?;
            self.fill()?;
        }
    }
}

/// The administrative (`nornsctl`) client — one connection per daemon
/// is enough to multiplex every wait an orchestrator has outstanding.
pub struct CtlClient(Conn);

impl CtlClient {
    pub fn connect(path: &Path) -> ClientResult<Self> {
        Ok(CtlClient(Conn::connect(path)?))
    }

    /// Requests issued but not yet answered (stashed responses count
    /// as answered).
    pub fn in_flight(&self) -> usize {
        self.0.pending.len()
    }

    /// Issue a request, returning its tag without waiting.
    pub fn issue(&mut self, req: &CtlRequest, payload: Option<&[u8]>) -> ClientResult<u64> {
        self.0.issue(req, payload)
    }

    /// Collect already-arrived responses without blocking.
    pub fn try_drain(&mut self) -> ClientResult<Vec<(u64, Response)>> {
        self.0.try_drain()
    }

    /// Collect responses, blocking up to `timeout` for the first one;
    /// an empty vec means the timeout elapsed.
    pub fn poll(&mut self, timeout: Duration) -> ClientResult<Vec<(u64, Response)>> {
        self.0.poll(timeout)
    }

    /// Block for one specific response, stashing others.
    pub fn wait_for(&mut self, tag: u64) -> ClientResult<Response> {
        self.0.wait_for(tag)
    }

    fn call(&mut self, req: &CtlRequest) -> ClientResult<Response> {
        let tag = self.issue(req, None)?;
        self.wait_for(tag)
    }

    /// Issue a `Ping` without blocking on it.
    pub fn issue_ping(&mut self) -> ClientResult<u64> {
        self.issue(&CtlRequest::SendCommand(DaemonCommand::Ping), None)
    }

    /// One empty round-trip through the daemon's reactor.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.send_command(DaemonCommand::Ping)
    }

    pub fn send_command(&mut self, cmd: DaemonCommand) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::SendCommand(cmd))?)
    }

    pub fn status(&mut self) -> ClientResult<DaemonStatus> {
        match self.call(&CtlRequest::Status)? {
            Response::Status(s) => Ok(s),
            other => unexpected(other),
        }
    }

    pub fn register_dataspace(&mut self, desc: DataspaceDesc) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::RegisterDataspace(desc))?)
    }

    pub fn unregister_dataspace(&mut self, nsid: &str) -> ClientResult<()> {
        let nsid = nsid.to_string();
        expect_ok(self.call(&CtlRequest::UnregisterDataspace { nsid })?)
    }

    pub fn register_job(&mut self, job: JobDesc) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::RegisterJob(job))?)
    }

    pub fn unregister_job(&mut self, job_id: u64) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::UnregisterJob { job_id })?)
    }

    pub fn add_process(&mut self, job_id: u64, pid: u64, uid: u32, gid: u32) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::AddProcess {
            job_id,
            pid,
            uid,
            gid,
        })?)
    }

    /// Map a `RemotePath.host` to a peer daemon's data-plane address
    /// (v4). Re-registering a host updates its address.
    pub fn register_peer(&mut self, host: &str, data_addr: &str) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::RegisterPeer {
            host: host.to_string(),
            data_addr: data_addr.to_string(),
        })?)
    }

    /// Submit a task; `payload` carries the buffer for memory-region
    /// inputs. The response is `TaskSubmitted` ([`expect_task_id`]).
    pub fn issue_submit(
        &mut self,
        job_id: u64,
        spec: TaskSpec,
        payload: Option<&[u8]>,
    ) -> ClientResult<u64> {
        self.issue(&CtlRequest::SubmitTask { job_id, spec }, payload)
    }

    /// [`CtlClient::issue_submit`], then block for its response.
    pub fn submit(
        &mut self,
        job_id: u64,
        spec: TaskSpec,
        payload: Option<&[u8]>,
    ) -> ClientResult<u64> {
        let tag = self.issue_submit(job_id, spec, payload)?;
        expect_task_id(self.wait_for(tag)?)
    }

    /// Wait until the task is terminal or the timeout expires.
    /// `timeout_usec == 0` means wait forever; an expired nonzero
    /// timeout answers with the task's in-flight snapshot (state still
    /// `Pending`/`InProgress`), never an error.
    pub fn issue_wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<u64> {
        let req = CtlRequest::WaitTask {
            task_id,
            timeout_usec,
        };
        self.issue(&req, None)
    }

    /// [`CtlClient::issue_wait`], then block for its response.
    pub fn wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<TaskStats> {
        let tag = self.issue_wait(task_id, timeout_usec)?;
        expect_stats(self.wait_for(tag)?)
    }

    /// Wait until *any* task of the set is terminal (v5 batch wait):
    /// one round-trip returns the first completion as `(task_id,
    /// stats)` instead of N polling loops. `timeout_usec == 0` means
    /// wait forever; an expired nonzero timeout surfaces as a
    /// [`ClientError::Remote`] carrying [`ErrorCode::Timeout`].
    pub fn issue_wait_any(&mut self, task_ids: &[u64], timeout_usec: u64) -> ClientResult<u64> {
        let req = CtlRequest::WaitAny {
            task_ids: task_ids.to_vec(),
            timeout_usec,
        };
        self.issue(&req, None)
    }

    /// [`CtlClient::issue_wait_any`], then block for its response.
    pub fn wait_any(
        &mut self,
        task_ids: &[u64],
        timeout_usec: u64,
    ) -> ClientResult<(u64, TaskStats)> {
        let tag = self.issue_wait_any(task_ids, timeout_usec)?;
        expect_completion(self.wait_for(tag)?)
    }

    /// Issue a `QueryTask` without blocking on it.
    pub fn issue_query(&mut self, task_id: u64) -> ClientResult<u64> {
        self.issue(&CtlRequest::QueryTask { task_id }, None)
    }

    /// [`CtlClient::issue_query`], then block for its response.
    pub fn query(&mut self, task_id: u64) -> ClientResult<TaskStats> {
        let tag = self.issue_query(task_id)?;
        expect_stats(self.wait_for(tag)?)
    }

    /// Cancel a still-pending task (`nornsctl` task control).
    pub fn cancel(&mut self, task_id: u64) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::CancelTask { task_id })?)
    }

    /// Enumerate a dataspace directory's children (v6): names only,
    /// sorted, at most [`norns_proto::MAX_DIR_ENTRIES`] of them
    /// (larger directories are refused, not truncated). A
    /// non-directory path yields [`ErrorCode::BadArgs`]; scatter
    /// planners use that to fall back to single-file placement.
    pub fn list_dir(&mut self, nsid: &str, path: &str) -> ClientResult<Vec<String>> {
        let req = CtlRequest::ListDir {
            nsid: nsid.to_string(),
            path: path.to_string(),
        };
        match self.call(&req)? {
            Response::DirEntries { entries } => Ok(entries),
            other => unexpected(other),
        }
    }
}

/// The application (`norns`) client. Every request carries the pid the
/// client was opened with; the daemon scopes task observation and
/// cancellation to that pid's own submissions (v4).
pub struct UserClient {
    conn: Conn,
    pid: u64,
}

impl UserClient {
    pub fn connect(path: &Path) -> ClientResult<Self> {
        Self::with_pid(path, std::process::id() as u64)
    }

    pub fn with_pid(path: &Path, pid: u64) -> ClientResult<Self> {
        Ok(UserClient {
            conn: Conn::connect(path)?,
            pid,
        })
    }

    /// Requests issued but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.conn.pending.len()
    }

    fn issue(&mut self, req: UserRequest, payload: Option<&[u8]>) -> ClientResult<u64> {
        self.conn.issue(&req, payload)
    }

    /// Collect already-arrived responses without blocking.
    pub fn try_drain(&mut self) -> ClientResult<Vec<(u64, Response)>> {
        self.conn.try_drain()
    }

    /// Collect responses, blocking up to `timeout` for the first one.
    pub fn poll(&mut self, timeout: Duration) -> ClientResult<Vec<(u64, Response)>> {
        self.conn.poll(timeout)
    }

    /// Block for one specific response, stashing others.
    pub fn wait_for(&mut self, tag: u64) -> ClientResult<Response> {
        self.conn.wait_for(tag)
    }

    /// `norns_get_dataspace_info`.
    pub fn dataspaces(&mut self) -> ClientResult<Vec<DataspaceDesc>> {
        let tag = self.issue(UserRequest::GetDataspaceInfo, None)?;
        match self.wait_for(tag)? {
            Response::Dataspaces(d) => Ok(d),
            other => unexpected(other),
        }
    }

    /// `norns_submit` (Listing 2).
    pub fn issue_submit(&mut self, spec: TaskSpec, payload: Option<&[u8]>) -> ClientResult<u64> {
        let pid = self.pid;
        self.issue(UserRequest::SubmitTask { pid, spec }, payload)
    }

    /// [`UserClient::issue_submit`], then block for its response.
    pub fn submit(&mut self, spec: TaskSpec, payload: Option<&[u8]>) -> ClientResult<u64> {
        let tag = self.issue_submit(spec, payload)?;
        expect_task_id(self.wait_for(tag)?)
    }

    /// `norns_wait`; waiting on another submitter's task yields
    /// `PermissionDenied`. Timeout semantics as [`CtlClient::issue_wait`].
    pub fn issue_wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<u64> {
        let req = UserRequest::WaitTask {
            pid: self.pid,
            task_id,
            timeout_usec,
        };
        self.issue(req, None)
    }

    /// [`UserClient::issue_wait`], then block for its response.
    pub fn wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<TaskStats> {
        let tag = self.issue_wait(task_id, timeout_usec)?;
        expect_stats(self.wait_for(tag)?)
    }

    /// Batch wait; every id must be one of this client's own
    /// submissions. Timeout semantics as [`CtlClient::issue_wait_any`].
    pub fn issue_wait_any(&mut self, task_ids: &[u64], timeout_usec: u64) -> ClientResult<u64> {
        let req = UserRequest::WaitAny {
            pid: self.pid,
            task_ids: task_ids.to_vec(),
            timeout_usec,
        };
        self.issue(req, None)
    }

    /// [`UserClient::issue_wait_any`], then block for its response.
    pub fn wait_any(
        &mut self,
        task_ids: &[u64],
        timeout_usec: u64,
    ) -> ClientResult<(u64, TaskStats)> {
        let tag = self.issue_wait_any(task_ids, timeout_usec)?;
        expect_completion(self.wait_for(tag)?)
    }

    /// `norns_error` (status/stats query).
    pub fn issue_query(&mut self, task_id: u64) -> ClientResult<u64> {
        let pid = self.pid;
        self.issue(UserRequest::QueryTask { pid, task_id }, None)
    }

    /// [`UserClient::issue_query`], then block for its response.
    pub fn query(&mut self, task_id: u64) -> ClientResult<TaskStats> {
        let tag = self.issue_query(task_id)?;
        expect_stats(self.wait_for(tag)?)
    }

    /// Cancel a still-pending task.
    pub fn issue_cancel(&mut self, task_id: u64) -> ClientResult<u64> {
        let pid = self.pid;
        self.issue(UserRequest::CancelTask { pid, task_id }, None)
    }

    /// [`UserClient::issue_cancel`], then block for its response.
    pub fn cancel(&mut self, task_id: u64) -> ClientResult<()> {
        let tag = self.issue_cancel(task_id)?;
        expect_ok(self.wait_for(tag)?)
    }
}

/// The raw fd, so an event loop can multiplex many connections over
/// one `epoll` set.
impl AsRawFd for CtlClient {
    fn as_raw_fd(&self) -> RawFd {
        self.0.stream.as_raw_fd()
    }
}

impl AsRawFd for UserClient {
    fn as_raw_fd(&self) -> RawFd {
        self.conn.stream.as_raw_fd()
    }
}
