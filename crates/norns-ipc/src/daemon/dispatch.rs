//! Request dispatch for the control and user sockets: decode one
//! request, run it against the [`Engine`], and say what the reactor
//! must do with the outcome. Nothing here touches a connection or a
//! poller — waits and shutdown are handed back as [`Request`]s for
//! the reactor to act on.

use bytes::Bytes;

use norns_proto::{CtlRequest, DaemonCommand, ErrorCode, Response, UserRequest, Wire, WireError};

use crate::engine::{Engine, EngineError};

/// What one decoded request asks of the reactor.
pub(super) enum Request {
    /// Answered on the spot.
    Reply(Response),
    /// A `WaitTask`, from either socket: parks in the engine;
    /// `timeout_usec == 0` parks forever.
    Wait {
        task_id: u64,
        timeout_usec: u64,
        requester: Option<u64>,
    },
    /// `DaemonCommand::Shutdown`.
    Shutdown,
}

/// Decode and execute the request in `b` (a frame with its tag already
/// taken off) from the control socket (`control`) or the user socket.
pub(super) fn dispatch(
    engine: &Engine,
    control: bool,
    mut b: Bytes,
) -> Result<Request, EngineError> {
    let undecodable = |e: WireError| EngineError::new(ErrorCode::BadArgs, e.to_string());
    // Any bytes after the request are an inline memory payload.
    let payload = |b: Bytes| (!b.is_empty()).then(|| b.to_vec());
    if control {
        let req = CtlRequest::decode(&mut b).map_err(undecodable)?;
        handle_ctl(engine, req, payload(b))
    } else {
        let req = UserRequest::decode(&mut b).map_err(undecodable)?;
        handle_user(engine, req, payload(b))
    }
}

/// Separates the user-socket (pid-keyed) and control-socket
/// (job-keyed) id spaces inside the scheduler's fairness domain.
const USER_KEY_BIT: u64 = 1 << 63;

/// Execute one control request — or, for the three the reactor has to
/// act on itself, say which. Arms that fall out of the `match` answer
/// a bare `Ok`.
fn handle_ctl(
    engine: &Engine,
    req: CtlRequest,
    payload: Option<Vec<u8>>,
) -> Result<Request, EngineError> {
    let reply = |response| Ok(Request::Reply(response));
    match req {
        CtlRequest::SendCommand(cmd) => match cmd {
            DaemonCommand::Ping => {}
            DaemonCommand::PauseAccepting => engine.set_accepting(false),
            DaemonCommand::ResumeAccepting => engine.set_accepting(true),
            DaemonCommand::ClearCompletions => engine.clear_completions(),
            DaemonCommand::Shutdown => return Ok(Request::Shutdown),
        },
        CtlRequest::Status => return reply(Response::Status(engine.status())),
        CtlRequest::RegisterDataspace(d) => engine.register_dataspace(d)?,
        CtlRequest::UpdateDataspace(d) => engine.update_dataspace(d)?,
        CtlRequest::UnregisterDataspace { nsid } => engine.unregister_dataspace(&nsid)?,
        CtlRequest::RegisterJob(j) => engine.register_job(j)?,
        CtlRequest::UpdateJob(j) => engine.update_job(j)?,
        CtlRequest::UnregisterJob { job_id } => engine.unregister_job(job_id)?,
        CtlRequest::AddProcess { job_id, pid, .. } => engine.add_process(job_id, pid)?,
        CtlRequest::RemoveProcess { job_id, pid } => engine.remove_process(job_id, pid)?,
        CtlRequest::RegisterPeer { host, data_addr } => engine.register_peer(host, data_addr),
        CtlRequest::CancelTask { task_id } => engine.cancel(task_id, None)?,
        CtlRequest::SubmitTask { job_id, spec } => {
            if job_id & USER_KEY_BIT != 0 {
                // Bit 63 tags user-socket pid keys; a control job id
                // carrying it would collide with a pid's fairness and
                // cancel-ownership domain.
                return Err(EngineError::new(
                    ErrorCode::BadArgs,
                    format!("job id {job_id:#x} uses the reserved user-key bit"),
                ));
            }
            let task_id = engine.submit(job_id, spec, payload)?;
            return reply(Response::TaskSubmitted { task_id });
        }
        CtlRequest::QueryTask { task_id } => {
            return reply(Response::TaskStatus(engine.query_scoped(task_id, None)?))
        }
        CtlRequest::ListDir { nsid, path } => {
            let entries = engine.list_dir(&nsid, &path)?;
            return reply(Response::DirEntries { entries });
        }
        CtlRequest::WaitTask {
            task_id,
            timeout_usec,
        } => {
            return Ok(Request::Wait {
                task_id,
                timeout_usec,
                requester: None,
            })
        }
    }
    reply(Response::Ok)
}

/// Execute one user request, or hand a wait back to the reactor.
///
/// User-socket tasks are keyed by the declared pid, with the high bit
/// set so pid-keyed entries can never collide with control-socket job
/// ids in the fairness domain — and wait, query and cancel through the
/// world-connectable socket are scoped to that key's own submissions:
/// one job can neither observe nor revoke another's transfers. As in
/// the paper's C API, the pid is caller-declared (the scheduler
/// registers job processes; SO_PEERCRED verification is future
/// hardening), so this guards against accidental cross-job
/// interference, not a malicious local process.
fn handle_user(
    engine: &Engine,
    req: UserRequest,
    payload: Option<Vec<u8>>,
) -> Result<Request, EngineError> {
    let key = |pid: u64| Some(USER_KEY_BIT | pid);
    let response = match req {
        UserRequest::GetDataspaceInfo => Response::Dataspaces(engine.dataspaces()),
        UserRequest::SubmitTask { pid, spec } => {
            // Only processes the scheduler registered via AddProcess
            // may submit, mirroring the simulated controller.
            if !engine.process_known(pid) {
                return Err(EngineError::new(
                    ErrorCode::NotRegistered,
                    format!("process {pid} is not registered to any job"),
                ));
            }
            let task_id = engine.submit(USER_KEY_BIT | pid, spec, payload)?;
            Response::TaskSubmitted { task_id }
        }
        UserRequest::QueryTask { pid, task_id } => {
            Response::TaskStatus(engine.query_scoped(task_id, key(pid))?)
        }
        UserRequest::CancelTask { pid, task_id } => {
            engine.cancel(task_id, key(pid))?;
            Response::Ok
        }
        UserRequest::WaitTask {
            pid,
            task_id,
            timeout_usec,
        } => {
            return Ok(Request::Wait {
                task_id,
                timeout_usec,
                requester: key(pid),
            })
        }
    };
    Ok(Request::Reply(response))
}
