//! NORNS error codes and results.
//!
//! Mirrors the C API's `NORNS_E*` family (the paper's Listing 2 checks
//! `stats.st_status == NORNS_ETASKERROR`).

use simstore::NsError;

/// Errors surfaced by the NORNS APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NornsError {
    /// `NORNS_ENOSUCHJOB` — job not registered with this urd.
    NoSuchJob(u64),
    /// `NORNS_ENOSUCHPROCESS` — submitting process not registered.
    NoSuchProcess { job: u64, pid: u64 },
    /// `NORNS_ENOSUCHNAMESPACE` — dataspace id not registered.
    NoSuchDataspace(String),
    /// Dataspace exists but the job was not granted access to it.
    DataspaceNotAllowed { job: u64, nsid: String },
    /// `NORNS_EACCES` — filesystem-level permission failure.
    PermissionDenied(String),
    /// `NORNS_ENOENT` — source resource does not exist.
    NotFound(String),
    /// `NORNS_ENOSPC` — destination tier or quota exhausted.
    NoSpace { requested: u64, available: u64 },
    /// Per-job dataspace quota would be exceeded.
    QuotaExceeded {
        job: u64,
        nsid: String,
        requested: u64,
        quota: u64,
    },
    /// `NORNS_EBADARGS` — malformed request (e.g. copy without output).
    BadArgs(String),
    /// `NORNS_ENOSUCHTASK`.
    NoSuchTask(u64),
    /// `NORNS_ETIMEOUT` — wait timed out.
    Timeout,
    /// `NORNS_ETASKERROR` — the task ran and failed.
    TaskError(String),
    /// Daemon is not accepting requests (paused / shutting down).
    NotAccepting,
    /// `NORNS_ECONNFAILED`-ish transport failure (simulated RPC).
    Transport(String),
    /// Namespace already registered / conflicting registration.
    AlreadyRegistered(String),
}

/// A refusal of the shared admission table is `NORNS_EBADARGS`.
impl From<norns_sched::shape::Refusal> for NornsError {
    fn from(refusal: norns_sched::shape::Refusal) -> Self {
        NornsError::BadArgs(refusal.message().into())
    }
}

pub type Result<T> = std::result::Result<T, NornsError>;

impl std::fmt::Display for NornsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NornsError::NoSuchJob(id) => write!(f, "no such job: {id}"),
            NornsError::NoSuchProcess { job, pid } => {
                write!(f, "process {pid} not registered with job {job}")
            }
            NornsError::NoSuchDataspace(ns) => write!(f, "no such dataspace: {ns}"),
            NornsError::DataspaceNotAllowed { job, nsid } => {
                write!(f, "job {job} may not access dataspace {nsid}")
            }
            NornsError::PermissionDenied(p) => write!(f, "permission denied: {p}"),
            NornsError::NotFound(p) => write!(f, "not found: {p}"),
            NornsError::NoSpace {
                requested,
                available,
            } => {
                write!(f, "no space: requested {requested}, available {available}")
            }
            NornsError::QuotaExceeded {
                job,
                nsid,
                requested,
                quota,
            } => write!(
                f,
                "job {job} quota exceeded on {nsid}: requested {requested}, quota {quota}"
            ),
            NornsError::BadArgs(m) => write!(f, "bad arguments: {m}"),
            NornsError::NoSuchTask(id) => write!(f, "no such task: {id}"),
            NornsError::Timeout => write!(f, "timed out"),
            NornsError::TaskError(m) => write!(f, "task error: {m}"),
            NornsError::NotAccepting => write!(f, "daemon not accepting requests"),
            NornsError::Transport(m) => write!(f, "transport error: {m}"),
            NornsError::AlreadyRegistered(m) => write!(f, "already registered: {m}"),
        }
    }
}

impl std::error::Error for NornsError {}

impl From<NsError> for NornsError {
    fn from(e: NsError) -> Self {
        match e {
            NsError::NotFound(p) => NornsError::NotFound(p),
            NsError::PermissionDenied(p) => NornsError::PermissionDenied(p),
            NsError::NoSpace {
                requested,
                available,
            } => NornsError::NoSpace {
                requested,
                available,
            },
            other => NornsError::BadArgs(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_error_mapping() {
        assert_eq!(
            NornsError::from(NsError::NotFound("x".into())),
            NornsError::NotFound("x".into())
        );
        assert_eq!(
            NornsError::from(NsError::PermissionDenied("y".into())),
            NornsError::PermissionDenied("y".into())
        );
        assert_eq!(
            NornsError::from(NsError::NoSpace {
                requested: 10,
                available: 2
            }),
            NornsError::NoSpace {
                requested: 10,
                available: 2
            }
        );
        assert!(matches!(
            NornsError::from(NsError::AlreadyExists("z".into())),
            NornsError::BadArgs(_)
        ));
    }

    #[test]
    fn display_is_informative() {
        let e = NornsError::QuotaExceeded {
            job: 7,
            nsid: "pmdk0".into(),
            requested: 100,
            quota: 50,
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("pmdk0") && s.contains("100") && s.contains("50"));
    }
}
