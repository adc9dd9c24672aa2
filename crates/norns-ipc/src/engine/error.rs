//! The engine's one error type: a wire [`ErrorCode`] plus the
//! human-readable detail the wire's `Error` responses carry.

use std::fmt;
use std::io;

use norns_proto::{DataResponse, ErrorCode, Response};

/// Why an engine call — or a task, or a data-plane request — failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    pub code: ErrorCode,
    pub message: String,
}

impl EngineError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        EngineError {
            code,
            message: message.into(),
        }
    }

    pub(crate) fn not_found(what: impl Into<String>) -> Self {
        Self::new(ErrorCode::NotFound, what)
    }

    pub(crate) fn bad_args(why: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadArgs, why)
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for EngineError {}

/// The only errno → wire-code table in the daemon.
impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        let code = match e.kind() {
            io::ErrorKind::NotFound => ErrorCode::NotFound,
            io::ErrorKind::PermissionDenied => ErrorCode::PermissionDenied,
            io::ErrorKind::StorageFull => ErrorCode::NoSpace,
            _ => ErrorCode::SystemError,
        };
        EngineError::new(code, e.to_string())
    }
}

impl From<EngineError> for Response {
    fn from(e: EngineError) -> Self {
        Response::Error {
            code: e.code,
            message: e.message,
        }
    }
}

impl From<EngineError> for DataResponse {
    fn from(e: EngineError) -> Self {
        DataResponse::Error {
            code: e.code,
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_map_through_the_one_table() {
        for (kind, code) in [
            (io::ErrorKind::NotFound, ErrorCode::NotFound),
            (io::ErrorKind::PermissionDenied, ErrorCode::PermissionDenied),
            (io::ErrorKind::StorageFull, ErrorCode::NoSpace),
            (io::ErrorKind::BrokenPipe, ErrorCode::SystemError),
        ] {
            let e = EngineError::from(io::Error::new(kind, "detail"));
            assert_eq!(e.code, code, "{kind:?}");
            assert!(e.message.contains("detail"));
        }
    }
}
