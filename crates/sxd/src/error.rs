//! [`SxdError`]: every way a request, frame or job can fail, as a value.
//!
//! The daemon multiplexes many users onto one simulated node, like the
//! NQS subsystem it models (paper §2.6.3) — one client's garbage must
//! never abort another client's job, so nothing in the serving path
//! panics on input. Each variant maps to a stable snake_case `kind` that
//! goes over the wire in error replies and comes back typed on the client.

use ncar_suite::reactor::DecodeError;
use ncar_suite::report::json_escape;

/// Typed serving-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SxdError {
    /// Socket-level failure (connect, read, write, unexpected close).
    Io { detail: String },
    /// A request line exceeded the frame cap before its newline arrived.
    FrameTooLong { len: usize, max: usize },
    /// The frame was not a valid JSON document (or not valid UTF-8).
    BadJson { detail: String },
    /// Valid JSON, but not a valid request (missing op/suite, bad types).
    BadRequest { detail: String },
    /// The requested suite is not in the server's registry.
    UnknownSuite { suite: String },
    /// The requested machine preset does not exist.
    UnknownMachine { machine: String },
    /// NQS admission rejected the job (can never fit its Resource Block).
    Rejected { detail: String },
    /// The runner failed (or panicked — caught, never unwound through the
    /// daemon).
    RunFailed { detail: String },
    /// The daemon is draining and refuses new work.
    ShuttingDown,
    /// A drain deadline expired while this job was still pending; its
    /// remaining work was checkpointed to a restart spec and will be
    /// re-admitted on the next boot (the SUPER-UX checkpoint/restart
    /// model, paper §2.6.2).
    Checkpointed { detail: String },
    /// A cluster router could not reach the shard member that owns the
    /// request's keyspace (connect refused, member mid-crash, or the
    /// member has left the ring).
    ShardUnavailable { member: String, detail: String },
    /// A bounded connect/retry loop exhausted its attempts. Terminal: the
    /// caller has already waited through the full backoff schedule.
    Retries { attempts: usize, detail: String },
    /// Client-side view of an error reply whose kind the client does not
    /// interpret further.
    Remote { kind: String, detail: String },
}

impl From<&DecodeError> for SxdError {
    /// A frame the reactor could not decode gets the typed error the
    /// blocking frame reader produces for the same bytes.
    fn from(err: &DecodeError) -> SxdError {
        match *err {
            DecodeError::FrameTooLong { len, max } => SxdError::FrameTooLong { len, max },
            DecodeError::NotUtf8 => SxdError::BadJson { detail: "frame is not valid UTF-8".into() },
        }
    }
}

impl SxdError {
    pub(crate) fn io(e: std::io::Error) -> SxdError {
        SxdError::Io { detail: e.to_string() }
    }

    /// Stable wire identifier for the error class.
    pub fn kind(&self) -> &str {
        match self {
            SxdError::Io { .. } => "io",
            SxdError::FrameTooLong { .. } => "frame_too_long",
            SxdError::BadJson { .. } => "bad_json",
            SxdError::BadRequest { .. } => "bad_request",
            SxdError::UnknownSuite { .. } => "unknown_suite",
            SxdError::UnknownMachine { .. } => "unknown_machine",
            SxdError::Rejected { .. } => "rejected",
            SxdError::RunFailed { .. } => "run_failed",
            SxdError::ShuttingDown => "shutting_down",
            SxdError::Checkpointed { .. } => "checkpointed",
            SxdError::ShardUnavailable { .. } => "shard_unavailable",
            SxdError::Retries { .. } => "retries",
            SxdError::Remote { kind, .. } => kind,
        }
    }

    /// The human detail (what Display prints after the kind).
    pub(crate) fn detail(&self) -> String {
        match self {
            SxdError::Io { detail }
            | SxdError::BadJson { detail }
            | SxdError::BadRequest { detail }
            | SxdError::Rejected { detail }
            | SxdError::RunFailed { detail }
            | SxdError::Checkpointed { detail }
            | SxdError::Remote { detail, .. } => detail.clone(),
            SxdError::FrameTooLong { len, max } => {
                format!("frame of {len}+ bytes exceeds the {max}-byte cap")
            }
            SxdError::ShardUnavailable { member, detail } => {
                format!("shard member {member} is unreachable: {detail}")
            }
            SxdError::Retries { attempts, detail } => {
                format!("gave up after {attempts} connect attempts: {detail}")
            }
            SxdError::UnknownSuite { suite } => format!("no suite named {suite:?} is registered"),
            SxdError::UnknownMachine { machine } => {
                format!("no machine preset named {machine:?}")
            }
            SxdError::ShuttingDown => "daemon is draining; new jobs are refused".into(),
        }
    }

    /// The one-line error reply the server sends for this failure.
    pub(crate) fn to_reply(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
            json_escape(self.kind()),
            json_escape(&self.detail())
        )
    }
}

impl std::fmt::Display for SxdError {
    /// `kind: detail`, for every variant.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

impl std::error::Error for SxdError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ncar_suite::Json;

    #[test]
    fn replies_are_valid_json_with_kind_and_detail() {
        let errs = [
            SxdError::FrameTooLong { len: 70000, max: 65536 },
            SxdError::BadJson { detail: "bad JSON at byte 0: expected a value".into() },
            SxdError::UnknownSuite { suite: "nope\"quote".into() },
            SxdError::ShuttingDown,
        ];
        for e in errs {
            let reply = e.to_reply();
            let v = Json::parse(&reply).expect("error reply must parse");
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
            let kind = v.get("error").unwrap().get("kind").unwrap().as_str().unwrap();
            assert_eq!(kind, e.kind());
            assert!(v.get("error").unwrap().get("detail").is_some());
        }
    }

    #[test]
    fn display_is_kind_colon_detail() {
        let e = SxdError::UnknownMachine { machine: "cray-2".into() };
        assert_eq!(e.to_string(), "unknown_machine: no machine preset named \"cray-2\"");
    }
}
