//! Runtime errors.

use std::fmt;

/// Error produced by the live runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtError {
    /// A workflow function has no registered body.
    UnregisteredFunction(String),
    /// A registration names a function the workflow does not declare.
    UnknownFunction(String),
    /// `wait` hit its deadline before all results arrived.
    Timeout,
    /// A function body reported an error (details inside).
    Faulted(String),
    /// The request id was never issued (or already collected).
    UnknownRequest,
    /// The placement map names an unknown function or an out-of-range
    /// node (details inside).
    InvalidPlacement(String),
    /// The [`ClusterConfig`](crate::ClusterConfig) holds a value the
    /// runtime cannot start with (the message names the field).
    InvalidConfig(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::UnregisteredFunction(n) => {
                write!(f, "workflow function `{n}` has no registered body")
            }
            RtError::UnknownFunction(n) => {
                write!(f, "no workflow function named `{n}`")
            }
            RtError::Timeout => write!(f, "timed out waiting for workflow results"),
            RtError::Faulted(msg) => write!(f, "workflow faulted: {msg}"),
            RtError::UnknownRequest => write!(f, "unknown or already-collected request"),
            RtError::InvalidPlacement(msg) => write!(f, "invalid placement: {msg}"),
            RtError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for RtError {}
