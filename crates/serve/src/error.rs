use std::fmt;

use mlexray_core::ExrayError;
use mlexray_nn::analysis::LintReport;
use mlexray_nn::NnError;

/// Errors produced by the serving subsystem's control plane (registration,
/// configuration, validation). Per-request failures travel as typed
/// [`crate::Rejection`]s through the response channel instead — a request
/// is never answered with a control-plane error.
#[derive(Debug)]
pub enum ServeError {
    /// A model name not present in the registry (or the zoo, for
    /// [`crate::ModelRegistry::register_zoo`]).
    UnknownModel(String),
    /// Model execution / graph validation failed.
    Nn(NnError),
    /// Registration-time static analysis found Deny diagnostics; the full
    /// report says which lints fired and where.
    LintFailed {
        /// The model whose registration was rejected.
        model: String,
        /// The analyzer's findings (carries at least one Deny).
        report: Box<LintReport>,
    },
    /// A core-layer failure (online validation, log plumbing).
    Core(ExrayError),
    /// The service was configured inconsistently.
    Config(String),
    /// A model's serving worker thread could not be started; the model's
    /// pool was drained and not started.
    WorkerSpawn {
        /// The model whose pool could not start.
        model: String,
        /// What the operating system said.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            ServeError::Nn(e) => write!(f, "model execution: {e}"),
            ServeError::LintFailed { model, report } => {
                write!(f, "model '{model}' rejected by static analysis: {report}")
            }
            ServeError::Core(e) => write!(f, "core: {e}"),
            ServeError::Config(msg) => write!(f, "configuration: {msg}"),
            ServeError::WorkerSpawn { model, reason } => {
                write!(
                    f,
                    "could not start a serving worker for '{model}': {reason}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Nn(e) => Some(e),
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for ServeError {
    fn from(e: NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<ExrayError> for ServeError {
    fn from(e: ExrayError) -> Self {
        ServeError::Core(e)
    }
}

/// Result alias used throughout the serve crate.
pub type Result<T> = std::result::Result<T, ServeError>;
