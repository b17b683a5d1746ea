use std::fmt;

/// Errors produced by dataset generation.
#[derive(Debug)]
pub enum DatasetError {
    /// Invalid generator parameters.
    InvalidSpec(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::InvalidSpec(msg) => write!(f, "invalid dataset spec: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}
