use std::fmt;

use crate::{DType, Shape};

/// Errors produced by tensor construction and access.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// The provided buffer length does not match the shape's element count.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two shapes were expected to match but did not.
    ShapeMismatch {
        /// The shape the operation expected.
        expected: Shape,
        /// The shape it received.
        actual: Shape,
    },
    /// The operation required a different dtype.
    DTypeMismatch {
        /// The dtype the operation expected.
        expected: DType,
        /// The dtype it received.
        actual: DType,
    },
    /// A rank-sensitive operation received a tensor of the wrong rank.
    RankMismatch {
        /// The rank the operation expected.
        expected: usize,
        /// The rank it received.
        actual: usize,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending flat or per-axis index.
        index: usize,
        /// The bound that was exceeded.
        bound: usize,
    },
    /// Quantization parameters were missing or inconsistent.
    InvalidQuantization(String),
    /// A shape with zero elements or an invalid axis was supplied.
    InvalidShape(String),
    /// The allocator refused a tensor's buffer: more bytes than this
    /// machine can hold.
    AllocationRefused {
        /// Elements the buffer was to hold.
        elements: usize,
        /// Their dtype.
        dtype: DType,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match shape ({expected} elements)"
                )
            }
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            TensorError::DTypeMismatch { expected, actual } => {
                write!(f, "dtype mismatch: expected {expected:?}, got {actual:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected {expected}, got {actual}")
            }
            TensorError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds ({bound})")
            }
            TensorError::InvalidQuantization(msg) => write!(f, "invalid quantization: {msg}"),
            TensorError::InvalidShape(msg) => write!(f, "invalid shape: {msg}"),
            TensorError::AllocationRefused { elements, dtype } => {
                write!(
                    f,
                    "the allocator refused a buffer of {elements} {dtype:?} elements"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}
