use std::fmt;

use serde::{Deserialize, Serialize};

use crate::TensorError;

/// A dynamically-ranked tensor shape.
///
/// Image tensors follow the NHWC convention used by TFLite:
/// `[batch, height, width, channels]`. Helper accessors ([`Shape::height`],
/// [`Shape::width`], [`Shape::channels`]) return `None` for non-4D shapes.
///
/// # Example
///
/// ```
/// use mlexray_tensor::Shape;
///
/// let s = Shape::nhwc(1, 224, 224, 3);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.num_elements(), 224 * 224 * 3);
/// assert_eq!(s.offset_nhwc(0, 1, 0, 2), 224 * 3 + 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from explicit dimensions.
    ///
    /// A scalar is represented by an empty dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Creates a 4-D NHWC shape.
    pub fn nhwc(n: usize, h: usize, w: usize, c: usize) -> Self {
        Shape(vec![n, h, w, c])
    }

    /// Creates a 1-D shape.
    pub fn vector(len: usize) -> Self {
        Shape(vec![len])
    }

    /// Creates a 2-D `[rows, cols]` shape.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimensions of this shape.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension at `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::IndexOutOfBounds {
                index: axis,
                bound: self.0.len(),
            })
    }

    /// Batch dimension for 4-D (NHWC) and 2-D (`[batch, features]`) shapes.
    pub fn batch(&self) -> Option<usize> {
        match self.0.len() {
            2 | 4 => Some(self.0[0]),
            _ => None,
        }
    }

    /// Height for NHWC shapes.
    pub fn height(&self) -> Option<usize> {
        (self.0.len() == 4).then(|| self.0[1])
    }

    /// Width for NHWC shapes.
    pub fn width(&self) -> Option<usize> {
        (self.0.len() == 4).then(|| self.0[2])
    }

    /// Channel count for NHWC shapes.
    pub fn channels(&self) -> Option<usize> {
        (self.0.len() == 4).then(|| self.0[3])
    }

    /// Flat offset of `[n, h, w, c]` in a contiguous NHWC buffer.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the shape is not 4-D or an index exceeds
    /// its dimension; release builds compute a wrapped offset.
    #[inline]
    pub fn offset_nhwc(&self, n: usize, h: usize, w: usize, c: usize) -> usize {
        debug_assert_eq!(self.0.len(), 4, "offset_nhwc requires a 4-D shape");
        debug_assert!(n < self.0[0] && h < self.0[1] && w < self.0[2] && c < self.0[3]);
        ((n * self.0[1] + h) * self.0[2] + w) * self.0[3] + c
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Returns a shape equal to this one with the batch (first) dimension
    /// replaced by `n`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for rank-0 shapes.
    pub fn with_batch(&self, n: usize) -> Result<Shape, TensorError> {
        let mut shape = self.clone();
        shape.set_batch(n)?;
        Ok(shape)
    }

    /// Overwrites the batch (first) dimension in place; fails like
    /// [`Shape::with_batch`] for rank-0 shapes.
    pub(crate) fn set_batch(&mut self, n: usize) -> Result<(), TensorError> {
        let lead = self
            .0
            .first_mut()
            .ok_or_else(|| TensorError::InvalidShape("scalar has no batch dimension".into()))?;
        *lead = n;
        Ok(())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nhwc_accessors() {
        let s = Shape::nhwc(2, 3, 4, 5);
        assert_eq!(s.batch(), Some(2));
        assert_eq!(s.height(), Some(3));
        assert_eq!(s.width(), Some(4));
        assert_eq!(s.channels(), Some(5));
        assert_eq!(s.num_elements(), 120);
    }

    #[test]
    fn non_4d_has_no_spatial_dims() {
        let s = Shape::matrix(2, 8);
        assert_eq!(s.height(), None);
        assert_eq!(s.channels(), None);
        assert_eq!(s.batch(), Some(2));
    }

    #[test]
    fn offsets_are_row_major() {
        let s = Shape::nhwc(2, 3, 4, 5);
        assert_eq!(s.offset_nhwc(0, 0, 0, 0), 0);
        assert_eq!(s.offset_nhwc(0, 0, 0, 4), 4);
        assert_eq!(s.offset_nhwc(0, 0, 1, 0), 5);
        assert_eq!(s.offset_nhwc(0, 1, 0, 0), 20);
        assert_eq!(s.offset_nhwc(1, 0, 0, 0), 60);
        assert_eq!(s.offset_nhwc(1, 2, 3, 4), 119);
    }

    #[test]
    fn strides_match_offsets() {
        let s = Shape::nhwc(2, 3, 4, 5);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
    }

    #[test]
    fn with_batch_replaces_first_dim() {
        let s = Shape::nhwc(1, 8, 8, 3).with_batch(16).unwrap();
        assert_eq!(s.dims(), &[16, 8, 8, 3]);
        assert!(Shape::scalar().with_batch(2).is_err());
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::nhwc(1, 2, 3, 4).to_string(), "[1x2x3x4]");
    }
}
