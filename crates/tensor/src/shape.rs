use serde::{Deserialize, Serialize};

use crate::TensorError;

/// Computes the product of `dims` with overflow checking.
///
/// Size arithmetic on caller-supplied dimensions (workspace lengths,
/// `input_dims` handed to gradient entry points) goes through here so a
/// hostile or corrupted shape surfaces as
/// [`TensorError::SizeOverflow`] instead of a wrapped allocation size.
pub(crate) fn checked_volume(dims: &[usize]) -> Result<usize, TensorError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| TensorError::SizeOverflow {
            dims: dims.to_vec(),
        })
}

/// A tensor shape: the extent of every dimension, outermost first.
///
/// Shapes are stored row-major; for image batches the convention across the
/// workspace is `[N, C, H, W]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub(crate) fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements implied by the shape.
    pub(crate) fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub(crate) fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Returns the row-major strides for this shape.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the index rank differs from
    /// the shape rank, and [`TensorError::IndexOutOfBounds`] if any index
    /// exceeds its dimension.
    pub(crate) fn flat_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.0.len() {
            return Err(TensorError::RankMismatch {
                expected: self.0.len(),
                actual: index.len(),
            });
        }
        let mut flat = 0usize;
        let strides = self.strides();
        for (i, (&idx, &dim)) in index.iter().zip(self.0.iter()).enumerate() {
            if idx >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: idx,
                    len: dim,
                });
            }
            flat += idx * strides[i];
        }
        Ok(flat)
    }

    /// Checks that two shapes are identical.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when they differ.
    pub(crate) fn ensure_same(&self, other: &Shape) -> Result<(), TensorError> {
        if self != other {
            return Err(TensorError::ShapeMismatch {
                left: self.0.clone(),
                right: other.0.clone(),
            });
        }
        Ok(())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn flat_index_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.flat_index(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.flat_index(&[0, 0, 0]).unwrap(), 0);
    }

    #[test]
    fn flat_index_errors() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.flat_index(&[1]),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            s.flat_index(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn ensure_same_detects_mismatch() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[3, 2]);
        assert!(a.ensure_same(&a.clone()).is_ok());
        assert!(a.ensure_same(&b).is_err());
    }

    #[test]
    fn empty_shape_is_scalar_like() {
        let s = Shape::new(&[]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.rank(), 0);
    }
}
