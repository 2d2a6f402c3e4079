//! Tensor shape and row-major stride arithmetic.

use crate::TensorError;

/// The shape of a dense tensor: a list of dimension sizes.
///
/// Shapes are stored row-major ("C order"): the last dimension is
/// contiguous in memory. CNN tensors follow the NCHW convention used by
/// PyTorch, i.e. `[batch, channels, height, width]` (and
/// `[batch, channels, depth, height, width]` for 3-D convolutions).
///
/// # Example
///
/// ```
/// use alfi_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.num_elements(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.flat_index(&[1, 2, 3]).unwrap(), 23);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    ///
    /// A zero-length slice denotes a scalar (one element). Dimensions of
    /// size zero are permitted and denote an empty tensor.
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank) of the shape.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Total number of elements (product of all dimensions; 1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides: `strides[i]` is the flat-index distance between
    /// consecutive elements along axis `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat offset.
    ///
    /// The offset is accumulated from the dims by Horner's rule
    /// (`flat = flat * d + i`), which equals `Σ index[i] * strides()[i]`
    /// without materializing the strides: element reads and writes
    /// through [`Tensor::get`](crate::Tensor::get) allocate nothing.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `index.len() != rank()` and
    /// [`TensorError::IndexOutOfBounds`] if any coordinate exceeds its
    /// dimension.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() {
            return Err(TensorError::RankMismatch {
                expected: self.dims.len(),
                actual: index.len(),
            });
        }
        let mut flat = 0usize;
        for (&i, &d) in index.iter().zip(&self.dims) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims.clone(),
                });
            }
            flat = flat * d + i;
        }
        Ok(flat)
    }

    /// Converts a flat offset back into a multi-dimensional index,
    /// peeling coordinates off the dims from the last axis inwards.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `flat >= num_elements()`.
    pub fn multi_index(&self, flat: usize) -> Result<Vec<usize>, TensorError> {
        if flat >= self.num_elements() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![flat],
                shape: self.dims.clone(),
            });
        }
        // Every dim is non-zero here: an empty shape has no valid offset.
        let mut rem = flat;
        let mut idx = vec![0usize; self.dims.len()];
        for (slot, &d) in idx.iter_mut().zip(&self.dims).rev() {
            *slot = rem % d;
            rem /= d;
        }
        Ok(idx)
    }

    /// Whether two shapes are compatible for elementwise binary operations.
    ///
    /// ALFI kernels require exact shape equality (no NumPy broadcasting);
    /// this keeps fault locations unambiguous.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.flat_index(&[]).unwrap(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4, 5]);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn flat_index_matches_manual_computation() {
        let s = Shape::new(&[4, 5, 6]);
        assert_eq!(s.flat_index(&[2, 3, 4]).unwrap(), 2 * 30 + 3 * 6 + 4);
    }

    #[test]
    fn flat_and_multi_index_round_trip() {
        let s = Shape::new(&[3, 4, 5]);
        for flat in 0..s.num_elements() {
            let idx = s.multi_index(flat).unwrap();
            assert_eq!(s.flat_index(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn out_of_bounds_index_is_rejected() {
        let s = Shape::new(&[2, 2]);
        assert!(matches!(
            s.flat_index(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            s.flat_index(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(s.multi_index(4).is_err());
    }

    #[test]
    fn empty_dimension_yields_empty_tensor() {
        let s = Shape::new(&[2, 0, 3]);
        assert_eq!(s.num_elements(), 0);
        assert!(s.multi_index(0).is_err());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new(&[1, 3, 32, 32]).to_string(), "[1x3x32x32]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }

    #[test]
    fn conversions_from_vec_and_slice() {
        let a: Shape = vec![2, 3].into();
        let b: Shape = (&[2usize, 3][..]).into();
        assert!(a.same_as(&b));
    }
}
