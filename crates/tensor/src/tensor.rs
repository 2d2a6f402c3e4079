//! Dense `f32` tensor with the kernels needed for CNN inference and
//! application-level fault injection.

use crate::{gemm, Shape, TensorError};
use alfi_rng::Rng;

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the single numeric carrier of the ALFI substrate: model
/// parameters, activations and fault-injected values all live in tensors.
/// Fault injection mutates tensors *in place* — mirroring how PyTorchFI
/// hooks mutate the output of a layer's MAC operation before it reaches
/// the activation function.
///
/// # Example
///
/// ```
/// use alfi_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::full(&[2, 2], 0.5);
/// let c = a.add(&b).unwrap();
/// assert_eq!(c.get(&[1, 1]), 4.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor { shape, data: vec![value; n] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the number of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.num_elements() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(rng: &mut Rng, dims: &[usize], lo: f32, hi: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with elements drawn from a normal distribution
    /// `N(mean, std^2)` using a Box–Muller transform (no external
    /// distribution crates required).
    pub fn rand_normal(rng: &mut Rng, dims: &[usize], mean: f32, std: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    ///
    /// This is the low-level access path used by neuron fault injection:
    /// hooks compute a flat offset from the fault coordinates and mutate
    /// the value in place.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Tensor::try_get`] for a
    /// fallible variant.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.try_get(index).expect("index in bounds")
    }

    /// Fallible element read.
    ///
    /// # Errors
    ///
    /// Returns an error if the index has the wrong rank or is out of bounds.
    pub fn try_get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Tensor::try_set`] for a
    /// fallible variant.
    pub fn set(&mut self, index: &[usize], value: f32) {
        self.try_set(index, value).expect("index in bounds");
    }

    /// Fallible element write.
    ///
    /// # Errors
    ///
    /// Returns an error if the index has the wrong rank or is out of bounds.
    pub fn try_set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two equally-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip<F: FnMut(f32, f32) -> f32>(&self, other: &Tensor, mut f: F) -> Result<Tensor, TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// 2-D matrix multiplication: `self [m,k] × other [k,n] → [m,n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank 2, and [`TensorError::ShapeMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank() });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: other.rank() });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        // Both kernel paths (and every thread count) are bit-identical:
        // the blocked path preserves the reference per-element operation
        // order, and chunk boundaries depend only on the problem size.
        let spec = gemm::GemmSpec {
            m,
            k,
            n,
            layout: gemm::BLayout::RowMajor,
            skip_zero_a: true,
            bias: gemm::Bias::None,
        };
        gemm::gemm(&self.data, &other.data, &mut out, &spec, gemm::kernel_path());
        Tensor::from_vec(out, &[m, n])
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element (`f32::INFINITY` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`f32::NEG_INFINITY` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element (flat, row-major; ties resolve to the
    /// first occurrence). Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// The `k` largest elements as `(flat_index, value)` pairs, sorted by
    /// descending value (ties broken by ascending index). NaN values sort
    /// last and never appear unless fewer than `k` non-NaN values exist.
    ///
    /// Used to extract the top-5 classes the paper's classification CSV
    /// output stores.
    pub fn topk(&self, k: usize) -> Vec<(usize, f32)> {
        let mut indexed: Vec<(usize, f32)> = self.data.iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (true, true) => a.0.cmp(&b.0),
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => {
                b.1.partial_cmp(&a.1).expect("both finite-or-inf").then(a.0.cmp(&b.0))
            }
        });
        indexed.truncate(k);
        indexed
    }

    /// Numerically-stable softmax over the last dimension.
    ///
    /// For rank-1 tensors this is a plain softmax; for rank-2 `[n, c]` it
    /// is applied row-wise. NaN/Inf inputs propagate (they are exactly
    /// what DUE monitoring must observe, so they are not sanitized here).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank 0 tensors.
    pub fn softmax_lastdim(&self) -> Result<Tensor, TensorError> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        let c = *self.dims().last().expect("rank >= 1");
        if c == 0 {
            return Ok(self.clone());
        }
        let rows = self.num_elements() / c;
        let mut out = vec![0.0f32; self.num_elements()];
        for r in 0..rows {
            let row = &self.data[r * c..(r + 1) * c];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (i, &x) in row.iter().enumerate() {
                let e = (x - m).exp();
                out[r * c + i] = e;
                denom += e;
            }
            for v in &mut out[r * c..(r + 1) * c] {
                *v /= denom;
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Number of NaN elements — one half of the DUE (detected uncorrectable
    /// error) monitor.
    pub fn count_nan(&self) -> usize {
        self.data.iter().filter(|x| x.is_nan()).count()
    }

    /// Number of infinite elements — the other half of the DUE monitor.
    pub fn count_inf(&self) -> usize {
        self.data.iter().filter(|x| x.is_infinite()).count()
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Extracts batch item `b` from an NCHW (or NC / NCDHW) tensor as a new
    /// tensor with the leading batch dimension removed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `b` exceeds the batch
    /// size or the tensor is rank 0.
    pub fn batch_item(&self, b: usize) -> Result<Tensor, TensorError> {
        if self.rank() == 0 || b >= self.dims()[0] {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![b],
                shape: self.dims().to_vec(),
            });
        }
        let rest: usize = self.dims()[1..].iter().product();
        let data = self.data[b * rest..(b + 1) * rest].to_vec();
        Tensor::from_vec(data, &self.dims()[1..])
    }

    /// Stacks equally-shaped tensors along a new leading batch dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ, or
    /// [`TensorError::LengthMismatch`] for an empty input slice.
    pub fn stack(items: &[Tensor]) -> Result<Tensor, TensorError> {
        let first = items.first().ok_or(TensorError::LengthMismatch { expected: 1, actual: 0 })?;
        let mut data = Vec::with_capacity(first.num_elements() * items.len());
        for t in items {
            if !t.shape.same_as(&first.shape) {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: t.dims().to_vec(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

/// Computes output rows `row0..row0 + out_rows.len() / n` of `a × b`
/// into `out_rows`. This is the sequential *reference oracle* kernel:
/// both paths of [`crate::gemm`] are required to reproduce its
/// per-element floating-point operation sequence bit-for-bit, and the
/// kernel-conformance suite pins every blocked/packed variant against
/// it. It is retained verbatim from the pre-blocked implementation and
/// must not be "optimized".
pub fn matmul_rows(a: &[f32], b: &[f32], out_rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = out_rows.len() / n;
    // i-k-j loop order keeps the inner loop sequential over `b`'s rows
    // for cache friendliness.
    for r in 0..rows {
        let i = row0 + r;
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let row = &b[kk * n..(kk + 1) * n];
            let dst = &mut out_rows[r * n..(r + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(row.iter()) {
                *d += av * bv;
            }
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.num_elements())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_rng::Rng;

    #[test]
    fn constructors_fill_correctly() {
        assert!(Tensor::zeros(&[2, 2]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2], 7.5).data().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::LengthMismatch { expected: 6, actual: 5 })
        ));
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 42.0);
        assert_eq!(t.get(&[1, 2, 3]), 42.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(a.matmul(&b), Err(TensorError::ShapeMismatch { .. })));
        let c = Tensor::zeros(&[2, 3, 4]);
        assert!(matches!(a.matmul(&c), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = t.softmax_lastdim().unwrap();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // softmax is monotone: larger logit -> larger probability
        assert!(s.get(&[0, 2]) > s.get(&[0, 1]));
    }

    #[test]
    fn softmax_is_stable_for_large_values() {
        let t = Tensor::from_vec(vec![1e30, 1e30 + 1.0], &[2]).unwrap();
        let s = t.softmax_lastdim().unwrap();
        assert!(s.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn topk_orders_descending_and_breaks_ties_by_index() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.9, 0.5], &[4]).unwrap();
        let top = t.topk(3);
        assert_eq!(top[0], (1, 0.9));
        assert_eq!(top[1], (2, 0.9));
        assert_eq!(top[2], (3, 0.5));
    }

    #[test]
    fn topk_handles_nan_last() {
        let t = Tensor::from_vec(vec![f32::NAN, 1.0, 2.0], &[3]).unwrap();
        let top = t.topk(2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 1);
    }

    #[test]
    fn nan_inf_counters() {
        let t = Tensor::from_vec(vec![1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY], &[4]).unwrap();
        assert_eq!(t.count_nan(), 1);
        assert_eq!(t.count_inf(), 2);
        assert!(t.has_non_finite());
        assert!(!Tensor::zeros(&[2]).has_non_finite());
    }

    #[test]
    fn batch_item_and_stack_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.batch_item(0).unwrap(), a);
        assert_eq!(s.batch_item(1).unwrap(), b);
        assert!(s.batch_item(2).is_err());
    }

    #[test]
    fn stack_rejects_mixed_shapes_and_empty() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(Tensor::stack(&[a, b]).is_err());
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn rand_normal_has_plausible_moments() {
        let mut rng = Rng::from_seed(7);
        let t = Tensor::rand_normal(&mut rng, &[10_000], 2.0, 3.0);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = Rng::from_seed(3);
        let t = Tensor::rand_uniform(&mut rng, &[1000], -1.0, 1.0);
        assert!(t.min() >= -1.0 && t.max() < 1.0);
    }

    #[test]
    fn max_abs_diff_detects_single_corruption() {
        let a = Tensor::zeros(&[4]);
        let mut b = a.clone();
        b.set(&[2], 0.25);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.25);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[3]).is_err());
    }
}
