use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::shape::Shape;
use crate::{Result, TensorError};

/// A dense, row-major `f32` tensor.
///
/// This is the single numeric container used throughout the BlurNet
/// reproduction: images and activation batches are `[N, C, H, W]`,
/// convolution weights are `[F, C, KH, KW]`, dense weights are `[out, in]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` differs
    /// from the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::ShapeDataMismatch {
                data_len: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.volume()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { data, shape }
    }

    /// Creates a tensor with elements drawn from a normal distribution
    /// `N(mean, std^2)` using a Box-Muller transform.
    pub fn rand_normal<R: Rng + ?Sized>(dims: &[usize], mean: f32, std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            let z0 = mag * (2.0 * std::f32::consts::PI * u2).cos();
            let z1 = mag * (2.0 * std::f32::consts::PI * u2).sin();
            data.push(mean + std * z0);
            if data.len() < n {
                data.push(mean + std * z1);
            }
        }
        Tensor { data, shape }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents of the tensor.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its underlying buffer.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy reshaped to `dims`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or extents are invalid.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or extents are invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        self.shape.ensure_same(&other.shape)?;
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) -> Result<()> {
        self.shape.ensure_same(&other.shape)?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty tensor.
    pub fn max(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |m| m.max(v)))
            })
            .ok_or(TensorError::EmptyTensor)
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty tensor.
    pub fn min(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |m| m.min(v)))
            })
            .ok_or(TensorError::EmptyTensor)
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// L1 norm of the flattened tensor.
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// L∞ norm (maximum absolute value) of the flattened tensor.
    pub fn linf_norm(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.shape.ensure_same(&other.shape)?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Extracts element `n` of the batch dimension of an `[N, ...]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor has rank 0 or `n` is out of range.
    pub fn batch_item(&self, n: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let batch = self.shape.dim(0);
        if n >= batch {
            return Err(TensorError::IndexOutOfBounds {
                index: n,
                len: batch,
            });
        }
        let item_dims: Vec<usize> = self.shape.dims()[1..].to_vec();
        let item_len: usize = item_dims.iter().product();
        let start = n * item_len;
        Tensor::from_vec(self.data[start..start + item_len].to_vec(), &item_dims)
    }

    /// Extracts `count` consecutive batch elements starting at `start` from
    /// an `[N, ...]` tensor, preserving the remaining dimensions.
    ///
    /// This is the zero-logic slicing primitive behind batch sharding: the
    /// data is contiguous per batch element, so the slice is one `memcpy`.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor has rank 0, `count` is zero, or
    /// `start + count` exceeds the batch dimension.
    pub fn batch_slice(&self, start: usize, count: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let batch = self.shape.dim(0);
        if count == 0 || start + count > batch {
            return Err(TensorError::IndexOutOfBounds {
                index: start + count,
                len: batch,
            });
        }
        let mut dims: Vec<usize> = self.shape.dims().to_vec();
        dims[0] = count;
        let item_len: usize = self.shape.dims()[1..].iter().product();
        let lo = start * item_len;
        let hi = (start + count) * item_len;
        Tensor::from_vec(self.data[lo..hi].to_vec(), &dims)
    }

    /// Concatenates tensors along their existing leading batch dimension
    /// (the inverse of [`Tensor::batch_slice`] over a partition).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty slice and
    /// [`TensorError::ShapeMismatch`] if the non-batch dimensions disagree.
    pub fn concat_batch(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::EmptyTensor)?;
        if first.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let mut total = 0usize;
        for part in parts {
            if part.shape.rank() != first.shape.rank()
                || part.shape.dims()[1..] != first.shape.dims()[1..]
            {
                return Err(TensorError::ShapeMismatch {
                    left: part.dims().to_vec(),
                    right: first.dims().to_vec(),
                });
            }
            total += part.shape.dim(0);
        }
        let mut data = Vec::with_capacity(first.len() / first.shape.dim(0).max(1) * total);
        for part in parts {
            data.extend_from_slice(&part.data);
        }
        let mut dims: Vec<usize> = first.dims().to_vec();
        dims[0] = total;
        Tensor::from_vec(data, &dims)
    }

    /// Stacks equally-shaped tensors along a new leading batch dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty slice and
    /// [`TensorError::ShapeMismatch`] if the items disagree in shape.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or(TensorError::EmptyTensor)?;
        let mut data = Vec::with_capacity(first.len() * items.len());
        for item in items {
            first.shape.ensure_same(&item.shape)?;
            data.extend_from_slice(&item.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Extracts channel `c` of a `[C, H, W]` tensor as an `[H, W]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 3 or `c` is out of range.
    pub fn channel(&self, c: usize) -> Result<Tensor> {
        if self.shape.rank() != 3 {
            return Err(TensorError::RankMismatch {
                expected: 3,
                actual: self.shape.rank(),
            });
        }
        let (ch, h, w) = (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2));
        if c >= ch {
            return Err(TensorError::IndexOutOfBounds { index: c, len: ch });
        }
        let start = c * h * w;
        Tensor::from_vec(self.data[start..start + h * w].to_vec(), &[h, w])
    }
}

impl std::ops::Add<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Tensor::add`] for a fallible
    /// variant.
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs).expect("operator + requires identical shapes")
    }
}

impl std::ops::Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Tensor::sub`] for a fallible
    /// variant.
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs).expect("operator - requires identical shapes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn from_vec_checks_volume() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::ShapeDataMismatch { .. })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert!((a.dot(&b).unwrap() - 32.0).abs() < 1e-6);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max().unwrap(), 4.0);
        assert_eq!(t.min().unwrap(), -3.0);
        assert_eq!(t.l1_norm(), 10.0);
        assert!((t.l2_norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(t.linf_norm(), 4.0);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::zeros(&[4]);
        let b = Tensor::ones(&[4]);
        a.add_scaled(&b, 0.5).unwrap();
        a.add_scaled(&b, 0.25).unwrap();
        assert_eq!(a.data(), &[0.75; 4]);
    }

    #[test]
    fn clamp_bounds_values() {
        let t = Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]).unwrap();
        assert_eq!(t.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn batch_item_and_stack_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let stacked = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(stacked.dims(), &[2, 2, 2]);
        assert_eq!(stacked.batch_item(0).unwrap(), a);
        assert_eq!(stacked.batch_item(1).unwrap(), b);
        assert!(stacked.batch_item(2).is_err());
    }

    #[test]
    fn channel_extraction() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 2, 2]).unwrap();
        let c1 = t.channel(1).unwrap();
        assert_eq!(c1.dims(), &[2, 2]);
        assert_eq!(c1.data(), &[4.0, 5.0, 6.0, 7.0]);
        assert!(t.channel(3).is_err());
    }

    #[test]
    fn get_set_multi_index() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.set(&[2, 0], 1.0).is_err());
    }

    #[test]
    fn random_constructors_are_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&[16], -1.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform(&[16], -1.0, 1.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));

        let n = Tensor::rand_normal(&[1001], 0.0, 1.0, &mut r1);
        assert_eq!(n.len(), 1001);
        assert!((n.sum() / 1001.0).abs() < 0.2);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn batch_slice_extracts_contiguous_ranges() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[4, 2, 3]).unwrap();
        let mid = t.batch_slice(1, 2).unwrap();
        assert_eq!(mid.dims(), &[2, 2, 3]);
        assert_eq!(mid.data(), &t.data()[6..18]);
        // A width-1 slice agrees with batch_item modulo the kept batch axis.
        let one = t.batch_slice(3, 1).unwrap();
        assert_eq!(one.dims(), &[1, 2, 3]);
        assert_eq!(one.data(), t.batch_item(3).unwrap().data());
        assert!(t.batch_slice(3, 2).is_err());
        assert!(t.batch_slice(0, 0).is_err());
    }

    #[test]
    fn concat_batch_inverts_a_slice_partition() {
        let t = Tensor::from_vec((0..30).map(|v| v as f32).collect(), &[5, 3, 2]).unwrap();
        let parts = [
            t.batch_slice(0, 2).unwrap(),
            t.batch_slice(2, 1).unwrap(),
            t.batch_slice(3, 2).unwrap(),
        ];
        let rebuilt = Tensor::concat_batch(&parts).unwrap();
        assert_eq!(rebuilt, t);
        // Mismatched trailing dims are rejected.
        let bad = [Tensor::zeros(&[1, 3, 2]), Tensor::zeros(&[1, 2, 3])];
        assert!(Tensor::concat_batch(&bad).is_err());
        assert!(Tensor::concat_batch(&[]).is_err());
    }
}
