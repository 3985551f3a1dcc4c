//! Generalized Tikhonov regularization operators.
//!
//! The paper (Eq. 5–7) penalizes first-layer feature maps `F` with
//! `‖L · F‖²` for two choices of `L`:
//!
//! * `L_hf = I − L_avg`, where `L_avg` is a moving-average (smoothing)
//!   matrix — this extracts and penalizes high-frequency content
//!   (the `Tik_hf` defense);
//! * `L_diff^+`, the pseudoinverse of a difference (derivative) matrix —
//!   a smoothing operator following Reichel & Ye (the `Tik_pseudo`
//!   defense).
//!
//! The paper's `L_diff` is rectangular; to keep the quadratic form
//! well-typed against square `H × W` feature maps we use the square
//! forward-difference matrix (last row zero) and a ridge-regularized
//! pseudoinverse. This preserves the operator's low-pass character, which
//! is the property the defense and the adaptive attack both rely on.

use blurnet_tensor::{default_backend, Tensor};
use serde::{Deserialize, Serialize};

use crate::{Result, SignalError};

/// The `n × n` moving-average matrix `L_avg` with the given (odd) window.
///
/// Row `i` averages the entries whose index lies within the window centred
/// at `i`, clamped at the borders.
///
/// # Errors
///
/// Returns [`SignalError::BadParameter`] if `n == 0`, the window is even,
/// zero, or larger than `n`.
fn moving_average_matrix(n: usize, window: usize) -> Result<Tensor> {
    if n == 0 || window == 0 || window.is_multiple_of(2) || window > n {
        return Err(SignalError::BadParameter(format!(
            "moving average needs 0 < odd window <= n, got window {window}, n {n}"
        )));
    }
    let half = window / 2;
    let mut m = Tensor::zeros(&[n, n]);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half).min(n - 1);
        let count = (hi - lo + 1) as f32;
        for j in lo..=hi {
            m.set(&[i, j], 1.0 / count)?;
        }
    }
    Ok(m)
}

/// The high-frequency extraction operator `L_hf = I − L_avg` (Eq. 6).
///
/// # Errors
///
/// Propagates the validation errors of [`moving_average_matrix`].
fn high_frequency_operator(n: usize, window: usize) -> Result<Tensor> {
    let avg = moving_average_matrix(n, window)?;
    let mut out = avg.scale(-1.0);
    for i in 0..n {
        let v = out.get(&[i, i])?;
        out.set(&[i, i], v + 1.0)?;
    }
    Ok(out)
}

/// The `n × n` forward-difference matrix (last row zero).
///
/// # Errors
///
/// Returns [`SignalError::BadParameter`] if `n < 2`.
fn difference_matrix(n: usize) -> Result<Tensor> {
    if n < 2 {
        return Err(SignalError::BadParameter(
            "difference matrix needs n >= 2".into(),
        ));
    }
    let mut m = Tensor::zeros(&[n, n]);
    for i in 0..n - 1 {
        m.set(&[i, i], -1.0)?;
        m.set(&[i, i + 1], 1.0)?;
    }
    Ok(m)
}

/// Inverts a square matrix with Gauss–Jordan elimination and partial
/// pivoting.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] for non-square inputs and
/// [`SignalError::BadParameter`] if the matrix is (numerically) singular.
fn invert(matrix: &Tensor) -> Result<Tensor> {
    if matrix.shape().rank() != 2 || matrix.dims()[0] != matrix.dims()[1] {
        return Err(SignalError::BadShape(format!(
            "matrix inverse needs a square rank-2 tensor, got {}",
            matrix.shape()
        )));
    }
    let n = matrix.dims()[0];
    // Augmented [A | I] representation.
    let mut a: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let mut row = vec![0.0f32; 2 * n];
            row[..n].copy_from_slice(&matrix.data()[i * n..(i + 1) * n]);
            row[n + i] = 1.0;
            row
        })
        .collect();
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                a[r1][col]
                    .abs()
                    .partial_cmp(&a[r2][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty pivot range");
        if a[pivot_row][col].abs() < 1e-8 {
            return Err(SignalError::BadParameter(
                "matrix is singular to working precision".into(),
            ));
        }
        a.swap(col, pivot_row);
        let pivot = a[col][col];
        for v in a[col].iter_mut() {
            *v /= pivot;
        }
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = a[row][col];
            if factor == 0.0 {
                continue;
            }
            let pivot_row = a[col].clone();
            for (entry, &pivot) in a[row].iter_mut().zip(pivot_row.iter()) {
                *entry -= factor * pivot;
            }
        }
    }
    let mut out = Vec::with_capacity(n * n);
    for row in &a {
        out.extend_from_slice(&row[n..]);
    }
    Ok(Tensor::from_vec(out, &[n, n])?)
}

/// Ridge-regularized (Tikhonov-damped) pseudoinverse
/// `A⁺ ≈ (AᵀA + εI)⁻¹ Aᵀ` of a square matrix.
///
/// # Errors
///
/// Returns an error for non-square inputs or if the damped normal matrix is
/// singular (which cannot happen for `eps > 0`).
fn ridge_pseudoinverse(matrix: &Tensor, eps: f32) -> Result<Tensor> {
    if matrix.shape().rank() != 2 || matrix.dims()[0] != matrix.dims()[1] {
        return Err(SignalError::BadShape(format!(
            "pseudoinverse needs a square rank-2 tensor, got {}",
            matrix.shape()
        )));
    }
    let n = matrix.dims()[0];
    let mut normal = default_backend().matmul_transpose_a(matrix, matrix)?;
    for i in 0..n {
        let v = normal.get(&[i, i])?;
        normal.set(&[i, i], v + eps)?;
    }
    let inv = invert(&normal)?;
    // (AᵀA + εI)⁻¹ Aᵀ — compute as inv · Aᵀ.
    let mut at = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            at.set(&[j, i], matrix.get(&[i, j])?)?;
        }
    }
    Ok(default_backend().matmul(&inv, &at)?)
}

/// A quadratic feature-map penalty `‖L · F‖²_F` with its gradient
/// `2 LᵀL F`, applied column-wise to `[H, W]` maps whose height matches the
/// operator size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OperatorPenalty {
    operator: Tensor,
    gram: Tensor,
}

impl OperatorPenalty {
    /// Wraps a square operator matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadShape`] if the operator is not a square
    /// rank-2 tensor.
    pub(crate) fn new(operator: Tensor) -> Result<Self> {
        if operator.shape().rank() != 2 || operator.dims()[0] != operator.dims()[1] {
            return Err(SignalError::BadShape(format!(
                "operator must be square rank-2, got {}",
                operator.shape()
            )));
        }
        let gram = default_backend().matmul_transpose_a(&operator, &operator)?;
        Ok(OperatorPenalty { operator, gram })
    }

    /// The `Tik_hf` operator penalty of Eq. 6 for `n × n` feature maps.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadParameter`] for `n == 0` or a window that
    /// is zero, even, or larger than `n`.
    pub fn high_frequency(n: usize, window: usize) -> Result<Self> {
        Self::new(high_frequency_operator(n, window)?)
    }

    /// The `Tik_pseudo` operator penalty of Eq. 7 for `n × n` feature maps.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadParameter`] if `n < 2`, and an error if
    /// the damped normal matrix is singular (possible only for `eps <= 0`).
    pub fn pseudo_difference(n: usize, eps: f32) -> Result<Self> {
        Self::new(ridge_pseudoinverse(&difference_matrix(n)?, eps)?)
    }

    /// Size `n` of the operator (feature maps must have height `n`).
    fn size(&self) -> usize {
        self.operator.dims()[0]
    }

    /// Penalty value `‖L · F‖²_F` for an `[H, W]` map with `H == n`.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadShape`] if the map height does not match.
    fn value(&self, map: &Tensor) -> Result<f32> {
        let lf = self.apply(map)?;
        Ok(lf.data().iter().map(|v| v * v).sum())
    }

    /// Gradient `2 LᵀL F` of [`Self::value`] with respect to the map.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadShape`] if the map height does not match.
    fn grad(&self, map: &Tensor) -> Result<Tensor> {
        self.check(map)?;
        Ok(default_backend().matmul(&self.gram, map)?.scale(2.0))
    }

    /// Applies the operator: `L · F`.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadShape`] if the map height does not match.
    fn apply(&self, map: &Tensor) -> Result<Tensor> {
        self.check(map)?;
        Ok(default_backend().matmul(&self.operator, map)?)
    }

    fn check(&self, map: &Tensor) -> Result<()> {
        if map.shape().rank() != 2 || map.dims()[0] != self.size() {
            return Err(SignalError::BadShape(format!(
                "map {} incompatible with operator size {}",
                map.shape(),
                self.size()
            )));
        }
        Ok(())
    }

    /// Mean penalty over every map of an `[N, C, H, W]` batch
    /// (`1/(N·K) Σ ‖L · F‖²`, Eq. 6–7).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadShape`] on rank or extent mismatches.
    pub fn value_batch(&self, batch: &Tensor) -> Result<f32> {
        let (n, c, h, w) = batch_dims(batch, self.size())?;
        let d = batch.data();
        let mut acc = 0.0;
        for i in 0..n * c {
            let map = Tensor::from_vec(d[i * h * w..(i + 1) * h * w].to_vec(), &[h, w])?;
            acc += self.value(&map)?;
        }
        Ok(acc / (n * c) as f32)
    }

    /// Gradient of [`Self::value_batch`] with respect to the batch.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::BadShape`] on rank or extent mismatches.
    pub fn grad_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let (n, c, h, w) = batch_dims(batch, self.size())?;
        let d = batch.data();
        let scale = 1.0 / (n * c) as f32;
        let mut out = Vec::with_capacity(batch.len());
        for i in 0..n * c {
            let map = Tensor::from_vec(d[i * h * w..(i + 1) * h * w].to_vec(), &[h, w])?;
            let g = self.grad(&map)?;
            out.extend(g.data().iter().map(|v| v * scale));
        }
        Ok(Tensor::from_vec(out, &[n, c, h, w])?)
    }
}

fn batch_dims(batch: &Tensor, expected_h: usize) -> Result<(usize, usize, usize, usize)> {
    if batch.shape().rank() != 4 {
        return Err(SignalError::BadShape(format!(
            "expected an [N, C, H, W] batch, got {}",
            batch.shape()
        )));
    }
    let d = batch.dims();
    if d[2] != expected_h {
        return Err(SignalError::BadShape(format!(
            "batch height {} does not match operator size {expected_h}",
            d[2]
        )));
    }
    Ok((d[0], d[1], d[2], d[3]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_rows_sum_to_one() {
        let m = moving_average_matrix(8, 3).unwrap();
        for i in 0..8 {
            let row_sum: f32 = (0..8).map(|j| m.get(&[i, j]).unwrap()).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        assert!(moving_average_matrix(8, 2).is_err());
        assert!(moving_average_matrix(8, 9).is_err());
    }

    #[test]
    fn hf_operator_annihilates_constants() {
        let lhf = high_frequency_operator(8, 3).unwrap();
        let constant = Tensor::full(&[8, 1], 5.0);
        let out = default_backend().matmul(&lhf, &constant).unwrap();
        assert!(out.linf_norm() < 1e-5);
    }

    #[test]
    fn hf_operator_passes_alternating_signal() {
        let lhf = high_frequency_operator(8, 3).unwrap();
        let alternating = Tensor::from_vec(
            (0..8)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
            &[8, 1],
        )
        .unwrap();
        let out = default_backend().matmul(&lhf, &alternating).unwrap();
        // High-frequency content passes through mostly unattenuated.
        assert!(out.l2_norm() > 0.8 * alternating.l2_norm());
    }

    #[test]
    fn invert_recovers_identity() {
        let m = Tensor::from_vec(vec![4.0, 7.0, 2.0, 6.0], &[2, 2]).unwrap();
        let inv = invert(&m).unwrap();
        let prod = default_backend().matmul(&m, &inv).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(&[i, j]).unwrap() - expected).abs() < 1e-4);
            }
        }
        assert!(invert(&Tensor::zeros(&[3, 3])).is_err());
        assert!(invert(&Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn pseudoinverse_acts_as_right_inverse_on_row_space() {
        let n = 8;
        let l = difference_matrix(n).unwrap();
        let pinv = ridge_pseudoinverse(&l, 1e-4).unwrap();
        // L · L⁺ · L ≈ L (Moore-Penrose property, up to ridge damping).
        let backend = default_backend();
        let lpl = backend
            .matmul(&backend.matmul(&l, &pinv).unwrap(), &l)
            .unwrap();
        let diff = lpl.sub(&l).unwrap();
        assert!(diff.linf_norm() < 5e-2, "residual {}", diff.linf_norm());
    }

    #[test]
    fn pseudoinverse_is_smoothing() {
        // Applying L_diff^+ to an alternating (high-frequency) signal yields a
        // much smaller response than applying it to a smooth ramp of equal norm.
        let n = 16;
        let pinv = ridge_pseudoinverse(&difference_matrix(n).unwrap(), 1e-3).unwrap();
        let alternating = Tensor::from_vec(
            (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
            &[n, 1],
        )
        .unwrap();
        let backend = default_backend();
        let hi = backend.matmul(&pinv, &alternating).unwrap().l2_norm();
        let ramp =
            Tensor::from_vec((0..n).map(|i| i as f32 / n as f32).collect(), &[n, 1]).unwrap();
        let ramp = ramp.scale(alternating.l2_norm() / ramp.l2_norm());
        let lo = backend.matmul(&pinv, &ramp).unwrap().l2_norm();
        assert!(lo > 2.0 * hi, "low-frequency response {lo} vs high {hi}");
    }

    #[test]
    fn penalty_gradient_matches_finite_differences() {
        let pen = OperatorPenalty::high_frequency(6, 3).unwrap();
        let map = Tensor::from_vec(
            (0..36).map(|v| ((v * 11) % 5) as f32 * 0.2).collect(),
            &[6, 6],
        )
        .unwrap();
        let grad = pen.grad(&map).unwrap();
        let eps = 1e-3f32;
        for &idx in &[0usize, 8, 17, 30] {
            let mut plus = map.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = map.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (pen.value(&plus).unwrap() - pen.value(&minus).unwrap()) / (2.0 * eps);
            assert!((numeric - grad.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn hf_penalty_prefers_smooth_maps() {
        let pen = OperatorPenalty::high_frequency(8, 3).unwrap();
        let mut smooth = Tensor::zeros(&[8, 8]);
        for y in 0..8 {
            for x in 0..8 {
                smooth.set(&[y, x], (x + y) as f32 * 0.1).unwrap();
            }
        }
        let mut spiky = smooth.clone();
        spiky.set(&[4, 4], 5.0).unwrap();
        assert!(pen.value(&spiky).unwrap() > 10.0 * pen.value(&smooth).unwrap().max(1e-6));
    }

    #[test]
    fn batch_penalty_matches_manual_average() {
        let pen = OperatorPenalty::high_frequency(4, 3).unwrap();
        let mut batch = Tensor::zeros(&[1, 2, 4, 4]);
        batch.set(&[0, 0, 2, 2], 1.0).unwrap();
        batch.set(&[0, 1, 1, 1], 2.0).unwrap();
        let m0 = batch.batch_item(0).unwrap().channel(0).unwrap();
        let m1 = batch.batch_item(0).unwrap().channel(1).unwrap();
        let expected = (pen.value(&m0).unwrap() + pen.value(&m1).unwrap()) / 2.0;
        assert!((pen.value_batch(&batch).unwrap() - expected).abs() < 1e-5);
        let g = pen.grad_batch(&batch).unwrap();
        assert_eq!(g.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn shape_validation() {
        let pen = OperatorPenalty::high_frequency(8, 3).unwrap();
        assert!(pen.value(&Tensor::zeros(&[4, 8])).is_err());
        assert!(pen.value_batch(&Tensor::zeros(&[1, 1, 4, 8])).is_err());
        assert!(OperatorPenalty::new(Tensor::zeros(&[3, 4])).is_err());
        assert!(difference_matrix(1).is_err());
    }
}
