//! Softmax, cross-entropy loss and per-row class predictions.

use blurnet_tensor::Tensor;

use crate::{NnError, Result};

/// Row-wise softmax of a `[N, classes]` logits tensor.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if the input is not rank 2.
fn softmax(logits: &Tensor) -> Result<Tensor> {
    if logits.shape().rank() != 2 {
        return Err(NnError::BadConfig(format!(
            "softmax expects [N, classes], got {}",
            logits.shape()
        )));
    }
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    let mut out = vec![0.0f32; n * c];
    let d = logits.data();
    for i in 0..n {
        let row = &d[i * c..(i + 1) * c];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut denom = 0.0f32;
        for (j, &v) in row.iter().enumerate() {
            let e = (v - max).exp();
            out[i * c + j] = e;
            denom += e;
        }
        for j in 0..c {
            out[i * c + j] /= denom;
        }
    }
    Ok(Tensor::from_vec(out, &[n, c])?)
}

fn check_labels(logits: &Tensor, labels: &[usize]) -> Result<(usize, usize)> {
    if logits.shape().rank() != 2 {
        return Err(NnError::BadConfig(format!(
            "expected [N, classes] logits, got {}",
            logits.shape()
        )));
    }
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != n {
        return Err(NnError::BadLabels(format!(
            "{} labels for a batch of {n}",
            labels.len()
        )));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= c) {
        return Err(NnError::BadLabels(format!(
            "label {bad} out of range for {c} classes"
        )));
    }
    Ok((n, c))
}

/// Mean softmax cross-entropy loss and its gradient with respect to the
/// logits.
///
/// # Errors
///
/// Returns an error if the logits are not rank 2 or the labels are
/// inconsistent with the batch.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let (n, c) = check_labels(logits, labels)?;
    let probs = softmax(logits)?;
    let p = probs.data();
    let mut loss = 0.0f32;
    let mut grad = p.to_vec();
    for (i, &label) in labels.iter().enumerate() {
        let prob = p[i * c + label].max(1e-12);
        loss -= prob.ln();
        grad[i * c + label] -= 1.0;
    }
    let scale = 1.0 / n as f32;
    for g in &mut grad {
        *g *= scale;
    }
    Ok((loss * scale, Tensor::from_vec(grad, &[n, c])?))
}

/// Predicted class index **and** its softmax probability for every row of
/// a `[N, classes]` logits tensor.
///
/// Each row is processed independently with the numerically stable
/// formulation `p = 1 / Σ_j exp(v_j − v_best)`, so a row's result depends
/// only on that row — batching rows together can never change a row's
/// confidence, which is what lets the serving path guarantee micro-batched
/// responses bit-identical to single-request execution.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if the input is not rank 2 or has
/// no classes.
pub fn confidences(logits: &Tensor) -> Result<Vec<(usize, f32)>> {
    Ok(rows(logits)?
        .map(|row| {
            let best = argmax(row);
            // v_best is the row max, so every exponent is ≤ 0: stable.
            let denom: f32 = row.iter().map(|&v| (v - row[best]).exp()).sum();
            (best, 1.0 / denom)
        })
        .collect())
}

/// Predicted class index for every row of a `[N, classes]` logits tensor.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if the input is not rank 2 or has
/// no classes.
pub fn predictions(logits: &Tensor) -> Result<Vec<usize>> {
    Ok(rows(logits)?.map(argmax).collect())
}

/// The rows of a `[N, classes]` logits tensor with at least one class.
fn rows(logits: &Tensor) -> Result<std::slice::ChunksExact<'_, f32>> {
    if logits.shape().rank() != 2 || logits.dims()[1] == 0 {
        return Err(NnError::BadConfig(format!(
            "expected [N, classes] logits, got {}",
            logits.shape()
        )));
    }
    Ok(logits.data().chunks_exact(logits.dims()[1]))
}

/// Index of a row's first maximum — the one argmax behind both
/// [`predictions`] and [`confidences`].
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax(&logits).unwrap();
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| p.get(&[i, j]).unwrap()).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probability.
        assert!(p.get(&[0, 2]).unwrap() > p.get(&[0, 0]).unwrap());
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let logits = Tensor::from_vec(vec![1000.0, 1001.0, 999.0], &[1, 3]).unwrap();
        let p = softmax(&logits).unwrap();
        assert!(p.data().iter().all(|v| v.is_finite()));
        let shifted = softmax(&logits.map(|v| v - 1000.0)).unwrap();
        for (a, b) in p.data().iter().zip(shifted.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
        let (bad_loss, _) = softmax_cross_entropy(&logits, &[1]).unwrap();
        assert!(bad_loss > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 0.8, 0.1, 0.0, -0.5], &[2, 3]).unwrap();
        let labels = [2usize, 0usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut plus = logits.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[idx] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels).unwrap();
            let (lm, _) = softmax_cross_entropy(&minus, &labels).unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grad.data()[idx]).abs() < 1e-3);
        }
    }

    #[test]
    fn predictions_take_the_first_row_maximum() {
        let logits =
            Tensor::from_vec(vec![2.0, 1.0, 0.0, 0.0, 0.5, 3.0, 1.0, 0.0, 1.0], &[3, 3]).unwrap();
        assert_eq!(predictions(&logits).unwrap(), vec![0, 2, 0]);
        assert!(predictions(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn confidences_match_softmax_argmax_and_are_row_local() {
        let logits =
            Tensor::from_vec(vec![2.0, 1.0, 0.0, 0.0, 0.5, 3.0, 1.0, 0.0, -1.0], &[3, 3]).unwrap();
        let conf = confidences(&logits).unwrap();
        let probs = softmax(&logits).unwrap();
        assert_eq!(
            conf.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            predictions(&logits).unwrap()
        );
        for (i, &(label, p)) in conf.iter().enumerate() {
            assert!((p - probs.get(&[i, label]).unwrap()).abs() < 1e-6);
            assert!(p > 0.0 && p <= 1.0);
        }
        // Row-local: a row's confidence is bit-identical whether computed
        // in a batch or alone (the serving determinism contract).
        for (i, expected) in conf.iter().enumerate() {
            let row = logits.batch_slice(i, 1).unwrap();
            let solo = confidences(&row).unwrap()[0];
            assert_eq!(solo.0, expected.0);
            assert_eq!(solo.1.to_bits(), expected.1.to_bits());
        }
        // Stable on extreme logits.
        let extreme = Tensor::from_vec(vec![1000.0, -1000.0], &[1, 2]).unwrap();
        let (label, p) = confidences(&extreme).unwrap()[0];
        assert_eq!(label, 0);
        assert!(p.is_finite() && (p - 1.0).abs() < 1e-6);
    }

    #[test]
    fn label_validation() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 3]).is_err());
        assert!(softmax(&Tensor::zeros(&[3])).is_err());
        assert!(confidences(&Tensor::zeros(&[3])).is_err());
    }
}
