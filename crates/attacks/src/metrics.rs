//! Attack evaluation metrics: success rates and dissimilarity distances.

use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{AttackError, Result};

/// Summary of one attack evaluation over a set of images.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackEvaluation {
    /// Fraction of images for which the attack achieved its goal.
    pub success_rate: f32,
    /// Mean relative L2 dissimilarity `‖x − x_adv‖₂ / ‖x‖₂`.
    pub l2_dissimilarity: f32,
    /// Number of images evaluated.
    pub count: usize,
}

/// Relative L2 dissimilarity `‖x − x_adv‖₂ / ‖x‖₂` between one clean image
/// and its adversarial counterpart (Section II-A of the paper).
///
/// # Errors
///
/// Returns [`AttackError::BadInput`] if the shapes differ or the clean image
/// has zero norm.
pub fn l2_dissimilarity(clean: &Tensor, adversarial: &Tensor) -> Result<f32> {
    let diff = clean
        .sub(adversarial)
        .map_err(|e| AttackError::BadInput(format!("shape mismatch: {e}")))?;
    let denom = clean.l2_norm();
    if denom == 0.0 {
        return Err(AttackError::BadInput(
            "clean image has zero norm; dissimilarity undefined".into(),
        ));
    }
    Ok(diff.l2_norm() / denom)
}

/// Per-image relative L2 dissimilarities between two index-aligned
/// `[N, ...]` batches, computed directly on row slices of the batched
/// tensors — no per-image tensor subtractions or allocations.
///
/// Each entry equals [`l2_dissimilarity`] on the corresponding pair of
/// batch items.
///
/// # Errors
///
/// Returns [`AttackError::BadInput`] for mismatched shapes, an empty
/// batch, or a zero-norm clean image.
pub fn batch_l2_dissimilarity(clean: &Tensor, adversarial: &Tensor) -> Result<Vec<f32>> {
    if clean.dims() != adversarial.dims() || clean.shape().rank() < 2 || clean.dims()[0] == 0 {
        return Err(AttackError::BadInput(format!(
            "mismatched or empty batches: {} vs {}",
            clean.shape(),
            adversarial.shape()
        )));
    }
    let n = clean.dims()[0];
    let stride = clean.len() / n;
    let c = clean.data();
    let a = adversarial.data();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (mut diff_sq, mut clean_sq) = (0.0f32, 0.0f32);
        for (x, y) in c[i * stride..(i + 1) * stride]
            .iter()
            .zip(a[i * stride..(i + 1) * stride].iter())
        {
            let d = x - y;
            diff_sq += d * d;
            clean_sq += x * x;
        }
        if clean_sq == 0.0 {
            return Err(AttackError::BadInput(
                "clean image has zero norm; dissimilarity undefined".into(),
            ));
        }
        out.push(diff_sq.sqrt() / clean_sq.sqrt());
    }
    Ok(out)
}

/// Argmax of one logits row, first maximum winning ties — the same rule as
/// `blurnet_nn::predictions`, applied to a slice.
fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Untargeted success rate straight from two batched `[N, classes]` logits
/// tensors: argmax per row slice, then the fraction of rows where the two
/// predictions differ. Avoids materializing prediction vectors between the
/// batched forward pass and the metric.
///
/// # Errors
///
/// Returns [`AttackError::BadInput`] for empty or mismatched logit sets.
pub fn untargeted_success_from_logits(clean_logits: &Tensor, adv_logits: &Tensor) -> Result<f32> {
    if clean_logits.dims() != adv_logits.dims()
        || clean_logits.shape().rank() != 2
        || clean_logits.dims()[0] == 0
    {
        return Err(AttackError::BadInput(format!(
            "mismatched or empty logit sets: {} vs {}",
            clean_logits.shape(),
            adv_logits.shape()
        )));
    }
    let (n, classes) = (clean_logits.dims()[0], clean_logits.dims()[1]);
    let c = clean_logits.data();
    let a = adv_logits.data();
    let changed = (0..n)
        .filter(|&i| {
            argmax_row(&c[i * classes..(i + 1) * classes])
                != argmax_row(&a[i * classes..(i + 1) * classes])
        })
        .count();
    Ok(changed as f32 / n as f32)
}

/// Untargeted attack success rate: the fraction of predictions that the
/// attack changed, `1/N Σ 1[F(x) ≠ F(x_adv)]`.
///
/// # Errors
///
/// Returns [`AttackError::BadInput`] for empty or mismatched sets.
pub fn untargeted_success_rate(clean_preds: &[usize], adv_preds: &[usize]) -> Result<f32> {
    if clean_preds.is_empty() || clean_preds.len() != adv_preds.len() {
        return Err(AttackError::BadInput(format!(
            "mismatched prediction sets: {} vs {}",
            clean_preds.len(),
            adv_preds.len()
        )));
    }
    let changed = clean_preds
        .iter()
        .zip(adv_preds.iter())
        .filter(|(c, a)| c != a)
        .count();
    Ok(changed as f32 / clean_preds.len() as f32)
}

/// Targeted attack success rate: the fraction of adversarial predictions
/// equal to the attacker's target class.
///
/// # Errors
///
/// Returns [`AttackError::BadInput`] for an empty prediction set.
pub fn targeted_success_rate(adv_preds: &[usize], target: usize) -> Result<f32> {
    if adv_preds.is_empty() {
        return Err(AttackError::BadInput("no predictions to evaluate".into()));
    }
    let hits = adv_preds.iter().filter(|&&p| p == target).count();
    Ok(hits as f32 / adv_preds.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dissimilarity_of_identical_images_is_zero() {
        let x = Tensor::full(&[3, 4, 4], 0.5);
        assert_eq!(l2_dissimilarity(&x, &x).unwrap(), 0.0);
    }

    #[test]
    fn dissimilarity_scales_with_perturbation() {
        let x = Tensor::full(&[3, 4, 4], 0.5);
        let small = x.map(|v| v + 0.01);
        let large = x.map(|v| v + 0.1);
        let d_small = l2_dissimilarity(&x, &small).unwrap();
        let d_large = l2_dissimilarity(&x, &large).unwrap();
        assert!(d_large > 5.0 * d_small);
        assert!((d_large - 0.2).abs() < 1e-5);
    }

    #[test]
    fn dissimilarity_error_cases() {
        let x = Tensor::zeros(&[3, 4, 4]);
        let y = Tensor::zeros(&[3, 4, 5]);
        assert!(l2_dissimilarity(&x, &y).is_err());
        assert!(l2_dissimilarity(&x, &x).is_err()); // zero-norm clean image
    }

    #[test]
    fn success_rates() {
        assert_eq!(
            untargeted_success_rate(&[1, 2, 3, 4], &[1, 0, 3, 0]).unwrap(),
            0.5
        );
        assert_eq!(targeted_success_rate(&[5, 5, 2, 5], 5).unwrap(), 0.75);
        assert!(untargeted_success_rate(&[], &[]).is_err());
        assert!(untargeted_success_rate(&[1], &[1, 2]).is_err());
        assert!(targeted_success_rate(&[], 0).is_err());
    }

    #[test]
    fn batch_dissimilarity_matches_per_image_metric() {
        let clean = Tensor::from_vec(
            (0..24).map(|v| 0.2 + 0.03 * v as f32).collect(),
            &[2, 3, 2, 2],
        )
        .unwrap();
        let adv = clean.map(|v| (v + 0.05).min(1.0));
        let batched = batch_l2_dissimilarity(&clean, &adv).unwrap();
        assert_eq!(batched.len(), 2);
        for (i, &d) in batched.iter().enumerate() {
            let c = clean.batch_item(i).unwrap();
            let a = adv.batch_item(i).unwrap();
            let reference = l2_dissimilarity(&c, &a).unwrap();
            assert!(
                (d - reference).abs() < 1e-6,
                "image {i}: {d} vs {reference}"
            );
        }
        // Shape and zero-norm validation.
        assert!(batch_l2_dissimilarity(&clean, &Tensor::zeros(&[2, 3, 2, 3])).is_err());
        let zero = Tensor::zeros(&[1, 4]);
        assert!(batch_l2_dissimilarity(&zero, &zero).is_err());
    }

    #[test]
    fn logit_success_rates_match_prediction_based_rates() {
        // Row argmaxes: clean = [0, 2, 1], adv = [0, 1, 1].
        let clean = Tensor::from_vec(
            vec![
                3.0, 1.0, 2.0, /* row 1 */ 0.0, 1.0, 5.0, /* row 2 */ 0.0, 2.0, 1.0,
            ],
            &[3, 3],
        )
        .unwrap();
        let adv = Tensor::from_vec(
            vec![
                9.0, 1.0, 2.0, /* row 1 */ 0.0, 7.0, 5.0, /* row 2 */ 0.0, 2.0, 1.0,
            ],
            &[3, 3],
        )
        .unwrap();
        let from_logits = untargeted_success_from_logits(&clean, &adv).unwrap();
        assert!((from_logits - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(
            untargeted_success_rate(&[0, 2, 1], &[0, 1, 1]).unwrap(),
            from_logits
        );
        // Ties go to the first maximum, like loss::predictions.
        let tied = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let first = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        assert_eq!(untargeted_success_from_logits(&first, &tied).unwrap(), 0.0);
        assert!(untargeted_success_from_logits(&clean, &tied).is_err());
    }
}
