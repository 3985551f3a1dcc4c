//! Black-box transfer evaluation (Table I of the paper).
//!
//! Adversarial examples are generated on a surrogate (the undefended
//! baseline network) and then evaluated on a defended victim that the
//! attacker cannot introspect. The victim's side is just two prediction
//! vectors — its labels for the clean and the adversarial images — so any
//! defended prediction path (a plain network, input filtering, a
//! feature-map filter) can be judged without this crate knowing it.

use blurnet_nn::Sequential;
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::metrics::{l2_dissimilarity, untargeted_success_rate};
use crate::rp2::Rp2Attack;
use crate::{AttackError, Result};

/// A reusable transfer-attack artifact: one surrogate-generated adversarial
/// set together with its clean counterparts and labels.
///
/// Generating the set is the expensive half of a transfer evaluation (an
/// RP2 optimization over the whole image set); evaluating a victim is one
/// batched classification of each image set. Generating the artifact
/// **once** and reusing it across every victim — exactly what Table I's
/// five rows and the experiment scheduler's cell DAG do — keeps the cost of
/// adding a victim at two forward passes. Generation is deterministic (the RP2 transform
/// schedule is seeded from its config), so two artifacts generated from
/// the same surrogate and inputs are bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferSet {
    /// The clean images the set was generated from.
    pub clean: Vec<Tensor>,
    /// Index-aligned adversarial examples from the surrogate.
    pub adversarial: Vec<Tensor>,
    /// True classes of the clean images.
    pub labels: Vec<usize>,
    /// The attacker's target class.
    pub target: usize,
}

impl TransferSet {
    /// Generates the artifact with one batched RP2 optimization on the
    /// surrogate network.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadInput`] for empty or mismatched inputs;
    /// propagates generation errors.
    pub fn generate(
        surrogate: &Sequential,
        attack: &Rp2Attack,
        clean: &[Tensor],
        labels: &[usize],
        target: usize,
    ) -> Result<Self> {
        if clean.is_empty() || clean.len() != labels.len() {
            return Err(AttackError::BadInput(format!(
                "mismatched transfer inputs: {} images, {} labels",
                clean.len(),
                labels.len()
            )));
        }
        let batch = attack.generate_sweep(surrogate, clean, &[target])?;
        let adversarial = (0..clean.len())
            .map(|i| Ok(batch.batch_item(i)?))
            .collect::<Result<_>>()?;
        Ok(TransferSet {
            clean: clean.to_vec(),
            adversarial,
            labels: labels.to_vec(),
            target,
        })
    }

    /// Number of image pairs in the artifact.
    pub fn len(&self) -> usize {
        self.clean.len()
    }

    /// Whether the artifact is empty (never true for a generated set).
    pub fn is_empty(&self) -> bool {
        self.clean.is_empty()
    }

    /// Judges one victim from its predictions on this artifact:
    /// `clean_preds` and `adv_preds` are its labels for [`TransferSet::clean`]
    /// and [`TransferSet::adversarial`], index-aligned with them.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadInput`] for an empty set or any length
    /// mismatch among images, labels and predictions.
    pub fn evaluate(&self, clean_preds: &[usize], adv_preds: &[usize]) -> Result<TransferReport> {
        let n = self.clean.len();
        let [adversarial, labels, clean_p, adv_p] = [
            self.adversarial.len(),
            self.labels.len(),
            clean_preds.len(),
            adv_preds.len(),
        ];
        if n == 0
            || [adversarial, labels, clean_p, adv_p]
                .iter()
                .any(|&len| len != n)
        {
            return Err(AttackError::BadInput(format!(
                "mismatched transfer sets: {n} clean, {adversarial} adversarial, \
                 {labels} labels, {clean_p} clean and {adv_p} adversarial predictions"
            )));
        }
        let correct = clean_preds
            .iter()
            .zip(&self.labels)
            .filter(|(p, l)| p == l)
            .count();
        let dissims = self
            .clean
            .iter()
            .zip(&self.adversarial)
            .map(|(c, a)| l2_dissimilarity(c, a))
            .collect::<Result<Vec<f32>>>()?;
        Ok(TransferReport {
            clean_accuracy: correct as f32 / n as f32,
            attack_success_rate: untargeted_success_rate(clean_preds, adv_preds)?,
            l2_dissimilarity: dissims.iter().sum::<f32>() / n as f32,
            count: n,
        })
    }
}

/// Result of a black-box transfer evaluation against one victim.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferReport {
    /// Victim accuracy on the clean evaluation images.
    pub clean_accuracy: f32,
    /// Fraction of images whose victim prediction the transferred
    /// adversarial examples changed.
    pub attack_success_rate: f32,
    /// Mean relative L2 dissimilarity of the transferred examples.
    pub l2_dissimilarity: f32,
    /// Number of evaluated images.
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(clean: usize, adversarial: usize, labels: &[usize]) -> TransferSet {
        let images =
            |n: usize, value: f32| (0..n).map(|_| Tensor::full(&[3, 4, 4], value)).collect();
        TransferSet {
            clean: images(clean, 0.5),
            adversarial: images(adversarial, 0.6),
            labels: labels.to_vec(),
            target: 1,
        }
    }

    #[test]
    fn report_reflects_scripted_predictions() {
        // Clean = 0 (correct), adversarial = 1 (changed) for both images.
        let report = set(2, 2, &[0, 0]).evaluate(&[0, 0], &[1, 1]).unwrap();
        assert_eq!(report.clean_accuracy, 1.0);
        assert_eq!(report.attack_success_rate, 1.0);
        assert!(report.l2_dissimilarity > 0.0);
        assert_eq!(report.count, 2);
    }

    #[test]
    fn unchanged_predictions_mean_no_success() {
        let report = set(3, 3, &[3, 3, 0])
            .evaluate(&[3, 3, 3], &[3, 3, 3])
            .unwrap();
        assert_eq!(report.attack_success_rate, 0.0);
        assert!((report.clean_accuracy - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn input_validation() {
        assert!(set(2, 1, &[0, 0]).evaluate(&[0, 0], &[0, 0]).is_err());
        assert!(set(0, 0, &[]).evaluate(&[], &[]).is_err());
        let good = set(2, 2, &[0, 0]);
        assert!(good.evaluate(&[0], &[0, 0]).is_err());
        assert!(good.evaluate(&[0, 0], &[0, 0, 0]).is_err());
    }
}
