//! Black-box transfer evaluation (Table I of the paper).
//!
//! Adversarial examples are generated on a surrogate (the undefended
//! baseline network) and then evaluated on a defended victim that the
//! attacker cannot introspect. Victims are anything that can classify a
//! single image — a plain network, a network behind input filtering, or a
//! randomized-smoothing wrapper — expressed through the [`Classifier`]
//! trait.

use blurnet_nn::Sequential;
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::metrics::{l2_dissimilarity, untargeted_success_rate};
use crate::rp2::Rp2Attack;
use crate::{AttackError, Result};

/// Anything that can classify a single `[C, H, W]` image.
///
/// The mutable receiver allows implementations that sample randomness
/// (randomized smoothing advances its RNG on every vote).
pub trait Classifier {
    /// Predicts the class of one image.
    ///
    /// # Errors
    ///
    /// Returns an error if the image shape is incompatible with the model.
    fn classify(&mut self, image: &Tensor) -> Result<usize>;

    /// Predicts the class of every image in `images`.
    ///
    /// The default implementation loops [`Classifier::classify`]; models
    /// backed by a network override it to ride the batch-parallel
    /// inference engine (one sharded forward pass instead of per-image
    /// passes). Every evaluation loop in this crate classifies through
    /// this entry point.
    ///
    /// # Errors
    ///
    /// Returns an error if any image is incompatible with the model.
    fn classify_batch(&mut self, images: &[Tensor]) -> Result<Vec<usize>> {
        images.iter().map(|image| self.classify(image)).collect()
    }
}

impl Classifier for Sequential {
    fn classify(&mut self, image: &Tensor) -> Result<usize> {
        let batch = Tensor::stack(std::slice::from_ref(image))?;
        Ok(self.predict_batch(&batch)?[0])
    }

    /// One batch-parallel forward pass over the whole set.
    fn classify_batch(&mut self, images: &[Tensor]) -> Result<Vec<usize>> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let batch = Tensor::stack(images)?;
        Ok(self.predict_batch(&batch)?)
    }
}

/// A reusable transfer-attack artifact: one surrogate-generated adversarial
/// set together with its clean counterparts and labels.
///
/// Generating the set is the expensive half of a transfer evaluation (an
/// RP2 optimization over the whole image set); evaluating a victim is one
/// batched classification. Generating the artifact **once** and reusing it
/// across every victim — exactly what Table I's five rows and the
/// experiment scheduler's cell DAG do — keeps the cost of adding a victim
/// at one forward pass. Generation is deterministic (the RP2 transform
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
        let adversarial = attack.generate_sweep(surrogate, clean, &[target])?;
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

    /// Evaluates this artifact against one victim (see
    /// [`evaluate_transfer`]).
    ///
    /// # Errors
    ///
    /// Propagates classification errors.
    pub fn evaluate<C: Classifier + ?Sized>(&self, victim: &mut C) -> Result<TransferReport> {
        evaluate_transfer(victim, &self.clean, &self.adversarial, &self.labels)
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

/// Evaluates transferred adversarial examples against a victim classifier.
///
/// `clean` and `adversarial` must be index-aligned; `labels` are the true
/// classes of the clean images (used for the victim's clean accuracy).
///
/// # Errors
///
/// Returns [`AttackError::BadInput`] for empty or mismatched sets.
pub fn evaluate_transfer<C: Classifier + ?Sized>(
    victim: &mut C,
    clean: &[Tensor],
    adversarial: &[Tensor],
    labels: &[usize],
) -> Result<TransferReport> {
    if clean.is_empty() || clean.len() != adversarial.len() || clean.len() != labels.len() {
        return Err(AttackError::BadInput(format!(
            "mismatched transfer sets: {} clean, {} adversarial, {} labels",
            clean.len(),
            adversarial.len(),
            labels.len()
        )));
    }
    // Both prediction sets ride the victim's batched path (a single
    // sharded forward pass for network-backed victims).
    let clean_preds = victim.classify_batch(clean)?;
    let adv_preds = victim.classify_batch(adversarial)?;
    let mut dissims = Vec::with_capacity(clean.len());
    let mut correct = 0usize;
    for ((c, a), (&cp, &label)) in clean
        .iter()
        .zip(adversarial.iter())
        .zip(clean_preds.iter().zip(labels.iter()))
    {
        if cp == label {
            correct += 1;
        }
        dissims.push(l2_dissimilarity(c, a)?);
    }
    Ok(TransferReport {
        clean_accuracy: correct as f32 / clean.len() as f32,
        attack_success_rate: untargeted_success_rate(&clean_preds, &adv_preds)?,
        l2_dissimilarity: dissims.iter().sum::<f32>() / dissims.len() as f32,
        count: clean.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classifier stub with scripted outputs.
    struct Scripted {
        outputs: Vec<usize>,
        cursor: usize,
    }

    impl Classifier for Scripted {
        fn classify(&mut self, _image: &Tensor) -> Result<usize> {
            let out = self.outputs[self.cursor % self.outputs.len()];
            self.cursor += 1;
            Ok(out)
        }
    }

    fn images(n: usize, value: f32) -> Vec<Tensor> {
        (0..n).map(|_| Tensor::full(&[3, 4, 4], value)).collect()
    }

    #[test]
    fn report_reflects_scripted_predictions() {
        // The harness classifies the whole clean set, then the whole
        // adversarial set: clean=0 (correct), adv=1 (changed) for both
        // images.
        let mut victim = Scripted {
            outputs: vec![0, 0, 1, 1],
            cursor: 0,
        };
        let clean = images(2, 0.5);
        let adv = images(2, 0.6);
        let report = evaluate_transfer(&mut victim, &clean, &adv, &[0, 0]).unwrap();
        assert_eq!(report.clean_accuracy, 1.0);
        assert_eq!(report.attack_success_rate, 1.0);
        assert!(report.l2_dissimilarity > 0.0);
        assert_eq!(report.count, 2);
    }

    #[test]
    fn unchanged_predictions_mean_no_success() {
        let mut victim = Scripted {
            outputs: vec![3],
            cursor: 0,
        };
        let clean = images(3, 0.5);
        let adv = images(3, 0.55);
        let report = evaluate_transfer(&mut victim, &clean, &adv, &[3, 3, 0]).unwrap();
        assert_eq!(report.attack_success_rate, 0.0);
        assert!((report.clean_accuracy - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn input_validation() {
        let mut victim = Scripted {
            outputs: vec![0],
            cursor: 0,
        };
        let clean = images(2, 0.5);
        let adv = images(1, 0.6);
        assert!(evaluate_transfer(&mut victim, &clean, &adv, &[0, 0]).is_err());
        assert!(evaluate_transfer(&mut victim, &[], &[], &[]).is_err());
    }

    #[test]
    fn sequential_implements_classifier() {
        use blurnet_nn::LisaCnn;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        let image = Tensor::full(&[3, 16, 16], 0.5);
        let pred = net.classify(&image).unwrap();
        assert!(pred < 18);
        // The batched override agrees with per-image classification.
        let images = [image, Tensor::full(&[3, 16, 16], 0.1)];
        let batched = net.classify_batch(&images).unwrap();
        let singles: Vec<usize> = images.iter().map(|i| net.classify(i).unwrap()).collect();
        assert_eq!(batched, singles);
        assert!(net.classify_batch(&[]).unwrap().is_empty());
    }
}
