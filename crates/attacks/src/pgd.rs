//! Projected gradient descent (PGD) under an L∞ pixel budget.
//!
//! The supplementary evaluation of the paper (Table IV) checks every
//! defense against the standard ε-bounded adversary of Madry et al.:
//! ε = 8/255, step size 0.01, 10 steps. All BlurNet defenses break under
//! this threat model because the perturbation is no longer constrained to
//! a localized sticker.
//!
//! Generation is **batched**: all `steps` iterations run on the whole
//! `[N, C, H, W]` batch at once through the immutable
//! [`blurnet_nn::BatchEngine`] gradient path (one recorded forward + one
//! tape-driven backward per step, sharded over rayon workers), and the
//! ascend/project/clamp update happens in place on the batch buffer — no
//! per-step tensor clones. Results are identical to the historical
//! per-image gradient loop and bit-identical at every thread count.

use blurnet_nn::{BatchEngine, Sequential};
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::metrics::{batch_l2_dissimilarity, untargeted_success_from_logits, AttackEvaluation};
use crate::{AttackError, Result};

/// PGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PgdConfig {
    /// L∞ budget ε.
    pub epsilon: f32,
    /// Step size α.
    pub step_size: f32,
    /// Number of gradient steps.
    pub steps: usize,
    /// Whether to start from a random point inside the ε-ball.
    pub random_start: bool,
}

impl Default for PgdConfig {
    fn default() -> Self {
        PgdConfig {
            epsilon: 8.0 / 255.0,
            step_size: 0.01,
            steps: 10,
            random_start: false,
        }
    }
}

/// The PGD attack engine.
#[derive(Debug, Clone)]
pub struct PgdAttack {
    config: PgdConfig,
}

impl PgdAttack {
    /// Creates a PGD attack.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for non-positive ε, step size or
    /// step count.
    pub fn new(config: PgdConfig) -> Result<Self> {
        if config.epsilon <= 0.0 || config.step_size <= 0.0 || config.steps == 0 {
            return Err(AttackError::BadConfig(format!(
                "PGD needs positive epsilon/step size/steps, got {config:?}"
            )));
        }
        Ok(PgdAttack { config })
    }

    /// Generates untargeted adversarial examples for a whole `[N, C, H, W]`
    /// batch at once: every PGD step is one batched recorded forward + one
    /// tape-driven backward through `engine`, and the
    /// ascend/project/clamp update mutates the batch buffer in place.
    ///
    /// Identical to running the per-image gradient loop on each row (the
    /// per-shard cross-entropy normalization matches the per-image loss,
    /// and `sign` is scale-invariant), and bit-identical at every rayon
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-`[N, C, H, W]` batch or a label count
    /// that does not match the batch size.
    fn perturb_with_engine(
        &self,
        engine: &BatchEngine<'_>,
        images: &Tensor,
        labels: &[usize],
    ) -> Result<Tensor> {
        if images.shape().rank() != 4 || images.dims()[0] == 0 {
            return Err(AttackError::BadInput(format!(
                "expected a non-empty [N, C, H, W] batch, got {}",
                images.shape()
            )));
        }
        if labels.len() != images.dims()[0] {
            return Err(AttackError::BadInput(format!(
                "{} labels for a batch of {}",
                labels.len(),
                images.dims()[0]
            )));
        }
        let mut x_adv = if self.config.random_start {
            // Deterministic pseudo-random start derived from the image so the
            // attack itself stays reproducible without an external RNG. The
            // hash must land in [0, 1) — a plain `fract()` keeps the sign of
            // its argument and would bias the jitter below the pixel (and up
            // to 3ε outside the ball) wherever the sine is negative.
            images.map(|v| {
                let jitter = ((v * 12_9898.0).sin() * 43_758.547).rem_euclid(1.0);
                (v + (jitter - 0.5) * 2.0 * self.config.epsilon).clamp(0.0, 1.0)
            })
        } else {
            images.clone()
        };
        let (alpha, eps) = (self.config.step_size, self.config.epsilon);
        for _ in 0..self.config.steps {
            let step = engine.forward_backward_batch(&x_adv, labels)?;
            // Ascend the loss, project back into the ε-ball around the
            // clean batch and clamp to the pixel range — one in-place pass
            // over the batch buffer.
            let grad = step.input_grad.data();
            let clean = images.data();
            for ((x, &g), &orig) in x_adv.data_mut().iter_mut().zip(grad).zip(clean) {
                let stepped = *x + alpha * g.signum();
                *x = stepped.clamp(orig - eps, orig + eps).clamp(0.0, 1.0);
            }
        }
        Ok(x_adv)
    }

    /// Generates untargeted adversarial examples for a whole `[N, C, H, W]`
    /// batch over a borrowed network: builds the engine (packing each
    /// layer's weights once for all steps) and runs every PGD step on the
    /// full batch, bit-identically at every rayon thread count.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-`[N, C, H, W]` batch or a label count
    /// that does not match the batch size.
    pub fn perturb(&self, net: &Sequential, images: &Tensor, labels: &[usize]) -> Result<Tensor> {
        let engine = net.batch_engine()?;
        self.perturb_with_engine(&engine, images, labels)
    }

    /// Attacks a set of images and reports the untargeted success rate (the
    /// fraction of predictions the attack changed) and dissimilarity.
    ///
    /// One engine serves the whole evaluation: generation runs all steps on
    /// the full batch, and both prediction sets — clean and adversarial —
    /// are judged with one batch-parallel forward pass each, with the
    /// metrics computed straight from the batched logits and image buffers.
    ///
    /// # Errors
    ///
    /// Returns an error if `images` and `labels` are empty or mismatched.
    pub fn evaluate(
        &self,
        net: &Sequential,
        images: &[Tensor],
        labels: &[usize],
    ) -> Result<AttackEvaluation> {
        if images.is_empty() || images.len() != labels.len() {
            return Err(AttackError::BadInput(format!(
                "mismatched evaluation set: {} images, {} labels",
                images.len(),
                labels.len()
            )));
        }
        let clean = Tensor::stack(images)?;
        let engine = net.batch_engine()?;
        let clean_logits = engine.forward(&clean)?;
        let adversarial = self.perturb_with_engine(&engine, &clean, labels)?;
        let adv_logits = engine.forward(&adversarial)?;
        let dissims = batch_l2_dissimilarity(&clean, &adversarial)?;
        Ok(AttackEvaluation {
            success_rate: untargeted_success_from_logits(&clean_logits, &adv_logits)?,
            l2_dissimilarity: dissims.iter().sum::<f32>() / dissims.len() as f32,
            count: images.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_data::{DatasetConfig, SignDataset};
    use blurnet_nn::{softmax_cross_entropy, LisaCnn};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_setup() -> (Sequential, SignDataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        let mut cfg = DatasetConfig::tiny();
        cfg.image_size = 16;
        (net, SignDataset::generate(&cfg, 3).unwrap())
    }

    /// A batch-of-one [`PgdAttack::perturb`] of one `[C, H, W]` image.
    fn perturb_one(attack: &PgdAttack, net: &Sequential, image: &Tensor, label: usize) -> Tensor {
        let batch = Tensor::stack(std::slice::from_ref(image)).unwrap();
        attack
            .perturb(net, &batch, &[label])
            .unwrap()
            .batch_item(0)
            .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(PgdAttack::new(PgdConfig {
            epsilon: 0.0,
            ..PgdConfig::default()
        })
        .is_err());
        assert!(PgdAttack::new(PgdConfig {
            steps: 0,
            ..PgdConfig::default()
        })
        .is_err());
        assert!(PgdAttack::new(PgdConfig::default()).is_ok());
    }

    #[test]
    fn perturbation_respects_epsilon_ball() {
        let (net, data) = tiny_setup();
        let attack = PgdAttack::new(PgdConfig::default()).unwrap();
        let image = &data.stop_eval_images()[0];
        let adv = perturb_one(&attack, &net, image, 14);
        let max_diff = adv.sub(image).unwrap().linf_norm();
        assert!(
            max_diff <= 8.0 / 255.0 + 1e-5,
            "L-inf violation: {max_diff}"
        );
        assert!(adv.min().unwrap() >= 0.0 && adv.max().unwrap() <= 1.0);
    }

    #[test]
    fn random_start_stays_in_ball() {
        let (net, data) = tiny_setup();
        let attack = PgdAttack::new(PgdConfig {
            random_start: true,
            ..PgdConfig::default()
        })
        .unwrap();
        let image = &data.stop_eval_images()[1];
        let adv = perturb_one(&attack, &net, image, 14);
        assert!(adv.sub(image).unwrap().linf_norm() <= 8.0 / 255.0 + 1e-5);
    }

    #[test]
    fn pgd_increases_true_label_loss() {
        let (net, data) = tiny_setup();
        let attack = PgdAttack::new(PgdConfig {
            epsilon: 0.1,
            step_size: 0.02,
            steps: 10,
            random_start: false,
        })
        .unwrap();
        let image = &data.stop_eval_images()[0];
        let label = 14usize;
        let engine = net.batch_engine().unwrap();
        let clean_logits = engine
            .forward(&Tensor::stack(std::slice::from_ref(image)).unwrap())
            .unwrap();
        let (clean_loss, _) = softmax_cross_entropy(&clean_logits, &[label]).unwrap();
        let adv = perturb_one(&attack, &net, image, label);
        let adv_logits = engine.forward(&Tensor::stack(&[adv]).unwrap()).unwrap();
        let (adv_loss, _) = softmax_cross_entropy(&adv_logits, &[label]).unwrap();
        assert!(
            adv_loss >= clean_loss,
            "{adv_loss} should exceed {clean_loss}"
        );
    }

    #[test]
    fn batched_perturb_matches_per_image_generate() {
        let (net, data) = tiny_setup();
        let attack = PgdAttack::new(PgdConfig::default()).unwrap();
        let images: Vec<Tensor> = data.stop_eval_images()[..3].to_vec();
        let labels = [14usize, 14, 14];
        let batch = Tensor::stack(&images).unwrap();
        let batched = attack.perturb(&net, &batch, &labels).unwrap();
        for (i, image) in images.iter().enumerate() {
            let single = perturb_one(&attack, &net, image, labels[i]);
            assert_eq!(
                batched.batch_item(i).unwrap(),
                single,
                "image {i} diverged from the batch-of-one path"
            );
        }
        // Bit-identical across thread counts.
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let again = pool.install(|| attack.perturb(&net, &batch, &labels).unwrap());
            assert_eq!(again, batched, "threads {threads}");
        }
        // Label/shape validation.
        assert!(attack.perturb(&net, &batch, &labels[..2]).is_err());
        assert!(attack
            .perturb(&net, &Tensor::zeros(&[3, 16, 16]), &labels)
            .is_err());
    }

    #[test]
    fn evaluate_validates_inputs() {
        let (net, data) = tiny_setup();
        let attack = PgdAttack::new(PgdConfig::default()).unwrap();
        let images: Vec<Tensor> = data.stop_eval_images()[..2].to_vec();
        let eval = attack.evaluate(&net, &images, &[14, 14]).unwrap();
        assert!((0.0..=1.0).contains(&eval.success_rate));
        assert!(attack.evaluate(&net, &images, &[14]).is_err());
        assert!(attack.evaluate(&net, &[], &[]).is_err());
    }

    #[test]
    fn bad_image_rank_rejected() {
        let (net, _) = tiny_setup();
        let attack = PgdAttack::new(PgdConfig::default()).unwrap();
        assert!(attack
            .perturb(&net, &Tensor::zeros(&[16, 16]), &[0])
            .is_err());
    }
}
