//! The Robust Physical Perturbations (RP2) attack.
//!
//! RP2 (Eykholt et al.) finds a sticker-like perturbation `δ` constrained to
//! the sign by a binary mask `M_x`, optimized so that the perturbed sign is
//! classified as an attacker-chosen target `y*` across a transform ensemble
//! `T_i` (Eq. 1 of the BlurNet paper):
//!
//! ```text
//! argmin_δ  λ‖M_x · δ‖₂ + NPS + J(f_θ(x + T_i(M_x · δ)), y*)
//! ```
//!
//! The same optimizer loop also powers the adaptive variants of
//! [`crate::adaptive`] through [`AdaptiveObjective`].
//!
//! Generation is **batched**: [`Rp2Attack::generate_batch`] optimizes the
//! stickers for a whole image set at once — one `[N, C, H, W]` perturbation
//! tensor, one Adam state (Adam is elementwise, so the batched update is
//! identical to per-image updates), and per iteration one recorded forward
//! plus one tape-driven backward through the immutable
//! [`blurnet_nn::BatchEngine`], with the adaptive feature penalties riding
//! the engine's per-shard gradient-injection hook.
//! [`Rp2Attack::generate_sweep`] runs a whole targeted sweep as one such
//! batch, one target per row. The objective is
//! equivalent to the historical per-image optimizer loop — every image sees
//! the same transform schedule its own seeded run would have sampled, and
//! Adam updates are elementwise — up to float regrouping in the NPS term
//! (the batched form scales each palette contribution as it accumulates),
//! and results are bit-identical at every rayon thread count.

use blurnet_data::{sample_transforms, StickerLayout, Transform};
use blurnet_nn::{softmax_cross_entropy, Adam, NnError, Sequential, ShardGrad};
use blurnet_signal::low_frequency_project_planes;
use blurnet_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::adaptive::{AdaptiveObjective, FeaturePenaltyKind};
use crate::metrics::{batch_l2_dissimilarity, targeted_success_from_logits, AttackEvaluation};
use crate::{AttackError, Result};

/// A small palette of printable colours used by the non-printability score
/// (NPS) term; stickers whose colours drift far from every printable colour
/// are penalized.
const PRINTABLE_PALETTE: [[f32; 3]; 6] = [
    [0.05, 0.05, 0.05], // black
    [0.95, 0.95, 0.95], // white
    [0.50, 0.50, 0.50], // grey
    [0.80, 0.10, 0.10], // red
    [0.95, 0.80, 0.15], // yellow
    [0.10, 0.10, 0.70], // blue
];

/// Configuration of an RP2 attack run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rp2Config {
    /// Weight λ of the mask-norm term (the paper sweeps this; 0.002 is the
    /// value used for the black-box evaluation).
    pub lambda: f32,
    /// Weight of the non-printability score term.
    pub nps_weight: f32,
    /// Number of optimization iterations ("epochs" in the paper; 300 there).
    pub iterations: usize,
    /// Adam learning rate on the perturbation.
    pub learning_rate: f32,
    /// Number of alignment transforms sampled for the ensemble.
    pub num_transforms: usize,
    /// Maximum absolute shift (pixels) of the transform ensemble.
    pub max_shift: i32,
    /// Brightness jitter of the transform ensemble.
    pub brightness_jitter: f32,
    /// Sticker mask layout.
    pub layout: StickerLayout,
    /// RNG seed for transform sampling.
    pub seed: u64,
    /// Objective modification for adaptive attacks.
    pub objective: AdaptiveObjective,
}

impl Default for Rp2Config {
    fn default() -> Self {
        Rp2Config {
            lambda: 0.002,
            nps_weight: 0.05,
            iterations: 150,
            learning_rate: 0.05,
            num_transforms: 4,
            max_shift: 2,
            brightness_jitter: 0.15,
            layout: StickerLayout::TwoBars,
            seed: 0,
            objective: AdaptiveObjective::Standard,
        }
    }
}

/// Output of a single-image RP2 run.
#[derive(Debug, Clone)]
pub struct Rp2Result {
    /// The adversarial image, clamped to `[0, 1]`.
    pub adversarial: Tensor,
    /// The effective masked perturbation added to the clean image.
    pub perturbation: Tensor,
    /// Classifier loss after every iteration (for convergence diagnostics).
    pub loss_trace: Vec<f32>,
}

/// The RP2 attack engine.
#[derive(Debug, Clone)]
pub struct Rp2Attack {
    config: Rp2Config,
}

impl Rp2Attack {
    /// Creates an attack from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for non-positive iteration counts,
    /// learning rates or transform counts.
    pub fn new(config: Rp2Config) -> Result<Self> {
        if config.iterations == 0 {
            return Err(AttackError::BadConfig("iterations must be non-zero".into()));
        }
        if config.learning_rate <= 0.0 {
            return Err(AttackError::BadConfig(
                "learning rate must be positive".into(),
            ));
        }
        if config.num_transforms == 0 {
            return Err(AttackError::BadConfig(
                "transform ensemble must be non-empty".into(),
            ));
        }
        if config.lambda < 0.0 || config.nps_weight < 0.0 {
            return Err(AttackError::BadConfig(
                "regularization weights must be non-negative".into(),
            ));
        }
        Ok(Rp2Attack { config })
    }

    /// The attack configuration.
    pub fn config(&self) -> &Rp2Config {
        &self.config
    }

    /// Generates adversarial examples for a whole image set targeting class
    /// `target`, optimizing every sticker simultaneously: the perturbation
    /// is one `[N, C, H, W]` tensor updated by a single (elementwise, hence
    /// per-image-identical) Adam state, and each iteration runs one batched
    /// recorded forward + tape-driven backward through the immutable
    /// engine. Adaptive feature penalties (Eq. 9–11) are computed per
    /// shard and injected at the feature layer's output inside the engine's
    /// backward; the low-frequency DCT projection (Eq. 8) is applied to
    /// every image's channels.
    ///
    /// Each returned [`Rp2Result`] matches what a single-image
    /// [`Rp2Attack::generate`] call produces for that image: the transform
    /// schedule is sampled once from the configured seed, exactly as every
    /// per-image run would sample it.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty set, malformed images, or if the
    /// victim network rejects the image shape.
    pub fn generate_batch(
        &self,
        net: &Sequential,
        images: &[Tensor],
        target: usize,
    ) -> Result<Vec<Rp2Result>> {
        let (adversarial, perturbation, loss_traces) = self.generate_batch_tensors(
            net,
            &stack_images(images, 1)?,
            &vec![target; images.len()],
        )?;
        loss_traces
            .into_iter()
            .enumerate()
            .map(|(i, loss_trace)| {
                Ok(Rp2Result {
                    adversarial: adversarial.batch_item(i)?,
                    perturbation: perturbation.batch_item(i)?,
                    loss_trace,
                })
            })
            .collect()
    }

    /// The batched optimizer core behind [`Rp2Attack::generate_batch`] and
    /// [`Rp2Attack::generate_sweep`]: row `i` of the `[N, C, H, W]` batch
    /// `clean` is attacked towards `targets[i]`. Returns the whole
    /// adversarial batch, the perturbation batch and the per-image loss
    /// traces without splitting into per-image tensors, so
    /// [`Rp2Attack::evaluate`] can judge the batch without re-stacking it.
    ///
    /// A sweep's batch holds every (target, image) row, so the loop keeps
    /// few batch-sized buffers alive: the sticker mask is applied per
    /// `[H, W]` plane, the projection and the clean-image sum reuse their
    /// input buffer, and the clamp is remembered as one flag per pixel.
    fn generate_batch_tensors(
        &self,
        net: &Sequential,
        clean: &Tensor,
        targets: &[usize],
    ) -> Result<(Tensor, Tensor, Vec<Vec<f32>>)> {
        let &[n, c, h, w] = clean.dims() else {
            return Err(AttackError::BadInput(format!(
                "expected an [N, C, H, W] batch, got {}",
                clean.shape()
            )));
        };
        if targets.len() != n {
            return Err(AttackError::BadInput(format!(
                "{} targets for {n} images",
                targets.len()
            )));
        }
        let mask = blurnet_data::sticker_mask(h, w, self.config.layout)?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let transforms = sample_transforms(
            self.config.num_transforms,
            self.config.max_shift,
            self.config.brightness_jitter,
            &mut rng,
        );

        // Every engine shard is one image, so the per-shard loss closure
        // below sees per-image cross-entropy normalization, per-image
        // feature penalties, and per-image shard losses.
        let engine = net.batch_engine()?;
        let (feature_layer, penalty) = match &self.config.objective {
            AdaptiveObjective::FeaturePenalty {
                layer_index,
                kind,
                weight,
            } => {
                if *layer_index >= net.len() {
                    return Err(AttackError::BadConfig(format!(
                        "feature layer index {layer_index} out of range"
                    )));
                }
                (Some(*layer_index), Some((kind, *weight)))
            }
            _ => (None, None),
        };

        let mut delta = Tensor::zeros(clean.dims());
        let mut adam = Adam::new(self.config.learning_rate)?;
        let mut loss_traces: Vec<Vec<f32>> = vec![Vec::with_capacity(self.config.iterations); n];
        let plane = c * h * w;

        for iter in 0..self.config.iterations {
            let transform = transforms[iter % transforms.len()];
            let mut x_adv = transform_perturbation(
                &self.project_perturbation(masked(delta.clone(), &mask))?,
                transform,
            )?;
            x_adv.add_scaled(clean, 1.0)?;
            // Gradient does not flow through the [0, 1] clamp: remember
            // where it bites, then clamp in place.
            let clamped: Vec<bool> = x_adv
                .data()
                .iter()
                .map(|v| !(0.0..=1.0).contains(v))
                .collect();
            x_adv.map_inplace(|v| v.clamp(0.0, 1.0));

            // One batched forward + backward; the loss closure sees one
            // shard (one image, starting at row `start`) at a time and
            // mirrors the per-image objective exactly.
            let step =
                engine.forward_backward_with(&x_adv, feature_layer, |start, logits, feature| {
                    let count = logits.dims()[0];
                    let (ce_loss, d_logits) =
                        softmax_cross_entropy(logits, &targets[start..start + count])?;
                    let (injection, penalty_value) = match (&penalty, feature) {
                        (Some((kind, weight)), Some(feature)) => {
                            let (value, grad) = feature_penalty(kind, feature)
                                .map_err(|e| NnError::BadConfig(e.to_string()))?;
                            (Some(grad.scale(*weight)), value * weight)
                        }
                        _ => (None, 0.0),
                    };
                    Ok(ShardGrad {
                        d_logits,
                        injection,
                        loss: ce_loss + penalty_value,
                    })
                })?;
            if step.shard_losses.len() != n {
                return Err(AttackError::BadConfig(format!(
                    "expected {n} per-image shard losses, got {}",
                    step.shard_losses.len()
                )));
            }
            for (trace, &loss) in loss_traces.iter_mut().zip(step.shard_losses.iter()) {
                trace.push(loss);
            }

            let mut grad = step.input_grad;
            for (g, &out) in grad.data_mut().iter_mut().zip(&clamped) {
                if out {
                    *g = 0.0;
                }
            }
            // Adjoint of the alignment transform.
            grad = transform_perturbation_adjoint(&grad, transform)?;
            // Adjoint of the DCT projection (it is an orthogonal projector,
            // hence self-adjoint).
            grad = self.project_perturbation(grad)?;
            // Restrict to the mask.
            let mut total_grad = masked(grad, &mask);

            // λ‖M·δ‖₂ term, normalized per image; M·δ is formed on the fly.
            if self.config.lambda > 0.0 {
                let rows = total_grad
                    .data_mut()
                    .chunks_mut(plane)
                    .zip(delta.data().chunks(plane));
                for (tg, d) in rows {
                    let masked = || d.iter().zip(mask.data().iter().cycle()).map(|(d, m)| d * m);
                    let norm = masked().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
                    let scale = self.config.lambda / norm;
                    for (g, v) in tg.iter_mut().zip(masked()) {
                        *g += scale * v;
                    }
                }
            }
            // Non-printability score on the sticker colours, per image.
            if self.config.nps_weight > 0.0 {
                let x = x_adv.data();
                let tg = total_grad.data_mut();
                for i in 0..n {
                    nps_gradient_into(
                        &mut tg[i * plane..(i + 1) * plane],
                        &x[i * plane..(i + 1) * plane],
                        &mask,
                        c,
                        h,
                        w,
                        self.config.nps_weight,
                    )?;
                }
            }

            let mut pairs = vec![(&mut delta, &total_grad)];
            adam.step(&mut pairs)?;
        }

        let adversarial = clean
            .add(&self.project_perturbation(masked(delta, &mask))?)?
            .clamp(0.0, 1.0);
        let perturbation = adversarial.sub(clean)?;
        Ok((adversarial, perturbation, loss_traces))
    }

    /// Generates an adversarial example for one `[3, H, W]` image targeting
    /// class `target` (a batch-of-one [`Rp2Attack::generate_batch`]; the
    /// network stays immutable).
    ///
    /// # Errors
    ///
    /// Returns an error for malformed inputs or if the victim network
    /// rejects the image shape.
    pub fn generate(&self, net: &Sequential, image: &Tensor, target: usize) -> Result<Rp2Result> {
        let mut results = self.generate_batch(net, std::slice::from_ref(image), target)?;
        Ok(results.remove(0))
    }

    /// Generates adversarial examples for a set of images against one target
    /// class and summarizes the targeted success rate and dissimilarity on
    /// the victim network itself (white-box evaluation).
    ///
    /// Generation optimizes the whole set at once
    /// ([`Rp2Attack::generate_batch`]) and the set is judged with one
    /// batch-parallel pass, with metrics computed straight from the batched
    /// logits and image buffers.
    ///
    /// # Errors
    ///
    /// Returns an error if `images` is empty or generation fails.
    pub fn evaluate(
        &self,
        net: &Sequential,
        images: &[Tensor],
        target: usize,
    ) -> Result<AttackEvaluation> {
        let clean = stack_images(images, 1)?;
        let (adv, _, _) = self.generate_batch_tensors(net, &clean, &vec![target; images.len()])?;
        let adv_logits = net.batch_engine()?.forward(&adv)?;
        let dissims = batch_l2_dissimilarity(&clean, &adv)?;
        Ok(AttackEvaluation {
            success_rate: targeted_success_from_logits(&adv_logits, target)?,
            l2_dissimilarity: dissims.iter().sum::<f32>() / dissims.len() as f32,
            count: images.len(),
        })
    }

    /// Generates the adversarial examples of a whole targeted sweep — every
    /// image towards every target — as one batched optimization, without
    /// evaluating them, and returns them as one `[T·n, C, H, W]` batch
    /// (`T = targets.len()`, `n = images.len()`). Rows are target-major:
    /// row `t·n + i` attacks `images[i]` towards `targets[t]`. Each row is
    /// bitwise what [`Rp2Attack::generate_batch`] produces for its target:
    /// the engine runs one image per shard, every target samples the same
    /// transform schedule, and Adam, the λ-norm, NPS and the DCT
    /// projection all act on one row at a time.
    ///
    /// # Errors
    ///
    /// Returns an error if `images` or `targets` is empty or generation
    /// fails.
    pub fn generate_sweep(
        &self,
        net: &Sequential,
        images: &[Tensor],
        targets: &[usize],
    ) -> Result<Tensor> {
        let clean = stack_images(images, targets.len())?;
        let row_targets: Vec<usize> = targets
            .iter()
            .flat_map(|&t| std::iter::repeat_n(t, images.len()))
            .collect();
        let (adversarial, _, _) = self.generate_batch_tensors(net, &clean, &row_targets)?;
        Ok(adversarial)
    }

    /// Applies the adaptive low-frequency projection in place to every
    /// `[H, W]` channel plane of a perturbation — rank 3 (`[C, H, W]`) or
    /// rank 4 (`[N, C, H, W]`) — and returns it unchanged for the other
    /// objectives.
    fn project_perturbation(&self, mut perturbation: Tensor) -> Result<Tensor> {
        if let AdaptiveObjective::LowFrequencyDct { dim } = self.config.objective {
            let (h, w) = spatial_dims(&perturbation)?;
            low_frequency_project_planes(perturbation.data_mut(), h, w, dim)?;
        }
        Ok(perturbation)
    }
}

/// Per-target evaluations of a targeted RP2 sweep (Tables II, III and V
/// report the average and the worst case over targets).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetSweep {
    /// `(target class, evaluation)` pairs.
    pub per_target: Vec<(usize, AttackEvaluation)>,
}

impl TargetSweep {
    /// Average targeted success rate across all swept targets.
    pub fn average_success_rate(&self) -> f32 {
        if self.per_target.is_empty() {
            return 0.0;
        }
        self.per_target
            .iter()
            .map(|(_, e)| e.success_rate)
            .sum::<f32>()
            / self.per_target.len() as f32
    }

    /// Worst-case (maximum) targeted success rate across targets.
    pub fn worst_success_rate(&self) -> f32 {
        self.per_target
            .iter()
            .map(|(_, e)| e.success_rate)
            .fold(0.0, f32::max)
    }

    /// Average L2 dissimilarity across targets.
    pub fn average_l2_dissimilarity(&self) -> f32 {
        if self.per_target.is_empty() {
            return 0.0;
        }
        self.per_target
            .iter()
            .map(|(_, e)| e.l2_dissimilarity)
            .sum::<f32>()
            / self.per_target.len() as f32
    }
}

/// Computes the value and activation-gradient of an adaptive feature
/// penalty.
pub(crate) fn feature_penalty(
    kind: &FeaturePenaltyKind,
    feature: &Tensor,
) -> Result<(f32, Tensor)> {
    match kind {
        FeaturePenaltyKind::TotalVariation => Ok((
            blurnet_signal::total_variation_batch(feature)?,
            blurnet_signal::tv_gradient_batch(feature)?,
        )),
        FeaturePenaltyKind::Operator(penalty) => {
            Ok((penalty.value_batch(feature)?, penalty.grad_batch(feature)?))
        }
    }
}

/// Stacks `[C, H, W]` images into one `[repeats·N, C, H, W]` batch: the
/// whole set, `repeats` times over (a sweep's target-major rows).
fn stack_images(images: &[Tensor], repeats: usize) -> Result<Tensor> {
    let Some(first) = images.first() else {
        return Err(AttackError::BadInput("no images to attack".into()));
    };
    if first.shape().rank() != 3 {
        return Err(AttackError::BadInput(format!(
            "expected a [C, H, W] image, got {}",
            first.shape()
        )));
    }
    if repeats == 0 {
        return Err(AttackError::BadInput("no targets to attack".into()));
    }
    let once = Tensor::stack(images)?;
    if repeats == 1 {
        return Ok(once);
    }
    let mut dims = once.dims().to_vec();
    dims[0] *= repeats;
    Ok(Tensor::from_vec(once.data().repeat(repeats), &dims)?)
}

/// Trailing spatial extents of a `[..., H, W]` tensor of rank ≥ 3.
fn spatial_dims(t: &Tensor) -> Result<(usize, usize)> {
    let rank = t.shape().rank();
    if rank < 3 {
        return Err(AttackError::BadInput(format!(
            "expected a [..., H, W] tensor of rank >= 3, got {}",
            t.shape()
        )));
    }
    Ok((t.dims()[rank - 2], t.dims()[rank - 1]))
}

/// `t · M` in place: every `[H, W]` plane of `t` times the `[H, W]`
/// sticker mask (the mask is never broadcast to a whole batch).
fn masked(mut t: Tensor, mask: &Tensor) -> Tensor {
    for (v, &m) in t.data_mut().iter_mut().zip(mask.data().iter().cycle()) {
        *v *= m;
    }
    t
}

/// Applies an alignment transform to a perturbation: integer shift with
/// zero fill plus brightness scaling (no clamping — the perturbation is a
/// signed quantity). Accepts a single `[C, H, W]` image or a whole
/// `[N, C, H, W]` batch (every leading plane is shifted identically).
pub(crate) fn transform_perturbation(perturbation: &Tensor, t: Transform) -> Result<Tensor> {
    let (h, w) = spatial_dims(perturbation)?;
    let planes = perturbation.len() / (h * w);
    let mut out = Tensor::zeros(perturbation.dims());
    let src = perturbation.data();
    let dst = out.data_mut();
    for ch in 0..planes {
        for y in 0..h {
            let sy = y as i32 - t.dy;
            if sy < 0 || sy >= h as i32 {
                continue;
            }
            for x in 0..w {
                let sx = x as i32 - t.dx;
                if sx < 0 || sx >= w as i32 {
                    continue;
                }
                dst[ch * h * w + y * w + x] =
                    src[ch * h * w + sy as usize * w + sx as usize] * t.brightness;
            }
        }
    }
    Ok(out)
}

/// Adjoint of [`transform_perturbation`]: the reverse shift with the same
/// brightness factor. Needed to map input-space gradients back onto the
/// untransformed perturbation.
pub(crate) fn transform_perturbation_adjoint(grad: &Tensor, t: Transform) -> Result<Tensor> {
    transform_perturbation(
        grad,
        Transform {
            dx: -t.dx,
            dy: -t.dy,
            brightness: t.brightness,
        },
    )
}

/// Accumulates `scale ×` the gradient of the non-printability score for one
/// image directly into `grad` (a `[C·H·W]` slice of the batched gradient
/// buffer) — no per-image tensor allocations. Contributions are multiplied
/// by the mask value, matching the historical `nps_grad · M` restriction.
fn nps_gradient_into(
    grad: &mut [f32],
    image: &[f32],
    mask: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    scale: f32,
) -> Result<()> {
    if c != 3 {
        // NPS is defined over RGB triples; for other channel counts skip it.
        return Ok(());
    }
    let m = mask.data();
    for y in 0..h {
        for x in 0..w {
            let mask_val = m[y * w + x];
            if mask_val < 0.5 {
                continue;
            }
            let pixel = [
                image[y * w + x],
                image[h * w + y * w + x],
                image[2 * h * w + y * w + x],
            ];
            // distances to every printable colour
            let dists: Vec<f32> = PRINTABLE_PALETTE
                .iter()
                .map(|p| {
                    ((pixel[0] - p[0]).powi(2)
                        + (pixel[1] - p[1]).powi(2)
                        + (pixel[2] - p[2]).powi(2))
                    .sqrt()
                    .max(1e-4)
                })
                .collect();
            let product: f32 = dists.iter().product();
            for (j, p) in PRINTABLE_PALETTE.iter().enumerate() {
                let coeff = product / dists[j] / dists[j];
                for ch in 0..3 {
                    grad[ch * h * w + y * w + x] += scale * mask_val * coeff * (pixel[ch] - p[ch]);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_data::{DatasetConfig, SignDataset, STOP_CLASS_ID};
    use blurnet_nn::LisaCnn;

    fn tiny_net_and_data() -> (Sequential, SignDataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        let mut cfg = DatasetConfig::tiny();
        cfg.image_size = 16;
        let data = SignDataset::generate(&cfg, 1).unwrap();
        (net, data)
    }

    #[test]
    fn config_validation() {
        assert!(Rp2Attack::new(Rp2Config {
            iterations: 0,
            ..Rp2Config::default()
        })
        .is_err());
        assert!(Rp2Attack::new(Rp2Config {
            learning_rate: 0.0,
            ..Rp2Config::default()
        })
        .is_err());
        assert!(Rp2Attack::new(Rp2Config {
            num_transforms: 0,
            ..Rp2Config::default()
        })
        .is_err());
        assert!(Rp2Attack::new(Rp2Config {
            lambda: -1.0,
            ..Rp2Config::default()
        })
        .is_err());
        assert!(Rp2Attack::new(Rp2Config::default()).is_ok());
    }

    #[test]
    fn perturbation_stays_inside_the_mask() {
        let (net, data) = tiny_net_and_data();
        let attack = Rp2Attack::new(Rp2Config {
            iterations: 5,
            ..Rp2Config::default()
        })
        .unwrap();
        let image = &data.stop_eval_images()[0];
        let result = attack.generate(&net, image, 0).unwrap();
        assert_eq!(result.adversarial.dims(), image.dims());
        assert_eq!(result.loss_trace.len(), 5);
        // All perturbed pixels must lie within the sticker mask.
        let mask = blurnet_data::sticker_mask(16, 16, StickerLayout::TwoBars).unwrap();
        for ch in 0..3 {
            for y in 0..16 {
                for x in 0..16 {
                    let p = result.perturbation.get(&[ch, y, x]).unwrap();
                    if mask.get(&[y, x]).unwrap() < 0.5 {
                        assert_eq!(p, 0.0, "perturbation escaped the mask at {ch},{y},{x}");
                    }
                }
            }
        }
        // Adversarial image is a valid image.
        assert!(result.adversarial.min().unwrap() >= 0.0);
        assert!(result.adversarial.max().unwrap() <= 1.0);
    }

    #[test]
    fn attack_reduces_target_loss() {
        let (net, data) = tiny_net_and_data();
        let attack = Rp2Attack::new(Rp2Config {
            iterations: 40,
            nps_weight: 0.0,
            lambda: 0.0,
            num_transforms: 1,
            ..Rp2Config::default()
        })
        .unwrap();
        let image = &data.stop_eval_images()[0];
        let target = 3usize;
        let result = attack.generate(&net, image, target).unwrap();
        let first = result.loss_trace.first().copied().unwrap();
        let last = result.loss_trace.last().copied().unwrap();
        assert!(
            last < first,
            "target loss should decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn evaluate_and_sweep_produce_bounded_rates() {
        let (net, data) = tiny_net_and_data();
        let attack = Rp2Attack::new(Rp2Config {
            iterations: 3,
            ..Rp2Config::default()
        })
        .unwrap();
        let images: Vec<Tensor> = data.stop_eval_images()[..2].to_vec();
        let eval = attack.evaluate(&net, &images, 1).unwrap();
        assert!((0.0..=1.0).contains(&eval.success_rate));
        assert!(eval.l2_dissimilarity >= 0.0);
        assert_eq!(eval.count, 2);

        let sweep = TargetSweep {
            per_target: vec![(0, attack.evaluate(&net, &images, 0).unwrap()), (1, eval)],
        };
        assert!(sweep.worst_success_rate() >= sweep.average_success_rate());
        assert!(sweep.average_l2_dissimilarity() >= 0.0);
        assert!(attack.evaluate(&net, &[], STOP_CLASS_ID).is_err());
    }

    #[test]
    fn generate_sweep_rows_match_generate_batch_per_target() {
        let (net, data) = tiny_net_and_data();
        let images: Vec<Tensor> = data.stop_eval_images()[..2].to_vec();
        let targets = [3, 0, 7];
        for objective in [
            AdaptiveObjective::Standard,
            AdaptiveObjective::LowFrequencyDct { dim: 4 },
            AdaptiveObjective::FeaturePenalty {
                layer_index: 0,
                kind: FeaturePenaltyKind::TotalVariation,
                weight: 1.0,
            },
        ] {
            let attack = Rp2Attack::new(Rp2Config {
                iterations: 3,
                objective: objective.clone(),
                ..Rp2Config::default()
            })
            .unwrap();
            let sweep = attack.generate_sweep(&net, &images, &targets).unwrap();
            assert_eq!(sweep.dims()[0], targets.len() * images.len());
            for (t, &target) in targets.iter().enumerate() {
                let batch = attack.generate_batch(&net, &images, target).unwrap();
                for (i, result) in batch.iter().enumerate() {
                    assert_eq!(
                        sweep.batch_item(t * images.len() + i).unwrap(),
                        result.adversarial,
                        "{objective:?}: row for target {target}, image {i} differs"
                    );
                }
            }
        }
        let attack = Rp2Attack::new(Rp2Config::default()).unwrap();
        assert!(attack.generate_sweep(&net, &images, &[]).is_err());
        assert!(attack.generate_sweep(&net, &[], &[1]).is_err());
    }

    /// The in-place batch projection equals `low_frequency_project` on
    /// every `[H, W]` plane of an `[N, C, H, W]` perturbation, bit for bit.
    #[test]
    fn batch_projection_matches_per_plane_projection_bitwise() {
        let (n, c, h, w) = (2, 3, 12, 10);
        let perturbation = blurnet_test_support::uniform_batch(&[n, c, h, w], -0.5, 0.5, 17);
        for dim in [1, 4, 10] {
            let attack = Rp2Attack::new(Rp2Config {
                objective: AdaptiveObjective::LowFrequencyDct { dim },
                ..Rp2Config::default()
            })
            .unwrap();
            let projected = attack.project_perturbation(perturbation.clone()).unwrap();
            assert_eq!(projected.dims(), perturbation.dims());
            for (p, out) in projected.data().chunks(h * w).enumerate() {
                let plane = Tensor::from_vec(
                    perturbation.data()[p * h * w..(p + 1) * h * w].to_vec(),
                    &[h, w],
                )
                .unwrap();
                let expected = blurnet_signal::low_frequency_project(&plane, dim).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(out), bits(expected.data()), "plane {p} at dim {dim}");
            }
        }
        let standard = Rp2Attack::new(Rp2Config::default()).unwrap();
        assert_eq!(
            standard.project_perturbation(perturbation.clone()).unwrap(),
            perturbation
        );
    }

    #[test]
    fn transform_adjoint_is_consistent() {
        // <T(x), y> == <x, T^T(y)> for random-ish tensors.
        let x = Tensor::from_vec((0..27).map(|v| v as f32 * 0.1).collect(), &[3, 3, 3]).unwrap();
        let y = Tensor::from_vec(
            (0..27).map(|v| (v as f32 * 0.07).sin()).collect(),
            &[3, 3, 3],
        )
        .unwrap();
        let t = Transform {
            dx: 1,
            dy: -1,
            brightness: 1.2,
        };
        let lhs = transform_perturbation(&x, t).unwrap().dot(&y).unwrap();
        let rhs = x
            .dot(&transform_perturbation_adjoint(&y, t).unwrap())
            .unwrap();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn rejects_bad_image_rank() {
        let (net, _) = tiny_net_and_data();
        let attack = Rp2Attack::new(Rp2Config {
            iterations: 1,
            ..Rp2Config::default()
        })
        .unwrap();
        assert!(attack.generate(&net, &Tensor::zeros(&[16, 16]), 0).is_err());
    }
}
