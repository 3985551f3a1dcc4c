//! Figures 1–6 of the paper.
//!
//! * **Figure 1** — FFT spectrum of a clean vs RP2-perturbed stop sign.
//! * **Figure 2** — FFT spectra of first-layer feature maps (clean,
//!   adversarial, difference, blurred difference).
//! * **Figure 3** — adaptive attack success rate vs DCT mask dimension for
//!   the 7×7 depthwise defense.
//! * **Figure 4** — FFT spectra of second-layer feature maps (why filters
//!   are only inserted after the first layer).
//! * **Figures 5–6** — per-target scatter of attack success rate vs L2
//!   dissimilarity for the defended models.
//!
//! Rather than emitting bitmaps, each per-cell function returns the
//! underlying numeric series (spectra, band-energy ratios, scatter
//! points); `reproduce` prints them as tables.

use blurnet_attacks::{Rp2Attack, Rp2Result, TargetSweep};
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_signal::{box_kernel, high_frequency_ratio, log_magnitude_spectrum};
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::report::{num3, pct};
use crate::{BlurNetError, Result, Scale};

/// The DCT mask dimensions the Figure 3 sweep evaluates by default.
///
/// On the 32×32 images of every scale, dim 32 keeps every DCT coefficient,
/// so that point is the standard RP2 attack up to the projection's
/// rounding.
pub(crate) const FIGURE3_DIMS: [usize; 4] = [4, 8, 16, 32];

/// Number of feature-map channels the Figure 2 analysis summarizes by
/// default.
pub(crate) const FIGURE2_CHANNELS: usize = 4;

/// Generates the single-image RP2 sticker artifact shared by the Figure 1
/// and Figure 2 analyses: the attack result for the first stop-sign
/// evaluation image at the Table I transfer target. The scheduler
/// generates it once per run and hands it to both figure cells.
///
/// # Errors
///
/// Propagates attack errors; rejects an empty image set.
pub(crate) fn sticker_artifact(
    scale: Scale,
    baseline: &DefendedModel,
    images: &[Tensor],
) -> Result<Rp2Result> {
    let image = images
        .first()
        .ok_or_else(|| BlurNetError::BadConfig("no stop-sign image available".into()))?;
    let attack = Rp2Attack::new(scale.rp2_config())?;
    Ok(attack.generate(baseline.network(), image, super::table1::TRANSFER_TARGET)?)
}

/// Radius (as a fraction of Nyquist) separating "low" from "high"
/// frequencies in the band-energy summaries.
const LOW_BAND_RADIUS: f32 = 0.5;

fn grayscale(image: &Tensor) -> Result<Tensor> {
    if image.shape().rank() != 3 {
        return Err(BlurNetError::BadConfig(format!(
            "expected a [C, H, W] image, got {}",
            image.shape()
        )));
    }
    let c = image.dims()[0] as f32;
    let mut acc = image.channel(0)?;
    for ch in 1..image.dims()[0] {
        acc = acc.add(&image.channel(ch)?)?;
    }
    Ok(acc.scale(1.0 / c))
}

/// Figure 1 — input-space spectra of a clean and an RP2-perturbed stop
/// sign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1 {
    /// High-frequency energy fraction of the clean stop sign.
    pub clean_high_fraction: f32,
    /// High-frequency energy fraction of the perturbed stop sign.
    pub adversarial_high_fraction: f32,
    /// High-frequency energy fraction of the perturbation alone.
    perturbation_high_fraction: f32,
    /// Normalized log-magnitude spectrum of the clean sign.
    clean_spectrum: Tensor,
    /// Normalized log-magnitude spectrum of the perturbed sign.
    adversarial_spectrum: Tensor,
}

impl Figure1 {
    /// Renders the band-energy summary as a table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Figure 1 — input spectrum band energy (high-frequency fraction)",
            &["Image", "High-frequency fraction"],
        );
        table.push_row(vec![
            "Clean stop sign".into(),
            num3(self.clean_high_fraction),
        ]);
        table.push_row(vec![
            "Perturbed stop sign".into(),
            num3(self.adversarial_high_fraction),
        ]);
        table.push_row(vec![
            "Perturbation only".into(),
            num3(self.perturbation_high_fraction),
        ]);
        table
    }
}

/// The per-cell Figure 1 analysis, over a pre-generated sticker artifact.
///
/// # Errors
///
/// Propagates FFT errors.
pub(crate) fn figure1_from_parts(image: &Tensor, result: &Rp2Result) -> Result<Figure1> {
    let clean_gray = grayscale(image)?;
    let adv_gray = grayscale(&result.adversarial)?;
    let pert_gray = grayscale(&result.perturbation)?;
    Ok(Figure1 {
        clean_high_fraction: high_frequency_ratio(&clean_gray, LOW_BAND_RADIUS)?,
        adversarial_high_fraction: high_frequency_ratio(&adv_gray, LOW_BAND_RADIUS)?,
        perturbation_high_fraction: if pert_gray.l2_norm() > 0.0 {
            high_frequency_ratio(&pert_gray, LOW_BAND_RADIUS)?
        } else {
            0.0
        },
        clean_spectrum: log_magnitude_spectrum(&clean_gray)?,
        adversarial_spectrum: log_magnitude_spectrum(&adv_gray)?,
    })
}

/// One channel of the Figure 2 feature-map spectrum analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2Channel {
    /// Feature-map channel index.
    channel: usize,
    /// High-frequency fraction of the clean feature map.
    clean_high_fraction: f32,
    /// High-frequency fraction of the adversarial feature map.
    adversarial_high_fraction: f32,
    /// High-frequency fraction of the (adversarial − clean) difference.
    difference_high_fraction: f32,
    /// High-frequency fraction of the difference after a 5×5 blur — the
    /// paper's fourth column, showing the blur removes the injected
    /// high-frequency artefacts.
    blurred_difference_high_fraction: f32,
}

/// Figure 2 — spectra of first-layer feature maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2 {
    /// Per-channel band-energy summaries.
    pub channels: Vec<Figure2Channel>,
}

impl Figure2 {
    /// Renders the per-channel summary as a table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Figure 2 — first-layer feature-map spectra (high-frequency fraction)",
            &[
                "Channel",
                "Clean",
                "Adversarial",
                "Difference",
                "Blurred difference",
            ],
        );
        for ch in &self.channels {
            table.push_row(vec![
                ch.channel.to_string(),
                num3(ch.clean_high_fraction),
                num3(ch.adversarial_high_fraction),
                num3(ch.difference_high_fraction),
                num3(ch.blurred_difference_high_fraction),
            ]);
        }
        table
    }

    /// Mean high-frequency fraction of the difference maps before blurring.
    pub fn mean_difference_fraction(&self) -> f32 {
        mean(self.channels.iter().map(|c| c.difference_high_fraction))
    }

    /// Mean high-frequency fraction of the difference maps after blurring.
    pub fn mean_blurred_difference_fraction(&self) -> f32 {
        mean(
            self.channels
                .iter()
                .map(|c| c.blurred_difference_high_fraction),
        )
    }
}

fn mean(values: impl Iterator<Item = f32>) -> f32 {
    let collected: Vec<f32> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f32>() / collected.len() as f32
    }
}

/// The per-cell Figure 2 analysis over up to `max_channels` feature maps,
/// for a pre-generated adversarial image.
///
/// # Errors
///
/// Propagates network and FFT errors.
pub(crate) fn figure2_from_parts(
    baseline: &DefendedModel,
    image: &Tensor,
    adversarial: &Tensor,
    max_channels: usize,
) -> Result<Figure2> {
    let feature_index = baseline.feature_layer_index();
    let clean_features = layer_activation(baseline, image, feature_index)?;
    let adv_features = layer_activation(baseline, adversarial, feature_index)?;
    let kernel = box_kernel(5);
    let blurred_diff = blurnet_tensor::default_backend()
        .blur_image(&adv_features.sub(&clean_features)?, &kernel)?;

    let channels = clean_features.dims()[0].min(max_channels.max(1));
    let mut rows = Vec::with_capacity(channels);
    for ch in 0..channels {
        let clean = clean_features.channel(ch)?;
        let adv = adv_features.channel(ch)?;
        let diff = adv.sub(&clean)?;
        let blurred = blurred_diff.channel(ch)?;
        rows.push(Figure2Channel {
            channel: ch,
            clean_high_fraction: safe_ratio(&clean)?,
            adversarial_high_fraction: safe_ratio(&adv)?,
            difference_high_fraction: safe_ratio(&diff)?,
            blurred_difference_high_fraction: safe_ratio(&blurred)?,
        });
    }
    Ok(Figure2 { channels: rows })
}

fn safe_ratio(map: &Tensor) -> Result<f32> {
    if map.l2_norm() == 0.0 {
        Ok(0.0)
    } else {
        Ok(high_frequency_ratio(map, LOW_BAND_RADIUS)?)
    }
}

/// Extracts the `[C, H, W]` activation of one layer for one image.
fn layer_activation(model: &DefendedModel, image: &Tensor, layer_index: usize) -> Result<Tensor> {
    let batch = Tensor::stack(std::slice::from_ref(image))?;
    let activation = model
        .network()
        .batch_engine()?
        .activation(&batch, layer_index)?;
    Ok(activation.batch_item(0)?)
}

/// Figure 3 — adaptive attack success rate vs DCT mask dimension (7×7
/// depthwise defense).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure3 {
    /// `(mask dimension, worst-case attack success rate)` points.
    pub points: Vec<(usize, f32)>,
}

impl Figure3 {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Figure 3 — adaptive ASR vs DCT mask dimension (7x7 depthwise defense)",
            &["DCT mask dim", "Worst-case success rate"],
        );
        for (dim, asr) in &self.points {
            table.push_row(vec![dim.to_string(), pct(*asr)]);
        }
        table
    }
}

/// The defense the Figure 3 sweep attacks (the 7×7 depthwise model).
pub fn figure3_defense() -> DefenseKind {
    DefenseKind::DepthwiseLinf {
        kernel: 7,
        alpha: 0.1,
    }
}

/// The per-cell view of the Figure 3 sweep: one low-frequency DCT sweep
/// of the 7×7 depthwise model per mask dimension, in `dims` order.
///
/// # Errors
///
/// Rejects an empty dimension list.
pub(crate) fn figure3_from_sweeps(dims: &[usize], sweeps: &[&TargetSweep]) -> Result<Figure3> {
    if dims.is_empty() {
        return Err(BlurNetError::BadConfig("no DCT dimensions supplied".into()));
    }
    Ok(Figure3 {
        points: dims
            .iter()
            .zip(sweeps)
            .map(|(&dim, sweep)| (dim, sweep.worst_success_rate()))
            .collect(),
    })
}

/// Figure 4 — spectra of second-layer feature maps on a clean stop sign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure4 {
    /// Mean high-frequency fraction of the first-layer feature maps.
    pub first_layer_mean_fraction: f32,
    /// Mean high-frequency fraction of the second-layer feature maps.
    pub second_layer_mean_fraction: f32,
    /// Per-channel high-frequency fraction of the second-layer maps.
    second_layer_fractions: Vec<f32>,
}

impl Figure4 {
    /// Renders the comparison as a table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Figure 4 — higher layers carry more high-frequency content",
            &["Layer", "Mean high-frequency fraction"],
        );
        table.push_row(vec![
            "First-layer feature maps".into(),
            num3(self.first_layer_mean_fraction),
        ]);
        table.push_row(vec![
            "Second-layer feature maps".into(),
            num3(self.second_layer_mean_fraction),
        ]);
        table
    }
}

/// The per-cell Figure 4 analysis, against an already-trained baseline.
///
/// # Errors
///
/// Propagates network and FFT errors.
pub(crate) fn figure4_for_model(baseline: &DefendedModel, image: &Tensor) -> Result<Figure4> {
    let first_index = baseline.feature_layer_index();
    let second_index = baseline.arch().second_conv_layer_index();
    let first = layer_activation(baseline, image, first_index)?;
    let second = layer_activation(baseline, image, second_index)?;

    let first_fractions: Vec<f32> = (0..first.dims()[0])
        .map(|ch| safe_ratio(&first.channel(ch)?))
        .collect::<Result<_>>()?;
    let second_fractions: Vec<f32> = (0..second.dims()[0])
        .map(|ch| safe_ratio(&second.channel(ch)?))
        .collect::<Result<_>>()?;
    Ok(Figure4 {
        first_layer_mean_fraction: mean(first_fractions.iter().copied()),
        second_layer_mean_fraction: mean(second_fractions.iter().copied()),
        second_layer_fractions: second_fractions,
    })
}

/// One scatter series of Figures 5–6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScatterSeries {
    /// Defense label.
    defense: String,
    /// `(L2 dissimilarity, targeted success rate)` per attack target.
    points: Vec<(f32, f32)>,
}

/// Figures 5 and 6 — per-target success rate vs L2 dissimilarity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Figure5And6 {
    /// Series for the depthwise-convolution and TV models (Figure 5).
    pub(crate) figure5: Vec<ScatterSeries>,
    /// Series for the Tikhonov and Gaussian-augmented models (Figure 6).
    pub(crate) figure6: Vec<ScatterSeries>,
}

impl Figure5And6 {
    /// Renders both scatters as one table (`figure` column distinguishes
    /// them).
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            "Figures 5-6 — per-target ASR vs L2 dissimilarity",
            &["Figure", "Defense", "Target point (L2, ASR)"],
        );
        for (figure, series_set) in [("5", &self.figure5), ("6", &self.figure6)] {
            for series in series_set {
                for (l2, asr) in &series.points {
                    table.push_row(vec![
                        figure.to_string(),
                        series.defense.clone(),
                        format!("({}, {})", num3(*l2), pct(*asr)),
                    ]);
                }
            }
        }
        table
    }
}

/// The defenses plotted by Figure 5 (depthwise and TV models), in order.
pub(crate) fn figure5_defenses() -> Vec<DefenseKind> {
    vec![
        DefenseKind::DepthwiseLinf {
            kernel: 3,
            alpha: 1e-5,
        },
        DefenseKind::DepthwiseLinf {
            kernel: 5,
            alpha: 0.1,
        },
        DefenseKind::DepthwiseLinf {
            kernel: 7,
            alpha: 0.1,
        },
        DefenseKind::TotalVariation { alpha: 1e-4 },
        DefenseKind::TotalVariation { alpha: 1e-5 },
    ]
}

/// The defenses plotted by Figure 6 (Tikhonov and Gaussian-augmented
/// models), in order.
pub(crate) fn figure6_defenses() -> Vec<DefenseKind> {
    vec![
        DefenseKind::TikhonovHf {
            alpha: 1e-4,
            window: 3,
        },
        DefenseKind::TikhonovPseudo { alpha: 1e-6 },
        DefenseKind::GaussianAugmentation { sigma: 0.1 },
        DefenseKind::GaussianAugmentation { sigma: 0.2 },
        DefenseKind::GaussianAugmentation { sigma: 0.3 },
    ]
}

/// The per-cell view of one scatter series of Figures 5–6: the model's
/// standard white-box RP2 sweep (its Table II sweep) with per-target
/// points kept.
pub(crate) fn scatter_series_from_sweep(
    model: &DefendedModel,
    sweep: &TargetSweep,
) -> ScatterSeries {
    ScatterSeries {
        defense: model.defense().label(),
        points: sweep
            .per_target
            .iter()
            .map(|(_, e)| (e.l2_dissimilarity, e.success_rate))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::grid::CellKind;
    use crate::experiments::{only_output, run_smoke_cells};
    use crate::{CellOutput, CellStatus};

    #[test]
    fn grayscale_averages_channels() {
        let mut image = Tensor::zeros(&[3, 4, 4]);
        image.set(&[0, 0, 0], 0.9).unwrap();
        image.set(&[1, 0, 0], 0.3).unwrap();
        let gray = grayscale(&image).unwrap();
        assert!((gray.get(&[0, 0]).unwrap() - 0.4).abs() < 1e-6);
        assert!(grayscale(&Tensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn figure1_reports_spike_in_high_frequency_energy() {
        let report = run_smoke_cells(23, vec![CellKind::Figure1]);
        let CellOutput::Figure1(fig) = only_output(report) else {
            panic!("not a Figure 1 output");
        };
        assert!(fig.clean_high_fraction >= 0.0 && fig.clean_high_fraction <= 1.0);
        assert_eq!(fig.clean_spectrum.dims(), fig.adversarial_spectrum.dims());
        assert!(fig.table().to_string().contains("Perturbation only"));
    }

    #[test]
    fn figure4_uses_both_layers() {
        let report = run_smoke_cells(23, vec![CellKind::Figure4]);
        let CellOutput::Figure4(fig) = only_output(report) else {
            panic!("not a Figure 4 output");
        };
        assert!(!fig.second_layer_fractions.is_empty());
        assert!(fig.first_layer_mean_fraction >= 0.0);
        assert!(fig.second_layer_mean_fraction >= 0.0);
    }

    #[test]
    fn figure3_rejects_empty_dims() {
        let report = run_smoke_cells(23, vec![CellKind::Figure3 { dims: vec![] }]);
        assert!(
            matches!(&report.cells[0].status, CellStatus::Failed { error } if error.contains("no DCT dimensions")),
            "{:?}",
            report.cells[0].status
        );
    }
}
