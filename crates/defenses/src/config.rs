//! The catalogue of defended models evaluated in the paper.

use serde::{Deserialize, Serialize};

use crate::{DefenseError, Result};

/// Most Monte-Carlo samples a smoothing defense may ask for: 100× the
/// paper's 100. One vote holds all of an image's noisy copies at once, so
/// a larger count read from a model file could exhaust memory.
pub(crate) const MAX_SMOOTHING_SAMPLES: usize = 10_000;

/// Every defense configuration appearing in Tables I–V of the paper.
///
/// The variants that change the architecture (filter layers) and the ones
/// that change only the training loss (regularizers) are deliberately in a
/// single enum: an experiment row is fully described by one value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DefenseKind {
    /// The undefended classifier.
    Baseline,
    /// Blur the *input image* with a `kernel × kernel` box filter before
    /// classification (Table I rows "Input filter").
    InputFilter {
        /// Blur kernel extent (3 or 5 in the paper).
        kernel: usize,
    },
    /// Apply a fixed `kernel × kernel` box blur to every first-layer
    /// feature map via a frozen depthwise layer (Table I rows "filter on L1
    /// maps").
    FeatureFilter {
        /// Blur kernel extent (3 or 5 in the paper).
        kernel: usize,
    },
    /// Trainable depthwise layer after the first convolution, regularized
    /// with an L∞ penalty on its kernels (Eq. 2; Table II "3x3/5x5/7x7
    /// conv" rows).
    DepthwiseLinf {
        /// Depthwise kernel extent (3, 5 or 7).
        kernel: usize,
        /// Regularization strength α.
        alpha: f32,
    },
    /// Total-variation regularization of the first-layer feature maps
    /// during training (Eq. 4; Table II "TV" rows).
    TotalVariation {
        /// Regularization strength α_TV (1e-4 and 1e-5 in the paper).
        alpha: f32,
    },
    /// Generalized Tikhonov regularization with the high-frequency
    /// extraction operator `L_hf = I − L_avg` (Eq. 6; "Tik_hf").
    TikhonovHf {
        /// Regularization strength α_hf.
        alpha: f32,
        /// Window of the moving-average operator (odd).
        window: usize,
    },
    /// Generalized Tikhonov regularization with the pseudoinverse of a
    /// difference operator (Eq. 7; "Tik_pseudo").
    TikhonovPseudo {
        /// Regularization strength α_pseudo.
        alpha: f32,
    },
    /// Train on Gaussian-noise-augmented images (Table II "Gaussian aug").
    GaussianAugmentation {
        /// Noise standard deviation σ.
        sigma: f32,
    },
    /// Gaussian-augmented training plus majority-vote randomized smoothing
    /// at prediction time (Table II "Rand. sm").
    RandomizedSmoothing {
        /// Noise standard deviation σ.
        sigma: f32,
        /// Monte-Carlo samples per prediction (the paper uses 100; at most
        /// 10 000).
        samples: usize,
    },
    /// PGD adversarial training, 50% clean / 50% adversarial per batch
    /// (Table II "Adv-train").
    AdversarialTraining {
        /// L∞ budget ε of the training adversary.
        epsilon: f32,
        /// PGD step size.
        step_size: f32,
        /// PGD steps per generated example.
        steps: usize,
    },
}

impl DefenseKind {
    /// Short human-readable label matching the paper's table rows.
    pub fn label(&self) -> String {
        match self {
            DefenseKind::Baseline => "Baseline".to_string(),
            DefenseKind::InputFilter { kernel } => format!("Input filter {kernel}x{kernel}"),
            DefenseKind::FeatureFilter { kernel } => {
                format!("{kernel}x{kernel} filter on L1 maps")
            }
            DefenseKind::DepthwiseLinf { kernel, alpha } => {
                format!("{kernel}x{kernel} conv (alpha={alpha:.0e})")
            }
            DefenseKind::TotalVariation { alpha } => format!("TV ({alpha:.0e})"),
            DefenseKind::TikhonovHf { alpha, .. } => format!("Tik_hf ({alpha:.0e})"),
            DefenseKind::TikhonovPseudo { alpha } => format!("Tik_pseudo ({alpha:.0e})"),
            DefenseKind::GaussianAugmentation { sigma } => {
                format!("Gaussian aug (sigma={sigma})")
            }
            DefenseKind::RandomizedSmoothing { sigma, .. } => {
                format!("Rand. sm (sigma={sigma})")
            }
            DefenseKind::AdversarialTraining { .. } => "Adv-train".to_string(),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::BadConfig`] for out-of-range parameters
    /// (even kernels, non-positive strengths, zero or excessive sample
    /// counts, …).
    pub(crate) fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(DefenseError::BadConfig(msg));
        match self {
            DefenseKind::Baseline => Ok(()),
            DefenseKind::InputFilter { kernel } | DefenseKind::FeatureFilter { kernel } => {
                if *kernel < 2 || kernel % 2 == 0 {
                    fail(format!("filter kernel must be odd and >= 3, got {kernel}"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::DepthwiseLinf { kernel, alpha } => {
                if *kernel < 2 || kernel % 2 == 0 {
                    fail(format!(
                        "depthwise kernel must be odd and >= 3, got {kernel}"
                    ))
                } else if *alpha < 0.0 {
                    fail(format!("alpha must be non-negative, got {alpha}"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::TotalVariation { alpha } | DefenseKind::TikhonovPseudo { alpha } => {
                if *alpha <= 0.0 {
                    fail(format!("alpha must be positive, got {alpha}"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::TikhonovHf { alpha, window } => {
                if *alpha <= 0.0 {
                    fail(format!("alpha must be positive, got {alpha}"))
                } else if *window < 3 || window % 2 == 0 {
                    fail(format!("window must be odd and >= 3, got {window}"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::GaussianAugmentation { sigma } => {
                if *sigma <= 0.0 {
                    fail(format!("sigma must be positive, got {sigma}"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::RandomizedSmoothing { sigma, samples } => {
                if !sigma.is_finite() || *sigma <= 0.0 {
                    fail(format!(
                        "smoothing sigma must be positive and finite, got {sigma}"
                    ))
                } else if *samples == 0 || *samples > MAX_SMOOTHING_SAMPLES {
                    fail(format!(
                        "smoothing samples must be 1..={MAX_SMOOTHING_SAMPLES}, got {samples}"
                    ))
                } else {
                    Ok(())
                }
            }
            DefenseKind::AdversarialTraining {
                epsilon,
                step_size,
                steps,
            } => {
                if *epsilon <= 0.0 || *step_size <= 0.0 || *steps == 0 {
                    fail(format!(
                        "adversarial training needs positive epsilon/step/steps, got {epsilon}/{step_size}/{steps}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_for_table2_rows() {
        let rows = [
            DefenseKind::Baseline,
            DefenseKind::GaussianAugmentation { sigma: 0.1 },
            DefenseKind::RandomizedSmoothing {
                sigma: 0.1,
                samples: 10,
            },
            DefenseKind::AdversarialTraining {
                epsilon: 8.0 / 255.0,
                step_size: 0.1,
                steps: 7,
            },
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
            DefenseKind::TikhonovHf {
                alpha: 1e-4,
                window: 3,
            },
            DefenseKind::TikhonovPseudo { alpha: 1e-6 },
        ];
        let labels: std::collections::HashSet<_> = rows.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), rows.len());
        for row in &rows {
            assert!(row.validate().is_ok(), "{row:?} should validate");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(DefenseKind::InputFilter { kernel: 4 }.validate().is_err());
        assert!(DefenseKind::FeatureFilter { kernel: 1 }.validate().is_err());
        assert!(DefenseKind::DepthwiseLinf {
            kernel: 3,
            alpha: -1.0
        }
        .validate()
        .is_err());
        assert!(DefenseKind::TotalVariation { alpha: 0.0 }
            .validate()
            .is_err());
        assert!(DefenseKind::TikhonovHf {
            alpha: 1e-4,
            window: 4
        }
        .validate()
        .is_err());
        assert!(DefenseKind::TikhonovPseudo { alpha: -1.0 }
            .validate()
            .is_err());
        assert!(DefenseKind::GaussianAugmentation { sigma: 0.0 }
            .validate()
            .is_err());
        assert!(DefenseKind::RandomizedSmoothing {
            sigma: 0.1,
            samples: 0
        }
        .validate()
        .is_err());
        let max = MAX_SMOOTHING_SAMPLES;
        for (samples, ok) in [(max, true), (max + 1, false)] {
            let smoothing = DefenseKind::RandomizedSmoothing {
                sigma: 0.1,
                samples,
            };
            assert_eq!(smoothing.validate().is_ok(), ok, "samples={samples}");
        }
        assert!(DefenseKind::AdversarialTraining {
            epsilon: 0.0,
            step_size: 0.1,
            steps: 7
        }
        .validate()
        .is_err());
    }
}
