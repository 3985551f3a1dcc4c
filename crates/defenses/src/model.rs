//! The trained, defended classifier behind a single evaluation interface.

use blurnet_data::Batch;
use blurnet_nn::{BatchEngine, LisaCnnConfig, Sequential};
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::filtering::filter_images;
use crate::smoothing::smoothed_votes;
use crate::{DefenseError, DefenseKind, Result};

/// Loss and accuracy bookkeeping from training a defended model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Mean training loss per epoch (classification + regularization).
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the clean test split after training, measured through
    /// the defended prediction path ("legitimate accuracy" in Table II).
    pub test_accuracy: f32,
}

/// A trained classifier together with its defense configuration.
///
/// Prediction goes through the defense's full inference path,
/// [`DefendedModel::classify`]: the input filter is applied for
/// [`DefenseKind::InputFilter`], a majority vote over noisy copies is used
/// for [`DefenseKind::RandomizedSmoothing`], and all other defenses
/// classify with a plain forward pass (their protection lives in the
/// weights or the architecture). Inference never mutates the model, so one
/// model can be shared read-only by every evaluation that needs it.
#[derive(Debug, Clone)]
pub struct DefendedModel {
    net: Sequential,
    defense: DefenseKind,
    arch: LisaCnnConfig,
    pub(crate) report: TrainingReport,
}

impl DefendedModel {
    /// Wraps a trained network.
    pub fn new(
        net: Sequential,
        defense: DefenseKind,
        arch: LisaCnnConfig,
        report: TrainingReport,
    ) -> Self {
        DefendedModel {
            net,
            defense,
            arch,
            report,
        }
    }

    /// The defense this model was trained with.
    pub fn defense(&self) -> &DefenseKind {
        &self.defense
    }

    /// The network architecture.
    pub fn arch(&self) -> &LisaCnnConfig {
        &self.arch
    }

    /// The training report (per-epoch losses, clean test accuracy).
    pub fn training_report(&self) -> &TrainingReport {
        &self.report
    }

    /// Immutable access to the underlying network.
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// Index of the first-layer feature-map activation.
    pub fn feature_layer_index(&self) -> usize {
        self.arch.feature_layer_index()
    }

    /// Spatial extent of the first-layer feature maps.
    pub fn feature_map_extent(&self) -> usize {
        self.arch.feature_map_extent()
    }

    /// Applies the defense's input-space preprocessing (if any) to an
    /// `[N, C, H, W]` batch. Each image is filtered independently, so the
    /// result of row `i` never depends on which other images share the
    /// batch — the property the serving path's micro-batching relies on.
    ///
    /// # Errors
    ///
    /// Propagates filtering errors.
    pub fn preprocess_batch(&self, images: &Tensor) -> Result<Tensor> {
        match &self.defense {
            DefenseKind::InputFilter { kernel } => filter_images(images, *kernel),
            _ => Ok(images.clone()),
        }
    }

    /// Whether the defense rewrites the input image before the network
    /// sees it (true only for [`DefenseKind::InputFilter`]). When it does,
    /// comparing the defended prediction against the raw-input prediction
    /// gives a per-request defense verdict.
    pub fn has_input_preprocessing(&self) -> bool {
        matches!(self.defense, DefenseKind::InputFilter { .. })
    }

    /// Classifies every image of an `[N, C, H, W]` batch through the
    /// defended inference path, returning each predicted class with its
    /// confidence. `engine` must be built over [`DefendedModel::network`];
    /// callers that classify several batches share one engine.
    ///
    /// - [`DefenseKind::InputFilter`] filters the batch, then runs
    ///   [`BatchEngine::classify_with_confidence`] (softmax confidence).
    /// - [`DefenseKind::RandomizedSmoothing`] votes row by row over noisy
    ///   copies drawn from each row's own stream, seeded by the row's bytes
    ///   (see [`SMOOTHING_SEED`](crate::SMOOTHING_SEED)); the confidence is
    ///   the winning class's vote share.
    /// - Every other defense runs [`BatchEngine::classify_with_confidence`]
    ///   on the batch as given.
    ///
    /// For every defense, row `i` of the result depends only on the model
    /// and image `i`: never on the other rows, the batch size or earlier
    /// calls. That is the contract batched evaluation and the serving
    /// path's micro-batching rely on.
    ///
    /// # Errors
    ///
    /// Rejects an empty batch; propagates preprocessing,
    /// smoothing-configuration and network errors.
    pub fn classify(&self, engine: &BatchEngine<'_>, images: &Tensor) -> Result<Vec<(usize, f32)>> {
        Ok(match &self.defense {
            DefenseKind::InputFilter { kernel } => {
                engine.classify_with_confidence(&filter_images(images, *kernel)?)?
            }
            DefenseKind::RandomizedSmoothing { sigma, samples } => {
                smoothed_votes(engine, images, *sigma, *samples)?
            }
            _ => engine.classify_with_confidence(images)?,
        })
    }

    /// Accuracy of the defended prediction path
    /// ([`DefendedModel::classify`]) on a labelled batch.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::BadConfig`] for an empty batch or a label
    /// count that differs from the number of images; propagates
    /// classification errors.
    pub fn accuracy(&self, batch: &Batch) -> Result<f32> {
        let rows = batch.images.dims().first().copied().unwrap_or(0);
        if batch.labels.is_empty() || batch.labels.len() != rows {
            return Err(DefenseError::BadConfig(format!(
                "{} labels for a batch of {rows} images",
                batch.labels.len()
            )));
        }
        let preds = self.classify(&self.net.batch_engine()?, &batch.images)?;
        let correct = preds
            .iter()
            .zip(&batch.labels)
            .filter(|((pred, _), label)| pred == *label)
            .count();
        Ok(correct as f32 / batch.labels.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::LisaCnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn untrained(defense: DefenseKind) -> DefendedModel {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let builder = LisaCnn::new(18).input_size(16).conv1_filters(4);
        let net = builder.build(&mut rng).unwrap();
        DefendedModel::new(
            net,
            defense,
            builder.config().clone(),
            TrainingReport {
                epoch_losses: vec![],
                test_accuracy: 0.0,
            },
        )
    }

    fn smoothing() -> DefenseKind {
        DefenseKind::RandomizedSmoothing {
            sigma: 0.1,
            samples: 5,
        }
    }

    /// `n` distinct `[3, 16, 16]` images, each with one bright pixel.
    fn spiky_images(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let mut img = Tensor::full(&[3, 16, 16], 0.2 + 0.15 * i as f32);
                img.set(&[0, 4 + i, 4], 1.0).unwrap();
                img
            })
            .collect()
    }

    #[test]
    fn preprocess_is_identity_except_for_input_filter() {
        let batch = Tensor::stack(&spiky_images(1)).unwrap();
        let baseline = untrained(DefenseKind::Baseline);
        assert_eq!(baseline.preprocess_batch(&batch).unwrap(), batch);
        let filtered = untrained(DefenseKind::InputFilter { kernel: 3 });
        let out = filtered.preprocess_batch(&batch).unwrap();
        assert!(out.get(&[0, 0, 4, 4]).unwrap() < 1.0);
    }

    #[test]
    fn classification_paths_return_valid_classes() {
        let batch = Tensor::stack(&spiky_images(3)).unwrap();
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::InputFilter { kernel: 3 },
            smoothing(),
        ] {
            let model = untrained(defense);
            let engine = model.network().batch_engine().unwrap();
            let preds = model.classify(&engine, &batch).unwrap();
            assert_eq!(preds.len(), 3);
            for &(label, confidence) in &preds {
                assert!(label < 18);
                assert!(confidence > 0.0 && confidence <= 1.0);
            }
            // Inference is stateless: a second call answers identically.
            assert_eq!(model.classify(&engine, &batch).unwrap(), preds);
        }
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        for defense in [DefenseKind::Baseline, smoothing()] {
            let model = untrained(defense);
            let images = Tensor::stack(&spiky_images(2)).unwrap();
            // Use whatever the model predicts as the "labels" for a
            // perfect score.
            let engine = model.network().batch_engine().unwrap();
            let labels = model
                .classify(&engine, &images)
                .unwrap()
                .into_iter()
                .map(|(label, _)| label)
                .collect();
            let batch = Batch { images, labels };
            assert_eq!(model.accuracy(&batch).unwrap(), 1.0);
            let empty = Batch {
                images: Tensor::zeros(&[1, 3, 16, 16]),
                labels: vec![],
            };
            assert!(model.accuracy(&empty).is_err());
        }
    }

    #[test]
    fn accuracy_rejects_a_label_count_that_differs_from_the_batch() {
        for defense in [DefenseKind::Baseline, smoothing()] {
            let model = untrained(defense.clone());
            let images = Tensor::stack(&spiky_images(2)).unwrap();
            for labels in [vec![0], vec![0, 0, 0]] {
                let batch = Batch {
                    images: images.clone(),
                    labels,
                };
                assert!(
                    matches!(model.accuracy(&batch), Err(DefenseError::BadConfig(_))),
                    "defense {defense:?}, {} labels",
                    batch.labels.len()
                );
            }
        }
    }

    #[test]
    fn classify_matches_per_image_classification() {
        let images = spiky_images(4);
        let batch = Tensor::stack(&images).unwrap();
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::InputFilter { kernel: 3 },
            DefenseKind::FeatureFilter { kernel: 5 },
            smoothing(),
        ] {
            let model = untrained(defense.clone());
            let engine = model.network().batch_engine().unwrap();
            let batched = model.classify(&engine, &batch).unwrap();
            let singles: Vec<(usize, f32)> = images
                .iter()
                .flat_map(|image| {
                    let single = Tensor::stack(std::slice::from_ref(image)).unwrap();
                    model.classify(&engine, &single).unwrap()
                })
                .collect();
            assert_eq!(batched, singles, "defense {defense:?}");
        }
    }

    #[test]
    fn preprocess_batch_matches_per_image_preprocess() {
        let images = spiky_images(3);
        let stacked = Tensor::stack(&images).unwrap();
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::InputFilter { kernel: 3 },
            DefenseKind::FeatureFilter { kernel: 5 },
        ] {
            let model = untrained(defense.clone());
            let batched = model.preprocess_batch(&stacked).unwrap();
            for (i, image) in images.iter().enumerate() {
                let solo = match &defense {
                    DefenseKind::InputFilter { kernel } => {
                        crate::filter_image(image, *kernel).unwrap()
                    }
                    _ => image.clone(),
                };
                assert_eq!(
                    batched.batch_item(i).unwrap(),
                    solo,
                    "defense {defense:?}, image {i}"
                );
            }
        }
    }

    #[test]
    fn serving_capability_predicates() {
        assert!(!untrained(DefenseKind::Baseline).has_input_preprocessing());
        assert!(untrained(DefenseKind::InputFilter { kernel: 3 }).has_input_preprocessing());
        assert!(!untrained(smoothing()).has_input_preprocessing());
    }

    #[test]
    fn metadata_accessors() {
        let model = untrained(DefenseKind::TotalVariation { alpha: 1e-4 });
        assert_eq!(model.feature_layer_index(), 0);
        assert_eq!(model.feature_map_extent(), 8);
        assert_eq!(
            model.defense(),
            &DefenseKind::TotalVariation { alpha: 1e-4 }
        );
        assert!(model.training_report().epoch_losses.is_empty());
        assert!(model.network().parameter_count() > 0);
    }
}
