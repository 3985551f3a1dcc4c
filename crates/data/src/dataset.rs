//! The synthetic sign dataset: train/test splits, batching and the
//! stop-sign evaluation set used by every attack experiment.

use blurnet_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::classes::{SignClass, NUM_CLASSES, STOP_CLASS_ID};
use crate::render::{render_sign, RenderJitter};
use crate::{DataError, Result};

/// Size and jitter parameters of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Square image extent in pixels.
    pub image_size: usize,
    /// Training samples rendered per class.
    pub train_per_class: usize,
    /// Test samples rendered per class.
    pub test_per_class: usize,
    /// Number of clean stop-sign images in the attack evaluation set
    /// (the paper uses the 40 images released with RP2).
    pub stop_eval_count: usize,
    /// Render jitter applied to every sample.
    pub jitter: RenderJitter,
}

impl DatasetConfig {
    /// Minimal configuration for unit tests (a handful of images).
    pub fn tiny() -> Self {
        DatasetConfig {
            image_size: 32,
            train_per_class: 4,
            test_per_class: 2,
            stop_eval_count: 4,
            jitter: RenderJitter::default(),
        }
    }

    /// Small configuration for smoke-level experiments.
    pub fn smoke() -> Self {
        DatasetConfig {
            image_size: 32,
            train_per_class: 12,
            test_per_class: 4,
            stop_eval_count: 8,
            jitter: RenderJitter::default(),
        }
    }

    /// Default configuration for the reproduced experiments.
    pub fn standard() -> Self {
        DatasetConfig {
            image_size: 32,
            train_per_class: 40,
            test_per_class: 10,
            stop_eval_count: 40,
            jitter: RenderJitter::default(),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.image_size < 8 {
            return Err(DataError::BadConfig(format!(
                "image size {} too small",
                self.image_size
            )));
        }
        if self.train_per_class == 0 || self.test_per_class == 0 || self.stop_eval_count == 0 {
            return Err(DataError::BadConfig(
                "per-class and stop-eval counts must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig::standard()
    }
}

/// A batch of images and labels ready for the network.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images stacked into `[B, 3, H, W]`.
    pub images: Tensor,
    /// One label per batch row.
    pub labels: Vec<usize>,
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct SignDataset {
    config: DatasetConfig,
    train_images: Vec<Tensor>,
    train_labels: Vec<usize>,
    test_images: Vec<Tensor>,
    test_labels: Vec<usize>,
    stop_eval: Vec<Tensor>,
}

impl SignDataset {
    /// Generates a dataset deterministically from a seed.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] for invalid configurations.
    pub fn generate(config: &DatasetConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut train_images = Vec::with_capacity(NUM_CLASSES * config.train_per_class);
        let mut train_labels = Vec::with_capacity(train_images.capacity());
        let mut test_images = Vec::with_capacity(NUM_CLASSES * config.test_per_class);
        let mut test_labels = Vec::with_capacity(test_images.capacity());
        for id in 0..NUM_CLASSES {
            let class = SignClass::from_id(id)?;
            for _ in 0..config.train_per_class {
                train_images.push(render_sign(
                    class,
                    config.image_size,
                    config.jitter,
                    &mut rng,
                )?);
                train_labels.push(id);
            }
            for _ in 0..config.test_per_class {
                test_images.push(render_sign(
                    class,
                    config.image_size,
                    config.jitter,
                    &mut rng,
                )?);
                test_labels.push(id);
            }
        }
        let stop = SignClass::from_id(STOP_CLASS_ID)?;
        let stop_eval = (0..config.stop_eval_count)
            .map(|_| render_sign(stop, config.image_size, config.jitter, &mut rng))
            .collect::<Result<Vec<_>>>()?;
        Ok(SignDataset {
            config: *config,
            train_images,
            train_labels,
            test_images,
            test_labels,
            stop_eval,
        })
    }

    /// Number of classes (always [`NUM_CLASSES`]).
    pub fn num_classes(&self) -> usize {
        NUM_CLASSES
    }

    /// Square image extent.
    pub fn image_size(&self) -> usize {
        self.config.image_size
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_images.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_images.len()
    }

    /// The clean stop-sign evaluation images (the RP2 "40 stop signs"
    /// stand-in).
    pub fn stop_eval_images(&self) -> &[Tensor] {
        &self.stop_eval
    }

    /// Shuffled training mini-batches for one epoch.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `batch_size` is zero.
    pub fn train_batches<R: Rng + ?Sized>(
        &self,
        batch_size: usize,
        rng: &mut R,
    ) -> Result<Vec<Batch>> {
        if batch_size == 0 {
            return Err(DataError::BadConfig("batch size must be non-zero".into()));
        }
        let mut indices: Vec<usize> = (0..self.train_images.len()).collect();
        indices.shuffle(rng);
        let mut batches = Vec::new();
        for chunk in indices.chunks(batch_size) {
            let images: Vec<Tensor> = chunk
                .iter()
                .map(|&i| self.train_images[i].clone())
                .collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| self.train_labels[i]).collect();
            batches.push(Batch {
                images: Tensor::stack(&images)?,
                labels,
            });
        }
        Ok(batches)
    }

    /// The whole test split as a single batch.
    ///
    /// # Errors
    ///
    /// Propagates tensor stacking errors (cannot occur for valid configs).
    pub fn test_batch(&self) -> Result<Batch> {
        Ok(Batch {
            images: Tensor::stack(&self.test_images)?,
            labels: self.test_labels.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_counts_and_shapes() {
        let ds = SignDataset::generate(&DatasetConfig::tiny(), 3).unwrap();
        assert_eq!(ds.train_len(), NUM_CLASSES * 4);
        assert_eq!(ds.test_len(), NUM_CLASSES * 2);
        assert_eq!(ds.stop_eval_images().len(), 4);
        assert_eq!(ds.num_classes(), NUM_CLASSES);
        let test = ds.test_batch().unwrap();
        assert_eq!(test.images.dims(), &[NUM_CLASSES * 2, 3, 32, 32]);
        assert!(test.labels.iter().all(|&label| label < NUM_CLASSES));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SignDataset::generate(&DatasetConfig::tiny(), 11).unwrap();
        let b = SignDataset::generate(&DatasetConfig::tiny(), 11).unwrap();
        let c = SignDataset::generate(&DatasetConfig::tiny(), 12).unwrap();
        let train = |ds: &SignDataset| {
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            ds.train_batches(ds.train_len(), &mut rng).unwrap()[0].clone()
        };
        assert_eq!(train(&a).images, train(&b).images);
        assert_ne!(train(&a).images, train(&c).images);
    }

    #[test]
    fn batches_cover_the_whole_training_set() {
        let ds = SignDataset::generate(&DatasetConfig::tiny(), 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let batches = ds.train_batches(16, &mut rng).unwrap();
        let total: usize = batches.iter().map(|b| b.labels.len()).sum();
        assert_eq!(total, ds.train_len());
        for batch in &batches {
            assert_eq!(batch.images.dims()[0], batch.labels.len());
            assert_eq!(&batch.images.dims()[1..], &[3, 32, 32]);
        }
        assert!(ds.train_batches(0, &mut rng).is_err());
    }

    #[test]
    fn test_batch_is_balanced() {
        let ds = SignDataset::generate(&DatasetConfig::tiny(), 0).unwrap();
        let test = ds.test_batch().unwrap();
        let mut counts = [0usize; NUM_CLASSES];
        for &l in &test.labels {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut bad = DatasetConfig::tiny();
        bad.train_per_class = 0;
        assert!(SignDataset::generate(&bad, 0).is_err());
        let mut bad = DatasetConfig::tiny();
        bad.image_size = 4;
        assert!(SignDataset::generate(&bad, 0).is_err());
    }
}
