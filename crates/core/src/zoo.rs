//! The model zoo: a dataset plus a cache of trained defended models.
//!
//! The zoo trains each [`DefenseKind`] at most once per process and hands
//! out shared handles. Grid runs do not use it: the experiment
//! scheduler trains each variant in a DAG node and keeps it in that
//! node's result slot.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use blurnet_data::SignDataset;
use blurnet_defenses::{train_defended_model, DefendedModel, DefenseKind};

use crate::{Result, Scale};

/// Dataset plus trained-model cache for code that needs trained models
/// outside a grid run: the `serve` and `loadgen` binaries, the examples
/// and the variant golden tests.
#[derive(Debug)]
pub struct ModelZoo {
    scale: Scale,
    dataset: SignDataset,
    /// Trained models by defense label.
    models: HashMap<String, Arc<DefendedModel>>,
}

impl ModelZoo {
    /// Generates the dataset for `scale` and an empty model cache.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation errors.
    pub fn new(scale: Scale, seed: u64) -> Result<Self> {
        let dataset = SignDataset::generate(&scale.dataset_config(), seed)?;
        Ok(ModelZoo {
            scale,
            dataset,
            models: HashMap::new(),
        })
    }

    /// The shared dataset.
    pub fn dataset(&self) -> &SignDataset {
        &self.dataset
    }

    /// Returns the shared (read-only) cache handle of a trained model for
    /// the defense, training it on first use.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn get_or_train_shared(&mut self, defense: &DefenseKind) -> Result<Arc<DefendedModel>> {
        Ok(match self.models.entry(defense.label()) {
            Entry::Occupied(found) => found.get().clone(),
            Entry::Vacant(slot) => {
                let model =
                    train_defended_model(defense, &self.dataset, &self.scale.train_config())?;
                slot.insert(Arc::new(model)).clone()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_is_cached_per_defense() {
        let mut zoo = ModelZoo::new(Scale::Smoke, 3).unwrap();
        let a = zoo.get_or_train_shared(&DefenseKind::Baseline).unwrap();
        let b = zoo.get_or_train_shared(&DefenseKind::Baseline).unwrap();
        // The second request is a cache hit: the very same model.
        assert!(Arc::ptr_eq(&a, &b));
        assert!(zoo.dataset().train_len() > 0);
    }
}
