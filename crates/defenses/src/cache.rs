//! A thread-safe cache of trained model variants.
//!
//! Every experiment grid needs the same handful of trained
//! [`DefendedModel`] variants — Table II alone uses fifteen, and the
//! adaptive/PGD/figure cells reuse most of them. The [`VariantCache`] is
//! the one store those variants live in: it hands out cheap [`Arc`] clones
//! for read-only sharing across concurrently executing evaluation cells,
//! while callers that need the `&mut` evaluation paths (white-box attacks,
//! randomized smoothing) deep-clone the `DefendedModel` per cell.
//!
//! The cache itself never trains: callers decide *when* a variant is
//! built (the experiment scheduler trains each variant in a dedicated DAG
//! node so every label is trained exactly once per run; the sequential
//! `ModelZoo` trains on first request). This keeps the locking trivial —
//! the mutex only guards map operations, never a training run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::model::DefendedModel;

/// Thread-safe map from defense label to its trained model variant.
#[derive(Debug, Default)]
pub struct VariantCache {
    inner: Mutex<HashMap<String, Arc<DefendedModel>>>,
}

impl VariantCache {
    /// An empty cache.
    pub fn new() -> Self {
        VariantCache::default()
    }

    /// The cached variant for `label`, if any (an `Arc` clone — cheap).
    pub fn get(&self, label: &str) -> Option<Arc<DefendedModel>> {
        self.inner
            .lock()
            .expect("variant cache lock poisoned")
            .get(label)
            .cloned()
    }

    /// Stores `model` under its defense label and returns the shared
    /// handle. If the label is already present, the **existing** variant
    /// wins and is returned — concurrent duplicate training (which the
    /// scheduler's DAG rules out anyway) can therefore never make two
    /// cells see different weights for the same label.
    pub fn insert(&self, model: DefendedModel) -> Arc<DefendedModel> {
        let label = model.defense().label();
        let mut map = self.inner.lock().expect("variant cache lock poisoned");
        map.entry(label).or_insert_with(|| Arc::new(model)).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainingReport;
    use crate::DefenseKind;
    use blurnet_nn::persist::sequential_to_bytes;
    use blurnet_nn::LisaCnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model(defense: DefenseKind, seed: u64) -> DefendedModel {
        let builder = LisaCnn::new(18).input_size(16).conv1_filters(4);
        let net = builder.build(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
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

    #[test]
    fn first_insert_wins_per_label() {
        let cache = VariantCache::new();
        assert!(cache.get("Baseline").is_none());
        let first = cache.insert(model(DefenseKind::Baseline, 1));
        let second = cache.insert(model(DefenseKind::Baseline, 2));
        assert_eq!(cache.inner.lock().unwrap().len(), 1);
        // Same Arc: the duplicate insert returned the existing variant.
        assert!(Arc::ptr_eq(&first, &second));
        let fetched = cache.get("Baseline").unwrap();
        assert_eq!(
            sequential_to_bytes(fetched.network()),
            sequential_to_bytes(first.network())
        );
    }

    #[test]
    fn shared_handles_see_one_set_of_weights() {
        let cache = VariantCache::new();
        cache.insert(model(DefenseKind::Baseline, 7));
        let a = cache.get("Baseline").unwrap();
        let b = cache.get("Baseline").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Deep clones carry identical weights.
        let ca: DefendedModel = (*a).clone();
        let cb: DefendedModel = (*b).clone();
        assert_eq!(
            sequential_to_bytes(ca.network()),
            sequential_to_bytes(cb.network())
        );
    }
}
