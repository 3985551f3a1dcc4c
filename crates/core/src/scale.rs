//! Experiment scale profiles.
//!
//! The paper trains each classifier for 2000 epochs and attacks 40 stop
//! signs with 300 RP2 iterations per target across 17 targets — far beyond
//! a single-core CI budget. The [`Scale`] profiles keep the experiment
//! *structure* identical while shrinking the dataset, training epochs,
//! attack iterations and target sweeps. `Scale::Paper` approaches the
//! paper's effort and is intended for long offline runs.

use blurnet_attacks::{PgdConfig, Rp2Config};
use blurnet_data::{DatasetConfig, NUM_CLASSES, STOP_CLASS_ID};
use blurnet_defenses::TrainConfig;
use serde::{Deserialize, Serialize};

/// How much compute an experiment run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds per experiment — used by tests and CI.
    Smoke,
    /// Minutes per experiment.
    Quick,
    /// The closest practical approximation of the paper's effort.
    Paper,
}

impl Scale {
    /// Reads the scale from the `BLURNET_SCALE` environment variable
    /// (`smoke`, `quick` or `paper`), defaulting to `Smoke`.
    pub fn from_env() -> Scale {
        match std::env::var("BLURNET_SCALE")
            .unwrap_or_default()
            .to_ascii_lowercase()
            .as_str()
        {
            "paper" => Scale::Paper,
            "quick" => Scale::Quick,
            _ => Scale::Smoke,
        }
    }

    /// Dataset size for this scale.
    pub fn dataset_config(&self) -> DatasetConfig {
        match self {
            Scale::Smoke => DatasetConfig {
                stop_eval_count: 4,
                ..DatasetConfig::smoke()
            },
            Scale::Quick => DatasetConfig {
                train_per_class: 24,
                test_per_class: 6,
                stop_eval_count: 10,
                ..DatasetConfig::standard()
            },
            Scale::Paper => DatasetConfig::standard(),
        }
    }

    /// Training recipe for this scale.
    pub fn train_config(&self) -> TrainConfig {
        match self {
            Scale::Smoke => TrainConfig {
                epochs: 3,
                batch_size: 16,
                learning_rate: 2e-3,
                seed: 7,
            },
            Scale::Quick => TrainConfig {
                epochs: 8,
                batch_size: 32,
                learning_rate: 1.5e-3,
                seed: 7,
            },
            Scale::Paper => TrainConfig {
                epochs: 20,
                batch_size: 32,
                learning_rate: 1.5e-3,
                seed: 7,
            },
        }
    }

    /// RP2 configuration (λ = 0.002 as in the paper's black-box runs).
    pub fn rp2_config(&self) -> Rp2Config {
        let iterations = match self {
            Scale::Smoke => 30,
            Scale::Quick => 80,
            Scale::Paper => 300,
        };
        Rp2Config {
            iterations,
            num_transforms: match self {
                Scale::Smoke => 2,
                _ => 4,
            },
            ..Rp2Config::default()
        }
    }

    /// PGD configuration (ε = 8/255, α = 0.01, 10 steps as in Table IV).
    pub fn pgd_config(&self) -> PgdConfig {
        PgdConfig {
            steps: match self {
                Scale::Smoke => 5,
                _ => 10,
            },
            ..PgdConfig::default()
        }
    }

    /// Number of stop-sign images attacked per evaluation.
    pub fn attack_image_count(&self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Quick => 8,
            Scale::Paper => 40,
        }
    }

    /// The attack targets swept in the white-box and adaptive evaluations
    /// (the paper sweeps all 17 non-stop classes).
    pub fn attack_targets(&self) -> Vec<usize> {
        let all: Vec<usize> = (0..NUM_CLASSES).filter(|&c| c != STOP_CLASS_ID).collect();
        match self {
            Scale::Smoke => all.into_iter().step_by(8).collect(),
            Scale::Quick => all.into_iter().step_by(4).collect(),
            Scale::Paper => all,
        }
    }

    /// Monte-Carlo samples for randomized smoothing (100 in the paper).
    pub(crate) fn smoothing_samples(&self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Quick => 24,
            Scale::Paper => 100,
        }
    }

    /// Number of adversarial-training PGD steps (7 in the paper).
    pub(crate) fn adv_train_steps(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 4,
            Scale::Paper => 7,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_effort() {
        assert!(Scale::Smoke.rp2_config().iterations < Scale::Quick.rp2_config().iterations);
        assert!(Scale::Quick.rp2_config().iterations < Scale::Paper.rp2_config().iterations);
        assert!(Scale::Smoke.attack_image_count() < Scale::Paper.attack_image_count());
        assert!(Scale::Smoke.train_config().epochs < Scale::Paper.train_config().epochs);
        assert!(Scale::Smoke.attack_targets().len() < Scale::Paper.attack_targets().len());
    }

    #[test]
    fn paper_scale_matches_paper_constants() {
        assert_eq!(Scale::Paper.rp2_config().iterations, 300);
        assert!((Scale::Paper.rp2_config().lambda - 0.002).abs() < 1e-9);
        assert_eq!(Scale::Paper.attack_targets().len(), 17);
        assert_eq!(Scale::Paper.smoothing_samples(), 100);
        assert_eq!(Scale::Paper.adv_train_steps(), 7);
        assert_eq!(Scale::Paper.dataset_config().stop_eval_count, 40);
        assert_eq!(Scale::Paper.pgd_config().steps, 10);
    }

    #[test]
    fn targets_never_include_the_stop_class() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            assert!(!scale.attack_targets().contains(&STOP_CLASS_ID));
            assert!(!scale.attack_targets().is_empty());
        }
    }

    #[test]
    fn display_and_env_parsing() {
        assert_eq!(Scale::Smoke.to_string(), "smoke");
        assert_eq!(Scale::Paper.to_string(), "paper");
        // Without the env var set, the default is smoke.
        std::env::remove_var("BLURNET_SCALE");
        assert_eq!(Scale::from_env(), Scale::Smoke);
    }
}
