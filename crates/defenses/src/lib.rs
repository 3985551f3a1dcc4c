//! The BlurNet defenses and their training regimes.
//!
//! The paper proposes low-pass filtering of the **first-layer feature
//! maps**, realized three ways:
//!
//! 1. a fixed depthwise blur layer after the first convolution, compared
//!    against blurring the input with [`filter_image`] (Section III,
//!    Table I);
//! 2. a trainable depthwise layer regularized with an L∞ penalty on its
//!    kernels (Eq. 2);
//! 3. training-time regularization of the feature maps themselves with
//!    total variation (Eq. 4) or generalized Tikhonov operators
//!    (Eq. 6–7).
//!
//! Baseline defenses from the literature used for comparison — Gaussian
//! augmentation, randomized smoothing and PGD adversarial training — are in
//! the trainer and [`DefendedModel::classify`].
//!
//! [`DefenseKind`] enumerates every defended model evaluated in Tables
//! I–V; [`train_defended_model`] builds and trains it; [`DefendedModel`]
//! wraps the result behind one stateless defended prediction path,
//! [`DefendedModel::classify`].

#![warn(missing_docs)]

mod augment;
mod config;
mod disk;
mod error;
mod filtering;
mod model;
mod persist;
mod regularizers;
mod smoothing;
mod trainer;

pub use config::DefenseKind;
pub use disk::{model_from_file_bytes, DiskVariantCache};
pub use error::DefenseError;
pub use filtering::filter_image;
pub use model::{DefendedModel, TrainingReport};
pub use persist::{model_from_bytes, model_to_bytes};
pub use smoothing::SMOOTHING_SEED;
pub use trainer::{train_defended_model, TrainConfig};

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, DefenseError>;
