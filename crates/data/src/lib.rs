//! Synthetic LISA-like traffic-sign dataset, RP2 sticker masks and
//! transform ensembles.
//!
//! The original BlurNet evaluation uses the LISA US traffic-sign dataset
//! (top 18 classes) plus the 40 perturbed stop-sign photos published with
//! the RP2 attack. Neither can be redistributed here and no image-decoding
//! crates are allowed, so this crate generates the closest synthetic
//! equivalent: procedurally rendered 32×32 RGB signs with class-specific
//! shapes, palettes and glyph patterns plus background, position, scale and
//! brightness jitter. What the defense relies on — smooth sign regions
//! against which a mask-constrained sticker perturbation is a localized,
//! high-frequency anomaly — is preserved (see `docs/ARCHITECTURE.md`,
//! § Substitutions).
//!
//! # Example
//!
//! ```
//! use blurnet_data::{DatasetConfig, SignDataset};
//!
//! let dataset = SignDataset::generate(&DatasetConfig::tiny(), 7)?;
//! assert_eq!(dataset.num_classes(), 18);
//! assert!(dataset.train_len() > 0);
//! # Ok::<(), blurnet_data::DataError>(())
//! ```

#![warn(missing_docs)]

mod classes;
mod dataset;
mod error;
mod mask;
mod render;
mod transform;

pub use classes::{NUM_CLASSES, STOP_CLASS_ID};
pub use dataset::{Batch, DatasetConfig, SignDataset};
pub use error::DataError;
pub use mask::{mask_coverage, sticker_mask, StickerLayout};
pub use transform::{sample_transforms, Transform};

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, DataError>;
