//! Adversarial attacks and evaluation metrics for the BlurNet reproduction.
//!
//! Implemented threat models:
//!
//! * **RP2** ([`rp2`]) — the Robust Physical Perturbations attack of
//!   Eykholt et al.: a mask-constrained, targeted perturbation optimized
//!   with Adam over a transform ensemble, with an L2 mask-norm term and a
//!   non-printability score (Eq. 1 of the paper).
//! * **Adaptive RP2 variants** ([`adaptive`]) — the low-frequency DCT
//!   attack on depthwise-filter defenses (Eq. 8) and the regularizer-aware
//!   attacks on the TV / Tikhonov defenses (Eq. 9–11).
//! * **PGD** ([`pgd`]) — the ε-bounded pixel adversary of the supplementary
//!   evaluation (Table IV).
//! * **Black-box transfer** ([`transfer`]) — generate on a surrogate,
//!   evaluate on a defended victim (Table I).
//!
//! [`metrics`] provides the attack success rate and L2 dissimilarity
//! measures every table reports.

#![warn(missing_docs)]

pub mod adaptive;
mod error;
pub mod metrics;
pub mod persist;
pub mod pgd;
pub mod rp2;
pub mod transfer;

pub use adaptive::{AdaptiveObjective, FeaturePenaltyKind};
pub use error::AttackError;
pub use metrics::{
    batch_l2_dissimilarity, l2_dissimilarity, targeted_success_from_logits, targeted_success_rate,
    untargeted_success_from_logits, untargeted_success_rate, AttackEvaluation,
};
pub use pgd::{PgdAttack, PgdConfig};
pub use rp2::{Rp2Attack, Rp2Config, Rp2Result};
pub use transfer::{TransferReport, TransferSet};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, AttackError>;
