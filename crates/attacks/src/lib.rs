//! Adversarial attacks and evaluation metrics for the BlurNet reproduction.
//!
//! Implemented threat models:
//!
//! * **RP2** ([`Rp2Attack`]) — the Robust Physical Perturbations attack of
//!   Eykholt et al.: a mask-constrained, targeted perturbation optimized
//!   with Adam over a transform ensemble, with an L2 mask-norm term and a
//!   non-printability score (Eq. 1 of the paper).
//! * **Adaptive RP2 variants** ([`adaptive`]) — the low-frequency DCT
//!   attack on depthwise-filter defenses (Eq. 8) and the regularizer-aware
//!   attacks on the TV / Tikhonov defenses (Eq. 9–11).
//! * **PGD** ([`PgdAttack`]) — the ε-bounded pixel adversary of the supplementary
//!   evaluation (Table IV).
//! * **Black-box transfer** ([`TransferSet`]) — generate on a surrogate,
//!   evaluate on a defended victim (Table I).
//!
//! [`targeted_success_rate`], [`untargeted_success_rate`] and
//! [`l2_dissimilarity`] (with their batched forms) are the attack success
//! rate and L2 dissimilarity measures every table reports.

#![warn(missing_docs)]

pub mod adaptive;
mod error;
mod metrics;
mod persist;
mod pgd;
mod rp2;
mod transfer;

pub use adaptive::{penalized_loss, AdaptiveObjective, FeaturePenaltyKind};
pub use error::AttackError;
pub use metrics::{
    batch_l2_dissimilarity, l2_dissimilarity, targeted_success_rate,
    untargeted_success_from_logits, untargeted_success_rate, AttackEvaluation,
};
pub use persist::{
    rp2_result_from_bytes, rp2_result_to_bytes, transfer_set_from_bytes, transfer_set_to_bytes,
};
pub use pgd::{PgdAttack, PgdConfig};
pub use rp2::{Rp2Attack, Rp2Config, Rp2Result, TargetSweep};
pub use transfer::TransferSet;

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, AttackError>;
