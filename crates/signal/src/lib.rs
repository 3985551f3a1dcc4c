//! Signal-processing substrate for the BlurNet reproduction.
//!
//! BlurNet's motivation, defenses and adaptive attacks all rest on a small
//! amount of classical signal processing:
//!
//! * 2-D FFT spectra of inputs and feature maps (Figures 1, 2 and 4 of the
//!   paper) — [`fft2d_magnitude`], [`log_magnitude_spectrum`] and
//!   [`high_frequency_ratio`];
//! * low-pass blur kernels inserted as a depthwise layer or applied to the
//!   input (Table I) — [`box_kernel`] and [`gaussian_kernel`];
//! * the total-variation regularizer and its gradient (Eq. 3–4, 9) —
//!   [`total_variation`] and [`tv_gradient_batch`];
//! * Tikhonov regularization operators `L_hf = I − L_avg` and the
//!   pseudoinverse of a difference matrix (Eq. 5–7, 10–11) —
//!   [`OperatorPenalty`];
//! * the 2-D DCT used by the low-frequency adaptive attack (Eq. 8,
//!   Figure 3) — [`dct2d`] and [`low_frequency_project_planes`].
//!
//! # Example
//!
//! ```
//! use blurnet_signal::{fft2d_magnitude, gaussian_kernel};
//! use blurnet_tensor::Tensor;
//!
//! let image = Tensor::ones(&[8, 8]);
//! let spectrum = fft2d_magnitude(&image)?;
//! assert_eq!(spectrum.dims(), &[8, 8]);
//! let kernel = gaussian_kernel(5, 1.0);
//! assert!((kernel.sum() - 1.0).abs() < 1e-5);
//! # Ok::<(), blurnet_signal::SignalError>(())
//! ```

#![warn(missing_docs)]

mod complex;
mod dct;
mod error;
mod fft;
mod kernels;
mod spectrum;
mod tikhonov;
mod tv;

pub use dct::{dct2d, low_frequency_project, low_frequency_project_planes};
pub use error::SignalError;
pub use fft::{fft2d_magnitude, log_magnitude_spectrum};
pub use kernels::{box_kernel, gaussian_kernel};
pub use spectrum::high_frequency_ratio;
pub use tikhonov::OperatorPenalty;
pub use tv::{total_variation, total_variation_batch, tv_gradient_batch};

/// Seed (pre-optimisation) implementations, kept so tests and
/// `substrate_micro` can pin the fast paths against them. Never use these
/// on hot paths.
pub mod reference {
    pub use crate::dct::reference::low_frequency_project_planes_naive;
}

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, SignalError>;
