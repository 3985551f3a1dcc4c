//! Signal-processing substrate for the BlurNet reproduction.
//!
//! BlurNet's motivation, defenses and adaptive attacks all rest on a small
//! amount of classical signal processing:
//!
//! * 2-D FFT spectra of inputs and feature maps (Figures 1, 2 and 4 of the
//!   paper) — [`fft`] and [`spectrum`];
//! * low-pass blur kernels inserted as a depthwise layer or applied to the
//!   input (Table I) — [`kernels`];
//! * the total-variation regularizer and its gradient (Eq. 3–4, 9) — [`tv`];
//! * Tikhonov regularization operators `L_hf = I − L_avg` and the
//!   pseudoinverse of a difference matrix (Eq. 5–7, 10–11) — [`tikhonov`];
//! * the 2-D DCT used by the low-frequency adaptive attack (Eq. 8,
//!   Figure 3) — [`dct`].
//!
//! # Example
//!
//! ```
//! use blurnet_signal::{fft2d_magnitude, kernels};
//! use blurnet_tensor::Tensor;
//!
//! let image = Tensor::ones(&[8, 8]);
//! let spectrum = fft2d_magnitude(&image)?;
//! assert_eq!(spectrum.dims(), &[8, 8]);
//! let kernel = kernels::gaussian_kernel(5, 1.0);
//! assert!((kernel.sum() - 1.0).abs() < 1e-5);
//! # Ok::<(), blurnet_signal::SignalError>(())
//! ```

#![warn(missing_docs)]

mod complex;
pub mod dct;
mod error;
pub mod fft;
pub mod kernels;
pub mod spectrum;
pub mod tikhonov;
pub mod tv;

pub use complex::Complex32;
pub use dct::{dct2d, idct2d, low_frequency_project, low_frequency_project_planes};
pub use error::SignalError;
pub use fft::{fft2d, fft2d_magnitude, fftshift2d, ifft2d, log_magnitude_spectrum};
pub use kernels::{box_kernel, gaussian_kernel};
pub use spectrum::{band_energy, high_frequency_ratio, BandEnergy};
pub use tikhonov::{
    difference_matrix, high_frequency_operator, moving_average_matrix, ridge_pseudoinverse,
    OperatorPenalty,
};
pub use tv::{total_variation, total_variation_batch, tv_gradient, tv_gradient_batch};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, SignalError>;
