//! Minimal NCHW `f32` tensor library for the BlurNet reproduction.
//!
//! The crate provides exactly the numeric substrate the rest of the
//! workspace needs: a dense row-major [`Tensor`], blocked matrix
//! multiplication, im2col-based 2-D convolution (regular and depthwise)
//! with full gradients, max-pooling, separable blur, and seeded weight
//! initializers. The [`Backend`] trait is the only way to run a kernel;
//! its [`CpuBackend`] implementation fixes its SIMD dispatch tier once at
//! construction (see [`SimdTier`]).
//!
//! # Example
//!
//! ```
//! use blurnet_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.add(&b)?;
//! assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
//! # Ok::<(), blurnet_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

mod backend;
mod conv;
mod error;
mod init;
mod matmul;
pub mod persist;
mod pool;
mod scratch;
mod shape;
mod tensor;

pub use backend::{default_backend, separable_factors, Backend, CpuBackend, SimdTier};
pub use conv::{Conv2dGrads, ConvSpec, DepthwiseGrads, PackedConvWeights};
pub use error::TensorError;
pub use init::Initializer;

/// Seed (pre-optimisation) implementations, kept verbatim so equivalence
/// tests and `substrate_micro` can pin the fast paths against them. Never
/// use these on hot paths.
pub mod reference {
    pub use crate::conv::reference::{
        depthwise_conv2d_naive, depthwise_input_grad_naive, depthwise_weight_grad_naive,
    };
    pub use crate::matmul::reference::matmul_naive;
}
pub use pool::{MaxPoolOutput, PoolSpec};
pub use scratch::Scratch;
pub use tensor::Tensor;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
