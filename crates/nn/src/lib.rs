//! A small layer-wise neural-network framework with explicit backward
//! passes, built for the BlurNet reproduction.
//!
//! The framework deliberately avoids a general autodiff tape: every layer
//! implements its own immutable forward and backward steps over
//! [`blurnet_tensor::Tensor`] values, which keeps the computation easy to
//! audit. One engine, [`BatchEngine`], drives them for every job, and gives
//! the two things the paper's experiments need beyond plain training:
//!
//! * gradients **with respect to the input image** (for the RP2, PGD and
//!   adaptive attacks), via [`BatchEngine::input_grad`] /
//!   [`BatchEngine::forward_backward_with`], and
//! * gradient **injection at intermediate activations** (for the
//!   total-variation and Tikhonov feature-map regularizers of Eq. 4, 6 and
//!   7 in training, and their adaptive-attack counterparts of Eq. 9–11),
//!   via the [`ShardGrad`] closure of [`BatchEngine::train_step`] and
//!   [`BatchEngine::forward_backward_with`].
//!
//! The [`model::LisaCnn`] builder replicates the paper's road-sign
//! classifier topology (three convolution layers plus a fully-connected
//! head) at a CPU-friendly scale, with an optional fixed blur layer after
//! the first convolution.
//!
//! Inference-heavy workloads (the attack×defense evaluation grids behind
//! every table of the paper) build one engine per network
//! ([`Sequential::batch_engine`]) and shard the batch dimension across
//! rayon workers ([`BatchEngine::forward`]) with per-worker scratch pools
//! and weights packed once per engine, producing outputs bit-identical to
//! the per-sample path at every thread count.
//!
//! # Example
//!
//! ```
//! use blurnet_nn::{softmax_cross_entropy, LisaCnn};
//! use blurnet_tensor::Tensor;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let net = LisaCnn::new(18).build(&mut rng)?;
//! let batch = Tensor::zeros(&[2, 3, 32, 32]);
//! let logits = net.batch_engine()?.forward(&batch)?;
//! assert_eq!(logits.dims(), &[2, 18]);
//! let (loss, _grad) = softmax_cross_entropy(&logits, &[0, 1])?;
//! assert!(loss > 0.0);
//! # Ok::<(), blurnet_nn::NnError>(())
//! ```

#![deny(missing_docs)]

mod activation;
mod conv;
mod dense;
mod depthwise;
mod engine;
mod error;
mod flatten;
mod layer;
mod loss;
mod model;
mod network;
mod optim;
pub mod persist;
mod pool;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub use depthwise::DepthwiseConv2d;
pub use engine::{BatchEngine, GradBatch, Gradients, ShardGrad, TRAIN_SHARD_ROWS};
pub use error::NnError;
pub use flatten::Flatten;
pub use layer::{Layer, LayerKind, TapeSlot};
pub use loss::{confidences, predictions, softmax_cross_entropy};
pub use model::{FilterLayer, LisaCnn, LisaCnnConfig};
pub use network::Sequential;
pub use optim::Adam;
pub use pool::MaxPool2d;

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, NnError>;
