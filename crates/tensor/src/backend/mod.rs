//! Pluggable compute backends for the tensor core.
//!
//! Every hot kernel the workspace runs — GEMM, conv forward/backward,
//! depthwise, separable blur, pooling — is reachable only through the
//! [`Backend`] trait, with the reference CPU implementation in
//! [`CpuBackend`]; each kernel exists once, as a crate-private function
//! the backend calls with its tier. Consumers (`blurnet-nn` layers, the
//! batch engine, the defenses and the figure generators) hold an
//! `Arc<dyn Backend>` — either the process-wide [`default_backend`] or one
//! threaded through a [`Scratch`] — so an accelerator backend (e.g. a
//! future `CudaBackend`) slots in by implementing this trait and swapping
//! the handle, without touching any call site.
//!
//! # Dispatch
//!
//! CPU-feature dispatch happens once, at backend construction: a
//! [`CpuBackend`] captures a [`SimdTier`] (AVX2+FMA or portable scalar) and
//! every kernel call routes through that fixed tier. See
//! [`dispatch`](self::SimdTier) for the `BLURNET_FORCE_SCALAR` override and
//! the cross-tier bit-identity contract.

mod blur;
mod cpu;
mod dispatch;

use std::sync::{Arc, OnceLock};

pub use blur::separable_factors;
pub use cpu::CpuBackend;
pub use dispatch::SimdTier;

use crate::{
    Conv2dGrads, ConvSpec, DepthwiseGrads, MaxPoolOutput, PackedConvWeights, PoolSpec, Result,
    Scratch, Tensor,
};

/// A compute backend: the full set of hot kernels the workspace runs.
///
/// The trait is object-safe and handles are shared as `Arc<dyn Backend>`.
/// Methods that need workspace buffers take a [`Scratch`]; the scratch only
/// supplies memory — the dispatch tier always comes from the backend
/// itself, so a forced-scalar backend stays scalar even when handed a
/// scratch built for another backend.
///
/// # Numerical contract
///
/// For [`CpuBackend`], every kernel is **bit-identical across dispatch
/// tiers** (see [`SimdTier`]). Other backends only promise the documented
/// tolerance (≤ 1e-5 relative against the naive references in
/// [`crate::reference`]); `crates/tensor/tests/backend_props.rs` pins both
/// levels.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Short identifier for logs and benchmark records (e.g. `"cpu"`).
    fn name(&self) -> &'static str;

    /// The SIMD dispatch tier this backend was constructed with.
    fn simd_tier(&self) -> SimdTier;

    /// Dense matrix product `a (m×k) · b (k×n) → (m×n)`.
    ///
    /// # Errors
    ///
    /// Returns an error if either argument is not rank 2 or the inner
    /// dimensions disagree.
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor>;

    /// Computes `aᵀ (k×m) · b (k×n) → (m×n)` without materialising the
    /// transpose in the caller.
    ///
    /// # Errors
    ///
    /// Returns an error if either argument is not rank 2 or the shared
    /// leading dimension disagrees.
    fn matmul_transpose_a(&self, a: &Tensor, b: &Tensor) -> Result<Tensor>;

    /// Computes `a (m×k) · bᵀ (n×k) → (m×n)`, drawing the packed `bᵀ` from
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// Returns an error if either argument is not rank 2 or the shared
    /// trailing dimension disagrees.
    fn matmul_transpose_b(&self, a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor>;

    /// Standard 2-D convolution of an `[N, C, H, W]` input with
    /// `[F, C, KH, KW]` filters; all workspace buffers come from `scratch`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches or if the kernel does not
    /// fit the padded input.
    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// [`Backend::conv2d`] against weights packed once with
    /// [`PackedConvWeights::pack`]; bit-identical to the unpacked call on
    /// the same operands.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches or if the kernel does not
    /// fit the padded input.
    fn conv2d_prepacked(
        &self,
        input: &Tensor,
        weights: &PackedConvWeights,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// Full backward pass of [`Backend::conv2d`]: input, weight and bias
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches.
    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Conv2dGrads>;

    /// Input gradient of [`Backend::conv2d`] only (the attack-generation
    /// backward), for a frozen layer described by `weight` and the recorded
    /// `input_dims`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches between `weight`,
    /// `grad_output` and `input_dims`.
    fn conv2d_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// [`Backend::conv2d_input_grad`] against pre-packed weights, consuming
    /// the pack's pre-flipped taps; bit-identical to the unpacked call.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches between the pack,
    /// `grad_output` and `input_dims`.
    fn conv2d_input_grad_prepacked(
        &self,
        weights: &PackedConvWeights,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// Depthwise 2-D convolution: each channel convolved with its own
    /// `[C, KH, KW]` kernel.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches or if the kernel does not
    /// fit.
    fn depthwise_conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Result<Tensor>;

    /// Full backward pass of [`Backend::depthwise_conv2d`].
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches.
    fn depthwise_conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
    ) -> Result<DepthwiseGrads>;

    /// Input gradient of [`Backend::depthwise_conv2d`] only, for a frozen
    /// layer.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches between `weight`,
    /// `grad_output` and `input_dims`.
    fn depthwise_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
    ) -> Result<Tensor>;

    /// 2-D max pooling over an `[N, C, H, W]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank 4 or the window does not
    /// fit.
    fn max_pool2d(&self, input: &Tensor, spec: PoolSpec) -> Result<MaxPoolOutput>;

    /// Backward pass of [`Backend::max_pool2d`], routing each output
    /// gradient to the recorded argmax position.
    ///
    /// # Errors
    ///
    /// Returns an error if `grad_output` does not match the recorded
    /// pooling output shape or an argmax index falls outside `input_dims`.
    fn max_pool2d_backward(
        &self,
        grad_output: &Tensor,
        argmax: &[usize],
        input_dims: &[usize],
    ) -> Result<Tensor>;

    /// Applies a blur kernel to every channel of an `[N, C, H, W]` batch
    /// with "same" padding. Separable (rank-1) odd kernels take the
    /// two-pass `O(k)`-per-pixel fast path; anything else falls back to a
    /// depthwise 2-D convolution.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch is not rank 4 or the kernel is
    /// invalid (non-square, or of even extent — "same" padding needs a
    /// centre tap).
    fn blur_batch(&self, batch: &Tensor, kernel: &Tensor) -> Result<Tensor>;

    /// Applies a blur kernel to every channel of a single `[C, H, W]`
    /// image; provided in terms of [`Backend::blur_batch`].
    ///
    /// # Errors
    ///
    /// Returns an error if the image is not rank 3 or the kernel is
    /// invalid.
    fn blur_image(&self, image: &Tensor, kernel: &Tensor) -> Result<Tensor> {
        if image.shape().rank() != 3 {
            return Err(crate::TensorError::RankMismatch {
                expected: 3,
                actual: image.shape().rank(),
            });
        }
        let dims = image.dims().to_vec();
        let batch = image.reshape(&[1, dims[0], dims[1], dims[2]])?;
        let blurred = self.blur_batch(&batch, kernel)?;
        blurred.reshape(&dims)
    }
}

/// The process-wide default backend: a [`CpuBackend`] at the tier
/// [`SimdTier::detect`] picked, constructed once on first use.
///
/// Freshly created [`Scratch`] pools bind this handle; tests that need a
/// specific tier build their own [`CpuBackend::with_tier`] instead.
pub fn default_backend() -> Arc<dyn Backend> {
    static BACKEND: OnceLock<Arc<dyn Backend>> = OnceLock::new();
    Arc::clone(BACKEND.get_or_init(|| Arc::new(CpuBackend::new())))
}
