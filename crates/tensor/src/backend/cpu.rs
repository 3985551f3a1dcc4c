//! The reference CPU backend: the workspace's existing blocked/tiled
//! kernels behind the [`Backend`] trait, dispatched through a [`SimdTier`]
//! fixed at construction.

use super::{Backend, SimdTier};
use crate::{
    Conv2dGrads, ConvSpec, DepthwiseGrads, MaxPoolOutput, PackedConvWeights, PoolSpec, Result,
    Scratch, Tensor,
};

/// The reference CPU implementation of [`Backend`].
///
/// Construction fixes the dispatch tier once — [`CpuBackend::new`] probes
/// the CPU (honouring `BLURNET_FORCE_SCALAR`), [`CpuBackend::with_tier`]
/// pins an explicit tier — and every kernel call then routes through that
/// tier without re-querying CPU features. Two backends with different
/// tiers coexist safely in one process; the cross-dispatch property tests
/// rely on exactly that.
#[derive(Debug, Clone)]
pub struct CpuBackend {
    tier: SimdTier,
}

impl CpuBackend {
    /// A backend at the widest tier this CPU supports (once-per-process
    /// detection, `BLURNET_FORCE_SCALAR=1` forces the scalar tier).
    pub fn new() -> Self {
        CpuBackend {
            tier: SimdTier::detect(),
        }
    }

    /// A backend pinned to `tier`.
    ///
    /// A tier the running CPU cannot execute (e.g. [`SimdTier::Avx2Fma`] on
    /// a non-AVX2 host) is clamped to [`SimdTier::Scalar`] — the unsafe
    /// vectorised kernels are only ever entered on a verified-capable CPU,
    /// so constructing a backend is always sound.
    pub fn with_tier(tier: SimdTier) -> Self {
        let tier = if tier.is_supported() {
            tier
        } else {
            SimdTier::Scalar
        };
        CpuBackend { tier }
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::new()
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn simd_tier(&self) -> SimdTier {
        self.tier
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        crate::matmul::matmul(self.tier, a, b)
    }

    fn matmul_transpose_a(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        crate::matmul::matmul_transpose_a(self.tier, a, b)
    }

    fn matmul_transpose_b(&self, a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        crate::matmul::matmul_transpose_b(self.tier, a, b, scratch)
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let packed = PackedConvWeights::pack(weight)?;
        crate::conv::conv2d_prepacked(self.tier, input, &packed, bias, spec, scratch)
    }

    fn conv2d_prepacked(
        &self,
        input: &Tensor,
        weights: &PackedConvWeights,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        crate::conv::conv2d_prepacked(self.tier, input, weights, bias, spec, scratch)
    }

    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Conv2dGrads> {
        crate::conv::conv2d_backward(self.tier, input, weight, grad_output, spec, scratch)
    }

    fn conv2d_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let packed = PackedConvWeights::pack(weight)?;
        crate::conv::conv2d_input_grad_prepacked(
            self.tier,
            &packed,
            grad_output,
            input_dims,
            spec,
            scratch,
        )
    }

    fn conv2d_input_grad_prepacked(
        &self,
        weights: &PackedConvWeights,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        crate::conv::conv2d_input_grad_prepacked(
            self.tier,
            weights,
            grad_output,
            input_dims,
            spec,
            scratch,
        )
    }

    fn depthwise_conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Result<Tensor> {
        // Tier-independent: the depthwise kernels carry no SIMD dispatch.
        crate::conv::depthwise_conv2d(input, weight, bias, spec)
    }

    fn depthwise_conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
    ) -> Result<DepthwiseGrads> {
        crate::conv::depthwise_conv2d_backward(input, weight, grad_output, spec)
    }

    fn depthwise_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
    ) -> Result<Tensor> {
        crate::conv::depthwise_input_grad(weight, grad_output, input_dims, spec)
    }

    fn max_pool2d(&self, input: &Tensor, spec: PoolSpec) -> Result<MaxPoolOutput> {
        crate::pool::max_pool2d(input, spec)
    }

    fn max_pool2d_backward(
        &self,
        grad_output: &Tensor,
        argmax: &[usize],
        input_dims: &[usize],
    ) -> Result<Tensor> {
        crate::pool::max_pool2d_backward(grad_output, argmax, input_dims)
    }

    fn blur_batch(&self, batch: &Tensor, kernel: &Tensor) -> Result<Tensor> {
        super::blur::blur_batch(batch, kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_tier_clamps_to_supported() {
        let b = CpuBackend::with_tier(SimdTier::Avx2Fma);
        assert!(b.simd_tier().is_supported());
        assert_eq!(
            CpuBackend::with_tier(SimdTier::Scalar).simd_tier(),
            SimdTier::Scalar
        );
    }

    #[test]
    fn default_matches_detection() {
        assert_eq!(CpuBackend::new().simd_tier(), SimdTier::detect());
        assert_eq!(CpuBackend::default().simd_tier(), SimdTier::detect());
    }
}
