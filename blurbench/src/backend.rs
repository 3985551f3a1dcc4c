//! A [`Backend`] wrapper that counts and times every kernel call it
//! forwards, for the `tensor.*` per-layer metrics.
//!
//! Handed to `BatchEngine::with_backend`, it sees every kernel the engine
//! (and the layers it drives through its scratch pools) dispatches. It
//! only observes: each call goes unchanged to the wrapped backend, so
//! results are bit-identical to calling that backend directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blurnet_tensor::{
    Backend, Conv2dGrads, ConvSpec, DepthwiseGrads, MaxPoolOutput, PackedConvWeights, PoolSpec,
    Result, Scratch, SimdTier, Tensor,
};

/// Every timed [`Backend`] method, in trait order; the names are the
/// `tensor.<method>_ms` / `tensor.<method>_calls` metric stems.
pub const METHODS: [&str; 15] = [
    "matmul",
    "matmul_transpose_a",
    "matmul_transpose_b",
    "conv2d",
    "conv2d_prepacked",
    "conv2d_backward",
    "conv2d_input_grad",
    "conv2d_input_grad_prepacked",
    "depthwise_conv2d",
    "depthwise_conv2d_backward",
    "depthwise_input_grad",
    "max_pool2d",
    "max_pool2d_backward",
    "blur_batch",
    "blur_image",
];

/// Index of a method in [`METHODS`].
fn slot(method: &str) -> usize {
    METHODS
        .iter()
        .position(|&m| m == method)
        .expect("timed method is listed in METHODS")
}

/// Call count and total time of one method.
#[derive(Debug, Default)]
struct MethodStat {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// Forwards every [`Backend`] method to `inner`, recording per-method call
/// counts and wall time.
#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn Backend>,
    stats: [MethodStat; METHODS.len()],
}

/// One method's totals, as read by [`TimingBackend::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodTotals {
    /// Calls forwarded.
    pub calls: u64,
    /// Total time inside the wrapped method, in milliseconds.
    pub total_ms: f64,
}

impl TimingBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        TimingBackend {
            inner,
            stats: Default::default(),
        }
    }

    /// Per-method totals, in [`METHODS`] order.
    pub fn snapshot(&self) -> Vec<(&'static str, MethodTotals)> {
        METHODS
            .iter()
            .zip(&self.stats)
            .map(|(&name, stat)| {
                (
                    name,
                    MethodTotals {
                        calls: stat.calls.load(Ordering::Relaxed),
                        total_ms: stat.nanos.load(Ordering::Relaxed) as f64 / 1e6,
                    },
                )
            })
            .collect()
    }

    /// Runs `f`, charging its duration to `method`.
    fn timed<T>(&self, method: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let stat = &self.stats[slot(method)];
        stat.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stat.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl Backend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn simd_tier(&self) -> SimdTier {
        self.inner.simd_tier()
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.timed("matmul", || self.inner.matmul(a, b))
    }

    fn matmul_transpose_a(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.timed("matmul_transpose_a", || self.inner.matmul_transpose_a(a, b))
    }

    fn matmul_transpose_b(&self, a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        self.timed("matmul_transpose_b", || {
            self.inner.matmul_transpose_b(a, b, scratch)
        })
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.timed("conv2d", || {
            self.inner.conv2d(input, weight, bias, spec, scratch)
        })
    }

    fn conv2d_prepacked(
        &self,
        input: &Tensor,
        weights: &PackedConvWeights,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.timed("conv2d_prepacked", || {
            self.inner
                .conv2d_prepacked(input, weights, bias, spec, scratch)
        })
    }

    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Conv2dGrads> {
        self.timed("conv2d_backward", || {
            self.inner
                .conv2d_backward(input, weight, grad_output, spec, scratch)
        })
    }

    fn conv2d_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.timed("conv2d_input_grad", || {
            self.inner
                .conv2d_input_grad(weight, grad_output, input_dims, spec, scratch)
        })
    }

    fn conv2d_input_grad_prepacked(
        &self,
        weights: &PackedConvWeights,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.timed("conv2d_input_grad_prepacked", || {
            self.inner
                .conv2d_input_grad_prepacked(weights, grad_output, input_dims, spec, scratch)
        })
    }

    fn depthwise_conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Result<Tensor> {
        self.timed("depthwise_conv2d", || {
            self.inner.depthwise_conv2d(input, weight, bias, spec)
        })
    }

    fn depthwise_conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
    ) -> Result<DepthwiseGrads> {
        self.timed("depthwise_conv2d_backward", || {
            self.inner
                .depthwise_conv2d_backward(input, weight, grad_output, spec)
        })
    }

    fn depthwise_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
    ) -> Result<Tensor> {
        self.timed("depthwise_input_grad", || {
            self.inner
                .depthwise_input_grad(weight, grad_output, input_dims, spec)
        })
    }

    fn max_pool2d(&self, input: &Tensor, spec: PoolSpec) -> Result<MaxPoolOutput> {
        self.timed("max_pool2d", || self.inner.max_pool2d(input, spec))
    }

    fn max_pool2d_backward(
        &self,
        grad_output: &Tensor,
        argmax: &[usize],
        input_dims: &[usize],
    ) -> Result<Tensor> {
        self.timed("max_pool2d_backward", || {
            self.inner
                .max_pool2d_backward(grad_output, argmax, input_dims)
        })
    }

    fn blur_batch(&self, batch: &Tensor, kernel: &Tensor) -> Result<Tensor> {
        self.timed("blur_batch", || self.inner.blur_batch(batch, kernel))
    }

    fn blur_image(&self, image: &Tensor, kernel: &Tensor) -> Result<Tensor> {
        self.timed("blur_image", || self.inner.blur_image(image, kernel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::{BatchEngine, LisaCnn};
    use blurnet_tensor::default_backend;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn seeded(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = dims.iter().product();
        let data = (0..len)
            .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lisa_cnn_through_the_wrapper_is_bit_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = LisaCnn::new(18)
            .with_trainable_depthwise(7)
            .build(&mut rng)
            .unwrap();
        let timing = Arc::new(TimingBackend::new(default_backend()));
        let plain = BatchEngine::new(&net)
            .unwrap()
            .with_backend(default_backend());
        let wrapped = BatchEngine::new(&net).unwrap().with_backend(timing.clone());

        for batch in [1, 4] {
            let input = seeded(&[batch, 3, 32, 32], batch as u64);
            let grad_out = seeded(&[batch, 18], 100 + batch as u64);
            assert_eq!(
                bits(&plain.forward(&input).unwrap()),
                bits(&wrapped.forward(&input).unwrap())
            );
            assert_eq!(
                bits(&plain.input_grad(&input, &grad_out).unwrap()),
                bits(&wrapped.input_grad(&input, &grad_out).unwrap())
            );
        }

        let totals = timing.snapshot();
        let calls = |name: &str| totals.iter().find(|(m, _)| *m == name).unwrap().1.calls;
        for reached in [
            "conv2d_prepacked",
            "conv2d_input_grad_prepacked",
            "depthwise_conv2d",
            "depthwise_input_grad",
            "max_pool2d",
            "matmul",
        ] {
            assert!(calls(reached) > 0, "{reached} was never forwarded");
        }
    }

    #[test]
    fn every_trait_method_has_a_slot() {
        for method in METHODS {
            assert_eq!(METHODS[slot(method)], method);
        }
        assert_eq!(
            default_backend().simd_tier(),
            TimingBackend::new(default_backend()).simd_tier()
        );
    }
}
