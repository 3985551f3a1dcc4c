//! One-time runtime CPU-feature dispatch for the compute kernels.
//!
//! The hot entry points used to re-query `is_x86_feature_detected!` on
//! every `gemm_rows` row block and every image of a direct convolution.
//! The queries are individually cheap (std caches them behind an atomic),
//! but they scattered the dispatch decision across call sites, made the
//! scalar path untestable on SIMD hosts, and broke the build on non-x86
//! targets. Dispatch now happens exactly once: [`SimdTier::detect`] probes
//! the CPU (honouring the `BLURNET_FORCE_SCALAR` override) the first time
//! any kernel runs, and the resulting [`SimdTier`] is threaded *by value*
//! through the kernel internals — so two backends with different tiers can
//! coexist in one process, which is what the cross-dispatch property tests
//! rely on.

use std::sync::OnceLock;

/// The kernel table a CPU backend dispatches through, fixed at backend
/// construction.
///
/// # Numerical contract
///
/// Both tiers contract every multiply-add with `f32::mul_add` — a single
/// correctly-rounded fused operation whether it lowers to `vfmadd`
/// (AVX2+FMA), `fmla` (AArch64) or libm's `fmaf` (baseline x86-64) — and
/// both accumulate each output element in the same sequential k-order, so
/// **every kernel produces bit-identical results on every tier**. Forcing
/// the scalar tier changes speed, never bytes; the golden micro-grid and
/// `tests/backend_props.rs` pin this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// AVX2 + FMA vectorised kernels (x86-64 only, verified at runtime).
    Avx2Fma,
    /// Portable scalar kernels; the only tier on non-x86 targets.
    Scalar,
}

impl SimdTier {
    /// Detects the widest tier this CPU supports, once per process.
    ///
    /// Set `BLURNET_FORCE_SCALAR=1` (any value other than `0` or the empty
    /// string) to force [`SimdTier::Scalar`] — the way CI proves the scalar
    /// path produces byte-identical artifacts on AVX2 hosts. The probe and
    /// the environment read happen on first use and are cached for the
    /// process lifetime; tests that need both tiers side by side construct
    /// backends with [`CpuBackend::with_tier`] instead of mutating the
    /// environment.
    ///
    /// [`CpuBackend::with_tier`]: super::CpuBackend::with_tier
    pub fn detect() -> SimdTier {
        static TIER: OnceLock<SimdTier> = OnceLock::new();
        *TIER.get_or_init(|| {
            if force_scalar() {
                return SimdTier::Scalar;
            }
            Self::widest_supported()
        })
    }

    /// The widest tier the running CPU actually supports, ignoring the
    /// environment override.
    fn widest_supported() -> SimdTier {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdTier::Avx2Fma;
        }
        SimdTier::Scalar
    }

    /// Whether this CPU can execute the tier's kernels.
    pub fn is_supported(self) -> bool {
        match self {
            SimdTier::Avx2Fma => Self::widest_supported() == SimdTier::Avx2Fma,
            SimdTier::Scalar => true,
        }
    }

    /// Stable lower-case name, used by benchmark records and log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Avx2Fma => "avx2_fma",
            SimdTier::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reads the `BLURNET_FORCE_SCALAR` override; `0`, the empty string and an
/// unset variable all mean "not forced".
fn force_scalar() -> bool {
    match std::env::var("BLURNET_FORCE_SCALAR") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_supported() {
        let first = SimdTier::detect();
        assert_eq!(first, SimdTier::detect());
        assert!(first.is_supported());
    }

    #[test]
    fn scalar_is_always_supported() {
        assert!(SimdTier::Scalar.is_supported());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SimdTier::Avx2Fma.as_str(), "avx2_fma");
        assert_eq!(SimdTier::Scalar.as_str(), "scalar");
        assert_eq!(SimdTier::Scalar.to_string(), "scalar");
    }
}
