//! Cache-blocked, register-tiled, rayon-parallel matrix multiplication.
//!
//! All three GEMM kernels behind [`Backend`](crate::Backend) ([`matmul`],
//! [`matmul_transpose_a`], [`matmul_transpose_b`]) — and the convolution
//! kernels — funnel into one GEMM core, dispatched through the backend's
//! pre-resolved [`SimdTier`]:
//!
//! * the k dimension is processed in panels of [`KC`] so the active slice of
//!   `b` stays cache-resident;
//! * output is computed in [`MR`]`×`[`NR`] register tiles, accumulated in
//!   fixed-size arrays the compiler keeps in SIMD registers (sized for
//!   baseline SSE2 — wider targets simply use fewer registers);
//! * row blocks of [`MC`] rows are distributed over rayon threads once the
//!   problem passes [`PAR_FLOPS`] (`RAYON_NUM_THREADS` caps the fan-out);
//! * the transpose variants materialise the transposed operand once into a
//!   [`Scratch`] buffer instead of running a strided inner loop.
//!
//! The previous implementation was a scalar ikj loop with a per-element
//! `a[i][p] == 0.0` skip; that branch pessimised the dense case (almost every
//! activation/weight matrix here is dense) and blocked vectorisation, so it
//! is gone. `tests` and `tests/proptests.rs` pin the new core to the naive
//! reference within 1e-5.

use rayon::prelude::*;

use crate::backend::SimdTier;
use crate::{Result, Scratch, Tensor, TensorError};

/// k-panel size: the active `KC × NR` slice of `b` plus `MR × KC` of `a`
/// fit in L1/L2.
const KC: usize = 256;
/// Rows per parallel work unit.
const MC: usize = 64;
/// Minimum `2·m·k·n` before the row loop fans out over rayon.
const PAR_FLOPS: usize = 1 << 20;

fn dims2(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok((t.shape().dim(0), t.shape().dim(1)))
}

/// Fused or separate multiply-add, chosen at compile time per kernel
/// instantiation. Every kernel tier instantiates with `FMA = true`:
/// `mul_add` is a single correctly-rounded operation on every lowering —
/// `vfmadd` under the AVX2+FMA target feature, `fmla` on AArch64, libm's
/// `fmaf` on baseline x86-64 — so the scalar and vectorised tiers produce
/// **bit-identical** results (the per-element accumulation order is already
/// tile-shape independent). The libm fallback makes the forced-scalar tier
/// slower on baseline x86-64, which is the accepted price for cross-tier
/// byte-identity of every artifact. `FMA = false` is kept for reference
/// kernels that must reproduce unfused seed arithmetic.
#[inline(always)]
pub(crate) fn madd<const FMA: bool>(acc: f32, a: f32, b: f32) -> f32 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Micro-kernel: accumulates an `MR × NR` register tile over one packed
/// k-panel. Both operands are packed — `a_pack` holds the current row
/// group column-interleaved (`kc × MR`), `b_tile` the current j-tile
/// (`kc × NR`) — so the inner loop runs off two streaming pointers with no
/// strided or multi-base addressing. Rows/columns past the matrix edge are
/// zero-padded in the packs; the writeback clips to `mr × nb`, so full-speed
/// tiles and ragged edges share this one kernel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<const MR: usize, const NR: usize, const FMA: bool>(
    out: &mut [f32],
    a_pack: &[f32],
    b_tile: &[f32],
    i: usize,
    mr: usize,
    j: usize,
    nb: usize,
    kc: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (a_col, b_row) in a_pack
        .chunks_exact(MR)
        .zip(b_tile.chunks_exact(NR))
        .take(kc)
    {
        // Fixed-size views let the compiler keep the tile in registers.
        let a_col: &[f32; MR] = a_col.try_into().expect("MR-sized packed column");
        let b_row: &[f32; NR] = b_row.try_into().expect("NR-sized packed row");
        for r in 0..MR {
            for c in 0..NR {
                acc[r][c] = madd::<FMA>(acc[r][c], a_col[r], b_row[c]);
            }
        }
    }
    for r in 0..mr {
        let out_row = &mut out[(i + r) * n + j..(i + r) * n + j + nb];
        for (o, &v) in out_row.iter_mut().zip(acc[r].iter()) {
            *o += v;
        }
    }
}

/// Packs the `kc × n` panel of `b` starting at row `kk` into j-tiles of
/// width `NR`: tile t holds rows `kk..kk+kc` of columns `t·NR..t·NR+NR`
/// contiguously (zero-padded to `NR` on the ragged right edge).
#[inline(always)]
fn pack_b_panel<const NR: usize>(pack: &mut [f32], b: &[f32], kk: usize, kc: usize, n: usize) {
    let tiles = n.div_ceil(NR);
    for t in 0..tiles {
        let j = t * NR;
        let nb = NR.min(n - j);
        let tile = &mut pack[t * kc * NR..(t + 1) * kc * NR];
        for (step, dst) in tile.chunks_exact_mut(NR).enumerate() {
            let src = &b[(kk + step) * n + j..(kk + step) * n + j + nb];
            dst[..nb].copy_from_slice(src);
            dst[nb..].fill(0.0);
        }
    }
}

/// Largest row-group height any kernel instantiation uses; sizes the
/// stack-allocated A pack.
const MR_MAX: usize = 8;

/// A virtual row-major `A` operand for the GEMM core.
///
/// `fill` writes row `i`'s k-segment `[kk, kk + dst.len())` into `dst`.
/// Besides the plain slice adapter ([`SliceRows`]), convolution implements
/// this over the *image itself* — the im2col patch rows are generated
/// panel-by-panel straight into the (L1-resident) pack buffers instead of
/// being materialized into an `[N·OH·OW, C·KH·KW]` matrix that is written
/// once and immediately re-read (see `conv::Im2colRows`). Generated values
/// are identical to the materialized ones and the accumulation order is
/// untouched, so results are bit-identical either way.
pub(crate) trait ARows: Sync {
    /// Writes row `i`, columns `[kk, kk + dst.len())`, into `dst`.
    fn fill(&self, i: usize, kk: usize, dst: &mut [f32]);
}

/// The ordinary materialized `A` operand.
struct SliceRows<'a> {
    a: &'a [f32],
    k: usize,
}

impl ARows for SliceRows<'_> {
    #[inline(always)]
    fn fill(&self, i: usize, kk: usize, dst: &mut [f32]) {
        let start = i * self.k + kk;
        dst.copy_from_slice(&self.a[start..start + dst.len()]);
    }
}

/// Computes `out += A · b` for one block of `m` rows (sequential), blocked
/// over packed k-panels and `MR × NR` register tiles. `i0` is the absolute
/// index of the block's first row in the virtual `A` operand.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_rows_tiled<const MR: usize, const NR: usize, const FMA: bool, S: ARows>(
    out: &mut [f32],
    a_src: &S,
    i0: usize,
    b: &[f32],
    b_pack: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let b_pack = &mut b_pack[..KC.min(k) * n.div_ceil(NR) * NR];
    let mut a_pack = [0.0f32; MR_MAX * KC];
    let mut row_buf = [0.0f32; KC];
    let mut kk = 0;
    while kk < k {
        let kc = KC.min(k - kk);
        pack_b_panel::<NR>(b_pack, b, kk, kc, n);
        let mut i = 0;
        while i < m {
            let mr = MR.min(m - i);
            // Pack the row group column-interleaved; rows past `m` stay the
            // zeros written when the group narrows.
            if mr < MR {
                a_pack[..kc * MR].fill(0.0);
            }
            for r in 0..mr {
                a_src.fill(i0 + i + r, kk, &mut row_buf[..kc]);
                for (step, &v) in row_buf[..kc].iter().enumerate() {
                    a_pack[step * MR + r] = v;
                }
            }
            let mut j = 0;
            let mut t = 0;
            while j < n {
                let nb = NR.min(n - j);
                tile::<MR, NR, FMA>(
                    out,
                    &a_pack[..kc * MR],
                    &b_pack[t * kc * NR..(t + 1) * kc * NR],
                    i,
                    mr,
                    j,
                    nb,
                    kc,
                    n,
                );
                j += NR;
                t += 1;
            }
            i += mr;
        }
        kk += kc;
    }
}

/// AVX2+FMA instantiation: 4×16 tile = 8 ymm accumulators, `mul_add`
/// contracts to `vfmadd`. The `#[target_feature]` lets LLVM vectorise this
/// body for AVX2 even though the crate is compiled for baseline x86-64;
/// callers must verify support at runtime (see [`gemm_rows`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rows_avx2<S: ARows>(
    out: &mut [f32],
    a_src: &S,
    i0: usize,
    b: &[f32],
    b_pack: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_rows_tiled::<4, 16, true, S>(out, a_src, i0, b, b_pack, m, k, n);
}

/// AVX2+FMA narrow-output instantiation for `n ≤ 8`: an 8×8 tile keeps
/// eight single-ymm accumulator rows live instead of wasting half of every
/// 16-wide tile on zero padding. Conv layers with few filters (and their
/// `g · W` input-gradient GEMMs, where `n` is the filter count) hit this
/// constantly. Per-element accumulation order (sequential over k) is
/// unchanged, so results are bit-identical to the wide kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rows_avx2_narrow<S: ARows>(
    out: &mut [f32],
    a_src: &S,
    i0: usize,
    b: &[f32],
    b_pack: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_rows_tiled::<8, 8, true, S>(out, a_src, i0, b, b_pack, m, k, n);
}

/// Dispatches one row block through the caller's pre-resolved kernel tier.
///
/// CPU-feature detection is *not* performed here: `tier` was fixed once at
/// backend construction ([`SimdTier::detect`] / `CpuBackend::with_tier`),
/// so the hot path carries no per-call feature queries. Both tiers are
/// bit-identical — see [`madd`].
///
/// (An AVX-512 32-wide variant was measured and rejected: LLVM's
/// autovectoriser keeps 256-bit preferred vector width, so the wider tile
/// spills instead of using zmm registers.)
#[allow(clippy::too_many_arguments)]
fn gemm_rows<S: ARows>(
    tier: SimdTier,
    out: &mut [f32],
    a_src: &S,
    i0: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // Per-thread pack buffer: reused across calls so the packing step costs
    // one panel copy, not an allocation + zero-fill per call. (Deliberately
    // not the shared `Scratch` pool — this runs inside rayon workers while a
    // caller may already hold the thread-local scratch borrow. Sized for the
    // widest kernel's NR so every path fits.)
    thread_local! {
        static B_PACK: std::cell::RefCell<Vec<f32>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    B_PACK.with(|cell| {
        let mut pack = cell.borrow_mut();
        let needed = KC.min(k) * n.div_ceil(16) * 16;
        if pack.len() < needed {
            pack.resize(needed, 0.0);
        }
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => {
                // SAFETY: an Avx2Fma tier is only ever constructed after
                // runtime verification that the CPU supports AVX2+FMA
                // (SimdTier::detect / CpuBackend::with_tier clamping).
                if n <= 8 {
                    unsafe { gemm_rows_avx2_narrow(out, a_src, i0, b, &mut pack, m, k, n) };
                } else {
                    unsafe { gemm_rows_avx2(out, a_src, i0, b, &mut pack, m, k, n) };
                }
            }
            // Portable scalar tier (and the only arm on non-x86 targets):
            // a 4×8 tile keeps the accumulators within the 16 SSE2
            // registers; FMA=true keeps it bit-identical to the AVX2 tier.
            _ => gemm_rows_tiled::<4, 8, true, S>(out, a_src, i0, b, &mut pack, m, k, n),
        }
    });
}

/// Dense GEMM into a caller-provided buffer: `out = a (m×k) · b (k×n)`,
/// dispatched through the pre-resolved `tier`.
///
/// `out` is overwritten (it does not need to be zeroed). Row blocks run in
/// parallel once the problem is large enough to amortise the fan-out.
pub(crate) fn gemm_into(
    tier: SimdTier,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    gemm_into_src(tier, out, &SliceRows { a, k }, b, m, k, n);
}

/// [`gemm_into`] over a virtual `A` operand: `out = A (m×k) · b (k×n)` with
/// `A` rows produced on demand by `a_src` (either a plain slice or a fused
/// im2col generator).
pub(crate) fn gemm_into_src<S: ARows>(
    tier: SimdTier,
    out: &mut [f32],
    a_src: &S,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(b.len(), k * n);
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    if flops < PAR_FLOPS || rayon::current_num_threads() <= 1 || m <= MC {
        gemm_rows(tier, out, a_src, 0, b, m, k, n);
        return;
    }
    out.par_chunks_mut(MC * n)
        .enumerate()
        .for_each(|(blk, out_block)| {
            let i0 = blk * MC;
            let rows = out_block.len() / n;
            gemm_rows(tier, out_block, a_src, i0, b, rows, k, n);
        });
}

/// Transposes `src` (`rows × cols`, row-major) into `dst` (`cols × rows`).
pub(crate) fn transpose_into(dst: &mut [f32], src: &[f32], rows: usize, cols: usize) {
    debug_assert_eq!(dst.len(), rows * cols);
    debug_assert_eq!(src.len(), rows * cols);
    // Block for cache friendliness on both sides.
    const B: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + B).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + B).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// Dense matrix product `a (m×k) · b (k×n) → (m×n)`.
///
/// This is the hot path for every dense layer in the workspace; see the
/// module docs for the blocking scheme.
pub(crate) fn matmul(tier: SimdTier, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a)?;
    let (k2, n) = dims2(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm_into(tier, &mut out, a.data(), b.data(), m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// Computes `aᵀ (k×m) · b (k×n) → (m×n)`; `aᵀ` is packed once into a
/// buffer from the thread-local scratch pool so the GEMM core runs at full
/// stride-1 speed.
pub(crate) fn matmul_transpose_a(tier: SimdTier, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = dims2(a)?;
    let (k2, n) = dims2(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    Scratch::with_thread_local(|scratch| {
        let mut at = scratch.take_dirty(m * k);
        transpose_into(&mut at, a.data(), k, m);
        gemm_into(tier, &mut out, &at, b.data(), m, k, n);
        scratch.put(at);
    });
    Tensor::from_vec(out, &[m, n])
}

/// Computes `a (m×k) · bᵀ (n×k) → (m×n)`; `bᵀ` is packed once into a
/// `scratch` buffer so the GEMM core runs at full stride-1 speed.
pub(crate) fn matmul_transpose_b(
    tier: SimdTier,
    a: &Tensor,
    b: &Tensor,
    scratch: &mut Scratch,
) -> Result<Tensor> {
    let (m, k) = dims2(a)?;
    let (n, k2) = dims2(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    let mut bt = scratch.take_dirty(k * n);
    transpose_into(&mut bt, b.data(), n, k);
    gemm_into(tier, &mut out, a.data(), &bt, m, k, n);
    scratch.put(bt);
    Tensor::from_vec(out, &[m, n])
}

/// Straightforward reference implementations kept for equivalence tests and
/// benchmark baselines. These mirror the pre-optimisation seed code (scalar
/// ikj loop with the zero-skip branch) and must never be used on hot paths.
pub(crate) mod reference {
    use super::dims2;
    use crate::{Result, Tensor, TensorError};

    /// The seed `matmul`: scalar ikj loop with a per-element zero skip.
    ///
    /// # Errors
    ///
    /// Same contract as [`Backend::matmul`](crate::Backend::matmul).
    pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k) = dims2(a)?;
        let (k2, n) = dims2(b)?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let a_data = a.data();
        let b_data = b.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a_data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b_data[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ip * b_pj;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_backend;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        default_backend().matmul(a, b)
    }

    fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        default_backend().matmul_transpose_a(a, b)
    }

    fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        default_backend().matmul_transpose_b(a, b, &mut Scratch::new())
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.get(&[i, p]).unwrap() * b.get(&[p, j]).unwrap();
                }
                out.set(&[i, j], acc).unwrap();
            }
        }
        out
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (r, c) = (t.dims()[0], t.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.set(&[j, i], t.get(&[i, j]).unwrap()).unwrap();
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matches_naive_on_random_matrices() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = Tensor::rand_uniform(&[7, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5, 9], -1.0, 1.0, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matches_naive_across_blocking_boundaries() {
        // Sizes straddling the MR/NR/KC/MC tile edges, including k > KC and
        // m > MC so the panel loop and (on multicore) the parallel split run.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (65, 300, 33),
            (130, 70, 40),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = reference::matmul_naive(&a, &b).unwrap();
            for (x, y) in fast.data().iter().zip(slow.data().iter()) {
                assert!(
                    (x - y).abs() < 1e-4 * (1.0 + y.abs()),
                    "({m},{k},{n}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn transpose_variants_match_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let a = Tensor::rand_uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[6, 3], -1.0, 1.0, &mut rng);
        let expected = matmul(&transpose(&a), &b).unwrap();
        let got = matmul_transpose_a(&a, &b).unwrap();
        for (x, y) in got.data().iter().zip(expected.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let d = Tensor::rand_uniform(&[7, 5], -1.0, 1.0, &mut rng);
        let expected = matmul(&c, &transpose(&d)).unwrap();
        let got = matmul_transpose_b(&c, &d).unwrap();
        for (x, y) in got.data().iter().zip(expected.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_rows_and_columns_stay_exact() {
        // The seed implementation skipped a == 0.0 entries; the blocked core
        // must produce identical results on sparse-ish inputs too.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut a = Tensor::rand_uniform(&[12, 20], -1.0, 1.0, &mut rng);
        for v in a.data_mut().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let b = Tensor::rand_uniform(&[20, 10], -1.0, 1.0, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = reference::matmul_naive(&a, &b).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn dimension_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            matmul(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matmul_transpose_a(&v, &b).is_err());
        assert!(matmul_transpose_b(&a, &v).is_err());
        assert!(matches!(
            matmul_transpose_a(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 2])),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        assert!(matches!(
            matmul_transpose_b(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 3])),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }
}
