//! 2-D discrete cosine transform (DCT-II) and the low-frequency projection.
//!
//! The adaptive low-frequency attack of the paper (Eq. 8, Figure 3) projects
//! the RP2 perturbation through `IDCT(M_dim · DCT(M_x · δ))`, where `M_dim`
//! zeroes all but the lowest `dim × dim` DCT coefficients.
//!
//! [`dct2d`] reads its cosines from one table built per call instead of
//! calling `cos()` per term, and sums every output term by term in the
//! order of the textbook separable transform (rows, then columns,
//! `scale · Σ v·cos`), so it is bit-identical to it.
//!
//! The projection never forms coefficients. With `C_d` the first `d` rows
//! of the orthonormal `n`-point DCT-II matrix, `IDCT(M_d · DCT(X))` equals
//! `P_h X P_w` for the symmetric rank-`d` projectors `P_n = C_dᵀ C_d`, which
//! [`low_frequency_project_planes`] applies to a block of planes as two
//! GEMMs through [`Backend::matmul`](blurnet_tensor::Backend::matmul). That
//! rounds differently from the textbook transform, so the result matches
//! it within a tolerance (`2e-5` on `[-1, 1)` data), not bit for bit;
//! [`reference::low_frequency_project_planes_naive`] keeps the textbook
//! path as the oracle.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use blurnet_tensor::{default_backend, Tensor};

use crate::{Result, SignalError};

/// Planes per projection block: the two GEMM operands and their results
/// stay at `4 · PROJECT_BLOCK_PLANES` planes however many planes a call
/// projects, and a block's `[planes·n, n] × [n, n]` GEMM stays below the
/// size at which the GEMM fans out over threads for 32×32 planes.
const PROJECT_BLOCK_PLANES: usize = 8;

fn require_2d(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(SignalError::BadShape(format!(
            "expected a rank-2 tensor, got shape {}",
            t.shape()
        )));
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// The cosines `cos(π (x + ½) k / n)` of an `n`-point DCT, stored
/// frequency-major (`by_k[k·n + x]`) and sample-major (`by_x[x·n + k]`).
struct CosTable {
    n: usize,
    by_k: Vec<f32>,
    by_x: Vec<f32>,
}

impl CosTable {
    fn new(n: usize) -> Self {
        let nf = n as f32;
        let mut by_k = Vec::with_capacity(n * n);
        for k in 0..n {
            for x in 0..n {
                let angle = std::f32::consts::PI * (x as f32 + 0.5) * k as f32 / nf;
                by_k.push(angle.cos());
            }
        }
        let mut by_x = Vec::with_capacity(n * n);
        for x in 0..n {
            by_x.extend((0..n).map(|k| by_k[k * n + x]));
        }
        CosTable { n, by_k, by_x }
    }

    /// `cos(π (x + ½) k / n)` for every sample `x`.
    fn frequency(&self, k: usize) -> &[f32] {
        &self.by_k[k * self.n..(k + 1) * self.n]
    }

    /// `cos(π (x + ½) k / n)` for every frequency `k`.
    fn sample(&self, x: usize) -> &[f32] {
        &self.by_x[x * self.n..(x + 1) * self.n]
    }

    /// The orthonormal scale: `√(1/n)` for frequency 0, `√(2/n)` otherwise.
    fn scale(&self, k: usize) -> f32 {
        let nf = self.n as f32;
        if k == 0 {
            (1.0 / nf).sqrt()
        } else {
            (2.0 / nf).sqrt()
        }
    }
}

/// `acc[i] += coef · terms[i]`: the next term of every output sum.
fn accumulate(acc: &mut [f32], coef: f32, terms: &[f32]) {
    for (a, &t) in acc.iter_mut().zip(terms) {
        *a += coef * t;
    }
}

/// Forward DCT-II of one `[h, w]` plane into `out`. `rows` holds the row
/// pass.
fn forward(plane: &[f32], th: &CosTable, tw: &CosTable, rows: &mut [f32], out: &mut [f32]) {
    // Rows: rows[y, k] = scale_k · Σ_x plane[y, x] · cos_w(k, x).
    for (row, acc) in plane.chunks_exact(tw.n).zip(rows.chunks_exact_mut(tw.n)) {
        acc.fill(0.0);
        for (x, &v) in row.iter().enumerate() {
            accumulate(acc, v, tw.sample(x));
        }
        for (k, a) in acc.iter_mut().enumerate() {
            *a *= tw.scale(k);
        }
    }
    // Columns: out[ky, kx] = scale_ky · Σ_y rows[y, kx] · cos_h(ky, y).
    for (ky, acc) in out.chunks_exact_mut(tw.n).enumerate() {
        acc.fill(0.0);
        for (&c, row) in th.frequency(ky).iter().zip(rows.chunks_exact(tw.n)) {
            accumulate(acc, c, row);
        }
        let scale = th.scale(ky);
        for a in acc.iter_mut() {
            *a *= scale;
        }
    }
}

/// Orthonormal 2-D DCT-II of an `[H, W]` tensor.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn dct2d(image: &Tensor) -> Result<Tensor> {
    let (h, w) = require_2d(image)?;
    let mut out = image.clone();
    if h * w == 0 {
        return Ok(out);
    }
    let (th, tw) = (CosTable::new(h), CosTable::new(w));
    let mut rows = vec![0.0f32; h * w];
    forward(image.data(), &th, &tw, &mut rows, out.data_mut());
    Ok(out)
}

/// The `n × n` projector `P = C_dᵀ C_d` onto the first `d` DCT-II basis
/// vectors: `P[i][j] = Σ_{k<d} s_k² cos(π(i+½)k/n) cos(π(j+½)k/n)`, summed
/// in `f64` and rounded once. Only the upper triangle is computed; the
/// lower one mirrors it, so `P` is exactly symmetric and the projection is
/// self-adjoint (the RP2 gradient relies on that). Built once per `(n, d)`
/// per process.
fn projector(n: usize, d: usize) -> Arc<Tensor> {
    type Projectors = Mutex<HashMap<(usize, usize), Arc<Tensor>>>;
    static CACHE: OnceLock<Projectors> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    // A panic while the lock was held cannot leave the map half-updated:
    // an entry is inserted whole or not at all.
    let mut cache = cache
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let p = cache.entry((n, d)).or_insert_with(|| {
        let nf = n as f64;
        let basis: Vec<f64> = (0..d)
            .flat_map(|k| {
                let scale = if k == 0 {
                    (1.0 / nf).sqrt()
                } else {
                    (2.0 / nf).sqrt()
                };
                (0..n).map(move |x| {
                    scale * (std::f64::consts::PI * (x as f64 + 0.5) * k as f64 / nf).cos()
                })
            })
            .collect();
        let mut p = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i..n {
                let v: f64 = basis.chunks_exact(n).map(|c| c[i] * c[j]).sum();
                p[i * n + j] = v as f32;
                p[j * n + i] = v as f32;
            }
        }
        Arc::new(Tensor::from_vec(p, &[n, n]).expect("n × n projector"))
    });
    Arc::clone(p)
}

/// Transposes every `[rows, cols]` plane of `src` into the matching
/// `[cols, rows]` plane of `dst`.
fn transpose_planes(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    let plane = rows * cols;
    for (s, d) in src.chunks_exact(plane).zip(dst.chunks_exact_mut(plane)) {
        for (r, row) in s.chunks_exact(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                d[c * rows + r] = v;
            }
        }
    }
}

/// Checks a projection request: `dim` in `1..=min(h, w)` and `data` a
/// whole number of `[h, w]` planes.
fn check_projection(len: usize, h: usize, w: usize, dim: usize) -> Result<()> {
    if dim == 0 || dim > h || dim > w {
        return Err(SignalError::BadParameter(format!(
            "mask dimension {dim} must lie in 1..=min({h}, {w})"
        )));
    }
    if !len.is_multiple_of(h * w) {
        return Err(SignalError::BadShape(format!(
            "{len} values do not split into [{h}, {w}] planes"
        )));
    }
    Ok(())
}

/// Projects every `[h, w]` plane of `data` in place onto its lowest
/// `dim × dim` DCT coefficients: `IDCT(M_dim · DCT(x))`, where `M_dim`
/// keeps the coefficients `(ky, kx)` with `ky, kx < dim`.
///
/// Computed as `P_h X P_w` (see the module docs): blocks of
/// `PROJECT_BLOCK_PLANES` planes run as one `[planes·h, w] × [w, w]`
/// GEMM, a per-plane transpose, one `[planes·w, h] × [h, h]` GEMM and a
/// transpose back. Each output depends only on its own plane, so a plane
/// projects to the same bits alone, in any batch and at any thread count.
/// The result matches the textbook [`dct2d`], mask and inverse-DCT path
/// within float rounding, not bit for bit: on 32×32 planes of `[-1, 1)`
/// data the largest difference is about `2e-7`, `1e-6`, `5e-6` and `1.3e-5`
/// at `dim` 4, 8, 16 and 32, and the tests accept `2e-5`.
///
/// # Errors
///
/// Returns [`SignalError::BadParameter`] unless `dim` lies in
/// `1..=min(h, w)`, and [`SignalError::BadShape`] if `data.len()` is not a
/// multiple of `h · w`.
pub fn low_frequency_project_planes(
    data: &mut [f32],
    h: usize,
    w: usize,
    dim: usize,
) -> Result<()> {
    check_projection(data.len(), h, w, dim)?;
    let (ph, pw) = (projector(h, dim), projector(w, dim));
    let backend = default_backend();
    let plane = h * w;
    for block in data.chunks_mut(PROJECT_BLOCK_PLANES * plane) {
        let planes = block.len() / plane;
        let rows = backend.matmul(&Tensor::from_vec(block.to_vec(), &[planes * h, w])?, &pw)?;
        let mut turned = Tensor::zeros(&[planes * w, h]);
        transpose_planes(rows.data(), turned.data_mut(), h, w);
        let cols = backend.matmul(&turned, &ph)?;
        transpose_planes(cols.data(), block, w, h);
    }
    Ok(())
}

/// Projects an `[H, W]` perturbation onto its lowest `dim × dim` DCT
/// coefficients: `IDCT(M_dim · DCT(x))` (one plane of
/// [`low_frequency_project_planes`]).
///
/// # Errors
///
/// Returns an error if the input is not rank 2 or `dim` is invalid.
pub fn low_frequency_project(x: &Tensor, dim: usize) -> Result<Tensor> {
    let (h, w) = require_2d(x)?;
    let mut out = x.clone();
    low_frequency_project_planes(out.data_mut(), h, w, dim)?;
    Ok(out)
}

/// The seed projection, kept as the oracle for the GEMM path.
pub(crate) mod reference {
    use super::{accumulate, check_projection, forward, CosTable};
    use crate::Result;

    /// Inverse of [`forward`]: the `[h, w]` plane of a coefficient grid, into
    /// `out`. `rows` holds the row pass.
    fn inverse(coeffs: &[f32], th: &CosTable, tw: &CosTable, rows: &mut [f32], out: &mut [f32]) {
        // Rows: rows[ky, x] = c[ky, 0]·√(1/w) + Σ_k c[ky, k]·√(2/w)·cos_w(k, x).
        for (ky, (c, acc)) in coeffs
            .chunks_exact(tw.n)
            .zip(rows.chunks_exact_mut(tw.n))
            .enumerate()
        {
            acc.fill(c[0] * tw.scale(0));
            for (k, &v) in c.iter().enumerate().skip(1) {
                accumulate(acc, v * tw.scale(k), tw.frequency(k));
            }
            // The column pass multiplies every term by its scale first.
            let scale = th.scale(ky);
            for a in acc.iter_mut() {
                *a *= scale;
            }
        }
        // Columns: out[y, x] = rows[0, x]·√(1/h) + Σ_ky rows[ky, x]·√(2/h)·cos_h(ky, y).
        for (y, acc) in out.chunks_exact_mut(tw.n).enumerate() {
            acc.copy_from_slice(&rows[..tw.n]);
            for (&c, row) in th.sample(y).iter().zip(rows.chunks_exact(tw.n)).skip(1) {
                accumulate(acc, c, row);
            }
        }
    }

    /// The textbook `IDCT(M_dim · DCT(x))` of every `[h, w]` plane: the
    /// forward transform of [`dct2d`](crate::dct2d), every coefficient
    /// multiplied by its mask entry, and the inverse transform
    /// (`v₀·√(1/n) + Σ v·√(2/n)·cos`), each summed term by term in the
    /// order of the separable textbook transform with cosines from one
    /// table. It is bit-identical to the transform with `cos()` in the
    /// inner loop, and pins
    /// [`low_frequency_project_planes`](crate::low_frequency_project_planes)
    /// within a tolerance.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`low_frequency_project_planes`](crate::low_frequency_project_planes).
    pub fn low_frequency_project_planes_naive(
        data: &mut [f32],
        h: usize,
        w: usize,
        dim: usize,
    ) -> Result<()> {
        check_projection(data.len(), h, w, dim)?;
        let (th, tw) = (CosTable::new(h), CosTable::new(w));
        let mut rows = vec![0.0f32; h * w];
        let mut coeffs = vec![0.0f32; h * w];
        for plane in data.chunks_exact_mut(h * w) {
            forward(plane, &th, &tw, &mut rows, &mut coeffs);
            for (ky, row) in coeffs.chunks_exact_mut(w).enumerate() {
                for (kx, c) in row.iter_mut().enumerate() {
                    *c *= if ky < dim && kx < dim { 1.0 } else { 0.0 };
                }
            }
            inverse(&coeffs, &th, &tw, &mut rows, plane);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Largest `|fast − textbook|` accepted on planes of values in
    /// `[-1, 1)`.
    const PROJECTION_TOLERANCE: f32 = 2e-5;

    /// The textbook 1-D transform with `cos()` in the inner loop: the
    /// reference `dct2d` and the seed projection match bit for bit.
    fn dct1d(input: &[f32], inverse: bool) -> Vec<f32> {
        let n = input.len();
        let nf = n as f32;
        let mut out = vec![0.0f32; n];
        if inverse {
            // DCT-III (the inverse of the orthonormal DCT-II).
            for (x, o) in out.iter_mut().enumerate() {
                let mut acc = input[0] * (1.0 / nf).sqrt();
                for (k, &v) in input.iter().enumerate().skip(1) {
                    let angle = std::f32::consts::PI * (x as f32 + 0.5) * k as f32 / nf;
                    acc += v * (2.0 / nf).sqrt() * angle.cos();
                }
                *o = acc;
            }
        } else {
            // Orthonormal DCT-II.
            for (k, o) in out.iter_mut().enumerate() {
                let scale = if k == 0 {
                    (1.0 / nf).sqrt()
                } else {
                    (2.0 / nf).sqrt()
                };
                let mut acc = 0.0;
                for (x, &v) in input.iter().enumerate() {
                    let angle = std::f32::consts::PI * (x as f32 + 0.5) * k as f32 / nf;
                    acc += v * angle.cos();
                }
                *o = scale * acc;
            }
        }
        out
    }

    /// The textbook separable 2-D transform: rows, then columns.
    fn naive_transform2d(image: &Tensor, inverse: bool) -> Tensor {
        let (h, w) = (image.dims()[0], image.dims()[1]);
        let mut grid = image.data().to_vec();
        for y in 0..h {
            let row = dct1d(&grid[y * w..(y + 1) * w], inverse);
            grid[y * w..(y + 1) * w].copy_from_slice(&row);
        }
        let mut col = vec![0.0f32; h];
        for x in 0..w {
            for y in 0..h {
                col[y] = grid[y * w + x];
            }
            let out = dct1d(&col, inverse);
            for y in 0..h {
                grid[y * w + x] = out[y];
            }
        }
        Tensor::from_vec(grid, &[h, w]).unwrap()
    }

    /// The DCT-domain mask `M_dim`: ones on the lowest `dim × dim`
    /// coefficients of an `h × w` grid, zeros elsewhere.
    fn low_frequency_mask(h: usize, w: usize, dim: usize) -> Result<Tensor> {
        if dim == 0 || dim > h || dim > w {
            return Err(SignalError::BadParameter(format!(
                "mask dimension {dim} must lie in 1..=min({h}, {w})"
            )));
        }
        let mut mask = Tensor::zeros(&[h, w]);
        for y in 0..dim {
            for x in 0..dim {
                mask.set(&[y, x], 1.0)?;
            }
        }
        Ok(mask)
    }

    /// `IDCT(M_dim · DCT(x))` through the textbook transforms.
    fn naive_project(x: &Tensor, dim: usize) -> Tensor {
        let (h, w) = (x.dims()[0], x.dims()[1]);
        let coeffs = naive_transform2d(x, false);
        let mask = low_frequency_mask(h, w, dim).unwrap();
        naive_transform2d(&coeffs.mul(&mask).unwrap(), true)
    }

    /// `planes` random `[h, w]` planes in `[-1, 1)`, with about one value
    /// in eight an exact `+0.0` or `-0.0`.
    fn random_planes(seed: u64, planes: usize, h: usize, w: usize) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..planes * h * w)
            .map(|_| match rng.gen_range(0u32..16) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    fn plane(data: &[f32], h: usize, w: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[h, w]).unwrap()
    }

    fn assert_bits(
        actual: &[f32],
        expected: &[f32],
        what: &str,
    ) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(actual.len(), expected.len(), "{} length", what);
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "{}: {} != naive {} at {}",
                what,
                a,
                e,
                i
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The GEMM projection equals the textbook `IDCT(M_dim · DCT(x))`
        /// within `PROJECTION_TOLERANCE`, plane by plane, on any plane
        /// shape and mask size.
        #[test]
        fn projection_matches_textbook_within_tolerance(
            h in 1usize..34,
            w in 1usize..34,
            dim_pick in 0usize..1024,
            planes in 1usize..20,
            seed in 0u64..1_000_000,
        ) {
            let dim = 1 + dim_pick % h.min(w);
            let data = random_planes(seed, planes, h, w);
            let mut fast = data.clone();
            low_frequency_project_planes(&mut fast, h, w, dim).unwrap();
            for (p, (input, out)) in data.chunks(h * w).zip(fast.chunks(h * w)).enumerate() {
                let naive = naive_project(&plane(input, h, w), dim);
                for (i, (a, e)) in out.iter().zip(naive.data()).enumerate() {
                    prop_assert!(
                        (a - e).abs() <= PROJECTION_TOLERANCE,
                        "plane {} of {}x{} at dim {}: {} vs textbook {} at {}", p, h, w, dim, a, e, i
                    );
                }
            }
        }

        /// The seed projection (the oracle kept in `reference`) equals the
        /// textbook transform with `cos()` in the inner loop bit for bit.
        #[test]
        fn seed_projection_matches_textbook_bitwise(
            h in 1usize..34,
            w in 1usize..34,
            dim_pick in 0usize..1024,
            seed in 0u64..1_000_000,
        ) {
            let dim = 1 + dim_pick % h.min(w);
            let mut data = random_planes(seed, 1, h, w);
            let naive = naive_project(&plane(&data, h, w), dim);
            reference::low_frequency_project_planes_naive(&mut data, h, w, dim).unwrap();
            assert_bits(&data, naive.data(), &format!("{h}x{w} at dim {dim}"))?;
        }

        /// `⟨Px, y⟩ = ⟨x, Py⟩` within float rounding: the projection is
        /// self-adjoint, which lets RP2 project its gradient with it.
        #[test]
        fn projection_is_self_adjoint_within_tolerance(
            h in 1usize..34,
            w in 1usize..34,
            dim_pick in 0usize..1024,
            seed in 0u64..1_000_000,
        ) {
            let dim = 1 + dim_pick % h.min(w);
            let (x, y) = (random_planes(seed, 1, h, w), random_planes(seed ^ 1, 1, h, w));
            let (mut px, mut py) = (x.clone(), y.clone());
            low_frequency_project_planes(&mut px, h, w, dim).unwrap();
            low_frequency_project_planes(&mut py, h, w, dim).unwrap();
            let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(a, b)| f64::from(a * b)).sum::<f64>();
            let (lhs, rhs) = (dot(&px, &y), dot(&x, &py));
            prop_assert!((lhs - rhs).abs() <= 1e-4, "{}x{} dim {}: {} vs {}", h, w, dim, lhs, rhs);
        }

        /// `dct2d` equals the textbook transform bit for bit.
        #[test]
        fn transforms_match_naive_bitwise(h in 1usize..34, w in 1usize..34, seed in 0u64..1_000_000) {
            let x = plane(&random_planes(seed, 1, h, w), h, w);
            assert_bits(dct2d(&x).unwrap().data(), naive_transform2d(&x, false).data(), "dct2d")?;
        }

        /// Projecting twice equals projecting once (`P² = P`) within 1e-5.
        #[test]
        fn projection_is_idempotent_within_tolerance(
            h in 1usize..34,
            w in 1usize..34,
            dim_pick in 0usize..1024,
            seed in 0u64..1_000_000,
        ) {
            let dim = 1 + dim_pick % h.min(w);
            let mut once = random_planes(seed, 2, h, w);
            low_frequency_project_planes(&mut once, h, w, dim).unwrap();
            let mut twice = once.clone();
            low_frequency_project_planes(&mut twice, h, w, dim).unwrap();
            for (a, b) in once.iter().zip(&twice) {
                prop_assert!((a - b).abs() <= 1e-5, "{} vs {} at {}x{} dim {}", a, b, h, w, dim);
            }
        }
    }

    /// Subnormal inputs underflow products to signed zeros, so whole output
    /// sums of the seed projection end at `±0.0`. Their sign depends on
    /// every term, the masked coefficients' `c · 0.0` included, so the
    /// mask must multiply them rather than overwrite them with `+0.0`.
    #[test]
    fn signed_zero_sums_match_naive_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for case in 0..2000 {
            let (h, w) = (rng.gen_range(2usize..10), rng.gen_range(2usize..10));
            let dim = rng.gen_range(1..h.min(w));
            let mut data: Vec<f32> = (0..h * w)
                .map(|_| {
                    let tiny = f32::from_bits(rng.gen_range(1u32..64));
                    match rng.gen_range(0u32..6) {
                        0 => tiny,
                        1 => -tiny,
                        2 => -0.0,
                        _ => 0.0,
                    }
                })
                .collect();
            let expected = naive_project(&plane(&data, h, w), dim);
            reference::low_frequency_project_planes_naive(&mut data, h, w, dim).unwrap();
            for (i, (a, e)) in data.iter().zip(expected.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    e.to_bits(),
                    "case {case}, {h}x{w} dim {dim}: {a} != naive {e} at {i}"
                );
            }
        }
    }

    /// `P` mirrors its upper triangle, so it is symmetric bit for bit.
    #[test]
    fn projector_is_exactly_symmetric() {
        for n in 1..=33 {
            for d in 1..=n {
                let p = projector(n, d);
                for i in 0..n {
                    for j in 0..i {
                        assert_eq!(p.data()[i * n + j].to_bits(), p.data()[j * n + i].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn projection_rejects_bad_dim_and_ragged_data() {
        let mut data = vec![0.5f32; 2 * 4 * 6];
        for dim in [0, 5, 7] {
            assert!(matches!(
                low_frequency_project_planes(&mut data, 4, 6, dim),
                Err(SignalError::BadParameter(_))
            ));
        }
        assert!(matches!(
            low_frequency_project_planes(&mut data[..47], 4, 6, 2),
            Err(SignalError::BadShape(_))
        ));
        assert!(matches!(
            low_frequency_project(&Tensor::zeros(&[2, 4, 6]), 2),
            Err(SignalError::BadShape(_))
        ));
        assert!(data.iter().all(|&v| v == 0.5));
    }

    /// Keeping every coefficient makes the projection an identity: the
    /// inverse transform undoes the forward one.
    #[test]
    fn dct_idct_roundtrip() {
        let img: Vec<f32> = (0..64).map(|v| ((v * 31) % 17) as f32 * 0.1).collect();
        let mut back = img.clone();
        low_frequency_project_planes(&mut back, 8, 8, 8).unwrap();
        for (a, b) in back.iter().zip(&img) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn dct_is_orthonormal_energy_preserving() {
        let img =
            Tensor::from_vec((0..36).map(|v| (v as f32 * 0.7).sin()).collect(), &[6, 6]).unwrap();
        let coeffs = dct2d(&img).unwrap();
        let e_spatial: f32 = img.data().iter().map(|v| v * v).sum();
        let e_freq: f32 = coeffs.data().iter().map(|v| v * v).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial < 1e-3);
    }

    #[test]
    fn constant_image_has_only_dc_coefficient() {
        let img = Tensor::full(&[8, 8], 3.0);
        let coeffs = dct2d(&img).unwrap();
        assert!(coeffs.get(&[0, 0]).unwrap().abs() > 1.0);
        for y in 0..8 {
            for x in 0..8 {
                if y != 0 || x != 0 {
                    assert!(coeffs.get(&[y, x]).unwrap().abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn low_frequency_mask_counts() {
        let m = low_frequency_mask(16, 16, 4).unwrap();
        assert_eq!(m.sum(), 16.0);
        assert!(low_frequency_mask(16, 16, 0).is_err());
        assert!(low_frequency_mask(16, 16, 17).is_err());
    }

    #[test]
    fn projection_removes_high_frequency_content() {
        // A checkerboard is almost entirely high-frequency: a dim-2 projection
        // should remove nearly all its energy.
        let n = 16;
        let mut img = Tensor::zeros(&[n, n]);
        for y in 0..n {
            for x in 0..n {
                img.set(&[y, x], if (x + y) % 2 == 0 { 1.0 } else { -1.0 })
                    .unwrap();
            }
        }
        let projected = low_frequency_project(&img, 2).unwrap();
        assert!(projected.l2_norm() < 0.05 * img.l2_norm());
        // A smooth ramp is mostly low-frequency: the same projection keeps
        // most of its energy.
        let mut ramp = Tensor::zeros(&[n, n]);
        for y in 0..n {
            for x in 0..n {
                ramp.set(&[y, x], x as f32 / n as f32).unwrap();
            }
        }
        let projected = low_frequency_project(&ramp, 4).unwrap();
        assert!(projected.l2_norm() > 0.9 * ramp.l2_norm());
    }

    #[test]
    fn projection_is_idempotent() {
        let img =
            Tensor::from_vec((0..64).map(|v| (v as f32 * 0.37).cos()).collect(), &[8, 8]).unwrap();
        let once = low_frequency_project(&img, 3).unwrap();
        let twice = low_frequency_project(&once, 3).unwrap();
        for (a, b) in once.data().iter().zip(twice.data().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
