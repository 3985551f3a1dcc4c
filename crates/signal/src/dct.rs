//! 2-D discrete cosine transform (DCT-II) and its inverse.
//!
//! The adaptive low-frequency attack of the paper (Eq. 8, Figure 3) projects
//! the RP2 perturbation through `IDCT(M_dim · DCT(M_x · δ))`, where `M_dim`
//! zeroes all but the lowest `dim × dim` DCT coefficients.
//!
//! Every transform reads its cosines from one table built per call instead
//! of calling `cos()` per term. Each output is still summed term by term in
//! the order of the textbook separable transform (rows, then columns;
//! forward `scale · Σ v·cos`, inverse `v₀·√(1/n) + Σ v·√(2/n)·cos`), so the
//! results are bit-identical to it.

use blurnet_tensor::Tensor;

use crate::{Result, SignalError};

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

/// The full forward (`inverse_transform == false`) or inverse transform of an
/// `[H, W]` tensor.
fn transform2d(image: &Tensor, inverse_transform: bool) -> Result<Tensor> {
    let (h, w) = require_2d(image)?;
    let mut out = image.clone();
    if h * w == 0 {
        return Ok(out);
    }
    let (th, tw) = (CosTable::new(h), CosTable::new(w));
    let mut rows = vec![0.0f32; h * w];
    if inverse_transform {
        inverse(image.data(), &th, &tw, &mut rows, out.data_mut());
    } else {
        forward(image.data(), &th, &tw, &mut rows, out.data_mut());
    }
    Ok(out)
}

/// Orthonormal 2-D DCT-II of an `[H, W]` tensor.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn dct2d(image: &Tensor) -> Result<Tensor> {
    transform2d(image, false)
}

/// Inverse of [`dct2d`].
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn idct2d(coeffs: &Tensor) -> Result<Tensor> {
    transform2d(coeffs, true)
}

/// Projects every `[h, w]` plane of `data` in place onto its lowest
/// `dim × dim` DCT coefficients: `IDCT(M_dim · DCT(x))`, where `M_dim`
/// keeps the coefficients `(ky, kx)` with `ky, kx < dim`.
///
/// One pair of cosine tables serves every plane. The result is
/// bit-identical to [`dct2d`], the mask product and [`idct2d`]: every
/// coefficient is formed and multiplied by its mask entry, so a dropped one
/// still enters the inverse sums as the same signed zero.
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
    if dim == 0 || dim > h || dim > w {
        return Err(SignalError::BadParameter(format!(
            "mask dimension {dim} must lie in 1..=min({h}, {w})"
        )));
    }
    if !data.len().is_multiple_of(h * w) {
        return Err(SignalError::BadShape(format!(
            "{} values do not split into [{h}, {w}] planes",
            data.len()
        )));
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The textbook 1-D transform with `cos()` in the inner loop: the
    /// reference every fast path must match bit for bit.
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

        /// The table-based projection equals the textbook
        /// `IDCT(M_dim · DCT(x))` bit for bit, plane by plane.
        #[test]
        fn projection_matches_naive_bitwise(
            h in 1usize..34,
            w in 1usize..34,
            dim_pick in 0usize..1024,
            planes in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let dim = 1 + dim_pick % h.min(w);
            let data = random_planes(seed, planes, h, w);
            let mut fast = data.clone();
            low_frequency_project_planes(&mut fast, h, w, dim).unwrap();
            for (p, (input, out)) in data.chunks(h * w).zip(fast.chunks(h * w)).enumerate() {
                let naive = naive_project(&plane(input, h, w), dim);
                assert_bits(out, naive.data(), &format!("plane {p} of {h}x{w} at dim {dim}"))?;
            }
        }

        /// `dct2d` and `idct2d` equal the textbook transforms bit for bit.
        #[test]
        fn transforms_match_naive_bitwise(h in 1usize..34, w in 1usize..34, seed in 0u64..1_000_000) {
            let x = plane(&random_planes(seed, 1, h, w), h, w);
            let coeffs = dct2d(&x).unwrap();
            assert_bits(coeffs.data(), naive_transform2d(&x, false).data(), "dct2d")?;
            assert_bits(idct2d(&x).unwrap().data(), naive_transform2d(&x, true).data(), "idct2d")?;
            assert_bits(idct2d(&coeffs).unwrap().data(), naive_transform2d(&coeffs, true).data(), "roundtrip")?;
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
    /// sums end at `±0.0`. Their sign depends on every term, the masked
    /// coefficients' `c · 0.0` included, so the mask must multiply them
    /// rather than overwrite them with `+0.0`.
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
            low_frequency_project_planes(&mut data, h, w, dim).unwrap();
            for (i, (a, e)) in data.iter().zip(expected.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    e.to_bits(),
                    "case {case}, {h}x{w} dim {dim}: {a} != naive {e} at {i}"
                );
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

    #[test]
    fn dct_idct_roundtrip() {
        let img = Tensor::from_vec(
            (0..64).map(|v| ((v * 31) % 17) as f32 * 0.1).collect(),
            &[8, 8],
        )
        .unwrap();
        let coeffs = dct2d(&img).unwrap();
        let back = idct2d(&coeffs).unwrap();
        for (a, b) in back.data().iter().zip(img.data().iter()) {
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
