//! 1-D and 2-D forward discrete Fourier transforms.
//!
//! Power-of-two lengths use an iterative radix-2 Cooley–Tukey FFT; other
//! lengths fall back to a direct DFT, which is fine for the ≤64-pixel
//! feature maps this workspace analyses.

use blurnet_tensor::Tensor;

use crate::complex::Complex32;
use crate::{Result, SignalError};

fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place radix-2 FFT for power-of-two lengths.
fn fft_radix2(buf: &mut [Complex32]) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f32::consts::PI / len as f32;
        let wlen = Complex32::from_angle(angle);
        let mut i = 0;
        while i < n {
            let mut w = Complex32::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2] * w;
                buf[i + k] = u + v;
                buf[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Direct O(n²) DFT for arbitrary lengths.
fn dft_direct(buf: &[Complex32]) -> Vec<Complex32> {
    let n = buf.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex32::default();
            for (t, &x) in buf.iter().enumerate() {
                let angle = -2.0 * std::f32::consts::PI * (k * t) as f32 / n as f32;
                acc = acc + x * Complex32::from_angle(angle);
            }
            acc
        })
        .collect()
}

/// 1-D FFT of a complex buffer (not normalized).
fn fft1d(buf: &[Complex32]) -> Vec<Complex32> {
    if is_power_of_two(buf.len()) {
        let mut v = buf.to_vec();
        fft_radix2(&mut v);
        v
    } else {
        dft_direct(buf)
    }
}

fn require_2d(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(SignalError::BadShape(format!(
            "expected a rank-2 tensor, got shape {}",
            t.shape()
        )));
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// 2-D FFT of a real `[H, W]` tensor. Returns row-major complex coefficients.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
fn fft2d(image: &Tensor) -> Result<Vec<Complex32>> {
    let (h, w) = require_2d(image)?;
    let mut grid: Vec<Complex32> = image
        .data()
        .iter()
        .map(|&v| Complex32::new(v, 0.0))
        .collect();
    // Rows.
    for y in 0..h {
        let row = fft1d(&grid[y * w..(y + 1) * w]);
        grid[y * w..(y + 1) * w].copy_from_slice(&row);
    }
    // Columns.
    let mut col = vec![Complex32::default(); h];
    for x in 0..w {
        for y in 0..h {
            col[y] = grid[y * w + x];
        }
        let out = fft1d(&col);
        for y in 0..h {
            grid[y * w + x] = out[y];
        }
    }
    Ok(grid)
}

/// Magnitude of the 2-D FFT of a real `[H, W]` tensor.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn fft2d_magnitude(image: &Tensor) -> Result<Tensor> {
    let (h, w) = require_2d(image)?;
    let coeffs = fft2d(image)?;
    Ok(Tensor::from_vec(
        coeffs.iter().map(|z| z.abs()).collect(),
        &[h, w],
    )?)
}

/// Swaps quadrants so the zero-frequency component sits at the centre,
/// matching the presentation of Figures 1, 2 and 4 in the paper.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub(crate) fn fftshift2d(spectrum: &Tensor) -> Result<Tensor> {
    let (h, w) = require_2d(spectrum)?;
    let mut out = Tensor::zeros(&[h, w]);
    let (sh, sw) = (h / 2, w / 2);
    for y in 0..h {
        for x in 0..w {
            let ny = (y + sh) % h;
            let nx = (x + sw) % w;
            let v = spectrum.get(&[y, x])?;
            out.set(&[ny, nx], v)?;
        }
    }
    Ok(out)
}

/// The paper's spectrum presentation: `log(1 + |FFT|)`, shifted so low
/// frequencies are central, then normalized to `[0, 1]`.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn log_magnitude_spectrum(image: &Tensor) -> Result<Tensor> {
    let mag = fft2d_magnitude(image)?;
    let logged = mag.map(|v| (1.0 + v).ln());
    let shifted = fftshift2d(&logged)?;
    let max = shifted.max().unwrap_or(0.0);
    if max > 0.0 {
        Ok(shifted.scale(1.0 / max))
    } else {
        Ok(shifted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_constant_is_impulse_at_dc() {
        let img = Tensor::full(&[8, 8], 2.0);
        let coeffs = fft2d(&img).unwrap();
        assert!((coeffs[0].abs() - 2.0 * 64.0).abs() < 1e-3);
        for z in &coeffs[1..] {
            assert!(z.abs() < 1e-3);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let img = Tensor::from_vec(
            (0..256).map(|v| ((v * 7919) % 13) as f32 - 6.0).collect(),
            &[16, 16],
        )
        .unwrap();
        let coeffs = fft2d(&img).unwrap();
        let spatial_energy: f32 = img.data().iter().map(|v| v * v).sum();
        let freq_energy: f32 = coeffs.iter().map(|z| z.abs() * z.abs()).sum::<f32>() / 256.0;
        assert!((spatial_energy - freq_energy).abs() / spatial_energy < 1e-3);
    }

    #[test]
    fn fftshift_moves_dc_to_centre() {
        let img = Tensor::ones(&[8, 8]);
        let mag = fft2d_magnitude(&img).unwrap();
        // DC is at (0,0) before the shift ...
        assert!(mag.get(&[0, 0]).unwrap() > 1.0);
        let shifted = fftshift2d(&mag).unwrap();
        // ... and at (4,4) after.
        assert!(shifted.get(&[4, 4]).unwrap() > 1.0);
        assert!(shifted.get(&[0, 0]).unwrap() < 1e-3);
    }

    #[test]
    fn log_spectrum_is_normalized() {
        let img = Tensor::from_vec((0..64).map(|v| v as f32).collect(), &[8, 8]).unwrap();
        let s = log_magnitude_spectrum(&img).unwrap();
        assert!(s.max().unwrap() <= 1.0 + 1e-6);
        assert!(s.min().unwrap() >= 0.0);
    }

    #[test]
    fn single_tone_appears_at_expected_bin() {
        // A horizontal cosine of frequency 2 cycles across 16 samples shows up
        // in bins (0, 2) and (0, 14).
        let n = 16;
        let mut img = Tensor::zeros(&[n, n]);
        for y in 0..n {
            for x in 0..n {
                let v = (2.0 * std::f32::consts::PI * 2.0 * x as f32 / n as f32).cos();
                img.set(&[y, x], v).unwrap();
            }
        }
        let mag = fft2d_magnitude(&img).unwrap();
        let peak = mag.get(&[0, 2]).unwrap();
        let mirror = mag.get(&[0, 14]).unwrap();
        assert!(peak > 100.0 && mirror > 100.0);
        assert!(mag.get(&[0, 5]).unwrap() < 1.0);
    }

    #[test]
    fn rejects_non_2d_input() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert!(fft2d(&t).is_err());
        assert!(fftshift2d(&t).is_err());
    }
}
