//! Frequency-band energy summaries of images and feature maps.
//!
//! The paper's motivation (Figures 1, 2 and 4) rests on *where* in the
//! spectrum the RP2 perturbation injects energy. These helpers reduce a
//! shifted 2-D spectrum to low/high-band energies so the figure benches and
//! tests can make that comparison quantitative.

use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::fft::{fft2d_magnitude, fftshift2d};
use crate::{Result, SignalError};

/// Energy split of a 2-D spectrum into a low-frequency disc and the
/// remaining high-frequency band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct BandEnergy {
    /// Energy (squared magnitude) within the low-frequency disc.
    low: f32,
    /// Energy outside the disc.
    high: f32,
}

impl BandEnergy {
    /// Total spectral energy.
    fn total(&self) -> f32 {
        self.low + self.high
    }

    /// Fraction of the energy in the high band (0 when the map is empty).
    fn high_fraction(&self) -> f32 {
        let total = self.total();
        if total > 0.0 {
            self.high / total
        } else {
            0.0
        }
    }
}

/// Computes the low/high band energy of an `[H, W]` spatial map.
///
/// `low_radius_fraction` is the radius of the low-frequency disc as a
/// fraction of the Nyquist radius (0.5 keeps the inner half of the
/// spectrum).
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] for non-rank-2 inputs and
/// [`SignalError::BadParameter`] for a radius fraction outside `(0, 1]`.
fn band_energy(map: &Tensor, low_radius_fraction: f32) -> Result<BandEnergy> {
    if !(0.0..=1.0).contains(&low_radius_fraction) || low_radius_fraction == 0.0 {
        return Err(SignalError::BadParameter(format!(
            "low_radius_fraction must lie in (0, 1], got {low_radius_fraction}"
        )));
    }
    let mag = fft2d_magnitude(map)?;
    let shifted = fftshift2d(&mag)?;
    let (h, w) = (shifted.dims()[0], shifted.dims()[1]);
    let (cy, cx) = (h as f32 / 2.0, w as f32 / 2.0);
    let max_radius = cy.min(cx);
    let cutoff = low_radius_fraction * max_radius;
    let mut low = 0.0;
    let mut high = 0.0;
    for y in 0..h {
        for x in 0..w {
            let dy = y as f32 - cy;
            let dx = x as f32 - cx;
            let r = (dy * dy + dx * dx).sqrt();
            let e = shifted.get(&[y, x])?.powi(2);
            if r <= cutoff {
                low += e;
            } else {
                high += e;
            }
        }
    }
    Ok(BandEnergy { low, high })
}

/// Fraction of spectral energy above the given low-frequency radius.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] for non-rank-2 inputs and
/// [`SignalError::BadParameter`] for a radius fraction outside `(0, 1]`.
pub fn high_frequency_ratio(map: &Tensor, low_radius_fraction: f32) -> Result<f32> {
    Ok(band_energy(map, low_radius_fraction)?.high_fraction())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_map_is_all_low_frequency() {
        let map = Tensor::full(&[16, 16], 1.0);
        let e = band_energy(&map, 0.5).unwrap();
        assert!(e.high < 1e-3);
        assert!(e.low > 1.0);
        assert!(e.high_fraction() < 1e-4);
    }

    #[test]
    fn checkerboard_is_mostly_high_frequency() {
        let n = 16;
        let mut map = Tensor::zeros(&[n, n]);
        for y in 0..n {
            for x in 0..n {
                map.set(&[y, x], if (x + y) % 2 == 0 { 1.0 } else { -1.0 })
                    .unwrap();
            }
        }
        assert!(high_frequency_ratio(&map, 0.5).unwrap() > 0.9);
    }

    #[test]
    fn spike_raises_high_frequency_ratio() {
        // The paper's core observation: adding a localized spike to a smooth
        // map increases its high-frequency energy share.
        let n = 16;
        let mut smooth = Tensor::zeros(&[n, n]);
        for y in 0..n {
            for x in 0..n {
                smooth.set(&[y, x], (x as f32 / n as f32) * 0.5).unwrap();
            }
        }
        let base = high_frequency_ratio(&smooth, 0.5).unwrap();
        let mut spiked = smooth.clone();
        spiked.set(&[8, 8], 4.0).unwrap();
        spiked.set(&[8, 9], 4.0).unwrap();
        let after = high_frequency_ratio(&spiked, 0.5).unwrap();
        assert!(after > base, "{after} should exceed {base}");
    }

    #[test]
    fn parameter_validation() {
        let map = Tensor::zeros(&[8, 8]);
        assert!(band_energy(&map, 0.0).is_err());
        assert!(band_energy(&map, 1.5).is_err());
        assert!(band_energy(&Tensor::zeros(&[8]), 0.5).is_err());
    }

    #[test]
    fn zero_map_has_zero_fraction() {
        let map = Tensor::zeros(&[8, 8]);
        let e = band_energy(&map, 0.5).unwrap();
        assert_eq!(e.total(), 0.0);
        assert_eq!(e.high_fraction(), 0.0);
    }
}
