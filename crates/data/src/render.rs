//! Procedural traffic-sign renderer.
//!
//! Each sample is a 32×32 (configurable) RGB image in `[0, 1]`: a noisy
//! background, a filled class-specific silhouette with a border, a glyph
//! pattern, and per-sample jitter in position, size, brightness and pixel
//! noise. The renderer is fully deterministic given an RNG, which keeps the
//! dataset reproducible across runs.

use blurnet_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::classes::{Glyph, SignClass, SignShape};
use crate::Result;

/// Per-sample jitter ranges used when rendering a sign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RenderJitter {
    /// Maximum absolute centre offset as a fraction of the image extent.
    max_offset: f32,
    /// Minimum sign radius as a fraction of the half-extent.
    min_radius: f32,
    /// Maximum sign radius as a fraction of the half-extent.
    max_radius: f32,
    /// Brightness multiplier range `[1 - b, 1 + b]`.
    brightness: f32,
    /// Standard deviation of the additive pixel noise.
    noise_std: f32,
}

impl Default for RenderJitter {
    fn default() -> Self {
        RenderJitter {
            max_offset: 0.08,
            min_radius: 0.68,
            max_radius: 0.88,
            brightness: 0.25,
            noise_std: 0.02,
        }
    }
}

/// Whether a pixel at offset (`dx`, `dy`) from the sign centre (in units of
/// the sign radius) lies inside the silhouette.
fn inside_shape(shape: SignShape, dx: f32, dy: f32) -> bool {
    match shape {
        SignShape::Circle => dx * dx + dy * dy <= 1.0,
        SignShape::Rectangle => dx.abs() <= 0.78 && dy.abs() <= 1.0,
        SignShape::Diamond => dx.abs() + dy.abs() <= 1.0,
        SignShape::Octagon => {
            // Regular octagon: |x| <= 1, |y| <= 1, |x| + |y| <= sqrt(2).
            dx.abs() <= 0.92 && dy.abs() <= 0.92 && dx.abs() + dy.abs() <= 1.30
        }
        SignShape::TriangleDown => {
            // Downward triangle with apex at the bottom.
            (-0.85..=0.85).contains(&dy) && dx.abs() <= 0.9 * (0.85 - dy) / 1.7 * 2.0
        }
    }
}

/// Whether a pixel belongs to the class glyph (in sign-relative units).
fn inside_glyph(glyph: Glyph, dx: f32, dy: f32) -> bool {
    match glyph {
        Glyph::None => false,
        Glyph::HorizontalBar => dy.abs() <= 0.16 && dx.abs() <= 0.62,
        Glyph::VerticalBar => dx.abs() <= 0.16 && dy.abs() <= 0.62,
        Glyph::DoubleBar => (dy + 0.33).abs() <= 0.12 || (dy - 0.33).abs() <= 0.12,
        Glyph::Cross => {
            (dx.abs() <= 0.14 && dy.abs() <= 0.6) || (dy.abs() <= 0.14 && dx.abs() <= 0.6)
        }
        Glyph::DiagonalDown => (dy - dx).abs() <= 0.18 && dx.abs() <= 0.65 && dy.abs() <= 0.65,
        Glyph::DiagonalUp => (dy + dx).abs() <= 0.18 && dx.abs() <= 0.65 && dy.abs() <= 0.65,
        Glyph::Dot => dx * dx + dy * dy <= 0.12,
        Glyph::ChevronRight => {
            (dy.abs() - dx).abs() <= 0.16 && (-0.4..=0.6).contains(&dx) && dy.abs() <= 0.6
        }
        Glyph::ChevronLeft => {
            (dy.abs() + dx).abs() <= 0.16 && (-0.6..=0.4).contains(&dx) && dy.abs() <= 0.6
        }
    }
}

/// Renders one sign of the given class as a `[3, size, size]` tensor with
/// values in `[0, 1]`.
///
/// # Errors
///
/// Propagates tensor construction errors (they cannot occur for `size > 0`).
pub(crate) fn render_sign<R: Rng + ?Sized>(
    class: SignClass,
    size: usize,
    jitter: RenderJitter,
    rng: &mut R,
) -> Result<Tensor> {
    let half = size as f32 / 2.0;
    // Background: a muted grey-blue road scene tone with slight variation.
    let bg_base = [
        0.35 + rng.gen_range(-0.1..0.1),
        0.38 + rng.gen_range(-0.1..0.1),
        0.42 + rng.gen_range(-0.1..0.1),
    ];
    let cx = half + rng.gen_range(-jitter.max_offset..=jitter.max_offset.max(1e-6)) * size as f32;
    let cy = half + rng.gen_range(-jitter.max_offset..=jitter.max_offset.max(1e-6)) * size as f32;
    let radius = rng.gen_range(jitter.min_radius..=jitter.max_radius) * half;
    let brightness = 1.0 + rng.gen_range(-jitter.brightness..=jitter.brightness.max(1e-6));
    let border_color = match class.shape {
        SignShape::TriangleDown | SignShape::Octagon => [0.95, 0.95, 0.95],
        _ => [0.08, 0.08, 0.08],
    };

    let mut data = vec![0.0f32; 3 * size * size];
    for y in 0..size {
        for x in 0..size {
            let dx = (x as f32 + 0.5 - cx) / radius;
            let dy = (y as f32 + 0.5 - cy) / radius;
            let mut color = bg_base;
            if inside_shape(class.shape, dx, dy) {
                // Border ring: the outer 18% of the silhouette.
                let inner = inside_shape(class.shape, dx / 0.82, dy / 0.82);
                if !inner {
                    color = border_color;
                } else if inside_glyph(class.glyph, dx, dy) {
                    color = class.glyph_color;
                } else {
                    color = class.fill;
                }
            }
            for c in 0..3 {
                let noise = if jitter.noise_std > 0.0 {
                    // Cheap uniform noise approximating the capture noise.
                    rng.gen_range(-jitter.noise_std..=jitter.noise_std) * 1.5
                } else {
                    0.0
                };
                let v = (color[c] * brightness + noise).clamp(0.0, 1.0);
                data[c * size * size + y * size + x] = v;
            }
        }
    }
    Ok(Tensor::from_vec(data, &[3, size, size])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{CLASSES, STOP_CLASS_ID};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// No jitter at all — identical canonical renders for every call.
    fn no_jitter() -> RenderJitter {
        RenderJitter {
            max_offset: 0.0,
            min_radius: 0.8,
            max_radius: 0.8,
            brightness: 0.0,
            noise_std: 0.0,
        }
    }

    #[test]
    fn renders_are_in_range_and_right_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for class in CLASSES {
            let img = render_sign(class, 32, RenderJitter::default(), &mut rng).unwrap();
            assert_eq!(img.dims(), &[3, 32, 32]);
            assert!(img.min().unwrap() >= 0.0);
            assert!(img.max().unwrap() <= 1.0);
        }
    }

    #[test]
    fn rendering_is_deterministic_per_seed() {
        let class = SignClass::from_id(STOP_CLASS_ID).unwrap();
        let a = render_sign(
            class,
            32,
            RenderJitter::default(),
            &mut ChaCha8Rng::seed_from_u64(5),
        )
        .unwrap();
        let b = render_sign(
            class,
            32,
            RenderJitter::default(),
            &mut ChaCha8Rng::seed_from_u64(5),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stop_sign_is_predominantly_red() {
        let class = SignClass::from_id(STOP_CLASS_ID).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let img = render_sign(class, 32, no_jitter(), &mut rng).unwrap();
        // Compare mean red vs mean blue in the central region.
        let mut red = 0.0;
        let mut blue = 0.0;
        for y in 12..20 {
            for x in 12..20 {
                red += img.get(&[0, y, x]).unwrap();
                blue += img.get(&[2, y, x]).unwrap();
            }
        }
        assert!(
            red > 1.5 * blue,
            "stop face should be red (r={red}, b={blue})"
        );
    }

    #[test]
    fn different_classes_render_differently() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let jitter = no_jitter();
        let stop = render_sign(SignClass::from_id(14).unwrap(), 32, jitter, &mut rng).unwrap();
        let yield_sign =
            render_sign(SignClass::from_id(17).unwrap(), 32, jitter, &mut rng).unwrap();
        let diff = stop.sub(&yield_sign).unwrap().l1_norm();
        assert!(diff > 50.0, "distinct classes must differ, diff={diff}");
    }

    #[test]
    fn jittered_renders_of_the_same_class_vary() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let class = SignClass::from_id(9).unwrap();
        let a = render_sign(class, 32, RenderJitter::default(), &mut rng).unwrap();
        let b = render_sign(class, 32, RenderJitter::default(), &mut rng).unwrap();
        assert!(a.sub(&b).unwrap().l1_norm() > 1.0);
    }
}
