//! The RP2 alignment/transform ensemble `T_i`.
//!
//! RP2 optimizes one perturbation that survives varying viewing conditions
//! by sampling per-step transforms of the sign image. We model the
//! digital equivalent: integer translation and brightness scaling.
//! (Perspective warps of the physical capture pipeline are outside the
//! digital threat model reproduced here; see `docs/ARCHITECTURE.md`,
//! § Substitutions.)

use rand::Rng;
use serde::{Deserialize, Serialize};

/// One sampled viewing-condition transform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transform {
    /// Horizontal shift in pixels (positive = right).
    pub dx: i32,
    /// Vertical shift in pixels (positive = down).
    pub dy: i32,
    /// Brightness multiplier.
    pub brightness: f32,
}

impl Transform {
    /// The identity transform.
    fn identity() -> Self {
        Transform {
            dx: 0,
            dy: 0,
            brightness: 1.0,
        }
    }
}

/// Samples `count` transforms with shifts in `[-max_shift, max_shift]` and
/// brightness in `[1 - b, 1 + b]`. The identity transform is always the
/// first element so the canonical view is covered.
pub fn sample_transforms<R: Rng + ?Sized>(
    count: usize,
    max_shift: i32,
    brightness_jitter: f32,
    rng: &mut R,
) -> Vec<Transform> {
    let mut out = Vec::with_capacity(count.max(1));
    out.push(Transform::identity());
    for _ in 1..count.max(1) {
        out.push(Transform {
            dx: rng.gen_range(-max_shift..=max_shift),
            dy: rng.gen_range(-max_shift..=max_shift),
            brightness: 1.0 + rng.gen_range(-brightness_jitter..=brightness_jitter.max(1e-6)),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sampled_ensemble_starts_with_identity_and_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let transforms = sample_transforms(16, 3, 0.2, &mut rng);
        assert_eq!(transforms.len(), 16);
        assert_eq!(transforms[0], Transform::identity());
        for t in &transforms {
            assert!(t.dx.abs() <= 3 && t.dy.abs() <= 3);
            assert!((0.8..=1.2).contains(&t.brightness));
        }
    }
}
