use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Tensor;

/// Weight initialization schemes used by the network layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Initializer {
    /// Kaiming/He uniform, appropriate before ReLU activations.
    KaimingUniform,
    /// Xavier/Glorot uniform, appropriate for linear outputs.
    XavierUniform,
    /// All zeros (used for biases).
    Zeros,
}

impl Initializer {
    /// Materializes a tensor of the given shape.
    ///
    /// `fan_in` and `fan_out` are the effective fan values of the layer the
    /// weights belong to (for convolutions they include the kernel area).
    pub fn init<R: Rng + ?Sized>(
        self,
        dims: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut R,
    ) -> Tensor {
        match self {
            Initializer::KaimingUniform => kaiming_uniform(dims, fan_in, rng),
            Initializer::XavierUniform => xavier_uniform(dims, fan_in, fan_out, rng),
            Initializer::Zeros => Tensor::zeros(dims),
        }
    }
}

/// Kaiming/He uniform initialization: `U(-b, b)` with `b = sqrt(6 / fan_in)`.
fn kaiming_uniform<R: Rng + ?Sized>(dims: &[usize], fan_in: usize, rng: &mut R) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    Tensor::rand_uniform(dims, -bound, bound, rng)
}

/// Xavier/Glorot uniform initialization:
/// `U(-b, b)` with `b = sqrt(6 / (fan_in + fan_out))`.
fn xavier_uniform<R: Rng + ?Sized>(
    dims: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut R,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    Tensor::rand_uniform(dims, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn kaiming_respects_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = kaiming_uniform(&[64, 64], 64, &mut rng);
        let bound = (6.0f32 / 64.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
        // Values should not all be tiny: spread should be a fair share of the bound.
        assert!(t.linf_norm() > bound * 0.5);
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let t = xavier_uniform(&[32, 16], 16, 32, &mut rng);
        let bound = (6.0f32 / 48.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn zeros_initializer() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = Initializer::Zeros.init(&[4, 4], 4, 4, &mut rng);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn initializer_enum_dispatch() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let k = Initializer::KaimingUniform.init(&[8, 8], 8, 8, &mut rng);
        let x = Initializer::XavierUniform.init(&[8, 8], 8, 8, &mut rng);
        assert_eq!(k.dims(), &[8, 8]);
        assert_eq!(x.dims(), &[8, 8]);
        assert_ne!(k, x);
    }
}
