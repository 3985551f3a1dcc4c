//! The optimizer: the paper trains every classifier with Adam
//! (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).

use blurnet_tensor::Tensor;

use crate::{NnError, Result};

/// The Adam optimizer (Kingma & Ba) with the paper's default moments.
///
/// Moment estimates are keyed by position: the `pairs` passed to
/// [`Adam::step`] must come from the same parameters in the same order on
/// every call.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the paper's β₁ = 0.9, β₂ = 0.999 and
    /// ε = 1e-8.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for a non-positive learning rate.
    pub fn new(lr: f32) -> Result<Self> {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit moment coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the learning rate is non-positive
    /// or either beta lies outside `[0, 1)`.
    fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Result<Self> {
        if lr <= 0.0 || !(0.0..1.0).contains(&beta1) || !(0.0..1.0).contains(&beta2) || eps <= 0.0 {
            return Err(NnError::BadConfig(format!(
                "invalid Adam hyper-parameters lr={lr}, beta1={beta1}, beta2={beta2}, eps={eps}"
            )));
        }
        Ok(Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        })
    }

    /// Applies one update step to every `(parameter, gradient)` pair.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter set changes between calls.
    pub fn step(&mut self, pairs: &mut [(&mut Tensor, &Tensor)]) -> Result<()> {
        if self.m.is_empty() {
            self.m = pairs.iter().map(|(p, _)| Tensor::zeros(p.dims())).collect();
            self.v = pairs.iter().map(|(p, _)| Tensor::zeros(p.dims())).collect();
        }
        if self.m.len() != pairs.len() {
            return Err(NnError::BadConfig(
                "parameter count changed between optimizer steps".into(),
            ));
        }
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (param, grad)) in pairs.iter_mut().enumerate() {
            if param.dims() != self.m[i].dims() {
                return Err(NnError::BadConfig(
                    "parameter shape changed between optimizer steps".into(),
                ));
            }
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let g = grad.data();
            let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
            let md = m.data_mut();
            let vd = v.data_mut();
            let pd = param.data_mut();
            for j in 0..g.len() {
                md[j] = b1 * md[j] + (1.0 - b1) * g[j];
                vd[j] = b2 * vd[j] + (1.0 - b2) * g[j] * g[j];
                let m_hat = md[j] / bias1;
                let v_hat = vd[j] / bias2;
                pd[j] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = ||x - target||² with Adam and returns the final
    /// distance to the target.
    fn optimize(opt: &mut Adam, steps: usize) -> f32 {
        let target = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        let mut x = Tensor::zeros(&[3]);
        for _ in 0..steps {
            let grad = x.sub(&target).unwrap().scale(2.0);
            let mut pairs_holder = vec![(&mut x, &grad)];
            opt.step(&mut pairs_holder).unwrap();
        }
        x.sub(&target).unwrap().l2_norm()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1).unwrap();
        assert!(optimize(&mut adam, 300) < 1e-2);
    }

    #[test]
    fn adam_first_step_size_is_learning_rate() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut adam = Adam::new(0.01).unwrap();
        let mut x = Tensor::zeros(&[1]);
        let grad = Tensor::from_vec(vec![5.0], &[1]).unwrap();
        let mut pairs = vec![(&mut x, &grad)];
        adam.step(&mut pairs).unwrap();
        assert!((x.data()[0].abs() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn hyper_parameter_validation() {
        assert!(Adam::new(0.0).is_err());
        assert!(Adam::with_betas(0.1, 1.0, 0.999, 1e-8).is_err());
        assert!(Adam::with_betas(0.1, 0.9, 0.999, 0.0).is_err());
    }
}
