//! The [`Sequential`] network container.

use blurnet_tensor::{Scratch, Tensor};

use crate::engine::Recording;
use crate::{BatchEngine, Gradients, Layer, LayerKind, NnError, Result};

/// A feed-forward stack of layers.
///
/// A network is its layers' parameters. Every forward and backward pass
/// runs through the [`BatchEngine`] built over an immutable borrow
/// ([`Sequential::batch_engine`]): inference and attack-generation
/// gradients ([`BatchEngine::forward`], [`BatchEngine::input_grad`],
/// [`BatchEngine::forward_backward_with`] with a feature-map gradient
/// injection for the Eq. 9–11 adaptive attacks) and training
/// ([`BatchEngine::train_step`], whose injection carries the Eq. 4, 6–7
/// feature-map penalties to the first convolution's weights).
/// [`Sequential::params_mut`] hands the parameters to [`crate::Adam`].
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<LayerKind>,
    /// The last [`Sequential::forward`] pass recorded with `train`,
    /// consumed by [`Sequential::backward`].
    recorded: Option<RecordedPass>,
}

/// A training-mode forward pass: its input, the engine recording, and the
/// workspace pool both halves draw from (kept across passes).
#[derive(Debug, Clone)]
struct RecordedPass {
    input: Tensor,
    recording: Recording,
    scratch: Scratch,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer and returns `self` for chaining.
    pub fn push(&mut self, layer: impl Into<LayerKind>) -> &mut Self {
        self.layers.push(layer.into());
        self
    }

    /// Inserts a layer at `index`, shifting later layers back.
    ///
    /// # Panics
    ///
    /// Panics if `index > self.len()`.
    pub fn insert(&mut self, index: usize, layer: impl Into<LayerKind>) {
        self.layers.insert(index, layer.into());
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to layer `index`.
    pub fn layer(&self, index: usize) -> Option<&LayerKind> {
        self.layers.get(index)
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, LayerKind> {
        self.layers.iter()
    }

    /// Mutable access to every trainable parameter for the optimizer, in
    /// the order [`BatchEngine::train_step`] returns their gradients.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Runs the network on a batch through the engine. With `train` the
    /// pass is recorded (input plus one engine recording of the whole
    /// batch) for a following [`Sequential::backward`]; without it any
    /// earlier recording is dropped.
    ///
    /// This pair exists for the `blurbench` `nn.param_grad_ms` probe, which
    /// times a training forward/backward through this `&mut` interface;
    /// everything else calls [`BatchEngine::train_step`] directly.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (shape mismatch, empty network, …).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let previous = self.recorded.take();
        if !train {
            return BatchEngine::new(self)?.forward(input);
        }
        let engine = BatchEngine::new(self)?;
        let mut scratch =
            previous.map_or_else(|| Scratch::with_backend(engine.backend()), |p| p.scratch);
        let recording = engine.record(input, &mut scratch)?;
        let logits = recording.logits().clone();
        self.recorded = Some(RecordedPass {
            input: input.clone(),
            recording,
            scratch,
        });
        Ok(logits)
    }

    /// Back-propagates `grad_output` through the pass the last
    /// `forward(_, true)` recorded, with the training backward of
    /// [`BatchEngine::train_step`]: each layer's parameter-gradient step on
    /// this network's weights, with no engine built. Returns the input
    /// gradient and every parameter gradient; nothing is accumulated in
    /// the network. See [`Sequential::forward`] for why this pair exists.
    ///
    /// The pass is one shard holding the whole batch, so above
    /// [`crate::TRAIN_SHARD_ROWS`] images its parameter gradients differ
    /// from `train_step`'s block sums by rounding only.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] without a recorded pass,
    /// or a shape error if `grad_output` does not match its logits.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Gradients> {
        let mut pass = self
            .recorded
            .take()
            .ok_or_else(|| NnError::MissingForwardCache("sequential".to_string()))?;
        let grads = pass.recording.backward(
            self,
            &pass.input,
            grad_output.clone(),
            None,
            &mut pass.scratch,
        );
        self.recorded = Some(pass);
        grads
    }

    /// Builds a reusable [`BatchEngine`] over this network: every
    /// convolution and dense layer's weights are packed into their
    /// GEMM-ready layouts exactly once and shared across all subsequent
    /// [`BatchEngine::forward`] calls and batch shards. Its outputs are
    /// **bit-identical** at every `RAYON_NUM_THREADS` setting.
    ///
    /// ```
    /// use blurnet_nn::{Layer, LisaCnn};
    /// use blurnet_tensor::{Scratch, Tensor};
    /// use rand::SeedableRng;
    /// use rand_chacha::ChaCha8Rng;
    ///
    /// let mut rng = ChaCha8Rng::seed_from_u64(0);
    /// let net = LisaCnn::new(18).build(&mut rng)?;
    /// let batch = Tensor::zeros(&[4, 3, 32, 32]);
    /// let logits = net.batch_engine()?.forward(&batch)?;
    /// assert_eq!(logits.dims(), &[4, 18]);
    /// // Identical to folding each layer's own inference, bit for bit.
    /// let mut scratch = Scratch::new();
    /// let mut folded = batch.clone();
    /// for layer in net.iter() {
    ///     folded = layer.infer(&folded, &mut scratch)?;
    /// }
    /// assert_eq!(logits, folded);
    /// # Ok::<(), blurnet_nn::NnError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an empty network.
    pub fn batch_engine(&self) -> Result<BatchEngine<'_>> {
        BatchEngine::new(self)
    }

    /// Total number of trainable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{sequential_from_bytes, sequential_to_bytes};
    use crate::{softmax_cross_entropy, Adam, Conv2d, Dense, Flatten, MaxPool2d, Relu, ShardGrad};
    use blurnet_tensor::ConvSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_net(rng: &mut ChaCha8Rng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 3, ConvSpec::same(3).unwrap(), rng).unwrap())
            .push(Relu::new())
            .push(MaxPool2d::new(2, 2).unwrap())
            .push(Flatten::new())
            .push(Dense::new(2 * 4 * 4, 3, rng).unwrap());
        net
    }

    /// A training step with a zero loss term: just `d_logits` and the
    /// optional injection.
    fn grads_of(
        net: &Sequential,
        x: &Tensor,
        d_logits: Tensor,
        injection: Option<(usize, Tensor)>,
    ) -> Result<Gradients> {
        let engine = net.batch_engine()?;
        let feature_layer = injection.as_ref().map(|(i, _)| *i);
        let (_, grads) = engine.train_step(x, feature_layer, |_, _| {
            Ok(ShardGrad {
                d_logits,
                injection: injection.map(|(_, g)| g),
                loss: 0.0,
            })
        })?;
        Ok(grads)
    }

    #[test]
    fn forward_and_predict_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::zeros(&[4, 1, 8, 8]);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[4, 3]);
        assert_eq!(net.batch_engine().unwrap().predict(&x).unwrap().len(), 4);
        assert!(net.parameter_count() > 0);
    }

    #[test]
    fn activation_returns_every_layer_output() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = tiny_net(&mut rng);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let engine = net.batch_engine().unwrap();
        assert_eq!(engine.activation(&x, 0).unwrap().dims(), &[1, 2, 8, 8]);
        let last = engine.activation(&x, net.len() - 1).unwrap();
        assert_eq!(last, engine.forward(&x).unwrap());
        assert!(engine.activation(&x, net.len()).is_err());
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, true).unwrap();
        let grads = net.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(grads.input.dims(), x.dims());
        assert!(grads.input.l1_norm() > 0.0);
        // The probe wrapper is the engine's training step, bit for bit.
        let direct = grads_of(&net, &x, Tensor::ones(y.dims()), None).unwrap();
        assert_eq!(grads.input, direct.input);
        assert_eq!(grads.params, direct.params);
        // An inference forward drops the recording.
        net.forward(&x, false).unwrap();
        assert!(net.backward(&Tensor::ones(y.dims())).is_err());
    }

    #[test]
    fn whole_network_input_gradient_matches_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, true).unwrap();
        let d_input = net.backward(&Tensor::ones(y.dims())).unwrap().input;
        // eps must stay small: at 1e-2 the central difference for this seed
        // steps across a max-pool argmax flip at index 0 and reads exactly
        // twice the true slope (at 1e-3 it matches the analytic gradient to
        // six decimals).
        let eps = 1e-3f32;
        for &idx in &[0usize, 17, 33, 63] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let f_plus = net.forward(&plus, false).unwrap().sum();
            let f_minus = net.forward(&minus, false).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            // Max-pool argmax ties make this an approximate check.
            assert!(
                (numeric - d_input.data()[idx]).abs() < 5e-2,
                "at {idx}: {numeric} vs {}",
                d_input.data()[idx]
            );
        }
    }

    #[test]
    fn injection_changes_first_layer_gradients() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let zeros = Tensor::zeros(&[1, 3]);

        let baseline = grads_of(&net, &x, zeros.clone(), None).unwrap();
        assert_eq!(baseline.params[0].l1_norm(), 0.0);

        // Injecting gradient at the conv output (layer 0) with a zero loss
        // gradient must still produce conv weight gradients.
        let injection = Tensor::ones(&[1, 2, 8, 8]);
        let injected = grads_of(&net, &x, zeros, Some((0, injection))).unwrap();
        assert!(injected.params[0].l1_norm() > 0.0);
    }

    #[test]
    fn injection_index_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = tiny_net(&mut rng);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let err = grads_of(
            &net,
            &x,
            Tensor::zeros(&[1, 3]),
            Some((99, Tensor::zeros(&[1]))),
        );
        assert!(err.is_err());
        // A loss gradient that does not match the logits is rejected too.
        assert!(grads_of(&net, &x, Tensor::zeros(&[1, 4]), None).is_err());
    }

    #[test]
    fn serialization_roundtrip_preserves_outputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let restored = sequential_from_bytes(&sequential_to_bytes(&net)).unwrap();
        assert_eq!(
            net.batch_engine().unwrap().forward(&x).unwrap(),
            restored.batch_engine().unwrap().forward(&x).unwrap()
        );
        assert!(sequential_from_bytes(b"not a network").is_err());
    }

    #[test]
    fn empty_network_is_an_error() {
        let mut net = Sequential::new();
        assert!(net.forward(&Tensor::zeros(&[1, 1, 4, 4]), false).is_err());
        assert!(net.forward(&Tensor::zeros(&[1, 1, 4, 4]), true).is_err());
        assert!(net.backward(&Tensor::zeros(&[1, 3])).is_err());
        assert!(net.is_empty());
    }

    #[test]
    fn training_reduces_loss_on_a_toy_problem() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        // Two distinguishable patterns.
        let mut x = Tensor::zeros(&[2, 1, 8, 8]);
        for i in 0..8 {
            x.set(&[0, 0, i, i], 1.0).unwrap();
            x.set(&[1, 0, i, 7 - i], -1.0).unwrap();
        }
        let labels = [0usize, 1usize];
        let mut adam = Adam::new(0.01).unwrap();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let (loss, grads) = net
                .batch_engine()
                .unwrap()
                .train_step(&x, None, |logits, _| {
                    let (loss, d_logits) = softmax_cross_entropy(logits, &labels)?;
                    Ok(ShardGrad {
                        d_logits,
                        injection: None,
                        loss,
                    })
                })
                .unwrap();
            let mut pairs: Vec<_> = net.params_mut().into_iter().zip(&grads.params).collect();
            adam.step(&mut pairs).unwrap();
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < 0.5 * first_loss.unwrap());
        assert_eq!(net.batch_engine().unwrap().predict(&x).unwrap(), vec![0, 1]);
    }
}
