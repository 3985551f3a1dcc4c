//! The batch-parallel inference **and gradient** engine: the one forward
//! and the one backward every caller runs through — inference, attack
//! generation and training alike.
//!
//! A [`BatchEngine`] takes an immutable borrow of a [`Sequential`],
//! pre-packs each convolution's weights into the GEMM-ready transposed
//! layout (and each dense layer's weights into `[in, out]`) exactly once,
//! and then evaluates **batch shards in parallel** — the batch dimension is
//! split into one-image shards that rayon workers process independently,
//! each worker owning a private [`Scratch`] pool that is reused across
//! every layer of every shard it processes.
//!
//! The gradient path works the same way, through one recorded forward for
//! every job: each shard is recorded layer by layer into a `Recording` —
//! every layer's [`TapeSlot`] and output, owned by the worker running the
//! shard, never by the network — and a backward walks it in reverse. The
//! backward has two steps per layer:
//!
//! * **input gradient** ([`crate::Layer::input_grad`]) — what PGD/RP2/
//!   adaptive attack generation needs through
//!   [`BatchEngine::forward_backward_with`] /
//!   [`BatchEngine::forward_backward_batch`] / [`BatchEngine::input_grad`].
//!   It reads only the tapes and the packs, and skips the weight-gradient
//!   GEMMs. Each one-image shard's outputs live until its loss closure
//!   returns (about 80 KB for a 32×32 LISA-CNN image), and all
//!   `steps × images` gradient iterations of an attack run as `steps`
//!   batched passes;
//! * **parameter gradient** ([`crate::Layer::param_grad`]) — training,
//!   through [`BatchEngine::train_step`]. Layer `i`'s forward input is the
//!   recording's output `i − 1`, and the step returns every trainable
//!   parameter's gradient for [`crate::Adam`]. This backward reads the
//!   network's own weights, not the packs.
//!
//! A feature-map gradient (the regularizers of Eq. 4, 6–7 in training,
//! the adaptive penalties of Eq. 9–11 in attacks) is handed to either
//! backward as a [`ShardGrad`] injection, added at its layer's output.
//!
//! # Determinism
//!
//! Forward outputs are **bit-identical** to folding [`crate::Layer::infer`]
//! over the layers, and input gradients to folding
//! [`crate::Layer::infer_recording`] / [`crate::Layer::input_grad`], for
//! every batch size and thread count:
//!
//! * every shard is one image, whatever the thread count;
//! * every per-element accumulation (GEMM register tiles, im2col rows,
//!   depthwise taps, col2im folds) runs in a fixed order that does not
//!   depend on how the work is partitioned;
//! * workers write disjoint output ranges, so there are no accumulation
//!   races.
//!
//! A training step shards the batch into fixed blocks of
//! [`TRAIN_SHARD_ROWS`] images (the last block may be shorter). Each
//! block's weight and bias gradients reduce over its own rows in one fixed
//! order, and the per-block sums are added in block order, so the batch
//! reductions keep one fixed order too: the block size is a constant,
//! never derived from the thread count. `RAYON_NUM_THREADS=1` (or a
//! 1-thread `rayon` pool) therefore reproduces the parallel results
//! exactly; the property tests in `tests/forward_batch.rs`,
//! `tests/input_grad_batch.rs` and `tests/train_step.rs` pin this.
//!
//! # Sharing an engine across workers
//!
//! A [`BatchEngine`] is `Send + Sync` (asserted at compile time below):
//! it holds only immutable borrows of the network plus read-only weight
//! packs, and every call drives per-worker scratch state, so **one engine
//! may be used from many threads at once**. This is the borrow model the
//! experiment scheduler builds on — trained networks are shared read-only
//! (e.g. behind an `Arc`) across concurrently executing evaluation cells,
//! and each cell freely constructs or reuses engines over those weights
//! from whatever worker it lands on. Anything mutable (optimizer moments,
//! a smoothing vote's noise stream) lives outside the engine, owned by the
//! caller.

use std::sync::Arc;

use blurnet_tensor::{default_backend, Backend, PackedConvWeights, Scratch, Tensor};
use rayon::prelude::*;

use crate::{loss, Conv2d, Dense, Layer, LayerKind, NnError, Result, Sequential, TapeSlot};

/// Rows per shard of a training step ([`BatchEngine::train_step`]). A
/// constant, never derived from the thread count, so trained weights are
/// bit-identical at every `RAYON_NUM_THREADS` and scheduler worker count.
/// Four measured fastest of 1, 4 and 8 on the smoke grid's training runs
/// (`BENCH_grid.json` `train_shard_rows`).
pub const TRAIN_SHARD_ROWS: usize = 4;

/// One layer of a prepared inference plan: convolutions and dense layers
/// carry their pre-packed weights, everything else runs its plain
/// [`Layer::infer`] path.
enum EngineLayer<'n> {
    /// Convolution with the `[C·KH·KW, F]` weight pack.
    Conv {
        /// The borrowed layer (bias + spec).
        layer: &'n Conv2d,
        /// Weights packed once, shared read-only across shards and calls.
        packed: PackedConvWeights,
    },
    /// Dense layer with the `[in, out]` transposed weights.
    Dense {
        /// The borrowed layer (bias + shape checks).
        layer: &'n Dense,
        /// Transposed weights, shared read-only across shards and calls.
        weight_t: Tensor,
    },
    /// Any other layer, evaluated through [`Layer::infer`].
    Plain(&'n LayerKind),
}

/// Backward directive for one shard, produced by the loss closure passed
/// to [`BatchEngine::forward_backward_with`].
#[derive(Debug)]
pub struct ShardGrad {
    /// Gradient of the shard loss with respect to the shard logits.
    pub d_logits: Tensor,
    /// Extra gradient injected at the collected feature layer's output
    /// while back-propagating (adaptive feature penalties, Eq. 9–11).
    /// Ignored when no feature layer was requested.
    pub injection: Option<Tensor>,
    /// Scalar loss of this shard (diagnostics; the engine only forwards
    /// it into [`GradBatch::shard_losses`]).
    pub loss: f32,
}

/// Gradients of one training backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Gradient with respect to the network input, same shape as the input.
    pub input: Tensor,
    /// One gradient per trainable parameter, in [`Sequential::params_mut`]
    /// order (layer by layer, each layer's [`Layer::params`] order).
    pub params: Vec<Tensor>,
}

/// A recorded forward pass over one training shard: every layer's tape
/// slot and owned output. The outputs double as the parameter-gradient
/// step's forward inputs (layer `i` reads `outputs[i - 1]`).
#[derive(Debug, Clone)]
pub(crate) struct Recording {
    tapes: Vec<TapeSlot>,
    outputs: Vec<Tensor>,
}

impl Recording {
    /// The recorded pass's logits (the last layer's output).
    pub(crate) fn logits(&self) -> &Tensor {
        self.outputs
            .last()
            .expect("non-empty network produced an output")
    }

    /// The training backward over this pass, recorded from `input`
    /// through `net`: every layer's [`Layer::param_grad`] in reverse,
    /// adding `injection` at its layer's output on the way. It reads the
    /// network's own weights, so it needs no engine. Parameter gradients
    /// come back in [`Sequential::params_mut`] order.
    pub(crate) fn backward(
        &self,
        net: &Sequential,
        input: &Tensor,
        d_logits: Tensor,
        injection: Option<(usize, &Tensor)>,
        scratch: &mut Scratch,
    ) -> Result<Gradients> {
        if self.tapes.len() != net.len() {
            return Err(NnError::MissingForwardCache("sequential".to_string()));
        }
        check_logit_grad(&d_logits, self.logits())?;
        let mut grad = d_logits;
        let mut params = vec![Vec::new(); net.len()];
        for (i, layer) in net.iter().enumerate().rev() {
            if let Some((idx, extra)) = injection {
                if idx == i {
                    grad.add_scaled(extra, 1.0)?;
                }
            }
            let layer_input = if i == 0 { input } else { &self.outputs[i - 1] };
            let (d_input, layer_params) =
                layer.param_grad(layer_input, &self.tapes[i], &grad, scratch)?;
            params[i] = layer_params;
            grad = d_input;
        }
        Ok(Gradients {
            input: grad,
            params: params.into_iter().flatten().collect(),
        })
    }
}

/// Result of a batched forward + backward pass through a [`BatchEngine`].
#[derive(Debug)]
pub struct GradBatch {
    /// Gradient of the loss with respect to the batch input, same shape as
    /// the input.
    pub input_grad: Tensor,
    /// Per-shard loss values, in shard order: one loss per image.
    pub shard_losses: Vec<f32>,
}

/// A reusable, shareable inference plan over a borrowed [`Sequential`].
///
/// Build it once with [`Sequential::batch_engine`] and call
/// [`BatchEngine::forward`] as many times as needed — attack evaluation
/// loops classify thousands of images against one frozen network, and the
/// per-layer weight packing is paid exactly once for all of them.
///
/// ```
/// use blurnet_nn::{LisaCnn, Sequential};
/// use blurnet_tensor::Tensor;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let net = LisaCnn::new(18).build(&mut rng)?;
/// let engine = net.batch_engine()?;
/// let batch = Tensor::zeros(&[8, 3, 32, 32]);
/// // Two calls share the packed weights; results are deterministic.
/// assert_eq!(engine.forward(&batch)?, engine.forward(&batch)?);
/// # Ok::<(), blurnet_nn::NnError>(())
/// ```
pub struct BatchEngine<'n> {
    /// The network the plan was built from; the training backward walks
    /// its layers directly.
    net: &'n Sequential,
    layers: Vec<EngineLayer<'n>>,
    /// Compute backend every kernel call routes through; per-worker
    /// [`Scratch`] pools are bound to it, so one engine dispatches at one
    /// tier for its whole lifetime.
    backend: Arc<dyn Backend>,
}

// Compile-time pin of the sharing contract: an engine (and the plan it
// borrows) must remain usable from many threads at once. Removing `Sync`
// from any constituent (a layer, a weight pack, a tensor) breaks the
// experiment scheduler's shared-engine model and must fail loudly here.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<BatchEngine<'static>>();
    assert_shareable::<Sequential>();
};

impl<'n> BatchEngine<'n> {
    /// Prepares an inference plan: packs every convolution's weights into
    /// the GEMM layout and transposes every dense layer's weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an empty network.
    pub fn new(net: &'n Sequential) -> Result<Self> {
        if net.is_empty() {
            return Err(NnError::BadConfig("network has no layers".into()));
        }
        let mut layers = Vec::with_capacity(net.len());
        for kind in net.iter() {
            layers.push(match kind {
                LayerKind::Conv2d(layer) => EngineLayer::Conv {
                    layer,
                    packed: layer.packed_weights()?,
                },
                LayerKind::Dense(layer) => EngineLayer::Dense {
                    layer,
                    weight_t: layer.weight_transposed(),
                },
                other => EngineLayer::Plain(other),
            });
        }
        Ok(BatchEngine {
            net,
            layers,
            backend: default_backend(),
        })
    }

    /// Overrides the compute backend (default: the process-wide
    /// [`default_backend`]). Cross-dispatch tests pin engines to explicit
    /// tiers with this; results must be identical across supported tiers.
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// The compute backend this engine dispatches through.
    pub fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }

    /// Runs the first `depth` layers over one shard, drawing workspace from
    /// `scratch`.
    fn infer_shard(&self, shard: &Tensor, depth: usize, scratch: &mut Scratch) -> Result<Tensor> {
        let mut x: Option<Tensor> = None;
        for engine_layer in &self.layers[..depth] {
            let input = x.as_ref().unwrap_or(shard);
            x = Some(self.infer_layer(engine_layer, input, scratch)?);
        }
        Ok(x.expect("non-empty network produced an output"))
    }

    /// One layer's forward: packed weights for convolutions and dense
    /// layers, [`Layer::infer`] for everything else.
    fn infer_layer(
        &self,
        engine_layer: &EngineLayer<'_>,
        input: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        Ok(match engine_layer {
            EngineLayer::Conv { layer, packed } => self.backend.conv2d_prepacked(
                input,
                packed,
                Some(layer.bias()),
                layer.spec(),
                scratch,
            )?,
            EngineLayer::Dense { layer, weight_t } => {
                layer.check_input(input)?;
                let mut out = self.backend.matmul(input, weight_t)?;
                layer.add_bias(&mut out);
                out
            }
            EngineLayer::Plain(kind) => kind.infer(input, scratch)?,
        })
    }

    /// One layer's recorded forward: `infer_layer` plus the layer's
    /// backward record in `tape`.
    fn record_layer(
        &self,
        engine_layer: &EngineLayer<'_>,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        match engine_layer {
            EngineLayer::Plain(kind) => kind.infer_recording(input, tape, scratch),
            other => {
                // Conv input gradients only need the recorded shape;
                // dense ones need nothing.
                if let EngineLayer::Conv { .. } = other {
                    *tape = TapeSlot::InputDims(input.dims().to_vec());
                }
                self.infer_layer(other, input, scratch)
            }
        }
    }

    /// Walks one shard's recorded tapes backwards through every layer's
    /// immutable input-gradient path, adding `injection` at its layer's
    /// output on the way.
    fn input_grad_shard(
        &self,
        tapes: &[TapeSlot],
        d_logits: Tensor,
        injection: Option<(usize, &Tensor)>,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let mut grad = d_logits;
        for (i, engine_layer) in self.layers.iter().enumerate().rev() {
            if let Some((idx, extra)) = injection {
                if idx == i {
                    grad.add_scaled(extra, 1.0)?;
                }
            }
            grad = match engine_layer {
                EngineLayer::Conv { layer, packed } => {
                    // The pack carries the pre-flipped taps for the direct
                    // transposed kernel — built once per engine, shared
                    // read-only across shards (bit-identical to the
                    // per-call layer path).
                    let TapeSlot::InputDims(dims) = &tapes[i] else {
                        return Err(NnError::MissingForwardCache("conv2d".to_string()));
                    };
                    self.backend.conv2d_input_grad_prepacked(
                        packed,
                        &grad,
                        dims,
                        layer.spec(),
                        scratch,
                    )?
                }
                EngineLayer::Dense { layer, .. } => layer.input_grad(&tapes[i], &grad, scratch)?,
                EngineLayer::Plain(kind) => kind.input_grad(&tapes[i], &grad, scratch)?,
            };
        }
        Ok(grad)
    }

    /// Runs a recorded forward pass and a tape-driven backward pass over an
    /// `[N, ...]` batch, sharding the batch dimension across rayon workers
    /// exactly like [`BatchEngine::forward`] (same shard boundaries, same
    /// per-worker [`Scratch`] pools, bit-identical results at every thread
    /// count). Each shard is recorded like a training shard (every layer's
    /// tape and output; the outputs are dropped once `grad_fn` returns),
    /// and its backward is the input-gradient walk over the recording's
    /// tapes.
    ///
    /// For every shard, `grad_fn(start, logits, feature)` receives the
    /// index of the shard's first image, the shard logits, and (when
    /// `feature_layer` is `Some(i)`) the recorded activation after layer
    /// `i`; it returns the shard's loss gradient, an optional gradient to
    /// inject at that activation, and a diagnostic loss value. Every shard is one
    /// image, so the closure sees exactly what a per-image attack loop
    /// would — per-image logits and per-image losses.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch, an out-of-range
    /// `feature_layer`, a shape the first layer rejects, or any `grad_fn`
    /// failure.
    pub fn forward_backward_with<F>(
        &self,
        input: &Tensor,
        feature_layer: Option<usize>,
        grad_fn: F,
    ) -> Result<GradBatch>
    where
        F: Fn(usize, &Tensor, Option<&Tensor>) -> Result<ShardGrad> + Sync,
    {
        self.check_gradient_call(input, feature_layer)?;
        let results = self.run_sharded(
            input,
            1,
            || Scratch::with_backend(self.backend()),
            |scratch, start, shard| {
                let recording = self.record(shard, scratch)?;
                let logits = recording.logits();
                let feature = feature_layer.map(|i| &recording.outputs[i]);
                let shard_grad = grad_fn(start, logits, feature)?;
                check_logit_grad(&shard_grad.d_logits, logits)?;
                // The input-gradient walk reads only the tapes; freeing the
                // outputs first lets its buffers reuse their memory.
                let Recording { tapes, outputs } = recording;
                drop(outputs);
                let injection = feature_layer.zip(shard_grad.injection.as_ref());
                let d_input =
                    self.input_grad_shard(&tapes, shard_grad.d_logits, injection, scratch)?;
                Ok((d_input, shard_grad.loss))
            },
        )?;
        let (grads, losses): (Vec<Tensor>, Vec<f32>) = results.into_iter().unzip();
        Ok(GradBatch {
            input_grad: Tensor::concat_batch(&grads)?,
            shard_losses: losses,
        })
    }

    /// One training step's gradients: a recorded forward pass, the
    /// caller's loss closure, and a backward pass that runs every layer's
    /// [`Layer::param_grad`] step.
    ///
    /// The batch is split into shards of [`TRAIN_SHARD_ROWS`] images (the
    /// last one may be shorter) that run on rayon workers in two phases:
    ///
    /// 1. every shard's recorded forward;
    /// 2. every shard's backward, fed its rows of the loss gradient and of
    ///    the injection.
    ///
    /// Between them, `grad_fn(logits, feature)` runs **once on the whole
    /// batch**: it receives the concatenated shard logits and (when
    /// `feature_layer` is `Some(i)`) the concatenated activation after
    /// layer `i`, and returns the loss gradient, an optional gradient to
    /// inject at that activation (the Eq. 4, 6–7 feature-map penalties)
    /// and the loss value, which is returned alongside the gradients.
    ///
    /// The input gradients are concatenated and the per-shard parameter
    /// gradients summed in shard order. The shard size is a constant, so
    /// the gradients are bit-identical at every thread count. They come
    /// back in [`Sequential::params_mut`] order, ready for
    /// [`crate::Adam::step`].
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch, an out-of-range
    /// `feature_layer`, a shape the first layer rejects, a wrong-shaped
    /// loss gradient or injection, or any `grad_fn` failure.
    pub fn train_step<F>(
        &self,
        input: &Tensor,
        feature_layer: Option<usize>,
        grad_fn: F,
    ) -> Result<(f32, Gradients)>
    where
        F: FnOnce(&Tensor, Option<&Tensor>) -> Result<ShardGrad>,
    {
        self.check_gradient_call(input, feature_layer)?;
        let recordings = self.run_sharded(
            input,
            TRAIN_SHARD_ROWS,
            || Scratch::with_backend(self.backend()),
            |scratch, _start, shard| self.record(shard, scratch),
        )?;
        let concat = |layer: usize| {
            let parts: Vec<Tensor> = recordings
                .iter()
                .map(|r| r.outputs[layer].clone())
                .collect();
            Tensor::concat_batch(&parts)
        };
        let logits = concat(self.layers.len() - 1)?;
        let feature = feature_layer.map(concat).transpose()?;
        let ShardGrad {
            d_logits,
            injection,
            loss,
        } = grad_fn(&logits, feature.as_ref())?;
        check_logit_grad(&d_logits, &logits)?;
        let injection = feature_layer.zip(injection);
        let shard_grads = self.run_sharded(
            input,
            TRAIN_SHARD_ROWS,
            || Scratch::with_backend(self.backend()),
            |scratch, start, shard| {
                let rows = shard.dims()[0];
                let d_logits = d_logits.batch_slice(start, rows)?;
                let injection = match &injection {
                    Some((idx, extra)) => Some((*idx, extra.batch_slice(start, rows)?)),
                    None => None,
                };
                recordings[start / TRAIN_SHARD_ROWS].backward(
                    self.net,
                    shard,
                    d_logits,
                    injection.as_ref().map(|(idx, extra)| (*idx, extra)),
                    scratch,
                )
            },
        )?;
        let mut shard_grads = shard_grads.into_iter();
        let first = shard_grads.next().expect("a non-empty batch has a shard");
        let (mut inputs, mut params) = (vec![first.input], first.params);
        for grads in shard_grads {
            for (total, part) in params.iter_mut().zip(&grads.params) {
                total.add_scaled(part, 1.0)?;
            }
            inputs.push(grads.input);
        }
        let input = Tensor::concat_batch(&inputs)?;
        Ok((loss, Gradients { input, params }))
    }

    /// The recorded forward of one shard: every layer's tape slot and
    /// output. Both backwards read it — a training shard's
    /// ([`Recording::backward`]) and an attack image's input-gradient walk
    /// — and [`Sequential::forward`] records a whole batch through it.
    pub(crate) fn record(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Recording> {
        self.check_gradient_call(input, None)?;
        let mut tapes = vec![TapeSlot::default(); self.layers.len()];
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.layers.len());
        for (engine_layer, tape) in self.layers.iter().zip(tapes.iter_mut()) {
            let layer_input = outputs.last().unwrap_or(input);
            let out = self.record_layer(engine_layer, layer_input, tape, scratch)?;
            outputs.push(out);
        }
        Ok(Recording { tapes, outputs })
    }

    /// Shared argument checks of the gradient entry points: a non-empty
    /// `[N, ...]` batch and an in-range feature layer.
    fn check_gradient_call(&self, input: &Tensor, feature_layer: Option<usize>) -> Result<()> {
        if input.shape().rank() < 2 || input.dims()[0] == 0 {
            return Err(NnError::BadConfig(format!(
                "forward_backward expects a non-empty [N, ...] batch, got {}",
                input.shape()
            )));
        }
        if let Some(idx) = feature_layer {
            if idx >= self.layers.len() {
                return Err(NnError::BadConfig(format!(
                    "feature layer index {idx} out of range for {} layers",
                    self.layers.len()
                )));
            }
        }
        Ok(())
    }

    /// The one shard scheduler behind every batched entry point: runs
    /// `run_shard(state, start, shard)` over consecutive shards of `rows`
    /// images (the last one may be shorter), sequentially on a single
    /// worker state when the thread budget is one (or there is only one
    /// shard), otherwise in contiguous shard groups across rayon workers —
    /// each worker owns one `make_state()` for its whole group and pins
    /// nested (intra-op) parallelism to one thread, so the thread budget is
    /// spent on the batch dimension exactly once. Results come back in
    /// shard order.
    ///
    /// Inference and input gradients run one image per shard
    /// (`rows == 1`), training [`TRAIN_SHARD_ROWS`]. The shard boundaries
    /// depend only on `rows` and the batch size, never on the thread
    /// count, which is what makes every engine result bit-identical at
    /// any `RAYON_NUM_THREADS`.
    fn run_sharded<T, S, MkS, F>(
        &self,
        input: &Tensor,
        rows: usize,
        make_state: MkS,
        run_shard: F,
    ) -> Result<Vec<T>>
    where
        T: Send,
        MkS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &Tensor) -> Result<T> + Sync,
    {
        let n = input.dims()[0];
        let shards = n.div_ceil(rows);
        let run_at = |state: &mut S, index: usize| {
            let start = index * rows;
            let shard = input.batch_slice(start, rows.min(n - start))?;
            run_shard(state, start, &shard)
        };
        let threads = rayon::current_num_threads();
        if threads <= 1 || shards == 1 {
            let mut state = make_state();
            return (0..shards).map(|index| run_at(&mut state, index)).collect();
        }
        let group = shards.div_ceil(threads);
        let mut slots: Vec<Option<Result<T>>> = (0..shards).map(|_| None).collect();
        slots
            .par_chunks_mut(group)
            .enumerate()
            .for_each(|(g, slots_group)| {
                let inner = rayon::ThreadPoolBuilder::new().num_threads(1).build();
                let mut state = make_state();
                for (j, slot) in slots_group.iter_mut().enumerate() {
                    let index = g * group + j;
                    *slot = Some(match &inner {
                        Ok(pool) => pool.install(|| run_at(&mut state, index)),
                        Err(_) => run_at(&mut state, index),
                    });
                }
            });
        slots
            .into_iter()
            .map(|slot| slot.expect("every shard slot is filled"))
            .collect()
    }

    /// Gradient of a caller-supplied output gradient with respect to the
    /// batch input: one recorded forward plus one tape-driven backward,
    /// sharded like [`BatchEngine::forward`].
    ///
    /// `grad_output` must be `[N, classes]` aligned with `input`'s batch
    /// dimension. Bit-identical at every thread count, and identical to
    /// folding each layer's `input_grad` over the same rows.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or mismatched shapes.
    pub fn input_grad(&self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        if grad_output.shape().rank() < 2 || grad_output.dims()[0] != input.dims()[0] {
            return Err(NnError::BadConfig(format!(
                "grad_output {} does not align with input batch {}",
                grad_output.shape(),
                input.shape()
            )));
        }
        let out = self.forward_backward_with(input, None, |start, logits, _| {
            Ok(ShardGrad {
                d_logits: grad_output.batch_slice(start, logits.dims()[0])?,
                injection: None,
                loss: 0.0,
            })
        })?;
        Ok(out.input_grad)
    }

    /// Batched softmax cross-entropy forward + backward: the gradient-loop
    /// workhorse of PGD-style attacks. Losses and logit gradients are
    /// computed **per shard**, that is per image, so the result matches a
    /// per-image attack loop exactly — `shard_losses[i]` is image `i`'s
    /// loss and the input gradient rows are per-image cross-entropy
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or a label count that does not
    /// match the batch size.
    pub fn forward_backward_batch(&self, input: &Tensor, labels: &[usize]) -> Result<GradBatch> {
        if labels.len() != input.dims().first().copied().unwrap_or(0) {
            return Err(NnError::BadLabels(format!(
                "{} labels for a batch of {}",
                labels.len(),
                input.dims().first().copied().unwrap_or(0)
            )));
        }
        self.forward_backward_with(input, None, |start, logits, _| {
            let count = logits.dims()[0];
            let (loss, d_logits) =
                loss::softmax_cross_entropy(logits, &labels[start..start + count])?;
            Ok(ShardGrad {
                d_logits,
                injection: None,
                loss,
            })
        })
    }

    /// Runs the network over an `[N, ...]` batch, sharding the batch
    /// dimension across rayon workers.
    ///
    /// Bit-identical to folding [`Layer::infer`] over the layers, per
    /// sample or per batch, at every thread count (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or a shape the first layer
    /// rejects.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        if input.shape().rank() < 2 || input.dims()[0] == 0 {
            return Err(NnError::BadConfig(format!(
                "forward_batch expects a non-empty [N, ...] batch, got {}",
                input.shape()
            )));
        }
        let depth = self.layers.len();
        // Single-shard fast path: no slicing or concatenation to pay.
        if input.dims()[0] == 1 {
            return self.infer_shard(input, depth, &mut Scratch::with_backend(self.backend()));
        }
        let parts = self.run_sharded(
            input,
            1,
            || Scratch::with_backend(self.backend()),
            |scratch, _start, shard| self.infer_shard(shard, depth, scratch),
        )?;
        Ok(Tensor::concat_batch(&parts)?)
    }

    /// Class predictions (argmax of the logits) for a batch, through the
    /// batch-parallel path.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchEngine::forward`] errors.
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>> {
        loss::predictions(&self.forward(input)?)
    }

    /// The activation after layer `layer` (its output) for an `[N, ...]`
    /// batch, e.g. the first-layer feature maps the spectrum figures
    /// analyse. Runs layers `0..=layer` as one shard.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch, an out-of-range `layer`, or a
    /// shape the first layer rejects.
    pub fn activation(&self, input: &Tensor, layer: usize) -> Result<Tensor> {
        self.check_gradient_call(input, Some(layer))?;
        self.infer_shard(input, layer + 1, &mut Scratch::with_backend(self.backend()))
    }

    /// Class prediction plus its softmax probability for every image of a
    /// batch, through the batch-parallel path.
    ///
    /// This is the serving subsystem's response surface: because both the
    /// sharded forward pass and [`loss::confidences`] treat every image
    /// independently, each `(label, confidence)` pair is **bit-identical**
    /// no matter which other requests were coalesced into the same batch —
    /// at every batch size and thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchEngine::forward`] errors.
    pub fn classify_with_confidence(&self, input: &Tensor) -> Result<Vec<(usize, f32)>> {
        loss::confidences(&self.forward(input)?)
    }
}

/// Rejects a loss closure's gradient that does not match the logits it
/// was handed.
fn check_logit_grad(d_logits: &Tensor, logits: &Tensor) -> Result<()> {
    if d_logits.dims() != logits.dims() {
        return Err(NnError::BadConfig(format!(
            "shard gradient shape {:?} does not match logits {:?}",
            d_logits.dims(),
            logits.dims()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LisaCnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn lisa_net(seed: u64) -> Sequential {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn engine_matches_stateful_forward_bitwise() {
        let mut net = lisa_net(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch = Tensor::rand_uniform(&[5, 3, 16, 16], 0.0, 1.0, &mut rng);
        // Independent reference: each layer's own `infer` (unpacked
        // kernels) folded over the network.
        let mut scratch = Scratch::new();
        let reference = net
            .iter()
            .try_fold(batch.clone(), |x, layer| layer.infer(&x, &mut scratch))
            .unwrap();
        // The recorded (training) forward of the `&mut` wrapper agrees.
        assert_eq!(net.forward(&batch, true).unwrap(), reference);
        let engine = BatchEngine::new(&net).unwrap();
        assert_eq!(engine.forward(&batch).unwrap(), reference);
        // A second call through the same engine (reused packs) agrees too.
        assert_eq!(engine.forward(&batch).unwrap(), reference);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let net = lisa_net(5);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let batch = Tensor::rand_uniform(&[6, 3, 16, 16], 0.0, 1.0, &mut rng);
        let engine = BatchEngine::new(&net).unwrap();
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outputs.push(pool.install(|| engine.forward(&batch).unwrap()));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn predict_matches_stateful_predict() {
        let mut net = lisa_net(7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let batch = Tensor::rand_uniform(&[4, 3, 16, 16], 0.0, 1.0, &mut rng);
        let stateful = loss::predictions(&net.forward(&batch, true).unwrap()).unwrap();
        let engine = BatchEngine::new(&net).unwrap();
        assert_eq!(engine.predict(&batch).unwrap(), stateful);
    }

    #[test]
    fn classify_with_confidence_is_batch_invariant() {
        let net = lisa_net(21);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let batch = Tensor::rand_uniform(&[6, 3, 16, 16], 0.0, 1.0, &mut rng);
        let engine = BatchEngine::new(&net).unwrap();
        let batched = engine.classify_with_confidence(&batch).unwrap();
        assert_eq!(batched.len(), 6);
        // Each image classified alone must reproduce its batched result
        // bit-for-bit — the serving determinism contract.
        for (i, expected) in batched.iter().enumerate() {
            let solo = engine
                .classify_with_confidence(&batch.batch_slice(i, 1).unwrap())
                .unwrap()[0];
            assert_eq!(solo.0, expected.0, "label diverged for image {i}");
            assert_eq!(
                solo.1.to_bits(),
                expected.1.to_bits(),
                "confidence bits diverged for image {i}"
            );
        }
        // Labels agree with the plain predict path.
        assert_eq!(
            batched.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            engine.predict(&batch).unwrap()
        );
    }

    #[test]
    fn rejects_empty_networks_and_batches() {
        let empty = Sequential::new();
        assert!(BatchEngine::new(&empty).is_err());
        let net = lisa_net(9);
        let engine = BatchEngine::new(&net).unwrap();
        assert!(engine.forward(&Tensor::zeros(&[0, 3, 16, 16])).is_err());
        assert!(engine.forward(&Tensor::zeros(&[4])).is_err());
        let no_loss = |l: &Tensor, _: Option<&Tensor>| {
            Ok(ShardGrad {
                d_logits: Tensor::zeros(l.dims()),
                injection: None,
                loss: 0.0,
            })
        };
        assert!(engine
            .train_step(&Tensor::zeros(&[0, 3, 16, 16]), None, no_loss)
            .is_err());
    }

    #[test]
    fn input_grad_matches_stateful_backward_per_image() {
        let mut net = lisa_net(11);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let batch = Tensor::rand_uniform(&[5, 3, 16, 16], 0.0, 1.0, &mut rng);
        let grad_out = Tensor::rand_uniform(&[5, 18], -1.0, 1.0, &mut rng);
        // Per-image reference through the `&mut` wrapper: the training
        // backward's parameter-gradient steps (`conv2d_backward` on the
        // unpacked weights, not the engine's pre-flipped direct kernel).
        let mut parts = Vec::new();
        for i in 0..5 {
            net.forward(&batch.batch_slice(i, 1).unwrap(), true)
                .unwrap();
            let row = grad_out.batch_slice(i, 1).unwrap();
            parts.push(net.backward(&row).unwrap().input);
        }
        let reference = Tensor::concat_batch(&parts).unwrap();
        let engine = BatchEngine::new(&net).unwrap();
        let got = engine.input_grad(&batch, &grad_out).unwrap();
        assert_eq!(got, reference, "tape backward diverged from the wrapper");
        // Misaligned grad_output is rejected.
        assert!(engine.input_grad(&batch, &Tensor::zeros(&[4, 18])).is_err());
    }

    #[test]
    fn forward_backward_batch_is_thread_invariant() {
        let net = lisa_net(13);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let batch = Tensor::rand_uniform(&[6, 3, 16, 16], 0.0, 1.0, &mut rng);
        let labels = [0usize, 3, 7, 11, 14, 17];
        let engine = BatchEngine::new(&net).unwrap();
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outputs.push(pool.install(|| engine.forward_backward_batch(&batch, &labels).unwrap()));
        }
        for other in &outputs[1..] {
            assert_eq!(outputs[0].input_grad, other.input_grad);
            assert_eq!(outputs[0].shard_losses, other.shard_losses);
        }
        // Per-image losses (one image per shard), from logits that agree
        // with the plain forward path.
        assert_eq!(outputs[0].shard_losses.len(), 6);
        let logits = engine.forward(&batch).unwrap();
        for (i, &loss) in outputs[0].shard_losses.iter().enumerate() {
            let row = logits.batch_slice(i, 1).unwrap();
            let (expected, _) = loss::softmax_cross_entropy(&row, &labels[i..=i]).unwrap();
            assert_eq!(loss, expected, "image {i}");
        }
        // Label count validation.
        assert!(engine.forward_backward_batch(&batch, &labels[..3]).is_err());
    }

    #[test]
    fn feature_collection_and_injection_match_layer_fold() {
        let net = lisa_net(15);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let image = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let feature_layer = 0usize;
        let engine = BatchEngine::new(&net).unwrap();
        let expected_feature = engine.activation(&image, feature_layer).unwrap();
        let injection = Tensor::ones(expected_feature.dims());

        // Reference: the training step's backward, a fold of every layer's
        // parameter-gradient step, with the same injection.
        let (loss, reference) = engine
            .train_step(&image, Some(feature_layer), |logits, feature| {
                assert_eq!(feature.expect("feature collected"), &expected_feature);
                Ok(ShardGrad {
                    d_logits: Tensor::zeros(logits.dims()),
                    injection: Some(injection.clone()),
                    loss: 0.25,
                })
            })
            .unwrap();
        assert_eq!(loss, 0.25);
        let shapes: Vec<_> = net
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.dims().to_vec())
            .collect();
        let got: Vec<_> = reference.params.iter().map(|g| g.dims().to_vec()).collect();
        assert_eq!(got, shapes, "one gradient per parameter, in order");

        let out = engine
            .forward_backward_with(&image, Some(feature_layer), |_, shard_logits, feature| {
                let feature = feature.expect("feature activation collected");
                assert_eq!(feature, &expected_feature);
                Ok(ShardGrad {
                    d_logits: Tensor::zeros(shard_logits.dims()),
                    injection: Some(Tensor::ones(feature.dims())),
                    loss: 0.5,
                })
            })
            .unwrap();
        assert_eq!(out.input_grad, reference.input);
        assert_eq!(out.shard_losses, vec![0.5]);

        // Out-of-range feature layer is rejected up front.
        assert!(engine
            .forward_backward_with(&image, Some(99), |_, l, _| Ok(ShardGrad {
                d_logits: Tensor::zeros(l.dims()),
                injection: None,
                loss: 0.0,
            }))
            .is_err());
        // A wrong-shaped shard gradient is rejected.
        assert!(engine
            .forward_backward_with(&image, None, |_, _, _| Ok(ShardGrad {
                d_logits: Tensor::zeros(&[1, 3]),
                injection: None,
                loss: 0.0,
            }))
            .is_err());
    }
}
