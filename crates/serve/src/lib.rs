//! # blurnet-serve: async micro-batching inference service
//!
//! BlurNet's threat model is a camera stream of road signs classified in
//! real time, so the defended model ultimately has to live behind a
//! low-latency, high-throughput request path. This crate is that path: a
//! long-running [`ClassifyService`] that accepts classification requests
//! (a `[C, H, W]` image tensor in; label + confidence + defense verdict
//! out), **coalesces concurrent requests into single
//! [`blurnet_nn::BatchEngine`] batch passes** via a bounded micro-batching
//! queue with deadline- and size-triggered flush ("flush at batch 32 or
//! 2 ms"), and drains batches on the persistent rayon pool shared with the
//! rest of the stack.
//!
//! # Request lifecycle
//!
//! ```text
//! client ──submit──▶ admission queue ──▶ batcher ──▶ batch queue ──▶ workers
//!   ▲   (BoundedQueue, back-pressure)  (flush at      (BoundedQueue)   │
//!   │                                   max_batch                      │
//!   └──────────────── per-request reply channel ◀──── classify ────────┘
//! ```
//!
//! 1. A [`ServeClient`] validates the image shape and pushes the request
//!    (image + reply channel) into the bounded **admission queue** — the
//!    same [`blurnet::queue::BoundedQueue`] primitive the experiment
//!    scheduler streams DAG nodes through. A full queue back-pressures the
//!    client instead of growing an unbounded backlog.
//! 2. The single **batcher** thread pops the first waiting request, then
//!    keeps coalescing until the batch holds
//!    [`ServeConfig::max_batch`] requests **or**
//!    [`ServeConfig::flush_window`] has elapsed since the batch opened —
//!    whichever triggers first flushes the batch downstream.
//! 3. A fleet of [`ServeConfig::workers`] **batch workers** (each owning a
//!    prepacked [`blurnet_nn::BatchEngine`] over the shared read-only
//!    weights) pops batches, runs the model's one defended prediction path
//!    ([`blurnet_defenses::DefendedModel::classify`]: the defense's
//!    preprocessing plus one engine pass) through its engine, and answers
//!    every request's reply channel with a [`Classification`].
//!
//! # Determinism
//!
//! Responses are **bit-identical to single-request execution**: shard
//! boundaries, the defense's per-image preprocessing, the row-local
//! softmax confidence and randomized smoothing's per-image noise streams
//! all treat each image independently, so which requests happen to share
//! a batch — and how many workers or rayon threads drain it — can never
//! change any response. The `tests/determinism.rs` suite pins this for
//! every kind of defended inference at batch sizes {1, 4, 32} and worker
//! counts {1, 4}; [`classify_single`] is the reference path.
//!
//! # Shutdown
//!
//! [`ClassifyService::shutdown`] closes the admission queue, flushes the
//! batcher's in-flight batch, drains the batch queue, and joins every
//! thread: requests admitted before the close are always answered, and
//! new submissions fail fast with [`ServeError::Shutdown`].
//!
//! # Failure model & recovery
//!
//! The batcher and workers run under a **supervisor** that respawns any
//! thread that panics mid-run ([`ServiceHealth`] counts the respawns); a
//! batch held by a dying thread is re-enqueued for a surviving worker.
//! A request that deterministically panics the forward pass is isolated
//! by **bisecting its batch** — only the poisoned request gets an error,
//! its batch-mates are recomputed and still return bit-identical answers.
//! Overload is explicit: [`ServeConfig::shed`] turns a full admission
//! queue into [`ServeError::QueueFull`] (retry with backoff), and
//! [`ServeConfig::deadline`] sheds stale queued requests with
//! [`ServeError::DeadlineExceeded`]. See `ARCHITECTURE.md` § "Failure
//! model & recovery".
//!
//! # Wire protocol
//!
//! The [`protocol`] module puts the service behind TCP: a one-line JSON
//! handshake, then length-prefixed little-endian `f32` image payloads and
//! fixed-layout binary responses (confidence transported as raw `f32`
//! bits, so the wire is exactly as deterministic as the engine).

#![warn(missing_docs)]

mod error;
pub mod protocol;
mod service;

use blurnet_defenses::DefenseKind;

pub use error::ServeError;
pub use service::{
    classify_single, Classification, ClassifyService, DefenseVerdict, ServeClient, ServeConfig,
    ServiceHealth, Ticket,
};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Parses the `--defense` spec of the `serve` and `loadgen` binaries:
/// `baseline`, `input-filter:<kernel>` or `feature-filter:<kernel>`.
/// Any other spec is `None`.
pub fn parse_defense(spec: &str) -> Option<DefenseKind> {
    if spec == "baseline" {
        return Some(DefenseKind::Baseline);
    }
    let (name, kernel) = spec.split_once(':')?;
    let kernel: usize = kernel.parse().ok()?;
    match name {
        "input-filter" => Some(DefenseKind::InputFilter { kernel }),
        "feature-filter" => Some(DefenseKind::FeatureFilter { kernel }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_specs_parse() {
        assert_eq!(parse_defense("baseline"), Some(DefenseKind::Baseline));
        assert_eq!(
            parse_defense("input-filter:3"),
            Some(DefenseKind::InputFilter { kernel: 3 })
        );
        assert_eq!(
            parse_defense("feature-filter:5"),
            Some(DefenseKind::FeatureFilter { kernel: 5 })
        );
        for bad in [
            "",
            "Baseline",
            "input-filter",
            "input-filter:",
            "input-filter:x",
            "feature-filter:-1",
            "tv:3",
            "baseline:3",
        ] {
            assert_eq!(parse_defense(bad), None, "{bad:?}");
        }
    }
}
