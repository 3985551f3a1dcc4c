//! Top-level package of the BlurNet reproduction workspace.
//!
//! This package exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the functionality lives in the
//! `blurnet-*` crates under `crates/`.
//!
//! See `README.md` for the repository layout and `docs/ARCHITECTURE.md`
//! for the mapping from the paper's systems and experiments to modules and
//! the substitutions this reproduction makes.
