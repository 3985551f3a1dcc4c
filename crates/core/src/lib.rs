//! # BlurNet: defense by filtering the feature maps
//!
//! A from-scratch Rust reproduction of *BlurNet: Defense by Filtering the
//! Feature Maps* (Raju & Lipasti, DSN Workshops 2020).
//!
//! The crate is the public facade of the workspace: it re-exports the
//! substrates (tensor math, signal processing, the CNN framework, the
//! synthetic LISA dataset, the attacks and the defenses) and adds the
//! experiment harness that regenerates every table and figure of the
//! paper's evaluation:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`experiments::table1`] | Table I — black-box transfer: input vs feature-map filtering |
//! | [`experiments::table2`] | Table II — white-box evaluation of all defenses |
//! | [`experiments::table3`] | Table III — adaptive attacks per defense |
//! | [`experiments::table4`] | Table IV — PGD breaks every defense |
//! | [`experiments::table5`] | Table V — adversarial training vs adaptive attacks |
//! | [`experiments::figures`] | Figures 1–6 — spectra, DCT sweep, ASR/L2 scatters |
//!
//! # Quick start
//!
//! ```no_run
//! use blurnet::{ModelZoo, Scale};
//! use blurnet_defenses::DefenseKind;
//!
//! let mut zoo = ModelZoo::new(Scale::Smoke, 7)?;
//! let mut model = zoo.get_or_train(&DefenseKind::TotalVariation { alpha: 1e-4 })?;
//! let accuracy = model.accuracy(&zoo.dataset().test_batch()?)?;
//! println!("legitimate accuracy: {accuracy:.3}");
//! # Ok::<(), blurnet::BlurNetError>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod experiments;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod journal;
pub mod queue;
pub mod report;
pub mod resume;
pub mod runner;
pub mod scale;
pub mod scheduler;
pub mod zoo;

pub use error::BlurNetError;
pub use journal::{JournalError, JournalHeader, JournalWriter, RecoveredJournal};
pub use queue::{run_workers, BoundedQueue, PopTimeout, TryPush};
pub use report::{CellOutput, CellReport, CellStatus, RunReport, Table};
pub use resume::{plan_resume, resume_run, ResumePlan, ResumedRun};
pub use runner::BatchRunner;
pub use scale::Scale;
pub use scheduler::{ExperimentScheduler, RunProfile, ScheduledRun};
pub use zoo::ModelZoo;

pub use blurnet_attacks as attacks;
pub use blurnet_data as data;
pub use blurnet_defenses as defenses;
pub use blurnet_nn as nn;
pub use blurnet_signal as signal;
pub use blurnet_tensor as tensor;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, BlurNetError>;

/// Evaluates a registered fault point (see the `fault` module, present
/// only with the `fault-injection` feature) — and expands to
/// **nothing** when the invoking crate's `fault-injection` feature is off,
/// so production builds carry neither the branch nor the site-name string.
///
/// Three forms:
///
/// * `fault_point!(site)` — statement form: executes `Panic`/`Delay`
///   faults, ignores `Error` faults (the site has no error path).
/// * `fault_point!(site, tag = expr)` — like the statement form, but the
///   invocation carries a tag for `fault::FaultSpec::tagged` filters.
/// * `fault_point!(site, err = expr)` — executes `Panic`/`Delay` faults
///   and `return`s `Err(expr)` from the enclosing function when an
///   `Error` fault fires.
///
/// Downstream crates (e.g. `blurnet-serve`) must declare their own
/// `fault-injection` feature forwarding to `blurnet/fault-injection`; the
/// `cfg` inside the expansion is resolved against the *invoking* crate.
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {{
        #[cfg(feature = "fault-injection")]
        {
            let _ = $crate::fault::fire($site);
        }
    }};
    ($site:expr, tag = $tag:expr) => {{
        #[cfg(feature = "fault-injection")]
        {
            let _ = $crate::fault::fire_tagged($site, $tag);
        }
    }};
    ($site:expr, err = $err:expr) => {{
        #[cfg(feature = "fault-injection")]
        {
            if $crate::fault::fire($site) {
                return Err($err);
            }
        }
    }};
}
