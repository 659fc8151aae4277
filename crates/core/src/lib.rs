//! # pap-core — arrival-pattern-aware algorithm selection
//!
//! The paper's contribution (§IV-C, §V-C): instead of selecting the
//! collective algorithm that is fastest when all processes enter
//! simultaneously (the status quo of MPI tuning tools), benchmark every
//! algorithm under a *suite of arrival patterns* and select the one with the
//! best **average normalized runtime across patterns** — the most *robust*
//! algorithm. The paper shows this choice predicts in-application
//! performance (NAS-FT) where the No-delay choice misleads.
//!
//! Pipeline:
//!
//! 1. [`pap_microbench::sweep()`] measures a `(algorithm × pattern)` grid;
//! 2. [`BenchMatrix`] derives the paper's figure semantics — row
//!    normalization (Fig. 8), the within-5 % "good set" (Fig. 5), ±25 %
//!    robustness classes (Fig. 6), per-algorithm averages (Fig. 8 last row);
//! 3. [`select`] applies a [`SelectionPolicy`];
//! 4. [`TuningTable`] persists decisions per (machine, collective, ranks,
//!    message size) — the artifact an MPI library's decision logic consumes;
//! 5. `predict` projects application runtimes from micro-benchmark data
//!    (Fig. 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod decision;
pub(crate) mod diff;
pub(crate) mod fault;
pub(crate) mod matrix;
pub(crate) mod predict;
pub mod report;
pub mod selection;
pub(crate) mod table;
pub mod tuner;

pub use decision::{DecisionLogic, DecisionSource};
pub use diff::{differential_grid, DiffCell};
pub use fault::{render_fault_table, select_fault_robust, FaultMatrix};
pub use matrix::BenchMatrix;
pub use predict::predict_app_runtime;
pub use selection::{select, select_with_faults, SelectionPolicy};
pub use table::{nearer_size, TuningEntry, TuningTable};
pub use tuner::{tune_machine, TunePlan, TuneRecord};
