//! # pap-microbench — pattern-injecting micro-benchmark harness
//!
//! Reimplementation of the measurement methodology of the paper (Listing 1,
//! §III-B, §IV): for each repetition,
//!
//! 1. synchronize processes in *time* (`MPIX_Harmonize`): agree on a global
//!    start instant; on machines with drifting clocks each rank starts with
//!    its residual HCA3 calibration error,
//! 2. wait the rank's **arrival-pattern delay**,
//! 3. run the collective and record each rank's arrival/exit,
//! 4. report the **last delay** `d̂ = max(eᵢ) − max(aᵢ)` and the total delay
//!    `d* = max(eᵢ) − min(aᵢ)`.
//!
//! The harness also implements the paper's two skew-calibration rules:
//!
//! * **§III-B** — run all algorithms under `NoDelay`, average their
//!   runtimes (`t̄ᵃ`), and generate patterns with max skew
//!   `{0.5, 1.0, 1.5}·t̄ᵃ` ([`calibrate_avg_runtime`]).
//! * **§IV-C (robustness)** — give each algorithm a pattern scaled to *its
//!   own* `NoDelay` runtime `tᵢ` ([`SkewPolicy::PerAlgorithm`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod adaptive;
pub(crate) mod faultgrid;
pub(crate) mod harness;
pub mod profile;
pub(crate) mod stats;
pub mod sweep;

pub use adaptive::{measure_adaptive, StopRule};
pub use faultgrid::{fault_sweep, standard_grid, FaultSweepResult, FAULT_GRID_VERSION};
pub use harness::{measure, Backend, BenchConfig, BenchError, START_TARGET};
pub use profile::{profile, profile_with_faults, Profile};
pub(crate) use stats::RunStats;
pub use sweep::{
    calibrate_avg_runtime, no_delay_runtime, sweep, sweep_cells, SkewPolicy, SweepResult, SweepSpec,
};
