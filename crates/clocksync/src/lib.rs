//! # pap-clocksync — clock models, HCA3-style synchronization, harmonize
//!
//! The paper's measurement methodology (§II-B, §IV-A) depends on two pieces
//! of infrastructure that do not exist on a machine with independent,
//! drifting node clocks:
//!
//! 1. **A precise logical global clock** — provided on real machines by
//!    HCA3 (Hunold & Carpen-Amarie, CLUSTER'18), which synchronizes MPI
//!    processes in a logarithmic number of ping-pong rounds and achieves
//!    sub-microsecond accuracy.
//! 2. **`MPIX_Harmonize`** (Schuchart, Hunold, Bosilca, EuroMPI'23) — agree
//!    on a *future* global start time and have every rank spin until its
//!    local estimate of that instant, so that arrival patterns can be
//!    replayed precisely (Listing 1 of the paper).
//!
//! This crate models both: per-node linear clocks (offset + drift + read
//! jitter), an HCA3-style hierarchical estimator built from simulated NTP
//! ping-pongs (minimum-RTT selection, two-pass drift regression, binomial
//! propagation from a reference node), and harmonized starts that translate
//! a requested global instant into per-rank *true* start times including the
//! residual synchronization error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod clock;
pub(crate) mod harmonize;
pub(crate) mod hca3;

pub use clock::ClusterClocks;
pub use harmonize::{harmonize_starts, observe};
pub use hca3::{sync_cluster, sync_cluster_offset_only, Hca3Config, SyncedClock};
