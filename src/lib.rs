//! # pap — arrival-pattern-aware MPI collective algorithm selection
//!
//! Meta-crate re-exporting the full toolkit built for the reproduction of
//! *"MPI Collective Algorithm Selection in the Presence of Process Arrival
//! Patterns"* (Salimi Beni, Cosenza, Hunold — IEEE CLUSTER 2024).
//!
//! The workspace layers, bottom-up:
//!
//! * [`sim`] — discrete-event cluster/MPI simulator (SimGrid/SMPI substitute)
//! * [`collectives`] — the collective algorithms of Open MPI/SMPI as message
//!   schedules with verified dataflow
//! * [`arrival`] — artificial & measured process arrival patterns
//! * [`clocksync`] — drifting clocks, HCA3-style synchronization, harmonized
//!   starts
//! * [`parallel`] — deterministic ordered fan-out over OS threads
//!   (`PAP_THREADS` / `--threads`)
//! * [`tracer`] — collective tracing (PMPI-substitute)
//! * [`microbench`] — ReproMPI-style micro-benchmark harness with pattern
//!   injection
//! * [`model`] — closed-form LogGP-style cost models: the analytical
//!   prediction backend (`--backend model`), cross-validated against the
//!   simulator by the differential test suite
//! * [`apps`] — NAS-FT proxy and other mini-apps
//! * [`core`] — the paper's contribution: robustness analysis and
//!   arrival-aware algorithm selection
//! * [`calibrate`] — online platform calibration (`papctl calibrate`):
//!   fit LogGP/eager/rendezvous parameters from a measured probe and
//!   onboard machines the toolkit has never seen
//! * [`obs`] — low-overhead observability: atomic-gated span tracing,
//!   unified metrics registry, Perfetto (Chrome Trace Event) export
//!   (`papctl profile`, `--metrics`)
//! * [`lint`] — zero-execution static schedule verifier (`papctl lint`):
//!   message matching, deadlock/protocol-fragility, tag conflicts, request
//!   lifecycle, slot dataflow
//! * [`service`] — `papd`, the online selection daemon (`papctl serve` /
//!   `papctl query`): tiered caching over precomputed tuning evidence,
//!   arrival-sample classification, background sim refinement; one epoll
//!   event loop serves every connection, cold cells run on a compute pool
//! * [`sysio`] — std-only OS plumbing for the serving tier: epoll
//!   readiness polling, signal-driven shutdown flags, fd-limit control
//! * [`fleet`] — sharded serving tier (`papctl fleet …`): consistent-hash
//!   routing, warm shard-to-shard replication; each shard is a `service`
//!   daemon
//! * [`bench`] — the paper's table/figure drivers (`papctl figures …`)
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for the
//! experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pap_apps as apps;
pub use pap_arrival as arrival;
pub use pap_bench as bench;
pub use pap_calibrate as calibrate;
pub use pap_clocksync as clocksync;
pub use pap_collectives as collectives;
pub use pap_core as core;
pub use pap_fleet as fleet;
pub use pap_lint as lint;
pub use pap_microbench as microbench;
pub use pap_model as model;
pub use pap_obs as obs;
pub use pap_parallel as parallel;
pub use pap_service as service;
pub use pap_sim as sim;
pub use pap_sysio as sysio;
pub use pap_tracer as tracer;
