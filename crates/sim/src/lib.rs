//! # pap-sim — discrete-event MPI/network simulator
//!
//! This crate is the substrate that replaces SimGrid/SMPI in the reproduction
//! of *"MPI Collective Algorithm Selection in the Presence of Process Arrival
//! Patterns"* (CLUSTER 2024).
//!
//! It simulates a two-level hierarchical cluster (nodes connected through a
//! switch, several cores per node) and executes, per MPI rank, a sequential
//! program of point-to-point operations with MPI semantics:
//!
//! * **eager** and **rendezvous** message protocols with a configurable
//!   threshold,
//! * FIFO message matching per `(source, destination, tag)` in *send order*
//!   (the MPI non-overtaking rule),
//! * per-node NIC egress/ingress serialization so that incast/outcast
//!   contention (the effect that separates a linear all-to-all from a pairwise
//!   exchange) is modelled,
//! * a LogGP-style cost model: `o_s + L + bytes/bw` per uncontended message,
//! * optional seeded noise models so that "real machine" platforms show
//!   run-to-run variance while the "simulator" platform stays perfectly
//!   reproducible (the property §III of the paper relies on),
//! * optional *dataflow tracking*: every message carries an abstract payload
//!   (which blocks from which origin ranks, or which ranks' contributions a
//!   partial reduction already contains) so the correctness of every
//!   collective algorithm can be verified, not just timed.
//!
//! The engine is deliberately deterministic: given the same [`SimConfig`]
//! seed, a run produces bit-identical timings and statistics.
//!
//! ## Example
//!
//! ```
//! use pap_sim::{Platform, SimConfig, engine::run, program::{Job, Op, RankProgram, Segment}};
//!
//! // Two ranks ping-pong one eager message.
//! let platform = Platform::simcluster(2);
//! let p0 = RankProgram::from_ops(vec![
//!     Op::send(1, 7, 64, 0),
//!     Op::recv(1, 8, 0),
//! ]);
//! let p1 = RankProgram::from_ops(vec![
//!     Op::recv(0, 7, 0),
//!     Op::send(0, 8, 64, 0),
//! ]);
//! let out = run(&platform, Job::new(vec![p0, p1]), &SimConfig::default()).unwrap();
//! assert!(out.finish[0] > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
pub mod data;
pub mod engine;
pub(crate) mod fault;
pub(crate) mod noise;
pub(crate) mod platform;
pub mod program;
pub(crate) mod time;
pub mod timeline;

pub use data::{SlotInit, Value};
pub use engine::{run, run_par, run_ref, run_with_arrivals, RunOutcome, SimError};
pub use fault::{FaultSpec, ANY_NODE};
pub use noise::NoiseModel;
pub use platform::{register_custom_platform, LinkParams, MachineId, Platform, PlatformSpec};
pub use program::{Job, Label, Op, RankProgram, Segment};

/// Engine configuration: RNG seed, noise model, and whether message payloads
/// are tracked for dataflow verification.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all stochastic components (noise). Two runs with the same
    /// seed and inputs are bit-identical.
    pub seed: u64,
    /// Track abstract payloads through every message and local reduction so
    /// that collective correctness can be asserted after the run. Costs time
    /// and memory; disable for large timing sweeps.
    pub track_data: bool,
    /// Noise applied to operation durations. [`NoiseModel::None`] reproduces
    /// the "simulation" setting of the paper (perfectly reproducible);
    /// the machine presets carry their own default noise used by the
    /// micro-benchmark layer.
    pub noise: NoiseModel,
    /// Record one [`engine::MsgEvent`] per delivered message (the SMPI-style
    /// tracing view of a run). Costs memory proportional to the message
    /// count; off by default.
    pub record_messages: bool,
    /// Runtime faults injected into the run (rank stalls/crashes, link
    /// slowdown windows, noise storms). [`FaultSpec::none`] — the default —
    /// takes exactly the fault-free code paths, so output is bit-identical
    /// to a run without the field. Faults apply at deterministic simulated
    /// timestamps, so a faulted run repeats byte-identically.
    pub faults: FaultSpec,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            track_data: false,
            noise: NoiseModel::None,
            record_messages: false,
            faults: FaultSpec::none(),
        }
    }
}

impl SimConfig {
    /// Configuration with dataflow tracking enabled (for correctness tests).
    pub fn tracking() -> Self {
        Self { track_data: true, ..Self::default() }
    }

    /// Configuration with message-event recording enabled (for timelines).
    pub fn recording() -> Self {
        Self { record_messages: true, ..Self::default() }
    }

    /// Replace the seed, keeping everything else.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the fault spec, keeping everything else.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}
