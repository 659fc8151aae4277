//! # pap-service — the online selection daemon (`papd`)
//!
//! Offline, this repository reproduces the paper's pipeline: benchmark a
//! `(algorithm × arrival pattern)` grid, apply a selection policy, persist
//! a tuning table. This crate closes the loop *online*: a daemon that an
//! MPI library (or a job scheduler) can ask, per collective invocation,
//! *"which algorithm should I run, given how my processes have been
//! arriving?"* — the deployment story for arrival-pattern-aware selection.
//!
//! * [`proto`] — the versioned newline-delimited-JSON wire protocol.
//! * [`server`] — `papd` itself: one epoll event loop for every
//!   connection, slow frames (cold cells, calibration) on a bounded compute
//!   pool, graceful shutdown that drains in-flight frames.
//! * [`store`] — the tier logic: **L1** (LRU of resolved answers, guarded
//!   by evidence generations) → **L2** (precomputed benchmark matrices,
//!   exact then nearest-size) → **L3** (cold cells computed with the model
//!   backend, plus background simulator refinement that upgrades cells in
//!   place).
//! * [`snapshot`] — the warm-restart format shared with `papctl tune
//!   --out`: decisions *and* their evidence matrices, so a restarted
//!   daemon re-applies any policy without re-tuning.
//! * [`client`] — the reference protocol client used by `papctl query`,
//!   the tests, and the loopback benchmark.
//! * [`cli`] — the strict flag parser every `papctl` command and `papd`
//!   use, and the one serve entry (`papd`, `papctl serve`).
//!
//! Queries carrying per-rank arrival samples are classified against the
//! paper's Fig. 3 shapes ([`pap_arrival::classify_delays`]) and answered
//! with the best algorithm *under that pattern*; queries without samples
//! get the robust-average pick (the paper's headline policy).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod client;
mod dispatch;
pub mod proto;
pub mod server;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use client::Client;
pub use proto::{
    decode_reply, decode_request, encode_frame, CalibrateAnswer, CalibrateRequest, ErrorCode,
    ErrorReply, QueryAnswer, QueryRequest, ReplicaCell, ReplicaDump, Reply, ReplyEnvelope, Request,
    RequestEnvelope, StatsReport, Tier, MAX_FRAME_BYTES, PROTO_VERSION,
};
pub use dispatch::REPLICA_PAGE_MAX;
pub use server::{build_store, install_signal_shutdown, ServeConfig, Server, ShutdownHandle};
pub use snapshot::{Snapshot, SnapshotCell, SNAPSHOT_FORMAT};
pub use store::{measure_fault_matrix, CellKey, DefaultPolicy, TierStore};
