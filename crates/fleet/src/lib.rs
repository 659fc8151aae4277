//! `pap-fleet`: the sharded, replicated, event-driven serving tier over
//! `pap-service`.
//!
//! One `papd` answers selection queries for one machine. A *fleet* scales
//! that out: N shards, each a [`pap_service::Server`] speaking the
//! unchanged wire protocol, with queries routed by consistent hashing
//! over `(machine, collective, ranks)` so every tuning cell's cache lives
//! on exactly one shard. Booting shards warm-replicate the donor shard's
//! L2 evidence over the wire and answer their first query from L2;
//! clients retry transport failures with bounded backoff and fail over
//! clockwise on the ring when a shard dies.
//!
//! * [`ring`] — the consistent-hash ring (FNV-1a, 64 vnodes/shard).
//! * [`replication`] — paged L2 drain over `Replicate` frames.
//! * [`fleet`] — spawn/kill/join of a shard set.
//! * [`client`] — routing, retry, failover, batches, and fleet-wide stats
//!   (one round of `Metrics` snapshots, merged by name).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fleet;
pub mod replication;
pub mod ring;

pub use client::FleetClient;
pub use fleet::{Fleet, FleetConfig};
pub use replication::replicate_from;
pub use ring::Ring;
