//! The sharded, replicated, event-driven serving tier over `papd`.
//!
//! One `papd` answers selection queries for one machine. A *fleet* scales
//! that out: N shards, each a [`crate::Server`] speaking the
//! unchanged wire protocol, with queries routed by consistent hashing
//! over `(machine, collective, ranks)` so every tuning cell's cache lives
//! on exactly one shard. Booting shards warm-replicate the donor shard's
//! L2 evidence over the wire and answer their first query from L2;
//! clients retry transport failures with bounded backoff and fail over
//! clockwise on the ring when a shard dies.
//!
//! * [`Ring`] — the consistent-hash ring (FNV-1a, 64 vnodes/shard).
//! * [`Fleet`] — spawn/kill/join of a shard set; later shards warm up by
//!   a paged drain of shard 0's L2 over `Replicate` frames.
//! * [`FleetClient`] — routing, retry, failover, batches, and fleet-wide stats
//!   (one round of `Metrics` snapshots, merged by name).

pub(crate) mod client;
#[allow(clippy::module_inception)]
pub(crate) mod fleet;
pub(crate) mod replication;
pub(crate) mod ring;

pub use client::FleetClient;
pub use fleet::{Fleet, FleetConfig};
pub use ring::Ring;
