//! # pap-collectives — collective algorithms as verified message schedules
//!
//! From-scratch implementations of the collective-communication algorithms
//! that Open MPI's `tuned` module and SimGrid/SMPI provide, expressed as
//! per-rank [`pap_sim::Op`] schedules. The algorithm set and the ID ↔ name
//! mapping reproduce **Table II** of the paper:
//!
//! | Collective | IDs and names |
//! |---|---|
//! | Allreduce | 1 Linear, 2 Non-overlapping, 3 Recursive Doubling, 4 Ring, 5 Segmented Ring, 6 Rabenseifner |
//! | Alltoall  | 1 Linear, 2 Pairwise, 3 Modified Bruck, 4 Linear with Sync |
//! | Reduce    | 1 Linear, 2 Chain, 3 Pipeline, 4 Binary, 5 Binomial, 6 In-order Binary, 7 Rabenseifner |
//!
//! plus Bcast and Barrier as substrates (needed by the reduce+bcast
//! Allreduce variants and by harmonized starts), and SMPI-style aliases for
//! the simulation study of §III (`rdb`, `lr`, `rab_rdb`,
//! `ompi_ring_segmented`, `redbcast`, `bruck`, `basic_linear`, `pair`,
//! `ompi_binomial`, `ompi_in_order_binary`, `scatter_gather`, …).
//!
//! Every schedule moves *abstract payloads* through the simulator, so each
//! algorithm is verified to actually implement its collective ([`verify()`](verify())),
//! not merely to cost like it.
//!
//! ## Example: build and run a binomial reduce
//!
//! ```
//! use pap_collectives::{build, verify, CollSpec, CollectiveKind};
//! use pap_sim::{run, Job, Platform, RankProgram, SimConfig};
//!
//! let p = 8;
//! let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024); // ID 5 = binomial
//! let built = build(&spec, p).unwrap();
//! let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
//! let out = run(&Platform::simcluster(p), Job::new(programs), &SimConfig::tracking()).unwrap();
//! verify(&spec, p, &out).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod adaptive;
pub(crate) mod allgather;
pub(crate) mod allreduce;
pub(crate) mod alltoall;
pub(crate) mod gather;
pub(crate) mod scatter;
pub(crate) mod barrier;
pub(crate) mod bcast;
pub(crate) mod reduce;
pub mod registry;
pub(crate) mod spec;
pub(crate) mod steps;
pub mod topo;
pub(crate) mod verify;

pub use adaptive::build_arrival_aware_reduce;
pub use registry::CollectiveKind;
pub use spec::{build, BuildError, Built, CollSpec, DEFAULT_SEG_BYTES, TAG_SPAN};
pub use verify::verify;
