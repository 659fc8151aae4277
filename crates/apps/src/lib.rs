//! # pap-apps — mini-app proxies
//!
//! The paper's application study (§V) uses **FT from the NAS Parallel
//! Benchmarks (class D)**: an iterative 3-D FFT whose transpose step is an
//! `MPI_Alltoall` with 32 768-byte per-pair messages; Alltoall consumes
//! 50–70 % of FT's runtime and over 95 % of its MPI time. We build a proxy
//! that preserves exactly those properties:
//!
//! * per-iteration local FFT compute with a **persistent per-rank imbalance**
//!   (node-structured, as OS noise is) plus per-iteration jitter — the
//!   mechanism that generates the application's arrival pattern (Fig. 1),
//! * the transpose `MPI_Alltoall` (pluggable algorithm — the tuning knob the
//!   whole paper is about),
//! * a small per-iteration checksum `MPI_Allreduce`.
//!
//! A second proxy (`stencil`) exercises an Allreduce-dominated workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod ft;
pub(crate) mod imbalance;
pub(crate) mod stencil;

pub use ft::{run_ft, FtConfig};
pub use stencil::{run_stencil, StencilConfig};
