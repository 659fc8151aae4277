//! # pap-arrival — process arrival patterns
//!
//! The paper (§II-A, §III-B) studies how the *process arrival pattern* — the
//! per-rank skew with which MPI processes enter a collective — changes which
//! collective algorithm is fastest. This crate provides:
//!
//! * the **eight artificial shapes** of Fig. 3 ([`Shape`]),
//! * a deterministic **generator** ([`generate`]) parameterized by shape,
//!   process count and *maximum process skew* `s` (the paper's §III-B),
//! * the paper's **file format** (p lines, line *i* = skew of process *i*),
//! * [`MeasuredPattern`]s imported from application traces (the
//!   "FT-Scenario"), with rescaling and shape classification.
//!
//! All delays are in **seconds**; every delay lies in `[0, s]` and, for
//! non-trivial shapes, the maximum equals `s` exactly so that patterns with
//! the same `s` are comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod measured;
pub(crate) mod pattern;
pub(crate) mod shapes;

pub use measured::{classify_delays, MeasuredPattern};
pub use pattern::{render_pattern_file, ArrivalPattern};
pub use shapes::{generate, Shape};

#[cfg(test)]
mod proptests;
