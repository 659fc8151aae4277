//! # pap-bench — experiment drivers
//!
//! One driver per table/figure of the paper, plus the engine scalability
//! probe [`scale_table`]. `papctl figures <name>` parses a [`Scale`] and
//! prints a driver's output; the drivers are ordinary library functions so
//! the integration test suite can execute them at reduced scale.
//!
//! Scale defaults are sized for a single-core CI-class machine
//! (256 ranks); pass `--full` for the paper's 32×32 = 1024 ranks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod figures;
mod scale;

pub use figures::*;
pub use scale::scale_table;

/// Experiment scale knobs (`papctl figures … --ranks N --nrep N --seed N
/// --quick | --full`).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// MPI ranks (paper: 1024 = 32 nodes × 32 cores).
    pub ranks: usize,
    /// Repetitions for noisy (real-machine) measurements.
    pub nrep: usize,
    /// Reduced size/pattern grids for smoke runs.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { ranks: 256, nrep: 3, quick: false, seed: 0xCAFE }
    }
}

impl Scale {
    /// A tiny scale for integration tests.
    pub fn tiny() -> Scale {
        Scale { ranks: 16, nrep: 2, quick: true, seed: 7 }
    }
}
