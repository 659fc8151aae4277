//! # pap-calibrate — online platform calibration
//!
//! Onboard a machine the selection pipeline has never seen: measure a short
//! probe (ping-pong ladder + one small collective, skew-corrected through
//! `pap-clocksync`), fit the piecewise-linear LogGP parameters `pap-model`
//! and `pap-sim` consume by weighted least squares, reject bad fits with
//! Hunold-style guideline checks, and register the result as a
//! `MachineId::Custom` platform that the daemon serves like any preset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod check;
pub(crate) mod fit;
pub(crate) mod probe;

pub use check::{selection_agreement, AgreementReport, CHECK_RANKS};
pub use fit::{fit_probe, FitReport};
pub use probe::{synthesize_probe, Probe, ProbeConfig};
