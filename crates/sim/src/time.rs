//! Simulated time: `f64` seconds.

/// Simulated time in seconds. All engine timestamps use this alias; the
/// simulation never produces NaN (asserted at event insertion).
pub(crate) type SimTime = f64;
