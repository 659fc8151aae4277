//! Order statistics used by every workload: quantiles, medians, geometric
//! means and the open-loop bookkeeping (latency from the scheduled send
//! time, generator lateness).

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks (the "type 7" rule numpy and R use by default).
/// `None` on an empty slice or a non-finite sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) || samples.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (see [`quantile`]).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Geometric mean of strictly positive values; `None` when empty or when a
/// value is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The median over `windows` consecutive, equal slices of `samples` of
/// each slice's `q`-quantile. A stall that hits one slice moves the
/// result far less than it moves the quantile of the pooled samples.
pub fn windowed_quantile(samples: &[f64], windows: usize, q: f64) -> Option<f64> {
    if windows == 0 || samples.len() < windows {
        return None;
    }
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            quantile(
                &samples[w * samples.len() / windows..(w + 1) * samples.len() / windows],
                q,
            )
        })
        .collect::<Option<_>>()?;
    median(&per)
}

/// Completion rates (1/s) of consecutive chunks of `chunk` completions,
/// from completion instants in order; the first chunk is timed from
/// `start`. A trailing partial chunk is dropped.
pub fn chunk_rates(start: Instant, done: &[Instant], chunk: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut from = start;
    for group in done.chunks_exact(chunk.max(1)) {
        let to = group[group.len() - 1];
        let secs = to.saturating_duration_since(from).as_secs_f64();
        if secs > 0.0 {
            rates.push(group.len() as f64 / secs);
        }
        from = to;
    }
    rates
}

/// Seconds as f64 milliseconds / microseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// See [`ms`].
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One open-loop request: when it was due, when the generator actually
/// wrote it, and when its reply arrived.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    /// Scheduled send time.
    pub due: Instant,
    /// Time the frame was written.
    pub sent: Instant,
    /// Time the reply was read (`None`: no reply).
    pub replied: Option<Instant>,
}

impl OpenLoopSample {
    /// Latency timed from the scheduled send time, so a stall that delays
    /// the generator is charged to every request it pushed back.
    pub fn latency(&self) -> Option<Duration> {
        self.replied.map(|r| r.saturating_duration_since(self.due))
    }

    /// How late the generator wrote this request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Summary of one open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSummary {
    /// Latency quantiles (µs) from the scheduled send time: the median
    /// over consecutive windows (see [`LATENCY_WINDOWS`]) of each window's p50.
    pub p50_us: f64,
    /// Likewise the windows' 90th percentile.
    pub p90_us: f64,
    /// 99th percentile (µs) of the pooled samples.
    pub p99_us: f64,
    /// Worst generator lateness (ms).
    pub max_late_ms: f64,
}

/// Most windows an open-loop phase is cut into. Host stalls on the
/// reference host hit a few windows of a run hard and leave the rest alone.
pub const LATENCY_WINDOWS: usize = 12;
/// Fewest samples per window, so each keeps 30 samples past its p90.
pub const WINDOW_SAMPLES: usize = 300;

/// Summarise an open-loop phase; `None` if no request got a reply.
pub fn summarize_open_loop(samples: &[OpenLoopSample]) -> Option<OpenLoopSummary> {
    let lat: Vec<f64> = samples.iter().filter_map(|s| s.latency()).map(us).collect();
    let max_late = samples
        .iter()
        .map(|s| s.lateness())
        .max()
        .unwrap_or_default();
    let windows = (lat.len() / WINDOW_SAMPLES).clamp(1, LATENCY_WINDOWS);
    Some(OpenLoopSummary {
        p50_us: windowed_quantile(&lat, windows, 0.5)?,
        p90_us: windowed_quantile(&lat, windows, 0.9)?,
        p99_us: quantile(&lat, 0.99)?,
        max_late_ms: ms(max_late),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        // Same rule as Python's statistics.quantiles(..., method="inclusive").
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&ten, 0.9).unwrap() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_empty_and_non_finite_input() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn windowed_quantile_shrugs_off_one_stalled_window() {
        // Five windows of ten samples; one window stalled at 100x.
        let mut xs = vec![1.0; 50];
        for x in &mut xs[10..20] {
            *x = 100.0;
        }
        assert_eq!(windowed_quantile(&xs, 5, 0.9), Some(1.0));
        // The pooled p90 lands inside the stall.
        assert!(quantile(&xs, 0.9).unwrap() > 50.0);
        assert_eq!(windowed_quantile(&xs, 0, 0.5), None);
        assert_eq!(windowed_quantile(&xs[..3], 5, 0.5), None);
    }

    #[test]
    fn chunk_rates_time_consecutive_groups() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // 2 completions per chunk: 2 in 10 ms, 2 in 20 ms, then a partial.
        let done = [at(5), at(10), at(20), at(30), at(35)];
        let rates = chunk_rates(t0, &done, 2);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 200.0).abs() < 1e-6);
        assert!((rates[1] - 100.0).abs() < 1e-6);
        assert!(chunk_rates(t0, &done[..1], 2).is_empty());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let samples = [
            // On time: 100 µs of service.
            OpenLoopSample {
                due: at(0),
                sent: at(0),
                replied: Some(at(100)),
            },
            // The generator ran 300 µs late; the wait counts as latency.
            OpenLoopSample {
                due: at(1000),
                sent: at(1300),
                replied: Some(at(1400)),
            },
            // Never answered.
            OpenLoopSample {
                due: at(2000),
                sent: at(2000),
                replied: None,
            },
        ];
        assert_eq!(samples[1].latency(), Some(Duration::from_micros(400)));
        assert_eq!(samples[1].lateness(), Duration::from_micros(300));
        let s = summarize_open_loop(&samples).unwrap();
        // Two replies, one window: their median.
        assert!((s.p50_us - 250.0).abs() < 1e-6);
        assert!((s.max_late_ms - 0.3).abs() < 1e-9);
    }

    #[test]
    fn open_loop_summary_needs_a_reply() {
        let t0 = Instant::now();
        let lost = [OpenLoopSample {
            due: t0,
            sent: t0,
            replied: None,
        }];
        assert_eq!(summarize_open_loop(&lost), None);
    }
}
