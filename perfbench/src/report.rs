//! The result document one workload run prints: metrics by name and unit,
//! output checks, and failed/attempted counts, as one JSON line.

use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`setup_s`, `sim.run_ref_ms.<job>`, …).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts compared, first mismatch, …).
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tuned cells, engine runs, queries).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Output checks; the run is correct iff every check holds.
    pub checks: Vec<Check>,
    /// The gated metrics: end-to-end (untraced run) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Supporting figures printed for the reader but not gated.
    pub report: Vec<Metric>,
    /// Self-checks of the measurement itself (orderings, layer sums);
    /// reported, never folded into correctness, since they are timings.
    pub selfchecks: Vec<Check>,
}

impl Outcome {
    /// Record a gated metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a supporting figure.
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.report.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Record a measurement self-check.
    pub fn selfcheck(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.selfchecks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn attempt(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Every check held, nothing failed, and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result document as one JSON line.
    pub fn to_json(&self, head: &[(&str, String)]) -> String {
        let mut s = String::from("{");
        for (k, v) in head {
            let _ = write!(s, "{}:{},", quote(k), v);
        }
        let _ = write!(
            s,
            "\"correct\":{},\"attempted\":{},\"failed\":{},",
            self.correct(),
            self.attempted,
            self.failed
        );
        let _ = write!(s, "\"metrics\":{},", metrics_json(&self.metrics));
        let _ = write!(s, "\"report\":{},", metrics_json(&self.report));
        let _ = write!(s, "\"checks\":{},", checks_json(&self.checks));
        let _ = write!(s, "\"selfchecks\":{}}}", checks_json(&self.selfchecks));
        s
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn checks_json(checks: &[Check]) -> String {
    let body: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                quote(&c.name),
                c.ok,
                quote(&c.detail)
            )
        })
        .collect();
    format!("[{}]", body.join(","))
}

/// A JSON number; non-finite values become `null` (and fail [`Outcome::correct`]).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{}` on f64 prints the shortest round-trip form, never exponents.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_requires_checks_attempts_and_finite_metrics() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted");
        o.attempt(10, 0);
        o.metric("rate_per_s", 12.5, "1/s");
        o.check("table", true, "");
        assert!(o.correct());
        // A failed self-check is a finding about the measurement, not the
        // program: correctness is unaffected.
        o.selfcheck("order", false, "l1 > miss");
        assert!(o.correct());
        o.metric("latency_ms", f64::NAN, "ms");
        assert!(!o.correct());
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.attempt(3, 1);
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.attempt(3, 0);
        o.check("answers", false, "query 7: alg 3 != 5");
        assert!(!o.correct());
    }

    #[test]
    fn json_line_escapes_and_keeps_digits() {
        let mut o = Outcome::default();
        o.attempt(2, 0);
        o.metric("setup_s", 0.812734, "s");
        o.check("quote \"x\"", true, "a\nb");
        let line = o.to_json(&[("workload", quote("tune"))]);
        assert!(line
            .starts_with("{\"workload\":\"tune\",\"correct\":true,\"attempted\":2,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.812734,\"unit\":\"s\"}"));
        assert!(line.contains("quote \\\"x\\\""));
        assert!(line.contains("a\\nb"));
        assert!(!line.contains('\n'));
        assert_eq!(number(f64::INFINITY), "null");
    }
}
