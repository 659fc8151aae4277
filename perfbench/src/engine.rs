//! The `engine` workload: single huge simulator jobs through `run_ref`,
//! the path the harness uses, plus schedule build at scale.

use std::time::Instant;

use pap_collectives::{build, CollSpec, CollectiveKind};
use pap_sim::{run_par, run_ref, Job, Platform, RankProgram, RunOutcome, SimConfig};

use crate::report::Outcome;
use crate::stats::{geomean, median};
use crate::{host, trace};

/// One engine job with its recorded exact counts.
#[derive(Debug, Clone, Copy)]
pub struct JobDef {
    /// Job name (metric suffix).
    pub name: &'static str,
    /// Collective.
    pub kind: CollectiveKind,
    /// Algorithm ID.
    pub alg: u8,
    /// Message size (collective convention).
    pub bytes: u64,
    /// Pipeline segments (`None`: default segmentation).
    pub segments: Option<u64>,
    /// Ranks (SimCluster scaled out).
    pub ranks: usize,
    /// Recorded event count of one run.
    pub events: u64,
    /// Recorded message count of one run.
    pub messages: u64,
    /// Set-ups per workload run (median reported).
    pub setups: usize,
    /// Host seconds of one steady `run_ref` on the reference host (2-core
    /// x86-64 VM); with `share` it fixes the repetition count.
    pub nominal_run_s: f64,
    /// Share of `--seconds` spent on this job's steady runs.
    pub share: f64,
}

/// The three jobs: an eager recursive-doubling allreduce on the calendar
/// queue, a rendezvous pipelined reduce whose schedule is the largest
/// build, and a linear alltoall where the sequential engine is superlinear.
pub const JOBS: [JobDef; 3] = [
    JobDef {
        name: "allreduce_rdb_8k_10240",
        kind: CollectiveKind::Allreduce,
        alg: 3,
        bytes: 8 * 1024,
        segments: None,
        ranks: 10_240,
        events: 139_264,
        messages: 110_592,
        setups: 3,
        nominal_run_s: 0.062,
        share: 0.1,
    },
    JobDef {
        name: "reduce_pipeline_1m_10240",
        kind: CollectiveKind::Reduce,
        alg: 3,
        bytes: 1 << 20,
        segments: Some(128),
        ranks: 10_240,
        events: 83_387,
        messages: 1_310_592,
        setups: 3,
        nominal_run_s: 0.33,
        share: 0.25,
    },
    JobDef {
        name: "alltoall_linear_1k_512",
        kind: CollectiveKind::Alltoall,
        alg: 1,
        bytes: 1024,
        segments: None,
        ranks: 512,
        events: 491_520,
        messages: 261_632,
        setups: 2,
        nominal_run_s: 3.7,
        share: 0.65,
    },
];

impl JobDef {
    /// The collective spec.
    pub fn spec(&self) -> CollSpec {
        let spec = CollSpec::new(self.kind, self.alg, self.bytes);
        match self.segments {
            Some(n) => spec.with_seg_bytes(self.bytes / n),
            None => spec,
        }
    }

    /// The platform (SimCluster grown to the rank count).
    pub fn platform(&self) -> Platform {
        Platform::simcluster(self.ranks)
    }

    /// Steady repetitions that fit this job's share of `seconds`.
    pub fn reps(&self, seconds: f64) -> usize {
        ((seconds * self.share / self.nominal_run_s).round() as usize).max(2)
    }

    /// `None` if `out` has the recorded counts, else what differs.
    pub fn count_mismatch(&self, out: &RunOutcome) -> Option<String> {
        (out.events != self.events || out.messages != self.messages).then(|| {
            format!(
                "{}: {} events / {} messages, recorded {} / {}",
                self.name, out.events, out.messages, self.events, self.messages
            )
        })
    }
}

/// The engine configuration (noise-free; the seed has no effect on the
/// outcome, and the recorded counts hold for every seed).
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig::default().with_seed(seed)
}

/// Build the job's schedule and wrap it in a `Job`.
pub fn make_job(def: &JobDef) -> Result<Job, String> {
    let built = build(&def.spec(), def.ranks).map_err(|e| format!("{}: build: {e}", def.name))?;
    Ok(Job::new(
        built
            .rank_ops
            .into_iter()
            .map(RankProgram::from_ops)
            .collect(),
    ))
}

/// First difference between two outcomes of the same job (every time
/// compared by bits, every count exactly), or `None` if byte-identical.
pub fn outcome_diff(a: &RunOutcome, b: &RunOutcome) -> Option<String> {
    if (a.events, a.messages) != (b.events, b.messages) {
        return Some(format!(
            "counts {}/{} vs {}/{}",
            a.events, a.messages, b.events, b.messages
        ));
    }
    if a.finish.len() != b.finish.len() || a.phases.len() != b.phases.len() {
        return Some("different rank or phase counts".into());
    }
    if let Some(r) = a
        .finish
        .iter()
        .zip(&b.finish)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        return Some(format!(
            "rank {r} finishes at {} vs {}",
            a.finish[r], b.finish[r]
        ));
    }
    let same_phase = |x: &pap_sim::engine::PhaseRecord, y: &pap_sim::engine::PhaseRecord| {
        x.rank == y.rank
            && x.label == y.label
            && x.enter.to_bits() == y.enter.to_bits()
            && x.exit.to_bits() == y.exit.to_bits()
    };
    if let Some(i) = a
        .phases
        .iter()
        .zip(&b.phases)
        .position(|(x, y)| !same_phase(x, y))
    {
        return Some(format!("phase record {i} differs"));
    }
    if a.data_errors != b.data_errors {
        return Some("data errors differ".into());
    }
    None
}

/// The untraced workload run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cfg = sim_config(seed);
    let mut setup_total = 0.0;
    let mut rates = Vec::new();
    let mut run_ms = Vec::new();
    let mut bad_counts = Vec::new();
    for def in &JOBS {
        let platform = def.platform();
        // Set-up: schedule build, `Job` construction and the first run,
        // where the op stream is compiled. Each repetition drops the
        // previous job first, so at most one is alive.
        let mut setups = Vec::new();
        let mut job = None;
        for _ in 0..def.setups {
            job = None;
            let t = Instant::now();
            let made = make_job(def).and_then(|j| {
                let first =
                    run_ref(&platform, &j, &cfg).map_err(|e| format!("{}: {e}", def.name))?;
                Ok((j, first))
            });
            setups.push(t.elapsed().as_secs_f64());
            match made {
                Ok((j, first)) => {
                    out.attempt(1, 0);
                    bad_counts.extend(def.count_mismatch(&first));
                    job = Some(j);
                }
                Err(e) => {
                    out.attempt(1, 1);
                    bad_counts.push(e);
                }
            }
        }
        setup_total += median(&setups).unwrap_or(f64::NAN);
        let Some(job) = job else { continue };

        let mut times = Vec::new();
        for _ in 0..def.reps(seconds) {
            let t = Instant::now();
            let res = run_ref(&platform, &job, &cfg);
            times.push(t.elapsed().as_secs_f64());
            match res {
                Ok(o) => {
                    out.attempt(1, 0);
                    bad_counts.extend(def.count_mismatch(&o));
                }
                Err(e) => {
                    out.attempt(1, 1);
                    bad_counts.push(format!("{}: {e}", def.name));
                }
            }
        }
        let steady = median(&times).unwrap_or(f64::NAN);
        rates.push(def.messages as f64 / steady);
        run_ms.push(steady * 1e3);
        out.info(
            format!("sim_msgs_per_s.{}", def.name),
            def.messages as f64 / steady,
            "1/s",
        );
        out.info(format!("run_ref_ms.{}", def.name), steady * 1e3, "ms");
        out.info(
            format!("setup_s.{}", def.name),
            median(&setups).unwrap_or(f64::NAN),
            "s",
        );
    }
    out.check(
        "engine_counts_match_recorded",
        bad_counts.is_empty(),
        bad_counts
            .first()
            .cloned()
            .unwrap_or_else(|| "every run has the recorded events and messages".into()),
    );
    let rate = if rates.len() == JOBS.len() {
        geomean(&rates)
    } else {
        None
    };
    let latency = if run_ms.len() == JOBS.len() {
        geomean(&run_ms)
    } else {
        None
    };
    out.metric("setup_s", setup_total, "s");
    out.metric(
        "peak_rss_mib",
        host::peak_rss_mib(None).unwrap_or(f64::NAN),
        "MiB",
    );
    out.metric("rate_per_s", rate.unwrap_or(f64::NAN), "1/s");
    out.metric("latency_ms", latency.unwrap_or(f64::NAN), "ms");
    out.info("sim_msgs_per_s", rate.unwrap_or(f64::NAN), "1/s");
    out
}

/// Per-layer probe of one job, traced: build, `Job::new`, first run,
/// steady `run_ref`s and `run_par(2)`s, each in its own span. `run_par(2)`
/// must be byte-identical to `run_ref`. Returns the observed (events,
/// messages) of a run.
pub fn probe(def: &JobDef, seed: u64, out: &mut Outcome) -> Option<(u64, u64)> {
    let cfg = sim_config(seed);
    let platform = def.platform();
    let span = |layer: &str| trace::name(format!("{layer}.{}", def.name));
    let built = trace::span(span("collectives.build"), || build(&def.spec(), def.ranks));
    let built = match built {
        Ok(b) => b,
        Err(e) => {
            out.attempt(1, 1);
            out.check(
                format!("engine_probe.{}", def.name),
                false,
                format!("build: {e}"),
            );
            return None;
        }
    };
    let job = trace::span(span("sim.job"), || {
        Job::new(
            built
                .rank_ops
                .into_iter()
                .map(RankProgram::from_ops)
                .collect(),
        )
    });
    let mut problems = Vec::new();
    let mut reference = None;
    let first = trace::span(span("sim.first_run"), || run_ref(&platform, &job, &cfg));
    let steady_reps = (2.0 / def.nominal_run_s).round().clamp(1.0, 5.0) as usize;
    for result in std::iter::once(first).chain(
        (0..steady_reps)
            .map(|_| trace::span(span("sim.run_ref"), || run_ref(&platform, &job, &cfg))),
    ) {
        match result {
            Ok(o) => {
                out.attempt(1, 0);
                problems.extend(def.count_mismatch(&o));
                reference.get_or_insert(o);
            }
            Err(e) => {
                out.attempt(1, 1);
                problems.push(e.to_string());
            }
        }
    }
    for _ in 0..2 {
        match trace::span(span("sim.run_par2"), || run_par(&platform, &job, &cfg, 2)) {
            Ok(o) => {
                out.attempt(1, 0);
                if let Some(d) = reference.as_ref().and_then(|r| outcome_diff(r, &o)) {
                    problems.push(format!("run_par(2) differs from run_ref: {d}"));
                }
            }
            Err(e) => {
                out.attempt(1, 1);
                problems.push(format!("run_par(2): {e}"));
            }
        }
    }
    out.check(
        format!("engine_probe.{}", def.name),
        problems.is_empty(),
        problems
            .first()
            .cloned()
            .unwrap_or_else(|| "counts recorded; run_par(2) byte-identical".into()),
    );
    reference.map(|o| (o.events, o.messages))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Platform, Job) {
        let built = build(&CollSpec::new(CollectiveKind::Allreduce, 3, 1024), 8).expect("build");
        (
            Platform::simcluster(8),
            Job::new(
                built
                    .rank_ops
                    .into_iter()
                    .map(RankProgram::from_ops)
                    .collect(),
            ),
        )
    }

    #[test]
    fn run_ref_and_run_par_are_byte_identical_on_a_small_job() {
        let (platform, job) = small();
        let cfg = sim_config(3);
        let a = run_ref(&platform, &job, &cfg).expect("run");
        let b = run_par(&platform, &job, &cfg, 2).expect("run");
        assert_eq!(outcome_diff(&a, &b), None);
    }

    #[test]
    fn outcome_diff_sees_one_flipped_bit_and_count_changes() {
        let (platform, job) = small();
        let a = run_ref(&platform, &job, &sim_config(3)).expect("run");
        let mut b = a.clone();
        b.finish[5] = f64::from_bits(b.finish[5].to_bits() ^ 1);
        assert!(outcome_diff(&a, &b).unwrap().contains("rank 5"));
        let mut c = a.clone();
        c.messages += 1;
        assert!(outcome_diff(&a, &c).unwrap().contains("counts"));
    }

    #[test]
    fn count_mismatch_names_the_job() {
        let (platform, job) = small();
        let out = run_ref(&platform, &job, &sim_config(3)).expect("run");
        let def = JobDef {
            events: out.events,
            messages: out.messages,
            ..JOBS[0]
        };
        assert_eq!(def.count_mismatch(&out), None);
        let wrong = JobDef {
            messages: out.messages + 1,
            ..def
        };
        assert!(wrong
            .count_mismatch(&out)
            .unwrap()
            .starts_with(JOBS[0].name));
    }

    #[test]
    fn repetitions_are_fixed_by_seconds_alone() {
        for def in &JOBS {
            assert_eq!(def.reps(12.0), def.reps(12.0));
            assert!(def.reps(0.1) >= 2);
            assert!(def.reps(60.0) >= def.reps(12.0));
        }
        let shares: f64 = JOBS.iter().map(|d| d.share).sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }
}
