//! The traced run: every layer's breakdown from spans the benchmark
//! records around its calls into the layer, exported as a Chrome trace.
//!
//! The breakdown is the same for every workload, so every traced run
//! reports every per-layer metric; the workload picks which of its own
//! passes is repeated with tracing off to give `obs.trace_overhead_pct`.

use std::collections::BTreeMap;
use std::path::Path;

use pap_service::Tier;

use crate::report::Outcome;
use crate::stats::median;
use crate::{engine, serve, trace, tune, Workload};

/// Median of a span's durations (ms), `NaN` if it was never recorded.
fn med(spans: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    spans.get(name).and_then(|d| median(d)).unwrap_or(f64::NAN)
}

/// Sum of a span's durations (ms).
fn total(spans: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    spans.get(name).map_or(0.0, |d| d.iter().sum())
}

/// Span around the traced 2-thread tune pass.
const TUNE_PASS: &str = "microbench.tune_pass";

/// The traced run.
pub fn run(workload: Workload, papd: &Path, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let started = std::time::Instant::now();
    let progress = |stage: &str| {
        eprintln!(
            "perfbench: {stage} done at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    let capture = trace::Capture::start();
    let mut overhead = None;

    // Tune: an untraced and a traced 2-thread pass (the harness's own
    // `measure_cell` spans), then an untraced 1-thread pass right before
    // the re-enactment its layer sum is compared with.
    let cfg = tune::config(seed);
    pap_obs::set_enabled(false);
    let two = tune::pass(tune::THREADS, &cfg);
    pap_obs::set_enabled(true);
    let cells_before = pap_obs::global().counter("bench.cells.sim").get();
    let traced = trace::span(TUNE_PASS, || tune::pass(tune::THREADS, &cfg));
    let measured_cells = pap_obs::global().counter("bench.cells.sim").get() - cells_before;
    pap_obs::set_enabled(false);
    let one = tune::pass(1, &cfg);
    pap_obs::set_enabled(true);
    progress("tune passes");
    let mut tune_1t = None;
    match (one, two, traced) {
        (Ok((t1, r1)), Ok((t2, r2)), Ok((t2_traced, r3))) => {
            let diff = tune::table_diff(&r1, &r2).or_else(|| tune::table_diff(&r1, &r3));
            out.check(
                "tune_table_equals_1thread_table",
                diff.is_none(),
                diff.unwrap_or_else(|| {
                    "both 2-thread tables identical to the 1-thread table".into()
                }),
            );
            out.metric("parallel.speedup_2t", t1 / t2, "ratio");
            out.metric("microbench.cells", measured_cells as f64, "count");
            if workload == Workload::Tune {
                overhead = Some(t2_traced / t2);
            }
            match pap_parallel::sequential(|| tune::reenact(&cfg, &r1)) {
                Ok(r) => {
                    out.check(
                        "tune_reenactment_matches_tune_machine",
                        r.mismatches == 0,
                        format!(
                            "{} of {} re-enacted cells differ from tune_machine's d̂",
                            r.mismatches, r.cells
                        ),
                    );
                    out.attempt(r.cells, 0);
                }
                Err(e) => {
                    out.attempt(1, 1);
                    out.check("tune_reenactment_matches_tune_machine", false, e);
                }
            }
            out.attempt(3 * tune::output_cells(&pap_core::TunePlan::default()), 0);
            tune_1t = Some(t1 * 1e3);
        }
        (a, b, c) => {
            let err = [a.err(), b.err(), c.err()]
                .into_iter()
                .flatten()
                .next()
                .unwrap_or_default();
            out.attempt(1, 1);
            out.check("tune_passes", false, err);
        }
    }

    progress("tune re-enactment");
    // Engine: per-job build, first run, steady runs and run_par(2).
    let mut counts = Vec::new();
    for def in &engine::JOBS {
        counts.push(engine::probe(def, seed, &mut out));
        progress(def.name);
    }
    if workload == Workload::Engine {
        overhead = engine_overhead(seed, &mut out);
    }

    // Serve: the daemon's layers in-process, then a loopback idle phase.
    let serve_probe = match serve::probe(papd, seed, seconds, &mut out) {
        Ok(p) => Some(p),
        Err(e) => {
            out.attempt(1, 1);
            out.check("serve_probe", false, e);
            None
        }
    };
    if workload == Workload::Serve {
        overhead = serve_probe.as_ref().map(|p| p.traced_over_untraced);
    }

    progress("serve probe");
    let (spans, dropped) = capture.finish();
    let own = trace::durations_ms(&spans);

    // Tune-cell split by layer.
    let sum: f64 = tune::REENACT_SPANS.iter().map(|n| total(&own, n)).sum();
    let share = |name: &str| total(&own, name) / sum;
    out.metric("sim.share", share("sim.run_ref"), "ratio");
    out.metric("collectives.share", share("collectives.build"), "ratio");
    out.metric("clocksync.share", share("clocksync.sync"), "ratio");
    out.metric("arrival.generate_share", share("arrival.generate"), "ratio");
    out.metric(
        "microbench.share",
        (total(&own, "sim.job") + total(&own, "microbench.observe")) / sum,
        "ratio",
    );
    // The harness's own per-cell spans, from the traced tune pass only
    // (the serve probe's model-backend tune records them too).
    let pass = spans
        .iter()
        .find(|s| s.cat == trace::CAT && s.name == TUNE_PASS);
    let cells: Vec<f64> = pass.map_or_else(Vec::new, |p| {
        trace::library_durations_ms(&spans, "bench", "measure_cell", p.start_ns, p.end_ns)
    });
    out.metric(
        "microbench.measure_ms",
        median(&cells).unwrap_or(f64::NAN),
        "ms",
    );
    let ratio = tune_1t.map_or(f64::NAN, |t| sum / t);
    out.info("microbench.layer_sum_ratio", ratio, "ratio");
    out.selfcheck(
        "tune_layer_sum_within_10pct_of_tune_machine",
        (ratio - 1.0).abs() <= 0.10,
        format!(
            "re-enacted layers sum to {sum:.1} ms; 1-thread tune_machine took {:.1} ms",
            tune_1t.unwrap_or(f64::NAN)
        ),
    );

    // Engine jobs.
    for (def, count) in engine::JOBS.iter().zip(&counts) {
        let name = |layer: &str| format!("{layer}.{}", def.name);
        let steady = med(&own, &name("sim.run_ref"));
        let par2 = med(&own, &name("sim.run_par2"));
        out.metric(
            name("collectives.build_ms"),
            med(&own, &name("collectives.build")),
            "ms",
        );
        out.metric(name("sim.run_ref_ms"), steady, "ms");
        out.metric(
            name("sim.compile_ms"),
            med(&own, &name("sim.first_run")) - steady,
            "ms",
        );
        out.metric(name("sim.run_par2_ms"), par2, "ms");
        out.metric(name("sim.par2_speedup"), steady / par2, "ratio");
        let (events, messages) = count.map_or((f64::NAN, f64::NAN), |(e, m)| (e as f64, m as f64));
        out.metric(name("sim.events"), events, "count");
        out.metric(name("sim.messages"), messages, "count");
    }

    // Serve layers.
    let to_us = |ms: f64| ms * 1e3;
    out.metric(
        "arrival.classify_us",
        to_us(med(&own, "arrival.classify")),
        "us",
    );
    out.metric("core.select_us", to_us(med(&own, "core.select")), "us");
    out.metric("model.cold_cell_ms", med(&own, "model.cold_cell"), "ms");
    out.metric(
        "model.startup_tune_ms",
        med(&own, "model.startup_tune"),
        "ms",
    );
    out.metric(
        "service.decode_us.samples",
        to_us(med(&own, "service.decode.samples")),
        "us",
    );
    out.metric(
        "service.decode_us.plain",
        to_us(med(&own, "service.decode.plain")),
        "us",
    );
    out.metric(
        "service.encode_us",
        to_us(med(&own, "service.encode")),
        "us",
    );
    let resolve = own.get("service.resolve").cloned().unwrap_or_default();
    let tiers = serve_probe.map(|p| p.tiers).unwrap_or_default();
    // Store walk only: queries with arrival samples also classify them,
    // which `arrival.classify_us` measures on its own.
    let by_tier = |tier: Tier| -> f64 {
        let d: Vec<f64> = resolve
            .iter()
            .zip(&tiers)
            .filter(|(_, &(t, samples))| t == tier && !samples)
            .map(|(d, _)| *d)
            .collect();
        to_us(median(&d).unwrap_or(f64::NAN))
    };
    let (l1, l2, near, miss) = (
        by_tier(Tier::L1),
        by_tier(Tier::L2),
        by_tier(Tier::L2Near),
        by_tier(Tier::Computed),
    );
    out.metric("service.resolve_us.l1", l1, "us");
    out.metric("service.resolve_us.l2", l2, "us");
    out.metric("service.resolve_us.l2_near", near, "us");
    out.metric("service.resolve_us.miss", miss, "us");
    out.selfcheck(
        "resolve_l1_le_l2_near_le_miss",
        l1 <= near && near <= miss,
        format!("median resolve: l1 {l1:.2} µs, l2_near {near:.2} µs, miss {miss:.2} µs"),
    );
    if resolve.len() != tiers.len() {
        out.check(
            "serve_probe_spans",
            false,
            format!("{} resolve spans for {} tiers", resolve.len(), tiers.len()),
        );
    }

    let overhead_pct = overhead.map_or(f64::NAN, |r| (r - 1.0) * 100.0);
    out.metric("obs.trace_overhead_pct", overhead_pct, "%");

    match trace::export(&spans) {
        Ok((json, slices)) => {
            let saved = std::fs::write(trace_path, json);
            out.check(
                "trace_valid",
                saved.is_ok() && dropped == 0,
                format!(
                    "{slices} slices, {dropped} dropped, written to {}{}",
                    trace_path.display(),
                    saved
                        .err()
                        .map(|e| format!(" (failed: {e})"))
                        .unwrap_or_default()
                ),
            );
            out.info("obs.trace_slices", slices as f64, "count");
        }
        Err(e) => out.check("trace_valid", false, e),
    }
    out
}

/// Traced vs untraced steady runs of the first engine job.
fn engine_overhead(seed: u64, out: &mut Outcome) -> Option<f64> {
    let def = &engine::JOBS[0];
    let job = engine::make_job(def).ok()?;
    let platform = def.platform();
    let cfg = engine::sim_config(seed);
    // Alternate untraced and traced runs so host drift hits both alike.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..10 {
        pap_obs::set_enabled(i % 2 == 1);
        let t = std::time::Instant::now();
        let ok = trace::span("sim.overhead_run", || {
            pap_sim::run_ref(&platform, &job, &cfg)
        })
        .is_ok();
        out.attempt(1, u64::from(!ok));
        if i % 2 == 1 { &mut traced } else { &mut plain }.push(t.elapsed().as_secs_f64());
    }
    pap_obs::set_enabled(true);
    Some(median(&traced)? / median(&plain)?)
}
