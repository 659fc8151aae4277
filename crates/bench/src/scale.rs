//! Engine scalability probe: one collective run at p ∈ {1K, 10K, 100K},
//! reporting compile time (`Job::new`), run wall time, event throughput
//! and peak memory. Backs
//! `BENCH_engine_scale.json` and the CI rank-scaling summary table
//! (`papctl figures scale_table [max_ranks] [--json]`).

use std::fmt::Write;
use std::time::Instant;

use pap_collectives::{build, CollSpec, CollectiveKind};
use pap_sim::{run_ref, Job, Platform, RankProgram, SimConfig};

/// Peak resident set size of this process in MiB (Linux VmHWM).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Row {
    ranks: usize,
    workload: &'static str,
    compile_s: f64,
    wall_s: f64,
    events: u64,
    messages: u64,
    events_per_s: f64,
    peak_rss_mib: f64,
}

fn run_cell(platform: &Platform, spec: &CollSpec, workload: &'static str, reps: usize) -> Row {
    let p = platform.ranks;
    let built = build(spec, p).expect("build collective");
    let programs: Vec<RankProgram> = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
    let start = Instant::now();
    let job = Job::new(programs);
    let compile_s = start.elapsed().as_secs_f64();
    let cfg = SimConfig::default();
    // Warm-up run (page in allocator arenas), then timed reps.
    let out = run_ref(platform, &job, &cfg).expect("run");
    let start = Instant::now();
    for _ in 0..reps {
        run_ref(platform, &job, &cfg).expect("run");
    }
    let wall_s = start.elapsed().as_secs_f64() / reps as f64;
    Row {
        ranks: p,
        workload,
        compile_s,
        wall_s,
        events: out.events,
        messages: out.messages,
        events_per_s: out.events as f64 / wall_s,
        peak_rss_mib: peak_rss_mib(),
    }
}

/// Run the rank-scaling grid up to `max_ranks` (SimCluster scaled out;
/// `PAP_REPS` timed repetitions below 100K ranks, default 3) and render
/// it as a Markdown table, or as a JSON array with `json`. Compile is one
/// `Job::new` (flatten, intern, pair); wall is the mean of the timed runs.
pub fn scale_table(max_ranks: usize, json: bool) -> String {
    let mut rows = Vec::new();
    for &p in &[1_024usize, 10_240, 102_400] {
        if p > max_ranks {
            continue;
        }
        let platform = Platform::simcluster(p);
        let reps = if p >= 100_000 {
            1
        } else {
            std::env::var("PAP_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
        };
        rows.push(run_cell(
            &platform,
            &CollSpec::new(CollectiveKind::Allreduce, 3, 8 * 1024),
            "allreduce_rdb_8KiB",
            reps,
        ));
        rows.push(run_cell(
            &platform,
            &CollSpec::new(CollectiveKind::Bcast, 5, 1024),
            "bcast_binomial_1KiB",
            reps,
        ));
    }

    let mut out = String::new();
    if json {
        out.push_str("[\n");
        for (i, r) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"ranks\": {}, \"workload\": \"{}\", \"compile_s\": {:.6}, \"wall_s\": {:.6}, \"events\": {}, \"messages\": {}, \"events_per_s\": {:.0}, \"peak_rss_mib\": {:.1}}}{}",
                r.ranks, r.workload, r.compile_s, r.wall_s, r.events, r.messages, r.events_per_s, r.peak_rss_mib, comma
            );
        }
        out.push_str("]\n");
    } else {
        out.push_str("| ranks | workload | compile (s) | wall (s) | events | messages | events/s | peak RSS (MiB) |\n");
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {} | {:.4} | {:.4} | {} | {} | {:.2e} | {:.1} |",
                r.ranks, r.workload, r.compile_s, r.wall_s, r.events, r.messages, r.events_per_s, r.peak_rss_mib
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_timed_apart_from_the_run() {
        let table = scale_table(1024, false);
        let mut lines = table.lines();
        assert!(lines.next().unwrap().starts_with("| ranks | workload | compile (s) | wall (s) |"), "{table}");
        let rows: Vec<&str> = lines.skip(1).collect();
        assert_eq!(rows.len(), 2, "{table}");
        for row in rows {
            assert!(row.split('|').nth(3).unwrap().trim().parse::<f64>().is_ok(), "{row}");
        }
        let json = scale_table(1024, true);
        let compile: Vec<f64> =
            json.split("\"compile_s\": ").skip(1).map(|v| v.split(',').next().unwrap().parse().unwrap()).collect();
        assert!(compile.len() == 2 && compile.iter().all(|&s| s > 0.0), "{json}");
    }
}
