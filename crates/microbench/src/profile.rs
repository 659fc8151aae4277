//! Timeline profiling: one simulator run rendered as a Perfetto-loadable
//! Chrome Trace Event document — Fig. 1/2 of the paper as an interactive
//! timeline.
//!
//! [`profile`] runs a collective under an arrival pattern exactly like
//! [`measure`](crate::measure) in its noise-free simulation setting, but
//! with per-message recording enabled, and converts the [`RunOutcome`](pap_sim::RunOutcome) into
//! a trace with:
//!
//! * one lane per rank (`tid` = rank, named `rank N`),
//! * a `wait` slice covering the rank's injected arrival delay,
//! * an arrival→exit slice for the collective itself (`aᵢ` → `eᵢ`), carrying
//!   the rank's delay in the detail pane,
//! * a flow arrow per point-to-point message, from the sender at its send
//!   time to the receiver at delivery,
//! * trace-level metadata with the run's `d̂`, `d*` and makespan, so the
//!   numbers in the timeline tie back to what `papctl bench` reports.

use pap_arrival::ArrivalPattern;
use pap_collectives::registry::algorithm;
use pap_collectives::CollSpec;
use pap_obs::ChromeTrace;
use pap_sim::{run_with_arrivals, FaultSpec, NoiseModel, Platform, SimConfig, SimError};
use serde::Content;

use crate::harness::{arrivals, BenchError, Schedule, START_TARGET};

/// Lane group ID used for simulator ranks in emitted traces.
const SIM_PID: u64 = 1;

/// A profiled run: the trace plus the scalar delays it visualizes.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The Perfetto-loadable timeline.
    pub trace: ChromeTrace,
    /// Last delay `d̂ = max(eᵢ) − max(aᵢ)` (Eq. 2).
    pub d_hat: f64,
    /// Total delay `d* = max(eᵢ) − min(aᵢ)` (Eq. 1).
    pub d_star: f64,
    /// Ranks in the run (= lanes in the trace).
    pub ranks: usize,
    /// Point-to-point messages (= flow arrows in the trace).
    pub messages: usize,
    /// Ranks that crashed before completing the collective (their lanes
    /// carry a `crashed` slice from the crash instant to the makespan;
    /// `d̂`/`d*` are computed over the survivors).
    pub crashed: usize,
}

/// Per-lane pending event, sorted by `(ts, order)` before emission so each
/// lane's event stream is timestamp-monotone. At equal timestamps a slice
/// end precedes the next begin (`wait` ends exactly where the collective
/// starts), and flows come last (a message sent at the arrival instant lands
/// inside the collective slice).
enum LaneEvent {
    End,
    Begin { name: String, cat: &'static str, args: Vec<(String, Content)> },
    FlowStart { id: u64, name: String },
    FlowEnd { id: u64, name: String },
}

impl LaneEvent {
    fn order(&self) -> u8 {
        match self {
            LaneEvent::End => 0,
            LaneEvent::Begin { .. } => 1,
            LaneEvent::FlowStart { .. } | LaneEvent::FlowEnd { .. } => 2,
        }
    }
}

fn us(t: f64) -> f64 {
    t * 1e6
}

/// Run `spec` under `pattern` on `platform` (noise-free simulation setting,
/// seeded by `seed`) and render the run as a timeline.
pub fn profile(
    platform: &Platform,
    spec: &CollSpec,
    pattern: &ArrivalPattern,
    seed: u64,
) -> Result<Profile, BenchError> {
    profile_with_faults(platform, spec, pattern, seed, &FaultSpec::none())
}

/// [`profile`] with runtime faults injected: the timeline shows *where the
/// schedule stalled* — `stall` slices over frozen ranks, a `crashed` slice
/// from the crash instant to the makespan on every rank that died before
/// completing the collective, and link/storm windows in the trace metadata.
/// `d̂`/`d*` are folded over the surviving ranks (degraded-mode metric).
/// Errors when the faults crash every rank before it completes.
pub fn profile_with_faults(
    platform: &Platform,
    spec: &CollSpec,
    pattern: &ArrivalPattern,
    seed: u64,
    faults: &FaultSpec,
) -> Result<Profile, BenchError> {
    let p = platform.ranks;
    if pattern.len() != p {
        return Err(BenchError::PatternMismatch { pattern: pattern.len(), ranks: p });
    }

    // The measurement harness's job (Listing 1) in its noise-free
    // simulation setting: every rank starts exactly on target.
    let Schedule { job, label } = Schedule::build(spec, p)?;

    let sim_cfg = SimConfig {
        seed,
        track_data: false,
        noise: NoiseModel::None,
        record_messages: true,
        ..SimConfig::default()
    }
    .with_faults(faults.clone());
    let arrivals = arrivals(&vec![START_TARGET; p], pattern);
    let out = run_with_arrivals(platform, &job, &sim_cfg, &arrivals)?;

    // Ranks without a complete phase record crashed mid-collective; the
    // delay metrics fold over the survivors (degraded-mode semantics,
    // matching the measurement harness).
    let phases = out.phases_for(label);
    debug_assert!(phases.len() == p || faults.has_rank_faults(), "phase records missing without rank faults");
    if phases.is_empty() {
        return Err(BenchError::Sim(SimError::InvalidProgram(
            "fault spec crashed every rank before the collective completed".into(),
        )));
    }
    let max_a = phases.iter().map(|r| r.enter).fold(f64::NEG_INFINITY, f64::max);
    let min_a = phases.iter().map(|r| r.enter).fold(f64::INFINITY, f64::min);
    let max_e = phases.iter().map(|r| r.exit).fold(f64::NEG_INFINITY, f64::max);
    let d_hat = max_e - max_a;
    let d_star = max_e - min_a;

    let alg_name = algorithm(spec.kind, spec.alg)
        .map(|a| a.name)
        .unwrap_or("unknown algorithm");
    let slice_name = format!("{}[{}] {}", spec.kind, spec.alg, alg_name);

    // Gather per-lane events, then emit each lane in timestamp order.
    let mut lanes: Vec<Vec<(f64, LaneEvent)>> = (0..p).map(|_| Vec::new()).collect();
    for rec in &phases {
        let delay = pattern.delay_of(rec.rank);
        if delay > 0.0 {
            lanes[rec.rank].push((
                us(rec.enter - delay),
                LaneEvent::Begin {
                    name: "wait".to_string(),
                    cat: "pattern",
                    args: vec![("delay_s".to_string(), Content::F64(delay))],
                },
            ));
            lanes[rec.rank].push((us(rec.enter), LaneEvent::End));
        }
        lanes[rec.rank].push((
            us(rec.enter),
            LaneEvent::Begin {
                name: slice_name.clone(),
                cat: "collective",
                args: vec![
                    ("arrival_s".to_string(), Content::F64(rec.enter)),
                    ("exit_s".to_string(), Content::F64(rec.exit)),
                    ("delay_s".to_string(), Content::F64(delay)),
                ],
            },
        ));
        lanes[rec.rank].push((us(rec.exit), LaneEvent::End));
    }

    // Crashed ranks: no complete phase record; their lane carries a
    // `crashed` slice from the crash instant (= the rank's finish time) to
    // the end of the trace, so the timeline shows exactly where the
    // schedule lost them.
    let mut has_phase = vec![false; p];
    for rec in &phases {
        has_phase[rec.rank] = true;
    }
    let span_end = us(out.makespan());
    let mut crashed = 0usize;
    for (r, lane) in lanes.iter_mut().enumerate() {
        if !has_phase[r] {
            crashed += 1;
            let at = us(out.finish[r]);
            lane.push((
                at,
                LaneEvent::Begin {
                    name: "crashed".to_string(),
                    cat: "fault",
                    args: vec![("crash_s".to_string(), Content::F64(out.finish[r]))],
                },
            ));
            lane.push((span_end.max(at), LaneEvent::End));
        }
    }

    // Injected fault windows live on a dedicated lane (tid = ranks), so
    // they never interleave with the per-rank slice stacks: nominal stall
    // windows (cascading stalls may stretch further in reality), link
    // slowdowns, and noise storms.
    let mut fault_lane: Vec<(f64, LaneEvent)> = Vec::new();
    let mut window = |from: f64, until: f64, name: String, factor: Option<f64>| {
        let mut args = vec![
            ("from_s".to_string(), Content::F64(from)),
            ("until_s".to_string(), Content::F64(until)),
        ];
        if let Some(f) = factor {
            args.push(("factor".to_string(), Content::F64(f)));
        }
        fault_lane.push((us(from), LaneEvent::Begin { name, cat: "fault", args }));
        fault_lane.push((us(until), LaneEvent::End));
    };
    for s in &faults.stalls {
        window(s.at, s.at + s.stall, format!("stall r{}", s.rank), None);
    }
    for l in &faults.links {
        let node = |n: usize| {
            if n == pap_sim::ANY_NODE {
                "*".to_string()
            } else {
                format!("{n}")
            }
        };
        window(
            l.from,
            l.until,
            format!("link n{}->n{} x{}", node(l.src_node), node(l.dst_node), l.factor),
            Some(l.factor),
        );
    }
    for s in &faults.storms {
        window(
            s.from,
            s.until,
            format!("storm r{}-r{} x{}", s.first_rank, s.last_rank, s.factor),
            Some(s.factor),
        );
    }

    let msg_events = out.msg_events.as_deref().unwrap_or(&[]);
    for (i, m) in msg_events.iter().enumerate() {
        let name = format!("{}B", m.bytes);
        lanes[m.src].push((
            us(m.sent),
            LaneEvent::FlowStart { id: i as u64, name: name.clone() },
        ));
        lanes[m.dst].push((us(m.delivered), LaneEvent::FlowEnd { id: i as u64, name }));
    }

    let mut trace = ChromeTrace::new();
    trace.process_name(SIM_PID, &format!("pap-sim: {slice_name}"));
    for r in 0..p {
        trace.thread_name(SIM_PID, r as u64, &format!("rank {r}"));
    }
    if !fault_lane.is_empty() {
        trace.thread_name(SIM_PID, p as u64, "faults");
        lanes.push(fault_lane);
    }
    for (rank, mut events) in lanes.into_iter().enumerate() {
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("sim times are finite")
                .then(a.1.order().cmp(&b.1.order()))
        });
        let tid = rank as u64;
        for (ts, ev) in events {
            match ev {
                LaneEvent::End => trace.end(SIM_PID, tid, ts),
                LaneEvent::Begin { name, cat, args } => {
                    trace.begin_with_args(SIM_PID, tid, &name, cat, ts, args)
                }
                LaneEvent::FlowStart { id, name } => {
                    trace.flow_start(SIM_PID, tid, &name, id, ts)
                }
                LaneEvent::FlowEnd { id, name } => trace.flow_end(SIM_PID, tid, &name, id, ts),
            }
        }
    }

    trace.set_metadata("collective", Content::Str(spec.kind.to_string()));
    trace.set_metadata("algorithm", Content::Str(format!("{} ({})", spec.alg, alg_name)));
    trace.set_metadata("bytes", Content::U64(spec.bytes));
    trace.set_metadata("ranks", Content::U64(p as u64));
    trace.set_metadata("max_skew_s", Content::F64(pattern.max_skew()));
    trace.set_metadata("d_hat_s", Content::F64(d_hat));
    trace.set_metadata("d_star_s", Content::F64(d_star));
    trace.set_metadata("makespan_s", Content::F64(out.makespan()));
    trace.set_metadata("messages", Content::U64(out.messages));
    if !faults.is_none() {
        trace.set_metadata("faults", Content::Str(faults.to_string()));
        trace.set_metadata("crashed_ranks", Content::U64(crashed as u64));
    }

    Ok(Profile { trace, d_hat, d_star, ranks: p, messages: msg_events.len(), crashed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_arrival::{generate, Shape};
    use pap_collectives::CollectiveKind;

    fn run_profile(p: usize) -> Profile {
        let platform = Platform::simcluster(p);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let pattern = generate(Shape::Ascending, p, 1e-4, 1);
        profile(&platform, &spec, &pattern, 7).unwrap()
    }

    #[test]
    fn trace_validates_with_one_lane_per_rank() {
        let prof = run_profile(8);
        let stats = pap_obs::validate_trace(&prof.trace.to_json_string()).unwrap();
        assert_eq!(stats.lanes, 8);
        assert!(stats.flows > 0, "reduce must move messages");
        assert_eq!(stats.flows, prof.messages);
        // Every rank has a collective slice; delayed ranks add wait slices.
        assert!(stats.slices >= 8);
    }

    #[test]
    fn delays_match_the_measurement_harness() {
        let p = 8;
        let platform = Platform::simcluster(p);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let pattern = generate(Shape::Ascending, p, 1e-4, 1);
        let prof = profile(&platform, &spec, &pattern, 7).unwrap();
        let st = crate::measure(&platform, &spec, &pattern, &crate::BenchConfig::simulation())
            .unwrap();
        assert!((prof.d_hat - st.mean_last()).abs() < 1e-12, "profile d̂ must match measure");
        assert!((prof.d_star - st.mean_total()).abs() < 1e-12, "profile d* must match measure");
    }

    #[test]
    fn profile_is_deterministic() {
        let a = run_profile(4).trace.to_json_string();
        let b = run_profile(4).trace.to_json_string();
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_profile_marks_crashes_and_fault_windows() {
        let p = 8;
        let platform = Platform::simcluster(p);
        let spec = CollSpec::new(CollectiveKind::Bcast, 3, 1024);
        let pattern = generate(Shape::Ascending, p, 1e-4, 1);
        let clean = profile(&platform, &spec, &pattern, 7).unwrap();
        // Crash a leaf after the root has fed the tree, stall another rank,
        // and slow a link: the timeline must grow a faults lane and a
        // crashed slice while the survivors' metric stays well-defined.
        let faults = FaultSpec::none()
            .with_crash(p - 1, 1e-3 + 1e-7)
            .with_stall(1, 1e-3, 5e-4)
            .with_link(0, 1, 1e-3, 2e-3, 4.0);
        let prof = profile_with_faults(&platform, &spec, &pattern, 7, &faults).unwrap();
        assert_eq!(prof.crashed, 1, "exactly the leaf crashes");
        assert!(prof.d_hat >= clean.d_hat, "faults cannot speed up survivors");
        let json = prof.trace.to_json_string();
        let stats = pap_obs::validate_trace(&json).unwrap();
        assert_eq!(stats.lanes, p + 1, "ranks plus the faults lane");
        assert!(json.contains("crashed"), "crashed slice present");
        assert!(json.contains("stall r1"), "stall window present");
        assert!(json.contains("\"faults\""), "fault spec recorded in metadata");
    }

    #[test]
    fn all_ranks_crashed_is_an_error() {
        let p = 4;
        let platform = Platform::simcluster(p);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let pattern = generate(Shape::NoDelay, p, 0.0, 1);
        let mut faults = FaultSpec::none();
        for r in 0..p {
            faults = faults.with_crash(r, 1e-9);
        }
        let res = profile_with_faults(&platform, &spec, &pattern, 7, &faults);
        assert!(
            matches!(&res, Err(BenchError::Sim(SimError::InvalidProgram(m))) if m.contains("crashed every rank")),
            "{res:?}"
        );
    }

    #[test]
    fn pattern_mismatch_is_rejected() {
        let platform = Platform::simcluster(8);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let pattern = generate(Shape::NoDelay, 4, 0.0, 1);
        assert!(matches!(
            profile(&platform, &spec, &pattern, 0),
            Err(BenchError::PatternMismatch { .. })
        ));
    }
}
