//! Differential: arrivals as run inputs equal arrivals as ops.
//!
//! [`run_with_arrivals`] moves each rank's clock to its harmonized start and
//! then past its arrival-pattern delay before the run begins. The same
//! arrivals written as ops are an anonymous
//! `[SleepUntil { time: start }, Op::delay(delay)]` segment in front of
//! every rank's program. The two must produce bit-identical outcomes —
//! phases, finish times, event and message counts and recorded message
//! events — for every Reduce, Allreduce and Alltoall experiment algorithm,
//! under platform noise, a stall that begins inside the delay window, a
//! crash before the start and a crash during the delay. A crash starves
//! its dependents, so the crash cases compare the deadlocks instead: the
//! instant, the starved ranks and what each is blocked on.

use pap_collectives::registry::experiment_ids;
use pap_collectives::{build, CollSpec, CollectiveKind};
use pap_sim::engine::PhaseRecord;
use pap_sim::{
    run_ref, run_with_arrivals, FaultSpec, Job, Label, Op, Platform, RankProgram, RunOutcome,
    SimConfig, SimError,
};

const START: f64 = 1e-3;

/// Per-rank `(start, delay)`: starts a little apart (harmonize residuals),
/// delays from a fixed LCG in `[0, 20 µs)`, and rank 1's delay is never 0
/// (the delay-window faults target it).
fn arrivals(p: usize) -> Vec<(f64, f64)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..p)
        .map(|r| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let delay = (x >> 11) as f64 / (1u64 << 53) as f64 * 20e-6;
            let delay = if r == 1 { delay + 5e-6 } else { delay };
            (START + (r % 5) as f64 * 1e-7, delay)
        })
        .collect()
}

/// The collective as one labelled segment per rank, with or without the
/// arrival prefix ops in front of it.
fn job(spec: &CollSpec, p: usize, prefix: Option<&[(f64, f64)]>) -> (Job, Label) {
    let label = Label { kind: spec.kind.label_kind(), seq: 0 };
    let built = build(spec, p).expect("build");
    let programs = built
        .rank_ops
        .into_iter()
        .enumerate()
        .map(|(r, ops)| {
            let mut prog = RankProgram::new();
            if let Some(arr) = prefix {
                let (start, delay) = arr[r];
                prog.push_anon(vec![Op::SleepUntil { time: start }, Op::delay(delay)]);
            }
            prog.push_labeled(label, ops);
            prog
        })
        .collect();
    (Job::new(programs), label)
}

/// The fault conditions, placed relative to rank 1's arrival.
fn conditions(arr: &[(f64, f64)]) -> Vec<(&'static str, FaultSpec)> {
    let (start, delay) = arr[1];
    vec![
        ("noise", FaultSpec::none()),
        (
            "stall_in_delay",
            FaultSpec::none()
                .with_stall(1, start + delay / 2.0, 3e-6)
                // A second stall spans the start itself.
                .with_stall(2, arr[2].0 - 1e-7, 2e-6),
        ),
        ("crash_before_start", FaultSpec::none().with_crash(1, start / 2.0)),
        ("crash_in_delay", FaultSpec::none().with_crash(1, start + delay / 2.0)),
    ]
}

fn assert_same_outcome(ctx: &str, a: &RunOutcome, b: &RunOutcome) {
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.finish), bits(&b.finish), "{ctx}: finish times");
    assert_eq!(a.events, b.events, "{ctx}: events");
    assert_eq!(a.messages, b.messages, "{ctx}: messages");
    let phases = |o: &RunOutcome| {
        let phase = |ph: &PhaseRecord| (ph.rank, ph.label, ph.enter.to_bits(), ph.exit.to_bits());
        o.phases.iter().map(phase).collect::<Vec<_>>()
    };
    assert_eq!(phases(a), phases(b), "{ctx}: phases");
    let msgs = |o: &RunOutcome| {
        o.msg_events.as_ref().map(|events| {
            events
                .iter()
                .map(|m| (m.src, m.dst, m.tag, m.bytes, m.sent.to_bits(), m.delivered.to_bits()))
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(msgs(a), msgs(b), "{ctx}: message events");
}

/// A deadlock's blocked list without the segment index, which the prefix
/// segment shifts by one.
fn blocked_ops(e: &SimError) -> (u64, Vec<(usize, String)>) {
    let SimError::Deadlock { at, blocked } = e else { panic!("expected a deadlock, got {e}") };
    let strip = |d: &str| match (d.find("(seg "), d.find(", pc ")) {
        (Some(i), Some(j)) => format!("{}({}", &d[..i], &d[j + 2..]),
        _ => d.to_string(),
    };
    (at.to_bits(), blocked.iter().map(|(r, d)| (*r, strip(d))).collect())
}

#[test]
fn arrival_inputs_match_the_prefix_ops() {
    for p in [8usize, 64] {
        let platform = Platform::hydra(p);
        let arr = arrivals(p);
        for kind in [CollectiveKind::Reduce, CollectiveKind::Allreduce, CollectiveKind::Alltoall] {
            for alg in experiment_ids(kind) {
                for bytes in [64u64, 64 * 1024] {
                    let spec = CollSpec::new(kind, alg, bytes);
                    let (with_ops, label) = job(&spec, p, Some(&arr));
                    let (plain, _) = job(&spec, p, None);
                    for (name, faults) in conditions(&arr) {
                        let ctx = format!("{kind} A{alg} {bytes} B, p={p}, {name}");
                        let cfg = SimConfig {
                            seed: 7,
                            noise: platform.default_noise,
                            record_messages: true,
                            ..SimConfig::default()
                        }
                        .with_faults(faults);
                        let old = run_ref(&platform, &with_ops, &cfg);
                        let new = run_with_arrivals(&platform, &plain, &cfg, &arr);
                        match (old, new) {
                            (Ok(a), Ok(b)) => {
                                assert!(!name.starts_with("crash"), "{ctx}: a crash starved no one");
                                assert_eq!(a.phases_for_iter(label).count(), p, "{ctx}: phases missing");
                                assert_same_outcome(&ctx, &a, &b);
                            }
                            (Err(a), Err(b)) => {
                                assert!(name.starts_with("crash"), "{ctx}: unexpected error {a}");
                                assert_eq!(a.starved_ranks(), b.starved_ranks(), "{ctx}: starved ranks");
                                assert_eq!(blocked_ops(&a), blocked_ops(&b), "{ctx}: deadlock");
                            }
                            (a, b) => panic!("{ctx}: outcomes disagree: {:?} vs {:?}", a.err(), b.err()),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn arrivals_must_cover_every_rank() {
    let platform = Platform::simcluster(4);
    let (plain, _) = job(&CollSpec::new(CollectiveKind::Reduce, 5, 64), 4, None);
    let err = run_with_arrivals(&platform, &plain, &SimConfig::default(), &[(0.0, 0.0); 3]).unwrap_err();
    assert!(matches!(err, SimError::InvalidProgram(ref m) if m.contains("3 arrivals")), "{err}");
    // No arrivals is `run_ref`.
    let a = run_with_arrivals(&platform, &plain, &SimConfig::default(), &[]).unwrap();
    let b = run_ref(&platform, &plain, &SimConfig::default()).unwrap();
    assert_same_outcome("no arrivals", &a, &b);
}

#[test]
fn an_empty_first_segment_enters_at_the_arrival() {
    // Rank 1 takes no part: its labelled segment is empty, so it enters and
    // exits at its arrival, as it would behind the prefix ops.
    let platform = Platform::simcluster(2);
    let label = Label { kind: 1, seq: 0 };
    let arr = [(1e-3, 2e-6), (1e-3 + 1e-7, 5e-6)];
    let job = |prefix: bool| {
        let programs = [vec![Op::compute(1e-6)], vec![]].into_iter().zip(arr).map(|(ops, (start, delay))| {
            let mut prog = RankProgram::new();
            if prefix {
                prog.push_anon(vec![Op::SleepUntil { time: start }, Op::delay(delay)]);
            }
            prog.push_labeled(label, ops);
            prog
        });
        Job::new(programs.collect())
    };
    let cfg = SimConfig::default();
    let a = run_ref(&platform, &job(true), &cfg).unwrap();
    let b = run_with_arrivals(&platform, &job(false), &cfg, &arr).unwrap();
    assert_same_outcome("empty segment", &a, &b);
    let rank1 = b.phases_for(label)[1];
    assert_eq!((rank1.enter, rank1.exit), (arr[1].0 + arr[1].1, arr[1].0 + arr[1].1));
}
