//! Event elision changes no outcome.
//!
//! The engine runs intra-node injections, deliveries and woken ranks inline
//! instead of round-tripping them through the event queue (DESIGN.md
//! §12.1). These tests run each job twice: once as the engine runs it, and
//! once with the inline-cascade cap lowered to 0, which queues every event
//! the engine could elide. Finish times, phases, message counts and
//! recorded message events must agree bit for bit — with and without noise
//! and faults, on a two-node platform where NIC contention is live.

use std::cell::Cell;

use super::part::INLINE_DEPTH_MAX;
use super::{run_ref, PhaseRecord, RunOutcome};
use crate::fault::FaultSpec;
use crate::noise::NoiseModel;
use crate::platform::Platform;
use crate::program::{Job, Label, Op, RankProgram};
use crate::SimConfig;

thread_local! {
    /// The inline-cascade cap of runs on this thread (see `part::inline_cap`).
    pub(super) static INLINE_CAP: Cell<u32> = const { Cell::new(INLINE_DEPTH_MAX) };
}

/// Run with every elidable event queued.
fn run_queued(platform: &Platform, job: &Job, cfg: &SimConfig) -> RunOutcome {
    INLINE_CAP.with(|c| c.set(0));
    let out = run_ref(platform, job, cfg);
    INLINE_CAP.with(|c| c.set(INLINE_DEPTH_MAX));
    out.expect("queued run")
}

/// One labelled segment per rank.
fn job(programs: Vec<Vec<Op>>) -> Job {
    let label = Label { kind: 1, seq: 0 };
    Job::new(
        programs
            .into_iter()
            .map(|ops| {
                let mut prog = RankProgram::new();
                prog.push_labeled(label, ops);
                prog
            })
            .collect(),
    )
}

/// Recursive doubling: per round a little compute, an isend/irecv pair
/// with the partner and a local reduction.
fn rdb_exchange(p: usize, bytes: u64) -> Job {
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); p];
    let mut k = 1;
    while k < p {
        for (r, ops) in programs.iter_mut().enumerate() {
            let peer = r ^ k;
            ops.push(Op::compute(1e-7));
            ops.push(Op::isend(peer, k as u64, bytes, 0, 0));
            ops.push(Op::irecv(peer, k as u64, 1, 1));
            ops.push(Op::waitall(vec![0, 1]));
            ops.push(Op::ReduceLocal { from: 1, into: 0, bytes });
        }
        k <<= 1;
    }
    job(programs)
}

/// Binomial-tree broadcast from rank 0 with blocking sends and receives.
fn binomial_bcast(p: usize, bytes: u64) -> Job {
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); p];
    let mut k = 1;
    while k < p {
        for r in 0..k {
            if r + k < p {
                programs[r].push(Op::send(r + k, k as u64, bytes, 0));
                programs[r + k].push(Op::recv(r, k as u64, 0));
            }
        }
        k <<= 1;
    }
    job(programs)
}

/// Flat linear alltoall: every rank posts all its receives and sends at
/// once, so the node NICs serialize heavy cross-node traffic.
fn linear_alltoall(p: usize, bytes: u64) -> Job {
    job((0..p)
        .map(|me| {
            let mut ops = Vec::with_capacity(2 * p - 1);
            for k in 1..p {
                ops.push(Op::irecv((me + p - k) % p, 0, 0, 2 * (k - 1)));
                ops.push(Op::isend((me + k) % p, 0, bytes, 0, 2 * (k - 1) + 1));
            }
            ops.push(Op::waitall((0..2 * (p - 1)).collect()));
            ops
        })
        .collect())
}

/// A chain of blocking rendezvous hand-offs, rank r to rank r + 1, with
/// compute between receiving and forwarding.
fn rendezvous_chain(p: usize, bytes: u64) -> Job {
    job((0..p)
        .map(|r| {
            let mut ops = Vec::new();
            if r > 0 {
                ops.push(Op::recv(r - 1, 0, 0));
            }
            ops.push(Op::compute(5e-7));
            if r + 1 < p {
                ops.push(Op::send(r + 1, 0, bytes, 0));
            }
            ops
        })
        .collect())
}

fn assert_same(ctx: &str, a: &RunOutcome, b: &RunOutcome) {
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.finish), bits(&b.finish), "{ctx}: finish times");
    let phases = |o: &RunOutcome| {
        let phase = |ph: &PhaseRecord| (ph.rank, ph.label, ph.enter.to_bits(), ph.exit.to_bits());
        o.phases.iter().map(phase).collect::<Vec<_>>()
    };
    assert_eq!(phases(a), phases(b), "{ctx}: phases");
    assert_eq!(a.messages, b.messages, "{ctx}: messages");
    let msgs = |o: &RunOutcome| {
        let events = o.msg_events.as_ref().expect("recorded");
        events
            .iter()
            .map(|m| (m.src, m.dst, m.tag, m.bytes, m.sent.to_bits(), m.delivered.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(msgs(a), msgs(b), "{ctx}: message events");
}

#[test]
fn elided_runs_equal_fully_queued_runs() {
    let p = 64;
    let platform = Platform::hydra(p);
    assert!(platform.occupied_nodes() > 1, "the check needs inter-node traffic");
    // The flag says whether the job runs under stalls too. A stall is
    // consumed by the first clock assignment of its rank that reaches it,
    // and the linear alltoall's ranks keep posting while their nonblocking
    // receives complete out of program order: which of the two consumes
    // the stall depends on processing order, so elided and queued runs
    // differ there (with noise off too). Its other fault cases still run.
    let jobs = [
        ("rdb 4 KiB", rdb_exchange(p, 4096), true),
        ("rdb 64 KiB", rdb_exchange(p, 64 * 1024), true),
        ("binomial bcast", binomial_bcast(p, 1024), true),
        ("linear alltoall", linear_alltoall(p, 2048), false),
        ("rendezvous chain", rendezvous_chain(p, 256 * 1024), true),
    ];
    let noises = [
        ("no noise", NoiseModel::None),
        ("gaussian", NoiseModel::gaussian(0.05)),
        ("heavy tail", NoiseModel::heavy_tail(0.05, 2e4, 5e-6)),
    ];
    let link_storm = FaultSpec::none().with_link(0, 1, 0.0, 1e-3, 4.0).with_storm(8, 40, 0.0, 1e-3, 3.0);
    let stall_link_storm = link_storm.clone().with_stall(5, 1e-6, 5e-6).with_stall(40, 3e-6, 2e-6);
    for (what, job, stalls) in &jobs {
        let mut faults = vec![("no faults", FaultSpec::none()), ("link+storm", link_storm.clone())];
        if *stalls {
            faults.push(("stall+link+storm", stall_link_storm.clone()));
        }
        for (noise_name, noise) in noises {
            for (fault_name, spec) in &faults {
                let ctx = format!("{what}, {noise_name}, {fault_name}");
                let cfg = SimConfig {
                    seed: 0xE11DE,
                    noise,
                    record_messages: true,
                    faults: spec.clone(),
                    ..SimConfig::default()
                };
                let elided = run_ref(&platform, job, &cfg).expect("elided run");
                let queued = run_queued(&platform, job, &cfg);
                assert_same(&ctx, &elided, &queued);
                assert!(
                    queued.events > elided.events,
                    "{ctx}: the queued run processed {} events, the elided one {}",
                    queued.events,
                    elided.events
                );
            }
        }
    }
}
