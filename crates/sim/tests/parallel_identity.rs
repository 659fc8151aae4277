//! Regression: partitioned execution is **byte-identical** to sequential.
//!
//! The parallel driver ([`pap_sim::run_par`]) splits a run into node-aligned
//! rank partitions advanced window-by-window under conservative lookahead.
//! Its contract is not "statistically equivalent" but *bitwise equal output
//! at any partition count* — every `f64` in the outcome compared via
//! `to_bits`, every count exactly equal. These tests pin that contract at
//! 10K ranks (where the scale machinery — startup sweep, handoff batching —
//! is actually engaged), on a many-channel linear alltoall, and under
//! noise + dataflow tracking + message recording (where every optional
//! subsystem must stay deterministic too).

use pap_sim::{
    run_par, run_ref, FaultSpec, Job, NoiseModel, Op, Platform, RankProgram, RunOutcome,
    SimConfig, ANY_NODE,
};

/// SimCluster scaled out to `ranks` (presets grow nodes synthetically
/// past their validated baseline capacity).
fn scaled_simcluster(ranks: usize) -> Platform {
    Platform::simcluster(ranks)
}

/// Hand-rolled binomial-tree broadcast from rank 0: round `k` has every
/// rank `r < k` with `r + k < p` forward to `r + k`. Receives land before
/// later-round sends because rounds are emitted in ascending order.
fn binomial_bcast(p: usize, bytes: u64) -> Job {
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); p];
    let mut k = 1usize;
    while k < p {
        for r in 0..k.min(p) {
            let peer = r + k;
            if peer < p {
                programs[r].push(Op::send(peer, k as u64, bytes, 0));
                programs[peer].push(Op::recv(r, k as u64, 0));
            }
        }
        k <<= 1;
    }
    Job::new(programs.into_iter().map(RankProgram::from_ops).collect())
}

/// Recursive-doubling exchange (power-of-two ranks): log2(p) rounds of
/// pairwise isend/irecv/waitall with a little compute between rounds.
fn rdb_exchange(p: usize, bytes: u64) -> Job {
    assert!(p.is_power_of_two());
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); p];
    let mut k = 1usize;
    while k < p {
        for (r, ops) in programs.iter_mut().enumerate() {
            let peer = r ^ k;
            ops.push(Op::compute(1e-7));
            ops.push(Op::isend(peer, k as u64, bytes, 0, 0));
            ops.push(Op::Irecv { from: peer, tag: k as u64, slot: 1, req: 1 });
            ops.push(Op::WaitAll { reqs: vec![0, 1] });
        }
        k <<= 1;
    }
    Job::new(programs.into_iter().map(RankProgram::from_ops).collect())
}

/// Flat linear alltoall (the collectives registry's Alltoall ID 1, without
/// the data-movement ops): every rank posts a receive from and a send to
/// each peer at ring distance `k`, then waits on all of them. Each rank has
/// p − 1 channels live at once, so channel matching is exercised at its
/// widest.
fn linear_alltoall(p: usize, bytes: u64) -> Job {
    let programs = (0..p)
        .map(|me| {
            let mut ops = Vec::with_capacity(2 * p - 1);
            for k in 1..p {
                ops.push(Op::irecv((me + p - k) % p, 0, 0, 2 * (k - 1)));
                ops.push(Op::isend((me + k) % p, 0, bytes, 0, 2 * (k - 1) + 1));
            }
            ops.push(Op::waitall((0..2 * (p - 1)).collect()));
            RankProgram::from_ops(ops)
        })
        .collect();
    Job::new(programs)
}

/// Bitwise equality of two outcomes: every float compared via `to_bits`.
fn assert_bit_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.finish.len(), b.finish.len(), "{what}: finish length");
    for (i, (x, y)) in a.finish.iter().zip(&b.finish).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: finish[{i}] {x:e} vs {y:e}");
    }
    assert_eq!(a.phases.len(), b.phases.len(), "{what}: phase count");
    for (x, y) in a.phases.iter().zip(&b.phases) {
        assert_eq!(x.rank, y.rank, "{what}: phase rank");
        assert_eq!(x.label, y.label, "{what}: phase label");
        assert_eq!(x.enter.to_bits(), y.enter.to_bits(), "{what}: phase enter");
        assert_eq!(x.exit.to_bits(), y.exit.to_bits(), "{what}: phase exit");
    }
    assert_eq!(a.messages, b.messages, "{what}: messages");
    assert_eq!(a.events, b.events, "{what}: events");
    assert_eq!(a.data_errors, b.data_errors, "{what}: data errors");
    assert_eq!(a.slots, b.slots, "{what}: tracked slots");
    match (&a.msg_events, &b.msg_events) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.len(), y.len(), "{what}: msg event count");
            for (m, n) in x.iter().zip(y) {
                assert_eq!(
                    (m.src, m.dst, m.tag, m.bytes),
                    (n.src, n.dst, n.tag, n.bytes),
                    "{what}: msg event endpoints"
                );
                assert_eq!(m.sent.to_bits(), n.sent.to_bits(), "{what}: msg sent time");
                assert_eq!(m.delivered.to_bits(), n.delivered.to_bits(), "{what}: msg delivered");
            }
        }
        _ => panic!("{what}: msg_events presence differs"),
    }
}

/// The headline regression: 10 240-rank broadcast, `PAP_THREADS` ∈
/// {1, 2, 3, 8} all bit-identical to the sequential engine.
#[test]
fn ten_k_bcast_is_byte_identical_across_thread_counts() {
    let p = 10_240;
    let platform = scaled_simcluster(p);
    let job = binomial_bcast(p, 1024);
    let cfg = SimConfig::default();
    let seq = run_ref(&platform, &job, &cfg).expect("sequential run");
    assert!(seq.makespan() > 0.0);
    for parts in [1usize, 2, 3, 8] {
        let par = run_par(&platform, &job, &cfg, parts).expect("parallel run");
        assert_bit_identical(&seq, &par, &format!("bcast p=10240 parts={parts}"));
    }
}

/// Every optional subsystem on at once — seeded noise, dataflow tracking,
/// message recording — must survive partitioning bit-for-bit too.
#[test]
fn noisy_tracked_recorded_run_is_byte_identical() {
    let p = 1_024;
    let platform = scaled_simcluster(p);
    let job = rdb_exchange(p, 4096);
    let cfg = SimConfig {
        seed: 0xA11CE,
        track_data: true,
        noise: NoiseModel::gaussian(0.08),
        record_messages: true,
        record_phases: true,
        ..SimConfig::default()
    };
    let seq = run_ref(&platform, &job, &cfg).expect("sequential run");
    for parts in [2usize, 3, 8] {
        let par = run_par(&platform, &job, &cfg, parts).expect("parallel run");
        assert_bit_identical(&seq, &par, &format!("rdb p=1024 parts={parts}"));
    }
}

/// A fully-loaded fault spec — stalls (cascading, multiple per rank), a
/// crash on the final leaf receiver, link-slowdown windows (one wildcard),
/// and a noise storm — stays byte-identical at 10 240 ranks across every
/// partition count. This is the determinism contract of the fault layer:
/// partitions must consume stalls, enforce crash caps, and evaluate fault
/// windows exactly as the sequential engine does.
#[test]
fn faulted_ten_k_bcast_is_byte_identical_across_thread_counts() {
    let p = 10_240;
    let platform = scaled_simcluster(p);
    let job = binomial_bcast(p, 1024);
    let faults = FaultSpec::none()
        .with_stall(1, 1e-5, 3e-4)
        .with_stall(1, 2e-4, 1e-4)
        .with_stall(5_000, 0.0, 2e-4)
        .with_crash(p - 1, 2e-6)
        .with_link(0, 1, 0.0, 5e-3, 7.5)
        .with_link(ANY_NODE, 3, 1e-4, 2e-3, 3.0)
        .with_storm(2_000, 2_600, 0.0, 1e-2, 4.0);
    let cfg = SimConfig::default().with_faults(faults);
    let seq = run_ref(&platform, &job, &cfg).expect("sequential faulted run");
    // The spec must actually bite — otherwise this degenerates into the
    // clean identity test above.
    let clean = run_ref(&platform, &job, &SimConfig::default()).expect("clean run");
    assert!(
        seq.makespan() > clean.makespan(),
        "faults did not perturb the run: {} vs {}",
        seq.makespan(),
        clean.makespan()
    );
    for parts in [1usize, 2, 3, 8] {
        let par = run_par(&platform, &job, &cfg, parts).expect("parallel faulted run");
        assert_bit_identical(&seq, &par, &format!("faulted bcast p=10240 parts={parts}"));
    }
}

/// Faults layered on top of every optional subsystem — seeded noise,
/// dataflow tracking, message recording — still partition bit-for-bit.
#[test]
fn faulted_noisy_tracked_run_is_byte_identical() {
    let p = 1_024;
    let platform = scaled_simcluster(p);
    let job = rdb_exchange(p, 4096);
    let cfg = SimConfig {
        seed: 0xFA_017,
        track_data: true,
        noise: NoiseModel::gaussian(0.08),
        record_messages: true,
        record_phases: true,
        faults: FaultSpec::none()
            .with_stall(7, 5e-6, 8e-5)
            .with_link(ANY_NODE, 0, 0.0, 1e-3, 5.0)
            .with_storm(100, 180, 1e-5, 5e-4, 6.0),
    };
    let seq = run_ref(&platform, &job, &cfg).expect("sequential run");
    for parts in [2usize, 3, 8] {
        let par = run_par(&platform, &job, &cfg, parts).expect("parallel run");
        assert_bit_identical(&seq, &par, &format!("faulted rdb p=1024 parts={parts}"));
    }
}

/// `FaultSpec::none()` takes exactly the fault-free code paths: the output
/// is byte-identical to a config that never mentions faults, sequential
/// and partitioned alike.
#[test]
fn fault_spec_none_is_byte_identical_to_no_faults() {
    let p = 1_024;
    let platform = scaled_simcluster(p);
    let job = binomial_bcast(p, 1024);
    let plain = run_ref(&platform, &job, &SimConfig::default()).expect("plain run");
    let none_cfg = SimConfig::default().with_faults(FaultSpec::none());
    let none_ref = run_ref(&platform, &job, &none_cfg).expect("none() run_ref");
    assert_bit_identical(&plain, &none_ref, "FaultSpec::none() run_ref");
    let none_par = run_par(&platform, &job, &none_cfg, 4).expect("none() run_par");
    assert_bit_identical(&plain, &none_par, "FaultSpec::none() run_par");
}

/// A many-channel job: 512-rank linear alltoall of 1 KiB blocks, where every
/// destination holds up to 511 live channels. Counts and makespan are pinned
/// to the values the engine produced before channel matching was
/// hash-indexed, and the partitioned run must stay byte-identical.
#[test]
fn linear_alltoall_512_is_pinned_and_byte_identical() {
    let p = 512;
    let platform = scaled_simcluster(p);
    let job = linear_alltoall(p, 1024);
    let cfg = SimConfig::default();
    let seq = run_ref(&platform, &job, &cfg).expect("sequential run");
    assert_eq!(seq.events, 491_520, "events");
    assert_eq!(seq.messages, 261_632, "messages");
    assert_eq!(
        seq.makespan().to_bits(),
        0x3f89_c6ff_e38d_75fe,
        "makespan {:e}",
        seq.makespan()
    );
    let par = run_par(&platform, &job, &cfg, 2).expect("parallel run");
    assert_bit_identical(&seq, &par, "linear alltoall p=512 parts=2");
}
