//! Regression: a run is **byte-identical** every time it is repeated.
//!
//! The engine's contract is not "statistically equivalent" but *bitwise
//! equal output* for the same job, platform and config — every `f64` in the
//! outcome compared via `to_bits`, every count exactly equal. Ties in event
//! time are broken by a canonical key (kind, then rank or message uid), not
//! by insertion order. These tests pin that contract at 10K ranks (where the
//! scale machinery — startup sweep, calendar queue — is actually engaged),
//! on a many-channel linear alltoall, and under noise + dataflow tracking +
//! message recording (where every optional subsystem must stay deterministic
//! too); a noisy two-node run is pinned as well. Each case runs the job
//! twice, once through [`pap_sim::run`] on a clone and once through
//! [`pap_sim::run_ref`], so both entry points agree.

use pap_sim::{
    run, run_ref, FaultSpec, Job, NoiseModel, Op, Platform, RankProgram, RunOutcome, SimConfig,
    ANY_NODE,
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

/// Run `job` twice — by value through [`run`] and by reference through
/// [`run_ref`] — and require bitwise-equal outcomes. Returns the second.
fn run_twice(platform: &Platform, job: &Job, cfg: &SimConfig, what: &str) -> RunOutcome {
    let first = run(platform, job.clone(), cfg).expect("first run");
    let second = run_ref(platform, job, cfg).expect("second run");
    assert_bit_identical(&first, &second, what);
    second
}

/// The headline regression: a 10 240-rank broadcast repeats bit-for-bit.
#[test]
fn ten_k_bcast_is_byte_identical_across_runs() {
    let p = 10_240;
    let platform = scaled_simcluster(p);
    let job = binomial_bcast(p, 1024);
    let out = run_twice(&platform, &job, &SimConfig::default(), "bcast p=10240");
    assert!(out.makespan() > 0.0);
}

/// Every optional subsystem on at once — seeded noise, dataflow tracking,
/// message recording — must repeat bit-for-bit too.
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
        ..SimConfig::default()
    };
    run_twice(&platform, &job, &cfg, "rdb p=1024");
}

/// A fully-loaded fault spec — stalls (cascading, multiple per rank), a
/// crash on the final leaf receiver, link-slowdown windows (one wildcard),
/// and a noise storm — stays byte-identical at 10 240 ranks. This is the
/// determinism contract of the fault layer: stalls are consumed, crash caps
/// enforced and fault windows evaluated identically on every run.
#[test]
fn faulted_ten_k_bcast_is_byte_identical_across_runs() {
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
    let faulted = run_twice(&platform, &job, &cfg, "faulted bcast p=10240");
    // The spec must actually bite — otherwise this degenerates into the
    // clean determinism test above.
    let clean = run_ref(&platform, &job, &SimConfig::default()).expect("clean run");
    assert!(
        faulted.makespan() > clean.makespan(),
        "faults did not perturb the run: {} vs {}",
        faulted.makespan(),
        clean.makespan()
    );
}

/// Faults layered on top of every optional subsystem — seeded noise,
/// dataflow tracking, message recording — still repeat bit-for-bit.
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
        faults: FaultSpec::none()
            .with_stall(7, 5e-6, 8e-5)
            .with_link(ANY_NODE, 0, 0.0, 1e-3, 5.0)
            .with_storm(100, 180, 1e-5, 5e-4, 6.0),
    };
    run_twice(&platform, &job, &cfg, "faulted rdb p=1024");
}

/// `FaultSpec::none()` takes exactly the fault-free code paths: the output
/// is byte-identical to a config that never mentions faults.
#[test]
fn fault_spec_none_is_byte_identical_to_no_faults() {
    let p = 1_024;
    let platform = scaled_simcluster(p);
    let job = binomial_bcast(p, 1024);
    let plain = run_ref(&platform, &job, &SimConfig::default()).expect("plain run");
    let none_cfg = SimConfig::default().with_faults(FaultSpec::none());
    let none = run_twice(&platform, &job, &none_cfg, "FaultSpec::none() repeat");
    assert_bit_identical(&plain, &none, "FaultSpec::none() vs no faults");
}

/// A many-channel job: 512-rank linear alltoall of 1 KiB blocks, where every
/// destination holds up to 511 live channels. Counts and makespan are pinned
/// to the values the engine produced before channel matching was
/// hash-indexed, and a repeated run must stay byte-identical.
#[test]
fn linear_alltoall_512_is_pinned_and_byte_identical() {
    let p = 512;
    let platform = scaled_simcluster(p);
    let job = linear_alltoall(p, 1024);
    let out = run_twice(&platform, &job, &SimConfig::default(), "linear alltoall p=512");
    assert_eq!(out.events, 491_520, "events");
    assert_eq!(out.messages, 261_632, "messages");
    assert_eq!(
        out.makespan().to_bits(),
        0x3f89_c6ff_e38d_75fe,
        "makespan {:e}",
        out.makespan()
    );
}

/// A noisy run across nodes: a Gaussian-noise recursive-doubling exchange
/// on two-node Hydra. Noise draws are keyed by program order and message
/// uid, so the run takes the same event elision as its noise-free twin —
/// the event counts are equal — and its counts and makespan are pinned.
#[test]
fn noisy_multi_node_rdb_is_pinned_and_elided() {
    let p = 64;
    let platform = Platform::hydra(p);
    assert!(platform.occupied_nodes() > 1);
    let job = rdb_exchange(p, 4096);
    let cfg = SimConfig { seed: 0xB17, noise: NoiseModel::gaussian(0.05), ..SimConfig::default() };
    let noisy = run_twice(&platform, &job, &cfg, "noisy rdb hydra p=64");
    let quiet = run_ref(&platform, &job, &SimConfig::default()).expect("noise-free run");
    assert_eq!(noisy.events, quiet.events, "noisy and noise-free runs elide the same events");
    assert_ne!(noisy.makespan().to_bits(), quiet.makespan().to_bits(), "the noise must bite");
    // Two events per inter-node message: the 64 of the k = 32 round.
    assert_eq!(noisy.events, 128, "events");
    assert_eq!(noisy.messages, 384, "messages");
    assert_eq!(noisy.makespan().to_bits(), 0x3ef3_b103_eae7_6616, "makespan {:e}", noisy.makespan());
}
