//! Probe measurement: a skew-corrected ping-pong message-size ladder plus a
//! small reduce collective and a NIC fan-out experiment.
//!
//! A [`Probe`] is the serialized artifact an operator ships to `papd` (or
//! `papctl calibrate`) to onboard a machine: raw one-way timings in seconds,
//! no fitted parameters. In this reproduction the probe is *synthesized* from
//! the simulator — the closed-loop validation treats a machine preset as a
//! black box, measures it exactly the way a real MPI prober would (drifting
//! node clocks, HCA3-corrected timestamps, platform noise), and hands only
//! the resulting observations to the fitter.
//!
//! Timestamp correction mirrors a real deployment: the sender records its
//! local clock before the send, the receiver after the matching receive;
//! both are mapped back to estimated global time through the HCA3-synced
//! clock of their node (`pap-clocksync`). Without that correction the ±500 µs
//! NTP-scale offsets between nodes would swamp the µs-scale one-way times —
//! `fit_probe` on uncorrected observations fails its guideline checks.

use pap_clocksync::{sync_cluster, ClusterClocks, Hca3Config, SyncedClock};
use pap_sim::{run_ref, Job, MachineId, NoiseModel, Op, Platform, RankProgram, SimConfig};
use serde::{Deserialize, Serialize};

/// Version stamp of the serialized probe payload (and of the `Calibrate`
/// wire frame that carries it).
pub(crate) const PROBE_FORMAT: u32 = 1;

/// Default message-size ladder (bytes): log-spaced, dense around the common
/// eager/rendezvous thresholds (16 KiB – 64 KiB) so the protocol jump falls
/// between two adjacent rungs.
pub(crate) const LADDER: [u64; 11] =
    [64, 256, 1024, 4096, 8192, 16_384, 32_768, 65_536, 131_072, 262_144, 1_048_576];

/// Sizes of the small reduce collective used to pin the local-reduction cost
/// and cross-check the fitted point-to-point form across both protocol
/// regimes.
pub(crate) const REDUCE_SIZES: [u64; 3] = [16_384, 65_536, 1_048_576];

/// Which level of the hierarchy a ladder observation crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Scope {
    /// Both endpoints on the same node.
    Intra,
    /// Endpoints on different nodes.
    Inter,
}

/// Repeated one-way timings of one ladder rung.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderObs {
    /// Link level crossed.
    pub(crate) scope: Scope,
    /// Message size in bytes.
    pub(crate) bytes: u64,
    /// One-way times in seconds, one per repetition (skew-corrected).
    pub reps: Vec<f64>,
}

/// Paired timings of the small reduce collective: the bare transfer and the
/// same transfer followed by a local reduction of the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ReduceObs {
    /// Payload size in bytes.
    pub(crate) bytes: u64,
    /// Receive-only completion times (seconds).
    pub(crate) base: Vec<f64>,
    /// Receive+reduce completion times (seconds).
    pub(crate) reduced: Vec<f64>,
}

/// Concurrent inter-node fan-out timings, separating serialized from
/// parallel NIC egress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FanoutObs {
    /// Per-lane message size in bytes.
    pub(crate) bytes: u64,
    /// Number of concurrent sender→receiver lanes (distinct destination
    /// nodes, all senders on one source node).
    pub(crate) lanes: usize,
    /// Makespan of a single lane (seconds).
    pub(crate) single: Vec<f64>,
    /// Makespan of all lanes launched together (seconds).
    pub(crate) fanned: Vec<f64>,
}

/// A complete measured probe: everything `fit_probe` needs, nothing fitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Probe {
    /// Payload format version ([`PROBE_FORMAT`]).
    pub(crate) format: u32,
    /// Suggested machine name (becomes `custom:<name>` unless overridden).
    pub name: String,
    /// Number of compute nodes of the probed machine (operator-known).
    pub(crate) nodes: usize,
    /// Rank slots per node (operator-known).
    pub(crate) cores_per_node: usize,
    /// Ping-pong ladder observations, both scopes.
    pub ladder: Vec<LadderObs>,
    /// Small-collective (reduce) observations.
    pub(crate) reduce: Vec<ReduceObs>,
    /// NIC fan-out observations, absent when the machine has a single node.
    pub(crate) fanout: Option<FanoutObs>,
}

impl Probe {
    /// Parse a probe from JSON, checking the format stamp.
    pub fn from_json(s: &str) -> Result<Probe, String> {
        let p: Probe = serde_json::from_str(s).map_err(|e| format!("bad probe JSON: {e}"))?;
        if p.format != PROBE_FORMAT {
            return Err(format!("probe format {} unsupported (expected {PROBE_FORMAT})", p.format));
        }
        Ok(p)
    }
}

/// How to synthesize a probe from a simulated platform.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Repetitions per measurement point.
    pub reps: usize,
    /// Base RNG seed (noise draws and clock generation derive from it).
    pub seed: u64,
    /// Apply the platform's default noise model to every run (the "measured
    /// on a real machine" setting). Off = noise-free observations.
    pub noise: bool,
    /// Route timestamps through drifting per-node clocks corrected by HCA3
    /// sync, instead of reading true simulated time directly.
    pub clock_sync: bool,
    /// HCA3 sync parameters (when `clock_sync`).
    pub hca3: Hca3Config,
    /// Message-size ladder.
    pub sizes: Vec<u64>,
    /// Concurrent lanes of the NIC fan-out experiment.
    pub lanes: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            reps: 7,
            seed: 0xCA11,
            noise: true,
            clock_sync: true,
            hca3: Hca3Config::default(),
            sizes: LADDER.to_vec(),
            lanes: 4,
        }
    }
}

/// Timestamping backend: either true simulated time, or local readings of
/// drifting node clocks mapped back through their HCA3-synced estimates.
struct Timebase {
    clocks: Option<(ClusterClocks, Vec<SyncedClock>)>,
}

impl Timebase {
    fn new(platform: &Platform, cfg: &ProbeConfig) -> Timebase {
        if !cfg.clock_sync {
            return Timebase { clocks: None };
        }
        let nodes = platform.occupied_nodes();
        let truth = ClusterClocks::realistic(nodes, cfg.seed ^ 0xC10C);
        let synced = sync_cluster(&truth, &cfg.hca3, cfg.seed ^ 0x5A5A);
        Timebase { clocks: Some((truth, synced)) }
    }

    /// Duration between an event at `t_start` on `src_node` and one at
    /// `t_end` on `dst_node`, as the prober would compute it from two
    /// corrected timestamps.
    fn duration(&self, src_node: usize, dst_node: usize, t_start: f64, t_end: f64) -> f64 {
        match &self.clocks {
            None => t_end - t_start,
            Some((truth, synced)) => {
                let l_start = truth.nodes[src_node].local_of(t_start);
                let l_end = truth.nodes[dst_node].local_of(t_end);
                synced[dst_node].global_of(l_end) - synced[src_node].global_of(l_start)
            }
        }
    }
}

fn sim_config(platform: &Platform, cfg: &ProbeConfig, salt: u64) -> SimConfig {
    let noise = if cfg.noise { platform.default_noise } else { NoiseModel::None };
    SimConfig {
        seed: cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        noise,
        record_phases: false,
        ..SimConfig::default()
    }
}

/// One message `src → dst`; returns the receiver's completion time (true
/// simulated seconds; the caller converts through the [`Timebase`]).
fn one_way(
    platform: &Platform,
    src: usize,
    dst: usize,
    bytes: u64,
    sim: &SimConfig,
) -> Result<f64, String> {
    let mut programs = vec![RankProgram::new(); platform.ranks];
    programs[src] = RankProgram::from_ops(vec![Op::send(dst, 1, bytes, 0)]);
    programs[dst] = RankProgram::from_ops(vec![Op::recv(src, 1, 0)]);
    let out = run_ref(platform, &Job::new(programs), sim).map_err(|e| format!("probe run: {e}"))?;
    Ok(out.finish[dst])
}

/// The reduce micro-collective: rank `src` sends, rank `dst` receives and —
/// when `reduce` — folds the payload into its accumulator.
fn reduce_run(
    platform: &Platform,
    src: usize,
    dst: usize,
    bytes: u64,
    reduce: bool,
    sim: &SimConfig,
) -> Result<f64, String> {
    let mut programs = vec![RankProgram::new(); platform.ranks];
    programs[src] = RankProgram::from_ops(vec![Op::send(dst, 1, bytes, 0)]);
    let mut ops = vec![Op::recv(src, 1, 0)];
    if reduce {
        ops.push(Op::ReduceLocal { from: 0, into: 1, bytes });
    }
    programs[dst] = RankProgram::from_ops(ops);
    let out = run_ref(platform, &Job::new(programs), sim).map_err(|e| format!("probe run: {e}"))?;
    Ok(out.finish[dst])
}

/// `lanes` concurrent inter-node sends from node 0 to distinct nodes;
/// returns each receiver's completion (true simulated seconds).
fn fanout_run(
    platform: &Platform,
    lanes: usize,
    bytes: u64,
    sim: &SimConfig,
) -> Result<Vec<(usize, f64)>, String> {
    let cpn = platform.cores_per_node;
    let mut programs = vec![RankProgram::new(); platform.ranks];
    let mut receivers = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let src = lane; // node 0
        let dst = (lane + 1) * cpn; // node lane+1
        programs[src] = RankProgram::from_ops(vec![Op::send(dst, 1, bytes, 0)]);
        programs[dst] = RankProgram::from_ops(vec![Op::recv(src, 1, 0)]);
        receivers.push(dst);
    }
    let out = run_ref(platform, &Job::new(programs), sim).map_err(|e| format!("probe run: {e}"))?;
    Ok(receivers.into_iter().map(|r| (r, out.finish[r])).collect())
}

/// Measure a probe against a (black-box) platform via the simulator.
///
/// `machine` must resolve through [`Platform::try_preset`]; `name` is the
/// suggested name recorded in the probe. The probe covers the intra pair
/// `(0, 1)`, the inter pair `(0, cores_per_node)`, the reduce collective on
/// the intra pair, and — given at least `lanes + 1` nodes — the NIC fan-out
/// experiment.
pub fn synthesize_probe(
    machine: MachineId,
    name: &str,
    cfg: &ProbeConfig,
) -> Result<Probe, String> {
    let base = Platform::try_preset(machine, 1)?;
    let cpn = base.cores_per_node;
    if cpn < 2 {
        return Err("probe needs at least 2 cores per node for the intra-node ladder".into());
    }
    let lanes = cfg.lanes.clamp(2, cpn).min(base.nodes.saturating_sub(1));
    let want_fanout = lanes >= 2;
    // Enough ranks for the widest experiment: receivers live on nodes
    // 1..=lanes at rank node*cpn.
    let ranks = if want_fanout { lanes * cpn + 1 } else { cpn + 1 };
    let platform = Platform::try_preset(machine, ranks)?;
    let tb = Timebase::new(&platform, cfg);
    if cfg.reps == 0 || cfg.sizes.len() < 4 {
        return Err("probe needs reps >= 1 and a ladder of at least 4 sizes".into());
    }

    let mut ladder = Vec::new();
    for (scope, src, dst) in [(Scope::Intra, 0usize, 1usize), (Scope::Inter, 0, cpn)] {
        let (sn, dn) = (platform.node_of(src), platform.node_of(dst));
        for (si, &bytes) in cfg.sizes.iter().enumerate() {
            let mut reps = Vec::with_capacity(cfg.reps);
            for rep in 0..cfg.reps {
                let salt = (scope as u64) << 32 | (si as u64) << 16 | rep as u64;
                let sim = sim_config(&platform, cfg, salt);
                let t = one_way(&platform, src, dst, bytes, &sim)?;
                reps.push(tb.duration(sn, dn, 0.0, t));
            }
            ladder.push(LadderObs { scope, bytes, reps });
        }
    }

    let mut reduce = Vec::new();
    for (si, &bytes) in REDUCE_SIZES.iter().enumerate() {
        let (mut b, mut r) = (Vec::new(), Vec::new());
        for rep in 0..cfg.reps {
            let salt = 0xD0CE ^ ((si as u64) << 16 | rep as u64);
            let sim = sim_config(&platform, cfg, salt);
            b.push(reduce_run(&platform, 1, 0, bytes, false, &sim)?);
            r.push(reduce_run(&platform, 1, 0, bytes, true, &sim)?);
        }
        reduce.push(ReduceObs { bytes, base: b, reduced: r });
    }

    let fanout = if want_fanout {
        let bytes = 1 << 20;
        let (mut single, mut fanned) = (Vec::new(), Vec::new());
        for rep in 0..cfg.reps {
            let sim = sim_config(&platform, cfg, 0xFA0 ^ rep as u64);
            // Single lane: node 0 → node 1 alone.
            let one = fanout_run(&platform, 1, bytes, &sim)?;
            single.push(
                one.iter()
                    .map(|&(r, t)| tb.duration(0, platform.node_of(r), 0.0, t))
                    .fold(0.0, f64::max),
            );
            let all = fanout_run(&platform, lanes, bytes, &sim)?;
            fanned.push(
                all.iter()
                    .map(|&(r, t)| tb.duration(0, platform.node_of(r), 0.0, t))
                    .fold(0.0, f64::max),
            );
        }
        Some(FanoutObs { bytes, lanes, single, fanned })
    } else {
        None
    };

    Ok(Probe {
        format: PROBE_FORMAT,
        name: name.to_string(),
        nodes: base.nodes,
        cores_per_node: cpn,
        ladder,
        reduce,
        fanout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_covers_both_scopes_and_round_trips() {
        let cfg = ProbeConfig { reps: 2, noise: false, clock_sync: false, ..Default::default() };
        let p = synthesize_probe(MachineId::Hydra, "h", &cfg).unwrap();
        assert_eq!(p.format, PROBE_FORMAT);
        assert!(p.ladder.iter().any(|o| o.scope == Scope::Intra));
        assert!(p.ladder.iter().any(|o| o.scope == Scope::Inter));
        assert!(!p.reduce.is_empty());
        assert!(p.fanout.is_some());
        let back = Probe::from_json(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(back.ladder.len(), p.ladder.len());
        assert_eq!(back.cores_per_node, p.cores_per_node);
    }

    #[test]
    fn noise_free_intra_observation_matches_p2p_arithmetic() {
        let cfg = ProbeConfig { reps: 1, noise: false, clock_sync: false, ..Default::default() };
        let p = synthesize_probe(MachineId::SimCluster, "s", &cfg).unwrap();
        let pf = Platform::simcluster(2);
        let small = p
            .ladder
            .iter()
            .find(|o| o.scope == Scope::Intra && o.bytes == 64)
            .expect("64 B intra rung");
        // Eager one-way: o_s + L + b/bw + o_r.
        let expect = pf.p2p_estimate(0, 1, 64);
        assert!(
            (small.reps[0] - expect).abs() < 1e-9,
            "measured {} vs expected {expect}",
            small.reps[0]
        );
    }

    #[test]
    fn skew_correction_keeps_observations_near_truth() {
        let noisy = ProbeConfig { reps: 2, noise: false, clock_sync: true, ..Default::default() };
        let clean = ProbeConfig { reps: 2, noise: false, clock_sync: false, ..Default::default() };
        let a = synthesize_probe(MachineId::Hydra, "h", &noisy).unwrap();
        let b = synthesize_probe(MachineId::Hydra, "h", &clean).unwrap();
        for (oa, ob) in a.ladder.iter().zip(&b.ladder) {
            assert_eq!(oa.bytes, ob.bytes);
            // HCA3 residual is sub-µs; uncorrected offsets would be ±500 µs.
            assert!(
                (oa.reps[0] - ob.reps[0]).abs() < 5e-7,
                "{:?} {} B: corrected {} vs true {}",
                oa.scope,
                oa.bytes,
                oa.reps[0],
                ob.reps[0]
            );
        }
    }
}
