//! Fault-reachability: static crash cones and per-schedule blast radius.
//!
//! For a fail-stop crash of rank `R` after `k` completed ops, the **crash
//! cone** is the transitive set of surviving ranks (and the ops they block
//! at) that can never finish — computed by re-running the abstract channel
//! fixpoint of the `exec` module with `R` frozen at `k`, with no simulation.
//!
//! The correspondence with the engine is exact, not heuristic:
//!
//! * a crashed rank's completed ops stand — messages it sent are in flight
//!   and still deliver (the engine only drops deliveries *addressed to* a
//!   dead rank), receives it completed consumed their counterpart;
//! * the op it died attempting never entered the channels: a send dies
//!   during its send overhead (the message never left), a receive dies
//!   while posting ("nothing was matched or consumed");
//! * eager sends *to* the dead rank still complete (the sender never
//!   blocks; the delivery is dropped on the floor), while rendezvous sends
//!   starve unless the dead rank completed the matching receive first.
//!
//! Because the fixpoint is monotone in every rank's position, the cone of
//! `(R, k)` is *the* unique outcome under every interleaving, and cones
//! shrink (weakly) as `k` grows: crashing earlier starves weakly more. The
//! per-schedule summary ([`blast_radius`]) therefore keys on the entry
//! cones (`k = 0` — the rank dies before contributing anything), which is
//! also exactly what a timed crash at or before the harmonized arrival
//! instant produces in the engine: channel-visible work costs strictly
//! positive time, so nothing escapes.

use pap_sim::Job;
use serde::{Deserialize, Serialize};

use crate::diag::OpLoc;
use crate::exec;
use crate::view::View;
use crate::LintConfig;

/// A static fail-stop point: the rank completed exactly its first `op`
/// flattened ops, then died attempting the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// The crashed rank.
    pub rank: usize,
    /// Completed-op count (flattened program order). `0` = died on entry,
    /// before contributing anything to any channel.
    pub op: usize,
}

impl CrashPoint {
    /// A crash on entry: the rank dies before executing anything.
    pub fn on_entry(rank: usize) -> Self {
        CrashPoint { rank, op: 0 }
    }
}

/// A surviving rank starved by a crash, and the op it blocks at forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StarvedOp {
    /// The starved survivor.
    pub rank: usize,
    /// Coordinates of the op it can never complete.
    pub loc: OpLoc,
}

/// The crash cone of one (set of) fail-stop point(s): every surviving rank
/// that blocks forever, with the op it blocks at. Sorted by rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashCone {
    /// The crash points the cone was computed for.
    pub crashes: Vec<CrashPoint>,
    /// Starved survivors (crashed ranks are dead by design, not starved).
    pub starved: Vec<StarvedOp>,
}

impl CrashCone {
    /// No survivor starves: the schedule completes without the dead ranks.
    pub fn is_empty(&self) -> bool {
        self.starved.is_empty()
    }

    /// The starved ranks, sorted ascending.
    pub fn starved_ranks(&self) -> Vec<usize> {
        self.starved.iter().map(|s| s.rank).collect()
    }
}

/// Compute the crash cone of one or more simultaneous fail-stop points.
///
/// # Panics
///
/// Panics when a crash names a rank outside the job or lists the same rank
/// twice; `op` is clamped to the rank's program length.
pub fn crash_cone(job: &Job, cfg: &LintConfig, crashes: &[CrashPoint]) -> CrashCone {
    cone_of(&View::new(job), cfg, crashes)
}

/// [`crash_cone`] over a built view (one view serves every cone of a job).
pub(crate) fn cone_of(view: &View, cfg: &LintConfig, crashes: &[CrashPoint]) -> CrashCone {
    let ranks = view.ranks();
    let mut limits: Vec<Option<usize>> = vec![None; ranks];
    for c in crashes {
        assert!(c.rank < ranks, "crash rank {} out of range (ranks {})", c.rank, ranks);
        assert!(limits[c.rank].is_none(), "rank {} crashes twice", c.rank);
        limits[c.rank] = Some(c.op.min(view.range(c.rank).len()));
    }
    let stalled = exec::execute(view, Some(cfg.eager_threshold), &limits);
    // Ranks in order, so the cone is sorted by rank.
    let starved: Vec<StarvedOp> = stalled
        .iter()
        .enumerate()
        .filter_map(|(r, s)| s.as_ref().map(|s| StarvedOp { rank: r, loc: view.loc(s.at) }))
        .collect();
    CrashCone { crashes: crashes.to_vec(), starved }
}

/// Per-schedule blast radius: the entry cone (`k = 0`) of every rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlastRadius {
    /// Rank count of the job.
    pub ranks: usize,
    /// `entry_starved[r]` = survivors starved when rank `r` dies on entry.
    pub entry_starved: Vec<usize>,
    /// Ranks whose entry crash starves at least one survivor.
    pub critical: Vec<usize>,
    /// Largest entry cone.
    pub max_starved: usize,
    /// Mean entry-cone size across ranks.
    pub mean_starved: f64,
}

/// Compute the entry cone of every rank (one fixpoint per rank).
pub fn blast_radius(job: &Job, cfg: &LintConfig) -> BlastRadius {
    blast_of(&entry_cones(&View::new(job), cfg))
}

/// The entry cone of every rank of `view`, in rank order.
fn entry_cones(view: &View, cfg: &LintConfig) -> Vec<CrashCone> {
    (0..view.ranks()).map(|r| cone_of(view, cfg, &[CrashPoint::on_entry(r)])).collect()
}

/// Summarize the entry cones of a job, in rank order.
fn blast_of(cones: &[CrashCone]) -> BlastRadius {
    let ranks = cones.len();
    let entry_starved: Vec<usize> = cones.iter().map(|c| c.starved.len()).collect();
    let critical: Vec<usize> = (0..ranks).filter(|&r| entry_starved[r] > 0).collect();
    let max_starved = entry_starved.iter().copied().max().unwrap_or(0);
    let mean_starved = if ranks == 0 {
        0.0
    } else {
        entry_starved.iter().sum::<usize>() as f64 / ranks as f64
    };
    BlastRadius { ranks, entry_starved, critical, max_starved, mean_starved }
}

/// Configuration of the registry-wide fault sweep (`papctl lint --faults`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweepConfig {
    /// Rank counts to cover (power-of-two and non-power-of-two).
    pub ranks: Vec<usize>,
    /// Message sizes in bytes (should straddle the eager threshold).
    pub sizes: Vec<u64>,
    /// Eager threshold for the reachability fixpoint.
    pub eager_threshold: u64,
    /// Segment size for segmented algorithms.
    pub seg_bytes: u64,
    /// Also attempt a certified repair of each case's worst crash.
    pub repair: bool,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        FaultSweepConfig {
            ranks: vec![8, 12, 32],
            // One eager size, one rendezvous size: the protocol split flips
            // which sends block, which changes the cones.
            sizes: vec![1024, 128 * 1024],
            eager_threshold: 16 * 1024,
            seg_bytes: pap_collectives::DEFAULT_SEG_BYTES,
            repair: true,
        }
    }
}

/// The repair verdict of one sweep case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairVerdict {
    /// The rewrite passed certification.
    Certified,
    /// No mechanical rewrite exists for the topology.
    Unsupported(String),
    /// A rewrite was produced but failed re-verification — a repair bug.
    CertFailed(String),
    /// Repair was not attempted (`FaultSweepConfig::repair` off).
    Skipped,
}

/// One (algorithm, ranks, size) case of the fault sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCaseRow {
    /// Collective name.
    pub collective: String,
    /// Algorithm ID.
    pub alg: u8,
    /// Rank count.
    pub ranks: usize,
    /// Root used to build the schedule.
    pub root: usize,
    /// Message size in bytes.
    pub bytes: u64,
    /// `entry_starved[r]`: survivors starved when rank `r` dies on entry.
    pub entry_starved: Vec<usize>,
    /// Ranks whose entry crash starves at least one survivor.
    pub critical: Vec<usize>,
    /// The crash victim chosen for repair: the non-root rank with the
    /// largest entry cone.
    pub victim: usize,
    /// The victim's entry-cone starved ranks.
    pub victim_starved: Vec<usize>,
    /// The certified-repair verdict for the victim crash.
    pub repair: RepairVerdict,
}

/// Per-algorithm aggregate of the fault sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultAlgRow {
    /// Collective name.
    pub collective: String,
    /// Algorithm ID.
    pub alg: u8,
    /// Algorithm name (Table II).
    pub name: String,
    /// Cases analyzed.
    pub cases: usize,
    /// Largest entry cone over all cases and crash ranks.
    pub max_starved: usize,
    /// Mean entry-cone size over all cases and crash ranks.
    pub mean_starved: f64,
    /// Mean fraction of ranks whose entry crash starves someone.
    pub critical_frac: f64,
    /// Cases whose victim repair certified.
    pub repaired: usize,
    /// Cases with no mechanical rewrite.
    pub unsupported: usize,
    /// Cases whose rewrite failed certification (repair bugs).
    pub cert_failed: usize,
}

/// The fault-sweep document (`papctl lint --faults --json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepSummary {
    /// Rank counts covered.
    pub ranks: Vec<usize>,
    /// Sizes covered.
    pub sizes: Vec<u64>,
    /// Eager threshold used.
    pub eager_threshold: u64,
    /// Total cases analyzed.
    pub cases: usize,
    /// Victim repairs that certified.
    pub repaired: usize,
    /// Cases with no mechanical rewrite.
    pub unsupported: usize,
    /// Rewrites that failed certification (must be zero).
    pub cert_failed: usize,
    /// Per-algorithm aggregates, registry order.
    pub algorithms: Vec<FaultAlgRow>,
    /// Every case, with its blast-radius data.
    pub case_rows: Vec<FaultCaseRow>,
}

impl FaultSweepSummary {
    /// Every produced rewrite passed certification.
    pub fn is_clean(&self) -> bool {
        self.cert_failed == 0
    }

    /// Fixed-width blast-radius table (the `papctl lint --faults` output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>3}  {:<18} {:>5} {:>8} {:>9} {:>6} {:>8} {:>6} {:>9}  status\n",
            "collective", "alg", "name", "cases", "max-cone", "mean-cone", "crit%", "repaired", "unsup", "certfail"
        ));
        for row in &self.algorithms {
            out.push_str(&format!(
                "{:<14} {:>3}  {:<18} {:>5} {:>8} {:>9.2} {:>5.0}% {:>8} {:>6} {:>9}  {}\n",
                row.collective,
                row.alg,
                row.name,
                row.cases,
                row.max_starved,
                row.mean_starved,
                row.critical_frac * 100.0,
                row.repaired,
                row.unsupported,
                row.cert_failed,
                if row.cert_failed > 0 { "FAIL" } else { "ok" }
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>3}  {:<18} {:>5} {:>8} {:>9} {:>6} {:>8} {:>6} {:>9}  {}\n",
            "TOTAL",
            "",
            "",
            self.cases,
            "",
            "",
            "",
            self.repaired,
            self.unsupported,
            self.cert_failed,
            if self.cert_failed > 0 { "FAIL" } else { "ok" }
        ));
        out
    }
}

/// Run the fault sweep: compute the blast radius of every registered
/// algorithm across `cfg.ranks` and `cfg.sizes` (root 0 — cones are
/// isomorphic under root relabeling), then attempt a certified repair of
/// each case's worst non-root crash. Cases fan out over the `pap-parallel`
/// worker pool; the result is deterministic and order-independent.
pub fn sweep_faults(cfg: &FaultSweepConfig) -> FaultSweepSummary {
    use pap_collectives::registry::algorithms;
    use pap_collectives::{build, CollSpec, CollectiveKind};
    use pap_sim::RankProgram;

    struct Case {
        kind: pap_collectives::registry::CollectiveKind,
        alg: u8,
        p: usize,
        bytes: u64,
    }
    let mut cases = Vec::new();
    for kind in CollectiveKind::ALL {
        for a in algorithms(kind) {
            for &p in &cfg.ranks {
                for &bytes in &cfg.sizes {
                    cases.push(Case { kind, alg: a.id, p, bytes });
                }
            }
        }
    }

    let lint_cfg = LintConfig { eager_threshold: cfg.eager_threshold };
    let rows: Vec<FaultCaseRow> = pap_parallel::par_map(&cases, |_, case| {
        let root = 0usize;
        let spec = CollSpec::new(case.kind, case.alg, case.bytes)
            .with_root(root)
            .with_seg_bytes(cfg.seg_bytes);
        let built = build(&spec, case.p).expect("registry build");
        let job = Job::new(built.rank_ops.into_iter().map(RankProgram::from_ops).collect());
        let view = View::new(&job);
        let cones = entry_cones(&view, &lint_cfg);
        let blast = blast_of(&cones);
        // Worst non-root crash: the root's death voids the collective's
        // semantics, so repair targets a non-root rank (ties → lowest).
        let victim = (0..case.p)
            .filter(|&r| !crate::sweep::uses_root(case.kind) || r != root)
            .max_by_key(|&r| (blast.entry_starved[r], usize::MAX - r))
            .unwrap_or(0);
        let victim_starved = cones[victim].starved_ranks();
        let repair = if cfg.repair {
            let repaired = crate::repair::repair_view(&job, &view, &lint_cfg, victim);
            match crate::repair::certify(repaired, &lint_cfg) {
                Ok(_) => RepairVerdict::Certified,
                Err(e @ crate::repair::RepairError::Unsupported { .. }) => {
                    RepairVerdict::Unsupported(e.to_string())
                }
                Err(e) => RepairVerdict::CertFailed(e.to_string()),
            }
        } else {
            RepairVerdict::Skipped
        };
        FaultCaseRow {
            collective: case.kind.name().to_string(),
            alg: case.alg,
            ranks: case.p,
            root,
            bytes: case.bytes,
            entry_starved: blast.entry_starved,
            critical: blast.critical,
            victim,
            victim_starved,
            repair,
        }
    });

    // One row per registered algorithm, in registry order.
    let mut algo_rows: Vec<FaultAlgRow> = CollectiveKind::ALL
        .into_iter()
        .flat_map(algorithms)
        .map(|a| FaultAlgRow {
            collective: a.kind.name().to_string(),
            alg: a.id,
            name: a.name.to_string(),
            cases: 0,
            max_starved: 0,
            mean_starved: 0.0,
            critical_frac: 0.0,
            repaired: 0,
            unsupported: 0,
            cert_failed: 0,
        })
        .collect();
    for row in &rows {
        let entry = algo_rows
            .iter_mut()
            .find(|r| r.collective == row.collective && r.alg == row.alg)
            .expect("cases come from the registry");
        entry.cases += 1;
        let case_max = row.entry_starved.iter().copied().max().unwrap_or(0);
        entry.max_starved = entry.max_starved.max(case_max);
        // Accumulate sums; normalized to means after the loop.
        entry.mean_starved +=
            row.entry_starved.iter().sum::<usize>() as f64 / row.entry_starved.len() as f64;
        entry.critical_frac += row.critical.len() as f64 / row.ranks as f64;
        match &row.repair {
            RepairVerdict::Certified => entry.repaired += 1,
            RepairVerdict::Unsupported(_) => entry.unsupported += 1,
            RepairVerdict::CertFailed(_) => entry.cert_failed += 1,
            RepairVerdict::Skipped => {}
        }
    }
    algo_rows.retain(|r| r.cases > 0);
    for r in &mut algo_rows {
        r.mean_starved /= r.cases as f64;
        r.critical_frac /= r.cases as f64;
    }

    FaultSweepSummary {
        ranks: cfg.ranks.clone(),
        sizes: cfg.sizes.clone(),
        eager_threshold: cfg.eager_threshold,
        cases: rows.len(),
        repaired: algo_rows.iter().map(|r| r.repaired).sum(),
        unsupported: algo_rows.iter().map(|r| r.unsupported).sum(),
        cert_failed: algo_rows.iter().map(|r| r.cert_failed).sum(),
        algorithms: algo_rows,
        case_rows: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_collectives::{build, CollSpec, CollectiveKind};
    use pap_sim::{Job, Op, RankProgram};

    fn registry_job(kind: CollectiveKind, alg: u8, p: usize, bytes: u64) -> Job {
        let built = build(&CollSpec::new(kind, alg, bytes), p).unwrap();
        Job::new(built.rank_ops.into_iter().map(RankProgram::from_ops).collect())
    }

    fn job_of(ops: Vec<Vec<Op>>) -> Job {
        Job::new(ops.into_iter().map(RankProgram::from_ops).collect())
    }

    #[test]
    fn pair_cone_rendezvous_recv_starves() {
        // 0 sends (rendezvous) to 1; killing 1 on entry starves 0's send,
        // killing 0 on entry starves 1's recv.
        let big = 64 * 1024;
        let job = job_of(vec![vec![Op::send(1, 7, big, 0)], vec![Op::recv(0, 7, 0)]]);
        let cfg = LintConfig::default();
        let cone = crash_cone(&job, &cfg, &[CrashPoint::on_entry(1)]);
        assert_eq!(cone.starved_ranks(), vec![0]);
        let cone = crash_cone(&job, &cfg, &[CrashPoint::on_entry(0)]);
        assert_eq!(cone.starved_ranks(), vec![1]);
    }

    #[test]
    fn eager_send_to_dead_rank_completes() {
        // An eager send to a dead rank is dropped on the floor — the sender
        // finishes; only a *receive* from the dead rank starves.
        let job = job_of(vec![vec![Op::send(1, 7, 8, 0)], vec![Op::recv(0, 7, 0)]]);
        let cfg = LintConfig::default();
        let cone = crash_cone(&job, &cfg, &[CrashPoint::on_entry(1)]);
        assert!(cone.is_empty(), "eager sender must not starve: {:?}", cone.starved);
    }

    #[test]
    fn completed_prefix_still_delivers() {
        // Rank 0 sends then dies: with the send in the completed prefix
        // (k = 1) the survivor's receive completes; at k = 0 it starves.
        let job = job_of(vec![vec![Op::send(1, 7, 8, 0)], vec![Op::recv(0, 7, 0)]]);
        let cfg = LintConfig::default();
        assert!(crash_cone(&job, &cfg, &[CrashPoint { rank: 0, op: 1 }]).is_empty());
        assert_eq!(
            crash_cone(&job, &cfg, &[CrashPoint::on_entry(0)]).starved_ranks(),
            vec![1]
        );
    }

    #[test]
    fn transitive_cone_through_a_chain() {
        // 0 → 1 → 2 relay (rendezvous): killing 0 starves 1 at its recv and
        // 2 transitively.
        let big = 64 * 1024;
        let job = job_of(vec![
            vec![Op::send(1, 1, big, 0)],
            vec![Op::recv(0, 1, 0), Op::send(2, 2, big, 0)],
            vec![Op::recv(1, 2, 0)],
        ]);
        let cfg = LintConfig::default();
        let cone = crash_cone(&job, &cfg, &[CrashPoint::on_entry(0)]);
        assert_eq!(cone.starved_ranks(), vec![1, 2]);
        // The starved op of rank 1 is its recv (flat 0), not the send.
        assert_eq!(cone.starved[0].loc.op, 0);
    }

    #[test]
    fn binomial_reduce_leaf_crash_starves_ancestor_chain() {
        // 8-rank binomial reduce to root 0: killing leaf 7 starves its
        // parent's recv and every ancestor up to the root.
        let job = registry_job(CollectiveKind::Reduce, 5, 8, 1024);
        let cfg = LintConfig::default();
        let cone = crash_cone(&job, &cfg, &[CrashPoint::on_entry(7)]);
        assert!(!cone.is_empty(), "reduce needs every contribution");
        assert!(
            cone.starved_ranks().contains(&0),
            "the root transitively starves: {:?}",
            cone.starved_ranks()
        );
    }

    #[test]
    fn blast_radius_flags_critical_ranks() {
        let job = registry_job(CollectiveKind::Reduce, 5, 8, 1024);
        let cfg = LintConfig::default();
        let blast = blast_radius(&job, &cfg);
        assert_eq!(blast.ranks, 8);
        assert_eq!(blast.entry_starved.len(), 8);
        assert!(blast.max_starved > 0);
        assert!(!blast.critical.is_empty(), "a reduce has critical ranks");
        assert!(blast.mean_starved > 0.0);
    }

    #[test]
    fn multi_crash_cone_unions_and_more() {
        let job = registry_job(CollectiveKind::Reduce, 5, 8, 1024);
        let cfg = LintConfig::default();
        let single = crash_cone(&job, &cfg, &[CrashPoint::on_entry(7)]);
        let double =
            crash_cone(&job, &cfg, &[CrashPoint::on_entry(7), CrashPoint::on_entry(5)]);
        // Crashed ranks never count as starved.
        assert!(!double.starved_ranks().contains(&5));
        assert!(!double.starved_ranks().contains(&7));
        for r in single.starved_ranks() {
            if r != 5 {
                assert!(
                    double.starved_ranks().contains(&r),
                    "killing more ranks cannot un-starve {r}"
                );
            }
        }
    }
}
