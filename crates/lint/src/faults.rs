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
use crate::{LintConfig, SweepConfig};

/// A static fail-stop point: the rank completed exactly its first `op`
/// flattened ops, then died attempting the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// The crashed rank.
    pub(crate) rank: usize,
    /// Completed-op count (flattened program order). `0` = died on entry,
    /// before contributing anything to any channel.
    pub(crate) op: usize,
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
    pub(crate) rank: usize,
    /// Coordinates of the op it can never complete.
    pub(crate) loc: OpLoc,
}

/// The crash cone of one (set of) fail-stop point(s): every surviving rank
/// that blocks forever, with the op it blocks at. Sorted by rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashCone {
    /// The crash points the cone was computed for.
    pub(crate) crashes: Vec<CrashPoint>,
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
    pub(crate) ranks: usize,
    /// `entry_starved[r]` = survivors starved when rank `r` dies on entry.
    pub entry_starved: Vec<usize>,
    /// Ranks whose entry crash starves at least one survivor.
    pub(crate) critical: Vec<usize>,
    /// Largest entry cone.
    pub(crate) max_starved: usize,
    /// Mean entry-cone size across ranks.
    pub(crate) mean_starved: f64,
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

/// The repair verdict of one sweep case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairVerdict {
    /// The rewrite passed certification.
    Certified,
    /// No mechanical rewrite exists for the topology.
    Unsupported(String),
    /// A rewrite was produced but failed re-verification — a repair bug.
    CertFailed(String),
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
    pub(crate) root: usize,
    /// Message size in bytes.
    pub bytes: u64,
    /// `entry_starved[r]`: survivors starved when rank `r` dies on entry.
    pub(crate) entry_starved: Vec<usize>,
    /// Ranks whose entry crash starves at least one survivor.
    pub(crate) critical: Vec<usize>,
    /// The crash victim chosen for repair: the rank with the largest entry
    /// cone, not the root when the schedule reads it.
    pub victim: usize,
    /// The victim's entry-cone starved ranks.
    pub(crate) victim_starved: Vec<usize>,
    /// The certified-repair verdict for the victim crash.
    pub repair: RepairVerdict,
}

/// Per-algorithm aggregate of the fault sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultAlgRow {
    /// Collective name.
    pub collective: String,
    /// Algorithm ID.
    pub(crate) alg: u8,
    /// Algorithm name (Table II).
    pub name: String,
    /// Cases analyzed.
    pub cases: usize,
    /// Largest entry cone over all cases and crash ranks.
    pub(crate) max_starved: usize,
    /// Mean entry-cone size over all cases and crash ranks.
    pub(crate) mean_starved: f64,
    /// Mean fraction of ranks whose entry crash starves someone.
    pub(crate) critical_frac: f64,
    /// Cases whose victim repair certified.
    pub repaired: usize,
    /// Cases with no mechanical rewrite.
    pub(crate) unsupported: usize,
    /// Cases whose rewrite failed certification (repair bugs).
    pub(crate) cert_failed: usize,
}

/// The fault-sweep document (`papctl lint --faults --json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepSummary {
    /// Rank counts covered.
    pub(crate) ranks: Vec<usize>,
    /// Sizes covered.
    pub(crate) sizes: Vec<u64>,
    /// Eager threshold used.
    pub(crate) eager_threshold: u64,
    /// Total cases analyzed.
    pub cases: usize,
    /// Victim repairs that certified.
    pub repaired: usize,
    /// Cases with no mechanical rewrite.
    pub(crate) unsupported: usize,
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
/// algorithm across `cfg.ranks` and one eager and one rendezvous size
/// (root 0 — cones are isomorphic under root relabeling), then attempt a
/// certified repair of each case's worst crash, keeping the root out of
/// the victims of rooted and composed schedules. Cases fan out over the
/// `pap-parallel` worker pool; the result is deterministic and
/// order-independent.
pub fn sweep_faults(cfg: &SweepConfig) -> FaultSweepSummary {
    use pap_collectives::registry::{algorithms, Algorithm};
    use pap_collectives::{build, CollSpec, CollectiveKind};
    use pap_sim::RankProgram;

    let sizes = cfg.fault_sizes();
    let mut cases: Vec<(&Algorithm, usize, u64)> = Vec::new();
    for a in CollectiveKind::ALL.into_iter().flat_map(algorithms) {
        for &p in &cfg.ranks {
            for &bytes in &sizes {
                cases.push((a, p, bytes));
            }
        }
    }

    let lint_cfg = LintConfig { eager_threshold: cfg.eager_threshold };
    let rows: Vec<FaultCaseRow> = pap_parallel::par_map(&cases, |_, &(a, p, bytes)| {
        let root = 0usize;
        let spec = CollSpec::new(a.kind, a.id, bytes);
        let built = build(&spec, p).expect("registry build");
        let job = Job::new(built.rank_ops.into_iter().map(RankProgram::from_ops).collect());
        let view = View::new(&job);
        let cones = entry_cones(&view, &lint_cfg);
        let blast = blast_of(&cones);
        // Worst crash (ties → lowest rank). The root's death voids a
        // rooted collective's semantics, and a composed one (reduce or
        // gather, then bcast) still runs through rank 0 as its hub, so
        // repair targets another rank there.
        let spare_root = a.kind.rooted() || spec.phases(p).is_some();
        let victim = (0..p)
            .filter(|&r| !spare_root || r != root)
            .max_by_key(|&r| (blast.entry_starved[r], usize::MAX - r))
            .unwrap_or(0);
        let victim_starved = cones[victim].starved_ranks();
        let repaired = crate::repair::repair_view(&job, &view, &lint_cfg, victim);
        let repair = match crate::repair::certify(repaired, &lint_cfg) {
            Ok(_) => RepairVerdict::Certified,
            Err(e @ crate::repair::RepairError::Unsupported { .. }) => {
                RepairVerdict::Unsupported(e.to_string())
            }
            Err(e) => RepairVerdict::CertFailed(e.to_string()),
        };
        FaultCaseRow {
            collective: a.kind.name().to_string(),
            alg: a.id,
            ranks: p,
            root,
            bytes,
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
        }
    }
    algo_rows.retain(|r| r.cases > 0);
    for r in &mut algo_rows {
        r.mean_starved /= r.cases as f64;
        r.critical_frac /= r.cases as f64;
    }

    FaultSweepSummary {
        ranks: cfg.ranks.clone(),
        sizes,
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
