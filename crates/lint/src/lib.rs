//! # pap-lint — static schedule verifier for collective programs
//!
//! A zero-execution analyzer over [`pap_sim::Job`]: it abstract-interprets
//! every rank's op sequence against a *timing-free* channel model — the
//! job's own FIFO `(src, dst, tag)` pairing, which the engine runs on too,
//! and the engine's eager/rendezvous protocol split, minus the clock — and
//! reports defects with `(rank, segment, op)` coordinates and a severity.
//! Because no timing is involved, one pass covers *every* interleaving the
//! engine could produce, which is exactly the guarantee dynamic
//! verification (`pap-collectives`'s post-run dataflow check) cannot give.
//!
//! ## Checks
//!
//! 1. **Message matching** — unmatched `Send`/`Recv`/`Isend`/`Irecv`,
//!    self-sends, out-of-range peers, and byte-size disagreement between
//!    matched pairs ([`DiagClass::UnmatchedSend`], …).
//! 2. **Deadlock** — wait-for-graph cycles among blocking ops under the
//!    actual protocol split ([`DiagClass::Deadlock`]), plus the distinct
//!    [`DiagClass::ProtocolFragility`] class: schedules that only complete
//!    because eager sends don't block, i.e. that hang the moment `bytes`
//!    crosses the eager threshold.
//! 3. **Tag conflicts** — the FIFO-channel invariant documented on
//!    [`pap_sim::program::Tag`] ([`DiagClass::TagConflict`]).
//! 4. **Request lifecycle** — `ReqId` reuse while outstanding, `WaitAll` on
//!    never-posted requests, posted-but-never-waited requests.
//! 5. **Slot dataflow** — use-before-init, send-from-cleared-slot, dead
//!    stores, and accesses racing a pending `Irecv` delivery.
//!
//! Every check reads one static view of the job, built once per entry
//! point: the flattened ops, the FIFO send↔receive pairing and the request
//! table. Building it finds checks 1, 3 and 4, except the size comparison
//! of matched pairs, which runs with the slot dataflow.
//!
//! ## Fault reachability and repair
//!
//! The same fixpoint answers *"who starves if rank `R` dies after `k`
//! ops?"* ([`crash_cone`], [`blast_radius`] in `faults`) — exactly the
//! engine's starved-rank set for an entry crash, differentially pinned on
//! the whole registry. Where the crashed
//! rank's dependence structure allows, `repair` rewrites the schedule to
//! route around the dead rank; [`certified_repair`] accepts a rewrite only
//! if it re-lints clean across all diagnostic classes *and* leaves an
//! empty residual cone.
//!
//! ## Surfaces
//!
//! * [`lint_job`] — lint one job;
//! * `sweep` — lint every registered algorithm across rank counts, roots
//!   and eager-straddling sizes (`papctl lint`);
//! * [`sweep_faults`] — registry-wide crash cones, blast radii and
//!   certified victim repairs (`papctl lint --faults`);
//! * [`certified_repair`] — one repair, certified (`papctl repair`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channels;
mod dataflow;
pub(crate) mod diag;
mod exec;
pub(crate) mod faults;
pub(crate) mod repair;
mod requests;
pub(crate) mod sweep;
mod view;

use pap_sim::{Job, Platform};

use view::View;

pub use diag::{DiagClass, Severity};
pub(crate) use diag::{Diagnostic, LintReport};
pub use faults::{blast_radius, crash_cone, sweep_faults, CrashPoint, RepairVerdict};
pub use repair::{certified_repair, repair_job, RepairError};
pub use sweep::{sweep_registry, SweepConfig, SweepSummary};

/// Linter configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Eager threshold in bytes: sends with `bytes <= eager_threshold`
    /// complete without a matching receive (mirrors
    /// `Platform::eager_threshold`).
    pub eager_threshold: u64,
}

impl Default for LintConfig {
    fn default() -> Self {
        // 16 KiB: the simcluster/hydra eager threshold.
        LintConfig { eager_threshold: 16 * 1024 }
    }
}

impl LintConfig {
    /// Configuration matching a platform's protocol split.
    pub fn for_platform(platform: &Platform) -> Self {
        LintConfig { eager_threshold: platform.eager_threshold }
    }
}

/// Lint one job: run every check and collect the findings into a report
/// sorted by location then class.
pub fn lint_job(job: &Job, cfg: &LintConfig) -> LintReport {
    lint_view(&View::new(job), cfg)
}

/// [`lint_job`] over an already built view.
pub(crate) fn lint_view(view: &View, cfg: &LintConfig) -> LintReport {
    let mut diagnostics = view.findings.clone();
    diagnostics.extend(dataflow::check(view));
    diagnostics.extend(exec::check(view, cfg));

    diagnostics.sort_by(|a, b| (a.loc, a.class, &a.message).cmp(&(b.loc, b.class, &b.message)));
    diagnostics.dedup();
    LintReport { diagnostics, ranks: view.ranks(), ops: view.ops.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_sim::{Op, RankProgram};

    #[test]
    fn empty_job_is_clean() {
        let report = lint_job(&Job::new(vec![]), &LintConfig::default());
        assert!(report.is_clean());
        assert_eq!(report.diagnostics, vec![]);
    }

    #[test]
    fn trivial_exchange_is_clean() {
        // rank 0 sends tag 1 / recvs tag 2; rank 1 mirrors.
        let mut p0 = RankProgram::new();
        p0.push_anon(vec![
            Op::InitSlot { slot: 0, init: pap_sim::SlotInit::Empty },
            Op::isend(1, 1, 8, 0, 0),
            Op::irecv(1, 2, 1, 1),
            Op::waitall(vec![0, 1]),
        ]);
        let mut p1 = RankProgram::new();
        p1.push_anon(vec![
            Op::InitSlot { slot: 0, init: pap_sim::SlotInit::Empty },
            Op::isend(0, 2, 8, 0, 0),
            Op::irecv(0, 1, 1, 1),
            Op::waitall(vec![0, 1]),
        ]);
        let report = lint_job(&Job::new(vec![p0, p1]), &LintConfig::default());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warnings(), 0, "{}", report.render());
        assert_eq!(report.ranks, 2);
        assert_eq!(report.ops, 8);
    }
}
