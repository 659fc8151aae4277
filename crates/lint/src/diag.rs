//! Diagnostic types: classes, severities, locations, and the report.

use serde::{Deserialize, Serialize};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but not known to break a run (e.g. a dead store).
    Warning,
    /// The schedule is wrong: it can hang, mis-match, or read garbage.
    Error,
}

/// The kind of defect a `Diagnostic` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DiagClass {
    /// A send or receive names its own rank as the peer.
    SelfMessage,
    /// A send or receive names a peer outside `0..ranks`.
    PeerOutOfRange,
    /// A send whose `(src, dst, tag)` channel has no matching receive.
    UnmatchedSend,
    /// A receive whose `(src, dst, tag)` channel has no matching send.
    UnmatchedRecv,
    /// A matched pair disagrees about the payload size (the receiver's
    /// `ReduceLocal` consumes a different byte count than the send carried).
    SizeMismatch,
    /// A wait-for cycle among blocking ops under the actual eager/rendezvous
    /// protocol split: the schedule hangs at runtime.
    Deadlock,
    /// The schedule only completes because eager sends do not block: forcing
    /// every send through rendezvous produces a wait-for cycle, so the
    /// schedule hangs the moment its sizes cross the eager threshold.
    ProtocolFragility,
    /// Two messages concurrently outstanding on one `(src, dst, tag)`
    /// channel (see the `Tag` invariant in `pap_sim::program`).
    TagConflict,
    /// A request ID re-posted while its previous operation is outstanding.
    RequestReuse,
    /// A `WaitAll` lists a request that no prior `Isend`/`Irecv` posted.
    WaitNeverPosted,
    /// A posted request that no `WaitAll` ever completes.
    RequestNeverWaited,
    /// A slot's content is consumed before anything defined it.
    UseBeforeInit,
    /// A send sources a slot that was explicitly cleared.
    SendFromClearedSlot,
    /// A program-authored slot value overwritten before any read.
    DeadStore,
    /// A slot with an undelivered `Irecv` targeting it is touched before the
    /// completing `WaitAll`: the delivery races the program's access.
    PendingRecvHazard,
    /// The job holds an index the op arena cannot store (at or past
    /// `u32::MAX`; see `pap_sim::Job::invalid`): it cannot run, and no
    /// other check runs on it.
    InvalidJob,
}

impl DiagClass {
    /// Stable lower-snake name (JSON output, fixtures).
    pub(crate) fn name(self) -> &'static str {
        match self {
            DiagClass::SelfMessage => "self_message",
            DiagClass::PeerOutOfRange => "peer_out_of_range",
            DiagClass::UnmatchedSend => "unmatched_send",
            DiagClass::UnmatchedRecv => "unmatched_recv",
            DiagClass::SizeMismatch => "size_mismatch",
            DiagClass::Deadlock => "deadlock",
            DiagClass::ProtocolFragility => "protocol_fragility",
            DiagClass::TagConflict => "tag_conflict",
            DiagClass::RequestReuse => "request_reuse",
            DiagClass::WaitNeverPosted => "wait_never_posted",
            DiagClass::RequestNeverWaited => "request_never_waited",
            DiagClass::UseBeforeInit => "use_before_init",
            DiagClass::SendFromClearedSlot => "send_from_cleared_slot",
            DiagClass::DeadStore => "dead_store",
            DiagClass::PendingRecvHazard => "pending_recv_hazard",
            DiagClass::InvalidJob => "invalid_job",
        }
    }
}

impl std::fmt::Display for DiagClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Coordinates of one op: `(rank, segment, op-within-segment)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub(crate) struct OpLoc {
    /// The rank whose program contains the op.
    pub(crate) rank: usize,
    /// Segment index within the rank program.
    pub(crate) seg: usize,
    /// Op index within the segment.
    pub(crate) op: usize,
}

impl std::fmt::Display for OpLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} seg {} op {}", self.rank, self.seg, self.op)
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// What kind of defect.
    pub(crate) class: DiagClass,
    /// How bad it is.
    pub severity: Severity,
    /// The primary op the finding anchors to.
    pub(crate) loc: OpLoc,
    /// Human-readable description.
    pub(crate) message: String,
    /// Other ops involved (the matching peer, the cycle members, the
    /// shadowed write, …).
    pub(crate) related: Vec<OpLoc>,
}

impl Diagnostic {
    /// One-line rendering: `severity[class] location: message`.
    pub(crate) fn line(&self) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        format!("{sev}[{}] {}: {}", self.class, self.loc, self.message)
    }
}

/// The result of linting one [`pap_sim::Job`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// All findings, sorted by location then class.
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// Number of ranks analyzed.
    pub(crate) ranks: usize,
    /// Number of ops analyzed.
    pub(crate) ops: usize,
}

impl LintReport {
    /// Number of error-severity findings.
    pub(crate) fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub(crate) fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True when no error-severity finding exists (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Findings of one class.
    pub fn of_class(&self, class: DiagClass) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.class == class)
    }

    /// Whether at least one finding of `class` exists.
    pub fn has(&self, class: DiagClass) -> bool {
        self.of_class(class).next().is_some()
    }

    /// Multi-line human rendering (one line per finding).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.line());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s) over {} ops on {} ranks\n",
            self.errors(),
            self.warnings(),
            self.ops,
            self.ranks
        ));
        out
    }
}
