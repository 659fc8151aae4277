//! The request table: a per-rank linear scan mirroring the engine's request
//! table (`Free → Pending → freed by WaitAll`). It names the op that posted
//! each request a `WaitAll` completes, and reports the lifecycle findings
//! along the way: reuse while outstanding, waits on never-posted requests,
//! and posted requests no wait completes.

use pap_sim::{Job, Op};

use crate::diag::{DiagClass, Diagnostic, Severity};
use crate::view::{View, NONE};

/// Build the request table of `view` as `(wait_off, waited)` (see
/// [`View::waited`]).
pub(crate) fn table(
    view: &View,
    job: &Job,
    diags: &mut Vec<Diagnostic>) -> (Vec<usize>, Vec<usize>,
) {
    let mut wait_off = Vec::with_capacity(view.ops.len() + 1);
    let mut waited = Vec::new();
    wait_off.push(0);
    for r in 0..view.ranks() {
        // req → the op that posted it, while outstanding.
        let mut pending = vec![NONE; job.reqs_needed(r)];
        // req → the last WaitAll that listed it (a duplicate ID in one
        // WaitAll is idempotent).
        let mut listed_by = vec![NONE; job.reqs_needed(r)];
        for i in view.range(r) {
            match &view.ops[i] {
                Op::Isend { req, .. } | Op::Irecv { req, .. } => {
                    let prev = std::mem::replace(&mut pending[*req], i);
                    if prev != NONE {
                        let prev = view.loc(prev);
                        diags.push(Diagnostic {
                            class: DiagClass::RequestReuse,
                            severity: Severity::Error,
                            loc: view.loc(i),
                            message: format!(
                                "request {req} re-posted while the operation from {prev} \
                                 is still outstanding (the engine rejects this at runtime)"
                            ),
                            related: vec![prev],
                        });
                    }
                }
                Op::WaitAll { reqs } => {
                    for &req in reqs {
                        if std::mem::replace(&mut listed_by[req], i) == i {
                            continue;
                        }
                        match std::mem::replace(&mut pending[req], NONE) {
                            NONE => diags.push(Diagnostic {
                                class: DiagClass::WaitNeverPosted,
                                severity: Severity::Error,
                                loc: view.loc(i),
                                message: format!(
                                    "WaitAll waits on request {req}, which no prior \
                                     Isend/Irecv posted (the engine reports it as never \
                                     started, or hangs if the table is sized past it)"
                                ),
                                related: vec![],
                            }),
                            j => waited.push(j),
                        }
                    }
                }
                _ => {}
            }
            wait_off.push(waited.len());
        }
        // Posted requests no WaitAll completed.
        for (req, j) in pending.into_iter().enumerate().filter(|&(_, j)| j != NONE) {
            diags.push(Diagnostic {
                class: DiagClass::RequestNeverWaited,
                severity: Severity::Warning,
                loc: view.loc(j),
                message: format!(
                    "request {req} is posted but never completed by a WaitAll; \
                     its completion (and any received data) is unobservable"
                ),
                related: vec![],
            });
        }
    }
    (wait_off, waited)
}
