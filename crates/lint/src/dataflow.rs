//! Slot-dataflow check: per-rank abstract interpretation of the slot table.
//!
//! Tracks each slot through `Uninit → Init / Cleared / PendingRecv` and
//! reports:
//!
//! * **use-before-init** — a value-consuming read (send source, `ReduceLocal`
//!   source, `CopySlot` source) of a slot nothing defined. Accumulation
//!   *targets* (`into` of `ReduceLocal`/`MergeMove`/`OverwriteMove`) are
//!   exempt: the engine folds into an implicit empty value, and every
//!   reduction/gather builder relies on that.
//! * **send-from-cleared-slot** — a send sourcing a slot after `ClearSlot`.
//! * **dead stores** — a program-authored write (`InitSlot`, `CopySlot`)
//!   fully overwritten before any read. Message deliveries are exempt:
//!   zero-payload synchronization receives legitimately discard data.
//! * **pending-recv hazards** — touching a slot between an `Irecv` posting
//!   into it and the completing `WaitAll`: the delivery races the access
//!   (the engine writes the payload at event-delivery time).
//! * **size mismatches** — a receive carries no byte count in this ISA, so
//!   the sender's size is compared with the first op that touches the
//!   received slot, when that op is a `ReduceLocal` folding it (the only
//!   size-declaring reader). Any other read consumes the value without
//!   declaring a size, and any overwrite replaces it — either way the
//!   comparison window ends.

use pap_sim::Op;

use crate::diag::{DiagClass, Diagnostic, Severity};
use crate::view::{slot_written, slots_read, View, NONE};

#[derive(Clone, Copy, PartialEq)]
enum SlotState {
    Uninit,
    Init,
    Cleared,
    /// An undelivered `Irecv` targets the slot (req, posting op).
    Pending(usize, usize),
}

/// A write not yet read (for dead-store detection).
#[derive(Clone, Copy)]
struct LiveStore {
    /// The writing op.
    at: usize,
    authored: bool, // InitSlot / CopySlot-into (flag) vs delivery/clear (don't)
}

pub(crate) fn check(view: &View) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Folds of received values, as (fold, receive, slot, declared bytes).
    // They are checked against their sends after the walk: the sends sit on
    // other ranks, and a separate loop of independent lookups overlaps
    // their cache misses instead of stalling the walk on each.
    let mut folds = Vec::new();
    for r in 0..view.ranks() {
        let mut state = vec![SlotState::Uninit; view.slots[r]];
        let mut live: Vec<Option<LiveStore>> = vec![None; view.slots[r]];
        // slot → the matched receive whose value no op has touched since.
        let mut delivered = vec![NONE; view.slots[r]];

        for i in view.range(r) {
            let op = &view.ops[i];
            // A fold of an untouched received value declares its size.
            if let Op::ReduceLocal { from, bytes, .. } = *op {
                if delivered[from] != NONE {
                    folds.push((i, delivered[from], from, bytes));
                }
            }
            for slot in slots_read(op).into_iter().chain([slot_written(op)]).flatten() {
                delivered[slot] = NONE;
            }
            if let Op::Recv { slot, .. } | Op::Irecv { slot, .. } = *op {
                if view.pair[i] != NONE {
                    delivered[slot] = i;
                }
            }
            // A read of a pending slot races the delivery.
            let hazard_check = |slot: usize, state: &mut [SlotState], diags: &mut Vec<Diagnostic>| {
                if let SlotState::Pending(req, posted) = state[slot] {
                    let posted = view.loc(posted);
                    diags.push(Diagnostic {
                        class: DiagClass::PendingRecvHazard,
                        severity: Severity::Warning,
                        loc: view.loc(i),
                        message: format!(
                            "slot {slot} is accessed while the Irecv posted at {posted} \
                             (request {req}) is still undelivered; the delivery races \
                             this access"
                        ),
                        related: vec![posted],
                    });
                    // Recover: treat as initialized to keep later findings precise.
                    state[slot] = SlotState::Init;
                }
            };

            // Value-consuming reads.
            for slot in slots_read(op).into_iter().flatten() {
                hazard_check(slot, &mut state, &mut diags);
                if let Some(ls) = &mut live[slot] {
                    ls.authored = false; // value observed: store is live
                }
                // `slots_read` lists accumulation targets too; only the
                // *source* slot of a consuming op must be defined.
                let source = match *op {
                    Op::Send { slot, .. } | Op::Isend { slot, .. } => slot,
                    Op::ReduceLocal { from, .. } | Op::CopySlot { from, .. } => from,
                    _ => continue,
                };
                if slot != source {
                    continue;
                }
                match state[slot] {
                    SlotState::Uninit => diags.push(Diagnostic {
                        class: DiagClass::UseBeforeInit,
                        severity: Severity::Error,
                        loc: view.loc(i),
                        message: format!("slot {slot} is consumed before anything initialized it"),
                        related: vec![],
                    }),
                    SlotState::Cleared if matches!(op, Op::Send { .. } | Op::Isend { .. }) => {
                        diags.push(Diagnostic {
                            class: DiagClass::SendFromClearedSlot,
                            severity: Severity::Error,
                            loc: view.loc(i),
                            message: format!("send sources slot {slot} after it was cleared"),
                            related: vec![],
                        })
                    }
                    _ => {}
                }
            }

            // Writes and state transitions.
            match *op {
                Op::InitSlot { slot, .. } | Op::CopySlot { into: slot, .. } => {
                    hazard_check(slot, &mut state, &mut diags);
                    record_write(view, &mut live, &mut diags, slot, i, true);
                    state[slot] = SlotState::Init;
                }
                Op::ClearSlot { slot } => {
                    hazard_check(slot, &mut state, &mut diags);
                    record_write(view, &mut live, &mut diags, slot, i, false);
                    state[slot] = SlotState::Cleared;
                }
                Op::Recv { slot, .. } => {
                    hazard_check(slot, &mut state, &mut diags);
                    record_write(view, &mut live, &mut diags, slot, i, false);
                    state[slot] = SlotState::Init;
                }
                Op::Irecv { slot, req, .. } => {
                    hazard_check(slot, &mut state, &mut diags);
                    state[slot] = SlotState::Pending(req, i);
                }
                Op::WaitAll { .. } => {
                    for &j in view.waited(i) {
                        let Op::Irecv { slot, req, .. } = view.ops[j] else { continue };
                        if let SlotState::Pending(p_req, posted) = state[slot] {
                            if p_req == req {
                                // Delivery lands here.
                                record_write(view, &mut live, &mut diags, slot, posted, false);
                                state[slot] = SlotState::Init;
                            }
                        }
                    }
                }
                // Accumulating / pruning ops leave the target initialized.
                Op::ReduceLocal { into, .. }
                | Op::MergeMove { into, .. }
                | Op::OverwriteMove { into, .. } => {
                    state[into] = SlotState::Init;
                }
                _ => {}
            }
        }
    }
    for (i, ri, from, bytes) in folds {
        let sent = view.ops[view.pair[ri]].comm_meta().and_then(|m| m.bytes);
        if let Some(sent) = sent.filter(|&b| b != bytes) {
            diags.push(Diagnostic {
                class: DiagClass::SizeMismatch,
                severity: Severity::Error,
                loc: view.loc(i),
                message: format!(
                    "ReduceLocal consumes {bytes} B from slot {from} but the matched \
                     send delivered {sent} B"
                ),
                related: vec![view.loc(ri)],
            });
        }
    }
    diags
}

/// Register a full write to `slot` by op `at`; flag the previous write when
/// it was a program-authored value that nothing read.
fn record_write(
    view: &View,
    live: &mut [Option<LiveStore>],
    diags: &mut Vec<Diagnostic>,
    slot: usize,
    at: usize,
    authored: bool,
) {
    if let Some(prev) = live[slot].replace(LiveStore { at, authored }) {
        if prev.authored {
            let loc = view.loc(at);
            diags.push(Diagnostic {
                class: DiagClass::DeadStore,
                severity: Severity::Warning,
                loc: view.loc(prev.at),
                message: format!(
                    "value written to slot {slot} is overwritten at {loc} before any read"
                ),
                related: vec![loc],
            });
        }
    }
}
