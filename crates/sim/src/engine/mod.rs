//! The discrete-event execution engine.
//!
//! Each rank executes its slice of the [`Job`]'s op arena sequentially. Ranks may run ahead
//! of global event time (lazy virtual time); correctness of message matching
//! does not depend on processing order because all completion times are
//! computed from timestamps (`max` of the two sides), and which receive
//! matches which send is fixed before the run: [`Job::new`] pairs the k-th
//! send on each `(src, dst, tag)` channel with the k-th receive posted on
//! it, both in program order.
//!
//! ## Protocols
//!
//! * **Eager** (`bytes <= eager_threshold`): the sender resumes after its
//!   send overhead `o_s`; the message is injected into the network in the
//!   background (serializing on the source node's NIC egress), travels for
//!   `L + bytes/bw`, serializes on the destination NIC ingress, and is
//!   delivered; a matching receive completes at
//!   `max(delivered, posted) + o_r`.
//! * **Rendezvous** (`bytes > eager_threshold`): the sender announces (RTS)
//!   and blocks; when the matching receive is posted, the handshake completes
//!   at `max(ts + L, tr) + L` and injection begins; the sender resumes when
//!   the data has left the node (egress complete), the receiver completes at
//!   delivery + `o_r`.
//!
//! ## Contention
//!
//! Each node has one NIC; concurrent inter-node transfers serialize on the
//! egress of the source node and the ingress of the destination node. This
//! is the mechanism that makes a flat linear all-to-all collapse under
//! incast while pairwise exchange does not — the effect the paper's
//! All-to-all analysis hinges on. Intra-node messages bypass the NIC.
//!
//! ## Scale
//!
//! The engine is built to stay fast from 32 to 100K ranks: events live in a
//! calendar [`queue::EventQueue`] at every rank count, per-rank and
//! per-message state in flat arenas, and one match slot per paired message
//! of the job, so matching is one indexed load however many peers a rank
//! has outstanding. See DESIGN.md §12 for the memory layout.
//!
//! A run is sequential: one `Part` owns every rank. Events are
//! keyed by a canonical order (see [`queue`]) that no tie in time can
//! reorder, so a run is **byte-identical** across repetitions. Parallelism
//! pays across runs (sweep cells, repetitions), not inside one.

pub mod queue;

#[cfg(test)]
mod elision;
mod part;

use crate::data::Value;
use crate::platform::Platform;
use crate::program::{Job, Label, Tag};
use crate::time::SimTime;
use crate::SimConfig;

use part::Part;

/// Enter/exit times of one labelled segment on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRecord {
    /// Rank that executed the segment.
    pub rank: usize,
    /// The segment's label.
    pub label: Label,
    /// Time the rank started the segment (its *arrival time* `a_i`).
    pub enter: SimTime,
    /// Time the rank finished the segment (its *exit time* `e_i`).
    pub exit: SimTime,
}

/// Errors the engine can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No more events but some ranks have not finished: circular wait.
    Deadlock {
        /// Time at which progress stopped.
        at: SimTime,
        /// `(rank, description of the op it is blocked on)`.
        blocked: Vec<(usize, String)>,
    },
    /// The job referenced invalid ranks/slots, misused requests, posted an
    /// eager send that no receive matches, or finished with a request
    /// nobody waited on or a message nobody completed.
    InvalidProgram(String),
}

impl SimError {
    /// The sorted set of ranks starved at a deadlock (survivors blocked on
    /// an op that can never complete); empty for other errors. This is the
    /// dynamic counterpart of `pap-lint`'s static crash cone — differential
    /// tests pin the two against each other.
    pub fn starved_ranks(&self) -> Vec<usize> {
        match self {
            SimError::Deadlock { blocked, .. } => {
                let mut ranks: Vec<usize> = blocked.iter().map(|(r, _)| *r).collect();
                ranks.sort_unstable();
                ranks.dedup();
                ranks
            }
            SimError::InvalidProgram(_) => Vec::new(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => {
                write!(f, "deadlock at t={at:.9}s; blocked: ")?;
                for (r, d) in blocked.iter().take(8) {
                    write!(f, "[{r}: {d}] ")?;
                }
                if blocked.len() > 8 {
                    write!(f, "… ({} total)", blocked.len())?;
                }
                Ok(())
            }
            SimError::InvalidProgram(s) => write!(f, "invalid program: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One delivered point-to-point message (recorded when
/// `SimConfig::record_messages` is set) — the simulator's SMPI-style
/// communication trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgEvent {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Match tag.
    pub tag: Tag,
    /// Message size in bytes.
    pub bytes: u64,
    /// Time the sender initiated the message (after its send overhead).
    pub sent: SimTime,
    /// Time the receive completed at the destination.
    pub delivered: SimTime,
}

/// Result of a run.
///
/// All collections are in *canonical* order — sorted by rank (and for
/// message events by delivery time) rather than by the order the engine
/// happened to process events.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-rank completion time of the whole program.
    pub finish: Vec<SimTime>,
    /// Enter/exit records of labelled segments, ordered by rank (and by
    /// program order within a rank).
    pub phases: Vec<PhaseRecord>,
    /// Final slot contents per rank (only when `track_data`).
    pub slots: Option<Vec<Vec<Value>>>,
    /// Dataflow violations detected (double counts, conflicting blocks).
    /// Empty on a correct collective schedule.
    pub data_errors: Vec<String>,
    /// Number of events processed (diagnostics).
    pub events: u64,
    /// Number of point-to-point messages transferred.
    pub messages: u64,
    /// Per-message trace (only when `record_messages`).
    pub msg_events: Option<Vec<MsgEvent>>,
}

impl RunOutcome {
    /// Latest finish time over all ranks (the makespan).
    pub fn makespan(&self) -> SimTime {
        self.finish.iter().copied().fold(0.0, f64::max)
    }

    /// Records of a specific label, ordered by rank.
    pub fn phases_for(&self, label: Label) -> Vec<PhaseRecord> {
        let mut v: Vec<PhaseRecord> = self.phases_for_iter(label).copied().collect();
        v.sort_by_key(|p| p.rank);
        v
    }

    /// Records of a specific label in stored order, without allocating.
    ///
    /// Use this in per-measurement hot paths (the harness folds min/max over
    /// it); use [`phases_for`](Self::phases_for) when rank order matters.
    pub fn phases_for_iter(&self, label: Label) -> impl Iterator<Item = &PhaseRecord> {
        self.phases.iter().filter(move |p| p.label == label)
    }
}

/// Run a job on a platform. See the crate docs for the model description.
pub fn run(platform: &Platform, job: Job, cfg: &SimConfig) -> Result<RunOutcome, SimError> {
    run_ref(platform, &job, cfg)
}

/// [`run`] without consuming the job — repetition loops (ReproMPI-style
/// NREP) build the program once and run it many times with different seeds.
pub fn run_ref(platform: &Platform, job: &Job, cfg: &SimConfig) -> Result<RunOutcome, SimError> {
    run_with_arrivals(platform, job, cfg, &[])
}

/// [`run_ref`] with each rank's arrival as an input of the run rather than
/// ops of the job: rank `r` waits until its start `arrivals[r].0`, then for
/// its arrival-pattern delay `arrivals[r].1`, before its first op. The
/// outcome is bit-identical to running a job whose every rank begins with
/// an anonymous `[SleepUntil { time: start }, Op::delay(delay)]` segment,
/// faults and noise included, so the measurement harness builds a schedule
/// once and runs every start and pattern against it (Listing 1 of the
/// paper). An empty `arrivals` means none: every rank starts at t = 0.
pub fn run_with_arrivals(
    platform: &Platform,
    job: &Job,
    cfg: &SimConfig,
    arrivals: &[(SimTime, SimTime)],
) -> Result<RunOutcome, SimError> {
    let _span = pap_obs::span("sim", "run");
    let p = job.ranks();
    if p == 0 {
        return Err(SimError::InvalidProgram("job has no ranks".into()));
    }
    if p != platform.ranks {
        return Err(SimError::InvalidProgram(format!(
            "job has {p} ranks but platform is configured for {}",
            platform.ranks
        )));
    }
    if !arrivals.is_empty() && arrivals.len() != p {
        return Err(SimError::InvalidProgram(format!(
            "{} arrivals for a job of {p} ranks",
            arrivals.len()
        )));
    }
    if let Some(why) = &job.invalid {
        return Err(SimError::InvalidProgram(why.clone()));
    }
    if !cfg.faults.is_none() {
        // Reject out-of-range fault specs before the engine indexes its
        // per-rank fault tables — inside the validated envelope every
        // fault-adjusted event time provably stays finite.
        if let Err(e) = cfg.faults.validate(platform.ranks, platform.nodes) {
            return Err(SimError::InvalidProgram(format!("invalid fault spec: {e}")));
        }
    }
    let mut part = Part::new(platform, job, cfg);
    part.arrive(arrivals);
    part.run();
    assemble(part, cfg)
}

/// [`run_ref`] under its old parallel name; `parts` is ignored. It exists
/// only for perfbench, which still calls it; ROADMAP item 8's benchmark
/// change removes it.
#[doc(hidden)]
pub fn run_par(p: &Platform, job: &Job, cfg: &SimConfig, _parts: usize) -> Result<RunOutcome, SimError> {
    run_ref(p, job, cfg)
}

/// Cached handles into the global metrics registry — resolved once so the
/// per-run cost is a handful of relaxed atomic stores, never the registry
/// lock.
#[allow(clippy::type_complexity)]
fn run_metrics() -> &'static (
    pap_obs::Counter,
    pap_obs::Counter,
    pap_obs::Counter,
    pap_obs::Gauge,
    pap_obs::Gauge,
    pap_obs::Gauge,
) {
    static M: std::sync::OnceLock<(
        pap_obs::Counter,
        pap_obs::Counter,
        pap_obs::Counter,
        pap_obs::Gauge,
        pap_obs::Gauge,
        pap_obs::Gauge,
    )> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let reg = pap_obs::global();
        (
            reg.counter("sim.runs"),
            reg.counter("sim.events"),
            reg.counter("sim.messages"),
            reg.gauge("sim.engine.queue_hwm"),
            reg.gauge("sim.engine.msgs_live_hwm"),
            reg.gauge("sim.engine.arena_slots"),
        )
    })
}

/// Turn a finished run into one canonical [`RunOutcome`].
fn assemble(part: Part, cfg: &SimConfig) -> Result<RunOutcome, SimError> {
    let (runs, events_c, messages_c, g_queue, g_msgs, g_arena) = run_metrics();
    g_queue.set(part.queue_hwm as i64);
    g_msgs.set(part.live_msgs_hwm as i64);
    g_arena.set(part.arena_slots() as i64);

    if let Some(e) = part.error {
        return Err(e);
    }
    let blocked = part.blocked();
    if !blocked.is_empty() {
        return Err(SimError::Deadlock { at: part.last_t, blocked });
    }
    if let Some(why) = part.orphan() {
        return Err(SimError::InvalidProgram(why));
    }

    // Canonical orders: phases by rank (stable — within a rank they are
    // already in program order), data errors by rank, message events by
    // delivery then endpoints.
    let mut phases = part.phases;
    phases.sort_by_key(|ph: &PhaseRecord| ph.rank);
    let mut tagged_errors = part.data_errors;
    tagged_errors.sort_by_key(|(r, _)| *r);
    let mut msg_events = cfg.record_messages.then_some(part.msg_events);
    if let Some(me) = msg_events.as_mut() {
        me.sort_by(|a, b| {
            a.delivered
                .total_cmp(&b.delivered)
                .then_with(|| a.src.cmp(&b.src))
                .then_with(|| a.dst.cmp(&b.dst))
                .then_with(|| a.sent.total_cmp(&b.sent))
                .then_with(|| a.tag.cmp(&b.tag))
                .then_with(|| a.bytes.cmp(&b.bytes))
        });
    }

    runs.inc();
    events_c.add(part.events);
    messages_c.add(part.messages);
    Ok(RunOutcome {
        finish: part.finish,
        phases,
        slots: cfg.track_data.then_some(part.slots),
        data_errors: tagged_errors.into_iter().map(|(_, s)| s).collect(),
        events: part.events,
        messages: part.messages,
        msg_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SlotInit;
    use crate::noise::NoiseModel;
    use crate::program::{Op, RankProgram};

    fn run2(ops0: Vec<Op>, ops1: Vec<Op>) -> RunOutcome {
        let platform = Platform::simcluster(2);
        let job = Job::new(vec![RankProgram::from_ops(ops0), RankProgram::from_ops(ops1)]);
        run(&platform, job, &SimConfig::tracking()).expect("run")
    }

    #[test]
    fn eager_message_arrives_with_loggp_cost() {
        let p = Platform::simcluster(2);
        let bytes = 1024u64; // eager
        let out = run2(
            vec![Op::send(1, 1, bytes, 0)],
            vec![Op::recv(0, 1, 0)],
        );
        // Receiver finish ≈ o_s + L + bytes/bw + o_r (both ranks on node 0).
        let expect = p.send_overhead + p.intra.latency + bytes as f64 / p.intra.bandwidth + p.recv_overhead;
        assert!((out.finish[1] - expect).abs() < 1e-12, "{} vs {}", out.finish[1], expect);
        // Eager sender finishes after o_s only.
        assert!((out.finish[0] - p.send_overhead).abs() < 1e-12);
    }

    #[test]
    fn rendezvous_sender_blocks_for_receiver() {
        let p = Platform::simcluster(2);
        let bytes = p.eager_threshold + 1;
        let delay = 1.0;
        let out = run2(
            vec![Op::send(1, 1, bytes, 0)],
            vec![Op::delay(delay), Op::recv(0, 1, 0)],
        );
        // Sender cannot complete before the receiver posts at t=1.
        assert!(out.finish[0] > delay, "sender finished at {} before receiver posted", out.finish[0]);
        assert!(out.finish[1] > out.finish[0]);
    }

    #[test]
    fn eager_sender_does_not_block() {
        let out = run2(
            vec![Op::send(1, 1, 8, 0)],
            vec![Op::delay(1.0), Op::recv(0, 1, 0)],
        );
        assert!(out.finish[0] < 1e-3, "eager sender blocked: {}", out.finish[0]);
        assert!(out.finish[1] > 1.0);
    }

    #[test]
    fn unexpected_message_is_buffered() {
        // Send long before recv posted; matching must still succeed.
        let out = run2(
            vec![Op::send(1, 9, 64, 0)],
            vec![Op::delay(0.5), Op::recv(0, 9, 0)],
        );
        assert!(out.finish[1] >= 0.5);
        assert_eq!(out.messages, 1);
    }

    #[test]
    fn fifo_matching_two_messages_same_tag() {
        let out = run2(
            vec![
                Op::InitSlot { slot: 0, init: SlotInit::movement_block(0, 0) },
                Op::InitSlot { slot: 1, init: SlotInit::movement_block(0, 1) },
                Op::send(1, 5, 64, 0),
                Op::send(1, 5, 64, 1),
            ],
            vec![Op::recv(0, 5, 0), Op::recv(0, 5, 1)],
        );
        let slots = out.slots.unwrap();
        // First sent block lands in first posted recv.
        assert!(slots[1][0].get((0, 0)).is_some());
        assert!(slots[1][1].get((0, 1)).is_some());

        // Posting order, not arrival order, decides the match: a rendezvous
        // Isend followed by an eager Isend on the same tag, so the eager
        // message lands first, with the receives posted before the sends
        // (the sender starts late) and after them (the receiver does).
        let (rdv, eager) = (64 * 1024, 64);
        for recvs_first in [true, false] {
            let late = |late: bool| Op::delay(if late { 1e-3 } else { 0.0 });
            let job = Job::new(vec![
                RankProgram::from_ops(vec![
                    Op::InitSlot { slot: 0, init: SlotInit::movement_block(0, 0) },
                    Op::InitSlot { slot: 1, init: SlotInit::movement_block(0, 1) },
                    late(recvs_first),
                    Op::isend(1, 5, rdv, 0, 0),
                    Op::isend(1, 5, eager, 1, 1),
                    Op::WaitAll { reqs: vec![0, 1] },
                ]),
                RankProgram::from_ops(vec![
                    late(!recvs_first),
                    Op::irecv(0, 5, 0, 0),
                    Op::irecv(0, 5, 1, 1),
                    Op::WaitAll { reqs: vec![0, 1] },
                ]),
            ]);
            let cfg = SimConfig { record_messages: true, ..SimConfig::tracking() };
            let out = run(&Platform::simcluster(2), job, &cfg).expect("run");
            let events = out.msg_events.as_ref().expect("recorded");
            let landed = |bytes| events.iter().find(|m| m.bytes == bytes).expect("delivered").delivered;
            assert!(landed(eager) < landed(rdv), "recvs_first {recvs_first}: the eager message lands first");
            let slots = out.slots.unwrap();
            assert!(slots[1][0].get((0, 0)).is_some(), "recvs_first {recvs_first}: first posted pair");
            assert!(slots[1][1].get((0, 1)).is_some(), "recvs_first {recvs_first}: second posted pair");
        }
    }

    #[test]
    fn isend_irecv_waitall_round_trip() {
        let out = run2(
            vec![
                Op::isend(1, 1, 256, 0, 0),
                Op::Irecv { from: 1, tag: 2, slot: 1, req: 1 },
                Op::WaitAll { reqs: vec![0, 1] },
            ],
            vec![
                Op::Irecv { from: 0, tag: 1, slot: 0, req: 0 },
                Op::isend(0, 2, 256, 1, 1),
                Op::WaitAll { reqs: vec![0, 1] },
            ],
        );
        assert!(out.finish[0] > 0.0 && out.finish[1] > 0.0);
        assert_eq!(out.messages, 2);
    }

    #[test]
    fn request_reuse_after_waitall_is_allowed() {
        let mk = |peer: usize, first_send: bool| {
            let mut ops = Vec::new();
            for round in 0..3u64 {
                if first_send {
                    ops.push(Op::isend(peer, round, 64, 0, 0));
                    ops.push(Op::Irecv { from: peer, tag: 100 + round, slot: 1, req: 1 });
                } else {
                    ops.push(Op::Irecv { from: peer, tag: round, slot: 1, req: 1 });
                    ops.push(Op::isend(peer, 100 + round, 64, 0, 0));
                }
                ops.push(Op::WaitAll { reqs: vec![0, 1] });
            }
            ops
        };
        let out = run2(mk(1, true), mk(0, false));
        assert_eq!(out.messages, 6);
    }

    #[test]
    fn request_reuse_without_waitall_is_an_error() {
        let platform = Platform::simcluster(2);
        let job = Job::new(vec![
            RankProgram::from_ops(vec![
                Op::isend(1, 1, 64, 0, 0),
                Op::isend(1, 2, 64, 0, 0),
            ]),
            RankProgram::from_ops(vec![Op::recv(0, 1, 0), Op::recv(0, 2, 0)]),
        ]);
        let err = run(&platform, job, &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidProgram(_)), "{err:?}");
    }

    #[test]
    fn self_send_is_rejected() {
        let platform = Platform::simcluster(1);
        let job = Job::new(vec![RankProgram::from_ops(vec![Op::send(0, 1, 64, 0)])]);
        assert!(matches!(run(&platform, job, &SimConfig::default()), Err(SimError::InvalidProgram(_))));
    }

    #[test]
    fn deadlock_is_detected() {
        let out = {
            let platform = Platform::simcluster(2);
            let job = Job::new(vec![
                RankProgram::from_ops(vec![Op::recv(1, 0, 0)]),
                RankProgram::from_ops(vec![Op::recv(0, 0, 0)]),
            ]);
            run(&platform, job, &SimConfig::default())
        };
        match out {
            Err(e @ SimError::Deadlock { .. }) => {
                assert_eq!(e.starved_ranks(), vec![0, 1]);
                // The report shows the decoded `Op`, not the arena's sentinels.
                let msg = e.to_string();
                assert!(msg.contains("Recv { from: 1, tag: 0, slot: 0 }"), "{msg}");
                assert!(!msg.contains("4294967295"), "{msg}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn indices_past_u32_are_rejected_before_sizing_tables() {
        let platform = Platform::simcluster(2);
        let req = u32::MAX as usize;
        let job = Job::new(vec![RankProgram::from_ops(vec![Op::irecv(1, 0, 0, req)]), RankProgram::new()]);
        match run(&platform, job, &SimConfig::default()) {
            Err(SimError::InvalidProgram(msg)) => {
                assert!(msg.contains("rank 0 op 0") && msg.contains("index 4294967295"), "{msg}")
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
        // Each rank's count fits in u32, their sum does not.
        let wide = |r| RankProgram::from_ops(vec![Op::irecv(r, 0, 0, req - 1), Op::waitall(vec![req - 1])]);
        match run(&platform, Job::new(vec![wide(1), wide(0)]), &SimConfig::default()) {
            Err(SimError::InvalidProgram(msg)) => assert!(msg.contains("overflow u32"), "{msg}"),
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
    }

    #[test]
    fn rendezvous_deadlock_two_blocking_sends() {
        // Classic head-to-head blocking Send deadlock (rendezvous).
        let platform = Platform::simcluster(2);
        let big = platform.eager_threshold + 1;
        let job = Job::new(vec![
            RankProgram::from_ops(vec![Op::send(1, 1, big, 0), Op::recv(1, 2, 0)]),
            RankProgram::from_ops(vec![Op::send(0, 2, big, 0), Op::recv(0, 1, 0)]),
        ]);
        assert!(matches!(run(&platform, job, &SimConfig::default()), Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn eager_pair_of_blocking_sends_succeeds() {
        // The same exchange with eager messages completes (buffered sends).
        let out = run2(
            vec![Op::send(1, 1, 64, 0), Op::recv(1, 2, 0)],
            vec![Op::send(0, 2, 64, 0), Op::recv(0, 1, 0)],
        );
        assert_eq!(out.messages, 2);
    }

    #[test]
    fn sleep_until_advances_time() {
        let out = run2(
            vec![Op::SleepUntil { time: 2.0 }],
            vec![Op::SleepUntil { time: 1.0 }, Op::SleepUntil { time: 0.5 }],
        );
        assert_eq!(out.finish[0], 2.0);
        assert_eq!(out.finish[1], 1.0); // never goes backwards
    }

    #[test]
    fn phases_record_enter_and_exit() {
        let platform = Platform::simcluster(2);
        let label = Label { kind: 3, seq: 7 };
        let mut p0 = RankProgram::new();
        p0.push_anon(vec![Op::delay(0.25)]);
        p0.push_labeled(label, vec![Op::send(1, 1, 64, 0)]);
        let mut p1 = RankProgram::new();
        p1.push_labeled(label, vec![Op::recv(0, 1, 0)]);
        let out = run(&platform, Job::new(vec![p0, p1]), &SimConfig::default()).unwrap();
        let recs = out.phases_for(label);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].rank, 0);
        assert!((recs[0].enter - 0.25).abs() < 1e-12, "arrival reflects the delay");
        assert!(recs[0].exit >= recs[0].enter);
        assert_eq!(recs[1].enter, 0.0);
        assert!(recs[1].exit > 0.25, "receiver exits only after the delayed sender sends");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let platform = Platform::hydra(4);
        let mk = || {
            let mut programs = Vec::new();
            for r in 0..4usize {
                let peer = r ^ 1;
                let ops = if r < peer {
                    vec![Op::compute(1e-4), Op::send(peer, 1, 4096, 0), Op::recv(peer, 2, 0)]
                } else {
                    vec![Op::recv(peer, 1, 0), Op::compute(5e-5), Op::send(peer, 2, 4096, 0)]
                };
                programs.push(RankProgram::from_ops(ops));
            }
            Job::new(programs)
        };
        let cfg = SimConfig { seed: 42, track_data: false, noise: NoiseModel::gaussian(0.05), ..SimConfig::default() };
        let a = run(&platform, mk(), &cfg).unwrap();
        let b = run(&platform, mk(), &cfg).unwrap();
        assert_eq!(a.finish, b.finish);
        let cfg2 = SimConfig { seed: 43, ..cfg };
        let c = run(&platform, mk(), &cfg2).unwrap();
        assert_ne!(a.finish, c.finish, "different seed should perturb timings");
    }

    #[test]
    fn nic_serialization_creates_incast_contention() {
        // 8 senders on different nodes all send to rank 0 concurrently;
        // with NIC serialization the last delivery is pushed out.
        let ranks = 9usize;
        let mut platform = Platform::simcluster(ranks);
        platform.cores_per_node = 1; // one rank per node → all inter-node
        let bytes = 16 * 1024u64;
        let mk_job = || {
            let mut programs = vec![RankProgram::new(); ranks];
            let mut ops0 = Vec::new();
            for s in 1..ranks {
                ops0.push(Op::Irecv { from: s, tag: s as u64, slot: 0, req: s - 1 });
            }
            ops0.push(Op::WaitAll { reqs: (0..ranks - 1).collect() });
            programs[0] = RankProgram::from_ops(ops0);
            for (s, prog) in programs.iter_mut().enumerate().skip(1) {
                *prog = RankProgram::from_ops(vec![Op::send(0, s as u64, bytes, 0)]);
            }
            Job::new(programs)
        };
        let with = run(&platform, mk_job(), &SimConfig::default()).unwrap();
        platform.nic_serialization = false;
        let without = run(&platform, mk_job(), &SimConfig::default()).unwrap();
        assert!(
            with.finish[0] > without.finish[0] * 2.0,
            "incast should be much slower with NIC serialization: {} vs {}",
            with.finish[0],
            without.finish[0]
        );
    }

    #[test]
    fn dataflow_payload_travels() {
        let out = run2(
            vec![
                Op::InitSlot { slot: 0, init: SlotInit::reduce_input(0, 0, 4) },
                Op::send(1, 1, 1024, 0),
            ],
            vec![
                Op::InitSlot { slot: 0, init: SlotInit::reduce_input(1, 0, 4) },
                Op::recv(0, 1, 1),
                Op::ReduceLocal { from: 1, into: 0, bytes: 1024 },
            ],
        );
        assert!(out.data_errors.is_empty(), "{:?}", out.data_errors);
        let slots = out.slots.unwrap();
        for s in 0..4 {
            assert!(slots[1][0].get((0, s)).unwrap().is_full(2));
        }
    }

    #[test]
    fn double_reduce_is_reported() {
        let out = run2(
            vec![
                Op::InitSlot { slot: 0, init: SlotInit::reduce_input(0, 0, 1) },
                Op::InitSlot { slot: 1, init: SlotInit::reduce_input(0, 0, 1) },
                Op::ReduceLocal { from: 1, into: 0, bytes: 8 },
            ],
            vec![],
        );
        assert_eq!(out.data_errors.len(), 1);
    }

    #[test]
    fn mismatched_platform_rank_count_rejected() {
        let platform = Platform::simcluster(4);
        let job = Job::new(vec![RankProgram::new(); 2]);
        assert!(matches!(run(&platform, job, &SimConfig::default()), Err(SimError::InvalidProgram(_))));
    }

    #[test]
    fn compute_noise_only_when_noisy() {
        let platform = Platform::simcluster(1);
        let cfg = SimConfig { seed: 9, track_data: false, noise: NoiseModel::gaussian(0.2), ..SimConfig::default() };
        let exact = run(
            &platform,
            Job::new(vec![RankProgram::from_ops(vec![Op::delay(1.0)])]),
            &cfg,
        )
        .unwrap();
        assert_eq!(exact.finish[0], 1.0, "Op::delay must be exact under noise");
        let noisy = run(
            &platform,
            Job::new(vec![RankProgram::from_ops(vec![Op::compute(1.0)])]),
            &cfg,
        )
        .unwrap();
        assert_ne!(noisy.finish[0], 1.0, "Op::compute should be perturbed");
    }

    #[test]
    fn rank_stall_pushes_completions_back() {
        let platform = Platform::simcluster(1);
        let job = || Job::new(vec![RankProgram::from_ops(vec![Op::delay(1.0), Op::delay(1.0)])]);
        let clean = run(&platform, job(), &SimConfig::default()).unwrap();
        assert_eq!(clean.finish[0], 2.0);
        // Freeze rank 0 for 0.5 s at t = 1.5: the second delay (completing
        // at 2.0 ≥ 1.5) is pushed back by the stall.
        let cfg = SimConfig::default()
            .with_faults(crate::FaultSpec::none().with_stall(0, 1.5, 0.5));
        let faulted = run(&platform, job(), &cfg).unwrap();
        assert_eq!(faulted.finish[0], 2.5);
        // A stall entirely after the program completes changes nothing.
        let late = SimConfig::default()
            .with_faults(crate::FaultSpec::none().with_stall(0, 10.0, 5.0));
        assert_eq!(run(&platform, job(), &late).unwrap().finish[0], 2.0);
    }

    #[test]
    fn crash_halts_rank_and_dependents_deadlock() {
        let platform = Platform::simcluster(2);
        let mk = || {
            Job::new(vec![
                RankProgram::from_ops(vec![Op::delay(1.0), Op::send(1, 1, 64, 0)]),
                RankProgram::from_ops(vec![Op::recv(0, 1, 0)]),
            ])
        };
        // Rank 0 dies before its send: rank 1 waits forever.
        let cfg = SimConfig::default().with_faults(crate::FaultSpec::none().with_crash(0, 0.5));
        match run(&platform, mk(), &cfg) {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1, "only the dependent blocks: {blocked:?}");
                assert_eq!(blocked[0].0, 1);
            }
            other => panic!("expected dependent deadlock, got {other:?}"),
        }
        // Rank 0 dies after its send (mid trailing compute): the run
        // completes, the dead rank's finish pinned at the crash time.
        let job = Job::new(vec![
            RankProgram::from_ops(vec![Op::delay(1.0), Op::send(1, 1, 64, 0), Op::delay(5.0)]),
            RankProgram::from_ops(vec![Op::recv(0, 1, 0)]),
        ]);
        let cfg = SimConfig::default().with_faults(crate::FaultSpec::none().with_crash(0, 2.0));
        let out = run(&platform, job, &cfg).unwrap();
        assert_eq!(out.finish[0], 2.0);
        assert!(out.finish[1] > 1.0 && out.finish[1] < 2.0);
        // A crash after a rank completes changes nothing.
        let late = SimConfig::default().with_faults(crate::FaultSpec::none().with_crash(0, 50.0));
        let clean = run(&platform, mk(), &SimConfig::default()).unwrap();
        let out = run(&platform, mk(), &late).unwrap();
        assert_eq!(out.finish[0].to_bits(), clean.finish[0].to_bits());
        assert_eq!(out.finish[1].to_bits(), clean.finish[1].to_bits());
    }

    #[test]
    fn link_fault_window_slows_transfers_inside_it_only() {
        // Two ranks on different nodes exchange one eager message each way.
        let mut platform = Platform::simcluster(2);
        platform.cores_per_node = 1;
        let job = || {
            Job::new(vec![
                RankProgram::from_ops(vec![Op::send(1, 1, 8192, 0)]),
                RankProgram::from_ops(vec![Op::recv(0, 1, 0)]),
            ])
        };
        let clean = run(&platform, job(), &SimConfig::default()).unwrap();
        let slow_cfg = SimConfig::default()
            .with_faults(crate::FaultSpec::none().with_link(0, 1, 0.0, 1.0, 10.0));
        let slowed = run(&platform, job(), &slow_cfg).unwrap();
        assert!(
            slowed.finish[1] > clean.finish[1],
            "in-window transfer should slow down: {} vs {}",
            slowed.finish[1],
            clean.finish[1]
        );
        // Window closes before the transfer: no effect.
        let closed = SimConfig::default()
            .with_faults(crate::FaultSpec::none().with_link(0, 1, 1e9, 2e9, 10.0));
        let out = run(&platform, job(), &closed).unwrap();
        assert_eq!(out.finish[1].to_bits(), clean.finish[1].to_bits());
    }

    #[test]
    fn noise_storm_slows_covered_ranks_inside_window() {
        let platform = Platform::simcluster(2);
        let job = || {
            Job::new(vec![
                RankProgram::from_ops(vec![Op::compute(1.0)]),
                RankProgram::from_ops(vec![Op::compute(1.0)]),
            ])
        };
        let cfg = SimConfig::default()
            .with_faults(crate::FaultSpec::none().with_storm(0, 0, 0.0, 0.5, 3.0));
        let out = run(&platform, job(), &cfg).unwrap();
        assert_eq!(out.finish[0], 3.0, "storm-covered compute is stretched");
        assert_eq!(out.finish[1], 1.0, "rank outside the storm is untouched");
    }

    #[test]
    fn invalid_fault_spec_is_rejected() {
        let platform = Platform::simcluster(2);
        let job = Job::new(vec![RankProgram::new(); 2]);
        let cfg = SimConfig::default().with_faults(crate::FaultSpec::none().with_crash(7, 1.0));
        assert!(matches!(
            run(&platform, job, &cfg),
            Err(SimError::InvalidProgram(msg)) if msg.contains("fault")
        ));
    }
}
