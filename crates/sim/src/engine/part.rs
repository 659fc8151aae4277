//! The state of one simulation run.
//!
//! [`Part`] is the execution core: it owns every rank of the run and
//! processes their events in canonical key order (see [`super::queue`]).
//!
//! The state layout is arena/SoA-style for 10K–100K rank scale:
//!
//! * per-rank control state ([`RankState`]) is a small flat struct; request
//!   slots live in one flat arena indexed by per-rank prefix offsets, the
//!   per-rank noise ordinals exist only when a noise model is active, and
//!   payload slots only when dataflow tracking is on;
//! * matching needs no channel table: [`Job::new`] already paired every send
//!   with its FIFO receive, so each matched pair owns one 4-byte slot in
//!   [`Part::pairs`], where whichever side posts first leaves the message
//!   record the other side completes — the matching state is sized by the
//!   job's matched pairs, not by in-flight traffic;
//! * messages live in a free-listed arena, as before.

use super::queue::{EventQueue, QEvent};
use super::{MsgEvent, PhaseRecord, SimError};
use crate::compiled::{COp, MsgDesc, CNIL};
use crate::data::{BlockFilter, Value};
use crate::noise::{Draw, NoiseModel};
use crate::platform::Platform;
use crate::program::{Job, ReqId, Slot};
use crate::time::SimTime;
use crate::SimConfig;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Protocol {
    #[default]
    Eager,
    Rendezvous,
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum MsgState {
    /// Created; not yet matched with a receive.
    #[default]
    Unmatched,
    /// Eager data has arrived but no receive was posted yet.
    DeliveredUnmatched(SimTime),
    /// Matched; delivery event will complete the receive.
    WaitingDelivery,
    /// Fully consumed.
    Done,
}

/// A posted receive. Packed to 16 bytes — one sits inside every message
/// record, so its size is a per-message cache cost.
#[derive(Debug, Clone, Copy)]
struct RecvInfo {
    slot: u32,
    /// `NIL` = blocking `Recv` (the rank is parked on it); any other value
    /// is the `Irecv` request to resolve on completion.
    wake: u32,
    posted_at: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
enum SenderWake {
    /// Blocking rendezvous `Send`; the rank is parked on it.
    Blocked,
    /// Rendezvous `Isend`; completing egress resolves this request.
    Req(u32),
    /// Eager send: the sender resumed immediately, nothing to wake.
    #[default]
    None,
}

/// One message, from whichever side of its pair posts first until the
/// receive completes. A receive posted before its send leaves a record
/// holding only `recv`; the send fills in the rest.
#[derive(Default)]
struct Msg {
    /// Canonical id `(src << 40) | program-order send counter`; ties network
    /// events to the sender's program, not to one execution's bookkeeping.
    uid: u64,
    src: u32,
    dst: u32,
    /// The index in the job's op arena of the op that posted the record:
    /// the send (its tag, for the record), or a receive posted first (for
    /// [`Part::orphan`]).
    op: u32,
    bytes: u64,
    protocol: Protocol,
    /// Sender-side ready time (after `o_s`).
    ready: SimTime,
    /// Multiplicative noise on the wire time, drawn when the send executes
    /// at the wire site of the sender's noise key.
    wire_factor: f64,
    state: MsgState,
    recv: Option<RecvInfo>,
    sender_wake: SenderWake,
    payload: Option<Value>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ReqState {
    Free,
    Pending,
    /// Pending and listed in the WaitAll the rank is currently parked on.
    /// Completion decrements the rank's cached countdown instead of
    /// re-scanning the op's request list (the scan dominated the profile
    /// at 10K ranks: every completion chased program pointers).
    PendingWaited,
    Done(SimTime),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Runnable,
    BlockedRecv,
    BlockedSend,
    BlockedWaitAll,
    Finished,
    /// Halted permanently by a [`crate::fault::RankCrash`]. Terminal like
    /// `Finished` (excluded from deadlock reporting), but deliveries and
    /// request completions addressed to the rank are dropped instead of
    /// resuming it.
    Crashed,
}

struct RankState {
    /// Absolute index of the rank's next op in the job's op arena — the
    /// hot loop is one indexed load into a single shared flat array.
    op_i: u32,
    /// Absolute index of the current segment in the job's segment table.
    seg_i: u32,
    /// First op of the current segment (phase-enter detection).
    seg_start: u32,
    /// One past the last op of the current segment.
    seg_end: u32,
    local: SimTime,
    status: Status,
    seg_enter: SimTime,
    /// Set when a wake event is already scheduled, to avoid duplicates.
    wake_pending: bool,
    /// Set while the rank is inside `advance` (executing ops). Inline
    /// resumes check it so a cascade never re-enters a rank that is
    /// already running — it schedules a wake event instead.
    active: bool,
    /// While parked on a WaitAll: how many listed requests are still
    /// pending, and the max completion time seen so far. Together these
    /// make request completion O(1) — no program access, no list scan.
    wa_left: u32,
    wa_t: SimTime,
}

/// Cap on nested inline resumes/deliveries. Bounds stack growth on long
/// intra-node dependency chains (e.g. a ping-pong loop inside one node);
/// past the cap the engine falls back to queue events.
pub(super) const INLINE_DEPTH_MAX: u32 = 64;

/// The inline-cascade cap in force. Unit tests can lower it (to 0: queue
/// every event the engine could elide) to check that elision changes
/// nothing.
#[cfg(not(test))]
#[inline(always)]
fn inline_cap() -> u32 {
    INLINE_DEPTH_MAX
}

#[cfg(test)]
fn inline_cap() -> u32 {
    super::elision::INLINE_CAP.with(|c| c.get())
}

/// Noise sites under one key (see [`Draw`]): a rank's CPU-side overhead or
/// duration and its send's wire factor share the rank's key; a receive's
/// completion overhead is keyed by the message uid.
const SITE_CPU: u64 = 0;
const SITE_WIRE: u64 = 1;
const SITE_RECV_DONE: u64 = 2;

/// The execution core of a run. See the module docs.
pub(super) struct Part<'a> {
    platform: &'a Platform,
    cfg: &'a SimConfig,
    /// The job's flat op arena (see [`crate::compiled`]). Borrowed so the
    /// hot loop can hold `&'a COp` references while mutating the rest of
    /// the state — no per-event op clone.
    job: &'a Job,
    ranks: Vec<RankState>,
    /// Per-rank count of drawing ops executed, in program order: the minor
    /// part of the rank's noise key. Empty when the noise model is `None`
    /// (the common sweep configuration), so noise-free runs keep no key.
    draw_seq: Vec<u64>,
    /// Flat request arena; rank `l` owns `req_base[l]..req_base[l+1]`.
    reqs: Vec<ReqState>,
    req_base: Vec<u32>,
    queue: EventQueue,
    /// One slot per matched pair of the job ([`NIL`] until a side posts):
    /// the message record of the side that posted first.
    pairs: Vec<u32>,
    msgs: Vec<Msg>,
    free_msgs: Vec<u32>,
    egress_free: Vec<SimTime>,
    ingress_free: Vec<SimTime>,
    /// Per-rank count of sends initiated, in program order (uid minor part).
    send_seq: Vec<u64>,
    /// Current inline-cascade depth (see [`Part::resume_inline`]).
    inline_depth: u32,
    /// Pending stall intervals `(at, duration)` of the run's ranks,
    /// flat and sorted per rank by start time; rank `l` owns
    /// `fault_stall_base[l]..fault_stall_base[l+1]`. Empty (with `has_stalls`
    /// false) when the fault spec carries no stalls.
    fault_stalls: Vec<(SimTime, f64)>,
    fault_stall_base: Vec<u32>,
    /// Per-rank cursor into `fault_stalls`: the next unconsumed stall. A
    /// stall is consumed exactly once, the first time the rank's local clock
    /// is assigned a time at or past its start.
    fault_next: Vec<u32>,
    /// Per-rank crash instant (`f64::INFINITY` = never). Ranks execute ahead
    /// of the global clock, so a crash must be enforced where time actually
    /// advances: every local-clock assignment runs through [`Part::warp`],
    /// which halts the rank the moment an assignment would cross this value.
    /// The [`QEvent::KIND_CRASH`] queue event is only the backstop for ranks
    /// parked on a peer that never responds (their clock never moves again).
    fault_crash: Vec<SimTime>,
    /// Fast-path gates: whether the spec holds any stall / crash / storm /
    /// link window. With all four
    /// false the engine takes exactly the fault-free code paths.
    has_stalls: bool,
    has_crashes: bool,
    has_storms: bool,
    has_links: bool,
    pub(super) phases: Vec<PhaseRecord>,
    /// Final payload slots per rank; empty unless `track_data`.
    pub(super) slots: Vec<Vec<Value>>,
    pub(super) finish: Vec<SimTime>,
    pub(super) msg_events: Vec<MsgEvent>,
    pub(super) data_errors: Vec<(u32, String)>,
    pub(super) events: u64,
    pub(super) messages: u64,
    /// First error raised; processing stops there.
    pub(super) error: Option<SimError>,
    pub(super) last_t: SimTime,
    pub(super) queue_hwm: usize,
    live_msgs: usize,
    pub(super) live_msgs_hwm: usize,
}

impl<'a> Part<'a> {
    pub(super) fn new(platform: &'a Platform, job: &'a Job, cfg: &'a SimConfig) -> Part<'a> {
        let n = platform.ranks;
        let nnodes = platform.occupied_nodes();

        let mut ranks = Vec::with_capacity(n);
        let mut req_base = Vec::with_capacity(n + 1);
        let mut nreqs = 0u32;
        for (l, &rc) in job.req_counts.iter().enumerate() {
            req_base.push(nreqs);
            nreqs += rc;
            let (s0, s1) = (job.rank_segs[l], job.rank_segs[l + 1]);
            let op0 = job.rank_ops[l];
            ranks.push(RankState {
                op_i: op0,
                seg_i: s0,
                seg_start: op0,
                seg_end: if s0 < s1 { job.segs[s0 as usize].end } else { op0 },
                local: 0.0,
                status: Status::Runnable,
                seg_enter: 0.0,
                wake_pending: false,
                active: false,
                wa_left: 0,
                wa_t: 0.0,
            });
        }
        req_base.push(nreqs);

        let draw_seq = match cfg.noise {
            NoiseModel::None => Vec::new(),
            _ => vec![0; n],
        };
        let slots = if cfg.track_data {
            (0..n).map(|l| vec![Value::empty(); job.slots_needed(l)]).collect()
        } else {
            Vec::new()
        };

        let queue = EventQueue::for_gap(platform.inter.latency);

        // Per-rank stall plan: stalls flattened and sorted by (rank, start),
        // so each rank consumes its stalls in start order.
        let mut stalls: Vec<(u32, SimTime, f64)> =
            cfg.faults.stalls.iter().map(|s| (s.rank as u32, s.at, s.stall)).collect();
        stalls.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.total_cmp(&b.2)));
        let has_stalls = !stalls.is_empty();
        let mut fault_stall_base = Vec::new();
        let mut fault_stalls = Vec::new();
        let mut fault_next = Vec::new();
        if has_stalls {
            fault_stall_base.reserve(n + 1);
            let mut it = stalls.iter().peekable();
            for l in 0..n as u32 {
                fault_stall_base.push(fault_stalls.len() as u32);
                fault_next.push(fault_stalls.len() as u32);
                while let Some(&&(lr, at, dur)) = it.peek() {
                    if lr != l {
                        break;
                    }
                    fault_stalls.push((at, dur));
                    it.next();
                }
            }
            fault_stall_base.push(fault_stalls.len() as u32);
        }

        // Per-rank crash instant (earliest wins if a spec lists several).
        let has_crashes = !cfg.faults.crashes.is_empty();
        let mut fault_crash = Vec::new();
        if has_crashes {
            fault_crash = vec![f64::INFINITY; n];
            for c in &cfg.faults.crashes {
                let slot = &mut fault_crash[c.rank];
                *slot = slot.min(c.at);
            }
        }

        let mut part = Part {
            platform,
            cfg,
            job,
            ranks,
            draw_seq,
            reqs: vec![ReqState::Free; nreqs as usize],
            req_base,
            queue,
            pairs: vec![NIL; job.pairs as usize],
            msgs: Vec::new(),
            free_msgs: Vec::new(),
            egress_free: vec![0.0; nnodes],
            ingress_free: vec![0.0; nnodes],
            send_seq: vec![0; n],
            inline_depth: 0,
            fault_stalls,
            fault_stall_base,
            fault_next,
            fault_crash,
            has_stalls,
            has_crashes,
            has_storms: !cfg.faults.storms.is_empty(),
            has_links: !cfg.faults.links.is_empty(),
            phases: Vec::new(),
            slots,
            finish: vec![0.0; n],
            msg_events: Vec::new(),
            data_errors: Vec::new(),
            events: 0,
            messages: 0,
            error: None,
            last_t: 0.0,
            queue_hwm: 0,
            live_msgs: 0,
            live_msgs_hwm: 0,
        };
        // Crash events carry their own queue kind so a rank parked on a
        // receive that never arrives still halts at its crash time (a purely
        // clock-based check would never fire for it).
        for c in &cfg.faults.crashes {
            part.push_event(c.at, QEvent::KIND_CRASH, c.rank as u64, c.rank as u32);
        }
        part
    }

    /// Move each rank's clock to its arrival before the startup sweep, with
    /// the arithmetic the `[SleepUntil { time: start }, Op::delay(delay)]`
    /// prefix ops would apply: wait until `start`, then, unless a crash
    /// fired, for `delay` (noise-free), each step through [`Part::warp`] so
    /// stalls and crashes land exactly where the ops would put them. The
    /// arrivals are a one-off pass, not per-event state.
    pub(super) fn arrive(&mut self, arrivals: &[(SimTime, SimTime)]) {
        for (l, &(start, delay)) in arrivals.iter().enumerate() {
            let t = self.ranks[l].local.max(start);
            self.ranks[l].local = self.warp(l, t);
            if !self.crashed(l) {
                let t = self.ranks[l].local + delay;
                self.ranks[l].local = self.warp(l, t);
            }
            // A first segment that is empty enters (and exits) here.
            self.ranks[l].seg_enter = self.ranks[l].local;
        }
    }

    #[inline]
    fn push_event(&mut self, t: SimTime, kind: u8, uid: u64, idx: u32) {
        self.queue.push(QEvent { t, kind, uid, idx });
        if self.queue.len() > self.queue_hwm {
            self.queue_hwm = self.queue.len();
        }
    }

    fn schedule_wake(&mut self, l: usize, t: SimTime) {
        if !self.ranks[l].wake_pending {
            self.ranks[l].wake_pending = true;
            self.push_event(t, QEvent::KIND_WAKE, l as u64, l as u32);
        }
    }

    /// Process every event in canonical order; stops early on the first
    /// error.
    pub(super) fn run(&mut self) {
        // Startup sweep: run every rank once from t = 0 in ascending rank
        // order. It replaces p initial wake events, and ascending rank is
        // exactly the canonical order of their `(t=0, WAKE, rank)` keys.
        for l in 0..self.ranks.len() {
            self.advance(l);
            if self.error.is_some() {
                return;
            }
        }
        while let Some(key) = self.queue.pop() {
            self.events += 1;
            self.last_t = key.t;
            match key.kind {
                QEvent::KIND_WAKE => {
                    let l = key.idx as usize;
                    self.ranks[l].wake_pending = false;
                    self.advance(l);
                }
                QEvent::KIND_INJECT => self.on_inject(key.idx as usize, key.t),
                QEvent::KIND_WIRE => self.on_wire_arrival(key.idx as usize, key.t),
                QEvent::KIND_CRASH => self.on_crash(key.idx as usize, key.t),
                _ => self.on_delivered(key.idx as usize, key.t),
            }
            if self.error.is_some() {
                return;
            }
        }
    }

    /// Ranks that have not finished, with a description of what blocks
    /// them (deadlock reporting). Crashed ranks are terminal — they halted
    /// by design, so only their *dependents* count as blocked.
    pub(super) fn blocked(&self) -> Vec<(usize, String)> {
        self.ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.status != Status::Finished && r.status != Status::Crashed)
            .map(|(l, st)| {
                let seg = st.seg_i - self.job.rank_segs[l];
                let pc = st.op_i - st.seg_start;
                let desc = if st.op_i < self.job.rank_ops[l + 1] {
                    let op = self.job.decode(&self.job.ops[st.op_i as usize]);
                    format!("{:?} (seg {}, pc {}, status {:?})", op, seg, pc, st.status)
                } else {
                    format!("end-of-program? (seg {}, pc {}, status {:?})", seg, pc, st.status)
                };
                (l, desc)
            })
            .collect()
    }

    /// Why a run that ended with every rank finished still lost work: a
    /// request nobody waited on (an orphan `Isend` or `Irecv`) or a message
    /// record left live, naming the op that started it. Crashes drop
    /// messages and strand requests by design, so a run with crashes in
    /// its fault spec is not checked.
    pub(super) fn orphan(&self) -> Option<String> {
        if self.has_crashes {
            return None;
        }
        let job = self.job;
        for l in 0..self.ranks.len() {
            let base = self.req_base[l] as usize;
            for r in 0..job.req_counts[l] {
                if self.reqs[base + r as usize] == ReqState::Free {
                    continue;
                }
                let (started, _) = job
                    .ops_of(l)
                    .filter(|(_, op)| matches!(op, COp::Send { req, .. } | COp::Recv { req, .. } if *req == r))
                    .last()
                    .expect("a request in use was started by an Isend or Irecv");
                return Some(format!("{}: request {r} is never waited on", self.op_name(started)));
            }
        }
        if self.live_msgs == 0 {
            return None;
        }
        let m = self.msgs.iter().find(|m| m.state != MsgState::Done).expect("a live record is not done");
        Some(format!("{}: its message is never completed", self.op_name(m.op)))
    }

    /// `rank l op k (Op)` for the op at arena index `i` (`k` counts from
    /// the rank's first op, across segments).
    fn op_name(&self, i: u32) -> String {
        let job = self.job;
        let l = job.rank_ops.partition_point(|&start| start <= i) - 1;
        format!("rank {l} op {} ({:?})", i - job.rank_ops[l], job.decode(&job.ops[i as usize]))
    }

    /// Allocated arena slots: message records plus per-pair match slots.
    pub(super) fn arena_slots(&self) -> usize {
        self.msgs.len() + self.pairs.len()
    }

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(SimError::InvalidProgram(msg));
        }
    }

    // -- fault injection ----------------------------------------------------

    /// Apply any pending stalls of rank `l` to a new local-clock value `t`:
    /// every stall starting at or before `t` freezes the rank, pushing the
    /// completion back by its duration (which may pull later stalls into
    /// range — they cascade). Called at every local-clock assignment point,
    /// which the engine reaches in canonical event order, so a rank consumes
    /// its stalls in the same order on every run.
    ///
    /// The same hook enforces crashes: if the (stall-adjusted) time crosses
    /// the rank's crash instant, the rank halts there — status flips to
    /// [`Status::Crashed`], `finish` pins to the crash time, and the
    /// returned time is the crash time. Callers must check
    /// [`Part::crashed`] before performing the op's side effects (injecting
    /// a message, posting a receive, completing a request): work strictly
    /// after the crash never happens. Work completing *exactly at* the
    /// crash instant still lands (strict `>`), matching the ordering of
    /// [`QEvent::KIND_CRASH`] after same-instant message events.
    #[inline]
    fn warp(&mut self, l: usize, t: SimTime) -> SimTime {
        if !self.has_stalls && !self.has_crashes {
            return t;
        }
        self.warp_slow(l, t)
    }

    fn warp_slow(&mut self, l: usize, mut t: SimTime) -> SimTime {
        if self.has_stalls {
            let end = self.fault_stall_base[l + 1];
            let mut i = self.fault_next[l];
            while i < end {
                let (at, dur) = self.fault_stalls[i as usize];
                if at > t {
                    break;
                }
                t += dur;
                i += 1;
            }
            self.fault_next[l] = i;
        }
        if self.has_crashes {
            let c = self.fault_crash[l];
            if t > c {
                self.ranks[l].status = Status::Crashed;
                self.finish[l] = c;
                return c;
            }
        }
        t
    }

    /// Whether rank `l` is dead — checked after every [`Part::warp`] call
    /// that precedes a side effect.
    #[inline]
    fn crashed(&self, l: usize) -> bool {
        self.ranks[l].status == Status::Crashed
    }

    /// A CPU-side duration with noise drawn under `key` and any active
    /// noise-storm slowdown applied. `at` is the simulated time the work
    /// starts; storm windows are pure functions of `(rank, at)`, so the
    /// factor is independent of event processing order, like the draw.
    #[inline]
    fn cpu_time(&self, l: usize, d: SimTime, at: SimTime, key: u64, site: u64) -> SimTime {
        let d = match self.cfg.noise {
            NoiseModel::None => d,
            m => m.perturb(d, Draw::new(self.cfg.seed, key, site)),
        };
        if self.has_storms {
            d * self.cfg.faults.storm_factor(l, at)
        } else {
            d
        }
    }

    /// Transfer-time multiplier from link-fault windows active at `t` on the
    /// `src → dst` node channel (1.0 when no link faults exist).
    #[inline]
    fn link_fault_factor(&self, src: usize, dst: usize, t: SimTime) -> f64 {
        if !self.has_links {
            return 1.0;
        }
        self.cfg.faults.link_factor(self.platform.node_of(src), self.platform.node_of(dst), t)
    }

    /// A [`crate::fault::RankCrash`] fires: halt the rank permanently. Work
    /// already completed stands; deliveries and completions arriving later
    /// are dropped by the `Crashed` guards. Ranks blocked on the dead rank
    /// park forever and surface as [`SimError::Deadlock`].
    fn on_crash(&mut self, l: usize, at: SimTime) {
        let st = &mut self.ranks[l];
        if matches!(st.status, Status::Finished | Status::Crashed) {
            return;
        }
        st.status = Status::Crashed;
        self.finish[l] = at;
    }

    // -- rank execution ----------------------------------------------------

    /// Execute ops of rank `l` until it blocks or finishes.
    fn advance(&mut self, l: usize) {
        self.ranks[l].active = true;
        self.advance_inner(l);
        self.ranks[l].active = false;
    }

    /// Resume rank `l` inline (its local clock already carries its logical
    /// time) instead of round-tripping a wake event through the queue.
    /// Matching is fixed by the job's pairing, noise draws are keyed by
    /// program order and message uid, and NIC claims still go through
    /// timestamped events, so the outcome is identical. Refuses (and
    /// returns false, caller schedules a wake) when the rank is already
    /// mid-`advance` or the cascade is deep enough to threaten the stack.
    fn resume_inline(&mut self, l: usize) -> bool {
        if self.inline_depth >= inline_cap() || self.ranks[l].active {
            return false;
        }
        self.inline_depth += 1;
        self.advance(l);
        self.inline_depth -= 1;
        true
    }

    fn advance_inner(&mut self, l: usize) {
        loop {
            match self.ranks[l].status {
                Status::Finished | Status::Crashed | Status::BlockedRecv | Status::BlockedSend => {
                    return
                }
                Status::BlockedWaitAll => {
                    // Re-evaluate the WaitAll the rank is parked on; on
                    // success the op is complete, so advance past it.
                    if !self.try_waitall(l) {
                        return;
                    }
                    self.ranks[l].status = Status::Runnable;
                    self.step(l);
                }
                Status::Runnable => {}
            }

            // Fast path: the next op is one indexed load into the job's
            // flat op arena; segment tables are only touched at boundaries
            // below.
            let job = self.job;
            let st = &mut self.ranks[l];
            let op_i = st.op_i;
            if op_i < st.seg_end {
                if op_i == st.seg_start {
                    st.seg_enter = st.local;
                }
                // `job` is borrowed with the outer lifetime, so `op` does
                // not pin `self` while exec_op mutates it.
                let op = &job.ops[op_i as usize];
                if !self.exec_op(l, op) {
                    return;
                }
                if self.error.is_some() {
                    return;
                }
                continue;
            }

            // Segment bookkeeping.
            let seg_i = st.seg_i;
            if seg_i >= job.rank_segs[l + 1] {
                let st = &mut self.ranks[l];
                st.status = Status::Finished;
                let t = st.local;
                self.finish[l] = t;
                return;
            }
            // Segment complete (op_i ran past its end).
            if self.cfg.record_phases {
                if let Some(label) = job.segs[seg_i as usize].label {
                    let enter = self.ranks[l].seg_enter;
                    let exit = self.ranks[l].local;
                    self.phases.push(PhaseRecord { rank: l, label, enter, exit });
                }
            }
            let st = &mut self.ranks[l];
            st.seg_i = seg_i + 1;
            st.seg_start = op_i;
            st.seg_enter = st.local;
            st.seg_end = if seg_i + 1 < job.rank_segs[l + 1] {
                job.segs[(seg_i + 1) as usize].end
            } else {
                op_i
            };
        }
    }

    /// Execute one op. Returns false if the rank blocked (`op_i` stays on
    /// the op); returns true if execution should continue (`op_i` advanced).
    fn exec_op(&mut self, l: usize, op: &COp) -> bool {
        match *op {
            COp::Compute { seconds, noisy } => {
                let at = self.ranks[l].local;
                let d = if noisy {
                    let key = self.own_key(l);
                    self.cpu_time(l, seconds, at, key, SITE_CPU)
                } else {
                    seconds
                };
                self.ranks[l].local = self.warp(l, at + d);
                if self.crashed(l) {
                    return false;
                }
                self.step(l);
                true
            }
            COp::SleepUntil { time } => {
                let t = self.ranks[l].local.max(time);
                self.ranks[l].local = self.warp(l, t);
                if self.crashed(l) {
                    return false;
                }
                self.step(l);
                true
            }
            COp::Send { to, slot, desc, req, pair } => {
                self.do_send(l, to as usize, slot as usize, desc, (req != CNIL).then_some(req as usize), pair)
            }
            COp::Recv { from, slot, req, pair, .. } => {
                self.do_recv(l, from as usize, slot as usize, (req != CNIL).then_some(req as usize), pair)
            }
            COp::WaitAll { .. } => {
                if self.enter_waitall(l) {
                    self.step(l);
                    true
                } else {
                    // `enter_waitall` also returns false when the final
                    // completion time crossed the crash instant — the rank
                    // is dead, not parked.
                    if !self.crashed(l) {
                        self.ranks[l].status = Status::BlockedWaitAll;
                    }
                    false
                }
            }
            COp::ReduceLocal { from, into, bytes } => {
                let cost = bytes as f64 * self.platform.reduce_cost_per_byte;
                let at = self.ranks[l].local;
                let key = self.own_key(l);
                let d = self.cpu_time(l, cost, at, key, SITE_CPU);
                self.ranks[l].local = self.warp(l, at + d);
                if self.crashed(l) {
                    return false;
                }
                if self.cfg.track_data {
                    // Value clones are Arc bumps; the deep copy happens only
                    // if reduce_from must mutate shared blocks.
                    let src = self.slots[l][from as usize].clone();
                    if let Err(e) = self.slots[l][into as usize].reduce_from(&src) {
                        self.data_error(l, e);
                    }
                }
                self.step(l);
                true
            }
            COp::MergeMove { .. }
            | COp::OverwriteMove { .. }
            | COp::DropBlocks { .. }
            | COp::CopySlot { .. }
            | COp::InitSlot { .. }
            | COp::ClearSlot { .. } => {
                // Zero-cost slot ops change payloads only.
                if self.cfg.track_data {
                    self.apply_slot_op(l, *op);
                }
                self.step(l);
                true
            }
        }
    }

    /// Apply a zero-cost slot op to rank `l`'s payloads (tracked runs only).
    fn apply_slot_op(&mut self, l: usize, op: COp) {
        let slots = &mut self.slots[l];
        match op {
            COp::MergeMove { from, into } => {
                let src = slots[from as usize].clone();
                if let Err(e) = slots[into as usize].merge_from(&src) {
                    self.data_error(l, e);
                }
            }
            COp::OverwriteMove { from, into } => {
                let src = slots[from as usize].clone();
                slots[into as usize].overwrite_from(&src);
            }
            COp::DropBlocks { slot, desc } => {
                let f = self.job.descs[desc as usize].filter;
                self.slots[l][slot as usize].drop_matching(f);
            }
            COp::CopySlot { from, into } => slots[into as usize] = slots[from as usize].clone(),
            COp::InitSlot { slot, init } => slots[slot as usize] = init.value(),
            COp::ClearSlot { slot } => slots[slot as usize] = Value::empty(),
            _ => unreachable!("not a slot op: {op:?}"),
        }
    }


    fn data_error(&mut self, l: usize, e: impl std::fmt::Display) {
        self.data_errors.push((l as u32, format!("rank {l}: {e}")));
    }

    /// Advance past the current op.
    fn step(&mut self, l: usize) {
        self.ranks[l].op_i += 1;
    }

    /// Rank `l`'s noise key for its current op, which draws: the rank and
    /// its count of drawing ops so far, in program order. 0 (unused) when
    /// the noise model is `None`, which keeps no count.
    #[inline]
    fn own_key(&mut self, l: usize) -> u64 {
        match self.draw_seq.get_mut(l) {
            Some(seq) => {
                let key = ((l as u64) << 40) | *seq;
                *seq += 1;
                key
            }
            None => 0,
        }
    }

    #[inline]
    fn req(&mut self, l: usize, r: ReqId) -> &mut ReqState {
        &mut self.reqs[self.req_base[l] as usize + r]
    }

    // -- sends & receives ---------------------------------------------------

    fn do_send(&mut self, l: usize, to: usize, slot: Slot, desc: u32, req: Option<ReqId>, pair: u32) -> bool {
        let MsgDesc { bytes, filter, .. } = self.job.descs[desc as usize];
        if to >= self.platform.ranks {
            self.fail(format!("rank {l} sends to non-existent rank {to}"));
            return false;
        }
        if to == l {
            self.fail(format!("rank {l} sends to itself (use CopySlot)"));
            return false;
        }
        let eager = self.platform.is_eager(bytes);
        if eager && pair == CNIL {
            // Nothing would ever consume the buffered message.
            self.fail(format!("rank {l} sends {bytes} B eagerly to rank {to}, but no receive matches it"));
            return false;
        }
        if let Some(r) = req {
            if *self.req(l, r) != ReqState::Free {
                self.fail(format!("rank {l} reuses request {r} before WaitAll"));
                return false;
            }
        }

        let o_s = self.platform.send_overhead;
        let at = self.ranks[l].local;
        let key = self.own_key(l);
        let ts = {
            let d = self.cpu_time(l, o_s, at, key, SITE_CPU);
            self.warp(l, at + d)
        };
        if self.crashed(l) {
            // Died during the send overhead: the message never left.
            self.ranks[l].local = ts;
            return false;
        }
        let wire_factor = match self.cfg.noise {
            NoiseModel::None => 1.0,
            m => m.wire_factor(Draw::new(self.cfg.seed, key, SITE_WIRE)),
        };
        let payload = self.cfg.track_data.then(|| match filter {
            BlockFilter::All => self.slots[l][slot].clone(),
            f => self.slots[l][slot].filtered(|c| f.matches(c)),
        });
        let uid = ((l as u64) << 40) | self.send_seq[l];
        self.send_seq[l] += 1;
        self.messages += 1;

        let sender_wake = if eager {
            SenderWake::None
        } else {
            match req {
                Some(r) => {
                    *self.req(l, r) = ReqState::Pending;
                    SenderWake::Req(r as u32)
                }
                None => SenderWake::Blocked,
            }
        };
        let (id, waiting) = self.post_send(pair, Msg {
            uid,
            src: l as u32,
            dst: to as u32,
            op: self.ranks[l].op_i,
            bytes,
            protocol: if eager { Protocol::Eager } else { Protocol::Rendezvous },
            ready: ts,
            wire_factor,
            state: MsgState::Unmatched,
            recv: None,
            sender_wake,
            payload,
        });

        if eager {
            // Sender resumes immediately; data is injected in the background.
            self.ranks[l].local = ts;
            if let Some(r) = req {
                *self.req(l, r) = ReqState::Done(ts);
            }
            if let Some(info) = waiting {
                self.attach_recv(id, info);
            }
            self.step(l);
            self.inject_or_push(id, ts);
            true
        } else if req.is_some() {
            self.ranks[l].local = ts;
            if let Some(info) = waiting {
                self.attach_recv(id, info);
            }
            // Isend: continue; request completes at egress done.
            self.step(l);
            true
        } else {
            // Rendezvous delivery is always asynchronous, so a blocking
            // send parks here whether or not it matched. Park BEFORE the
            // match: an inline intra-node injection triggered by the match
            // observes a parked sender and schedules the resume wake.
            self.ranks[l].local = ts;
            self.ranks[l].status = Status::BlockedSend;
            if let Some(info) = waiting {
                self.attach_recv(id, info);
            }
            false
        }
    }

    /// Post a send on `pair` (`CNIL`: unmatched): its message takes over the
    /// record a receive posted first left there, if any, and that
    /// receive is returned.
    fn post_send(&mut self, pair: u32, m: Msg) -> (usize, Option<RecvInfo>) {
        match self.pairs.get(pair as usize).copied().unwrap_or(NIL) {
            NIL => {
                let id = self.alloc_msg(m);
                if let Some(p) = self.pairs.get_mut(pair as usize) {
                    *p = id as u32;
                }
                (id, None)
            }
            id => (id as usize, std::mem::replace(&mut self.msgs[id as usize], m).recv),
        }
    }

    /// Post rank `l`'s current receive on `pair`: the message its send
    /// already posted, or `None` after leaving `info` for the send (an
    /// unmatched receive waits forever).
    fn post_recv(&mut self, l: usize, pair: u32, info: RecvInfo) -> Option<usize> {
        match *self.pairs.get(pair as usize)? {
            NIL => {
                let id = self.alloc_msg(Msg { op: self.ranks[l].op_i, recv: Some(info), ..Msg::default() });
                self.pairs[pair as usize] = id as u32;
                None
            }
            id => Some(id as usize),
        }
    }

    fn do_recv(&mut self, l: usize, from: usize, slot: Slot, req: Option<ReqId>, pair: u32) -> bool {
        if from >= self.platform.ranks {
            self.fail(format!("rank {l} receives from non-existent rank {from}"));
            return false;
        }
        if from == l {
            self.fail(format!("rank {l} receives from itself"));
            return false;
        }
        if let Some(r) = req {
            if *self.req(l, r) != ReqState::Free {
                self.fail(format!("rank {l} reuses request {r} before WaitAll"));
                return false;
            }
            *self.req(l, r) = ReqState::Pending;
        }

        // Posting a receive costs CPU (descriptor setup / matching-queue
        // insertion). This per-message software cost is what makes
        // aggregating algorithms (Bruck) win small-message collectives over
        // posting one pair of requests per peer.
        let at = self.ranks[l].local;
        let key = self.own_key(l);
        let post = self.cpu_time(l, self.platform.recv_overhead, at, key, SITE_CPU);
        let tr = self.warp(l, at + post);
        self.ranks[l].local = tr;
        if self.crashed(l) {
            // Died posting the receive: nothing was matched or consumed.
            return false;
        }
        let wake = match req {
            Some(r) => r as u32,
            None => NIL,
        };
        let info = RecvInfo { slot: slot as u32, posted_at: tr, wake };

        if req.is_none() {
            // Park BEFORE the match: an inline intra-node delivery triggered
            // by the match observes a parked receiver, marks it Runnable and
            // schedules its resume — which must not be clobbered afterwards.
            self.ranks[l].status = Status::BlockedRecv;
        }
        if let Some(mid) = self.post_recv(l, pair, info) {
            // Eager message already delivered: complete inline.
            if let MsgState::DeliveredUnmatched(t_d) = self.msgs[mid].state {
                let o_r = self.platform.recv_overhead;
                let start = tr.max(t_d);
                let done = {
                    let d = self.cpu_time(l, o_r, start, self.msgs[mid].uid, SITE_RECV_DONE);
                    self.warp(l, start + d)
                };
                if self.crashed(l) {
                    // Died mid-copy: the matched message is consumed but
                    // never lands anywhere.
                    self.drop_msg(mid);
                    return false;
                }
                self.finish_recv(mid, l, slot, done, req);
                // Blocking recv continues at `done`.
                if req.is_none() {
                    self.ranks[l].local = done;
                    self.ranks[l].status = Status::Runnable;
                }
                self.step(l);
                return true;
            }
            self.attach_recv(mid, info);
        }
        match req {
            Some(_) => {
                self.step(l);
                true
            }
            None => false,
        }
    }

    /// Pair a send with a receive; for rendezvous this starts the handshake.
    fn attach_recv(&mut self, id: usize, recv: RecvInfo) {
        let m = &self.msgs[id];
        let (protocol, ready, src, dst) = (m.protocol, m.ready, m.src as usize, m.dst as usize);
        self.msgs[id].recv = Some(recv);
        self.msgs[id].state = MsgState::WaitingDelivery;
        if protocol == Protocol::Rendezvous {
            let lat = self.platform.link(src, dst).latency;
            self.inject_or_push(id, (ready + lat).max(recv.posted_at) + lat);
        }
    }

    // -- network pipeline ---------------------------------------------------

    /// Run the injection pipeline for message `id` inline when it is an
    /// intra-node transfer — shared-memory transfers claim no NIC resource,
    /// so nothing about them depends on global event order — otherwise
    /// schedule the inject event at `t`.
    fn inject_or_push(&mut self, id: usize, t: SimTime) {
        let m = &self.msgs[id];
        let (src, dst, uid) = (m.src as usize, m.dst as usize, m.uid);
        if self.inline_depth < inline_cap() && self.platform.same_node(src, dst) {
            self.inline_depth += 1;
            self.on_inject(id, t);
            self.inline_depth -= 1;
        } else {
            self.push_event(t, QEvent::KIND_INJECT, uid, id as u32);
        }
    }

    fn on_inject(&mut self, id: usize, now: SimTime) {
        let m = &self.msgs[id];
        let (src, dst, bytes, uid) = (m.src as usize, m.dst as usize, m.bytes, m.uid);
        let link = *self.platform.link(src, dst);
        let wire =
            bytes as f64 / link.bandwidth * m.wire_factor * self.link_fault_factor(src, dst, now);
        let intra = self.platform.same_node(src, dst);

        let (start, egress_done) = if !intra && self.platform.nic_serialization {
            let node = self.platform.node_of(src);
            let start = now.max(self.egress_free[node]);
            self.egress_free[node] = start + wire;
            (start, start + wire)
        } else {
            (now, now + wire)
        };

        // Wake a rendezvous sender once the data has left the node (unless
        // it crashed while parked — the data was already in flight).
        match self.msgs[id].sender_wake {
            SenderWake::Blocked => {
                if self.ranks[src].status != Status::Crashed {
                    let resume = self.warp(src, egress_done);
                    self.ranks[src].local = resume;
                    // The resume itself may cross the crash instant: the
                    // data left the node, but the sender never runs again.
                    if !self.crashed(src) {
                        self.ranks[src].status = Status::Runnable;
                        self.step(src);
                        if !self.resume_inline(src) {
                            self.schedule_wake(src, resume);
                        }
                    }
                }
            }
            SenderWake::Req(r) => {
                self.complete_req(src, r as usize, egress_done);
            }
            SenderWake::None => {}
        }
        self.msgs[id].sender_wake = SenderWake::None;

        if intra {
            // Shared memory: latency + copy, no NIC. The delivery time is
            // fully determined here and no noise draw depends on processing
            // order, so deliver inline instead of scheduling a third event
            // per message (the pairing and all computed times are
            // identical — see DESIGN.md §12.1 on event elision).
            let t_arr = start + link.latency + wire;
            if self.inline_depth < inline_cap() {
                self.inline_depth += 1;
                self.on_delivered(id, t_arr);
                self.inline_depth -= 1;
            } else {
                self.push_event(t_arr, QEvent::KIND_DELIVERED, uid, id as u32);
            }
        } else {
            self.push_event(start + link.latency + wire, QEvent::KIND_WIRE, uid, id as u32);
        }
    }

    fn on_wire_arrival(&mut self, id: usize, now: SimTime) {
        let m = &self.msgs[id];
        let (src, dst, bytes, uid) = (m.src as usize, m.dst as usize, m.bytes, m.uid);
        debug_assert!(!self.platform.same_node(src, dst));
        let wire = bytes as f64 / self.platform.inter.bandwidth
            * m.wire_factor
            * self.link_fault_factor(src, dst, now);
        let delivered = if self.platform.nic_serialization {
            let node = self.platform.node_of(dst);
            let t = now.max(self.ingress_free[node]);
            self.ingress_free[node] = t + wire;
            t
        } else {
            now
        };
        // `delivered` is fully determined at wire-arrival time (the ingress
        // NIC slot was just claimed) and no noise draw depends on processing
        // order, so the delivery is processed inline rather than through a
        // third queue event per message. Receives posted between now and
        // `delivered` observe the identical outcome through the
        // `DeliveredUnmatched` path in `do_recv`.
        if self.inline_depth < inline_cap() {
            self.inline_depth += 1;
            self.on_delivered(id, delivered);
            self.inline_depth -= 1;
        } else {
            self.push_event(delivered, QEvent::KIND_DELIVERED, uid, id as u32);
        }
    }

    /// Drop a message whose receiver is dead: mark it done and retire it
    /// without touching any slot, request, or record.
    fn drop_msg(&mut self, id: usize) {
        self.msgs[id].state = MsgState::Done;
        self.retire_msg(id);
    }

    fn on_delivered(&mut self, id: usize, now: SimTime) {
        // A delivery addressed to a crashed rank is dropped on the floor:
        // the data arrived, but nobody is alive to complete the receive.
        {
            let l = self.msgs[id].dst as usize;
            if self.ranks[l].status == Status::Crashed {
                self.drop_msg(id);
                return;
            }
        }
        match self.msgs[id].state {
            MsgState::WaitingDelivery => {
                let recv = self.msgs[id].recv.expect("matched message must have recv info");
                let l = self.msgs[id].dst as usize;
                let o_r = self.platform.recv_overhead;
                let start = now.max(recv.posted_at);
                let done = {
                    let d = self.cpu_time(l, o_r, start, self.msgs[id].uid, SITE_RECV_DONE);
                    self.warp(l, start + d)
                };
                if self.crashed(l) {
                    // Died during the receive-side copy.
                    self.drop_msg(id);
                    return;
                }
                if recv.wake == NIL {
                    self.finish_recv(id, l, recv.slot as usize, done, None);
                    self.ranks[l].local = done;
                    self.ranks[l].status = Status::Runnable;
                    self.step(l);
                    if !self.resume_inline(l) {
                        self.schedule_wake(l, done);
                    }
                } else {
                    self.finish_recv(id, l, recv.slot as usize, done, Some(recv.wake as usize));
                }
            }
            MsgState::Unmatched => {
                self.msgs[id].state = MsgState::DeliveredUnmatched(now);
            }
            s => {
                self.fail(format!("message {id} delivered in unexpected state {s:?}"));
            }
        }
    }

    /// Write payload into the slot, complete the request if any, retire msg.
    fn finish_recv(&mut self, id: usize, l: usize, slot: Slot, done: SimTime, req: Option<ReqId>) {
        if self.cfg.record_messages {
            let m = &self.msgs[id];
            let COp::Send { desc, .. } = self.job.ops[m.op as usize] else { unreachable!("a message's op is a send") };
            self.msg_events.push(MsgEvent {
                src: m.src as usize,
                dst: m.dst as usize,
                tag: self.job.descs[desc as usize].tag,
                bytes: m.bytes,
                sent: m.ready,
                delivered: done,
            });
        }
        if self.cfg.track_data {
            if let Some(v) = self.msgs[id].payload.take() {
                self.slots[l][slot] = v;
            }
        }
        self.msgs[id].state = MsgState::Done;
        self.retire_msg(id);
        if let Some(r) = req {
            self.complete_req(l, r, done);
        }
    }

    fn complete_req(&mut self, l: usize, req: ReqId, t: SimTime) {
        // A crashed rank never resumes: record the completion (the transfer
        // itself happened) but leave its WaitAll parked forever.
        let crashed = self.ranks[l].status == Status::Crashed;
        let slot = self.req(l, req);
        debug_assert!(matches!(*slot, ReqState::Pending | ReqState::PendingWaited));
        let waited = matches!(*slot, ReqState::PendingWaited);
        *slot = ReqState::Done(t);
        if waited && !crashed {
            // The rank is parked on a WaitAll listing this request; fold
            // the completion into its cached countdown and resume once the
            // last one lands.
            let st = &mut self.ranks[l];
            st.wa_t = st.wa_t.max(t);
            st.wa_left -= 1;
            if st.wa_left == 0 {
                let t_resume = st.wa_t;
                if !self.resume_inline(l) {
                    self.schedule_wake(l, t_resume);
                }
            }
        }
    }

    /// First encounter with a WaitAll while the rank is running. Scans the
    /// request list exactly once: completed requests contribute their time,
    /// still-pending ones are marked [`ReqState::PendingWaited`] and counted
    /// into the rank's cached countdown. Returns true if the op completed
    /// inline (all requests were already done).
    fn enter_waitall(&mut self, l: usize) -> bool {
        // `job` is borrowed with the outer lifetime, so `reqs` does not
        // pin `self` while the loop mutates the request arena.
        let reqs = self.wait_reqs(l);
        let base = self.req_base[l] as usize;
        let mut t = self.ranks[l].local;
        let mut left = 0u32;
        for &r in reqs {
            match self.reqs[base + r as usize] {
                ReqState::Done(d) => t = t.max(d),
                ReqState::Pending => {
                    self.reqs[base + r as usize] = ReqState::PendingWaited;
                    left += 1;
                }
                // Same request listed twice in one WaitAll: already counted.
                ReqState::PendingWaited => {}
                ReqState::Free => {
                    self.fail(format!("rank {l} waits on request {r} that was never started"));
                    return false;
                }
            }
        }
        if left == 0 {
            for &r in reqs {
                self.reqs[base + r as usize] = ReqState::Free;
            }
            self.ranks[l].local = self.warp(l, t);
            if self.crashed(l) {
                return false;
            }
            true
        } else {
            let st = &mut self.ranks[l];
            st.wa_left = left;
            st.wa_t = t;
            false
        }
    }

    /// Request list of the WaitAll rank `l` currently points at.
    #[inline]
    fn wait_reqs(&self, l: usize) -> &'a [u32] {
        let job = self.job;
        match job.ops[self.ranks[l].op_i as usize] {
            COp::WaitAll { off, len } => &job.wait_reqs[off as usize..(off + len) as usize],
            _ => unreachable!("wait_reqs called on non-WaitAll op"),
        }
    }

    /// Attempt to complete the WaitAll the rank is parked on. On success the
    /// rank's local time advances and the requests are freed.
    fn try_waitall(&mut self, l: usize) -> bool {
        if self.ranks[l].wa_left > 0 {
            return false;
        }
        let reqs = self.wait_reqs(l);
        let base = self.req_base[l] as usize;
        for &r in reqs {
            self.reqs[base + r as usize] = ReqState::Free;
        }
        let t = self.ranks[l].wa_t;
        self.ranks[l].local = self.warp(l, t);
        // Crossing the crash instant leaves the rank dead, not resumed;
        // `advance_inner` returns without touching its status.
        !self.crashed(l)
    }

    // -- message table ------------------------------------------------------

    fn alloc_msg(&mut self, m: Msg) -> usize {
        self.live_msgs += 1;
        if self.live_msgs > self.live_msgs_hwm {
            self.live_msgs_hwm = self.live_msgs;
        }
        if let Some(id) = self.free_msgs.pop() {
            self.msgs[id as usize] = m;
            id as usize
        } else {
            self.msgs.push(m);
            self.msgs.len() - 1
        }
    }

    fn retire_msg(&mut self, id: usize) {
        self.msgs[id].payload = None;
        self.free_msgs.push(id as u32);
        self.live_msgs -= 1;
    }
}
