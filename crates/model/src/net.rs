//! Point-to-point message timing under the LogGP-style parameters of
//! [`Platform`], mirroring the noise-free semantics of the `pap-sim` engine.
//!
//! The simulator resolves each message through an event queue (inject → wire
//! → deliver) with per-node NIC serialization clocks. The model reproduces
//! the same arithmetic directly: a message is fully described by the sender's
//! clock when the send is issued and the receiver's clock when the matching
//! receive is posted, plus the two NIC clocks of the endpoints' nodes.
//! Every algorithm model resolves messages in a causally consistent order
//! (receivers after senders within each dependency chain). Without
//! inter-node NIC contention, replaying that arithmetic yields the event
//! queue's timestamps (`single_node_model_is_exact` and
//! `nic_free_model_is_exact` in the differential suite hold it to 1e-9).
//! With it, the NIC clocks here advance in replay order, not time order,
//! so a message replayed early but sent late delays the ones sent before
//! it (ROADMAP item 17).

use std::cell::RefCell;
use std::rc::Rc;

use pap_sim::Platform;

thread_local! {
    /// Rank → node table cache. The table is a pure function of
    /// `(ranks, cores_per_node)`, and a sweep builds one [`Net`] per grid
    /// cell against the same platform — caching it per thread replaces the
    /// `p` integer divisions per cell with a key compare.
    static NODE_TABLE: RefCell<(usize, usize, Rc<[u32]>)> =
        RefCell::new((0, 0, Rc::from(&[][..])));
}

/// Timing of one resolved point-to-point message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MsgOut {
    /// When the send request completes: `ts` for eager (the sender is free
    /// as soon as the injection is scheduled), egress-done for rendezvous.
    pub(crate) send_done: f64,
    /// When the receive request completes (delivery matched + `o_r`).
    pub(crate) recv_done: f64,
}

/// Shared network state: per-node NIC egress/ingress serialization clocks.
pub(crate) struct Net<'p> {
    pf: &'p Platform,
    /// Rank → node, precomputed: `node_of` divides, and the round-based
    /// models resolve O(p log p)–O(p²) messages per prediction, so the
    /// per-message integer divisions would dominate the arithmetic.
    node: Rc<[u32]>,
    egress_free: Vec<f64>,
    ingress_free: Vec<f64>,
}

impl<'p> Net<'p> {
    pub(crate) fn new(pf: &'p Platform) -> Self {
        let nodes = pf.occupied_nodes();
        let node = NODE_TABLE.with(|c| {
            let mut c = c.borrow_mut();
            if c.0 != pf.ranks || c.1 != pf.cores_per_node {
                let t: Vec<u32> = (0..pf.ranks).map(|r| pf.node_of(r) as u32).collect();
                *c = (pf.ranks, pf.cores_per_node, Rc::from(t));
            }
            Rc::clone(&c.2)
        });
        Net { pf, node, egress_free: vec![0.0; nodes], ingress_free: vec![0.0; nodes] }
    }

    /// Resolve one message `src → dst`.
    ///
    /// * `pre` — the sender's local clock immediately before the send op
    ///   (the send issues at `ts = pre + o_s`; the caller advances the
    ///   sender's clock by `o_s` itself).
    /// * `tr` — the receiver's clock when the matching receive is posted
    ///   (already including the posting `o_r`).
    ///
    /// Mirrors `engine.rs`: eager messages inject at `ts`; rendezvous
    /// messages wait for the handshake, injecting at
    /// `max(ts + L, tr) + L`. Inter-node messages serialize on the source
    /// egress and destination ingress NIC clocks when the platform enables
    /// NIC serialization.
    #[inline]
    pub(crate) fn msg(&mut self, src: usize, dst: usize, bytes: u64, pre: f64, tr: f64) -> MsgOut {
        let pf = self.pf;
        let eager = pf.is_eager(bytes);
        let ts = pre + pf.send_overhead;
        let sn = self.node[src] as usize;
        let dn = self.node[dst] as usize;
        let intra = sn == dn;
        let link = if intra { &pf.intra } else { &pf.inter };
        let lat = link.latency;
        let wire = bytes as f64 / link.bandwidth;
        let inject = if eager { ts } else { (ts + lat).max(tr) + lat };

        let (delivered, egress_done) = if !intra && pf.nic_serialization {
            let start = inject.max(self.egress_free[sn]);
            self.egress_free[sn] = start + wire;
            let arrival = start + lat + wire;
            let delivered = arrival.max(self.ingress_free[dn]);
            self.ingress_free[dn] = delivered + wire;
            (delivered, start + wire)
        } else {
            (inject + lat + wire, inject + wire)
        };

        let recv_done = delivered.max(tr) + pf.recv_overhead;
        let send_done = if eager { ts } else { egress_done };
        MsgOut { send_done, recv_done }
    }
}
