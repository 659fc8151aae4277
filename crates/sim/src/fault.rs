//! Runtime fault injection: the [`FaultSpec`] carried by
//! [`crate::SimConfig`].
//!
//! The paper's robustness study (Fig. 6) perturbs *arrival patterns*; a
//! production selector must also survive faults that strike mid-collective.
//! Four fault families are modelled, all applied at **deterministic simulated
//! timestamps** so a faulted [`crate::run_ref`] repeats byte-identically:
//!
//! * [`RankStall`] — the rank freezes for a fixed interval starting at a
//!   simulated time; every completion on that rank at or after the stall is
//!   pushed back by its duration (a "warp" of the rank's local clock).
//! * [`RankCrash`] — the rank halts permanently at a simulated time. Ranks
//!   depending on it block forever and the run reports
//!   [`crate::SimError::Deadlock`], which the metric layers map to a penalty.
//! * [`LinkFault`] — a transient slowdown window on a `(src node, dst node)`
//!   channel: transfer (serialization) times of messages claiming the NIC
//!   while the window is active are multiplied by a factor.
//! * [`NoiseStorm`] — correlated CPU slowdown over a contiguous rank range
//!   and time window: noisy compute, reductions and messaging overheads
//!   started inside the window are multiplied by a factor.
//!
//! Stalls and crashes are *consumed-once per-rank state*; link and storm
//! windows are *pure functions of timestamps*. Neither depends on event
//! processing order (see DESIGN.md §13 for the argument).
//!
//! Random generation (e.g. [`FaultSpec::random_storms`]) happens at
//! **construction time** from an explicit seed — the engine itself never
//! draws fault randomness, so fault injection adds no noise draw and moves
//! none: the engine's noise draws are keyed by program order and message
//! uid, whatever faults and event elision do to processing order.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Wildcard node index for `LinkFault` endpoints: matches every node.
pub const ANY_NODE: usize = usize::MAX;

/// Largest accepted fault timestamp/duration (seconds). Bounds the
/// arithmetic (`t + stall`, `wire × factor`) away from `f64` overflow so a
/// validated spec can never push a non-finite event time into the engine.
pub(crate) const MAX_FAULT_TIME: f64 = 1e12;

/// Largest accepted slowdown factor for links and storms.
pub(crate) const MAX_FAULT_FACTOR: f64 = 1e9;

/// A rank freeze: at simulated time `at`, rank `rank` stops making progress
/// for `stall` seconds. Work completing at or after `at` is pushed back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankStall {
    /// Global rank that stalls.
    pub rank: usize,
    /// Simulated time the freeze begins (seconds).
    pub at: SimTime,
    /// Freeze duration (seconds).
    pub stall: f64,
}

/// A permanent rank halt at simulated time `at`. The rank executes no
/// operation that would start at or after the crash event; its finish time
/// is pinned to `at`. Messages already in flight still travel, deliveries
/// addressed to the dead rank are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankCrash {
    /// Global rank that crashes.
    pub rank: usize,
    /// Simulated time of the crash (seconds).
    pub at: SimTime,
}

/// A transient slowdown window on the `(src_node, dst_node)` channel:
/// while `from <= t < until`, transfer times of messages claiming the
/// NIC at `t` are multiplied by `factor`. Either endpoint may be
/// [`ANY_NODE`] to match every node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Source cluster node (or [`ANY_NODE`]).
    pub src_node: usize,
    /// Destination cluster node (or [`ANY_NODE`]).
    pub dst_node: usize,
    /// Window start (seconds, inclusive).
    pub from: SimTime,
    /// Window end (seconds, exclusive).
    pub until: SimTime,
    /// Multiplier on the transfer time (≥ 0; > 1 slows the link down).
    pub factor: f64,
}

/// A correlated noise storm: while `from <= t < until`, CPU-side durations
/// (noisy compute, reductions, send/receive overheads) started at `t` on
/// ranks `first_rank..=last_rank` are multiplied by `factor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseStorm {
    /// First global rank covered (inclusive).
    pub first_rank: usize,
    /// Last global rank covered (inclusive).
    pub last_rank: usize,
    /// Window start (seconds, inclusive).
    pub from: SimTime,
    /// Window end (seconds, exclusive).
    pub until: SimTime,
    /// Multiplier on CPU-side durations (≥ 0; > 1 slows ranks down).
    pub factor: f64,
}

/// A set of runtime faults injected into one simulation run.
///
/// The default spec is empty ([`FaultSpec::none`]) and adds **zero**
/// per-event overhead: an empty spec takes exactly the code paths of the
/// pre-fault engine, so un-faulted output is bit-identical to it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Rank freeze intervals.
    pub stalls: Vec<RankStall>,
    /// Permanent rank halts.
    pub crashes: Vec<RankCrash>,
    /// Link slowdown windows.
    pub links: Vec<LinkFault>,
    /// Correlated CPU noise storms.
    pub storms: Vec<NoiseStorm>,
}

impl FaultSpec {
    /// The empty fault spec (no faults; identical output to a pre-fault run).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this spec injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.stalls.is_empty()
            && self.crashes.is_empty()
            && self.links.is_empty()
            && self.storms.is_empty()
    }

    /// Add a rank stall (builder style).
    pub fn with_stall(mut self, rank: usize, at: SimTime, stall: f64) -> Self {
        self.stalls.push(RankStall { rank, at, stall });
        self
    }

    /// Add a rank crash (builder style).
    pub fn with_crash(mut self, rank: usize, at: SimTime) -> Self {
        self.crashes.push(RankCrash { rank, at });
        self
    }

    /// Add a link slowdown window (builder style).
    pub fn with_link(
        mut self,
        src_node: usize,
        dst_node: usize,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> Self {
        self.links.push(LinkFault { src_node, dst_node, from, until, factor });
        self
    }

    /// Add a noise storm over `first_rank..=last_rank` (builder style).
    pub fn with_storm(
        mut self,
        first_rank: usize,
        last_rank: usize,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> Self {
        self.storms.push(NoiseStorm { first_rank, last_rank, from, until, factor });
        self
    }

    /// Generate `count` correlated noise storms from a seed, each covering a
    /// random contiguous quarter of the rank space and a random window inside
    /// `[0, horizon)` of mean length `mean_len`, slowing CPU work by
    /// `factor`. All randomness is drawn here, at construction time — the
    /// engine consumes the storms as plain deterministic windows.
    pub fn random_storms(
        seed: u64,
        ranks: usize,
        count: usize,
        horizon: f64,
        mean_len: f64,
        factor: f64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let span = (ranks / 4).max(1);
        let mut spec = FaultSpec::none();
        for _ in 0..count {
            let first = rng.gen_range(0..ranks.max(1));
            let last = (first + span - 1).min(ranks.saturating_sub(1));
            let from = rng.gen::<f64>() * horizon;
            let len = mean_len * (0.5 + rng.gen::<f64>());
            spec.storms.push(NoiseStorm { first_rank: first, last_rank: last, from, until: from + len, factor });
        }
        spec
    }

    /// Whether any stall or crash targets a rank (the consumed-once per-rank
    /// fault families; link/storm windows are stateless).
    pub fn has_rank_faults(&self) -> bool {
        !self.stalls.is_empty() || !self.crashes.is_empty()
    }

    /// Combined CPU slowdown factor for `rank` at simulated time `t` — the
    /// product of every storm window covering `(rank, t)`. Pure function of
    /// its arguments, hence safe under any event processing order.
    #[inline]
    pub(crate) fn storm_factor(&self, rank: usize, t: SimTime) -> f64 {
        let mut f = 1.0;
        for s in &self.storms {
            if rank >= s.first_rank && rank <= s.last_rank && t >= s.from && t < s.until {
                f *= s.factor;
            }
        }
        f
    }

    /// Combined transfer-time factor for a message claiming the
    /// `(src_node, dst_node)` channel at simulated time `t`. Pure function
    /// of its arguments.
    #[inline]
    pub(crate) fn link_factor(&self, src_node: usize, dst_node: usize, t: SimTime) -> f64 {
        let mut f = 1.0;
        for lf in &self.links {
            if (lf.src_node == ANY_NODE || lf.src_node == src_node)
                && (lf.dst_node == ANY_NODE || lf.dst_node == dst_node)
                && t >= lf.from
                && t < lf.until
            {
                f *= lf.factor;
            }
        }
        f
    }

    /// Check the spec against a platform of `ranks` ranks and `nodes` nodes.
    /// Rejects out-of-range ranks/nodes, non-finite or negative times, and
    /// factors outside `[0, MAX_FAULT_FACTOR]` — the envelope inside which
    /// the engine's event-time arithmetic provably stays finite.
    pub fn validate(&self, ranks: usize, nodes: usize) -> Result<(), String> {
        let time_ok = |t: f64| t.is_finite() && (0.0..=MAX_FAULT_TIME).contains(&t);
        let factor_ok = |f: f64| f.is_finite() && (0.0..=MAX_FAULT_FACTOR).contains(&f);
        for s in &self.stalls {
            if s.rank >= ranks {
                return Err(format!("stall targets rank {} of {ranks}", s.rank));
            }
            if !time_ok(s.at) || !time_ok(s.stall) {
                return Err(format!("stall at rank {} has out-of-range times", s.rank));
            }
        }
        for c in &self.crashes {
            if c.rank >= ranks {
                return Err(format!("crash targets rank {} of {ranks}", c.rank));
            }
            if !time_ok(c.at) {
                return Err(format!("crash at rank {} has an out-of-range time", c.rank));
            }
        }
        for l in &self.links {
            for node in [l.src_node, l.dst_node] {
                if node != ANY_NODE && node >= nodes {
                    return Err(format!("link fault targets node {node} of {nodes}"));
                }
            }
            if !time_ok(l.from) || !time_ok(l.until) || l.from > l.until {
                return Err("link fault window is out of range or inverted".into());
            }
            if !factor_ok(l.factor) {
                return Err(format!("link fault factor {} out of range", l.factor));
            }
        }
        for s in &self.storms {
            if s.first_rank >= ranks || s.last_rank >= ranks || s.first_rank > s.last_rank {
                return Err(format!(
                    "storm rank range {}-{} invalid for {ranks} ranks",
                    s.first_rank, s.last_rank
                ));
            }
            if !time_ok(s.from) || !time_ok(s.until) || s.from > s.until {
                return Err("storm window is out of range or inverted".into());
            }
            if !factor_ok(s.factor) {
                return Err(format!("storm factor {} out of range", s.factor));
            }
        }
        Ok(())
    }
}

/// Parse a time with an optional `us`/`ms`/`s` suffix (plain numbers are
/// seconds).
fn parse_time(s: &str) -> Result<f64, String> {
    let (num, mult) = if let Some(x) = s.strip_suffix("us") {
        (x, 1e-6)
    } else if let Some(x) = s.strip_suffix("ms") {
        (x, 1e-3)
    } else if let Some(x) = s.strip_suffix('s') {
        (x, 1.0)
    } else {
        (s, 1.0)
    };
    num.parse::<f64>().map(|v| v * mult).map_err(|e| format!("bad time '{s}': {e}"))
}

/// Parse a node index or `*` (any node).
fn parse_node(s: &str) -> Result<usize, String> {
    if s == "*" {
        Ok(ANY_NODE)
    } else {
        s.parse().map_err(|e| format!("bad node '{s}': {e}"))
    }
}

/// Split `s` once on `sep`, reporting `what` on failure.
fn split2<'a>(s: &'a str, sep: &str, what: &str) -> Result<(&'a str, &'a str), String> {
    s.split_once(sep).ok_or_else(|| format!("expected '{sep}' in {what}: '{s}'"))
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    /// Parse a `;`-separated list of fault clauses (the `papctl --fault`
    /// grammar, also produced by [`FaultSpec`]'s `Display`):
    ///
    /// * `stall:R@T+D` — rank `R` stalls at time `T` for `D`,
    /// * `crash:R@T` — rank `R` crashes at time `T`,
    /// * `link:S-D@F..U*X` — channel node `S` → node `D` (either may be
    ///   `*`) slowed by factor `X` during `[F, U)`,
    /// * `storm:R0-R1@F..U*X` — ranks `R0..=R1` CPU-slowed by `X` during
    ///   `[F, U)`.
    ///
    /// Times accept `us`/`ms`/`s` suffixes; plain numbers are seconds.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut spec = FaultSpec::none();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, rest) = split2(clause, ":", "fault clause")?;
            match kind {
                "stall" => {
                    let (rank, when) = split2(rest, "@", "stall")?;
                    let (at, dur) = split2(when, "+", "stall")?;
                    spec.stalls.push(RankStall {
                        rank: rank.parse().map_err(|e| format!("bad rank '{rank}': {e}"))?,
                        at: parse_time(at)?,
                        stall: parse_time(dur)?,
                    });
                }
                "crash" => {
                    let (rank, at) = split2(rest, "@", "crash")?;
                    spec.crashes.push(RankCrash {
                        rank: rank.parse().map_err(|e| format!("bad rank '{rank}': {e}"))?,
                        at: parse_time(at)?,
                    });
                }
                "link" => {
                    let (pair, win) = split2(rest, "@", "link")?;
                    let (src, dst) = split2(pair, "-", "link nodes")?;
                    let (range, factor) = split2(win, "*", "link window")?;
                    let (from, until) = split2(range, "..", "link window")?;
                    spec.links.push(LinkFault {
                        src_node: parse_node(src)?,
                        dst_node: parse_node(dst)?,
                        from: parse_time(from)?,
                        until: parse_time(until)?,
                        factor: factor.parse().map_err(|e| format!("bad factor '{factor}': {e}"))?,
                    });
                }
                "storm" => {
                    let (ranks, win) = split2(rest, "@", "storm")?;
                    let (r0, r1) = split2(ranks, "-", "storm ranks")?;
                    let (range, factor) = split2(win, "*", "storm window")?;
                    let (from, until) = split2(range, "..", "storm window")?;
                    spec.storms.push(NoiseStorm {
                        first_rank: r0.parse().map_err(|e| format!("bad rank '{r0}': {e}"))?,
                        last_rank: r1.parse().map_err(|e| format!("bad rank '{r1}': {e}"))?,
                        from: parse_time(from)?,
                        until: parse_time(until)?,
                        factor: factor.parse().map_err(|e| format!("bad factor '{factor}': {e}"))?,
                    });
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            }
        }
        Ok(spec)
    }
}

impl std::fmt::Display for FaultSpec {
    /// Render in the grammar `from_str` accepts (times in plain seconds), so
    /// `spec.to_string().parse()` round-trips exactly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        let node = |n: usize| {
            if n == ANY_NODE {
                "*".to_string()
            } else {
                n.to_string()
            }
        };
        for s in &self.stalls {
            write!(f, "{sep}stall:{}@{}+{}", s.rank, s.at, s.stall)?;
            sep = ";";
        }
        for c in &self.crashes {
            write!(f, "{sep}crash:{}@{}", c.rank, c.at)?;
            sep = ";";
        }
        for l in &self.links {
            write!(f, "{sep}link:{}-{}@{}..{}*{}", node(l.src_node), node(l.dst_node), l.from, l.until, l.factor)?;
            sep = ";";
        }
        for s in &self.storms {
            write!(f, "{sep}storm:{}-{}@{}..{}*{}", s.first_rank, s.last_rank, s.from, s.until, s.factor)?;
            sep = ";";
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultSpec::none().is_none());
        assert!(!FaultSpec::none().with_crash(0, 1.0).is_none());
    }

    #[test]
    fn parse_all_clause_kinds() {
        let spec: FaultSpec = "stall:3@10us+50us; crash:0@2ms; link:1-2@0..1ms*8; storm:0-7@0.5ms..1ms*4"
            .parse()
            .expect("parse");
        assert_eq!(spec.stalls[0].rank, 3);
        assert!((spec.stalls[0].at - 10e-6).abs() < 1e-12);
        assert!((spec.stalls[0].stall - 50e-6).abs() < 1e-12);
        assert_eq!(spec.crashes[0].rank, 0);
        assert!((spec.crashes[0].at - 2e-3).abs() < 1e-12);
        assert_eq!(spec.links.len(), 1);
        assert!((spec.links[0].factor - 8.0).abs() < 1e-12);
        assert_eq!((spec.storms[0].first_rank, spec.storms[0].last_rank), (0, 7));
    }

    #[test]
    fn parse_wildcard_link_node() {
        let spec: FaultSpec = "link:*-3@1us..2us*2.5".parse().expect("parse");
        assert_eq!(spec.links[0].src_node, ANY_NODE);
        assert_eq!(spec.links[0].dst_node, 3);
    }

    #[test]
    fn display_round_trips() {
        let spec = FaultSpec::none()
            .with_stall(3, 1e-5, 5e-5)
            .with_crash(0, 2e-3)
            .with_link(ANY_NODE, 2, 0.0, 1e-3, 8.0)
            .with_storm(0, 7, 5e-4, 1e-3, 4.0);
        let back: FaultSpec = spec.to_string().parse().expect("round trip");
        assert_eq!(spec, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["stall:x@1+2", "crash:1", "link:1-2@3*4", "storm:5@1..2*3", "boom:1@2"] {
            assert!(bad.parse::<FaultSpec>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn validate_catches_out_of_range() {
        let ok = FaultSpec::none().with_stall(1, 0.0, 1.0);
        assert!(ok.validate(4, 2).is_ok());
        assert!(FaultSpec::none().with_stall(9, 0.0, 1.0).validate(4, 2).is_err());
        assert!(FaultSpec::none().with_crash(0, f64::NAN).validate(4, 2).is_err());
        assert!(FaultSpec::none().with_link(5, 0, 0.0, 1.0, 2.0).validate(4, 2).is_err());
        assert!(FaultSpec::none().with_link(0, 1, 2.0, 1.0, 2.0).validate(4, 2).is_err());
        assert!(FaultSpec::none().with_storm(2, 1, 0.0, 1.0, 2.0).validate(4, 2).is_err());
        assert!(FaultSpec::none().with_storm(0, 1, 0.0, 1.0, f64::INFINITY).validate(4, 2).is_err());
    }

    #[test]
    fn storm_factor_is_windowed_product() {
        let spec = FaultSpec::none().with_storm(0, 3, 1.0, 2.0, 4.0).with_storm(2, 5, 1.5, 3.0, 2.0);
        assert_eq!(spec.storm_factor(0, 0.5), 1.0);
        assert_eq!(spec.storm_factor(0, 1.5), 4.0);
        assert_eq!(spec.storm_factor(2, 1.75), 8.0);
        assert_eq!(spec.storm_factor(5, 2.5), 2.0);
        assert_eq!(spec.storm_factor(0, 2.0), 1.0, "window end is exclusive");
    }

    #[test]
    fn link_factor_matches_endpoints_and_wildcards() {
        let spec = FaultSpec::none().with_link(1, 2, 0.0, 1.0, 8.0).with_link(ANY_NODE, 2, 0.0, 1.0, 2.0);
        assert_eq!(spec.link_factor(1, 2, 0.5), 16.0);
        assert_eq!(spec.link_factor(0, 2, 0.5), 2.0);
        assert_eq!(spec.link_factor(1, 0, 0.5), 1.0);
        assert_eq!(spec.link_factor(1, 2, 1.0), 1.0, "window end is exclusive");
    }

    #[test]
    fn random_storms_deterministic_per_seed() {
        let a = FaultSpec::random_storms(7, 64, 3, 1e-3, 1e-4, 4.0);
        let b = FaultSpec::random_storms(7, 64, 3, 1e-3, 1e-4, 4.0);
        let c = FaultSpec::random_storms(8, 64, 3, 1e-3, 1e-4, 4.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.storms.len(), 3);
        assert!(a.validate(64, 16).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let spec = FaultSpec::none().with_stall(1, 2e-5, 3e-5).with_link(0, 1, 0.0, 1e-3, 4.0);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: FaultSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(spec, back);
    }
}
