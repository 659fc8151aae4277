//! Consistent-hash routing over the shard set.
//!
//! Keys are (machine, collective, ranks) — the same triple that names an L2
//! tuning cell, so all byte sizes and arrival shapes of one cell land on one
//! shard and its caches stay hot. Each shard contributes `VNODES` virtual
//! points hashed onto a `u64` ring; a key routes to the first point
//! clockwise. Removing a shard only removes its points: keys on other
//! shards' arcs keep their owner, which is the stability property the
//! proptests pin.

/// Virtual points per shard: enough to keep the per-shard load spread
/// within a few percent at single-digit shard counts, cheap to rebuild.
const VNODES: usize = 64;

/// FNV-1a, the stable non-cryptographic hash used for ring placement (the
/// std hasher is allowed to change between releases; routing must not).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over shard indices `0..n`.
#[derive(Debug, Clone)]
pub struct Ring {
    /// (point, shard) sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Build a ring over `shards` shard slots.
    pub fn new(shards: usize) -> Ring {
        let mut points = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for v in 0..VNODES {
                let label = format!("shard-{s}-vnode-{v}");
                points.push((fnv1a(label.as_bytes()), s));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Hash of a routing key. Exposed so tests can reason about placement.
    pub(crate) fn key_hash(machine: &str, collective: &str, ranks: usize) -> u64 {
        let mut buf = Vec::with_capacity(machine.len() + collective.len() + 24);
        buf.extend_from_slice(machine.as_bytes());
        buf.push(0);
        buf.extend_from_slice(collective.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&(ranks as u64).to_le_bytes());
        fnv1a(&buf)
    }

    /// The shard owning a key, given the set of live shards (`alive[s]`).
    /// Dead shards' points are skipped, which is exactly the "only moved
    /// keys re-map" behavior: keys owned by live shards never move when
    /// another shard dies. Returns `None` when no shard is alive.
    pub fn route_filtered(&self, machine: &str, collective: &str, ranks: usize, alive: &[bool]) -> Option<usize> {
        self.walk(Self::key_hash(machine, collective, ranks), alive).next()
    }

    /// The shard owning a key with all shards alive.
    pub fn route(&self, machine: &str, collective: &str, ranks: usize) -> Option<usize> {
        self.route_filtered(machine, collective, ranks, &vec![true; self.shards])
    }

    /// All distinct shards in failover order for a key: the owner first,
    /// then each next distinct shard clockwise. A client retries down this
    /// list, so a key's fallback set is deterministic too.
    pub fn failover_order(&self, machine: &str, collective: &str, ranks: usize) -> Vec<usize> {
        self.walk(Self::key_hash(machine, collective, ranks), &vec![true; self.shards]).collect()
    }

    /// Walk distinct live shards clockwise from `hash`.
    fn walk<'a>(&'a self, hash: u64, alive: &'a [bool]) -> impl Iterator<Item = usize> + 'a {
        let start = self.points.partition_point(|&(pt, _)| pt < hash);
        let n = self.points.len();
        let mut seen = vec![false; self.shards];
        (0..n).filter_map(move |i| {
            let (_, s) = self.points[(start + i) % n];
            if s < alive.len() && alive[s] && !seen[s] {
                seen[s] = true;
                Some(s)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let ring = Ring::new(4);
        for ranks in [2usize, 16, 130, 1024] {
            let a = ring.route("simcluster", "reduce", ranks).unwrap();
            let b = ring.route("simcluster", "reduce", ranks).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn all_shards_receive_some_keys() {
        let ring = Ring::new(4);
        let mut hit = [false; 4];
        for ranks in 2..200 {
            hit[ring.route("simcluster", "allreduce", ranks).unwrap()] = true;
        }
        assert!(hit.iter().all(|&h| h), "load spread misses a shard: {hit:?}");
    }

    #[test]
    fn failover_order_lists_every_shard_once() {
        let ring = Ring::new(5);
        let order = ring.failover_order("hydra", "bcast", 64);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], ring.route("hydra", "bcast", 64).unwrap());
    }

    #[test]
    fn dead_shard_only_moves_its_own_keys() {
        let ring = Ring::new(4);
        let all = vec![true; 4];
        for dead in 0..4 {
            let mut alive = all.clone();
            alive[dead] = false;
            for ranks in 2..300 {
                let before = ring.route_filtered("simcluster", "reduce", ranks, &all).unwrap();
                let after = ring.route_filtered("simcluster", "reduce", ranks, &alive).unwrap();
                if before != dead {
                    assert_eq!(before, after, "key ranks={ranks} moved although its shard survived");
                } else {
                    assert_ne!(after, dead);
                }
            }
        }
    }

    #[test]
    fn empty_alive_set_routes_nowhere() {
        let ring = Ring::new(2);
        assert_eq!(ring.route_filtered("m", "c", 8, &[false, false]), None);
    }
}
