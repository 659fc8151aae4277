//! Property tests pinning the consistent-hash ring's stability guarantees
//! under shard-set changes — the contract client failover depends on.

use pap_service::fleet::Ring;
use proptest::prelude::*;

fn machines() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("simcluster".to_string()),
        Just("hydra".to_string()),
        Just("galileo100".to_string()),
        Just("discoverer".to_string()),
    ]
}

fn collectives() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("reduce".to_string()),
        Just("allreduce".to_string()),
        Just("bcast".to_string()),
        Just("alltoall".to_string()),
        Just("allgather".to_string()),
    ]
}

proptest! {
    /// Removing one shard re-maps ONLY the keys it owned; every key owned
    /// by a surviving shard keeps its owner. This is what makes a shard
    /// kill cost one failover for its own keys and zero for the rest.
    #[test]
    fn removing_a_shard_only_remaps_its_own_keys(
        shards in 2usize..9,
        dead_seed in 0usize..100,
        keys in proptest::collection::vec((machines(), collectives(), 2usize..4096), 1..60),
    ) {
        let ring = Ring::new(shards);
        let dead = dead_seed % shards;
        let all = vec![true; shards];
        let mut alive = all.clone();
        alive[dead] = false;
        for (m, c, ranks) in &keys {
            let before = ring.route_filtered(m, c, *ranks, &all).unwrap();
            let after = ring.route_filtered(m, c, *ranks, &alive).unwrap();
            if before == dead {
                prop_assert!(after != dead, "keys of the dead shard must move off it");
            } else {
                prop_assert_eq!(before, after, "a surviving shard's key moved");
            }
        }
    }

    /// Failover order is a permutation of all shards starting at the
    /// owner, and routing under any live set equals the first live entry
    /// of that order — so client-side retry walks exactly the ring.
    #[test]
    fn failover_order_is_consistent_with_filtered_routing(
        shards in 1usize..9,
        alive_mask in 1u32..512,
        m in machines(),
        c in collectives(),
        ranks in 2usize..4096,
    ) {
        let ring = Ring::new(shards);
        let order = ring.failover_order(&m, &c, ranks);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..shards).collect::<Vec<_>>());
        prop_assert_eq!(order[0], ring.route(&m, &c, ranks).unwrap());

        let alive: Vec<bool> = (0..shards).map(|s| alive_mask & (1 << s) != 0).collect();
        let expect = order.iter().copied().find(|&s| alive[s]);
        prop_assert_eq!(ring.route_filtered(&m, &c, ranks, &alive), expect);
    }
}
