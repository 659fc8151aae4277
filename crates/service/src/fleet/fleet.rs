//! Fleet assembly: spawn N shards, warm-replicating shard 0's
//! evidence into the rest.
//!
//! Shard 0 seeds per the base config (snapshot file or startup tuning
//! sweep). Every later shard builds a cold store, drains shard 0's L2
//! over the real wire ([`super::replication::replicate_from`]), marks
//! itself warm, and only then starts serving — so its very first query
//! answers from L2 with no startup tuning of its own. All shards serve
//! the identical evidence; the [`super::client::FleetClient`] ring only
//! decides which shard's caches a key keeps hot.

use std::net::SocketAddr;

use crate::{build_store, ServeConfig, Server};

use super::replication::replicate_from;

/// How to start a fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (at least 1).
    pub shards: usize,
    /// Per-shard serve config. `addr` is the *base* address: port 0 gives
    /// every shard its own ephemeral port; a fixed port `p` puts shard `i`
    /// on `p + i`, and [`Fleet::start`] refuses a fleet whose last port
    /// would pass 65535.
    pub base: ServeConfig,
}

/// Shard `i`'s bind address: the base itself when its port is 0 (every
/// shard gets its own ephemeral port), else the base port plus `i`, which
/// must stay a valid port.
fn shard_addr(base: SocketAddr, i: usize) -> Result<SocketAddr, String> {
    if base.port() == 0 {
        return Ok(base);
    }
    let port = u128::from(base.port()) + i as u128;
    let port = u16::try_from(port)
        .map_err(|_| format!("shard {i} would bind port {port}, past the last port 65535"))?;
    let mut a = base;
    a.set_port(port);
    Ok(a)
}

/// A running fleet of shards.
pub struct Fleet {
    addrs: Vec<SocketAddr>,
    nodes: Vec<Option<Server>>,
}

impl Fleet {
    /// Seed shard 0, replicate into shards `1..n`, start them all.
    pub fn start(cfg: FleetConfig) -> Result<Fleet, String> {
        if cfg.shards == 0 {
            return Err("a fleet needs at least one shard".to_string());
        }
        let base_addr: SocketAddr = cfg
            .base
            .addr
            .parse()
            .map_err(|e| format!("bad fleet base address {}: {e}", cfg.base.addr))?;
        // The last shard has the highest port: checking it before any shard
        // starts checks them all.
        shard_addr(base_addr, cfg.shards - 1)?;

        let mut cfg0 = cfg.base.clone();
        cfg0.addr = shard_addr(base_addr, 0)?.to_string();
        let first = Server::start(cfg0)?;
        let donor = first.local_addr();

        let mut addrs = vec![donor];
        let mut nodes = vec![Some(first)];
        for i in 1..cfg.shards {
            let mut ci = cfg.base.clone();
            ci.addr = shard_addr(base_addr, i)?.to_string();
            // Replicas never tune or load files themselves; they pull the
            // donor's evidence over the wire.
            ci.snapshot = None;
            ci.tune_at_startup = false;
            let (stats, store) = build_store(&ci)?;
            let cells = replicate_from(donor, &store)
                .map_err(|e| format!("shard {i} warm replication: {e}"))?;
            if cells > 0 {
                // Same semantics as loading a warm-restart snapshot: the
                // shard starts hot and never tuned.
                stats.snapshot_loaded.set(1);
            }
            let node = Server::serve(&ci, stats, store)?;
            addrs.push(node.local_addr());
            nodes.push(Some(node));
        }
        Ok(Fleet { addrs, nodes })
    }

    /// Every shard's address, by shard ID (killed shards keep their slot —
    /// the ring's stability depends on stable numbering).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of shard slots (including killed ones).
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow a live shard's server.
    pub fn node(&self, shard: usize) -> Option<&Server> {
        self.nodes.get(shard).and_then(|n| n.as_ref())
    }

    /// Kill one shard (graceful drain, then join). Returns false when the
    /// shard was already gone. Keys it owned re-route clockwise on the
    /// clients' rings.
    pub fn kill_shard(&mut self, shard: usize) -> bool {
        match self.nodes.get_mut(shard).and_then(|n| n.take()) {
            Some(node) => {
                node.stop();
                node.join();
                true
            }
            None => false,
        }
    }

    /// Gracefully stop and join every remaining shard.
    pub fn join_all(mut self) {
        for node in self.nodes.iter_mut().filter_map(|n| n.take()) {
            node.stop();
            node.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ports_count_up_from_a_fixed_base() {
        let base: SocketAddr = "127.0.0.1:65534".parse().unwrap();
        assert_eq!(shard_addr(base, 0).unwrap(), base);
        assert_eq!(shard_addr(base, 1).unwrap().port(), 65535);
        assert_eq!(
            shard_addr(base, 2).unwrap_err(),
            "shard 2 would bind port 65536, past the last port 65535"
        );
    }

    #[test]
    fn an_ephemeral_base_gives_every_shard_port_zero() {
        let base: SocketAddr = "127.0.0.1:0".parse().unwrap();
        assert_eq!(shard_addr(base, 7).unwrap(), base);
    }
}
