//! Warm replication: drain a peer's L2 evidence over the wire.
//!
//! A booting shard connects to a donor, pages through its L2 store with
//! [`Request::Replicate`](crate::Request::Replicate) frames, and
//! ingests each validated page. The donor serves pages from the same
//! stable export order (`TierStore::export_cells`), so a full drain over
//! an unchanging store sees every cell exactly once. The shard then
//! starts *hot*: its first query answers from L2 with no startup tuning
//! sweep — the same effect as loading a warm-restart snapshot, minus the
//! file.

use std::net::SocketAddr;

use crate::{Client, TierStore, REPLICA_PAGE_MAX};

/// Drain the donor's full L2 into `store`, page by page. Returns the
/// number of cells ingested. Fault evidence rides along with each cell, so
/// a fault-robust replica serves degraded-mode queries without
/// re-measuring either.
pub(crate) fn replicate_from(donor: SocketAddr, store: &TierStore) -> Result<usize, String> {
    let mut client = Client::connect(donor).map_err(|e| format!("replicate from {donor}: {e}"))?;
    let mut offset = 0;
    let mut ingested = 0;
    loop {
        let dump = client
            .replicate(offset, REPLICA_PAGE_MAX)
            .map_err(|e| format!("replicate from {donor} at offset {offset}: {e}"))?;
        if dump.cells.is_empty() {
            break;
        }
        ingested += store.ingest_replica(&dump.cells)?;
        offset += dump.cells.len();
        if offset >= dump.total {
            break;
        }
    }
    Ok(ingested)
}
