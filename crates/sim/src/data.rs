//! Abstract dataflow payloads used to *verify* collective algorithms.
//!
//! Instead of moving real bytes, every buffer slot holds a [`Value`]: a map
//! from a logical block coordinate to the set of ranks whose contributions
//! that block currently contains.
//!
//! * Data-movement collectives (bcast/scatter/gather/allgather/alltoall) use
//!   blocks `(origin_rank, index)` whose contributor set is the singleton
//!   `{origin_rank}`.
//! * Reduction collectives use blocks `(0, segment)`; a partial reduction of
//!   segment `s` over ranks `{2,5}` is the entry `(0,s) → {2,5}`. Reducing
//!   two partials with overlapping contributor sets is a *double-count* and
//!   is reported as a dataflow error.
//!
//! After a tracked run, per-collective predicates (in `pap-collectives`)
//! assert the final values, e.g. "every rank's result block `(0,s)` contains
//! all `p` contributions exactly once" for Allreduce.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A set of ranks, stored as a bitset (supports up to a few thousand ranks).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankSet {
    words: Vec<u64>,
}

impl RankSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Singleton set `{rank}`.
    pub fn singleton(rank: usize) -> Self {
        std::iter::once(rank).collect()
    }

    /// Set `{0, 1, …, p-1}`.
    pub fn full(p: usize) -> Self {
        (0..p).collect()
    }

    /// Insert a rank. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, rank: usize) -> bool {
        let (w, b) = (rank / 64, rank % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Membership test.
    pub fn contains(&self, rank: usize) -> bool {
        let (w, b) = (rank / 64, rank % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// Number of ranks in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the set is exactly `{0..p}`.
    pub fn is_full(&self, p: usize) -> bool {
        self.len() == p && (0..p).all(|r| self.contains(r))
    }

    /// Whether the two sets share any rank.
    pub fn intersects(&self, other: &RankSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &RankSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| (0..64).filter(move |b| bits & (1 << b) != 0).map(move |b| w * 64 + b))
    }
}

impl FromIterator<usize> for RankSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = RankSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

/// Logical block coordinate: `(origin, index)` for data movement, `(0, seg)`
/// for reductions.
pub type BlockCoord = (u32, u32);

/// Selects a subset of a slot's blocks, for sends that transfer only part of
/// a buffer (segmented algorithms, reduce-scatter chunks, Bruck rounds).
///
/// Filters act on the *index* part of the coordinate (`coord.1`): the segment
/// for reductions, the destination rank for all-to-all blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockFilter {
    /// Keep every block.
    All,
    /// Keep blocks with `lo <= coord.1 < hi`.
    SegRange(u32, u32),
    /// Keep all-to-all blocks whose Bruck *position*
    /// `(dest - origin) mod modulo` (i.e. `(coord.1 - coord.0) mod modulo`)
    /// has `bit` set. A block's position is invariant while it is forwarded,
    /// which is exactly the Bruck round selection rule.
    OriginOffsetBit {
        /// Bit of the position that must be set.
        bit: u8,
        /// Ring size (the process count).
        modulo: u32,
    },
    /// Keep blocks whose selected coordinate, taken relative to `base` on a
    /// ring of `modulo`, falls in `[lo, hi)`: i.e.
    /// `(c + modulo - base) % modulo ∈ [lo, hi)` with `c = coord.0` when
    /// `on_origin` else `coord.1`. Used by Bruck/recursive-doubling
    /// allgather rounds (origin windows relative to the sender) and by
    /// binomial scatter (subtree index windows relative to the root).
    OffsetRange {
        /// Match on `coord.0` (origin) when true, else on `coord.1`.
        on_origin: bool,
        /// Ring base the offset is taken against.
        base: u32,
        /// Inclusive lower offset.
        lo: u32,
        /// Exclusive upper offset.
        hi: u32,
        /// Ring size.
        modulo: u32,
    },
}

impl BlockFilter {
    /// Whether `coord` passes the filter.
    #[inline]
    pub fn matches(&self, coord: BlockCoord) -> bool {
        match *self {
            BlockFilter::All => true,
            BlockFilter::SegRange(lo, hi) => coord.1 >= lo && coord.1 < hi,
            BlockFilter::OriginOffsetBit { bit, modulo } => {
                let off = (coord.1 + modulo - coord.0 % modulo) % modulo;
                off & (1 << bit) != 0
            }
            BlockFilter::OffsetRange { on_origin, base, lo, hi, modulo } => {
                let c = if on_origin { coord.0 } else { coord.1 };
                let off = (c % modulo + modulo - base % modulo) % modulo;
                off >= lo && off < hi
            }
        }
    }
}

/// Initial content of a slot: a `Copy` descriptor that the engine turns into
/// a payload ([`SlotInit::value`]) only when it tracks data, so timing-only
/// runs of 10K-rank schedules never allocate input payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotInit {
    /// No blocks.
    Empty,
    /// The reduction input of `rank`: segments `lo..hi`, each block
    /// `(0, s)` contributed by `{rank}`.
    Reduce {
        /// Contributing rank.
        rank: u32,
        /// First segment.
        lo: u32,
        /// One past the last segment.
        hi: u32,
    },
    /// Movement blocks `(origin, i)` for `i in lo..hi`, each owned by
    /// `{origin}`.
    Movement {
        /// Owning rank.
        origin: u32,
        /// First block index.
        lo: u32,
        /// One past the last block index.
        hi: u32,
    },
}

impl SlotInit {
    /// The input contribution of `rank` for reduction segments
    /// `seg_lo..seg_hi`: each segment maps to `{rank}`.
    pub fn reduce_input(rank: usize, seg_lo: u32, seg_hi: u32) -> Self {
        SlotInit::Reduce { rank: rank as u32, lo: seg_lo, hi: seg_hi }
    }

    /// A movement block `(origin, index)` owned by `origin`.
    pub fn movement_block(origin: usize, index: u32) -> Self {
        Self::movement_blocks(origin, index, index + 1)
    }

    /// Several movement blocks from one origin: indices `lo..hi`.
    pub fn movement_blocks(origin: usize, lo: u32, hi: u32) -> Self {
        SlotInit::Movement { origin: origin as u32, lo, hi }
    }

    /// Build the payload this descriptor stands for.
    pub fn value(self) -> Value {
        let (coord0, owner, lo, hi) = match self {
            SlotInit::Empty => return Value::empty(),
            SlotInit::Reduce { rank, lo, hi } => (0, rank, lo, hi),
            SlotInit::Movement { origin, lo, hi } => (origin, origin, lo, hi),
        };
        let owner = RankSet::singleton(owner as usize);
        Value::from_map((lo..hi).map(|i| ((coord0, i), owner.clone())).collect())
    }
}

/// Abstract content of one buffer slot.
///
/// The block map is `Arc`-backed copy-on-write: cloning a `Value` (payload
/// snapshots, slot copies) is a reference-count bump, and a deep copy happens
/// only when a shared value is mutated. This is what makes the engine's
/// tracked-data mode affordable — every send snapshots its payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Value {
    blocks: Arc<BTreeMap<BlockCoord, RankSet>>,
}

impl Value {
    /// Empty value.
    pub fn empty() -> Self {
        Self::default()
    }

    fn from_map(blocks: BTreeMap<BlockCoord, RankSet>) -> Self {
        Value { blocks: Arc::new(blocks) }
    }

    /// Mutable access to the block map, copying it first if shared.
    #[inline]
    fn blocks_mut(&mut self) -> &mut BTreeMap<BlockCoord, RankSet> {
        Arc::make_mut(&mut self.blocks)
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the value holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Contributor set of a block, if present.
    pub fn get(&self, coord: BlockCoord) -> Option<&RankSet> {
        self.blocks.get(&coord)
    }

    /// Insert/replace one block.
    pub fn set(&mut self, coord: BlockCoord, contribs: RankSet) {
        self.blocks_mut().insert(coord, contribs);
    }

    /// Iterate over `(coord, contributors)` in coordinate order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockCoord, &RankSet)> {
        self.blocks.iter().map(|(&c, s)| (c, s))
    }

    /// Reduction merge: union contributor sets per block; overlapping
    /// contributors for the same block are a double-count.
    ///
    /// Returns `Err` with a description on double-count; the merge still
    /// proceeds (so downstream checks see the union).
    pub fn reduce_from(&mut self, other: &Value) -> Result<(), String> {
        self.union_from(other, "double-counted contribution in block", "∩", RankSet::intersects)
    }

    /// Movement merge: union of block maps. A block arriving twice with the
    /// *same* contributors is idempotent; differing contributors are an
    /// error (two different things claiming the same coordinate).
    pub fn merge_from(&mut self, other: &Value) -> Result<(), String> {
        self.union_from(other, "conflicting content for block", "vs", |a, b| a != b)
    }

    /// Per-block union of `other` into `self`. The first block whose two
    /// contributor sets `clash` is reported as `"{what} {coord}: {a} {sep} {b}"`.
    fn union_from(
        &mut self,
        other: &Value,
        what: &str,
        sep: &str,
        clash: impl Fn(&RankSet, &RankSet) -> bool,
    ) -> Result<(), String> {
        if self.is_empty() {
            // Nothing to clash with: share the other side's map.
            self.blocks = Arc::clone(&other.blocks);
            return Ok(());
        }
        let mut err = None;
        let blocks = Arc::make_mut(&mut self.blocks);
        for (coord, set) in other.blocks.iter() {
            match blocks.get_mut(coord) {
                Some(existing) => {
                    if err.is_none() && clash(existing, set) {
                        let (a, b): (Vec<_>, Vec<_>) = (existing.iter().collect(), set.iter().collect());
                        err = Some(format!("{what} {coord:?}: {a:?} {sep} {b:?}"));
                    }
                    existing.union_with(set);
                }
                None => {
                    blocks.insert(*coord, set.clone());
                }
            }
        }
        err.map_or(Ok(()), Err)
    }

    /// Extract a sub-value containing only blocks with coordinates for which
    /// `pred` returns true (used by schedules that send a slice of a slot).
    pub fn filtered(&self, mut pred: impl FnMut(BlockCoord) -> bool) -> Value {
        Self::from_map(
            self.blocks
                .iter()
                .filter(|(&c, _)| pred(c))
                .map(|(&c, s)| (c, s.clone()))
                .collect(),
        )
    }

    /// Overwrite merge: replace/insert every block of `other` (no conflict
    /// checking). Used by allgather phases where complete blocks replace
    /// stale partials.
    pub fn overwrite_from(&mut self, other: &Value) {
        if self.is_empty() {
            self.blocks = Arc::clone(&other.blocks);
            return;
        }
        let blocks = Arc::make_mut(&mut self.blocks);
        for (coord, set) in other.blocks.iter() {
            blocks.insert(*coord, set.clone());
        }
    }

    /// Remove every block matching `filter` (e.g. blocks just forwarded in a
    /// Bruck round).
    pub fn drop_matching(&mut self, filter: BlockFilter) {
        if self.blocks.keys().any(|&c| filter.matches(c)) {
            self.blocks_mut().retain(|&c, _| !filter.matches(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rankset_basics() {
        let mut s = RankSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(130));
        assert!(s.contains(5));
        assert!(s.contains(130));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 130]);
    }

    #[test]
    fn rankset_full_and_union() {
        let f = RankSet::full(100);
        assert!(f.is_full(100));
        assert!(!f.is_full(101));
        let mut a = RankSet::singleton(1);
        let b = RankSet::singleton(99);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.contains(99));
        assert!(a.intersects(&b));
    }

    #[test]
    fn rankset_from_iterator() {
        let s: RankSet = [3usize, 1, 4, 1, 5].into_iter().collect();
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
    }

    #[test]
    fn reduce_merge_unions_contributions() {
        let mut a = SlotInit::reduce_input(0, 0, 4).value();
        let b = SlotInit::reduce_input(1, 0, 4).value();
        a.reduce_from(&b).unwrap();
        for s in 0..4 {
            assert!(a.get((0, s)).unwrap().is_full(2));
        }
    }

    #[test]
    fn reduce_merge_detects_double_count() {
        let mut a = SlotInit::reduce_input(0, 0, 1).value();
        let b = SlotInit::reduce_input(0, 0, 1).value();
        assert!(a.reduce_from(&b).is_err());
    }

    #[test]
    fn movement_merge_detects_conflicts_and_idempotence() {
        let mut a = SlotInit::movement_block(0, 3).value();
        // Same block again: fine.
        a.merge_from(&SlotInit::movement_block(0, 3).value()).unwrap();
        // A block claiming the same coordinate with other contributors: error.
        let mut rogue = Value::empty();
        rogue.set((0, 3), RankSet::singleton(7));
        assert!(a.merge_from(&rogue).is_err());
    }

    #[test]
    fn filtered_selects_blocks() {
        let v = SlotInit::movement_blocks(2, 0, 10).value();
        let f = v.filtered(|(_, i)| i < 3);
        assert_eq!(f.len(), 3);
        assert!(f.get((2, 2)).is_some());
        assert!(f.get((2, 3)).is_none());
    }

    #[test]
    fn block_filters_select_expected_coords() {
        assert!(BlockFilter::All.matches((3, 9)));
        let r = BlockFilter::SegRange(2, 5);
        assert!(r.matches((0, 2)) && r.matches((0, 4)));
        assert!(!r.matches((0, 5)) && !r.matches((0, 1)));
        // Origin-offset bit: block (origin 3, dest 4) has position 1 in a
        // ring of 8; position is invariant under forwarding.
        let f = BlockFilter::OriginOffsetBit { bit: 0, modulo: 8 };
        assert!(f.matches((3, 4))); // position 1, bit0 set
        assert!(!f.matches((3, 5))); // position 2
        assert!(f.matches((3, 6))); // position 3
        assert!(!f.matches((3, 3))); // position 0
        assert!(f.matches((7, 0))); // wrap-around: position 1
        let f1 = BlockFilter::OriginOffsetBit { bit: 1, modulo: 8 };
        assert!(f1.matches((3, 5))); // position 2
        assert!(!f1.matches((3, 4))); // position 1
        // Offset range on origin: base 6, ring 8, window [0, 3) → origins 6,7,0.
        let fr = BlockFilter::OffsetRange { on_origin: true, base: 6, lo: 0, hi: 3, modulo: 8 };
        assert!(fr.matches((6, 0)) && fr.matches((7, 0)) && fr.matches((0, 0)));
        assert!(!fr.matches((1, 0)) && !fr.matches((5, 0)));
        // Same window on the index coordinate.
        let fi = BlockFilter::OffsetRange { on_origin: false, base: 2, lo: 1, hi: 2, modulo: 4 };
        assert!(fi.matches((9, 3)));
        assert!(!fi.matches((9, 2)) && !fi.matches((9, 0)));
    }

    #[test]
    fn overwrite_and_drop() {
        let mut v = SlotInit::movement_blocks(0, 0, 4).value();
        let mut repl = Value::empty();
        repl.set((0, 1), RankSet::singleton(9));
        v.overwrite_from(&repl);
        assert!(v.get((0, 1)).unwrap().contains(9));
        v.drop_matching(BlockFilter::SegRange(0, 2));
        assert_eq!(v.len(), 2);
        assert!(v.get((0, 2)).is_some() && v.get((0, 0)).is_none());
    }

    /// Reference construction: one `set` per block, each with its own
    /// singleton contributor set.
    fn eager(coord0: u32, owner: usize, lo: u32, hi: u32) -> Value {
        let mut v = Value::empty();
        (lo..hi).for_each(|i| v.set((coord0, i), RankSet::singleton(owner)));
        v
    }

    #[test]
    fn slot_init_matches_eager_construction() {
        // 63/64 straddle a bitset word boundary; 10239 is the top rank of
        // the 10K-rank benchmark jobs. `lo == hi` builds an empty value.
        for rank in [0usize, 63, 64, 130, 10239] {
            let r = rank as u32;
            assert_eq!(SlotInit::reduce_input(rank, 0, 128).value(), eager(0, rank, 0, 128));
            assert_eq!(SlotInit::reduce_input(rank, 5, 9).value(), eager(0, rank, 5, 9));
            assert_eq!(SlotInit::movement_block(rank, r).value(), eager(r, rank, r, r + 1));
            assert_eq!(SlotInit::movement_blocks(rank, 0, 130).value(), eager(r, rank, 0, 130));
            assert!(SlotInit::reduce_input(rank, 7, 7).value().is_empty());
            assert!(SlotInit::movement_blocks(rank, 3, 3).value().is_empty());
        }
        assert_eq!(SlotInit::Empty.value(), Value::empty());
    }

    #[test]
    fn reduce_input_spans_segments() {
        let v = SlotInit::reduce_input(3, 2, 5).value();
        assert_eq!(v.len(), 3);
        assert!(v.get((0, 2)).unwrap().contains(3));
        assert!(v.get((0, 1)).is_none());
    }
}
