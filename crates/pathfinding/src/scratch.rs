//! Reusable per-query search state for the spatiotemporal A* hot path.
//!
//! [`SearchScratch`] is the arena behind [`crate::astar::plan_path_into`]:
//! every buffer the search needs lives here and is recycled across queries,
//! so a warmed-up planner performs **zero heap allocations per query**.
//!
//! # Design
//!
//! * **One dense stamped table, wavefront-major.** A search state is a
//!   `(cell, dt)` pair with `dt = tick - start_tick`, keyed inside a
//!   per-query *search region* (see `astar.rs`) by how late it is:
//!   `slot = (dt - manhattan(start, cell)) * region_cells + region_cell`.
//!   Plane 0 holds every on-time state, so an uncongested search stays in
//!   the first plane or two and spatial neighbours share cache lines
//!   (docs/adr/ADR-004-wavefront-major-arena.md). A slot's `stamp` word is
//!   `generation << 3 | action`: which query last discovered it, and how.
//!   Bumping `generation` invalidates every slot at once — the table is
//!   never cleared between queries, and it grows with headroom.
//! * **Bucketed open list.** Unit edge costs and a consistent heuristic
//!   mean a popped state with f-value `f` only ever generates successors
//!   with `f`, `f+1` or `f+2`. Where the Manhattan distance is the
//!   heuristic's larger term these are the toward-goal move, the wait and
//!   the away-from-goal move; where a parking goal's far clearance is (the
//!   plateau described in `astar.rs`) a wait is `+0`, and so is every move
//!   that leaves enough ticks to reach the goal by then. The open list is
//!   therefore a dial: `buckets[f - h0]` holds the open states of one
//!   f-value and a monotone head pointer replaces the binary heap's
//!   `O(log n)` sift with an `O(1)` push/pop. Within a bucket, states pop
//!   LIFO, greedily following the most recently discovered state — a
//!   depth-first tie-break similar in spirit to (but not identical with)
//!   the old `(f, h, ...)` tuple ordering; equal `f` guarantees equal
//!   final cost either way, only expansion order differs.
//! * **Generation stamps vs. duplicates.** A `(cell, dt)` state has cost
//!   exactly `dt` on *every* path that reaches it (each expansion advances
//!   one tick), so the first discovery is as good as any other: stamping at
//!   discovery both dedupes the open list and makes a `closed` set
//!   unnecessary.
//! * **Sparse fallback.** Queries whose dense table would exceed
//!   [`crate::astar::DENSE_TABLE_CAP`] slots (astronomical horizon/slack
//!   combinations on huge grids) fall back to a hash-keyed search that
//!   reuses the `sparse_*` buffers below. Its `u64` key is
//!   `dt * cell_count + cell_index` — collision-free, unlike the seed
//!   implementation's `(t << 24) | cell_index` packing which aliased states
//!   on grids with ≥ 2²⁴ cells.

use std::collections::HashMap;

/// Open-list entry: grid cell index + tick offset from the query start.
pub(crate) type OpenEntry = (u32, u32);

/// Reach-action codes, the low [`ACTION_BITS`] of a stamp word (0 only in
/// never-stamped slots).
pub(crate) const ACTION_ROOT: u32 = 1;
pub(crate) const ACTION_WAIT: u32 = 2;
/// `ACTION_MOVE_BASE + Direction as u32` (4 directions).
pub(crate) const ACTION_MOVE_BASE: u32 = 3;
const ACTION_BITS: u32 = 3;
/// Last generation a stamp word can hold above its action bits.
const GENERATION_MAX: u32 = u32::MAX >> ACTION_BITS;

/// Reusable buffers for [`crate::astar::plan_path_into`]. Construct once per
/// planner (or thread) and pass to every query; buffers grow to the largest
/// query seen and are then recycled allocation-free.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Current query generation (see [`Self::discovered`]).
    generation: u32,
    /// `generation << ACTION_BITS | action` per dense state slot.
    stamp: Vec<u32>,
    /// Dial buckets keyed by `f - h0`.
    pub(crate) buckets: Vec<Vec<OpenEntry>>,
    /// Spliced tail assembly buffer (cache-aided planning).
    pub(crate) splice_buf: Vec<tprw_warehouse::GridPos>,
    /// Sparse fallback: `state_key -> parent_key` (doubles as visited set).
    pub(crate) sparse_parent: HashMap<u64, u64>,
    /// Sparse fallback open list.
    pub(crate) sparse_open: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32, u64)>>,
    /// States the most recent query expanded (see [`Self::last_expansions`]).
    pub(crate) last_expansions: usize,
}

impl SearchScratch {
    /// Fresh, empty scratch (no buffers allocated yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// States expanded by the most recent query through this scratch,
    /// whether it found a path or not (0 when it was refused before the
    /// search started). A failed query returns `None`, so this is the only
    /// place its cost can be read.
    pub fn last_expansions(&self) -> usize {
        self.last_expansions
    }

    /// Begin a query needing `slots` dense table entries: bumps the
    /// generation and grows the table if this query is the largest yet.
    pub(crate) fn begin_dense(&mut self, slots: usize) {
        if self.stamp.len() < slots {
            // A fresh zeroed allocation rather than `resize`: `vec![0; n]`
            // lowers to `alloc_zeroed`, whose untouched pages the OS maps
            // lazily — resident memory tracks states actually visited, not
            // the nominal table size. Old contents need no copy because the
            // generation bump below invalidates every slot anyway. Headroom,
            // because `slots` creeps up with the query's distance and each
            // re-allocation faults every visited page in again.
            self.stamp = vec![0; slots + slots / 4];
            self.generation = 0;
        }
        if self.generation == GENERATION_MAX {
            // Stamp wrap: reset the table once every 2²⁹ queries.
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Whether the current query has discovered `slot`.
    #[inline]
    pub(crate) fn discovered(&self, slot: usize) -> bool {
        self.stamp[slot] >> ACTION_BITS == self.generation
    }

    /// Mark `slot` discovered by the current query, reached via `action`.
    #[inline]
    pub(crate) fn discover(&mut self, slot: usize, action: u32) {
        self.stamp[slot] = self.generation << ACTION_BITS | action;
    }

    /// The reach-action a discovered `slot` was marked with.
    #[inline]
    pub(crate) fn action(&self, slot: usize) -> u32 {
        self.stamp[slot] & ((1 << ACTION_BITS) - 1)
    }

    /// Entries the dense table holds (0 before the first dense query); a
    /// change between two queries is an arena re-allocation.
    pub fn dense_slots(&self) -> usize {
        self.stamp.len()
    }

    /// Make buckets `0..=idx` available, allocating only on first growth.
    #[inline]
    pub(crate) fn ensure_bucket(&mut self, idx: usize) {
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
    }

    /// Sum of the capacities of every internal buffer, in elements. Stable
    /// across queries once warmed up — asserted by the no-allocation tests.
    pub fn capacity_signature(&self) -> usize {
        self.stamp.capacity()
            + self.buckets.capacity()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.splice_buf.capacity()
            + self.sparse_parent.capacity()
            + self.sparse_open.capacity()
    }

    /// Approximate heap bytes currently held by the scratch buffers.
    pub fn memory_bytes(&self) -> usize {
        self.stamp.capacity() * std::mem::size_of::<u32>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<OpenEntry>())
                .sum::<usize>()
            + self.splice_buf.capacity() * std::mem::size_of::<tprw_warehouse::GridPos>()
            + self.sparse_parent.capacity()
                * (std::mem::size_of::<(u64, u64)>() + crate::footprint::HASH_ENTRY_OVERHEAD)
            + self.sparse_open.capacity() * std::mem::size_of::<(u64, u64, u32, u64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_invalidate_without_clearing() {
        let mut s = SearchScratch::new();
        s.begin_dense(16);
        s.discover(3, ACTION_WAIT);
        assert!(s.discovered(3));
        s.begin_dense(16);
        assert!(!s.discovered(3), "old stamps must not read as live");
    }

    #[test]
    fn stamp_words_decode_the_action_they_were_pushed_with() {
        let mut s = SearchScratch::new();
        let actions = ACTION_ROOT..ACTION_MOVE_BASE + 4;
        for generation in [1, 2, GENERATION_MAX] {
            s.begin_dense(8);
            s.generation = generation;
            for action in actions.clone() {
                s.discover(action as usize, action);
            }
            for action in actions.clone() {
                assert!(s.discovered(action as usize));
                assert_eq!(s.action(action as usize), action);
            }
            assert!(
                !s.discovered(0),
                "never-pushed slot, generation {generation}"
            );
        }
    }

    #[test]
    fn tables_grow_monotonically() {
        let mut s = SearchScratch::new();
        s.begin_dense(8);
        assert!(s.stamp.len() >= 8);
        s.begin_dense(4);
        assert!(s.stamp.len() >= 8, "smaller queries keep the big table");
        s.begin_dense(32);
        assert!(s.stamp.len() >= 32);
        let signature = s.capacity_signature();
        s.begin_dense(36);
        assert_eq!(s.capacity_signature(), signature, "within the headroom");
    }

    #[test]
    fn stamp_wrap_resets_tables() {
        let mut s = SearchScratch::new();
        s.begin_dense(4);
        s.generation = GENERATION_MAX;
        s.discover(0, ACTION_WAIT);
        assert!(s.discovered(0));
        s.begin_dense(4);
        assert_eq!(s.generation, 1, "generation restarts after wrap");
        assert_eq!(s.stamp[0], 0, "stale stamps cleared on wrap");
    }

    #[test]
    fn capacity_signature_counts_buckets() {
        let mut s = SearchScratch::new();
        let before = s.capacity_signature();
        s.ensure_bucket(7);
        s.buckets[7].push((1, 2));
        assert!(s.capacity_signature() > before);
        assert!(s.memory_bytes() > 0);
    }
}
