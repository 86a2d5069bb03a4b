//! Reusable per-query search state for the spatiotemporal A* hot path.
//!
//! [`SearchScratch`] is the arena behind [`crate::astar::plan_path_into`]:
//! every buffer the search needs lives here and is recycled across queries,
//! so a warmed-up planner performs **zero heap allocations per query**.
//!
//! # Design
//!
//! * **A state table keyed by region slot.** A search state is a
//!   `(cell, dt)` pair with `dt = tick - start_tick`, keyed inside a
//!   per-query *search region* (see `astar.rs`) by how late it is:
//!   `slot = (dt - manhattan(start, cell)) * region_cells + region_cell`.
//!   A `StateTable` records, per discovered slot, the 3-bit action that
//!   reached it. Two tables implement it, and the search loop is
//!   monomorphised over each:
//!   - `StampTable`, dense and wavefront-major. Plane 0 holds every
//!     on-time state, so an uncongested search stays in the first plane or
//!     two and spatial neighbours share cache lines
//!     (docs/adr/ADR-004-wavefront-major-arena.md). A slot's stamp word is
//!     `generation << 3 | action`: which query last discovered it, and
//!     how. Bumping `generation` invalidates every slot at once — the table
//!     is never cleared between queries, and it grows with headroom.
//!   - A `HashMap` from the same slot to the same action, for regions whose
//!     dense table would exceed [`crate::astar::DENSE_TABLE_CAP`] slots.
//!     The keys and answers are the dense table's, so the search expands
//!     the same states in the same order with either
//!     (docs/adr/ADR-017-one-search-loop.md); only the cost per state
//!     differs.
//! * **Bucketed open list.** Unit edge costs and a consistent heuristic
//!   mean a popped state with f-value `f` only ever generates successors
//!   with `f`, `f+1` or `f+2`. Where the Manhattan distance is the
//!   heuristic's larger term these are the toward-goal move, the wait and
//!   the away-from-goal move; where a parking goal's far clearance is (the
//!   plateau described in `astar.rs`) a wait is `+0`, and so is every move
//!   that leaves enough ticks to reach the goal by then. The open list is
//!   therefore a `Dial`: bucket `f - h0` holds the open states of one
//!   f-value and a monotone head pointer replaces a binary heap's
//!   `O(log n)` sift with an `O(1)` push/pop. Within a bucket, states pop
//!   LIFO, greedily following the most recently discovered state — a
//!   depth-first tie-break; equal `f` guarantees equal final cost, only
//!   expansion order depends on it.
//! * **Discovery dedupes.** A `(cell, dt)` state has cost exactly `dt` on
//!   *every* path that reaches it (each expansion advances one tick), so
//!   the first discovery is as good as any other: recording at discovery
//!   both dedupes the open list and makes a `closed` set unnecessary.

use std::collections::hash_map::{Entry, HashMap};
use tprw_warehouse::GridPos;

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

/// Where a search records the states it has discovered, by region slot
/// (`Region::slot`), and the reach-action of each.
pub(crate) trait StateTable {
    /// Record `slot` as reached via `action` and return `true`, or return
    /// `false` and change nothing if this query already discovered it.
    fn discover(&mut self, slot: usize, action: u32) -> bool;
    /// The reach-action a discovered `slot` was recorded with.
    fn action(&self, slot: usize) -> u32;
}

/// The dense state table: one `generation << ACTION_BITS | action` stamp
/// word per region slot.
#[derive(Debug, Default)]
pub(crate) struct StampTable {
    /// Current query generation (see [`Self::discovered`]).
    generation: u32,
    stamp: Vec<u32>,
}

impl StampTable {
    /// Begin a query needing `slots` entries: bumps the generation and
    /// grows the table if this query is the largest yet.
    pub(crate) fn begin(&mut self, slots: usize) {
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
    fn discovered(&self, slot: usize) -> bool {
        self.stamp[slot] >> ACTION_BITS == self.generation
    }
}

impl StateTable for StampTable {
    #[inline]
    fn discover(&mut self, slot: usize, action: u32) -> bool {
        if self.discovered(slot) {
            return false;
        }
        self.stamp[slot] = self.generation << ACTION_BITS | action;
        true
    }

    #[inline]
    fn action(&self, slot: usize) -> u32 {
        self.stamp[slot] & ((1 << ACTION_BITS) - 1)
    }
}

/// The table for regions over [`crate::astar::DENSE_TABLE_CAP`]: cleared
/// per query, one entry per discovered state.
impl StateTable for HashMap<usize, u8> {
    #[inline]
    fn discover(&mut self, slot: usize, action: u32) -> bool {
        match self.entry(slot) {
            Entry::Vacant(entry) => {
                entry.insert(action as u8);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    #[inline]
    fn action(&self, slot: usize) -> u32 {
        u32::from(self[&slot])
    }
}

/// The open list: LIFO buckets keyed by `f - h0`, popped from a monotone
/// head. A query pushes its root before its first pop and calls
/// [`Self::clear`] when it ends.
#[derive(Debug, Default)]
pub(crate) struct Dial {
    buckets: Vec<Vec<OpenEntry>>,
    /// The lowest bucket that may be non-empty.
    head: usize,
    /// The highest bucket pushed to since the last clear.
    hi: usize,
}

impl Dial {
    #[inline]
    pub(crate) fn push(&mut self, bucket: usize, entry: OpenEntry) {
        if self.buckets.len() <= bucket {
            self.buckets.resize_with(bucket + 1, Vec::new);
        }
        self.buckets[bucket].push(entry);
        self.hi = self.hi.max(bucket);
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<OpenEntry> {
        while self.head <= self.hi {
            if let Some(entry) = self.buckets[self.head].pop() {
                return Some(entry);
            }
            self.head += 1;
        }
        None
    }

    /// Empty the buckets this query touched; capacities stay for the next.
    pub(crate) fn clear(&mut self) {
        for bucket in self.buckets.iter_mut().take(self.hi + 1) {
            bucket.clear();
        }
        self.head = 0;
        self.hi = 0;
    }
}

/// Reusable buffers for [`crate::astar::plan_path_into`]. Construct once per
/// planner (or thread) and pass to every query; buffers grow to the largest
/// query seen and are then recycled allocation-free.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// State table of regions up to [`crate::astar::DENSE_TABLE_CAP`] slots.
    pub(crate) stamps: StampTable,
    /// State table of larger regions.
    pub(crate) hashed: HashMap<usize, u8>,
    pub(crate) open: Dial,
    /// Spliced tail assembly buffer (cache-aided planning).
    pub(crate) splice_buf: Vec<GridPos>,
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

    /// Entries the dense table holds (0 before the first dense query); a
    /// change between two queries is an arena re-allocation.
    pub fn dense_slots(&self) -> usize {
        self.stamps.stamp.len()
    }

    /// Sum of the capacities of every internal buffer, in elements. Stable
    /// across queries once warmed up — asserted by the no-allocation tests.
    pub fn capacity_signature(&self) -> usize {
        self.stamps.stamp.capacity()
            + self.open.buckets.capacity()
            + self.open.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.splice_buf.capacity()
            + self.hashed.capacity()
    }

    /// Approximate heap bytes currently held by the scratch buffers.
    pub fn memory_bytes(&self) -> usize {
        self.stamps.stamp.capacity() * std::mem::size_of::<u32>()
            + self
                .open
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<OpenEntry>())
                .sum::<usize>()
            + self.splice_buf.capacity() * std::mem::size_of::<GridPos>()
            + self.hashed.capacity()
                * (std::mem::size_of::<(usize, u8)>() + crate::footprint::HASH_ENTRY_OVERHEAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_invalidate_without_clearing() {
        let mut s = StampTable::default();
        s.begin(16);
        assert!(s.discover(3, ACTION_WAIT));
        assert!(s.discovered(3));
        assert!(!s.discover(3, ACTION_ROOT), "a second discovery is refused");
        assert_eq!(s.action(3), ACTION_WAIT);
        s.begin(16);
        assert!(!s.discovered(3), "old stamps must not read as live");
    }

    #[test]
    fn stamp_words_decode_the_action_they_were_pushed_with() {
        let mut s = StampTable::default();
        let mut hashed = HashMap::new();
        let actions = ACTION_ROOT..ACTION_MOVE_BASE + 4;
        for generation in [1, 2, GENERATION_MAX] {
            s.begin(8);
            s.generation = generation;
            hashed.clear();
            for action in actions.clone() {
                assert!(s.discover(action as usize, action));
                assert!(hashed.discover(action as usize, action));
            }
            for action in actions.clone() {
                assert!(s.discovered(action as usize));
                assert_eq!(s.action(action as usize), action);
                assert_eq!(hashed.action(action as usize), action);
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
        s.stamps.begin(8);
        assert!(s.dense_slots() >= 8);
        s.stamps.begin(4);
        assert!(s.dense_slots() >= 8, "smaller queries keep the big table");
        s.stamps.begin(32);
        assert!(s.dense_slots() >= 32);
        let signature = s.capacity_signature();
        s.stamps.begin(36);
        assert_eq!(s.capacity_signature(), signature, "within the headroom");
    }

    #[test]
    fn stamp_wrap_resets_tables() {
        let mut s = StampTable::default();
        s.begin(4);
        s.generation = GENERATION_MAX;
        s.discover(0, ACTION_WAIT);
        assert!(s.discovered(0));
        s.begin(4);
        assert_eq!(s.generation, 1, "generation restarts after wrap");
        assert_eq!(s.stamp[0], 0, "stale stamps cleared on wrap");
    }

    #[test]
    fn capacity_signature_counts_buckets() {
        let mut s = SearchScratch::new();
        let before = s.capacity_signature();
        s.open.push(7, (1, 2));
        assert!(s.capacity_signature() > before);
        assert!(s.memory_bytes() > 0);
        let (signature, bytes) = (s.capacity_signature(), s.memory_bytes());
        s.hashed.discover(5, ACTION_ROOT);
        assert!(s.capacity_signature() > signature, "the hash table counts");
        assert!(s.memory_bytes() > bytes);
    }

    #[test]
    fn dial_pops_lowest_bucket_last_in_first() {
        let mut dial = Dial::default();
        dial.push(0, (1, 0));
        dial.push(2, (2, 1));
        dial.push(0, (3, 1));
        dial.push(1, (4, 1));
        let popped: Vec<u32> = std::iter::from_fn(|| dial.pop()).map(|e| e.0).collect();
        assert_eq!(popped, [3, 1, 4, 2]);
        dial.push(4, (5, 2));
        dial.clear();
        assert_eq!(dial.pop(), None, "clear empties every touched bucket");
    }
}
