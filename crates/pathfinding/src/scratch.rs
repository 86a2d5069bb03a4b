//! Reusable per-query search state for the spatiotemporal A* hot path.
//!
//! [`SearchScratch`] is the arena behind [`crate::astar::plan_path_into`]:
//! every buffer the search needs lives here and is recycled across queries,
//! so a warmed-up planner performs **zero heap allocations per query**.
//!
//! # Design
//!
//! * **One state table keyed by region slot, in two tiers.** A search state
//!   is a `(cell, dt)` pair with `dt = tick - start_tick`, keyed inside a
//!   per-query *search region* (see `astar.rs`) by how late it is:
//!   `slot = (dt - manhattan(start, cell)) * region_cells + region_cell`.
//!   The `StateTable` records, per discovered slot, the 3-bit action that
//!   reached it, in the tier the slot falls in:
//!   - the *band*, one stamp word per slot of the first `BAND_PLANES` (4)
//!     delay planes. Plane 0 holds every on-time state, and an expansion
//!     at delay 0 or 1 discovers only into planes 0–3, so the band takes
//!     95–99 % of a paper-scale search's states, and spatial neighbours
//!     share cache lines (docs/adr/ADR-004-wavefront-major-arena.md).
//!     A stamp word is `generation << 3 | action`: which query last
//!     discovered the slot, and how. Bumping `generation` invalidates every
//!     slot at once, so the band is never cleared between queries. It grows
//!     only when a larger region arrives;
//!   - the *deep map*, a `HashMap` from the same slot to the same action,
//!     for every state delayed past the band. A query clears it first if
//!     the one before left entries.
//!
//!   The tiers answer alike, so a search expands the same states in the
//!   same order as over one dense table of every plane. Such a table is
//!   `region cells × window` words, tens of MB at paper scale, whose deep
//!   planes a search touches once and leaves resident
//!   (docs/adr/ADR-029-banded-state-table.md).
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
/// Delay planes the dense band holds; deeper states go to the deep map.
const BAND_PLANES: usize = 4;

/// Where a search records the states it has discovered, by region slot
/// (`Region::slot`), and the reach-action of each: stamp words for the
/// slots below `dense`, a map for the rest.
#[derive(Debug, Default)]
pub(crate) struct StateTable {
    /// Current query generation: a band word is live iff it carries it.
    generation: u32,
    band: Vec<u32>,
    /// This query's band size; slots from here on live in `deep`.
    dense: usize,
    pub(crate) deep: HashMap<usize, u8>,
}

impl StateTable {
    /// Begin a query over a region of `cells` cells and `window` delay
    /// planes: bumps the generation, grows the band if this region is the
    /// largest yet, and empties the deep map.
    pub(crate) fn begin(&mut self, cells: usize, window: u64) {
        self.dense = cells * window.min(BAND_PLANES as u64) as usize;
        if self.band.len() < self.dense {
            // A fresh zeroed allocation rather than `resize`: old contents
            // need no copy because the generation bump below invalidates
            // every slot anyway.
            self.band = vec![0; self.dense];
            self.generation = 0;
        }
        if self.generation == GENERATION_MAX {
            // Stamp wrap: reset the band once every 2²⁹ queries.
            self.band.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        // `clear` walks the whole capacity, so skip it when there is
        // nothing to drop.
        if !self.deep.is_empty() {
            self.deep.clear();
        }
    }

    /// Record `slot` as reached via `action` and return `true`, or return
    /// `false` and change nothing if this query already discovered it.
    #[inline]
    pub(crate) fn discover(&mut self, slot: usize, action: u32) -> bool {
        if slot < self.dense {
            let word = &mut self.band[slot];
            if *word >> ACTION_BITS == self.generation {
                return false;
            }
            *word = self.generation << ACTION_BITS | action;
            return true;
        }
        match self.deep.entry(slot) {
            Entry::Vacant(entry) => {
                entry.insert(action as u8);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// The reach-action a discovered `slot` was recorded with.
    #[inline]
    pub(crate) fn action(&self, slot: usize) -> u32 {
        if slot < self.dense {
            self.band[slot] & ((1 << ACTION_BITS) - 1)
        } else {
            u32::from(self.deep[&slot])
        }
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

    /// Heap bytes the buckets hold, each at its capacity.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Vec<OpenEntry>>()
            + (self.buckets.iter())
                .map(|b| b.capacity() * std::mem::size_of::<OpenEntry>())
                .sum::<usize>()
    }
}

/// Reusable buffers for [`crate::astar::plan_path_into`]. Construct once per
/// planner (or thread) and pass to every query; buffers grow to the largest
/// query seen and are then recycled allocation-free.
#[derive(Debug, Default)]
pub struct SearchScratch {
    pub(crate) table: StateTable,
    pub(crate) open: Dial,
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

    /// Stamp words the dense band holds (0 before the first query); a
    /// change between two queries is a band re-allocation.
    pub fn dense_slots(&self) -> usize {
        self.table.band.len()
    }

    /// Sum of the capacities of every internal buffer, in elements. Stable
    /// across queries once warmed up — asserted by the no-allocation tests.
    pub fn capacity_signature(&self) -> usize {
        self.table.band.capacity()
            + self.table.deep.capacity()
            + self.open.buckets.capacity()
            + self.open.buckets.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Heap bytes held by the scratch buffers: the band, the deep map and
    /// the dial, each at its capacity.
    pub fn memory_bytes(&self) -> usize {
        self.table.band.capacity() * std::mem::size_of::<u32>()
            + self.table.deep.capacity()
                * (std::mem::size_of::<(usize, u8)>() + crate::footprint::HASH_ENTRY_OVERHEAD)
            + self.open.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A table begun on a region of `cells` cells and 16 planes.
    fn begun(cells: usize) -> StateTable {
        let mut s = StateTable::default();
        s.begin(cells, 16);
        s
    }

    #[test]
    fn generations_invalidate_without_clearing() {
        let mut s = begun(4);
        assert!(s.discover(3, ACTION_WAIT));
        assert!(!s.discover(3, ACTION_ROOT), "a second discovery is refused");
        assert_eq!(s.action(3), ACTION_WAIT);
        s.begin(4, 16);
        assert!(
            s.discover(3, ACTION_ROOT),
            "old stamps must not read as live"
        );
    }

    #[test]
    fn stamp_words_decode_the_action_they_were_pushed_with() {
        // Slots 1..=6 are band words on a 2-cell region (band 8 slots), and
        // slots 9..=14 deep-map entries: both tiers decode alike.
        let mut s = begun(2);
        let actions = ACTION_ROOT..ACTION_MOVE_BASE + 4;
        for generation in [1, 2, GENERATION_MAX] {
            s.begin(2, 16);
            s.generation = generation;
            for action in actions.clone() {
                for slot in [action as usize, action as usize + 8] {
                    assert!(s.discover(slot, action), "slot {slot}");
                }
            }
            for action in actions.clone() {
                assert_eq!(s.action(action as usize), action);
                assert_eq!(s.action(action as usize + 8), action);
            }
            assert!(
                s.discover(0, ACTION_ROOT) && s.discover(8, ACTION_ROOT),
                "never-pushed slots, generation {generation}"
            );
        }
    }

    #[test]
    fn tables_grow_monotonically() {
        let mut s = SearchScratch::new();
        s.table.begin(2, 16);
        assert_eq!(s.dense_slots(), 2 * BAND_PLANES, "the band, not the window");
        s.table.begin(1, 16);
        assert_eq!(s.dense_slots(), 8, "smaller regions keep the big band");
        s.table.begin(8, 2);
        assert_eq!(s.dense_slots(), 16, "a two-plane window needs two planes");
        let signature = s.capacity_signature();
        s.table.begin(3, 100);
        assert_eq!(s.capacity_signature(), signature, "a smaller band fits");
        s.table.begin(5, 100);
        assert_eq!(s.dense_slots(), 20);
    }

    #[test]
    fn stamp_wrap_resets_tables() {
        let mut s = begun(1);
        s.generation = GENERATION_MAX;
        s.discover(0, ACTION_WAIT);
        s.begin(1, 16);
        assert_eq!(s.generation, 1, "generation restarts after wrap");
        assert_eq!(s.band[0], 0, "stale stamps cleared on wrap");
    }

    #[test]
    fn capacity_signature_counts_buckets() {
        let mut s = SearchScratch::new();
        let before = s.capacity_signature();
        s.open.push(7, (1, 2));
        assert!(s.capacity_signature() > before);
        assert!(s.memory_bytes() > 0);
        let (signature, bytes) = (s.capacity_signature(), s.memory_bytes());
        s.table.begin(1, 16);
        assert_eq!(s.memory_bytes(), bytes + 4 * BAND_PLANES, "the band counts");
        let (signature, bytes) = (signature + BAND_PLANES, s.memory_bytes());
        assert_eq!(s.capacity_signature(), signature);
        s.table.discover(5, ACTION_ROOT);
        assert!(s.capacity_signature() > signature, "the deep map counts");
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

    proptest! {
        /// The two tiers are one table: random discoveries on slots either
        /// side of the band edge (`4 × cells`), over regions of changing
        /// size, generation bumps and the stamp wrap, answer as a fresh
        /// `HashMap` per query would.
        #[test]
        fn band_and_deep_map_answer_as_one_map(
            queries in proptest::collection::vec(
                (1usize..6, 1u64..8, 0u8..3,
                 proptest::collection::vec((0usize..48, ACTION_ROOT..ACTION_MOVE_BASE + 4), 0..40)),
                1..12),
        ) {
            let mut table = StateTable::default();
            for (cells, window, wrap, ops) in queries {
                if wrap == 0 && table.generation < GENERATION_MAX - 1 {
                    table.generation = GENERATION_MAX - 1; // the next query wraps
                }
                table.begin(cells, window);
                let slots = cells * window as usize;
                let mut model = HashMap::new();
                for (slot, action) in ops {
                    let slot = slot % slots;
                    let fresh = !model.contains_key(&slot);
                    prop_assert_eq!(table.discover(slot, action), fresh, "slot {}", slot);
                    model.entry(slot).or_insert(action);
                    for (&slot, &action) in &model {
                        prop_assert_eq!(table.action(slot), action, "slot {}", slot);
                    }
                }
                prop_assert!(table.dense <= 4 * cells && table.band.len() >= table.dense);
            }
        }
    }
}
