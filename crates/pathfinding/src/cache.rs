//! Cache-aided path finding (Sec. VI-B).
//!
//! The cache stores conflict-*agnostic* shortest paths between cell pairs
//! within Manhattan distance `L` of each other. During A*, once the search
//! pops a vertex within `L` of the destination, the cached spatial path is
//! spliced in and the robot simply *waits* whenever the next step would
//! conflict — "directly moving along the shortest path with some wait",
//! which shrinks the open set dramatically near the goal.
//!
//! # Miss path
//!
//! Splice attempts key on `(popped vertex, goal)`, so the pair space is
//! large and misses are the common case early in a run. Each miss used to
//! run a full `HashMap`-frontier BFS from scratch — the dominant share of
//! EATP's tick cost on obstructed floors. Misses now
//! trace a **destination-rooted step field**: one flat BFS per *goal*
//! (direction-toward-goal per cell, 1 byte each, LRU-capped at
//! [`FIELD_CAP`]) serves every `from` that subsequently misses on the same
//! goal with an `O(path length)` pointer-free walk. Goals are rack homes
//! and stations — 2 000 of them at paper scale, far more than the cap
//! keeps, so most misses start a new field. A field is therefore **lazy**:
//! it keeps its BFS frontier and advances it only until the asking `from`
//! is labelled (about `2d²` cells for a `from` at distance `d`, not the
//! whole grid), resuming from there for a farther `from`. The FIFO order
//! is that of a one-shot BFS, so the step codes — and every memoized path
//! — are the same however far a field has been extended. On obstacle-free
//! grids the L-shaped Manhattan walk skips fields entirely.
//!
//! # Invalidation
//!
//! Disruption blockades mutate the grid mid-run. Step fields are dropped
//! wholesale (they are cheap to rebuild); memoized paths are evicted
//! **partially**:
//!
//! * a cell *blocked*: only entries whose path crosses the cell die — a
//!   64-bit cell bloom per entry prefilters the exact scan;
//! * a cell *unblocked*: only entries a route through the reopened cell
//!   could shorten die — kept entries satisfy
//!   `manhattan(a, pos) + manhattan(pos, b) >= cached steps`, a sound bound
//!   since grid distance is at least Manhattan distance.
//!
//! Both rules keep the invariant that every cached path is exactly a
//! shortest path of the *current* grid (`cached_paths_stay_shortest_under_mutation`
//! property-tests it), while [`PathCache::partial_evictions`] stays far
//! below the full flushes the previous implementation paid.

use crate::footprint::{MemoryFootprint, HASH_ENTRY_OVERHEAD};
use std::collections::{HashMap, VecDeque};
use tprw_warehouse::{CellKind, Direction, GridMap, GridPos};

/// Maximum number of destination-rooted step fields kept live (LRU).
pub const FIELD_CAP: usize = 8;

/// Step-field sentinel: cell not reached from the goal.
const UNREACHED: u8 = u8::MAX;
/// Step-field sentinel: the goal cell itself.
const AT_GOAL: u8 = u8::MAX - 1;

/// One destination-rooted field: for every cell labelled so far, the first
/// move of a shortest path toward `goal` (an index into [`Direction::ALL`]).
#[derive(Debug)]
struct StepField {
    goal: GridPos,
    /// LRU stamp (higher = more recently used).
    stamp: u64,
    step: Vec<u8>,
    /// BFS frontier: labelled cells whose neighbours are not yet scanned.
    /// Empty once the goal's whole component is labelled.
    frontier: VecDeque<GridPos>,
}

/// One memoized spatial path plus a 64-bit bloom over its cells (the
/// blockade-eviction prefilter).
#[derive(Debug)]
struct CacheEntry {
    path: Box<[GridPos]>,
    bloom: u64,
}

/// The bloom bit of a cell (top six bits of a 64-bit mix).
#[inline]
fn cell_bit(pos: GridPos) -> u64 {
    let h = (pos.x as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((pos.y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    1u64 << (h >> 58)
}

/// Memoized conflict-agnostic shortest paths for near-goal splicing.
#[derive(Debug)]
pub struct PathCache {
    grid: GridMap,
    /// Number of blocked cells (`obstacle_free == (blocked == 0)`).
    blocked: usize,
    obstacle_free: bool,
    threshold: u64,
    map: HashMap<(GridPos, GridPos), CacheEntry>,
    fields: Vec<StepField>,
    field_clock: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    partial_evictions: u64,
}

impl PathCache {
    /// Create a cache over (a clone of) `grid` with splice threshold `L`.
    pub fn new(grid: &GridMap, threshold: u64) -> Self {
        let blocked = grid.count_kind(CellKind::Blocked);
        Self {
            blocked,
            obstacle_free: blocked == 0,
            grid: grid.clone(),
            threshold,
            map: HashMap::new(),
            fields: Vec::new(),
            field_clock: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            partial_evictions: 0,
        }
    }

    /// Mutate the cloned grid (a disruption blockade landed or cleared),
    /// drop the step fields, and evict exactly the memoized paths the
    /// mutation can invalidate (see the module docs for the two rules).
    pub fn set_passable(&mut self, pos: GridPos, passable: bool) {
        let kind = if passable {
            CellKind::Aisle
        } else {
            CellKind::Blocked
        };
        if self.grid.kind(pos) == kind {
            return;
        }
        if self.grid.kind(pos) == CellKind::Blocked {
            self.blocked -= 1;
        }
        if kind == CellKind::Blocked {
            self.blocked += 1;
        }
        self.grid.set_kind(pos, kind);
        self.obstacle_free = self.blocked == 0;
        self.fields.clear();
        let before = self.map.len();
        if passable {
            // Reopened cell: a cached path stays shortest unless a route
            // through `pos` could undercut it (Manhattan lower-bounds true
            // grid distance, so this keep-rule is sound).
            self.map.retain(|&(a, b), entry| {
                let steps = entry.path.len() as u64 - 1;
                a.manhattan(pos) + pos.manhattan(b) >= steps
            });
        } else {
            // Blocked cell: only paths that cross it die. The bloom filters
            // most entries without scanning their cells.
            let bit = cell_bit(pos);
            self.map
                .retain(|_, entry| entry.bloom & bit == 0 || !entry.path.contains(&pos));
        }
        self.partial_evictions += (before - self.map.len()) as u64;
        self.invalidations += 1;
    }

    /// Number of grid-mutation invalidations applied (diagnostics).
    pub fn invalidation_count(&self) -> u64 {
        self.invalidations
    }

    /// Number of memoized paths evicted by grid mutations — strictly below
    /// `invalidations × len` by construction, the point of partial
    /// invalidation (diagnostics).
    pub fn partial_evictions(&self) -> u64 {
        self.partial_evictions
    }

    /// The splice threshold `L`.
    #[inline]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Whether `(from, to)` qualifies for cache splicing (within `L`).
    #[inline]
    pub fn within_threshold(&self, from: GridPos, to: GridPos) -> bool {
        from.manhattan(to) <= self.threshold
    }

    /// The spatial shortest path `from → to` (inclusive of both endpoints),
    /// memoized. Returns `None` when unreachable or outside the threshold.
    pub fn shortest(&mut self, from: GridPos, to: GridPos) -> Option<&[GridPos]> {
        if !self.within_threshold(from, to) {
            return None;
        }
        // Entry API would borrow `self.map` while the miss path needs the
        // grid and fields; use contains_key + insert to keep borrows
        // disjoint.
        if !self.map.contains_key(&(from, to)) {
            self.misses += 1;
            let path = if self.obstacle_free {
                Some(l_shaped_walk(from, to))
            } else {
                self.trace(from, to)
            };
            let path = path?;
            debug_assert_eq!(path.first(), Some(&from));
            debug_assert_eq!(path.last(), Some(&to));
            let bloom = path.iter().fold(0u64, |acc, &c| acc | cell_bit(c));
            self.map.insert(
                (from, to),
                CacheEntry {
                    path: path.into_boxed_slice(),
                    bloom,
                },
            );
        } else {
            self.hits += 1;
        }
        self.map.get(&(from, to)).map(|e| &e.path[..])
    }

    /// Walk the `to`-rooted step field from `from` (starting, resuming or
    /// refreshing the field first). `None` when unreachable.
    fn trace(&mut self, from: GridPos, to: GridPos) -> Option<Vec<GridPos>> {
        self.field_clock += 1;
        let clock = self.field_clock;
        let fi = match self.fields.iter().position(|f| f.goal == to) {
            Some(fi) => fi,
            None => {
                // Reuse the LRU slot once the cap is reached.
                let fi = if self.fields.len() < FIELD_CAP {
                    self.fields.push(StepField {
                        goal: to,
                        stamp: clock,
                        step: Vec::new(),
                        frontier: VecDeque::new(),
                    });
                    self.fields.len() - 1
                } else {
                    self.fields
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, f)| f.stamp)
                        .expect("cap >= 1")
                        .0
                };
                self.fields[fi].restart(&self.grid, to);
                fi
            }
        };
        self.fields[fi].stamp = clock;
        self.fields[fi].extend_to(&self.grid, from);
        let field = &self.fields[fi];
        let width = self.grid.width();
        let height = self.grid.height();
        let mut code = field.step[from.to_index(width)];
        if code == UNREACHED {
            return None;
        }
        let mut path = Vec::with_capacity(from.manhattan(to) as usize + 1);
        let mut cur = from;
        path.push(cur);
        while code != AT_GOAL {
            cur = cur
                .step(Direction::ALL[code as usize], width, height)
                .expect("step fields never point off-grid");
            path.push(cur);
            code = field.step[cur.to_index(width)];
        }
        Some(path)
    }

    /// `(hits, misses)` counters (diagnostics).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Every memoized entry as `((from, to), path cells)`, sorted by key —
    /// the canonical enumeration used by checkpoint export. The memoized
    /// *pair set* is behaviorally observable (it sizes the reported memory,
    /// and a cached pair is served as memoized rather than re-traced) and
    /// entries surviving partial eviction need not equal a fresh trace on
    /// the mutated grid, so the actual cells are exported, not recomputed
    /// on restore. Step fields, the bloom words and the hit/miss counters
    /// are derived and rebuilt on demand.
    pub fn export_entries(&self) -> Vec<((GridPos, GridPos), Vec<GridPos>)> {
        let width = self.grid.width();
        let mut entries: Vec<_> = self
            .map
            .iter()
            .map(|(&k, e)| (k, e.path.to_vec()))
            .collect();
        entries.sort_by_key(|&((a, b), _)| (a.to_index(width), b.to_index(width)));
        entries
    }

    /// Re-insert one exported entry, recomputing its bloom word. Restores
    /// assume the importing cache's grid already matches the grid the entry
    /// was exported under (callers replay the disruption journal first).
    pub fn import_entry(&mut self, from: GridPos, to: GridPos, path: Vec<GridPos>) {
        debug_assert_eq!(path.first(), Some(&from));
        debug_assert_eq!(path.last(), Some(&to));
        let bloom = path.iter().fold(0u64, |acc, &c| acc | cell_bit(c));
        self.map.insert(
            (from, to),
            CacheEntry {
                path: path.into_boxed_slice(),
                bloom,
            },
        );
    }

    /// Drop every memoized entry (checkpoint import begins from a clean
    /// map before re-inserting the exported pairs).
    pub fn clear_entries(&mut self) {
        self.map.clear();
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Deterministically corrupt one memoized entry (fault injection): the
    /// `salt`-selected entry in canonical key order gets its bloom word
    /// flipped and, when longer than one cell, its final cell overwritten —
    /// exactly the kind of silent bit-rot [`PathCache::verify_entries`]
    /// must catch. Returns `false` when there is nothing to poison.
    pub fn poison_entry(&mut self, salt: u64) -> bool {
        if self.map.is_empty() {
            return false;
        }
        let width = self.grid.width();
        let mut keys: Vec<(GridPos, GridPos)> = self.map.keys().copied().collect();
        keys.sort_by_key(|&(a, b)| (a.to_index(width), b.to_index(width)));
        let key = keys[(salt as usize) % keys.len()];
        let entry = self.map.get_mut(&key).expect("key just enumerated");
        entry.bloom ^= 1u64 << (salt % 64);
        if entry.path.len() >= 2 {
            let first = entry.path[0];
            let last = entry.path.len() - 1;
            entry.path[last] = first;
        }
        true
    }

    /// Integrity sweep over every memoized entry: an entry survives only if
    /// its endpoints match its key, consecutive cells are grid-adjacent,
    /// every cell is passable on the cache's current grid, and its bloom
    /// word re-derives from its cells. Violators are evicted (they rebuild
    /// on the next miss); returns how many were dropped.
    pub fn verify_entries(&mut self) -> usize {
        let grid = &self.grid;
        let before = self.map.len();
        self.map.retain(|&(from, to), entry| {
            entry.path.first() == Some(&from)
                && entry.path.last() == Some(&to)
                && entry.path.windows(2).all(|w| w[0].manhattan(w[1]) == 1)
                && entry.path.iter().all(|&c| grid.passable(c))
                && entry.path.iter().fold(0u64, |acc, &c| acc | cell_bit(c)) == entry.bloom
        });
        let evicted = before - self.map.len();
        self.partial_evictions += evicted as u64;
        evicted
    }
}

impl StepField {
    /// Re-root the field at `goal` with nothing but the goal labelled.
    fn restart(&mut self, grid: &GridMap, goal: GridPos) {
        self.goal = goal;
        self.step.clear();
        self.step.resize(grid.cell_count(), UNREACHED);
        self.frontier.clear();
        if grid.passable(goal) {
            self.step[goal.to_index(grid.width())] = AT_GOAL;
            self.frontier.push_back(goal);
        }
    }

    /// Advance the destination-rooted BFS over passable cells until `from`
    /// is labelled or the frontier runs dry: `step[cell]` becomes the
    /// direction of the first move of a shortest path toward the goal
    /// (deterministic tie-breaking by [`Direction::ALL`] order and BFS
    /// level). Whole cells are scanned in FIFO order, so where the BFS
    /// pauses never changes a label.
    fn extend_to(&mut self, grid: &GridMap, from: GridPos) {
        let width = grid.width();
        let height = grid.height();
        let from = from.to_index(width);
        while self.step[from] == UNREACHED {
            let Some(cur) = self.frontier.pop_front() else {
                return;
            };
            for dir in Direction::ALL {
                if let Some(next) = cur.step(dir, width, height) {
                    let i = next.to_index(width);
                    if self.step[i] == UNREACHED && grid.passable(next) {
                        // First move from `next` toward the goal: back to `cur`.
                        self.step[i] = dir.opposite() as u8;
                        self.frontier.push_back(next);
                    }
                }
            }
        }
    }
}

impl MemoryFootprint for PathCache {
    fn memory_bytes(&self) -> usize {
        let key = std::mem::size_of::<(GridPos, GridPos)>();
        let val = std::mem::size_of::<CacheEntry>();
        let entries: usize = self
            .map
            .values()
            .map(|e| e.path.len() * std::mem::size_of::<GridPos>())
            .sum();
        let fields: usize = self
            .fields
            .iter()
            .map(|f| {
                f.step.capacity()
                    + f.frontier.capacity() * std::mem::size_of::<GridPos>()
                    + std::mem::size_of::<StepField>()
            })
            .sum();
        self.map.len() * (key + val + HASH_ENTRY_OVERHEAD) + entries + fields
    }
}

/// Manhattan walk moving along x first, then y (both endpoints included).
fn l_shaped_walk(from: GridPos, to: GridPos) -> Vec<GridPos> {
    let mut path = Vec::with_capacity(from.manhattan(to) as usize + 1);
    let mut cur = from;
    path.push(cur);
    while cur.x != to.x {
        cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        path.push(cur);
    }
    while cur.y != to.y {
        cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn open_grid() -> GridMap {
        GridMap::filled(12, 12, CellKind::Aisle)
    }

    #[test]
    fn l_shape_on_open_grid() {
        let mut cache = PathCache::new(&open_grid(), 50);
        let path = cache.shortest(p(1, 1), p(4, 3)).unwrap().to_vec();
        assert_eq!(path.len(), 6, "manhattan 5 + 1 endpoints");
        assert_eq!(path[0], p(1, 1));
        assert_eq!(*path.last().unwrap(), p(4, 3));
        for w in path.windows(2) {
            assert!(w[0].is_adjacent(w[1]));
        }
    }

    #[test]
    fn memoization_counts_hits() {
        let mut cache = PathCache::new(&open_grid(), 50);
        cache.shortest(p(0, 0), p(3, 3));
        cache.shortest(p(0, 0), p(3, 3));
        cache.shortest(p(0, 0), p(3, 3));
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn outside_threshold_rejected() {
        let mut cache = PathCache::new(&open_grid(), 3);
        assert!(cache.shortest(p(0, 0), p(5, 5)).is_none());
        assert!(cache.shortest(p(0, 0), p(2, 1)).is_some());
    }

    #[test]
    fn bfs_route_around_wall() {
        let mut grid = open_grid();
        for y in 0..11 {
            grid.set_kind(p(5, y), CellKind::Blocked);
        }
        let mut cache = PathCache::new(&grid, 64);
        let path = cache.shortest(p(3, 0), p(7, 0)).unwrap();
        assert_eq!(path[0], p(3, 0));
        assert_eq!(*path.last().unwrap(), p(7, 0));
        // Must descend to row 11 to cross.
        assert!(path.iter().any(|c| c.y == 11));
        for w in path.windows(2).collect::<Vec<_>>() {
            assert!(w[0].is_adjacent(w[1]));
        }
        // The wall detour is exactly as long as the true shortest route.
        assert_eq!(path.len(), 27, "3->11 down, cross, 11->0 up, 4 east + 1");
    }

    #[test]
    fn field_reuse_across_froms_of_one_goal() {
        let mut grid = open_grid();
        grid.set_kind(p(5, 5), CellKind::Blocked);
        let mut cache = PathCache::new(&grid, 64);
        // Many froms, one goal: one destination-rooted field serves all.
        for x in 0..12u16 {
            for y in 0..12u16 {
                if grid.passable(p(x, y)) {
                    let path = cache.shortest(p(x, y), p(11, 11)).unwrap();
                    assert_eq!(*path.last().unwrap(), p(11, 11));
                }
            }
        }
        assert_eq!(cache.fields.len(), 1, "a single goal builds one field");
    }

    #[test]
    fn field_cap_is_lru() {
        let mut grid = open_grid();
        grid.set_kind(p(5, 5), CellKind::Blocked);
        let mut cache = PathCache::new(&grid, 64);
        for i in 0..(FIELD_CAP as u16 + 3) {
            cache.shortest(p(0, 0), p(11, i)).unwrap();
        }
        assert_eq!(cache.fields.len(), FIELD_CAP, "cap respected");
        // The most recent goals survive.
        assert!(cache
            .fields
            .iter()
            .any(|f| f.goal == p(11, FIELD_CAP as u16 + 2)));
        assert!(!cache.fields.iter().any(|f| f.goal == p(11, 0)));
    }

    #[test]
    fn fields_extend_lazily_and_resume() {
        let mut grid = open_grid();
        grid.set_kind(p(5, 5), CellKind::Blocked);
        let mut cache = PathCache::new(&grid, 64);
        let labelled = |c: &PathCache| c.fields[0].step.iter().filter(|&&s| s != UNREACHED).count();
        // A neighbour of the goal: the BFS stops after scanning the goal.
        cache.shortest(p(1, 0), p(0, 0)).unwrap();
        assert_eq!(labelled(&cache), 3, "the goal and its two neighbours");
        assert!(!cache.fields[0].frontier.is_empty(), "frontier kept");
        // A farther `from` resumes the same field; a nearer one adds nothing.
        assert_eq!(cache.shortest(p(3, 3), p(0, 0)).unwrap().len(), 7);
        let after_far = labelled(&cache);
        assert!(after_far > 3 && after_far < 143, "{after_far} of 143 cells");
        cache.shortest(p(2, 1), p(0, 0)).unwrap();
        assert_eq!(labelled(&cache), after_far);
        assert_eq!(cache.fields.len(), 1);
        // An unpassable `from` runs the frontier dry: the field is complete.
        assert!(cache.shortest(p(5, 5), p(0, 0)).is_none());
        assert_eq!(labelled(&cache), 143);
        assert!(cache.fields[0].frontier.is_empty());
    }

    #[test]
    fn set_passable_drops_fields_and_their_frontiers() {
        let mut grid = open_grid();
        grid.set_kind(p(5, 5), CellKind::Blocked);
        let mut cache = PathCache::new(&grid, 64);
        assert_eq!(cache.shortest(p(0, 2), p(4, 2)).unwrap().len(), 5);
        assert!(!cache.fields[0].frontier.is_empty(), "a paused BFS");
        // A blockade on the memoized route: the entry dies with the field,
        // and the paused frontier — whose labels predate the blockade —
        // must not be resumed.
        cache.set_passable(p(2, 2), false);
        assert!(cache.fields.is_empty());
        let detour = cache.shortest(p(0, 2), p(4, 2)).unwrap();
        assert_eq!(detour.len(), 7);
        assert!(!detour.contains(&p(2, 2)));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut grid = open_grid();
        // Wall off the target completely.
        grid.set_kind(p(10, 11), CellKind::Blocked);
        grid.set_kind(p(11, 10), CellKind::Blocked);
        let mut cache = PathCache::new(&grid, 64);
        assert!(cache.shortest(p(0, 0), p(11, 11)).is_none());
    }

    #[test]
    fn same_cell_single_step() {
        let mut cache = PathCache::new(&open_grid(), 10);
        let path = cache.shortest(p(4, 4), p(4, 4)).unwrap();
        assert_eq!(path, &[p(4, 4)]);
    }

    #[test]
    fn set_passable_invalidates_and_reroutes() {
        let mut cache = PathCache::new(&open_grid(), 64);
        let straight = cache.shortest(p(3, 0), p(7, 0)).unwrap().len();
        assert_eq!(straight, 5);
        assert_eq!(cache.len(), 1);
        // Blockade on the straight line: the crossing entry must drop and
        // the reroute must detour.
        cache.set_passable(p(5, 0), false);
        assert_eq!(cache.len(), 0, "crossing entry evicted");
        assert_eq!(cache.invalidation_count(), 1);
        assert_eq!(cache.partial_evictions(), 1);
        let detour = cache.shortest(p(3, 0), p(7, 0)).unwrap().to_vec();
        assert!(detour.len() > straight);
        assert!(!detour.contains(&p(5, 0)), "never routes through blockade");
        // Reopen: shortest again (a stale detour would be non-shortest).
        cache.set_passable(p(5, 0), true);
        assert_eq!(cache.shortest(p(3, 0), p(7, 0)).unwrap().len(), 5);
        // Idempotent mutation is free.
        cache.set_passable(p(5, 0), true);
        assert_eq!(cache.invalidation_count(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn blockade_eviction_is_partial() {
        // A multi-path scenario: entries crossing the blockade die, the
        // rest survive — the counter must stay strictly below what full
        // invalidation would evict.
        let mut cache = PathCache::new(&open_grid(), 64);
        for y in 0..12u16 {
            cache.shortest(p(0, y), p(11, y)).unwrap();
        }
        assert_eq!(cache.len(), 12);
        cache.set_passable(p(5, 3), false);
        assert_eq!(cache.len(), 11, "only the row-3 entry crossed the cell");
        assert_eq!(cache.partial_evictions(), 1);
        assert!(
            cache.partial_evictions() < 12,
            "partial eviction must beat the full flush"
        );
        // Unblocking evicts only entries a route through (5, 3) could
        // shorten — for straight rows, exactly the row-3 replacement entry
        // (its detour is longer than the through-route bound).
        cache.shortest(p(0, 3), p(11, 3)).unwrap();
        let survivors = cache.len();
        cache.set_passable(p(5, 3), true);
        assert_eq!(cache.len(), survivors - 1, "only the detour entry dies");
        assert_eq!(cache.partial_evictions(), 2);
    }

    #[test]
    fn memory_grows_with_entries() {
        let mut cache = PathCache::new(&open_grid(), 50);
        let before = cache.memory_bytes();
        cache.shortest(p(0, 0), p(9, 9));
        assert!(cache.memory_bytes() > before);
    }

    #[test]
    fn poisoned_entry_is_detected_evicted_and_recomputed() {
        let mut cache = PathCache::new(&open_grid(), 64);
        assert!(!cache.poison_entry(3), "empty cache has nothing to poison");
        let clean = cache.shortest(p(0, 0), p(6, 0)).unwrap().to_vec();
        cache.shortest(p(2, 2), p(8, 2)).unwrap();
        assert_eq!(cache.verify_entries(), 0, "fresh entries are consistent");
        assert!(cache.poison_entry(3));
        assert_eq!(cache.verify_entries(), 1, "corruption detected");
        assert_eq!(cache.len(), 1, "only the poisoned entry evicted");
        // The evicted pair recomputes to the exact clean path on demand.
        let again = cache.shortest(p(0, 0), p(6, 0)).unwrap().to_vec();
        let other = cache.shortest(p(2, 2), p(8, 2)).unwrap().to_vec();
        assert!(again == clean || other == clean);
        assert_eq!(cache.verify_entries(), 0);
    }

    #[test]
    fn poison_single_cell_entry_breaks_bloom_only() {
        let mut cache = PathCache::new(&open_grid(), 64);
        cache.shortest(p(4, 4), p(4, 4)).unwrap();
        assert!(cache.poison_entry(9));
        assert_eq!(cache.verify_entries(), 1, "bloom flip alone is caught");
        assert!(cache.is_empty());
    }

    proptest! {
        /// Cached paths on open grids are exactly Manhattan-length shortest
        /// and connected.
        #[test]
        fn cached_paths_are_shortest(
            ax in 0u16..12, ay in 0u16..12, bx in 0u16..12, by in 0u16..12
        ) {
            let mut cache = PathCache::new(&open_grid(), 64);
            let a = p(ax, ay);
            let b = p(bx, by);
            let path = cache.shortest(a, b).unwrap();
            prop_assert_eq!(path.len() as u64, a.manhattan(b) + 1);
            for w in path.windows(2) {
                prop_assert!(w[0].is_adjacent(w[1]));
            }
        }

        /// Step-field traces on obstructed grids are true shortest paths
        /// (cross-checked against a reference BFS), and partial
        /// invalidation keeps every surviving entry exactly shortest on
        /// the mutated grid.
        #[test]
        fn cached_paths_stay_shortest_under_mutation(
            walls in proptest::collection::hash_set((1u16..11, 1u16..11), 0..14),
            mutate in proptest::collection::vec((1u16..11, 1u16..11, 0u8..2), 1..4),
            ax in 0u16..12, ay in 0u16..12, bx in 0u16..12, by in 0u16..12,
        ) {
            let mut grid = open_grid();
            for &(x, y) in &walls {
                grid.set_kind(p(x, y), CellKind::Blocked);
            }
            let mut cache = PathCache::new(&grid, 64);
            let a = p(ax, ay);
            let b = p(bx, by);
            prop_assume!(grid.passable(a) && grid.passable(b));
            // Seed a spread of entries, then mutate the grid a few times.
            for y in 0..12u16 {
                cache.shortest(p(0, y), b);
            }
            cache.shortest(a, b);
            for &(x, y, open) in &mutate {
                cache.set_passable(p(x, y), open == 1);
            }
            // Every surviving or rebuilt entry must match the reference
            // BFS distance on the *current* grid.
            if let Some(path) = cache.shortest(a, b).map(|s| s.to_vec()) {
                for w in path.windows(2) {
                    prop_assert!(w[0].is_adjacent(w[1]));
                    prop_assert!(cache.grid.passable(w[1]));
                }
                let want = reference_bfs_len(&cache.grid, a, b);
                prop_assert_eq!(Some(path.len()), want, "non-shortest cached path");
            } else {
                prop_assert_eq!(reference_bfs_len(&cache.grid, a, b), None);
            }
        }
    }

    proptest! {
        /// A field extended on demand, in whatever order the `from`s come,
        /// labels cells exactly as one run to completion up front does:
        /// every memoized path has the same cells, on walled grids with a
        /// blockade landing and lifting in between.
        #[test]
        fn lazy_fields_trace_the_same_cells_as_complete_ones(
            walls in proptest::collection::hash_set((0u16..12, 0u16..12), 1..24),
            blockade in (0u16..12, 0u16..12),
            bx in 0u16..12, by in 0u16..12,
            order in 0usize..144,
        ) {
            let mut grid = open_grid();
            for &(x, y) in &walls {
                grid.set_kind(p(x, y), CellKind::Blocked);
            }
            let goal = p(bx, by);
            let blockade = p(blockade.0, blockade.1);
            prop_assume!(grid.passable(goal) && grid.passable(blockade) && goal != blockade);
            let wall = walls.iter().next().map(|&(x, y)| p(x, y)).expect("at least one wall");
            let mut lazy = PathCache::new(&grid, 64);
            let mut full = PathCache::new(&grid, 64);
            for blocked in [true, false] {
                lazy.set_passable(blockade, !blocked);
                full.set_passable(blockade, !blocked);
                // Asking from a wall cell can only end with the frontier dry.
                prop_assert!(full.shortest(wall, goal).is_none());
                prop_assert!(full.fields[0].frontier.is_empty());
                // Every cell as `from`, starting anywhere and striding by a
                // unit of Z/144 so near and far cells interleave.
                for k in 0..144usize {
                    let i = (order + k * 37) % 144;
                    let from = p((i % 12) as u16, (i / 12) as u16);
                    let a = lazy.shortest(from, goal).map(<[GridPos]>::to_vec);
                    let b = full.shortest(from, goal).map(<[GridPos]>::to_vec);
                    prop_assert_eq!(a, b, "from {}", from);
                }
                prop_assert_eq!(&lazy.fields[0].step, &full.fields[0].step);
            }
        }
    }

    /// Reference BFS path length (cells, both endpoints) for the proptest.
    fn reference_bfs_len(grid: &GridMap, from: GridPos, to: GridPos) -> Option<usize> {
        if !grid.passable(from) || !grid.passable(to) {
            return None;
        }
        let mut dist: HashMap<GridPos, usize> = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert(from, 1);
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            let d = dist[&cur];
            if cur == to {
                return Some(d);
            }
            for q in grid.passable_neighbors(cur) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(q) {
                    e.insert(d + 1);
                    queue.push_back(q);
                }
            }
        }
        None
    }
}
