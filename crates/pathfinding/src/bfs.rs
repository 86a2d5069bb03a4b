//! Uncongested shortest distances `d(·,·)` on the grid.
//!
//! The makespan formulas (Eq. 2) and all selection heuristics use the path
//! length between two locations ignoring other robots. On obstacle-free
//! layouts (the default: robots drive under racks) this is exactly the
//! Manhattan distance; with blocked cells we fall back to memoized BFS
//! fields.
//!
//! # Hot-path design
//!
//! Planner queries put the *varying* endpoint first
//! (`dist(robot_pos, rack_home)`), so a memo keyed by query source would
//! BFS the whole grid for nearly every query. [`DistanceOracle`] is flat,
//! in the style of the `SearchScratch` arena (its property tests compare
//! it against a brute-force BFS of their own):
//!
//! * no grid clone — only a dense passability snapshot;
//! * **dense slot index**: `slot_of[cell]` maps a BFS source to its field
//!   slot, so probes are two array loads, no hashing;
//! * **symmetry flip**: `d(a,b) = d(b,a)` on the undirected unit grid, so a
//!   field rooted at *either* endpoint answers the query, and new fields
//!   are rooted at the *destination* (rack homes / stations — a small,
//!   recurring set) instead of the varying source;
//! * **generation stamps**: each slot's distance buffer is reused across
//!   recomputations without clearing — a cell's entry is valid only when
//!   its stamp matches the slot generation;
//! * **LRU cap**: at most [`DistanceOracle::DEFAULT_FIELD_CAP`] live fields;
//!   the least-recently-used slot is recycled, bounding memory.

use crate::footprint::MemoryFootprint;
use std::collections::VecDeque;
use tprw_warehouse::{GridMap, GridPos};

/// One memoized BFS field slot of the flat oracle.
#[derive(Debug, Clone)]
struct FieldSlot {
    /// Cell index of the BFS source this field is rooted at.
    source: u32,
    /// Stamp a `dist` entry must carry to be valid for this rooting.
    generation: u32,
    /// LRU clock value of the last query answered from this slot.
    last_used: u64,
    /// Distance per cell (valid only where `stamp` matches `generation`).
    dist: Box<[u32]>,
    /// Per-cell generation stamps.
    stamp: Box<[u32]>,
}

impl FieldSlot {
    /// BFS from `source` over the flat passability snapshot of a
    /// `width × height` grid, under a fresh generation.
    fn fill(&mut self, passable: &[bool], width: u16, height: u16, queue: &mut VecDeque<u32>) {
        if self.generation == u32::MAX {
            // Stamp wrap: clear once so stale max-stamps cannot alias.
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        let (width, height) = (width as usize, height as usize);
        queue.clear();
        self.relax(passable, queue, self.source as usize, 0);
        while let Some(i) = queue.pop_front() {
            let i = i as usize;
            let d = self.dist[i] + 1;
            let (x, y) = (i % width, i / width);
            // 4-neighbourhood unrolled over the flat passability snapshot.
            if x > 0 {
                self.relax(passable, queue, i - 1, d);
            }
            if x + 1 < width {
                self.relax(passable, queue, i + 1, d);
            }
            if y > 0 {
                self.relax(passable, queue, i - width, d);
            }
            if y + 1 < height {
                self.relax(passable, queue, i + width, d);
            }
        }
    }

    #[inline]
    fn relax(&mut self, passable: &[bool], queue: &mut VecDeque<u32>, j: usize, d: u32) {
        if passable[j] && self.stamp[j] != self.generation {
            self.stamp[j] = self.generation;
            self.dist[j] = d;
            queue.push_back(j as u32);
        }
    }
}

/// Shared distance oracle: exact Manhattan on obstacle-free grids, flat
/// generation-stamped BFS fields otherwise (see the module docs).
#[derive(Debug, Clone)]
pub struct DistanceOracle {
    width: u16,
    height: u16,
    passable: Box<[bool]>,
    /// Number of impassable cells (`obstacle_free == (blocked == 0)`).
    blocked: usize,
    obstacle_free: bool,
    /// Field slot per source cell (`SLOT_NONE` = no field rooted there).
    slot_of: Box<[u32]>,
    slots: Vec<FieldSlot>,
    field_cap: usize,
    /// LRU clock, bumped per mutable query.
    clock: u64,
    /// Reusable BFS frontier (cell indices).
    queue: VecDeque<u32>,
}

/// Sentinel for "no slot" in `slot_of`.
const SLOT_NONE: u32 = u32::MAX;

impl DistanceOracle {
    /// Default cap on live BFS fields. Sources are rack homes and station
    /// cells in practice, so this is generous; each field costs
    /// `8 × cells` bytes.
    pub const DEFAULT_FIELD_CAP: usize = 64;

    /// Build an oracle over a passability snapshot of the grid (the grid
    /// itself is not cloned or retained).
    pub fn new(grid: &GridMap) -> Self {
        Self::with_field_cap(grid, Self::DEFAULT_FIELD_CAP)
    }

    /// [`DistanceOracle::new`] with an explicit LRU field cap (≥ 1).
    pub fn with_field_cap(grid: &GridMap, field_cap: usize) -> Self {
        let cells = grid.cell_count();
        let mut passable = vec![false; cells].into_boxed_slice();
        for y in 0..grid.height() {
            for x in 0..grid.width() {
                let p = GridPos::new(x, y);
                passable[p.to_index(grid.width())] = grid.passable(p);
            }
        }
        let blocked = passable.iter().filter(|&&p| !p).count();
        Self {
            width: grid.width(),
            height: grid.height(),
            passable,
            blocked,
            obstacle_free: blocked == 0,
            slot_of: vec![SLOT_NONE; cells].into_boxed_slice(),
            slots: Vec::new(),
            field_cap: field_cap.max(1),
            clock: 0,
            queue: VecDeque::new(),
        }
    }

    /// Whether Manhattan distance is exact on this grid.
    #[inline]
    pub fn obstacle_free(&self) -> bool {
        self.obstacle_free
    }

    /// Mutate the passability snapshot (a cell was blockaded or reopened by
    /// a disruption event) and evict every memoized field: a BFS field
    /// rooted anywhere can route through the mutated cell, so all distances
    /// are suspect. Fields rebuild lazily on the next queries — the source
    /// set (rack homes, stations) is small and recurring, so the warm state
    /// recovers within a few ticks.
    pub fn set_passable(&mut self, pos: GridPos, passable: bool) {
        let i = pos.to_index(self.width);
        if self.passable[i] == passable {
            return;
        }
        self.passable[i] = passable;
        if passable {
            self.blocked -= 1;
        } else {
            self.blocked += 1;
        }
        self.obstacle_free = self.blocked == 0;
        self.evict_fields();
    }

    /// Drop every memoized BFS field (the buffers are freed; slots regrow on
    /// demand up to the LRU cap).
    fn evict_fields(&mut self) {
        for slot in &self.slots {
            self.slot_of[slot.source as usize] = SLOT_NONE;
        }
        self.slots.clear();
    }

    /// Externally drop every memoized field — degradation recovery
    /// invalidates derived state wholesale; distances recompute identically
    /// on demand, so this is behaviorally free.
    pub fn evict_all_fields(&mut self) {
        self.evict_fields();
    }

    /// `d(a, b)`: uncongested travel delay between two cells (`u64::MAX`
    /// when disconnected).
    pub fn dist(&mut self, a: GridPos, b: GridPos) -> u64 {
        if self.obstacle_free {
            return a.manhattan(b);
        }
        let ia = a.to_index(self.width);
        let ib = b.to_index(self.width);
        self.clock += 1;
        // A field rooted at either endpoint answers the query (symmetry).
        if let Some(d) = self.read_slot(self.slot_of[ia], ib) {
            return d;
        }
        if let Some(d) = self.read_slot(self.slot_of[ib], ia) {
            return d;
        }
        // Root the new field at the destination: planner queries put the
        // varying endpoint first (`dist(robot_pos, rack_home)`), so the
        // destination is the recurring one.
        let slot = self.compute_field(ib as u32);
        self.read_slot(slot, ia).expect("freshly computed slot")
    }

    /// Number of live memoized BFS fields (diagnostics).
    pub fn field_count(&self) -> usize {
        self.slots.len()
    }

    /// Distance read from `slot` (bumping its LRU stamp), if the slot
    /// exists.
    #[inline]
    fn read_slot(&mut self, slot: u32, target: usize) -> Option<u64> {
        if slot == SLOT_NONE {
            return None;
        }
        let s = &mut self.slots[slot as usize];
        s.last_used = self.clock;
        Some(if s.stamp[target] == s.generation {
            s.dist[target] as u64
        } else {
            u64::MAX
        })
    }

    /// BFS a new field rooted at cell index `source`, recycling the LRU
    /// slot when at capacity. Returns the slot id.
    fn compute_field(&mut self, source: u32) -> u32 {
        let cells = self.passable.len();
        let slot_id = if self.slots.len() < self.field_cap {
            self.slots.push(FieldSlot {
                source,
                generation: 0,
                last_used: 0,
                dist: vec![0; cells].into_boxed_slice(),
                stamp: vec![0; cells].into_boxed_slice(),
            });
            (self.slots.len() - 1) as u32
        } else {
            let (evict, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .expect("field_cap >= 1");
            self.slot_of[self.slots[evict].source as usize] = SLOT_NONE;
            evict as u32
        };
        self.slot_of[source as usize] = slot_id;

        let slot = &mut self.slots[slot_id as usize];
        slot.source = source;
        slot.last_used = self.clock;
        slot.fill(&self.passable, self.width, self.height, &mut self.queue);
        slot_id
    }

    /// Deterministically corrupt one memoized BFS field (fault injection):
    /// the `salt`-selected live slot gets one stamped distance bumped — the
    /// silent bit-rot [`DistanceOracle::verify_fields`] must catch. Returns
    /// `false` when no field is live (nothing to poison).
    pub fn poison_field(&mut self, salt: u64) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let idx = (salt as usize) % self.slots.len();
        let slot = &mut self.slots[idx];
        let generation = slot.generation;
        let stamped: Vec<usize> = (0..slot.dist.len())
            .filter(|&i| slot.stamp[i] == generation)
            .collect();
        if stamped.is_empty() {
            return false;
        }
        let i = stamped[((salt >> 8) as usize) % stamped.len()];
        slot.dist[i] = slot.dist[i].wrapping_add(1 + (salt % 5) as u32);
        true
    }

    /// Integrity sweep: re-derive every live field by a fresh BFS over the
    /// current passability snapshot — the one [`DistanceOracle::dist`]
    /// computes fields with — and compare against the stamped distances.
    /// Any mismatch evicts *all* fields — mirroring
    /// [`DistanceOracle::set_passable`]: once one memoized field lies, none
    /// can be trusted, and dropping a single slot would dangle the
    /// `slot_of` indices of the slots behind it. Returns how many corrupt
    /// fields were found (fields rebuild lazily on the next queries).
    pub fn verify_fields(&mut self) -> usize {
        let cells = self.passable.len();
        let mut fresh = FieldSlot {
            source: 0,
            generation: 0,
            last_used: 0,
            dist: vec![0; cells].into_boxed_slice(),
            stamp: vec![0; cells].into_boxed_slice(),
        };
        let mut queue = VecDeque::new();
        let mut corrupt = 0;
        for slot in &self.slots {
            fresh.source = slot.source;
            fresh.fill(&self.passable, self.width, self.height, &mut queue);
            // Unstamped cells read as "unknown" and are recomputed on
            // demand, so only stamped entries can lie.
            let lies = (0..cells).any(|i| {
                slot.stamp[i] == slot.generation
                    && (fresh.stamp[i] != fresh.generation || fresh.dist[i] != slot.dist[i])
            });
            corrupt += usize::from(lies);
        }
        if corrupt > 0 {
            self.evict_fields();
        }
        corrupt
    }
}

impl MemoryFootprint for DistanceOracle {
    fn memory_bytes(&self) -> usize {
        let cells = self.passable.len();
        let per_slot = cells * (std::mem::size_of::<u32>() * 2);
        cells * (std::mem::size_of::<bool>() + std::mem::size_of::<u32>())
            + self.slots.len() * per_slot
            + self.queue.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tprw_warehouse::CellKind;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    /// Marker for unreachable cells.
    const UNREACHABLE: u32 = u32::MAX;

    /// Distance field from one source over passable cells.
    struct DistanceGrid {
        width: u16,
        dist: Vec<u32>,
    }

    impl DistanceGrid {
        /// Distance from the BFS source to `p` (`UNREACHABLE` if cut off).
        fn get(&self, p: GridPos) -> u32 {
            self.dist[p.to_index(self.width)]
        }
    }

    /// Brute-force BFS over passable cells from `source`, through the
    /// grid's own neighbour iterator: the oracle's reference.
    fn bfs_distances(grid: &GridMap, source: GridPos) -> DistanceGrid {
        let mut dist = vec![UNREACHABLE; grid.cell_count()];
        let mut queue = VecDeque::new();
        if grid.passable(source) {
            dist[source.to_index(grid.width())] = 0;
            queue.push_back(source);
        }
        while let Some(p) = queue.pop_front() {
            let d = dist[p.to_index(grid.width())];
            for q in grid.passable_neighbors(p) {
                let slot = &mut dist[q.to_index(grid.width())];
                if *slot == UNREACHABLE {
                    *slot = d + 1;
                    queue.push_back(q);
                }
            }
        }
        DistanceGrid {
            width: grid.width(),
            dist,
        }
    }

    #[test]
    fn open_grid_matches_manhattan() {
        let grid = GridMap::filled(10, 10, CellKind::Aisle);
        let field = bfs_distances(&grid, p(0, 0));
        assert_eq!(field.get(p(3, 4)), 7);
        assert_eq!(field.get(p(9, 9)), 18);
        assert_eq!(field.get(p(0, 0)), 0);
    }

    #[test]
    fn wall_forces_detour() {
        // Vertical wall at x=2 with a gap at y=4.
        let mut grid = GridMap::filled(6, 6, CellKind::Aisle);
        for y in 0..6 {
            if y != 4 {
                grid.set_kind(p(2, y), CellKind::Blocked);
            }
        }
        let field = bfs_distances(&grid, p(0, 0));
        // Straight line would be 4; must detour via (2,4).
        assert_eq!(field.get(p(4, 0)), 12);
        assert_eq!(field.get(p(2, 0)), UNREACHABLE, "wall cell itself");

        let mut oracle = DistanceOracle::new(&grid);
        assert_eq!(oracle.dist(p(0, 0), p(4, 0)), 12);
        assert_eq!(oracle.dist(p(0, 0), p(2, 0)), u64::MAX, "wall cell");
    }

    #[test]
    fn unreachable_pocket() {
        let mut grid = GridMap::filled(5, 5, CellKind::Aisle);
        // Box in the corner cell (4,4).
        grid.set_kind(p(3, 4), CellKind::Blocked);
        grid.set_kind(p(4, 3), CellKind::Blocked);
        grid.set_kind(p(3, 3), CellKind::Blocked);
        let field = bfs_distances(&grid, p(0, 0));
        assert_eq!(field.get(p(4, 4)), UNREACHABLE);

        let mut oracle = DistanceOracle::new(&grid);
        assert_eq!(oracle.dist(p(0, 0), p(4, 4)), u64::MAX);
        assert_eq!(oracle.dist(p(4, 4), p(0, 0)), u64::MAX, "symmetric");
    }

    #[test]
    fn oracle_uses_manhattan_when_free() {
        let grid = GridMap::filled(8, 8, CellKind::Aisle);
        let mut oracle = DistanceOracle::new(&grid);
        assert!(oracle.obstacle_free());
        assert_eq!(oracle.dist(p(1, 1), p(4, 5)), 7);
        assert_eq!(oracle.field_count(), 0, "no BFS fields needed");
    }

    #[test]
    fn oracle_memoizes_with_obstacles() {
        let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
        grid.set_kind(p(4, 4), CellKind::Blocked);
        let mut oracle = DistanceOracle::new(&grid);
        assert!(!oracle.obstacle_free());
        let d1 = oracle.dist(p(0, 0), p(7, 7));
        assert_eq!(oracle.field_count(), 1);
        // Flipped endpoints and repeated destinations reuse the same field.
        let d2 = oracle.dist(p(7, 7), p(7, 0));
        let d3 = oracle.dist(p(7, 0), p(7, 7));
        assert_eq!(oracle.field_count(), 1, "destination field reused");
        assert_eq!(d1, 14);
        assert_eq!(d2, 7);
        assert_eq!(d3, 7);
    }

    #[test]
    fn lru_cap_bounds_fields() {
        let mut grid = GridMap::filled(12, 12, CellKind::Aisle);
        grid.set_kind(p(6, 6), CellKind::Blocked);
        let mut oracle = DistanceOracle::with_field_cap(&grid, 2);
        // Three distinct destinations with disjoint sources: only two
        // fields may stay live.
        for x in 0..3u16 {
            let d = oracle.dist(p(0, 0), p(9 - x, 9));
            assert_ne!(d, u64::MAX);
        }
        assert_eq!(oracle.field_count(), 2, "LRU cap respected");
        // Evicted or not, answers stay exact.
        assert_eq!(oracle.dist(p(0, 0), p(9, 9)), 18);
    }

    #[test]
    fn recycled_slot_forgets_old_field() {
        let mut grid = GridMap::filled(10, 10, CellKind::Aisle);
        grid.set_kind(p(5, 5), CellKind::Blocked);
        let mut oracle = DistanceOracle::with_field_cap(&grid, 1);
        assert_eq!(oracle.dist(p(0, 0), p(9, 9)), 18);
        // Recompute rooted elsewhere; the stale rooting must not answer.
        assert_eq!(oracle.dist(p(9, 0), p(0, 9)), 18);
        assert_eq!(oracle.field_count(), 1);
        assert_eq!(oracle.dist(p(1, 0), p(0, 0)), 1, "exact after recycling");
    }

    #[test]
    fn set_passable_evicts_and_reroutes() {
        // Open grid: Manhattan fast path, no fields.
        let grid = GridMap::filled(8, 8, CellKind::Aisle);
        let mut oracle = DistanceOracle::new(&grid);
        assert_eq!(oracle.dist(p(0, 0), p(4, 0)), 4);
        // Wall appears at (2,0)-(2,6): detours via y=7.
        for y in 0..7 {
            oracle.set_passable(p(2, y), false);
        }
        assert!(!oracle.obstacle_free());
        assert_eq!(oracle.dist(p(0, 0), p(4, 0)), 4 + 14, "detour via row 7");
        assert!(oracle.field_count() >= 1, "BFS fields in use");
        // Wall clears: fields evicted, Manhattan fast path restored.
        for y in 0..7 {
            oracle.set_passable(p(2, y), true);
        }
        assert!(oracle.obstacle_free());
        assert_eq!(oracle.field_count(), 0, "eviction dropped every field");
        assert_eq!(oracle.dist(p(0, 0), p(4, 0)), 4);
        // No-op mutation neither flips state nor evicts.
        let mut walled = DistanceOracle::new(&grid);
        walled.set_passable(p(3, 3), false);
        walled.dist(p(0, 0), p(7, 7));
        let fields = walled.field_count();
        walled.set_passable(p(3, 3), false);
        assert_eq!(walled.field_count(), fields, "idempotent set keeps fields");
    }

    #[test]
    fn memory_footprint_tracks_fields() {
        let mut grid = GridMap::filled(16, 16, CellKind::Aisle);
        grid.set_kind(p(8, 8), CellKind::Blocked);
        let mut oracle = DistanceOracle::new(&grid);
        let empty = oracle.memory_bytes();
        oracle.dist(p(0, 0), p(15, 15));
        assert!(
            oracle.memory_bytes() >= empty + 16 * 16 * 8,
            "one field adds dist+stamp arrays"
        );
    }

    #[test]
    fn poisoned_field_is_detected_evicted_and_recomputed() {
        let mut grid = GridMap::filled(10, 10, CellKind::Aisle);
        grid.set_kind(p(5, 5), CellKind::Blocked);
        let mut oracle = DistanceOracle::new(&grid);
        assert_eq!(oracle.verify_fields(), 0, "nothing live yet");
        assert!(!oracle.poison_field(7), "no field to poison");
        let clean = oracle.dist(p(0, 0), p(9, 9));
        assert_eq!(oracle.field_count(), 1);
        assert_eq!(oracle.verify_fields(), 0, "fresh field is consistent");
        assert!(oracle.poison_field(7));
        assert_eq!(oracle.verify_fields(), 1, "corruption detected");
        assert_eq!(oracle.field_count(), 0, "all fields evicted");
        assert_eq!(oracle.dist(p(0, 0), p(9, 9)), clean, "recomputed exactly");
        assert_eq!(oracle.verify_fields(), 0);
    }

    #[test]
    fn poison_salt_selects_deterministically() {
        let mut grid = GridMap::filled(10, 10, CellKind::Aisle);
        grid.set_kind(p(5, 5), CellKind::Blocked);
        let build = |salt: u64| {
            let mut oracle = DistanceOracle::new(&grid);
            oracle.dist(p(0, 0), p(9, 9));
            oracle.dist(p(0, 9), p(9, 0));
            assert!(oracle.poison_field(salt));
            oracle
        };
        let a = build(123);
        let b = build(123);
        for (sa, sb) in a.slots.iter().zip(&b.slots) {
            assert_eq!(sa.dist, sb.dist, "same salt corrupts the same cell");
        }
    }

    /// Brute force `d(a, b)`: one fresh full-grid BFS per query.
    fn brute_dist(grid: &GridMap, a: GridPos, b: GridPos) -> u64 {
        match bfs_distances(grid, a).get(b) {
            UNREACHABLE => u64::MAX,
            d => d as u64,
        }
    }

    /// Scatter obstacles deterministically from a small seed, keeping the
    /// two probe cells free.
    fn obstructed_grid(size: u16, mask: u64, keep: &[GridPos]) -> GridMap {
        let mut grid = GridMap::filled(size, size, CellKind::Aisle);
        for y in 0..size {
            for x in 0..size {
                let cell = p(x, y);
                let bit = (x as u64 * 7 + y as u64 * 13 + mask).is_multiple_of(5);
                if bit && !keep.contains(&cell) {
                    grid.set_kind(cell, CellKind::Blocked);
                }
            }
        }
        grid
    }

    proptest! {
        /// On obstacle-free grids BFS must equal Manhattan everywhere.
        #[test]
        fn bfs_equals_manhattan_on_open_grid(
            sx in 0u16..12, sy in 0u16..12, tx in 0u16..12, ty in 0u16..12
        ) {
            let grid = GridMap::filled(12, 12, CellKind::Aisle);
            let field = bfs_distances(&grid, p(sx, sy));
            prop_assert_eq!(
                field.get(p(tx, ty)) as u64,
                p(sx, sy).manhattan(p(tx, ty))
            );
        }

        /// BFS distances satisfy the triangle inequality through any cell.
        #[test]
        fn bfs_triangle(
            sx in 0u16..8, sy in 0u16..8,
            mx in 0u16..8, my in 0u16..8,
            tx in 0u16..8, ty in 0u16..8,
        ) {
            let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
            grid.set_kind(p(3, 3), CellKind::Blocked);
            prop_assume!(p(sx, sy) != p(3, 3) && p(mx, my) != p(3, 3) && p(tx, ty) != p(3, 3));
            let from_s = bfs_distances(&grid, p(sx, sy));
            let from_m = bfs_distances(&grid, p(mx, my));
            let (a, b, c) = (
                from_s.get(p(tx, ty)),
                from_s.get(p(mx, my)),
                from_m.get(p(tx, ty)),
            );
            if b != UNREACHABLE && c != UNREACHABLE {
                prop_assert!(a <= b + c);
            }
        }

        /// Interleaved queries and passability mutations: the flat oracle's
        /// eviction must keep it equal to brute-force BFS on the mutated
        /// grid for any block/unblock stream.
        #[test]
        fn oracles_agree_under_mutation(
            mask in 0u64..16,
            ops in proptest::collection::vec(
                (0u8..2, 0u16..8, 0u16..8, 0u16..8, 0u16..8), 1..20),
        ) {
            // Keep the probe cells of every op passable so queries are
            // well-defined; mutations target a disjoint fixed cell set.
            let keep: Vec<GridPos> = ops
                .iter()
                .flat_map(|&(_, ax, ay, bx, by)| [p(ax, ay), p(bx, by)])
                .collect();
            let mut grid = obstructed_grid(8, mask, &keep);
            let mut flat = DistanceOracle::with_field_cap(&grid, 2);
            // The mutable cell flips between blocked and open over the run.
            let target = p(7, 7);
            prop_assume!(!keep.contains(&target));
            let mut blocked = !grid.passable(target);
            for &(flip, ax, ay, bx, by) in &ops {
                if flip == 1 {
                    blocked = !blocked;
                    flat.set_passable(target, !blocked);
                    let kind = if blocked { CellKind::Blocked } else { CellKind::Aisle };
                    grid.set_kind(target, kind);
                }
                let (a, b) = (p(ax, ay), p(bx, by));
                prop_assert_eq!(flat.dist(a, b), brute_dist(&grid, a, b),
                    "d({}, {}) after mutations", a, b);
            }
        }

        /// The flat oracle equals per-query brute-force BFS on obstructed
        /// grids, across interleaved query streams (exercising slot reuse,
        /// symmetry flips and LRU recycling with a tiny cap).
        #[test]
        fn flat_oracle_matches_reference_bfs(
            mask in 0u64..32,
            queries in proptest::collection::vec((0u16..10, 0u16..10, 0u16..10, 0u16..10), 1..24),
        ) {
            let keep: Vec<GridPos> = queries
                .iter()
                .flat_map(|&(ax, ay, bx, by)| [p(ax, ay), p(bx, by)])
                .collect();
            let grid = obstructed_grid(10, mask, &keep);
            let mut flat = DistanceOracle::with_field_cap(&grid, 3);
            for &(ax, ay, bx, by) in &queries {
                let (a, b) = (p(ax, ay), p(bx, by));
                let expected = brute_dist(&grid, a, b);
                prop_assert_eq!(flat.dist(a, b), expected, "d({}, {})", a, b);
                // Symmetry holds on the undirected grid.
                prop_assert_eq!(flat.dist(b, a), expected);
            }
        }
    }
}
