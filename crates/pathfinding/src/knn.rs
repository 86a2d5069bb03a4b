//! K-nearest-rack index over the cells where a robot can idle (Sec. VI-A,
//! "flip requesting side").
//!
//! *"Since all racks' locations in the storage area are fixed, recording the
//! closest K racks of different grids is static and easy to maintain."* —
//! EATP traverses robots instead of racks and looks up the K racks closest
//! to each robot's cell in O(1).
//!
//! Built once from the instance with a multi-source BFS seeded at every
//! passable rack home, so "closest" means passable-grid distance on the
//! initial floor; each indexed cell keeps the `K` racks with the smallest
//! `(distance, rack id)` pairs, nearest first.
//!
//! # Indexed cells
//!
//! Lists are kept only for the cells the caller names (`at`). EATP asks
//! only where an idle robot stands, and a robot idles only on its spawn
//! cell or on its rack's home, so the planner indexes exactly those
//! (`docs/adr/ADR-025-knn-idle-cells.md`). A list equals the one an
//! every-cell build gives that cell. Asking off the index is a bug: a
//! debug build asserts, a release build answers no racks.
//!
//! # A static index
//!
//! The index is a pure function of the instance. Disruptions do not touch
//! it (`docs/adr/ADR-021-static-knn.md`): a removed rack stays in its
//! lists, and EATP's selection drops it through the engine's selectable
//! set; a blockade leaves every list as built, so a list may name a rack
//! the blockade walls off, whose pickup search then fails and retries on a
//! later tick. A resumed run rebuilds the same index from the instance.
//!
//! # Layout and build cost
//!
//! A dense per-cell slot map gives each indexed cell a row (`u32::MAX`
//! off the index). Rows live in one flat `K`-stride array (`lists[row·K
//! ..]` plus a per-row length byte), so `nearest` is one indexed lookup
//! and a slice: `cells·4 + rows·(4K+1)` bytes in all. On the paper floor
//! (40 000 cells, 2 000 racks, 500 robots, K = 16) that is 322 500 bytes.
//!
//! The build (EATP pays it inside `init`) runs the BFS one level at a time
//! over two frontiers of `(cell, rack)` pairs; the level counter is the
//! distance. It pushes exactly the pairs a per-pair visited set admits,
//! without one (`docs/adr/ADR-018-knn-level-pass.md`):
//! - a level lists its racks in id order (seeds go in id order, a child
//!   inherits its parent's rack), so one level's pushes of a rack are
//!   contiguous, and a per-cell index of the last push catches a repeat;
//! - an earlier push of the pair has been popped, since the 4-grid is
//!   bipartite: the neighbour's list is full, or it got the rack one level
//!   before and pushed the very entry being popped. Entries carry the
//!   directions that pushed them, and never push back along them.
//!
//! Every cell still counts its racks, since a full cell stops the
//! propagation, but only an indexed cell writes a list entry. The pass
//! stops at the top of a level once every indexed row holds `K` racks,
//! after counting that level's pushes, so an every-cell build makes the
//! classic build's enqueues. Its scratch (neighbour mask, per-cell counts,
//! push index, frontiers) scales with cells, not cells × racks, and is
//! freed when the pass returns.

use crate::footprint::MemoryFootprint;
use tprw_warehouse::{Direction, GridMap, GridPos, RackId};

/// The K nearest racks of each indexed cell, built once.
#[derive(Debug, Clone)]
pub struct KNearestRacks {
    width: u16,
    k: usize,
    /// Per cell, its row in `lists`; `u32::MAX` off the index.
    slot: Vec<u32>,
    /// Flat `k`-stride storage: row `i`'s nearest racks are
    /// `lists[i·k .. i·k + count[i]]`, nearest first.
    lists: Vec<RackId>,
    /// Entries per row.
    count: Vec<u8>,
    /// BFS frontier pushes of the build — a deterministic cost.
    enqueued: u64,
}

impl KNearestRacks {
    /// Build the lists of the cells `at` (repeats allowed) for
    /// `rack_homes` over `grid`.
    ///
    /// Complexity `O(HW·K)`: every cell is enqueued at most `K` times.
    pub fn build(grid: &GridMap, rack_homes: &[GridPos], at: &[GridPos], k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        assert!(k <= u8::MAX as usize, "K must fit the per-row length byte");
        assert!(rack_homes.len() < 1 << 28, "rack ids must fit 28 bits");
        let mut slot = vec![u32::MAX; grid.cell_count()];
        let mut rows = 0;
        for &pos in at {
            assert!(grid.in_bounds(pos), "indexed cell {pos} is off the grid");
            let s = &mut slot[pos.to_index(grid.width())];
            if *s == u32::MAX {
                *s = rows;
                rows += 1;
            }
        }
        let mut idx = Self {
            width: grid.width(),
            k,
            slot,
            lists: vec![RackId::new(0); rows as usize * k],
            count: vec![0; rows as usize],
            enqueued: 0,
        };
        idx.fill(grid, rack_homes);
        idx
    }

    /// The `O(HW·K)` level-order BFS behind `build`. It pushes the pairs of
    /// the classic FIFO formulation with a visited set (module docs), in
    /// order, up to the level that fills the last indexed row.
    fn fill(&mut self, grid: &GridMap, homes: &[GridPos]) {
        let (k, w) = (self.k, self.width as isize);
        let cells = self.slot.len();
        // Cell-index step per `Direction::ALL` entry, and per cell the bits
        // of the steps that land on a passable cell.
        let step =
            Direction::ALL.map(|d| (d.delta().1 as isize * w + d.delta().0 as isize) as usize);
        let mask: Vec<u8> = (0..cells)
            .map(|c| {
                let pos = GridPos::from_index(c, self.width);
                (Direction::ALL.iter().enumerate()).fold(0, |m, (i, &d)| {
                    let open = pos.step(d, grid.width(), grid.height());
                    m | u8::from(open.is_some_and(|q| grid.passable(q))) << i
                })
            })
            .collect();
        // Frontier entries are `(cell, rack << 4 | from)`, where `from` has
        // the step bit of every neighbour that pushed the pair: exactly the
        // neighbours whose lists hold the rack. `last[c]` is the index in
        // `next` of the last push to cell `c`; `held[c]` counts the racks
        // cell `c` has taken, indexed or not.
        let mut last = vec![u32::MAX; cells];
        let mut held = vec![0u8; cells];
        let (mut level, mut next) = (Vec::new(), Vec::<(u32, u32)>::new());
        for (r, &home) in homes.iter().enumerate() {
            if grid.passable(home) {
                level.push((home.to_index(self.width) as u32, (r as u32) << 4));
            }
        }
        let (slot, lists, count) = (&self.slot, &mut self.lists, &mut self.count);
        let mut full = 0;
        while !level.is_empty() {
            debug_assert!(level.windows(2).all(|p| p[0].1 >> 4 <= p[1].1 >> 4));
            self.enqueued += level.len() as u64;
            if full == count.len() {
                break;
            }
            for &(cell, packed) in &level {
                let (cell, rack) = (cell as usize, packed >> 4);
                let c = held[cell] as usize;
                if c >= k {
                    continue;
                }
                held[cell] = (c + 1) as u8;
                let row = slot[cell] as usize;
                if row < count.len() {
                    lists[row * k + c] = RackId(rack);
                    count[row] = (c + 1) as u8;
                    full += usize::from(c + 1 == k);
                }
                let open = mask[cell] & !(packed as u8 & 15);
                for (i, &off) in step.iter().enumerate() {
                    let n = cell.wrapping_add(off);
                    if open >> i & 1 == 0 || held[n] as usize >= k {
                        continue;
                    }
                    // `Direction::ALL` is N, E, S, W: the way back is two on.
                    let back = 1 << ((i + 2) % 4);
                    match next.get_mut(last[n] as usize) {
                        Some(e) if e.0 as usize == n && e.1 >> 4 == rack => e.1 |= back,
                        _ => {
                            last[n] = next.len() as u32;
                            next.push((n as u32, rack << 4 | back));
                        }
                    }
                }
            }
            std::mem::swap(&mut level, &mut next);
            next.clear();
        }
    }

    /// The up-to-K racks nearest to `pos`, nearest first. `pos` must be
    /// indexed; off the index a release build answers no racks.
    #[inline]
    pub fn nearest(&self, pos: GridPos) -> &[RackId] {
        let row = self.slot[pos.to_index(self.width)] as usize;
        debug_assert!(row != u32::MAX as usize, "{pos} is off the K-nearest index");
        let Some(&len) = self.count.get(row) else {
            return &[];
        };
        &self.lists[row * self.k..][..len as usize]
    }

    /// The configured K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// BFS frontier pushes of the build (`O(HW·K)`): a deterministic cost.
    pub fn enqueued_count(&self) -> u64 {
        self.enqueued
    }
}

impl MemoryFootprint for KNearestRacks {
    fn memory_bytes(&self) -> usize {
        self.slot.capacity() * std::mem::size_of::<u32>()
            + self.lists.capacity() * std::mem::size_of::<RackId>()
            + self.count.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashSet, VecDeque};
    use tprw_warehouse::CellKind;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn open_grid(w: u16, h: u16) -> GridMap {
        GridMap::filled(w, h, CellKind::Aisle)
    }

    /// Every cell of `grid`, walls included: the `at` of an every-cell
    /// index.
    fn every_cell(grid: &GridMap) -> Vec<GridPos> {
        (0..grid.cell_count())
            .map(|c| GridPos::from_index(c, grid.width()))
            .collect()
    }

    /// A `w`×`h` floor with `walls` blocked and a rack at each of `homes`,
    /// both drawn over 24×24 and folded onto the floor. Homes may repeat
    /// (racks sharing a cell) and may land on a wall (a rack that seeds
    /// nothing).
    fn obstructed(
        (w, h): (u16, u16),
        walls: &[(u16, u16)],
        homes: &[(u16, u16)],
    ) -> (GridMap, Vec<GridPos>) {
        let mut grid = open_grid(w, h);
        for &(x, y) in walls {
            grid.set_kind(p(x % w, y % h), CellKind::Blocked);
        }
        (grid, homes.iter().map(|&(x, y)| p(x % w, y % h)).collect())
    }

    /// A fixed obstructed 32×32 floor: two shelving walls with gaps, a
    /// scatter of pillars, and 24 racks, two of them sharing a home.
    fn pinned_floor() -> (GridMap, Vec<GridPos>) {
        let mut grid = open_grid(32, 32);
        for i in (0..32).filter(|i| i % 8 != 3) {
            grid.set_kind(p(10, i), CellKind::Blocked);
            grid.set_kind(p(i, 21), CellKind::Blocked);
        }
        for c in (0..1024).filter(|c| c % 17 == 5) {
            grid.set_kind(GridPos::from_index(c, 32), CellKind::Blocked);
        }
        let mut homes: Vec<GridPos> = (0..23)
            .map(|i| p((i * 5 + 1) % 32, (i * 11 + 2) % 32))
            .collect();
        homes.push(homes[4]);
        (grid, homes)
    }

    /// Grid distance from `from` to every cell (`None`: unreachable).
    fn grid_distances(grid: &GridMap, from: GridPos) -> Vec<Option<u32>> {
        let mut dist = vec![None; grid.cell_count()];
        let mut queue = VecDeque::from([(from, 0)]);
        dist[from.to_index(grid.width())] = Some(0);
        while let Some((pos, d)) = queue.pop_front() {
            for next in grid.passable_neighbors(pos) {
                let slot = &mut dist[next.to_index(grid.width())];
                if slot.is_none() {
                    *slot = Some(d + 1);
                    queue.push_back((next, d + 1));
                }
            }
        }
        dist
    }

    #[test]
    fn single_rack_everywhere() {
        let grid = open_grid(6, 6);
        let idx = KNearestRacks::build(&grid, &[p(3, 3)], &every_cell(&grid), 2);
        for y in 0..6 {
            for x in 0..6 {
                assert_eq!(idx.nearest(p(x, y)), &[RackId::new(0)]);
            }
        }
    }

    #[test]
    fn nearest_first_ordering() {
        let grid = open_grid(10, 3);
        // Racks at x = 0 and x = 9 on the middle row.
        let idx = KNearestRacks::build(&grid, &[p(0, 1), p(9, 1)], &every_cell(&grid), 2);
        assert_eq!(idx.nearest(p(1, 1))[0], RackId::new(0));
        assert_eq!(idx.nearest(p(8, 1))[0], RackId::new(1));
        assert_eq!(idx.nearest(p(1, 1)).len(), 2);
    }

    #[test]
    fn k_limits_list_length() {
        let grid = open_grid(8, 8);
        let homes: Vec<GridPos> = (0..6).map(|i| p(i, 0)).collect();
        let idx = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 3);
        for y in 0..8 {
            for x in 0..8 {
                assert!(idx.nearest(p(x, y)).len() <= 3);
                assert_eq!(idx.nearest(p(x, y)).len(), 3, "enough racks exist");
            }
        }
    }

    #[test]
    fn tie_break_by_rack_id() {
        let grid = open_grid(5, 1);
        // Two racks equidistant from the center cell.
        let idx = KNearestRacks::build(&grid, &[p(0, 0), p(4, 0)], &every_cell(&grid), 1);
        assert_eq!(idx.nearest(p(2, 0)), &[RackId::new(0)], "lower id wins tie");
    }

    #[test]
    fn respects_walls() {
        let mut grid = open_grid(5, 3);
        // Wall separating left and right halves except via the bottom row.
        grid.set_kind(p(2, 0), CellKind::Blocked);
        grid.set_kind(p(2, 1), CellKind::Blocked);
        let idx = KNearestRacks::build(&grid, &[p(0, 0), p(4, 0)], &every_cell(&grid), 1);
        // Cell (3,0) is 1 from rack 1, but rack 0 requires the detour.
        assert_eq!(idx.nearest(p(3, 0)), &[RackId::new(1)]);
    }

    #[test]
    fn rebuild_cost_counter_is_deterministic_and_bounded() {
        let grid = open_grid(16, 16);
        let homes: Vec<GridPos> = (0..8).map(|i| p(i * 2, 8)).collect();
        let a = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 4);
        let build_cost = a.enqueued_count();
        assert!(build_cost > 0);
        // Loose bound: each (cell, rack) pair enters the frontier at most
        // once.
        let bound = (grid.cell_count() * homes.len()) as u64;
        assert!(build_cost <= bound, "{build_cost} > {bound}");
        let b = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 4);
        assert_eq!(b.enqueued_count(), build_cost, "deterministic");
    }

    /// The level-order pass makes exactly the enqueues of the visited-bitset
    /// FIFO it replaced: the count that build recorded on this floor.
    #[test]
    fn build_enqueues_are_pinned() {
        let (grid, homes) = pinned_floor();
        let idx = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 8);
        assert_eq!(idx.enqueued_count(), PINNED_ENQUEUES);
        assert_eq!(classic_build(&grid, &homes, 8).1, PINNED_ENQUEUES);
    }

    /// After `build` the index holds its slot map, lists and per-row
    /// counts, `cells·4 + |at|·(4K+1)` bytes: no frontier, per-cell count,
    /// visited set, per-rack table or other scratch.
    #[test]
    fn build_keeps_no_scratch() {
        let (grid, homes) = pinned_floor();
        let (cells, k) = (grid.cell_count(), 8);
        let some: Vec<GridPos> = every_cell(&grid).into_iter().step_by(7).collect();
        for at in [every_cell(&grid), some] {
            let idx = KNearestRacks::build(&grid, &homes, &at, k);
            assert_eq!(idx.memory_bytes(), cells * 4 + at.len() * (4 * k + 1));
        }
    }

    /// A cell named twice in `at` gets one row.
    #[test]
    fn repeated_cells_share_a_row() {
        let grid = open_grid(6, 6);
        let homes = [p(0, 0), p(5, 5)];
        let once = KNearestRacks::build(&grid, &homes, &[p(2, 2)], 2);
        let twice = KNearestRacks::build(&grid, &homes, &[p(2, 2), p(2, 2)], 2);
        assert_eq!(twice.memory_bytes(), once.memory_bytes());
        assert_eq!(twice.nearest(p(2, 2)), once.nearest(p(2, 2)));
    }

    /// Asking off the index is a bug: debug builds assert, release builds
    /// answer no racks.
    #[test]
    fn off_the_index_answers_nothing() {
        let grid = open_grid(6, 6);
        let idx = KNearestRacks::build(&grid, &[p(0, 0)], &[p(1, 1)], 2);
        assert_eq!(idx.nearest(p(1, 1)), &[RackId::new(0)]);
        let off = std::panic::catch_unwind(|| idx.nearest(p(4, 4)).len());
        if cfg!(debug_assertions) {
            assert!(off.is_err(), "debug builds assert off the index");
        } else {
            assert_eq!(off.ok(), Some(0));
        }
    }

    #[test]
    fn memory_footprint_scales_with_k() {
        let grid = open_grid(20, 20);
        let homes: Vec<GridPos> = (0..10).map(|i| p(i, 10)).collect();
        let small = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 1);
        let large = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 8);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    proptest! {
        /// The first entry of each list is a true nearest rack (Manhattan,
        /// since the test grid is open).
        #[test]
        fn first_entry_is_nearest(
            homes in proptest::collection::hash_set((0u16..10, 0u16..10), 1..8),
            qx in 0u16..10, qy in 0u16..10,
        ) {
            let grid = open_grid(10, 10);
            let homes: Vec<GridPos> =
                homes.into_iter().map(|(x, y)| p(x, y)).collect();
            let idx = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 3);
            let q = p(qx, qy);
            let reported = idx.nearest(q)[0];
            let best = homes
                .iter()
                .map(|h| h.manhattan(q))
                .min()
                .expect("non-empty");
            prop_assert_eq!(homes[reported.index()].manhattan(q), best);
        }

        /// On obstructed floors up to 24×24 with 1–40 racks (homes may be
        /// shared or walled) and K in 1..=8, and on the same floors without
        /// walls (where every cell fills, so the pass stops early), `build`
        /// gives the classic build's lists after the classic build's
        /// number of enqueues.
        #[test]
        fn flat_build_equals_classic_build(
            size in (1u16..25, 1u16..25),
            walls in proptest::collection::vec((0u16..24, 0u16..24), 0..150),
            homes in proptest::collection::vec((0u16..24, 0u16..24), 1..41),
            k in 1usize..9,
        ) {
            for walls in [&walls[..], &[]] {
                let (grid, homes) = obstructed(size, walls, &homes);
                let idx = KNearestRacks::build(&grid, &homes, &every_cell(&grid), k);
                let (want, enqueued) = classic_build(&grid, &homes, k);
                prop_assert_eq!(idx.enqueued_count(), enqueued);
                for (i, want) in want.iter().enumerate() {
                    let cell = GridPos::from_index(i, size.0);
                    prop_assert_eq!(idx.nearest(cell), want.as_slice(), "build differs at {}", cell);
                }
            }
        }

        /// On the same floors, an index over a random subset of the cells
        /// (repeats allowed) gives every indexed cell the every-cell
        /// build's list, though its pass may stop levels earlier.
        #[test]
        fn indexed_cells_equal_every_cell_build(
            size in (1u16..25, 1u16..25),
            walls in proptest::collection::vec((0u16..24, 0u16..24), 0..150),
            homes in proptest::collection::vec((0u16..24, 0u16..24), 1..41),
            at in proptest::collection::vec((0u16..24, 0u16..24), 0..60),
            k in 1usize..9,
        ) {
            let (grid, homes) = obstructed(size, &walls, &homes);
            let at: Vec<GridPos> = at.iter().map(|&(x, y)| p(x % size.0, y % size.1)).collect();
            let every = KNearestRacks::build(&grid, &homes, &every_cell(&grid), k);
            let idx = KNearestRacks::build(&grid, &homes, &at, k);
            prop_assert!(idx.enqueued_count() <= every.enqueued_count());
            for &cell in &at {
                prop_assert_eq!(idx.nearest(cell), every.nearest(cell), "index differs at {}", cell);
            }
        }

        /// Each list is the K smallest `(grid distance, rack id)` pairs
        /// over the racks whose passable home reaches the cell.
        #[test]
        fn distances_are_grid_distances(
            size in (1u16..17, 1u16..17),
            walls in proptest::collection::vec((0u16..24, 0u16..24), 0..60),
            homes in proptest::collection::vec((0u16..24, 0u16..24), 1..21),
            k in 1usize..9,
        ) {
            let (grid, homes) = obstructed(size, &walls, &homes);
            let idx = KNearestRacks::build(&grid, &homes, &every_cell(&grid), k);
            let walled = vec![None; grid.cell_count()];
            let fields: Vec<Vec<Option<u32>>> = (homes.iter())
                .map(|&h| if grid.passable(h) { grid_distances(&grid, h) } else { walled.clone() })
                .collect();
            for c in 0..grid.cell_count() {
                let mut want: Vec<(u32, RackId)> = (fields.iter().enumerate())
                    .filter_map(|(r, field)| Some((field[c]?, RackId::new(r))))
                    .collect();
                want.sort_unstable();
                want.truncate(k);
                let got: Vec<(u32, RackId)> = (idx.nearest(GridPos::from_index(c, size.0)).iter())
                    .map(|&r| (fields[r.index()][c].expect("a listed rack reaches the cell"), r))
                    .collect();
                prop_assert_eq!(got, want, "cell {}", c);
            }
        }
    }

    /// Enqueues of the visited-bitset build on `pinned_floor` at K = 8, as
    /// that build recorded them before the level-order pass replaced it.
    const PINNED_ENQUEUES: u64 = 7_513;

    /// The classic build: a FIFO of `(cell, rack)` pairs into nested
    /// `Vec`s, each pair enqueued at most once through a visited set. It is
    /// the behavioural reference for the level-order pass, which must give
    /// the same lists after the same number of enqueues (returned beside
    /// the lists).
    fn classic_build(grid: &GridMap, homes: &[GridPos], k: usize) -> (Vec<Vec<RackId>>, u64) {
        let mut lists: Vec<Vec<RackId>> = vec![Vec::new(); grid.cell_count()];
        let mut visited = HashSet::new();
        let mut queue = VecDeque::new();
        for (i, &home) in homes.iter().enumerate() {
            if grid.passable(home) {
                visited.insert((home, i));
                queue.push_back((home, i));
            }
        }
        let mut enqueued = queue.len() as u64;
        while let Some((pos, rack)) = queue.pop_front() {
            let list = &mut lists[pos.to_index(grid.width())];
            if list.len() >= k {
                continue;
            }
            list.push(RackId::new(rack));
            for next in grid.passable_neighbors(pos) {
                if lists[next.to_index(grid.width())].len() < k && visited.insert((next, rack)) {
                    queue.push_back((next, rack));
                    enqueued += 1;
                }
            }
        }
        (lists, enqueued)
    }
}
