//! K-nearest-rack index over the cells where a robot can idle (Sec. VI-A,
//! "flip requesting side").
//!
//! *"Since all racks' locations in the storage area are fixed, recording the
//! closest K racks of different grids is static and easy to maintain."* —
//! EATP traverses robots instead of racks and looks up the K racks closest
//! to each robot's cell in O(1).
//!
//! Built once from the instance, ranking the racks whose home is passable
//! by Manhattan distance: each indexed cell keeps the `K` racks with the
//! smallest `(distance, rack id)` pairs, nearest first. Every generated
//! floor's passable cells fill their bounding box, so there Manhattan
//! distance is grid distance. On a hand-built obstructed floor a list is a
//! shortlist by straight-line reach; Eq. 2's costs and the A\* legs still
//! use true distances (`docs/adr/ADR-027-manhattan-knn.md`).
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
//! One bit per cell marks the indexed cells, and a per-word rank counts
//! the marked cells in the words before it, so an indexed cell's row is
//! its rank: `rank[c / 64]` plus the marked bits below it in its word.
//! Every row holds the same number of racks, `len = min(K, passable rack
//! homes)`, because the diamond scan below grows until it holds `K` racks
//! or covers the floor. Rows live in one flat `len`-stride array, so
//! `nearest` is one word read, one popcount and a slice: `⌈cells/64⌉·12 +
//! rows·len·4` bytes in all. On the paper floor (40 000 cells, 2 000
//! racks, 500 robots, K = 16) that is 7 500 + 160 000 = 167 500 bytes
//! (`docs/adr/ADR-040-knn-rank-rows.md`).
//!
//! The build (EATP pays it inside `init`) buckets the rack ids per cell,
//! row-major, so the racks of one row segment are one contiguous span.
//! Around each indexed cell it grows a diamond of Manhattan radius 1, 2,
//! 4, … until the diamond holds `K` racks or covers the floor, gathering
//! one span per grid row. The `K` smallest `(distance, rack id)` pairs of
//! the diamond are the list: any rack outside it is farther than all of
//! them. The buckets are freed when `build` returns.

use crate::footprint::MemoryFootprint;
use tprw_warehouse::{GridMap, GridPos, RackId};

/// The K nearest racks of each indexed cell, built once. The default index
/// indexes no cell (an EATP planner's before `init` builds its own).
#[derive(Debug, Clone, Default)]
pub struct KNearestRacks {
    width: u16,
    k: usize,
    /// One bit per cell, set where the cell is indexed.
    bits: Vec<u64>,
    /// Per word of `bits`, the set bits in the words before it: the row
    /// of the word's first indexed cell.
    rank: Vec<u32>,
    /// Racks per row, `min(K, passable rack homes)`.
    len: usize,
    /// Flat `len`-stride storage: row `i`'s nearest racks are
    /// `lists[i·len..][..len]`, nearest first.
    lists: Vec<RackId>,
}

impl KNearestRacks {
    /// Build the lists of the cells `at` (repeats allowed) for
    /// `rack_homes` over `grid`.
    ///
    /// Complexity `O(HW + racks + rows·(D + n log n))`, where `D` is the
    /// Manhattan radius that holds a row's `K` racks and `n` the racks
    /// within `2D`.
    pub fn build(grid: &GridMap, rack_homes: &[GridPos], at: &[GridPos], k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        let mut bits = vec![0u64; grid.cell_count().div_ceil(64)];
        for &pos in at {
            assert!(grid.in_bounds(pos), "indexed cell {pos} is off the grid");
            let c = pos.to_index(grid.width());
            bits[c / 64] |= 1 << (c % 64);
        }
        let mut rows = 0;
        let rank = (bits.iter())
            .map(|word| {
                let before = rows;
                rows += word.count_ones();
                before
            })
            .collect();
        let passable = rack_homes.iter().filter(|&&home| grid.passable(home));
        let len = passable.count().min(k);
        let mut idx = Self {
            width: grid.width(),
            k,
            bits,
            rank,
            len,
            lists: vec![RackId::new(0); rows as usize * len],
        };
        idx.fill(grid, rack_homes);
        idx
    }

    /// The diamond scan behind `build` (module docs).
    fn fill(&mut self, grid: &GridMap, homes: &[GridPos]) {
        if self.lists.is_empty() {
            return;
        }
        let (k, w, h) = (self.k, grid.width() as usize, grid.height() as usize);
        // Cell `c`'s racks are `ids[start[c]..start[c + 1]]`: count, sum,
        // then place the racks in reverse so each bucket ascends.
        let seeds = || {
            (homes.iter().enumerate())
                .filter(|&(_, &home)| grid.passable(home))
                .map(|(r, home)| (home.to_index(grid.width()), r as u32))
        };
        let mut start = vec![0u32; w * h + 1];
        for (c, _) in seeds() {
            start[c] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut ids = vec![0u32; start[w * h] as usize];
        for (c, r) in seeds().rev() {
            start[c] -= 1;
            ids[start[c] as usize] = r;
        }
        // The racks within radius `r` of `(x, y)`, keyed `distance << 32 |
        // id`: one bucket span per grid row of the diamond.
        let mut near = Vec::new();
        let bits = &self.bits;
        let cells = (0..w * h).filter(|&c| bits[c / 64] >> (c % 64) & 1 == 1);
        for (cell, list) in cells.zip(self.lists.chunks_exact_mut(self.len)) {
            let (x, y) = (cell % w, cell / w);
            let reach = x.max(w - 1 - x) + y.max(h - 1 - y);
            let mut r = 1;
            loop {
                near.clear();
                for ry in y.saturating_sub(r)..=(y + r).min(h - 1) {
                    let (dy, base) = (ry.abs_diff(y), ry * w);
                    let lo = base + x.saturating_sub(r - dy);
                    let hi = base + (x + r - dy).min(w - 1);
                    let span = &ids[start[lo] as usize..start[hi + 1] as usize];
                    near.extend(span.iter().map(|&id| {
                        let dx = usize::from(homes[id as usize].x).abs_diff(x);
                        ((dx + dy) as u64) << 32 | u64::from(id)
                    }));
                }
                if near.len() >= k || r >= reach {
                    break;
                }
                r = (2 * r).min(reach);
            }
            // Every row fills: the diamond stops at K racks or holds them all.
            debug_assert_eq!(near.len().min(k), self.len, "row of cell {cell}");
            near.sort_unstable();
            for (entry, &key) in list.iter_mut().zip(&near) {
                *entry = RackId(key as u32);
            }
        }
    }

    /// The up-to-K racks nearest to `pos`, nearest first. `pos` must be
    /// indexed; off the index a release build answers no racks.
    #[inline]
    pub fn nearest(&self, pos: GridPos) -> &[RackId] {
        let c = pos.to_index(self.width);
        let (word, bit) = (self.bits[c / 64], c % 64);
        let indexed = word >> bit & 1 == 1;
        debug_assert!(indexed, "{pos} is off the K-nearest index");
        if !indexed {
            return &[];
        }
        let row = self.rank[c / 64] + (word & ((1 << bit) - 1)).count_ones();
        &self.lists[row as usize * self.len..][..self.len]
    }

    /// The configured K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl MemoryFootprint for KNearestRacks {
    fn memory_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
            + self.rank.capacity() * std::mem::size_of::<u32>()
            + self.lists.capacity() * std::mem::size_of::<RackId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
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

    /// Grid distance from `from` to every cell by BFS; `None` where the
    /// walls cut it off.
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

    /// A wall ranks nothing by itself: a rack homed on a wall is listed
    /// nowhere, and a wall between a cell and a rack leaves the rack at
    /// its Manhattan distance (`docs/adr/ADR-027-manhattan-knn.md`).
    #[test]
    fn respects_walls() {
        let mut grid = open_grid(5, 3);
        // Wall separating left and right halves except via the bottom row.
        grid.set_kind(p(2, 0), CellKind::Blocked);
        grid.set_kind(p(2, 1), CellKind::Blocked);
        let homes = [p(0, 0), p(4, 0), p(2, 1)];
        let idx = KNearestRacks::build(&grid, &homes, &every_cell(&grid), 3);
        // Cell (3,0) is 1 from rack 1; rack 0 is 3 away across the wall.
        assert_eq!(idx.nearest(p(3, 0)), &[RackId::new(1), RackId::new(0)]);
        // Cell (1,0) is 1 from rack 0 and 3 from rack 1, wall or not.
        assert_eq!(idx.nearest(p(1, 0)), &[RackId::new(0), RackId::new(1)]);
        for cell in every_cell(&grid) {
            assert!(
                !idx.nearest(cell).contains(&RackId::new(2)),
                "walled home listed at {cell}"
            );
        }
    }

    /// After `build` the index holds its bitmap, ranks and rows,
    /// `⌈cells/64⌉·12 + |at|·len·4` bytes with `len = min(K, passable
    /// homes)`: no frontier, per-cell count, visited set, per-rack table
    /// or other scratch.
    #[test]
    fn build_keeps_no_scratch() {
        let (grid, homes) = pinned_floor();
        let (cells, k) = (grid.cell_count(), 8);
        let some: Vec<GridPos> = every_cell(&grid).into_iter().step_by(7).collect();
        for homes in [&homes[..], &homes[..5]] {
            let len = homes.iter().filter(|&&h| grid.passable(h)).count().min(k);
            for at in [every_cell(&grid), some.clone()] {
                let idx = KNearestRacks::build(&grid, homes, &at, k);
                assert_eq!(
                    idx.memory_bytes(),
                    cells.div_ceil(64) * 12 + at.len() * len * 4
                );
            }
        }
    }

    /// Rows cross the bitmap's word boundaries: on a 13×11 floor (143
    /// cells, the last word partly used) an index over cells 0, 63, 64,
    /// 66, 127 and 142, named out of order and one of them twice, gives
    /// each the every-cell build's list, and cell 65, unindexed between
    /// two indexed cells of one word, answers no racks in release. With
    /// fewer passable racks than K every row holds all of them, and with
    /// none every row is empty.
    #[test]
    fn rows_cross_bitmap_words() {
        let mut grid = open_grid(13, 11);
        grid.set_kind(GridPos::from_index(100, 13), CellKind::Blocked);
        let cells = [127, 0, 142, 64, 66, 63, 127];
        let at: Vec<GridPos> = cells.iter().map(|&c| GridPos::from_index(c, 13)).collect();
        let many: Vec<GridPos> = (0..30)
            .map(|i| GridPos::from_index(i * 37 % 143, 13))
            .collect();
        let few = [p(0, 0), GridPos::from_index(100, 13), p(12, 10)];
        for (homes, len) in [(&many[..], 8), (&few[..], 2), (&few[1..2], 0)] {
            let every = KNearestRacks::build(&grid, homes, &every_cell(&grid), 8);
            let idx = KNearestRacks::build(&grid, homes, &at, 8);
            assert_eq!(idx.memory_bytes(), 3 * 12 + 6 * len * 4);
            for &cell in &at {
                assert_eq!(idx.nearest(cell), every.nearest(cell), "cell {cell}");
                assert_eq!(idx.nearest(cell).len(), len, "cell {cell}");
            }
            let off = std::panic::catch_unwind(|| idx.nearest(GridPos::from_index(65, 13)).len());
            if cfg!(debug_assertions) {
                assert!(off.is_err(), "debug builds assert off the index");
            } else {
                assert_eq!(off.ok(), Some(0));
            }
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

        /// The flat diamond-scan build equals the classic build: on floors
        /// up to 24×24 with 1–40 racks (homes may be shared or walled),
        /// with and without walls, and K in 1..=8, every cell's list is a
        /// brute-force sort of `(Manhattan distance, rack id)` over the
        /// passable homes, truncated to K. Walls do not bend the ranking
        /// (`docs/adr/ADR-027-manhattan-knn.md`).
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
                for cell in every_cell(&grid) {
                    let mut want: Vec<(u64, RackId)> = (homes.iter().enumerate())
                        .filter(|&(_, &h)| grid.passable(h))
                        .map(|(r, h)| (h.manhattan(cell), RackId::new(r)))
                        .collect();
                    want.sort_unstable();
                    want.truncate(k);
                    let want: Vec<RackId> = want.into_iter().map(|(_, r)| r).collect();
                    prop_assert_eq!(idx.nearest(cell), want.as_slice(), "cell {}", cell);
                }
            }
        }

        /// Where the passable cells fill their bounding box, as on every
        /// generated floor, each passable cell's list is its K nearest
        /// racks by grid distance: the top K `(BFS distance, rack id)`
        /// pairs from per-rack fields. The floors are up to 16×16 inside
        /// a wall margin of 0–2 cells per side, with 1–20 racks (homes may
        /// be shared or on the margin) and K in 1..=8.
        #[test]
        fn distances_are_grid_distances(
            size in (1u16..17, 1u16..17),
            margin in (0u16..3, 0u16..3, 0u16..3, 0u16..3),
            homes in proptest::collection::vec((0u16..24, 0u16..24), 1..21),
            k in 1usize..9,
        ) {
            let (left, right, top, bottom) = margin;
            let (w, h) = (size.0 + left + right, size.1 + top + bottom);
            let walls: Vec<(u16, u16)> = (0..w)
                .flat_map(|x| (0..h).map(move |y| (x, y)))
                .filter(|&(x, y)| x < left || x >= w - right || y < top || y >= h - bottom)
                .collect();
            let (grid, homes) = obstructed((w, h), &walls, &homes);
            let idx = KNearestRacks::build(&grid, &homes, &every_cell(&grid), k);
            let walled = vec![None; grid.cell_count()];
            let fields: Vec<Vec<Option<u32>>> = (homes.iter())
                .map(|&h| if grid.passable(h) { grid_distances(&grid, h) } else { walled.clone() })
                .collect();
            for c in (0..grid.cell_count()).filter(|&c| grid.passable(GridPos::from_index(c, w))) {
                let mut want: Vec<(u32, RackId)> = (fields.iter().enumerate())
                    .filter_map(|(r, field)| Some((field[c]?, RackId::new(r))))
                    .collect();
                want.sort_unstable();
                want.truncate(k);
                let got: Vec<(u32, RackId)> = (idx.nearest(GridPos::from_index(c, w)).iter())
                    .map(|&r| (fields[r.index()][c].expect("a listed rack reaches the cell"), r))
                    .collect();
                prop_assert_eq!(got, want, "cell {}", c);
            }
        }

        /// On the same floors, an index over a random subset of the cells
        /// (repeats allowed) gives every indexed cell the every-cell
        /// build's list, and in release every other cell no racks. The
        /// floors' cell counts are mostly not multiples of 64, so rows
        /// cross the bitmap's words and its last word is partly used.
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
            for &cell in &at {
                prop_assert_eq!(idx.nearest(cell), every.nearest(cell), "index differs at {}", cell);
            }
            if !cfg!(debug_assertions) {
                for cell in every_cell(&grid).into_iter().filter(|c| !at.contains(c)) {
                    prop_assert_eq!(idx.nearest(cell), &[], "off-index cell {}", cell);
                }
            }
        }
    }
}
