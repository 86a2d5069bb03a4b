//! Uncongested delivery distances: a rack's home to its own station.
//!
//! The one grid distance the planners ask is Eq. 2's delivery term, from a
//! rack's home `l_r` to its picker's station `l_p` ignoring other robots,
//! and [`DistanceOracle::to_station`] answers only that:
//!
//! * **Manhattan wherever it is exact**: when the passable cells fill
//!   their bounding box, a staircase path between two of them stays in the
//!   box and has Manhattan length. Open floors and the paper's walled floor
//!   (side columns and top row blocked, station row open) qualify. The box
//!   is fixed at build time and one misfit counter, kept by
//!   [`DistanceOracle::set_passable`], makes the check O(1).
//! * **One exact A* query otherwise**, from the rack home to the station
//!   over the oracle's passability snapshot: 4-connected, unit cost,
//!   Manhattan heuristic (`docs/adr/ADR-043-station-distance-search.md`).
//!   Nothing is kept between queries but the search buffers, so a
//!   blockade or reopening only flips one cell of the snapshot.
//!
//! Pickup distances are not asked here: the planners rank robots by
//! Manhattan distance to the rack.

use crate::footprint::MemoryFootprint;
use crate::scratch::Dial;
use tprw_warehouse::{GridMap, GridPos, PickerId};

/// Delivery-distance oracle: Manhattan while the free floor is a
/// rectangle, one exact A* query otherwise (see the module docs).
#[derive(Debug)]
pub struct DistanceOracle {
    width: u16,
    passable: Box<[bool]>,
    /// Bounding box `(x0, y0, x1, y1)` (inclusive) of the passable cells at
    /// build time; empty (`x0 > x1`) on a floor with none.
    bbox: (u16, u16, u16, u16),
    /// Blocked cells inside `bbox` plus passable cells outside it.
    misfits: usize,
    /// Station cell per picker index.
    stations: Box<[GridPos]>,
    /// Best cost found per cell as `(generation, g)`: a cell whose stamp is
    /// not the current query's is undiscovered. Empty until the first
    /// query off the Manhattan path.
    best: Box<[(u32, u32)]>,
    /// The current query's stamp in `best`.
    generation: u32,
    /// Open list, bucketed by `(f - h(from)) / 2`: every step changes the
    /// Manhattan heuristic by one, so `f` keeps the parity of `h(from)`.
    open: Dial,
}

impl DistanceOracle {
    /// Build an oracle over a passability snapshot of the grid (the grid
    /// itself is not retained) for the stations at `stations`, indexed by
    /// picker.
    pub fn new(grid: &GridMap, stations: &[GridPos]) -> Self {
        let (width, height) = (grid.width(), grid.height());
        let mut passable = vec![false; grid.cell_count()].into_boxed_slice();
        let (mut x0, mut y0, mut x1, mut y1) = (u16::MAX, u16::MAX, 0, 0);
        let mut open = 0;
        for y in 0..height {
            for x in 0..width {
                let p = GridPos::new(x, y);
                if grid.passable(p) {
                    passable[p.to_index(width)] = true;
                    open += 1;
                    (x0, y0, x1, y1) = (x0.min(x), y0.min(y), x1.max(x), y1.max(y));
                }
            }
        }
        // Every passable cell lies inside its own bounding box, so the
        // misfits are the box's blocked cells (an empty box has area 0).
        let area = (x1 + 1).saturating_sub(x0) as usize * (y1 + 1).saturating_sub(y0) as usize;
        Self {
            width,
            passable,
            bbox: (x0, y0, x1, y1),
            misfits: area - open,
            stations: stations.into(),
            best: Box::default(),
            generation: 0,
            open: Dial::default(),
        }
    }

    /// Whether Manhattan distance is exact: the passable cells fill the
    /// bounding box fixed at build time.
    #[inline]
    pub fn manhattan_exact(&self) -> bool {
        self.misfits == 0
    }

    /// Mutate the passability snapshot: a cell was blockaded or reopened by
    /// a disruption event.
    pub fn set_passable(&mut self, pos: GridPos, passable: bool) {
        let i = pos.to_index(self.width);
        if self.passable[i] == passable {
            return;
        }
        self.passable[i] = passable;
        let (x0, y0, x1, y1) = self.bbox;
        let inside = (x0..=x1).contains(&pos.x) && (y0..=y1).contains(&pos.y);
        // A cell fits when it is passable exactly inside the box.
        if inside == passable {
            self.misfits -= 1;
        } else {
            self.misfits += 1;
        }
    }

    /// Uncongested travel delay from `from` to `station`'s cell
    /// (`u64::MAX` when disconnected).
    pub fn to_station(&mut self, from: GridPos, station: PickerId) -> u64 {
        let to = self.stations[station.index()];
        let ends_open =
            self.passable[from.to_index(self.width)] && self.passable[to.to_index(self.width)];
        if !ends_open {
            u64::MAX
        } else if self.misfits == 0 {
            from.manhattan(to)
        } else {
            self.search(from, to)
        }
    }

    /// A* from `from` to `to`, both passable: the length of a shortest
    /// 4-connected walk over passable cells, `u64::MAX` when `to` is not
    /// in `from`'s component. The Manhattan heuristic is consistent, so the
    /// goal's first pop is exact, and an entry whose cell has since been
    /// reached more cheaply is skipped at its pop.
    fn search(&mut self, from: GridPos, to: GridPos) -> u64 {
        let width = self.width;
        let height = (self.passable.len() / width as usize) as u16;
        if self.best.is_empty() {
            self.best = vec![(0, 0); self.passable.len()].into_boxed_slice();
        }
        if self.generation == u32::MAX {
            // Stamp wrap: reset once every 2³² queries.
            self.best.fill((0, 0));
            self.generation = 0;
        }
        self.generation += 1;
        let generation = self.generation;
        let h0 = from.manhattan(to);
        let bucket =
            |g: u32, cell: GridPos| ((u64::from(g) + cell.manhattan(to) - h0) / 2) as usize;
        self.best[from.to_index(width)] = (generation, 0);
        self.open.push(0, (from.to_index(width) as u32, 0));
        let mut answer = u64::MAX;
        while let Some((i, g)) = self.open.pop() {
            if self.best[i as usize].1 < g {
                continue;
            }
            let cell = GridPos::from_index(i as usize, width);
            if cell == to {
                answer = u64::from(g);
                break;
            }
            for next in cell.neighbors4(width, height) {
                let j = next.to_index(width);
                let (stamp, old) = self.best[j];
                if self.passable[j] && (stamp != generation || old > g + 1) {
                    self.best[j] = (generation, g + 1);
                    self.open.push(bucket(g + 1, next), (j as u32, g + 1));
                }
            }
        }
        self.open.clear();
        answer
    }
}

impl MemoryFootprint for DistanceOracle {
    fn memory_bytes(&self) -> usize {
        self.passable.len() * std::mem::size_of::<bool>()
            + std::mem::size_of_val(&*self.best)
            + self.open.memory_bytes()
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

    fn s(index: usize) -> PickerId {
        PickerId::new(index)
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

    /// Every cell of `grid`, row-major.
    fn cells(grid: &GridMap) -> impl Iterator<Item = GridPos> + '_ {
        (0..grid.cell_count()).map(|i| GridPos::from_index(i, grid.width()))
    }

    /// `oracle.to_station` from every cell to every station equals a fresh
    /// brute-force BFS from that station on `grid`.
    fn check_every_pair(
        oracle: &mut DistanceOracle,
        grid: &GridMap,
        stations: &[GridPos],
    ) -> Result<(), TestCaseError> {
        for (k, &station) in stations.iter().enumerate() {
            let field = bfs_distances(grid, station);
            for c in cells(grid) {
                let expected = match field.get(c) {
                    UNREACHABLE => u64::MAX,
                    d => d as u64,
                };
                prop_assert_eq!(oracle.to_station(c, s(k)), expected, "{} to {}", c, station);
            }
        }
        Ok(())
    }

    /// A `width × height` grid whose passable cells are exactly the
    /// rectangle `x0..=x1 × y0..=y1`.
    fn rectangle_floor(width: u16, height: u16, rect: (u16, u16, u16, u16)) -> GridMap {
        let (x0, y0, x1, y1) = rect;
        let mut grid = GridMap::filled(width, height, CellKind::Aisle);
        for c in (0..grid.cell_count()).map(|i| GridPos::from_index(i, width)) {
            if !((x0..=x1).contains(&c.x) && (y0..=y1).contains(&c.y)) {
                grid.set_kind(c, CellKind::Blocked);
            }
        }
        grid
    }

    /// Station cells inside `rect`, one per `(x, y)` pick folded into it.
    fn stations_in(rect: (u16, u16, u16, u16), picks: &[(u16, u16)]) -> Vec<GridPos> {
        let (x0, y0, x1, y1) = rect;
        picks
            .iter()
            .map(|&(x, y)| p(x0 + x % (x1 - x0 + 1), y0 + y % (y1 - y0 + 1)))
            .collect()
    }

    /// The paper's walled floor: left column, right column and top row
    /// blocked, the bottom (station) row open.
    fn walled_floor(width: u16, height: u16) -> GridMap {
        rectangle_floor(width, height, (1, 1, width - 2, height - 1))
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

        let mut oracle = DistanceOracle::new(&grid, &[p(4, 0), p(0, 0)]);
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 12);
        assert_eq!(oracle.to_station(p(2, 0), s(1)), u64::MAX, "wall cell");
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

        let mut oracle = DistanceOracle::new(&grid, &[p(4, 4), p(0, 0)]);
        assert_eq!(oracle.to_station(p(0, 0), s(0)), u64::MAX);
        assert_eq!(oracle.to_station(p(4, 4), s(1)), u64::MAX, "symmetric");
    }

    /// Bytes of `grid`'s passability snapshot: all an oracle holds before
    /// its first search.
    fn snapshot_bytes(grid: &GridMap) -> usize {
        grid.cell_count() * std::mem::size_of::<bool>()
    }

    #[test]
    fn oracle_uses_manhattan_when_free() {
        // The walled floor's free cells form a rectangle: Manhattan is
        // exact although the border is blocked.
        let grid = walled_floor(8, 8);
        let mut oracle = DistanceOracle::new(&grid, &[p(3, 7), p(0, 7)]);
        assert!(oracle.manhattan_exact());
        assert_eq!(oracle.to_station(p(1, 1), s(0)), 8);
        assert_eq!(oracle.to_station(p(0, 1), s(0)), u64::MAX, "wall cell");
        assert_eq!(
            oracle.to_station(p(1, 7), s(1)),
            u64::MAX,
            "station in the wall"
        );
        assert_eq!(
            oracle.memory_bytes(),
            snapshot_bytes(&grid),
            "no search ran"
        );
    }

    /// The oracle holds nothing but its passability snapshot until the
    /// first query off the Manhattan path: building it allocates no search
    /// state, and neither does a blockade.
    #[test]
    fn search_state_waits_for_the_first_search() {
        let mut grid = GridMap::filled(16, 16, CellKind::Aisle);
        let mut oracle = DistanceOracle::new(&grid, &[p(15, 15)]);
        assert_eq!(oracle.memory_bytes(), snapshot_bytes(&grid));
        flip(&mut grid, &mut oracle, p(8, 8));
        assert_eq!(
            oracle.memory_bytes(),
            snapshot_bytes(&grid),
            "a flip is O(1)"
        );
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 30);
        assert!(oracle.memory_bytes() > snapshot_bytes(&grid));
    }

    /// `memory_bytes` counts the per-cell search costs the first search
    /// allocates, and once every query has run the buffers stop growing.
    #[test]
    fn memory_footprint_tracks_fields() {
        let mut grid = GridMap::filled(16, 16, CellKind::Aisle);
        grid.set_kind(p(8, 8), CellKind::Blocked);
        let mut oracle = DistanceOracle::new(&grid, &[p(15, 15)]);
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 30);
        assert!(
            oracle.memory_bytes() >= snapshot_bytes(&grid) + 16 * 16 * 8,
            "8 B per cell"
        );
        let every_cell = |oracle: &mut DistanceOracle| {
            cells(&grid).for_each(|c| _ = oracle.to_station(c, s(0)));
            oracle.memory_bytes()
        };
        let warm = every_cell(&mut oracle);
        assert_eq!(every_cell(&mut oracle), warm, "warm buffers are reused");
    }

    #[test]
    fn obstructed_floor_answers_by_search() {
        let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
        grid.set_kind(p(4, 4), CellKind::Blocked);
        let mut oracle = DistanceOracle::new(&grid, &[p(7, 7), p(7, 0)]);
        assert!(!oracle.manhattan_exact());
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 14);
        assert_eq!(oracle.to_station(p(7, 0), s(0)), 7);
        assert_eq!(oracle.to_station(p(7, 7), s(1)), 7);
        assert_eq!(oracle.to_station(p(7, 0), s(1)), 0, "the station itself");
        assert_eq!(oracle.to_station(p(4, 4), s(1)), u64::MAX, "blocked home");
    }

    /// Flip `c` on both `grid` and `oracle`.
    fn flip(grid: &mut GridMap, oracle: &mut DistanceOracle, c: GridPos) {
        set(grid, oracle, c, !grid.passable(c));
    }

    /// Set `c` open or blocked on both `grid` and `oracle`.
    fn set(grid: &mut GridMap, oracle: &mut DistanceOracle, c: GridPos, open: bool) {
        let kind = if open {
            CellKind::Aisle
        } else {
            CellKind::Blocked
        };
        grid.set_kind(c, kind);
        oracle.set_passable(c, open);
    }

    #[test]
    fn set_passable_patches_and_reroutes() {
        // Open grid: Manhattan fast path.
        let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
        let mut oracle = DistanceOracle::new(&grid, &[p(4, 0)]);
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4);
        // Wall appears at (2,0)-(2,6): detours via y=7.
        for y in 0..7 {
            flip(&mut grid, &mut oracle, p(2, y));
        }
        assert!(!oracle.manhattan_exact());
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4 + 14, "detour via row 7");
        // Wall clears: Manhattan is exact again.
        for y in 0..7 {
            flip(&mut grid, &mut oracle, p(2, y));
        }
        assert!(oracle.manhattan_exact());
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4);
        // A no-op mutation changes nothing.
        oracle.set_passable(p(3, 3), false);
        oracle.set_passable(p(3, 3), false);
        assert_eq!(oracle.misfits, 1, "idempotent set");
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4, "row 0 is still open");
    }

    #[test]
    fn blocking_next_to_a_station_drops_only_its_field() {
        // (7,7) blocked so the search runs.
        let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
        grid.set_kind(p(7, 7), CellKind::Blocked);
        let stations = [p(3, 0), p(0, 7)];
        let mut oracle = DistanceOracle::new(&grid, &stations);
        check_every_pair(&mut oracle, &grid, &stations).unwrap();
        // (3,1) is on station 0's column: (3,2) reaches (3,0) only around it.
        flip(&mut grid, &mut oracle, p(3, 1));
        check_every_pair(&mut oracle, &grid, &stations).unwrap();
        assert_eq!(oracle.to_station(p(3, 2), s(0)), 4, "around the blockade");
    }

    #[test]
    fn reopening_reconnects_a_walled_off_pocket() {
        // Column x=3 walls off the pocket x=4..5.
        let mut grid = GridMap::filled(6, 6, CellKind::Aisle);
        for y in 0..6 {
            grid.set_kind(p(3, y), CellKind::Blocked);
        }
        let mut oracle = DistanceOracle::new(&grid, &[p(0, 0)]);
        assert_eq!(oracle.to_station(p(5, 0), s(0)), u64::MAX, "pocket cut off");
        flip(&mut grid, &mut oracle, p(3, 2));
        assert_eq!(oracle.to_station(p(3, 2), s(0)), 5);
        assert_eq!(oracle.to_station(p(5, 0), s(0)), 9, "through the gap");
        assert_eq!(oracle.to_station(p(5, 5), s(0)), 10);
        check_every_pair(&mut oracle, &grid, &[p(0, 0)]).unwrap();
    }

    #[test]
    fn blocking_and_reopening_a_station_restores_its_field() {
        let mut grid = GridMap::filled(6, 6, CellKind::Aisle);
        grid.set_kind(p(4, 4), CellKind::Blocked);
        let station = p(2, 2);
        let mut oracle = DistanceOracle::new(&grid, &[station]);
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4);
        flip(&mut grid, &mut oracle, station);
        // A blocked station reaches nothing.
        assert_eq!(oracle.to_station(p(0, 0), s(0)), u64::MAX);
        check_every_pair(&mut oracle, &grid, &[station]).unwrap();
        flip(&mut grid, &mut oracle, station);
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4, "restored");
        check_every_pair(&mut oracle, &grid, &[station]).unwrap();
    }

    /// Scatter obstacles deterministically from a small seed, keeping the
    /// probe cells free.
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

        /// The exactness rule: on a floor whose passable cells are a
        /// rectangle, Manhattan is exact, no search ever runs, and
        /// every answer equals brute-force BFS (wall cells included).
        #[test]
        fn rectangle_floor_is_manhattan_exact(
            size in (1u16..10, 1u16..10),
            corners in (0u16..10, 0u16..10, 0u16..10, 0u16..10),
            picks in proptest::collection::vec((0u16..10, 0u16..10), 1..4),
        ) {
            let (width, height) = size;
            let (ax, ay, bx, by) = corners;
            let (ax, bx) = (ax % width, bx % width);
            let (ay, by) = (ay % height, by % height);
            let rect = (ax.min(bx), ay.min(by), ax.max(bx), ay.max(by));
            let grid = rectangle_floor(width, height, rect);
            let stations = stations_in(rect, &picks);
            let mut oracle = DistanceOracle::new(&grid, &stations);
            prop_assert!(oracle.manhattan_exact());
            check_every_pair(&mut oracle, &grid, &stations)?;
            prop_assert_eq!(oracle.memory_bytes(), snapshot_bytes(&grid), "no search ran");
        }

        /// Block/reopen streams inside and outside the build-time box:
        /// every answer equals brute-force BFS, and whenever the oracle
        /// calls Manhattan exact, BFS equals Manhattan for every (cell,
        /// station) pair.
        #[test]
        fn exactness_tracks_block_reopen_streams(
            corners in (0u16..8, 0u16..8, 0u16..8, 0u16..8),
            picks in proptest::collection::vec((0u16..8, 0u16..8), 1..3),
            ops in proptest::collection::vec((0u16..8, 0u16..8), 1..12),
        ) {
            let (ax, ay, bx, by) = corners;
            let rect = (ax.min(bx), ay.min(by), ax.max(bx), ay.max(by));
            let mut grid = rectangle_floor(8, 8, rect);
            let stations = stations_in(rect, &picks);
            let mut oracle = DistanceOracle::new(&grid, &stations);
            for &(x, y) in &ops {
                // Stations stay open; any other cell flips.
                let c = p(x, y);
                if stations.contains(&c) {
                    continue;
                }
                let open = !grid.passable(c);
                grid.set_kind(c, if open { CellKind::Aisle } else { CellKind::Blocked });
                oracle.set_passable(c, open);
                check_every_pair(&mut oracle, &grid, &stations)?;
                if oracle.manhattan_exact() {
                    for &station in &stations {
                        let field = bfs_distances(&grid, station);
                        for c in cells(&grid) {
                            let manhattan = if grid.passable(c) {
                                c.manhattan(station) as u32
                            } else {
                                UNREACHABLE
                            };
                            prop_assert_eq!(field.get(c), manhattan, "{} to {}", c, station);
                        }
                    }
                }
            }
        }

        /// Interleaved queries and passability mutations: the oracle
        /// equals brute-force BFS on the mutated grid for any
        /// block/unblock stream.
        #[test]
        fn oracles_agree_under_mutation(
            mask in 0u64..16,
            ops in proptest::collection::vec((0u8..2, 0u16..8, 0u16..8), 1..20),
        ) {
            // The stations stay passable; the mutable cell is disjoint.
            let stations = [p(0, 0), p(5, 2), p(3, 6)];
            let mut grid = obstructed_grid(8, mask, &stations);
            let mut oracle = DistanceOracle::new(&grid, &stations);
            // The mutable cell flips between blocked and open over the run.
            let target = p(7, 7);
            let mut blocked = !grid.passable(target);
            for &(flip, x, y) in &ops {
                if flip == 1 {
                    blocked = !blocked;
                    oracle.set_passable(target, !blocked);
                    let kind = if blocked { CellKind::Blocked } else { CellKind::Aisle };
                    grid.set_kind(target, kind);
                }
                for (k, &station) in stations.iter().enumerate() {
                    let from = p(x, y);
                    let expected = match bfs_distances(&grid, station).get(from) {
                        UNREACHABLE => u64::MAX,
                        d => d as u64,
                    };
                    prop_assert_eq!(oracle.to_station(from, s(k)), expected,
                        "{} to {} after mutations", from, station);
                }
            }
        }

        /// Blockade and reopen sequences on random obstructed floors: each
        /// step flips one cell (stations included), walls in the four
        /// neighbours of a cell (cutting off a rack or a station there) or
        /// opens them again. After every step every cell's distance to the
        /// asked station equals brute-force BFS, unreachable answers
        /// included, and at the end so does every (cell, station) pair.
        #[test]
        fn blockade_sequences_match_reference_bfs(
            roll in proptest::collection::vec(0u8..4, 144),
            picks in proptest::collection::vec((0u16..12, 0u16..12), 1..4),
            ops in proptest::collection::vec((0u8..4, 0u16..12, 0u16..12, 0usize..3), 1..40),
        ) {
            // A quarter of the cells start blocked.
            let mut grid = GridMap::filled(12, 12, CellKind::Aisle);
            for (i, _) in roll.iter().enumerate().filter(|&(_, &r)| r == 0) {
                grid.set_kind(GridPos::from_index(i, 12), CellKind::Blocked);
            }
            let stations: Vec<GridPos> = picks.iter().map(|&(x, y)| p(x, y)).collect();
            let mut oracle = DistanceOracle::new(&grid, &stations);
            for &(kind, x, y, ask) in &ops {
                let c = p(x, y);
                match kind {
                    0 | 1 => flip(&mut grid, &mut oracle, c),
                    ring => {
                        for n in c.neighbors4(12, 12) {
                            set(&mut grid, &mut oracle, n, ring == 3);
                        }
                    }
                }
                let k = ask % stations.len();
                let field = bfs_distances(&grid, stations[k]);
                for c in cells(&grid) {
                    let expected = match field.get(c) {
                        UNREACHABLE => u64::MAX,
                        d => d as u64,
                    };
                    prop_assert_eq!(oracle.to_station(c, s(k)), expected, "{} to {}", c, stations[k]);
                }
            }
            check_every_pair(&mut oracle, &grid, &stations)?;
        }

        /// The oracle equals brute-force BFS from every cell to every
        /// station on obstructed grids.
        #[test]
        fn flat_oracle_matches_reference_bfs(
            mask in 0u64..32,
            picks in proptest::collection::vec((0u16..10, 0u16..10), 1..4),
        ) {
            let stations: Vec<GridPos> = picks.iter().map(|&(x, y)| p(x, y)).collect();
            let grid = obstructed_grid(10, mask, &stations);
            let mut oracle = DistanceOracle::new(&grid, &stations);
            check_every_pair(&mut oracle, &grid, &stations)?;
        }
    }
}
