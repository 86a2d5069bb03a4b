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
//! * **One BFS field per station otherwise**, filled on the station's
//!   first query. A passability change patches every live field in place
//!   (`docs/adr/ADR-026-patched-station-fields.md`): a reopening runs a
//!   BFS wave from the reopened cell; a blockade clears one cell when a
//!   local certificate shows no other distance moves, and drops that one
//!   field otherwise. Fields stay patched while the floor is a rectangle
//!   again, so the next blockade finds them filled.
//!
//! Pickup distances are not asked here: the planners rank robots by
//! Manhattan distance to the rack.

use crate::footprint::MemoryFootprint;
use std::collections::VecDeque;
use tprw_warehouse::{GridMap, GridPos, PickerId};

/// Delivery-distance oracle: Manhattan while the free floor is a
/// rectangle, one lazily filled BFS field per station otherwise (see the
/// module docs).
#[derive(Debug, Clone)]
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
    /// BFS field per station (`d + 1` per cell, 0 = unreached), if filled.
    fields: Box<[Option<Box<[u32]>>]>,
    /// Reusable BFS frontier (cell indices).
    queue: VecDeque<u32>,
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
            fields: vec![None; stations.len()].into_boxed_slice(),
            queue: VecDeque::new(),
        }
    }

    /// Whether Manhattan distance is exact: the passable cells fill the
    /// bounding box fixed at build time.
    #[inline]
    pub fn manhattan_exact(&self) -> bool {
        self.misfits == 0
    }

    /// Mutate the passability snapshot (a cell was blockaded or reopened by
    /// a disruption event) and patch every live BFS field to equal a fresh
    /// fill on the new snapshot. A blockade whose local certificate fails
    /// drops that one field, which refills lazily on its next query.
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
        for (slot, &station) in self.fields.iter_mut().zip(self.stations.iter()) {
            let Some(field) = slot else { continue };
            if passable {
                reopen_cell(
                    field,
                    &self.passable,
                    self.width,
                    i,
                    pos == station,
                    &mut self.queue,
                );
            } else if !block_cell(field, &self.passable, self.width, i) {
                *slot = None;
            }
        }
    }

    /// Uncongested travel delay from `from` to `station`'s cell
    /// (`u64::MAX` when disconnected).
    pub fn to_station(&mut self, from: GridPos, station: PickerId) -> u64 {
        let to = self.stations[station.index()];
        let i = from.to_index(self.width);
        if self.misfits == 0 {
            let both = self.passable[i] && self.passable[to.to_index(self.width)];
            return if both { from.manhattan(to) } else { u64::MAX };
        }
        let field = self.fields[station.index()]
            .get_or_insert_with(|| bfs_field(&self.passable, self.width, to, &mut self.queue));
        match field[i] {
            0 => u64::MAX,
            d => u64::from(d - 1),
        }
    }

    /// Number of filled BFS fields (diagnostics).
    pub fn field_count(&self) -> usize {
        self.fields.iter().flatten().count()
    }
}

/// BFS from `source` over the flat passability snapshot of a grid `width`
/// cells wide: `d + 1` per reached cell, 0 elsewhere.
fn bfs_field(
    passable: &[bool],
    width: u16,
    source: GridPos,
    queue: &mut VecDeque<u32>,
) -> Box<[u32]> {
    let mut field = vec![0u32; passable.len()].into_boxed_slice();
    let s = source.to_index(width);
    queue.clear();
    if passable[s] {
        field[s] = 1;
        queue.push_back(s as u32);
    }
    wave(&mut field, passable, width, queue);
    field
}

/// The 4-neighbourhood of cell `i` on a grid `width` cells wide and
/// `height` tall; `ok` is false for a neighbour past an edge.
fn neighbours(i: usize, width: usize, height: usize) -> [(bool, usize); 4] {
    let (x, y) = (i % width, i / width);
    [
        (x > 0, i.wrapping_sub(1)),
        (x + 1 < width, i + 1),
        (y > 0, i.wrapping_sub(width)),
        (y + 1 < height, i + width),
    ]
}

/// Drain `queue` in FIFO order, lowering each passable neighbour that is
/// unreached or farther than one step past the popped cell. From one
/// seeded cell this is BFS; on an exact field whose distances only
/// shrink, it is exact from the cell that shrank them.
fn wave(field: &mut [u32], passable: &[bool], width: u16, queue: &mut VecDeque<u32>) {
    let (w, h) = (width as usize, passable.len() / width as usize);
    while let Some(i) = queue.pop_front() {
        let next = field[i as usize] + 1;
        for &(ok, j) in &neighbours(i as usize, w, h) {
            // An unreached 0 wraps to `u32::MAX`: one compare covers both.
            if ok && passable[j] && field[j].wrapping_sub(1) >= next {
                field[j] = next;
                queue.push_back(j as u32);
            }
        }
    }
}

/// Patch an exact `field` for the blockade of cell `c` (already
/// impassable in `passable`); false when the field must be dropped.
///
/// Blocking only lengthens distances, and no cell at or below `d(c)`
/// routes through `c`. So when every neighbour at `d(c) + 1` has another
/// neighbour at `d(c)`, each keeps its distance, every shortest path
/// through `c` has an equal detour, and only `c` itself changes.
fn block_cell(field: &mut [u32], passable: &[bool], width: u16, c: usize) -> bool {
    let (w, h) = (width as usize, passable.len() / width as usize);
    let dc = field[c];
    // Stored values are `d + 1`, and only reached cells are nonzero, so
    // `field[m] == dc` names a passable cell at `d(c)`.
    let kept = dc == 0
        || neighbours(c, w, h).into_iter().all(|(ok, n)| {
            !ok || field[n] != dc + 1
                || neighbours(n, w, h)
                    .into_iter()
                    .any(|(ok, m)| ok && m != c && field[m] == dc)
        });
    if kept {
        field[c] = 0;
    }
    kept
}

/// Patch an exact `field` for the reopening of cell `c` (already
/// passable in `passable`; `is_source` when it is the field's station).
/// Distances only shrink, so `c` takes one step past its nearest reached
/// neighbour (0 as the source) and a [`wave`] from it lowers every
/// distance it shortens, reaching pockets the blockade had cut off.
fn reopen_cell(
    field: &mut [u32],
    passable: &[bool],
    width: u16,
    c: usize,
    is_source: bool,
    queue: &mut VecDeque<u32>,
) {
    let (w, h) = (width as usize, passable.len() / width as usize);
    field[c] = if is_source {
        1
    } else {
        let nearest = neighbours(c, w, h)
            .into_iter()
            .filter(|&(ok, n)| ok && field[n] != 0)
            .map(|(_, n)| field[n])
            .min();
        match nearest {
            Some(d) => d + 1,
            None => return,
        }
    };
    queue.clear();
    queue.push_back(c as u32);
    wave(field, passable, width, queue);
}

impl MemoryFootprint for DistanceOracle {
    fn memory_bytes(&self) -> usize {
        let cells = self.passable.len();
        cells * std::mem::size_of::<bool>()
            + self.field_count() * cells * std::mem::size_of::<u32>()
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

    #[test]
    fn oracle_uses_manhattan_when_free() {
        // The walled floor's free cells form a rectangle: Manhattan is
        // exact although the border is blocked.
        let grid = walled_floor(8, 8);
        let mut oracle = DistanceOracle::new(&grid, &[p(3, 7)]);
        assert!(oracle.manhattan_exact());
        assert_eq!(oracle.to_station(p(1, 1), s(0)), 8);
        assert_eq!(oracle.to_station(p(0, 1), s(0)), u64::MAX, "wall cell");
        assert_eq!(oracle.field_count(), 0, "no BFS fields needed");
    }

    #[test]
    fn oracle_memoizes_with_obstacles() {
        let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
        grid.set_kind(p(4, 4), CellKind::Blocked);
        let mut oracle = DistanceOracle::new(&grid, &[p(7, 7), p(7, 0)]);
        assert!(!oracle.manhattan_exact());
        let d1 = oracle.to_station(p(0, 0), s(0));
        assert_eq!(oracle.field_count(), 1);
        // Repeated stations reuse their field.
        let d2 = oracle.to_station(p(7, 0), s(0));
        assert_eq!(oracle.field_count(), 1, "station field reused");
        let d3 = oracle.to_station(p(7, 7), s(1));
        assert_eq!(oracle.field_count(), 2, "one field per station");
        assert_eq!(d1, 14);
        assert_eq!(d2, 7);
        assert_eq!(d3, 7);
    }

    /// Every live field of `oracle` equals a fresh fill on `grid`, cell
    /// for cell, unreached cells included.
    fn check_live_fields(oracle: &DistanceOracle, grid: &GridMap) -> Result<(), TestCaseError> {
        let passable: Vec<bool> = cells(grid).map(|c| grid.passable(c)).collect();
        let live = oracle.fields.iter().zip(oracle.stations.iter());
        for (field, &station) in live.filter_map(|(f, s)| Some((f.as_ref()?, s))) {
            let fresh = bfs_field(&passable, grid.width(), station, &mut VecDeque::new());
            prop_assert_eq!(field, &fresh, "field of {}", station);
        }
        Ok(())
    }

    /// Flip `c` on both `grid` and `oracle`.
    fn flip(grid: &mut GridMap, oracle: &mut DistanceOracle, c: GridPos) {
        let open = !grid.passable(c);
        grid.set_kind(
            c,
            if open {
                CellKind::Aisle
            } else {
                CellKind::Blocked
            },
        );
        oracle.set_passable(c, open);
    }

    #[test]
    fn set_passable_patches_and_reroutes() {
        // Open grid: Manhattan fast path, no fields.
        let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
        let mut oracle = DistanceOracle::new(&grid, &[p(4, 0)]);
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4);
        // Wall appears at (2,0)-(2,6): detours via y=7.
        for y in 0..7 {
            flip(&mut grid, &mut oracle, p(2, y));
        }
        assert!(!oracle.manhattan_exact());
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4 + 14, "detour via row 7");
        assert_eq!(oracle.field_count(), 1, "BFS field in use");
        // Wall clears: the field is patched, not dropped, and Manhattan is
        // exact again.
        for y in 0..7 {
            flip(&mut grid, &mut oracle, p(2, y));
        }
        assert!(oracle.manhattan_exact());
        assert_eq!(oracle.field_count(), 1, "the field is kept");
        check_live_fields(&oracle, &grid).unwrap();
        assert_eq!(oracle.to_station(p(0, 0), s(0)), 4);
        // No-op mutation neither flips state nor drops fields.
        let mut walled = DistanceOracle::new(&grid, &[p(7, 7)]);
        walled.set_passable(p(3, 3), false);
        walled.to_station(p(0, 0), s(0));
        let fields = walled.field_count();
        walled.set_passable(p(3, 3), false);
        assert_eq!(walled.field_count(), fields, "idempotent set keeps fields");
    }

    #[test]
    fn blocking_next_to_a_station_drops_only_its_field() {
        // (7,7) blocked so the fields are read.
        let mut grid = GridMap::filled(8, 8, CellKind::Aisle);
        grid.set_kind(p(7, 7), CellKind::Blocked);
        let stations = [p(3, 0), p(0, 7)];
        let mut oracle = DistanceOracle::new(&grid, &stations);
        check_every_pair(&mut oracle, &grid, &stations).unwrap();
        assert_eq!(oracle.field_count(), 2);
        // (3,1) is on station 0's column: (3,2) reaches (3,0) only through
        // it, so station 0's certificate fails. Station 1 routes around.
        flip(&mut grid, &mut oracle, p(3, 1));
        assert!(oracle.fields[0].is_none(), "station 0's field dropped");
        assert!(oracle.fields[1].is_some(), "station 1's field kept");
        check_live_fields(&oracle, &grid).unwrap();
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
        assert_eq!(oracle.field_count(), 1, "the field is patched");
        check_live_fields(&oracle, &grid).unwrap();
        assert_eq!(oracle.to_station(p(3, 2), s(0)), 5);
        assert_eq!(oracle.to_station(p(5, 0), s(0)), 9, "through the gap");
        assert_eq!(oracle.to_station(p(5, 5), s(0)), 10);
    }

    #[test]
    fn blocking_and_reopening_a_station_restores_its_field() {
        let mut grid = GridMap::filled(6, 6, CellKind::Aisle);
        grid.set_kind(p(4, 4), CellKind::Blocked);
        let station = p(2, 2);
        let mut oracle = DistanceOracle::new(&grid, &[station]);
        oracle.to_station(p(0, 0), s(0));
        let before = oracle.fields[0].clone().unwrap();
        flip(&mut grid, &mut oracle, station);
        // A blocked station reaches nothing; the query refills its field.
        assert_eq!(oracle.to_station(p(0, 0), s(0)), u64::MAX);
        assert_eq!(oracle.field_count(), 1);
        flip(&mut grid, &mut oracle, station);
        assert_eq!(oracle.fields[0].as_deref(), Some(&before[..]), "restored");
        check_live_fields(&oracle, &grid).unwrap();
    }

    #[test]
    fn memory_footprint_tracks_fields() {
        let mut grid = GridMap::filled(16, 16, CellKind::Aisle);
        grid.set_kind(p(8, 8), CellKind::Blocked);
        let mut oracle = DistanceOracle::new(&grid, &[p(15, 15)]);
        let empty = oracle.memory_bytes();
        oracle.to_station(p(0, 0), s(0));
        assert!(
            oracle.memory_bytes() >= empty + 16 * 16 * 4,
            "one field adds 4 B per cell"
        );
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
        /// rectangle, Manhattan is exact, no field is ever filled, and
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
            prop_assert_eq!(oracle.field_count(), 0);
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

        /// Interleaved queries and passability mutations: dropping the
        /// fields must keep the oracle equal to brute-force BFS on the
        /// mutated grid for any block/unblock stream.
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

        /// Patching is exact: on random obstructed floors, after every
        /// block/reopen flip of any cell (stations included), every live
        /// field equals a fresh fill cell for cell, unreached cells
        /// included. Queries in between keep fields live.
        #[test]
        fn patched_fields_equal_fresh_fills(
            roll in proptest::collection::vec(0u8..4, 144),
            picks in proptest::collection::vec((0u16..12, 0u16..12), 1..4),
            ops in proptest::collection::vec((0u16..12, 0u16..12, 0usize..6), 1..60),
        ) {
            // A quarter of the cells start blocked.
            let mut grid = GridMap::filled(12, 12, CellKind::Aisle);
            for (i, _) in roll.iter().enumerate().filter(|&(_, &r)| r == 0) {
                grid.set_kind(GridPos::from_index(i, 12), CellKind::Blocked);
            }
            let stations: Vec<GridPos> = picks.iter().map(|&(x, y)| p(x, y)).collect();
            let mut oracle = DistanceOracle::new(&grid, &stations);
            for &(x, y, ask) in &ops {
                // Asking a station (half the time) fills its field.
                if ask < stations.len() {
                    oracle.to_station(p(x, y), s(ask));
                }
                flip(&mut grid, &mut oracle, p(x, y));
                check_live_fields(&oracle, &grid)?;
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
