//! Per-cell K-nearest-rack index (Sec. VI-A, "flip requesting side").
//!
//! *"Since all racks' locations in the storage area are fixed, recording the
//! closest K racks of different grids is static and easy to maintain."* —
//! EATP traverses robots instead of racks and looks up the K racks closest
//! to each robot's cell in O(1).
//!
//! Built with a multi-source BFS seeded at every rack home, so "closest"
//! means true passable-grid distance; each cell keeps the `K` racks with the
//! smallest `(distance, rack id)` pairs, nearest first.
//!
//! # Layout and build cost
//!
//! Lists live in one flat `K`-stride array (`lists[cell·K ..]` plus a
//! per-cell length byte), so `nearest` is one indexed slice. A parallel
//! distance array makes incremental maintenance (below) possible.
//!
//! The full pass (EATP pays it inside `init`) runs the BFS one level at a
//! time over two frontiers of `(cell, rack)` pairs; the level counter is
//! the distance. It pushes exactly the pairs a per-pair visited set admits,
//! without one (`docs/adr/ADR-018-knn-level-pass.md`):
//! - a level lists its racks in id order (seeds go in id order, a child
//!   inherits its parent's rack), so one level's pushes of a rack are
//!   contiguous, and a per-cell index of the last push catches a repeat;
//! - an earlier push of the pair has been popped, since the 4-grid is
//!   bipartite: the neighbour's list is full, or it got the rack one level
//!   before and pushed the very entry being popped. Entries carry the
//!   directions that pushed them, and never push back along them.
//!
//! Its scratch (neighbour mask, push index, frontiers) scales with cells,
//! not cells × racks, and is freed when the pass returns.
//!
//! # Incremental maintenance
//!
//! Disruptions change what "closest" means: a blockade reroutes a
//! neighbourhood, and rack churn (`RackRemoved`, later restored) removes a
//! seed. [`KNearestRacks::update`] applies a batch of such changes around
//! their epicenters instead of re-running the `O(HW·K)` pass:
//!
//! 1. *deletion* — an entry `(cell, rack, d)` survives iff it is a live
//!    seed or a passable neighbour still holds `(rack, d − 1)`. Support
//!    chains strictly decrease `d`, so propagation cannot cycle and deletes
//!    exactly the entries whose every shortest route died;
//! 2. *repair* — a work list seeded at cells that lost entries, reopened
//!    cells and restored seeds recomputes each list as `topK(seeds ∪
//!    neighbours + 1)` up to the unique fixpoint: the lists a fresh masked
//!    index produces (property-tested below).
//!
//! Work is proportional to the affected region: the deterministic
//! [`KNearestRacks::enqueued_count`] (every work-list push, like a full
//! pass's BFS enqueues) pins that locality without wall clocks. The one
//! full pass after `build` is the first `update`, which materializes the
//! distance column against the already mutated grid and liveness mask.

use crate::footprint::MemoryFootprint;
use std::collections::VecDeque;
use tprw_warehouse::{Direction, GridMap, GridPos, RackId};

/// Largest per-entry grid distance the index can record (the distance
/// column stores `u16`); a grid past it panics in the full pass or repair.
pub const MAX_KNN_DIST: u32 = u16::MAX as u32;

/// One world mutation relevant to the index. Callers batch the changes of a
/// tick and apply them in a single [`KNearestRacks::update`] pass against
/// the *already mutated* grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnChange {
    /// `pos` flipped passability (a blockade landed or cleared). The final
    /// state is read from the grid passed to `update`.
    Cell(GridPos),
    /// `rack` flipped liveness (see [`KNearestRacks::set_alive`]).
    Rack(RackId),
}

/// Per-cell index of the K nearest racks, maintained incrementally on grid
/// or rack churn.
#[derive(Debug, Clone)]
pub struct KNearestRacks {
    width: u16,
    k: usize,
    /// Home cell per rack id (the BFS seeds).
    homes: Vec<GridPos>,
    /// Liveness per rack id; dead racks seed nothing until re-added.
    alive: Vec<bool>,
    /// Whether a cell is some rack's home (repair-phase seed lookup).
    is_home: Vec<bool>,
    /// Flat `k`-stride storage: cell `c`'s nearest racks are
    /// `lists[c·k .. c·k + count[c]]`, nearest first.
    lists: Vec<RackId>,
    /// Grid distance of each entry, parallel to `lists`. Materialized
    /// lazily by the first [`KNearestRacks::update`], so clean runs carry
    /// no per-entry distance memory into the Fig. 12 MC.
    dists: Vec<u16>,
    /// Live entries per cell.
    count: Vec<u8>,
    /// Update scratch: deletion work list `(cell, rack, dist)` of entries
    /// already removed whose dependants must be re-checked.
    del_queue: VecDeque<(u32, u32, u32)>,
    /// Update scratch: repair work list (cell indices).
    repair_queue: VecDeque<u32>,
    /// Update scratch: cell currently enqueued for repair.
    in_repair: Vec<bool>,
    /// Update scratch: candidate `(dist, rack)` pairs of one recompute.
    cand: Vec<(u32, u32)>,
    /// Number of incremental update batches applied (diagnostics).
    updates: u64,
    /// Cumulative work-list pushes across full passes and incremental
    /// updates — the deterministic cost proxy for index maintenance.
    enqueued: u64,
}

impl KNearestRacks {
    /// Build the index for `rack_homes` over `grid`.
    ///
    /// Complexity `O(HW·K)`: every cell is enqueued at most `K` times.
    pub fn build(grid: &GridMap, rack_homes: &[GridPos], k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        assert!(k <= u8::MAX as usize, "K must fit the per-cell length byte");
        assert!(rack_homes.len() < 1 << 28, "rack ids must fit 28 bits");
        let cells = grid.cell_count();
        let mut is_home = vec![false; cells];
        for home in rack_homes {
            is_home[home.to_index(grid.width())] = true;
        }
        let mut idx = Self {
            width: grid.width(),
            k,
            homes: rack_homes.to_vec(),
            alive: vec![true; rack_homes.len()],
            is_home,
            lists: vec![RackId::new(0); cells * k],
            dists: Vec::new(),
            count: vec![0; cells],
            del_queue: VecDeque::new(),
            repair_queue: VecDeque::new(),
            in_repair: vec![false; cells],
            cand: Vec::new(),
            updates: 0,
            enqueued: 0,
        };
        idx.fill(grid);
        idx
    }

    /// Mark rack `rack` as present on / absent from the floor, from the next
    /// [`KNearestRacks::update`] on (`PlannerBase::apply_disruption` drives
    /// it from `RackRemoved` / `RackRestored`).
    pub fn set_alive(&mut self, rack: RackId, alive: bool) {
        self.alive[rack.index()] = alive;
    }

    /// Whether rack `rack` currently seeds the index.
    pub fn is_alive(&self, rack: RackId) -> bool {
        self.alive[rack.index()]
    }

    /// The `O(HW·K)` level-order BFS behind `build` and the first `update`,
    /// against `grid` and the liveness mask. It pushes the pairs of the
    /// classic FIFO formulation with a visited set (module docs), in order.
    fn fill(&mut self, grid: &GridMap) {
        debug_assert_eq!(grid.width(), self.width, "index bound to one grid size");
        debug_assert_eq!(grid.cell_count(), self.count.len());
        let (k, w) = (self.k, self.width as isize);
        // Cell-index step per `Direction::ALL` entry, and per cell the bits
        // of the steps that land on a passable cell.
        let step =
            Direction::ALL.map(|d| (d.delta().1 as isize * w + d.delta().0 as isize) as usize);
        let mask: Vec<u8> = (0..self.count.len())
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
        // neighbours whose lists hold the rack. `slot[c]` is the index in
        // `next` of the last push to cell `c`.
        let mut slot = vec![u32::MAX; self.count.len()];
        let (mut level, mut next) = (Vec::new(), Vec::<(u32, u32)>::new());
        for (r, &home) in self.homes.iter().enumerate() {
            if self.alive[r] && grid.passable(home) {
                level.push((home.to_index(self.width) as u32, (r as u32) << 4));
            }
        }
        let track_dists = self.dists.len() == self.lists.len();
        let (lists, dists, count) = (&mut self.lists, &mut self.dists, &mut self.count);
        count.fill(0);
        let mut d = 0;
        while !level.is_empty() {
            debug_assert!(level.windows(2).all(|p| p[0].1 >> 4 <= p[1].1 >> 4));
            self.enqueued += level.len() as u64;
            for &(cell, packed) in &level {
                let (cell, rack) = (cell as usize, packed >> 4);
                let c = count[cell] as usize;
                if c >= k {
                    continue;
                }
                lists[cell * k + c] = RackId(rack);
                if track_dists {
                    assert!(d <= MAX_KNN_DIST, "grid distance exceeds MAX_KNN_DIST");
                    dists[cell * k + c] = d as u16;
                }
                count[cell] = (c + 1) as u8;
                let open = mask[cell] & !(packed as u8 & 15);
                for (i, &off) in step.iter().enumerate() {
                    let n = cell.wrapping_add(off);
                    if open >> i & 1 == 0 || count[n] as usize >= k {
                        continue;
                    }
                    // `Direction::ALL` is N, E, S, W: the way back is two on.
                    let back = 1 << ((i + 2) % 4);
                    match next.get_mut(slot[n] as usize) {
                        Some(e) if e.0 as usize == n && e.1 >> 4 == rack => e.1 |= back,
                        _ => {
                            slot[n] = next.len() as u32;
                            next.push((n as u32, rack << 4 | back));
                        }
                    }
                }
            }
            std::mem::swap(&mut level, &mut next);
            next.clear();
            d += 1;
        }
    }

    /// Slot of `rack` in `cell`'s list, if present.
    fn find_slot(&self, cell: usize, rack: usize) -> Option<usize> {
        let k = self.k;
        (0..self.count[cell] as usize).find(|&s| self.lists[cell * k + s].index() == rack)
    }

    /// Remove the entry at `slot` of `cell` (shift the tail left). Only
    /// reachable from `update`, after the distance column materialized.
    fn remove_at(&mut self, cell: usize, slot: usize) {
        debug_assert_eq!(self.dists.len(), self.lists.len());
        let k = self.k;
        let n = self.count[cell] as usize;
        for s in slot..n - 1 {
            self.lists[cell * k + s] = self.lists[cell * k + s + 1];
            self.dists[cell * k + s] = self.dists[cell * k + s + 1];
        }
        self.count[cell] = (n - 1) as u8;
    }

    /// Enqueue `cell` for repair recomputation (deduplicated while queued).
    fn mark_repair(&mut self, cell: usize) {
        if !self.in_repair[cell] {
            self.in_repair[cell] = true;
            self.repair_queue.push_back(cell as u32);
            self.enqueued += 1;
        }
    }

    /// Whether the live entry `(pos, rack, d)` still has a support: it is a
    /// live seed (`d == 0`), or some passable neighbour holds `(rack,
    /// d − 1)`.
    fn supported(&self, grid: &GridMap, pos: GridPos, rack: usize, d: u32) -> bool {
        if d == 0 {
            return self.alive[rack] && self.homes[rack] == pos && grid.passable(pos);
        }
        let k = self.k;
        for m in grid.passable_neighbors(pos) {
            let mcell = m.to_index(self.width);
            if let Some(slot) = self.find_slot(mcell, rack) {
                if self.dists[mcell * k + slot] as u32 + 1 == d {
                    return true;
                }
            }
        }
        false
    }

    /// Delete every entry of `cell` (the cell became impassable), pushing
    /// each onto the deletion work list.
    fn delete_all_at(&mut self, cell: usize) {
        let k = self.k;
        while self.count[cell] > 0 {
            let slot = self.count[cell] as usize - 1;
            let rack = self.lists[cell * k + slot].index() as u32;
            let d = self.dists[cell * k + slot] as u32;
            self.count[cell] = slot as u8;
            self.del_queue.push_back((cell as u32, rack, d));
            self.enqueued += 1;
        }
    }

    /// Apply a batch of world mutations incrementally: `grid` must already
    /// reflect every change in `changes` (and the liveness mask every
    /// [`KNearestRacks::set_alive`] flip). Produces exactly the lists of a
    /// fresh index under the same mask (`update_equals_fresh_masked_build`).
    pub fn update(&mut self, grid: &GridMap, changes: &[KnnChange]) {
        debug_assert_eq!(grid.width(), self.width, "index bound to one grid size");
        debug_assert_eq!(grid.cell_count(), self.count.len());
        self.updates += 1;
        // The first batch materializes the distance column with one full
        // pass over the mutated grid and mask, which subsumes `changes`.
        if self.dists.len() != self.lists.len() {
            self.dists = vec![0; self.lists.len()];
            self.fill(grid);
            return;
        }
        self.del_queue.clear();
        self.repair_queue.clear();

        // Phase 1 — epicenters. Blocked cells and dead seeds start the
        // deletion wave; reopened cells and restored seeds start repair.
        for change in changes {
            match *change {
                KnnChange::Cell(pos) => {
                    let cell = pos.to_index(self.width);
                    if grid.passable(pos) {
                        self.mark_repair(cell);
                    } else {
                        self.delete_all_at(cell);
                    }
                }
                KnnChange::Rack(rack) => {
                    let r = rack.index();
                    let home = self.homes[r];
                    let cell = home.to_index(self.width);
                    if self.alive[r] && grid.passable(home) {
                        self.mark_repair(cell);
                    } else if let Some(slot) = self.find_slot(cell, r) {
                        let d = self.dists[cell * self.k + slot] as u32;
                        self.remove_at(cell, slot);
                        self.del_queue.push_back((cell as u32, r as u32, d));
                        self.enqueued += 1;
                        self.mark_repair(cell);
                    }
                }
            }
        }

        // Phase 2 — support-based deletion to fixpoint. Entries are removed
        // from their lists *before* they enter the work list, so support
        // checks always see the live state; a dependant whose support dies
        // later is re-checked when that support pops.
        while let Some((cell, rack, d)) = self.del_queue.pop_front() {
            let pos = GridPos::from_index(cell as usize, self.width);
            for next in grid.passable_neighbors(pos) {
                let ncell = next.to_index(self.width);
                let Some(slot) = self.find_slot(ncell, rack as usize) else {
                    continue;
                };
                let dn = self.dists[ncell * self.k + slot] as u32;
                if dn != d + 1 || self.supported(grid, next, rack as usize, dn) {
                    continue;
                }
                self.remove_at(ncell, slot);
                self.del_queue.push_back((ncell as u32, rack, dn));
                self.enqueued += 1;
                self.mark_repair(ncell);
            }
        }

        // Phase 3 — repair relaxation to fixpoint: recompute each queued
        // cell's list as topK(seeds here ∪ neighbours' entries + 1); a
        // change re-enqueues the neighbours. Surviving entries are exact,
        // so the iteration converges to the unique fixpoint.
        let k = self.k;
        while let Some(cell) = self.repair_queue.pop_front() {
            let ci = cell as usize;
            self.in_repair[ci] = false;
            let pos = GridPos::from_index(ci, self.width);
            if !grid.passable(pos) {
                debug_assert_eq!(self.count[ci], 0, "blocked cells hold no entries");
                continue;
            }
            let mut cand = std::mem::take(&mut self.cand);
            cand.clear();
            if self.is_home[ci] {
                for (r, &home) in self.homes.iter().enumerate() {
                    if home == pos && self.alive[r] {
                        cand.push((0, r as u32));
                    }
                }
            }
            for next in grid.passable_neighbors(pos) {
                let ncell = next.to_index(self.width);
                for s in 0..self.count[ncell] as usize {
                    cand.push((
                        self.dists[ncell * k + s] as u32 + 1,
                        self.lists[ncell * k + s].index() as u32,
                    ));
                }
            }
            cand.sort_unstable();
            // Write the K best (dist, rack) pairs, deduplicating racks (the
            // sort puts each rack's best occurrence first); detect change
            // against the current list in the same pass.
            let old_n = self.count[ci] as usize;
            let mut n = 0usize;
            let mut changed = false;
            for &(d, r) in &cand {
                if n >= k {
                    break;
                }
                let rack = RackId::new(r as usize);
                if self.lists[ci * k..ci * k + n].contains(&rack) {
                    continue;
                }
                assert!(d <= MAX_KNN_DIST, "grid distance exceeds MAX_KNN_DIST");
                if n >= old_n
                    || self.lists[ci * k + n] != rack
                    || self.dists[ci * k + n] as u32 != d
                {
                    changed = true;
                }
                self.lists[ci * k + n] = rack;
                self.dists[ci * k + n] = d as u16;
                n += 1;
            }
            changed |= n != old_n;
            self.count[ci] = n as u8;
            self.cand = cand;
            if changed {
                for next in grid.passable_neighbors(pos) {
                    self.mark_repair(next.to_index(self.width));
                }
            }
        }
    }

    /// The up-to-K racks nearest to `pos`, nearest first.
    #[inline]
    pub fn nearest(&self, pos: GridPos) -> &[RackId] {
        let cell = pos.to_index(self.width);
        &self.lists[cell * self.k..cell * self.k + self.count[cell] as usize]
    }

    /// The configured K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of incremental [`KNearestRacks::update`] batches applied.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Cumulative work-list pushes across full passes (`O(HW·K)` each) and
    /// incremental updates (affected-region-sized): a deterministic cost.
    pub fn enqueued_count(&self) -> u64 {
        self.enqueued
    }
}

impl MemoryFootprint for KNearestRacks {
    fn memory_bytes(&self) -> usize {
        self.lists.capacity() * std::mem::size_of::<RackId>()
            + self.dists.capacity() * std::mem::size_of::<u16>()
            + self.count.capacity()
            + self.del_queue.capacity() * std::mem::size_of::<(u32, u32, u32)>()
            + self.repair_queue.capacity() * std::mem::size_of::<u32>()
            + self.in_repair.capacity()
            + self.is_home.capacity()
            + self.cand.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.homes.capacity() * std::mem::size_of::<GridPos>()
            + self.alive.capacity() * std::mem::size_of::<bool>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use tprw_warehouse::CellKind;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn open_grid(w: u16, h: u16) -> GridMap {
        GridMap::filled(w, h, CellKind::Aisle)
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

    /// A fresh index over `grid` with the racks of `dead` off the floor:
    /// `build`, the liveness mask, then the first `update`, which runs the
    /// full masked pass.
    fn fresh(grid: &GridMap, homes: &[GridPos], k: usize, dead: &[usize]) -> KNearestRacks {
        let mut idx = KNearestRacks::build(grid, homes, k);
        for &r in dead {
            idx.set_alive(RackId::new(r), false);
        }
        idx.update(grid, &[]);
        idx
    }

    #[test]
    fn single_rack_everywhere() {
        let grid = open_grid(6, 6);
        let idx = KNearestRacks::build(&grid, &[p(3, 3)], 2);
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
        let idx = KNearestRacks::build(&grid, &[p(0, 1), p(9, 1)], 2);
        assert_eq!(idx.nearest(p(1, 1))[0], RackId::new(0));
        assert_eq!(idx.nearest(p(8, 1))[0], RackId::new(1));
        assert_eq!(idx.nearest(p(1, 1)).len(), 2);
    }

    #[test]
    fn k_limits_list_length() {
        let grid = open_grid(8, 8);
        let homes: Vec<GridPos> = (0..6).map(|i| p(i, 0)).collect();
        let idx = KNearestRacks::build(&grid, &homes, 3);
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
        let idx = KNearestRacks::build(&grid, &[p(0, 0), p(4, 0)], 1);
        assert_eq!(idx.nearest(p(2, 0)), &[RackId::new(0)], "lower id wins tie");
    }

    #[test]
    fn respects_walls() {
        let mut grid = open_grid(5, 3);
        // Wall separating left and right halves except via the bottom row.
        grid.set_kind(p(2, 0), CellKind::Blocked);
        grid.set_kind(p(2, 1), CellKind::Blocked);
        let idx = KNearestRacks::build(&grid, &[p(0, 0), p(4, 0)], 1);
        // Cell (3,0) is 1 from rack 1, but rack 0 requires the detour.
        assert_eq!(idx.nearest(p(3, 0)), &[RackId::new(1)]);
    }

    #[test]
    fn rebuild_tracks_grid_mutation() {
        let mut grid = open_grid(5, 3);
        let homes = [p(0, 0), p(4, 0)];
        let mut idx = KNearestRacks::build(&grid, &homes, 1);
        assert_eq!(idx.nearest(p(1, 0)), &[RackId::new(0)]);
        // A wall lands mid-run: the first update rebuilds every list with
        // one full pass, which must re-route the neighbourhood and match a
        // from-scratch build on the mutated grid.
        grid.set_kind(p(2, 0), CellKind::Blocked);
        grid.set_kind(p(2, 1), CellKind::Blocked);
        idx.update(&grid, &[KnnChange::Cell(p(2, 0)), KnnChange::Cell(p(2, 1))]);
        let want = KNearestRacks::build(&grid, &homes, 1);
        for y in 0..3 {
            for x in 0..5 {
                assert_eq!(idx.nearest(p(x, y)), want.nearest(p(x, y)));
            }
        }
        assert_eq!(idx.nearest(p(3, 0)), &[RackId::new(1)]);
    }

    #[test]
    fn rack_churn_removes_and_restores_seeds() {
        let grid = open_grid(8, 8);
        let homes = [p(0, 0), p(7, 0), p(0, 7)];
        let mut idx = KNearestRacks::build(&grid, &homes, 2);
        let original: Vec<Vec<RackId>> = (0..64)
            .map(|i| idx.nearest(GridPos::from_index(i, 8)).to_vec())
            .collect();
        // Remove rack 1: the update must equal a fresh build over racks
        // {0, 2} with ids preserved.
        idx.set_alive(RackId::new(1), false);
        assert!(!idx.is_alive(RackId::new(1)));
        idx.update(&grid, &[KnnChange::Rack(RackId::new(1))]);
        for i in 0..64 {
            let cell = GridPos::from_index(i, 8);
            assert!(
                !idx.nearest(cell).contains(&RackId::new(1)),
                "dead rack must vanish from {cell}"
            );
        }
        assert_eq!(idx.nearest(p(7, 1)), &[RackId::new(0), RackId::new(2)]);
        // Re-add: the index must return exactly to its original state.
        idx.set_alive(RackId::new(1), true);
        idx.update(&grid, &[KnnChange::Rack(RackId::new(1))]);
        for (i, want) in original.iter().enumerate() {
            assert_eq!(idx.nearest(GridPos::from_index(i, 8)), want.as_slice());
        }
        assert_eq!(idx.update_count(), 2);
    }

    #[test]
    fn rebuild_cost_counter_is_deterministic_and_bounded() {
        let grid = open_grid(16, 16);
        let homes: Vec<GridPos> = (0..8).map(|i| p(i * 2, 8)).collect();
        let mut a = KNearestRacks::build(&grid, &homes, 4);
        let build_cost = a.enqueued_count();
        assert!(build_cost > 0);
        // Loose bound: each (cell, rack) pair enters the frontier at most
        // once.
        let bound = (grid.cell_count() * homes.len()) as u64;
        assert!(build_cost <= bound, "{build_cost} > {bound}");
        let b = KNearestRacks::build(&grid, &homes, 4);
        assert_eq!(b.enqueued_count(), build_cost, "deterministic");
        // The first update's full pass on an unchanged grid costs exactly
        // the build again.
        a.update(&grid, &[]);
        assert_eq!(a.enqueued_count(), build_cost * 2);
    }

    /// The level-order pass makes exactly the enqueues of the visited-bitset
    /// FIFO it replaced: the count that build recorded on this floor.
    #[test]
    fn build_enqueues_are_pinned() {
        let (grid, homes) = pinned_floor();
        let idx = KNearestRacks::build(&grid, &homes, 8);
        assert_eq!(idx.enqueued_count(), PINNED_ENQUEUES);
        assert_eq!(classic_build(&grid, &homes, 8, &[]).1, PINNED_ENQUEUES);
    }

    /// After `build` the index holds its lists, per-cell counts, repair
    /// flags and home marks, and per-rack homes and liveness: no frontier,
    /// visited set or other term that grows with cells × racks.
    #[test]
    fn build_keeps_no_scratch() {
        let (grid, homes) = pinned_floor();
        let (cells, k) = (grid.cell_count(), 8);
        let idx = KNearestRacks::build(&grid, &homes, k);
        let lists = cells * k * std::mem::size_of::<RackId>();
        let per_rack = homes.len() * (std::mem::size_of::<GridPos>() + 1);
        assert_eq!(idx.memory_bytes(), lists + 3 * cells + per_rack);
    }

    #[test]
    fn incremental_blockade_matches_rebuild_and_costs_less() {
        // One blockade on a 32x32 floor: the incremental update must equal
        // a fresh index list-for-list while touching far fewer work-list
        // entries than the O(HW*K) pass.
        let mut grid = open_grid(32, 32);
        let homes: Vec<GridPos> = (0..8).map(|i| p(i * 4, 16)).collect();
        let mut inc = KNearestRacks::build(&grid, &homes, 4);
        // The build is one fill(), i.e. one full pass.
        let full_pass_cost = inc.enqueued_count();
        // Warm: the first update materializes the distance column with one
        // full tracking pass; everything after is affected-region-sized.
        inc.update(&grid, &[]);

        grid.set_kind(p(9, 16), CellKind::Blocked);
        let before = inc.enqueued_count();
        inc.update(&grid, &[KnnChange::Cell(p(9, 16))]);
        let inc_cost = inc.enqueued_count() - before;
        let full = fresh(&grid, &homes, 4, &[]);

        for i in 0..grid.cell_count() {
            let cell = GridPos::from_index(i, 32);
            assert_eq!(inc.nearest(cell), full.nearest(cell), "differs at {cell}");
        }
        assert_eq!(inc.update_count(), 2);
        assert!(
            inc_cost < full_pass_cost / 2,
            "incremental cost {inc_cost} must undercut the full pass {full_pass_cost}"
        );
    }

    #[test]
    fn incremental_handles_block_then_unblock_in_one_batch() {
        let mut grid = open_grid(12, 12);
        let homes = [p(1, 1), p(10, 10), p(1, 10)];
        let mut idx = KNearestRacks::build(&grid, &homes, 2);
        idx.update(&grid, &[]); // materialize the distance column
        let want: Vec<Vec<RackId>> = (0..144)
            .map(|i| idx.nearest(GridPos::from_index(i, 12)).to_vec())
            .collect();
        // The cell blockades and reopens within the same tick batch: the
        // grid is net-unchanged and so must the index be.
        idx.update(&grid, &[KnnChange::Cell(p(5, 5)), KnnChange::Cell(p(5, 5))]);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(idx.nearest(GridPos::from_index(i, 12)), w.as_slice());
        }
        // And a real block -> separate unblock round-trips to the original.
        grid.set_kind(p(5, 5), CellKind::Blocked);
        idx.update(&grid, &[KnnChange::Cell(p(5, 5))]);
        assert!(idx.nearest(p(5, 5)).is_empty(), "blocked cell has no list");
        grid.set_kind(p(5, 5), CellKind::Aisle);
        idx.update(&grid, &[KnnChange::Cell(p(5, 5))]);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(idx.nearest(GridPos::from_index(i, 12)), w.as_slice());
        }
    }

    #[test]
    fn incremental_rack_churn_matches_rebuild() {
        let grid = open_grid(10, 10);
        let homes = [p(0, 0), p(9, 0), p(0, 9), p(9, 9)];
        let mut inc = fresh(&grid, &homes, 3, &[]);
        // Remove two racks in one batch.
        for r in [1usize, 2] {
            inc.set_alive(RackId::new(r), false);
        }
        inc.update(
            &grid,
            &[
                KnnChange::Rack(RackId::new(1)),
                KnnChange::Rack(RackId::new(2)),
            ],
        );
        let full = fresh(&grid, &homes, 3, &[1, 2]);
        for i in 0..grid.cell_count() {
            let cell = GridPos::from_index(i, 10);
            assert_eq!(inc.nearest(cell), full.nearest(cell));
        }
        // Restore one.
        inc.set_alive(RackId::new(2), true);
        inc.update(&grid, &[KnnChange::Rack(RackId::new(2))]);
        let full = fresh(&grid, &homes, 3, &[1]);
        for i in 0..grid.cell_count() {
            let cell = GridPos::from_index(i, 10);
            assert_eq!(inc.nearest(cell), full.nearest(cell));
        }
    }

    #[test]
    fn memory_footprint_scales_with_k() {
        let grid = open_grid(20, 20);
        let homes: Vec<GridPos> = (0..10).map(|i| p(i, 10)).collect();
        let small = KNearestRacks::build(&grid, &homes, 1);
        let large = KNearestRacks::build(&grid, &homes, 8);
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
            let idx = KNearestRacks::build(&grid, &homes, 3);
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
        /// shared or walled) and K in 1..=8, `build` and the masked pass the
        /// first `update` runs over a random dead set both give the classic
        /// build's lists after the classic build's number of enqueues.
        #[test]
        fn flat_build_equals_classic_build(
            size in (1u16..25, 1u16..25),
            walls in proptest::collection::vec((0u16..24, 0u16..24), 0..150),
            homes in proptest::collection::vec((0u16..24, 0u16..24), 1..41),
            k in 1usize..9,
            dead in proptest::collection::vec(0usize..40, 0..12),
        ) {
            let (grid, homes) = obstructed(size, &walls, &homes);
            let dead: Vec<usize> = dead.into_iter().filter(|&r| r < homes.len()).collect();
            let idx = KNearestRacks::build(&grid, &homes, k);
            let (want, enqueued) = classic_build(&grid, &homes, k, &[]);
            prop_assert_eq!(idx.enqueued_count(), enqueued);
            for (i, want) in want.iter().enumerate() {
                let cell = GridPos::from_index(i, size.0);
                prop_assert_eq!(idx.nearest(cell), want.as_slice(), "build differs at {}", cell);
            }
            let masked = fresh(&grid, &homes, k, &dead);
            let (want, more) = classic_build(&grid, &homes, k, &dead);
            prop_assert_eq!(masked.enqueued_count(), enqueued + more);
            for (i, want) in want.iter().enumerate() {
                let cell = GridPos::from_index(i, size.0);
                prop_assert_eq!(masked.nearest(cell), want.as_slice(), "pass differs at {}", cell);
            }
        }

        /// After the first `update`, each entry's distance is its rack's
        /// true grid distance, and each list is the K smallest `(distance,
        /// rack id)` pairs over the live racks that reach the cell.
        #[test]
        fn distances_are_grid_distances(
            size in (1u16..17, 1u16..17),
            walls in proptest::collection::vec((0u16..24, 0u16..24), 0..60),
            homes in proptest::collection::vec((0u16..24, 0u16..24), 1..21),
            k in 1usize..9,
            dead in proptest::collection::vec(0usize..20, 0..6),
        ) {
            let (grid, homes) = obstructed(size, &walls, &homes);
            let dead: Vec<usize> = dead.into_iter().filter(|&r| r < homes.len()).collect();
            let idx = fresh(&grid, &homes, k, &dead);
            let fields: Vec<Vec<Option<u32>>> = (homes.iter().enumerate())
                .map(|(r, &home)| {
                    let live = !dead.contains(&r) && grid.passable(home);
                    if live { grid_distances(&grid, home) } else { vec![None; grid.cell_count()] }
                })
                .collect();
            for c in 0..grid.cell_count() {
                let mut want: Vec<(u32, RackId)> = (fields.iter().enumerate())
                    .filter_map(|(r, field)| Some((field[c]?, RackId::new(r))))
                    .collect();
                want.sort_unstable();
                want.truncate(k);
                let got: Vec<(u32, RackId)> = (idx.nearest(GridPos::from_index(c, size.0)).iter())
                    .zip(&idx.dists[c * k..])
                    .map(|(&r, &d)| (d as u32, r))
                    .collect();
                prop_assert_eq!(got, want, "cell {}", c);
            }
        }

        /// The masked full pass the first update runs after arbitrary churn
        /// equals the classic build over the alive subset, ids preserved
        /// through the mask.
        #[test]
        fn rebuild_equals_fresh_masked_build(
            dead in proptest::collection::hash_set(0usize..6, 0..5),
        ) {
            let grid = open_grid(9, 9);
            let homes: Vec<GridPos> = (0..6).map(|i| p(i as u16, i as u16)).collect();
            let dead: Vec<usize> = dead.into_iter().collect();
            let churned = fresh(&grid, &homes, 3, &dead);
            let (classic, _) = classic_build(&grid, &homes, 3, &dead);
            for (i, want) in classic.iter().enumerate() {
                let cell = GridPos::from_index(i, 9);
                prop_assert_eq!(churned.nearest(cell), want.as_slice());
            }
        }

        /// Incremental updates across random blockade/removal soups equal a
        /// fresh masked build after *every* batch (distance bookkeeping in
        /// one batch must not poison the next). `kind` 0 flips an arbitrary
        /// cell's passability, 1 flips an arbitrary rack's liveness.
        #[test]
        fn update_equals_fresh_masked_build(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..2, 0usize..81), 1..4),
                1..4,
            ),
        ) {
            let mut grid = open_grid(9, 9);
            let homes: Vec<GridPos> = (0..5).map(|i| p(i as u16 * 2, 4)).collect();
            let mut inc = KNearestRacks::build(&grid, &homes, 3);
            // Materialize the distance column so every generated batch
            // exercises the incremental path, not the warm-up pass.
            inc.update(&grid, &[]);
            let mut alive = [true; 5];
            for batch in &batches {
                let mut changes = Vec::new();
                for &(kind, v) in batch {
                    if kind == 0 {
                        let pos = GridPos::from_index(v % 81, 9);
                        let flipped = if grid.passable(pos) {
                            CellKind::Blocked
                        } else {
                            CellKind::Aisle
                        };
                        grid.set_kind(pos, flipped);
                        changes.push(KnnChange::Cell(pos));
                    } else {
                        let r = v % 5;
                        alive[r] = !alive[r];
                        inc.set_alive(RackId::new(r), alive[r]);
                        changes.push(KnnChange::Rack(RackId::new(r)));
                    }
                }
                inc.update(&grid, &changes);
                let dead: Vec<usize> = (0..5).filter(|&r| !alive[r]).collect();
                let want = fresh(&grid, &homes, 3, &dead);
                for i in 0..grid.cell_count() {
                    let cell = GridPos::from_index(i, 9);
                    prop_assert_eq!(
                        inc.nearest(cell),
                        want.nearest(cell),
                        "lists disagree at {} after a batch", cell
                    );
                }
            }
        }
    }

    /// Enqueues of the visited-bitset build on `pinned_floor` at K = 8, as
    /// that build recorded them before the level-order pass replaced it.
    const PINNED_ENQUEUES: u64 = 7_513;

    /// The classic build over the racks not in `dead` (ids preserved): a
    /// FIFO of `(cell, rack)` pairs into nested `Vec`s, each pair enqueued
    /// at most once through a visited set. It is the behavioural reference
    /// for the level-order pass, which must give the same lists after the
    /// same number of enqueues (returned beside the lists).
    fn classic_build(
        grid: &GridMap,
        homes: &[GridPos],
        k: usize,
        dead: &[usize],
    ) -> (Vec<Vec<RackId>>, u64) {
        let mut lists: Vec<Vec<RackId>> = vec![Vec::new(); grid.cell_count()];
        let mut visited = HashSet::new();
        let mut queue = VecDeque::new();
        for (i, &home) in homes.iter().enumerate() {
            if !dead.contains(&i) && grid.passable(home) {
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
