//! Per-cell K-nearest-rack index (Sec. VI-A, "flip requesting side").
//!
//! *"Since all racks' locations in the storage area are fixed, recording the
//! closest K racks of different grids is static and easy to maintain."* —
//! EATP traverses robots instead of racks and looks up the K racks closest
//! to each robot's cell in O(1).
//!
//! Built with a multi-source BFS seeded at every rack home, so "closest"
//! means true passable-grid distance; each cell keeps the `K` racks with the
//! smallest `(distance, rack id)` pairs, nearest first (ties broken by rack
//! id, deterministically).
//!
//! # Layout and build cost
//!
//! Lists live in one **flat `K`-stride array** (`lists[cell·K ..]` plus a
//! per-cell length byte) instead of a `Vec<Vec<RackId>>` — no per-cell heap
//! headers or capacity slack, `nearest` is a single indexed slice. A
//! parallel `K`-stride distance array records each entry's grid distance:
//! it is what makes incremental maintenance (below) possible. The BFS
//! dedups `(cell, rack)` pairs through a reusable visited *bitset* rather
//! than scanning each list per enqueue; that pruning made the build ~50×
//! cheaper on the bench floors, which matters because EATP pays it inside
//! `init`.
//!
//! # Incremental maintenance
//!
//! The index is *mostly* static — but disruption events change what
//! "closest" means: an aisle blockade reroutes the whole neighbourhood, and
//! rack churn (a rack taken off the floor via `RackRemoved` and later
//! restored) removes a BFS seed. Re-running the full multi-source BFS would
//! cost `O(HW·K)` however local the mutation was, so
//! [`KNearestRacks::update`] instead applies a **batch of changes around
//! their epicenters**:
//!
//! 1. *deletion* — entries invalidated by a newly blocked cell or a removed
//!    seed are deleted by support propagation: an entry `(cell, rack, d)`
//!    survives iff it is a live seed or some passable neighbour still holds
//!    `(rack, d − 1)`. Support chains strictly decrease `d`, so the
//!    propagation cannot cycle and deletes exactly the entries whose every
//!    shortest route died (no count-to-infinity);
//! 2. *repair* — a work-list re-relaxation seeded at the cells that lost
//!    entries, reopened cells and restored seeds recomputes each cell's
//!    list from its neighbours' lists (`topK` of `seeds ∪ neighbours + 1`)
//!    until a fixpoint. Entries surviving deletion are exact, so the
//!    relaxation converges to the unique fixpoint — the same lists a fresh
//!    masked index produces (property-tested below).
//!
//! Work is therefore proportional to the *affected region*, not the floor:
//! the deterministic [`KNearestRacks::enqueued_count`] cost counter (every
//! deletion/repair work-list push counts, exactly like a full pass's BFS
//! enqueues) lets tests and benches pin that locality without wall clocks,
//! and [`KNearestRacks::update_count`] records how many batches ran. The
//! one full pass after `build` is the first `update`, which materializes
//! the distance column against the already mutated grid and liveness
//! mask.

use crate::footprint::MemoryFootprint;
use std::collections::VecDeque;
use tprw_warehouse::{GridMap, GridPos, RackId};

/// Largest per-entry grid distance the index can record (the distance
/// column stores `u16`). Real floors sit orders of magnitude below this —
/// distances are near-Manhattan, not maze-length — and the build/update
/// paths panic loudly if a pathological grid ever exceeds it.
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
    /// Grid distance of each entry, parallel to `lists` (bounded by
    /// [`MAX_KNN_DIST`]). **Materialized lazily** by the first
    /// [`KNearestRacks::update`]: clean (never-disrupted) runs carry no
    /// per-entry distance memory, which keeps the Fig. 12 MC comparison
    /// honest.
    dists: Vec<u16>,
    /// Live entries per cell.
    count: Vec<u8>,
    /// Build scratch: `(cell, rack)` enqueued-bitset, rows of
    /// `ceil(racks / 64)` words per cell; reused by every full pass.
    visited: Vec<u64>,
    /// Build scratch: the BFS frontier `(pos, rack, dist)`, reused.
    queue: VecDeque<(GridPos, RackId, u32)>,
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
        let cells = grid.cell_count();
        let words = rack_homes.len().div_ceil(64);
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
            visited: vec![0; cells * words],
            queue: VecDeque::new(),
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

    /// Mark rack `rack` as present on / absent from the floor. Takes effect
    /// at the next [`KNearestRacks::update`] — callers batch several churn
    /// operations into one pass. The engine drives this from the
    /// `RackRemoved` / `RackRestored` disruption events through
    /// `PlannerBase::apply_disruption`.
    pub fn set_alive(&mut self, rack: RackId, alive: bool) {
        self.alive[rack.index()] = alive;
    }

    /// Whether rack `rack` currently seeds the index.
    pub fn is_alive(&self, rack: RackId) -> bool {
        self.alive[rack.index()]
    }

    /// The `O(HW·K)` multi-source BFS behind `build` and the first
    /// `update`, against `grid` and the current liveness mask. Every
    /// buffer — lists, counts, bitset, frontier — is reused; only the
    /// entries are rewritten. `(cell, rack)` pairs enter the frontier at
    /// most once (the visited bitset), so the level-order pop sequence —
    /// and therefore the deterministic nearest-first, tie-by-id list
    /// contents — matches the classic formulation with every duplicate
    /// no-op push removed.
    fn fill(&mut self, grid: &GridMap) {
        debug_assert_eq!(grid.width(), self.width, "index bound to one grid size");
        debug_assert_eq!(grid.cell_count(), self.count.len());
        let words = self.homes.len().div_ceil(64);
        self.count.fill(0);
        self.visited.fill(0);
        self.queue.clear();
        // Seed in rack-id order for deterministic tie-breaking.
        for (i, &home) in self.homes.iter().enumerate() {
            if self.alive[i] && grid.passable(home) {
                let cell = home.to_index(grid.width());
                self.visited[cell * words + i / 64] |= 1 << (i % 64);
                self.queue.push_back((home, RackId::new(i), 0));
                self.enqueued += 1;
            }
        }
        let k = self.k;
        let track_dists = self.dists.len() == self.lists.len();
        while let Some((pos, rack, d)) = self.queue.pop_front() {
            let cell = pos.to_index(grid.width());
            let c = self.count[cell] as usize;
            if c >= k {
                continue;
            }
            self.lists[cell * k + c] = rack;
            if track_dists {
                assert!(d <= MAX_KNN_DIST, "grid distance exceeds MAX_KNN_DIST");
                self.dists[cell * k + c] = d as u16;
            }
            self.count[cell] = (c + 1) as u8;
            let r = rack.index();
            for next in grid.passable_neighbors(pos) {
                let ncell = next.to_index(grid.width());
                let bit = &mut self.visited[ncell * words + r / 64];
                if (self.count[ncell] as usize) < k && *bit & (1 << (r % 64)) == 0 {
                    *bit |= 1 << (r % 64);
                    self.queue.push_back((next, rack, d + 1));
                    self.enqueued += 1;
                }
            }
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

    /// Apply a batch of world mutations *incrementally*: `grid` must
    /// already reflect every change in `changes` (and the liveness mask
    /// every [`KNearestRacks::set_alive`] flip). Produces exactly the lists
    /// of a fresh index under the same mask — pinned by the
    /// `update_equals_fresh_masked_build` property test — at a cost
    /// proportional to the affected region (observable through
    /// [`KNearestRacks::enqueued_count`]).
    pub fn update(&mut self, grid: &GridMap, changes: &[KnnChange]) {
        debug_assert_eq!(grid.width(), self.width, "index bound to one grid size");
        debug_assert_eq!(grid.cell_count(), self.count.len());
        self.updates += 1;
        // The distance column materializes on the first incremental batch
        // (clean runs never pay for it): one full distance-tracking pass —
        // against the already-mutated grid and mask, so `changes` is
        // subsumed — and every later batch is affected-region-sized.
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

    /// Cumulative work-list pushes across full passes and incremental
    /// updates (deterministic cost counter: `O(HW·K)` per full pass,
    /// affected-region-sized per incremental batch).
    pub fn enqueued_count(&self) -> u64 {
        self.enqueued
    }
}

impl MemoryFootprint for KNearestRacks {
    fn memory_bytes(&self) -> usize {
        self.lists.capacity() * std::mem::size_of::<RackId>()
            + self.dists.capacity() * std::mem::size_of::<u16>()
            + self.count.capacity()
            + self.visited.capacity() * std::mem::size_of::<u64>()
            + self.queue.capacity() * std::mem::size_of::<(GridPos, RackId, u32)>()
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
    use tprw_warehouse::CellKind;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn open_grid(w: u16, h: u16) -> GridMap {
        GridMap::filled(w, h, CellKind::Aisle)
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
        // once (the visited bitset guarantees it).
        let bound = (grid.cell_count() * homes.len()) as u64;
        assert!(build_cost <= bound, "{build_cost} > {bound}");
        let b = KNearestRacks::build(&grid, &homes, 4);
        assert_eq!(b.enqueued_count(), build_cost, "deterministic");
        // The first update's full pass on an unchanged grid costs exactly
        // the build again.
        a.update(&grid, &[]);
        assert_eq!(a.enqueued_count(), build_cost * 2);
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

        /// The flat bitset-deduped build equals the classic nested-`Vec`
        /// formulation on arbitrary obstructed grids.
        #[test]
        fn flat_build_equals_classic_build(
            walls in proptest::collection::hash_set((0u16..9, 0u16..9), 0..12),
            homes in proptest::collection::hash_set((0u16..9, 0u16..9), 1..6),
        ) {
            let mut grid = open_grid(9, 9);
            for &(x, y) in &walls {
                grid.set_kind(p(x, y), CellKind::Blocked);
            }
            let homes: Vec<GridPos> = homes.into_iter().map(|(x, y)| p(x, y)).collect();
            let idx = KNearestRacks::build(&grid, &homes, 3);
            let classic = classic_build(&grid, &homes, 3);
            for (i, want) in classic.iter().enumerate() {
                let cell = GridPos::from_index(i, 9);
                prop_assert_eq!(
                    idx.nearest(cell),
                    want.as_slice(),
                    "lists disagree at {}", cell
                );
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
            let alive: Vec<usize> = (0..6).filter(|r| !dead.contains(r)).collect();
            let alive_homes: Vec<GridPos> = alive.iter().map(|&r| homes[r]).collect();
            let classic = classic_build(&grid, &alive_homes, 3);
            for (i, lists) in classic.iter().enumerate() {
                let want: Vec<RackId> =
                    lists.iter().map(|r| RackId::new(alive[r.index()])).collect();
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

    /// The pre-flattening build (nested `Vec`s, `contains` dedup), kept as
    /// the behavioural reference for the bitset-deduped fill.
    fn classic_build(grid: &GridMap, homes: &[GridPos], k: usize) -> Vec<Vec<RackId>> {
        let mut lists: Vec<Vec<RackId>> = vec![Vec::new(); grid.cell_count()];
        let mut queue: VecDeque<(GridPos, RackId)> = VecDeque::new();
        for (i, &home) in homes.iter().enumerate() {
            if grid.passable(home) {
                queue.push_back((home, RackId::new(i)));
            }
        }
        while let Some((pos, rack)) = queue.pop_front() {
            let list = &mut lists[pos.to_index(grid.width())];
            if list.len() >= k || list.contains(&rack) {
                continue;
            }
            list.push(rack);
            for next in grid.passable_neighbors(pos) {
                let nlist = &lists[next.to_index(grid.width())];
                if nlist.len() < k && !nlist.contains(&rack) {
                    queue.push_back((next, rack));
                }
            }
        }
        lists
    }
}
