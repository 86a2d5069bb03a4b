//! Independent runtime validation of executed trajectories.
//!
//! Planners promise conflict-freedom (Definition 5); the engine re-checks it
//! on every executed tick, independently of the reservation structures. A
//! violation is a planner bug, never workload-dependent behaviour, so the
//! engine surfaces it loudly in the report.
//!
//! A tick enters the validator one of two ways:
//!
//! * [`TrajectoryValidator::check_tick_fast`] takes every on-grid robot and
//!   sorts them by cell: O(n log n) in the fleet.
//! * [`TrajectoryValidator::check_tick_delta`] takes only the robots that
//!   changed since the previous tick and checks their new cells against a
//!   per-cell occupancy index: O(changed). It applies only when the
//!   previous tick was checked and left no two robots on one cell, and it
//!   declines (changing nothing) whenever the changed robots conflict, so
//!   the caller reruns the full check and conflict counts and order stay
//!   the full check's.
//!
//! Both leave the same canonical state ([`ValidatorSnapshot`]). The cell
//! index is derived and never serialised.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tprw_warehouse::{GridMap, GridPos, RobotId, Tick};

/// Largest robot index a [`ValidatorSnapshot`] may name on import: the
/// `u16` fleet cap both reservation layers enforce
/// ([`tprw_pathfinding::cdt::MAX_CDT_ROBOTS`]). The dense previous-position
/// arrays are sized by the largest index, so an unchecked one could ask
/// for gigabytes.
const MAX_ROBOT_INDEX: usize = tprw_pathfinding::cdt::MAX_CDT_ROBOTS;

/// A conflict observed during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutedConflict {
    /// Two robots occupied the same cell at the same tick.
    Vertex {
        /// The shared cell.
        pos: GridPos,
        /// When.
        t: Tick,
        /// Robots involved.
        a: RobotId,
        /// Second robot.
        b: RobotId,
    },
    /// Two robots swapped cells across consecutive ticks.
    Edge {
        /// Where the first robot came from.
        from: GridPos,
        /// Where it went (and the other came from).
        to: GridPos,
        /// Tick the swap started.
        t: Tick,
        /// Robots involved.
        a: RobotId,
        /// Second robot.
        b: RobotId,
    },
}

/// Sliding-window conflict checker fed one tick of on-grid robot positions
/// at a time.
///
/// Two equivalent checking paths exist: [`TrajectoryValidator::check_tick`]
/// is the seed implementation (two `HashMap`s rebuilt per tick — the
/// reference this module's tests compare against; the engine never calls
/// it), while [`TrajectoryValidator::check_tick_fast`] reaches the same
/// verdicts with a reusable sort buffer and generation-stamped dense
/// arrays, performing no steady-state allocations. Use one path
/// consistently per validator instance — they keep separate previous-tick
/// state.
///
/// [`TrajectoryValidator::check_tick_delta`] shares the fast path's
/// previous-tick state and may be mixed with `check_tick_fast` freely.
///
/// The validator is canonical engine state and lives in
/// [`crate::engine::EngineState`] in this working layout, but it compares,
/// serialises and deserialises as its [`ValidatorSnapshot`]: the generation
/// counter, dense-array capacities, sort buffer and cell index are physical
/// layout, not logical state.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryValidator {
    prev: HashMap<RobotId, GridPos>,
    prev_t: Option<Tick>,
    /// All conflicts observed so far.
    pub conflicts: Vec<ExecutedConflict>,
    /// Fast path: previous position per robot index, valid where
    /// `prev_mark` carries the current generation.
    prev_pos: Vec<GridPos>,
    prev_mark: Vec<u32>,
    /// Generation of the *previous* tick's `prev_pos` entries.
    mark: u32,
    /// Reusable `(cell key, position index)` sort buffer.
    sorted: Vec<(u32, u32)>,
    /// Delta path: `(stamp, robot index)` per row-major grid cell, an
    /// occupant where the stamp equals `cell_stamp` (never 0). Allocated by
    /// the first delta check.
    cells: Vec<(u32, u32)>,
    cell_stamp: u32,
    /// `cells` holds exactly the fast path's previous positions, and no
    /// two of them share a cell.
    cells_synced: bool,
}

/// Order-preserving cell key (grids are < 2¹⁶ on a side).
#[inline]
fn cell_key(p: GridPos) -> u32 {
    ((p.x as u32) << 16) | p.y as u32
}

/// The canonical (checkpoint-persisted) state of a
/// [`TrajectoryValidator`]: the previous tick's positions for both checking
/// paths, the previous tick itself, and every conflict observed so far.
/// The generation counter, dense-array capacities and sort buffer are
/// physical layout, not logical state, and are rebuilt on import.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ValidatorSnapshot {
    /// Previous checked tick (`None` before the first check).
    pub prev_t: Option<Tick>,
    /// Conflicts observed so far, in recording order.
    pub conflicts: Vec<ExecutedConflict>,
    /// Seed-path previous positions, robot-sorted for canonical bytes.
    pub prev_seed: Vec<(RobotId, GridPos)>,
    /// Fast-path previous positions (entries live at the current
    /// generation), robot-sorted.
    pub prev_fast: Vec<(RobotId, GridPos)>,
}

impl PartialEq for TrajectoryValidator {
    fn eq(&self, other: &Self) -> bool {
        self.export_snapshot() == other.export_snapshot()
    }
}

impl Serialize for TrajectoryValidator {
    fn serialize(&self) -> serde::Value {
        self.export_snapshot().serialize()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.export_snapshot().encode(out)
    }
}

impl Deserialize for TrajectoryValidator {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let snap = ValidatorSnapshot::deserialize(v)?;
        if let Some(&(robot, _)) = snap
            .prev_seed
            .iter()
            .chain(&snap.prev_fast)
            .find(|(robot, _)| robot.index() > MAX_ROBOT_INDEX)
        {
            return Err(serde::Error::msg(format!(
                "validator names {robot}, beyond the fleet cap of {}",
                MAX_ROBOT_INDEX + 1
            )));
        }
        let mut validator = Self::default();
        validator.import_snapshot(&snap);
        Ok(validator)
    }
}

impl TrajectoryValidator {
    /// Fresh validator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocation-free equivalent of [`TrajectoryValidator::check_tick`]:
    /// sorts the tick's positions by cell to find shared cells and answers
    /// the swap check with binary searches plus dense per-robot
    /// previous-position arrays. Conflict verdicts (and counts) are
    /// identical to the seed path; only the in-`conflicts` ordering of
    /// *vertex* conflicts of distinct cells may differ (cell order instead
    /// of insertion order).
    pub fn check_tick_fast(&mut self, t: Tick, positions: &[(RobotId, GridPos)]) {
        self.sorted.clear();
        self.sorted.extend(
            positions
                .iter()
                .enumerate()
                .map(|(i, &(_, pos))| (cell_key(pos), i as u32)),
        );
        self.sorted.sort_unstable();

        // Vertex conflicts: runs of equal cell keys, every later occupant
        // against the first (matching the seed's first-insert-wins map).
        let mut i = 0;
        while i < self.sorted.len() {
            let mut j = i + 1;
            while j < self.sorted.len() && self.sorted[j].0 == self.sorted[i].0 {
                j += 1;
            }
            if j - i > 1 {
                let (a, pos) = positions[self.sorted[i].1 as usize];
                for &(_, idx) in &self.sorted[i + 1..j] {
                    let (b, _) = positions[idx as usize];
                    self.conflicts
                        .push(ExecutedConflict::Vertex { pos, t, a, b });
                }
            }
            i = j;
        }

        // Edge (swap) conflicts against the previous tick.
        if self.prev_t == Some(t.wrapping_sub(1)) {
            for &(robot, pos) in positions {
                let Some(was) = self.fast_prev(robot) else {
                    continue;
                };
                if was == pos {
                    continue;
                }
                // First current occupant of `was`, as the seed map held.
                let target = cell_key(was);
                let lo = self.sorted.partition_point(|&(k, _)| k < target);
                if lo >= self.sorted.len() || self.sorted[lo].0 != target {
                    continue;
                }
                let (other, _) = positions[self.sorted[lo].1 as usize];
                if other != robot && self.fast_prev(other) == Some(pos) && robot < other {
                    self.conflicts.push(ExecutedConflict::Edge {
                        from: was,
                        to: pos,
                        t: t - 1,
                        a: robot,
                        b: other,
                    });
                }
            }
        }

        // Roll the dense previous-tick state forward one generation.
        self.mark = self.mark.wrapping_add(1);
        if self.mark == 0 {
            // Generation wrap: clear stamps once so stale marks cannot alias.
            self.prev_mark.fill(0);
            self.mark = 1;
        }
        for &(robot, pos) in positions {
            self.stamp(robot, pos);
        }
        self.prev_t = Some(t);
        self.cells_synced = false;
    }

    /// Check tick `t` from only the robots that changed: `touched` lists,
    /// without repeats, every robot whose cell or on-grid status may differ
    /// from the previous check, with its cell at `t` (`None` = off the
    /// grid). Every robot not listed must stand where the previous check
    /// saw it, on or off `grid`.
    ///
    /// Applies when the previous check was at `t - 1` and left no two
    /// robots on one cell. Then a vertex conflict needs a touched robot on
    /// its cell and a swap needs two robots that moved, so the touched
    /// robots' cells decide the verdict. If they conflict with nothing, the
    /// previous positions are updated in place and the result is `true`:
    /// the canonical state is exactly what
    /// [`TrajectoryValidator::check_tick_fast`] over every on-grid robot
    /// would leave. Otherwise the result is `false`, the canonical state is
    /// unchanged, and the caller must run `check_tick_fast` for this tick.
    pub fn check_tick_delta(
        &mut self,
        t: Tick,
        touched: &[(RobotId, Option<GridPos>)],
        grid: &GridMap,
    ) -> bool {
        if self.mark == 0 || self.prev_t != Some(t.wrapping_sub(1)) || !self.sync_cells(grid) {
            return false;
        }
        let width = grid.width();
        // Vacate every touched robot's previous cell before claiming the
        // new ones, so following into a just-left cell is no conflict.
        for &(robot, _) in touched {
            if let Some(was) = self.fast_prev(robot) {
                debug_assert_eq!(self.cell_occupant(was, width), Some(robot));
                self.cells[was.to_index(width)].0 = 0;
            }
        }
        let mut clean = true;
        for &(robot, now) in touched {
            let Some(pos) = now else { continue };
            if self.cell_occupant(pos, width).is_some() {
                clean = false; // vertex conflict
                break;
            }
            self.cells[pos.to_index(width)] = (self.cell_stamp, robot.0);
        }
        // A swap: `robot` moved `was → pos` and whoever stands on `was`
        // now came from `pos`.
        clean = clean
            && touched.iter().all(|&(robot, now)| {
                let (Some(was), Some(pos)) = (self.fast_prev(robot), now) else {
                    return true;
                };
                was == pos
                    || self
                        .cell_occupant(was, width)
                        .is_none_or(|other| other == robot || self.fast_prev(other) != Some(pos))
            });
        if !clean {
            self.cells_synced = false;
            return false;
        }
        for &(robot, now) in touched {
            match now {
                Some(pos) => self.stamp(robot, pos),
                None => {
                    if let Some(mark) = self.prev_mark.get_mut(robot.index()) {
                        *mark = 0;
                    }
                }
            }
        }
        self.prev_t = Some(t);
        true
    }

    /// Record `pos` as `robot`'s previous-tick position at the current
    /// generation.
    fn stamp(&mut self, robot: RobotId, pos: GridPos) {
        let i = robot.index();
        if i >= self.prev_pos.len() {
            self.prev_pos.resize(i + 1, GridPos::new(0, 0));
            self.prev_mark.resize(i + 1, 0);
        }
        self.prev_pos[i] = pos;
        self.prev_mark[i] = self.mark;
    }

    /// The robot the cell index places on `pos`.
    #[inline]
    fn cell_occupant(&self, pos: GridPos, width: u16) -> Option<RobotId> {
        let (stamp, robot) = self.cells[pos.to_index(width)];
        (stamp == self.cell_stamp).then_some(RobotId(robot))
    }

    /// Make `cells` mirror the previous positions, sizing it to `grid` on
    /// first use. `false` if two robots share a cell: the delta check does
    /// not apply, because a full check pushes that conflict again.
    fn sync_cells(&mut self, grid: &GridMap) -> bool {
        if self.cells_synced {
            return true;
        }
        if self.cells.len() != grid.cell_count() {
            self.cells.clear();
            self.cells.resize(grid.cell_count(), (0, 0));
        }
        self.cell_stamp = self.cell_stamp.wrapping_add(1);
        if self.cell_stamp == 0 {
            // Stamp wrap: clear once so stale stamps cannot alias.
            self.cells.fill((0, 0));
            self.cell_stamp = 1;
        }
        for i in 0..self.prev_mark.len() {
            if self.prev_mark[i] != self.mark {
                continue;
            }
            let pos = self.prev_pos[i];
            if self.cell_occupant(pos, grid.width()).is_some() {
                return false;
            }
            self.cells[pos.to_index(grid.width())] = (self.cell_stamp, i as u32);
        }
        self.cells_synced = true;
        true
    }

    /// The previous-tick position of `robot` on the fast path.
    #[inline]
    fn fast_prev(&self, robot: RobotId) -> Option<GridPos> {
        let i = robot.index();
        (i < self.prev_mark.len() && self.prev_mark[i] == self.mark).then(|| self.prev_pos[i])
    }

    /// Check one tick of positions (only robots physically on the grid).
    pub fn check_tick(&mut self, t: Tick, positions: &[(RobotId, GridPos)]) {
        // Vertex conflicts: any shared cell.
        let mut by_cell: HashMap<GridPos, RobotId> = HashMap::with_capacity(positions.len());
        for &(robot, pos) in positions {
            if let Some(&other) = by_cell.get(&pos) {
                self.conflicts.push(ExecutedConflict::Vertex {
                    pos,
                    t,
                    a: other,
                    b: robot,
                });
            } else {
                by_cell.insert(pos, robot);
            }
        }
        // Edge (swap) conflicts against the previous tick.
        if self.prev_t == Some(t.wrapping_sub(1)) {
            for &(robot, pos) in positions {
                let Some(&was) = self.prev.get(&robot) else {
                    continue;
                };
                if was == pos {
                    continue;
                }
                // Someone who was at `pos` and is now at `was` swapped with us.
                if let Some(&other) = by_cell.get(&was) {
                    if other != robot && self.prev.get(&other) == Some(&pos) {
                        // Record once (ordered pair).
                        if robot < other {
                            self.conflicts.push(ExecutedConflict::Edge {
                                from: was,
                                to: pos,
                                t: t - 1,
                                a: robot,
                                b: other,
                            });
                        }
                    }
                }
            }
        }
        self.prev = positions.iter().copied().collect();
        self.prev_t = Some(t);
    }

    /// Number of conflicts observed.
    pub fn conflict_count(&self) -> usize {
        self.conflicts.len()
    }

    /// Export the canonical state (see [`ValidatorSnapshot`]).
    pub fn export_snapshot(&self) -> ValidatorSnapshot {
        let mut prev_seed: Vec<(RobotId, GridPos)> =
            self.prev.iter().map(|(&r, &p)| (r, p)).collect();
        prev_seed.sort_unstable_by_key(|&(r, _)| r);
        let mut prev_fast: Vec<(RobotId, GridPos)> = self
            .prev_mark
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == self.mark && self.mark != 0)
            .map(|(i, _)| (RobotId::new(i), self.prev_pos[i]))
            .collect();
        prev_fast.sort_unstable_by_key(|&(r, _)| r);
        ValidatorSnapshot {
            prev_t: self.prev_t,
            conflicts: self.conflicts.clone(),
            prev_seed,
            prev_fast,
        }
    }

    /// Rebuild a validator from an exported snapshot: the restored instance
    /// reaches exactly the verdicts the exporting one would from the next
    /// `check_tick`/`check_tick_fast` call onward.
    pub fn import_snapshot(&mut self, snap: &ValidatorSnapshot) {
        *self = Self::default();
        self.prev_t = snap.prev_t;
        self.conflicts = snap.conflicts.clone();
        self.prev = snap.prev_seed.iter().copied().collect();
        if !snap.prev_fast.is_empty() {
            self.mark = 1;
            let max_index = snap
                .prev_fast
                .iter()
                .map(|&(r, _)| r.index())
                .max()
                .expect("non-empty");
            self.prev_pos.resize(max_index + 1, GridPos::new(0, 0));
            self.prev_mark.resize(max_index + 1, 0);
            for &(robot, pos) in &snap.prev_fast {
                self.prev_pos[robot.index()] = pos;
                self.prev_mark[robot.index()] = self.mark;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn id(i: usize) -> RobotId {
        RobotId::new(i)
    }

    #[test]
    fn clean_run_no_conflicts() {
        let mut v = TrajectoryValidator::new();
        v.check_tick(0, &[(id(0), p(0, 0)), (id(1), p(5, 5))]);
        v.check_tick(1, &[(id(0), p(1, 0)), (id(1), p(5, 6))]);
        assert_eq!(v.conflict_count(), 0);
    }

    #[test]
    fn vertex_conflict_detected() {
        let mut v = TrajectoryValidator::new();
        v.check_tick(3, &[(id(0), p(2, 2)), (id(1), p(2, 2))]);
        assert_eq!(v.conflict_count(), 1);
        assert!(matches!(
            v.conflicts[0],
            ExecutedConflict::Vertex { t: 3, .. }
        ));
    }

    #[test]
    fn swap_conflict_detected() {
        let mut v = TrajectoryValidator::new();
        v.check_tick(0, &[(id(0), p(0, 0)), (id(1), p(1, 0))]);
        v.check_tick(1, &[(id(0), p(1, 0)), (id(1), p(0, 0))]);
        assert_eq!(v.conflict_count(), 1);
        assert!(matches!(
            v.conflicts[0],
            ExecutedConflict::Edge { t: 0, .. }
        ));
    }

    #[test]
    fn follow_through_is_clean() {
        let mut v = TrajectoryValidator::new();
        v.check_tick(0, &[(id(0), p(1, 0)), (id(1), p(0, 0))]);
        v.check_tick(1, &[(id(0), p(2, 0)), (id(1), p(1, 0))]);
        assert_eq!(v.conflict_count(), 0, "following is not swapping");
    }

    #[test]
    fn gap_in_ticks_resets_edge_check() {
        let mut v = TrajectoryValidator::new();
        v.check_tick(0, &[(id(0), p(0, 0)), (id(1), p(1, 0))]);
        // Tick 5 (not consecutive): swap-looking positions are NOT an edge
        // conflict across a gap.
        v.check_tick(5, &[(id(0), p(1, 0)), (id(1), p(0, 0))]);
        assert_eq!(v.conflict_count(), 0);
    }

    #[test]
    fn robot_leaving_grid_is_fine() {
        let mut v = TrajectoryValidator::new();
        v.check_tick(0, &[(id(0), p(0, 0)), (id(1), p(1, 0))]);
        // Robot 1 docked (absent); robot 0 moves into its old cell.
        v.check_tick(1, &[(id(0), p(1, 0))]);
        assert_eq!(v.conflict_count(), 0);
    }

    #[test]
    fn fast_path_detects_vertex_and_swap() {
        let mut v = TrajectoryValidator::new();
        v.check_tick_fast(0, &[(id(0), p(0, 0)), (id(1), p(1, 0)), (id(2), p(1, 0))]);
        assert_eq!(v.conflict_count(), 1, "shared cell");
        assert!(matches!(
            v.conflicts[0],
            ExecutedConflict::Vertex { t: 0, .. }
        ));
        v.check_tick_fast(1, &[(id(0), p(1, 0)), (id(1), p(0, 0)), (id(2), p(2, 0))]);
        assert_eq!(v.conflict_count(), 2, "0 and 1 swapped");
        assert!(matches!(
            v.conflicts[1],
            ExecutedConflict::Edge { t: 0, .. }
        ));
    }

    #[test]
    fn fast_path_follow_through_and_gaps_clean() {
        let mut v = TrajectoryValidator::new();
        v.check_tick_fast(0, &[(id(0), p(1, 0)), (id(1), p(0, 0))]);
        v.check_tick_fast(1, &[(id(0), p(2, 0)), (id(1), p(1, 0))]);
        assert_eq!(v.conflict_count(), 0, "following is not swapping");
        // A tick gap resets the edge check.
        v.check_tick_fast(5, &[(id(0), p(1, 0)), (id(1), p(2, 0))]);
        assert_eq!(v.conflict_count(), 0);
    }

    /// A validator restored from a snapshot must reach exactly the verdicts
    /// the original would on every subsequent tick, on both checking paths.
    #[test]
    fn snapshot_roundtrip_preserves_verdicts() {
        let mut fast = TrajectoryValidator::new();
        fast.check_tick_fast(0, &[(id(0), p(0, 0)), (id(1), p(1, 0))]);
        let mut restored_fast = TrajectoryValidator::new();
        restored_fast.import_snapshot(&fast.export_snapshot());
        // The swap verdict depends on the previous tick's positions.
        let swap = [(id(0), p(1, 0)), (id(1), p(0, 0))];
        fast.check_tick_fast(1, &swap);
        restored_fast.check_tick_fast(1, &swap);
        assert_eq!(fast.conflicts, restored_fast.conflicts);
        assert_eq!(fast.conflict_count(), 1);
        assert_eq!(
            fast.export_snapshot(),
            restored_fast.export_snapshot(),
            "re-exports agree after further checking"
        );

        let mut seed = TrajectoryValidator::new();
        seed.check_tick(0, &[(id(0), p(0, 0)), (id(1), p(1, 0))]);
        let mut restored_seed = TrajectoryValidator::new();
        restored_seed.import_snapshot(&seed.export_snapshot());
        seed.check_tick(1, &swap);
        restored_seed.check_tick(1, &swap);
        assert_eq!(seed.conflicts, restored_seed.conflicts);

        // An untouched validator round-trips to the empty snapshot.
        let empty = TrajectoryValidator::new().export_snapshot();
        assert_eq!(empty, ValidatorSnapshot::default());
    }

    /// The two checking paths must agree on every conflict count across a
    /// pseudo-random trajectory soup.
    #[test]
    fn fast_path_matches_seed_path() {
        let mut seed_v = TrajectoryValidator::new();
        let mut fast_v = TrajectoryValidator::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for t in 0..200u64 {
            let n = (next() % 12) as usize + 1;
            let positions: Vec<(RobotId, GridPos)> = (0..n)
                .map(|i| {
                    let r = next();
                    (id(i), p((r % 4) as u16, ((r >> 8) % 4) as u16))
                })
                .collect();
            seed_v.check_tick(t, &positions);
            fast_v.check_tick_fast(t, &positions);
            assert_eq!(
                seed_v.conflict_count(),
                fast_v.conflict_count(),
                "divergence at tick {t}"
            );
        }
        assert!(seed_v.conflict_count() > 0, "the soup must collide");
    }

    /// The delta entry leaves exactly the full check's state after every
    /// tick of random trajectories: steps, docks and undocks, injected
    /// vertex conflicts (some left standing) and swaps, tick gaps, and
    /// export/import round trips that drop the cell index.
    #[test]
    fn delta_check_matches_full_check() {
        let grid = GridMap::filled(12, 12, tprw_warehouse::CellKind::Aisle);
        let mut applied = 0;
        for seed in 1..=24u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let n = 10;
            let mut cells: Vec<Option<GridPos>> = (0..n).map(|i| Some(p(i as u16, 0))).collect();
            let (mut full, mut delta) = (TrajectoryValidator::new(), TrajectoryValidator::new());
            let mut t = 0;
            for _ in 0..300 {
                t += if next(40) == 0 { 2 } else { 1 };
                let mut touched = Vec::new();
                for i in 0..n {
                    let to = match (cells[i], next(12)) {
                        (None, 0) => Some(p(next(12) as u16, next(12) as u16)),
                        (Some(_), 0) => None,
                        (Some(at), 1..=3) => {
                            let step = [(1, 0), (0, 1), (-1, 0), (0, -1)][next(4) as usize];
                            let x = (at.x as i32 + step.0).clamp(0, 11) as u16;
                            let y = (at.y as i32 + step.1).clamp(0, 11) as u16;
                            Some(p(x, y))
                        }
                        (Some(_), 4) if next(8) == 0 => cells[next(n as u64) as usize],
                        _ => continue,
                    };
                    cells[i] = to;
                    touched.push(i);
                }
                if next(10) == 0 {
                    let (a, b) = (next(n as u64) as usize, next(n as u64) as usize);
                    if a != b && cells[a].is_some() && cells[b].is_some() {
                        cells.swap(a, b);
                        touched.extend([a, b]);
                    }
                }
                touched.sort_unstable();
                touched.dedup();
                let touched: Vec<(RobotId, Option<GridPos>)> =
                    touched.into_iter().map(|i| (id(i), cells[i])).collect();
                let on_grid: Vec<(RobotId, GridPos)> = (0..n)
                    .filter_map(|i| cells[i].map(|c| (id(i), c)))
                    .collect();
                full.check_tick_fast(t, &on_grid);
                if delta.check_tick_delta(t, &touched, &grid) {
                    applied += 1;
                } else {
                    delta.check_tick_fast(t, &on_grid);
                }
                assert_eq!(
                    delta.conflict_count(),
                    full.conflict_count(),
                    "seed {seed}, tick {t}"
                );
                assert_eq!(
                    delta.export_snapshot(),
                    full.export_snapshot(),
                    "seed {seed}, tick {t}"
                );
                if next(25) == 0 {
                    let snap = delta.export_snapshot();
                    delta = TrajectoryValidator::new();
                    delta.import_snapshot(&snap);
                }
            }
            assert!(
                full.conflict_count() > 0,
                "seed {seed}: the trajectories must collide"
            );
        }
        assert!(
            applied > 24 * 100,
            "the delta entry applied on only {applied} ticks"
        );
    }
}
