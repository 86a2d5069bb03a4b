//! Independent runtime validation of executed trajectories.
//!
//! Planners promise conflict-freedom (Definition 5); the engine re-checks it
//! on every executed tick, independently of the reservation structures. A
//! violation is a planner bug, never workload-dependent behaviour, so the
//! engine surfaces it loudly in the report.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tprw_warehouse::{GridPos, RobotId, Tick};

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
/// The validator is canonical engine state and lives in
/// [`crate::engine::EngineState`] in this working layout, but it compares,
/// serialises and deserialises as its [`ValidatorSnapshot`]: the generation
/// counter, dense-array capacities and sort buffer are physical layout, not
/// logical state.
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
        let mut validator = Self::default();
        validator.import_snapshot(&ValidatorSnapshot::deserialize(v)?);
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
            let i = robot.index();
            if i >= self.prev_pos.len() {
                self.prev_pos.resize(i + 1, GridPos::new(0, 0));
                self.prev_mark.resize(i + 1, 0);
            }
            self.prev_pos[i] = pos;
            self.prev_mark[i] = self.mark;
        }
        self.prev_t = Some(t);
    }

    /// Advance the fast path one tick **without rescanning positions**:
    /// sets `prev_t = Some(t)` and leaves the generation mark and dense
    /// previous-position entries untouched.
    ///
    /// Callable only when a fresh [`TrajectoryValidator::check_tick_fast`]
    /// call would be a provable no-op, i.e. all of:
    ///
    /// * the on-grid position set is byte-identical to the one passed to
    ///   the last `check_tick_fast` call (nothing moved, docked or
    ///   undocked) — so rewriting the entries under a new mark would store
    ///   the same data, and every edge probe would hit `was == pos`;
    /// * that last call pushed **zero** vertex conflicts — a vertex
    ///   conflict between stationary robots is pushed again by every
    ///   scan, so skipping would under-count;
    /// * `prev_t == Some(t - 1)` — the window is contiguous.
    ///
    /// Under those preconditions the exported [`ValidatorSnapshot`] after
    /// this call is identical to the one a real `check_tick_fast` would
    /// leave (`prev_fast` filters on the *current* mark either way), and
    /// all future verdicts agree. The engine's movement phase uses this
    /// to keep quiescent ticks O(1); debug builds assert the preconditions.
    pub fn advance_static(&mut self, t: Tick) {
        debug_assert_eq!(
            self.prev_t,
            Some(t.wrapping_sub(1)),
            "advance_static requires a contiguous window"
        );
        self.prev_t = Some(t);
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
}
