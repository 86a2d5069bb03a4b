//! Independent runtime validation of executed trajectories.
//!
//! Planners promise conflict-freedom (Definition 5); the engine re-checks it
//! on every executed tick, independently of the reservation structures. A
//! violation is a planner bug, never workload-dependent behaviour, so the
//! engine surfaces it loudly in the report.
//!
//! This is the one statement of the vertex and swap rules in shipped code
//! (`docs/adr/ADR-037-one-conflict-rule.md`): `resume_from` replays a
//! snapshot's committed legs through the same checks before it resumes
//! them, and refuses the first conflict they record.
//!
//! One per-cell index of `(stamp, robot)` answers every tick, entered one
//! of two ways:
//!
//! * [`TrajectoryValidator::check_tick`] takes every on-grid robot and
//!   claims their cells in list order: O(fleet).
//! * [`TrajectoryValidator::check_tick_delta`] takes only the robots that
//!   changed since the previous tick and moves just their claims:
//!   O(changed). It applies only when the previous check left the index
//!   synced, and it declines (leaving the canonical state unchanged)
//!   whenever the changed robots conflict, so the caller reruns the full
//!   check and conflict counts and order stay the full check's.
//!
//! Both leave the same state. Only the conflicts are canonical: the
//! previous check's tick and positions are the engine's robots at the
//! tick boundary, restored by `TrajectoryValidator::restart` on resume,
//! and the cell index is rebuilt by the first full check after it.

use serde::{Deserialize, Serialize};
use tprw_pathfinding::Conflict;
use tprw_warehouse::{GridMap, GridPos, RobotId, Tick};

#[cfg(test)]
pub(crate) mod reference;

/// Sliding-window conflict checker fed one tick of robot positions at a
/// time.
///
/// The validator is canonical engine state and lives in
/// [`crate::engine::EngineState`] in this working layout, but it compares,
/// serialises and deserialises as its conflicts alone: the previous check
/// is derived from the engine's robots, and the cell index, its stamp and
/// the array capacities are physical layout, not logical state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrajectoryValidator {
    #[serde(skip)]
    prev_t: Option<Tick>,
    /// All conflicts observed so far.
    pub conflicts: Vec<Conflict>,
    /// Previous checked cell per robot index (`None` = off the grid).
    #[serde(skip)]
    prev: Vec<Option<GridPos>>,
    /// `(stamp, robot index)` per row-major grid cell: the cell's first
    /// claimant where the stamp equals `cell_stamp` (never 0 once a full
    /// check ran).
    #[serde(skip)]
    cells: Vec<(u32, u32)>,
    #[serde(skip)]
    cell_stamp: u32,
    /// `cells` holds exactly `prev`, one robot per cell.
    #[serde(skip)]
    synced: bool,
}

impl PartialEq for TrajectoryValidator {
    fn eq(&self, other: &Self) -> bool {
        self.conflicts == other.conflicts
    }
}

impl TrajectoryValidator {
    /// Fresh validator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check tick `t` from every on-grid robot's cell on `grid`. Each robot
    /// claims its cell in list order: a robot on an already claimed cell is
    /// a vertex conflict against the cell's first claimant, and a robot
    /// that moved `was → pos` swapped with the first claimant of `was` if
    /// that one came from `pos` (recorded once, by the lower id). Leaves
    /// the index synced for [`TrajectoryValidator::check_tick_delta`]
    /// unless it recorded a vertex conflict.
    pub fn check_tick(&mut self, t: Tick, positions: &[(RobotId, GridPos)], grid: &GridMap) {
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
        let width = grid.width();
        let before = self.conflicts.len();
        for &(b, pos) in positions {
            match self.cell_occupant(pos, width) {
                Some(a) => self.conflicts.push(Conflict::Vertex { pos, t, a, b }),
                None => self.cells[pos.to_index(width)] = (self.cell_stamp, b.0),
            }
        }
        self.synced = self.conflicts.len() == before;
        if self.prev_t == Some(t.wrapping_sub(1)) {
            for &(robot, pos) in positions {
                let Some((from, b)) = self.swap_partner(robot, Some(pos), width) else {
                    continue;
                };
                if robot < b {
                    self.conflicts.push(Conflict::Edge {
                        from,
                        to: pos,
                        t: t - 1,
                        a: robot,
                        b,
                    });
                }
            }
        }
        self.prev.fill(None);
        for &(robot, pos) in positions {
            self.set_prev(robot, Some(pos));
        }
        self.prev_t = Some(t);
    }

    /// Check tick `t` from only the robots that changed: `touched` lists,
    /// without repeats, every robot whose cell or on-grid status may differ
    /// from the previous check, with its cell at `t` (`None` = off the
    /// grid). Every robot not listed must stand where the previous check
    /// saw it, on or off `grid`.
    ///
    /// Applies when the previous check was at `t - 1` and left the index
    /// synced (no two robots on one cell). Then a vertex conflict needs a
    /// touched robot on its cell and a swap needs two robots that moved, so
    /// the touched robots' cells decide the verdict. If they conflict with
    /// nothing, their claims and previous positions move in place and the
    /// result is `true`: the canonical state is exactly what
    /// [`TrajectoryValidator::check_tick`] over every on-grid robot would
    /// leave. Otherwise the result is `false`, the canonical state is
    /// unchanged, and the caller must run `check_tick` for this tick.
    pub fn check_tick_delta(
        &mut self,
        t: Tick,
        touched: &[(RobotId, Option<GridPos>)],
        grid: &GridMap,
    ) -> bool {
        if !self.synced || self.prev_t != Some(t.wrapping_sub(1)) {
            return false;
        }
        let width = grid.width();
        // Vacate every touched robot's previous cell before claiming the
        // new ones, so following into a just-left cell is no conflict.
        for &(robot, _) in touched {
            if let Some(was) = self.prev_of(robot) {
                debug_assert_eq!(self.cell_occupant(was, width), Some(robot));
                self.cells[was.to_index(width)].0 = 0;
            }
        }
        for &(robot, now) in touched {
            let Some(pos) = now else { continue };
            if self.cell_occupant(pos, width).is_some() {
                self.synced = false; // vertex conflict
                return false;
            }
            self.cells[pos.to_index(width)] = (self.cell_stamp, robot.0);
        }
        if (touched.iter()).any(|&(robot, now)| self.swap_partner(robot, now, width).is_some()) {
            self.synced = false;
            return false;
        }
        for &(robot, now) in touched {
            self.set_prev(robot, now);
        }
        self.prev_t = Some(t);
        true
    }

    /// The previous cell `was` of `robot` and the robot it swapped with by
    /// moving to `now`: the first claimant of `was`, if that one came from
    /// `now`.
    fn swap_partner(
        &self,
        robot: RobotId,
        now: Option<GridPos>,
        width: u16,
    ) -> Option<(GridPos, RobotId)> {
        let (was, pos) = (self.prev_of(robot)?, now?);
        let other = self.cell_occupant(was, width)?;
        (was != pos && other != robot && self.prev_of(other) == Some(pos)).then_some((was, other))
    }

    /// The robot the cell index places on `pos`.
    #[inline]
    fn cell_occupant(&self, pos: GridPos, width: u16) -> Option<RobotId> {
        let (stamp, robot) = self.cells[pos.to_index(width)];
        (stamp == self.cell_stamp).then_some(RobotId(robot))
    }

    /// The previous checked cell of `robot` (`None` = off the grid).
    #[inline]
    fn prev_of(&self, robot: RobotId) -> Option<GridPos> {
        self.prev.get(robot.index()).copied().flatten()
    }

    /// Record `pos` as `robot`'s previous cell.
    fn set_prev(&mut self, robot: RobotId, pos: Option<GridPos>) {
        let i = robot.index();
        if i >= self.prev.len() {
            if pos.is_none() {
                return;
            }
            self.prev.resize(i + 1, None);
        }
        self.prev[i] = pos;
    }

    /// Number of conflicts observed.
    pub fn conflict_count(&self) -> usize {
        self.conflicts.len()
    }

    /// The previous check's tick and every on-grid robot's cell in it,
    /// robot-sorted.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn previous(&self) -> (Option<Tick>, Vec<(RobotId, GridPos)>) {
        let prev = self.prev.iter().enumerate();
        let cells = prev.filter_map(|(i, &p)| Some((RobotId::new(i), p?)));
        (self.prev_t, cells.collect())
    }

    /// Keep the conflicts and restart the rest as if the previous check
    /// had been at `prev_t` and seen `positions`: a run resumed at a tick
    /// boundary `t` passes `t.checked_sub(1)` and its on-grid robots, and
    /// then reaches exactly the uncut run's verdicts. Its first check is a
    /// full one, which rebuilds the cell index.
    pub(crate) fn restart(&mut self, prev_t: Option<Tick>, positions: &[(RobotId, GridPos)]) {
        *self = Self {
            prev_t,
            conflicts: std::mem::take(&mut self.conflicts),
            ..Self::default()
        };
        for &(robot, pos) in positions {
            self.set_prev(robot, Some(pos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::SeedValidator;
    use super::*;
    use tprw_warehouse::CellKind;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn id(i: usize) -> RobotId {
        RobotId::new(i)
    }

    fn grid() -> GridMap {
        GridMap::filled(12, 12, CellKind::Aisle)
    }

    /// A validator fed `ticks` by the full check on [`grid`].
    fn checked(ticks: &[(Tick, &[(RobotId, GridPos)])]) -> TrajectoryValidator {
        let (mut v, grid) = (TrajectoryValidator::new(), grid());
        for &(t, positions) in ticks {
            v.check_tick(t, positions, &grid);
        }
        v
    }

    #[test]
    fn clean_run_no_conflicts() {
        let v = checked(&[
            (0, &[(id(0), p(0, 0)), (id(1), p(5, 5))]),
            (1, &[(id(0), p(1, 0)), (id(1), p(5, 6))]),
        ]);
        assert_eq!(v.conflict_count(), 0);
    }

    /// Every later claimant of a cell conflicts with its first claimant.
    #[test]
    fn vertex_conflict_detected() {
        let v = checked(&[(3, &[(id(2), p(2, 2)), (id(0), p(2, 2)), (id(1), p(2, 2))])]);
        let vertex = |b| Conflict::Vertex {
            pos: p(2, 2),
            t: 3,
            a: id(2),
            b,
        };
        assert_eq!(v.conflicts, [vertex(id(0)), vertex(id(1))]);
    }

    #[test]
    fn swap_conflict_detected() {
        let v = checked(&[
            (0, &[(id(0), p(0, 0)), (id(1), p(1, 0)), (id(2), p(1, 0))]),
            (1, &[(id(0), p(1, 0)), (id(1), p(0, 0)), (id(2), p(2, 0))]),
        ]);
        assert_eq!(v.conflict_count(), 2, "a shared cell, then 0 and 1 swap");
        assert!(matches!(
            v.conflicts[1],
            Conflict::Edge {
                t: 0,
                a: RobotId(0),
                b: RobotId(1),
                ..
            }
        ));
    }

    #[test]
    fn follow_through_is_clean() {
        let v = checked(&[
            (0, &[(id(0), p(1, 0)), (id(1), p(0, 0))]),
            (1, &[(id(0), p(2, 0)), (id(1), p(1, 0))]),
        ]);
        assert_eq!(v.conflict_count(), 0, "following is not swapping");
    }

    #[test]
    fn gap_in_ticks_resets_edge_check() {
        // Tick 5 (not consecutive): swap-looking positions are NOT an edge
        // conflict across a gap.
        let v = checked(&[
            (0, &[(id(0), p(0, 0)), (id(1), p(1, 0))]),
            (5, &[(id(0), p(1, 0)), (id(1), p(0, 0))]),
        ]);
        assert_eq!(v.conflict_count(), 0);
    }

    /// Named for the sorting fast path the full check replaced: the verdict
    /// after each tick, not only at the end, is the vertex conflict and then
    /// the swap.
    #[test]
    fn fast_path_detects_vertex_and_swap() {
        let (mut v, grid) = (TrajectoryValidator::new(), grid());
        v.check_tick(
            0,
            &[(id(0), p(0, 0)), (id(1), p(1, 0)), (id(2), p(1, 0))],
            &grid,
        );
        assert_eq!(v.conflict_count(), 1, "shared cell");
        assert!(matches!(v.conflicts[0], Conflict::Vertex { t: 0, .. }));
        v.check_tick(
            1,
            &[(id(0), p(1, 0)), (id(1), p(0, 0)), (id(2), p(2, 0))],
            &grid,
        );
        assert_eq!(v.conflict_count(), 2, "0 and 1 swapped");
        assert!(matches!(v.conflicts[1], Conflict::Edge { t: 0, .. }));
    }

    /// Named for the sorting fast path the full check replaced: following
    /// stays clean tick by tick, and a gap in ticks before swap-looking
    /// positions adds no edge conflict.
    #[test]
    fn fast_path_follow_through_and_gaps_clean() {
        let (mut v, grid) = (TrajectoryValidator::new(), grid());
        v.check_tick(0, &[(id(0), p(1, 0)), (id(1), p(0, 0))], &grid);
        v.check_tick(1, &[(id(0), p(2, 0)), (id(1), p(1, 0))], &grid);
        assert_eq!(v.conflict_count(), 0, "following is not swapping");
        v.check_tick(5, &[(id(0), p(1, 0)), (id(1), p(2, 0))], &grid);
        assert_eq!(v.conflict_count(), 0);
    }

    #[test]
    fn robot_leaving_grid_is_fine() {
        // Robot 1 docked (absent); robot 0 moves into its old cell.
        let v = checked(&[
            (0, &[(id(0), p(0, 0)), (id(1), p(1, 0))]),
            (1, &[(id(0), p(1, 0))]),
        ]);
        assert_eq!(v.conflict_count(), 0);
    }

    /// A validator decoded from its conflicts and restarted from the
    /// previous tick's positions must reach exactly the verdicts the
    /// original would on every subsequent tick.
    #[test]
    fn snapshot_roundtrip_preserves_verdicts() {
        let grid = grid();
        let before = [(id(0), p(0, 0)), (id(1), p(1, 0))];
        let mut v = checked(&[(0, &[(id(2), p(5, 5)), (id(3), p(5, 5))]), (1, &before)]);
        let bytes = serde::binary::to_bytes(&v);
        let tree = serde::binary::from_bytes(&bytes).expect("the conflicts decode");
        let mut restored = TrajectoryValidator::deserialize(&tree).expect("a conflict list");
        assert_eq!(restored.conflicts, v.conflicts);
        restored.restart(Some(1), &before);
        assert_eq!(restored.previous(), v.previous());
        // The swap verdict depends on the previous tick's positions.
        let swap = [(id(0), p(1, 0)), (id(1), p(0, 0))];
        v.check_tick(2, &swap, &grid);
        restored.check_tick(2, &swap, &grid);
        assert_eq!(v.conflicts, restored.conflicts);
        assert_eq!(v.conflict_count(), 2, "a shared cell, then 0 and 1 swap");
        assert_eq!(
            v.previous(),
            restored.previous(),
            "the previous positions agree after further checking"
        );

        // An untouched validator decodes as one.
        let untouched = serde::binary::to_bytes(&TrajectoryValidator::new());
        let tree = serde::binary::from_bytes(&untouched).expect("the conflicts decode");
        let decoded = TrajectoryValidator::deserialize(&tree).expect("no conflict");
        assert_eq!(decoded.previous(), TrajectoryValidator::new().previous());
        assert!(decoded.conflicts.is_empty());
    }

    /// Recorded conflicts keep the wire bytes of the type they replaced.
    /// The literals are the encodings the last build with a
    /// validator-owned conflict enum wrote; the snapshot fixtures carry no
    /// conflict, so this test is what pins these bytes.
    #[test]
    fn conflicts_encode_as_recorded() {
        let vertex = Conflict::Vertex {
            pos: p(3, 7),
            t: 41,
            a: id(2),
            b: id(5),
        };
        let edge = Conflict::Edge {
            from: p(1, 2),
            to: p(2, 2),
            t: 40,
            a: id(0),
            b: id(9),
        };
        let recorded: [(Conflict, &[u8]); 2] = [
            (
                vertex,
                b"\x08\x01\x00\x00\x00\x06\x00\x00\x00Vertex\x08\x04\x00\x00\x00\
                  \x03\x00\x00\x00pos\x03\x03\x00\x07\x00\x00\x00\x00\x00\
                  \x01\x00\x00\x00t\x03\x29\x00\x00\x00\x00\x00\x00\x00\
                  \x01\x00\x00\x00a\x03\x02\x00\x00\x00\x00\x00\x00\x00\
                  \x01\x00\x00\x00b\x03\x05\x00\x00\x00\x00\x00\x00\x00",
            ),
            (
                edge,
                b"\x08\x01\x00\x00\x00\x04\x00\x00\x00Edge\x08\x05\x00\x00\x00\
                  \x04\x00\x00\x00from\x03\x01\x00\x02\x00\x00\x00\x00\x00\
                  \x02\x00\x00\x00to\x03\x02\x00\x02\x00\x00\x00\x00\x00\
                  \x01\x00\x00\x00t\x03\x28\x00\x00\x00\x00\x00\x00\x00\
                  \x01\x00\x00\x00a\x03\x00\x00\x00\x00\x00\x00\x00\x00\
                  \x01\x00\x00\x00b\x03\x09\x00\x00\x00\x00\x00\x00\x00",
            ),
        ];
        for (conflict, bytes) in recorded {
            assert_eq!(serde::binary::to_bytes(&conflict), bytes, "{conflict:?}");
            let decoded = serde::binary::from_bytes(bytes).expect("recorded bytes decode");
            assert_eq!(Conflict::deserialize(&decoded).unwrap(), conflict);
        }
    }

    /// The full check records exactly the reference's conflicts, in the
    /// reference's order, across a pseudo-random trajectory soup and two
    /// ticks where a three-robot pile and a swap into the piled cell meet:
    /// the pile's first claimant decides whether the swap is recorded.
    #[test]
    fn full_check_matches_reference() {
        let grid = grid();
        let mut reference = SeedValidator::default();
        let mut full = TrajectoryValidator::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ticks: Vec<Vec<(RobotId, GridPos)>> = (0..200)
            .map(|_| {
                let n = (next() % 12) as usize + 1;
                (0..n)
                    .map(|i| {
                        let r = next();
                        (id(i), p((r % 4) as u16, ((r >> 8) % 4) as u16))
                    })
                    .collect()
            })
            .collect();
        // Robot 0 leaves the pile's cell for robot 3's; robot 3 joins the
        // pile, first (a swap of 0 and 3) or last (no swap recorded).
        let (pile, other) = (p(1, 0), p(2, 0));
        let before = [
            (id(0), pile),
            (id(1), p(0, 0)),
            (id(2), p(1, 1)),
            (id(3), other),
        ];
        for first in [id(3), id(1)] {
            let last = if first == id(3) { id(1) } else { id(3) };
            ticks.push(before.to_vec());
            ticks.push(vec![
                (first, pile),
                (id(2), pile),
                (last, pile),
                (id(0), other),
            ]);
        }
        for (t, positions) in ticks.iter().enumerate() {
            reference.check_tick(t as Tick, positions);
            full.check_tick(t as Tick, positions, &grid);
            assert_eq!(
                full.conflicts, reference.conflicts,
                "divergence at tick {t}"
            );
        }
        let t = ticks.len() as Tick;
        let edges_at = |t: Tick| {
            let edge = |c: &&Conflict| matches!(c, Conflict::Edge { t: at, .. } if *at == t);
            full.conflicts.iter().filter(edge).count()
        };
        assert_eq!(edges_at(t - 4), 1, "robot 3 claimed the pile first");
        assert_eq!(edges_at(t - 2), 0, "robot 1 claimed the pile first");
        let vertices = full
            .conflicts
            .iter()
            .filter(|c| matches!(c, Conflict::Vertex { .. }));
        assert!(vertices.count() > 0, "the soup must collide");
    }

    /// The delta entry leaves exactly the full check's state after every
    /// tick of random trajectories: steps, docks and undocks, injected
    /// vertex conflicts (some left standing) and swaps, tick gaps, and
    /// restarts that drop the cell index.
    #[test]
    fn delta_check_matches_full_check() {
        let grid = grid();
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
                full.check_tick(t, &on_grid, &grid);
                if delta.check_tick_delta(t, &touched, &grid) {
                    applied += 1;
                } else {
                    delta.check_tick(t, &on_grid, &grid);
                }
                assert_eq!(
                    delta.conflict_count(),
                    full.conflict_count(),
                    "seed {seed}, tick {t}"
                );
                assert_eq!(delta.conflicts, full.conflicts, "seed {seed}, tick {t}");
                assert_eq!(delta.previous(), full.previous(), "seed {seed}, tick {t}");
                if next(25) == 0 {
                    let (prev_t, cells) = delta.previous();
                    delta.restart(prev_t, &cells);
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
