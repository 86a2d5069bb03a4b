//! The seed executed-trajectory check, compiled only under `cfg(test)` as
//! the reference the shipped [`super::TrajectoryValidator`] is compared
//! against.
//!
//! This is the check the crate shipped with: a `HashMap` from cell to its
//! first occupant, rebuilt every tick, and one from robot to its previous
//! cell. The shipped full check claims cells in the same list order, so it
//! records the same conflicts in the same order (`validate.rs`'s
//! `full_check_matches_reference`, and
//! `engine::tests::executed_conflicts_match_the_seed_check` over an engine
//! run that collides).

use std::collections::HashMap;
use tprw_pathfinding::Conflict;
use tprw_warehouse::{GridPos, RobotId, Tick};

/// The seed validator: previous positions and every conflict so far.
#[derive(Debug, Default)]
pub(crate) struct SeedValidator {
    prev: HashMap<RobotId, GridPos>,
    prev_t: Option<Tick>,
    /// All conflicts observed so far.
    pub conflicts: Vec<Conflict>,
}

impl SeedValidator {
    /// Check one tick of positions (only robots physically on the grid).
    pub fn check_tick(&mut self, t: Tick, positions: &[(RobotId, GridPos)]) {
        // Vertex conflicts: any shared cell.
        let mut by_cell: HashMap<GridPos, RobotId> = HashMap::with_capacity(positions.len());
        for &(robot, pos) in positions {
            if let Some(&other) = by_cell.get(&pos) {
                self.conflicts.push(Conflict::Vertex {
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
                            self.conflicts.push(Conflict::Edge {
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
}
