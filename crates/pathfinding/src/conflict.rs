//! The two conflicts of Definition 5 / Fig. 3, as values.
//!
//! The rule that finds them is stated once, in the simulator's
//! `TrajectoryValidator`: it checks every executed tick, and a snapshot's
//! legs are replayed through it before a resume. Planners must *never*
//! produce either conflict. The tests' pairwise path check,
//! `tests::find_conflicts`, is test code.

use serde::{Deserialize, Serialize};
use tprw_warehouse::{GridPos, RobotId, Tick};

/// A detected conflict between two robots' paths, or between two robots'
/// executed trajectories (the simulator's validator records this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Conflict {
    /// Single-grid conflict: both paths visit `pos` at tick `t`.
    Vertex {
        /// Shared cell.
        pos: GridPos,
        /// Tick of the collision.
        t: Tick,
        /// First robot.
        a: RobotId,
        /// Second robot.
        b: RobotId,
    },
    /// Inter-grid conflict: the robots swap cells between `t` and `t+1`.
    Edge {
        /// Cell robot `a` leaves (and `b` enters).
        from: GridPos,
        /// Cell robot `a` enters (and `b` leaves).
        to: GridPos,
        /// Tick at which both robots start the swap.
        t: Tick,
        /// First robot.
        a: RobotId,
        /// Second robot.
        b: RobotId,
    },
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::path::Path;

    /// Find all conflicts among timed paths over the inclusive tick window
    /// `[window_start, window_end]`. Robots park on their final cell after their
    /// path ends and occupy their first cell before it starts, matching the
    /// simulator's execution semantics.
    pub(crate) fn find_conflicts(
        paths: &[(RobotId, &Path)],
        window_start: Tick,
        window_end: Tick,
    ) -> Vec<Conflict> {
        let mut conflicts = Vec::new();
        for t in window_start..=window_end {
            for (i, &(a, pa)) in paths.iter().enumerate() {
                for &(b, pb) in paths.iter().skip(i + 1) {
                    let pa_t = pa.at(t);
                    let pb_t = pb.at(t);
                    if pa_t == pb_t {
                        conflicts.push(Conflict::Vertex { pos: pa_t, t, a, b });
                    }
                    if t < window_end {
                        let pa_n = pa.at(t + 1);
                        let pb_n = pb.at(t + 1);
                        // Swap: a moves x->y while b moves y->x.
                        if pa_t == pb_n && pb_t == pa_n && pa_t != pa_n {
                            conflicts.push(Conflict::Edge {
                                from: pa_t,
                                to: pa_n,
                                t,
                                a,
                                b,
                            });
                        }
                    }
                }
            }
        }
        conflicts
    }

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn id(i: usize) -> RobotId {
        RobotId::new(i)
    }

    #[test]
    fn disjoint_paths_no_conflict() {
        let a = Path {
            start: 0,
            cells: vec![p(0, 0), p(1, 0), p(2, 0)],
        };
        let b = Path {
            start: 0,
            cells: vec![p(0, 2), p(1, 2), p(2, 2)],
        };
        let c = find_conflicts(&[(id(0), &a), (id(1), &b)], 0, 3);
        assert!(c.is_empty());
    }

    #[test]
    fn vertex_conflict_detected() {
        let a = Path {
            start: 0,
            cells: vec![p(0, 0), p(1, 0)],
        };
        let b = Path {
            start: 0,
            cells: vec![p(2, 0), p(1, 0)],
        };
        let c = find_conflicts(&[(id(0), &a), (id(1), &b)], 0, 1);
        assert!(matches!(
            c[0],
            Conflict::Vertex {
                pos: GridPos { x: 1, y: 0 },
                t: 1,
                ..
            }
        ));
    }

    #[test]
    fn edge_swap_detected() {
        let a = Path {
            start: 0,
            cells: vec![p(0, 0), p(1, 0)],
        };
        let b = Path {
            start: 0,
            cells: vec![p(1, 0), p(0, 0)],
        };
        let c = find_conflicts(&[(id(0), &a), (id(1), &b)], 0, 1);
        assert!(c.iter().any(|k| matches!(k, Conflict::Edge { t: 0, .. })));
    }

    #[test]
    fn parked_robot_collision_detected() {
        // Robot b's path ended at (1,0); robot a drives into it later.
        let a = Path {
            start: 5,
            cells: vec![p(0, 0), p(1, 0)],
        };
        let b = Path {
            start: 0,
            cells: vec![p(2, 0), p(1, 0)],
        };
        let c = find_conflicts(&[(id(0), &a), (id(1), &b)], 5, 6);
        assert!(
            c.iter().any(|k| matches!(k, Conflict::Vertex { t: 6, .. })),
            "driving onto a parked robot is a vertex conflict"
        );
    }

    #[test]
    fn passing_adjacent_is_fine() {
        // Head-on on parallel rows: no conflict.
        let a = Path {
            start: 0,
            cells: vec![p(0, 0), p(1, 0), p(2, 0)],
        };
        let b = Path {
            start: 0,
            cells: vec![p(2, 1), p(1, 1), p(0, 1)],
        };
        assert!(find_conflicts(&[(id(0), &a), (id(1), &b)], 0, 2).is_empty());
    }

    #[test]
    fn follow_through_is_fine() {
        // b follows directly behind a: never share a cell at the same tick.
        let a = Path {
            start: 0,
            cells: vec![p(1, 0), p(2, 0), p(3, 0)],
        };
        let b = Path {
            start: 0,
            cells: vec![p(0, 0), p(1, 0), p(2, 0)],
        };
        assert!(find_conflicts(&[(id(0), &a), (id(1), &b)], 0, 2).is_empty());
    }
}
