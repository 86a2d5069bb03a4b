//! Cross-module property tests: optimality on open grids, safety of
//! planning against arbitrary reservation sets,
//! and cost-equivalence of the arena-optimized search against the seed
//! (HashMap/BinaryHeap) reference implementation.

#![cfg(test)]

use crate::astar::{plan_path_into, plan_path_with, PlanOptions, Region};
use crate::cdt::ConflictDetectionTable;
use crate::conflict::tests::find_conflicts;
use crate::path::Path;
use crate::reference::plan_path_reference;
use crate::reservation::{ReservationProbe, ReservationSystem};
use crate::scratch::SearchScratch;
use crate::stg::SpatioTemporalGraph;
use proptest::prelude::*;
use tprw_warehouse::{CellKind, GridMap, GridPos, RobotId};

fn open_grid(w: u16, h: u16) -> GridMap {
    GridMap::filled(w, h, CellKind::Aisle)
}

proptest! {
    /// With no reservations, A* is exactly Manhattan-optimal.
    #[test]
    fn astar_optimal_on_empty_grid(
        sx in 0u16..15, sy in 0u16..15, gx in 0u16..15, gy in 0u16..15,
        start_tick in 0u64..50,
    ) {
        let grid = open_grid(15, 15);
        let resv = ConflictDetectionTable::new(15, 15);
        let s = GridPos::new(sx, sy);
        let g = GridPos::new(gx, gy);
        let out = plan_path_with(
            &mut SearchScratch::new(), &grid, &resv, RobotId::new(0), s, start_tick, g, None,
            &PlanOptions::default(),
        ).expect("empty grid always solvable");
        prop_assert_eq!(out.path.end() - out.path.start, s.manhattan(g));
        prop_assert!(out.path.is_connected());
        prop_assert_eq!(out.path.first(), s);
        prop_assert_eq!(out.path.last(), g);
    }

    /// The wavefront-major arena layout is a permutation: every state a
    /// search can reach (inside the region, no earlier than the Manhattan
    /// distance from the start, inside the window) owns one slot below
    /// `region.cells() × region.window`.
    #[test]
    fn admissible_states_map_to_distinct_slots(
        w in 1u16..20, h in 1u16..20,
        sx in 0u16..20, sy in 0u16..20, gx in 0u16..20, gy in 0u16..20,
        slack in 0u64..12,
    ) {
        let grid = open_grid(w, h);
        let start = GridPos::new(sx % w, sy % h);
        let goal = GridPos::new(gx % w, gy % h);
        let region = Region::compute(&grid, start, goal, slack);
        let mut taken = vec![false; region.cells() * region.window as usize];
        for idx in 0..grid.cell_count() {
            let p = GridPos::from_index(idx, w);
            if !region.contains(p) {
                continue;
            }
            for dt in start.manhattan(p)..region.window {
                let slot = region.slot(p, dt);
                prop_assert!(slot < taken.len(), "{p} dt {dt} -> {slot} of {}", taken.len());
                prop_assert!(!taken[slot], "{p} dt {dt} shares slot {slot}");
                taken[slot] = true;
            }
        }
        prop_assert!(taken[region.slot(start, 0)] && region.contains(goal));
    }

    /// Planning yields conflict-free paths against random pre-reserved
    /// traffic (the Definition 5 guarantee).
    #[test]
    fn plans_are_conflict_free(
        blockers in proptest::collection::vec((0u16..10, 0u64..5), 1..5),
        gx in 0u16..10, gy in 1u16..10,
    ) {
        let grid = open_grid(10, 10);
        let mut resv = ConflictDetectionTable::new(10, 10);
        let mut reserved: Vec<(RobotId, Path)> = Vec::new();
        for (i, &(_x, start)) in blockers.iter().enumerate() {
            // Vertical sweeps on distinct even columns (disjoint paths).
            let col = 2 * i as u16;
            let cells: Vec<GridPos> = (0..10u16).map(|y| GridPos::new(col, y)).collect();
            let path = Path { start, cells };
            let robot = RobotId::new(i + 1);
            resv.reserve_path(robot, &path, false);
            reserved.push((robot, path));
        }
        let me = RobotId::new(0);
        let start = GridPos::new(9, 0); // column 9 is never a blocker lane
        let goal = GridPos::new(gx, gy);
        let opts = PlanOptions { park_at_goal: false, ..PlanOptions::default() };
        let mut scratch = SearchScratch::new();
        if let Some(out) = plan_path_with(
            &mut scratch, &grid, &resv, me, start, 0, goal, None, &opts,
        ) {
            prop_assert!(out.path.is_connected());
            prop_assert_eq!(out.path.last(), goal);
            // Check against the *moving window* of each blocker: blockers
            // were reserved without parking, so compare only while both are
            // within their timed spans (the simulator removes docked robots
            // from the grid, which find_conflicts cannot know).
            for (robot, path) in &reserved {
                let horizon = out.path.end().min(path.end());
                let window_start = out.path.start.max(path.start);
                if window_start <= horizon {
                    let conflicts = find_conflicts(
                        &[(me, &out.path), (*robot, path)],
                        window_start,
                        horizon,
                    );
                    prop_assert!(conflicts.is_empty(), "{:?}", conflicts);
                }
            }
        }
    }

    /// Horizon slack bounds path length: any returned path fits within the
    /// configured budget.
    #[test]
    fn paths_respect_horizon(
        gx in 0u16..12, gy in 0u16..12, slack in 8u64..64,
    ) {
        let grid = open_grid(12, 12);
        let resv = ConflictDetectionTable::new(12, 12);
        let s = GridPos::new(0, 0);
        let g = GridPos::new(gx, gy);
        let opts = PlanOptions {
            horizon_slack: slack,
            park_at_goal: false,
            ..PlanOptions::default()
        };
        let mut scratch = SearchScratch::new();
        if let Some(out) = plan_path_with(
            &mut scratch, &grid, &resv, RobotId::new(0), s, 0, g, None, &opts,
        ) {
            prop_assert!(out.path.end() <= s.manhattan(g) + slack);
        }
    }
}

/// Build a congested reservation table: robots sweep disjoint columns with
/// staggered starts, then a few more park at random cells.
fn congested_table(
    w: u16,
    h: u16,
    sweeps: &[(u16, u64)],
    parked: &[(u16, u16)],
) -> ConflictDetectionTable {
    let mut resv = ConflictDetectionTable::new(w, h);
    let mut used_cols: Vec<u16> = Vec::new();
    for (i, &(col, start)) in sweeps.iter().enumerate() {
        // One sweep per column: reservations must be mutually disjoint.
        let col = col % w;
        if used_cols.contains(&col) {
            continue;
        }
        used_cols.push(col);
        let cells: Vec<GridPos> = (0..h).map(|y| GridPos::new(col, y)).collect();
        resv.reserve_path(RobotId::new(i + 1), &Path { start, cells }, false);
    }
    for (i, &(x, y)) in parked.iter().enumerate() {
        let pos = GridPos::new(x % w, y % h);
        if resv.parked_at(pos).is_none() {
            resv.park(RobotId::new(100 + i), pos, 0);
        }
    }
    resv
}

proptest! {
    /// The arena-optimized search and the seed reference implementation must
    /// agree on feasibility and on the *cost* of the returned path for every
    /// randomized congested scenario, and both results must be conflict-free
    /// valid paths. (Exact routes may differ: both searches are optimal, so
    /// only arrival ticks are comparable.)
    #[test]
    fn optimized_matches_reference_cost(
        sweeps in proptest::collection::vec((0u16..14, 0u64..6), 1..6),
        parked in proptest::collection::vec((0u16..14, 0u16..12), 0..4),
        sx in 0u16..14, sy in 0u16..12,
        gx in 0u16..14, gy in 0u16..12,
        start_tick in 0u64..8,
    ) {
        let (w, h) = (14u16, 12u16);
        let grid = open_grid(w, h);
        let resv = congested_table(w, h, &sweeps, &parked);
        let start = GridPos::new(sx, sy);
        let goal = GridPos::new(gx, gy);
        prop_assume!(resv.parked_at(start).is_none());
        let opts = PlanOptions { park_at_goal: false, ..PlanOptions::default() };

        let mut scratch = SearchScratch::new();
        let new = plan_path_with(
            &mut scratch, &grid, &resv, RobotId::new(0), start, start_tick, goal, None, &opts,
        );
        let old = plan_path_reference(
            &grid, &resv, RobotId::new(0), start, start_tick, goal, &opts,
        );

        match (&new, &old) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(
                    a.path.end(), b.path.end(),
                    "optimized arrival {} != reference arrival {}",
                    a.path.end(), b.path.end()
                );
                for out in [a, b] {
                    prop_assert!(out.path.is_connected());
                    prop_assert_eq!(out.path.first(), start);
                    prop_assert_eq!(out.path.last(), goal);
                    prop_assert_eq!(out.path.start, start_tick);
                    // Every step respects the reservation table.
                    let mut cur = start;
                    for (t, cell) in out.path.iter_timed().skip(1) {
                        prop_assert!(
                            resv.can_move(RobotId::new(0), cur, cell, t - 1),
                            "step to {} at {} conflicts", cell, t
                        );
                        cur = cell;
                    }
                }
            }
            (None, None) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility disagreement: optimized={} reference={}",
                    a.is_some(), b.is_some()
                )));
            }
        }
    }

    /// Same equivalence with parking goals enabled: the park-clearance logic
    /// of both implementations must line up.
    #[test]
    fn optimized_matches_reference_cost_with_parking(
        sweeps in proptest::collection::vec((0u16..10, 0u64..5), 1..4),
        sx in 0u16..10, sy in 0u16..10,
        gx in 0u16..10, gy in 0u16..10,
    ) {
        let (w, h) = (10u16, 10u16);
        let grid = open_grid(w, h);
        let resv = congested_table(w, h, &sweeps, &[]);
        let start = GridPos::new(sx, sy);
        let goal = GridPos::new(gx, gy);
        let opts = PlanOptions::default();

        let mut scratch = SearchScratch::new();
        let new = plan_path_with(
            &mut scratch, &grid, &resv, RobotId::new(0), start, 0, goal, None, &opts,
        );
        let old = plan_path_reference(&grid, &resv, RobotId::new(0), start, 0, goal, &opts);

        match (&new, &old) {
            (Some(a), Some(b)) => prop_assert_eq!(a.path.end(), b.path.end()),
            (None, None) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility disagreement: optimized={} reference={}",
                    a.is_some(), b.is_some()
                )));
            }
        }
    }

    /// The clearance-aware heuristic keeps arrival ticks optimal: on random
    /// small walled floors with sweeping traffic and a crossing of the
    /// parking goal well after the uncongested arrival, the arena search
    /// arrives exactly when the seed search — Manhattan heuristic, whole
    /// cone expanded — does, on a path that respects every reservation and
    /// parks only once the goal is clear.
    #[test]
    fn clearance_bound_plans_match_reference_arrival(
        walls in proptest::collection::hash_set((0u16..10, 0u16..10), 0..10),
        sweeps in proptest::collection::vec((0u16..10, 0u64..40), 0..4),
        sx in 0u16..10, sy in 0u16..10,
        gx in 0u16..9, gy in 0u16..10,
        start_tick in 0u64..6,
        crossing_in in 12u64..45,
    ) {
        let (w, h) = (10u16, 10u16);
        let mut grid = open_grid(w, h);
        for &(x, y) in &walls {
            grid.set_kind(GridPos::new(x, y), CellKind::Blocked);
        }
        let start = GridPos::new(sx, sy);
        let goal = GridPos::new(gx, gy);
        let side = GridPos::new(gx + 1, gy);
        prop_assume!(grid.passable(start) && grid.passable(goal) && grid.passable(side));
        let mut resv = congested_table(w, h, &sweeps, &[]);
        let crossing_at = start_tick + crossing_in;
        prop_assume!([(side, crossing_at - 1), (goal, crossing_at), (side, crossing_at + 1)]
            .iter()
            .all(|&(cell, t)| resv.occupant(cell, t).is_none()));
        resv.reserve_path(
            RobotId::new(90),
            &Path { start: crossing_at - 1, cells: vec![side, goal, side] },
            false,
        );
        let me = RobotId::new(0);
        // A start another robot holds is refused before the search.
        prop_assume!(resv.occupant(start, start_tick).is_none());
        let opts = PlanOptions { max_expansions: usize::MAX, ..PlanOptions::default() };

        let old = plan_path_reference(&grid, &resv, me, start, start_tick, goal, &opts);
        let mut path = Path::stationary(start, 0);
        let new = plan_path_into(
            &mut SearchScratch::new(), &grid, &resv, me, start, start_tick, goal, &opts, &mut path,
        )
        .map(|_| path);
        prop_assert_eq!(new.is_some(), old.is_some(), "feasibility");
        if let (Some(path), Some(old)) = (new, old) {
            prop_assert_eq!(path.end(), old.path.end(), "arrival");
            prop_assert!(path.end() > crossing_at, "parks only after the crossing");
            prop_assert_eq!((path.start, path.first(), path.last()), (start_tick, start, goal));
            let mut cur = start;
            for (t, cell) in path.iter_timed().skip(1) {
                prop_assert!(grid.passable(cell));
                prop_assert!(resv.can_move(me, cur, cell, t - 1), "step to {} at {}", cell, t);
                cur = cell;
            }
        }
    }

    /// STG and CDT still agree on `occupant` and `can_move` after the
    /// ring-buffer/sorted-window rewrite, under randomized reservations,
    /// parking and garbage collection.
    #[test]
    fn stg_and_cdt_agree_after_rewrite(
        sweeps in proptest::collection::vec((0u64..10, 0u16..9, 0u16..9), 1..6),
        parked in proptest::collection::vec((0u16..9, 0u16..9), 0..3),
        gc_at in 0u64..15,
    ) {
        let (w, h) = (9u16, 9u16);
        let mut cdt = ConflictDetectionTable::new(w, h);
        let mut stg = SpatioTemporalGraph::new(w, h);
        for (i, &(start, x, _)) in sweeps.iter().enumerate() {
            let row = i as u16;
            let cells: Vec<GridPos> = (0..5u16).map(|d| GridPos::new((x + d).min(8), row)).collect();
            let path = Path { start, cells };
            cdt.reserve_path(RobotId::new(i), &path, true);
            stg.reserve_path(RobotId::new(i), &path, true);
        }
        for (i, &(x, y)) in parked.iter().enumerate() {
            let pos = GridPos::new(x, y);
            if cdt.parked_at(pos).is_none() && stg.parked_at(pos).is_none() {
                cdt.park(RobotId::new(50 + i), pos, 2);
                stg.park(RobotId::new(50 + i), pos, 2);
            }
        }
        cdt.release_before(gc_at);
        stg.release_before(gc_at);
        prop_assert_eq!(cdt.reservation_count(), stg.reservation_count());
        let probe = RobotId::new(99);
        for t in gc_at..gc_at + 20 {
            for x in 0..w {
                for y in 0..h {
                    let pos = GridPos::new(x, y);
                    prop_assert_eq!(
                        cdt.occupant(pos, t), stg.occupant(pos, t),
                        "occupant disagrees at {}@{}", pos, t
                    );
                    if y + 1 < h {
                        let to = GridPos::new(x, y + 1);
                        prop_assert_eq!(
                            cdt.can_move(probe, pos, to, t),
                            stg.can_move(probe, pos, to, t),
                            "can_move disagrees for {}->{}@{}", pos, to, t
                        );
                    }
                }
            }
        }
    }
}
