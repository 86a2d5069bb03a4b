//! Regression test for the seed's A* state-key collision.
//!
//! The pre-refactor implementation keyed time-expanded states as
//! `(t << 24) | cell_index`, which silently aliases distinct states once a
//! grid has ≥ 2²⁴ cells (the cell index bleeds into the tick bits) or ticks
//! reach 2⁴⁰ (the test-only reference search's unit tests document the
//! collision). The arena keying of [`tprw_pathfinding::SearchScratch`]
//! removed the packing entirely; this test pins that the search plans
//! correctly through exactly that aliasing zone, at late ticks for good
//! measure.

use tprw_pathfinding::astar::{plan_path_with, PlanOptions};
use tprw_pathfinding::{ReservationSystem, SearchScratch, SpatioTemporalGraph};
use tprw_warehouse::{CellKind, GridMap, GridPos, RobotId};

/// 4200 × 4200 = 17 640 000 cells > 2²⁴ = 16 777 216: indices in the last
/// ~860 k cells overflow the seed key's 24-bit cell field.
const SIDE: u16 = 4200;

#[test]
fn arena_search_plans_correctly_in_the_aliasing_zone() {
    let grid = GridMap::filled(SIDE, SIDE, CellKind::Aisle);
    // STG: no per-cell window headers, so the 17.6M-cell fixture stays lean
    // (layers materialize lazily and this scenario only parks one robot).
    let mut resv = SpatioTemporalGraph::new(SIDE, SIDE);

    // Work around y ≈ 3995 where cell indices cross 2²⁴. With the seed key,
    // a state at (cell, t) collides with (cell - 2²⁴ cells, t+1): the search
    // would see phantom `closed` entries and corrupt parent links.
    let start = GridPos::from_index((1 << 24) + 900, SIDE);
    let goal = GridPos::from_index((1 << 24) + 900 + 7 * SIDE as usize + 5, SIDE);
    assert_eq!(start.manhattan(goal), 12);

    // A parked blocker directly east of the start forces a real detour
    // through the aliasing zone (not just a straight-line walk).
    let blocker = GridPos::new(start.x + 1, start.y);
    resv.park(RobotId::new(7), blocker, 0);

    // Late start tick: the seed key would also be shredding tick bits here.
    let start_tick = (1u64 << 40) + 3;
    let mut scratch = SearchScratch::new();
    let out = plan_path_with(
        &mut scratch,
        &grid,
        &resv,
        RobotId::new(0),
        start,
        start_tick,
        goal,
        None,
        &PlanOptions {
            horizon_slack: 32,
            park_at_goal: false,
            ..PlanOptions::default()
        },
    )
    .expect("path exists around a single parked robot");

    assert_eq!(out.path.start, start_tick);
    assert_eq!(out.path.first(), start);
    assert_eq!(out.path.last(), goal);
    assert!(out.path.is_connected());
    assert_eq!(
        out.path.end() - out.path.start,
        12,
        "blocker is off the optimal corridor's south-first orderings, so \
         the Manhattan optimum must survive"
    );
    assert!(
        out.path.iter_timed().all(|(_, c)| c != blocker),
        "must not route through the parked robot"
    );
}
