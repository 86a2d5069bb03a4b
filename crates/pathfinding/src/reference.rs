//! The seed (pre-arena) spatiotemporal A*, compiled only under
//! `cfg(test)` as the reference the optimized search is compared against.
//!
//! This is the implementation the crate shipped with before the
//! [`crate::scratch::SearchScratch`] refactor: per-query `HashMap`s for the
//! parent/closed sets and a `BinaryHeap` of packed tuples. Property and
//! unit tests assert the optimized search returns conflict-free paths of
//! *identical cost* on randomized scenarios (`proptests.rs`, `astar.rs`).
//! Nothing times it (`docs/adr/ADR-008-two-measurement-systems.md` has the
//! last recorded ratio).
//!
//! Its `(t << 24) | cell_index` state key **aliases states on grids with
//! ≥ 2²⁴ cells** (and on tick values ≥ 2⁴⁰) — the exact defect the arena
//! keying removed. The tests below document the collision, and
//! `tests/key_collision.rs` plans through the aliasing zone with the arena
//! search.

use crate::astar::{PlanOptions, PlanOutcome};
use crate::cache::PathCache;
use crate::path::Path;
use crate::reservation::ReservationSystem;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tprw_warehouse::{GridMap, GridPos, RobotId, Tick};

/// The seed's packed state key. Aliasing example: on a grid with more than
/// 2²⁴ cells, `(t, index)` and `(t + 1, index - 2²⁴)` collide.
#[inline]
pub fn reference_state_key(pos: GridPos, t: Tick, width: u16) -> u64 {
    (t << 24) | pos.to_index(width) as u64
}

/// The pre-refactor search: identical contract to
/// [`crate::astar::plan_path_with`] (minus the scratch), kept as the test
/// reference.
#[allow(clippy::too_many_arguments)]
pub fn plan_path_reference<R: ReservationSystem>(
    grid: &GridMap,
    resv: &R,
    robot: RobotId,
    start: GridPos,
    start_tick: Tick,
    goal: GridPos,
    mut cache: Option<&mut PathCache>,
    opts: &PlanOptions,
) -> Option<PlanOutcome> {
    debug_assert!(grid.passable(start) && grid.passable(goal));

    if resv.occupant(start, start_tick).is_some_and(|r| r != robot) {
        return None;
    }
    if let Some((other, _)) = resv.parked_at(goal) {
        if other != robot {
            return None;
        }
    }
    let park_clearance = if opts.park_at_goal {
        resv.last_reservation_excluding(goal, robot)
            .map(|t| t + 1)
            .unwrap_or(0)
    } else {
        0
    };

    let horizon = start_tick + start.manhattan(goal) + opts.horizon_slack;
    let width = grid.width();
    let key = |pos: GridPos, t: Tick| -> u64 { reference_state_key(pos, t, width) };

    let mut open: BinaryHeap<Reverse<(u64, u64, u32, Tick)>> = BinaryHeap::new();
    // parent[state] = predecessor state
    let mut parents: HashMap<u64, u64> = HashMap::new();
    let mut closed: HashMap<u64, ()> = HashMap::new();

    let h0 = start.manhattan(goal);
    open.push(Reverse((
        start_tick + h0,
        h0,
        start.to_index(width) as u32,
        start_tick,
    )));
    parents.insert(key(start, start_tick), key(start, start_tick));

    let mut expansions = 0usize;
    let mut splice_attempts = 0u32;

    while let Some(Reverse((_f, _h, pos_idx, t))) = open.pop() {
        let pos = GridPos::from_index(pos_idx as usize, width);
        let state = key(pos, t);
        if closed.contains_key(&state) {
            continue;
        }
        closed.insert(state, ());
        expansions += 1;

        if pos == goal && t >= park_clearance {
            let path = reconstruct(&parents, state, start_tick, t, width);
            return Some(PlanOutcome {
                path,
                expansions,
                used_cache: false,
            });
        }

        if pos != goal {
            if let Some(cache_ref) = cache.as_deref_mut() {
                if cache_ref.within_threshold(pos, goal)
                    && splice_attempts < opts.max_splice_attempts
                {
                    splice_attempts += 1;
                    if let Some(tail) =
                        try_splice(resv, robot, pos, t, goal, cache_ref, park_clearance, opts)
                    {
                        let mut path = reconstruct(&parents, state, start_tick, t, width);
                        path.extend_with(&tail);
                        return Some(PlanOutcome {
                            path,
                            expansions,
                            used_cache: true,
                        });
                    }
                }
            }
        }

        if expansions >= opts.max_expansions || t >= horizon {
            continue; // stop growing this branch; heap may hold better ones
        }

        let wait_ok = resv.can_move(robot, pos, pos, t);
        if wait_ok {
            push_state(
                &mut open,
                &mut parents,
                &closed,
                pos,
                pos,
                t,
                goal,
                width,
                state,
            );
        }
        for next in grid.passable_neighbors(pos) {
            if resv.can_move(robot, pos, next, t) {
                push_state(
                    &mut open,
                    &mut parents,
                    &closed,
                    pos,
                    next,
                    t,
                    goal,
                    width,
                    state,
                );
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn push_state(
    open: &mut BinaryHeap<Reverse<(u64, u64, u32, Tick)>>,
    parents: &mut HashMap<u64, u64>,
    closed: &HashMap<u64, ()>,
    _from: GridPos,
    to: GridPos,
    t: Tick,
    goal: GridPos,
    width: u16,
    parent_state: u64,
) {
    let nt = t + 1;
    let nstate = (nt << 24) | to.to_index(width) as u64;
    if closed.contains_key(&nstate) || parents.contains_key(&nstate) {
        return;
    }
    parents.insert(nstate, parent_state);
    let h = to.manhattan(goal);
    open.push(Reverse((nt + h, h, to.to_index(width) as u32, nt)));
}

fn reconstruct(
    parents: &HashMap<u64, u64>,
    mut state: u64,
    start_tick: Tick,
    end_tick: Tick,
    width: u16,
) -> Path {
    let mut cells = Vec::with_capacity((end_tick - start_tick + 1) as usize);
    loop {
        let pos = GridPos::from_index((state & 0xFF_FFFF) as usize, width);
        cells.push(pos);
        let parent = parents[&state];
        if parent == state {
            break;
        }
        state = parent;
    }
    cells.reverse();
    debug_assert_eq!(cells.len() as u64, end_tick - start_tick + 1);
    Path {
        start: start_tick,
        cells,
    }
}

#[allow(clippy::too_many_arguments)]
fn try_splice<R: ReservationSystem>(
    resv: &R,
    robot: RobotId,
    from: GridPos,
    t0: Tick,
    goal: GridPos,
    cache: &mut PathCache,
    park_clearance: Tick,
    opts: &PlanOptions,
) -> Option<Path> {
    let spatial: Vec<GridPos> = cache.shortest(from, goal)?.to_vec();
    let mut cells = vec![from];
    let mut t = t0;
    let mut cur = from;
    for &next in &spatial[1..] {
        let mut waited = 0;
        while !resv.can_move(robot, cur, next, t) {
            if waited >= opts.max_splice_wait || !resv.can_move(robot, cur, cur, t) {
                return None;
            }
            cells.push(cur); // wait in place
            t += 1;
            waited += 1;
        }
        cells.push(next);
        t += 1;
        cur = next;
    }
    let mut waited = 0;
    while t < park_clearance {
        if waited >= opts.max_splice_wait || !resv.can_move(robot, cur, cur, t) {
            return None;
        }
        cells.push(cur);
        t += 1;
        waited += 1;
    }
    Some(Path { start: t0, cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdt::ConflictDetectionTable;
    use tprw_warehouse::CellKind;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    #[test]
    fn baseline_still_plans() {
        let grid = GridMap::filled(10, 10, CellKind::Aisle);
        let resv = ConflictDetectionTable::new(10, 10);
        let out = plan_path_reference(
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            0,
            p(7, 3),
            None,
            &PlanOptions::default(),
        )
        .unwrap();
        assert_eq!(out.path.end(), 10);
        assert!(out.path.is_connected());
    }

    #[test]
    fn key_collision_documented() {
        // On a ≥ 2²⁴-cell grid the packed key aliases distinct states: the
        // defect the arena keying removes (see tests/key_collision.rs).
        let width = 4200u16;
        let a = GridPos::from_index((1 << 24) + 5, width);
        let b = GridPos::from_index(5, width);
        assert_ne!(a, b, "distinct cells");
        assert_eq!(
            reference_state_key(a, 0, width),
            reference_state_key(b, 1, width),
            "the seed key conflates (a, t=0) with (b, t=1)"
        );
    }

    #[test]
    fn old_packing_aliases_states_on_large_grids() {
        // 4200 × 4200 = 17 640 000 cells overflow the key's 24-bit cell field.
        let width = 4200u16;
        // A cell whose index overflows 24 bits…
        let high = GridPos::from_index((1 << 24) + 917, width);
        // …aliases a low-index cell one tick later.
        let low = GridPos::from_index(917, width);
        assert_ne!(high, low);
        assert_eq!(
            reference_state_key(high, 1_000, width),
            reference_state_key(low, 1_001, width),
            "seed key must conflate these states (the documented defect)"
        );
        // And tick bit 40 wraps into oblivion: `(1 << 40) << 24` overflows u64,
        // so a tick-2⁴⁰ state collides with the tick-0 state of the same cell.
        assert_eq!(
            reference_state_key(low, 1 << 40, width),
            reference_state_key(low, 0, width),
            "tick 2^40 shifts entirely out of the key"
        );
    }
}
