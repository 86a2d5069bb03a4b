//! Spatiotemporal A* (Sec. V-C), flattened around a reusable arena.
//!
//! The search runs on the time-expanded graph: a state is a `(cell, tick)`
//! pair, moves cost one tick and waiting in place costs one tick. Conflict
//! constraints come from a [`ReservationProbe`]: a move is expanded only if
//! [`ReservationProbe::can_move`] allows it, which encodes both single-grid
//! and inter-grid conflicts of Definition 5.
//!
//! The heuristic is `max(manhattan(cell, goal), park_clearance - tick)`
//! (`remaining_ticks`). A parking goal is
//! accepted only once every reservation other robots hold on it has passed
//! (`park_clearance`), so no plan ends earlier than that, however short the
//! way; the second term says so. Each term drops by at most one per tick,
//! which makes the bound admissible and consistent, and arrival ticks stay
//! optimal. With the distance alone, a goal five cells away that clears
//! 100 ticks from now has `f < 100` on every state of a 100-tick cone, all
//! of which must be expanded before the goal test can fire — more states
//! than the expansion budget at paper scale
//! (docs/adr/ADR-003-clearance-aware-search.md). With the clearance term
//! those states share one `f`, a wait on that plateau costs `+0`, and the
//! LIFO dial below walks it depth-first, straight to a path that arrives
//! on the clearance tick, in about `park_clearance - start_tick`
//! expansions. The term is 0 for non-parking goals and never the larger
//! one when the goal clears by the uncongested arrival, so those queries
//! expand and return exactly what the distance alone would.
//!
//! # Hot-path design (see also [`crate::scratch`])
//!
//! The seed implementation routed every expansion through `HashMap`
//! probes (`parents`/`closed`) and a `BinaryHeap` of packed tuples whose
//! `(t << 24) | cell_index` key silently aliased states on grids with
//! ≥ 2²⁴ cells. This implementation replaces all of that:
//!
//! * **States are region slots.** Each query computes a *search region* —
//!   the bounding box of `start`/`goal` inflated by `horizon_slack / 2 + 1`
//!   — outside of which no cell can contribute to any completion of the
//!   query (for any on-path cell `c`,
//!   `d(start,c) + d(c,goal) ≤ d(start,goal) + slack`). A state keys its
//!   slot wavefront-major, as
//!   `(dt - manhattan(start, cell)) * region_cells + region_cell`: on-time
//!   states fill plane 0 and each tick of delay opens the next, so the
//!   slots a search touches are neighbours (`Region::slot`, ADR-004).
//! * **One loop, two state tables.** The search is generic over the
//!   `StateTable` that records discovered slots. Regions of up to
//!   [`DENSE_TABLE_CAP`] slots use the [`SearchScratch`]'s dense table,
//!   stamped by query generation so it is reused without clearing; larger
//!   ones a hash map from the same slot. Region size is the only selection
//!   rule, and both tables answer alike, so a query expands the same states
//!   in the same order with either (docs/adr/ADR-017-one-search-loop.md).
//! * **The open list is a dial.** Unit edge costs and a consistent
//!   heuristic make f-values monotone with increments in `{0, 1, 2}`, so a
//!   bucket array indexed by `f - h0` with a monotone head pointer replaces
//!   the binary heap. Buckets pop LIFO, preferring the most recently
//!   discovered state of equal `f` — a depth-greedy tie-break similar in
//!   spirit to (not identical with) the seed's `(f, h, …)` ordering; equal
//!   `f` means equal final cost, so only expansion order differs. The wait
//!   is pushed before the moves, hence popped after them: off the clearance
//!   plateau it is alone in its bucket and the order is moot; on it the
//!   robot spends its slack moving and frees its cell at once (popping the
//!   wait first, so it holds the cell until it must leave, was measured and
//!   is no better: ADR-003).
//! * **Parents are 3-bit actions**, not pointers: a state's predecessor is
//!   recomputed from the stored reach-action during path reconstruction.
//! * **No closed set.** Every path into `(cell, dt)` has cost exactly `dt`,
//!   so the first discovery is optimal and stamping at discovery dedupes.
//!
//! The paper's cache-aided tail (Sec. VI-B: near the goal, follow a
//! memoized conflict-agnostic shortest path with waits) is not built: it
//! saved expansions, but the walks and their memo cost more planning time
//! and memory than the expansions did (docs/adr/ADR-019-one-leg-search.md).

use crate::path::Path;
use crate::reservation::ReservationProbe;
use crate::scratch::{Dial, SearchScratch, StateTable, ACTION_MOVE_BASE, ACTION_ROOT, ACTION_WAIT};
use std::convert::Infallible;
use tprw_warehouse::{Direction, GridMap, GridPos, RobotId, Tick};

/// Upper bound on dense arena slots per query (512 MiB of 4-byte stamp
/// words at the cap, 640 MiB with growth headroom); larger regions record
/// their states in a hash table instead. No benchmark workload reaches it:
/// a 200×200 region needs at most 40 000 cells × 655 ticks ≈ 26 M slots.
/// The paper's Real-Large floor does: at full scale (541×302, slack 256) a
/// region of the whole floor crosses it past 821 ticks, which a leg of 565
/// cells reaches when its box spans the floor (283 cells across, 44 down).
/// Every leg longer than 578 cells crosses.
pub const DENSE_TABLE_CAP: usize = 1 << 27;

/// Tuning knobs for a single path query.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Abort after expanding this many states (congestion guard). The caller
    /// retries at a later tick when planning fails.
    pub max_expansions: usize,
    /// Extra ticks beyond the uncongested distance allowed for waits and
    /// detours before the search gives up.
    pub horizon_slack: u64,
    /// Whether the robot parks on the goal after arriving (pickup/return
    /// legs). Parking goals are accepted only after every already-reserved
    /// traversal of the goal cell has passed.
    pub park_at_goal: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            max_expansions: 100_000,
            horizon_slack: 512,
            park_at_goal: true,
        }
    }
}

/// Result of a successful path query.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The conflict-free timed path, starting at the query tick.
    pub path: Path,
    /// States expanded by the A* loop (efficiency diagnostics).
    pub expansions: usize,
}

/// Statistics of a successful [`plan_path_into`] query (the path itself is
/// written into the caller's buffer).
#[derive(Debug, Clone, Copy)]
pub struct PlanStats {
    /// States expanded by the A* loop.
    pub expansions: usize,
}

/// The per-query search region: the `start`/`goal` bounding box inflated by
/// `horizon_slack / 2 + 1`, clamped to the grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    x0: u16,
    y0: u16,
    w: u32,
    h: u32,
    /// Number of `dt` values per cell (`horizon - start_tick + 1`).
    pub(crate) window: u64,
    /// The query's start cell: a state's delay is measured against it.
    start: GridPos,
}

impl Region {
    pub(crate) fn compute(grid: &GridMap, start: GridPos, goal: GridPos, slack: u64) -> Region {
        let margin = (slack / 2 + 1).min(u16::MAX as u64) as u16;
        let x0 = start.x.min(goal.x).saturating_sub(margin);
        let y0 = start.y.min(goal.y).saturating_sub(margin);
        let x1 = start
            .x
            .max(goal.x)
            .saturating_add(margin)
            .min(grid.width() - 1);
        let y1 = start
            .y
            .max(goal.y)
            .saturating_add(margin)
            .min(grid.height() - 1);
        Region {
            x0,
            y0,
            w: (x1 - x0) as u32 + 1,
            h: (y1 - y0) as u32 + 1,
            window: start.manhattan(goal) + slack + 1,
            start,
        }
    }

    /// Dense slots needed (`None` on overflow — forces the hash table).
    pub(crate) fn slots(&self) -> Option<usize> {
        (self.w as usize * self.h as usize).checked_mul(usize::try_from(self.window).ok()?)
    }

    #[inline]
    pub(crate) fn contains(&self, p: GridPos) -> bool {
        let dx = p.x.wrapping_sub(self.x0) as u32;
        let dy = p.y.wrapping_sub(self.y0) as u32;
        dx < self.w && dy < self.h
    }

    /// State table slot of `(p, dt)`; `p` must be inside the region. No
    /// state is reached before `manhattan(start, p)`, so its delay past
    /// that tick is in `0..window` and `(p, dt) -> (p, delay)` is one-to-one.
    #[inline]
    pub(crate) fn slot(&self, p: GridPos, dt: u64) -> usize {
        debug_assert!(self.contains(p) && dt < self.window);
        debug_assert!(dt >= self.start.manhattan(p));
        let cell = (p.y - self.y0) as usize * self.w as usize + (p.x - self.x0) as usize;
        let delay = (dt - self.start.manhattan(p)) as usize;
        delay * (self.w as usize * self.h as usize) + cell
    }
}

/// Plan a conflict-free timed path for `robot` from `start` (occupied at
/// `start_tick`) to `goal`, using a caller-provided scratch arena and
/// writing the path into `out` (whose buffer is reused).
///
/// Returns `None` when no path exists within the expansion/horizon budget —
/// callers treat that as "retry on a later tick". The returned path is *not*
/// yet reserved; call [`ReservationSystem::reserve_path`](crate::reservation::ReservationSystem::reserve_path) to commit it.
///
/// After the scratch has warmed up to the workload's largest query, this
/// function performs **no heap allocations**.
#[allow(clippy::too_many_arguments)]
pub fn plan_path_into<R: ReservationProbe>(
    scratch: &mut SearchScratch,
    grid: &GridMap,
    resv: &R,
    robot: RobotId,
    start: GridPos,
    start_tick: Tick,
    goal: GridPos,
    opts: &PlanOptions,
    out: &mut Path,
) -> Option<PlanStats> {
    debug_assert!(grid.passable(start) && grid.passable(goal));
    scratch.last_expansions = 0; // the refusals below expand nothing

    // The start vertex must be ours: a robot undocking from a station bay
    // cannot re-enter the grid while another robot occupies the cell.
    if resv.occupant(start, start_tick).is_some_and(|r| r != robot) {
        return None;
    }
    // Fast failure: a *different* robot is parked on the goal. It will not
    // move within this query's horizon, so a parking goal is hopeless, and
    // even a non-parking goal can only be reached after it leaves.
    if let Some((other, _)) = resv.parked_at(goal) {
        if other != robot {
            return None;
        }
    }

    plan_path_checked(
        scratch, grid, resv, robot, start, start_tick, goal, opts, out, false,
    )
}

/// Post-precondition dispatch: regions of up to [`DENSE_TABLE_CAP`] slots
/// search with the dense table, larger ones with the hash table.
/// `force_hashed` exists for tests that pin the two tables against each
/// other.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_path_checked<R: ReservationProbe>(
    scratch: &mut SearchScratch,
    grid: &GridMap,
    resv: &R,
    robot: RobotId,
    start: GridPos,
    start_tick: Tick,
    goal: GridPos,
    opts: &PlanOptions,
    out: &mut Path,
    force_hashed: bool,
) -> Option<PlanStats> {
    // Earliest tick at which a parking goal may be occupied forever.
    let park_clearance = if opts.park_at_goal {
        resv.last_reservation_excluding(goal, robot)
            .map(|t| t + 1)
            .unwrap_or(0)
    } else {
        0
    };

    let region = Region::compute(grid, start, goal, opts.horizon_slack);
    let SearchScratch {
        stamps,
        hashed,
        open,
        last_expansions,
    } = scratch;
    let query = Query {
        region,
        grid,
        resv,
        robot,
        start_tick,
        goal,
        park_clearance,
        opts,
    };
    let (result, expansions) = match region.slots() {
        Some(slots) if slots <= DENSE_TABLE_CAP && !force_hashed => {
            stamps.begin(slots);
            search(stamps, open, &query, out)
        }
        _ => {
            hashed.clear();
            search(hashed, open, &query, out)
        }
    };
    *last_expansions = expansions;
    result
}

/// [`plan_path_into`] with an owned result path.
///
/// `_no_cache` is a husk: the slot the path cache was passed in, kept so
/// existing callers that pass `None` still build. Its type is uninhabited,
/// so `None` is the only value it takes.
#[allow(clippy::too_many_arguments)]
pub fn plan_path_with<R: ReservationProbe>(
    scratch: &mut SearchScratch,
    grid: &GridMap,
    resv: &R,
    robot: RobotId,
    start: GridPos,
    start_tick: Tick,
    goal: GridPos,
    _no_cache: Option<&mut Infallible>,
    opts: &PlanOptions,
) -> Option<PlanOutcome> {
    let mut path = Path {
        start: start_tick,
        cells: Vec::new(),
    };
    let stats = plan_path_into(
        scratch, grid, resv, robot, start, start_tick, goal, opts, &mut path,
    )?;
    Some(PlanOutcome {
        path,
        expansions: stats.expansions,
    })
}

/// The search's heuristic: a lower bound on the ticks a robot at `pos`,
/// `dt` ticks into the query, still needs. It must cover the Manhattan
/// distance and cannot be accepted by the goal test before the parking
/// clearance (`clearance_dt` ticks after the query start; 0 for
/// non-parking goals). Both terms drop by at most one per tick, so the
/// bound is admissible and consistent.
#[inline]
fn remaining_ticks(pos: GridPos, goal: GridPos, dt: u64, clearance_dt: u64) -> u64 {
    pos.manhattan(goal).max(clearance_dt.saturating_sub(dt))
}

/// One query's inputs, whichever state table it searches with.
struct Query<'a, R> {
    region: Region,
    grid: &'a GridMap,
    resv: &'a R,
    robot: RobotId,
    start_tick: Tick,
    goal: GridPos,
    park_clearance: Tick,
    opts: &'a PlanOptions,
}

/// The search loop, over whichever state table the region's size picked
/// (the caller has begun or cleared it). Returns the result and the number
/// of states expanded, successful or not.
fn search<T: StateTable, R: ReservationProbe>(
    table: &mut T,
    open: &mut Dial,
    query: &Query<R>,
    out: &mut Path,
) -> (Option<PlanStats>, usize) {
    let Query {
        region,
        grid,
        resv,
        robot,
        start_tick,
        goal,
        park_clearance,
        opts,
    } = *query;
    let start = region.start;
    let horizon = start_tick + region.window - 1;
    let clearance_dt = park_clearance.saturating_sub(start_tick);
    let h0 = remaining_ticks(start, goal, 0, clearance_dt);
    let width = grid.width();
    let height = grid.height();

    table.discover(region.slot(start, 0), ACTION_ROOT);
    open.push(0, (start.to_index(width) as u32, 0));
    let mut expansions = 0usize;
    let mut result: Option<PlanStats> = None;

    while let Some((pos_idx, dt)) = open.pop() {
        let pos = GridPos::from_index(pos_idx as usize, width);
        let dt = dt as u64;
        let t = start_tick + dt;
        expansions += 1;

        // Goal test: arrived, and — for parking goals — cleared of all
        // future reservations by other robots.
        if pos == goal && t >= park_clearance {
            reconstruct(table, &region, pos, dt, width, height, out);
            out.start = start_tick;
            result = Some(PlanStats { expansions });
            break;
        }

        if expansions >= opts.max_expansions || t >= horizon {
            continue; // stop growing this branch; other buckets may finish
        }

        // Expand: wait + the four moves. Cells outside the region cannot lie
        // on any path meeting the horizon, so they are pruned at generation.
        let ndt = dt + 1;
        let mut push = |to: GridPos, action: u32| {
            if !table.discover(region.slot(to, ndt), action) {
                return; // already discovered — first discovery has equal cost
            }
            let f = ndt + remaining_ticks(to, goal, ndt, clearance_dt);
            debug_assert!(f >= h0, "the heuristic must be consistent");
            open.push((f - h0) as usize, (to.to_index(width) as u32, ndt as u32));
        };
        if resv.can_move(robot, pos, pos, t) {
            push(pos, ACTION_WAIT);
        }
        for (i, dir) in Direction::ALL.into_iter().enumerate() {
            if let Some(next) = pos.step(dir, width, height) {
                if region.contains(next)
                    && grid.passable(next)
                    && resv.can_move(robot, pos, next, t)
                {
                    push(next, ACTION_MOVE_BASE + i as u32);
                }
            }
        }
    }

    open.clear();
    (result, expansions)
}

/// Walk reach-actions back from `(pos, dt)` to the root, writing the cell
/// sequence into `out.cells` (reused buffer; reversed in place).
fn reconstruct<T: StateTable>(
    table: &T,
    region: &Region,
    mut pos: GridPos,
    mut dt: u64,
    width: u16,
    height: u16,
    out: &mut Path,
) {
    out.cells.clear();
    out.cells.reserve(dt as usize + 1);
    loop {
        out.cells.push(pos);
        match table.action(region.slot(pos, dt)) {
            ACTION_ROOT => break,
            ACTION_WAIT => {}
            a => {
                let dir = Direction::ALL[(a - ACTION_MOVE_BASE) as usize];
                pos = pos
                    .step(dir.opposite(), width, height)
                    .expect("parent of a reached state is on the grid");
            }
        }
        dt -= 1;
    }
    out.cells.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdt::ConflictDetectionTable;
    use crate::conflict::find_conflicts;
    use crate::reservation::ReservationSystem;
    use crate::stg::SpatioTemporalGraph;
    use proptest::prelude::*;
    use tprw_warehouse::CellKind;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn open_grid(w: u16, h: u16) -> GridMap {
        GridMap::filled(w, h, CellKind::Aisle)
    }

    fn opts() -> PlanOptions {
        PlanOptions::default()
    }

    #[test]
    fn straight_line_on_empty_grid() {
        let grid = open_grid(10, 10);
        let resv = ConflictDetectionTable::new(10, 10);
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            5,
            p(4, 0),
            None,
            &opts(),
        )
        .unwrap();
        assert_eq!(out.path.start, 5);
        assert_eq!(out.path.end(), 9, "manhattan distance 4");
        assert_eq!(out.path.first(), p(0, 0));
        assert_eq!(out.path.last(), p(4, 0));
        assert!(out.path.is_connected());
    }

    #[test]
    fn same_cell_goal() {
        let grid = open_grid(5, 5);
        let resv = ConflictDetectionTable::new(5, 5);
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(2, 2),
            0,
            p(2, 2),
            None,
            &opts(),
        )
        .unwrap();
        assert_eq!(out.path.len(), 1);
    }

    #[test]
    fn waits_for_crossing_robot() {
        let grid = open_grid(10, 10);
        let mut resv = ConflictDetectionTable::new(10, 10);
        // Robot 1 crosses the corridor cell (2,0) at t=2.
        resv.reserve_path(
            RobotId::new(1),
            &Path {
                start: 0,
                cells: vec![p(2, 2), p(2, 1), p(2, 0), p(3, 0), p(4, 0)],
            },
            false,
        );
        // Robot 0 wants to travel along row 0 through (2,0) reaching it at
        // exactly t=2 if unimpeded.
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            0,
            p(5, 0),
            None,
            &PlanOptions {
                park_at_goal: false,
                ..opts()
            },
        )
        .unwrap();
        // Verify no conflicts between the two timed paths.
        let other = Path {
            start: 0,
            cells: vec![p(2, 2), p(2, 1), p(2, 0), p(3, 0), p(4, 0)],
        };
        let conflicts = find_conflicts(
            &[(RobotId::new(0), &out.path), (RobotId::new(1), &other)],
            0,
            out.path.end().max(other.end()),
        );
        // Robot 1 parks at (4,0)?? No: reserved with park=false, but
        // find_conflicts models parking. Restrict the window to the moving
        // phase of robot 1 plus robot 0's arrival row traversal.
        let moving_conflicts: Vec<_> = conflicts
            .iter()
            .filter(|c| match c {
                crate::conflict::Conflict::Vertex { t, .. } => *t <= 4,
                crate::conflict::Conflict::Edge { t, .. } => *t <= 4,
            })
            .collect();
        assert!(
            moving_conflicts.is_empty(),
            "planned path conflicts: {moving_conflicts:?}"
        );
        assert!(out.path.end() >= 5, "cannot beat distance 5");
    }

    #[test]
    fn parked_robot_on_goal_fails_fast() {
        let grid = open_grid(8, 8);
        let mut resv = ConflictDetectionTable::new(8, 8);
        resv.park(RobotId::new(1), p(4, 4), 0);
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            0,
            p(4, 4),
            None,
            &opts(),
        );
        assert!(out.is_none());
    }

    #[test]
    fn routes_around_parked_robot() {
        let grid = open_grid(8, 8);
        let mut resv = ConflictDetectionTable::new(8, 8);
        resv.park(RobotId::new(1), p(2, 0), 0);
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            0,
            p(4, 0),
            None,
            &opts(),
        )
        .unwrap();
        assert!(
            out.path.iter_timed().all(|(_, c)| c != p(2, 0)),
            "must avoid the parked robot"
        );
        assert_eq!(out.path.end(), 6, "two-cell detour around the blocker");
    }

    #[test]
    fn park_at_goal_waits_for_clearance() {
        let grid = open_grid(8, 8);
        let mut resv = ConflictDetectionTable::new(8, 8);
        // Robot 1 will traverse the goal cell (3,0) at t=9.
        let crossing = Path {
            start: 6,
            cells: vec![p(3, 3), p(3, 2), p(3, 1), p(3, 0), p(4, 0), p(5, 0)],
        };
        resv.reserve_path(RobotId::new(1), &crossing, false);
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            0,
            p(3, 0),
            None,
            &opts(),
        )
        .unwrap();
        assert!(
            out.path.end() >= 10,
            "must park only after the t=9 traversal, got {}",
            out.path.end()
        );
        let conflicts = find_conflicts(
            &[(RobotId::new(0), &out.path), (RobotId::new(1), &crossing)],
            0,
            12,
        );
        assert!(conflicts.is_empty(), "{conflicts:?}");
    }

    #[test]
    fn expansion_budget_fails_gracefully() {
        let grid = open_grid(6, 6);
        let mut resv = ConflictDetectionTable::new(6, 6);
        // Park robots on every neighbour of the start: fully walled in.
        resv.park(RobotId::new(1), p(1, 0), 0);
        resv.park(RobotId::new(2), p(0, 1), 0);
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            0,
            p(5, 5),
            None,
            &PlanOptions {
                max_expansions: 1000,
                horizon_slack: 30,
                ..opts()
            },
        );
        assert!(out.is_none());
    }

    #[test]
    fn stg_and_cdt_agree_on_plans() {
        let grid = open_grid(10, 10);
        let blocker = Path {
            start: 0,
            cells: vec![p(5, 0), p(5, 1), p(5, 2), p(5, 3)],
        };
        let mut a = ConflictDetectionTable::new(10, 10);
        let mut b = SpatioTemporalGraph::new(10, 10);
        a.reserve_path(RobotId::new(9), &blocker, true);
        b.reserve_path(RobotId::new(9), &blocker, true);
        let oa = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &a,
            RobotId::new(0),
            p(0, 0),
            0,
            p(9, 0),
            None,
            &opts(),
        );
        let ob = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &b,
            RobotId::new(0),
            p(0, 0),
            0,
            p(9, 0),
            None,
            &opts(),
        );
        let (oa, ob) = (oa.unwrap(), ob.unwrap());
        assert_eq!(oa.path.end(), ob.path.end(), "same optimal arrival");
    }

    #[test]
    fn scratch_reuse_is_correct_across_queries() {
        // The same scratch must serve queries of different shapes without
        // any state leaking between them (generation stamps at work).
        let grid = open_grid(16, 16);
        let resv = ConflictDetectionTable::new(16, 16);
        let mut scratch = SearchScratch::new();
        let cases = [
            (p(0, 0), p(15, 15)),
            (p(3, 3), p(3, 3)),
            (p(15, 0), p(0, 15)),
            (p(2, 9), p(11, 1)),
            (p(0, 0), p(15, 15)), // repeat of the first
        ];
        for (s, g) in cases {
            let out = plan_path_with(
                &mut scratch,
                &grid,
                &resv,
                RobotId::new(0),
                s,
                7,
                g,
                None,
                &opts(),
            )
            .unwrap();
            assert_eq!(out.path.end() - out.path.start, s.manhattan(g));
            assert!(out.path.is_connected());
            assert_eq!(out.path.first(), s);
            assert_eq!(out.path.last(), g);
        }
    }

    #[test]
    fn into_variant_reuses_the_out_buffer() {
        let grid = open_grid(12, 12);
        let resv = ConflictDetectionTable::new(12, 12);
        let mut scratch = SearchScratch::new();
        let mut path = Path {
            start: 0,
            cells: Vec::new(),
        };
        let stats = plan_path_into(
            &mut scratch,
            &grid,
            &resv,
            RobotId::new(0),
            p(0, 0),
            3,
            p(9, 4),
            &opts(),
            &mut path,
        )
        .unwrap();
        assert_eq!(path.start, 3);
        assert_eq!(path.end(), 3 + 13);
        assert!(stats.expansions > 0);
        let cap = path.cells.capacity();
        // Re-plan a shorter leg into the same buffer: no regrowth.
        plan_path_into(
            &mut scratch,
            &grid,
            &resv,
            RobotId::new(0),
            p(2, 2),
            0,
            p(4, 2),
            &opts(),
            &mut path,
        )
        .unwrap();
        assert_eq!(path.cells.capacity(), cap, "buffer reused, not reallocated");
        assert_eq!(path.last(), p(4, 2));
    }

    #[test]
    fn dense_region_prunes_nothing_reachable() {
        // Tight slack: the region shrinks around the corridor, but every
        // within-horizon path stays representable.
        let grid = open_grid(30, 30);
        let mut resv = ConflictDetectionTable::new(30, 30);
        resv.park(RobotId::new(1), p(15, 10), 0);
        let out = plan_path_with(
            &mut SearchScratch::new(),
            &grid,
            &resv,
            RobotId::new(0),
            p(10, 10),
            0,
            p(20, 10),
            None,
            &PlanOptions {
                horizon_slack: 6,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(out.path.end(), 12, "two-cell detour around the blocker");
        assert!(out.path.is_connected());
    }

    /// One query through the dense table, then through the hash table: each
    /// run's path (if it found one) and expansion count.
    fn through_both_tables<R: ReservationProbe>(
        scratch: &mut SearchScratch,
        grid: &GridMap,
        resv: &R,
        start: GridPos,
        start_tick: Tick,
        goal: GridPos,
        opts: &PlanOptions,
    ) -> [(Option<Path>, usize); 2] {
        [false, true].map(|force_hashed| {
            let mut path = Path::stationary(start, 0);
            let found = plan_path_checked(
                scratch,
                grid,
                resv,
                RobotId::new(0),
                start,
                start_tick,
                goal,
                opts,
                &mut path,
                force_hashed,
            );
            (found.map(|_| path), scratch.last_expansions())
        })
    }

    #[test]
    fn regions_over_the_cap_search_the_hash_table() {
        // Nothing forces the table here: a 1 200-cell leg with slack 512 on
        // a 1 200×1 200 floor needs a region of 1 115² cells × 1 713 ticks,
        // about 2.1 G slots, past the cap, so the dense table is never
        // allocated and every state lands in the hash table.
        let side = 1_200;
        let grid = open_grid(side, side);
        let resv = SpatioTemporalGraph::new(side, side);
        let (start, goal) = (p(300, 300), p(900, 900));
        let region = Region::compute(&grid, start, goal, opts().horizon_slack);
        assert!(region.slots().expect("fits a usize") > DENSE_TABLE_CAP);
        let mut scratch = SearchScratch::new();
        let out = plan_path_with(
            &mut scratch,
            &grid,
            &resv,
            RobotId::new(0),
            start,
            11,
            goal,
            None,
            &opts(),
        )
        .expect("an empty floor is always solvable");
        assert_eq!(out.path.end() - out.path.start, start.manhattan(goal));
        assert!(out.path.is_connected());
        assert_eq!(
            scratch.dense_slots(),
            0,
            "the dense table stays unallocated"
        );
        assert!(scratch.hashed.len() > 1_200, "{}", scratch.hashed.len());
        assert_eq!(scratch.last_expansions(), out.expansions);
    }

    #[test]
    fn sparse_fallback_matches_dense() {
        // The hash table answers every probe the dense table does, so the
        // one search loop expands the same states in the same order over
        // either: identical feasibility, cells and expansion counts on a
        // congested grid.
        let grid = open_grid(16, 16);
        let mut resv = ConflictDetectionTable::new(16, 16);
        for i in 0..5u16 {
            let col = 3 * i + 1;
            let cells: Vec<GridPos> = (0..16u16).map(|y| p(col, y)).collect();
            resv.reserve_path(
                RobotId::new(i as usize + 1),
                &Path {
                    start: i as u64,
                    cells,
                },
                false,
            );
        }
        let opts = PlanOptions {
            park_at_goal: false,
            ..PlanOptions::default()
        };
        let mut scratch = SearchScratch::new();
        for (s, g) in [
            (p(0, 0), p(15, 15)),
            (p(0, 8), p(15, 8)),
            (p(2, 2), p(2, 14)),
        ] {
            let [dense, hashed] = through_both_tables(&mut scratch, &grid, &resv, s, 3, g, &opts);
            assert_eq!(dense, hashed, "{s}->{g}");
            let path = dense.0.expect("every leg is feasible");
            assert!(path.is_connected());
        }
    }

    /// A crossing of `cell` by `robot` at exactly tick `at` (in from a
    /// neighbour, out to the same neighbour).
    fn reserve_crossing(resv: &mut ConflictDetectionTable, robot: usize, cell: GridPos, at: Tick) {
        let side = p(cell.x + 1, cell.y);
        resv.reserve_path(
            RobotId::new(robot),
            &Path {
                start: at - 1,
                cells: vec![side, cell, side],
            },
            false,
        );
    }

    #[test]
    fn far_parking_clearance_costs_a_walk_not_a_cone() {
        // The paper-scale failure: a parking goal five cells away that
        // another robot crosses 100 ticks from now. The clearance term of
        // the heuristic puts every state that can still arrive on time on
        // one `f` plateau, which the LIFO dial walks depth-first; with the
        // Manhattan distance alone the whole cone below `f = 101` (~130 000
        // states here) had to be expanded before the goal test could fire.
        let grid = open_grid(40, 40);
        let mut resv = ConflictDetectionTable::new(40, 40);
        let (start, goal, start_tick) = (p(15, 20), p(20, 20), 7);
        reserve_crossing(&mut resv, 1, goal, start_tick + 100);
        let park_clearance = start_tick + 101;
        let mut scratch = SearchScratch::new();
        let [dense, hashed] =
            through_both_tables(&mut scratch, &grid, &resv, start, start_tick, goal, &opts());
        assert_eq!(dense, hashed, "both tables walk the plateau alike");
        let (path, expansions) = dense;
        let path = path.expect("the goal clears inside the horizon");
        assert_eq!(path.end(), park_clearance, "earliest admissible arrival");
        assert!(
            expansions as u64 <= 4 * (park_clearance - start_tick),
            "{expansions} expansions"
        );
        assert!(path.is_connected());
        let mut cur = start;
        for (t, cell) in path.iter_timed().skip(1) {
            assert!(resv.can_move(RobotId::new(0), cur, cell, t - 1));
            cur = cell;
        }
        // The same query through the seed search: same arrival tick.
        let reference = crate::reference::plan_path_reference(
            &grid,
            &resv,
            RobotId::new(0),
            start,
            start_tick,
            goal,
            &PlanOptions {
                max_expansions: usize::MAX,
                ..opts()
            },
        )
        .expect("the seed search gets there with an unbounded budget");
        assert_eq!(reference.path.end(), park_clearance);
        assert!(reference.expansions > 100 * scratch.last_expansions());
    }

    #[test]
    fn failed_queries_report_their_expansions() {
        let grid = open_grid(12, 12);
        let mut resv = ConflictDetectionTable::new(12, 12);
        // The goal clears after the horizon: the search runs dry.
        reserve_crossing(&mut resv, 1, p(6, 6), 60);
        let tight = PlanOptions {
            horizon_slack: 8,
            ..opts()
        };
        let mut scratch = SearchScratch::new();
        let [dense, hashed] =
            through_both_tables(&mut scratch, &grid, &resv, p(2, 6), 0, p(6, 6), &tight);
        assert_eq!(dense, hashed);
        assert!(dense.0.is_none());
        assert!(dense.1 > 12, "{} expansions", dense.1);
        // A query refused before the search starts reports zero, not the
        // previous query's count.
        resv.park(RobotId::new(2), p(9, 9), 0);
        let refused = plan_path_with(
            &mut scratch,
            &grid,
            &resv,
            RobotId::new(0),
            p(2, 6),
            0,
            p(9, 9),
            None,
            &tight,
        );
        assert!(refused.is_none());
        assert_eq!(scratch.last_expansions(), 0);
    }

    #[test]
    fn arena_growth_settles_on_the_paper_floor() {
        // `window` grows with the query's distance, so sizing the table to
        // each record-setting query re-allocated it dozens of times a run.
        // 500 seeded queries on the walled 200×200 floor at slack 256: the
        // reach of the goal around the start rises over the first 50, the
        // last 400 range over the whole floor.
        let layout = tprw_warehouse::Layout::generate(&tprw_warehouse::LayoutConfig {
            width: 200,
            height: 200,
            border_walls: true,
            ..Default::default()
        })
        .expect("the paper floor generates");
        let grid = &layout.grid;
        let resv = ConflictDetectionTable::new(200, 200);
        let opts = PlanOptions {
            horizon_slack: 256,
            ..opts()
        };
        let mut state = 7u64; // splitmix64
        let mut below = |n: u16| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as u16
        };
        let mut scratch = SearchScratch::new();
        let mut path = Path::stationary(p(1, 1), 0);
        let (mut reallocations, mut longest, mut settled) = (0, 0, 0);
        for i in 0..500u16 {
            let reach = (4 * (i + 1)).min(198);
            let start = p(1 + below(198), 1 + below(198));
            let goal = p(
                (start.x + below(2 * reach + 1))
                    .saturating_sub(reach)
                    .clamp(1, 198),
                (start.y + below(2 * reach + 1))
                    .saturating_sub(reach)
                    .clamp(1, 198),
            );
            let table = scratch.dense_slots();
            plan_path_into(
                &mut scratch,
                grid,
                &resv,
                RobotId::new(0),
                start,
                i as Tick,
                goal,
                &opts,
                &mut path,
            )
            .expect("an empty floor is always solvable");
            assert_eq!(path.end() - path.start, start.manhattan(goal));
            reallocations += usize::from(scratch.dense_slots() != table);
            longest = longest.max(start.manhattan(goal));
            if i == 99 {
                settled = scratch.capacity_signature();
            } else if i > 99 {
                assert_eq!(scratch.capacity_signature(), settled, "query {i}");
            }
        }
        assert!(longest > 300, "the queries span the floor ({longest})");
        assert!((1..=8).contains(&reallocations), "{reallocations}");
    }

    /// FNV-1a over a path's cells: one word per recorded query below.
    fn path_hash(path: &Path) -> u64 {
        path.cells.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
            [c.x, c.y].iter().fold(h, |h, &v| {
                (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    #[test]
    fn queries_the_clearance_does_not_bind_keep_their_recorded_paths() {
        // Non-parking queries, and parking queries whose goal clears no
        // later than the uncongested arrival, never see the clearance term
        // (`max` returns the Manhattan distance at every state), so they
        // must return the very cells they returned before it existed. The
        // hashes were recorded by running this test at the parent commit.
        const RECORDED: [u64; 6] = [
            0xbe95_9cbb_4f7c_5858,
            0x89eb_cd9d_01d5_33d5,
            0x56ae_d968_6c2a_f8db,
            0x496a_e4b9_2af2_7ae5,
            0x00ea_9e70_2765_5d25,
            0x97d8_b642_1e22_ec4a,
        ];
        let grid = open_grid(24, 16);
        let mut resv = ConflictDetectionTable::new(24, 16);
        for i in 0..7u16 {
            let col = 3 * i + 2;
            let cells: Vec<GridPos> = (0..16u16).map(|y| p(col, y)).collect();
            resv.reserve_path(
                RobotId::new(i as usize + 1),
                &Path {
                    start: (2 * i as u64) % 5,
                    cells,
                },
                false,
            );
        }
        resv.park(RobotId::new(20), p(12, 7), 0);
        // Crossings of two of the goals (this one, and the column-20 sweep
        // over (20, 4)) that clear before the parking queries can arrive.
        reserve_crossing(&mut resv, 21, p(22, 12), 6);
        let legs = [
            (p(0, 0), p(23, 15)),
            (p(0, 8), p(23, 8)),
            (p(23, 1), p(0, 14)),
            (p(4, 4), p(20, 4)),
            (p(10, 15), p(10, 0)),
            (p(1, 7), p(22, 12)),
        ];
        let mut scratch = SearchScratch::new();
        for park_at_goal in [false, true] {
            let opts = PlanOptions {
                park_at_goal,
                ..opts()
            };
            let mut got = [Vec::new(), Vec::new()];
            for &(s, g) in &legs {
                let tables = through_both_tables(&mut scratch, &grid, &resv, s, 3, g, &opts);
                for (hashes, (path, _)) in got.iter_mut().zip(tables) {
                    hashes.push(path_hash(&path.expect("every recorded query is feasible")));
                }
            }
            let [dense, hashed] = got;
            assert_eq!(
                (dense, hashed),
                (RECORDED.to_vec(), RECORDED.to_vec()),
                "a recorded path changed (dense, hashed; park: {park_at_goal})"
            );
        }
    }

    proptest! {
        /// Any plan against a set of pre-reserved paths must be conflict-free
        /// with all of them (the core safety property of Definition 5).
        #[test]
        fn planned_paths_are_conflict_free(
            seeds in proptest::collection::vec((0u16..8, 0u16..8), 1..5),
            gx in 0u16..8, gy in 0u16..8,
        ) {
            let grid = open_grid(8, 8);
            let mut resv = ConflictDetectionTable::new(8, 8);
            let mut reserved: Vec<(RobotId, Path)> = Vec::new();
            let mut used_cells: Vec<GridPos> = Vec::new();
            for (i, &(x, y)) in seeds.iter().enumerate() {
                let robot = RobotId::new(i + 1);
                let start = p(x, y);
                if used_cells.contains(&start) { continue; }
                // Plan each blocker against the current table so blockers are
                // mutually conflict-free too.
                if let Some(out) = plan_path_with(&mut SearchScratch::new(), &grid, &resv, robot, start, 0, p(7 - x, 7 - y), None, &opts()
                ) {
                    resv.reserve_path(robot, &out.path, true);
                    used_cells.push(start);
                    used_cells.push(out.path.last());
                    reserved.push((robot, out.path));
                } else {
                    resv.park(robot, start, 0);
                    used_cells.push(start);
                    reserved.push((robot, Path::stationary(start, 0)));
                }
            }
            let me = RobotId::new(0);
            let start = p(0, 0);
            prop_assume!(!used_cells.contains(&start));
            let goal = p(gx, gy);
            prop_assume!(!used_cells.contains(&goal));
            if let Some(out) = plan_path_with(&mut SearchScratch::new(), &grid, &resv, me, start, 0, goal, None, &opts()) {
                prop_assert!(out.path.is_connected());
                prop_assert_eq!(out.path.last(), goal);
                let mut all: Vec<(RobotId, &Path)> = vec![(me, &out.path)];
                for (r, path) in &reserved {
                    all.push((*r, path));
                }
                let horizon = all.iter().map(|(_, p)| p.end()).max().unwrap() + 2;
                let conflicts = find_conflicts(&all, 0, horizon);
                prop_assert!(conflicts.is_empty(), "conflicts: {:?}", conflicts);
            }
        }
    }
}
