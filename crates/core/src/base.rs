//! Shared planner machinery: reservation ownership, distance oracle, timed
//! path-finding, and the STC/PTC/MC instrumentation.
//!
//! Every concrete planner owns a [`PlannerBase`] parameterized by its
//! reservation structure — the spatiotemporal graph for the baselines and
//! ATP, the conflict detection table for EATP — plus an optional
//! K-nearest-rack index. This mirrors the paper's architecture: selection
//! strategies differ, the path-finding layer is shared.

use crate::config::EatpConfig;
use crate::planner::{LegRequest, PlannerEvent, PlannerStats};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use tprw_pathfinding::astar::{plan_path_with, PlanOptions};
use tprw_pathfinding::bfs::DistanceOracle;
use tprw_pathfinding::cdt::MAX_CDT_TICK;
use tprw_pathfinding::reservation::MAX_PARK_TICK;
use tprw_pathfinding::{
    ConflictDetectionTable, KNearestRacks, MemoryFootprint, Path, ReservationContent,
    ReservationSystem, SearchScratch, SpatioTemporalGraph,
};
use tprw_warehouse::{
    CellKind, DisruptionEvent, GridMap, GridPos, Instance, Rack, RackId, RobotId, Tick,
};

/// Reusable selection scratch shared through [`PlannerBase`]: EATP's
/// flip-side selection runs every timestamp, so its membership bitmaps and
/// candidate list must not be reallocated per tick (the same discipline as
/// the [`SearchScratch`] arena below `plan_leg`).
#[derive(Debug, Default)]
pub struct SelectionScratch {
    /// Rack membership bitmap (`selectable_racks` as dense flags).
    pub rack_flags: Vec<bool>,
    /// Robot membership bitmap (robots consumed by the current plan step).
    pub robot_flags: Vec<bool>,
    /// Per-robot candidate rack list (K entries at most).
    pub candidates: Vec<RackId>,
}

/// Marker constructors so `PlannerBase` can build its reservation structure
/// from grid dimensions.
pub trait ReservationBackend: ReservationSystem + MemoryFootprint {
    /// Construct an empty structure for a `width`×`height` grid.
    fn create(width: u16, height: u16) -> Self;
}

impl ReservationBackend for SpatioTemporalGraph {
    fn create(width: u16, height: u16) -> Self {
        SpatioTemporalGraph::new(width, height)
    }
}

impl ReservationBackend for ConflictDetectionTable {
    fn create(width: u16, height: u16) -> Self {
        ConflictDetectionTable::new(width, height)
    }
}

/// The canonical (checkpoint-persisted) slice of a [`PlannerBase`]: the
/// reservation content, the cumulative counters and the GC cursor.
/// Everything else the base owns — grid copy, distance oracle, KNN index,
/// scratch arenas — is *derived*: the restore protocol rebuilds it via
/// [`crate::planner::Planner::init`] plus a replay of the applied-event
/// journal, then overwrites this canonical slice (see
/// `docs/snapshot-format.md` for the full decision table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaseSnapshot {
    /// Logical reservation content (timed + parked, canonical order).
    pub resv: ReservationContent,
    /// Cumulative STC/PTC counters.
    pub stats: PlannerStats,
    /// Last reservation-GC tick (GC timing is behaviorally observable).
    pub last_gc: Tick,
}

/// Shared planner state (built at [`crate::planner::Planner::init`] time).
pub struct PlannerBase<R: ReservationBackend> {
    /// The cell map.
    pub grid: GridMap,
    /// Conflict-avoidance structure.
    pub resv: R,
    /// Uncongested delivery distances (rack home to station).
    pub oracle: DistanceOracle,
    /// K-nearest-rack index (EATP; `None` elsewhere), built once from the
    /// instance: disruptions never touch it (`docs/adr/ADR-021-static-knn.md`).
    pub knn: Option<KNearestRacks>,
    /// Planner configuration.
    pub config: EatpConfig,
    /// Cumulative counters.
    pub stats: PlannerStats,
    /// Reusable A* arena shared by every leg this planner plans: after the
    /// first few queries warm it up, path finding is allocation-free except
    /// for the returned [`Path`] itself.
    pub scratch: SearchScratch,
    /// Reusable selection buffers (flip-side bitmaps and candidate list).
    pub sel: SelectionScratch,
    /// Mutual-exclusion groups already satisfied within the current
    /// [`PlannerBase::commit_legs`] batch (indexed by group id).
    group_done: Vec<bool>,
    /// Robots in the instance's fleet; a snapshot naming any other robot
    /// is refused.
    fleet: usize,
    last_gc: Tick,
}

impl<R: ReservationBackend> PlannerBase<R> {
    /// Build from an instance. `with_knn` enables the Sec. VI-A index.
    pub fn new(instance: &Instance, config: EatpConfig, with_knn: bool) -> Self {
        let grid = instance.grid.clone();
        let mut resv = R::create(grid.width(), grid.height());
        for robot in &instance.robots {
            resv.park(robot.id, robot.pos, 0);
        }
        let knn = with_knn.then(|| {
            let homes: Vec<GridPos> = instance.racks.iter().map(|r| r.home).collect();
            KNearestRacks::build(&grid, &homes, config.k_nearest)
        });
        let stations: Vec<GridPos> = instance.pickers.iter().map(|p| p.pos).collect();
        let oracle = DistanceOracle::new(&grid, &stations);
        Self {
            oracle,
            resv,
            knn,
            config,
            stats: PlannerStats::default(),
            scratch: SearchScratch::new(),
            sel: SelectionScratch::default(),
            group_done: Vec::new(),
            fleet: instance.robots.len(),
            grid,
            last_gc: 0,
        }
    }

    /// Uncongested delivery distance `d(l_r, l_p)` from `rack`'s home to
    /// its own station (Eq. 2).
    #[inline]
    pub fn delivery(&mut self, rack: &Rack) -> u64 {
        self.oracle.to_station(rack.home, rack.picker)
    }

    /// Time a closure into the *selection* bucket (STC).
    pub fn timed_selection<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.stats.selection_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Plan and reserve a conflict-free leg; timed into the *planning*
    /// bucket (PTC). Returns `None` when blocked (caller retries later).
    pub fn plan_and_reserve(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park_at_goal: bool,
    ) -> Option<Path> {
        let t0 = Instant::now();
        let out = self.plan_and_reserve_untimed(robot, from, to, start, park_at_goal);
        self.stats.planning_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    /// The planning core without a timing bracket: callers that batch many
    /// legs ([`PlannerBase::commit_legs`]) time the whole batch once instead
    /// of paying two clock reads per leg.
    fn plan_and_reserve_untimed(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park_at_goal: bool,
    ) -> Option<Path> {
        let outcome = plan_path_with(
            &mut self.scratch,
            &self.grid,
            &self.resv,
            robot,
            from,
            start,
            to,
            None,
            &PlanOptions {
                max_expansions: self.config.max_expansions,
                horizon_slack: self.config.horizon_slack,
                park_at_goal,
            },
        );
        match outcome {
            Some(out) => {
                self.stats.expansions += out.expansions as u64;
                self.stats.paths_planned += 1;
                self.resv.reserve_path(robot, &out.path, park_at_goal);
                Some(out.path)
            }
            None => {
                self.stats.failed_expansions += self.scratch.last_expansions() as u64;
                self.stats.paths_failed += 1;
                None
            }
        }
    }

    /// Plan one tick's leg batch (the
    /// [`crate::planner::Planner::commit_legs`] contract for base-backed
    /// planners): requests strictly in order against the shared warm
    /// [`SearchScratch`], one PTC timing bracket for the whole batch, and
    /// mutual-exclusion groups honoured via a reusable dense bitmap. The
    /// trait's `tentative` buffer never reaches here: no planner implements
    /// the query phase (`docs/adr/ADR-005-serial-leg-planning.md`).
    pub fn commit_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        results: &mut Vec<Option<Path>>,
    ) {
        results.clear();
        if requests.is_empty() {
            return;
        }
        let t0 = Instant::now();
        self.group_done.clear();
        if let Some(max_group) = requests.iter().filter_map(|r| r.group).max() {
            self.group_done.resize(max_group as usize + 1, false);
        }
        for req in requests {
            if let Some(g) = req.group {
                if self.group_done[g as usize] {
                    results.push(None);
                    continue;
                }
            }
            let path = self.plan_and_reserve_untimed(req.robot, req.from, req.to, start, req.park);
            if path.is_some() {
                if let Some(g) = req.group {
                    self.group_done[g as usize] = true;
                }
            }
            results.push(path);
        }
        self.stats.planning_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Dispatch one engine notification (the
    /// [`crate::planner::Planner::on_event`] contract for base-backed
    /// planners).
    pub fn on_event(&mut self, event: PlannerEvent<'_>) {
        match event {
            PlannerEvent::Disruption { event, t } => self.apply_disruption(event, t),
            PlannerEvent::PathCancelled { robot, pos, t } => self.cancel_path(robot, pos, t),
        }
    }

    /// Apply a disruption event to every grid-derived structure this base
    /// owns (the [`PlannerEvent::Disruption`] contract).
    ///
    /// Cell blockades / reopenings mutate the working grid copy and flip
    /// the distance oracle's passability snapshot (dropping its station
    /// fields) — stale state in either would route robots through
    /// walls. The K-nearest-rack index is static (Sec. VI-A): a removed
    /// rack leaves selection through the engine's selectable set, and a
    /// walled-off rack's pickup search fails and retries on a later tick.
    /// Rack, robot and station events carry no planner-side structure: the
    /// engine routes their consequences through the world view and
    /// [`PlannerBase::cancel_path`].
    pub fn apply_disruption(&mut self, event: &DisruptionEvent, _t: Tick) {
        match *event {
            DisruptionEvent::CellBlocked { pos } => self.set_cell_blocked(pos, true),
            DisruptionEvent::CellUnblocked { pos } => self.set_cell_blocked(pos, false),
            DisruptionEvent::RackRemoved { .. }
            | DisruptionEvent::RackRestored { .. }
            | DisruptionEvent::RobotBreakdown { .. }
            | DisruptionEvent::RobotRecover { .. }
            | DisruptionEvent::StationClosed { .. }
            | DisruptionEvent::StationReopened { .. } => {}
        }
    }

    fn set_cell_blocked(&mut self, pos: GridPos, blocked: bool) {
        // Blockades only ever target aisle cells (validated at instance
        // construction), so reopening restores `Aisle`.
        let kind = if blocked {
            CellKind::Blocked
        } else {
            CellKind::Aisle
        };
        if self.grid.kind(pos) == kind {
            return;
        }
        self.grid.set_kind(pos, kind);
        self.oracle.set_passable(pos, !blocked);
    }

    /// Cancel `robot`'s active path (the
    /// [`PlannerEvent::PathCancelled`] contract): every
    /// outstanding timed reservation is released so survivors can route
    /// through the abandoned route, and the robot is parked at `pos` — its
    /// frozen position — from `t` onward so survivors route *around* it.
    pub fn cancel_path(&mut self, robot: RobotId, pos: GridPos, t: Tick) {
        self.resv.release_robot(robot);
        // A robot frozen mid-transit may stand on a cell another robot
        // holds an *advance* park on (its leg goal, arrival still in the
        // future). That robot's path necessarily visits this cell at or
        // after `t`, so the engine's freeze cascade is about to cancel it
        // too and re-park it where it actually stands; evict the stale
        // advance claim so the frozen robot can take the cell it
        // physically occupies. A claim with `from <= t` is a robot really
        // standing here — that would be an executed vertex conflict, and
        // the board's own assert keeps rejecting it.
        if let Some((other, from)) = self.resv.parked_at(pos) {
            if other != robot && from > t {
                self.resv.unpark(other);
            }
        }
        self.resv.park(robot, pos, t);
    }

    /// Reservation GC, self-gated on the configured period.
    pub fn housekeeping(&mut self, t: Tick) {
        if t >= self.last_gc + self.config.gc_period {
            self.resv.release_before(t);
            self.last_gc = t;
        }
    }

    /// Remove the parked entry of a robot that docked into a station bay.
    pub fn on_dock(&mut self, robot: RobotId) {
        self.resv.unpark(robot);
    }

    /// Export the canonical slice of this base (see [`BaseSnapshot`]).
    pub fn export_base_snapshot(&self) -> BaseSnapshot {
        BaseSnapshot {
            resv: self.resv.export_content(),
            stats: self.stats.clone(),
            last_gc: self.last_gc,
        }
    }

    /// Overwrite this base's canonical slice with an exported snapshot.
    ///
    /// Precondition: the base was freshly built via
    /// [`crate::planner::Planner::init`] and the applied-disruption journal
    /// has been replayed as [`PlannerEvent::Disruption`]s, so the grid and
    /// oracle already match the checkpointed world (the KNN index is built
    /// from the instance and needs no replay). This method
    /// then replaces the reservation table's logical content (clearing the
    /// spawn parking `init` left behind), the counters and the GC cursor.
    ///
    /// A reservation cell off the grid, two robots parked on
    /// one cell, a robot outside the fleet, or a tick past what the tables
    /// encode ([`MAX_CDT_TICK`] for a reservation, [`MAX_PARK_TICK`] for a
    /// parking start) is refused before any table is touched: the tables
    /// index cells and pack robots and ticks with asserts of their own.
    pub fn import_base_snapshot(&mut self, snap: &BaseSnapshot) -> Result<(), serde::Error> {
        let resv = &snap.resv;
        let timed = resv
            .timed
            .iter()
            .map(|r| ("reservation", r.robot, r.t, MAX_CDT_TICK));
        let parked = resv
            .parked
            .iter()
            .map(|&(r, _, t)| ("parking", r, t, MAX_PARK_TICK));
        for (what, robot, t, max) in timed.chain(parked) {
            let problem = if robot.index() >= self.fleet {
                format!("robot {robot} is outside the {}-robot fleet", self.fleet)
            } else if t > max {
                format!("tick {t} is past the largest encodable tick {max}")
            } else {
                continue;
            };
            return Err(serde::Error::msg(format!("planner {what} {problem}")));
        }
        let grid = &self.grid;
        let timed = snap.resv.timed.iter().map(|r| ("reservation", r.pos));
        let parked = snap.resv.parked.iter().map(|&(_, pos, _)| ("parking", pos));
        if let Some((what, pos)) = timed.chain(parked).find(|&(_, p)| !grid.in_bounds(p)) {
            return Err(serde::Error::msg(format!(
                "planner {what} cell {pos} is off the {}×{} grid",
                grid.width(),
                grid.height()
            )));
        }
        let mut parked: Vec<usize> = snap
            .resv
            .parked
            .iter()
            .map(|&(_, pos, _)| pos.to_index(grid.width()))
            .collect();
        parked.sort_unstable();
        if let Some(w) = parked.windows(2).find(|w| w[0] == w[1]) {
            let pos = GridPos::from_index(w[0], grid.width());
            return Err(serde::Error::msg(format!(
                "planner parks two robots on cell {pos}"
            )));
        }
        // Clear every robot the table currently knows (post-`init` that is
        // the spawn-parked fleet) plus, defensively, every robot the
        // snapshot mentions.
        let current = self.resv.export_content();
        let mut robots: Vec<RobotId> = current
            .timed
            .iter()
            .chain(snap.resv.timed.iter())
            .map(|r| r.robot)
            .chain(
                current
                    .parked
                    .iter()
                    .chain(snap.resv.parked.iter())
                    .map(|&(r, _, _)| r),
            )
            .collect();
        robots.sort_unstable();
        robots.dedup();
        for robot in robots {
            self.resv.release_robot(robot);
            self.resv.unpark(robot);
        }
        self.resv.import_content(&snap.resv);
        self.stats = snap.stats.clone();
        self.last_gc = snap.last_gc;
        Ok(())
    }

    /// Snapshot stats with the current memory footprint filled in.
    pub fn stats_snapshot(&self) -> PlannerStats {
        let mut s = self.stats.clone();
        s.memory_bytes =
            self.resv.memory_bytes() + self.knn.as_ref().map_or(0, |k| k.memory_bytes());
        // The search arena and the distance oracle are identical machinery
        // for every planner, so they are reported separately and not folded
        // into the Fig. 12 MC comparison of reservation structures.
        s.scratch_bytes = self.scratch.memory_bytes() + self.oracle.memory_bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tprw_pathfinding::ReservationProbe;
    use tprw_warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

    fn instance() -> Instance {
        ScenarioSpec {
            name: "base-test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 20,
            n_robots: 5,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(50, 1.0),
            disruptions: None,
            seed: 5,
        }
        .build()
        .unwrap()
    }

    #[test]
    fn construction_parks_robots() {
        let inst = instance();
        let base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        for robot in &inst.robots {
            assert_eq!(
                base.resv.parked_at(robot.pos),
                Some((robot.id, 0)),
                "robot {} must be parked at spawn",
                robot.id
            );
        }
        assert!(base.knn.is_none());
    }

    #[test]
    fn optional_structures_enabled() {
        let inst = instance();
        let base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), true);
        assert!(base.knn.is_some());
        let stats = base.stats_snapshot();
        assert!(stats.memory_bytes > 0);
    }

    #[test]
    fn plan_and_reserve_counts() {
        let inst = instance();
        let mut base: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let robot = inst.robots[0].id;
        let from = inst.robots[0].pos;
        let to = inst.racks[0].home;
        let path = base.plan_and_reserve(robot, from, to, 0, true).unwrap();
        assert_eq!(path.first(), from);
        assert_eq!(path.last(), to);
        assert_eq!(base.stats.paths_planned, 1);
        assert!(base.stats.planning_ns > 0);
        // Robot is now parked at the rack home.
        assert_eq!(base.resv.parked_at(to), Some((robot, path.end() + 1)));
    }

    #[test]
    fn failed_plan_counts() {
        let inst = instance();
        let mut base: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        // Goal occupied by another parked robot → immediate failure.
        let blocker_pos = inst.robots[1].pos;
        let robot = inst.robots[0].id;
        let from = inst.robots[0].pos;
        let out = base.plan_and_reserve(robot, from, blocker_pos, 0, true);
        assert!(out.is_none());
        assert_eq!(base.stats.paths_failed, 1);
    }

    #[test]
    fn timed_selection_accumulates() {
        let inst = instance();
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let v = base.timed_selection(|_| 42);
        assert_eq!(v, 42);
        assert!(base.stats.selection_ns > 0);
    }

    #[test]
    fn housekeeping_gates_on_period() {
        let inst = instance();
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let robot = inst.robots[0].id;
        let from = inst.robots[0].pos;
        let to = inst.racks[0].home;
        let path = base.plan_and_reserve(robot, from, to, 0, true).unwrap();
        let live = base.resv.reservation_count();
        assert!(live > 0);
        base.housekeeping(1); // within period: no-op (last_gc = 0, period 64)
        assert_eq!(base.resv.reservation_count(), live);
        base.housekeeping(path.end() + 65);
        assert_eq!(base.resv.reservation_count(), 0, "past entries collected");
    }

    #[test]
    fn cancel_path_releases_and_parks() {
        let inst = instance();
        let mut base: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let robot = inst.robots[0].id;
        let from = inst.robots[0].pos;
        let to = inst.racks[0].home;
        let path = base.plan_and_reserve(robot, from, to, 0, true).unwrap();
        assert!(base.resv.reservation_count() > 0);
        // The robot freezes two steps in.
        let frozen = path.at(2);
        base.cancel_path(robot, frozen, 2);
        assert_eq!(base.resv.reservation_count(), 0, "timed steps released");
        assert_eq!(
            base.resv.parked_at(frozen),
            Some((robot, 2)),
            "robot parked where it froze"
        );
        // Another robot can now traverse the abandoned tail but must route
        // around the frozen cell.
        let other = inst.robots[1].id;
        if let Some(p2) = base.plan_and_reserve(other, inst.robots[1].pos, to, 2, true) {
            assert!(p2.iter_timed().all(|(_, c)| c != frozen));
        }
    }

    #[test]
    fn apply_disruption_blockade_updates_all_structures() {
        use tprw_warehouse::CellKind;
        let inst = instance();
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), true);
        // Pick an aisle cell that is neither a home nor a spawn.
        let pos = inst
            .grid
            .cells_of_kind(CellKind::Aisle)
            .find(|&c| {
                inst.racks.iter().all(|r| r.home != c) && inst.robots.iter().all(|r| r.pos != c)
            })
            .expect("aisle cell available");
        let lists = |base: &PlannerBase<ConflictDetectionTable>| -> Vec<Vec<RackId>> {
            let knn = base.knn.as_ref().unwrap();
            (0..base.grid.cell_count())
                .map(|i| {
                    knn.nearest(GridPos::from_index(i, base.grid.width()))
                        .to_vec()
                })
                .collect()
        };
        let built = lists(&base);
        base.apply_disruption(&DisruptionEvent::CellBlocked { pos }, 5);
        assert_eq!(base.grid.kind(pos), CellKind::Blocked);
        assert!(!base.oracle.manhattan_exact(), "oracle sees the blockade");
        assert_eq!(base.oracle.field_count(), 0, "fields evicted");
        // The K-nearest index is static (Sec. VI-A): a blockade leaves
        // every list as the instance built it.
        assert_eq!(lists(&base), built, "the index ignores blockades");
        // Paths must now avoid the cell.
        let robot = inst.robots[0].id;
        if let Some(p) =
            base.plan_and_reserve(robot, inst.robots[0].pos, inst.racks[0].home, 5, true)
        {
            assert!(p.iter_timed().all(|(_, c)| c != pos));
        }
        // Reopen: the grid and oracle flip back.
        base.apply_disruption(&DisruptionEvent::CellUnblocked { pos }, 9);
        assert_eq!(base.grid.kind(pos), CellKind::Aisle);
        assert!(base.oracle.manhattan_exact());
        assert_eq!(lists(&base), built);
        // Robot/station events are structure-neutral on the base.
        base.apply_disruption(&DisruptionEvent::RobotBreakdown { robot }, 10);
        assert_eq!(base.grid.kind(pos), CellKind::Aisle);
    }

    #[test]
    fn batched_legs_equal_serial_legs() {
        let inst = instance();
        let requests: Vec<LegRequest> = inst
            .robots
            .iter()
            .enumerate()
            .map(|(i, r)| LegRequest {
                robot: r.id,
                from: r.pos,
                to: inst.racks[i].home,
                park: true,
                group: None,
            })
            .collect();

        let mut serial: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let serial_paths: Vec<Option<Path>> = requests
            .iter()
            .map(|r| serial.plan_and_reserve(r.robot, r.from, r.to, 0, r.park))
            .collect();

        let mut batched: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let mut batched_paths = Vec::new();
        batched.commit_legs(&requests, 0, &mut batched_paths);

        assert_eq!(serial_paths, batched_paths, "identical paths either way");
        assert_eq!(serial.stats.paths_planned, batched.stats.paths_planned);
        assert_eq!(serial.stats.paths_failed, batched.stats.paths_failed);
        assert_eq!(serial.stats.expansions, batched.stats.expansions);
        assert!(batched.stats.planning_ns > 0, "batch is PTC-timed");
    }

    /// The reported scratch footprint is the shared machinery a planner
    /// actually holds once it has planned: the search arena and the
    /// distance oracle.
    #[test]
    fn scratch_bytes_are_arena_plus_oracle() {
        let inst = instance();
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let requests = vec![LegRequest::new(
            inst.robots[0].id,
            inst.robots[0].pos,
            inst.racks[0].home,
            true,
        )];
        base.commit_legs(&requests, 0, &mut Vec::new());
        assert!(
            base.scratch.memory_bytes() > 0,
            "the batch warmed the arena"
        );
        assert_eq!(
            base.stats_snapshot().scratch_bytes,
            base.scratch.memory_bytes() + base.oracle.memory_bytes()
        );
    }

    /// Failed searches cost expansions too: the count folds into
    /// `failed_expansions`, and `expansions` keeps counting successful
    /// searches only.
    #[test]
    fn failed_expansions_count_failed_searches_only() {
        let inst = instance();
        let config = EatpConfig {
            horizon_slack: 6,
            ..EatpConfig::default()
        };
        // Two parking goals, each three cells from a robot and crossed by
        // a third party at tick 40 — past the 9-tick horizon, so both
        // searches run dry.
        let (r0, r1, r3) = (&inst.robots[0], &inst.robots[1], &inst.robots[3]);
        let goals = [
            GridPos::new(r1.pos.x + 3, r1.pos.y),
            GridPos::new(r3.pos.x + 3, r3.pos.y),
        ];
        let requests = vec![
            LegRequest::new(r0.id, r0.pos, GridPos::new(r1.pos.x + 1, r1.pos.y), true),
            LegRequest::new(r1.id, r1.pos, goals[0], true),
            LegRequest::new(r3.id, r3.pos, goals[1], true),
        ];
        let build = || {
            let mut base: PlannerBase<ConflictDetectionTable> =
                PlannerBase::new(&inst, config.clone(), false);
            for (i, &goal) in goals.iter().enumerate() {
                let side = GridPos::new(goal.x + 1, goal.y);
                let crossing = Path {
                    start: 39,
                    cells: vec![side, goal, side],
                };
                base.resv
                    .reserve_path(RobotId::new(90 + i), &crossing, false);
            }
            base
        };

        let mut batch = build();
        batch.commit_legs(&requests, 0, &mut Vec::new());
        assert_eq!(batch.stats.paths_planned, 1);
        assert_eq!(batch.stats.paths_failed, 2);
        assert!(
            batch.stats.failed_expansions > 2 * 9,
            "two searches ran dry"
        );
        let mut alone = build();
        alone.commit_legs(&requests[..1], 0, &mut Vec::new());
        assert_eq!(
            batch.stats.expansions, alone.stats.expansions,
            "successful searches only"
        );
    }

    #[test]
    fn batched_legs_honour_groups() {
        let inst = instance();
        // Two robots race for legs in the same group toward distinct goals:
        // only the first may be planned.
        let requests = vec![
            LegRequest {
                robot: inst.robots[0].id,
                from: inst.robots[0].pos,
                to: inst.racks[0].home,
                park: true,
                group: Some(0),
            },
            LegRequest {
                robot: inst.robots[1].id,
                from: inst.robots[1].pos,
                to: inst.racks[1].home,
                park: true,
                group: Some(0),
            },
        ];
        let mut base: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let mut results = Vec::new();
        base.commit_legs(&requests, 0, &mut results);
        assert!(results[0].is_some());
        assert!(results[1].is_none(), "group satisfied by the first leg");
        assert_eq!(base.stats.paths_planned, 1, "second leg never attempted");
    }
}
