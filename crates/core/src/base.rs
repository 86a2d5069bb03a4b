//! Shared planner machinery: reservation ownership, distance oracle, timed
//! path-finding, and the STC/PTC/MC instrumentation.
//!
//! Every concrete planner owns a [`PlannerBase`] parameterized by its
//! reservation structure — the spatiotemporal graph for the baselines and
//! ATP, the conflict detection table for EATP. This mirrors the paper's
//! architecture: selection strategies differ, the path-finding layer is
//! shared (EATP's K-nearest-rack index belongs to its strategy).

use crate::config::EatpConfig;
use crate::planner::{resumed_reservations, LegRequest, PlannerEvent, PlannerStats};
use std::time::Instant;
use tprw_pathfinding::astar::{plan_path_with, PlanOptions};
use tprw_pathfinding::bfs::DistanceOracle;
use tprw_pathfinding::reservation::MAX_PARK_TICK;
use tprw_pathfinding::{
    ConflictDetectionTable, MemoryFootprint, Path, ReservationSystem, SearchScratch,
    SpatioTemporalGraph,
};
use tprw_warehouse::{
    CellKind, DisruptionEvent, GridMap, GridPos, Instance, Rack, Robot, RobotId, Tick,
};

/// Reusable selection scratch shared through [`PlannerBase`]: EATP's
/// flip-side selection and every planner's pickup matching run every
/// timestamp, so their membership bitmaps must not be reallocated per tick
/// (the same discipline as the [`SearchScratch`] arena below `plan_leg`).
#[derive(Debug, Default)]
pub struct SelectionScratch {
    /// Rack membership bitmap (`selectable_racks` as dense flags).
    pub rack_flags: Vec<bool>,
    /// Robot membership bitmap (robots consumed by the current plan step,
    /// in [`crate::assignment::match_and_plan`]).
    pub robot_flags: Vec<bool>,
}

/// How `PlannerBase` builds its reservation structure and collects it.
pub trait ReservationBackend: ReservationSystem + MemoryFootprint {
    /// Construct an empty structure for a `width`×`height` grid.
    fn create(width: u16, height: u16) -> Self;
    /// End-of-tick GC at `t` on this structure's cadence, which depends on
    /// `t` alone (called every tick, so a resume keeps the uncut cadence).
    fn housekeeping(&mut self, t: Tick);
}

/// Releases passed layers every tick (`docs/adr/ADR-035-stg-layer-ring.md`).
impl ReservationBackend for SpatioTemporalGraph {
    fn create(width: u16, height: u16) -> Self {
        SpatioTemporalGraph::new(width, height)
    }
    fn housekeeping(&mut self, t: Tick) {
        self.release_before(t);
    }
}

/// Records the finished tick and collects every 64 ticks
/// ([`ConflictDetectionTable::housekeeping`]).
impl ReservationBackend for ConflictDetectionTable {
    fn create(width: u16, height: u16) -> Self {
        ConflictDetectionTable::new(width, height)
    }
    fn housekeeping(&mut self, t: Tick) {
        ConflictDetectionTable::housekeeping(self, t);
    }
}

/// Shared planner state (built at [`crate::planner::Planner::init`] time).
pub struct PlannerBase<R: ReservationBackend> {
    /// The cell map.
    pub grid: GridMap,
    /// Conflict-avoidance structure.
    pub resv: R,
    /// Uncongested delivery distances (rack home to station).
    pub oracle: DistanceOracle,
    /// Planner configuration.
    pub config: EatpConfig,
    /// Cumulative counters: the base's whole checkpoint slice. Everything
    /// else it owns is derived — rebuilt by [`crate::planner::Planner::init`],
    /// the journal replay and [`PlannerEvent::Resumed`] (see
    /// `docs/snapshot-format.md`).
    pub stats: PlannerStats,
    /// Reusable A* arena shared by every leg this planner plans: after the
    /// first few queries warm it up, path finding is allocation-free except
    /// for the returned [`Path`] itself.
    pub scratch: SearchScratch,
    /// Reusable selection buffers (flip-side and matching bitmaps).
    pub sel: SelectionScratch,
    /// Mutual-exclusion groups already satisfied within the current
    /// [`PlannerBase::commit_legs`] batch (indexed by group id).
    group_done: Vec<bool>,
}

impl<R: ReservationBackend> PlannerBase<R> {
    /// Build from an instance.
    pub fn new(instance: &Instance, config: EatpConfig) -> Self {
        let grid = instance.grid.clone();
        let mut resv = R::create(grid.width(), grid.height());
        for robot in &instance.robots {
            resv.park(robot.id, robot.pos, 0);
        }
        let stations: Vec<GridPos> = instance.pickers.iter().map(|p| p.pos).collect();
        let oracle = DistanceOracle::new(&grid, &stations);
        Self {
            oracle,
            resv,
            config,
            stats: PlannerStats::default(),
            scratch: SearchScratch::new(),
            sel: SelectionScratch::default(),
            group_done: Vec::new(),
            grid,
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
            PlannerEvent::Resumed { t, robots, paths } => {
                self.rebuild_reservations(t, robots, paths)
            }
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

    /// End-of-tick reservation GC ([`ReservationBackend::housekeeping`]).
    pub fn housekeeping(&mut self, t: Tick) {
        self.resv.housekeeping(t);
    }

    /// Remove the parked entry of a robot that docked into a station bay.
    pub fn on_dock(&mut self, robot: RobotId) {
        self.resv.unpark(robot);
    }

    /// Rebuild the reservation table of a resumed run from the engine's
    /// state at tick `t` (the [`PlannerEvent::Resumed`] contract): every
    /// robot holds its [`resumed_reservations`]. The uncut run's table
    /// differs only in ticks before `t`, which no query reads, and in the
    /// starts of parks that began by `t`, which every query reads alike
    /// (`docs/adr/ADR-033-derived-reservations.md`).
    ///
    /// The caller guarantees the state is one a run can hold: every path
    /// holds a cell, starts by `t` and ends by `t + leg_span`, and no two
    /// robots meet on a cell (`resume_from` and
    /// [`PlannerBase::check_resume_tick`] refuse any other).
    pub fn rebuild_reservations(&mut self, t: Tick, robots: &[Robot], paths: &[Option<Path>]) {
        self.resv = R::create(self.grid.width(), self.grid.height());
        for (robot, path) in robots.iter().zip(paths) {
            let (ahead, park) = resumed_reservations(t, robot, path.as_ref());
            if let Some(ahead) = ahead {
                self.resv.reserve_path(robot.id, &ahead, false);
            }
            if let Some((pos, from)) = park {
                self.resv.park(robot.id, pos, from);
            }
        }
    }

    /// Refuse a resume at tick `t` whose active paths run to a tick
    /// `last_end` no leg reaches, or whose legs could park past
    /// [`MAX_PARK_TICK`]. Every active path is a leg planned at or before
    /// `t`, so it ends by `t + leg_span`; a later end is no run's, and the
    /// spatiotemporal graph would allocate one layer per tick of it on
    /// [`PlannerBase::rebuild_reservations`]. A leg planned at `t` parks by
    /// `t + leg_span + 1`, and the parking board's encoding would panic on
    /// the first one past its limit.
    pub fn check_resume_tick(&self, t: Tick, last_end: Tick) -> Result<(), serde::Error> {
        let reach = t.saturating_add(self.leg_span());
        if last_end > reach {
            return Err(serde::Error::msg(format!(
                "planner resume tick {t} holds a path to tick {last_end}, past tick {reach}, \
                 the last a leg planned by then reaches"
            )));
        }
        let park = reach.saturating_add(1);
        if park > MAX_PARK_TICK {
            return Err(serde::Error::msg(format!(
                "planner resume tick {t} could park a leg at tick {park}, past {MAX_PARK_TICK}"
            )));
        }
        Ok(())
    }

    /// The most ticks a leg's A* horizon spans past its start: the longest
    /// Manhattan distance on the grid, `(W−1) + (H−1)`, plus the slack.
    fn leg_span(&self) -> Tick {
        let (w, h) = (self.grid.width() as Tick, self.grid.height() as Tick);
        (w - 1 + h - 1).saturating_add(self.config.horizon_slack)
    }

    /// Snapshot stats with the current memory footprint filled in.
    pub fn stats_snapshot(&self) -> PlannerStats {
        let mut s = self.stats.clone();
        s.memory_bytes = self.resv.memory_bytes();
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
    use tprw_warehouse::{LayoutConfig, RobotPhase, ScenarioSpec, WorkloadConfig};

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
            PlannerBase::new(&inst, EatpConfig::default());
        for robot in &inst.robots {
            assert_eq!(
                base.resv.parked_at(robot.pos),
                Some((robot.id, 0)),
                "robot {} must be parked at spawn",
                robot.id
            );
        }
    }

    #[test]
    fn optional_structures_enabled() {
        let inst = instance();
        let base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default());
        let stats = base.stats_snapshot();
        assert!(stats.memory_bytes > 0);
    }

    #[test]
    fn plan_and_reserve_counts() {
        let inst = instance();
        let mut base: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default());
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
            PlannerBase::new(&inst, EatpConfig::default());
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
            PlannerBase::new(&inst, EatpConfig::default());
        let v = base.timed_selection(|_| 42);
        assert_eq!(v, 42);
        assert!(base.stats.selection_ns > 0);
    }

    /// A 300-tick wait of robot 0 on its spawn cell: one timed step a tick.
    fn wait_300(inst: &Instance) -> Path {
        Path {
            start: 0,
            cells: vec![inst.robots[0].pos; 300],
        }
    }

    /// The conflict detection table collects at the multiples of 64 only.
    /// A table rebuilt at a resumed tick between two of them collects on
    /// the uncut run's ticks, so from the first collection after the cut
    /// both hold the same steps.
    #[test]
    fn cdt_collects_at_multiples_of_64_also_after_a_resume() {
        let inst = instance();
        let wait = wait_300(&inst);
        let mut uncut: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default());
        uncut.resv.reserve_path(inst.robots[0].id, &wait, true);
        let cut = 100;
        let mut resumed: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default());
        let paths: Vec<Option<Path>> = (0..inst.robots.len())
            .map(|i| (i == 0).then(|| wait.clone()))
            .collect();
        let robots = &inst.robots[..];
        resumed.on_event(PlannerEvent::Resumed {
            t: cut,
            robots,
            paths: &paths,
        });
        for t in 0..300 {
            // Housekeeping runs at the end of every tick, from the cut on
            // in the resumed run.
            uncut.housekeeping(t);
            let collected = t - t % 64;
            assert_eq!(
                uncut.resv.reservation_count() as Tick,
                300 - collected,
                "tick {t}"
            );
            if t >= cut {
                resumed.housekeeping(t);
                let held = 300 - collected.max(cut);
                assert_eq!(
                    resumed.resv.reservation_count() as Tick,
                    held,
                    "resumed, tick {t}"
                );
            }
        }
    }

    /// The spatiotemporal graph releases its passed layers every tick.
    #[test]
    fn stg_releases_every_tick() {
        let inst = instance();
        let mut base: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default());
        base.resv
            .reserve_path(inst.robots[0].id, &wait_300(&inst), true);
        for t in 0..300 {
            base.housekeeping(t);
            assert_eq!(base.resv.reservation_count() as Tick, 300 - t, "tick {t}");
            assert_eq!(base.resv.layer_count() as Tick, 300 - t, "tick {t}");
        }
    }

    /// A table rebuilt at a resumed tick from the fleet and its active
    /// paths answers like the one the run built leg by leg, from that tick
    /// on, on either backend: robots on a parking and a docking leg, one
    /// frozen by a cancellation, one standing at its spawn and one docked.
    /// Ticks before the resumed one are not held, so a clearance reads
    /// only when it lies at or after it, and a park that began by then
    /// reads as beginning then.
    #[test]
    fn resume_rebuilds_the_table_from_active_paths() {
        fn check<R: ReservationBackend>() {
            let inst = instance();
            let (r, t) = (&inst.robots, 3);
            let mut uncut: PlannerBase<R> = PlannerBase::new(&inst, EatpConfig::default());
            let mut robots = inst.robots.clone();
            let mut paths = vec![None; robots.len()];
            let rack = |i: usize| inst.racks[i].id;
            let legs = [
                (0, inst.racks[0].home, RobotPhase::ToRack { rack: rack(0) }),
                (
                    1,
                    inst.pickers[0].pos,
                    RobotPhase::ToStation { rack: rack(1) },
                ),
                (3, inst.racks[3].home, RobotPhase::ToRack { rack: rack(3) }),
            ];
            for (i, to, phase) in legs {
                let park = !matches!(phase, RobotPhase::ToStation { .. });
                let path = uncut.plan_and_reserve(r[i].id, r[i].pos, to, 0, park);
                let path = path.expect("the leg plans");
                assert!(path.end() > t, "robot {i}'s leg is still under way");
                (robots[i].phase, robots[i].pos) = (phase, path.at(t - 1));
                paths[i] = Some(path);
            }
            // Robot 3 freezes at tick 2; robot 4 docks.
            uncut.cancel_path(r[3].id, robots[3].pos, 2);
            paths[3] = None;
            uncut.on_dock(r[4].id);
            robots[4].phase = RobotPhase::Queuing { rack: rack(4) };

            let mut resumed: PlannerBase<R> = PlannerBase::new(&inst, EatpConfig::default());
            let (robots, paths) = (&robots[..], &paths[..]);
            resumed.on_event(PlannerEvent::Resumed { t, robots, paths });
            let (w, h) = (inst.grid.width(), inst.grid.height());
            for pos in (0..h).flat_map(|y| (0..w).map(move |x| GridPos::new(x, y))) {
                for tick in t..t + 80 {
                    let (a, b) = (&resumed.resv, &uncut.resv);
                    assert_eq!(a.occupant(pos, tick), b.occupant(pos, tick), "{pos}@{tick}");
                }
                let parked = |b: &PlannerBase<R>| b.resv.parked_at(pos).map(|(r, f)| (r, f.max(t)));
                assert_eq!(parked(&resumed), parked(&uncut), "parked on {pos}");
                for robot in r.iter().map(|r| r.id) {
                    assert_eq!(
                        resumed.resv.last_reservation_excluding(pos, robot),
                        (uncut.resv.last_reservation_excluding(pos, robot)).filter(|&x| x >= t),
                        "clearance of {pos} for {robot}"
                    );
                }
            }
            assert!(resumed.resv.reservation_count() < uncut.resv.reservation_count());
            // The next leg plans alike on both.
            let next = |b: &mut PlannerBase<R>| {
                b.plan_and_reserve(r[2].id, r[2].pos, inst.racks[5].home, t, true)
            };
            assert_eq!(next(&mut resumed), next(&mut uncut));
        }
        check::<SpatioTemporalGraph>();
        check::<ConflictDetectionTable>();
    }

    /// A resumed tick so close to [`MAX_PARK_TICK`] that a leg planned at
    /// it could park past it is refused, and the tick before is not; an
    /// active path may end as late as a leg planned at the resumed tick
    /// does, and no later.
    #[test]
    fn resume_ticks_and_paths_past_a_legs_reach_are_refused() {
        let inst = instance();
        let config = EatpConfig::default();
        let (w, h) = (inst.grid.width() as Tick, inst.grid.height() as Tick);
        let reach = (w - 1) + (h - 1) + config.horizon_slack;
        // The latest tick whose legs still park within the encoding.
        let latest = MAX_PARK_TICK - reach - 1;
        let base: PlannerBase<SpatioTemporalGraph> = PlannerBase::new(&inst, config);
        let cases = [
            (0, 0, false),
            (latest, latest, false),
            (latest + 1, latest + 1, true),
            (u32::MAX as Tick - 5, u32::MAX as Tick - 5, true),
            (400, 400 + reach, false),
            (400, 400 + reach + 1, true),
        ];
        for (t, end, refused) in cases {
            match base.check_resume_tick(t, end) {
                Ok(()) => assert!(!refused, "tick {t}, path to {end} resumed"),
                Err(e) => assert!(refused && e.to_string().contains("past"), "tick {t}: {e}"),
            }
        }
    }

    #[test]
    fn cancel_path_releases_and_parks() {
        let inst = instance();
        let mut base: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default());
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
            PlannerBase::new(&inst, EatpConfig::default());
        // Pick an aisle cell that is neither a home nor a spawn.
        let pos = inst
            .grid
            .cells_of_kind(CellKind::Aisle)
            .find(|&c| {
                inst.racks.iter().all(|r| r.home != c) && inst.robots.iter().all(|r| r.pos != c)
            })
            .expect("aisle cell available");
        base.apply_disruption(&DisruptionEvent::CellBlocked { pos }, 5);
        assert_eq!(base.grid.kind(pos), CellKind::Blocked);
        assert!(!base.oracle.manhattan_exact(), "oracle sees the blockade");
        assert_eq!(base.oracle.field_count(), 0, "no field before a query");
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
        // Robot/station events are structure-neutral on the base.
        base.apply_disruption(&DisruptionEvent::RobotBreakdown { robot }, 10);
        assert_eq!(base.grid.kind(pos), CellKind::Aisle);
    }

    /// The benchmark's surge floor at seed 7 replays its 60 cell blockades
    /// and reopenings with every rack's delivery distance asked after each:
    /// the patched station fields keep answering as a fresh oracle does,
    /// and only the fields whose blockade certificate fails are dropped.
    #[test]
    fn surge_blockade_replay_patches_station_fields() {
        use tprw_warehouse::{ArrivalProfile, DisruptionConfig};
        let inst = ScenarioSpec {
            name: "surge-live".into(),
            layout: LayoutConfig {
                width: 200,
                height: 200,
                border_walls: true,
                ..LayoutConfig::default()
            },
            n_racks: 2000,
            n_robots: 500,
            n_pickers: 24,
            workload: WorkloadConfig {
                n_items: 500,
                profile: ArrivalProfile::Surge {
                    base_rate: 2.0,
                    multipliers: vec![0.5, 3.0],
                    phase_len: 100,
                },
                processing_min: 8,
                processing_max: 16,
                rack_skew: 0.8,
                skew_cap: 8.0,
            },
            disruptions: Some(DisruptionConfig {
                breakdowns: 62,
                breakdown_ticks: (100, 300),
                blockades: 30,
                blockade_ticks: (150, 400),
                closures: 4,
                closure_ticks: (150, 300),
                removals: 20,
                removal_ticks: (100, 250),
                window: (50, 1000),
            }),
            seed: 7,
        }
        .build()
        .unwrap();
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default());
        let stations: Vec<GridPos> = inst.pickers.iter().map(|p| p.pos).collect();
        let cell_events: Vec<_> = (inst.disruptions.iter())
            .filter(|e| {
                matches!(
                    e.event,
                    DisruptionEvent::CellBlocked { .. } | DisruptionEvent::CellUnblocked { .. }
                )
            })
            .collect();
        assert_eq!(cell_events.len(), 60);
        let mut dropped = 0;
        for (n, e) in cell_events.iter().enumerate() {
            let live = base.oracle.field_count();
            base.apply_disruption(&e.event, e.t);
            dropped += live - base.oracle.field_count();
            let answers: Vec<u64> = inst.racks.iter().map(|r| base.delivery(r)).collect();
            if n % 10 == 9 {
                let mut fresh = DistanceOracle::new(&base.grid, &stations);
                let expected: Vec<u64> = (inst.racks.iter())
                    .map(|r| fresh.to_station(r.home, r.picker))
                    .collect();
                assert_eq!(answers, expected, "after cell event {n}");
            }
        }
        // Dropping every field on each event dropped 1 416 here.
        assert_eq!(dropped, 8, "fields dropped by failed certificates");
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
            PlannerBase::new(&inst, EatpConfig::default());
        let serial_paths: Vec<Option<Path>> = requests
            .iter()
            .map(|r| serial.plan_and_reserve(r.robot, r.from, r.to, 0, r.park))
            .collect();

        let mut batched: PlannerBase<SpatioTemporalGraph> =
            PlannerBase::new(&inst, EatpConfig::default());
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
            PlannerBase::new(&inst, EatpConfig::default());
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
                PlannerBase::new(&inst, config.clone());
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
            PlannerBase::new(&inst, EatpConfig::default());
        let mut results = Vec::new();
        base.commit_legs(&requests, 0, &mut results);
        assert!(results[0].is_some());
        assert!(results[1].is_none(), "group satisfied by the first leg");
        assert_eq!(base.stats.paths_planned, 1, "second leg never attempted");
    }
}
