//! The planner abstraction driven by the validation system.
//!
//! A [`Planner`] is called once per timestamp with a
//! [`crate::world::WorldView`] and returns pickup assignments (`U_t` of
//! Definition 5, restricted to newly assigned robots). As robots progress
//! through the fulfilment cycle the engine requests the remaining legs
//! (delivery, return) one batch per tick via [`Planner::commit_legs`]. All
//! returned paths are already reserved in the planner's conflict-avoidance
//! structure.

use crate::world::WorldView;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::Path;
use tprw_warehouse::{
    DisruptionEvent, GridPos, Instance, RackId, Robot, RobotId, RobotPhase, Tick,
};

/// One pickup assignment: `robot` travels `path` to fetch `rack`.
#[derive(Debug, Clone)]
pub struct AssignmentPlan {
    /// The assigned robot.
    pub robot: RobotId,
    /// The selected rack.
    pub rack: RackId,
    /// Conflict-free pickup path (already reserved by the planner).
    pub path: Path,
}

/// One leg of a planning batch (see [`Planner::commit_legs`]): a
/// delivery, return or resumed leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegRequest {
    /// The robot needing a path.
    pub robot: RobotId,
    /// Current cell.
    pub from: GridPos,
    /// Destination cell.
    pub to: GridPos,
    /// Whether the robot parks on the goal (return legs) instead of docking
    /// off-grid (delivery legs).
    pub park: bool,
    /// Optional mutual-exclusion group: once a request of a group succeeds
    /// within a batch, later requests of the same group are *not attempted*
    /// (their result is `None`, so the caller retries next tick). The
    /// engine uses picker indices here to keep station handoff cells
    /// unambiguous ("one undock per station per tick").
    pub group: Option<u32>,
}

impl LegRequest {
    /// An ungrouped request.
    pub fn new(robot: RobotId, from: GridPos, to: GridPos, park: bool) -> Self {
        Self {
            robot,
            from,
            to,
            park,
            group: None,
        }
    }
}

/// One slot of the buffer [`Planner::query_legs`] fills for
/// [`Planner::commit_legs`]. No planner implements the query phase
/// (`docs/adr/ADR-005-serial-leg-planning.md`), so a slot can only say that
/// the commit phase plans the request inline.
#[derive(Debug, Clone, Default)]
pub enum TentativeLeg {
    /// No search ran for this request; the commit phase plans it inline.
    #[default]
    Deferred,
}

/// Cumulative efficiency counters (the STC/PTC/MC metrics of Sec. VII-A).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlannerStats {
    /// Nanoseconds spent in rack selection (STC).
    pub selection_ns: u64,
    /// Nanoseconds spent in path finding (PTC).
    pub planning_ns: u64,
    /// Current memory of reservation/index/learning structures (MC).
    pub memory_bytes: usize,
    /// Memory of the shared planner machinery — the reusable A* search
    /// arena plus the distance oracle: its passability snapshot and one
    /// 4 B-per-cell BFS field per queried station, none while the free
    /// floor is a rectangle (`docs/adr/ADR-022-station-fields.md`). Reported
    /// separately from MC: both are identical machinery for every planner,
    /// so folding them into `memory_bytes` would wash out the STG-vs-CDT
    /// comparison.
    pub scratch_bytes: usize,
    /// A* state expansions of the *successful* path queries.
    pub expansions: u64,
    /// A* state expansions of the failed path queries — work that produced
    /// no path.
    pub failed_expansions: u64,
    /// Successful path queries.
    pub paths_planned: u64,
    /// Failed path queries (retried by the engine on later ticks).
    pub paths_failed: u64,
    /// Always 0: it counted paths whose tail came from the path cache,
    /// which is deleted (`docs/adr/ADR-019-one-leg-search.md`). A husk like
    /// [`Planner::query_legs`]: it stays only because the benchmark's
    /// report reads it and every golden fingerprint line prints it as the
    /// fourth `planner_counters` slot.
    pub cache_spliced: u64,
    /// Always 0: the selection layer that counted here is deleted
    /// (`docs/adr/ADR-011-one-selection-policy.md`). The field stays only
    /// because the report copies it and every golden fingerprint line
    /// prints it as the last `planner_counters` slot.
    pub anticipation_hits: u64,
    /// Distinct explored Q-states (ATP/EATP only).
    pub q_states: usize,
}

/// The error type of [`Planner::plan`] and [`Planner::commit_legs`]. No
/// planner fails either call, so it has no values; the `Result`s stay
/// because the frozen `benchmark/` package forwards them
/// (`docs/adr/ADR-024-no-fault-injection.md`).
pub type PlannerError = std::convert::Infallible;

/// The argument type of [`Planner::inject_fault`]. There are no faults, so
/// it has no values; the method stays because the frozen `benchmark/`
/// package forwards it (`docs/adr/ADR-024-no-fault-injection.md`).
pub type InjectedFault = std::convert::Infallible;

/// One engine-to-planner world-change notification, dispatched through
/// [`Planner::on_event`] — the one seam the engine notifies planners
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerEvent<'a> {
    /// A disruption event mutated the world at tick `t`. Planners must
    /// bring every grid-derived structure in line with the mutated floor:
    /// for cell blockades / reopenings that means the working grid copy and
    /// the distance oracle's station fields (`PlannerBase` handles both;
    /// the K-nearest-rack index is static). Rack, robot and
    /// station events carry no planner-side structure — the engine enforces
    /// their scheduling consequences through the world view (broken robots
    /// leave the idle pool, removed racks and closed stations' racks leave
    /// the selectable pool) and through [`PlannerEvent::PathCancelled`].
    Disruption {
        /// The applied event.
        event: &'a DisruptionEvent,
        /// The tick it landed.
        t: Tick,
    },
    /// The engine cancelled `robot`'s active path at tick `t`: the robot
    /// broke down or its route was invalidated, and it now stands still at
    /// `pos`. Release every outstanding timed reservation of the robot and
    /// park it at `pos` from `t` onward, so surviving robots plan around the
    /// obstacle instead of through the robot's abandoned route.
    PathCancelled {
        /// The robot whose leg was cancelled.
        robot: RobotId,
        /// Where it froze.
        pos: GridPos,
        /// When.
        t: Tick,
    },
    /// The engine resumed a run from a snapshot; its next step executes
    /// tick `t`. A snapshot carries no reservation table: it is a function
    /// of the committed legs, which are the engine's active `paths`, so the
    /// planner rebuilds it from them and from where the `robots` stand,
    /// each robot holding its [`resumed_reservations`]
    /// (`docs/adr/ADR-033-derived-reservations.md`). Sent once, after
    /// [`Planner::import_snapshot`] and [`Planner::check_resume_tick`].
    Resumed {
        /// The resumed tick.
        t: Tick,
        /// The fleet as restored.
        robots: &'a [Robot],
        /// Each robot's active path, indexed like `robots`.
        paths: &'a [Option<Path>],
    },
}

/// What `robot` holds in a reservation table rebuilt at resumed tick `t`
/// ([`PlannerEvent::Resumed`]): the steps of its active `path` from `t` on,
/// when the path ends at or after `t`, and the cell it parks on with the
/// tick the park starts. A leg that parks at its end (`ToRack`,
/// `Returning`) parks on its last cell after the end, and a `ToStation`
/// leg docks instead; any other robot parks where it stands from `t`,
/// unless it is docked. `path` must hold a cell.
pub fn resumed_reservations(
    t: Tick,
    robot: &Robot,
    path: Option<&Path>,
) -> (Option<Path>, Option<(GridPos, Tick)>) {
    match path {
        Some(path) if path.end() >= t => {
            let past = t.saturating_sub(path.start);
            let ahead = Path {
                start: path.start + past,
                cells: path.cells[past as usize..].to_vec(),
            };
            let parks = !matches!(robot.phase, RobotPhase::ToStation { .. });
            (Some(ahead), parks.then(|| (path.last(), path.end() + 1)))
        }
        _ if robot.phase.is_docked() => (None, None),
        _ => (None, Some((robot.pos, t))),
    }
}

/// A task planner for the TPRW problem.
pub trait Planner {
    /// Paper-facing name (`"NTP"`, `"LEF"`, `"ILP"`, `"ATP"`, `"EATP"`).
    fn name(&self) -> &'static str;

    /// Bind to a problem instance: builds the reservation structure, the
    /// distance oracle and (planner-specific) indexes; parks the initial
    /// robot fleet.
    fn init(&mut self, instance: &Instance);

    /// The per-timestamp planning step: select racks, match idle robots,
    /// plan and reserve conflict-free pickup paths. It cannot fail
    /// ([`PlannerError`] has no values).
    fn plan(&mut self, world: &WorldView<'_>) -> Result<Vec<AssignmentPlan>, PlannerError>;

    /// Plan and reserve a delivery (`park = false`; the robot docks into the
    /// station bay on arrival) or return (`park = true`) leg starting at
    /// `start` tick. `None` means "blocked — retry at a later tick".
    fn plan_leg(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park: bool,
    ) -> Option<Path>;

    /// The *query* phase of batched leg planning: refills `tentative` 1:1
    /// with deferred slots for a later [`Planner::commit_legs`] on the same
    /// `requests`. Kept for source compatibility with wrappers that forward
    /// it by name; nothing calls it, and no planner overrides it
    /// (`docs/adr/ADR-005-serial-leg-planning.md`).
    fn query_legs(
        &mut self,
        requests: &[LegRequest],
        _start: Tick,
        tentative: &mut Vec<TentativeLeg>,
    ) {
        tentative.clear();
        tentative.resize_with(requests.len(), TentativeLeg::default);
    }

    /// The *commit* phase of batched leg planning: walk `requests` strictly
    /// in order, planning and reserving each one. `results` is cleared and
    /// refilled 1:1 with `requests` (`Some(path)` = planned and reserved,
    /// `None` = blocked or group-skipped; the caller retries those on a
    /// later tick), honouring each request's mutual-exclusion
    /// [`LegRequest::group`]. `tentative` carries no information.
    ///
    /// Batching is a *performance* contract only: `commit_legs` must
    /// produce exactly the paths the per-leg [`Planner::plan_leg`] loop
    /// would. It cannot fail ([`PlannerError`] has no values).
    fn commit_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        _tentative: &mut Vec<TentativeLeg>,
        results: &mut Vec<Option<Path>>,
    ) -> Result<(), PlannerError> {
        results.clear();
        let mut done_groups: Vec<u32> = Vec::new();
        for req in requests {
            if let Some(g) = req.group {
                if done_groups.contains(&g) {
                    results.push(None);
                    continue;
                }
            }
            let path = self.plan_leg(req.robot, req.from, req.to, start, req.park);
            if path.is_some() {
                if let Some(g) = req.group {
                    done_groups.push(g);
                }
            }
            results.push(path);
        }
        Ok(())
    }

    /// A no-op that nothing calls: leg planning is serial. Kept, like
    /// [`Planner::query_legs`], for source compatibility with wrappers that
    /// forward it.
    fn set_parallel_workers(&mut self, _workers: usize) {}

    /// Notification that `robot` docked at a station and left the grid.
    fn on_dock(&mut self, robot: RobotId);

    /// The notification entry point: every engine-to-planner world-change
    /// notification arrives as one [`PlannerEvent`], giving the engine a
    /// single dispatch seam (see `docs/event-driven-ticking.md`). The
    /// default ignores every event (stateless planners).
    fn on_event(&mut self, _event: PlannerEvent<'_>) {}

    /// Uncallable: [`InjectedFault`] has no values. Kept, like
    /// [`Planner::query_legs`], for wrappers that forward it.
    fn inject_fault(&mut self, fault: &InjectedFault) -> bool {
        match *fault {}
    }

    /// End-of-tick maintenance: reservation garbage collection (the paper's
    /// `update` operation). Called every tick; each reservation structure
    /// collects on its own cadence.
    fn housekeeping(&mut self, t: Tick);

    /// Current cumulative statistics.
    fn stats(&self) -> PlannerStats;

    /// Export the planner's *canonical* internal state for a checkpoint:
    /// everything that cannot be reconstructed from the instance, the
    /// applied-disruption journal and the engine's state (learned Q-values,
    /// cumulative counters). Derived structures — the reservation table,
    /// search scratch, distance-oracle fields, KNN indexes — are *not*
    /// exported: the restore protocol rebuilds them by calling
    /// [`Planner::init`], replaying the journal as
    /// [`PlannerEvent::Disruption`]s, importing this value and sending
    /// [`PlannerEvent::Resumed`] (see `docs/snapshot-format.md`). The
    /// default (for stateless planners) is [`serde::Value::Null`].
    fn export_snapshot(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restore the canonical state produced by [`Planner::export_snapshot`].
    /// Called after `init` + journal replay and before
    /// [`PlannerEvent::Resumed`], which together must leave the planner
    /// answering every later call as the one that exported would.
    /// Malformed input yields a typed error, never a panic.
    fn import_snapshot(&mut self, _state: &serde::Value) -> Result<(), serde::Error> {
        Ok(())
    }

    /// Refuse a resume at tick `t` (the tick the engine's next step
    /// executes), whose active paths run to tick `last_end` (`t` when none
    /// runs past it), that this planner could not follow. Called right
    /// after [`Planner::import_snapshot`] on resume, before
    /// [`PlannerEvent::Resumed`]; a typed error, never a panic.
    fn check_resume_tick(&self, _t: Tick, _last_end: Tick) -> Result<(), serde::Error> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zeroed() {
        let s = PlannerStats::default();
        assert_eq!(s.selection_ns, 0);
        assert_eq!(s.paths_planned, 0);
        assert_eq!(s.memory_bytes, 0);
    }

    #[test]
    fn stats_missing_failed_expansions_are_a_decode_error() {
        let stats = PlannerStats {
            expansions: 7,
            failed_expansions: 9,
            ..PlannerStats::default()
        };
        let serde::Value::Object(mut fields) = stats.serialize() else {
            panic!("stats serialize as an object");
        };
        let full = serde::Value::Object(fields.clone());
        assert_eq!(PlannerStats::deserialize(&full).unwrap(), stats);
        // Stats written before the counter existed no longer read.
        fields.retain(|(k, _)| k != "failed_expansions");
        let old = PlannerStats::deserialize(&serde::Value::Object(fields));
        assert_eq!(
            old,
            Err(serde::Error::msg("missing field failed_expansions"))
        );
    }

    /// Mock planner whose `plan_leg` succeeds except on a poisoned cell —
    /// exercises the default serial `commit_legs` implementation.
    struct MockPlanner {
        blocked: GridPos,
        calls: usize,
    }

    impl Planner for MockPlanner {
        fn name(&self) -> &'static str {
            "MOCK"
        }
        fn init(&mut self, _instance: &Instance) {}
        fn plan(
            &mut self,
            _world: &crate::world::WorldView<'_>,
        ) -> Result<Vec<AssignmentPlan>, PlannerError> {
            Ok(Vec::new())
        }
        fn plan_leg(
            &mut self,
            _robot: RobotId,
            from: GridPos,
            _to: GridPos,
            start: Tick,
            _park: bool,
        ) -> Option<Path> {
            self.calls += 1;
            (from != self.blocked).then(|| Path::stationary(from, start))
        }
        fn on_dock(&mut self, _robot: RobotId) {}
        fn housekeeping(&mut self, _t: Tick) {}
        fn stats(&self) -> PlannerStats {
            PlannerStats::default()
        }
    }

    fn req(robot: usize, x: u16, group: Option<u32>) -> LegRequest {
        LegRequest {
            robot: RobotId::new(robot),
            from: GridPos::new(x, 0),
            to: GridPos::new(x, 5),
            park: true,
            group,
        }
    }

    #[test]
    fn default_plan_legs_matches_serial_order() {
        let mut p = MockPlanner {
            blocked: GridPos::new(9, 0),
            calls: 0,
        };
        let requests = vec![req(0, 1, None), req(1, 9, None), req(2, 2, None)];
        let mut results = Vec::new();
        p.commit_legs(&requests, 7, &mut Vec::new(), &mut results)
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_some() && results[2].is_some());
        assert!(results[1].is_none(), "blocked leg fails");
        assert_eq!(p.calls, 3, "every ungrouped request is attempted");
        assert_eq!(results[0].as_ref().unwrap().start, 7);
    }

    #[test]
    fn default_plan_legs_group_exclusion() {
        let mut p = MockPlanner {
            blocked: GridPos::new(9, 0),
            calls: 0,
        };
        // Group 4: first attempt fails -> second is still tried; group 2:
        // first succeeds -> second is skipped without an attempt.
        let requests = vec![
            req(0, 9, Some(4)),
            req(1, 1, Some(4)),
            req(2, 2, Some(2)),
            req(3, 3, Some(2)),
        ];
        let mut results = Vec::new();
        p.commit_legs(&requests, 0, &mut Vec::new(), &mut results)
            .unwrap();
        assert!(results[0].is_none());
        assert!(results[1].is_some(), "group retries after a failure");
        assert!(results[2].is_some());
        assert!(results[3].is_none(), "group already satisfied");
        assert_eq!(p.calls, 3, "the satisfied group is not re-attempted");
    }
}
