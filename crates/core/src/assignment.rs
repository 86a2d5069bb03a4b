//! Rack→robot matching shared by every planner.
//!
//! Given an ordered list of selected racks, match each to an idle robot
//! (closest-first, as in Alg. 1 line 6 / Alg. 2 line 23) and plan the pickup
//! leg. Two practical rules keep the floor live:
//!
//! * a rack whose home cell is occupied by a *parked idle* robot can only be
//!   served by that robot (anyone else could never park there to pick up);
//! * a rack whose home is occupied by a busy robot is skipped this tick.

use crate::base::{PlannerBase, ReservationBackend};
use crate::planner::AssignmentPlan;
use crate::world::WorldView;
use tprw_warehouse::{RackId, RobotId};

/// Match `selected` racks (in priority order) to idle robots and plan
/// pickup paths. Consumes at most `world.idle_robots.len()` robots; racks
/// whose path planning fails are skipped (the engine retries next tick).
pub fn match_and_plan<R: ReservationBackend>(
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    selected: &[RackId],
) -> Vec<AssignmentPlan> {
    let mut used = vec![false; world.robots.len()];
    let mut plans = Vec::new();
    for &rack_id in selected {
        if plans.len() >= world.idle_robots.len() {
            break;
        }
        let rack = world.rack(rack_id);
        let Some(robot_id) = pick_robot(base, world, rack_id, &used) else {
            continue;
        };
        let robot = world.robot(robot_id);
        if let Some(path) = base.plan_and_reserve(robot_id, robot.pos, rack.home, world.t, true) {
            used[robot_id.index()] = true;
            plans.push(AssignmentPlan {
                robot: robot_id,
                rack: rack_id,
                path,
            });
        }
    }
    plans
}

/// The robot that should fetch `rack`: the parked-on-home robot if any,
/// otherwise the closest unused idle robot.
pub fn pick_robot<R: ReservationBackend>(
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    rack: RackId,
    used: &[bool],
) -> Option<RobotId> {
    let home = world.rack(rack).home;
    // Rule 1: a robot parked on the rack home must take the job itself.
    if let Some((parked, _)) = base.resv.parked_at(home) {
        let is_idle = world.idle_robots.contains(&parked);
        return (is_idle && !used[parked.index()]).then_some(parked);
    }
    // Rule 2: closest unused idle robot.
    world
        .idle_robots
        .iter()
        .copied()
        .filter(|r| !used[r.index()])
        .min_by_key(|&r| (world.robot(r).pos.manhattan(home), r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EatpConfig;
    use tprw_pathfinding::{ConflictDetectionTable, ReservationProbe};
    use tprw_warehouse::{Instance, ItemId, LayoutConfig, ScenarioSpec, WorkloadConfig};

    fn instance() -> Instance {
        ScenarioSpec {
            name: "assign-test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 15,
            n_robots: 6,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(30, 1.0),
            disruptions: None,
            seed: 11,
        }
        .build()
        .unwrap()
    }

    fn mark_pending(inst: &mut Instance, rack_idx: usize) {
        inst.racks[rack_idx].pending.push(ItemId::new(0));
        inst.racks[rack_idx].pending_time = 30;
    }

    #[test]
    fn assigns_closest_robot() {
        let mut inst = instance();
        mark_pending(&mut inst, 0);
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            backlog_depth: 0,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, &selectable);
        assert_eq!(plans.len(), 1);
        let assigned = plans[0].robot;
        let d_assigned = inst.robots[assigned.index()]
            .pos
            .manhattan(inst.racks[0].home);
        for r in &inst.robots {
            assert!(d_assigned <= r.pos.manhattan(inst.racks[0].home));
        }
        assert_eq!(plans[0].path.last(), inst.racks[0].home);
    }

    #[test]
    fn parked_robot_on_home_gets_the_job() {
        let mut inst = instance();
        mark_pending(&mut inst, 0);
        // Move robot 3 onto the rack home (as if it had just returned it).
        let home = inst.racks[0].home;
        inst.robots[3].pos = home;
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            backlog_depth: 0,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, &selectable);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].robot, inst.robots[3].id);
        assert_eq!(plans[0].path.len(), 1, "already on site");
    }

    #[test]
    fn busy_robot_on_home_skips_rack() {
        let mut inst = instance();
        mark_pending(&mut inst, 0);
        let home = inst.racks[0].home;
        inst.robots[3].pos = home;
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        // Robot 3 is NOT idle (busy elsewhere but still parked pre-departure).
        let idle: Vec<RobotId> = inst
            .robots
            .iter()
            .filter(|r| r.id.index() != 3)
            .map(|r| r.id)
            .collect();
        let selectable = vec![inst.racks[0].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            backlog_depth: 0,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, &selectable);
        assert!(plans.is_empty(), "home blocked by busy robot: defer");
    }

    #[test]
    fn no_more_assignments_than_idle_robots() {
        let mut inst = instance();
        for i in 0..10 {
            mark_pending(&mut inst, i);
        }
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let idle: Vec<RobotId> = inst.robots.iter().take(3).map(|r| r.id).collect();
        let selectable: Vec<RackId> = (0..10).map(RackId::new).collect();
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            backlog_depth: 0,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, &selectable);
        assert!(plans.len() <= 3);
        // All robots distinct.
        let mut robots: Vec<_> = plans.iter().map(|p| p.robot).collect();
        robots.sort();
        robots.dedup();
        assert_eq!(robots.len(), plans.len());
    }

    #[test]
    fn reservations_are_committed() {
        let mut inst = instance();
        mark_pending(&mut inst, 0);
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default(), false);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            backlog_depth: 0,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, &selectable);
        let path = &plans[0].path;
        if path.len() > 1 {
            assert_eq!(
                base.resv.occupant(path.cells[1], path.start + 1),
                Some(plans[0].robot)
            );
        }
        assert_eq!(
            base.resv.parked_at(path.last()),
            Some((plans[0].robot, path.end() + 1))
        );
    }
}
