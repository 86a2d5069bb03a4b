//! Rack→robot matching shared by every planner.
//!
//! Given an ordered list of picks — a rack, and the robot selection already
//! paired with it, if any — match each rack to an idle robot
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

/// Match `picks` (in priority order) to idle robots and plan pickup paths.
/// A pick's robot, when selection paired one, serves the rack unless
/// another robot is parked on the rack's home or it is already used; a
/// pick without one goes to [`pick_robot`]. Consumes at most
/// `world.idle_robots.len()` robots; picks whose path planning fails are
/// skipped (the engine retries next tick). The used-robot bitmap is the
/// base's selection scratch, so a tick allocates only the plans.
pub fn match_and_plan<R: ReservationBackend>(
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    picks: impl IntoIterator<Item = (RackId, Option<RobotId>)>,
) -> Vec<AssignmentPlan> {
    let mut used = std::mem::take(&mut base.sel.robot_flags);
    used.clear();
    used.resize(world.robots.len(), false);
    let mut plans = Vec::new();
    for (rack, hint) in picks {
        if plans.len() >= world.idle_robots.len() {
            break;
        }
        let home = world.rack(rack).home;
        let robot = match (hint, base.resv.parked_at(home)) {
            (Some(robot), Some((parked, _))) if parked != robot => None,
            (Some(robot), _) => Some(robot),
            (None, _) => pick_robot(base, world, rack, &used),
        };
        let Some(robot) = robot.filter(|r| !used[r.index()]) else {
            continue;
        };
        let from = world.robot(robot).pos;
        if let Some(path) = base.plan_and_reserve(robot, from, home, world.t, true) {
            used[robot.index()] = true;
            plans.push(AssignmentPlan { robot, rack, path });
        }
    }
    base.sel.robot_flags = used;
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
            PlannerBase::new(&inst, EatpConfig::default());
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, selectable.iter().map(|&r| (r, None)));
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
            PlannerBase::new(&inst, EatpConfig::default());
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, selectable.iter().map(|&r| (r, None)));
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].robot, inst.robots[3].id);
        assert_eq!(plans[0].path.len(), 1, "already on site");
    }

    /// A pick's own robot serves its rack, even when another robot is
    /// closer, unless another robot is parked on the rack's home or the
    /// robot already took an earlier pick.
    #[test]
    fn hinted_picks_keep_their_robot() {
        let mut inst = instance();
        for i in 0..3 {
            mark_pending(&mut inst, i);
        }
        inst.robots[3].pos = inst.racks[0].home;
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default());
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable: Vec<RackId> = (0..3).map(RackId::new).collect();
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        let far = (inst.robots.iter())
            .filter(|r| r.id.index() != 3)
            .max_by_key(|r| (r.pos.manhattan(inst.racks[1].home), r.id))
            .map(|r| r.id)
            .unwrap();
        let other = idle.iter().copied().find(|&r| r != far && r.index() != 3);
        let picks = [
            (RackId::new(1), Some(far)),
            (RackId::new(0), other),
            (RackId::new(2), Some(far)),
        ];
        let plans = match_and_plan(&mut base, &world, picks);
        let pairs: Vec<_> = plans.iter().map(|p| (p.rack, p.robot)).collect();
        assert_eq!(pairs, [(RackId::new(1), far)]);
    }

    #[test]
    fn busy_robot_on_home_skips_rack() {
        let mut inst = instance();
        mark_pending(&mut inst, 0);
        let home = inst.racks[0].home;
        inst.robots[3].pos = home;
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default());
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
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, selectable.iter().map(|&r| (r, None)));
        assert!(plans.is_empty(), "home blocked by busy robot: defer");
    }

    #[test]
    fn no_more_assignments_than_idle_robots() {
        let mut inst = instance();
        for i in 0..10 {
            mark_pending(&mut inst, i);
        }
        let mut base: PlannerBase<ConflictDetectionTable> =
            PlannerBase::new(&inst, EatpConfig::default());
        let idle: Vec<RobotId> = inst.robots.iter().take(3).map(|r| r.id).collect();
        let selectable: Vec<RackId> = (0..10).map(RackId::new).collect();
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, selectable.iter().map(|&r| (r, None)));
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
            PlannerBase::new(&inst, EatpConfig::default());
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        let plans = match_and_plan(&mut base, &world, selectable.iter().map(|&r| (r, None)));
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
