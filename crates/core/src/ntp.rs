//! Naive Task Planning (Algorithm 1) — the extension of the state-of-the-art
//! online MAPF algorithm \[7\] to TPRW.
//!
//! *"Instead of planning paths for robots with the least pickup time, we plan
//! paths for robots associated with the most slack picker"* (Sec. III-A):
//! pickers are sorted by ascending finish time `f_p` (Eq. 3), every rack
//! with pending items is dispatched eagerly to the closest idle robot, and
//! paths come from spatiotemporal A* on the full spatiotemporal graph.

use crate::assignment::match_and_plan;
use crate::base::PlannerBase;
use crate::config::EatpConfig;
use crate::planner::AssignmentPlan;
use crate::shell::{Shell, Strategy};
use crate::world::WorldView;
use tprw_pathfinding::SpatioTemporalGraph;
use tprw_warehouse::RackId;

/// Algorithm 1: greedy most-slack-picker-first dispatch.
pub type NaiveTaskPlanner = Shell<MostSlackFirst>;

/// The [`NaiveTaskPlanner`] strategy: stateless.
pub struct MostSlackFirst;

/// The shared greedy selection: racks grouped by picker, pickers in
/// ascending `f_p` order (most slack first), capped at `cap` racks. Also the
/// δ-bootstrap step of ATP/EATP (Sec. V-B "the greedy method adapts the most
/// slack picker first strategy").
pub fn most_slack_picker_selection(world: &WorldView<'_>, cap: usize) -> Vec<RackId> {
    let mut by_picker: Vec<Vec<RackId>> = vec![Vec::new(); world.pickers.len()];
    for &rid in world.selectable_racks {
        by_picker[world.rack(rid).picker.index()].push(rid);
    }
    let mut picker_order: Vec<usize> = (0..world.pickers.len())
        .filter(|&i| !by_picker[i].is_empty())
        .collect();
    picker_order.sort_by_key(|&i| (world.pickers[i].finish_time(), i));

    let mut selected = Vec::with_capacity(cap.min(world.selectable_racks.len()));
    'outer: for i in picker_order {
        for &rid in &by_picker[i] {
            selected.push(rid);
            if selected.len() >= cap {
                break 'outer;
            }
        }
    }
    selected
}

impl Strategy for MostSlackFirst {
    type Resv = SpatioTemporalGraph;
    const NAME: &'static str = "NTP";

    fn new(_config: &EatpConfig) -> Self {
        Self
    }

    fn select(
        &mut self,
        base: &mut PlannerBase<SpatioTemporalGraph>,
        world: &WorldView<'_>,
    ) -> Vec<AssignmentPlan> {
        // Over-select 2× the idle fleet so failed path queries can fall
        // through to the next candidate rack.
        let cap = world.idle_robots.len() * 2;
        let selected = base.timed_selection(|_| most_slack_picker_selection(world, cap));
        match_and_plan(base, world, selected.into_iter().map(|r| (r, None)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use tprw_warehouse::{
        Instance, ItemId, LayoutConfig, PickerId, QueueEntry, RobotId, ScenarioSpec, WorkloadConfig,
    };

    fn instance() -> Instance {
        ScenarioSpec {
            name: "ntp-test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 12,
            n_robots: 4,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(30, 1.0),
            disruptions: None,
            seed: 3,
        }
        .build()
        .unwrap()
    }

    fn add_pending(inst: &mut Instance, rack_idx: usize, work: u64) {
        inst.racks[rack_idx].pending.push(ItemId::new(rack_idx));
        inst.racks[rack_idx].pending_time = work;
    }

    #[test]
    fn selection_prefers_slack_picker() {
        let mut inst = instance();
        // Find one rack per picker.
        let rack_p0 = inst
            .racks
            .iter()
            .position(|r| r.picker == PickerId::new(0))
            .unwrap();
        let rack_p1 = inst
            .racks
            .iter()
            .position(|r| r.picker == PickerId::new(1))
            .unwrap();
        add_pending(&mut inst, rack_p0, 30);
        add_pending(&mut inst, rack_p1, 30);
        // Picker 0 is heavily loaded.
        inst.pickers[0].enqueue(QueueEntry {
            rack: RackId::new(99),
            robot: RobotId::new(99),
            work: 500,
        });
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[rack_p0].id, inst.racks[rack_p1].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        let selected = most_slack_picker_selection(&world, 10);
        assert_eq!(
            selected[0], inst.racks[rack_p1].id,
            "slack picker 1 must come first"
        );
    }

    #[test]
    fn plan_produces_assignments() {
        let mut inst = instance();
        add_pending(&mut inst, 0, 30);
        add_pending(&mut inst, 1, 25);
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id, inst.racks[1].id];
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        let plans = planner.plan(&world).unwrap();
        assert_eq!(plans.len(), 2);
        for p in &plans {
            assert_eq!(p.path.last(), inst.racks[p.rack.index()].home);
            assert!(p.path.is_connected());
        }
        let stats = planner.stats();
        assert!(stats.selection_ns > 0);
        assert!(stats.planning_ns > 0);
        assert_eq!(stats.paths_planned, 2);
        assert!(stats.memory_bytes > 0);
    }

    #[test]
    fn empty_world_returns_no_plans() {
        let inst = instance();
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &[],
            selectable_racks: &[],
            live_arrivals: &[],
        };
        assert!(planner.plan(&world).unwrap().is_empty());
    }

    #[test]
    fn cap_limits_selection() {
        let mut inst = instance();
        for i in 0..10 {
            add_pending(&mut inst, i, 20);
        }
        let idle: Vec<RobotId> = vec![inst.robots[0].id];
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
        assert_eq!(most_slack_picker_selection(&world, 3).len(), 3);
    }
}
