//! Integer Linear Programming planning (baseline \[12\], extended with picker
//! status as described in Sec. VII-A).
//!
//! Every timestamp the planner builds a 0/1 model over candidate
//! (rack, robot) pairs:
//!
//! * objective — minimize Σ (cost − B)·x, where `cost` is the end-to-end
//!   delay estimate of Eq. (2) for the pair and `B` a service bonus larger
//!   than any cost (so serving racks is always preferred when feasible).
//!   The delivery term is the distance oracle's home-to-station distance;
//!   the pickup term is the Manhattan distance from the robot to the rack
//!   home, the rule `assignment::pick_robot` ranks robots by;
//! * Σ_a x_{r,a} ≤ 1 per rack, Σ_r x_{r,a} ≤ 1 per robot;
//! * **picker status**: Σ_{r: p_r = p} x_{r,·} ≤ capacity per picker, the
//!   extension that folds queue state into the model.
//!
//! The model is solved per *block* of at most [`BLOCK`] racks × robots by
//! branch-and-bound with a Hungarian warm start; blocks repeat until idle
//! robots run out. This keeps the baseline functional on large floors while
//! faithfully reproducing its cost profile — the paper reports ILP is too
//! slow to finish on Real-Large (Table III footnote), which the per-tick
//! B&B node counts make visible in the STC metric.

use crate::base::{BaseSnapshot, PlannerBase};
use crate::config::EatpConfig;
use crate::makespan::queuing_delay;
use crate::ntp::most_slack_picker_selection;
use crate::planner::AssignmentPlan;
use crate::shell::{Shell, Strategy};
use crate::world::WorldView;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::{ReservationProbe, SpatioTemporalGraph};
use tprw_solver::{assign_min_cost, solve_binary_min, IlpLimits, IlpProblem};
use tprw_warehouse::{RackId, RobotId};

/// Maximum racks (and robots) per ILP block.
pub const BLOCK: usize = 20;

/// Cost marker for forbidden pairs (rack home parked on by another robot).
const FORBIDDEN: f64 = 1e9;

/// Baseline: per-timestamp 0/1 ILP selection.
pub type IlpPlanner = Shell<BlockwiseIlp>;

/// The [`IlpPlanner`] strategy.
pub struct BlockwiseIlp {
    /// Cumulative branch-and-bound nodes (diagnostics; canonical).
    pub total_nodes: u64,
}

/// Solve one block, returning chosen (rack, robot) pairs.
fn solve_block(
    base: &mut PlannerBase<SpatioTemporalGraph>,
    world: &WorldView<'_>,
    racks: &[RackId],
    robots: &[RobotId],
) -> (Vec<(RackId, RobotId)>, u64) {
    let nr = racks.len();
    let na = robots.len();
    if nr == 0 || na == 0 {
        return (Vec::new(), 0);
    }
    let picker_capacity = base.config.ilp_picker_capacity.max(1);
    let max_nodes = base.config.ilp_max_nodes;

    // Cost matrix per Eq. (2): pickup + delivery + queuing + processing
    // + return.
    let mut costs = vec![vec![0f64; na]; nr];
    let mut int_costs = vec![vec![0i64; na]; nr];
    for (i, &rid) in racks.iter().enumerate() {
        let rack = world.rack(rid);
        let picker = world.picker_of(rack);
        let delivery = base.delivery(rack);
        let fp = picker.finish_time();
        // Parked-on-home rule: only the parked idle robot may serve.
        let parked = base.resv.parked_at(rack.home).map(|(r, _)| r);
        for (j, &aid) in robots.iter().enumerate() {
            if let Some(p) = parked {
                if p != aid {
                    costs[i][j] = FORBIDDEN;
                    int_costs[i][j] = FORBIDDEN as i64;
                    continue;
                }
            }
            let pickup = world.robot(aid).pos.manhattan(rack.home);
            let travel = pickup + delivery;
            let c = (travel + queuing_delay(fp, travel) + rack.pending_time + delivery) as f64;
            costs[i][j] = c;
            int_costs[i][j] = c as i64;
        }
    }

    // Service bonus strictly above any real cost.
    let max_cost = costs
        .iter()
        .flatten()
        .copied()
        .filter(|&c| c < FORBIDDEN)
        .fold(0.0f64, f64::max);
    let bonus = max_cost + 1.0;

    // Hungarian warm start (ignores picker capacity; repaired below).
    let warm = assign_min_cost(&int_costs);
    let mut picker_load = vec![0usize; world.pickers.len()];
    let mut incumbent = vec![false; nr * na];
    for (i, col) in warm.row_to_col.iter().enumerate() {
        if let Some(j) = *col {
            if costs[i][j] >= FORBIDDEN {
                continue;
            }
            let p = world.rack(racks[i]).picker.index();
            if picker_load[p] < picker_capacity {
                picker_load[p] += 1;
                incumbent[i * na + j] = true;
            }
        }
    }

    // Build the 0/1 model.
    let mut problem = IlpProblem {
        n: nr * na,
        costs: Vec::with_capacity(nr * na),
        constraints: Vec::new(),
    };
    for row in costs.iter().take(nr) {
        for &c in row.iter().take(na) {
            problem
                .costs
                .push(if c >= FORBIDDEN { FORBIDDEN } else { c - bonus });
        }
    }
    for i in 0..nr {
        problem
            .constraints
            .push(((0..na).map(|j| (i * na + j, 1.0)).collect(), 1.0));
    }
    for j in 0..na {
        problem
            .constraints
            .push(((0..nr).map(|i| (i * na + j, 1.0)).collect(), 1.0));
    }
    // Picker capacity rows.
    for p in 0..world.pickers.len() {
        let vars: Vec<(usize, f64)> = racks
            .iter()
            .enumerate()
            .filter(|(_, &rid)| world.rack(rid).picker.index() == p)
            .flat_map(|(i, _)| (0..na).map(move |j| (i * na + j, 1.0)))
            .collect();
        if !vars.is_empty() {
            problem.constraints.push((vars, picker_capacity as f64));
        }
    }

    let solution = solve_binary_min(&problem, IlpLimits { max_nodes }, Some(incumbent));
    let Some(solution) = solution else {
        return (Vec::new(), 0);
    };
    let mut pairs = Vec::new();
    for i in 0..nr {
        for j in 0..na {
            if solution.x[i * na + j] && costs[i][j] < FORBIDDEN {
                pairs.push((racks[i], robots[j]));
            }
        }
    }
    (pairs, solution.nodes as u64)
}

impl Strategy for BlockwiseIlp {
    type Resv = SpatioTemporalGraph;
    const NAME: &'static str = "ILP";

    fn new(_config: &EatpConfig) -> Self {
        Self { total_nodes: 0 }
    }

    fn select(
        &mut self,
        base: &mut PlannerBase<SpatioTemporalGraph>,
        world: &WorldView<'_>,
    ) -> Vec<AssignmentPlan> {
        // Selection: blockwise exact 0/1 solves over the greedy priority
        // order, consuming idle robots until none remain.
        let pairs: Vec<(RackId, RobotId)> = base.timed_selection(|base| {
            let priority = most_slack_picker_selection(world, world.idle_robots.len() * 2);
            let mut remaining_robots: Vec<RobotId> = world.idle_robots.to_vec();
            let mut all_pairs = Vec::new();
            for chunk in priority.chunks(BLOCK) {
                if remaining_robots.is_empty() {
                    break;
                }
                // Closest robots to the chunk's first rack home.
                let anchor = world.rack(chunk[0]).home;
                remaining_robots.sort_by_key(|&r| (world.robot(r).pos.manhattan(anchor), r));
                let take = remaining_robots.len().min(BLOCK);
                let block_robots: Vec<RobotId> = remaining_robots[..take].to_vec();
                let (pairs, nodes) = solve_block(base, world, chunk, &block_robots);
                self.total_nodes += nodes;
                for &(rack, robot) in &pairs {
                    remaining_robots.retain(|&r| r != robot);
                    all_pairs.push((rack, robot));
                }
            }
            all_pairs
        });

        // Planning: commit pickup legs for the chosen pairs.
        let mut plans = Vec::new();
        for (rack, robot) in pairs {
            let from = world.robot(robot).pos;
            let home = world.rack(rack).home;
            if let Some(path) = base.plan_and_reserve(robot, from, home, world.t, true) {
                plans.push(AssignmentPlan { robot, rack, path });
            }
        }
        plans
    }

    fn export(&self, base: BaseSnapshot) -> serde::Value {
        IlpSnapshot {
            base,
            total_nodes: self.total_nodes,
        }
        .serialize()
    }

    fn import(&mut self, state: &serde::Value) -> Result<BaseSnapshot, serde::Error> {
        let snap = IlpSnapshot::deserialize(state)?;
        self.total_nodes = snap.total_nodes;
        Ok(snap.base)
    }
}

/// Canonical ILP state: the shared base slice plus the cumulative
/// branch-and-bound node counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct IlpSnapshot {
    base: BaseSnapshot,
    total_nodes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use tprw_warehouse::{Instance, ItemId, LayoutConfig, ScenarioSpec, Tick, WorkloadConfig};

    fn instance() -> Instance {
        ScenarioSpec {
            name: "ilp-test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 10,
            n_robots: 4,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(30, 1.0),
            disruptions: None,
            seed: 17,
        }
        .build()
        .unwrap()
    }

    fn add_pending(inst: &mut Instance, rack_idx: usize, work: u64) {
        inst.racks[rack_idx].pending.push(ItemId::new(rack_idx));
        inst.racks[rack_idx].pending_time = work;
    }

    fn world_of<'a>(
        inst: &'a Instance,
        t: Tick,
        idle: &'a [RobotId],
        selectable: &'a [RackId],
    ) -> WorldView<'a> {
        WorldView {
            t,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: idle,
            selectable_racks: selectable,
            backlog_depth: 0,
            live_arrivals: &[],
        }
    }

    #[test]
    fn assigns_distinct_robots() {
        let mut inst = instance();
        for i in 0..4 {
            add_pending(&mut inst, i, 30);
        }
        let mut planner = IlpPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable: Vec<RackId> = (0..4).map(RackId::new).collect();
        let world = world_of(&inst, 0, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert!(!plans.is_empty());
        let mut robots: Vec<_> = plans.iter().map(|p| p.robot).collect();
        robots.sort();
        robots.dedup();
        assert_eq!(robots.len(), plans.len(), "one rack per robot");
        assert!(planner.strategy.total_nodes > 0, "B&B actually ran");
    }

    #[test]
    fn picker_capacity_limits_admissions() {
        let mut inst = instance();
        // All racks of picker 0 pending.
        let p0_racks: Vec<usize> = inst
            .racks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.picker.index() == 0)
            .map(|(i, _)| i)
            .collect();
        for &i in &p0_racks {
            add_pending(&mut inst, i, 30);
        }
        let config = EatpConfig {
            ilp_picker_capacity: 1,
            ..EatpConfig::default()
        };
        let mut planner = IlpPlanner::new(config);
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable: Vec<RackId> = p0_racks.iter().map(|&i| inst.racks[i].id).collect();
        let world = world_of(&inst, 0, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert!(
            plans.len() <= 1,
            "capacity 1 admits at most one rack for picker 0, got {}",
            plans.len()
        );
    }

    #[test]
    fn no_work_no_plans() {
        let inst = instance();
        let mut planner = IlpPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let world = world_of(&inst, 0, &[], &[]);
        assert!(planner.plan(&world).unwrap().is_empty());
    }

    #[test]
    fn prefers_cheaper_pairings() {
        let mut inst = instance();
        add_pending(&mut inst, 0, 30);
        // One robot sits right next to rack 0's home; it should get the job.
        let home = inst.racks[0].home;
        let neighbor = inst
            .grid
            .passable_neighbors(home)
            .next()
            .expect("home has neighbours");
        // Ensure no robot currently occupies the chosen neighbour.
        assert!(inst.robots.iter().all(|r| r.pos != neighbor));
        inst.robots[2].pos = neighbor;
        let mut planner = IlpPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = world_of(&inst, 0, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].robot, inst.robots[2].id);
    }
}
