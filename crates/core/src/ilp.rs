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
//! * **picker status**: Σ_{r: p_r = p} x_{r,·} ≤ 3 (`PICKER_CAPACITY`) per
//!   picker, the extension that folds queue state into the model.
//!
//! The model is solved per *block* of at most [`BLOCK`] racks × robots;
//! blocks repeat until idle robots run out. A block's rows make it a
//! transportation network — source → robot → rack → picker → sink — so its
//! LP is integral and one min-cost flow solves it exactly, with no bounds,
//! no branching and no node cap (`docs/adr/ADR-028-ilp-min-cost-flow.md`).
//! The paper reports ILP too slow to finish on Real-Large (Table III
//! footnote); that was a generic solver's cost, not the model's, and
//! `repro` still skips ILP there to mirror the table's "–".

use crate::assignment::match_and_plan;
use crate::base::PlannerBase;
use crate::config::EatpConfig;
use crate::makespan::queuing_delay;
use crate::ntp::most_slack_picker_selection;
use crate::planner::AssignmentPlan;
use crate::shell::{Shell, Strategy};
use crate::world::WorldView;
use tprw_pathfinding::{ReservationProbe, SpatioTemporalGraph};
use tprw_warehouse::{RackId, RobotId};

/// Maximum racks (and robots) per ILP block.
pub const BLOCK: usize = 20;

/// Cap on the racks one block admits per picker (the "picker status"
/// extension of \[12\]).
const PICKER_CAPACITY: usize = 3;

/// Baseline: per-timestamp 0/1 ILP selection.
pub type IlpPlanner = Shell<BlockwiseIlp>;

/// The [`IlpPlanner`] strategy. It keeps no state of its own.
pub struct BlockwiseIlp;

/// Solve one block, returning chosen (rack, robot) pairs in rack order.
fn solve_block(
    base: &mut PlannerBase<SpatioTemporalGraph>,
    world: &WorldView<'_>,
    racks: &[RackId],
    robots: &[RobotId],
) -> Vec<(RackId, RobotId)> {
    // Cost per Eq. (2): pickup + delivery + queuing + processing + return.
    // Parked-on-home rule: only the parked idle robot may serve the rack.
    let mut cost: Vec<Vec<Option<i64>>> = racks
        .iter()
        .map(|&rid| {
            let rack = world.rack(rid);
            let delivery = base.delivery(rack);
            let fp = world.picker_of(rack).finish_time();
            let parked = base.resv.parked_at(rack.home).map(|(r, _)| r);
            robots
                .iter()
                .map(|&aid| {
                    parked.is_none_or(|p| p == aid).then(|| {
                        let travel = world.robot(aid).pos.manhattan(rack.home) + delivery;
                        (travel + queuing_delay(fp, travel) + rack.pending_time + delivery) as i64
                    })
                })
                .collect()
        })
        .collect();

    // Service bonus strictly above any real cost.
    let bonus = cost.iter().flatten().flatten().copied().max().unwrap_or(0) + 1;
    for c in cost.iter_mut().flatten().flatten() {
        *c -= bonus;
    }
    let picker: Vec<usize> = racks
        .iter()
        .map(|&r| world.rack(r).picker.index())
        .collect();
    min_cost_pairs(&cost, &picker, PICKER_CAPACITY)
        .into_iter()
        .map(|(i, j)| (racks[i], robots[j]))
        .collect()
}

/// A minimum-cost set of (rack, robot) index pairs, in rack order: each rack
/// and each robot in at most one pair, at most `capacity` racks per picker.
/// `cost[i][j]` is the cost of robot `j` serving rack `i` (`None`: it may
/// not), and `picker[i]` names rack `i`'s picker.
///
/// Successive shortest paths with Bellman–Ford on source → robot → rack →
/// picker → sink, every edge of capacity 1 except picker → sink
/// (`capacity`). Path costs never fall from one augmentation to the next,
/// so the flow stops at the first shortest path that costs ≥ 0. The graph
/// starts acyclic, so no residual graph has a negative cycle; relaxing with
/// a strict `<` keeps the passes from circling zero-cost cycles.
fn min_cost_pairs(
    cost: &[Vec<Option<i64>>],
    picker: &[usize],
    capacity: usize,
) -> Vec<(usize, usize)> {
    let (nr, na) = (cost.len(), cost.first().map_or(0, Vec::len));
    let mut pickers = picker.to_vec();
    pickers.sort_unstable();
    pickers.dedup();
    // Nodes: source, robots, racks, pickers, sink.
    let (source, sink) = (0, 1 + na + nr + pickers.len());
    let rack_node = |i: usize| 1 + na + i;
    let picker_node = |k: usize| 1 + na + nr + k;
    // Edge `e` as (from, to, residual capacity, cost); `e ^ 1` is its reverse.
    let mut edges: Vec<(usize, usize, usize, i64)> = Vec::new();
    let mut add = |from: usize, to: usize, cap: usize, c: i64| {
        edges.push((from, to, cap, c));
        edges.push((to, from, 0, -c));
        edges.len() - 2
    };
    for j in 0..na {
        add(source, 1 + j, 1, 0);
    }
    let mut arcs = Vec::new();
    for (i, row) in cost.iter().enumerate() {
        for (j, c) in row.iter().enumerate() {
            if let Some(c) = *c {
                arcs.push((i, j, add(1 + j, rack_node(i), 1, c)));
            }
        }
    }
    for (i, p) in picker.iter().enumerate() {
        let k = pickers
            .binary_search(p)
            .expect("every rack's picker is listed");
        add(rack_node(i), picker_node(k), 1, 0);
    }
    for k in 0..pickers.len() {
        add(picker_node(k), sink, capacity, 0);
    }

    loop {
        let mut dist = vec![i64::MAX; sink + 1];
        let mut via = vec![usize::MAX; sink + 1];
        dist[source] = 0;
        let mut relaxed = true;
        while relaxed {
            relaxed = false;
            for (e, &(from, to, cap, c)) in edges.iter().enumerate() {
                if cap > 0 && dist[from] != i64::MAX && dist[from] + c < dist[to] {
                    dist[to] = dist[from] + c;
                    via[to] = e;
                    relaxed = true;
                }
            }
        }
        if dist[sink] >= 0 {
            break;
        }
        let mut v = sink;
        while v != source {
            let e = via[v];
            edges[e].2 -= 1;
            edges[e ^ 1].2 += 1;
            v = edges[e].0;
        }
    }
    arcs.into_iter()
        .filter(|&(_, _, e)| edges[e].2 == 0)
        .map(|(i, j, _)| (i, j))
        .collect()
}

impl Strategy for BlockwiseIlp {
    type Resv = SpatioTemporalGraph;
    const NAME: &'static str = "ILP";

    fn new(_config: &EatpConfig) -> Self {
        Self
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
                let pairs = solve_block(base, world, chunk, &remaining_robots[..take]);
                for &(rack, robot) in &pairs {
                    remaining_robots.retain(|&r| r != robot);
                    all_pairs.push((rack, robot));
                }
            }
            all_pairs
        });

        // Planning: commit pickup legs for the chosen pairs.
        match_and_plan(base, world, pairs.into_iter().map(|(r, a)| (r, Some(a))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use proptest::prelude::*;
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
        let mut planner = IlpPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        // The capacity binds: more of picker 0's racks wait than it admits,
        // and more robots are idle than it admits.
        assert!(p0_racks.len() > PICKER_CAPACITY);
        assert!(idle.len() > PICKER_CAPACITY);
        let selectable: Vec<RackId> = p0_racks.iter().map(|&i| inst.racks[i].id).collect();
        let world = world_of(&inst, 0, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert!(
            plans.len() <= PICKER_CAPACITY,
            "capacity {PICKER_CAPACITY} admits at most {PICKER_CAPACITY} racks for picker 0, got {}",
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

    /// The least objective over every feasible pair set, by trying each
    /// rack unserved or with each robot still free.
    fn exhaustive_min(
        cost: &[Vec<Option<i64>>],
        picker: &[usize],
        capacity: usize,
        rack: usize,
        robot_used: &mut [bool],
        load: &mut [usize],
    ) -> i64 {
        if rack == cost.len() {
            return 0;
        }
        let mut best = exhaustive_min(cost, picker, capacity, rack + 1, robot_used, load);
        if load[picker[rack]] == capacity {
            return best;
        }
        for (j, c) in cost[rack].iter().enumerate() {
            let Some(c) = *c else { continue };
            if robot_used[j] {
                continue;
            }
            robot_used[j] = true;
            load[picker[rack]] += 1;
            let rest = exhaustive_min(cost, picker, capacity, rack + 1, robot_used, load);
            best = best.min(c + rest);
            load[picker[rack]] -= 1;
            robot_used[j] = false;
        }
        best
    }

    proptest! {
        /// The flow's pairs are feasible, and their objective is the least
        /// over every feasible pair set, on random blocks of up to 5 racks ×
        /// 5 robots with forbidden pairs, 1–3 pickers and capacity 1–3.
        #[test]
        fn flow_matches_exhaustive_search(
            nr in 0usize..6,
            na in 1usize..6,
            cells in proptest::collection::vec((-40i64..40, 0u8..4), 25),
            pickers in proptest::collection::vec(0usize..3, 5),
            n_pickers in 1usize..4,
            capacity in 1usize..4,
        ) {
            // A quarter of the pairs are forbidden.
            let cost: Vec<Vec<Option<i64>>> = (0..nr)
                .map(|i| (0..na).map(|j| {
                    let (c, gate) = cells[i * 5 + j];
                    (gate > 0).then_some(c)
                }).collect())
                .collect();
            let picker: Vec<usize> = pickers[..nr].iter().map(|p| p % n_pickers).collect();

            let pairs = min_cost_pairs(&cost, &picker, capacity);
            let (mut rack_used, mut robot_used) = (vec![false; nr], vec![false; na]);
            let mut load = vec![0usize; n_pickers];
            let mut objective = 0;
            for &(i, j) in &pairs {
                prop_assert!(!rack_used[i] && !robot_used[j], "{pairs:?} reuses a rack or robot");
                rack_used[i] = true;
                robot_used[j] = true;
                load[picker[i]] += 1;
                prop_assert!(load[picker[i]] <= capacity, "{pairs:?} overloads a picker");
                let c = cost[i][j];
                prop_assert!(c.is_some(), "{pairs:?} uses a forbidden pair");
                objective += c.unwrap();
            }
            prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "rack order");
            let best = exhaustive_min(&cost, &picker, capacity, 0, &mut vec![false; na], &mut vec![0; n_pickers]);
            prop_assert_eq!(objective, best);
        }
    }
}
