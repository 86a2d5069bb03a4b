//! Efficient Adaptive Task Planning (Algorithm 3, Sec. VI).
//!
//! ATP plus two of the paper's three efficiency optimizations:
//!
//! 1. **Flip requesting side** (Sec. VI-A): instead of ranking every rack,
//!    iterate idle *robots* and consult the static per-cell K-nearest-rack
//!    index; each robot ε-greedily adopts the first of its K closest
//!    selectable racks whose Q-action says "request". Selection drops from
//!    `O(R log R)` to `O(|A|·K)`.
//! 2. **Conflict detection table** (Sec. VI-B): path finding reserves into
//!    the `O(HW + live)` CDT instead of the dense spatiotemporal graph.
//!
//! The third, **cache-aided path finding** (Sec. VI-B: near the goal,
//! follow a memoized conflict-agnostic shortest path with waits), is not
//! built: EATP plans its legs with the same A* as every other planner.
//! Measured here, the cache saved a fifth of the expansions but cost more
//! planning time and memory than it saved
//! (`docs/adr/ADR-019-one-leg-search.md`).

use crate::atp::{decide_and_learn, greedy_bootstrap_select, Learner};
use crate::base::{BaseSnapshot, PlannerBase};
use crate::config::EatpConfig;
use crate::planner::{AssignmentPlan, PlannerStats};
use crate::qlearning::QTable;
use crate::shell::{Shell, Strategy};
use crate::world::WorldView;
use tprw_pathfinding::{ConflictDetectionTable, ReservationProbe};
use tprw_warehouse::{RackId, RobotId};

/// Algorithm 3: flip-side Q-selection + CDT-backed A*.
pub type EfficientAdaptiveTaskPlanner = Shell<FlipSide>;

/// The [`EfficientAdaptiveTaskPlanner`] strategy: every idle robot asks its
/// K nearest racks.
pub struct FlipSide(Learner);

impl EfficientAdaptiveTaskPlanner {
    /// Read access to the value function (diagnostics, ablations).
    pub fn q_table(&self) -> &QTable {
        &self.strategy.0.q
    }
}

/// Flip-side selection (Alg. 3 lines 10–13): per idle robot, ε-greedy
/// over its K nearest selectable racks; stop at the first adopted rack.
///
/// Selection runs every timestamp, so its membership bitmap and
/// candidate list live in the shared [`PlannerBase`] scratch
/// (taken/restored around the loop to keep the `q`/`base` borrows
/// disjoint) — steady-state selection allocates nothing but the
/// returned pairs. The selected pairs are identical to the
/// allocate-per-tick formulation (pinned by
/// `scratch_select_equals_reference`).
fn flip_side_select(
    q: &mut QTable,
    base: &mut PlannerBase<ConflictDetectionTable>,
    world: &WorldView<'_>,
) -> Vec<(RackId, RobotId)> {
    // Catch up on any grid mutations since the last read (one index pass
    // per batch of disruption events, not one per mutated cell).
    base.refresh_knn();
    // Membership bitmap for `selectable` (selection must stay O(|A|·K)).
    let mut selectable = std::mem::take(&mut base.sel.rack_flags);
    selectable.clear();
    selectable.resize(world.racks.len(), false);
    for &rid in world.selectable_racks {
        selectable[rid.index()] = true;
    }
    let mut candidates = std::mem::take(&mut base.sel.candidates);
    let mut pairs = Vec::new();
    for &aid in world.idle_robots {
        let pos = world.robot(aid).pos;
        let knn = base.knn.as_ref().expect("EATP builds the KNN index");
        // Collect candidates first: the q/base borrows below must not
        // overlap the index borrow.
        candidates.clear();
        candidates.extend(
            knn.nearest(pos)
                .iter()
                .copied()
                .filter(|r| selectable[r.index()]),
        );
        for &rid in &candidates {
            if decide_and_learn(q, base, world, rid) {
                selectable[rid.index()] = false;
                pairs.push((rid, aid));
                break; // Alg. 3 line 13: one rack per robot
            }
        }
    }
    base.sel.rack_flags = selectable;
    base.sel.candidates = candidates;
    pairs
}

impl Strategy for FlipSide {
    type Resv = ConflictDetectionTable;
    const NAME: &'static str = "EATP";
    const SEC_VI: bool = true;

    fn new(config: &EatpConfig) -> Self {
        Self(Learner::new(config))
    }

    fn select(
        &mut self,
        base: &mut PlannerBase<ConflictDetectionTable>,
        world: &WorldView<'_>,
    ) -> Vec<AssignmentPlan> {
        let q = &mut self.0.q;
        // Selection step (timed as STC).
        let pairs: Vec<(RackId, RobotId)> = base.timed_selection(|base| {
            if q.sample_bootstrap() {
                // Approximate arm: greedy selection; robots matched below.
                greedy_bootstrap_select(q, base, world, world.idle_robots.len())
                    .into_iter()
                    .map(|rid| (rid, RobotId::new(u32::MAX as usize)))
                    .collect()
            } else {
                flip_side_select(q, base, world)
            }
        });

        // Planning step (timed as PTC inside plan_and_reserve). The
        // used-robot bitmap rides in the shared selection scratch too.
        let mut used = std::mem::take(&mut base.sel.robot_flags);
        used.clear();
        used.resize(world.robots.len(), false);
        let mut plans = Vec::new();
        for (rack_id, robot_hint) in pairs {
            let rack = world.rack(rack_id);
            let robot = if robot_hint.0 == u32::MAX {
                // Greedy arm: closest unused idle robot (parked-home rule).
                match crate::assignment::pick_robot(base, world, rack_id, &used) {
                    Some(r) => r,
                    None => continue,
                }
            } else {
                // Flip-side arm already paired a robot; honour the
                // parked-home rule.
                match base.resv.parked_at(rack.home) {
                    Some((p, _)) if p != robot_hint => continue,
                    _ => robot_hint,
                }
            };
            if used[robot.index()] {
                continue;
            }
            let from = world.robot(robot).pos;
            if let Some(path) = base.plan_and_reserve(robot, from, rack.home, world.t, true) {
                used[robot.index()] = true;
                plans.push(AssignmentPlan {
                    robot,
                    rack: rack_id,
                    path,
                });
            }
        }
        base.sel.robot_flags = used;
        plans
    }

    fn add_stats(&self, stats: &mut PlannerStats) {
        self.0.add_stats(stats);
    }

    fn export(&self, base: BaseSnapshot) -> serde::Value {
        self.0.export(base)
    }

    fn import(&mut self, state: &serde::Value) -> Result<BaseSnapshot, serde::Error> {
        self.0.import(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use tprw_warehouse::{Instance, ItemId, LayoutConfig, ScenarioSpec, WorkloadConfig};

    fn instance() -> Instance {
        ScenarioSpec {
            name: "eatp-test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 12,
            n_robots: 4,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(40, 1.0),
            disruptions: None,
            seed: 23,
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
        idle: &'a [RobotId],
        selectable: &'a [RackId],
    ) -> WorldView<'a> {
        WorldView {
            t: 0,
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
    fn init_builds_knn() {
        let inst = instance();
        let mut planner = EfficientAdaptiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let base = planner.base.as_ref().unwrap();
        assert!(base.knn.is_some());
    }

    #[test]
    fn flip_side_assigns_nearby_racks() {
        let mut inst = instance();
        for i in 0..6 {
            add_pending(&mut inst, i, 30);
        }
        let mut config = EatpConfig::default();
        config.rl.delta = 0.0; // always flip-side
        config.rl.epsilon = 0.0;
        let mut planner = EfficientAdaptiveTaskPlanner::new(config);
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable: Vec<RackId> = (0..6).map(RackId::new).collect();
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert!(!plans.is_empty());
        // Every assignment's rack must be within the robot's K-nearest list.
        let base = planner.base.as_ref().unwrap();
        let knn = base.knn.as_ref().unwrap();
        for p in &plans {
            let robot_pos = inst.robots[p.robot.index()].pos;
            assert!(
                knn.nearest(robot_pos).contains(&p.rack),
                "rack {} not in robot {}'s K-nearest",
                p.rack,
                p.robot
            );
        }
    }

    #[test]
    fn one_rack_per_robot() {
        let mut inst = instance();
        for i in 0..10 {
            add_pending(&mut inst, i, 30);
        }
        let mut planner = EfficientAdaptiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable: Vec<RackId> = (0..10).map(RackId::new).collect();
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        let mut robots: Vec<_> = plans.iter().map(|p| p.robot).collect();
        robots.sort();
        robots.dedup();
        assert_eq!(robots.len(), plans.len());
        let mut racks: Vec<_> = plans.iter().map(|p| p.rack).collect();
        racks.sort();
        racks.dedup();
        assert_eq!(racks.len(), plans.len());
    }

    #[test]
    fn stats_report_memory_and_selection_time() {
        let mut inst = instance();
        add_pending(&mut inst, 0, 30);
        let mut planner = EfficientAdaptiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = world_of(&inst, &idle, &selectable);
        let _ = planner.plan(&world).unwrap();
        let stats = planner.stats();
        assert!(stats.memory_bytes > 0);
        assert!(stats.selection_ns > 0);
    }

    /// The pre-change flip-side formulation: fresh bitmap + per-robot
    /// candidate `Vec` every call. Kept verbatim as the behavioural
    /// reference for the scratch-backed version.
    fn flip_side_select_reference(
        q: &mut crate::qlearning::QTable,
        base: &mut PlannerBase<tprw_pathfinding::ConflictDetectionTable>,
        world: &WorldView<'_>,
    ) -> Vec<(RackId, RobotId)> {
        use crate::qlearning::QTable;
        let mut selectable = vec![false; world.racks.len()];
        for &rid in world.selectable_racks {
            selectable[rid.index()] = true;
        }
        let mut pairs = Vec::new();
        for &aid in world.idle_robots {
            let pos = world.robot(aid).pos;
            let knn = base.knn.as_ref().expect("EATP builds the KNN index");
            let candidates: Vec<RackId> = knn
                .nearest(pos)
                .iter()
                .copied()
                .filter(|r| selectable[r.index()])
                .collect();
            for rid in candidates {
                let rack = world.rack(rid);
                let picker = world.picker_of(rack);
                let s = q.state(picker.accum_processing, rack.accum_processing);
                let action = q.epsilon_greedy(s);
                if action == 1 {
                    let delivery = base.dist(rack.home, picker.pos);
                    let reward = QTable::reward(picker.finish_time(), delivery, rack.pending_time);
                    q.update(
                        picker.accum_processing,
                        rack.accum_processing,
                        1,
                        reward,
                        rack.pending_time,
                    );
                    selectable[rid.index()] = false;
                    pairs.push((rid, aid));
                    break;
                } else {
                    let hold = QTable::hold_reward(rack.pending.len());
                    q.update(picker.accum_processing, rack.accum_processing, 0, hold, 0);
                }
            }
        }
        pairs
    }

    #[test]
    fn scratch_select_equals_reference() {
        // Same seeded QTable + base on both sides: the scratch-backed
        // selection must produce identical pairs and identical learning
        // across repeated, state-mutating calls.
        let mut inst = instance();
        for i in 0..10 {
            add_pending(&mut inst, i, 20 + i as u64);
        }
        let config = EatpConfig::default();
        let mut q_new = crate::qlearning::QTable::new(config.rl.clone());
        let mut q_ref = crate::qlearning::QTable::new(config.rl.clone());
        let mut base_new: PlannerBase<tprw_pathfinding::ConflictDetectionTable> =
            PlannerBase::new(&inst, config.clone(), true);
        let mut base_ref: PlannerBase<tprw_pathfinding::ConflictDetectionTable> =
            PlannerBase::new(&inst, config.clone(), true);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        for round in 0..8 {
            // Vary the world a little between rounds so the Q-state and
            // bitmap contents change.
            let selectable: Vec<RackId> = (round % 3..10).map(RackId::new).collect();
            let world = world_of(&inst, &idle, &selectable);
            let pairs_new = flip_side_select(&mut q_new, &mut base_new, &world);
            let pairs_ref = flip_side_select_reference(&mut q_ref, &mut base_ref, &world);
            assert_eq!(pairs_new, pairs_ref, "round {round} diverged");
            assert_eq!(q_new.update_count(), q_ref.update_count());
            assert_eq!(q_new.state_count(), q_ref.state_count());
        }
    }
}
