//! Efficient Adaptive Task Planning (Algorithm 3, Sec. VI).
//!
//! ATP plus two of the paper's three efficiency optimizations:
//!
//! 1. **Flip requesting side** (Sec. VI-A): instead of ranking every rack,
//!    iterate idle *robots* and consult the static K-nearest-rack index of
//!    the cells where a robot idles (its spawn cell and the rack homes,
//!    `docs/adr/ADR-025-knn-idle-cells.md`); each robot ε-greedily adopts
//!    the first of its K closest selectable racks whose Q-action says
//!    "request". Selection drops from `O(R log R)` to `O(|A|·K)`.
//! 2. **Conflict detection table** (Sec. VI-B): path finding reserves into
//!    the `O(HW + live)` CDT instead of the dense spatiotemporal graph.
//!
//! The third, **cache-aided path finding** (Sec. VI-B: near the goal,
//! follow a memoized conflict-agnostic shortest path with waits), is not
//! built: EATP plans its legs with the same A* as every other planner.
//! Measured here, the cache saved a fifth of the expansions but cost more
//! planning time and memory than it saved
//! (`docs/adr/ADR-019-one-leg-search.md`).

use crate::assignment::match_and_plan;
use crate::atp::{decide_and_learn, greedy_bootstrap_select, Learner};
use crate::base::PlannerBase;
use crate::config::EatpConfig;
use crate::planner::{AssignmentPlan, PlannerStats};
use crate::qlearning::QTable;
use crate::shell::{Shell, Strategy};
use crate::world::WorldView;
use tprw_pathfinding::{ConflictDetectionTable, KNearestRacks, MemoryFootprint};
use tprw_warehouse::{GridPos, Instance, RackId, RobotId};

/// Algorithm 3: flip-side Q-selection + CDT-backed A*.
pub type EfficientAdaptiveTaskPlanner = Shell<FlipSide>;

/// The [`EfficientAdaptiveTaskPlanner`] strategy: every idle robot asks its
/// K nearest racks.
pub struct FlipSide {
    learner: Learner,
    /// The configured K.
    k: usize,
    /// The Sec. VI-A K-nearest-rack index ([`idle_cell_index`]), built at
    /// `bind`; disruptions never touch it
    /// (`docs/adr/ADR-021-static-knn.md`).
    knn: KNearestRacks,
}

impl EfficientAdaptiveTaskPlanner {
    /// Read access to the value function (diagnostics, ablations).
    pub fn q_table(&self) -> &QTable {
        &self.strategy.learner.q
    }
}

/// The K-nearest-rack index of the cells where a robot idles: its spawn
/// cell and the rack homes (`docs/adr/ADR-025-knn-idle-cells.md`).
fn idle_cell_index(instance: &Instance, k: usize) -> KNearestRacks {
    let homes: Vec<GridPos> = instance.racks.iter().map(|r| r.home).collect();
    let spawns = instance.robots.iter().map(|r| r.pos);
    let at: Vec<GridPos> = homes.iter().copied().chain(spawns).collect();
    KNearestRacks::build(&instance.grid, &homes, &at, k)
}

/// Flip-side selection (Alg. 3 lines 10–13): per idle robot, ε-greedy
/// over its K nearest selectable racks; stop at the first adopted rack.
/// Each pick carries its robot for [`match_and_plan`].
///
/// Selection runs every timestamp, so its membership bitmap lives in the
/// shared [`PlannerBase`] scratch (taken/restored around the loop) —
/// steady-state selection allocates nothing but the returned pairs. The
/// selected pairs are identical to the allocate-per-tick formulation
/// (pinned by `scratch_select_equals_reference`).
fn flip_side_select(
    q: &mut QTable,
    knn: &KNearestRacks,
    base: &mut PlannerBase<ConflictDetectionTable>,
    world: &WorldView<'_>,
) -> Vec<(RackId, Option<RobotId>)> {
    // Membership bitmap for `selectable` (selection must stay O(|A|·K)).
    let mut selectable = std::mem::take(&mut base.sel.rack_flags);
    selectable.clear();
    selectable.resize(world.racks.len(), false);
    for &rid in world.selectable_racks {
        selectable[rid.index()] = true;
    }
    let mut pairs = Vec::new();
    for &aid in world.idle_robots {
        for &rid in knn.nearest(world.robot(aid).pos) {
            if selectable[rid.index()] && decide_and_learn(q, base, world, rid) {
                selectable[rid.index()] = false;
                pairs.push((rid, Some(aid)));
                break; // Alg. 3 line 13: one rack per robot
            }
        }
    }
    base.sel.rack_flags = selectable;
    pairs
}

impl Strategy for FlipSide {
    type Resv = ConflictDetectionTable;
    const NAME: &'static str = "EATP";

    fn new(config: &EatpConfig) -> Self {
        Self {
            learner: Learner::new(config),
            k: config.k_nearest,
            knn: KNearestRacks::default(),
        }
    }

    fn bind(&mut self, instance: &Instance) {
        self.knn = idle_cell_index(instance, self.k);
    }

    fn select(
        &mut self,
        base: &mut PlannerBase<ConflictDetectionTable>,
        world: &WorldView<'_>,
    ) -> Vec<AssignmentPlan> {
        let (q, knn) = (&mut self.learner.q, &self.knn);
        // Selection step (timed as STC). The greedy arm leaves the robots
        // to the matcher; the flip-side arm already paired one per rack.
        let picks = base.timed_selection(|base| {
            if q.sample_bootstrap() {
                greedy_bootstrap_select(q, base, world, world.idle_robots.len())
                    .into_iter()
                    .map(|rid| (rid, None))
                    .collect()
            } else {
                flip_side_select(q, knn, base, world)
            }
        });
        // Planning step (timed as PTC inside plan_and_reserve).
        match_and_plan(base, world, picks)
    }

    fn add_stats(&self, stats: &mut PlannerStats) {
        self.learner.add_stats(stats);
        stats.memory_bytes += self.knn.memory_bytes();
    }

    fn export(&self, base: PlannerStats) -> serde::Value {
        self.learner.export(base)
    }

    fn import(&mut self, state: &serde::Value) -> Result<PlannerStats, serde::Error> {
        self.learner.import(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use tprw_pathfinding::MemoryFootprint;
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
            live_arrivals: &[],
        }
    }

    #[test]
    fn init_builds_knn() {
        let inst = instance();
        let mut planner = EfficientAdaptiveTaskPlanner::new(EatpConfig::default());
        assert_eq!(planner.strategy.knn.memory_bytes(), 0);
        planner.init(&inst);
        let knn = &planner.strategy.knn;
        assert_eq!(knn.k(), EatpConfig::default().k_nearest);
        assert!(!knn.nearest(inst.robots[0].pos).is_empty());
        let base = planner.base.as_ref().unwrap().stats_snapshot();
        let stats = planner.stats();
        let q = planner.q_table().memory_bytes();
        assert_eq!(
            stats.memory_bytes,
            base.memory_bytes + q + knn.memory_bytes()
        );
    }

    /// The index is static (Sec. VI-A, ADR-021): a blockade and its
    /// reopening reach the planner's base, and every list stays as the
    /// instance built it.
    #[test]
    fn the_index_ignores_blockades() {
        use crate::planner::PlannerEvent;
        use tprw_warehouse::{CellKind, DisruptionEvent};
        let inst = instance();
        let mut planner = EfficientAdaptiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let pos = inst
            .grid
            .cells_of_kind(CellKind::Aisle)
            .find(|&c| {
                inst.racks.iter().all(|r| r.home != c) && inst.robots.iter().all(|r| r.pos != c)
            })
            .expect("aisle cell available");
        let indexed: Vec<GridPos> = (inst.racks.iter().map(|r| r.home))
            .chain(inst.robots.iter().map(|r| r.pos))
            .collect();
        let lists = |planner: &EfficientAdaptiveTaskPlanner| -> Vec<Vec<RackId>> {
            let knn = &planner.strategy.knn;
            indexed.iter().map(|&c| knn.nearest(c).to_vec()).collect()
        };
        let built = lists(&planner);
        for (t, event) in [
            (5, DisruptionEvent::CellBlocked { pos }),
            (9, DisruptionEvent::CellUnblocked { pos }),
        ] {
            planner.on_event(PlannerEvent::Disruption { event: &event, t });
            let base = planner.base.as_ref().unwrap();
            assert_eq!(base.oracle.manhattan_exact(), t == 9, "the base saw it");
            assert_eq!(lists(&planner), built, "the index ignores blockades");
        }
    }

    /// On the benchmark's paper floor (200×200 walled, 2 000 racks, 500
    /// robots, K = 16) the index lists the 2 500 rack homes and spawn
    /// cells: a 625-word bitmap with its ranks (12 bytes a word) plus 2 500
    /// rows of 16 racks, 64 bytes each (ADR-040).
    #[test]
    fn paper_floor_index_footprint_is_pinned() {
        let inst = ScenarioSpec {
            name: "paper-floor".into(),
            layout: LayoutConfig {
                width: 200,
                height: 200,
                border_walls: true,
                ..LayoutConfig::default()
            },
            n_racks: 2000,
            n_robots: 500,
            n_pickers: 24,
            workload: WorkloadConfig::poisson(10, 4.0),
            disruptions: None,
            seed: 7,
        }
        .build()
        .unwrap();
        let knn = idle_cell_index(&inst, EatpConfig::default().k_nearest);
        assert_eq!(knn.k(), 16);
        assert_eq!(knn.memory_bytes(), 167_500);
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
        let knn = &planner.strategy.knn;
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
        knn: &KNearestRacks,
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
                    let delivery = base.delivery(rack);
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
            PlannerBase::new(&inst, config.clone());
        let mut base_ref: PlannerBase<tprw_pathfinding::ConflictDetectionTable> =
            PlannerBase::new(&inst, config.clone());
        let knn = idle_cell_index(&inst, config.k_nearest);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        for round in 0..8 {
            // Vary the world a little between rounds so the Q-state and
            // bitmap contents change.
            let selectable: Vec<RackId> = (round % 3..10).map(RackId::new).collect();
            let world = world_of(&inst, &idle, &selectable);
            let pairs_new = flip_side_select(&mut q_new, &knn, &mut base_new, &world);
            let pairs_ref = flip_side_select_reference(&mut q_ref, &knn, &mut base_ref, &world);
            let pairs_ref: Vec<_> = pairs_ref.into_iter().map(|(r, a)| (r, Some(a))).collect();
            assert_eq!(pairs_new, pairs_ref, "round {round} diverged");
            assert_eq!(q_new.update_count(), q_ref.update_count());
            assert_eq!(q_new.state_count(), q_ref.state_count());
        }
    }
}
