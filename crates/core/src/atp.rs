//! Adaptive Task Planning (Algorithm 2, Sec. V).
//!
//! Rack selection is a Markov decision process: each rack decides every
//! timestamp whether to *request* fulfilment (action 1) or *hold* for more
//! items (action 0), trained online with Q-learning (Eq. 5) under the
//! end-to-end reward of Eq. (4). Training mixes two modes per timestamp
//! (Sec. V-B):
//!
//! * with probability δ, **approximate**: run the greedy "most slack picker
//!   first" selection and update `q` along its choices — this seeds value
//!   estimates for otherwise-unexplored states;
//! * otherwise, **bootstrap**: rank racks by `q(s_r, 0)` descending (racks
//!   whose *hold* value is worst come first), draw ε-greedy actions, select
//!   requested racks until the idle fleet is exhausted.
//!
//! Path finding runs on the full spatiotemporal graph, as in the baselines.

use crate::assignment::match_and_plan;
use crate::base::{PlannerBase, ReservationBackend};
use crate::config::EatpConfig;
use crate::ntp::most_slack_picker_selection;
use crate::planner::{AssignmentPlan, PlannerStats};
use crate::qlearning::{QTable, QTableSnapshot};
use crate::shell::{Shell, Strategy};
use crate::world::WorldView;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::SpatioTemporalGraph;
use tprw_warehouse::RackId;

/// Canonical state of a learning planner (ATP/EATP): the shared base slice
/// (the counters) plus the Q-table (entries, RNG stream position, update count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LearningSnapshot {
    base: PlannerStats,
    q: QTableSnapshot,
}

/// What ATP and EATP both keep beyond the base: the value function.
pub struct Learner {
    pub(crate) q: QTable,
}

impl Learner {
    pub(crate) fn new(config: &EatpConfig) -> Self {
        Self {
            q: QTable::new(config.rl.clone()),
        }
    }

    pub(crate) fn add_stats(&self, stats: &mut PlannerStats) {
        stats.memory_bytes += self.q.memory_bytes();
        stats.q_states = self.q.state_count();
    }

    pub(crate) fn export(&self, base: PlannerStats) -> serde::Value {
        LearningSnapshot {
            base,
            q: self.q.export_snapshot(),
        }
        .serialize()
    }

    pub(crate) fn import(&mut self, state: &serde::Value) -> Result<PlannerStats, serde::Error> {
        let snap = LearningSnapshot::deserialize(state)?;
        self.q.import_snapshot(&snap.q)?;
        Ok(snap.base)
    }
}

/// Algorithm 2: Q-learning rack selection + spatiotemporal A*.
pub type AdaptiveTaskPlanner = Shell<RackSide>;

/// The [`AdaptiveTaskPlanner`] strategy: every rack decides for itself.
pub struct RackSide(Learner);

impl AdaptiveTaskPlanner {
    /// Read access to the value function (diagnostics, ablations).
    pub fn q_table(&self) -> &QTable {
        &self.strategy.0.q
    }
}

/// Train `q` on `rid` requesting fulfilment now (action 1): the Eq. (4)
/// reward with the actual delivery distance.
fn learn_request<R: ReservationBackend>(
    q: &mut QTable,
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    rid: RackId,
) {
    let rack = world.rack(rid);
    let picker = world.picker_of(rack);
    let delivery = base.delivery(rack);
    let reward = QTable::reward(picker.finish_time(), delivery, rack.pending_time);
    q.update(
        picker.accum_processing,
        rack.accum_processing,
        1,
        reward,
        rack.pending_time,
    );
}

/// One rack's ε-greedy decision, trained on the spot: `true` means the
/// rack requests fulfilment now. Holding leaves the state unchanged but
/// every pending item waits one more epoch.
pub(crate) fn decide_and_learn<R: ReservationBackend>(
    q: &mut QTable,
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    rid: RackId,
) -> bool {
    let rack = world.rack(rid);
    let picker = world.picker_of(rack);
    let s = q.state(picker.accum_processing, rack.accum_processing);
    let request = q.epsilon_greedy(s) == 1;
    if request {
        learn_request(q, base, world, rid);
    } else {
        let hold = QTable::hold_reward(rack.pending.len());
        q.update(picker.accum_processing, rack.accum_processing, 0, hold, 0);
    }
    request
}

/// Rack-side Q-selection (Alg. 2 lines 12–20). Returns the selected racks
/// in priority order.
pub fn q_select_rack_side<R: ReservationBackend>(
    q: &mut QTable,
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    cap: usize,
) -> Vec<RackId> {
    // Rank racks by the value of holding, q(s_r, 0) (Alg. 2 line 12): the
    // value function encodes negated expected cost, so racks whose *hold*
    // value is worst ("largest expected finish time", Sec. V-D) must be
    // examined first — they are the ones the policy can least afford to
    // defer.
    let mut ranked: Vec<(f64, RackId)> = world
        .selectable_racks
        .iter()
        .map(|&rid| {
            let rack = world.rack(rid);
            let picker = world.picker_of(rack);
            let s = q.state(picker.accum_processing, rack.accum_processing);
            (q.q(s, 0), rid)
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite q-values")
            .then(a.1.cmp(&b.1))
    });

    let mut selected = Vec::new();
    for (_, rid) in ranked {
        if decide_and_learn(q, base, world, rid) {
            selected.push(rid);
            if selected.len() >= cap {
                break;
            }
        }
    }
    selected
}

/// The greedy (δ-bootstrap) arm: select like NTP and update `q` along the
/// forced action-1 choices (Alg. 2 lines 6–9).
pub fn greedy_bootstrap_select<R: ReservationBackend>(
    q: &mut QTable,
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    cap: usize,
) -> Vec<RackId> {
    let selected = most_slack_picker_selection(world, cap);
    for &rid in &selected {
        learn_request(q, base, world, rid);
    }
    selected
}

impl Strategy for RackSide {
    type Resv = SpatioTemporalGraph;
    const NAME: &'static str = "ATP";

    fn new(config: &EatpConfig) -> Self {
        Self(Learner::new(config))
    }

    fn select(
        &mut self,
        base: &mut PlannerBase<SpatioTemporalGraph>,
        world: &WorldView<'_>,
    ) -> Vec<AssignmentPlan> {
        let cap = world.idle_robots.len();
        let q = &mut self.0.q;
        let selected = base.timed_selection(|base| {
            if q.sample_bootstrap() {
                greedy_bootstrap_select(q, base, world, cap)
            } else {
                q_select_rack_side(q, base, world, cap)
            }
        });
        match_and_plan(base, world, selected.into_iter().map(|r| (r, None)))
    }

    fn add_stats(&self, stats: &mut PlannerStats) {
        self.0.add_stats(stats);
    }

    fn export(&self, base: PlannerStats) -> serde::Value {
        self.0.export(base)
    }

    fn import(&mut self, state: &serde::Value) -> Result<PlannerStats, serde::Error> {
        self.0.import(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use tprw_warehouse::{Instance, ItemId, LayoutConfig, RobotId, ScenarioSpec, WorkloadConfig};

    fn instance() -> Instance {
        ScenarioSpec {
            name: "atp-test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 12,
            n_robots: 4,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(40, 1.0),
            disruptions: None,
            seed: 21,
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
    fn plan_learns_and_assigns() {
        let mut inst = instance();
        for i in 0..4 {
            add_pending(&mut inst, i, 30);
        }
        let mut planner = AdaptiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable: Vec<RackId> = (0..4).map(RackId::new).collect();
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        // With default ε = 0.1 and optimistic init, most racks get selected.
        assert!(!plans.is_empty());
        assert!(planner.q_table().update_count() > 0, "q must be trained");
        let stats = planner.stats();
        assert!(stats.q_states > 0);
    }

    #[test]
    fn selection_respects_fleet_cap() {
        let mut inst = instance();
        for i in 0..8 {
            add_pending(&mut inst, i, 30);
        }
        let mut planner = AdaptiveTaskPlanner::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = vec![inst.robots[0].id, inst.robots[1].id];
        let selectable: Vec<RackId> = (0..8).map(RackId::new).collect();
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert!(plans.len() <= 2, "cannot exceed idle fleet");
    }

    #[test]
    fn bootstrap_only_trains_greedy_arm() {
        let mut config = EatpConfig::default();
        config.rl.delta = 1.0; // always greedy bootstrap
        let mut inst = instance();
        add_pending(&mut inst, 0, 30);
        let mut planner = AdaptiveTaskPlanner::new(config);
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert_eq!(plans.len(), 1, "greedy arm selects eagerly");
        assert_eq!(planner.q_table().update_count(), 1);
    }

    #[test]
    fn zero_epsilon_pure_policy_still_selects_initially() {
        let mut config = EatpConfig::default();
        config.rl.delta = 0.0; // always Q-policy
        config.rl.epsilon = 0.0; // pure exploitation
        let mut inst = instance();
        add_pending(&mut inst, 0, 30);
        let mut planner = AdaptiveTaskPlanner::new(config);
        planner.init(&inst);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        // Unexplored states tie-break toward requesting.
        assert_eq!(plans.len(), 1);
    }

    #[test]
    fn trained_hold_value_can_defer() {
        let mut config = EatpConfig::default();
        config.rl.delta = 0.0;
        config.rl.epsilon = 0.0;
        config.rl.beta = 1.0; // learn in one shot
        let mut inst = instance();
        add_pending(&mut inst, 0, 30);
        let mut planner = AdaptiveTaskPlanner::new(config);
        planner.init(&inst);
        // Pre-train: make action 1 terrible in the initial state.
        let picker = inst.racks[0].picker.index();
        let ap = inst.pickers[picker].accum_processing;
        let ar = inst.racks[0].accum_processing;
        planner.strategy.0.q.update(ap, ar, 1, -1e6, 30);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert!(plans.is_empty(), "policy defers when request value is bad");
    }
}
