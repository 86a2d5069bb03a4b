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
use crate::base::PlannerBase;
use crate::config::EatpConfig;
use crate::ntp::most_slack_picker_selection;
use crate::planner::{
    AssignmentPlan, InjectedFault, LegRequest, Planner, PlannerError, PlannerEvent, PlannerStats,
    TentativeLeg,
};
use crate::qlearning::{QTable, QTableSnapshot};
use crate::world::WorldView;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::{Path, SpatioTemporalGraph};
use tprw_warehouse::{GridPos, Instance, RackId, RobotId, Tick};

/// Canonical state of a learning planner (ATP/EATP): the shared base slice
/// plus the Q-table (entries, RNG stream position, update count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LearningSnapshot {
    pub(crate) base: crate::base::BaseSnapshot,
    pub(crate) q: QTableSnapshot,
}

/// Algorithm 2: Q-learning rack selection + spatiotemporal A*.
pub struct AdaptiveTaskPlanner {
    config: EatpConfig,
    q: QTable,
    base: Option<PlannerBase<SpatioTemporalGraph>>,
}

impl AdaptiveTaskPlanner {
    /// Build an (uninitialized) planner; call [`Planner::init`] before use.
    pub fn new(config: EatpConfig) -> Self {
        let q = QTable::new(config.rl.clone());
        Self {
            config,
            q,
            base: None,
        }
    }

    /// Read access to the value function (diagnostics, ablations).
    pub fn q_table(&self) -> &QTable {
        &self.q
    }
}

/// Shared Q-selection machinery for ATP (rack-side) — also reused by the
/// ATP-greedy bootstrap arm. Returns the selected racks in priority order.
///
/// `oracle_dist` supplies `d(l_r, l_p)` for the Eq. (4) reward.
pub fn q_select_rack_side<R: crate::base::ReservationBackend>(
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
        let rack = world.rack(rid);
        let picker = world.picker_of(rack);
        let s = q.state(picker.accum_processing, rack.accum_processing);
        let action = q.epsilon_greedy(s);
        if action == 1 {
            // Reward per Eq. (4) with the actual delivery distance.
            let delivery = base.dist(rack.home, picker.pos);
            let reward = QTable::reward(picker.finish_time(), delivery, rack.pending_time);
            q.update(
                picker.accum_processing,
                rack.accum_processing,
                1,
                reward,
                rack.pending_time,
            );
            selected.push(rid);
            if selected.len() >= cap {
                break;
            }
        } else {
            // Holding: the state does not change but every pending item
            // waits one more epoch.
            let hold = QTable::hold_reward(rack.pending.len());
            q.update(picker.accum_processing, rack.accum_processing, 0, hold, 0);
        }
    }
    selected
}

/// The greedy (δ-bootstrap) arm: select like NTP and update `q` along the
/// forced action-1 choices (Alg. 2 lines 6–9).
pub fn greedy_bootstrap_select<R: crate::base::ReservationBackend>(
    q: &mut QTable,
    base: &mut PlannerBase<R>,
    world: &WorldView<'_>,
    cap: usize,
) -> Vec<RackId> {
    let selected = most_slack_picker_selection(world, cap);
    for &rid in &selected {
        let rack = world.rack(rid);
        let picker = world.picker_of(rack);
        let delivery = base.dist(rack.home, picker.pos);
        let reward = QTable::reward(picker.finish_time(), delivery, rack.pending_time);
        q.update(
            picker.accum_processing,
            rack.accum_processing,
            1,
            reward,
            rack.pending_time,
        );
    }
    selected
}

impl Planner for AdaptiveTaskPlanner {
    fn name(&self) -> &'static str {
        "ATP"
    }

    fn init(&mut self, instance: &Instance) {
        self.base = Some(PlannerBase::new(
            instance,
            self.config.clone(),
            false,
            false,
        ));
    }

    fn plan(&mut self, world: &WorldView<'_>) -> Result<Vec<AssignmentPlan>, PlannerError> {
        let base = self.base.as_mut().expect("init() must be called first");
        if let Some(e) = base.take_armed_decision_fault() {
            return Err(e);
        }
        if !world.has_work() {
            return Ok(Vec::new());
        }
        let cap = world.idle_robots.len();
        let q = &mut self.q;
        let selected = base.timed_selection(|base| {
            let mut selected = if q.sample_bootstrap() {
                greedy_bootstrap_select(q, base, world, cap)
            } else {
                q_select_rack_side(q, base, world, cap)
            };
            // Disruption-aware pass (no-op unless enabled + disrupted).
            base.reorder_by_anticipation(world, None, &mut selected);
            selected
        });
        Ok(match_and_plan(base, world, &selected))
    }

    fn plan_leg(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park: bool,
    ) -> Option<Path> {
        self.base
            .as_mut()
            .expect("init() must be called first")
            .plan_and_reserve(robot, from, to, start, park)
    }

    fn commit_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        _tentative: &mut Vec<TentativeLeg>,
        results: &mut Vec<Option<Path>>,
    ) -> Result<(), PlannerError> {
        self.base
            .as_mut()
            .expect("init() must be called first")
            .commit_legs(requests, start, results)
    }

    fn inject_fault(&mut self, fault: &InjectedFault) -> bool {
        self.base.as_mut().expect("initialized").inject_fault(fault)
    }

    fn on_dock(&mut self, robot: RobotId) {
        self.base.as_mut().expect("initialized").on_dock(robot);
    }

    fn on_event(&mut self, event: PlannerEvent<'_>) {
        self.base.as_mut().expect("initialized").on_event(event);
    }

    fn housekeeping(&mut self, t: Tick) {
        self.base.as_mut().expect("initialized").housekeeping(t);
    }

    fn stats(&self) -> PlannerStats {
        let mut s = self
            .base
            .as_ref()
            .map(|b| b.stats_snapshot(self.q.memory_bytes()))
            .unwrap_or_default();
        s.q_states = self.q.state_count();
        s
    }

    fn export_snapshot(&self) -> serde::Value {
        let Some(base) = self.base.as_ref() else {
            return serde::Value::Null;
        };
        LearningSnapshot {
            base: base.export_base_snapshot(),
            q: self.q.export_snapshot(),
        }
        .serialize()
    }

    fn import_snapshot(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snap = LearningSnapshot::deserialize(state)?;
        let base = self
            .base
            .as_mut()
            .ok_or_else(|| serde::Error::msg("ATP: import before init"))?;
        base.import_base_snapshot(&snap.base);
        self.q.import_snapshot(&snap.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tprw_warehouse::{ItemId, LayoutConfig, ScenarioSpec, WorkloadConfig};

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
            backlog_depth: 0,
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
        planner.q.update(ap, ar, 1, -1e6, 30);
        let idle: Vec<RobotId> = inst.robots.iter().map(|r| r.id).collect();
        let selectable = vec![inst.racks[0].id];
        let world = world_of(&inst, &idle, &selectable);
        let plans = planner.plan(&world).unwrap();
        assert!(plans.is_empty(), "policy defers when request value is bad");
    }
}
