//! Least Expiration First planning (baseline \[17\]).
//!
//! A spatiotemporal task-selection strategy from spatial crowdsourcing:
//! tasks closest to expiring are served first. TPRW items never expire, so —
//! following the paper's adaptation — *"by assuming all items with the same
//! degree of tolerance of delay, this algorithm will select racks whose
//! items emerged earliest"*.

use crate::assignment::match_and_plan;
use crate::base::PlannerBase;
use crate::config::EatpConfig;
use crate::planner::{
    AssignmentPlan, InjectedFault, LegRequest, Planner, PlannerError, PlannerEvent, PlannerStats,
    TentativeLeg,
};
use crate::world::WorldView;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::{Path, SpatioTemporalGraph};
use tprw_warehouse::{GridPos, Instance, RackId, RobotId, Tick};

/// Baseline: earliest-emerged-item-first selection.
pub struct LeastExpirationFirst {
    config: EatpConfig,
    base: Option<PlannerBase<SpatioTemporalGraph>>,
    /// Arrival tick per item id (from the instance's item stream), used to
    /// find each rack's oldest pending item.
    arrivals: Vec<Tick>,
}

impl LeastExpirationFirst {
    /// Build an (uninitialized) planner; call [`Planner::init`] before use.
    pub fn new(config: EatpConfig) -> Self {
        Self {
            config,
            base: None,
            arrivals: Vec::new(),
        }
    }

    /// Emergence tick of a rack's oldest pending item. Pending lists are
    /// append-ordered by arrival, so the front is the oldest. (Selection
    /// inlines this for borrow-splitting; kept public-in-crate for tests.)
    #[cfg_attr(not(test), allow(dead_code))]
    fn oldest_pending(&self, world: &WorldView<'_>, rack: RackId) -> Tick {
        world
            .rack(rack)
            .pending
            .first()
            .map(|item| arrival_of(&self.arrivals, world, item.index()))
            .unwrap_or(Tick::MAX)
    }
}

/// Arrival tick of item `idx`: pregenerated items come from the planner's
/// instance-derived table, live-landed items (dense ids past the
/// pregenerated range) from the world's [`WorldView::live_arrivals`].
fn arrival_of(arrivals: &[Tick], world: &WorldView<'_>, idx: usize) -> Tick {
    arrivals
        .get(idx)
        .copied()
        .unwrap_or_else(|| world.live_arrivals[idx - arrivals.len()])
}

impl Planner for LeastExpirationFirst {
    fn name(&self) -> &'static str {
        "LEF"
    }

    fn init(&mut self, instance: &Instance) {
        self.arrivals = instance.items.iter().map(|i| i.arrival).collect();
        self.base = Some(PlannerBase::new(
            instance,
            self.config.clone(),
            false,
            false,
        ));
    }

    fn plan(&mut self, world: &WorldView<'_>) -> Result<Vec<AssignmentPlan>, PlannerError> {
        if let Some(e) = self
            .base
            .as_mut()
            .expect("init() must be called first")
            .take_armed_decision_fault()
        {
            return Err(e);
        }
        if !world.has_work() {
            return Ok(Vec::new());
        }
        let cap = world.idle_robots.len() * 2;
        // Split borrows: selection needs &self.arrivals, planning needs
        // &mut base.
        let mut selected: Vec<RackId> = Vec::new();
        {
            let arrivals = &self.arrivals;
            let base = self.base.as_mut().expect("init() must be called first");
            base.timed_selection(|base| {
                let mut ranked: Vec<(Tick, RackId)> = world
                    .selectable_racks
                    .iter()
                    .map(|&rid| {
                        let oldest = world
                            .rack(rid)
                            .pending
                            .first()
                            .map(|item| arrival_of(arrivals, world, item.index()))
                            .unwrap_or(Tick::MAX);
                        (oldest, rid)
                    })
                    .collect();
                ranked.sort_unstable();
                selected = ranked.into_iter().take(cap).map(|(_, r)| r).collect();
                // Disruption-aware pass (no-op unless enabled + disrupted).
                base.reorder_by_anticipation(world, None, &mut selected);
            });
        }
        let base = self.base.as_mut().expect("initialized");
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
        self.base
            .as_ref()
            .map(|b| b.stats_snapshot(self.arrivals.len() * std::mem::size_of::<Tick>()))
            .unwrap_or_default()
    }

    // `arrivals` is derived from the instance at `init` time, so the base
    // snapshot is the whole canonical state.
    fn export_snapshot(&self) -> serde::Value {
        self.base
            .as_ref()
            .map_or(serde::Value::Null, |b| b.export_base_snapshot().serialize())
    }

    fn import_snapshot(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snap = crate::base::BaseSnapshot::deserialize(state)?;
        let base = self
            .base
            .as_mut()
            .ok_or_else(|| serde::Error::msg("LEF: import before init"))?;
        base.import_base_snapshot(&snap);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tprw_warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

    fn instance() -> Instance {
        ScenarioSpec {
            name: "lef-test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 10,
            n_robots: 3,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(40, 1.0),
            disruptions: None,
            seed: 9,
        }
        .build()
        .unwrap()
    }

    #[test]
    fn earliest_item_rack_first() {
        let mut inst = instance();
        // Give rack 0 a *later* item than rack 1.
        // Items are sorted by arrival; use the actual item stream.
        let late_item = *inst.items.last().unwrap();
        let early_item = *inst.items.first().unwrap();
        inst.racks[0].pending.push(late_item.id);
        inst.racks[0].pending_time = late_item.processing;
        inst.racks[1].pending.push(early_item.id);
        inst.racks[1].pending_time = early_item.processing;

        let mut planner = LeastExpirationFirst::new(EatpConfig::default());
        planner.init(&inst);
        let idle: Vec<RobotId> = vec![inst.robots[0].id];
        let selectable = vec![inst.racks[0].id, inst.racks[1].id];
        let world = WorldView {
            t: late_item.arrival + 1,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            backlog_depth: 0,
            live_arrivals: &[],
        };
        let plans = planner.plan(&world).unwrap();
        assert_eq!(plans.len(), 1, "single idle robot");
        assert_eq!(
            plans[0].rack, inst.racks[1].id,
            "rack with the earliest item wins"
        );
    }

    #[test]
    fn oldest_pending_empty_is_max() {
        let inst = instance();
        let planner = {
            let mut p = LeastExpirationFirst::new(EatpConfig::default());
            p.init(&inst);
            p
        };
        let world = WorldView {
            t: 0,
            racks: &inst.racks,
            pickers: &inst.pickers,
            robots: &inst.robots,
            idle_robots: &[],
            selectable_racks: &[],
            backlog_depth: 0,
            live_arrivals: &[],
        };
        assert_eq!(planner.oldest_pending(&world, inst.racks[0].id), Tick::MAX);
    }

    #[test]
    fn stats_include_arrival_table() {
        let inst = instance();
        let mut planner = LeastExpirationFirst::new(EatpConfig::default());
        planner.init(&inst);
        assert!(planner.stats().memory_bytes >= inst.items.len() * 8);
    }
}
