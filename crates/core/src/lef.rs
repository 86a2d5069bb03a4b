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
use crate::planner::{AssignmentPlan, PlannerStats};
use crate::shell::{Shell, Strategy};
use crate::world::WorldView;
use tprw_pathfinding::SpatioTemporalGraph;
use tprw_warehouse::{Instance, RackId, Tick};

/// Baseline: earliest-emerged-item-first selection.
pub type LeastExpirationFirst = Shell<EarliestItemFirst>;

/// The [`LeastExpirationFirst`] strategy. Its table is derived from the
/// instance at `init`, so the base snapshot is the whole canonical state.
pub struct EarliestItemFirst {
    /// Arrival tick per item id (from the instance's item stream), used to
    /// find each rack's oldest pending item.
    arrivals: Vec<Tick>,
}

impl EarliestItemFirst {
    /// Emergence tick of a rack's oldest pending item. Pending lists are
    /// append-ordered by arrival, so the front is the oldest. Pregenerated
    /// items come from the instance-derived table, live-landed items (dense
    /// ids past the pregenerated range) from [`WorldView::live_arrivals`].
    fn oldest_pending(&self, world: &WorldView<'_>, rack: RackId) -> Tick {
        world.rack(rack).pending.first().map_or(Tick::MAX, |item| {
            self.arrivals
                .get(item.index())
                .copied()
                .unwrap_or_else(|| world.live_arrivals[item.index() - self.arrivals.len()])
        })
    }
}

impl Strategy for EarliestItemFirst {
    type Resv = SpatioTemporalGraph;
    const NAME: &'static str = "LEF";

    fn new(_config: &EatpConfig) -> Self {
        Self {
            arrivals: Vec::new(),
        }
    }

    fn bind(&mut self, instance: &Instance) {
        self.arrivals = instance.items.iter().map(|i| i.arrival).collect();
    }

    fn select(
        &mut self,
        base: &mut PlannerBase<SpatioTemporalGraph>,
        world: &WorldView<'_>,
    ) -> Vec<AssignmentPlan> {
        let cap = world.idle_robots.len() * 2;
        let selected: Vec<RackId> = base.timed_selection(|_| {
            let mut ranked: Vec<(Tick, RackId)> = world
                .selectable_racks
                .iter()
                .map(|&rid| (self.oldest_pending(world, rid), rid))
                .collect();
            ranked.sort_unstable();
            ranked.into_iter().take(cap).map(|(_, r)| r).collect()
        });
        match_and_plan(base, world, selected.into_iter().map(|r| (r, None)))
    }

    fn add_stats(&self, stats: &mut PlannerStats) {
        stats.memory_bytes += self.arrivals.len() * std::mem::size_of::<Tick>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use tprw_warehouse::{LayoutConfig, RobotId, ScenarioSpec, WorkloadConfig};

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
            live_arrivals: &[],
        };
        assert_eq!(
            planner.strategy.oldest_pending(&world, inst.racks[0].id),
            Tick::MAX
        );
    }

    #[test]
    fn stats_include_arrival_table() {
        let inst = instance();
        let mut planner = LeastExpirationFirst::new(EatpConfig::default());
        planner.init(&inst);
        assert!(planner.stats().memory_bytes >= inst.items.len() * 8);
    }
}
