//! The one [`Planner`] implementation.
//!
//! The paper's five planners are five rack-selection strategies over one
//! shared path-finding layer. [`Shell`] owns what they share — the config
//! and the [`PlannerBase`] built at `init` — and implements [`Planner`]
//! once; a [`Strategy`] supplies only what the paper distinguishes: the
//! reservation backend, whether the Sec. VI structures are built, the
//! selection step, and any canonical state beyond the base slice.

use crate::base::{BaseSnapshot, PlannerBase, ReservationBackend};
use crate::config::EatpConfig;
use crate::planner::{
    AssignmentPlan, LegRequest, Planner, PlannerError, PlannerEvent, PlannerStats, TentativeLeg,
};
use crate::world::WorldView;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::Path;
use tprw_warehouse::{GridPos, Instance, RobotId, Tick};

/// What distinguishes one paper planner from another.
pub trait Strategy {
    /// The structure path finding reserves into (STG or CDT).
    type Resv: ReservationBackend;
    /// Paper-facing name ([`Planner::name`]).
    const NAME: &'static str;
    /// Whether `init` builds the Sec. VI-A K-nearest-rack index.
    const SEC_VI: bool = false;

    /// The strategy's state before `init`.
    fn new(config: &EatpConfig) -> Self;

    /// Derive instance-bound tables at `init` time.
    fn bind(&mut self, _instance: &Instance) {}

    /// One timestamp's selection step and pickup planning. Called only when
    /// the world has work.
    fn select(
        &mut self,
        base: &mut PlannerBase<Self::Resv>,
        world: &WorldView<'_>,
    ) -> Vec<AssignmentPlan>;

    /// Fold the strategy's own structures into MC and the Q-state count.
    fn add_stats(&self, _stats: &mut PlannerStats) {}

    /// Compose the checkpoint payload around the shared base slice.
    fn export(&self, base: BaseSnapshot) -> serde::Value {
        base.serialize()
    }

    /// Restore the strategy's own canonical state from a payload written by
    /// [`Strategy::export`] and hand back its base slice.
    fn import(&mut self, state: &serde::Value) -> Result<BaseSnapshot, serde::Error> {
        BaseSnapshot::deserialize(state)
    }
}

/// A planner: the shared machinery around one [`Strategy`].
pub struct Shell<S: Strategy> {
    config: EatpConfig,
    pub(crate) base: Option<PlannerBase<S::Resv>>,
    pub(crate) strategy: S,
}

impl<S: Strategy> Shell<S> {
    /// Build an (uninitialized) planner; call [`Planner::init`] before use.
    pub fn new(config: EatpConfig) -> Self {
        Self {
            strategy: S::new(&config),
            config,
            base: None,
        }
    }
}

/// The base of an initialized planner. Takes the field, not the shell, so
/// `plan` can hold the strategy beside it.
fn bound<R: ReservationBackend>(base: &mut Option<PlannerBase<R>>) -> &mut PlannerBase<R> {
    base.as_mut().expect("init() must be called first")
}

impl<S: Strategy> Planner for Shell<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn init(&mut self, instance: &Instance) {
        self.strategy.bind(instance);
        self.base = Some(PlannerBase::new(instance, self.config.clone(), S::SEC_VI));
    }

    fn plan(&mut self, world: &WorldView<'_>) -> Result<Vec<AssignmentPlan>, PlannerError> {
        let base = bound(&mut self.base);
        if !world.has_work() {
            return Ok(Vec::new());
        }
        Ok(self.strategy.select(base, world))
    }

    fn plan_leg(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park: bool,
    ) -> Option<Path> {
        bound(&mut self.base).plan_and_reserve(robot, from, to, start, park)
    }

    fn commit_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        _tentative: &mut Vec<TentativeLeg>,
        results: &mut Vec<Option<Path>>,
    ) -> Result<(), PlannerError> {
        bound(&mut self.base).commit_legs(requests, start, results);
        Ok(())
    }

    fn on_dock(&mut self, robot: RobotId) {
        bound(&mut self.base).on_dock(robot);
    }

    fn on_event(&mut self, event: PlannerEvent<'_>) {
        bound(&mut self.base).on_event(event);
    }

    fn housekeeping(&mut self, t: Tick) {
        bound(&mut self.base).housekeeping(t);
    }

    fn stats(&self) -> PlannerStats {
        let mut stats = self
            .base
            .as_ref()
            .map(|b| b.stats_snapshot())
            .unwrap_or_default();
        self.strategy.add_stats(&mut stats);
        stats
    }

    fn export_snapshot(&self) -> serde::Value {
        self.base.as_ref().map_or(serde::Value::Null, |b| {
            self.strategy.export(b.export_base_snapshot())
        })
    }

    fn import_snapshot(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let base = self
            .base
            .as_mut()
            .ok_or_else(|| serde::Error::msg(format!("{}: import before init", S::NAME)))?;
        base.import_base_snapshot(&self.strategy.import(state)?)
    }
}

#[cfg(test)]
mod tests {
    use crate::{planner_by_name, EatpConfig, PLANNER_NAMES};
    use tprw_warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

    #[test]
    fn payload_shapes_are_pinned_and_import_before_init_is_an_error() {
        let inst = ScenarioSpec {
            name: "shell-test".into(),
            layout: LayoutConfig::sized(24, 16),
            n_racks: 8,
            n_robots: 3,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(10, 1.0),
            disruptions: None,
            seed: 5,
        }
        .build()
        .unwrap();
        let base_keys = ["resv", "stats", "last_gc"];
        for name in PLANNER_NAMES {
            let mut planner = planner_by_name(name, &EatpConfig::default()).unwrap();
            assert_eq!(planner.export_snapshot(), serde::Value::Null);
            planner.init(&inst);
            let payload = planner.export_snapshot();
            let serde::Value::Object(fields) = &payload else {
                panic!("{name}: payload must be an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let expected: &[&str] = match name {
                "NTP" | "LEF" => &base_keys,
                "ILP" => &["base", "total_nodes"],
                _ => &["base", "q"],
            };
            assert_eq!(keys, expected, "{name}: top-level payload keys");

            let mut fresh = planner_by_name(name, &EatpConfig::default()).unwrap();
            let err = fresh
                .import_snapshot(&payload)
                .expect_err("not initialised");
            assert!(err.0.contains("import before init"), "{name}: {err:?}");
            fresh.init(&inst);
            fresh
                .import_snapshot(&payload)
                .expect("own payload imports");
            assert_eq!(fresh.export_snapshot(), payload, "{name}: round-trip");
        }
    }
}
