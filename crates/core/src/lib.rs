//! # eatp-core — the paper's planners
//!
//! Implements the TPRW problem (Definition 5) and all five task planners
//! evaluated in the paper:
//!
//! | Planner | Paper | Selection | Reservation | Extras |
//! |---------|-------|-----------|-------------|--------|
//! | [`ntp::NaiveTaskPlanner`] | Alg. 1 (ext. of \[7\]) | most-slack picker first | STG | — |
//! | [`lef::LeastExpirationFirst`] | \[17\] | earliest emerged item first | STG | — |
//! | [`ilp::IlpPlanner`] | \[12\] | 0/1 ILP with picker status | STG | blocks solved as a min-cost flow |
//! | [`atp::AdaptiveTaskPlanner`] | Alg. 2 | Q-learning (Sec. V) | STG | δ-bootstrap |
//! | [`eatp::EfficientAdaptiveTaskPlanner`] | Alg. 3 | Q-learning, flip-side (Sec. VI-A) | CDT | K-nearest index |
//!
//! Each is a [`shell::Shell`] — the one [`planner::Planner`] implementation —
//! around the [`shell::Strategy`] its file defines; the simulator drives them once
//! per timestamp with a [`world::WorldView`] and executes the returned
//! pickup assignments, asking back for delivery/return legs as the
//! fulfilment cycle progresses. Selection and path-finding work are timed
//! separately (the STC/PTC metrics of Sec. VII) and reservation/index
//! structures report their live size (MC). Every planner plans its legs
//! with the same A*: the paper's cache-aided tail for EATP (Sec. VI-B) is
//! not built (`docs/adr/ADR-019-one-leg-search.md`).
//!
//! # Disruptions are handled reactively
//!
//! Under a dynamic world (`tprw_warehouse::events`) the planners *react*
//! to disruptions: every applied event reaches
//! [`base::PlannerBase::apply_disruption`], which brings the grid copy and
//! distance oracle in line with the mutated floor, and the engine replans
//! frozen legs. The oracle answers only Eq. 2's delivery term
//! ([`base::PlannerBase::delivery`]): by Manhattan while the free floor is
//! a rectangle, by one BFS field per station otherwise
//! (`docs/adr/ADR-022-station-fields.md`). The K-nearest index is static
//! (`docs/adr/ADR-021-static-knn.md`). Selection itself is
//! the paper's rule for each planner, with no disruption term;
//! `docs/adr/ADR-011-one-selection-policy.md` records why the optional
//! disruption-aware reordering was removed and where to restore it from.
//!
//! # Leg planning is serial
//!
//! A tick's delivery/return legs are planned as one batch, strictly in
//! request order, by [`planner::Planner::commit_legs`], which the engine's
//! per-tick leg pass calls directly.
//! The engine never calls [`planner::Planner::query_legs`], which has no
//! implementor: speculating the batch on worker threads was measured
//! slower on every workload and deleted; see
//! `docs/adr/ADR-005-serial-leg-planning.md` for the numbers and for what
//! would have to be true before trying again.

pub mod assignment;
pub mod badcase;
pub mod base;
pub mod config;
pub mod eatp;
pub mod ilp;
pub mod lef;
pub mod makespan;
pub mod ntp;
pub mod planner;
pub mod qlearning;
pub mod shell;
pub mod world;

pub use atp::AdaptiveTaskPlanner;
pub use config::{EatpConfig, RlConfig};
pub use eatp::EfficientAdaptiveTaskPlanner;
pub use ilp::IlpPlanner;
pub use lef::LeastExpirationFirst;
pub use ntp::NaiveTaskPlanner;
pub use planner::{AssignmentPlan, LegRequest, Planner, PlannerEvent, PlannerStats};
pub use world::WorldView;

pub mod atp;

/// Construct a boxed planner by its paper name (`"NTP"`, `"LEF"`, `"ILP"`,
/// `"ATP"`, `"EATP"`); `None` for unknown names.
pub fn planner_by_name(name: &str, config: &EatpConfig) -> Option<Box<dyn Planner>> {
    match name {
        "NTP" => Some(Box::new(NaiveTaskPlanner::new(config.clone()))),
        "LEF" => Some(Box::new(LeastExpirationFirst::new(config.clone()))),
        "ILP" => Some(Box::new(IlpPlanner::new(config.clone()))),
        "ATP" => Some(Box::new(AdaptiveTaskPlanner::new(config.clone()))),
        "EATP" => Some(Box::new(EfficientAdaptiveTaskPlanner::new(config.clone()))),
        _ => None,
    }
}

/// The five paper planner names in Table III order.
pub const PLANNER_NAMES: [&str; 5] = ["NTP", "LEF", "ILP", "ATP", "EATP"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_factory_knows_all_names() {
        let config = EatpConfig::default();
        for name in PLANNER_NAMES {
            let p =
                planner_by_name(name, &config).unwrap_or_else(|| panic!("missing planner {name}"));
            assert_eq!(p.name(), name);
        }
        assert!(planner_by_name("nope", &config).is_none());
    }
}
