//! # eatp-core — the paper's planners
//!
//! Implements the TPRW problem (Definition 5) and all five task planners
//! evaluated in the paper:
//!
//! | Planner | Paper | Selection | Reservation | Extras |
//! |---------|-------|-----------|-------------|--------|
//! | [`ntp::NaiveTaskPlanner`] | Alg. 1 (ext. of \[7\]) | most-slack picker first | STG | — |
//! | [`lef::LeastExpirationFirst`] | \[17\] | earliest emerged item first | STG | — |
//! | [`ilp::IlpPlanner`] | \[12\] | 0/1 ILP with picker status | STG | B&B + Hungarian warm start |
//! | [`atp::AdaptiveTaskPlanner`] | Alg. 2 | Q-learning (Sec. V) | STG | δ-bootstrap |
//! | [`eatp::EfficientAdaptiveTaskPlanner`] | Alg. 3 | Q-learning, flip-side (Sec. VI-A) | CDT | K-nearest index + path cache |
//!
//! Each is a [`shell::Shell`] — the one [`planner::Planner`] implementation —
//! around the [`shell::Strategy`] its file defines; the simulator drives them once
//! per timestamp with a [`world::WorldView`] and executes the returned
//! pickup assignments, asking back for delivery/return legs as the
//! fulfilment cycle progresses. Selection and path-finding work are timed
//! separately (the STC/PTC metrics of Sec. VII) and reservation/caching
//! structures report their live size (MC).
//!
//! # Anticipation model (disruption-aware selection)
//!
//! Under a dynamic world (`tprw_warehouse::events`) the planners not only
//! *react* to disruptions (cache invalidation, replanning) but can
//! *anticipate* them during rack selection, behind
//! [`config::EatpConfig::anticipation`]:
//!
//! 1. every applied event feeds a per-planner
//!    [`outlook::DisruptionOutlook`] — live + historical blockade pressure
//!    per cell, closure state and trend per station, removal state and
//!    churn per rack;
//! 2. each candidate rack is charged an **anticipation penalty**: live
//!    blockades on its delivery corridor (and, for EATP's flip side, the
//!    robot's approach corridor) weighted by the distance oracle's actual
//!    detour, a *trend* term for historically-blockaded-but-open corridor
//!    cells, plus station-risk and rack-churn terms. Live membership uses
//!    a Manhattan band (post-blockade paths route *around* live blockades,
//!    so probing them would be vacuous); trend membership is exact where
//!    the EATP path cache memoizes the pair (per-entry cell bloom) and the
//!    band otherwise;
//! 3. selection stably reorders its candidate list by ascending penalty
//!    (`base::PlannerBase::reorder_by_anticipation`), so robots commit to
//!    clean corridors and healthy stations first. The number of promoted
//!    racks is reported as `anticipation_hits`.
//!
//! With the flag off — or on a clean world, where every penalty is zero —
//! selection is bit-identical to the reactive-only behaviour
//! (equivalence-pinned by `tests/anticipation.rs`); on blockade-heavy
//! floors aware EATP is no worse than reactive-only in makespan (gated by
//! the same file, on a small floor and on the full-size blockade storm).
//!
//! # Leg planning is serial
//!
//! A tick's delivery/return legs are planned as one batch, strictly in
//! request order, by [`planner::Planner::commit_legs`]. The
//! [`planner::Planner::query_legs`] phase the engine calls first has no
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
pub mod outlook;
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
pub use outlook::DisruptionOutlook;
pub use planner::{
    AssignmentPlan, InjectedFault, LegRequest, Planner, PlannerError, PlannerEvent, PlannerStats,
};
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
