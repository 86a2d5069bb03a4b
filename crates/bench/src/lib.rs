//! Shared harness for the experiment reproduction.
//!
//! Every table and figure of the paper's Sec. VII maps to one entry point
//! here and one `repro` subcommand (listed in the crate README).
//! Experiments run the four Table II datasets at a
//! configurable `scale` (`REPRO_SCALE`, default 0.02 ≈ laptop-minutes;
//! `1.0` = full paper scale) and compare the five planners. Mirroring the
//! paper, LEF and ILP are skipped on Real-Large ("too slow to execute",
//! Table III) unless the scale is tiny.

use eatp_core::{planner_by_name, EatpConfig};
use serde::Serialize;
use tprw_simulator::{run_simulation, EngineConfig, SimulationReport};
use tprw_warehouse::{Dataset, DisruptionConfig, ScenarioSpec};

/// Default reproduction scale when `REPRO_SCALE` is unset.
pub const DEFAULT_SCALE: f64 = 0.02;

/// Default seed (scenario generation and RL policy).
pub const DEFAULT_SEED: u64 = 7;

/// Read the reproduction scale from the environment.
pub fn scale_from_env() -> f64 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(DEFAULT_SCALE)
}

/// Whether the paper could not run `planner` on `dataset` (Table III's "−"
/// entries). We honour the same skip above a scale threshold: these
/// baselines are quadratic-ish in fleet size and dominate wall time long
/// before the interesting planners do.
pub fn skipped_in_paper(planner: &str, dataset: Dataset, scale: f64) -> bool {
    matches!(planner, "LEF" | "ILP") && dataset == Dataset::RealLarge && scale > 0.01
}

/// Run one (dataset, planner) cell.
///
/// # Panics
///
/// Panics if the dataset fails to build or the planner name is unknown —
/// both are programming errors in the harness.
pub fn run_cell(dataset: Dataset, planner_name: &str, scale: f64, seed: u64) -> SimulationReport {
    let config = EatpConfig::default();
    run_cell_with(dataset, planner_name, scale, seed, &config)
}

/// [`run_cell`] with an explicit planner configuration (ablations).
pub fn run_cell_with(
    dataset: Dataset,
    planner_name: &str,
    scale: f64,
    seed: u64,
    config: &EatpConfig,
) -> SimulationReport {
    let instance = dataset
        .spec(scale, seed)
        .build()
        .unwrap_or_else(|e| panic!("{} failed to build: {e}", dataset.name()));
    let mut planner =
        planner_by_name(planner_name, config).unwrap_or_else(|| panic!("unknown {planner_name}"));
    run_simulation(&instance, &mut *planner, &EngineConfig::default())
}

/// The disruption wave used by the `repro disrupted` sweep, sized to one
/// dataset cell: breakdowns hit about a quarter of the (scaled) fleet, a
/// handful of aisle blockades and one station closure land inside an
/// early-run window, so even laptop-scale cells feel the wave while robots
/// are still mid-cycle. Everything recovers well before the engine's
/// horizon; expansion from the spec's seed keeps the schedule reproducible.
pub fn disruption_wave(spec: &ScenarioSpec) -> DisruptionConfig {
    DisruptionConfig {
        breakdowns: (spec.n_robots / 4).max(1),
        breakdown_ticks: (40, 120),
        blockades: (spec.n_racks / 12).clamp(2, 10),
        blockade_ticks: (60, 160),
        closures: 1,
        closure_ticks: (60, 140),
        removals: (spec.n_racks / 25).min(4),
        removal_ticks: (40, 120),
        window: (20, 200),
    }
}

/// [`run_cell_with`] under the [`disruption_wave`]: the same dataset cell
/// with a fleet-scaled wave of breakdowns, blockades, a closure and rack
/// removals folded into the schedule.
pub fn run_cell_disrupted(
    dataset: Dataset,
    planner_name: &str,
    scale: f64,
    seed: u64,
    config: &EatpConfig,
) -> SimulationReport {
    let mut spec = dataset.spec(scale, seed);
    spec.disruptions = Some(disruption_wave(&spec));
    spec.name = format!("{}+wave", spec.name);
    let instance = spec
        .build()
        .unwrap_or_else(|e| panic!("{} failed to build disrupted: {e}", dataset.name()));
    let mut planner =
        planner_by_name(planner_name, config).unwrap_or_else(|| panic!("unknown {planner_name}"));
    run_simulation(&instance, &mut *planner, &EngineConfig::default())
}

/// Write a JSON artifact under `results/` (ignored on failure: the harness
/// must still print its tables on read-only checkouts).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let _ = std::fs::create_dir_all("results");
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(format!("results/{name}.json"), json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing_defaults() {
        // No env manipulation (tests run in parallel): defaults only.
        let s = scale_from_env();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn paper_skips_match_table3() {
        assert!(skipped_in_paper("LEF", Dataset::RealLarge, 0.5));
        assert!(skipped_in_paper("ILP", Dataset::RealLarge, 0.5));
        assert!(!skipped_in_paper("NTP", Dataset::RealLarge, 0.5));
        assert!(!skipped_in_paper("EATP", Dataset::RealLarge, 0.5));
        assert!(!skipped_in_paper("ILP", Dataset::SynA, 0.5));
        // Tiny scales run everything.
        assert!(!skipped_in_paper("ILP", Dataset::RealLarge, 0.005));
    }

    #[test]
    fn run_cell_smoke() {
        let report = run_cell(Dataset::SynA, "EATP", 0.004, 3);
        assert!(report.completed);
        assert_eq!(report.executed_conflicts, 0);
    }

    #[test]
    fn run_cell_disrupted_smoke() {
        let report = run_cell_disrupted(Dataset::SynA, "EATP", 0.004, 3, &EatpConfig::default());
        assert!(report.completed, "the wave must still drain");
        assert!(report.events_applied > 0, "the wave must actually fire");
        assert_eq!(report.disruption_violations, 0);
        assert_eq!(report.executed_conflicts, 0);
    }
}
