//! Scenario shared by `tests/disruption.rs` and the golden fingerprints of
//! `tests/batched_equivalence.rs`.

use eatp::warehouse::{DisruptionConfig, LayoutConfig, ScenarioSpec, WorkloadConfig};

/// A walled mid-size floor hit by all four disruption kinds at once.
pub fn disrupted_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("disrupted-{seed}"),
        layout: LayoutConfig {
            width: 32,
            height: 24,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 16,
        n_robots: 8,
        n_pickers: 3,
        workload: WorkloadConfig::poisson(60, 0.7),
        disruptions: Some(DisruptionConfig {
            breakdowns: 3,
            breakdown_ticks: (60, 140),
            blockades: 3,
            blockade_ticks: (80, 160),
            closures: 1,
            closure_ticks: (60, 120),
            removals: 2,
            removal_ticks: (60, 140),
            window: (20, 260),
        }),
        seed,
    }
}
