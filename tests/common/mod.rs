//! Scenarios and golden-file plumbing shared by the integration tests. Each
//! test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use eatp::core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::{DisruptionConfig, LayoutConfig, ScenarioSpec, WorkloadConfig};
use std::fmt::Write as _;

pub mod scenarios;

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

/// Runs every planner on each of [`scenarios::disrupted_scenarios`] under
/// `engine` and returns one `"<scenario> <planner> {fingerprint:?}"` line
/// per run, in the row order of the committed soak files. Every run must be
/// violation- and conflict-free, and must have degraded (`degraded_ticks >
/// 0`) exactly when `expect_degraded`.
pub fn soak_fingerprints(engine: &EngineConfig, expect_degraded: bool) -> String {
    let config = EatpConfig::default();
    let mut out = String::new();
    for scenario in scenarios::disrupted_scenarios() {
        let s = scenario.name;
        scenario.instance.validate().unwrap();
        for name in PLANNER_NAMES {
            let mut planner = planner_by_name(name, &config).unwrap();
            let report = run_simulation(&scenario.instance, &mut *planner, engine);
            assert_eq!(report.disruption_violations, 0, "{name} on {s}");
            assert_eq!(report.executed_conflicts, 0, "{name} on {s}");
            assert_eq!(
                report.degraded_ticks > 0,
                expect_degraded,
                "{name} on {s}: {} degraded ticks",
                report.degraded_ticks
            );
            let fingerprint = report.deterministic_fingerprint();
            writeln!(out, "{s} {name} {fingerprint:?}").unwrap();
        }
    }
    out
}

/// Asserts that `actual` reproduces `golden`, the `include_str!`-ed
/// `results/<file>`, line for line. On a mismatch the actual lines land in
/// `target/tmp/<file>` and the diverged rows are named, so an intended
/// behaviour change regenerates the golden file with one `cp`.
pub fn assert_golden(file: &str, golden: &str, actual: &str) {
    if actual == golden {
        return;
    }
    let path = format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, actual).expect("write the actual fingerprints");
    let diverged: Vec<&str> = actual
        .lines()
        .zip(golden.lines())
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.split(" DeterministicFingerprint").next().unwrap_or(a))
        .collect();
    panic!(
        "{} of {} runs diverged from results/{file} ({} lines produced): {diverged:?}\n\
         actual lines written to {path}",
        diverged.len(),
        golden.lines().count(),
        actual.lines().count()
    );
}
