//! PR-2 invariant, kept as data: the engine's one execution path (one
//! `commit_legs` batch per tick, flat distance oracle, fast validator) must
//! reproduce what the serial pre-change path (per-leg `plan_leg`
//! retain-loops, seed oracle, seed validator) produced — batching was a
//! performance refactor, not a behaviour change.
//!
//! The serial path is deleted (`docs/adr/ADR-006-one-execution-path.md`);
//! its verdict is `results/fingerprints_batched_equivalence.txt`, recorded
//! by running this matrix through it at the last commit that had it.
//!
//! Every planner runs on walled (obstructed — exercising the BFS oracle)
//! and open instances across seeds; a single-picker fleet forces return-leg
//! contention so the one-undock-per-station group rule is exercised. The
//! last five lines are `tests/disruption.rs`'s `disrupted_spec(59)`:
//! replanning and invalidation are engine semantics, not artifacts of the
//! batching refactor.

use eatp::core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};
use std::fmt::Write as _;

mod common;
use common::{assert_golden, disrupted_spec};

/// One `"<case> <planner> {fingerprint:?}"` line per run, as recorded by
/// the serial path.
const GOLDEN: &str = include_str!("../results/fingerprints_batched_equivalence.txt");

fn spec(walled: bool, pickers: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("equiv-{walled}-{pickers}-{seed}"),
        layout: LayoutConfig {
            width: 28,
            height: 20,
            border_walls: walled,
            ..LayoutConfig::default()
        },
        n_racks: 12,
        n_robots: 5,
        n_pickers: pickers,
        workload: WorkloadConfig::poisson(40, 0.8),
        disruptions: None,
        seed,
    }
}

fn record(out: &mut String, spec: &ScenarioSpec, name: &str) {
    let inst = spec.build().unwrap();
    let mut p = planner_by_name(name, &EatpConfig::default()).unwrap();
    let report = run_simulation(&inst, &mut *p, &EngineConfig::default());
    assert!(
        report.completed,
        "{name} on {} must finish to be meaningful",
        spec.name
    );
    let fingerprint = report.deterministic_fingerprint();
    writeln!(out, "{} {name} {fingerprint:?}", spec.name).unwrap();
}

#[test]
fn batched_equals_serial_for_every_planner() {
    let mut actual = String::new();
    for name in PLANNER_NAMES {
        for walled in [false, true] {
            // One picker forces same-station return contention (the
            // LegRequest group rule); three is the spread-out case.
            for pickers in [1usize, 3] {
                for seed in [11u64, 97] {
                    record(&mut actual, &spec(walled, pickers, seed), name);
                }
            }
        }
    }
    for name in PLANNER_NAMES {
        record(&mut actual, &disrupted_spec(59), name);
    }

    // The golden lines are the serial path's recorded fingerprints.
    assert_golden("fingerprints_batched_equivalence.txt", GOLDEN, &actual);
}
