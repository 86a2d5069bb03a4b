//! Acceptance invariants of disruption-*aware* selection (the anticipation
//! layer behind `EatpConfig::anticipation`).
//!
//! * **Clean-world equivalence** — with no disruption events, a flag-on run
//!   is *bit-identical* to a flag-off run for every planner: the outlook
//!   never gains a signal, every penalty is zero, and the stable reorder is
//!   a strict no-op. This is what makes the layer safe to ship default-off.
//! * **Safety under the flag** — an aware run obeys every disruption
//!   invariant the reactive run does (violations pinned to 0, conflict-free
//!   execution), because anticipation only *reorders* candidates inside the
//!   already-filtered selectable pool.
//! * **The anticipation term actually fires** — on a blockade-heavy floor
//!   the aware planners report `anticipation_hits > 0` and EATP's makespan
//!   is no worse than reactive-only, on a small floor and on the full-size
//!   blockade storm (`tests/common/scenarios.rs`).

use eatp::core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use eatp::simulator::{run_simulation, EngineConfig, SimulationReport};
use eatp::warehouse::{DisruptionConfig, Instance, LayoutConfig, ScenarioSpec, WorkloadConfig};

mod common;
use common::scenarios::disrupted_blockade_storm;

fn clean_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("anticipation-clean-{seed}"),
        layout: LayoutConfig {
            width: 32,
            height: 24,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 16,
        n_robots: 8,
        n_pickers: 3,
        workload: WorkloadConfig::poisson(50, 0.7),
        disruptions: None,
        seed,
    }
}

/// A blockade-heavy floor: many corridors close mid-run, long enough that
/// committing a robot toward a blockaded corridor is a real mistake.
fn blockade_heavy_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("anticipation-blockades-{seed}"),
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
            breakdowns: 0,
            breakdown_ticks: (1, 1),
            blockades: 7,
            blockade_ticks: (150, 300),
            closures: 0,
            closure_ticks: (1, 1),
            removals: 0,
            removal_ticks: (1, 1),
            window: (20, 260),
        }),
        seed,
    }
}

fn run(spec: &ScenarioSpec, name: &str, anticipation: bool) -> SimulationReport {
    run_instance(&spec.build().unwrap(), name, anticipation)
}

fn run_instance(inst: &Instance, name: &str, anticipation: bool) -> SimulationReport {
    inst.validate().unwrap();
    let config = EatpConfig {
        anticipation,
        ..EatpConfig::default()
    };
    let mut planner = planner_by_name(name, &config).unwrap();
    run_simulation(inst, &mut *planner, &EngineConfig::default())
}

#[test]
fn clean_world_is_bit_identical_flag_on_vs_off() {
    let spec = clean_spec(11);
    for name in PLANNER_NAMES {
        let off = run(&spec, name, false);
        let on = run(&spec, name, true);
        assert!(off.completed, "{name} must complete the clean run");
        assert_eq!(
            off.deterministic_fingerprint(),
            on.deterministic_fingerprint(),
            "{name}: anticipation flag must be invisible on a clean world"
        );
        assert_eq!(on.anticipation_hits, 0, "{name}: no signal, no hits");
    }
}

#[test]
fn aware_runs_stay_safe_and_deterministic_under_blockades() {
    let spec = blockade_heavy_spec(5);
    for name in PLANNER_NAMES {
        let a = run(&spec, name, true);
        let b = run(&spec, name, true);
        assert!(a.completed, "{name} must complete under blockades");
        assert!(a.events_applied > 0, "{name}: blockades must fire");
        assert_eq!(a.disruption_violations, 0, "{name}: aware run stays safe");
        assert_eq!(a.executed_conflicts, 0, "{name}: conflict-free");
        assert_eq!(
            a.deterministic_fingerprint(),
            b.deterministic_fingerprint(),
            "{name}: aware replay must stay deterministic"
        );
    }
}

#[test]
fn anticipation_fires_on_blockade_heavy_floors() {
    // The term must actually change decisions somewhere in the run for the
    // planners that see live blockades during selection.
    let spec = blockade_heavy_spec(5);
    let mut any_hits = 0u64;
    for name in PLANNER_NAMES {
        let aware = run(&spec, name, true);
        any_hits += aware.anticipation_hits;
        // Reactive-only runs of the same spec never report hits.
        let reactive = run(&spec, name, false);
        assert_eq!(reactive.anticipation_hits, 0, "{name}: flag off, no hits");
    }
    assert!(
        any_hits > 0,
        "at least one planner must have promoted a rack past a riskier one"
    );
}

#[test]
fn eatp_aware_is_no_worse_than_reactive_on_blockades() {
    // Folding live blockade context into selection must change decisions
    // and must not cost makespan on a blockade-heavy run. Outcomes are
    // deterministic per (scenario, planner, flag), so this is the gate
    // itself: the small floor, then the full-size storm (last recorded
    // aware ÷ reactive 0.967 with 203 hits, ADR-008).
    let small = blockade_heavy_spec(5).build().unwrap();
    let storm = disrupted_blockade_storm();
    for (case, inst) in [("small", &small), (storm.name, &storm.instance)] {
        let reactive = run_instance(inst, "EATP", false);
        let aware = run_instance(inst, "EATP", true);
        assert!(reactive.completed && aware.completed, "{case}");
        assert!(aware.anticipation_hits > 0, "{case}: the term never fired");
        assert!(
            aware.makespan <= reactive.makespan,
            "{case}: aware EATP regressed: {} > {} ticks",
            aware.makespan,
            reactive.makespan
        );
    }
}
