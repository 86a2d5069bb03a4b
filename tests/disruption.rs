//! Acceptance invariants of the disruption subsystem.
//!
//! * **Deterministic replay** — the same `ScenarioSpec` + seed expands to
//!   the identical event schedule and a bit-identical `SimulationReport`
//!   for every planner.
//! * **Safety** — no robot trajectory ever occupies a blocked cell after
//!   its blockade tick, no item is committed to a closed station or broken
//!   robot, and no stale oracle / cache / reservation state survives an
//!   event (all pinned through `disruption_violations == 0` and the
//!   conflict-free validator, which would catch any robot executing a path
//!   planned against stale reservations).
//!
//! * **Determinism across processes** — the five disrupted floors of
//!   `tests/common/scenarios.rs` reproduce
//!   `results/fingerprints_faults_off.txt`, recorded by another process.
//!
//! The `disrupted_spec(59)` fingerprints the deleted serial path produced
//! are pinned by `tests/batched_equivalence.rs`.

use eatp::core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use eatp::simulator::{run_simulation, EngineConfig, SimulationReport};
use eatp::warehouse::ScenarioSpec;

mod common;
use common::{assert_golden, disrupted_spec, soak_fingerprints};

fn run(spec: &ScenarioSpec, name: &str) -> SimulationReport {
    let inst = spec.build().unwrap();
    inst.validate().unwrap();
    let mut planner = planner_by_name(name, &EatpConfig::default()).unwrap();
    run_simulation(&inst, &mut *planner, &EngineConfig::default())
}

#[test]
fn disrupted_replay_is_bit_identical_for_every_planner() {
    let spec = disrupted_spec(31);
    for name in PLANNER_NAMES {
        let a = run(&spec, name);
        let b = run(&spec, name);
        assert!(a.completed, "{name} must complete under disruption");
        assert!(a.events_applied > 0, "{name}: events must actually fire");
        assert_eq!(
            a.deterministic_fingerprint(),
            b.deterministic_fingerprint(),
            "{name}: same spec + seed must replay bit-identically"
        );
    }
}

#[test]
fn no_stale_state_survives_an_event() {
    // The dedicated safety assertion of the subsystem: across planners and
    // seeds, every run must finish with zero validator conflicts (no robot
    // executed a path planned against stale reservations — e.g. through a
    // frozen robot or a cancelled route) and zero disruption violations (no
    // trajectory on a blockaded cell after its blockade tick, no plan
    // naming a broken robot, a closed station's rack or a removed rack).
    for seed in [31u64, 77] {
        let spec = disrupted_spec(seed);
        for name in PLANNER_NAMES {
            let r = run(&spec, name);
            assert!(r.completed, "{name}/{seed}");
            assert_eq!(r.executed_conflicts, 0, "{name}/{seed}: conflicts");
            assert_eq!(
                r.disruption_violations, 0,
                "{name}/{seed}: blocked-cell occupation or bad assignment"
            );
            assert_eq!(r.items_processed, 60, "{name}/{seed}: all items served");
        }
    }
}

#[test]
fn disruptions_cost_makespan_but_not_items() {
    // Sanity on the workload axis: the disrupted run serves every item and
    // (on this configuration) pays a measurable makespan price against the
    // identical clean floor.
    let disrupted = disrupted_spec(31);
    let mut clean = disrupted.clone();
    clean.disruptions = None;
    for name in ["NTP", "EATP"] {
        let rd = run(&disrupted, name);
        let rc = run(&clean, name);
        assert_eq!(rd.items_processed, rc.items_processed, "{name}");
        assert!(
            rd.makespan >= rc.makespan,
            "{name}: disruption cannot speed the floor up ({} vs {})",
            rd.makespan,
            rc.makespan
        );
    }
}

/// The faults-off soak, kept as data: every planner on the five disrupted
/// floors must stay violation-free and reproduce the
/// fingerprints another process recorded
/// (`docs/adr/ADR-008-two-measurement-systems.md`).
#[test]
fn faults_off_soak_reproduces_the_recorded_fingerprints() {
    let actual = soak_fingerprints(&EngineConfig::default());
    assert_golden(
        "fingerprints_faults_off.txt",
        include_str!("../results/fingerprints_faults_off.txt"),
        &actual,
    );
}
