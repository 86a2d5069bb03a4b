//! Seeds matter: different scenario seeds give different runs, and so do
//! different RL policy seeds. That identical seeds give identical runs is
//! the lattice's contract (`tests/lattice.rs`).

use eatp::core::{planner_by_name, EatpConfig};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "determinism".into(),
        layout: LayoutConfig::sized(28, 20),
        n_racks: 14,
        n_robots: 4,
        n_pickers: 2,
        workload: WorkloadConfig::poisson(40, 0.7),
        disruptions: None,
        seed,
    }
}

#[test]
fn different_seeds_differ() {
    let a = spec(1).build().unwrap();
    let b = spec(2).build().unwrap();
    let mut pa = planner_by_name("EATP", &EatpConfig::default()).unwrap();
    let mut pb = planner_by_name("EATP", &EatpConfig::default()).unwrap();
    let ra = run_simulation(&a, &mut *pa, &EngineConfig::default());
    let rb = run_simulation(&b, &mut *pb, &EngineConfig::default());
    assert_ne!(
        (ra.makespan, ra.rack_trips),
        (rb.makespan, rb.rack_trips),
        "different scenarios should not coincide exactly"
    );
}

#[test]
fn rl_seed_changes_policy() {
    let inst = spec(9).build().unwrap();
    let mut c1 = EatpConfig::default();
    c1.rl.seed = 111;
    let mut c2 = EatpConfig::default();
    c2.rl.seed = 222;
    let mut p1 = planner_by_name("ATP", &c1).unwrap();
    let mut p2 = planner_by_name("ATP", &c2).unwrap();
    let r1 = run_simulation(&inst, &mut *p1, &EngineConfig::default());
    let r2 = run_simulation(&inst, &mut *p2, &EngineConfig::default());
    // Both must be valid; the exploration trajectory may legitimately
    // coincide on makespan, but expansions almost surely differ.
    assert!(r1.completed && r2.completed);
    assert!(
        r1.planner_stats.expansions != r2.planner_stats.expansions || r1.makespan != r2.makespan,
        "different RL seeds should alter the run"
    );
}
