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
//! Every planner runs on walled (border walls keep the free floor a
//! rectangle, so the distance oracle answers by Manhattan)
//! and open instances across seeds; a single-picker fleet forces return-leg
//! contention so the one-undock-per-station group rule is exercised. The
//! last five lines are `tests/disruption.rs`'s `disrupted_spec(59)`:
//! replanning and invalidation are engine semantics, not artifacts of the
//! batching refactor.

use eatp::warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

mod common;
use common::{check_fingerprints, disrupted_spec};

/// One `"<case> <planner> {fingerprint:?}"` row per run, as recorded by
/// the serial path: every planner on `equiv-<walled>-<pickers>-<seed>`
/// for walled and open floors, one picker (same-station return
/// contention, the LegRequest group rule) and three, and seeds 11 and
/// 97, then every planner on `disrupted-59`.
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

/// The spec a golden row's case names.
fn case(name: &str) -> ScenarioSpec {
    if let Some(seed) = name.strip_prefix("disrupted-") {
        return disrupted_spec(seed.parse().expect("a seed"));
    }
    let mut fields = name
        .strip_prefix("equiv-")
        .expect("a known case")
        .split('-');
    let mut next = || fields.next().expect("three fields");
    let walled = next().parse().expect("walled");
    let pickers = next().parse().expect("pickers");
    spec(walled, pickers, next().parse().expect("seed"))
}

#[test]
fn batched_equals_serial_for_every_planner() {
    check_fingerprints("fingerprints_batched_equivalence.txt", GOLDEN, 45, |name| {
        case(name).build().unwrap()
    });
}
