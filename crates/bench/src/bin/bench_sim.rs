//! Whole-simulation perf harness: median ns/tick of the end-to-end engine
//! loop (selection + leg planning + movement + validation + bookkeeping)
//! for every planner on a congested, a sparse and three disrupted
//! scenarios (breakdown wave, aisle blockades, station outage during an
//! arrival surge — see `sim_cases`). Emits
//! `BENCH_sim.json` (path overridable via `BENCH_SIM_OUT`) so each PR can
//! record where simulation throughput stands, next to the A* microbenchmark
//! in `BENCH_astar.json`.
//!
//! Run with: `cargo run --release -p eatp-bench --bin bench_sim`
//! (`BENCH_SIM_ITERS` overrides the per-cell iteration count.)
//!
//! Each (scenario, planner) cell records `batched_ns_per_tick`, the median
//! ns/tick of the engine's one execution path on this host — an absolute
//! number for orientation, not a gate; `benchmark/run.sh` on alternated
//! parent/change pairs is what judges a performance claim
//! (`docs/adr/ADR-006-one-execution-path.md`).
//!
//! `congested_eatp_ns_per_tick` records EATP's congested tick cost, and
//! `congested_eatp_over_ntp` (EATP ÷ NTP, both in-process) is gated at
//! `eatp_ntp_gate` so a regression of the pooled CDT, the step-field path
//! cache or the flat KNN build fails CI.
//!
//! The **anticipation study**: on the two
//! blockade-heavy cases (`sim_cases::ANTICIPATION_CASES`) every planner is
//! additionally run with `EatpConfig::anticipation` on, and the
//! aware-vs-reactive makespan ratio plus `anticipation_hits` are recorded
//! per planner. CI gates EATP's ratio at `anticipation_gate` (≤ 1.0:
//! folding live blockade context into selection must never cost makespan,
//! and the committed baseline shows a strict win).
//!
//! Schema history: v7 dropped the parallel study with the speculative leg
//! planning it measured (`docs/adr/ADR-005-serial-leg-planning.md`); v8
//! drops the reference-vs-batched ratio (`reference_ns_per_tick`,
//! `speedup`, `aggregate_speedup`, `identical_reports`, `congested_gate`)
//! with the serial engine path it timed (ADR-006); v9 drops the
//! dense-vs-agenda study (`event_driven` and its two gate fields) with the
//! dense tick loop it timed (`docs/adr/ADR-007-one-tick-loop.md`) —
//! `benchmark/`'s `quiet-fleet-eatp` is the quiescent-floor measurement.
//!
//! Extra modes for CI:
//!
//! * `BENCH_SIM_FP_OUT=<path>` — *determinism soak*: skip timing entirely,
//!   run every disrupted scenario once per planner and write one
//!   fingerprint line per run. CI runs this twice and `diff`s the
//!   files: any nondeterminism in the disruption replay fails the job. The
//!   output is also diffed against the committed
//!   `results/fingerprints_faults_off.txt`, pinning faults-off runs to
//!   their pre-fault-injection behaviour bit for bit.
//! * `BENCH_SIM_CHAOS_FP_OUT=<path>` — the same soak under the chaos fault
//!   plan (`BENCH_SIM_CHAOS_SEED`, default 4242) with graceful degradation
//!   armed: every run must stay violation-free while visibly degrading, and
//!   CI diffs two independent processes to prove fixed-fault-seed
//!   determinism.

use eatp_bench::sim_cases::{scenarios, SimScenario, ANTICIPATION_CASES};
use eatp_core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use serde::Serialize;
use std::time::Instant;
use tprw_simulator::{
    run_simulation, DegradationPolicy, EngineConfig, FaultConfig, SimulationReport,
};

#[derive(Debug, Serialize)]
struct PlannerCell {
    planner: String,
    batched_ns_per_tick: u64,
    makespan: u64,
    rack_trips: usize,
    executed_conflicts: usize,
}

#[derive(Debug, Serialize)]
struct ScenarioReport {
    name: String,
    description: String,
    planners: Vec<PlannerCell>,
}

#[derive(Debug, Serialize)]
struct AnticipationCell {
    planner: String,
    /// Makespan with `EatpConfig::anticipation` off (the recorded run of
    /// the timing section).
    reactive_makespan: u64,
    /// Makespan with the anticipation term on.
    aware_makespan: u64,
    /// `aware / reactive` — the per-run makespan delta the report's
    /// `anticipation_hits` counter bought; ≤ 1.0 means the aware planner
    /// was no worse.
    makespan_ratio: f64,
    /// Selection decisions the anticipation term changed during the aware
    /// run.
    anticipation_hits: u64,
}

#[derive(Debug, Serialize)]
struct AnticipationReport {
    case: String,
    planners: Vec<AnticipationCell>,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: &'static str,
    iterations: usize,
    /// EATP's absolute ns/tick on the congested gate scenario.
    congested_eatp_ns_per_tick: u64,
    /// `EATP ns/tick ÷ NTP ns/tick` on the congested scenario. Both sides
    /// are measured in-process, so the ratio is hardware-independent; CI
    /// fails when it exceeds `eatp_ntp_gate`.
    congested_eatp_over_ntp: f64,
    /// Upper bound on `congested_eatp_over_ntp` enforced by CI.
    eatp_ntp_gate: f64,
    scenarios: Vec<ScenarioReport>,
    /// Aware-vs-reactive makespan per planner on the blockade-heavy cases.
    anticipation: Vec<AnticipationReport>,
    /// CI fails when `anticipation_gate_planner`'s `makespan_ratio` exceeds
    /// this bar on `anticipation_gate_case`.
    anticipation_gate: f64,
    /// The planner whose ratio is gated (the paper's headline planner).
    anticipation_gate_planner: &'static str,
    /// The case the gate reads (the storm case; the rolling case is
    /// recorded for observation — its shifting blockade set makes the
    /// aware-vs-reactive delta noisier run-to-run across code changes).
    anticipation_gate_case: &'static str,
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One timed run; returns (ns_per_tick, report).
fn timed_run(
    scenario: &SimScenario,
    planner_name: &str,
    config: &EatpConfig,
    engine: &EngineConfig,
) -> (u64, SimulationReport) {
    let mut planner = planner_by_name(planner_name, config).expect("known planner");
    let t0 = Instant::now();
    let report = run_simulation(&scenario.instance, &mut *planner, engine);
    let elapsed = t0.elapsed().as_nanos() as u64;
    assert!(
        report.completed,
        "{} on {} must complete (tick budget too small?)",
        planner_name, scenario.name
    );
    assert_eq!(
        report.disruption_violations, 0,
        "{} on {} violated a disruption invariant",
        planner_name, scenario.name
    );
    (elapsed / report.makespan.max(1), report)
}

/// Determinism-soak mode: one run per (disrupted scenario, planner),
/// one fingerprint line each. CI invokes this twice and diffs the outputs —
/// and, for the faults-off flavour, against the committed
/// `results/fingerprints_faults_off.txt` so fault-injection plumbing can
/// never silently move a clean run.
///
/// With `chaos = Some(seed)` every run additionally executes under the
/// seed-deterministic chaos fault plan with graceful degradation armed: the
/// run must still be violation-free, must visibly degrade
/// (`degraded_ticks > 0`), and its fingerprint — degradation counters
/// included — must be byte-identical across independent processes.
fn write_fingerprints(path: &str, chaos: Option<u64>) {
    let base = match chaos {
        None => EngineConfig::builder(),
        Some(seed) => EngineConfig::builder()
            .faults(FaultConfig::chaos(seed, (5, 400)))
            .degradation(DegradationPolicy {
                enabled: true,
                max_expansions_per_tick: 0,
            }),
    };
    let engine = base.build().expect("soak config is valid");
    let config = EatpConfig::default();
    let mut out = String::new();
    for scenario in scenarios() {
        if scenario.instance.disruptions.is_empty() {
            continue;
        }
        for name in PLANNER_NAMES {
            let mut planner = planner_by_name(name, &config).expect("known planner");
            let report = run_simulation(&scenario.instance, &mut *planner, &engine);
            assert_eq!(
                report.disruption_violations, 0,
                "{name} on {} violated a disruption invariant",
                scenario.name
            );
            assert_eq!(
                report.executed_conflicts, 0,
                "{name} on {} executed a conflict",
                scenario.name
            );
            if chaos.is_some() {
                assert!(
                    report.degraded_ticks > 0,
                    "{name} on {}: the chaos fault plan never tripped degradation",
                    scenario.name
                );
            } else {
                assert_eq!(
                    report.degraded_ticks, 0,
                    "{name} on {} degraded with faults off",
                    scenario.name
                );
            }
            out.push_str(&format!(
                "{} {} {:?}\n",
                scenario.name,
                name,
                report.deterministic_fingerprint()
            ));
        }
    }
    std::fs::write(path, &out).expect("write fingerprint file");
    let flavour = match chaos {
        Some(seed) => format!("chaos (fault seed {seed})"),
        None => "disruption".into(),
    };
    eprintln!("wrote {flavour} fingerprints to {path}");
}

fn main() {
    if let Ok(path) = std::env::var("BENCH_SIM_FP_OUT") {
        write_fingerprints(&path, None);
        return;
    }
    if let Ok(path) = std::env::var("BENCH_SIM_CHAOS_FP_OUT") {
        let seed = std::env::var("BENCH_SIM_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4242);
        write_fingerprints(&path, Some(seed));
        return;
    }
    let iters: usize = std::env::var("BENCH_SIM_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(7);
    let out_path = std::env::var("BENCH_SIM_OUT").unwrap_or_else(|_| "BENCH_sim.json".to_string());

    let config = EatpConfig::default();
    let engine = EngineConfig::default();

    let mut scenario_reports = Vec::new();
    for scenario in scenarios() {
        eprintln!("== scenario {} ==", scenario.name);
        let mut cells = Vec::new();
        for name in PLANNER_NAMES {
            let mut samples = Vec::with_capacity(iters);
            let mut last_report = None;
            for _ in 0..iters {
                let (ns, report) = timed_run(&scenario, name, &config, &engine);
                samples.push(ns);
                last_report = Some(report);
            }
            let report = last_report.expect("at least one iteration");
            let ns = median(&mut samples);
            eprintln!("  {name:<5} {ns:>8} ns/tick, makespan {}", report.makespan);
            cells.push(PlannerCell {
                planner: name.to_string(),
                batched_ns_per_tick: ns,
                makespan: report.makespan,
                rack_trips: report.rack_trips,
                executed_conflicts: report.executed_conflicts,
            });
        }
        scenario_reports.push(ScenarioReport {
            name: scenario.name.to_string(),
            description: scenario.description.to_string(),
            planners: cells,
        });
    }

    // Anticipation study: aware (flag-on) vs the reactive runs recorded
    // above, on the blockade-heavy cases. Makespan is fully
    // deterministic per (scenario, planner, flag), so one run per cell
    // suffices — this measures *outcomes*, not wall clocks.
    let aware_config = EatpConfig {
        anticipation: true,
        ..EatpConfig::default()
    };
    let mut anticipation = Vec::new();
    for scenario in scenarios() {
        if !ANTICIPATION_CASES.contains(&scenario.name) {
            continue;
        }
        eprintln!("== anticipation study {} ==", scenario.name);
        let reactive_cells = &scenario_reports
            .iter()
            .find(|s| s.name == scenario.name)
            .expect("anticipation case was timed above")
            .planners;
        let mut cells = Vec::new();
        for name in PLANNER_NAMES {
            let (_, aware) = timed_run(&scenario, name, &aware_config, &engine);
            let reactive_makespan = reactive_cells
                .iter()
                .find(|c| c.planner == name)
                .expect("planner timed above")
                .makespan;
            let ratio = aware.makespan as f64 / reactive_makespan.max(1) as f64;
            eprintln!(
                "  {name:<5} reactive {reactive_makespan:>6} -> aware {:>6} ticks \
                 (ratio {ratio:.3}, {} hits)",
                aware.makespan, aware.anticipation_hits
            );
            cells.push(AnticipationCell {
                planner: name.to_string(),
                reactive_makespan,
                aware_makespan: aware.makespan,
                makespan_ratio: ratio,
                anticipation_hits: aware.anticipation_hits,
            });
        }
        anticipation.push(AnticipationReport {
            case: scenario.name.to_string(),
            planners: cells,
        });
    }

    let ns_of = |planner: &str| -> u64 {
        scenario_reports[0]
            .planners
            .iter()
            .find(|c| c.planner == planner)
            .expect("planner present on the congested scenario")
            .batched_ns_per_tick
    };
    let congested_eatp = ns_of("EATP");
    let congested_ntp = ns_of("NTP");

    let report = BenchReport {
        schema: "bench_sim/v9",
        iterations: iters,
        congested_eatp_ns_per_tick: congested_eatp,
        congested_eatp_over_ntp: congested_eatp as f64 / congested_ntp.max(1) as f64,
        eatp_ntp_gate: 3.0,
        scenarios: scenario_reports,
        anticipation,
        anticipation_gate: 1.0,
        anticipation_gate_planner: "EATP",
        anticipation_gate_case: ANTICIPATION_CASES[0],
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!("{json}");
}
