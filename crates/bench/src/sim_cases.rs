//! End-to-end scenarios for the simulation throughput harness (`bench_sim`).
//!
//! Two static workloads bracket the engine's operating range:
//!
//! * **congested** — a walled (obstructed) mid-size floor with a dense
//!   fleet: every tick carries leg planning, oracle queries (BFS fields,
//!   since border walls make Manhattan inexact), validation of many on-grid
//!   robots, and picker queue churn.
//! * **sparse** — a larger open floor with a small fleet and a slow item
//!   trickle: most ticks do *no* planning, so fixed per-tick engine
//!   overhead (scans, validation, metrics) dominates.
//!
//! Three *disrupted* workloads exercise the dynamic-world subsystem as a
//! measured, reproducible load (their fingerprints are pinned by
//! `results/fingerprints_faults_off.txt`):
//!
//! * **breakdown wave** — a quarter of the congested fleet fails across a
//!   window, freezing mid-aisle and forcing survivors to route around;
//! * **aisle blockades** — corridors close mid-run, cancelling planned
//!   paths (oracle/cache/KNN invalidation + replans);
//! * **station outage during surge** — pickers walk away exactly while a
//!   carnival-style arrival surge is peaking.

use tprw_warehouse::{
    ArrivalProfile, DisruptionConfig, Instance, LayoutConfig, ScenarioSpec, WorkloadConfig,
};

/// One named benchmark scenario.
pub struct SimScenario {
    /// Short identifier used in `BENCH_sim.json`.
    pub name: &'static str,
    /// Human-readable description of what the scenario stresses.
    pub description: &'static str,
    /// The concrete problem instance.
    pub instance: Instance,
}

/// The congested cell: border walls force BFS distance fields, and the
/// fleet is large relative to the floor so planning and validation load
/// every tick.
pub fn congested() -> SimScenario {
    let instance = ScenarioSpec {
        name: "bench-congested".into(),
        layout: LayoutConfig {
            width: 44,
            height: 32,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 36,
        n_robots: 40,
        n_pickers: 5,
        workload: WorkloadConfig::poisson(200, 1.0),
        disruptions: None,
        seed: 77,
    }
    .build()
    .expect("congested scenario builds");
    SimScenario {
        name: "congested-walled-44x32",
        description: "walled 44x32 floor, 40 robots / 36 racks / 5 pickers, \
                      200 items at rate 1.0: a dense fleet keeps planning, BFS \
                      oracle probes and validation of ~40 on-grid robots on \
                      every tick",
        instance,
    }
}

/// The sparse cell: a big open floor where most ticks are pure engine
/// overhead (no planning work at all).
pub fn sparse() -> SimScenario {
    let instance = ScenarioSpec {
        name: "bench-sparse".into(),
        layout: LayoutConfig::sized(64, 44),
        n_racks: 18,
        n_robots: 6,
        n_pickers: 2,
        workload: WorkloadConfig::poisson(60, 0.2),
        disruptions: None,
        seed: 78,
    }
    .build()
    .expect("sparse scenario builds");
    SimScenario {
        name: "sparse-open-64x44",
        description: "open 64x44 floor, 6 robots / 18 racks / 2 pickers, \
                      60 items at rate 0.2: fixed per-tick engine overhead \
                      dominates",
        instance,
    }
}

/// Breakdown wave on the congested floor: ten of the forty robots fail
/// across ticks 150–450, each down for 150–300 ticks. Frozen robots become
/// mid-aisle obstacles; every failure releases reservations and every
/// recovery replans an interrupted leg.
pub fn disrupted_breakdowns() -> SimScenario {
    let instance = ScenarioSpec {
        name: "bench-breakdown-wave".into(),
        layout: LayoutConfig {
            width: 44,
            height: 32,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 36,
        n_robots: 40,
        n_pickers: 5,
        workload: WorkloadConfig::poisson(160, 1.0),
        disruptions: Some(DisruptionConfig {
            breakdowns: 10,
            breakdown_ticks: (150, 300),
            blockades: 0,
            blockade_ticks: (1, 1),
            closures: 0,
            closure_ticks: (1, 1),
            removals: 0,
            removal_ticks: (1, 1),
            window: (150, 450),
        }),
        seed: 81,
    }
    .build()
    .expect("breakdown scenario builds");
    SimScenario {
        name: "disrupted-breakdowns-44x32",
        description: "the congested walled floor under a breakdown wave: 10 \
                      of 40 robots fail across ticks 150-450 (down 150-300 \
                      ticks each), freezing mid-aisle; survivors replan \
                      around them and interrupted legs resume on recovery",
        instance,
    }
}

/// Mid-run aisle blockades on the congested floor: six corridors close for
/// 200–400 ticks each, invalidating planned paths (freeze cascade) and
/// every grid-derived planner structure (oracle fields, path cache, KNN).
pub fn disrupted_blockades() -> SimScenario {
    let instance = ScenarioSpec {
        name: "bench-aisle-blockades".into(),
        layout: LayoutConfig {
            width: 44,
            height: 32,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 36,
        n_robots: 40,
        n_pickers: 5,
        workload: WorkloadConfig::poisson(160, 1.0),
        disruptions: Some(DisruptionConfig {
            breakdowns: 0,
            breakdown_ticks: (1, 1),
            blockades: 6,
            blockade_ticks: (200, 400),
            closures: 0,
            closure_ticks: (1, 1),
            removals: 0,
            removal_ticks: (1, 1),
            window: (100, 500),
        }),
        seed: 82,
    }
    .build()
    .expect("blockade scenario builds");
    SimScenario {
        name: "disrupted-blockades-44x32",
        description: "the congested walled floor with 6 aisle cells \
                      blockaded for 200-400 ticks mid-run: planned paths \
                      through them cancel (freeze cascade), the distance \
                      oracle / path cache / KNN index invalidate, and \
                      frozen robots replan",
        instance,
    }
}

/// Station outage during an arrival surge: two of four pickers walk away
/// for 250–400 ticks inside the surge window, so the planner must rebalance
/// the selection side exactly when the workload peaks (the Fig. 13 shifting
/// bottleneck, now driven from the supply side).
pub fn disrupted_outage_surge() -> SimScenario {
    let instance = ScenarioSpec {
        name: "bench-outage-surge".into(),
        layout: LayoutConfig {
            width: 44,
            height: 32,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 36,
        n_robots: 32,
        n_pickers: 4,
        workload: WorkloadConfig {
            n_items: 180,
            profile: ArrivalProfile::Surge {
                base_rate: 0.6,
                multipliers: vec![0.4, 3.0],
                phase_len: 120,
            },
            processing_min: 20,
            processing_max: 40,
            rack_skew: 0.8,
            skew_cap: 8.0,
        },
        disruptions: Some(DisruptionConfig {
            breakdowns: 0,
            breakdown_ticks: (1, 1),
            blockades: 0,
            blockade_ticks: (1, 1),
            closures: 2,
            closure_ticks: (250, 400),
            removals: 0,
            removal_ticks: (1, 1),
            window: (120, 360),
        }),
        seed: 83,
    }
    .build()
    .expect("outage scenario builds");
    SimScenario {
        name: "disrupted-outage-surge-44x32",
        description: "surge arrivals (0.4x/3.0x alternating every 120 \
                      ticks, skewed racks) while 2 of 4 pickers close for \
                      250-400 ticks inside the surge window: selection must \
                      rebalance to the surviving stations at peak load",
        instance,
    }
}

/// Blockade storm: a dozen corridors of the congested floor close almost
/// simultaneously, each for most of the run. This is the *anticipation*
/// case: with that many live blockades, which rack a planner commits to
/// matters more than how it routes — disruption-aware selection
/// (`EatpConfig::anticipation`) is measured against reactive-only here
/// (`bench_sim`'s anticipation study) and gated in CI for EATP.
pub fn disrupted_blockade_storm() -> SimScenario {
    let instance = ScenarioSpec {
        name: "bench-blockade-storm".into(),
        layout: LayoutConfig {
            width: 44,
            height: 32,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 36,
        n_robots: 14,
        n_pickers: 7,
        // Travel-bound on purpose: fast pickers (4-8 ticks/item) and spread
        // arrivals keep the floor transport-limited, so a robot committed
        // into a blockaded corridor costs makespan instead of vanishing
        // into picker-queue slack.
        workload: WorkloadConfig {
            processing_min: 4,
            processing_max: 8,
            ..WorkloadConfig::poisson(120, 0.35)
        },
        disruptions: Some(DisruptionConfig {
            breakdowns: 0,
            breakdown_ticks: (1, 1),
            blockades: 12,
            blockade_ticks: (300, 500),
            closures: 0,
            closure_ticks: (1, 1),
            removals: 0,
            removal_ticks: (1, 1),
            window: (60, 240),
        }),
        seed: 84,
    }
    .build()
    .expect("blockade storm scenario builds");
    SimScenario {
        name: "disrupted-blockade-storm-44x32",
        description: "a travel-bound walled floor (14 robots, 7 fast \
                      pickers, spread arrivals) with 12 aisle cells \
                      blockaded for 300-500 ticks starting almost at once \
                      (window 60-240): most of the run has many corridors \
                      closed, so *which* rack selection commits a robot to \
                      dominates makespan — the aware-vs-reactive \
                      anticipation case",
        instance,
    }
}

/// Rolling blockades: many shorter closures scattered across the whole
/// run, so the blockade set keeps changing and the outlook must track a
/// moving target (also the second aware-vs-reactive measurement case).
pub fn disrupted_blockade_rolling() -> SimScenario {
    let instance = ScenarioSpec {
        name: "bench-blockade-rolling".into(),
        layout: LayoutConfig {
            width: 44,
            height: 32,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 36,
        n_robots: 14,
        n_pickers: 7,
        workload: WorkloadConfig {
            processing_min: 4,
            processing_max: 8,
            ..WorkloadConfig::poisson(120, 0.35)
        },
        disruptions: Some(DisruptionConfig {
            breakdowns: 0,
            breakdown_ticks: (1, 1),
            blockades: 16,
            blockade_ticks: (100, 220),
            closures: 0,
            closure_ticks: (1, 1),
            removals: 0,
            removal_ticks: (1, 1),
            window: (50, 600),
        }),
        seed: 85,
    }
    .build()
    .expect("rolling blockade scenario builds");
    SimScenario {
        name: "disrupted-blockade-rolling-44x32",
        description: "the same travel-bound floor with 16 aisle cells \
                      blockading for 100-220 ticks each, rolling across \
                      ticks 50-600: the live blockade set keeps shifting, \
                      so anticipation scores a moving target",
        instance,
    }
}

/// All benchmark scenarios in gate order (congested first — the CI gate
/// reads index 0 — then sparse, then the disrupted cases; the two
/// blockade-heavy anticipation cases come last).
pub fn scenarios() -> Vec<SimScenario> {
    vec![
        congested(),
        sparse(),
        disrupted_breakdowns(),
        disrupted_blockades(),
        disrupted_outage_surge(),
        disrupted_blockade_storm(),
        disrupted_blockade_rolling(),
    ]
}

/// The scenario names on which `bench_sim` measures (and CI gates)
/// anticipation-on vs reactive-only makespan.
pub const ANTICIPATION_CASES: [&str; 2] = [
    "disrupted-blockade-storm-44x32",
    "disrupted-blockade-rolling-44x32",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_and_differ() {
        let all = scenarios();
        assert_eq!(all.len(), 7);
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        // The gate scenario stays at index 0 (CI reads it by position).
        assert_eq!(all[0].name, "congested-walled-44x32");
        // The congested grid is obstructed (walls), the sparse one is open.
        use tprw_warehouse::CellKind;
        assert!(all[0].instance.grid.count_kind(CellKind::Blocked) > 0);
        assert_eq!(all[1].instance.grid.count_kind(CellKind::Blocked), 0);
        // Static cases carry no events; every disrupted case carries a
        // validated, paired schedule.
        assert!(all[0].instance.disruptions.is_empty());
        assert!(all[1].instance.disruptions.is_empty());
        for s in &all[2..] {
            assert!(!s.instance.disruptions.is_empty(), "{}", s.name);
            s.instance.validate().unwrap();
        }
        // The anticipation gate cases exist and are blockade-only.
        for name in ANTICIPATION_CASES {
            let s = all
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing anticipation case {name}"));
            assert!(s.instance.disruptions.iter().all(|e| matches!(
                e.event,
                tprw_warehouse::DisruptionEvent::CellBlocked { .. }
                    | tprw_warehouse::DisruptionEvent::CellUnblocked { .. }
            )));
        }
    }
}
