//! The five disrupted floors whose fingerprints are pinned by
//! `results/fingerprints_faults_off.txt` (`tests/disruption.rs`). Names,
//! specs and seeds are part of that file: a change here is a regeneration
//! of it.
//!
//! All five are 44×32 walled floors with 36 racks:
//!
//! * **breakdown wave** — ten of forty robots fail across ticks 150–450,
//!   each down for 150–300 ticks. Frozen robots become mid-aisle
//!   obstacles; every failure releases reservations and every recovery
//!   replans an interrupted leg;
//! * **aisle blockades** — on the same dense floor six corridors close for
//!   200–400 ticks each, invalidating planned paths (freeze cascade) and
//!   flipping the distance oracle's passability snapshot;
//! * **station outage during surge** — two of four pickers walk away for
//!   250–400 ticks inside a carnival-style arrival surge, so the planner
//!   must rebalance the selection side exactly when the workload peaks
//!   (the Fig. 13 shifting bottleneck, driven from the supply side);
//! * **blockade storm** — a dozen corridors of a travel-bound floor close
//!   almost at once, each for most of the run: which rack a planner
//!   commits to matters as much as how it routes;
//! * **rolling blockades** — many shorter closures across the whole run,
//!   so the blockade set keeps changing and every grid-derived planner
//!   structure is invalidated over and over.

use eatp::warehouse::{
    ArrivalProfile, DisruptionConfig, Instance, LayoutConfig, ScenarioSpec, WorkloadConfig,
};

/// The five floors, in the row order of the fingerprint file; each
/// instance's name is the one its rows start with.
pub fn disrupted_scenarios() -> [Instance; 5] {
    let floor = |name: &str, seed, n_robots, n_pickers, workload, disruptions| {
        ScenarioSpec {
            name: name.into(),
            layout: LayoutConfig {
                width: 44,
                height: 32,
                border_walls: true,
                ..LayoutConfig::default()
            },
            n_racks: 36,
            n_robots,
            n_pickers,
            workload,
            disruptions: Some(disruptions),
            seed,
        }
        .build()
        .unwrap_or_else(|e| panic!("{name} builds: {e}"))
    };
    // Travel-bound on purpose: fast pickers (4-8 ticks/item) and spread
    // arrivals keep the blockade floors transport-limited, so a robot
    // committed into a blockaded corridor costs makespan instead of
    // vanishing into picker-queue slack.
    let travel_bound = WorkloadConfig {
        processing_min: 4,
        processing_max: 8,
        ..WorkloadConfig::poisson(120, 0.35)
    };
    let surge = WorkloadConfig {
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
    };
    let quiet = DisruptionConfig::none();
    [
        floor(
            "disrupted-breakdowns-44x32",
            81,
            40,
            5,
            WorkloadConfig::poisson(160, 1.0),
            DisruptionConfig {
                breakdowns: 10,
                breakdown_ticks: (150, 300),
                window: (150, 450),
                ..quiet
            },
        ),
        floor(
            "disrupted-blockades-44x32",
            82,
            40,
            5,
            WorkloadConfig::poisson(160, 1.0),
            DisruptionConfig {
                blockades: 6,
                blockade_ticks: (200, 400),
                window: (100, 500),
                ..quiet
            },
        ),
        floor(
            "disrupted-outage-surge-44x32",
            83,
            32,
            4,
            surge,
            DisruptionConfig {
                closures: 2,
                closure_ticks: (250, 400),
                window: (120, 360),
                ..quiet
            },
        ),
        floor(
            "disrupted-blockade-storm-44x32",
            84,
            14,
            7,
            travel_bound.clone(),
            DisruptionConfig {
                blockades: 12,
                blockade_ticks: (300, 500),
                window: (60, 240),
                ..quiet
            },
        ),
        floor(
            "disrupted-blockade-rolling-44x32",
            85,
            14,
            7,
            travel_bound,
            DisruptionConfig {
                blockades: 16,
                blockade_ticks: (100, 220),
                window: (50, 600),
                ..quiet
            },
        ),
    ]
}
