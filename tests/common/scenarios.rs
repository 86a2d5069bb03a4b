//! The five disrupted floors whose fingerprints are pinned by
//! `results/fingerprints_faults_off.txt` (`tests/disruption.rs`). Names,
//! specs and seeds are part of that file: a change here is a regeneration
//! of it.
//!
//! * **breakdown wave** — a quarter of a dense fleet fails across a
//!   window, freezing mid-aisle and forcing survivors to route around;
//! * **aisle blockades** — corridors close mid-run, cancelling planned
//!   paths (oracle/cache/KNN invalidation + replans);
//! * **station outage during surge** — pickers walk away exactly while a
//!   carnival-style arrival surge is peaking;
//! * **blockade storm** / **rolling blockades** — the two blockade-heavy
//!   floors: many corridors closed at once, or a closure set that keeps
//!   changing.

use eatp::warehouse::{
    ArrivalProfile, DisruptionConfig, Instance, LayoutConfig, ScenarioSpec, WorkloadConfig,
};

/// One named scenario.
pub struct SimScenario {
    /// The identifier the fingerprint files' lines start with.
    pub name: &'static str,
    /// The concrete problem instance.
    pub instance: Instance,
}

/// Breakdown wave on a dense walled floor: ten of the forty robots fail
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
        instance,
    }
}

/// Mid-run aisle blockades on the same dense floor: six corridors close for
/// 200–400 ticks each, invalidating planned paths (freeze cascade) and
/// patching the distance oracle's station fields.
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
        instance,
    }
}

/// Blockade storm: a dozen corridors of a travel-bound floor close almost
/// simultaneously, each for most of the run. With that many live
/// blockades, which rack a planner commits to matters as much as how it
/// routes.
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
        instance,
    }
}

/// Rolling blockades: many shorter closures scattered across the whole
/// run, so the blockade set keeps changing and every grid-derived planner
/// structure is invalidated over and over.
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
        instance,
    }
}

/// The five floors, in the row order of the fingerprint files.
pub fn disrupted_scenarios() -> [SimScenario; 5] {
    [
        disrupted_breakdowns(),
        disrupted_blockades(),
        disrupted_outage_surge(),
        disrupted_blockade_storm(),
        disrupted_blockade_rolling(),
    ]
}
