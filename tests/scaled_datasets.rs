//! The four Table II datasets build, validate and run end-to-end at reduced
//! scale (full scale is exercised by the `repro` binary / benches), and
//! every scenario spec that builds yields a valid instance.

use eatp::core::{planner_by_name, EatpConfig};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::{Dataset, DisruptionConfig, LayoutConfig, ScenarioSpec, WorkloadConfig};
use proptest::prelude::*;

#[test]
fn all_datasets_build_across_scales() {
    for d in Dataset::ALL {
        for scale in [0.003, 0.01, 0.05] {
            let inst = d
                .spec(scale, 5)
                .build()
                .unwrap_or_else(|e| panic!("{} @ {scale}: {e}", d.name()));
            inst.validate()
                .unwrap_or_else(|e| panic!("{} @ {scale} invalid: {e}", d.name()));
        }
    }
}

#[test]
fn eatp_completes_every_dataset_tiny() {
    for d in Dataset::ALL {
        let inst = d.spec(0.003, 5).build().unwrap();
        let mut planner = planner_by_name("EATP", &EatpConfig::default()).unwrap();
        let report = run_simulation(&inst, &mut *planner, &EngineConfig::default());
        assert!(report.completed, "{}: {}", d.name(), report.summary_row());
        assert_eq!(report.executed_conflicts, 0, "{} conflicted", d.name());
        assert_eq!(report.items_processed, inst.items.len());
    }
}

#[test]
fn surge_datasets_have_time_varying_throughput() {
    // The real-dataset stand-ins must show strong arrival-rate variation —
    // the property driving the paper's bottleneck case study.
    for d in [Dataset::RealNorm, Dataset::RealLarge] {
        let inst = d.spec(0.01, 5).build().unwrap();
        let horizon = inst.last_arrival() + 1;
        let bucket = (horizon / 8).max(1);
        let mut counts = vec![0usize; 9];
        for item in &inst.items {
            counts[(item.arrival / bucket) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let nonzero_min = counts
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .min()
            .unwrap()
            .max(1) as f64;
        assert!(
            max / nonzero_min >= 3.0,
            "{}: arrival buckets too flat: {counts:?}",
            d.name()
        );
    }
}

#[test]
fn picker_fleet_scales_with_floor() {
    let small = Dataset::SynA.spec(0.01, 5).build().unwrap();
    let large = Dataset::SynA.spec(0.08, 5).build().unwrap();
    assert!(large.pickers.len() > small.pickers.len());
    assert!(large.robots.len() > small.robots.len());
    assert!(large.grid.cell_count() > small.grid.cell_count());
}

proptest! {
    /// `ScenarioSpec::build` does not run `Instance::validate` (the
    /// benchmark's `setup_s` would pay for it), so every instance it
    /// returns must pass it anyway: random layout sizes, block shapes and
    /// walls, entity counts (too many included), workloads, and disruption
    /// configs on or off (invalid durations included).
    #[test]
    fn every_built_spec_validates(
        layout in (6u16..48, 8u16..40, 1u16..8, 1u16..5, 1u16..8, 0u8..2),
        counts in (1usize..48, 1usize..24, 0usize..6, 1usize..60),
        work in (1u64..6, 0u64..30, 0.05f64..2.0, 0.0f64..2.0),
        events in (0u8..2, 0usize..6, 0usize..6, 0usize..4, 0usize..5),
        spans in (0u64..30, 0u64..60, 0u64..200, 0u64..300),
        seed in 0u64..10_000,
    ) {
        let (width, height, station_spacing, block_cols, block_rows, walls) = layout;
        let (n_racks, n_robots, n_pickers, n_items) = counts;
        let (processing_min, extra, rate, rack_skew) = work;
        let (disrupted, breakdowns, blockades, closures, removals) = events;
        let (lo, span, t0, window) = spans;
        let ticks = (lo, lo + span);
        let spec = ScenarioSpec {
            name: "random-spec".into(),
            layout: LayoutConfig {
                width,
                height,
                station_spacing,
                block_cols,
                block_rows,
                border_walls: walls == 1,
            },
            n_racks,
            n_robots,
            n_pickers,
            workload: WorkloadConfig {
                processing_min,
                processing_max: processing_min + extra,
                rack_skew,
                ..WorkloadConfig::poisson(n_items, rate)
            },
            disruptions: (disrupted == 1).then_some(DisruptionConfig {
                breakdowns,
                breakdown_ticks: ticks,
                blockades,
                blockade_ticks: ticks,
                closures,
                closure_ticks: ticks,
                removals,
                removal_ticks: ticks,
                window: (t0, t0 + window),
            }),
            seed,
        };
        if let Ok(instance) = spec.build() {
            let verdict = instance.validate();
            prop_assert!(verdict.is_ok(), "{spec:?} built an invalid instance: {verdict:?}");
        }
    }
}
