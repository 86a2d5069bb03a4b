//! The Sec. VI efficiency claims, checked with *deterministic* counters
//! (never wall-clock, which would flake under CI load):
//!
//! * EATP's CDT + cache keep planner memory far below the STG planners;
//! * cache-aided search expands fewer A* states than uncached search;
//! * the flip-side index bounds selection work.

use eatp::core::{planner_by_name, EatpConfig};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "efficiency".into(),
        layout: LayoutConfig::sized(40, 28),
        n_racks: 30,
        n_robots: 8,
        n_pickers: 4,
        workload: WorkloadConfig::poisson(150, 0.8),
        disruptions: None,
        seed: 55,
    }
}

#[test]
fn eatp_memory_below_stg_planners() {
    // Larger floor than the other tests: after the STG layers dropped to
    // 2-byte u16 sentinel cells (a quarter of the seed's `Option<RobotId>`
    // slots) the tiny 40×28 scenario became fixed-cost dominated — the
    // dense ParkingBoard arrays (charged to every planner) and EATP's
    // cache+KNN indexes flatten the gap there. On an 80×56 floor the
    // reservation structures dominate again and the Fig. 12 ordering is
    // measurable.
    let inst = ScenarioSpec {
        name: "efficiency-mem".into(),
        layout: LayoutConfig::sized(80, 56),
        n_racks: 60,
        n_robots: 16,
        n_pickers: 5,
        workload: WorkloadConfig::poisson(240, 0.8),
        disruptions: None,
        seed: 55,
    }
    .build()
    .unwrap();
    let mut reports = std::collections::HashMap::new();
    for name in ["NTP", "ATP", "EATP"] {
        let mut p = planner_by_name(name, &EatpConfig::default()).unwrap();
        let r = run_simulation(&inst, &mut *p, &EngineConfig::default());
        assert!(r.completed);
        reports.insert(name, r);
    }
    let eatp = reports["EATP"].peak_memory_bytes;
    for name in ["NTP", "ATP"] {
        let other = reports[name].peak_memory_bytes;
        // Guard band: 2/1. CDT windows live inline in 24-byte cell slots,
        // the KNN lists in one K-stride array, and the KNN build keeps no
        // scratch once it returns (its per-(cell, rack) visited bitset is
        // gone). Measured here: EATP ≈ 493 KiB vs NTP ≈ 1173 KiB ≈ 2.38×,
        // ATP ≈ 1112 KiB ≈ 2.25× (EATP was ≈ 576 KiB at the 9/5 guard this
        // replaces). The paper's qualitative Fig. 12 claim — CDT well below
        // dense layers — must keep holding with ~10% headroom.
        assert!(
            eatp * 2 < other,
            "EATP peak {} should be well below {name}'s {}",
            eatp,
            other
        );
    }
}

#[test]
fn cache_reduces_expansions() {
    let inst = spec().build().unwrap();
    let with_cache = EatpConfig {
        cache_threshold: 50,
        ..EatpConfig::default()
    };
    let without_cache = EatpConfig {
        cache_threshold: 0,
        ..EatpConfig::default()
    };

    let mut p1 = planner_by_name("EATP", &with_cache).unwrap();
    let r1 = run_simulation(&inst, &mut *p1, &EngineConfig::default());
    let mut p2 = planner_by_name("EATP", &without_cache).unwrap();
    let r2 = run_simulation(&inst, &mut *p2, &EngineConfig::default());
    assert!(r1.completed && r2.completed);
    assert!(
        r1.planner_stats.cache_spliced > 0,
        "cache must be exercised"
    );
    assert_eq!(r2.planner_stats.cache_spliced, 0);
    // Per-path expansions: cached search must do materially less work.
    let per_path_cached =
        r1.planner_stats.expansions as f64 / r1.planner_stats.paths_planned.max(1) as f64;
    let per_path_raw =
        r2.planner_stats.expansions as f64 / r2.planner_stats.paths_planned.max(1) as f64;
    assert!(
        per_path_cached < per_path_raw * 0.7,
        "cached {per_path_cached:.1} vs raw {per_path_raw:.1} expansions/path"
    );
}

#[test]
fn makespan_quality_is_preserved_by_optimizations() {
    // Sec. VII-B: EATP trades <~ a few percent effectiveness for large
    // efficiency gains. Allow a 25% guard band against NTP's makespan so
    // the test stays robust across seeds while still catching regressions
    // (e.g. the cache producing pathological waits).
    let inst = spec().build().unwrap();
    let mut ntp = planner_by_name("NTP", &EatpConfig::default()).unwrap();
    let r_ntp = run_simulation(&inst, &mut *ntp, &EngineConfig::default());
    let mut eatp = planner_by_name("EATP", &EatpConfig::default()).unwrap();
    let r_eatp = run_simulation(&inst, &mut *eatp, &EngineConfig::default());
    assert!(
        (r_eatp.makespan as f64) < r_ntp.makespan as f64 * 1.25,
        "EATP {} vs NTP {}",
        r_eatp.makespan,
        r_ntp.makespan
    );
}

#[test]
fn adaptive_batches_more_than_naive() {
    let inst = spec().build().unwrap();
    let mut ntp = planner_by_name("NTP", &EatpConfig::default()).unwrap();
    let r_ntp = run_simulation(&inst, &mut *ntp, &EngineConfig::default());
    let mut atp = planner_by_name("ATP", &EatpConfig::default()).unwrap();
    let r_atp = run_simulation(&inst, &mut *atp, &EngineConfig::default());
    assert!(
        r_atp.batch_factor >= r_ntp.batch_factor,
        "ATP batch {:.2} < NTP batch {:.2}",
        r_atp.batch_factor,
        r_ntp.batch_factor
    );
}
