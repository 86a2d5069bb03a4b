//! The Sec. VI efficiency claims, checked with *deterministic* counters
//! (never wall-clock, which would flake under CI load):
//!
//! * EATP's CDT keeps planner memory far below the STG planners;
//! * the optimizations cost little makespan;
//! * adaptive selection batches more than naive selection.

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
    // KNN index flatten the gap there. On an 80×56 floor the
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
        // Guard band: 6/1. CDT windows live inline in 24-byte cell slots,
        // the KNN build keeps no scratch once it returns, and the KNN
        // lists cover only the rack homes and spawn cells, where a robot
        // can idle (ADR-025). Measured here: EATP ≈ 170 KiB vs NTP ≈ 1173
        // KiB ≈ 6.9×, ATP ≈ 1112 KiB ≈ 6.6× (EATP was ≈ 437 KiB at the 2/1
        // guard this replaces, with a list on every cell). The paper's
        // qualitative Fig. 12 claim — CDT well below dense layers — must
        // keep holding with ~10% headroom.
        assert!(
            eatp * 6 < other,
            "EATP peak {} should be well below {name}'s {}",
            eatp,
            other
        );
    }
}

#[test]
fn makespan_quality_is_preserved_by_optimizations() {
    // Sec. VII-B: EATP trades <~ a few percent effectiveness for large
    // efficiency gains. Allow a 25% guard band against NTP's makespan so
    // the test stays robust across seeds while still catching regressions
    // (e.g. the flip-side selection sending robots to far racks).
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
