//! The Sec. VI efficiency claims, checked with *deterministic* counters
//! (never wall-clock, which would flake under CI load):
//!
//! * EATP's CDT keeps planner memory far below the STG planners;
//! * the optimizations cost little makespan;
//! * adaptive selection batches more than naive selection.

mod common;

use common::lattice::paper_floor;
use eatp::core::{planner_by_name, EatpConfig};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::{Instance, LayoutConfig, ScenarioSpec, WorkloadConfig};

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

/// The peak planner memory (MC) of `planner`'s completed run on `inst`.
fn peak_memory(inst: &Instance, planner: &str) -> usize {
    let mut p = planner_by_name(planner, &EatpConfig::default()).unwrap();
    let r = run_simulation(inst, &mut *p, &EngineConfig::default());
    assert!(r.completed, "{planner} completes");
    r.peak_memory_bytes
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
    let eatp = peak_memory(&inst, "EATP");
    for name in ["NTP", "ATP"] {
        let other = peak_memory(&inst, name);
        // Guard band: 7.3/1. CDT windows live inline in 16-byte cell
        // slots and parked robots in 2-byte cells (ADR-036), longer ones in
        // one header-free spill arena that drops passed entries before a
        // window grows (ADR-038), the KNN build keeps no scratch once it
        // returns, the KNN lists cover only the rack homes and spawn
        // cells, where a robot can idle (ADR-025), and a row is found by
        // its rank in a one-bit-per-cell bitmap (ADR-040). Measured here:
        // EATP 88 126 B vs NTP 710 152 B ≈ 8.1×, ATP 818 294 B ≈ 9.3×. The
        // band was 6.1/1 with a per-cell `u32` slot map (EATP 105 282 B ≈
        // 6.7× and 7.8×), 5.8/1 with a `Vec` per spill (EATP 110 866 B ≈
        // 6.4× and 7.4×), 3.8/1 with 24-byte slots and 8-byte parking
        // cells (EATP 173 714 B, NTP 737 000 B ≈ 4.2×, ATP 845 126 B ≈
        // 4.9×), and 6/1 before that while the STG kept passed layers
        // until a 64-tick collection (NTP 1 204 376 B, ATP 1 141 532 B); it
        // releases them every tick since ADR-035.
        // The paper's qualitative Fig. 12 claim — CDT well below dense
        // layers — must keep holding with ~10% headroom;
        // `eatp_memory_far_below_stg_planners_at_paper_scale` holds the
        // paper floor to a stricter band.
        assert!(
            eatp * 73 < other * 10,
            "EATP peak {} should be well below {name}'s {}",
            eatp,
            other
        );
    }
}

/// Fig. 12 at the benchmark's scale: on the lattice's 200×200 paper floor
/// (500 robots, seed 7) the STG planners' peak MC is at least thirteen
/// times EATP's (~10 % headroom). Measured: EATP 1 125 060 B, NTP
/// 16 116 896 B and ATP 16 117 000 B, both ≈ 14.3× (ADR-040). The band was
/// eleven times with a per-cell `u32` KNN slot map (EATP 1 280 060 B,
/// ≈ 12.6×; ADR-038), nine times
/// with a `Vec` per CDT spill (EATP 1 565 908 B, ≈ 10.3×), and six times
/// with 24-byte CDT slots and 8-byte parking cells (EATP 2 129 812 B, NTP
/// 16 360 800 B, ATP 16 360 904 B, ≈ 7.7×; ADR-036). A release check
/// (three runs of 500 robots, about half a second); debug builds skip it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn eatp_memory_far_below_stg_planners_at_paper_scale() {
    let world = paper_floor(7);
    let eatp = peak_memory(&world, "EATP");
    for name in ["NTP", "ATP"] {
        let other = peak_memory(&world, name);
        assert!(
            eatp * 13 <= other,
            "EATP peak {eatp} should be a thirteenth or less of {name}'s {other}"
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
