//! Perf-trajectory harness: median ns/query of the spatiotemporal A* hot
//! path, seed reference vs arena-optimized, on the congested 120×80
//! sweeper grid *and* on a huge-slack query whose dense table would
//! exceed [`DENSE_TABLE_CAP`] — the sparse hash fallback, which previously
//! had no perf floor. A third case, `parked_goal_clearance`, is the
//! paper-scale shape that used to burn the whole expansion budget: a parking
//! goal five cells away that another robot crosses 100 ticks from now. Its
//! gate is an absolute expansion count, not a ratio against the reference.
//! A fourth, `paper_floor_rotation`, is the only one that does not repeat one
//! query: 256 distinct legs across the walled 200×200 floor against 500
//! reserved paths, so the arena's lines go cold between queries the way they
//! do in a run. It records ns per expansion and arena re-allocations.
//! Emits `BENCH_astar.json` (path overridable via `BENCH_ASTAR_OUT`) so
//! each PR can record where every path stands.
//!
//! Run with: `cargo run --release -p eatp-bench --bin bench_astar`
//! (`BENCH_ASTAR_ITERS` overrides the per-variant iteration count.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;
use tprw_pathfinding::astar::{plan_path_into, plan_path_with, PlanOptions, DENSE_TABLE_CAP};
use tprw_pathfinding::reference::plan_path_reference;
use tprw_pathfinding::{ConflictDetectionTable, Path, PathCache, ReservationSystem, SearchScratch};
use tprw_warehouse::{CellKind, GridMap, GridPos, Layout, LayoutConfig, RobotId};

#[derive(Debug, Serialize)]
struct CaseReport {
    case: String,
    iterations: usize,
    reference_median_ns: u64,
    arena_median_ns: u64,
    speedup: f64,
    reference_expansions: usize,
    arena_expansions: usize,
    arrival_tick_reference: u64,
    arrival_tick_arena: u64,
}

/// The far-clearance parking query (arena search only: the reference needs
/// ~130 000 expansions for it and is not what this case gates).
#[derive(Debug, Serialize)]
struct ClearanceReport {
    case: String,
    iterations: usize,
    arena_median_ns: u64,
    arena_expansions: usize,
    /// CI fails when `arena_expansions` exceeds this: 4 × the ticks between
    /// the query start and the parking clearance, the bound the unit test
    /// `far_parking_clearance_costs_a_walk_not_a_cone` asserts.
    expansion_budget: usize,
    park_clearance: u64,
    arrival_tick_arena: u64,
}

/// A rotation of distinct legs over the paper-scale floor (arena search
/// only). Every other case repeats one query, which keeps its few hundred
/// table entries in L1 and says nothing about the arena's layout.
#[derive(Debug, Serialize)]
struct RotationReport {
    case: String,
    /// Distinct `(start, goal)` legs per pass, and timed passes (each on a
    /// fresh arena, with the path cache warm).
    queries: usize,
    passes: usize,
    reserved_paths: usize,
    /// Median over the passes of pass time / states expanded in the pass.
    /// CI fails above 2 × the committed value.
    arena_ns_per_expansion: u64,
    /// States expanded per pass, failed queries included (deterministic).
    arena_expansions: usize,
    /// Times a fresh arena's dense table is (re-)allocated over one pass.
    /// CI fails above `reallocation_budget`.
    arena_reallocations: usize,
    reallocation_budget: usize,
}

/// Top-level report. The congested-case fields stay flattened at the top so
/// the long-standing CI gate (`speedup >= 1.5`) keeps reading the same
/// schema; the sparse fallback rides along as a nested case.
#[derive(Debug, Serialize)]
struct BenchReport {
    /// Schema tag consumed by CI's drift check against
    /// `crates/bench/README.md` (v2 added `parked_goal_clearance`, v3
    /// `paper_floor_rotation`; the top-level fields are unchanged since
    /// PR 1).
    schema: &'static str,
    case: String,
    iterations: usize,
    reference_median_ns: u64,
    arena_median_ns: u64,
    speedup: f64,
    reference_expansions: usize,
    arena_expansions: usize,
    arrival_tick_reference: u64,
    arrival_tick_arena: u64,
    sparse_fallback: CaseReport,
    parked_goal_clearance: ClearanceReport,
    paper_floor_rotation: RotationReport,
}

/// The congested-grid case shared with the pathfinding no-alloc test:
/// 40 robots sweep vertical columns while the query crosses them all.
fn setup() -> (GridMap, ConflictDetectionTable) {
    let grid = GridMap::filled(120, 80, CellKind::Aisle);
    let mut resv = ConflictDetectionTable::new(120, 80);
    for i in 0..40u16 {
        let x = 3 * i;
        let cells: Vec<GridPos> = (0..79u16).map(|y| GridPos::new(x, y)).collect();
        resv.reserve_path(
            RobotId::new(i as usize + 1),
            &Path {
                start: (i as u64) % 10,
                cells,
            },
            false,
        );
    }
    (grid, resv)
}

fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Measure reference vs arena medians for one query configuration.
fn run_case(
    case: &str,
    iters: usize,
    grid: &GridMap,
    resv: &ConflictDetectionTable,
    opts: &PlanOptions,
) -> CaseReport {
    let me = RobotId::new(0);
    let from = GridPos::new(1, 40);
    let to = GridPos::new(110, 42);

    // Reference (seed HashMap/BinaryHeap implementation).
    let ref_out = plan_path_reference(grid, resv, me, from, 100, to, None, opts)
        .expect("reference finds a path");
    let mut ref_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = plan_path_reference(grid, resv, me, from, 100, to, None, opts)
            .expect("reference finds a path");
        ref_samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(out.path.end(), ref_out.path.end());
    }

    // Arena-optimized, steady state (scratch warmed by the first query).
    let mut scratch = SearchScratch::new();
    let arena_out = plan_path_with(&mut scratch, grid, resv, me, from, 100, to, None, opts)
        .expect("arena finds a path");
    assert_eq!(
        arena_out.path.end(),
        ref_out.path.end(),
        "both implementations must find equally good paths"
    );
    let mut arena_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = plan_path_with(&mut scratch, grid, resv, me, from, 100, to, None, opts)
            .expect("arena finds a path");
        arena_samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(out.path.end(), arena_out.path.end());
    }

    let reference_median_ns = median_ns(&mut ref_samples);
    let arena_median_ns = median_ns(&mut arena_samples);
    CaseReport {
        case: case.to_string(),
        iterations: iters,
        reference_median_ns,
        arena_median_ns,
        speedup: reference_median_ns as f64 / arena_median_ns.max(1) as f64,
        reference_expansions: ref_out.expansions,
        arena_expansions: arena_out.expansions,
        arrival_tick_reference: ref_out.path.end(),
        arrival_tick_arena: arena_out.path.end(),
    }
}

/// Open 40×40 floor, parking goal 5 cells from the start, crossed by
/// another robot 100 ticks after the query starts.
fn run_clearance_case(iters: usize) -> ClearanceReport {
    let grid = GridMap::filled(40, 40, CellKind::Aisle);
    let mut resv = ConflictDetectionTable::new(40, 40);
    let (me, from, to, start_tick) = (
        RobotId::new(0),
        GridPos::new(15, 20),
        GridPos::new(20, 20),
        7,
    );
    let side = GridPos::new(21, 20);
    resv.reserve_path(
        RobotId::new(1),
        &Path {
            start: start_tick + 99,
            cells: vec![side, to, side],
        },
        false,
    );
    let park_clearance = start_tick + 101;
    let opts = PlanOptions::default();
    let mut scratch = SearchScratch::new();
    let first = plan_path_with(
        &mut scratch,
        &grid,
        &resv,
        me,
        from,
        start_tick,
        to,
        None,
        &opts,
    )
    .expect("the goal clears inside the horizon");
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = plan_path_with(
            &mut scratch,
            &grid,
            &resv,
            me,
            from,
            start_tick,
            to,
            None,
            &opts,
        )
        .expect("the goal clears inside the horizon");
        samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(out.path.end(), first.path.end());
    }
    ClearanceReport {
        case: "open 40x40, parking goal 5 cells away, crossed 100 ticks after the start"
            .to_string(),
        iterations: iters,
        arena_median_ns: median_ns(&mut samples),
        arena_expansions: first.expansions,
        expansion_budget: 4 * (park_clearance - start_tick) as usize,
        park_clearance,
        arrival_tick_arena: first.path.end(),
    }
}

/// Walled 200×200 floor, `horizon_slack` 256, cache threshold 50 (the
/// planner defaults at paper scale): 500 seeded legs planned and reserved
/// one after another, then a rotation of 256 more, never reserved.
fn run_rotation_case(iters: usize) -> RotationReport {
    const RESERVED: usize = 500;
    const QUERIES: usize = 256;
    let layout = Layout::generate(&LayoutConfig {
        width: 200,
        height: 200,
        border_walls: true,
        ..LayoutConfig::default()
    })
    .expect("the paper floor generates");
    let grid = &layout.grid;
    let mut resv = ConflictDetectionTable::new(200, 200);
    let mut cache = PathCache::new(grid, 50);
    let opts = PlanOptions {
        horizon_slack: 256,
        ..PlanOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(15);
    let mut cell = || GridPos::new(rng.gen_range(1..199u16), rng.gen_range(1..199u16));
    let mut scratch = SearchScratch::new();
    let mut path = Path::stationary(GridPos::new(1, 1), 0);
    let mut reserved_paths = 0;
    for robot in 1..=RESERVED {
        let (from, to, at) = (cell(), cell(), robot as u64 % 50);
        let found = plan_path_into(
            &mut scratch,
            grid,
            &resv,
            RobotId::new(robot),
            from,
            at,
            to,
            Some(&mut cache),
            &opts,
            &mut path,
        );
        if found.is_some() {
            resv.reserve_path(RobotId::new(robot), &path, false);
            reserved_paths += 1;
        }
    }
    let legs: Vec<(GridPos, GridPos)> = (0..QUERIES).map(|_| (cell(), cell())).collect();

    // One pass over the rotation on a fresh arena, as each episode of a
    // run starts with one: the arena's growth and first-touch page faults
    // are part of the time. Returns (ns, states expanded, re-allocations).
    let mut pass = || {
        let mut scratch = SearchScratch::new();
        let (mut expansions, mut reallocations) = (0, 0);
        let t0 = Instant::now();
        for (i, &(from, to)) in legs.iter().enumerate() {
            let slots = scratch.dense_slots();
            plan_path_into(
                &mut scratch,
                grid,
                &resv,
                RobotId::new(0),
                from,
                i as u64 % 50,
                to,
                Some(&mut cache),
                &opts,
                &mut path,
            );
            expansions += scratch.last_expansions();
            reallocations += usize::from(scratch.dense_slots() != slots);
        }
        (t0.elapsed().as_nanos() as u64, expansions, reallocations)
    };
    // The first pass also fills the path cache; it is not timed.
    let (_, arena_expansions, arena_reallocations) = pass();
    let passes = iters.div_ceil(10);
    let mut samples: Vec<u64> = (0..passes)
        .map(|_| {
            let (ns, expansions, reallocations) = pass();
            assert_eq!(
                (expansions, reallocations),
                (arena_expansions, arena_reallocations)
            );
            ns / expansions as u64
        })
        .collect();
    RotationReport {
        case: "walled 200x200, slack 256, cache L=50: 256 distinct legs against 500 reserved paths"
            .to_string(),
        queries: QUERIES,
        passes,
        reserved_paths,
        arena_ns_per_expansion: median_ns(&mut samples),
        arena_expansions,
        arena_reallocations,
        reallocation_budget: 8,
    }
}

fn main() {
    let iters: usize = std::env::var("BENCH_ASTAR_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(60);
    let out_path =
        std::env::var("BENCH_ASTAR_OUT").unwrap_or_else(|_| "BENCH_astar.json".to_string());

    let (grid, resv) = setup();

    let dense = run_case(
        "congested-grid 120x80, 40 sweepers, 109-cell crossing",
        iters,
        &grid,
        &resv,
        &PlanOptions {
            park_at_goal: false,
            ..PlanOptions::default()
        },
    );

    // Same crossing, but a horizon slack so large the dense table would
    // blow past DENSE_TABLE_CAP — forcing the sparse hash fallback.
    let sparse_slack: u64 = 1 << 15;
    let sparse_slots = grid.cell_count() as u64 * sparse_slack;
    assert!(
        sparse_slots > DENSE_TABLE_CAP as u64,
        "sparse case must exceed the dense cap ({sparse_slots} <= {DENSE_TABLE_CAP})"
    );
    let sparse = run_case(
        "same crossing, horizon_slack 2^15 (grid x slack > DENSE_TABLE_CAP): sparse hash fallback",
        iters,
        &grid,
        &resv,
        &PlanOptions {
            park_at_goal: false,
            horizon_slack: sparse_slack,
            ..PlanOptions::default()
        },
    );

    let clearance = run_clearance_case(iters);
    assert_eq!(
        clearance.arrival_tick_arena, clearance.park_clearance,
        "the earliest admissible arrival is the clearance itself"
    );

    let rotation = run_rotation_case(iters);

    let report = BenchReport {
        schema: "bench_astar/v3",
        case: dense.case.clone(),
        iterations: dense.iterations,
        reference_median_ns: dense.reference_median_ns,
        arena_median_ns: dense.arena_median_ns,
        speedup: dense.speedup,
        reference_expansions: dense.reference_expansions,
        arena_expansions: dense.arena_expansions,
        arrival_tick_reference: dense.arrival_tick_reference,
        arrival_tick_arena: dense.arrival_tick_arena,
        sparse_fallback: sparse,
        parked_goal_clearance: clearance,
        paper_floor_rotation: rotation,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write BENCH_astar.json");
    println!("{json}");
    println!(
        "\ndense: reference {} ns/query -> arena {} ns/query ({:.2}x)\n\
         sparse fallback: reference {} ns/query -> arena {} ns/query ({:.2}x)\n\
         parked-goal clearance: arena {} ns/query, {} expansions (budget {})\n\
         paper-floor rotation: arena {} ns/expansion over {} expansions, {} re-allocations\n\
         written to {out_path}",
        report.reference_median_ns,
        report.arena_median_ns,
        report.speedup,
        report.sparse_fallback.reference_median_ns,
        report.sparse_fallback.arena_median_ns,
        report.sparse_fallback.speedup,
        report.parked_goal_clearance.arena_median_ns,
        report.parked_goal_clearance.arena_expansions,
        report.parked_goal_clearance.expansion_budget,
        report.paper_floor_rotation.arena_ns_per_expansion,
        report.paper_floor_rotation.arena_expansions,
        report.paper_floor_rotation.arena_reallocations
    );
}
