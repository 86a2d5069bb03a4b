//! Direct kernel probes of the pathfinding layer: absolute ns per A*
//! expansion, per `can_move` and per reserved cell, on the workload's own
//! grid with the same seeded background traffic loaded into both reservation
//! tables. No reference twin is involved, so the numbers survive its removal.
//!
//! These are warm-cache micro-kernels on invented traffic: short searches
//! that succeed. The episodes' searches fail a quarter of the time and fill
//! closed sets of megabytes, so their cost per expansion is several times the
//! probes'. The in-run `pathfinding.*` metrics speak for the workloads.

use std::hint::black_box;
use std::time::Instant;

use tprw_pathfinding::{
    plan_path_with, ConflictDetectionTable, Path, PlanOptions, ReservationSystem, SearchScratch,
    SpatioTemporalGraph,
};
use tprw_warehouse::{CellKind, GridMap, GridPos, RobotId, Tick};

use crate::stats::{median, mix, SplitMix};
use crate::workloads::{episode_seed, scenario_seed, Workload};

const STREAM_PROBES: u64 = 3;
/// Robots whose moving paths make up the background traffic.
const TRAFFIC: usize = 400;
const ASTAR_QUERIES: usize = 150;
const CAN_MOVE_PROBES: usize = 200_000;
const RESERVE_PATHS: usize = 150;
const REPS: usize = 5;

pub struct ProbeResults {
    pub astar_cdt_ns_per_expansion: f64,
    pub astar_stg_ns_per_expansion: f64,
    pub can_move_cdt_ns: f64,
    pub can_move_stg_ns: f64,
    pub reserve_cdt_ns_per_cell: f64,
    pub reserve_stg_ns_per_cell: f64,
}

struct Fixture {
    grid: GridMap,
    /// `(start, goal, start tick)` of each A* query.
    queries: Vec<(GridPos, GridPos, Tick)>,
    /// `(from, to, t)` of each `can_move` probe.
    moves: Vec<(GridPos, GridPos, Tick)>,
    /// Planned against the loaded traffic but not reserved.
    fresh: Vec<(RobotId, Path)>,
}

fn moving() -> PlanOptions {
    PlanOptions {
        park_at_goal: false,
        ..PlanOptions::default()
    }
}

/// Loads the traffic into both tables and derives every probe input from it.
fn fixture(
    grid: GridMap,
    seed: u64,
    cdt: &mut ConflictDetectionTable,
    stg: &mut SpatioTemporalGraph,
) -> Fixture {
    let aisles: Vec<GridPos> = grid.cells_of_kind(CellKind::Aisle).collect();
    let mut rng = SplitMix(mix(seed, STREAM_PROBES));
    let cell = |rng: &mut SplitMix| aisles[rng.below(aisles.len() as u64) as usize];
    let mut scratch = SearchScratch::new();
    let opts = moving();

    let mut traffic: Vec<Path> = Vec::new();
    while traffic.len() < TRAFFIC {
        let (from, to, t) = (cell(&mut rng), cell(&mut rng), rng.below(64));
        let robot = RobotId::new(traffic.len());
        let planned = plan_path_with(&mut scratch, &grid, cdt, robot, from, t, to, None, &opts);
        if let Some(out) = planned {
            cdt.reserve_path(robot, &out.path, false);
            stg.reserve_path(robot, &out.path, false);
            traffic.push(out.path);
        }
    }

    let queries = (0..ASTAR_QUERIES)
        .map(|_| (cell(&mut rng), cell(&mut rng), 16 + rng.below(32)))
        .collect();
    // Three probes in four land on a traffic cell near the tick it is
    // reserved, one in four anywhere: A* expands into empty space too.
    let moves = (0..CAN_MOVE_PROBES)
        .map(|i| {
            let (to, t) = if i % 4 != 3 {
                let path = &traffic[rng.below(traffic.len() as u64) as usize];
                let at = path.start + rng.below(path.len() as u64);
                (path.at(at), at + rng.below(4))
            } else {
                (cell(&mut rng), rng.below(256))
            };
            let from = grid.passable_neighbors(to).next().unwrap_or(to);
            (from, to, t.saturating_sub(2))
        })
        .collect();
    let mut fresh = Vec::new();
    while fresh.len() < RESERVE_PATHS {
        let (from, to, t) = (cell(&mut rng), cell(&mut rng), rng.below(64));
        let robot = RobotId::new(TRAFFIC + 1 + fresh.len());
        if let Some(out) = plan_path_with(&mut scratch, &grid, cdt, robot, from, t, to, None, &opts)
        {
            // Held while the rest are planned, so no two fresh paths collide.
            cdt.reserve_path(robot, &out.path, false);
            fresh.push((robot, out.path));
        }
    }
    for (robot, _) in &fresh {
        cdt.release_robot(*robot);
    }
    Fixture {
        grid,
        queries,
        moves,
        fresh,
    }
}

/// Median over [`REPS`] of `probe()`, which returns `(ns, units of work)`.
fn ns_per_unit(mut probe: impl FnMut() -> (u64, u64)) -> f64 {
    probe(); // warm: scratch arena sized, tables and inputs in cache
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, units) = probe();
            ns as f64 / units as f64
        })
        .collect();
    median(&samples)
}

fn astar<R: ReservationSystem>(f: &Fixture, table: &R) -> f64 {
    let mut scratch = SearchScratch::new();
    let me = RobotId::new(TRAFFIC);
    let opts = moving();
    ns_per_unit(|| {
        let t0 = Instant::now();
        let mut expansions = 0u64;
        for &(from, to, t) in &f.queries {
            let out = plan_path_with(&mut scratch, &f.grid, table, me, from, t, to, None, &opts);
            expansions += black_box(out).map_or(0, |o| o.expansions as u64);
        }
        (t0.elapsed().as_nanos() as u64, expansions.max(1))
    })
}

fn can_move<R: ReservationSystem>(f: &Fixture, table: &R) -> f64 {
    let me = RobotId::new(TRAFFIC);
    ns_per_unit(|| {
        let t0 = Instant::now();
        let mut allowed = 0u64;
        for &(from, to, t) in &f.moves {
            allowed += u64::from(table.can_move(me, from, to, t));
        }
        black_box(allowed);
        (t0.elapsed().as_nanos() as u64, f.moves.len() as u64)
    })
}

fn reserve<R: ReservationSystem>(f: &Fixture, table: &mut R) -> f64 {
    let cells: u64 = f.fresh.iter().map(|(_, p)| p.len() as u64).sum();
    ns_per_unit(|| {
        let t0 = Instant::now();
        for (robot, path) in &f.fresh {
            table.reserve_path(*robot, path, false);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        for (robot, _) in &f.fresh {
            table.release_robot(*robot);
        }
        (ns, cells)
    })
}

pub fn run(w: &Workload, seed: u64) -> ProbeResults {
    let grid = (w.spec)(w.orders, scenario_seed(episode_seed(seed, 0)))
        .build()
        .expect("workload builds")
        .grid;
    let mut cdt = ConflictDetectionTable::new(grid.width(), grid.height());
    let mut stg = SpatioTemporalGraph::new(grid.width(), grid.height());
    let f = fixture(grid, seed, &mut cdt, &mut stg);
    ProbeResults {
        astar_cdt_ns_per_expansion: astar(&f, &cdt),
        astar_stg_ns_per_expansion: astar(&f, &stg),
        can_move_cdt_ns: can_move(&f, &cdt),
        can_move_stg_ns: can_move(&f, &stg),
        reserve_cdt_ns_per_cell: reserve(&f, &mut cdt),
        reserve_stg_ns_per_cell: reserve(&f, &mut stg),
    }
}
