//! Steady-state allocation test for the A* hot path.
//!
//! A counting global allocator wraps `System`; after warming a
//! [`SearchScratch`] on a congested scenario, repeated
//! [`plan_path_into`] queries must perform **zero** heap allocations —
//! every buffer (stamp/action tables, dial buckets, the output path) is
//! recycled. This is the acceptance bar of the arena refactor: the seed
//! implementation allocated fresh `HashMap`s and a `BinaryHeap` per query.
//!
//! This file intentionally holds a single `#[test]` so no concurrent test
//! thread can pollute the allocation counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tprw_pathfinding::astar::{plan_path_into, PlanOptions};
use tprw_pathfinding::{ConflictDetectionTable, Path, ReservationSystem, SearchScratch};
use tprw_warehouse::{CellKind, GridMap, GridPos, RobotId};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_events() -> usize {
    ALLOCS.load(Ordering::Relaxed) + REALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warmed_up_plan_path_does_not_allocate() {
    // A congested grid: 40 robots sweeping columns.
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
    let me = RobotId::new(0);
    let opts = PlanOptions {
        park_at_goal: false,
        ..PlanOptions::default()
    };
    // Query mix covering different shapes/lengths so the warm-up reaches the
    // workload's high-water buffer sizes.
    let queries = [
        (GridPos::new(1, 40), GridPos::new(110, 42)),
        (GridPos::new(5, 5), GridPos::new(100, 70)),
        (GridPos::new(110, 42), GridPos::new(1, 40)),
        (GridPos::new(50, 0), GridPos::new(50, 79)),
    ];

    let mut scratch = SearchScratch::new();
    let mut out = Path {
        start: 0,
        cells: Vec::new(),
    };

    // Warm-up: two rounds so every buffer reaches steady state.
    for _ in 0..2 {
        for &(s, g) in &queries {
            plan_path_into(
                &mut scratch,
                &grid,
                &resv,
                me,
                s,
                100,
                g,
                None,
                &opts,
                &mut out,
            )
            .expect("path exists");
        }
    }

    let signature = scratch.capacity_signature();
    // One clean window out of a few attempts: the counting allocator sees
    // the whole process (libtest's harness thread can allocate while
    // buffering output), while a real regression allocates in every
    // window. Same discipline as `no_alloc_cdt.rs`.
    let mut clean_window = false;
    for _ in 0..3 {
        let before = allocation_events();
        for _ in 0..5 {
            for &(s, g) in &queries {
                let stats = plan_path_into(
                    &mut scratch,
                    &grid,
                    &resv,
                    me,
                    s,
                    100,
                    g,
                    None,
                    &opts,
                    &mut out,
                )
                .expect("path exists");
                assert!(stats.expansions > 0);
            }
        }
        let after = allocation_events();
        if after == before {
            clean_window = true;
            break;
        }
    }
    assert!(
        clean_window,
        "warmed-up plan_path_into allocated in every measured window"
    );
    assert_eq!(
        scratch.capacity_signature(),
        signature,
        "scratch buffer capacities must be stable after warm-up"
    );
}
