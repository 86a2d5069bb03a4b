//! Quickstart: build a small warehouse, run EATP, inspect the report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use eatp::core::{EatpConfig, EfficientAdaptiveTaskPlanner};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

fn main() {
    // 1. Describe the warehouse: a 40×30 grid with rack blocks, a picking
    //    edge, 30 racks, 8 robots, 4 pickers and 200 Poisson-arriving items.
    let spec = ScenarioSpec {
        name: "quickstart".into(),
        layout: LayoutConfig::sized(40, 30),
        n_racks: 30,
        n_robots: 8,
        n_pickers: 4,
        workload: WorkloadConfig::poisson(200, 0.8),
        disruptions: None,
        seed: 42,
    };
    let instance = spec.build().expect("scenario builds");
    println!(
        "warehouse {}x{}: {} racks, {} robots, {} pickers, {} items\n",
        instance.grid.width(),
        instance.grid.height(),
        instance.racks.len(),
        instance.robots.len(),
        instance.pickers.len(),
        instance.items.len(),
    );
    // A peek at the floor (R = rack home, P = picking station).
    println!("{}", instance.grid.ascii());

    // 2. Run the paper's headline planner: EATP (Algorithm 3) — Q-learning
    //    rack selection, flip-side robot matching over a static K-nearest
    //    index, and A* over CDT reservations.
    let mut planner = EfficientAdaptiveTaskPlanner::new(EatpConfig::default());
    let report = run_simulation(&instance, &mut planner, &EngineConfig::default());

    // 3. Inspect the end-to-end result.
    println!("{}", report.summary_row());
    println!("\nprogress series (Figs. 10-12 axes):");
    println!("{}", report.series_table());
    println!("bottleneck decomposition (Fig. 13):");
    println!("{}", report.bottleneck_table());
    assert!(report.completed, "all items fulfilled");
    assert_eq!(report.executed_conflicts, 0, "conflict-free execution");
}
