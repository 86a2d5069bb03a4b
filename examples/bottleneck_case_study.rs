//! Bottleneck variation case study (Fig. 13 / Sec. VII-C).
//!
//! Runs ATP on a surge workload and prints how the dominant fulfilment-cycle
//! stage (transport → queuing → processing) shifts as throughput builds, and
//! how the adaptive planner grows its batches when queuing dominates.
//!
//! ```text
//! cargo run --release --example bottleneck_case_study
//! ```

use eatp::core::{AdaptiveTaskPlanner, EatpConfig};
use eatp::simulator::{run_simulation, EngineConfig};
use eatp::warehouse::Dataset;

fn main() {
    // The Real-Norm stand-in carries the carnival-style surge profile
    // (`tprw_warehouse::datasets` documents the substitution) — the same
    // throughput variation as the Geekplus demonstration warehouse of
    // Sec. VII-C.
    let instance = Dataset::RealNorm
        .spec(0.01, 7)
        .build()
        .expect("dataset builds");
    println!(
        "case study: {} items, {} robots, {} pickers\n",
        instance.items.len(),
        instance.robots.len(),
        instance.pickers.len()
    );

    let mut planner = AdaptiveTaskPlanner::new(EatpConfig::default());
    let report = run_simulation(&instance, &mut planner, &EngineConfig::default());
    assert!(report.completed);

    println!("bottleneck decomposition over time (robot-ticks per stage):");
    println!("{}", report.bottleneck_table());

    // Summarize the stage shifts like the Fig. 13 narrative.
    let mut last_stage = "";
    for b in &report.bottleneck {
        let stage = b.dominant();
        if stage != last_stage {
            println!("  t={:<8} bottleneck -> {stage}", b.t);
            last_stage = stage;
        }
    }
    println!(
        "\nadaptive batching: {:.2} items per rack trip over {} trips (makespan {})",
        report.batch_factor, report.rack_trips, report.makespan
    );
}
