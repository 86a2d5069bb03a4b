//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p eatp-bench --bin repro -- all
//! cargo run --release -p eatp-bench --bin repro -- table3
//! REPRO_SCALE=0.05 cargo run --release -p eatp-bench --bin repro -- fig10
//! ```
//!
//! Subcommands: `table3`, `fig10`, `fig11`, `fig12`, `fig13`, `badcase`,
//! `disrupted`, `ablation-delta`, `ablation-k`, `all`.
//!
//! Output goes to stdout as aligned text tables (the same rows/series the
//! paper reports) and to `results/*.json` for archival. A counting global
//! allocator additionally reports allocator-level peak memory per run,
//! complementing the logical MC metric (`tprw_pathfinding::footprint`).

use eatp_bench::{
    run_cell, run_cell_disrupted, run_cell_with, scale_from_env, skipped_in_paper, write_json,
    DEFAULT_SEED,
};
use eatp_core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tprw_simulator::{run_simulation, EngineConfig, SimulationReport};
use tprw_warehouse::Dataset;

/// System allocator wrapper counting live and peak bytes.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let scale = scale_from_env();
    println!("# EATP reproduction — scale={scale} seed={DEFAULT_SEED}");
    println!("# (set REPRO_SCALE=1.0 for full Table II scale)\n");
    match command {
        "table3" => table3(scale, &full_grid(scale)),
        "fig10" => fig10(&full_grid(scale)),
        "fig11" => fig11(&full_grid(scale)),
        "fig12" => fig12(&full_grid(scale)),
        "fig13" => fig13(scale),
        "badcase" => badcase(),
        "disrupted" => disrupted(scale),
        "ablation-delta" => ablation_delta(scale),
        "ablation-k" => ablation_k(scale),
        "all" => {
            // One grid run feeds Table III and Figs. 10-12.
            let grid = full_grid(scale);
            table3(scale, &grid);
            fig10(&grid);
            fig11(&grid);
            fig12(&grid);
            fig13(scale);
            badcase();
            disrupted(scale);
            ablation_delta(scale);
            ablation_k(scale);
        }
        other => {
            eprintln!(
                "unknown command {other}; use table3|fig10|fig11|fig12|fig13|badcase|disrupted|ablation-delta|ablation-k|all"
            );
            std::process::exit(2);
        }
    }
}

/// Run every (dataset, planner) cell once, returning the reports.
fn full_grid(scale: f64) -> Vec<SimulationReport> {
    let mut reports = Vec::new();
    for dataset in Dataset::ALL {
        for name in PLANNER_NAMES {
            if skipped_in_paper(name, dataset, scale) {
                continue;
            }
            reset_peak();
            let report = run_cell(dataset, name, scale, DEFAULT_SEED);
            eprintln!(
                "  ran {name} on {} (alloc peak {:.1} MiB)",
                dataset.name(),
                peak_mib()
            );
            reports.push(report);
        }
    }
    reports
}

fn table3(_scale: f64, reports: &[SimulationReport]) {
    println!("== Table III: makespan comparison on all datasets ==");
    print!("{:<8}", "Method");
    for d in Dataset::ALL {
        print!(" {:>12}", d.name());
    }
    println!();
    for name in PLANNER_NAMES {
        print!("{name:<8}");
        for d in Dataset::ALL {
            let cell = reports
                .iter()
                .find(|r| r.planner == name && r.scenario.starts_with(d.name()));
            match cell {
                Some(r) if r.completed => print!(" {:>12}", r.makespan),
                Some(r) => print!(" {:>11}!", r.makespan),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }
    // Improvement summary as in Sec. VII-B.
    for d in Dataset::ALL {
        let ntp = reports
            .iter()
            .find(|r| r.planner == "NTP" && r.scenario.starts_with(d.name()));
        let best = reports
            .iter()
            .filter(|r| {
                (r.planner == "ATP" || r.planner == "EATP") && r.scenario.starts_with(d.name())
            })
            .min_by_key(|r| r.makespan);
        if let (Some(ntp), Some(best)) = (ntp, best) {
            let gain = 100.0 * (ntp.makespan as f64 - best.makespan as f64) / ntp.makespan as f64;
            println!(
                "  {}: best adaptive ({}) improves on NTP by {:.1}%",
                d.name(),
                best.planner,
                gain
            );
        }
    }
    write_json("table3", &reports.to_vec());
    println!();
}

fn fig10(reports: &[SimulationReport]) {
    println!("== Fig. 10: PPR and RWR vs item progress ==");
    for d in Dataset::ALL {
        println!("-- {} --", d.name());
        for metric in ["PPR", "RWR"] {
            println!("  {metric}:");
            for r in reports.iter().filter(|r| r.scenario.starts_with(d.name())) {
                let series: Vec<String> = r
                    .checkpoints
                    .iter()
                    .map(|c| format!("{:.3}", if metric == "PPR" { c.ppr } else { c.rwr }))
                    .collect();
                println!("    {:<5} [{}]", r.planner, series.join(", "));
            }
        }
    }
    write_json("fig10", &reports.to_vec());
    println!();
}

fn fig11(reports: &[SimulationReport]) {
    println!("== Fig. 11: selection (STC) and planning (PTC) time vs item progress ==");
    for d in Dataset::ALL {
        println!("-- {} --", d.name());
        for metric in ["STC", "PTC"] {
            println!("  {metric} (cumulative seconds):");
            for r in reports.iter().filter(|r| r.scenario.starts_with(d.name())) {
                let series: Vec<String> = r
                    .checkpoints
                    .iter()
                    .map(|c| format!("{:.3}", if metric == "STC" { c.stc_s } else { c.ptc_s }))
                    .collect();
                println!("    {:<5} [{}]", r.planner, series.join(", "));
            }
        }
    }
    write_json("fig11", &reports.to_vec());
    println!();
}

fn fig12(reports: &[SimulationReport]) {
    println!("== Fig. 12: memory consumption vs item progress (KiB, logical MC) ==");
    for d in Dataset::ALL {
        println!("-- {} --", d.name());
        for r in reports.iter().filter(|r| r.scenario.starts_with(d.name())) {
            let series: Vec<String> = r
                .checkpoints
                .iter()
                .map(|c| format!("{}", c.memory_bytes / 1024))
                .collect();
            println!("    {:<5} [{}]", r.planner, series.join(", "));
        }
        // Reduction headline (EATP vs the rest), as in Sec. VII-B.
        let eatp = reports
            .iter()
            .find(|r| r.planner == "EATP" && r.scenario.starts_with(d.name()));
        let max_other = reports
            .iter()
            .filter(|r| r.planner != "EATP" && r.scenario.starts_with(d.name()))
            .map(|r| r.peak_memory_bytes)
            .max();
        if let (Some(eatp), Some(other)) = (eatp, max_other) {
            let cut = 100.0 * (other as f64 - eatp.peak_memory_bytes as f64) / other as f64;
            println!("    EATP peak-memory reduction vs worst baseline: {cut:.1}%");
            println!(
                "    (search arena, same for all planners, excluded from MC: peak {} KiB)",
                eatp.peak_scratch_bytes / 1024
            );
        }
    }
    write_json("fig12", &reports.to_vec());
    println!();
}

fn fig13(scale: f64) {
    println!("== Fig. 13: bottleneck variation over time (ATP, Real-Norm surge) ==");
    // The case study uses the demonstrative surge warehouse; Real-Norm's
    // carnival profile is our stand-in (the Geekplus logs are proprietary;
    // `tprw_warehouse::datasets` documents the substitution).
    let report = run_cell(Dataset::RealNorm, "ATP", scale, DEFAULT_SEED);
    println!("{}", report.bottleneck_table());
    // The paper's qualitative claim: transport dominates early, queuing
    // overtakes as load builds, processing plateaus.
    let n = report.bottleneck.len();
    if n >= 4 {
        let early = &report.bottleneck[..n / 4];
        let early_transport: u64 = early.iter().map(|b| b.transport).sum();
        let early_queue: u64 = early.iter().map(|b| b.queuing).sum();
        println!(
            "  early phase: transport {} vs queuing {} (transport-dominant: {})",
            early_transport,
            early_queue,
            early_transport > early_queue
        );
        let peak_queue = report
            .bottleneck
            .iter()
            .max_by_key(|b| b.queuing)
            .expect("non-empty");
        println!(
            "  peak queuing bucket at t={} (queuing {} vs transport {})",
            peak_queue.t, peak_queue.queuing, peak_queue.transport
        );
    }
    println!(
        "  batching: mean items per trip {:.2} over {} trips",
        report.batch_factor, report.rack_trips
    );
    write_json("fig13", &report);
    println!();
}

fn badcase() {
    println!("== Sec. III-B bad case: naive vs adaptive on the adversarial instance ==");
    for k in [2usize, 4, 8, 12] {
        let case = eatp_core::badcase::build(eatp_core::badcase::BadCaseParams { k, xi: 25 });
        let mut rows = Vec::new();
        for name in ["NTP", "ATP"] {
            let mut planner = planner_by_name(name, &EatpConfig::default()).expect("known");
            let report = run_simulation(&case.instance, &mut *planner, &EngineConfig::default());
            rows.push((name, report.makespan, report.rack_trips));
        }
        println!(
            "  k={k:<3} analytic naive/optimal ratio={:.2} | measured: {} M={} trips={} vs {} M={} trips={}",
            case.analytic_ratio(),
            rows[0].0,
            rows[0].1,
            rows[0].2,
            rows[1].0,
            rows[1].1,
            rows[1].2,
        );
    }
    println!();
}

fn disrupted(scale: f64) {
    println!("== Disrupted sweep: makespan inflation under a fleet-scaled wave ==");
    println!("   (breakdowns ≈ fleet/4, aisle blockades, one closure, rack removals)");
    let mut reports = Vec::new();
    for dataset in Dataset::ALL {
        println!("-- {} --", dataset.name());
        println!(
            "  {:<5} {:>10} {:>12} {:>10} {:>8} {:>9}",
            "", "clean M", "disrupted M", "inflation", "events", "deferred"
        );
        for name in PLANNER_NAMES {
            if skipped_in_paper(name, dataset, scale) {
                println!("  {name:<5} {:>10}", "-");
                continue;
            }
            reset_peak();
            let clean = run_cell(dataset, name, scale, DEFAULT_SEED);
            let wave =
                run_cell_disrupted(dataset, name, scale, DEFAULT_SEED, &EatpConfig::default());
            // The sweep is also a safety gate: a disrupted cell that stalls,
            // violates a disruption invariant or executes a conflict is a
            // reproduction failure, not a data point.
            assert!(
                wave.completed,
                "{name} on {} must drain the wave",
                dataset.name()
            );
            assert_eq!(wave.disruption_violations, 0, "{name}: violation-free");
            assert_eq!(wave.executed_conflicts, 0, "{name}: conflict-free");
            let inflation = wave.makespan as f64 / clean.makespan.max(1) as f64;
            println!(
                "  {:<5} {:>10} {:>12} {:>9.2}x {:>8} {:>9}",
                name,
                clean.makespan,
                wave.makespan,
                inflation,
                wave.events_applied,
                wave.events_deferred
            );
            reports.push(wave);
        }
    }
    write_json("disrupted", &reports);
    println!();
}

fn ablation_delta(scale: f64) {
    println!("== Ablation: bootstrap degree δ (paper: δ < 0.4 trains effectively) ==");
    for delta in [0.0, 0.1, 0.2, 0.4, 0.6, 0.8] {
        let mut config = EatpConfig::default();
        config.rl.delta = delta;
        let report = run_cell_with(Dataset::SynA, "ATP", scale, DEFAULT_SEED, &config);
        println!(
            "  delta={delta:<4} M={:<8} batch={:.2} q_states={}",
            report.makespan, report.batch_factor, report.planner_stats.q_states
        );
    }
    println!();
}

fn ablation_k(scale: f64) {
    println!("== Ablation: flip-side K (Sec. VI-A K-nearest racks per robot) ==");
    for k in [1usize, 2, 4, 8, 16, 32] {
        let config = EatpConfig {
            k_nearest: k,
            ..EatpConfig::default()
        };
        let report = run_cell_with(Dataset::SynA, "EATP", scale, DEFAULT_SEED, &config);
        println!(
            "  K={k:<4} M={:<8} STC={:.3}s batch={:.2}",
            report.makespan, report.stc_s, report.batch_factor
        );
    }
    println!();
}
