//! Disruption drill: run the same floor clean and under a disruption wave.
//!
//! The paper's world freezes at build time; this example exercises the
//! dynamic-world subsystem end to end. A congested walled floor is hit by a
//! scripted aisle blockade plus a generated wave of robot breakdowns and a
//! station closure, and every planner replays the identical event schedule
//! (seed-deterministic). The drill prints the event timeline, then compares
//! each planner's disrupted run against its clean run — the makespan
//! inflation is the measured price of the disruptions, with zero executed
//! conflicts and zero safety violations either way.
//!
//! With `--checkpoint-every N` the disrupted run additionally exercises the
//! checkpoint/resume subsystem under fire: every `N` ticks the engine and
//! planner are serialized to disk, **dropped**, and resumed from the file
//! plus the instance it was built on — the only run state crossing a
//! segment boundary is the snapshot. The
//! drill asserts the final fingerprint is bit-identical to the
//! straight-through run.
//!
//! With `--live-orders` the disrupted floor additionally runs in **live
//! ingestion** mode: the pregenerated item list is stripped and resubmitted
//! as `SubmitOrder` commands (plus a final `Shutdown`), redelivered every
//! tick — the harshest redelivery schedule the idempotency cursor must
//! absorb (see `docs/order-stream.md`). The drill asserts the live
//! fingerprint is bit-identical to the pregenerated run. The flag composes:
//! under `--checkpoint-every` the live run crosses save/drop/resume
//! boundaries *mid-ingestion*, redelivering the whole stream into every
//! resumed segment.
//!
//! ```text
//! cargo run --release --example disruption_drill
//! cargo run --release --example disruption_drill -- --checkpoint-every 64
//! cargo run --release --example disruption_drill -- --live-orders --checkpoint-every 64
//! ```

use eatp::core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use eatp::simulator::{
    read_snapshot, run_simulation, Ack, Command, Engine, EngineConfig, OrderSpec, SequencedCommand,
    SimulationReport,
};
use eatp::warehouse::{
    CellKind, DisruptionConfig, DisruptionEvent, GridPos, Instance, LayoutConfig, OrderId,
    ScenarioSpec, Tick, TimedEvent, WorkloadConfig,
};

/// Parse `--<flag> N` (or `--<flag>=N`) from the command line; `None` when
/// absent. `min` guards nonsense values (a zero checkpoint period would
/// never advance).
fn numeric_arg(flag: &str, min: u64) -> Option<u64> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let long = format!("--{flag}");
    let prefixed = format!("--{flag}=");
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let value = if *arg == long {
            i += 1;
            args.get(i).cloned()
        } else {
            arg.strip_prefix(&prefixed).map(str::to_owned)
        };
        if let Some(v) = value {
            match v.parse::<u64>() {
                Ok(n) if n >= min => return Some(n),
                _ => {
                    eprintln!("--{flag} wants an integer >= {min}, got {v:?}");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    None
}

/// Run `name` on `inst` in `every`-tick segments: each boundary saves a
/// snapshot to `path`, drops the engine and planner, and resumes a fresh
/// pair from the file plus the instance it was built on. Returns the final
/// report and the save count.
fn checkpointed_run(
    inst: &Instance,
    name: &str,
    every: Tick,
    path: &std::path::Path,
    config: &EngineConfig,
) -> (SimulationReport, usize) {
    let config = config.clone();
    let mut saves = 0usize;
    {
        let mut planner = planner_by_name(name, &EatpConfig::default()).expect("known planner");
        let mut engine = Engine::new(inst, &config);
        engine.start(&mut *planner);
        while !engine.is_finished() && engine.current_tick() < every {
            engine.tick_once(&mut *planner);
        }
        if engine.is_finished() {
            return (engine.report(&mut *planner), saves);
        }
        engine
            .save_snapshot(&*planner, path)
            .expect("snapshot saves");
        saves += 1;
        // Engine and planner drop here: from now on the run only exists in
        // the snapshot file.
    }
    loop {
        let data = read_snapshot(path).expect("snapshot reads back");
        let mut planner = planner_by_name(name, &EatpConfig::default()).expect("known planner");
        let mut engine = eatp::simulator::resume_from(inst, &data, &mut *planner).expect("resumes");
        let target = engine.current_tick() + every;
        while !engine.is_finished() && engine.current_tick() < target {
            engine.tick_once(&mut *planner);
        }
        if engine.is_finished() {
            return (engine.report(&mut *planner), saves);
        }
        engine
            .save_snapshot(&*planner, path)
            .expect("snapshot saves");
        saves += 1;
    }
}

/// The command stream equivalent to `inst`'s pregenerated item list: every
/// item becomes a `SubmitOrder` (order id = item id, identical
/// rack/processing/arrival), then a `Shutdown`. Submitting everything at
/// tick 0 keeps the order-age accounting identical to the pregenerated run.
fn equivalent_stream(inst: &Instance) -> Vec<SequencedCommand> {
    let mut commands: Vec<SequencedCommand> = inst
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| SequencedCommand {
            seq: i as u64,
            command: Command::SubmitOrder {
                spec: OrderSpec {
                    order: OrderId::new(i),
                    rack: item.rack,
                    processing: item.processing,
                    arrival: item.arrival,
                },
            },
        })
        .collect();
    commands.push(SequencedCommand {
        seq: commands.len() as u64,
        command: Command::Shutdown,
    });
    commands
}

/// Drive a live engine to completion, **redelivering the whole stream at
/// every tick** — the harshest producer a deployment could present; the
/// `next_command_seq` cursor must make the redelivered prefix a no-op.
fn drive_live(
    engine: &mut Engine<'_>,
    planner: &mut dyn eatp::core::Planner,
    stream: &[SequencedCommand],
    acks: &mut Vec<Ack>,
) {
    while !engine.is_finished() {
        let mut due = stream.to_vec();
        engine.tick_with_commands(planner, &mut due, acks);
    }
}

/// [`checkpointed_run`] for live mode: each segment boundary saves, drops
/// engine + planner, resumes from the file plus the instance it was built
/// on, and the *entire* command
/// stream is redelivered into every resumed segment.
fn checkpointed_live_run(
    twin: &Instance,
    name: &str,
    every: Tick,
    path: &std::path::Path,
    config: &EngineConfig,
    stream: &[SequencedCommand],
) -> (SimulationReport, usize) {
    let mut saves = 0usize;
    {
        let mut planner = planner_by_name(name, &EatpConfig::default()).expect("known planner");
        let mut engine = Engine::new(twin, config);
        engine.start(&mut *planner);
        while !engine.is_finished() && engine.current_tick() < every {
            let mut due = stream.to_vec();
            engine.tick_with_commands(&mut *planner, &mut due, &mut Vec::new());
        }
        if engine.is_finished() {
            return (engine.report(&mut *planner), saves);
        }
        engine
            .save_snapshot(&*planner, path)
            .expect("snapshot saves");
        saves += 1;
    }
    loop {
        let data = read_snapshot(path).expect("snapshot reads back");
        let mut planner = planner_by_name(name, &EatpConfig::default()).expect("known planner");
        let mut engine = eatp::simulator::resume_from(twin, &data, &mut *planner).expect("resumes");
        let target = engine.current_tick() + every;
        while !engine.is_finished() && engine.current_tick() < target {
            let mut due = stream.to_vec();
            engine.tick_with_commands(&mut *planner, &mut due, &mut Vec::new());
        }
        if engine.is_finished() {
            return (engine.report(&mut *planner), saves);
        }
        engine
            .save_snapshot(&*planner, path)
            .expect("snapshot saves");
        saves += 1;
    }
}

fn main() {
    let checkpoint_every = numeric_arg("checkpoint-every", 1);
    let live_orders = std::env::args().skip(1).any(|a| a == "--live-orders");
    let wave = DisruptionConfig {
        breakdowns: 6,
        breakdown_ticks: (120, 260),
        blockades: 0,
        blockade_ticks: (1, 1),
        closures: 1,
        closure_ticks: (180, 320),
        removals: 0,
        removal_ticks: (1, 1),
        window: (80, 420),
    };
    let base_spec = ScenarioSpec {
        name: "drill".into(),
        layout: LayoutConfig {
            width: 44,
            height: 32,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 40,
        n_robots: 24,
        n_pickers: 4,
        workload: WorkloadConfig::poisson(220, 0.9),
        disruptions: None,
        seed: 404,
    };
    let clean = base_spec.build().expect("clean scenario builds");

    let mut disrupted_spec = base_spec.clone();
    disrupted_spec.disruptions = Some(wave);
    let mut disrupted = disrupted_spec.build().expect("disrupted scenario builds");

    // Script an extra mid-run blockade on a central aisle cell on top of the
    // generated wave: scripted and generated events compose in one schedule.
    let center = GridPos::new(22, 16);
    let blockade_cell = disrupted
        .grid
        .cells_of_kind(CellKind::Aisle)
        .min_by_key(|c| c.manhattan(center))
        .expect("aisle cell exists");
    disrupted.disruptions.push(TimedEvent {
        t: 150,
        event: DisruptionEvent::CellBlocked { pos: blockade_cell },
    });
    disrupted.disruptions.push(TimedEvent {
        t: 500,
        event: DisruptionEvent::CellUnblocked { pos: blockade_cell },
    });
    disrupted.disruptions.sort_by_key(|e| e.t);
    disrupted
        .validate()
        .expect("composed schedule is well-formed");

    println!("event timeline ({} events):", disrupted.disruptions.len());
    for ev in &disrupted.disruptions {
        println!("  t={:<5} {}", ev.t, ev.event.label());
    }

    println!(
        "\n{:<6} {:>10} {:>12} {:>10} {:>8} {:>8}",
        "", "clean M", "disrupted M", "inflation", "events", "retries"
    );
    for name in PLANNER_NAMES {
        let mut p = planner_by_name(name, &EatpConfig::default()).expect("known planner");
        let clean_report = run_simulation(&clean, &mut *p, &EngineConfig::default());
        let mut p = planner_by_name(name, &EatpConfig::default()).expect("known planner");
        let disrupted_report = run_simulation(&disrupted, &mut *p, &EngineConfig::default());
        for r in [&clean_report, &disrupted_report] {
            assert!(r.completed, "{name} must complete");
            assert_eq!(r.executed_conflicts, 0, "{name}: conflict-free always");
            assert_eq!(r.disruption_violations, 0, "{name}: no safety violations");
        }
        let inflation = 100.0 * (disrupted_report.makespan as f64 - clean_report.makespan as f64)
            / clean_report.makespan as f64;
        println!(
            "{:<6} {:>10} {:>12} {:>+9.1}% {:>8} {:>8}",
            name,
            clean_report.makespan,
            disrupted_report.makespan,
            inflation,
            disrupted_report.events_applied,
            disrupted_report.planner_stats.paths_failed,
        );
        if let Some(every) = checkpoint_every {
            let config = EngineConfig::default();
            let path = std::env::temp_dir().join(format!(
                "disruption-drill-{}-{name}.tprwsnap",
                std::process::id()
            ));
            let (resumed, saves) = checkpointed_run(&disrupted, name, every, &path, &config);
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                disrupted_report.deterministic_fingerprint(),
                resumed.deterministic_fingerprint(),
                "{name}: checkpointed run diverged from the straight-through run"
            );
            println!(
                "       checkpoint drill: {saves} save/drop/resume cycles every {every} \
                 ticks, final fingerprint identical",
            );
        }
        if live_orders {
            // Live ingestion drill: strip the item list and resubmit it as
            // a command stream. The horizon quantities normally derived
            // from the item list must be pinned identically on both sides
            // of the comparison (the live twin's list is empty).
            let pregen_config = EngineConfig::builder()
                .max_ticks(50_000)
                .bottleneck_bucket(50)
                .build()
                .expect("pregen drill config is valid");
            let live_config = pregen_config
                .clone()
                .into_builder()
                .live(true)
                .build()
                .expect("live drill config is valid");
            let mut twin = disrupted.clone();
            twin.items.clear();
            let stream = equivalent_stream(&disrupted);

            let mut p = planner_by_name(name, &EatpConfig::default()).expect("known planner");
            let reference = run_simulation(&disrupted, &mut *p, &pregen_config);
            assert!(
                reference.completed,
                "{name}: pinned reference must complete"
            );

            let mut p = planner_by_name(name, &EatpConfig::default()).expect("known planner");
            let mut engine = Engine::new(&twin, &live_config);
            engine.start(&mut *p);
            let mut acks = Vec::new();
            drive_live(&mut engine, &mut *p, &stream, &mut acks);
            let live_report = engine.report(&mut *p);
            assert_eq!(
                reference.deterministic_fingerprint(),
                live_report.deterministic_fingerprint(),
                "{name}: live ingestion diverged from the pregenerated run"
            );
            let completed = acks
                .iter()
                .filter(|a| matches!(a, Ack::Completed { .. }))
                .count();
            assert_eq!(
                completed,
                disrupted.items.len(),
                "{name}: every live order must complete"
            );
            println!(
                "       live-order drill: {} orders ingested under redelivery, \
                 fingerprint matches the pregenerated run",
                disrupted.items.len(),
            );
            if let Some(every) = checkpoint_every {
                let path = std::env::temp_dir().join(format!(
                    "disruption-drill-live-{}-{name}.tprwsnap",
                    std::process::id()
                ));
                let (resumed, saves) =
                    checkpointed_live_run(&twin, name, every, &path, &live_config, &stream);
                let _ = std::fs::remove_file(&path);
                assert_eq!(
                    reference.deterministic_fingerprint(),
                    resumed.deterministic_fingerprint(),
                    "{name}: checkpointed live ingestion diverged"
                );
                println!(
                    "       live checkpoint drill: {saves} save/drop/resume cycles \
                     mid-ingestion, final fingerprint identical",
                );
            }
        }
    }
    println!(
        "\nevery planner absorbed the identical breakdown/blockade/closure \
         schedule with zero conflicts and zero blocked-cell occupations."
    );
    if checkpoint_every.is_some() {
        println!(
            "checkpoint/resume held under fire: every segment boundary crossed \
             through the snapshot file plus the instance it was built on."
        );
    }
    if live_orders {
        println!(
            "live ingestion held: every command stream replayed bit-identically \
             to its pregenerated twin, redelivery and all."
        );
    }
}
