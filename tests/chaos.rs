//! Robustness soak: disruptions × live orders × snapshot cuts.
//!
//! * **Safety and replay** — for a random (planner, scenario kind,
//!   scenario seed), a disrupted run terminates, fulfils every item,
//!   reports zero executed conflicts and zero disruption violations, and
//!   replays bit-identically.
//! * **Resume** — snapshotting mid-run and resuming with a fresh planner
//!   finishes bit-identically to the straight-through run.
//! * **Live ingestion** — a command stream of extra live orders (its own
//!   arrival seed) on top of the pregenerated workload: the run still
//!   terminates safely, replays bit-identically, and resumes
//!   mid-ingestion bit-identically under full command redelivery (see
//!   `docs/order-stream.md`).
//!
//! `PROPTEST_CASES` scales the soak (default 64 cases per property).

use eatp::core::{planner_by_name, EatpConfig, Planner, PLANNER_NAMES};
use eatp::simulator::{
    decode_snapshot, encode_snapshot, resume_from, run_simulation, Ack, Command, Engine,
    EngineConfig, OrderSpec, SequencedCommand,
};
use eatp::warehouse::{
    DisruptionConfig, Instance, LayoutConfig, OrderId, ScenarioSpec, Tick, WorkloadConfig,
};
use proptest::prelude::*;

/// Scenario kinds of the soak: a clean floor, a blockade storm and a
/// breakdown wave (the same shapes the checkpoint soak uses, so the soak
/// composes with every disruption mechanism the repo models).
fn scenario(kind: usize, seed: u64) -> Instance {
    let disruptions = match kind {
        0 => None,
        1 => Some(DisruptionConfig {
            breakdowns: 0,
            breakdown_ticks: (30, 80),
            blockades: 4,
            blockade_ticks: (30, 90),
            closures: 1,
            closure_ticks: (30, 60),
            removals: 1,
            removal_ticks: (30, 60),
            window: (10, 120),
        }),
        _ => Some(DisruptionConfig {
            breakdowns: 3,
            breakdown_ticks: (20, 90),
            blockades: 0,
            blockade_ticks: (30, 80),
            closures: 0,
            closure_ticks: (30, 60),
            removals: 2,
            removal_ticks: (30, 60),
            window: (10, 120),
        }),
    };
    ScenarioSpec {
        name: format!("chaos-soak-{kind}-{seed}"),
        layout: LayoutConfig::sized(24, 16),
        n_racks: 10,
        n_robots: 4,
        n_pickers: 2,
        workload: WorkloadConfig::poisson(20, 0.5),
        disruptions,
        seed,
    }
    .build()
    .unwrap()
}

/// A deterministic live-order stream derived from `order_seed`: `n`
/// submissions spread across the disruption window, closed by a shutdown.
/// Each command is scheduled for delivery a few ticks before its order's
/// requested arrival, so orders actually wait in the backlog.
fn live_order_stream(inst: &Instance, order_seed: u64, n: usize) -> Vec<(Tick, SequencedCommand)> {
    let mut x = order_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64 — self-contained so the stream depends on nothing
        // but the seed.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut orders = Vec::new();
    for i in 0..n {
        let rack = (next() as usize) % inst.racks.len();
        let processing = 4 + (next() % 10);
        let arrival = 10 + (next() % 140);
        orders.push((
            arrival.saturating_sub(5),
            OrderSpec {
                order: OrderId::new(i),
                rack: inst.racks[rack].id,
                processing,
                arrival,
            },
        ));
    }
    // Sequence numbers are assigned at *enqueue* time, so they must be
    // monotone in delivery order (the idempotency cursor relies on it).
    orders.sort_by_key(|(tick, spec)| (*tick, spec.order));
    let mut stream: Vec<(Tick, SequencedCommand)> = orders
        .into_iter()
        .enumerate()
        .map(|(seq, (tick, spec))| {
            (
                tick,
                SequencedCommand {
                    seq: seq as u64,
                    command: Command::SubmitOrder { spec },
                },
            )
        })
        .collect();
    stream.push((
        160,
        SequencedCommand {
            seq: n as u64,
            command: Command::Shutdown,
        },
    ));
    stream
}

/// Drives `engine` to completion, redelivering every already-due command
/// of `stream` at every tick (the harshest redelivery schedule — the
/// idempotency cursor must neutralise it).
fn drive_live(
    engine: &mut Engine<'_>,
    planner: &mut dyn Planner,
    stream: &[(Tick, SequencedCommand)],
    acks: &mut Vec<Ack>,
) {
    while !engine.is_finished() {
        let t = engine.current_tick();
        let mut due: Vec<SequencedCommand> = stream
            .iter()
            .filter(|(tick, _)| *tick <= t)
            .map(|(_, c)| c.clone())
            .collect();
        engine.tick_with_commands(planner, &mut due, acks);
    }
}

proptest! {
    /// Live command streams on top of the pregenerated workload on
    /// disrupted floors: safety invariants hold, the same seeds replay
    /// bit-identically, and a mid-ingestion snapshot resumes
    /// bit-identically under full command redelivery.
    #[test]
    fn live_order_chaos_composes(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        order_seed in 0u64..10_000,
        cut in 5u64..120,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let config = EngineConfig::builder().live(true).build().unwrap();
        let planner_cfg = EatpConfig::default();
        let stream = live_order_stream(&inst, order_seed, 8);

        let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
        let mut e1 = Engine::new(&inst, &config);
        e1.start(p1.as_mut());
        let mut acks1 = Vec::new();
        drive_live(&mut e1, p1.as_mut(), &stream, &mut acks1);
        let r1 = e1.report(p1.as_mut());
        prop_assert!(
            r1.completed,
            "{name} wedged under live orders (kind {kind}, seed {seed}, orders {order_seed})"
        );
        prop_assert_eq!(r1.executed_conflicts, 0, "live runs must stay conflict-free");
        prop_assert_eq!(r1.disruption_violations, 0, "live runs must respect disruptions");
        let accepted = acks1.iter().filter(|a| matches!(a, Ack::Accepted { .. })).count();
        let completed = acks1.iter().filter(|a| matches!(a, Ack::Completed { .. })).count();
        prop_assert_eq!(accepted, 8, "every live submission must be accepted");
        prop_assert_eq!(completed, 8, "every live order must complete");

        // Bit-identical replay, order counters included.
        let mut p2 = planner_by_name(name, &planner_cfg).unwrap();
        let mut e2 = Engine::new(&inst, &config);
        e2.start(p2.as_mut());
        let mut acks2 = Vec::new();
        drive_live(&mut e2, p2.as_mut(), &stream, &mut acks2);
        let r2 = e2.report(p2.as_mut());
        prop_assert_eq!(
            r1.deterministic_fingerprint(),
            r2.deterministic_fingerprint(),
            "{} must replay live orders bit-identically (orders {})",
            name, order_seed
        );
        prop_assert_eq!(&acks1, &acks2, "ack streams must replay bit-identically");

        // Resume mid-ingestion with full redelivery.
        let mut p3 = planner_by_name(name, &planner_cfg).unwrap();
        let mut e3 = Engine::new(&inst, &config);
        e3.start(p3.as_mut());
        let mut acks3 = Vec::new();
        while !e3.is_finished() && e3.current_tick() < cut {
            let t = e3.current_tick();
            let mut due: Vec<SequencedCommand> = stream
                .iter()
                .filter(|(tick, _)| *tick <= t)
                .map(|(_, c)| c.clone())
                .collect();
            e3.tick_with_commands(p3.as_mut(), &mut due, &mut acks3);
        }
        let bytes = encode_snapshot(&e3.snapshot(p3.as_ref()));
        drop(e3);
        drop(p3);
        let data = decode_snapshot(&bytes).expect("live snapshot must decode");
        let mut fresh = planner_by_name(name, &planner_cfg).unwrap();
        let mut resumed = resume_from(&data, fresh.as_mut()).expect("must resume");
        let mut acks4 = Vec::new();
        drive_live(&mut resumed, fresh.as_mut(), &stream, &mut acks4);
        let r3 = resumed.report(fresh.as_mut());
        prop_assert_eq!(
            r1.deterministic_fingerprint(),
            r3.deterministic_fingerprint(),
            "{} diverged resuming live orders at tick {} (kind {}, seed {}, orders {})",
            name, cut, kind, seed, order_seed
        );
    }

    /// Random (planner, scenario) tuples: the run must terminate, stay
    /// conflict- and violation-free, and replay bit-identically.
    #[test]
    fn chaos_runs_terminate_safely_and_replay_exactly(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let config = EngineConfig::default();
        let planner_cfg = EatpConfig::default();

        let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
        let r1 = run_simulation(&inst, &mut *p1, &config);
        prop_assert!(
            r1.completed,
            "{name} wedged (kind {kind}, seed {seed})"
        );
        prop_assert_eq!(r1.executed_conflicts, 0, "runs must stay conflict-free");
        prop_assert_eq!(r1.disruption_violations, 0, "runs must respect disruptions");

        let mut p2 = planner_by_name(name, &planner_cfg).unwrap();
        let r2 = run_simulation(&inst, &mut *p2, &config);
        prop_assert_eq!(
            r1.deterministic_fingerprint(),
            r2.deterministic_fingerprint(),
            "{} must replay kind {} seed {} bit-identically",
            name, kind, seed
        );
    }

    /// Checkpointing mid-run on a disrupted floor and resuming with a
    /// fresh planner must finish bit-identically to the straight-through
    /// run.
    #[test]
    fn chaos_resume_matches_uninterrupted(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        frac in 0.05f64..0.95,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let config = EngineConfig::default();
        let planner_cfg = EatpConfig::default();

        let mut p = planner_by_name(name, &planner_cfg).unwrap();
        let baseline = run_simulation(&inst, &mut *p, &config);
        prop_assume!(baseline.completed);

        let at = ((baseline.makespan as f64 * frac) as Tick).max(1);
        let mut p = planner_by_name(name, &planner_cfg).unwrap();
        let mut engine = Engine::new(&inst, &config);
        engine.start(&mut *p);
        while !engine.is_finished() && engine.current_tick() < at {
            engine.tick_once(&mut *p);
        }
        let bytes = encode_snapshot(&engine.snapshot(&*p));
        drop(engine);
        drop(p);

        let data = decode_snapshot(&bytes).expect("snapshot must decode");
        let mut fresh = planner_by_name(name, &planner_cfg).unwrap();
        let mut resumed = resume_from(&data, &mut *fresh).expect("snapshot must resume");
        resumed.run_to_completion(&mut *fresh);
        let report = resumed.report(&mut *fresh);
        prop_assert_eq!(
            baseline.deterministic_fingerprint(),
            report.deterministic_fingerprint(),
            "{} diverged resuming at tick {} of {} (kind {}, seed {})",
            name, at, baseline.makespan, kind, seed
        );
    }
}
