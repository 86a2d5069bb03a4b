//! Adversarial chaos soak for the fault-injection subsystem (see
//! `docs/fault-injection.md`).
//!
//! * **Safety under faults** — for a random (planner, scenario kind,
//!   scenario seed, fault seed), a run with injected planner failures,
//!   poisoned derived state and degradation enabled still terminates,
//!   fulfils every item, and reports zero executed conflicts and zero
//!   disruption violations. The greedy fallback must never commit an
//!   unsafe assignment.
//! * **Seed determinism** — the same fault seed replays bit-identically,
//!   degraded ticks and fallback assignments included (both are folded
//!   into the deterministic fingerprint).
//! * **Faults-off transparency** — constructing the fault machinery with
//!   `enabled: false` never perturbs the run: fingerprints match the
//!   plain default-config run exactly and `degraded_ticks == 0`.
//! * **Checkpoint/resume under chaos** — snapshotting mid-run with faults
//!   armed and resuming with a fresh planner replays the remaining faults
//!   from the persisted cursors bit-identically.
//! * **Live ingestion under chaos** — a command stream of extra live
//!   orders (its own arrival seed) on top of the pregenerated workload,
//!   with the full fault mix armed: the run still terminates safely,
//!   replays bit-identically, and resumes mid-ingestion bit-identically
//!   under full command redelivery (see `docs/order-stream.md`).
//!
//! * **Cross-process determinism** — the five disrupted floors of
//!   `tests/common/scenarios.rs` under fault seed 4242 reproduce
//!   `results/fingerprints_chaos.txt`, degradation counters included.
//!
//! `PROPTEST_CASES` scales the soak (default 64 cases per property).

use eatp::core::{planner_by_name, EatpConfig, Planner, PLANNER_NAMES};
use eatp::simulator::{
    decode_snapshot, encode_snapshot, resume_from, run_simulation, Ack, Command, DegradationPolicy,
    Engine, EngineConfig, FaultConfig, OrderSpec, SequencedCommand,
};
use eatp::warehouse::{
    DisruptionConfig, Instance, LayoutConfig, OrderId, ScenarioSpec, Tick, WorkloadConfig,
};
use proptest::prelude::*;

mod common;

/// Scenario kinds of the soak: a clean floor, a blockade storm and a
/// breakdown wave (the same shapes the checkpoint soak uses, so chaos
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

/// The standard chaos engine config: the preset fault mix inside the
/// disruption window, with graceful degradation armed.
fn chaos_config(fault_seed: u64) -> EngineConfig {
    chaos_config_over(fault_seed, (5, 150))
}

/// [`chaos_config`] with the faults spread over `window`.
fn chaos_config_over(fault_seed: u64, window: (Tick, Tick)) -> EngineConfig {
    EngineConfig::builder()
        .faults(FaultConfig::chaos(fault_seed, window))
        .degradation(DegradationPolicy {
            enabled: true,
            max_expansions_per_tick: 0,
        })
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
    /// Live command streams on top of the pregenerated workload with the
    /// full chaos mix armed: safety invariants hold, the same seeds
    /// replay bit-identically, and a mid-ingestion snapshot resumes
    /// bit-identically under full command redelivery.
    #[test]
    fn live_order_chaos_composes(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        order_seed in 0u64..10_000,
        cut in 5u64..120,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let config = chaos_config(fault_seed).into_builder().live(true).build().unwrap();
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
            "{name} wedged under live chaos (kind {kind}, seed {seed}, faults {fault_seed}, orders {order_seed})"
        );
        prop_assert_eq!(r1.executed_conflicts, 0, "live chaos must stay conflict-free");
        prop_assert_eq!(r1.disruption_violations, 0, "live chaos must respect disruptions");
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
            "{} must replay live chaos bit-identically (orders {})",
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
        let data = decode_snapshot(&bytes).expect("live chaos snapshot must decode");
        let mut fresh = planner_by_name(name, &planner_cfg).unwrap();
        let mut resumed = resume_from(&data, fresh.as_mut()).expect("must resume");
        let mut acks4 = Vec::new();
        drive_live(&mut resumed, fresh.as_mut(), &stream, &mut acks4);
        let r3 = resumed.report(fresh.as_mut());
        prop_assert_eq!(
            r1.deterministic_fingerprint(),
            r3.deterministic_fingerprint(),
            "{} diverged resuming live chaos at tick {} (kind {}, seed {}, faults {}, orders {})",
            name, cut, kind, seed, fault_seed, order_seed
        );
    }

    /// Random (planner, scenario, fault seed) tuples: the run must
    /// terminate, stay conflict- and violation-free, and replay
    /// bit-identically under the same fault seed.
    #[test]
    fn chaos_runs_terminate_safely_and_replay_exactly(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let config = chaos_config(fault_seed);
        let planner_cfg = EatpConfig::default();

        let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
        let r1 = run_simulation(&inst, &mut *p1, &config);
        prop_assert!(
            r1.completed,
            "{name} wedged under chaos (kind {kind}, seed {seed}, faults {fault_seed})"
        );
        prop_assert_eq!(r1.executed_conflicts, 0, "fallback plans must stay conflict-free");
        prop_assert_eq!(r1.disruption_violations, 0, "degradation must respect disruptions");

        let mut p2 = planner_by_name(name, &planner_cfg).unwrap();
        let r2 = run_simulation(&inst, &mut *p2, &config);
        prop_assert_eq!(
            r1.deterministic_fingerprint(),
            r2.deterministic_fingerprint(),
            "{} must replay chaos seed {} bit-identically",
            name, fault_seed
        );
    }

    /// A fault config that is fully specified but `enabled: false` must be
    /// invisible: same fingerprint as the plain default config, and no
    /// degraded ticks anywhere.
    #[test]
    fn disabled_faults_never_perturb_the_run(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let planner_cfg = EatpConfig::default();

        let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
        let clean = run_simulation(&inst, &mut *p1, &EngineConfig::default());

        let mut off = chaos_config(fault_seed);
        off.faults.enabled = false;
        let mut p2 = planner_by_name(name, &planner_cfg).unwrap();
        let shadowed = run_simulation(&inst, &mut *p2, &off);
        prop_assert_eq!(shadowed.degraded_ticks, 0);
        prop_assert_eq!(shadowed.planner_errors, 0);
        prop_assert_eq!(
            clean.deterministic_fingerprint(),
            shadowed.deterministic_fingerprint(),
            "{} perturbed by a disabled fault plan (seed {})",
            name, fault_seed
        );
    }

    /// Checkpointing mid-run with faults armed and resuming with a fresh
    /// planner must replay the remaining fault schedule from the persisted
    /// cursors — final fingerprints bit-identical to the straight-through
    /// chaos run.
    #[test]
    fn chaos_resume_matches_uninterrupted(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        frac in 0.05f64..0.95,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let config = chaos_config(fault_seed);
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

        let data = decode_snapshot(&bytes).expect("chaos snapshot must decode");
        let mut fresh = planner_by_name(name, &planner_cfg).unwrap();
        let mut resumed = resume_from(&data, &mut *fresh).expect("chaos snapshot must resume");
        resumed.run_to_completion(&mut *fresh);
        let report = resumed.report(&mut *fresh);
        prop_assert_eq!(
            baseline.deterministic_fingerprint(),
            report.deterministic_fingerprint(),
            "{} diverged resuming chaos at tick {} of {} (kind {}, seed {}, faults {})",
            name, at, baseline.makespan, kind, seed, fault_seed
        );
    }
}

/// Fixed fault seed, every planner, clean and disrupted floors: the chaos
/// preset must actually bite (degraded ticks observed) while staying safe
/// and bit-identical across runs. This is the deterministic anchor the CI
/// chaos gate re-executes on every push.
#[test]
fn fixed_seed_degradation_is_deterministic_for_all_planners() {
    let planner_cfg = EatpConfig::default();
    for kind in [0usize, 2] {
        let inst = scenario(kind, 42);
        let config = chaos_config(4242);
        for name in PLANNER_NAMES {
            let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
            let r1 = run_simulation(&inst, &mut *p1, &config);
            assert!(r1.completed, "{name} kind {kind}: chaos run must finish");
            assert_eq!(r1.executed_conflicts, 0, "{name} kind {kind}");
            assert_eq!(r1.disruption_violations, 0, "{name} kind {kind}");
            assert!(
                r1.degraded_ticks > 0,
                "{name} kind {kind}: the chaos preset must trip degradation"
            );
            assert!(r1.planner_errors > 0, "{name} kind {kind}");

            let mut p2 = planner_by_name(name, &planner_cfg).unwrap();
            let r2 = run_simulation(&inst, &mut *p2, &config);
            assert_eq!(
                r1.deterministic_fingerprint(),
                r2.deterministic_fingerprint(),
                "{name} kind {kind}: fixed fault seed must replay bit-identically"
            );
        }
    }
}

/// The chaos soak, kept as data: every planner on the five disrupted floors
/// under fault seed 4242 must stay violation-free while visibly degrading,
/// and reproduce the fingerprints another process recorded
/// (`docs/adr/ADR-008-two-measurement-systems.md`).
#[test]
fn chaos_soak_reproduces_the_recorded_fingerprints() {
    let actual = common::soak_fingerprints(&chaos_config_over(4242, (5, 400)), true);
    common::assert_golden(
        "fingerprints_chaos.txt",
        include_str!("../results/fingerprints_chaos.txt"),
        &actual,
    );
}
