//! The `TickStrategy` contract (see `docs/event-driven-ticking.md`): the
//! event-driven scheduler is a performance refactor, not a behaviour
//! change — every run is **bit-identical** to the dense loop.
//!
//! * **Lockstep anchor** — for every planner on clean and disrupted
//!   floors, a dense and an event-driven engine advanced tick by tick
//!   must agree on the full canonical state hash at *every* tick
//!   boundary, not just the final fingerprint. This is the strongest
//!   form of the contract and the deterministic anchor CI re-executes.
//! * **Regime soaks** — proptests sample (planner, scenario kind,
//!   scenario seed, fault seed) tuples across the clean, disrupted, chaos
//!   and live-order regimes, requiring fingerprint (and, live, ack-stream)
//!   equality with the dense loop.
//! * **Agenda reconstruction** — the wake agenda is *derived* state,
//!   never snapshotted (`docs/snapshot-format.md`): an event-driven run
//!   snapshotted mid-flight and resumed must re-derive an agenda that
//!   locksteps the never-interrupted engine's state hashes to the end.
//!
//! `PROPTEST_CASES` scales the soaks (default 64 cases per property).

use eatp::core::{planner_by_name, EatpConfig, Planner, PLANNER_NAMES};
use eatp::simulator::{
    decode_snapshot, encode_snapshot, resume_from, run_simulation, Ack, Command, DegradationPolicy,
    Engine, EngineConfig, FaultConfig, OrderSpec, SequencedCommand, TickStrategy,
};
use eatp::warehouse::{
    DisruptionConfig, Instance, LayoutConfig, OrderId, ScenarioSpec, Tick, WorkloadConfig,
};
use proptest::prelude::*;

/// Scenario kinds of the soak: a clean floor, a blockade storm and a
/// breakdown wave (the same shapes the checkpoint and chaos soaks use,
/// so the strategy equivalence composes with every disruption mechanism
/// the repo models).
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
        name: format!("ed-equiv-{kind}-{seed}"),
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

/// The two configs under comparison differ in exactly one knob.
fn config(strategy: TickStrategy) -> EngineConfig {
    EngineConfig::builder()
        .tick_strategy(strategy)
        .build()
        .unwrap()
}

/// The chaos preset with the strategy under test.
fn chaos_config(strategy: TickStrategy, fault_seed: u64) -> EngineConfig {
    EngineConfig::builder()
        .tick_strategy(strategy)
        .faults(FaultConfig::chaos(fault_seed, (5, 150)))
        .degradation(DegradationPolicy {
            enabled: true,
            max_expansions_per_tick: 0,
        })
        .build()
        .unwrap()
}

/// A deterministic live-order stream derived from `order_seed` (same
/// construction as the chaos soak): `n` submissions spread across the
/// disruption window, closed by a shutdown.
fn live_order_stream(inst: &Instance, order_seed: u64, n: usize) -> Vec<(Tick, SequencedCommand)> {
    let mut x = order_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
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

/// Drives `engine` to completion under the harshest redelivery schedule.
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

/// Every planner, clean and disrupted floors: a dense and an
/// event-driven engine advanced in lockstep must agree on the canonical
/// state hash at every tick boundary. This catches a divergence at the
/// tick it happens instead of at the end of the run.
#[test]
fn event_driven_locksteps_dense_state_hashes() {
    let planner_cfg = EatpConfig::default();
    for kind in [0usize, 1, 2] {
        let inst = scenario(kind, 42);
        for name in PLANNER_NAMES {
            let mut pd = planner_by_name(name, &planner_cfg).unwrap();
            let mut pe = planner_by_name(name, &planner_cfg).unwrap();
            let mut dense = Engine::new(&inst, &config(TickStrategy::Dense));
            let mut ed = Engine::new(&inst, &config(TickStrategy::EventDriven));
            dense.start(pd.as_mut());
            ed.start(pe.as_mut());
            while !dense.is_finished() {
                dense.tick_once(pd.as_mut());
                ed.tick_once(pe.as_mut());
                assert_eq!(
                    dense.state_hash(),
                    ed.state_hash(),
                    "{name} kind {kind}: canonical state diverged at tick {}",
                    dense.current_tick()
                );
            }
            assert!(
                ed.is_finished(),
                "{name} kind {kind}: ED must finish in step"
            );
            let rd = dense.report(pd.as_mut());
            let re = ed.report(pe.as_mut());
            assert!(rd.completed, "{name} kind {kind}: run must finish");
            assert_eq!(
                rd.deterministic_fingerprint(),
                re.deterministic_fingerprint(),
                "{name} kind {kind}: fingerprints must match"
            );
        }
    }
}

/// Agenda reconstruction on resume: the wake agenda is derived state and
/// is *not* in the snapshot. An event-driven run snapshotted mid-flight
/// and resumed with a fresh planner must lockstep the never-interrupted
/// engine's state hashes all the way to completion — i.e. the rebuilt
/// agenda wakes exactly the entities the never-snapshotted one would.
#[test]
fn agenda_reconstruction_matches_fresh() {
    let planner_cfg = EatpConfig::default();
    let cfg = config(TickStrategy::EventDriven);
    for kind in [0usize, 1] {
        let inst = scenario(kind, 7);
        for (name, cut) in [("NTP", 23u64), ("EATP", 41)] {
            // The never-interrupted reference run.
            let mut p0 = planner_by_name(name, &planner_cfg).unwrap();
            let mut whole = Engine::new(&inst, &cfg);
            whole.start(p0.as_mut());

            // The interrupted run: advance to `cut`, snapshot, resume.
            let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
            let mut engine = Engine::new(&inst, &cfg);
            engine.start(p1.as_mut());
            while !engine.is_finished() && engine.current_tick() < cut {
                engine.tick_once(p1.as_mut());
                whole.tick_once(p0.as_mut());
            }
            let bytes = encode_snapshot(&engine.snapshot(p1.as_ref()));
            drop(engine);
            drop(p1);
            let data = decode_snapshot(&bytes).expect("ED snapshot must decode");
            let mut fresh = planner_by_name(name, &planner_cfg).unwrap();
            let mut resumed = resume_from(&data, fresh.as_mut()).expect("ED snapshot must resume");

            while !whole.is_finished() {
                whole.tick_once(p0.as_mut());
                resumed.tick_once(fresh.as_mut());
                assert_eq!(
                    whole.state_hash(),
                    resumed.state_hash(),
                    "{name} kind {kind}: rebuilt agenda diverged at tick {}",
                    whole.current_tick()
                );
            }
            assert!(
                resumed.is_finished(),
                "{name} kind {kind}: must finish in step"
            );
            let rw = whole.report(p0.as_mut());
            let rr = resumed.report(fresh.as_mut());
            assert!(rw.completed, "{name} kind {kind}: reference must finish");
            assert_eq!(
                rw.deterministic_fingerprint(),
                rr.deterministic_fingerprint(),
                "{name} kind {kind}: resumed fingerprint must match"
            );
        }
    }
}

proptest! {
    /// Random (planner, scenario kind, scenario seed) tuples on clean and
    /// disrupted floors: the event-driven fingerprint equals the dense one.
    #[test]
    fn event_driven_matches_dense(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let planner_cfg = EatpConfig::default();

        let mut p = planner_by_name(name, &planner_cfg).unwrap();
        let dense = run_simulation(&inst, &mut *p, &config(TickStrategy::Dense));
        let mut p = planner_by_name(name, &planner_cfg).unwrap();
        let ed = run_simulation(&inst, &mut *p, &config(TickStrategy::EventDriven));
        prop_assert!(dense.completed, "{name} kind {kind} seed {seed}: dense must finish");
        prop_assert_eq!(
            dense.deterministic_fingerprint(),
            ed.deterministic_fingerprint(),
            "{} diverged from dense (kind {}, seed {})",
            name, kind, seed
        );
    }

    /// The chaos regime: injected planner failures, poisoned derived
    /// state and graceful degradation — the fault-plan cursors must
    /// advance identically under both strategies.
    #[test]
    fn event_driven_matches_dense_under_chaos(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let planner_cfg = EatpConfig::default();

        let mut p = planner_by_name(name, &planner_cfg).unwrap();
        let dense = run_simulation(&inst, &mut *p, &chaos_config(TickStrategy::Dense, fault_seed));
        let mut p = planner_by_name(name, &planner_cfg).unwrap();
        let ed = run_simulation(&inst, &mut *p, &chaos_config(TickStrategy::EventDriven, fault_seed));
        prop_assert!(dense.completed, "{name} kind {kind} seed {seed}: chaos dense must finish");
        prop_assert_eq!(
            dense.deterministic_fingerprint(),
            ed.deterministic_fingerprint(),
            "{} diverged from dense under chaos (kind {}, seed {}, faults {})",
            name, kind, seed, fault_seed
        );
    }

    /// The live-order regime under full command redelivery: fingerprints
    /// *and* ack streams must match the dense loop byte for byte.
    #[test]
    fn event_driven_matches_dense_live_orders(
        planner_idx in 0usize..5,
        kind in 0usize..3,
        seed in 0u64..10_000,
        order_seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let planner_cfg = EatpConfig::default();
        let stream = live_order_stream(&inst, order_seed, 8);

        let run = |strategy: TickStrategy| {
            let cfg = EngineConfig::builder()
                .tick_strategy(strategy)
                .live(true)
                .build()
                .unwrap();
            let mut p = planner_by_name(name, &planner_cfg).unwrap();
            let mut engine = Engine::new(&inst, &cfg);
            engine.start(p.as_mut());
            let mut acks = Vec::new();
            drive_live(&mut engine, p.as_mut(), &stream, &mut acks);
            (engine.report(p.as_mut()), acks)
        };

        let (dense, dense_acks) = run(TickStrategy::Dense);
        let (ed, ed_acks) = run(TickStrategy::EventDriven);
        prop_assert!(
            dense.completed,
            "{name} kind {kind} seed {seed} orders {order_seed}: dense live run must finish"
        );
        prop_assert_eq!(
            dense.deterministic_fingerprint(),
            ed.deterministic_fingerprint(),
            "{} diverged from dense on live orders (kind {}, seed {}, orders {})",
            name, kind, seed, order_seed
        );
        prop_assert_eq!(&dense_acks, &ed_acks, "ack streams must match byte for byte");
    }
}
