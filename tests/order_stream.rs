//! Determinism contract of the order-stream ingestion service (see
//! `docs/order-stream.md`).
//!
//! * **Live ≡ pregenerated** — a run fed its entire workload through
//!   `SubmitOrder` commands is bit-identical (same deterministic
//!   fingerprint) to the run executing the equivalent pregenerated
//!   [`ScenarioSpec`] item list, for every planner, clean and disrupted.
//! * **Queue-drain determinism** — the enqueue order of commands within a
//!   tick is irrelevant: the engine applies them in sequence-number order.
//! * **Resume under ingestion** — snapshotting mid-stream and resuming
//!   with a fresh planner while *redelivering the whole command stream*
//!   (already-applied prefix included) reproduces the uninterrupted run;
//!   the `next_command_seq` cursor makes redelivery idempotent.
//! * **Lifecycle acks** — submissions, cancellations, duplicates,
//!   post-shutdown submissions, zero-work orders and invalid disruption
//!   injections are acknowledged deterministically.
//!
//! `PROPTEST_CASES` scales the soak (default 64 cases per property).

use eatp::core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use eatp::simulator::{
    decode_snapshot, encode_snapshot, resume_from, run_simulation, Ack, Command, Engine,
    EngineConfig, OrderSpec, RejectReason, SequencedCommand,
};
use eatp::warehouse::{
    DisruptionConfig, DisruptionEvent, Instance, LayoutConfig, OrderId, RobotId, ScenarioSpec,
    Tick, WorkloadConfig,
};
use proptest::prelude::*;

/// Clean floor or blockade/breakdown mix — live ingestion must compose
/// with the disruption machinery, not just quiet worlds.
fn scenario(kind: usize, seed: u64) -> Instance {
    let disruptions = match kind {
        0 => None,
        _ => Some(DisruptionConfig {
            breakdowns: 2,
            breakdown_ticks: (20, 90),
            blockades: 2,
            blockade_ticks: (30, 80),
            closures: 1,
            closure_ticks: (30, 60),
            removals: 1,
            removal_ticks: (30, 60),
            window: (10, 120),
        }),
    };
    ScenarioSpec {
        name: format!("order-stream-{kind}-{seed}"),
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

/// Both sides of an equivalence pair must agree on the derived horizon
/// quantities, which normally come from the instance's item list — the
/// live side has an empty list, so pin them explicitly.
fn pinned_config() -> EngineConfig {
    EngineConfig::builder()
        .max_ticks(50_000)
        .bottleneck_bucket(50)
        .build()
        .unwrap()
}

/// The live twin of `inst`: same world, empty item list. The workload
/// arrives through commands instead.
fn live_twin(inst: &Instance) -> Instance {
    let mut twin = inst.clone();
    twin.items.clear();
    twin
}

/// The command stream equivalent to `inst`'s pregenerated item list: every
/// item becomes a `SubmitOrder` (order id = item id) at tick 0, followed
/// by a `Shutdown`.
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

/// Runs `stream` against `inst` in live mode, delivering every command at
/// tick 0, and returns the completed engine's report fingerprint plus all
/// acks. Panics if the run does not complete.
fn run_live(
    inst: &Instance,
    planner_name: &str,
    config: &EngineConfig,
    stream: &[SequencedCommand],
) -> (eatp::simulator::DeterministicFingerprint, Vec<Ack>) {
    let mut planner = planner_by_name(planner_name, &EatpConfig::default()).unwrap();
    let mut engine = Engine::new(inst, config);
    engine.start(planner.as_mut());
    let mut acks = Vec::new();
    let mut first = stream.to_vec();
    engine.tick_with_commands(planner.as_mut(), &mut first, &mut acks);
    while !engine.is_finished() {
        engine.tick_with_commands(planner.as_mut(), &mut [], &mut acks);
    }
    let report = engine.report(planner.as_mut());
    assert!(report.completed, "live run must complete after shutdown");
    (report.deterministic_fingerprint(), acks)
}

proptest! {
    /// The tentpole contract: a command-stream run is bit-identical to the
    /// equivalent pregenerated run for every planner, clean and disrupted.
    #[test]
    fn live_stream_matches_pregenerated_run(
        planner_idx in 0usize..5,
        kind in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let config = pinned_config();

        let mut p = planner_by_name(name, &EatpConfig::default()).unwrap();
        let pregenerated = run_simulation(&inst, &mut *p, &config);
        prop_assume!(pregenerated.completed);

        let twin = live_twin(&inst);
        let live_config = config.into_builder().live(true).build().unwrap();
        let stream = equivalent_stream(&inst);
        let (live_fp, acks) = run_live(&twin, name, &live_config, &stream);
        prop_assert_eq!(
            pregenerated.deterministic_fingerprint(),
            live_fp,
            "{} kind {} seed {}: live ingestion must be bit-identical",
            name, kind, seed
        );
        let completions = acks.iter().filter(|a| matches!(a, Ack::Completed { .. })).count();
        prop_assert_eq!(completions, inst.items.len(), "every order must complete");
    }

    /// Enqueue order within a tick is irrelevant: the engine applies
    /// commands in canonical sequence order.
    #[test]
    fn drain_order_is_canonical(
        planner_idx in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(0, seed);
        let twin = live_twin(&inst);
        let config = pinned_config().into_builder().live(true).build().unwrap();

        let stream = equivalent_stream(&inst);
        let mut shuffled = stream.clone();
        shuffled.reverse();
        let mut interleaved = stream.clone();
        // A second adversarial producer interleaving: odd sequences first.
        interleaved.sort_by_key(|c| (c.seq % 2 == 0, c.seq));

        let (fp_sorted, _) = run_live(&twin, name, &config, &stream);
        let (fp_reversed, _) = run_live(&twin, name, &config, &shuffled);
        let (fp_interleaved, _) = run_live(&twin, name, &config, &interleaved);
        prop_assert_eq!(&fp_sorted, &fp_reversed, "{}: reversed enqueue diverged", name);
        prop_assert_eq!(&fp_sorted, &fp_interleaved, "{}: interleaved enqueue diverged", name);
    }

    /// Snapshot mid-ingestion, resume with a fresh planner, redeliver the
    /// *entire* stream: the idempotency cursor must skip the applied
    /// prefix and the final fingerprint must match the uninterrupted run.
    #[test]
    fn resume_under_ingestion_with_redelivery(
        planner_idx in 0usize..5,
        kind in 0usize..2,
        seed in 0u64..10_000,
        cut in 1u64..40,
    ) {
        let name = PLANNER_NAMES[planner_idx];
        let inst = scenario(kind, seed);
        let twin = live_twin(&inst);
        let config = pinned_config().into_builder().live(true).build().unwrap();
        // Spread the stream over early ticks so the cut lands mid-stream.
        let mut stream = equivalent_stream(&inst);
        for (i, cmd) in stream.iter_mut().enumerate() {
            if let Command::SubmitOrder { spec } = &mut cmd.command {
                spec.arrival = spec.arrival.max((i as Tick) * 2);
            }
        }
        let delivery_tick = |seq: u64| seq * 2;

        let planner_cfg = EatpConfig::default();
        let deliver = |engine: &mut Engine<'_>, planner: &mut dyn eatp::core::Planner,
                       acks: &mut Vec<Ack>| {
            while !engine.is_finished() {
                let t = engine.current_tick();
                let mut due: Vec<SequencedCommand> = stream
                    .iter()
                    .filter(|c| delivery_tick(c.seq) <= t)
                    .cloned()
                    .collect();
                engine.tick_with_commands(planner, &mut due, acks);
            }
        };
        // NOTE: `deliver` redelivers every already-due command at every
        // tick — the harshest redelivery schedule possible. The cursor
        // must make that a no-op.

        let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
        let mut straight = Engine::new(&twin, &config);
        straight.start(p1.as_mut());
        let mut acks1 = Vec::new();
        deliver(&mut straight, p1.as_mut(), &mut acks1);
        let baseline = straight.report(p1.as_mut());
        prop_assume!(baseline.completed);

        let mut p2 = planner_by_name(name, &planner_cfg).unwrap();
        let mut engine = Engine::new(&twin, &config);
        engine.start(p2.as_mut());
        let mut acks2 = Vec::new();
        while !engine.is_finished() && engine.current_tick() < cut {
            let t = engine.current_tick();
            let mut due: Vec<SequencedCommand> = stream
                .iter()
                .filter(|c| delivery_tick(c.seq) <= t)
                .cloned()
                .collect();
            engine.tick_with_commands(p2.as_mut(), &mut due, &mut acks2);
        }
        let bytes = encode_snapshot(&engine.snapshot(p2.as_ref()));
        drop(engine);
        drop(p2);

        let data = decode_snapshot(&bytes).expect("mid-ingestion snapshot must decode");
        let mut fresh = planner_by_name(name, &planner_cfg).unwrap();
        let mut resumed = resume_from(&data, fresh.as_mut()).expect("must resume");
        let mut acks3 = Vec::new();
        deliver(&mut resumed, fresh.as_mut(), &mut acks3);
        let report = resumed.report(fresh.as_mut());
        prop_assert_eq!(
            baseline.deterministic_fingerprint(),
            report.deterministic_fingerprint(),
            "{} kind {} seed {}: resume at tick {} under redelivery diverged",
            name, kind, seed, cut
        );
    }
}

/// Submissions, cancellations, duplicates, unknown orders, post-shutdown
/// submissions and invalid injections: the full ack taxonomy, pinned on a
/// fixed world.
#[test]
fn lifecycle_acks_are_deterministic() {
    let inst = scenario(0, 7);
    let twin = live_twin(&inst);
    let config = pinned_config().into_builder().live(true).build().unwrap();
    let mut planner = planner_by_name("EATP", &EatpConfig::default()).unwrap();
    let mut engine = Engine::new(&twin, &config);
    engine.start(planner.as_mut());

    let submit = |seq: u64, order: usize, arrival: Tick| SequencedCommand {
        seq,
        command: Command::SubmitOrder {
            spec: OrderSpec {
                order: OrderId::new(order),
                rack: inst.items[order].rack,
                processing: inst.items[order].processing,
                arrival,
            },
        },
    };
    let mut acks = Vec::new();
    let mut batch = vec![
        submit(0, 0, 0),
        submit(1, 1, 100),
        submit(2, 1, 100), // duplicate order id
        SequencedCommand {
            seq: 3,
            command: Command::CancelOrder {
                order: OrderId::new(1),
            },
        },
        SequencedCommand {
            seq: 4,
            command: Command::CancelOrder {
                order: OrderId::new(99),
            },
        },
        SequencedCommand {
            seq: 5,
            command: Command::InjectDisruption {
                event: DisruptionEvent::RobotBreakdown {
                    robot: RobotId::new(0),
                },
            },
        },
        SequencedCommand {
            seq: 6,
            command: Command::InjectDisruption {
                // Recovering a robot that is not broken is inconsistent.
                event: DisruptionEvent::RobotRecover {
                    robot: RobotId::new(1),
                },
            },
        },
        SequencedCommand {
            seq: 7,
            command: Command::RequestSnapshot,
        },
        SequencedCommand {
            seq: 8,
            command: Command::Shutdown,
        },
        submit(9, 2, 0), // after shutdown
    ];
    engine.tick_with_commands(planner.as_mut(), &mut batch, &mut acks);

    assert_eq!(
        acks[0],
        Ack::Accepted {
            seq: 0,
            order: OrderId::new(0),
            tick: 0
        }
    );
    assert_eq!(
        acks[1],
        Ack::Accepted {
            seq: 1,
            order: OrderId::new(1),
            tick: 0
        }
    );
    assert_eq!(
        acks[2],
        Ack::Rejected {
            seq: 2,
            reason: RejectReason::DuplicateOrder,
            tick: 0
        }
    );
    assert_eq!(
        acks[3],
        Ack::Cancelled {
            seq: 3,
            order: OrderId::new(1),
            tick: 0
        }
    );
    assert_eq!(
        acks[4],
        Ack::Rejected {
            seq: 4,
            reason: RejectReason::UnknownOrder,
            tick: 0
        }
    );
    assert_eq!(acks[5], Ack::Injected { seq: 5, tick: 0 });
    assert_eq!(
        acks[6],
        Ack::Rejected {
            seq: 6,
            reason: RejectReason::InvalidDisruption,
            tick: 0
        }
    );
    assert_eq!(acks[7], Ack::SnapshotRequested { seq: 7, tick: 0 });
    assert_eq!(acks[8], Ack::ShutdownStarted { seq: 8, tick: 0 });
    assert_eq!(
        acks[9],
        Ack::Rejected {
            seq: 9,
            reason: RejectReason::ShuttingDown,
            tick: 0
        }
    );

    while !engine.is_finished() {
        engine.tick_with_commands(planner.as_mut(), &mut [], &mut acks);
    }
    let report = engine.report(planner.as_mut());
    assert!(report.completed);
    assert_eq!(report.orders_submitted, 2, "accepted submissions only");
    assert_eq!(report.orders_cancelled, 1);
    assert_eq!(report.orders_rejected, 4);
    assert_eq!(report.orders_completed, 1, "order 0 is the only survivor");
    assert_eq!(report.items_processed, 1);
    let completions: Vec<_> = acks
        .iter()
        .filter(|a| matches!(a, Ack::Completed { .. }))
        .collect();
    assert_eq!(completions.len(), 1);
    assert!(
        matches!(completions[0], Ack::Completed { order, .. } if *order == OrderId::new(0)),
        "the completion must name order 0"
    );
    assert!(
        report.planner_errors == 0 && report.executed_conflicts == 0,
        "an injected breakdown must not break safety"
    );
}

/// A zero-work order would queue a batch whose processing never finishes,
/// stalling its station until the tick budget runs out. The command
/// boundary refuses it, as `Instance::validate` refuses a pregenerated
/// item with zero processing, and the rest of the stream completes.
#[test]
fn zero_processing_order_is_rejected_and_the_run_completes() {
    let inst = scenario(0, 7);
    let twin = live_twin(&inst);
    let config = pinned_config()
        .into_builder()
        .live(true)
        .max_ticks(5_000)
        .build()
        .unwrap();
    let real = &inst.items[0];
    // A rack other than the real order's, so the zero-work item cannot
    // share a batch that has work.
    let idle_rack = inst.racks.iter().find(|r| r.id != real.rack).unwrap().id;
    let submit = |seq: u64, order: usize, rack, processing| SequencedCommand {
        seq,
        command: Command::SubmitOrder {
            spec: OrderSpec {
                order: OrderId::new(order),
                rack,
                processing,
                arrival: 0,
            },
        },
    };
    let stream = [
        submit(0, 0, idle_rack, 0),
        submit(1, 1, real.rack, real.processing),
        SequencedCommand {
            seq: 2,
            command: Command::Shutdown,
        },
    ];
    let (fp, acks) = run_live(&twin, "EATP", &config, &stream);
    assert_eq!(
        acks[0],
        Ack::Rejected {
            seq: 0,
            reason: RejectReason::ZeroProcessing,
            tick: 0
        }
    );
    let (submitted, _, rejected, completed, _, _) = fp.order_counters;
    assert_eq!((submitted, rejected, completed), (1, 1, 1));
}
