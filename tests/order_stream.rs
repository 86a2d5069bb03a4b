//! The order-stream ingestion service's acknowledgements (see
//! `docs/order-stream.md`): submissions, cancellations, duplicates,
//! post-shutdown submissions, zero-work orders and invalid disruption
//! injections are acknowledged deterministically. The ingestion
//! service's bit-identity contract (live ≡ pregenerated, canonical drain
//! order, resume under redelivery) is the lattice's (`tests/lattice.rs`).

use eatp::core::{planner_by_name, EatpConfig};
use eatp::simulator::{
    Ack, Command, Engine, EngineConfig, OrderSpec, RejectReason, SequencedCommand,
};
use eatp::warehouse::{DisruptionEvent, OrderId, RackId, RobotId, Tick};

mod common;
use common::lattice::{drive, floor, Enqueue, Feed, Point, Trace};

/// The resent feed's point: the engine runs the world's live twin under
/// the pinned config, and the tests below hand it their own commands.
fn resent() -> Point {
    Point {
        pinned: true,
        ..Point::new("EATP", Feed::Resent(Enqueue::Sorted))
    }
}

/// Submissions, cancellations, duplicates, unknown orders, post-shutdown
/// submissions and invalid injections: the full ack taxonomy, pinned on a
/// fixed world.
#[test]
fn lifecycle_acks_are_deterministic() {
    let inst = floor(0, 7);
    let twin = resent().feed.instance(&inst);
    let config = resent().config();
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
    assert_eq!(
        report.executed_conflicts, 0,
        "an injected breakdown must not break safety"
    );
}

/// An injection that nests with an event the schedule has yet to apply is
/// refused: rack 8's removal is scheduled on this floor, so removing it
/// live at tick 0 would make the scheduled removal remove a removed rack
/// (accepted, it panicked a debug build when the scheduled removal
/// landed, and a release build journaled a nested removal). The run then
/// completes with the schedule alone.
#[test]
fn injection_nesting_with_the_schedule_is_rejected() {
    let inst = floor(2, 0);
    let rack = RackId::new(8);
    let scheduled = DisruptionEvent::RackRemoved { rack };
    assert!(inst.disruptions.iter().any(|e| e.event == scheduled));
    let mut planner = planner_by_name("EATP", &EatpConfig::default()).unwrap();
    let mut engine = Engine::new(&inst, &EngineConfig::default());
    engine.start(planner.as_mut());
    let mut acks = Vec::new();
    let mut batch = [SequencedCommand {
        seq: 0,
        command: Command::InjectDisruption { event: scheduled },
    }];
    engine.tick_with_commands(planner.as_mut(), &mut batch, &mut acks);
    assert_eq!(
        acks,
        [Ack::Rejected {
            seq: 0,
            reason: RejectReason::InvalidDisruption,
            tick: 0
        }]
    );
    while !engine.is_finished() {
        engine.tick_with_commands(planner.as_mut(), &mut [], &mut acks);
    }
    let report = engine.report(planner.as_mut());
    assert!(report.completed);
    assert_eq!(report.orders_rejected, 1);
}

/// A zero-work order would queue a batch whose processing never finishes,
/// stalling its station until the tick budget runs out. The command
/// boundary refuses it, as `Instance::validate` refuses a pregenerated
/// item with zero processing, and the rest of the stream completes.
#[test]
fn zero_processing_order_is_rejected_and_the_run_completes() {
    let inst = floor(0, 7);
    let twin = resent().feed.instance(&inst);
    let mut config = resent().config();
    config.max_ticks = 5_000;
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
    ]
    .map(|command| (0, command));
    let mut planner = planner_by_name("EATP", &EatpConfig::default()).unwrap();
    let mut engine = Engine::new(&twin, &config);
    engine.start(planner.as_mut());
    let mut trace = Trace::default();
    drive(&mut engine, &mut *planner, &stream, Tick::MAX, &mut trace);
    let acks = trace.acks;
    let fp = engine.report(planner.as_mut()).deterministic_fingerprint();
    assert!(fp.completed, "the run completes after the shutdown");
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
