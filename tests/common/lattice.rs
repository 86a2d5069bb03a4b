//! The bit-identity lattice: the same world gives the same run, whether
//! its orders are pregenerated or streamed live, whether the run is cut
//! by a snapshot and resumed, and whether or not commands are redelivered.
//!
//! A lattice point is (planner, floor, world seed, feed, cut):
//!
//! * **floor** — [`floor`]`(kind, seed)`, one 24×16 floor per kind: clean,
//!   blockade storm, breakdown wave, and a mixed floor with every
//!   disruption kind; and [`paper_floor`], the benchmark's 200×200 walled
//!   floor under surge's disruption mix, a release-only soak;
//! * **feed** — how the orders reach the engine ([`Feed`]);
//! * **cut** — none, or a snapshot through the byte format at a tick,
//!   resumed with a fresh planner while the whole stream is redelivered.
//!
//! [`run`] executes any point and [`agree`] is the one property over a set
//! of runs of one world. The golden files under `results/` are fixed
//! corner lists of the same runner.

use std::borrow::Cow;

use eatp::core::{planner_by_name, EatpConfig, Planner};
use eatp::simulator::{
    decode_snapshot, encode_snapshot, resume_from, Ack, Command, DeterministicFingerprint, Engine,
    EngineConfig, OrderSpec, SequencedCommand,
};
use eatp::warehouse::{
    DisruptionConfig, Instance, LayoutConfig, OrderId, ScenarioSpec, Tick, WorkloadConfig,
};
use proptest::prelude::*;

/// Floor kinds: clean, blockade storm, breakdown wave, mixed.
pub const FLOORS: usize = 4;

/// Orders in one [`Feed::Extra`] stream.
pub const LIVE_ORDERS: usize = 8;

/// The lattice's floor: 24×16, ten racks, four robots, two pickers and
/// twenty Poisson items, hit by the disruptions of `kind`.
pub fn floor(kind: usize, seed: u64) -> Instance {
    let quiet = DisruptionConfig {
        window: (10, 120),
        ..DisruptionConfig::none()
    };
    let disruptions = match kind {
        0 => None,
        1 => Some(DisruptionConfig {
            blockades: 4,
            blockade_ticks: (30, 90),
            closures: 1,
            closure_ticks: (30, 60),
            removals: 1,
            removal_ticks: (30, 60),
            ..quiet
        }),
        2 => Some(DisruptionConfig {
            breakdowns: 3,
            breakdown_ticks: (20, 90),
            removals: 2,
            removal_ticks: (30, 60),
            ..quiet
        }),
        _ => Some(DisruptionConfig {
            breakdowns: 2,
            breakdown_ticks: (20, 90),
            blockades: 2,
            blockade_ticks: (30, 80),
            closures: 1,
            closure_ticks: (30, 60),
            removals: 1,
            removal_ticks: (30, 60),
            ..quiet
        }),
    };
    ScenarioSpec {
        name: format!("lattice-{kind}-{seed}"),
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

/// The benchmark's paper floor (200×200 with walls, 2 000 racks, 500
/// robots, 24 pickers) under `surge-live-eatp`'s disruption mix: 62
/// breakdowns, 30 blockades, 4 station closures and 20 rack removals.
/// Its 500 Poisson items arrive four per tick, so runs last about a
/// thousand ticks and a cut at 137, 400 or 777 lands mid-run, with
/// hundreds of robots on legs, live STG layers and CDT spills.
pub fn paper_floor(seed: u64) -> Instance {
    ScenarioSpec {
        name: format!("lattice-paper-{seed}"),
        layout: LayoutConfig {
            width: 200,
            height: 200,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 2000,
        n_robots: 500,
        n_pickers: 24,
        workload: WorkloadConfig::poisson(500, 4.0),
        disruptions: Some(DisruptionConfig {
            breakdowns: 62,
            breakdown_ticks: (100, 300),
            blockades: 30,
            blockade_ticks: (150, 400),
            closures: 4,
            closure_ticks: (150, 300),
            removals: 20,
            removal_ticks: (100, 250),
            window: (50, 1000),
        }),
        seed,
    }
    .build()
    .unwrap()
}

/// The order in which a producer enqueues one tick's batch. The engine
/// applies a batch in sequence order, so the enqueue order must not
/// matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    Sorted,
    Reversed,
    /// Odd sequence numbers first.
    Interleaved,
}

/// How a world's orders reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// The instance's own item list.
    Pregenerated,
    /// The item list resent as `SubmitOrder`s (order id = item id) to the
    /// world's live twin: every command is due at tick 0, enqueued in the
    /// given order, with a `Shutdown` last in sequence.
    Resent(Enqueue),
    /// The item list resent one command every other tick, each order
    /// arriving no earlier than it is delivered, so a cut lands
    /// mid-stream.
    Trickled,
    /// [`LIVE_ORDERS`] live orders drawn from this order seed, on top of
    /// the pregenerated item list, each due a few ticks before it
    /// arrives, then a `Shutdown` at tick 160.
    Extra(u64),
}

impl Feed {
    /// Feeds with the same key hand the engine the same orders arriving at
    /// the same ticks, so their runs must agree.
    fn orders(self) -> Feed {
        match self {
            Feed::Resent(_) => Feed::Pregenerated,
            feed => feed,
        }
    }

    fn is_live(self) -> bool {
        self != Feed::Pregenerated
    }

    /// The instance the engine runs: the world, or for a feed that resends
    /// the item list the world's live twin, whose item list is empty.
    pub fn instance(self, world: &Instance) -> Cow<'_, Instance> {
        match self {
            Feed::Resent(_) | Feed::Trickled => {
                let mut twin = world.clone();
                twin.items.clear();
                Cow::Owned(twin)
            }
            Feed::Pregenerated | Feed::Extra(_) => Cow::Borrowed(world),
        }
    }

    /// The command stream, as `(due tick, command)` in enqueue order.
    fn stream(self, world: &Instance) -> Vec<(Tick, SequencedCommand)> {
        match self {
            Feed::Pregenerated => Vec::new(),
            Feed::Resent(enqueue) => {
                let mut stream = resent(world, 0);
                match enqueue {
                    Enqueue::Sorted => {}
                    Enqueue::Reversed => stream.reverse(),
                    Enqueue::Interleaved => stream.sort_by_key(|(_, c)| (c.seq % 2 == 0, c.seq)),
                }
                stream
            }
            Feed::Trickled => resent(world, 2),
            Feed::Extra(order_seed) => live_order_stream(world, order_seed),
        }
    }
}

/// `world`'s item list as `SubmitOrder`s, command `i` due at tick
/// `i * spacing` and arriving no earlier, closed by a `Shutdown`.
fn resent(world: &Instance, spacing: Tick) -> Vec<(Tick, SequencedCommand)> {
    let orders = world.items.iter().enumerate().map(|(i, item)| {
        let due = i as Tick * spacing;
        let spec = OrderSpec {
            order: OrderId::new(i),
            rack: item.rack,
            processing: item.processing,
            arrival: item.arrival.max(due),
        };
        (due, spec)
    });
    sequenced(orders.collect(), world.items.len() as Tick * spacing)
}

/// Numbers `orders` as a producer enqueues them, in delivery order (the
/// idempotency cursor relies on sequence numbers monotone in delivery),
/// and closes the stream with a `Shutdown` due at `shutdown`.
fn sequenced(orders: Vec<(Tick, OrderSpec)>, shutdown: Tick) -> Vec<(Tick, SequencedCommand)> {
    let submits = orders
        .into_iter()
        .map(|(t, spec)| (t, Command::SubmitOrder { spec }));
    let commands = submits.chain([(shutdown, Command::Shutdown)]).enumerate();
    let sequence = |(seq, (t, command))| {
        (
            t,
            SequencedCommand {
                seq: seq as u64,
                command,
            },
        )
    };
    commands.map(sequence).collect()
}

/// A deterministic live-order stream derived from `order_seed`:
/// [`LIVE_ORDERS`] submissions spread across the disruption window, each
/// due five ticks before its requested arrival (so orders wait in the
/// backlog), closed by a shutdown at tick 160.
fn live_order_stream(world: &Instance, order_seed: u64) -> Vec<(Tick, SequencedCommand)> {
    let mut x = order_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64, so the stream depends on nothing but the seed.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut orders = Vec::new();
    for i in 0..LIVE_ORDERS {
        let rack = (next() as usize) % world.racks.len();
        let processing = 4 + (next() % 10);
        let arrival = 10 + (next() % 140);
        orders.push((
            arrival.saturating_sub(5),
            OrderSpec {
                order: OrderId::new(i),
                rack: world.racks[rack].id,
                processing,
                arrival,
            },
        ));
    }
    orders.sort_by_key(|(tick, spec)| (*tick, spec.order));
    sequenced(orders, 160)
}

/// One lattice point of a world.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub planner: &'static str,
    pub feed: Feed,
    /// Run under a pinned tick budget and bottleneck bucket instead of the
    /// ones derived from the item list, which a live twin lacks.
    pub pinned: bool,
    /// Snapshot at this tick and resume.
    pub cut: Option<Tick>,
    /// Record the state hash at every tick boundary.
    pub lockstep: bool,
}

impl Point {
    pub fn new(planner: &'static str, feed: Feed) -> Self {
        Self {
            planner,
            feed,
            pinned: false,
            cut: None,
            lockstep: false,
        }
    }

    pub fn config(&self) -> EngineConfig {
        let mut builder = EngineConfig::builder().live(self.feed.is_live());
        if self.pinned {
            builder = builder.max_ticks(50_000).bottleneck_bucket(50);
        }
        builder.build().unwrap()
    }
}

/// What a run records as it goes.
#[derive(Default)]
pub struct Trace {
    /// Every ack, across the cut if there is one.
    pub acks: Vec<Ack>,
    /// The state hash after every tick, when recorded.
    pub states: Option<Vec<u64>>,
}

/// What a run of one point produced.
pub struct Outcome {
    pub point: Point,
    pub fingerprint: DeterministicFingerprint,
    pub trace: Trace,
    /// `SubmitOrder`s in the stream.
    pub submitted: usize,
    /// The canonical state hash at the end of the run.
    pub state: u64,
}

/// Runs `point` on `world` to the end.
pub fn run(world: &Instance, point: Point) -> Outcome {
    let instance = point.feed.instance(world);
    let stream = point.feed.stream(world);
    let config = point.config();
    let mut trace = Trace {
        acks: Vec::new(),
        states: point.lockstep.then(Vec::new),
    };
    let mut planner = planner_by_name(point.planner, &EatpConfig::default()).unwrap();
    let mut engine = Engine::new(&instance, &config);
    engine.start(planner.as_mut());
    if let Some(cut) = point.cut {
        drive(&mut engine, &mut *planner, &stream, cut, &mut trace);
        let bytes = encode_snapshot(&engine.snapshot(planner.as_ref()));
        let snapshot = decode_snapshot(&bytes).expect("a snapshot decodes");
        planner = planner_by_name(point.planner, &EatpConfig::default()).unwrap();
        engine = resume_from(&instance, &snapshot, planner.as_mut()).expect("a snapshot resumes");
    }
    drive(&mut engine, &mut *planner, &stream, Tick::MAX, &mut trace);
    let submitted = stream
        .iter()
        .filter(|(_, c)| matches!(c.command, Command::SubmitOrder { .. }))
        .count();
    Outcome {
        point,
        fingerprint: engine.report(planner.as_mut()).deterministic_fingerprint(),
        trace,
        submitted,
        state: engine.state_hash(),
    }
}

/// Steps `engine` until the run ends or reaches tick `until`, redelivering
/// every command of `stream` that is due at each tick: the harshest
/// redelivery schedule, which the engine's sequence cursor must make a
/// no-op.
pub fn drive(
    engine: &mut Engine<'_>,
    planner: &mut dyn Planner,
    stream: &[(Tick, SequencedCommand)],
    until: Tick,
    trace: &mut Trace,
) {
    while !engine.is_finished() && engine.current_tick() < until {
        let t = engine.current_tick();
        let mut due: Vec<SequencedCommand> = stream
            .iter()
            .filter(|(tick, _)| *tick <= t)
            .map(|(_, c)| c.clone())
            .collect();
        engine.tick_with_commands(planner, &mut due, &mut trace.acks);
        if let Some(states) = &mut trace.states {
            states.push(engine.state_hash());
        }
    }
}

/// The lattice's one property, over runs of one world. Every run
/// completes with no executed conflict and no disruption violation, and
/// acks each of its live orders exactly once as accepted and once as
/// completed. Runs under the same engine config whose feeds deliver the
/// same orders agree on the fingerprint; when both are live they agree on
/// the ack stream, when both are live or both pregenerated on the final
/// state hash, and when both lockstep on the state hash after every tick.
pub fn agree(runs: &[Outcome]) -> Result<(), TestCaseError> {
    for run in runs {
        let (p, fp) = (run.point, &run.fingerprint);
        prop_assert!(fp.completed, "{p:?} did not complete");
        prop_assert_eq!(fp.executed_conflicts, 0, "{p:?} executed conflicts");
        prop_assert_eq!(fp.disruption_violations, 0, "{p:?} violated disruptions");
        let acks = &run.trace.acks;
        let count = |f: fn(&Ack) -> bool| acks.iter().filter(|a| f(a)).count();
        let accepted = count(|a| matches!(a, Ack::Accepted { .. }));
        let completed = count(|a| matches!(a, Ack::Completed { .. }));
        let shutdown = usize::from(p.feed.is_live());
        prop_assert_eq!(
            (accepted, completed, acks.len()),
            (run.submitted, run.submitted, 2 * run.submitted + shutdown),
            "{p:?}: each live order is accepted and completed once, and nothing else is acked"
        );
    }
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            let (p, q) = (a.point, b.point);
            if p.pinned != q.pinned || p.feed.orders() != q.feed.orders() {
                continue;
            }
            prop_assert_eq!(&a.fingerprint, &b.fingerprint, "{p:?} and {q:?} diverged");
            if p.feed.is_live() && q.feed.is_live() {
                prop_assert_eq!(
                    &a.trace.acks,
                    &b.trace.acks,
                    "{p:?} and {q:?} acked differently"
                );
            }
            if p.feed.is_live() == q.feed.is_live() {
                prop_assert_eq!(
                    a.state,
                    b.state,
                    "{p:?} and {q:?} ended in different states"
                );
            }
            if let (Some(x), Some(y)) = (&a.trace.states, &b.trace.states) {
                let tick = x.iter().zip(y).position(|(x, y)| x != y);
                prop_assert_eq!(
                    tick,
                    None,
                    "{p:?} and {q:?}: first tick whose state differs"
                );
                prop_assert_eq!(x.len(), y.len(), "{p:?} and {q:?}: ticks run");
            }
        }
    }
    Ok(())
}
