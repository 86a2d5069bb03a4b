//! One episode: build a floor, feed its order stream live through
//! `tick_with_commands`, time every tick, and check the outputs.
//!
//! Simulated time is open-loop (orders land on the seeded schedule whatever
//! the floor does; latency counts from the due tick). Host time is
//! closed-loop with one client: the next tick starts as soon as the previous
//! one returns, so host numbers are saturation throughput and latency.

use std::time::Instant;

use eatp_core::planner::Planner;
use eatp_core::{planner_by_name, EatpConfig};
use tprw_simulator::service::TENANT_QUEUE_CAP;
use tprw_simulator::{
    encode_snapshot, Ack, Engine, EngineConfig, SequencedCommand, ServiceQueue, SimulationReport,
    TickBatch,
};
use tprw_warehouse::Tick;

use crate::stats::fnv64;
use crate::trace::{span, SharedTracer, TimedPlanner, TICK};
use crate::workloads::{episode_seed, scenario_seed, PlannedOrder, Script, Sent, Workload};

/// Tick budget of a live engine; far beyond any episode, finite on livelock.
const MAX_TICKS: Tick = 4_000_000;

#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `ScenarioSpec::build`.
    pub build_s: f64,
    /// `Engine::new`.
    pub engine_s: f64,
    /// Planner construction and `Engine::start` (`Planner::init`).
    pub init_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.engine_s + self.init_s
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderTally {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub cancelled: u64,
    pub completed: u64,
    /// Rejected, or accepted and neither cancelled nor completed exactly once.
    pub failed: u64,
}

#[derive(Debug, Clone, Default)]
struct OrderState {
    accepted: bool,
    rejected: bool,
    cancelled: bool,
    completions: u32,
    completed_at: Tick,
}

/// Follows every order from submit through ack to completion using nothing
/// but the engine's `Ack`s, and records what contradicts the script.
pub struct OrderBook<'a> {
    orders: &'a [PlannedOrder],
    sent: &'a [Sent],
    state: Vec<OrderState>,
    last_seq: Option<u64>,
    pub acked_commands: u64,
    pub snapshots_requested: u64,
    /// Largest `Accepted` tick − scripted submit tick.
    pub ack_lag_max: Tick,
    violations: Vec<String>,
}

impl<'a> OrderBook<'a> {
    pub fn new(orders: &'a [PlannedOrder], sent: &'a [Sent]) -> Self {
        OrderBook {
            orders,
            sent,
            state: vec![OrderState::default(); orders.len()],
            last_seq: None,
            acked_commands: 0,
            snapshots_requested: 0,
            ack_lag_max: 0,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, what: String) {
        // Enough to diagnose, bounded if a run goes wholly wrong.
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    pub fn observe(&mut self, ack: &Ack) {
        if let Some(seq) = ack.seq() {
            if self.last_seq.is_some_and(|last| seq <= last) {
                self.violation(format!("ack seq {seq} after {:?}", self.last_seq));
            }
            self.last_seq = Some(seq);
            self.acked_commands += 1;
        }
        let sent = ack.seq().and_then(|s| self.sent.get(s as usize).copied());
        match *ack {
            Ack::Accepted { order, tick, .. } if sent == Some(Sent::Submit(order.index())) => {
                self.state[order.index()].accepted = true;
                let lag = tick.saturating_sub(self.orders[order.index()].submit);
                self.ack_lag_max = self.ack_lag_max.max(lag);
            }
            Ack::Rejected { .. } => match sent {
                Some(Sent::Submit(i)) => self.state[i].rejected = true,
                _ => self.violation(format!("{ack:?} for {sent:?}")),
            },
            Ack::Cancelled { order, .. }
                if sent == Some(Sent::Cancel(order.index()))
                    && self.state[order.index()].accepted =>
            {
                self.state[order.index()].cancelled = true;
            }
            Ack::Completed { order, tick } => match self.state.get_mut(order.index()) {
                Some(s) if s.accepted && !s.cancelled && tick >= self.orders[order.index()].due => {
                    s.completions += 1;
                    s.completed_at = tick;
                }
                _ => self.violation(format!("unexpected {ack:?}")),
            },
            Ack::SnapshotRequested { .. } if sent == Some(Sent::Snapshot) => {
                self.snapshots_requested += 1;
            }
            Ack::ShutdownStarted { .. } if sent == Some(Sent::Shutdown) => {}
            _ => self.violation(format!("{ack:?} for {sent:?}")),
        }
    }

    /// The tally, each completed order's latency in ticks from its due
    /// arrival, and the violations.
    pub fn finish(mut self) -> (OrderTally, Vec<u64>, Vec<String>) {
        let mut tally = OrderTally {
            submitted: self.orders.len() as u64,
            ..OrderTally::default()
        };
        let mut latencies = Vec::with_capacity(self.orders.len());
        for i in 0..self.orders.len() {
            let s = self.state[i].clone();
            tally.accepted += u64::from(s.accepted);
            tally.rejected += u64::from(s.rejected);
            tally.cancelled += u64::from(s.cancelled);
            if s.accepted && !s.cancelled && s.completions == 1 {
                tally.completed += 1;
                latencies.push(s.completed_at - self.orders[i].due);
            } else if !s.cancelled {
                tally.failed += 1;
                self.violation(format!("order {i} ended as {s:?}"));
            } else if self.orders[i].cancel.is_none() {
                self.violation(format!("order {i} cancelled unasked"));
            }
        }
        (tally, latencies, self.violations)
    }
}

/// Everything one episode produced.
pub struct Episode {
    pub index: u32,
    pub setup: SetupTimes,
    /// First tick → finished, including queue waits and snapshots.
    pub run_s: f64,
    /// Process user+sys CPU over the same interval.
    pub cpu_s: f64,
    /// Host time of each `tick_with_commands` call.
    pub tick_ns: Vec<u64>,
    pub latency_ticks: Vec<u64>,
    pub report: SimulationReport,
    /// FNV-1a of the report's `DeterministicFingerprint`.
    pub fingerprint: u64,
    pub orders: OrderTally,
    pub events_scheduled: usize,
    /// Engine thread blocked in `drain_due`: how late the generator ran.
    pub queue_wait_s: f64,
    pub commands_applied: u64,
    pub ack_lag_max: Tick,
    pub snapshot_s: f64,
    pub snapshot_bytes: u64,
    /// Why the outputs are wrong; empty when the episode passes the gate.
    pub violations: Vec<String>,
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    // Linux reports these in USER_HZ, which is 100 on every architecture.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("cpu time is a number");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM is reported");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number");
    kb / 1024.0
}

fn make_planner(name: &str, tracer: Option<&SharedTracer>) -> Box<dyn Planner> {
    let bare = planner_by_name(name, &EatpConfig::default()).expect("workload names a planner");
    match tracer {
        Some(t) => Box::new(TimedPlanner::new(bare, t.clone())),
        None => bare,
    }
}

/// A floor that is set up and ready for its first tick.
struct Started<'e, 'i> {
    setup: SetupTimes,
    engine: &'e mut Engine<'i>,
    planner: &'e mut dyn Planner,
    script: Script,
    events_scheduled: usize,
}

/// Sets up episode `index` and hands the started engine to `body`.
fn with_engine<R>(
    w: &Workload,
    seed: u64,
    index: u32,
    tracer: Option<&SharedTracer>,
    body: impl FnOnce(Started<'_, '_>) -> R,
) -> R {
    let episode_seed = episode_seed(seed, index);
    let spec = (w.spec)(w.orders, scenario_seed(episode_seed));
    let t0 = Instant::now();
    let mut instance = span(tracer, "warehouse.build", || spec.build()).expect("workload builds");
    let build_s = t0.elapsed().as_secs_f64();

    // Harness work, not the program's: every order is fed live instead.
    let script = Script::build(&instance, w.service, episode_seed);
    instance.items.clear();
    let config = EngineConfig::builder()
        .live(true)
        .max_ticks(MAX_TICKS)
        .bottleneck_bucket(50)
        .build()
        .expect("live config is valid");

    let t1 = Instant::now();
    let mut engine = span(tracer, "simulator.engine_new", || {
        Engine::new(&instance, &config)
    });
    let engine_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let mut planner = make_planner(w.planner, tracer);
    engine.start(planner.as_mut());
    let init_s = t2.elapsed().as_secs_f64();

    body(Started {
        setup: SetupTimes {
            build_s,
            engine_s,
            init_s,
        },
        engine: &mut engine,
        planner: planner.as_mut(),
        script,
        events_scheduled: instance.disruptions.len(),
    })
}

/// Times one more set-up of episode `index` without running it.
pub fn setup_only(w: &Workload, seed: u64, index: u32) -> SetupTimes {
    with_engine(w, seed, index, None, |started| started.setup)
}

/// What the tick loop measured, before the order book is closed.
struct Drive {
    run_s: f64,
    cpu_s: f64,
    tick_ns: Vec<u64>,
    commands_applied: u64,
    snapshot_s: f64,
    snapshot_bytes: u64,
}

/// Ticks the engine to the end. `feed` collects the commands due at a tick.
fn drive(
    engine: &mut Engine<'_>,
    planner: &mut dyn Planner,
    book: &mut OrderBook<'_>,
    index: u32,
    tracer: Option<&SharedTracer>,
    mut feed: impl FnMut(Tick, &mut Vec<SequencedCommand>),
) -> Drive {
    let mut out = Drive {
        run_s: 0.0,
        cpu_s: 0.0,
        tick_ns: Vec::new(),
        commands_applied: 0,
        snapshot_s: 0.0,
        snapshot_bytes: 0,
    };
    let mut due: Vec<SequencedCommand> = Vec::new();
    let mut acks: Vec<Ack> = Vec::new();
    let cpu0 = process_cpu_s();
    let started = Instant::now();
    while !engine.is_finished() {
        let t = engine.current_tick();
        due.clear();
        feed(t, &mut due);
        out.commands_applied += due.len() as u64;

        if let Some(tr) = tracer {
            let mut tr = tr.borrow_mut();
            tr.set_id(index, t);
            tr.enter(TICK);
        }
        let tick_started = Instant::now();
        engine.tick_with_commands(planner, &mut due, &mut acks);
        out.tick_ns.push(tick_started.elapsed().as_nanos() as u64);
        if let Some(tr) = tracer {
            tr.borrow_mut().exit();
        }

        let before = book.snapshots_requested;
        for ack in &acks {
            book.observe(ack);
        }
        acks.clear();
        if book.snapshots_requested > before {
            // The service layer owns snapshot I/O; here it goes to memory.
            let t0 = Instant::now();
            let bytes = span(tracer, "simulator.snapshot", || {
                encode_snapshot(&engine.snapshot(planner))
            });
            out.snapshot_s += t0.elapsed().as_secs_f64();
            out.snapshot_bytes += std::hint::black_box(bytes).len() as u64;
        }
    }
    out.run_s = started.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    out
}

pub fn run_episode(w: &Workload, seed: u64, index: u32, tracer: Option<&SharedTracer>) -> Episode {
    with_engine(w, seed, index, tracer, |started| {
        let Started {
            setup,
            engine,
            planner,
            script,
            events_scheduled,
        } = started;
        let Script {
            batches,
            orders,
            sent,
        } = script;
        let mut book = OrderBook::new(&orders, &sent);
        let mut queue_wait_s = 0.0;
        let d = if w.service.is_some() {
            let (tx, mut queue) = ServiceQueue::bounded(TENANT_QUEUE_CAP);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for batch in batches {
                        // The receiver is gone once the engine finishes.
                        if tx.send(batch).is_err() {
                            break;
                        }
                    }
                });
                let wait = &mut queue_wait_s;
                // `queue` moves into the feed and is dropped with it when
                // `drive` returns, which unblocks and ends the producer.
                drive(engine, planner, &mut book, index, tracer, move |t, due| {
                    let t0 = Instant::now();
                    span(tracer, "simulator.queue_wait", || queue.drain_due(t, due));
                    *wait += t0.elapsed().as_secs_f64();
                })
            })
        } else {
            let mut pending = batches.into_iter().peekable();
            drive(engine, planner, &mut book, index, tracer, |t, due| {
                while let Some(batch) = pending.next_if(|b: &TickBatch| b.tick <= t) {
                    due.extend(batch.commands);
                }
            })
        };

        let report = span(tracer, "simulator.report", || engine.report(planner));
        let acked = book.acked_commands;
        let ack_lag_max = book.ack_lag_max;
        let (tally, latency_ticks, mut violations) = book.finish();
        if !report.completed {
            violations.push(format!("run not completed at tick {}", report.makespan));
        }
        if report.executed_conflicts != 0 {
            violations.push(format!("{} executed conflicts", report.executed_conflicts));
        }
        if report.disruption_violations != 0 {
            violations.push(format!(
                "{} disruption violations",
                report.disruption_violations
            ));
        }
        if acked != d.commands_applied {
            violations.push(format!(
                "{} commands applied, {acked} acknowledged",
                d.commands_applied
            ));
        }
        let fingerprint = fnv64(format!("{:?}", report.deterministic_fingerprint()).as_bytes());
        Episode {
            index,
            setup,
            run_s: d.run_s,
            cpu_s: d.cpu_s,
            tick_ns: d.tick_ns,
            latency_ticks,
            report,
            fingerprint,
            orders: tally,
            events_scheduled,
            queue_wait_s,
            commands_applied: d.commands_applied,
            ack_lag_max,
            snapshot_s: d.snapshot_s,
            snapshot_bytes: d.snapshot_bytes,
            violations,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tprw_simulator::RejectReason;
    use tprw_warehouse::OrderId;

    fn order(due: Tick, lead: Tick, cancel: Option<Tick>) -> PlannedOrder {
        PlannedOrder {
            due,
            submit: due - lead,
            cancel,
        }
    }

    #[test]
    fn order_book_counts_latency_from_the_due_tick_not_the_submit_tick() {
        // Order 0 led by 10 ticks, order 1 led and cancelled, order 2 rejected.
        let orders = [
            order(50, 10, None),
            order(60, 20, Some(45)),
            order(70, 0, None),
        ];
        let sent = [
            Sent::Submit(0),
            Sent::Submit(1),
            Sent::Cancel(1),
            Sent::Submit(2),
            Sent::Shutdown,
        ];
        let mut book = OrderBook::new(&orders, &sent);
        let id = OrderId::new;
        for ack in [
            Ack::Accepted {
                seq: 0,
                order: id(0),
                tick: 40,
            },
            Ack::Accepted {
                seq: 1,
                order: id(1),
                tick: 41,
            },
            Ack::Cancelled {
                seq: 2,
                order: id(1),
                tick: 45,
            },
            Ack::Rejected {
                seq: 3,
                reason: RejectReason::UnknownRack,
                tick: 70,
            },
            Ack::ShutdownStarted { seq: 4, tick: 70 },
            Ack::Completed {
                order: id(0),
                tick: 130,
            },
        ] {
            book.observe(&ack);
        }
        assert_eq!(book.acked_commands, 5);
        assert_eq!(book.ack_lag_max, 1, "order 1 was accepted a tick late");
        let (tally, latencies, violations) = book.finish();
        assert_eq!(latencies, vec![80], "130 - due 50, not 130 - submit 40");
        assert_eq!(
            tally,
            OrderTally {
                submitted: 3,
                accepted: 2,
                rejected: 1,
                cancelled: 1,
                completed: 1,
                failed: 1,
            }
        );
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("order 2"));
    }

    #[test]
    fn order_book_flags_double_completions_and_reordered_acks() {
        let orders = [order(5, 0, None)];
        let sent = [Sent::Submit(0), Sent::Shutdown];
        let mut book = OrderBook::new(&orders, &sent);
        let id = OrderId::new;
        book.observe(&Ack::ShutdownStarted { seq: 1, tick: 5 });
        book.observe(&Ack::Accepted {
            seq: 0,
            order: id(0),
            tick: 5,
        });
        for _ in 0..2 {
            book.observe(&Ack::Completed {
                order: id(0),
                tick: 9,
            });
        }
        let (tally, latencies, violations) = book.finish();
        assert!(latencies.is_empty());
        assert_eq!(tally.failed, 1);
        assert!(violations.iter().any(|v| v.contains("ack seq 0 after")));
        assert!(violations.iter().any(|v| v.contains("order 0 ended")));
    }

    /// A private floor small enough for a debug-build test.
    fn tiny_workload(planner: &'static str, service: bool) -> Workload {
        Workload {
            name: "tiny",
            why: "test",
            planner,
            orders: 40,
            spec: crate::workloads::tiny_floor,
            service: service.then_some(crate::workloads::ServiceMix {
                max_lead: 20,
                cancel_one_in: 5,
                snapshot_every: 50,
            }),
        }
    }

    #[test]
    fn timed_planner_leaves_the_fingerprint_alone() {
        for planner in ["EATP", "ATP"] {
            let w = tiny_workload(planner, false);
            let bare = run_episode(&w, 91, 0, None);
            let tracer = crate::trace::Tracer::shared();
            let timed = run_episode(&w, 91, 0, Some(&tracer));
            assert!(bare.violations.is_empty(), "{:?}", bare.violations);
            assert!(timed.violations.is_empty(), "{:?}", timed.violations);
            assert_eq!(bare.fingerprint, timed.fingerprint);
            assert_eq!(bare.latency_ticks, timed.latency_ticks);
            assert_eq!(bare.orders.completed, 40);
            let t = tracer.borrow();
            assert_eq!(t.total(TICK).count, timed.tick_ns.len() as u64);
            assert!(t.total("core.plan").count > 0);
            assert!(t.counter("core.assignments") > 0);
        }
    }

    #[test]
    fn service_episode_streams_cancels_and_snapshots_through_the_queue() {
        let w = tiny_workload("EATP", true);
        let ep = run_episode(&w, 91, 0, None);
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.orders.cancelled > 0);
        assert_eq!(ep.orders.completed + ep.orders.cancelled, 40);
        assert_eq!(ep.orders.failed, 0);
        assert!(ep.snapshot_bytes > 0);
        assert_eq!(ep.ack_lag_max, 0);
        // Same seed, same episode: the producer thread changes nothing.
        assert_eq!(ep.fingerprint, run_episode(&w, 91, 0, None).fingerprint);
    }
}
