//! Multi-tenant headless runner for the order-stream ingestion service.
//!
//! The service drives N **isolated** warehouse instances ("tenants") on
//! worker threads. Each tenant owns its engine, planner, RNG streams and
//! fault plan; tenants share nothing but the thread pool, so one tenant's
//! disruptions or degradation can never leak into another's world.
//!
//! # The scripted tick-batch protocol
//!
//! Producers stream [`TickBatch`]es — `(tick, commands)` pairs in strictly
//! increasing tick order — over a bounded channel
//! ([`std::sync::mpsc::sync_channel`]) and then close it. The worker drains
//! the queue with [`ServiceQueue::drain_due`]: before executing tick `t` it
//! blocks until it either holds a batch scheduled *after* `t` or observes
//! the channel closed. At that point the set of commands due at `t` is
//! unambiguous, so the run is **bit-identical across executions and
//! machines** even though delivery rides on OS threads with arbitrary
//! scheduling. Within the tick, the engine re-sorts by sequence number —
//! the canonical apply order (see `docs/order-stream.md`).
//!
//! Batches scheduled in the past (e.g. replayed after a resume) are applied
//! at the first tick that observes them; their commands are then dropped by
//! the engine's `next_command_seq` idempotency cursor if they were already
//! applied before the snapshot.
//!
//! # Throughput reporting
//!
//! [`ServiceBench::run`] executes every tenant to completion and reports
//! sustained accepted-orders/sec plus p99 per-tick latency. Performance
//! claims about live ingestion are judged by the `surge-live-eatp`
//! workload of `benchmark/`.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

use eatp_core::{planner_by_name, EatpConfig};
use tprw_warehouse::{Instance, Tick};

use crate::commands::{Ack, SequencedCommand};
use crate::engine::{Engine, EngineConfig};
use crate::report::{DeterministicFingerprint, SimulationReport};
use crate::snapshot::write_snapshot_atomic;

/// One producer-side delivery unit: every command the producer wants
/// applied at `tick`. Producers must send batches in strictly increasing
/// tick order and close the channel when done — that ordering is what lets
/// the consumer decide "no more commands for tick `t`" without timeouts.
#[derive(Debug, Clone, PartialEq)]
pub struct TickBatch {
    /// The tick the batch is scheduled for. Batches arriving after their
    /// tick has passed are applied at the first tick that observes them.
    pub tick: Tick,
    /// The commands to apply (the engine re-sorts by `seq`).
    pub commands: Vec<SequencedCommand>,
}

/// Batches buffered per tenant queue before the producer blocks. Large
/// enough that a producer staying a few ticks ahead never stalls, small
/// enough that a multi-thousand-batch script is not held in memory at once.
pub const TENANT_QUEUE_CAP: usize = 64;

/// Consumer side of a tenant's command queue, implementing the scripted
/// tick-batch protocol (see the module docs).
#[derive(Debug)]
pub struct ServiceQueue {
    rx: Receiver<TickBatch>,
    /// The one batch received but not yet due (its tick is in the future).
    pending: Option<TickBatch>,
    /// The producer closed the channel; no further batches will arrive.
    closed: bool,
}

impl ServiceQueue {
    /// Creates a queue that buffers at most `cap` tick batches, returning
    /// the producer handle and the consumer. The producer handle is a plain
    /// [`SyncSender`] and may be moved to another thread (it is also
    /// `Clone`, but the increasing-tick contract then spans all clones). A
    /// producer that runs ahead of the simulation blocks in `send` until
    /// the worker drains a batch, bounding the memory held by in-flight
    /// commands, and is released with `Err` once the consumer is dropped.
    pub fn bounded(cap: usize) -> (SyncSender<TickBatch>, ServiceQueue) {
        let (tx, rx) = sync_channel(cap);
        (
            tx,
            ServiceQueue {
                rx,
                pending: None,
                closed: false,
            },
        )
    }

    /// Collects every command due at tick `t` into `out`, blocking until
    /// the stream position is unambiguous: returns only once a batch
    /// scheduled after `t` is buffered or the channel is closed.
    pub fn drain_due(&mut self, t: Tick, out: &mut Vec<SequencedCommand>) {
        loop {
            if let Some(batch) = &self.pending {
                if batch.tick > t {
                    return;
                }
                let batch = self.pending.take().expect("pending batch just observed");
                out.extend(batch.commands);
                continue;
            }
            if self.closed {
                return;
            }
            match self.rx.recv() {
                Ok(batch) => self.pending = Some(batch),
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }

    /// Whether the producer has closed the channel and every batch has
    /// been drained.
    pub fn is_exhausted(&self) -> bool {
        self.closed && self.pending.is_none()
    }
}

/// One isolated warehouse instance for the multi-tenant runner: its own
/// world, engine configuration (including fault plan), planner and scripted
/// command stream.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Stable label used in reports.
    pub name: String,
    /// Planner driving this tenant — an [`eatp_core::PLANNER_NAMES`] entry.
    pub planner: String,
    /// Planner configuration.
    pub planner_config: EatpConfig,
    /// The tenant's warehouse.
    pub instance: Instance,
    /// Engine configuration (normally `live: true`; each tenant carries its
    /// own seeds and fault plan, which is what isolates the fleets).
    pub config: EngineConfig,
    /// Scripted command stream replayed by the producer thread in
    /// increasing-tick order.
    pub script: Vec<TickBatch>,
    /// Where to write a snapshot when a `RequestSnapshot` command is
    /// acknowledged (the service layer owns snapshot I/O; the engine only
    /// acks). `None` counts requests without saving.
    pub snapshot_path: Option<std::path::PathBuf>,
}

impl Tenant {
    /// A tenant with the given world, planner and script; default planner
    /// config, no snapshot sink.
    pub fn new(
        name: impl Into<String>,
        planner: impl Into<String>,
        instance: Instance,
        config: EngineConfig,
        script: Vec<TickBatch>,
    ) -> Self {
        Tenant {
            name: name.into(),
            planner: planner.into(),
            planner_config: EatpConfig::default(),
            instance,
            config,
            script,
            snapshot_path: None,
        }
    }
}

/// What one tenant produced: the full report, its deterministic
/// fingerprint, every acknowledgement, and the per-tick latency samples.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's label.
    pub name: String,
    /// Full simulation report (order counters included).
    pub report: SimulationReport,
    /// Fingerprint for cross-run / cross-process comparison.
    pub fingerprint: DeterministicFingerprint,
    /// Every ack the engine emitted, in emission order.
    pub acks: Vec<Ack>,
    /// Ticks executed.
    pub ticks: u64,
    /// Snapshots saved in response to `RequestSnapshot` commands.
    pub snapshots_saved: u64,
    /// Per-tick wall-clock latencies in microseconds, in tick order.
    pub tick_latencies_us: Vec<u64>,
}

impl TenantOutcome {
    /// Accepted live orders (`Ack::Accepted` count).
    pub fn orders_accepted(&self) -> u64 {
        self.acks
            .iter()
            .filter(|a| matches!(a, Ack::Accepted { .. }))
            .count() as u64
    }

    /// Completed live orders (`Ack::Completed` count).
    pub fn orders_completed(&self) -> u64 {
        self.acks
            .iter()
            .filter(|a| matches!(a, Ack::Completed { .. }))
            .count() as u64
    }

    /// Rejected commands (`Ack::Rejected` count).
    pub fn commands_rejected(&self) -> u64 {
        self.acks
            .iter()
            .filter(|a| matches!(a, Ack::Rejected { .. }))
            .count() as u64
    }
}

/// Fleet-level result of a multi-tenant service run: throughput and tail
/// latency across every tenant, plus the per-tenant outcomes.
#[derive(Debug, Clone)]
pub struct ServiceBench {
    /// Tenants executed.
    pub tenants: usize,
    /// Ticks executed across all tenants.
    pub total_ticks: u64,
    /// Live orders accepted across all tenants.
    pub orders_accepted: u64,
    /// Live orders completed across all tenants.
    pub orders_completed: u64,
    /// Wall-clock duration of the whole fleet run, seconds.
    pub wall_seconds: f64,
    /// Sustained ingestion throughput: accepted orders / wall seconds.
    pub orders_per_sec: f64,
    /// 99th-percentile per-tick latency across all tenants' ticks, µs.
    pub p99_tick_latency_us: u64,
    /// Mean per-tick latency across all tenants' ticks, µs.
    pub mean_tick_latency_us: f64,
    /// Per-tenant details, in input order.
    pub outcomes: Vec<TenantOutcome>,
}

impl ServiceBench {
    /// Runs every tenant to completion, one worker thread (plus one
    /// producer thread streaming its script) per tenant, all tenants
    /// concurrent. Timing fields measure this call; the fingerprints are
    /// timing-independent by construction.
    pub fn run(tenants: &[Tenant]) -> ServiceBench {
        let started = Instant::now();
        let outcomes: Vec<TenantOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .iter()
                .map(|tenant| scope.spawn(move || run_tenant(tenant)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant worker panicked"))
                .collect()
        });
        let wall_seconds = started.elapsed().as_secs_f64();

        let total_ticks = outcomes.iter().map(|o| o.ticks).sum();
        let orders_accepted = outcomes.iter().map(|o| o.orders_accepted()).sum();
        let orders_completed = outcomes.iter().map(|o| o.orders_completed()).sum();
        let mut latencies: Vec<u64> = outcomes
            .iter()
            .flat_map(|o| o.tick_latencies_us.iter().copied())
            .collect();
        latencies.sort_unstable();
        let mean_tick_latency_us = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        };
        ServiceBench {
            tenants: tenants.len(),
            total_ticks,
            orders_accepted,
            orders_completed,
            wall_seconds,
            orders_per_sec: if wall_seconds > 0.0 {
                orders_accepted as f64 / wall_seconds
            } else {
                0.0
            },
            p99_tick_latency_us: percentile(&latencies, 99.0),
            mean_tick_latency_us,
            outcomes,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Drives one tenant to completion: spawns the producer thread streaming
/// the script, runs the engine tick-by-tick against the queue, and collects
/// acks, latencies and the final report.
fn run_tenant(tenant: &Tenant) -> TenantOutcome {
    // Bounded so a producer replaying a long script cannot buffer the whole
    // stream ahead of the engine; the cap only throttles the producer thread,
    // it never changes which commands land at which tick.
    let (tx, mut queue) = ServiceQueue::bounded(TENANT_QUEUE_CAP);
    let script = tenant.script.clone();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for batch in script {
                // The worker drops its receiver once the engine finishes;
                // any tail of the script past that point is moot.
                if tx.send(batch).is_err() {
                    break;
                }
            }
        });

        let mut planner = planner_by_name(&tenant.planner, &tenant.planner_config)
            .unwrap_or_else(|| panic!("unknown planner {:?}", tenant.planner));
        let mut engine = Engine::new(&tenant.instance, &tenant.config);
        engine.start(planner.as_mut());

        let mut acks = Vec::new();
        let mut tick_acks = Vec::new();
        let mut due = Vec::new();
        let mut latencies = Vec::new();
        let mut snapshots_saved = 0u64;
        while !engine.is_finished() {
            due.clear();
            queue.drain_due(engine.current_tick(), &mut due);
            let tick_started = Instant::now();
            engine.tick_with_commands(planner.as_mut(), &mut due, &mut tick_acks);
            latencies.push(tick_started.elapsed().as_micros() as u64);
            if let Some(path) = &tenant.snapshot_path {
                if tick_acks
                    .iter()
                    .any(|a| matches!(a, Ack::SnapshotRequested { .. }))
                {
                    let data = engine.snapshot(planner.as_ref());
                    write_snapshot_atomic(path, &data).expect("service snapshot write failed");
                    snapshots_saved += 1;
                }
            }
            acks.append(&mut tick_acks);
        }
        let ticks = latencies.len() as u64;
        let report = engine.report(planner.as_mut());
        let fingerprint = report.deterministic_fingerprint();
        TenantOutcome {
            name: tenant.name.clone(),
            report,
            fingerprint,
            acks,
            ticks,
            snapshots_saved,
            tick_latencies_us: latencies,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{Command, OrderSpec};
    use crate::engine::run_simulation;
    use tprw_warehouse::{OrderId, RackId};

    fn tenant_instance(seed: u64) -> Instance {
        crate::engine::test_support::small_instance(14, seed)
    }

    fn live_config() -> EngineConfig {
        EngineConfig::builder()
            .live(true)
            .max_ticks(4000)
            .bottleneck_bucket(50)
            .build()
            .unwrap()
    }

    /// A script submitting `n` orders spread over early ticks, then a
    /// shutdown once the stream ends.
    fn order_script(instance: &Instance, n: usize, shutdown_tick: Tick) -> Vec<TickBatch> {
        let racks = instance.racks.len();
        let mut batches = Vec::new();
        for i in 0..n {
            batches.push(TickBatch {
                tick: (i as Tick) * 3,
                commands: vec![SequencedCommand {
                    seq: i as u64,
                    command: Command::SubmitOrder {
                        spec: OrderSpec {
                            order: OrderId::new(i),
                            rack: RackId::new(i % racks),
                            processing: 5 + (i as Duration % 7),
                            arrival: (i as Tick) * 3,
                        },
                    },
                }],
            });
        }
        batches.push(TickBatch {
            tick: shutdown_tick,
            commands: vec![SequencedCommand {
                seq: n as u64,
                command: Command::Shutdown,
            }],
        });
        batches
    }

    use tprw_warehouse::Duration;

    #[test]
    fn queue_drains_due_batches_and_blocks_on_future_ones() {
        let (tx, mut queue) = ServiceQueue::bounded(2);
        tx.send(TickBatch {
            tick: 0,
            commands: vec![SequencedCommand {
                seq: 0,
                command: Command::RequestSnapshot,
            }],
        })
        .unwrap();
        tx.send(TickBatch {
            tick: 5,
            commands: vec![SequencedCommand {
                seq: 1,
                command: Command::Shutdown,
            }],
        })
        .unwrap();
        drop(tx);
        let mut out = Vec::new();
        queue.drain_due(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 0);
        assert!(!queue.is_exhausted(), "tick-5 batch still pending");
        out.clear();
        queue.drain_due(4, &mut out);
        assert!(out.is_empty());
        queue.drain_due(5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 1);
        queue.drain_due(6, &mut out);
        assert!(queue.is_exhausted());
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_changing_delivery() {
        // A one-slot queue forces the producer to hand over batches one at
        // a time; the consumer must still observe the exact scripted stream.
        let (tx, mut queue) = ServiceQueue::bounded(1);
        let batches: Vec<TickBatch> = (0..20)
            .map(|t| TickBatch {
                tick: t,
                commands: vec![SequencedCommand {
                    seq: t,
                    command: Command::RequestSnapshot,
                }],
            })
            .collect();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for batch in batches {
                    tx.send(batch).unwrap();
                }
            });
            let mut out = Vec::new();
            for t in 0..20 {
                queue.drain_due(t, &mut out);
            }
            queue.drain_due(20, &mut out);
            assert_eq!(out.len(), 20);
            assert!(out.iter().enumerate().all(|(i, c)| c.seq == i as u64));
            assert!(queue.is_exhausted());
        });
    }

    #[test]
    fn dropping_the_queue_releases_a_blocked_producer() {
        // A finished engine drops its queue while the producer may still be
        // blocked on a full one; `send` must return `Err` so the producer
        // thread ends instead of hanging the scope.
        let (tx, queue) = ServiceQueue::bounded(1);
        let batch = |tick| TickBatch {
            tick,
            commands: Vec::new(),
        };
        tx.send(batch(0)).unwrap();
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || tx.send(batch(1)));
            // Give the producer time to block on the full queue; the test
            // holds either way, since `send` fails once the queue is gone.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(queue);
            assert!(producer.join().unwrap().is_err());
        });
    }

    #[test]
    fn service_run_matches_single_threaded_run() {
        // The same tenant executed through the threaded service and
        // directly on this thread must produce identical fingerprints.
        let instance = tenant_instance(11);
        let config = live_config();
        let script = order_script(&instance, 6, 60);
        let tenant = Tenant::new(
            "t0",
            "EATP",
            instance.clone(),
            config.clone(),
            script.clone(),
        );
        let bench = ServiceBench::run(std::slice::from_ref(&tenant));
        assert_eq!(bench.tenants, 1);
        let outcome = &bench.outcomes[0];
        assert_eq!(outcome.orders_accepted(), 6);
        assert_eq!(outcome.orders_completed(), 6);

        let mut planner = planner_by_name("EATP", &EatpConfig::default()).unwrap();
        let mut engine = Engine::new(&instance, &config);
        engine.start(planner.as_mut());
        let mut acks = Vec::new();
        let mut pending: Vec<TickBatch> = script.clone();
        while !engine.is_finished() {
            let t = engine.current_tick();
            let mut due: Vec<SequencedCommand> = Vec::new();
            pending.retain_mut(|b| {
                if b.tick <= t {
                    due.append(&mut b.commands);
                    false
                } else {
                    true
                }
            });
            engine.tick_with_commands(planner.as_mut(), &mut due, &mut acks);
        }
        let reference = engine.report(planner.as_mut()).deterministic_fingerprint();
        assert_eq!(outcome.fingerprint, reference);
    }

    #[test]
    fn tenants_are_isolated() {
        // Running a tenant alone and alongside three different tenants
        // must not change its fingerprint.
        let mk = |seed: u64, planner: &str| {
            let instance = tenant_instance(seed);
            let script = order_script(&instance, 5, 50);
            Tenant::new(
                format!("tenant-{seed}"),
                planner,
                instance,
                live_config(),
                script,
            )
        };
        let solo = ServiceBench::run(&[mk(21, "ATP")]);
        let fleet =
            ServiceBench::run(&[mk(20, "NTP"), mk(21, "ATP"), mk(22, "LEF"), mk(23, "EATP")]);
        assert_eq!(fleet.tenants, 4);
        assert_eq!(
            solo.outcomes[0].fingerprint, fleet.outcomes[1].fingerprint,
            "tenant fingerprint must be independent of co-tenants"
        );
        assert_eq!(
            fleet.total_ticks,
            fleet.outcomes.iter().map(|o| o.ticks).sum::<u64>()
        );
        assert!(fleet.orders_accepted >= 20);
    }

    #[test]
    fn non_live_tenant_without_script_matches_run_simulation() {
        // A tenant with an empty script and `live: false` degenerates to
        // the plain pregenerated run.
        let instance = tenant_instance(31);
        let config = EngineConfig::builder()
            .max_ticks(4000)
            .bottleneck_bucket(50)
            .build()
            .unwrap();
        let tenant = Tenant::new("plain", "LEF", instance.clone(), config.clone(), Vec::new());
        let bench = ServiceBench::run(std::slice::from_ref(&tenant));
        let mut planner = planner_by_name("LEF", &EatpConfig::default()).unwrap();
        let reference = run_simulation(&instance, planner.as_mut(), &config);
        assert_eq!(
            bench.outcomes[0].fingerprint,
            reference.deterministic_fingerprint()
        );
        assert_eq!(
            bench.orders_accepted, 0,
            "no live submissions in the script"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
    }
}
