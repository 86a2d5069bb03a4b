//! The command queue between an order producer and the engine thread.
//!
//! # The scripted tick-batch protocol
//!
//! Producers stream [`TickBatch`]es — `(tick, commands)` pairs in strictly
//! increasing tick order — over a bounded channel
//! ([`std::sync::mpsc::sync_channel`]) and then close it. The engine thread
//! drains the queue with [`ServiceQueue::drain_due`]: before executing tick
//! `t` it blocks until it either holds a batch scheduled *after* `t` or
//! observes the channel closed. At that point the set of commands due at
//! `t` is unambiguous, so the run is **bit-identical across executions and
//! machines** even though delivery rides on OS threads with arbitrary
//! scheduling. Within the tick, the engine re-sorts by sequence number —
//! the canonical apply order (see `docs/order-stream.md`).
//!
//! Batches scheduled in the past (e.g. replayed after a resume) are applied
//! at the first tick that observes them; their commands are then dropped by
//! the engine's `next_command_seq` idempotency cursor if they were already
//! applied before the snapshot.
//!
//! The one loop that drives an engine from this queue is the
//! `surge-live-eatp` workload of `benchmark/`, which is also where the
//! speed of live ingestion is measured.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use tprw_warehouse::Tick;

use crate::commands::SequencedCommand;

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

/// Batches buffered per queue before the producer blocks. Large
/// enough that a producer staying a few ticks ahead never stalls, small
/// enough that a multi-thousand-batch script is not held in memory at once.
pub const TENANT_QUEUE_CAP: usize = 64;

/// Consumer side of the command queue, implementing the scripted
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{Ack, Command, OrderSpec};
    use crate::engine::test_support::small_instance;
    use crate::engine::{Engine, EngineConfig};
    use crate::report::DeterministicFingerprint;
    use eatp_core::{planner_by_name, EatpConfig, PLANNER_NAMES};
    use tprw_warehouse::{Duration, Instance, OrderId, RackId};

    fn live_config() -> EngineConfig {
        EngineConfig::builder()
            .live(true)
            .max_ticks(4000)
            .bottleneck_bucket(50)
            .build()
            .unwrap()
    }

    /// A script submitting `n` orders spread over early ticks, then a
    /// snapshot request and, once the stream ends, a shutdown.
    fn order_script(instance: &Instance, n: usize, shutdown_tick: Tick) -> Vec<TickBatch> {
        let racks = instance.racks.len();
        let submit = |i: usize| Command::SubmitOrder {
            spec: OrderSpec {
                order: OrderId::new(i),
                rack: RackId::new(i % racks),
                processing: 5 + (i as Duration % 7),
                arrival: (i as Tick) * 3,
            },
        };
        let ticks = (0..n)
            .map(|i| (i as Tick) * 3)
            .chain([n as Tick * 3, shutdown_tick]);
        let commands = (0..n)
            .map(submit)
            .chain([Command::RequestSnapshot, Command::Shutdown]);
        ticks
            .zip(commands)
            .enumerate()
            .map(|(seq, (tick, command))| TickBatch {
                tick,
                commands: vec![SequencedCommand {
                    seq: seq as u64,
                    command,
                }],
            })
            .collect()
    }

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

    /// Runs `planner` live over `instance` to completion, handing each tick
    /// the commands `feed` collects for it; returns the run's fingerprint
    /// and every ack in emission order.
    fn drive(
        instance: &Instance,
        planner: &str,
        mut feed: impl FnMut(Tick, &mut Vec<SequencedCommand>),
    ) -> (DeterministicFingerprint, Vec<Ack>) {
        let mut planner = planner_by_name(planner, &EatpConfig::default()).unwrap();
        let mut engine = Engine::new(instance, &live_config());
        engine.start(planner.as_mut());
        let mut due = Vec::new();
        let mut acks = Vec::new();
        while !engine.is_finished() {
            due.clear();
            feed(engine.current_tick(), &mut due);
            engine.tick_with_commands(planner.as_mut(), &mut due, &mut acks);
        }
        let fingerprint = engine.report(planner.as_mut()).deterministic_fingerprint();
        (fingerprint, acks)
    }

    #[test]
    fn service_run_matches_single_threaded_run() {
        // A producer thread streams the script into a bounded queue and the
        // engine thread drains each tick's due commands from it: the loop
        // `benchmark/` runs. That run must reproduce, fingerprint and ack
        // for ack, the one handed its batches directly on one thread.
        let instance = small_instance(14, 11);
        let script = order_script(&instance, 6, 60);
        for name in PLANNER_NAMES {
            let mut pending = script.clone().into_iter().peekable();
            let direct = drive(&instance, name, |t, due| {
                while let Some(batch) = pending.next_if(|b| b.tick <= t) {
                    due.extend(batch.commands);
                }
            });

            let (tx, mut queue) = ServiceQueue::bounded(TENANT_QUEUE_CAP);
            let batches = script.clone();
            let threaded = std::thread::scope(|scope| {
                scope.spawn(move || {
                    for batch in batches {
                        if tx.send(batch).is_err() {
                            break;
                        }
                    }
                });
                drive(&instance, name, move |t, due| queue.drain_due(t, due))
            });

            assert_eq!(threaded.0, direct.0, "{name}: fingerprint");
            assert_eq!(threaded.1, direct.1, "{name}: ack stream");
            let count = |f: fn(&Ack) -> bool| direct.1.iter().filter(|a| f(a)).count();
            assert_eq!(count(|a| matches!(a, Ack::Accepted { .. })), 6, "{name}");
            assert_eq!(count(|a| matches!(a, Ack::Completed { .. })), 6, "{name}");
            assert_eq!(
                count(|a| matches!(a, Ack::SnapshotRequested { .. })),
                1,
                "{name}"
            );
        }
    }
}
