//! The command-queue boundary of the order-stream ingestion service.
//!
//! Producers (order-entry front ends, operations tooling, the chaos
//! harness) talk to a running engine exclusively through typed
//! [`Command`]s. Commands are enqueued asynchronously but **applied
//! deterministically**: the engine drains the batch handed to
//! [`crate::Engine::tick_with_commands`] at phase 0 of the tick, in
//! canonical order — ascending [`SequencedCommand::seq`] — regardless of
//! the order producer threads happened to enqueue them. Two runs that
//! apply the same `(tick, seq, command)` triples are bit-identical, which
//! is the determinism contract `docs/order-stream.md` spells out and
//! the lattice (`tests/lattice.rs`) pins (a live-ingested run reproduces the
//! equivalent pregenerated [`tprw_warehouse::ScenarioSpec`] run exactly).
//!
//! Every applied command is answered with an [`Ack`]; completions of
//! live-submitted orders emit [`Ack::Completed`] when their items finish
//! processing. Acks are delivered to the caller of `tick_with_commands`
//! before the tick returns, so they are transient (never part of the
//! snapshot) — the backlog and the `next_command_seq` cursor are the
//! canonical ingestion state and travel with schema-v4 snapshots.

use serde::{Deserialize, Serialize};
use tprw_warehouse::{DisruptionEvent, Duration, OrderId, RackId, Tick};

/// A producer-side order request: which rack the demand lands on, how much
/// picker work it adds, and the earliest tick it may emerge. An order
/// submitted after its `arrival` tick emerges immediately (an order cannot
/// arrive in the past), which keeps replayed streams well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderSpec {
    /// Producer-chosen stable handle (used for cancellation and acks).
    pub order: OrderId,
    /// The rack the ordered item sits on.
    pub rack: RackId,
    /// Picker processing time the item adds to its rack's batch.
    pub processing: Duration,
    /// Earliest tick the item may emerge on its rack.
    pub arrival: Tick,
}

/// One accepted order waiting in the live backlog: canonical engine state
/// (snapshots carry the backlog verbatim). `arrival` is the
/// *effective* arrival — `max(requested arrival, submission tick)` — and
/// the backlog stays sorted by `(arrival, order)` so landing order is a
/// pure function of the accepted set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BacklogOrder {
    /// The order's stable handle.
    pub order: OrderId,
    /// Target rack.
    pub rack: RackId,
    /// Picker processing time.
    pub processing: Duration,
    /// Effective arrival tick (never before the submission tick).
    pub arrival: Tick,
    /// The tick the order was accepted (order-age accounting).
    pub submitted: Tick,
}

/// A command producers may enqueue against a running engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Submit a new order into the live backlog.
    SubmitOrder {
        /// The order to submit.
        spec: OrderSpec,
    },
    /// Withdraw an order that is still in the backlog. Orders whose item
    /// already landed on a rack are past the point of no return and are
    /// rejected with [`RejectReason::AlreadyLanded`].
    CancelOrder {
        /// The order to withdraw.
        order: OrderId,
    },
    /// Inject a disruption event, exactly as if it had been scheduled on
    /// the instance. The event is validated against the current world
    /// first (see [`RejectReason::InvalidDisruption`]) and then journaled
    /// like any scheduled event, so resume replays it faithfully.
    InjectDisruption {
        /// The event to apply.
        event: DisruptionEvent,
    },
    /// Ask the driving service to checkpoint after this tick. The engine
    /// only acknowledges — the service layer owns snapshot I/O.
    RequestSnapshot,
    /// Stop accepting new orders; the run completes once the backlog and
    /// the floor drain. Without a shutdown, a live engine keeps idling
    /// (waiting for more orders) until its tick budget runs out.
    Shutdown,
}

/// A [`Command`] stamped with its global sequence number. Sequence numbers
/// define the canonical apply order within a tick and the idempotency
/// cursor across resumes: commands with `seq` below the snapshot's
/// `next_command_seq` are silently skipped on redelivery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequencedCommand {
    /// Globally increasing sequence number (assigned at enqueue time).
    pub seq: u64,
    /// The command itself.
    pub command: Command,
}

/// Why a command was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The submitted order names a rack the instance does not have.
    UnknownRack,
    /// A shutdown was already accepted; no new orders are admitted.
    ShuttingDown,
    /// An order with this id is already known (backlogged or landed).
    DuplicateOrder,
    /// The cancelled order id was never accepted.
    UnknownOrder,
    /// The cancelled order's item already emerged on its rack.
    AlreadyLanded,
    /// The injected disruption is inconsistent with the current world
    /// (out-of-range id, nested disruption, blockade on a non-aisle cell).
    InvalidDisruption,
    /// The submitted order adds no picker work. A zero-work batch would
    /// never finish processing and would block its station's queue.
    ZeroProcessing,
}

/// An engine acknowledgement, delivered to the `tick_with_commands` caller
/// before the tick returns. Transient by design: acks are never part of
/// the snapshot (they have always been delivered by any tick boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ack {
    /// The order entered the backlog.
    Accepted {
        /// Sequence of the accepted command.
        seq: u64,
        /// The accepted order.
        order: OrderId,
        /// Apply tick.
        tick: Tick,
    },
    /// The command was refused; the world is unchanged.
    Rejected {
        /// Sequence of the rejected command.
        seq: u64,
        /// Why it was refused.
        reason: RejectReason,
        /// Apply tick.
        tick: Tick,
    },
    /// The order left the backlog before landing.
    Cancelled {
        /// Sequence of the cancelling command.
        seq: u64,
        /// The withdrawn order.
        order: OrderId,
        /// Apply tick.
        tick: Tick,
    },
    /// A live-submitted order's item finished processing at its picker.
    Completed {
        /// The fulfilled order.
        order: OrderId,
        /// The tick its rack's batch finished processing.
        tick: Tick,
    },
    /// The injected disruption was accepted (it may still defer, exactly
    /// like a scheduled event whose cell or rack is busy).
    Injected {
        /// Sequence of the injecting command.
        seq: u64,
        /// Apply tick.
        tick: Tick,
    },
    /// Snapshot request acknowledged; the service layer saves after this
    /// tick completes.
    SnapshotRequested {
        /// Sequence of the requesting command.
        seq: u64,
        /// Apply tick.
        tick: Tick,
    },
    /// Shutdown latched; the run completes once backlog and floor drain.
    ShutdownStarted {
        /// Sequence of the shutdown command.
        seq: u64,
        /// Apply tick.
        tick: Tick,
    },
}

impl Ack {
    /// The acknowledged command's sequence number (`None` for
    /// [`Ack::Completed`], which is order- rather than command-scoped).
    pub fn seq(&self) -> Option<u64> {
        match self {
            Ack::Accepted { seq, .. }
            | Ack::Rejected { seq, .. }
            | Ack::Cancelled { seq, .. }
            | Ack::Injected { seq, .. }
            | Ack::SnapshotRequested { seq, .. }
            | Ack::ShutdownStarted { seq, .. } => Some(*seq),
            Ack::Completed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequenced_command_roundtrips_through_binary_serde() {
        let cmds = vec![
            SequencedCommand {
                seq: 0,
                command: Command::SubmitOrder {
                    spec: OrderSpec {
                        order: OrderId::new(7),
                        rack: RackId::new(3),
                        processing: 12,
                        arrival: 40,
                    },
                },
            },
            SequencedCommand {
                seq: 1,
                command: Command::CancelOrder {
                    order: OrderId::new(7),
                },
            },
            SequencedCommand {
                seq: 2,
                command: Command::InjectDisruption {
                    event: DisruptionEvent::RobotBreakdown {
                        robot: tprw_warehouse::RobotId::new(2),
                    },
                },
            },
            SequencedCommand {
                seq: 3,
                command: Command::RequestSnapshot,
            },
            SequencedCommand {
                seq: 4,
                command: Command::Shutdown,
            },
        ];
        let bytes = serde::binary::to_bytes(&cmds.serialize());
        let value = serde::binary::from_bytes(&bytes).unwrap();
        let back = Vec::<SequencedCommand>::deserialize(&value).unwrap();
        assert_eq!(cmds, back);
    }

    #[test]
    fn acks_expose_their_sequence() {
        let a = Ack::Accepted {
            seq: 9,
            order: OrderId::new(1),
            tick: 4,
        };
        assert_eq!(a.seq(), Some(9));
        let c = Ack::Completed {
            order: OrderId::new(1),
            tick: 80,
        };
        assert_eq!(c.seq(), None);
        let r = Ack::Rejected {
            seq: 11,
            reason: RejectReason::DuplicateOrder,
            tick: 4,
        };
        assert_eq!(r.seq(), Some(11));
    }

    #[test]
    fn backlog_order_roundtrips() {
        let b = BacklogOrder {
            order: OrderId::new(5),
            rack: RackId::new(2),
            processing: 9,
            arrival: 33,
            submitted: 30,
        };
        let bytes = serde::binary::to_bytes(&b.serialize());
        let back = BacklogOrder::deserialize(&serde::binary::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(b, back);
    }
}
