//! Phase 0: the command batch, the disruption events due this tick and the
//! freeze cascade they trigger.
//!
//! The events phase replays `Instance::disruptions` (sorted, paired — see
//! `tprw_warehouse::events`) at the start of each tick, entirely without
//! randomness, so a disrupted run is as replayable as a static one:
//!
//! * **Breakdown** — the robot freezes at its current cell. Its active leg
//!   (if any) is cancelled: the planner releases the leg's reservations and
//!   parks the robot in its reservation structure, turning it into a static
//!   obstacle survivors route around. Its phase is preserved; a rack it
//!   carries stays on its back. While broken it leaves the idle pool and
//!   its pending delivery/return legs wait. **Recovery** re-queues the
//!   interrupted leg, replanned from the frozen position.
//! * **Blockade** — an aisle cell becomes impassable. Application *defers*
//!   while any on-grid robot stands on the cell (the blockade lands once
//!   the cell clears; a paired unblock withdraws a still-deferred
//!   blockade). On application the planner is notified (grid copy, distance
//!   oracle and KNN index all invalidate) and every active path
//!   that visits the cell at the current tick or later is cancelled. Each
//!   cancellation freezes its robot mid-route, which can invalidate
//!   *other* paths that planned to cross the now-occupied cell — the
//!   engine cascades until a fixpoint, then the frozen robots replan.
//! * **Station closure** — the picker pauses mid-rack (no processing, no
//!   queue pops) and the engine stops offering its racks to planners, so no
//!   item is committed toward a closed station. Robots already queuing stay
//!   queued; return legs still undock (leaving needs no picker). Reopening
//!   resumes the queue where it stopped.
//! * **Rack removal** — the rack leaves the floor: it is withheld from
//!   selection and planners drop it from their K-nearest indexes (a
//!   liveness change folded in by the incremental `KNearestRacks::update`
//!   on the next read). Application *defers*
//!   while the rack is in flight — a robot fetching, carrying or returning
//!   it finishes its cycle first — and a restore withdraws a still-deferred
//!   removal. Items that arrive on a removed rack accumulate and wait.

use super::{is_docked, Engine};
use crate::commands::{Ack, BacklogOrder, Command, RejectReason, SequencedCommand};
use eatp_core::planner::{Planner, PlannerEvent};
use tprw_warehouse::{CellKind, DisruptionEvent, GridPos, RackId, Tick, TimedEvent};

impl Engine<'_> {
    /// Apply `commands` in ascending sequence order, skipping those below
    /// the idempotency cursor (already applied before a snapshot).
    pub(super) fn apply_commands(
        &mut self,
        commands: &mut [SequencedCommand],
        t: Tick,
        planner: &mut dyn Planner,
    ) {
        commands.sort_by_key(|c| c.seq);
        for cmd in commands.iter() {
            if cmd.seq < self.state.next_command_seq {
                continue; // already applied before the snapshot
            }
            self.state.next_command_seq = cmd.seq + 1;
            self.apply_command(cmd.seq, &cmd.command, t, planner);
        }
    }

    /// Apply one command at tick `t`, pushing its acknowledgement.
    fn apply_command(&mut self, seq: u64, command: &Command, t: Tick, planner: &mut dyn Planner) {
        let ack = match command {
            Command::SubmitOrder { spec } => {
                if self.state.shutdown {
                    Err(RejectReason::ShuttingDown)
                } else if spec.rack.index() >= self.state.racks.len() {
                    Err(RejectReason::UnknownRack)
                } else if spec.processing == 0 {
                    Err(RejectReason::ZeroProcessing)
                } else if self.state.backlog.iter().any(|b| b.order == spec.order)
                    || self.state.live_item_orders.contains(&spec.order)
                {
                    Err(RejectReason::DuplicateOrder)
                } else {
                    let entry = BacklogOrder {
                        order: spec.order,
                        rack: spec.rack,
                        processing: spec.processing,
                        // An order cannot arrive in the past: the effective
                        // arrival is clamped to the submission tick, keeping
                        // the backlog's `(arrival, order)` sort meaningful.
                        arrival: spec.arrival.max(t),
                        submitted: t,
                    };
                    let at = self
                        .state
                        .backlog
                        .partition_point(|b| (b.arrival, b.order) < (entry.arrival, entry.order));
                    self.state.backlog.insert(at, entry);
                    self.state.orders_submitted += 1;
                    Ok(Ack::Accepted {
                        seq,
                        order: spec.order,
                        tick: t,
                    })
                }
            }
            Command::CancelOrder { order } => {
                if let Some(at) = self.state.backlog.iter().position(|b| b.order == *order) {
                    self.state.backlog.remove(at);
                    self.state.orders_cancelled += 1;
                    Ok(Ack::Cancelled {
                        seq,
                        order: *order,
                        tick: t,
                    })
                } else if self.state.live_item_orders.contains(order) {
                    Err(RejectReason::AlreadyLanded)
                } else {
                    Err(RejectReason::UnknownOrder)
                }
            }
            Command::InjectDisruption { event } => {
                if self.injection_is_valid(*event) {
                    self.schedule.world_dirtied();
                    self.apply_event(*event, t, planner);
                    Ok(Ack::Injected { seq, tick: t })
                } else {
                    Err(RejectReason::InvalidDisruption)
                }
            }
            Command::RequestSnapshot => Ok(Ack::SnapshotRequested { seq, tick: t }),
            Command::Shutdown => {
                self.state.shutdown = true;
                Ok(Ack::ShutdownStarted { seq, tick: t })
            }
        };
        let ack = ack.unwrap_or_else(|reason| {
            self.state.orders_rejected += 1;
            Ack::Rejected {
                seq,
                reason,
                tick: t,
            }
        });
        self.acks_out.push(ack);
    }

    /// Whether an injected disruption is consistent with the current
    /// world. Scheduled streams guarantee this by construction
    /// (`validate_events`); injected ones are checked here so a confused
    /// producer cannot corrupt engine invariants (nested disruptions,
    /// blockades on storage cells, out-of-range ids).
    fn injection_is_valid(&self, event: DisruptionEvent) -> bool {
        let state = &self.state;
        match event {
            DisruptionEvent::RobotBreakdown { robot } => {
                state.broken.get(robot.index()) == Some(&false)
            }
            DisruptionEvent::RobotRecover { robot } => {
                state.broken.get(robot.index()) == Some(&true)
            }
            DisruptionEvent::CellBlocked { pos } => {
                self.instance.grid.in_bounds(pos)
                    && self.instance.grid.kind(pos) == CellKind::Aisle
                    && !state.blocked_overlay[self.cell_index(pos)]
                    && !state.deferred_blockades.contains(&pos)
            }
            DisruptionEvent::CellUnblocked { pos } => {
                self.instance.grid.in_bounds(pos)
                    && (state.blocked_overlay[self.cell_index(pos)]
                        || state.deferred_blockades.contains(&pos))
            }
            DisruptionEvent::StationClosed { picker } => {
                state.closed.get(picker.index()) == Some(&false)
            }
            DisruptionEvent::StationReopened { picker } => {
                state.closed.get(picker.index()) == Some(&true)
            }
            DisruptionEvent::RackRemoved { rack } => {
                state.removed.get(rack.index()) == Some(&false)
                    && !state.deferred_removals.contains(&rack)
            }
            DisruptionEvent::RackRestored { rack } => {
                state.removed.get(rack.index()) == Some(&true)
                    || state.deferred_removals.contains(&rack)
            }
        }
    }

    /// Phase 0: replay disruption events due at tick `t` (plus any deferred
    /// blockades whose cell has cleared).
    pub(super) fn step_events(&mut self, t: Tick, planner: &mut dyn Planner) {
        let schedule = &self.instance.disruptions;
        let due = |next: usize| schedule.get(next).filter(|ev| ev.t <= t).copied();
        if due(self.state.next_event).is_none()
            && self.state.deferred_blockades.is_empty()
            && self.state.deferred_removals.is_empty()
        {
            return;
        }
        // Anything landing below may change phases, planning inputs or the
        // blockade overlay — every skip precondition dirties.
        self.schedule.world_dirtied();
        // Deferred blockades and removals land first, in original order.
        let mut blockades = std::mem::take(&mut self.state.deferred_blockades);
        blockades.retain(|&pos| !self.try_block_cell(pos, t, planner));
        self.state.deferred_blockades = blockades;
        let mut removals = std::mem::take(&mut self.state.deferred_removals);
        removals.retain(|&rack| !self.try_remove_rack(rack, t, planner));
        self.state.deferred_removals = removals;
        while let Some(ev) = due(self.state.next_event) {
            self.state.next_event += 1;
            self.apply_event(ev.event, t, planner);
        }
    }

    fn apply_event(&mut self, event: DisruptionEvent, t: Tick, planner: &mut dyn Planner) {
        match event {
            DisruptionEvent::RobotBreakdown { robot } => {
                let ai = robot.index();
                if self.state.broken[ai] {
                    return; // defensive: validated schedules never nest
                }
                self.state.broken[ai] = true;
                self.record_applied(event, t, planner);
                // A robot travelling a live leg freezes mid-route; its
                // frozen cell may invalidate other planned paths.
                if self.state.paths[ai].as_ref().is_some_and(|p| p.end() >= t) {
                    self.freeze_queue.clear();
                    self.freeze_robot(ai, t, planner);
                    self.run_freeze_cascade(t, planner);
                }
            }
            DisruptionEvent::RobotRecover { robot } => {
                let ai = robot.index();
                if !self.state.broken[ai] {
                    return;
                }
                self.state.broken[ai] = false;
                self.record_applied(event, t, planner);
                // Mid-route robots (frozen, no path) resume via replan;
                // robots waiting at a rack home or in a station bay resume
                // through their pending lists instead.
                let id = self.state.robots[ai].id;
                if self.state.robots[ai].phase.is_travelling()
                    && self.state.paths[ai].is_none()
                    && !self.state.needs_delivery.contains(&id)
                    && !self.state.needs_replan.contains(&id)
                {
                    self.state.needs_replan.push(id);
                }
            }
            DisruptionEvent::CellBlocked { pos } => {
                if !self.try_block_cell(pos, t, planner) {
                    self.state.events_deferred += 1;
                    self.state.deferred_blockades.push(pos);
                }
            }
            DisruptionEvent::CellUnblocked { pos } => {
                // A blockade still waiting for its cell is simply withdrawn.
                let idx = self.cell_index(pos);
                if let Some(i) = self.state.deferred_blockades.iter().position(|&p| p == pos) {
                    self.state.deferred_blockades.remove(i);
                } else if std::mem::take(&mut self.state.blocked_overlay[idx]) {
                    self.record_applied(event, t, planner);
                }
            }
            DisruptionEvent::StationClosed { picker }
            | DisruptionEvent::StationReopened { picker } => {
                let closing = matches!(event, DisruptionEvent::StationClosed { .. });
                if self.state.closed[picker.index()] != closing {
                    self.state.closed[picker.index()] = closing;
                    self.record_applied(event, t, planner);
                }
            }
            DisruptionEvent::RackRemoved { rack } => {
                if !self.try_remove_rack(rack, t, planner) {
                    self.state.events_deferred += 1;
                    self.state.deferred_removals.push(rack);
                }
            }
            DisruptionEvent::RackRestored { rack } => {
                // A removal still waiting for its rack is simply withdrawn.
                if let Some(i) = self.state.deferred_removals.iter().position(|&r| r == rack) {
                    self.state.deferred_removals.remove(i);
                } else if std::mem::take(&mut self.state.removed[rack.index()]) {
                    self.record_applied(event, t, planner);
                }
            }
        }
    }

    /// An event landed at tick `t`: count it, journal it (the journal is what
    /// a resume replays into the fresh planner) and tell the planner.
    fn record_applied(&mut self, event: DisruptionEvent, t: Tick, planner: &mut dyn Planner) {
        self.state.events_applied += 1;
        self.state.journal.push(TimedEvent { t, event });
        planner.on_event(PlannerEvent::Disruption { event: &event, t });
    }

    /// Apply a rack removal unless the rack is in flight (a robot is
    /// fetching, carrying or returning it — the caller then defers it).
    /// Pending items stay on the rack and wait for its restoration.
    fn try_remove_rack(&mut self, rack: RackId, t: Tick, planner: &mut dyn Planner) -> bool {
        let ri = rack.index();
        if self.state.racks[ri].in_flight {
            return false;
        }
        debug_assert!(!self.state.removed[ri], "schedules alternate per rack");
        self.state.removed[ri] = true;
        self.record_applied(DisruptionEvent::RackRemoved { rack }, t, planner);
        true
    }

    /// Apply a blockade to `pos` unless an on-grid robot stands there (the
    /// caller then defers it). On application, every active path visiting
    /// the cell from `t` onward is cancelled via the freeze cascade.
    fn try_block_cell(&mut self, pos: GridPos, t: Tick, planner: &mut dyn Planner) -> bool {
        if self
            .state
            .robots
            .iter()
            .any(|r| r.pos == pos && !is_docked(r.phase))
        {
            return false;
        }
        let idx = self.cell_index(pos);
        debug_assert!(
            !self.state.blocked_overlay[idx],
            "schedules alternate per cell"
        );
        self.state.blocked_overlay[idx] = true;
        self.record_applied(DisruptionEvent::CellBlocked { pos }, t, planner);
        self.freeze_queue.clear();
        self.freeze_queue.push(pos);
        self.run_freeze_cascade(t, planner);
        true
    }

    /// Cancel `ai`'s active path: the robot stops at its current cell, the
    /// planner releases the leg's reservations and re-parks the robot as a
    /// static obstacle. Healthy robots queue for replanning; the frozen
    /// cell joins the cascade queue because paths planned to cross it later
    /// are now invalid.
    fn freeze_robot(&mut self, ai: usize, t: Tick, planner: &mut dyn Planner) {
        if self.state.paths[ai].is_none() {
            return;
        }
        self.state.paths[ai] = None;
        let pos = self.state.robots[ai].pos;
        let id = self.state.robots[ai].id;
        planner.on_event(PlannerEvent::PathCancelled { robot: id, pos, t });
        if !self.state.broken[ai] && !self.state.needs_replan.contains(&id) {
            self.state.needs_replan.push(id);
        }
        self.freeze_queue.push(pos);
    }

    /// Drain the cascade queue: for each newly unavailable cell, cancel
    /// every active path that visits it at tick `t` or later. Each
    /// cancellation freezes one more robot (adding its cell to the queue),
    /// so the loop reaches a fixpoint after at most one pass per robot.
    fn run_freeze_cascade(&mut self, t: Tick, planner: &mut dyn Planner) {
        while let Some(pos) = self.freeze_queue.pop() {
            for ai in 0..self.state.robots.len() {
                let crosses = self.state.paths[ai].as_ref().is_some_and(|p| {
                    p.end() >= t && p.iter_timed().any(|(tick, c)| tick >= t && c == pos)
                });
                if crosses {
                    self.freeze_robot(ai, t, planner);
                }
            }
        }
    }
}
