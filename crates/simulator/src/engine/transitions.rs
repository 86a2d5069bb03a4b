//! Phases 1–3: items arrive, pickers serve their queues, and robots that
//! completed a leg get their next one — the arrival transitions popped
//! from the agenda, then one leg pass over the three pending-leg lists.

use super::{Engine, EngineState};
use crate::commands::Ack;
use eatp_core::planner::{LegRequest, Planner};
use tprw_pathfinding::Path;
use tprw_warehouse::{Item, ItemId, Picker, QueueEntry, RobotId, RobotPhase, Tick};

/// The three pending-leg lists, in the order one leg pass requests and
/// applies them: interrupted legs resume first (a robot frozen mid-aisle
/// blocks more traffic than one waiting at a rack home or station), then
/// delivery legs, then return legs.
#[derive(Debug, Clone, Copy)]
enum LegKind {
    /// `needs_replan`: legs cancelled by a disruption.
    Resume,
    /// `needs_delivery`: rack home → station.
    Delivery,
    /// `needs_return`: station → rack home.
    Return,
}

const LEG_KINDS: [LegKind; 3] = [LegKind::Resume, LegKind::Delivery, LegKind::Return];

impl LegKind {
    /// The pending list of this kind.
    fn pending(self, state: &mut EngineState) -> &mut Vec<RobotId> {
        match self {
            LegKind::Resume => &mut state.needs_replan,
            LegKind::Delivery => &mut state.needs_delivery,
            LegKind::Return => &mut state.needs_return,
        }
    }

    /// Whether robot `ai` still waits for a leg of this kind; an entry
    /// whose robot left the phase is stale and dropped before planning.
    fn waits(self, state: &EngineState, ai: usize) -> bool {
        let phase = state.robots[ai].phase;
        match self {
            LegKind::Resume => state.paths[ai].is_none() && phase.is_travelling(),
            LegKind::Delivery => matches!(phase, RobotPhase::ToRack { .. }),
            LegKind::Return => phase.is_docked(),
        }
    }

    /// The leg `robot`, a waiting robot, asks for.
    fn leg_request(self, state: &EngineState, robot: RobotId) -> LegRequest {
        let r = &state.robots[robot.index()];
        let rack = r.phase.rack().expect("a waiting robot holds a rack");
        let rack = &state.racks[rack.index()];
        let station = state.pickers[rack.picker.index()].pos;
        match (self, r.phase) {
            // Resumes keep the phase, so they head for the leg's own goal.
            (LegKind::Resume, RobotPhase::ToStation { .. }) => {
                LegRequest::new(robot, r.pos, station, false)
            }
            (LegKind::Resume, _) => LegRequest::new(robot, r.pos, rack.home, true),
            (LegKind::Delivery, _) => LegRequest::new(robot, rack.home, station, false),
            (LegKind::Return, _) => LegRequest {
                robot,
                from: station,
                to: rack.home,
                park: true,
                // One undock per station per tick keeps handoff cells
                // unambiguous.
                group: Some(rack.picker.index() as u32),
            },
        }
    }
}

impl Engine<'_> {
    /// Phase 1: items emerging at tick `t` land on their racks —
    /// pregenerated items first (instance order), then due backlog orders
    /// in `(arrival, order)` order. An instance's item list is sorted by
    /// arrival with dense ids in sorted order, so a live run submitting
    /// the same demand pre-tick-0 lands items in the identical sequence.
    pub(super) fn step_arrivals(&mut self, t: Tick) {
        while self.state.next_item < self.instance.items.len() {
            let item = &self.instance.items[self.state.next_item];
            if item.arrival > t {
                break;
            }
            self.state.racks[item.rack.index()].push_item(item);
            // Pregenerated items are orders submitted at tick 0; they land
            // exactly at their arrival tick (`t == item.arrival` here).
            self.state.total_order_age += t;
            self.state.next_item += 1;
            self.schedule.work_landed();
        }
        while self.state.backlog.first().is_some_and(|b| b.arrival <= t) {
            let b = self.state.backlog.remove(0);
            // Live items get dense ids after the pregenerated range, in
            // landing order; the order handle is kept for acks/cancels.
            let id = ItemId::new(self.instance.items.len() + self.state.live_item_orders.len());
            let item = Item {
                id,
                rack: b.rack,
                arrival: b.arrival,
                processing: b.processing,
            };
            self.state.racks[b.rack.index()].push_item(&item);
            self.state.live_item_orders.push(b.order);
            self.state.live_item_arrivals.push(b.arrival);
            self.state.total_order_age += t - b.submitted;
            self.schedule.work_landed();
        }
    }

    /// Phase 2: pickers serve their queues one tick.
    pub(super) fn step_picking(&mut self, t: Tick) {
        // No docked robot means every queue is empty and nothing is
        // mid-service (each queue entry and each served entry holds a robot
        // in `Queuing`/`Processing`), so the loop below would read every
        // picker and mutate none — skip it.
        if self.schedule.nobody_docked() {
            let idle = |p: &Picker| p.serving.is_none() && p.queue.is_empty();
            debug_assert!(self.state.pickers.iter().all(idle));
            return;
        }
        for pi in 0..self.state.pickers.len() {
            // A closed station pauses mid-rack: no processing, no queue
            // pops, no busy-tick accrual, until it reopens.
            if self.flags.closed[pi] {
                continue;
            }
            let picker = &mut self.state.pickers[pi];
            // Start the next rack if idle.
            if let Some(entry) = picker.start_next() {
                let robot = entry.robot.index();
                self.state.robots[robot].phase = RobotPhase::Processing { rack: entry.rack };
            }
            // Process one tick.
            let Some(served) = picker.serving else {
                continue;
            };
            self.state.racks[served.rack.index()].accum_processing += 1;
            if let Some(entry) = picker.tick() {
                let ai = entry.robot.index();
                self.state.items_processed += self.state.carried_items[ai] as usize;
                self.state.carried_items[ai] = 0;
                // Live orders riding on the batch are fulfilled now.
                let orders = self.state.carried_orders[ai].drain(..);
                let acks = orders.map(|order| Ack::Completed { order, tick: t });
                self.acks_out.extend(acks);
                self.state.needs_return.push(entry.robot);
            }
        }
    }

    /// Phase 3: robots that completed a leg receive the next one.
    pub(super) fn step_transitions(&mut self, t: Tick, planner: &mut dyn Planner) {
        // 3a. Arrivals. There is no fleet scan for ended paths: every path
        // installation pushed `(end, robot)` onto the agenda, so any robot
        // satisfying `transition_arrival`'s `arrived` predicate has a due
        // entry — except an arrived `ToRack` robot, which keeps its ended
        // path while it waits in the delivery pool for a leg and needs no
        // second wake. Robots are processed in ascending index order, since
        // arrival order is observable through picker-queue FIFO order.
        let due = self.schedule.take_due(t);
        // Completeness check: a full fleet scan finds no arrived robot the
        // agenda missed, bar the `ToRack` robots already waiting in the
        // delivery pool.
        #[cfg(debug_assertions)]
        for (ai, r) in self.state.robots.iter().enumerate() {
            let end = self.state.paths[ai].as_ref().map_or(Tick::MAX, |p| p.end());
            let awaits_delivery = matches!(r.phase, RobotPhase::ToRack { .. })
                && end < t
                && self.state.needs_delivery.contains(&r.id);
            debug_assert!(
                end > t || awaits_delivery || due.contains(&ai),
                "arrived robot {ai} missing from the arrival agenda"
            );
        }
        for &ai in &due {
            self.transition_arrival(ai, t, planner);
        }
        self.schedule.recycle_due(due);

        // 3b. One leg pass. Three empty pending lists mean the pass would
        // build zero requests and return — a provable no-op.
        let s = &self.state;
        if [&s.needs_replan, &s.needs_delivery, &s.needs_return]
            .iter()
            .any(|l| !l.is_empty())
        {
            self.step_legs(t, planner);
        }
    }

    /// One robot's leg-completion transition (the body of phase 3a).
    /// Checks the `arrived` predicate itself, so a stale agenda entry (the
    /// path was cancelled, or replaced by one still in flight) is a no-op.
    fn transition_arrival(&mut self, ai: usize, t: Tick, planner: &mut dyn Planner) {
        // Transitions run before this tick's movement phase, so sync the
        // position to the path's final cell — that is where the robot's
        // reservation says it stands at tick `t` (paths end with
        // `end() == t` here). Leaving the previous tick's position in
        // place would desynchronize the physical robot from its parked
        // reservation by one cell.
        match &self.state.paths[ai] {
            Some(p) if p.end() <= t => self.state.robots[ai].pos = p.last(),
            _ => return,
        }
        match self.state.robots[ai].phase {
            RobotPhase::ToRack { .. } => {
                let id = self.state.robots[ai].id;
                if !self.state.needs_delivery.contains(&id) {
                    self.state.needs_delivery.push(id);
                }
            }
            RobotPhase::ToStation { rack } => {
                // Dock: leave the grid, enqueue at the picker.
                let robot_id = self.state.robots[ai].id;
                planner.on_dock(robot_id);
                let picker = self.state.racks[rack.index()].picker;
                self.state.pickers[picker.index()].enqueue(QueueEntry {
                    rack,
                    robot: robot_id,
                    work: self.state.carried_work[ai],
                });
                self.state.carried_work[ai] = 0;
                self.state.robots[ai].phase = RobotPhase::Queuing { rack };
                self.state.paths[ai] = None;
                self.schedule.docked();
            }
            RobotPhase::Returning { rack } => {
                // Rack home again: fulfilment cycle complete. A robot idles
                // only here or on its spawn cell, the cells EATP's K-nearest
                // index lists (`docs/adr/ADR-025-knn-idle-cells.md`).
                debug_assert_eq!(
                    self.state.robots[ai].pos,
                    self.state.racks[rack.index()].home,
                    "a robot turned idle off its rack's home"
                );
                self.state.robots[ai].phase = RobotPhase::Idle;
                self.state.paths[ai] = None;
                self.state.last_return = self.state.last_return.max(t);
                self.state.rack_trips += 1;
                self.schedule.back_home(ai, rack);
            }
            _ => {}
        }
    }

    /// One batched leg pass ([`Planner::commit_legs`], planning each
    /// request in order) over the resume, delivery and return lists.
    /// Requests keep the lists' order, and the one-undock-per-station rule
    /// rides on [`LegRequest::group`]. Broken robots emit no requests —
    /// their entries wait for recovery.
    fn step_legs(&mut self, t: Tick, planner: &mut dyn Planner) {
        self.leg_requests.clear();
        for kind in LEG_KINDS {
            let mut pending = std::mem::take(kind.pending(&mut self.state));
            pending.retain(|&robot| kind.waits(&self.state, robot.index()));
            for &robot in &pending {
                if !self.flags.broken[robot.index()] {
                    self.leg_requests.push(kind.leg_request(&self.state, robot));
                }
            }
            *kind.pending(&mut self.state) = pending;
        }
        if self.leg_requests.is_empty() {
            return;
        }
        // No planner reads the tentative buffer (ADR-005), so an empty one
        // is passed and `query_legs` is never called.
        let results = &mut self.leg_results;
        let Ok(()) = planner.commit_legs(&self.leg_requests, t, &mut Vec::new(), results);
        debug_assert_eq!(self.leg_results.len(), self.leg_requests.len());

        let mut i = 0;
        for kind in LEG_KINDS {
            let mut pending = std::mem::take(kind.pending(&mut self.state));
            pending.retain(|&robot| {
                if self.flags.broken[robot.index()] {
                    return true; // no request was issued; waits for recovery
                }
                let (request, result) = (self.leg_requests[i], self.leg_results[i].take());
                i += 1;
                let Some(path) = result else {
                    return true; // blocked, or its station already undocked this tick
                };
                self.start_leg(kind, &request, path);
                false
            });
            *kind.pending(&mut self.state) = pending;
        }
        debug_assert_eq!(i, self.leg_requests.len());
    }

    /// Put the robot of `request` on its planned leg.
    fn start_leg(&mut self, kind: LegKind, request: &LegRequest, path: Path) {
        let ai = request.robot.index();
        let robot = &mut self.state.robots[ai];
        match (kind, robot.phase) {
            // The phase is preserved: the robot resumes its interrupted leg
            // and the arrival transition handles the rest.
            (LegKind::Resume, _) => {}
            (LegKind::Delivery, RobotPhase::ToRack { rack }) => {
                robot.phase = RobotPhase::ToStation { rack };
            }
            (LegKind::Return, RobotPhase::Processing { rack } | RobotPhase::Queuing { rack }) => {
                robot.phase = RobotPhase::Returning { rack };
                robot.pos = request.from;
                self.schedule.undocked();
            }
            _ => unreachable!("phase unchanged since the request was built"),
        }
        self.schedule.install_path(&mut self.state.paths, ai, path);
    }
}
