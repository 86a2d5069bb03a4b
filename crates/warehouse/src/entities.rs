//! Warehouse entities: items, racks, pickers and robots (Definitions 1–3 of
//! the paper), including the dynamic state the simulator evolves and the
//! planners observe.

use crate::geometry::GridPos;
use crate::ids::{ItemId, PickerId, RackId, RobotId};
use crate::time::{Duration, Tick};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An item (a *task*): it emerges on rack `rack` at `arrival` and consumes
/// `processing` time units at the rack's picker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Item {
    /// Identifier.
    pub id: ItemId,
    /// The rack this item emerges on.
    pub rack: RackId,
    /// Emergence timestamp.
    pub arrival: Tick,
    /// Processing time at the picker (an element of the paper's `τ_r`).
    pub processing: Duration,
}

/// A rack `⟨l_r, τ_r, p_r⟩` (Definition 1) plus bookkeeping used by the
/// adaptive planners.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rack {
    /// Identifier.
    pub id: RackId,
    /// Home (storage) location `l_r`.
    pub home: GridPos,
    /// The fixed picker `p_r` this rack serves.
    pub picker: PickerId,
    /// Pending items `τ_r`: emerged, not yet dispatched with the rack.
    pub pending: Vec<ItemId>,
    /// Sum of processing times of `pending` (cached `Σ_{i∈τ_r} i`).
    pub pending_time: Duration,
    /// Accumulative processing time `ar_r` already spent on this rack's
    /// items (the RL state component of Sec. V-A).
    pub accum_processing: Duration,
}

impl Rack {
    /// A fresh rack at `home` served by `picker`.
    pub fn new(id: RackId, home: GridPos, picker: PickerId) -> Self {
        Self {
            id,
            home,
            picker,
            pending: Vec::new(),
            pending_time: 0,
            accum_processing: 0,
        }
    }

    /// Record the emergence of `item` on this rack.
    pub fn push_item(&mut self, item: &Item) {
        debug_assert_eq!(item.rack, self.id);
        self.pending.push(item.id);
        self.pending_time += item.processing;
    }

    /// Drain the currently pending items for dispatch, returning them and
    /// their total processing time. Called when a robot picks the rack up.
    pub fn take_pending(&mut self) -> (Vec<ItemId>, Duration) {
        let items = std::mem::take(&mut self.pending);
        let time = std::mem::replace(&mut self.pending_time, 0);
        (items, time)
    }

    /// Whether the rack has emerged items waiting (`τ_r ≠ ∅`).
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// An entry in a picker's FIFO queue: a delivered (or soon arriving) rack and
/// the total processing time of the items it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueEntry {
    /// The queued rack.
    pub rack: RackId,
    /// The robot carrying it.
    pub robot: RobotId,
    /// Total processing time of the rack's batched items.
    pub work: Duration,
}

/// A picker `⟨l_p, q_p, e_p⟩` (Definition 2). Racks are processed
/// first-come-first-serve.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Picker {
    /// Identifier.
    pub id: PickerId,
    /// Fixed station location `l_p`.
    pub pos: GridPos,
    /// FIFO queue `q_p` of racks waiting to be processed.
    pub queue: VecDeque<QueueEntry>,
    /// The rack being served; its `work` is the remaining processing time
    /// `e_p`, counted down in place.
    pub serving: Option<QueueEntry>,
    /// Accumulative processing time `ap` of this picker (RL state, Sec. V-A;
    /// also the PPR numerator, Eq. 6).
    pub accum_processing: Duration,
}

impl Picker {
    /// A fresh idle picker at `pos`.
    pub fn new(id: PickerId, pos: GridPos) -> Self {
        Self {
            id,
            pos,
            queue: VecDeque::new(),
            serving: None,
            accum_processing: 0,
        }
    }

    /// The finish time `f_p = e_p + Σ_{r∈q_p} Σ_{i∈τ_r} i` (Eq. 3): the
    /// delay until this picker has drained its current queue.
    pub fn finish_time(&self) -> Duration {
        let served = self.serving.iter().chain(&self.queue);
        served.map(|entry| entry.work).sum()
    }

    /// Append a delivered rack to the FIFO queue.
    pub fn enqueue(&mut self, entry: QueueEntry) {
        self.queue.push_back(entry);
    }

    /// Start serving the next queued rack, if idle and one is waiting.
    /// Returns the entry now being served.
    pub fn start_next(&mut self) -> Option<QueueEntry> {
        if self.serving.is_some() {
            return None;
        }
        self.serving = self.queue.pop_front();
        self.serving
    }

    /// Advance processing by one tick. Returns the served entry once its
    /// work ran out at the end of this tick; the picker is then idle.
    pub fn tick(&mut self) -> Option<QueueEntry> {
        let entry = self.serving.as_mut()?;
        if entry.work > 0 {
            entry.work -= 1;
            self.accum_processing += 1;
        }
        if entry.work > 0 {
            return None;
        }
        self.serving.take()
    }
}

/// The phase of a robot within the fulfilment cycle (Fig. 2): pickup →
/// delivery → queuing → processing → return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobotPhase {
    /// Parked, available for assignment.
    Idle,
    /// Travelling (empty) to pick up a rack.
    ToRack {
        /// Target rack.
        rack: RackId,
    },
    /// Carrying the rack to its picker's station.
    ToStation {
        /// Carried rack.
        rack: RackId,
    },
    /// Waiting in the picker's FIFO queue.
    Queuing {
        /// Carried rack.
        rack: RackId,
    },
    /// The rack is being processed by the picker.
    Processing {
        /// Carried rack.
        rack: RackId,
    },
    /// Carrying the rack back to its storage home.
    Returning {
        /// Carried rack.
        rack: RackId,
    },
}

impl RobotPhase {
    /// The rack involved in this phase, if any.
    #[inline]
    pub fn rack(self) -> Option<RackId> {
        match self {
            RobotPhase::Idle => None,
            RobotPhase::ToRack { rack }
            | RobotPhase::ToStation { rack }
            | RobotPhase::Queuing { rack }
            | RobotPhase::Processing { rack }
            | RobotPhase::Returning { rack } => Some(rack),
        }
    }

    /// Whether the robot counts as *busy* (Definition 3: any stage of the
    /// fulfilment cycle).
    #[inline]
    pub fn is_busy(self) -> bool {
        !matches!(self, RobotPhase::Idle)
    }

    /// Whether the robot is moving along a planned path in this phase.
    #[inline]
    pub fn is_travelling(self) -> bool {
        matches!(
            self,
            RobotPhase::ToRack { .. } | RobotPhase::ToStation { .. } | RobotPhase::Returning { .. }
        )
    }

    /// Whether the robot is in a station bay (queuing or processing), off
    /// the grid.
    #[inline]
    pub fn is_docked(self) -> bool {
        matches!(
            self,
            RobotPhase::Queuing { .. } | RobotPhase::Processing { .. }
        )
    }
}

/// A robot `⟨l_a, s_a⟩` (Definition 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Robot {
    /// Identifier.
    pub id: RobotId,
    /// Current location `l_a`.
    pub pos: GridPos,
    /// Current phase (the paper's busy/idle state, refined).
    pub phase: RobotPhase,
}

impl Robot {
    /// A fresh idle robot at `pos`.
    pub fn new(id: RobotId, pos: GridPos) -> Self {
        Self {
            id,
            pos,
            phase: RobotPhase::Idle,
        }
    }

    /// Whether the robot is available for a new assignment.
    #[inline]
    pub fn is_idle(&self) -> bool {
        !self.phase.is_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u32, rack: u32, arrival: Tick, processing: Duration) -> Item {
        Item {
            id: ItemId::new(id as usize),
            rack: RackId::new(rack as usize),
            arrival,
            processing,
        }
    }

    #[test]
    fn rack_accumulates_pending() {
        let mut r = Rack::new(RackId::new(0), GridPos::new(1, 1), PickerId::new(0));
        assert!(!r.has_pending());
        r.push_item(&item(0, 0, 5, 20));
        r.push_item(&item(1, 0, 6, 30));
        assert!(r.has_pending());
        assert_eq!(r.pending_time, 50);
        let (items, time) = r.take_pending();
        assert_eq!(items.len(), 2);
        assert_eq!(time, 50);
        assert!(!r.has_pending());
        assert_eq!(r.pending_time, 0);
    }

    fn entry(rack: usize, work: Duration) -> QueueEntry {
        QueueEntry {
            rack: RackId::new(rack),
            robot: RobotId::new(rack),
            work,
        }
    }

    #[test]
    fn picker_fifo_and_finish_time() {
        let mut p = Picker::new(PickerId::new(0), GridPos::new(0, 9));
        assert_eq!(p.finish_time(), 0);
        p.enqueue(entry(1, 10));
        p.enqueue(entry(2, 5));
        assert_eq!(p.finish_time(), 15);

        let first = p.start_next().unwrap();
        assert_eq!(first.rack, RackId::new(1), "FIFO order");
        assert_eq!(p.serving, Some(first));
        assert_eq!(p.finish_time(), 15, "e_p + queued work unchanged");

        // Cannot start another while busy.
        assert!(p.start_next().is_none());

        for _ in 0..9 {
            assert!(p.tick().is_none());
        }
        assert_eq!(p.tick().map(|e| e.rack), Some(RackId::new(1)));
        assert_eq!(p.serving, None, "finishes exactly at the 10th tick");
        assert_eq!(p.accum_processing, 10);

        let second = p.start_next().unwrap();
        assert_eq!(second.rack, RackId::new(2));
        assert_eq!(p.finish_time(), 5);
    }

    /// `f_p` (Eq. 3) is the served entry's remaining work plus the queued
    /// work at every tick of a serve, and falls by one per tick served.
    #[test]
    fn finish_time_is_served_plus_queued_work_through_a_serve() {
        let mut p = Picker::new(PickerId::new(0), GridPos::new(0, 9));
        p.enqueue(entry(1, 4));
        p.enqueue(entry(2, 3));
        p.start_next();
        p.enqueue(entry(3, 2));
        for left in (0..4).rev() {
            let before = p.finish_time();
            let done = p.tick();
            let served = p.serving.map_or(0, |e| e.work);
            let queued: Duration = p.queue.iter().map(|e| e.work).sum();
            assert_eq!(served, left);
            assert_eq!(queued, 5);
            assert_eq!(p.finish_time(), served + queued);
            assert_eq!(p.finish_time(), before - 1);
            assert_eq!(done.is_some(), left == 0);
        }
        assert_eq!(p.accum_processing, 4);
        assert_eq!(p.start_next().map(|e| e.rack), Some(RackId::new(2)));
        assert_eq!(p.finish_time(), 5);
    }

    #[test]
    fn picker_tick_idle_is_noop() {
        let mut p = Picker::new(PickerId::new(0), GridPos::new(0, 0));
        assert!(p.tick().is_none());
        assert_eq!(p.accum_processing, 0);
    }

    #[test]
    fn robot_phase_rack_and_busy() {
        let r = RackId::new(7);
        assert_eq!(RobotPhase::Idle.rack(), None);
        assert!(!RobotPhase::Idle.is_busy());
        for phase in [
            RobotPhase::ToRack { rack: r },
            RobotPhase::ToStation { rack: r },
            RobotPhase::Queuing { rack: r },
            RobotPhase::Processing { rack: r },
            RobotPhase::Returning { rack: r },
        ] {
            assert_eq!(phase.rack(), Some(r));
            assert!(phase.is_busy());
        }
        assert!(RobotPhase::ToRack { rack: r }.is_travelling());
        assert!(!RobotPhase::Queuing { rack: r }.is_travelling());
    }

    #[test]
    fn robot_idle_flag() {
        let mut a = Robot::new(RobotId::new(0), GridPos::new(2, 2));
        assert!(a.is_idle());
        a.phase = RobotPhase::ToRack {
            rack: RackId::new(0),
        };
        assert!(!a.is_idle());
    }
}
