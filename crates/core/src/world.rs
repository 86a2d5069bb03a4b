//! The planner's per-timestamp observation of the warehouse.
//!
//! At every timestamp the validation system *"collects all idle robots and
//! racks containing remaining items as well as pickers' working status, then
//! executes the algorithm for path planning"* (Sec. VII-A). [`WorldView`]
//! is that snapshot: read-only borrows of the entity state plus the
//! pre-filtered idle-robot and selectable-rack lists.

use tprw_warehouse::{Picker, Rack, RackId, Robot, RobotId, Tick};

/// Read-only world snapshot handed to [`crate::planner::Planner::plan`].
#[derive(Debug)]
pub struct WorldView<'a> {
    /// Current timestamp.
    pub t: Tick,
    /// All racks, indexed by `RackId`.
    pub racks: &'a [Rack],
    /// All pickers, indexed by `PickerId`.
    pub pickers: &'a [Picker],
    /// All robots, indexed by `RobotId`.
    pub robots: &'a [Robot],
    /// Robots currently idle (available for pickup assignments).
    pub idle_robots: &'a [RobotId],
    /// Racks with pending items and no robot committed (`τ_r ≠ ∅` and no
    /// robot's phase names the rack).
    pub selectable_racks: &'a [RackId],
    /// Arrival (emergence) tick of every live-landed item, indexed by
    /// `item id − pregenerated item count` (live items are issued dense
    /// ids after the instance's item range). Together with the planner's
    /// own per-instance arrival table this covers the full item id space,
    /// so per-item lookups stay total under live ingestion. Empty for
    /// purely pregenerated runs.
    pub live_arrivals: &'a [Tick],
}

impl<'a> WorldView<'a> {
    /// The rack entity for `id`.
    #[inline]
    pub fn rack(&self, id: RackId) -> &'a Rack {
        &self.racks[id.index()]
    }

    /// The robot entity for `id`.
    #[inline]
    pub fn robot(&self, id: RobotId) -> &'a Robot {
        &self.robots[id.index()]
    }

    /// The picker serving `rack`.
    #[inline]
    pub fn picker_of(&self, rack: &Rack) -> &'a Picker {
        &self.pickers[rack.picker.index()]
    }

    /// Whether there is anything to plan at all this timestamp.
    #[inline]
    pub fn has_work(&self) -> bool {
        !self.idle_robots.is_empty() && !self.selectable_racks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tprw_warehouse::{GridPos, PickerId};

    fn tiny_world() -> (Vec<Rack>, Vec<Picker>, Vec<Robot>) {
        let pickers = vec![Picker::new(PickerId::new(0), GridPos::new(0, 4))];
        let mut rack = Rack::new(RackId::new(0), GridPos::new(2, 2), PickerId::new(0));
        rack.pending.push(tprw_warehouse::ItemId::new(0));
        rack.pending_time = 30;
        let robots = vec![Robot::new(RobotId::new(0), GridPos::new(1, 1))];
        (vec![rack], pickers, robots)
    }

    #[test]
    fn accessors_resolve_ids() {
        let (racks, pickers, robots) = tiny_world();
        let idle = [RobotId::new(0)];
        let selectable = [RackId::new(0)];
        let view = WorldView {
            t: 7,
            racks: &racks,
            pickers: &pickers,
            robots: &robots,
            idle_robots: &idle,
            selectable_racks: &selectable,
            live_arrivals: &[],
        };
        assert_eq!(view.rack(RackId::new(0)).home, GridPos::new(2, 2));
        assert_eq!(view.robot(RobotId::new(0)).pos, GridPos::new(1, 1));
        assert_eq!(
            view.picker_of(view.rack(RackId::new(0))).id,
            PickerId::new(0)
        );
        assert!(view.has_work());
    }

    #[test]
    fn no_work_when_lists_empty() {
        let (racks, pickers, robots) = tiny_world();
        let view = WorldView {
            t: 0,
            racks: &racks,
            pickers: &pickers,
            robots: &robots,
            idle_robots: &[],
            selectable_racks: &[RackId::new(0)],
            live_arrivals: &[],
        };
        assert!(!view.has_work());
    }
}
