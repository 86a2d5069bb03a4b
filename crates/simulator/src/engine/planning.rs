//! Phase 4: the planner's per-timestamp selection and assignment, and
//! `dispatch`, which commits a robot to a rack.

use super::{Engine, EngineState};
use eatp_core::planner::Planner;
use eatp_core::world::WorldView;
use tprw_pathfinding::Path;
use tprw_warehouse::{Rack, RackId, Robot, RobotPhase, Tick};

impl Engine<'_> {
    /// Phase 4: the planner's per-timestamp selection + assignment.
    pub(super) fn step_planning(&mut self, t: Tick, planner: &mut dyn Planner) {
        // The dirty flags conservatively over-approximate the two offer
        // pools, so either being clear proves the scans below would find a
        // pool empty and return.
        let state = &self.state;
        if !self.schedule.may_plan() {
            debug_assert!(
                self.schedule.flags_cover(
                    state.robots.iter().any(|r| assignable(state, r)),
                    state.racks.iter().any(|r| offerable(state, r)),
                ),
                "planning dirty flag cleared while its pool is populated"
            );
            return;
        }
        self.idle_buf.clear();
        let idle = state.robots.iter().filter(|r| assignable(state, r));
        self.idle_buf.extend(idle.map(|r| r.id));
        self.selectable_buf.clear();
        let selectable = state.racks.iter().filter(|r| offerable(state, r));
        self.selectable_buf.extend(selectable.map(|r| r.id));
        if self.idle_buf.is_empty() || self.selectable_buf.is_empty() {
            // The scans just computed the pools exactly, so a quiescent
            // floor stops rescanning until something re-dirties them.
            self.schedule
                .planning_scanned(!self.idle_buf.is_empty(), !self.selectable_buf.is_empty());
            return;
        }
        let world = WorldView {
            t,
            racks: &self.state.racks,
            pickers: &self.state.pickers,
            robots: &self.state.robots,
            idle_robots: &self.idle_buf,
            selectable_racks: &self.selectable_buf,
            live_arrivals: &self.state.live_item_arrivals,
            backlog_depth: self.backlog_depth(),
        };
        let Ok(plans) = planner.plan(&world);
        for plan in plans {
            let ai = plan.robot.index();
            debug_assert!(
                self.state.robots[ai].is_idle(),
                "planner assigned a busy robot"
            );
            debug_assert!(
                self.state.racks[plan.rack.index()].selectable(),
                "planner selected an unavailable rack"
            );
            if self.state.broken[ai]
                || self.state.closed[self.state.racks[plan.rack.index()].picker.index()]
                || self.state.removed[plan.rack.index()]
            {
                // The planner ignored the filtered world view: a broken
                // robot, a closed station's rack or a removed rack was
                // named. Count the violation and drop the plan (its
                // reservation leaks, but this path only exists to expose
                // planner bugs).
                self.state.disruption_violations += 1;
                continue;
            }
            self.dispatch(ai, plan.rack, plan.path);
        }
    }

    /// Commit robot `ai` to fetch `rack` along `path`. The batch is fixed at
    /// selection time `t_k` (Eq. 2's Σ_{i∈τ_r} is the pending set when the
    /// rack is selected): items that emerge while the rack is in flight wait
    /// for the next cycle. The live orders riding on the batch are
    /// remembered so completion acks can name them; pregenerated items (ids
    /// below the instance's item count) have no order handle to acknowledge.
    fn dispatch(&mut self, ai: usize, rack: RackId, path: Path) {
        let (items, work) = self.state.racks[rack.index()].take_pending();
        self.state.carried_work[ai] = work;
        self.state.carried_items[ai] = items.len() as u32;
        let pregenerated = self.instance.items.len();
        let live = items
            .iter()
            .filter_map(|id| id.index().checked_sub(pregenerated));
        let orders = &self.state.live_item_orders;
        self.state.carried_orders[ai].clear();
        self.state.carried_orders[ai].extend(live.map(|i| orders[i]));
        self.state.robots[ai].phase = RobotPhase::ToRack { rack };
        self.state.racks[rack.index()].in_flight = true;
        self.schedule.dispatched(ai);
        self.schedule.install_path(&mut self.state.paths, ai, path);
    }
}

/// Whether robot `r` joins the idle pool: broken robots leave it until
/// they recover.
fn assignable(state: &EngineState, r: &Robot) -> bool {
    r.is_idle() && !state.broken[r.id.index()]
}

/// Whether rack `r` joins the selectable pool: racks bound to a closed
/// station are withheld (no item is ever committed toward a picker that
/// cannot serve it), as are racks removed from the floor.
fn offerable(state: &EngineState, r: &Rack) -> bool {
    r.selectable() && !state.closed[r.picker.index()] && !state.removed[r.id.index()]
}
