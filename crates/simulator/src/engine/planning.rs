//! Phase 4: the planner's per-timestamp selection and assignment, and
//! `dispatch`, which commits a robot to a rack.

use super::schedule::Schedule;
use super::Engine;
use eatp_core::planner::Planner;
use eatp_core::world::WorldView;
use tprw_pathfinding::Path;
use tprw_warehouse::{DisruptionFlags, Rack, RackId, Robot, RobotPhase, Tick};

impl Engine<'_> {
    /// Phase 4: the planner's per-timestamp selection + assignment.
    pub(super) fn step_planning(&mut self, t: Tick, planner: &mut dyn Planner) {
        // The dirty flags conservatively over-approximate the two offer
        // pools, so either being clear proves the scans below would find a
        // pool empty and return.
        let (state, flags, schedule) = (&self.state, &self.flags, &self.schedule);
        if !schedule.may_plan() {
            debug_assert!(
                schedule.flags_cover(
                    state.robots.iter().any(|r| assignable(flags, r)),
                    state.racks.iter().any(|r| offerable(flags, schedule, r)),
                ),
                "planning dirty flag cleared while its pool is populated"
            );
            return;
        }
        self.idle_buf.clear();
        let idle = state.robots.iter().filter(|r| assignable(flags, r));
        self.idle_buf.extend(idle.map(|r| r.id));
        self.selectable_buf.clear();
        let selectable = state.racks.iter().filter(|r| offerable(flags, schedule, r));
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
        };
        let Ok(plans) = planner.plan(&world);
        for plan in plans {
            let ai = plan.robot.index();
            debug_assert!(
                self.state.robots[ai].is_idle(),
                "planner assigned a busy robot"
            );
            debug_assert!(
                self.state.racks[plan.rack.index()].has_pending()
                    && !self.schedule.in_flight(plan.rack),
                "planner selected an unavailable rack"
            );
            if self.flags.broken[ai]
                || self.flags.closed[self.state.racks[plan.rack.index()].picker.index()]
                || self.flags.removed[plan.rack.index()]
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
        self.schedule.dispatched(ai, rack);
        self.schedule.install_path(&mut self.state.paths, ai, path);
    }
}

/// Whether robot `r` joins the idle pool: broken robots leave it until
/// they recover.
fn assignable(flags: &DisruptionFlags, r: &Robot) -> bool {
    r.is_idle() && !flags.broken[r.id.index()]
}

/// Whether rack `r` joins the selectable pool: it has pending items and no
/// robot is committed to it. Racks bound to a closed station are withheld
/// (no item is ever committed toward a picker that cannot serve it), as are
/// racks removed from the floor.
pub(super) fn offerable(flags: &DisruptionFlags, schedule: &Schedule, r: &Rack) -> bool {
    r.has_pending()
        && !schedule.in_flight(r.id)
        && !flags.closed[r.picker.index()]
        && !flags.removed[r.id.index()]
}
