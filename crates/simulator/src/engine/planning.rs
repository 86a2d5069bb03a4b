//! Phase 4: the planner's per-timestamp selection and assignment, the
//! engine's greedy fallback for degraded ticks, and `dispatch`, which
//! commits a robot to a rack.

use super::{inject_due, is_docked, Engine, EngineState};
use eatp_core::planner::{LegRequest, Planner};
use eatp_core::world::WorldView;
use tprw_pathfinding::Path;
use tprw_warehouse::{Rack, RackId, Robot, RobotPhase, Tick};

impl Engine<'_> {
    /// Phase 4: the planner's per-timestamp selection + assignment.
    pub(super) fn step_planning(&mut self, t: Tick, planner: &mut dyn Planner) {
        // The dirty flags conservatively over-approximate the two offer
        // pools, so either being clear proves the scans below would find a
        // pool empty and return — *before* touching the degradation latch or
        // the decision-fault cursor, which is what keeps this skip exact
        // under chaos regimes too.
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
        // A budget overrun on the previous planning tick degrades this one
        // pre-emptively: the primary planner is skipped outright.
        if self.state.degrade_next {
            self.state.degrade_next = false;
            self.state.degraded_ticks += 1;
            self.state.recover_next = true;
            self.greedy_fallback(t, planner);
            return;
        }
        // Decision faults are consumed only by a tick that actually plans,
        // so an armed fault always fires within the tick that armed it.
        let cursor = &mut self.state.next_decision_fault;
        inject_due(planner, &self.fault_plan.decision, cursor, t);
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
        // The real (non-injected) budget check measures the A* expansions
        // this `plan()` call performs — a deterministic proxy for its cost
        // (wall-clock would make degradation nondeterministic). Faults-off
        // runs with no budget never call `stats()` here.
        let budget = if self.config.degradation.enabled {
            self.config.degradation.max_expansions_per_tick
        } else {
            0
        };
        let expansions_before = if budget > 0 {
            planner.stats().expansions
        } else {
            0
        };
        let plans = match planner.plan(&world) {
            Ok(plans) => plans,
            Err(_e) => {
                // The planner failed before committing any reservation.
                // Degrade the tick to the greedy fallback (or, with
                // degradation off, just lose this tick's planning phase)
                // and restore the primary planner next tick.
                self.state.planner_errors += 1;
                if self.config.degradation.enabled {
                    self.state.degraded_ticks += 1;
                    self.state.recover_next = true;
                    self.greedy_fallback(t, planner);
                }
                return;
            }
        };
        if budget > 0 {
            let used = planner.stats().expansions.saturating_sub(expansions_before);
            if used > budget {
                self.state.degrade_next = true;
            }
        }
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

    /// The degradation fallback: NTP-style nearest assignment, run by the
    /// engine itself so it cannot depend on the failed planner's selection
    /// machinery. For each selectable rack (engine offer order) it applies
    /// the planners' parked-home rule — an idle robot standing on the rack
    /// home must take the job itself — then falls back to the closest
    /// unused idle robot by `(manhattan, id)`. Pickup legs still go through
    /// [`Planner::commit_legs`], the same reservation-backed path the
    /// per-tick leg pass uses, so fallback trajectories stay
    /// conflict-checked like any other.
    fn greedy_fallback(&mut self, t: Tick, planner: &mut dyn Planner) {
        let idle = std::mem::take(&mut self.idle_buf);
        let selectable = std::mem::take(&mut self.selectable_buf);
        let mut used = vec![false; self.state.robots.len()];
        let mut assigned = 0usize;
        for &rid in &selectable {
            if assigned >= idle.len() {
                break;
            }
            let ri = rid.index();
            let home = self.state.racks[ri].home;
            // Parked-home rule. A non-idle on-grid robot on the home cell
            // (frozen or passing) makes the rack unservable this tick.
            let chosen = if let Some(&a) = idle
                .iter()
                .find(|&&a| self.state.robots[a.index()].pos == home)
            {
                if used[a.index()] {
                    continue; // the parked robot already took a rack
                }
                Some(a)
            } else if self
                .state
                .robots
                .iter()
                .any(|r| r.pos == home && !r.is_idle() && !is_docked(r.phase))
            {
                continue;
            } else {
                idle.iter()
                    .copied()
                    .filter(|a| !used[a.index()])
                    .min_by_key(|a| {
                        let pos = self.state.robots[a.index()].pos;
                        (pos.manhattan(home), a.index())
                    })
            };
            let Some(robot_id) = chosen else {
                continue;
            };
            let ai = robot_id.index();
            let from = self.state.robots[ai].pos;
            self.leg_requests.clear();
            self.leg_requests
                .push(LegRequest::new(robot_id, from, home, true));
            let results = &mut self.leg_results;
            if planner
                .commit_legs(&self.leg_requests, t, &mut Vec::new(), results)
                .is_err()
            {
                self.state.planner_errors += 1;
                continue;
            }
            let Some(path) = self.leg_results.first_mut().and_then(|r| r.take()) else {
                continue; // blocked; the rack waits for the next tick
            };
            self.dispatch(ai, rid, path);
            used[ai] = true;
            assigned += 1;
            self.state.fallback_assignments += 1;
        }
        self.idle_buf = idle;
        self.selectable_buf = selectable;
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
