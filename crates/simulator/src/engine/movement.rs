//! Phases 5–6: robots advance along their paths and the validator checks
//! the new positions; then metrics, checkpoints and the planner's
//! reservation GC.

use super::{is_docked, Engine, EngineState};
use crate::metrics::Checkpoint;
use eatp_core::planner::Planner;
use tprw_warehouse::{GridPos, RobotPhase, Tick};

/// Item-progress checkpoints sampled per run (the paper plots 10).
const CHECKPOINTS: usize = 10;

impl Engine<'_> {
    /// Phase 5: advance robots along their paths; validate positions.
    ///
    /// Under the clean certificate only the busy set and the robots that
    /// left it this tick are visited: a robot that left was moved to its
    /// path's last cell in phase 3, and every other robot is idle, holds no
    /// path and stands where the last scan saw it, clear of every other
    /// robot and every blocked cell. The validator takes those robots alone
    /// (`TrajectoryValidator::check_tick_delta`) and the tick falls back
    /// to the full check if they conflict. A dirty tick scans the fleet.
    pub(super) fn step_movement(&mut self, t: Tick) {
        let conflicts_before = self.state.validator.conflict_count();
        let violations_before = self.state.disruption_violations;
        let width = self.instance.grid.width();
        if self.schedule.is_clean() {
            self.touched_buf.clear();
            for ai in self.schedule.touched() {
                let pos = move_robot(&mut self.state, width, ai, t);
                self.touched_buf.push((self.state.robots[ai].id, pos));
            }
            #[cfg(debug_assertions)]
            let (full_check, full_violations) = self.full_scan_shadow(t);
            if !self
                .state
                .validator
                .check_tick_delta(t, &self.touched_buf, &self.instance.grid)
            {
                self.collect_on_grid();
                (self.state.validator).check_tick(t, &self.on_grid_buf, &self.instance.grid);
            }
            #[cfg(debug_assertions)]
            {
                debug_assert_eq!(
                    self.state.validator.export_snapshot(),
                    full_check,
                    "tick {t}: the delta check diverged from the full check"
                );
                debug_assert_eq!(
                    self.state.disruption_violations - violations_before,
                    full_violations,
                    "tick {t}: a robot outside the busy set stands on a blocked cell"
                );
            }
        } else {
            self.on_grid_buf.clear();
            for ai in 0..self.state.robots.len() {
                if let Some(pos) = move_robot(&mut self.state, width, ai, t) {
                    self.on_grid_buf.push((self.state.robots[ai].id, pos));
                }
            }
            (self.state.validator).check_tick(t, &self.on_grid_buf, &self.instance.grid);
        }
        // A conflict or violation between robots that stand still is pushed
        // again every tick, so only a clean tick certifies the next.
        self.schedule.movement_done(
            self.state.validator.conflict_count() == conflicts_before
                && self.state.disruption_violations == violations_before,
        );
    }

    /// Fill `on_grid_buf` with every robot's on-grid cell.
    fn collect_on_grid(&mut self) {
        let on_grid = self.state.robots.iter().filter(|r| !is_docked(r.phase));
        self.on_grid_buf.clear();
        self.on_grid_buf.extend(on_grid.map(|r| (r.id, r.pos)));
    }

    /// The full scan a clean movement tick replaces, run beside it once the
    /// touched robots have moved: the validator's snapshot after a full
    /// check from its pre-tick state, and the violations a fleet-wide count
    /// finds.
    #[cfg(debug_assertions)]
    fn full_scan_shadow(&mut self, t: Tick) -> (crate::validate::ValidatorSnapshot, usize) {
        debug_assert!(
            (0..self.state.robots.len())
                .all(|ai| self.state.paths[ai].is_none() || self.state.robots[ai].phase.is_busy()),
            "an idle robot holds a path"
        );
        self.collect_on_grid();
        let violations = self
            .on_grid_buf
            .iter()
            .filter(|&&(_, pos)| self.state.blocked_overlay[self.cell_index(pos)])
            .count();
        let mut full = crate::validate::TrajectoryValidator::new();
        full.import_snapshot(&self.state.validator.export_snapshot());
        full.check_tick(t, &self.on_grid_buf, &self.instance.grid);
        (full.export_snapshot(), violations)
    }

    /// Phase 6: metrics, checkpoints, reservation GC.
    pub(super) fn step_bookkeeping(&mut self, t: Tick, planner: &mut dyn Planner) {
        let mut transport = 0u64;
        let mut queuing = 0u64;
        let mut processing = 0u64;
        // Every counted phase is a busy phase, so only the busy set is
        // walked. `record_bottleneck` is still fed every tick — the zero
        // buckets it creates are part of the deterministic fingerprint.
        for ai in self.schedule.busy() {
            match self.state.robots[ai].phase {
                RobotPhase::ToRack { .. }
                | RobotPhase::ToStation { .. }
                | RobotPhase::Returning { .. } => transport += 1,
                RobotPhase::Queuing { .. } => queuing += 1,
                // A rack paused mid-processing by a station outage is
                // *waiting*, not processing — the Fig. 13 trace must not
                // report progress while the picker is away.
                RobotPhase::Processing { rack } => {
                    if self.state.closed[self.state.racks[rack.index()].picker.index()] {
                        queuing += 1;
                    } else {
                        processing += 1;
                    }
                }
                RobotPhase::Idle => {}
            }
        }
        self.state
            .metrics
            .record_bottleneck(t, self.bucket_width, transport, queuing, processing);

        // Backlog-depth watermark: pregenerated items not yet emerged plus
        // live backlog entries. Sampled after this tick's arrivals, so a
        // live run and its pregenerated equivalent agree at every tick.
        self.state.peak_backlog = self.state.peak_backlog.max(self.backlog_depth());

        // Item-progress checkpoints (the x-axes of Figs. 10-12). The
        // denominator is the live order book — submissions minus
        // cancellations — which for a pregenerated run is exactly the
        // instance's item count.
        let total_items = (self.state.orders_submitted - self.state.orders_cancelled) as usize;
        let threshold = (self.state.next_checkpoint * total_items) / CHECKPOINTS;
        if self.state.next_checkpoint <= CHECKPOINTS
            && self.state.items_processed >= threshold
            && threshold > 0
        {
            let stats = planner.stats();
            self.state.peak_memory = self.state.peak_memory.max(stats.memory_bytes);
            self.state.peak_scratch = self.state.peak_scratch.max(stats.scratch_bytes);
            let horizon = t.max(1);
            self.state.metrics.checkpoints.push(Checkpoint {
                items_processed: self.state.items_processed,
                t,
                ppr: self.ppr(horizon),
                rwr: self.state.metrics.rwr(horizon),
                stc_s: stats.selection_ns as f64 / 1e9,
                ptc_s: stats.planning_ns as f64 / 1e9,
                memory_bytes: stats.memory_bytes,
            });
            while self.state.next_checkpoint <= CHECKPOINTS
                && self.state.items_processed
                    >= (self.state.next_checkpoint * total_items) / CHECKPOINTS
            {
                self.state.next_checkpoint += 1;
            }
        }

        planner.housekeeping(t);
    }
}

/// Move robot `ai` to its tick-`t` cell, accrue its busy and processing
/// ticks, and count a violation if it stands on a blocked cell. Returns
/// its cell, or `None` while it is docked off the grid.
fn move_robot(state: &mut EngineState, width: u16, ai: usize, t: Tick) -> Option<GridPos> {
    if let Some(path) = &state.paths[ai] {
        state.robots[ai].pos = path.at(t);
    }
    let phase = state.robots[ai].phase;
    if phase.is_busy() {
        // Broken and outage-paused robots still count as *busy*
        // (Definition 3: committed to a fulfilment cycle — RWR's
        // denominator-side diagnostics should show the wasted time),
        // but the RWR numerator below only counts ticks the picker
        // actually works the rack.
        state.robots[ai].busy_ticks += 1;
        state.metrics.robot_busy_ticks[ai] += 1;
        if let RobotPhase::Processing { rack } = phase {
            if !state.closed[state.racks[rack.index()].picker.index()] {
                state.metrics.robot_processing_ticks[ai] += 1;
            }
        }
    }
    if is_docked(phase) {
        return None;
    }
    // Blockade invariant: no robot trajectory may occupy a
    // disruption-blocked cell after its blockade tick.
    let pos = state.robots[ai].pos;
    if state.blocked_overlay[pos.to_index(width)] {
        state.disruption_violations += 1;
    }
    Some(pos)
}
