//! The discrete-time simulation engine.
//!
//! Each tick executes the full fulfilment cycle of Fig. 2:
//!
//! 0. **events** — due disruption events mutate the world: robots break
//!    down or recover, aisle cells blockade or reopen, stations close or
//!    resume, racks leave or return the floor;
//! 1. **arrivals** — items emerge on their racks;
//! 2. **picking** — pickers serve their FIFO queues; finished racks free
//!    their robots for the return leg;
//! 3. **leg transitions** — robots that completed a leg get their next one
//!    (pickup → delivery → dock/queue; processed → return; returned → idle);
//! 4. **planning** — the planner observes the world and assigns idle robots
//!    to selected racks (the paper's per-timestamp `U_t`);
//! 5. **movement** — robots advance along reserved paths; positions are
//!    re-validated for conflicts;
//! 6. **bookkeeping** — metrics, checkpoints, reservation GC.
//!
//! One module per phase group: `events` (phase 0, with the command batch
//! and each disruption kind's semantics), `transitions` (1–3), `planning`
//! (4) and `movement` (5–6). The derived structures they consult live in
//! `schedule` (`docs/adr/ADR-016-phase-modules.md`).
//!
//! Stations are modelled with a handoff cell plus an off-grid bay: a robot
//! *docks* (leaves the grid) when its delivery path reaches the station cell
//! and *undocks* when its return path is planned. This matches the paper's
//! time-based queuing model (Eq. 2) without inventing queue-lane geometry —
//! queue capacity is unbounded, order is FIFO (Definition 2).
//!
//! Disruption events replay [`Instance::disruptions`] without randomness,
//! so a disrupted run is as replayable as a static one. Every tick the
//! engine additionally counts any robot standing on a
//! blockaded cell and any plan naming a broken robot, a closed station's
//! rack or a removed rack into
//! [`SimulationReport::disruption_violations`] — the invariant tests pin
//! this to zero.

mod events;
mod movement;
mod planning;
mod schedule;
mod transitions;

use crate::commands::{Ack, BacklogOrder, SequencedCommand};
use crate::metrics::{self, MetricsSnapshot};
use crate::report::SimulationReport;
use crate::validate::TrajectoryValidator;
use eatp_core::planner::{LegRequest, Planner, PlannerEvent};
use schedule::Schedule;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::Path;
use tprw_warehouse::{
    Duration, GridPos, Instance, OrderId, Picker, QueueEntry, Rack, RackId, Robot, RobotId, Tick,
    TimedEvent,
};

/// Item-progress checkpoints sampled per run (the paper plots 10).
pub(crate) const CHECKPOINTS: usize = 10;

/// Engine knobs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Hard tick budget; `0` derives `128 × (last arrival + HW)` — generous
    /// enough for every planner yet finite on livelock.
    pub max_ticks: Tick,
    /// Bottleneck trace bucket width in ticks; `0` derives 1/40 of the
    /// expected horizon.
    pub bottleneck_bucket: Tick,
    /// Live-ingestion mode: the run is fed orders through
    /// [`Engine::tick_with_commands`] and only completes once a
    /// [`Command::Shutdown`](crate::commands::Command::Shutdown) has been
    /// accepted *and* the backlog and floor have drained. Off (the
    /// default), completion keeps its pregenerated semantics: the run ends
    /// when the instance's item list is fulfilled.
    pub live: bool,
}

impl EngineConfig {
    /// Start an [`EngineConfigBuilder`] (preferred over filling the pub
    /// fields by hand).
    pub fn builder() -> EngineConfigBuilder {
        EngineConfig::default().into_builder()
    }

    /// Re-open an existing config for amendment.
    pub fn into_builder(self) -> EngineConfigBuilder {
        EngineConfigBuilder { config: self }
    }
}

/// Builder for [`EngineConfig`]: the same knobs as the struct literal.
/// The struct literal (and `..Default::default()`) keeps working for
/// existing call sites; new call sites should prefer the builder.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Hard tick budget (`0` derives a generous instance-sized budget).
    pub fn max_ticks(mut self, ticks: Tick) -> Self {
        self.config.max_ticks = ticks;
        self
    }

    /// Bottleneck trace bucket width in ticks (`0` derives).
    pub fn bottleneck_bucket(mut self, width: Tick) -> Self {
        self.config.bottleneck_bucket = width;
        self
    }

    /// Live order-ingestion mode.
    pub fn live(mut self, on: bool) -> Self {
        self.config.live = on;
        self
    }

    /// Produce the config. No knob combination is contradictory, so this
    /// cannot fail; the `Result` stays because the frozen `benchmark/`
    /// package calls `.build().expect(..)`.
    pub fn build(self) -> Result<EngineConfig, std::convert::Infallible> {
        Ok(self.config)
    }
}

/// Execute `planner` on `instance` until all items are fulfilled (or the
/// tick budget runs out).
pub fn run_simulation(
    instance: &Instance,
    planner: &mut dyn Planner,
    config: &EngineConfig,
) -> SimulationReport {
    let mut engine = Engine::new(instance, config);
    engine.start(planner);
    engine.run_to_completion(planner);
    engine.report(planner)
}

/// The canonical (checkpoint-persisted) state of a mid-run [`Engine`]: every
/// field a resumed engine cannot re-derive from the instance and config.
/// The engine owns exactly one of these and every tick phase mutates it in
/// place, so it is current at every tick boundary; *derived* state is what
/// [`Engine`] holds beside it (see `docs/snapshot-format.md`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineState {
    /// Current tick (the next `tick_once` executes this tick).
    pub t: Tick,
    /// All items fulfilled and the fleet idle.
    pub completed: bool,
    /// The run has ended (completion or tick-budget exhaustion).
    pub finished: bool,
    /// Every disruption event actually applied so far, at its application
    /// tick (deferred events appear when they land, not when scheduled);
    /// never truncated, so its length is the applied-event count.
    /// Replayed through [`Planner::on_event`] on resume to rebuild the
    /// planner's derived world model (grid overlay, oracle).
    pub journal: Vec<TimedEvent>,
    pub racks: Vec<Rack>,
    pub pickers: Vec<Picker>,
    pub robots: Vec<Robot>,
    /// Active timed path per robot.
    pub paths: Vec<Option<Path>>,
    /// Work batched on the carried rack, per robot.
    pub carried_work: Vec<Duration>,
    /// Items batched on the carried rack, per robot.
    pub carried_items: Vec<u32>,
    /// Entry currently being served per picker.
    pub serving: Vec<Option<QueueEntry>>,
    /// Robots whose rack finished processing, awaiting a return path.
    pub needs_return: Vec<RobotId>,
    /// Robots parked at a rack home waiting for a delivery path.
    pub needs_delivery: Vec<RobotId>,
    /// Robots whose active leg was cancelled by a disruption (breakdown
    /// recovery, blockade invalidation), awaiting a fresh path from their
    /// frozen position.
    pub needs_replan: Vec<RobotId>,
    /// Per-robot broken flag (disruption breakdowns).
    pub broken: Vec<bool>,
    /// Per-picker closed flag (station outages).
    pub closed: Vec<bool>,
    /// Per-rack removed flag (racks taken off the floor).
    pub removed: Vec<bool>,
    /// Per-cell disruption-blockade overlay (static grid walls excluded).
    pub blocked_overlay: Vec<bool>,
    /// Cursor into the instance's sorted disruption schedule.
    pub next_event: usize,
    /// Blockades whose cell was occupied at their scheduled tick; they land
    /// as soon as the cell clears (or are withdrawn by their unblock).
    pub deferred_blockades: Vec<GridPos>,
    /// Rack removals whose rack was in flight at their scheduled tick; they
    /// land once the rack is back home (or are withdrawn by their restore).
    pub deferred_removals: Vec<RackId>,
    /// Events that had to defer at least once (see the report field).
    pub events_deferred: usize,
    /// Safety violations under disruption (must stay 0; see module docs).
    pub disruption_violations: usize,
    /// Cursor into the instance's arrival-sorted item list.
    pub next_item: usize,
    pub items_processed: usize,
    pub rack_trips: usize,
    pub metrics: MetricsSnapshot,
    /// Executed-trajectory checker; serialises as its conflicts alone.
    pub validator: TrajectoryValidator,
    pub last_return: Tick,
    pub peak_scratch: usize,
    pub next_checkpoint: usize,
    /// A [`Command::Shutdown`](crate::commands::Command::Shutdown) was
    /// accepted: no new orders are admitted and the run completes once
    /// backlog and floor drain.
    pub shutdown: bool,
    /// Idempotency cursor: commands with `seq` below this were already
    /// applied and are skipped on redelivery after a resume.
    pub next_command_seq: u64,
    /// Accepted orders whose items have not yet emerged, sorted by
    /// `(arrival, order)`.
    pub backlog: Vec<BacklogOrder>,
    /// Order handle of every live-landed item, indexed by
    /// `item id − instance.items.len()` (live items are issued dense ids
    /// after the pregenerated range).
    pub live_item_orders: Vec<OrderId>,
    /// Arrival (emergence) tick of every live-landed item, parallel to
    /// `live_item_orders`. Exposed to planners through
    /// [`eatp_core::WorldView::live_arrivals`] so per-item lookups (e.g.
    /// LEF's oldest-pending ranking) stay total under live ingestion.
    pub live_item_arrivals: Vec<Tick>,
    /// Live orders riding on each robot's carried batch (completion acks
    /// fire when the batch finishes processing).
    pub carried_orders: Vec<Vec<OrderId>>,
    /// Orders submitted: live acceptances plus the pregenerated item list,
    /// which is modelled as an order book submitted at tick 0 (that
    /// unification is what makes a live run bit-identical to its
    /// pregenerated equivalent — see `docs/order-stream.md`).
    pub orders_submitted: u64,
    /// Orders withdrawn from the backlog before landing.
    pub orders_cancelled: u64,
    /// Commands rejected (duplicate/unknown orders, post-shutdown
    /// submissions, invalid disruption injections).
    pub orders_rejected: u64,
    /// Peak backlog depth observed at bookkeeping: not-yet-emerged
    /// pregenerated items plus live backlog entries.
    pub peak_backlog: u64,
    /// Total order age accrued at landing: `Σ (landing tick − submission
    /// tick)` over all landed items (pregenerated items are submitted at
    /// tick 0 and land at their arrival tick).
    pub total_order_age: u64,
}

impl EngineState {
    /// The state of a fresh run of `instance` at tick 0: the fleets and the
    /// per-robot, per-picker, per-rack and per-cell tables are sized from
    /// the instance; every cursor, counter, flag and list not named here
    /// starts at zero, false or empty.
    pub fn new(instance: &Instance) -> Self {
        let n_robots = instance.robots.len();
        Self {
            racks: instance.racks.clone(),
            pickers: instance.pickers.clone(),
            robots: instance.robots.clone(),
            paths: vec![None; n_robots],
            carried_work: vec![0; n_robots],
            carried_items: vec![0; n_robots],
            serving: vec![None; instance.pickers.len()],
            broken: vec![false; n_robots],
            closed: vec![false; instance.pickers.len()],
            removed: vec![false; instance.racks.len()],
            blocked_overlay: vec![false; instance.grid.cell_count()],
            next_checkpoint: 1,
            carried_orders: vec![Vec::new(); n_robots],
            // The pregenerated item list is an order book submitted at
            // tick 0 — counting it here is what keeps the order counters
            // identical between a live run and its pregenerated equivalent.
            orders_submitted: instance.items.len() as u64,
            ..Self::default()
        }
    }
}

/// The discrete-time simulation engine, steppable one tick at a time so runs
/// can be checkpointed mid-flight and resumed bit-identically (see
/// [`crate::snapshot`]).
///
/// Everything beside `state` is *derived*: a function of the instance and
/// config (`max_ticks`, `bucket_width`), rebuilt from `state`
/// on resume (the schedule), or scratch that is empty at every tick
/// boundary.
pub struct Engine<'a> {
    instance: &'a Instance,
    config: EngineConfig,
    /// The canonical state; what a snapshot carries.
    state: EngineState,
    max_ticks: Tick,
    /// Bottleneck trace bucket width in ticks.
    bucket_width: Tick,
    /// The busy set, docked count, arrival agenda, planning dirty flags and
    /// clean certificate every phase consults; built from `state` at
    /// construction and again on resume.
    schedule: Schedule,
    // Scratch, empty at every tick boundary and reused so the steady-state
    // loop stays allocation-free.
    /// Cells newly claimed by frozen robots (or a fresh blockade) whose
    /// crossing paths must cancel; drains within the events phase.
    freeze_queue: Vec<GridPos>,
    /// Idle robots offered to the planner.
    idle_buf: Vec<RobotId>,
    /// Selectable racks offered to the planner.
    selectable_buf: Vec<RackId>,
    /// The tick's leg batch and its `commit_legs` results.
    leg_requests: Vec<LegRequest>,
    leg_results: Vec<Option<Path>>,
    /// On-grid positions handed to the validator.
    on_grid_buf: Vec<(RobotId, GridPos)>,
    /// The robots a clean movement tick visited, with their on-grid cells.
    touched_buf: Vec<(RobotId, Option<GridPos>)>,
    /// Acknowledgements produced while the tick executes, drained into the
    /// `tick_with_commands` caller's sink before the call returns.
    acks_out: Vec<Ack>,
}

impl<'a> Engine<'a> {
    /// Fresh engine at tick 0. Call [`Engine::start`] before stepping.
    pub fn new(instance: &'a Instance, config: &EngineConfig) -> Self {
        let horizon_guess = instance.last_arrival()
            + (instance.grid.width() as Tick + instance.grid.height() as Tick) * 8
            + instance.total_work() / (instance.pickers.len().max(1) as Tick)
            + 1_000;
        let max_ticks = match config.max_ticks {
            0 => horizon_guess * 128,
            n => n,
        };
        let bucket = match config.bottleneck_bucket {
            0 => (horizon_guess / 40).max(1),
            n => n,
        };
        let n_robots = instance.robots.len();
        let state = EngineState::new(instance);
        let mut schedule = Schedule::default();
        schedule.rebuild(&state);
        Self {
            state,
            schedule,
            max_ticks,
            bucket_width: bucket,
            freeze_queue: Vec::new(),
            idle_buf: Vec::with_capacity(n_robots),
            selectable_buf: Vec::with_capacity(instance.racks.len()),
            leg_requests: Vec::with_capacity(n_robots),
            leg_results: Vec::with_capacity(n_robots),
            on_grid_buf: Vec::with_capacity(n_robots),
            touched_buf: Vec::new(),
            acks_out: Vec::new(),
            instance,
            config: config.clone(),
        }
    }

    /// Initialise the planner for this run. Must be called exactly once
    /// before stepping a fresh engine; resumed engines are initialised by
    /// [`Engine::resume`] instead.
    pub fn start(&mut self, planner: &mut dyn Planner) {
        planner.init(self.instance);
    }

    /// Execute one full tick (all seven phases) and advance the clock.
    /// No-op once the run has finished. Equivalent to
    /// [`Engine::tick_with_commands`] with an empty batch (acks produced
    /// by earlier submissions — e.g. completions — are discarded).
    pub fn tick_once(&mut self, planner: &mut dyn Planner) {
        let mut acks = std::mem::take(&mut self.acks_out);
        self.tick_with_commands(planner, &mut [], &mut acks);
        acks.clear();
        self.acks_out = acks;
    }

    /// Execute one full tick, applying `commands` at phase 0 first.
    ///
    /// The batch is applied in **canonical order** — ascending sequence
    /// number, regardless of slice order — and commands whose `seq` is
    /// below the engine's idempotency cursor are silently skipped (at-
    /// least-once redelivery after a resume is safe). Acknowledgements for
    /// every command applied this tick, plus [`Ack::Completed`] for live
    /// orders whose items finished processing, are appended to `acks`
    /// before the call returns. No-op once the run has finished.
    pub fn tick_with_commands(
        &mut self,
        planner: &mut dyn Planner,
        commands: &mut [SequencedCommand],
        acks: &mut Vec<Ack>,
    ) {
        if self.state.finished {
            return;
        }
        let t = self.state.t;
        self.apply_commands(commands, t, planner);
        self.step_events(t, planner);
        self.step_arrivals(t);
        self.step_picking(t);
        self.step_transitions(t, planner);
        self.step_planning(t, planner);
        self.step_movement(t);
        self.step_bookkeeping(t, planner);
        #[cfg(debug_assertions)]
        self.schedule.assert_tallies(&self.state.robots);

        if self.is_done() {
            self.state.completed = true;
            self.state.finished = true;
        } else if t >= self.max_ticks {
            self.state.finished = true;
        } else {
            self.state.t = t + 1;
        }
        acks.append(&mut self.acks_out);
    }

    /// Step until the run finishes (completion or tick-budget exhaustion).
    pub fn run_to_completion(&mut self, planner: &mut dyn Planner) {
        while !self.state.finished {
            self.tick_once(planner);
        }
    }

    /// The tick the next [`Engine::tick_once`] call will execute (or, once
    /// finished, the tick the run ended on).
    pub fn current_tick(&self) -> Tick {
        self.state.t
    }

    /// Whether the run has ended.
    pub fn is_finished(&self) -> bool {
        self.state.finished
    }

    /// The instance this engine runs on.
    pub fn instance(&self) -> &'a Instance {
        self.instance
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Build the final report. Call after [`Engine::run_to_completion`];
    /// drains the sampled metric series, after reading RWR, the busy rate
    /// and the checkpoints' peak memory from them.
    pub fn report(&mut self, planner: &mut dyn Planner) -> SimulationReport {
        let makespan = if self.state.completed {
            self.state.last_return
        } else {
            self.state.t
        };
        let stats = planner.stats();
        let horizon = makespan.max(1);
        let n_robots = self.state.robots.len();
        let metrics = std::mem::take(&mut self.state.metrics);
        let checkpoint_memory = metrics.checkpoints.iter().map(|c| c.memory_bytes);
        let peak_memory = checkpoint_memory.max().unwrap_or(0);
        SimulationReport {
            scenario: self.instance.name.clone(),
            planner: planner.name().to_string(),
            makespan,
            completed: self.state.completed,
            items_processed: self.state.items_processed,
            rack_trips: self.state.rack_trips,
            batch_factor: if self.state.rack_trips > 0 {
                self.state.items_processed as f64 / self.state.rack_trips as f64
            } else {
                0.0
            },
            ppr: self.ppr(horizon),
            rwr: metrics.rwr(n_robots, horizon),
            robot_busy_rate: metrics.robot_busy_rate(n_robots, horizon),
            stc_s: stats.selection_ns as f64 / 1e9,
            ptc_s: stats.planning_ns as f64 / 1e9,
            peak_memory_bytes: peak_memory.max(stats.memory_bytes),
            peak_scratch_bytes: self.state.peak_scratch.max(stats.scratch_bytes),
            checkpoints: metrics.checkpoints,
            bottleneck: metrics.bottleneck,
            executed_conflicts: self.state.validator.conflict_count(),
            events_applied: self.state.journal.len(),
            events_deferred: self.state.events_deferred,
            disruption_violations: self.state.disruption_violations,
            anticipation_hits: stats.anticipation_hits,
            orders_submitted: self.state.orders_submitted,
            orders_cancelled: self.state.orders_cancelled,
            orders_rejected: self.state.orders_rejected,
            orders_completed: self.state.items_processed as u64,
            peak_backlog: self.state.peak_backlog,
            total_order_age: self.state.total_order_age,
            planner_stats: stats,
        }
    }

    /// PPR (Eq. 6) over the first `horizon` ticks.
    fn ppr(&self, horizon: Tick) -> f64 {
        let picker_busy: Duration = self.state.pickers.iter().map(|p| p.accum_processing).sum();
        metrics::rate(picker_busy, self.state.pickers.len(), horizon)
    }

    /// Pregenerated items not yet emerged plus live backlog entries.
    fn backlog_depth(&self) -> u64 {
        (self.instance.items.len() - self.state.next_item + self.state.backlog.len()) as u64
    }

    #[inline]
    fn cell_index(&self, pos: GridPos) -> usize {
        pos.to_index(self.instance.grid.width())
    }

    /// All items arrived, fulfilled, and every robot idle again. In live
    /// mode the floor being momentarily drained is not completion — more
    /// orders may arrive — so a shutdown must have been accepted too.
    fn is_done(&self) -> bool {
        self.state.next_item == self.instance.items.len()
            && self.state.backlog.is_empty()
            && (!self.config.live || self.state.shutdown)
            && self
                .state
                .racks
                .iter()
                .all(|r| !r.in_flight && !r.has_pending())
            && self.schedule.fleet_idle()
    }

    /// A copy of the canonical engine state at the current tick boundary.
    ///
    /// Only meaningful *between* ticks (before or after a `tick_once`
    /// call, never during one) — the per-tick scratch buffers and the
    /// freeze cascade are excluded precisely because they are empty there.
    pub fn export_state(&self) -> EngineState {
        debug_assert!(
            self.freeze_queue.is_empty(),
            "the freeze cascade drains within the events phase"
        );
        self.state.clone()
    }

    /// Overwrite this (freshly constructed) engine's canonical state with
    /// an exported one, and rebuild the validator's previous check (the
    /// robots on the grid at `t − 1`) and the schedule from it. The other
    /// derived fields keep their `new()` values, functions of the instance
    /// and config alone.
    pub fn restore_state(&mut self, state: &EngineState) {
        self.state = state.clone();
        self.collect_on_grid();
        let prev_t = self.state.t.checked_sub(1);
        (self.state.validator).restart(prev_t, &self.on_grid_buf);
        self.schedule.rebuild(&self.state);
    }

    /// Rebuild a mid-run engine + planner pair from an exported state.
    ///
    /// The restore protocol (documented in `docs/snapshot-format.md`):
    /// the planner is freshly `init`-ed on the instance, the applied-event
    /// journal is replayed through [`Planner::on_event`] to rebuild
    /// its derived world model (grid overlay, distance oracle; the KNN
    /// index is built from the instance alone), its canonical state is
    /// overwritten via [`Planner::import_snapshot`] and checked against
    /// the resumed tick and the last tick an active path reaches
    /// ([`Planner::check_resume_tick`]), and last
    /// [`PlannerEvent::Resumed`] hands it the fleet and the active paths
    /// its reservation table is rebuilt from. Do **not** call
    /// [`Engine::start`] on the returned engine.
    pub fn resume(
        instance: &'a Instance,
        config: &EngineConfig,
        planner: &mut dyn Planner,
        state: &EngineState,
        planner_state: &serde::Value,
    ) -> Result<Self, serde::Error> {
        let mut engine = Engine::new(instance, config);
        planner.init(instance);
        for ev in &state.journal {
            planner.on_event(PlannerEvent::Disruption {
                event: &ev.event,
                t: ev.t,
            });
        }
        planner.import_snapshot(planner_state)?;
        let last_end = (state.paths.iter().flatten()).fold(state.t, |end, p| end.max(p.end()));
        planner.check_resume_tick(state.t, last_end)?;
        planner.on_event(PlannerEvent::Resumed {
            t: state.t,
            robots: &state.robots,
            paths: &state.paths,
        });
        engine.restore_state(state);
        Ok(engine)
    }

    /// Order-sensitive FNV-1a hash over the binary encoding of the
    /// canonical engine state (streamed from the typed state; no value
    /// tree), with the wall-clock-contaminated fields
    /// (checkpoint `stc_s`/`ptc_s`/`memory_bytes`, the peak-scratch
    /// counter) scrubbed to zero first — they legitimately differ between
    /// two replays of the same simulation. Two runs that agree on every
    /// `state_hash` along the way are simulation-identical; the first tick
    /// where the hashes differ is where they diverged.
    pub fn state_hash(&self) -> u64 {
        let mut state = self.export_state();
        state.peak_scratch = 0;
        for c in &mut state.metrics.checkpoints {
            c.stc_s = 0.0;
            c.ptc_s = 0.0;
            c.memory_bytes = 0;
        }
        let bytes = serde::binary::to_bytes(&state);
        debug_assert_eq!(
            bytes,
            serde::binary::to_bytes(&state.serialize()),
            "the streamed state is the tree encoding"
        );
        fnv1a(&bytes)
    }
}

/// 64-bit FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Tiny deterministic instances shared by the engine and service unit
/// tests (compiled only under `cfg(test)`).
#[cfg(test)]
pub(crate) mod test_support {
    use tprw_warehouse::{Instance, LayoutConfig, ScenarioSpec, WorkloadConfig};

    pub(crate) fn small_instance(n_items: usize, seed: u64) -> Instance {
        ScenarioSpec {
            name: "engine-test".into(),
            layout: LayoutConfig::sized(24, 16),
            n_racks: 10,
            n_robots: 4,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(n_items, 0.5),
            disruptions: None,
            seed,
        }
        .build()
        .unwrap()
    }
}

#[cfg(test)]
mod tests;
