//! The discrete-time simulation engine.
//!
//! Each tick executes the full fulfilment cycle of Fig. 2:
//!
//! 0. **events** — due disruption events mutate the world: robots break
//!    down or recover, aisle cells blockade or reopen, stations close or
//!    resume (see [the events phase](#disruption-semantics) below);
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
//! Stations are modelled with a handoff cell plus an off-grid bay: a robot
//! *docks* (leaves the grid) when its delivery path reaches the station cell
//! and *undocks* when its return path is planned. This matches the paper's
//! time-based queuing model (Eq. 2) without inventing queue-lane geometry —
//! queue capacity is unbounded, order is FIFO (Definition 2).
//!
//! # Disruption semantics
//!
//! The events phase replays [`Instance::disruptions`] (sorted, paired — see
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
//!   oracle, path cache and KNN index all invalidate) and every active path
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
//!
//! Every tick the engine additionally counts any robot standing on a
//! blockaded cell and any plan naming a broken robot, a closed station's
//! rack or a removed rack into
//! [`SimulationReport::disruption_violations`] — the invariant tests pin
//! this to zero.

use crate::commands::{Ack, BacklogOrder, Command, RejectReason, SequencedCommand};
use crate::faults::{DegradationPolicy, FaultConfig, FaultPlan};
use crate::metrics::{self, Checkpoint, MetricsSnapshot};
use crate::report::SimulationReport;
use crate::validate::TrajectoryValidator;
use eatp_core::planner::{InjectedFault, LegRequest, Planner, PlannerEvent};
use eatp_core::world::WorldView;
use serde::{Deserialize, Serialize};
use tprw_pathfinding::Path;
use tprw_warehouse::{
    CellKind, DisruptionEvent, Duration, GridPos, Instance, Item, ItemId, OrderId, Picker,
    QueueEntry, Rack, RackId, Robot, RobotId, RobotPhase, Tick, TimedEvent,
};

/// Engine knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Hard tick budget; `0` derives `128 × (last arrival + HW)` — generous
    /// enough for every planner yet finite on livelock.
    pub max_ticks: Tick,
    /// Number of item-progress checkpoints to sample (paper plots 10).
    pub checkpoints: usize,
    /// Bottleneck trace bucket width in ticks; `0` derives 1/40 of the
    /// expected horizon.
    pub bottleneck_bucket: Tick,
    /// Deterministic fault injection (see [`crate::faults`]). The default
    /// is fully disabled, which is bit-identical to not having the fault
    /// machinery at all.
    pub faults: FaultConfig,
    /// How planner errors and budget overruns degrade the tick (see
    /// [`DegradationPolicy`]). Disabled by default.
    pub degradation: DegradationPolicy,
    /// Live-ingestion mode: the run is fed orders through
    /// [`Engine::tick_with_commands`] and only completes once a
    /// [`Command::Shutdown`] has been accepted *and* the backlog and floor
    /// have drained. Off (the default), completion keeps its pregenerated
    /// semantics: the run ends when the instance's item list is fulfilled.
    pub live: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_ticks: 0,
            checkpoints: 10,
            bottleneck_bucket: 0,
            faults: FaultConfig::default(),
            degradation: DegradationPolicy::default(),
            live: false,
        }
    }
}

impl EngineConfig {
    /// Start an [`EngineConfigBuilder`] (preferred over filling the pub
    /// fields by hand).
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
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

    /// Number of item-progress checkpoints to sample.
    pub fn checkpoints(mut self, n: usize) -> Self {
        self.config.checkpoints = n;
        self
    }

    /// Bottleneck trace bucket width in ticks (`0` derives).
    pub fn bottleneck_bucket(mut self, width: Tick) -> Self {
        self.config.bottleneck_bucket = width;
        self
    }

    /// Deterministic fault injection plan.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = faults;
        self
    }

    /// Planner-error degradation policy.
    pub fn degradation(mut self, policy: DegradationPolicy) -> Self {
        self.config.degradation = policy;
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
    /// tick (deferred events appear when they land, not when scheduled).
    /// Replayed through [`Planner::on_event`] on resume to rebuild the
    /// planner's derived world model (grid overlay, oracle, KNN liveness).
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
    /// Disruption events applied (deferred blockades count when they land).
    pub events_applied: usize,
    /// Events that had to defer at least once (see the report field).
    pub events_deferred: usize,
    /// Safety violations under disruption (must stay 0; see module docs).
    pub disruption_violations: usize,
    /// Cursor into the instance's arrival-sorted item list.
    pub next_item: usize,
    pub items_processed: usize,
    pub rack_trips: usize,
    pub metrics: MetricsSnapshot,
    /// Executed-trajectory checker; serialises as its `ValidatorSnapshot`.
    pub validator: TrajectoryValidator,
    pub last_return: Tick,
    pub peak_memory: usize,
    pub peak_scratch: usize,
    pub next_checkpoint: usize,
    /// Ticks whose planning phase ran the greedy fallback instead of the
    /// primary planner (degradation).
    pub degraded_ticks: u64,
    /// Assignments committed by the greedy fallback.
    pub fallback_assignments: u64,
    /// Planner `plan`/`plan_legs` errors observed (injected or real).
    pub planner_errors: u64,
    /// The previous planning tick overran its expansion budget; the next
    /// planning tick degrades pre-emptively.
    pub degrade_next: bool,
    /// A degraded tick just ran; the primary planner is restored (derived
    /// state invalidated) at the start of the next tick.
    pub recover_next: bool,
    /// Cursor into the fault plan's decision-fault schedule.
    pub next_decision_fault: usize,
    /// Cursor into the fault plan's leg-fault schedule.
    pub next_leg_fault: usize,
    /// Cursor into the fault plan's poison schedule.
    pub next_poison_fault: usize,
    /// A [`Command::Shutdown`] was accepted: no new orders are admitted
    /// and the run completes once backlog and floor drain.
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
    /// Orders whose items finished processing (pregenerated items count —
    /// they are orders submitted at tick 0).
    pub orders_completed: u64,
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
            metrics: MetricsSnapshot::new(n_robots),
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
/// config (`max_ticks`, `bucket_width`, `fault_plan`), rebuilt from `state`
/// on resume (the agenda, counters and dirty flags), or scratch that is
/// empty at every tick boundary.
pub struct Engine<'a> {
    instance: &'a Instance,
    config: EngineConfig,
    /// The canonical state; what a snapshot carries.
    state: EngineState,
    max_ticks: Tick,
    /// Bottleneck trace bucket width in ticks.
    bucket_width: Tick,
    /// The materialized fault schedule, regenerated from
    /// [`EngineConfig::faults`] (like the instance's disruption schedule);
    /// only the cursors in `state` are canonical.
    fault_plan: FaultPlan,
    /// Scratch for the path-invalidation cascade: cells newly claimed by
    /// frozen robots (or a fresh blockade) whose crossing paths must cancel.
    /// Always drains to empty within the events phase.
    freeze_queue: Vec<GridPos>,
    /// Per-tick scratch: idle robots offered to the planner. The scratch
    /// buffers are reused so the steady-state engine loop stays
    /// allocation-free (the planners' `SearchScratch` arenas do the same
    /// below `commit_legs`).
    idle_buf: Vec<RobotId>,
    /// Per-tick scratch: selectable racks offered to the planner.
    selectable_buf: Vec<RackId>,
    /// Per-tick scratch: the tick's delivery+return leg batch.
    leg_requests: Vec<LegRequest>,
    /// Per-tick scratch: results of the batched `commit_legs` call.
    leg_results: Vec<Option<Path>>,
    /// Per-tick scratch: on-grid positions handed to the validator.
    on_grid_buf: Vec<(RobotId, tprw_warehouse::GridPos)>,
    /// Per-tick scratch: the robots a clean movement tick visited, with
    /// their on-grid cells, handed to the validator's delta check.
    touched_buf: Vec<(RobotId, Option<GridPos>)>,
    /// Per-tick scratch: acknowledgements produced while the current tick
    /// executes, drained into the `tick_with_commands` caller's sink
    /// before the call returns (empty at every tick boundary, hence never
    /// part of the snapshot).
    acks_out: Vec<Ack>,
    /// Per-tick scratch: the sorted command batch being applied.
    cmd_buf: Vec<SequencedCommand>,
    /// The arrival agenda (see `docs/event-driven-ticking.md`): min-heap of
    /// `(path end tick, robot index)` wake entries, pushed whenever a path
    /// is installed. **Derived state** — never snapshotted, rebuilt from
    /// `paths` on resume; entries are re-validated against the canonical
    /// `paths` on pop (lazy deletion), so stale entries are harmless.
    arrival_agenda: std::collections::BinaryHeap<std::cmp::Reverse<(Tick, u32)>>,
    /// Per-tick scratch: robots woken by the arrival agenda this tick,
    /// sorted ascending — arrivals are processed in robot-index order.
    arrivals_buf: Vec<usize>,
    /// Robots in a non-`Idle` phase, plus those that left it this tick.
    /// Derived; `dispatch` adds a robot and the `Returning` arrival removes
    /// it, and it is rebuilt from `robots` on resume.
    busy: BusySet,
    /// Robots docked at a station (`Queuing` or `Processing`). Zero implies
    /// every picker queue is empty and nothing is being served, so the
    /// picking phase is a provable no-op. Derived, like `busy`.
    docked_count: usize,
    /// Conservative planning-input dirty flag: *may* some robot be idle and
    /// assignable? Set on any arrival to `Idle`, any disruption/recovery,
    /// and on init/resume; cleared only when a planning scan finds the idle
    /// pool empty. False means the planning scan would early-out on an
    /// empty `idle_buf` (which it does *before* consuming degradation or
    /// decision-fault cursors — see `step_planning`).
    maybe_idle: bool,
    /// Conservative planning-input dirty flag: *may* some rack be
    /// selectable? Set on item arrivals (pregenerated and live), rack
    /// returns, and any disruption event; cleared only when a planning scan
    /// finds the selectable pool empty.
    maybe_work: bool,
    /// The clean certificate: the last movement scan pushed zero conflicts
    /// and zero violations, and nothing has dirtied since. While it holds,
    /// a robot outside the busy set stands where that scan saw it, clear of
    /// every other robot and every blocked cell, so the next movement tick
    /// visits only the busy set. Cleared by [`Engine::dirty_all`].
    clean_scan: bool,
}

/// A set of robot indices as a bitset, visited in ascending order: the
/// busy robots, plus the robots removed since the last
/// [`BusySet::end_tick`].
#[derive(Debug, Clone, Default)]
struct BusySet {
    busy: Vec<u64>,
    left: Vec<u64>,
}

impl BusySet {
    fn insert(&mut self, ai: usize) {
        let w = ai / 64;
        if w >= self.busy.len() {
            self.busy.resize(w + 1, 0);
            self.left.resize(w + 1, 0);
        }
        self.busy[w] |= 1 << (ai % 64);
    }

    /// Remove `ai`, a member, remembering that it left this tick.
    fn remove(&mut self, ai: usize) {
        self.busy[ai / 64] &= !(1 << (ai % 64));
        self.left[ai / 64] |= 1 << (ai % 64);
    }

    fn is_empty(&self) -> bool {
        self.busy.iter().all(|&w| w == 0)
    }

    /// The busy robots, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.busy.iter().copied())
    }

    /// The busy robots and those that left this tick, ascending.
    fn iter_touched(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.busy.iter().zip(&self.left).map(|(b, l)| b | l))
    }

    /// Forget which robots left.
    fn end_tick(&mut self) {
        self.left.fill(0);
    }
}

/// The indices of the set bits of a bitset's words, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

impl<'a> Engine<'a> {
    /// Fresh engine at tick 0. Call [`Engine::start`] before stepping.
    pub fn new(instance: &'a Instance, config: &EngineConfig) -> Self {
        let horizon_guess = instance.last_arrival()
            + (instance.grid.width() as Tick + instance.grid.height() as Tick) * 8
            + instance.total_work() / (instance.pickers.len().max(1) as Tick)
            + 1_000;
        let max_ticks = if config.max_ticks > 0 {
            config.max_ticks
        } else {
            horizon_guess * 128
        };
        let bucket = if config.bottleneck_bucket > 0 {
            config.bottleneck_bucket
        } else {
            (horizon_guess / 40).max(1)
        };
        let n_robots = instance.robots.len();
        Self {
            state: EngineState::new(instance),
            max_ticks,
            bucket_width: bucket,
            fault_plan: FaultPlan::generate(&config.faults),
            freeze_queue: Vec::new(),
            idle_buf: Vec::with_capacity(n_robots),
            selectable_buf: Vec::with_capacity(instance.racks.len()),
            leg_requests: Vec::with_capacity(n_robots),
            leg_results: Vec::with_capacity(n_robots),
            on_grid_buf: Vec::with_capacity(n_robots),
            touched_buf: Vec::new(),
            acks_out: Vec::new(),
            cmd_buf: Vec::new(),
            arrival_agenda: std::collections::BinaryHeap::new(),
            arrivals_buf: Vec::new(),
            busy: BusySet::default(),
            docked_count: 0,
            maybe_idle: true,
            maybe_work: true,
            clean_scan: false,
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
        // A degraded tick just ran: restore the primary planner before
        // anything else this tick, with its derived state (path cache,
        // memoized distance fields) invalidated — whatever made it fail
        // must not survive into this tick's decisions.
        if self.state.recover_next {
            self.state.recover_next = false;
            planner.on_event(PlannerEvent::RecoverDegraded);
        }
        let t = self.state.t;
        if !commands.is_empty() {
            commands.sort_by_key(|c| c.seq);
            let mut batch = std::mem::take(&mut self.cmd_buf);
            batch.clear();
            batch.extend(commands.iter().cloned());
            for cmd in &batch {
                if cmd.seq < self.state.next_command_seq {
                    continue; // already applied before the snapshot
                }
                self.state.next_command_seq = cmd.seq + 1;
                self.apply_command(cmd.seq, &cmd.command, t, planner);
            }
            self.cmd_buf = batch;
        }
        self.step_events(t, planner);
        self.step_arrivals(t);
        self.step_picking(t);
        self.step_transitions(t, planner);
        self.step_planning(t, planner);
        self.step_movement(t);
        self.step_bookkeeping(t, planner);
        #[cfg(debug_assertions)]
        {
            let (busy, docked) = self.phase_tallies();
            debug_assert!(
                self.busy.iter().eq(busy.iter()) && self.docked_count == docked,
                "agenda drifted from the robots' phases"
            );
        }

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

    /// Apply one command at tick `t`, pushing its acknowledgement.
    fn apply_command(&mut self, seq: u64, command: &Command, t: Tick, planner: &mut dyn Planner) {
        match command {
            Command::SubmitOrder { spec } => {
                let reason = if self.state.shutdown {
                    Some(RejectReason::ShuttingDown)
                } else if spec.rack.index() >= self.state.racks.len() {
                    Some(RejectReason::UnknownRack)
                } else if spec.processing == 0 {
                    Some(RejectReason::ZeroProcessing)
                } else if self.state.backlog.iter().any(|b| b.order == spec.order)
                    || self.state.live_item_orders.contains(&spec.order)
                {
                    Some(RejectReason::DuplicateOrder)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    self.state.orders_rejected += 1;
                    self.acks_out.push(Ack::Rejected {
                        seq,
                        reason,
                        tick: t,
                    });
                    return;
                }
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
                self.acks_out.push(Ack::Accepted {
                    seq,
                    order: spec.order,
                    tick: t,
                });
            }
            Command::CancelOrder { order } => {
                if let Some(at) = self.state.backlog.iter().position(|b| b.order == *order) {
                    self.state.backlog.remove(at);
                    self.state.orders_cancelled += 1;
                    self.acks_out.push(Ack::Cancelled {
                        seq,
                        order: *order,
                        tick: t,
                    });
                } else {
                    let reason = if self.state.live_item_orders.contains(order) {
                        RejectReason::AlreadyLanded
                    } else {
                        RejectReason::UnknownOrder
                    };
                    self.state.orders_rejected += 1;
                    self.acks_out.push(Ack::Rejected {
                        seq,
                        reason,
                        tick: t,
                    });
                }
            }
            Command::InjectDisruption { event } => {
                if self.injection_is_valid(*event) {
                    self.dirty_all();
                    self.apply_event(*event, t, planner);
                    self.acks_out.push(Ack::Injected { seq, tick: t });
                } else {
                    self.state.orders_rejected += 1;
                    self.acks_out.push(Ack::Rejected {
                        seq,
                        reason: RejectReason::InvalidDisruption,
                        tick: t,
                    });
                }
            }
            Command::RequestSnapshot => {
                self.acks_out.push(Ack::SnapshotRequested { seq, tick: t });
            }
            Command::Shutdown => {
                self.state.shutdown = true;
                self.acks_out.push(Ack::ShutdownStarted { seq, tick: t });
            }
        }
    }

    /// Whether an injected disruption is consistent with the current
    /// world. Scheduled streams guarantee this by construction
    /// (`validate_events`); injected ones are checked here so a confused
    /// producer cannot corrupt engine invariants (nested disruptions,
    /// blockades on storage cells, out-of-range ids).
    fn injection_is_valid(&self, event: DisruptionEvent) -> bool {
        match event {
            DisruptionEvent::RobotBreakdown { robot } => {
                robot.index() < self.state.robots.len() && !self.state.broken[robot.index()]
            }
            DisruptionEvent::RobotRecover { robot } => {
                robot.index() < self.state.robots.len() && self.state.broken[robot.index()]
            }
            DisruptionEvent::CellBlocked { pos } => {
                self.instance.grid.in_bounds(pos)
                    && self.instance.grid.kind(pos) == CellKind::Aisle
                    && !self.state.blocked_overlay[self.cell_index(pos)]
                    && !self.state.deferred_blockades.contains(&pos)
            }
            DisruptionEvent::CellUnblocked { pos } => {
                self.instance.grid.in_bounds(pos)
                    && (self.state.blocked_overlay[self.cell_index(pos)]
                        || self.state.deferred_blockades.contains(&pos))
            }
            DisruptionEvent::StationClosed { picker } => {
                picker.index() < self.state.pickers.len() && !self.state.closed[picker.index()]
            }
            DisruptionEvent::StationReopened { picker } => {
                picker.index() < self.state.pickers.len() && self.state.closed[picker.index()]
            }
            DisruptionEvent::RackRemoved { rack } => {
                rack.index() < self.state.racks.len()
                    && !self.state.removed[rack.index()]
                    && !self.state.deferred_removals.contains(&rack)
            }
            DisruptionEvent::RackRestored { rack } => {
                rack.index() < self.state.racks.len()
                    && (self.state.removed[rack.index()]
                        || self.state.deferred_removals.contains(&rack))
            }
        }
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
    /// drains the sampled metric series.
    pub fn report(&mut self, planner: &mut dyn Planner) -> SimulationReport {
        let makespan = if self.state.completed {
            self.state.last_return
        } else {
            self.state.t
        };
        let stats = planner.stats();
        let horizon = makespan.max(1);
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
            rwr: self.state.metrics.rwr(horizon),
            robot_busy_rate: self.state.metrics.robot_busy_rate(horizon),
            stc_s: stats.selection_ns as f64 / 1e9,
            ptc_s: stats.planning_ns as f64 / 1e9,
            peak_memory_bytes: self.state.peak_memory.max(stats.memory_bytes),
            peak_scratch_bytes: self.state.peak_scratch.max(stats.scratch_bytes),
            checkpoints: std::mem::take(&mut self.state.metrics.checkpoints),
            bottleneck: std::mem::take(&mut self.state.metrics.bottleneck),
            executed_conflicts: self.state.validator.conflict_count(),
            events_applied: self.state.events_applied,
            events_deferred: self.state.events_deferred,
            disruption_violations: self.state.disruption_violations,
            anticipation_hits: stats.anticipation_hits,
            degraded_ticks: self.state.degraded_ticks,
            fallback_assignments: self.state.fallback_assignments,
            planner_errors: self.state.planner_errors,
            orders_submitted: self.state.orders_submitted,
            orders_cancelled: self.state.orders_cancelled,
            orders_rejected: self.state.orders_rejected,
            orders_completed: self.state.orders_completed,
            peak_backlog: self.state.peak_backlog,
            total_order_age: self.state.total_order_age,
            planner_stats: stats,
        }
    }

    /// PPR (Eq. 6) over the first `horizon` ticks.
    fn ppr(&self, horizon: Tick) -> f64 {
        let picker_busy: Duration = self.state.pickers.iter().map(|p| p.busy_ticks).sum();
        metrics::ppr(picker_busy, self.state.pickers.len(), horizon)
    }

    #[inline]
    fn cell_index(&self, pos: GridPos) -> usize {
        pos.to_index(self.instance.grid.width())
    }

    /// Conservatively dirty every skip precondition: the planning inputs
    /// may have changed, and the next movement scan cannot be proven a
    /// no-op. Called on any disruption landing (scheduled or injected) —
    /// events are rare, so over-invalidating costs one full rescan, never
    /// correctness.
    #[inline]
    fn dirty_all(&mut self) {
        self.maybe_idle = true;
        self.maybe_work = true;
        self.clean_scan = false;
    }

    /// The busy set and docked count the robots' phases give, which the
    /// agenda must equal.
    fn phase_tallies(&self) -> (BusySet, usize) {
        let robots = &self.state.robots;
        let mut busy = BusySet::default();
        for (ai, r) in robots.iter().enumerate() {
            if r.phase.is_busy() {
                busy.insert(ai);
            }
        }
        let docked = robots.iter().filter(|r| is_docked(r.phase)).count();
        (busy, docked)
    }

    /// Phase 0: replay disruption events due at tick `t` (plus any deferred
    /// blockades whose cell has cleared). See the module docs for the
    /// semantics of each event kind.
    fn step_events(&mut self, t: Tick, planner: &mut dyn Planner) {
        let due = self.state.next_event < self.instance.disruptions.len()
            && self.instance.disruptions[self.state.next_event].t <= t;
        if !due
            && self.state.deferred_blockades.is_empty()
            && self.state.deferred_removals.is_empty()
        {
            return;
        }
        // Anything landing below may change phases, planning inputs or the
        // blockade overlay — every skip precondition dirties.
        self.dirty_all();
        // Deferred blockades and removals land first, in original order.
        if !self.state.deferred_blockades.is_empty() {
            let deferred = std::mem::take(&mut self.state.deferred_blockades);
            for pos in deferred {
                if !self.try_block_cell(pos, t, planner) {
                    self.state.deferred_blockades.push(pos);
                }
            }
        }
        if !self.state.deferred_removals.is_empty() {
            let deferred = std::mem::take(&mut self.state.deferred_removals);
            for rack in deferred {
                if !self.try_remove_rack(rack, t, planner) {
                    self.state.deferred_removals.push(rack);
                }
            }
        }
        while self.state.next_event < self.instance.disruptions.len()
            && self.instance.disruptions[self.state.next_event].t <= t
        {
            let ev = self.instance.disruptions[self.state.next_event];
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
                if let Some(i) = self.state.deferred_blockades.iter().position(|&p| p == pos) {
                    self.state.deferred_blockades.remove(i);
                    return;
                }
                let idx = self.cell_index(pos);
                if !self.state.blocked_overlay[idx] {
                    return;
                }
                self.state.blocked_overlay[idx] = false;
                self.record_applied(event, t, planner);
            }
            DisruptionEvent::StationClosed { picker } => {
                let pi = picker.index();
                if !self.state.closed[pi] {
                    self.state.closed[pi] = true;
                    self.record_applied(event, t, planner);
                }
            }
            DisruptionEvent::StationReopened { picker } => {
                let pi = picker.index();
                if self.state.closed[pi] {
                    self.state.closed[pi] = false;
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
                    return;
                }
                let ri = rack.index();
                if self.state.removed[ri] {
                    self.state.removed[ri] = false;
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
        let occupied = self
            .state
            .robots
            .iter()
            .any(|r| r.pos == pos && !is_docked(r.phase));
        if occupied {
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

    /// Phase 1: items emerging at tick `t` land on their racks —
    /// pregenerated items first (instance order), then due backlog orders
    /// in `(arrival, order)` order. An instance's item list is sorted by
    /// arrival with dense ids in sorted order, so a live run submitting
    /// the same demand pre-tick-0 lands items in the identical sequence.
    fn step_arrivals(&mut self, t: Tick) {
        let items_before = self.state.next_item;
        let live_before = self.state.live_item_orders.len();
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
        }
        // A landed item can make its rack selectable again.
        if self.state.next_item != items_before || self.state.live_item_orders.len() != live_before
        {
            self.maybe_work = true;
        }
    }

    /// Phase 2: pickers serve their queues one tick.
    fn step_picking(&mut self, t: Tick) {
        // No docked robot means every queue is empty and nothing is
        // mid-service (each queue entry and each `serving` slot holds a
        // robot in `Queuing`/`Processing`), so the loop below would read
        // every picker and mutate none — skip it.
        if self.docked_count == 0 {
            #[cfg(debug_assertions)]
            {
                debug_assert!(self.state.serving.iter().all(|s| s.is_none()));
                debug_assert!(self.state.pickers.iter().all(|p| p.queue.is_empty()));
            }
            return;
        }
        for pi in 0..self.state.pickers.len() {
            // A closed station pauses mid-rack: no processing, no queue
            // pops, no busy-tick accrual, until it reopens.
            if self.state.closed[pi] {
                continue;
            }
            // Start the next rack if idle.
            if self.state.serving[pi].is_none() {
                if let Some(entry) = self.state.pickers[pi].start_next() {
                    let robot = entry.robot.index();
                    self.state.robots[robot].phase = RobotPhase::Processing { rack: entry.rack };
                    self.state.serving[pi] = Some(entry);
                }
            }
            // Process one tick.
            if let Some(entry) = self.state.serving[pi] {
                let finished = self.state.pickers[pi].tick();
                self.state.racks[entry.rack.index()].accum_processing += 1;
                if finished {
                    let ai = entry.robot.index();
                    self.state.items_processed += self.state.carried_items[ai] as usize;
                    self.state.orders_completed += self.state.carried_items[ai] as u64;
                    self.state.carried_items[ai] = 0;
                    // Live orders riding on the batch are fulfilled now.
                    for i in 0..self.state.carried_orders[ai].len() {
                        self.acks_out.push(Ack::Completed {
                            order: self.state.carried_orders[ai][i],
                            tick: t,
                        });
                    }
                    self.state.carried_orders[ai].clear();
                    self.state.needs_return.push(entry.robot);
                    self.state.serving[pi] = None;
                }
            }
        }
    }

    /// Phase 3: robots that completed a leg receive the next one.
    fn step_transitions(&mut self, t: Tick, planner: &mut dyn Planner) {
        // 3a. Pickup arrivals -> join the delivery-pending pool.
        //
        // Pop the arrival agenda's due wake entries — there is no fleet
        // scan for ended paths. Every path installation pushed `(end,
        // robot)` onto the heap, so any robot satisfying
        // `transition_arrival`'s `arrived` predicate has a due entry —
        // except an arrived `ToRack` robot, which keeps its ended path
        // while it waits in the delivery pool for a leg and needs no second
        // wake. Entries are validated against the canonical `paths` in
        // `transition_arrival` and processed in ascending robot order — the
        // heap orders by `(end, robot)`, which differs from robot order
        // when distinct end ticks are due at once, and arrival order is
        // observable through picker-queue FIFO order.
        self.arrivals_buf.clear();
        while let Some(&std::cmp::Reverse((end, ai))) = self.arrival_agenda.peek() {
            if end > t {
                break;
            }
            self.arrival_agenda.pop();
            self.arrivals_buf.push(ai as usize);
        }
        self.arrivals_buf.sort_unstable();
        self.arrivals_buf.dedup();
        // Completeness check: a full fleet scan finds no arrived robot the
        // agenda missed, bar the `ToRack` robots already waiting in the
        // delivery pool.
        #[cfg(debug_assertions)]
        for ai in 0..self.state.robots.len() {
            let awaits_delivery = matches!(self.state.robots[ai].phase, RobotPhase::ToRack { .. })
                && self.state.paths[ai].as_ref().is_some_and(|p| p.end() < t)
                && self
                    .state
                    .needs_delivery
                    .contains(&self.state.robots[ai].id);
            debug_assert!(
                self.state.paths[ai].as_ref().is_none_or(|p| p.end() > t)
                    || awaits_delivery
                    || self.arrivals_buf.contains(&ai),
                "arrived robot {ai} missing from the arrival agenda"
            );
        }
        if !self.arrivals_buf.is_empty() {
            let mut due = std::mem::take(&mut self.arrivals_buf);
            for &ai in &due {
                self.transition_arrival(ai, t, planner);
            }
            due.clear();
            self.arrivals_buf = due;
        }

        // 3b/3c: delivery and return legs for waiting robots — one batched
        // query+commit leg pass per tick. Three empty pending pools mean
        // the pass would build zero requests and return before touching
        // the leg-fault cursor — a provable no-op.
        if self.state.needs_replan.is_empty()
            && self.state.needs_delivery.is_empty()
            && self.state.needs_return.is_empty()
        {
            return;
        }
        self.step_legs_batched(t, planner);
    }

    /// One robot's leg-completion transition (the body of phase 3a).
    /// Checks the `arrived` predicate itself, so a stale agenda entry (the
    /// path was cancelled, or replaced by one still in flight) is a no-op.
    fn transition_arrival(&mut self, ai: usize, t: Tick, planner: &mut dyn Planner) {
        if self.state.paths[ai].as_ref().is_none_or(|p| p.end() > t) {
            return;
        }
        // Transitions run before this tick's movement phase, so sync the
        // position to the path's final cell — that is where the robot's
        // reservation says it stands at tick `t` (paths end with
        // `end() == t` here). Leaving the previous tick's position in
        // place would desynchronize the physical robot from its parked
        // reservation by one cell.
        let arrival_pos = self.state.paths[ai]
            .as_ref()
            .map(|p| p.last())
            .expect("checked above");
        match self.state.robots[ai].phase {
            RobotPhase::ToRack { .. } => {
                self.state.robots[ai].pos = arrival_pos;
                let id = self.state.robots[ai].id;
                if !self.state.needs_delivery.contains(&id) {
                    self.state.needs_delivery.push(id);
                }
            }
            RobotPhase::ToStation { rack } => {
                // Dock: leave the grid, enqueue at the picker.
                self.state.robots[ai].pos = arrival_pos;
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
                self.docked_count += 1;
            }
            RobotPhase::Returning { rack } => {
                // Rack home again: fulfilment cycle complete.
                self.state.robots[ai].pos = arrival_pos;
                self.state.racks[rack.index()].in_flight = false;
                self.state.robots[ai].phase = RobotPhase::Idle;
                self.state.paths[ai] = None;
                self.state.last_return = self.state.last_return.max(t);
                self.state.rack_trips += 1;
                self.busy.remove(ai);
                // The robot is assignable and its rack (back home, possibly
                // with pending items) may be selectable again.
                self.maybe_idle = true;
                self.maybe_work = true;
            }
            _ => {}
        }
    }

    /// One batched leg pass ([`Planner::commit_legs`], planning each
    /// request in order) covering the tick's interrupted-leg resumes,
    /// delivery and return legs. Requests keep the pending lists'
    /// order, and the one-undock-per-station rule rides on
    /// [`LegRequest::group`].
    /// Broken robots emit no requests — their entries wait for recovery.
    fn step_legs_batched(&mut self, t: Tick, planner: &mut dyn Planner) {
        // Stale entries (the robot left the relevant phase) are dropped
        // before planning.
        self.state.needs_replan.retain(|&robot_id| {
            let ai = robot_id.index();
            self.state.paths[ai].is_none() && self.state.robots[ai].phase.is_travelling()
        });
        self.state.needs_delivery.retain(|&robot_id| {
            matches!(
                self.state.robots[robot_id.index()].phase,
                RobotPhase::ToRack { .. }
            )
        });
        self.state
            .needs_return
            .retain(|&robot_id| is_docked(self.state.robots[robot_id.index()].phase));

        self.leg_requests.clear();
        // Interrupted legs resume first: a robot frozen mid-aisle blocks
        // more traffic than one waiting at a rack home or station.
        for &robot_id in &self.state.needs_replan {
            let ai = robot_id.index();
            if self.state.broken[ai] {
                continue; // still down; waits for its recovery event
            }
            let (to, park) = self.resume_destination(ai);
            self.leg_requests.push(LegRequest::new(
                robot_id,
                self.state.robots[ai].pos,
                to,
                park,
            ));
        }
        let n_replan = self.leg_requests.len();
        for &robot_id in &self.state.needs_delivery {
            if self.state.broken[robot_id.index()] {
                continue;
            }
            let RobotPhase::ToRack { rack } = self.state.robots[robot_id.index()].phase else {
                unreachable!("stale entries dropped above");
            };
            let rack_idx = rack.index();
            let home = self.state.racks[rack_idx].home;
            let station = self.state.pickers[self.state.racks[rack_idx].picker.index()].pos;
            self.leg_requests
                .push(LegRequest::new(robot_id, home, station, false));
        }
        let n_delivery = self.leg_requests.len();
        for &robot_id in &self.state.needs_return {
            if self.state.broken[robot_id.index()] {
                continue;
            }
            let rack = match self.state.robots[robot_id.index()].phase {
                RobotPhase::Processing { rack } | RobotPhase::Queuing { rack } => rack,
                _ => unreachable!("stale entries dropped above"),
            };
            let picker = self.state.racks[rack.index()].picker;
            let station = self.state.pickers[picker.index()].pos;
            let home = self.state.racks[rack.index()].home;
            self.leg_requests.push(LegRequest {
                robot: robot_id,
                from: station,
                to: home,
                park: true,
                // One undock per station per tick keeps handoff cells
                // unambiguous.
                group: Some(picker.index() as u32),
            });
        }
        if self.leg_requests.is_empty() {
            return;
        }

        // Leg faults are consumed only by a tick that actually batches
        // legs — an armed fault must fire (and clear) within this tick so
        // no fault state ever crosses a snapshot boundary.
        while self.state.next_leg_fault < self.fault_plan.leg.len()
            && self.fault_plan.leg[self.state.next_leg_fault] <= t
        {
            self.state.next_leg_fault += 1;
            planner.inject_fault(&InjectedFault::LegFailure);
        }
        // No planner reads the tentative buffer (ADR-005), so an empty one
        // is passed and `query_legs` is never called.
        if planner
            .commit_legs(
                &self.leg_requests,
                t,
                &mut Vec::new(),
                &mut self.leg_results,
            )
            .is_err()
        {
            // The batch failed as a unit before reserving anything. Count
            // it and hand the retain loops all-`None` results: every
            // pending leg stays queued and retries next tick, exactly like
            // individually blocked legs.
            self.state.planner_errors += 1;
            self.leg_results.clear();
            self.leg_results.resize(self.leg_requests.len(), None);
        }
        debug_assert_eq!(self.leg_results.len(), self.leg_requests.len());

        let mut i = 0;
        self.state.needs_replan.retain(|&robot_id| {
            let ai = robot_id.index();
            if self.state.broken[ai] {
                return true; // no request was issued; waits for recovery
            }
            let result = self.leg_results[i].take();
            i += 1;
            match result {
                Some(path) => {
                    // The phase is preserved: the robot resumes its
                    // interrupted leg and the arrival transition handles the
                    // rest (dock / delivery hand-off / cycle completion).
                    self.arrival_agenda
                        .push(std::cmp::Reverse((path.end(), ai as u32)));
                    self.state.paths[ai] = Some(path);
                    false
                }
                None => true, // blocked; retry next tick
            }
        });
        debug_assert_eq!(i, n_replan);
        self.state.needs_delivery.retain(|&robot_id| {
            if self.state.broken[robot_id.index()] {
                return true; // no request was issued; waits for recovery
            }
            let result = self.leg_results[i].take();
            i += 1;
            match result {
                Some(path) => {
                    let ai = robot_id.index();
                    let RobotPhase::ToRack { rack } = self.state.robots[ai].phase else {
                        unreachable!("phase unchanged since collection");
                    };
                    self.state.robots[ai].phase = RobotPhase::ToStation { rack };
                    self.arrival_agenda
                        .push(std::cmp::Reverse((path.end(), ai as u32)));
                    self.state.paths[ai] = Some(path);
                    false
                }
                None => true, // retry next tick
            }
        });
        debug_assert_eq!(i, n_delivery);
        self.state.needs_return.retain(|&robot_id| {
            if self.state.broken[robot_id.index()] {
                return true; // no request was issued; waits for recovery
            }
            let result = self.leg_results[i].take();
            let station = self.leg_requests[i].from;
            i += 1;
            match result {
                Some(path) => {
                    let ai = robot_id.index();
                    let rack = match self.state.robots[ai].phase {
                        RobotPhase::Processing { rack } | RobotPhase::Queuing { rack } => rack,
                        _ => unreachable!("phase unchanged since collection"),
                    };
                    self.state.robots[ai].phase = RobotPhase::Returning { rack };
                    self.state.robots[ai].pos = station;
                    self.docked_count -= 1;
                    self.arrival_agenda
                        .push(std::cmp::Reverse((path.end(), ai as u32)));
                    self.state.paths[ai] = Some(path);
                    false
                }
                None => true, // blocked or station already undocked this tick
            }
        });
    }

    /// Destination and parking mode for resuming `ai`'s interrupted leg
    /// from its current position (phase is preserved across cancellation).
    fn resume_destination(&self, ai: usize) -> (GridPos, bool) {
        match self.state.robots[ai].phase {
            RobotPhase::ToRack { rack } | RobotPhase::Returning { rack } => {
                (self.state.racks[rack.index()].home, true)
            }
            RobotPhase::ToStation { rack } => {
                let picker = self.state.racks[rack.index()].picker;
                (self.state.pickers[picker.index()].pos, false)
            }
            _ => unreachable!("only travelling robots are replanned"),
        }
    }

    /// Phase 4: the planner's per-timestamp selection + assignment.
    fn step_planning(&mut self, t: Tick, planner: &mut dyn Planner) {
        // The dirty flags conservatively over-approximate the two offer
        // pools, so either being clear proves the scans below would find a
        // pool empty and return — *before* touching the degradation latch or
        // the decision-fault cursor, which is what keeps this skip exact
        // under chaos regimes too.
        if !(self.maybe_idle && self.maybe_work) {
            #[cfg(debug_assertions)]
            {
                let any_idle = self
                    .state
                    .robots
                    .iter()
                    .any(|r| r.is_idle() && !self.state.broken[r.id.index()]);
                let any_work = self.state.racks.iter().any(|r| {
                    r.selectable()
                        && !self.state.closed[r.picker.index()]
                        && !self.state.removed[r.id.index()]
                });
                debug_assert!(
                    (self.maybe_idle || !any_idle) && (self.maybe_work || !any_work),
                    "planning dirty flag cleared while its pool is populated"
                );
            }
            return;
        }
        self.idle_buf.clear();
        for r in &self.state.robots {
            // Broken robots leave the assignment pool until they recover.
            if r.is_idle() && !self.state.broken[r.id.index()] {
                self.idle_buf.push(r.id);
            }
        }
        self.selectable_buf.clear();
        for r in &self.state.racks {
            // Racks bound to a closed station are withheld (no item is ever
            // committed toward a picker that cannot serve it), as are racks
            // removed from the floor.
            if r.selectable()
                && !self.state.closed[r.picker.index()]
                && !self.state.removed[r.id.index()]
            {
                self.selectable_buf.push(r.id);
            }
        }
        if self.idle_buf.is_empty() || self.selectable_buf.is_empty() {
            // The scans just computed the pools exactly — downgrade the
            // conservative flags to what they proved, so a quiescent floor
            // stops rescanning until something re-dirties them.
            self.maybe_idle = !self.idle_buf.is_empty();
            self.maybe_work = !self.selectable_buf.is_empty();
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
        while self.state.next_decision_fault < self.fault_plan.decision.len()
            && self.fault_plan.decision[self.state.next_decision_fault].0 <= t
        {
            let fault = self.fault_plan.decision[self.state.next_decision_fault].1;
            self.state.next_decision_fault += 1;
            planner.inject_fault(&fault);
        }
        let world = WorldView {
            t,
            racks: &self.state.racks,
            pickers: &self.state.pickers,
            robots: &self.state.robots,
            idle_robots: &self.idle_buf,
            selectable_racks: &self.selectable_buf,
            live_arrivals: &self.state.live_item_arrivals,
            backlog_depth: (self.instance.items.len() - self.state.next_item) as u64
                + self.state.backlog.len() as u64,
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
    /// [`Planner::plan_legs`], the same batched reservation-backed path the
    /// primary planner uses, so fallback trajectories stay conflict-checked
    /// like any other.
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
            if planner
                .plan_legs(&self.leg_requests, t, &mut self.leg_results)
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
        self.state.carried_orders[ai].clear();
        let pregenerated = self.instance.items.len();
        for id in items {
            if id.index() >= pregenerated {
                self.state.carried_orders[ai]
                    .push(self.state.live_item_orders[id.index() - pregenerated]);
            }
        }
        self.state.robots[ai].phase = RobotPhase::ToRack { rack };
        self.state.racks[rack.index()].in_flight = true;
        self.busy.insert(ai);
        self.arrival_agenda
            .push(std::cmp::Reverse((path.end(), ai as u32)));
        self.state.paths[ai] = Some(path);
    }

    /// Phase 5: advance robots along their paths; validate positions.
    ///
    /// Under the clean certificate only the busy set and the robots that
    /// left it this tick are visited: a robot that left was moved to its
    /// path's last cell in phase 3, and every other robot is idle, holds no
    /// path and stands where the last scan saw it, clear of every other
    /// robot and every blocked cell. The validator takes those robots alone
    /// ([`TrajectoryValidator::check_tick_delta`]) and the tick falls back
    /// to the full check if they conflict. A dirty tick scans the fleet.
    fn step_movement(&mut self, t: Tick) {
        let conflicts_before = self.state.validator.conflict_count();
        let violations_before = self.state.disruption_violations;
        if self.clean_scan {
            let busy = std::mem::take(&mut self.busy);
            self.touched_buf.clear();
            for ai in busy.iter_touched() {
                let pos = self.move_robot(ai, t);
                self.touched_buf.push((self.state.robots[ai].id, pos));
            }
            self.busy = busy;
            #[cfg(debug_assertions)]
            let (full_check, full_violations) = self.full_scan_shadow(t);
            if !self
                .state
                .validator
                .check_tick_delta(t, &self.touched_buf, &self.instance.grid)
            {
                self.collect_on_grid();
                self.state.validator.check_tick_fast(t, &self.on_grid_buf);
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
                if let Some(pos) = self.move_robot(ai, t) {
                    self.on_grid_buf.push((self.state.robots[ai].id, pos));
                }
            }
            self.state.validator.check_tick_fast(t, &self.on_grid_buf);
        }
        self.busy.end_tick();
        // A conflict or violation between robots that stand still is pushed
        // again every tick, so only a clean tick certifies the next.
        self.clean_scan = self.state.validator.conflict_count() == conflicts_before
            && self.state.disruption_violations == violations_before;
    }

    /// Move robot `ai` to its tick-`t` cell, accrue its busy and processing
    /// ticks, and count a violation if it stands on a blocked cell. Returns
    /// its cell, or `None` while it is docked off the grid.
    fn move_robot(&mut self, ai: usize, t: Tick) -> Option<GridPos> {
        if let Some(path) = &self.state.paths[ai] {
            self.state.robots[ai].pos = path.at(t);
        }
        let phase = self.state.robots[ai].phase;
        if phase.is_busy() {
            // Broken and outage-paused robots still count as *busy*
            // (Definition 3: committed to a fulfilment cycle — RWR's
            // denominator-side diagnostics should show the wasted time),
            // but the RWR numerator below only counts ticks the picker
            // actually works the rack.
            self.state.robots[ai].busy_ticks += 1;
            self.state.metrics.robot_busy_ticks[ai] += 1;
            if let RobotPhase::Processing { rack } = phase {
                if !self.state.closed[self.state.racks[rack.index()].picker.index()] {
                    self.state.metrics.robot_processing_ticks[ai] += 1;
                }
            }
        }
        if is_docked(phase) {
            return None;
        }
        // Blockade invariant: no robot trajectory may occupy a
        // disruption-blocked cell after its blockade tick.
        let pos = self.state.robots[ai].pos;
        if self.state.blocked_overlay[self.cell_index(pos)] {
            self.state.disruption_violations += 1;
        }
        Some(pos)
    }

    /// Fill `on_grid_buf` with every robot's on-grid cell.
    fn collect_on_grid(&mut self) {
        self.on_grid_buf.clear();
        self.on_grid_buf.extend(
            self.state
                .robots
                .iter()
                .filter(|r| !is_docked(r.phase))
                .map(|r| (r.id, r.pos)),
        );
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
        let mut full = TrajectoryValidator::new();
        full.import_snapshot(&self.state.validator.export_snapshot());
        full.check_tick_fast(t, &self.on_grid_buf);
        (full.export_snapshot(), violations)
    }

    /// Phase 6: metrics, checkpoints, reservation GC.
    fn step_bookkeeping(&mut self, t: Tick, planner: &mut dyn Planner) {
        let mut transport = 0u64;
        let mut queuing = 0u64;
        let mut processing = 0u64;
        // Every counted phase is a busy phase, so only the busy set is
        // walked. `record_bottleneck` is still fed every tick — the zero
        // buckets it creates are part of the deterministic fingerprint.
        for ai in self.busy.iter() {
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
        let depth = (self.instance.items.len() - self.state.next_item) as u64
            + self.state.backlog.len() as u64;
        self.state.peak_backlog = self.state.peak_backlog.max(depth);

        // Item-progress checkpoints (the x-axes of Figs. 10-12). The
        // denominator is the live order book — submissions minus
        // cancellations — which for a pregenerated run is exactly the
        // instance's item count.
        let total_items = (self.state.orders_submitted - self.state.orders_cancelled) as usize;
        let n = self.config.checkpoints.max(1);
        let threshold = (self.state.next_checkpoint * total_items) / n;
        if self.state.next_checkpoint <= n
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
            while self.state.next_checkpoint <= n
                && self.state.items_processed >= (self.state.next_checkpoint * total_items) / n
            {
                self.state.next_checkpoint += 1;
            }
        }

        // Poison faults land immediately before housekeeping, whose sweep
        // must detect, evict and recompute the corrupted entries — the
        // corruption never survives past this tick (and therefore never
        // crosses a snapshot boundary).
        while self.state.next_poison_fault < self.fault_plan.poison.len()
            && self.fault_plan.poison[self.state.next_poison_fault].0 <= t
        {
            let fault = self.fault_plan.poison[self.state.next_poison_fault].1;
            self.state.next_poison_fault += 1;
            planner.inject_fault(&fault);
        }

        planner.housekeeping(t);
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
            && self.busy.is_empty()
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
    /// an exported one and rebuild the agenda from it. The other derived
    /// fields keep their `new()` values, which are functions of the
    /// instance and config alone.
    pub fn restore_state(&mut self, state: &EngineState) {
        self.state = state.clone();
        self.rebuild_agenda();
    }

    /// Reconstruct the derived agenda from canonical state
    /// (see `docs/event-driven-ticking.md`): the arrival heap is exactly
    /// the set of active paths keyed by their end ticks, the counters are
    /// phase tallies, and the dirty flags start conservatively pessimistic
    /// — the first planning scan and movement scan converge them to the
    /// precise values, identically to a never-snapshotted run (the
    /// `agenda_reconstruction_matches_fresh` test pins this).
    fn rebuild_agenda(&mut self) {
        self.arrival_agenda.clear();
        for (ai, path) in self.state.paths.iter().enumerate() {
            if let Some(path) = path {
                self.arrival_agenda
                    .push(std::cmp::Reverse((path.end(), ai as u32)));
            }
        }
        (self.busy, self.docked_count) = self.phase_tallies();
        self.dirty_all();
    }

    /// Rebuild a mid-run engine + planner pair from an exported state.
    ///
    /// The restore protocol (documented in `docs/snapshot-format.md`):
    /// the planner is freshly `init`-ed on the instance, the applied-event
    /// journal is replayed through [`Planner::on_event`] to rebuild
    /// its derived world model (grid overlay, distance oracle, KNN
    /// liveness), and only then is its canonical state
    /// overwritten via [`Planner::import_snapshot`]. Do **not** call
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
        engine.restore_state(state);
        Ok(engine)
    }

    /// Order-sensitive FNV-1a hash over the binary encoding of the
    /// canonical engine state (streamed from the typed state; no value
    /// tree), with the wall-clock-contaminated fields
    /// (checkpoint `stc_s`/`ptc_s`/`memory_bytes`, the peak-memory
    /// counters) scrubbed to zero first — they legitimately differ between
    /// two replays of the same simulation. Two runs that agree on every
    /// `state_hash` along the way are simulation-identical; the first tick
    /// where the hashes differ is where they diverged.
    pub fn state_hash(&self) -> u64 {
        let mut state = self.export_state();
        state.peak_memory = 0;
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

/// Docked robots (queuing or processing) are in the station bay, off the
/// grid.
fn is_docked(phase: RobotPhase) -> bool {
    matches!(
        phase,
        RobotPhase::Queuing { .. } | RobotPhase::Processing { .. }
    )
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
mod tests {
    use super::test_support::small_instance;
    use super::*;
    use eatp_core::{EatpConfig, NaiveTaskPlanner};
    use tprw_warehouse::{LayoutConfig, ScenarioSpec, WorkloadConfig};

    #[test]
    fn ntp_completes_small_run() {
        let inst = small_instance(20, 42);
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        let report = run_simulation(&inst, &mut planner, &EngineConfig::default());
        assert!(report.completed, "small run must finish");
        assert_eq!(report.items_processed, 20);
        assert_eq!(report.executed_conflicts, 0, "no conflicts ever");
        assert!(report.makespan > 0);
        assert!(report.rack_trips > 0);
        assert!(report.ppr > 0.0 && report.ppr <= 1.0);
        assert!(report.rwr > 0.0 && report.rwr <= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = small_instance(15, 7);
        let mut p1 = NaiveTaskPlanner::new(EatpConfig::default());
        let mut p2 = NaiveTaskPlanner::new(EatpConfig::default());
        let r1 = run_simulation(&inst, &mut p1, &EngineConfig::default());
        let r2 = run_simulation(&inst, &mut p2, &EngineConfig::default());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.rack_trips, r2.rack_trips);
    }

    #[test]
    fn checkpoints_are_monotone() {
        let inst = small_instance(30, 13);
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        let report = run_simulation(&inst, &mut planner, &EngineConfig::default());
        assert!(!report.checkpoints.is_empty());
        for w in report.checkpoints.windows(2) {
            assert!(w[0].t <= w[1].t);
            assert!(w[0].items_processed <= w[1].items_processed);
            assert!(w[0].stc_s <= w[1].stc_s, "STC is cumulative");
            assert!(w[0].ptc_s <= w[1].ptc_s, "PTC is cumulative");
        }
    }

    #[test]
    fn tick_budget_guards_livelock() {
        let inst = small_instance(20, 42);
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        let config = EngineConfig::builder()
            .max_ticks(3) // absurdly small
            .build()
            .unwrap();
        let report = run_simulation(&inst, &mut planner, &config);
        assert!(!report.completed);
        assert!(report.items_processed < 20);
    }

    fn run_default(inst: &Instance) -> SimulationReport {
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        run_simulation(inst, &mut planner, &EngineConfig::default())
    }

    #[test]
    fn fleet_wide_breakdown_stalls_then_completes() {
        use tprw_warehouse::{DisruptionEvent, TimedEvent};
        let mut inst = small_instance(20, 42);
        let baseline = run_default(&inst);
        // Every robot fails at tick 5 and recovers at tick 400: nothing can
        // be picked up in between, so the run must outlast the outage yet
        // still complete with zero safety violations.
        for (i, _) in inst.robots.iter().enumerate() {
            inst.disruptions.push(TimedEvent {
                t: 5,
                event: DisruptionEvent::RobotBreakdown {
                    robot: RobotId::new(i),
                },
            });
        }
        for (i, _) in inst.robots.iter().enumerate() {
            inst.disruptions.push(TimedEvent {
                t: 400,
                event: DisruptionEvent::RobotRecover {
                    robot: RobotId::new(i),
                },
            });
        }
        let report = run_default(&inst);
        assert!(report.completed, "fleet must recover and finish");
        assert_eq!(report.items_processed, 20);
        assert_eq!(report.executed_conflicts, 0);
        assert_eq!(report.disruption_violations, 0);
        assert_eq!(report.events_applied, 2 * inst.robots.len());
        assert!(
            report.makespan > baseline.makespan.max(399),
            "outage must delay completion: {} vs baseline {}",
            report.makespan,
            baseline.makespan
        );
    }

    #[test]
    fn station_outage_pauses_processing() {
        use tprw_warehouse::{DisruptionEvent, PickerId, TimedEvent};
        let mut inst = small_instance(20, 42);
        // All stations close before any item can be processed and reopen at
        // tick 300: no processing can finish earlier.
        for pi in 0..inst.pickers.len() {
            inst.disruptions.push(TimedEvent {
                t: 0,
                event: DisruptionEvent::StationClosed {
                    picker: PickerId::new(pi),
                },
            });
        }
        for pi in 0..inst.pickers.len() {
            inst.disruptions.push(TimedEvent {
                t: 300,
                event: DisruptionEvent::StationReopened {
                    picker: PickerId::new(pi),
                },
            });
        }
        let report = run_default(&inst);
        assert!(report.completed);
        assert_eq!(report.disruption_violations, 0);
        assert!(
            report.makespan > 300,
            "nothing can finish while every station is closed (makespan {})",
            report.makespan
        );
        // The bottleneck trace must show zero processing before reopening.
        for b in report.bottleneck.iter().filter(|b| b.t < 280) {
            assert_eq!(b.processing, 0, "processing during outage at t={}", b.t);
        }
    }

    #[test]
    fn blockade_on_occupied_cell_defers_until_clear() {
        use tprw_warehouse::{DisruptionEvent, TimedEvent};
        let mut inst = small_instance(20, 42);
        // Blockade the spawn cell of robot 0 at tick 0 — occupied, so it
        // must defer until the robot departs, and no robot may ever stand
        // on it afterwards (pinned by disruption_violations == 0).
        let pos = inst.robots[0].pos;
        inst.disruptions.push(TimedEvent {
            t: 0,
            event: DisruptionEvent::CellBlocked { pos },
        });
        inst.disruptions.push(TimedEvent {
            t: 100_000,
            event: DisruptionEvent::CellUnblocked { pos },
        });
        let report = run_default(&inst);
        assert!(report.completed);
        assert_eq!(report.executed_conflicts, 0);
        assert_eq!(report.disruption_violations, 0);
        assert!(
            report.events_applied >= 1,
            "the deferred blockade must land once the spawn cell clears"
        );
        assert!(
            report.events_deferred >= 1,
            "the spawn cell is occupied at tick 0, so the blockade defers"
        );
    }

    #[test]
    fn rack_removal_withholds_selection_until_restore() {
        use tprw_warehouse::{DisruptionEvent, TimedEvent};
        let mut inst = small_instance(20, 42);
        // Every rack leaves the floor before the first item can emerge and
        // returns at tick 300: no fulfilment cycle can *start* in between,
        // so completion must outlast the restoration, with zero violations
        // (the planner never names a removed rack).
        for i in 0..inst.racks.len() {
            inst.disruptions.push(TimedEvent {
                t: 0,
                event: DisruptionEvent::RackRemoved {
                    rack: RackId::new(i),
                },
            });
        }
        for i in 0..inst.racks.len() {
            inst.disruptions.push(TimedEvent {
                t: 300,
                event: DisruptionEvent::RackRestored {
                    rack: RackId::new(i),
                },
            });
        }
        let report = run_default(&inst);
        assert!(report.completed, "restoration must unblock the floor");
        assert_eq!(report.items_processed, 20);
        assert_eq!(report.disruption_violations, 0);
        assert_eq!(report.events_applied, 2 * inst.racks.len());
        assert!(
            report.makespan > 300,
            "nothing can be fetched while every rack is removed (makespan {})",
            report.makespan
        );
    }

    #[test]
    fn rack_removal_defers_while_in_flight() {
        use tprw_warehouse::{DisruptionEvent, TimedEvent};
        let inst = small_instance(20, 42);
        // Find a tick at which some rack is in flight on the clean run, then
        // schedule its removal exactly then: the removal must defer until
        // the robot brings the rack home, and the run still completes with
        // every item served (the in-flight batch is never lost).
        let baseline = run_default(&inst);
        assert!(baseline.rack_trips > 0);
        let mut disrupted = inst.clone();
        // Rack trips exist, so some rack is in flight in the first half of
        // the run; removing *all* racks mid-run guarantees at least one
        // removal hits an in-flight rack and must defer.
        let mid = baseline.makespan / 2;
        for i in 0..disrupted.racks.len() {
            disrupted.disruptions.push(TimedEvent {
                t: mid,
                event: DisruptionEvent::RackRemoved {
                    rack: RackId::new(i),
                },
            });
        }
        for i in 0..disrupted.racks.len() {
            disrupted.disruptions.push(TimedEvent {
                t: mid + 200,
                event: DisruptionEvent::RackRestored {
                    rack: RackId::new(i),
                },
            });
        }
        let report = run_default(&disrupted);
        assert!(report.completed);
        assert_eq!(report.items_processed, 20, "in-flight batches survive");
        assert_eq!(report.disruption_violations, 0);
        assert_eq!(report.executed_conflicts, 0);
        assert_eq!(
            report.events_applied,
            2 * disrupted.racks.len(),
            "every removal eventually lands (deferred ones included)"
        );
        assert!(
            report.events_deferred > 0,
            "some rack must have been in flight mid-run, so the deferral \
             path must actually run"
        );
    }

    #[test]
    fn terminal_rack_removal_is_legal_and_run_completes_when_demand_allows() {
        use tprw_warehouse::{DisruptionEvent, TimedEvent};
        let mut inst = small_instance(6, 42);
        // Find a rack that never receives an item, remove it forever (no
        // paired restore — legal per the events module's terminal rule):
        // the run must validate and complete with every item served.
        let demanded: std::collections::HashSet<usize> =
            inst.items.iter().map(|i| i.rack.index()).collect();
        let idle_rack = (0..inst.racks.len())
            .find(|i| !demanded.contains(i))
            .expect("some rack has no demand at 6 items over 10 racks");
        inst.disruptions.push(TimedEvent {
            t: 3,
            event: DisruptionEvent::RackRemoved {
                rack: RackId::new(idle_rack),
            },
        });
        inst.validate()
            .expect("terminal removal is a legal schedule");
        let report = run_default(&inst);
        assert!(report.completed, "no demand on the removed rack");
        assert_eq!(report.items_processed, 6);
        assert_eq!(report.disruption_violations, 0);
        assert_eq!(report.events_applied, 1);

        // Removing a *demanded* rack forever keeps the run safe but
        // incomplete: its items can never be fulfilled (the documented
        // workload caveat of the terminal rule).
        let mut starved = small_instance(6, 42);
        let victim = *demanded.iter().min().unwrap();
        starved.disruptions.push(TimedEvent {
            t: 0,
            event: DisruptionEvent::RackRemoved {
                rack: RackId::new(victim),
            },
        });
        starved.validate().unwrap();
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        let config = EngineConfig::builder().max_ticks(2_000).build().unwrap();
        let report = run_simulation(&starved, &mut planner, &config);
        assert!(!report.completed, "starved demand cannot complete");
        assert!(report.items_processed < 6);
        assert_eq!(report.disruption_violations, 0, "still safe");
    }

    #[test]
    fn disrupted_run_is_deterministic() {
        use tprw_warehouse::DisruptionConfig;
        let spec = ScenarioSpec {
            name: "engine-disrupted".into(),
            layout: LayoutConfig::sized(24, 16),
            n_racks: 10,
            n_robots: 4,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(25, 0.5),
            disruptions: Some(DisruptionConfig {
                breakdowns: 2,
                breakdown_ticks: (30, 80),
                blockades: 2,
                blockade_ticks: (40, 90),
                closures: 1,
                closure_ticks: (30, 60),
                removals: 2,
                removal_ticks: (30, 60),
                window: (10, 120),
            }),
            seed: 7,
        };
        let inst = spec.build().unwrap();
        assert!(!inst.disruptions.is_empty());
        let r1 = run_default(&inst);
        let r2 = run_default(&spec.build().unwrap());
        assert!(r1.completed);
        assert_eq!(r1.disruption_violations, 0);
        assert_eq!(
            r1.deterministic_fingerprint(),
            r2.deterministic_fingerprint(),
            "same spec + seed must replay bit-identically"
        );
        assert!(r1.events_applied > 0);
    }

    #[test]
    fn bottleneck_trace_covers_run() {
        let inst = small_instance(25, 99);
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        let report = run_simulation(&inst, &mut planner, &EngineConfig::default());
        assert!(!report.bottleneck.is_empty());
        let total: u64 = report
            .bottleneck
            .iter()
            .map(|b| b.transport + b.queuing + b.processing)
            .sum();
        assert!(total > 0, "robots did spend time in the cycle");
    }

    /// A planner that drives robots into conflicts on purpose: two robots
    /// enter one cell on the same tick, two swap cells, and the first two
    /// return legs end on one cell, the first after standing there for a
    /// while. Every leg walks an L-shaped route from where its robot
    /// stands.
    struct CollidingPlanner {
        planned: bool,
        /// The cell each robot's latest path ends on.
        ends: std::collections::HashMap<RobotId, GridPos>,
        returns_planned: usize,
    }

    /// The cell where both of the first two return legs end.
    const SHARED_HOME: GridPos = GridPos::new(20, 12);

    impl CollidingPlanner {
        /// A path from `from` starting at `start` that waits in place, walks
        /// an L-shaped route to `to` so as to stand there at tick `at`
        /// (`None`: as early as possible), then visits `then` one cell per
        /// tick.
        fn walk(
            &mut self,
            robot: RobotId,
            start: Tick,
            from: GridPos,
            to: GridPos,
            at: Option<Tick>,
            then: &[GridPos],
        ) -> Path {
            let mut route = vec![from];
            let mut p = from;
            while p.x != to.x {
                p.x = if p.x < to.x { p.x + 1 } else { p.x - 1 };
                route.push(p);
            }
            while p.y != to.y {
                p.y = if p.y < to.y { p.y + 1 } else { p.y - 1 };
                route.push(p);
            }
            let waits = at.map_or(0, |at| (at - start) as usize + 1 - route.len());
            let mut cells = vec![from; waits];
            cells.extend(route);
            cells.extend_from_slice(then);
            let path = Path { start, cells };
            self.ends.insert(robot, path.last());
            path
        }
    }

    impl Planner for CollidingPlanner {
        fn name(&self) -> &'static str {
            "COLLIDE"
        }

        fn init(&mut self, _instance: &Instance) {}

        fn plan(
            &mut self,
            world: &WorldView<'_>,
        ) -> Result<Vec<eatp_core::planner::AssignmentPlan>, eatp_core::PlannerError> {
            if self.planned {
                return Ok(Vec::new());
            }
            self.planned = true;
            let p = GridPos::new;
            // (approach cell, then): robots 0 and 1 both step onto (11, 8)
            // at tick 41; robots 2 and 3 swap (5, 3) and (6, 3) at 40 → 41.
            let script = [
                (p(10, 8), vec![p(11, 8), p(12, 8)]),
                (p(11, 7), vec![p(11, 8), p(11, 9)]),
                (p(5, 3), vec![p(6, 3)]),
                (p(6, 3), vec![p(5, 3)]),
            ];
            let mut plans = Vec::new();
            for ((&robot, &rack), (to, then)) in world
                .idle_robots
                .iter()
                .zip(world.selectable_racks)
                .zip(script)
            {
                let from = world.robots[robot.index()].pos;
                let path = self.walk(robot, world.t, from, to, Some(40), &then);
                plans.push(eatp_core::planner::AssignmentPlan { robot, rack, path });
            }
            Ok(plans)
        }

        fn plan_leg(
            &mut self,
            robot: RobotId,
            from: GridPos,
            to: GridPos,
            start: Tick,
            park: bool,
        ) -> Option<Path> {
            if !park {
                let here = self.ends[&robot];
                return Some(self.walk(robot, start, here, to, None, &[]));
            }
            self.returns_planned += 1;
            Some(match self.returns_planned {
                1 => self.walk(robot, start, from, SHARED_HOME, None, &[SHARED_HOME; 30]),
                2 => self.walk(robot, start, from, SHARED_HOME, None, &[]),
                _ => self.walk(robot, start, from, to, None, &[]),
            })
        }

        fn on_dock(&mut self, _robot: RobotId) {}

        fn housekeeping(&mut self, _t: Tick) {}

        fn stats(&self) -> eatp_core::PlannerStats {
            eatp_core::PlannerStats::default()
        }
    }

    /// The engine counts executed conflicts exactly as the seed
    /// `check_tick` does over the same per-tick positions: conflicts while
    /// moving, a swap, and a vertex conflict between robots standing still,
    /// counted once per tick it lasts.
    #[test]
    fn executed_conflicts_match_the_seed_check() {
        let mut inst = small_instance(4, 42);
        inst.items = (0..4)
            .map(|i| Item {
                id: ItemId::new(i),
                rack: RackId::new(i),
                arrival: 0,
                processing: 2,
            })
            .collect();
        let mut planner = CollidingPlanner {
            planned: false,
            ends: std::collections::HashMap::new(),
            returns_planned: 0,
        };
        let config = EngineConfig::builder().max_ticks(500).build().unwrap();
        let mut engine = Engine::new(&inst, &config);
        engine.start(&mut planner);
        let mut seed = TrajectoryValidator::new();
        while !engine.is_finished() {
            let t = engine.current_tick();
            engine.tick_once(&mut planner);
            let positions: Vec<(RobotId, GridPos)> = engine
                .export_state()
                .robots
                .iter()
                .filter(|r| !is_docked(r.phase))
                .map(|r| (r.id, r.pos))
                .collect();
            seed.check_tick(t, &positions);
        }
        let report = engine.report(&mut planner);
        assert!(report.completed, "every scripted cycle finishes");
        assert_eq!(report.executed_conflicts, seed.conflict_count());

        use crate::validate::ExecutedConflict;
        let at = |cell: GridPos| {
            seed.conflicts
                .iter()
                .filter(|c| matches!(c, ExecutedConflict::Vertex { pos, .. } if *pos == cell))
                .count()
        };
        assert!(
            at(GridPos::new(11, 8)) >= 1,
            "two robots step onto one cell"
        );
        assert!(
            seed.conflicts
                .iter()
                .any(|c| matches!(c, ExecutedConflict::Edge { t: 40, .. })),
            "two robots swap"
        );
        assert!(
            at(SHARED_HOME) >= 3,
            "two robots stand on one cell for several ticks"
        );
    }

    fn chaos_config(fault_seed: u64) -> EngineConfig {
        EngineConfig::builder()
            .faults(crate::faults::FaultConfig::chaos(fault_seed, (5, 150)))
            .degradation(crate::faults::DegradationPolicy {
                enabled: true,
                max_expansions_per_tick: 0,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn injected_faults_degrade_gracefully_and_stay_safe() {
        let inst = small_instance(25, 42);
        let config = chaos_config(1234);
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        let report = run_simulation(&inst, &mut planner, &config);
        assert!(report.completed, "faults must not wedge the run");
        assert_eq!(report.executed_conflicts, 0, "fallback plans stay safe");
        assert!(report.planner_errors > 0, "injected errors must surface");
        assert!(report.degraded_ticks > 0, "errors must degrade ticks");
        assert!(
            report.fallback_assignments > 0,
            "the greedy fallback must commit work on degraded ticks"
        );

        // Same fault seed, fresh planner: bit-identical replay, injected
        // degradations included.
        let mut p2 = NaiveTaskPlanner::new(EatpConfig::default());
        let r2 = run_simulation(&inst, &mut p2, &config);
        assert_eq!(
            report.deterministic_fingerprint(),
            r2.deterministic_fingerprint(),
            "fault injection must be seed-deterministic"
        );
    }

    #[test]
    fn faults_off_means_zero_degraded_ticks_and_unchanged_run() {
        let inst = small_instance(20, 7);
        let mut p1 = NaiveTaskPlanner::new(EatpConfig::default());
        let clean = run_simulation(&inst, &mut p1, &EngineConfig::default());
        assert_eq!(clean.degraded_ticks, 0);
        assert_eq!(clean.fallback_assignments, 0);
        assert_eq!(clean.planner_errors, 0);

        // Arming the degradation policy without faults (and without an
        // expansion budget) must not perturb the run at all.
        let armed = EngineConfig::builder()
            .degradation(crate::faults::DegradationPolicy {
                enabled: true,
                max_expansions_per_tick: 0,
            })
            .build()
            .unwrap();
        let mut p2 = NaiveTaskPlanner::new(EatpConfig::default());
        let r2 = run_simulation(&inst, &mut p2, &armed);
        assert_eq!(
            clean.deterministic_fingerprint(),
            r2.deterministic_fingerprint(),
            "an idle degradation policy is a no-op"
        );
    }

    #[test]
    fn expansion_budget_overrun_degrades_next_planning_tick() {
        let inst = small_instance(25, 13);
        let config = EngineConfig::builder()
            .degradation(crate::faults::DegradationPolicy {
                enabled: true,
                max_expansions_per_tick: 1,
            })
            .build()
            .unwrap();
        let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
        let report = run_simulation(&inst, &mut planner, &config);
        assert!(report.completed, "budget pressure must not wedge the run");
        assert_eq!(report.executed_conflicts, 0);
        assert!(
            report.degraded_ticks > 0,
            "a one-expansion budget must trip the overrun latch"
        );
        assert_eq!(
            report.planner_errors, 0,
            "budget overruns degrade without counting as planner errors"
        );

        let mut p2 = NaiveTaskPlanner::new(EatpConfig::default());
        let r2 = run_simulation(&inst, &mut p2, &config);
        assert_eq!(
            report.deterministic_fingerprint(),
            r2.deterministic_fingerprint()
        );
    }
}
