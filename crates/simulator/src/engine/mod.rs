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
use eatp_core::planner::{resumed_reservations, LegRequest, Planner};
use schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::iter::zip;
use tprw_pathfinding::cdt::MAX_CDT_TICK;
use tprw_pathfinding::reservation::MAX_PARK_TICK;
use tprw_pathfinding::{Conflict, Path};
use tprw_warehouse::{
    DisruptionEvent, DisruptionFlags, Duration, GridPos, Instance, OrderId, Picker, Rack, RackId,
    Robot, RobotId, RobotPhase, Tick, TimedEvent,
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
    /// planner's derived world model (grid overlay, oracle), and folded
    /// into the engine's disruption flags (ADR-041).
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
    /// Robots whose rack finished processing, awaiting a return path.
    pub needs_return: Vec<RobotId>,
    /// Robots parked at a rack home waiting for a delivery path.
    pub needs_delivery: Vec<RobotId>,
    /// Robots whose active leg was cancelled by a disruption (breakdown
    /// recovery, blockade invalidation), awaiting a fresh path from their
    /// frozen position.
    pub needs_replan: Vec<RobotId>,
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
            next_checkpoint: 1,
            carried_orders: vec![Vec::new(); n_robots],
            // The pregenerated item list is an order book submitted at
            // tick 0 — counting it here is what keeps the order counters
            // identical between a live run and its pregenerated equivalent.
            orders_submitted: instance.items.len() as u64,
            ..Self::default()
        }
    }

    /// The one statement of the mid-run states an engine on `instance`
    /// accepts (`docs/adr/ADR-039-one-resume-path.md`):
    /// [`resume_from`](crate::snapshot::resume_from) refuses every other. The
    /// engine and the resumed planner index, count and assert by these facts
    /// without checks of their own. The clauses, in the order checked:
    ///
    /// 1. the per-robot, per-picker, per-rack and per-cell tables have the
    ///    lengths [`EngineState::new`] gives them (the live arrivals that of
    ///    the live orders), and the racks, pickers and robots keep the
    ///    instance's ids, homes, pickers and stations;
    /// 2. the item and checkpoint cursors and the cancelled orders lie
    ///    within what they count, and each backlog entry was submitted by `t`
    ///    and arrives no earlier than it was submitted;
    /// 3. the robots and active-path cells lie on the grid;
    /// 4. an idle robot stands on a rack home or its own spawn cell, the
    ///    cells EATP's K-nearest index lists (ADR-025);
    /// 5. the robot, rack and item ids of the pending-leg lists, backlog,
    ///    phases, picker queues, served entries and pending items name
    ///    entities of the run;
    /// 6. no robot is named twice by the pending-leg lists, the picker queues
    ///    and the served entries, and a queued or served entry's robot is
    ///    docked with the entry's rack;
    /// 7. the reservations a resumed planner rebuilds
    ///    ([`resumed_reservations`], ADR-033) fit the tables' tick encodings:
    ///    an active path holds a cell, starts by `t` and ends by
    ///    `MAX_CDT_TICK`, and a park starts by `MAX_PARK_TICK`;
    /// 8. the legs keep [`TrajectoryValidator`]'s conflict rule (ADR-037):
    ///    one full check at `t − 1`, then one check per tick of the robots on
    ///    a leg to the last end + 1, refusing the first vertex ("meets") or
    ///    swap ("swaps") conflict;
    /// 9. only a travelling robot holds a path, and its leg ends at its goal:
    ///    the rack's home, or for `ToStation` the rack's picker's cell;
    /// 10. a leg is a walk (Definition 5): each step waits or moves to a
    ///     4-adjacent cell, and each cell is passable;
    /// 11. the journal, then the deferred blockades and removals, then the
    ///     events the schedule has yet to apply fold from no disruption
    ///     through [`DisruptionFlags::admits`]: each names an entity of the
    ///     run and flips its flag (ADR-041; a scheduled event refused is
    ///     the journal's fault, as the schedule passed `validate_events`);
    /// 12. no rack is named by two robots' phases, as the schedule's
    ///     in-flight racks are the racks the phases name (ADR-042).
    pub fn check(&self, instance: &Instance) -> Result<(), String> {
        let (robots, pickers) = (instance.robots.len(), instance.pickers.len());
        let (racks, grid) = (instance.racks.len(), &instance.grid);
        let n_cells = grid.cell_count();
        let tables = [
            ("robots", self.robots.len(), robots),
            ("paths", self.paths.len(), robots),
            ("carried_work", self.carried_work.len(), robots),
            ("carried_items", self.carried_items.len(), robots),
            ("carried_orders", self.carried_orders.len(), robots),
            ("pickers", self.pickers.len(), pickers),
            ("racks", self.racks.len(), racks),
            (
                "live_item_arrivals",
                self.live_item_arrivals.len(),
                self.live_item_orders.len(),
            ),
        ];
        if let Some((table, len, expected)) = tables.into_iter().find(|&(_, l, e)| l != e) {
            return Err(format!(
                "engine table `{table}` has {len} entries, the instance needs {expected}"
            ));
        }
        let racks_fit = zip(&self.racks, &instance.racks)
            .all(|(r, i)| (r.id, r.home, r.picker) == (i.id, i.home, i.picker));
        let pickers_fit =
            zip(&self.pickers, &instance.pickers).all(|(p, i)| (p.id, p.pos) == (i.id, i.pos));
        let robots_fit = zip(&self.robots, &instance.robots).all(|(r, i)| r.id == i.id);
        let fits = [
            ("racks", racks_fit),
            ("pickers", pickers_fit),
            ("robots", robots_fit),
        ];
        if let Some((table, _)) = fits.into_iter().find(|&(_, fit)| !fit) {
            return Err(format!(
                "engine table `{table}` differs from the instance's ids, homes, pickers or stations"
            ));
        }
        let pregenerated = instance.items.len();
        let counters = [
            ("next_item", self.next_item as u64, 0..=pregenerated as u64),
            (
                "next_checkpoint",
                self.next_checkpoint as u64,
                1..=CHECKPOINTS as u64 + 1,
            ),
            (
                "orders_cancelled",
                self.orders_cancelled,
                0..=self.orders_submitted,
            ),
        ];
        if let Some((field, at, range)) = counters.into_iter().find(|(_, at, r)| !r.contains(at)) {
            return Err(format!("engine field `{field}` is {at}, outside {range:?}"));
        }
        let early = (self.backlog.iter()).find(|o| o.submitted > self.t || o.arrival < o.submitted);
        if let Some(o) = early {
            return Err(format!(
                "engine table `backlog` holds {} submitted at tick {} to arrive at {}; the slice is at tick {}",
                o.order, o.submitted, o.arrival, self.t
            ));
        }
        let mut cells = (self.robots.iter().map(|r| ("robots", r.pos))).chain(
            (self.paths.iter().flatten()).flat_map(|p| p.cells.iter().map(|&c| ("paths", c))),
        );
        if let Some((table, pos)) = cells.find(|&(_, pos)| !grid.in_bounds(pos)) {
            return Err(format!(
                "engine table `{table}` names cell {pos}, off the instance's {}×{} grid",
                grid.width(),
                grid.height()
            ));
        }
        let mut home = vec![false; n_cells];
        for rack in &instance.racks {
            home[rack.home.to_index(grid.width())] = true;
        }
        let stray = zip(&self.robots, &instance.robots).find(|(r, spawn)| {
            r.is_idle() && r.pos != spawn.pos && !home[r.pos.to_index(grid.width())]
        });
        if let Some((robot, _)) = stray {
            return Err(format!(
                "engine table `robots` has idle {} at {}, neither a rack home nor its spawn cell",
                robot.id, robot.pos
            ));
        }
        let robot_lists = [
            ("needs_return", &self.needs_return),
            ("needs_delivery", &self.needs_delivery),
            ("needs_replan", &self.needs_replan),
        ];
        let listed =
            (robot_lists.into_iter()).flat_map(|(table, ids)| ids.iter().map(move |&r| (table, r)));
        let robot_ids = listed
            .clone()
            .map(|(table, r)| (table, "robot", r.index(), robots));
        let served = self
            .pickers
            .iter()
            .flat_map(|p| p.serving.iter().chain(&p.queue));
        let entries = served.map(|e| ("pickers", e));
        let backlog = self.backlog.iter().map(|o| ("backlog", o.rack));
        let phases = (self.robots.iter()).filter_map(|r| Some(("robots", r.phase.rack()?)));
        let rack_ids = (backlog.chain(phases))
            .chain(entries.clone().map(|(table, e)| (table, e.rack)))
            .map(|(table, r)| (table, "rack", r.index(), racks));
        let entry_robots =
            (entries.clone()).map(|(table, e)| (table, "robot", e.robot.index(), robots));
        let items = instance.items.len() + self.live_item_orders.len();
        let pending = self.racks.iter().flat_map(|r| &r.pending);
        let item_ids = pending.map(|i| ("racks", "item", i.index(), items));
        let mut ids = (robot_ids.chain(entry_robots).chain(rack_ids)).chain(item_ids);
        if let Some((table, kind, id, count)) = ids.find(|&(_, _, id, count)| id >= count) {
            return Err(format!(
                "engine table `{table}` names {kind} {id}, outside the instance's {count} {kind}s"
            ));
        }
        let mut named = vec![false; robots];
        let seated = entries.map(|(table, e)| (table, e.robot, Some(e.rack)));
        for (table, id, rack) in listed.map(|(table, r)| (table, r, None)).chain(seated) {
            if std::mem::replace(&mut named[id.index()], true) {
                return Err(format!("engine table `{table}` names {id} a second time"));
            }
            let phase = self.robots[id.index()].phase;
            if rack.is_some_and(|rack| !phase.is_docked() || phase.rack() != Some(rack)) {
                return Err(format!(
                    "engine table `{table}` holds {id}, not docked with its rack"
                ));
            }
        }
        let t = self.t;
        let refuse = |what: String| Err(format!("engine table `paths` {what}"));
        let (mut legs, mut parks) = (Vec::new(), Vec::new());
        for (ai, (robot, path)) in zip(&self.robots, &self.paths).enumerate() {
            let id = robot.id;
            if let Some(p) = path {
                if p.cells.is_empty() {
                    return refuse(format!("has {id} on no cell"));
                }
                if p.start > t {
                    return refuse(format!("starts {id} at tick {}, after tick {t}", p.start));
                }
                if p.start.saturating_add(p.cells.len() as Tick - 1) > MAX_CDT_TICK {
                    return refuse(format!("ends {id}'s path past tick {MAX_CDT_TICK}"));
                }
            }
            let (ahead, park) = resumed_reservations(t, robot, path.as_ref());
            parks.extend(park.map(|(_, from)| (id, from)));
            legs.extend(ahead.map(|ahead| (ai, ahead, park.map(|(pos, _)| pos))));
        }
        if let Some((id, from)) = parks.into_iter().find(|&(_, from)| from > MAX_PARK_TICK) {
            return refuse(format!("parks {id} at tick {from}, past {MAX_PARK_TICK}"));
        }
        let mut cells: Vec<Option<GridPos>> = (self.robots.iter())
            .map(|r| (!r.phase.is_docked()).then_some(r.pos))
            .collect();
        let on_grid = |cells: &[Option<GridPos>]| -> Vec<(RobotId, GridPos)> {
            zip(&self.robots, cells)
                .filter_map(|(r, &c)| Some((r.id, c?)))
                .collect()
        };
        let mut validator = TrajectoryValidator::new();
        if let Some(before) = t.checked_sub(1) {
            validator.check_tick(before, &on_grid(&cells), grid);
        }
        let last = (legs.iter()).map(|(_, ahead, _)| ahead.end() + 1).max();
        let mut touched = Vec::with_capacity(legs.len());
        for tick in t..=last.unwrap_or(t) {
            if !validator.conflicts.is_empty() {
                break;
            }
            legs.retain(|(_, ahead, _)| ahead.end() + 1 >= tick);
            touched.clear();
            for (ai, ahead, park) in &legs {
                cells[*ai] = (tick <= ahead.end()).then(|| ahead.at(tick)).or(*park);
                touched.push((self.robots[*ai].id, cells[*ai]));
            }
            if !validator.check_tick_delta(tick, &touched, grid) {
                validator.check_tick(tick, &on_grid(&cells), grid);
            }
        }
        if let Some(&conflict) = validator.conflicts.first() {
            return refuse(match conflict {
                Conflict::Vertex { pos, t, a, b } => {
                    format!("meets {a} and {b} on {pos} at tick {t}")
                }
                Conflict::Edge { from, to, t, a, b } => {
                    format!("swaps {a} and {b} between {from} and {to} from tick {t}")
                }
            });
        }
        for (robot, path) in zip(&self.robots, &self.paths) {
            let (id, Some(p)) = (robot.id, path) else {
                continue;
            };
            let rack = |rack: RackId| &self.racks[rack.index()];
            let goal = match robot.phase {
                RobotPhase::ToRack { rack: r } | RobotPhase::Returning { rack: r } => rack(r).home,
                RobotPhase::ToStation { rack: r } => self.pickers[rack(r).picker.index()].pos,
                _ => return refuse(format!("holds a path for {id}, which is on no leg")),
            };
            if p.last() != goal {
                return refuse(format!(
                    "ends {id}'s leg on {}, not at its goal {goal}",
                    p.last()
                ));
            }
            if let Some(w) = p.cells.windows(2).find(|w| w[0].manhattan(w[1]) > 1) {
                return refuse(format!("moves {id} from {} to {}, not a step", w[0], w[1]));
            }
            if let Some(c) = p.cells.iter().find(|&&c| !grid.passable(c)) {
                return refuse(format!("puts {id} on {c}, which is not passable"));
            }
        }
        let journal = self.journal.iter().map(|e| ("journal", e.event));
        let blockades = (self.deferred_blockades.iter())
            .map(|&pos| ("deferred_blockades", DisruptionEvent::CellBlocked { pos }));
        let removals = (self.deferred_removals.iter())
            .map(|&rack| ("deferred_removals", DisruptionEvent::RackRemoved { rack }));
        let scheduled = instance.disruptions[self.next_event(instance)..].iter();
        let scheduled = scheduled.map(|e| ("journal", e.event));
        let mut flags = DisruptionFlags::new(grid, robots, pickers, racks);
        let mut events = journal.chain(blockades).chain(removals).chain(scheduled);
        if let Some((table, event)) = events.find(|&(_, event)| flags.fold([event]).is_err()) {
            return Err(format!(
                "engine table `{table}` leaves `{}` nesting, undoing nothing or naming no entity",
                event.label()
            ));
        }
        let mut carried = vec![false; racks];
        let mut phases = self.robots.iter().filter_map(|r| r.phase.rack());
        match phases.find(|r| std::mem::replace(&mut carried[r.index()], true)) {
            Some(rack) => Err(format!("engine table `robots` names {rack} in two phases")),
            None => Ok(()),
        }
    }

    /// The cursor into `instance.disruptions` (derived, ADR-041): the events
    /// at or before the last executed tick were consumed, which is `t − 1`
    /// mid-run and `t` once finished.
    fn next_event(&self, instance: &Instance) -> usize {
        let executed = |e: &TimedEvent| e.t < self.t || (self.finished && e.t == self.t);
        instance.disruptions.partition_point(executed)
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
    /// The disruption flags in force, the journal's fold, and the cursor
    /// into the instance's disruption schedule (ADR-041).
    flags: DisruptionFlags<'a>,
    next_event: usize,
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
        let (n_robots, n_pickers) = (instance.robots.len(), instance.pickers.len());
        let flags = DisruptionFlags::new(&instance.grid, n_robots, n_pickers, instance.racks.len());
        let state = EngineState::new(instance);
        let mut schedule = Schedule::default();
        schedule.rebuild(&state);
        Self {
            state,
            schedule,
            flags,
            next_event: 0,
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
    /// [`resume_from`](crate::snapshot::resume_from) instead.
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

    /// All items arrived, fulfilled, and every robot idle again. In live
    /// mode the floor being momentarily drained is not completion — more
    /// orders may arrive — so a shutdown must have been accepted too.
    fn is_done(&self) -> bool {
        self.state.next_item == self.instance.items.len()
            && self.state.backlog.is_empty()
            && (!self.config.live || self.state.shutdown)
            && self.state.racks.iter().all(|r| !r.has_pending())
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

    /// The engine resumed from `state`, which
    /// [`resume_from`](crate::snapshot::resume_from) checked and handed the
    /// planner first: the validator restarts its previous check from the
    /// robots on the grid at `t − 1`, and the schedule, the disruption flags
    /// and the event cursor are rebuilt.
    pub(crate) fn resumed(
        instance: &'a Instance,
        config: &EngineConfig,
        state: EngineState,
    ) -> Self {
        let mut engine = Engine::new(instance, config);
        let journal = state.journal.iter().map(|e| e.event);
        let folded = engine.flags.fold(journal);
        folded.expect("EngineState::check folds the journal");
        engine.next_event = state.next_event(instance);
        engine.state = state;
        engine.collect_on_grid();
        let prev_t = engine.state.t.checked_sub(1);
        (engine.state.validator).restart(prev_t, &engine.on_grid_buf);
        engine.schedule.rebuild(&engine.state);
        engine
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
