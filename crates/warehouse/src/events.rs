//! Disruption events: the dynamic-world axis of a scenario.
//!
//! The paper's world is frozen at [`crate::scenario::ScenarioSpec::build`]
//! time — adaptivity is only ever exercised on the demand side (item
//! arrivals). Real floors break: robots fail mid-aisle, spills close
//! corridors, pickers walk away from their stations. This module models
//! those *supply-side* disruptions as a typed, seed-deterministic event
//! stream that is expanded with the instance and replayed by the simulator:
//!
//! * [`DisruptionEvent::RobotBreakdown`] / [`DisruptionEvent::RobotRecover`]
//!   — a robot freezes wherever it stands (becoming an obstacle the fleet
//!   must route around) and later resumes its interrupted leg;
//! * [`DisruptionEvent::CellBlocked`] / [`DisruptionEvent::CellUnblocked`]
//!   — an aisle cell becomes impassable (a blockade), invalidating every
//!   planned path through it, and later reopens;
//! * [`DisruptionEvent::StationClosed`] / [`DisruptionEvent::StationReopened`]
//!   — a picker walks away: processing pauses and the planner must stop
//!   routing new racks to that station until it reopens;
//! * [`DisruptionEvent::RackRemoved`] / [`DisruptionEvent::RackRestored`]
//!   — a rack is taken off the floor (maintenance, re-slotting): it leaves
//!   the selectable pool, its pending items wait, and planners drop it from
//!   their K-nearest indexes until it is restored.
//!
//! Events are either *scripted* (an explicit [`TimedEvent`] list on the
//! [`crate::scenario::Instance`]) or *generated* from a [`DisruptionConfig`]
//! on the spec — the same seeded RNG discipline as the item workload, so a
//! `(spec, seed)` pair always expands to the identical schedule.
//!
//! Scheduling invariants (enforced by [`validate_events`], which
//! [`crate::scenario::Instance::validate`] calls): events are sorted by
//! tick, every disruption is paired with its recovery in strict alternation
//! per entity, and blockades only target [`CellKind::Aisle`] cells —
//! blocking a storage cell would strand a rack and blocking a station would
//! make its queue unserviceable forever. All but the sort are one rule,
//! [`DisruptionFlags::admits`] (an event names an entity of the world and
//! flips its flag), which the simulator also asks of live injections and
//! resumed journals.
//!
//! # Terminal events
//!
//! Pairing is required *while the schedule runs* — but what may remain open
//! at the schedule tail differs by kind, because the kinds differ in what
//! an unrecovered disruption does to the fleet:
//!
//! * an unrecovered **breakdown**, a permanent **blockade** or a permanent
//!   **closure** can livelock the whole simulation (a frozen robot blocks
//!   an aisle forever, a walled corridor strands traffic, a closed
//!   station's queue never drains) — these must always be paired and are
//!   rejected at the tail;
//! * an unpaired terminal **rack removal** is **legal**: a rack
//!   de-commissioned for good (re-slotting, damage) is a real scenario,
//!   and a missing rack can never trap the fleet — the engine withholds it
//!   from selection and everything else routes normally. The one
//!   consequence is a *workload* property, not a safety one: items pending
//!   on (or still arriving at) a permanently removed rack are never
//!   fulfilled, so such a run completes only if the removed rack's demand
//!   is empty — that trade-off belongs to the scenario author.
//!   [`DisruptionConfig::generate`] itself always emits paired removals.

use crate::geometry::GridPos;
use crate::grid::{CellKind, GridMap};
use crate::ids::{PickerId, RackId, RobotId};
use crate::time::Tick;
use crate::workload::sample_without_replacement;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One world mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisruptionEvent {
    /// `robot` fails in place: it stops moving (its active leg is cancelled
    /// and its reservations released; it occupies its current cell as a
    /// static obstacle) and accepts no work until it recovers.
    RobotBreakdown {
        /// The failing robot.
        robot: RobotId,
    },
    /// `robot` resumes: its interrupted leg is replanned from wherever it
    /// froze.
    RobotRecover {
        /// The recovering robot.
        robot: RobotId,
    },
    /// Aisle cell `pos` becomes impassable. Application is deferred while a
    /// robot physically occupies the cell (the blockade lands once the cell
    /// clears), so no robot is ever teleported onto or trapped inside a
    /// wall.
    CellBlocked {
        /// The blockaded cell (must be [`CellKind::Aisle`]).
        pos: GridPos,
    },
    /// The blockade on `pos` is cleared; paths may use the cell again.
    CellUnblocked {
        /// The reopened cell.
        pos: GridPos,
    },
    /// The picker at `picker` walks away: its queue stops draining and
    /// planners must not select racks bound to it until it reopens.
    StationClosed {
        /// The closing picker.
        picker: PickerId,
    },
    /// The picker returns and resumes its queue.
    StationReopened {
        /// The reopening picker.
        picker: PickerId,
    },
    /// Rack `rack` is taken off the floor: it cannot be selected and
    /// planners drop it from their nearest-rack indexes. Application is
    /// deferred while the rack is in flight (a robot is fetching, carrying
    /// or returning it), so a rack never vanishes from under a robot.
    /// Pending items stay on the rack and wait for restoration.
    RackRemoved {
        /// The removed rack.
        rack: RackId,
    },
    /// Rack `rack` returns to its home cell and re-enters selection.
    RackRestored {
        /// The restored rack.
        rack: RackId,
    },
}

impl DisruptionEvent {
    /// Short human-readable label for logs and examples.
    pub fn label(&self) -> String {
        match self {
            DisruptionEvent::RobotBreakdown { robot } => format!("breakdown {robot}"),
            DisruptionEvent::RobotRecover { robot } => format!("recover {robot}"),
            DisruptionEvent::CellBlocked { pos } => format!("block {pos}"),
            DisruptionEvent::CellUnblocked { pos } => format!("unblock {pos}"),
            DisruptionEvent::StationClosed { picker } => format!("close {picker}"),
            DisruptionEvent::StationReopened { picker } => format!("reopen {picker}"),
            DisruptionEvent::RackRemoved { rack } => format!("remove {rack}"),
            DisruptionEvent::RackRestored { rack } => format!("restore {rack}"),
        }
    }
}

/// A [`DisruptionEvent`] scheduled at tick `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// The tick the event takes effect (start of tick, before movement).
    pub t: Tick,
    /// The mutation.
    pub event: DisruptionEvent,
}

/// Stochastic disruption workload: how many of each disruption kind to
/// scatter over a time window, with paired recoveries. Expanded
/// deterministically from the scenario seed by [`DisruptionConfig::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisruptionConfig {
    /// Number of robot breakdowns (each robot fails at most once; capped at
    /// the fleet size).
    pub breakdowns: usize,
    /// `[min, max]` breakdown duration in ticks.
    pub breakdown_ticks: (Tick, Tick),
    /// Number of single-cell aisle blockades (distinct cells; capped at the
    /// aisle-cell count).
    pub blockades: usize,
    /// `[min, max]` blockade duration in ticks.
    pub blockade_ticks: (Tick, Tick),
    /// Number of station closures (each picker closes at most once; capped
    /// at the picker count).
    pub closures: usize,
    /// `[min, max]` closure duration in ticks.
    pub closure_ticks: (Tick, Tick),
    /// Number of rack removals (each rack is removed at most once; capped
    /// at the rack count).
    pub removals: usize,
    /// `[min, max]` removal duration in ticks.
    pub removal_ticks: (Tick, Tick),
    /// `[t0, t1]` window over which disruption *start* ticks are drawn.
    pub window: (Tick, Tick),
}

impl DisruptionConfig {
    /// A quiet config (no events); useful as a struct-update base.
    pub fn none() -> Self {
        Self {
            breakdowns: 0,
            breakdown_ticks: (1, 1),
            blockades: 0,
            blockade_ticks: (1, 1),
            closures: 0,
            closure_ticks: (1, 1),
            removals: 0,
            removal_ticks: (1, 1),
            window: (0, 0),
        }
    }

    /// Validate the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, &(lo, hi)) in [
            ("breakdown_ticks", &self.breakdown_ticks),
            ("blockade_ticks", &self.blockade_ticks),
            ("closure_ticks", &self.closure_ticks),
            ("removal_ticks", &self.removal_ticks),
        ] {
            if lo == 0 || lo > hi {
                return Err(format!("{name}: need 0 < min <= max, got ({lo}, {hi})"));
            }
        }
        if self.window.0 > self.window.1 {
            return Err(format!(
                "window: need t0 <= t1, got ({}, {})",
                self.window.0, self.window.1
            ));
        }
        Ok(())
    }

    /// Expand into a sorted, paired event schedule. Deterministic in the RNG
    /// state: `ScenarioSpec::build` threads the instance RNG through here
    /// *after* all other draws, so adding a disruption config never perturbs
    /// the generated layout, fleet or item stream.
    pub fn generate<R: Rng>(
        &self,
        grid: &GridMap,
        n_robots: usize,
        n_pickers: usize,
        n_racks: usize,
        rng: &mut R,
    ) -> Vec<TimedEvent> {
        use DisruptionEvent as E;
        let mut events = Vec::new();
        let (w0, w1) = self.window;
        // Each chosen entity is disrupted at a tick drawn from the window
        // and recovers a duration drawn from `ticks` later.
        let mut pair = |rng: &mut R, ticks: (Tick, Tick), on: E, off: E| {
            let t = rng.gen_range(w0..=w1);
            let dur = rng.gen_range(ticks.0..=ticks.1);
            events.push(TimedEvent { t, event: on });
            events.push(TimedEvent {
                t: t + dur,
                event: off,
            });
        };

        // Breakdowns: distinct robots.
        let robot_ids: Vec<usize> = (0..n_robots).collect();
        for r in sample_without_replacement(&robot_ids, self.breakdowns.min(n_robots), rng) {
            let robot = RobotId::new(r);
            let (on, off) = (E::RobotBreakdown { robot }, E::RobotRecover { robot });
            pair(rng, self.breakdown_ticks, on, off);
        }

        // Blockades: distinct aisle cells.
        let aisle_cells: Vec<GridPos> = grid.cells_of_kind(CellKind::Aisle).collect();
        let n = self.blockades.min(aisle_cells.len());
        for pos in sample_without_replacement(&aisle_cells, n, rng) {
            let (on, off) = (E::CellBlocked { pos }, E::CellUnblocked { pos });
            pair(rng, self.blockade_ticks, on, off);
        }

        // Station closures: distinct pickers.
        let picker_ids: Vec<usize> = (0..n_pickers).collect();
        for p in sample_without_replacement(&picker_ids, self.closures.min(n_pickers), rng) {
            let picker = PickerId::new(p);
            let (on, off) = (E::StationClosed { picker }, E::StationReopened { picker });
            pair(rng, self.closure_ticks, on, off);
        }

        // Rack removals: distinct racks. Drawn last (and skipped entirely
        // at count 0) so configs predating the removal axis keep their
        // exact schedules.
        if self.removals > 0 {
            let rack_ids: Vec<usize> = (0..n_racks).collect();
            for r in sample_without_replacement(&rack_ids, self.removals.min(n_racks), rng) {
                let rack = RackId::new(r);
                let (on, off) = (E::RackRemoved { rack }, E::RackRestored { rack });
                pair(rng, self.removal_ticks, on, off);
            }
        }

        // Stable sort: same-tick events keep generation order, so the
        // schedule is a pure function of (config, rng state).
        events.sort_by_key(|e| e.t);
        events
    }
}

/// The disruption state a sequence of [`DisruptionEvent`]s leaves on one
/// world. [`DisruptionFlags::admits`] is the one statement of when a
/// disruption may happen: the schedule ([`validate_events`]), the
/// simulator's live injections and its resume check all fold through it.
#[derive(Debug, Clone)]
pub struct DisruptionFlags<'g> {
    grid: &'g GridMap,
    /// Per-robot broken flag.
    pub broken: Vec<bool>,
    /// Per-picker closed flag.
    pub closed: Vec<bool>,
    /// Per-rack removed flag.
    pub removed: Vec<bool>,
    /// Per-cell blockade flag (static walls excluded).
    pub blocked: Vec<bool>,
}

impl<'g> DisruptionFlags<'g> {
    /// No disruption in force on `grid` with these entity counts.
    pub fn new(grid: &'g GridMap, robots: usize, pickers: usize, racks: usize) -> Self {
        let [broken, closed, removed, blocked] =
            [robots, pickers, racks, grid.cell_count()].map(|n| vec![false; n]);
        Self {
            grid,
            broken,
            closed,
            removed,
            blocked,
        }
    }

    /// Whether `event` may happen now: it names an entity of the world (an
    /// id in range, or an in-bounds aisle cell) and flips its flag, so
    /// disruptions and recoveries alternate per entity.
    pub fn admits(&self, event: DisruptionEvent) -> bool {
        self.flag(event)
            .is_some_and(|(table, i, set)| self.tables()[table][i] != set)
    }

    /// Set the flag `event` names; panics if it names no entity.
    pub fn apply(&mut self, event: DisruptionEvent) {
        let (table, i, set) = self.flag(event).expect("the event names an entity");
        [
            &mut self.broken,
            &mut self.closed,
            &mut self.removed,
            &mut self.blocked,
        ][table][i] = set;
    }

    /// Apply `events` in order while each is admitted.
    ///
    /// # Errors
    ///
    /// Returns the first event [`DisruptionFlags::admits`] refuses.
    pub fn fold(
        &mut self,
        events: impl IntoIterator<Item = DisruptionEvent>,
    ) -> Result<(), DisruptionEvent> {
        for event in events {
            if !self.admits(event) {
                return Err(event);
            }
            self.apply(event);
        }
        Ok(())
    }

    fn tables(&self) -> [&Vec<bool>; 4] {
        [&self.broken, &self.closed, &self.removed, &self.blocked]
    }

    /// The table and index `event` names and the value it sets; `None` for
    /// an id out of range or a cell that is not an in-bounds aisle cell.
    fn flag(&self, event: DisruptionEvent) -> Option<(usize, usize, bool)> {
        let grid = self.grid;
        let aisle = |pos: GridPos| {
            let aisle = grid.in_bounds(pos) && grid.kind(pos) == CellKind::Aisle;
            aisle.then(|| pos.to_index(grid.width()))
        };
        let (table, i, set) = match event {
            DisruptionEvent::RobotBreakdown { robot } => (0, robot.index(), true),
            DisruptionEvent::RobotRecover { robot } => (0, robot.index(), false),
            DisruptionEvent::StationClosed { picker } => (1, picker.index(), true),
            DisruptionEvent::StationReopened { picker } => (1, picker.index(), false),
            DisruptionEvent::RackRemoved { rack } => (2, rack.index(), true),
            DisruptionEvent::RackRestored { rack } => (2, rack.index(), false),
            DisruptionEvent::CellBlocked { pos } => (3, aisle(pos)?, true),
            DisruptionEvent::CellUnblocked { pos } => (3, aisle(pos)?, false),
        };
        (i < self.tables()[table].len()).then_some((table, i, set))
    }
}

/// Check an event schedule against its world: sorted by tick, each event
/// admitted by the [`DisruptionFlags`] fold of the events before it, and
/// every disruption but a rack removal recovered by the schedule's end
/// (module docs, *Terminal events*).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_events(
    events: &[TimedEvent],
    grid: &GridMap,
    n_robots: usize,
    n_pickers: usize,
    n_racks: usize,
) -> Result<(), String> {
    if let Some(w) = events.windows(2).find(|w| w[1].t < w[0].t) {
        return Err(format!(
            "events not sorted by tick at {}",
            w[1].event.label()
        ));
    }
    let mut flags = DisruptionFlags::new(grid, n_robots, n_pickers, n_racks);
    let refused = flags.fold(events.iter().map(|e| e.event)).err();
    if let Some(event) = refused {
        return Err(format!(
            "{} nests, undoes nothing or names no entity",
            event.label()
        ));
    }
    // `removed` may stay open at the tail (module docs, *Terminal events*).
    let open = [
        ("robot", &flags.broken),
        ("picker", &flags.closed),
        ("cell", &flags.blocked),
    ];
    let first = |(kind, table): (_, &Vec<bool>)| Some((kind, table.iter().position(|&on| on)?));
    if let Some((kind, i)) = open.into_iter().find_map(first) {
        return Err(format!("{kind} #{i} is never recovered"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> GridMap {
        GridMap::filled(12, 10, CellKind::Aisle)
    }

    fn config() -> DisruptionConfig {
        DisruptionConfig {
            breakdowns: 3,
            breakdown_ticks: (10, 30),
            blockades: 2,
            blockade_ticks: (20, 40),
            closures: 1,
            closure_ticks: (15, 25),
            removals: 2,
            removal_ticks: (25, 45),
            window: (5, 100),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = grid();
        let a = config().generate(&g, 8, 3, 6, &mut StdRng::seed_from_u64(9));
        let b = config().generate(&g, 8, 3, 6, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = config().generate(&g, 8, 3, 6, &mut StdRng::seed_from_u64(10));
        assert_ne!(a, c, "different seed must differ");
        assert_eq!(a.len(), 2 * (3 + 2 + 1 + 2), "every disruption is paired");
    }

    #[test]
    fn zero_removals_keep_pre_removal_schedules() {
        // The removal axis draws last and not at all when disabled, so a
        // config predating it expands to the exact same schedule.
        let g = grid();
        let mut without = config();
        without.removals = 0;
        let events = without.generate(&g, 8, 3, 6, &mut StdRng::seed_from_u64(9));
        let mut with = config();
        with.removals = 1;
        let extended = with.generate(&g, 8, 3, 6, &mut StdRng::seed_from_u64(9));
        let non_rack: Vec<TimedEvent> = extended
            .iter()
            .filter(|e| {
                !matches!(
                    e.event,
                    DisruptionEvent::RackRemoved { .. } | DisruptionEvent::RackRestored { .. }
                )
            })
            .copied()
            .collect();
        assert_eq!(events, non_rack, "other kinds must not shift");
        assert_eq!(extended.len(), events.len() + 2);
    }

    #[test]
    fn generated_schedules_validate() {
        let g = grid();
        for seed in 0..20 {
            let events = config().generate(&g, 8, 3, 6, &mut StdRng::seed_from_u64(seed));
            validate_events(&events, &g, 8, 3, 6).expect("generated schedule valid");
            assert!(events.windows(2).all(|w| w[0].t <= w[1].t), "sorted");
        }
    }

    #[test]
    fn counts_capped_at_entity_counts() {
        let g = grid();
        let mut cfg = config();
        cfg.breakdowns = 100;
        cfg.closures = 100;
        cfg.removals = 100;
        let events = cfg.generate(&g, 4, 2, 3, &mut StdRng::seed_from_u64(1));
        let breakdowns = events
            .iter()
            .filter(|e| matches!(e.event, DisruptionEvent::RobotBreakdown { .. }))
            .count();
        let closures = events
            .iter()
            .filter(|e| matches!(e.event, DisruptionEvent::StationClosed { .. }))
            .count();
        let removals = events
            .iter()
            .filter(|e| matches!(e.event, DisruptionEvent::RackRemoved { .. }))
            .count();
        assert_eq!(breakdowns, 4, "at most one breakdown per robot");
        assert_eq!(closures, 2, "at most one closure per picker");
        assert_eq!(removals, 3, "at most one removal per rack");
        validate_events(&events, &g, 4, 2, 3).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let g = grid();
        let breakdown = |t, r| TimedEvent {
            t,
            event: DisruptionEvent::RobotBreakdown {
                robot: RobotId::new(r),
            },
        };
        let recover = |t, r| TimedEvent {
            t,
            event: DisruptionEvent::RobotRecover {
                robot: RobotId::new(r),
            },
        };
        // Unsorted.
        assert!(validate_events(&[breakdown(10, 0), recover(5, 0)], &g, 2, 1, 1).is_err());
        // Nested breakdown.
        assert!(validate_events(
            &[breakdown(1, 0), breakdown(2, 0), recover(3, 0)],
            &g,
            2,
            1,
            1
        )
        .is_err());
        // Unmatched breakdown.
        assert!(validate_events(&[breakdown(1, 0)], &g, 2, 1, 1).is_err());
        // Recover without breakdown.
        assert!(validate_events(&[recover(1, 0)], &g, 2, 1, 1).is_err());
        // Out-of-range robot.
        assert!(validate_events(&[breakdown(1, 9), recover(2, 9)], &g, 2, 1, 1).is_err());
        // Rack removal pairing: nested, unmatched, restore-first and
        // out-of-range removals are all rejected.
        let remove = |t, r| TimedEvent {
            t,
            event: DisruptionEvent::RackRemoved {
                rack: RackId::new(r),
            },
        };
        let restore = |t, r| TimedEvent {
            t,
            event: DisruptionEvent::RackRestored {
                rack: RackId::new(r),
            },
        };
        assert!(validate_events(&[remove(1, 0), restore(2, 0)], &g, 2, 1, 1).is_ok());
        assert!(
            validate_events(&[remove(1, 0), remove(2, 0), restore(3, 0)], &g, 2, 1, 1).is_err()
        );
        assert!(validate_events(&[restore(1, 0)], &g, 2, 1, 1).is_err());
        assert!(validate_events(&[remove(1, 5), restore(2, 5)], &g, 2, 1, 1).is_err());
        // Blockade on a non-aisle cell.
        let mut walled = grid();
        walled.set_kind(GridPos::new(3, 3), CellKind::Blocked);
        let block = TimedEvent {
            t: 1,
            event: DisruptionEvent::CellBlocked {
                pos: GridPos::new(3, 3),
            },
        };
        let unblock = TimedEvent {
            t: 2,
            event: DisruptionEvent::CellUnblocked {
                pos: GridPos::new(3, 3),
            },
        };
        assert!(validate_events(&[block, unblock], &walled, 2, 1, 1).is_err());
        assert!(validate_events(&[block, unblock], &g, 2, 1, 1).is_ok());
    }

    #[test]
    fn terminal_removals_are_legal_other_terminal_events_are_not() {
        // The tail rule (module docs, *Terminal events*): a rack may stay
        // removed past the end of the schedule — permanent de-commissioning
        // cannot livelock the fleet — while every other disruption kind
        // must be recovered.
        let g = grid();
        let remove = |t, r| TimedEvent {
            t,
            event: DisruptionEvent::RackRemoved {
                rack: RackId::new(r),
            },
        };
        let restore = |t, r| TimedEvent {
            t,
            event: DisruptionEvent::RackRestored {
                rack: RackId::new(r),
            },
        };
        // Unpaired terminal removal: legal, alone or after a full cycle.
        assert!(validate_events(&[remove(1, 0)], &g, 2, 1, 2).is_ok());
        assert!(validate_events(
            &[remove(1, 0), restore(2, 0), remove(5, 0), remove(6, 1)],
            &g,
            2,
            1,
            2
        )
        .is_ok());
        // Nesting is still rejected even with the tail open.
        assert!(validate_events(&[remove(1, 0), remove(2, 0)], &g, 2, 1, 2).is_err());
        // Terminal breakdown / blockade / closure stay illegal.
        let breakdown = TimedEvent {
            t: 1,
            event: DisruptionEvent::RobotBreakdown {
                robot: RobotId::new(0),
            },
        };
        assert!(validate_events(&[breakdown], &g, 2, 1, 1).is_err());
        let block = TimedEvent {
            t: 1,
            event: DisruptionEvent::CellBlocked {
                pos: GridPos::new(2, 2),
            },
        };
        assert!(validate_events(&[block], &g, 2, 1, 1).is_err());
        let close = TimedEvent {
            t: 1,
            event: DisruptionEvent::StationClosed {
                picker: PickerId::new(0),
            },
        };
        assert!(validate_events(&[close], &g, 2, 1, 1).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(config().validate().is_ok());
        assert!(DisruptionConfig::none().validate().is_ok());
        let mut bad = config();
        bad.breakdown_ticks = (0, 5);
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.blockade_ticks = (9, 3);
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.removal_ticks = (0, 4);
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.window = (50, 10);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let g = grid();
        let events = config().generate(&g, 6, 2, 4, &mut StdRng::seed_from_u64(4));
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<TimedEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(events, back);
        let cfg_json = serde_json::to_string(&config()).unwrap();
        let cfg_back: DisruptionConfig = serde_json::from_str(&cfg_json).unwrap();
        assert_eq!(config(), cfg_back);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            DisruptionEvent::RobotBreakdown {
                robot: RobotId::new(1),
            }
            .label(),
            DisruptionEvent::RobotRecover {
                robot: RobotId::new(1),
            }
            .label(),
            DisruptionEvent::CellBlocked {
                pos: GridPos::new(1, 1),
            }
            .label(),
            DisruptionEvent::CellUnblocked {
                pos: GridPos::new(1, 1),
            }
            .label(),
            DisruptionEvent::StationClosed {
                picker: PickerId::new(1),
            }
            .label(),
            DisruptionEvent::StationReopened {
                picker: PickerId::new(1),
            }
            .label(),
            DisruptionEvent::RackRemoved {
                rack: RackId::new(1),
            }
            .label(),
            DisruptionEvent::RackRestored {
                rack: RackId::new(1),
            }
            .label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
