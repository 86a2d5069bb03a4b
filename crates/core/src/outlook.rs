//! Disruption outlook: the planner-side forecast state behind
//! disruption-*aware* selection.
//!
//! Since the disruption axis landed, planners *react* to events — caches
//! invalidate, frozen legs replan — but the selection step kept scoring
//! racks as if the floor were clean: a rack whose delivery corridor runs
//! straight through a live blockade scored exactly like one with a clear
//! run, and the robot committed to it only discovered the detour in path
//! finding, after the assignment was already made. [`DisruptionOutlook`]
//! closes that gap. It is a small, deterministic digest of every
//! [`DisruptionEvent`] the planner has observed:
//!
//! * **per-cell blockade pressure** — which aisle cells are blocked *right
//!   now* (a dense overlay plus a compact live list for corridor scans) and
//!   how often each cell has blockaded historically;
//! * **per-station closure state** — which pickers are closed now and how
//!   often each has walked away (a station "trending closed" is a worse bet
//!   even while open);
//! * **per-rack liveness horizon** — which racks are off the floor now and
//!   how often each has been removed.
//!
//! `PlannerBase` feeds the outlook from every `PlannerEvent::Disruption`
//! and folds it into selection through an *anticipation penalty* per
//! candidate rack — see
//! `PlannerBase::reorder_by_anticipation`. The whole layer sits behind
//! [`crate::config::EatpConfig::anticipation`]: with the flag off nothing is
//! consulted, and even with it on a clean world produces all-zero penalties,
//! so clean-world runs are bit-identical either way (equivalence-pinned by
//! `tests/anticipation.rs`).

use tprw_warehouse::{DisruptionEvent, GridPos, PickerId, RackId, Tick};

/// Penalty charged to a rack whose station is closed right now. Defensive:
/// the engine already withholds closed stations' racks from the selectable
/// pool, but planners driven outside the engine see the same signal.
const CLOSED_STATION_PENALTY: u64 = 100_000;
/// Penalty charged to a rack that is off the floor right now (defensive,
/// same reasoning as [`CLOSED_STATION_PENALTY`]).
const REMOVED_RACK_PENALTY: u64 = 100_000;
/// Per-past-closure penalty for a station trending closed.
const CLOSURE_TREND_WEIGHT: u64 = 2;
/// Per-past-removal penalty for a rack with a churn history.
const REMOVAL_TREND_WEIGHT: u64 = 1;

/// Deterministic digest of observed disruptions (see the module docs).
#[derive(Debug, Clone)]
pub struct DisruptionOutlook {
    width: u16,
    /// Live blockade overlay, per cell.
    blocked: Vec<bool>,
    /// Currently blocked cells in application order (dense scan list).
    live: Vec<GridPos>,
    /// Historical blockade count per cell.
    pressure: Vec<u32>,
    /// Every cell that has ever blockaded, in first-blockade order (dense
    /// scan list for the corridor *trend* term; includes currently blocked
    /// cells — callers filter with [`DisruptionOutlook::is_blocked`]).
    pressured: Vec<GridPos>,
    /// Live closure state per picker.
    station_closed: Vec<bool>,
    /// Historical closure count per picker.
    station_closures: Vec<u32>,
    /// Live removal state per rack.
    rack_removed: Vec<bool>,
    /// Historical removal count per rack.
    rack_removals: Vec<u32>,
    /// Total events observed (0 ⇒ every penalty is 0 ⇒ selection skips the
    /// anticipation pass entirely).
    events_seen: u64,
    /// Scheduled-maintenance predictions `(cell, from, until)` in
    /// announcement order: the cell is expected to blockade during the
    /// inclusive window. Fed by `PlannerEvent::MaintenanceNotice` (so
    /// only under `EatpConfig::maintenance_outlook`), never by applied
    /// events — and therefore *canonical* planner state: a checkpoint
    /// cannot rebuild it from the event journal, so `BaseSnapshot` carries
    /// it (see `docs/snapshot-format.md`).
    scheduled: Vec<(GridPos, Tick, Tick)>,
    /// Total predictions observed (counted into [`Self::has_signal`] so a
    /// pending notice alone activates the anticipation pass).
    predictions_seen: u64,
}

impl DisruptionOutlook {
    /// An empty outlook for a `width`-wide floor of `cells` cells with
    /// `n_pickers` stations and `n_racks` racks.
    pub fn new(width: u16, cells: usize, n_pickers: usize, n_racks: usize) -> Self {
        Self {
            width,
            blocked: vec![false; cells],
            live: Vec::new(),
            pressure: vec![0; cells],
            pressured: Vec::new(),
            station_closed: vec![false; n_pickers],
            station_closures: vec![0; n_pickers],
            rack_removed: vec![false; n_racks],
            rack_removals: vec![0; n_racks],
            events_seen: 0,
            scheduled: Vec::new(),
            predictions_seen: 0,
        }
    }

    /// Fold one scheduled-maintenance notice into the digest: `pos` is
    /// expected to be blockaded during the inclusive `[from, until]` window.
    /// Advisory only — nothing here mutates the floor; the prediction is
    /// consulted by the anticipation trend term until the window expires.
    pub fn observe_prediction(&mut self, pos: GridPos, from: Tick, until: Tick) {
        self.predictions_seen += 1;
        self.scheduled.push((pos, from, until));
    }

    /// Fold one applied disruption event into the digest.
    pub fn observe(&mut self, event: &DisruptionEvent) {
        self.events_seen += 1;
        match *event {
            DisruptionEvent::CellBlocked { pos } => {
                let i = pos.to_index(self.width);
                if !self.blocked[i] {
                    self.blocked[i] = true;
                    self.live.push(pos);
                }
                if self.pressure[i] == 0 {
                    self.pressured.push(pos);
                }
                self.pressure[i] += 1;
            }
            DisruptionEvent::CellUnblocked { pos } => {
                let i = pos.to_index(self.width);
                if self.blocked[i] {
                    self.blocked[i] = false;
                    self.live.retain(|&c| c != pos);
                }
            }
            DisruptionEvent::StationClosed { picker } => {
                self.station_closed[picker.index()] = true;
                self.station_closures[picker.index()] += 1;
            }
            DisruptionEvent::StationReopened { picker } => {
                self.station_closed[picker.index()] = false;
            }
            DisruptionEvent::RackRemoved { rack } => {
                self.rack_removed[rack.index()] = true;
                self.rack_removals[rack.index()] += 1;
            }
            DisruptionEvent::RackRestored { rack } => {
                self.rack_removed[rack.index()] = false;
            }
            // Robot availability is engine-enforced through the idle pool;
            // the selection side has nothing to score.
            DisruptionEvent::RobotBreakdown { .. } | DisruptionEvent::RobotRecover { .. } => {}
        }
    }

    /// Whether any event — or scheduled-maintenance prediction — has ever
    /// been observed. `false` guarantees every penalty below is zero,
    /// letting selection skip the anticipation pass (and making flag-on
    /// clean-world runs bit-identical to flag-off).
    #[inline]
    pub fn has_signal(&self) -> bool {
        self.events_seen > 0 || self.predictions_seen > 0
    }

    /// Total events observed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Total scheduled-maintenance predictions observed.
    pub fn predictions_seen(&self) -> u64 {
        self.predictions_seen
    }

    /// Every scheduled-maintenance prediction `(cell, from, until)` in
    /// announcement order (expired windows included — callers filter by
    /// their current tick).
    #[inline]
    pub fn predicted_cells(&self) -> &[(GridPos, Tick, Tick)] {
        &self.scheduled
    }

    /// Approximate heap bytes held by the digest (reported through the
    /// planner's shared `scratch_bytes` bucket — the outlook is identical
    /// machinery for every planner, like the search arena and the oracle).
    pub fn memory_bytes(&self) -> usize {
        self.blocked.capacity()
            + self.live.capacity() * std::mem::size_of::<GridPos>()
            + self.pressure.capacity() * std::mem::size_of::<u32>()
            + self.pressured.capacity() * std::mem::size_of::<GridPos>()
            + self.station_closed.capacity()
            + self.station_closures.capacity() * std::mem::size_of::<u32>()
            + self.rack_removed.capacity()
            + self.rack_removals.capacity() * std::mem::size_of::<u32>()
            + self.scheduled.capacity() * std::mem::size_of::<(GridPos, Tick, Tick)>()
    }

    /// The currently blocked cells, in application order.
    #[inline]
    pub fn live_blockades(&self) -> &[GridPos] {
        &self.live
    }

    /// Whether `pos` is blockaded right now.
    #[inline]
    pub fn is_blocked(&self, pos: GridPos) -> bool {
        self.blocked[pos.to_index(self.width)]
    }

    /// Every cell that has ever blockaded, in first-blockade order
    /// (currently blocked cells included — filter with
    /// [`DisruptionOutlook::is_blocked`] for the open-but-pressured set).
    #[inline]
    pub fn pressured_cells(&self) -> &[GridPos] {
        &self.pressured
    }

    /// Historical blockade count of `pos`.
    pub fn pressure(&self, pos: GridPos) -> u32 {
        self.pressure[pos.to_index(self.width)]
    }

    /// Anticipation penalty of routing toward `picker`'s station: large
    /// while closed, mild while open but trending closed.
    #[inline]
    pub fn station_risk(&self, picker: PickerId) -> u64 {
        let i = picker.index();
        if self.station_closed[i] {
            CLOSED_STATION_PENALTY
        } else {
            self.station_closures[i] as u64 * CLOSURE_TREND_WEIGHT
        }
    }

    /// Anticipation penalty of committing to `rack`: large while off the
    /// floor, mild while present but churn-prone.
    #[inline]
    pub fn rack_risk(&self, rack: RackId) -> u64 {
        let i = rack.index();
        if self.rack_removed[i] {
            REMOVED_RACK_PENALTY
        } else {
            self.rack_removals[i] as u64 * REMOVAL_TREND_WEIGHT
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outlook() -> DisruptionOutlook {
        DisruptionOutlook::new(8, 8 * 6, 3, 5)
    }

    #[test]
    fn starts_silent() {
        let o = outlook();
        assert!(!o.has_signal());
        assert!(o.live_blockades().is_empty());
        assert_eq!(o.station_risk(PickerId::new(0)), 0);
        assert_eq!(o.rack_risk(RackId::new(0)), 0);
    }

    #[test]
    fn blockade_state_and_pressure_track_events() {
        let mut o = outlook();
        let pos = GridPos::new(3, 2);
        o.observe(&DisruptionEvent::CellBlocked { pos });
        assert!(o.has_signal());
        assert!(o.is_blocked(pos));
        assert_eq!(o.live_blockades(), &[pos]);
        assert_eq!(o.pressure(pos), 1);
        o.observe(&DisruptionEvent::CellUnblocked { pos });
        assert!(!o.is_blocked(pos));
        assert!(o.live_blockades().is_empty());
        assert_eq!(o.pressure(pos), 1, "history survives reopening");
        assert_eq!(o.pressured_cells(), &[pos], "trend list survives too");
        o.observe(&DisruptionEvent::CellBlocked { pos });
        assert_eq!(o.pressure(pos), 2, "pressure accumulates per blockade");
        assert_eq!(o.pressured_cells(), &[pos], "trend list stays deduped");
    }

    #[test]
    fn station_risk_is_large_closed_mild_trending() {
        let mut o = outlook();
        let picker = PickerId::new(1);
        o.observe(&DisruptionEvent::StationClosed { picker });
        assert!(o.station_risk(picker) >= CLOSED_STATION_PENALTY);
        o.observe(&DisruptionEvent::StationReopened { picker });
        let trending = o.station_risk(picker);
        assert!(trending > 0 && trending < CLOSED_STATION_PENALTY);
        assert_eq!(o.station_risk(PickerId::new(0)), 0, "others unaffected");
    }

    #[test]
    fn rack_risk_tracks_liveness_horizon() {
        let mut o = outlook();
        let rack = RackId::new(2);
        o.observe(&DisruptionEvent::RackRemoved { rack });
        assert!(o.rack_risk(rack) >= REMOVED_RACK_PENALTY);
        o.observe(&DisruptionEvent::RackRestored { rack });
        let trending = o.rack_risk(rack);
        assert!(trending > 0 && trending < REMOVED_RACK_PENALTY);
    }

    #[test]
    fn predictions_mark_signal_without_touching_live_state() {
        let mut o = outlook();
        let pos = GridPos::new(4, 1);
        o.observe_prediction(pos, 10, 40);
        assert!(o.has_signal(), "a pending notice alone is a signal");
        assert_eq!(o.events_seen(), 0, "no event was applied");
        assert_eq!(o.predictions_seen(), 1);
        assert!(!o.is_blocked(pos), "predictions never mutate the floor");
        assert_eq!(o.pressure(pos), 0, "nor the historical pressure");
        assert_eq!(o.predicted_cells(), &[(pos, 10, 40)]);
        o.observe_prediction(pos, 60, 90);
        assert_eq!(o.predicted_cells().len(), 2, "windows accumulate");
    }

    #[test]
    fn robot_events_only_mark_signal() {
        let mut o = outlook();
        o.observe(&DisruptionEvent::RobotBreakdown {
            robot: tprw_warehouse::RobotId::new(0),
        });
        assert!(o.has_signal());
        assert!(o.live_blockades().is_empty());
        assert_eq!(o.events_seen(), 1);
    }
}
