//! The tick loop's derived schedule (`docs/event-driven-ticking.md`): the
//! busy set, the docked count, the in-flight racks, the arrival agenda and
//! its buffer, the two planning dirty flags and the clean certificate. None
//! of it is snapshotted. The fields are private and change only through one
//! method per robot event, which together keep the invariant debug builds
//! assert after every tick ([`Schedule::assert_tallies`]): the busy set
//! holds exactly the robots in a non-`Idle` phase, the docked count the
//! robots in a station bay, the in-flight racks exactly the racks a robot's
//! phase names (`docs/adr/ADR-042-entity-facts-stored-once.md`), and every
//! installed path has an agenda entry at its end.

use super::EngineState;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tprw_pathfinding::Path;
use tprw_warehouse::{RackId, Robot, Tick};

#[derive(Debug, Default)]
pub(super) struct Schedule {
    /// Min-heap of `(path end tick, robot index)` wake entries. Entries are
    /// re-validated against the canonical `paths` on pop (lazy deletion),
    /// so stale entries are harmless.
    agenda: BinaryHeap<Reverse<(Tick, u32)>>,
    /// Scratch: the robots the agenda woke this tick, ascending.
    due: Vec<usize>,
    /// Robots in a non-`Idle` phase, plus those that left it this tick.
    busy: BusySet,
    /// Robots docked at a station (`Queuing` or `Processing`). Zero implies
    /// every picker queue is empty and nothing is being served.
    docked: usize,
    /// Per rack: some robot's phase names it (fetched, carried or on its
    /// way home), so it is not offered for selection or removed.
    in_flight: Vec<bool>,
    /// *May* some robot be idle and assignable? Set on any arrival to
    /// `Idle`, any disruption, and on init/resume; cleared only by a
    /// planning scan that finds the idle pool empty.
    maybe_idle: bool,
    /// *May* some rack be selectable? Set on item arrivals, rack returns
    /// and any disruption; cleared only by a planning scan that finds the
    /// selectable pool empty.
    maybe_work: bool,
    /// The clean certificate: the last movement scan pushed zero conflicts
    /// and zero violations, and nothing has dirtied since. While it holds,
    /// a robot outside the busy set stands where that scan saw it, clear of
    /// every other robot and every blocked cell.
    clean: bool,
}

impl Schedule {
    /// Rebuild from canonical state, a fresh run's or a resumed one's: the
    /// agenda holds every active path at its end tick, the busy set, docked
    /// count and in-flight racks are phase tallies, and the flags start
    /// pessimistic, so the first planning and movement scans converge them
    /// exactly as in a never-snapshotted run (pinned by the
    /// `agenda_reconstruction_matches_fresh` test).
    pub(super) fn rebuild(&mut self, state: &EngineState) {
        let paths = state.paths.iter().enumerate();
        let ends = paths.filter_map(|(ai, p)| Some(Reverse((p.as_ref()?.end(), ai as u32))));
        self.agenda = ends.collect();
        (self.busy, self.docked, self.in_flight) = tallies(&state.robots, state.racks.len());
        self.world_dirtied();
    }

    /// Robot `ai` was dispatched on a fulfilment cycle to fetch `rack`.
    pub(super) fn dispatched(&mut self, ai: usize, rack: RackId) {
        self.busy.insert(ai);
        self.in_flight[rack.index()] = true;
    }

    /// The one place a path is installed: `path` becomes robot `ai`'s
    /// active path and the agenda wakes the robot at its end.
    pub(super) fn install_path(&mut self, paths: &mut [Option<Path>], ai: usize, path: Path) {
        self.agenda.push(Reverse((path.end(), ai as u32)));
        paths[ai] = Some(path);
    }

    /// A robot docked into a station bay.
    pub(super) fn docked(&mut self) {
        self.docked += 1;
    }

    /// A robot undocked onto its return leg.
    pub(super) fn undocked(&mut self) {
        self.docked -= 1;
    }

    /// Robot `ai` brought `rack` home: it is idle and assignable, and the
    /// rack may be selectable again.
    pub(super) fn back_home(&mut self, ai: usize, rack: RackId) {
        self.busy.remove(ai);
        self.in_flight[rack.index()] = false;
        self.maybe_idle = true;
        self.maybe_work = true;
    }

    /// Items landed, which can make a rack selectable again.
    pub(super) fn work_landed(&mut self) {
        self.maybe_work = true;
    }

    /// A disruption landed (scheduled or injected): dirty every skip
    /// precondition. Events are rare, so over-invalidating costs one full
    /// rescan, never correctness.
    pub(super) fn world_dirtied(&mut self) {
        self.maybe_idle = true;
        self.maybe_work = true;
        self.clean = false;
    }

    /// Pop the entries due at `t` and hand out the woken robots, ascending
    /// and deduplicated; give the buffer back through `recycle_due`.
    pub(super) fn take_due(&mut self, t: Tick) -> Vec<usize> {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        while let Some(&Reverse((end, ai))) = self.agenda.peek() {
            if end > t {
                break;
            }
            self.agenda.pop();
            due.push(ai as usize);
        }
        due.sort_unstable();
        due.dedup();
        due
    }

    pub(super) fn recycle_due(&mut self, due: Vec<usize>) {
        self.due = due;
    }

    /// No robot is docked, so the picking phase would change nothing.
    pub(super) fn nobody_docked(&self) -> bool {
        self.docked == 0
    }

    /// Both planning pools may be populated, so the planning scan must run.
    pub(super) fn may_plan(&self) -> bool {
        self.maybe_idle && self.maybe_work
    }

    /// Whether the flags over-approximate the pools a scan found populated.
    pub(super) fn flags_cover(&self, any_idle: bool, any_work: bool) -> bool {
        (self.maybe_idle || !any_idle) && (self.maybe_work || !any_work)
    }

    /// A planning scan computed both pools exactly; downgrade the flags to
    /// what it proved.
    pub(super) fn planning_scanned(&mut self, any_idle: bool, any_work: bool) {
        self.maybe_idle = any_idle;
        self.maybe_work = any_work;
    }

    pub(super) fn is_clean(&self) -> bool {
        self.clean
    }

    /// The busy robots, ascending.
    pub(super) fn busy(&self) -> impl Iterator<Item = usize> + '_ {
        self.busy.iter()
    }

    /// The busy robots and those that left the set this tick, ascending.
    pub(super) fn touched(&self) -> impl Iterator<Item = usize> + '_ {
        self.busy.iter_touched()
    }

    /// The movement phase ended; `clean` (it pushed no conflict and no
    /// violation) certifies the next tick.
    pub(super) fn movement_done(&mut self, clean: bool) {
        self.busy.end_tick();
        self.clean = clean;
    }

    pub(super) fn fleet_idle(&self) -> bool {
        self.busy.is_empty()
    }

    /// Whether some robot's phase names `rack`.
    pub(super) fn in_flight(&self, rack: RackId) -> bool {
        self.in_flight[rack.index()]
    }

    /// Assert that the busy set, docked count and in-flight racks equal the
    /// robots' phase tallies.
    #[cfg(debug_assertions)]
    pub(super) fn assert_tallies(&self, robots: &[Robot]) {
        let (busy, docked, in_flight) = tallies(robots, self.in_flight.len());
        let same = self.busy.iter().eq(busy.iter()) && self.docked == docked;
        debug_assert!(
            same && self.in_flight == in_flight,
            "agenda drifted from the robots' phases"
        );
    }
}

/// The busy set, docked count and in-flight racks (of `n_racks`) the
/// robots' phases give.
fn tallies(robots: &[Robot], n_racks: usize) -> (BusySet, usize, Vec<bool>) {
    let mut busy = BusySet::default();
    let mut in_flight = vec![false; n_racks];
    for (ai, r) in robots.iter().enumerate() {
        if let Some(rack) = r.phase.rack() {
            busy.insert(ai);
            in_flight[rack.index()] = true;
        }
    }
    let docked = robots.iter().filter(|r| r.phase.is_docked()).count();
    (busy, docked, in_flight)
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
