//! The reservation-system abstraction shared by all planners.
//!
//! A reservation system answers "who occupies cell `p` at tick `t`?" for
//! both *timed* path reservations and *parked* robots (idle robots occupy
//! their cell indefinitely until reassigned). Planners are generic over this
//! trait: ATP plugs in the [`crate::stg::SpatioTemporalGraph`], EATP the
//! [`crate::cdt::ConflictDetectionTable`] — the exact split evaluated in
//! Figs. 11–12 of the paper.
//!
//! [`ParkingBoard`] is the shared parked-robot index. Because `occupant` is
//! probed on every A* expansion (the `can_move` fallthrough), it stores
//! parked robots in **one packed `u64` per cell** (robot in the high half,
//! start tick in the low) rather than a `HashMap`: the hot read is a single
//! bounds-checked array load touching a single cache line. The rarely-used
//! robot→cell side stays a small `HashMap`.

use crate::footprint::HASH_ENTRY_OVERHEAD;
use crate::path::Path;
use std::collections::HashMap;
use tprw_warehouse::{GridPos, RobotId, Tick};

/// The **read-only** half of a reservation system: every query the path
/// search performs. Splitting the probes from the commits (see
/// [`ReservationSystem`]) is a type-level guarantee:
/// [`plan_path_with`](crate::astar::plan_path_with) takes a `&impl
/// ReservationProbe`, so a search cannot mutate the table it plans against.
pub trait ReservationProbe {
    /// The robot reserving `pos` at tick `t`, if any (path step or parked).
    fn occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId>;

    /// Whether `robot` may *wait on or move to* `to` at tick `t+1` coming
    /// from `from` at tick `t` without a single-grid or inter-grid conflict
    /// (Definition 5). A robot never conflicts with its own reservations.
    /// The swap probe of `from` runs only when another robot stands on
    /// `to` at `t`, so an uncontended move costs two probes.
    fn can_move(&self, robot: RobotId, from: GridPos, to: GridPos, t: Tick) -> bool {
        if self.occupant(to, t + 1).is_some_and(|x| x != robot) {
            return false; // single-grid conflict
        }
        if from != to {
            // inter-grid (swap) conflict: someone sits on `to` now and will
            // be on `from` next tick.
            if let Some(x) = self.occupant(to, t) {
                if x != robot && self.occupant(from, t + 1) == Some(x) {
                    return false;
                }
            }
        }
        true
    }

    /// The latest *timed* reservation on `pos` by any robot other than
    /// `robot`, if one exists. Used to accept parking goals: a robot may only
    /// park on a cell after every already-planned traversal of it.
    fn last_reservation_excluding(&self, pos: GridPos, robot: RobotId) -> Option<Tick>;

    /// The parked occupant of `pos`, with the tick its parking starts.
    fn parked_at(&self, pos: GridPos) -> Option<(RobotId, Tick)>;
}

/// Conflict-avoidance bookkeeping for timed paths and parked robots: the
/// probe half ([`ReservationProbe`]) plus the mutating commit operations.
pub trait ReservationSystem: ReservationProbe {
    /// Reserve every timed step of `path` for `robot`. With `park_at_end`
    /// the robot additionally occupies the final cell from the path's end
    /// onward (pickup/return legs end with the robot standing on the floor);
    /// delivery legs end at a station where the robot docks into the bay and
    /// leaves the grid, so they do not park.
    fn reserve_path(&mut self, robot: RobotId, path: &Path, park_at_end: bool);

    /// Park `robot` at `pos` from tick `from` onward (occupies the cell at
    /// every `t >= from` until [`ReservationSystem::unpark`]).
    fn park(&mut self, robot: RobotId, pos: GridPos, from: Tick);

    /// Remove `robot`'s parked reservation (it is about to move or has left
    /// the grid into a station bay).
    fn unpark(&mut self, robot: RobotId);

    /// Remove every *timed* reservation held by `robot` (parked state is
    /// untouched — callers re-[`ReservationSystem::park`] as needed). Used
    /// when a path is cancelled mid-execution: a broken-down robot or one
    /// whose route was invalidated by a blockade must stop claiming the
    /// cells it will no longer visit, so survivors can route through them.
    /// This is a rare exception path; implementations may scan.
    fn release_robot(&mut self, robot: RobotId);

    /// Garbage-collect timed reservations strictly before tick `t` (the
    /// paper's periodic `update` operation).
    fn release_before(&mut self, t: Tick);

    /// Number of live timed reservations (diagnostics).
    fn reservation_count(&self) -> usize;
}

/// Sentinel for "no robot" in the packed robot half-word.
const EMPTY: u32 = u32::MAX;

/// A cell with no parked robot: sentinel robot, zero start tick.
const EMPTY_CELL: u64 = (EMPTY as u64) << 32;

/// Largest parking start tick the `u32` cell encoding can hold. Horizons in
/// the paper's datasets are ~10⁵ ticks, so four billion is far out of reach;
/// parking beyond it panics rather than silently truncating.
pub const MAX_PARK_TICK: Tick = u32::MAX as Tick;

/// Shared bookkeeping for parked (indefinitely stationary) robots, used by
/// both reservation-system implementations. Each cell is **one packed
/// `u64`** — the parked robot in the high half (sentinel = none), the
/// `u32` start tick in the low half under the [`MAX_PARK_TICK`] guard — so
/// the per-expansion `occupant` probe is a single bounds-checked load of a
/// single cache line (8 B/cell total, the Fig. 12 fixed cost charged to
/// every planner). The rarely-used robot→cell side stays a small `HashMap`.
#[derive(Debug, Clone)]
pub struct ParkingBoard {
    width: u16,
    /// Packed parked entry per cell: `robot << 32 | start tick`.
    cells: Vec<u64>,
    /// Reverse index for `unpark`/re-`park` (rare operations).
    by_robot: HashMap<RobotId, GridPos>,
}

impl ParkingBoard {
    /// Empty board over a `width`×`height` grid.
    pub fn new(width: u16, height: u16) -> Self {
        let cells = width as usize * height as usize;
        Self {
            width,
            cells: vec![EMPTY_CELL; cells],
            by_robot: HashMap::new(),
        }
    }

    /// The robot parked on `pos` at tick `t`, if any.
    #[inline]
    pub fn occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        let e = self.cells[pos.to_index(self.width)];
        let r = (e >> 32) as u32;
        if r != EMPTY && t >= (e as u32) as Tick {
            Some(RobotId::from(r))
        } else {
            None
        }
    }

    /// The parked occupant of `pos` regardless of start tick.
    #[inline]
    pub fn entry(&self, pos: GridPos) -> Option<(RobotId, Tick)> {
        let e = self.cells[pos.to_index(self.width)];
        let r = (e >> 32) as u32;
        (r != EMPTY).then(|| (RobotId::from(r), (e as u32) as Tick))
    }

    /// Park `robot` at `pos` from `from` onward, replacing any previous
    /// parking spot of the same robot.
    ///
    /// # Panics
    ///
    /// Panics if a *different* robot is already parked on `pos` — that would
    /// be a planner bug leading to a guaranteed vertex conflict — or if
    /// `from` exceeds [`MAX_PARK_TICK`].
    pub fn park(&mut self, robot: RobotId, pos: GridPos, from: Tick) {
        assert!(
            from <= MAX_PARK_TICK,
            "parking tick {from} exceeds the u32 ParkingBoard encoding \
             (MAX_PARK_TICK = {MAX_PARK_TICK})"
        );
        let i = pos.to_index(self.width);
        let occupant = (self.cells[i] >> 32) as u32;
        if occupant != EMPTY {
            let other = RobotId::from(occupant);
            assert_eq!(
                other, robot,
                "cell {pos} already holds parked robot {other}, cannot park {robot}"
            );
        }
        if let Some(old) = self.by_robot.insert(robot, pos) {
            if old != pos {
                self.cells[old.to_index(self.width)] = EMPTY_CELL;
            }
        }
        debug_assert!(
            (robot.index() as u32) < EMPTY,
            "robot id reserved as sentinel"
        );
        self.cells[i] = ((robot.index() as u64) << 32) | (from as u32) as u64;
    }

    /// Remove `robot`'s parking reservation, if any.
    pub fn unpark(&mut self, robot: RobotId) {
        if let Some(pos) = self.by_robot.remove(&robot) {
            self.cells[pos.to_index(self.width)] = EMPTY_CELL;
        }
    }

    /// Number of parked robots.
    pub fn len(&self) -> usize {
        self.by_robot.len()
    }

    /// Whether no robot is parked.
    pub fn is_empty(&self) -> bool {
        self.by_robot.is_empty()
    }

    /// Approximate heap bytes held: the packed cell array (8 B/cell) plus
    /// the reverse index.
    pub fn memory_bytes(&self) -> usize {
        let robot_entry = std::mem::size_of::<(RobotId, GridPos)>() + HASH_ENTRY_OVERHEAD;
        self.cells.capacity() * std::mem::size_of::<u64>() + self.by_robot.len() * robot_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    #[test]
    fn park_and_query() {
        let mut b = ParkingBoard::new(8, 8);
        b.park(RobotId::new(1), p(2, 2), 10);
        assert_eq!(b.occupant(p(2, 2), 10), Some(RobotId::new(1)));
        assert_eq!(b.occupant(p(2, 2), 9), None, "not yet parked");
        assert_eq!(b.occupant(p(2, 3), 10), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn repark_moves_robot() {
        let mut b = ParkingBoard::new(8, 8);
        b.park(RobotId::new(1), p(0, 0), 0);
        b.park(RobotId::new(1), p(5, 5), 20);
        assert_eq!(b.occupant(p(0, 0), 30), None, "old spot released");
        assert_eq!(b.occupant(p(5, 5), 25), Some(RobotId::new(1)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn unpark_clears() {
        let mut b = ParkingBoard::new(4, 4);
        b.park(RobotId::new(3), p(1, 1), 0);
        b.unpark(RobotId::new(3));
        assert!(b.is_empty());
        assert_eq!(b.occupant(p(1, 1), 5), None);
        // Unparking an unknown robot is a no-op.
        b.unpark(RobotId::new(9));
    }

    #[test]
    #[should_panic(expected = "already holds parked robot")]
    fn double_park_different_robot_panics() {
        let mut b = ParkingBoard::new(4, 4);
        b.park(RobotId::new(1), p(1, 1), 0);
        b.park(RobotId::new(2), p(1, 1), 0);
    }

    #[test]
    fn repark_same_cell_updates_from_tick() {
        let mut b = ParkingBoard::new(4, 4);
        b.park(RobotId::new(1), p(1, 1), 0);
        b.park(RobotId::new(1), p(1, 1), 9);
        assert_eq!(b.occupant(p(1, 1), 5), None, "new start tick applies");
        assert_eq!(b.occupant(p(1, 1), 9), Some(RobotId::new(1)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn memory_accounts_dense_arrays() {
        let b = ParkingBoard::new(10, 10);
        // 100 cells × one packed 8-byte word exactly while the reverse
        // index is empty — the Fig. 12 fixed cost per cell.
        assert_eq!(b.memory_bytes(), 100 * 8);
        let mut c = b.clone();
        c.park(RobotId::new(0), p(0, 0), 0);
        assert!(c.memory_bytes() > b.memory_bytes());
    }

    #[test]
    fn park_tick_roundtrips_at_guard_boundary() {
        let mut b = ParkingBoard::new(4, 4);
        b.park(RobotId::new(1), p(1, 1), MAX_PARK_TICK);
        assert_eq!(b.entry(p(1, 1)), Some((RobotId::new(1), MAX_PARK_TICK)));
        assert_eq!(b.occupant(p(1, 1), MAX_PARK_TICK - 1), None);
        assert_eq!(b.occupant(p(1, 1), MAX_PARK_TICK), Some(RobotId::new(1)));
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 ParkingBoard encoding")]
    fn park_beyond_guard_panics() {
        let mut b = ParkingBoard::new(4, 4);
        b.park(RobotId::new(1), p(1, 1), MAX_PARK_TICK + 1);
    }
}
