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
//! probed on every A* expansion (the `can_move` fallthrough), it stores the
//! parked robot of each cell in **one `u16` per cell** rather than a
//! `HashMap`: the hot read on a free cell is a single bounds-checked load.
//! The start tick sits with the robot's spot in a `Vec` indexed by robot
//! id, read only when a robot is there.

use crate::path::Path;
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

/// A cell with no parked robot. Robot ids stay below it
/// (`tprw_warehouse::MAX_FLEET` is 65 535).
const NO_ROBOT: u16 = u16::MAX;

/// The spot of a robot that is not parked.
const NO_SPOT: (u32, u32) = (u32::MAX, 0);

/// Largest parking start tick a robot's `u32` spot can hold. Horizons in
/// the paper's datasets are ~10⁵ ticks, so four billion is far out of reach;
/// parking beyond it panics rather than silently truncating.
pub const MAX_PARK_TICK: Tick = u32::MAX as Tick;

/// Shared bookkeeping for parked (indefinitely stationary) robots, used by
/// every reservation-system implementation. Each cell is **one `u16`**, the
/// parked robot or `u16::MAX` for none (2 B/cell, the Fig. 12 fixed cost
/// charged to every planner), so the per-expansion `occupant` probe of a
/// free cell is a single bounds-checked load. Each robot's spot — its cell
/// and the `u32` start tick under the [`MAX_PARK_TICK`] guard — sits in a
/// `Vec` indexed by robot id, read only when the cell names the robot.
#[derive(Debug, Clone)]
pub struct ParkingBoard {
    width: u16,
    /// The robot parked on each cell.
    cells: Vec<u16>,
    /// `(cell index, start tick)` per robot id; `NO_SPOT` when not parked.
    spots: Vec<(u32, u32)>,
    /// Number of parked robots.
    parked: usize,
}

impl ParkingBoard {
    /// Empty board over a `width`×`height` grid.
    pub fn new(width: u16, height: u16) -> Self {
        let cells = width as usize * height as usize;
        Self {
            width,
            cells: vec![NO_ROBOT; cells],
            spots: Vec::new(),
            parked: 0,
        }
    }

    /// The robot parked on `pos` at tick `t`, if any.
    #[inline]
    pub fn occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        self.entry(pos)
            .and_then(|(r, from)| (t >= from).then_some(r))
    }

    /// The parked occupant of `pos` regardless of start tick.
    #[inline]
    pub fn entry(&self, pos: GridPos) -> Option<(RobotId, Tick)> {
        let r = self.cells[pos.to_index(self.width)];
        (r != NO_ROBOT).then(|| (RobotId::new(r as usize), self.spots[r as usize].1 as Tick))
    }

    /// Park `robot` at `pos` from `from` onward, replacing any previous
    /// parking spot of the same robot.
    ///
    /// # Panics
    ///
    /// Panics if a *different* robot is already parked on `pos` — that would
    /// be a planner bug leading to a guaranteed vertex conflict — if `from`
    /// exceeds [`MAX_PARK_TICK`], or if the robot id is `u16::MAX` or more.
    pub fn park(&mut self, robot: RobotId, pos: GridPos, from: Tick) {
        assert!(
            from <= MAX_PARK_TICK,
            "parking tick {from} exceeds the u32 ParkingBoard encoding \
             (MAX_PARK_TICK = {MAX_PARK_TICK})"
        );
        assert!(
            robot.index() < NO_ROBOT as usize,
            "robot {robot} exceeds the u16 ParkingBoard encoding"
        );
        let i = pos.to_index(self.width);
        let occupant = self.cells[i];
        if occupant != NO_ROBOT {
            let other = RobotId::new(occupant as usize);
            assert_eq!(
                other, robot,
                "cell {pos} already holds parked robot {other}, cannot park {robot}"
            );
        }
        let r = robot.index();
        if r >= self.spots.len() {
            self.spots.resize(r + 1, NO_SPOT);
        }
        let (old, _) = self.spots[r];
        if old == NO_SPOT.0 {
            self.parked += 1;
        } else {
            self.cells[old as usize] = NO_ROBOT;
        }
        self.cells[i] = r as u16;
        self.spots[r] = (i as u32, from as u32);
    }

    /// Remove `robot`'s parking reservation, if any.
    pub fn unpark(&mut self, robot: RobotId) {
        let Some(spot) = self.spots.get_mut(robot.index()) else {
            return;
        };
        if spot.0 != NO_SPOT.0 {
            self.cells[spot.0 as usize] = NO_ROBOT;
            *spot = NO_SPOT;
            self.parked -= 1;
        }
    }

    /// Number of parked robots.
    pub fn len(&self) -> usize {
        self.parked
    }

    /// Whether no robot is parked.
    pub fn is_empty(&self) -> bool {
        self.parked == 0
    }

    /// Heap bytes held: the cell array (2 B/cell) plus the spots (8 B per
    /// robot id slot).
    pub fn memory_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<u16>()
            + self.spots.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        // 100 cells × one 2-byte robot word exactly while no robot has a
        // spot — the Fig. 12 fixed cost per cell.
        assert_eq!(b.memory_bytes(), 100 * 2);
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

    #[test]
    fn largest_robot_id_roundtrips() {
        let mut b = ParkingBoard::new(4, 4);
        let r = RobotId::new(u16::MAX as usize - 1);
        b.park(r, p(3, 3), 5);
        assert_eq!(b.entry(p(3, 3)), Some((r, 5)));
        assert_eq!(b.occupant(p(3, 3), 5), Some(r));
        b.unpark(r);
        assert_eq!(b.entry(p(3, 3)), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 ParkingBoard encoding")]
    fn robot_id_of_the_sentinel_panics() {
        let mut b = ParkingBoard::new(4, 4);
        b.park(RobotId::new(u16::MAX as usize), p(1, 1), 0);
    }

    proptest! {
        /// Random park, re-park, unpark and probe sequences answer exactly
        /// like a `BTreeMap` from robot to `(cell, start tick)`, and the
        /// board's bytes are its two arrays' capacities to the byte.
        #[test]
        fn board_matches_a_map_model(
            ops in proptest::collection::vec(
                (0u8..3, 0usize..12, 0u16..6, 0u16..6, 0u64..30), 1..80),
        ) {
            let mut b = ParkingBoard::new(6, 6);
            let mut model: BTreeMap<RobotId, (GridPos, Tick)> = BTreeMap::new();
            for &(op, r, x, y, t) in &ops {
                let robot = RobotId::new(r);
                let pos = p(x, y);
                match op {
                    0 | 1 => {
                        // Park only where no other robot stands (the board
                        // panics otherwise, a planner bug).
                        let taken = model.iter().any(|(&o, &(c, _))| c == pos && o != robot);
                        if !taken {
                            b.park(robot, pos, t);
                            model.insert(robot, (pos, t));
                        }
                    }
                    _ => {
                        b.unpark(robot);
                        model.remove(&robot);
                    }
                }
                prop_assert_eq!(b.len(), model.len());
                prop_assert_eq!(b.is_empty(), model.is_empty());
                for cx in 0..6u16 {
                    for cy in 0..6u16 {
                        let c = p(cx, cy);
                        let want = model.iter().find(|(_, &(mc, _))| mc == c);
                        prop_assert_eq!(b.entry(c), want.map(|(&o, &(_, f))| (o, f)));
                        for probe in [0, t, t + 1, 31] {
                            prop_assert_eq!(
                                b.occupant(c, probe),
                                want.and_then(|(&o, &(_, f))| (probe >= f).then_some(o)),
                                "occupant disagrees at {}@{}", c, probe
                            );
                        }
                    }
                }
                prop_assert_eq!(b.memory_bytes(), 36 * 2 + b.spots.capacity() * 8);
            }
        }
    }
}
