//! The one-`Vec`-per-cell conflict detection table, compiled only under
//! `cfg(test)` as the reference the shipped table's property tests compare
//! against.
//!
//! One heap-allocated sorted `Vec<(Tick, RobotId)>` per cell: every cell
//! pays a 24-byte `Vec` header whether or not it ever holds a reservation,
//! `can_move` binary-searches through a pointer indirection, and GC shrinks
//! per-cell buffers individually. [`crate::cdt::ConflictDetectionTable`]
//! keeps up to two packed entries inline per cell and gives only longer
//! windows a block of one arena; the two must answer every query
//! identically (property-tested in `cdt.rs`).

use crate::footprint::MemoryFootprint;
use crate::path::Path;
use crate::reservation::{ParkingBoard, ReservationProbe, ReservationSystem};
use proptest::prop_assert_eq;
use proptest::test_runner::TestCaseError;
use tprw_warehouse::{GridPos, RobotId, Tick};

/// Per-cell sorted reservation windows, one heap `Vec` per cell.
#[derive(Debug, Clone)]
pub struct ReferenceConflictDetectionTable {
    width: u16,
    cells: Vec<Vec<(Tick, RobotId)>>,
    parked: ParkingBoard,
    reservations: usize,
}

impl ReferenceConflictDetectionTable {
    /// Create an empty table for a `width`×`height` grid.
    pub fn new(width: u16, height: u16) -> Self {
        Self {
            width,
            cells: vec![Vec::new(); width as usize * height as usize],
            parked: ParkingBoard::new(width, height),
            reservations: 0,
        }
    }

    /// Insert a single timed reservation.
    pub fn insert(&mut self, robot: RobotId, pos: GridPos, t: Tick) {
        let window = &mut self.cells[pos.to_index(self.width)];
        if insert_sorted(window, t, robot) {
            self.reservations += 1;
        }
    }

    /// The timed occupant of `pos` at `t` (ignoring parked robots).
    #[inline]
    fn timed_occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        let window = &self.cells[pos.to_index(self.width)];
        let i = window.partition_point(|e| e.0 < t);
        (i < window.len() && window[i].0 == t).then(|| window[i].1)
    }
}

/// Insert `(t, robot)` keeping `window` sorted; returns whether a new entry
/// was added. Path steps arrive in ascending tick order, so probe the tail
/// first: the common case is a straight append.
#[inline]
fn insert_sorted(window: &mut Vec<(Tick, RobotId)>, t: Tick, robot: RobotId) -> bool {
    if let Some(&(last, _)) = window.last() {
        if t > last {
            window.push((t, robot));
            return true;
        }
    } else {
        window.push((t, robot));
        return true;
    }
    let i = window.partition_point(|e| e.0 < t);
    if i < window.len() && window[i].0 == t {
        debug_assert!(
            window[i].1 == robot,
            "double reservation at tick {t} by {} vs {robot}",
            window[i].1
        );
        return false;
    }
    window.insert(i, (t, robot));
    true
}

impl ReservationProbe for ReferenceConflictDetectionTable {
    fn occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        self.timed_occupant(pos, t)
            .or_else(|| self.parked.occupant(pos, t))
    }

    /// Specialization of the trait default: the `t`/`t+1` occupants of `to`
    /// share one binary search because consecutive ticks are adjacent in the
    /// sorted window.
    fn can_move(&self, robot: RobotId, from: GridPos, to: GridPos, t: Tick) -> bool {
        let window = &self.cells[to.to_index(self.width)];
        let i = window.partition_point(|e| e.0 < t);
        let to_now_timed = (i < window.len() && window[i].0 == t).then(|| window[i].1);
        let j = i + usize::from(to_now_timed.is_some());
        let to_next_timed = (j < window.len() && window[j].0 == t + 1).then(|| window[j].1);

        let to_next = to_next_timed.or_else(|| self.parked.occupant(to, t + 1));
        if to_next.is_some_and(|x| x != robot) {
            return false; // single-grid conflict
        }
        if from != to {
            // inter-grid (swap) conflict: someone sits on `to` now and will
            // be on `from` next tick.
            let there_now = to_now_timed.or_else(|| self.parked.occupant(to, t));
            let here_next = self.occupant(from, t + 1);
            if let (Some(x), Some(y)) = (there_now, here_next) {
                if x == y && x != robot {
                    return false;
                }
            }
        }
        true
    }

    fn last_reservation_excluding(&self, pos: GridPos, robot: RobotId) -> Option<Tick> {
        self.cells[pos.to_index(self.width)]
            .iter()
            .rev()
            .find(|&&(_, r)| r != robot)
            .map(|&(t, _)| t)
    }

    fn parked_at(&self, pos: GridPos) -> Option<(RobotId, Tick)> {
        self.parked.entry(pos)
    }
}

impl ReservationSystem for ReferenceConflictDetectionTable {
    fn reserve_path(&mut self, robot: RobotId, path: &Path, park_at_end: bool) {
        self.parked.unpark(robot);
        for (t, cell) in path.iter_timed() {
            let window = &mut self.cells[cell.to_index(self.width)];
            if insert_sorted(window, t, robot) {
                self.reservations += 1;
            }
        }
        if park_at_end {
            self.parked.park(robot, path.last(), path.end() + 1);
        }
    }

    fn park(&mut self, robot: RobotId, pos: GridPos, from: Tick) {
        self.parked.park(robot, pos, from);
    }

    fn unpark(&mut self, robot: RobotId) {
        self.parked.unpark(robot);
    }

    fn release_robot(&mut self, robot: RobotId) {
        // Rare exception path (breakdown / blockade invalidation): one
        // retain pass over the per-cell windows, keeping each window sorted.
        for window in &mut self.cells {
            let before = window.len();
            window.retain(|&(_, r)| r != robot);
            self.reservations -= before - window.len();
        }
    }

    fn release_before(&mut self, t: Tick) {
        for window in &mut self.cells {
            if window.is_empty() {
                continue;
            }
            // Keep [t, ..); drop (.., t).
            let cut = window.partition_point(|e| e.0 < t);
            if cut > 0 {
                window.drain(..cut);
                self.reservations -= cut;
            }
            // Amortized compaction: GC is the only shrink point. Windows
            // sitting far above their live tail return the memory; windows
            // near their high water keep capacity for allocation-free reuse.
            let target = (window.len() * 2).max(4);
            if window.capacity() > target * 2 {
                window.shrink_to(target);
            }
        }
    }

    fn reservation_count(&self) -> usize {
        self.reservations
    }
}

/// [`ReservationProbe::can_move`] as three unconditional probes: the trait
/// default, which skips the `from` probe when `to` is free at `t`, and
/// every table that specializes `can_move` must answer exactly like it.
pub fn default_can_move(
    probe: &impl ReservationProbe,
    robot: RobotId,
    from: GridPos,
    to: GridPos,
    t: Tick,
) -> bool {
    if probe.occupant(to, t + 1).is_some_and(|x| x != robot) {
        return false;
    }
    if from != to {
        let there_now = probe.occupant(to, t);
        let here_next = probe.occupant(from, t + 1);
        if let (Some(x), Some(y)) = (there_now, here_next) {
            if x == y && x != robot {
                return false;
            }
        }
    }
    true
}

/// Whether `a` and `b` answer alike on the `w`×`h` cells: `occupant` at
/// every cell and every tick of `ticks`, `parked_at` and, for every robot
/// below `robots`, `last_reservation_excluding` at every cell, and the
/// reservation count.
pub fn same_answers(
    a: &impl ReservationSystem,
    b: &impl ReservationSystem,
    (w, h): (u16, u16),
    ticks: std::ops::Range<Tick>,
    robots: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.reservation_count(), b.reservation_count());
    for pos in (0..h).flat_map(|y| (0..w).map(move |x| GridPos::new(x, y))) {
        prop_assert_eq!(a.parked_at(pos), b.parked_at(pos), "parked_at {}", pos);
        for r in (0..robots).map(RobotId::new) {
            prop_assert_eq!(
                a.last_reservation_excluding(pos, r),
                b.last_reservation_excluding(pos, r),
                "last_reservation_excluding {} at {}",
                r,
                pos
            );
        }
        for t in ticks.clone() {
            prop_assert_eq!(
                a.occupant(pos, t),
                b.occupant(pos, t),
                "occupant {}@{}",
                pos,
                t
            );
        }
    }
    Ok(())
}

/// Drive an operation soup into `table` and a fresh reference table of
/// `w`×`h` cells: one-cell and short eastward paths, GC passes, robot
/// releases, (un)parking and advances of the finished tick, each op a
/// `(kind, robot, x, y, t)` tuple. A side map of live timed reservations
/// skips ops that would double-reserve a cell-tick for two robots (a
/// planner invariant every layout `debug_assert`s), so every generated
/// soup is valid for both. An advance moves the finished tick `now` up to
/// `t`, never down, and calls `advance(table, now)`; the reference does
/// nothing. The soup ends with `release_before(now)` on both, which drops
/// every entry a table may have dropped early.
pub fn apply_soup<T: ReservationSystem>(
    ops: &[(u8, usize, u16, u16, u64)],
    table: &mut T,
    (w, h): (u16, u16),
    advance: impl Fn(&mut T, Tick),
) -> ReferenceConflictDetectionTable {
    let mut reference = ReferenceConflictDetectionTable::new(w, h);
    let mut now = 0;
    let mut live: std::collections::HashMap<(GridPos, Tick), RobotId> =
        std::collections::HashMap::new();
    for &(kind, robot, x, y, t) in ops {
        let robot = RobotId::new(robot);
        let pos = GridPos::new(x % w, y % h);
        match kind % 6 {
            0 => {
                if *live.entry((pos, t)).or_insert(robot) == robot {
                    let step = Path::stationary(pos, t);
                    table.reserve_path(robot, &step, false);
                    reference.reserve_path(robot, &step, false);
                }
            }
            1 => {
                // Short eastward path, skipped wholesale if any step would
                // collide with another robot's reservation.
                let cells: Vec<GridPos> = (0..4u16)
                    .map(|d| GridPos::new((x + d) % w, y % h))
                    .collect();
                let path = Path { start: t, cells };
                let clash = path
                    .iter_timed()
                    .any(|(pt, pc)| live.get(&(pc, pt)).is_some_and(|&r| r != robot));
                if !clash {
                    for (pt, pc) in path.iter_timed() {
                        live.insert((pc, pt), robot);
                    }
                    table.reserve_path(robot, &path, false);
                    reference.reserve_path(robot, &path, false);
                }
            }
            2 => {
                live.retain(|&(_, lt), _| lt >= t);
                table.release_before(t);
                reference.release_before(t);
            }
            3 => {
                live.retain(|_, &mut r| r != robot);
                table.release_robot(robot);
                reference.release_robot(robot);
            }
            4 => {
                if table.parked_at(pos).is_none() && reference.parked_at(pos).is_none() {
                    table.park(robot, pos, t);
                    reference.park(robot, pos, t);
                } else {
                    table.unpark(robot);
                    reference.unpark(robot);
                }
            }
            _ => {
                now = now.max(t);
                advance(table, now);
            }
        }
    }
    table.release_before(now);
    reference.release_before(now);
    reference
}

impl MemoryFootprint for ReferenceConflictDetectionTable {
    fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Tick, RobotId)>();
        let base = self.cells.len() * std::mem::size_of::<Vec<(Tick, RobotId)>>();
        let windows: usize = self.cells.iter().map(|w| w.capacity() * entry).sum();
        base + windows + self.parked.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    #[test]
    fn reference_basic_roundtrip() {
        let mut c = ReferenceConflictDetectionTable::new(8, 8);
        let r = RobotId::new(1);
        c.reserve_path(
            r,
            &Path {
                start: 3,
                cells: vec![p(0, 0), p(1, 0), p(2, 0)],
            },
            true,
        );
        assert_eq!(c.occupant(p(0, 0), 3), Some(r));
        assert_eq!(c.occupant(p(1, 0), 4), Some(r));
        assert_eq!(c.reservation_count(), 3);
        assert_eq!(c.occupant(p(2, 0), 99), Some(r), "parks after end");
        c.release_before(4);
        assert_eq!(c.reservation_count(), 2);
        c.release_robot(r);
        assert_eq!(c.reservation_count(), 0);
    }

    #[test]
    fn reference_keeps_vec_header_cost() {
        // The baseline's defining property: 24 B of `Vec` header per cell
        // even while completely empty. The shipped CDT spends 16 B per cell
        // on two inline entries and pays a `Vec` header only per spilled
        // cell.
        let c = ReferenceConflictDetectionTable::new(10, 10);
        let headers = 100 * std::mem::size_of::<Vec<(Tick, RobotId)>>();
        assert_eq!(c.memory_bytes(), headers + 100 * 2);
    }
}
