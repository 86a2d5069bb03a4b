//! The spatiotemporal graph (Fig. 7): the spatial grid duplicated per tick.
//!
//! This is the reservation structure used by ATP and the baseline planners.
//! Each *time layer* is a dense `H·W` occupancy array, so worst-case space is
//! `O(HW · T)` — the cost the paper's Sec. VI-B replaces with the
//! [`crate::cdt::ConflictDetectionTable`]. Passed layers are released
//! every tick (`release_before`, ADR-035), matching the paper's note that
//! all planners "eliminate passed spatiotemporal graph … timely"; the structure
//! is nonetheless much larger than the CDT because live layers materialize
//! every cell.
//!
//! # Hot-path design
//!
//! Layers are `u16` arrays with `u16::MAX` as the "empty" sentinel rather
//! than the seed's `Option<RobotId>` boxes, a quarter of the bytes per
//! cell. Fleet sizes in the paper are ≤ 10⁴, far below [`MAX_FLEET`];
//! reserving with a robot id at or above it panics rather than aliasing
//! the sentinel. The `VecDeque` of layers is the tick ring: `layers[t -
//! base]` is the occupancy of tick `t`, the front is popped as time passes,
//! and `ensure_layer` appends (or prepends, for out-of-order reservations)
//! fresh layers. Each layer carries its live-reservation count, maintained
//! on insert, so `release_before` pops passed layers without rescanning
//! their cells.
//!
//! A paper-scale layer is 80 KB, and the live ones fill ~17 MB, so a probe
//! of the dense cell misses L2 and almost always finds it empty. Each layer
//! therefore also keeps a **line map**: one bit per `LINE` = 32 consecutive
//! cells (64 bytes of the layer), 160 B for a 200×200 layer. The invariant
//! is one-sided: a clear bit means every cell of its line is `EMPTY`.
//! Writes set the bit of every cell they fill; `release_robot` leaves bits
//! set, since a stale bit only costs the dense read it would have made
//! anyway. `occupant` and `last_reservation_excluding` read the bit first
//! and the dense cell only when it is set, and the full walk
//! (`release_robot`) visits only set lines. `can_move` is
//! the trait default over `occupant`, which probes the `from` cell only
//! when someone stands on `to` at `t`.
//! [`crate::reservation::ParkingBoard`] supplies the parked fallthrough as
//! a dense probe as well (`docs/adr/ADR-031-stg-line-map.md`).

use crate::footprint::MemoryFootprint;
use crate::path::Path;
use crate::reservation::{ParkingBoard, ReservationProbe, ReservationSystem};
use std::collections::VecDeque;
use tprw_warehouse::{GridPos, RobotId, Tick, MAX_FLEET};

/// Sentinel for "no robot" in a layer cell.
const EMPTY: u16 = u16::MAX;
const _: () = assert!(MAX_FLEET <= EMPTY as usize);

/// Cells per line-map bit: 64 bytes of a `u16` layer.
const LINE: usize = 32;

/// One time layer: dense occupancy, its line map (bit `l % 64` of word
/// `l / 64` for line `l`) and its live-reservation count. A clear bit means
/// all [`LINE`] cells of its line are [`EMPTY`].
#[derive(Debug, Clone)]
struct Layer {
    cells: Box<[u16]>,
    lines: Box<[u64]>,
    occupied: u32,
}

impl Layer {
    fn new(cells: usize) -> Self {
        Self {
            cells: vec![EMPTY; cells].into_boxed_slice(),
            lines: vec![0; cells.div_ceil(LINE * 64)].into_boxed_slice(),
            occupied: 0,
        }
    }

    /// The occupant of cell `idx`, reading the dense cell only when the
    /// line map says its line may hold one.
    #[inline]
    fn get(&self, idx: usize) -> u16 {
        if line_set(&self.lines, idx / LINE) {
            self.cells[idx]
        } else {
            EMPTY
        }
    }

    /// Write `id` into cell `idx` and set its line's bit; returns whether
    /// the cell was empty.
    #[inline]
    fn put(&mut self, idx: usize, id: u16) -> bool {
        let line = idx / LINE;
        self.lines[line / 64] |= 1 << (line % 64);
        let added = self.cells[idx] == EMPTY;
        self.cells[idx] = id;
        self.occupied += u32::from(added);
        added
    }
}

/// Whether `line`'s bit is set in a line map.
#[inline]
fn line_set(lines: &[u64], line: usize) -> bool {
    lines[line / 64] >> (line % 64) & 1 != 0
}

/// Dense per-tick occupancy layers over an `H·W` grid.
#[derive(Debug, Clone)]
pub struct SpatioTemporalGraph {
    width: u16,
    cells_per_layer: usize,
    /// Tick of `layers\[0\]`.
    base: Tick,
    layers: VecDeque<Layer>,
    parked: ParkingBoard,
    reservations: usize,
}

impl SpatioTemporalGraph {
    /// Create an empty graph for a `width`×`height` grid.
    pub fn new(width: u16, height: u16) -> Self {
        Self {
            width,
            cells_per_layer: width as usize * height as usize,
            base: 0,
            layers: VecDeque::new(),
            parked: ParkingBoard::new(width, height),
            reservations: 0,
        }
    }

    fn layer_index(&self, t: Tick) -> Option<usize> {
        if t < self.base {
            return None;
        }
        let i = (t - self.base) as usize;
        (i < self.layers.len()).then_some(i)
    }

    fn ensure_layer(&mut self, t: Tick) -> &mut Layer {
        if self.layers.is_empty() {
            self.base = t;
        }
        // Reservations may arrive out of tick order; extend backwards too.
        while t < self.base {
            self.layers.push_front(Layer::new(self.cells_per_layer));
            self.base -= 1;
        }
        let need = (t - self.base) as usize + 1;
        while self.layers.len() < need {
            self.layers.push_back(Layer::new(self.cells_per_layer));
        }
        let i = (t - self.base) as usize;
        &mut self.layers[i]
    }

    /// Number of live time layers (diagnostics / memory tests).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

impl ReservationProbe for SpatioTemporalGraph {
    fn occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        let idx = pos.to_index(self.width);
        match self
            .layer_index(t)
            .map_or(EMPTY, |i| self.layers[i].get(idx))
        {
            EMPTY => self.parked.occupant(pos, t),
            r => Some(RobotId::from(r as u32)),
        }
    }

    fn last_reservation_excluding(&self, pos: GridPos, robot: RobotId) -> Option<Tick> {
        let idx = pos.to_index(self.width);
        let id = robot.index() as u16;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let r = layer.get(idx);
            if r != EMPTY && r != id {
                return Some(self.base + i as Tick);
            }
        }
        None
    }

    fn parked_at(&self, pos: GridPos) -> Option<(RobotId, Tick)> {
        self.parked.entry(pos)
    }
}

impl ReservationSystem for SpatioTemporalGraph {
    fn reserve_path(&mut self, robot: RobotId, path: &Path, park_at_end: bool) {
        self.parked.unpark(robot);
        let width = self.width;
        assert!(
            robot.index() < MAX_FLEET,
            "robot {robot} exceeds the u16 STG layer encoding \
             (MAX_FLEET = {MAX_FLEET}); shard the fleet or widen the layers"
        );
        let id = robot.index() as u16;
        let mut added = 0usize;
        for (t, cell) in path.iter_timed() {
            let layer = self.ensure_layer(t);
            let idx = cell.to_index(width);
            debug_assert!(
                layer.cells[idx] == EMPTY || layer.cells[idx] == id,
                "double reservation at {cell}@{t}"
            );
            added += usize::from(layer.put(idx, id));
        }
        self.reservations += added;
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
        // Rare exception path (breakdown / blockade invalidation): a scan
        // of the set lines. Their bits stay set (a stale bit costs one
        // dense read).
        let id = robot.index() as u16;
        for layer in &mut self.layers {
            let Layer {
                cells,
                lines,
                occupied,
            } = layer;
            for (line, chunk) in cells.chunks_mut(LINE).enumerate() {
                if !line_set(lines, line) {
                    continue;
                }
                for slot in chunk.iter_mut().filter(|slot| **slot == id) {
                    *slot = EMPTY;
                    *occupied -= 1;
                    self.reservations -= 1;
                }
            }
        }
    }

    fn release_before(&mut self, t: Tick) {
        while self.base < t && !self.layers.is_empty() {
            let layer = self.layers.pop_front().expect("non-empty checked");
            // Maintained on insert, so no O(HW) cell rescan per layer here.
            self.reservations -= layer.occupied as usize;
            self.base += 1;
        }
        if self.layers.is_empty() {
            self.base = t;
        }
    }

    fn reservation_count(&self) -> usize {
        self.reservations
    }
}

impl MemoryFootprint for SpatioTemporalGraph {
    fn memory_bytes(&self) -> usize {
        let layer_bytes = self.cells_per_layer * std::mem::size_of::<u16>()
            + self.cells_per_layer.div_ceil(LINE * 64) * std::mem::size_of::<u64>()
            + std::mem::size_of::<u32>();
        self.layers.len() * layer_bytes + self.parked.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_cdt::{apply_soup, default_can_move, same_answers};
    use proptest::prelude::*;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn path(start: Tick, cells: &[(u16, u16)]) -> Path {
        Path {
            start,
            cells: cells.iter().map(|&(x, y)| p(x, y)).collect(),
        }
    }

    #[test]
    fn reserve_and_query() {
        let mut g = SpatioTemporalGraph::new(8, 8);
        let r = RobotId::new(1);
        g.reserve_path(r, &path(3, &[(0, 0), (1, 0), (2, 0)]), true);
        assert_eq!(g.occupant(p(0, 0), 3), Some(r));
        assert_eq!(g.occupant(p(1, 0), 4), Some(r));
        assert_eq!(g.occupant(p(2, 0), 5), Some(r));
        assert_eq!(g.occupant(p(1, 0), 3), None);
        assert_eq!(g.reservation_count(), 3);
        // Parks on final cell afterwards.
        assert_eq!(g.occupant(p(2, 0), 100), Some(r));
    }

    #[test]
    fn can_move_vertex_blocked() {
        let mut g = SpatioTemporalGraph::new(8, 8);
        g.reserve_path(RobotId::new(1), &path(0, &[(0, 0), (1, 0)]), true);
        let me = RobotId::new(2);
        assert!(!g.can_move(me, p(1, 1), p(1, 0), 0), "cell taken at t=1");
        assert!(g.can_move(me, p(2, 0), p(2, 1), 0), "free cell ok");
        // A robot never conflicts with itself.
        assert!(g.can_move(RobotId::new(1), p(0, 0), p(1, 0), 0));
    }

    #[test]
    fn can_move_swap_blocked() {
        let mut g = SpatioTemporalGraph::new(8, 8);
        // Robot 1 moves (1,0) -> (0,0) during [0,1].
        g.reserve_path(RobotId::new(1), &path(0, &[(1, 0), (0, 0)]), true);
        let me = RobotId::new(2);
        assert!(
            !g.can_move(me, p(0, 0), p(1, 0), 0),
            "swapping against robot 1 must be rejected"
        );
    }

    /// After `release_before(t)` no tick before `t` answers, and
    /// `memory_bytes` counts exactly the layers left.
    #[test]
    fn release_before_frees_layers() {
        let mut g = SpatioTemporalGraph::new(8, 8);
        let layer = 8 * 8 * 2 + 8 + 4;
        let held = |g: &SpatioTemporalGraph| g.memory_bytes() - g.parked.memory_bytes();
        g.reserve_path(RobotId::new(1), &path(0, &[(0, 0), (1, 0), (2, 0)]), true);
        assert_eq!(g.layer_count(), 3);
        assert_eq!(held(&g), 3 * layer);
        g.release_before(2);
        assert_eq!(g.layer_count(), 1);
        assert_eq!(held(&g), layer);
        for t in 0..2 {
            for pos in (0..8).flat_map(|y| (0..8).map(move |x| p(x, y))) {
                assert_eq!(g.occupant(pos, t), None, "{pos}@{t} released");
            }
        }
        assert_eq!(g.occupant(p(2, 0), 2), Some(RobotId::new(1)));
        g.release_before(100);
        assert_eq!((g.layer_count(), held(&g)), (0, 0));
    }

    #[test]
    fn memory_grows_with_horizon() {
        let mut g = SpatioTemporalGraph::new(16, 16);
        let empty = g.memory_bytes();
        g.reserve_path(
            RobotId::new(0),
            &Path {
                start: 0,
                cells: (0..15).map(|x| p(x, 0)).collect(),
            },
            true,
        );
        // 15 layers of 16×16 u16 cells.
        assert!(g.memory_bytes() >= empty + 15 * 16 * 16 * 2);
    }

    #[test]
    fn unpark_after_reserve() {
        let mut g = SpatioTemporalGraph::new(8, 8);
        let r = RobotId::new(1);
        g.reserve_path(r, &path(0, &[(0, 0), (1, 0)]), true);
        g.unpark(r);
        assert_eq!(g.occupant(p(1, 0), 50), None, "no longer parked");
        assert_eq!(g.occupant(p(1, 0), 1), Some(r), "timed step kept");
    }

    #[test]
    fn park_before_start_invisible() {
        let mut g = SpatioTemporalGraph::new(4, 4);
        g.park(RobotId::new(0), p(2, 2), 10);
        assert_eq!(g.occupant(p(2, 2), 9), None);
        assert_eq!(g.occupant(p(2, 2), 10), Some(RobotId::new(0)));
    }

    #[test]
    fn layers_are_a_quarter_of_the_seed_size() {
        // The u16 sentinel encoding stores a 16×16 layer in 512 B — a
        // quarter of the seed's `Option<RobotId>` (8-byte) slots and half of
        // `u32` cells — plus one line-map word (256 cells are 8 lines) and
        // the occupancy counter.
        let mut g = SpatioTemporalGraph::new(16, 16);
        g.reserve_path(RobotId::new(0), &path(0, &[(0, 0)]), false);
        assert_eq!(
            g.memory_bytes() - g.parked.memory_bytes(),
            16 * 16 * 2 + 8 + 4,
            "one layer, 2 bytes per cell plus 8 per map word plus the count"
        );
    }

    #[test]
    fn a_line_straddles_rows_and_holds_several_robots() {
        // On a 40-wide floor the second line (cells 32..64) is the end of
        // row 0 and the start of row 1.
        let mut g = SpatioTemporalGraph::new(40, 6);
        let (a, b) = (RobotId::new(1), RobotId::new(2));
        g.reserve_path(a, &path(5, &[(38, 0), (39, 0)]), false);
        g.reserve_path(b, &path(6, &[(0, 1)]), false);
        assert_eq!(g.layers[1].lines[0], 0b10, "one line set in layer 6");
        assert_eq!(g.occupant(p(39, 0), 6), Some(a));
        assert_eq!(g.occupant(p(0, 1), 6), Some(b));
        assert_eq!(g.occupant(p(31, 0), 6), None, "the first line is clear");
        assert_eq!(g.occupant(p(24, 1), 6), None, "the third line is clear");
        g.release_robot(a);
        assert_eq!(g.layers[1].lines[0], 0b10, "release leaves the bit set");
        assert_eq!(g.occupant(p(39, 0), 6), None);
        assert_eq!(g.occupant(p(0, 1), 6), Some(b));
        assert_eq!(g.reservation_count(), 1);
        assert_eq!(g.last_reservation_excluding(p(0, 1), a), Some(6));
        assert_eq!(g.last_reservation_excluding(p(39, 0), b), None);
    }

    #[test]
    fn release_uses_maintained_counts() {
        let mut g = SpatioTemporalGraph::new(8, 8);
        // Two overlapping paths: the shared cell must count once per layer.
        g.reserve_path(RobotId::new(1), &path(0, &[(0, 0), (1, 0), (2, 0)]), false);
        g.reserve_path(RobotId::new(2), &path(0, &[(0, 1), (1, 1), (2, 1)]), false);
        assert_eq!(g.reservation_count(), 6);
        g.release_before(2);
        assert_eq!(g.reservation_count(), 2, "one layer of two robots left");
        g.release_before(10);
        assert_eq!(g.reservation_count(), 0);
    }

    #[test]
    fn release_robot_frees_only_its_cells() {
        let mut g = SpatioTemporalGraph::new(8, 8);
        g.reserve_path(RobotId::new(1), &path(0, &[(0, 0), (1, 0), (2, 0)]), true);
        g.reserve_path(RobotId::new(2), &path(0, &[(0, 1), (1, 1)]), true);
        assert_eq!(g.reservation_count(), 5);
        g.release_robot(RobotId::new(1));
        assert_eq!(g.reservation_count(), 2, "robot 2's steps survive");
        assert_eq!(g.occupant(p(1, 0), 1), None);
        assert_eq!(g.occupant(p(1, 1), 1), Some(RobotId::new(2)));
        // Parked state untouched: the caller decides where the robot stands.
        assert_eq!(g.parked_at(p(2, 0)), Some((RobotId::new(1), 3)));
        // Layer counts stay consistent for release_before.
        g.release_before(100);
        assert_eq!(g.reservation_count(), 0);
    }

    #[test]
    fn max_fleet_id_reserves() {
        let mut g = SpatioTemporalGraph::new(4, 4);
        g.reserve_path(RobotId::new(MAX_FLEET - 1), &path(0, &[(0, 0)]), false);
        assert_eq!(
            g.occupant(p(0, 0), 0),
            Some(RobotId::new(MAX_FLEET - 1)),
            "largest encodable id round-trips"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 STG layer encoding")]
    fn oversized_fleet_panics() {
        let mut g = SpatioTemporalGraph::new(4, 4);
        g.reserve_path(RobotId::new(MAX_FLEET), &path(0, &[(0, 0)]), false);
    }

    proptest! {
        /// After the CDT's operation soup on a floor whose lines straddle
        /// rows, the graph answers every probe at every tick like the
        /// reference table: `occupant`, `parked_at`,
        /// `last_reservation_excluding` and the count (`same_answers`), and
        /// the `can_move` wait and the four moves from every cell (also
        /// against the three-probe form). Eight robots on 240 cells put
        /// several in one line.
        #[test]
        fn line_map_answers_like_the_reference(
            ops in proptest::collection::vec(
                (0u8..5, 0usize..8, 0u16..40, 0u16..6, 0u64..24), 1..48),
        ) {
            let (w, h) = (40u16, 6u16);
            let mut g = SpatioTemporalGraph::new(w, h);
            let reference = apply_soup(&ops, &mut g, (w, h), |_, _| {});
            same_answers(&g, &reference, (w, h), 0..30, 9)?;
            for y in 0..h {
                for x in 0..w {
                    let from = p(x, y);
                    let moves = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)];
                    let tos = moves.iter().filter_map(|&(dx, dy)| {
                        let (tx, ty) = (x as i32 + dx, y as i32 + dy);
                        ((0..w as i32).contains(&tx) && (0..h as i32).contains(&ty))
                            .then(|| p(tx as u16, ty as u16))
                    });
                    for to in tos {
                        for t in 0..30 {
                            // Ids 8 and 9 hold nothing; 0..8 are the soup's.
                            let robot = RobotId::new((x as usize + t as usize) % 10);
                            let want = reference.can_move(robot, from, to, t);
                            prop_assert_eq!(
                                g.can_move(robot, from, to, t), want,
                                "can_move disagrees for {} {}->{}@{}", robot, from, to, t
                            );
                            prop_assert_eq!(default_can_move(&g, robot, from, to, t), want);
                        }
                    }
                }
            }
        }
    }
}
