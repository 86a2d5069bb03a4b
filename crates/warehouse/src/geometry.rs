//! Grid geometry: positions, directions, rectangles and Manhattan metrics.
//!
//! The warehouse is partitioned into unit grids whose side length equals a
//! robot's side length (Sec. II); all movement is 4-connected at unit
//! velocity, so the Manhattan distance equals the uncongested travel delay.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A cell coordinate. `x` indexes columns (0..width), `y` rows (0..height).
///
/// It serializes as one integer, `x | y << 16`: a position is the
/// commonest value in a snapshot, and a `{x, y}` object cost it 33 bytes
/// and three heap allocations in the tree (snapshot schema v6 on,
/// `docs/adr/ADR-014-packed-positions.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridPos {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl GridPos {
    /// Construct a position.
    #[inline]
    pub const fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan distance, i.e. the minimum uncongested travel delay between
    /// two cells (robots move at unit velocity, Sec. II).
    #[inline]
    pub fn manhattan(self, other: GridPos) -> u64 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs() as u64;
        let dy = (self.y as i32 - other.y as i32).unsigned_abs() as u64;
        dx + dy
    }

    /// The neighbouring cell in `dir`, if it stays inside a `width`×`height`
    /// grid.
    #[inline]
    pub fn step(self, dir: Direction, width: u16, height: u16) -> Option<GridPos> {
        let (dx, dy) = dir.delta();
        let nx = self.x as i32 + dx;
        let ny = self.y as i32 + dy;
        if nx < 0 || ny < 0 || nx >= width as i32 || ny >= height as i32 {
            None
        } else {
            Some(GridPos::new(nx as u16, ny as u16))
        }
    }

    /// The 4-connected neighbours inside a `width`×`height` grid.
    #[inline]
    pub fn neighbors4(self, width: u16, height: u16) -> impl Iterator<Item = GridPos> {
        Direction::ALL
            .into_iter()
            .filter_map(move |d| self.step(d, width, height))
    }

    /// Whether `other` is 4-adjacent (distance exactly one).
    #[inline]
    pub fn is_adjacent(self, other: GridPos) -> bool {
        self.manhattan(other) == 1
    }

    /// Dense row-major index into a `width`-wide grid.
    #[inline]
    pub fn to_index(self, width: u16) -> usize {
        self.y as usize * width as usize + self.x as usize
    }

    /// Inverse of [`GridPos::to_index`].
    #[inline]
    pub fn from_index(index: usize, width: u16) -> GridPos {
        GridPos::new(
            (index % width as usize) as u16,
            (index / width as usize) as u16,
        )
    }
}

impl fmt::Display for GridPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl GridPos {
    /// The serialized form: `x` in the low 16 bits, `y` in the next 16.
    #[inline]
    fn packed(self) -> u64 {
        self.x as u64 | (self.y as u64) << 16
    }
}

impl Serialize for GridPos {
    fn serialize(&self) -> Value {
        Value::U64(self.packed())
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.packed().encode(out)
    }
}

impl Deserialize for GridPos {
    /// The packed integer; anything else, or a value not below 2³², is an
    /// error.
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let packed = u32::deserialize(v)
            .map_err(|e| serde::Error::msg(format!("grid position: {}", e.0)))?;
        Ok(GridPos::new(packed as u16, (packed >> 16) as u16))
    }
}

/// A movement direction on the 4-connected grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Decreasing `y`.
    North,
    /// Increasing `x`.
    East,
    /// Increasing `y`.
    South,
    /// Decreasing `x`.
    West,
}

impl Direction {
    /// All four directions, in a fixed deterministic order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The `(dx, dy)` unit delta of this direction.
    #[inline]
    pub const fn delta(self) -> (i32, i32) {
        match self {
            Direction::North => (0, -1),
            Direction::East => (1, 0),
            Direction::South => (0, 1),
            Direction::West => (-1, 0),
        }
    }

    /// The opposite direction.
    #[inline]
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }
}

/// An axis-aligned inclusive-exclusive rectangle of cells:
/// `x ∈ [x0, x1)`, `y ∈ [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: u16,
    /// Top edge (inclusive).
    pub y0: u16,
    /// Right edge (exclusive).
    pub x1: u16,
    /// Bottom edge (exclusive).
    pub y1: u16,
}

impl Rect {
    /// Construct a rectangle; empty rectangles (`x1 <= x0` etc.) are allowed.
    pub const fn new(x0: u16, y0: u16, x1: u16, y1: u16) -> Self {
        Self { x0, y0, x1, y1 }
    }

    /// Whether `p` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, p: GridPos) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// Iterate all positions in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = GridPos> + '_ {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (y0..y1).flat_map(move |y| (x0..x1).map(move |x| GridPos::new(x, y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn manhattan_basic() {
        assert_eq!(GridPos::new(0, 0).manhattan(GridPos::new(3, 4)), 7);
        assert_eq!(GridPos::new(5, 5).manhattan(GridPos::new(5, 5)), 0);
        assert_eq!(GridPos::new(3, 0).manhattan(GridPos::new(0, 0)), 3);
    }

    #[test]
    fn step_respects_bounds() {
        let p = GridPos::new(0, 0);
        assert_eq!(p.step(Direction::North, 4, 4), None);
        assert_eq!(p.step(Direction::West, 4, 4), None);
        assert_eq!(p.step(Direction::East, 4, 4), Some(GridPos::new(1, 0)));
        assert_eq!(p.step(Direction::South, 4, 4), Some(GridPos::new(0, 1)));
        let q = GridPos::new(3, 3);
        assert_eq!(q.step(Direction::East, 4, 4), None);
        assert_eq!(q.step(Direction::South, 4, 4), None);
    }

    #[test]
    fn neighbors_center_has_four() {
        let n: Vec<_> = GridPos::new(2, 2).neighbors4(5, 5).collect();
        assert_eq!(n.len(), 4);
        for q in n {
            assert!(GridPos::new(2, 2).is_adjacent(q));
        }
    }

    #[test]
    fn neighbors_corner_has_two() {
        let n: Vec<_> = GridPos::new(0, 0).neighbors4(5, 5).collect();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn index_roundtrip() {
        let p = GridPos::new(7, 3);
        assert_eq!(GridPos::from_index(p.to_index(10), 10), p);
        assert_eq!(GridPos::new(0, 0).to_index(10), 0);
        assert_eq!(GridPos::new(9, 0).to_index(10), 9);
        assert_eq!(GridPos::new(0, 1).to_index(10), 10);
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            let (dx, dy) = d.delta();
            let (ox, oy) = d.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn rect_contains_and_area() {
        let r = Rect::new(1, 1, 4, 3);
        assert!(r.contains(GridPos::new(1, 1)));
        assert!(r.contains(GridPos::new(3, 2)));
        assert!(!r.contains(GridPos::new(4, 2)));
        assert!(!r.contains(GridPos::new(0, 1)));
        assert_eq!(r.iter().count(), 6);
    }

    #[test]
    fn packed_position_streams_its_tree_encoding_and_round_trips() {
        let max = u16::MAX;
        for p in [
            GridPos::new(0, 0),
            GridPos::new(max, max),
            GridPos::new(max, 0),
            GridPos::new(0, max),
            GridPos::new(1, 2),
        ] {
            let mut tree = Vec::new();
            serde::binary::encode_into(&p.serialize(), &mut tree);
            assert_eq!(serde::binary::to_bytes(&p), tree, "{p}: identity rule");
            assert_eq!(tree.len(), 9, "{p}: one tag-3 integer");
            assert_eq!(GridPos::deserialize(&p.serialize()), Ok(p));
        }
        assert_eq!(GridPos::new(3, 5).serialize(), Value::U64(3 | 5 << 16));
    }

    #[test]
    fn malformed_positions_are_typed_errors() {
        // An `{x, y}` object, well-formed or not, is not a position.
        let object = Value::Object(vec![
            ("x".into(), Value::U64(1)),
            ("y".into(), Value::U64(2)),
        ]);
        let no_y = Value::Object(vec![("x".into(), Value::U64(1))]);
        let wide_x = Value::Object(vec![
            ("x".into(), Value::U64(1 << 16)),
            ("y".into(), Value::U64(0)),
        ]);
        for bad in [
            Value::U64(1 << 32),
            Value::U64(u64::MAX),
            Value::I64(-1),
            Value::Str("(1, 2)".into()),
            object,
            no_y,
            wide_x,
        ] {
            let got = GridPos::deserialize(&bad);
            assert!(got.is_err(), "{bad:?} decoded as {got:?}");
        }
    }

    #[test]
    fn empty_rect() {
        let r = Rect::new(3, 3, 3, 5);
        assert_eq!(r.iter().count(), 0);
        assert!(!r.contains(GridPos::new(3, 3)));
    }

    proptest! {
        #[test]
        fn manhattan_symmetric(ax in 0u16..200, ay in 0u16..200, bx in 0u16..200, by in 0u16..200) {
            let a = GridPos::new(ax, ay);
            let b = GridPos::new(bx, by);
            prop_assert_eq!(a.manhattan(b), b.manhattan(a));
        }

        #[test]
        fn manhattan_triangle_inequality(
            ax in 0u16..100, ay in 0u16..100,
            bx in 0u16..100, by in 0u16..100,
            cx in 0u16..100, cy in 0u16..100,
        ) {
            let a = GridPos::new(ax, ay);
            let b = GridPos::new(bx, by);
            let c = GridPos::new(cx, cy);
            prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
        }

        #[test]
        fn step_moves_distance_one(x in 0u16..50, y in 0u16..50) {
            let p = GridPos::new(x, y);
            for d in Direction::ALL {
                if let Some(q) = p.step(d, 50, 50) {
                    prop_assert_eq!(p.manhattan(q), 1);
                    prop_assert_eq!(q.step(d.opposite(), 50, 50), Some(p));
                }
            }
        }

        #[test]
        fn index_roundtrip_prop(x in 0u16..300, y in 0u16..300) {
            let p = GridPos::new(x, y);
            prop_assert_eq!(GridPos::from_index(p.to_index(300), 300), p);
        }
    }
}
