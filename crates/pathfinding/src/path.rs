//! Timed paths.
//!
//! A [`Path`] is the planning unit `u_a` of the paper (Definition 5): a
//! sequence of cells, one per tick, starting at a given tick. Waiting is
//! encoded by repeating a cell. After the final tick the robot *parks* on
//! the last cell until its next assignment.

use serde::{Deserialize, Serialize};
use tprw_warehouse::{GridPos, Tick};

/// A timed path: the robot occupies `cells[i]` at tick `start + i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// Tick at which the robot is at `cells\[0\]`.
    pub start: Tick,
    /// Cell occupied per tick; consecutive cells are equal (wait) or
    /// 4-adjacent (move).
    pub cells: Vec<GridPos>,
}

impl Path {
    /// A path that stays at `pos` for a single tick (no movement).
    pub fn stationary(pos: GridPos, start: Tick) -> Self {
        Self {
            start,
            cells: vec![pos],
        }
    }

    /// First cell.
    #[inline]
    pub fn first(&self) -> GridPos {
        self.cells[0]
    }

    /// Final cell (where the robot parks afterwards).
    #[inline]
    pub fn last(&self) -> GridPos {
        *self.cells.last().expect("paths are non-empty")
    }

    /// The tick at which the robot reaches the final cell.
    #[inline]
    pub fn end(&self) -> Tick {
        self.start + (self.cells.len() as Tick - 1)
    }

    /// Number of ticks the path spans (≥ 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the path is a single stationary tick.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.len() <= 1
    }

    /// The cell occupied at tick `t`: clamps before the start to the first
    /// cell and after the end to the parking cell.
    pub fn at(&self, t: Tick) -> GridPos {
        if t <= self.start {
            return self.first();
        }
        let i = (t - self.start) as usize;
        self.cells[i.min(self.cells.len() - 1)]
    }

    /// Iterate `(tick, cell)` pairs.
    pub fn iter_timed(&self) -> impl Iterator<Item = (Tick, GridPos)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.start + i as Tick, c))
    }

    /// Validate spatial continuity: each consecutive pair equal or adjacent.
    pub fn is_connected(&self) -> bool {
        self.cells
            .windows(2)
            .all(|w| w[0] == w[1] || w[0].is_adjacent(w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn sample() -> Path {
        Path {
            start: 10,
            cells: vec![p(0, 0), p(1, 0), p(1, 0), p(1, 1), p(2, 1)],
        }
    }

    #[test]
    fn endpoints_and_len() {
        let path = sample();
        assert_eq!(path.first(), p(0, 0));
        assert_eq!(path.last(), p(2, 1));
        assert_eq!(path.end(), 14);
        assert_eq!(path.len(), 5);
        assert!(!path.is_empty());
    }

    #[test]
    fn at_clamps_and_indexes() {
        let path = sample();
        assert_eq!(path.at(0), p(0, 0), "before start clamps to first");
        assert_eq!(path.at(10), p(0, 0));
        assert_eq!(path.at(11), p(1, 0));
        assert_eq!(path.at(12), p(1, 0), "wait step repeats");
        assert_eq!(path.at(14), p(2, 1));
        assert_eq!(path.at(999), p(2, 1), "after end parks at last");
    }

    #[test]
    fn disconnected_detected() {
        let path = Path {
            start: 0,
            cells: vec![p(0, 0), p(2, 0)],
        };
        assert!(!path.is_connected());
    }

    #[test]
    fn stationary_path() {
        let path = Path::stationary(p(3, 3), 7);
        assert!(path.is_empty());
        assert_eq!(path.end(), 7);
        assert_eq!(path.at(7), p(3, 3));
    }

    #[test]
    fn iter_timed_pairs() {
        let path = sample();
        let v: Vec<_> = path.iter_timed().collect();
        assert_eq!(v[0], (10, p(0, 0)));
        assert_eq!(v[4], (14, p(2, 1)));
        assert_eq!(v.len(), 5);
    }
}
