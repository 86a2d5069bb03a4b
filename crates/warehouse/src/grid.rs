//! The warehouse cell map.
//!
//! Cells are classified by function. Robots can traverse every non-blocked
//! cell: in rack-to-picker systems robots drive *underneath* stored racks, so
//! storage cells remain passable (Wurman et al., AI Mag. 2008).

use crate::geometry::GridPos;
use serde::Serialize;

/// The function of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CellKind {
    /// Open floor used for travel.
    Aisle,
    /// Home position of a rack; passable (robots drive under racks).
    Storage,
    /// A picking-station handoff cell in the processing area.
    Station,
    /// Impassable (walls, pillars).
    Blocked,
}

impl CellKind {
    /// Whether robots may occupy this cell.
    #[inline]
    pub fn passable(self) -> bool {
        !matches!(self, CellKind::Blocked)
    }
}

/// A dense `height`×`width` map of [`CellKind`]s with a grid index
/// (row-major `Vec`), as built by [`crate::layout::LayoutConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GridMap {
    width: u16,
    height: u16,
    cells: Vec<CellKind>,
}

impl GridMap {
    /// Create a map filled with `fill`.
    pub fn filled(width: u16, height: u16, fill: CellKind) -> Self {
        Self {
            width,
            height,
            cells: vec![fill; width as usize * height as usize],
        }
    }

    /// Grid width (the paper's `W`).
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height (the paper's `H`).
    #[inline]
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total number of cells (`H·W`).
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Whether `p` lies inside the map.
    #[inline]
    pub fn in_bounds(&self, p: GridPos) -> bool {
        p.x < self.width && p.y < self.height
    }

    /// Cell kind at `p`. Panics if out of bounds (debug) — callers iterate
    /// in-bounds positions.
    #[inline]
    pub fn kind(&self, p: GridPos) -> CellKind {
        self.cells[p.to_index(self.width)]
    }

    /// Set the kind of cell `p`.
    #[inline]
    pub fn set_kind(&mut self, p: GridPos, kind: CellKind) {
        let w = self.width;
        self.cells[p.to_index(w)] = kind;
    }

    /// Whether robots may occupy `p`.
    #[inline]
    pub fn passable(&self, p: GridPos) -> bool {
        self.in_bounds(p) && self.kind(p).passable()
    }

    /// Passable 4-neighbours of `p`.
    #[inline]
    pub fn passable_neighbors(&self, p: GridPos) -> impl Iterator<Item = GridPos> + '_ {
        p.neighbors4(self.width, self.height)
            .filter(move |&q| self.kind(q).passable())
    }

    /// All positions of a given kind, row-major.
    pub fn cells_of_kind(&self, kind: CellKind) -> impl Iterator<Item = GridPos> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(move |(_, &k)| k == kind)
            .map(move |(i, _)| GridPos::from_index(i, self.width))
    }

    /// Count cells of a given kind.
    pub fn count_kind(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|&&k| k == kind).count()
    }

    /// Render an ASCII picture (`.` aisle, `#` blocked, `R` storage,
    /// `P` station), useful in examples and debugging.
    pub fn ascii(&self) -> String {
        let mut out = String::with_capacity((self.width as usize + 1) * self.height as usize);
        for y in 0..self.height {
            for x in 0..self.width {
                out.push(match self.kind(GridPos::new(x, y)) {
                    CellKind::Aisle => '.',
                    CellKind::Storage => 'R',
                    CellKind::Station => 'P',
                    CellKind::Blocked => '#',
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_map() -> GridMap {
        let mut m = GridMap::filled(4, 3, CellKind::Aisle);
        m.set_kind(GridPos::new(1, 1), CellKind::Storage);
        m.set_kind(GridPos::new(2, 1), CellKind::Blocked);
        m.set_kind(GridPos::new(3, 2), CellKind::Station);
        m
    }

    #[test]
    fn kinds_and_passability() {
        let m = small_map();
        assert_eq!(m.kind(GridPos::new(1, 1)), CellKind::Storage);
        assert!(m.passable(GridPos::new(1, 1)), "storage cells are passable");
        assert!(!m.passable(GridPos::new(2, 1)), "blocked cells are not");
        assert!(m.passable(GridPos::new(3, 2)), "stations are passable");
        assert!(!m.passable(GridPos::new(4, 0)), "out of bounds");
    }

    #[test]
    fn passable_neighbors_excludes_blocked() {
        let m = small_map();
        let n: Vec<_> = m.passable_neighbors(GridPos::new(2, 0)).collect();
        // Below (2,1) is blocked; left/right remain.
        assert!(n.contains(&GridPos::new(1, 0)));
        assert!(n.contains(&GridPos::new(3, 0)));
        assert!(!n.contains(&GridPos::new(2, 1)));
    }

    #[test]
    fn cells_of_kind_and_count() {
        let m = small_map();
        assert_eq!(m.count_kind(CellKind::Storage), 1);
        assert_eq!(m.count_kind(CellKind::Blocked), 1);
        assert_eq!(m.count_kind(CellKind::Station), 1);
        assert_eq!(m.count_kind(CellKind::Aisle), 4 * 3 - 3);
        let st: Vec<_> = m.cells_of_kind(CellKind::Station).collect();
        assert_eq!(st, vec![GridPos::new(3, 2)]);
    }

    #[test]
    fn ascii_render() {
        let m = small_map();
        let art = m.ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], ".R#.");
        assert_eq!(lines[2], "...P");
    }
}
