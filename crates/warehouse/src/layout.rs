//! Procedural rack-to-picker warehouse layouts.
//!
//! The generated layout follows the structure of Fig. 2 in the paper:
//!
//! * a **processing area** along the bottom edge with picking stations
//!   spaced evenly, separated from storage by a two-row buffer aisle;
//! * a **storage area** of rack blocks (pairs of storage columns) separated
//!   by one-cell travel aisles, with a cross-aisle every few rows;
//! * a perimeter aisle so every rack home is reachable.
//!
//! Robots drive under racks, so storage cells stay passable; only the map
//! border walls produced by `border_walls` are blocked.

use crate::error::WarehouseError;
use crate::geometry::GridPos;
use crate::grid::{CellKind, GridMap};
use serde::{Deserialize, Serialize};

/// Parameters controlling layout generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutConfig {
    /// Grid width `W` (columns).
    pub width: u16,
    /// Grid height `H` (rows).
    pub height: u16,
    /// Horizontal spacing between station cells along the bottom row.
    pub station_spacing: u16,
    /// A storage block spans this many columns before a vertical aisle.
    pub block_cols: u16,
    /// A storage block spans this many rows before a horizontal cross-aisle.
    pub block_rows: u16,
    /// Whether to block the outermost border (walls).
    pub border_walls: bool,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        Self {
            width: 40,
            height: 30,
            station_spacing: 6,
            block_cols: 2,
            block_rows: 4,
            border_walls: false,
        }
    }
}

impl LayoutConfig {
    /// Convenience constructor for a `width`×`height` layout with default
    /// block structure.
    pub fn sized(width: u16, height: u16) -> Self {
        Self {
            width,
            height,
            ..Self::default()
        }
    }
}

/// A generated layout: the grid plus the storage and station cell lists in
/// deterministic (row-major) order.
#[derive(Debug, Clone, Serialize)]
pub struct Layout {
    /// The cell map.
    pub grid: GridMap,
    /// All rack home positions, row-major.
    pub storage_cells: Vec<GridPos>,
    /// All picking-station positions, left to right.
    pub station_cells: Vec<GridPos>,
}

impl Layout {
    /// Generate a layout from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::GridTooSmall`] when the grid cannot host the
    /// station band plus at least one storage block.
    pub fn generate(config: &LayoutConfig) -> Result<Layout, WarehouseError> {
        let LayoutConfig {
            width,
            height,
            station_spacing,
            block_cols,
            block_rows,
            border_walls,
        } = *config;

        if station_spacing == 0 || block_cols == 0 || block_rows == 0 {
            return Err(WarehouseError::InvalidParameter {
                name: "station_spacing/block_cols/block_rows",
                constraint: "must be non-zero",
            });
        }
        // Minimum: 1 margin row + 1 storage block row + cross aisle + 2 buffer
        // rows + station row, and enough width for one block plus aisles.
        if height < block_rows + 6 || width < block_cols + 4 {
            return Err(WarehouseError::GridTooSmall {
                width,
                height,
                reason: "needs at least one storage block, buffer rows and a station row",
            });
        }

        let mut grid = GridMap::filled(width, height, CellKind::Aisle);

        let (x_lo, x_hi, y_lo) = if border_walls {
            for y in 0..height {
                grid.set_kind(GridPos::new(0, y), CellKind::Blocked);
                grid.set_kind(GridPos::new(width - 1, y), CellKind::Blocked);
            }
            for x in 0..width {
                grid.set_kind(GridPos::new(x, 0), CellKind::Blocked);
            }
            (1u16, width - 1, 1u16)
        } else {
            (0u16, width, 0u16)
        };

        // Station band: stations on the bottom row, two buffer rows above.
        let station_y = height - 1;
        let mut station_cells = Vec::new();
        let mut x = x_lo + station_spacing / 2;
        while x < x_hi {
            grid.set_kind(GridPos::new(x, station_y), CellKind::Station);
            station_cells.push(GridPos::new(x, station_y));
            x += station_spacing;
        }
        if station_cells.is_empty() {
            return Err(WarehouseError::GridTooSmall {
                width,
                height,
                reason: "no room for any picking station",
            });
        }

        // Storage area: rows [y_lo+1, height-4], leaving a top margin aisle
        // and the two buffer rows + station row at the bottom.
        let storage_top = y_lo + 1;
        let storage_bottom = height - 3; // exclusive
        let mut storage_cells = Vec::new();
        for y in storage_top..storage_bottom {
            let ry = y - storage_top;
            // Horizontal cross-aisle every block_rows rows.
            if ry % (block_rows + 1) == block_rows {
                continue;
            }
            for x in (x_lo + 1)..x_hi.saturating_sub(1) {
                let rx = x - (x_lo + 1);
                // Vertical aisle after every block_cols storage columns.
                if rx % (block_cols + 1) == block_cols {
                    continue;
                }
                grid.set_kind(GridPos::new(x, y), CellKind::Storage);
                storage_cells.push(GridPos::new(x, y));
            }
        }

        if storage_cells.is_empty() {
            return Err(WarehouseError::GridTooSmall {
                width,
                height,
                reason: "no room for any storage cell",
            });
        }

        Ok(Layout {
            grid,
            storage_cells,
            station_cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::grid::CellKind;

    #[test]
    fn default_layout_generates() {
        let l = Layout::generate(&LayoutConfig::default()).unwrap();
        assert!(!l.storage_cells.is_empty());
        assert!(!l.station_cells.is_empty());
        assert_eq!(
            l.storage_cells.len(),
            l.grid.count_kind(CellKind::Storage),
            "storage list matches the map"
        );
        assert_eq!(l.station_cells.len(), l.grid.count_kind(CellKind::Station));
    }

    #[test]
    fn stations_on_bottom_row() {
        let l = Layout::generate(&LayoutConfig::sized(40, 30)).unwrap();
        for s in &l.station_cells {
            assert_eq!(s.y, 29);
        }
        // Spaced by the configured spacing.
        for w in l.station_cells.windows(2) {
            assert_eq!(w[1].x - w[0].x, 6);
        }
    }

    #[test]
    fn buffer_rows_have_no_storage() {
        let l = Layout::generate(&LayoutConfig::sized(40, 30)).unwrap();
        for x in 0..40 {
            for y in [27u16, 28] {
                assert_ne!(
                    l.grid.kind(GridPos::new(x, y)),
                    CellKind::Storage,
                    "buffer row {y} must stay clear at x={x}"
                );
            }
        }
    }

    #[test]
    fn too_small_grid_errors() {
        let err = Layout::generate(&LayoutConfig::sized(3, 3)).unwrap_err();
        assert!(matches!(err, WarehouseError::GridTooSmall { .. }));
    }

    #[test]
    fn zero_spacing_errors() {
        let cfg = LayoutConfig {
            station_spacing: 0,
            ..LayoutConfig::default()
        };
        assert!(matches!(
            Layout::generate(&cfg),
            Err(WarehouseError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn border_walls_are_blocked() {
        let cfg = LayoutConfig {
            border_walls: true,
            ..LayoutConfig::default()
        };
        let l = Layout::generate(&cfg).unwrap();
        assert_eq!(l.grid.kind(GridPos::new(0, 5)), CellKind::Blocked);
        assert_eq!(l.grid.kind(GridPos::new(5, 0)), CellKind::Blocked);
    }

    #[test]
    fn every_storage_cell_touches_an_aisle() {
        // Reachability sanity: each rack home must have at least one passable
        // non-storage neighbour so a loaded robot can leave the block.
        let l = Layout::generate(&LayoutConfig::sized(60, 40)).unwrap();
        for &s in &l.storage_cells {
            let has_aisle_neighbor = l
                .grid
                .passable_neighbors(s)
                .any(|q| l.grid.kind(q) != CellKind::Storage);
            // With 2-col blocks every storage cell borders a vertical aisle
            // or a cross aisle.
            assert!(has_aisle_neighbor, "storage cell {s} is landlocked");
        }
    }

    /// The passable cells of every generated floor fill their bounding
    /// box, so grid distance between them is Manhattan distance. EATP's
    /// K-nearest index ranks racks by Manhattan distance on this premise
    /// (`docs/adr/ADR-027-manhattan-knn.md`), and the distance oracle
    /// answers Manhattan under it (`docs/adr/ADR-022-station-fields.md`).
    #[test]
    fn passable_cells_fill_their_bounding_box() {
        let mut configs = vec![LayoutConfig {
            block_cols: 3,
            block_rows: 2,
            ..LayoutConfig::sized(33, 19)
        }];
        for border_walls in [false, true] {
            for (w, h) in [(40, 30), (60, 40), (200, 200)] {
                configs.push(LayoutConfig {
                    border_walls,
                    ..LayoutConfig::sized(w, h)
                });
            }
        }
        for scale in [0.01, 1.0] {
            configs.extend(Dataset::ALL.map(|d| d.spec(scale, 7).layout));
        }
        for cfg in &configs {
            let grid = Layout::generate(cfg).unwrap().grid;
            let passable: Vec<GridPos> = (0..grid.cell_count())
                .map(|c| GridPos::from_index(c, grid.width()))
                .filter(|&p| grid.passable(p))
                .collect();
            let span = |axis: fn(&GridPos) -> u16| {
                let lo = passable.iter().map(axis).min().unwrap();
                let hi = passable.iter().map(axis).max().unwrap();
                usize::from(hi - lo) + 1
            };
            assert_eq!(
                passable.len(),
                span(|p| p.x) * span(|p| p.y),
                "{cfg:?} has interior obstacles: revisit ADR-027's Manhattan \
                 K-nearest ranking and ADR-022's Manhattan delivery oracle"
            );
        }
    }

    #[test]
    fn paper_dimensions_generate() {
        // Table II dimensions must all be generatable.
        for (h, w) in [(233u16, 104u16), (426, 146), (240, 206), (541, 302)] {
            let l = Layout::generate(&LayoutConfig::sized(w, h)).unwrap();
            assert!(l.storage_cells.len() > 1000, "{w}x{h} has enough storage");
            assert!(l.station_cells.len() > 10);
        }
    }
}
