//! Conflict-free multi-agent path-finding substrate for TPRW.
//!
//! The planners of the paper search **time-expanded** paths: a vertex is a
//! `(cell, tick)` pair and edges connect spatio-temporally adjacent vertices
//! (Fig. 7). Two reservation systems implement conflict avoidance:
//!
//! * [`stg::SpatioTemporalGraph`] — the textbook structure: the spatial grid
//!   duplicated per tick. Space `O(HW · T)`; used by ATP and the baselines.
//! * [`cdt::ConflictDetectionTable`] — the paper's Sec. VI-B optimization:
//!   one entry per cell holding the set of reserved passing times, space
//!   `O(HW + reservations)`, with periodic garbage collection (`update`).
//!
//! Both implement [`reservation::ReservationSystem`], so every planner is
//! generic over the structure — exactly the ATP/EATP split of the paper.
//! The trait is split read/write: searches only require the read-only
//! [`reservation::ReservationProbe`] half, so a search cannot mutate the
//! table it plans against.
//!
//! [`astar`] implements spatiotemporal A*, the one leg search every
//! planner runs; the paper's cache-aided tail (Sec. VI-B) is not built
//! (`docs/adr/ADR-019-one-leg-search.md`). There is one search loop over
//! one state table. It runs on a reusable [`scratch::SearchScratch`] arena
//! — a generation-stamped dense band of the first four delay planes, a
//! hash map from the same slots for deeper states
//! (`docs/adr/ADR-029-banded-state-table.md`), and a dial (bucket) open
//! list — so a warmed-up planner plans with **zero per-query heap
//! allocations**. The seed HashMap/BinaryHeap search survives only as a
//! test-only module, the reference the equivalence tests compare against.
//!
//! [`bfs::DistanceOracle`] answers the one uncongested distance the
//! planners ask, a rack's home to its own station (Eq. 2's delivery term):
//! Manhattan while the passable cells fill their bounding box, one lazily
//! filled BFS field per station otherwise
//! (`docs/adr/ADR-022-station-fields.md`), patched in place when a cell is
//! blockaded or reopened (`docs/adr/ADR-026-patched-station-fields.md`).
//!
//! [`knn::KNearestRacks`] provides the K-closest-rack index backing the
//! "flip requesting side" optimization (Sec. VI-A), built once from the
//! instance and never updated (`docs/adr/ADR-021-static-knn.md`). It ranks
//! racks by Manhattan distance (`docs/adr/ADR-027-manhattan-knn.md`) and
//! lists only the cells the caller names: EATP names the rack homes and
//! spawn cells, the only cells where a robot idles
//! (`docs/adr/ADR-025-knn-idle-cells.md`).

pub mod astar;
pub mod bfs;
pub mod cdt;
pub mod conflict;
pub mod footprint;
pub mod knn;
pub mod path;
mod proptests;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod reference_cdt;
pub mod reservation;
pub mod scratch;
pub mod stg;

pub use astar::{plan_path_into, plan_path_with, PlanOptions, PlanStats};
pub use cdt::ConflictDetectionTable;
pub use conflict::Conflict;
pub use footprint::MemoryFootprint;
pub use knn::KNearestRacks;
pub use path::Path;
pub use reservation::{ReservationProbe, ReservationSystem};
pub use scratch::SearchScratch;
pub use stg::SpatioTemporalGraph;
