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
//! (`docs/adr/ADR-019-one-leg-search.md`). There is one search loop. It
//! runs on a reusable [`scratch::SearchScratch`] arena — a dense
//! generation-stamped state table (a hash table from the same slots for
//! regions over [`astar::DENSE_TABLE_CAP`]) plus a dial (bucket) open list
//! — so a warmed-up planner plans with **zero per-query heap allocations**. The
//! seed HashMap/BinaryHeap search survives only as a test-only module, the
//! reference the equivalence tests compare against.
//!
//! [`knn::KNearestRacks`] provides the per-cell K-closest-rack index backing
//! the "flip requesting side" optimization (Sec. VI-A).

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
pub use conflict::{find_conflicts, Conflict};
pub use footprint::MemoryFootprint;
pub use knn::{KNearestRacks, KnnChange};
pub use path::Path;
pub use reservation::{ReservationContent, ReservationProbe, ReservationSystem, TimedReservation};
pub use scratch::SearchScratch;
pub use stg::SpatioTemporalGraph;
