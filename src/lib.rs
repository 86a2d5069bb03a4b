//! # eatp — Adaptive Task Planning for Large-Scale Robotized Warehouses
//!
//! Facade crate re-exporting the full TPRW/EATP stack (ICDE 2022
//! reproduction):
//!
//! * [`warehouse`] — grids, layouts, entities, workloads, the Table II
//!   datasets;
//! * [`pathfinding`] — spatiotemporal A*, reservation systems (STG / CDT),
//!   the station distance oracle, K-nearest-rack index;
//! * [`simulator`] — the discrete-time validation system and all metrics
//!   (makespan, PPR, RWR, STC, PTC, MC);
//! * [`core`] — the planners: NTP, LEF, ILP (each block an exact min-cost
//!   flow), ATP and EATP.
//!
//! See `examples/quickstart.rs` for a three-minute tour.

pub use eatp_core as core;
pub use tprw_pathfinding as pathfinding;
pub use tprw_simulator as simulator;
pub use tprw_warehouse as warehouse;
