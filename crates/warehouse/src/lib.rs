//! Warehouse substrate for the TPRW problem (Task Planning in Robotized
//! Warehouses, ICDE 2022).
//!
//! This crate models everything *static and stochastic* about a
//! rack-to-picker warehouse:
//!
//! * [`geometry`] — grid coordinates, Manhattan distances, directions;
//! * [`grid`] — the cell map (storage / aisle / station / blocked);
//! * [`layout`] — procedural rack-to-picker layouts (storage blocks with
//!   aisles, picking stations along the processing edge);
//! * [`entities`] — racks, pickers, robots and items (Definitions 1–3 of the
//!   paper) plus their dynamic state used by the simulator;
//! * [`workload`] — online item-arrival processes (Poisson and surge mixes);
//! * [`events`] — disruption events (robot breakdowns, aisle blockades,
//!   station closures) that mutate the world mid-run, scripted or generated
//!   seed-deterministically;
//! * [`scenario`] — a fully specified problem instance builder;
//! * [`datasets`] — the four evaluation datasets of Table II (Syn-A, Syn-B,
//!   Real-Norm, Real-Large), scalable.
//!
//! Downstream crates: `tprw-pathfinding` plans on the [`grid::GridMap`],
//! `tprw-simulator` executes instances, and `eatp-core` implements the
//! planners of the paper.

pub mod datasets;
pub mod entities;
pub mod error;
pub mod events;
pub mod geometry;
pub mod grid;
pub mod ids;
pub mod layout;
pub mod scenario;
pub mod time;
pub mod workload;

pub use datasets::Dataset;
pub use entities::{Item, Picker, QueueEntry, Rack, Robot, RobotPhase};
pub use error::WarehouseError;
pub use events::{DisruptionConfig, DisruptionEvent, DisruptionFlags, TimedEvent};
pub use geometry::{Direction, GridPos, Rect};
pub use grid::{CellKind, GridMap};
pub use ids::{ItemId, OrderId, PickerId, RackId, RobotId, MAX_FLEET};
pub use layout::{Layout, LayoutConfig};
pub use scenario::{Instance, ScenarioSpec};
pub use time::{Duration, Tick};
pub use workload::{ArrivalProfile, WorkloadConfig};
