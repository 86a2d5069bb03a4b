//! The validation system of Sec. VII-A.
//!
//! *"We build a virtual warehouse which simulates the movement of robots and
//! the processing of pickers. At each timestamp, it collects all idle robots
//! and racks containing remaining items as well as pickers' working status,
//! then executes the algorithm for path planning. Then it converts the path
//! planning scheme to instructions on robots' motion. It also records the
//! performance of task planning algorithms in terms of effectiveness and
//! efficiency."*
//!
//! * [`commands`] — the typed command-queue boundary of the order-stream
//!   ingestion service (submit/cancel orders, inject disruptions, request
//!   snapshots, shut down) with deterministic per-tick apply semantics;
//! * [`engine`] — the discrete-time loop executing a
//!   [`eatp_core::planner::Planner`] over an instance, driving the full
//!   fulfilment cycle (pickup → delivery → queuing → processing → return),
//!   including the live order backlog fed through
//!   [`engine::Engine::tick_with_commands`];
//! * [`service`] — the bounded command queue a producer thread feeds and
//!   the engine thread drains one tick at a time, bit-identically to
//!   handing it the same batches directly (see `docs/order-stream.md`);
//! * [`metrics`] — makespan (M), Picker Processing Rate (PPR), Robot Working
//!   Rate (RWR), Selection/Planning Time Consumption (STC/PTC), Memory
//!   Consumption (MC) and the Fig. 13 bottleneck decomposition;
//! * [`report`] — structured result types with text-table rendering;
//! * [`snapshot`] — versioned, checksummed checkpoint/resume with atomic
//!   file writes (see `docs/snapshot-format.md`);
//! * [`validate`] — independent per-tick re-validation that executed robot
//!   trajectories are conflict-free (Definition 5).

pub mod commands;
pub mod engine;
pub mod metrics;
pub mod report;
pub mod service;
pub mod snapshot;
pub mod validate;

pub use commands::{Ack, BacklogOrder, Command, OrderSpec, RejectReason, SequencedCommand};
pub use engine::{run_simulation, Engine, EngineConfig, EngineConfigBuilder, EngineState};
pub use metrics::{BottleneckSample, Checkpoint};
pub use report::{DeterministicFingerprint, SimulationReport};
pub use service::{ServiceQueue, TickBatch};
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, resume_from, write_snapshot_atomic,
    SnapshotData, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
