//! Versioned, checksummed checkpoint/resume.
//!
//! A snapshot captures everything a mid-run simulation cannot re-derive —
//! the canonical engine state ([`crate::engine::EngineState`]), the
//! planner's canonical internals ([`eatp_core::planner::Planner::
//! export_snapshot`]), the instance and the engine config — in a binary
//! container with a fixed header (magic, endianness marker, schema version,
//! payload length, CRC32). Resuming from a checkpoint taken at tick `T`
//! produces a run bit-identical to one that was never interrupted: the
//! round-trip tests pin `SimulationReport::deterministic_fingerprint`
//! equality for every planner on clean and disrupted scenarios.
//!
//! The canonical-vs-derived split, the header layout and the migration
//! policy are documented in `docs/snapshot-format.md`.

use crate::engine::{Engine, EngineConfig, EngineState};
use eatp_core::planner::Planner;
use serde::{Deserialize, Serialize, Value};
use tprw_warehouse::{DisruptionEvent, Instance};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TPRWSNAP";

/// Current schema version. Readers accept the current version and one
/// prior (`OLDEST_READABLE_VERSION`); versions 1–4 are rejected as
/// [`SnapshotError::UnsupportedVersion`]. Version 6 writes every grid
/// position as one packed integer where version 5 wrote an `{x, y}` object
/// (`docs/adr/ADR-014-packed-positions.md`); `GridPos`'s `Deserialize`
/// reads both, and that object branch is the whole v5 reader. Decoding
/// looks fields up by name, so the keys v5 payloads may carry and this
/// build no longer has (`config.workers`, `config.tick_strategy`,
/// `config.checkpoints`, …) are ignored. Bump this when the payload schema
/// changes, and drop the older of the two readers.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Oldest schema version [`decode_snapshot`] still reads.
const OLDEST_READABLE_VERSION: u32 = 5;

/// Little-endian sentinel; a big-endian writer would store these bytes
/// reversed, which the reader detects as [`SnapshotError::WrongEndian`].
const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// magic(8) + endian(4) + version(4) + payload len(8) + crc32(4).
const HEADER_LEN: usize = 28;

/// Typed failure modes of snapshot encode/decode/IO. Corrupted input must
/// surface as one of these — never a panic (the fuzz tests pin this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem-level failure (message carries the `std::io::Error`).
    Io(String),
    /// Fewer bytes than the header (or the declared payload) requires.
    Truncated {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The endianness sentinel is byte-reversed: the snapshot was written
    /// on a big-endian machine and cannot be read here.
    WrongEndian,
    /// The header is self-consistent but the schema version is unknown.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes.
        current: u32,
    },
    /// The payload bytes do not hash to the header's CRC32.
    ChecksumMismatch {
        /// CRC stored in the header.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// The payload passed the checksum but failed structural decoding
    /// (malformed binary value tree, or a schema/field mismatch).
    Decode(String),
    /// The snapshot was written by a different planner than the one asked
    /// to resume it. Payload shapes overlap (NTP/LEF, ATP/EATP), so without
    /// this check the import would succeed and the run silently diverge.
    WrongPlanner {
        /// [`SnapshotData::planner_name`].
        snapshot: String,
        /// `Planner::name()` of the planner handed to [`resume_from`].
        resuming: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: needed {needed} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::WrongEndian => {
                write!(f, "snapshot written on a big-endian machine")
            }
            SnapshotError::UnsupportedVersion { found, current } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (current {current})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
            SnapshotError::Decode(e) => write!(f, "snapshot decode error: {e}"),
            SnapshotError::WrongPlanner { snapshot, resuming } => {
                write!(f, "snapshot of planner {snapshot} resumed into {resuming}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<serde::Error> for SnapshotError {
    fn from(e: serde::Error) -> Self {
        SnapshotError::Decode(e.0)
    }
}

/// Everything needed to resume a run: the world it was built from, the
/// engine knobs, the canonical engine state and the planner's canonical
/// internals (a planner-defined value tree; `Null` for stateless planners).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotData {
    /// `Planner::name()` of the planner that produced [`Self::planner`];
    /// [`resume_from`] refuses a planner of another name.
    pub planner_name: String,
    /// The instance the run executes.
    pub instance: Instance,
    /// Engine knobs (derived quantities like `max_ticks` are recomputed
    /// from these on resume).
    pub config: EngineConfig,
    /// Canonical engine state at the checkpoint tick boundary.
    pub engine: EngineState,
    /// Planner canonical state, from `Planner::export_snapshot`.
    pub planner: Value,
}

/// Slice-by-8 tables for the IEEE CRC32 (reflected, polynomial
/// `0xEDB88320`), built at compile time: `CRC_TABLE[0]` is the classic
/// bytewise table, and `CRC_TABLE[k][i]` advances `CRC_TABLE[k - 1][i]` by
/// one more zero byte.
static CRC_TABLE: [[u32; 256]; 8] = crc_table();

const fn crc_table() -> [[u32; 256]; 8] {
    let mut table = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = table[k - 1][i];
            table[k][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    table
}

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`), eight bytes per step.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLE;
    let mut crc = 0xFFFF_FFFF_u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Serialize `data` into the framed snapshot byte format. The payload is
/// streamed from the typed state straight after a reserved header, whose
/// length and CRC are then patched in place: one buffer, no value tree.
pub fn encode_snapshot(data: &SnapshotData) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&ENDIAN_MARKER.to_le_bytes());
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.resize(HEADER_LEN, 0);
    data.encode(&mut out);
    let payload = &out[HEADER_LEN..];
    debug_assert_eq!(
        payload,
        serde::binary::to_bytes(&data.serialize()),
        "the streamed payload is the tree encoding"
    );
    let len = (payload.len() as u64).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[16..24].copy_from_slice(&len);
    out[24..HEADER_LEN].copy_from_slice(&crc);
    out
}

/// Parse and validate the framed snapshot byte format. Every malformed
/// input maps to a typed [`SnapshotError`]; this function must not panic.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotData, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let endian = word(8);
    if endian == ENDIAN_MARKER.swap_bytes() {
        return Err(SnapshotError::WrongEndian);
    }
    if endian != ENDIAN_MARKER {
        return Err(SnapshotError::Decode(format!(
            "corrupt endianness marker {endian:#010x}"
        )));
    }
    let version = word(12);
    if !(OLDEST_READABLE_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            current: SNAPSHOT_VERSION,
        });
    }
    // The declared length is input: a value near `u64::MAX` must read as
    // truncation, not overflow.
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let needed = usize::try_from(payload_len)
        .unwrap_or(usize::MAX)
        .saturating_add(HEADER_LEN);
    let expected_crc = word(24);
    if bytes.len() < needed {
        return Err(SnapshotError::Truncated {
            needed,
            got: bytes.len(),
        });
    }
    if bytes.len() > needed {
        return Err(SnapshotError::Decode(format!(
            "{} trailing bytes after payload",
            bytes.len() - needed
        )));
    }
    let payload = &bytes[HEADER_LEN..];
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(SnapshotError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    let value = serde::binary::from_bytes(payload)?;
    Ok(SnapshotData::deserialize(&value)?)
}

/// Write `data` to `path` atomically: the bytes land in a sibling
/// `<path>.tmp` first, are synced to disk, and only then renamed over the
/// target, so neither a crash mid-write nor a power loss after the rename
/// can leave a torn snapshot under the real name. On Unix the parent
/// directory is synced after the rename so the new name itself survives a
/// power loss. A stale `.tmp` left by a crashed earlier attempt is removed
/// first — it must never be mistaken for progress, and readers
/// ([`read_snapshot`]) only ever look at the real name, so the last good
/// snapshot stays loadable throughout.
pub fn write_snapshot_atomic(
    path: &std::path::Path,
    data: &SnapshotData,
) -> Result<(), SnapshotError> {
    use std::io::Write;
    let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    // Clean up after any crashed predecessor before staging anew.
    if tmp.exists() {
        std::fs::remove_file(&tmp).map_err(io)?;
    }
    let staged = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(&encode_snapshot(data))?;
        file.sync_all()
    });
    // Leave no orphan on a failed write or rename.
    if let Err(e) = staged.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io(e));
    }
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let dir = std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")));
        dir.and_then(|d| d.sync_all()).map_err(io)?;
    }
    Ok(())
}

/// Read and validate a snapshot file written by [`write_snapshot_atomic`].
pub fn read_snapshot(path: &std::path::Path) -> Result<SnapshotData, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    decode_snapshot(&bytes)
}

impl<'a> Engine<'a> {
    /// Capture the full run state (engine + planner) as a [`SnapshotData`].
    /// Only meaningful at a tick boundary (see [`Engine::export_state`]).
    pub fn snapshot(&self, planner: &dyn Planner) -> SnapshotData {
        SnapshotData {
            planner_name: planner.name().to_string(),
            instance: self.instance().clone(),
            config: self.config().clone(),
            engine: self.export_state(),
            planner: planner.export_snapshot(),
        }
    }

    /// Checkpoint the run to `path` (atomic write; see
    /// [`write_snapshot_atomic`]).
    pub fn save_snapshot(
        &self,
        planner: &dyn Planner,
        path: &std::path::Path,
    ) -> Result<(), SnapshotError> {
        write_snapshot_atomic(path, &self.snapshot(planner))
    }
}

/// Rebuild an engine + planner pair from a decoded snapshot. The engine
/// borrows the instance and config out of `data`, so the snapshot must
/// outlive the resumed run. `planner` must be a fresh instance of the same
/// planner type that was checkpointed ([`SnapshotError::WrongPlanner`]
/// otherwise); do **not** call [`Engine::start`] on the returned engine.
pub fn resume_from<'a>(
    data: &'a SnapshotData,
    planner: &mut dyn Planner,
) -> Result<Engine<'a>, SnapshotError> {
    if planner.name() != data.planner_name {
        return Err(SnapshotError::WrongPlanner {
            snapshot: data.planner_name.clone(),
            resuming: planner.name(),
        });
    }
    (data.instance.validate())
        .map_err(|e| SnapshotError::Decode(format!("snapshot instance: {e}")))?;
    check_table_sizes(&data.engine, &data.instance)?;
    Ok(Engine::resume(
        &data.instance,
        &data.config,
        planner,
        &data.engine,
        &data.planner,
    )?)
}

/// Every per-robot, per-picker, per-rack and per-cell table of `state` must
/// have the length [`EngineState::new`] gives it on `instance`, the
/// validator's previous positions must name robots of the fleet on cells
/// of the grid, every robot position, active-path cell, journaled cell
/// event and deferred blockade must lie on the grid, and every robot,
/// picker and rack id of the pending-leg lists, the deferred removals and
/// the journal must name one of the instance's. The engine indexes them by
/// id and cell without bounds checks of its own, and the journal replay
/// mutates the planner's grid and indexes by them, so a snapshot that fits
/// another floor would otherwise panic on resume or within its first
/// ticks.
fn check_table_sizes(state: &EngineState, instance: &Instance) -> Result<(), SnapshotError> {
    let robots = instance.robots.len();
    let pickers = instance.pickers.len();
    let racks = instance.racks.len();
    let tables = [
        ("robots", state.robots.len(), robots),
        ("paths", state.paths.len(), robots),
        ("carried_work", state.carried_work.len(), robots),
        ("carried_items", state.carried_items.len(), robots),
        ("carried_orders", state.carried_orders.len(), robots),
        ("broken", state.broken.len(), robots),
        (
            "metrics.robot_processing_ticks",
            state.metrics.robot_processing_ticks.len(),
            robots,
        ),
        (
            "metrics.robot_busy_ticks",
            state.metrics.robot_busy_ticks.len(),
            robots,
        ),
        ("pickers", state.pickers.len(), pickers),
        ("serving", state.serving.len(), pickers),
        ("closed", state.closed.len(), pickers),
        ("racks", state.racks.len(), racks),
        ("removed", state.removed.len(), racks),
        (
            "blocked_overlay",
            state.blocked_overlay.len(),
            instance.grid.cell_count(),
        ),
    ];
    for (table, len, expected) in tables {
        if len != expected {
            return Err(SnapshotError::Decode(format!(
                "engine table `{table}` has {len} entries, the instance needs {expected}"
            )));
        }
    }
    let validator = state.validator.export_snapshot();
    let grid = &instance.grid;
    for &(robot, pos) in &validator.prev_fast {
        if robot.index() >= robots || !grid.in_bounds(pos) {
            return Err(SnapshotError::Decode(format!(
                "engine table `validator` places {robot} at {pos}, off the instance's \
                 {robots} robots on a {}×{} grid",
                grid.width(),
                grid.height()
            )));
        }
    }
    let mut cells = (state.robots.iter().map(|r| ("robots", r.pos)))
        .chain((state.paths.iter().flatten()).flat_map(|p| p.cells.iter().map(|&c| ("paths", c))))
        .chain(state.journal.iter().filter_map(|e| match e.event {
            DisruptionEvent::CellBlocked { pos } | DisruptionEvent::CellUnblocked { pos } => {
                Some(("journal", pos))
            }
            _ => None,
        }))
        .chain((state.deferred_blockades.iter()).map(|&pos| ("deferred_blockades", pos)));
    if let Some((table, pos)) = cells.find(|&(_, pos)| !grid.in_bounds(pos)) {
        return Err(SnapshotError::Decode(format!(
            "engine table `{table}` names cell {pos}, off the instance's {}×{} grid",
            grid.width(),
            grid.height()
        )));
    }
    let robot_lists = [
        ("needs_return", &state.needs_return),
        ("needs_delivery", &state.needs_delivery),
        ("needs_replan", &state.needs_replan),
    ];
    let robot_ids = (robot_lists.into_iter())
        .flat_map(|(table, ids)| ids.iter().map(move |r| (table, "robot", r.index(), robots)));
    let rack_ids =
        (state.deferred_removals.iter()).map(|r| ("deferred_removals", "rack", r.index(), racks));
    let journal_ids = state.journal.iter().filter_map(|e| match e.event {
        DisruptionEvent::RobotBreakdown { robot } | DisruptionEvent::RobotRecover { robot } => {
            Some(("journal", "robot", robot.index(), robots))
        }
        DisruptionEvent::StationClosed { picker } | DisruptionEvent::StationReopened { picker } => {
            Some(("journal", "picker", picker.index(), pickers))
        }
        DisruptionEvent::RackRemoved { rack } | DisruptionEvent::RackRestored { rack } => {
            Some(("journal", "rack", rack.index(), racks))
        }
        DisruptionEvent::CellBlocked { .. } | DisruptionEvent::CellUnblocked { .. } => None,
    });
    let mut ids = robot_ids.chain(rack_ids).chain(journal_ids);
    if let Some((table, kind, id, count)) = ids.find(|&(_, _, id, count)| id >= count) {
        return Err(SnapshotError::Decode(format!(
            "engine table `{table}` names {kind} {id}, outside the instance's {count} {kind}s"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{Ack, Command, OrderSpec, SequencedCommand};
    use crate::engine::run_simulation;
    use eatp_core::base::BaseSnapshot;
    use eatp_core::planner::PlannerStats;
    use eatp_core::{planner_by_name, EatpConfig, PLANNER_NAMES as PLANNERS};
    use tprw_pathfinding::cdt::MAX_CDT_TICK;
    use tprw_pathfinding::reservation::MAX_PARK_TICK;
    use tprw_warehouse::{
        DisruptionConfig, GridPos, LayoutConfig, OrderId, PickerId, RackId, RobotId, ScenarioSpec,
        TimedEvent, WorkloadConfig, MAX_FLEET,
    };

    fn make(name: &str) -> Box<dyn Planner> {
        planner_by_name(name, &EatpConfig::default()).expect("a paper planner")
    }

    fn scenario(disruptions: Option<DisruptionConfig>, seed: u64) -> Instance {
        ScenarioSpec {
            name: "snapshot-test".into(),
            layout: LayoutConfig::sized(24, 16),
            n_racks: 10,
            n_robots: 4,
            n_pickers: 2,
            workload: WorkloadConfig::poisson(20, 0.5),
            disruptions,
            seed,
        }
        .build()
        .unwrap()
    }

    fn blockade_storm() -> Option<DisruptionConfig> {
        Some(DisruptionConfig {
            breakdowns: 0,
            breakdown_ticks: (30, 80),
            blockades: 4,
            blockade_ticks: (30, 90),
            closures: 1,
            closure_ticks: (30, 60),
            removals: 1,
            removal_ticks: (30, 60),
            window: (10, 120),
        })
    }

    fn breakdown_wave() -> Option<DisruptionConfig> {
        Some(DisruptionConfig {
            breakdowns: 3,
            breakdown_ticks: (20, 90),
            blockades: 0,
            blockade_ticks: (30, 80),
            closures: 0,
            closure_ticks: (30, 60),
            removals: 2,
            removal_ticks: (30, 60),
            window: (10, 120),
        })
    }

    /// Checkpoint at roughly mid-run through the full byte format, resume
    /// with a fresh planner, and require a bit-identical final report.
    fn assert_roundtrip(inst: &Instance, name: &str) {
        let config = EngineConfig::default();
        let mut p = make(name);
        let base = run_simulation(inst, p.as_mut(), &config);
        assert!(base.completed, "{name}: baseline must finish");
        let split = (base.makespan / 2).max(1);

        let mut p2 = make(name);
        let mut engine = Engine::new(inst, &config);
        engine.start(p2.as_mut());
        while !engine.is_finished() && engine.current_tick() < split {
            engine.tick_once(p2.as_mut());
        }
        assert!(!engine.is_finished(), "{name}: checkpoint must be mid-run");
        let bytes = encode_snapshot(&engine.snapshot(p2.as_ref()));
        drop(engine);
        drop(p2);

        let data = decode_snapshot(&bytes).expect("wire round-trip");
        assert_eq!(data.planner_name, name);
        let mut p3 = make(name);
        let mut resumed = resume_from(&data, p3.as_mut()).expect("resume");
        assert_eq!(
            resumed.export_state(),
            data.engine,
            "{name}: the whole engine state is restored at the resume tick"
        );
        resumed.run_to_completion(p3.as_mut());
        let report = resumed.report(p3.as_mut());
        assert_eq!(
            base.deterministic_fingerprint(),
            report.deterministic_fingerprint(),
            "{name} on {}: resumed run must be bit-identical",
            inst.name
        );
    }

    #[test]
    fn resume_equals_uninterrupted_clean() {
        let inst = scenario(None, 42);
        for name in PLANNERS {
            assert_roundtrip(&inst, name);
        }
    }

    #[test]
    fn resume_equals_uninterrupted_blockade_storm() {
        let inst = scenario(blockade_storm(), 7);
        assert!(!inst.disruptions.is_empty());
        for name in PLANNERS {
            assert_roundtrip(&inst, name);
        }
    }

    #[test]
    fn resume_equals_uninterrupted_breakdown_wave() {
        let inst = scenario(breakdown_wave(), 11);
        assert!(!inst.disruptions.is_empty());
        for name in PLANNERS {
            assert_roundtrip(&inst, name);
        }
    }

    fn assert_wrong_planner_is_refused(written_by: &'static str, resumed_into: &'static str) {
        let inst = scenario(None, 42);
        let mut p = make(written_by);
        let mut engine = Engine::new(&inst, &EngineConfig::default());
        engine.start(p.as_mut());
        for _ in 0..40 {
            engine.tick_once(p.as_mut());
        }
        let data = engine.snapshot(p.as_ref());
        let Err(err) = resume_from(&data, make(resumed_into).as_mut()) else {
            panic!("{written_by} snapshot resumed into {resumed_into}");
        };
        assert_eq!(
            err,
            SnapshotError::WrongPlanner {
                snapshot: written_by.into(),
                resuming: resumed_into,
            }
        );
    }

    #[test]
    fn ntp_snapshot_does_not_resume_into_lef() {
        assert_wrong_planner_is_refused("NTP", "LEF");
    }

    #[test]
    fn atp_snapshot_does_not_resume_into_eatp() {
        assert_wrong_planner_is_refused("ATP", "EATP");
    }

    #[test]
    fn snapshot_sized_for_another_floor_is_a_typed_error() {
        // One entry short in a per-robot, per-picker, per-rack or per-cell
        // table, re-framed so the checksum holds: the bytes decode, and
        // resuming them must fail naming the table instead of indexing
        // out of bounds a few ticks later.
        let good = decode_snapshot(&sample_snapshot_bytes()).expect("sample decodes");
        for table in ["broken", "serving", "paths", "removed", "blocked_overlay"] {
            let mut data = good.clone();
            let state = &mut data.engine;
            let shortened = match table {
                "broken" => state.broken.pop().is_some(),
                "serving" => state.serving.pop().is_some(),
                "paths" => state.paths.pop().is_some(),
                "removed" => state.removed.pop().is_some(),
                _ => state.blocked_overlay.pop().is_some(),
            };
            assert!(shortened, "{table} is empty");
            let data = decode_snapshot(&encode_snapshot(&data)).expect("re-framed bytes decode");
            let Err(err) = resume_from(&data, make("NTP").as_mut()) else {
                panic!("a snapshot one `{table}` entry short resumed");
            };
            assert!(
                matches!(&err, SnapshotError::Decode(msg) if msg.contains(&format!("`{table}`"))),
                "{table}: {err:?}"
            );
        }
    }

    /// A CRC-valid snapshot whose own instance puts a rack home or a picker
    /// off its grid is refused before the resumed `Planner::init` indexes
    /// by it (EATP's KNN build used to panic on such a rack home).
    #[test]
    fn instance_positions_off_the_grid_are_typed_errors() {
        let inst = scenario(None, 42);
        let mut p = make("EATP");
        let mut engine = Engine::new(&inst, &EngineConfig::default());
        engine.start(p.as_mut());
        for _ in 0..3 {
            engine.tick_once(p.as_mut());
        }
        let good = engine.snapshot(p.as_ref());
        let (width, height) = (inst.grid.width(), inst.grid.height());
        for what in ["rack", "picker"] {
            let mut data = good.clone();
            match what {
                "rack" => data.instance.racks[0].home = GridPos::new(0, height),
                _ => data.instance.pickers[0].pos = GridPos::new(width, height),
            }
            let data = decode_snapshot(&encode_snapshot(&data)).expect("bytes decode");
            let Err(err) = resume_from(&data, make("EATP").as_mut()) else {
                panic!("a {what} off the grid resumed");
            };
            assert!(
                matches!(&err, SnapshotError::Decode(msg) if msg.contains(what)),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The standard IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC32 one bit at a time, sharing nothing with the tables.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn slice_by_8_crc32_equals_the_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..300).map(|_| next() as u8).collect();
        // Every offset within a word, so the 8-byte steps start misaligned.
        for offset in 0..8 {
            for _ in 0..64 {
                let len = (next() % 258) as usize;
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "len {len} at +{offset}"
                );
            }
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 257] {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "len {len} at +{offset}"
                );
            }
        }
    }

    /// The streamed payload is byte-identical to the tree encoding the
    /// decoder still builds, asserted outright so the release suite proves
    /// it too (debug builds re-check every `encode_snapshot` call).
    fn assert_streamed_equals_tree(engine: &Engine<'_>, planner: &dyn Planner, what: &str) {
        let data = engine.snapshot(planner);
        let bytes = encode_snapshot(&data);
        assert!(
            bytes[HEADER_LEN..] == serde::binary::to_bytes(&data.serialize())[..],
            "{what}: streamed payload differs from the tree encoding"
        );
        let decoded = decode_snapshot(&bytes).expect("streamed bytes decode");
        assert_eq!(decoded.engine, data.engine, "{what}");
    }

    #[test]
    fn streamed_snapshot_bytes_equal_the_tree_encoding() {
        let clean = scenario(None, 42);
        let disrupted = scenario(blockade_storm(), 7);
        // The live twin of the disrupted floor: the same items arrive as
        // orders, every third of them cancelled while still backlogged.
        let mut live = disrupted.clone();
        live.items.clear();
        let mut stream: Vec<SequencedCommand> = disrupted
            .items
            .iter()
            .enumerate()
            .map(|(i, item)| SequencedCommand {
                seq: i as u64,
                command: Command::SubmitOrder {
                    spec: OrderSpec {
                        order: OrderId::new(i),
                        rack: item.rack,
                        processing: item.processing,
                        arrival: item.arrival + 30,
                    },
                },
            })
            .collect();
        for i in (0..disrupted.items.len()).step_by(3) {
            let seq = stream.len() as u64;
            stream.push(SequencedCommand {
                seq,
                command: Command::CancelOrder {
                    order: OrderId::new(i),
                },
            });
        }
        let seq = stream.len() as u64;
        stream.push(SequencedCommand {
            seq,
            command: Command::Shutdown,
        });
        let live_config = EngineConfig::builder()
            .max_ticks(50_000)
            .bottleneck_bucket(50)
            .live(true)
            .build()
            .unwrap();

        for name in PLANNERS {
            let mut p = make(name);
            let mut engine = Engine::new(&clean, &EngineConfig::default());
            engine.start(p.as_mut());
            for _ in 0..40 {
                engine.tick_once(p.as_mut());
            }
            assert_streamed_equals_tree(&engine, p.as_ref(), &format!("{name} clean"));

            let mut p = make(name);
            let mut engine = Engine::new(&live, &live_config);
            engine.start(p.as_mut());
            let mut acks = Vec::new();
            engine.tick_with_commands(p.as_mut(), &mut stream.clone(), &mut acks);
            let cancelled = acks
                .iter()
                .filter(|a| matches!(a, Ack::Cancelled { .. }))
                .count();
            assert!(cancelled > 0, "{name}: the stream cancels orders");
            while !engine.is_finished() {
                if engine.current_tick().is_multiple_of(25) {
                    let what = format!("{name} live at tick {}", engine.current_tick());
                    assert_streamed_equals_tree(&engine, p.as_ref(), &what);
                }
                engine.tick_with_commands(p.as_mut(), &mut [], &mut acks);
            }
            assert!(
                engine.export_state().events_applied > 0,
                "{name}: disrupted"
            );
            assert_streamed_equals_tree(&engine, p.as_ref(), &format!("{name} live, final"));
        }
    }

    fn sample_snapshot_bytes() -> Vec<u8> {
        let inst = scenario(None, 42);
        let config = EngineConfig::default();
        let mut p = make("NTP");
        let mut engine = Engine::new(&inst, &config);
        engine.start(p.as_mut());
        for _ in 0..40 {
            engine.tick_once(p.as_mut());
        }
        encode_snapshot(&engine.snapshot(p.as_ref()))
    }

    #[test]
    fn corrupted_snapshots_yield_typed_errors_never_panics() {
        let good = sample_snapshot_bytes();
        assert!(decode_snapshot(&good).is_ok());

        // Truncation at every header boundary and a sweep of payload cuts.
        for cut in (0..HEADER_LEN).chain((HEADER_LEN..good.len()).step_by(97)) {
            let err = decode_snapshot(&good[..cut]).expect_err("truncated");
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_snapshot(&bad).unwrap_err(), SnapshotError::BadMagic);

        // Byte-swapped endianness marker.
        let mut bad = good.clone();
        bad[8..12].reverse();
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotError::WrongEndian
        );

        // Unknown future version.
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 99,
                current: SNAPSHOT_VERSION
            }
        );

        // Version zero, the retired versions 1–4 and the next one.
        for version in [0, 1, 2, 3, 4, SNAPSHOT_VERSION + 1] {
            let mut bad = good.clone();
            bad[12..16].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_snapshot(&bad).unwrap_err(),
                SnapshotError::UnsupportedVersion {
                    found: version,
                    current: SNAPSHOT_VERSION
                }
            );
        }

        // Payload bit flips: checksum must catch every one of them.
        for at in (HEADER_LEN..good.len()).step_by(131) {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            let err = decode_snapshot(&bad).expect_err("flipped payload byte");
            assert!(
                matches!(err, SnapshotError::ChecksumMismatch { .. }),
                "flip at {at} gave {err:?}"
            );
        }

        // A declared payload length the header plus payload cannot reach
        // without overflowing.
        for declared in [u64::MAX, u64::MAX - HEADER_LEN as u64 + 1] {
            let mut bad = good[..HEADER_LEN].to_vec();
            bad[16..24].copy_from_slice(&declared.to_le_bytes());
            assert_eq!(
                decode_snapshot(&bad).unwrap_err(),
                SnapshotError::Truncated {
                    needed: usize::MAX,
                    got: HEADER_LEN
                },
                "declared length {declared:#x}"
            );
        }

        // Trailing garbage.
        let mut bad = good.clone();
        bad.extend_from_slice(b"junk");
        assert!(matches!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotError::Decode(_)
        ));

        // A checksum-consistent but structurally bogus payload.
        let bad = framed(SNAPSHOT_VERSION, b"\xFFnot a value tree");
        assert!(matches!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotError::Decode(_)
        ));
    }

    /// `payload` behind a valid header of schema `version`.
    fn framed(version: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&ENDIAN_MARKER.to_le_bytes());
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn validator_entries_off_the_fleet_or_grid_are_typed_errors() {
        // One extra previous position in the validator section, re-framed
        // so the checksum holds.
        let good = decode_snapshot(&sample_snapshot_bytes()).expect("sample decodes");
        let with_entry = |key: &str, robot: u32, pos: GridPos| {
            let mut validator = good.engine.validator.serialize();
            let Value::Object(fields) = &mut validator else {
                panic!("the validator must be an object");
            };
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, Value::Array(prev))) => prev.push((RobotId(robot), pos).serialize()),
                _ => fields.push((key.to_string(), vec![(RobotId(robot), pos)].serialize())),
            }
            let mut tree = good.serialize();
            *field_mut(field_mut(&mut tree, "engine"), "validator") = validator;
            framed(SNAPSHOT_VERSION, &serde::binary::to_bytes(&tree))
        };
        let fleet = good.instance.robots.len() as u32;
        let (width, height) = (good.instance.grid.width(), good.instance.grid.height());
        // A robot past the fleet, or a cell off the grid: the bytes decode,
        // and resuming them must fail naming the validator instead of
        // indexing out of bounds.
        for (robot, pos) in [
            (fleet, GridPos::new(0, 0)),
            (0, GridPos::new(width, 0)),
            (0, GridPos::new(0, height)),
        ] {
            let data = decode_snapshot(&with_entry("prev_fast", robot, pos)).expect("bytes decode");
            let Err(err) = resume_from(&data, make("NTP").as_mut()) else {
                panic!("a validator entry for robot {robot} at {pos} resumed");
            };
            assert!(
                matches!(&err, SnapshotError::Decode(msg) if msg.contains("`validator`")),
                "{err:?}"
            );
        }
        // A robot id past the `u16` fleet cap is refused while decoding,
        // before the dense per-robot array is sized by it.
        let err = decode_snapshot(&with_entry("prev_fast", u32::MAX, GridPos::new(0, 0)))
            .expect_err("an id past the fleet cap must not decode");
        assert!(
            matches!(&err, SnapshotError::Decode(msg) if msg.contains("validator")),
            "{err:?}"
        );
        // The retired second list, `prev_seed`, is ignored on read, even
        // when it names a robot past the fleet.
        let data = decode_snapshot(&with_entry("prev_seed", u32::MAX, GridPos::new(0, height)))
            .expect("a retired `prev_seed` list decodes");
        assert_eq!(data.engine.validator, good.engine.validator);
        resume_from(&data, make("NTP").as_mut()).expect("a retired `prev_seed` list resumes");
        // The other engine tables that name cells, at tick 3, while idle
        // robots still have work ahead. Each of these bytes resumed before
        // the check and then panicked: the journal cases inside the
        // planner's journal replay, the rest within the first ticks.
        let good = {
            let inst = scenario(None, 42);
            let config = EngineConfig::default();
            let mut p = make("NTP");
            let mut engine = Engine::new(&inst, &config);
            engine.start(p.as_mut());
            for _ in 0..3 {
                engine.tick_once(p.as_mut());
            }
            engine.snapshot(p.as_ref())
        };
        let off = GridPos::new(0, height);
        let idle = good.engine.paths.iter().position(Option::is_none);
        let idle = idle.expect("an idle robot at tick 3");
        let moving = good.engine.paths.iter().position(Option::is_some);
        let moving = moving.expect("a moving robot at tick 3");
        let journaled = |event| TimedEvent { t: 1, event };
        type Corrupt<'a> = Box<dyn Fn(&mut EngineState) + 'a>;
        let cases: [(&str, Corrupt); 5] = [
            ("robots", Box::new(|s| s.robots[idle].pos = off)),
            (
                "paths",
                Box::new(|s| s.paths[moving].as_mut().unwrap().cells.fill(off)),
            ),
            (
                "journal",
                Box::new(|s| {
                    s.journal
                        .push(journaled(DisruptionEvent::CellBlocked { pos: off }))
                }),
            ),
            (
                "journal",
                Box::new(|s| {
                    let event = DisruptionEvent::CellUnblocked { pos: off };
                    s.journal.push(journaled(event))
                }),
            ),
            (
                "deferred_blockades",
                Box::new(|s| s.deferred_blockades.push(off)),
            ),
        ];
        for (table, corrupt) in cases {
            let mut data = good.clone();
            corrupt(&mut data.engine);
            let data = decode_snapshot(&encode_snapshot(&data)).expect("bytes decode");
            let Err(err) = resume_from(&data, make("NTP").as_mut()) else {
                panic!("a `{table}` cell off the grid resumed");
            };
            assert!(
                matches!(&err, SnapshotError::Decode(msg) if msg.contains(&format!("`{table}`"))),
                "{err:?}"
            );
        }
    }

    /// The engine tables that name robots, pickers and racks by id. Each
    /// case of the first group resumed before the check and then panicked:
    /// the pending-leg lists and the deferred removals within the first
    /// ticks, the journaled rack events inside EATP's journal replay. The
    /// journaled robot and picker events resumed without a panic, because
    /// no planner's replay indexes by them, and are refused all the same.
    #[test]
    fn id_tables_outside_the_instance_are_typed_errors() {
        let inst = scenario(None, 42);
        let good = {
            let mut p = make("EATP");
            let mut engine = Engine::new(&inst, &EngineConfig::default());
            engine.start(p.as_mut());
            for _ in 0..3 {
                engine.tick_once(p.as_mut());
            }
            engine.snapshot(p.as_ref())
        };
        let robot = RobotId::new(inst.robots.len());
        let picker = PickerId::new(inst.pickers.len());
        let rack = RackId::new(inst.racks.len());
        type Corrupt<'a> = Box<dyn Fn(&mut EngineState) + 'a>;
        let mut cases: Vec<(&str, Corrupt)> = vec![
            ("needs_return", Box::new(|s| s.needs_return.push(robot))),
            ("needs_delivery", Box::new(|s| s.needs_delivery.push(robot))),
            ("needs_replan", Box::new(|s| s.needs_replan.push(robot))),
            (
                "deferred_removals",
                Box::new(|s| s.deferred_removals.push(rack)),
            ),
        ];
        for event in [
            DisruptionEvent::RackRemoved { rack },
            DisruptionEvent::RackRestored { rack },
            DisruptionEvent::RobotBreakdown { robot },
            DisruptionEvent::RobotRecover { robot },
            DisruptionEvent::StationClosed { picker },
            DisruptionEvent::StationReopened { picker },
        ] {
            let journal = move |s: &mut EngineState| s.journal.push(TimedEvent { t: 1, event });
            cases.push(("journal", Box::new(journal)));
        }
        for (table, corrupt) in cases {
            let mut data = good.clone();
            corrupt(&mut data.engine);
            let data = decode_snapshot(&encode_snapshot(&data)).expect("bytes decode");
            let Err(err) = resume_from(&data, make("EATP").as_mut()) else {
                panic!("a `{table}` id outside the instance resumed");
            };
            assert!(
                matches!(&err, SnapshotError::Decode(msg) if msg.contains(&format!("`{table}`"))),
                "{err:?}"
            );
        }
    }

    /// The value under `key` in the object `v`.
    fn field_mut<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        let Value::Object(fields) = v else {
            panic!("`{key}` must sit in an object");
        };
        let (_, value) = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no `{key}` field"));
        value
    }

    /// One snapshot per planner, written by the last v5 build at tick 40 of
    /// `scenario(None, 42)`. Every position in them is an `{x, y}` object.
    const V5_FIXTURES: [(&str, &[u8]); 5] = [
        ("NTP", include_bytes!("../testdata/snapshot-v5/ntp.snap")),
        ("LEF", include_bytes!("../testdata/snapshot-v5/lef.snap")),
        ("ILP", include_bytes!("../testdata/snapshot-v5/ilp.snap")),
        ("ATP", include_bytes!("../testdata/snapshot-v5/atp.snap")),
        ("EATP", include_bytes!("../testdata/snapshot-v5/eatp.snap")),
    ];

    /// The planner base slice of a snapshot tree: ILP, ATP and EATP nest
    /// it under `base`, NTP and LEF write it as the whole planner payload.
    fn base_slice_mut(tree: &mut Value) -> &mut Value {
        let planner = field_mut(tree, "planner");
        if planner.get("base").is_some() {
            field_mut(planner, "base")
        } else {
            planner
        }
    }

    /// Every recorded v5 snapshot decodes and resumes, on the one execution
    /// path and tick loop with validation on, to the uninterrupted run's
    /// fingerprint: as recorded, and carrying the keys earlier v5 builds
    /// wrote and this one no longer has — `config.workers`,
    /// `config.reference_exec`, the validation switch (off), the
    /// tick-strategy selector as either unit variant it could name, and the
    /// planner base's `maintenance` list. A v6 payload that still carries
    /// the deleted path cache's `cache` entries resumes too.
    ///
    /// The EATP fixture was recorded with the path cache, so its cumulative
    /// planner counters (expansions, cached tails) are the cached search's.
    /// Its state at tick 40 is the one this build reaches, so the resumed
    /// run ends with the uninterrupted run's fingerprint except that its
    /// counters are the fixture's plus what the run adds after tick 40.
    #[test]
    fn recorded_v5_snapshots_resume_bit_identically() {
        let inst = scenario(None, 42);
        let config = EngineConfig::default();
        let removed = |strategy: &str| {
            vec![
                ("workers", Value::U64(4)),
                ("reference_exec", Value::Bool(true)),
                ("validate", Value::Bool(false)),
                ("tick_strategy", Value::Str(strategy.to_string())),
            ]
        };
        for (name, recorded) in V5_FIXTURES {
            assert_eq!(recorded[12..16], 5u32.to_le_bytes(), "{name}: a v5 header");
            let base = run_simulation(&inst, make(name).as_mut(), &config);
            let mut p = make(name);
            let mut engine = Engine::new(&inst, &config);
            engine.start(p.as_mut());
            for _ in 0..40 {
                engine.tick_once(p.as_mut());
            }
            let state_at_40 = engine.state_hash();
            let stats_at_40 = p.stats();

            let mut tree =
                serde::binary::from_bytes(&recorded[HEADER_LEN..]).expect("a v5 payload");
            let recorded_slice = base_slice_mut(&mut tree);
            let recorded_stats = PlannerStats::deserialize(field_mut(recorded_slice, "stats"))
                .expect("recorded planner counters");
            let recorded_cache = field_mut(recorded_slice, "cache").clone();
            let mut resumed_fp = base.deterministic_fingerprint();
            let c = &mut resumed_fp.planner_counters;
            let carried = [
                (&mut c.0, recorded_stats.expansions, stats_at_40.expansions),
                (
                    &mut c.1,
                    recorded_stats.paths_planned,
                    stats_at_40.paths_planned,
                ),
                (
                    &mut c.2,
                    recorded_stats.paths_failed,
                    stats_at_40.paths_failed,
                ),
                (
                    &mut c.3,
                    recorded_stats.cache_spliced,
                    stats_at_40.cache_spliced,
                ),
            ];
            for (slot, recorded, fresh) in carried {
                *slot = *slot - fresh + recorded;
            }
            if name == "EATP" {
                assert_eq!(
                    recorded_stats.cache_spliced, 8,
                    "the fixture carries cached tails"
                );
                assert_ne!(recorded_stats.expansions, stats_at_40.expansions);
            } else {
                assert_eq!(resumed_fp, base.deterministic_fingerprint());
            }

            let mut payloads = vec![(recorded.to_vec(), resumed_fp.clone())];
            for stale_keys in [removed("Dense"), removed("EventDriven")] {
                let mut tree = tree.clone();
                let Value::Object(config_fields) = field_mut(&mut tree, "config") else {
                    panic!("config field must be an object");
                };
                for (key, value) in stale_keys {
                    assert!(config_fields.iter().all(|(k, _)| k != key));
                    config_fields.push((key.to_string(), value));
                }
                let Value::Object(base_fields) = base_slice_mut(&mut tree) else {
                    panic!("{name}: planner payload must be an object");
                };
                assert!(base_fields.iter().any(|(k, _)| k == "last_gc"));
                assert!(base_fields.iter().all(|(k, _)| k != "maintenance"));
                base_fields.push(("maintenance".to_string(), Value::Array(Vec::new())));
                payloads.push((
                    framed(5, &serde::binary::to_bytes(&tree)),
                    resumed_fp.clone(),
                ));
            }
            // This build's own tick-40 payload, plus the `cache` key every
            // EATP payload carried while the path cache existed (the
            // fixture's entries, re-encoded as v6 packed positions).
            let mut v6 = engine.snapshot(p.as_ref()).serialize();
            let Value::Object(base_fields) = base_slice_mut(&mut v6) else {
                panic!("{name}: planner payload must be an object");
            };
            assert!(base_fields.iter().all(|(k, _)| k != "cache"));
            let entries = Vec::<((GridPos, GridPos), Vec<GridPos>)>::deserialize(&recorded_cache)
                .expect("recorded path-cache entries");
            assert_eq!(entries.is_empty(), name != "EATP", "{name}: cache entries");
            base_fields.push(("cache".to_string(), entries.serialize()));
            payloads.push((
                framed(SNAPSHOT_VERSION, &serde::binary::to_bytes(&v6)),
                base.deterministic_fingerprint(),
            ));

            for (bytes, expected) in payloads {
                let decoded = decode_snapshot(&bytes).expect("v5 and v6 payloads decode");
                let mut p3 = make(name);
                let mut resumed = resume_from(&decoded, p3.as_mut()).expect("resume");
                assert_eq!(
                    resumed.state_hash(),
                    state_at_40,
                    "{name}: the recorded state is the one this build reaches"
                );
                resumed.run_to_completion(p3.as_mut());
                let report = resumed.report(p3.as_mut());
                assert_eq!(
                    report.deterministic_fingerprint(),
                    expected,
                    "{name}: a recorded snapshot must resume bit-identically"
                );
            }
        }
    }

    /// A v6 payload written while fault injection existed still reads
    /// (`docs/adr/ADR-024-no-fault-injection.md`): one that carries every
    /// retired key with non-default values — the fault plan and
    /// degradation policy in the config, the degradation latches, the
    /// three fault cursors and the three degradation counters in the
    /// engine state — decodes to this build's default config and resumes,
    /// fault-free, to the uninterrupted run's fingerprint.
    #[test]
    fn v6_payloads_with_fault_keys_resume_fault_free() {
        let inst = scenario(blockade_storm(), 42);
        let config = EngineConfig::default();
        let retired_config = [
            (
                "faults",
                Value::Object(vec![
                    ("enabled".into(), Value::Bool(true)),
                    ("seed".into(), Value::U64(4242)),
                    ("decision_faults".into(), Value::U64(4)),
                    ("leg_faults".into(), Value::U64(3)),
                    ("poison_faults".into(), Value::U64(4)),
                    (
                        "window".into(),
                        Value::Array(vec![Value::U64(5), Value::U64(150)]),
                    ),
                ]),
            ),
            (
                "degradation",
                Value::Object(vec![
                    ("enabled".into(), Value::Bool(true)),
                    ("max_expansions_per_tick".into(), Value::U64(1)),
                ]),
            ),
        ];
        let retired_engine = [
            ("degraded_ticks", Value::U64(3)),
            ("fallback_assignments", Value::U64(5)),
            ("planner_errors", Value::U64(7)),
            ("degrade_next", Value::Bool(true)),
            ("recover_next", Value::Bool(true)),
            ("next_decision_fault", Value::U64(2)),
            ("next_leg_fault", Value::U64(1)),
            ("next_poison_fault", Value::U64(1)),
        ];
        for name in PLANNERS {
            let base = run_simulation(&inst, make(name).as_mut(), &config);
            let mut p = make(name);
            let mut engine = Engine::new(&inst, &config);
            engine.start(p.as_mut());
            for _ in 0..40 {
                engine.tick_once(p.as_mut());
            }
            let state_at_40 = engine.state_hash();
            let mut tree = engine.snapshot(p.as_ref()).serialize();
            for (section, keys) in [
                ("config", &retired_config[..]),
                ("engine", &retired_engine[..]),
            ] {
                let Value::Object(fields) = field_mut(&mut tree, section) else {
                    panic!("`{section}` must be an object");
                };
                for (key, value) in keys {
                    assert!(fields.iter().all(|(k, _)| k != key), "`{key}` is retired");
                    fields.push((key.to_string(), value.clone()));
                }
            }
            let bytes = framed(SNAPSHOT_VERSION, &serde::binary::to_bytes(&tree));
            let decoded = decode_snapshot(&bytes).expect("retired keys are ignored");
            assert_eq!(decoded.config, config, "{name}: no fault knob survives");
            let mut p2 = make(name);
            let mut resumed = resume_from(&decoded, p2.as_mut()).expect("resume");
            assert_eq!(resumed.state_hash(), state_at_40, "{name}");
            resumed.run_to_completion(p2.as_mut());
            assert_eq!(
                resumed.report(p2.as_mut()).deterministic_fingerprint(),
                base.deterministic_fingerprint(),
                "{name}: a faulted v6 payload resumes fault-free"
            );
        }
    }

    /// A CRC-valid planner slice with a cell off the grid, two robots
    /// parked on one cell, a robot outside the fleet (below or above the
    /// CDT's robot cap) or a tick past the CDT's or the parking board's
    /// encoding is refused on resume before any reservation table indexes
    /// it.
    #[test]
    fn planner_slice_off_the_grid_is_a_decode_error() {
        let inst = scenario(None, 42);
        let (width, height) = (inst.grid.width(), inst.grid.height());
        let mut p = make("EATP");
        let mut engine = Engine::new(&inst, &EngineConfig::default());
        engine.start(p.as_mut());
        let base_of = |tree: &mut Value| {
            let slice = field_mut(field_mut(tree, "planner"), "base");
            BaseSnapshot::deserialize(slice).expect("a base slice")
        };
        // The first tick whose slice has every table the cases edit.
        let tree = loop {
            engine.tick_once(p.as_mut());
            assert!(!engine.is_finished(), "no tick had every table filled");
            let mut tree = engine.snapshot(p.as_ref()).serialize();
            let base = base_of(&mut tree);
            let parked = base.resv.parked.len();
            if parked >= 2 && !base.resv.timed.is_empty() {
                break tree;
            }
        };
        let below = GridPos::new(0, height);
        let phantom = RobotId::new(inst.robots.len());
        let past_cap = RobotId::new(MAX_FLEET);
        for (what, expected) in [
            ("parking cell", "parking cell"),
            ("reservation cell", "reservation cell"),
            ("two robots", "two robots"),
            ("reservation robot", "reservation robot"),
            ("reservation robot past the cap", "reservation robot"),
            ("parking robot", "parking robot"),
            ("reservation tick", "reservation tick"),
            ("parking tick", "parking tick"),
        ] {
            let mut tree = tree.clone();
            let mut b = base_of(&mut tree);
            match what {
                "parking cell" => b.resv.parked[0].1 = below,
                "reservation cell" => b.resv.timed[0].pos = GridPos::new(width, 0),
                "two robots" => b.resv.parked[1].1 = b.resv.parked[0].1,
                "reservation robot" => b.resv.timed[0].robot = phantom,
                "reservation robot past the cap" => b.resv.timed[0].robot = past_cap,
                "parking robot" => b.resv.parked[0].0 = phantom,
                "reservation tick" => b.resv.timed[0].t = MAX_CDT_TICK + 1,
                _ => b.resv.parked[0].2 = MAX_PARK_TICK + 1,
            }
            *field_mut(field_mut(&mut tree, "planner"), "base") = b.serialize();
            let data = decode_snapshot(&framed(SNAPSHOT_VERSION, &serde::binary::to_bytes(&tree)))
                .expect("the planner slice stays a tree until resume");
            let Err(err) = resume_from(&data, make("EATP").as_mut()) else {
                panic!("a planner slice with a bad {what} resumed");
            };
            assert!(
                matches!(&err, SnapshotError::Decode(msg) if msg.contains(expected)),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn atomic_write_reads_back_and_leaves_no_temp() {
        let inst = scenario(None, 42);
        let config = EngineConfig::default();
        let mut p = make("NTP");
        let mut engine = Engine::new(&inst, &config);
        engine.start(p.as_mut());
        for _ in 0..20 {
            engine.tick_once(p.as_mut());
        }

        let dir = std::env::temp_dir().join(format!("tprw-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.snap");
        engine.save_snapshot(p.as_ref(), &path).expect("save");
        assert!(path.exists());
        assert!(
            !dir.join("run.snap.tmp").exists(),
            "temp file must be renamed away"
        );

        let data = read_snapshot(&path).expect("read back");
        assert_eq!(
            encode_snapshot(&data),
            encode_snapshot(&engine.snapshot(p.as_ref())),
            "file round-trip re-encodes identically"
        );

        // Overwriting an existing snapshot also goes through the temp file.
        engine.tick_once(p.as_mut());
        engine.save_snapshot(p.as_ref(), &path).expect("overwrite");
        let newer = read_snapshot(&path).expect("read newer");
        assert_eq!(newer.engine.t, engine.current_tick());

        let missing = read_snapshot(&dir.join("absent.snap"));
        assert!(matches!(missing, Err(SnapshotError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_never_shadows_last_good_snapshot() {
        let inst = scenario(None, 42);
        let config = EngineConfig::default();
        let mut p = make("NTP");
        let mut engine = Engine::new(&inst, &config);
        engine.start(p.as_mut());
        for _ in 0..20 {
            engine.tick_once(p.as_mut());
        }

        let dir = std::env::temp_dir().join(format!("tprw-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.snap");
        let tmp = dir.join("run.snap.tmp");

        // A good snapshot lands, then a later attempt "crashes" between the
        // tmp write and the rename, stranding torn bytes under `.tmp`.
        engine.save_snapshot(p.as_ref(), &path).expect("save");
        let good_tick = engine.current_tick();
        engine.tick_once(p.as_mut());
        let newer = encode_snapshot(&engine.snapshot(p.as_ref()));
        std::fs::write(&tmp, &newer[..newer.len() / 2]).unwrap();

        // The reader never consults the tmp sibling: the last good snapshot
        // stays loadable as-is.
        let recovered = read_snapshot(&path).expect("last good must load");
        assert_eq!(recovered.engine.t, good_tick);

        // The next atomic write cleans the stale tmp up and lands whole.
        engine.save_snapshot(p.as_ref(), &path).expect("overwrite");
        assert!(!tmp.exists(), "stale tmp must be swept by the next write");
        let latest = read_snapshot(&path).expect("fresh write loads");
        assert_eq!(latest.engine.t, engine.current_tick());
        std::fs::remove_dir_all(&dir).ok();
    }
}
