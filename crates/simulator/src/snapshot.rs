//! Versioned, checksummed checkpoint/resume.
//!
//! A snapshot captures everything a mid-run simulation cannot re-derive —
//! the canonical engine state ([`crate::engine::EngineState`]), the
//! planner's canonical internals ([`eatp_core::planner::Planner::
//! export_snapshot`]) and the engine config — plus a fingerprint of the
//! instance the caller supplies again on resume, in a binary container
//! with a fixed header (magic, endianness marker, schema version, payload
//! length, CRC32). Resuming from a checkpoint taken at tick `T`
//! produces a run bit-identical to one that was never interrupted: the
//! round-trip tests pin `SimulationReport::deterministic_fingerprint`
//! equality for every planner on clean and disrupted scenarios.
//!
//! The canonical-vs-derived split, the header layout and the version
//! policy are documented in `docs/snapshot-format.md`.

use crate::engine::{Engine, EngineConfig, EngineState};
use eatp_core::planner::{Planner, PlannerEvent};
use serde::{Deserialize, Serialize, Value};
use tprw_warehouse::{Instance, TimedEvent};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TPRWSNAP";

/// Current schema version, and the only one [`decode_snapshot`] reads: every
/// other is [`SnapshotError::UnsupportedVersion`]. A payload schema change
/// bumps it and re-records `testdata/snapshot-v{N}/` instead of carrying a
/// reader for the old payloads (`docs/adr/ADR-030-current-only-snapshots.md`).
pub const SNAPSHOT_VERSION: u32 = 12;

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
    /// to resume it. Payload shapes overlap (NTP/LEF/ILP, ATP/EATP), so without
    /// this check the import would succeed and the run silently diverge.
    WrongPlanner {
        /// [`SnapshotData::planner_name`].
        snapshot: String,
        /// `Planner::name()` of the planner handed to [`resume_from`].
        resuming: &'static str,
    },
    /// The instance handed to [`resume_from`] is not the one the snapshot
    /// was taken on: their fingerprints differ.
    WrongInstance {
        /// [`SnapshotData::instance_fingerprint`].
        snapshot: u32,
        /// The fingerprint of the instance handed to [`resume_from`].
        resuming: u32,
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
            SnapshotError::WrongInstance { snapshot, resuming } => write!(
                f,
                "snapshot of instance {snapshot:#010x} resumed on instance {resuming:#010x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<serde::Error> for SnapshotError {
    fn from(e: serde::Error) -> Self {
        SnapshotError::Decode(e.0)
    }
}

/// Everything needed to resume a run beside the instance, which the caller
/// holds: the instance's fingerprint, the engine knobs, the canonical engine
/// state and the planner's canonical internals (a planner-defined value
/// tree; `Null` for stateless planners).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotData {
    /// `Planner::name()` of the planner that produced [`Self::planner`];
    /// [`resume_from`] refuses a planner of another name.
    pub planner_name: String,
    /// The CRC32 of the encoding of the instance the run executes;
    /// [`resume_from`] refuses an instance of another.
    pub instance_fingerprint: u32,
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

/// The CRC32 of the instance's binary encoding. The encoding holds no hash
/// map, so one instance always gives one fingerprint
/// (`docs/adr/ADR-034-instance-by-fingerprint.md`).
pub(crate) fn instance_fingerprint(instance: &Instance) -> u32 {
    crc32(&serde::binary::to_bytes(instance))
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
    if version != SNAPSHOT_VERSION {
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
            instance_fingerprint: instance_fingerprint(self.instance()),
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

/// Rebuild an engine + planner pair from a decoded snapshot of a run on
/// `instance`: the one way into a mid-run [`Engine`], which borrows only the
/// instance. It refuses a planner of another name
/// ([`SnapshotError::WrongPlanner`]), an instance of another fingerprint
/// ([`SnapshotError::WrongInstance`]) and an engine slice
/// [`EngineState::check`] rejects ([`SnapshotError::Decode`]). Then the
/// fresh `planner` is `init`-ed, the journal replayed through
/// [`Planner::on_event`] (grid overlay, distance oracle), its slice imported
/// and checked against the last tick an active path reaches
/// ([`Planner::check_resume_tick`]), and [`PlannerEvent::Resumed`] rebuilds
/// its reservation table from the fleet and the active paths, before the
/// engine takes the state (`docs/snapshot-format.md`). Do **not** call
/// [`Engine::start`] on the result.
pub fn resume_from<'a>(
    instance: &'a Instance,
    data: &SnapshotData,
    planner: &mut dyn Planner,
) -> Result<Engine<'a>, SnapshotError> {
    if planner.name() != data.planner_name {
        return Err(SnapshotError::WrongPlanner {
            snapshot: data.planner_name.clone(),
            resuming: planner.name(),
        });
    }
    let resuming = instance_fingerprint(instance);
    if resuming != data.instance_fingerprint {
        return Err(SnapshotError::WrongInstance {
            snapshot: data.instance_fingerprint,
            resuming,
        });
    }
    let state = &data.engine;
    state.check(instance).map_err(SnapshotError::Decode)?;
    planner.init(instance);
    for TimedEvent { t, event } in &state.journal {
        planner.on_event(PlannerEvent::Disruption { event, t: *t });
    }
    planner.import_snapshot(&data.planner)?;
    let last_end = (state.paths.iter().flatten()).fold(state.t, |end, p| end.max(p.end()));
    planner.check_resume_tick(state.t, last_end)?;
    let (t, robots, paths) = (state.t, &state.robots, &state.paths);
    planner.on_event(PlannerEvent::Resumed { t, robots, paths });
    Ok(Engine::resumed(instance, &data.config, state.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{Ack, BacklogOrder, Command, OrderSpec, SequencedCommand};
    use crate::engine::run_simulation;
    use eatp_core::{planner_by_name, EatpConfig, PLANNER_NAMES as PLANNERS};
    use tprw_pathfinding::cdt::MAX_CDT_TICK;
    use tprw_pathfinding::reservation::MAX_PARK_TICK;
    use tprw_pathfinding::Path;
    use tprw_warehouse::{
        DisruptionConfig, DisruptionEvent, GridPos, ItemId, LayoutConfig, OrderId, PickerId,
        RackId, RobotId, RobotPhase, ScenarioSpec, Tick, TimedEvent, WorkloadConfig,
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
        let previous = engine.export_state().validator.previous();
        drop(engine);
        drop(p2);

        let data = decode_snapshot(&bytes).expect("wire round-trip");
        assert_eq!(data.planner_name, name);
        let mut p3 = make(name);
        let mut resumed = resume_from(inst, &data, p3.as_mut()).expect("resume");
        assert_eq!(
            resumed.export_state(),
            data.engine,
            "{name}: the whole engine state is restored at the resume tick"
        );
        assert_eq!(
            resumed.export_state().validator.previous(),
            previous,
            "{name}: the validator's previous check is derived from the robots"
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
        let Err(err) = resume_from(&inst, &data, make(resumed_into).as_mut()) else {
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
        // One entry short in a per-robot or per-picker table, re-framed so the checksum holds: the bytes decode, and
        // resuming them must fail naming the table instead of indexing
        // out of bounds a few ticks later.
        let good = first_snapshot("NTP", |s| s.t == 40);
        for table in ["carried_work", "pickers", "paths"] {
            let err = refusal(&good, |state| {
                let shortened = match table {
                    "carried_work" => state.carried_work.pop().is_some(),
                    "pickers" => state.pickers.pop().is_some(),
                    _ => state.paths.pop().is_some(),
                };
                assert!(shortened, "{table} is empty");
            });
            assert_names(&err, table);
        }
    }

    /// A snapshot resumes only on the instance it was taken on: one rack
    /// home moved, one item's arrival changed or the name changed is
    /// refused before anything is read against it.
    #[test]
    fn another_instance_is_refused_by_fingerprint() {
        let inst = scenario(None, 42);
        let mut p = make("EATP");
        let mut engine = Engine::new(&inst, &EngineConfig::default());
        engine.start(p.as_mut());
        for _ in 0..3 {
            engine.tick_once(p.as_mut());
        }
        let data = decode_snapshot(&encode_snapshot(&engine.snapshot(p.as_ref()))).unwrap();
        assert_eq!(data.instance_fingerprint, instance_fingerprint(&inst));
        type Edit = fn(&mut Instance);
        let edits: [(&str, Edit); 3] = [
            ("a rack home", |i| i.racks[0].home = i.racks[1].home),
            ("an arrival", |i| i.items[5].arrival += 1),
            ("the name", |i| i.name.push('!')),
        ];
        for (what, edit) in edits {
            let mut other = inst.clone();
            edit(&mut other);
            let Err(err) = resume_from(&other, &data, make("EATP").as_mut()) else {
                panic!("a snapshot resumed on an instance with another {what}");
            };
            assert_eq!(
                err,
                SnapshotError::WrongInstance {
                    snapshot: data.instance_fingerprint,
                    resuming: instance_fingerprint(&other),
                },
                "{what}"
            );
        }
        resume_from(&inst, &data, make("EATP").as_mut()).expect("the true instance resumes");
    }

    /// `docs/snapshot-format.md` names the version this build writes, in
    /// its header table and with a history row, so a bump cannot leave the
    /// format's description behind.
    #[test]
    fn format_doc_names_the_current_version() {
        let doc = include_str!("../../../docs/snapshot-format.md");
        let header = doc.lines().find(|l| l.contains("| version     |"));
        let header = header.expect("the header table's version row");
        let current = format!("(`SNAPSHOT_VERSION`, currently **{SNAPSHOT_VERSION}**)");
        assert!(header.contains(&current), "{header}");
        let history = format!("\n| {SNAPSHOT_VERSION} | ");
        assert!(
            doc.contains(&history),
            "no history row for {SNAPSHOT_VERSION}"
        );
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
                !engine.export_state().journal.is_empty(),
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

        // Version zero, every retired version and the next one.
        for version in (0..SNAPSHOT_VERSION).chain([SNAPSHOT_VERSION + 1]) {
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

    /// The engine tables that name cells, at tick 3, while idle robots
    /// still have work ahead. Each of these bytes resumed before the check
    /// and then panicked: the journal cases inside the planner's journal
    /// replay, the rest within the first ticks.
    #[test]
    fn engine_cells_off_the_grid_are_typed_errors() {
        let inst = scenario(None, 42);
        let good = first_snapshot("NTP", |s| s.t == 3);
        let off = GridPos::new(0, inst.grid.height());
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
            assert_names(&refusal(&good, corrupt), table);
        }
    }

    /// A journal and deferred lists the disruption fold refuses, on the
    /// blockade-storm floor cut at tick 3, before any event is due: rack
    /// 9's removal journaled while it is still scheduled, and the first
    /// scheduled blockade's cell journaled as blocked (each resumed and
    /// then panicked a debug build when the scheduled event landed), a
    /// deferred blockade listed twice, and a deferred removal whose removal
    /// was already journaled. The unedited slice resumes.
    #[test]
    fn disruption_states_the_fold_refuses_are_typed_errors() {
        let inst = scenario(blockade_storm(), 42);
        let mut p = make("EATP");
        let mut engine = Engine::new(&inst, &EngineConfig::default());
        engine.start(p.as_mut());
        for _ in 0..3 {
            engine.tick_once(p.as_mut());
        }
        let good = engine.snapshot(p.as_ref());
        assert!(good.engine.journal.is_empty(), "no event is due by tick 3");
        let scheduled = |pick: fn(DisruptionEvent) -> Option<DisruptionEvent>| {
            let first = inst.disruptions.iter().find_map(|e| pick(e.event));
            TimedEvent {
                t: 1,
                event: first.expect("the storm schedules one"),
            }
        };
        let removal = scheduled(|e| matches!(e, DisruptionEvent::RackRemoved { .. }).then_some(e));
        let blockade = scheduled(|e| matches!(e, DisruptionEvent::CellBlocked { .. }).then_some(e));
        assert_eq!(
            removal.event,
            DisruptionEvent::RackRemoved {
                rack: RackId::new(9)
            }
        );
        let named = |e: &TimedEvent| match e.event {
            DisruptionEvent::CellBlocked { pos } | DisruptionEvent::CellUnblocked { pos } => {
                Some(pos)
            }
            _ => None,
        };
        let free = (inst.grid.cells_of_kind(tprw_warehouse::CellKind::Aisle))
            .find(|&c| inst.disruptions.iter().all(|e| named(e) != Some(c)))
            .expect("an aisle cell the storm never blocks");
        let unscheduled = RackId::new(0);
        assert!(inst
            .disruptions
            .iter()
            .all(|e| e.event != DisruptionEvent::RackRemoved { rack: unscheduled }));
        let removed = TimedEvent {
            t: 1,
            event: DisruptionEvent::RackRemoved { rack: unscheduled },
        };
        type Corrupt = Box<dyn Fn(&mut EngineState)>;
        let cases: [(&str, Corrupt); 4] = [
            ("journal", Box::new(move |s| s.journal.push(removal))),
            ("journal", Box::new(move |s| s.journal.push(blockade))),
            (
                "deferred_blockades",
                Box::new(move |s| s.deferred_blockades.extend([free, free])),
            ),
            (
                "deferred_removals",
                Box::new(move |s| {
                    s.journal.push(removed);
                    s.deferred_removals.push(unscheduled);
                }),
            ),
        ];
        for (table, corrupt) in cases {
            let mut data = good.clone();
            corrupt(&mut data.engine);
            let data = decode_snapshot(&encode_snapshot(&data)).expect("bytes decode");
            let Err(err) = resume_from(&inst, &data, make("EATP").as_mut()) else {
                panic!("{table}: the forged slice resumed");
            };
            assert_names(&err, table);
        }
        resume_from(&inst, &good, make("EATP").as_mut()).expect("the true slice resumes");
    }

    /// An idle robot stands on a rack home or its own spawn cell, the
    /// only cells EATP's K-nearest index lists. One moved to a plain aisle
    /// cell, or to another robot's spawn cell, is refused naming the
    /// `robots` table; on its own spawn cell it resumes.
    #[test]
    fn idle_robots_off_the_idle_cells_are_typed_errors() {
        let inst = scenario(None, 42);
        let good = first_snapshot("EATP", |s| s.t == 3);
        let idle = (good.engine.robots.iter())
            .position(|r| r.is_idle() && r.pos == inst.robots[r.id.index()].pos);
        let idle = idle.expect("an idle robot on its spawn cell at tick 3");
        let plain = inst
            .grid
            .cells_of_kind(tprw_warehouse::CellKind::Aisle)
            .find(|&c| {
                inst.racks.iter().all(|r| r.home != c) && inst.robots.iter().all(|r| r.pos != c)
            });
        let other = inst.robots[(idle + 1) % inst.robots.len()].pos;
        for pos in [plain.expect("a plain aisle cell"), other] {
            assert_names(&refusal(&good, |s| s.robots[idle].pos = pos), "robots");
        }
        let data = decode_snapshot(&encode_snapshot(&good)).expect("bytes decode");
        resume_from(&inst, &data, make("EATP").as_mut())
            .expect("idle robots on their spawn cells resume");
    }

    /// The engine tables that name robots, pickers, racks and items by id,
    /// and the fixed fields of the engine's fleets. These cases resumed
    /// before the check and then panicked: the pending-leg lists and the
    /// deferred removals within the first ticks, the journaled rack events
    /// inside EATP's journal replay, and the first four written at tick 40
    /// (a pending item past the run's items, a rack's picker, a backlogged
    /// order's rack) once the engine dispatched, delivered or landed it,
    /// LEF's inside its oldest-pending lookup; so did a robot whose id is
    /// not its index and a served entry's robot past the fleet. The journaled
    /// robot and picker events, a busy robot's rack, a moved station and a
    /// stray live arrival resumed without a panic, and are refused all the
    /// same. So are the cursors no run can hold: an item cursor past the
    /// items (the backlog depth underflowed), more orders cancelled than
    /// submitted and a checkpoint cursor far past the last checkpoint (both
    /// overflowed in the checkpoint threshold) and a checkpoint cursor of
    /// 0. So are a robot named twice
    /// by the pending-leg lists, the picker queues and the served entries,
    /// and a queued or served entry whose robot is not docked with its rack,
    /// each of which resumed and then panicked in a debug build: a robot
    /// twice in `needs_delivery` on its second delivery leg, an idle robot
    /// queued or served in the picking phase, and a served robot queued
    /// again once its phase drifted from the busy set and docked count.
    /// So is a backlog entry submitted after the resumed tick, which
    /// resumed and then panicked a debug build when it landed (the order's
    /// age underflowed), and one that arrives before it was submitted.
    #[test]
    fn id_tables_outside_the_instance_are_typed_errors() {
        let inst = scenario(None, 42);
        let robot = RobotId::new(inst.robots.len());
        let picker = PickerId::new(inst.pickers.len());
        let rack = RackId::new(inst.racks.len());
        type Corrupt<'a> = Box<dyn Fn(&mut EngineState) + 'a>;
        let mut cases: Vec<(&str, Tick, &str, Corrupt)> = vec![
            (
                "EATP",
                3,
                "needs_return",
                Box::new(|s| s.needs_return.push(robot)),
            ),
            (
                "EATP",
                3,
                "needs_delivery",
                Box::new(|s| s.needs_delivery.push(robot)),
            ),
            (
                "EATP",
                3,
                "needs_replan",
                Box::new(|s| s.needs_replan.push(robot)),
            ),
            (
                "EATP",
                3,
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
            cases.push(("EATP", 3, "journal", Box::new(journal)));
        }
        let pending = |s: &mut EngineState| {
            let rack = s.racks.iter_mut().find(|r| !r.pending.is_empty());
            rack.expect("a rack with pending items at tick 40").pending[0] = ItemId::new(100_000);
        };
        let backlogged = BacklogOrder {
            order: OrderId::new(0),
            rack: RackId::new(99_999),
            processing: 5,
            arrival: 10,
            submitted: 0,
        };
        let busy = |s: &mut EngineState| {
            let robot = s.robots.iter_mut().find(|r| !r.is_idle());
            robot.expect("a busy robot at tick 40").phase = RobotPhase::ToRack { rack };
        };
        let served = |s: &mut EngineState| {
            let entry = s.pickers.iter_mut().find_map(|p| p.serving.as_mut());
            entry.expect("a picker serving at tick 40").robot = robot;
        };
        cases.extend::<[(&str, Tick, &str, Corrupt); 13]>([
            ("LEF", 40, "racks", Box::new(pending)),
            ("NTP", 40, "racks", Box::new(pending)),
            (
                "EATP",
                40,
                "racks",
                Box::new(|s| s.racks[0].picker = PickerId::new(77)),
            ),
            (
                "EATP",
                40,
                "backlog",
                Box::new(move |s| s.backlog.push(backlogged)),
            ),
            (
                "EATP",
                40,
                "robots",
                Box::new(|s| s.robots[0].id = RobotId::new(77)),
            ),
            ("EATP", 40, "robots", Box::new(busy)),
            (
                "EATP",
                40,
                "pickers",
                Box::new(|s| s.pickers[0].pos = GridPos::new(0, 0)),
            ),
            ("EATP", 40, "pickers", Box::new(served)),
            (
                "EATP",
                40,
                "live_item_arrivals",
                Box::new(|s| s.live_item_arrivals.push(3)),
            ),
            (
                "NTP",
                40,
                "next_item",
                Box::new(|s| s.next_item = inst.items.len() + 1),
            ),
            (
                "NTP",
                40,
                "orders_cancelled",
                Box::new(|s| s.orders_cancelled = s.orders_submitted + 1),
            ),
            (
                "NTP",
                40,
                "next_checkpoint",
                Box::new(|s| s.next_checkpoint = usize::MAX / 2),
            ),
            (
                "NTP",
                40,
                "next_checkpoint",
                Box::new(|s| s.next_checkpoint = 0),
            ),
        ]);
        let fetching = |s: &EngineState| {
            let r = s
                .robots
                .iter()
                .find(|r| matches!(r.phase, RobotPhase::ToRack { .. }));
            r.expect("a robot fetching a rack at tick 3").id
        };
        let idle = |s: &EngineState| {
            let robot = s
                .robots
                .iter()
                .find(|r| r.is_idle())
                .expect("an idle robot")
                .id;
            let rack = RackId::new(0);
            tprw_warehouse::QueueEntry {
                rack,
                robot,
                work: 3,
            }
        };
        let served_again = |s: &mut EngineState| {
            let served = s.pickers.iter().find_map(|p| p.serving);
            s.pickers[0].enqueue(served.expect("a picker serving at tick 40"));
        };
        // A second robot on a fetched rack: the schedule's in-flight racks
        // are the racks the phases name, so one return would clear a rack
        // the other robot still carries.
        let shared = move |s: &mut EngineState| {
            let rack = s.robots[fetching(s).index()].phase.rack();
            let idle = s.robots.iter_mut().find(|r| r.is_idle());
            let idle = idle.expect("an idle robot at tick 3");
            idle.phase = RobotPhase::ToRack {
                rack: rack.unwrap(),
            };
        };
        let order = |arrival: Tick, submitted: Tick| BacklogOrder {
            order: OrderId::new(0),
            rack: RackId::new(0),
            processing: 5,
            arrival,
            submitted,
        };
        cases.extend::<[(&str, Tick, &str, Corrupt); 7]>([
            (
                "EATP",
                3,
                "needs_delivery",
                Box::new(move |s| s.needs_delivery.extend([fetching(s), fetching(s)])),
            ),
            (
                "EATP",
                3,
                "pickers",
                Box::new(move |s| {
                    let entry = idle(s);
                    s.pickers[0].enqueue(entry)
                }),
            ),
            (
                "EATP",
                3,
                "pickers",
                Box::new(move |s| s.pickers[0].serving = Some(idle(s))),
            ),
            ("EATP", 40, "pickers", Box::new(served_again)),
            ("EATP", 3, "robots", Box::new(shared)),
            (
                "EATP",
                40,
                "backlog",
                Box::new(move |s| s.backlog.push(order(s.t, s.t + 5))),
            ),
            (
                "EATP",
                40,
                "backlog",
                Box::new(move |s| s.backlog.push(order(s.t - 1, s.t))),
            ),
        ]);
        for (name, t, table, corrupt) in cases {
            assert_names(
                &refusal(&first_snapshot(name, |s| s.t == t), corrupt),
                table,
            );
        }
    }

    /// The first snapshot of a clean-floor `name` run at a tick boundary
    /// whose engine state `fits`.
    fn first_snapshot(name: &str, fits: impl Fn(&EngineState) -> bool) -> SnapshotData {
        let inst = scenario(None, 42);
        let mut p = make(name);
        let mut engine = Engine::new(&inst, &EngineConfig::default());
        engine.start(p.as_mut());
        loop {
            engine.tick_once(p.as_mut());
            assert!(!engine.is_finished(), "{name}: no tick fits");
            let data = engine.snapshot(p.as_ref());
            if fits(&data.engine) {
                return data;
            }
        }
    }

    /// Resume `data`, a snapshot of the clean floor, with its engine slice
    /// edited by `edit`, through the byte format, and return the refusal.
    fn refusal(data: &SnapshotData, edit: impl Fn(&mut EngineState)) -> SnapshotError {
        let mut data = data.clone();
        edit(&mut data.engine);
        let data = decode_snapshot(&encode_snapshot(&data)).expect("bytes decode");
        let inst = scenario(None, 42);
        match resume_from(&inst, &data, make(&data.planner_name).as_mut()) {
            Ok(_) => panic!("{}: the edited slice resumed", data.planner_name),
            Err(err) => err,
        }
    }

    /// `err` is a `Decode` error naming the engine table `table`.
    fn assert_names(err: &SnapshotError, table: &str) {
        assert!(
            matches!(err, SnapshotError::Decode(msg) if msg.contains(&format!("`{table}`"))),
            "{table}: {err:?}"
        );
    }

    /// The robots whose active path reaches the resumed tick.
    fn moving(s: &EngineState) -> Vec<usize> {
        let live = |ai: &usize| s.paths[*ai].as_ref().is_some_and(|p| p.end() > s.t + 1);
        (0..s.robots.len()).filter(live).collect()
    }

    /// A CRC-valid engine slice whose robots or active paths collide — two
    /// robots on the grid on one cell, two parks on one cell, a path step at
    /// the resumed tick or later on another robot's step or park, two robots
    /// trading cells — or whose active path holds no cell, is refused on
    /// resume before the planner rebuilds its reservation table from it:
    /// the tables assert against the double reservations, and the resumed
    /// run would execute the swap as a conflict. Every collision is the
    /// validator's verdict: a vertex conflict "meets", a swap "swaps". So
    /// is, after the replay, a `Returning` leg that ends one cell short of
    /// its rack's home (it resumed, then panicked when the robot turned
    /// idle there) and a leg that jumps to a cell no step reaches (it
    /// resumed and ran to completion with no conflict executed).
    #[test]
    fn colliding_engine_legs_are_decode_errors() {
        // Two robots on parking legs, and one standing on the grid.
        let data = first_snapshot("EATP", |s| {
            let parking = moving(s)
                .into_iter()
                .filter(|&ai| s.robots[ai].phase.is_travelling());
            let standing = (0..s.robots.len()).any(|ai| s.paths[ai].is_none());
            parking.count() >= 2 && standing
        });
        let s = &data.engine;
        let t = s.t;
        let (a, b) = (moving(s)[0], moving(s)[1]);
        let still = (0..s.robots.len())
            .find(|&ai| s.paths[ai].is_none())
            .unwrap();
        let (stand, a_now) = (s.robots[still].pos, s.paths[a].as_ref().unwrap().at(t));
        let b_last = s.paths[b].as_ref().unwrap().last();
        let leg = move |cells: Vec<GridPos>| Some(Path { start: t, cells });
        // A robot that left its rack's home with the rack at `t − 1`, and
        // the standing robot sent to fetch that rack from the carrier's next
        // cell: a consistent `ToRack` leg that trades cells with the carrier
        // at `t`.
        let picked_up = |ai: usize| match s.robots[ai].phase {
            RobotPhase::ToStation { rack } => {
                let set_out = s.paths[ai].as_ref().filter(|p| p.start + 1 == t);
                set_out.map(|p| (ai, rack, p.at(t - 1), p.at(t)))
            }
            _ => None,
        };
        let (carrier, rack, home, next) = (0..s.robots.len())
            .find_map(picked_up)
            .expect("a rack picked up at the tick before");
        assert_eq!(data.engine.racks[rack.index()].home, home);
        assert!(carrier != still && home != next);
        let trade = move |s: &mut EngineState| {
            s.robots[still].pos = next;
            s.robots[still].phase = RobotPhase::ToRack { rack };
            s.paths[still] = Some(Path {
                start: t - 1,
                cells: vec![next, home],
            });
        };
        // The fetching robot turned into one returning the rack it fetches,
        // on a leg one cell short of the rack's home; and the carrier's next
        // cell replaced by a jump to the corner.
        let short = move |s: &mut EngineState| {
            s.robots[b].phase = RobotPhase::Returning {
                rack: s.robots[b].phase.rack().unwrap(),
            };
            s.paths[b].as_mut().unwrap().cells.pop();
        };
        let jump = move |s: &mut EngineState| {
            let p = s.paths[a].as_mut().unwrap();
            p.cells[(t + 1 - p.start) as usize] = GridPos::new(0, 0);
        };
        type Edit = Box<dyn Fn(&mut EngineState)>;
        let cases: [(&str, Edit, &str); 8] = [
            (
                "two robots",
                Box::new(move |s| s.robots[a].pos = stand),
                "meets",
            ),
            (
                "two parks",
                Box::new(move |s| s.paths[b] = leg(vec![stand])),
                "meets",
            ),
            (
                "a step on a park",
                Box::new(move |s| s.paths[b] = leg(vec![stand, b_last])),
                "meets",
            ),
            (
                "a step on a step",
                Box::new(move |s| s.paths[b] = leg(vec![a_now, b_last])),
                "meets",
            ),
            ("a swap", Box::new(trade), "swaps"),
            (
                "an empty path",
                Box::new(move |s| s.paths[a].as_mut().unwrap().cells.clear()),
                "no cell",
            ),
            (
                "a leg short of its goal",
                Box::new(short),
                "not at its goal",
            ),
            ("a jump", Box::new(jump), "not a step"),
        ];
        for (what, edit, expected) in cases {
            let err = refusal(&data, edit);
            assert!(
                matches!(&err, SnapshotError::Decode(m) if m.contains("`paths`") && m.contains(expected)),
                "{what}: {err:?}"
            );
        }
    }

    /// A CRC-valid engine slice whose legs reach outside the ticks the
    /// reservation tables hold is refused on resume: a path that starts
    /// after the resumed tick; a run moved, engine tick and paths alike, to
    /// 10¹², where every robot standing on the grid would park past the
    /// parking board's `u32` ticks; to `u32::MAX − 5`, where a leg parks
    /// past them (or, were every leg shorter, one planned at the resumed
    /// tick could); to just below the CDT's 48-bit tick limit, where a
    /// path ends past it; or a path stretched one tick past the latest end
    /// of a leg planned by the resumed tick, which would make the
    /// spatiotemporal graph allocate a layer per tick of it.
    #[test]
    fn reservation_ticks_outside_the_live_window_are_decode_errors() {
        // A robot on a parking leg at least six ticks from its end.
        let data = first_snapshot("ATP", |s| {
            let long = |p: &Path| p.end() >= s.t + 6;
            (0..s.robots.len()).any(|ai| {
                s.robots[ai].phase.is_travelling() && s.paths[ai].as_ref().is_some_and(long)
            })
        });
        let inst = scenario(None, 42);
        resume_from(&inst, &data, make("ATP").as_mut()).expect("the untouched slice resumes");
        let ai = moving(&data.engine)[0];
        let grid = &inst.grid;
        let (w, h) = (grid.width() as Tick, grid.height() as Tick);
        let reach = data.engine.t + (w - 1) + (h - 1) + EatpConfig::default().horizon_slack;
        /// Move the run to tick `to`, every path with it.
        fn shift(s: &mut EngineState, to: Tick) {
            let by = to - s.t;
            s.t = to;
            for p in s.paths.iter_mut().flatten() {
                p.start += by;
            }
        }
        type Edit = Box<dyn Fn(&mut EngineState)>;
        let cases: [(&str, Edit, String); 5] = [
            (
                "a start after the tick",
                Box::new(move |s| s.paths[ai].as_mut().unwrap().start = s.t + 1),
                "after tick".into(),
            ),
            (
                "an end past a leg's reach",
                Box::new(move |s| {
                    let p = s.paths[ai].as_mut().unwrap();
                    let last = p.last();
                    p.cells.resize((reach + 2 - p.start) as usize, last);
                }),
                format!("to tick {}, past tick {reach}", reach + 1),
            ),
            (
                "10¹²",
                Box::new(|s| shift(s, 1_000_000_000_000)),
                format!("past {MAX_PARK_TICK}"),
            ),
            (
                "u32::MAX − 5",
                Box::new(|s| shift(s, u32::MAX as Tick - 5)),
                format!("past {MAX_PARK_TICK}"),
            ),
            (
                "MAX_CDT_TICK − 1",
                Box::new(|s| shift(s, MAX_CDT_TICK - 1)),
                format!("past tick {MAX_CDT_TICK}"),
            ),
        ];
        for (what, edit, expected) in cases {
            let err = refusal(&data, edit);
            assert!(
                matches!(&err, SnapshotError::Decode(m) if m.contains(&expected)),
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
