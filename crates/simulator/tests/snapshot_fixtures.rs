//! The recorded snapshot fixtures: one snapshot per planner, written by
//! this schema's build at tick 40 of the snapshot unit tests' clean floor
//! (`scenario(None, 42)` in `src/snapshot.rs`).
//!
//! A build reads only the schema version it writes
//! (`docs/adr/ADR-030-current-only-snapshots.md`), so these bytes pin the
//! format: a change to the payload schema fails this test until the
//! version is bumped and the fixtures are re-recorded. On a mismatch the
//! bytes this build writes land in
//! `$CARGO_TARGET_TMPDIR/snapshot-v<SNAPSHOT_VERSION>/<planner>.snap`;
//! re-recording is one `cp` of that directory to `testdata/` and one edit
//! of the directory named in `fixture!`.

use eatp_core::{planner_by_name, EatpConfig};
use serde::Value;
use tprw_simulator::{
    decode_snapshot, encode_snapshot, resume_from, run_simulation, Engine, EngineConfig,
    SnapshotData, SNAPSHOT_VERSION,
};
use tprw_warehouse::{Instance, LayoutConfig, ScenarioSpec, WorkloadConfig};

/// The bytes of one recorded fixture of this schema version.
macro_rules! fixture {
    ($file:literal) => {
        include_bytes!(concat!("../testdata/snapshot-v12/", $file))
    };
}

const FIXTURES: [(&str, &[u8]); 5] = [
    ("NTP", fixture!("ntp.snap")),
    ("LEF", fixture!("lef.snap")),
    ("ILP", fixture!("ilp.snap")),
    ("ATP", fixture!("atp.snap")),
    ("EATP", fixture!("eatp.snap")),
];

/// The tick the fixtures were written at.
const TICK: usize = 40;

/// The snapshot unit tests' `scenario(None, 42)`.
fn scenario() -> Instance {
    ScenarioSpec {
        name: "snapshot-test".into(),
        layout: LayoutConfig::sized(24, 16),
        n_racks: 10,
        n_robots: 4,
        n_pickers: 2,
        workload: WorkloadConfig::poisson(20, 0.5),
        disruptions: None,
        seed: 42,
    }
    .build()
    .unwrap()
}

/// The value under `key` in the object `v`.
fn field_mut<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(fields) = v else {
        panic!("`{key}` must sit in an object");
    };
    let (_, value) =
        (fields.iter_mut().find(|(k, _)| k == key)).unwrap_or_else(|| panic!("no `{key}` field"));
    value
}

/// The planner counters of a snapshot's planner payload, its base slice:
/// NTP, LEF and ILP write them as the whole payload, ATP and EATP nest them
/// under `base` beside their Q-table.
fn planner_stats(planner: &mut Value) -> &mut Value {
    if planner.get("base").is_some() {
        field_mut(planner, "base")
    } else {
        planner
    }
}

/// Copy the wall-clock and allocator readings of `from` into `to`: the
/// planner's selection and planning time, the engine's peak scratch, and
/// each metrics checkpoint's STC, PTC and memory. Every other byte of a
/// snapshot is a function of the run.
fn copy_wall_clock(from: &SnapshotData, to: &mut SnapshotData) {
    to.engine.peak_scratch = from.engine.peak_scratch;
    let checkpoints = to.engine.metrics.checkpoints.iter_mut();
    for (to, from) in checkpoints.zip(&from.engine.metrics.checkpoints) {
        to.stc_s = from.stc_s;
        to.ptc_s = from.ptc_s;
        to.memory_bytes = from.memory_bytes;
    }
    let mut recorded = from.planner.clone();
    let recorded = planner_stats(&mut recorded);
    let stats = planner_stats(&mut to.planner);
    for key in ["selection_ns", "planning_ns"] {
        *field_mut(stats, key) = field_mut(recorded, key).clone();
    }
}

/// For every planner: (a) the fixture's header carries
/// [`SNAPSHOT_VERSION`]; (b) decoding it and re-encoding gives back its
/// bytes exactly; (c) this build's own tick-40 snapshot, with the
/// fixture's wall-clock readings copied in, encodes to those bytes exactly;
/// (d) resuming the fixture restores this build's tick-40 `state_hash`,
/// and the resumed run ends with the uninterrupted run's fingerprint.
#[test]
fn recorded_snapshots_pin_the_format_and_resume_bit_identically() {
    let inst = scenario();
    let config = EngineConfig::default();
    let make = |name| planner_by_name(name, &EatpConfig::default()).expect("a paper planner");
    let dir = format!(
        "{}/snapshot-v{SNAPSHOT_VERSION}",
        env!("CARGO_TARGET_TMPDIR")
    );
    let mut mismatched = Vec::new();
    for (name, fixture) in FIXTURES {
        let mut p = make(name);
        let mut engine = Engine::new(&inst, &config);
        engine.start(p.as_mut());
        for _ in 0..TICK {
            engine.tick_once(p.as_mut());
        }
        let state_at_tick = engine.state_hash();
        let mut fresh = engine.snapshot(p.as_ref());
        drop(engine);

        let recorded = decode_snapshot(fixture);
        if let Ok(recorded) = &recorded {
            copy_wall_clock(recorded, &mut fresh);
        }
        let actual = encode_snapshot(&fresh);
        let recorded = match recorded {
            Ok(recorded) if actual == fixture && encode_snapshot(&recorded) == fixture => recorded,
            recorded => {
                let path = format!("{dir}/{}.snap", name.to_lowercase());
                std::fs::create_dir_all(&dir).expect("create the actual-bytes directory");
                std::fs::write(&path, &actual).expect("write the actual bytes");
                mismatched.push(match recorded {
                    Ok(_) => format!("{name}: the bytes differ"),
                    Err(e) => format!("{name}: the fixture does not decode ({e})"),
                });
                continue;
            }
        };
        assert_eq!(
            fixture[12..16],
            SNAPSHOT_VERSION.to_le_bytes(),
            "{name}: the fixture's header carries this build's version"
        );

        let mut p = make(name);
        let mut resumed = resume_from(&inst, &recorded, p.as_mut()).expect("the fixture resumes");
        assert_eq!(
            resumed.state_hash(),
            state_at_tick,
            "{name}: the fixture restores the state this build reaches at tick {TICK}"
        );
        resumed.run_to_completion(p.as_mut());
        let uninterrupted = run_simulation(&inst, make(name).as_mut(), &config);
        assert_eq!(
            resumed.report(p.as_mut()).deterministic_fingerprint(),
            uninterrupted.deterministic_fingerprint(),
            "{name}: the resumed fixture ends with the uninterrupted run's fingerprint"
        );
    }
    assert!(
        mismatched.is_empty(),
        "this build's tick-{TICK} snapshots are not the recorded fixtures: {mismatched:?}; \
         the actual bytes are written to {dir}"
    );
}
