//! The tick loop's skip proofs, checked against the dense loop's verdict
//! (see `docs/event-driven-ticking.md`): every phase early-outs when the
//! agenda proves the full scan a no-op, and a run must stay
//! **bit-identical** to one that scanned every robot, rack and picker
//! every tick.
//!
//! The dense loop is deleted (`docs/adr/ADR-007-one-tick-loop.md`); its
//! verdict is `results/fingerprints_event_driven.txt`, recorded by running
//! this file's matrix through it at the last commit that had it, one row
//! per run: `<section> <planner> kind=.. seed=.. [orders=..] ->
//! fp=<FNV-1a-64 of the Debug-printed fingerprint> ...`.
//!
//! * **`lockstep`** — every planner on clean and disrupted floors: tick
//!   count and an FNV fold of the canonical `state_hash()` at *every* tick
//!   boundary, not just the final fingerprint.
//! * **`clean` / `live`** — the 128 (planner, scenario kind, scenario
//!   seed[, order seed]) tuples per regime the retired proptests drew;
//!   live rows add a hash of the ack stream.
//! * **Agenda reconstruction** — the wake agenda is *derived* state,
//!   never snapshotted (`docs/snapshot-format.md`): a run snapshotted
//!   mid-flight and resumed must re-derive an agenda that locksteps the
//!   never-interrupted engine's state hashes to the end. A live check; it
//!   never needed the dense loop.
//!
//! `state_hash()` hashes the snapshot encoding of `EngineState`, so a
//! snapshot-schema change moves the `states=` column of the `lockstep`
//! rows and nothing else: regenerate only that column, and let the `fp=`
//! column (which it cannot move) be the guard that behaviour held.

use eatp::core::{planner_by_name, EatpConfig, Planner};
use eatp::simulator::{
    decode_snapshot, encode_snapshot, resume_from, run_simulation, Ack, Command, Engine,
    EngineConfig, OrderSpec, SequencedCommand,
};
use eatp::warehouse::{
    DisruptionConfig, Instance, LayoutConfig, OrderId, ScenarioSpec, Tick, WorkloadConfig,
};
use std::sync::Mutex;

/// One row per run, as recorded by the dense loop.
const GOLDEN: &str = include_str!("../results/fingerprints_event_driven.txt");

/// Where a mismatching run leaves the whole table with its rows replaced:
/// an intended behaviour change regenerates the golden file by copying
/// this over it.
const ACTUAL: &str = concat!(
    env!("CARGO_TARGET_TMPDIR"),
    "/fingerprints_event_driven.txt"
);

/// The table as this process has recomputed it so far (the three walking
/// tests run in parallel and share [`ACTUAL`]).
static ACTUAL_ROWS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Scenario kinds of the soak: a clean floor, a blockade storm and a
/// breakdown wave (the same shapes the checkpoint and chaos soaks use,
/// so the skip proofs compose with every disruption mechanism the repo
/// models).
fn scenario(kind: usize, seed: u64) -> Instance {
    let disruptions = match kind {
        0 => None,
        1 => Some(DisruptionConfig {
            breakdowns: 0,
            breakdown_ticks: (30, 80),
            blockades: 4,
            blockade_ticks: (30, 90),
            closures: 1,
            closure_ticks: (30, 60),
            removals: 1,
            removal_ticks: (30, 60),
            window: (10, 120),
        }),
        _ => Some(DisruptionConfig {
            breakdowns: 3,
            breakdown_ticks: (20, 90),
            blockades: 0,
            blockade_ticks: (30, 80),
            closures: 0,
            closure_ticks: (30, 60),
            removals: 2,
            removal_ticks: (30, 60),
            window: (10, 120),
        }),
    };
    ScenarioSpec {
        name: format!("ed-equiv-{kind}-{seed}"),
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

/// A deterministic live-order stream derived from `order_seed` (same
/// construction as `tests/chaos.rs`): `n` submissions spread across the
/// disruption window, closed by a shutdown.
fn live_order_stream(inst: &Instance, order_seed: u64, n: usize) -> Vec<(Tick, SequencedCommand)> {
    let mut x = order_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut orders = Vec::new();
    for i in 0..n {
        let rack = (next() as usize) % inst.racks.len();
        let processing = 4 + (next() % 10);
        let arrival = 10 + (next() % 140);
        orders.push((
            arrival.saturating_sub(5),
            OrderSpec {
                order: OrderId::new(i),
                rack: inst.racks[rack].id,
                processing,
                arrival,
            },
        ));
    }
    orders.sort_by_key(|(tick, spec)| (*tick, spec.order));
    let mut stream: Vec<(Tick, SequencedCommand)> = orders
        .into_iter()
        .enumerate()
        .map(|(seq, (tick, spec))| {
            (
                tick,
                SequencedCommand {
                    seq: seq as u64,
                    command: Command::SubmitOrder { spec },
                },
            )
        })
        .collect();
    stream.push((
        160,
        SequencedCommand {
            seq: n as u64,
            command: Command::Shutdown,
        },
    ));
    stream
}

/// Drives `engine` to completion under the harshest redelivery schedule.
fn drive_live(
    engine: &mut Engine<'_>,
    planner: &mut dyn Planner,
    stream: &[(Tick, SequencedCommand)],
    acks: &mut Vec<Ack>,
) {
    while !engine.is_finished() {
        let t = engine.current_tick();
        let mut due: Vec<SequencedCommand> = stream
            .iter()
            .filter(|(tick, _)| *tick <= t)
            .map(|(_, c)| c.clone())
            .collect();
        engine.tick_with_commands(planner, &mut due, acks);
    }
}

/// FNV-1a-64.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a-64 of a value's `Debug` rendering.
fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// The `name=<u64>` field of a golden row's key.
fn field(key: &str, name: &str) -> u64 {
    key.split(' ')
        .find_map(|tok| tok.strip_prefix(name)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("golden row `{key}` lacks `{name}=`"))
}

/// Walks the `section` rows of [`GOLDEN`]: one engine per row, built from
/// the row's key (`run` gets the planner name, the instance and the key,
/// and returns the verdict it observed), compared with the dense loop's
/// recorded verdict.
fn check_section(
    section: &str,
    expected_rows: usize,
    run: impl Fn(&str, &Instance, &str) -> String,
) {
    let mut rows = 0;
    let mut diverged = Vec::new();
    for (i, row) in GOLDEN.lines().enumerate() {
        let (key, verdict) = row.split_once(" -> ").expect("`<key> -> <verdict>` rows");
        let mut head = key.split(' ');
        if head.next() != Some(section) {
            continue;
        }
        rows += 1;
        let planner = head.next().expect("planner name");
        let inst = scenario(field(key, "kind") as usize, field(key, "seed"));
        let actual = run(planner, &inst, key);
        if actual != verdict {
            diverged.push((i, key, actual));
        }
    }
    assert_eq!(rows, expected_rows, "`{section}` rows in the golden file");
    if diverged.is_empty() {
        return;
    }
    {
        let mut table = ACTUAL_ROWS.lock().expect("released before the panic below");
        if table.is_empty() {
            table.extend(GOLDEN.lines().map(String::from));
        }
        for (i, key, actual) in &diverged {
            table[*i] = format!("{key} -> {actual}");
        }
        std::fs::write(ACTUAL, table.join("\n") + "\n").expect("write the actual rows");
    }
    let keys: Vec<&str> = diverged.iter().map(|&(_, key, _)| key).collect();
    panic!(
        "{} of {rows} `{section}` runs diverged from the dense loop's recorded verdict: {keys:?}\n\
         the table with the actual rows written to {ACTUAL}",
        keys.len()
    );
}

/// Every planner, clean and disrupted floors: the engine must reproduce
/// the dense loop's canonical state hash at every tick boundary (folded),
/// its tick count and its fingerprint. The fold catches a divergence the
/// final fingerprint would absorb.
#[test]
fn event_driven_locksteps_dense_state_hashes() {
    check_section("lockstep", 15, |name, inst, _| {
        let mut p = planner_by_name(name, &EatpConfig::default()).unwrap();
        let mut engine = Engine::new(inst, &EngineConfig::default());
        engine.start(p.as_mut());
        let mut states = Vec::new();
        while !engine.is_finished() {
            engine.tick_once(p.as_mut());
            states.extend(engine.state_hash().to_le_bytes());
        }
        let fp = debug_hash(&engine.report(p.as_mut()).deterministic_fingerprint());
        let ticks = states.len() / 8;
        format!("fp={fp:016x} ticks={ticks} states={:016x}", fnv1a(&states))
    });
}

/// Agenda reconstruction on resume: the wake agenda is derived state and
/// is *not* in the snapshot. A run snapshotted mid-flight and resumed
/// with a fresh planner must lockstep the never-interrupted engine's
/// state hashes all the way to completion — i.e. the rebuilt agenda wakes
/// exactly the entities the never-snapshotted one would.
#[test]
fn agenda_reconstruction_matches_fresh() {
    let planner_cfg = EatpConfig::default();
    let cfg = EngineConfig::default();
    for kind in [0usize, 1] {
        let inst = scenario(kind, 7);
        for (name, cut) in [("NTP", 23u64), ("EATP", 41)] {
            // The never-interrupted reference run.
            let mut p0 = planner_by_name(name, &planner_cfg).unwrap();
            let mut whole = Engine::new(&inst, &cfg);
            whole.start(p0.as_mut());

            // The interrupted run: advance to `cut`, snapshot, resume.
            let mut p1 = planner_by_name(name, &planner_cfg).unwrap();
            let mut engine = Engine::new(&inst, &cfg);
            engine.start(p1.as_mut());
            while !engine.is_finished() && engine.current_tick() < cut {
                engine.tick_once(p1.as_mut());
                whole.tick_once(p0.as_mut());
            }
            let bytes = encode_snapshot(&engine.snapshot(p1.as_ref()));
            drop(engine);
            drop(p1);
            let data = decode_snapshot(&bytes).expect("snapshot must decode");
            let mut fresh = planner_by_name(name, &planner_cfg).unwrap();
            let mut resumed = resume_from(&data, fresh.as_mut()).expect("snapshot must resume");

            while !whole.is_finished() {
                whole.tick_once(p0.as_mut());
                resumed.tick_once(fresh.as_mut());
                assert_eq!(
                    whole.state_hash(),
                    resumed.state_hash(),
                    "{name} kind {kind}: rebuilt agenda diverged at tick {}",
                    whole.current_tick()
                );
            }
            assert!(
                resumed.is_finished(),
                "{name} kind {kind}: must finish in step"
            );
            let rw = whole.report(p0.as_mut());
            let rr = resumed.report(fresh.as_mut());
            assert!(rw.completed, "{name} kind {kind}: reference must finish");
            assert_eq!(
                rw.deterministic_fingerprint(),
                rr.deterministic_fingerprint(),
                "{name} kind {kind}: resumed fingerprint must match"
            );
        }
    }
}

/// (planner, scenario kind, scenario seed) tuples on clean and disrupted
/// floors: the fingerprint equals the dense loop's.
#[test]
fn event_driven_matches_dense() {
    check_section("clean", 128, |name, inst, _| {
        let mut p = planner_by_name(name, &EatpConfig::default()).unwrap();
        let report = run_simulation(inst, &mut *p, &EngineConfig::default());
        format!(
            "fp={:016x}",
            debug_hash(&report.deterministic_fingerprint())
        )
    });
}

/// The live-order regime under full command redelivery: fingerprints
/// *and* ack streams must match the dense loop's.
#[test]
fn event_driven_matches_dense_live_orders() {
    check_section("live", 128, |name, inst, key| {
        let stream = live_order_stream(inst, field(key, "orders"), 8);
        let cfg = EngineConfig::builder().live(true).build().unwrap();
        let mut p = planner_by_name(name, &EatpConfig::default()).unwrap();
        let mut engine = Engine::new(inst, &cfg);
        engine.start(p.as_mut());
        let mut acks = Vec::new();
        drive_live(&mut engine, p.as_mut(), &stream, &mut acks);
        let fp = debug_hash(&engine.report(p.as_mut()).deterministic_fingerprint());
        format!("fp={fp:016x} acks={:016x}", debug_hash(&acks))
    });
}
