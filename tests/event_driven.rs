//! The tick loop's skip proofs, checked against the dense loop's verdict
//! (see `docs/event-driven-ticking.md`): every phase early-outs when the
//! agenda proves the full scan a no-op, and a run must stay
//! **bit-identical** to one that scanned every robot, rack and picker
//! every tick.
//!
//! The dense loop is deleted (`docs/adr/ADR-007-one-tick-loop.md`); its
//! verdict is `results/fingerprints_event_driven.txt`, recorded by running
//! these lattice corners through it at the last commit that had it, one
//! row per run: `<section> <planner> kind=.. seed=.. [orders=..] ->
//! fp=<FNV-1a-64 of the Debug-printed fingerprint> ...`.
//!
//! * **`lockstep`** — every planner on clean and disrupted floors: tick
//!   count and an FNV fold of the canonical `state_hash()` at *every* tick
//!   boundary, not just the final fingerprint.
//! * **`clean` / `live`** — the 128 (planner, floor kind, world seed[,
//!   order seed]) tuples per regime the retired proptests drew; live rows
//!   add a hash of the ack stream.
//!
//! `state_hash()` hashes the snapshot encoding of `EngineState`, so a
//! snapshot-schema change moves the `states=` column of the `lockstep`
//! rows and nothing else: regenerate only that column, and let the `fp=`
//! column (which it cannot move) be the guard that behaviour held.

mod common;
use common::check_golden;
use common::lattice::{agree, floor, run, Feed, Outcome, Point};

/// One row per run, as recorded by the dense loop.
const GOLDEN: &str = include_str!("../results/fingerprints_event_driven.txt");

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

/// Checks the `section` rows of [`GOLDEN`]: each row's key names a lattice
/// point (`point` gets the planner name and the key), whose run must pass
/// the lattice property and render, through `verdict`, as the dense
/// loop's did.
fn check_section(
    section: &str,
    rows: usize,
    point: impl Fn(&'static str, &str) -> Point,
    verdict: impl Fn(&Outcome) -> String,
) {
    check_golden(
        "fingerprints_event_driven.txt",
        GOLDEN,
        &format!("{section} "),
        rows,
        |row| {
            let key = row.split(" -> ").next().expect("`<key> -> <verdict>` rows");
            let planner = key.split(' ').nth(1).expect("planner name");
            let world = floor(field(key, "kind") as usize, field(key, "seed"));
            let outcome = run(&world, point(planner, key));
            agree(std::slice::from_ref(&outcome)).unwrap();
            format!("{key} -> {}", verdict(&outcome))
        },
    );
}

/// Every planner, clean and disrupted floors: the engine must reproduce
/// the dense loop's canonical state hash at every tick boundary (folded),
/// its tick count and its fingerprint. The fold catches a divergence the
/// final fingerprint would absorb.
#[test]
fn event_driven_locksteps_dense_state_hashes() {
    check_section(
        "lockstep",
        15,
        |planner, _| Point {
            lockstep: true,
            ..Point::new(planner, Feed::Pregenerated)
        },
        |run| {
            let states = run.trace.states.as_deref().expect("a lockstep run");
            let (fp, ticks) = (debug_hash(&run.fingerprint), states.len());
            let states: Vec<u8> = states.iter().flat_map(|h| h.to_le_bytes()).collect();
            format!("fp={fp:016x} ticks={ticks} states={:016x}", fnv1a(&states))
        },
    );
}

/// (planner, floor kind, world seed) tuples on clean and disrupted floors:
/// the fingerprint equals the dense loop's.
#[test]
fn event_driven_matches_dense() {
    check_section(
        "clean",
        128,
        |planner, _| Point::new(planner, Feed::Pregenerated),
        |run| format!("fp={:016x}", debug_hash(&run.fingerprint)),
    );
}

/// The live-order regime under full command redelivery: fingerprints
/// *and* ack streams must match the dense loop's.
#[test]
fn event_driven_matches_dense_live_orders() {
    check_section(
        "live",
        128,
        |planner, key| Point::new(planner, Feed::Extra(field(key, "orders"))),
        |run| {
            let (fp, acks) = (debug_hash(&run.fingerprint), debug_hash(&run.trace.acks));
            format!("fp={fp:016x} acks={acks:016x}")
        },
    );
}
