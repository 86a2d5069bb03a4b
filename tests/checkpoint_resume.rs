//! Corruption never panics: random single-bit flips and truncations of a
//! valid snapshot always surface as a typed [`SnapshotError`]; the decoder
//! must never panic or return a mangled snapshot as `Ok` (see
//! `docs/snapshot-format.md`). That a snapshot resumes to the uncut run's
//! end is the lattice's contract (`tests/lattice.rs`).
//!
//! `PROPTEST_CASES` scales the soak (default 64 cases per property).

use std::sync::OnceLock;

use eatp::core::{planner_by_name, EatpConfig};
use eatp::simulator::{decode_snapshot, encode_snapshot, Engine, EngineConfig};
use proptest::prelude::*;

mod common;
use common::lattice::floor;

/// One valid mid-run snapshot's encoded bytes, built once for the whole
/// corruption soak (the mutations are the random part, not the payload).
fn valid_snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let inst = floor(1, 9);
        let cfg = EngineConfig::default();
        let mut planner = planner_by_name("EATP", &EatpConfig::default()).unwrap();
        let mut engine = Engine::new(&inst, &cfg);
        engine.start(&mut *planner);
        for _ in 0..60 {
            engine.tick_once(&mut *planner);
        }
        encode_snapshot(&engine.snapshot(&*planner))
    })
}

proptest! {
    /// A single bit flip anywhere in a valid snapshot is always caught as
    /// a typed error — the header checks or the payload CRC must trip, and
    /// nothing may panic.
    #[test]
    fn bit_flips_yield_typed_errors(
        byte in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let mut bytes = valid_snapshot_bytes().to_vec();
        let i = byte % bytes.len();
        bytes[i] ^= 1u8 << bit;
        let result = decode_snapshot(&bytes);
        prop_assert!(
            result.is_err(),
            "flipping bit {} of byte {} must not decode cleanly",
            bit, i
        );
    }

    /// Every proper prefix of a valid snapshot fails to decode with a
    /// typed error (truncated header, truncated payload, or a payload the
    /// CRC rejects) — and never panics.
    #[test]
    fn truncations_yield_typed_errors(cut in 0usize..1_000_000) {
        let bytes = valid_snapshot_bytes();
        let len = cut % bytes.len();
        let result = decode_snapshot(&bytes[..len]);
        prop_assert!(
            result.is_err(),
            "a {}-byte prefix of a {}-byte snapshot must not decode",
            len, bytes.len()
        );
    }
}
