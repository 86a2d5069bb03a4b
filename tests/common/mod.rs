//! Scenarios, the bit-identity lattice and golden-file plumbing shared by
//! the integration tests. Each test binary compiles this module and uses
//! only part of it.
#![allow(dead_code)]

use eatp::warehouse::{DisruptionConfig, Instance, LayoutConfig, ScenarioSpec, WorkloadConfig};
use std::collections::BTreeMap;
use std::sync::Mutex;

pub mod lattice;
pub mod scenarios;

use lattice::{agree, run, Feed, Point};

/// A walled mid-size floor hit by all four disruption kinds at once.
pub fn disrupted_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("disrupted-{seed}"),
        layout: LayoutConfig {
            width: 32,
            height: 24,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 16,
        n_robots: 8,
        n_pickers: 3,
        workload: WorkloadConfig::poisson(60, 0.7),
        disruptions: Some(DisruptionConfig {
            breakdowns: 3,
            breakdown_ticks: (60, 140),
            blockades: 3,
            blockade_ticks: (80, 160),
            closures: 1,
            closure_ticks: (60, 120),
            removals: 2,
            removal_ticks: (60, 140),
            window: (20, 260),
        }),
        seed,
    }
}

/// The rows of the table each golden file is rewritten to, as far as this
/// process has recomputed them (tests walking one file run in parallel).
static ACTUAL: Mutex<BTreeMap<&str, Vec<String>>> = Mutex::new(BTreeMap::new());

/// Checks the `rows` rows of `golden`, the `include_str!`-ed
/// `results/<file>`, that start with `prefix`: `actual` maps each golden
/// row to the row this build produces for the same key. On a mismatch
/// the table with the actual rows in place lands in `target/tmp/<file>`,
/// so an intended behaviour change regenerates the golden file with one
/// `cp`.
pub fn check_golden(
    file: &'static str,
    golden: &'static str,
    prefix: &str,
    rows: usize,
    actual: impl Fn(&'static str) -> String,
) {
    let mut seen = 0;
    let mut diverged = Vec::new();
    for (i, row) in golden.lines().enumerate() {
        if row.starts_with(prefix) {
            seen += 1;
            let produced = actual(row);
            if produced != row {
                diverged.push((i, produced));
            }
        }
    }
    assert_eq!(seen, rows, "`{prefix}` rows in results/{file}");
    if diverged.is_empty() {
        return;
    }
    let path = format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"));
    {
        let mut tables = ACTUAL.lock().expect("released before the panic below");
        let table = tables
            .entry(file)
            .or_insert_with(|| golden.lines().map(String::from).collect());
        for (i, produced) in &diverged {
            table[*i] = produced.clone();
        }
        std::fs::write(&path, table.join("\n") + "\n").expect("write the actual rows");
    }
    let lines: Vec<usize> = diverged.iter().map(|(i, _)| i + 1).collect();
    panic!(
        "{} of {seen} `{prefix}` rows diverged from results/{file}, at lines {lines:?}\n\
         the table with the actual rows written to {path}",
        lines.len()
    );
}

/// Checks a golden file of `"<world> <planner> {fingerprint:?}"` rows:
/// the pregenerated run of each row's planner on `world(<world>)` must
/// pass the lattice property and reproduce the recorded fingerprint.
pub fn check_fingerprints(
    file: &'static str,
    golden: &'static str,
    rows: usize,
    world: impl Fn(&str) -> Instance,
) {
    check_golden(file, golden, "", rows, |row| {
        let mut key = row.split(' ');
        let (name, planner) = (key.next().unwrap(), key.next().unwrap());
        let outcome = run(&world(name), Point::new(planner, Feed::Pregenerated));
        agree(std::slice::from_ref(&outcome)).unwrap();
        format!("{name} {planner} {:?}", outcome.fingerprint)
    });
}
