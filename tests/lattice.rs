//! The bit-identity contract, stated once: slices of the lattice of
//! `tests/common/lattice.rs`, each run through its one runner and checked
//! by its one property, `agree` — the runs complete safely, acknowledge
//! every live order once, and runs of one world that receive the same
//! orders agree on the fingerprint, the ack stream and the final state.
//!
//! `PROPTEST_CASES` scales the soak (default 64 cases per property).

use eatp::core::{planner_by_name, EatpConfig, PLANNER_NAMES};
use eatp::simulator::{decode_snapshot, encode_snapshot, resume_from, Engine};
use eatp::warehouse::{DisruptionEvent, GridPos, Tick, TimedEvent};
use proptest::prelude::*;

mod common;
use common::lattice::{agree, floor, paper_floor, run, Enqueue, Feed, Point, FLOORS};

proptest! {
    /// Pregenerated orders: a run replays bit-identically, and a snapshot
    /// at a random fraction of its makespan, resumed with a fresh planner,
    /// ends where the uncut run does.
    #[test]
    fn pregenerated_runs_replay_and_resume(
        planner in 0usize..5,
        kind in 0usize..FLOORS,
        seed in 0u64..10_000,
        frac in 0.05f64..0.95,
    ) {
        let world = floor(kind, seed);
        let point = Point::new(PLANNER_NAMES[planner], Feed::Pregenerated);
        let uncut = run(&world, point);
        let at = ((uncut.fingerprint.makespan as f64 * frac) as Tick).max(1);
        let replay = run(&world, point);
        agree(&[uncut, replay, run(&world, Point { cut: Some(at), ..point })])?;
    }

    /// The item list resent as live orders runs as the pregenerated list
    /// does, whatever order the batch is enqueued in.
    #[test]
    fn resent_item_lists_match_pregenerated(
        planner in 0usize..5,
        kind in 0usize..FLOORS,
        seed in 0u64..10_000,
    ) {
        let world = floor(kind, seed);
        let feeds = [
            Feed::Pregenerated,
            Feed::Resent(Enqueue::Sorted),
            Feed::Resent(Enqueue::Reversed),
            Feed::Resent(Enqueue::Interleaved),
        ];
        let point = |feed| Point { pinned: true, ..Point::new(PLANNER_NAMES[planner], feed) };
        agree(&feeds.map(|feed| run(&world, point(feed))))?;
    }

    /// A snapshot taken while the item list is still trickling in, resumed
    /// with the whole stream redelivered, ends where the uncut run does:
    /// the sequence cursor skips the applied prefix.
    #[test]
    fn trickled_orders_resume_mid_stream(
        planner in 0usize..5,
        kind in 0usize..FLOORS,
        seed in 0u64..10_000,
        cut in 1u64..40,
    ) {
        let world = floor(kind, seed);
        let point = Point { pinned: true, ..Point::new(PLANNER_NAMES[planner], Feed::Trickled) };
        agree(&[run(&world, point), run(&world, Point { cut: Some(cut), ..point })])?;
    }

    /// Extra live orders on top of the pregenerated workload, redelivered
    /// every tick: the run replays, and resumes mid-ingestion, bit for bit.
    #[test]
    fn live_orders_replay_and_resume(
        planner in 0usize..5,
        kind in 0usize..FLOORS,
        seed in 0u64..10_000,
        order_seed in 0u64..10_000,
        cut in 5u64..120,
    ) {
        let world = floor(kind, seed);
        let point = Point::new(PLANNER_NAMES[planner], Feed::Extra(order_seed));
        let (uncut, replay) = (run(&world, point), run(&world, point));
        agree(&[uncut, replay, run(&world, Point { cut: Some(cut), ..point })])?;
    }
}

/// The wake agenda is derived state and not in the snapshot: a run
/// resumed mid-flight must rebuild an agenda that locksteps the uncut
/// run's state hash at every tick to the end.
#[test]
fn agenda_reconstruction_matches_fresh() {
    for kind in [0, 1] {
        let world = floor(kind, 7);
        for (planner, cut) in [("NTP", 23), ("EATP", 41)] {
            let mut point = Point::new(planner, Feed::Pregenerated);
            point.lockstep = true;
            let uncut = run(&world, point);
            point.cut = Some(cut);
            agree(&[uncut, run(&world, point)]).unwrap();
        }
    }
}

/// A blockade reaches a resumed planner only through the journal replay.
/// On `floor(1, 1)` the cell (18, 15) is blocked at tick 46, and after a
/// cut at tick 50 every planner plans a leg that would cross it if the
/// resumed planner did not know of it: each must resume to the uncut run.
#[test]
fn blockade_live_at_the_cut_reaches_the_resumed_planner() {
    let world = floor(1, 1);
    let blockade = TimedEvent {
        t: 46,
        event: DisruptionEvent::CellBlocked {
            pos: GridPos::new(18, 15),
        },
    };
    assert!(
        world.disruptions.contains(&blockade),
        "the corner's blockade moved"
    );
    for planner in PLANNER_NAMES {
        let point = Point::new(planner, Feed::Pregenerated);
        agree(&[
            run(&world, point),
            run(
                &world,
                Point {
                    cut: Some(50),
                    ..point
                },
            ),
        ])
        .unwrap();
    }
}

/// The contract at the benchmark's scale: on the paper floor every planner
/// at seed 7, and EATP at seed 92, resumes from cuts at ticks 137, 400 and
/// 777 to the uncut run, and EATP's item list resent live and cut at 400
/// runs as the pregenerated list does. A release soak (about 25 runs of
/// 500 robots); debug builds skip it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_floor_resumes_at_scale() {
    let cuts = [137, 400, 777];
    let worlds = [(7, &PLANNER_NAMES[..]), (92, &["EATP"][..])];
    for (seed, planners) in worlds {
        let world = paper_floor(seed);
        for &planner in planners {
            let point = Point::new(planner, Feed::Pregenerated);
            let uncut = run(&world, point);
            assert!(
                uncut.fingerprint.makespan > cuts[2],
                "{planner} at seed {seed}: the last cut lands after the run"
            );
            let mut runs = vec![uncut];
            runs.extend(cuts.map(|cut| {
                run(
                    &world,
                    Point {
                        cut: Some(cut),
                        ..point
                    },
                )
            }));
            agree(&runs).unwrap();
        }
    }
    let world = paper_floor(7);
    let pinned = |feed| Point {
        pinned: true,
        ..Point::new("EATP", feed)
    };
    let resent = Point {
        cut: Some(400),
        ..pinned(Feed::Resent(Enqueue::Sorted))
    };
    agree(&[run(&world, pinned(Feed::Pregenerated)), run(&world, resent)]).unwrap();
}

/// Every state a run reaches is one resume accepts: on every floor kind at
/// seeds 0..5, for every planner, the snapshot at each tick boundary up to
/// tick 3 000 goes through the byte format and `resume_from` returns `Ok`.
/// This is the other half of resume's refusals, which must reject only
/// states no run holds. A release soak (44 871 states, ~6 s); debug builds
/// skip it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_reached_state_resumes() {
    let make = |name| planner_by_name(name, &EatpConfig::default()).unwrap();
    let mut states = 0;
    for kind in 0..FLOORS {
        for seed in 0..5 {
            let world = floor(kind, seed);
            for planner in PLANNER_NAMES {
                let config = Point::new(planner, Feed::Pregenerated).config();
                let mut p = make(planner);
                let mut engine = Engine::new(&world, &config);
                engine.start(p.as_mut());
                while !engine.is_finished() && engine.current_tick() < 3_000 {
                    engine.tick_once(p.as_mut());
                    let bytes = encode_snapshot(&engine.snapshot(p.as_ref()));
                    let data = decode_snapshot(&bytes).unwrap();
                    if let Err(err) = resume_from(&world, &data, make(planner).as_mut()) {
                        let t = engine.current_tick();
                        panic!("{planner} on floor {kind} at seed {seed}, tick {t}: {err}");
                    }
                    states += 1;
                }
            }
        }
    }
    assert!(states > 40_000, "only {states} states");
}
