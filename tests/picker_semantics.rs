//! End-to-end semantics of the fulfilment cycle: FIFO picker service,
//! conservation of work, and the end-to-end makespan accounting.

use eatp::core::{planner_by_name, EatpConfig};
use eatp::simulator::{run_simulation, BottleneckSample, Engine, EngineConfig};
use eatp::warehouse::{
    DisruptionConfig, DisruptionFlags, LayoutConfig, RobotPhase, ScenarioSpec, WorkloadConfig,
};

fn spec(items: usize, rate: f64, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "semantics".into(),
        layout: LayoutConfig::sized(28, 20),
        n_racks: 12,
        n_robots: 4,
        n_pickers: 2,
        workload: WorkloadConfig::poisson(items, rate),
        disruptions: None,
        seed,
    }
}

#[test]
fn makespan_bounds_hold() {
    // M must be at least: the last arrival, and the serial processing floor
    // work/(pickers·1.0); and at most the engine's livelock cap.
    let inst = spec(60, 0.5, 12).build().unwrap();
    let work = inst.total_work();
    let mut planner = planner_by_name("NTP", &EatpConfig::default()).unwrap();
    let report = run_simulation(&inst, &mut *planner, &EngineConfig::default());
    assert!(report.completed);
    assert!(
        report.makespan >= inst.last_arrival(),
        "cannot finish before the last item emerges"
    );
    assert!(
        report.makespan >= work / inst.pickers.len() as u64,
        "cannot beat aggregate picker capacity"
    );
}

#[test]
fn ppr_and_rwr_are_rates() {
    for seed in [1u64, 2, 3] {
        let inst = spec(40, 0.8, seed).build().unwrap();
        let mut planner = planner_by_name("EATP", &EatpConfig::default()).unwrap();
        let report = run_simulation(&inst, &mut *planner, &EngineConfig::default());
        assert!(report.completed);
        assert!(report.ppr > 0.0 && report.ppr <= 1.0, "PPR={}", report.ppr);
        assert!(report.rwr > 0.0 && report.rwr <= 1.0, "RWR={}", report.rwr);
        assert!(
            report.rwr <= report.robot_busy_rate,
            "picking time is a subset of busy time"
        );
    }
}

#[test]
fn processing_conservation() {
    // Total picker busy time equals total item processing time: FIFO
    // service is work-conserving and nothing is processed twice.
    let inst = spec(50, 0.7, 9).build().unwrap();
    let work = inst.total_work();
    let mut planner = planner_by_name("ATP", &EatpConfig::default()).unwrap();
    let report = run_simulation(&inst, &mut *planner, &EngineConfig::default());
    assert!(report.completed);
    // ppr = total_busy / (P * M)  =>  total_busy = ppr * P * M
    let total_busy = report.ppr * inst.pickers.len() as f64 * report.makespan as f64;
    let diff = (total_busy - work as f64).abs();
    assert!(
        diff < 1.0,
        "picker busy {total_busy} != total work {work} (diff {diff})"
    );
}

#[test]
fn batch_factor_definition() {
    let inst = spec(45, 0.6, 4).build().unwrap();
    let mut planner = planner_by_name("NTP", &EatpConfig::default()).unwrap();
    let report = run_simulation(&inst, &mut *planner, &EngineConfig::default());
    assert!(report.completed);
    let expected = report.items_processed as f64 / report.rack_trips as f64;
    assert!((report.batch_factor - expected).abs() < 1e-9);
    assert!(report.batch_factor >= 1.0, "every trip carries >= 1 item");
}

#[test]
fn bottleneck_accounts_all_busy_robot_time() {
    // Count, at every tick boundary, the busy robots and the robots whose
    // rack an open station is processing, straight from the engine state;
    // the Fig. 13 series must hold exactly those robot-ticks, and RWR and
    // the busy rate must be them over the fleet's robot-ticks. Station
    // outages pause racks mid-processing, which count as busy, not as
    // processing.
    let mut spec = spec(40, 0.6, 6);
    spec.disruptions = Some(DisruptionConfig {
        window: (10, 120),
        closures: 2,
        closure_ticks: (30, 60),
        ..DisruptionConfig::none()
    });
    let inst = spec.build().unwrap();
    let mut planner = planner_by_name("NTP", &EatpConfig::default()).unwrap();
    let mut engine = Engine::new(&inst, &EngineConfig::default());
    engine.start(planner.as_mut());
    let (mut busy, mut processing, mut paused) = (0u64, 0u64, 0u64);
    while !engine.is_finished() {
        engine.tick_once(planner.as_mut());
        let state = engine.export_state();
        // The closed stations are the journal's fold.
        let (robots, pickers, racks) = (inst.robots.len(), inst.pickers.len(), inst.racks.len());
        let mut flags = DisruptionFlags::new(&inst.grid, robots, pickers, racks);
        flags.fold(state.journal.iter().map(|e| e.event)).unwrap();
        for robot in &state.robots {
            busy += u64::from(robot.phase.is_busy());
            if let RobotPhase::Processing { rack } = robot.phase {
                let closed = flags.closed[state.racks[rack.index()].picker.index()];
                processing += u64::from(!closed);
                paused += u64::from(closed);
            }
        }
    }
    let report = engine.report(planner.as_mut());
    assert!(report.completed);
    assert!(paused > 0, "an outage paused a rack mid-processing");
    let series = |stage: fn(&BottleneckSample) -> u64| report.bottleneck.iter().map(stage).sum();
    let bucketed: u64 = series(|b| b.transport + b.queuing + b.processing);
    assert_eq!(bucketed, busy, "busy robot-ticks");
    assert_eq!(
        series(|b| b.processing),
        processing,
        "processing robot-ticks"
    );
    let fleet_ticks = inst.robots.len() as f64 * report.makespan as f64;
    assert_eq!(report.robot_busy_rate, busy as f64 / fleet_ticks);
    assert_eq!(report.rwr, processing as f64 / fleet_ticks);
}

#[test]
fn checkpoint_count_is_at_most_ten() {
    let inst = spec(40, 0.6, 8).build().unwrap();
    let mut planner = planner_by_name("NTP", &EatpConfig::default()).unwrap();
    let report = run_simulation(&inst, &mut *planner, &EngineConfig::default());
    assert!(report.completed);
    // One checkpoint per tenth of the order book (the paper plots 10); a
    // tick that crosses several tenths records one.
    assert!(
        report.checkpoints.len() <= 10,
        "got {} checkpoints",
        report.checkpoints.len()
    );
    assert!(!report.checkpoints.is_empty());
    let last = report.checkpoints.last().unwrap();
    assert_eq!(last.items_processed, 40, "final checkpoint sees all items");
}
