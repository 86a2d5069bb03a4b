use super::test_support::small_instance;
use super::*;
use eatp_core::world::WorldView;
use eatp_core::{EatpConfig, EfficientAdaptiveTaskPlanner, NaiveTaskPlanner};
use tprw_warehouse::{Item, ItemId, LayoutConfig, ScenarioSpec, WorkloadConfig};

#[test]
fn ntp_completes_small_run() {
    let inst = small_instance(20, 42);
    let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
    let report = run_simulation(&inst, &mut planner, &EngineConfig::default());
    assert!(report.completed, "small run must finish");
    assert_eq!(report.items_processed, 20);
    assert_eq!(report.executed_conflicts, 0, "no conflicts ever");
    assert!(report.makespan > 0);
    assert!(report.rack_trips > 0);
    assert!(report.ppr > 0.0 && report.ppr <= 1.0);
    assert!(report.rwr > 0.0 && report.rwr <= 1.0);
}

#[test]
fn deterministic_given_seed() {
    let inst = small_instance(15, 7);
    let mut p1 = NaiveTaskPlanner::new(EatpConfig::default());
    let mut p2 = NaiveTaskPlanner::new(EatpConfig::default());
    let r1 = run_simulation(&inst, &mut p1, &EngineConfig::default());
    let r2 = run_simulation(&inst, &mut p2, &EngineConfig::default());
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.rack_trips, r2.rack_trips);
}

#[test]
fn checkpoints_are_monotone() {
    let inst = small_instance(30, 13);
    let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
    let report = run_simulation(&inst, &mut planner, &EngineConfig::default());
    assert!(!report.checkpoints.is_empty());
    for w in report.checkpoints.windows(2) {
        assert!(w[0].t <= w[1].t);
        assert!(w[0].items_processed <= w[1].items_processed);
        assert!(w[0].stc_s <= w[1].stc_s, "STC is cumulative");
        assert!(w[0].ptc_s <= w[1].ptc_s, "PTC is cumulative");
    }
}

#[test]
fn tick_budget_guards_livelock() {
    let inst = small_instance(20, 42);
    let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
    let config = EngineConfig::builder()
        .max_ticks(3) // absurdly small
        .build()
        .unwrap();
    let report = run_simulation(&inst, &mut planner, &config);
    assert!(!report.completed);
    assert!(report.items_processed < 20);
}

fn run_default(inst: &Instance) -> SimulationReport {
    let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
    run_simulation(inst, &mut planner, &EngineConfig::default())
}

#[test]
fn fleet_wide_breakdown_stalls_then_completes() {
    use tprw_warehouse::{DisruptionEvent, TimedEvent};
    let mut inst = small_instance(20, 42);
    let baseline = run_default(&inst);
    // Every robot fails at tick 5 and recovers at tick 400: nothing can
    // be picked up in between, so the run must outlast the outage yet
    // still complete with zero safety violations.
    for (i, _) in inst.robots.iter().enumerate() {
        inst.disruptions.push(TimedEvent {
            t: 5,
            event: DisruptionEvent::RobotBreakdown {
                robot: RobotId::new(i),
            },
        });
    }
    for (i, _) in inst.robots.iter().enumerate() {
        inst.disruptions.push(TimedEvent {
            t: 400,
            event: DisruptionEvent::RobotRecover {
                robot: RobotId::new(i),
            },
        });
    }
    let report = run_default(&inst);
    assert!(report.completed, "fleet must recover and finish");
    assert_eq!(report.items_processed, 20);
    assert_eq!(report.executed_conflicts, 0);
    assert_eq!(report.disruption_violations, 0);
    assert_eq!(report.events_applied, 2 * inst.robots.len());
    assert!(
        report.makespan > baseline.makespan.max(399),
        "outage must delay completion: {} vs baseline {}",
        report.makespan,
        baseline.makespan
    );
}

#[test]
fn station_outage_pauses_processing() {
    use tprw_warehouse::{DisruptionEvent, PickerId, TimedEvent};
    let mut inst = small_instance(20, 42);
    // All stations close before any item can be processed and reopen at
    // tick 300: no processing can finish earlier.
    for pi in 0..inst.pickers.len() {
        inst.disruptions.push(TimedEvent {
            t: 0,
            event: DisruptionEvent::StationClosed {
                picker: PickerId::new(pi),
            },
        });
    }
    for pi in 0..inst.pickers.len() {
        inst.disruptions.push(TimedEvent {
            t: 300,
            event: DisruptionEvent::StationReopened {
                picker: PickerId::new(pi),
            },
        });
    }
    let report = run_default(&inst);
    assert!(report.completed);
    assert_eq!(report.disruption_violations, 0);
    assert!(
        report.makespan > 300,
        "nothing can finish while every station is closed (makespan {})",
        report.makespan
    );
    // The bottleneck trace must show zero processing before reopening.
    for b in report.bottleneck.iter().filter(|b| b.t < 280) {
        assert_eq!(b.processing, 0, "processing during outage at t={}", b.t);
    }
}

#[test]
fn blockade_on_occupied_cell_defers_until_clear() {
    use tprw_warehouse::{DisruptionEvent, TimedEvent};
    let mut inst = small_instance(20, 42);
    // Blockade the spawn cell of robot 0 at tick 0 — occupied, so it
    // must defer until the robot departs, and no robot may ever stand
    // on it afterwards (pinned by disruption_violations == 0).
    let pos = inst.robots[0].pos;
    inst.disruptions.push(TimedEvent {
        t: 0,
        event: DisruptionEvent::CellBlocked { pos },
    });
    inst.disruptions.push(TimedEvent {
        t: 100_000,
        event: DisruptionEvent::CellUnblocked { pos },
    });
    let report = run_default(&inst);
    assert!(report.completed);
    assert_eq!(report.executed_conflicts, 0);
    assert_eq!(report.disruption_violations, 0);
    assert!(
        report.events_applied >= 1,
        "the deferred blockade must land once the spawn cell clears"
    );
    assert!(
        report.events_deferred >= 1,
        "the spawn cell is occupied at tick 0, so the blockade defers"
    );
}

#[test]
fn rack_removal_withholds_selection_until_restore() {
    use tprw_warehouse::{DisruptionEvent, TimedEvent};
    let mut inst = small_instance(20, 42);
    // Every rack leaves the floor before the first item can emerge and
    // returns at tick 300: no fulfilment cycle can *start* in between,
    // so completion must outlast the restoration, with zero violations
    // (the planner never names a removed rack). EATP's K-nearest lists
    // still hold every rack; its selection drops them through the
    // selectable set.
    for i in 0..inst.racks.len() {
        inst.disruptions.push(TimedEvent {
            t: 0,
            event: DisruptionEvent::RackRemoved {
                rack: RackId::new(i),
            },
        });
    }
    for i in 0..inst.racks.len() {
        inst.disruptions.push(TimedEvent {
            t: 300,
            event: DisruptionEvent::RackRestored {
                rack: RackId::new(i),
            },
        });
    }
    let planners: [Box<dyn Planner>; 2] = [
        Box::new(NaiveTaskPlanner::new(EatpConfig::default())),
        Box::new(EfficientAdaptiveTaskPlanner::new(EatpConfig::default())),
    ];
    for mut planner in planners {
        let report = run_simulation(&inst, planner.as_mut(), &EngineConfig::default());
        let name = planner.name();
        assert!(
            report.completed,
            "{name}: restoration must unblock the floor"
        );
        assert_eq!(report.items_processed, 20, "{name}");
        assert_eq!(report.disruption_violations, 0, "{name}");
        assert_eq!(report.events_applied, 2 * inst.racks.len(), "{name}");
        assert!(
            report.makespan > 300,
            "{name}: nothing can be fetched while every rack is removed (makespan {})",
            report.makespan
        );
    }
}

#[test]
fn rack_removal_defers_while_in_flight() {
    use tprw_warehouse::{DisruptionEvent, TimedEvent};
    let inst = small_instance(20, 42);
    // Find a tick at which some rack is in flight on the clean run, then
    // schedule its removal exactly then: the removal must defer until
    // the robot brings the rack home, and the run still completes with
    // every item served (the in-flight batch is never lost).
    let baseline = run_default(&inst);
    assert!(baseline.rack_trips > 0);
    let mut disrupted = inst.clone();
    // Rack trips exist, so some rack is in flight in the first half of
    // the run; removing *all* racks mid-run guarantees at least one
    // removal hits an in-flight rack and must defer.
    let mid = baseline.makespan / 2;
    for i in 0..disrupted.racks.len() {
        disrupted.disruptions.push(TimedEvent {
            t: mid,
            event: DisruptionEvent::RackRemoved {
                rack: RackId::new(i),
            },
        });
    }
    for i in 0..disrupted.racks.len() {
        disrupted.disruptions.push(TimedEvent {
            t: mid + 200,
            event: DisruptionEvent::RackRestored {
                rack: RackId::new(i),
            },
        });
    }
    let report = run_default(&disrupted);
    assert!(report.completed);
    assert_eq!(report.items_processed, 20, "in-flight batches survive");
    assert_eq!(report.disruption_violations, 0);
    assert_eq!(report.executed_conflicts, 0);
    assert_eq!(
        report.events_applied,
        2 * disrupted.racks.len(),
        "every removal eventually lands (deferred ones included)"
    );
    assert!(
        report.events_deferred > 0,
        "some rack must have been in flight mid-run, so the deferral \
         path must actually run"
    );
}

#[test]
fn terminal_rack_removal_is_legal_and_run_completes_when_demand_allows() {
    use tprw_warehouse::{DisruptionEvent, TimedEvent};
    let mut inst = small_instance(6, 42);
    // Find a rack that never receives an item, remove it forever (no
    // paired restore — legal per the events module's terminal rule):
    // the run must validate and complete with every item served.
    let demanded: std::collections::HashSet<usize> =
        inst.items.iter().map(|i| i.rack.index()).collect();
    let idle_rack = (0..inst.racks.len())
        .find(|i| !demanded.contains(i))
        .expect("some rack has no demand at 6 items over 10 racks");
    inst.disruptions.push(TimedEvent {
        t: 3,
        event: DisruptionEvent::RackRemoved {
            rack: RackId::new(idle_rack),
        },
    });
    inst.validate()
        .expect("terminal removal is a legal schedule");
    let report = run_default(&inst);
    assert!(report.completed, "no demand on the removed rack");
    assert_eq!(report.items_processed, 6);
    assert_eq!(report.disruption_violations, 0);
    assert_eq!(report.events_applied, 1);

    // Removing a *demanded* rack forever keeps the run safe but
    // incomplete: its items can never be fulfilled (the documented
    // workload caveat of the terminal rule).
    let mut starved = small_instance(6, 42);
    let victim = *demanded.iter().min().unwrap();
    starved.disruptions.push(TimedEvent {
        t: 0,
        event: DisruptionEvent::RackRemoved {
            rack: RackId::new(victim),
        },
    });
    starved.validate().unwrap();
    let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
    let config = EngineConfig::builder().max_ticks(2_000).build().unwrap();
    let report = run_simulation(&starved, &mut planner, &config);
    assert!(!report.completed, "starved demand cannot complete");
    assert!(report.items_processed < 6);
    assert_eq!(report.disruption_violations, 0, "still safe");
}

#[test]
fn disrupted_run_is_deterministic() {
    use tprw_warehouse::DisruptionConfig;
    let spec = ScenarioSpec {
        name: "engine-disrupted".into(),
        layout: LayoutConfig::sized(24, 16),
        n_racks: 10,
        n_robots: 4,
        n_pickers: 2,
        workload: WorkloadConfig::poisson(25, 0.5),
        disruptions: Some(DisruptionConfig {
            breakdowns: 2,
            breakdown_ticks: (30, 80),
            blockades: 2,
            blockade_ticks: (40, 90),
            closures: 1,
            closure_ticks: (30, 60),
            removals: 2,
            removal_ticks: (30, 60),
            window: (10, 120),
        }),
        seed: 7,
    };
    let inst = spec.build().unwrap();
    assert!(!inst.disruptions.is_empty());
    let r1 = run_default(&inst);
    let r2 = run_default(&spec.build().unwrap());
    assert!(r1.completed);
    assert_eq!(r1.disruption_violations, 0);
    assert_eq!(
        r1.deterministic_fingerprint(),
        r2.deterministic_fingerprint(),
        "same spec + seed must replay bit-identically"
    );
    assert!(r1.events_applied > 0);
}

#[test]
fn bottleneck_trace_covers_run() {
    let inst = small_instance(25, 99);
    let mut planner = NaiveTaskPlanner::new(EatpConfig::default());
    let report = run_simulation(&inst, &mut planner, &EngineConfig::default());
    assert!(!report.bottleneck.is_empty());
    let total: u64 = report
        .bottleneck
        .iter()
        .map(|b| b.transport + b.queuing + b.processing)
        .sum();
    assert!(total > 0, "robots did spend time in the cycle");
}

/// A planner that drives robots into conflicts on purpose: two robots
/// enter one cell on the same tick, two swap cells, and the first two
/// return legs end on one cell, the first after standing there for a
/// while. Every leg walks an L-shaped route from where its robot
/// stands.
struct CollidingPlanner {
    planned: bool,
    /// The cell each robot's latest path ends on.
    ends: std::collections::HashMap<RobotId, GridPos>,
    returns_planned: usize,
}

/// The cell where both of the first two return legs end.
const SHARED_HOME: GridPos = GridPos::new(20, 12);

impl CollidingPlanner {
    /// A path from `from` starting at `start` that waits in place, walks
    /// an L-shaped route to `to` so as to stand there at tick `at`
    /// (`None`: as early as possible), then visits `then` one cell per
    /// tick.
    fn walk(
        &mut self,
        robot: RobotId,
        start: Tick,
        from: GridPos,
        to: GridPos,
        at: Option<Tick>,
        then: &[GridPos],
    ) -> Path {
        let mut route = vec![from];
        let mut p = from;
        while p.x != to.x {
            p.x = if p.x < to.x { p.x + 1 } else { p.x - 1 };
            route.push(p);
        }
        while p.y != to.y {
            p.y = if p.y < to.y { p.y + 1 } else { p.y - 1 };
            route.push(p);
        }
        let waits = at.map_or(0, |at| (at - start) as usize + 1 - route.len());
        let mut cells = vec![from; waits];
        cells.extend(route);
        cells.extend_from_slice(then);
        let path = Path { start, cells };
        self.ends.insert(robot, path.last());
        path
    }
}

impl Planner for CollidingPlanner {
    fn name(&self) -> &'static str {
        "COLLIDE"
    }

    fn init(&mut self, _instance: &Instance) {}

    fn plan(
        &mut self,
        world: &WorldView<'_>,
    ) -> Result<Vec<eatp_core::planner::AssignmentPlan>, eatp_core::planner::PlannerError> {
        if self.planned {
            return Ok(Vec::new());
        }
        self.planned = true;
        let p = GridPos::new;
        // (approach cell, then): robots 0 and 1 both step onto (11, 8)
        // at tick 41; robots 2 and 3 swap (5, 3) and (6, 3) at 40 → 41.
        let script = [
            (p(10, 8), vec![p(11, 8), p(12, 8)]),
            (p(11, 7), vec![p(11, 8), p(11, 9)]),
            (p(5, 3), vec![p(6, 3)]),
            (p(6, 3), vec![p(5, 3)]),
        ];
        let mut plans = Vec::new();
        for ((&robot, &rack), (to, then)) in world
            .idle_robots
            .iter()
            .zip(world.selectable_racks)
            .zip(script)
        {
            let from = world.robots[robot.index()].pos;
            let path = self.walk(robot, world.t, from, to, Some(40), &then);
            plans.push(eatp_core::planner::AssignmentPlan { robot, rack, path });
        }
        Ok(plans)
    }

    fn plan_leg(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park: bool,
    ) -> Option<Path> {
        if !park {
            let here = self.ends[&robot];
            return Some(self.walk(robot, start, here, to, None, &[]));
        }
        self.returns_planned += 1;
        Some(match self.returns_planned {
            1 => self.walk(robot, start, from, SHARED_HOME, None, &[SHARED_HOME; 30]),
            2 => self.walk(robot, start, from, SHARED_HOME, None, &[]),
            _ => self.walk(robot, start, from, to, None, &[]),
        })
    }

    fn on_dock(&mut self, _robot: RobotId) {}

    fn housekeeping(&mut self, _t: Tick) {}

    fn stats(&self) -> eatp_core::PlannerStats {
        eatp_core::PlannerStats::default()
    }
}

/// The engine records executed conflicts exactly as the seed check (the
/// `cfg(test)` reference) does over the same per-tick positions:
/// conflicts while moving, a swap, and a vertex conflict between robots
/// standing still, counted once per tick it lasts.
#[test]
fn executed_conflicts_match_the_seed_check() {
    let mut inst = small_instance(4, 42);
    inst.items = (0..4)
        .map(|i| Item {
            id: ItemId::new(i),
            rack: RackId::new(i),
            arrival: 0,
            processing: 2,
        })
        .collect();
    let mut planner = CollidingPlanner {
        planned: false,
        ends: std::collections::HashMap::new(),
        returns_planned: 0,
    };
    let config = EngineConfig::builder().max_ticks(500).build().unwrap();
    let mut engine = Engine::new(&inst, &config);
    engine.start(&mut planner);
    let mut seed = crate::validate::reference::SeedValidator::default();
    while !engine.is_finished() {
        let t = engine.current_tick();
        engine.tick_once(&mut planner);
        let positions: Vec<(RobotId, GridPos)> = engine
            .export_state()
            .robots
            .iter()
            .filter(|r| !is_docked(r.phase))
            .map(|r| (r.id, r.pos))
            .collect();
        seed.check_tick(t, &positions);
    }
    assert_eq!(engine.export_state().validator.conflicts, seed.conflicts);
    let report = engine.report(&mut planner);
    assert!(report.completed, "every scripted cycle finishes");
    assert_eq!(report.executed_conflicts, seed.conflicts.len());

    use tprw_pathfinding::Conflict;
    let at = |cell: GridPos| {
        seed.conflicts
            .iter()
            .filter(|c| matches!(c, Conflict::Vertex { pos, .. } if *pos == cell))
            .count()
    };
    assert!(
        at(GridPos::new(11, 8)) >= 1,
        "two robots step onto one cell"
    );
    assert!(
        seed.conflicts
            .iter()
            .any(|c| matches!(c, Conflict::Edge { t: 40, .. })),
        "two robots swap"
    );
    assert!(
        at(SHARED_HOME) >= 3,
        "two robots stand on one cell for several ticks"
    );
}
