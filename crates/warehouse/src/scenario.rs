//! Scenario specification and instance construction.
//!
//! A [`ScenarioSpec`] fully describes a TPRW problem input: the layout, the
//! entity counts and the item workload. [`ScenarioSpec::build`] expands it
//! deterministically (given the seed) into an [`Instance`] — the initial
//! world state plus the full arrival-ordered item stream that the simulator
//! replays online.

use crate::entities::{Item, Picker, Rack, Robot};
use crate::error::WarehouseError;
use crate::events::{validate_events, DisruptionConfig, TimedEvent};
use crate::geometry::GridPos;
use crate::grid::{CellKind, GridMap};
use crate::ids::{PickerId, RackId, RobotId, MAX_FLEET};
use crate::layout::{Layout, LayoutConfig};
use crate::workload::{self, generate_items, sample_without_replacement, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A fully specified, reproducible scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (e.g. `"Syn-A"`).
    pub name: String,
    /// Layout parameters.
    pub layout: LayoutConfig,
    /// Number of racks to place (Table II's `#Rack`).
    pub n_racks: usize,
    /// Number of robots (Table II's `#Robot`).
    pub n_robots: usize,
    /// Number of pickers; `0` means "one per generated station cell".
    pub n_pickers: usize,
    /// Item workload (Table II's `#Item` plus the arrival process).
    pub workload: WorkloadConfig,
    /// Optional disruption workload: robot breakdowns, aisle blockades and
    /// station closures scattered over the run, expanded into the instance's
    /// event schedule from the same seed. `None` keeps the world static.
    pub disruptions: Option<DisruptionConfig>,
    /// RNG seed making the instance reproducible.
    pub seed: u64,
}

/// A concrete problem instance: initial world state + item stream.
#[derive(Debug, Clone, Serialize)]
pub struct Instance {
    /// Scenario name.
    pub name: String,
    /// The cell map.
    pub grid: GridMap,
    /// Racks, indexed by `RackId`.
    pub racks: Vec<Rack>,
    /// Pickers, indexed by `PickerId`.
    pub pickers: Vec<Picker>,
    /// Robots, indexed by `RobotId`.
    pub robots: Vec<Robot>,
    /// All items sorted by arrival tick.
    pub items: Vec<Item>,
    /// Disruption event schedule, sorted by tick (empty = static world).
    /// Generated from the spec's [`DisruptionConfig`] or scripted directly.
    /// Scripted schedules must satisfy [`crate::events::validate_events`];
    /// note that an unpaired *terminal* rack removal is legal (permanent
    /// de-commissioning — see the `events` module docs), while every other
    /// disruption kind must be recovered before the schedule ends.
    pub disruptions: Vec<TimedEvent>,
}

impl ScenarioSpec {
    /// Expand into a concrete [`Instance`].
    ///
    /// # Errors
    ///
    /// Fails when the layout is too small for the requested entity counts or
    /// the workload configuration is invalid.
    pub fn build(&self) -> Result<Instance, WarehouseError> {
        let layout = Layout::generate(&self.layout)?;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Pickers: evenly choose n_pickers of the station cells.
        let n_pickers = if self.n_pickers == 0 {
            layout.station_cells.len()
        } else {
            self.n_pickers
        };
        if n_pickers == 0 || n_pickers > layout.station_cells.len() {
            return Err(WarehouseError::TooManyPickers {
                requested: n_pickers,
                available: layout.station_cells.len(),
            });
        }
        let pickers: Vec<Picker> = evenly_spaced(&layout.station_cells, n_pickers)
            .into_iter()
            .enumerate()
            .map(|(i, pos)| Picker::new(PickerId::new(i), pos))
            .collect();

        // Racks: random storage cells; each rack is dedicated to a fixed
        // picker (Definition 1). Binding is *balanced* proximity: racks are
        // processed in descending expected-volume order and each takes the
        // least-loaded of its nearest pickers — real deployments dedicate
        // racks (e.g. by destination city) such that picker volumes stay
        // comparable, and pure nearest-binding would starve most of the
        // processing edge under popularity skew.
        if self.n_racks == 0 || self.n_racks > layout.storage_cells.len() {
            return Err(WarehouseError::TooManyRacks {
                requested: self.n_racks,
                available: layout.storage_cells.len(),
            });
        }
        let homes = sample_without_replacement(&layout.storage_cells, self.n_racks, &mut rng);
        let weights = workload::rack_weights(
            self.n_racks,
            self.workload.rack_skew,
            self.workload.skew_cap,
            &mut rng,
        );
        let bindings = bind_racks_balanced(&pickers, &homes, &weights);
        let racks: Vec<Rack> = homes
            .iter()
            .zip(bindings.iter())
            .enumerate()
            .map(|(i, (&home, &picker))| Rack::new(RackId::new(i), home, picker))
            .collect();

        // Robots: random aisle cells (never on a station, so stations stay
        // clear for handoffs; storage cells host racks).
        let aisle_cells: Vec<GridPos> = layout.grid.cells_of_kind(CellKind::Aisle).collect();
        let available = aisle_cells.len().min(MAX_FLEET);
        if self.n_robots == 0 || self.n_robots > available {
            return Err(WarehouseError::TooManyRobots {
                requested: self.n_robots,
                available,
            });
        }
        let spawns = sample_without_replacement(&aisle_cells, self.n_robots, &mut rng);
        let robots: Vec<Robot> = spawns
            .into_iter()
            .enumerate()
            .map(|(i, pos)| Robot::new(RobotId::new(i), pos))
            .collect();

        let items = generate_items(&self.workload, &weights, &mut rng)?;

        // Disruptions draw from the RNG last, so enabling them never
        // perturbs the layout, fleet or item stream above.
        let disruptions = match &self.disruptions {
            Some(cfg) => {
                if cfg.validate().is_err() {
                    return Err(WarehouseError::InvalidParameter {
                        name: "disruptions",
                        constraint: "durations must satisfy 0 < min <= max and window t0 <= t1",
                    });
                }
                cfg.generate(
                    &layout.grid,
                    robots.len(),
                    pickers.len(),
                    racks.len(),
                    &mut rng,
                )
            }
            None => Vec::new(),
        };

        Ok(Instance {
            name: self.name.clone(),
            grid: layout.grid,
            racks,
            pickers,
            robots,
            items,
            disruptions,
        })
    }
}

/// Pick `n` entries of `cells` at evenly spaced ranks (keeps stations spread
/// across the processing edge).
fn evenly_spaced(cells: &[GridPos], n: usize) -> Vec<GridPos> {
    debug_assert!(n >= 1 && n <= cells.len());
    if n == cells.len() {
        return cells.to_vec();
    }
    (0..n).map(|i| cells[i * cells.len() / n]).collect()
}

/// Number of nearest pickers considered when binding a rack.
const BIND_CANDIDATES: usize = 4;

/// Dedicate each rack to the least-loaded (by expected item volume) of its
/// `BIND_CANDIDATES` nearest pickers, processing heavy racks first.
fn bind_racks_balanced(pickers: &[Picker], homes: &[GridPos], weights: &[f64]) -> Vec<PickerId> {
    let mut order: Vec<usize> = (0..homes.len()).collect();
    order.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .expect("finite weights")
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0f64; pickers.len()];
    let mut binding = vec![PickerId::new(0); homes.len()];
    for i in order {
        let home = homes[i];
        let mut candidates: Vec<usize> = (0..pickers.len()).collect();
        candidates.sort_by_key(|&p| (pickers[p].pos.manhattan(home), p));
        candidates.truncate(BIND_CANDIDATES.max(1));
        let chosen = candidates
            .into_iter()
            .min_by(|&a, &b| load[a].partial_cmp(&load[b]).expect("finite loads"))
            .expect("at least one picker");
        load[chosen] += weights[i];
        binding[i] = pickers[chosen].id;
    }
    binding
}

impl Instance {
    /// Total processing work across all items (lower bounds Σ processing).
    pub fn total_work(&self) -> u64 {
        self.items.iter().map(|i| i.processing).sum()
    }

    /// Tick at which the last item emerges.
    pub fn last_arrival(&self) -> u64 {
        self.items.last().map(|i| i.arrival).unwrap_or(0)
    }

    /// Check structural invariants; used by tests. Positions are
    /// bounds-checked before the grid is read.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.racks.iter().enumerate() {
            if r.id.index() != i {
                return Err(format!("rack {i} has id {}", r.id));
            }
            if !self.grid.in_bounds(r.home) {
                return Err(format!("rack {} home {} is off the grid", r.id, r.home));
            }
            if self.grid.kind(r.home) != CellKind::Storage {
                return Err(format!("rack {} home {} is not storage", r.id, r.home));
            }
            if r.picker.index() >= self.pickers.len() {
                return Err(format!("rack {} references missing picker", r.id));
            }
        }
        for (i, p) in self.pickers.iter().enumerate() {
            if p.id.index() != i {
                return Err(format!("picker {i} has id {}", p.id));
            }
            if !self.grid.in_bounds(p.pos) || self.grid.kind(p.pos) != CellKind::Station {
                return Err(format!("picker {} is not on a station cell", p.id));
            }
        }
        if self.robots.len() > MAX_FLEET {
            return Err(format!(
                "{} robots exceed the fleet cap of {MAX_FLEET}",
                self.robots.len()
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for (i, a) in self.robots.iter().enumerate() {
            if a.id.index() != i {
                return Err(format!("robot {i} has id {}", a.id));
            }
            if !self.grid.passable(a.pos) {
                return Err(format!("robot {} spawned on impassable cell", a.id));
            }
            if !seen.insert(a.pos) {
                return Err(format!("two robots spawned at {}", a.pos));
            }
        }
        let mut last = 0u64;
        for it in &self.items {
            if it.arrival < last {
                return Err("items not sorted by arrival".into());
            }
            last = it.arrival;
            if it.rack.index() >= self.racks.len() {
                return Err(format!("item {} references missing rack", it.id));
            }
            if it.processing == 0 {
                return Err(format!("item {} has zero processing time", it.id));
            }
        }
        validate_events(
            &self.disruptions,
            &self.grid,
            self.robots.len(),
            self.pickers.len(),
            self.racks.len(),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "test".into(),
            layout: LayoutConfig::sized(30, 20),
            n_racks: 40,
            n_robots: 8,
            n_pickers: 3,
            workload: WorkloadConfig::poisson(200, 2.0),
            disruptions: None,
            seed: 99,
        }
    }

    #[test]
    fn build_small_instance() {
        let inst = small_spec().build().unwrap();
        assert_eq!(inst.racks.len(), 40);
        assert_eq!(inst.robots.len(), 8);
        assert_eq!(inst.pickers.len(), 3);
        assert_eq!(inst.items.len(), 200);
        inst.validate().unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_spec().build().unwrap();
        let b = small_spec().build().unwrap();
        assert_eq!(a.racks, b.racks);
        assert_eq!(a.robots, b.robots);
        assert_eq!(a.items, b.items);
        let mut spec = small_spec();
        spec.seed = 100;
        let c = spec.build().unwrap();
        assert_ne!(a.items, c.items);
    }

    #[test]
    fn racks_bind_to_nearby_picker() {
        // Each rack's picker must be among its 4 nearest pickers.
        let inst = small_spec().build().unwrap();
        for r in &inst.racks {
            let mut dists: Vec<u64> = inst
                .pickers
                .iter()
                .map(|p| p.pos.manhattan(r.home))
                .collect();
            dists.sort_unstable();
            let cutoff = dists[dists.len().min(4) - 1];
            let d_assigned = inst.pickers[r.picker.index()].pos.manhattan(r.home);
            assert!(
                d_assigned <= cutoff,
                "rack {} bound to a picker outside its 4 nearest",
                r.id
            );
        }
    }

    #[test]
    fn binding_balances_rack_counts() {
        let mut spec = small_spec();
        spec.n_racks = 60;
        let inst = spec.build().unwrap();
        let mut counts = vec![0usize; inst.pickers.len()];
        for r in &inst.racks {
            counts[r.picker.index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max <= min.max(1) * 4,
            "rack dedication too lopsided: {counts:?}"
        );
    }

    #[test]
    fn zero_pickers_means_all_stations() {
        let mut spec = small_spec();
        spec.n_pickers = 0;
        let inst = spec.build().unwrap();
        assert!(inst.pickers.len() >= 3);
    }

    #[test]
    fn too_many_entities_error() {
        let mut spec = small_spec();
        spec.n_racks = 100_000;
        assert!(matches!(
            spec.build(),
            Err(WarehouseError::TooManyRacks { .. })
        ));
        let mut spec = small_spec();
        spec.n_robots = 100_000;
        assert!(matches!(
            spec.build(),
            Err(WarehouseError::TooManyRobots { .. })
        ));
        let mut spec = small_spec();
        spec.n_pickers = 100_000;
        assert!(matches!(
            spec.build(),
            Err(WarehouseError::TooManyPickers { .. })
        ));
    }

    #[test]
    fn fleet_beyond_the_cap_is_a_typed_error() {
        // The floor has room for 80 000 robots, but their ids would not fit
        // the reservation layers' 16-bit robot fields.
        let spec = ScenarioSpec {
            layout: LayoutConfig::sized(420, 420),
            n_robots: 80_000,
            n_racks: 400,
            ..small_spec()
        };
        assert_eq!(
            spec.build().unwrap_err(),
            WarehouseError::TooManyRobots {
                requested: 80_000,
                available: MAX_FLEET,
            }
        );
        let mut inst = small_spec().build().unwrap();
        let robot = inst.robots[0];
        inst.robots.resize(MAX_FLEET + 1, robot);
        let err = inst.validate().unwrap_err();
        assert!(err.contains("fleet cap"), "{err}");
    }

    #[test]
    fn instance_aggregates() {
        let inst = small_spec().build().unwrap();
        assert_eq!(inst.items.len(), 200);
        assert!(inst.total_work() >= 200 * 20);
        assert!(inst.total_work() <= 200 * 40);
        assert!(inst.last_arrival() >= 1);
    }

    #[test]
    fn disruptions_extend_not_perturb() {
        use crate::events::DisruptionConfig;
        let clean = small_spec().build().unwrap();
        assert!(clean.disruptions.is_empty());
        let mut spec = small_spec();
        spec.disruptions = Some(DisruptionConfig {
            breakdowns: 2,
            breakdown_ticks: (10, 30),
            blockades: 2,
            blockade_ticks: (20, 40),
            closures: 1,
            closure_ticks: (15, 25),
            removals: 0,
            removal_ticks: (1, 1),
            window: (5, 80),
        });
        let disrupted = spec.build().unwrap();
        disrupted.validate().unwrap();
        assert_eq!(disrupted.disruptions.len(), 2 * (2 + 2 + 1));
        // The disruption draws come last: the static world is unchanged.
        assert_eq!(clean.racks, disrupted.racks);
        assert_eq!(clean.robots, disrupted.robots);
        assert_eq!(clean.items, disrupted.items);
        // And the schedule itself is seed-deterministic.
        let again = spec.build().unwrap();
        assert_eq!(disrupted.disruptions, again.disruptions);
        // Invalid config rejected.
        spec.disruptions.as_mut().unwrap().breakdown_ticks = (0, 0);
        assert!(spec.build().is_err());
    }

    #[test]
    fn serde_roundtrip_spec() {
        let spec = small_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn evenly_spaced_endpoints() {
        let cells: Vec<GridPos> = (0..10).map(|x| GridPos::new(x, 0)).collect();
        let picked = evenly_spaced(&cells, 2);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0], cells[0]);
        assert_eq!(picked[1], cells[5]);
        assert_eq!(evenly_spaced(&cells, 10).len(), 10);
    }
}
