//! The four evaluation datasets of Table II, scalable.
//!
//! | Name       | H×W     | #Item | #Robot | #Rack |
//! |------------|---------|-------|--------|-------|
//! | Syn-A      | 233×104 | 1e5   | 500    | 5,000 |
//! | Syn-B      | 426×146 | 5e5   | 1,000  | 1,300 |
//! | Real-Norm  | 240×206 | 5.6e5 | 1,000  | 10,000|
//! | Real-Large | 541×302 | 1e6   | 3,000  | 34,000|
//!
//! The two *real* datasets derive from proprietary Geekplus logs; we
//! substitute surge-mixed Poisson arrivals with rack-popularity skew
//! ([`crate::workload::ArrivalProfile::Surge`]) so the throughput varies
//! strongly over time, which is the property the paper's adaptive planner
//! exploits.
//!
//! **Scaling.** `scale ∈ (0, 1]` shrinks the instance while holding its
//! "shape": entity counts scale by `scale`, grid dimensions by
//! `sqrt(scale)` (so floor density stays constant) and the arrival horizon
//! by `sqrt(scale)` (so congestion stays comparable). Full paper scale is
//! `scale = 1.0`.
//!
//! The processing edge of the paper's layouts runs along the *long* side `H`
//! (Fig. 2 places the picking area on a full edge; picker-capacity arithmetic
//! on Table III's makespans confirms ~`H/3` stations). Our layout generator
//! places stations along the bottom row, so we map the paper's `H` to the
//! layout *width*.

use crate::layout::LayoutConfig;
use crate::scenario::ScenarioSpec;
use crate::time::Tick;
use crate::workload::{ArrivalProfile, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// Identifies one of the paper's four datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Synthetic dataset A (small layout, 10^5 items).
    SynA,
    /// Synthetic dataset B (tall layout, 5·10^5 items, few racks).
    SynB,
    /// Simulated stand-in for the Geekplus "Real-Normal" log.
    RealNorm,
    /// Simulated stand-in for the Geekplus "Real-Large" log.
    RealLarge,
}

impl Dataset {
    /// All four datasets, in Table II order.
    pub const ALL: [Dataset; 4] = [
        Dataset::SynA,
        Dataset::SynB,
        Dataset::RealNorm,
        Dataset::RealLarge,
    ];

    /// Paper-facing display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::SynA => "Syn-A",
            Dataset::SynB => "Syn-B",
            Dataset::RealNorm => "Real-Norm",
            Dataset::RealLarge => "Real-Large",
        }
    }

    /// Full-scale parameters from Table II.
    fn params(self) -> FullScale {
        match self {
            Dataset::SynA => FullScale {
                h: 233,
                w: 104,
                items: 100_000,
                robots: 500,
                racks: 5_000,
                station_spacing: 3,
                horizon: 36_000,
                real: false,
            },
            Dataset::SynB => FullScale {
                h: 426,
                w: 146,
                items: 500_000,
                robots: 1_000,
                racks: 1_300,
                station_spacing: 3,
                horizon: 126_000,
                real: false,
            },
            Dataset::RealNorm => FullScale {
                h: 240,
                w: 206,
                items: 560_000,
                robots: 1_000,
                racks: 10_000,
                station_spacing: 2,
                horizon: 100_000,
                real: true,
            },
            Dataset::RealLarge => FullScale {
                h: 541,
                w: 302,
                items: 1_000_000,
                robots: 3_000,
                racks: 34_000,
                station_spacing: 3,
                horizon: 132_000,
                real: true,
            },
        }
    }

    /// Build the scenario at `scale ∈ (0, 1]` with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not within `(0, 1]`.
    pub fn spec(self, scale: f64, seed: u64) -> ScenarioSpec {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let p = self.params();
        let dim = scale.sqrt();

        // The paper's long edge H hosts the processing area -> layout width.
        let width = ((p.h as f64 * dim) as u16).max(30);
        let height = ((p.w as f64 * dim) as u16).max(18);

        let n_items = ((p.items as f64 * scale) as usize).max(50);
        let n_robots = ((p.robots as f64 * scale) as usize).max(3);
        let n_racks = ((p.racks as f64 * scale) as usize).max(20);
        let horizon = ((p.horizon as f64 * dim) as Tick).max(500);
        let rate = n_items as f64 / horizon as f64;

        let (profile, rack_skew) = if p.real {
            (
                ArrivalProfile::Surge {
                    base_rate: rate,
                    // Carnival-style mix: quiet warm-up, midnight spike,
                    // daytime plateau, evening spike, tail-off. Mean 1.0 so
                    // the configured horizon is preserved in expectation.
                    multipliers: vec![0.2, 0.6, 2.5, 1.5, 0.5, 2.0, 0.5, 0.2],
                    phase_len: (horizon / 16).max(1),
                },
                1.2,
            )
        } else {
            (ArrivalProfile::Poisson { rate }, 0.5)
        };

        ScenarioSpec {
            name: format!("{}@{scale}", self.name()),
            layout: LayoutConfig {
                width,
                height,
                station_spacing: p.station_spacing,
                ..LayoutConfig::default()
            },
            n_racks,
            n_robots,
            n_pickers: 0, // all generated stations
            workload: WorkloadConfig {
                n_items,
                profile,
                processing_min: 20,
                processing_max: 40,
                rack_skew,
                skew_cap: 8.0,
            },
            disruptions: None,
            seed,
        }
    }
}

#[derive(Clone, Copy)]
struct FullScale {
    h: u16,
    w: u16,
    items: usize,
    robots: usize,
    racks: usize,
    station_spacing: u16,
    horizon: Tick,
    real: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table2() {
        let spec = Dataset::SynA.spec(1.0, 1);
        assert_eq!(spec.layout.width, 233);
        assert_eq!(spec.layout.height, 104);
        assert_eq!(spec.workload.n_items, 100_000);
        assert_eq!(spec.n_robots, 500);
        assert_eq!(spec.n_racks, 5_000);

        let spec = Dataset::RealLarge.spec(1.0, 1);
        assert_eq!(spec.layout.width, 541);
        assert_eq!(spec.layout.height, 302);
        assert_eq!(spec.workload.n_items, 1_000_000);
        assert_eq!(spec.n_robots, 3_000);
        assert_eq!(spec.n_racks, 34_000);
    }

    #[test]
    fn real_datasets_use_surge() {
        for d in [Dataset::RealNorm, Dataset::RealLarge] {
            let spec = d.spec(0.1, 1);
            assert!(matches!(
                spec.workload.profile,
                ArrivalProfile::Surge { .. }
            ));
        }
        for d in [Dataset::SynA, Dataset::SynB] {
            let spec = d.spec(0.1, 1);
            assert!(matches!(
                spec.workload.profile,
                ArrivalProfile::Poisson { .. }
            ));
        }
    }

    #[test]
    fn scaled_instances_build_and_validate() {
        for d in Dataset::ALL {
            let inst = d.spec(0.02, 7).build().unwrap_or_else(|e| {
                panic!("{} failed to build at scale 0.02: {e}", d.name());
            });
            inst.validate().unwrap();
            assert!(inst.pickers.len() >= 3, "{} has pickers", d.name());
            assert!(inst.robots.len() >= 3);
        }
    }

    #[test]
    fn scale_shrinks_monotonically() {
        let small = Dataset::SynA.spec(0.05, 1);
        let large = Dataset::SynA.spec(0.5, 1);
        assert!(small.workload.n_items < large.workload.n_items);
        assert!(small.n_robots < large.n_robots);
        assert!(small.layout.width < large.layout.width);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_panics() {
        let _ = Dataset::SynA.spec(0.0, 1);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Dataset::SynA.name(), "Syn-A");
        assert_eq!(Dataset::RealLarge.name(), "Real-Large");
    }

    #[test]
    fn picker_capacity_supports_workload() {
        // The station band must provide enough processing capacity:
        // items × mean processing ≤ pickers × horizon × 3 (generous bound).
        for d in Dataset::ALL {
            let spec = d.spec(0.05, 3);
            let inst = spec.build().unwrap();
            let work = inst.total_work();
            let horizon = inst.last_arrival().max(1);
            let capacity = inst.pickers.len() as u64 * horizon * 3;
            assert!(
                capacity > work,
                "{}: capacity {capacity} < work {work}",
                d.name()
            );
        }
    }
}
