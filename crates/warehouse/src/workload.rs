//! Online item-arrival workloads.
//!
//! Sec. VII-A of the paper: *"All items emerge following Poisson distribution
//! and each rack's picking time is distributed uniformly between 20 and 40
//! seconds"*. The real (Geekplus) datasets additionally show strong
//! throughput variation over time — the property that shifts the makespan
//! bottleneck (Fig. 13). The Geekplus logs are proprietary, so we reproduce
//! that with a piecewise *surge* profile layered over the Poisson base
//! process ([`ArrivalProfile::Surge`]).

use crate::entities::Item;
use crate::error::WarehouseError;
use crate::ids::{ItemId, RackId};
use crate::time::{Duration, Tick};
use rand::Rng;
use rand_distr::{Distribution, Poisson};
use serde::{Deserialize, Serialize};

/// The shape of the arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProfile {
    /// Homogeneous Poisson arrivals: `rate` expected items per tick.
    Poisson {
        /// Expected arrivals per tick.
        rate: f64,
    },
    /// Piecewise-inhomogeneous Poisson: the base rate is multiplied by
    /// `multipliers[k]` during phase `k`; phases have length `phase_len`
    /// ticks and repeat cyclically. Models carnival-style surges.
    Surge {
        /// Base expected arrivals per tick.
        base_rate: f64,
        /// Per-phase rate multipliers (cycled).
        multipliers: Vec<f64>,
        /// Length of each phase in ticks.
        phase_len: Tick,
    },
}

impl ArrivalProfile {
    /// Expected arrivals per tick at time `t`.
    pub fn rate_at(&self, t: Tick) -> f64 {
        match self {
            ArrivalProfile::Poisson { rate } => *rate,
            ArrivalProfile::Surge {
                base_rate,
                multipliers,
                phase_len,
            } => {
                if multipliers.is_empty() {
                    return *base_rate;
                }
                let phase = (t / *phase_len) as usize % multipliers.len();
                base_rate * multipliers[phase]
            }
        }
    }

    /// Validate the profile parameters.
    pub fn validate(&self) -> Result<(), WarehouseError> {
        let ok = match self {
            ArrivalProfile::Poisson { rate } => *rate > 0.0 && rate.is_finite(),
            ArrivalProfile::Surge {
                base_rate,
                multipliers,
                phase_len,
            } => {
                *base_rate > 0.0
                    && base_rate.is_finite()
                    && *phase_len > 0
                    && !multipliers.is_empty()
                    && multipliers.iter().all(|m| *m >= 0.0 && m.is_finite())
                    && multipliers.iter().any(|m| *m > 0.0)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(WarehouseError::InvalidParameter {
                name: "arrival profile",
                constraint: "rates must be positive and finite",
            })
        }
    }
}

/// Configuration of an item workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Total number of items to generate.
    pub n_items: usize,
    /// Arrival process.
    pub profile: ArrivalProfile,
    /// Minimum per-item processing time (paper: 20 s).
    pub processing_min: Duration,
    /// Maximum per-item processing time (paper: 40 s).
    pub processing_max: Duration,
    /// Rack-popularity skew: items choose rack `i` (0-based popularity rank)
    /// with weight `(i+1)^-skew`. `0.0` means uniform. Skewed choice makes
    /// single racks accumulate items, which exercises the batching decision
    /// of Sec. III-B.
    pub rack_skew: f64,
    /// Cap on any rack's popularity weight, as a multiple of the mean
    /// weight (`0` disables). Physical racks have bounded SKU slots, so raw
    /// Zipf head mass (one rack drawing 15%+ of all items) is unrealistic
    /// and would floor the makespan on a single picker.
    pub skew_cap: f64,
}

impl WorkloadConfig {
    /// A uniform-rack Poisson workload.
    pub fn poisson(n_items: usize, rate: f64) -> Self {
        Self {
            n_items,
            profile: ArrivalProfile::Poisson { rate },
            processing_min: 20,
            processing_max: 40,
            rack_skew: 0.0,
            skew_cap: 8.0,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), WarehouseError> {
        self.profile.validate()?;
        if self.n_items == 0 {
            return Err(WarehouseError::InvalidParameter {
                name: "n_items",
                constraint: "must be positive",
            });
        }
        if self.processing_min == 0 || self.processing_min > self.processing_max {
            return Err(WarehouseError::InvalidParameter {
                name: "processing_min/max",
                constraint: "need 0 < min <= max",
            });
        }
        if !(0.0..=4.0).contains(&self.rack_skew) {
            return Err(WarehouseError::InvalidParameter {
                name: "rack_skew",
                constraint: "must be within [0, 4]",
            });
        }
        if self.skew_cap < 0.0 || !self.skew_cap.is_finite() {
            return Err(WarehouseError::InvalidParameter {
                name: "skew_cap",
                constraint: "must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Zipf-style popularity weights per rack: rank `r` (over a seeded random
/// permutation, so popular racks are spread across the floor) gets weight
/// `(r+1)^-skew`. The same weights drive item generation *and* the balanced
/// rack→picker dedication in `scenario`, mirroring how real deployments
/// dedicate racks to pickers by expected volume.
pub fn rack_weights<R: Rng>(n_racks: usize, skew: f64, cap_ratio: f64, rng: &mut R) -> Vec<f64> {
    let mut rank_to_rack: Vec<u32> = (0..n_racks as u32).collect();
    shuffle(&mut rank_to_rack, rng);
    let mut weights = vec![0.0f64; n_racks];
    for (rank, &rack) in rank_to_rack.iter().enumerate() {
        weights[rack as usize] = if skew == 0.0 {
            1.0
        } else {
            ((rank + 1) as f64).powf(-skew)
        };
    }
    if cap_ratio > 0.0 {
        let mean = weights.iter().sum::<f64>() / n_racks as f64;
        let cap = cap_ratio * mean;
        for w in &mut weights {
            *w = w.min(cap);
        }
    }
    weights
}

/// Generate the item stream for racks with popularity `weights` (from
/// [`rack_weights`]). Items are returned sorted by `arrival` and identified
/// densely `0..n_items`.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn generate_items<R: Rng>(
    config: &WorkloadConfig,
    weights: &[f64],
    rng: &mut R,
) -> Result<Vec<Item>, WarehouseError> {
    config.validate()?;
    let n_racks = weights.len();
    if n_racks == 0 {
        return Err(WarehouseError::InvalidParameter {
            name: "weights",
            constraint: "need at least one rack",
        });
    }

    let mut cum = Vec::with_capacity(n_racks);
    let mut total = 0.0f64;
    for &w in weights {
        total += w;
        cum.push(total);
    }
    if total <= 0.0 || total.is_nan() {
        return Err(WarehouseError::InvalidParameter {
            name: "weights",
            constraint: "must sum to a positive value",
        });
    }

    let mut items = Vec::with_capacity(config.n_items);
    let mut t: Tick = 0;
    while items.len() < config.n_items {
        let rate = config.profile.rate_at(t);
        let count = if rate > 0.0 {
            // Poisson(rate) arrivals within this tick.
            let poisson = Poisson::new(rate).expect("validated positive rate");
            poisson.sample(rng) as u64
        } else {
            0
        };
        for _ in 0..count {
            if items.len() >= config.n_items {
                break;
            }
            let u: f64 = rng.gen_range(0.0..total);
            let idx = cum.partition_point(|&c| c < u).min(n_racks - 1);
            let rack = RackId(idx as u32);
            let processing = rng.gen_range(config.processing_min..=config.processing_max);
            items.push(Item {
                id: ItemId::new(items.len()),
                rack,
                arrival: t,
                processing,
            });
        }
        t += 1;
    }
    Ok(items)
}

/// Fisher-Yates shuffle (kept local so the crate controls determinism across
/// `rand` versions).
fn shuffle<T, R: Rng>(v: &mut [T], rng: &mut R) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Deterministically spread `n` choices over `pool` without replacement
/// (used for rack homes and robot spawn cells).
pub fn sample_without_replacement<T: Copy, R: Rng>(pool: &[T], n: usize, rng: &mut R) -> Vec<T> {
    debug_assert!(n <= pool.len());
    let mut indices: Vec<u32> = (0..pool.len() as u32).collect();
    shuffle(&mut indices, rng);
    indices[..n].iter().map(|&i| pool[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Weights + items in one call (most tests use uniform-ish weights).
    fn gen(
        cfg: &WorkloadConfig,
        n_racks: usize,
        r: &mut StdRng,
    ) -> Result<Vec<Item>, WarehouseError> {
        let w = rack_weights(n_racks, cfg.rack_skew, cfg.skew_cap, r);
        generate_items(cfg, &w, r)
    }

    #[test]
    fn poisson_generates_exact_count_sorted() {
        let cfg = WorkloadConfig::poisson(500, 2.0);
        let items = gen(&cfg, 10, &mut rng(7)).unwrap();
        assert_eq!(items.len(), 500);
        assert!(items.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Dense ids.
        for (i, it) in items.iter().enumerate() {
            assert_eq!(it.id.index(), i);
            assert!(it.rack.index() < 10);
        }
    }

    #[test]
    fn processing_times_in_range() {
        let cfg = WorkloadConfig::poisson(300, 5.0);
        let items = gen(&cfg, 5, &mut rng(1)).unwrap();
        assert!(items.iter().all(|i| (20..=40).contains(&i.processing)));
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = WorkloadConfig::poisson(200, 1.5);
        let a = gen(&cfg, 8, &mut rng(42)).unwrap();
        let b = gen(&cfg, 8, &mut rng(42)).unwrap();
        assert_eq!(a, b);
        let c = gen(&cfg, 8, &mut rng(43)).unwrap();
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn surge_profile_modulates_rate() {
        let p = ArrivalProfile::Surge {
            base_rate: 2.0,
            multipliers: vec![0.5, 3.0],
            phase_len: 100,
        };
        assert_eq!(p.rate_at(0), 1.0);
        assert_eq!(p.rate_at(99), 1.0);
        assert_eq!(p.rate_at(100), 6.0);
        assert_eq!(p.rate_at(200), 1.0, "cycles");
    }

    #[test]
    fn surge_workload_clusters_arrivals() {
        let cfg = WorkloadConfig {
            n_items: 2000,
            profile: ArrivalProfile::Surge {
                base_rate: 1.0,
                multipliers: vec![0.1, 10.0],
                phase_len: 50,
            },
            processing_min: 20,
            processing_max: 40,
            rack_skew: 0.0,
            skew_cap: 8.0,
        };
        let items = gen(&cfg, 20, &mut rng(3)).unwrap();
        // Arrivals in high phases should dominate.
        let in_surge = items.iter().filter(|i| (i.arrival / 50) % 2 == 1).count();
        assert!(
            in_surge > items.len() * 8 / 10,
            "expected >80% of arrivals in surge phases, got {in_surge}/{}",
            items.len()
        );
    }

    #[test]
    fn skew_concentrates_items() {
        let mut cfg = WorkloadConfig::poisson(5000, 10.0);
        cfg.rack_skew = 1.5;
        let items = gen(&cfg, 50, &mut rng(11)).unwrap();
        let mut counts = vec![0usize; 50];
        for it in &items {
            counts[it.rack.index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top5: usize = counts[..5].iter().sum();
        assert!(
            top5 > items.len() / 3,
            "top-5 racks should hold >1/3 of items under skew, got {top5}"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(gen(&WorkloadConfig::poisson(0, 1.0), 5, &mut rng(0)).is_err());
        assert!(gen(&WorkloadConfig::poisson(10, 0.0), 5, &mut rng(0)).is_err());
        assert!(gen(&WorkloadConfig::poisson(10, 1.0), 0, &mut rng(0)).is_err());
        let mut bad = WorkloadConfig::poisson(10, 1.0);
        bad.processing_min = 50;
        bad.processing_max = 40;
        assert!(gen(&bad, 5, &mut rng(0)).is_err());
        let empty_surge = ArrivalProfile::Surge {
            base_rate: 1.0,
            multipliers: vec![],
            phase_len: 10,
        };
        assert!(empty_surge.validate().is_err());
    }

    #[test]
    fn sample_without_replacement_unique() {
        let pool: Vec<u32> = (0..100).collect();
        let sample = sample_without_replacement(&pool, 30, &mut rng(5));
        assert_eq!(sample.len(), 30);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30, "no duplicates");
    }
}
