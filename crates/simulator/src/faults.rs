//! Deterministic fault injection (the adversarial-soak substrate).
//!
//! A [`FaultPlan`] is the fault analogue of the warehouse's disruption
//! schedule: drawn once from its own seeded RNG, sorted, and replayed by
//! the engine at fixed subsystem boundaries — so a faulted run is exactly
//! as replayable as a clean one, and enabling faults never perturbs the
//! static world (the fault RNG is independent of every other generator).
//!
//! Three fault classes, each injected where the real failure would surface:
//!
//! * **decision faults** — the planner's per-timestamp `plan()` call fails
//!   ([`eatp_core::PlannerError::SelectionFailed`]) or reports a budget
//!   blow-up ([`eatp_core::PlannerError::BudgetExceeded`]). Armed at the
//!   planning boundary, consumed only on a tick that actually plans;
//! * **leg faults** — the tick's batched `commit_legs` call fails as a unit
//!   ([`eatp_core::PlannerError::LegBatchFailed`]); every pending leg
//!   retries next tick through the engine's existing retain loops;
//! * **poison faults** — one memoized distance-oracle field is silently
//!   corrupted. The planner's housekeeping sweep must
//!   detect, evict and recompute it the same tick (pinned by the
//!   `poison_evictions` counter and the standing zero-conflict invariants).
//!
//! The degradation side of the contract lives in [`DegradationPolicy`]: on a
//! planner error (or a real per-tick expansion-budget overrun) the engine
//! degrades that tick to a greedy nearest-assignment fallback, counts it,
//! and restores the primary planner next tick with invalidated derived
//! state. See `docs/fault-injection.md` for the full taxonomy.

use eatp_core::planner::InjectedFault;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use tprw_warehouse::Tick;

/// Fault-injection knobs. `Default` is fully disabled, so configs that
/// never mention faults run bit-identically to pre-fault builds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Master switch; `false` generates an empty plan regardless of counts.
    pub enabled: bool,
    /// Seed for the fault plan's own RNG (independent of the scenario seed).
    pub seed: u64,
    /// Planner decision failures / budget overruns to schedule.
    pub decision_faults: usize,
    /// Batched leg-planning failures to schedule.
    pub leg_faults: usize,
    /// Poisoning draws. Each draws a tick, a salt and a coin; only the
    /// oracle side of the coin schedules a fault (the path cache the other
    /// side poisoned is deleted), so about half of them land.
    pub poison_faults: usize,
    /// Tick window `[t0, t1]` the tick-indexed faults are drawn from.
    pub window: (Tick, Tick),
}

impl FaultConfig {
    /// A convenience chaos preset: a handful of every fault class inside
    /// `window`, drawn from `seed`.
    pub fn chaos(seed: u64, window: (Tick, Tick)) -> Self {
        Self {
            enabled: true,
            seed,
            decision_faults: 4,
            leg_faults: 3,
            poison_faults: 4,
            window,
        }
    }
}

/// The materialized fault schedule: per-class sorted vectors, replayed by
/// engine-side cursors. Regenerated from the [`FaultConfig`] on resume
/// (like the instance's disruption schedule) — only the cursors persist.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Tick-sorted decision faults (selection failure or budget overrun).
    pub decision: Vec<(Tick, InjectedFault)>,
    /// Tick-sorted batched-leg failures.
    pub leg: Vec<Tick>,
    /// Tick-sorted oracle poisonings, each with a selection salt.
    pub poison: Vec<(Tick, InjectedFault)>,
}

impl FaultPlan {
    /// An empty plan (what a disabled config generates).
    pub fn none() -> Self {
        Self {
            decision: Vec::new(),
            leg: Vec::new(),
            poison: Vec::new(),
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.decision.is_empty() && self.leg.is_empty() && self.poison.is_empty()
    }

    /// Draw the schedule from the config's own RNG. Deterministic in the
    /// config; each class draws in a fixed order and skips entirely at
    /// count 0, so adding a new class later cannot shift existing plans.
    pub fn generate(config: &FaultConfig) -> Self {
        if !config.enabled {
            return Self::none();
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (w0, w1) = config.window;
        let (w0, w1) = (w0.min(w1), w0.max(w1));

        let mut decision = Vec::with_capacity(config.decision_faults);
        for _ in 0..config.decision_faults {
            let t = rng.gen_range(w0..=w1);
            let fault = if rng.gen_range(0..2u32) == 0 {
                InjectedFault::SelectionFailure
            } else {
                InjectedFault::BudgetOverrun
            };
            decision.push((t, fault));
        }
        decision.sort_by_key(|&(t, _)| t);

        let mut leg: Vec<Tick> = (0..config.leg_faults)
            .map(|_| rng.gen_range(w0..=w1))
            .collect();
        leg.sort_unstable();

        // Every draw still takes its tick, salt and cache-or-oracle coin,
        // although the cache side schedules nothing since the path cache
        // went: the oracle poisonings keep their ticks and salts, so every
        // faulted run replays as it did on a planner without a cache, where
        // a cache poisoning found nothing to corrupt.
        let mut poison = Vec::with_capacity(config.poison_faults);
        for _ in 0..config.poison_faults {
            let t = rng.gen_range(w0..=w1);
            let salt = rng.next_u64();
            if rng.gen_range(0..2u32) == 1 {
                poison.push((t, InjectedFault::OraclePoison { salt }));
            }
        }
        poison.sort_by_key(|&(t, _)| t);

        Self {
            decision,
            leg,
            poison,
        }
    }
}

/// How the engine reacts to planner errors and budget overruns.
/// `Default` is disabled: errors only count, nothing degrades, so the
/// engine's behaviour with faults off is bit-identical to pre-fault builds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationPolicy {
    /// Degrade erroring ticks to the greedy fallback (off = errors only
    /// lose the tick's planning phase and retry next tick).
    pub enabled: bool,
    /// Real per-tick A* expansion budget; a tick whose `plan()` expands
    /// more degrades the *next* tick pre-emptively. `0` = unlimited.
    pub max_expansions_per_tick: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_generates_empty_plan() {
        let plan = FaultPlan::generate(&FaultConfig::default());
        assert!(plan.is_empty());
        // Counts without the master switch still generate nothing.
        let plan = FaultPlan::generate(&FaultConfig {
            decision_faults: 5,
            poison_faults: 5,
            ..FaultConfig::default()
        });
        assert!(plan.is_empty());
    }

    #[test]
    fn generation_is_deterministic_in_the_config() {
        let config = FaultConfig::chaos(99, (10, 400));
        let a = FaultPlan::generate(&config);
        let b = FaultPlan::generate(&config);
        assert_eq!(a, b);
        assert_eq!(a.decision.len(), 4);
        assert_eq!(a.leg.len(), 3);
        // Four poisoning draws; the two that drew the cache side schedule
        // nothing.
        assert_eq!(a.poison.len(), 2);
        let c = FaultPlan::generate(&FaultConfig::chaos(100, (10, 400)));
        assert_ne!(a, c, "different seeds draw different schedules");
    }

    /// The three schedules the last build with an I/O fault class drew for
    /// this config. Its io draws came after these, so retiring them moved
    /// no other class. The last build with a path cache also scheduled
    /// three cache poisonings (ticks 74, 228 and 364); their draws stay, so
    /// the oracle poisoning keeps its tick and salt.
    #[test]
    fn chaos_schedules_are_pinned() {
        use InjectedFault::*;
        let plan = FaultPlan::generate(&FaultConfig::chaos(4242, (5, 400)));
        assert_eq!(
            plan.decision,
            [
                (26, SelectionFailure),
                (145, SelectionFailure),
                (271, BudgetOverrun),
                (283, SelectionFailure),
            ]
        );
        assert_eq!(plan.leg, [140, 151, 395]);
        assert_eq!(
            plan.poison,
            [(
                41,
                OraclePoison {
                    salt: 9667149516951190688
                }
            )]
        );
    }

    #[test]
    fn schedules_are_sorted_and_windowed() {
        let config = FaultConfig {
            enabled: true,
            seed: 7,
            decision_faults: 16,
            leg_faults: 16,
            poison_faults: 16,
            window: (50, 60),
        };
        let plan = FaultPlan::generate(&config);
        for w in plan.decision.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for w in plan.poison.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for w in plan.leg.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for &(t, _) in plan.decision.iter().chain(&plan.poison) {
            assert!((50..=60).contains(&t));
        }
        for &t in &plan.leg {
            assert!((50..=60).contains(&t));
        }
    }

    #[test]
    fn inverted_window_is_normalized() {
        let config = FaultConfig {
            enabled: true,
            seed: 1,
            decision_faults: 3,
            window: (90, 30),
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config);
        for &(t, _) in &plan.decision {
            assert!((30..=90).contains(&t));
        }
    }

    #[test]
    fn fault_config_serde_roundtrip() {
        let config = FaultConfig::chaos(42, (5, 500));
        let value = config.serialize();
        let back = FaultConfig::deserialize(&value).unwrap();
        assert_eq!(config, back);
        // Snapshots written before the I/O class was retired carry its
        // count; the key is ignored on read.
        let mut legacy = value.clone();
        let serde::Value::Object(fields) = &mut legacy else {
            panic!("a fault config serializes to an object");
        };
        fields.push(("io_faults".into(), serde::Value::U64(2)));
        assert_eq!(FaultConfig::deserialize(&legacy).unwrap(), config);
        let policy = DegradationPolicy {
            enabled: true,
            max_expansions_per_tick: 10_000,
        };
        let back = DegradationPolicy::deserialize(&policy.serialize()).unwrap();
        assert_eq!(policy, back);
    }
}
