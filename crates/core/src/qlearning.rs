//! Tabular Q-learning for rack selection (Sec. V).
//!
//! * **State** `⟨ap_r, ar_r⟩`: accumulative processing time of the rack's
//!   picker and of the rack itself (Sec. V-A). Raw tick counts would make
//!   every state unique — the very divergence Sec. V-B warns about — so
//!   states are log-bucketed with a configurable base width.
//! * **Action** `α ∈ {0, 1}`: hold or request pickup-delivery-processing.
//! * **Reward** (Eq. 4): `c = −(max{f_p, d(l_r, l_p)} + Σ_{i∈τ_r} i)`.
//! * **Update** (Eq. 5): `q(s,α) ← q(s,α) + β(c + γ·max_α' q(s',α') −
//!   q(s,α))` with `s' = ⟨ap_r + Στ, ar_r + Στ⟩`.
//! * **Policy**: ε-greedy; δ-Bernoulli mixing with the greedy bootstrap is
//!   handled by the planners (they *are* the greedy method).

use crate::config::RlConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tprw_warehouse::Duration;

/// A bucketed MDP state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QState {
    /// Bucketed accumulative processing time of the rack's picker.
    pub picker_bucket: u8,
    /// Bucketed accumulative processing time of the rack.
    pub rack_bucket: u8,
}

/// The tabular value function plus policy RNG.
#[derive(Debug, Clone)]
pub struct QTable {
    config: RlConfig,
    /// `(state) → [q(s, 0), q(s, 1)]`.
    table: HashMap<QState, [f64; 2]>,
    rng: StdRng,
    updates: u64,
}

impl QTable {
    /// Fresh value function under `config`.
    pub fn new(config: RlConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            table: HashMap::new(),
            rng,
            updates: 0,
        }
    }

    /// Log-bucket a raw accumulative processing time.
    pub fn bucket(&self, raw: Duration) -> u8 {
        let scaled = raw / self.config.state_bucket.max(1);
        // log2-style buckets: 0, 1, 2-3, 4-7, ... capped at 63.
        (64 - (scaled + 1).leading_zeros()).min(63) as u8
    }

    /// Build the bucketed state from raw accumulators.
    pub fn state(&self, picker_accum: Duration, rack_accum: Duration) -> QState {
        QState {
            picker_bucket: self.bucket(picker_accum),
            rack_bucket: self.bucket(rack_accum),
        }
    }

    /// `q(s, α)` (0.0 for unexplored states, an optimistic neutral default).
    #[inline]
    pub fn q(&self, s: QState, action: usize) -> f64 {
        self.table.get(&s).map_or(0.0, |v| v[action])
    }

    /// `max_α q(s, α)`.
    #[inline]
    pub fn value(&self, s: QState) -> f64 {
        let v = self.table.get(&s).copied().unwrap_or([0.0; 2]);
        v[0].max(v[1])
    }

    /// Eq. (4): reward of selecting a rack whose picker finish time is
    /// `picker_finish`, delivery distance `d(l_r, l_p)` is `delivery`, and
    /// pending processing load is `pending`.
    pub fn reward(picker_finish: Duration, delivery: Duration, pending: Duration) -> f64 {
        -((picker_finish.max(delivery) + pending) as f64)
    }

    /// Reward of *holding* (action 0) for one decision epoch: every pending
    /// item's end-to-end latency grows by one tick, so the marginal
    /// makespan-aligned cost is the pending item count. (The paper defines
    /// the reward only for the request action; without a hold cost a hold
    /// scores 0 against every request's negative reward, so the value
    /// function degenerates to "never request". This cost is the repo's
    /// own addition.)
    pub fn hold_reward(pending_items: usize) -> f64 {
        -(pending_items as f64)
    }

    /// Eq. (5) update. `s'` is derived from `s` by adding `pending` to both
    /// accumulators (the Sec. V-A transition).
    pub fn update(
        &mut self,
        picker_accum: Duration,
        rack_accum: Duration,
        action: usize,
        reward: f64,
        pending: Duration,
    ) {
        let s = self.state(picker_accum, rack_accum);
        let s_next = self.state(picker_accum + pending, rack_accum + pending);
        let target = reward + self.config.gamma * self.value(s_next);
        let entry = self.table.entry(s).or_insert([0.0; 2]);
        entry[action] += self.config.beta * (target - entry[action]);
        self.updates += 1;
    }

    /// ε-greedy action for state `s`: the argmax with probability `1 − ε`,
    /// uniform random otherwise (Sec. V-A, "Optimizations").
    pub fn epsilon_greedy(&mut self, s: QState) -> usize {
        if self.rng.gen::<f64>() < self.config.epsilon {
            self.rng.gen_range(0..2usize)
        } else {
            let v = self.table.get(&s).copied().unwrap_or([0.0; 2]);
            // Tie-break toward requesting (action 1): unexplored states
            // should not starve racks.
            usize::from(v[1] >= v[0])
        }
    }

    /// Bernoulli(δ) draw deciding *greedy bootstrap* (true) vs Q-policy.
    pub fn sample_bootstrap(&mut self) -> bool {
        self.rng.gen::<f64>() < self.config.delta
    }

    /// Number of distinct explored states.
    pub fn state_count(&self) -> usize {
        self.table.len()
    }

    /// Total Eq. (5) applications.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Approximate heap bytes (for the MC metric).
    pub fn memory_bytes(&self) -> usize {
        self.table.len() * (std::mem::size_of::<QState>() + std::mem::size_of::<[f64; 2]>() + 8)
    }

    /// Canonical checkpoint form: sorted Q entries with bit-exact values,
    /// the raw policy-RNG words, and the update counter. Everything the
    /// learner needs to continue the exact decision stream.
    pub fn export_snapshot(&self) -> QTableSnapshot {
        let mut entries: Vec<QEntry> = self
            .table
            .iter()
            .map(|(s, v)| QEntry {
                picker_bucket: s.picker_bucket,
                rack_bucket: s.rack_bucket,
                q_hold_bits: v[0].to_bits(),
                q_request_bits: v[1].to_bits(),
            })
            .collect();
        entries.sort_by_key(|e| (e.picker_bucket, e.rack_bucket));
        QTableSnapshot {
            entries,
            rng: self.rng.state().to_vec(),
            updates: self.updates,
        }
    }

    /// Overwrite this table with checkpointed state (the config stays as
    /// constructed — it is part of the planner configuration, not the
    /// learned state).
    pub fn import_snapshot(&mut self, snap: &QTableSnapshot) -> Result<(), serde::Error> {
        let rng: [u64; 4] = snap
            .rng
            .as_slice()
            .try_into()
            .map_err(|_| serde::Error::msg("QTable snapshot must hold 4 RNG words"))?;
        self.table.clear();
        for e in &snap.entries {
            self.table.insert(
                QState {
                    picker_bucket: e.picker_bucket,
                    rack_bucket: e.rack_bucket,
                },
                [
                    f64::from_bits(e.q_hold_bits),
                    f64::from_bits(e.q_request_bits),
                ],
            );
        }
        self.rng = StdRng::from_state(rng);
        self.updates = snap.updates;
        Ok(())
    }
}

/// One checkpointed Q-table row. Values travel as raw `f64` bits so resumed
/// learning continues bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QEntry {
    /// Bucketed picker accumulator of the state.
    pub picker_bucket: u8,
    /// Bucketed rack accumulator of the state.
    pub rack_bucket: u8,
    /// `q(s, hold)` as raw bits.
    pub q_hold_bits: u64,
    /// `q(s, request)` as raw bits.
    pub q_request_bits: u64,
}

/// Canonical checkpoint form of a [`QTable`] (see
/// [`QTable::export_snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QTableSnapshot {
    /// Explored states in `(picker_bucket, rack_bucket)` order.
    pub entries: Vec<QEntry>,
    /// The four xoshiro256++ policy-RNG words.
    pub rng: Vec<u64>,
    /// Total Eq. (5) applications so far.
    pub updates: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> QTable {
        QTable::new(RlConfig::default())
    }

    #[test]
    fn buckets_are_log_scaled_and_monotone() {
        let q = table();
        assert_eq!(q.bucket(0), 1); // (0/60 + 1) -> leading bit of 1
        let mut last = 0;
        for raw in [0u64, 30, 60, 120, 500, 5_000, 100_000, u64::MAX / 2] {
            let b = q.bucket(raw);
            assert!(b >= last, "buckets must be monotone");
            last = b;
        }
        assert!(q.bucket(u64::MAX / 2) <= 63);
    }

    #[test]
    fn reward_matches_eq4() {
        // max{f_p, d} + Σ τ, negated.
        assert_eq!(QTable::reward(100, 40, 60), -160.0);
        assert_eq!(QTable::reward(10, 40, 60), -100.0);
        assert_eq!(QTable::reward(0, 0, 0), 0.0);
    }

    #[test]
    fn update_moves_toward_target() {
        let mut q = table();
        let s = q.state(0, 0);
        assert_eq!(q.q(s, 1), 0.0);
        q.update(0, 0, 1, -100.0, 30);
        // One step of β = 0.1 toward (c + γ·0) = -100.
        assert!((q.q(s, 1) + 10.0).abs() < 1e-9, "q={}", q.q(s, 1));
        assert_eq!(q.update_count(), 1);
        assert_eq!(q.state_count(), 1);
    }

    #[test]
    fn repeated_updates_converge_to_fixed_point() {
        let mut config = RlConfig {
            gamma: 0.0, // isolate the immediate reward
            ..RlConfig::default()
        };
        config.beta = 0.5;
        let mut q = QTable::new(config);
        for _ in 0..200 {
            q.update(0, 0, 1, -40.0, 0);
        }
        let s = q.state(0, 0);
        assert!((q.q(s, 1) + 40.0).abs() < 1e-6);
    }

    #[test]
    fn epsilon_greedy_prefers_better_action() {
        let config = RlConfig {
            epsilon: 0.0, // pure exploitation
            ..RlConfig::default()
        };
        let mut q = QTable::new(config);
        // Make action 0 better in state s.
        for _ in 0..50 {
            q.update(0, 0, 0, -1.0, 0);
            q.update(0, 0, 1, -100.0, 0);
        }
        let s = q.state(0, 0);
        assert_eq!(q.epsilon_greedy(s), 0);
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let config = RlConfig {
            epsilon: 1.0,
            ..RlConfig::default()
        };
        let mut q = QTable::new(config);
        let s = q.state(0, 0);
        let picks: Vec<usize> = (0..100).map(|_| q.epsilon_greedy(s)).collect();
        assert!(picks.contains(&0));
        assert!(picks.contains(&1));
    }

    #[test]
    fn bootstrap_rate_approximates_delta() {
        let config = RlConfig {
            delta: 0.3,
            ..RlConfig::default()
        };
        let mut q = QTable::new(config);
        let n = 10_000;
        let hits = (0..n).filter(|_| q.sample_bootstrap()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn unexplored_state_requests_by_default() {
        let config = RlConfig {
            epsilon: 0.0,
            ..RlConfig::default()
        };
        let mut q = QTable::new(config);
        let s = q.state(999, 999);
        assert_eq!(q.epsilon_greedy(s), 1, "ties favour requesting");
    }

    #[test]
    fn determinism_under_seed() {
        let mut a = QTable::new(RlConfig::default());
        let mut b = QTable::new(RlConfig::default());
        let s = a.state(0, 0);
        let va: Vec<usize> = (0..50).map(|_| a.epsilon_greedy(s)).collect();
        let vb: Vec<usize> = (0..50).map(|_| b.epsilon_greedy(s)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn snapshot_roundtrip_continues_stream_exactly() {
        let mut q = table();
        for i in 0..40u64 {
            q.update(i * 777, i * 333, (i % 2) as usize, -(i as f64) * 1.5, 10);
        }
        let s = q.state(100, 100);
        q.epsilon_greedy(s); // advance the RNG off its seed
        let snap = q.export_snapshot();
        let mut restored = QTable::new(RlConfig::default());
        restored.import_snapshot(&snap).expect("valid snapshot");
        assert_eq!(restored.export_snapshot(), snap, "canonical form is stable");
        // Both tables must now produce the identical decision stream and
        // value evolution.
        for i in 0..60u64 {
            assert_eq!(q.epsilon_greedy(s), restored.epsilon_greedy(s));
            assert_eq!(q.sample_bootstrap(), restored.sample_bootstrap());
            q.update(i * 91, i * 53, 1, -3.25, 7);
            restored.update(i * 91, i * 53, 1, -3.25, 7);
        }
        assert_eq!(q.export_snapshot(), restored.export_snapshot());
        // A malformed RNG word count is a typed error, not a panic.
        let mut bad = snap.clone();
        bad.rng.pop();
        assert!(QTable::new(RlConfig::default())
            .import_snapshot(&bad)
            .is_err());
    }

    #[test]
    fn memory_scales_with_states() {
        let mut q = table();
        let before = q.memory_bytes();
        for i in 0..20u64 {
            q.update(i * 1000, i * 500, 1, -1.0, 10);
        }
        assert!(q.memory_bytes() > before);
    }
}
