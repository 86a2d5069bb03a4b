//! Hyperparameters of the EATP framework.
//!
//! The paper's (Sec. VII-A): δ = 0.2, β = 0.1, L = 50. Ours: ε = 0.05
//! (the paper runs 0.1), and γ = 0.98 and K = 16, which the paper does not
//! state numerically; `repro`'s ablations sweep δ, L and K.

use serde::{Deserialize, Serialize};

/// Reinforcement-learning hyperparameters (Sec. V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlConfig {
    /// Bootstrap degree δ: probability of taking the greedy ("most slack
    /// picker first") step instead of the Q-policy at a timestamp. The paper
    /// finds δ < 0.4 trains effectively.
    pub delta: f64,
    /// ε-greedy exploration probability.
    pub epsilon: f64,
    /// Learning rate β of Eq. (5).
    pub beta: f64,
    /// Discount factor γ of Eq. (5).
    pub gamma: f64,
    /// Width (in processing-seconds) of one state bucket: the accumulative
    /// processing times `⟨ap_r, ar_r⟩` are log-bucketed so the tabular value
    /// function stays finite (see `qlearning`).
    pub state_bucket: u64,
    /// RNG seed for policy sampling (reproducibility).
    pub seed: u64,
}

impl Default for RlConfig {
    fn default() -> Self {
        Self {
            delta: 0.2,
            epsilon: 0.05,
            beta: 0.1,
            gamma: 0.98,
            state_bucket: 60,
            seed: 0xEA7B,
        }
    }
}

/// Full planner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EatpConfig {
    /// RL hyperparameters (used by ATP and EATP).
    pub rl: RlConfig,
    /// K of the flip-side K-nearest-rack index (Sec. VI-A).
    pub k_nearest: usize,
    /// A* expansion budget per query.
    pub max_expansions: usize,
    /// Extra ticks beyond the uncongested distance before a query gives up.
    pub horizon_slack: u64,
}

impl Default for EatpConfig {
    fn default() -> Self {
        Self {
            rl: RlConfig::default(),
            k_nearest: 16,
            max_expansions: 60_000,
            horizon_slack: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EatpConfig::default();
        assert_eq!(c.rl.delta, 0.2);
        assert_eq!(c.rl.epsilon, 0.05);
        assert_eq!(c.rl.beta, 0.1);
    }

    #[test]
    fn serde_roundtrip() {
        let c = EatpConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: EatpConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
