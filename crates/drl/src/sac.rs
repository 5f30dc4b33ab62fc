//! Soft Actor-Critic (Haarnoja et al., 2018) policy: a tanh-squashed
//! Gaussian over the actions.
//!
//! Included because Table 2 of the paper benchmarks SAC's inference
//! latency against DQN/DDQN/DDPG (it is the slowest of the four at
//! 472 µs). What Table 2 times is the policy network plus the sampled,
//! squashed action and its log-density, and that is all this module
//! keeps; the twin critics and the training step are out of scope.
//!
//! Actions live in `[-1, 1]` per dimension (tanh squashing); callers that
//! need `[0, 1]` map affinely.

use crate::noise::sample_standard_normal;
use deeppower_nn::{ActivationKind, Matrix, Sequential};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

const LOG_STD_MIN: f32 = -5.0;
const LOG_STD_MAX: f32 = 2.0;
const TANH_EPS: f32 = 1e-6;

/// SAC policy shape.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SacConfig {
    pub state_dim: usize,
    pub action_dim: usize,
    pub seed: u64,
}

impl Default for SacConfig {
    fn default() -> Self {
        Self {
            state_dim: 8,
            action_dim: 2,
            seed: 0,
        }
    }
}

/// Soft actor-critic policy.
pub struct Sac {
    action_dim: usize,
    /// Policy network: state → `2 * action_dim` outputs (means, log-stds).
    pub policy: Sequential,
    rng: StdRng,
}

impl Sac {
    pub fn new(cfg: SacConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let policy = Sequential::mlp(
            &mut rng,
            &[cfg.state_dim, 32, 24, 2 * cfg.action_dim],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        Self {
            action_dim: cfg.action_dim,
            policy,
            rng,
        }
    }

    /// Stochastic action and its log-density `log π(a|s)`: the inference
    /// path Table 2 times.
    pub fn act_explore(&mut self, state: &[f32]) -> (Vec<f32>, f32) {
        let out = self.policy.forward_inference(&Matrix::from_row(state));
        self.sample_from_outputs(&out)
    }

    /// Sample a squashed action and its log-density from one row of raw
    /// policy outputs `[mu | log_std]`.
    fn sample_from_outputs(&mut self, out: &Matrix) -> (Vec<f32>, f32) {
        let ad = self.action_dim;
        let half_ln_2pi = 0.5 * (2.0 * std::f32::consts::PI).ln();
        let mut log_prob = 0.0f32;
        let action = (0..ad)
            .map(|j| {
                let mu = out.get(0, j);
                let ls = out.get(0, ad + j).clamp(LOG_STD_MIN, LOG_STD_MAX);
                let e = sample_standard_normal(&mut self.rng);
                let act = (mu + ls.exp() * e).tanh();
                log_prob += -0.5 * e * e - ls - half_ln_2pi - (1.0 - act * act + TANH_EPS).ln();
                act
            })
            .collect();
        (action, log_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_bounded_in_unit_ball() {
        let mut agent = Sac::new(SacConfig {
            seed: 1,
            ..Default::default()
        });
        let (a, _) = agent.act_explore(&[0.5; 8]);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn log_prob_decreases_with_wider_policy() {
        // For a fixed sampled epsilon near 0, increasing sigma lowers density.
        let mut agent = Sac::new(SacConfig {
            action_dim: 1,
            seed: 3,
            ..Default::default()
        });
        let narrow = Matrix::from_row(&[0.0, -2.0]); // mu=0, log_std=-2
        let wide = Matrix::from_row(&[0.0, 0.5]);
        // Use same RNG position for both by reseeding.
        agent.rng = StdRng::seed_from_u64(42);
        let s1 = agent.sample_from_outputs(&narrow);
        agent.rng = StdRng::seed_from_u64(42);
        let s2 = agent.sample_from_outputs(&wide);
        assert!(s1.1 > s2.1);
    }
}
