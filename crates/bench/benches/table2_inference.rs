//! Table 2 — single-state inference time of DQN, DDQN, DDPG and SAC.
//!
//! §3.2 measures these (125 / 140 / 231 / 472 µs in the authors' Python/
//! PyTorch stack) to argue that per-request DRL control is infeasible and
//! motivate hierarchical control. This reproduction runs the same
//! lightweight networks through the from-scratch Rust stack; absolute
//! numbers are far smaller (no Python dispatch), but the *relative*
//! ordering — value nets cheapest, DDPG's actor heavier, SAC's sampled
//! policy heaviest — and the paper's conclusion (inference cost ≫ what a
//! microsecond-scale request could tolerate on a per-request basis in the
//! authors' setting) are what matter.

use deeppower_drl::{Ddpg, DdpgConfig, Ddqn, Dqn, DqnConfig, Sac, SacConfig};
use std::hint::black_box;
use std::time::Instant;

/// Per-call time in ns of each closure. After a warm-up, the closures
/// run `ROUNDS` rounds of `ITERS` calls each, interleaved, so a change in
/// host speed during the run hits every column alike; each column keeps
/// its fastest round.
fn time_ns<const N: usize>(mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    const ROUNDS: u32 = 20;
    const ITERS: u32 = 2_500;
    for f in fs.iter_mut() {
        for _ in 0..1_000 {
            f();
        }
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..ROUNDS {
        for (f, best) in fs.iter_mut().zip(best.iter_mut()) {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            *best = best.min(t0.elapsed().as_nanos() as f64 / ITERS as f64);
        }
    }
    best
}

fn main() {
    let state = [0.3f32, 0.1, 0.7, 0.2, 0.0, 0.4, 0.9, 0.5];

    let dqn = Dqn::new(DqnConfig {
        state_dim: 8,
        n_actions: 16,
        ..Default::default()
    });
    let ddqn = Ddqn::new(DqnConfig {
        state_dim: 8,
        n_actions: 16,
        ..Default::default()
    });
    let ddpg = Ddpg::new(DdpgConfig {
        state_dim: 8,
        action_dim: 2,
        ..Default::default()
    });
    let mut sac = Sac::new(SacConfig {
        state_dim: 8,
        action_dim: 2,
        ..Default::default()
    });

    // SAC's stochastic action (sampling + tanh-squash + log-prob machinery)
    // is the path the paper's 472 µs reflects.
    let [t_dqn, t_ddqn, t_ddpg, t_sac] = time_ns([
        &mut || {
            black_box(dqn.act(black_box(&state)));
        },
        &mut || {
            black_box(ddqn.act(black_box(&state)));
        },
        &mut || {
            black_box(ddpg.act(black_box(&state)));
        },
        &mut || {
            black_box(sac.act_explore(black_box(&state)));
        },
    ]);

    println!("# Table 2 — inference time of each DRL algorithm\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "", "DQN", "DDQN", "DDPG", "SAC"
    );
    println!(
        "{:<22} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
        "paper (us, PyTorch)", 125.0, 140.0, 231.0, 472.0
    );
    println!(
        "{:<22} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
        "this repo (us, Rust)",
        t_dqn / 1e3,
        t_ddqn / 1e3,
        t_ddpg / 1e3,
        t_sac / 1e3
    );

    // Shape check: the plain value nets are the cheapest, DDPG's two-head
    // actor costs more — as in the paper. Honest deviation: the paper's
    // SAC is the slowest of the four (472 µs), which reflects PyTorch's
    // per-op dispatch over SAC's extra sampling machinery; in this
    // compiled stack SAC's *policy network* is smaller than DDPG's
    // two-head actor, so SAC lands between DQN and DDPG instead.
    assert!(t_dqn <= t_ddpg * 1.2, "DQN should not be slower than DDPG");
    assert!(t_sac >= t_dqn, "SAC should not beat the plain value net");
    println!(
        "\n[shape OK] value nets cheapest, actor-based agents heavier (SAC/DDPG order \
         differs from the paper's PyTorch stack — see EXPERIMENTS.md)"
    );
    println!(
        "conclusion unchanged: even at ~{:.1} us, per-request inference at 1M RPS would consume \
         multiple dedicated cores; hierarchical control avoids it entirely",
        t_ddpg / 1e3
    );
}
