//! Pins the exact weight trajectory of [`DqnAgent::learn`].
//!
//! The learning step was rewritten to batch its bootstrap forward passes
//! through the batched engine and to reuse preallocated scratch
//! buffers. That rewrite must be a pure restructuring: a seeded training
//! run has to produce *bit-identical* weights before and after it. The
//! digests below were captured from the pre-batching implementation; any
//! drift means the rewrite changed the learning math, not just its memory
//! behaviour.

use navft_nn::{mlp, Tensor};
use navft_rl::{DqnAgent, DqnConfig, EpsilonSchedule};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Golden digest of the final-layer weights after the vanilla-DQN run.
const GOLDEN_VANILLA: u64 = 0xc1cd_0a85_6f57_3f97;
/// Golden digest of the final-layer weights after the double-DQN run.
const GOLDEN_DOUBLE: u64 = 0x75c2_ca1c_5e98_5fa6;

/// An order-sensitive FNV-1a fold over the exact bit patterns of `values`.
fn digest(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Runs a short seeded training loop over a synthetic transition stream and
/// returns the digest of the online network's final parametric layer.
fn run(double_dqn: bool) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0xD16E);
    let net = mlp(&[6, 16, 3], &mut rng);
    let config =
        DqnConfig { batch_size: 8, double_dqn, target_sync_every: 3, ..DqnConfig::default() };
    let mut agent = DqnAgent::new(net, &[6], EpsilonSchedule::for_training(20), config);

    // A deterministic, partly-terminal transition stream: enough variety to
    // exercise every branch of the learning step (terminal short-circuit,
    // bootstrap, clamped TD errors).
    for i in 0..40usize {
        let mut state = vec![0.0f32; 6];
        state[i % 6] = 1.0;
        let mut next = vec![0.0f32; 6];
        next[(i + 1) % 6] = 0.5 + (i % 3) as f32 * 0.25;
        let reward = if i % 5 == 0 { 1.0 } else { -0.1 * (i % 4) as f32 };
        agent.observe(
            &Tensor::from_vec(&[6], state),
            i % 3,
            reward,
            &Tensor::from_vec(&[6], next),
            i % 7 == 0,
        );
    }
    let mut learn_rng = SmallRng::seed_from_u64(0x5EED);
    for episode in 0..12 {
        for _ in 0..4 {
            agent.learn(&mut learn_rng);
        }
        let _ = episode;
        agent.end_episode();
    }

    let last = *agent.network().parametric_layers().last().expect("mlp has linear layers");
    digest(agent.network().layer_weights(last).expect("final layer has weights"))
}

#[test]
fn vanilla_dqn_learn_matches_pre_batching_golden_digest() {
    let got = run(false);
    assert_eq!(
        got, GOLDEN_VANILLA,
        "vanilla DQN weight digest drifted: got {got:#018x}, want {GOLDEN_VANILLA:#018x}"
    );
}

#[test]
fn double_dqn_learn_matches_pre_batching_golden_digest() {
    let got = run(true);
    assert_eq!(
        got, GOLDEN_DOUBLE,
        "double DQN weight digest drifted: got {got:#018x}, want {GOLDEN_DOUBLE:#018x}"
    );
}
