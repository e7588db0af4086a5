//! Vectorized-rollout equivalence suite: the batch-width rollout driver must
//! be **bit-exact** against the serial per-episode evaluators for every
//! policy family, numeric backend (`f32`, native Q-format, `i8` affine),
//! batch width in {1, 2, 7, 64}, inference fault mode and per-episode hook.
//!
//! This is the contract that lets the figure campaigns evaluate their episode
//! repetitions as batch rows without re-validating a single artifact: if
//! these tests pass, the vectorized rollout *is* the serial rollout —
//! onset draws, hook construction order, fault corruption and accumulation
//! order included. Episode counts deliberately exceed the batch widths, so
//! rows finish at ragged lengths and are re-seeded mid-batch.

use navft_core::{BufferFaultHook, HookPersistence, HookTarget};
use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_nn::{
    mlp, C3f2Config, EngineConfig, I8Network, Kernels, Network, QNetwork, RangeRecorder,
};
use navft_qformat::QFormat;
use navft_rl::{
    evaluate_policy_discrete, evaluate_policy_discrete_batched, evaluate_policy_vision,
    evaluate_policy_vision_batched, evaluate_policy_vision_hooked,
    evaluate_policy_vision_hooked_batched, DiscreteEnvironment, DummyVecEnv, DummyVisionVecEnv,
    EvalResult, InferenceFaultMode,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const BATCHES: [usize; 4] = [1, 2, 7, 64];

/// More episodes than most batch widths, so finished rows are re-seeded with
/// fresh episodes mid-batch and the final wave drains ragged.
const EPISODES: usize = 10;
const MAX_STEPS: usize = 12;

fn assert_bit_identical(serial: &EvalResult, batched: &EvalResult, context: &str) {
    assert_eq!(serial.episodes, batched.episodes, "{context}: episode count");
    assert_eq!(
        serial.success_rate.to_bits(),
        batched.success_rate.to_bits(),
        "{context}: success_rate {} vs {}",
        serial.success_rate,
        batched.success_rate
    );
    assert_eq!(
        serial.mean_reward.to_bits(),
        batched.mean_reward.to_bits(),
        "{context}: mean_reward {} vs {}",
        serial.mean_reward,
        batched.mean_reward
    );
    assert_eq!(
        serial.mean_distance.to_bits(),
        batched.mean_distance.to_bits(),
        "{context}: mean_distance {} vs {}",
        serial.mean_distance,
        batched.mean_distance
    );
}

/// Every inference fault mode, sampled over `words` weight words.
fn fault_modes(words: usize, seed: u64) -> Vec<(&'static str, InferenceFaultMode)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sample = |ber: f64, kind: FaultKind| {
        Injector::sample(
            FaultTarget::new(FaultSite::WeightBuffer),
            words,
            QFormat::Q4_11,
            ber,
            kind,
            &mut rng,
        )
    };
    vec![
        ("none", InferenceFaultMode::None),
        ("transient-1", InferenceFaultMode::TransientSingleStep(sample(0.02, FaultKind::BitFlip))),
        (
            "transient-m",
            InferenceFaultMode::TransientFromRandomStep(sample(0.02, FaultKind::BitFlip)),
        ),
        (
            "whole-episode",
            InferenceFaultMode::TransientWholeEpisode(sample(0.01, FaultKind::BitFlip)),
        ),
        ("stuck-at-1", InferenceFaultMode::Permanent(sample(0.01, FaultKind::StuckAt1))),
    ]
}

/// The Grid World policy topologies pushed through the rollout layer: the
/// campaign MLP and a deeper variant.
fn grid_policies(world: &GridWorld) -> Vec<(&'static str, Network)> {
    let mut rng = SmallRng::seed_from_u64(0xA0);
    let (states, actions) = (world.num_states(), world.num_actions());
    vec![
        ("grid_mlp", mlp(&[states, 32, actions], &mut rng)),
        ("deep_mlp", mlp(&[states, 16, 8, 8, actions], &mut rng)),
    ]
}

#[test]
fn discrete_rollouts_match_serial_bit_for_bit_on_all_three_backends() {
    let world = GridWorld::with_density(ObstacleDensity::Middle);
    for (model, network) in grid_policies(&world) {
        let qnet = QNetwork::quantize(&network, QFormat::Q4_11);
        let inet = I8Network::quantize(&network);
        for (mode, fault) in fault_modes(network.weight_count(), 0xF0) {
            for batch in BATCHES {
                let context = format!("{model}/{mode} x{batch}");
                let mut venv = DummyVecEnv::from_prototype(&world, batch);

                let mut serial_env = world.clone();
                let serial = evaluate_policy_discrete(
                    &mut serial_env,
                    &network,
                    EPISODES,
                    MAX_STEPS,
                    &fault,
                    &mut SmallRng::seed_from_u64(7),
                );
                let batched = evaluate_policy_discrete_batched(
                    &mut venv,
                    &network,
                    EPISODES,
                    MAX_STEPS,
                    &fault,
                    &mut SmallRng::seed_from_u64(7),
                    EngineConfig::default(),
                );
                assert_bit_identical(&serial, &batched, &format!("{context}/f32"));

                let mut serial_env = world.clone();
                let serial = evaluate_policy_discrete(
                    &mut serial_env,
                    &qnet,
                    EPISODES,
                    MAX_STEPS,
                    &fault,
                    &mut SmallRng::seed_from_u64(7),
                );
                let batched = evaluate_policy_discrete_batched(
                    &mut venv,
                    &qnet,
                    EPISODES,
                    MAX_STEPS,
                    &fault,
                    &mut SmallRng::seed_from_u64(7),
                    EngineConfig::default(),
                );
                assert_bit_identical(&serial, &batched, &format!("{context}/q4.11"));

                let mut serial_env = world.clone();
                let serial = evaluate_policy_discrete(
                    &mut serial_env,
                    &inet,
                    EPISODES,
                    MAX_STEPS,
                    &fault,
                    &mut SmallRng::seed_from_u64(7),
                );
                let batched = evaluate_policy_discrete_batched(
                    &mut venv,
                    &inet,
                    EPISODES,
                    MAX_STEPS,
                    &fault,
                    &mut SmallRng::seed_from_u64(7),
                    EngineConfig::default(),
                );
                assert_bit_identical(&serial, &batched, &format!("{context}/i8"));
            }
        }
    }
}

#[test]
fn discrete_rollouts_are_config_invariant_at_any_batch_width() {
    // The scalar tiles and the naive reference kernels must not move a
    // single bit of the rollout results either.
    let world = GridWorld::with_density(ObstacleDensity::Middle);
    let mut rng = SmallRng::seed_from_u64(0xC0F);
    let network = mlp(&[world.num_states(), 32, world.num_actions()], &mut rng);
    let reference = {
        let mut venv = DummyVecEnv::from_prototype(&world, 7);
        evaluate_policy_discrete_batched(
            &mut venv,
            &network,
            EPISODES,
            MAX_STEPS,
            &InferenceFaultMode::None,
            &mut SmallRng::seed_from_u64(3),
            EngineConfig::default(),
        )
    };
    for config in
        [EngineConfig { kernels: Kernels::Scalar }, EngineConfig { kernels: Kernels::Naive }]
    {
        for batch in BATCHES {
            let mut venv = DummyVecEnv::from_prototype(&world, batch);
            let got = evaluate_policy_discrete_batched(
                &mut venv,
                &network,
                EPISODES,
                MAX_STEPS,
                &InferenceFaultMode::None,
                &mut SmallRng::seed_from_u64(3),
                config,
            );
            assert_bit_identical(&reference, &got, &format!("{config:?} x{batch}"));
        }
    }
}

/// The drone vision policies: the scaled C3F2 topology in plain `f32` and
/// with quantized activations.
fn vision_policies() -> Vec<(&'static str, Network)> {
    let mut rng = SmallRng::seed_from_u64(0x7151);
    vec![
        ("c3f2_scaled", C3f2Config::scaled().build(&mut rng)),
        (
            "c3f2_scaled_quantized",
            C3f2Config::scaled().build(&mut rng).with_activation_format(QFormat::Q4_11),
        ),
    ]
}

#[test]
fn vision_rollouts_match_serial_bit_for_bit_on_all_three_backends() {
    let world = DroneWorld::indoor_long();
    // Vision forwards are ~1000x a grid MLP row, so trim the episode budget
    // while still re-seeding rows mid-batch (episodes > width for the small
    // widths) and draining the final wave ragged.
    let (episodes, max_steps) = (5, 6);
    for (model, network) in vision_policies() {
        let sim = DroneSim::new(world.clone(), DepthCamera::scaled(), max_steps);
        let qnet = QNetwork::quantize(&network, QFormat::Q4_11);
        let inet = I8Network::quantize(&network);
        for (mode, fault) in fault_modes(network.weight_count(), 0xF1) {
            for batch in [1usize, 3] {
                let context = format!("{model}/{mode} x{batch}");
                let mut venv = DummyVisionVecEnv::from_prototype(&sim, batch);

                let mut serial_env = sim.clone();
                let serial = evaluate_policy_vision(
                    &mut serial_env,
                    &network,
                    episodes,
                    max_steps,
                    &fault,
                    &mut SmallRng::seed_from_u64(11),
                );
                let batched = evaluate_policy_vision_batched(
                    &mut venv,
                    &network,
                    episodes,
                    max_steps,
                    &fault,
                    &mut SmallRng::seed_from_u64(11),
                    EngineConfig::default(),
                );
                assert_bit_identical(&serial, &batched, &format!("{context}/f32"));

                let mut serial_env = sim.clone();
                let serial = evaluate_policy_vision(
                    &mut serial_env,
                    &qnet,
                    episodes,
                    max_steps,
                    &fault,
                    &mut SmallRng::seed_from_u64(11),
                );
                let batched = evaluate_policy_vision_batched(
                    &mut venv,
                    &qnet,
                    episodes,
                    max_steps,
                    &fault,
                    &mut SmallRng::seed_from_u64(11),
                    EngineConfig::default(),
                );
                assert_bit_identical(&serial, &batched, &format!("{context}/q4.11"));

                let mut serial_env = sim.clone();
                let serial = evaluate_policy_vision(
                    &mut serial_env,
                    &inet,
                    episodes,
                    max_steps,
                    &fault,
                    &mut SmallRng::seed_from_u64(11),
                );
                let batched = evaluate_policy_vision_batched(
                    &mut venv,
                    &inet,
                    episodes,
                    max_steps,
                    &fault,
                    &mut SmallRng::seed_from_u64(11),
                    EngineConfig::default(),
                );
                assert_bit_identical(&serial, &batched, &format!("{context}/i8"));
            }
        }
    }
}

#[test]
fn hooked_vision_rollouts_match_serial_under_fault_and_guard_hooks() {
    // Per-episode hooks ride their own batch row: buffer fault injection
    // (input and activations, transient and permanent) and the range-guard
    // instrument must all see exactly the serial evaluator's traffic.
    let world = DroneWorld::indoor_long();
    let (episodes, max_steps) = (4, 5);
    let sim = DroneSim::new(world, DepthCamera::scaled(), max_steps);
    let mut rng = SmallRng::seed_from_u64(0x4007);
    let network = C3f2Config::scaled().build(&mut rng);

    for (target, persistence) in [
        (HookTarget::Input, HookPersistence::Transient),
        (HookTarget::Activations, HookPersistence::Transient),
        (HookTarget::Activations, HookPersistence::Permanent),
    ] {
        for batch in [1usize, 2, 7] {
            let context = format!("fault-hook {target:?}/{persistence:?} x{batch}");
            let make_hooks = |episode: usize| {
                BufferFaultHook::new(
                    target,
                    persistence,
                    0.02,
                    FaultKind::BitFlip,
                    QFormat::Q4_11,
                    0xBEEF ^ (episode as u64) << 8,
                )
            };
            let mut serial_env = sim.clone();
            let serial = evaluate_policy_vision_hooked(
                &mut serial_env,
                &network,
                episodes,
                max_steps,
                &InferenceFaultMode::None,
                &mut SmallRng::seed_from_u64(13),
                make_hooks,
            );
            let mut venv = DummyVisionVecEnv::from_prototype(&sim, batch);
            let batched = evaluate_policy_vision_hooked_batched(
                &mut venv,
                &network,
                episodes,
                max_steps,
                &InferenceFaultMode::None,
                &mut SmallRng::seed_from_u64(13),
                make_hooks,
                EngineConfig::default(),
            );
            assert_bit_identical(&serial, &batched, &context);
        }
    }

    // Guard instrumentation: one fresh range recorder per episode.
    for batch in [1usize, 3] {
        let mut serial_env = sim.clone();
        let serial = evaluate_policy_vision_hooked(
            &mut serial_env,
            &network,
            episodes,
            max_steps,
            &InferenceFaultMode::None,
            &mut SmallRng::seed_from_u64(17),
            |_| RangeRecorder::new(),
        );
        let mut venv = DummyVisionVecEnv::from_prototype(&sim, batch);
        let batched = evaluate_policy_vision_hooked_batched(
            &mut venv,
            &network,
            episodes,
            max_steps,
            &InferenceFaultMode::None,
            &mut SmallRng::seed_from_u64(17),
            |_| RangeRecorder::new(),
            EngineConfig::default(),
        );
        assert_bit_identical(&serial, &batched, &format!("range-guard x{batch}"));
    }
}
