//! Vectorized-rollout equivalence suite: the batch-width rollout driver must
//! be **bit-exact** against a serial per-episode loop for every policy
//! family, numeric backend (`f32`, native Q-format, `i8` affine), batch
//! width in {1, 2, 7, 64}, inference fault mode and per-episode hook —
//! including batches that mix inert rows, which may share sweep rows, with
//! hooked rows, which may not.
//!
//! This is the contract that lets the figure campaigns evaluate their episode
//! repetitions as batch rows without re-validating a single artifact: if
//! these tests pass, the vectorized rollout *is* the serial rollout —
//! onset draws, hook construction order, fault corruption and accumulation
//! order included. Episode counts deliberately exceed the batch widths, so
//! rows finish at ragged lengths and are re-seeded mid-batch.
//!
//! The serial loop is the oracle and lives here, not in the library: one
//! environment, episodes in order, one forward pass per decision step, with
//! its own copy of the fault-onset predicate.

use navft_core::{BufferFaultHook, HookPersistence, HookTarget};
use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{BitFault, FaultKind, FaultMap, FaultSite, FaultTarget, Injector};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_nn::{
    argmax, mlp, C3f2Config, Element, EngineConfig, ForwardHooks, I8Network, Kernels, LayerKind,
    Network, NetworkBase, NoHooks, QNetwork, RangeRecorder, Scratch, Tensor,
};
use navft_qformat::QFormat;
use navft_rl::{
    corrupt_policy_weights, evaluate_policy_discrete_batched, evaluate_policy_vision_batched,
    evaluate_policy_vision_hooked_batched, DiscreteEnvironment, DiscreteTransition, DummyVecEnv,
    DummyVisionVecEnv, EvalElement, EvalResult, InferenceFaultMode, VisionEnvironment,
    VisionTransition,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The oracle's own copy of the onset predicate: whether step `step` of an
/// episode whose fault onset is `onset` runs on the corrupted network.
fn faulty_at(fault: &InferenceFaultMode, step: usize, onset: usize) -> bool {
    match fault {
        InferenceFaultMode::None => false,
        InferenceFaultMode::TransientSingleStep(_) => step == onset,
        InferenceFaultMode::TransientFromRandomStep(_) => step >= onset,
        InferenceFaultMode::TransientWholeEpisode(_) | InferenceFaultMode::Permanent(_) => true,
    }
}

/// Serial oracle for discrete tasks: one-hot inputs, one forward pass per
/// step, rewards summed in episode-major, step-minor order.
fn serial_discrete<W, E>(
    env: &mut E,
    network: &NetworkBase<W>,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut SmallRng,
) -> EvalResult
where
    W: EvalElement,
    E: DiscreteEnvironment,
{
    let corrupted = corrupt_policy_weights(network, fault);
    let engine = EngineConfig::default();
    let mut scratch = Scratch::new();
    let mut encoded = W::input_buffer(&[env.num_states()], network);

    let mut successes = 0usize;
    let mut total_reward = 0.0f64;
    for _ in 0..episodes {
        let onset = if max_steps > 0 { rng.gen_range(0..max_steps) } else { 0 };
        let mut state = env.reset();
        for step in 0..max_steps {
            let active = if faulty_at(fault, step, onset) { &corrupted } else { network };
            W::one_hot(state, &mut encoded);
            active.forward_batch_into_cfg(&[&encoded], &mut scratch, &mut NoHooks, engine);
            let transition = env.step(argmax(scratch.row(0)));
            total_reward += f64::from(transition.reward);
            state = transition.next_state;
            if transition.terminal {
                if transition.reached_goal {
                    successes += 1;
                }
                break;
            }
        }
    }
    EvalResult {
        success_rate: successes as f64 / episodes.max(1) as f64,
        mean_reward: total_reward / episodes.max(1) as f64,
        mean_distance: 0.0,
        episodes,
    }
}

/// Serial oracle for vision tasks with per-episode hooks: `make_hooks` runs
/// once per episode, after the onset draw and before the reset.
#[allow(clippy::too_many_arguments)]
fn serial_vision_hooked<W, E, H, F>(
    env: &mut E,
    network: &NetworkBase<W>,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut SmallRng,
    mut make_hooks: F,
) -> EvalResult
where
    W: EvalElement,
    E: VisionEnvironment,
    H: ForwardHooks<W>,
    F: FnMut(usize) -> H,
{
    let corrupted = corrupt_policy_weights(network, fault);
    let engine = EngineConfig::default();
    let mut scratch = Scratch::new();
    let mut encoded = W::input_buffer(&env.observation_shape(), network);

    let mut total_reward = 0.0f64;
    let mut total_distance = 0.0f64;
    for episode in 0..episodes {
        let onset = if max_steps > 0 { rng.gen_range(0..max_steps) } else { 0 };
        let mut hooks = make_hooks(episode);
        let mut observation = env.reset();
        for step in 0..max_steps {
            let active = if faulty_at(fault, step, onset) { &corrupted } else { network };
            W::encode_into(&observation, &mut encoded);
            active.forward_batch_into_cfg(&[&encoded], &mut scratch, &mut hooks, engine);
            let transition = env.step(argmax(scratch.row(0)));
            total_reward += f64::from(transition.reward);
            total_distance += f64::from(transition.distance);
            observation = transition.observation;
            if transition.terminal {
                break;
            }
        }
    }
    EvalResult {
        success_rate: 0.0,
        mean_reward: total_reward / episodes.max(1) as f64,
        mean_distance: total_distance / episodes.max(1) as f64,
        episodes,
    }
}

/// [`serial_vision_hooked`] without hooks.
fn serial_vision<W: EvalElement, E: VisionEnvironment>(
    env: &mut E,
    network: &NetworkBase<W>,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut SmallRng,
) -> EvalResult {
    serial_vision_hooked(env, network, episodes, max_steps, fault, rng, |_| NoHooks)
}

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

/// Evaluates `network` on clones of `world` with the oracle and with the
/// batched rollout at width `batch`, and asserts the results are identical.
fn assert_discrete_matches_serial<W: EvalElement>(
    world: &GridWorld,
    network: &NetworkBase<W>,
    fault: &InferenceFaultMode,
    batch: usize,
    context: &str,
) {
    let serial = serial_discrete(
        &mut world.clone(),
        network,
        EPISODES,
        MAX_STEPS,
        fault,
        &mut SmallRng::seed_from_u64(7),
    );
    let mut venv = DummyVecEnv::from_prototype(world, batch);
    let batched = evaluate_policy_discrete_batched(
        &mut venv,
        network,
        EPISODES,
        MAX_STEPS,
        fault,
        &mut SmallRng::seed_from_u64(7),
        EngineConfig::default(),
    );
    assert_bit_identical(&serial, &batched, context);
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
                assert_discrete_matches_serial(
                    &world,
                    &network,
                    &fault,
                    batch,
                    &format!("{context}/f32"),
                );
                assert_discrete_matches_serial(
                    &world,
                    &qnet,
                    &fault,
                    batch,
                    &format!("{context}/q4.11"),
                );
                assert_discrete_matches_serial(
                    &world,
                    &inet,
                    &fault,
                    batch,
                    &format!("{context}/i8"),
                );
            }
        }
    }
}

/// A Grid World with exploring starts is not reset-deterministic: every
/// clone advances its own start-cell RNG. At width 1 the rollout's single
/// row replays the serial loop on one instance, so the results must still
/// match the oracle bit for bit.
#[test]
fn exploring_starts_rollouts_match_serial_at_width_one() {
    let world = GridWorld::with_density(ObstacleDensity::Middle).with_exploring_starts(0x5EED);
    for (model, network) in grid_policies(&world) {
        let qnet = QNetwork::quantize(&network, QFormat::Q4_11);
        let inet = I8Network::quantize(&network);
        for (mode, fault) in fault_modes(network.weight_count(), 0xF2) {
            let context = format!("exploring-starts {model}/{mode}");
            assert_discrete_matches_serial(&world, &network, &fault, 1, &format!("{context}/f32"));
            assert_discrete_matches_serial(&world, &qnet, &fault, 1, &format!("{context}/q4.11"));
            assert_discrete_matches_serial(&world, &inet, &fault, 1, &format!("{context}/i8"));
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

/// Vision counterpart of [`assert_discrete_matches_serial`].
fn assert_vision_matches_serial<W: EvalElement>(
    sim: &DroneSim,
    network: &NetworkBase<W>,
    (episodes, max_steps): (usize, usize),
    fault: &InferenceFaultMode,
    batch: usize,
    context: &str,
) {
    let serial = serial_vision(
        &mut sim.clone(),
        network,
        episodes,
        max_steps,
        fault,
        &mut SmallRng::seed_from_u64(11),
    );
    let mut venv = DummyVisionVecEnv::from_prototype(sim, batch);
    let batched = evaluate_policy_vision_batched(
        &mut venv,
        network,
        episodes,
        max_steps,
        fault,
        &mut SmallRng::seed_from_u64(11),
        EngineConfig::default(),
    );
    assert_bit_identical(&serial, &batched, context);
}

#[test]
fn vision_rollouts_match_serial_bit_for_bit_on_all_three_backends() {
    let world = DroneWorld::indoor_long();
    // Vision forwards are ~1000x a grid MLP row, so trim the episode budget
    // while still re-seeding rows mid-batch (episodes > width for the small
    // widths) and draining the final wave ragged.
    let budget = (5, 6);
    let network = C3f2Config::scaled().build(&mut SmallRng::seed_from_u64(0x7151));
    let sim = DroneSim::new(world, DepthCamera::scaled(), budget.1);
    let qnet = QNetwork::quantize(&network, QFormat::Q4_11);
    let inet = I8Network::quantize(&network);
    for (mode, fault) in fault_modes(network.weight_count(), 0xF1) {
        for batch in [1usize, 3] {
            let context = format!("c3f2_scaled/{mode} x{batch}");
            let f32_context = format!("{context}/f32");
            assert_vision_matches_serial(&sim, &network, budget, &fault, batch, &f32_context);
            let q_context = format!("{context}/q4.11");
            assert_vision_matches_serial(&sim, &qnet, budget, &fault, batch, &q_context);
            let i8_context = format!("{context}/i8");
            assert_vision_matches_serial(&sim, &inet, budget, &fault, batch, &i8_context);
        }
    }
}

#[test]
fn hooked_vision_rollouts_match_serial_under_fault_and_guard_hooks() {
    // Per-episode hooks ride their own batch row: buffer fault injection
    // (input and activations, transient and permanent) and the range-guard
    // instrument must all see exactly the serial oracle's traffic.
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
            let serial = serial_vision_hooked(
                &mut sim.clone(),
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
        let serial = serial_vision_hooked(
            &mut sim.clone(),
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

/// Inert on even episodes and a fault hook on odd ones. The inert rows
/// observe nothing, so the rollout may let them share sweep rows; the
/// hooked rows must keep their own rows and their own fault streams.
enum MixedHook<H> {
    Inert,
    Faulty(H),
}

impl<W: Element, H: ForwardHooks<W>> ForwardHooks<W> for MixedHook<H> {
    fn on_input(&mut self, values: &mut [W]) {
        if let MixedHook::Faulty(hook) = self {
            hook.on_input(values);
        }
    }

    fn on_activation(&mut self, layer_index: usize, kind: LayerKind, values: &mut [W]) {
        if let MixedHook::Faulty(hook) = self {
            hook.on_activation(layer_index, kind, values);
        }
    }

    fn observes(&self) -> bool {
        match self {
            MixedHook::Inert => false,
            MixedHook::Faulty(hook) => hook.observes(),
        }
    }
}

/// Flips one seeded random bit in one random word of every input and
/// activation buffer: the integer backends' stand-in for
/// [`BufferFaultHook`], which corrupts `f32` buffers only.
struct WordFlipHook {
    rng: SmallRng,
}

impl WordFlipHook {
    fn flip<W: EvalElement>(&mut self, values: &mut [W]) {
        let word = self.rng.gen_range(0..values.len());
        let fault = BitFault { word, bit: self.rng.gen_range(0..8), kind: FaultKind::BitFlip };
        if let Some(corrupted) = values[word].apply_fault(&fault, QFormat::Q4_11) {
            values[word] = corrupted;
        }
    }
}

impl<W: EvalElement> ForwardHooks<W> for WordFlipHook {
    fn on_input(&mut self, values: &mut [W]) {
        self.flip(values);
    }

    fn on_activation(&mut self, _layer_index: usize, _kind: LayerKind, values: &mut [W]) {
        self.flip(values);
    }
}

/// Runs the oracle and the rollout at width `batch` with [`MixedHook`]s
/// whose odd episodes carry `faulty(episode)`, and asserts the results
/// are identical.
fn assert_mixed_hooks_match_serial<W, H>(
    sim: &DroneSim,
    network: &NetworkBase<W>,
    fault: &InferenceFaultMode,
    batch: usize,
    faulty: impl Fn(usize) -> H + Copy,
    context: &str,
) where
    W: EvalElement,
    H: ForwardHooks<W>,
{
    let make_hooks = |episode: usize| {
        if episode.is_multiple_of(2) {
            MixedHook::Inert
        } else {
            MixedHook::Faulty(faulty(episode))
        }
    };
    let serial = serial_vision_hooked(
        &mut sim.clone(),
        network,
        EPISODES,
        MAX_STEPS,
        fault,
        &mut SmallRng::seed_from_u64(19),
        make_hooks,
    );
    let mut venv = DummyVisionVecEnv::from_prototype(sim, batch);
    let batched = evaluate_policy_vision_hooked_batched(
        &mut venv,
        network,
        EPISODES,
        MAX_STEPS,
        fault,
        &mut SmallRng::seed_from_u64(19),
        make_hooks,
        EngineConfig::default(),
    );
    assert_bit_identical(&serial, &batched, context);
}

#[test]
fn mixed_inert_and_hooked_rollouts_match_serial_on_all_three_backends() {
    // Inert rows on a reset-deterministic drone share sweep rows; the hooked
    // rows between them must see exactly the serial oracle's traffic, and
    // the onset draws must stay in episode order.
    let sim = DroneSim::new(DroneWorld::indoor_long(), DepthCamera::scaled(), MAX_STEPS);
    let network = C3f2Config::scaled().build(&mut SmallRng::seed_from_u64(0x3A1));
    let qnet = QNetwork::quantize(&network, QFormat::Q4_11);
    let inet = I8Network::quantize(&network);
    let buffer_fault = |episode: usize| {
        BufferFaultHook::new(
            HookTarget::Activations,
            HookPersistence::Transient,
            0.02,
            FaultKind::BitFlip,
            QFormat::Q4_11,
            0x3A1 ^ (episode as u64) << 8,
        )
    };
    let word_flip =
        |episode: usize| WordFlipHook { rng: SmallRng::seed_from_u64(0x3A1 ^ episode as u64) };
    for (mode, fault) in fault_modes(network.weight_count(), 0xF3) {
        for batch in BATCHES {
            let context = format!("mixed-hooks/{mode} x{batch}");
            let f32_context = format!("{context}/f32");
            assert_mixed_hooks_match_serial(
                &sim,
                &network,
                &fault,
                batch,
                buffer_fault,
                &f32_context,
            );
            let q_context = format!("{context}/q4.11");
            assert_mixed_hooks_match_serial(&sim, &qnet, &fault, batch, word_flip, &q_context);
            let i8_context = format!("{context}/i8");
            assert_mixed_hooks_match_serial(&sim, &inet, &fault, batch, word_flip, &i8_context);
        }
    }
}

/// Three states in a row; the goal is state 2, state 0 a pit. Action 0
/// moves right, action 1 left.
#[derive(Clone)]
struct Line {
    position: usize,
}

impl DiscreteEnvironment for Line {
    fn num_states(&self) -> usize {
        3
    }
    fn num_actions(&self) -> usize {
        2
    }
    fn reset(&mut self) -> usize {
        self.position = 1;
        1
    }
    fn step(&mut self, action: usize) -> DiscreteTransition {
        if action == 0 {
            self.position += 1;
        } else {
            self.position = self.position.saturating_sub(1);
        }
        let reached_goal = self.position >= 2;
        let fell = self.position == 0;
        DiscreteTransition {
            next_state: self.position.min(2),
            reward: if reached_goal {
                1.0
            } else if fell {
                -1.0
            } else {
                0.0
            },
            terminal: reached_goal || fell,
            reached_goal,
        }
    }
}

/// A vision environment whose observation is constant; flying straight
/// (action 0) covers distance 1 per step for 5 steps.
#[derive(Clone)]
struct StraightHall {
    remaining: usize,
}

impl VisionEnvironment for StraightHall {
    fn observation_shape(&self) -> [usize; 3] {
        [1, 2, 2]
    }
    fn num_actions(&self) -> usize {
        2
    }
    fn reset(&mut self) -> Tensor {
        self.remaining = 5;
        Tensor::full(&[1, 2, 2], 0.5)
    }
    fn step(&mut self, action: usize) -> VisionTransition {
        let distance = if action == 0 { 1.0 } else { 0.0 };
        self.remaining -= 1;
        VisionTransition {
            observation: Tensor::full(&[1, 2, 2], 0.5),
            reward: distance,
            terminal: self.remaining == 0,
            distance,
        }
    }
}

fn go_right_policy() -> Network {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut net = mlp(&[3, 2], &mut rng);
    net.layer_weights_mut(0).expect("weights").copy_from_slice(&[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
    net
}

fn flip_decision_injector() -> Injector {
    let map = FaultMap::from_faults(vec![BitFault { word: 0, bit: 31, kind: FaultKind::BitFlip }]);
    Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q3_4, map)
}

#[test]
fn batched_discrete_matches_serial_bit_for_bit() {
    let net = go_right_policy();
    for fault in [
        InferenceFaultMode::None,
        InferenceFaultMode::TransientSingleStep(flip_decision_injector()),
        InferenceFaultMode::TransientFromRandomStep(flip_decision_injector()),
        InferenceFaultMode::Permanent(flip_decision_injector()),
    ] {
        let mut env = Line { position: 1 };
        let serial =
            serial_discrete(&mut env, &net, 25, 10, &fault, &mut SmallRng::seed_from_u64(77));
        for width in [1usize, 2, 7, 64] {
            let mut venv = DummyVecEnv::from_prototype(&Line { position: 1 }, width);
            let batched = evaluate_policy_discrete_batched(
                &mut venv,
                &net,
                25,
                10,
                &fault,
                &mut SmallRng::seed_from_u64(77),
                EngineConfig::default(),
            );
            assert_eq!(serial.success_rate, batched.success_rate, "width {width}");
            assert_eq!(serial.mean_reward.to_bits(), batched.mean_reward.to_bits());
            assert_eq!(serial.episodes, batched.episodes);
        }
    }
}

#[test]
fn batched_vision_matches_serial_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut net = mlp(&[4, 2], &mut rng);
    net.layer_weights_mut(0).expect("weights").copy_from_slice(
        &[1.0; 4].iter().chain([-1.0f32; 4].iter()).copied().collect::<Vec<f32>>(),
    );
    let mut env = StraightHall { remaining: 5 };
    let serial = serial_vision(
        &mut env,
        &net,
        9,
        10,
        &InferenceFaultMode::None,
        &mut SmallRng::seed_from_u64(21),
    );
    for width in [1usize, 3, 16] {
        let mut venv = DummyVisionVecEnv::from_prototype(&StraightHall { remaining: 5 }, width);
        let batched = evaluate_policy_vision_batched(
            &mut venv,
            &net,
            9,
            10,
            &InferenceFaultMode::None,
            &mut SmallRng::seed_from_u64(21),
            EngineConfig::default(),
        );
        assert_eq!(serial.mean_distance.to_bits(), batched.mean_distance.to_bits());
        assert_eq!(serial.mean_reward.to_bits(), batched.mean_reward.to_bits());
    }
}
