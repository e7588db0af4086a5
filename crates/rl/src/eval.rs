//! Inference-time fault modes and the backend glue the policy evaluators
//! share.
//!
//! §4.1.2 and §4.2.2 of the paper evaluate trained policies while faults
//! corrupt the policy storage. Three inference fault modes matter:
//!
//! * **Transient-1** — a flip in a read register: it corrupts a single,
//!   randomly chosen decision step of each episode.
//! * **Transient-M** — a flip in memory: it corrupts every decision from a
//!   randomly chosen step onwards.
//! * **Permanent** — stuck-at bits: the corrupted words are in effect for the
//!   entire episode.
//!
//! Network policies are evaluated by the batched rollout of
//! [`mod@crate::rollout`] ([`crate::evaluate_policy_discrete_batched`],
//! [`crate::evaluate_policy_vision_batched`],
//! [`crate::evaluate_policy_vision_hooked_batched`]), generic over the
//! policy's [`Element`] type. This module holds what those evaluators build
//! on: the [`InferenceFaultMode`]s, the [`EvalElement`] glue (how
//! observations encode into the policy's storage type) and
//! [`corrupt_policy_weights`], with [`corrupt_network_weights`] as its `f32`
//! spelling. Tabular policies are evaluated by [`evaluate_tabular`], and
//! [`trace_policy_discrete`] records one greedy episode's actions as the
//! library-side reference for served traces.

use rand::Rng;

use navft_fault::{Injector, StoredWord};
use navft_nn::{argmax, Element, EngineConfig, ForwardHooks, NetworkBase, Scratch};
use navft_nn::{Network, Tensor, TensorBase};

use crate::{DiscreteEnvironment, EvalResult, QTable};

/// How inference-time faults afflict the policy storage during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceFaultMode {
    /// No faults: the clean baseline.
    None,
    /// Transient fault in a read register — corrupts one random step per
    /// episode (the paper's *Transient-1*).
    TransientSingleStep(Injector),
    /// Transient fault in memory — corrupts every step from a random step
    /// onwards (the paper's *Transient-M*).
    TransientFromRandomStep(Injector),
    /// Transient fault injected statically before the episode (used when the
    /// corrupted buffer is read-only weight memory).
    TransientWholeEpisode(Injector),
    /// Permanent stuck-at faults, in effect for the whole episode.
    Permanent(Injector),
}

impl InferenceFaultMode {
    /// The injector behind this mode, if any.
    pub fn injector(&self) -> Option<&Injector> {
        match self {
            InferenceFaultMode::None => None,
            InferenceFaultMode::TransientSingleStep(i)
            | InferenceFaultMode::TransientFromRandomStep(i)
            | InferenceFaultMode::TransientWholeEpisode(i)
            | InferenceFaultMode::Permanent(i) => Some(i),
        }
    }

    /// Whether faulty values are visible at step `step`, given the episode's
    /// randomly drawn onset step `onset`. The vectorized rollout driver uses
    /// this to split a batch tick into its clean and faulty row groups.
    pub(crate) fn faulty_at(&self, step: usize, onset: usize) -> bool {
        match self {
            InferenceFaultMode::None => false,
            InferenceFaultMode::TransientSingleStep(_) => step == onset,
            InferenceFaultMode::TransientFromRandomStep(_) => step >= onset,
            InferenceFaultMode::TransientWholeEpisode(_) | InferenceFaultMode::Permanent(_) => true,
        }
    }
}

/// Backend glue the generic evaluators need on top of [`Element`]: how task
/// observations become the policy's input storage, written once over
/// [`Element::from_f32`] (a bitwise copy for `f32`, a quantization into the
/// policy's format for `i32`, onto its affine grid for `i8`). A backend
/// supplies only [`EvalElement::word_bits`].
pub trait EvalElement: Element + StoredWord {
    /// A zeroed input buffer of `shape` compatible with `network`.
    fn input_buffer(shape: &[usize], network: &NetworkBase<Self>) -> TensorBase<Self> {
        TensorBase::quantize(&Tensor::zeros(shape), *network.net_meta())
    }

    /// Writes a one-hot encoding of `state` into `buf` (the value `1.0` in
    /// the backend's representation; every other word zero).
    ///
    /// # Panics
    ///
    /// Panics if `state` is not an index of `buf`.
    fn one_hot(state: usize, buf: &mut TensorBase<Self>) {
        let one = Self::from_f32(1.0, buf.meta());
        let words = buf.data_mut();
        assert!(state < words.len(), "state {state} out of range for {} states", words.len());
        words.fill(Self::default());
        words[state] = one;
    }

    /// Writes an `f32` observation into `buf` as this backend's input
    /// ([`TensorBase::quantize_from`]). The vectorized rollout calls it once
    /// per observation, as the observation arrives.
    fn encode_into(observation: &Tensor, buf: &mut TensorBase<Self>) {
        buf.quantize_from(observation);
    }

    /// The stored word's bit pattern as a `u32` (an `i8` byte
    /// zero-extended). Two staged inputs are the same input exactly when
    /// their words' bit patterns match, so `+0.0` and `-0.0`, or two NaN
    /// payloads, stay apart.
    fn word_bits(self) -> u32;
}

impl EvalElement for f32 {
    fn word_bits(self) -> u32 {
        self.to_bits()
    }
}

impl EvalElement for i32 {
    fn word_bits(self) -> u32 {
        self as u32
    }
}

impl EvalElement for i8 {
    fn word_bits(self) -> u32 {
        u32::from(self as u8)
    }
}

/// Evaluates a tabular policy greedily over `episodes` episodes of at most
/// `max_steps` steps, under the given inference fault mode.
pub fn evaluate_tabular<E, R>(
    env: &mut E,
    table: &QTable,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut R,
) -> EvalResult
where
    E: DiscreteEnvironment,
    R: Rng + ?Sized,
{
    let mut corrupted = table.clone();
    if let Some(injector) = fault.injector() {
        injector.corrupt(corrupted.values_mut());
    }

    let mut successes = 0usize;
    let mut total_reward = 0.0f64;
    for _ in 0..episodes {
        let onset = if max_steps > 0 { rng.gen_range(0..max_steps) } else { 0 };
        let mut state = env.reset();
        for step in 0..max_steps {
            let active = if fault.faulty_at(step, onset) { &corrupted } else { table };
            let action = active.best_action(state);
            let transition = env.step(action);
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

/// Returns a copy of `network` with the fault mode's injector applied to its
/// weight buffers (a no-op copy for [`InferenceFaultMode::None`]) — the
/// generic corruption entry point serving every backend.
///
/// The injector's fault map addresses the network's concatenated weight
/// space; each layer's buffer is corrupted through
/// [`Injector::corrupt_span`], whose [`StoredWord`] dispatch keeps the
/// quantize → corrupt → dequantize round trip of the `f32` backend in one
/// place while the native backend flips live words with single integer
/// operations.
pub fn corrupt_policy_weights<W: EvalElement>(
    network: &NetworkBase<W>,
    fault: &InferenceFaultMode,
) -> NetworkBase<W> {
    let mut corrupted = network.clone();
    if let Some(injector) = fault.injector() {
        let spans: Vec<(usize, std::ops::Range<usize>)> = corrupted
            .parametric_layers()
            .into_iter()
            .map(|i| (i, corrupted.weight_span(i)))
            .collect();
        for (layer, span) in spans {
            if let Some(weights) = corrupted.layer_weights_mut(layer) {
                injector.corrupt_span(span.start, weights);
            }
        }
    }
    corrupted
}

/// [`corrupt_policy_weights`] for the `f32` backend.
pub fn corrupt_network_weights(network: &Network, fault: &InferenceFaultMode) -> Network {
    corrupt_policy_weights(network, fault)
}

/// Runs one greedy episode of a discrete environment under `network`,
/// applying `hooks` to every forward pass, and returns the action taken at
/// each step — the library-side reference trace that served-vs-library
/// determinism checks compare against bit-for-bit.
///
/// One scratch and one encoding buffer serve the episode: `W::one_hot`
/// encoding, one forward pass per step, argmax over the final layer. The
/// episode ends at the first terminal transition or after `max_steps`
/// steps.
pub fn trace_policy_discrete<W, E, H>(
    env: &mut E,
    network: &NetworkBase<W>,
    max_steps: usize,
    hooks: &mut H,
) -> Vec<usize>
where
    W: EvalElement,
    E: DiscreteEnvironment,
    H: ForwardHooks<W>,
{
    let engine = EngineConfig::default();
    let mut scratch = Scratch::new();
    let mut encoded = W::input_buffer(&[env.num_states()], network);
    let mut trace = Vec::new();
    let mut state = env.reset();
    for _ in 0..max_steps {
        W::one_hot(state, &mut encoded);
        network.forward_batch_into_cfg(&[&encoded], &mut scratch, hooks, engine);
        let action = argmax(scratch.row(0));
        trace.push(action);
        let transition = env.step(action);
        state = transition.next_state;
        if transition.terminal {
            break;
        }
    }
    trace
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        evaluate_policy_discrete_batched, evaluate_policy_vision_batched,
        evaluate_policy_vision_hooked_batched, DiscreteTransition, DummyVecEnv, DummyVisionVecEnv,
        VisionEnvironment, VisionTransition,
    };
    use navft_fault::{BitFault, FaultKind, FaultMap, FaultSite, FaultTarget};
    use navft_nn::{mlp, NoHooks};
    use navft_qformat::QFormat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Three states in a row; the goal is state 2. Action 0 moves right,
    /// action 1 moves left (state 0 is a terminal pit).
    #[derive(Clone)]
    pub(crate) struct Line {
        pub(crate) position: usize,
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

    /// Evaluates `network` on clones of `Line` through the batched rollout.
    fn evaluate_line<W: EvalElement>(
        network: &NetworkBase<W>,
        episodes: usize,
        max_steps: usize,
        rng: &mut SmallRng,
    ) -> EvalResult {
        let mut venv = DummyVecEnv::from_prototype(&Line { position: 1 }, 4);
        let fault = InferenceFaultMode::None;
        let engine = EngineConfig::default();
        evaluate_policy_discrete_batched(
            &mut venv, network, episodes, max_steps, &fault, rng, engine,
        )
    }

    /// Evaluates `network` on clones of `StraightHall` through the batched
    /// rollout.
    fn evaluate_hall<W: EvalElement>(
        network: &NetworkBase<W>,
        episodes: usize,
        max_steps: usize,
        rng: &mut SmallRng,
    ) -> EvalResult {
        let mut venv = DummyVisionVecEnv::from_prototype(&StraightHall { remaining: 5 }, 4);
        let fault = InferenceFaultMode::None;
        let engine = EngineConfig::default();
        evaluate_policy_vision_batched(&mut venv, network, episodes, max_steps, &fault, rng, engine)
    }

    fn good_table() -> QTable {
        let mut table = QTable::new(3, 2, QFormat::Q3_4);
        table.set(1, 0, 1.0);
        table.set(1, 1, -1.0);
        table
    }

    #[test]
    fn clean_policy_always_succeeds() {
        let mut env = Line { position: 1 };
        let mut rng = SmallRng::seed_from_u64(0);
        let result =
            evaluate_tabular(&mut env, &good_table(), 50, 10, &InferenceFaultMode::None, &mut rng);
        assert_eq!(result.success_rate, 1.0);
        assert_eq!(result.episodes, 50);
        assert!(result.mean_reward > 0.9);
    }

    #[test]
    fn f32_inputs_are_bitwise_copies_through_the_generic_encoding() {
        let net = mlp(&[4, 2], &mut SmallRng::seed_from_u64(0));
        let bits = |t: &Tensor| {
            (t.shape().to_vec(), t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let nan_payload = f32::from_bits(0x7FC0_1234);
        let observation =
            Tensor::from_vec(&[2, 2], vec![-0.0, nan_payload, f32::NEG_INFINITY, 1.5]);
        let mut encoded = f32::input_buffer(&[4], &net);
        assert_eq!(bits(&encoded), bits(&Tensor::zeros(&[4])));
        f32::encode_into(&observation, &mut encoded);
        let mut assigned = Tensor::zeros(&[4]);
        assigned.assign(observation.shape(), observation.data());
        assert_eq!(bits(&encoded), bits(&assigned));

        let mut hot = f32::input_buffer(&[4], &net);
        let mut reference = Tensor::zeros(&[4]);
        for state in 0..4 {
            hot.data_mut().fill(-0.0);
            reference.data_mut().fill(nan_payload);
            f32::one_hot(state, &mut hot);
            crate::one_hot_into(state, 4, &mut reference);
            assert_eq!(bits(&hot), bits(&reference), "state {state}");
        }
    }

    fn flip_decision_injector() -> Injector {
        // Flip the sign bit of Q(1, 0) so the greedy action at state 1 becomes
        // "move left" into the pit.
        let map =
            FaultMap::from_faults(vec![BitFault { word: 2, bit: 7, kind: FaultKind::BitFlip }]);
        Injector::new(FaultTarget::new(FaultSite::TabularBuffer), QFormat::Q3_4, map)
    }

    #[test]
    fn whole_episode_fault_destroys_success() {
        let mut env = Line { position: 1 };
        let mut rng = SmallRng::seed_from_u64(1);
        let fault = InferenceFaultMode::TransientWholeEpisode(flip_decision_injector());
        let result = evaluate_tabular(&mut env, &good_table(), 50, 10, &fault, &mut rng);
        assert_eq!(result.success_rate, 0.0);
    }

    #[test]
    fn single_step_fault_is_milder_than_whole_episode_fault() {
        // In this environment one bad decision is fatal, so instead check the
        // two modes on a network policy where the fault does not change the
        // greedy action for most states.
        let mut env = Line { position: 1 };
        let mut rng = SmallRng::seed_from_u64(2);
        let single = InferenceFaultMode::TransientSingleStep(flip_decision_injector());
        let result_single = evaluate_tabular(&mut env, &good_table(), 200, 10, &single, &mut rng);
        let whole = InferenceFaultMode::TransientWholeEpisode(flip_decision_injector());
        let result_whole = evaluate_tabular(&mut env, &good_table(), 200, 10, &whole, &mut rng);
        // The single-step fault only matters when the corrupted step is the
        // first one (the episode lasts a single decision otherwise), so some
        // episodes still succeed — strictly more than under the whole-episode
        // fault.
        assert!(result_single.success_rate > result_whole.success_rate);
    }

    #[test]
    fn permanent_and_whole_episode_transients_match_for_read_only_tables() {
        let mut env = Line { position: 1 };
        let mut rng = SmallRng::seed_from_u64(3);
        let map =
            FaultMap::from_faults(vec![BitFault { word: 2, bit: 7, kind: FaultKind::StuckAt1 }]);
        let injector =
            Injector::new(FaultTarget::new(FaultSite::TabularBuffer), QFormat::Q3_4, map);
        let permanent = InferenceFaultMode::Permanent(injector);
        let result = evaluate_tabular(&mut env, &good_table(), 20, 10, &permanent, &mut rng);
        assert_eq!(result.success_rate, 0.0);
        assert!(permanent.injector().is_some());
        assert!(InferenceFaultMode::None.injector().is_none());
    }

    #[test]
    fn network_discrete_evaluation_runs_and_is_clean_without_faults() {
        let mut rng = SmallRng::seed_from_u64(4);
        // Hand-craft a network that always prefers action 0 (weights favour output 0).
        let mut net = mlp(&[3, 2], &mut rng);
        net.layer_weights_mut(0)
            .expect("weights")
            .copy_from_slice(&[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
        let result = evaluate_line(&net, 20, 10, &mut rng);
        assert_eq!(result.success_rate, 1.0);
    }

    /// A vision environment whose observation is constant; flying straight
    /// (action 0) covers distance 1 per step for 5 steps.
    #[derive(Clone)]
    pub(crate) struct StraightHall {
        pub(crate) remaining: usize,
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

    #[test]
    fn vision_evaluation_reports_mean_distance() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut net = mlp(&[4, 2], &mut rng);
        net.layer_weights_mut(0).expect("weights").copy_from_slice(
            &[1.0; 4].iter().chain([-1.0f32; 4].iter()).copied().collect::<Vec<f32>>(),
        );
        let result = evaluate_hall(&net, 4, 10, &mut rng);
        assert_eq!(result.mean_distance, 5.0);
        assert_eq!(result.episodes, 4);
    }

    #[test]
    fn vision_evaluation_with_hooks_can_corrupt_activations() {
        struct Negate;
        impl ForwardHooks for Negate {
            fn on_activation(&mut self, _i: usize, _k: navft_nn::LayerKind, values: &mut [f32]) {
                for v in values.iter_mut() {
                    *v = -*v;
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(6);
        let mut net = mlp(&[4, 2], &mut rng);
        net.layer_weights_mut(0).expect("weights").copy_from_slice(
            &[1.0; 4].iter().chain([-1.0f32; 4].iter()).copied().collect::<Vec<f32>>(),
        );
        let clean = evaluate_hall(&net, 4, 10, &mut rng);
        let mut venv = DummyVisionVecEnv::from_prototype(&StraightHall { remaining: 5 }, 4);
        let corrupted = evaluate_policy_vision_hooked_batched(
            &mut venv,
            &net,
            4,
            10,
            &InferenceFaultMode::None,
            &mut rng,
            |_| Negate,
            EngineConfig::default(),
        );
        assert!(corrupted.mean_distance < clean.mean_distance);
    }

    #[test]
    fn qnetwork_discrete_evaluation_matches_the_f32_backend() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut net = mlp(&[3, 2], &mut rng);
        net.layer_weights_mut(0)
            .expect("weights")
            .copy_from_slice(&[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
        let qnet = net.to_quantized(QFormat::Q3_4);
        let result = evaluate_line(&qnet, 20, 10, &mut SmallRng::seed_from_u64(9));
        assert_eq!(result.success_rate, 1.0);
    }

    #[test]
    fn i8_discrete_evaluation_matches_the_f32_backend() {
        let mut rng = SmallRng::seed_from_u64(14);
        let mut net = mlp(&[3, 2], &mut rng);
        net.layer_weights_mut(0)
            .expect("weights")
            .copy_from_slice(&[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
        let inet = navft_nn::I8Network::quantize(&net);
        let result = evaluate_line(&inet, 20, 10, &mut SmallRng::seed_from_u64(15));
        assert_eq!(result.success_rate, 1.0);
    }

    #[test]
    fn corrupt_i8_policy_weights_flips_live_bytes_in_the_faulted_span() {
        let mut rng = SmallRng::seed_from_u64(16);
        let net = mlp(&[3, 4, 2], &mut rng);
        let inet = navft_nn::I8Network::quantize(&net);
        let map =
            FaultMap::from_faults(vec![BitFault { word: 13, bit: 3, kind: FaultKind::BitFlip }]);
        let injector = Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q3_4, map);
        let corrupted =
            corrupt_policy_weights(&inet, &InferenceFaultMode::TransientWholeEpisode(injector));
        // Word 13 lives in the second linear layer (span 12..20).
        let layers = inet.parametric_layers();
        let span = inet.weight_span(layers[1]);
        assert!(span.contains(&13));
        let before = inet.layer_weights(layers[1]).expect("bytes");
        let after = corrupted.layer_weights(layers[1]).expect("bytes");
        let local = 13 - span.start;
        assert_eq!(after[local], before[local] ^ (1 << 3));
        assert_eq!(
            before.iter().zip(after.iter()).filter(|(a, b)| a != b).count(),
            1,
            "exactly one live byte changes"
        );
        assert_eq!(
            inet.layer_weights(layers[0]).expect("bytes"),
            corrupted.layer_weights(layers[0]).expect("bytes")
        );
    }

    #[test]
    fn qnetwork_vision_evaluation_reports_mean_distance() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut net = mlp(&[4, 2], &mut rng);
        net.layer_weights_mut(0).expect("weights").copy_from_slice(
            &[1.0; 4].iter().chain([-1.0f32; 4].iter()).copied().collect::<Vec<f32>>(),
        );
        let qnet = net.to_quantized(QFormat::Q4_11);
        let result = evaluate_hall(&qnet, 4, 10, &mut rng);
        assert_eq!(result.mean_distance, 5.0);
        assert_eq!(result.episodes, 4);
    }

    #[test]
    fn corrupt_qnetwork_weights_flips_live_words_in_the_faulted_span() {
        let mut rng = SmallRng::seed_from_u64(11);
        let net = mlp(&[3, 4, 2], &mut rng);
        let qnet = net.to_quantized(QFormat::Q4_11);
        let map =
            FaultMap::from_faults(vec![BitFault { word: 13, bit: 3, kind: FaultKind::BitFlip }]);
        let injector =
            Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q4_11, map);
        let corrupted =
            corrupt_policy_weights(&qnet, &InferenceFaultMode::TransientWholeEpisode(injector));
        // Word 13 lives in the second linear layer (span 12..20).
        let layers = qnet.parametric_layers();
        let span = qnet.weight_span(layers[1]);
        assert!(span.contains(&13));
        let before = qnet.layer_weights(layers[1]).expect("words");
        let after = corrupted.layer_weights(layers[1]).expect("words");
        let local = 13 - span.start;
        assert_eq!(after[local], ((before[local] ^ (1 << 3)) << 16) >> 16);
        assert_eq!(
            before.iter().zip(after.iter()).filter(|(a, b)| a != b).count(),
            1,
            "exactly one live word changes"
        );
        // The other layer is untouched.
        assert_eq!(
            qnet.layer_weights(layers[0]).expect("words"),
            corrupted.layer_weights(layers[0]).expect("words")
        );
    }

    #[test]
    fn corrupt_network_weights_only_touches_faulted_span() {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = mlp(&[3, 4, 2], &mut rng);
        let map =
            FaultMap::from_faults(vec![BitFault { word: 0, bit: 7, kind: FaultKind::StuckAt1 }]);
        let injector =
            Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q4_11, map);
        let corrupted =
            corrupt_network_weights(&net, &InferenceFaultMode::TransientWholeEpisode(injector));
        let diff: usize = net
            .flat_weights()
            .iter()
            .zip(corrupted.flat_weights().iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 1);
    }

    #[test]
    fn action_traces_are_reproducible_and_respect_hooks() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut net = mlp(&[3, 2], &mut rng);
        net.layer_weights_mut(0)
            .expect("weights")
            .copy_from_slice(&[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);

        // The clean greedy trace reaches the goal in one step, identically
        // across repeated runs and backends.
        let mut env = Line { position: 1 };
        let trace = trace_policy_discrete(&mut env, &net, 10, &mut NoHooks);
        assert_eq!(trace, vec![0]);
        assert_eq!(trace, trace_policy_discrete(&mut env, &net, 10, &mut NoHooks));
        let qnet = net.to_quantized(QFormat::Q4_11);
        assert_eq!(trace, trace_policy_discrete(&mut env, &qnet, 10, &mut NoHooks));

        // A sign-flipping activation hook inverts the decision.
        struct Negate;
        impl ForwardHooks for Negate {
            fn on_activation(&mut self, _i: usize, _k: navft_nn::LayerKind, values: &mut [f32]) {
                for v in values.iter_mut() {
                    *v = -*v;
                }
            }
        }
        let hooked = trace_policy_discrete(&mut env, &net, 10, &mut Negate);
        assert_eq!(hooked, vec![1]);
    }

    #[test]
    fn generic_discrete_evaluator_agrees_across_backends_on_a_clean_policy() {
        // The same hand-crafted always-go-right policy through both
        // instantiations of the one generic evaluator.
        let mut rng = SmallRng::seed_from_u64(12);
        let mut net = mlp(&[3, 2], &mut rng);
        net.layer_weights_mut(0)
            .expect("weights")
            .copy_from_slice(&[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
        let qnet = net.to_quantized(QFormat::Q4_11);
        let f32_result = evaluate_line(&net, 10, 10, &mut SmallRng::seed_from_u64(13));
        let q_result = evaluate_line(&qnet, 10, 10, &mut SmallRng::seed_from_u64(13));
        assert_eq!(f32_result.success_rate, q_result.success_rate);
        assert_eq!(f32_result.mean_reward, q_result.mean_reward);
    }
}
