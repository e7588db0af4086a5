//! Batch-width policy evaluation: the rollout driver that steps a
//! [`VecEnv`] in lockstep with **one** batched forward sweep per tick.
//!
//! This is the library's one network-policy evaluator. A serial loop would
//! run one forward pass per decision step, but the engine's blocked GEMM and
//! SIMD microkernels pay off with width. [`rollout`] keeps B episode rows in
//! flight, **quantizing on ingest**: every
//! observation is encoded into its row's backend-native staging buffer the
//! moment it arrives (at reset and after each step), so integer backends
//! pay the f32 → word conversion exactly once per observation and never
//! inside the forward sweep. Each tick gathers the active rows' staged
//! buffers by reference into a single
//! [`NetworkBase::forward_batch_into_cfg`] sweep and steps every
//! row's environment with its argmax action. Finished rows are immediately
//! reassigned to the next pending episode (auto-reset) until no episodes
//! remain, after which the batch drains raggedly.
//!
//! # Bit-exactness contract
//!
//! For reset-deterministic environments (see [`crate::vecenv`]), the
//! evaluators below are **bit-identical** to a serial per-episode loop (one
//! forward pass per step, episodes in order) at every batch width, on every
//! backend, under every fault mode and hook combination. The serial loop
//! lives in `tests/integration_rollout_equivalence.rs` as the oracle. The
//! pieces of the argument:
//!
//! * the engine guarantees each batch row equals a standalone pass at any
//!   [`EngineConfig`] (enforced by the `nn` equivalence suites);
//! * shared-RNG draws (the per-episode fault onset) happen in strict
//!   episode order: rows are assigned episodes in increasing order and
//!   each assignment performs exactly the serial loop's draw-then-
//!   `make_hooks`-then-reset sequence;
//! * a tick is split into its *clean* and *faulty* row groups via
//!   [`InferenceFaultMode`]'s per-step onset predicate, so each row's
//!   decision runs on exactly the network the serial loop would use;
//! * per-episode hooks ride their own row through [`DynRowHooks`], seeing
//!   only that episode's events in program order;
//! * results are folded from per-episode [`EpisodeTape`]s in episode-major,
//!   step-minor order — the serial accumulation order of the `f64` sums.

use rand::Rng;

use navft_nn::{argmax, DynRowHooks, EngineConfig, ForwardHooks, NetworkBase, NoHooks, Scratch};
use navft_nn::{Tensor, TensorBase};

use crate::eval::{corrupt_policy_weights, EvalElement, InferenceFaultMode};
use crate::vecenv::VecEnv;
use crate::EvalResult;

/// How a [`VecEnv`] observation encodes into a backend's input buffer —
/// the bridge letting one rollout driver serve discrete (one-hot) and
/// vision (frame) tasks on every backend.
pub trait RolloutObs<W: EvalElement> {
    /// Writes this observation into `buf` as the policy's input.
    fn encode(&self, buf: &mut TensorBase<W>);
}

impl<W: EvalElement> RolloutObs<W> for usize {
    fn encode(&self, buf: &mut TensorBase<W>) {
        W::one_hot(*self, buf);
    }
}

impl<W: EvalElement> RolloutObs<W> for Tensor {
    fn encode(&self, buf: &mut TensorBase<W>) {
        W::encode_into(self, buf);
    }
}

/// Everything one episode produced, in step order. The folds below replay
/// the serial loop's accumulation order from these tapes.
#[derive(Debug, Clone, Default)]
pub struct EpisodeTape {
    /// Reward of each step taken.
    pub rewards: Vec<f32>,
    /// Distance covered by each step taken (vision tasks; `0.0` rows
    /// otherwise).
    pub distances: Vec<f32>,
    /// Whether the episode's terminal transition reached the goal.
    pub reached_goal: bool,
}

/// One in-flight episode pinned to a batch row. The row's current
/// observation lives already-encoded in the rollout's staging pool, not
/// here: ingest quantizes it once on arrival.
struct RowState<H> {
    episode: usize,
    onset: usize,
    step: usize,
    hooks: H,
    tape: EpisodeTape,
}

/// Rolls `episodes` greedy episodes of `venv` under `network`, evaluating
/// up to `venv.width()` episodes per batched forward sweep, and returns
/// each episode's tape (indexed by episode).
///
/// This is the generic core behind [`evaluate_policy_discrete_batched`]
/// and [`evaluate_policy_vision_batched`]; it is public so benchmarks and
/// tests can drive it directly. `make_hooks` is called once per episode, in
/// episode order, before that episode's reset.
#[allow(clippy::too_many_arguments)]
pub fn rollout<W, V, R, H, F>(
    venv: &mut V,
    network: &NetworkBase<W>,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut R,
    mut make_hooks: F,
    config: EngineConfig,
) -> Vec<EpisodeTape>
where
    W: EvalElement,
    V: VecEnv,
    V::Obs: RolloutObs<W>,
    R: Rng + ?Sized,
    H: ForwardHooks<W>,
    F: FnMut(usize) -> H,
{
    if episodes == 0 {
        return Vec::new();
    }
    if max_steps == 0 {
        // The serial loops still reset the environment and build hooks per
        // episode (with no onset draw), then take zero steps.
        let mut tapes = Vec::with_capacity(episodes);
        for episode in 0..episodes {
            let _hooks = make_hooks(episode);
            let _ = venv.reset_row(0);
            tapes.push(EpisodeTape::default());
        }
        return tapes;
    }

    let corrupted = corrupt_policy_weights(network, fault);
    let width = venv.width().min(episodes);
    let shape = venv.obs_shape();

    // Quantize-on-ingest staging: each row owns one backend-native input
    // buffer, written exactly once per observation the moment it arrives.
    // One shared scratch serves every tick; once warm, a tick performs no
    // heap allocation beyond tape pushes and the per-tick group vectors.
    let mut staged: Vec<TensorBase<W>> =
        (0..width).map(|_| W::input_buffer(&shape, network)).collect();
    let mut scratch = Scratch::new();
    let mut actions = vec![0usize; width];

    let mut tapes: Vec<Option<EpisodeTape>> = (0..episodes).map(|_| None).collect();
    let mut next_episode = 0usize;

    // Episode assignment performs the serial loop's per-episode
    // sequence — onset draw, `make_hooks`, reset — so the shared RNG is
    // consumed in exactly the serial order; the reset observation is
    // ingested (encoded) immediately. Encoding consumes no randomness, so
    // moving it off the tick loop cannot reorder RNG draws.
    let assign = |venv: &mut V,
                  rng: &mut R,
                  make_hooks: &mut F,
                  next_episode: &mut usize,
                  row: usize,
                  buf: &mut TensorBase<W>| {
        let episode = *next_episode;
        *next_episode += 1;
        let onset = rng.gen_range(0..max_steps);
        let hooks = make_hooks(episode);
        venv.reset_row(row).encode(buf);
        RowState { episode, onset, step: 0, hooks, tape: EpisodeTape::default() }
    };

    let mut rows: Vec<Option<RowState<H>>> = Vec::with_capacity(width);
    for (row, buf) in staged.iter_mut().enumerate() {
        rows.push(Some(assign(venv, rng, &mut make_hooks, &mut next_episode, row, buf)));
    }
    let mut live = width;

    while live > 0 {
        // Partition the tick into its clean and faulty row groups, gather
        // each group's staged input buffers by reference, and collect each
        // group's hooks — one pass, in row order, so group-internal order
        // matches row order. No observation is (re-)encoded here.
        let mut clean_rows: Vec<usize> = Vec::new();
        let mut faulty_rows: Vec<usize> = Vec::new();
        let mut clean_inputs: Vec<&TensorBase<W>> = Vec::new();
        let mut faulty_inputs: Vec<&TensorBase<W>> = Vec::new();
        let mut clean_hooks: Vec<&mut dyn ForwardHooks<W>> = Vec::new();
        let mut faulty_hooks: Vec<&mut dyn ForwardHooks<W>> = Vec::new();
        for ((row, slot), buf) in rows.iter_mut().enumerate().zip(staged.iter()) {
            let Some(state) = slot.as_mut() else { continue };
            if fault.faulty_at(state.step, state.onset) {
                faulty_rows.push(row);
                faulty_inputs.push(buf);
                faulty_hooks.push(&mut state.hooks);
            } else {
                clean_rows.push(row);
                clean_inputs.push(buf);
                clean_hooks.push(&mut state.hooks);
            }
        }

        // One batched sweep per group; actions are read out of the shared
        // scratch before the second sweep reuses it.
        if !clean_rows.is_empty() {
            let mut hooks = DynRowHooks::new(clean_hooks);
            network.forward_batch_into_cfg(&clean_inputs, &mut scratch, &mut hooks, config);
            for (k, &row) in clean_rows.iter().enumerate() {
                actions[row] = argmax(scratch.row(k));
            }
        }
        if !faulty_rows.is_empty() {
            let mut hooks = DynRowHooks::new(faulty_hooks);
            corrupted.forward_batch_into_cfg(&faulty_inputs, &mut scratch, &mut hooks, config);
            for (k, &row) in faulty_rows.iter().enumerate() {
                actions[row] = argmax(scratch.row(k));
            }
        }

        // Step every active row in row order, ingesting each new
        // observation into the row's staging buffer as it arrives; finished
        // rows immediately pick up the next pending episode, or drain out.
        for ((row, slot), buf) in rows.iter_mut().enumerate().zip(staged.iter_mut()) {
            let Some(state) = slot.as_mut() else { continue };
            let outcome = venv.step_row(row, actions[row]);
            state.tape.rewards.push(outcome.reward);
            state.tape.distances.push(outcome.distance);
            outcome.observation.encode(buf);
            state.step += 1;
            if outcome.terminal || state.step == max_steps {
                if outcome.terminal {
                    state.tape.reached_goal = outcome.reached_goal;
                }
                let finished = slot.take().expect("active row");
                tapes[finished.episode] = Some(finished.tape);
                if next_episode < episodes {
                    *slot = Some(assign(venv, rng, &mut make_hooks, &mut next_episode, row, buf));
                } else {
                    live -= 1;
                }
            }
        }
    }

    tapes.into_iter().map(|tape| tape.expect("every episode finished")).collect()
}

/// Folds tapes in the serial discrete loop's accumulation order.
fn fold_discrete(tapes: &[EpisodeTape], episodes: usize) -> EvalResult {
    let mut successes = 0usize;
    let mut total_reward = 0.0f64;
    for tape in tapes {
        for &reward in &tape.rewards {
            total_reward += f64::from(reward);
        }
        if tape.reached_goal {
            successes += 1;
        }
    }
    EvalResult {
        success_rate: successes as f64 / episodes.max(1) as f64,
        mean_reward: total_reward / episodes.max(1) as f64,
        mean_distance: 0.0,
        episodes,
    }
}

/// Folds tapes in the serial vision loop's accumulation order.
fn fold_vision(tapes: &[EpisodeTape], episodes: usize) -> EvalResult {
    let mut total_reward = 0.0f64;
    let mut total_distance = 0.0f64;
    for tape in tapes {
        for (&reward, &distance) in tape.rewards.iter().zip(tape.distances.iter()) {
            total_reward += f64::from(reward);
            total_distance += f64::from(distance);
        }
    }
    EvalResult {
        success_rate: 0.0,
        mean_reward: total_reward / episodes.max(1) as f64,
        mean_distance: total_distance / episodes.max(1) as f64,
        episodes,
    }
}

/// Evaluates a policy of any backend on a discrete environment (one-hot
/// inputs) under the given inference fault mode applied to the policy's
/// weight storage, with one batched forward sweep per decision tick.
pub fn evaluate_policy_discrete_batched<W, V, R>(
    venv: &mut V,
    network: &NetworkBase<W>,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut R,
    config: EngineConfig,
) -> EvalResult
where
    W: EvalElement,
    V: VecEnv,
    V::Obs: RolloutObs<W>,
    R: Rng + ?Sized,
{
    let tapes = rollout(venv, network, episodes, max_steps, fault, rng, |_| NoHooks, config);
    fold_discrete(&tapes, episodes)
}

/// Evaluates a policy of any backend on a vision environment (the drone
/// task) under the given weight fault mode, reporting Mean Safe Flight in
/// [`EvalResult::mean_distance`].
pub fn evaluate_policy_vision_batched<W, V, R>(
    venv: &mut V,
    network: &NetworkBase<W>,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut R,
    config: EngineConfig,
) -> EvalResult
where
    W: EvalElement,
    V: VecEnv,
    V::Obs: RolloutObs<W>,
    R: Rng + ?Sized,
{
    evaluate_policy_vision_hooked_batched(
        venv,
        network,
        episodes,
        max_steps,
        fault,
        rng,
        |_| NoHooks,
        config,
    )
}

/// Like [`evaluate_policy_vision_batched`], but additionally attaches
/// per-episode hooks built by `make_hooks` — the mechanism used to inject
/// dynamic faults into input and activation buffers (Fig. 7c) and to run
/// the range-based anomaly detector during inference (Fig. 10). Hooks
/// observe whichever representation the backend stores (`f32` values or
/// live raw words).
///
/// `make_hooks` is called once per episode in episode order and each
/// episode's hooks observe only that episode's forward events, riding
/// their own batch row through [`DynRowHooks`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_policy_vision_hooked_batched<W, V, R, H, F>(
    venv: &mut V,
    network: &NetworkBase<W>,
    episodes: usize,
    max_steps: usize,
    fault: &InferenceFaultMode,
    rng: &mut R,
    make_hooks: F,
    config: EngineConfig,
) -> EvalResult
where
    W: EvalElement,
    V: VecEnv,
    V::Obs: RolloutObs<W>,
    R: Rng + ?Sized,
    H: ForwardHooks<W>,
    F: FnMut(usize) -> H,
{
    let tapes = rollout(venv, network, episodes, max_steps, fault, rng, make_hooks, config);
    fold_vision(&tapes, episodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::Line;
    use crate::vecenv::DummyVecEnv;
    use navft_nn::mlp;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn go_right_policy() -> navft_nn::Network {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut net = mlp(&[3, 2], &mut rng);
        net.layer_weights_mut(0)
            .expect("weights")
            .copy_from_slice(&[1.0, 1.0, 1.0, -1.0, -1.0, -1.0]);
        net
    }

    #[test]
    fn zero_episode_and_zero_step_edges_match_serial() {
        let net = go_right_policy();
        let mut venv = DummyVecEnv::from_prototype(&Line { position: 1 }, 4);
        let empty = evaluate_policy_discrete_batched(
            &mut venv,
            &net,
            0,
            10,
            &InferenceFaultMode::None,
            &mut SmallRng::seed_from_u64(0),
            EngineConfig::default(),
        );
        assert_eq!(empty.success_rate, 0.0);
        assert_eq!(empty.episodes, 0);

        // max_steps == 0 must consume no RNG draws, like the serial loop.
        let mut rng = SmallRng::seed_from_u64(9);
        let stepless = evaluate_policy_discrete_batched(
            &mut venv,
            &net,
            3,
            0,
            &InferenceFaultMode::None,
            &mut rng,
            EngineConfig::default(),
        );
        assert_eq!(stepless.success_rate, 0.0);
        let mut reference = SmallRng::seed_from_u64(9);
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn rollout_tapes_record_ragged_episode_lengths() {
        let net = go_right_policy();
        let mut venv = DummyVecEnv::from_prototype(&Line { position: 1 }, 2);
        let tapes = rollout(
            &mut venv,
            &net,
            5,
            10,
            &InferenceFaultMode::None,
            &mut SmallRng::seed_from_u64(3),
            |_| NoHooks,
            EngineConfig::default(),
        );
        assert_eq!(tapes.len(), 5);
        for tape in &tapes {
            assert_eq!(tape.rewards.len(), 1, "go-right reaches the goal in one step");
            assert!(tape.reached_goal);
        }
    }
}
