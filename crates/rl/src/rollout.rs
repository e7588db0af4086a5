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
//! A sweep computes each **distinct** input once. A row whose hooks observe
//! nothing ([`ForwardHooks::observes`] is `false`, as for [`NoHooks`]) and
//! whose staged input matches, bit for bit, that of an earlier such row of
//! its group reads its action from that row's output instead of adding a
//! row to the sweep. The search visits only the group's earlier inert sweep
//! rows and stops each compare at the first block of words that differs.
//! Under a static fault (or none) on a reset-deterministic environment
//! every row flies the same trajectory, so a tick sweeps one row, not B;
//! when inert rows all differ, a tick pays up to B²/2 compares.
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
//! * hence rows whose hooks observe nothing and whose staged inputs are
//!   bit-identical may share one sweep row: engine rows are independent,
//!   so the shared row's output is each of those rows' own output. Sharing
//!   is decided on bit patterns ([`EvalElement::word_bits`]), never on `==`,
//!   so `+0.0`/`-0.0` and distinct NaN payloads stay apart. It changes no
//!   row's hooks, RNG draw, tape or environment step — only how many rows
//!   the sweep computes;
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

/// Whether two staged inputs hold the same words, bit for bit. Words are
/// compared a block at a time (an OR of XORs, which vectorizes), and the
/// compare stops at the first block that differs.
fn same_bits<W: EvalElement>(a: &TensorBase<W>, b: &TensorBase<W>) -> bool {
    const BLOCK: usize = 64;
    let differs = |(x, y): (&[W], &[W])| {
        x.iter().zip(y).fold(0, |diff, (&p, &q)| diff | (p.word_bits() ^ q.word_bits())) != 0
    };
    a.shape() == b.shape() && !a.data().chunks(BLOCK).zip(b.data().chunks(BLOCK)).any(differs)
}

/// One tick's clean or faulty row group and the sweep that serves it. Rows
/// whose hooks observe nothing and whose staged inputs are bit-identical
/// share one sweep row; every other row gets its own.
struct SweepGroup<'a, W: EvalElement> {
    /// Each member row and the sweep row it reads its action from, in row
    /// order.
    members: Vec<(usize, usize)>,
    /// The sweep's inputs, one per sweep row.
    inputs: Vec<&'a TensorBase<W>>,
    /// Each sweep row's hooks.
    hooks: Vec<&'a mut dyn ForwardHooks<W>>,
    /// The sweep rows opened by rows whose hooks observe nothing: the only
    /// sweep rows a later member may share.
    shareable: Vec<usize>,
}

impl<'a, W: EvalElement> SweepGroup<'a, W> {
    fn new() -> SweepGroup<'a, W> {
        SweepGroup {
            members: Vec::new(),
            inputs: Vec::new(),
            hooks: Vec::new(),
            shareable: Vec::new(),
        }
    }

    /// Adds `row` to the group. If its hooks observe nothing it reuses the
    /// first shareable sweep row whose input is bit-identical to its own
    /// (its hooks are then never called); otherwise it opens a sweep row of
    /// its own.
    fn join(&mut self, row: usize, input: &'a TensorBase<W>, hooks: &'a mut dyn ForwardHooks<W>) {
        let inert = !hooks.observes();
        let shared = if inert {
            self.shareable.iter().copied().find(|&s| same_bits(input, self.inputs[s]))
        } else {
            None
        };
        let sweep_row = shared.unwrap_or_else(|| {
            let opened = self.inputs.len();
            if inert {
                self.shareable.push(opened);
            }
            self.inputs.push(input);
            self.hooks.push(hooks);
            opened
        });
        self.members.push((row, sweep_row));
    }

    /// Runs the group's one batched sweep on `network` and writes every
    /// member row's argmax action.
    fn sweep(
        self,
        network: &NetworkBase<W>,
        scratch: &mut Scratch<W>,
        config: EngineConfig,
        actions: &mut [usize],
    ) {
        if self.members.is_empty() {
            return;
        }
        let mut hooks = DynRowHooks::new(self.hooks);
        network.forward_batch_into_cfg(&self.inputs, scratch, &mut hooks, config);
        for (row, sweep_row) in self.members {
            actions[row] = argmax(scratch.row(sweep_row));
        }
    }
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
    // One shared scratch serves every tick; once warm, a tick's heap
    // allocations are its tape pushes and the two sweep groups' vectors.
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
        // matches row order. No observation is (re-)encoded here. Within a
        // group, rows whose hooks observe nothing and whose staged inputs
        // are bit-identical share one sweep row.
        let mut clean = SweepGroup::new();
        let mut faulty = SweepGroup::new();
        for ((row, slot), buf) in rows.iter_mut().enumerate().zip(staged.iter()) {
            let Some(state) = slot.as_mut() else { continue };
            let group =
                if fault.faulty_at(state.step, state.onset) { &mut faulty } else { &mut clean };
            group.join(row, buf, &mut state.hooks);
        }

        // One batched sweep per group; actions are read out of the shared
        // scratch before the second sweep reuses it.
        clean.sweep(network, &mut scratch, config, &mut actions);
        faulty.sweep(&corrupted, &mut scratch, config, &mut actions);

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
    use crate::eval::tests::{Line, StraightHall};
    use crate::vecenv::{DummyVecEnv, DummyVisionVecEnv, RowStep};
    use navft_fault::{BitFault, FaultKind, FaultMap, FaultSite, FaultTarget, Injector};
    use navft_nn::{mlp, Element, I8Network, QNetwork};
    use navft_qformat::QFormat;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

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

    /// What a probed rollout did, in call order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Event {
        /// A sweep fed one input row to a probe.
        Swept,
        /// The rollout stepped one row's environment.
        Stepped,
    }

    type Log = Rc<RefCell<Vec<Event>>>;

    /// Clones of [`StraightHall`] (a constant frame, five steps whatever
    /// the policy does), logging every row step.
    struct LoggedHall {
        inner: DummyVisionVecEnv<StraightHall>,
        log: Log,
    }

    impl VecEnv for LoggedHall {
        type Obs = Tensor;
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn num_actions(&self) -> usize {
            self.inner.num_actions()
        }
        fn obs_shape(&self) -> Vec<usize> {
            self.inner.obs_shape()
        }
        fn reset_row(&mut self, row: usize) -> Tensor {
            self.inner.reset_row(row)
        }
        fn step_row(&mut self, row: usize, action: usize) -> RowStep<Tensor> {
            self.log.borrow_mut().push(Event::Stepped);
            self.inner.step_row(row, action)
        }
    }

    /// Logs every input row a sweep feeds it, and declares `observes` as
    /// told — so with `observes == false` it counts the rows the rollout
    /// actually sweeps.
    struct Probe {
        observes: bool,
        log: Log,
    }

    impl ForwardHooks for Probe {
        fn on_input(&mut self, _values: &mut [f32]) {
            self.log.borrow_mut().push(Event::Swept);
        }
        fn observes(&self) -> bool {
            self.observes
        }
    }

    /// Rolls 16 five-step episodes at width 8 under `fault` with one probe
    /// per episode and returns the number of rows swept at each tick.
    fn swept_rows_per_tick(fault: &InferenceFaultMode, observes: bool) -> Vec<usize> {
        let log = Log::default();
        let mut venv = LoggedHall {
            inner: DummyVisionVecEnv::from_prototype(&StraightHall { remaining: 5 }, 8),
            log: log.clone(),
        };
        let net = mlp(&[4, 2], &mut SmallRng::seed_from_u64(6));
        let tapes = rollout(
            &mut venv,
            &net,
            16,
            10,
            fault,
            &mut SmallRng::seed_from_u64(8),
            |_| Probe { observes, log: log.clone() },
            EngineConfig::default(),
        );
        assert!(tapes.iter().all(|tape| tape.rewards.len() == 5));
        let events = log.borrow();
        // A tick is its sweeps followed by its row steps.
        events
            .split(|event| *event == Event::Stepped)
            .map(<[Event]>::len)
            .filter(|&n| n > 0)
            .collect()
    }

    fn weight_injector() -> Injector {
        let map =
            FaultMap::from_faults(vec![BitFault { word: 0, bit: 7, kind: FaultKind::BitFlip }]);
        Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q3_4, map)
    }

    #[test]
    fn inert_rows_with_identical_inputs_share_one_sweep_row() {
        // Two waves of eight five-step episodes: ten ticks, and every row's
        // staged frame is the same at every tick.
        let none = InferenceFaultMode::None;
        assert_eq!(swept_rows_per_tick(&none, false), vec![1; 10], "none");
        let whole = InferenceFaultMode::TransientWholeEpisode(weight_injector());
        assert_eq!(swept_rows_per_tick(&whole, false), vec![1; 10], "whole-episode");

        // A single-step fault splits a tick into a clean and a faulty group,
        // each sweeping one row.
        let single = InferenceFaultMode::TransientSingleStep(weight_injector());
        let per_tick = swept_rows_per_tick(&single, false);
        assert_eq!(per_tick.len(), 10);
        assert!(per_tick.iter().all(|&rows| rows == 1 || rows == 2), "{per_tick:?}");
        assert!(per_tick.contains(&2), "some tick must sweep both groups: {per_tick:?}");
    }

    #[test]
    fn observing_rows_never_share_a_sweep_row() {
        for fault in [
            InferenceFaultMode::None,
            InferenceFaultMode::TransientSingleStep(weight_injector()),
            InferenceFaultMode::TransientWholeEpisode(weight_injector()),
        ] {
            assert_eq!(swept_rows_per_tick(&fault, true), vec![8; 10], "{fault:?}");
        }
    }

    /// A hook that does nothing yet keeps the default `observes() == true`.
    #[derive(Clone)]
    struct Opaque;

    impl<E: Element> ForwardHooks<E> for Opaque {}

    /// How many sweep rows `rows` occupy when joined into one group in
    /// order, row `i` riding an observing hook exactly when `observing[i]`.
    fn sweep_rows<W: EvalElement>(rows: &[TensorBase<W>], observing: &[bool]) -> usize {
        let mut inert = vec![NoHooks; rows.len()];
        let mut opaque = vec![Opaque; rows.len()];
        let mut group = SweepGroup::new();
        let hooks = inert.iter_mut().zip(opaque.iter_mut()).zip(observing);
        for (row, (input, ((inert, opaque), &observes))) in rows.iter().zip(hooks).enumerate() {
            let hooks: &mut dyn ForwardHooks<W> = if observes { opaque } else { inert };
            group.join(row, input, hooks);
        }
        assert_eq!(group.members.len(), rows.len());
        group.inputs.len()
    }

    /// Two-word staged inputs of `network`'s backend holding `words`.
    fn staged<W: EvalElement>(network: &NetworkBase<W>, words: &[[W; 2]]) -> Vec<TensorBase<W>> {
        words
            .iter()
            .map(|pair| {
                let mut buf = W::input_buffer(&[2], network);
                buf.data_mut().copy_from_slice(pair);
                buf
            })
            .collect()
    }

    /// Asserts `rows`, all riding inert hooks, occupy `expected` sweep rows.
    fn assert_sweep_rows<W: EvalElement>(rows: &[TensorBase<W>], expected: usize, context: &str) {
        assert_eq!(sweep_rows(rows, &vec![false; rows.len()]), expected, "{context}");
    }

    #[test]
    fn sweep_rows_are_shared_on_bit_patterns_not_equality() {
        let net = mlp(&[2, 2], &mut SmallRng::seed_from_u64(1));
        let quiet_nan = f32::from_bits(0x7FC0_0000);
        let other_nan = f32::from_bits(0x7FC0_0001);
        assert_sweep_rows(&staged(&net, &[[0.5, 1.0], [0.5, 1.0]]), 1, "identical f32");
        assert_sweep_rows(&staged(&net, &[[0.0, 1.0], [-0.0, 1.0]]), 2, "signed zeros");
        assert_sweep_rows(&staged(&net, &[[quiet_nan, 1.0], [other_nan, 1.0]]), 2, "NaN payloads");
        assert_sweep_rows(&staged(&net, &[[quiet_nan, 1.0], [quiet_nan, 1.0]]), 1, "same NaN");

        // A difference past the first block of words still keeps rows apart.
        let long = |last: f32| {
            let mut buf = f32::input_buffer(&[130], &net);
            buf.data_mut()[129] = last;
            buf
        };
        assert_sweep_rows(&[long(0.0), long(0.0)], 1, "identical long f32");
        assert_sweep_rows(&[long(0.0), long(-0.0)], 2, "last word's sign");

        let qnet = QNetwork::quantize(&net, QFormat::Q4_11);
        assert_sweep_rows(&staged(&qnet, &[[7, -3], [7, -3]]), 1, "identical i32");
        assert_sweep_rows(&staged(&qnet, &[[7, -3], [7, -2], [7, -3]]), 2, "one i32 word");
        let inet = I8Network::quantize(&net);
        assert_sweep_rows(&staged(&inet, &[[7, -3], [7, -3]]), 1, "identical i8");
        assert_sweep_rows(&staged(&inet, &[[7, -3], [-7, -3]]), 2, "one i8 word");

        // Rows whose hooks observe never share, and no inert row shares an
        // observing row's sweep row.
        let same = staged(&net, &[[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]]);
        assert_eq!(sweep_rows(&same, &[true, true, true]), 3);
        assert_eq!(sweep_rows(&same, &[true, false, false]), 2);
        assert_eq!(sweep_rows(&same, &[false, true, false]), 2);
    }
}
