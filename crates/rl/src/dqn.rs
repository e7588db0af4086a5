use rand::Rng;

use navft_nn::{argmax, EngineConfig, ForwardTrace, Network, NoHooks, Scratch, Tensor};

use crate::{EpsilonSchedule, ReplayBuffer};

/// Hyper-parameters of the (Double) DQN agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Mini-batch size per learning step.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Number of episodes between target-network synchronisations.
    pub target_sync_every: usize,
    /// Whether to use the Double DQN target (the drone task) or the vanilla
    /// DQN target (sufficient for Grid World).
    pub double_dqn: bool,
    /// Index of the first trainable layer; lower layers stay frozen
    /// (transfer-learning fine-tuning of the fully-connected tail).
    pub trainable_from: usize,
}

impl Default for DqnConfig {
    /// The Grid World NN-policy configuration: γ = 0.9, lr = 0.05, batch 16.
    fn default() -> Self {
        DqnConfig {
            gamma: 0.9,
            learning_rate: 0.05,
            batch_size: 16,
            replay_capacity: 4096,
            target_sync_every: 10,
            double_dqn: false,
            trainable_from: 0,
        }
    }
}

impl DqnConfig {
    /// The drone-task configuration: Double DQN with experience replay and a
    /// frozen convolutional feature extractor (only the fully-connected tail
    /// is fine-tuned online), mirroring the transfer-learning setup of the
    /// paper.
    pub fn drone(trainable_from: usize) -> DqnConfig {
        DqnConfig {
            gamma: 0.95,
            learning_rate: 0.01,
            batch_size: 8,
            replay_capacity: 2048,
            target_sync_every: 5,
            double_dqn: true,
            trainable_from,
        }
    }
}

/// A (Double) DQN agent: an online network, a target network, an ε-greedy
/// behaviour policy and an experience-replay buffer.
///
/// The agent's networks expose their weight buffers (via
/// [`DqnAgent::network_mut`]) so fault injectors can corrupt them exactly as
/// they would corrupt accelerator weight memory.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    online: Network,
    target: Network,
    config: DqnConfig,
    /// The exploration schedule (public so the training-time mitigation can
    /// adjust it).
    pub epsilon: EpsilonSchedule,
    replay: ReplayBuffer,
    input_shape: Vec<usize>,
    episodes_since_sync: usize,
    // Preallocated learning-step workspace: the sampled slot indices, the
    // batched bootstrap sweep and the per-transition traced pass reuse these
    // across learn() calls, so a warm learning step performs no heap
    // allocation.
    batch: Vec<usize>,
    scratch: Scratch,
    trace: ForwardTrace,
    next_batch: Vec<Tensor>,
    target_q: Vec<f32>,
    state_buf: Tensor,
    grad: Vec<f32>,
}

impl DqnAgent {
    /// Creates an agent around `network`, which consumes observations of
    /// `input_shape`.
    pub fn new(
        network: Network,
        input_shape: &[usize],
        epsilon: EpsilonSchedule,
        config: DqnConfig,
    ) -> DqnAgent {
        let target = network.clone();
        DqnAgent {
            online: network,
            target,
            replay: ReplayBuffer::new(config.replay_capacity),
            config,
            epsilon,
            input_shape: input_shape.to_vec(),
            episodes_since_sync: 0,
            batch: Vec::new(),
            scratch: Scratch::new(),
            trace: ForwardTrace::new(),
            next_batch: Vec::new(),
            target_q: Vec::new(),
            state_buf: Tensor::zeros(&[1]),
            grad: Vec::new(),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> DqnConfig {
        self.config
    }

    /// The online (behaviour) network.
    pub fn network(&self) -> &Network {
        &self.online
    }

    /// The online network, mutably — the weight-fault injection surface.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.online
    }

    /// The replay buffer.
    pub fn replay(&self) -> &ReplayBuffer {
        &self.replay
    }

    /// The expected observation shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Computes the Q-values of `state` with the online network.
    pub fn q_values(&self, state: &Tensor) -> Tensor {
        self.online.forward(state)
    }

    /// The greedy action for `state`, evaluated through a caller-provided
    /// [`Scratch`] so episode loops allocate nothing per step.
    pub fn greedy_action(&self, state: &Tensor, scratch: &mut Scratch) -> usize {
        self.online.forward_batch_into_cfg(
            &[state],
            scratch,
            &mut NoHooks,
            EngineConfig::default(),
        );
        argmax(scratch.row(0))
    }

    /// Chooses an action ε-greedily, evaluating the greedy branch through a
    /// caller-provided [`Scratch`].
    pub fn act<R: Rng + ?Sized>(
        &self,
        state: &Tensor,
        rng: &mut R,
        scratch: &mut Scratch,
    ) -> usize {
        if rng.gen_bool(self.epsilon.epsilon().clamp(0.0, 1.0)) {
            rng.gen_range(0..self.num_actions())
        } else {
            self.greedy_action(state, scratch)
        }
    }

    /// Number of actions (the output width of the network).
    pub fn num_actions(&self) -> usize {
        self.online
            .layers()
            .iter()
            .rev()
            .find_map(|l| match l {
                navft_nn::Layer::Linear(linear) => Some(linear.out_features),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Stores a transition in the replay buffer.
    ///
    /// # Panics
    ///
    /// Panics if either observation's length differs from the element count
    /// of [`DqnAgent::input_shape`].
    pub fn observe(
        &mut self,
        state: &Tensor,
        action: usize,
        reward: f32,
        next_state: &Tensor,
        terminal: bool,
    ) {
        let expected: usize = self.input_shape.iter().product();
        assert!(
            state.len() == expected && next_state.len() == expected,
            "DqnAgent::observe: observations must have {expected} elements (input shape {:?}), \
             got state {} and next state {}",
            self.input_shape,
            state.len(),
            next_state.len()
        );
        self.replay.push(state.data(), action, reward, next_state.data(), terminal);
    }

    /// Runs one mini-batch SGD learning step; a no-op until the replay buffer
    /// holds at least one batch.
    ///
    /// The minibatch is a list of sampled replay slots; each observation is
    /// decoded straight from the replay buffer into the tensor that stages
    /// it. The bootstrap targets are computed with **one batched sweep** of
    /// the target network over the whole minibatch of next states (the
    /// target is frozen for the duration of a learning step, so this is
    /// bit-identical to the per-transition passes it replaced — pinned by
    /// the golden-digest regression test). With Double DQN the online
    /// network's action selection still runs per transition, because the
    /// online weights evolve within the loop; it reuses the agent's scratch
    /// instead of allocating.
    pub fn learn<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.replay.len() < self.config.batch_size {
            return;
        }
        self.replay.sample_indices(self.config.batch_size, rng, &mut self.batch);
        let lr = self.config.learning_rate / self.config.batch_size as f32;
        self.state_buf.resize_to(&self.input_shape);

        // Batched bootstrap: target Q-values of every next state in one
        // layer-sweeping pass through the preallocated scratch.
        let rows = self.batch.len();
        for _ in self.next_batch.len()..rows {
            self.next_batch.push(Tensor::zeros(&[1]));
        }
        self.next_batch.truncate(rows);
        for (slot, &index) in self.next_batch.iter_mut().zip(self.batch.iter()) {
            slot.resize_to(&self.input_shape);
            self.replay.decode_next_state(index, slot.data_mut());
        }
        self.target.forward_batch_into_cfg(
            &self.next_batch,
            &mut self.scratch,
            &mut NoHooks,
            EngineConfig::default(),
        );
        let actions = self.scratch.row_len();
        self.target_q.clear();
        for row in 0..rows {
            self.target_q.extend_from_slice(self.scratch.row(row));
        }

        for (row, &index) in self.batch.iter().enumerate() {
            let (action, reward) = (self.replay.action(index), self.replay.reward(index));
            let target_value = if self.replay.terminal(index) {
                reward
            } else {
                let target_row = &self.target_q[row * actions..(row + 1) * actions];
                let bootstrap = if self.config.double_dqn {
                    // The online selection must stay inside the loop: its
                    // weights change transition-to-transition. The frozen
                    // target's evaluation was batched above, which also
                    // removes the duplicate next-state pass the serial code
                    // paid per transition.
                    self.replay.decode_next_state(index, self.state_buf.data_mut());
                    self.online.forward_batch_into_cfg(
                        &[&self.state_buf],
                        &mut self.scratch,
                        &mut NoHooks,
                        EngineConfig::default(),
                    );
                    target_row[argmax(self.scratch.row(0))]
                } else {
                    target_row.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                };
                reward + self.config.gamma * bootstrap
            };
            self.replay.decode_state(index, self.state_buf.data_mut());
            self.online.forward_traced_into(&self.state_buf, &mut self.trace);
            let output = self.trace.output().data();
            let error = (output[action] - target_value).clamp(-1.0, 1.0);
            self.grad.clear();
            self.grad.resize(output.len(), 0.0);
            self.grad[action] = 2.0 * error;
            self.online.backward_tail(&self.trace, &self.grad, lr, self.config.trainable_from);
        }
    }

    /// Advances the ε schedule and periodically synchronises the target
    /// network. Call once at the end of each training episode.
    pub fn end_episode(&mut self) {
        self.epsilon.advance_episode();
        self.episodes_since_sync += 1;
        if self.episodes_since_sync >= self.config.target_sync_every {
            self.sync_target();
        }
    }

    /// Copies the online network into the target network.
    pub fn sync_target(&mut self) {
        self.target = self.online.clone();
        self.episodes_since_sync = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_nn::mlp;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn agent(seed: u64) -> DqnAgent {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = mlp(&[4, 16, 2], &mut rng);
        DqnAgent::new(net, &[4], EpsilonSchedule::for_training(20), DqnConfig::default())
    }

    #[test]
    fn num_actions_comes_from_last_linear_layer() {
        assert_eq!(agent(0).num_actions(), 2);
    }

    #[test]
    fn greedy_action_matches_argmax_of_q_values() {
        let a = agent(1);
        let state = Tensor::from_vec(&[4], vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(a.greedy_action(&state, &mut Scratch::new()), a.q_values(&state).argmax());
    }

    #[test]
    fn act_with_zero_epsilon_is_greedy() {
        let mut a = agent(2);
        a.epsilon = EpsilonSchedule::new(0.0, 0.0, 1.0);
        let state = Tensor::from_vec(&[4], vec![0.5, 0.5, 0.0, 0.0]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut scratch = Scratch::new();
        let greedy = a.greedy_action(&state, &mut Scratch::new());
        for _ in 0..10 {
            assert_eq!(a.act(&state, &mut rng, &mut scratch), greedy);
        }
    }

    #[test]
    fn observe_fills_the_replay_buffer() {
        let mut a = agent(3);
        let s = Tensor::zeros(&[4]);
        a.observe(&s, 0, 1.0, &s, false);
        assert_eq!(a.replay().len(), 1);
    }

    #[test]
    #[should_panic(expected = "observations must have 4 elements")]
    fn observe_rejects_observations_of_the_wrong_length() {
        let mut a = agent(3);
        let s = Tensor::zeros(&[4]);
        a.observe(&s, 0, 1.0, &Tensor::zeros(&[5]), false);
    }

    #[test]
    fn learn_is_a_no_op_until_a_batch_is_available() {
        let mut a = agent(4);
        let before = a.network().flat_weights();
        let mut rng = SmallRng::seed_from_u64(5);
        a.learn(&mut rng);
        assert_eq!(a.network().flat_weights(), before);
    }

    #[test]
    fn learn_moves_q_value_toward_target() {
        let mut a = agent(6);
        let state = Tensor::from_vec(&[4], vec![1.0, 0.0, 0.0, 0.0]);
        let next = Tensor::from_vec(&[4], vec![0.0, 1.0, 0.0, 0.0]);
        // A terminal transition with reward 1 for action 0.
        for _ in 0..64 {
            a.observe(&state, 0, 1.0, &next, true);
        }
        let before = a.q_values(&state).data()[0];
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            a.learn(&mut rng);
        }
        let after = a.q_values(&state).data()[0];
        assert!(
            (after - 1.0).abs() < (before - 1.0).abs(),
            "Q(s, 0) should approach 1.0: before {before}, after {after}"
        );
    }

    #[test]
    fn end_episode_decays_epsilon_and_syncs_target() {
        let mut a = agent(8);
        let initial_epsilon = a.epsilon.epsilon();
        // Corrupt the online network, then check the target follows on sync.
        a.network_mut().layer_weights_mut(0).expect("weights")[0] = 42.0;
        for _ in 0..a.config().target_sync_every {
            a.end_episode();
        }
        assert!(a.epsilon.epsilon() < initial_epsilon);
        assert_eq!(a.target.layer_weights(0).expect("weights")[0], 42.0);
    }

    #[test]
    fn double_dqn_config_for_drone_freezes_conv_layers() {
        let config = DqnConfig::drone(9);
        assert!(config.double_dqn);
        assert_eq!(config.trainable_from, 9);
    }
}
