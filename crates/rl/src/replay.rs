use rand::Rng;

/// A bounded experience-replay buffer with uniform sampling, stored as
/// struct-of-arrays.
///
/// The drone policy of the paper is trained with Double DQN *with experience
/// replay*; the Grid World NN policy uses the same machinery at a smaller
/// scale.
///
/// Each transition `(s, a, r, s', terminal)` occupies one slot of parallel
/// columns. The two observations are stored in one lossless encoding that
/// elides runs of `+0.0` (see [`ReplayBuffer::push`]), so a one-hot Grid
/// World state costs three words instead of one per cell; every
/// observation in one buffer has the same length. Sampling writes slot
/// indices into a caller-owned vector and the observations decode straight
/// into the caller's staging buffers, so a warm learning step allocates
/// nothing.
///
/// # Examples
///
/// ```
/// use navft_rl::ReplayBuffer;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut buffer = ReplayBuffer::new(2);
/// for i in 0..3 {
///     buffer.push(&[i as f32, 0.0], 0, i as f32, &[0.0, i as f32 + 1.0], false);
/// }
/// assert_eq!(buffer.len(), 2); // the oldest transition was evicted
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut batch = Vec::new();
/// buffer.sample_indices(5, &mut rng, &mut batch);
/// assert_eq!(batch.len(), 5);
/// let mut next_state = [0.0f32; 2];
/// buffer.decode_next_state(batch[0], &mut next_state);
/// assert_eq!(next_state[1], buffer.reward(batch[0]) + 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayBuffer {
    capacity: usize,
    /// The slot the next push overwrites once the buffer is full.
    next: usize,
    /// The common length of every stored observation (set by the first push).
    obs_len: usize,
    actions: Vec<usize>,
    rewards: Vec<f32>,
    terminals: Vec<bool>,
    /// Per slot: the encoded state followed by the encoded next state.
    observations: Vec<Vec<u32>>,
    /// Per slot: the word at which the next state's encoding starts.
    splits: Vec<usize>,
}

/// A zero run shorter than this stays inside a literal span: eliding it
/// would save fewer words than the two-word header it costs.
const MIN_ELIDED_RUN: usize = 3;

/// Appends the lossless encoding of `values` to `out`: a sequence of groups
/// `[zero_run, literal_count, literal bit patterns…]`. A group's zero run
/// stands for that many `+0.0` values; the literals are stored by bit
/// pattern, so `-0.0`, NaN payloads and subnormals survive unchanged.
/// Trailing zeros are implicit (the decoder knows the length), so an
/// all-zero vector encodes to nothing and a dense one to its values plus
/// one two-word header.
fn encode(values: &[f32], out: &mut Vec<u32>) {
    let is_zero = |i: usize| values[i].to_bits() == 0;
    let n = values.len();
    let mut i = 0;
    loop {
        let run_start = i;
        while i < n && is_zero(i) {
            i += 1;
        }
        if i == n {
            return;
        }
        let zeros = i - run_start;
        let literal_start = i;
        let mut end = i;
        while i < n {
            if !is_zero(i) {
                i += 1;
                end = i;
                continue;
            }
            let gap = i;
            while i < n && is_zero(i) {
                i += 1;
            }
            if i == n || i - gap >= MIN_ELIDED_RUN {
                break;
            }
            end = i;
        }
        out.push(zeros as u32);
        out.push((end - literal_start) as u32);
        out.extend(values[literal_start..end].iter().map(|v| v.to_bits()));
        i = end;
    }
}

/// Decodes an [`encode`]d observation into `out`, whose length is the
/// observation's.
fn decode(words: &[u32], out: &mut [f32]) {
    let mut at = 0;
    let mut w = 0;
    while w < words.len() {
        let (zeros, literals) = (words[w] as usize, words[w + 1] as usize);
        w += 2;
        out[at..at + zeros].fill(0.0);
        at += zeros;
        for (o, &bits) in out[at..at + literals].iter_mut().zip(&words[w..w + literals]) {
            *o = f32::from_bits(bits);
        }
        at += literals;
        w += literals;
    }
    out[at..].fill(0.0);
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReplayBuffer {
        assert!(capacity > 0, "replay capacity must be non-zero");
        ReplayBuffer { capacity, ..ReplayBuffer::default() }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The maximum number of transitions retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a transition, evicting the oldest one once full. The evicted
    /// slot's storage is reused.
    ///
    /// # Panics
    ///
    /// Panics if `state` and `next_state` differ in length, or differ from
    /// the length of the observations already stored.
    pub fn push(
        &mut self,
        state: &[f32],
        action: usize,
        reward: f32,
        next_state: &[f32],
        terminal: bool,
    ) {
        if self.is_empty() {
            self.obs_len = state.len();
        }
        assert!(
            state.len() == self.obs_len && next_state.len() == self.obs_len,
            "replay observations must all have length {} (got {} and {})",
            self.obs_len,
            state.len(),
            next_state.len()
        );
        let slot = if self.len() < self.capacity {
            self.actions.push(action);
            self.rewards.push(reward);
            self.terminals.push(terminal);
            self.observations.push(Vec::new());
            self.splits.push(0);
            self.len() - 1
        } else {
            let slot = self.next;
            self.next = (self.next + 1) % self.capacity;
            self.actions[slot] = action;
            self.rewards[slot] = reward;
            self.terminals[slot] = terminal;
            slot
        };
        let words = &mut self.observations[slot];
        words.clear();
        encode(state, words);
        self.splits[slot] = words.len();
        encode(next_state, words);
    }

    /// Samples `count` slot indices uniformly with replacement into
    /// `indices` (cleared first), drawing `rng.gen_range(0..len)` once per
    /// index. Leaves `indices` empty if the buffer is empty.
    pub fn sample_indices<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        indices: &mut Vec<usize>,
    ) {
        indices.clear();
        if self.is_empty() {
            return;
        }
        indices.extend((0..count).map(|_| rng.gen_range(0..self.len())));
    }

    /// The action stored in slot `index`.
    pub fn action(&self, index: usize) -> usize {
        self.actions[index]
    }

    /// The reward stored in slot `index`.
    pub fn reward(&self, index: usize) -> f32 {
        self.rewards[index]
    }

    /// Whether the transition in slot `index` ended its episode.
    pub fn terminal(&self, index: usize) -> bool {
        self.terminals[index]
    }

    /// Decodes the state of slot `index` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s length differs from the stored observations'.
    pub fn decode_state(&self, index: usize, out: &mut [f32]) {
        self.decode_half(index, false, out);
    }

    /// Decodes the next state of slot `index` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s length differs from the stored observations'.
    pub fn decode_next_state(&self, index: usize, out: &mut [f32]) {
        self.decode_half(index, true, out);
    }

    fn decode_half(&self, index: usize, next: bool, out: &mut [f32]) {
        assert_eq!(out.len(), self.obs_len, "replay observation buffer length mismatch");
        let (state, next_state) = self.observations[index].split_at(self.splits[index]);
        decode(if next { next_state } else { state }, out);
    }

    /// Removes every stored transition.
    pub fn clear(&mut self) {
        self.actions.clear();
        self.rewards.clear();
        self.terminals.clear();
        self.observations.clear();
        self.splits.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn push_tagged(buffer: &mut ReplayBuffer, tag: f32) {
        buffer.push(&[tag], 0, tag, &[tag], false);
    }

    fn round_trip(values: &[f32]) -> Vec<f32> {
        let mut buffer = ReplayBuffer::new(1);
        let reversed: Vec<f32> = values.iter().rev().copied().collect();
        buffer.push(values, 0, 0.0, &reversed, false);
        let mut state = vec![1.0; values.len()];
        buffer.decode_state(0, &mut state);
        let mut next = vec![1.0; values.len()];
        buffer.decode_next_state(0, &mut next);
        assert_eq!(bits(&next), bits(&reversed), "next state must round-trip");
        state
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn encoded_words(values: &[f32]) -> usize {
        let mut out = Vec::new();
        encode(values, &mut out);
        out.len()
    }

    #[test]
    fn push_respects_capacity_with_fifo_eviction() {
        let mut buffer = ReplayBuffer::new(3);
        for i in 0..5 {
            push_tagged(&mut buffer, i as f32);
        }
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.capacity(), 3);
        let rewards: Vec<f32> = (0..buffer.len()).map(|i| buffer.reward(i)).collect();
        // Slots 0 and 1 were overwritten by transitions 3 and 4.
        assert_eq!(rewards, vec![3.0, 4.0, 2.0]);
        // The columns move together: every slot still decodes its own tag.
        for i in 0..buffer.len() {
            let mut state = [0.0f32];
            buffer.decode_state(i, &mut state);
            assert_eq!(state[0], buffer.reward(i));
        }
        // Eviction keeps cycling through the slots in order.
        push_tagged(&mut buffer, 5.0);
        let rewards: Vec<f32> = (0..buffer.len()).map(|i| buffer.reward(i)).collect();
        assert_eq!(rewards, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn sample_from_empty_buffer_is_empty() {
        let buffer = ReplayBuffer::new(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut batch = vec![7];
        buffer.sample_indices(8, &mut rng, &mut batch);
        assert!(batch.is_empty());
        assert!(buffer.is_empty());
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut buffer = ReplayBuffer::new(8);
        push_tagged(&mut buffer, 1.0);
        push_tagged(&mut buffer, 2.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut batch = Vec::new();
        buffer.sample_indices(16, &mut rng, &mut batch);
        assert_eq!(batch.len(), 16);
        assert!(batch.iter().all(|&i| buffer.reward(i) == 1.0 || buffer.reward(i) == 2.0));
    }

    #[test]
    fn sampling_draws_one_uniform_index_per_sample_like_the_old_sampler() {
        let mut buffer = ReplayBuffer::new(16);
        for i in 0..11 {
            push_tagged(&mut buffer, i as f32);
        }
        let mut rng = SmallRng::seed_from_u64(42);
        let mut reference = SmallRng::seed_from_u64(42);
        let mut batch = Vec::new();
        for count in [1, 4, 16, 0, 9] {
            buffer.sample_indices(count, &mut rng, &mut batch);
            let expected: Vec<usize> =
                (0..count).map(|_| reference.gen_range(0..buffer.len())).collect();
            assert_eq!(batch, expected);
        }
        // Both generators consumed exactly the same draws.
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn observations_round_trip_losslessly() {
        let nan_payload = f32::from_bits(0x7fc0_1234);
        let negative_nan = f32::from_bits(0xffa0_0001);
        let subnormal = f32::from_bits(0x0000_0001);
        let cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.0; 100],
            vec![-0.0; 7],
            vec![0.0, -0.0, 0.0, 0.0, 0.0, -0.0],
            vec![nan_payload, 0.0, negative_nan, 0.0, 0.0, 0.0, subnormal, -subnormal],
            (0..64).map(|i| i as f32 * 0.37 - 5.0).collect(),
            (0..50).map(|i| if i % 4 == 0 { 0.0 } else { i as f32 }).collect(),
            (0..40).map(|i| if i % 9 < 5 { 0.0 } else { -(i as f32) }).collect(),
            vec![1.0, f32::INFINITY, f32::NEG_INFINITY, 0.0, f32::MIN_POSITIVE],
        ];
        for values in cases {
            assert_eq!(bits(&round_trip(&values)), bits(&values), "{values:?}");
        }
    }

    #[test]
    fn encoding_elides_zero_runs_and_bounds_dense_overhead() {
        let mut one_hot = vec![0.0f32; 100];
        one_hot[37] = 1.0;
        assert_eq!(encoded_words(&one_hot), 3, "one header plus one value");
        assert_eq!(encoded_words(&[0.0; 100]), 0);
        let dense: Vec<f32> = (1..=64).map(|i| i as f32).collect();
        assert_eq!(encoded_words(&dense), 64 + 2, "dense values plus one header");
        // `-0.0` is a value, not an elided zero.
        assert_eq!(encoded_words(&[-0.0; 4]), 4 + 2);
        // Short interior zero runs stay literal instead of paying a header.
        assert_eq!(encoded_words(&[1.0, 0.0, 0.0, 2.0]), 4 + 2);
        assert_eq!(encoded_words(&[1.0, 0.0, 0.0, 0.0, 2.0]), 2 * 3);
    }

    #[test]
    #[should_panic(expected = "must all have length")]
    fn mismatched_observation_lengths_are_rejected() {
        let mut buffer = ReplayBuffer::new(4);
        buffer.push(&[1.0, 2.0], 0, 0.0, &[1.0, 2.0], false);
        buffer.push(&[1.0], 0, 0.0, &[1.0], false);
    }

    #[test]
    fn clear_empties_the_buffer() {
        let mut buffer = ReplayBuffer::new(4);
        push_tagged(&mut buffer, 1.0);
        buffer.clear();
        assert!(buffer.is_empty());
        // A cleared buffer accepts a new observation length.
        buffer.push(&[1.0, 2.0], 1, 0.5, &[3.0, 4.0], true);
        let mut next = [0.0f32; 2];
        buffer.decode_next_state(0, &mut next);
        assert_eq!(next, [3.0, 4.0]);
        assert!(buffer.terminal(0));
        assert_eq!(buffer.action(0), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
