//! A reusable, double-buffered activation arena for batched inference.
//!
//! Fault-injection campaigns replay millions of forward passes; allocating a
//! fresh [`Tensor`](crate::Tensor) per layer per pass dominates their cost.
//! [`Scratch`] owns two activation slabs (front/back) sized `batch ×
//! activation`, which [`NetworkBase::forward_batch_into_cfg`] ping-pongs
//! between per layer sweep. Once the slabs have grown to the widest layer of a network,
//! subsequent passes of the same (or any smaller) topology perform **zero
//! heap allocations** — [`Scratch::grow_events`] makes that guarantee
//! observable in tests and benches.
//!
//! The arena is generic over its element type so every numeric backend
//! shares it: the `f32` backend uses the default `Scratch` (`Scratch<f32>`),
//! the native fixed-point backend stages raw Q-format words in a
//! [`QScratch`](crate::QScratch) (`Scratch<i32>`) and the `i8` backend
//! bytes in an [`I8Scratch`](crate::I8Scratch). Two more slabs serve the
//! blocked GEMM path — the K-major panel its sweeps read and the `[M, N]`
//! staging slab they write — and obey the same grow-once, reuse-forever
//! contract.
//!
//! [`NetworkBase::forward_batch_into_cfg`]: crate::NetworkBase::forward_batch_into_cfg

/// Preallocated activation storage reused across batched forward passes.
///
/// A `Scratch` is not tied to a network: the same instance can serve any
/// sequence of networks and batch sizes, growing monotonically to the largest
/// `rows × activation` slab it has seen. After a pass, the final activations
/// stay readable through [`Scratch::row`] until the next pass overwrites
/// them.
///
/// The element type `T` is `f32` for the float backend and `i32` (raw
/// two's-complement Q-format words) for the native fixed-point backend.
///
/// # Examples
///
/// ```
/// use navft_nn::{mlp, EngineConfig, NoHooks, Scratch, Tensor};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = mlp(&[4, 8, 2], &mut rng);
/// let mut scratch = Scratch::new();
/// let inputs = vec![Tensor::zeros(&[4]); 3];
/// let config = EngineConfig::default();
/// net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
/// assert_eq!(scratch.rows(), 3);
/// assert_eq!(scratch.row(2).len(), 2);
/// let warm = scratch.grow_events();
/// net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
/// assert_eq!(scratch.grow_events(), warm, "steady state allocates nothing");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scratch<T = f32> {
    front: Vec<T>,
    back: Vec<T>,
    /// The K-major `[K, N]` panel of the blocked GEMM path: a chunk of batch
    /// rows' packed convolution patches, or a linear layer's transposed
    /// batch rows.
    cols: Vec<T>,
    /// The GEMM's row-major `[M, N]` result, before it is moved into the
    /// back slab's per-row layout.
    stage: Vec<T>,
    shape: Vec<usize>,
    next_shape: Vec<usize>,
    rows: usize,
    grow_events: usize,
}

impl<T: Copy + Default> Scratch<T> {
    /// Creates an empty scratch; slabs grow on first use.
    pub fn new() -> Scratch<T> {
        Scratch::default()
    }

    /// Creates a scratch with `rows × row_len` elements of capacity reserved
    /// in each activation slab up front. Passes whose widest activation fits
    /// the envelope skip the initial slab growth; layers wider than
    /// `row_len` (e.g. a channel-expanding convolution) still grow the slabs
    /// once. The GEMM panel and staging slabs are *not* pre-reserved (their
    /// sizes depend on layer geometry, not on `row_len`), so they grow once
    /// on the first pass regardless.
    pub fn with_capacity(rows: usize, row_len: usize) -> Scratch<T> {
        let mut scratch = Scratch::new();
        scratch.front.reserve(rows * row_len);
        scratch.back.reserve(rows * row_len);
        scratch.shape.reserve(4);
        scratch.next_shape.reserve(4);
        scratch
    }

    /// Number of times an internal buffer had to grow its allocation. The
    /// counter is cumulative and stops moving once the scratch is warm for
    /// the workloads it serves — the allocation-freedom guarantee tests key
    /// on it staying flat.
    ///
    /// The slabs swap roles once per non-in-place layer, so a topology with
    /// an odd number of such layers needs **two** passes before both slabs
    /// reach their high-water mark; from the third pass on the count is
    /// flat.
    pub fn grow_events(&self) -> usize {
        self.grow_events
    }

    /// Number of batch rows held from the most recent pass.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The per-row shape of the most recent pass's activations.
    pub fn row_shape(&self) -> &[usize] {
        &self.shape
    }

    /// The per-row element count of the most recent pass's activations.
    pub fn row_len(&self) -> usize {
        self.shape.iter().product()
    }

    /// The activation values of batch row `index` from the most recent pass.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn row(&self, index: usize) -> &[T] {
        assert!(index < self.rows, "batch row {index} out of range for {} rows", self.rows);
        let len = self.row_len();
        &self.front[index * len..(index + 1) * len]
    }

    /// Copies the flat `inputs` rows (each of `shape`) into the front slab.
    pub(crate) fn load_rows<'a, I>(&mut self, shape: &[usize], rows: I)
    where
        T: 'a,
        I: ExactSizeIterator<Item = &'a [T]>,
    {
        let row_len: usize = shape.iter().product();
        self.rows = rows.len();
        self.set_shape(shape);
        self.front.clear();
        if self.front.capacity() < self.rows * row_len {
            self.front.reserve(self.rows * row_len);
            self.grow_events += 1;
        }
        for row in rows {
            assert_eq!(row.len(), row_len, "batch row length does not match input shape");
            self.front.extend_from_slice(row);
        }
    }

    /// Points the current shape at `shape` without touching the data.
    pub(crate) fn set_shape(&mut self, shape: &[usize]) {
        if self.shape.capacity() < shape.len() {
            self.grow_events += 1;
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// A cleared, reusable shape buffer for computing the next layer's shape.
    pub(crate) fn take_next_shape(&mut self) -> Vec<usize> {
        let mut shape = std::mem::take(&mut self.next_shape);
        shape.clear();
        shape
    }

    /// Returns the buffer taken with [`Scratch::take_next_shape`].
    pub(crate) fn put_next_shape(&mut self, shape: Vec<usize>) {
        self.next_shape = shape;
    }

    /// Sizes the back slab for `back_len` total elements and hands out the
    /// disjoint views a layer sweep needs: `(current row shape, front slab,
    /// back slab)`.
    pub(crate) fn slabs_for_sweep(&mut self, back_len: usize) -> (&[usize], &[T], &mut [T]) {
        let front_len = self.rows * self.row_len();
        let back = grow_slab(&mut self.back, back_len, &mut self.grow_events);
        (&self.shape, &self.front[..front_len], back)
    }

    /// Sizes the GEMM panel (`cols_len`), the staging slab (`stage_len`)
    /// and the back slab (`back_len`), and hands out the disjoint views a
    /// blocked sweep needs: `(current row shape, front slab, panel,
    /// staging, back slab)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn gemm_slabs(
        &mut self,
        cols_len: usize,
        stage_len: usize,
        back_len: usize,
    ) -> (&[usize], &[T], &mut [T], &mut [T], &mut [T]) {
        let front_len = self.rows * self.row_len();
        let grows = &mut self.grow_events;
        let cols = grow_slab(&mut self.cols, cols_len, grows);
        let stage = grow_slab(&mut self.stage, stage_len, grows);
        let back = grow_slab(&mut self.back, back_len, grows);
        (&self.shape, &self.front[..front_len], cols, stage, back)
    }

    /// The current pass's rows in the front slab, mutably (in-place layer
    /// sweeps and hook application).
    pub(crate) fn front_mut(&mut self) -> &mut [T] {
        let len = self.rows * self.row_len();
        &mut self.front[..len]
    }

    /// Swaps the front and back slabs after a sweep wrote into the back.
    pub(crate) fn swap(&mut self) {
        std::mem::swap(&mut self.front, &mut self.back);
    }
}

/// The first `len` elements of `slab`, growing it (and counting the growth
/// when it reallocates) if it is shorter. Slabs never shrink, so a pass
/// whose layers alternate between sizes zero-fills nothing once warm; every
/// sweep overwrites the prefix it is handed.
fn grow_slab<'a, T: Copy + Default>(
    slab: &'a mut Vec<T>,
    len: usize,
    grow_events: &mut usize,
) -> &'a mut [T] {
    if slab.len() < len {
        if slab.capacity() < len {
            *grow_events += 1;
        }
        slab.resize(len, T::default());
    }
    &mut slab[..len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_laid_out_contiguously() {
        let mut scratch = Scratch::new();
        let rows: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        scratch.load_rows(&[2], rows.iter().map(Vec::as_slice));
        assert_eq!(scratch.rows(), 2);
        assert_eq!(scratch.row_shape(), &[2]);
        assert_eq!(scratch.row(0), &[1.0, 2.0]);
        assert_eq!(scratch.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn raw_word_rows_use_the_same_arena() {
        let mut scratch: Scratch<i32> = Scratch::new();
        let rows: Vec<Vec<i32>> = vec![vec![-128, 127], vec![0, 16]];
        scratch.load_rows(&[2], rows.iter().map(Vec::as_slice));
        assert_eq!(scratch.row(0), &[-128, 127]);
        assert_eq!(scratch.row(1), &[0, 16]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let mut scratch = Scratch::new();
        let row = [1.0f32];
        scratch.load_rows(&[1], [&row[..]].into_iter());
        let _ = scratch.row(1);
    }

    #[test]
    fn grow_events_stop_once_warm() {
        let mut scratch = Scratch::with_capacity(4, 16);
        let row = [0.5f32; 16];
        for _ in 0..3 {
            scratch.load_rows(&[16], [&row[..]; 4].into_iter());
            scratch.slabs_for_sweep(4 * 16);
            scratch.swap();
        }
        let warm = scratch.grow_events();
        for _ in 0..10 {
            scratch.load_rows(&[16], [&row[..]; 4].into_iter());
            scratch.slabs_for_sweep(4 * 16);
            scratch.swap();
        }
        assert_eq!(scratch.grow_events(), warm);
    }
}
