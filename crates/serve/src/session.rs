//! Per-session forward hooks: fault injection on the observation, range
//! guard scrubbing on the activations.

use std::sync::Arc;

use navft_fault::{FaultSpec, StoredWord};
use navft_mitigation::{GuardedElement, RangeGuard};
use navft_nn::{Element, ForwardHooks, LayerKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The standard per-session hook of the serving daemon: optionally strikes
/// each request's observation with a freshly sampled transient fault pattern
/// ([`FaultSpec`]), and optionally scrubs every activation buffer through a
/// shared [`RangeGuard`].
///
/// One `SessionHook` lives in the session registry per tenant; the batcher
/// routes it to the session's batch row via [`navft_nn::DynRowHooks`]. The
/// session's RNG only advances when its *own* requests are served, so fault
/// streams are deterministic per session regardless of how requests from
/// different sessions coalesce. The same type plugs directly into the
/// library-only forward paths (it implements the hook trait on every
/// backend), so served and library episodes can share bit-identical hook
/// state.
///
/// The type is generic over the policy's storage element; construct it with
/// the served network's `net_meta()` so `i8` scrubbing sees the affine
/// scale.
pub struct SessionHook<W: Element> {
    faults: Option<FaultSpec>,
    rng: SmallRng,
    guard: Option<Arc<RangeGuard>>,
    meta: W::NetMeta,
    struck: usize,
    scrubbed: usize,
}

impl<W: Element> SessionHook<W> {
    /// A hook with no faults and no guard, seeded for later fault sampling.
    /// `meta` is the served network's `net_meta()`.
    pub fn new(meta: W::NetMeta, seed: u64) -> SessionHook<W> {
        SessionHook {
            faults: None,
            rng: SmallRng::seed_from_u64(seed),
            guard: None,
            meta,
            struck: 0,
            scrubbed: 0,
        }
    }

    /// Returns the hook with a per-request observation fault spec attached.
    pub fn with_faults(mut self, spec: FaultSpec) -> SessionHook<W> {
        self.faults = Some(spec);
        self
    }

    /// Returns the hook with a range guard scrubbing every activation
    /// buffer.
    pub fn with_guard(mut self, guard: Arc<RangeGuard>) -> SessionHook<W> {
        self.guard = Some(guard);
        self
    }

    /// Total bit faults struck into this session's observations so far.
    pub fn struck(&self) -> usize {
        self.struck
    }

    /// Total activation values scrubbed for this session so far.
    pub fn scrubbed(&self) -> usize {
        self.scrubbed
    }
}

impl<W: Element + StoredWord + GuardedElement> ForwardHooks<W> for SessionHook<W> {
    fn on_input(&mut self, values: &mut [W]) {
        if let Some(spec) = self.faults {
            self.struck += spec.strike(values, &mut self.rng);
        }
    }

    fn on_activation(&mut self, layer_index: usize, _kind: LayerKind, values: &mut [W]) {
        if let Some(guard) = &self.guard {
            self.scrubbed += guard.scrub_buffer(layer_index, values, &self.meta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_fault::FaultKind;
    use navft_mitigation::RangeGuardConfig;
    use navft_qformat::QFormat;

    #[test]
    fn fault_streams_are_seed_deterministic_per_session() {
        let spec = FaultSpec::new(0.05, FaultKind::BitFlip, QFormat::Q4_11);
        let run = |seed: u64| {
            let mut hook: SessionHook<f32> = SessionHook::new((), seed).with_faults(spec);
            let mut rows = Vec::new();
            for _ in 0..4 {
                let mut values = vec![0.5f32; 32];
                ForwardHooks::<f32>::on_input(&mut hook, &mut values);
                rows.push(values);
            }
            (rows, hook.struck())
        };
        assert_eq!(run(9), run(9), "same seed, same corruption stream");
        assert_ne!(run(9).0, run(10).0, "different sessions draw different streams");
    }

    #[test]
    fn guard_scrubs_activations_through_the_hook() {
        let guard = Arc::new(RangeGuard::from_bounds(
            [(0, -1.0, 1.0)],
            QFormat::Q4_11,
            RangeGuardConfig::paper(),
        ));
        let mut hook: SessionHook<f32> = SessionHook::new((), 0).with_guard(guard);
        let mut values = vec![0.5f32, 40.0, -40.0];
        ForwardHooks::<f32>::on_activation(&mut hook, 0, LayerKind::Linear, &mut values);
        assert_eq!(values, vec![0.5, 0.0, 0.0]);
        assert_eq!(hook.scrubbed(), 2);
        // Layer 1 has no bounds: untouched.
        let mut values = vec![40.0f32];
        ForwardHooks::<f32>::on_activation(&mut hook, 1, LayerKind::Linear, &mut values);
        assert_eq!(values, vec![40.0]);
    }

    #[test]
    fn clean_hook_is_a_no_op_on_every_backend() {
        let mut f = SessionHook::<f32>::new((), 0);
        let mut values = vec![0.25f32; 8];
        ForwardHooks::<f32>::on_input(&mut f, &mut values);
        ForwardHooks::<f32>::on_activation(&mut f, 0, LayerKind::Relu, &mut values);
        assert_eq!(values, vec![0.25; 8]);

        let mut q = SessionHook::<i32>::new(QFormat::Q4_11, 0);
        let mut words = vec![77i32; 8];
        ForwardHooks::<i32>::on_input(&mut q, &mut words);
        assert_eq!(words, vec![77; 8]);
        assert_eq!(q.struck() + q.scrubbed(), 0);
    }
}
