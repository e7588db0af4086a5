//! Forward hooks that inject faults into the input and activation buffers
//! during inference — the dynamic injection path of §3.3, used by the
//! fault-location experiment (Fig. 7c).

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use navft_fault::{FaultKind, FaultMap};
use navft_nn::{ForwardHooks, LayerKind};
use navft_qformat::QFormat;

/// Which buffer the hook corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookTarget {
    /// The input feature-map buffer (the camera frame).
    Input,
    /// Every activation (layer-output) buffer.
    Activations,
}

/// Whether the corrupted bit positions change between forward passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPersistence {
    /// New fault positions are sampled for every forward pass (transient
    /// faults in frequently rewritten buffers).
    Transient,
    /// The same fault positions afflict every forward pass (permanent
    /// defects in the buffer).
    Permanent,
}

/// A [`ForwardHooks`] implementation that corrupts the input or activation
/// buffers at a given bit error rate.
///
/// # Examples
///
/// ```
/// use navft_core::{BufferFaultHook, HookPersistence, HookTarget};
/// use navft_fault::FaultKind;
/// use navft_nn::{mlp, Tensor};
/// use navft_qformat::QFormat;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = mlp(&[8, 8, 2], &mut rng);
/// let mut hook = BufferFaultHook::new(
///     HookTarget::Activations,
///     HookPersistence::Transient,
///     0.05,
///     FaultKind::BitFlip,
///     QFormat::Q4_11,
///     7,
/// );
/// let _ = net.forward_with(&Tensor::full(&[8], 0.5), &mut hook);
/// assert!(hook.faults_injected() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct BufferFaultHook {
    target: HookTarget,
    persistence: HookPersistence,
    ber: f64,
    kind: FaultKind,
    format: QFormat,
    rng: SmallRng,
    cached: HashMap<(usize, usize), FaultMap>,
    faults_injected: usize,
}

impl BufferFaultHook {
    /// Creates a hook corrupting `target` buffers at bit error rate `ber`.
    pub fn new(
        target: HookTarget,
        persistence: HookPersistence,
        ber: f64,
        kind: FaultKind,
        format: QFormat,
        seed: u64,
    ) -> BufferFaultHook {
        BufferFaultHook {
            target,
            persistence,
            ber,
            kind,
            format,
            rng: SmallRng::seed_from_u64(seed),
            cached: HashMap::new(),
            faults_injected: 0,
        }
    }

    /// Total number of bit faults injected so far.
    pub fn faults_injected(&self) -> usize {
        self.faults_injected
    }

    fn corrupt(&mut self, key: (usize, usize), values: &mut [f32]) {
        let map = match self.persistence {
            HookPersistence::Transient => {
                FaultMap::sample(values.len(), self.format, self.ber, self.kind, &mut self.rng)
            }
            HookPersistence::Permanent => self
                .cached
                .entry(key)
                .or_insert_with(|| {
                    FaultMap::sample(values.len(), self.format, self.ber, self.kind, &mut self.rng)
                })
                .clone(),
        };
        self.faults_injected += map.len();
        map.corrupt(values, self.format);
    }
}

impl ForwardHooks for BufferFaultHook {
    fn on_input(&mut self, values: &mut [f32]) {
        if self.target == HookTarget::Input {
            self.corrupt((usize::MAX, values.len()), values);
        }
    }

    fn on_activation(&mut self, layer_index: usize, _kind: LayerKind, values: &mut [f32]) {
        if self.target == HookTarget::Activations {
            self.corrupt((layer_index, values.len()), values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_nn::{mlp, Tensor};

    fn run_hook(target: HookTarget, persistence: HookPersistence) -> (Vec<f32>, Vec<f32>) {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = mlp(&[16, 8, 4], &mut rng);
        let input = Tensor::full(&[16], 0.4);
        let mut hook =
            BufferFaultHook::new(target, persistence, 0.05, FaultKind::BitFlip, QFormat::Q4_11, 11);
        let a = net.forward_with(&input, &mut hook).into_data();
        let b = net.forward_with(&input, &mut hook).into_data();
        assert!(hook.faults_injected() > 0);
        (a, b)
    }

    #[test]
    fn input_faults_change_the_output() {
        let mut rng = SmallRng::seed_from_u64(2);
        let net = mlp(&[16, 8, 4], &mut rng);
        let input = Tensor::full(&[16], 0.4);
        let clean = net.forward(&input).into_data();
        let mut hook = BufferFaultHook::new(
            HookTarget::Input,
            HookPersistence::Transient,
            0.2,
            FaultKind::BitFlip,
            QFormat::Q4_11,
            3,
        );
        let faulty = net.forward_with(&input, &mut hook).into_data();
        assert_ne!(clean, faulty);
    }

    #[test]
    fn transient_activation_faults_differ_between_passes() {
        let (a, b) = run_hook(HookTarget::Activations, HookPersistence::Transient);
        assert_ne!(a, b, "re-sampled fault positions should perturb passes differently");
    }

    #[test]
    fn permanent_activation_faults_repeat_identically() {
        let (a, b) = run_hook(HookTarget::Activations, HookPersistence::Permanent);
        assert_eq!(a, b, "cached fault maps must corrupt every pass the same way");
    }

    #[test]
    fn hook_ignores_buffers_it_does_not_target() {
        let mut rng = SmallRng::seed_from_u64(4);
        let net = mlp(&[8, 4, 2], &mut rng);
        let input = Tensor::full(&[8], 0.4);
        let clean = net.forward(&input).into_data();
        let mut hook = BufferFaultHook::new(
            HookTarget::Input,
            HookPersistence::Transient,
            0.0,
            FaultKind::BitFlip,
            QFormat::Q4_11,
            5,
        );
        let same = net.forward_with(&input, &mut hook).into_data();
        assert_eq!(clean, same);
        assert_eq!(hook.faults_injected(), 0);
    }
}
