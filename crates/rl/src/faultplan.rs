use navft_fault::{InjectionSchedule, Injector, StoredWord};
use navft_nn::{Element, NetworkBase};

/// A training-time fault plan: *which* faults strike (an [`Injector`]) and
/// *when* (an [`InjectionSchedule`]).
///
/// The plan is consulted by the training loops in [`crate::trainer`]:
///
/// * transient bit flips are applied once, at the scheduled episode;
/// * permanent stuck-at faults are applied from the scheduled episode onwards
///   and re-enforced after every policy update, because a stuck memory cell
///   overrides whatever the learning algorithm writes into it.
///
/// # Examples
///
/// ```
/// use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector, InjectionSchedule};
/// use navft_qformat::QFormat;
/// use navft_rl::FaultPlan;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let injector = Injector::sample(
///     FaultTarget::new(FaultSite::TabularBuffer),
///     400,
///     QFormat::Q3_4,
///     0.005,
///     FaultKind::BitFlip,
///     &mut rng,
/// );
/// let plan = FaultPlan::new(injector, InjectionSchedule::at_episode(500));
/// assert!(!plan.is_fault_free());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    injector: Option<Injector>,
    schedule: InjectionSchedule,
}

impl FaultPlan {
    /// A plan that injects nothing — the fault-free baseline.
    pub fn none() -> FaultPlan {
        FaultPlan { injector: None, schedule: InjectionSchedule::from_start() }
    }

    /// A plan applying `injector` according to `schedule`.
    pub fn new(injector: Injector, schedule: InjectionSchedule) -> FaultPlan {
        FaultPlan { injector: Some(injector), schedule }
    }

    /// Whether the plan injects no faults.
    pub fn is_fault_free(&self) -> bool {
        self.injector.as_ref().is_none_or(|i| i.fault_count() == 0)
    }

    /// The injection schedule.
    pub fn schedule(&self) -> InjectionSchedule {
        self.schedule
    }

    /// The injector, if the plan is not fault-free.
    pub fn injector(&self) -> Option<&Injector> {
        self.injector.as_ref()
    }

    /// Whether the plan carries permanent (stuck-at) faults.
    pub fn has_permanent(&self) -> bool {
        self.injector.as_ref().is_some_and(Injector::has_permanent)
    }

    /// Applies the plan to a flat policy buffer at the start of `episode`.
    pub fn on_episode_start(&self, episode: usize, buffer: &mut [f32]) {
        let Some(injector) = &self.injector else { return };
        if self.schedule.triggers_at(episode) {
            injector.corrupt(buffer);
        } else if injector.has_permanent() && self.schedule.active_at(episode) {
            injector.enforce(buffer);
        }
    }

    /// Re-enforces permanent faults on a flat policy buffer after a policy
    /// update during `episode`.
    pub fn after_update(&self, episode: usize, buffer: &mut [f32]) {
        let Some(injector) = &self.injector else { return };
        if injector.has_permanent() && self.schedule.active_at(episode) {
            injector.enforce(buffer);
        }
    }

    /// Applies the plan to a network's weight buffers at the start of
    /// `episode` — generic over the policy's storage element, so the same
    /// plan corrupts `f32` weights (through the Q-format round trip) and
    /// live raw words (in place) alike.
    ///
    /// The injector's fault map indexes the network's *concatenated* weight
    /// buffer (see [`NetworkBase::weight_span`]); each layer receives the
    /// slice of faults that falls into its span.
    pub fn on_episode_start_network<E: Element + StoredWord>(
        &self,
        episode: usize,
        network: &mut NetworkBase<E>,
    ) {
        let Some(injector) = &self.injector else { return };
        if self.schedule.triggers_at(episode) {
            Self::apply_to_network(injector, network, false);
        } else if injector.has_permanent() && self.schedule.active_at(episode) {
            Self::apply_to_network(injector, network, true);
        }
    }

    /// Re-enforces permanent faults on a network's weight buffers after a
    /// learning update during `episode`.
    pub fn after_update_network<E: Element + StoredWord>(
        &self,
        episode: usize,
        network: &mut NetworkBase<E>,
    ) {
        let Some(injector) = &self.injector else { return };
        if injector.has_permanent() && self.schedule.active_at(episode) {
            Self::apply_to_network(injector, network, true);
        }
    }

    fn apply_to_network<E: Element + StoredWord>(
        injector: &Injector,
        network: &mut NetworkBase<E>,
        enforce_only: bool,
    ) {
        // Each weight buffer starts where the previous one ended in the
        // concatenated view (see `NetworkBase::weight_span`).
        let mut start = 0;
        network.for_each_weight_buffer(|_, weights| {
            if enforce_only {
                injector.enforce_span(start, weights);
            } else {
                injector.corrupt_span(start, weights);
            }
            start += weights.len();
        });
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_fault::{BitFault, FaultKind, FaultMap, FaultSite, FaultTarget};
    use navft_nn::mlp;
    use navft_qformat::QFormat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn single_fault_plan(kind: FaultKind, word: usize, episode: usize) -> FaultPlan {
        let map = FaultMap::from_faults(vec![BitFault { word, bit: 7, kind }]);
        let injector =
            Injector::new(FaultTarget::new(FaultSite::TabularBuffer), QFormat::Q3_4, map);
        FaultPlan::new(injector, navft_fault::InjectionSchedule::at_episode(episode))
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_fault_free());
        assert!(!plan.has_permanent());
        let mut buf = vec![1.0f32; 4];
        plan.on_episode_start(0, &mut buf);
        plan.after_update(0, &mut buf);
        assert_eq!(buf, vec![1.0; 4]);
        assert!(plan.injector().is_none());
    }

    #[test]
    fn transient_fault_strikes_only_at_the_scheduled_episode() {
        let plan = single_fault_plan(FaultKind::BitFlip, 0, 5);
        let mut buf = vec![1.0f32; 4];
        plan.on_episode_start(4, &mut buf);
        assert_eq!(buf[0], 1.0);
        plan.on_episode_start(5, &mut buf);
        assert!(buf[0] < 0.0);
        // It does not strike again at later episodes.
        buf[0] = 1.0;
        plan.on_episode_start(6, &mut buf);
        assert_eq!(buf[0], 1.0);
    }

    #[test]
    fn permanent_fault_is_reasserted_after_updates() {
        let plan = single_fault_plan(FaultKind::StuckAt1, 1, 0);
        assert!(plan.has_permanent());
        let mut buf = vec![1.0f32; 4];
        plan.on_episode_start(0, &mut buf);
        assert!(buf[1] < 0.0);
        buf[1] = 1.0; // a Bellman update "repairs" the cell
        plan.after_update(3, &mut buf);
        assert!(buf[1] < 0.0);
    }

    #[test]
    fn permanent_fault_before_schedule_is_inactive() {
        let plan = single_fault_plan(FaultKind::StuckAt0, 0, 10);
        let mut buf = vec![1.0f32; 2];
        plan.after_update(5, &mut buf);
        assert_eq!(buf[0], 1.0);
    }

    #[test]
    fn network_plan_corrupts_the_right_layer_span() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut net = mlp(&[4, 8, 2], &mut rng);
        let total = net.weight_count();
        // Fault the very last weight of the concatenated buffer (in fc2).
        let map = FaultMap::from_faults(vec![BitFault {
            word: total - 1,
            bit: 7,
            kind: FaultKind::StuckAt1,
        }]);
        let injector = Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q3_4, map);
        let plan = FaultPlan::new(injector, navft_fault::InjectionSchedule::from_start());
        let fc1_before = net.layer_weights(0).expect("weights").to_vec();
        plan.on_episode_start_network(0, &mut net);
        assert_eq!(net.layer_weights(0).expect("weights"), fc1_before.as_slice());
        let last_layer = *net.parametric_layers().last().expect("layers");
        let fc2 = net.layer_weights(last_layer).expect("weights");
        assert!(fc2.last().expect("non-empty") < &0.0);
        // Re-enforcement after a (simulated) update restores the stuck value.
        let mut net2 = net.clone();
        if let Some(w) = net2.layer_weights_mut(last_layer).expect("weights").last_mut() {
            *w = 1.0;
        }
        plan.after_update_network(1, &mut net2);
        assert!(net2.layer_weights(last_layer).expect("weights").last().expect("non-empty") < &0.0);
    }
}
