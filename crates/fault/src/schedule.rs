use crate::FaultKind;

/// When, during a training run, the fault strikes.
///
/// Training-time experiments (Fig. 2, Fig. 7a) inject transient faults at a
/// single episode index and permanent faults from episode 0 onwards;
/// [`InjectionSchedule::for_fault`] holds that rule.
///
/// # Examples
///
/// ```
/// use navft_fault::{FaultKind, InjectionSchedule};
///
/// let schedule = InjectionSchedule::at_episode(900);
/// assert!(schedule.triggers_at(900));
/// assert!(!schedule.triggers_at(899));
/// assert!(InjectionSchedule::from_start().triggers_at(0));
/// assert_eq!(
///     InjectionSchedule::for_fault(FaultKind::StuckAt1, 900),
///     InjectionSchedule::from_start()
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectionSchedule {
    episode: usize,
}

impl InjectionSchedule {
    /// The fault strikes at the beginning of `episode` (0-based).
    pub fn at_episode(episode: usize) -> InjectionSchedule {
        InjectionSchedule { episode }
    }

    /// The fault is present from the very first episode (permanent-fault
    /// semantics).
    pub fn from_start() -> InjectionSchedule {
        InjectionSchedule::at_episode(0)
    }

    /// The schedule of a fault of `kind` injected at `episode`: a permanent
    /// (stuck-at) defect is present from the start whatever `episode` says,
    /// a transient flip strikes at `episode`.
    pub fn for_fault(kind: FaultKind, episode: usize) -> InjectionSchedule {
        if kind.is_permanent() {
            InjectionSchedule::from_start()
        } else {
            InjectionSchedule::at_episode(episode)
        }
    }

    /// Whether the fault should be injected when execution reaches
    /// `episode`.
    pub fn triggers_at(&self, episode: usize) -> bool {
        episode == self.episode
    }

    /// Whether the fault has already been injected by the time execution
    /// reaches `episode`.
    pub fn active_at(&self, episode: usize) -> bool {
        episode >= self.episode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_and_active_semantics() {
        let s = InjectionSchedule::at_episode(250);
        assert!(!s.triggers_at(249));
        assert!(s.triggers_at(250));
        assert!(!s.triggers_at(251));
        assert!(!s.active_at(249));
        assert!(s.active_at(250));
        assert!(s.active_at(1000));
    }

    #[test]
    fn from_start_is_always_active() {
        let s = InjectionSchedule::from_start();
        assert!(!s.triggers_at(1));
        assert!(s.active_at(0));
        assert!(s.triggers_at(0));
    }

    #[test]
    fn permanent_kinds_start_at_zero_and_flips_at_their_episode() {
        for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
            assert_eq!(InjectionSchedule::for_fault(kind, 42), InjectionSchedule::from_start());
        }
        assert_eq!(
            InjectionSchedule::for_fault(FaultKind::BitFlip, 42),
            InjectionSchedule::at_episode(42)
        );
    }
}
