//! Experiment scaling: how big a campaign to run.
//!
//! The paper's campaigns (1000 training episodes × 1000 repetitions per cell)
//! take cluster-scale compute. Every experiment driver in this crate accepts a
//! [`Scale`] so the same code can run as a seconds-long smoke test, a
//! minutes-long laptop regeneration (the default for the `figures` binary and
//! the benches), or a paper-faithful campaign.

/// How much compute to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny parameters for unit/integration tests (seconds).
    Smoke,
    /// Laptop-sized parameters used by the figure-regeneration harness
    /// (minutes). The default.
    #[default]
    Quick,
    /// Parameters close to the paper's campaigns (hours).
    Paper,
}

impl Scale {
    /// Parameters for Grid World experiments at this scale.
    pub fn grid(&self) -> GridParams {
        match self {
            Scale::Smoke => GridParams {
                training_episodes: 150,
                max_steps: 60,
                repetitions: 2,
                eval_episodes: 30,
                bit_error_rates: vec![0.002, 0.01],
                injection_points: vec![0.1, 0.9],
                epsilon_steady_episodes: 90,
            },
            Scale::Quick => GridParams {
                training_episodes: 1000,
                max_steps: 100,
                repetitions: 5,
                eval_episodes: 100,
                bit_error_rates: vec![0.001, 0.002, 0.005, 0.008, 0.01],
                injection_points: vec![0.0, 0.3, 0.6, 0.95],
                epsilon_steady_episodes: 600,
            },
            Scale::Paper => GridParams {
                training_episodes: 1000,
                max_steps: 100,
                repetitions: 1000,
                eval_episodes: 1000,
                bit_error_rates: vec![
                    0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.01,
                ],
                injection_points: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                epsilon_steady_episodes: 600,
            },
        }
    }

    /// Parameters for drone experiments at this scale.
    pub fn drone(&self) -> DroneParams {
        match self {
            Scale::Smoke => DroneParams {
                repetitions: 2,
                eval_episodes: 2,
                max_steps: 40,
                finetune_episodes: 4,
                clone_rollout_steps: 200,
                clone_sgd_epochs: 3,
                bit_error_rates: vec![1e-3, 1e-2],
            },
            Scale::Quick => DroneParams {
                repetitions: 5,
                eval_episodes: 5,
                max_steps: 150,
                finetune_episodes: 20,
                clone_rollout_steps: 800,
                clone_sgd_epochs: 10,
                bit_error_rates: vec![1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
            },
            Scale::Paper => DroneParams {
                repetitions: 100,
                eval_episodes: 20,
                max_steps: 400,
                finetune_episodes: 200,
                clone_rollout_steps: 4000,
                clone_sgd_epochs: 30,
                bit_error_rates: vec![1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1],
            },
        }
    }

    /// Number of worker threads to use for campaign repetitions.
    pub fn threads(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        }
    }

    /// The worker-thread count with an explicit override (the `figures`
    /// binary's `--jobs N`): a positive `jobs` wins, otherwise the scale's
    /// default [`Scale::threads`] applies.
    ///
    /// This count is *trial-level* parallelism: how many campaign trials run
    /// concurrently. Each trial's inference engine sweeps on the trial's own
    /// thread, so `jobs` is also the number of live worker threads. It never
    /// affects results or artifacts, only wall-clock.
    pub fn threads_or(&self, jobs: Option<usize>) -> usize {
        match jobs {
            Some(n) if n > 0 => n,
            _ => self.threads(),
        }
    }
}

/// Grid World campaign parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GridParams {
    /// Number of training episodes per run.
    pub training_episodes: usize,
    /// Maximum steps per episode.
    pub max_steps: usize,
    /// Repetitions per campaign cell.
    pub repetitions: usize,
    /// Episodes used to evaluate a trained policy's success rate.
    pub eval_episodes: usize,
    /// The BER sweep.
    pub bit_error_rates: Vec<f64>,
    /// Fault-injection episodes, as fractions of the training length.
    pub injection_points: Vec<f64>,
    /// Episodes until the ε schedule reaches steady exploitation.
    pub epsilon_steady_episodes: usize,
}

impl GridParams {
    /// The absolute episode indices corresponding to
    /// [`GridParams::injection_points`].
    pub fn injection_episodes(&self) -> Vec<usize> {
        self.injection_points
            .iter()
            .map(|&f| {
                ((f * self.training_episodes as f64) as usize).min(self.training_episodes - 1)
            })
            .collect()
    }
}

/// Drone campaign parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DroneParams {
    /// Repetitions per campaign cell.
    pub repetitions: usize,
    /// Flight episodes per evaluation.
    pub eval_episodes: usize,
    /// Maximum steps per flight.
    pub max_steps: usize,
    /// Online fine-tuning episodes (Fig. 7a).
    pub finetune_episodes: usize,
    /// Steps of heuristic-pilot rollout used for offline behaviour cloning.
    pub clone_rollout_steps: usize,
    /// SGD epochs over the cloned dataset.
    pub clone_sgd_epochs: usize,
    /// The BER sweep.
    pub bit_error_rates: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_order_campaign_sizes() {
        let smoke = Scale::Smoke.grid();
        let quick = Scale::Quick.grid();
        let paper = Scale::Paper.grid();
        assert!(smoke.repetitions < quick.repetitions);
        assert!(quick.repetitions < paper.repetitions);
        assert!(smoke.training_episodes < paper.training_episodes);
        assert!(quick.epsilon_steady_episodes < quick.training_episodes);
        assert_eq!(paper.training_episodes, 1000);
        assert_eq!(paper.repetitions, 1000);
    }

    #[test]
    fn injection_episodes_stay_in_range() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            let grid = scale.grid();
            for e in grid.injection_episodes() {
                assert!(e < grid.training_episodes);
            }
        }
    }

    #[test]
    fn drone_params_scale_with_the_setting() {
        assert!(Scale::Smoke.drone().max_steps < Scale::Paper.drone().max_steps);
        assert_eq!(Scale::Paper.drone().repetitions, 100);
        assert!(Scale::Quick.drone().bit_error_rates.len() >= 5);
    }

    #[test]
    fn default_scale_is_quick_and_threads_positive() {
        assert_eq!(Scale::default(), Scale::Quick);
        assert!(Scale::Smoke.threads() >= 1);
        assert!(Scale::Quick.threads() >= 1);
    }

    #[test]
    fn jobs_override_beats_the_scale_default() {
        assert_eq!(Scale::Smoke.threads_or(Some(8)), 8);
        assert_eq!(Scale::Quick.threads_or(Some(1)), 1);
        assert_eq!(Scale::Smoke.threads_or(Some(0)), Scale::Smoke.threads());
        assert_eq!(Scale::Smoke.threads_or(None), Scale::Smoke.threads());
    }
}
