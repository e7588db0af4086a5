//! Drone policy construction: a clearance-based heuristic pilot, offline
//! behaviour-cloning pre-training of the C3F2 network, and online
//! fine-tuning — the substitute for the paper's offline Double-DQN training
//! followed by transfer-learning fine-tuning of the last two layers.
//!
//! Training the full C3F2 network with reinforcement learning end-to-end is
//! far outside a laptop budget, and is not what the fault study needs: it
//! needs a *competent trained policy whose behaviour is encoded in its
//! weights*, so that corrupting those weights degrades flight quality. We
//! obtain one by behaviour-cloning a clearance-based pilot into the C3F2
//! topology (training the fully-connected tail on frames gathered from the
//! simulator), then optionally fine-tuning the same tail online with Double
//! DQN exactly as the paper's transfer-learning setup does.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use navft_dronesim::{ActionSpace, DepthCamera, DroneSim, DroneWorld};
use navft_nn::{C3f2Config, ForwardTrace, Network, Tensor};
use navft_rl::{DqnAgent, DqnConfig, EpsilonSchedule, VisionEnvironment};

use crate::DroneParams;

/// The clearance-based heuristic pilot: reads the proximity frame, steers
/// away from the side with more nearby obstruction and slows down when the
/// path ahead is blocked.
///
/// Returns an action index in the 25-way [`ActionSpace`].
pub fn heuristic_action(frame: &Tensor) -> usize {
    let shape = frame.shape();
    let (h, w) = (shape[shape.len() - 2], shape[shape.len() - 1]);
    let data = frame.data();
    // Use the middle band of rows of the first channel.
    let row_lo = h / 3;
    let row_hi = (2 * h) / 3 + 1;
    let mut thirds = [0.0f32; 3];
    let mut counts = [0usize; 3];
    for row in row_lo..row_hi {
        for col in 0..w {
            let third = (col * 3 / w).min(2);
            thirds[third] += data[row * w + col];
            counts[third] += 1;
        }
    }
    for (sum, count) in thirds.iter_mut().zip(counts.iter()) {
        if *count > 0 {
            *sum /= *count as f32;
        }
    }
    let (left, centre, right) = (thirds[0], thirds[1], thirds[2]);

    // Yaw bin: 0/1 turn left, 2 straight, 3/4 turn right (higher proximity on
    // a side pushes the drone away from it).
    let yaw_bin = if centre < 0.25 && (left - right).abs() < 0.1 {
        2
    } else if right > left {
        if right - left > 0.2 {
            0
        } else {
            1
        }
    } else if left - right > 0.2 {
        4
    } else {
        3
    };
    // Speed bin: full speed when the centre is clear, crawl when blocked.
    let openness = (1.0 - centre).clamp(0.0, 1.0);
    let move_bin = ((openness * 4.0).round() as usize).min(4);
    ActionSpace::encode(yaw_bin, move_bin)
}

/// A behaviour-cloning dataset: frames labelled with the heuristic pilot's
/// actions, gathered by rolling the pilot out in `world`.
pub fn gather_pilot_dataset(
    world: &DroneWorld,
    camera: DepthCamera,
    steps: usize,
    max_episode_steps: usize,
    seed: u64,
) -> Vec<(Tensor, usize)> {
    let mut sim = DroneSim::new(world.clone(), camera, max_episode_steps);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut dataset = Vec::with_capacity(steps);
    let mut frame = sim.reset();
    for _ in 0..steps {
        let mut action = heuristic_action(&frame);
        // Small exploration noise diversifies the visited states.
        if rng.gen_bool(0.1) {
            action = rng.gen_range(0..ActionSpace::COUNT);
        }
        dataset.push((frame.clone(), heuristic_action(&frame)));
        let transition = sim.step(action);
        frame = if transition.terminal { sim.reset() } else { transition.observation };
    }
    dataset
}

/// Pre-trains the scaled C3F2 policy by behaviour-cloning the heuristic pilot
/// in `world`, then quantizes its weights to `Q(1,4,11)`.
pub fn train_drone_policy(world: &DroneWorld, params: &DroneParams, seed: u64) -> Network {
    let config = C3f2Config::scaled();
    let camera = DepthCamera::scaled();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut network = config.build(&mut rng);
    let dataset =
        gather_pilot_dataset(world, camera, params.clone_rollout_steps, 200, seed ^ 0xD0E);

    let trainable_from = config.first_fc_layer();
    let lr = 0.02;
    // One trace and one gradient buffer serve every SGD step of the cloning
    // run — the traced pass overwrites them in place instead of reallocating
    // the per-layer activations.
    let mut trace = ForwardTrace::new();
    let mut grad = Vec::new();
    for _epoch in 0..params.clone_sgd_epochs {
        for (frame, action) in &dataset {
            network.forward_traced_into(frame, &mut trace);
            let output = trace.output().data();
            // Regression targets: 1 for the pilot's action, 0 elsewhere.
            grad.clear();
            grad.extend(output.iter().enumerate().map(|(i, &q)| {
                let target = if i == *action { 1.0 } else { 0.0 };
                2.0 * (q - target) / output.len() as f32
            }));
            network.backward_tail(&trace, &grad, lr, trainable_from);
        }
    }
    network.quantize_weights(navft_qformat::QFormat::Q4_11);
    network
}

/// Wraps a drone policy network in a Double-DQN agent configured for online
/// fine-tuning of the fully-connected tail (the paper's transfer-learning
/// stage).
pub fn drone_agent(network: Network, steady_episodes: usize) -> DqnAgent {
    let config = C3f2Config::scaled();
    let input_shape = config.input_shape().to_vec();
    DqnAgent::new(
        network,
        &input_shape,
        EpsilonSchedule::new(0.3, 0.02, 0.02f64.powf(1.0 / steady_episodes.max(1) as f64)),
        DqnConfig::drone(config.first_fc_layer()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use navft_nn::EngineConfig;
    use navft_rl::{evaluate_policy_vision_batched, DummyVisionVecEnv, InferenceFaultMode};

    #[test]
    fn heuristic_prefers_to_steer_away_from_the_blocked_side() {
        // A frame whose right half is very close (bright) and left half clear.
        let mut frame = Tensor::zeros(&[1, 9, 9]);
        for row in 0..9 {
            for col in 5..9 {
                frame.set(&[0, row, col], 0.9);
            }
        }
        let action = heuristic_action(&frame);
        let yaw_bin = action / 5;
        assert!(yaw_bin <= 1, "should turn left, got yaw bin {yaw_bin}");

        // Mirror image: should turn right.
        let mut frame = Tensor::zeros(&[1, 9, 9]);
        for row in 0..9 {
            for col in 0..4 {
                frame.set(&[0, row, col], 0.9);
            }
        }
        let action = heuristic_action(&frame);
        assert!(action / 5 >= 3, "should turn right");

        // Clear view: full speed ahead.
        let clear = Tensor::zeros(&[1, 9, 9]);
        let action = heuristic_action(&clear);
        assert_eq!(action / 5, 2);
        assert_eq!(action % 5, 4);
    }

    #[test]
    fn heuristic_pilot_flies_a_reasonable_distance() {
        let max_steps = 200;
        let mut sim = DroneSim::new(DroneWorld::indoor_long(), DepthCamera::scaled(), max_steps);
        let mut total = 0.0f64;
        for _ in 0..2 {
            let mut frame = sim.reset();
            for _ in 0..max_steps {
                let transition = sim.step(heuristic_action(&frame));
                total += f64::from(transition.distance);
                frame = transition.observation;
                if transition.terminal {
                    break;
                }
            }
        }
        let distance = total / 2.0;
        assert!(distance > 10.0, "heuristic pilot flew only {distance} m");
    }

    #[test]
    fn dataset_gathering_produces_the_requested_size() {
        let world = DroneWorld::indoor_long();
        let dataset = gather_pilot_dataset(&world, DepthCamera::scaled(), 50, 100, 3);
        assert_eq!(dataset.len(), 50);
        assert!(dataset.iter().all(|(_, a)| *a < ActionSpace::COUNT));
    }

    #[test]
    #[ignore = "expensive: trains the cloned drone policy (run with --ignored)"]
    fn cloned_policy_flies_a_usable_distance() {
        let world = DroneWorld::indoor_long();
        let params = crate::Scale::Quick.drone();
        let trained = train_drone_policy(&world, &params, 5);
        let mut rng = SmallRng::seed_from_u64(99);
        let sim = DroneSim::new(world.clone(), DepthCamera::scaled(), 150);
        let mut venv = DummyVisionVecEnv::from_prototype(&sim, 3);
        let trained_result = evaluate_policy_vision_batched(
            &mut venv,
            &trained,
            3,
            150,
            &InferenceFaultMode::None,
            &mut rng,
            EngineConfig::default(),
        );
        assert!(
            trained_result.mean_distance > 5.0,
            "cloned policy flew only {} m",
            trained_result.mean_distance
        );
    }
}
