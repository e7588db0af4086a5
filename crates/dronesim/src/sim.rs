//! The drone navigation simulator: action space, dynamics, reward and the
//! [`VisionEnvironment`] implementation.

use navft_nn::Tensor;
use navft_rl::{VisionEnvironment, VisionTransition};

use crate::camera::DepthCamera;
use crate::geometry::Vec2;
use crate::world::DroneWorld;

/// The 25-way perception-based action space of the paper: 5 yaw adjustments ×
/// 5 forward travel distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActionSpace;

impl ActionSpace {
    /// Number of discrete actions.
    pub const COUNT: usize = 25;

    /// The yaw change (radians) and forward travel (metres) of action
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 25`.
    pub fn decode(index: usize) -> (f32, f32) {
        assert!(index < Self::COUNT, "action {index} out of range");
        use std::f32::consts::FRAC_PI_6;
        // ±30°, ±15°, 0°
        const YAWS: [f32; 5] = [-FRAC_PI_6, -FRAC_PI_6 / 2.0, 0.0, FRAC_PI_6 / 2.0, FRAC_PI_6];
        const MOVES: [f32; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
        (YAWS[index / 5], MOVES[index % 5])
    }

    /// The action index for the given yaw bin (0..5) and move bin (0..5).
    ///
    /// # Panics
    ///
    /// Panics if either bin is out of range.
    pub fn encode(yaw_bin: usize, move_bin: usize) -> usize {
        assert!(yaw_bin < 5 && move_bin < 5, "action bins out of range");
        yaw_bin * 5 + move_bin
    }
}

/// The drone navigation simulator (§4.2): a drone with a synthetic depth
/// camera flying through a [`DroneWorld`] until it collides.
///
/// The reward encourages staying away from obstacles — it combines forward
/// progress with the clearance seen by the camera and penalises collisions —
/// and the quality-of-flight metric is the distance flown before collision
/// (Mean Safe Flight), exactly the structure of the paper's task.
///
/// # Examples
///
/// ```
/// use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
/// use navft_rl::VisionEnvironment;
///
/// let mut sim = DroneSim::new(DroneWorld::indoor_long(), DepthCamera::scaled(), 300);
/// let frame = sim.reset();
/// assert_eq!(frame.shape(), &[1, 31, 31]);
/// let transition = sim.step(12); // fly straight ahead
/// assert!(transition.distance > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DroneSim {
    world: DroneWorld,
    camera: DepthCamera,
    max_steps: usize,
    position: Vec2,
    heading: f32,
    steps: usize,
    crashed: bool,
}

impl DroneSim {
    /// Creates a simulator over `world` with the given camera and an episode
    /// cap of `max_steps` steps.
    pub fn new(world: DroneWorld, camera: DepthCamera, max_steps: usize) -> DroneSim {
        let position = world.start();
        let heading = world.start_heading();
        DroneSim { world, camera, max_steps, position, heading, steps: 0, crashed: false }
    }

    /// The simulator over the `indoor-long` world with the scaled camera —
    /// the configuration most experiments use.
    pub fn indoor_long() -> DroneSim {
        DroneSim::new(DroneWorld::indoor_long(), DepthCamera::scaled(), 400)
    }

    /// The simulator over the `indoor-vanleer` world with the scaled camera.
    pub fn indoor_vanleer() -> DroneSim {
        DroneSim::new(DroneWorld::indoor_vanleer(), DepthCamera::scaled(), 400)
    }

    /// The world being flown.
    pub fn world(&self) -> &DroneWorld {
        &self.world
    }

    /// The camera configuration.
    pub fn camera(&self) -> DepthCamera {
        self.camera
    }

    /// The drone's current position.
    pub fn position(&self) -> Vec2 {
        self.position
    }

    /// The drone's current heading in radians.
    pub fn heading(&self) -> f32 {
        self.heading
    }

    /// Whether the current episode ended in a collision.
    pub fn crashed(&self) -> bool {
        self.crashed
    }
}

impl VisionEnvironment for DroneSim {
    fn observation_shape(&self) -> [usize; 3] {
        self.camera.frame_shape()
    }

    fn num_actions(&self) -> usize {
        ActionSpace::COUNT
    }

    fn reset(&mut self) -> Tensor {
        self.position = self.world.start();
        self.heading = self.world.start_heading();
        self.steps = 0;
        self.crashed = false;
        self.camera.render(&self.world, self.position, self.heading)
    }

    fn step(&mut self, action: usize) -> VisionTransition {
        let (yaw, travel) = ActionSpace::decode(action);
        self.heading += yaw;
        let direction = Vec2::from_heading(self.heading);
        let (position, travelled, collided) = self.world.sweep(self.position, direction, travel);
        self.position = position;
        self.steps += 1;
        self.crashed = collided;

        let (observation, clearance) =
            self.camera.capture(&self.world, self.position, self.heading);
        let reward = if collided {
            -1.0
        } else {
            // Forward progress plus a clearance bonus that discourages
            // skimming along obstacles, as in the paper's reward design.
            0.5 * travelled + 0.5 * (clearance / self.camera.max_range).clamp(0.0, 1.0)
        };
        let terminal = collided || self.steps >= self.max_steps;
        VisionTransition { observation, reward, terminal, distance: travelled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_space_decodes_all_25_actions() {
        let mut seen = std::collections::HashSet::new();
        for index in 0..ActionSpace::COUNT {
            let (yaw, travel) = ActionSpace::decode(index);
            assert!(yaw.abs() <= 0.53);
            assert!((0.2..=1.0).contains(&travel));
            seen.insert((yaw.to_bits(), travel.to_bits()));
        }
        assert_eq!(seen.len(), 25);
        assert_eq!(ActionSpace::encode(2, 4), 14);
        assert_eq!(ActionSpace::decode(14), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_action_panics() {
        let _ = ActionSpace::decode(25);
    }

    #[test]
    fn reset_returns_the_start_observation_and_clears_state() {
        let mut sim = DroneSim::indoor_long();
        sim.step(12);
        sim.step(12);
        let obs = sim.reset();
        assert_eq!(obs.shape(), &sim.observation_shape());
        assert!(!sim.crashed());
        assert_eq!(sim.position(), sim.world().start());
    }

    #[test]
    fn flying_straight_accumulates_distance() {
        let mut sim = DroneSim::indoor_long();
        sim.reset();
        let straight = ActionSpace::encode(2, 4);
        let mut total = 0.0;
        for _ in 0..5 {
            let t = sim.step(straight);
            total += t.distance;
            if t.terminal {
                break;
            }
        }
        assert!(total > 3.0, "flew {total} m");
    }

    #[test]
    fn spinning_into_the_wall_eventually_crashes() {
        let mut sim = DroneSim::indoor_long();
        sim.reset();
        // Keep yawing hard left and moving: the drone will hit the side wall.
        let action = ActionSpace::encode(0, 4);
        let mut crashed = false;
        for _ in 0..50 {
            let t = sim.step(action);
            if t.terminal {
                crashed = sim.crashed();
                assert_eq!(t.reward, -1.0);
                break;
            }
        }
        assert!(crashed, "the drone should have collided");
    }

    #[test]
    fn episodes_are_capped_at_max_steps() {
        let mut sim = DroneSim::new(DroneWorld::indoor_long(), DepthCamera::scaled(), 3);
        sim.reset();
        let gentle = ActionSpace::encode(2, 0);
        let mut steps = 0;
        loop {
            steps += 1;
            if sim.step(gentle).terminal {
                break;
            }
        }
        assert_eq!(steps, 3);
        assert!(!sim.crashed());
    }

    #[test]
    fn both_preset_environments_expose_25_actions() {
        assert_eq!(DroneSim::indoor_long().num_actions(), 25);
        assert_eq!(DroneSim::indoor_vanleer().num_actions(), 25);
    }

    #[test]
    fn reward_rewards_clearance() {
        let mut sim = DroneSim::indoor_long();
        sim.reset();
        let straight = sim.step(ActionSpace::encode(2, 2));
        assert!(straight.reward > 0.0);
    }
}
