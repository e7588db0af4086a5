//! Integration test: the drone simulator driven by the C3F2 policy network
//! with weight faults, end to end.

use navft_dronesim::{ActionSpace, DepthCamera, DroneSim, DroneWorld};
use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector};
use navft_nn::{C3f2Config, Tensor};
use navft_qformat::QFormat;
use navft_rl::{evaluate_policy_vision, InferenceFaultMode, VisionEnvironment};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn c3f2_policy_consumes_drone_frames_and_selects_valid_actions() {
    let config = C3f2Config::scaled();
    let mut rng = SmallRng::seed_from_u64(0);
    let policy = config.build(&mut rng);
    let mut sim = DroneSim::indoor_long();
    let mut frame = sim.reset();
    for _ in 0..5 {
        let action = policy.forward(&frame).argmax();
        assert!(action < ActionSpace::COUNT);
        let transition = sim.step(action);
        frame = transition.observation;
        assert_eq!(frame.shape(), &config.input_shape());
        if transition.terminal {
            break;
        }
    }
}

#[test]
fn heavy_weight_corruption_degrades_flight_distance() {
    let mut rng = SmallRng::seed_from_u64(1);
    let policy = navft_core::drone_policy::train_drone_policy(
        &DroneWorld::indoor_long(),
        &navft_core::Scale::Smoke.drone(),
        1,
    );
    let mut sim = DroneSim::new(DroneWorld::indoor_long(), DepthCamera::scaled(), 60);
    let clean =
        evaluate_policy_vision(&mut sim, &policy, 3, 60, &InferenceFaultMode::None, &mut rng);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        policy.weight_count(),
        QFormat::Q4_11,
        0.05,
        FaultKind::StuckAt1,
        &mut rng,
    );
    let corrupted = evaluate_policy_vision(
        &mut sim,
        &policy,
        3,
        60,
        &InferenceFaultMode::Permanent(injector),
        &mut rng,
    );
    assert!(
        corrupted.mean_distance <= clean.mean_distance,
        "corrupted {} vs clean {}",
        corrupted.mean_distance,
        clean.mean_distance
    );
}

#[test]
fn both_environments_render_frames_with_structure() {
    for mut sim in [DroneSim::indoor_long(), DroneSim::indoor_vanleer()] {
        let frame: Tensor = sim.reset();
        let mean = frame.data().iter().sum::<f32>() / frame.len() as f32;
        assert!(mean > 0.0, "frames should see some obstruction");
        assert!(mean < 1.0, "frames should not be fully saturated");
        assert_eq!(sim.num_actions(), 25);
    }
}
