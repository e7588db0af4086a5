//! Pins the exact bytes a [`DroneSim`] flight produces.
//!
//! Every (world, camera) pair replays the same fixed action script, resetting
//! on terminal steps, and folds every observation bit, reward, distance and
//! terminal flag into one digest. The digests were captured from the
//! two-pass simulator (one ray pass for the frame, a second for the reward
//! clearance); a rewrite of the camera or the step may change how the bytes
//! are computed, never which bytes come out.

use navft_dronesim::{ActionSpace, DepthCamera, DroneSim, DroneWorld};
use navft_rl::VisionEnvironment;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Steps replayed per (world, camera) pair.
const STEPS: usize = 160;
/// Episode cap: short enough that some episodes end on the cap, not a crash.
const MAX_STEPS: usize = 16;

/// Order-sensitive FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// The action script: a fixed xorshift stream over the 25 actions, biased
/// toward small yaws so flights both crash and reach the episode cap.
fn script() -> impl Iterator<Item = usize> {
    const YAW_BINS: [usize; 8] = [0, 1, 2, 2, 2, 2, 3, 4];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    std::iter::repeat_with(move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ActionSpace::encode(YAW_BINS[(state % 8) as usize], (state / 8 % 5) as usize)
    })
}

fn worlds() -> [DroneWorld; 3] {
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    [
        DroneWorld::indoor_long(),
        DroneWorld::indoor_vanleer(),
        DroneWorld::random_corridor(6, &mut rng),
    ]
}

fn cameras() -> [(&'static str, DepthCamera); 4] {
    [
        ("scaled", DepthCamera::scaled()),
        ("scaled-rgb", DepthCamera { channels: 3, ..DepthCamera::scaled() }),
        ("paper", DepthCamera::paper()),
        ("1x1x1", DepthCamera { width: 1, height: 1, channels: 1, ..DepthCamera::scaled() }),
    ]
}

/// Replays the script on one (world, camera) pair and digests the flight.
fn fly(world: DroneWorld, camera: DepthCamera) -> u64 {
    let mut sim = DroneSim::new(world, camera, MAX_STEPS);
    let mut hash = Fnv::new();
    hash.f32s(sim.reset().data());
    for action in script().take(STEPS) {
        let t = sim.step(action);
        hash.f32s(t.observation.data());
        hash.f32s(&[t.reward, t.distance]);
        hash.bytes(&[u8::from(t.terminal)]);
        if t.terminal {
            hash.f32s(sim.reset().data());
        }
    }
    hash.0
}

/// `(world, camera, digest)`, captured from the two-pass simulator.
const GOLDEN: [(&str, &str, u64); 12] = [
    ("indoor-long", "scaled", 0x8957_46c4_c7cb_bdea),
    ("indoor-long", "scaled-rgb", 0x5f24_9d82_13d5_3de2),
    ("indoor-long", "paper", 0x45b7_99fa_1fc8_6f6a),
    ("indoor-long", "1x1x1", 0x9b7a_f242_ba76_7853),
    ("indoor-vanleer", "scaled", 0xed16_eca9_789b_d47f),
    ("indoor-vanleer", "scaled-rgb", 0x71f8_8550_8158_80e7),
    ("indoor-vanleer", "paper", 0x9b08_a877_a3ff_425d),
    ("indoor-vanleer", "1x1x1", 0xcada_a69f_dae2_4a00),
    ("random-corridor", "scaled", 0x62cf_e11b_abe7_fa04),
    ("random-corridor", "scaled-rgb", 0x6ef8_b061_7416_f944),
    ("random-corridor", "paper", 0x2695_a860_5d9e_1b98),
    ("random-corridor", "1x1x1", 0xa0ea_dd95_bbdc_7b63),
];

#[test]
fn flights_match_the_golden_trajectory_digests() {
    let mut golden = GOLDEN.iter();
    let mut drifted = Vec::new();
    for world in worlds() {
        for (camera_name, camera) in cameras() {
            let &(want_world, want_camera, want) = golden.next().expect("a digest per pair");
            assert_eq!((world.name(), camera_name), (want_world, want_camera));
            let got = fly(world.clone(), camera);
            if got != want {
                drifted.push(format!(
                    "{want_world}/{want_camera}: got {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "trajectory digests drifted:\n{}", drifted.join("\n"));
}

#[test]
fn the_script_crashes_and_reaches_the_cap() {
    // The digests only pin both terminal paths if the script takes both.
    for world in worlds() {
        let mut sim = DroneSim::new(world, DepthCamera::scaled(), MAX_STEPS);
        sim.reset();
        let (mut crashes, mut capped) = (0, 0);
        for action in script().take(STEPS) {
            if sim.step(action).terminal {
                if sim.crashed() {
                    crashes += 1;
                } else {
                    capped += 1;
                }
                sim.reset();
            }
        }
        assert!(
            crashes > 0 && capped > 0,
            "{}: {crashes} crashes, {capped} caps",
            sim.world().name()
        );
    }
}
