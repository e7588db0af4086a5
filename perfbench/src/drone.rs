//! `drone-inference`: read-only C3F2 inference campaigns as a closed batch
//! job. Set-up trains the drone policy once and quantizes it to every
//! backend; each trial is one vectorized rollout at full evaluation width
//! under a weight, input, activation or per-layer fault, on the f32,
//! Q(1,4,11), Q(1,7,8) or i8 backend, guarded or not (the cells mirror
//! Fig. 7b–e and the Fig. 10 drone arms).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use navft_core::drone_policy::train_drone_policy;
use navft_core::sweep::{CellSpec, Sweep};
use navft_core::{BufferFaultHook, DroneParams, HookPersistence, HookTarget, Scale};
use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{BitFault, FaultKind, FaultMap, FaultSite, FaultTarget, Injector};
use navft_mitigation::{RangeGuard, RangeGuardConfig};
use navft_nn::{
    parametric_layer_names, EngineConfig, HooksFor, I8Network, Network, NetworkBase, NoHooks,
    QNetwork,
};
use navft_qformat::QFormat;
use navft_rl::{
    corrupt_network_weights, evaluate_policy_vision_batched, evaluate_policy_vision_hooked_batched,
    DummyVisionVecEnv, EvalElement, InferenceFaultMode,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::campaign::{add_cell, facts_fold, Counters};
use crate::shims::{TimedBufferHook, TimedVecEnv};
use crate::trace;

/// The fixed-point format drone weights are stored in.
const DRONE_FORMAT: QFormat = QFormat::Q4_11;

/// The raw-bit layout i8 weight faults are sampled over.
const I8_FORMAT: QFormat = QFormat::Q3_4;

/// The trained policy on every backend, plus its range guard.
pub struct Policies {
    world: DroneWorld,
    f32: Network,
    q4_11: QNetwork,
    q7_8: QNetwork,
    i8: I8Network,
    guard: RangeGuard,
    layers: Vec<(String, usize)>,
}

/// Set-up timings (seconds).
pub struct SetupTimes {
    /// Whole set-up.
    pub total: f64,
    /// `train_drone_policy`.
    pub train: f64,
    /// Quantizing to the Q and i8 backends.
    pub quantize: f64,
}

/// Trains the drone policy (quick-scale behaviour cloning, with the
/// figures' fixed seed: its competence sets flight lengths, hence trial
/// cost, so it must not change with the run seed) and quantizes it:
/// nothing lazy is left for the trials.
pub fn setup() -> (Policies, SetupTimes) {
    const POLICY_SEED: u64 = 0x0D0E;
    let started = Instant::now();
    let world = DroneWorld::indoor_long();
    let f32 = train_drone_policy(&world, &Scale::Quick.drone(), POLICY_SEED);
    let train = started.elapsed().as_secs_f64();
    let quantized = Instant::now();
    let q4_11 = f32.to_quantized(QFormat::Q4_11);
    let q7_8 = f32.to_quantized(QFormat::Q7_8);
    let i8 = I8Network::quantize(&f32);
    let quantize = quantized.elapsed().as_secs_f64();
    let guard = RangeGuard::from_network(&f32, DRONE_FORMAT, RangeGuardConfig::paper());
    let layers = parametric_layer_names(&f32);
    let policies = Policies { world, f32, q4_11, q7_8, i8, guard, layers };
    (policies, SetupTimes { total: started.elapsed().as_secs_f64(), train, quantize })
}

/// One batch row per flight at the figures' full evaluation width: the
/// paper-scale flight count (20), which the Fig. 7 and Fig. 10 experiments
/// clamp to at most 64 rows. Flights stop after 100 steps, so a run
/// completes hundreds of trials.
fn params() -> DroneParams {
    DroneParams {
        eval_episodes: Scale::Paper.drone().eval_episodes,
        max_steps: 100,
        ..Scale::Quick.drone()
    }
}

fn venv(
    world: &DroneWorld,
    params: &DroneParams,
    rows: &'static str,
) -> TimedVecEnv<DummyVisionVecEnv<DroneSim>> {
    let sim = DroneSim::new(world.clone(), DepthCamera::scaled(), params.max_steps);
    TimedVecEnv::new(
        DummyVisionVecEnv::from_prototype(&sim, params.eval_episodes.clamp(1, 64)),
        "dronesim.step",
        "dronesim.reset",
        rows,
    )
    .with_ticks()
}

/// Mean safe flight distance of `network` under a weight fault mode.
fn flight<W: EvalElement>(
    network: &NetworkBase<W>,
    span: &'static str,
    rows: &'static str,
    policies: &Policies,
    fault: &InferenceFaultMode,
    seed: u64,
    engine: EngineConfig,
) -> f64
where
    NoHooks: HooksFor<W>,
{
    let params = params();
    let mut venv = venv(&policies.world, &params, rows);
    let mut rng = SmallRng::seed_from_u64(seed);
    trace::timed(span, seed, || {
        evaluate_policy_vision_batched(
            &mut venv,
            network,
            params.eval_episodes,
            params.max_steps,
            fault,
            &mut rng,
            engine,
        )
    })
    .mean_distance
}

/// Mean safe flight distance of the f32 policy with a buffer-fault hook
/// per flight.
fn hooked_flight(
    policies: &Policies,
    target: HookTarget,
    persistence: HookPersistence,
    ber: f64,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let params = params();
    let mut venv = venv(&policies.world, &params, "rl.rollout_rows.f32");
    let mut rng = SmallRng::seed_from_u64(seed);
    trace::timed("rl.rollout.f32", seed, || {
        evaluate_policy_vision_hooked_batched(
            &mut venv,
            &policies.f32,
            params.eval_episodes,
            params.max_steps,
            &InferenceFaultMode::None,
            &mut rng,
            |episode| {
                let hook_seed = seed ^ ((episode as u64) << 16);
                TimedBufferHook(BufferFaultHook::new(
                    target,
                    persistence,
                    ber,
                    FaultKind::BitFlip,
                    DRONE_FORMAT,
                    hook_seed,
                ))
            },
            engine,
        )
    })
    .mean_distance
}

fn weight_injector(words: usize, ber: f64, format: QFormat, seed: u64) -> Injector {
    let mut rng = SmallRng::seed_from_u64(seed);
    let injector = trace::timed("fault.sample", seed, || {
        Injector::sample(
            FaultTarget::new(FaultSite::WeightBuffer),
            words,
            format,
            ber,
            FaultKind::BitFlip,
            &mut rng,
        )
    });
    trace::count("fault.faults", injector.fault_count() as u64);
    injector
}

/// Bit flips confined to one layer's weight span (Fig. 7d).
fn layer_injector(network: &Network, layer: usize, ber: f64, seed: u64) -> Injector {
    let span = network.weight_span(layer);
    let mut rng = SmallRng::seed_from_u64(seed);
    let injector = trace::timed("fault.sample", seed, || {
        let local = FaultMap::sample(span.len(), DRONE_FORMAT, ber, FaultKind::BitFlip, &mut rng);
        let shifted: FaultMap = local
            .faults()
            .iter()
            .map(|f| BitFault { word: f.word + span.start, bit: f.bit, kind: f.kind })
            .collect();
        Injector::new(FaultTarget::layer(FaultSite::WeightBuffer, layer), DRONE_FORMAT, shifted)
    });
    trace::count("fault.faults", injector.fault_count() as u64);
    injector
}

/// What one drone cell does.
#[derive(Debug, Clone)]
enum Arm {
    /// Weight bit flips on a backend (Fig. 7b / 7e).
    Weights(Backend),
    /// A buffer-fault hook (Fig. 7c).
    Hook(HookTarget, HookPersistence),
    /// Weight bit flips confined to one layer (Fig. 7d).
    Layer(usize),
    /// Weight bit flips, scrubbed by the range guard or not (Fig. 10b).
    Guard(bool),
}

#[derive(Debug, Clone, Copy)]
enum Backend {
    F32,
    Q4_11,
    Q7_8,
    I8,
}

fn trial(arm: &Arm, ber: f64, policies: &Policies, seed: u64, engine: EngineConfig) -> f64 {
    let whole = InferenceFaultMode::TransientWholeEpisode;
    match arm {
        Arm::Weights(Backend::F32) => {
            let fault =
                whole(weight_injector(policies.f32.weight_count(), ber, DRONE_FORMAT, seed));
            flight(
                &policies.f32,
                "rl.rollout.f32",
                "rl.rollout_rows.f32",
                policies,
                &fault,
                seed ^ 0xF11,
                engine,
            )
        }
        Arm::Weights(Backend::Q4_11) => {
            let fault =
                whole(weight_injector(policies.q4_11.weight_count(), ber, QFormat::Q4_11, seed));
            flight(
                &policies.q4_11,
                "rl.rollout.q4_11",
                "rl.rollout_rows.q4_11",
                policies,
                &fault,
                seed ^ 0x7E,
                engine,
            )
        }
        Arm::Weights(Backend::Q7_8) => {
            let fault =
                whole(weight_injector(policies.q7_8.weight_count(), ber, QFormat::Q7_8, seed));
            flight(
                &policies.q7_8,
                "rl.rollout.q7_8",
                "rl.rollout_rows.q7_8",
                policies,
                &fault,
                seed ^ 0x7E,
                engine,
            )
        }
        Arm::Weights(Backend::I8) => {
            let fault = whole(weight_injector(policies.i8.weight_count(), ber, I8_FORMAT, seed));
            flight(
                &policies.i8,
                "rl.rollout.i8",
                "rl.rollout_rows.i8",
                policies,
                &fault,
                seed ^ 0x7E,
                engine,
            )
        }
        Arm::Hook(target, persistence) => {
            hooked_flight(policies, *target, *persistence, ber, seed, engine)
        }
        Arm::Layer(layer) => {
            let fault = whole(layer_injector(&policies.f32, *layer, ber, seed));
            flight(
                &policies.f32,
                "rl.rollout.f32",
                "rl.rollout_rows.f32",
                policies,
                &fault,
                seed ^ 0x7D,
                engine,
            )
        }
        Arm::Guard(guarded) => {
            let injector =
                weight_injector(policies.f32.weight_count(), ber, DRONE_FORMAT, seed ^ 0x10B);
            let mut corrupted = corrupt_network_weights(&policies.f32, &whole(injector));
            if *guarded {
                let scrubbed =
                    trace::timed("mitigation.scrub", seed, || policies.guard.scrub(&mut corrupted));
                trace::count("mitigation.scrubbed", scrubbed as u64);
            }
            flight(
                &corrupted,
                "rl.rollout.f32",
                "rl.rollout_rows.f32",
                policies,
                &InferenceFaultMode::None,
                seed ^ 0x10B,
                engine,
            )
        }
    }
}

/// The cells of one round: `(id, arm, ber, repetitions)`.
fn cells(policies: &Policies) -> Vec<(String, Arm, f64, usize)> {
    let mut cells = vec![
        ("weights/f32/ber=0.001".to_string(), Arm::Weights(Backend::F32), 1e-3, 1),
        ("weights/f32/ber=0.01".to_string(), Arm::Weights(Backend::F32), 1e-2, 1),
        (
            "input/transient/ber=0.01".to_string(),
            Arm::Hook(HookTarget::Input, HookPersistence::Transient),
            1e-2,
            1,
        ),
        (
            "activations/transient/ber=0.001".to_string(),
            Arm::Hook(HookTarget::Activations, HookPersistence::Transient),
            1e-3,
            1,
        ),
        (
            "activations/permanent/ber=0.001".to_string(),
            Arm::Hook(HookTarget::Activations, HookPersistence::Permanent),
            1e-3,
            1,
        ),
        ("dtype/q4_11/ber=0.001".to_string(), Arm::Weights(Backend::Q4_11), 1e-3, 2),
        ("dtype/q7_8/ber=0.001".to_string(), Arm::Weights(Backend::Q7_8), 1e-3, 2),
        ("dtype/i8/ber=0.001".to_string(), Arm::Weights(Backend::I8), 1e-3, 2),
        ("guard/base/ber=0.01".to_string(), Arm::Guard(false), 1e-2, 1),
        ("guard/guarded/ber=0.01".to_string(), Arm::Guard(true), 1e-2, 1),
    ];
    for (name, layer) in &policies.layers {
        cells.push((format!("layer/{name}/ber=0.01"), Arm::Layer(*layer), 1e-2, 1));
    }
    cells
}

/// A campaign builder over shared set-up state.
pub fn builder(
    policies: Arc<Policies>,
) -> impl Fn(u64, Option<&BTreeSet<String>>, &Arc<Counters>) -> Vec<Sweep> {
    move |round_seed, keep, counters| {
        let mut sweep = Sweep::new("drone-inference", Scale::Quick);
        for (id, arm, ber, repetitions) in cells(&policies) {
            let spec = CellSpec::new(id, repetitions)
                .with_seed(round_seed)
                .with_label("ber", ber.to_string());
            let policies = Arc::clone(&policies);
            add_cell(&mut sweep, spec, keep, counters, 1, move |seed, engine| {
                vec![trial(&arm, ber, &policies, seed, engine)]
            });
        }
        facts_fold(&mut sweep, "drone inference: mean safe flight distance (m) per cell");
        vec![sweep]
    }
}
