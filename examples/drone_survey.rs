//! Drone fault-characterization survey: where do faults hurt the most?
//!
//! Reproduces a small version of Fig. 7c/7d: it pre-trains the C3F2 policy on
//! the indoor-long environment, then sweeps fault locations (input, weights,
//! activations) and individual layers, reporting Mean Safe Flight.
//!
//! ```text
//! cargo run --release --example drone_survey
//! ```

use navft_core::drone_policy::train_drone_policy;
use navft_core::{BufferFaultHook, HookPersistence, HookTarget, Scale};
use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{BitFault, FaultKind, FaultMap, FaultSite, FaultTarget, Injector};
use navft_nn::EngineConfig;
use navft_qformat::QFormat;
use navft_rl::{
    evaluate_policy_vision_batched, evaluate_policy_vision_hooked_batched, DummyVisionVecEnv,
    InferenceFaultMode,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let params = Scale::Quick.drone();
    let world = DroneWorld::indoor_long();
    println!("pre-training the C3F2 drone policy (behaviour cloning)...");
    let policy = train_drone_policy(&world, &params, 7);
    let mut rng = SmallRng::seed_from_u64(7);
    let sim = DroneSim::new(world.clone(), DepthCamera::scaled(), params.max_steps);
    // Every evaluation runs its episodes as batch rows of one rollout.
    let mut venv = DummyVisionVecEnv::from_prototype(&sim, params.eval_episodes);
    let engine = EngineConfig::default();

    let clean = evaluate_policy_vision_batched(
        &mut venv,
        &policy,
        params.eval_episodes,
        params.max_steps,
        &InferenceFaultMode::None,
        &mut rng,
        engine,
    );
    println!("fault-free mean safe flight: {:.1} m\n", clean.mean_distance);

    let ber = 1e-3;
    println!("fault-location sweep at BER = {ber:.0e} (bit flips):");
    // Weights.
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        policy.weight_count(),
        QFormat::Q4_11,
        ber,
        FaultKind::BitFlip,
        &mut rng,
    );
    let weights = evaluate_policy_vision_batched(
        &mut venv,
        &policy,
        params.eval_episodes,
        params.max_steps,
        &InferenceFaultMode::TransientWholeEpisode(injector),
        &mut rng,
        engine,
    );
    println!("  {:<26} {:>7.1} m", "weight buffer", weights.mean_distance);
    // Input and activations, via forward hooks.
    for (label, target, persistence) in [
        ("input buffer", HookTarget::Input, HookPersistence::Transient),
        ("activations (transient)", HookTarget::Activations, HookPersistence::Transient),
        ("activations (permanent)", HookTarget::Activations, HookPersistence::Permanent),
    ] {
        let result = evaluate_policy_vision_hooked_batched(
            &mut venv,
            &policy,
            params.eval_episodes,
            params.max_steps,
            &InferenceFaultMode::None,
            &mut rng,
            |episode| {
                BufferFaultHook::new(
                    target,
                    persistence,
                    ber,
                    FaultKind::BitFlip,
                    QFormat::Q4_11,
                    episode as u64,
                )
            },
            engine,
        );
        println!("  {:<26} {:>7.1} m", label, result.mean_distance);
    }

    println!("\nper-layer sensitivity at BER = 1e-2 (bit flips confined to one layer):");
    for (name, layer) in navft_nn::parametric_layer_names(&policy) {
        let span = policy.weight_span(layer);
        let local =
            FaultMap::sample(span.len(), QFormat::Q4_11, 1e-2, FaultKind::BitFlip, &mut rng);
        let shifted: FaultMap = local
            .faults()
            .iter()
            .map(|f| BitFault { word: f.word + span.start, bit: f.bit, kind: f.kind })
            .collect();
        let injector = Injector::new(
            FaultTarget::layer(FaultSite::WeightBuffer, layer),
            QFormat::Q4_11,
            shifted,
        );
        let result = evaluate_policy_vision_batched(
            &mut venv,
            &policy,
            params.eval_episodes,
            params.max_steps,
            &InferenceFaultMode::TransientWholeEpisode(injector),
            &mut rng,
            engine,
        );
        println!("  {:<8} {:>7.1} m", name, result.mean_distance);
    }
}
