//! Fig. 7 — drone navigation fault characterization: training under faults
//! (7a), environment sensitivity (7b), fault-location sensitivity (7c),
//! per-layer sensitivity (7d) and data-type sensitivity (7e).
//!
//! Each panel is a [`Sweep`]; the trained base policies the cells share are
//! wrapped in [`Lazy`] so a fully resumed run never trains them at all.

use std::sync::Arc;

use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{FaultKind, FaultMap, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_nn::{
    parametric_layer_names, C3f2Config, EngineConfig, I8Network, Network, NetworkBase,
    QuantizedElement, Scratch,
};
use navft_qformat::QFormat;
use navft_rl::{
    evaluate_policy_vision_batched, evaluate_policy_vision_hooked_batched, trainer,
    DummyVisionVecEnv, EvalElement, FaultPlan, InferenceFaultMode, VisionEnvironment,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::drone_policy::{drone_agent, train_drone_policy};
use crate::experiments::ber_label;
use crate::hooks::{BufferFaultHook, HookPersistence, HookTarget};
use crate::sweep::{CellSpec, Lazy, Sweep, SweepResults};
use crate::{DroneParams, FigureData, Heatmap, Scale, Series};

/// The fixed-point format drone policy weights are stored in.
const DRONE_FORMAT: QFormat = QFormat::Q4_11;

/// Trains the drone policy used by the inference experiments (deterministic
/// for a given scale).
fn trained_policy(world: &DroneWorld, params: &DroneParams) -> Network {
    train_drone_policy(world, params, 0x0D0E)
}

/// A lazily trained base policy for `world`, shared by a sweep's cells.
fn lazy_policy(world: &Arc<DroneWorld>, params: &Arc<DroneParams>) -> Lazy<Network> {
    let world = Arc::clone(world);
    let params = Arc::clone(params);
    Lazy::new(move || trained_policy(&world, &params))
}

/// Samples a weight-buffer injector over a network's `num_words` weights.
fn weight_injector(
    num_words: usize,
    ber: f64,
    kind: FaultKind,
    format: QFormat,
    seed: u64,
) -> Injector {
    let mut rng = SmallRng::seed_from_u64(seed);
    Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        num_words,
        format,
        ber,
        kind,
        &mut rng,
    )
}

/// Samples an injector whose faults are confined to one layer's weight span.
fn layer_injector(network: &Network, layer: usize, ber: f64, seed: u64) -> Injector {
    let span = network.weight_span(layer);
    let mut rng = SmallRng::seed_from_u64(seed);
    let local = FaultMap::sample(span.len(), DRONE_FORMAT, ber, FaultKind::BitFlip, &mut rng);
    let shifted: FaultMap = local
        .faults()
        .iter()
        .map(|f| navft_fault::BitFault { word: f.word + span.start, bit: f.bit, kind: f.kind })
        .collect();
    Injector::new(FaultTarget::layer(FaultSite::WeightBuffer, layer), DRONE_FORMAT, shifted)
}

/// The rollout batch width for drone evaluation: one row per evaluation
/// episode up to a fixed cap, derived from the parameters alone so results
/// and artifacts never depend on the engine config.
fn eval_width(params: &DroneParams) -> usize {
    params.eval_episodes.clamp(1, 64)
}

/// A batch of independent simulators over `world`, one row per evaluation
/// episode (capped by [`eval_width`]).
fn drone_venv(world: &DroneWorld, params: &DroneParams) -> DummyVisionVecEnv<DroneSim> {
    let sim = DroneSim::new(world.clone(), DepthCamera::scaled(), params.max_steps);
    DummyVisionVecEnv::from_prototype(&sim, eval_width(params))
}

/// Evaluates the mean safe flight distance of `network` in `world` under the
/// given weight fault mode, on any backend: a quantized or `i8` policy runs
/// natively on its stored words. The episodes run as one vectorized
/// rollout — bit-identical to a serial per-episode loop at any width or
/// engine config.
fn flight_distance<W: EvalElement>(
    network: &NetworkBase<W>,
    world: &DroneWorld,
    params: &DroneParams,
    fault: &InferenceFaultMode,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let mut venv = drone_venv(world, params);
    let mut rng = SmallRng::seed_from_u64(seed);
    evaluate_policy_vision_batched(
        &mut venv,
        network,
        params.eval_episodes,
        params.max_steps,
        fault,
        &mut rng,
        engine,
    )
    .mean_distance
}

/// Runs one online fine-tuning session under the given weight fault and
/// reports the recent mean safe flight distance.
fn finetune_distance(
    base_policy: &Network,
    world: &DroneWorld,
    params: &DroneParams,
    kind: FaultKind,
    ber: f64,
    fraction: f64,
    seed: u64,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        base_policy.weight_count(),
        DRONE_FORMAT,
        ber,
        kind,
        &mut rng,
    );
    let episode = ((fraction * params.finetune_episodes as f64) as usize)
        .min(params.finetune_episodes.saturating_sub(1));
    let schedule = if kind.is_permanent() {
        InjectionSchedule::from_start()
    } else {
        InjectionSchedule::at_episode(episode)
    };
    let plan = FaultPlan::new(injector, schedule);
    let mut agent = drone_agent(base_policy.clone(), params.finetune_episodes / 2);
    let mut sim = DroneSim::new(world.clone(), DepthCamera::scaled(), params.max_steps);
    let trace = trainer::train_dqn_vision(
        &mut sim,
        &mut agent,
        trainer::TrainingConfig::new(params.finetune_episodes, params.max_steps),
        &plan,
        &mut rng,
        trainer::no_mitigation(),
    );
    trace.recent_mean_distance((params.finetune_episodes / 4).max(1))
}

const FINETUNE_FRACTIONS: [f64; 3] = [0.0, 0.5, 0.9];

/// Fig. 7a as a declarative sweep: fine-tuning under transient faults
/// (BER × injection point), permanent faults and the fault-free baseline.
///
/// Fine-tuning is the most expensive experiment, so repetitions are capped.
pub fn training_faults_sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.drone());
    let world = Arc::new(DroneWorld::indoor_long());
    let policy = lazy_policy(&world, &params);
    let reps = params.repetitions.min(3);
    let bers = params.bit_error_rates.clone();
    let representative_ber = bers[bers.len() / 2];

    let mut sweep = Sweep::new("fig7a", scale);
    for &ber in &bers {
        for &fraction in &FINETUNE_FRACTIONS {
            let spec = CellSpec::new(format!("transient/ber={ber}/at={fraction}"), reps)
                .with_label("figure", "fig7a-transient")
                .with_label("ber", ber.to_string())
                .with_label("injection", fraction.to_string());
            let (policy, world, params) = (policy.clone(), Arc::clone(&world), Arc::clone(&params));
            sweep.cell(spec, move |seed, _rep, _cfg| {
                finetune_distance(
                    policy.get(),
                    &world,
                    &params,
                    FaultKind::BitFlip,
                    ber,
                    fraction,
                    seed,
                )
            });
        }
    }
    for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
        let spec = CellSpec::new(format!("permanent/{kind}"), reps)
            .with_label("figure", "fig7a-permanent")
            .with_label("fault", kind.to_string())
            .with_label("ber", representative_ber.to_string());
        let (policy, world, params) = (policy.clone(), Arc::clone(&world), Arc::clone(&params));
        sweep.cell(spec, move |seed, _rep, _cfg| {
            finetune_distance(policy.get(), &world, &params, kind, representative_ber, 0.0, seed)
        });
    }
    {
        let spec = CellSpec::new("clean", reps).with_label("figure", "fig7a-permanent");
        let (policy, world, params) = (policy.clone(), Arc::clone(&world), Arc::clone(&params));
        sweep.cell(spec, move |seed, _rep, _cfg| {
            finetune_distance(policy.get(), &world, &params, FaultKind::BitFlip, 0.0, 0.0, seed)
        });
    }
    sweep.fold(move |results| {
        let rows = bers
            .iter()
            .map(|&ber| {
                FINETUNE_FRACTIONS
                    .iter()
                    .map(|&fraction| results.mean(&format!("transient/ber={ber}/at={fraction}")))
                    .collect()
            })
            .collect();
        let transient = FigureData::heatmap(
            "fig7a-transient",
            "drone online fine-tuning under transient weight bit flips",
            "mean safe flight distance (m) vs (BER, fault-injection point)",
            Heatmap::new(
                bers.iter().map(|&b| ber_label(b)).collect(),
                FINETUNE_FRACTIONS.iter().map(|f| format!("{:.0}%", f * 100.0)).collect(),
                rows,
            ),
        );
        let mut series = Vec::new();
        for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
            series.push(Series::new(
                kind.to_string(),
                vec![(representative_ber, results.mean(&format!("permanent/{kind}")))],
            ));
        }
        series.push(Series::new("fault-free", vec![(0.0, results.mean("clean"))]));
        let permanent = FigureData::lines(
            "fig7a-permanent",
            "drone online fine-tuning under permanent faults",
            "mean safe flight distance (m) at the marked BER",
            series,
        );
        vec![transient, permanent]
    });
    sweep
}

/// Fig. 7b as a declarative sweep: transient weight faults evaluated in both
/// indoor environments (one lazily trained policy per environment).
pub fn environment_sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.drone());
    let worlds = [Arc::new(DroneWorld::indoor_long()), Arc::new(DroneWorld::indoor_vanleer())];
    let mut sweep = Sweep::new("fig7b", scale);
    for world in &worlds {
        let policy = lazy_policy(world, &params);
        for &ber in &params.bit_error_rates {
            let spec = CellSpec::new(format!("{}/ber={ber}", world.name()), params.repetitions)
                .with_label("environment", world.name())
                .with_label("ber", ber.to_string());
            let (policy, world, params) = (policy.clone(), Arc::clone(world), Arc::clone(&params));
            sweep.cell(spec, move |seed, _rep, cfg| {
                let policy = policy.get();
                let injector = weight_injector(
                    policy.weight_count(),
                    ber,
                    FaultKind::BitFlip,
                    DRONE_FORMAT,
                    seed,
                );
                flight_distance(
                    policy,
                    &world,
                    &params,
                    &InferenceFaultMode::TransientWholeEpisode(injector),
                    seed ^ 0xF11,
                    cfg,
                )
            });
        }
    }
    let names: Vec<String> = worlds.iter().map(|w| w.name().to_string()).collect();
    sweep.fold(move |results| {
        let series = names
            .iter()
            .map(|name| {
                let points = params
                    .bit_error_rates
                    .iter()
                    .map(|&ber| (ber, results.mean(&format!("{name}/ber={ber}"))))
                    .collect();
                Series::new(name.clone(), points)
            })
            .collect();
        vec![FigureData::lines(
            "fig7b",
            "drone inference under weight bit flips in two environments",
            "mean safe flight distance (m) vs BER",
            series,
        )]
    });
    sweep
}

/// The fault locations swept by Fig. 7c.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    Input,
    Weights,
    ActivationsTransient,
    ActivationsPermanent,
}

impl Location {
    const ALL: [Location; 4] = [
        Location::Input,
        Location::Weights,
        Location::ActivationsTransient,
        Location::ActivationsPermanent,
    ];

    fn label(&self) -> &'static str {
        match self {
            Location::Input => "input buffer",
            Location::Weights => "weights",
            Location::ActivationsTransient => "activations (transient)",
            Location::ActivationsPermanent => "activations (permanent)",
        }
    }
}

/// Evaluates flight distance with a buffer-fault hook attached.
#[allow(clippy::too_many_arguments)]
fn hooked_distance(
    policy: &Network,
    world: &DroneWorld,
    params: &DroneParams,
    target: HookTarget,
    persistence: HookPersistence,
    ber: f64,
    seed: u64,
    engine: EngineConfig,
) -> f64 {
    let mut venv = drone_venv(world, params);
    let mut rng = SmallRng::seed_from_u64(seed);
    evaluate_policy_vision_hooked_batched(
        &mut venv,
        policy,
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
                DRONE_FORMAT,
                seed ^ (episode as u64) << 16,
            )
        },
        engine,
    )
    .mean_distance
}

/// Fig. 7c as a declarative sweep: faults in the input buffer, the weight
/// buffer, and the activation buffers (transient and permanent).
pub fn location_sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.drone());
    let world = Arc::new(DroneWorld::indoor_long());
    let policy = lazy_policy(&world, &params);
    let mut sweep = Sweep::new("fig7c", scale);
    for location in Location::ALL {
        for &ber in &params.bit_error_rates {
            let spec = CellSpec::new(format!("{}/ber={ber}", location.label()), params.repetitions)
                .with_label("location", location.label())
                .with_label("ber", ber.to_string());
            let (policy, world, params) = (policy.clone(), Arc::clone(&world), Arc::clone(&params));
            sweep.cell(spec, move |seed, _rep, cfg| {
                let policy = policy.get();
                match location {
                    Location::Input => hooked_distance(
                        policy,
                        &world,
                        &params,
                        HookTarget::Input,
                        HookPersistence::Transient,
                        ber,
                        seed,
                        cfg,
                    ),
                    Location::Weights => {
                        let injector = weight_injector(
                            policy.weight_count(),
                            ber,
                            FaultKind::BitFlip,
                            DRONE_FORMAT,
                            seed,
                        );
                        flight_distance(
                            policy,
                            &world,
                            &params,
                            &InferenceFaultMode::TransientWholeEpisode(injector),
                            seed ^ 0xAC,
                            cfg,
                        )
                    }
                    Location::ActivationsTransient => hooked_distance(
                        policy,
                        &world,
                        &params,
                        HookTarget::Activations,
                        HookPersistence::Transient,
                        ber,
                        seed,
                        cfg,
                    ),
                    Location::ActivationsPermanent => hooked_distance(
                        policy,
                        &world,
                        &params,
                        HookTarget::Activations,
                        HookPersistence::Permanent,
                        ber,
                        seed,
                        cfg,
                    ),
                }
            });
        }
    }
    sweep.fold(move |results| {
        let series = Location::ALL
            .iter()
            .map(|location| {
                let points = params
                    .bit_error_rates
                    .iter()
                    .map(|&ber| (ber, results.mean(&format!("{}/ber={ber}", location.label()))))
                    .collect();
                Series::new(location.label(), points)
            })
            .collect();
        vec![FigureData::lines(
            "fig7c",
            "drone inference sensitivity by fault location",
            "mean safe flight distance (m) vs BER",
            series,
        )]
    });
    sweep
}

/// The parametric layer names/indices of the drone policy topology. Uses an
/// untrained probe network: the topology is fixed by [`C3f2Config::scaled`],
/// so cells can be declared without training the policy.
fn drone_layer_index() -> Vec<(String, usize)> {
    let probe = C3f2Config::scaled().build(&mut SmallRng::seed_from_u64(0));
    parametric_layer_names(&probe)
}

/// Fig. 7d as a declarative sweep: bit flips confined to each layer's
/// weights in turn.
pub fn layer_sweep(scale: Scale) -> Sweep {
    let params = Arc::new(scale.drone());
    let world = Arc::new(DroneWorld::indoor_long());
    let policy = lazy_policy(&world, &params);
    let layers = drone_layer_index();
    let mut sweep = Sweep::new("fig7d", scale);
    for (name, layer) in &layers {
        for &ber in &params.bit_error_rates {
            let layer = *layer;
            let spec = CellSpec::new(format!("{name}/ber={ber}"), params.repetitions)
                .with_label("layer", name.clone())
                .with_label("ber", ber.to_string());
            let (policy, world, params) = (policy.clone(), Arc::clone(&world), Arc::clone(&params));
            sweep.cell(spec, move |seed, _rep, cfg| {
                let policy = policy.get();
                let injector = layer_injector(policy, layer, ber, seed);
                flight_distance(
                    policy,
                    &world,
                    &params,
                    &InferenceFaultMode::TransientWholeEpisode(injector),
                    seed ^ 0x7D,
                    cfg,
                )
            });
        }
    }
    sweep.fold(move |results| {
        let series = layers
            .iter()
            .map(|(name, _)| {
                let points = params
                    .bit_error_rates
                    .iter()
                    .map(|&ber| (ber, results.mean(&format!("{name}/ber={ber}"))))
                    .collect();
                Series::new(name.clone(), points)
            })
            .collect();
        vec![FigureData::lines(
            "fig7d",
            "drone inference sensitivity by faulted layer",
            "mean safe flight distance (m) vs BER (bit flips confined to one layer's weights)",
            series,
        )]
    });
    sweep
}

/// The data types swept by Fig. 7e.
const FIG7E_FORMATS: [QFormat; 3] = [QFormat::Q4_11, QFormat::Q7_8, QFormat::Q10_5];

/// Fig. 7e as a declarative sweep: the policy quantized to Q(1,4,11),
/// Q(1,7,8) and Q(1,10,5), each exposed to weight bit flips.
pub fn data_type_sweep(scale: Scale) -> Sweep {
    let mut sweep = Sweep::new("fig7e", scale);
    add_data_type_cells(&mut sweep, scale, &FIG7E_FORMATS, "fig7e");
    sweep.fold(move |results| data_type_figures(results, scale, &FIG7E_FORMATS, "fig7e"));
    sweep
}

/// Declares the data-type sweep's cells under `prefix` (also used by the
/// extended ablation).
///
/// Each format executes *natively*: the policy is compiled into a
/// [`QNetwork`](navft_nn::QNetwork) whose weights, inputs and activations
/// are live raw words in that format, bit flips strike those words in
/// place, and the forward pass is integer arithmetic end to end. The `i8`
/// per-tensor affine backend rides along as one more data-type column: the
/// policy compresses to one byte per parameter and bit flips strike the
/// stored bytes. Every column is declared by [`add_data_type_column`].
pub(crate) fn add_data_type_cells(
    sweep: &mut Sweep,
    scale: Scale,
    formats: &[QFormat],
    prefix: &str,
) {
    let params = Arc::new(scale.drone());
    let world = Arc::new(DroneWorld::indoor_long());
    let base = lazy_policy(&world, &params);
    for &format in formats {
        let base = base.clone();
        let quantized = Lazy::new(move || base.get().to_quantized(format));
        add_data_type_column(sweep, prefix, &format.to_string(), quantized, &world, &params);
    }
    let affine = Lazy::new(move || I8Network::quantize(base.get()));
    add_data_type_column(sweep, prefix, "i8", affine, &world, &params);
}

/// Declares one data-type column: the flight-distance cells of `policy`
/// under weight bit flips on its stored words, one per BER, preceded by a
/// single-repetition cell reporting its zero/one bit ratio over the whole
/// fault surface (weights plus calibration activations), the statistic
/// that explains the stuck-at asymmetry of Fig. 2.
fn add_data_type_column<W: QuantizedElement + EvalElement>(
    sweep: &mut Sweep,
    prefix: &str,
    label: &str,
    policy: Lazy<NetworkBase<W>>,
    world: &Arc<DroneWorld>,
    params: &Arc<DroneParams>,
) {
    {
        let spec = CellSpec::new(format!("{prefix}/bits/{label}"), 1)
            .with_label("figure", format!("{prefix}-bits"))
            .with_label("format", label);
        let (policy, world, params) = (policy.clone(), Arc::clone(world), Arc::clone(params));
        sweep.cell(spec, move |_seed, _rep, _cfg| {
            // Sweep every stored word of the compiled policy in one call:
            // its parameter words (weights and biases) plus the activations
            // of one calibration frame. The flight cells fault only the
            // weight words, but the bit-population statistic describes the
            // whole stored policy, as in Fig. 2.
            let policy = policy.get();
            let frame =
                DroneSim::new(world.as_ref().clone(), DepthCamera::scaled(), params.max_steps)
                    .reset();
            let mut calibration = W::input_buffer(frame.shape(), policy);
            W::encode_into(&frame, &mut calibration);
            let stats = policy.bit_stats(std::slice::from_ref(&calibration), &mut Scratch::new());
            stats.zero_to_one_ratio()
        });
    }
    for &ber in &params.bit_error_rates {
        let spec = CellSpec::new(format!("{prefix}/{label}/ber={ber}"), params.repetitions)
            .with_label("figure", prefix.to_string())
            .with_label("format", label)
            .with_label("ber", ber.to_string());
        let (policy, world, params) = (policy.clone(), Arc::clone(world), Arc::clone(params));
        sweep.cell(spec, move |seed, _rep, cfg| {
            let policy = policy.get();
            let word_format = W::bit_format(policy.net_meta());
            let injector =
                weight_injector(policy.weight_count(), ber, FaultKind::BitFlip, word_format, seed);
            flight_distance(
                policy,
                &world,
                &params,
                &InferenceFaultMode::TransientWholeEpisode(injector),
                seed ^ 0x7E,
                cfg,
            )
        });
    }
}

/// Folds the data-type cells declared by [`add_data_type_cells`] into the
/// flight-distance lines and bit-ratio facts figures.
pub(crate) fn data_type_figures(
    results: &SweepResults,
    scale: Scale,
    formats: &[QFormat],
    prefix: &str,
) -> Vec<FigureData> {
    let params = scale.drone();
    let labels = formats.iter().map(QFormat::to_string).chain(["i8".to_string()]);
    let mut series = Vec::new();
    let mut bit_facts = Vec::new();
    for label in labels {
        bit_facts.push((
            format!("{label} zero/one bit ratio"),
            results.mean(&format!("{prefix}/bits/{label}")),
        ));
        let points = params
            .bit_error_rates
            .iter()
            .map(|&ber| (ber, results.mean(&format!("{prefix}/{label}/ber={ber}"))))
            .collect();
        series.push(Series::new(label, points));
    }
    vec![
        FigureData::lines(
            prefix,
            "drone inference sensitivity by fixed-point data type (native execution)",
            "mean safe flight distance (m) vs BER (bit flips on live weight words)",
            series,
        ),
        FigureData::facts(
            format!("{prefix}-bits"),
            "zero/one bit ratio of the quantized policy per data type",
            bit_facts,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_injector_confines_faults_to_the_span() {
        let params = Scale::Smoke.drone();
        let world = DroneWorld::indoor_long();
        let mut rng = SmallRng::seed_from_u64(0);
        let policy = navft_nn::C3f2Config::scaled().build(&mut rng);
        let _ = (&world, &params);
        let layers = policy.parametric_layers();
        let last = *layers.last().expect("layers");
        let injector = layer_injector(&policy, last, 0.05, 1);
        let span = policy.weight_span(last);
        assert!(injector.fault_count() > 0);
        for fault in injector.map().faults() {
            assert!(span.contains(&fault.word));
        }
    }

    #[test]
    fn layer_index_matches_the_paper_topology() {
        let names: Vec<String> = drone_layer_index().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["conv1", "conv2", "conv3", "fc1", "fc2"]);
    }

    #[test]
    fn sweeps_declare_cells_without_training_policies() {
        // Building every fig7 sweep must be cheap: policies are Lazy and
        // only materialize inside trials.
        let start = std::time::Instant::now();
        let sweeps = [
            training_faults_sweep(Scale::Paper),
            environment_sweep(Scale::Paper),
            location_sweep(Scale::Paper),
            layer_sweep(Scale::Paper),
            data_type_sweep(Scale::Paper),
        ];
        for sweep in &sweeps {
            assert!(!sweep.is_empty());
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "sweep construction must not train policies"
        );
    }
}
