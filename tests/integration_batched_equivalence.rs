//! Batched-inference equivalence suite: `Network::forward_batch_into_cfg`
//! must be **bit-exact** against per-sample `Network::forward` for every model in
//! `nn::models`, with and without fault-injection hooks and range
//! instrumentation attached, across batch sizes {0, 1, 2, 7, 64}.
//!
//! This is the contract that lets every fault campaign and the DQN learning
//! step move onto the preallocated batched engine without re-validating a
//! single figure: if these tests pass, the batched path *is* the serial
//! path, corruption and all.

use navft_core::{BufferFaultHook, HookPersistence, HookTarget};
use navft_fault::FaultKind;
use navft_nn::{
    mlp, C3f2Config, EngineConfig, ForwardHooks, Network, NoHooks, PerRowHooks, RangeRecorder,
    Scratch, Tensor,
};
use navft_qformat::QFormat;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const BATCH_SIZES: [usize; 5] = [0, 1, 2, 7, 64];

/// Every ready-made topology of `nn::models`, with its input shape. The
/// full-size paper network is exercised at the small batch sizes only (its
/// single forward pass is ~20M MACs; the scaled variant covers the large
/// batches).
fn models() -> Vec<(&'static str, Network, Vec<usize>, &'static [usize])> {
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    static SMALL_BATCHES: [usize; 3] = [0, 1, 2];
    vec![
        ("grid_mlp", mlp(&[100, 64, 4], &mut rng), vec![100], &BATCH_SIZES),
        ("deep_mlp", mlp(&[12, 16, 8, 8, 3], &mut rng), vec![12], &BATCH_SIZES),
        (
            "c3f2_scaled",
            C3f2Config::scaled().build(&mut rng),
            C3f2Config::scaled().input_shape().to_vec(),
            &BATCH_SIZES,
        ),
        (
            "c3f2_scaled_quantized",
            C3f2Config::scaled().build(&mut rng).with_activation_format(QFormat::Q4_11),
            C3f2Config::scaled().input_shape().to_vec(),
            &BATCH_SIZES,
        ),
        (
            "c3f2_paper",
            C3f2Config::paper().build(&mut rng),
            C3f2Config::paper().input_shape().to_vec(),
            &SMALL_BATCHES,
        ),
    ]
}

fn batch_inputs(shape: &[usize], batch: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..batch).map(|_| Tensor::uniform(shape, 1.0, &mut rng)).collect()
}

/// One default-config batched pass through `scratch`, returning the rows.
fn batch_rows<H: ForwardHooks>(
    net: &Network,
    inputs: &[Tensor],
    scratch: &mut Scratch,
    hooks: &mut H,
) -> Vec<Vec<f32>> {
    net.forward_batch_into_cfg(inputs, scratch, hooks, EngineConfig::default());
    (0..scratch.rows()).map(|b| scratch.row(b).to_vec()).collect()
}

#[test]
fn forward_batch_is_bit_exact_for_every_model_without_hooks() {
    // One scratch across every model and batch size: reuse across topologies
    // must not leak state between passes either.
    let mut scratch = Scratch::new();
    for (name, net, shape, batches) in models() {
        for &batch in batches {
            let inputs = batch_inputs(&shape, batch, 0x5EED ^ batch as u64);
            let batched = batch_rows(&net, &inputs, &mut scratch, &mut NoHooks);
            assert_eq!(batched.len(), batch);
            for (b, (input, out)) in inputs.iter().zip(batched.iter()).enumerate() {
                let serial = net.forward(input);
                assert_eq!(scratch.row_shape(), serial.shape(), "{name} x{batch} row {b} shape");
                assert_eq!(
                    out.as_slice(),
                    serial.data(),
                    "{name} x{batch} row {b} diverged from per-sample forward"
                );
            }
        }
    }
}

#[test]
fn an_empty_flush_is_a_no_op_that_leaves_the_scratch_reusable() {
    // Flushing zero rows must return zero outputs without touching the
    // engine, and the very same scratch must then serve a real batch
    // bit-exactly — an empty flush may not leave stale row state behind.
    let mut rng = SmallRng::seed_from_u64(0xE0);
    let net = mlp(&[12, 16, 3], &mut rng);
    let mut scratch = Scratch::new();
    let inputs = batch_inputs(&[12], 3, 0xE1);
    let expected = batch_rows(&net, &inputs, &mut scratch, &mut NoHooks);

    let empty = batch_rows(&net, &[], &mut scratch, &mut NoHooks);
    assert!(empty.is_empty(), "empty flush returns no rows");
    let after_empty = batch_rows(&net, &inputs, &mut scratch, &mut NoHooks);
    for (b, (fresh, again)) in expected.iter().zip(after_empty.iter()).enumerate() {
        assert_eq!(fresh, again, "row {b} changed after an empty flush");
    }
}

#[test]
fn forward_batch_is_bit_exact_under_a_shared_range_recorder() {
    let mut scratch = Scratch::new();
    for (name, net, shape, batches) in models() {
        for &batch in batches {
            let inputs = batch_inputs(&shape, batch, 0xACE ^ batch as u64);

            let mut batched_recorder = RangeRecorder::new();
            let batched = batch_rows(&net, &inputs, &mut scratch, &mut batched_recorder);

            let mut serial_recorder = RangeRecorder::new();
            for (b, input) in inputs.iter().enumerate() {
                let serial = net.forward_with(input, &mut serial_recorder);
                assert_eq!(
                    batched[b].as_slice(),
                    serial.data(),
                    "{name} x{batch} row {b} diverged under RangeRecorder"
                );
            }
            // The recorder itself must also observe identical ranges: min/max
            // are order-insensitive, so the layer-major batched sweep and the
            // sample-major serial sweep agree exactly.
            assert_eq!(
                batched_recorder.ranges(),
                serial_recorder.ranges(),
                "{name} x{batch} recorded ranges diverged"
            );
        }
    }
}

fn fault_hook(seed: u64, target: HookTarget, persistence: HookPersistence) -> BufferFaultHook {
    BufferFaultHook::new(target, persistence, 0.02, FaultKind::BitFlip, QFormat::Q4_11, seed)
}

#[test]
fn forward_batch_is_bit_exact_under_per_row_fault_injection_hooks() {
    let mut scratch = Scratch::new();
    for (name, net, shape, batches) in models() {
        for &batch in batches {
            for (target, persistence) in [
                (HookTarget::Input, HookPersistence::Transient),
                (HookTarget::Activations, HookPersistence::Transient),
                (HookTarget::Activations, HookPersistence::Permanent),
            ] {
                let inputs = batch_inputs(&shape, batch, 0xFA17 ^ batch as u64);
                let seed_of = |b: usize| 0x1000 + b as u64;

                let mut per_row = PerRowHooks::new(
                    (0..batch).map(|b| fault_hook(seed_of(b), target, persistence)).collect(),
                );
                let batched = batch_rows(&net, &inputs, &mut scratch, &mut per_row);

                let mut total_injected = 0usize;
                for (b, input) in inputs.iter().enumerate() {
                    let mut hook = fault_hook(seed_of(b), target, persistence);
                    let serial = net.forward_with(input, &mut hook);
                    total_injected += hook.faults_injected();
                    assert_eq!(
                        batched[b].as_slice(),
                        serial.data(),
                        "{name} x{batch} row {b} diverged under {target:?}/{persistence:?} faults"
                    );
                }
                // The faults must actually have fired for the comparison to
                // mean anything (an empty batch has no rows to corrupt).
                assert!(batch == 0 || total_injected > 0, "{name} x{batch}: no faults injected");
            }
        }
    }
}

#[test]
fn permanent_shared_fault_hook_is_bit_exact_between_batched_and_serial() {
    // A single *shared* hook with permanent persistence caches its fault map
    // per layer on first touch; the batched sweep touches layer L's buffer
    // for row 0 before any other row, which is the same first-touch order a
    // serial loop produces. The two paths must therefore corrupt
    // identically even without per-row hooks.
    let mut rng = SmallRng::seed_from_u64(7);
    let net = mlp(&[32, 24, 8], &mut rng);
    let inputs = batch_inputs(&[32], 7, 0xCAFE);

    let mut scratch = Scratch::new();
    let mut batched_hook = fault_hook(42, HookTarget::Activations, HookPersistence::Permanent);
    let batched = batch_rows(&net, &inputs, &mut scratch, &mut batched_hook);

    let mut serial_hook = fault_hook(42, HookTarget::Activations, HookPersistence::Permanent);
    for (b, input) in inputs.iter().enumerate() {
        let serial = net.forward_with(input, &mut serial_hook);
        assert_eq!(batched[b].as_slice(), serial.data(), "row {b} diverged under shared hook");
    }
    assert!(batched_hook.faults_injected() > 0);
}

#[test]
fn forward_scratch_matches_forward_for_every_model() {
    let mut scratch = Scratch::new();
    for (name, net, shape, _) in models() {
        // A single-sample scratch pass is row 0 of a batch of one.
        let input = batch_inputs(&shape, 1, 0xF00D);
        let via_scratch = batch_rows(&net, &input, &mut scratch, &mut NoHooks);
        assert_eq!(
            via_scratch[0],
            net.forward(&input[0]).into_data(),
            "{name} scratch path diverged"
        );
    }
}

#[test]
fn steady_state_campaign_loop_performs_no_scratch_growth() {
    // The shape of a figure campaign: many episodes, same topology, one
    // scratch. After the first episode the arena must never grow again.
    let mut rng = SmallRng::seed_from_u64(11);
    let net = C3f2Config::scaled().build(&mut rng);
    let shape = C3f2Config::scaled().input_shape();
    let mut scratch = Scratch::new();
    // Two warm-up passes: the slabs swap roles once per parametric layer, so
    // with an odd number of sweeps both slabs reach their high-water mark
    // only on the second pass.
    let inputs = batch_inputs(&shape, 4, 0xE90);
    let config = EngineConfig::default();
    net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
    net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
    let warm = scratch.grow_events();
    for episode in 0..25 {
        let inputs = batch_inputs(&shape, 4, episode);
        net.forward_batch_into_cfg(&inputs, &mut scratch, &mut NoHooks, config);
    }
    assert_eq!(scratch.grow_events(), warm, "campaign steady state must not allocate");
}
