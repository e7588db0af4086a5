//! Integration test: the native fixed-point backend is equivalent to the
//! `f32` simulation of the fixed-point datapath.
//!
//! For every model in `nn::models` (the Grid World MLP and the paper's C3F2
//! drone policy, full-size and scaled) and the formats of the data-type
//! sweep (Q(1,3,4), Q(1,4,11), Q(1,2,13)):
//!
//! * **per-layer agreement** — every activation buffer of a native pass stays
//!   within one LSB of the `f32` reference (parameters snapped to the grid,
//!   activations requantized per layer) for in-range inputs;
//! * **bit determinism** — repeated native passes produce identical raw
//!   words, and the batched native engine equals the serial one bit for bit;
//! * **live-word fault injection** — corrupting the quantized policy flips
//!   bits of the stored words in place (single integer ops, no dequantize
//!   round trip) and agrees with the `f32` backend's corruption of the same
//!   fault pattern.
//!
//! The `i8` per-tensor affine backend gets the same treatment with the
//! contracts its saturating requantization supports: bit determinism,
//! batched == serial, in-place byte corruption and an exact
//! dequantize → requantize round trip.

use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector};
use navft_nn::{
    mlp, C3f2Config, Element, EngineConfig, ForwardHooks, I8Network, I8Scratch, I8Tensor,
    LayerKind, Network, NetworkBase, NoHooks, QNetwork, QScratch, QTensor, Scratch, Tensor,
    TensorBase,
};
use navft_qformat::QFormat;
use navft_rl::{corrupt_network_weights, corrupt_policy_weights, InferenceFaultMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FORMATS: [QFormat; 3] = [QFormat::Q3_4, QFormat::Q4_11, QFormat::Q2_13];

/// Every model topology the crate ships, with an in-range input.
fn models(seed: u64) -> Vec<(&'static str, Network, Tensor)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let grid = mlp(&[100, 32, 4], &mut rng);
    let grid_input = Tensor::uniform(&[100], 1.0, &mut rng);
    let scaled_config = C3f2Config::scaled();
    let scaled = scaled_config.build(&mut rng);
    let scaled_input = Tensor::uniform(&scaled_config.input_shape(), 1.0, &mut rng);
    let paper_config = C3f2Config::paper();
    let paper = paper_config.build(&mut rng);
    let paper_input = Tensor::uniform(&paper_config.input_shape(), 1.0, &mut rng);
    vec![
        ("grid-mlp", grid, grid_input),
        ("c3f2-scaled", scaled, scaled_input),
        ("c3f2-paper", paper, paper_input),
    ]
}

/// One default-config batched pass through `scratch`, returning the rows.
fn batch_rows<E: Element>(
    net: &NetworkBase<E>,
    inputs: &[TensorBase<E>],
    scratch: &mut Scratch<E>,
) -> Vec<Vec<E>> {
    net.forward_batch_into_cfg(inputs, scratch, &mut NoHooks, EngineConfig::default());
    (0..scratch.rows()).map(|b| scratch.row(b).to_vec()).collect()
}

#[derive(Default)]
struct CaptureF32 {
    layers: Vec<Vec<f32>>,
}

impl ForwardHooks for CaptureF32 {
    fn on_activation(&mut self, _i: usize, _k: LayerKind, values: &mut [f32]) {
        self.layers.push(values.to_vec());
    }
}

#[derive(Default)]
struct CaptureRaw {
    layers: Vec<Vec<i32>>,
}

impl ForwardHooks<i32> for CaptureRaw {
    fn on_activation(&mut self, _i: usize, _k: LayerKind, words: &mut [i32]) {
        self.layers.push(words.to_vec());
    }
}

#[test]
fn every_model_runs_natively_within_one_lsb_per_layer() {
    for (name, network, input) in models(0x0E0) {
        for format in FORMATS {
            let qnet = QNetwork::quantize(&network, format);
            // The f32 reference: the same parameters snapped to the grid,
            // activations requantized after every layer.
            let reference = qnet.dequantize();
            let qinput = QTensor::quantize(&input, format);

            let mut f32_capture = CaptureF32::default();
            let _ = reference.forward_with(&qinput.dequantize(), &mut f32_capture);
            let mut raw_capture = CaptureRaw::default();
            let _ = qnet.forward_with(&qinput, &mut raw_capture);

            assert_eq!(f32_capture.layers.len(), raw_capture.layers.len());
            let lsb = format.resolution();
            for (layer, (f, r)) in
                f32_capture.layers.iter().zip(raw_capture.layers.iter()).enumerate()
            {
                assert_eq!(f.len(), r.len(), "{name}/{format} layer {layer} length");
                for (i, (fv, rw)) in f.iter().zip(r.iter()).enumerate() {
                    let native = *rw as f32 * lsb;
                    assert!(
                        (fv - native).abs() <= lsb,
                        "{name}/{format} layer {layer} element {i}: \
                         f32 reference {fv} vs native {native} diverge past one LSB ({lsb})"
                    );
                }
            }
        }
    }
}

#[test]
fn native_passes_are_bit_deterministic_across_runs() {
    for (name, network, input) in models(0x0E1) {
        for format in FORMATS {
            let qnet = QNetwork::quantize(&network, format);
            let qinput = QTensor::quantize(&input, format);
            let first = qnet.forward(&qinput);
            let second = qnet.forward(&qinput);
            assert_eq!(first.words(), second.words(), "{name}/{format} is not deterministic");
        }
    }
}

#[test]
fn batched_native_engine_is_bit_identical_to_serial() {
    // The paper-size C3F2 is exercised by the per-layer test above; batching
    // here sticks to the fast topologies so the suite stays quick.
    for (name, network, input) in models(0x0E2).into_iter().take(2) {
        for format in FORMATS {
            let qnet = QNetwork::quantize(&network, format);
            let mut rng = SmallRng::seed_from_u64(0xBA7C);
            for batch in [0usize, 1, 2, 7] {
                let inputs: Vec<QTensor> = (0..batch)
                    .map(|_| {
                        QTensor::quantize(&Tensor::uniform(input.shape(), 1.0, &mut rng), format)
                    })
                    .collect();
                let mut scratch = QScratch::new();
                let batched = batch_rows(&qnet, &inputs, &mut scratch);
                assert_eq!(batched.len(), batch, "{name}/{format} batch {batch} row count");
                for (b, (qin, out)) in inputs.iter().zip(batched.iter()).enumerate() {
                    assert_eq!(
                        out.as_slice(),
                        qnet.forward(qin).words(),
                        "{name}/{format} batch {batch} row {b} diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn empty_native_flushes_are_no_ops_that_leave_the_scratches_reusable() {
    // The quantized analogue of the f32 suite's empty-flush contract: zero
    // rows in, zero rows out, and the same scratch then serves a real batch
    // bit-exactly on both native backends.
    let (_, network, input) = models(0x0E5).swap_remove(0);
    let mut rng = SmallRng::seed_from_u64(0xBA7E);
    let inputs: Vec<Tensor> =
        (0..3).map(|_| Tensor::uniform(input.shape(), 1.0, &mut rng)).collect();

    let qnet = QNetwork::quantize(&network, QFormat::Q4_11);
    let qinputs: Vec<QTensor> =
        inputs.iter().map(|t| QTensor::quantize(t, QFormat::Q4_11)).collect();
    let mut qscratch = QScratch::new();
    let expected = batch_rows(&qnet, &qinputs, &mut qscratch);
    assert!(batch_rows(&qnet, &[], &mut qscratch).is_empty(), "empty native flush");
    let after = batch_rows(&qnet, &qinputs, &mut qscratch);
    for (b, (fresh, again)) in expected.iter().zip(after.iter()).enumerate() {
        assert_eq!(fresh, again, "native row {b} changed after an empty flush");
    }

    let inet = I8Network::quantize(&network);
    let iinputs: Vec<I8Tensor> =
        inputs.iter().map(|t| I8Tensor::quantize(t, inet.affine())).collect();
    let mut iscratch = I8Scratch::new();
    let expected = batch_rows(&inet, &iinputs, &mut iscratch);
    assert!(batch_rows(&inet, &[], &mut iscratch).is_empty(), "empty i8 flush");
    let after = batch_rows(&inet, &iinputs, &mut iscratch);
    for (b, (fresh, again)) in expected.iter().zip(after.iter()).enumerate() {
        assert_eq!(fresh, again, "i8 row {b} changed after an empty flush");
    }
}

#[test]
fn i8_native_passes_are_bit_deterministic_and_batched_equals_serial() {
    for (name, network, input) in models(0x0E4).into_iter().take(2) {
        let inet = I8Network::quantize(&network);
        let iinput = I8Tensor::quantize(&input, inet.affine());
        let first = inet.forward(&iinput);
        assert_eq!(first.words(), inet.forward(&iinput).words(), "{name}/i8 is not deterministic");
        let mut rng = SmallRng::seed_from_u64(0xBA7D);
        for batch in [0usize, 1, 2, 7] {
            let inputs: Vec<I8Tensor> = (0..batch)
                .map(|_| {
                    I8Tensor::quantize(
                        &Tensor::uniform(input.shape(), 1.0, &mut rng),
                        inet.affine(),
                    )
                })
                .collect();
            let mut scratch = I8Scratch::new();
            let batched = batch_rows(&inet, &inputs, &mut scratch);
            assert_eq!(batched.len(), batch, "{name}/i8 batch {batch} row count");
            for (b, (iin, out)) in inputs.iter().zip(batched.iter()).enumerate() {
                assert_eq!(
                    out.as_slice(),
                    inet.forward(iin).words(),
                    "{name}/i8 batch {batch} row {b} diverged"
                );
            }
        }
    }
}

#[test]
fn i8_fault_injection_flips_live_bytes_in_place() {
    let (_, network, input) = models(0x0E5).swap_remove(0);
    let inet = I8Network::quantize(&network);
    // 8 stored bits per affine byte: sample the fault map over that layout.
    let byte_format = QFormat::Q3_4;
    let mut rng = SmallRng::seed_from_u64(0x18);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        inet.weight_count(),
        byte_format,
        0.005,
        FaultKind::BitFlip,
        &mut rng,
    );
    assert!(injector.fault_count() > 0);
    let mode = InferenceFaultMode::TransientWholeEpisode(injector.clone());

    // Native corruption: each fault is one byte operation on live storage —
    // the before/after buffers differ exactly at the XORed bits.
    let corrupted = corrupt_policy_weights(&inet, &mode);
    let mut expected_flat: Vec<i8> = Vec::new();
    for layer in inet.parametric_layers() {
        expected_flat.extend_from_slice(inet.layer_weights(layer).expect("bytes"));
    }
    for fault in injector.map().faults() {
        let byte = &mut expected_flat[fault.word];
        *byte = (*byte as u8 ^ (1u8 << fault.bit)) as i8;
    }
    let mut corrupted_flat: Vec<i8> = Vec::new();
    for layer in corrupted.parametric_layers() {
        corrupted_flat.extend_from_slice(corrupted.layer_weights(layer).expect("bytes"));
    }
    assert_eq!(corrupted_flat, expected_flat, "i8: live bytes must flip in place");

    // The corrupted policy still runs end to end on stored bytes.
    let iinput = I8Tensor::quantize(&input, inet.affine());
    let out = corrupted.forward(&iinput);
    assert_eq!(out.words().len(), inet.forward(&iinput).words().len());
}

#[test]
fn i8_dequantize_round_trips_onto_the_affine_grid() {
    let (_, network, _) = models(0x0E6).swap_remove(0);
    let inet = I8Network::quantize(&network);
    let recovered = inet.dequantize();
    let requantized = I8Network::quantize_with(&recovered, inet.affine());
    for layer in inet.parametric_layers() {
        assert_eq!(
            inet.layer_weights(layer).expect("bytes"),
            requantized.layer_weights(layer).expect("bytes"),
            "dequantize → requantize must be the identity on stored bytes"
        );
    }
}

#[test]
fn fault_injection_corrupts_live_words_and_agrees_with_the_f32_backend() {
    let (_, network, input) = models(0x0E3).swap_remove(0);
    for format in FORMATS {
        let qnet = QNetwork::quantize(&network, format);
        let mut rng = SmallRng::seed_from_u64(u64::from(format.frac_bits()));
        let injector = Injector::sample(
            FaultTarget::new(FaultSite::WeightBuffer),
            qnet.weight_count(),
            format,
            0.005,
            FaultKind::BitFlip,
            &mut rng,
        );
        assert!(injector.fault_count() > 0);
        let mode = InferenceFaultMode::TransientWholeEpisode(injector.clone());

        // Native corruption: each fault is one integer operation on a live
        // word — the before/after buffers differ exactly at the XORed bits.
        let corrupted_q = corrupt_policy_weights(&qnet, &mode);
        let word_width = u32::from(format.total_bits());
        let mut expected_flat: Vec<i32> = Vec::new();
        for layer in qnet.parametric_layers() {
            expected_flat.extend_from_slice(qnet.layer_weights(layer).expect("words"));
        }
        for fault in injector.map().faults() {
            let word = &mut expected_flat[fault.word];
            *word ^= 1 << fault.bit;
            *word = (*word << (32 - word_width)) >> (32 - word_width);
        }
        let mut corrupted_flat: Vec<i32> = Vec::new();
        for layer in corrupted_q.parametric_layers() {
            corrupted_flat.extend_from_slice(corrupted_q.layer_weights(layer).expect("words"));
        }
        assert_eq!(corrupted_flat, expected_flat, "{format}: live words must flip in place");

        // The same fault pattern through the f32 backend lands on the same
        // grid points, so the corrupted networks agree within one LSB too.
        let corrupted_f32 = corrupt_network_weights(&qnet.dequantize(), &mode);
        let qinput = QTensor::quantize(&input, format);
        let native = corrupted_q.forward(&qinput).dequantize();
        let simulated = corrupted_f32.forward(&qinput.dequantize());
        let lsb = format.resolution();
        for (n, s) in native.data().iter().zip(simulated.data().iter()) {
            assert!(
                (n - s).abs() <= lsb,
                "{format}: corrupted outputs diverge past one LSB ({n} vs {s})"
            );
        }
    }
}
