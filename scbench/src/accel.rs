//! `accel-infer`: the paper's application end to end, from image to
//! simulated cycles. Each CIFAR-like image runs through the He-initialized
//! CIFAR-like net in float and in proposed SC at N = 8; every conv
//! layer's quantized, zero-padded input also goes through the tiled
//! accelerator (`TileEngine::run_layer`, bit-serial BISC-MVMs, default
//! tiling), whose output counters must equal sc-neural's.

use std::time::Instant;

use sc_accel::engine::{AccelArithmetic, TileEngine};
use sc_accel::layer::{ConvGeometry, Tiling};
use sc_core::Precision;
use sc_datasets::cifar_like;
use sc_neural::arith::QuantArith;
use sc_neural::layers::{Conv2d, ConvMode, LayerKind};
use sc_neural::net::Network;
use sc_neural::tensor::Tensor;
use sc_neural::train::sample_tensor;
use sc_telemetry::metrics::counter;

use crate::cnn::{forward, neural_layers, Arith, LayerCounts};
use crate::metrics::{digest, percentile};
use crate::trace::Tracer;
use crate::Round;

/// Round size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Images inferred per round.
    pub images: usize,
    /// Images the io scales are calibrated on during set-up.
    pub calib: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size { images: 48, calib: 16 };
/// The self-tests' size.
pub const SMALL: Size = Size { images: 2, calib: 2 };

const BITS: u32 = 8;
const EXTRA_BITS: u32 = 2;
const RUN_SPANS: [&str; 3] =
    ["accel.run_layer.conv1", "accel.run_layer.conv2", "accel.run_layer.conv3"];

/// A conv layer's accelerator view, fixed at set-up.
struct ConvPlan {
    /// Weight codes, `[m][z][i][j]`.
    weights: Vec<i32>,
    k: usize,
    pad: usize,
    io_scale: f32,
}

impl ConvPlan {
    /// Reads the kernel size and padding back from the layer's public
    /// shape arithmetic (the CIFAR-like net uses stride 1).
    fn new(conv: &Conv2d, in_c: usize, n: Precision) -> ConvPlan {
        let out_c = conv.bias().len();
        let k = ((conv.weights().len() / (out_c * in_c)) as f64).sqrt().round() as usize;
        let (oh, _) = conv.output_hw(32, 32);
        assert_eq!(conv.output_hw(33, 33).0, oh + 1, "stride-1 convolution");
        let pad = (oh - 1 + k - 32) / 2;
        let weights = conv.weights().iter().map(|&v| sc_fixed::quantize(v, n)).collect();
        ConvPlan { weights, k, pad, io_scale: conv.io_scale() }
    }

    /// The layer input as the conv layer quantizes it, zero-padded.
    fn padded_codes(&self, x: &Tensor, n: Precision) -> (ConvGeometry, Vec<i32>) {
        let s = x.shape();
        let (z, h, w, p) = (s[0], s[1], s[2], self.pad);
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let inv_scale = 1.0 / self.io_scale;
        let mut codes = vec![0i32; z * ph * pw];
        for (c, plane) in x.data().chunks_exact(h * w).enumerate() {
            for (y, row) in plane.chunks_exact(w).enumerate() {
                let dst = (c * ph + y + p) * pw + p;
                for (d, &v) in codes[dst..dst + w].iter_mut().zip(row) {
                    *d = sc_fixed::quantize(v * inv_scale, n);
                }
            }
        }
        let m = self.weights.len() / (z * self.k * self.k);
        (ConvGeometry { z, in_h: ph, in_w: pw, m, k: self.k, stride: 1 }, codes)
    }
}

/// One `accel-infer` round.
pub fn round(seed: u64, size: &Size, traced: bool) -> Round {
    let n = Precision::new(BITS).expect("N = 8 is supported");
    let mut tr = Tracer::new(traced);

    // Set-up: images, net, io-scale calibration, product table, engine.
    let t0 = Instant::now();
    let setup = tr.enter("setup", 0);
    let open = tr.enter("datasets.generate", 0);
    let data = cifar_like(size.images.max(size.calib), seed);
    tr.exit(open);
    let open = tr.enter("neural.zoo", 0);
    let mut float_net = sc_neural::zoo::cifar_net(crate::MODEL_SEED);
    tr.exit(open);
    let open = tr.enter("neural.calibrate", 0);
    let calib: Vec<Tensor> = (0..size.calib).map(|i| sample_tensor(&data, i).0).collect();
    float_net.calibrate_io_scales(&calib);
    tr.exit(open);
    let open = tr.enter("neural.lut_build", 0);
    let arith = QuantArith::proposed_sc(n);
    tr.exit(open);
    let open = tr.enter("accel.engine", 0);
    let mut sc_net = float_net.clone();
    sc_net.set_conv_mode(&ConvMode::Quantized { arith, extra_bits: EXTRA_BITS });
    let engine = TileEngine::new(n, Tiling::default(), AccelArithmetic::ProposedSerial, EXTRA_BITS);
    let plans = conv_plans(&sc_net, n);
    tr.exit(open);
    tr.exit(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    // Work: float and proposed-SC inference, every conv layer also on
    // the accelerator.
    let tiles = counter("accel.tiles");
    let words = counter("accel.bitplane.words");
    let (tiles0, words0) = (tiles.get(), words.get());
    let mut counts = LayerCounts::new();
    let half = n.half_scale() as f32;
    let (mut agree, mut outputs, mut mismatches) = (0u64, 0u64, 0u64);
    let mut layer_cycles = [0u64; 3];
    let mut layer_macs = [0u64; 3];
    let mut image_cycles = Vec::with_capacity(size.images);
    let mut classes = Vec::with_capacity(2 * size.images);
    let mut counter_digest = Vec::with_capacity(size.images);
    let t1 = Instant::now();
    let work = tr.enter("work", 0);
    for i in 0..size.images {
        let item = i as u64;
        let (x, _) = sample_tensor(&data, i);
        let float_logits = forward(&mut float_net, &x, Arith::Float, item, &mut tr, &mut counts);

        counts.images[Arith::Proposed.index()] += 1;
        let mut x = x;
        let mut conv = 0usize;
        let mut cycles = 0u64;
        let mut counters: Vec<u64> = Vec::new();
        for layer in sc_net.layers_mut() {
            let LayerKind::Conv(c) = layer else {
                let name = if matches!(layer, LayerKind::Dense(_)) {
                    "neural.dense.fwd"
                } else {
                    "neural.other.fwd"
                };
                x = counts.timed(&mut tr, name, item, || layer.forward(&x));
                continue;
            };
            let plan = &plans[conv];
            counts.macs[Arith::Proposed.index()] += c.macs(x.shape()[1], x.shape()[2]);
            let y = counts.timed(&mut tr, Arith::Proposed.fwd_span(), item, || c.forward(&x));

            let open = tr.enter("accel.prepare", item);
            let (g, codes) = plan.padded_codes(&x, n);
            tr.exit(open);
            let open = tr.enter(RUN_SPANS[conv], item);
            let run = engine.run_layer(&g, &codes, &plan.weights).expect("valid conv geometry");
            tr.exit(open);

            // sc-neural writes `acc / 2^(N-1) · io_scale + bias`; the same
            // expression over the accelerator's counter must give the same
            // bits (the net is untrained, so every bias is 0 and the map
            // from counter to value is exact).
            let per_channel = run.outputs.len() / c.bias().len();
            for (j, (&counter, &v)) in run.outputs.iter().zip(y.data()).enumerate() {
                let expect = counter as f32 / half * plan.io_scale + c.bias()[j / per_channel];
                mismatches += u64::from(expect.to_bits() != v.to_bits());
            }
            outputs += run.outputs.len() as u64;
            counters.extend(run.outputs.iter().map(|&o| o as u64));
            layer_cycles[conv] += run.cycles;
            layer_macs[conv] += g.macs();
            cycles += run.cycles;
            conv += 1;
            x = y;
        }
        let (float_class, sc_class) = (float_logits.argmax(), x.argmax());
        agree += u64::from(sc_class == float_class);
        classes.extend([float_class as u64, sc_class as u64]);
        counter_digest.push(digest(counters));
        image_cycles.push(cycles);
    }
    tr.exit(work);
    let work_s = t1.elapsed().as_secs_f64();
    let images = size.images as u64;

    let mut layers = Vec::new();
    if traced {
        layers = neural_layers(&tr, &counts);
        let run_ns: Vec<u64> = RUN_SPANS.iter().map(|s| tr.total_ns(s)).collect();
        let total_ns = run_ns.iter().sum::<u64>() as f64;
        let names =
            ["accel.run_layer_us.conv1", "accel.run_layer_us.conv2", "accel.run_layer_us.conv3"];
        for (name, ns) in names.into_iter().zip(&run_ns) {
            layers.push((name, *ns as f64 / 1e3 / images as f64));
        }
        layers.push(("accel.host_ns_per_mac", total_ns / layer_macs.iter().sum::<u64>() as f64));
        layers.push((
            "accel.host_ns_per_sim_cycle",
            total_ns / layer_cycles.iter().sum::<u64>() as f64,
        ));
        layers.push(("accel.tiles_per_image", (tiles.get() - tiles0) as f64 / images as f64));
        layers.push((
            "accel.bitplane_words_per_image",
            (words.get() - words0) as f64 / images as f64,
        ));
        layers.push(("datasets.generate_s", tr.total_ns("datasets.generate") as f64 / 1e9));
        layers.push(("neural.lut_build_s", tr.total_ns("neural.lut_build") as f64 / 1e9));
    }
    let names = ["accel.sim_cycles.conv1", "accel.sim_cycles.conv2", "accel.sim_cycles.conv3"];
    for (name, c) in names.into_iter().zip(layer_cycles) {
        layers.push((name, c as f64 / images as f64));
    }

    let mut fingerprint = vec![agree, outputs, mismatches];
    fingerprint.extend(&layer_cycles);
    fingerprint.extend(&image_cycles);
    fingerprint.extend(&classes);
    fingerprint.extend(&counter_digest);
    Round {
        setup_s,
        work_s,
        items: images,
        exact: vec![
            ("quality", agree as f64 / images as f64),
            ("sim_cycles", image_cycles.iter().sum::<u64>() as f64 / images as f64),
            ("sim_p99_cycles", percentile(&image_cycles, 99.0) as f64),
        ],
        fingerprint,
        attempted: outputs,
        failed: mismatches,
        layers,
        tracer: tr,
    }
}

/// Accelerator plans of the net's conv layers, in order.
fn conv_plans(net: &Network, n: Precision) -> Vec<ConvPlan> {
    let mut in_c = 3;
    net.conv_layers()
        .map(|c| {
            let plan = ConvPlan::new(c, in_c, n);
            in_c = c.bias().len();
            plan
        })
        .collect()
}
