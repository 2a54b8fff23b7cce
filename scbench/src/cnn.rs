//! `cnn-train`: the Fig. 6 pipeline on the MNIST-like net — float SGD,
//! proposed-SC fine-tuning at N = 8, A = 2, then evaluation under
//! fixed-point, conventional (LFSR) SC and proposed-SC products.
//!
//! Untraced rounds call `train::train`, `train::fine_tune` and
//! `train::evaluate` as a user would. Traced rounds run the same loops
//! from here, one layer call at a time, so each call gets a span; both
//! must produce the same network bit for bit, which the round
//! fingerprint checks.

use std::time::Instant;

use sc_core::conventional::ConvScMethod;
use sc_core::rng::SmallRng;
use sc_core::Precision;
use sc_datasets::{mnist_like, Dataset};
use sc_neural::arith::QuantArith;
use sc_neural::layers::{ConvMode, LayerKind};
use sc_neural::loss::softmax_cross_entropy;
use sc_neural::net::Network;
use sc_neural::tensor::Tensor;
use sc_neural::train::{evaluate, fine_tune, sample_tensor, train, TrainConfig};
use sc_telemetry::metrics::{counter, gauge, Counter, Gauge};

use crate::metrics::{digest, percentile};
use crate::trace::Tracer;
use crate::Round;

/// Round size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Training images.
    pub train_n: usize,
    /// Test images.
    pub test_n: usize,
    /// Float SGD epochs.
    pub epochs: usize,
    /// Fine-tuning mini-batch iterations (16 images each).
    pub ft_iters: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size { train_n: 600, test_n: 200, epochs: 3, ft_iters: 20 };
/// The self-tests' size.
pub const SMALL: Size = Size { train_n: 200, test_n: 20, epochs: 2, ft_iters: 2 };

const BITS: u32 = 8;
const EXTRA_BITS: u32 = 2;
/// MAC-array lanes for `Network::proposed_sc_cycles`.
const LANES: usize = 16;
/// Images whose per-image simulated cycles feed `sim_p99_cycles`.
const CYCLE_SAMPLES: usize = 16;
/// Fine-tuning learning rate at N = 8 (the Fig. 6 schedule).
const FT_LR: f32 = 0.01;

/// The three quantized arithmetics plus float, as span and metric
/// suffixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    /// `f32` reference.
    Float,
    /// N-bit fixed point.
    Fixed,
    /// Conventional LFSR SC.
    Lfsr,
    /// The proposed SC multiplier.
    Proposed,
}

impl Arith {
    /// Span name of a conv forward call in this arithmetic.
    pub fn fwd_span(self) -> &'static str {
        match self {
            Arith::Float => "neural.conv.fwd.float",
            Arith::Fixed => "neural.conv.fwd.fixed",
            Arith::Lfsr => "neural.conv.fwd.lfsr",
            Arith::Proposed => "neural.conv.fwd.proposed",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-image and per-call counts the layer loop keeps, to turn span
/// totals into per-image figures.
#[derive(Debug, Clone)]
pub struct LayerCounts {
    /// Forward passes per arithmetic.
    pub images: [u64; 4],
    /// Conv MACs per arithmetic.
    pub macs: [u64; 4],
    /// Backward passes.
    pub backward: u64,
    /// Mini-batches (one `zero_grad` + one `step` each).
    pub batches: u64,
    /// `par.utilization` samples after calls that ran a parallel region.
    pub utilization: Vec<f64>,
    regions: Counter,
    gauge: Gauge,
}

impl LayerCounts {
    /// Zero counts.
    pub fn new() -> LayerCounts {
        LayerCounts {
            images: [0; 4],
            macs: [0; 4],
            backward: 0,
            batches: 0,
            utilization: Vec::new(),
            regions: counter("par.regions"),
            gauge: gauge("par.utilization"),
        }
    }

    /// Times `call` as a span and samples `par.utilization` if it ran a
    /// parallel region (the registry records only in traced rounds).
    pub fn timed<R>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        item: u64,
        call: impl FnOnce() -> R,
    ) -> R {
        let before = self.regions.get();
        let open = tr.enter(name, item);
        let out = call();
        tr.exit(open);
        if self.regions.get() != before {
            self.utilization.push(self.gauge.get());
        }
        out
    }
}

/// Forward pass, one span per layer call; `Network::forward` layer for
/// layer.
pub fn forward(
    net: &mut Network,
    input: &Tensor,
    arith: Arith,
    item: u64,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Tensor {
    counts.images[arith.index()] += 1;
    let mut x = input.clone();
    for layer in net.layers_mut() {
        let name = match layer {
            LayerKind::Conv(c) => {
                let s = x.shape();
                counts.macs[arith.index()] += c.macs(s[1], s[2]);
                arith.fwd_span()
            }
            LayerKind::Dense(_) => "neural.dense.fwd",
            _ => "neural.other.fwd",
        };
        x = counts.timed(tr, name, item, || layer.forward(&x));
    }
    x
}

/// Backward pass, one span per layer call; `Network::backward` layer for
/// layer.
fn backward(
    net: &mut Network,
    grad: &Tensor,
    item: u64,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) {
    counts.backward += 1;
    let mut g = grad.clone();
    for layer in net.layers_mut().iter_mut().rev() {
        let name = match layer {
            LayerKind::Conv(_) => "neural.conv.bwd",
            LayerKind::Dense(_) => "neural.dense.bwd",
            _ => "neural.other.bwd",
        };
        g = counts.timed(tr, name, item, || layer.backward(&g));
    }
}

/// One training sample: forward, loss, backward. Returns the loss.
fn learn(
    net: &mut Network,
    data: &Dataset,
    i: usize,
    arith: Arith,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> f32 {
    let (x, label) = sample_tensor(data, i);
    let logits = forward(net, &x, arith, i as u64, tr, counts);
    let open = tr.enter("neural.loss", i as u64);
    let (loss, grad) = softmax_cross_entropy(&logits, label);
    tr.exit(open);
    backward(net, &grad, i as u64, tr, counts);
    loss
}

fn zero_grad(net: &mut Network, tr: &mut Tracer, counts: &mut LayerCounts) {
    counts.batches += 1;
    let open = tr.enter("neural.step", counts.batches);
    net.zero_grad();
    tr.exit(open);
}

fn step(net: &mut Network, cfg: &TrainConfig, lr: f32, batch: usize, tr: &mut Tracer, n: u64) {
    let open = tr.enter("neural.step", n);
    net.step(lr, cfg.momentum, cfg.weight_decay, batch);
    tr.exit(open);
}

/// `train::train`, layer call by layer call.
fn traced_train(
    net: &mut Network,
    data: &Dataset,
    cfg: &TrainConfig,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut lr = cfg.lr;
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut total = 0.0f64;
        for batch in order.chunks(cfg.batch_size) {
            zero_grad(net, tr, counts);
            for &i in batch {
                total += learn(net, data, i, Arith::Float, tr, counts) as f64;
            }
            step(net, cfg, lr, batch.len(), tr, counts.batches);
        }
        losses.push((total / data.len() as f64) as f32);
        lr *= cfg.lr_decay;
    }
    losses
}

/// `train::fine_tune`, layer call by layer call.
fn traced_fine_tune(
    net: &mut Network,
    data: &Dataset,
    iters: usize,
    cfg: &TrainConfig,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> f32 {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xf17e);
    let mut order: Vec<usize> = (0..data.len()).collect();
    rng.shuffle(&mut order);
    let mut cursor = 0usize;
    let mut total = 0.0f64;
    let mut count = 0usize;
    for _ in 0..iters {
        zero_grad(net, tr, counts);
        for _ in 0..cfg.batch_size {
            if cursor >= order.len() {
                rng.shuffle(&mut order);
                cursor = 0;
            }
            total += learn(net, data, order[cursor], Arith::Proposed, tr, counts) as f64;
            cursor += 1;
            count += 1;
        }
        step(net, cfg, cfg.lr, cfg.batch_size, tr, counts.batches);
    }
    (total / count.max(1) as f64) as f32
}

/// `train::evaluate`, layer call by layer call.
fn traced_evaluate(
    net: &mut Network,
    data: &Dataset,
    arith: Arith,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> f64 {
    let mut correct = 0usize;
    for i in 0..data.len() {
        let (x, label) = sample_tensor(data, i);
        if forward(net, &x, arith, i as u64, tr, counts).argmax() == label {
            correct += 1;
        }
    }
    correct as f64 / data.len().max(1) as f64
}

/// Order-sensitive digest of every parameter of the network.
fn params_digest(net: &Network) -> u64 {
    digest(net.layers().iter().flat_map(|l| {
        let (w, b): (&[f32], &[f32]) = match l {
            LayerKind::Conv(c) => (c.weights(), c.bias()),
            LayerKind::Dense(d) => (d.weights_raw(), d.bias_raw()),
            _ => (&[], &[]),
        };
        w.iter().chain(b).map(|v| u64::from(v.to_bits())).collect::<Vec<_>>()
    }))
}

/// One `cnn-train` round.
pub fn round(seed: u64, size: &Size, traced: bool) -> Round {
    let n = Precision::new(BITS).expect("N = 8 is supported");
    let mut tr = Tracer::new(traced);

    // Set-up: data from the seed, the net from the model seed, product
    // tables. No training and no parallel region runs here.
    let t0 = Instant::now();
    let setup = tr.enter("setup", 0);
    let open = tr.enter("datasets.generate", 0);
    let train_set = mnist_like(size.train_n, seed);
    let test_set = mnist_like(size.test_n, seed ^ 0xdead);
    tr.exit(open);
    let open = tr.enter("neural.zoo", 0);
    let mut net = sc_neural::zoo::mnist_net(crate::MODEL_SEED);
    tr.exit(open);
    let open = tr.enter("neural.lut_build", 0);
    let modes = [
        (Arith::Fixed, QuantArith::fixed(n)),
        (Arith::Lfsr, QuantArith::conventional_sc(n, ConvScMethod::Lfsr).expect("LFSR at N = 8")),
        (Arith::Proposed, QuantArith::proposed_sc(n)),
    ]
    .map(|(a, arith)| (a, ConvMode::Quantized { arith, extra_bits: EXTRA_BITS }));
    tr.exit(open);
    tr.exit(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    // Work: float training, calibration, proposed-SC fine-tuning and
    // evaluation in three arithmetics.
    let regions = counter("par.regions");
    let steals = counter("par.steals");
    let (regions0, steals0) = (regions.get(), steals.get());
    let mut counts = LayerCounts::new();
    let t1 = Instant::now();
    let work = tr.enter("work", 0);
    let cfg = TrainConfig { epochs: size.epochs, seed, ..TrainConfig::default() };
    let open = tr.enter("cnn.train", 0);
    let losses = if traced {
        traced_train(&mut net, &train_set, &cfg, &mut tr, &mut counts)
    } else {
        train(&mut net, &train_set, &cfg)
    };
    tr.exit(open);
    let open = tr.enter("cnn.calibrate", 0);
    let calib: Vec<Tensor> =
        (0..16.min(train_set.len())).map(|i| sample_tensor(&train_set, i).0).collect();
    net.calibrate_io_scales(&calib);
    tr.exit(open);
    let ft_cfg = TrainConfig { lr: FT_LR, seed, ..TrainConfig::default() };
    net.set_conv_mode(&modes[2].1);
    let open = tr.enter("cnn.fine_tune", 0);
    let ft_loss = if traced {
        traced_fine_tune(&mut net, &train_set, size.ft_iters, &ft_cfg, &mut tr, &mut counts)
    } else {
        fine_tune(&mut net, &train_set, size.ft_iters, &ft_cfg)
    };
    tr.exit(open);
    let mut accuracy = [0.0f64; 3];
    for (slot, (arith, mode)) in accuracy.iter_mut().zip(&modes) {
        net.set_conv_mode(mode);
        let open = tr.enter("cnn.evaluate", arith.index() as u64);
        *slot = if traced {
            traced_evaluate(&mut net, &test_set, *arith, &mut tr, &mut counts)
        } else {
            evaluate(&mut net, &test_set)
        };
        tr.exit(open);
    }
    tr.exit(work);
    let work_s = t1.elapsed().as_secs_f64();
    let items =
        (size.train_n * size.epochs + size.ft_iters * ft_cfg.batch_size + 3 * size.test_n) as u64;

    // Untimed: simulated cycles (weights and shapes only, so the float
    // mode propagates shapes cheaply) and the checks.
    net.set_conv_mode(&ConvMode::Float);
    let cycles: Vec<u64> = (0..CYCLE_SAMPLES.min(test_set.len()))
        .map(|i| {
            net.proposed_sc_cycles(&sample_tensor(&test_set, i).0, n, None, LANES)
                .expect("full precision is valid")
        })
        .collect();
    let mean_cycles = cycles.iter().sum::<u64>() as f64 / cycles.len() as f64;
    let checks = [
        losses.iter().all(|l| l.is_finite()),
        ft_loss.is_finite(),
        // Fixed point and proposed SC learn (twice chance, 10 classes);
        // conventional LFSR SC, which Fig. 6 shows near chance at N = 8,
        // does not beat the proposed multiplier.
        accuracy[0] > 0.2 && accuracy[2] > 0.2,
        accuracy[2] >= accuracy[1],
    ];
    let failed = checks.iter().filter(|ok| !**ok).count() as u64;

    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    if traced {
        layers = neural_layers(&tr, &counts);
        let (dr, ds) = (regions.get() - regions0, steals.get() - steals0);
        layers.push(("par.regions_per_image", dr as f64 / items as f64));
        layers.push(("par.steals_per_region", ds as f64 / dr.max(1) as f64));
        let u = &counts.utilization;
        layers.push(("par.utilization", u.iter().sum::<f64>() / u.len().max(1) as f64));
        layers.push(("datasets.generate_s", tr.total_ns("datasets.generate") as f64 / 1e9));
        layers.push(("neural.lut_build_s", tr.total_ns("neural.lut_build") as f64 / 1e9));
    }

    let mut fingerprint = vec![params_digest(&net), u64::from(ft_loss.to_bits())];
    fingerprint.extend(losses.iter().map(|l| u64::from(l.to_bits())));
    fingerprint.extend(accuracy.iter().map(|a| a.to_bits()));
    fingerprint.extend(&cycles);
    Round {
        setup_s,
        work_s,
        items,
        exact: vec![
            ("quality", accuracy[2]),
            ("sim_cycles", mean_cycles),
            ("sim_p99_cycles", percentile(&cycles, 99.0) as f64),
        ],
        fingerprint,
        attempted: checks.len() as u64,
        failed,
        layers,
        tracer: tr,
    }
}

/// Per-image conv/dense/other times, per-batch step time and MAC rates
/// from a traced round's spans.
pub fn neural_layers(tr: &Tracer, counts: &LayerCounts) -> Vec<(&'static str, f64)> {
    let us = |name: &str| tr.total_ns(name) as f64 / 1e3;
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let images: u64 = counts.images.iter().sum();
    let fwd = |a: Arith| per(us(a.fwd_span()), counts.images[a.index()]);
    let rate = |a: Arith| {
        let t = us(a.fwd_span());
        if t == 0.0 {
            0.0
        } else {
            counts.macs[a.index()] as f64 / t
        }
    };
    vec![
        ("neural.conv.fwd_us.float", fwd(Arith::Float)),
        ("neural.conv.fwd_us.fixed", fwd(Arith::Fixed)),
        ("neural.conv.fwd_us.lfsr", fwd(Arith::Lfsr)),
        ("neural.conv.fwd_us.proposed", fwd(Arith::Proposed)),
        ("neural.conv.bwd_us", per(us("neural.conv.bwd"), counts.backward)),
        ("neural.dense_us", per(us("neural.dense.fwd") + us("neural.dense.bwd"), images)),
        (
            "neural.other_us",
            per(us("neural.other.fwd") + us("neural.other.bwd") + us("neural.loss"), images),
        ),
        ("neural.step_us", per(us("neural.step"), counts.batches)),
        ("neural.conv.macs_per_us.float", rate(Arith::Float)),
        ("neural.conv.macs_per_us.proposed", rate(Arith::Proposed)),
    ]
}
