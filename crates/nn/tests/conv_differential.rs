//! Differential tests for the `Conv2d` and `Relu` kernels.
//!
//! The references below are frozen copies of the original loops: a
//! six-deep per-output forward through the bounds-checked `Array3` index,
//! a backward with `o, i, j` outermost that skips exact-zero output
//! gradients, and an element-wise `Relu::backward` built with
//! `Array3::from_fn`. The slice kernels must reproduce them bit for bit —
//! outputs, input gradients and parameter gradients compared through
//! `to_bits` — for random layer shapes with exact-zero and `-0.0`
//! gradients and the odd infinite input, and on the Q-D-CNN compressor
//! at the paper's 1000 × 70 geometry, including a few Adam steps of its
//! training loop, and on the Table 2 CNN regressors.

use proptest::prelude::*;
use qugeo_nn::layers::{Conv2d, GlobalAvgPool, Linear, Relu};
use qugeo_nn::loss::mse_loss;
use qugeo_nn::models::{CnnCompressor, CnnRegressor, CompressorConfig, RegressorConfig};
use qugeo_nn::optim::{Adam, CosineAnnealing, LrSchedule, Optimizer};
use qugeo_nn::Model;
use qugeo_tensor::{Array2, Array3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A convolution in the original representation: weights
/// `[out][in][kh][kw]`, then one bias per output channel.
struct RefConv {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    weights: Vec<f64>,
    bias: Vec<f64>,
}

impl RefConv {
    fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        params: &[f64],
    ) -> Self {
        let w = out_channels * in_channels * kernel * kernel;
        assert_eq!(params.len(), w + out_channels, "reference conv param count");
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            weights: params[..w].to_vec(),
            bias: params[w..].to_vec(),
        }
    }

    fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }

    fn weight(&self, o: usize, c: usize, kh: usize, kw: usize) -> f64 {
        self.weights[((o * self.in_channels + c) * self.kernel + kh) * self.kernel + kw]
    }

    fn forward(&self, input: &Array3) -> Array3 {
        let (_, h, w) = input.shape();
        let (oh, ow) = self.output_size(h, w);
        let mut out = Array3::zeros(self.out_channels, oh, ow);
        for o in 0..self.out_channels {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = self.bias[o];
                    for c in 0..self.in_channels {
                        for kh in 0..self.kernel {
                            for kw in 0..self.kernel {
                                acc += self.weight(o, c, kh, kw)
                                    * input[(c, i * self.stride + kh, j * self.stride + kw)];
                            }
                        }
                    }
                    out[(o, i, j)] = acc;
                }
            }
        }
        out
    }

    fn backward(&self, input: &Array3, grad_output: &Array3) -> (Array3, Vec<f64>) {
        let (ch, h, w) = input.shape();
        let (oh, ow) = self.output_size(h, w);
        let mut grad_input = Array3::zeros(ch, h, w);
        let mut grad_w = vec![0.0; self.weights.len()];
        let mut grad_b = vec![0.0; self.bias.len()];
        for o in 0..self.out_channels {
            for i in 0..oh {
                for j in 0..ow {
                    let g = grad_output[(o, i, j)];
                    if g == 0.0 {
                        continue;
                    }
                    grad_b[o] += g;
                    for c in 0..self.in_channels {
                        for kh in 0..self.kernel {
                            for kw in 0..self.kernel {
                                let (p, q) = (i * self.stride + kh, j * self.stride + kw);
                                let widx = ((o * self.in_channels + c) * self.kernel + kh)
                                    * self.kernel
                                    + kw;
                                grad_w[widx] += g * input[(c, p, q)];
                                grad_input[(c, p, q)] += g * self.weights[widx];
                            }
                        }
                    }
                }
            }
        }
        grad_w.extend_from_slice(&grad_b);
        (grad_input, grad_w)
    }
}

fn ref_relu_backward(x: &Array3, grad_output: &Array3) -> Array3 {
    let (d0, d1, d2) = x.shape();
    Array3::from_fn(d0, d1, d2, |i, j, k| {
        if x[(i, j, k)] > 0.0 {
            grad_output[(i, j, k)]
        } else {
            0.0
        }
    })
}

/// The Q-D-CNN compressor assembled from the reference layers: conv
/// 1→4 (7×7, stride 4), ReLU, conv 4→8 (5×5, stride 4), ReLU, FC.
struct RefCompressor {
    conv1: RefConv,
    conv2: RefConv,
    fc: Linear,
}

impl RefCompressor {
    fn from_model(model: &CnnCompressor) -> Self {
        let params = model.params();
        let (p1, rest) = params.split_at(4 * 49 + 4);
        let (p2, pfc) = rest.split_at(8 * 4 * 25 + 8);
        let cfg = model.config();
        let mut fc = Linear::new(model.flat_features(), cfg.out_features, 0).expect("fc");
        fc.set_params(pfc);
        Self {
            conv1: RefConv::new(1, 4, 7, 4, p1),
            conv2: RefConv::new(4, 8, 5, 4, p2),
            fc,
        }
    }

    fn forward(&self, gather: &Array2) -> Vec<f64> {
        let (h, w) = gather.shape();
        let x0 = Array3::from_vec(1, h, w, gather.as_slice().to_vec()).expect("image");
        let a1 = Relu.forward(&self.conv1.forward(&x0));
        let a2 = Relu.forward(&self.conv2.forward(&a1));
        self.fc.forward(a2.as_slice()).expect("fc forward")
    }

    fn loss_and_grad(&self, gather: &Array2, target: &[f64]) -> (f64, Vec<f64>) {
        let (h, w) = gather.shape();
        let x0 = Array3::from_vec(1, h, w, gather.as_slice().to_vec()).expect("image");
        let z1 = self.conv1.forward(&x0);
        let a1 = Relu.forward(&z1);
        let z2 = self.conv2.forward(&a1);
        let a2 = Relu.forward(&z2);
        let out = self.fc.forward(a2.as_slice()).expect("fc forward");
        let (loss, grad_out) = mse_loss(&out, target);
        let (grad_flat, grad_fc) = self
            .fc
            .backward(a2.as_slice(), &grad_out)
            .expect("fc backward");
        let (c, h2, w2) = z2.shape();
        let grad_a2 = Array3::from_vec(c, h2, w2, grad_flat).expect("flat gradient");
        let grad_z2 = ref_relu_backward(&z2, &grad_a2);
        let (grad_a1, grad_conv2) = self.conv2.backward(&a1, &grad_z2);
        let grad_z1 = ref_relu_backward(&z1, &grad_a1);
        let (_, grad_conv1) = self.conv1.backward(&x0, &grad_z1);
        let mut grad = grad_conv1;
        grad.extend(grad_conv2);
        grad.extend(grad_fc);
        (loss, grad)
    }

    fn set_params(&mut self, params: &[f64]) {
        let (p1, rest) = params.split_at(self.conv1.num_params());
        let (p2, pfc) = rest.split_at(self.conv2.num_params());
        self.conv1 = RefConv::new(1, 4, 7, 4, p1);
        self.conv2 = RefConv::new(4, 8, 5, 4, p2);
        self.fc.set_params(pfc);
    }
}

/// Random values where about one in eight is `0.0` and one in eight is
/// `-0.0`, so the zero-gradient skip and signed-zero sums are exercised.
fn values(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect()
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{idx}]: {g:e} vs reference {w:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conv_kernels_match_frozen_loops(
        in_ch in 1usize..=10,
        out_ch in 1usize..=10,
        kernel in 1usize..=7,
        stride in 1usize..=4,
        extra_h in 0usize..12,
        extra_w in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let (h, w) = (kernel + extra_h, kernel + extra_w);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(in_ch, out_ch, kernel, stride, seed).expect("layer");
        let params = values(&mut rng, conv.num_params());
        conv.set_params(&params);
        let reference = RefConv::new(in_ch, out_ch, kernel, stride, &params);

        let mut xs = values(&mut rng, in_ch * h * w);
        if seed % 3 == 0 {
            // An infinite input turns `0 · x` into NaN, so skipping
            // exact-zero output gradients is visible in the gradients.
            let at = rng.gen_range(0..xs.len());
            xs[at] = if seed % 2 == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
        }
        let x = Array3::from_vec(in_ch, h, w, xs).expect("input");
        let y = conv.forward(&x).expect("forward");
        let y_ref = reference.forward(&x);
        prop_assert_eq!(y.shape(), y_ref.shape());
        assert_bits("forward", y.as_slice(), y_ref.as_slice());

        let (oc, oh, ow) = y.shape();
        let g = Array3::from_vec(oc, oh, ow, values(&mut rng, oc * oh * ow)).expect("grad");
        let (gx, gp) = conv.backward(&x, &g).expect("backward");
        let (gx_ref, gp_ref) = reference.backward(&x, &g);
        assert_bits("grad_input", gx.as_slice(), gx_ref.as_slice());
        assert_bits("grad_params", &gp, &gp_ref);
        let gp_only = conv.backward_params(&x, &g).expect("params-only backward");
        assert_bits("params-only grad_params", &gp_only, &gp_ref);
    }

    #[test]
    fn relu_backward_matches_frozen_loop(
        d0 in 1usize..5,
        d1 in 1usize..9,
        d2 in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = d0 * d1 * d2;
        let mut xs = values(&mut rng, n);
        xs[rng.gen_range(0..n)] = f64::NAN;
        let x = Array3::from_vec(d0, d1, d2, xs).expect("x");
        let g = Array3::from_vec(d0, d1, d2, values(&mut rng, n)).expect("g");
        assert_bits(
            "relu backward",
            Relu.backward(&x, &g).as_slice(),
            ref_relu_backward(&x, &g).as_slice(),
        );
    }
}

fn gather(rng: &mut StdRng, h: usize, w: usize) -> Array2 {
    Array2::from_vec(h, w, (0..h * w).map(|_| rng.gen_range(-3.0..3.0)).collect()).expect("gather")
}

#[test]
fn compressor_matches_frozen_loops_at_paper_geometry() {
    let model = CnnCompressor::new(CompressorConfig::openfwi_per_source(), 11).expect("model");
    let reference = RefCompressor::from_model(&model);
    let mut rng = StdRng::seed_from_u64(2024);
    let x = gather(&mut rng, 1000, 70);
    let target: Vec<f64> = (0..64).map(|_| rng.gen_range(-0.2..0.2)).collect();

    assert_bits(
        "compressor forward",
        &model.forward(&x).expect("forward"),
        &reference.forward(&x),
    );
    let (loss, grad) = model.loss_and_grad(&x, &target).expect("loss_and_grad");
    let (loss_ref, grad_ref) = reference.loss_and_grad(&x, &target);
    assert_eq!(
        loss.to_bits(),
        loss_ref.to_bits(),
        "loss {loss:e} vs {loss_ref:e}"
    );
    assert_bits("compressor gradient", &grad, &grad_ref);
}

#[test]
fn compressor_training_steps_match_frozen_loops() {
    // The loop of `train_cnn_scaler`: cosine-annealed Adam, one step per
    // ⟨gather, target⟩ pair, parameters written back after every step.
    let cfg = CompressorConfig {
        input_h: 120,
        input_w: 40,
        out_features: 16,
    };
    let mut model = CnnCompressor::new(cfg, 5).expect("model");
    let mut reference = RefCompressor::from_model(&model);
    let mut rng = StdRng::seed_from_u64(7);
    let pairs: Vec<(Array2, Vec<f64>)> = (0..3)
        .map(|_| {
            let x = gather(&mut rng, cfg.input_h, cfg.input_w);
            let t = (0..cfg.out_features)
                .map(|_| rng.gen_range(-0.3..0.3))
                .collect();
            (x, t)
        })
        .collect();

    let epochs = 3;
    let schedule = CosineAnnealing::new(0.01, epochs);
    let mut params = model.params();
    let mut params_ref = params.clone();
    let mut adam = Adam::new(params.len(), 0.01);
    let mut adam_ref = Adam::new(params.len(), 0.01);
    for epoch in 0..epochs {
        adam.set_learning_rate(schedule.lr_at(epoch));
        adam_ref.set_learning_rate(schedule.lr_at(epoch));
        for (x, t) in &pairs {
            let (_, grad) = model.loss_and_grad(x, t).expect("loss_and_grad");
            adam.step(&mut params, &grad);
            model.set_params(&params);
            let (_, grad_ref) = reference.loss_and_grad(x, t);
            adam_ref.step(&mut params_ref, &grad_ref);
            reference.set_params(&params_ref);
        }
    }
    assert_bits("trained parameters", &params, &params_ref);
}

#[test]
fn regressor_gradient_matches_frozen_loops() {
    // CNN-PX / CNN-LY: conv 3×3 → ReLU → conv 3×3 → ReLU → global average
    // pool → FC; the conv layers are checked against the reference through
    // the composed gradient.
    for (config, seed) in [
        (RegressorConfig::pixel_wise(), 3),
        (RegressorConfig::layer_wise(), 4),
    ] {
        let model = CnnRegressor::new(config, seed).expect("model");
        let mut rng = StdRng::seed_from_u64(seed);
        let input = values(&mut rng, config.input_len());
        let target: Vec<f64> = (0..config.head.output_len())
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let (_, grad) = model.loss_and_grad(&input, &target).expect("loss_and_grad");

        let params = model.params();
        let n1 = config.conv1_channels * 9 + config.conv1_channels;
        let n2 = config.conv2_channels * config.conv1_channels * 9 + config.conv2_channels;
        let conv1 = RefConv::new(1, config.conv1_channels, 3, 1, &params[..n1]);
        let conv2 = RefConv::new(
            config.conv1_channels,
            config.conv2_channels,
            3,
            1,
            &params[n1..n1 + n2],
        );
        let mut fc = Linear::new(config.conv2_channels, config.head.output_len(), 0).expect("fc");
        fc.set_params(&params[n1 + n2..]);

        let side = config.input_side;
        let x0 = Array3::from_vec(1, side, side, input.clone()).expect("image");
        let z1 = conv1.forward(&x0);
        let a1 = Relu.forward(&z1);
        let z2 = conv2.forward(&a1);
        let a2 = Relu.forward(&z2);
        let pooled = GlobalAvgPool.forward(&a2);
        let out = fc.forward(&pooled).expect("fc forward");
        let (_, grad_out) = mse_loss(&out, &target);
        let (grad_pooled, grad_fc) = fc.backward(&pooled, &grad_out).expect("fc backward");
        let grad_a2 = GlobalAvgPool.backward(&a2, &grad_pooled);
        let grad_z2 = ref_relu_backward(&z2, &grad_a2);
        let (grad_a1, grad_conv2) = conv2.backward(&a1, &grad_z2);
        let grad_z1 = ref_relu_backward(&z1, &grad_a1);
        let (_, grad_conv1) = conv1.backward(&x0, &grad_z1);
        let mut grad_ref = grad_conv1;
        grad_ref.extend(grad_conv2);
        grad_ref.extend(grad_fc);
        assert_bits("regressor gradient", &grad, &grad_ref);
    }
}
