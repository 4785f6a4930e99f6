use qugeo_tensor::Array3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NnError;

/// A 2-D convolution with square kernels, valid padding and a uniform
/// stride.
///
/// Input and output are [`Array3`] values shaped `(channels, height,
/// width)`. Weights are laid out `[out_ch][in_ch][kh][kw]`, followed by
/// one bias per output channel, which is also the order of
/// [`Conv2d::params`].
///
/// # Examples
///
/// ```
/// use qugeo_nn::layers::Conv2d;
/// use qugeo_tensor::Array3;
///
/// # fn main() -> Result<(), qugeo_nn::NnError> {
/// let conv = Conv2d::new(1, 4, 3, 1, 7)?;
/// let out = conv.forward(&Array3::zeros(1, 16, 16))?;
/// assert_eq!(out.shape(), (4, 14, 14));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    weights: Vec<f64>,
    bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution with He-style random initialisation from a
    /// deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for zero channels, kernel or
    /// stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidLayer {
                reason: format!(
                    "conv2d needs positive dims (in={in_channels}, out={out_channels}, k={kernel}, s={stride})"
                ),
            });
        }
        let fan_in = (in_channels * kernel * kernel) as f64;
        let scale = (2.0 / fan_in).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..out_channels * in_channels * kernel * kernel)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let bias = vec![0.0; out_channels];
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            weights,
            bias,
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of trainable parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Parameters flattened as `[weights..., bias...]`.
    pub fn params(&self) -> Vec<f64> {
        let mut p = self.weights.clone();
        p.extend_from_slice(&self.bias);
        p
    }

    /// Overwrites parameters from the flat layout of [`Conv2d::params`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "conv2d param count");
        let w = self.weights.len();
        self.weights.copy_from_slice(&params[..w]);
        self.bias.copy_from_slice(&params[w..]);
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the kernel does not fit.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize), NnError> {
        if h < self.kernel || w < self.kernel {
            return Err(NnError::ShapeMismatch {
                expected: format!("input at least {}x{}", self.kernel, self.kernel),
                actual: format!("{h}x{w}"),
            });
        }
        Ok((
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        ))
    }

    /// Forward pass.
    ///
    /// Output channels run in groups of four through a per-call
    /// transposed weight copy, `[group][c][kh][kw]` of `[f64; 4]` lanes
    /// (the channel count is padded to whole groups and padded lanes are
    /// dropped), with four output positions in flight. Every output is
    /// still `bias + Σ w·x` summed over `c, kh, kw` in that order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the channel count or spatial
    /// size disagrees with the layer.
    pub fn forward(&self, input: &Array3) -> Result<Array3, NnError> {
        let (ch, h, w) = input.shape();
        if ch != self.in_channels {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} channels", self.in_channels),
                actual: format!("{ch} channels"),
            });
        }
        let (oh, ow) = self.output_size(h, w)?;
        let taps = self.in_channels * self.kernel * self.kernel;
        let groups = self.out_channels.div_ceil(LANES);
        let mut weights = vec![[0.0; LANES]; groups * taps];
        let mut bias = vec![[0.0; LANES]; groups];
        for (o, (wo, &b)) in self.weights.chunks_exact(taps).zip(&self.bias).enumerate() {
            let (g, lane) = (o / LANES, o % LANES);
            bias[g][lane] = b;
            for (wt, &v) in weights[g * taps..][..taps].iter_mut().zip(wo) {
                wt[lane] = v;
            }
        }
        // Offset of each output position's window within an input plane.
        let starts: Vec<usize> = (0..oh)
            .flat_map(|i| (0..ow).map(move |j| (i * w + j) * self.stride))
            .collect();
        let (blocks, tail) = starts.as_chunks::<POSITIONS>();
        let window = Windows {
            input: input.as_slice(),
            plane: h * w,
            row: w,
            kernel: self.kernel,
        };

        let positions = oh * ow;
        let mut out = Array3::zeros(self.out_channels, oh, ow);
        for (g, (out_g, (wg, &bg))) in out
            .as_mut_slice()
            .chunks_mut(LANES * positions)
            .zip(weights.chunks_exact(taps).zip(&bias))
            .enumerate()
        {
            let lanes = (self.out_channels - g * LANES).min(LANES);
            let mut put = |p: usize, acc: &[f64; LANES]| {
                for (lane, &v) in acc[..lanes].iter().enumerate() {
                    out_g[lane * positions + p] = v;
                }
            };
            for (b, block) in blocks.iter().enumerate() {
                for (n, acc) in window.dot(block, wg, bg).iter().enumerate() {
                    put(b * POSITIONS + n, acc);
                }
            }
            for (n, &start) in tail.iter().enumerate() {
                put(
                    blocks.len() * POSITIONS + n,
                    &window.dot(&[start], wg, bg)[0],
                );
            }
        }
        Ok(out)
    }

    /// Backward pass: returns `(grad_input, grad_params)` where
    /// `grad_params` follows the [`Conv2d::params`] layout.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `grad_output`'s shape is not
    /// the forward output shape for `input`.
    pub fn backward(
        &self,
        input: &Array3,
        grad_output: &Array3,
    ) -> Result<(Array3, Vec<f64>), NnError> {
        let (ch, h, w) = input.shape();
        let mut grad_input = Array3::zeros(ch, h, w);
        let grad = self.accumulate::<true>(input, grad_output, grad_input.as_mut_slice())?;
        Ok((grad_input, grad))
    }

    /// Backward pass for the parameters only, for callers that discard
    /// the input gradient (the first layer of a network). Returns the
    /// same `grad_params` as [`Conv2d::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `grad_output`'s shape is not
    /// the forward output shape for `input`.
    pub fn backward_params(
        &self,
        input: &Array3,
        grad_output: &Array3,
    ) -> Result<Vec<f64>, NnError> {
        self.accumulate::<false>(input, grad_output, &mut [])
    }

    /// Accumulates the parameter gradient (returned) and, when `INPUT`,
    /// the input gradient into `grad_input`. Loops run `o, i, j`
    /// outermost and skip exact-zero output gradients, so every
    /// accumulator receives its terms in the plain loop's order.
    fn accumulate<const INPUT: bool>(
        &self,
        input: &Array3,
        grad_output: &Array3,
        grad_input: &mut [f64],
    ) -> Result<Vec<f64>, NnError> {
        let (ch, h, w) = input.shape();
        let (oh, ow) = self.output_size(h, w)?;
        if grad_output.shape() != (self.out_channels, oh, ow) || ch != self.in_channels {
            return Err(NnError::ShapeMismatch {
                expected: format!("grad ({}, {oh}, {ow})", self.out_channels),
                actual: format!("{:?}", grad_output.shape()),
            });
        }
        let (k, plane) = (self.kernel, h * w);
        let taps = self.in_channels * k * k;
        let x = input.as_slice();
        let mut grad_w = vec![0.0; self.weights.len()];
        let mut grad_b = vec![0.0; self.bias.len()];
        for (((go, gw), gb), wo) in grad_output
            .as_slice()
            .chunks_exact(oh * ow)
            .zip(grad_w.chunks_exact_mut(taps))
            .zip(&mut grad_b)
            .zip(self.weights.chunks_exact(taps))
        {
            for (i, go_row) in go.chunks_exact(ow).enumerate() {
                for (j, &g) in go_row.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    *gb += g;
                    let start = (i * w + j) * self.stride;
                    for c in 0..self.in_channels {
                        for kh in 0..k {
                            let at = c * plane + start + kh * w;
                            let tap = (c * k + kh) * k;
                            for (gwv, &xv) in gw[tap..][..k].iter_mut().zip(&x[at..][..k]) {
                                *gwv += g * xv;
                            }
                            if INPUT {
                                let gi = &mut grad_input[at..][..k];
                                for (giv, &wv) in gi.iter_mut().zip(&wo[tap..][..k]) {
                                    *giv += g * wv;
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_w.extend_from_slice(&grad_b);
        Ok(grad_w)
    }
}

/// Output channels per lane group of the forward kernel.
const LANES: usize = 4;

/// Output positions the forward kernel keeps in flight.
const POSITIONS: usize = 4;

/// A `(channels, height, width)` input as the forward kernel reads it.
struct Windows<'a> {
    input: &'a [f64],
    plane: usize,
    row: usize,
    kernel: usize,
}

impl Windows<'_> {
    /// `bias + Σ w·x` over `c, kh, kw` for the `N` windows starting at
    /// `starts`, one lane per output channel of a group.
    #[inline(always)]
    fn dot<const N: usize>(
        &self,
        starts: &[usize; N],
        weights: &[[f64; LANES]],
        bias: [f64; LANES],
    ) -> [[f64; LANES]; N] {
        let k = self.kernel;
        let mut acc = [bias; N];
        for (xc, wc) in self
            .input
            .chunks_exact(self.plane)
            .zip(weights.chunks_exact(k * k))
        {
            for (kh, wrow) in wc.chunks_exact(k).enumerate() {
                let rows: [&[f64]; N] =
                    std::array::from_fn(|n| &xc[starts[n] + kh * self.row..][..k]);
                for (kw, wv) in wrow.iter().enumerate() {
                    for (a, r) in acc.iter_mut().zip(&rows) {
                        let xv = r[kw];
                        for (al, &wl) in a.iter_mut().zip(wv) {
                            *al += wl * xv;
                        }
                    }
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_configuration() {
        assert!(Conv2d::new(0, 1, 3, 1, 0).is_err());
        assert!(Conv2d::new(1, 0, 3, 1, 0).is_err());
        assert!(Conv2d::new(1, 1, 0, 1, 0).is_err());
        assert!(Conv2d::new(1, 1, 3, 0, 0).is_err());
    }

    #[test]
    fn output_size_with_stride() {
        let c = Conv2d::new(1, 1, 5, 2, 0).unwrap();
        assert_eq!(c.output_size(16, 16).unwrap(), (6, 6));
        assert!(c.output_size(4, 16).is_err());
    }

    #[test]
    fn param_count_and_roundtrip() {
        let mut c = Conv2d::new(3, 4, 3, 1, 1).unwrap();
        assert_eq!(c.num_params(), 4 * 3 * 9 + 4);
        let p: Vec<f64> = (0..c.num_params()).map(|i| i as f64 * 0.1).collect();
        c.set_params(&p);
        assert_eq!(c.params(), p);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 kernel with weight 1, bias 0 must copy the input.
        let mut c = Conv2d::new(1, 1, 1, 1, 0).unwrap();
        c.set_params(&[1.0, 0.0]);
        let x = Array3::from_fn(1, 3, 3, |_, i, j| (i * 3 + j) as f64);
        let y = c.forward(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn known_convolution_value() {
        // 2x2 all-ones kernel over a 3x3 ramp: out[0][0] = 0+1+3+4 = 8.
        let mut c = Conv2d::new(1, 1, 2, 1, 0).unwrap();
        c.set_params(&[1.0, 1.0, 1.0, 1.0, 0.5]);
        let x = Array3::from_fn(1, 3, 3, |_, i, j| (i * 3 + j) as f64);
        let y = c.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 2, 2));
        assert_eq!(y[(0, 0, 0)], 8.5);
        assert_eq!(y[(0, 1, 1)], 4.0 + 5.0 + 7.0 + 8.0 + 0.5);
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let c = Conv2d::new(2, 1, 3, 1, 0).unwrap();
        assert!(c.forward(&Array3::zeros(1, 8, 8)).is_err());
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let conv = Conv2d::new(2, 3, 3, 2, 42).unwrap();
        let x = Array3::from_fn(2, 7, 7, |c, i, j| {
            ((c * 49 + i * 7 + j) % 13) as f64 * 0.1 - 0.6
        });
        let y = conv.forward(&x).unwrap();
        // Scalar loss: sum of squares of outputs.
        let grad_out = y.map(|v| 2.0 * v);
        let (gx, gp) = conv.backward(&x, &grad_out).unwrap();

        let loss = |conv: &Conv2d, x: &Array3| -> f64 {
            conv.forward(x).unwrap().iter().map(|v| v * v).sum()
        };

        // Parameter gradients.
        let h = 1e-6;
        let base_params = conv.params();
        for idx in [0usize, 5, 20, conv.num_params() - 1] {
            let mut c2 = conv.clone();
            let mut p = base_params.clone();
            p[idx] += h;
            c2.set_params(&p);
            let plus = loss(&c2, &x);
            p[idx] -= 2.0 * h;
            c2.set_params(&p);
            let minus = loss(&c2, &x);
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - gp[idx]).abs() < 1e-4 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs analytic {}",
                gp[idx]
            );
        }

        // Input gradients.
        for flat in [0usize, 13, 48, 97] {
            let (c0, i0, j0) = (flat / 49, (flat % 49) / 7, flat % 7);
            let mut xp = x.clone();
            xp[(c0, i0, j0)] += h;
            let plus = loss(&conv, &xp);
            xp[(c0, i0, j0)] -= 2.0 * h;
            let minus = loss(&conv, &xp);
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - gx[(c0, i0, j0)]).abs() < 1e-4 * fd.abs().max(1.0),
                "input ({c0},{i0},{j0}): fd {fd} vs analytic {}",
                gx[(c0, i0, j0)]
            );
        }
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let conv = Conv2d::new(1, 1, 3, 1, 0).unwrap();
        let x = Array3::zeros(1, 8, 8);
        let bad = Array3::zeros(1, 5, 5);
        assert!(conv.backward(&x, &bad).is_err());
    }

    #[test]
    fn deterministic_seeding() {
        let a = Conv2d::new(1, 2, 3, 1, 7).unwrap();
        let b = Conv2d::new(1, 2, 3, 1, 7).unwrap();
        let c = Conv2d::new(1, 2, 3, 1, 8).unwrap();
        assert_eq!(a.params(), b.params());
        assert_ne!(a.params(), c.params());
    }
}
