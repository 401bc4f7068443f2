//! Neural-network layers with forward and backward passes.
//!
//! Each layer owns its parameters and gradient buffers, caches whatever it
//! needs during a training-mode forward pass, and reports a FLOP estimate
//! used both by the edge/cloud partitioner and by the end-to-end simulator's
//! compute cost model.

use crate::tensor::Tensor;

/// A differentiable layer.
///
/// This trait is object-safe: models hold `Box<dyn Layer>`.
pub trait Layer: std::fmt::Debug + Send {
    /// Human-readable layer name ("conv2d", "relu", ...).
    fn name(&self) -> &'static str;

    /// Output shape given an input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Forward pass. With `train == true`, the layer caches what it needs
    /// for [`Layer::backward`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backward pass: consumes the gradient w.r.t. the output, accumulates
    /// parameter gradients, and returns the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Applies accumulated gradients with learning rate `lr` and clears
    /// them.
    fn apply_gradients(&mut self, lr: f32);

    /// Number of trainable parameters.
    fn param_count(&self) -> usize;

    /// Estimated multiply-accumulate operations for one forward pass with
    /// the given input shape (drives the partitioner's latency model).
    fn flops(&self, input_shape: &[usize]) -> u64;
}

/// 2-D convolution over `[C, H, W]` tensors with stride 1 and zero padding
/// chosen to preserve spatial size (`ksize / 2`).
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    ksize: usize,
    weights: Tensor, // [out, in, k, k]
    bias: Vec<f32>,
    grad_w: Option<Tensor>,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `ksize` is even.
    pub fn new(in_channels: usize, out_channels: usize, ksize: usize, seed: u64) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && ksize > 0);
        assert!(ksize % 2 == 1, "kernel size must be odd (same padding)");
        let fan_in = in_channels * ksize * ksize;
        Self {
            in_channels,
            out_channels,
            ksize,
            weights: Tensor::he_init(&[out_channels, in_channels, ksize, ksize], fan_in, seed),
            bias: vec![0.0; out_channels],
            grad_w: None,
            grad_b: vec![0.0; out_channels],
            cached_input: None,
        }
    }

    fn w(&self, o: usize, i: usize, ky: usize, kx: usize) -> f32 {
        let k = self.ksize;
        self.weights.data()[((o * self.in_channels + i) * k + ky) * k + kx]
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(input_shape.len(), 3, "conv2d input must be [C, H, W]");
        assert_eq!(input_shape[0], self.in_channels, "channel mismatch");
        vec![self.out_channels, input_shape[1], input_shape[2]]
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let shape = self.output_shape(input.shape());
        let (h, w) = (shape[1], shape[2]);
        let pad = (self.ksize / 2) as i64;
        let mut out = Tensor::zeros(&shape);
        for o in 0..self.out_channels {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = self.bias[o];
                    for i in 0..self.in_channels {
                        for ky in 0..self.ksize {
                            for kx in 0..self.ksize {
                                let sy = y as i64 + ky as i64 - pad;
                                let sx = x as i64 + kx as i64 - pad;
                                if sy < 0 || sx < 0 || sy >= h as i64 || sx >= w as i64 {
                                    continue;
                                }
                                acc +=
                                    self.w(o, i, ky, kx) * input.at3(i, sy as usize, sx as usize);
                            }
                        }
                    }
                    out.set3(o, y, x, acc);
                }
            }
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward without training forward");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let pad = (self.ksize / 2) as i64;
        let mut grad_in = Tensor::zeros(input.shape());
        let mut grad_w = self
            .grad_w
            .take()
            .unwrap_or_else(|| Tensor::zeros(self.weights.shape()));
        let k = self.ksize;
        for o in 0..self.out_channels {
            for y in 0..h {
                for x in 0..w {
                    let g = grad_out.at3(o, y, x);
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_b[o] += g;
                    for i in 0..self.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let sy = y as i64 + ky as i64 - pad;
                                let sx = x as i64 + kx as i64 - pad;
                                if sy < 0 || sx < 0 || sy >= h as i64 || sx >= w as i64 {
                                    continue;
                                }
                                let (sy, sx) = (sy as usize, sx as usize);
                                let widx = ((o * self.in_channels + i) * k + ky) * k + kx;
                                grad_w.data_mut()[widx] += g * input.at3(i, sy, sx);
                                let v = grad_in.at3(i, sy, sx) + g * self.w(o, i, ky, kx);
                                grad_in.set3(i, sy, sx, v);
                            }
                        }
                    }
                }
            }
        }
        self.grad_w = Some(grad_w);
        grad_in
    }

    fn apply_gradients(&mut self, lr: f32) {
        if let Some(gw) = self.grad_w.take() {
            for (w, g) in self.weights.data_mut().iter_mut().zip(gw.data()) {
                *w -= lr * g;
            }
        }
        for (b, g) in self.bias.iter_mut().zip(&self.grad_b) {
            *b -= lr * g;
        }
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        let out = self.output_shape(input_shape);
        (out.iter().product::<usize>() * self.in_channels * self.ksize * self.ksize) as u64
    }
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = input.clone();
        let mut mask = Vec::new();
        if train {
            mask.reserve(input.len());
        }
        for v in out.data_mut() {
            let pass = *v > 0.0;
            if !pass {
                *v = 0.0;
            }
            if train {
                mask.push(pass);
            }
        }
        if train {
            self.mask = Some(mask);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward without forward");
        let mut g = grad_out.clone();
        for (v, &m) in g.data_mut().iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
        g
    }

    fn apply_gradients(&mut self, _lr: f32) {}

    fn param_count(&self) -> usize {
        0
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        input_shape.iter().product::<usize>() as u64
    }
}

/// 2x2 max pooling with stride 2 over `[C, H, W]`.
#[derive(Debug, Default)]
pub struct MaxPool2 {
    argmax: Option<Vec<usize>>,
    input_shape: Vec<usize>,
}

impl MaxPool2 {
    /// Creates a 2x2 max-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(input_shape.len(), 3, "maxpool input must be [C, H, W]");
        vec![input_shape[0], input_shape[1] / 2, input_shape[2] / 2]
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let shape = self.output_shape(input.shape());
        let (c, oh, ow) = (shape[0], shape[1], shape[2]);
        let (_, _, iw) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let mut out = Tensor::zeros(&shape);
        let mut argmax = vec![0usize; out.len()];
        for ch in 0..c {
            for y in 0..oh {
                for x in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let (sy, sx) = (2 * y + dy, 2 * x + dx);
                            let v = input.at3(ch, sy, sx);
                            if v > best {
                                best = v;
                                best_idx = ch * input.shape()[1] * iw + sy * iw + sx;
                            }
                        }
                    }
                    out.set3(ch, y, x, best);
                    argmax[ch * oh * ow + y * ow + x] = best_idx;
                }
            }
        }
        if train {
            self.argmax = Some(argmax);
            self.input_shape = input.shape().to_vec();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self.argmax.as_ref().expect("backward without forward");
        let mut grad_in = Tensor::zeros(&self.input_shape);
        for (i, &src) in argmax.iter().enumerate() {
            grad_in.data_mut()[src] += grad_out.data()[i];
        }
        grad_in
    }

    fn apply_gradients(&mut self, _lr: f32) {}

    fn param_count(&self) -> usize {
        0
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        input_shape.iter().product::<usize>() as u64
    }
}

/// Flattens `[C, H, W]` to `[C*H*W]`.
#[derive(Debug, Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape.iter().product()]
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input_shape = input.shape().to_vec();
        }
        input.clone().reshape(&[input.len()])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(&self.input_shape)
    }

    fn apply_gradients(&mut self, _lr: f32) {}

    fn param_count(&self) -> usize {
        0
    }

    fn flops(&self, _input_shape: &[usize]) -> u64 {
        0
    }
}

/// Fully connected layer.
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weights: Tensor, // [out, in]
    bias: Vec<f32>,
    grad_w: Option<Tensor>,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0);
        Self {
            in_features,
            out_features,
            weights: Tensor::he_init(&[out_features, in_features], in_features, seed),
            bias: vec![0.0; out_features],
            grad_w: None,
            grad_b: vec![0.0; out_features],
            cached_input: None,
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            input_shape.iter().product::<usize>(),
            self.in_features,
            "dense input size mismatch"
        );
        vec![self.out_features]
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.len(), self.in_features, "dense input size mismatch");
        let mut out = Tensor::zeros(&[self.out_features]);
        for o in 0..self.out_features {
            let row = &self.weights.data()[o * self.in_features..(o + 1) * self.in_features];
            let acc: f32 = row
                .iter()
                .zip(input.data())
                .map(|(w, x)| w * x)
                .sum::<f32>()
                + self.bias[o];
            out.data_mut()[o] = acc;
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward without training forward");
        let mut grad_w = self
            .grad_w
            .take()
            .unwrap_or_else(|| Tensor::zeros(self.weights.shape()));
        let mut grad_in = Tensor::zeros(&[self.in_features]);
        for o in 0..self.out_features {
            let g = grad_out.data()[o];
            self.grad_b[o] += g;
            for i in 0..self.in_features {
                grad_w.data_mut()[o * self.in_features + i] += g * input.data()[i];
                grad_in.data_mut()[i] += g * self.weights.data()[o * self.in_features + i];
            }
        }
        self.grad_w = Some(grad_w);
        grad_in
    }

    fn apply_gradients(&mut self, lr: f32) {
        if let Some(gw) = self.grad_w.take() {
            for (w, g) in self.weights.data_mut().iter_mut().zip(gw.data()) {
                *w -= lr * g;
            }
        }
        for (b, g) in self.bias.iter_mut().zip(&self.grad_b) {
            *b -= lr * g;
        }
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn flops(&self, _input_shape: &[usize]) -> u64 {
        (self.in_features * self.out_features) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a layer with a scalar loss
    /// `L = sum(forward(x))`.
    fn grad_check<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward(input, true);
        let ones = Tensor::from_vec(out.shape(), vec![1.0; out.len()]);
        let analytic = layer.backward(&ones);
        let eps = 1e-2f32;
        for i in (0..input.len()).step_by((input.len() / 16).max(1)) {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let lp: f32 = layer.forward(&plus, false).data().iter().sum();
            let lm: f32 = layer.forward(&minus, false).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (numeric - a).abs() < tol * (1.0 + numeric.abs().max(a.abs())),
                "grad mismatch at {i}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    #[test]
    fn conv_shapes_and_flops() {
        let c = Conv2d::new(3, 8, 3, 1);
        assert_eq!(c.output_shape(&[3, 16, 16]), vec![8, 16, 16]);
        assert_eq!(c.param_count(), 8 * 3 * 3 * 3 + 8);
        assert_eq!(c.flops(&[3, 16, 16]), 8 * 16 * 16 * 3 * 9);
    }

    #[test]
    fn conv_gradient_check() {
        let mut c = Conv2d::new(2, 3, 3, 7);
        let input = Tensor::he_init(&[2, 6, 6], 4, 99);
        grad_check(&mut c, &input, 1e-2);
    }

    #[test]
    fn dense_gradient_check() {
        let mut d = Dense::new(12, 5, 3);
        let input = Tensor::he_init(&[12], 12, 5);
        grad_check(&mut d, &input, 1e-2);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(&Tensor::from_vec(&[4], vec![1.0; 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_selects_maximum_and_routes_gradient() {
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(
            &[1, 2, 2],
            vec![1.0, 5.0, 2.0, 3.0], // max is 5 at (0,0,1)
        );
        let y = p.forward(&x, true);
        assert_eq!(y.data(), &[5.0]);
        let g = p.backward(&Tensor::from_vec(&[1, 1, 1], vec![2.0]));
        assert_eq!(g.data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::he_init(&[2, 3, 4], 4, 11);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[24]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn dense_learns_with_sgd() {
        // Fit y = sum(x) with a single output neuron.
        let mut d = Dense::new(4, 1, 13);
        let mut rng_state = 1u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        for _ in 0..800 {
            let x = Tensor::from_vec(&[4], (0..4).map(|_| next()).collect());
            let target: f32 = x.data().iter().sum();
            let y = d.forward(&x, true);
            let err = y.data()[0] - target;
            let grad = Tensor::from_vec(&[1], vec![2.0 * err]);
            d.backward(&grad);
            d.apply_gradients(0.05);
        }
        let x = Tensor::from_vec(&[4], vec![0.3, -0.2, 0.1, 0.4]);
        let y = d.forward(&x, false);
        assert!(
            (y.data()[0] - 0.6).abs() < 0.05,
            "dense layer failed to fit sum: {}",
            y.data()[0]
        );
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_wrong_channels() {
        let c = Conv2d::new(3, 8, 3, 1);
        let _ = c.output_shape(&[4, 16, 16]);
    }
}
