//! The NN cost probe: the forward pass `harness::build_workload` times
//! for `costs.nn_inference`.
//!
//! The paper's accuracy model takes the reference NN's labels as ground
//! truth, so the NN enters the evaluation only through its per-frame cost.
//! This module is the smallest network that makes that cost real: two
//! convolutions and two dense layers over a
//! `[3, NN_INPUT_SIZE, NN_INPUT_SIZE]` input, He-initialized from a seed,
//! with one logit per [`ObjectClass`]. It is never trained; mature CNN
//! crates are not available offline, so the arithmetic lives here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sieve_core::NN_INPUT_SIZE;
use sieve_datasets::ObjectClass;
use sieve_video::{Frame, Resolution};

/// Dense row-major f32 tensor: rank-1 (`[n]`) or rank-3
/// (`[channels, height, width]`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be non-zero"
        );
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Builds from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length does not match shape"
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// He-initialized random tensor (normal with stddev sqrt(2/fan_in)),
    /// deterministic in `seed`.
    fn he_init(shape: &[usize], fan_in: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| {
                // Box-Muller.
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
            })
            .collect();
        Self::from_vec(shape, data)
    }

    /// The tensor shape.
    fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    fn len(&self) -> usize {
        self.data.len()
    }

    /// Flat immutable data access.
    fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data access.
    fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a rank-3 index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-3 or the index is out of bounds.
    fn at3(&self, c: usize, y: usize, x: usize) -> f32 {
        assert_eq!(self.shape.len(), 3, "at3 requires a rank-3 tensor");
        let (_, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[c * h * w + y * w + x]
    }

    /// Sets an element at a rank-3 index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-3 or the index is out of bounds.
    fn set3(&mut self, c: usize, y: usize, x: usize, v: f32) {
        assert_eq!(self.shape.len(), 3, "set3 requires a rank-3 tensor");
        let (_, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[c * h * w + y * w + x] = v;
    }

    /// Reshapes without copying.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape must preserve element count"
        );
        self.shape = shape.to_vec();
        self
    }
}

/// 2-D convolution over `[C, H, W]` tensors with stride 1 and zero padding
/// chosen to preserve spatial size (`ksize / 2`).
#[derive(Debug)]
struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    ksize: usize,
    weights: Tensor, // [out, in, k, k]
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `ksize` is even.
    fn new(in_channels: usize, out_channels: usize, ksize: usize, seed: u64) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && ksize > 0);
        assert!(ksize % 2 == 1, "kernel size must be odd (same padding)");
        let fan_in = in_channels * ksize * ksize;
        Self {
            in_channels,
            out_channels,
            ksize,
            weights: Tensor::he_init(&[out_channels, in_channels, ksize, ksize], fan_in, seed),
            bias: vec![0.0; out_channels],
        }
    }

    fn w(&self, o: usize, i: usize, ky: usize, kx: usize) -> f32 {
        let k = self.ksize;
        self.weights.data()[((o * self.in_channels + i) * k + ky) * k + kx]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(input_shape.len(), 3, "conv2d input must be [C, H, W]");
        assert_eq!(input_shape[0], self.in_channels, "channel mismatch");
        vec![self.out_channels, input_shape[1], input_shape[2]]
    }

    fn forward(&self, input: &Tensor) -> Tensor {
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
        out
    }
}

/// Rectified linear unit.
fn relu(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    for v in out.data_mut() {
        let pass = *v > 0.0;
        if !pass {
            *v = 0.0;
        }
    }
    out
}

/// 2x2 max pooling with stride 2 over `[C, H, W]`.
fn max_pool2(input: &Tensor) -> Tensor {
    let shape = input.shape();
    assert_eq!(shape.len(), 3, "maxpool input must be [C, H, W]");
    let (c, oh, ow) = (shape[0], shape[1] / 2, shape[2] / 2);
    let mut out = Tensor::zeros(&[c, oh, ow]);
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let (sy, sx) = (2 * y + dy, 2 * x + dx);
                        let v = input.at3(ch, sy, sx);
                        if v > best {
                            best = v;
                        }
                    }
                }
                out.set3(ch, y, x, best);
            }
        }
    }
    out
}

/// Flattens `[C, H, W]` to `[C*H*W]`.
fn flatten(input: &Tensor) -> Tensor {
    input.clone().reshape(&[input.len()])
}

/// Fully connected layer.
#[derive(Debug)]
struct Dense {
    in_features: usize,
    out_features: usize,
    weights: Tensor, // [out, in]
    bias: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0);
        Self {
            in_features,
            out_features,
            weights: Tensor::he_init(&[out_features, in_features], in_features, seed),
            bias: vec![0.0; out_features],
        }
    }

    fn forward(&self, input: &Tensor) -> Tensor {
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
        out
    }
}

/// The reference classifier: conv → ReLU → pool, twice, then dense → ReLU
/// → dense, one logit per [`ObjectClass`].
#[derive(Debug)]
pub(crate) struct ReferenceModel {
    conv1: Conv2d,
    conv2: Conv2d,
    dense1: Dense,
    dense2: Dense,
}

impl ReferenceModel {
    /// Inference-mode forward pass.
    pub(crate) fn forward(&self, input: &Tensor) -> Tensor {
        let x = max_pool2(&relu(&self.conv1.forward(input)));
        let x = max_pool2(&relu(&self.conv2.forward(&x)));
        let x = relu(&self.dense1.forward(&flatten(&x)));
        self.dense2.forward(&x)
    }
}

/// Builds the reference classifier over `[3, NN_INPUT_SIZE,
/// NN_INPUT_SIZE]` inputs.
pub(crate) fn reference_model(seed: u64) -> ReferenceModel {
    let s = NN_INPUT_SIZE as usize;
    ReferenceModel {
        conv1: Conv2d::new(3, 8, 3, seed),
        conv2: Conv2d::new(8, 16, 3, seed ^ 1),
        dense1: Dense::new(16 * (s / 4) * (s / 4), 32, seed ^ 2),
        dense2: Dense::new(32, ObjectClass::ALL.len(), seed ^ 3),
    }
}

/// Converts a frame into the NN's input tensor: downscale to
/// `NN_INPUT_SIZE` square and normalize Y/U/V planes to roughly `[-1, 1]`.
pub(crate) fn frame_to_tensor(frame: &Frame) -> Tensor {
    let s = NN_INPUT_SIZE as usize;
    let small = frame.resize(Resolution::new(NN_INPUT_SIZE, NN_INPUT_SIZE));
    let mut t = Tensor::zeros(&[3, s, s]);
    for y in 0..s {
        for x in 0..s {
            t.set3(0, y, x, small.y().sample(x, y) as f32 / 127.5 - 1.0);
            let (cx, cy) = (x / 2, y / 2);
            t.set3(1, y, x, small.u().sample(cx, cy) as f32 / 127.5 - 1.0);
            t.set3(2, y, x, small.v().sample(cx, cy) as f32 / 127.5 - 1.0);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};

    #[test]
    fn reference_logits_are_pinned_bit_for_bit() {
        // `reference_model(1)` on Jackson Square's first Tiny frame, as the
        // layer-stack implementation this probe replaced computed it: the
        // cost `build_workload` records is the cost of the same arithmetic.
        let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
        let logits = reference_model(1).forward(&frame_to_tensor(&video.frame(0)));
        let bits: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [0xbe9166e1, 0xbe5c7384, 0x3daa81eb, 0x3e27cbb0, 0x3c8c7a92]
        );
    }

    #[test]
    fn frame_tensor_shape_and_range() {
        let spec = DatasetSpec::of(DatasetId::JacksonSquare);
        let video = spec.generate(DatasetScale::Tiny);
        let t = frame_to_tensor(&video.frame(0));
        assert_eq!(t.shape(), &[3, 32, 32]);
        assert!(t.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn reference_model_output_matches_class_count() {
        let m = reference_model(3);
        let x = Tensor::zeros(&[3, 32, 32]);
        assert_eq!(m.forward(&x).len(), 5);
    }

    #[test]
    fn conv_preserves_spatial_shape() {
        let c = Conv2d::new(3, 8, 3, 1);
        let y = c.forward(&Tensor::he_init(&[3, 16, 16], 16, 3));
        assert_eq!(y.shape(), &[8, 16, 16]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_wrong_channels() {
        let c = Conv2d::new(3, 8, 3, 1);
        let _ = c.forward(&Tensor::zeros(&[4, 16, 16]));
    }

    #[test]
    fn relu_masks_negatives() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(relu(&x).data(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn maxpool_selects_maximum() {
        let x = Tensor::from_vec(
            &[1, 2, 2],
            vec![1.0, 5.0, 2.0, 3.0], // max is 5 at (0,0,1)
        );
        assert_eq!(max_pool2(&x).data(), &[5.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::he_init(&[2, 3, 4], 4, 11);
        let y = flatten(&x);
        assert_eq!(y.shape(), &[24]);
        let back = y.reshape(&[2, 3, 4]);
        assert_eq!(back, x);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.clone().reshape(&[6]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[6]);
    }

    #[test]
    fn zeros_shape_and_len() {
        let t = Tensor::zeros(&[3, 4, 5]);
        assert_eq!(t.shape(), &[3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "preserve element count")]
    fn reshape_validates() {
        let _ = Tensor::zeros(&[4]).reshape(&[5]);
    }

    #[test]
    fn at3_set3_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set3(1, 2, 3, 7.5);
        assert_eq!(t.at3(1, 2, 3), 7.5);
        assert_eq!(t.at3(0, 0, 0), 0.0);
    }

    #[test]
    fn he_init_deterministic_and_scaled() {
        let a = Tensor::he_init(&[64, 64], 64, 42);
        let b = Tensor::he_init(&[64, 64], 64, 42);
        assert_eq!(a, b);
        let var: f32 = a.data().iter().map(|v| v * v).sum::<f32>() / a.len() as f32;
        let expect = 2.0 / 64.0;
        assert!(
            (var - expect).abs() < expect,
            "variance {var} far from He target {expect}"
        );
    }
}
