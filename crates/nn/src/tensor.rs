//! A minimal dense f32 tensor.
//!
//! Shapes are row-major; the inference engine uses rank-1 (`[n]`) and rank-3
//! (`[channels, height, width]`) tensors. This is deliberately simple: the
//! NN substrate only needs enough machinery to run and train a small object
//! classifier and to expose activation sizes for edge/cloud partitioning.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
/// Dense row-major f32 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
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
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
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
    pub fn he_init(shape: &[usize], fan_in: usize, seed: u64) -> Self {
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
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes when transferred between tiers (4 bytes/element).
    pub fn byte_size(&self) -> usize {
        self.data.len() * 4
    }

    /// Flat immutable data access.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data access.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a rank-3 index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-3 or the index is out of bounds.
    pub fn at3(&self, c: usize, y: usize, x: usize) -> f32 {
        assert_eq!(self.shape.len(), 3, "at3 requires a rank-3 tensor");
        let (_, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[c * h * w + y * w + x]
    }

    /// Sets an element at a rank-3 index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-3 or the index is out of bounds.
    pub fn set3(&mut self, c: usize, y: usize, x: usize, v: f32) {
        assert_eq!(self.shape.len(), 3, "set3 requires a rank-3 tensor");
        let (_, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[c * h * w + y * w + x] = v;
    }

    /// Reshapes without copying.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape must preserve element count"
        );
        self.shape = shape.to_vec();
        self
    }

    /// Index of the maximum element (ties resolve to the first).
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_len() {
        let t = Tensor::zeros(&[3, 4, 5]);
        assert_eq!(t.shape(), &[3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert_eq!(t.byte_size(), 240);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 5]);
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

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.clone().reshape(&[6]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[6]);
    }

    #[test]
    #[should_panic(expected = "preserve element count")]
    fn reshape_validates() {
        let _ = Tensor::zeros(&[4]).reshape(&[5]);
    }

    #[test]
    fn argmax_finds_peak() {
        let t = Tensor::from_vec(&[5], vec![0.1, 3.0, -2.0, 3.0, 1.0]);
        assert_eq!(t.argmax(), 1, "first of tied maxima");
    }
}
