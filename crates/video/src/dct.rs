//! 8x8 type-II DCT and its inverse, the transform used for both intra blocks
//! and inter residuals.
//!
//! The implementation is the separable floating-point orthonormal DCT,
//! dispatched through [`crate::kernels`] to an AVX2 path when the host has
//! one; the orthonormal form keeps quantization error analysis simple. The
//! inverse rounds ties away from zero (see the kernels module for why that
//! formula is shared with the SIMD tier).

use crate::kernels;

/// Number of samples along one side of a transform block.
const BLOCK: usize = 8;

/// Number of samples in a transform block.
pub const BLOCK_LEN: usize = BLOCK * BLOCK;

/// Forward 8x8 DCT-II of spatial samples (level-shifted by the caller if
/// desired). `input` and `output` are row-major 64-element blocks.
pub fn forward(input: &[i32; BLOCK_LEN], output: &mut [f32; BLOCK_LEN]) {
    kernels::dct8_forward(input, output);
}

/// Inverse 8x8 DCT-II (i.e. DCT-III), producing spatial samples rounded to
/// integers.
pub fn inverse(input: &[f32; BLOCK_LEN], output: &mut [i32; BLOCK_LEN]) {
    kernels::dct8_inverse(input, output);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_only_for_flat_block() {
        let input = [100i32; BLOCK_LEN];
        let mut coeffs = [0f32; BLOCK_LEN];
        forward(&input, &mut coeffs);
        assert!((coeffs[0] - 800.0).abs() < 1e-2, "DC = 8 * value");
        for &c in &coeffs[1..] {
            assert!(c.abs() < 1e-3, "AC coefficients must vanish, got {c}");
        }
    }

    #[test]
    fn roundtrip_is_exact_within_rounding() {
        let mut input = [0i32; BLOCK_LEN];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i * 37) % 256) as i32 - 128;
        }
        let mut coeffs = [0f32; BLOCK_LEN];
        let mut back = [0i32; BLOCK_LEN];
        forward(&input, &mut coeffs);
        inverse(&coeffs, &mut back);
        for (a, b) in input.iter().zip(&back) {
            assert!((a - b).abs() <= 1, "roundtrip error too large: {a} vs {b}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut input = [0i32; BLOCK_LEN];
        for (i, v) in input.iter_mut().enumerate() {
            *v = (((i * 97) % 200) as i32) - 100;
        }
        let mut coeffs = [0f32; BLOCK_LEN];
        forward(&input, &mut coeffs);
        let spatial: f64 = input.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let freq: f64 = coeffs.iter().map(|&v| (v as f64) * (v as f64)).sum();
        assert!(
            (spatial - freq).abs() / spatial.max(1.0) < 1e-4,
            "orthonormal DCT must preserve energy"
        );
    }

    #[test]
    fn linearity() {
        let a = [10i32; BLOCK_LEN];
        let mut b = [0i32; BLOCK_LEN];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i % 16) as i32;
        }
        let mut sum = [0i32; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            sum[i] = a[i] + b[i];
        }
        let (mut ca, mut cb, mut cs) = ([0f32; BLOCK_LEN], [0f32; BLOCK_LEN], [0f32; BLOCK_LEN]);
        forward(&a, &mut ca);
        forward(&b, &mut cb);
        forward(&sum, &mut cs);
        for i in 0..BLOCK_LEN {
            assert!((ca[i] + cb[i] - cs[i]).abs() < 1e-2);
        }
    }
}
