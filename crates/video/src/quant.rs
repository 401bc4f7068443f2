//! Coefficient quantization.
//!
//! Uses the JPEG Annex-K luminance/chrominance base matrices scaled by a
//! quality factor, the same scheme libjpeg uses. Intra blocks and inter
//! residuals share the matrices; residuals are typically small so they mostly
//! quantize to zero, which is what makes P-frames cheap.

use crate::dct::BLOCK_LEN;
use crate::kernels;

/// JPEG Annex-K luminance quantization matrix (quality 50 reference).
pub const BASE_LUMA: [u16; BLOCK_LEN] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// JPEG Annex-K chrominance quantization matrix (quality 50 reference).
const BASE_CHROMA: [u16; BLOCK_LEN] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// A quality-scaled quantization table.
#[derive(Debug, Clone)]
pub struct QuantTable {
    steps: [u16; BLOCK_LEN],
    /// The same steps as `f32`, precomputed for the quantize/dequantize
    /// kernels (the conversion is exact: steps are at most 255).
    steps_f32: [f32; BLOCK_LEN],
}

impl PartialEq for QuantTable {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps
    }
}

impl Eq for QuantTable {}

impl QuantTable {
    /// Builds a table from a base matrix and a quality factor in `1..=100`
    /// using the libjpeg scaling rule (50 = base, 100 = near-lossless).
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside `1..=100`.
    fn with_quality(base: &[u16; BLOCK_LEN], quality: u8) -> Self {
        assert!((1..=100).contains(&quality), "quality must be in 1..=100");
        let scale: u32 = if quality < 50 {
            5000 / quality as u32
        } else {
            200 - 2 * quality as u32
        };
        let mut steps = [0u16; BLOCK_LEN];
        for (s, &b) in steps.iter_mut().zip(base.iter()) {
            let q = (b as u32 * scale + 50) / 100;
            *s = q.clamp(1, 255) as u16;
        }
        let mut steps_f32 = [0f32; BLOCK_LEN];
        for (f, &s) in steps_f32.iter_mut().zip(steps.iter()) {
            *f = s as f32;
        }
        Self { steps, steps_f32 }
    }

    /// Luma table at `quality`.
    pub fn luma(quality: u8) -> Self {
        Self::with_quality(&BASE_LUMA, quality)
    }

    /// Chroma table at `quality`.
    pub fn chroma(quality: u8) -> Self {
        Self::with_quality(&BASE_CHROMA, quality)
    }

    /// Quantization step for coefficient `i` (row-major index).
    pub fn step(&self, i: usize) -> u16 {
        self.steps[i]
    }

    /// The steps as `f32`, row-major — the factors the decoder's parse
    /// dequantizes with as it reads each level.
    pub(crate) fn steps_f32(&self) -> &[f32; BLOCK_LEN] {
        &self.steps_f32
    }

    /// Quantizes a block of DCT coefficients to integer levels (rounding
    /// ties away from zero, like the rest of the kernel tier).
    pub fn quantize(&self, coeffs: &[f32; BLOCK_LEN], out: &mut [i32; BLOCK_LEN]) {
        kernels::quantize64(coeffs, &self.steps_f32, out);
    }

    /// Reconstructs DCT coefficients from quantized levels.
    pub fn dequantize(&self, levels: &[i32; BLOCK_LEN], out: &mut [f32; BLOCK_LEN]) {
        kernels::dequantize64(levels, &self.steps_f32, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_fifty_is_base() {
        let t = QuantTable::luma(50);
        for (i, &base) in BASE_LUMA.iter().enumerate() {
            assert_eq!(t.step(i), base);
        }
    }

    #[test]
    fn quality_hundred_is_unit_steps() {
        let t = QuantTable::luma(100);
        for i in 0..BLOCK_LEN {
            assert_eq!(t.step(i), 1, "quality 100 must be near-lossless");
        }
    }

    #[test]
    fn lower_quality_means_coarser_steps() {
        let hi = QuantTable::luma(90);
        let lo = QuantTable::luma(10);
        for i in 0..BLOCK_LEN {
            assert!(lo.step(i) >= hi.step(i));
        }
    }

    #[test]
    #[should_panic(expected = "quality")]
    fn rejects_zero_quality() {
        let _ = QuantTable::luma(0);
    }

    #[test]
    fn quantize_dequantize_bounds_error() {
        let t = QuantTable::luma(50);
        let mut coeffs = [0f32; BLOCK_LEN];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f32 - 32.0) * 13.7;
        }
        let mut levels = [0i32; BLOCK_LEN];
        let mut back = [0f32; BLOCK_LEN];
        t.quantize(&coeffs, &mut levels);
        t.dequantize(&levels, &mut back);
        for i in 0..BLOCK_LEN {
            assert!(
                (coeffs[i] - back[i]).abs() <= t.step(i) as f32 / 2.0 + 1e-3,
                "reconstruction error exceeds half a step at {i}"
            );
        }
    }

    #[test]
    fn small_residuals_quantize_to_zero() {
        let t = QuantTable::luma(50);
        let coeffs = [3.0f32; BLOCK_LEN];
        let mut levels = [0i32; BLOCK_LEN];
        t.quantize(&coeffs, &mut levels);
        // All steps >= 10, so a 3.0 coefficient rounds to zero.
        assert!(levels.iter().all(|&l| l == 0));
    }
}
