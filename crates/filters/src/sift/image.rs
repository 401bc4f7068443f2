//! Floating-point grayscale images for the SIFT pipeline.

use sieve_video::Plane;

/// A single-channel f32 image.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Builds from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub(crate) fn from_data(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "image data length mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    /// Converts a `u8` luma plane to float.
    pub fn from_luma(plane: &Plane) -> Self {
        Self {
            width: plane.width(),
            height: plane.height(),
            data: plane.data().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw samples, row-major.
    #[cfg(test)]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Sample with edge clamping.
    pub fn get(&self, x: i64, y: i64) -> f32 {
        let cx = x.clamp(0, self.width as i64 - 1) as usize;
        let cy = y.clamp(0, self.height as i64 - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Separable Gaussian blur with standard deviation `sigma`.
    pub fn gaussian_blur(&self, sigma: f32) -> GrayImage {
        if sigma <= 0.0 {
            return self.clone();
        }
        let radius = (sigma * 3.0).ceil() as i64;
        let mut kernel = Vec::with_capacity((2 * radius + 1) as usize);
        let denom = 2.0 * sigma * sigma;
        for i in -radius..=radius {
            kernel.push((-(i * i) as f32 / denom).exp());
        }
        let sum: f32 = kernel.iter().sum();
        for k in kernel.iter_mut() {
            *k /= sum;
        }
        // Horizontal pass.
        let mut tmp = vec![0f32; self.data.len()];
        for y in 0..self.height {
            for x in 0..self.width {
                let mut acc = 0f32;
                for (ki, k) in kernel.iter().enumerate() {
                    let sx = x as i64 + ki as i64 - radius;
                    acc += k * self.get(sx, y as i64);
                }
                tmp[y * self.width + x] = acc;
            }
        }
        let tmp_img = GrayImage::from_data(self.width, self.height, tmp);
        // Vertical pass.
        let mut out = vec![0f32; self.data.len()];
        for y in 0..self.height {
            for x in 0..self.width {
                let mut acc = 0f32;
                for (ki, k) in kernel.iter().enumerate() {
                    let sy = y as i64 + ki as i64 - radius;
                    acc += k * tmp_img.get(x as i64, sy);
                }
                out[y * self.width + x] = acc;
            }
        }
        GrayImage::from_data(self.width, self.height, out)
    }

    /// Halves the resolution by 2x2 averaging.
    pub fn downsample2(&self) -> GrayImage {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        let mut out = vec![0f32; w * h];
        if self.width >= 2 && self.height >= 2 {
            // Every 2x2 window is fully interior (2x+1 <= width-1 and
            // likewise for rows), so each output row is a straight kernel
            // call over two source rows.
            for y in 0..h {
                let top = &self.data[(2 * y) * self.width..][..self.width];
                let bottom = &self.data[(2 * y + 1) * self.width..][..self.width];
                sieve_video::kernels::avg2x2_f32(top, bottom, &mut out[y * w..][..w]);
            }
        } else {
            // Degenerate 1-pixel-wide/tall images need edge clamping.
            for y in 0..h {
                for x in 0..w {
                    let s = (self.get(2 * x as i64, 2 * y as i64)
                        + self.get(2 * x as i64 + 1, 2 * y as i64))
                        + (self.get(2 * x as i64, 2 * y as i64 + 1)
                            + self.get(2 * x as i64 + 1, 2 * y as i64 + 1));
                    out[y * w + x] = s * 0.25;
                }
            }
        }
        GrayImage::from_data(w, h, out)
    }

    /// Pixel-wise difference `self - other` (used for DoG levels).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn subtract(&self, other: &GrayImage) -> GrayImage {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image size mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        GrayImage::from_data(self.width, self.height, data)
    }

    /// Gradient magnitude and orientation (radians in `[-pi, pi]`) at
    /// `(x, y)` via central differences.
    pub fn gradient(&self, x: i64, y: i64) -> (f32, f32) {
        let dx = self.get(x + 1, y) - self.get(x - 1, y);
        let dy = self.get(x, y + 1) - self.get(x, y - 1);
        ((dx * dx + dy * dy).sqrt(), dy.atan2(dx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> GrayImage {
        let data = (0..w * h).map(|i| (i % w) as f32).collect();
        GrayImage::from_data(w, h, data)
    }

    #[test]
    fn blur_preserves_mean() {
        let img = ramp(32, 32);
        let blurred = img.gaussian_blur(1.5);
        let m0: f32 = img.data().iter().sum::<f32>() / 1024.0;
        let m1: f32 = blurred.data().iter().sum::<f32>() / 1024.0;
        assert!((m0 - m1).abs() < 0.5);
    }

    #[test]
    fn blur_reduces_variance() {
        // Checkerboard has maximal high-frequency energy.
        let data: Vec<f32> = (0..32 * 32)
            .map(|i| {
                if (i / 32 + i % 32) % 2 == 0 {
                    0.0
                } else {
                    255.0
                }
            })
            .collect();
        let img = GrayImage::from_data(32, 32, data);
        let var = |im: &GrayImage| {
            let mean: f32 = im.data().iter().sum::<f32>() / im.data().len() as f32;
            im.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / im.data().len() as f32
        };
        let blurred = img.gaussian_blur(2.0);
        assert!(var(&blurred) < var(&img) / 4.0);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let img = ramp(16, 16);
        assert_eq!(img.gaussian_blur(0.0), img);
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = ramp(32, 20);
        let d = img.downsample2();
        assert_eq!((d.width(), d.height()), (16, 10));
    }

    #[test]
    fn subtract_self_is_zero() {
        let img = ramp(8, 8);
        let z = img.subtract(&img);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_of_horizontal_ramp_points_right() {
        let img = ramp(16, 16);
        let (mag, ori) = img.gradient(8, 8);
        assert!(mag > 0.0);
        assert!(ori.abs() < 1e-6, "orientation should be 0 (pointing +x)");
    }

    #[test]
    fn clamped_access() {
        let img = ramp(8, 8);
        assert_eq!(img.get(-5, 0), img.get(0, 0));
        assert_eq!(img.get(100, 100), img.get(7, 7));
    }
}
