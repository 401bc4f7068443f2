//! Gaussian scale-space pyramid and difference-of-Gaussians stack.

use super::image::GrayImage;

/// Parameters of the scale space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PyramidConfig {
    /// Number of octaves (each halves the resolution). Automatically capped
    /// so the smallest octave stays at least 16 pixels on a side.
    pub octaves: usize,
    /// Base blur applied at each octave.
    pub base_sigma: f32,
    /// Blur multiplier between adjacent scales within an octave.
    pub k: f32,
    /// Number of blurred images per octave (DoG count is one fewer).
    pub scales: usize,
}

impl Default for PyramidConfig {
    fn default() -> Self {
        Self {
            octaves: 3,
            base_sigma: 1.2,
            k: std::f32::consts::SQRT_2,
            scales: 4,
        }
    }
}

/// One octave: the blurred images and their DoG differences.
#[derive(Debug, Clone)]
pub(crate) struct Octave {
    /// Blurred images, increasing sigma.
    pub images: Vec<GrayImage>,
    /// `images[i+1] - images[i]` for each adjacent pair.
    pub dogs: Vec<GrayImage>,
    /// Resolution scale relative to the input (1, 2, 4, ...).
    pub downscale: usize,
}

/// The full pyramid.
#[derive(Debug, Clone)]
pub struct Pyramid {
    /// Octaves, from input resolution downwards.
    pub(crate) octaves: Vec<Octave>,
}

impl Pyramid {
    /// Builds the scale space of `input`.
    ///
    /// # Panics
    ///
    /// Panics if `config.scales < 3` (keypoint detection needs at least two
    /// DoG levels).
    pub fn build(input: &GrayImage, config: &PyramidConfig) -> Self {
        assert!(config.scales >= 3, "need at least 3 scales per octave");
        let mut octaves = Vec::new();
        let mut base = input.clone();
        let mut downscale = 1usize;
        for _ in 0..config.octaves {
            if base.width() < 16 || base.height() < 16 {
                break;
            }
            let mut images: Vec<GrayImage> = Vec::with_capacity(config.scales);
            let mut sigma = config.base_sigma;
            for s in 0..config.scales {
                let img = if s == 0 {
                    base.gaussian_blur(sigma)
                } else {
                    // Incremental blur: sigma_total grows by factor k each
                    // scale; the increment is sqrt(new^2 - old^2).
                    let prev_sigma = sigma;
                    sigma *= config.k;
                    let inc = (sigma * sigma - prev_sigma * prev_sigma).max(0.0).sqrt();
                    images.last().unwrap().gaussian_blur(inc)
                };
                images.push(img);
            }
            let dogs = images.windows(2).map(|w| w[1].subtract(&w[0])).collect();
            octaves.push(Octave {
                images,
                dogs,
                downscale,
            });
            base = base.downsample2();
            downscale *= 2;
        }
        Self { octaves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> GrayImage {
        let data = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                (((x * 13) ^ (y * 7)) % 256) as f32
            })
            .collect();
        GrayImage::from_data(w, h, data)
    }

    #[test]
    fn builds_requested_octaves() {
        let img = textured(128, 128);
        let p = Pyramid::build(&img, &PyramidConfig::default());
        assert_eq!(p.octaves.len(), 3);
        assert_eq!(p.octaves[0].downscale, 1);
        assert_eq!(p.octaves[1].downscale, 2);
        assert_eq!(p.octaves[2].downscale, 4);
    }

    #[test]
    fn octaves_capped_for_small_images() {
        let img = textured(40, 40);
        let p = Pyramid::build(&img, &PyramidConfig::default());
        // 40 -> 20 -> 10(too small): only 2 octaves.
        assert_eq!(p.octaves.len(), 2);
    }

    #[test]
    fn dog_count_is_scales_minus_one() {
        let img = textured(64, 64);
        let cfg = PyramidConfig::default();
        let p = Pyramid::build(&img, &cfg);
        for o in &p.octaves {
            assert_eq!(o.images.len(), cfg.scales);
            assert_eq!(o.dogs.len(), cfg.scales - 1);
        }
    }

    #[test]
    fn flat_image_has_zero_dogs() {
        let img = GrayImage::from_data(64, 64, vec![128.0; 64 * 64]);
        let p = Pyramid::build(&img, &PyramidConfig::default());
        for o in &p.octaves {
            for d in &o.dogs {
                assert!(d.data().iter().all(|v| v.abs() < 1e-3));
            }
        }
    }

    #[test]
    #[should_panic(expected = "3 scales")]
    fn rejects_too_few_scales() {
        let img = textured(64, 64);
        let cfg = PyramidConfig {
            scales: 2,
            ..PyramidConfig::default()
        };
        let _ = Pyramid::build(&img, &cfg);
    }
}
