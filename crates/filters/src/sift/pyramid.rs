//! Gaussian scale-space pyramid and difference-of-Gaussians stack.

use super::image::GrayImage;

/// Octaves in the scale space (each halves the resolution), capped so the
/// smallest octave stays at least 16 pixels on a side.
const OCTAVES: usize = 3;
/// Base blur applied at each octave.
const BASE_SIGMA: f32 = 1.2;
/// Blur multiplier between adjacent scales within an octave.
const SCALE_STEP: f32 = std::f32::consts::SQRT_2;
/// Blurred images per octave; the DoG count is one fewer.
pub(super) const SCALES: usize = 4;
// Keypoint detection needs at least two DoG levels.
const _: () = assert!(SCALES >= 3, "need at least 3 scales per octave");

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
    pub fn build(input: &GrayImage) -> Self {
        let mut octaves = Vec::new();
        let mut base = input.clone();
        let mut downscale = 1usize;
        for _ in 0..OCTAVES {
            if base.width() < 16 || base.height() < 16 {
                break;
            }
            let mut images: Vec<GrayImage> = Vec::with_capacity(SCALES);
            let mut sigma = BASE_SIGMA;
            for s in 0..SCALES {
                let img = if s == 0 {
                    base.gaussian_blur(sigma)
                } else {
                    // Incremental blur: sigma_total grows by factor k each
                    // scale; the increment is sqrt(new^2 - old^2).
                    let prev_sigma = sigma;
                    sigma *= SCALE_STEP;
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
        let p = Pyramid::build(&img);
        assert_eq!(p.octaves.len(), 3);
        assert_eq!(p.octaves[0].downscale, 1);
        assert_eq!(p.octaves[1].downscale, 2);
        assert_eq!(p.octaves[2].downscale, 4);
    }

    #[test]
    fn octaves_capped_for_small_images() {
        let img = textured(40, 40);
        let p = Pyramid::build(&img);
        // 40 -> 20 -> 10(too small): only 2 octaves.
        assert_eq!(p.octaves.len(), 2);
    }

    #[test]
    fn dog_count_is_scales_minus_one() {
        let img = textured(64, 64);
        let p = Pyramid::build(&img);
        for o in &p.octaves {
            assert_eq!(o.images.len(), SCALES);
            assert_eq!(o.dogs.len(), SCALES - 1);
        }
    }

    #[test]
    fn flat_image_has_zero_dogs() {
        let img = GrayImage::from_data(64, 64, vec![128.0; 64 * 64]);
        let p = Pyramid::build(&img);
        for o in &p.octaves {
            for d in &o.dogs {
                assert!(d.data().iter().all(|v| v.abs() < 1e-3));
            }
        }
    }
}
