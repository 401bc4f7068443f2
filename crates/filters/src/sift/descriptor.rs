//! 128-dimensional SIFT descriptors.
//!
//! The standard 4x4 spatial grid with 8 orientation bins, computed on the
//! blurred octave image the keypoint was found in. Rotation invariance is
//! deliberately omitted: the paper's cameras are fixed-angle, so descriptor
//! orientation normalization would only add noise and cost.

use super::image::GrayImage;
use super::keypoint::Keypoint;
use super::pyramid::Pyramid;

/// Descriptor dimensionality (4 x 4 cells x 8 orientation bins).
const DESCRIPTOR_LEN: usize = 128;

/// A descriptor paired with its keypoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptor {
    /// The keypoint this descriptor describes.
    pub keypoint: Keypoint,
    /// Unit-normalized 128-d feature vector.
    pub values: [f32; DESCRIPTOR_LEN],
}

impl Descriptor {
    /// Squared Euclidean distance to another descriptor.
    pub fn distance_sq(&self, other: &Descriptor) -> f32 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

/// Computes descriptors for `keypoints` over `pyramid`.
pub fn describe(pyramid: &Pyramid, keypoints: &[Keypoint]) -> Vec<Descriptor> {
    keypoints
        .iter()
        .filter_map(|kp| {
            let octave = pyramid.octaves.get(kp.octave)?;
            // Use the blur level matching the DoG level.
            let img = octave.images.get(kp.level)?;
            Some(Descriptor {
                keypoint: *kp,
                values: describe_one(img, kp.ox as i64, kp.oy as i64),
            })
        })
        .collect()
}

/// Builds one descriptor from the 16x16 gradient patch centred at `(x, y)`.
fn describe_one(img: &GrayImage, x: i64, y: i64) -> [f32; DESCRIPTOR_LEN] {
    let mut hist = [0f32; DESCRIPTOR_LEN];
    for dy in -8..8i64 {
        for dx in -8..8i64 {
            let (mag, ori) = img.gradient(x + dx, y + dy);
            if mag == 0.0 {
                continue;
            }
            // Spatial cell in the 4x4 grid.
            let cell_x = ((dx + 8) / 4) as usize;
            let cell_y = ((dy + 8) / 4) as usize;
            // Orientation bin in [0, 8).
            let norm = (ori + std::f32::consts::PI) / (2.0 * std::f32::consts::PI);
            let bin = ((norm * 8.0) as usize).min(7);
            // Gaussian spatial weighting centred on the keypoint.
            let w = (-((dx * dx + dy * dy) as f32) / 64.0).exp();
            hist[(cell_y * 4 + cell_x) * 8 + bin] += mag * w;
        }
    }
    normalize(&mut hist);
    // Lowe's illumination clamp: cap at 0.2, renormalize.
    for v in hist.iter_mut() {
        *v = v.min(0.2);
    }
    normalize(&mut hist);
    hist
}

fn normalize(v: &mut [f32; DESCRIPTOR_LEN]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sift::keypoint::detect;

    fn blob_image(w: usize, h: usize, cx: f32, cy: f32) -> GrayImage {
        let data = (0..w * h)
            .map(|i| {
                let (x, y) = ((i % w) as f32, (i / w) as f32);
                let d2 = ((x - cx).powi(2) + (y - cy).powi(2)) / 18.0;
                40.0 + 180.0 * (-d2).exp()
            })
            .collect();
        GrayImage::from_data(w, h, data)
    }

    fn descriptors_of(img: &GrayImage) -> Vec<Descriptor> {
        let p = Pyramid::build(img);
        let kps = detect(&p);
        describe(&p, &kps)
    }

    #[test]
    fn descriptors_are_unit_norm() {
        let img = blob_image(96, 96, 40.0, 40.0);
        let descs = descriptors_of(&img);
        assert!(!descs.is_empty());
        for d in &descs {
            let norm: f32 = d.values.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "norm {norm}");
        }
    }

    #[test]
    fn identical_patches_have_zero_distance() {
        let img = blob_image(96, 96, 40.0, 40.0);
        let descs = descriptors_of(&img);
        let d = &descs[0];
        assert_eq!(d.distance_sq(d), 0.0);
    }

    #[test]
    fn translated_blob_descriptor_matches() {
        // Same blob, different position: strongest descriptor should be
        // nearly identical (translation invariance of the local patch).
        let a = descriptors_of(&blob_image(96, 96, 30.0, 30.0));
        let b = descriptors_of(&blob_image(96, 96, 60.0, 50.0));
        assert!(!a.is_empty() && !b.is_empty());
        let best = a[0]
            .values
            .iter()
            .zip(&b[0].values)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>();
        assert!(best < 0.1, "translated blob should match, dist {best}");
    }

    #[test]
    fn different_structures_have_larger_distance() {
        let blob = descriptors_of(&blob_image(96, 96, 40.0, 40.0));
        // A corner structure instead of a blob.
        let data: Vec<f32> = (0..96 * 96)
            .map(|i| {
                let (x, y) = (i % 96, i / 96);
                if x > 40 && y > 40 {
                    220.0
                } else {
                    40.0
                }
            })
            .collect();
        let corner = descriptors_of(&GrayImage::from_data(96, 96, data));
        if corner.is_empty() {
            return; // corner may be rejected by edge filter; acceptable
        }
        let d_same = blob[0].distance_sq(&blob[0]);
        let d_diff = blob[0].distance_sq(&corner[0]);
        assert!(d_diff > d_same);
    }
}
