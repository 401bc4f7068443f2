//! Keypoint detection: local extrema of the DoG stack.

use super::pyramid::Pyramid;

/// A detected keypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// x position in input-image coordinates.
    pub x: f32,
    /// y position in input-image coordinates.
    pub y: f32,
    /// Octave index within the pyramid.
    pub octave: usize,
    /// DoG level within the octave at which the extremum was found.
    pub level: usize,
    /// x position in octave coordinates.
    pub ox: usize,
    /// y position in octave coordinates.
    pub oy: usize,
    /// DoG response (signed); magnitude reflects contrast.
    pub response: f32,
}

/// Minimum |DoG| response; suppresses low-contrast noise extrema.
const CONTRAST_THRESHOLD: f32 = 3.0;
/// Maximum keypoints kept per frame (strongest first). Bounds matching cost
/// on busy frames.
const MAX_KEYPOINTS: usize = 256;
/// Edge rejection: the maximum ratio of principal curvatures, as in Lowe's
/// 2004 paper (tested as `(r+1)^2/r`).
const EDGE_RATIO: f32 = 10.0;

/// Finds DoG extrema: a pixel whose |response| exceeds the contrast
/// threshold and which is a strict maximum or minimum of its 3x3x3 scale-
/// space neighbourhood.
pub fn detect(pyramid: &Pyramid) -> Vec<Keypoint> {
    let mut keypoints = Vec::new();
    for (oi, octave) in pyramid.octaves.iter().enumerate() {
        // The DoG stack is shallow (3 levels by default), so extrema are
        // sought at every level, comparing against whichever neighbouring
        // levels exist. Classic SIFT restricts to interior levels; with a
        // shallow stack that would discard most blob responses.
        for li in 0..octave.dogs.len() {
            let below = li.checked_sub(1).map(|i| &octave.dogs[i]);
            let here = &octave.dogs[li];
            let above = octave.dogs.get(li + 1);
            let (w, h) = (here.width(), here.height());
            for y in 1..h.saturating_sub(1) {
                for x in 1..w.saturating_sub(1) {
                    let v = here.get(x as i64, y as i64);
                    if v.abs() < CONTRAST_THRESHOLD {
                        continue;
                    }
                    if !is_extremum(below, here, above, x as i64, y as i64, v) {
                        continue;
                    }
                    if is_edge(here, x as i64, y as i64, EDGE_RATIO) {
                        continue;
                    }
                    keypoints.push(Keypoint {
                        x: (x * octave.downscale) as f32,
                        y: (y * octave.downscale) as f32,
                        octave: oi,
                        level: li,
                        ox: x,
                        oy: y,
                        response: v,
                    });
                }
            }
        }
    }
    // Strongest first; cap.
    keypoints.sort_by(|a, b| {
        b.response
            .abs()
            .partial_cmp(&a.response.abs())
            .expect("responses are finite")
    });
    keypoints.truncate(MAX_KEYPOINTS);
    keypoints
}

fn is_extremum(
    below: Option<&super::image::GrayImage>,
    here: &super::image::GrayImage,
    above: Option<&super::image::GrayImage>,
    x: i64,
    y: i64,
    v: f32,
) -> bool {
    let mut is_max = true;
    let mut is_min = true;
    let levels = [(below, false), (Some(here), true), (above, false)];
    for (img, center) in levels {
        let Some(img) = img else { continue };
        for dy in -1..=1i64 {
            for dx in -1..=1i64 {
                if center && dx == 0 && dy == 0 {
                    continue;
                }
                let n = img.get(x + dx, y + dy);
                if n >= v {
                    is_max = false;
                }
                if n <= v {
                    is_min = false;
                }
                if !is_max && !is_min {
                    return false;
                }
            }
        }
    }
    is_max || is_min
}

/// Lowe's edge test: reject keypoints on straight edges using the ratio of
/// the Hessian's trace squared to its determinant.
fn is_edge(dog: &super::image::GrayImage, x: i64, y: i64, r: f32) -> bool {
    let dxx = dog.get(x + 1, y) + dog.get(x - 1, y) - 2.0 * dog.get(x, y);
    let dyy = dog.get(x, y + 1) + dog.get(x, y - 1) - 2.0 * dog.get(x, y);
    let dxy = (dog.get(x + 1, y + 1) - dog.get(x - 1, y + 1) - dog.get(x + 1, y - 1)
        + dog.get(x - 1, y - 1))
        / 4.0;
    let trace = dxx + dyy;
    let det = dxx * dyy - dxy * dxy;
    if det <= 0.0 {
        return true;
    }
    trace * trace / det > (r + 1.0) * (r + 1.0) / r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sift::image::GrayImage;

    fn blob_image(w: usize, h: usize, blobs: &[(usize, usize)]) -> GrayImage {
        let mut data = vec![40.0f32; w * h];
        for &(cx, cy) in blobs {
            for y in 0..h {
                for x in 0..w {
                    let d2 =
                        ((x as f32 - cx as f32).powi(2) + (y as f32 - cy as f32).powi(2)) / 18.0;
                    data[y * w + x] += 180.0 * (-d2).exp();
                }
            }
        }
        GrayImage::from_data(w, h, data)
    }

    #[test]
    fn flat_image_has_no_keypoints() {
        let img = GrayImage::from_data(64, 64, vec![100.0; 64 * 64]);
        let p = Pyramid::build(&img);
        assert!(detect(&p).is_empty());
    }

    #[test]
    fn blobs_are_detected_near_their_centres() {
        let img = blob_image(96, 96, &[(24, 24), (70, 60)]);
        let p = Pyramid::build(&img);
        let kps = detect(&p);
        assert!(!kps.is_empty(), "blobs must produce keypoints");
        for &(cx, cy) in &[(24.0f32, 24.0f32), (70.0, 60.0)] {
            let near = kps
                .iter()
                .any(|k| ((k.x - cx).powi(2) + (k.y - cy).powi(2)).sqrt() < 12.0);
            assert!(near, "no keypoint near blob at ({cx},{cy}): {kps:?}");
        }
    }

    #[test]
    fn max_keypoints_cap_respected() {
        // Hashed noise puts a DoG extremum in nearly every 3x3 window, far
        // more than the cap, so the cap is what bounds the count.
        let (w, h) = (128, 128);
        let data = (0..w * h)
            .map(|i: usize| (i.wrapping_mul(2_654_435_761) >> 7 & 0xFF) as f32)
            .collect();
        let p = Pyramid::build(&GrayImage::from_data(w, h, data));
        assert_eq!(detect(&p).len(), MAX_KEYPOINTS);
    }

    #[test]
    fn keypoints_sorted_by_strength() {
        let img = blob_image(96, 96, &[(30, 30), (66, 66)]);
        let p = Pyramid::build(&img);
        let kps = detect(&p);
        for w in kps.windows(2) {
            assert!(w[0].response.abs() >= w[1].response.abs());
        }
    }
}
