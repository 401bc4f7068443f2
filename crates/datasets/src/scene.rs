//! Deterministic scene rendering: background, dynamics, object sprites.
//!
//! Every pixel of every frame is a pure function of `(dataset seed, frame
//! index, x, y)`, so frames can be generated on demand in any order without
//! storing raw video. The renderer models the phenomena that differentiate
//! the paper's detectors:
//!
//! * **textured static background** — gives the encoder a non-trivial intra
//!   cost and the baselines a meaningful signal floor;
//! * **ripple** — a coherent, locally-translational displacement of the
//!   background (water, foliage). Motion estimation compensates it; plain
//!   pixel differencing (MSE) does not, which is exactly why the paper finds
//!   scenecut-based detection more robust;
//! * **flicker** — slow global luma oscillation (exposure/lighting);
//! * **sensor noise** — per-frame i.i.d. noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sieve_video::{Frame, Plane, Resolution};

use crate::labels::ObjectClass;
use crate::schedule::ObjectInstance;

/// Everything needed to render a synthetic camera feed.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Frame resolution.
    pub resolution: Resolution,
    /// Frames per second (metadata only; dynamics are per-frame).
    pub fps: u32,
    /// Standard deviation of per-frame sensor noise, in luma levels.
    pub noise_sigma: f32,
    /// Peak background displacement in pixels (water/foliage movement).
    pub ripple_amplitude: f32,
    /// Spatial wavelength of the ripple in pixels.
    pub ripple_wavelength: f32,
    /// Peak global luma offset of the flicker.
    pub flicker_amplitude: f32,
    /// Flicker period in frames.
    pub flicker_period: f32,
    /// Peak camera jitter in pixels: a slow global translation of the whole
    /// scene (wind on the camera mount). Motion estimation compensates it;
    /// pixel differencing does not — the classic failure mode of MSE-style
    /// filters on outdoor feeds.
    pub jitter_amplitude: f32,
    /// Seed for the background texture and noise streams.
    pub seed: u64,
}

impl SceneConfig {
    /// A quiet indoor-ish scene with mild noise and no ripple.
    pub fn calm(resolution: Resolution, seed: u64) -> Self {
        Self {
            resolution,
            fps: 30,
            noise_sigma: 1.5,
            ripple_amplitude: 0.0,
            ripple_wavelength: 64.0,
            flicker_amplitude: 0.0,
            flicker_period: 240.0,
            jitter_amplitude: 0.0,
            seed,
        }
    }
}

/// 64-bit mix hash (splitmix64 finalizer); the basis of all per-pixel
/// pseudo-randomness.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from three coordinates and a seed.
fn hash_unit(seed: u64, a: u64, b: u64, c: u64) -> f32 {
    let h = mix(seed ^ mix(a).wrapping_mul(3) ^ mix(b).wrapping_mul(5) ^ mix(c).wrapping_mul(7));
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Approximately Gaussian noise (sum of two uniforms, triangular) with the
/// requested sigma.
fn noise_sample(seed: u64, x: u64, y: u64, frame: u64, sigma: f32) -> f32 {
    if sigma <= 0.0 {
        return 0.0;
    }
    let u1 = hash_unit(seed, x, y, frame.wrapping_mul(2));
    let u2 = hash_unit(seed, x, y, frame.wrapping_mul(2) + 1);
    // Triangular distribution with variance 1/6 per uniform pair.
    (u1 + u2 - 1.0) * sigma * 2.449 // sqrt(6)
}

/// The static background: value-noise texture plus gentle gradients, in all
/// three planes.
#[derive(Debug, Clone, PartialEq)]
pub struct Background {
    y: Plane,
    u: Plane,
    v: Plane,
}

impl Background {
    /// Generates the background for a scene.
    pub fn generate(cfg: &SceneConfig) -> Self {
        let w = cfg.resolution.width() as usize;
        let h = cfg.resolution.height() as usize;
        let cell = 16usize;
        let lat_w = w / cell + 2;
        let lat_h = h / cell + 2;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBAC4_6E55);
        let lattice: Vec<f32> = (0..lat_w * lat_h).map(|_| rng.gen::<f32>()).collect();
        let sample_lattice = |lx: usize, ly: usize| -> f32 {
            lattice[(ly.min(lat_h - 1)) * lat_w + lx.min(lat_w - 1)]
        };
        let mut y = vec![0u8; w * h];
        for py in 0..h {
            for px in 0..w {
                let fx = px as f32 / cell as f32;
                let fy = py as f32 / cell as f32;
                let (ix, iy) = (fx as usize, fy as usize);
                let (tx, ty) = (fx - ix as f32, fy - iy as f32);
                // Smoothstep-interpolated lattice noise.
                let sx = tx * tx * (3.0 - 2.0 * tx);
                let sy = ty * ty * (3.0 - 2.0 * ty);
                let n00 = sample_lattice(ix, iy);
                let n10 = sample_lattice(ix + 1, iy);
                let n01 = sample_lattice(ix, iy + 1);
                let n11 = sample_lattice(ix + 1, iy + 1);
                let smooth = n00 * (1.0 - sx) * (1.0 - sy)
                    + n10 * sx * (1.0 - sy)
                    + n01 * (1.0 - sx) * sy
                    + n11 * sx * sy;
                let fine = hash_unit(cfg.seed, px as u64, py as u64, 0) - 0.5;
                let grad = 20.0 * (py as f32 / h as f32);
                let val = 96.0 + 56.0 * smooth + 18.0 * fine + grad;
                y[py * w + px] = val.clamp(0.0, 255.0) as u8;
            }
        }
        // Structural edges: building silhouettes and curb lines. Real
        // surveillance backgrounds are full of sharp static edges; under
        // camera jitter they translate rigidly — integer motion search
        // compensates them for free — but they decorrelate pixel
        // differencing, producing MSE spikes on the order of an object
        // entering the scene. Without them the background is so smooth that
        // jitter is invisible to MSE, which no real feed is.
        let bar_count = 8 + (rng.gen::<u64>() % 5) as usize;
        for _ in 0..bar_count {
            let offset = (rng.gen::<f32>() - 0.5) * 90.0;
            if rng.gen::<f32>() < 0.6 {
                // Vertical silhouette.
                let bw = (3 + rng.gen::<u64>() % 12) as usize;
                let x0 = (rng.gen::<f32>() * w.saturating_sub(bw) as f32) as usize;
                for py in 0..h {
                    for px in x0..(x0 + bw).min(w) {
                        let cur = y[py * w + px] as f32;
                        y[py * w + px] = (cur + offset).clamp(16.0, 240.0) as u8;
                    }
                }
            } else {
                // Horizontal curb / ledge line.
                let bh = (2 + rng.gen::<u64>() % 6) as usize;
                let y0 = (rng.gen::<f32>() * h.saturating_sub(bh) as f32) as usize;
                for py in y0..(y0 + bh).min(h) {
                    for px in 0..w {
                        let cur = y[py * w + px] as f32;
                        y[py * w + px] = (cur + offset).clamp(16.0, 240.0) as u8;
                    }
                }
            }
        }
        let (cw, ch) = (w / 2, h / 2);
        let mut u = vec![0u8; cw * ch];
        let mut v = vec![0u8; cw * ch];
        for py in 0..ch {
            for px in 0..cw {
                let su = hash_unit(cfg.seed ^ 1, (px / 8) as u64, (py / 8) as u64, 0) - 0.5;
                let sv = hash_unit(cfg.seed ^ 2, (px / 8) as u64, (py / 8) as u64, 0) - 0.5;
                u[py * cw + px] = (124.0 + su * 10.0) as u8;
                v[py * cw + px] = (126.0 + sv * 10.0) as u8;
            }
        }
        Self {
            y: Plane::from_data(w, h, y),
            u: Plane::from_data(cw, ch, u),
            v: Plane::from_data(cw, ch, v),
        }
    }
}

/// Renders frames of a configured scene with a set of object instances.
#[derive(Debug, Clone)]
pub struct Renderer {
    cfg: SceneConfig,
    background: Background,
}

impl Renderer {
    /// Builds a renderer (generates the background once).
    pub fn new(cfg: SceneConfig) -> Self {
        let background = Background::generate(&cfg);
        Self { cfg, background }
    }

    /// The scene configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.cfg
    }

    /// Camera jitter displacement at frame `index`, in whole pixels: a sum
    /// of incommensurate sinusoids (smooth, bounded, deterministic).
    fn jitter_at(&self, index: usize) -> (i64, i64) {
        if self.cfg.jitter_amplitude <= 0.0 {
            return (0, 0);
        }
        let a = self.cfg.jitter_amplitude;
        let t = index as f32;
        let p1 = hash_unit(self.cfg.seed ^ 0x7177E4, 1, 0, 0) * std::f32::consts::TAU;
        let p2 = hash_unit(self.cfg.seed ^ 0x7177E4, 2, 0, 0) * std::f32::consts::TAU;
        let jx = a * ((0.23 * t + p1).sin() + 0.5 * (0.041 * t + p2).sin());
        let jy = 0.6 * a * ((0.19 * t + p2).sin() + 0.5 * (0.057 * t + p1).sin());
        // Quantize to even pixel counts: the encoder's scenecut lookahead
        // runs at half resolution with integer motion search, so odd shifts
        // would alias into half-pixel displacements it cannot compensate.
        // Real encoders use sub-pel motion search instead; quantizing the
        // jitter models the same compensability without implementing it.
        (2 * (jx / 2.0).round() as i64, 2 * (jy / 2.0).round() as i64)
    }

    /// Renders frame `index` with the given visible objects.
    pub fn render(&self, index: usize, objects: &[&ObjectInstance]) -> Frame {
        let res = self.cfg.resolution;
        let w = res.width() as usize;
        let h = res.height() as usize;
        let mut frame = Frame::grey(res);
        let t = index as f32;
        let (jx, jy) = self.jitter_at(index);
        let flicker = if self.cfg.flicker_amplitude > 0.0 {
            self.cfg.flicker_amplitude
                * (2.0 * std::f32::consts::PI * t / self.cfg.flicker_period).sin()
        } else {
            0.0
        };
        // Background with ripple displacement, flicker and sensor noise.
        let ripple_on = self.cfg.ripple_amplitude > 0.0;
        for py in 0..h {
            let dx = if ripple_on {
                self.cfg.ripple_amplitude
                    * (2.0
                        * std::f32::consts::PI
                        * (py as f32 / self.cfg.ripple_wavelength + t * 0.05))
                        .sin()
            } else {
                0.0
            };
            let dxi = dx.round() as i64;
            for px in 0..w {
                let base = self
                    .background
                    .y
                    .sample_clamped(px as i64 - dxi - jx, py as i64 - jy)
                    as f32;
                let n = noise_sample(
                    self.cfg.seed,
                    px as u64,
                    py as u64,
                    index as u64,
                    self.cfg.noise_sigma,
                );
                frame
                    .y_mut()
                    .put(px, py, (base + flicker + n).clamp(0.0, 255.0) as u8);
            }
        }
        let (cw, ch) = (w / 2, h / 2);
        for py in 0..ch {
            for px in 0..cw {
                let u = self
                    .background
                    .u
                    .sample_clamped(px as i64 - jx / 2, py as i64 - jy / 2);
                let v = self
                    .background
                    .v
                    .sample_clamped(px as i64 - jx / 2, py as i64 - jy / 2);
                frame.u_mut().put(px, py, u);
                frame.v_mut().put(px, py, v);
            }
        }
        // Objects on top (they ride the same camera, so they jitter too).
        for obj in objects {
            self.draw_object(&mut frame, index, obj, jx, jy);
        }
        frame
    }

    fn draw_object(&self, frame: &mut Frame, index: usize, obj: &ObjectInstance, jx: i64, jy: i64) {
        // Approach/departure contrast: during the ramp around the labelled
        // lifetime the sprite is alpha-blended at reduced contrast (an
        // object arriving from the distance / receding into it), then
        // snaps to full contrast exactly at the label flip. The graded part
        // keeps per-frame change below scenecut sensitivity; the snap is
        // what a tuned scenecut threshold detects — and being a fraction of
        // the full sprite contrast, it is quadratically attenuated for MSE
        // differencing, which is why pixel filters under-perform here just
        // as they do on real footage.
        const APPROACH_ALPHA: f32 = 0.35;
        let presence = obj.presence(index);
        if presence <= 0.0 {
            return;
        }
        let alpha = if presence >= 1.0 {
            1.0
        } else {
            APPROACH_ALPHA * presence
        };
        let (cx, cy) = obj.position_at(index);
        // Quantize the rendered position to even pixels so the sprite
        // translates rigidly frame to frame and stays integer-aligned in
        // the encoder's half-resolution lookahead. Sub-pixel (or odd-pixel)
        // positions would make the texture shimmer as it resamples —
        // residual energy an integer motion search cannot compensate —
        // whereas real video pipelines handle sub-pel motion with sub-pel
        // search. Same modelling argument as the even-pixel quantization in
        // [`Renderer::jitter_at`].
        let quant_even = |v: f32| 2.0 * (v / 2.0).round();
        let (cx, cy) = (quant_even(cx + jx as f32), quant_even(cy + jy as f32));
        let hw = obj.width / 2.0;
        let hh = obj.height / 2.0;
        let x_min = (cx - hw).floor().max(0.0) as usize;
        let x_max = ((cx + hw).ceil() as usize).min(frame.resolution().width() as usize);
        let y_min = (cy - hh).floor().max(0.0) as usize;
        let y_max = ((cy + hh).ceil() as usize).min(frame.resolution().height() as usize);
        let (body, stripe, u_c, v_c) = class_palette(obj.class, obj.texture_seed);
        let elliptical = matches!(obj.class, ObjectClass::Person | ObjectClass::Boat);
        for py in y_min..y_max {
            for px in x_min..x_max {
                // Object-local coordinates (move rigidly with the object).
                let lx = px as f32 - (cx - hw);
                let ly = py as f32 - (cy - hh);
                if elliptical {
                    let nx = (lx - hw) / hw;
                    let ny = (ly - hh) / hh;
                    if nx * nx + ny * ny > 1.0 {
                        continue;
                    }
                }
                // Rigid texture: stripes plus hash detail in local coords.
                let stripe_on = ((lx / 4.0) as i64 + (ly / 6.0) as i64) % 2 == 0;
                let detail = hash_unit(obj.texture_seed, lx as u64, ly as u64, 0) * 24.0 - 12.0;
                let val = if stripe_on { stripe } else { body } as f32 + detail;
                let cur = frame.y().sample(px, py) as f32;
                let blended = cur + (val - cur) * alpha;
                frame.y_mut().put(px, py, blended.clamp(0.0, 255.0) as u8);
                let cur_u = frame.u().sample(px / 2, py / 2) as f32;
                let cur_v = frame.v().sample(px / 2, py / 2) as f32;
                frame
                    .u_mut()
                    .put(px / 2, py / 2, (cur_u + (u_c as f32 - cur_u) * alpha) as u8);
                frame
                    .v_mut()
                    .put(px / 2, py / 2, (cur_v + (v_c as f32 - cur_v) * alpha) as u8);
            }
        }
    }
}

/// Class-specific sprite palette: body luma, stripe luma, chroma U/V.
fn class_palette(class: ObjectClass, texture_seed: u64) -> (u8, u8, u8, u8) {
    let jitter = (mix(texture_seed) % 33) as i16 - 16;
    let adj = |v: i16| (v + jitter).clamp(0, 255) as u8;
    match class {
        ObjectClass::Car => (adj(210), adj(180), 100, 160),
        ObjectClass::Bus => (adj(190), adj(230), 90, 120),
        ObjectClass::Truck => (adj(70), adj(110), 140, 110),
        // Body and stripe lumas are kept on the same side of the background
        // mean (~130) so sprites stay visible after box downsampling (a
        // half-tone pattern would average back into the background).
        ObjectClass::Person => (adj(50), adj(95), 120, 145),
        ObjectClass::Boat => (adj(235), adj(190), 160, 100),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> SceneConfig {
        SceneConfig {
            resolution: Resolution::new(96, 64),
            fps: 30,
            noise_sigma: 1.5,
            ripple_amplitude: 1.5,
            ripple_wavelength: 32.0,
            flicker_amplitude: 2.0,
            flicker_period: 120.0,
            jitter_amplitude: 1.0,
            seed,
        }
    }

    fn instance() -> ObjectInstance {
        ObjectInstance {
            class: ObjectClass::Car,
            spawn: 10,
            despawn: 50,
            x0: 48.0,
            y0: 32.0,
            vx: 0.5,
            vy: 0.0,
            width: 24.0,
            height: 12.0,
            texture_seed: 99,
            ramp: 0,
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = Renderer::new(cfg(5));
        let inst = instance();
        let a = r.render(12, &[&inst]);
        let b = r.render(12, &[&inst]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_frames_differ_by_noise() {
        let r = Renderer::new(cfg(5));
        let a = r.render(0, &[]);
        let b = r.render(1, &[]);
        assert_ne!(a, b);
        // But only mildly: mean abs diff should be around noise level.
        let mad: f64 = a
            .y()
            .data()
            .iter()
            .zip(b.y().data())
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .sum::<f64>()
            / a.y().data().len() as f64;
        assert!(mad < 8.0, "noise too strong: {mad}");
    }

    #[test]
    fn object_changes_pixels_substantially() {
        let r = Renderer::new(cfg(5));
        let inst = instance();
        let empty = r.render(12, &[]);
        let with_obj = r.render(12, &[&inst]);
        let changed = empty
            .y()
            .data()
            .iter()
            .zip(with_obj.y().data())
            .filter(|(&a, &b)| (a as i32 - b as i32).abs() > 20)
            .count();
        let area = (inst.width * inst.height) as usize;
        assert!(
            changed > area / 3,
            "object should visibly change ~its area: changed {changed}, area {area}"
        );
    }

    #[test]
    fn object_texture_moves_rigidly() {
        // The same object at two times must have identical local texture:
        // sample the centre pixel value at both times.
        let mut c = cfg(5);
        c.noise_sigma = 0.0;
        c.ripple_amplitude = 0.0;
        c.flicker_amplitude = 0.0;
        let r = Renderer::new(c);
        let mut inst = instance();
        inst.vx = 1.0;
        let f0 = r.render(10, &[&inst]);
        let f1 = r.render(14, &[&inst]);
        // Centre at t=10 is (48,32); at t=14 it is (52,32).
        assert_eq!(
            f0.y().sample(48, 32),
            f1.y().sample(52, 32),
            "texture must translate with the object"
        );
    }

    #[test]
    fn background_deterministic_per_seed() {
        let a = Background::generate(&cfg(1));
        let b = Background::generate(&cfg(1));
        let c = Background::generate(&cfg(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ripple_displaces_background() {
        let mut base = cfg(5);
        base.noise_sigma = 0.0;
        base.flicker_amplitude = 0.0;
        base.ripple_amplitude = 3.0;
        let r = Renderer::new(base);
        let a = r.render(0, &[]);
        let b = r.render(10, &[]);
        assert_ne!(a, b, "ripple must move the background over time");
    }

    #[test]
    fn classes_have_distinct_palettes() {
        let mut seen = std::collections::HashSet::new();
        for c in ObjectClass::ALL {
            let (body, stripe, u, v) = class_palette(c, 0);
            seen.insert((body, stripe, u, v));
        }
        assert_eq!(seen.len(), ObjectClass::ALL.len());
    }
}
