//! Object arrival schedules.
//!
//! A schedule is a list of object *instances* — class, spawn/despawn frame,
//! trajectory — drawn from a seeded renewal process: exponential gaps between
//! arrivals and exponential dwell times, clamped to minimums so every event
//! is long enough to be detectable at the dataset frame rate. Instances
//! appear fully visible and disappear instantly, matching the paper's notion
//! of an event boundary ("a new object entered the scene").

use crate::labels::{LabelSet, ObjectClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One object's lifetime and trajectory within a video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectInstance {
    /// Class rendered and labelled.
    pub class: ObjectClass,
    /// First frame in which the object is visible.
    pub spawn: usize,
    /// First frame in which the object is gone (exclusive end).
    pub despawn: usize,
    /// Centre x position at spawn, in pixels.
    pub x0: f32,
    /// Centre y position at spawn, in pixels.
    pub y0: f32,
    /// Horizontal velocity in pixels/frame.
    pub vx: f32,
    /// Vertical velocity in pixels/frame.
    pub vy: f32,
    /// Sprite width in pixels.
    pub width: f32,
    /// Sprite height in pixels.
    pub height: f32,
    /// Per-instance texture seed so two cars do not look identical.
    pub texture_seed: u64,
    /// Approach/departure duration in frames: the object fades in over the
    /// `ramp` frames before `spawn` and fades out over the `ramp` frames
    /// from `despawn`, modelling an object arriving from the distance
    /// rather than materializing. Ground truth flips at `spawn`/`despawn`
    /// (where the object reaches/leaves full detectability), so the
    /// sharpest visual change coincides exactly with the event boundary.
    pub ramp: usize,
}

impl ObjectInstance {
    /// True if the object is visible in `frame`.
    fn visible_at(&self, frame: usize) -> bool {
        frame >= self.spawn && frame < self.despawn
    }

    /// Centre position at `frame` (no bounds clamping).
    pub fn position_at(&self, frame: usize) -> (f32, f32) {
        let dt = frame.saturating_sub(self.spawn) as f32;
        (self.x0 + self.vx * dt, self.y0 + self.vy * dt)
    }

    /// Rendering presence at `frame`: `0.0` when the object leaves no
    /// pixels, `1.0` while it is fully present (and labelled), and a value
    /// in `(0, 1)` during the approach/departure ramps around its labelled
    /// lifetime. The renderer maps ramp values to a reduced sprite
    /// contrast, so the jump to full contrast lands exactly on the label
    /// flip at `spawn` (and the drop at `despawn`).
    pub fn presence(&self, frame: usize) -> f32 {
        if self.visible_at(frame) {
            return 1.0;
        }
        if self.ramp == 0 {
            return 0.0;
        }
        let span = (self.ramp + 1) as f32;
        if frame < self.spawn {
            let d = self.spawn - frame;
            if d <= self.ramp {
                return (self.ramp + 1 - d) as f32 / span;
            }
        } else if frame >= self.despawn {
            let d = frame - self.despawn;
            if d < self.ramp {
                return (self.ramp - d) as f32 / span;
            }
        }
        0.0
    }

    /// True if the object leaves any pixels in `frame` (labelled lifetime
    /// plus the approach/departure ramps).
    pub fn renderable_at(&self, frame: usize) -> bool {
        self.presence(frame) > 0.0
    }
}

/// Parameters of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleParams {
    /// Video length in frames.
    pub duration_frames: usize,
    /// Mean gap between consecutive arrivals, in frames.
    pub mean_gap: f64,
    /// Mean time an object stays, in frames.
    pub mean_dwell: f64,
    /// Minimum gap/dwell (keeps events detectable).
    pub min_span: usize,
    /// Maximum number of simultaneously visible objects.
    pub max_concurrent: usize,
}

impl ScheduleParams {
    /// Sensible defaults for a `duration_frames`-long clip at 30 fps: an
    /// arrival roughly every 10 s dwelling ~5 s.
    pub fn with_duration(duration_frames: usize) -> Self {
        Self {
            duration_frames,
            mean_gap: 300.0,
            mean_dwell: 150.0,
            min_span: 20,
            max_concurrent: 2,
        }
    }
}

/// A complete arrival schedule plus derived per-frame ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    params: ScheduleParams,
    instances: Vec<ObjectInstance>,
}

impl Schedule {
    /// Draws a schedule for `classes` within a `width`x`height` scene.
    ///
    /// `base_height` is the nominal object height in pixels (the dataset's
    /// object scale times the frame height); each class modulates it by its
    /// [`ObjectClass::size_factor`].
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or `params.duration_frames == 0`.
    pub fn generate(
        params: ScheduleParams,
        classes: &[ObjectClass],
        width: u32,
        height: u32,
        base_height: f32,
        seed: u64,
    ) -> Self {
        assert!(!classes.is_empty(), "at least one object class required");
        assert!(params.duration_frames > 0, "schedule needs frames");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut instances: Vec<ObjectInstance> = Vec::new();
        let mut t = exp_sample(&mut rng, params.mean_gap).max(params.min_span as f64) as usize;
        while t < params.duration_frames {
            let concurrent = instances.iter().filter(|o| o.visible_at(t)).count();
            if concurrent < params.max_concurrent {
                let class = classes[rng.gen_range(0..classes.len())];
                let dwell =
                    exp_sample(&mut rng, params.mean_dwell).max(params.min_span as f64) as usize;
                let despawn = (t + dwell).min(params.duration_frames);
                let h = (base_height * class.size_factor()).max(4.0);
                let w = (h * class.aspect()).max(4.0);
                // Keep the object inside the picture for its whole lifetime:
                // pick a start and a velocity such that the end position is
                // still inside the margins.
                let margin_x = w / 2.0 + 2.0;
                let margin_y = h / 2.0 + 2.0;
                let x_span = (width as f32 - 2.0 * margin_x).max(1.0);
                let y_span = (height as f32 - 2.0 * margin_y).max(1.0);
                let x0 = margin_x + rng.gen::<f32>() * x_span;
                let y0 = margin_y + rng.gen::<f32>() * y_span;
                let life = (despawn - t).max(1) as f32;
                let vmax_x = (x_span * 0.8) / life;
                let vmax_y = (y_span * 0.3) / life;
                let vx = (rng.gen::<f32>() * 2.0 - 1.0) * vmax_x.min(2.0);
                let vy = (rng.gen::<f32>() * 2.0 - 1.0) * vmax_y.min(0.8);
                // Clamp the start so the end point stays inside.
                let xe = x0 + vx * life;
                let x0 = if xe < margin_x {
                    x0 + (margin_x - xe)
                } else if xe > width as f32 - margin_x {
                    x0 - (xe - (width as f32 - margin_x))
                } else {
                    x0
                };
                let ye = y0 + vy * life;
                let y0 = if ye < margin_y {
                    y0 + (margin_y - ye)
                } else if ye > height as f32 - margin_y {
                    y0 - (ye - (height as f32 - margin_y))
                } else {
                    y0
                };
                instances.push(ObjectInstance {
                    class,
                    spawn: t,
                    despawn,
                    x0,
                    y0,
                    vx,
                    vy,
                    width: w,
                    height: h,
                    texture_seed: rng.gen(),
                    ramp: params.min_span.min(12),
                });
            }
            let gap = exp_sample(&mut rng, params.mean_gap).max(params.min_span as f64) as usize;
            t += gap.max(1);
        }
        Self { params, instances }
    }

    /// Instances leaving pixels in `frame` — the labelled set plus objects
    /// mid-approach or mid-departure (see [`ObjectInstance::presence`]).
    pub fn renderable_at(&self, frame: usize) -> impl Iterator<Item = &ObjectInstance> {
        self.instances
            .iter()
            .filter(move |o| o.renderable_at(frame))
    }

    /// Per-frame ground-truth label sets for the whole clip.
    pub fn frame_labels(&self) -> Vec<LabelSet> {
        let mut labels = vec![LabelSet::empty(); self.params.duration_frames];
        for inst in &self.instances {
            for l in labels
                .iter_mut()
                .take(inst.despawn.min(self.params.duration_frames))
                .skip(inst.spawn)
            {
                l.insert(inst.class);
            }
        }
        labels
    }
}

/// Exponential sample with the given mean.
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::segment_events;

    fn params(frames: usize) -> ScheduleParams {
        ScheduleParams {
            duration_frames: frames,
            mean_gap: 60.0,
            mean_dwell: 40.0,
            min_span: 10,
            max_concurrent: 2,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = Schedule::generate(params(2000), &[ObjectClass::Car], 320, 200, 32.0, 7);
        let b = Schedule::generate(params(2000), &[ObjectClass::Car], 320, 200, 32.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Schedule::generate(params(2000), &[ObjectClass::Car], 320, 200, 32.0, 7);
        let b = Schedule::generate(params(2000), &[ObjectClass::Car], 320, 200, 32.0, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn instances_stay_in_bounds() {
        let s = Schedule::generate(
            params(3000),
            &[ObjectClass::Car, ObjectClass::Bus],
            320,
            200,
            30.0,
            42,
        );
        assert!(!s.instances.is_empty());
        for inst in &s.instances {
            for f in [inst.spawn, inst.despawn - 1] {
                let (x, y) = inst.position_at(f);
                assert!((0.0..=320.0).contains(&x), "x out of bounds: {x}");
                assert!((0.0..=200.0).contains(&y), "y out of bounds: {y}");
            }
        }
    }

    #[test]
    fn concurrency_cap_respected() {
        let mut p = params(3000);
        p.max_concurrent = 1;
        p.mean_gap = 20.0;
        p.mean_dwell = 200.0;
        let s = Schedule::generate(p, &[ObjectClass::Person], 320, 200, 20.0, 3);
        for f in 0..3000 {
            assert!(
                s.instances.iter().filter(|o| o.visible_at(f)).count() <= 1,
                "frame {f} over cap"
            );
        }
    }

    #[test]
    fn labels_match_instances() {
        let s = Schedule::generate(params(2000), &[ObjectClass::Boat], 320, 200, 24.0, 9);
        let labels = s.frame_labels();
        assert_eq!(labels.len(), 2000);
        for (f, l) in labels.iter().enumerate() {
            let expect: LabelSet = s
                .instances
                .iter()
                .filter(|o| o.visible_at(f))
                .map(|o| o.class)
                .collect();
            assert_eq!(*l, expect, "frame {f}");
        }
    }

    #[test]
    fn produces_multiple_events() {
        let s = Schedule::generate(params(6000), &[ObjectClass::Car], 320, 200, 30.0, 11);
        let events = segment_events(&s.frame_labels());
        assert!(
            events.len() >= 5,
            "expected a handful of events in 6000 frames, got {}",
            events.len()
        );
    }

    #[test]
    fn min_span_enforced_on_dwell() {
        let s = Schedule::generate(params(5000), &[ObjectClass::Car], 320, 200, 30.0, 5);
        for inst in &s.instances {
            let life = inst.despawn - inst.spawn;
            // Instances truncated by the end of the video may be shorter.
            if inst.despawn < 5000 {
                assert!(life >= 10, "dwell {life} below min_span");
            }
        }
    }
}
