//! Block motion estimation.
//!
//! The encoder partitions the luma plane into 16x16 macroblocks and, for each
//! one, searches the previous reconstructed frame for the best-matching block
//! (minimum sum of absolute differences). The per-frame aggregate of these
//! costs — inter cost vs. an intra texture cost — drives the scenecut
//! decision that makes the encoder "semantic" in SiEVE's sense.
//!
//! # Edge-padded planes
//!
//! A motion vector may point past the picture, and the last macroblock row
//! and column overhang it when its size is not a multiple of 16; either
//! way a block reads the nearest edge sample ([`Plane::sample_clamped`]).
//! Searches never clamp. They read a `PaddedPlane`: a copy of the luma
//! plane whose edge samples are replicated `range + MB` deep on every side,
//! which holds exactly the samples clamping would read for every block a
//! search at that range can touch. So every current block and candidate
//! is a plain strided read, and each search step hands the kernel its
//! candidates in one batch ([`kernels::sad16_candidates`]), with the
//! current block loaded once. The coder keeps recycled padded copies of
//! its source and reference luma, and the lookahead a padded pair of half
//! planes.

use crate::frame::Plane;
use crate::kernels;

/// Side length of a macroblock in luma samples.
pub const MB: usize = 16;

/// A motion vector in full-pel units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct MotionVector {
    /// Horizontal displacement (positive = rightwards in the reference).
    pub dx: i16,
    /// Vertical displacement (positive = downwards in the reference).
    pub dy: i16,
}

impl MotionVector {
    /// The zero vector.
    pub const ZERO: MotionVector = MotionVector { dx: 0, dy: 0 };
}

/// Result of motion search for one macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotionResult {
    /// Best motion vector found.
    pub mv: MotionVector,
    /// Sum of absolute differences at `mv`.
    pub sad: u32,
    /// SAD of the co-located (zero-motion) block, kept because skip-mode
    /// decisions compare against it.
    pub zero_sad: u32,
}

/// The border a search at `range` needs: the candidate blocks of the last
/// macroblock column reach `range + MB - 1` samples past the picture.
fn search_border(range: u16) -> usize {
    range as usize + MB
}

/// A luma plane with its edge samples replicated `border` deep on every
/// side, so that any block within the border is a plain strided read that
/// sees exactly the samples [`Plane::sample_clamped`] would. The buffer is
/// recycled across [`PaddedPlane::pad`] calls of the same size.
#[derive(Debug, Clone, Default)]
pub(crate) struct PaddedPlane {
    width: usize,
    height: usize,
    border: usize,
    stride: usize,
    data: Vec<u8>,
}

impl PaddedPlane {
    /// A padded copy of `plane` for searches at up to `range`.
    fn searching(plane: &Plane, range: u16) -> Self {
        let mut padded = Self::default();
        padded.pad(plane, search_border(range));
        padded
    }

    /// Makes this a copy of `plane` padded `border` deep, reusing the
    /// buffer.
    fn pad(&mut self, plane: &Plane, border: usize) {
        let (w, h) = (plane.width(), plane.height());
        let stride = w + 2 * border;
        *self = Self {
            width: w,
            height: h,
            border,
            stride,
            data: std::mem::take(&mut self.data),
        };
        if w == 0 || h == 0 {
            // No macroblock to search, and no edge sample to replicate.
            self.data.clear();
            return;
        }
        self.data.resize(stride * (h + 2 * border), 0);
        for (src, row) in plane
            .data()
            .chunks_exact(w)
            .zip(self.data[border * stride..].chunks_exact_mut(stride))
        {
            row[..border].fill(src[0]);
            row[border..border + w].copy_from_slice(src);
            row[border + w..].fill(src[w - 1]);
        }
        let (top, rest) = self.data.split_at_mut(border * stride);
        for row in top.chunks_exact_mut(stride) {
            row.copy_from_slice(&rest[..stride]);
        }
        let (body, bottom) = self.data.split_at_mut((border + h) * stride);
        let last = &body[body.len() - stride..];
        for row in bottom.chunks_exact_mut(stride) {
            row.copy_from_slice(last);
        }
    }

    /// Makes this a padded copy of `plane` for searches at up to `range`.
    pub(crate) fn pad_for_search(&mut self, plane: &Plane, range: u16) {
        self.pad(plane, search_border(range));
    }

    /// Index of sample `(x, y)`, which may lie in the border.
    fn index(&self, x: isize, y: isize) -> usize {
        let b = self.border as isize;
        debug_assert!((-b..(self.width + self.border) as isize).contains(&x));
        debug_assert!((-b..(self.height + self.border) as isize).contains(&y));
        ((y + b) * self.stride as isize + x + b) as usize
    }

    /// The samples from `(x, y)` on, rows `stride` apart.
    fn block(&self, x: usize, y: usize) -> &[u8] {
        &self.data[self.index(x as isize, y as isize)..]
    }

    /// The top-left corner of every macroblock, in raster order.
    fn macroblocks(&self) -> impl Iterator<Item = (usize, usize)> {
        let w = self.width;
        (0..self.height)
            .step_by(MB)
            .flat_map(move |y| (0..w).step_by(MB).map(move |x| (x, y)))
    }
}

/// Panics unless the two planes of a search have one size.
fn assert_same_size(cur: &PaddedPlane, reference: &PaddedPlane) {
    assert_eq!(
        (cur.width, cur.height),
        (reference.width, reference.height),
        "motion search between planes of different sizes"
    );
}

/// Sum of absolute differences between the `MB`x`MB` block of `cur` at
/// `(x, y)` and the block of `reference` displaced by `mv`, reading the
/// nearest edge sample wherever either block leaves its plane. The planes
/// need not share dimensions. Pads both planes for the one block: the
/// searches keep padded planes instead.
pub fn sad_mb(cur: &Plane, reference: &Plane, x: usize, y: usize, mv: MotionVector) -> u32 {
    let border = x.max(y) + MB + mv.dx.unsigned_abs().max(mv.dy.unsigned_abs()) as usize;
    let (mut c, mut r) = (PaddedPlane::default(), PaddedPlane::default());
    c.pad(cur, border);
    r.pad(reference, border);
    let (rx, ry) = (x as isize + mv.dx as isize, y as isize + mv.dy as isize);
    kernels::sad16(
        c.block(x, y),
        c.stride,
        &r.data[r.index(rx, ry)..],
        r.stride,
    )
}

/// Intra texture cost of a macroblock: sum of absolute deviations from the
/// block mean. This is the classic cheap stand-in for the cost of
/// intra-coding the block, and is what the scenecut rule compares inter
/// cost against.
fn intra_cost(cur: &PaddedPlane, x: usize, y: usize) -> u32 {
    let block = cur.block(x, y);
    let mean = kernels::sum16(block, cur.stride) / (MB * MB) as u32;
    kernels::sad16_const(block, cur.stride, mean as u8)
}

/// Intra texture cost of the macroblock at `(x, y)`, reading the nearest
/// edge sample wherever the block leaves the plane. Pads the plane for the
/// one block: [`analyze_frame`] keeps a padded plane instead.
pub fn intra_cost_mb(cur: &Plane, x: usize, y: usize) -> u32 {
    let mut c = PaddedPlane::default();
    c.pad(cur, x.max(y) + MB);
    intra_cost(&c, x, y)
}

/// Three-step search for the best motion vector of the macroblock at
/// `(x, y)`, with maximum displacement `range` full-pel in each direction.
///
/// Three-step search probes a shrinking 8-neighbourhood around the best
/// candidate; it evaluates ~25 positions instead of `(2*range+1)^2`,
/// matching what real-time encoders do. Each step's candidates (the first
/// step's led by the zero vector) go to the kernel as one batch against
/// the current block, and the scan over their SADs keeps the first strict
/// minimum, as probing them one by one would.
///
/// # Panics
///
/// Panics if either plane is padded too shallowly for `range`.
pub(crate) fn three_step_search(
    cur: &PaddedPlane,
    reference: &PaddedPlane,
    x: usize,
    y: usize,
    range: u16,
) -> MotionResult {
    assert!(
        cur.border.min(reference.border) >= search_border(range),
        "planes padded too shallowly for search range {range}"
    );
    let cblock = cur.block(x, y);
    let stride = reference.stride as isize;
    let base = reference.index(x as isize, y as isize) as isize;
    let at = |mv: MotionVector| (base + mv.dy as isize * stride + mv.dx as isize) as usize;
    let mut step = range.max(1).next_power_of_two() as i16 / 2;
    if step == 0 {
        step = 1;
    }
    let range = range as i16;
    let mut mvs = [MotionVector::ZERO; 9];
    let mut offsets = [0usize; 9];
    let mut sads = [0u32; 9];
    // The zero vector leads the first batch: `mvs[0]` is already zero.
    let mut n = 1;
    offsets[0] = at(MotionVector::ZERO);
    let mut zero_sad = None;
    let mut best = MotionVector::ZERO;
    let mut best_sad = u32::MAX;
    while step >= 1 {
        let center = best;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = MotionVector {
                    dx: (center.dx + dx).clamp(-range, range),
                    dy: (center.dy + dy).clamp(-range, range),
                };
                if cand == center {
                    continue;
                }
                mvs[n] = cand;
                offsets[n] = at(cand);
                n += 1;
            }
        }
        kernels::sad16_candidates(
            cblock,
            cur.stride,
            &reference.data,
            reference.stride,
            &offsets[..n],
            &mut sads[..n],
        );
        // Only the first batch leads with the zero vector.
        zero_sad.get_or_insert(sads[0]);
        for (&mv, &s) in mvs[..n].iter().zip(&sads[..n]) {
            if s < best_sad {
                best_sad = s;
                best = mv;
            }
        }
        n = 0;
        step /= 2;
    }
    MotionResult {
        mv: best,
        sad: best_sad,
        zero_sad: zero_sad.expect("the first step probes the zero vector"),
    }
}

/// Whole-frame motion statistics used by the scenecut decision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameMotion {
    /// Sum over macroblocks of the best inter SAD.
    pub inter_cost: u64,
    /// Sum over macroblocks of the intra texture cost.
    pub intra_cost: u64,
    /// Number of macroblocks analysed.
    pub mb_count: u32,
}

impl FrameMotion {
    /// Ratio `inter/intra`, in `[0, +inf)`; low values mean the previous
    /// frame predicts this one well.
    pub fn inter_over_intra(&self) -> f64 {
        if self.intra_cost == 0 {
            if self.inter_cost == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.inter_cost as f64 / self.intra_cost as f64
        }
    }
}

/// The frame aggregate of motion search on every macroblock of `cur`
/// against `reference`, with no allocation — the encoder's lookahead runs
/// it once per frame.
///
/// # Panics
///
/// Panics if the planes differ in size or are padded too shallowly for
/// `range`.
pub(crate) fn frame_motion(cur: &PaddedPlane, reference: &PaddedPlane, range: u16) -> FrameMotion {
    assert_same_size(cur, reference);
    let mut agg = FrameMotion::default();
    for (x, y) in cur.macroblocks() {
        let r = three_step_search(cur, reference, x, y, range);
        agg.inter_cost += r.sad as u64;
        agg.intra_cost += intra_cost(cur, x, y) as u64;
        agg.mb_count += 1;
    }
    agg
}

/// Runs motion search on every macroblock of `cur` against `reference` and
/// returns the frame aggregate. Pads both planes first.
///
/// # Panics
///
/// Panics if the planes differ in size.
pub fn analyze_frame(cur: &Plane, reference: &Plane, range: u16) -> FrameMotion {
    frame_motion(
        &PaddedPlane::searching(cur, range),
        &PaddedPlane::searching(reference, range),
        range,
    )
}

/// The three-step search result of every macroblock of `cur` against
/// `reference`, in raster order. Pads both planes first.
///
/// # Panics
///
/// Panics if the planes differ in size.
pub fn search_frame(cur: &Plane, reference: &Plane, range: u16) -> Vec<MotionResult> {
    let (c, r) = (
        PaddedPlane::searching(cur, range),
        PaddedPlane::searching(reference, range),
    );
    assert_same_size(&c, &r);
    c.macroblocks()
        .map(|(x, y)| three_step_search(&c, &r, x, y, range))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured_plane(w: usize, h: usize, phase: usize) -> Plane {
        let mut data = vec![0u8; w * h];
        for y in 0..h {
            for x in 0..w {
                data[y * w + x] = (((x + phase) * 13 + y * 7) % 256) as u8;
            }
        }
        Plane::from_data(w, h, data)
    }

    #[test]
    fn sad_zero_for_identical() {
        let p = textured_plane(64, 64, 0);
        assert_eq!(sad_mb(&p, &p, 16, 16, MotionVector::ZERO), 0);
    }

    #[test]
    fn search_recovers_known_shift() {
        // reference shifted right by 4: block at x in cur matches x+4... build
        // cur as phase 0, reference as phase 4 so cur(x) == ref(x - 4).
        let cur = textured_plane(96, 96, 4);
        let reference = textured_plane(96, 96, 0);
        let (cur, reference) = (
            PaddedPlane::searching(&cur, 8),
            PaddedPlane::searching(&reference, 8),
        );
        let r = three_step_search(&cur, &reference, 32, 32, 8);
        assert_eq!(r.mv, MotionVector { dx: 4, dy: 0 });
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn search_never_worse_than_zero_mv() {
        let cur = textured_plane(64, 64, 3);
        let reference = textured_plane(64, 64, 11);
        let (cur, reference) = (
            PaddedPlane::searching(&cur, 16),
            PaddedPlane::searching(&reference, 16),
        );
        for (x, y) in [(0, 0), (16, 32), (48, 48)] {
            let r = three_step_search(&cur, &reference, x, y, 16);
            assert!(r.sad <= r.zero_sad);
        }
    }

    #[test]
    fn intra_cost_zero_for_flat() {
        let p = Plane::filled(32, 32, 77);
        assert_eq!(intra_cost_mb(&p, 0, 0), 0);
    }

    #[test]
    fn intra_cost_grows_with_texture() {
        let flat = Plane::filled(32, 32, 100);
        let tex = textured_plane(32, 32, 0);
        assert!(intra_cost_mb(&tex, 0, 0) > intra_cost_mb(&flat, 0, 0));
    }

    #[test]
    fn frame_motion_ratio_static_scene_is_low() {
        let p = textured_plane(64, 64, 0);
        let agg = analyze_frame(&p, &p, 8);
        assert_eq!(agg.inter_cost, 0);
        assert!(agg.inter_over_intra() < 1e-9);
        assert_eq!(agg.mb_count, 16);
    }

    #[test]
    fn frame_motion_ratio_scene_change_is_high() {
        let a = textured_plane(64, 64, 0);
        let mut b = Plane::filled(64, 64, 0);
        // Uncorrelated content.
        for y in 0..64 {
            for x in 0..64 {
                b.put(x, y, (((x * 31) ^ (y * 17)) % 256) as u8);
            }
        }
        let agg = analyze_frame(&b, &a, 8);
        assert!(
            agg.inter_over_intra() > 0.5,
            "uncorrelated frames should look intra-cheap, got {}",
            agg.inter_over_intra()
        );
    }
}
