//! Block motion estimation.
//!
//! The encoder partitions the luma plane into 16x16 macroblocks and, for each
//! one, searches the previous reconstructed frame for the best-matching block
//! (minimum sum of absolute differences). The per-frame aggregate of these
//! costs — inter cost vs. an intra texture cost — drives the scenecut
//! decision that makes the encoder "semantic" in SiEVE's sense.

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

/// Sum of absolute differences between the `MB`x`MB` block of `cur` at
/// `(x, y)` and the block of `reference` displaced by `mv`, with edge
/// clamping on the reference.
pub fn sad_mb(cur: &Plane, reference: &Plane, x: usize, y: usize, mv: MotionVector) -> u32 {
    let (w, h) = (cur.width(), cur.height());
    let rw = reference.width();
    let rx = x as i64 + mv.dx as i64;
    let ry = y as i64 + mv.dy as i64;
    // Fast path: both blocks fully inside their planes — straight slice
    // arithmetic with each plane's own stride, no per-sample clamping and
    // no requirement that the planes share dimensions. This is the
    // encoder's hottest loop by far.
    if x + MB <= w
        && y + MB <= h
        && rx >= 0
        && ry >= 0
        && rx as usize + MB <= rw
        && ry as usize + MB <= reference.height()
    {
        let (rx, ry) = (rx as usize, ry as usize);
        return kernels::sad16(
            &cur.data()[y * w + x..],
            w,
            &reference.data()[ry * rw + rx..],
            rw,
        );
    }
    // Edge path: replicate the clamped blocks into stack buffers and run
    // the same kernel. Bit-identical to per-sample clamping.
    let mut cbuf = [0u8; MB * MB];
    let mut rbuf = [0u8; MB * MB];
    cur.fill_block_clamped(x as i64, y as i64, MB, &mut cbuf);
    reference.fill_block_clamped(rx, ry, MB, &mut rbuf);
    kernels::sad16(&cbuf, MB, &rbuf, MB)
}

/// Intra texture cost of the macroblock at `(x, y)`: sum of absolute
/// deviations from the block mean. This is the classic cheap stand-in for
/// the cost of intra-coding the block, and is what the scenecut rule
/// compares inter cost against.
pub fn intra_cost_mb(cur: &Plane, x: usize, y: usize) -> u32 {
    let (w, h) = (cur.width(), cur.height());
    // Fast path: fully interior block — `psadbw`-backed sum and deviation.
    if x + MB <= w && y + MB <= h {
        let block = &cur.data()[y * w + x..];
        let mean = kernels::sum16(block, w) / (MB * MB) as u32;
        return kernels::sad16_const(block, w, mean as u8);
    }
    // Edge path: materialize the clamped block once, then use the same
    // kernels as the interior path.
    let mut buf = [0u8; MB * MB];
    cur.fill_block_clamped(x as i64, y as i64, MB, &mut buf);
    let mean = kernels::sum16(&buf, MB) / (MB * MB) as u32;
    kernels::sad16_const(&buf, MB, mean as u8)
}

/// Three-step search for the best motion vector of the macroblock at
/// `(x, y)`, with maximum displacement `range` full-pel in each direction.
///
/// Three-step search probes a shrinking 8-neighbourhood around the best
/// candidate; it evaluates ~25 positions instead of `(2*range+1)^2`,
/// matching what real-time encoders do.
pub fn three_step_search(
    cur: &Plane,
    reference: &Plane,
    x: usize,
    y: usize,
    range: u16,
) -> MotionResult {
    // The current block is the same for every candidate: hoist it out of
    // the search loop (materializing it once if it overhangs the plane).
    let (w, h) = (cur.width(), cur.height());
    let mut cbuf = [0u8; MB * MB];
    let (cblock, cstride) = if x + MB <= w && y + MB <= h {
        (&cur.data()[y * w + x..], w)
    } else {
        cur.fill_block_clamped(x as i64, y as i64, MB, &mut cbuf);
        (&cbuf[..], MB)
    };
    let rw = reference.width();
    let rh = reference.height();
    let rdata = reference.data();
    let eval = |mv: MotionVector| -> u32 {
        let rx = x as i64 + mv.dx as i64;
        let ry = y as i64 + mv.dy as i64;
        if rx >= 0 && ry >= 0 && rx as usize + MB <= rw && ry as usize + MB <= rh {
            kernels::sad16(
                cblock,
                cstride,
                &rdata[ry as usize * rw + rx as usize..],
                rw,
            )
        } else {
            let mut rbuf = [0u8; MB * MB];
            reference.fill_block_clamped(rx, ry, MB, &mut rbuf);
            kernels::sad16(cblock, cstride, &rbuf, MB)
        }
    };
    let zero_sad = eval(MotionVector::ZERO);
    let mut best = MotionVector::ZERO;
    let mut best_sad = zero_sad;
    let mut step = range.max(1).next_power_of_two() as i16 / 2;
    if step == 0 {
        step = 1;
    }
    while step >= 1 {
        let center = best;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = MotionVector {
                    dx: (center.dx + dx).clamp(-(range as i16), range as i16),
                    dy: (center.dy + dy).clamp(-(range as i16), range as i16),
                };
                if cand == center {
                    continue;
                }
                let s = eval(cand);
                if s < best_sad {
                    best_sad = s;
                    best = cand;
                }
            }
        }
        step /= 2;
    }
    MotionResult {
        mv: best,
        sad: best_sad,
        zero_sad,
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

/// Runs motion search on every macroblock of `cur` against `reference` and
/// returns both the per-macroblock results (row-major over the MB grid) and
/// the frame aggregate.
pub fn analyze_frame(
    cur: &Plane,
    reference: &Plane,
    range: u16,
) -> (Vec<MotionResult>, FrameMotion) {
    let mb_cols = cur.width().div_ceil(MB);
    let mb_rows = cur.height().div_ceil(MB);
    let mut results = Vec::with_capacity(mb_cols * mb_rows);
    let mut agg = FrameMotion::default();
    for my in 0..mb_rows {
        for mx in 0..mb_cols {
            let x = mx * MB;
            let y = my * MB;
            let r = three_step_search(cur, reference, x, y, range);
            agg.inter_cost += r.sad as u64;
            agg.intra_cost += intra_cost_mb(cur, x, y) as u64;
            agg.mb_count += 1;
            results.push(r);
        }
    }
    (results, agg)
}

/// Like [`analyze_frame`] but returns only the frame aggregate, with no
/// per-macroblock allocation — the encoder's lookahead only needs the
/// aggregate, and it runs once per frame.
pub fn analyze_frame_agg(cur: &Plane, reference: &Plane, range: u16) -> FrameMotion {
    let mb_cols = cur.width().div_ceil(MB);
    let mb_rows = cur.height().div_ceil(MB);
    let mut agg = FrameMotion::default();
    for my in 0..mb_rows {
        for mx in 0..mb_cols {
            let x = mx * MB;
            let y = my * MB;
            let r = three_step_search(cur, reference, x, y, range);
            agg.inter_cost += r.sad as u64;
            agg.intra_cost += intra_cost_mb(cur, x, y) as u64;
            agg.mb_count += 1;
        }
    }
    agg
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
        let r = three_step_search(&cur, &reference, 32, 32, 8);
        assert_eq!(r.mv, MotionVector { dx: 4, dy: 0 });
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn search_never_worse_than_zero_mv() {
        let cur = textured_plane(64, 64, 3);
        let reference = textured_plane(64, 64, 11);
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
        let (_, agg) = analyze_frame(&p, &p, 8);
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
        let (_, agg) = analyze_frame(&b, &a, 8);
        assert!(
            agg.inter_over_intra() > 0.5,
            "uncorrelated frames should look intra-cheap, got {}",
            agg.inter_over_intra()
        );
    }
}
