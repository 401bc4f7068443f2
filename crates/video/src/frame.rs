//! Raw video frames in YUV 4:2:0 planar format.
//!
//! The codec in this crate operates on [`Frame`]s: a full-resolution luma
//! (Y) plane and quarter-resolution chroma (U, V) planes, the layout used by
//! virtually every surveillance-camera encoder. Frames are the interface
//! between the synthetic scene renderer (`sieve-datasets`), the encoder
//! ([`crate::encode`]), the similarity baselines (`sieve-filters`) and the
//! NN input resize (the live run's cloud sink, `sieve-bench`'s cost probe).

use std::cell::RefCell;

use crate::kernels;

/// Frame dimensions in pixels.
///
/// Width and height are kept even so that the 4:2:0 chroma planes have an
/// exact half resolution; [`Resolution::new`] validates this.
///
/// ```
/// use sieve_video::Resolution;
/// let r = Resolution::new(640, 400);
/// assert_eq!((r.width(), r.height()), (640, 400));
/// assert_eq!((r.mb_cols(), r.mb_rows()), (40, 25));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    width: u32,
    height: u32,
}

impl Resolution {
    /// Creates a resolution.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or odd (4:2:0 chroma requires even
    /// dimensions).
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "resolution must be non-zero");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "4:2:0 frames require even dimensions, got {width}x{height}"
        );
        Self { width, height }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of 16x16 macroblocks horizontally (rounded up).
    pub fn mb_cols(&self) -> usize {
        (self.width as usize).div_ceil(16)
    }

    /// Number of 16x16 macroblocks vertically (rounded up).
    pub fn mb_rows(&self) -> usize {
        (self.height as usize).div_ceil(16)
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// A single image plane: a rectangle of 8-bit samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a plane filled with `value`.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates a plane from existing samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "plane data length mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    /// Plane width in samples.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Immutable access to the raw samples, row-major.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw samples, row-major.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Sample at `(x, y)`, clamped to the plane edges.
    ///
    /// Edge clamping mirrors what hardware encoders do for motion search that
    /// reaches outside the picture.
    // lint:allow(dead-pub): the clamped reference of crates/video/tests/{kernel_exactness,search_oracle}.rs
    pub fn sample_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as usize;
        let cy = y.clamp(0, self.height as i64 - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn sample(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "sample out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets the sample at `(x, y)`; out-of-bounds writes are ignored.
    pub fn put(&mut self, x: usize, y: usize, v: u8) {
        if x < self.width && y < self.height {
            self.data[y * self.width + x] = v;
        }
    }

    /// Copies an 8x8 block starting at `(bx*8, by*8)` into `out`, clamping at
    /// the plane edges.
    pub fn get_block8(&self, bx: usize, by: usize, out: &mut [i32; 64]) {
        let x0 = bx * 8;
        let y0 = by * 8;
        // Fast path: fully interior block — straight row reads the compiler
        // can vectorize, no per-sample clamping.
        if x0 + 8 <= self.width && y0 + 8 <= self.height {
            for dy in 0..8 {
                let row = &self.data[(y0 + dy) * self.width + x0..][..8];
                for dx in 0..8 {
                    out[dy * 8 + dx] = row[dx] as i32;
                }
            }
            return;
        }
        for dy in 0..8 {
            for dx in 0..8 {
                out[dy * 8 + dx] = self.sample_clamped((x0 + dx) as i64, (y0 + dy) as i64) as i32;
            }
        }
    }

    /// Materializes the `size`x`size` block whose top-left corner is at the
    /// (possibly out-of-bounds) position `(ox, oy)` into `out` (row-major,
    /// stride `size`), replicating edge samples exactly like
    /// [`Plane::sample_clamped`] would.
    ///
    /// An interior block is `size` row copies. At an edge each row splits
    /// into a left-clamped run, an interior `memcpy`, and a right-clamped
    /// run, so the block costs a handful of fills instead of a clamp per
    /// sample. Inlined so that `size` is a constant at every call site.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != size * size`.
    #[inline]
    pub fn fill_block_clamped(&self, ox: i64, oy: i64, size: usize, out: &mut [u8]) {
        assert_eq!(out.len(), size * size, "block buffer size mismatch");
        let (w, h) = (self.width, self.height);
        if ox >= 0 && oy >= 0 && ox as usize + size <= w && oy as usize + size <= h {
            let (ox, oy) = (ox as usize, oy as usize);
            for (dy, dst) in out.chunks_exact_mut(size).enumerate() {
                dst.copy_from_slice(&self.data[(oy + dy) * w + ox..][..size]);
            }
            return;
        }
        // Column split: dx in [0, n0) clamps left, [n0, n1) is interior,
        // [n1, size) clamps right. Either run may be empty or cover the block.
        let n0 = (-ox).clamp(0, size as i64) as usize;
        let n1 = (w as i64 - ox).clamp(n0 as i64, size as i64) as usize;
        for (dy, dst) in out.chunks_exact_mut(size).enumerate() {
            let sy = (oy + dy as i64).clamp(0, h as i64 - 1) as usize;
            let row = &self.data[sy * w..][..w];
            dst[..n0].fill(row[0]);
            if n1 > n0 {
                dst[n0..n1].copy_from_slice(&row[(ox + n0 as i64) as usize..][..n1 - n0]);
            }
            dst[n1..].fill(row[w - 1]);
        }
    }

    /// Reconstructs the 8x8 block at `(bx*8, by*8)` as `pred + resid`,
    /// saturated to `0..=255`, ignoring out-of-picture texels — the one
    /// reconstruction step the decoder and the encoder's closed loop share
    /// (intra blocks pass a flat 128 prediction).
    pub fn recon_block8(&mut self, bx: usize, by: usize, pred: &[u8; 64], resid: &[i32; 64]) {
        let x0 = bx * 8;
        let y0 = by * 8;
        if x0 + 8 <= self.width && y0 + 8 <= self.height {
            let dst = &mut self.data[y0 * self.width + x0..];
            kernels::recon8x8(dst, self.width, pred, 8, resid);
            return;
        }
        // The block overhangs the plane: reconstruct all of it aside, keep
        // the part inside.
        let mut block = [0u8; 64];
        kernels::recon8x8(&mut block, 8, pred, 8, resid);
        let cols = self.width.saturating_sub(x0).min(8);
        let rows = self.height.saturating_sub(y0).min(8);
        if cols == 0 {
            return;
        }
        for (dy, row) in block.chunks_exact(8).take(rows).enumerate() {
            self.data[(y0 + dy) * self.width + x0..][..cols].copy_from_slice(&row[..cols]);
        }
    }

    /// [`Plane::recon_block8`] with the motion-compensated prediction: the
    /// 8x8 block of `reference` at `(bx*8, by*8)` displaced by `(mvx, mvy)`,
    /// edge-clamped like [`Plane::fill_block_clamped`]. When the block lies
    /// inside both planes the kernel reads the reference rows in place;
    /// otherwise the prediction is materialized first.
    pub(crate) fn recon_block8_from(
        &mut self,
        reference: &Plane,
        bx: usize,
        by: usize,
        mvx: i64,
        mvy: i64,
        resid: &[i32; 64],
    ) {
        let (x0, y0) = (bx * 8, by * 8);
        let (sx, sy) = (x0 as i64 + mvx, y0 as i64 + mvy);
        if x0 + 8 <= self.width
            && y0 + 8 <= self.height
            && sx >= 0
            && sy >= 0
            && sx as usize + 8 <= reference.width
            && sy as usize + 8 <= reference.height
        {
            let pred = &reference.data[sy as usize * reference.width + sx as usize..];
            let dst = &mut self.data[y0 * self.width + x0..];
            kernels::recon8x8(dst, self.width, pred, reference.width, resid);
            return;
        }
        let mut pred = [0u8; 64];
        reference.fill_block_clamped(sx, sy, 8, &mut pred);
        self.recon_block8(bx, by, &pred, resid);
    }

    /// Copies a `size`x`size` block from `src` displaced by `(mvx, mvy)` into
    /// this plane at `(x, y)`, clamping reads at `src`'s edges — the
    /// motion-compensated SKIP copy. Interior copies are straight `memcpy`
    /// rows (inlined, so their length is a constant at every call site).
    #[inline]
    pub fn copy_block_from(
        &mut self,
        src: &Plane,
        x: usize,
        y: usize,
        size: usize,
        mvx: i64,
        mvy: i64,
    ) {
        let sx = x as i64 + mvx;
        let sy = y as i64 + mvy;
        if x + size <= self.width
            && y + size <= self.height
            && sx >= 0
            && sy >= 0
            && sx as usize + size <= src.width
            && sy as usize + size <= src.height
        {
            let (sx, sy) = (sx as usize, sy as usize);
            for dy in 0..size {
                let srow = &src.data[(sy + dy) * src.width + sx..][..size];
                self.data[(y + dy) * self.width + x..][..size].copy_from_slice(srow);
            }
            return;
        }
        for dy in 0..size {
            for dx in 0..size {
                let v = src.sample_clamped(x as i64 + dx as i64 + mvx, y as i64 + dy as i64 + mvy);
                self.put(x + dx, y + dy, v);
            }
        }
    }

    /// Makes this plane a copy of `src`, reusing the sample buffer.
    pub fn copy_from(&mut self, src: &Plane) {
        self.width = src.width;
        self.height = src.height;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Downscales by simple box filtering to `(new_w, new_h)`.
    fn resize_box(&self, new_w: usize, new_h: usize) -> Plane {
        let mut out = Plane::filled(1, 1, 0);
        self.resize_box_into(new_w, new_h, &mut out);
        out
    }

    /// `Plane::resize_box` into an existing plane, reusing its buffer —
    /// the encoder's lookahead calls this once per frame and must not
    /// allocate in steady state.
    ///
    /// Output sample `(ox, oy)` is `floor(sum / n)` over the `n` source
    /// samples of the rectangle `box_span` gives each axis. Separable:
    /// the rows of an output row's span are summed into per-column sums
    /// (a per-thread buffer, grown only by a wider source than before),
    /// then each output sample sums its column span of those.
    pub fn resize_box_into(&self, new_w: usize, new_h: usize, out: &mut Plane) {
        assert!(new_w > 0 && new_h > 0, "resize target must be non-zero");
        out.width = new_w;
        out.height = new_h;
        out.data.clear();
        out.data.resize(new_w * new_h, 0);
        let (w, h) = (self.width, self.height);
        if w == 0 || h == 0 {
            return; // every span is empty
        }
        RESIZE_SCRATCH.with_borrow_mut(|scratch| {
            let ResizeScratch { sums, spans } = scratch;
            spans.clear();
            spans.extend((0..new_w).map(|ox| box_span(ox, w, new_w)));
            sums.resize(w, 0);
            for (oy, out_row) in out.data.chunks_exact_mut(new_w).enumerate() {
                let (y0, y1) = box_span(oy, h, new_h);
                sums.fill(0);
                for row in self.data[y0 * w..y1 * w].chunks_exact(w) {
                    for (s, &v) in sums.iter_mut().zip(row) {
                        *s += v as u32;
                    }
                }
                let rows = (y1 - y0) as u64;
                for (o, &(x0, x1)) in out_row.iter_mut().zip(spans.iter()) {
                    let acc: u64 = sums[x0..x1].iter().map(|&s| s as u64).sum();
                    *o = (acc / (rows * (x1 - x0) as u64)) as u8;
                }
            }
        });
    }
}

/// The source span `[s0, s1)` that output sample `o` of `n` averages over
/// a source axis of `len > 0` samples: from `floor(o * len / n)` to
/// `ceil((o + 1) * len / n)`, at least one sample, clipped to the axis.
fn box_span(o: usize, len: usize, n: usize) -> (usize, usize) {
    let s0 = o * len / n;
    let s1 = ((o + 1) * len).div_ceil(n).max(s0 + 1).min(len);
    (s0, s1)
}

/// [`Plane::resize_box_into`]'s working memory.
#[derive(Default)]
struct ResizeScratch {
    /// Per source column, the sum over the current output row's span.
    sums: Vec<u32>,
    /// Per output column, its source column span.
    spans: Vec<(usize, usize)>,
}

thread_local! {
    static RESIZE_SCRATCH: RefCell<ResizeScratch> = RefCell::default();
}

/// A YUV 4:2:0 video frame.
///
/// ```
/// use sieve_video::{Frame, Resolution};
/// let f = Frame::filled(Resolution::new(64, 48), 16, 128, 128);
/// assert_eq!(f.y().data().len(), 64 * 48);
/// assert_eq!(f.u().data().len(), 32 * 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    resolution: Resolution,
    y: Plane,
    u: Plane,
    v: Plane,
}

impl Frame {
    /// Creates a frame with constant Y/U/V values.
    pub fn filled(resolution: Resolution, y: u8, u: u8, v: u8) -> Self {
        let (w, h) = (resolution.width() as usize, resolution.height() as usize);
        Self {
            resolution,
            y: Plane::filled(w, h, y),
            u: Plane::filled(w / 2, h / 2, u),
            v: Plane::filled(w / 2, h / 2, v),
        }
    }

    /// A mid-grey frame, the conventional "no signal" test pattern.
    pub fn grey(resolution: Resolution) -> Self {
        Self::filled(resolution, 128, 128, 128)
    }

    /// Frame resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Luma plane.
    pub fn y(&self) -> &Plane {
        &self.y
    }

    /// Chroma U plane.
    pub fn u(&self) -> &Plane {
        &self.u
    }

    /// Chroma V plane.
    pub fn v(&self) -> &Plane {
        &self.v
    }

    /// Mutable luma plane.
    pub fn y_mut(&mut self) -> &mut Plane {
        &mut self.y
    }

    /// Mutable chroma U plane.
    pub fn u_mut(&mut self) -> &mut Plane {
        &mut self.u
    }

    /// Mutable chroma V plane.
    pub fn v_mut(&mut self) -> &mut Plane {
        &mut self.v
    }

    /// The three planes, mutable at once (Y, U, V).
    pub fn planes_mut(&mut self) -> (&mut Plane, &mut Plane, &mut Plane) {
        (&mut self.y, &mut self.u, &mut self.v)
    }

    /// Makes this frame a copy of `src`, reusing the three sample buffers
    /// — `*self = src.clone()` without the allocations, for per-frame
    /// "remember the previous frame" state.
    pub fn copy_from(&mut self, src: &Frame) {
        self.resolution = src.resolution;
        self.y.copy_from(&src.y);
        self.u.copy_from(&src.u);
        self.v.copy_from(&src.v);
    }

    /// Downscales the frame with a box filter; used when shipping frames to a
    /// fixed NN input size (the paper resizes I-frames to the YOLO input
    /// resolution before edge→cloud transfer).
    pub fn resize(&self, target: Resolution) -> Frame {
        let (w, h) = (target.width() as usize, target.height() as usize);
        Frame {
            resolution: target,
            y: self.y.resize_box(w, h),
            u: self.u.resize_box(w / 2, h / 2),
            v: self.v.resize_box(w / 2, h / 2),
        }
    }

    /// Peak signal-to-noise ratio of the luma plane against `other`, in dB.
    /// Returns `f64::INFINITY` for identical planes.
    ///
    /// # Panics
    ///
    /// Panics if the resolutions differ.
    // lint:allow(dead-pub): tests/proptests.rs bounds the I-frame round-trip error with it
    pub fn psnr_luma(&self, other: &Frame) -> f64 {
        assert_eq!(
            self.resolution, other.resolution,
            "PSNR requires equal resolutions"
        );
        let mse: f64 = self
            .y
            .data()
            .iter()
            .zip(other.y.data())
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum::<f64>()
            / self.y.data().len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_accessors() {
        let r = Resolution::new(600, 400);
        assert_eq!(r.width(), 600);
        assert_eq!(r.height(), 400);
        assert_eq!(r.mb_cols(), 38);
        assert_eq!(r.mb_rows(), 25);
        assert_eq!(r.to_string(), "600x400");
    }

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn resolution_rejects_odd() {
        let _ = Resolution::new(7, 4);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn resolution_rejects_zero() {
        let _ = Resolution::new(0, 4);
    }

    #[test]
    fn plane_block_roundtrip() {
        let mut p = Plane::filled(16, 16, 0);
        let mut blk = [0i32; 64];
        for (i, b) in blk.iter_mut().enumerate() {
            *b = i as i32;
        }
        p.recon_block8(1, 1, &[0; 64], &blk);
        let mut back = [0i32; 64];
        p.get_block8(1, 1, &mut back);
        assert_eq!(blk, back);
    }

    #[test]
    fn plane_block_clamps_at_edges() {
        let p = Plane::filled(10, 10, 7);
        let mut blk = [0i32; 64];
        // Block (1,1) spans pixels 8..16, past the 10-wide plane: must clamp.
        p.get_block8(1, 1, &mut blk);
        assert!(blk.iter().all(|&v| v == 7));
    }

    #[test]
    fn plane_put_block_clips_values() {
        let mut p = Plane::filled(8, 8, 0);
        p.recon_block8(0, 0, &[0; 64], &[300; 64]);
        assert!(p.data().iter().all(|&v| v == 255));
        p.recon_block8(0, 0, &[4; 64], &[-5; 64]);
        assert!(p.data().iter().all(|&v| v == 0));
        p.recon_block8(0, 0, &[200; 64], &[i32::MAX; 64]);
        assert!(p.data().iter().all(|&v| v == 255));
        p.recon_block8(0, 0, &[200; 64], &[i32::MIN; 64]);
        assert!(p.data().iter().all(|&v| v == 0));
    }

    #[test]
    fn recon_block_clips_to_the_plane() {
        // Block (1,1) of a 10x11 plane keeps a 2x3 corner.
        let mut p = Plane::filled(10, 11, 9);
        p.recon_block8(1, 1, &[100; 64], &[1; 64]);
        for y in 0..11 {
            for x in 0..10 {
                let want = if x >= 8 && y >= 8 { 101 } else { 9 };
                assert_eq!(p.sample(x, y), want, "({x}, {y})");
            }
        }
        // Wholly outside: nothing written, nothing panics.
        p.recon_block8(2, 0, &[0; 64], &[0; 64]);
        p.recon_block8(0, 2, &[0; 64], &[0; 64]);
        assert_eq!(p.sample(9, 10), 101);
    }

    #[test]
    fn fill_block_clamped_matches_sample_clamped() {
        let mut p = Plane::filled(11, 7, 0);
        for (i, v) in p.data_mut().iter_mut().enumerate() {
            *v = (i * 37 % 251) as u8;
        }
        for (ox, oy) in [(0, 0), (-3, -2), (6, 2), (-40, 3), (40, -40), (3, 6)] {
            let mut out = [0u8; 64];
            p.fill_block_clamped(ox, oy, 8, &mut out);
            for dy in 0..8 {
                for dx in 0..8 {
                    let want = p.sample_clamped(ox + dx as i64, oy + dy as i64);
                    assert_eq!(out[dy * 8 + dx], want, "({ox}, {oy}) + ({dx}, {dy})");
                }
            }
        }
    }

    #[test]
    fn copy_from_reuses_the_buffers() {
        let src = Frame::filled(Resolution::new(32, 16), 1, 2, 3);
        let mut dst = Frame::grey(Resolution::new(32, 16));
        let ptr = dst.y().data().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(
            dst.y().data().as_ptr(),
            ptr,
            "same-size copy must not reallocate"
        );
        // A differently sized source is still copied faithfully.
        let small = Frame::filled(Resolution::new(16, 8), 7, 8, 9);
        dst.copy_from(&small);
        assert_eq!(dst, small);
    }

    #[test]
    fn sample_clamped_edges() {
        let mut p = Plane::filled(4, 4, 0);
        p.put(3, 3, 99);
        assert_eq!(p.sample_clamped(100, 100), 99);
        p.put(0, 0, 42);
        assert_eq!(p.sample_clamped(-5, -5), 42);
    }

    #[test]
    fn frame_filled_dimensions() {
        let f = Frame::grey(Resolution::new(32, 16));
        assert_eq!(f.y().width(), 32);
        assert_eq!(f.u().width(), 16);
        assert_eq!(f.v().height(), 8);
        assert_eq!(f.v().width(), 16);
    }

    #[test]
    fn resize_box_halves() {
        let r = Resolution::new(32, 32);
        let mut f = Frame::grey(r);
        for v in f.y_mut().data_mut().iter_mut() {
            *v = 100;
        }
        let small = f.resize(Resolution::new(16, 16));
        assert_eq!(small.y().width(), 16);
        assert!(small.y().data().iter().all(|&v| v == 100));
    }

    #[test]
    fn resize_box_preserves_mean_roughly() {
        let r = Resolution::new(64, 64);
        let mut f = Frame::grey(r);
        for (i, v) in f.y_mut().data_mut().iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        let mean_before = f.y().mean();
        let small = f.resize(Resolution::new(16, 16));
        let mean_after = small.y().mean();
        assert!((mean_before - mean_after).abs() < 8.0);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let f = Frame::grey(Resolution::new(16, 16));
        assert_eq!(f.psnr_luma(&f), f64::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let r = Resolution::new(16, 16);
        let a = Frame::grey(r);
        let mut b = a.clone();
        b.y_mut().data_mut()[0] = 0;
        let mut c = a.clone();
        for v in c.y_mut().data_mut().iter_mut() {
            *v = 0;
        }
        assert!(a.psnr_luma(&b) > a.psnr_luma(&c));
    }
}
