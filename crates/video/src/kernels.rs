//! Runtime-dispatched SIMD kernels for the codec hot loops.
//!
//! Every vectorized inner loop of the codec — macroblock SAD, the 8x8 DCT
//! pair, quantization, block reconstruction, squared-error accumulation and
//! 2x2 box downsampling —
//! lives here, and so does the one vectorized loop of the transport: the
//! GF(256) multiply-accumulate behind `sieve-net`'s FEC
//! ([`gf256_mul_acc`]). Dispatch happens in exactly one place. Each kernel
//! has three tiers:
//!
//! * a **scalar** reference in [`scalar`], written so the compiler can
//!   autovectorize it and so it is **bit-exact** with the SIMD tiers (same
//!   accumulation order, same rounding formula, no FMA contraction);
//! * an **SSE2** tier (the x86-64 baseline, always available there) for the
//!   integer kernels, where `psadbw`/`pmaddwd` are the big wins;
//! * an **AVX2** tier covering everything, selected at runtime with
//!   `is_x86_feature_detected!`.
//!
//! The active tier is resolved once and cached; `SIEVE_FORCE_SCALAR=1` in
//! the environment or building with `--cfg sieve_force_scalar` pins the
//! scalar tier (CI uses the cfg so the fallback cannot rot), and
//! [`force_scalar`] toggles it at runtime for benchmarks.
//!
//! # Bit-exactness contract
//!
//! Kernels that convert `f32` to `i32` round ties away from zero via
//! `trunc(x + copysign(0.5, x))` in *both* the scalar and SIMD tiers —
//! SSE/AVX only provide round-to-nearest-even or truncation in hardware, so
//! the shared formula is what makes the tiers agree. Inputs are expected in
//! codec range (|value| < 2^24); far outside it the saturation behaviour of
//! `as i32` (scalar) and `cvttps` (SIMD) may differ, which only corrupt
//! bitstreams can reach.

// lint:allow-file(no-unsafe): SIMD intrinsics are confined to this module by
// the workspace lint; every unsafe block is a feature-gated intrinsic call
// whose slice bounds are asserted by the safe dispatch wrappers above it.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set tier the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// Portable scalar fallback (also the non-x86 path).
    Scalar,
    /// SSE2 integer kernels (x86-64 baseline); float kernels stay scalar.
    Sse2,
    /// AVX2 for every kernel.
    Avx2,
}

impl std::fmt::Display for KernelLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelLevel::Scalar => write!(f, "scalar"),
            KernelLevel::Sse2 => write!(f, "sse2"),
            KernelLevel::Avx2 => write!(f, "avx2"),
        }
    }
}

const LEVEL_UNRESOLVED: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_SSE2: u8 = 2;
const LEVEL_AVX2: u8 = 3;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNRESOLVED);

fn detect() -> KernelLevel {
    if cfg!(sieve_force_scalar) {
        return KernelLevel::Scalar;
    }
    if std::env::var_os("SIEVE_FORCE_SCALAR").is_some_and(|v| v != "0") {
        return KernelLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            KernelLevel::Avx2
        } else {
            // SSE2 is part of the x86-64 baseline.
            KernelLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        KernelLevel::Scalar
    }
}

/// The tier the dispatcher is currently using.
pub fn active_level() -> KernelLevel {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_SCALAR => KernelLevel::Scalar,
        LEVEL_SSE2 => KernelLevel::Sse2,
        LEVEL_AVX2 => KernelLevel::Avx2,
        _ => {
            let level = detect();
            let raw = match level {
                KernelLevel::Scalar => LEVEL_SCALAR,
                KernelLevel::Sse2 => LEVEL_SSE2,
                KernelLevel::Avx2 => LEVEL_AVX2,
            };
            LEVEL.store(raw, Ordering::Relaxed);
            level
        }
    }
}

/// Pins the scalar tier (`true`) or re-runs detection (`false`). Meant for
/// benchmarks that measure both tiers in one process; tests compare against
/// [`scalar`] directly and do not need it.
pub fn force_scalar(on: bool) {
    if on {
        LEVEL.store(LEVEL_SCALAR, Ordering::Relaxed);
    } else {
        LEVEL.store(LEVEL_UNRESOLVED, Ordering::Relaxed);
        let _ = active_level();
    }
}

/// The two 8x8 DCT-II basis layouts the kernels need: `basis[k][n]` (the
/// orthonormal cosine basis) and its transpose `basis_t[n][k]`.
pub(crate) struct DctTables {
    pub basis: [[f32; 8]; 8],
    pub basis_t: [[f32; 8]; 8],
}

pub(crate) fn dct_tables() -> &'static DctTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<DctTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut basis = [[0f32; 8]; 8];
        for (k, row) in basis.iter_mut().enumerate() {
            let scale = if k == 0 {
                (1.0f32 / 8.0).sqrt()
            } else {
                (2.0f32 / 8.0).sqrt()
            };
            for (n, v) in row.iter_mut().enumerate() {
                *v = scale * ((std::f32::consts::PI / 8.0) * (n as f32 + 0.5) * k as f32).cos();
            }
        }
        let mut basis_t = [[0f32; 8]; 8];
        for k in 0..8 {
            for n in 0..8 {
                basis_t[n][k] = basis[k][n];
            }
        }
        DctTables { basis, basis_t }
    })
}

fn assert_block16(data: &[u8], stride: usize, what: &str) {
    assert!(stride >= 16, "{what}: stride {stride} below block width");
    assert!(
        data.len() >= 15 * stride + 16,
        "{what}: slice too short for a 16x16 block at stride {stride}"
    );
}

/// Sum of absolute differences over a 16x16 block. `cur` and `refp` start at
/// each block's top-left sample; rows advance by the respective stride.
///
/// # Panics
///
/// Panics if either slice cannot hold a 16x16 block at its stride.
pub fn sad16(cur: &[u8], cur_stride: usize, refp: &[u8], ref_stride: usize) -> u32 {
    assert_block16(cur, cur_stride, "sad16 cur");
    assert_block16(refp, ref_stride, "sad16 ref");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::sad16_avx2(cur, cur_stride, refp, ref_stride) },
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Sse2 => unsafe { x86::sad16_sse2(cur, cur_stride, refp, ref_stride) },
        _ => scalar::sad16(cur, cur_stride, refp, ref_stride),
    }
}

/// Sum of the 256 samples of a 16x16 block.
///
/// # Panics
///
/// Panics if the slice cannot hold a 16x16 block at `stride`.
pub fn sum16(cur: &[u8], stride: usize) -> u32 {
    sad16_const(cur, stride, 0)
}

/// Sum of absolute deviations of a 16x16 block from a constant `value` —
/// the intra texture cost once `value` is the block mean.
///
/// # Panics
///
/// Panics if the slice cannot hold a 16x16 block at `stride`.
pub fn sad16_const(cur: &[u8], stride: usize, value: u8) -> u32 {
    assert_block16(cur, stride, "sad16_const");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::sad16_const_avx2(cur, stride, value) },
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Sse2 => unsafe { x86::sad16_const_sse2(cur, stride, value) },
        _ => scalar::sad16_const(cur, stride, value),
    }
}

/// Forward 8x8 DCT-II of a row-major block.
pub fn dct8_forward(input: &[i32; 64], output: &mut [f32; 64]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::dct8_forward_avx2(input, output) },
        _ => scalar::dct8_forward(input, output),
    }
}

/// Inverse 8x8 DCT (DCT-III), rounding ties away from zero to integers.
pub fn dct8_inverse(input: &[f32; 64], output: &mut [i32; 64]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::dct8_inverse_avx2(input, output) },
        _ => scalar::dct8_inverse(input, output),
    }
}

/// Quantizes 64 DCT coefficients: `out[i] = round_ties_away(coeffs[i] / steps[i])`.
pub fn quantize64(coeffs: &[f32; 64], steps: &[f32; 64], out: &mut [i32; 64]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::quantize64_avx2(coeffs, steps, out) },
        _ => scalar::quantize64(coeffs, steps, out),
    }
}

/// Reconstructs 64 DCT coefficients from quantized levels:
/// `out[i] = levels[i] as f32 * steps[i]`.
pub fn dequantize64(levels: &[i32; 64], steps: &[f32; 64], out: &mut [f32; 64]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::dequantize64_avx2(levels, steps, out) },
        _ => scalar::dequantize64(levels, steps, out),
    }
}

/// Reconstructs one 8x8 block: `dst[r * stride + c] = pred[r * 8 + c] +
/// resid[r * 8 + c]`, saturated to `0..=255`. The residual is saturated to
/// `i16` first (`packssdw`), which cannot change a sum that is about to be
/// clamped to a byte, so the result is exact for every `i32` residual and
/// no intermediate can overflow. Eight samples are one 128-bit vector of
/// `i16`, so the AVX2 level runs the SSE2 code.
///
/// # Panics
///
/// Panics if `dst` cannot hold eight rows of eight samples at `stride`.
pub fn recon8x8(dst: &mut [u8], stride: usize, pred: &[u8; 64], resid: &[i32; 64]) {
    assert!(stride >= 8, "recon8x8: stride {stride} below block width");
    assert!(
        dst.len() >= 7 * stride + 8,
        "recon8x8: slice too short for an 8x8 block at stride {stride}"
    );
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline, and the asserts above are the
        // bounds `recon8x8_sse2` requires of `dst`.
        KernelLevel::Avx2 | KernelLevel::Sse2 => unsafe {
            x86::recon8x8_sse2(dst, stride, pred, resid)
        },
        _ => scalar::recon8x8(dst, stride, pred, resid),
    }
}

/// Sum of squared differences between two equal-length byte slices, exact in
/// `u64` (and therefore order-independent, so SIMD is trivially bit-exact).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sse_u8(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "sse_u8 requires equal lengths");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::sse_u8_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Sse2 => unsafe { x86::sse_u8_sse2(a, b) },
        _ => scalar::sse_u8(a, b),
    }
}

/// 2x2 box average of two parent rows into one child row:
/// `out[i] = ((top[2i] + top[2i+1]) + (bottom[2i] + bottom[2i+1])) * 0.25`.
///
/// # Panics
///
/// Panics unless `top.len() >= 2 * out.len()` and likewise for `bottom`.
pub fn avg2x2_f32(top: &[f32], bottom: &[f32], out: &mut [f32]) {
    assert!(top.len() >= 2 * out.len(), "avg2x2_f32: top row too short");
    assert!(
        bottom.len() >= 2 * out.len(),
        "avg2x2_f32: bottom row too short"
    );
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe { x86::avg2x2_f32_avx2(top, bottom, out) },
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Sse2 => unsafe { x86::avg2x2_f32_sse2(top, bottom, out) },
        _ => scalar::avg2x2_f32(top, bottom, out),
    }
}

/// Reduction polynomial of the FEC field: x^8 + x^4 + x^3 + x^2 + 1.
const GF256_POLY: u16 = 0x11d;

/// Carry-less shift-and-reduce product in GF(256). Only used to build
/// [`GF256_NIBBLES`] at compile time.
const fn gf256_mul_slow(a: u8, b: u8) -> u8 {
    let mut acc = 0u16;
    let mut a = a as u16;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= GF256_POLY;
        }
        b >>= 1;
    }
    acc as u8
}

/// Per coefficient `c`, two 16-entry product tables: bytes `0..16` hold
/// `c · n` and bytes `16..32` hold `c · (n << 4)` for every nibble `n`.
/// Multiplication distributes over XOR, so `c · s` is the XOR of one lookup
/// per nibble of `s` — which is exactly what one `pshufb` per table computes
/// for a whole vector of `s` at once.
static GF256_NIBBLES: [[u8; 32]; 256] = {
    let mut tables = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let mut n = 0;
        while n < 16 {
            tables[c][n] = gf256_mul_slow(c as u8, n as u8);
            tables[c][16 + n] = gf256_mul_slow(c as u8, (n as u8) << 4);
            n += 1;
        }
        c += 1;
    }
    tables
};

/// `dst[i] ^= c · src[i]` one byte at a time, branch-free, from `c`'s row of
/// [`GF256_NIBBLES`] — the whole scalar tier, and the SIMD tier's tail.
fn gf256_mul_acc_bytes(dst: &mut [u8], tables: &[u8; 32], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= tables[(s & 0x0f) as usize] ^ tables[16 + (s >> 4) as usize];
    }
}

/// Product of two GF(256) elements (polynomial `0x11d`) — the scalar
/// companion of [`gf256_mul_acc`], for coefficient-matrix arithmetic.
#[inline]
pub fn gf256_mul(a: u8, b: u8) -> u8 {
    let t = &GF256_NIBBLES[a as usize];
    t[(b & 0x0f) as usize] ^ t[16 + (b >> 4) as usize]
}

/// `dst[i] ^= c · src[i]` over GF(256) — the multiply-accumulate every FEC
/// encode and recovery is made of. Exact field arithmetic, so every tier
/// produces the same bytes.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn gf256_mul_acc(dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "gf256_mul_acc requires equal lengths");
    if c == 0 {
        return;
    }
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => unsafe {
            x86::gf256_mul_acc_avx2(dst, &GF256_NIBBLES[c as usize], src)
        },
        // `pshufb` is SSSE3, above the SSE2 baseline: that tier stays bytewise.
        _ => scalar::gf256_mul_acc(dst, c, src),
    }
}

/// The scalar reference tier. Public so tests and benchmarks can pin it
/// regardless of the dispatcher's cached level.
pub mod scalar {
    use super::{dct_tables, gf256_mul_acc_bytes, GF256_NIBBLES};

    /// Rounds ties away from zero — the formula both tiers share (see the
    /// module docs).
    #[inline]
    pub(crate) fn round_ties_away(x: f32) -> i32 {
        (x + f32::copysign(0.5, x)) as i32
    }

    /// Scalar [`super::sad16`].
    pub fn sad16(cur: &[u8], cur_stride: usize, refp: &[u8], ref_stride: usize) -> u32 {
        let mut acc = 0u32;
        for dy in 0..16 {
            let crow = &cur[dy * cur_stride..dy * cur_stride + 16];
            let rrow = &refp[dy * ref_stride..dy * ref_stride + 16];
            for (c, r) in crow.iter().zip(rrow) {
                acc += (*c as i32 - *r as i32).unsigned_abs();
            }
        }
        acc
    }

    /// Scalar [`super::sad16_const`].
    pub fn sad16_const(cur: &[u8], stride: usize, value: u8) -> u32 {
        let mut acc = 0u32;
        for dy in 0..16 {
            let crow = &cur[dy * stride..dy * stride + 16];
            for c in crow {
                acc += (*c as i32 - value as i32).unsigned_abs();
            }
        }
        acc
    }

    /// Scalar [`super::sum16`].
    pub fn sum16(cur: &[u8], stride: usize) -> u32 {
        sad16_const(cur, stride, 0)
    }

    /// Scalar [`super::dct8_forward`]. Per output coefficient the eight
    /// products accumulate in `n` order, matching the SIMD lanes.
    pub fn dct8_forward(input: &[i32; 64], output: &mut [f32; 64]) {
        let b = &dct_tables().basis;
        let mut tmp = [0f32; 64];
        // Rows.
        for y in 0..8 {
            for k in 0..8 {
                let mut acc = 0f32;
                for n in 0..8 {
                    acc += input[y * 8 + n] as f32 * b[k][n];
                }
                tmp[y * 8 + k] = acc;
            }
        }
        // Columns.
        for x in 0..8 {
            for k in 0..8 {
                let mut acc = 0f32;
                for n in 0..8 {
                    acc += tmp[n * 8 + x] * b[k][n];
                }
                output[k * 8 + x] = acc;
            }
        }
    }

    /// Scalar [`super::dct8_inverse`].
    pub fn dct8_inverse(input: &[f32; 64], output: &mut [i32; 64]) {
        let b = &dct_tables().basis;
        let mut tmp = [0f32; 64];
        // Columns.
        for x in 0..8 {
            for n in 0..8 {
                let mut acc = 0f32;
                for k in 0..8 {
                    acc += input[k * 8 + x] * b[k][n];
                }
                tmp[n * 8 + x] = acc;
            }
        }
        // Rows.
        for y in 0..8 {
            for n in 0..8 {
                let mut acc = 0f32;
                for k in 0..8 {
                    acc += tmp[y * 8 + k] * b[k][n];
                }
                output[y * 8 + n] = round_ties_away(acc);
            }
        }
    }

    /// Scalar [`super::quantize64`].
    pub fn quantize64(coeffs: &[f32; 64], steps: &[f32; 64], out: &mut [i32; 64]) {
        for i in 0..64 {
            out[i] = round_ties_away(coeffs[i] / steps[i]);
        }
    }

    /// Scalar [`super::dequantize64`].
    pub fn dequantize64(levels: &[i32; 64], steps: &[f32; 64], out: &mut [f32; 64]) {
        for i in 0..64 {
            out[i] = levels[i] as f32 * steps[i];
        }
    }

    /// Scalar [`super::recon8x8`]: the same saturate-then-add as the SIMD
    /// tier, one sample at a time.
    pub fn recon8x8(dst: &mut [u8], stride: usize, pred: &[u8; 64], resid: &[i32; 64]) {
        for (y, (p, r)) in pred.chunks_exact(8).zip(resid.chunks_exact(8)).enumerate() {
            let row = &mut dst[y * stride..][..8];
            for ((d, &p), &r) in row.iter_mut().zip(p).zip(r) {
                let r = r.clamp(i16::MIN as i32, i16::MAX as i32);
                *d = (p as i32 + r).clamp(0, 255) as u8;
            }
        }
    }

    /// Scalar [`super::sse_u8`].
    pub fn sse_u8(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x as i64 - y as i64;
                (d * d) as u64
            })
            .sum()
    }

    /// Scalar [`super::avg2x2_f32`]. The `(top pair) + (bottom pair)` order
    /// matches the SIMD horizontal adds.
    pub fn avg2x2_f32(top: &[f32], bottom: &[f32], out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = ((top[2 * i] + top[2 * i + 1]) + (bottom[2 * i] + bottom[2 * i + 1])) * 0.25;
        }
    }

    /// Scalar [`super::gf256_mul_acc`]: the same two nibble tables the SIMD
    /// tier shuffles through, one byte at a time and branch-free.
    pub fn gf256_mul_acc(dst: &mut [u8], c: u8, src: &[u8]) {
        gf256_mul_acc_bytes(dst, &GF256_NIBBLES[c as usize], src);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2/AVX2 implementations. Callers (the dispatch wrappers) assert
    //! slice bounds; the `unsafe` here is the intrinsics themselves plus
    //! raw row loads inside those asserted bounds.

    use super::{dct_tables, gf256_mul_acc_bytes};
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller asserts both slices hold a 16x16 block at their strides.
    pub unsafe fn sad16_sse2(cur: &[u8], cur_stride: usize, refp: &[u8], ref_stride: usize) -> u32 {
        unsafe {
            let mut acc = _mm_setzero_si128();
            for dy in 0..16 {
                let c = _mm_loadu_si128(cur.as_ptr().add(dy * cur_stride) as *const __m128i);
                let r = _mm_loadu_si128(refp.as_ptr().add(dy * ref_stride) as *const __m128i);
                acc = _mm_add_epi64(acc, _mm_sad_epu8(c, r));
            }
            let hi = _mm_unpackhi_epi64(acc, acc);
            _mm_cvtsi128_si64(_mm_add_epi64(acc, hi)) as u32
        }
    }

    /// # Safety
    /// Caller asserts bounds; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sad16_avx2(cur: &[u8], cur_stride: usize, refp: &[u8], ref_stride: usize) -> u32 {
        unsafe {
            let mut acc = _mm256_setzero_si256();
            for dy in (0..16).step_by(2) {
                let c0 = _mm_loadu_si128(cur.as_ptr().add(dy * cur_stride) as *const __m128i);
                let c1 = _mm_loadu_si128(cur.as_ptr().add((dy + 1) * cur_stride) as *const __m128i);
                let r0 = _mm_loadu_si128(refp.as_ptr().add(dy * ref_stride) as *const __m128i);
                let r1 =
                    _mm_loadu_si128(refp.as_ptr().add((dy + 1) * ref_stride) as *const __m128i);
                let c = _mm256_inserti128_si256(_mm256_castsi128_si256(c0), c1, 1);
                let r = _mm256_inserti128_si256(_mm256_castsi128_si256(r0), r1, 1);
                acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, r));
            }
            let s = _mm_add_epi64(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256(acc, 1),
            );
            _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s))) as u32
        }
    }

    /// # Safety
    /// Caller asserts bounds.
    pub unsafe fn sad16_const_sse2(cur: &[u8], stride: usize, value: u8) -> u32 {
        unsafe {
            let k = _mm_set1_epi8(value as i8);
            let mut acc = _mm_setzero_si128();
            for dy in 0..16 {
                let c = _mm_loadu_si128(cur.as_ptr().add(dy * stride) as *const __m128i);
                acc = _mm_add_epi64(acc, _mm_sad_epu8(c, k));
            }
            let hi = _mm_unpackhi_epi64(acc, acc);
            _mm_cvtsi128_si64(_mm_add_epi64(acc, hi)) as u32
        }
    }

    /// # Safety
    /// Caller asserts bounds; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sad16_const_avx2(cur: &[u8], stride: usize, value: u8) -> u32 {
        unsafe {
            let k = _mm256_set1_epi8(value as i8);
            let mut acc = _mm256_setzero_si256();
            for dy in (0..16).step_by(2) {
                let c0 = _mm_loadu_si128(cur.as_ptr().add(dy * stride) as *const __m128i);
                let c1 = _mm_loadu_si128(cur.as_ptr().add((dy + 1) * stride) as *const __m128i);
                let c = _mm256_inserti128_si256(_mm256_castsi128_si256(c0), c1, 1);
                acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, k));
            }
            let s = _mm_add_epi64(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256(acc, 1),
            );
            _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s))) as u32
        }
    }

    /// Rounds ties away from zero: `cvttps(x | copysign(0.5, x))`-style,
    /// the same formula as `scalar::round_ties_away`.
    ///
    /// # Safety
    /// Requires AVX2 (AVX really; gated with the callers).
    #[target_feature(enable = "avx2")]
    unsafe fn round_ties_away_ps(x: __m256) -> __m256i {
        let sign_mask = _mm256_set1_ps(-0.0);
        let half = _mm256_or_ps(_mm256_and_ps(x, sign_mask), _mm256_set1_ps(0.5));
        _mm256_cvttps_epi32(_mm256_add_ps(x, half))
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dct8_forward_avx2(input: &[i32; 64], output: &mut [f32; 64]) {
        unsafe {
            let t = dct_tables();
            let mut tmp = [0f32; 64];
            // Rows: for each input row y, all eight coefficients k at once;
            // products accumulate in n order, like the scalar tier.
            for y in 0..8 {
                let mut acc = _mm256_setzero_ps();
                for n in 0..8 {
                    let v = _mm256_set1_ps(input[y * 8 + n] as f32);
                    let bt = _mm256_loadu_ps(t.basis_t[n].as_ptr());
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(v, bt));
                }
                _mm256_storeu_ps(tmp.as_mut_ptr().add(y * 8), acc);
            }
            // Columns: for each coefficient row k, all eight columns x at once.
            for k in 0..8 {
                let mut acc = _mm256_setzero_ps();
                for n in 0..8 {
                    let row = _mm256_loadu_ps(tmp.as_ptr().add(n * 8));
                    let b = _mm256_set1_ps(t.basis[k][n]);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(row, b));
                }
                _mm256_storeu_ps(output.as_mut_ptr().add(k * 8), acc);
            }
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dct8_inverse_avx2(input: &[f32; 64], output: &mut [i32; 64]) {
        unsafe {
            let t = dct_tables();
            let mut tmp = [0f32; 64];
            // Columns: for each spatial row n, all eight columns x at once;
            // products accumulate in k order, like the scalar tier.
            for n in 0..8 {
                let mut acc = _mm256_setzero_ps();
                for k in 0..8 {
                    let row = _mm256_loadu_ps(input.as_ptr().add(k * 8));
                    let b = _mm256_set1_ps(t.basis[k][n]);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(row, b));
                }
                _mm256_storeu_ps(tmp.as_mut_ptr().add(n * 8), acc);
            }
            // Rows: for each output row y, all eight samples n at once.
            for y in 0..8 {
                let mut acc = _mm256_setzero_ps();
                for k in 0..8 {
                    let v = _mm256_set1_ps(tmp[y * 8 + k]);
                    let b = _mm256_loadu_ps(t.basis[k].as_ptr());
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(v, b));
                }
                let rounded = round_ties_away_ps(acc);
                _mm256_storeu_si256(output.as_mut_ptr().add(y * 8) as *mut __m256i, rounded);
            }
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize64_avx2(coeffs: &[f32; 64], steps: &[f32; 64], out: &mut [i32; 64]) {
        unsafe {
            for i in (0..64).step_by(8) {
                let c = _mm256_loadu_ps(coeffs.as_ptr().add(i));
                let s = _mm256_loadu_ps(steps.as_ptr().add(i));
                let q = round_ties_away_ps(_mm256_div_ps(c, s));
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, q);
            }
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dequantize64_avx2(levels: &[i32; 64], steps: &[f32; 64], out: &mut [f32; 64]) {
        unsafe {
            for i in (0..64).step_by(8) {
                let l = _mm256_loadu_si256(levels.as_ptr().add(i) as *const __m256i);
                let s = _mm256_loadu_ps(steps.as_ptr().add(i));
                let d = _mm256_mul_ps(_mm256_cvtepi32_ps(l), s);
                _mm256_storeu_ps(out.as_mut_ptr().add(i), d);
            }
        }
    }

    /// # Safety
    /// Caller asserts `dst` holds eight rows of eight samples at `stride`.
    pub unsafe fn recon8x8_sse2(dst: &mut [u8], stride: usize, pred: &[u8; 64], resid: &[i32; 64]) {
        // SAFETY: every row reads 8 i32 of `resid` and 8 bytes of `pred`
        // (both 64 long) and stores 8 bytes at `dst[y * stride..]`, inside
        // the `7 * stride + 8` bytes the caller asserted.
        unsafe {
            let zero = _mm_setzero_si128();
            for y in 0..8 {
                let lo = _mm_loadu_si128(resid.as_ptr().add(y * 8) as *const __m128i);
                let hi = _mm_loadu_si128(resid.as_ptr().add(y * 8 + 4) as *const __m128i);
                let r = _mm_packs_epi32(lo, hi);
                let p = _mm_loadl_epi64(pred.as_ptr().add(y * 8) as *const __m128i);
                let sum = _mm_adds_epi16(_mm_unpacklo_epi8(p, zero), r);
                let out = _mm_packus_epi16(sum, sum);
                _mm_storel_epi64(dst.as_mut_ptr().add(y * stride) as *mut __m128i, out);
            }
        }
    }

    /// Flushes four i32 lanes into a u64 accumulator.
    ///
    /// # Safety
    /// Plain SSE2.
    unsafe fn hsum_epi32_sse2(v: __m128i) -> u64 {
        unsafe {
            let mut lanes = [0i32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v);
            lanes.iter().map(|&l| l as u64).sum()
        }
    }

    /// # Safety
    /// Caller asserts equal lengths.
    pub unsafe fn sse_u8_sse2(a: &[u8], b: &[u8]) -> u64 {
        unsafe {
            let mut total = 0u64;
            let zero = _mm_setzero_si128();
            let chunks = a.len() / 16;
            let mut acc = _mm_setzero_si128();
            for i in 0..chunks {
                let av = _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i);
                let bv = _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i);
                let alo = _mm_unpacklo_epi8(av, zero);
                let ahi = _mm_unpackhi_epi8(av, zero);
                let blo = _mm_unpacklo_epi8(bv, zero);
                let bhi = _mm_unpackhi_epi8(bv, zero);
                let dlo = _mm_sub_epi16(alo, blo);
                let dhi = _mm_sub_epi16(ahi, bhi);
                acc = _mm_add_epi32(acc, _mm_madd_epi16(dlo, dlo));
                acc = _mm_add_epi32(acc, _mm_madd_epi16(dhi, dhi));
                // Each chunk adds at most 8 * 255^2 per i32 lane; flush well
                // before any lane can reach i32::MAX.
                if i % 4096 == 4095 {
                    total += hsum_epi32_sse2(acc);
                    acc = _mm_setzero_si128();
                }
            }
            total += hsum_epi32_sse2(acc);
            for i in chunks * 16..a.len() {
                let d = a[i] as i64 - b[i] as i64;
                total += (d * d) as u64;
            }
            total
        }
    }

    /// # Safety
    /// Caller asserts equal lengths; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sse_u8_avx2(a: &[u8], b: &[u8]) -> u64 {
        unsafe {
            let mut total = 0u64;
            let chunks = a.len() / 16;
            let mut acc = _mm256_setzero_si256();
            for i in 0..chunks {
                let av = _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i);
                let bv = _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i);
                let aw = _mm256_cvtepu8_epi16(av);
                let bw = _mm256_cvtepu8_epi16(bv);
                let d = _mm256_sub_epi16(aw, bw);
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
                // At most 2 * 255^2 per i32 lane per chunk.
                if i % 8192 == 8191 {
                    total += hsum_epi32_avx2(acc);
                    acc = _mm256_setzero_si256();
                }
            }
            total += hsum_epi32_avx2(acc);
            for i in chunks * 16..a.len() {
                let d = a[i] as i64 - b[i] as i64;
                total += (d * d) as u64;
            }
            total
        }
    }

    /// Flushes eight i32 lanes into a u64 accumulator.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32_avx2(v: __m256i) -> u64 {
        unsafe {
            let mut lanes = [0i32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
            lanes.iter().map(|&l| l as u64).sum()
        }
    }

    /// # Safety
    /// Caller asserts row lengths.
    pub unsafe fn avg2x2_f32_sse2(top: &[f32], bottom: &[f32], out: &mut [f32]) {
        unsafe {
            let quarter = _mm_set1_ps(0.25);
            let chunks = out.len() / 4;
            for i in 0..chunks {
                let t0 = _mm_loadu_ps(top.as_ptr().add(i * 8));
                let t1 = _mm_loadu_ps(top.as_ptr().add(i * 8 + 4));
                let b0 = _mm_loadu_ps(bottom.as_ptr().add(i * 8));
                let b1 = _mm_loadu_ps(bottom.as_ptr().add(i * 8 + 4));
                // Gather even/odd lanes so each output is (even + odd), the
                // same left-to-right pair order as the scalar tier.
                let te = _mm_shuffle_ps(t0, t1, 0b10_00_10_00);
                let to = _mm_shuffle_ps(t0, t1, 0b11_01_11_01);
                let be = _mm_shuffle_ps(b0, b1, 0b10_00_10_00);
                let bo = _mm_shuffle_ps(b0, b1, 0b11_01_11_01);
                let s = _mm_add_ps(_mm_add_ps(te, to), _mm_add_ps(be, bo));
                _mm_storeu_ps(out.as_mut_ptr().add(i * 4), _mm_mul_ps(s, quarter));
            }
            for i in chunks * 4..out.len() {
                out[i] =
                    ((top[2 * i] + top[2 * i + 1]) + (bottom[2 * i] + bottom[2 * i + 1])) * 0.25;
            }
        }
    }

    /// # Safety
    /// Caller asserts row lengths; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn avg2x2_f32_avx2(top: &[f32], bottom: &[f32], out: &mut [f32]) {
        unsafe {
            let quarter = _mm256_set1_ps(0.25);
            // hadd interleaves 128-bit halves; this permutation restores
            // left-to-right pair order.
            let fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
            let chunks = out.len() / 8;
            for i in 0..chunks {
                let t0 = _mm256_loadu_ps(top.as_ptr().add(i * 16));
                let t1 = _mm256_loadu_ps(top.as_ptr().add(i * 16 + 8));
                let b0 = _mm256_loadu_ps(bottom.as_ptr().add(i * 16));
                let b1 = _mm256_loadu_ps(bottom.as_ptr().add(i * 16 + 8));
                let th = _mm256_permutevar8x32_ps(_mm256_hadd_ps(t0, t1), fix);
                let bh = _mm256_permutevar8x32_ps(_mm256_hadd_ps(b0, b1), fix);
                let s = _mm256_add_ps(th, bh);
                _mm256_storeu_ps(out.as_mut_ptr().add(i * 8), _mm256_mul_ps(s, quarter));
            }
            for i in chunks * 8..out.len() {
                out[i] =
                    ((top[2 * i] + top[2 * i + 1]) + (bottom[2 * i] + bottom[2 * i + 1])) * 0.25;
            }
        }
    }

    /// `tables` is one row of `GF256_NIBBLES`: low-nibble products, then
    /// high-nibble products.
    ///
    /// # Safety
    /// Caller asserts equal lengths; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gf256_mul_acc_avx2(dst: &mut [u8], tables: &[u8; 32], src: &[u8]) {
        unsafe {
            let lo128 = _mm_loadu_si128(tables.as_ptr() as *const __m128i);
            let hi128 = _mm_loadu_si128(tables.as_ptr().add(16) as *const __m128i);
            let lo = _mm256_broadcastsi128_si256(lo128);
            let hi = _mm256_broadcastsi128_si256(hi128);
            let mask = _mm256_set1_epi8(0x0f);
            let n = dst.len();
            let mut i = 0;
            while i + 32 <= n {
                let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
                let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
                let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
                let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
                let out = _mm256_xor_si256(d, _mm256_xor_si256(l, h));
                _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, out);
                i += 32;
            }
            if i + 16 <= n {
                let mask = _mm256_castsi256_si128(mask);
                let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
                let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
                let l = _mm_shuffle_epi8(lo128, _mm_and_si128(s, mask));
                let h = _mm_shuffle_epi8(hi128, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
                let out = _mm_xor_si128(d, _mm_xor_si128(l, h));
                _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, out);
                i += 16;
            }
            gf256_mul_acc_bytes(&mut dst[i..], tables, &src[i..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_block(seed: u32) -> Vec<u8> {
        (0..16 * 20)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 13) as u8)
            .collect()
    }

    #[test]
    fn dispatched_sad16_matches_scalar() {
        let a = pattern_block(1);
        let b = pattern_block(99);
        // Distinct strides exercise the two-stride contract.
        assert_eq!(sad16(&a, 16, &b, 18), scalar::sad16(&a, 16, &b, 18));
    }

    #[test]
    fn dispatched_sad16_const_matches_scalar() {
        let a = pattern_block(7);
        for v in [0u8, 1, 127, 200, 255] {
            assert_eq!(sad16_const(&a, 17, v), scalar::sad16_const(&a, 17, v));
        }
    }

    #[test]
    fn dispatched_dct_pair_matches_scalar_bitwise() {
        let mut input = [0i32; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i as i32 * 37) % 256) - 128;
        }
        let (mut f_d, mut f_s) = ([0f32; 64], [0f32; 64]);
        dct8_forward(&input, &mut f_d);
        scalar::dct8_forward(&input, &mut f_s);
        assert_eq!(f_d.map(f32::to_bits), f_s.map(f32::to_bits));
        let (mut i_d, mut i_s) = ([0i32; 64], [0i32; 64]);
        dct8_inverse(&f_d, &mut i_d);
        scalar::dct8_inverse(&f_s, &mut i_s);
        assert_eq!(i_d, i_s);
    }

    #[test]
    fn dispatched_quant_pair_matches_scalar() {
        let mut coeffs = [0f32; 64];
        let mut steps = [0f32; 64];
        for i in 0..64 {
            coeffs[i] = (i as f32 - 31.5) * 13.7;
            steps[i] = 1.0 + (i % 17) as f32;
        }
        let (mut q_d, mut q_s) = ([0i32; 64], [0i32; 64]);
        quantize64(&coeffs, &steps, &mut q_d);
        scalar::quantize64(&coeffs, &steps, &mut q_s);
        assert_eq!(q_d, q_s);
        let (mut d_d, mut d_s) = ([0f32; 64], [0f32; 64]);
        dequantize64(&q_d, &steps, &mut d_d);
        scalar::dequantize64(&q_s, &steps, &mut d_s);
        assert_eq!(d_d.map(f32::to_bits), d_s.map(f32::to_bits));
    }

    #[test]
    fn dispatched_recon8x8_matches_scalar_and_saturates() {
        let pred: [u8; 64] = std::array::from_fn(|i| (i * 37 % 256) as u8);
        let extremes = [
            i32::MIN,
            -32769,
            -32768,
            -256,
            -1,
            0,
            1,
            255,
            32767,
            32768,
            i32::MAX,
        ];
        let resid: [i32; 64] =
            std::array::from_fn(|i| extremes[i % extremes.len()] / (1 + i as i32 / 22));
        for stride in [8usize, 11, 32] {
            let mut d = vec![7u8; 7 * stride + 8];
            let mut s = d.clone();
            recon8x8(&mut d, stride, &pred, &resid);
            scalar::recon8x8(&mut s, stride, &pred, &resid);
            assert_eq!(d, s, "stride {stride}");
            for i in 0..64 {
                let want = (pred[i] as i64 + resid[i] as i64).clamp(0, 255) as u8;
                assert_eq!(d[i / 8 * stride + i % 8], want, "sample {i}");
            }
            // Bytes between rows are not the kernel's to touch.
            for (i, &v) in d.iter().enumerate() {
                assert!(
                    i % stride < 8 || v == 7,
                    "stride {stride}: byte {i} clobbered"
                );
            }
        }
    }

    #[test]
    fn dispatched_sse_u8_matches_scalar_all_tail_lengths() {
        let a = pattern_block(3);
        let b = pattern_block(44);
        for len in [0, 1, 15, 16, 17, 64, 255, 320] {
            assert_eq!(
                sse_u8(&a[..len], &b[..len]),
                scalar::sse_u8(&a[..len], &b[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn dispatched_avg2x2_matches_scalar_bitwise() {
        let top: Vec<f32> = (0..66).map(|i| (i as f32) * 0.37 + 0.1).collect();
        let bottom: Vec<f32> = (0..66).map(|i| (i as f32) * -0.53 + 7.0).collect();
        for w in [1usize, 3, 4, 8, 9, 16, 33] {
            let mut d = vec![0f32; w];
            let mut s = vec![0f32; w];
            avg2x2_f32(&top, &bottom, &mut d);
            scalar::avg2x2_f32(&top, &bottom, &mut s);
            let db: Vec<u32> = d.iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
            assert_eq!(db, sb, "width {w}");
        }
    }

    #[test]
    fn gf256_mul_is_the_0x11d_field() {
        // x · x^7 wraps through the reduction polynomial.
        assert_eq!(gf256_mul(2, 0x80), 0x1d);
        for a in 0..=255u8 {
            assert_eq!(gf256_mul(a, 1), a);
            assert_eq!(gf256_mul(1, a), a);
            assert_eq!(gf256_mul(a, 0), 0);
            assert_eq!(gf256_mul(a, 0x53), gf256_mul(0x53, a), "commutes at {a}");
        }
    }

    #[test]
    fn dispatched_gf256_mul_acc_matches_scalar_all_tail_lengths() {
        let src = pattern_block(5);
        let base = pattern_block(77);
        for c in [0u8, 1, 2, 0x1d, 0x8e, 255] {
            for len in [0, 1, 15, 16, 17, 31, 32, 33, 48, 63, 100, 320] {
                let mut d = base[..len].to_vec();
                let mut s = base[..len].to_vec();
                gf256_mul_acc(&mut d, c, &src[..len]);
                scalar::gf256_mul_acc(&mut s, c, &src[..len]);
                assert_eq!(d, s, "c {c} len {len}");
                let by_byte: Vec<u8> = base[..len]
                    .iter()
                    .zip(&src[..len])
                    .map(|(b, x)| b ^ gf256_mul(c, *x))
                    .collect();
                assert_eq!(d, by_byte, "c {c} len {len}");
            }
        }
    }

    #[test]
    fn round_ties_away_from_zero() {
        assert_eq!(scalar::round_ties_away(2.5), 3);
        assert_eq!(scalar::round_ties_away(-2.5), -3);
        assert_eq!(scalar::round_ties_away(2.4), 2);
        assert_eq!(scalar::round_ties_away(-2.4), -2);
        assert_eq!(scalar::round_ties_away(0.0), 0);
    }

    #[test]
    fn force_scalar_toggles_level() {
        let initial = active_level();
        force_scalar(true);
        assert_eq!(active_level(), KernelLevel::Scalar);
        force_scalar(false);
        assert_eq!(active_level(), initial);
    }

    #[test]
    fn level_display_names() {
        assert_eq!(KernelLevel::Scalar.to_string(), "scalar");
        assert_eq!(KernelLevel::Sse2.to_string(), "sse2");
        assert_eq!(KernelLevel::Avx2.to_string(), "avx2");
    }
}
