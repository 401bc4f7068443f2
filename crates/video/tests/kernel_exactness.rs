//! Bit-exactness of the dispatched SIMD kernels against the scalar
//! reference tier, over random inputs.
//!
//! Every property compares `sieve_video::kernels::<f>` (whatever tier the
//! host dispatches to — AVX2 on CI) against `kernels::scalar::<f>` on the
//! same input and requires exact equality: same integers, same float bit
//! patterns. On a host without AVX2 the dispatched tier degrades towards
//! scalar and the properties hold trivially; CI's x86 runners exercise the
//! real comparison.
//!
//! `recon8x8` (the reconstruction step the decoder and the encoder's closed
//! loop share) is additionally held to the per-sample widen-add-clamp it
//! replaced, over the whole `i32` residual range.
//!
//! `gf256_mul_acc` (the FEC multiply-accumulate `sieve-net` runs) is
//! additionally held to the log/exp-table implementation it replaced, kept
//! here as the reference.
//!
//! `sad16_candidates` (motion search's batched SAD, which holds the current
//! block across its candidates) is held to `scalar::sad16` at every tier
//! the host runs, not only the dispatched one.
//!
//! The final properties cover the codec-facing wrappers whose edge
//! handling reads edge-padded planes: `motion::sad_mb` and
//! `intra_cost_mb`, against per-sample clamped references, on planes of
//! odd dimensions with overhanging motion vectors.

use proptest::prelude::*;
use sieve_video::kernels::{self, scalar, KernelLevel};
use sieve_video::motion::{self, MotionVector, MB};
use sieve_video::Plane;

/// Deterministic pseudo-random byte buffer from a proptest-chosen seed —
/// cheaper than generating 1000+ element vectors through the strategy.
fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

fn block_i32(seed: u64, amplitude: i32) -> [i32; 64] {
    let raw = bytes(128, seed);
    std::array::from_fn(|i| {
        let v = (raw[2 * i] as i32) << 8 | raw[2 * i + 1] as i32;
        v % (amplitude + 1) * if raw[2 * i] & 1 == 0 { 1 } else { -1 }
    })
}

/// `dst ^= c · src` over GF(256)/0x11d through log/exp tables with a
/// zero-test per byte — what `sieve-net`'s FEC ran before the kernel.
fn gf256_mul_acc_log_exp(dst: &mut [u8], c: u8, src: &[u8]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    for (i, e) in exp.iter_mut().enumerate().take(255) {
        *e = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
    }
    for i in 255..512 {
        exp[i] = exp[i - 255];
    }
    if c == 0 {
        return;
    }
    let lc = log[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= exp[lc + log[*s as usize] as usize];
        }
    }
}

/// Every coefficient, at the fragment length the uplink ships (1172 =
/// 36 × 32 + 16 + 4: vector body, half-vector step and byte tail).
#[test]
fn gf256_mul_acc_matches_log_exp_for_every_coefficient() {
    let src = bytes(1172, 0xFEC);
    let base = bytes(1172, 0xACC);
    for c in 0..=255u8 {
        let mut active = base.clone();
        let mut portable = base.clone();
        let mut reference = base.clone();
        kernels::gf256_mul_acc(&mut active, c, &src);
        scalar::gf256_mul_acc(&mut portable, c, &src);
        gf256_mul_acc_log_exp(&mut reference, c, &src);
        assert_eq!(active, reference, "active tier, c = {c}");
        assert_eq!(portable, reference, "scalar tier, c = {c}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lengths off the 32-byte vector width and sub-slices off any
    /// alignment: both operands start at independent odd offsets.
    #[test]
    fn gf256_mul_acc_matches_scalar_and_log_exp(
        seed in 0u64..1 << 48,
        c in 0u8..=255,
        len in 0usize..=1300,
        dst_off in 0usize..32,
        src_off in 0usize..32,
    ) {
        let src = bytes(src_off + len, seed);
        let base = bytes(dst_off + len, seed ^ 0x6F25);
        let mut active = base.clone();
        let mut portable = base.clone();
        let mut reference = base.clone();
        kernels::gf256_mul_acc(&mut active[dst_off..], c, &src[src_off..]);
        scalar::gf256_mul_acc(&mut portable[dst_off..], c, &src[src_off..]);
        gf256_mul_acc_log_exp(&mut reference[dst_off..], c, &src[src_off..]);
        prop_assert_eq!(&active, &reference);
        prop_assert_eq!(&portable, &reference);
    }

    #[test]
    fn sad16_matches_scalar(seed in 0u64..1 << 48, cur_stride in 16usize..40, ref_stride in 16usize..40) {
        let cur = bytes(cur_stride * 16, seed);
        let refp = bytes(ref_stride * 16, seed ^ 0xDEAD);
        prop_assert_eq!(
            kernels::sad16(&cur, cur_stride, &refp, ref_stride),
            scalar::sad16(&cur, cur_stride, &refp, ref_stride)
        );
    }

    /// The batched search kernel holds the current block across up to nine
    /// candidates (and none); every tier the host runs, the dispatched one
    /// included, must give each candidate `scalar::sad16`.
    #[test]
    fn sad16_candidates_matches_scalar_at_every_tier(
        seed in 0u64..1 << 48,
        cur_stride in 16usize..40,
        ref_stride in 16usize..60,
        rows in 16usize..40,
        n in 0usize..=9,
        saturated in 0u8..2,
    ) {
        let mut cur = bytes(cur_stride * 16, seed);
        let mut refp = bytes(ref_stride * rows, seed ^ 0xBEEF);
        if saturated == 1 {
            // Every current sample above every reference sample: sums
            // towards the 256 × 255 maximum.
            cur.iter_mut().for_each(|v| *v |= 0x80);
            refp.iter_mut().for_each(|v| *v &= 0x7F);
        }
        let last = (rows - 16) * ref_stride + ref_stride - 16;
        let offsets: Vec<usize> = bytes(8 * n, seed ^ 0x0FF5)
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize % (last + 1))
            .collect();
        let want: Vec<u32> = offsets
            .iter()
            .map(|&o| scalar::sad16(&cur, cur_stride, &refp[o..], ref_stride))
            .collect();
        for level in KernelLevel::ALL.into_iter().filter(|l| l.is_supported()) {
            let mut got = vec![u32::MAX; n];
            kernels::sad16_candidates_at(level, &cur, cur_stride, &refp, ref_stride, &offsets, &mut got);
            prop_assert_eq!(&got, &want, "{} tier", level);
        }
        let mut got = vec![u32::MAX; n];
        kernels::sad16_candidates(&cur, cur_stride, &refp, ref_stride, &offsets, &mut got);
        prop_assert_eq!(&got, &want, "dispatched");
    }

    #[test]
    fn sum16_and_sad16_const_match_scalar(seed in 0u64..1 << 48, stride in 16usize..40, value in 0u8..=255) {
        let cur = bytes(stride * 16, seed);
        prop_assert_eq!(kernels::sum16(&cur, stride), scalar::sum16(&cur, stride));
        prop_assert_eq!(
            kernels::sad16_const(&cur, stride, value),
            scalar::sad16_const(&cur, stride, value)
        );
    }

    /// Forward DCT over the full residual range the codec produces
    /// (|residual| <= 255 after prediction, but test beyond it up to the
    /// |v| < 2^24 domain contract).
    #[test]
    fn dct8_forward_matches_scalar(seed in 0u64..1 << 48, amplitude in 1i32..(1 << 23)) {
        let input = block_i32(seed, amplitude);
        let mut simd = [0f32; 64];
        let mut reference = [0f32; 64];
        kernels::dct8_forward(&input, &mut simd);
        scalar::dct8_forward(&input, &mut reference);
        prop_assert_eq!(simd.map(f32::to_bits), reference.map(f32::to_bits));
    }

    #[test]
    fn dct8_inverse_matches_scalar(seed in 0u64..1 << 48, amplitude in 1i32..(1 << 23)) {
        // Realistic coefficients: forward-transform a random block first.
        let block = block_i32(seed, amplitude);
        let mut coeffs = [0f32; 64];
        scalar::dct8_forward(&block, &mut coeffs);
        let mut simd = [0i32; 64];
        let mut reference = [0i32; 64];
        kernels::dct8_inverse(&coeffs, &mut simd);
        scalar::dct8_inverse(&coeffs, &mut reference);
        prop_assert_eq!(simd, reference);
    }

    #[test]
    fn quantize_dequantize_match_scalar(seed in 0u64..1 << 48, qseed in 0u64..1 << 48) {
        let block = block_i32(seed, 2048);
        let mut coeffs = [0f32; 64];
        scalar::dct8_forward(&block, &mut coeffs);
        let raw = bytes(64, qseed);
        let steps: [f32; 64] = std::array::from_fn(|i| raw[i].max(1) as f32);
        let mut levels_simd = [0i32; 64];
        let mut levels_ref = [0i32; 64];
        kernels::quantize64(&coeffs, &steps, &mut levels_simd);
        scalar::quantize64(&coeffs, &steps, &mut levels_ref);
        prop_assert_eq!(levels_simd, levels_ref);
        let mut deq_simd = [0f32; 64];
        let mut deq_ref = [0f32; 64];
        kernels::dequantize64(&levels_ref, &steps, &mut deq_simd);
        scalar::dequantize64(&levels_ref, &steps, &mut deq_ref);
        prop_assert_eq!(deq_simd.map(f32::to_bits), deq_ref.map(f32::to_bits));
    }

    /// Block reconstruction against the per-sample definition — widen, add,
    /// clamp to a byte — over the whole `i32` residual range (`spread`
    /// picks how far out: codec-sized, around the `i16` saturation points,
    /// or anywhere) and at destination strides from packed to plane-sized.
    #[test]
    fn recon8x8_matches_per_sample_clamp(
        seed in 0u64..1 << 48,
        spread in 0u8..4,
        stride in 8usize..48,
    ) {
        let pred: [u8; 64] = bytes(64, seed).try_into().expect("64 bytes");
        let amplitude = [600, 1 << 15, 1 << 17, 1 << 23][spread as usize];
        let mut resid = block_i32(seed ^ 0xEC0, amplitude);
        if spread == 3 {
            // `block_i32` tops out at 16 bits of magnitude; stretch it.
            for (i, r) in resid.iter_mut().enumerate() {
                *r = r.wrapping_mul(65_537).wrapping_add([i32::MAX, i32::MIN, 0, -1][i % 4]);
            }
        }
        let background = bytes(7 * stride + 8, seed ^ 0xBAC);
        let mut active = background.clone();
        let mut portable = background.clone();
        kernels::recon8x8(&mut active, stride, &pred, 8, &resid);
        scalar::recon8x8(&mut portable, stride, &pred, 8, &resid);
        let mut expect = background;
        for i in 0..64 {
            expect[i / 8 * stride + i % 8] = (pred[i] as i64 + resid[i] as i64).clamp(0, 255) as u8;
        }
        prop_assert_eq!(&active, &expect);
        prop_assert_eq!(&portable, &expect);
    }

    /// Odd lengths exercise the vector tail handling.
    #[test]
    fn sse_u8_matches_scalar(seed in 0u64..1 << 48, len in 1usize..600) {
        let a = bytes(len, seed);
        let b = bytes(len, seed ^ 0xBEEF);
        prop_assert_eq!(kernels::sse_u8(&a, &b), scalar::sse_u8(&a, &b));
    }

    /// Odd output widths leave a scalar tail after the 8-lane body.
    #[test]
    fn avg2x2_f32_matches_scalar(seed in 0u64..1 << 48, out_len in 1usize..70) {
        let raw_t = bytes(out_len * 2, seed);
        let raw_b = bytes(out_len * 2, seed ^ 0xF00D);
        let top: Vec<f32> = raw_t.iter().map(|&v| v as f32).collect();
        let bottom: Vec<f32> = raw_b.iter().map(|&v| v as f32).collect();
        let mut simd = vec![0f32; out_len];
        let mut reference = vec![0f32; out_len];
        kernels::avg2x2_f32(&top, &bottom, &mut simd);
        scalar::avg2x2_f32(&top, &bottom, &mut reference);
        let simd: Vec<u32> = simd.iter().map(|v| v.to_bits()).collect();
        let reference: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(simd, reference);
    }

    /// `sad_mb` materializes edge-clamped blocks before the kernel; it must
    /// agree exactly with the per-sample clamped definition, including on
    /// odd-sized planes with motion vectors that overhang every edge.
    #[test]
    fn sad_mb_matches_clamped_reference(
        seed in 0u64..1 << 48,
        w in 9usize..48,
        h in 9usize..48,
        x in 0usize..40,
        y in 0usize..40,
        dx in -20i16..=20,
        dy in -20i16..=20,
    ) {
        let cur = Plane::from_data(w, h, bytes(w * h, seed));
        let reference = Plane::from_data(w, h, bytes(w * h, seed ^ 0xCAFE));
        let mv = MotionVector { dx, dy };
        let mut expect = 0u32;
        for oy in 0..MB {
            for ox in 0..MB {
                let c = cur.sample_clamped((x + ox) as i64, (y + oy) as i64) as i32;
                let r = reference.sample_clamped(
                    (x + ox) as i64 + dx as i64,
                    (y + oy) as i64 + dy as i64,
                ) as i32;
                expect += (c - r).unsigned_abs();
            }
        }
        prop_assert_eq!(motion::sad_mb(&cur, &reference, x, y, mv), expect);
    }

    #[test]
    fn intra_cost_mb_matches_clamped_reference(
        seed in 0u64..1 << 48,
        w in 9usize..48,
        h in 9usize..48,
        x in 0usize..40,
        y in 0usize..40,
    ) {
        let cur = Plane::from_data(w, h, bytes(w * h, seed));
        let mut sum = 0u32;
        for oy in 0..MB {
            for ox in 0..MB {
                sum += cur.sample_clamped((x + ox) as i64, (y + oy) as i64) as u32;
            }
        }
        let mean = (sum / (MB * MB) as u32) as i32;
        let mut expect = 0u32;
        for oy in 0..MB {
            for ox in 0..MB {
                let c = cur.sample_clamped((x + ox) as i64, (y + oy) as i64) as i32;
                expect += (c - mean).unsigned_abs();
            }
        }
        prop_assert_eq!(motion::intra_cost_mb(&cur, x, y), expect);
    }
}
