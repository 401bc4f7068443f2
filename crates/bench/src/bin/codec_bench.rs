//! Raw codec speed: the SIMD kernel tier against the portable scalar tier,
//! on one synthetic eval scene.
//!
//! Two sweeps:
//!
//! * **Micro-kernels** — each of the hot-loop kernels (`sad16`, forward and
//!   inverse DCT, `quantize64`, `sse_u8` for MSE, `avg2x2_f32` for the
//!   lookahead/SIFT downsample, `gf256_mul_acc` for the uplink's FEC, and
//!   `motion_search`, the three-step search of every macroblock of a
//!   384x208 pair over its batched SAD) timed through the runtime
//!   dispatcher and through the scalar reference tier, back to back in one
//!   process; plus `entropy_decode`, the bitstream
//!   parse of the test sequence's P-frames, and `entropy_encode`, the
//!   writer coding the same blocks again, which have no SIMD tier and are
//!   swept for their absolute rates.
//! * **Whole pipeline** — encode throughput of the one-thread
//!   [`Encoder::encode_frame`] loop, scalar (the seed configuration) and
//!   SIMD; decode throughput scalar vs SIMD over the batch decoder, of the
//!   clip [`EncodedVideo::encode`] makes, restated per macroblock and beside
//!   the payload size so it can be held against a decoder running larger
//!   pictures.
//!
//! Results land in `BENCH_codec.json` at the repository root,
//! schema-validated by [`sieve_bench::codec_artifact`] so CI (or a later
//! session) can diff the speed trajectory against this run.
//!
//! Run with: `cargo run --release -p sieve-bench --bin codec_bench`
//! (`--scale small` for more frames, `--quick` for the CI smoke's reduced
//! sample counts, `--no-artifact` to skip the JSON write).

use std::hint::black_box;
use std::path::Path;

use sieve_bench::calibrate::{measure, Estimate};
use sieve_bench::codec_artifact::{
    seed_baseline_fps, validate, CodecArtifact, DecodePoint, EncodePoint, KernelPoint,
};
use sieve_bench::report::table;
use sieve_bench::scale_from_args;
use sieve_datasets::{DatasetId, DatasetSpec};
use sieve_video::bitio::{BitReader, BitWriter, ReadBitsError};
use sieve_video::kernels::{self, scalar};
use sieve_video::{
    entropy, motion, BitstreamStats, EncodedVideo, Encoder, EncoderConfig, Frame, FrameType, Plane,
};

fn bool_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn f64_flag(name: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

/// The fixed denominator of the headline speedup: the growth-seed
/// encoder's single-thread throughput on this scene. `--seed-fps` re-pins
/// it (e.g. after re-measuring the seed commit on a new machine);
/// otherwise it is carried forward from the committed artifact. With
/// neither available, the current scalar single-thread figure stands in —
/// strictly conservative, since the seed lacks this PR's structural
/// hot-loop work.
fn resolve_seed_baseline(scalar_1t_fps: f64, artifact_path: &Path) -> f64 {
    if let Some(fps) = f64_flag("--seed-fps") {
        println!("seed baseline: {fps:.1} fps (--seed-fps)");
        return fps;
    }
    if let Ok(prev) = std::fs::read_to_string(artifact_path) {
        if let Some(fps) = seed_baseline_fps(&prev) {
            println!("seed baseline: {fps:.1} fps (carried from BENCH_codec.json)");
            return fps;
        }
    }
    println!("seed baseline: {scalar_1t_fps:.1} fps (no prior artifact; using current scalar-1t)");
    scalar_1t_fps
}

/// Deterministic byte plane for the kernel sweeps.
fn noise_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            // xorshift64* keeps this dependency-free and reproducible.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// Unrecorded passes before each timed column — what every committed
/// `BENCH_codec.json` was measured with.
const WARMUP_ITERS: usize = 2;

/// Times `op` over `samples` runs and prints its median ± MAD.
fn timed<O>(name: &str, samples: usize, op: impl FnMut() -> O) -> Estimate {
    let est = measure(WARMUP_ITERS, samples, op);
    println!(
        "bench {name:<40} median {:>12.3?} ± {:>10.3?} (MAD, n={samples})",
        est.median, est.mad
    );
    est
}

struct KernelBench {
    samples: usize,
    points: Vec<KernelPoint>,
    rows: Vec<Vec<String>>,
}

impl KernelBench {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            points: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Times `simd` (through the dispatcher) and `scalar` back to back and
    /// records the pair.
    fn pair<F: FnMut(), G: FnMut()>(&mut self, name: &str, simd: F, scalar: G) {
        let simd_est = timed(&format!("codec/{name}/simd"), self.samples, simd);
        let scalar_est = timed(&format!("codec/{name}/scalar"), self.samples, scalar);
        let speedup = scalar_est.median.as_secs_f64() / simd_est.median.as_secs_f64();
        self.rows.push(vec![
            name.to_string(),
            format!("{:.3?}", scalar_est.median),
            format!("{:.3?}", simd_est.median),
            format!("{speedup:.2}x"),
        ]);
        self.points.push(KernelPoint {
            name: name.to_string(),
            samples: self.samples,
            scalar_median_ns: scalar_est.median.as_nanos() as f64,
            scalar_mad_ns: scalar_est.mad.as_nanos() as f64,
            simd_median_ns: simd_est.median.as_nanos() as f64,
            simd_mad_ns: simd_est.mad.as_nanos() as f64,
            speedup,
        });
    }
}

/// Walks one P-frame payload the way the decoder does — macroblock flag,
/// motion vector, six coded-block flags, run/level blocks — without
/// reconstructing anything, handing each parsed block to `on_block`.
/// Returns the number of coded macroblocks.
fn parse_p_frame(
    data: &[u8],
    macroblocks: usize,
    mut on_block: impl FnMut(&[i32; 64]),
) -> Result<usize, ReadBitsError> {
    let mut r = BitReader::new(data);
    let mut levels = [0i32; 64];
    let mut coded = 0;
    for _ in 0..macroblocks {
        if !r.read_bit()? {
            continue; // SKIP
        }
        coded += 1;
        black_box((r.read_se()?, r.read_se()?));
        for _ in 0..6 {
            if r.read_bit()? {
                entropy::decode_block(&mut r, &mut levels)?;
                on_block(&levels);
            }
        }
    }
    Ok(coded)
}

/// The micro-kernel sweep. Each iteration covers a whole plane / a batch of
/// blocks so per-call dispatch overhead is amortized the way the codec
/// amortizes it. Returns the points, the table rows, and the number of
/// Exp-Golomb codes one `entropy_decode` iteration parses.
fn kernel_sweep(
    samples: usize,
    encoded: &EncodedVideo,
) -> (Vec<KernelPoint>, Vec<Vec<String>>, usize) {
    let mut bench = KernelBench::new(samples);
    // SAD over a 256x256 plane of 16x16 blocks, the motion-search shape.
    let w = 256usize;
    let cur = noise_bytes(w * w, 0xA11CE);
    let refp = noise_bytes(w * w, 0xB0B);
    bench.pair(
        "sad16",
        || {
            let mut acc = 0u32;
            for by in 0..w / 16 {
                for bx in 0..w / 16 {
                    let o = by * 16 * w + bx * 16;
                    acc = acc.wrapping_add(kernels::sad16(&cur[o..], w, &refp[o..], w));
                }
            }
            black_box(acc);
        },
        || {
            let mut acc = 0u32;
            for by in 0..w / 16 {
                for bx in 0..w / 16 {
                    let o = by * 16 * w + bx * 16;
                    acc = acc.wrapping_add(scalar::sad16(&cur[o..], w, &refp[o..], w));
                }
            }
            black_box(acc);
        },
    );

    // Three-step search at range 16 on every macroblock of a noisy
    // 384x208 pair, the largest tape's picture, padded planes included.
    // The scalar column pins the dispatcher to its portable tier for the
    // search's batched SAD.
    let (mw, mh) = (384usize, 208usize);
    let mcur = Plane::from_data(mw, mh, noise_bytes(mw * mh, 0x5EA));
    let mref = Plane::from_data(mw, mh, noise_bytes(mw * mh, 0x4C4));
    let search = || {
        black_box(motion::search_frame(&mcur, &mref, 16));
    };
    bench.pair("motion_search", search, || {
        kernels::force_scalar(true);
        search();
        kernels::force_scalar(false);
    });

    // DCT / quantize over a batch of 256 blocks.
    let blocks: Vec<[i32; 64]> = (0..256)
        .map(|i| {
            let bytes = noise_bytes(64, 0xD07 + i as u64);
            let mut b = [0i32; 64];
            for (o, &v) in b.iter_mut().zip(&bytes) {
                *o = v as i32 - 128;
            }
            b
        })
        .collect();
    let (mut coeffs_a, mut coeffs_b) = ([0f32; 64], [0f32; 64]);
    bench.pair(
        "dct8_forward",
        || {
            for b in &blocks {
                kernels::dct8_forward(b, &mut coeffs_a);
                black_box(&coeffs_a);
            }
        },
        || {
            for b in &blocks {
                scalar::dct8_forward(b, &mut coeffs_b);
                black_box(&coeffs_b);
            }
        },
    );
    let coeff_blocks: Vec<[f32; 64]> = blocks
        .iter()
        .map(|b| {
            let mut c = [0f32; 64];
            scalar::dct8_forward(b, &mut c);
            c
        })
        .collect();
    let (mut resid_a, mut resid_b) = ([0i32; 64], [0i32; 64]);
    bench.pair(
        "dct8_inverse",
        || {
            for c in &coeff_blocks {
                kernels::dct8_inverse(c, &mut resid_a);
                black_box(&resid_a);
            }
        },
        || {
            for c in &coeff_blocks {
                scalar::dct8_inverse(c, &mut resid_b);
                black_box(&resid_b);
            }
        },
    );
    let steps: [f32; 64] = std::array::from_fn(|i| sieve_video::quant::BASE_LUMA[i] as f32);
    let (mut levels_a, mut levels_b) = ([0i32; 64], [0i32; 64]);
    bench.pair(
        "quantize64",
        || {
            for c in &coeff_blocks {
                kernels::quantize64(c, &steps, &mut levels_a);
                black_box(&levels_a);
            }
        },
        || {
            for c in &coeff_blocks {
                scalar::quantize64(c, &steps, &mut levels_b);
                black_box(&levels_b);
            }
        },
    );

    // SSE (the MSE detector's inner loop) over a 64 KiB plane pair.
    let a = noise_bytes(1 << 16, 0x5EED);
    let b = noise_bytes(1 << 16, 0xFEED);
    bench.pair(
        "sse_u8",
        || {
            black_box(kernels::sse_u8(&a, &b));
        },
        || {
            black_box(scalar::sse_u8(&a, &b));
        },
    );

    // 2x2 box average (lookahead downsample / SIFT octaves), 256 rows.
    let fw = 512usize;
    let fa: Vec<f32> = noise_bytes(fw * 256, 0xF00)
        .iter()
        .map(|&v| v as f32)
        .collect();
    let mut row_a = vec![0f32; fw / 2];
    let mut row_b = vec![0f32; fw / 2];
    bench.pair(
        "avg2x2_f32",
        || {
            for y in 0..128 {
                let top = &fa[(2 * y) * fw..][..fw];
                let bottom = &fa[(2 * y + 1) * fw..][..fw];
                kernels::avg2x2_f32(top, bottom, &mut row_a);
                black_box(&row_a);
            }
        },
        || {
            for y in 0..128 {
                let top = &fa[(2 * y) * fw..][..fw];
                let bottom = &fa[(2 * y + 1) * fw..][..fw];
                scalar::avg2x2_f32(top, bottom, &mut row_b);
                black_box(&row_b);
            }
        },
    );

    // GF(256) multiply-accumulate (the uplink's FEC): 256 fragments of the
    // 1172 bytes a 1200-byte MTU leaves after the header, each under its own
    // coefficient (`| 2` keeps clear of 0, which short-circuits).
    const FRAGMENT: usize = 1172;
    let fragments = noise_bytes(256 * FRAGMENT, 0xFEC);
    let mut parity_a = vec![0u8; FRAGMENT];
    let mut parity_b = vec![0u8; FRAGMENT];
    bench.pair(
        "gf256_mul_acc",
        || {
            for (c, frag) in fragments.chunks_exact(FRAGMENT).enumerate() {
                kernels::gf256_mul_acc(&mut parity_a, c as u8 | 2, frag);
            }
            black_box(&parity_a);
        },
        || {
            for (c, frag) in fragments.chunks_exact(FRAGMENT).enumerate() {
                scalar::gf256_mul_acc(&mut parity_b, c as u8 | 2, frag);
            }
            black_box(&parity_b);
        },
    );

    // The entropy parse over every P-frame of the test sequence. The parser
    // is safe scalar code with no dispatch, so both columns run the same
    // thing; the row exists for its absolute rate.
    let res = encoded.resolution();
    let macroblocks = res.mb_cols() * res.mb_rows();
    let p_frames: Vec<&[u8]> = encoded
        .frames()
        .iter()
        .filter(|f| f.frame_type == FrameType::P)
        .map(|f| &f.data[..])
        .collect();
    // Codes per iteration: two per coded macroblock's vector, and per coded
    // block a (run, level) pair for each nonzero coefficient plus the EOB.
    let mut codes = 0;
    let mut blocks: Vec<[i32; 64]> = Vec::new();
    for data in &p_frames {
        let coded_mbs = parse_p_frame(data, macroblocks, |levels| {
            codes += 2 * levels.iter().filter(|&&l| l != 0).count() + 1;
            blocks.push(*levels);
        })
        .expect("bitstream parses");
        codes += 2 * coded_mbs;
    }
    let parse_all = || {
        for data in &p_frames {
            let coded_mbs = parse_p_frame(data, macroblocks, |levels| {
                black_box(levels);
            });
            black_box(coded_mbs.expect("bitstream parses"));
        }
    };
    bench.pair("entropy_decode", parse_all, parse_all);

    // The entropy writer over the same blocks: each one coded again into
    // one recycled bitstream buffer. No SIMD tier either; both columns run
    // the same code.
    let code_all = |stream: &mut Vec<u8>| {
        let mut w = BitWriter::with_buf(std::mem::take(stream));
        for levels in &blocks {
            entropy::encode_block(levels, &mut w);
        }
        *stream = w.finish();
        black_box(&stream);
    };
    let (mut stream_a, mut stream_b) = (Vec::new(), Vec::new());
    bench.pair(
        "entropy_encode",
        || code_all(&mut stream_a),
        || code_all(&mut stream_b),
    );
    (bench.points, bench.rows, codes)
}

fn main() {
    let scale = scale_from_args();
    let quick = bool_flag("--quick");
    let artifact_path = sieve_bench::artifact_path("BENCH_codec.json");
    let kernel_samples = if quick { 5 } else { 15 };
    let pipeline_samples = if quick { 3 } else { 7 };
    let level = kernels::active_level();
    println!(
        "Codec raw speed: kernel tier = {level} \
         (scalar columns pin the dispatcher to its portable tier)\n"
    );

    // One eval scene, encoded with the harness's mid-grid parameters.
    let spec = DatasetSpec::of(DatasetId::JacksonSquare);
    let video = spec.generate(scale);
    let frame_cap = if quick { 24 } else { 96 };
    let n_frames = video.frame_count().min(frame_cap);
    let frames: Vec<Frame> = (0..n_frames).map(|i| video.frame(i)).collect();
    let res = video.resolution();
    let config = EncoderConfig::new(30, 150);
    let encoded = EncodedVideo::encode(res, video.fps(), config, frames.clone());

    // -- Micro-kernels ------------------------------------------------------
    let (kernel_points, kernel_rows, entropy_codes) = kernel_sweep(kernel_samples, &encoded);
    println!(
        "\n{}",
        table(&["kernel", "scalar", "simd", "speedup"], &kernel_rows)
    );

    // -- Whole pipeline -----------------------------------------------------
    let encode_fps = |name: &str, scalar_tier: bool| {
        kernels::force_scalar(scalar_tier);
        let est = timed(name, pipeline_samples, || {
            let mut encoder = Encoder::new(res, config);
            frames
                .iter()
                .map(|f| encoder.encode_frame(f))
                .collect::<Vec<_>>()
        });
        kernels::force_scalar(false);
        n_frames as f64 / est.median.as_secs_f64()
    };
    // The seed configuration: scalar kernels, one thread.
    let scalar_1t = encode_fps("codec/encode/scalar-1t", true);
    let simd_1t = encode_fps("codec/encode/simd-1t", false);

    let decode_fps = |name: &str, scalar_tier: bool| {
        kernels::force_scalar(scalar_tier);
        let mut decoder = sieve_video::Decoder::new(res, config.quality);
        let est = timed(name, pipeline_samples, || {
            decoder.reset();
            let mut count = 0usize;
            for ef in encoded.frames() {
                let frame = decoder.decode_next(ef).expect("bitstream decodes");
                count += frame.y().width();
            }
            count
        });
        kernels::force_scalar(false);
        n_frames as f64 / est.median.as_secs_f64()
    };
    let dec_scalar = decode_fps("codec/decode/scalar", true);
    let dec_simd = decode_fps("codec/decode/simd", false);

    let seed_1t = resolve_seed_baseline(scalar_1t, &artifact_path);
    let encode = EncodePoint {
        samples: pipeline_samples,
        seed_1t_fps: seed_1t,
        scalar_1t_fps: scalar_1t,
        simd_1t_fps: simd_1t,
        speedup_simd: simd_1t / scalar_1t,
        speedup_total: simd_1t / seed_1t,
    };
    let macroblocks = res.mb_cols() * res.mb_rows();
    let payload_bytes = BitstreamStats::from_video(&encoded).total_bytes;
    let entropy_ns = kernel_points
        .iter()
        .find(|k| k.name == "entropy_decode")
        .expect("swept above")
        .simd_median_ns;
    let decode = DecodePoint {
        samples: pipeline_samples,
        scalar_fps: dec_scalar,
        simd_fps: dec_simd,
        speedup: dec_simd / dec_scalar,
        us_per_macroblock: 1e6 / (dec_simd * macroblocks as f64),
        payload_bytes_per_frame: payload_bytes as f64 / n_frames as f64,
        // codes per nanosecond * 1e3 = millions of codes per second
        entropy_mcodes_per_s: entropy_codes as f64 / entropy_ns * 1e3,
    };
    println!(
        "\n{}",
        table(
            &["pipeline", "seed fps", "scalar fps", "simd fps", "speedup"],
            &[
                vec![
                    format!("encode ({n_frames} frames, 1 thread)"),
                    format!("{seed_1t:.1}"),
                    format!("{scalar_1t:.1}"),
                    format!("{simd_1t:.1}"),
                    format!("{:.2}x vs seed", encode.speedup_total),
                ],
                vec![
                    format!("decode ({n_frames} frames)"),
                    "-".to_string(),
                    format!("{dec_scalar:.1}"),
                    format!("{dec_simd:.1}"),
                    format!("{:.2}x vs scalar", decode.speedup),
                ],
            ]
        )
    );

    println!(
        "decode: {:.2} us/macroblock ({macroblocks} macroblocks, {:.0} payload bytes per frame); \
         entropy parse {:.0} M codes/s ({entropy_codes} codes over the P-frames)",
        decode.us_per_macroblock, decode.payload_bytes_per_frame, decode.entropy_mcodes_per_s
    );

    let artifact = CodecArtifact {
        benchmark: "codec".to_string(),
        kernel_level: level.to_string(),
        width: res.width(),
        height: res.height(),
        frames: n_frames,
        kernels: kernel_points,
        encode,
        decode,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes") + "\n";
    validate(&json).expect("generated artifact passes its own schema");
    if bool_flag("--no-artifact") {
        println!("\n--no-artifact: skipping BENCH_codec.json write");
    } else {
        std::fs::write(artifact_path, json).expect("artifact written");
        println!("\nwrote BENCH_codec.json");
    }
}
