//! The `BENCH_codec.json` schema: serialized types plus a stability
//! validator.
//!
//! The codec artifact tracks the raw-speed trajectory of the codec hot
//! loops PR-over-PR: every point carries a scalar column (the kernel
//! dispatcher pinned to its portable tier) next to the SIMD column from
//! the same process, and the encode point additionally carries a
//! 1-thread-vs-N-thread column for the GOP-parallel pipeline. Since both
//! columns of each pair are measured back to back on the same machine,
//! the in-artifact ratios are meaningful even though absolute numbers are
//! machine-dependent. The encode point also pins a **seed baseline** — the
//! throughput of the growth-seed encoder measured once on the same scene
//! and machine — and quotes the headline `speedup_total` against it, so
//! the artifact tracks cumulative progress, not just the current build's
//! internal tier ratio. [`validate`] asserts [`SHAPE`] — the exact key
//! sets, every count a positive integer, every rate and ratio a real
//! positive number — and that no required kernel is missing; the
//! `codec_bench` binary validates what it is about to write, and a unit
//! test validates (and pins the headline speedup of) the committed
//! artifact at the repository root, so a schema regression fails
//! `cargo test` before it lands.

use serde::{Serialize, Value};

use crate::schema::{self, Shape};

/// One micro-kernel's scalar-vs-SIMD timing pair.
#[derive(Debug, Serialize)]
pub struct KernelPoint {
    /// Kernel name (`sad16`, `dct8_forward`, ...).
    pub name: String,
    /// Timing samples per column.
    pub samples: usize,
    /// Median scalar iteration time, nanoseconds.
    pub scalar_median_ns: f64,
    /// Median absolute deviation of the scalar column, nanoseconds.
    pub scalar_mad_ns: f64,
    /// Median dispatched (SIMD) iteration time, nanoseconds.
    pub simd_median_ns: f64,
    /// Median absolute deviation of the SIMD column, nanoseconds.
    pub simd_mad_ns: f64,
    /// `scalar_median_ns / simd_median_ns`.
    pub speedup: f64,
}

/// The whole-pipeline encode point: scalar vs SIMD vs SIMD + GOP-parallel.
#[derive(Debug, Serialize)]
pub struct EncodePoint {
    /// Timing samples per column.
    pub samples: usize,
    /// Single-thread throughput of the growth-seed encoder (the commit
    /// this optimization PR started from) on the same scene, measured once
    /// on the machine that produced the first artifact and carried forward
    /// by `codec_bench` on regeneration. This is the fixed denominator of
    /// the headline speedup; pass `--seed-fps` to re-pin it after
    /// re-measuring the seed on a different machine.
    pub seed_1t_fps: f64,
    /// Scalar-tier single-thread throughput of the *current* encoder,
    /// frames/second (the dispatcher pinned to its portable tier).
    pub scalar_1t_fps: f64,
    /// SIMD single-thread throughput, frames/second.
    pub simd_1t_fps: f64,
    /// SIMD GOP-parallel throughput at `workers` threads, frames/second.
    pub simd_nt_fps: f64,
    /// Worker threads used for the N-thread column.
    pub workers: usize,
    /// `simd_1t_fps / scalar_1t_fps` — the vectorization win alone, with
    /// the structural optimizations held equal.
    pub speedup_simd: f64,
    /// `simd_nt_fps / seed_1t_fps` — the headline: SIMD, the structural
    /// hot-loop work, and GOP-parallelism over the seed encoder.
    pub speedup_total: f64,
}

/// The whole-pipeline decode point (the decoder has no parallel path; the
/// batch decoder is single-threaded by design).
///
/// Frames/second depends on the clip's resolution and bitrate, so the point
/// also carries the two size-free figures that let it be compared with a
/// decoder running other content (the end-to-end benchmark's tapes are up
/// to 7x the macroblocks of this clip): time per macroblock, and what a
/// frame weighs in the bitstream.
#[derive(Debug, Serialize)]
pub struct DecodePoint {
    /// Timing samples per column.
    pub samples: usize,
    /// Scalar-tier throughput, frames/second.
    pub scalar_fps: f64,
    /// SIMD throughput, frames/second.
    pub simd_fps: f64,
    /// `simd_fps / scalar_fps`.
    pub speedup: f64,
    /// SIMD decode time per 16x16 macroblock, microseconds:
    /// `1e6 / (simd_fps * macroblocks per frame)`.
    pub us_per_macroblock: f64,
    /// Mean encoded payload per frame of the test sequence, bytes.
    pub payload_bytes_per_frame: f64,
    /// Exp-Golomb codes parsed per second by the `entropy_decode` kernel
    /// row (run, level, end-of-block and motion-vector codes of the
    /// sequence's P-frames), millions.
    pub entropy_mcodes_per_s: f64,
}

/// The whole artifact written to `BENCH_codec.json`.
#[derive(Debug, Serialize)]
pub struct CodecArtifact {
    /// Always `"codec"`.
    pub benchmark: String,
    /// The dispatcher tier the SIMD columns ran at (`"sse2"`/`"avx2"`;
    /// `"scalar"` would mean the host has no usable SIMD and the ratios
    /// are all ~1).
    pub kernel_level: String,
    /// Test content width in luma samples.
    pub width: u32,
    /// Test content height in luma samples.
    pub height: u32,
    /// Frames in the encode/decode test sequence.
    pub frames: usize,
    /// Micro-kernel sweep.
    pub kernels: Vec<KernelPoint>,
    /// Whole-pipeline encode point.
    pub encode: EncodePoint,
    /// Whole-pipeline decode point.
    pub decode: DecodePoint,
}

const KERNEL: Shape = Shape::Obj(&[
    ("name", Shape::Str),
    ("samples", Shape::Count),
    ("scalar_median_ns", Shape::Pos),
    ("scalar_mad_ns", Shape::Num),
    ("simd_median_ns", Shape::Pos),
    ("simd_mad_ns", Shape::Num),
    ("speedup", Shape::Pos),
]);

const ENCODE: Shape = Shape::Obj(&[
    ("samples", Shape::Count),
    ("seed_1t_fps", Shape::Pos),
    ("scalar_1t_fps", Shape::Pos),
    ("simd_1t_fps", Shape::Pos),
    ("simd_nt_fps", Shape::Pos),
    ("workers", Shape::Count),
    ("speedup_simd", Shape::Pos),
    ("speedup_total", Shape::Pos),
]);

const DECODE: Shape = Shape::Obj(&[
    ("samples", Shape::Count),
    ("scalar_fps", Shape::Pos),
    ("simd_fps", Shape::Pos),
    ("speedup", Shape::Pos),
    ("us_per_macroblock", Shape::Pos),
    ("payload_bytes_per_frame", Shape::Pos),
    ("entropy_mcodes_per_s", Shape::Pos),
]);

/// The shape of `BENCH_codec.json`.
pub const SHAPE: Shape = Shape::Obj(&[
    ("benchmark", Shape::OneOf(&["codec"])),
    ("kernel_level", Shape::OneOf(&["scalar", "sse2", "avx2"])),
    ("width", Shape::Count),
    ("height", Shape::Count),
    ("frames", Shape::Count),
    ("kernels", Shape::Arr(&KERNEL)),
    ("encode", ENCODE),
    ("decode", DECODE),
]);

/// Kernels every artifact must sweep (the codec's hot loops — SAD,
/// forward/inverse DCT, quantize, SSE for MSE, the 2x2 box average behind
/// both the lookahead and SIFT downsampling — the GF(256)
/// multiply-accumulate of the uplink's FEC, and the decoder's entropy
/// parse, which has no SIMD tier: its two columns are the same safe code
/// and its row is there for the absolute rate).
const REQUIRED_KERNELS: &[&str] = &[
    "sad16",
    "dct8_forward",
    "dct8_inverse",
    "quantize64",
    "sse_u8",
    "avg2x2_f32",
    "gf256_mul_acc",
    "entropy_decode",
];

/// The artifact's value tree, once it has its shape and sweeps every
/// required kernel.
fn checked(json: &str) -> Result<Value, String> {
    let root = schema::parse(json, &SHAPE)?;
    let swept = |name: &str| {
        schema::items_of(&root, "kernels")
            .iter()
            .any(|k| schema::member(k, "name").as_str() == Some(name))
    };
    match REQUIRED_KERNELS.iter().find(|name| !swept(name)) {
        Some(missing) => Err(format!("kernels: required kernel {missing:?} missing")),
        None => Ok(root),
    }
}

/// Extracts the pinned seed baseline from an existing artifact, if `json`
/// validates as one — how `codec_bench` carries the denominator forward
/// when regenerating `BENCH_codec.json` on the same machine.
pub fn seed_baseline_fps(json: &str) -> Option<f64> {
    let root = checked(json).ok()?;
    Some(schema::number_of(
        schema::member(&root, "encode"),
        "seed_1t_fps",
    ))
}

/// Asserts the artifact's schema stability; see the module docs. `json`
/// is the full text of `BENCH_codec.json`.
///
/// # Errors
///
/// A human-readable description of the first violated schema rule.
pub fn validate(json: &str) -> Result<(), String> {
    checked(json).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CodecArtifact {
        CodecArtifact {
            benchmark: "codec".into(),
            kernel_level: "avx2".into(),
            width: 128,
            height: 96,
            frames: 48,
            kernels: REQUIRED_KERNELS
                .iter()
                .map(|&name| KernelPoint {
                    name: name.into(),
                    samples: 9,
                    scalar_median_ns: 400.0,
                    scalar_mad_ns: 4.0,
                    simd_median_ns: 50.0,
                    simd_mad_ns: 1.0,
                    speedup: 8.0,
                })
                .collect(),
            encode: EncodePoint {
                samples: 5,
                seed_1t_fps: 100.0,
                scalar_1t_fps: 260.0,
                simd_1t_fps: 450.0,
                simd_nt_fps: 470.0,
                workers: 2,
                speedup_simd: 450.0 / 260.0,
                speedup_total: 4.7,
            },
            decode: DecodePoint {
                samples: 5,
                scalar_fps: 500.0,
                simd_fps: 1200.0,
                speedup: 2.4,
                us_per_macroblock: 1e6 / (1200.0 * 48.0),
                payload_bytes_per_frame: 900.0,
                entropy_mcodes_per_s: 150.0,
            },
        }
    }

    fn to_json(a: &CodecArtifact) -> String {
        serde_json::to_string_pretty(a).expect("serializes")
    }

    #[test]
    fn generated_artifact_validates() {
        validate(&to_json(&sample())).expect("sample artifact must validate");
    }

    #[test]
    fn rejects_wrong_benchmark_name() {
        let mut a = sample();
        a.benchmark = "wan_bench".into();
        assert!(validate(&to_json(&a)).is_err());
    }

    #[test]
    fn rejects_unknown_kernel_level() {
        let mut a = sample();
        a.kernel_level = "neon".into();
        assert!(validate(&to_json(&a)).is_err());
    }

    #[test]
    fn rejects_missing_required_kernel() {
        let mut a = sample();
        a.kernels.retain(|k| k.name != "sad16");
        assert!(validate(&to_json(&a)).is_err());
    }

    #[test]
    fn rejects_non_positive_speedup() {
        let mut a = sample();
        a.encode.speedup_total = 0.0;
        assert!(validate(&to_json(&a)).is_err());
        a.encode.speedup_total = f64::NAN;
        assert!(validate(&to_json(&a)).is_err());
    }

    /// Every leaf has a type; counts are integers, so `workers: 1.5`,
    /// `samples: 0.3` and `frames: 2.5` do not validate.
    #[test]
    fn wrong_typed_leaves_are_rejected_by_path() {
        for (path, json) in schema::wrong_typed_leaves(&to_json(&sample())) {
            let err = validate(&json).expect_err(&path);
            assert!(err.starts_with(&path), "{path}: {err}");
        }
    }

    #[test]
    fn seed_baseline_is_read_from_valid_artifacts_only() {
        assert_eq!(seed_baseline_fps(&to_json(&sample())), Some(100.0));
        assert_eq!(seed_baseline_fps("{}"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(validate("not json").is_err());
        assert!(validate("[]").is_err());
        assert!(validate("{}").is_err());
    }

    /// The committed artifact at the repository root must match the schema
    /// this session of the code writes, and must record the headlines:
    /// SIMD + GOP-parallel encode at least 4x over the seed scalar
    /// single-thread configuration, GOP-parallel encode at least 1.2x over
    /// one thread whenever it ran with two or more workers, and the
    /// one-window / pair-table
    /// decoder's floor on the 112x80 scene, 98k frames/s, 90% of the
    /// 109k the artifact records (the byte-chunked reader two decoders back
    /// read 33.6k; all measured on the machine that produced the artifact,
    /// both columns of each pair in the same process).
    #[test]
    fn committed_artifact_is_schema_stable() {
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_codec.json"
        ))
        .expect("BENCH_codec.json missing at the repository root");
        let root = checked(&json).expect("committed artifact must validate");
        let encode = schema::member(&root, "encode");
        let total = schema::number_of(encode, "speedup_total");
        let decode_fps = schema::number_of(schema::member(&root, "decode"), "simd_fps");
        assert!(
            decode_fps >= 98_000.0,
            "committed artifact must record >= 98k fps decode, got {decode_fps}"
        );
        assert!(
            total >= 4.0,
            "committed artifact must record >= 4x encode speedup, got {total}"
        );
        let workers = schema::number_of(encode, "workers");
        let parallel =
            schema::number_of(encode, "simd_nt_fps") / schema::number_of(encode, "simd_1t_fps");
        assert!(
            workers < 2.0 || parallel >= 1.2,
            "committed artifact must record >= 1.2x GOP-parallel encode at {workers} workers, got {parallel}"
        );
    }
}
