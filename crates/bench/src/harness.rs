//! Experiment harnesses: the code behind every table and figure.
//!
//! Each public function reproduces one experiment of the paper's Section V
//! and returns the rows [`crate::paper_artifact`] serializes; the
//! `paper_bench` binary writes and prints them. Everything here
//! is deterministic given the dataset seeds; wall-clock measurements
//! (Table III, cost calibration) depend on the machine but not on ordering.

use std::cell::OnceCell;
use std::hint::black_box;

use sieve_core::{
    score_encoding, score_selection, simulate_all, tune, ConfigGrid, FrameSelector, ThreeTier,
    VideoWorkload, WorkloadCosts, NN_INPUT_SIZE,
};
use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec, LabelSet, SyntheticVideo};
use sieve_filters::{Budget, ChangeDetector, MseDetector, MseSelector, SiftDetector, SiftSelector};
use sieve_video::{
    BitstreamStats, Decoder, EncodedVideo, EncoderConfig, Frame, RatioTrace, Resolution, VideoIndex,
};

use crate::calibrate::measure_secs;
use crate::nn_probe::{frame_to_tensor, reference_model};
use crate::paper_artifact::{
    BaselineRow, EncodingPoint, ObjectSizePoint, SweepPoint, Table2Row, Table3Row,
};

/// A dataset generated at some scale, with the paper's train/eval split
/// (first half tunes parameters, second half evaluates). The ratio trace and
/// the encodes every experiment shares are made on first use, once.
#[derive(Debug)]
pub struct Prepared {
    /// Dataset description.
    pub spec: DatasetSpec,
    /// The generated synthetic feed.
    pub video: SyntheticVideo,
    trace: OnceCell<RatioTrace>,
    default_eval: OnceCell<EncodedVideo>,
    semantic: OnceCell<EncoderConfig>,
    semantic_eval: OnceCell<EncodedVideo>,
}

impl Prepared {
    /// Generates dataset `id` at `scale`.
    pub fn new(id: DatasetId, scale: DatasetScale) -> Self {
        let spec = DatasetSpec::of(id);
        let video = spec.generate(scale);
        Self {
            spec,
            video,
            trace: OnceCell::new(),
            default_eval: OnceCell::new(),
            semantic: OnceCell::new(),
            semantic_eval: OnceCell::new(),
        }
    }

    /// Frame index where the train half ends and the eval half begins.
    pub fn split(&self) -> usize {
        self.video.frame_count() / 2
    }

    /// Ground-truth labels of the eval half.
    fn eval_labels(&self) -> &[LabelSet] {
        &self.video.labels()[self.split()..]
    }

    /// The lookahead's ratio trace of the whole feed, at the search range
    /// of every config the experiments use: it places their I-frames
    /// without an encode.
    pub fn trace(&self) -> &RatioTrace {
        self.trace.get_or_init(|| {
            RatioTrace::measure(EncoderConfig::default().search_range, self.video.frames())
        })
    }

    /// Encodes the eval half with `config`.
    fn encode_eval(&self, config: EncoderConfig) -> EncodedVideo {
        EncodedVideo::encode(
            self.video.resolution(),
            self.video.fps(),
            config,
            (self.split()..self.video.frame_count()).map(|i| self.video.frame(i)),
        )
    }

    /// The eval half under the defaults (GOP 250, scenecut 40): the stream
    /// every baseline decodes.
    fn default_eval(&self) -> &EncodedVideo {
        self.default_eval
            .get_or_init(|| self.encode_eval(EncoderConfig::x264_default()))
    }

    /// The semantic config: (GOP, scenecut) tuned over 15 configs on the
    /// train half of a labelled dataset; for an unlabelled feed the
    /// paper fixes one I-frame per 5 seconds.
    pub fn semantic(&self) -> EncoderConfig {
        *self.semantic.get_or_init(|| {
            let video = &self.video;
            if !self.spec.has_labels {
                return EncoderConfig::new(5 * video.fps() as usize, 0);
            }
            let half = self.split();
            // A refinement of the paper's grid around this codec's useful
            // scenecut band.
            let grid = ConfigGrid {
                gop_sizes: vec![100, 300, 600],
                scenecuts: vec![40, 100, 150, 200, 250],
            };
            let train = self.trace().slice(0..half);
            tune(&grid, &video.labels()[..half], &train).best.config
        })
    }

    /// The eval half under [`Prepared::semantic`].
    fn semantic_eval(&self) -> &EncodedVideo {
        self.semantic_eval
            .get_or_init(|| self.encode_eval(self.semantic()))
    }
}

// ---------------------------------------------------------------------------
// Fig 3: accuracy vs percentage of sampled frames.
// ---------------------------------------------------------------------------

/// Runs the Fig 3 sweep on the eval half of `prepared`.
///
/// For each scenecut in `scenecuts`, the eval half's semantic I-frames are
/// placed (GOP fixed at `gop`); the resulting I-frame rate defines the
/// sampling budget at which the baselines' thresholds are calibrated — the
/// paper's fair-comparison methodology. The whole sweep routes through
/// [`FrameSelector::calibrate_fractions`], so each baseline decodes and
/// scores the default-encoded stream (decode artifacts included, exactly
/// like NoScope-style filters) *once* across all operating points.
pub fn accuracy_sweep(prepared: &Prepared, gop: usize, scenecuts: &[u16]) -> Vec<SweepPoint> {
    let labels = prepared.eval_labels();
    let default_video = prepared.default_eval();

    // SiEVE's operating points: one replayed placement per scenecut; the
    // I-frame rates become the baselines' matched sampling targets.
    let eval = prepared
        .trace()
        .slice(prepared.split()..prepared.video.frame_count());
    let sieve_points: Vec<_> = scenecuts
        .iter()
        .map(|&sc| score_selection(labels, &eval.i_frames(&EncoderConfig::new(gop, sc))))
        .collect();
    let fractions: Vec<f64> = sieve_points
        .iter()
        .map(|q| q.sampling_rate.clamp(1e-6, 1.0))
        .collect();

    // Batched calibration: one decode+scoring pass per baseline, every
    // matched target swept in memory.
    let mse_curve = MseSelector::mse(Budget::Threshold(0.0))
        .calibrate_fractions(default_video, &fractions)
        .expect("default stream decodes");
    let sift_curve = SiftSelector::sift(Budget::Threshold(0.0))
        .calibrate_fractions(default_video, &fractions)
        .expect("default stream decodes");

    let mut points: Vec<SweepPoint> = sieve_points
        .iter()
        .zip(mse_curve.points.iter().zip(&sift_curve.points))
        .map(|(sieve_q, (mse_pt, sift_pt))| SweepPoint {
            dataset: prepared.spec.id.to_string(),
            sampling: sieve_q.sampling_rate,
            sieve: sieve_q.accuracy,
            sift: score_selection(labels, &sift_pt.selected).accuracy,
            mse: score_selection(labels, &mse_pt.selected).accuracy,
        })
        .collect();
    points.sort_by(|a, b| a.sampling.partial_cmp(&b.sampling).expect("finite"));
    points
}

// ---------------------------------------------------------------------------
// Table II: semantic vs default encoding parameters.
// ---------------------------------------------------------------------------

/// Computes one Table II row: the tuned and the default parameters,
/// evaluated on the eval half.
pub fn semantic_vs_default(prepared: &Prepared) -> Table2Row {
    let labels = prepared.eval_labels();
    Table2Row {
        dataset: prepared.spec.id.to_string(),
        semantic: score_encoding(prepared.semantic_eval(), labels).into(),
        default: score_encoding(prepared.default_eval(), labels).into(),
    }
}

// ---------------------------------------------------------------------------
// Table III: speed of event detection.
// ---------------------------------------------------------------------------

/// Timed passes per Table III column, after one warm-up pass.
const SPEED_SAMPLES: usize = 5;

/// Frames the (slow) SIFT column decodes and scores per pass; its
/// per-frame cost is extrapolated to the stream.
const SIFT_PROBE: usize = 15;

/// Measures event-detection speed on the eval half of `prepared`: each
/// column is the median of `SPEED_SAMPLES` timed passes.
pub fn speed_of_event_detection(prepared: &Prepared) -> Table3Row {
    let bytes = prepared.semantic_eval().to_bytes();
    let default_video = prepared.default_eval();
    let n = default_video.frame_count();
    // SiEVE: parse the index, decode every I-frame independently.
    let sieve_secs = measure_secs(SPEED_SAMPLES, || {
        let index = VideoIndex::parse(&bytes).expect("valid container");
        for (_, meta) in index.i_frames() {
            black_box(index.decode_iframe(&bytes, meta).expect("iframe decodes"));
        }
    });

    // Baselines: stream-decode the default encoding, then compute the
    // similarity metric per consecutive pair.
    let decode_and_score = |detector: &mut dyn ChangeDetector, frames: usize| {
        detector.reset();
        let mut dec = Decoder::new(default_video.resolution(), default_video.quality());
        let mut prev: Option<Frame> = None;
        for ef in &default_video.frames()[..frames] {
            let f = dec.decode_frame(ef).expect("decodes");
            if let Some(p) = &prev {
                black_box(detector.change_score(p, &f));
            }
            prev = Some(f);
        }
    };
    let mut mse = MseDetector::new();
    let mse_secs = measure_secs(SPEED_SAMPLES, || decode_and_score(&mut mse, n));
    let mut sift = SiftDetector::new();
    let probe = SIFT_PROBE.clamp(2, n);
    let sift_secs = measure_secs(SPEED_SAMPLES, || decode_and_score(&mut sift, probe)) * n as f64
        / probe as f64;

    Table3Row {
        dataset: prepared.spec.id.to_string(),
        samples: SPEED_SAMPLES,
        sieve_fps: n as f64 / sieve_secs,
        mse_fps: n as f64 / mse_secs,
        sift_fps: n as f64 / sift_secs,
    }
}

// ---------------------------------------------------------------------------
// Fig 4 / Fig 5: end-to-end throughput and data transfer.
// ---------------------------------------------------------------------------

/// Builds one video's workload for the end-to-end experiments.
///
/// Per-operation costs are *measured* on this machine at the dataset's
/// generated resolution, then the video is extrapolated to
/// `frames_per_video` (the paper uses 4 hours = 432 000 frames per video;
/// byte counts scale linearly with frame count at the measured per-frame
/// rates).
pub fn build_workload(prepared: &Prepared, frames_per_video: usize) -> VideoWorkload {
    let video = &prepared.video;
    let semantic = prepared.semantic_eval();
    let default_video = prepared.default_eval();
    let n = semantic.frame_count();
    let sem_stats = BitstreamStats::from_video(semantic);
    let def_stats = BitstreamStats::from_video(default_video);

    // MSE selection count: the paper sets the MSE threshold to reach the
    // same quality target as the tuned semantic parameters (95% F1 on
    // training) and then deploys that threshold. We mirror the methodology
    // exactly through the unified layer: one batched calibration pass over
    // the training prefix sweeps every candidate budget
    // (`calibrate_fractions`), the smallest one reaching the target
    // accuracy fixes the *absolute* threshold, and a threshold-budget
    // selector streams the eval half once to count what it would ship.
    // Because raw pixel-difference thresholds are
    // noise-distribution-sensitive, they transfer poorly from train to
    // eval — MSE selects considerably more frames than SiEVE for the same
    // target, the asymmetry behind Fig 5. Unlabelled feeds use the paper's
    // 1-per-5-seconds rate.
    let mse_selected = if prepared.spec.has_labels {
        let half = prepared.split();
        let train_default = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::x264_default(),
            (0..half).map(|i| video.frame(i)),
        );
        let train_labels = &video.labels()[..half];
        let goal = 0.95;
        let targets = [0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2];
        let curve = MseSelector::mse(Budget::Threshold(0.0))
            .calibrate_fractions(&train_default, &targets)
            .expect("train stream decodes");
        let threshold = curve
            .points
            .iter()
            .find(|p| score_selection(train_labels, &p.selected).accuracy >= goal)
            .map(|p| p.threshold);
        match threshold {
            Some(t) => MseSelector::mse(Budget::Threshold(t))
                .select_indices(default_video)
                .expect("eval stream decodes")
                .len(),
            None => (n / 5).max(1),
        }
    } else {
        n / (5 * video.fps() as usize)
    };

    // --- Cost calibration on real operations at this resolution. ---
    let bytes = semantic.to_bytes();
    let seek_per_frame = measure_secs(5, || {
        let idx = VideoIndex::parse(&bytes).expect("parses");
        black_box(idx.frame_count());
    }) / n as f64;
    let first_i = semantic.i_frame_indices()[0];
    let iframe_decode = measure_secs(5, || {
        black_box(semantic.decode_iframe_at(first_i).expect("decodes"));
    });
    // Full-decode cost: stream-decode a prefix.
    let probe = 40.min(n);
    let full_decode_per_frame = measure_secs(3, || {
        let mut dec = Decoder::new(default_video.resolution(), default_video.quality());
        for ef in default_video.frames().iter().take(probe) {
            black_box(dec.decode_frame(ef).expect("decodes"));
        }
    }) / probe as f64;
    let fa = video.frame(0);
    let fb = video.frame(1.min(n - 1));
    let mse_per_pair = measure_secs(5, || {
        black_box(sieve_filters::mse_luma(&fa, &fb));
    });
    let nn_res = Resolution::new(NN_INPUT_SIZE, NN_INPUT_SIZE);
    let resize_to_nn = measure_secs(5, || {
        black_box(fa.resize(nn_res));
    });
    // What actually crosses the WAN per analysed frame: the decoded I-frame
    // resized to the NN's input resolution and re-compressed as a still
    // (the paper resizes to the 300x300 YOLO input; we use the same
    // fraction of the source resolution and measure the real encoded size).
    let ship_res = Resolution::new(
        (video.resolution().width() / 2).max(32) / 2 * 2,
        (video.resolution().height() / 2).max(32) / 2 * 2,
    );
    let shipped_still = {
        let resized = fa.resize(ship_res);
        let mut enc = sieve_video::Encoder::new(ship_res, EncoderConfig::new(1, 0));
        enc.encode_frame(&resized).data.len() as u64
    };
    let model = reference_model(1);
    let input = frame_to_tensor(&fa);
    let nn_inference = measure_secs(3, || {
        black_box(model.forward(&input));
    });

    // --- Extrapolate to the requested video length. ---
    let scale_factor = frames_per_video as f64 / n as f64;
    VideoWorkload {
        name: prepared.spec.id.to_string(),
        frame_count: frames_per_video,
        semantic_i_frames: ((sem_stats.i_frames as f64) * scale_factor).round() as usize,
        mse_selected: ((mse_selected as f64) * scale_factor).round() as usize,
        semantic_stream_bytes: (sem_stats.total_bytes as f64 * scale_factor) as u64,
        default_stream_bytes: (def_stats.total_bytes as f64 * scale_factor) as u64,
        nn_input_bytes: shipped_still,
        label_bytes: 16,
        costs: WorkloadCosts {
            seek_per_frame,
            iframe_decode,
            full_decode_per_frame,
            mse_per_pair,
            resize_to_nn,
            nn_inference,
        },
    }
}

/// Fig 4 and Fig 5: the five baselines over the first 1, 3 and 5 of
/// `workloads` on the paper's post-event topology — the semantically
/// encoded videos are pre-recorded on the edge server, so the camera→edge
/// hop is an edge storage read (fast), while edge→cloud remains the shaped
/// 30 Mbps WAN. The bytes are the 5-video run's.
///
/// # Panics
///
/// Panics if there are fewer than five workloads.
pub fn end_to_end(workloads: &[VideoWorkload]) -> Vec<BaselineRow> {
    let mut topology = ThreeTier::paper_default();
    topology.camera_edge_bps = 2.0e9;
    let [one, three, five] = [1, 3, 5].map(|k| simulate_all(&workloads[..k], &topology));
    let rows = one.iter().zip(&three).zip(five);
    rows.map(|((one, three), five)| BaselineRow {
        baseline: five.baseline.label().to_string(),
        videos_1: one.throughput_fps,
        videos_3: three.throughput_fps,
        videos_5: five.throughput_fps,
        camera_edge_bytes: five.camera_edge_bytes,
        edge_cloud_bytes: five.edge_cloud_bytes,
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's headline experiments.
// ---------------------------------------------------------------------------

/// Ablations 1 and 2 on the whole `coral` feed: a scenecut sweep at fixed
/// GOP — the sensitivity knob in isolation — and a GOP sweep with scenecut
/// off — what blind keyframing alone achieves.
pub fn encoding_ablations(coral: &Prepared) -> [Vec<EncodingPoint>; 2] {
    let point = |setting, config| {
        let selected = coral.trace().i_frames(&config);
        let quality = score_selection(coral.video.labels(), &selected).into();
        EncodingPoint { setting, quality }
    };
    let scenecut_sweep = [0, 40, 100, 150, 200, 250, 300, 400]
        .map(|sc| point(sc, EncoderConfig::new(600, sc as u16)));
    let gop_sweep = [30, 100, 250, 600].map(|gop| point(gop, EncoderConfig::new(gop, 0)));
    [scenecut_sweep.into(), gop_sweep.into()]
}

/// Ablation 3: object size vs tuned scenecut — the paper's
/// per-camera-tuning rationale (smaller objects need more sensitive
/// thresholds).
pub fn object_size_ablation(scale: DatasetScale) -> Vec<ObjectSizePoint> {
    let grid = ConfigGrid {
        gop_sizes: vec![600],
        scenecuts: vec![60, 100, 150, 200, 250, 300],
    };
    [0.15, 0.25, 0.40]
        .iter()
        .map(|&object_scale| {
            let mut spec = DatasetSpec::of(DatasetId::JacksonSquare);
            spec.object_scale = object_scale as f32;
            let video = spec.generate(scale);
            let trace = RatioTrace::measure(EncoderConfig::default().search_range, video.frames());
            let best = tune(&grid, video.labels(), &trace).best;
            ObjectSizePoint {
                object_scale,
                best_scenecut: best.config.scenecut,
                f1: best.quality.f1,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_split_halves() {
        let p = Prepared::new(DatasetId::JacksonSquare, DatasetScale::Tiny);
        assert_eq!(p.split() * 2, p.video.frame_count());
        assert_eq!(p.eval_labels().len(), p.split());
    }
}
