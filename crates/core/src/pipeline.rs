//! End-to-end deployment simulation: the five baselines of Fig 4 / Fig 5.
//!
//! Each baseline is a linear pipeline over the 3-tier topology:
//!
//! ```text
//! camera --(camera->edge link)--> edge --(edge->cloud link)--> cloud
//! ```
//!
//! Per-frame work on each stage is described with costs measured on the real
//! machine ([`WorkloadCosts`], see `sieve-simnet::calibrate`), then replayed
//! through the exact tandem-queue simulator. This makes the 2.16M-frame
//! experiment tractable while keeping every relative magnitude (seek vs
//! decode vs NN) grounded in real measurements.

use sieve_simnet::{Pipeline, StageSpec, StepWork, ThreeTier};

use crate::select::{FrameSelector, IFrameSelector, SelectorCost};

/// The selection policy side of a baseline: which frames get analysed.
/// Mirrors the [`crate::FrameSelector`] implementations (`sieve-filters`
/// provides the uniform/MSE adapters); per-frame costs come from the
/// selector's own [`SelectorCost`] via [`SelectorKind::cost_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// I-frame seeking over the semantically encoded stream (metadata scan;
    /// only analysed frames are decoded).
    IFrame,
    /// Uniform sampling over the default-encoded stream (P-frames chain, so
    /// reaching a sampled frame still means full-decoding up to it).
    Uniform,
    /// MSE differencing over the default-encoded stream (full decode plus a
    /// per-pair comparison).
    Mse,
}

impl SelectorKind {
    /// True when the policy consumes the semantically encoded stream.
    pub fn uses_semantic_encoding(&self) -> bool {
        matches!(self, SelectorKind::IFrame)
    }

    /// Frames this policy analyses for `video`.
    fn analysed_frames(&self, video: &VideoWorkload) -> usize {
        match self {
            // Uniform sampling is budget-matched to SiEVE's I-frame count,
            // the paper's fair-comparison methodology.
            SelectorKind::IFrame | SelectorKind::Uniform => video.semantic_i_frames,
            SelectorKind::Mse => video.mse_selected,
        }
    }

    /// The per-frame cost model of this policy's [`FrameSelector`]
    /// implementation — the one cost source the simulator and the live path
    /// share. The I-frame row delegates to the real core selector; the
    /// uniform/MSE rows name the same canonical [`SelectorCost`] shapes the
    /// `sieve-filters` adapters return (cross-checked by a test there,
    /// since this crate cannot depend on its own dependents).
    pub fn cost_model(&self) -> SelectorCost {
        match self {
            SelectorKind::IFrame => IFrameSelector::new().cost_model(),
            SelectorKind::Uniform => SelectorCost::full_stream_decode(),
            SelectorKind::Mse => SelectorCost::full_stream_decode().with_pairwise_compare(),
        }
    }
}

/// The placement side of a baseline: which tier selects and which runs the
/// NN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Deployment {
    /// Selection at the edge, NN inference in the cloud (3-tier).
    EdgeSelectCloudNn,
    /// The edge only relays; selection and NN both in the cloud (2-tier,
    /// cloud-only).
    CloudOnly,
    /// Selection and NN both at the edge; only result tuples cross the WAN
    /// (2-tier, edge-only).
    EdgeOnly,
}

/// A baseline's full specification: selection policy plus deployment. The
/// registry row the generic simulator consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaselineSpec {
    /// Which frames get analysed, and at what per-frame cost.
    pub selector: SelectorKind,
    /// Where selection and inference run.
    pub deployment: Deployment,
}

/// The five end-to-end configurations the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// I-frame seeking at the edge, NN inference in the cloud (SiEVE's
    /// 3-tier deployment).
    IFrameEdgeCloudNn,
    /// Full video shipped to the cloud; seeking and NN both there (2-tier,
    /// cloud-only).
    IFrameCloudCloudNn,
    /// Seeking and NN both at the edge (2-tier, edge-only).
    IFrameEdgeEdgeNn,
    /// Uniform sampling at the edge over the *default*-encoded video, NN in
    /// the cloud.
    UniformEdgeCloudNn,
    /// MSE differencing at the edge over the default-encoded video, NN in
    /// the cloud.
    MseEdgeCloudNn,
}

impl Baseline {
    /// All five baselines in the paper's legend order.
    pub const ALL: [Baseline; 5] = [
        Baseline::IFrameEdgeCloudNn,
        Baseline::IFrameCloudCloudNn,
        Baseline::IFrameEdgeEdgeNn,
        Baseline::UniformEdgeCloudNn,
        Baseline::MseEdgeCloudNn,
    ];

    /// The registry: each named baseline is one `(selector, deployment)`
    /// row. Adding a baseline is adding a variant plus its row here — the
    /// simulator itself is generic over the spec.
    pub fn spec(&self) -> BaselineSpec {
        let (selector, deployment) = match self {
            Baseline::IFrameEdgeCloudNn => (SelectorKind::IFrame, Deployment::EdgeSelectCloudNn),
            Baseline::IFrameCloudCloudNn => (SelectorKind::IFrame, Deployment::CloudOnly),
            Baseline::IFrameEdgeEdgeNn => (SelectorKind::IFrame, Deployment::EdgeOnly),
            Baseline::UniformEdgeCloudNn => (SelectorKind::Uniform, Deployment::EdgeSelectCloudNn),
            Baseline::MseEdgeCloudNn => (SelectorKind::Mse, Deployment::EdgeSelectCloudNn),
        };
        BaselineSpec {
            selector,
            deployment,
        }
    }

    /// The paper's legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Baseline::IFrameEdgeCloudNn => "I-frame edge + Cloud NN",
            Baseline::IFrameCloudCloudNn => "I-frame Cloud + Cloud NN",
            Baseline::IFrameEdgeEdgeNn => "I-frame edge + edge NN",
            Baseline::UniformEdgeCloudNn => "Uniform Sampling edge + Cloud NN",
            Baseline::MseEdgeCloudNn => "MSE Edge + Cloud NN",
        }
    }

    /// True for the baselines that consume semantically encoded video.
    pub fn uses_semantic_encoding(&self) -> bool {
        self.spec().selector.uses_semantic_encoding()
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Reference-machine per-operation costs in seconds (measured, not assumed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCosts {
    /// Scanning one frame's metadata in the I-frame seeker.
    pub seek_per_frame: f64,
    /// Independently decoding one I-frame.
    pub iframe_decode: f64,
    /// Fully decoding one frame in the classical pipeline (stream average).
    pub full_decode_per_frame: f64,
    /// One MSE comparison between consecutive decoded frames.
    pub mse_per_pair: f64,
    /// Resizing a decoded frame to the NN input resolution.
    pub resize_to_nn: f64,
    /// One NN inference at the reference machine's speed.
    pub nn_inference: f64,
}

/// One video's contribution to the end-to-end experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoWorkload {
    /// Dataset name (reporting only).
    pub name: String,
    /// Total frames (I + P).
    pub frame_count: usize,
    /// I-frames in the semantically encoded stream.
    pub semantic_i_frames: usize,
    /// Frames selected by the MSE filter on the default-encoded stream.
    pub mse_selected: usize,
    /// Total bytes of the semantically encoded stream.
    pub semantic_stream_bytes: u64,
    /// Total bytes of the default-encoded stream.
    pub default_stream_bytes: u64,
    /// Bytes of one frame resized to the NN input (what crosses the WAN per
    /// analysed frame).
    pub nn_input_bytes: u64,
    /// Bytes of one `(frame id, labels)` result tuple.
    pub label_bytes: u64,
    /// Measured per-operation costs for this video's resolution.
    pub costs: WorkloadCosts,
}

/// Outcome of simulating one baseline over a set of videos.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Which baseline.
    pub baseline: Baseline,
    /// Frames processed per second of simulated time (Fig 4's y-axis).
    pub throughput_fps: f64,
    /// Bytes that crossed camera→edge (Fig 5, first group).
    pub camera_edge_bytes: u64,
    /// Bytes that crossed edge→cloud (Fig 5, second group).
    pub edge_cloud_bytes: u64,
    /// Simulated completion time of the last frame.
    pub makespan_secs: f64,
    /// Total frames pushed through.
    pub frames: u64,
}

/// Simulates `baseline` processing `videos` back to back on `topology`.
///
/// # Panics
///
/// Panics if `videos` is empty.
pub fn simulate_baseline(
    baseline: Baseline,
    videos: &[VideoWorkload],
    topology: &ThreeTier,
) -> BaselineOutcome {
    assert!(!videos.is_empty(), "need at least one video");
    let mut pipeline = Pipeline::new(vec![
        StageSpec::Transfer {
            name: "camera->edge".into(),
            bandwidth_bps: topology.camera_edge.bandwidth_bps,
            // Per-frame latency is amortized away for a continuous stream.
            latency_secs: 0.0,
        },
        StageSpec::Compute {
            name: "edge".into(),
        },
        StageSpec::Transfer {
            name: "edge->cloud".into(),
            bandwidth_bps: topology.edge_cloud.bandwidth_bps,
            latency_secs: 0.0,
        },
        StageSpec::Compute {
            name: "cloud".into(),
        },
    ]);
    let mut total_frames = 0u64;
    for v in videos {
        submit_video(baseline, v, topology, &mut pipeline);
        total_frames += v.frame_count as u64;
    }
    let report = pipeline.report();
    BaselineOutcome {
        baseline,
        throughput_fps: report.throughput(total_frames),
        camera_edge_bytes: report.stage_bytes[0],
        edge_cloud_bytes: report.stage_bytes[2],
        makespan_secs: report.makespan_secs,
        frames: total_frames,
    }
}

/// Simulates all five baselines.
pub fn simulate_all(videos: &[VideoWorkload], topology: &ThreeTier) -> Vec<BaselineOutcome> {
    Baseline::ALL
        .iter()
        .map(|&b| simulate_baseline(b, videos, topology))
        .collect()
}

/// Submits every frame of one video as the 4-stage work its baseline spec
/// implies. Fully generic: the selector kind decides which stream is
/// shipped and which frames are analysed, its [`SelectorCost`] model prices
/// each stream frame, and the deployment decides which tier pays it and
/// what crosses each link.
fn submit_video(baseline: Baseline, v: &VideoWorkload, topo: &ThreeTier, pipeline: &mut Pipeline) {
    let BaselineSpec {
        selector,
        deployment,
    } = baseline.spec();
    let cost = selector.cost_model();
    let n = v.frame_count.max(1);
    let c = &v.costs;
    let edge = &topo.edge;
    let cloud = &topo.cloud;
    // Per-frame share of the stream bytes on the camera->edge link.
    let stream_bytes = if selector.uses_semantic_encoding() {
        v.semantic_stream_bytes
    } else {
        v.default_stream_bytes
    };
    let cam_share = stream_bytes / n as u64;
    let analysed = selector.analysed_frames(v);
    // Spread analysed frames evenly across the stream (their exact position
    // does not affect aggregate throughput or bytes in a FIFO pipeline).
    let stride = (n / analysed.max(1)).max(1);
    for i in 0..n {
        let is_analysed = i % stride == 0 && i / stride < analysed;
        let select_secs = cost.per_frame_secs(c, is_analysed);
        let nn_secs = if is_analysed { c.nn_inference } else { 0.0 };
        let analysed_transfer = |bytes: u64| {
            if is_analysed {
                StepWork::Transfer { bytes }
            } else {
                StepWork::Skip
            }
        };
        let work = match deployment {
            // camera->edge stream, edge selects, WAN carries NN inputs,
            // cloud infers.
            Deployment::EdgeSelectCloudNn => [
                StepWork::Transfer { bytes: cam_share },
                StepWork::Compute {
                    secs: edge.service_secs(select_secs),
                },
                analysed_transfer(v.nn_input_bytes),
                if is_analysed {
                    StepWork::Compute {
                        secs: cloud.service_secs(nn_secs),
                    }
                } else {
                    StepWork::Skip
                },
            ],
            // The edge only relays bytes (relay CPU treated as free); the
            // whole stream crosses the WAN and the cloud does everything.
            Deployment::CloudOnly => [
                StepWork::Transfer { bytes: cam_share },
                StepWork::Compute { secs: 0.0 },
                StepWork::Transfer { bytes: cam_share },
                StepWork::Compute {
                    secs: cloud.service_secs(select_secs + nn_secs),
                },
            ],
            // The edge selects and infers; only result tuples cross the WAN.
            Deployment::EdgeOnly => [
                StepWork::Transfer { bytes: cam_share },
                StepWork::Compute {
                    secs: edge.service_secs(select_secs + nn_secs),
                },
                analysed_transfer(v.label_bytes),
                StepWork::Compute { secs: 0.0 },
            ],
        };
        pipeline.submit(0.0, &work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> WorkloadCosts {
        WorkloadCosts {
            seek_per_frame: 0.5e-6,
            iframe_decode: 2.0e-3,
            full_decode_per_frame: 8.0e-3,
            mse_per_pair: 4.0e-3,
            resize_to_nn: 0.5e-3,
            nn_inference: 10.0e-3,
        }
    }

    fn workload() -> VideoWorkload {
        VideoWorkload {
            name: "test".into(),
            frame_count: 10_000,
            semantic_i_frames: 200,             // 2%
            mse_selected: 500,                  // 2.5x the I-frames, as the paper saw
            semantic_stream_bytes: 112_000_000, // 12% larger than default
            default_stream_bytes: 100_000_000,
            nn_input_bytes: 1536, // 32x32 YUV420
            label_bytes: 16,
            costs: costs(),
        }
    }

    #[test]
    fn sieve_3tier_beats_all_others() {
        let outcomes = simulate_all(&[workload()], &ThreeTier::paper_default());
        let sieve = outcomes
            .iter()
            .find(|o| o.baseline == Baseline::IFrameEdgeCloudNn)
            .unwrap();
        for o in &outcomes {
            if o.baseline != Baseline::IFrameEdgeCloudNn {
                assert!(
                    sieve.throughput_fps >= o.throughput_fps,
                    "SiEVE ({:.0} fps) must beat {} ({:.0} fps)",
                    sieve.throughput_fps,
                    o.baseline,
                    o.throughput_fps
                );
            }
        }
    }

    #[test]
    fn semantic_baselines_beat_decode_baselines() {
        let outcomes = simulate_all(&[workload()], &ThreeTier::paper_default());
        let min_semantic = outcomes
            .iter()
            .filter(|o| o.baseline.uses_semantic_encoding())
            .map(|o| o.throughput_fps)
            .fold(f64::MAX, f64::min);
        let max_decode = outcomes
            .iter()
            .filter(|o| !o.baseline.uses_semantic_encoding())
            .map(|o| o.throughput_fps)
            .fold(f64::MIN, f64::max);
        assert!(
            min_semantic > max_decode,
            "every I-frame baseline ({min_semantic:.0} fps) must beat every \
             full-decode baseline ({max_decode:.0} fps)"
        );
    }

    #[test]
    fn camera_edge_bytes_larger_for_semantic() {
        let outcomes = simulate_all(&[workload()], &ThreeTier::paper_default());
        let sieve = &outcomes[0];
        let mse = outcomes
            .iter()
            .find(|o| o.baseline == Baseline::MseEdgeCloudNn)
            .unwrap();
        assert!(
            sieve.camera_edge_bytes > mse.camera_edge_bytes,
            "semantic re-encoding inflates the camera->edge stream"
        );
    }

    #[test]
    fn edge_cloud_bytes_mse_larger_than_sieve() {
        let outcomes = simulate_all(&[workload()], &ThreeTier::paper_default());
        let sieve = &outcomes[0];
        let mse = outcomes
            .iter()
            .find(|o| o.baseline == Baseline::MseEdgeCloudNn)
            .unwrap();
        // MSE selects 2.5x more frames, so it ships ~2.5x more bytes.
        let ratio = mse.edge_cloud_bytes as f64 / sieve.edge_cloud_bytes as f64;
        assert!(
            (2.0..3.0).contains(&ratio),
            "MSE/SiEVE byte ratio {ratio} should be ~2.5"
        );
    }

    #[test]
    fn cloud_only_ships_whole_stream() {
        let w = workload();
        let o = simulate_baseline(
            Baseline::IFrameCloudCloudNn,
            std::slice::from_ref(&w),
            &ThreeTier::paper_default(),
        );
        // Whole semantic stream crosses the WAN (modulo per-frame rounding).
        let expected = (w.semantic_stream_bytes / w.frame_count as u64) * w.frame_count as u64;
        assert_eq!(o.edge_cloud_bytes, expected);
    }

    #[test]
    fn edge_only_ships_labels_only() {
        let w = workload();
        let o = simulate_baseline(
            Baseline::IFrameEdgeEdgeNn,
            std::slice::from_ref(&w),
            &ThreeTier::paper_default(),
        );
        assert_eq!(
            o.edge_cloud_bytes,
            w.label_bytes * w.semantic_i_frames as u64
        );
    }

    #[test]
    fn multiple_videos_accumulate() {
        let one = simulate_baseline(
            Baseline::IFrameEdgeCloudNn,
            &[workload()],
            &ThreeTier::paper_default(),
        );
        let three = simulate_baseline(
            Baseline::IFrameEdgeCloudNn,
            &[workload(), workload(), workload()],
            &ThreeTier::paper_default(),
        );
        assert_eq!(three.frames, 3 * one.frames);
        assert!(three.edge_cloud_bytes == 3 * one.edge_cloud_bytes);
    }
}
