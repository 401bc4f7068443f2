//! End-to-end deployment simulation: the five baselines of Fig 4 / Fig 5.
//!
//! Each baseline is a linear pipeline over the 3-tier topology:
//!
//! ```text
//! camera --(camera->edge link)--> edge --(edge->cloud link)--> cloud
//! ```
//!
//! Per-frame work on each stage is described with costs measured on the real
//! machine ([`WorkloadCosts`]; `sieve-bench` measures them), then replayed
//! through an exact tandem queue: four FIFO single servers, one per link and
//! tier, each tracked by its next-free time. No event heap is needed, which
//! makes the 2.16M-frame experiment tractable while keeping every relative
//! magnitude (seek vs decode vs NN) grounded in real measurements.

/// The paper's 3-tier testbed as the simulator prices it: the rate of each
/// link and the compute speed of each tier. The camera encodes in hardware,
/// so it has no stage of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreeTier {
    /// Camera→edge link rate, bits per second.
    pub camera_edge_bps: f64,
    /// Edge→cloud WAN rate, bits per second.
    pub edge_cloud_bps: f64,
    /// Edge compute speed; reference-machine service times divide by it.
    pub edge_speed: f64,
    /// Cloud compute speed, as [`ThreeTier::edge_speed`].
    pub cloud_speed: f64,
}

impl ThreeTier {
    /// The paper's traffic-shaped edge→cloud WAN rate (30 Mbps).
    pub const PAPER_WAN_BPS: f64 = 30.0e6;

    /// The paper's testbed shape: a 100 Mbps camera LAN, the edge as the
    /// reference machine (speed 1.0), the cloud's Xeon modelled ~2x faster
    /// for NN work, and the WAN shaped to [`ThreeTier::PAPER_WAN_BPS`].
    pub fn paper_default() -> Self {
        Self {
            camera_edge_bps: 100.0e6,
            edge_cloud_bps: Self::PAPER_WAN_BPS,
            edge_speed: 1.0,
            cloud_speed: 2.0,
        }
    }
}

/// The selection policy side of a baseline: which frames get analysed, and
/// what each stream frame costs the selecting tier
/// ([`SelectorKind::per_frame_secs`]). Mirrors the [`crate::FrameSelector`]
/// implementations (`sieve-filters` provides the uniform/MSE adapters).
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
    /// Frames this policy analyses for `video`.
    fn analysed_frames(&self, video: &VideoWorkload) -> usize {
        match self {
            // Uniform sampling is budget-matched to SiEVE's I-frame count,
            // the paper's fair-comparison methodology.
            SelectorKind::IFrame | SelectorKind::Uniform => video.semantic_i_frames,
            SelectorKind::Mse => video.mse_selected,
        }
    }

    /// Seconds of selection work one stream frame costs on the reference
    /// machine described by `costs`. Every frame pays the policy's scan:
    /// I-frame seeking reads metadata, uniform sampling full-decodes (P-frames
    /// chain, so *reaching* a sampled frame means decoding up to it), and MSE
    /// also compares each frame with its predecessor. `analysed` frames
    /// additionally pay the resize to the NN input, after an independent
    /// I-frame decode for the seeker.
    // lint:allow(dead-pub): tests/proptests.rs `pipeline_conservation` prices the edge's busy time with it
    pub fn per_frame_secs(&self, costs: &WorkloadCosts, analysed: bool) -> f64 {
        let c = costs;
        // Keep each sum's left-to-right order: regrouping the terms can
        // change the last bit of a price, and with it the simulator's output.
        match (self, analysed) {
            (SelectorKind::IFrame, false) => c.seek_per_frame,
            (SelectorKind::IFrame, true) => c.seek_per_frame + c.iframe_decode + c.resize_to_nn,
            (SelectorKind::Uniform, false) => c.full_decode_per_frame,
            (SelectorKind::Uniform, true) => c.full_decode_per_frame + c.resize_to_nn,
            (SelectorKind::Mse, false) => c.full_decode_per_frame + c.mse_per_pair,
            (SelectorKind::Mse, true) => c.full_decode_per_frame + c.mse_per_pair + c.resize_to_nn,
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
/// Panics if `videos` is empty, or if a rate or speed of `topology` is not
/// positive and finite.
fn simulate_baseline(
    baseline: Baseline,
    videos: &[VideoWorkload],
    topology: &ThreeTier,
) -> BaselineOutcome {
    assert!(!videos.is_empty(), "need at least one video");
    let t = topology;
    let valid = |v: f64| v > 0.0 && v.is_finite();
    assert!(
        valid(t.camera_edge_bps)
            && valid(t.edge_cloud_bps)
            && valid(t.edge_speed)
            && valid(t.cloud_speed),
        "topology rates and speeds must be positive and finite: {t:?}"
    );
    let mut tandem = Tandem::default();
    let mut bytes = [0u64; 2];
    for v in videos {
        submit_video(baseline, v, t, &mut tandem, &mut bytes);
    }
    let frames = videos.iter().map(|v| v.frame_count as u64).sum();
    let makespan_secs = tandem.makespan_secs;
    BaselineOutcome {
        baseline,
        throughput_fps: if makespan_secs > 0.0 {
            frames as f64 / makespan_secs
        } else {
            0.0
        },
        camera_edge_bytes: bytes[0],
        edge_cloud_bytes: bytes[1],
        makespan_secs,
        frames,
    }
}

/// Simulates all five baselines.
pub fn simulate_all(videos: &[VideoWorkload], topology: &ThreeTier) -> Vec<BaselineOutcome> {
    Baseline::ALL
        .iter()
        .map(|&b| simulate_baseline(b, videos, topology))
        .collect()
}

/// Seconds `bytes` hold a link of `bps` bits per second.
fn transfer_secs(bytes: u64, bps: f64) -> f64 {
    bytes as f64 * 8.0 / bps
}

/// The four stages in a row — camera→edge link, edge, edge→cloud link,
/// cloud — each a FIFO single server (how the paper's NiFi operators behave
/// with one concurrent task), tracked by the time it next falls free.
#[derive(Debug, Default)]
struct Tandem {
    free_at: [f64; 4],
    makespan_secs: f64,
}

impl Tandem {
    /// Passes one frame, present at time 0, through the stages and returns
    /// its completion time. `Some(secs)` holds a stage for `secs` once it is
    /// free, even when `secs` is zero; `None` passes the stage by.
    fn submit(&mut self, service: [Option<f64>; 4]) -> f64 {
        let mut t = 0.0f64;
        for (free_at, secs) in self.free_at.iter_mut().zip(service) {
            if let Some(secs) = secs {
                t = t.max(*free_at) + secs;
                *free_at = t;
            }
        }
        self.makespan_secs = self.makespan_secs.max(t);
        t
    }
}

/// Submits every frame of one video as the four-stage work its baseline
/// spec implies, adding what crosses each link to `bytes` (camera→edge,
/// edge→cloud). The selector kind decides which stream is shipped, which
/// frames are analysed and what each stream frame costs, and the deployment
/// decides which tier pays it and what crosses each link.
fn submit_video(
    baseline: Baseline,
    v: &VideoWorkload,
    topo: &ThreeTier,
    tandem: &mut Tandem,
    bytes: &mut [u64; 2],
) {
    let BaselineSpec {
        selector,
        deployment,
    } = baseline.spec();
    let n = v.frame_count.max(1);
    let c = &v.costs;
    // Per-frame share of the stream bytes on the camera->edge link.
    let stream_bytes = if selector == SelectorKind::IFrame {
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
        let select_secs = selector.per_frame_secs(c, is_analysed);
        let nn_secs = if is_analysed { c.nn_inference } else { 0.0 };
        // Bytes on the WAN and the tiers' compute; a frame that is not
        // analysed skips an edge-selecting deployment's WAN and cloud.
        let (wan_bytes, edge_secs, cloud_secs) = match deployment {
            // camera->edge stream, edge selects, WAN carries NN inputs,
            // cloud infers.
            Deployment::EdgeSelectCloudNn => (
                is_analysed.then_some(v.nn_input_bytes),
                Some(select_secs / topo.edge_speed),
                is_analysed.then_some(nn_secs / topo.cloud_speed),
            ),
            // The edge only relays bytes (relay CPU treated as free, but the
            // frame still waits its turn); the whole stream crosses the WAN
            // and the cloud does everything.
            Deployment::CloudOnly => (
                Some(cam_share),
                Some(0.0),
                Some((select_secs + nn_secs) / topo.cloud_speed),
            ),
            // The edge selects and infers; only result tuples cross the WAN,
            // and the idle cloud still takes each frame in turn.
            Deployment::EdgeOnly => (
                is_analysed.then_some(v.label_bytes),
                Some((select_secs + nn_secs) / topo.edge_speed),
                Some(0.0),
            ),
        };
        bytes[0] += cam_share;
        bytes[1] += wan_bytes.unwrap_or(0);
        tandem.submit([
            Some(transfer_secs(cam_share, topo.camera_edge_bps)),
            edge_secs,
            wan_bytes.map(|b| transfer_secs(b, topo.edge_cloud_bps)),
            cloud_secs,
        ]);
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
    fn cost_models_reproduce_paper_asymmetry() {
        let c = costs();
        let secs = |kind: SelectorKind, analysed| kind.per_frame_secs(&c, analysed);
        // Unanalysed frames: seeking pays only the metadata scan.
        assert!(secs(SelectorKind::IFrame, false) < 1e-5);
        assert!((secs(SelectorKind::Uniform, false) - 8.0e-3).abs() < 1e-12);
        assert!((secs(SelectorKind::Mse, false) - 12.0e-3).abs() < 1e-12);
        // Analysed frames: seeking adds the independent decode + resize.
        assert!((secs(SelectorKind::IFrame, true) - (0.5e-6 + 2.0e-3 + 0.5e-3)).abs() < 1e-12);
        assert!((secs(SelectorKind::Uniform, true) - 8.5e-3).abs() < 1e-12);
        assert!(secs(SelectorKind::IFrame, true) < secs(SelectorKind::Uniform, true));
    }

    /// `baseline` over `videos` on the paper's topology.
    fn on_paper(baseline: Baseline, videos: &[VideoWorkload]) -> BaselineOutcome {
        simulate_baseline(baseline, videos, &ThreeTier::paper_default())
    }

    #[test]
    fn sieve_3tier_beats_all_others() {
        let outcomes = simulate_all(&[workload()], &ThreeTier::paper_default());
        let (sieve, others) = outcomes.split_first().unwrap();
        assert_eq!(sieve.baseline, Baseline::IFrameEdgeCloudNn);
        for o in others {
            assert!(
                sieve.throughput_fps >= o.throughput_fps,
                "SiEVE ({:.0} fps) must beat {} ({:.0} fps)",
                sieve.throughput_fps,
                o.baseline,
                o.throughput_fps
            );
        }
    }

    #[test]
    fn semantic_baselines_beat_decode_baselines() {
        let outcomes = simulate_all(&[workload()], &ThreeTier::paper_default());
        let min_semantic = outcomes
            .iter()
            .filter(|o| o.baseline.spec().selector == SelectorKind::IFrame)
            .map(|o| o.throughput_fps)
            .fold(f64::MAX, f64::min);
        let max_decode = outcomes
            .iter()
            .filter(|o| o.baseline.spec().selector != SelectorKind::IFrame)
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
        let sieve = on_paper(Baseline::IFrameEdgeCloudNn, &[workload()]);
        let mse = on_paper(Baseline::MseEdgeCloudNn, &[workload()]);
        assert!(
            sieve.camera_edge_bytes > mse.camera_edge_bytes,
            "semantic re-encoding inflates the camera->edge stream"
        );
    }

    #[test]
    fn edge_cloud_bytes_mse_larger_than_sieve() {
        let sieve = on_paper(Baseline::IFrameEdgeCloudNn, &[workload()]);
        let mse = on_paper(Baseline::MseEdgeCloudNn, &[workload()]);
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
        let o = on_paper(Baseline::IFrameCloudCloudNn, std::slice::from_ref(&w));
        // Whole semantic stream crosses the WAN (modulo per-frame rounding).
        let expected = (w.semantic_stream_bytes / w.frame_count as u64) * w.frame_count as u64;
        assert_eq!(o.edge_cloud_bytes, expected);
    }

    #[test]
    fn edge_only_ships_labels_only() {
        let w = workload();
        let o = on_paper(Baseline::IFrameEdgeEdgeNn, std::slice::from_ref(&w));
        assert_eq!(
            o.edge_cloud_bytes,
            w.label_bytes * w.semantic_i_frames as u64
        );
    }

    /// Three videos that reach the simulator's corners: analysed counts
    /// that do not divide the frame count, and no analysed frame at all.
    fn golden_videos() -> [VideoWorkload; 3] {
        let costs = |k: f64| WorkloadCosts {
            seek_per_frame: 0.37e-6 * k,
            iframe_decode: 1.9e-3 * k,
            full_decode_per_frame: 7.3e-3 * k,
            mse_per_pair: 3.1e-3 * k,
            resize_to_nn: 0.43e-3 * k,
            nn_inference: 11.7e-3 * k,
        };
        let video = |frame_count, semantic_i_frames, mse_selected, sem, def, k| VideoWorkload {
            frame_count,
            semantic_i_frames,
            mse_selected,
            semantic_stream_bytes: sem,
            default_stream_bytes: def,
            label_bytes: 17,
            costs: costs(k),
            ..workload()
        };
        [
            video(1000, 30, 70, 1_234_567, 1_100_003, 1.0),
            video(777, 0, 0, 901_234, 811_111, 0.61),
            video(501, 7, 13, 4_567_891, 3_999_999, 1.37),
        ]
    }

    /// `simulate_all`'s every output over 5 baselines × 1–3 videos × the
    /// paper's live topology and the post-event one `paper_bench` prices
    /// (the camera hop is a 2 Gbps storage read), floats as their bits: a
    /// rewrite of the simulator must reproduce the tandem queue exactly.
    #[test]
    fn simulate_all_is_bit_exact() {
        let videos = golden_videos();
        let mut post_event = ThreeTier::paper_default();
        post_event.camera_edge_bps = 2.0e9;
        let mut rows = Vec::new();
        for (t, topology) in [ThreeTier::paper_default(), post_event].iter().enumerate() {
            for k in 1..=videos.len() {
                for o in simulate_all(&videos[..k], topology) {
                    rows.push(format!(
                        "t{t} v{k} {:?}: fps {:016x} makespan {:016x} cam {} wan {} frames {}",
                        o.baseline,
                        o.throughput_fps.to_bits(),
                        o.makespan_secs.to_bits(),
                        o.camera_edge_bytes,
                        o.edge_cloud_bytes,
                        o.frames,
                    ));
                }
            }
        }
        assert_eq!(rows, GOLDEN);
    }

    const GOLDEN: [&str; 30] = [
        "t0 v1 IFrameEdgeCloudNn: fps 40b5e74ee6a1851b makespan 3fc6d3cd5c94ab70 cam 1234000 wan 46080 frames 1000",
        "t0 v1 IFrameCloudCloudNn: fps 40a7bbf836595e9e makespan 3fd5110c7951c1be cam 1234000 wan 1234000 frames 1000",
        "t0 v1 IFrameEdgeEdgeNn: fps 40a28a6fd248aeb8 makespan 3fdaf7b481fd468e cam 1234000 wan 510 frames 1000",
        "t0 v1 UniformEdgeCloudNn: fps 406117c6bf6d5832 makespan 401d407fed202902 cam 1100000 wan 46080 frames 1000",
        "t0 v1 MseEdgeCloudNn: fps 4057f808fe66f4d0 makespan 4024dc4199fe4399 cam 1100000 wan 107520 frames 1000",
        "t0 v2 IFrameEdgeCloudNn: fps 40c37617e53c4f7b makespan 3fc6d3cd5c94ab70 cam 2134543 wan 46080 frames 1777",
        "t0 v2 IFrameCloudCloudNn: fps 40a862a42d960eb4 makespan 3fe237ca3bb666ca cam 2134543 wan 2134543 frames 1777",
        "t0 v2 IFrameEdgeEdgeNn: fps 40b077746589d981 makespan 3fdafa940ee9749e cam 2134543 wan 510 frames 1777",
        "t0 v2 UniformEdgeCloudNn: fps 40649e6575aeeeb6 makespan 40258bc297bfa442 cam 1910411 wan 46080 frames 1777",
        "t0 v2 MseEdgeCloudNn: fps 405cec6b54f93f37 makespan 402eb80d3cff659a cam 1910411 wan 107520 frames 1777",
        "t0 v3 IFrameEdgeCloudNn: fps 40b098a05399ef1d makespan 3fe12854ec43f520 cam 6702160 wan 56832 frames 2278",
        "t0 v3 IFrameCloudCloudNn: fps 4093ea12f3b20b24 makespan 3ffc98f38c3147bc cam 6702160 wan 6702160 frames 2278",
        "t0 v3 IFrameEdgeEdgeNn: fps 40affd26f7f8c147 makespan 3fe1cd9597ef5a89 cam 6702160 wan 629 frames 2278",
        "t0 v3 UniformEdgeCloudNn: fps 4062094be2b7003c makespan 402f933f7b40129d cam 5910395 wan 56832 frames 2278",
        "t0 v3 MseEdgeCloudNn: fps 40594e1844ab1240 makespan 40368160bc0279db cam 5910395 wan 127488 frames 2278",
        "t1 v1 IFrameEdgeCloudNn: fps 40b5ea422d6f7422 makespan 3fc6d0baa4f96b85 cam 1234000 wan 46080 frames 1000",
        "t1 v1 IFrameCloudCloudNn: fps 40a7bdb38215a938 makespan 3fd50f831d8421c9 cam 1234000 wan 1234000 frames 1000",
        "t1 v1 IFrameEdgeEdgeNn: fps 40a28b7e52d8bec8 makespan 3fdaf62b262fa698 cam 1234000 wan 510 frames 1000",
        "t1 v1 UniformEdgeCloudNn: fps 406117d38dbf6e71 makespan 401d406a02d318ae cam 1100000 wan 46080 frames 1000",
        "t1 v1 MseEdgeCloudNn: fps 4057f81595969d3a makespan 4024dc36a4d7bb6f cam 1100000 wan 107520 frames 1000",
        "t1 v2 IFrameEdgeCloudNn: fps 40c378b6f56ce1ef makespan 3fc6d0baa4f96b85 cam 2134543 wan 46080 frames 1777",
        "t1 v2 IFrameCloudCloudNn: fps 40a863ab7bbe7564 makespan 3fe237058dcf96d0 cam 2134543 wan 2134543 frames 1777",
        "t1 v2 IFrameEdgeEdgeNn: fps 40b0786489b2e1fe makespan 3fdaf90ab31bd4a8 cam 2134543 wan 510 frames 1777",
        "t1 v2 UniformEdgeCloudNn: fps 40649e6ff2237825 makespan 40258bb7a2991c18 cam 1910411 wan 46080 frames 1777",
        "t1 v2 MseEdgeCloudNn: fps 405cec75a62f6200 makespan 402eb80247d8dd70 cam 1910411 wan 107520 frames 1777",
        "t1 v3 IFrameEdgeCloudNn: fps 40c2fc5388497f3f makespan 3fcdff1022da41f6 cam 6702160 wan 56832 frames 2278",
        "t1 v3 IFrameCloudCloudNn: fps 4093ea576fa34d58 makespan 3ffc9891353ddfbf cam 6702160 wan 6702160 frames 2278",
        "t1 v3 IFrameEdgeEdgeNn: fps 40affe886cdd06ba makespan 3fe1ccd0ea088a8e cam 6702160 wan 629 frames 2278",
        "t1 v3 UniformEdgeCloudNn: fps 4062095225136075 makespan 402f933486198a73 cam 5910395 wan 56832 frames 2278",
        "t1 v3 MseEdgeCloudNn: fps 40594e1e6dbae78d makespan 4036815b416f35c6 cam 5910395 wan 127488 frames 2278",
    ];

    /// Every per-frame price over the golden's three cost sets, as its
    /// bits: regrouping a sum's terms (say `full_decode + (mse + resize)`)
    /// can change a price's last bit without changing any row of
    /// `simulate_all_is_bit_exact`.
    #[test]
    fn per_frame_secs_is_bit_exact() {
        let mut rows = Vec::new();
        for (v, video) in golden_videos().iter().enumerate() {
            for kind in [
                SelectorKind::IFrame,
                SelectorKind::Uniform,
                SelectorKind::Mse,
            ] {
                for analysed in [false, true] {
                    let secs = kind.per_frame_secs(&video.costs, analysed);
                    rows.push(format!("v{v} {kind:?} {analysed}: {:016x}", secs.to_bits()));
                }
            }
        }
        assert_eq!(rows, PRICE_GOLDEN);
    }

    const PRICE_GOLDEN: [&str; 18] = [
        "v0 IFrame false: 3e98d48d35882223",
        "v0 IFrame true: 3f631723de00a6c4",
        "v0 Uniform false: 3f7de69ad42c3c9f",
        "v0 Uniform true: 3f7fa97e132b55ef",
        "v0 Mse false: 3f854c985f06f694",
        "v0 Mse true: 3f862e09fe86833c",
        "v1 IFrame false: 3e8e4afe31f2e1f7",
        "v1 IFrame true: 3f574a4f99154655",
        "v1 Uniform false: 3f723d4f15e7c8d2",
        "v1 Uniform true: 3f735059b4a73c1a",
        "v1 Mse false: 3f79fc2a8869c66e",
        "v1 Mse true: 3f7b0f35272939b6",
        "v2 IFrame false: 3ea1023ce363a6bf",
        "v2 IFrame true: 3f6a2761c72ef8f3",
        "v2 Uniform false: 3f847b677f6b1a2b",
        "v2 Uniform true: 3f85b043294a7c26",
        "v2 Mse false: 3f8d2e0e30446b6a",
        "v2 Mse true: 3f8e62e9da23cd65",
    ];

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_a_topology_with_a_zero_rate() {
        let mut topology = ThreeTier::paper_default();
        topology.edge_cloud_bps = 0.0;
        simulate_baseline(Baseline::IFrameEdgeCloudNn, &[workload()], &topology);
    }

    /// Submits `frames` in order, each as its four stages' service seconds
    /// (`X`: the frame passes the stage by), and checks when each completes.
    fn check_tandem(frames: Vec<[f64; 4]>, completions: Vec<f64>) {
        let mut tandem = Tandem::default();
        let mut last = 0.0f64;
        for (k, (frame, want)) in frames.into_iter().zip(&completions).enumerate() {
            let got = tandem.submit(frame.map(|s| (!s.is_nan()).then_some(s)));
            assert!(
                (got - want).abs() < 1e-9,
                "frame {k} done at {got}, want {want}"
            );
            last = last.max(got);
        }
        assert_eq!(tandem.makespan_secs, last);
    }

    const X: f64 = f64::NAN;

    /// One `Tandem` test per row: `name: frames => completions;`.
    macro_rules! tandem_rows {
        ($($name:ident: $frames:expr => $completions:expr;)+) => {$(
            #[test]
            fn $name() {
                check_tandem($frames, $completions);
            }
        )+};
    }

    tandem_rows! {
        single_item_latency_is_sum_of_services: vec![[0.5, 1.0, 0.25, 0.25]] => vec![2.0];
        fifo_queueing_at_bottleneck: vec![[X, 1.0, 0.0, X]; 2] => vec![1.0, 2.0];
        pipelining_overlaps_stages: vec![[X, 1.0, 1.0, X]; 2] => vec![2.0, 3.0];
        skip_stages_cost_nothing: vec![[X; 4]] => vec![0.0];
        zero_cost_stage_waits_its_turn: vec![[X, X, X, 2.0], [0.5, X, X, 0.0]] => vec![2.0; 2];
        skipped_stage_does_not_wait: vec![[X, X, X, 2.0], [0.5, X, X, X]] => vec![2.0, 0.5];
        // 1 kB over 8 Mbps: the 10 ms edge is the bottleneck, 100 frames/s.
        throughput_matches_bottleneck_rate: vec![[X, 0.01, transfer_secs(1000, 8e6), X]; 100]
            => (1..=100).map(|i| i as f64 * 0.01 + 0.001).collect();
        // 4 x 500 kB over 8 Mbps: the WAN is busy 2 s, after one edge step.
        report_accumulates_bytes_and_busy_time: vec![[X, 0.1, transfer_secs(500_000, 8e6), X]; 4]
            => vec![0.6, 1.1, 1.6, 0.1 + transfer_secs(2_000_000, 8e6)];
    }

    #[test]
    fn multiple_videos_accumulate() {
        let one = on_paper(Baseline::IFrameEdgeCloudNn, &[workload()]);
        let three = on_paper(
            Baseline::IFrameEdgeCloudNn,
            &[workload(), workload(), workload()],
        );
        assert_eq!(three.frames, 3 * one.frames);
        assert!(three.edge_cloud_bytes == 3 * one.edge_cloud_bytes);
    }
}
