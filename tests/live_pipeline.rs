//! Integration test: the *live* 3-tier run carrying real encoded frames
//! through select → detect, end to end, via the generic
//! `run_live_analysis` driver (a one-stream fleet) — with selection
//! decisions made *at the edge* by a streaming `SelectorSession`.

use sieve::prelude::*;
use sieve_core::{FixedSelector, SelectorCost, SelectorSession};
use sieve_video::{EncodedFrame, EncodedVideo};

fn jackson() -> SyntheticVideo {
    DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny)
}

#[test]
fn live_three_tier_pipeline_detects_events() {
    let video = jackson();
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames(),
    );
    let expected_i = encoded.i_frame_indices().len();

    let mut selector = IFrameSelector::new();
    let oracle = OracleDetector::for_video(&video);
    let live = run_live_analysis(&encoded, &mut selector, oracle, &LiveConfig { capacity: 8 })
        .expect("live run");

    let edge = &live.report.snapshot.aggregate;
    assert_eq!(edge.kept as usize, expected_i);
    assert_eq!(edge.dropped as usize, encoded.frame_count() - expected_i);
    assert_eq!(edge.failed, 0, "healthy stream: no decode failures");

    // The tuples collected in the cloud reconstruct accurate per-frame
    // labels via propagation.
    let acc = sieve_core::label_accuracy(video.labels(), &live.result.predicted);
    assert!(acc > 0.9, "live pipeline accuracy too low: {acc}");
}

/// The same driver carries a full-decode baseline: an MSE edge selects at a
/// matched budget and the tuples still reconstruct labels.
#[test]
fn live_pipeline_generic_over_selectors() {
    let video = jackson();
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames().take(240),
    );
    let fraction = (encoded.i_frame_indices().len().max(1) as f64 / encoded.frame_count() as f64)
        .clamp(0.01, 1.0);
    let mut selector = MseSelector::mse(Budget::Fraction(fraction));
    let oracle = OracleDetector::for_video(&video);
    let live = run_live_analysis(&encoded, &mut selector, oracle, &LiveConfig::default())
        .expect("live run");
    assert!(
        live.report.snapshot.aggregate.kept > 0,
        "mse must select something"
    );
    assert_eq!(
        live.result.predicted.len(),
        encoded.frame_count(),
        "propagation covers every frame"
    );
    // Selected tuples carry ground truth at their own frames.
    for &(i, labels) in &live.result.selected {
        assert_eq!(labels, video.labels()[i]);
    }
}

/// The live driver streams: it must never evaluate the policy with a batch
/// whole-video call. A selector whose batch entry points panic — only its
/// session works — completes a live run and matches the offline result.
#[test]
fn live_driver_never_batch_selects() {
    struct SessionOnly;
    impl FrameSelector for SessionOnly {
        fn name(&self) -> &'static str {
            "session-only"
        }
        fn requires_full_decode(&self) -> bool {
            false
        }
        fn cost_model(&self) -> SelectorCost {
            SelectorCost::metadata_seek()
        }
        fn session(&self) -> Box<dyn SelectorSession> {
            IFrameSelector::new().session()
        }
        fn select(
            &mut self,
            _video: &EncodedVideo,
        ) -> Result<Vec<(usize, sieve_video::Frame)>, SieveError> {
            panic!("live driver materialised a whole-video selection");
        }
        fn select_indices(&mut self, _video: &EncodedVideo) -> Result<Vec<usize>, SieveError> {
            panic!("live driver materialised the full index vector");
        }
    }

    let video = jackson();
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames(),
    );
    let oracle = OracleDetector::for_video(&video);
    let live = run_live_analysis(
        &encoded,
        &mut SessionOnly,
        oracle.clone(),
        &LiveConfig::default(),
    )
    .expect("session-based live run");
    let mut oracle = oracle;
    let offline = analyze(&encoded, &mut IFrameSelector::new(), &mut oracle).expect("offline");
    assert_eq!(
        live.result, offline,
        "streamed decisions match batch policy"
    );
}

/// Edge decode failures surface as the stream's typed `failed` counter,
/// distinct from policy drops.
#[test]
fn edge_decode_failures_are_typed() {
    let video = jackson();
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(100, 0),
        video.frames().take(300),
    );
    let i_frames = encoded.i_frame_indices();
    assert!(
        i_frames.len() >= 2,
        "need at least two I-frames to corrupt one"
    );

    // Truncate the payload of the second I-frame: the session keeps it by
    // metadata, but the edge decode must fail in a typed way.
    let corrupt_at = i_frames[1];
    let mut corrupted = EncodedVideo::new(encoded.resolution(), encoded.fps(), encoded.quality());
    for (i, ef) in encoded.frames().iter().enumerate() {
        corrupted.push(EncodedFrame {
            frame_type: ef.frame_type,
            data: if i == corrupt_at {
                [].into()
            } else {
                ef.data.clone()
            },
        });
    }

    let oracle = OracleDetector::for_video(&video);
    let mut selector = IFrameSelector::new();
    let live = run_live_analysis(&corrupted, &mut selector, oracle, &LiveConfig::default())
        .expect("live run");
    let edge = &live.report.snapshot.aggregate;
    assert_eq!(edge.failed, 1, "exactly the corrupted frame fails");
    assert_eq!(
        edge.kept as usize,
        i_frames.len() - 1,
        "the other I-frames still flow"
    );
    assert_eq!(
        edge.dropped as usize,
        corrupted.frame_count() - i_frames.len(),
        "policy drops exclude the failure"
    );
    let ids: Vec<usize> = live.result.selected.iter().map(|&(i, _)| i).collect();
    assert!(!ids.contains(&corrupt_at), "failed frame yields no tuple");
}

/// The live run equals the offline analysis, count for count.
#[test]
fn live_sieve_matches_offline_analysis() {
    let video = jackson();
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames().take(200),
    );
    let mut oracle = OracleDetector::for_video(&video);
    let live = run_live_analysis(
        &encoded,
        &mut IFrameSelector::new(),
        oracle.clone(),
        &LiveConfig::default(),
    )
    .expect("live run");
    let offline = analyze(&encoded, &mut IFrameSelector::new(), &mut oracle).expect("offline");
    assert_eq!(live.result, offline);
    let edge = &live.report.snapshot.aggregate;
    assert_eq!(edge.kept as usize, offline.selected.len());
    assert_eq!(
        edge.dropped as usize,
        encoded.frame_count() - offline.selected.len()
    );
    assert_eq!(edge.failed, 0);
}

/// A fixed selection over an all-P stream takes the full-decode path and
/// still lands exactly on the requested frames.
#[test]
fn live_fixed_selection_full_decode_path() {
    let video = jackson();
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(50, 0),
        video.frames().take(120),
    );
    let mut oracle = OracleDetector::for_video(&video);
    let wanted = vec![0, 17, 53, 99];
    let live = run_live_analysis(
        &encoded,
        &mut FixedSelector::new(wanted.clone()),
        oracle.clone(),
        &LiveConfig { capacity: 4 },
    )
    .expect("live run");
    let ids: Vec<usize> = live.result.selected.iter().map(|&(i, _)| i).collect();
    assert_eq!(ids, wanted);
    let offline = analyze(&encoded, &mut FixedSelector::new(wanted), &mut oracle).expect("offline");
    assert_eq!(live.result, offline);
}

/// A one-frame queue makes the camera re-offer nearly every frame while the
/// edge decodes all of them: the run must still drain, lose nothing and
/// decide exactly what the offline analysis decides.
#[test]
fn live_pipeline_backpressure_does_not_deadlock() {
    let video = jackson();
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(40, 60),
        video.frames().take(160),
    );
    let mut oracle = OracleDetector::for_video(&video);
    let mse = || MseSelector::mse(Budget::Threshold(40.0));
    let live = run_live_analysis(
        &encoded,
        &mut mse(),
        oracle.clone(),
        &LiveConfig { capacity: 1 },
    )
    .expect("live run");
    let stream = &live.report.snapshot.streams[0];
    assert_eq!(stream.processed as usize, encoded.frame_count());
    assert_eq!(stream.queue_depth, 0);
    assert!(stream.done);
    let offline = analyze(&encoded, &mut mse(), &mut oracle).expect("offline");
    assert_eq!(live.result, offline);
}
