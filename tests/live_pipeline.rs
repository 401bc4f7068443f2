//! Integration test: the *live* threaded 3-tier pipeline carrying real
//! encoded frames through select → WAN → detect, end to end, via the
//! generic `run_live_analysis` driver — with selection decisions made
//! *inside* the edge stage by a streaming `SelectorSession`.

use sieve::prelude::*;
use sieve_core::{SelectorCost, SelectorSession};
use sieve_video::{EncodedFrame, EncodedVideo};

#[test]
fn live_three_tier_pipeline_detects_events() {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames(),
    );
    let expected_i = encoded.i_frame_indices().len();

    let mut selector = IFrameSelector::new();
    let oracle = OracleDetector::for_video(&video);
    let live = run_live_analysis(
        &encoded,
        &mut selector,
        oracle,
        &LiveConfig {
            wan_bps: 50.0e6,
            capacity: 8,
            ..LiveConfig::default()
        },
    )
    .expect("live run");

    assert_eq!(live.report.delivered as usize, expected_i);
    assert_eq!(
        live.report.dropped as usize,
        encoded.frame_count() - expected_i
    );
    assert_eq!(live.report.failed, 0, "healthy stream: no decode failures");

    // The tuples collected in the cloud reconstruct accurate per-frame
    // labels via propagation.
    let acc = sieve_core::label_accuracy(video.labels(), &live.result.predicted);
    assert!(acc > 0.9, "live pipeline accuracy too low: {acc}");
}

/// The same driver carries a full-decode baseline: an MSE edge selects at a
/// matched budget and the tuples still reconstruct labels.
#[test]
fn live_pipeline_generic_over_selectors() {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
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
    assert!(live.report.delivered > 0, "mse must select something");
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

    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
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

/// Edge-stage decode failures surface as the typed `LiveReport::failed`
/// counter, distinct from policy drops.
#[test]
fn edge_decode_failures_are_typed() {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
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
    assert_eq!(live.report.failed, 1, "exactly the corrupted frame fails");
    assert_eq!(
        live.report.delivered as usize,
        i_frames.len() - 1,
        "the other I-frames still flow"
    );
    assert_eq!(
        live.report.dropped as usize,
        corrupted.frame_count() - i_frames.len(),
        "policy drops exclude the failure"
    );
    let ids: Vec<usize> = live.result.selected.iter().map(|&(i, _)| i).collect();
    assert!(!ids.contains(&corrupt_at), "failed frame yields no tuple");
}

#[test]
fn live_pipeline_backpressure_does_not_deadlock() {
    // Tiny channel capacity with a slow middle stage: must still drain.
    let items: Vec<sieve_simnet::LiveItem> = (0..100)
        .map(|id| sieve_simnet::LiveItem {
            id,
            payload: vec![0u8; 64],
            tag: 0,
        })
        .collect();
    let slow = sieve_simnet::LiveStage::compute("slow", |it: sieve_simnet::LiveItem| {
        std::thread::sleep(std::time::Duration::from_micros(200));
        sieve_simnet::StageResult::Emit(it)
    });
    let fast = sieve_simnet::LiveStage::compute("fast", sieve_simnet::StageResult::Emit);
    let report = sieve_simnet::run_live(vec![fast, slow], items, 1);
    assert_eq!(report.delivered, 100);
}
