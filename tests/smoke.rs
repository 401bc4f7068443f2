//! Workspace smoke test: the `sieve::prelude` quickstart from `src/lib.rs`,
//! end to end, plus one pass of every selector through the unified
//! analysis layer. If this test runs, the whole workspace wiring —
//! datasets → codec → selectors → NN → metrics — is alive.

use sieve::prelude::*;
use sieve_video::EncodedVideo;

/// Exactly the crate-level doc quickstart.
#[test]
fn prelude_quickstart_runs_end_to_end() {
    // Generate a tiny labelled surveillance feed.
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    // Encode it semantically and analyse only I-frames.
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 200),
        video.frames(),
    );
    let mut nn = OracleDetector::for_video(&video);
    let result = analyze_sieve(&encoded, &mut nn).unwrap();
    assert!(result.sampling_rate() < 0.2);

    // And the quality numbers the README quotes hold.
    let quality = score_encoding(&encoded, video.labels());
    assert!(quality.accuracy > 0.8, "accuracy {}", quality.accuracy);
    assert!(quality.f1 > 0.8, "f1 {}", quality.f1);
}

/// Every selection policy flows through the one generic driver.
#[test]
fn all_selectors_flow_through_unified_layer() {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 200),
        video.frames().take(300),
    );
    let budget = encoded.i_frame_indices().len().max(1);
    let fraction = (budget as f64 / encoded.frame_count() as f64).clamp(1e-3, 1.0);
    // The matched comparison: each change detector's threshold is
    // calibrated on the video to select the same fraction as SiEVE.
    let mse = calibrate_fractions(&mut MseDetector::new(), &encoded, &[fraction]).unwrap();
    let sift = calibrate_fractions(&mut SiftDetector::new(), &encoded, &[fraction]).unwrap();

    let selectors: Vec<Box<dyn FrameSelector>> = vec![
        Box::new(IFrameSelector::new()),
        Box::new(UniformSelector::matching_count(
            encoded.frame_count(),
            budget,
        )),
        Box::new(MseSelector::mse(Budget::Threshold(mse[0].threshold))),
        Box::new(SiftSelector::sift(Budget::Threshold(sift[0].threshold))),
    ];
    for selector in &selectors {
        let mut nn = OracleDetector::for_video(&video);
        let name = selector.name();
        let result = analyze(&encoded, selector.as_ref(), &mut nn)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(!result.selected.is_empty(), "{name} selected nothing");
        // A calibrated threshold streams to exactly the frames the
        // calibration pass selected.
        let calibrated = match name {
            "mse" => Some(&mse[0].selected),
            "sift" => Some(&sift[0].selected),
            _ => None,
        };
        if let Some(calibrated) = calibrated {
            let ids: Vec<usize> = result.selected.iter().map(|&(i, _)| i).collect();
            assert_eq!(&ids, calibrated, "{name} strayed from its calibration");
        }
        assert_eq!(result.predicted.len(), encoded.frame_count());
        // Selected tuples carry the detector's labels at their own frames.
        for &(i, labels) in &result.selected {
            assert_eq!(labels, video.labels()[i], "{name} tuple at {i}");
        }
    }
}

/// The five simulated baselines all route through the generic
/// selector/deployment registry.
#[test]
fn baseline_registry_covers_all_five() {
    use std::collections::HashSet;
    let mut seen = HashSet::new();
    for b in Baseline::ALL {
        let spec: BaselineSpec = b.spec();
        assert!(seen.insert(spec), "duplicate registry row for {b}");
    }
    assert_eq!(seen.len(), 5);
}
