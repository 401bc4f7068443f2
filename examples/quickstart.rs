//! Quickstart: the whole SiEVE idea in ~60 lines.
//!
//! Generates a small labelled surveillance feed, encodes it twice (default
//! x264-style parameters vs semantic parameters), and shows what the I-frame
//! seeker gets out of each: the semantic encoding labels almost every frame
//! correctly while decoding only a few percent of them.
//!
//! Run with: `cargo run --release --example quickstart`

use sieve::prelude::*;

fn main() {
    // A tiny rendition of the paper's "Jackson town square" feed: vehicles
    // crossing a fixed-angle camera, with per-frame ground-truth labels.
    let spec = DatasetSpec::of(DatasetId::JacksonSquare);
    let video = spec.generate(DatasetScale::Tiny);
    println!(
        "dataset: {} ({} frames @ {} fps, {}, {} events)",
        spec.id,
        video.frame_count(),
        video.fps(),
        video.resolution(),
        video.events().len()
    );

    // Encode with the default parameters the paper quotes (GOP 250,
    // scenecut 40) and with semantically tuned ones (long GOP, sensitive
    // scenecut).
    let semantic = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 200),
        video.frames(),
    );
    let default = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::x264_default(),
        video.frames(),
    );
    for (name, encoded) in [
        ("default  (GOP 250, sc 40)", &default),
        ("semantic (GOP 300, sc 200)", &semantic),
    ] {
        let stats = BitstreamStats::from_video(encoded);

        // SiEVE's analysis path: scan metadata, decode I-frames only, run
        // the NN on those, propagate labels everywhere else.
        let mut nn = OracleDetector::for_video(&video);
        let result = analyze_sieve(encoded, &mut nn).expect("analysis");
        let quality = score_encoding(encoded, video.labels());

        println!(
            "\n{name}\n  i-frames: {:4} / {} ({:.2}% sampled)\n  \
             stream: {} KB\n  per-frame label accuracy: {:.1}%\n  \
             F1(accuracy, filtering): {:.3}\n  predicted events: {}",
            stats.i_frames,
            stats.frame_count,
            100.0 * quality.sampling_rate,
            stats.total_bytes / 1024,
            100.0 * quality.accuracy,
            quality.f1,
            result.events().len(),
        );
    }

    println!(
        "\nThe semantic configuration reaches near-perfect accuracy while \
         decoding only the I-frames it placed on event boundaries."
    );

    // Every baseline runs through the same generic driver: swap the
    // selector, keep everything else.
    let encoded = semantic;
    let budget = encoded.i_frame_indices().len().max(1);
    let fraction = budget as f64 / encoded.frame_count().max(1) as f64;
    // The change detectors' thresholds are calibrated on the video to
    // select the same fraction (the paper's matched comparison), then
    // deployed as is.
    let mse =
        calibrate_fractions(&mut MseDetector::new(), &encoded, &[fraction]).expect("calibration");
    let sift =
        calibrate_fractions(&mut SiftDetector::new(), &encoded, &[fraction]).expect("calibration");
    let selectors: Vec<Box<dyn FrameSelector>> = vec![
        Box::new(IFrameSelector::new()),
        Box::new(UniformSelector::matching_count(
            encoded.frame_count(),
            budget,
        )),
        Box::new(MseSelector::mse(Budget::Threshold(mse[0].threshold))),
        Box::new(SiftSelector::sift(Budget::Threshold(sift[0].threshold))),
    ];
    println!("\nall baselines, one driver (matched to {budget} analysed frames):");
    for selector in &selectors {
        let mut nn = OracleDetector::for_video(&video);
        let result = analyze(&encoded, selector.as_ref(), &mut nn).expect("analysis");
        let quality = score_selection(
            video.labels(),
            &result.selected.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        );
        println!(
            "  {:8} accuracy {:.1}%  sampling {:.2}%",
            selector.name(),
            100.0 * quality.accuracy,
            100.0 * quality.sampling_rate,
        );
    }
}
