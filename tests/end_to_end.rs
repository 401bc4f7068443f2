//! End-to-end integration tests: the full SiEVE flow across every crate.

use sieve::prelude::*;
use sieve_video::EncodedVideo;

/// The complete offline + online flow on one camera: tune on history, store
/// in the lookup table, encode new video with the tuned parameters, seek
/// I-frames, detect, propagate, and score.
#[test]
fn offline_tune_then_online_analysis() {
    let spec = DatasetSpec::of(DatasetId::JacksonSquare);
    let video = spec.generate(DatasetScale::Tiny);
    let half = video.frame_count() / 2;

    // Offline: tune on the first half.
    let grid = ConfigGrid {
        gop_sizes: vec![300, 600],
        scenecuts: vec![100, 150, 200],
    };
    let history = (0..half).map(|i| video.frame(i));
    let trace = RatioTrace::measure(EncoderConfig::default().search_range, history);
    let outcome = tune(&grid, &video.labels()[..half], &trace);
    assert!(outcome.best.quality.f1 > 0.9, "tuning found a good config");

    // Store and reload via the lookup table.
    let mut table = LookupTable::new();
    table.insert("jackson", outcome.best.config);
    let mut buf = Vec::new();
    table.save(&mut buf).expect("save");
    let table = LookupTable::load(buf.as_slice()).expect("load");
    let tuned = table.get_or_default("jackson");

    // Online: encode the unseen second half with the tuned parameters.
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        tuned,
        (half..video.frame_count()).map(|i| video.frame(i)),
    );
    let mut nn = OracleDetector::new(video.labels()[half..].to_vec());
    let result = analyze_sieve(&encoded, &mut nn).expect("analysis");
    let acc = sieve_core::label_accuracy(&video.labels()[half..], &result.predicted);
    assert!(acc > 0.85, "online accuracy too low: {acc}");
    assert!(
        result.sampling_rate() < 0.15,
        "online sampling too high: {}",
        result.sampling_rate()
    );
}

/// The serialized-container path: everything the edge does happens on bytes
/// received over the network, without touching payloads of P-frames.
#[test]
fn byte_stream_flow_matches_in_memory_flow() {
    let spec = DatasetSpec::of(DatasetId::Venice);
    let video = spec.generate(DatasetScale::Tiny);
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames(),
    );
    let bytes = encoded.to_bytes();

    let seeker = sieve_core::ByteStreamSeeker::parse(&bytes).expect("parse");
    assert_eq!(seeker.i_frame_indices(), encoded.i_frame_indices());
    for i in seeker.i_frame_indices() {
        let from_bytes = seeker.decode_at(&bytes, i).expect("decode");
        let from_memory = encoded.decode_iframe_at(i).expect("decode");
        assert_eq!(from_bytes, from_memory);
    }
}

/// A trained CNN plugged into the SiEVE analysis path produces labels close
/// to the oracle's on the I-frames it sees.
#[test]
fn cnn_detector_in_the_analysis_path() {
    let spec = DatasetSpec::of(DatasetId::JacksonSquare);
    let video = spec.generate(DatasetScale::Tiny);
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames(),
    );
    let mut cnn = CnnDetector::train_on(
        &video,
        8,
        &TrainConfig {
            epochs: 5,
            lr: 0.05,
            seed: 5,
        },
    );
    let cnn_result = analyze_sieve(&encoded, &mut cnn).expect("cnn analysis");
    let mut oracle = OracleDetector::for_video(&video);
    let oracle_result = analyze_sieve(&encoded, &mut oracle).expect("oracle analysis");
    assert_eq!(cnn_result.selected.len(), oracle_result.selected.len());
    let agree = cnn_result
        .selected
        .iter()
        .zip(&oracle_result.selected)
        .filter(|((_, a), (_, b))| a == b)
        .count();
    let rate = agree as f64 / cnn_result.selected.len().max(1) as f64;
    assert!(
        rate > 0.5,
        "trained CNN should agree with oracle on most I-frames: {rate}"
    );
}
