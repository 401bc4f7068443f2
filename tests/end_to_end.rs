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
    let tuned = *table.get("jackson").expect("tuned camera");

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

    let index = VideoIndex::parse(&bytes).expect("parse");
    let i_frames: Vec<usize> = index.i_frames().map(|(i, _)| i).collect();
    assert_eq!(i_frames, encoded.i_frame_indices());
    for (i, meta) in index.i_frames() {
        let from_bytes = index.decode_iframe(&bytes, meta).expect("decode");
        let from_memory = encoded.decode_iframe_at(i).expect("decode");
        assert_eq!(from_bytes, from_memory);
    }
}
