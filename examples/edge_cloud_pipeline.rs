//! A *live* 3-tier pipeline: camera → edge → cloud, running for real.
//!
//! Unlike the simulated experiments, this example executes the actual
//! dataflow on OS threads — the camera feeds a bounded, back-pressured queue
//! (the NiFi role), a `sieve-fleet` shard is the edge, and the stream's keep
//! sink is the cloud — through the one generic driver
//! `sieve::run_live_analysis`, which works for *any* `FrameSelector` +
//! `ObjectDetector` pair. It first deploys SiEVE (I-frame seeking at the
//! edge), then swaps in a uniform-sampling edge at the same analysis budget
//! to show the unified path — the only difference between deployments is
//! the selector value. Both clouds run the ground-truth oracle, the paper's
//! stand-in for a reference NN that is correct on every frame it sees.
//!
//! Run with: `cargo run --release --example edge_cloud_pipeline`

use sieve::prelude::*;
use sieve_video::EncodedVideo;

fn main() {
    // Dataset + semantic encoding.
    let spec = DatasetSpec::of(DatasetId::JacksonSquare);
    let video = spec.generate(DatasetScale::Tiny);
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 200),
        video.frames(),
    );
    println!(
        "encoded {} frames, {} I-frames, {} KB",
        encoded.frame_count(),
        encoded.i_frame_indices().len(),
        encoded.total_bytes() / 1024
    );

    // A bounded camera→edge queue; survivors are resized to the NN input.
    let config = LiveConfig::default();

    // Deployment 1 — SiEVE: the edge drops every non-I frame by container
    // metadata alone, decodes survivors independently, resizes them; the
    // cloud labels them and stores (frame id, labels) tuples.
    let sieve_selector = IFrameSelector::new();
    let oracle = OracleDetector::for_video(&video);
    let live =
        run_live_analysis(&encoded, &sieve_selector, oracle, &config).expect("live SiEVE run");
    report("SiEVE (I-frame edge + cloud oracle)", &video, &live);

    // Deployment 2 — same driver, uniform-sampling edge at the same
    // analysis budget, oracle cloud. One changed value, not new glue.
    let budget = encoded.i_frame_indices().len();
    let uniform = UniformSelector::matching_count(encoded.frame_count(), budget);
    let oracle = OracleDetector::for_video(&video);
    let live = run_live_analysis(&encoded, &uniform, oracle, &config).expect("live uniform run");
    report("Uniform edge + cloud oracle", &video, &live);
}

fn report(name: &str, video: &SyntheticVideo, live: &LiveAnalysis) {
    let acc = sieve_core::label_accuracy(video.labels(), &live.result.predicted);
    let edge = &live.report.snapshot.aggregate;
    println!(
        "\n{name}\n  {} frames reached the cloud ({} encoded bytes), {} filtered at the edge\n  \
         wall {:.2?} -> {:.0} frames/s end to end\n  \
         per-frame label accuracy {:.1}%, sampling {:.2}%",
        edge.kept,
        edge.kept_payload_bytes,
        edge.dropped,
        live.report.wall,
        video.frame_count() as f64 / live.report.wall.as_secs_f64(),
        100.0 * acc,
        100.0 * live.result.sampling_rate(),
    );
    print!("  first tuples:");
    for (id, labels) in live.result.selected.iter().take(4) {
        print!(" ({id}, {labels})");
    }
    println!();
}
