//! The paper's evaluation (Section V) in one run: Table I–III, Fig 3–5
//! and the ablations, written to `BENCH_paper.json` once
//! [`sieve_bench::paper_artifact`] validates it, and printed from it.
//!
//! Each dataset is generated once; its eval half is default-encoded once
//! and its semantic config chosen once (tuned on the train half for a
//! labelled dataset), and every experiment reads those. The run ends with
//! the claims table the README carries: each claim of the paper, its
//! figure beside the measured one.
//!
//! Run with: `cargo run --release -p sieve-bench --bin paper_bench`
//! (`--scale small` or `--scale full` for longer runs).

use sieve_bench::harness::{self, Prepared};
use sieve_bench::paper_artifact::{self, Costs, DatasetRow, PaperArtifact};
use sieve_bench::scale_from_args;
use sieve_core::VideoWorkload;
use sieve_datasets::DatasetId;

/// Where the serialized results land: the workspace root, two levels up
/// from this crate's manifest.
const ARTIFACT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");

/// Frames per video in Fig 4/5: the paper's 4 hours at 30 fps (5 videos =
/// 2.16M).
const FRAMES_PER_VIDEO: usize = 4 * 3600 * 30;

/// Fig 3's scenecut sweep at GOP 600, spanning the codec's useful band:
/// low values sample sparsely, high values aggressively.
const FIG3_SCENECUTS: [u16; 7] = [60, 100, 130, 150, 170, 200, 240];

fn main() {
    let scale = scale_from_args();
    let datasets = DatasetId::ALL.map(|id| Prepared::new(id, scale));
    let labelled: Vec<&Prepared> = datasets.iter().filter(|p| p.spec.has_labels).collect();
    let workloads: Vec<_> = datasets
        .iter()
        .map(|p| harness::build_workload(p, FRAMES_PER_VIDEO))
        .collect();
    let end_to_end = harness::end_to_end(&workloads);
    // Table I order: Coral reef is second.
    let [scenecut_sweep, gop_sweep] = harness::encoding_ablations(&datasets[1]);
    let artifact = PaperArtifact {
        benchmark: "paper".to_string(),
        scale: format!("{scale:?}"),
        datasets: datasets.iter().zip(&workloads).map(table1_row).collect(),
        fig3: labelled
            .iter()
            .flat_map(|p| harness::accuracy_sweep(p, 600, &FIG3_SCENECUTS))
            .collect(),
        table2: labelled
            .iter()
            .map(|p| harness::semantic_vs_default(p))
            .collect(),
        table3: labelled
            .iter()
            .map(|p| harness::speed_of_event_detection(p))
            .collect(),
        end_to_end,
        scenecut_sweep,
        gop_sweep,
        object_size: harness::object_size_ablation(scale),
    };
    let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes") + "\n";
    let text = paper_artifact::render(&json).expect("generated artifact passes its own schema");
    std::fs::write(ARTIFACT_PATH, json).expect("artifact written");
    println!("{text}\nwrote BENCH_paper.json");
}

fn table1_row((p, w): (&Prepared, &VideoWorkload)) -> DatasetRow {
    let (video, semantic, c) = (&p.video, p.semantic(), &w.costs);
    DatasetRow {
        dataset: p.spec.id.to_string(),
        paper_resolution: p.spec.paper_resolution.to_string(),
        resolution: video.resolution().to_string(),
        frames: video.frame_count(),
        events: video.events().len(),
        semantic: if p.spec.has_labels { "tuned" } else { "fixed" }.to_string(),
        gop: semantic.gop_size,
        scenecut: semantic.scenecut,
        costs: Costs {
            seek_per_frame: c.seek_per_frame,
            iframe_decode: c.iframe_decode,
            full_decode_per_frame: c.full_decode_per_frame,
            mse_per_pair: c.mse_per_pair,
            resize_to_nn: c.resize_to_nn,
            nn_inference: c.nn_inference,
        },
    }
}
