//! Offline per-camera tuning (the paper's Fig 2 procedure).
//!
//! For each labelled dataset, splits the feed into a training half and an
//! evaluation half, grid-searches (GOP size, scenecut) on the training half,
//! stores the best configuration in a per-camera lookup table (JSON), and
//! reports train vs eval quality — demonstrating that parameters tuned on
//! history generalize to future video from the same camera.
//!
//! Run with: `cargo run --release --example tune_camera`

use sieve::prelude::*;
use sieve_video::EncodedVideo;

fn main() {
    let grid = ConfigGrid {
        gop_sizes: vec![100, 300, 600],
        scenecuts: vec![40, 150, 250, 350],
    };
    println!(
        "grid: {} configurations (GOP {:?} x scenecut {:?})\n",
        grid.len(),
        grid.gop_sizes,
        grid.scenecuts
    );

    let mut table = LookupTable::new();
    for id in DatasetId::LABELLED {
        let spec = DatasetSpec::of(id);
        let video = spec.generate(DatasetScale::Tiny);
        let n = video.frame_count();
        let half = n / 2;

        // Train on the first half.
        let train_labels = &video.labels()[..half];
        let train = video.frames().take(half);
        let trace = RatioTrace::measure(EncoderConfig::default().search_range, train);
        let outcome = tune(&grid, train_labels, &trace);
        let best = outcome.best;
        println!(
            "{id}: best = GOP {}, scenecut {} | train acc {:.1}% fr {:.1}% F1 {:.3}",
            best.config.gop_size,
            best.config.scenecut,
            100.0 * best.quality.accuracy,
            100.0 * best.quality.filtering_rate,
            best.quality.f1
        );

        // Evaluate on the unseen second half.
        let eval_frames = (half..n).map(|i| video.frame(i));
        let eval_video =
            EncodedVideo::encode(video.resolution(), video.fps(), best.config, eval_frames);
        let eval_quality = score_encoding(&eval_video, &video.labels()[half..]);
        println!(
            "{:width$}  eval  acc {:.1}% fr {:.1}% F1 {:.3}",
            "",
            100.0 * eval_quality.accuracy,
            100.0 * eval_quality.filtering_rate,
            eval_quality.f1,
            width = id.to_string().len() + 1
        );

        table.insert(id.to_string(), best.config);
    }

    // Persist the lookup table the way the operator's tooling would.
    let path = std::env::temp_dir().join("sieve_lookup.json");
    let file = std::fs::File::create(&path).expect("create lookup file");
    table.save(file).expect("save lookup table");
    println!(
        "\nlookup table with {} cameras written to {}",
        table.len(),
        path.display()
    );

    // And read it back, as the online stage does.
    let loaded =
        LookupTable::load(std::fs::File::open(&path).expect("open")).expect("load lookup table");
    assert_eq!(loaded, table);
    for (camera, cfg) in loaded.iter() {
        println!(
            "  {camera}: GOP {}, scenecut {}",
            cfg.gop_size, cfg.scenecut
        );
    }
}
