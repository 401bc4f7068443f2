//! Cross-crate property-based tests (proptest).
//!
//! These pin down the invariants the system's correctness rests on: codec
//! round-trips, container integrity, metric bounds, calibration behaviour,
//! and simulator conservation laws.

use proptest::prelude::*;
use sieve::prelude::*;
use sieve_core::{propagate_labels, select_indices, Decision, EncodedFrameMeta, FixedSelector};
use sieve_video::bitio::{BitReader, BitWriter};
use sieve_video::{Decoder, EncodedVideo, VideoIndex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exp-Golomb codes round-trip for any sequence of values.
    #[test]
    fn bitio_ue_se_roundtrip(values in proptest::collection::vec((0u64..1 << 40, -5000i64..5000), 1..60)) {
        let mut w = BitWriter::new();
        for &(u, s) in &values {
            w.write_ue(u);
            w.write_se(s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(u, s) in &values {
            prop_assert_eq!(r.read_ue().unwrap(), u);
            prop_assert_eq!(r.read_se().unwrap(), s);
        }
    }

    /// Quantize/dequantize error is bounded by half a quantization step.
    #[test]
    fn quant_error_bounded(quality in 1u8..=100, coeffs in proptest::collection::vec(-900f32..900.0, 64)) {
        let table = sieve_video::QuantTable::luma(quality);
        let arr: [f32; 64] = coeffs.try_into().unwrap();
        let mut levels = [0i32; 64];
        let mut back = [0f32; 64];
        table.quantize(&arr, &mut levels);
        table.dequantize(&levels, &mut back);
        for i in 0..64 {
            prop_assert!((arr[i] - back[i]).abs() <= table.step(i) as f32 / 2.0 + 1e-3);
        }
    }

    /// Any frame encodes to an I-frame that independently decodes with
    /// bounded reconstruction error (PSNR above a floor).
    #[test]
    fn iframe_roundtrip_any_content(seed in 0u64..1000) {
        let res = Resolution::new(48, 32);
        let mut frame = Frame::grey(res);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for v in frame.y_mut().data_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = (state >> 56) as u8;
        }
        let mut enc = Encoder::new(res, EncoderConfig::new(10, 40).with_quality(90));
        let ef = enc.encode_frame(&frame);
        prop_assert_eq!(ef.frame_type, FrameType::I);
        let dec = sieve_video::Decoder::decode_iframe(res, 90, &ef.data).unwrap();
        // Random noise is the worst case for a DCT codec; PSNR floor is low
        // but must hold.
        prop_assert!(frame.psnr_luma(&dec) > 20.0);
    }

    /// Container serialization round-trips and the index agrees with the
    /// in-memory frame types for any GOP structure.
    #[test]
    fn container_roundtrip_any_gop(gop in 1usize..12, frames in 1usize..24) {
        let res = Resolution::new(32, 32);
        let video = EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(gop, 0),
            (0..frames).map(|i| {
                let mut f = Frame::grey(res);
                f.y_mut().put(i % 32, 0, 255);
                f
            }),
        );
        let bytes = video.to_bytes();
        let back = EncodedVideo::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &video);
        let index = VideoIndex::parse(&bytes).unwrap();
        let from_index: Vec<usize> = index.i_frames().map(|(i, _)| i).collect();
        prop_assert_eq!(from_index, video.i_frame_indices());
        // GOP invariant: I-frames at most `gop` apart, starting at 0.
        let i_frames = video.i_frame_indices();
        prop_assert_eq!(i_frames[0], 0);
        for w in i_frames.windows(2) {
            prop_assert!(w[1] - w[0] <= gop);
        }
    }

    /// Propagated labels always match ground truth exactly at the selected
    /// frames, and selection of every frame gives perfect accuracy.
    #[test]
    fn propagation_invariants(labels_bits in proptest::collection::vec(0u8..32, 2..80)) {
        let labels: Vec<LabelSet> = labels_bits.iter().map(|&b| LabelSet::from_bits(b)).collect();
        // Select every frame: perfect accuracy, zero filtering.
        let all: Vec<usize> = (0..labels.len()).collect();
        let q = score_selection(&labels, &all);
        prop_assert!((q.accuracy - 1.0).abs() < 1e-12);
        prop_assert_eq!(q.filtering_rate, 0.0);
        // Any selection: propagated equals truth at selected indices.
        let some: Vec<usize> = (0..labels.len()).step_by(3).collect();
        let pairs: Vec<(usize, LabelSet)> = some.iter().map(|&i| (i, labels[i])).collect();
        let propagated = propagate_labels(labels.len(), &pairs);
        for &i in &some {
            prop_assert_eq!(propagated[i], labels[i]);
        }
        // Metrics stay in [0, 1].
        let q = score_selection(&labels, &some);
        for v in [q.accuracy, q.sampling_rate, q.filtering_rate, q.f1] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    /// Propagation is its definition: frame `i` carries the label of the
    /// last selected index at or before `i`, and the empty set before the
    /// first selection.
    #[test]
    fn propagation_matches_its_definition(
        frames in proptest::collection::vec((0u8..32, 0u8..4), 1..120)
    ) {
        let pairs: Vec<(usize, LabelSet)> = frames
            .iter()
            .enumerate()
            .filter(|(_, &(_, pick))| pick == 0)
            .map(|(i, &(bits, _))| (i, LabelSet::from_bits(bits)))
            .collect();
        let propagated = propagate_labels(frames.len(), &pairs);
        prop_assert_eq!(propagated.len(), frames.len());
        for (i, &got) in propagated.iter().enumerate() {
            let want = pairs
                .iter()
                .rev()
                .find(|&&(j, _)| j <= i)
                .map_or(LabelSet::empty(), |&(_, l)| l);
            prop_assert_eq!(got, want);
        }
    }

    /// Threshold calibration never overshoots: the selected fraction is
    /// within one frame of the closest achievable to the target.
    #[test]
    fn calibration_close_to_target(
        scores in proptest::collection::vec(0f64..1000.0, 10..300),
        target_pct in 1u32..100,
    ) {
        let total = scores.len() + 1;
        let target = target_pct as f64 / 100.0;
        let t = calibrate_threshold(&scores, total, target);
        let picked = select_frames(&scores, t).len();
        let want = ((total as f64 * target).round() as usize).max(1);
        // Ties can force extra inclusions; otherwise exact.
        prop_assert!(picked >= want.min(total) || picked == scores.iter().filter(|&&s| s > t).count() + 1);
        let distinct: std::collections::BTreeSet<u64> = scores.iter().map(|s| s.to_bits()).collect();
        if distinct.len() == scores.len() {
            prop_assert_eq!(picked, want.min(total), "exact without ties");
        }
    }

    /// The Fig 4/5 simulator conserves frames and never finishes before
    /// its edge has done its work: every frame is present at time 0, so the
    /// edge stage's busy time bounds the makespan.
    #[test]
    fn pipeline_conservation(
        videos in proptest::collection::vec(
            ((1usize..300, 0usize..=100), (0usize..=100, 1u64..50_000), 1e-6f64..1e-2),
            1..4,
        ),
        edge_speed in 0.25f64..4.0,
    ) {
        use sieve_core::{VideoWorkload, WorkloadCosts};
        let topology = ThreeTier { edge_speed, ..ThreeTier::paper_default() };
        let workloads: Vec<VideoWorkload> = videos
            .iter()
            .map(|&((frames, i_pct), (mse_pct, frame_bytes), unit)| VideoWorkload {
                name: "prop".into(),
                frame_count: frames,
                semantic_i_frames: frames * i_pct / 100,
                mse_selected: frames * mse_pct / 100,
                semantic_stream_bytes: frames as u64 * (frame_bytes + frame_bytes / 8),
                default_stream_bytes: frames as u64 * frame_bytes,
                nn_input_bytes: 1536,
                label_bytes: 16,
                costs: WorkloadCosts {
                    seek_per_frame: unit / 1000.0, iframe_decode: unit / 4.0,
                    full_decode_per_frame: unit, mse_per_pair: unit / 2.0,
                    resize_to_nn: unit / 16.0, nn_inference: 2.0 * unit,
                },
            })
            .collect();
        for o in simulate_all(&workloads, &topology) {
            let baseline = o.baseline;
            prop_assert_eq!(o.frames, workloads.iter().map(|v| v.frame_count as u64).sum::<u64>());
            // The edge prices every frame by its selector and analyses the
            // selected count; edge-only also infers, cloud-only just relays.
            let BaselineSpec { selector, deployment } = baseline.spec();
            let edge_busy = |v: &VideoWorkload| {
                let kept = match selector {
                    SelectorKind::Mse => v.mse_selected,
                    SelectorKind::IFrame | SelectorKind::Uniform => v.semantic_i_frames,
                } as f64;
                let (c, skipped) = (&v.costs, v.frame_count as f64 - kept);
                let select =
                    skipped * selector.per_frame_secs(c, false) + kept * selector.per_frame_secs(c, true);
                match deployment {
                    Deployment::EdgeSelectCloudNn => select,
                    Deployment::EdgeOnly => select + kept * c.nn_inference,
                    Deployment::CloudOnly => 0.0,
                }
            };
            let busy = workloads.iter().map(edge_busy).sum::<f64>() / edge_speed;
            prop_assert!(o.makespan_secs >= busy * (1.0 - 1e-9), "{baseline}: {o:?}");
        }
    }

    /// For every registered selection policy, on random synthetic GOP
    /// structures and budgets, the streaming session's kept indices equal
    /// the whole-video `select_indices` result exactly — and metadata-only
    /// policies never request pixels, so their sessions hold zero decoded
    /// frames (pixel policies hold at most the previous frame by
    /// construction).
    #[test]
    fn streaming_sessions_equal_batch_selection(
        seed in 0u64..500,
        gop in 2usize..9,
        frames in 4usize..32,
        pct in 5u32..60,
    ) {
        let res = Resolution::new(32, 32);
        let video = EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(gop, 0),
            (0..frames).map(|i| {
                let mut f = Frame::grey(res);
                let phase = (seed % 7) as usize;
                for y in 0..32usize {
                    for x in 0..32usize {
                        f.y_mut().put(x, y, ((x * 3 + y * 5 + i * phase) % 210) as u8);
                    }
                }
                if i.is_multiple_of((seed % 5) as usize + 3) {
                    // Occasional bright box: a content change MSE can see.
                    for y in 8..20usize {
                        for x in 8..20usize {
                            f.y_mut().put(x, y, 250);
                        }
                    }
                }
                f
            }),
        );
        let rate = pct as f64 / 100.0;
        let selectors: Vec<Box<dyn FrameSelector>> = vec![
            Box::new(IFrameSelector::new()),
            Box::new(UniformSelector::new(gop)),
            Box::new(MseSelector::mse(Budget::TargetRate(rate))),
            Box::new(MseSelector::mse(Budget::Threshold((seed % 90) as f64))),
            Box::new(FixedSelector::new(vec![0, frames / 3, frames - 1])),
        ];
        for sel in selectors {
            let name = sel.name();
            let batch = select_indices(&video, sel.as_ref()).expect("batch selection");
            // Drive a session by hand, as a live edge would: one frame at a
            // time, stateful decode, two-phase observe.
            let mut session = sel.session();
            let metadata_only = !sel.requires_full_decode();
            let mut decoder = Decoder::new(res, video.quality());
            let mut kept = Vec::new();
            for (i, ef) in video.frames().iter().enumerate() {
                if session.done() {
                    break;
                }
                let meta = EncodedFrameMeta::of(ef);
                let frame = decoder.decode_frame(ef).expect("decodes");
                let mut decision = session.observe(i, &meta, None);
                if decision == Decision::NeedsDecode {
                    prop_assert!(
                        !metadata_only,
                        "{name}: metadata-only policy requested pixels"
                    );
                    decision = session.observe(i, &meta, Some(&frame));
                }
                prop_assert!(decision != Decision::NeedsDecode, "{name}: pixels demanded twice");
                if decision == Decision::Keep {
                    kept.push(i);
                }
            }
            session.finish().expect("finish");
            prop_assert_eq!(&kept, &batch, "{} session/batch divergence", name);
        }
    }

    /// The on-line rate controller behind `Budget::TargetRate`: on any
    /// stationary synthetic score stream (a background/spike mixture with
    /// randomized scale, spike height and spike probability), the achieved
    /// sampling rate converges into tolerance of the target with no
    /// offline pass.
    #[test]
    fn adaptive_controller_converges_to_target_rate(
        seed in 0u64..1000,
        target_pct in 5u32..=40,
        scale in 0.5f64..200.0,
        spike in 2.0f64..50.0,
        spike_p in 0.05f64..0.5,
    ) {
        let target = f64::from(target_pct) / 100.0;
        let mut rc = sieve_core::RateController::new(target).expect("valid target");
        let n: u64 = 6000;
        let tail_from = n / 2;
        let mut tail_kept = 0u64;
        let mut kept = 0u64;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            // Stationary mixture: uniform background, occasional spikes.
            let score = if u < spike_p { scale * spike * (1.0 + u) } else { scale * u };
            let keep = rc.observe(score);
            kept += u64::from(keep);
            if keep && i >= tail_from {
                tail_kept += 1;
            }
        }
        let tail_rate = tail_kept as f64 / (n - tail_from) as f64;
        let rate = kept as f64 / n as f64;
        prop_assert!(
            (tail_rate - target).abs() <= 0.2 * target + 0.01,
            "target {} achieved {} (seed {}, scale {}, spike {}x @ p={})",
            target, tail_rate, seed, scale, spike, spike_p
        );
        // The cumulative rate (what a fleet reports) is in tolerance too.
        prop_assert!(
            (rate - target).abs() <= 0.2 * target + 0.01,
            "cumulative rate {} strayed from {}", rate, target
        );
    }

    /// Event segmentation partitions any label sequence.
    #[test]
    fn segmentation_partitions(labels_bits in proptest::collection::vec(0u8..32, 0..200)) {
        let labels: Vec<LabelSet> = labels_bits.iter().map(|&b| LabelSet::from_bits(b)).collect();
        let events = segment_events(&labels);
        let total: usize = events.iter().map(|e| e.len).sum();
        prop_assert_eq!(total, labels.len());
        let mut cursor = 0;
        for e in &events {
            prop_assert_eq!(e.start, cursor);
            prop_assert!(e.len > 0);
            for &l in &labels[e.start..e.end()] {
                prop_assert_eq!(l, e.labels);
            }
            cursor = e.end();
        }
    }
}
