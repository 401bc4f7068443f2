//! The renderer's output, pinned sample for sample.
//!
//! `golden/render_v1.txt` holds one line per rendered frame — the scene, the
//! frame index and the FNV-1a hash of each plane — captured from the
//! per-pixel renderer (eight splitmix finalizers a luma sample, every sample
//! read through `sample_clamped` and written through `put`) before the
//! hoisted-hash row renderer replaced it. Any drift in the noise stream, the
//! ripple and jitter displacement, the flicker, the chroma copy or the
//! sprite blend fails here.
//!
//! Every dataset is rendered at Tiny scale at frames 0 and 1, the first
//! frame an approaching object leaves pixels in, the first labelled frame
//! and frame 299. Between them the five scenes cover ripple, flicker,
//! jitter and every noise sigma of the registry. One hand-built scene adds
//! `noise_sigma = 0` with an elliptical sprite that overhangs the picture.

use sieve_datasets::schedule::ObjectInstance;
use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec, ObjectClass, Renderer, SceneConfig};
use sieve_video::{Frame, Resolution};

const GOLDEN: &str = include_str!("golden/render_v1.txt");

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(out: &mut String, scene: &str, index: usize, frame: &Frame) {
    out.push_str(&format!(
        "{scene} {index} {:016x} {:016x} {:016x}\n",
        fnv1a(frame.y().data()),
        fnv1a(frame.u().data()),
        fnv1a(frame.v().data()),
    ));
}

/// A noiseless scene with ripple, flicker and jitter, and a person
/// straddling the right edge.
fn noiseless() -> (Renderer, ObjectInstance) {
    let scene = SceneConfig {
        resolution: Resolution::new(96, 64),
        fps: 30,
        noise_sigma: 0.0,
        ripple_amplitude: 2.5,
        ripple_wavelength: 48.0,
        flicker_amplitude: 3.0,
        flicker_period: 60.0,
        jitter_amplitude: 3.0,
        seed: 0x5EED_0000,
    };
    let person = ObjectInstance {
        class: ObjectClass::Person,
        spawn: 4,
        despawn: 40,
        x0: 84.0,
        y0: 30.0,
        vx: 0.75,
        vy: -0.25,
        width: 22.0,
        height: 38.0,
        texture_seed: 7,
        ramp: 3,
    };
    (Renderer::new(scene), person)
}

fn render() -> String {
    let mut out = String::new();
    for id in DatasetId::ALL {
        let video = DatasetSpec::of(id).generate(DatasetScale::Tiny);
        let first_drawn = (0..video.frame_count())
            .find(|&i| video.schedule().renderable_at(i).next().is_some())
            .expect("an object appears");
        let first_labelled = video
            .labels()
            .iter()
            .position(|l| !l.is_empty())
            .expect("an object is labelled");
        let mut frames = vec![0, 1, first_drawn, first_labelled, 299];
        frames.dedup();
        for i in frames {
            line(&mut out, &format!("{id:?}"), i, &video.frame(i));
        }
    }
    let (renderer, person) = noiseless();
    for i in [0, 2, 4, 9] {
        line(&mut out, "noiseless", i, &renderer.render(i, &[&person]));
    }
    out
}

#[test]
fn rendered_planes_are_sample_identical_to_the_captured_vector() {
    let rendered = render();
    let (got, want): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), GOLDEN.lines().collect());
    assert_eq!(got.len(), want.len(), "line count; rendered:\n{rendered}");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "(scene frame y u v)");
    }
}
