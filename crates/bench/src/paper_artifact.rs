//! The `BENCH_paper.json` schema: what `paper_bench` measured for each of
//! the paper's tables and figures, and the paper's claims checked against
//! it.
//!
//! [`SHAPE`] types every leaf. Each claim of the paper is one check in
//! `CLAIMS`, and each error a check returns starts with the path of the
//! value that broke it. [`validate`] gates the orderings this reproduction
//! measures — each asserted there and nowhere else:
//!
//! * Fig 3: SiEVE's accuracy is at least MSE's at every matched sampling
//!   point;
//! * Table II: tuned F1 is at least the default's on every labelled set;
//! * Table III: SiEVE > MSE > SIFT in frames/second, SiEVE by at least
//!   `SEEK_OVER_DECODE`×;
//! * Fig 4: "I-frame edge + Cloud NN" reads at least every baseline's
//!   throughput at 1, 3 and 5 videos;
//! * Fig 5: SiEVE ships fewer edge→cloud bytes than MSE, and less than
//!   1/`CLOUD_OVER_SIEVE` of cloud-only's.
//!
//! The paper's other claims do not reproduce here: the artifact records
//! what they read, and [`render`] reports them beside the gated ones in
//! the README's claims table.

use serde::{Serialize, Value};
use sieve_core::{Baseline, DetectionQuality};

use crate::report::{bytes_h, pct, table};
use crate::schema::{self, number_of as num, Shape};

/// The factor by which SiEVE's Table III speed must exceed full decode +
/// MSE: an order of magnitude. The paper reads 100–170×.
const SEEK_OVER_DECODE: f64 = 10.0;

/// The factor by which cloud-only's edge→cloud bytes must exceed SiEVE's.
/// The paper reads ~7×.
const CLOUD_OVER_SIEVE: u64 = 3;

/// The whole artifact written to `BENCH_paper.json`.
#[derive(Debug, Serialize)]
pub struct PaperArtifact {
    /// Always `"paper"`.
    pub benchmark: String,
    /// Dataset scale of the run (`Tiny`, `Small` or `Full`).
    pub scale: String,
    pub datasets: Vec<DatasetRow>,
    pub fig3: Vec<SweepPoint>,
    pub table2: Vec<Table2Row>,
    pub table3: Vec<Table3Row>,
    /// One row per baseline, in `Baseline::ALL` order.
    pub end_to_end: Vec<BaselineRow>,
    /// Ablation 1: scenecut sweep at GOP 600 on the whole Coral reef feed.
    pub scenecut_sweep: Vec<EncodingPoint>,
    /// Ablation 2: GOP sweep with scenecut off, same feed.
    pub gop_sweep: Vec<EncodingPoint>,
    /// Ablation 3: the best scenecut at GOP 600 of Jackson square
    /// re-rendered per object height (a fraction of frame height).
    pub object_size: Vec<ObjectSizePoint>,
}

/// Table I: one dataset as generated, the semantic config every
/// experiment read, and the costs Fig 4/5 simulated it with.
#[derive(Debug, Serialize)]
pub struct DatasetRow {
    pub dataset: String,
    pub paper_resolution: String,
    pub resolution: String,
    pub frames: usize,
    pub events: usize,
    /// `"tuned"` on the train half, or `"fixed"` at one I-frame per 5 s on
    /// an unlabelled feed.
    pub semantic: String,
    pub gop: usize,
    pub scenecut: u16,
    pub costs: Costs,
}

/// `sieve_core::WorkloadCosts`, seconds per operation.
#[derive(Debug, Serialize)]
pub struct Costs {
    pub seek_per_frame: f64,
    pub iframe_decode: f64,
    pub full_decode_per_frame: f64,
    pub mse_per_pair: f64,
    pub resize_to_nn: f64,
    pub nn_inference: f64,
}

/// Label accuracy, fraction of frames analysed and the paper's F1.
#[derive(Debug, Serialize)]
// lint:allow(dead-pub): the type of the `Table2Row` and `EncodingPoint` quality fields, built by `.into()`
pub struct Quality {
    pub accuracy: f64,
    pub sampling: f64,
    pub f1: f64,
}

impl From<DetectionQuality> for Quality {
    fn from(q: DetectionQuality) -> Self {
        Self {
            accuracy: q.accuracy,
            sampling: q.sampling_rate,
            f1: q.f1,
        }
    }
}

/// Fig 3: at one sampling rate on one labelled dataset's eval half, the
/// label accuracy of SiEVE, SIFT and MSE.
#[derive(Debug, Serialize)]
pub struct SweepPoint {
    pub dataset: String,
    pub sampling: f64,
    pub sieve: f64,
    pub sift: f64,
    pub mse: f64,
}

/// Table II: the tuned and the default (GOP 250, scenecut 40) config on
/// one labelled dataset's eval half.
#[derive(Debug, Serialize)]
pub struct Table2Row {
    pub dataset: String,
    pub semantic: Quality,
    pub default: Quality,
}

/// Table III: frames/second of each event detector on one labelled
/// dataset's eval half, each the median of `samples` timed passes.
#[derive(Debug, Serialize)]
pub struct Table3Row {
    pub dataset: String,
    pub samples: usize,
    pub sieve_fps: f64,
    pub mse_fps: f64,
    pub sift_fps: f64,
}

/// Fig 4 and Fig 5: one baseline's simulated frames/second over the
/// first 1, 3 and 5 videos, and the bytes it moves per link over all five.
#[derive(Debug, Serialize)]
pub struct BaselineRow {
    pub baseline: String,
    pub videos_1: f64,
    pub videos_3: f64,
    pub videos_5: f64,
    pub camera_edge_bytes: u64,
    pub edge_cloud_bytes: u64,
}

#[derive(Debug, Serialize)]
pub struct EncodingPoint {
    pub setting: usize,
    pub quality: Quality,
}

#[derive(Debug, Serialize)]
pub struct ObjectSizePoint {
    pub object_scale: f64,
    pub best_scenecut: u16,
    pub f1: f64,
}

const QUALITY: Shape = Shape::Obj(&[
    ("accuracy", Shape::Unit),
    ("sampling", Shape::Unit),
    ("f1", Shape::Unit),
]);

const COSTS: Shape = Shape::Obj(&[
    ("seek_per_frame", Shape::Pos),
    ("iframe_decode", Shape::Pos),
    ("full_decode_per_frame", Shape::Pos),
    ("mse_per_pair", Shape::Pos),
    ("resize_to_nn", Shape::Pos),
    ("nn_inference", Shape::Pos),
]);

const DATASET: Shape = Shape::Obj(&[
    ("dataset", Shape::Str),
    ("paper_resolution", Shape::Str),
    ("resolution", Shape::Str),
    ("frames", Shape::Count),
    ("events", Shape::UInt),
    ("semantic", Shape::OneOf(&["tuned", "fixed"])),
    ("gop", Shape::Count),
    ("scenecut", Shape::UInt),
    ("costs", COSTS),
]);

const SWEEP_POINT: Shape = Shape::Obj(&[
    ("dataset", Shape::Str),
    ("sampling", Shape::Unit),
    ("sieve", Shape::Unit),
    ("sift", Shape::Unit),
    ("mse", Shape::Unit),
]);

const TABLE2: Shape = Shape::Obj(&[
    ("dataset", Shape::Str),
    ("semantic", QUALITY),
    ("default", QUALITY),
]);

const TABLE3: Shape = Shape::Obj(&[
    ("dataset", Shape::Str),
    ("samples", Shape::Count),
    ("sieve_fps", Shape::Pos),
    ("mse_fps", Shape::Pos),
    ("sift_fps", Shape::Pos),
]);

const BASELINE_ROW: Shape = Shape::Obj(&[
    ("baseline", Shape::Str),
    ("videos_1", Shape::Pos),
    ("videos_3", Shape::Pos),
    ("videos_5", Shape::Pos),
    ("camera_edge_bytes", Shape::UInt),
    ("edge_cloud_bytes", Shape::UInt),
]);

const ENCODING_POINT: Shape = Shape::Obj(&[("setting", Shape::UInt), ("quality", QUALITY)]);

/// The shape of `BENCH_paper.json`.
pub const SHAPE: Shape = Shape::Obj(&[
    ("benchmark", Shape::OneOf(&["paper"])),
    ("scale", Shape::OneOf(&["Tiny", "Small", "Full"])),
    ("datasets", Shape::Arr(&DATASET)),
    ("fig3", Shape::Arr(&SWEEP_POINT)),
    ("table2", Shape::Arr(&TABLE2)),
    ("table3", Shape::Arr(&TABLE3)),
    ("end_to_end", Shape::Arr(&BASELINE_ROW)),
    ("scenecut_sweep", Shape::Arr(&ENCODING_POINT)),
    ("gop_sweep", Shape::Arr(&ENCODING_POINT)),
    (
        "object_size",
        Shape::Arr(&Shape::Obj(&[
            ("object_scale", Shape::Unit),
            ("best_scenecut", Shape::UInt),
            ("f1", Shape::Unit),
        ])),
    ),
]);

type Check = fn(&Value) -> Result<(), String>;

/// The paper's claims: the array each is about, what it says, the paper's
/// figure, whether [`validate`] gates it, and its check.
#[rustfmt::skip]
const CLAIMS: [(&str, &str, &str, bool, Check); 11] = [
    ("table2", "Tuned F1 ≥ default (Table II)", "on every dataset", true, tuned_over_default),
    ("table2", "Tuned accuracy at its sampling (Table II)", "96–99% at 1–3%", false, tuned_accuracy),
    ("fig3", "SiEVE ≥ MSE at matched sampling (Fig 3)", "SiEVE above", true, sieve_over_mse),
    ("fig3", "SiEVE ≥ SIFT at matched sampling (Fig 3)", "SiEVE above", false, sieve_over_sift),
    ("table3", "SiEVE > MSE > SIFT (Table III)", "2300–19600 > 22–157 > 16–115 fps", true, speed_order),
    ("table3", "SiEVE over MSE speed (Table III)", "100–170×", false, speed_magnitude),
    ("end_to_end", "I-frame edge + Cloud NN fastest (Fig 4)", "at 1, 3 and 5 videos", true, three_tier_fastest),
    ("end_to_end", "I-frame baselines above uniform and MSE (Fig 4)", "all three", false, iframe_dominates),
    ("end_to_end", "Edge→cloud bytes over SiEVE's (Fig 5)", "MSE ~2.5×, cloud-only ~7×", true, edge_cloud_bytes),
    ("end_to_end", "Camera→edge bytes, semantic over default (Fig 5)", "+12%", false, camera_edge_inflation),
    ("object_size", "Smaller objects tune to a higher scenecut (ablation 3)", "yes", false, scenecut_by_size),
];

const COUNTS: [&str; 3] = ["videos_1", "videos_3", "videos_5"];

/// `Ok` unless `broken` finds an item of array `key` that breaks a claim;
/// then that item's path and `broken`'s account of it.
fn each(
    root: &Value,
    key: &str,
    broken: impl Fn(&[Value], usize) -> Option<String>,
) -> Result<(), String> {
    let items = schema::items_of(root, key);
    match (0..items.len()).find_map(|i| Some((i, broken(items, i)?))) {
        Some((i, why)) => Err(format!("root.{key}[{i}]{why}")),
        None => Ok(()),
    }
}

fn tuned_over_default(root: &Value) -> Result<(), String> {
    each(root, "table2", |r, i| {
        let f1 = |arm| num(schema::member(&r[i], arm), "f1");
        let (tuned, default) = (f1("semantic"), f1("default"));
        (tuned < default).then(|| format!(".semantic.f1: {tuned} is below the default's {default}"))
    })
}

fn tuned_accuracy(root: &Value) -> Result<(), String> {
    each(root, "table2", |r, i| {
        let tuned = |key| num(schema::member(&r[i], "semantic"), key);
        let (accuracy, sampling) = (tuned("accuracy"), tuned("sampling"));
        let near = accuracy >= 0.96 && (0.01..=0.03).contains(&sampling);
        (!near).then(|| format!(".semantic: {} at {} sampled", pct(accuracy), pct(sampling)))
    })
}

fn sieve_over_mse(root: &Value) -> Result<(), String> {
    each(root, "fig3", |p, i| {
        let (sieve, mse) = (num(&p[i], "sieve"), num(&p[i], "mse"));
        (sieve < mse).then(|| format!(": SiEVE reads {}, MSE {}", pct(sieve), pct(mse)))
    })
}

fn sieve_over_sift(root: &Value) -> Result<(), String> {
    each(root, "fig3", |p, i| {
        let (sieve, sift) = (num(&p[i], "sieve"), num(&p[i], "sift"));
        let dataset = schema::member(&p[i], "dataset");
        let curve: Vec<_> = p
            .iter()
            .filter(|q| schema::member(q, "dataset") == dataset)
            .collect();
        let lead = curve
            .iter()
            .map(|q| num(q, "sieve") - num(q, "sift"))
            .sum::<f64>();
        let mean = 100.0 * lead / curve.len() as f64;
        let why = format!(": SiEVE reads {}, SIFT {}", pct(sieve), pct(sift));
        (sieve < sift).then(|| format!("{why}; mean lead {mean:+.1} points"))
    })
}

fn speed_order(root: &Value) -> Result<(), String> {
    each(root, "table3", |r, i| {
        let fps = |key| num(&r[i], key);
        let (sieve, mse, sift) = (fps("sieve_fps"), fps("mse_fps"), fps("sift_fps"));
        let slow = format!(".sieve_fps: {sieve:.0} is under {SEEK_OVER_DECODE}x MSE's {mse:.0}");
        if sieve < SEEK_OVER_DECODE * mse {
            return Some(slow);
        }
        (mse <= sift).then(|| format!(".mse_fps: {mse:.0} is not above SIFT's {sift:.0}"))
    })
}

fn speed_magnitude(root: &Value) -> Result<(), String> {
    each(root, "table3", |r, i| {
        let times = num(&r[i], "sieve_fps") / num(&r[i], "mse_fps");
        (times < 100.0).then(|| format!(": SiEVE is {times:.0}x MSE"))
    })
}

fn three_tier_fastest(root: &Value) -> Result<(), String> {
    each(root, "end_to_end", |r, i| {
        let k = COUNTS.iter().find(|k| num(&r[i], k) > num(&r[0], k))?;
        let (fps, sieve) = (num(&r[i], k), num(&r[0], k));
        Some(format!(".{k}: {fps:.0} fps, above SiEVE's {sieve:.0}"))
    })
}

fn iframe_dominates(root: &Value) -> Result<(), String> {
    each(root, "end_to_end", |r, i| {
        let beats = |k: &&str| r[..3].iter().any(|s| i >= 3 && num(&r[i], k) > num(s, k));
        let k = COUNTS.into_iter().find(beats)?;
        Some(format!(
            ".{k}: {:.0} fps, above an I-frame baseline",
            num(&r[i], k)
        ))
    })
}

fn edge_cloud_bytes(root: &Value) -> Result<(), String> {
    // Rows 0, 1 and 4 of `Baseline::ALL`: SiEVE, cloud-only and MSE.
    each(root, "end_to_end", |r, i| {
        let bytes = |i: usize| schema::uint_of(&r[i], "edge_cloud_bytes");
        let (at_least, times) = match i {
            1 => (CLOUD_OVER_SIEVE * bytes(0), CLOUD_OVER_SIEVE),
            4 => (bytes(0), 1),
            _ => return None,
        };
        let (shipped, sieve) = (bytes(i), bytes(0));
        let why = format!(".edge_cloud_bytes: {shipped} is not over {times}x SiEVE's {sieve}");
        (shipped <= at_least).then_some(why)
    })
}

fn camera_edge_inflation(root: &Value) -> Result<(), String> {
    each(root, "end_to_end", |r, i| {
        let bytes = |i: usize| schema::uint_of(&r[i], "camera_edge_bytes") as f64;
        let inflation = 100.0 * (bytes(0) / bytes(4) - 1.0);
        (i == 0 && inflation <= 0.0).then(|| format!(".camera_edge_bytes: {inflation:+.0}%"))
    })
}

fn scenecut_by_size(root: &Value) -> Result<(), String> {
    each(root, "object_size", |o, i| {
        let scenecut = |i: usize| schema::uint_of(&o[i], "best_scenecut");
        let (now, last) = (scenecut(i), scenecut(i.saturating_sub(1)));
        (now > last).then(|| format!(".best_scenecut: {now} after {last}"))
    })
}

/// The artifact's value tree, once it has its shape and every gated claim
/// holds.
fn checked(json: &str) -> Result<Value, String> {
    let root = schema::parse(json, &SHAPE)?;
    let legend = Baseline::ALL.map(|b| b.label());
    let rows = schema::items_of(&root, "end_to_end").iter();
    if !rows
        .map(|r| schema::member(r, "baseline").as_str())
        .eq(legend.map(Some))
    {
        return Err(format!("root.end_to_end: baselines are not {legend:?}"));
    }
    each(&root, "fig3", |p, i| {
        let last = &p[i.saturating_sub(1)];
        let same_curve = schema::member(&p[i], "dataset") == schema::member(last, "dataset");
        let (sampling, before) = (num(&p[i], "sampling"), num(last, "sampling"));
        (same_curve && sampling < before).then(|| format!(".sampling: {sampling} after {before}"))
    })?;
    for (_, _, _, gated, check) in CLAIMS {
        if gated {
            check(&root)?;
        }
    }
    Ok(root)
}

/// Asserts [`SHAPE`] and every gated ordering; see the module docs. `json`
/// is the full text of `BENCH_paper.json`.
///
/// # Errors
///
/// The path and a description of the first violated rule.
pub fn validate(json: &str) -> Result<(), String> {
    checked(json).map(drop)
}

/// The README's claims table: each of [`CLAIMS`] with the paper's figure
/// and whether it is gated, reproduces or, with the first value that breaks
/// it, does not.
fn markdown(root: &Value) -> String {
    let mut out = String::from("| Claim | Paper | Status |\n|---|---|---|\n");
    for (_, claim, paper, gated, check) in CLAIMS {
        out.push_str(&format!(
            "| {claim} | {paper} | {} |\n",
            verdict(gated, check, root)
        ));
    }
    out
}

fn verdict(gated: bool, check: Check, root: &Value) -> String {
    match (gated, check(root)) {
        (true, _) => "gated".to_string(),
        (false, Ok(())) => "reproduces".to_string(),
        (false, Err(why)) => format!("does not reproduce: `{why}`"),
    }
}

/// A valid artifact as text: one table per array, its columns the items'
/// leaves, under it the paper's figure for each claim about it; then the
/// README's claims table.
///
/// # Errors
///
/// [`validate`]'s.
pub fn render(json: &str) -> Result<String, String> {
    let root = checked(json)?;
    let Shape::Obj(sections) = SHAPE else {
        unreachable!("the artifact is an object")
    };
    let mut out = String::new();
    for (key, shape) in sections {
        let (Shape::Arr(item), Value::Array(items)) = (shape, schema::member(&root, key)) else {
            continue;
        };
        let cells: Vec<_> = items.iter().map(|v| leaves(v, item, "")).collect();
        let header: Vec<&str> = cells[0].iter().map(|(column, _)| column.as_str()).collect();
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|r| r.iter().map(|(_, cell)| cell.clone()).collect())
            .collect();
        out.push_str(&format!("{key}\n\n{}", table(&header, &rows)));
        for (_, claim, paper, gated, check) in CLAIMS.iter().filter(|c| c.0 == *key) {
            out.push_str(&format!(
                "{claim} — paper: {paper}; here: {}\n",
                verdict(*gated, *check, &root)
            ));
        }
        out.push('\n');
    }
    Ok(out + &markdown(&root))
}

/// `(column, cell)` for each leaf of `value`, nested keys dotted: a
/// [`Shape::Unit`] as a percentage, a `*_bytes` count in KB/MB/GB, another
/// integer as is, another number to about three significant figures.
fn leaves(value: &Value, shape: &Shape, column: &str) -> Vec<(String, String)> {
    let cell = match (value, shape) {
        (Value::Object(map), Shape::Obj(fields)) => {
            return map
                .iter()
                .zip(*fields)
                .flat_map(|((k, v), (_, s))| {
                    leaves(v, s, format!("{column}.{k}").trim_start_matches('.'))
                })
                .collect()
        }
        (Value::String(s), _) => s.clone(),
        (Value::Number(n), Shape::Unit) => pct(n.as_f64()),
        (Value::Number(n), _) => match (n.as_u64(), n.as_f64()) {
            (Some(u), _) if column.ends_with("_bytes") => bytes_h(u),
            (Some(u), _) => u.to_string(),
            (_, x) if x >= 100.0 => format!("{x:.0}"),
            (_, x) if x >= 0.01 => format!("{x:.2}"),
            (_, x) => format!("{x:.2e}"),
        },
        (other, _) => other.kind().to_string(),
    };
    vec![(column.to_string(), cell)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_paper.json"
        ))
        .expect("BENCH_paper.json is committed at the repository root")
    }

    /// The committed artifact has its shape and every gated claim, on all
    /// five datasets, and the README carries the claims table it renders.
    #[test]
    fn committed_artifact_is_schema_stable() {
        let root = checked(&committed()).expect("committed BENCH_paper.json validates");
        assert_eq!(schema::items_of(&root, "datasets").len(), 5);
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the repository root");
        let table = markdown(&root);
        assert!(
            readme.contains(&table),
            "README.md's claims table is stale; paper_bench prints:\n{table}"
        );
    }

    /// Each gated ordering of the committed artifact, flipped, fails with
    /// the path of the value that broke it.
    #[test]
    fn each_gated_ordering_fails_at_its_path() {
        let root = serde_json::parse_value_str(&committed()).expect("parses");
        for (path, leaf, error) in [
            ("fig3.14.mse", "0.9", "root.fig3[14]:"), // Venice's sparsest point reads 68%
            ("fig3.1.sampling", "0.0", "root.fig3[1].sampling:"),
            ("table2.1.default.f1", "1.0", "root.table2[1].semantic.f1:"),
            ("table3.0.sieve_fps", "1.0", "root.table3[0].sieve_fps:"),
            ("table3.2.sift_fps", "1e12", "root.table3[2].mse_fps:"),
            (
                "end_to_end.2.videos_3",
                "1e12",
                "root.end_to_end[2].videos_3:",
            ),
            (
                "end_to_end.4.edge_cloud_bytes",
                "0",
                "root.end_to_end[4].edge_cloud_bytes:",
            ),
            (
                "end_to_end.1.edge_cloud_bytes",
                "0",
                "root.end_to_end[1].edge_cloud_bytes:",
            ),
        ] {
            let mut flipped = root.clone();
            let at = path.split('.').fold(&mut flipped, |v, key| match v {
                Value::Object(map) => map.get_mut(key).expect("key in the artifact"),
                Value::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
                _ => panic!("{path} is not a leaf of the artifact"),
            });
            *at = serde_json::parse_value_str(leaf).expect("a number");
            let json = serde_json::to_string(&flipped).expect("serializes");
            let err = validate(&json).expect_err(error);
            assert!(err.starts_with(error), "{error}: {err}");
        }
    }

    #[test]
    fn wrong_typed_leaves_are_rejected_by_path() {
        for (path, json) in schema::wrong_typed_leaves(&committed()) {
            let err = validate(&json).expect_err(&path);
            assert!(err.starts_with(&path), "{path}: {err}");
        }
    }
}
