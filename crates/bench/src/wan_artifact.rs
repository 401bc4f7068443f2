//! The `BENCH_wan.json` schema: serialized types plus a stability
//! validator for the `fig4_fleet` hostile-WAN sweep.
//!
//! The artifact records the FEC-on/off × feedback-on/off A/B grid over an
//! ascending loss sweep. Beyond the shape ([`SHAPE`]: exact keys, every
//! leaf typed), [`validate`] asserts the properties the experiment exists
//! to demonstrate, so a regression in the transport (FEC that stops
//! recovering, feedback that stops converging) fails `cargo test` on the
//! *committed* artifact before it lands:
//!
//! * block conservation in every run (`sent == delivered + recovered +
//!   lost`), and `recovered == 0` whenever FEC is off;
//! * at the 5%-loss point, FEC-on recovers strictly more blocks than
//!   FEC-off in both feedback arms;
//! * at the 5%-loss point, feedback-on holds the achieved cloud-side
//!   sampling rate within ±20% of its (tightened) effective target while
//!   feedback-off misses by more.

use serde::{Serialize, Value};

use crate::schema::{self, Shape};

/// Relative rate error bound the feedback loop must meet at the 5% point
/// (and the bound the feedback-off arm must *exceed* there).
const RATE_ERR_BOUND: f64 = 0.2;

/// Looser bound for the `--quick` CI smoke: its 120-frame sweep is
/// dominated by the AIMD ramp-down transient, so the achieved rate sits
/// near the strict bound and thread-scheduling noise can tip it over.
/// The committed artifact always validates against `RATE_ERR_BOUND`.
pub const QUICK_RATE_ERR_BOUND: f64 = 0.3;

/// The loss point the headline inequalities are asserted at.
const HEADLINE_LOSS: f64 = 0.05;

/// One arm of the A/B grid at one loss point.
#[derive(Debug, Serialize)]
pub struct WanRun {
    /// Frames the fleet decided (all streams).
    pub frames_observed: u64,
    /// Frames kept — each kept frame ships as one block.
    pub frames_kept: u64,
    /// Blocks offered to the uplink.
    pub blocks_sent: u64,
    /// Blocks whose data fragments all arrived.
    pub blocks_delivered: u64,
    /// Blocks rebuilt from FEC parity.
    pub blocks_recovered: u64,
    /// Blocks beyond the parity budget.
    pub blocks_lost: u64,
    /// Fragments offered to the channel.
    pub packets_sent: u64,
    /// Fragments randomly lost in the channel.
    pub packets_lost: u64,
    /// Fragments tail-dropped by the bandwidth cap's queue.
    pub packets_congestion_dropped: u64,
    /// Fragments that arrived out of send order.
    pub packets_reordered: u64,
    /// Payload bytes that reached the cloud usable.
    pub delivered_bytes: u64,
    /// `delivered_bytes × 8 / stream-duration`.
    pub goodput_bps: f64,
    /// Usable blocks per observed frame — the sampling rate the cloud
    /// actually sees.
    pub achieved_cloud_rate: f64,
    /// The target this arm was steering toward: `target_rate ×
    /// mean_wan_factor` with feedback on, the raw target with it off.
    pub effective_target: f64,
    /// `|achieved_cloud_rate − effective_target| / effective_target`.
    pub rate_err: f64,
    /// Time-average of the WAN control factor over the run (1.0 with
    /// feedback off).
    pub mean_wan_factor: f64,
}

/// The four arms at one loss rate.
#[derive(Debug, Serialize)]
pub struct WanRuns {
    pub fec_on_feedback_on: WanRun,
    pub fec_on_feedback_off: WanRun,
    pub fec_off_feedback_on: WanRun,
    pub fec_off_feedback_off: WanRun,
}

/// One loss point of the sweep.
#[derive(Debug, Serialize)]
pub struct WanPoint {
    /// Nominal i.i.d. fragment loss rate of the channel.
    pub loss: f64,
    pub runs: WanRuns,
}

/// The whole artifact written to `BENCH_wan.json`.
#[derive(Debug, Serialize)]
pub struct WanArtifact {
    /// Always `"fig4_fleet"`.
    pub benchmark: String,
    /// Dataset scale the run used (`Tiny`/`Small`/`Full`).
    pub scale: String,
    /// Concurrent fleet streams sharing the uplink.
    pub streams: usize,
    /// Frames fed per stream.
    pub frames_per_stream: usize,
    /// Requested sampling rate of every stream's controller.
    pub target_rate: f64,
    /// On-wire packet budget, header included.
    pub mtu: usize,
    /// FEC group shape of the FEC-on arms.
    pub fec: WanFecShape,
    /// Bottleneck capacity of the channel, bits/second.
    pub bandwidth_bps: f64,
    /// The loss sweep, ascending from 0.
    pub points: Vec<WanPoint>,
}

/// The `K + R` group shape serialized into the artifact.
#[derive(Debug, Serialize)]
pub struct WanFecShape {
    pub group_data: usize,
    pub group_parity: usize,
}

const RUN: Shape = Shape::Obj(&[
    ("frames_observed", Shape::UInt),
    ("frames_kept", Shape::UInt),
    ("blocks_sent", Shape::UInt),
    ("blocks_delivered", Shape::UInt),
    ("blocks_recovered", Shape::UInt),
    ("blocks_lost", Shape::UInt),
    ("packets_sent", Shape::UInt),
    ("packets_lost", Shape::UInt),
    ("packets_congestion_dropped", Shape::UInt),
    ("packets_reordered", Shape::UInt),
    ("delivered_bytes", Shape::UInt),
    ("goodput_bps", Shape::Num),
    ("achieved_cloud_rate", Shape::Unit),
    ("effective_target", Shape::Unit),
    ("rate_err", Shape::Num),
    ("mean_wan_factor", Shape::Unit),
]);

/// The four arms, FEC-on first; [`validate_with_rate_bound`] reads
/// whether FEC is on from the name.
const ARMS: [&str; 4] = [
    "fec_on_feedback_on",
    "fec_on_feedback_off",
    "fec_off_feedback_on",
    "fec_off_feedback_off",
];

const FEC: Shape = Shape::Obj(&[("group_data", Shape::Count), ("group_parity", Shape::Count)]);

const POINT: Shape = Shape::Obj(&[
    ("loss", Shape::Unit),
    (
        "runs",
        Shape::Obj(&[
            (ARMS[0], RUN),
            (ARMS[1], RUN),
            (ARMS[2], RUN),
            (ARMS[3], RUN),
        ]),
    ),
]);

/// The shape of `BENCH_wan.json`.
pub const SHAPE: Shape = Shape::Obj(&[
    ("benchmark", Shape::OneOf(&["fig4_fleet"])),
    ("scale", Shape::Str),
    ("streams", Shape::Count),
    ("frames_per_stream", Shape::Count),
    ("target_rate", Shape::Unit),
    ("mtu", Shape::Count),
    ("fec", FEC),
    ("bandwidth_bps", Shape::Pos),
    ("points", Shape::Arr(&POINT)),
]);

/// The ledgers one arm must balance.
fn check_run(run: &Value, fec_on: bool, what: &str) -> Result<(), String> {
    let of = |key| schema::number_of(run, key);
    let (sent, delivered) = (of("blocks_sent"), of("blocks_delivered"));
    let (recovered, lost) = (of("blocks_recovered"), of("blocks_lost"));
    if sent != delivered + recovered + lost {
        return Err(format!(
            "{what}: block conservation violated: {sent} sent != \
             {delivered} delivered + {recovered} recovered + {lost} lost"
        ));
    }
    let kept = of("frames_kept");
    if sent != kept {
        return Err(format!(
            "{what}: every kept frame must ship exactly once: \
             {kept} kept but {sent} blocks sent"
        ));
    }
    if !fec_on && recovered != 0.0 {
        return Err(format!("{what}: {recovered} blocks recovered with FEC off"));
    }
    if of("packets_lost") + of("packets_congestion_dropped") > of("packets_sent") {
        return Err(format!("{what}: more packets lost than sent"));
    }
    let err = of("rate_err");
    if err < 0.0 {
        return Err(format!("{what}.rate_err: {err} not a rate error"));
    }
    Ok(())
}

/// Asserts schema stability *and* the headline experiment semantics; see
/// the module docs. `json` is the full text of `BENCH_wan.json`.
///
/// # Errors
///
/// A human-readable description of the first violated rule.
pub fn validate(json: &str) -> Result<(), String> {
    validate_with_rate_bound(json, RATE_ERR_BOUND)
}

/// [`validate`] with an explicit feedback-on rate-error bound — the
/// `--quick` smoke validates its transient-heavy sweep against
/// [`QUICK_RATE_ERR_BOUND`] instead of the committed-artifact bound.
pub fn validate_with_rate_bound(json: &str, rate_err_bound: f64) -> Result<(), String> {
    let root = schema::parse(json, &SHAPE)?;
    let mut prev_loss = -1.0;
    let mut headline = None;
    for (i, point) in schema::items_of(&root, "points").iter().enumerate() {
        let what = format!("points[{i}]");
        let loss = schema::number_of(point, "loss");
        if i == 0 && loss != 0.0 {
            return Err("points[0].loss: the sweep must start lossless".to_string());
        }
        if loss <= prev_loss {
            return Err(format!("{what}.loss: sweep must be ascending"));
        }
        prev_loss = loss;
        let runs = schema::member(point, "runs");
        for arm in ARMS {
            check_run(
                schema::member(runs, arm),
                arm.starts_with("fec_on"),
                &format!("{what}.runs.{arm}"),
            )?;
        }
        if (loss - HEADLINE_LOSS).abs() < 1e-9 {
            headline = Some(runs);
        }
    }
    if prev_loss < 0.10 - 1e-9 {
        return Err(format!(
            "points: the sweep must reach 10% loss, stops at {prev_loss}"
        ));
    }

    // The headline inequalities at the 5% point.
    let runs = headline
        .ok_or_else(|| format!("points: the sweep must include the {HEADLINE_LOSS} loss point"))?;
    let at = |arm, key| schema::number_of(schema::member(runs, arm), key);
    for (on_arm, off_arm) in [
        ("fec_on_feedback_on", "fec_off_feedback_on"),
        ("fec_on_feedback_off", "fec_off_feedback_off"),
    ] {
        let on = at(on_arm, "blocks_recovered");
        let off = at(off_arm, "blocks_recovered");
        if on <= off {
            return Err(format!(
                "at {HEADLINE_LOSS} loss, {on_arm} must recover strictly more \
                 blocks than {off_arm}: {on} vs {off}"
            ));
        }
    }
    let fb_on = at("fec_on_feedback_on", "rate_err");
    let fb_off = at("fec_on_feedback_off", "rate_err");
    if fb_on > rate_err_bound {
        return Err(format!(
            "at {HEADLINE_LOSS} loss, feedback-on must hold the achieved rate \
             within ±{rate_err_bound} of its effective target; rate_err = {fb_on}"
        ));
    }
    // The feedback-off arm must miss by more than the *strict* bound in
    // every mode — the demonstration floor does not loosen with the
    // feedback-on tolerance.
    if fb_off <= RATE_ERR_BOUND {
        return Err(format!(
            "at {HEADLINE_LOSS} loss, feedback-off should miss its target by \
             more than {RATE_ERR_BOUND} (else the loop proves nothing); \
             rate_err = {fb_off}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(recovered: u64, lost: u64, rate_err: f64, factor: f64) -> WanRun {
        let sent = 400u64;
        let delivered = sent - recovered - lost;
        WanRun {
            frames_observed: 1200,
            frames_kept: sent,
            blocks_sent: sent,
            blocks_delivered: delivered,
            blocks_recovered: recovered,
            blocks_lost: lost,
            packets_sent: 4000,
            packets_lost: 200,
            packets_congestion_dropped: 100,
            packets_reordered: 40,
            delivered_bytes: 2_000_000,
            goodput_bps: 3.2e6,
            achieved_cloud_rate: 0.3,
            effective_target: 0.3 * factor,
            rate_err,
            mean_wan_factor: factor,
        }
    }

    fn point(loss: f64) -> WanPoint {
        WanPoint {
            loss,
            runs: WanRuns {
                fec_on_feedback_on: run(30, 5, 0.1, 0.6),
                fec_on_feedback_off: run(25, 40, 0.5, 1.0),
                fec_off_feedback_on: run(0, 60, 0.15, 0.5),
                fec_off_feedback_off: run(0, 90, 0.6, 1.0),
            },
        }
    }

    fn sample() -> WanArtifact {
        WanArtifact {
            benchmark: "fig4_fleet".into(),
            scale: "Tiny".into(),
            streams: 8,
            frames_per_stream: 150,
            target_rate: 0.3,
            mtu: 1200,
            fec: WanFecShape {
                group_data: 8,
                group_parity: 2,
            },
            bandwidth_bps: 5e6,
            points: vec![point(0.0), point(0.025), point(0.05), point(0.10)],
        }
    }

    fn render(a: &WanArtifact) -> String {
        serde_json::to_string_pretty(a).expect("serializes")
    }

    #[test]
    fn valid_artifact_passes() {
        validate(&render(&sample())).expect("sample is valid");
    }

    #[test]
    fn conservation_violation_is_caught() {
        let mut a = sample();
        a.points[1].runs.fec_on_feedback_on.blocks_lost += 1;
        let err = validate(&render(&a)).expect_err("broken conservation");
        assert!(err.contains("conservation"), "{err}");
    }

    #[test]
    fn fec_off_recovery_is_rejected() {
        let mut a = sample();
        a.points[0].runs.fec_off_feedback_off.blocks_recovered = 3;
        a.points[0].runs.fec_off_feedback_off.blocks_delivered -= 3;
        let err = validate(&render(&a)).expect_err("phantom recovery");
        assert!(err.contains("FEC off"), "{err}");
    }

    #[test]
    fn headline_recovery_inequality_is_enforced() {
        let mut a = sample();
        a.points[2].runs.fec_on_feedback_on.blocks_recovered = 0;
        a.points[2].runs.fec_on_feedback_on.blocks_delivered = 395;
        let err = validate(&render(&a)).expect_err("FEC stopped recovering");
        assert!(err.contains("strictly more"), "{err}");
    }

    #[test]
    fn headline_rate_bound_is_enforced() {
        let mut a = sample();
        a.points[2].runs.fec_on_feedback_on.rate_err = 0.4;
        let err = validate(&render(&a)).expect_err("feedback stopped converging");
        assert!(err.contains("feedback-on"), "{err}");
    }

    #[test]
    fn quick_bound_is_looser_but_not_absent() {
        // A transient-heavy quick run may sit between the strict and the
        // quick bound — rejected for the committed artifact, accepted for
        // the CI smoke — but a genuinely broken loop fails both.
        let mut a = sample();
        a.points[2].runs.fec_on_feedback_on.rate_err = 0.25;
        let json = render(&a);
        validate(&json).expect_err("0.25 must fail the strict bound");
        validate_with_rate_bound(&json, QUICK_RATE_ERR_BOUND).expect("0.25 passes the quick bound");
        a.points[2].runs.fec_on_feedback_on.rate_err = 0.5;
        let err = validate_with_rate_bound(&render(&a), QUICK_RATE_ERR_BOUND)
            .expect_err("0.5 fails even the quick bound");
        assert!(err.contains("feedback-on"), "{err}");
    }

    #[test]
    fn sweep_must_start_at_zero_and_reach_ten_percent() {
        let mut a = sample();
        a.points.remove(0);
        assert!(validate(&render(&a)).is_err());
        let mut a = sample();
        a.points.pop();
        let err = validate(&render(&a)).expect_err("sweep too short");
        assert!(err.contains("10%"), "{err}");
    }

    /// Every leaf has a type, the ones no invariant reads included
    /// (`frames_observed`, `packets_reordered`, `delivered_bytes`,
    /// `goodput_bps`, `scale`, `streams`, `mtu`, `bandwidth_bps`): a
    /// string or `null` there does not validate.
    #[test]
    fn wrong_typed_leaves_are_rejected_by_path() {
        for (path, json) in schema::wrong_typed_leaves(&render(&sample())) {
            let err = validate(&json).expect_err(&path);
            assert!(err.starts_with(&path), "{path}: {err}");
        }
    }

    #[test]
    fn missing_key_is_a_schema_error() {
        let json = render(&sample()).replace("\"mean_wan_factor\"", "\"renamed_factor\"");
        assert!(validate(&json).is_err());
    }

    /// The committed artifact at the repository root must always satisfy
    /// the schema *and* the headline inequalities — a transport
    /// regression that slips into a regenerated artifact fails here.
    #[test]
    fn committed_artifact_is_schema_stable() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wan.json");
        let json = std::fs::read_to_string(path)
            .expect("BENCH_wan.json is committed at the repository root");
        validate(&json).expect("committed BENCH_wan.json satisfies its schema");
    }
}
