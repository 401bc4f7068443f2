//! The uplink's reports, pinned.
//!
//! Ships 20 000 blocks of varying length through `Uplink::send_block_at`
//! and `finish` in five channel configurations and hashes, in report
//! order, each report's block id, outcome kind and payload; then the
//! uplink's `UplinkCounts`, every `wan.*` instrument of its registry and
//! the final factor of its explicit `WanSignal`. The constants below were
//! captured from the uplink that scanned every outstanding block on each
//! pump, with the channel's in-flight packets in an ordered map. Any drift
//! — a report's position, an outcome, one payload byte, a counter, the
//! feedback the signal saw — fails here.

use std::sync::Arc;

use sieve_core::adapt::WanSignal;
use sieve_net::uplink::UplinkCounts;
use sieve_net::{BlockOutcome, BlockReport, LossModel, Uplink, UplinkConfig, WanConfig};
use sieve_simnet::SimTime;
use sieve_stats::Registry;

const BLOCKS: u64 = 20_000;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_u64(hash: &mut u64, v: u64) {
    fnv(hash, &v.to_le_bytes());
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Block `id`'s payload: empty every 50th block, otherwise up to ten
/// 1172-byte fragments plus a tail, so blocks span one or two FEC groups.
fn payload(rng: &mut Xorshift, id: u64) -> Vec<u8> {
    let len = if id % 50 == 7 {
        0
    } else {
        (rng.next() % 12_000) as usize + 1
    };
    let salt = rng.next();
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9).wrapping_add(salt) >> 11) as u8)
        .collect()
}

/// One configuration: the uplink's shape and the virtual time between
/// two blocks.
struct Case {
    name: &'static str,
    cfg: UplinkConfig,
    gap_secs: f64,
    want: u64,
}

fn cases() -> Vec<Case> {
    // `e2e_bench`'s saturate shape: 5% mean burst loss on an uncapped link.
    let mut saturate = WanConfig::paper_wan(11, 0.0);
    saturate.loss = LossModel::GilbertElliott {
        to_bad: 0.02,
        to_good: 0.3,
        loss_good: 0.02,
        loss_bad: 0.5,
    };
    saturate.bandwidth_bps = 1e12;
    saturate.queue_bytes = 1 << 30;

    let mut iid = WanConfig::paper_wan(12, 0.2);
    iid.bandwidth_bps = 1e12;
    iid.queue_bytes = 1 << 30;

    // About 24 Mbit/s offered into 16: a standing queue, ECN marks and
    // tail drops.
    let mut capped = WanConfig::paper_wan(13, 0.05);
    capped.bandwidth_bps = 16e6;
    capped.queue_bytes = 64 * 1024;

    // A 2 KiB backlog on a 200 kbit/s link: most blocks lose every fragment.
    let mut starved = WanConfig::paper_wan(14, 0.0);
    starved.bandwidth_bps = 2e5;
    starved.queue_bytes = 2 * 1024;

    // Every packet held back up to 0.2 s, a hundred blocks: whole blocks
    // arrive only after the reassembly horizon has settled them, so several
    // can go lost wholesale in one step.
    let mut scrambled = WanConfig::paper_wan(15, 0.05);
    scrambled.reorder = 1.0;
    scrambled.reorder_delay_secs = 0.2;
    scrambled.bandwidth_bps = 1e12;
    scrambled.queue_bytes = 1 << 30;

    [
        ("saturate", saturate, 0.002, 0xe01e_2feb_1f25_3c83),
        ("iid_20pct", iid, 0.002, 0xc624_820f_1bdc_4b51),
        ("capped", capped, 0.002, 0xc54a_67f9_d979_25ea),
        ("starved", starved, 1.0 / 30.0, 0x857a_a71b_5b22_c5ff),
        ("scrambled", scrambled, 0.002, 0x231d_5742_d6d6_34e1),
    ]
    .into_iter()
    .map(|(name, wan, gap_secs, want)| Case {
        name,
        cfg: UplinkConfig::over(wan),
        gap_secs,
        want,
    })
    .collect()
}

/// Folds reports into `hash` in the order the uplink handed them out.
fn record(hash: &mut u64, reports: Vec<BlockReport>) {
    for r in reports {
        fnv_u64(hash, r.block_id);
        let (kind, bytes): (u64, &[u8]) = match &r.outcome {
            BlockOutcome::Delivered(p) => (1, p),
            BlockOutcome::Recovered(p) => (2, p),
            BlockOutcome::Lost => (3, &[]),
        };
        fnv_u64(hash, kind);
        fnv_u64(hash, bytes.len() as u64);
        fnv(hash, bytes);
    }
}

fn hash_run(case: &Case) -> (u64, UplinkCounts) {
    let registry = Arc::new(Registry::new());
    let signal = Arc::new(WanSignal::new());
    let mut uplink = Uplink::with_registry(case.cfg.clone(), &registry)
        .expect("uplink")
        .with_signal(signal.clone());
    let mut rng = Xorshift(0x5eed_0000 ^ case.cfg.wan.seed);
    let mut hash = FNV_OFFSET;
    for id in 0..BLOCKS {
        let now = SimTime::from_secs_f64(id as f64 * case.gap_secs);
        let block = payload(&mut rng, id);
        record(&mut hash, uplink.send_block_at(now, &block));
    }
    record(&mut hash, uplink.finish());

    let c = uplink.counts();
    for v in [
        c.blocks_sent,
        c.blocks_delivered,
        c.blocks_recovered,
        c.blocks_lost,
        c.packets_sent,
        c.packets_lost,
        c.packets_congestion_dropped,
        c.packets_reordered,
        c.delivered_bytes,
        c.feedback_quanta,
        c.factor_sum.to_bits(),
    ] {
        fnv_u64(&mut hash, v);
    }
    let sample = registry.sample();
    for (name, v) in sample.counters.iter().chain(&sample.gauges) {
        fnv(&mut hash, name.as_bytes());
        fnv_u64(&mut hash, *v);
    }
    fnv_u64(&mut hash, signal.factor().to_bits());
    (hash, c)
}

#[test]
fn uplink_reports_counters_and_signal_are_unchanged() {
    let mut drift = Vec::new();
    for case in cases() {
        let (got, c) = hash_run(&case);
        assert_eq!(c.blocks_sent, BLOCKS, "{}", case.name);
        assert_eq!(
            c.blocks_sent,
            c.blocks_delivered + c.blocks_recovered + c.blocks_lost,
            "{}: one verdict per block",
            case.name
        );
        println!("{}: {got:#018x} {c:?}", case.name);
        if got != case.want {
            drift.push(format!(
                "{}: {got:#018x}, captured {:#018x}",
                case.name, case.want
            ));
        }
    }
    assert!(drift.is_empty(), "report hash drifted: {drift:?}");
}
