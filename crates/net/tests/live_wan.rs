//! The uplink driven block by block over the hostile WAN: every block
//! resolves to exactly one outcome, what is reassembled is what was sent,
//! and the `wan.*` registry series stay consistent with the uplink's own
//! ledger.

use std::sync::Arc;

use sieve_core::adapt::WanSignal;
use sieve_net::{BlockOutcome, BlockReport, Uplink, UplinkConfig, WanConfig};
use sieve_simnet::{SimTime, WAN_STAGE};
use sieve_stats::Registry;

fn payload(id: u64, bytes: usize) -> Vec<u8> {
    (0..bytes).map(|i| (i as u64 ^ id) as u8).collect()
}

/// Ships `n` blocks of `bytes` at 30 blocks a virtual second over a
/// `paper_wan(seed, loss)` channel and returns the registry, the finished
/// uplink and every block verdict. Block ids count up from zero, so block
/// `id` carried `payload(id, bytes)`.
fn ship(seed: u64, loss: f64, n: u64, bytes: usize) -> (Arc<Registry>, Uplink, Vec<BlockReport>) {
    let registry = Arc::new(Registry::new());
    let mut uplink = Uplink::with_registry(
        UplinkConfig::over(WanConfig::paper_wan(seed, loss)),
        &registry,
    )
    .expect("uplink")
    .with_signal(Arc::new(WanSignal::new()));
    let mut reports = Vec::new();
    for id in 0..n {
        let now = SimTime::from_secs_f64(id as f64 / 30.0);
        reports.extend(uplink.send_block_at(now, &payload(id, bytes)));
    }
    reports.extend(uplink.finish());
    (registry, uplink, reports)
}

#[test]
fn wan_stage_in_a_live_pipeline_conserves_items() {
    let n = 150u64;
    let bytes = 3000usize;
    let (registry, uplink, reports) = ship(21, 0.05, n, bytes);

    // Every block either crossed the WAN or was reported lost, once.
    let mut ids: Vec<u64> = reports.iter().map(|r| r.block_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..n).collect::<Vec<_>>(), "one verdict per block");

    // Reassembled payloads are the original bytes.
    let mut usable = 0u64;
    let mut lost = 0u64;
    for r in &reports {
        match &r.outcome {
            BlockOutcome::Delivered(got) | BlockOutcome::Recovered(got) => {
                assert_eq!(got, &payload(r.block_id, bytes), "block {}", r.block_id);
                usable += 1;
            }
            BlockOutcome::Lost => lost += 1,
        }
    }
    assert!(
        usable > n / 2,
        "5% loss with 8+2 FEC must deliver most blocks, got {usable}/{n}"
    );

    // The uplink's ledger agrees with the verdicts it handed out.
    let c = uplink.counts();
    assert_eq!(c.blocks_sent, n);
    assert_eq!(
        c.blocks_sent,
        c.blocks_delivered + c.blocks_recovered + c.blocks_lost,
        "block conservation"
    );
    assert_eq!(c.blocks_usable(), usable);
    assert_eq!(c.blocks_lost, lost);
    assert_eq!(c.delivered_bytes, usable * bytes as u64);

    // The `wan.*` series agree with the ledger.
    let sample = registry.sample();
    let wan = |name: &str| {
        sample
            .counters
            .get(&format!("{WAN_STAGE}.{name}"))
            .copied()
            .unwrap_or_else(|| panic!("{WAN_STAGE}.{name} missing from the registry"))
    };
    assert_eq!(wan("blocks_sent"), c.blocks_sent);
    assert_eq!(wan("blocks_delivered"), c.blocks_delivered);
    assert_eq!(wan("blocks_recovered"), c.blocks_recovered);
    assert_eq!(wan("blocks_lost"), c.blocks_lost);
    assert_eq!(wan("packets_sent"), c.packets_sent);
    assert!(wan("packets_sent") > 0);
    assert_eq!(wan("delivered_bytes"), c.delivered_bytes);
}

#[test]
fn recovered_blocks_appear_under_loss_but_not_on_a_clean_channel() {
    for (loss, seed) in [(0.0, 1u64), (0.06, 2u64)] {
        let (_, uplink, reports) = ship(seed, loss, 120, 4000);
        let c = uplink.counts();
        assert_eq!(reports.len(), 120);
        if loss == 0.0 {
            assert_eq!(
                c.blocks_recovered, 0,
                "no recovery needed on a clean channel"
            );
            assert_eq!(c.blocks_lost, 0);
        } else {
            assert!(
                c.blocks_recovered > 0,
                "6% loss with 8+2 FEC must exercise recovery, got {c:?}"
            );
        }
    }
}
