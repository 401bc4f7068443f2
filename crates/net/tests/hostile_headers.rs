//! Everything off the wire is hostile: structure-aware mutation of header
//! fields (and payload lengths) of genuine packets, fed to
//! [`Depacketizer::push`].
//!
//! 1. **Inconsistent fragments are counted and harmless.** A fragment
//!    whose header contradicts the shared layout, or its block's first
//!    fragment, lands in `wan.rejected`, resolves nothing, and leaves the
//!    block it claims to belong to deliverable bit-exact.
//! 2. **Arbitrary mutations never panic or over-allocate.** Whatever the
//!    fields say — maximal ids, fragment counts, lengths — `push` returns,
//!    and the bytes held for pending blocks never exceed the payload bytes
//!    pushed: reassembly memory follows what arrived, not what was declared.

use std::sync::Arc;

use proptest::prelude::*;
use sieve_net::{BlockOutcome, Depacketizer, FecConfig, Packet, Packetizer, WanTaps};
use sieve_stats::Registry;

const MTU: usize = 92; // 64-byte fragments
const FRAG: usize = MTU - sieve_net::packet::HEADER_BYTES;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 11) % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 56) as u8).collect()
    }

    /// A value the field's checks are most likely to trip over.
    fn edge(&mut self, current: u64, max: u64) -> u64 {
        match self.below(7) {
            0 => 0,
            1 => 1,
            2 => max,
            3 => max - 1,
            4 => current.wrapping_add(1) & max,
            5 => current.wrapping_sub(1) & max,
            _ => self.next() & max,
        }
    }
}

fn pair(fec: FecConfig) -> (Packetizer, Depacketizer, WanTaps) {
    let taps = WanTaps::register(&Arc::new(Registry::new()));
    (
        Packetizer::new(MTU, fec, 0).expect("packetizer"),
        Depacketizer::with_taps(MTU, fec, taps.clone()).expect("depacketizer"),
        taps,
    )
}

/// One edit that makes `p` impossible for a packetizer of this layout to
/// have stamped for the block `p` came from.
fn break_one_invariant(p: &mut Packet, parity_frags: u16, rng: &mut Rng) {
    let h = &mut p.header;
    match rng.below(4) {
        0 => {
            // A fragment count the block length does not divide into.
            let other = rng.edge(h.data_frags as u64, u16::MAX as u64) as u16;
            h.data_frags = if other == h.data_frags {
                other ^ 1
            } else {
                other
            };
        }
        1 => {
            // Another block's length: either the fragment count no longer
            // follows from it, or it contradicts the block's first fragment.
            let other = rng.edge(h.block_len as u64, u32::MAX as u64) as u32;
            h.block_len = if other == h.block_len {
                other ^ 1
            } else {
                other
            };
        }
        2 => {
            // Past the last parity fragment.
            let first_bad = h.data_frags + parity_frags;
            h.frag_index = first_bad + rng.below((u16::MAX - first_bad) as u64 + 1) as u16;
        }
        _ => {
            // Any payload length but the one the layout dictates.
            let len = rng.below(3 * FRAG as u64) as usize;
            let len = if len == p.payload.len() { len + 1 } else { len };
            p.payload.resize(len, 0xEE);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn inconsistent_fragments_are_rejected_and_harmless(
        seed in 0u64..1 << 48,
        k in 1usize..6,
        r in 0usize..3,
        blocks in 1usize..6,
    ) {
        let mut rng = Rng(seed | 1);
        let fec = FecConfig::new(k, r).expect("valid shape");
        let (mut tx, mut rx, taps) = pair(fec);
        let mut forged = 0u64;
        for _ in 0..blocks {
            // At least two data fragments, so the genuine fragment 0 leaves
            // the block pending with its true shape on record.
            let len = FRAG + 1 + rng.below(12 * FRAG as u64) as usize;
            let block = rng.bytes(len);
            let (id, mut pkts) = tx.packetize(&block);
            let data_frags = pkts[0].header.data_frags;
            let parity_frags = pkts.len() as u16 - data_frags;
            prop_assert!(rx.push(pkts.remove(0)).is_empty());
            for _ in 0..1 + rng.below(8) {
                let victim = rng.below(pkts.len() as u64) as usize;
                let mut bad = pkts[victim].clone();
                break_one_invariant(&mut bad, parity_frags, &mut rng);
                forged += 1;
                prop_assert!(rx.push(bad).is_empty(), "a rejected fragment resolves nothing");
                prop_assert_eq!(rx.rejected(), forged);
            }
            let mut reports = Vec::new();
            for p in pkts {
                reports.extend(rx.push(p));
            }
            prop_assert_eq!(reports.len(), 1);
            prop_assert_eq!(reports[0].block_id, id);
            prop_assert_eq!(&reports[0].outcome, &BlockOutcome::Delivered(block));
        }
        prop_assert_eq!(taps.rejected.get(), forged, "wan.rejected is the same count");
        prop_assert_eq!(rx.pending_bytes(), 0);
    }

    #[test]
    fn arbitrary_header_mutations_never_panic_or_overallocate(
        seed in 0u64..1 << 48,
        k in 1usize..6,
        r in 0usize..3,
        horizon in 1u64..12,
    ) {
        let mut rng = Rng(seed | 1);
        let fec = FecConfig::new(k, r).expect("valid shape");
        let (mut tx, mut rx, taps) = pair(fec);
        rx.set_horizon(horizon);
        let mut wire = Vec::new();
        for _ in 0..12 {
            let len = rng.below(10 * FRAG as u64) as usize;
            wire.extend(tx.packetize(&rng.bytes(len)).1);
        }
        let mut pushed_bytes = 0usize;
        let mut resolved = 0usize;
        for genuine in wire {
            let mut p = genuine;
            for _ in 0..rng.below(4) {
                let h = &mut p.header;
                match rng.below(8) {
                    0 => h.stream = rng.edge(h.stream as u64, u16::MAX as u64) as u16,
                    1 => h.block_id = rng.edge(h.block_id, u64::MAX),
                    2 => h.seq = rng.edge(h.seq, u64::MAX),
                    3 => h.frag_index = rng.edge(h.frag_index as u64, u16::MAX as u64) as u16,
                    4 => h.data_frags = rng.edge(h.data_frags as u64, u16::MAX as u64) as u16,
                    5 => h.block_len = rng.edge(h.block_len as u64, u32::MAX as u64) as u32,
                    6 => {
                        // A self-consistent pair, sized to the fragment count.
                        h.data_frags = rng.edge(h.data_frags as u64, u16::MAX as u64).max(1) as u16;
                        h.block_len = (h.data_frags as u32 - 1) * FRAG as u32 + 1 + rng.below(FRAG as u64) as u32;
                    }
                    _ => {
                        let len = rng.below(3 * FRAG as u64) as usize;
                        p.payload.resize(len, 0xEE);
                    }
                }
            }
            pushed_bytes += p.payload.len();
            for report in rx.push(p) {
                resolved += 1;
                if let Some(bytes) = report.outcome.payload() {
                    prop_assert!(bytes.len() <= pushed_bytes);
                }
            }
            prop_assert!(
                rx.pending_bytes() <= pushed_bytes,
                "{} bytes pending after {} pushed", rx.pending_bytes(), pushed_bytes
            );
        }
        resolved += rx.finish().len();
        prop_assert_eq!(rx.pending(), 0);
        prop_assert_eq!(rx.pending_bytes(), 0);
        prop_assert_eq!(taps.rejected.get(), rx.rejected());
        let settled = taps.blocks_delivered.get() + taps.blocks_recovered.get() + taps.blocks_lost.get();
        prop_assert_eq!(settled, resolved as u64, "one verdict per report");
    }
}
