//! Steady-state allocation audit of the transport.
//!
//! Drives 8 KiB blocks (seven data fragments and two parity at MTU 1200,
//! FEC (8, 2)) over a clean channel, the way `e2e_bench`'s `wan_loop`
//! saturates the uplink. Once warm:
//!
//! * the receive side — `Depacketizer::push` on what the channel delivers —
//!   makes at most one allocation of a fragment's payload size or more per
//!   delivered block: the delivered buffer itself;
//! * a whole `Uplink::send_block_at` allocates under [`UPLINK_BYTES_BOUND`]
//!   bytes per block.
//!
//! A single `#[test]` in a binary of its own, because the counting
//! allocator is process-global and sees every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sieve_core::adapt::WanSignal;
use sieve_net::packet::HEADER_BYTES;
use sieve_net::{
    BlockOutcome, Depacketizer, FecConfig, Packetizer, Uplink, UplinkConfig, WanChannel, WanConfig,
};
use sieve_simnet::SimTime;
use sieve_stats::Registry;

const MTU: usize = 1200;
const FRAG_PAYLOAD: usize = MTU - HEADER_BYTES;
const BLOCK_BYTES: usize = 8 * 1024;
/// Virtual time between two blocks: about ten blocks in flight at once.
const GAP_SECS: f64 = 0.002;
const WARM_BLOCKS: u64 = 200;
const AUDITED_BLOCKS: u64 = 2_000;

/// Bytes the receive side may allocate per delivered block: the block's
/// own buffer plus its fragment lists. Measured at 8 704; the depacketizer
/// that appended in-order fragments to a growing buffer took 16 600, in
/// three allocations of a fragment's size or more.
const RECEIVE_BYTES_BOUND: u64 = 9_000;
/// Bytes a whole `send_block_at` may allocate per block: nine fragment
/// payloads, the delivered buffer and the bookkeeping around them.
/// Measured at 21 505; with the growing reassembly buffer, an ordered map
/// of in-flight packets and a per-block in-flight map it was 30 871.
const UPLINK_BYTES_BOUND: u64 = 22_000;

/// Forwards to the system allocator; while [`COUNTING`] is set, totals the
/// bytes requested and counts the requests of at least a fragment's
/// payload (frees are irrelevant to the audit).
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if size >= FRAG_PAYLOAD {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter on; returns its result with the bytes and
/// large allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (bytes, large) = (
        BYTES.load(Ordering::Relaxed),
        LARGE_ALLOCATIONS.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        BYTES.load(Ordering::Relaxed) - bytes,
        LARGE_ALLOCATIONS.load(Ordering::Relaxed) - large,
    )
}

fn block(id: u64) -> Vec<u8> {
    (0..BLOCK_BYTES as u64)
        .map(|i| (i ^ id.wrapping_mul(131)) as u8)
        .collect()
}

fn at(id: u64) -> SimTime {
    SimTime::from_secs_f64(id as f64 * GAP_SECS)
}

#[test]
fn the_transport_allocates_one_buffer_per_delivered_block() {
    let fec = FecConfig::new(8, 2).expect("fec");
    let payloads: Vec<Vec<u8>> = (0..16).map(block).collect();

    // The receive side, on its own: the sender's work is not counted.
    let mut tx = Packetizer::new(MTU, fec, 0).expect("packetizer");
    let mut channel = WanChannel::new(WanConfig::clean(1)).expect("channel");
    let mut rx = Depacketizer::new(MTU, fec).expect("depacketizer");
    let (mut delivered, mut bytes, mut large) = (0u64, 0u64, 0u64);
    for id in 0..WARM_BLOCKS + AUDITED_BLOCKS {
        let (_, packets) = tx.packetize(&payloads[id as usize % payloads.len()]);
        for p in packets {
            channel.send(at(id), p);
        }
        for p in channel.poll(at(id)) {
            let (reports, b, l) = counted(|| rx.push(p));
            assert!(reports
                .iter()
                .all(|r| matches!(r.outcome, BlockOutcome::Delivered(_))));
            if id >= WARM_BLOCKS {
                delivered += reports.len() as u64;
                (bytes, large) = (bytes + b, large + l);
            }
        }
    }
    assert!(delivered >= AUDITED_BLOCKS - 20, "{delivered} delivered");
    println!(
        "receive side: {:.2} allocations of {FRAG_PAYLOAD} B or more and {} B per delivered block",
        large as f64 / delivered as f64,
        bytes / delivered
    );
    assert!(
        large <= delivered,
        "{large} allocation(s) of a fragment's size or more for {delivered} delivered blocks"
    );
    assert!(
        bytes < RECEIVE_BYTES_BOUND * delivered,
        "receive side: {} B per delivered block",
        bytes / delivered
    );

    // The whole uplink: packetize, channel, reassembly and feedback.
    let registry = Arc::new(Registry::new());
    let mut uplink = Uplink::with_registry(UplinkConfig::over(WanConfig::clean(2)), &registry)
        .expect("uplink")
        .with_signal(Arc::new(WanSignal::new()));
    let mut bytes = 0u64;
    for id in 0..WARM_BLOCKS + AUDITED_BLOCKS {
        let payload = &payloads[id as usize % payloads.len()];
        let (reports, b, _) = counted(|| uplink.send_block_at(at(id), payload));
        drop(reports);
        if id >= WARM_BLOCKS {
            bytes += b;
        }
    }
    println!("uplink: {} B per block", bytes / AUDITED_BLOCKS);
    assert!(
        bytes < UPLINK_BYTES_BOUND * AUDITED_BLOCKS,
        "send_block_at: {} B per block",
        bytes / AUDITED_BLOCKS
    );
    let c = uplink.counts();
    assert_eq!(c.blocks_lost, 0, "{c:?}");
}
