//! Lock-free counters and gauges.
//!
//! [`Counter`] is a monotonic event counter built for *write-heavy* hot
//! paths: increments are relaxed atomic adds against a per-thread shard
//! (cache-line padded so concurrent writers never bounce a line), and the
//! value is aggregated only on read. A single-shard counter degenerates to
//! one plain atomic — the right shape for state that is only ever touched
//! by one thread at a time (e.g. a fleet stream's own counters, which are
//! owned by whichever shard worker currently holds the stream).
//!
//! [`Gauge`] is a level (queue depth, in-flight frames): it must support
//! decrement, so it stays a single atomic — gauges are read as often as
//! they are written and sharding would buy nothing.

use std::cell::Cell;
use std::hash::{Hash, Hasher};

use crate::sync::atomic::{AtomicU64, Ordering};

/// One cache line per shard so concurrent writers do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    /// Cached shard-selection hash of this thread (0 = not yet computed).
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
}

/// A stable per-thread tag used to pick a counter shard. Derived from the
/// `ThreadId` hash once per thread and cached; the `| 1` keeps the cached
/// value distinguishable from the "unset" sentinel.
fn thread_tag() -> u64 {
    THREAD_TAG.with(|tag| {
        let cached = tag.get();
        if cached != 0 {
            return cached;
        }
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let fresh = hasher.finish() | 1;
        tag.set(fresh);
        fresh
    })
}

/// Shard count for contended fleet-wide counters: enough lanes to cover
/// the machine's parallelism, capped so a counter stays a few cache lines.
fn default_shards() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.next_power_of_two().clamp(1, 16)
}

/// A monotonic, lock-free event counter; see the module docs for the
/// sharding model.
#[derive(Debug)]
pub struct Counter {
    shards: Box<[PaddedU64]>,
    /// `shards.len() - 1`; the length is a power of two.
    mask: u64,
}

impl Default for Counter {
    /// A single-shard counter (one plain atomic).
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// A single-shard counter: the cheapest shape, right when at most one
    /// thread writes at a time.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// A counter sharded for the machine's parallelism — use for counters
    /// every worker thread hits (fleet-wide totals).
    pub fn contended() -> Self {
        Self::with_shards(default_shards())
    }

    /// A counter with `shards` write lanes (rounded up to a power of two,
    /// clamped to `1..=64`).
    fn with_shards(shards: usize) -> Self {
        let n = shards.next_power_of_two().clamp(1, 64);
        Self {
            shards: (0..n).map(|_| PaddedU64::default()).collect(),
            mask: n as u64 - 1,
        }
    }

    /// Adds `n` to the counter: one relaxed atomic add on this thread's
    /// shard, never a synchronization point for readers.
    pub fn add(&self, n: u64) {
        let shard = if self.mask == 0 {
            0
        } else {
            (thread_tag() & self.mask) as usize
        };
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total: the sum over all shards. Relaxed per-shard loads
    /// — the total is exact once writers quiesce, and monotonically
    /// catches up while they run (an aggregate-on-read counter, not a
    /// linearizable one).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A lock-free level gauge (queue depth, in-flight count): supports
/// decrement, reads exactly, single atomic.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`. The caller's protocol must keep the level
    /// non-negative (a gauge underflow wraps, exactly like the raw atomic
    /// it replaces).
    fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the level by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lowers the level by one.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Overwrites the level. For gauges that publish a sampled value (a
    /// control factor, a temperature) rather than a balanced up/down
    /// count; last writer wins.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.shards.len(), 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(Counter::with_shards(0).shards.len(), 1);
        assert_eq!(Counter::with_shards(3).shards.len(), 4);
        assert_eq!(Counter::with_shards(64).shards.len(), 64);
        assert_eq!(Counter::with_shards(1000).shards.len(), 64);
        assert!(!Counter::contended().shards.is_empty());
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = Arc::new(Counter::with_shards(8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.dec();
        g.sub(2);
        g.inc();
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn gauge_set_overwrites() {
        let g = Gauge::new();
        g.add(7);
        g.set(42);
        assert_eq!(g.get(), 42);
        g.set(0);
        assert_eq!(g.get(), 0);
    }
}
