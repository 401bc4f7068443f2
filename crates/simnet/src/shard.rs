//! A bounded multi-lane queue: the mailbox of one scheduler shard.
//!
//! A multi-stream runtime needs one worker draining *many* streams fairly,
//! where a noisy stream can neither starve its neighbours (per-lane bounded
//! queues) nor block the producer (non-blocking [`ShardQueue::try_push`]
//! with an explicit [`PushOutcome::Shed`] the caller accounts for —
//! load-shedding is a first-class outcome, distinct from a policy drop).
//!
//! [`ShardQueue`] is that primitive: lanes keyed by `u64`, opened and
//! closed at runtime, weighted priority draining for the worker, and a
//! lane-drained notification ([`GuardedPop::LaneFinished`]) so per-stream
//! end-of-stream work (session flush, final accounting) runs on the worker
//! thread in order. `sieve-fleet` builds its sharded scheduler out of one
//! `ShardQueue` per worker.
//!
//! # Priority lanes
//!
//! Every lane carries a weight in `1..=`[`MAX_LANE_WEIGHT`]
//! ([`ShardQueue::set_lane_weight`]); the drain picks the non-empty lane
//! with the greatest *effective priority* `weight + age`, where `age`
//! counts the pops that passed the lane over while it had items and resets
//! to zero on service. The aging term is the anti-starvation guarantee:
//! once a lane has been passed [`MAX_LANE_WEIGHT`] times nothing can
//! outrank it more than once more, so any non-empty lane is served within
//! `MAX_LANE_WEIGHT + lanes` pops regardless of the weight mixture (the
//! bound `sieve-fleet`'s property tests assert). With uniform weights the
//! scheme degenerates to exact round-robin.
//!
//! # Work stealing
//!
//! Two cooperating protocols let an idle worker drain a hot neighbour's
//! queue without ever reordering or double-draining a lane:
//!
//! * **Guarded pops** ([`ShardQueue::try_pop_guarded`] /
//!   [`ShardQueue::complete`]): delivering an item marks its lane *busy*
//!   until the caller completes it, so the lane's frames are processed by
//!   at most one worker at a time — covering the window between removal
//!   and the end of processing that a queue-only lock cannot see.
//! * **Owner-preferred stealing** ([`ShardQueue::try_steal`]): a thief
//!   `try_lock`s the victim's mutex (never waits — the owner always wins
//!   contention), claims the deepest non-busy lane, takes the *front half*
//!   of its items in order (steal-half batching) and marks the lane busy;
//!   the owner skips busy lanes, so the remaining (newer) items wait until
//!   the thief [`ShardQueue::complete`]s the lane. FIFO order per lane is
//!   preserved end to end: stolen items are strictly older than anything
//!   the owner can subsequently pop.
//!
//! [`GuardedPop::LaneFinished`] is only delivered for a non-busy lane, so a
//! stream's end-of-stream flush can never race a thief still draining it.
//!
//! # Wake-ups
//!
//! A condvar notify is a syscall even when nobody waits, and a saturated
//! worker never waits. So the queue counts the workers parked on its
//! condvar: [`ShardQueue::wait_for_work`] raises the count before it waits
//! and lowers it after, and every operation that
//! makes work appear (`try_push`, `complete`, `close_lane`, `shutdown`)
//! notifies only when the count is non-zero. Both sides touch the count
//! under the queue mutex, and a waiter holds that mutex from its check
//! until the wait releases it, so no wake-up can be lost.
//!
//! [`ShardQueue::nudge`] is the exception: a producer calls it on a
//! *neighbour's* queue without taking that queue's lock, so it reads an
//! atomic mirror of the count. A worker about to park can be missed, which
//! is why the nudge is only a hint: it never makes work appear, and the
//! producer repeats it on every push while its own backlog lasts.

use std::collections::VecDeque;

use sieve_stats::sync::atomic::{AtomicUsize, Ordering};
use sieve_stats::sync::{Condvar, Mutex};

/// Upper bound of a lane's scheduling weight (inclusive).
pub const MAX_LANE_WEIGHT: u32 = 8;

/// Outcome of a non-blocking push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued.
    Queued,
    /// The lane is at capacity; the item was *not* enqueued. The caller
    /// decides what shedding means (count it, retry later, drop).
    Shed,
    /// No such lane (never opened, or already finished).
    NoSuchLane,
    /// The lane was closed; no further items are accepted.
    LaneClosed,
}

/// What a worker gets from one non-blocking [`ShardQueue::try_pop_guarded`].
#[derive(Debug, PartialEq, Eq)]
pub enum GuardedPop<T> {
    /// The next item of lane `key`; the lane is now **busy** and must be
    /// released with [`ShardQueue::complete`] after processing.
    Item(u64, T),
    /// Lane `key` was closed, drained and is not busy; it no longer
    /// exists. Delivered exactly once per closed lane.
    LaneFinished(u64),
    /// Nothing poppable right now (queues empty, or every non-empty lane
    /// is busy). Try stealing, or [`ShardQueue::wait_for_work`].
    Empty,
    /// The queue is shut down and fully drained: the worker's exit signal.
    Shutdown,
}

/// Outcome of one owner-preferred [`ShardQueue::try_steal`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The thief now owns lane `key` (it is marked busy) and holds the
    /// front `items` of its queue, oldest first. The thief MUST process
    /// them in order and then call [`ShardQueue::complete`]`(key, ..)`.
    Batch {
        /// The claimed lane.
        key: u64,
        /// The stolen front batch, oldest first.
        items: Vec<T>,
    },
    /// No stealable lane (everything empty, busy, or the queue is down).
    Empty,
    /// The queue mutex was held — the owner always wins contention; the
    /// thief moves on to the next victim.
    Contended,
}

#[derive(Debug)]
struct Lane<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Scheduling weight in `1..=MAX_LANE_WEIGHT`.
    weight: u32,
    /// Pops that passed this lane over while it had items; resets on
    /// service. `weight + age` is the effective priority.
    age: u32,
    /// A worker (owner or thief) is processing this lane's items; nobody
    /// else may remove from it and LaneFinished is deferred.
    busy: bool,
}

#[derive(Debug)]
struct State<T> {
    lanes: Vec<(u64, Lane<T>)>,
    /// Rotation cursor breaking priority ties deterministically.
    cursor: usize,
    /// Items queued across all lanes (mirrors the sum of lane depths).
    queued: usize,
    /// Workers parked on the condvar (see "Wake-ups" in the module docs).
    waiters: usize,
    shutdown: bool,
}

impl<T> State<T> {
    fn lane_mut(&mut self, key: u64) -> Option<&mut Lane<T>> {
        self.lanes
            .iter_mut()
            .find(|(k, _)| *k == key)
            .map(|(_, l)| l)
    }

    /// Index of the non-empty, non-busy lane with the greatest effective
    /// priority `weight + age`; ties break toward the higher weight, then
    /// the first lane at or after the cursor.
    fn best_lane(&self) -> Option<usize> {
        let n = self.lanes.len();
        let mut best: Option<(u64, u32, usize)> = None; // (priority, weight, index)
        for step in 0..n {
            let i = (self.cursor + step) % n;
            let (_, lane) = &self.lanes[i];
            if lane.busy || lane.queue.is_empty() {
                continue;
            }
            let priority = u64::from(lane.weight) + u64::from(lane.age);
            let candidate = (priority, lane.weight, i);
            let better = match best {
                None => true,
                Some((bp, bw, _)) => priority > bp || (priority == bp && lane.weight > bw),
            };
            if better {
                best = Some(candidate);
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Serves lane `i`: removes its front item, resets its age and ages
    /// every other non-empty lane (the pass-over count of the aging term).
    fn serve(&mut self, i: usize) -> (u64, T) {
        let n = self.lanes.len();
        for (j, (_, lane)) in self.lanes.iter_mut().enumerate() {
            if j != i && !lane.queue.is_empty() {
                lane.age = lane.age.saturating_add(1);
            }
        }
        let (key, lane) = &mut self.lanes[i];
        let key = *key;
        lane.age = 0;
        // lint:allow(no-unwrap): best_lane only returns non-empty lanes
        let item = lane.queue.pop_front().expect("served lane is non-empty");
        self.queued -= 1;
        self.cursor = (i + 1) % n;
        (key, item)
    }

    /// Index of a finished lane: closed, drained, not busy.
    fn finished_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .position(|(_, l)| l.closed && !l.busy && l.queue.is_empty())
    }

    /// Whether a notify can wake anybody.
    fn has_waiters(&self) -> bool {
        // SEEDED BUG (crates/check-tests/tests/wakeup.rs): an off-by-one
        // in the waiter count skips the notify when exactly one worker is
        // parked, and that worker sleeps through the work it waits for.
        #[cfg(sieve_check_seeded_wakeup_bug)]
        {
            self.waiters > 1
        }
        #[cfg(not(sieve_check_seeded_wakeup_bug))]
        {
            self.waiters > 0
        }
    }

    fn remove_lane(&mut self, i: usize) -> u64 {
        let (key, _) = self.lanes.remove(i);
        let n = self.lanes.len();
        self.cursor = if n == 0 { 0 } else { self.cursor % n };
        key
    }
}

/// A bounded multi-lane queue with weighted-priority draining and an
/// owner-preferred steal protocol; see the module docs. All methods are
/// thread-safe; any number of producers may push concurrently.
///
/// Workers drain it with the guarded [`ShardQueue::try_pop_guarded`] /
/// [`ShardQueue::complete`] pair, parking in [`ShardQueue::wait_for_work`]
/// while there is nothing to pop, and thieves use [`ShardQueue::try_steal`]:
/// exactly-once delivery *and* per-lane FIFO processing order are
/// guaranteed under any interleaving of any number of them (model-checked
/// in `crates/check-tests`).
#[derive(Debug)]
pub struct ShardQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    /// `State::waiters`, mirrored for [`ShardQueue::nudge`]; written only
    /// under the state lock. Relaxed: it publishes no other data, and a
    /// stale read only costs a nudge (which is a hint).
    parked: AtomicUsize,
    lane_capacity: usize,
}

impl<T> ShardQueue<T> {
    /// A queue whose lanes each hold at most `lane_capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `lane_capacity` is zero.
    pub fn new(lane_capacity: usize) -> Self {
        assert!(lane_capacity > 0, "lane capacity must be positive");
        Self {
            state: Mutex::new(State {
                lanes: Vec::new(),
                cursor: 0,
                queued: 0,
                waiters: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            parked: AtomicUsize::new(0),
            lane_capacity,
        }
    }

    /// Opens lane `key` at weight 1. Returns `false` if the lane already
    /// exists or the queue is shut down.
    pub fn open_lane(&self, key: u64) -> bool {
        let mut s = self.state.lock();
        if s.shutdown || s.lanes.iter().any(|(k, _)| *k == key) {
            return false;
        }
        s.lanes.push((
            key,
            Lane {
                queue: VecDeque::new(),
                closed: false,
                weight: 1,
                age: 0,
                busy: false,
            },
        ));
        true
    }

    /// Closes lane `key`: no further pushes are accepted; once the lane
    /// drains, a worker receives [`GuardedPop::LaneFinished`] and the lane
    /// is gone. Returns `false` for an unknown lane.
    pub fn close_lane(&self, key: u64) -> bool {
        let mut s = self.state.lock();
        let Some(lane) = s.lane_mut(key) else {
            return false;
        };
        lane.closed = true;
        // An already-empty lane becomes poppable (as LaneFinished) now.
        if s.has_waiters() {
            self.available.notify_all();
        }
        true
    }

    /// Sets lane `key`'s scheduling weight, clamped to
    /// `1..=`[`MAX_LANE_WEIGHT`]. Returns `false` for an unknown lane.
    pub fn set_lane_weight(&self, key: u64, weight: u32) -> bool {
        let mut s = self.state.lock();
        let Some(lane) = s.lane_mut(key) else {
            return false;
        };
        lane.weight = weight.clamp(1, MAX_LANE_WEIGHT);
        true
    }

    /// Pushes without blocking; see [`PushOutcome`] for the cases.
    pub fn try_push(&self, key: u64, item: T) -> PushOutcome {
        self.try_push_reporting_backlog(key, item).0
    }

    /// [`ShardQueue::try_push`] that also reports, from the same critical
    /// section, whether the queue is backlogged: at least a full lane's
    /// worth of items queued, the watermark at which producers nudge idle
    /// neighbours to come steal.
    pub fn try_push_reporting_backlog(&self, key: u64, item: T) -> (PushOutcome, bool) {
        let mut s = self.state.lock();
        let capacity = self.lane_capacity;
        let Some(lane) = s.lane_mut(key) else {
            return (PushOutcome::NoSuchLane, false);
        };
        if lane.closed {
            return (PushOutcome::LaneClosed, false);
        }
        if lane.queue.len() >= capacity {
            return (PushOutcome::Shed, s.queued >= capacity);
        }
        lane.queue.push_back(item);
        s.queued += 1;
        if s.has_waiters() {
            self.available.notify_one();
        }
        (PushOutcome::Queued, s.queued >= capacity)
    }

    /// Non-blocking cooperative pop. Delivering an item marks its lane
    /// busy — the caller must [`ShardQueue::complete`] the lane after
    /// processing, and until then no other worker (owner or thief) can
    /// remove from it, which is what keeps per-lane processing FIFO.
    pub fn try_pop_guarded(&self) -> GuardedPop<T> {
        let mut s = self.state.lock();
        if let Some(i) = s.best_lane() {
            // `serve` keeps lane `i` in place, so `i` still names it.
            let (key, item) = s.serve(i);
            s.lanes[i].1.busy = true;
            return GuardedPop::Item(key, item);
        }
        if let Some(i) = s.finished_lane() {
            // SEEDED BUG (crates/check-tests/tests/seeded_bug.rs): drop the
            // lock between observing the finished lane and removing it —
            // two workers can both deliver LaneFinished for the same lane.
            #[cfg(sieve_check_seeded_bug)]
            {
                let key = s.lanes[i].0;
                drop(s);
                s = self.state.lock();
                s.lanes.retain(|(k, _)| *k != key);
                let n = s.lanes.len();
                s.cursor = if n == 0 { 0 } else { s.cursor % n };
                return GuardedPop::LaneFinished(key);
            }
            #[cfg(not(sieve_check_seeded_bug))]
            {
                return GuardedPop::LaneFinished(s.remove_lane(i));
            }
        }
        if s.shutdown && s.lanes.is_empty() {
            return GuardedPop::Shutdown;
        }
        GuardedPop::Empty
    }

    /// Releases lane `key` after processing the items taken by
    /// [`ShardQueue::try_pop_guarded`] or [`ShardQueue::try_steal`],
    /// optionally installing a new scheduling weight in the same critical
    /// section. Wakes parked workers (the lane may now be poppable or
    /// finishable). No-op for unknown lanes (the lane finished while the
    /// caller still held items of a *different* generation cannot happen:
    /// finish is deferred while busy).
    pub fn complete(&self, key: u64, weight: Option<u32>) {
        let mut s = self.state.lock();
        if let Some(lane) = s.lane_mut(key) {
            lane.busy = false;
            if let Some(w) = weight {
                lane.weight = w.clamp(1, MAX_LANE_WEIGHT);
            }
        }
        if s.has_waiters() {
            self.available.notify_all();
        }
    }

    /// Owner-preferred steal attempt: `try_lock` the queue (never wait),
    /// claim the deepest non-busy non-empty lane, and take the front
    /// `ceil(depth/2)` items (capped at `max_items`), oldest first. The
    /// lane is marked busy until the thief [`ShardQueue::complete`]s it;
    /// the owner skips it meanwhile, so everything it still holds is newer
    /// than the stolen batch — per-lane FIFO order survives the theft.
    pub fn try_steal(&self, max_items: usize) -> Steal<T> {
        if max_items == 0 {
            return Steal::Empty;
        }
        #[cfg(not(sieve_check_seeded_steal_bug))]
        {
            let Some(mut s) = self.state.try_lock() else {
                return Steal::Contended;
            };
            let Some(i) = s
                .lanes
                .iter()
                .enumerate()
                .filter(|(_, (_, l))| !l.busy && !l.queue.is_empty())
                .max_by_key(|(_, (_, l))| l.queue.len())
                .map(|(i, _)| i)
            else {
                return Steal::Empty;
            };
            let (key, lane) = &mut s.lanes[i];
            let key = *key;
            let take = lane.queue.len().div_ceil(2).min(max_items);
            let items: Vec<T> = lane.queue.drain(..take).collect();
            lane.busy = true;
            s.queued -= items.len();
            Steal::Batch { key, items }
        }
        // SEEDED BUG (crates/check-tests steal suite): release the lock
        // between *selecting* the victim lane and *draining* it, without
        // re-checking the busy claim. Two thieves can then both select the
        // same lane and both believe they own it — concurrent drains whose
        // processing interleaves out of FIFO order, the double-steal race
        // the model checker must catch.
        #[cfg(sieve_check_seeded_steal_bug)]
        {
            let Some(s) = self.state.try_lock() else {
                return Steal::Contended;
            };
            let Some((key, take)) = s
                .lanes
                .iter()
                .filter(|(_, l)| !l.busy && !l.queue.is_empty())
                .max_by_key(|(_, l)| l.queue.len())
                .map(|(k, l)| (*k, l.queue.len().div_ceil(2).min(max_items)))
            else {
                return Steal::Empty;
            };
            drop(s);
            let mut s = self.state.lock();
            let Some(lane) = s.lane_mut(key) else {
                return Steal::Empty;
            };
            let take = take.min(lane.queue.len());
            let items: Vec<T> = lane.queue.drain(..take).collect();
            lane.busy = true; // clobbers a concurrent thief's claim
            s.queued -= items.len();
            Steal::Batch { key, items }
        }
    }

    /// Blocks until the queue *may* have work for a cooperative worker
    /// (an item, a finishable lane, or shutdown) — or returns immediately
    /// if it already does. Spurious returns are fine: callers loop on
    /// [`ShardQueue::try_pop_guarded`]. The wait is counted in `waiters`
    /// (and its `parked` mirror) for its whole length.
    pub fn wait_for_work(&self) {
        let mut s = self.state.lock();
        let poppable = s.best_lane().is_some()
            || s.finished_lane().is_some()
            || (s.shutdown && s.lanes.is_empty());
        if !poppable {
            s.waiters += 1;
            self.parked.store(s.waiters, Ordering::Relaxed);
            s = self.available.wait(s);
            s.waiters -= 1;
            self.parked.store(s.waiters, Ordering::Relaxed);
        }
    }

    /// Wakes every worker blocked in [`ShardQueue::wait_for_work`] without
    /// changing any state — the cross-shard
    /// hint a backlogged producer uses to rouse idle thieves. Takes no
    /// lock, and makes no syscall while nobody is parked; a worker that is
    /// just parking can miss it (see "Wake-ups" in the module docs).
    pub fn nudge(&self) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.available.notify_all();
        }
    }

    /// Stops accepting new lanes and closes every lane: queued items are
    /// still delivered, then every remaining lane reports
    /// [`GuardedPop::LaneFinished`], then [`ShardQueue::try_pop_guarded`]
    /// reports [`GuardedPop::Shutdown`].
    pub fn shutdown(&self) {
        let mut s = self.state.lock();
        s.shutdown = true;
        for (_, lane) in &mut s.lanes {
            lane.closed = true;
        }
        if s.has_waiters() {
            self.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    impl<T> ShardQueue<T> {
        /// Queued items currently in lane `key` (`None` for unknown lanes).
        fn depth(&self, key: u64) -> Option<usize> {
            let mut s = self.state.lock();
            s.lane_mut(key).map(|l| l.queue.len())
        }
    }

    /// Generous enough for a loaded or sanitized host; a lost wake-up
    /// hangs forever, so any finite bound catches it.
    const WATCHDOG: Duration = Duration::from_secs(30);

    /// Spins until `q` has exactly `n` parked workers, and until they are
    /// inside the condvar wait: a worker holds the lock from raising the
    /// count until the wait releases it, so one lock round trip suffices.
    /// After it even the lock-free `nudge` cannot miss them.
    fn until_parked<T>(q: &ShardQueue<T>, n: usize) {
        let deadline = Instant::now() + WATCHDOG;
        while q.parked.load(Ordering::Relaxed) != n {
            assert!(Instant::now() < deadline, "worker never parked");
            std::thread::yield_now();
        }
        drop(q.state.lock());
    }

    /// A lone guarded worker's next delivery: `try_pop_guarded`, parking in
    /// `wait_for_work` while it reports `Empty`; a delivered item's lane is
    /// completed at once.
    fn guarded_next<T>(q: &ShardQueue<T>) -> GuardedPop<T> {
        loop {
            match q.try_pop_guarded() {
                GuardedPop::Item(key, v) => {
                    q.complete(key, None);
                    return GuardedPop::Item(key, v);
                }
                GuardedPop::Empty => q.wait_for_work(),
                other => return other,
            }
        }
    }

    #[test]
    fn push_pop_single_lane() {
        let q = ShardQueue::new(4);
        assert!(q.open_lane(7));
        assert_eq!(q.try_push(7, "a"), PushOutcome::Queued);
        assert_eq!(q.try_push(7, "b"), PushOutcome::Queued);
        assert_eq!(guarded_next(&q), GuardedPop::Item(7, "a"));
        assert_eq!(guarded_next(&q), GuardedPop::Item(7, "b"));
        q.close_lane(7);
        assert_eq!(guarded_next(&q), GuardedPop::LaneFinished(7));
        q.shutdown();
        assert_eq!(guarded_next(&q), GuardedPop::Shutdown);
    }

    #[test]
    fn full_lane_sheds_without_blocking() {
        let q = ShardQueue::new(2);
        q.open_lane(1);
        assert_eq!(
            q.try_push_reporting_backlog(1, 0),
            (PushOutcome::Queued, false)
        );
        assert_eq!(
            q.try_push_reporting_backlog(1, 1),
            (PushOutcome::Queued, true),
            "a full lane is past the nudge watermark"
        );
        assert_eq!(q.try_push(1, 2), PushOutcome::Shed);
        assert_eq!(q.depth(1), Some(2));
    }

    #[test]
    fn unknown_and_closed_lanes_are_typed() {
        let q = ShardQueue::new(2);
        assert_eq!(q.try_push(9, 0), PushOutcome::NoSuchLane);
        q.open_lane(9);
        q.close_lane(9);
        assert_eq!(q.try_push(9, 0), PushOutcome::LaneClosed);
        assert!(!q.open_lane(9), "lane keys are unique while live");
    }

    #[test]
    fn round_robin_interleaves_lanes_at_equal_weight() {
        let q = ShardQueue::new(8);
        q.open_lane(1);
        q.open_lane(2);
        for i in 0..3 {
            q.try_push(1, (1, i));
            q.try_push(2, (2, i));
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            match guarded_next(&q) {
                GuardedPop::Item(k, _) => order.push(k),
                other => panic!("unexpected pop: {other:?}"),
            }
        }
        // Strict alternation: no lane is served twice in a row while the
        // other has items.
        for w in order.windows(2) {
            assert_ne!(w[0], w[1], "round-robin violated: {order:?}");
        }
    }

    #[test]
    fn heavier_lane_gets_the_larger_service_share() {
        let q = ShardQueue::new(64);
        q.open_lane(1);
        q.open_lane(2);
        q.set_lane_weight(1, MAX_LANE_WEIGHT);
        q.set_lane_weight(2, 1);
        for i in 0..32 {
            q.try_push(1, i);
            q.try_push(2, i);
        }
        let mut served = [0usize; 2];
        for _ in 0..24 {
            match guarded_next(&q) {
                GuardedPop::Item(k, _) => served[k as usize - 1] += 1,
                other => panic!("unexpected pop: {other:?}"),
            }
        }
        assert!(
            served[0] > served[1],
            "weight-{MAX_LANE_WEIGHT} lane out-served by weight-1: {served:?}"
        );
        assert!(
            served[1] >= 2,
            "aging must keep serving the light lane: {served:?}"
        );
    }

    #[test]
    fn guarded_pop_marks_busy_and_complete_releases() {
        let q = ShardQueue::new(4);
        q.open_lane(1);
        q.try_push(1, 10);
        q.try_push(1, 11);
        let GuardedPop::Item(1, 10) = q.try_pop_guarded() else {
            panic!("expected first item");
        };
        // Lane busy: nothing else may drain it.
        assert_eq!(q.try_pop_guarded(), GuardedPop::Empty);
        assert_eq!(q.try_steal(8), Steal::Empty);
        q.complete(1, None);
        let GuardedPop::Item(1, 11) = q.try_pop_guarded() else {
            panic!("expected second item");
        };
        q.complete(1, Some(5));
        assert_eq!(q.state.lock().lane_mut(1).map(|l| l.weight), Some(5));
    }

    #[test]
    fn lane_finished_deferred_while_busy() {
        let q = ShardQueue::new(4);
        q.open_lane(1);
        q.try_push(1, 0);
        let GuardedPop::Item(1, 0) = q.try_pop_guarded() else {
            panic!("expected the item");
        };
        q.close_lane(1);
        // Busy: the finish must wait for the processor.
        assert_eq!(q.try_pop_guarded(), GuardedPop::Empty);
        q.complete(1, None);
        assert_eq!(q.try_pop_guarded(), GuardedPop::LaneFinished(1));
        q.shutdown();
        assert_eq!(q.try_pop_guarded(), GuardedPop::Shutdown);
    }

    #[test]
    fn steal_takes_front_half_of_deepest_lane() {
        let q = ShardQueue::new(8);
        q.open_lane(1);
        q.open_lane(2);
        for i in 0..6 {
            q.try_push(1, (1, i));
        }
        q.try_push(2, (2, 0));
        let Steal::Batch { key, items } = q.try_steal(8) else {
            panic!("expected a batch");
        };
        assert_eq!(key, 1, "steals the deepest lane");
        assert_eq!(items, vec![(1, 0), (1, 1), (1, 2)], "front half, in order");
        assert_eq!(q.depth(1), Some(3));
        // The claimed lane is off-limits; the other lane still pops.
        let GuardedPop::Item(2, _) = q.try_pop_guarded() else {
            panic!("lane 2 must still be poppable");
        };
        q.complete(2, None);
        q.complete(1, None);
        let GuardedPop::Item(1, (1, 3)) = q.try_pop_guarded() else {
            panic!("owner resumes at the first unstolen item");
        };
        q.complete(1, None);
    }

    #[test]
    fn steal_respects_max_items_and_empty_queue() {
        let q = ShardQueue::<u32>::new(8);
        q.open_lane(1);
        assert_eq!(q.try_steal(4), Steal::Empty);
        for i in 0..8 {
            q.try_push(1, i);
        }
        let Steal::Batch { items, .. } = q.try_steal(2) else {
            panic!("expected a batch");
        };
        assert_eq!(items, vec![0, 1], "cap wins over half");
        q.complete(1, None);
        assert_eq!(q.try_steal(0), Steal::Empty);
    }

    #[test]
    fn lane_finished_delivered_exactly_once_per_lane() {
        let q = ShardQueue::new(2);
        q.open_lane(1);
        q.open_lane(2);
        q.try_push(2, "x");
        q.close_lane(1);
        q.close_lane(2);
        let mut finished = Vec::new();
        let mut items = 0;
        loop {
            // Both lanes closed; after draining, the worker would park
            // forever — stop once we've seen everything.
            match guarded_next(&q) {
                GuardedPop::Item(_, _) => items += 1,
                GuardedPop::LaneFinished(k) => {
                    finished.push(k);
                    if finished.len() == 2 {
                        break;
                    }
                }
                other => panic!("unexpected pop: {other:?}"),
            }
        }
        assert_eq!(items, 1);
        finished.sort_unstable();
        assert_eq!(finished, vec![1, 2]);
    }

    #[test]
    fn producer_and_worker_threads_drain_everything() {
        let q = Arc::new(ShardQueue::new(4));
        for lane in 0..4u64 {
            q.open_lane(lane);
        }
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut shed = 0u64;
                for i in 0..400u64 {
                    let lane = i % 4;
                    loop {
                        match q.try_push(lane, i) {
                            PushOutcome::Queued => break,
                            PushOutcome::Shed => {
                                shed += 1;
                                std::thread::yield_now();
                            }
                            other => panic!("unexpected: {other:?}"),
                        }
                    }
                }
                for lane in 0..4u64 {
                    q.close_lane(lane);
                }
                shed
            })
        };
        let mut got = 0u64;
        let mut finished = 0;
        while finished < 4 {
            match guarded_next(&q) {
                GuardedPop::Item(_, _) => got += 1,
                GuardedPop::LaneFinished(_) => finished += 1,
                other => panic!("unexpected pop: {other:?}"),
            }
        }
        let _ = producer.join().expect("producer ok");
        assert_eq!(got, 400, "every queued item reaches the worker");
    }

    /// Every push lands on a worker already parked in `wait_for_work`, so
    /// only the push's own notify can wake it; the watchdog turns a lost
    /// wake-up into a failure instead of a hang.
    #[test]
    fn every_push_wakes_a_parked_worker() {
        const ROUND_TRIPS: u64 = 10_000;
        let q = Arc::new(ShardQueue::new(4));
        q.open_lane(1);
        q.open_lane(2);
        let (ack, acks) = mpsc::channel();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUND_TRIPS {
                    let GuardedPop::Item(_, got) = guarded_next(&q) else {
                        panic!("only items are pushed");
                    };
                    ack.send(got).expect("test thread listening");
                }
            })
        };
        for i in 0..ROUND_TRIPS {
            until_parked(&q, 1);
            assert_eq!(q.try_push(1 + i % 2, i), PushOutcome::Queued);
            let got = acks
                .recv_timeout(WATCHDOG)
                .unwrap_or_else(|e| panic!("round trip {i}: parked worker not woken ({e})"));
            assert_eq!(got, i);
        }
        worker.join().expect("worker ok");
        assert_eq!(q.state.lock().waiters, 0);
    }

    /// `nudge` on a queue nobody is parked on takes no lock, and leaves no
    /// wake-up behind for a worker that parks later; on a parked worker
    /// it wakes it. (A worker sends before it parks again, so once it is
    /// parked an empty channel means its wait has not returned.)
    #[test]
    fn nudge_wakes_only_a_parked_worker() {
        let q = Arc::new(ShardQueue::<u64>::new(4));
        q.open_lane(1);
        {
            let _held = q.state.lock();
            q.nudge();
        }
        let (woke, wakes) = mpsc::channel();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                for _ in 0..2 {
                    q.wait_for_work();
                    woke.send(()).expect("test thread listening");
                }
            })
        };
        until_parked(&q, 1);
        assert_eq!(
            wakes.try_recv(),
            Err(mpsc::TryRecvError::Empty),
            "the idle nudge left a wake-up behind"
        );
        q.nudge();
        wakes
            .recv_timeout(WATCHDOG)
            .expect("a nudge wakes a parked worker");
        until_parked(&q, 1);
        assert_eq!(wakes.try_recv(), Err(mpsc::TryRecvError::Empty));
        assert_eq!(q.try_push(1, 0), PushOutcome::Queued);
        wakes
            .recv_timeout(WATCHDOG)
            .expect("a push wakes a parked worker");
        worker.join().expect("worker ok");
    }

    #[test]
    fn guarded_worker_and_thief_drain_everything_in_lane_order() {
        let q = Arc::new(ShardQueue::new(64));
        q.open_lane(1);
        q.open_lane(2);
        for i in 0..100u64 {
            assert_eq!(q.try_push(1 + (i % 2), i), PushOutcome::Queued);
        }
        q.close_lane(1);
        q.close_lane(2);
        q.shutdown();
        let log = Arc::new(Mutex::new(Vec::new()));
        let thief = {
            let (q, log) = (q.clone(), log.clone());
            std::thread::spawn(move || loop {
                match q.try_steal(8) {
                    Steal::Batch { key, items } => {
                        for v in items {
                            log.lock().push((key, v));
                        }
                        q.complete(key, None);
                    }
                    Steal::Contended => std::thread::yield_now(),
                    Steal::Empty => return,
                }
            })
        };
        loop {
            match q.try_pop_guarded() {
                GuardedPop::Item(key, v) => {
                    log.lock().push((key, v));
                    q.complete(key, None);
                }
                GuardedPop::LaneFinished(_) => {}
                GuardedPop::Empty => std::thread::yield_now(),
                GuardedPop::Shutdown => break,
            }
        }
        thief.join().expect("thief ok");
        let log = log.lock();
        assert_eq!(log.len(), 100, "every item exactly once");
        for lane in [1u64, 2] {
            let seq: Vec<u64> = log
                .iter()
                .filter(|(k, _)| *k == lane)
                .map(|&(_, v)| v)
                .collect();
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            assert_eq!(seq, sorted, "lane {lane} processed out of order");
        }
    }
}
