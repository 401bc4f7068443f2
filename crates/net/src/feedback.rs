//! The `wan.*` observability instruments and the feedback collector.
//!
//! Observability and control share one substrate here: the counters the
//! operator watches in `fleet_top` under the [`WAN_STAGE`] prefix are the
//! *same* counters the [`FeedbackCollector`] diffs per quantum to build
//! the [`WanFeedback`] the rate controller consumes. There is no second
//! bookkeeping path that can drift from the dashboard.
//!
//! Feedback is not instantaneous: each closed quantum is scheduled for
//! delivery one `delay` later, modelling the cloud→edge report latency,
//! and only surfaces from [`FeedbackCollector::poll`] once virtual time
//! reaches it.

use std::collections::VecDeque;
use std::sync::Arc;

use sieve_core::adapt::WanFeedback;
use sieve_simnet::SimTime;
use sieve_stats::{Counter, Gauge, Registry};

use crate::WAN_STAGE;

/// `wan.*` instrument handles, registered once per registry and cloned
/// into the channel, the depacketizer and the collector.
#[derive(Debug, Clone)]
pub struct WanTaps {
    pub packets_sent: Arc<Counter>,
    pub packets_lost: Arc<Counter>,
    pub packets_dropped_congestion: Arc<Counter>,
    pub packets_marked: Arc<Counter>,
    pub packets_delivered: Arc<Counter>,
    pub packets_reordered: Arc<Counter>,
    /// Fragments the depacketizer dropped as malformed: a header that
    /// contradicts the shared layout or the block's first fragment.
    pub rejected: Arc<Counter>,
    pub blocks_sent: Arc<Counter>,
    pub blocks_delivered: Arc<Counter>,
    pub blocks_recovered: Arc<Counter>,
    pub blocks_lost: Arc<Counter>,
    pub frags_recovered: Arc<Counter>,
    pub delivered_bytes: Arc<Counter>,
    pub feedback_quanta: Arc<Counter>,
    /// Current WAN control factor, in parts-per-million (a gauge cannot
    /// hold a float; 1_000_000 means "no throttle").
    pub target_factor_ppm: Arc<Gauge>,
}

impl WanTaps {
    /// Registers (or re-attaches to) every `wan.*` instrument in
    /// `registry` under the canonical [`WAN_STAGE`] stage name.
    pub fn register(registry: &Arc<Registry>) -> Self {
        let stage = registry.stage(WAN_STAGE);
        Self {
            packets_sent: stage.counter("packets_sent"),
            packets_lost: stage.counter("packets_lost"),
            packets_dropped_congestion: stage.counter("packets_dropped_congestion"),
            packets_marked: stage.counter("packets_marked"),
            packets_delivered: stage.counter("packets_delivered"),
            packets_reordered: stage.counter("packets_reordered"),
            rejected: stage.counter("rejected"),
            blocks_sent: stage.counter("blocks_sent"),
            blocks_delivered: stage.counter("blocks_delivered"),
            blocks_recovered: stage.counter("blocks_recovered"),
            blocks_lost: stage.counter("blocks_lost"),
            frags_recovered: stage.counter("frags_recovered"),
            delivered_bytes: stage.counter("delivered_bytes"),
            feedback_quanta: stage.counter("feedback_quanta"),
            target_factor_ppm: stage.gauge("target_factor_ppm"),
        }
    }

    /// Registers against the process-global registry — what `fleet_top`
    /// reads.
    pub fn global() -> Self {
        Self::register(sieve_stats::global())
    }

    fn snapshot(&self) -> TapSnapshot {
        TapSnapshot {
            packets_lost: self.packets_lost.get(),
            packets_dropped_congestion: self.packets_dropped_congestion.get(),
            packets_marked: self.packets_marked.get(),
            packets_reordered: self.packets_reordered.get(),
            blocks_recovered: self.blocks_recovered.get(),
            blocks_lost: self.blocks_lost.get(),
            delivered_bytes: self.delivered_bytes.get(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TapSnapshot {
    packets_lost: u64,
    packets_dropped_congestion: u64,
    packets_marked: u64,
    packets_reordered: u64,
    blocks_recovered: u64,
    blocks_lost: u64,
    delivered_bytes: u64,
}

impl TapSnapshot {
    /// The feedback for the interval between `earlier` and `self`.
    fn since(&self, earlier: &TapSnapshot) -> WanFeedback {
        WanFeedback {
            lost: self.packets_lost - earlier.packets_lost,
            congestion_dropped: self.packets_dropped_congestion
                - earlier.packets_dropped_congestion,
            marked: self.packets_marked - earlier.packets_marked,
            reordered: self.packets_reordered - earlier.packets_reordered,
            recovered: self.blocks_recovered - earlier.blocks_recovered,
            unrecoverable: self.blocks_lost - earlier.blocks_lost,
            delivered_bytes: self.delivered_bytes - earlier.delivered_bytes,
        }
    }
}

/// Slices the `wan.*` counter series into per-quantum [`WanFeedback`]
/// reports and delivers each one `delay` after its quantum closes.
#[derive(Debug)]
pub struct FeedbackCollector {
    taps: WanTaps,
    quantum: SimTime,
    delay: SimTime,
    next_close: SimTime,
    last: TapSnapshot,
    pending: VecDeque<(SimTime, WanFeedback)>,
}

impl FeedbackCollector {
    pub fn new(taps: WanTaps, quantum_secs: f64, delay_secs: f64) -> Self {
        let last = taps.snapshot();
        Self {
            taps,
            quantum: SimTime::from_secs_f64(quantum_secs.max(1e-6)),
            delay: SimTime::from_secs_f64(delay_secs.max(0.0)),
            next_close: SimTime::from_secs_f64(quantum_secs.max(1e-6)),
            last,
            pending: VecDeque::new(),
        }
    }

    /// Closes every quantum that has elapsed by `now` and returns the
    /// feedback whose delivery delay has also elapsed.
    pub fn poll(&mut self, now: SimTime) -> Vec<WanFeedback> {
        while self.next_close <= now {
            self.close_quantum(self.next_close);
            self.next_close = self.next_close + self.quantum;
        }
        let mut due = Vec::new();
        while let Some(&(at, fb)) = self.pending.front() {
            if at > now {
                break;
            }
            self.pending.pop_front();
            due.push(fb);
        }
        due
    }

    /// Closes the current partial quantum and returns everything still
    /// pending, delay notwithstanding — end-of-run teardown.
    pub fn flush(&mut self) -> Vec<WanFeedback> {
        self.close_quantum(self.next_close);
        self.pending.drain(..).map(|(_, fb)| fb).collect()
    }

    fn close_quantum(&mut self, closed_at: SimTime) {
        let snap = self.taps.snapshot();
        let fb = snap.since(&self.last);
        self.last = snap;
        self.taps.feedback_quanta.inc();
        self.pending.push_back((closed_at + self.delay, fb));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quanta_diff_the_registry_counters() {
        let registry = Arc::new(Registry::new());
        let taps = WanTaps::register(&registry);
        let mut fc = FeedbackCollector::new(taps.clone(), 1.0, 0.0);

        taps.packets_lost.add(3);
        taps.blocks_recovered.inc();
        taps.delivered_bytes.add(1000);
        let fb = fc.poll(SimTime::from_secs_f64(1.0));
        assert_eq!(fb.len(), 1);
        assert_eq!(
            fb[0],
            WanFeedback {
                lost: 3,
                congestion_dropped: 0,
                marked: 0,
                reordered: 0,
                recovered: 1,
                unrecoverable: 0,
                delivered_bytes: 1000
            }
        );

        // Second quantum only sees the new increments, and congestion
        // drops arrive on their own axis — they demand back-off, random
        // loss does not.
        taps.packets_dropped_congestion.add(2);
        taps.packets_marked.add(7);
        let fb = fc.poll(SimTime::from_secs_f64(2.0));
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].lost, 0);
        assert_eq!(fb[0].congestion_dropped, 2);
        assert_eq!(fb[0].marked, 7);
        assert_eq!(fb[0].delivered_bytes, 0);
        assert_eq!(taps.feedback_quanta.get(), 2);
    }

    #[test]
    fn delivery_is_delayed_by_the_configured_latency() {
        let registry = Arc::new(Registry::new());
        let taps = WanTaps::register(&registry);
        let mut fc = FeedbackCollector::new(taps.clone(), 1.0, 0.5);
        taps.packets_lost.inc();
        // Quantum closes at t=1 but the report only lands at t=1.5.
        assert!(fc.poll(SimTime::from_secs_f64(1.2)).is_empty());
        let fb = fc.poll(SimTime::from_secs_f64(1.5));
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].lost, 1);
    }

    #[test]
    fn flush_closes_the_partial_quantum() {
        let registry = Arc::new(Registry::new());
        let taps = WanTaps::register(&registry);
        let mut fc = FeedbackCollector::new(taps.clone(), 10.0, 5.0);
        taps.blocks_lost.inc();
        let fb = fc.flush();
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].unrecoverable, 1);
    }

    #[test]
    fn taps_register_under_the_wan_stage() {
        let registry = Arc::new(Registry::new());
        let taps = WanTaps::register(&registry);
        taps.packets_sent.add(5);
        taps.target_factor_ppm.set(1_000_000);
        let sample = registry.sample();
        assert_eq!(
            sample.counters.get(&format!("{WAN_STAGE}.packets_sent")),
            Some(&5),
            "wan.packets_sent must appear in the registry sample"
        );
        assert_eq!(sample.gauges.get("wan.target_factor_ppm"), Some(&1_000_000));
    }
}
