//! The assembled uplink: packetizer → WAN channel → depacketizer →
//! feedback, behind one virtual-time pump.
//!
//! [`Uplink`] is the single-stream composition; [`SharedUplink`] wraps it
//! in a facade mutex so a whole fleet of shard threads can ship their
//! kept frames through one bottleneck link — which is exactly the
//! contention the paper's edge→cloud WAN imposes.
//! [`SharedUplink::keep_sink`] connects it to the fleet: a
//! [`sieve_fleet::KeepSink`] that paces sends by *stream time*
//! (`frame_index / fps`), so the channel's bandwidth cap and the feedback
//! quanta are driven by the simulated camera clock, not by how fast the
//! benchmark machine happens to decode.

use std::sync::Arc;

use sieve_core::adapt::{wan_signal, WanFeedback, WanSignal};
use sieve_simnet::SimTime;
use sieve_stats::sync::Mutex;
use sieve_stats::Registry;

use crate::channel::{WanChannel, WanConfig};
use crate::fec::FecConfig;
use crate::feedback::{FeedbackCollector, WanTaps};
use crate::packet::{BlockOutcome, BlockReport, Depacketizer, Packetizer};
use crate::NetError;

/// Everything an uplink needs to know.
#[derive(Debug, Clone)]
pub struct UplinkConfig {
    /// On-wire packet budget, header included.
    pub mtu: usize,
    /// FEC group shape shared by sender and receiver.
    pub fec: FecConfig,
    /// Channel model.
    pub wan: WanConfig,
    /// Width of one feedback accounting quantum.
    pub feedback_quantum_secs: f64,
    /// Cloud→edge report latency.
    pub feedback_delay_secs: f64,
    /// When false, feedback is still *collected* (the counters and the
    /// gauge stay live for the dashboard) but never applied to the
    /// [`WanSignal`] — the feedback-off arm of an A/B.
    pub feedback: bool,
}

impl UplinkConfig {
    /// A reasonable default shape over the given channel: 1200-byte MTU,
    /// 8+2 FEC, half-second feedback quanta at 100 ms report latency.
    pub fn over(wan: WanConfig) -> Self {
        Self {
            mtu: 1200,
            fec: FecConfig::default_on(),
            wan,
            feedback_quantum_secs: 0.5,
            feedback_delay_secs: 0.1,
            feedback: true,
        }
    }
}

/// Aggregate counts for one uplink's lifetime — block ledger on top of
/// the channel's packet ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UplinkCounts {
    pub blocks_sent: u64,
    pub blocks_delivered: u64,
    pub blocks_recovered: u64,
    pub blocks_lost: u64,
    pub packets_sent: u64,
    pub packets_lost: u64,
    pub packets_congestion_dropped: u64,
    pub packets_reordered: u64,
    pub delivered_bytes: u64,
    pub feedback_quanta: u64,
    /// Sum of the control factor sampled at each applied quantum;
    /// `mean_factor()` turns it into the run average.
    pub factor_sum: f64,
}

impl UplinkCounts {
    /// Blocks that reached the cloud usable (delivered or recovered).
    pub fn blocks_usable(&self) -> u64 {
        self.blocks_delivered + self.blocks_recovered
    }

    /// Average WAN control factor over the run (1.0 when no feedback
    /// quantum ever closed).
    pub fn mean_factor(&self) -> f64 {
        if self.feedback_quanta == 0 {
            1.0
        } else {
            self.factor_sum / self.feedback_quanta as f64
        }
    }
}

/// One stream's transport: packetizer, channel, depacketizer and
/// feedback collector marching on a shared virtual clock.
#[derive(Debug)]
pub struct Uplink {
    packetizer: Packetizer,
    channel: WanChannel,
    depacketizer: Depacketizer,
    collector: FeedbackCollector,
    signal: Arc<WanSignal>,
    taps: WanTaps,
    feedback_enabled: bool,
    now: SimTime,
    /// Sent blocks not yet resolved to an outcome. Needed because a block
    /// whose fragments are *all* dropped never reaches the depacketizer —
    /// only the sender can notice it is gone.
    outstanding: std::collections::BTreeSet<u64>,
    blocks_sent: u64,
    blocks_delivered: u64,
    blocks_recovered: u64,
    blocks_lost: u64,
    delivered_bytes: u64,
    feedback_quanta: u64,
    factor_sum: f64,
}

impl Uplink {
    /// Builds an uplink whose `wan.*` instruments land in the
    /// process-global registry — what `fleet_top` watches — and whose
    /// feedback drives the process-global [`wan_signal`].
    pub fn new(cfg: UplinkConfig) -> Result<Self, NetError> {
        Self::with_registry(cfg, sieve_stats::global())
    }

    /// Same, against an explicit registry (benchmarks use a fresh one
    /// per run so A/B arms do not share counters).
    pub fn with_registry(cfg: UplinkConfig, registry: &Arc<Registry>) -> Result<Self, NetError> {
        let taps = WanTaps::register(registry);
        let collector = FeedbackCollector::new(
            taps.clone(),
            cfg.feedback_quantum_secs,
            cfg.feedback_delay_secs,
        );
        Ok(Self {
            packetizer: Packetizer::new(cfg.mtu, cfg.fec, 0)?,
            channel: WanChannel::with_taps(cfg.wan, taps.clone())?,
            depacketizer: Depacketizer::with_taps(cfg.mtu, cfg.fec, taps.clone())?,
            collector,
            signal: wan_signal().clone(),
            taps,
            feedback_enabled: cfg.feedback,
            now: SimTime::ZERO,
            outstanding: std::collections::BTreeSet::new(),
            blocks_sent: 0,
            blocks_delivered: 0,
            blocks_recovered: 0,
            blocks_lost: 0,
            delivered_bytes: 0,
            feedback_quanta: 0,
            factor_sum: 0.0,
        })
    }

    /// Redirects feedback at an uplink-local signal instead of the
    /// process-global one — tests use this to stay isolated.
    pub fn with_signal(mut self, signal: Arc<WanSignal>) -> Self {
        self.signal = signal;
        self
    }

    /// The signal this uplink's feedback drives.
    pub fn signal(&self) -> &Arc<WanSignal> {
        &self.signal
    }

    /// Current virtual time, as advanced by sends.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ships one block at virtual time `now`; returns every block the
    /// resulting arrivals resolve (not necessarily this one — delivery
    /// lags by the channel latency).
    pub fn send_block_at(&mut self, now: SimTime, payload: &[u8]) -> Vec<BlockReport> {
        self.now = self.now.max(now);
        self.blocks_sent += 1;
        self.taps.blocks_sent.inc();
        let (block_id, packets) = self.packetizer.packetize(payload);
        self.outstanding.insert(block_id);
        for p in packets {
            self.channel.send(self.now, p);
        }
        self.pump()
    }

    /// Advances the receive side to the current virtual time.
    pub fn pump(&mut self) -> Vec<BlockReport> {
        let mut reports = Vec::new();
        for p in self.channel.poll(self.now) {
            reports.extend(self.depacketizer.push(p));
        }
        self.absorb(&reports);
        let dead = self.reap_wholesale_lost();
        self.absorb(&dead);
        reports.extend(dead);
        for fb in self.collector.poll(self.now) {
            self.note_feedback(fb);
        }
        reports
    }

    /// Ends the run: drains the channel, forces every pending block to a
    /// verdict and flushes the partial feedback quantum.
    pub fn finish(&mut self) -> Vec<BlockReport> {
        let mut reports = Vec::new();
        for p in self.channel.drain() {
            reports.extend(self.depacketizer.push(p));
        }
        reports.extend(self.depacketizer.finish());
        self.absorb(&reports);
        let dead = self.reap_wholesale_lost();
        self.absorb(&dead);
        reports.extend(dead);
        for fb in self.collector.flush() {
            self.note_feedback(fb);
        }
        reports
    }

    /// The uplink's block/packet ledger so far.
    pub fn counts(&self) -> UplinkCounts {
        let ch = self.channel.counts();
        UplinkCounts {
            blocks_sent: self.blocks_sent,
            blocks_delivered: self.blocks_delivered,
            blocks_recovered: self.blocks_recovered,
            blocks_lost: self.blocks_lost,
            packets_sent: ch.sent,
            packets_lost: ch.lost,
            packets_congestion_dropped: ch.congestion_dropped,
            packets_reordered: self.depacketizer.reordered(),
            delivered_bytes: self.delivered_bytes,
            feedback_quanta: self.feedback_quanta,
            factor_sum: self.factor_sum,
        }
    }

    /// Declares sent blocks lost once no fragment of theirs is pending at
    /// the receiver or in flight in the channel — the wholesale-drop case
    /// an arrival-driven depacketizer can never see. Runs before feedback
    /// collection so a congestion wipeout registers as unrecoverable loss
    /// within the quantum it happens in, not at the end of the run.
    fn reap_wholesale_lost(&mut self) -> Vec<BlockReport> {
        if self.outstanding.is_empty() {
            return Vec::new();
        }
        let dead: Vec<u64> = self
            .outstanding
            .iter()
            .copied()
            .filter(|&id| {
                !self.channel.block_in_flight(0, id) && !self.depacketizer.is_pending(0, id)
            })
            .collect();
        dead.into_iter()
            .map(|block_id| {
                self.taps.blocks_lost.inc();
                BlockReport {
                    stream: 0,
                    block_id,
                    outcome: BlockOutcome::Lost,
                }
            })
            .collect()
    }

    fn absorb(&mut self, reports: &[BlockReport]) {
        for r in reports {
            self.outstanding.remove(&r.block_id);
            match &r.outcome {
                BlockOutcome::Delivered(p) => {
                    self.blocks_delivered += 1;
                    self.delivered_bytes += p.len() as u64;
                }
                BlockOutcome::Recovered(p) => {
                    self.blocks_recovered += 1;
                    self.delivered_bytes += p.len() as u64;
                }
                BlockOutcome::Lost => self.blocks_lost += 1,
            }
        }
    }

    fn note_feedback(&mut self, fb: WanFeedback) {
        self.feedback_quanta += 1;
        if self.feedback_enabled {
            self.signal.apply(&fb);
        }
        let factor = self.signal.factor();
        self.factor_sum += factor;
        self.taps
            .target_factor_ppm
            .set((factor * 1e6).round() as u64);
    }
}

/// An [`Uplink`] behind the facade mutex, shareable across shard threads.
#[derive(Debug, Clone)]
pub struct SharedUplink(Arc<Mutex<Uplink>>);

impl SharedUplink {
    pub fn new(uplink: Uplink) -> Self {
        Self(Arc::new(Mutex::new(uplink)))
    }

    /// Runs `f` with the uplink locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut Uplink) -> R) -> R {
        f(&mut self.0.lock())
    }

    /// Ledger snapshot.
    pub fn counts(&self) -> UplinkCounts {
        self.0.lock().counts()
    }

    /// Ends the run across the shared uplink.
    pub fn finish(&self) -> Vec<BlockReport> {
        self.0.lock().finish()
    }

    /// A fleet keep-sink shipping every kept frame's encoded payload,
    /// paced by stream time: frame `i` of an `fps` camera is sent at
    /// virtual second `phase_secs + i / fps`.
    ///
    /// `phase_secs` desynchronizes cameras sharing one uplink. Real
    /// cameras are not frame-locked to each other; without a per-stream
    /// phase, frame `i` of *every* stream lands at the same virtual
    /// instant, and the coincident I-frames at GOP multiples pile into a
    /// burst the bottleneck queue tail-drops mid-block — a synchronization
    /// artifact, not a property of the workload.
    pub fn keep_sink(&self, fps: f64, phase_secs: f64) -> sieve_fleet::KeepSink {
        assert!(fps > 0.0, "keep_sink needs a positive frame rate");
        assert!(phase_secs >= 0.0, "keep_sink phase must be >= 0");
        let shared = self.0.clone();
        Box::new(move |index, _frame, payload| {
            let now = SimTime::from_secs_f64(phase_secs + index as f64 / fps);
            shared.lock().send_block_at(now, payload);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, tag: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
    }

    fn local(cfg: UplinkConfig) -> Uplink {
        let registry = Arc::new(Registry::new());
        Uplink::with_registry(cfg, &registry)
            .expect("uplink")
            .with_signal(Arc::new(WanSignal::new()))
    }

    #[test]
    fn clean_channel_roundtrips_blocks() {
        let mut up = local(UplinkConfig::over(WanConfig::clean(1)));
        for i in 0..20u64 {
            up.send_block_at(
                SimTime::from_secs_f64(i as f64 * 0.1),
                &block(5000, i as u8),
            );
        }
        up.finish();
        let c = up.counts();
        assert_eq!(c.blocks_sent, 20);
        assert_eq!(c.blocks_usable(), 20);
        assert_eq!(c.blocks_lost, 0);
        assert_eq!(c.delivered_bytes, 20 * 5000);
    }

    #[test]
    fn block_conservation_holds_under_loss() {
        let mut up = local(UplinkConfig::over(WanConfig::paper_wan(42, 0.08)));
        for i in 0..100u64 {
            up.send_block_at(
                SimTime::from_secs_f64(i as f64 / 30.0),
                &block(8000, i as u8),
            );
        }
        up.finish();
        let c = up.counts();
        assert_eq!(c.blocks_sent, 100);
        assert_eq!(
            c.blocks_sent,
            c.blocks_delivered + c.blocks_recovered + c.blocks_lost,
            "every sent block must resolve to exactly one outcome"
        );
        assert!(
            c.blocks_recovered > 0,
            "8% loss with 8+2 FEC should recover blocks"
        );
    }

    #[test]
    fn feedback_throttles_the_shared_signal() {
        let signal = Arc::new(WanSignal::new());
        let mut cfg = UplinkConfig::over(WanConfig::paper_wan(7, 0.0));
        // Overdrive a tiny link so congestion drops dominate.
        cfg.wan.bandwidth_bps = 2e5;
        cfg.wan.queue_bytes = 2 * 1024;
        let registry = Arc::new(Registry::new());
        let mut up = Uplink::with_registry(cfg, &registry)
            .expect("uplink")
            .with_signal(signal.clone());
        for i in 0..200u64 {
            up.send_block_at(
                SimTime::from_secs_f64(i as f64 / 30.0),
                &block(4000, i as u8),
            );
        }
        up.finish();
        assert!(
            signal.factor() < 1.0,
            "sustained congestion must pull the control factor down, got {}",
            signal.factor()
        );
        assert!(up.counts().feedback_quanta > 0);
    }

    #[test]
    fn feedback_off_collects_but_does_not_apply() {
        let signal = Arc::new(WanSignal::new());
        let mut cfg = UplinkConfig::over(WanConfig::paper_wan(7, 0.0));
        cfg.wan.bandwidth_bps = 2e5;
        cfg.wan.queue_bytes = 2 * 1024;
        cfg.feedback = false;
        let registry = Arc::new(Registry::new());
        let mut up = Uplink::with_registry(cfg, &registry)
            .expect("uplink")
            .with_signal(signal.clone());
        for i in 0..200u64 {
            up.send_block_at(
                SimTime::from_secs_f64(i as f64 / 30.0),
                &block(4000, i as u8),
            );
        }
        up.finish();
        assert_eq!(
            signal.factor(),
            1.0,
            "feedback-off must leave the signal alone"
        );
        assert!(
            up.counts().feedback_quanta > 0,
            "quanta still close for the dashboard"
        );
    }

    #[test]
    fn shared_uplink_keep_sink_ships_kept_frames() {
        let registry = Arc::new(Registry::new());
        let uplink = Uplink::with_registry(UplinkConfig::over(WanConfig::clean(3)), &registry)
            .expect("uplink")
            .with_signal(Arc::new(WanSignal::new()));
        let shared = SharedUplink::new(uplink);
        let mut sink = shared.keep_sink(30.0, 0.0);
        let frame = sieve_video::Frame::grey(sieve_video::Resolution::new(16, 16));
        for i in 0..10usize {
            sink(i, &frame, &block(2000, i as u8));
        }
        drop(sink);
        shared.finish();
        let c = shared.counts();
        assert_eq!(c.blocks_sent, 10);
        assert_eq!(c.blocks_usable(), 10);
    }
}
