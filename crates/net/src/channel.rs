//! Deterministic hostile-WAN channel model.
//!
//! [`WanChannel`] is a seeded, virtual-time packet channel: every effect —
//! loss, burst state, jitter, reordering, queueing — is a pure function of
//! the seed and the send times, so a run is bit-reproducible. No wall
//! clock, no global RNG.
//!
//! The model layers, in order, per packet:
//!
//! 1. **Bandwidth cap** — a serialization link at `bandwidth_bps` with a
//!    bounded backlog of `queue_bytes`; a packet arriving to a full
//!    backlog is a *congestion drop* (this is the loss the feedback loop
//!    can actually fix by slowing the sender down), and one arriving to
//!    a backlog past `ECN_QUEUE_FRACTION` of the bound is ECN-marked —
//!    the early-warning form of the same signal;
//! 2. **Random loss** — i.i.d. or Gilbert–Elliott two-state burst loss;
//! 3. **Latency + jitter** — base propagation delay plus a uniform
//!    jitter draw;
//! 4. **Reordering** — with probability `reorder`, an extra delay up to
//!    `reorder_delay_secs` pushes the packet behind its successors.
//!
//! The RNG draws a fixed number of variates per send regardless of which
//! branches fire, so two configs with the same seed walk the same random
//! sequence — that is what makes A/B sweeps (FEC on/off at equal loss)
//! comparable packet for packet.

use std::cmp::Ordering;
use std::collections::{binary_heap::PeekMut, BinaryHeap};

use rand::{rngs::StdRng, Rng, SeedableRng};
use sieve_core::ThreeTier;
use sieve_simnet::SimTime;

use crate::feedback::WanTaps;
use crate::packet::Packet;
use crate::NetError;

/// Random-loss process applied after the bandwidth cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent loss per packet.
    Iid { loss: f64 },
    /// Two-state Gilbert–Elliott burst loss: per-packet transition
    /// probabilities between a good and a bad state, each with its own
    /// loss rate.
    GilbertElliott {
        to_bad: f64,
        to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    },
}

impl LossModel {
    /// Mean long-run loss rate of the process.
    pub fn mean_loss(&self) -> f64 {
        match *self {
            Self::Iid { loss } => loss,
            Self::GilbertElliott {
                to_bad,
                to_good,
                loss_good,
                loss_bad,
            } => {
                // Stationary occupancy of the bad state.
                let denom = to_bad + to_good;
                if denom <= 0.0 {
                    return loss_good;
                }
                let p_bad = to_bad / denom;
                loss_good * (1.0 - p_bad) + loss_bad * p_bad
            }
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        let probs: Vec<f64> = match *self {
            Self::Iid { loss } => vec![loss],
            Self::GilbertElliott {
                to_bad,
                to_good,
                loss_good,
                loss_bad,
            } => {
                vec![to_bad, to_good, loss_good, loss_bad]
            }
        };
        for p in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(NetError::config(format!("probability {p} outside [0, 1]")));
            }
        }
        Ok(())
    }
}

/// Full channel parameterization.
#[derive(Debug, Clone, PartialEq)]
pub struct WanConfig {
    /// Seed for the channel's private RNG.
    pub seed: u64,
    /// Random-loss process.
    pub loss: LossModel,
    /// Probability a packet is delayed behind its successors.
    pub reorder: f64,
    /// Maximum extra delay a reordered packet picks up.
    pub reorder_delay_secs: f64,
    /// Uniform jitter bound added to every delivery.
    pub jitter_secs: f64,
    /// Base one-way propagation delay.
    pub latency_secs: f64,
    /// Serialization rate of the bottleneck link.
    pub bandwidth_bps: f64,
    /// Backlog bound; arrivals past it are congestion drops.
    pub queue_bytes: usize,
}

impl WanConfig {
    /// A clean, fast channel — loss-free, generous capacity. The base
    /// other presets perturb.
    // lint:allow(dead-pub): the base preset crates/net/tests/channel_props.rs perturbs
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            loss: LossModel::Iid { loss: 0.0 },
            reorder: 0.0,
            reorder_delay_secs: 0.0,
            jitter_secs: 0.0,
            latency_secs: 0.02,
            bandwidth_bps: 1e9,
            queue_bytes: 1 << 20,
        }
    }

    /// The paper's edge→cloud WAN, [`ThreeTier::PAPER_WAN_BPS`] with 20 ms
    /// latency, plus an i.i.d. loss knob and mild jitter.
    pub fn paper_wan(seed: u64, loss: f64) -> Self {
        Self {
            seed,
            loss: LossModel::Iid { loss },
            reorder: 0.01,
            reorder_delay_secs: 0.03,
            jitter_secs: 0.005,
            latency_secs: 0.02,
            bandwidth_bps: ThreeTier::PAPER_WAN_BPS,
            queue_bytes: 256 * 1024,
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        self.loss.validate()?;
        if !(0.0..=1.0).contains(&self.reorder) {
            return Err(NetError::config(format!(
                "reorder probability {} outside [0, 1]",
                self.reorder
            )));
        }
        for (name, v) in [
            ("reorder_delay_secs", self.reorder_delay_secs),
            ("jitter_secs", self.jitter_secs),
            ("latency_secs", self.latency_secs),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(NetError::config(format!(
                    "{name} {v} must be finite and >= 0"
                )));
            }
        }
        if !self.bandwidth_bps.is_finite() || self.bandwidth_bps <= 0.0 {
            return Err(NetError::config(format!(
                "bandwidth_bps {} must be finite and > 0",
                self.bandwidth_bps
            )));
        }
        Ok(())
    }
}

/// Fraction of the queue bound past which an arriving packet is
/// ECN-marked: it is still delivered, but the standing backlog behind it
/// says the sender is outrunning the link. Marking at a quarter of the
/// bound (DCTCP-style) gives the feedback loop its earliest congestion
/// signal — it fires while the queue still has headroom, long before
/// anything is tail-dropped.
const ECN_QUEUE_FRACTION: f64 = 0.25;

/// Lifetime packet counts a channel keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// lint:allow(dead-pub): the type of `WanChannel::counts`, which crates/net/tests/channel_props.rs names
pub struct ChannelCounts {
    pub sent: u64,
    pub lost: u64,
    pub congestion_dropped: u64,
    /// Delivered, but ECN-marked on arrival at a standing queue.
    pub marked: u64,
    pub delivered: u64,
}

/// A packet on the wire, ordered so that the heap's top is the earliest
/// arrival; no two share a key.
#[derive(Debug)]
struct InFlight {
    /// Delivery time, then the send's number as the tie-break.
    key: (SimTime, u64),
    packet: Packet,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The channel itself. Feed packets with [`send`](Self::send), advance
/// virtual time and collect arrivals with [`poll`](Self::poll).
#[derive(Debug)]
pub struct WanChannel {
    cfg: WanConfig,
    rng: StdRng,
    in_bad: bool,
    /// Virtual time at which the serialization link frees up.
    link_free_at: SimTime,
    last_now: SimTime,
    /// Packets in flight, earliest arrival on top.
    in_flight: BinaryHeap<InFlight>,
    counts: ChannelCounts,
    taps: Option<WanTaps>,
}

impl WanChannel {
    // lint:allow(dead-pub): crates/net/tests/channel_props.rs checks the channel's properties on it
    pub fn new(cfg: WanConfig) -> Result<Self, NetError> {
        cfg.validate()?;
        Ok(Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            in_bad: false,
            link_free_at: SimTime::ZERO,
            last_now: SimTime::ZERO,
            in_flight: BinaryHeap::new(),
            counts: ChannelCounts::default(),
            taps: None,
        })
    }

    /// Wires the `wan.*` registry instruments into the send path.
    pub fn with_taps(cfg: WanConfig, taps: WanTaps) -> Result<Self, NetError> {
        let mut ch = Self::new(cfg)?;
        ch.taps = Some(taps);
        Ok(ch)
    }

    pub fn config(&self) -> &WanConfig {
        &self.cfg
    }

    pub fn counts(&self) -> ChannelCounts {
        self.counts
    }

    /// Offers one packet to the channel at virtual time `now`; returns
    /// whether it entered flight — `false` when it was lost or
    /// congestion-dropped, and so will never arrive.
    ///
    /// Exactly four RNG variates are drawn per send — burst-state,
    /// loss, jitter, reorder — on every path, so the random sequence a
    /// seed produces does not depend on which effects fire.
    pub fn send(&mut self, now: SimTime, packet: Packet) -> bool {
        let now = now.max(self.last_now);
        self.last_now = now;
        self.counts.sent += 1;
        if let Some(t) = &self.taps {
            t.packets_sent.inc();
        }

        let u_state: f64 = self.rng.gen();
        let u_loss: f64 = self.rng.gen();
        let u_jitter: f64 = self.rng.gen();
        let u_reorder: f64 = self.rng.gen();

        // 1. Bandwidth cap: backlog beyond the queue bound is congestion.
        let backlog_secs = self.link_free_at.as_nanos().saturating_sub(now.as_nanos()) as f64 / 1e9;
        let queue_secs = self.cfg.queue_bytes as f64 * 8.0 / self.cfg.bandwidth_bps;
        if backlog_secs > queue_secs {
            self.counts.congestion_dropped += 1;
            if let Some(t) = &self.taps {
                t.packets_dropped_congestion.inc();
            }
            return false;
        }
        if backlog_secs > ECN_QUEUE_FRACTION * queue_secs {
            self.counts.marked += 1;
            if let Some(t) = &self.taps {
                t.packets_marked.inc();
            }
        }
        let tx_secs = packet.wire_len() as f64 * 8.0 / self.cfg.bandwidth_bps;
        self.link_free_at = self.link_free_at.max(now).after_secs(tx_secs);

        // 2. Random loss.
        let loss_p = match self.cfg.loss {
            LossModel::Iid { loss } => loss,
            LossModel::GilbertElliott {
                to_bad,
                to_good,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.in_bad { to_good } else { to_bad };
                if u_state < flip {
                    self.in_bad = !self.in_bad;
                }
                if self.in_bad {
                    loss_bad
                } else {
                    loss_good
                }
            }
        };
        if u_loss < loss_p {
            self.counts.lost += 1;
            if let Some(t) = &self.taps {
                t.packets_lost.inc();
            }
            return false;
        }

        // 3 + 4. Propagation, jitter, and the reorder push-back.
        let mut delay = self.cfg.latency_secs + self.cfg.jitter_secs * u_jitter;
        if self.cfg.reorder > 0.0 && u_reorder < self.cfg.reorder {
            // Reuse the reorder variate, rescaled to [0, 1), for the
            // extra-delay magnitude.
            delay += self.cfg.reorder_delay_secs * (u_reorder / self.cfg.reorder);
        }
        let ready = self.link_free_at.after_secs(delay);
        self.in_flight.push(InFlight {
            key: (ready, self.counts.sent),
            packet,
        });
        true
    }

    /// Takes the earliest in-flight packet off the wire, if it has arrived
    /// by `deadline` (`None`: whenever it arrives).
    fn arrive(&mut self, deadline: Option<SimTime>) -> Option<Packet> {
        let first = self.in_flight.peek_mut()?;
        if deadline.is_some_and(|now| first.key.0 > now) {
            return None;
        }
        self.counts.delivered += 1;
        Some(PeekMut::pop(first).packet)
    }

    /// Delivers every packet whose arrival time is at or before `now`,
    /// in arrival order.
    pub fn poll(&mut self, now: SimTime) -> Vec<Packet> {
        std::iter::from_fn(|| self.arrive(Some(now))).collect()
    }

    /// Delivers everything still in flight regardless of time.
    pub fn drain(&mut self) -> Vec<Packet> {
        std::iter::from_fn(|| self.arrive(None)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketHeader};

    fn pkt(seq: u64, len: usize) -> Packet {
        Packet {
            header: PacketHeader {
                stream: 0,
                block_id: seq,
                seq,
                frag_index: 0,
                data_frags: 1,
                block_len: len as u32,
            },
            payload: vec![0u8; len],
        }
    }

    fn run(cfg: WanConfig, n: u64) -> (Vec<u64>, ChannelCounts) {
        let mut ch = WanChannel::new(cfg).expect("channel");
        for i in 0..n {
            ch.send(SimTime::from_secs_f64(i as f64 * 0.001), pkt(i, 600));
        }
        let seqs = ch.drain().into_iter().map(|p| p.header.seq).collect();
        (seqs, ch.counts())
    }

    #[test]
    fn clean_channel_delivers_everything_in_order() {
        let (seqs, counts) = run(WanConfig::clean(1), 200);
        assert_eq!(seqs, (0..200).collect::<Vec<_>>());
        assert_eq!(counts.delivered, 200);
        assert_eq!(counts.lost + counts.congestion_dropped, 0);
    }

    #[test]
    fn same_seed_same_trace() {
        let cfg = WanConfig::paper_wan(99, 0.05);
        let a = run(cfg.clone(), 500);
        let b = run(cfg, 500);
        assert_eq!(a, b, "a seeded channel must be bit-reproducible");
    }

    #[test]
    fn different_seed_different_trace() {
        let a = run(WanConfig::paper_wan(1, 0.05), 500);
        let b = run(WanConfig::paper_wan(2, 0.05), 500);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn iid_loss_rate_lands_near_nominal() {
        let mut cfg = WanConfig::clean(7);
        cfg.loss = LossModel::Iid { loss: 0.1 };
        let (_, counts) = run(cfg, 5000);
        let rate = counts.lost as f64 / counts.sent as f64;
        assert!(
            (rate - 0.1).abs() < 0.02,
            "observed loss {rate} too far from 0.1"
        );
    }

    #[test]
    fn gilbert_elliott_bursts_and_matches_mean() {
        let model = LossModel::GilbertElliott {
            to_bad: 0.02,
            to_good: 0.2,
            loss_good: 0.001,
            loss_bad: 0.4,
        };
        let mean = model.mean_loss();
        let mut cfg = WanConfig::clean(11);
        cfg.loss = model;
        let (_, counts) = run(cfg, 20_000);
        let rate = counts.lost as f64 / counts.sent as f64;
        assert!(
            (rate - mean).abs() < 0.02,
            "observed loss {rate} too far from stationary mean {mean}"
        );
    }

    #[test]
    fn bandwidth_cap_causes_congestion_drops_when_overdriven() {
        let mut cfg = WanConfig::clean(3);
        cfg.bandwidth_bps = 1e6; // 1 Mbit
        cfg.queue_bytes = 4 * 1024;
        let mut ch = WanChannel::new(cfg).expect("channel");
        // Offer ~5 Mbit/s into a 1 Mbit/s link: most must tail-drop.
        for i in 0..1000u64 {
            ch.send(SimTime::from_secs_f64(i as f64 * 0.001), pkt(i, 600));
        }
        let c = ch.counts();
        assert!(
            c.congestion_dropped > 500,
            "expected heavy congestion, got {c:?}"
        );
        assert_eq!(c.sent, 1000);
    }

    #[test]
    fn ecn_marks_fire_before_congestion_drops() {
        let mut cfg = WanConfig::clean(9);
        cfg.bandwidth_bps = 1e6;
        cfg.queue_bytes = 64 * 1024; // 0.52 s of queue at 1 Mbit/s
        let mut ch = WanChannel::new(cfg).expect("channel");
        // Offer ~1.6 Mbit/s into 1 Mbit/s: the backlog builds through the
        // ECN threshold long before it reaches the drop bound.
        for i in 0..200u64 {
            ch.send(SimTime::from_secs_f64(i as f64 * 0.003), pkt(i, 600));
        }
        let c = ch.counts();
        assert!(
            c.marked > 0,
            "standing queue must raise ECN marks, got {c:?}"
        );
        assert_eq!(
            c.congestion_dropped, 0,
            "the queue still has headroom; marks are the early warning, got {c:?}"
        );
    }

    #[test]
    fn reordering_is_bounded_by_the_configured_delay() {
        let mut cfg = WanConfig::clean(5);
        cfg.reorder = 0.3;
        cfg.reorder_delay_secs = 0.05;
        let (seqs, counts) = run(cfg, 2000);
        assert_eq!(counts.delivered, 2000, "reordering must not lose packets");
        let mut displaced = 0u64;
        let mut max_back = 0i64;
        let mut hi = -1i64;
        for &s in &seqs {
            let s = s as i64;
            if s < hi {
                displaced += 1;
                max_back = max_back.max(hi - s);
            }
            hi = hi.max(s);
        }
        assert!(
            displaced > 0,
            "with reorder=0.3 some packets must arrive late"
        );
        // 50 ms of extra delay at 1 ms spacing bounds displacement ~50.
        assert!(
            max_back <= 60,
            "displacement {max_back} exceeds the delay bound"
        );
    }

    #[test]
    fn send_reports_whether_the_packet_entered_flight() {
        let mut cfg = WanConfig::clean(4);
        cfg.loss = LossModel::Iid { loss: 0.2 };
        cfg.bandwidth_bps = 1e6;
        cfg.queue_bytes = 4 * 1024;
        let mut ch = WanChannel::new(cfg).expect("channel");
        let mut entered = 0u64;
        for i in 0..2000u64 {
            let before = ch.counts();
            let in_flight = ch.send(SimTime::from_secs_f64(i as f64 * 0.002), pkt(i, 600));
            let after = ch.counts();
            let dropped =
                (after.lost + after.congestion_dropped) - (before.lost + before.congestion_dropped);
            assert_eq!(in_flight, dropped == 0, "packet {i}: {after:?}");
            entered += u64::from(in_flight);
        }
        let c = ch.counts();
        assert!(c.lost > 0 && c.congestion_dropped > 0, "{c:?}");
        assert_eq!(ch.drain().len() as u64, entered);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let mut cfg = WanConfig::clean(0);
        cfg.reorder = 1.5;
        assert!(matches!(WanChannel::new(cfg), Err(NetError::Config(_))));
        let mut cfg = WanConfig::clean(0);
        cfg.bandwidth_bps = 0.0;
        assert!(matches!(WanChannel::new(cfg), Err(NetError::Config(_))));
        let mut cfg = WanConfig::clean(0);
        cfg.loss = LossModel::Iid { loss: -0.1 };
        assert!(matches!(WanChannel::new(cfg), Err(NetError::Config(_))));
    }
}
