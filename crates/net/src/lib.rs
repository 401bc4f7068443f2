//! # sieve-net — edge→cloud transport over a hostile WAN
//!
//! The fleet's keep sink used to be the end of the line; this crate closes
//! the paper's Fig 4 loop: **fleet → packetizer → hostile WAN →
//! depacketizer → cloud → feedback → rate controller**.
//!
//! * [`fec`] — GF(256) Cauchy-matrix erasure coding: `K` data + `R`
//!   parity fragments per group, *any* ≤R losses per group recoverable;
//!   the byte arithmetic is `sieve_video::kernels::gf256_mul_acc`, the
//!   workspace's one SIMD dispatcher;
//! * [`packet`] — block/fragment packetization to a fixed MTU
//!   (`(block_id, frag_index, frag_count)` headers) and out-of-order
//!   reassembly surfacing [`BlockOutcome::Delivered`] /
//!   [`BlockOutcome::Recovered`] / [`BlockOutcome::Lost`]; malformed
//!   fragments are counted (`wan.rejected`) and dropped, never indexed;
//! * [`channel`] — [`WanChannel`], a deterministic seeded channel model:
//!   i.i.d. or Gilbert–Elliott burst loss, bounded reordering, jitter and
//!   a token-bucket bandwidth cap with a bounded queue (overflow is
//!   congestion loss). Runs on [`sieve_simnet::SimTime`] — no wall clock,
//!   no global RNG — so it composes with the model checker;
//! * [`feedback`] — the `wan.*` registry instruments (named under
//!   [`WAN_STAGE`]) and the per-quantum
//!   [`sieve_core::adapt::WanFeedback`] collector that reads *the same
//!   counters* the operator watches in `fleet_top`;
//! * [`uplink`] — [`Uplink`] ties the four layers together behind one
//!   virtual-time pump, [`SharedUplink`] adapts it to a fleet
//!   [`sieve_fleet::KeepSink`].

pub mod channel;
pub mod fec;
pub mod feedback;
pub mod packet;
pub mod uplink;

pub use channel::{LossModel, WanChannel, WanConfig};
pub use fec::FecConfig;
pub use feedback::{FeedbackCollector, WanTaps};
pub use packet::{BlockOutcome, BlockReport, Depacketizer, Packet, PacketHeader, Packetizer};
pub use uplink::{SharedUplink, Uplink, UplinkConfig};

/// The edge→cloud WAN hop's stage name, prefixing the `wan.*` instruments
/// the operator reads in `fleet_top` and the [`FeedbackCollector`] diffs:
/// one constant, so the dashboard and the control loop cannot drift apart.
pub const WAN_STAGE: &str = "wan";

/// Re-export of the feedback quantum consumed by
/// [`sieve_core::adapt::WanSignal::apply`], which steers every
/// [`sieve_core::adapt::RateController`] coupled to that signal.
pub use sieve_core::adapt::WanFeedback as Feedback;

/// Errors of the transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// An invalid configuration (MTU, FEC shape, channel parameters).
    Config(String),
    /// A packet that does not parse as a sieve-net packet.
    MalformedPacket(String),
    /// A FEC group with more losses than surviving parity.
    Unrecoverable {
        /// Data fragments missing from the group.
        missing: usize,
        /// Parity fragments that survived.
        parity: usize,
    },
    /// The recovery system had no pivot — impossible for a Cauchy matrix;
    /// kept as a typed error so a logic bug cannot panic a runtime path.
    SingularSystem,
}

impl NetError {
    pub(crate) fn config(msg: impl Into<String>) -> Self {
        Self::Config(msg.into())
    }

    pub(crate) fn malformed(msg: impl Into<String>) -> Self {
        Self::MalformedPacket(msg.into())
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "invalid config: {msg}"),
            Self::MalformedPacket(msg) => write!(f, "malformed packet: {msg}"),
            Self::Unrecoverable { missing, parity } => write!(
                f,
                "unrecoverable FEC group: {missing} fragments missing, {parity} parity available"
            ),
            Self::SingularSystem => write!(f, "singular FEC recovery system"),
        }
    }
}

impl std::error::Error for NetError {}
