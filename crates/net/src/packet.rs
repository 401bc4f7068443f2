//! Block/fragment packetization and out-of-order reassembly.
//!
//! A *block* is one application payload (an encoded frame). The
//! [`Packetizer`] splits it into fixed-MTU fragments, appends FEC parity
//! per [`FecConfig`] group, and stamps every fragment with a 28-byte
//! header. The [`Depacketizer`] reassembles blocks from whatever subset
//! arrives — in any order, with duplicates — and reports one
//! [`BlockOutcome`] per block:
//!
//! * [`BlockOutcome::Delivered`] — every data fragment arrived;
//! * [`BlockOutcome::Recovered`] — data was missing but every FEC group
//!   had enough surviving parity to rebuild it, bit-exact;
//! * [`BlockOutcome::Lost`] — some group lost more fragments than its
//!   parity budget; the block is reported lost, never as corrupt bytes.
//!
//! Blocks resolve either eagerly (the moment enough fragments are in) or
//! when they age past the reassembly *horizon*: once packets for block
//! `id + horizon` show up on a stream, block `id` is forced to a verdict.
//!
//! Payload bytes are copied once on each side. The packetizer cuts the
//! block into the fragment `Vec`s it ships and accumulates parity straight
//! into the parity packets' payloads. The depacketizer appends in-order
//! fragments to one buffer per block — fragment `i` at `i × frag_payload` —
//! and hands that buffer over as the delivered payload; a fragment that
//! arrives past a gap waits as the `Vec` it came in, and only a block that
//! needs FEC recovery looks at per-fragment views. Everything off the wire
//! is hostile: a fragment whose header disagrees with the configured
//! layout, or with its block's first fragment, is counted under
//! `wan.rejected` and dropped, and reassembly memory grows only with
//! payload bytes actually received — never from a declared length.

use std::collections::{BTreeMap, VecDeque};

use crate::fec::{CauchyRows, FecConfig};
use crate::feedback::WanTaps;
use crate::NetError;

/// Fragment header magic: `0x5E` ("SiEVE") + layout version 1.
pub const MAGIC: [u8; 2] = [0x5E, 0x01];

/// Serialized size of a [`PacketHeader`] on the wire.
pub const HEADER_BYTES: usize = 28;

/// Per-fragment wire header.
///
/// `frag_index < data_frags` marks a data fragment; indices at and above
/// `data_frags` are FEC parity, `group_parity` per group in group order.
/// `seq` increases by one per packet *sent* on the stream (data and
/// parity alike) and is what the receiver uses to count reordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Fleet stream (camera) the block belongs to.
    pub stream: u16,
    /// Monotone per-stream block counter.
    pub block_id: u64,
    /// Monotone per-stream send counter, across blocks.
    pub seq: u64,
    /// Fragment position: data first, then parity.
    pub frag_index: u16,
    /// Number of *data* fragments in the block.
    pub data_frags: u16,
    /// Exact byte length of the original block payload.
    pub block_len: u32,
}

impl PacketHeader {
    /// Serializes to the fixed [`HEADER_BYTES`] layout (big-endian).
    pub fn to_bytes(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..2].copy_from_slice(&MAGIC);
        out[2..4].copy_from_slice(&self.stream.to_be_bytes());
        out[4..12].copy_from_slice(&self.block_id.to_be_bytes());
        out[12..20].copy_from_slice(&self.seq.to_be_bytes());
        out[20..22].copy_from_slice(&self.frag_index.to_be_bytes());
        out[22..24].copy_from_slice(&self.data_frags.to_be_bytes());
        out[24..28].copy_from_slice(&self.block_len.to_be_bytes());
        out
    }

    /// Parses a header back out of a wire buffer.
    pub fn parse(buf: &[u8]) -> Result<Self, NetError> {
        if buf.len() < HEADER_BYTES {
            return Err(NetError::malformed(format!(
                "{} bytes is shorter than the {HEADER_BYTES}-byte header",
                buf.len()
            )));
        }
        if buf[0..2] != MAGIC {
            return Err(NetError::malformed(format!(
                "bad magic {:02x}{:02x}",
                buf[0], buf[1]
            )));
        }
        fn word<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
            let mut out = [0u8; N];
            out.copy_from_slice(&buf[at..at + N]);
            out
        }
        Ok(Self {
            stream: u16::from_be_bytes(word(buf, 2)),
            block_id: u64::from_be_bytes(word(buf, 4)),
            seq: u64::from_be_bytes(word(buf, 12)),
            frag_index: u16::from_be_bytes(word(buf, 20)),
            data_frags: u16::from_be_bytes(word(buf, 22)),
            block_len: u32::from_be_bytes(word(buf, 24)),
        })
    }
}

/// One fragment in flight: header plus fragment payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub header: PacketHeader,
    pub payload: Vec<u8>,
}

impl Packet {
    /// Bytes this packet occupies on the wire — what the channel's
    /// bandwidth cap charges for.
    pub fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }
}

/// Validates the wire layout a packetizer/depacketizer pair shares; returns
/// the fragment payload size and the checked FEC shape.
fn layout(mtu: usize, fec: FecConfig) -> Result<(usize, FecConfig), NetError> {
    if mtu <= HEADER_BYTES {
        return Err(NetError::config(format!(
            "mtu {mtu} leaves no room after the {HEADER_BYTES}-byte header"
        )));
    }
    Ok((
        mtu - HEADER_BYTES,
        FecConfig::new(fec.group_data, fec.group_parity)?,
    ))
}

/// Splits blocks into MTU-sized fragments and appends FEC parity.
#[derive(Debug)]
pub struct Packetizer {
    frag_payload: usize,
    fec: FecConfig,
    rows: CauchyRows,
    stream: u16,
    next_block: u64,
    next_seq: u64,
}

impl Packetizer {
    /// `mtu` is the full on-wire packet budget, header included.
    pub fn new(mtu: usize, fec: FecConfig, stream: u16) -> Result<Self, NetError> {
        let (frag_payload, fec) = layout(mtu, fec)?;
        Ok(Self {
            frag_payload,
            fec,
            rows: CauchyRows::new(fec.group_data, fec.group_parity),
            stream,
            next_block: 0,
            next_seq: 0,
        })
    }

    /// Payload bytes that fit in one fragment.
    pub fn frag_payload(&self) -> usize {
        self.frag_payload
    }

    /// Packetizes one block; returns its id and the fragments in send
    /// order (data first, then per-group parity).
    pub fn packetize(&mut self, block: &[u8]) -> (u64, Vec<Packet>) {
        let block_id = self.next_block;
        self.next_block += 1;
        let fp = self.frag_payload;
        let (k, r) = (self.fec.group_data, self.fec.group_parity);
        // An empty block still ships one empty data fragment so the
        // receiver sees the block exist and can report on it.
        let data_frags = block.len().div_ceil(fp).max(1);
        debug_assert!(
            data_frags <= u16::MAX as usize,
            "block too large for u16 fragment index"
        );
        let parity_frags = data_frags.div_ceil(k) * r;

        let mut packets = Vec::with_capacity(data_frags + parity_frags);
        let mut stamp = |frag_index: usize, payload: Vec<u8>| {
            let seq = self.next_seq;
            self.next_seq += 1;
            Packet {
                header: PacketHeader {
                    stream: self.stream,
                    block_id,
                    seq,
                    frag_index: frag_index as u16,
                    data_frags: data_frags as u16,
                    block_len: block.len() as u32,
                },
                payload,
            }
        };
        for i in 0..data_frags {
            let chunk = &block[(i * fp).min(block.len())..((i + 1) * fp).min(block.len())];
            packets.push(stamp(i, chunk.to_vec()));
        }
        for p in 0..parity_frags {
            // Parity is as long as its group's longest fragment — the first.
            let len = packets[p / r * k].payload.len();
            packets.push(stamp(data_frags + p, vec![0u8; len]));
        }
        if r > 0 {
            let (data, parity) = packets.split_at_mut(data_frags);
            for (group, out) in data.chunks(k).zip(parity.chunks_mut(r)) {
                self.rows.encode_into(
                    group.iter().map(|p| p.payload.as_slice()),
                    out.iter_mut().map(|p| p.payload.as_mut_slice()),
                );
            }
        }
        (block_id, packets)
    }
}

/// Terminal verdict for one block at the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockOutcome {
    /// All data fragments arrived; payload is the original bytes.
    Delivered(Vec<u8>),
    /// Data was missing but FEC rebuilt it; payload is bit-exact.
    Recovered(Vec<u8>),
    /// More losses than parity in at least one group.
    Lost,
}

impl BlockOutcome {
    /// The reassembled payload, when there is one.
    pub fn payload(&self) -> Option<&[u8]> {
        match self {
            Self::Delivered(p) | Self::Recovered(p) => Some(p),
            Self::Lost => None,
        }
    }
}

/// One resolved block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReport {
    pub stream: u16,
    pub block_id: u64,
    pub outcome: BlockOutcome,
}

/// One block with at least one fragment in and no verdict yet. Holds
/// exactly the payload bytes that arrived for it, nothing sized from a
/// header field.
#[derive(Debug)]
struct PendingBlock {
    data_frags: u16,
    block_len: u32,
    /// Data fragments `0..in_order`, fragment `i` at `i × frag_payload`.
    buf: Vec<u8>,
    in_order: usize,
    /// Data fragments that arrived past a gap, ascending by index, each
    /// still the `Vec` it arrived in.
    ahead: Vec<(u16, Vec<u8>)>,
    /// Parity fragments, ascending by parity position.
    parity: Vec<(u16, Vec<u8>)>,
}

/// Inserts into an index-sorted fragment list; a duplicate is dropped.
fn insert_sorted(list: &mut Vec<(u16, Vec<u8>)>, index: u16, payload: Vec<u8>) {
    if let Err(at) = list.binary_search_by_key(&index, |(i, _)| *i) {
        list.insert(at, (index, payload));
    }
}

fn find_sorted(list: &[(u16, Vec<u8>)], index: usize) -> Option<&[u8]> {
    list.binary_search_by_key(&index, |(i, _)| *i as usize)
        .ok()
        .map(|at| list[at].1.as_slice())
}

impl PendingBlock {
    fn new(h: &PacketHeader) -> Self {
        Self {
            data_frags: h.data_frags,
            block_len: h.block_len,
            buf: Vec::new(),
            in_order: 0,
            ahead: Vec::new(),
            parity: Vec::new(),
        }
    }

    fn complete(&self) -> bool {
        self.in_order == self.data_frags as usize
    }

    fn append(&mut self, payload: Vec<u8>) {
        if self.in_order == 0 {
            self.buf = payload;
        } else {
            self.buf.extend_from_slice(&payload);
        }
        self.in_order += 1;
    }

    fn insert_data(&mut self, index: u16, payload: Vec<u8>) {
        match (index as usize).cmp(&self.in_order) {
            std::cmp::Ordering::Less => {} // duplicate
            std::cmp::Ordering::Greater => insert_sorted(&mut self.ahead, index, payload),
            std::cmp::Ordering::Equal => {
                self.append(payload);
                // The gap closed: take in whatever was waiting right behind it.
                let mut taken = 0;
                while taken < self.ahead.len() && self.ahead[taken].0 as usize == self.in_order {
                    let waiting = std::mem::take(&mut self.ahead[taken].1);
                    self.append(waiting);
                    taken += 1;
                }
                self.ahead.drain(..taken);
            }
        }
    }

    /// The bytes of data fragment `index`, if it is in.
    fn data(&self, index: usize, frag_payload: usize) -> Option<&[u8]> {
        if index < self.in_order {
            let lo = index * frag_payload;
            Some(&self.buf[lo..(lo + frag_payload).min(self.buf.len())])
        } else {
            find_sorted(&self.ahead, index)
        }
    }

    fn held_bytes(&self) -> usize {
        let listed = |l: &[(u16, Vec<u8>)]| l.iter().map(|(_, p)| p.len()).sum::<usize>();
        self.buf.len() + listed(&self.ahead) + listed(&self.parity)
    }
}

/// Which of a stream's blocks already have a verdict: every id below
/// `floor`, plus the listed ids at or above it — so stragglers and
/// duplicates for a settled block are dropped silently, and a very late one
/// (e.g. queued behind a full congestion backlog) can never resurrect — and
/// double-resolve — a settled block. The floor trails the newest block by
/// two horizons, so the list never holds more than `2 × horizon + 2` ids.
#[derive(Debug, Default)]
struct SettledWindow {
    floor: u64,
    /// Settled ids at or above `floor`, ascending.
    ids: VecDeque<u64>,
}

impl SettledWindow {
    fn contains(&self, id: u64) -> bool {
        id < self.floor || self.ids.binary_search(&id).is_ok()
    }

    /// Marks `id` settled and slides the floor up to `keep_from`.
    fn insert(&mut self, id: u64, keep_from: u64) {
        if id >= keep_from {
            // Blocks mostly settle in id order: the common insert is a push.
            if let Err(at) = self.ids.binary_search(&id) {
                self.ids.insert(at, id);
            }
        }
        while self.ids.front().is_some_and(|&settled| settled < keep_from) {
            self.ids.pop_front();
        }
        self.floor = self.floor.max(keep_from);
    }
}

#[derive(Debug)]
struct StreamState {
    highest_seq: u64,
    /// Highest block id a well-formed fragment has carried.
    newest: u64,
    settled: SettledWindow,
}

/// Counts one fragment dropped for contradicting the shared layout or its
/// block's first fragment; it resolves nothing.
fn reject(rejected: &mut u64, taps: Option<&WanTaps>) -> Vec<BlockReport> {
    *rejected += 1;
    if let Some(t) = taps {
        t.rejected.inc();
    }
    Vec::new()
}

/// Reassembles blocks from fragments arriving in any order.
#[derive(Debug)]
pub struct Depacketizer {
    frag_payload: usize,
    fec: FecConfig,
    rows: CauchyRows,
    horizon: u64,
    pending: BTreeMap<(u16, u64), PendingBlock>,
    streams: BTreeMap<u16, StreamState>,
    reordered: u64,
    rejected: u64,
    taps: Option<WanTaps>,
}

/// Blocks a stream may keep pending before the oldest is forced to a
/// verdict. Generous relative to the channel's reorder bound so a late
/// fragment still finds its block waiting.
pub const DEFAULT_HORIZON: u64 = 8;

impl Depacketizer {
    /// `mtu` and `fec` must match the sender's — the fragment payload
    /// size is shared configuration, not derivable from the wire.
    pub fn new(mtu: usize, fec: FecConfig) -> Result<Self, NetError> {
        let (frag_payload, fec) = layout(mtu, fec)?;
        Ok(Self {
            frag_payload,
            fec,
            rows: CauchyRows::new(fec.group_data, fec.group_parity),
            horizon: DEFAULT_HORIZON,
            pending: BTreeMap::new(),
            streams: BTreeMap::new(),
            reordered: 0,
            rejected: 0,
            taps: None,
        })
    }

    /// Wires the `wan.*` registry instruments into the reassembly path.
    pub fn with_taps(mtu: usize, fec: FecConfig, taps: WanTaps) -> Result<Self, NetError> {
        let mut d = Self::new(mtu, fec)?;
        d.taps = Some(taps);
        Ok(d)
    }

    /// Overrides the reassembly horizon (in blocks, per stream).
    pub fn set_horizon(&mut self, horizon: u64) {
        self.horizon = horizon.max(1);
    }

    /// Packets seen out of send order so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Fragments dropped because their header contradicts the shared
    /// layout or their block's first fragment.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Blocks still waiting for fragments.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Payload bytes held for blocks still waiting — never more than the
    /// payload bytes pushed.
    pub fn pending_bytes(&self) -> usize {
        self.pending.values().map(PendingBlock::held_bytes).sum()
    }

    /// True while at least one fragment of the block has arrived and the
    /// block has not yet resolved.
    pub fn is_pending(&self, stream: u16, block_id: u64) -> bool {
        self.pending.contains_key(&(stream, block_id))
    }

    /// The payload length the shared layout dictates for this fragment, or
    /// `None` when the header is not one a [`Packetizer`] of this layout
    /// can have stamped.
    fn expected_len(&self, h: &PacketHeader) -> Option<usize> {
        let fp = self.frag_payload;
        let (k, r) = (self.fec.group_data, self.fec.group_parity);
        let block_len = h.block_len as usize;
        let data_frags = h.data_frags as usize;
        if block_len.div_ceil(fp).max(1) != data_frags {
            return None;
        }
        let tail = data_frags - 1;
        let tail_len = block_len - tail * fp;
        let index = h.frag_index as usize;
        if index < data_frags {
            return Some(if index < tail { fp } else { tail_len });
        }
        let position = index - data_frags;
        if position >= data_frags.div_ceil(k) * r {
            return None;
        }
        // Parity is as long as its group's longest fragment — the first.
        Some(if position / r * k < tail {
            fp
        } else {
            tail_len
        })
    }

    /// Feeds one arrived packet; returns every block this arrival
    /// resolves — the block it completes, plus any block it ages out.
    pub fn push(&mut self, packet: Packet) -> Vec<BlockReport> {
        let h = packet.header;
        if let Some(t) = &self.taps {
            t.packets_delivered.inc();
        }
        let well_formed = self.expected_len(&h) == Some(packet.payload.len());
        let stream = self.streams.entry(h.stream).or_insert(StreamState {
            highest_seq: h.seq,
            newest: h.block_id,
            settled: SettledWindow::default(),
        });
        if h.seq < stream.highest_seq {
            self.reordered += 1;
            if let Some(t) = &self.taps {
                t.packets_reordered.inc();
            }
        }
        stream.highest_seq = stream.highest_seq.max(h.seq);
        if stream.settled.contains(h.block_id) {
            return Vec::new(); // straggler for a block already settled
        }
        if !well_formed {
            return reject(&mut self.rejected, self.taps.as_ref());
        }
        let entry = self
            .pending
            .entry((h.stream, h.block_id))
            .or_insert_with(|| PendingBlock::new(&h));
        if (entry.data_frags, entry.block_len) != (h.data_frags, h.block_len) {
            return reject(&mut self.rejected, self.taps.as_ref());
        }
        match h.frag_index.checked_sub(h.data_frags) {
            None => entry.insert_data(h.frag_index, packet.payload),
            Some(position) => insert_sorted(&mut entry.parity, position, packet.payload),
        }
        // Recovery is deliberately *lazy* — jitter routinely lands parity
        // ahead of the last data fragment, and recovering while the data is
        // still in flight would misreport a healthy channel as lossy. Parity
        // is only spent at `finalize` / horizon expiry, when waiting is no
        // longer an option.
        let mut reports = Vec::new();
        if entry.complete() {
            reports.push(self.force_resolve(h.stream, h.block_id));
        }
        // Only now: the completing block settles against the floor as it
        // stood before this fragment moved `newest`.
        let newest = self.streams.get_mut(&h.stream).map_or(h.block_id, |state| {
            state.newest = state.newest.max(h.block_id);
            state.newest
        });
        // Pending blocks sort by id, so the aged-out ones lead the stream's range.
        while let Some(id) = self
            .pending
            .range((h.stream, 0)..=(h.stream, u64::MAX))
            .next()
            .map(|(&(_, id), _)| id)
            .filter(|id| id.saturating_add(self.horizon) < newest)
        {
            reports.push(self.force_resolve(h.stream, id));
        }
        reports
    }

    /// Forces a verdict on everything still pending.
    pub fn finish(&mut self) -> Vec<BlockReport> {
        let keys: Vec<(u16, u64)> = self.pending.keys().copied().collect();
        keys.into_iter()
            .map(|(s, id)| self.force_resolve(s, id))
            .collect()
    }

    /// Resolves the block with whatever is present: its buffer if every
    /// data fragment is in, recovery if possible, otherwise
    /// [`BlockOutcome::Lost`].
    fn force_resolve(&mut self, stream: u16, block_id: u64) -> BlockReport {
        let outcome = match self.pending.remove(&(stream, block_id)) {
            Some(entry) if entry.complete() => BlockOutcome::Delivered(entry.buf),
            Some(entry) if self.fec.group_parity > 0 => self.recover(entry),
            _ => BlockOutcome::Lost,
        };
        self.settle(stream, block_id, outcome)
    }

    /// Runs per-group recovery over views of what arrived, then completes
    /// the block's buffer; [`BlockOutcome::Lost`] if any group lost more
    /// fragments than it has parity.
    fn recover(&self, mut entry: PendingBlock) -> BlockOutcome {
        let fp = self.frag_payload;
        let (k, r) = (self.fec.group_data, self.fec.group_parity);
        let data_frags = entry.data_frags as usize;
        let block_len = entry.block_len as usize;
        let tail = data_frags - 1;
        let mut rebuilt: Vec<(usize, Vec<u8>)> = Vec::new();
        for (g, lo) in (0..data_frags).step_by(k).enumerate() {
            let hi = (lo + k).min(data_frags);
            let data: Vec<Option<&[u8]>> = (lo..hi).map(|i| entry.data(i, fp)).collect();
            if data.iter().all(Option::is_some) {
                continue;
            }
            let parity: Vec<Option<&[u8]>> = (g * r..(g + 1) * r)
                .map(|p| find_sorted(&entry.parity, p))
                .collect();
            let frag_len = if lo < tail { fp } else { block_len - tail * fp };
            let Ok(frags) = self.rows.recover(&data, &parity, frag_len) else {
                return BlockOutcome::Lost;
            };
            let missing = (lo..hi).filter(|i| data[i - lo].is_none());
            rebuilt.extend(missing.zip(frags));
        }
        if let Some(t) = &self.taps {
            t.frags_recovered.add(rebuilt.len() as u64);
        }
        // Behind the in-order prefix, every index is either rebuilt or was
        // waiting ahead of the gap; both lists ascend.
        let mut out = std::mem::take(&mut entry.buf);
        let mut rebuilt = rebuilt.into_iter().peekable();
        let mut ahead = entry.ahead.into_iter();
        for i in entry.in_order..data_frags {
            let frag = match rebuilt.next_if(|(index, _)| *index == i) {
                Some((_, frag)) => frag,
                None => ahead.next().map(|(_, frag)| frag).unwrap_or_default(),
            };
            out.extend_from_slice(&frag);
        }
        // A rebuilt tail fragment carries FEC zero-padding past the end.
        out.truncate(block_len);
        BlockOutcome::Recovered(out)
    }

    fn settle(&mut self, stream: u16, block_id: u64, outcome: BlockOutcome) -> BlockReport {
        if let Some(t) = &self.taps {
            match &outcome {
                BlockOutcome::Delivered(p) => {
                    t.blocks_delivered.inc();
                    t.delivered_bytes.add(p.len() as u64);
                }
                BlockOutcome::Recovered(p) => {
                    t.blocks_recovered.inc();
                    t.delivered_bytes.add(p.len() as u64);
                }
                BlockOutcome::Lost => t.blocks_lost.inc(),
            }
        }
        if let Some(state) = self.streams.get_mut(&stream) {
            let keep_from = state.newest.saturating_sub(self.horizon.saturating_mul(2));
            state.settled.insert(block_id, keep_from);
        }
        BlockReport {
            stream,
            block_id,
            outcome,
        }
    }
}

/// Convenience used by tests and the uplink: run `packets` through a
/// lossless path and return the reports in resolution order.
pub fn roundtrip(
    depacketizer: &mut Depacketizer,
    packets: impl IntoIterator<Item = Packet>,
) -> VecDeque<BlockReport> {
    let mut out = VecDeque::new();
    for p in packets {
        out.extend(depacketizer.push(p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(mtu: usize, fec: FecConfig) -> (Packetizer, Depacketizer) {
        (
            Packetizer::new(mtu, fec, 3).expect("packetizer"),
            Depacketizer::new(mtu, fec).expect("depacketizer"),
        )
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 % 251) as u8).collect()
    }

    #[test]
    fn header_roundtrips_and_rejects_garbage() {
        let h = PacketHeader {
            stream: 7,
            block_id: 0x0123_4567_89ab_cdef,
            seq: 42,
            frag_index: 9,
            data_frags: 12,
            block_len: 4096,
        };
        let bytes = h.to_bytes();
        assert_eq!(PacketHeader::parse(&bytes).expect("parse"), h);
        assert!(matches!(
            PacketHeader::parse(&bytes[..10]),
            Err(NetError::MalformedPacket(_))
        ));
        let mut bad = bytes;
        bad[0] = 0xff;
        assert!(matches!(
            PacketHeader::parse(&bad),
            Err(NetError::MalformedPacket(_))
        ));
    }

    #[test]
    fn lossless_in_order_delivers() {
        let (mut tx, mut rx) = mk(256, FecConfig::default_on());
        let block = payload(2000);
        let (id, pkts) = tx.packetize(&block);
        let reports = roundtrip(&mut rx, pkts);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].block_id, id);
        assert_eq!(reports[0].outcome, BlockOutcome::Delivered(block));
    }

    #[test]
    fn loss_within_parity_budget_recovers_bit_exact() {
        let fec = FecConfig::new(4, 2).expect("fec");
        let (mut tx, mut rx) = mk(128, fec);
        let block = payload(900);
        let (_, mut pkts) = tx.packetize(&block);
        // Drop two data fragments out of the first group.
        pkts.remove(1);
        pkts.remove(0);
        let mut reports = roundtrip(&mut rx, pkts);
        assert!(
            reports.is_empty(),
            "recovery is lazy: nothing resolves early"
        );
        reports.extend(rx.finish());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, BlockOutcome::Recovered(block));
    }

    #[test]
    fn loss_beyond_parity_budget_is_lost_not_corrupt() {
        let fec = FecConfig::new(4, 1).expect("fec");
        let (mut tx, mut rx) = mk(128, fec);
        let block = payload(900);
        let (_, pkts) = tx.packetize(&block);
        // Drop two data fragments from the same group: beyond R=1.
        let kept: Vec<Packet> = pkts
            .into_iter()
            .filter(|p| p.header.frag_index != 0 && p.header.frag_index != 1)
            .collect();
        let mut rx_reports = roundtrip(&mut rx, kept);
        rx_reports.extend(rx.finish());
        assert_eq!(rx_reports.len(), 1);
        assert_eq!(rx_reports[0].outcome, BlockOutcome::Lost);
    }

    #[test]
    fn out_of_order_arrival_reassembles_and_counts_reorder() {
        let (mut tx, mut rx) = mk(200, FecConfig::off());
        let block = payload(700);
        let (_, mut pkts) = tx.packetize(&block);
        pkts.reverse();
        let reports = roundtrip(&mut rx, pkts);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, BlockOutcome::Delivered(block));
        assert!(
            rx.reordered() > 0,
            "reversed arrival must count as reordered"
        );
    }

    #[test]
    fn duplicates_are_idempotent() {
        let (mut tx, mut rx) = mk(200, FecConfig::default_on());
        let block = payload(700);
        let (_, pkts) = tx.packetize(&block);
        let doubled: Vec<Packet> = pkts.clone().into_iter().chain(pkts).collect();
        let reports = roundtrip(&mut rx, doubled);
        assert_eq!(reports.len(), 1, "a settled block ignores stragglers");
        assert_eq!(reports[0].outcome, BlockOutcome::Delivered(block));
    }

    #[test]
    fn horizon_forces_old_blocks_to_a_verdict() {
        let (mut tx, mut rx) = mk(200, FecConfig::off());
        rx.set_horizon(2);
        let first = payload(500);
        let (first_id, mut first_pkts) = tx.packetize(&first);
        first_pkts.pop(); // hold back the tail fragment forever
        let mut reports = roundtrip(&mut rx, first_pkts);
        assert!(reports.is_empty());
        for _ in 0..4 {
            let (_, pkts) = tx.packetize(&payload(500));
            reports.extend(roundtrip(&mut rx, pkts));
        }
        let forced = reports
            .iter()
            .find(|r| r.block_id == first_id)
            .expect("old block must be forced out by the horizon");
        assert_eq!(forced.outcome, BlockOutcome::Lost);
    }

    #[test]
    fn empty_block_still_reports() {
        let (mut tx, mut rx) = mk(200, FecConfig::default_on());
        let (id, pkts) = tx.packetize(&[]);
        assert!(!pkts.is_empty());
        let reports = roundtrip(&mut rx, pkts);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].block_id, id);
        assert_eq!(reports[0].outcome, BlockOutcome::Delivered(Vec::new()));
    }

    #[test]
    fn in_order_delivery_hands_over_the_reassembly_buffer() {
        // One fragment: the delivered payload *is* the packet's own Vec.
        let (mut tx, mut rx) = mk(200, FecConfig::off());
        let (_, mut pkts) = tx.packetize(&payload(100));
        let arrived = pkts.remove(0);
        let arrived_at = arrived.payload.as_ptr();
        let reports = rx.push(arrived);
        let delivered = reports[0].outcome.payload().expect("delivered");
        assert_eq!(delivered.as_ptr(), arrived_at, "no copy on the way out");
        assert_eq!(rx.rejected(), 0);
    }

    #[test]
    fn pending_bytes_track_what_arrived_not_what_was_declared() {
        let fec = FecConfig::new(4, 2).expect("fec");
        let (mut tx, mut rx) = mk(128, fec);
        let (_, pkts) = tx.packetize(&payload(5000));
        // The tail data fragment first: a gap of 49 fragments ahead of it.
        let tail = pkts
            .iter()
            .find(|p| p.header.frag_index + 1 == p.header.data_frags)
            .expect("tail")
            .clone();
        let tail_len = tail.payload.len();
        assert!(rx.push(tail).is_empty());
        assert_eq!(rx.pending_bytes(), tail_len, "no hole is materialised");
        let mut pushed = tail_len;
        for p in pkts.into_iter().take(10) {
            pushed += p.payload.len();
            rx.push(p);
            assert!(rx.pending_bytes() <= pushed);
        }
    }

    type Edit = fn(&mut Packet);

    /// A block's packets, and a forgery of its second fragment.
    fn forged(edit: impl Fn(&mut Packet)) -> (Depacketizer, Vec<Packet>, Packet) {
        let (mut tx, rx) = mk(128, FecConfig::new(4, 2).expect("fec"));
        let (_, pkts) = tx.packetize(&payload(900));
        let mut bad = pkts[1].clone();
        edit(&mut bad);
        (rx, pkts, bad)
    }

    #[test]
    fn fragments_contradicting_the_layout_are_rejected_not_indexed() {
        let edits: [(&str, Edit); 6] = [
            ("data_frags grown past the block", |p| {
                p.header.data_frags += 7
            }),
            ("block_len no longer matching data_frags", |p| {
                p.header.block_len = 90_000
            }),
            ("payload longer than a fragment", |p| {
                p.payload.resize(500, 0)
            }),
            ("payload shorter than its slot", |p| p.payload.truncate(3)),
            ("frag_index past the parity range", |p| {
                p.header.frag_index = 60_000
            }),
            ("consistent header, but not this block's", |p| {
                p.header.data_frags = 10;
                p.header.block_len = 901;
            }),
        ];
        for (what, edit) in edits {
            let (mut rx, pkts, bad) = forged(edit);
            // The genuine first fragment fixes the block's shape...
            assert!(rx.push(pkts[0].clone()).is_empty());
            // ...so the forged one is counted and dropped, whatever it claims.
            assert!(rx.push(bad).is_empty(), "{what}");
            assert_eq!(rx.rejected(), 1, "{what}");
            let reports = roundtrip(&mut rx, pkts);
            assert_eq!(reports.len(), 1, "{what}");
            assert_eq!(
                reports[0].outcome,
                BlockOutcome::Delivered(payload(900)),
                "{what}: the block itself is unharmed"
            );
        }
    }

    #[test]
    fn a_forged_first_fragment_cannot_size_the_reassembly_state() {
        let (mut rx, _, bad) = forged(|p| {
            // Self-consistent and enormous: 65 535 fragments, 6.5 MB.
            p.header.data_frags = u16::MAX;
            p.header.block_len = 65_534 * 100 + 1;
            p.header.frag_index = 65_000;
            p.header.block_id = u64::MAX;
        });
        let len = bad.payload.len();
        assert!(rx.push(bad).is_empty());
        assert_eq!(rx.rejected(), 0, "well-formed, merely implausible");
        assert_eq!(rx.pending_bytes(), len);
        assert_eq!(rx.finish()[0].outcome, BlockOutcome::Lost);
    }

    #[test]
    fn settled_window_keeps_a_floor_and_the_ids_above_it() {
        let mut w = SettledWindow::default();
        w.insert(5, 0);
        w.insert(3, 0);
        assert!(w.contains(3) && w.contains(5) && !w.contains(4));
        // The floor slides to 4: 3 leaves the list but stays settled.
        w.insert(9, 4);
        assert!(w.contains(0) && w.contains(3), "below the floor");
        assert!(!w.contains(4) && w.contains(5) && w.contains(9));
        assert_eq!(w.ids, [5, 9]);
        // An id under the new floor is never listed.
        w.insert(6, 8);
        assert_eq!(w.ids, [9]);
        assert!(w.contains(6) && !w.contains(8));
    }
}
