//! The packetizer's wire output, pinned byte for byte.
//!
//! `golden/packetizer_v1.hex` holds every packet (28-byte header, then the
//! fragment payload) `Packetizer::packetize` produced for the block set
//! below, one packet per line in send order, captured from the scalar
//! log/exp FEC before the GF(256) kernel and the parity-in-place packetizer
//! replaced it. Any drift — a header field, a fragment boundary, one parity
//! byte, the send order — fails here.

use sieve_net::{FecConfig, Packetizer};

const MTU: usize = 128; // 100-byte fragments: three 32-byte vectors + a 4-byte tail
const GOLDEN: &str = include_str!("golden/packetizer_v1.hex");

/// Lengths around every fragment/group boundary of a (4, 2) shape: empty,
/// sub-fragment, exactly one fragment, one byte over, a short tail that is
/// a group of its own (5 fragments), and several full groups.
const BLOCK_LENS: [usize; 7] = [0, 1, 100, 101, 350, 437, 1000];

fn block(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) >> 5) as u8)
        .collect()
}

fn render() -> String {
    let fec = FecConfig::new(4, 2).expect("valid shape");
    let mut tx = Packetizer::new(MTU, fec, 9).expect("packetizer");
    let mut out = String::new();
    for (i, &len) in BLOCK_LENS.iter().enumerate() {
        let (_, packets) = tx.packetize(&block(len, i as u64 * 977));
        for p in packets {
            for b in p.header.to_bytes().iter().chain(&p.payload) {
                out.push_str(&format!("{b:02x}"));
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn packetize_output_is_byte_identical_to_the_captured_vector() {
    let rendered = render();
    let (got, want): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), GOLDEN.lines().collect());
    assert_eq!(got.len(), want.len(), "packet count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "packet {i} differs");
    }
}
