//! Erasure coding over fragment groups: GF(256) parity that recovers
//! **any** `R` lost fragments per group.
//!
//! Each block's data fragments are split into groups of up to `K`
//! ([`FecConfig::group_data`]); every group gets `R`
//! ([`FecConfig::group_parity`]) parity fragments. The parity rows are a
//! Cauchy matrix over GF(256) — `coef(r, j) = inv(x_r ⊕ y_j)` with the
//! `x` and `y` node sets disjoint — so every square submatrix is
//! invertible and *any* combination of up to `R` missing fragments in a
//! group is recoverable by Gaussian elimination, not just the patterns a
//! plain XOR parity happens to cover. (XOR is the field's addition: with
//! `R = 1` the decode degenerates to the familiar XOR chain.)
//!
//! Every fragment-length operation is one call of
//! [`sieve_video::kernels::gf256_mul_acc`] (`dst ^= c · src`, `vpshufb`
//! nibble tables on AVX2, the same tables bytewise elsewhere) — the field
//! itself is defined there, once. This module only does the small
//! coefficient-matrix arithmetic around it: a `(K, R)` shape's Cauchy rows
//! are computed once per packetizer / depacketizer, and recovery inverts
//! the `M × M` submatrix of the missing columns in scalar code, then
//! rebuilds each missing fragment as a kernel-applied combination of the
//! survivors.

use std::sync::OnceLock;

use sieve_video::kernels::{gf256_mul, gf256_mul_acc};

use crate::NetError;

/// The FEC shape shared by a [`crate::Packetizer`] / [`crate::Depacketizer`]
/// pair: `group_data` (K) data fragments per group, `group_parity` (R)
/// parity fragments appended to each group. `group_parity == 0` turns FEC
/// off (no parity packets, no recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FecConfig {
    /// Data fragments per FEC group (K).
    pub group_data: usize,
    /// Parity fragments per FEC group (R). Zero disables FEC.
    pub group_parity: usize,
}

impl FecConfig {
    /// A `(K, R)` configuration.
    ///
    /// # Errors
    ///
    /// `K` must be at least 1 and `K + R` at most 255 (the Cauchy node
    /// sets live in GF(256) and must stay disjoint).
    pub fn new(group_data: usize, group_parity: usize) -> Result<Self, NetError> {
        if group_data == 0 {
            return Err(NetError::config("FEC group needs at least 1 data fragment"));
        }
        if group_data + group_parity > 255 {
            return Err(NetError::config(format!(
                "FEC group of {group_data}+{group_parity} fragments exceeds GF(256)"
            )));
        }
        Ok(Self {
            group_data,
            group_parity,
        })
    }

    /// FEC disabled: data fragments only.
    pub fn off() -> Self {
        Self {
            group_data: 8,
            group_parity: 0,
        }
    }

    /// The default shape: groups of 8 data fragments, 2 parity each — 25%
    /// overhead, any 2 losses per group repaired.
    pub fn default_on() -> Self {
        Self {
            group_data: 8,
            group_parity: 2,
        }
    }
}

/// Multiplicative inverses of GF(256), built once from the kernel module's
/// field (`inv[0]` is unused and stays 0).
fn inverses() -> &'static [u8; 256] {
    static INVERSES: OnceLock<[u8; 256]> = OnceLock::new();
    INVERSES.get_or_init(|| {
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in a..=255 {
                if gf256_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    inv[b as usize] = a;
                }
            }
        }
        inv
    })
}

/// GF(256) inverse of a non-zero element.
fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse");
    inverses()[a as usize]
}

/// The Cauchy parity rows of one `(K, R)` shape, computed once and shared
/// by every block a [`crate::Packetizer`] / [`crate::Depacketizer`] handles.
///
/// `coef(r, j) = inv(x_r ⊕ y_j)` with `x_r = r` and `y_j = 255 - j`. The
/// node sets are disjoint for any valid [`FecConfig`], so the inverse always
/// exists and every square submatrix of the coefficient matrix is
/// invertible — the property that makes "any ≤R losses" recoverable.
#[derive(Debug, Clone)]
pub(crate) struct CauchyRows {
    k: usize,
    /// Row-major `R × K`.
    coefs: Vec<u8>,
}

impl CauchyRows {
    pub(crate) fn new(k: usize, r: usize) -> Self {
        let coefs = (0..r)
            .flat_map(|row| (0..k).map(move |j| gf_inv((row as u8) ^ (255 - j as u8))))
            .collect();
        Self { k, coefs }
    }

    fn coef(&self, r: usize, j: usize) -> u8 {
        self.coefs[r * self.k + j]
    }

    /// Accumulates each parity row over one group's data fragments:
    /// `parity[r] ^= Σ_j coef(r, j) · data[j]`. The parity buffers arrive
    /// zeroed at the group's longest fragment length; shorter data fragments
    /// count as zero-padded.
    pub(crate) fn encode_into<'a>(
        &self,
        data: impl Iterator<Item = &'a [u8]> + Clone,
        parity: impl Iterator<Item = &'a mut [u8]>,
    ) {
        for (r, p) in parity.enumerate() {
            for (j, frag) in data.clone().enumerate() {
                gf256_mul_acc(&mut p[..frag.len()], self.coef(r, j), frag);
            }
        }
    }

    /// Rebuilds the missing data fragments of one group from views of the
    /// survivors: `data[j]` / `parity[r]` are `None` where lost. Returns the
    /// recovered fragments, each `frag_len` long, in ascending slot order
    /// (empty when nothing was missing).
    ///
    /// Solving `A · x = s` for the missing columns `x`, where row `i` of `A`
    /// holds a surviving parity row's coefficients over the missing slots
    /// and `s_i` is that parity ⊕ the known data's contribution, gives
    /// `x_c = Σ_i A⁻¹[c][i] · s_i` — expanded here so that every survivor is
    /// read once per missing fragment with one combined coefficient, and no
    /// syndrome buffer is ever materialised.
    pub(crate) fn recover(
        &self,
        data: &[Option<&[u8]>],
        parity: &[Option<&[u8]>],
        frag_len: usize,
    ) -> Result<Vec<Vec<u8>>, NetError> {
        let missing: Vec<usize> = (0..data.len()).filter(|&j| data[j].is_none()).collect();
        let m = missing.len();
        if m == 0 {
            return Ok(Vec::new());
        }
        let rows: Vec<usize> = (0..parity.len())
            .filter(|&r| parity[r].is_some())
            .take(m)
            .collect();
        if rows.len() < m {
            return Err(NetError::Unrecoverable {
                missing: m,
                parity: rows.len(),
            });
        }
        let inverse = self.invert_submatrix(&rows, &missing)?;
        Ok((0..m)
            .map(|c| {
                let weights = &inverse[c * m..(c + 1) * m];
                let mut out = vec![0u8; frag_len];
                for (&w, &r) in weights.iter().zip(&rows) {
                    if let Some(p) = parity[r] {
                        let n = p.len().min(frag_len);
                        gf256_mul_acc(&mut out[..n], w, &p[..n]);
                    }
                }
                for (j, frag) in data.iter().enumerate() {
                    if let Some(frag) = frag {
                        let combined = weights
                            .iter()
                            .zip(&rows)
                            .fold(0, |acc, (&w, &r)| acc ^ gf256_mul(w, self.coef(r, j)));
                        let n = frag.len().min(frag_len);
                        gf256_mul_acc(&mut out[..n], combined, &frag[..n]);
                    }
                }
                out
            })
            .collect())
    }

    /// Gauss–Jordan inverse (row-major `M × M`) of the Cauchy submatrix
    /// `rows × cols`. The Cauchy property guarantees a pivot, but a typed
    /// error beats a panic if an impossible state ever arrives.
    fn invert_submatrix(&self, rows: &[usize], cols: &[usize]) -> Result<Vec<u8>, NetError> {
        let m = rows.len();
        // Augmented [A | I], 2M bytes per row.
        let w = 2 * m;
        let mut aug = vec![0u8; m * w];
        for (i, &r) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                aug[i * w + c] = self.coef(r, j);
            }
            aug[i * w + m + i] = 1;
        }
        for col in 0..m {
            let pivot = (col..m)
                .find(|&row| aug[row * w + col] != 0)
                .ok_or(NetError::SingularSystem)?;
            for x in 0..w {
                aug.swap(col * w + x, pivot * w + x);
            }
            let inv = gf_inv(aug[col * w + col]);
            for x in 0..w {
                aug[col * w + x] = gf256_mul(aug[col * w + x], inv);
            }
            for row in 0..m {
                let factor = aug[row * w + col];
                if row != col && factor != 0 {
                    for x in 0..w {
                        aug[row * w + x] ^= gf256_mul(factor, aug[col * w + x]);
                    }
                }
            }
        }
        Ok(aug.chunks(w).flat_map(|row| &row[m..]).copied().collect())
    }
}

/// Encodes `parity_count` parity fragments over one group of data
/// fragments. Fragments shorter than the longest are treated as
/// zero-padded; every parity fragment has the group's maximum length.
pub fn encode_group(data: &[&[u8]], parity_count: usize) -> Vec<Vec<u8>> {
    let frag_len = data.iter().map(|d| d.len()).max().unwrap_or(0);
    let mut parity = vec![vec![0u8; frag_len]; parity_count];
    CauchyRows::new(data.len(), parity_count).encode_into(
        data.iter().copied(),
        parity.iter_mut().map(Vec::as_mut_slice),
    );
    parity
}

/// Recovers the missing data fragments of one group in place.
///
/// `data` holds the group's data slots (`None` = lost); `parity` its
/// parity slots in row order (`None` = lost). Present fragments may be
/// shorter than `frag_len` (the tail fragment) — they are treated as
/// zero-padded; recovered fragments come back at full `frag_len` (callers
/// truncate using the block length). Returns the number of fragments
/// recovered (0 when nothing was missing).
///
/// # Errors
///
/// [`NetError::Unrecoverable`] when more data fragments are missing than
/// parity fragments survive.
pub fn recover_group(
    data: &mut [Option<Vec<u8>>],
    parity: &[Option<Vec<u8>>],
    frag_len: usize,
) -> Result<usize, NetError> {
    let recovered = {
        let data: Vec<Option<&[u8]>> = data.iter().map(Option::as_deref).collect();
        let parity: Vec<Option<&[u8]>> = parity.iter().map(Option::as_deref).collect();
        CauchyRows::new(data.len(), parity.len()).recover(&data, &parity, frag_len)?
    };
    let n = recovered.len();
    let slots = data.iter_mut().filter(|d| d.is_none());
    for (slot, frag) in slots.zip(recovered) {
        *slot = Some(frag);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_bounds() {
        assert!(FecConfig::new(0, 2).is_err());
        assert!(FecConfig::new(250, 10).is_err());
        assert!(FecConfig::new(8, 2).is_ok());
        assert_eq!(FecConfig::off().group_parity, 0);
    }

    #[test]
    fn field_arithmetic_sanity() {
        for a in 1..=255u8 {
            assert_eq!(gf256_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_inv(gf_inv(a)), a, "a={a}");
        }
        assert_eq!(
            gf256_mul(5, 13 ^ 200),
            gf256_mul(5, 13) ^ gf256_mul(5, 200),
            "multiplication distributes over XOR"
        );
    }

    fn group(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|j| {
                (0..len)
                    .map(|i| (seed ^ (j as u8)).wrapping_mul(31).wrapping_add(i as u8))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovers_every_loss_pattern_up_to_r() {
        let k = 5;
        let r = 2;
        let originals = group(k, 40, 0xA5);
        let refs: Vec<&[u8]> = originals.iter().map(|v| v.as_slice()).collect();
        let parity_full = encode_group(&refs, r);
        // Every subset of ≤2 lost data fragments × every subset of lost
        // parity (as long as enough parity survives).
        for lost_a in 0..k {
            for lost_b in lost_a..k {
                let n_lost = if lost_a == lost_b { 1 } else { 2 };
                for lost_parity in 0..=(r - n_lost) {
                    let mut data: Vec<Option<Vec<u8>>> =
                        originals.iter().cloned().map(Some).collect();
                    data[lost_a] = None;
                    data[lost_b] = None;
                    let mut parity: Vec<Option<Vec<u8>>> =
                        parity_full.iter().cloned().map(Some).collect();
                    for p in parity.iter_mut().take(lost_parity) {
                        *p = None;
                    }
                    let n = recover_group(&mut data, &parity, 40).expect("recoverable");
                    assert_eq!(n, n_lost);
                    for (got, want) in data.iter().zip(&originals) {
                        assert_eq!(got.as_ref().expect("present"), want);
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_losses_is_a_typed_error() {
        let originals = group(4, 16, 3);
        let refs: Vec<&[u8]> = originals.iter().map(|v| v.as_slice()).collect();
        let parity: Vec<Option<Vec<u8>>> = encode_group(&refs, 1).into_iter().map(Some).collect();
        let mut data: Vec<Option<Vec<u8>>> = originals.into_iter().map(Some).collect();
        data[0] = None;
        data[2] = None;
        let err = recover_group(&mut data, &parity, 16).expect_err("2 lost, 1 parity");
        assert!(matches!(
            err,
            NetError::Unrecoverable {
                missing: 2,
                parity: 1
            }
        ));
    }

    #[test]
    fn short_tail_fragment_zero_pads() {
        let full = vec![1u8, 2, 3, 4];
        let tail = vec![9u8, 8];
        let parity = encode_group(&[&full, &tail], 1);
        assert_eq!(parity[0].len(), 4);
        let mut data = vec![Some(full.clone()), None];
        let parity: Vec<Option<Vec<u8>>> = parity.into_iter().map(Some).collect();
        recover_group(&mut data, &parity, 4).expect("one loss, one parity");
        let recovered = data[1].take().expect("recovered");
        assert_eq!(&recovered[..2], &tail[..], "true bytes back");
        assert_eq!(&recovered[2..], &[0, 0], "padding is zeros");
    }

    #[test]
    fn r1_decode_is_the_xor_chain_shape() {
        // With one parity row the syndrome solve reduces to scaled XOR of
        // the survivors — sanity-check against a hand XOR in the field.
        let originals = group(3, 8, 7);
        let refs: Vec<&[u8]> = originals.iter().map(|v| v.as_slice()).collect();
        let parity = encode_group(&refs, 1);
        let mut data: Vec<Option<Vec<u8>>> = originals.iter().cloned().map(Some).collect();
        data[1] = None;
        let parity: Vec<Option<Vec<u8>>> = parity.into_iter().map(Some).collect();
        recover_group(&mut data, &parity, 8).expect("recoverable");
        assert_eq!(data[1].as_ref().expect("present"), &originals[1]);
    }
}
