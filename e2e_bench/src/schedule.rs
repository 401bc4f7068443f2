//! The open-loop arrival schedule and the per-stream pre-roll, both pure
//! functions of `(seed, rate, streams)`.
//!
//! Frames are numbered globally `k = r·S + s` (round `r`, stream `s` of
//! `S`); frame `k` is due `k / rate` seconds after the phase starts, so
//! every stream runs at `rate / S` fps and the streams are interleaved
//! evenly inside a round.
//!
//! Every stream starts on an I-frame, and GOPs are regular, so without
//! further care all cameras would hit their I-frames in the same round — a
//! burst no fleet of free-running cameras produces. Before a phase is
//! timed, stream `s` is therefore *pre-rolled* by [`lead_frames`] frames
//! (a golden-ratio phase of its tape's GOP), which also warms decoders and
//! rate controllers.

/// Fractional part of `(s + 1)·φ` shifted by a seed-derived offset.
fn phase(seed: u64, s: usize) -> f64 {
    const PHI: f64 = 0.618_033_988_749_895;
    // SplitMix64 finalizer: the seed's low bits alone must move the offset.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let offset = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
    ((s + 1) as f64 * PHI + offset).fract()
}

/// Frames stream `s` is pre-rolled by: its golden-ratio phase of `gop`.
pub fn lead_frames(seed: u64, s: usize, gop: usize) -> usize {
    (phase(seed, s) * gop as f64) as usize
}

/// The open-loop schedule of one paced phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub streams: usize,
    pub rate_fps: f64,
    /// Frames offered in total (whole rounds).
    pub total: u64,
}

impl Schedule {
    /// `seconds` of arrivals at `rate_fps` across `streams`, rounded down to
    /// whole rounds (at least one).
    pub fn new(rate_fps: f64, streams: usize, seconds: f64) -> Self {
        let rounds = ((rate_fps * seconds) as u64 / streams as u64).max(1);
        Self {
            streams,
            rate_fps,
            total: rounds * streams as u64,
        }
    }

    /// Nanoseconds after the phase start at which global frame `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        (k as f64 * 1e9 / self.rate_fps) as u64
    }

    /// `(stream, round)` of global frame `k`.
    pub fn slot(&self, k: u64) -> (usize, usize) {
        (
            (k % self.streams as u64) as usize,
            (k / self.streams as u64) as usize,
        )
    }

    /// How many frames are due at or before `elapsed_ns` (capped at
    /// `total`).
    pub fn due_count(&self, elapsed_ns: u64) -> u64 {
        let mut n = ((elapsed_ns as f64 * self.rate_fps / 1e9) as u64 + 1).min(self.total);
        // Float rounding may be off by one frame either way; `due_ns` is
        // the schedule, so settle against it: never early, never a tick
        // late.
        while n > 0 && self.due_ns(n - 1) > elapsed_ns {
            n -= 1;
        }
        while n < self.total && self.due_ns(n) <= elapsed_ns {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_rate_streams() {
        let a = Schedule::new(60_000.0, 64, 1.5);
        let b = Schedule::new(60_000.0, 64, 1.5);
        assert_eq!(a, b);
        assert_eq!(a.total % 64, 0);
        for k in [0u64, 1, 63, 64, 65, 9_999] {
            assert_eq!(a.due_ns(k), b.due_ns(k));
            assert_eq!(a.slot(k), ((k % 64) as usize, (k / 64) as usize));
        }
        let leads = |seed| {
            (0..64)
                .map(|s| lead_frames(seed, s, 120))
                .collect::<Vec<_>>()
        };
        assert_eq!(leads(7), leads(7));
        assert_ne!(leads(7), leads(8), "the seed moves the tape offsets");
        assert!(leads(7).iter().all(|&l| l < 120));
    }

    #[test]
    fn frames_are_never_offered_before_they_are_due() {
        let s = Schedule::new(3_000.0, 64, 2.0);
        assert_eq!(s.due_count(0), 1, "frame 0 is due at the start");
        for elapsed in [1u64, 333_333, 333_334, 1_000_000, 999_999_999] {
            let n = s.due_count(elapsed);
            assert!(n >= 1 && s.due_ns(n - 1) <= elapsed);
            assert!(n == s.total || s.due_ns(n) > elapsed);
        }
        assert_eq!(s.due_count(u64::MAX / 2), s.total);
    }

    #[test]
    fn leads_spread_over_the_gop() {
        let mut leads: Vec<usize> = (0..64).map(|s| lead_frames(1, s, 60)).collect();
        leads.sort_unstable();
        // Golden-ratio phases are low-discrepancy: every sixth of the GOP
        // holds some stream.
        for bin in 0..6 {
            assert!(leads.iter().any(|&l| l / 10 == bin), "bin {bin} empty");
        }
    }
}
