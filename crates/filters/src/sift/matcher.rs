//! Descriptor matching with Lowe's ratio test.

use super::descriptor::Descriptor;

/// Lowe ratio: a match is accepted when the best distance is below `RATIO`
/// times the second-best distance.
const RATIO: f32 = 0.8;

/// A correspondence between descriptor `from` in the previous frame and
/// descriptor `to` in the current frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Match {
    /// Index into the previous frame's descriptors.
    pub from: usize,
    /// Index into the current frame's descriptors.
    pub to: usize,
}

/// Brute-force nearest-neighbour matching from `prev` to `cur` with the
/// ratio test.
fn match_descriptors(prev: &[Descriptor], cur: &[Descriptor]) -> Vec<Match> {
    let mut matches = Vec::new();
    if cur.is_empty() {
        return matches;
    }
    for (i, d) in prev.iter().enumerate() {
        let mut best = f32::INFINITY;
        let mut second = f32::INFINITY;
        let mut best_j = 0usize;
        for (j, c) in cur.iter().enumerate() {
            let dist = d.distance_sq(c);
            if dist < best {
                second = best;
                best = dist;
                best_j = j;
            } else if dist < second {
                second = dist;
            }
        }
        // Ratio test on squared distances: ratio^2.
        if cur.len() == 1 || best < RATIO * RATIO * second {
            matches.push(Match {
                from: i,
                to: best_j,
            });
        }
    }
    matches
}

/// The SIFT change score between two frames' descriptor sets: the fraction
/// of previous-frame keypoints that *fail* to find a match. 0 means every
/// feature persisted (same scene); 1 means nothing matched (new scene).
pub fn change_score(prev: &[Descriptor], cur: &[Descriptor]) -> f64 {
    if prev.is_empty() {
        // No structure before: a change is only detectable if structure
        // appeared.
        return if cur.is_empty() { 0.0 } else { 1.0 };
    }
    let matched = match_descriptors(prev, cur).len();
    1.0 - matched as f64 / prev.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sift::keypoint::Keypoint;

    fn desc(seed: u64) -> Descriptor {
        let mut values = [0f32; 128];
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for v in values.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        }
        let norm: f32 = values.iter().map(|x| x * x).sum::<f32>().sqrt();
        for v in values.iter_mut() {
            *v /= norm;
        }
        Descriptor {
            keypoint: Keypoint {
                x: 0.0,
                y: 0.0,
                octave: 0,
                level: 1,
                ox: 0,
                oy: 0,
                response: 1.0,
            },
            values,
        }
    }

    #[test]
    fn identical_sets_fully_match() {
        let set: Vec<Descriptor> = (0..10).map(desc).collect();
        let m = match_descriptors(&set, &set);
        assert_eq!(m.len(), 10);
        for mm in &m {
            assert_eq!(mm.from, mm.to, "each descriptor matches itself");
        }
        assert_eq!(change_score(&set, &set), 0.0);
    }

    #[test]
    fn disjoint_sets_do_not_match() {
        let a: Vec<Descriptor> = (0..8).map(desc).collect();
        let b: Vec<Descriptor> = (100..108).map(desc).collect();
        let score = change_score(&a, &b);
        assert!(
            score > 0.5,
            "random descriptors should rarely match: {score}"
        );
    }

    #[test]
    fn empty_prev_scores_by_cur_presence() {
        let b: Vec<Descriptor> = (0..3).map(desc).collect();
        assert_eq!(change_score(&[], &b), 1.0);
        assert_eq!(change_score(&[], &[]), 0.0);
    }

    #[test]
    fn empty_cur_scores_one() {
        let a: Vec<Descriptor> = (0..3).map(desc).collect();
        assert_eq!(change_score(&a, &[]), 1.0);
    }

    #[test]
    fn partial_overlap_partial_score() {
        let shared: Vec<Descriptor> = (0..5).map(desc).collect();
        let mut cur = shared.clone();
        cur.extend((200..203).map(desc));
        let mut prev = shared;
        prev.extend((300..305).map(desc));
        let score = change_score(&prev, &cur);
        assert!(
            score > 0.2 && score < 0.9,
            "expected partial score, got {score}"
        );
    }

    #[test]
    fn ratio_test_rejects_ambiguous() {
        // Two nearly identical candidates in cur: the ratio test should
        // reject the match as ambiguous.
        let a = vec![desc(1)];
        let mut c1 = desc(1);
        c1.values[0] += 0.01;
        let mut c2 = desc(1);
        c2.values[0] += 0.012;
        let cur = vec![c1, c2];
        let m = match_descriptors(&a, &cur);
        assert!(m.is_empty(), "ambiguous match must be rejected");
    }
}
