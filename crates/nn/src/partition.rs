//! Neurosurgeon-style layer partitioning across edge and cloud.
//!
//! The paper's NN-deployment service either places all layers on one tier or
//! splits the network: the edge runs a prefix, ships the intermediate
//! activation over the WAN, and the cloud runs the suffix. The best split
//! minimizes `edge_compute + transfer + cloud_compute` per frame, exactly the
//! latency model of Kang et al.'s Neurosurgeon (reference \[8\] in the paper).

use crate::model::Sequential;

/// Where the network's layers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// All layers on the edge; only the final labels go to the cloud.
    EdgeOnly,
    /// All layers in the cloud; the (resized) frame goes over the WAN.
    CloudOnly,
    /// Layers `0..split` on the edge, `split..` in the cloud.
    Split(usize),
}

/// Capability description of the two tiers and the link between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Edge compute throughput in FLOP/s.
    pub edge_flops_per_sec: f64,
    /// Cloud compute throughput in FLOP/s.
    pub cloud_flops_per_sec: f64,
    /// Edge-to-cloud bandwidth in bytes/s.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way network latency in seconds added to any transfer.
    pub link_latency_secs: f64,
}

impl TierSpec {
    /// The paper's testbed shape: a desktop-class edge, a faster cloud
    /// server, and a 30 Mbps WAN.
    pub fn paper_default() -> Self {
        Self {
            edge_flops_per_sec: 2.0e9,
            cloud_flops_per_sec: 8.0e9,
            bandwidth_bytes_per_sec: 30.0e6 / 8.0,
            link_latency_secs: 0.02,
        }
    }
}

/// Latency breakdown of one candidate split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCost {
    /// Layers `0..split` run on the edge.
    pub split: usize,
    /// Edge compute seconds per frame.
    pub edge_secs: f64,
    /// Transfer seconds per frame (activation bytes / bandwidth + latency).
    pub transfer_secs: f64,
    /// Cloud compute seconds per frame.
    pub cloud_secs: f64,
    /// Bytes crossing the WAN per frame.
    pub transfer_bytes: usize,
}

impl SplitCost {
    /// Total per-frame latency.
    pub fn total_secs(&self) -> f64 {
        self.edge_secs + self.transfer_secs + self.cloud_secs
    }
}

/// Evaluates every split point of `model` for `input_shape` under `tiers`.
///
/// Split 0 is cloud-only (the input itself is shipped); split `len` is
/// edge-only (only the final activation is shipped).
pub fn split_costs(model: &Sequential, input_shape: &[usize], tiers: &TierSpec) -> Vec<SplitCost> {
    let flops = model.layer_flops(input_shape);
    let act_bytes = model.activation_bytes(input_shape);
    let mut out = Vec::with_capacity(model.len() + 1);
    for split in 0..=model.len() {
        let edge_flops: u64 = flops[..split].iter().sum();
        let cloud_flops: u64 = flops[split..].iter().sum();
        let transfer_bytes = act_bytes[split];
        out.push(SplitCost {
            split,
            edge_secs: edge_flops as f64 / tiers.edge_flops_per_sec,
            transfer_secs: transfer_bytes as f64 / tiers.bandwidth_bytes_per_sec
                + tiers.link_latency_secs,
            cloud_secs: cloud_flops as f64 / tiers.cloud_flops_per_sec,
            transfer_bytes,
        })
    }
    out
}

/// Picks the split with the lowest total latency.
pub fn best_split(model: &Sequential, input_shape: &[usize], tiers: &TierSpec) -> SplitCost {
    split_costs(model, input_shape, tiers)
        .into_iter()
        .min_by(|a, b| {
            a.total_secs()
                .partial_cmp(&b.total_secs())
                .expect("latencies are finite")
        })
        .expect("a model always has at least the trivial splits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};

    fn model() -> Sequential {
        Sequential::new()
            .push(Box::new(Conv2d::new(3, 8, 3, 1)))
            .push(Box::new(Relu::new()))
            .push(Box::new(MaxPool2::new()))
            .push(Box::new(Conv2d::new(8, 16, 3, 2)))
            .push(Box::new(Relu::new()))
            .push(Box::new(MaxPool2::new()))
            .push(Box::new(Flatten::new()))
            .push(Box::new(Dense::new(16 * 8 * 8, 5, 3)))
    }

    const INPUT: [usize; 3] = [3, 32, 32];

    #[test]
    fn split_costs_cover_all_points() {
        let m = model();
        let costs = split_costs(&m, &INPUT, &TierSpec::paper_default());
        assert_eq!(costs.len(), m.len() + 1);
        // Split 0: no edge compute; split len: no cloud compute.
        assert_eq!(costs[0].edge_secs, 0.0);
        assert_eq!(costs[m.len()].cloud_secs, 0.0);
    }

    #[test]
    fn compute_is_conserved_across_splits() {
        let m = model();
        let tiers = TierSpec {
            edge_flops_per_sec: 1.0,
            cloud_flops_per_sec: 1.0,
            bandwidth_bytes_per_sec: 1.0,
            link_latency_secs: 0.0,
        };
        let costs = split_costs(&m, &INPUT, &tiers);
        let total = m.total_flops(&INPUT) as f64;
        for c in &costs {
            assert!(
                (c.edge_secs + c.cloud_secs - total).abs() < 1e-6,
                "edge+cloud compute must equal total FLOPs at unit speed"
            );
        }
    }

    #[test]
    fn transfer_bytes_shrink_after_pooling() {
        let m = model();
        let costs = split_costs(&m, &INPUT, &TierSpec::paper_default());
        // After the second pool (layer 6 boundary) activations are smaller
        // than the raw input.
        assert!(costs[6].transfer_bytes < costs[0].transfer_bytes);
    }

    #[test]
    fn slow_network_pushes_split_deeper() {
        let m = model();
        let fast_net = TierSpec {
            bandwidth_bytes_per_sec: 1e9,
            ..TierSpec::paper_default()
        };
        let slow_net = TierSpec {
            bandwidth_bytes_per_sec: 1e4,
            ..TierSpec::paper_default()
        };
        let fast = best_split(&m, &INPUT, &fast_net);
        let slow = best_split(&m, &INPUT, &slow_net);
        assert!(
            slow.split >= fast.split,
            "a slower WAN should never move the split earlier (fast {} vs slow {})",
            fast.split,
            slow.split
        );
        // On a very slow network, ship as little as possible.
        let bytes = m.activation_bytes(&INPUT);
        let min_bytes = bytes.iter().min().unwrap();
        assert_eq!(slow.transfer_bytes, *min_bytes);
    }

    #[test]
    fn infinite_cloud_speed_prefers_early_split() {
        let m = model();
        let tiers = TierSpec {
            edge_flops_per_sec: 1e6, // very weak edge
            cloud_flops_per_sec: 1e15,
            bandwidth_bytes_per_sec: 1e9,
            link_latency_secs: 0.0,
        };
        let best = best_split(&m, &INPUT, &tiers);
        assert_eq!(best.split, 0, "weak edge + fast net = run all in cloud");
    }

    #[test]
    fn total_is_sum_of_parts() {
        let m = model();
        let c = best_split(&m, &INPUT, &TierSpec::paper_default());
        assert!((c.total_secs() - (c.edge_secs + c.transfer_secs + c.cloud_secs)).abs() < 1e-12);
    }
}
