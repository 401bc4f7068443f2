//! Nodes and links of the 3-tier deployment.

/// The canonical name of the edge→cloud WAN hop, shared by the
/// tandem-queue pipeline stages, the live-stage helpers, `sieve-net`'s
/// `wan.*` registry instruments and the bench artifacts — one constant so
/// the stats series and the experiment columns cannot drift apart.
pub const WAN_STAGE: &str = "wan";

/// A compute tier (camera, edge server, cloud server).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name ("edge", "cloud").
    pub name: String,
    /// Relative compute speed: service times measured on the reference
    /// machine are divided by this factor when run on this node.
    pub speed_factor: f64,
}

impl Node {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if `speed_factor` is not positive.
    pub fn new(name: impl Into<String>, speed_factor: f64) -> Self {
        assert!(
            speed_factor > 0.0 && speed_factor.is_finite(),
            "speed factor must be positive"
        );
        Self {
            name: name.into(),
            speed_factor,
        }
    }

    /// Adjusts a reference-machine service time for this node.
    pub fn service_secs(&self, reference_secs: f64) -> f64 {
        reference_secs / self.speed_factor
    }
}

/// A network link between two tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Human-readable name ("edge->cloud").
    pub name: String,
    /// Usable bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds added to every transfer.
    pub latency_secs: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive or latency is negative.
    pub fn new(name: impl Into<String>, bandwidth_bps: f64, latency_secs: f64) -> Self {
        assert!(
            bandwidth_bps > 0.0 && bandwidth_bps.is_finite(),
            "bandwidth must be positive"
        );
        assert!(latency_secs >= 0.0, "latency must be non-negative");
        Self {
            name: name.into(),
            bandwidth_bps,
            latency_secs,
        }
    }

    /// The paper's 30 Mbps edge→cloud WAN with 20 ms latency.
    pub fn paper_wan() -> Self {
        Self::new("edge->cloud", 30.0e6, 0.02)
    }

    /// A camera→edge LAN: 100 Mbps, 2 ms.
    pub fn camera_lan() -> Self {
        Self::new("camera->edge", 100.0e6, 0.002)
    }

    /// Time to push `bytes` through the link.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / self.bandwidth_bps + self.latency_secs
    }
}

/// The paper's 3-tier topology: camera, edge desktop, cloud server.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreeTier {
    /// The camera node (negligible compute; encodes in hardware).
    pub camera: Node,
    /// The edge server.
    pub edge: Node,
    /// The cloud server.
    pub cloud: Node,
    /// Camera-to-edge link.
    pub camera_edge: Link,
    /// Edge-to-cloud link.
    pub edge_cloud: Link,
}

impl ThreeTier {
    /// The paper's testbed shape: the edge is the reference machine (speed
    /// 1.0), the cloud's Xeon is modelled ~2x faster for NN work, and the
    /// WAN is shaped to 30 Mbps.
    pub fn paper_default() -> Self {
        Self {
            camera: Node::new("camera", 0.25),
            edge: Node::new("edge", 1.0),
            cloud: Node::new("cloud", 2.0),
            camera_edge: Link::camera_lan(),
            edge_cloud: Link::paper_wan(),
        }
    }
}

impl Default for ThreeTier {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_scales_service_time() {
        let n = Node::new("cloud", 2.0);
        assert!((n.service_secs(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn node_rejects_zero_speed() {
        let _ = Node::new("x", 0.0);
    }

    #[test]
    fn link_transfer_time() {
        let l = Link::new("test", 8e6, 0.01); // 1 MB/s
        let t = l.transfer_secs(1_000_000);
        assert!((t - 1.01).abs() < 1e-9);
    }

    #[test]
    fn paper_wan_is_30mbps() {
        let l = Link::paper_wan();
        // 30 Mbit/s -> 3.75 MB/s; 3.75 MB should take ~1s + latency.
        let t = l.transfer_secs(3_750_000);
        assert!((t - 1.02).abs() < 1e-9);
    }

    #[test]
    fn three_tier_default_shape() {
        let t = ThreeTier::paper_default();
        assert!(t.cloud.speed_factor > t.edge.speed_factor);
        assert!(t.camera_edge.bandwidth_bps > t.edge_cloud.bandwidth_bps);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn link_rejects_negative_latency() {
        let _ = Link::new("x", 1.0, -0.1);
    }
}
