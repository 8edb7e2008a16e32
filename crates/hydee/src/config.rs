//! HydEE protocol configuration.

use det_sim::SimDuration;
use mps_sim::{CheckpointPolicyConfig, ClusterMap};
use net_model::StableStorage;

/// Configuration of a HydEE instance. Piggybacking and the sender-log
/// copy use the `net_model` defaults ([`net_model::PiggybackPolicy`],
/// [`net_model::MemcpyModel`]).
#[derive(Debug, Clone)]
pub struct HydeeConfig {
    /// Process clustering (coordinated checkpointing inside, logging
    /// between).
    pub clusters: ClusterMap,
    /// Stable storage for checkpoints.
    pub storage: StableStorage,
    /// When each cluster checkpoints (DESIGN.md §2.4). The implicit
    /// initial checkpoint at t=0 is always taken; `Disabled` (the
    /// default, for failure-free overhead runs) schedules no others.
    pub checkpoint_policy: CheckpointPolicyConfig,
    /// Garbage-collect logs/RPP on checkpoint acknowledgements (§III-E).
    pub gc: bool,
    /// Per-rank process image size written at each checkpoint (the
    /// application memory footprint stand-in).
    pub image_bytes: u64,
    /// Fixed restart latency (process respawn) added to checkpoint read
    /// time at rollback.
    pub restart_latency: SimDuration,
}

impl HydeeConfig {
    /// Defaults tuned for the paper's setting: no periodic checkpoints
    /// (failure-free measurement mode), GC on, 64 MiB images.
    pub fn new(clusters: ClusterMap) -> Self {
        HydeeConfig {
            clusters,
            storage: StableStorage::default(),
            checkpoint_policy: CheckpointPolicyConfig::Disabled,
            gc: true,
            image_bytes: 64 << 20,
            restart_latency: SimDuration::from_ms(10),
        }
    }

    /// Schedule checkpoints with `policy`.
    pub fn with_policy(mut self, policy: CheckpointPolicyConfig) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Override the per-rank image size.
    pub fn with_image_bytes(mut self, bytes: u64) -> Self {
        self.image_bytes = bytes;
        self
    }

    /// Disable garbage collection (for log-growth experiments).
    pub fn without_gc(mut self) -> Self {
        self.gc = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let policy = CheckpointPolicyConfig::Periodic {
            interval: SimDuration::from_ms(500),
            first: None,
            stagger: None,
        };
        let cfg = HydeeConfig::new(ClusterMap::blocks(8, 2));
        assert_eq!(cfg.checkpoint_policy, CheckpointPolicyConfig::Disabled);
        let cfg = cfg
            .with_policy(policy)
            .with_image_bytes(1 << 20)
            .without_gc();
        assert_eq!(cfg.checkpoint_policy, policy);
        assert_eq!(cfg.image_bytes, 1 << 20);
        assert!(!cfg.gc);
        assert_eq!(cfg.clusters.n_clusters(), 2);
    }
}
