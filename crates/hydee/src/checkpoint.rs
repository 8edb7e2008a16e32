//! Cluster-coordinated checkpoints.
//!
//! A checkpoint of cluster `c` is a consistent cut of its members: each
//! member's execution snapshot (engine state) and protocol state
//! (Algorithm 1 line 21: image, RPP, Logs, Phase, Date) plus the
//! Chandy-Lamport channel state — intra-cluster messages in flight at the
//! cut, which are re-injected on rollback.
//!
//! Coordinated checkpointing guarantees the cut is consistent *within* the
//! cluster; inter-cluster channels are not captured — that is exactly what
//! sender-based logging covers.
//!
//! Per-member state is held in `Vec`s in member order (the order of
//! `ClusterMap::members`), and each checkpoint of a cluster is written
//! over the previous one: the engine snapshots through
//! `Ctx::capture_rank_into`, the protocol states through
//! [`HydeeState::checkpoint_into`], the channel state through
//! `Ctx::capture_inflight_into`. Every buffer is reused, so a steady-state
//! checkpoint allocates nothing for the state it saves (DESIGN.md §2.1).

use crate::state::HydeeState;
use det_sim::SimTime;
use mps_sim::{InFlightMsg, RankSnapshot};

/// One cluster's saved state.
#[derive(Debug, Default)]
pub struct ClusterCheckpoint {
    pub taken_at: SimTime,
    /// Engine snapshot per member, in member order.
    pub snaps: Vec<RankSnapshot>,
    /// Protocol state per member, in member order (persistent fields
    /// only).
    pub states: Vec<HydeeState>,
    /// Intra-cluster channel state at the cut.
    pub inflight: Vec<InFlightMsg>,
    /// Total bytes written to stable storage for this checkpoint.
    pub bytes: u64,
}

impl ClusterCheckpoint {
    /// Bytes attributable to the `idx`-th member (in member order): a
    /// uniform split with the remainder spread one byte each
    /// over the first `bytes % n` members, so the shares always sum to
    /// exactly [`ClusterCheckpoint::bytes`] (conservation-tested). The
    /// old truncating `bytes / n` under-counted the checkpoint by up to
    /// `n - 1` bytes when summed back.
    ///
    /// Not on the pricing path: `net_model::StorageLedger` prices
    /// checkpoint writes and restart reads by the *batch total*, which
    /// is what eliminated the under-count. This is the canonical
    /// per-member attribution for any consumer that does need a split
    /// (instrumentation, per-member accounting).
    pub fn member_share(&self, idx: usize) -> u64 {
        split_share(self.bytes, self.snaps.len(), idx)
    }
}

/// The share arithmetic of [`ClusterCheckpoint::member_share`]: uniform
/// split, remainder spread one byte each over the first `bytes % n`
/// members, so shares conserve the total.
pub fn split_share(bytes: u64, n_members: usize, idx: usize) -> u64 {
    let n = n_members.max(1) as u64;
    bytes / n + u64::from((idx as u64) < bytes % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_conserve_total() {
        for n in [1usize, 2, 3, 7, 16, 61] {
            for bytes in [0u64, 1, 16, 1_000_003, (64 << 20) + 17] {
                let shares: Vec<u64> = (0..n).map(|i| split_share(bytes, n, i)).collect();
                assert_eq!(
                    shares.iter().sum::<u64>(),
                    bytes,
                    "n={n} bytes={bytes}: shares must conserve the total"
                );
                let spread = shares.iter().max().unwrap() - shares.iter().min().unwrap();
                assert!(
                    spread <= 1,
                    "n={n} bytes={bytes}: shares as even as possible"
                );
                // Regression: the old truncating `bytes / n` under-counted
                // by the full remainder when summed back.
                assert!(bytes - (bytes / n as u64) * n as u64 <= (n - 1) as u64);
            }
        }
    }
}
