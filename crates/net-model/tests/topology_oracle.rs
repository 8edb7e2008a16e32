//! The flat-topology oracle (ISSUE 10 satellite): `Flat` must price
//! every `(src, dst, size)` byte-identically to the legacy size-only
//! models, and the per-class `min_transit` matrix must generalise the
//! size-infimum sweep of `network.rs` to endpoint pairs. These
//! properties are what let the topology refactor pin every pre-v7
//! BENCH digest: a flat run and a legacy run are the *same* run. The
//! engine prices every message through a [`CostCache`] over a topology
//! (a flat one when none is configured), so the cached path is checked
//! against the bare model too.

use net_model::{CostCache, LinkClass, MxModel, NetworkModel, TcpModel, Topology, TopologyKind};
use proptest::prelude::*;
use std::sync::Arc;

/// A random rank → cluster assignment for `n_ranks` ranks over at most
/// `max_clusters` clusters (clusters may be empty / non-contiguous —
/// the topology must not care).
fn arb_assignment(n_ranks: usize, max_clusters: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..max_clusters, n_ranks)
}

fn base_models() -> Vec<Arc<dyn NetworkModel>> {
    vec![Arc::new(MxModel::default()), Arc::new(TcpModel::default())]
}

/// The size sweep from `network.rs::min_transit_is_the_infimum_over_sizes`,
/// crossing every MX plateau boundary and the rendezvous threshold.
fn size_sweep() -> Vec<u64> {
    (0..26)
        .map(|i| 1u64 << i)
        .chain([0, 32, 33, 1024, 1025, 4096, 4097, 32 * 1024 + 1])
        .collect()
}

proptest! {
    /// Flat prices every (src, dst, size) exactly as the size-only model.
    #[test]
    fn flat_is_a_byte_identical_oracle_of_the_legacy_models(
        assignment in arb_assignment(24, 8),
        pairs in prop::collection::vec((0u32..24, 0u32..24), 1..16),
        sizes in prop::collection::vec(0u64..(1 << 22), 1..8),
    ) {
        for base in base_models() {
            let topo = Topology::flat(base.clone(), assignment.clone());
            for &(s, d) in &pairs {
                for &w in &sizes {
                    prop_assert_eq!(
                        topo.cost(s, d, w),
                        base.cost(w),
                        "flat({}, {}, {}) diverged from {}", s, d, w, base.name()
                    );
                    prop_assert_eq!(topo.link_class(s, d), LinkClass::LOCAL);
                }
            }
            prop_assert_eq!(topo.n_classes(), 1);
        }
    }

    /// The engine's pricing path — a link class looked up per rank pair,
    /// then a memoized class price — is the bare model on a flat
    /// topology, on first sight of a size and on every cache hit after.
    #[test]
    fn flat_cost_cache_prices_as_the_base_model(
        assignment in arb_assignment(24, 8),
        sends in prop::collection::vec((0u32..24, 0u32..24, 0u64..(1 << 22)), 1..32),
    ) {
        for base in base_models() {
            let topo = Topology::flat(base.clone(), assignment.clone());
            let mut cache = CostCache::new();
            for _pass in 0..2 {
                for &(s, d, w) in &sends {
                    let class = topo.link_class(s, d);
                    prop_assert_eq!(cache.price_class(&topo, class, w), base.cost(w));
                }
            }
        }
    }

    /// The pairwise generalisation of the lookahead infimum: for every
    /// topology, every rank pair and every size, the priced transit never
    /// undercuts the pair's class lower bound, and the matrix entry is
    /// attained at zero bytes.
    #[test]
    fn min_transit_matrix_is_the_pairwise_infimum(
        assignment in arb_assignment(16, 6),
        kind_sel in 0u8..4,
    ) {
        let kind = match kind_sel {
            0 => TopologyKind::Flat,
            1 => TopologyKind::TwoLevel,
            2 => TopologyKind::FatTree { k: 2 },
            _ => TopologyKind::Dragonfly { g: 2 },
        };
        for base in base_models() {
            let topo = Topology::new(kind, base.clone(), assignment.clone());
            let matrix = topo.min_transit_matrix();
            prop_assert_eq!(matrix.len(), topo.n_classes() as usize);
            for s in 0..16u32 {
                for d in 0..16u32 {
                    let class = topo.link_class(s, d);
                    let floor = matrix[class.0 as usize];
                    prop_assert_eq!(topo.cluster_min_transit(
                        topo.cluster_of(s), topo.cluster_of(d)), floor);
                    for &w in &size_sweep() {
                        prop_assert!(
                            topo.cost(s, d, w).transit >= floor,
                            "{:?} transit({}, {}, {}) undercuts class {} floor",
                            kind, s, d, w, class.0
                        );
                    }
                }
            }
            // Classes are ordered: farther links never price below nearer
            // ones, so the global infimum is the legacy scalar min_transit.
            for pair in matrix.windows(2) {
                prop_assert!(pair[0] <= pair[1]);
            }
            prop_assert_eq!(matrix[0], base.min_transit());
        }
    }
}
