//! Process-clustering partitioners.
//!
//! Reimplementation of the role of Ropars et al.'s clustering tool \[28\]:
//! find a partition of the ranks into `k` clusters that keeps clusters
//! small (bounding rollback) while minimising the inter-cluster traffic
//! (bounding logged bytes).
//!
//! Two phases:
//!
//! 1. **Greedy agglomeration** — start from singletons, repeatedly merge
//!    the pair of clusters with the heaviest connecting traffic, subject
//!    to a maximum cluster size, until `k` clusters remain. A lazily
//!    invalidated max-heap over the sparse graph's edges finds each pair
//!    (O((E + merges × degree) log E), not a rescan of every pair).
//! 2. **Kernighan–Lin-style refinement** — move individual ranks between
//!    clusters whenever that strictly reduces the edge cut and respects
//!    the size bound.
//!
//! Both phases are deterministic (ties break toward smaller indices).

use crate::graph::{sort_and_merge, CommGraph};
use mps_sim::{ClusterMap, Rank};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Partitioning constraints.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Target number of clusters.
    pub k: usize,
    /// Maximum ranks per cluster (`None` = unbounded, i.e. `n`).
    pub max_cluster_size: Option<usize>,
    /// Refinement passes over all ranks.
    pub refine_passes: usize,
}

impl PartitionConfig {
    pub fn with_k(k: usize) -> Self {
        PartitionConfig {
            k,
            max_cluster_size: None,
            refine_passes: 4,
        }
    }

    /// Balanced clusters: cap at `ceil(n/k) * slack_num/slack_den`.
    pub fn balanced(k: usize, n: usize) -> Self {
        PartitionConfig {
            k,
            max_cluster_size: Some((n.div_ceil(k) * 5).div_ceil(4)),
            refine_passes: 4,
        }
    }
}

/// Partition `graph` into `cfg.k` clusters.
///
/// # Panics
/// Panics if `k` is 0 or exceeds the rank count, if the size bound
/// makes `k` clusters infeasible, or if the graph has more than
/// 2²¹ − 1 ranks.
pub fn partition(graph: &CommGraph, cfg: &PartitionConfig) -> ClusterMap {
    let n = graph.n_ranks();
    assert!(cfg.k >= 1 && cfg.k <= n, "need 1 <= k <= n");
    assert!(
        n <= MAX_RANKS,
        "partition supports at most {MAX_RANKS} ranks"
    );
    let max_size = cfg.max_cluster_size.unwrap_or(n);
    assert!(
        max_size * cfg.k >= n,
        "size bound {max_size} x {k} clusters cannot hold {n} ranks",
        k = cfg.k
    );
    let assignment = greedy_agglomerate(graph, cfg.k, max_size);
    refine(graph, assignment, cfg.refine_passes, max_size)
}

/// Up to `passes` refinement passes over a greedy assignment, then dense
/// cluster ids.
fn refine(
    graph: &CommGraph,
    mut assignment: Vec<u32>,
    passes: usize,
    max_size: usize,
) -> ClusterMap {
    for _ in 0..passes {
        if !refine_once(graph, &mut assignment, max_size) {
            break;
        }
    }
    ClusterMap::new(compact_ids(assignment))
}

/// Greedy agglomeration down to `k` clusters.
///
/// Each step merges the feasible pair of live clusters (merged size at
/// most `max_size`; zero-weight pairs count) with the largest connecting
/// weight, then the smallest merged size, then the smallest ids `a < b`.
/// Merging `b` into `a` keeps id `a`, so a cluster's id is its smallest
/// member rank. While some feasible pair has positive weight, a max-heap
/// of candidate edges finds it. An entry is current while both ends are
/// alive and its merged size still holds: sizes only grow, so an
/// unchanged sum means neither end merged since the push, and the weight
/// is unchanged too. Stale entries are dropped on pop, or in a linear
/// sweep whenever the heap has grown by half. Once no feasible
/// positive pair is left (an infeasible pair never becomes feasible
/// again), every feasible pair weighs zero and the pair is the two
/// smallest `(size, id)` clusters.
fn greedy_agglomerate(graph: &CommGraph, k: usize, max_size: usize) -> Vec<u32> {
    let n = graph.n_ranks();
    let mut members = Members::singletons(n);
    // Inter-cluster weights, one row per cluster, ascending by neighbour.
    // A row may keep entries of dead clusters; they are skipped.
    let mut rows: Vec<Vec<(u32, u64)>> = (0..n).map(|r| graph.row(r).to_vec()).collect();
    // Max-heap of (weight, Reverse(packed (merged size, a, b))), a < b.
    // Every edge starts feasible: a size bound below 2 forces k = n.
    let mut heap: BinaryHeap<(u64, Reverse<u64>)> = rows
        .iter()
        .enumerate()
        .flat_map(|(a, row)| {
            row.iter()
                .filter(move |e| e.0 as usize > a)
                .map(move |&(b, w)| (w, Reverse(pack(2, a, b as usize))))
        })
        .collect();
    let mut compacted_len = heap.len();
    let mut n_clusters = n;

    // Positive-weight merges, heaviest first.
    while n_clusters > k {
        let Some((_, Reverse(key))) = heap.pop() else {
            break;
        };
        if !members.is_current(key) {
            continue;
        }
        let (_, a, b) = unpack(key);
        members.absorb(a, b);
        // Rename b to a in b's neighbours' rows, and fold b's row into a's.
        let row_b = std::mem::take(&mut rows[b]);
        for &(j, wj) in &row_b {
            let j = j as usize;
            if j == a || members.size[j] == 0 {
                continue;
            }
            let row_j = &mut rows[j];
            match row_j.binary_search_by_key(&(a as u32), |e| e.0) {
                Ok(i) => row_j[i].1 += wj,
                Err(i) => row_j.insert(i, (a as u32, wj)),
            }
        }
        let row = &mut rows[a];
        row.extend(row_b.into_iter().filter(|e| e.0 as usize != a));
        row.retain(|e| members.size[e.0 as usize] > 0);
        sort_and_merge(row);
        for &(j, wj) in &rows[a] {
            let j = j as usize;
            let merged = members.size[a] + members.size[j];
            if merged <= max_size {
                heap.push((wj, Reverse(pack(merged, a.min(j), a.max(j)))));
            }
        }
        n_clusters -= 1;
        // Once the heap has grown by half since the last sweep, drop its
        // stale entries in one linear pass: far cheaper than popping each
        // (O(log heap) cache misses), and amortised O(1) per push.
        if 2 * heap.len() > 3 * compacted_len {
            heap.retain(|&(_, Reverse(key))| members.is_current(key));
            compacted_len = heap.len();
        }
    }

    // Zero-weight merges: smallest merged size, then smallest ids.
    let mut by_size: BinaryHeap<Reverse<(usize, u32)>> = (0..n)
        .filter(|&c| members.size[c] > 0)
        .map(|c| Reverse((members.size[c], c as u32)))
        .collect();
    while n_clusters > k {
        let (Some(Reverse((s1, x))), Some(Reverse((s2, y)))) = (by_size.pop(), by_size.pop())
        else {
            break;
        };
        if s1 + s2 > max_size {
            break;
        }
        let (a, b) = (x.min(y) as usize, x.max(y) as usize);
        members.absorb(a, b);
        by_size.push(Reverse((s1 + s2, a as u32)));
        n_clusters -= 1;
    }

    members.assignment()
}

/// Bits per field of a packed heap key.
const KEY_BITS: u32 = 21;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;
/// Largest graph [`partition`] accepts: sizes and ids fit a key field.
const MAX_RANKS: usize = KEY_MASK as usize;

/// Pack `(merged size, a, b)` into one `u64` that orders like the tuple,
/// which keeps heap entries at 16 bytes (the heap is the hot loop on
/// dense graphs). Every field is at most [`MAX_RANKS`].
fn pack(size: usize, a: usize, b: usize) -> u64 {
    ((size as u64) << (2 * KEY_BITS)) | ((a as u64) << KEY_BITS) | b as u64
}

fn unpack(key: u64) -> (usize, usize, usize) {
    let field = |shift: u32| ((key >> shift) & KEY_MASK) as usize;
    (field(2 * KEY_BITS), field(KEY_BITS), field(0))
}

/// Cluster membership as circular linked lists over ranks. A cluster's
/// id is its smallest member, and merging `b` into `a` splices the two
/// cycles in O(1).
struct Members {
    /// Members per cluster id; 0 once the cluster is merged away.
    size: Vec<usize>,
    /// Next rank in the same cluster's cycle.
    next: Vec<u32>,
}

impl Members {
    fn singletons(n: usize) -> Self {
        Members {
            size: vec![1; n],
            next: (0..n as u32).collect(),
        }
    }

    /// Whether a heap entry still describes its pair: both ends alive
    /// and the merged size unchanged since the push.
    fn is_current(&self, key: u64) -> bool {
        let (merged, a, b) = unpack(key);
        let (size_a, size_b) = (self.size[a], self.size[b]);
        size_a > 0 && size_b > 0 && size_a + size_b == merged
    }

    /// Merge cluster `b` into `a`.
    fn absorb(&mut self, a: usize, b: usize) {
        self.next.swap(a, b);
        self.size[a] += self.size[b];
        self.size[b] = 0;
    }

    /// Cluster id per rank.
    fn assignment(&self) -> Vec<u32> {
        let mut cl = vec![0; self.size.len()];
        for c in (0..cl.len()).filter(|&c| self.size[c] > 0) {
            let mut r = c;
            loop {
                cl[r] = c as u32;
                r = self.next[r] as usize;
                if r == c {
                    break;
                }
            }
        }
        cl
    }
}

/// One KL refinement pass; returns true if any move was made.
fn refine_once(graph: &CommGraph, assignment: &mut [u32], max_size: usize) -> bool {
    let n = assignment.len();
    let mut sizes = std::collections::BTreeMap::<u32, usize>::new();
    for &c in assignment.iter() {
        *sizes.entry(c).or_default() += 1;
    }
    let mut moved = false;
    for r in 0..n {
        let me = Rank(r as u32);
        let my_cluster = assignment[r];
        if sizes[&my_cluster] == 1 {
            continue; // would empty a cluster
        }
        // Traffic toward each cluster.
        let mut toward = std::collections::BTreeMap::<u32, u64>::new();
        for (nb, weight) in graph.neighbors(me) {
            *toward.entry(assignment[nb.idx()]).or_default() += weight;
        }
        let home = toward.get(&my_cluster).copied().unwrap_or(0);
        // Best alternative cluster.
        let best = toward
            .iter()
            .filter(|(&c, _)| c != my_cluster && sizes[&c] < max_size)
            .max_by_key(|(&c, &w)| (w, std::cmp::Reverse(c)));
        if let Some((&c, &w)) = best {
            if w > home {
                assignment[r] = c;
                *sizes.get_mut(&my_cluster).unwrap() -= 1;
                *sizes.get_mut(&c).unwrap() += 1;
                moved = true;
            }
        }
    }
    moved
}

/// Renumber cluster ids densely (0..k), ordered by smallest member rank.
fn compact_ids(assignment: Vec<u32>) -> Vec<u32> {
    let mut mapping = std::collections::BTreeMap::<u32, u32>::new();
    let mut next = 0u32;
    let mut out = Vec::with_capacity(assignment.len());
    for c in assignment {
        let id = *mapping.entry(c).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        out.push(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original dense O(n³) agglomeration, kept as the oracle of
    /// [`greedy_agglomerate`]: rescan every pair of live clusters for
    /// each merge.
    fn dense_greedy_agglomerate(graph: &CommGraph, k: usize, max_size: usize) -> Vec<u32> {
        let n = graph.n_ranks();
        // cluster id per rank; ids are initially rank ids.
        let mut cl: Vec<u32> = (0..n as u32).collect();
        let mut size: Vec<usize> = vec![1; n];
        // inter-cluster weights, dense n × n.
        let mut w: Vec<u64> = vec![0; n * n];
        for i in 0..n {
            for (j, weight) in graph.neighbors(Rank(i as u32)) {
                w[i * n + j.idx()] = weight;
            }
        }
        let mut alive: Vec<bool> = vec![true; n];
        let mut n_clusters = n;
        while n_clusters > k {
            // Find the heaviest feasible pair (a < b), preferring, on ties,
            // the pair whose merged size is smallest, then smallest indices.
            let mut best: Option<(u64, usize, usize)> = None;
            for a in 0..n {
                if !alive[a] {
                    continue;
                }
                for b in (a + 1)..n {
                    if !alive[b] || size[a] + size[b] > max_size {
                        continue;
                    }
                    let weight = w[a * n + b];
                    let cand = (weight, usize::MAX - (size[a] + size[b]), usize::MAX - a);
                    let cur = best.map(|(bw, a0, b0)| {
                        (bw, usize::MAX - (size[a0] + size[b0]), usize::MAX - a0)
                    });
                    if cur.is_none() || cand > cur.unwrap() {
                        best = Some((weight, a, b));
                    }
                }
            }
            let Some((_, a, b)) = best else {
                // No feasible merge (size bound); accept more clusters.
                break;
            };
            // Merge b into a.
            for j in 0..n {
                if alive[j] && j != a && j != b {
                    w[a * n + j] += w[b * n + j];
                    w[j * n + a] = w[a * n + j];
                }
            }
            size[a] += size[b];
            alive[b] = false;
            for c in cl.iter_mut() {
                if *c == b as u32 {
                    *c = a as u32;
                }
            }
            n_clusters -= 1;
        }
        cl
    }

    /// `partition` must equal the oracle pipeline (dense greedy plus the
    /// same refinement) exactly, and so must the raw greedy assignment.
    fn assert_matches_oracle(g: &CommGraph, cfg: &PartitionConfig) {
        let max_size = cfg.max_cluster_size.unwrap_or(g.n_ranks());
        let greedy = greedy_agglomerate(g, cfg.k, max_size);
        let oracle = dense_greedy_agglomerate(g, cfg.k, max_size);
        assert_eq!(greedy, oracle, "greedy assignment, {cfg:?}");
        let expected = refine(g, oracle, cfg.refine_passes, max_size);
        assert_eq!(
            partition(g, cfg).assignment(),
            expected.assignment(),
            "{cfg:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 600, ..ProptestConfig::default() })]
        #[test]
        fn heap_greedy_matches_dense_oracle(
            n in 2usize..=48,
            k_seed in 0usize..1_000,
            shape in 0u8..4,
            balanced in any::<bool>(),
            edges in prop::collection::vec((0u32..48, 0u32..48, 1u64..=3, 1u64..100_000), 0..300),
        ) {
            let mut g = CommGraph::new(n);
            let n32 = n as u32;
            for (i, &(a, b, tie, wide)) in edges.iter().enumerate() {
                let (a, b) = (a % n32, b % n32);
                match shape {
                    // Tie-heavy weights on a dense-ish graph.
                    0 => g.add(Rank(a), Rank(b), tie),
                    // Wide weights.
                    1 => g.add(Rank(a), Rank(b), wide),
                    // Sparse: few edges, many isolated ranks.
                    2 if i < n / 3 => g.add(Rank(a), Rank(b), tie),
                    // Disconnected: edges only within residue classes mod 3.
                    3 if a % 3 == b % 3 => g.add(Rank(a), Rank(b), tie),
                    _ => {}
                }
            }
            let k = 1 + k_seed % n;
            let cfg = if balanced {
                PartitionConfig::balanced(k, n)
            } else {
                PartitionConfig::with_k(k)
            };
            assert_matches_oracle(&g, &cfg);
        }
    }

    #[test]
    fn edgeless_graph_matches_oracle() {
        // Every merge is a zero-weight one: the size-ordered rule must
        // reproduce the oracle's (size, a, b) choice at scale.
        let g = CommGraph::new(512);
        assert_matches_oracle(&g, &PartitionConfig::with_k(32));
        assert_matches_oracle(&g, &PartitionConfig::balanced(32, 512));
    }

    #[test]
    fn disconnected_cliques_match_oracle() {
        // Two 6-cliques with no bridge: k=1 forces a zero-weight merge of
        // the two components after every positive edge is used up.
        let mut g = CommGraph::new(12);
        for base in [0u32, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    g.add(Rank(base + i), Rank(base + j), 10 + u64::from(i + j));
                }
            }
        }
        for k in 1..=12 {
            assert_matches_oracle(&g, &PartitionConfig::with_k(k));
            assert_matches_oracle(&g, &PartitionConfig::balanced(k, 12));
        }
    }

    /// Two tightly-coupled groups with a thin bridge.
    fn two_communities() -> CommGraph {
        let mut g = CommGraph::new(8);
        for grp in 0..2u32 {
            let base = grp * 4;
            for i in 0..4u32 {
                for j in (i + 1)..4u32 {
                    g.add(Rank(base + i), Rank(base + j), 1000);
                }
            }
        }
        g.add(Rank(3), Rank(4), 1); // bridge
        g
    }

    #[test]
    fn finds_obvious_communities() {
        let g = two_communities();
        let map = partition(&g, &PartitionConfig::with_k(2));
        assert_eq!(map.n_clusters(), 2);
        for i in 0..4u32 {
            assert!(map.same_cluster(Rank(0), Rank(i)), "rank {i}");
            assert!(map.same_cluster(Rank(4), Rank(4 + i)), "rank {}", 4 + i);
        }
        assert!(!map.same_cluster(Rank(0), Rank(4)));
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let g = two_communities();
        let map = partition(&g, &PartitionConfig::with_k(8));
        assert_eq!(map.n_clusters(), 8);
    }

    #[test]
    fn k_equals_one_gives_single_cluster() {
        let g = two_communities();
        let map = partition(&g, &PartitionConfig::with_k(1));
        assert_eq!(map.n_clusters(), 1);
    }

    #[test]
    fn size_bound_is_respected() {
        let g = two_communities();
        let cfg = PartitionConfig {
            k: 4,
            max_cluster_size: Some(2),
            refine_passes: 4,
        };
        let map = partition(&g, &cfg);
        assert!(map.max_cluster_size() <= 2);
        assert_eq!(map.n_clusters(), 4);
    }

    #[test]
    fn deterministic_output() {
        let g = two_communities();
        let a = partition(&g, &PartitionConfig::with_k(3));
        let b = partition(&g, &PartitionConfig::with_k(3));
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn refinement_reduces_cut_on_ring() {
        // A ring of 8 with strong links; k=2 should produce two contiguous
        // arcs (minimal cut = 2 edges).
        let mut g = CommGraph::new(8);
        for i in 0..8u32 {
            g.add(Rank(i), Rank((i + 1) % 8), 100);
        }
        let map = partition(&g, &PartitionConfig::balanced(2, 8));
        let cut: u64 = (0..8u32)
            .map(|i| {
                let j = (i + 1) % 8;
                if map.same_cluster(Rank(i), Rank(j)) {
                    0
                } else {
                    100
                }
            })
            .sum();
        assert_eq!(cut, 200, "minimal ring cut is two edges");
    }

    #[test]
    #[should_panic(expected = "need 1 <= k <= n")]
    fn zero_k_panics() {
        let g = CommGraph::new(4);
        let _ = partition(&g, &PartitionConfig::with_k(0));
    }
}
