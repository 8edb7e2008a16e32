//! Golden pin of the `part<k>` partitioner's output.
//!
//! Every `part<k>` cell (Table I, Figure 6, the ablation, the
//! checkpoint-and-recovery benchmark cells) resolves its clusters through
//! `clustering::partition`. The record goldens use `blocks`, so without
//! this file a change to the partitioner that moves a single rank would
//! go unnoticed until a digest far downstream shifted. Each cell pins
//! the cluster count, an FNV-1a 128 hash of the rank → cluster
//! assignment (little-endian `u32`s) and the logged bytes of the
//! resulting clustering.
//!
//! The pinned values were produced by the original dense O(n³)
//! partitioner; any faster implementation must reproduce them exactly.

use clustering::ClusteringStats;
use scenario::{fnv1a128, ClusterStrategy};
use workloads::WorkloadSpec;

/// `(workload, clusters, n_clusters, assignment hash, logged bytes)`.
const CELLS: &[(&str, &str, usize, u128, u64)] = &[
    // The six Table I cells (`suites/table1.suite`).
    (
        "nas:BT",
        "part5",
        5,
        0xfc6dd2e513de8d41d10c2badf6cf315a,
        142084800000,
    ),
    (
        "nas:CG",
        "part16",
        16,
        0x154a1536214388500b929c7c7472018d,
        440100000000,
    ),
    (
        "nas:FT",
        "part2",
        2,
        0xd6885ad2fd37a9c334c755f6e0ff308d,
        402653184000,
    ),
    (
        "nas:LU",
        "part8",
        8,
        0x2d48feacdb363ec518400d30adb1cf8d,
        65081920000,
    ),
    (
        "nas:MG",
        "part4",
        4,
        0x96c5cbb8beeb6e69df72112f2fec3a8d,
        9069498240,
    ),
    (
        "nas:SP",
        "part6",
        6,
        0x9d3edcf5781c5789d90aa4bf309620bc,
        256984000000,
    ),
    // The `ckpt_recovery` benchmark cell.
    (
        "stencil:1024x200:face=4096:compute_us=100",
        "part64",
        64,
        0x70942e4a4a2ab19fb8d231ce659641ad,
        937164800,
    ),
    // A dense all-to-all graph (the `alltoall_ft` benchmark cell).
    (
        "nas:FT:scale=0.015625",
        "part2",
        2,
        0xd6885ad2fd37a9c334c755f6e0ff308d,
        6291456000,
    ),
    // 4096 ranks: the scale the dense partitioner could not reach quickly.
    (
        "stencil:4096x200:face=4096:compute_us=100",
        "part64",
        64,
        0xb65ef14773051cf52c329f2fd989f4bc,
        2911436800,
    ),
];

fn assignment_hash(assignment: &[u32]) -> u128 {
    let bytes: Vec<u8> = assignment.iter().flat_map(|c| c.to_le_bytes()).collect();
    fnv1a128(&bytes)
}

#[test]
fn partitions_match_golden() {
    let mut mismatches = Vec::new();
    for &(workload, clusters, n_clusters, hash, logged) in CELLS {
        let app = WorkloadSpec::parse(workload).unwrap().build();
        let map = ClusterStrategy::parse(clusters).unwrap().resolve(&app);
        let stats = ClusteringStats::evaluate(&app, &map);
        let got = (
            map.n_clusters(),
            assignment_hash(map.assignment()),
            stats.logged_bytes,
        );
        if got != (n_clusters, hash, logged) {
            mismatches.push(format!(
                "    ({workload:?}, {clusters:?}, {}, {:#034x}, {}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "partitions differ from the golden values; actual rows:\n{}",
        mismatches.join("\n")
    );
}
