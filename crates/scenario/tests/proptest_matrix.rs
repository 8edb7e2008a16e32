//! Property test: matrix expansion covers the exact cross-product of its
//! axes — right count, right nesting order, no duplicates — for arbitrary
//! axis contents.

use proptest::prelude::*;
use scenario::{
    CheckpointPolicySpec, ClusterStrategy, FailureModelSpec, FailureSpec, Matrix, NetworkSpec,
    ProtocolSpec,
};
use workloads::WorkloadSpec;

fn arb_workloads() -> impl Strategy<Value = Vec<WorkloadSpec>> {
    prop::collection::vec(
        (1usize..5, 1u64..10_000)
            .prop_map(|(rounds, bytes)| WorkloadSpec::NetPipe { rounds, bytes }),
        1..4,
    )
    .prop_map(|mut ws| {
        // Distinct axis values (a real matrix never lists one point twice);
        // dedup by name to keep the uniqueness property meaningful.
        ws.sort_by_key(|w| w.name());
        ws.dedup_by_key(|w| w.name());
        ws
    })
}

fn arb_protocols() -> impl Strategy<Value = Vec<ProtocolSpec>> {
    (0usize..3).prop_map(|n| {
        [
            ProtocolSpec::Native,
            ProtocolSpec::hydee(),
            ProtocolSpec::event_logged(),
        ][..n]
            .to_vec()
    })
}

fn arb_clusters() -> impl Strategy<Value = Vec<ClusterStrategy>> {
    (0usize..3, 2usize..6).prop_map(|(n, k)| {
        [
            ClusterStrategy::PerRank,
            ClusterStrategy::Blocks(k),
            ClusterStrategy::Partitioned(k),
        ][..n]
            .to_vec()
    })
}

fn arb_ckpts() -> impl Strategy<Value = Vec<CheckpointPolicySpec>> {
    (0usize..3).prop_map(|n| {
        [
            CheckpointPolicySpec::None,
            CheckpointPolicySpec::periodic(40),
            CheckpointPolicySpec::periodic(100),
        ][..n]
            .to_vec()
    })
}

fn arb_schedules() -> impl Strategy<Value = Vec<FailureModelSpec>> {
    prop::collection::vec(
        prop::collection::vec(
            (1u64..500, 0u32..8).prop_map(|(ms, r)| FailureSpec::at_ms(ms, vec![r])),
            0..2,
        ),
        0..3,
    )
    .prop_map(|mut ss| {
        ss.sort_by_key(|s| s.iter().map(|f| f.name()).collect::<Vec<_>>());
        ss.dedup();
        ss.into_iter().map(FailureModelSpec::Fixed).collect()
    })
}

proptest! {
    #[test]
    fn expansion_is_exact_cross_product(
        workloads in arb_workloads(),
        protocols in arb_protocols(),
        clusters in arb_clusters(),
        use_tcp in any::<bool>(),
        ckpts in arb_ckpts(),
        schedules in arb_schedules(),
    ) {
        let networks = if use_tcp {
            vec![NetworkSpec::Mx, NetworkSpec::Tcp]
        } else {
            vec![]
        };
        let matrix = Matrix::new()
            .workloads(workloads.clone())
            .protocols(protocols.clone())
            .clusters(clusters.clone())
            .networks(networks.clone())
            .checkpoint_policies(ckpts.clone())
            .failure_models(schedules.clone());
        let specs = matrix.expand();

        // Exact count: empty axes collapse to a singleton default, and
        // the checkpoint axis multiplies only checkpointing protocols
        // (the default protocol axis is [Native], which doesn't).
        let protocol_points: usize = if protocols.is_empty() {
            1
        } else {
            protocols
                .iter()
                .map(|p| {
                    if p.supports_checkpointing() && !ckpts.is_empty() {
                        ckpts.len()
                    } else {
                        1
                    }
                })
                .sum()
        };
        let expected = workloads.len()
            * protocol_points
            * clusters.len().max(1)
            * networks.len().max(1)
            * schedules.len().max(1);
        prop_assert_eq!(specs.len(), expected);
        prop_assert_eq!(matrix.len(), expected);

        // No duplicates: every spec is a distinct matrix point.
        for i in 0..specs.len() {
            for j in (i + 1)..specs.len() {
                prop_assert!(
                    specs[i] != specs[j],
                    "specs {i} and {j} identical: {:?}",
                    specs[i]
                );
            }
        }

        // Every axis combination is covered with the same multiplicity.
        for w in &workloads {
            for c in clusters.iter().copied().chain(
                clusters.is_empty().then_some(ClusterStrategy::Single),
            ) {
                for f in schedules.iter().cloned().chain(
                    schedules.is_empty().then(FailureModelSpec::none),
                ) {
                    let hits = specs.iter().filter(|s| {
                        s.workload == *w && s.clusters == c && s.failure_model == f
                    }).count();
                    prop_assert_eq!(hits, protocol_points * networks.len().max(1));
                }
            }
        }

        // Nesting order: workload index is non-decreasing, and within one
        // workload block the failure axis cycles fastest.
        let stride = expected / workloads.len();
        for (i, spec) in specs.iter().enumerate() {
            prop_assert_eq!(
                spec.workload.name(),
                workloads[i / stride].name(),
                "workload must be the slowest axis"
            );
        }
    }
}
