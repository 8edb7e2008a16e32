//! Golden pin of simulated outcomes across engine changes.
//!
//! `determinism.rs` compares parallel to serial execution at test time,
//! so it cannot see a change that both sides share — e.g. a checkpoint
//! that captures the wrong channel state, or a rollback that drops the
//! wrong in-flight messages. This test compares the full `RunRecord` JSON
//! line of a few checkpoint-and-recovery cells against a checked-in file.
//! Every cell checkpoints, fails and rolls back, so in-flight capture,
//! in-flight drop and re-injection all feed the digests and makespans
//! pinned here. (The order of captured messages does not reach these
//! records: re-injected messages on different channels, or with
//! different tags, are matched by content. `mps-sim/tests/ctx_api.rs`
//! pins that order directly.)
//!
//! If this test fails, simulated behaviour changed. Fix the regression;
//! or, when the change is intended (a timing-model change, say),
//! regenerate the file with `UPDATE_GOLDEN=1 cargo test -p scenario
//! --test golden_records` and say why in the change description.

use scenario::{
    ClusterStrategy, Executor, FailureModelSpec, NetworkSpec, ProtocolSpec, ScenarioSpec,
};
use workloads::WorkloadSpec;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/records.jsonl");

/// 12 ranks exchanging 1 MiB faces over TCP with little compute per
/// iteration: transit dwarfs compute, so a checkpoint captures up to a
/// few dozen messages in flight, several of them on one channel.
const WORKLOAD: &str = "stencil:12x40:face=1048576:compute_us=10";

/// `(protocol, clusters, failure model)` of each pinned cell: HydEE
/// periodic checkpoints under Poisson, cluster-correlated and cascading
/// failures, and global coordinated checkpointing under Poisson and
/// cascading failures.
const CELLS: &[(&str, &str, &str)] = &[
    (
        "hydee:periodic:interval=2:first=1",
        "blocks:5",
        "poisson:mtbf=40:seed=7:max=2",
    ),
    (
        "hydee:periodic:interval=2:first=1",
        "blocks:4",
        "cluster:mtbf=30:seed=9:max=2",
    ),
    (
        "hydee:periodic:interval=2:first=1",
        "blocks:5",
        "cascade:mtbf=60:seed=3:window=500:follow=100:max=1",
    ),
    (
        "coordinated:periodic:interval=2:first=1",
        "single",
        "poisson:mtbf=40:seed=7:max=2",
    ),
    (
        "coordinated:periodic:interval=2:first=1",
        "single",
        "cascade:mtbf=60:seed=3:window=500:follow=100:max=1",
    ),
];

fn specs() -> Vec<ScenarioSpec> {
    CELLS
        .iter()
        .map(|&(protocol, clusters, failures)| {
            let mut spec = ScenarioSpec::new(
                WorkloadSpec::parse(WORKLOAD).expect("workload parses"),
                ProtocolSpec::parse(protocol).expect("protocol parses"),
                ClusterStrategy::parse(clusters).expect("clusters parse"),
            );
            spec.network = NetworkSpec::Tcp;
            spec.failure_model = FailureModelSpec::parse(failures).expect("failure model parses");
            spec
        })
        .collect()
}

#[test]
fn records_match_golden_file() {
    let mut actual = String::new();
    for record in Executor::serial().run(&specs()) {
        // The pin is only as strong as the cells: each one must complete
        // cleanly and must actually have checkpointed, failed and rolled
        // back.
        let m = &record.metrics;
        assert!(record.completed, "{}: {}", record.scenario, record.status);
        assert!(record.trace_consistent, "{}", record.scenario);
        assert!(
            m.checkpoints > 0 && m.failures > 0 && m.ranks_rolled_back > 0,
            "{}: no checkpoint, failure or rollback",
            record.scenario
        );
        actual.push_str(&serde_json::to_string(&record).expect("record serializes"));
        actual.push('\n');
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect(
        "golden file missing — run UPDATE_GOLDEN=1 cargo test -p scenario \
         --test golden_records",
    );
    let expected: Vec<&str> = expected.lines().collect();
    let actual: Vec<&str> = actual.lines().collect();
    assert_eq!(actual.len(), expected.len(), "cell count changed");
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(
            a, e,
            "record {i} ({:?}) drifted from the golden file",
            CELLS[i]
        );
    }
}
