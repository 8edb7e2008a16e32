//! Serial-vs-sharded equivalence at the record level (DESIGN.md §2.8):
//! for any scenario — across protocol families, failure models,
//! checkpoint policies, and shard counts — the sharded run's
//! `RunRecord` must serialize byte-identically to the serial run's once
//! the three fields that *name* the engine are normalized (the scenario
//! label embeds `/shardsN`, and the `shards`/`barrier_rounds` columns
//! report which engine ran). Everything the simulation computed —
//! digests, makespan, metrics, containment, waste — must not move.
//! Each run carries a `SpanRecorder`, and the Perfetto JSON it exports
//! must be byte-identical at every shard count too: a sharded run has
//! no failures, and the lockstep loop steps the timers that fire its
//! checkpoint and storage spans one at a time in global order.
//!
//! Failure-model scenarios exercise the documented fallback instead:
//! the factory runs them serially whatever `shards` asks for, so their
//! records are identical by construction and the `shards` column must
//! report 1.
//!
//! Every case outlasts the 1 ms first checkpoint of its periodic and
//! Young/Daly policies, so the sharded runs compare checkpointing
//! records, not just clean ones (Young/Daly schedules nothing without
//! a failure rate, so it checkpoints only in the serial fallback).

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

use scenario::{
    CheckpointPolicySpec, ClusterStrategy, Executor, FailureModelSpec, FailureSpec, ProtocolSpec,
    RunRecord, ScenarioSpec,
};
use workloads::WorkloadSpec;

/// Shard counts the tentpole calls out: serial, a divisor, a ragged
/// count, and exactly `n_clusters` (the executor clamps anything above).
const SHARD_POINTS: [usize; 4] = [1, 2, 7, 8];

fn decode_protocol(variant: u8, policy: u8) -> ProtocolSpec {
    let checkpoint = match policy % 3 {
        0 => CheckpointPolicySpec::None,
        1 => CheckpointPolicySpec::Periodic {
            interval_ms: 1,
            first_ms: Some(1),
            stagger_ms: Some(0),
        },
        _ => CheckpointPolicySpec::YoungDaly {
            first_ms: Some(1),
            stagger_ms: Some(0),
        },
    };
    match variant % 4 {
        0 => ProtocolSpec::Native,
        1 => ProtocolSpec::hydee().with_policy(checkpoint),
        2 => ProtocolSpec::event_logged().with_policy(checkpoint),
        _ => ProtocolSpec::coordinated().with_policy(checkpoint),
    }
}

fn decode_failures(variant: u8, seed: u64) -> FailureModelSpec {
    match variant % 3 {
        0 => FailureModelSpec::none(),
        1 => FailureModelSpec::Fixed(vec![FailureSpec::at_ms(2, vec![3])]),
        _ => FailureModelSpec::Poisson {
            mtbf_ms: 50,
            seed,
            max_failures: 2,
        },
    }
}

/// Run `spec` with a `SpanRecorder` attached: its record and trace JSON.
fn run_traced(spec: &ScenarioSpec) -> (RunRecord, String) {
    let (recorder, trace) = telemetry::SpanRecorder::new();
    let record = Executor::run_one_with_recorder(spec, Some(Box::new(recorder)));
    (record, trace.to_chrome_json())
}

/// Blank out the fields that legitimately differ between the serial and
/// sharded runs of the same spec: the label (embeds `/shardsN`) and the
/// engine-identity columns. Everything else must match byte-for-byte.
fn normalized(mut record: RunRecord) -> String {
    record.scenario = String::new();
    record.shards = 0;
    record.barrier_rounds = 0;
    serde_json::to_string(&record).expect("record serializes")
}

/// Cases whose run on two or more shards took a checkpoint.
static SHARDED_CHECKPOINTING_RUNS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn sharded_records_serialize_identically_to_serial() {
    sharded_cases();
    assert!(
        SHARDED_CHECKPOINTING_RUNS.load(Ordering::Relaxed) > 0,
        "no sharded case took a checkpoint"
    );
}

proptest! {
    fn sharded_cases(
        protocol_variant in any::<u8>(),
        policy_variant in any::<u8>(),
        failure_variant in any::<u8>(),
        failure_seed in any::<u64>(),
        iterations in 2usize..5,
    ) {
        let spec = {
            let mut s = ScenarioSpec::new(
                WorkloadSpec::Stencil {
                    n_ranks: 16,
                    iterations,
                    face_bytes: 2048,
                    // 2-4 iterations of 600 us outlast the first
                    // checkpoint at 1 ms.
                    compute_us: 600,
                    wildcard_recv: false,
                },
                decode_protocol(protocol_variant, policy_variant),
                ClusterStrategy::Blocks(8),
            );
            s.failure_model = decode_failures(failure_variant, failure_seed);
            s
        };
        let has_failures = spec.failure_model != FailureModelSpec::none();
        let (serial, serial_trace) = run_traced(&spec);
        prop_assert_eq!(serial.shards, 1);
        prop_assert_eq!(serial.barrier_rounds, 0);
        let oracle = normalized(serial);
        for shards in SHARD_POINTS {
            let (record, trace) = run_traced(&spec.clone().with_shards(shards));
            // Failure runs take the documented serial fallback; clean
            // Coordinated runs are serial by design. Either way the
            // record must admit it in the `shards` column.
            if has_failures
                || matches!(spec.protocol, ProtocolSpec::Coordinated { .. })
                || shards == 1
            {
                prop_assert_eq!(record.shards, 1, "expected a serial run at shards={}", shards);
            } else {
                prop_assert!(
                    record.shards as usize > 1 && record.shards as usize <= 8,
                    "effective shard count {} out of range at shards={}",
                    record.shards,
                    shards
                );
                prop_assert!(record.barrier_rounds > 0, "sharded run ran no barriers");
                if record.metrics.checkpoints > 0 {
                    SHARDED_CHECKPOINTING_RUNS.fetch_add(1, Ordering::Relaxed);
                }
            }
            prop_assert_eq!(
                &normalized(record),
                &oracle,
                "sharded record diverged at shards={}",
                shards
            );
            prop_assert!(trace == serial_trace, "span trace diverged at shards={}", shards);
        }
    }
}

/// `--shards` beyond the cluster count clamps (with a warning returned to
/// the caller) instead of erroring or over-sharding: requesting 64 shards
/// of an 8-cluster run must execute — and report — 8.
#[test]
fn oversharded_requests_clamp_to_the_cluster_count() {
    let spec = ScenarioSpec::new(
        WorkloadSpec::Stencil {
            n_ranks: 16,
            iterations: 3,
            face_bytes: 2048,
            compute_us: 40,
            wildcard_recv: false,
        },
        ProtocolSpec::Native,
        ClusterStrategy::Blocks(8),
    )
    .with_shards(64);
    let (effective, warning) = mps_sim::effective_shards(64, 8);
    assert_eq!(effective, 8);
    let warning = warning.expect("clamping must warn");
    assert!(warning.contains("64") && warning.contains('8'), "{warning}");
    let record = Executor::run_one(&spec);
    assert_eq!(record.shards, 8, "oversharded run must clamp, not fail");
    assert!(record.completed);
}

/// The trace half of the property on runs long enough to checkpoint:
/// HydEE under a timed and a reactive policy writes the same Perfetto
/// JSON, checkpoint spans included, at 1, 2, 4 and 8 shards.
#[test]
fn span_traces_are_byte_identical_at_any_shard_count() {
    let policies = [
        CheckpointPolicySpec::Periodic {
            interval_ms: 1,
            first_ms: Some(1),
            stagger_ms: Some(0),
        },
        CheckpointPolicySpec::LogPressure {
            budget_bytes: 64 * 1024,
        },
    ];
    for policy in policies {
        let spec = ScenarioSpec::new(
            WorkloadSpec::Stencil {
                n_ranks: 16,
                iterations: 40,
                face_bytes: 4096,
                compute_us: 100,
                wildcard_recv: false,
            },
            ProtocolSpec::hydee().with_policy(policy),
            ClusterStrategy::Blocks(8),
        );
        let (_, serial) = run_traced(&spec);
        let spans = serial.matches("\"name\":\"checkpoint\"").count();
        assert!(spans >= 8, "{}: {spans} checkpoint spans", policy.name());
        for shards in [2, 4, 8] {
            let (record, trace) = run_traced(&spec.clone().with_shards(shards));
            assert_eq!(record.shards as usize, shards);
            assert!(
                trace == serial,
                "{}: span trace diverged at shards={shards}",
                policy.name()
            );
        }
    }
}
