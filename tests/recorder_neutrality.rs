//! Recorder neutrality: telemetry is an *observer*. Attaching a full
//! recorder stack (span tracing + time-series sampling) to any protocol
//! under any failure regime and checkpoint policy must leave every
//! observable of the run — digests, containment integers, every
//! `Metrics` field, the whole `RunRecord` — bit-for-bit identical to the
//! untraced run. The comparison goes through the serialized record so a
//! future field can't silently escape the property.

use det_sim::SimDuration;
use proptest::prelude::*;
use scenario::{
    CheckpointPolicySpec, ClusterStrategy, Executor, FailureModelSpec, ProtocolSpec, ScenarioSpec,
    StorageSpec,
};
use telemetry::{Fanout, Sampler, SpanRecorder};
use workloads::WorkloadSpec;

fn protocol(idx: u8, ckpt_ms: u64) -> ProtocolSpec {
    let checkpoint = if ckpt_ms == 0 {
        CheckpointPolicySpec::None
    } else {
        CheckpointPolicySpec::periodic(ckpt_ms)
    };
    let image_bytes = 1 << 16;
    let storage = StorageSpec::Default;
    match idx % 3 {
        0 => ProtocolSpec::Hydee {
            checkpoint,
            image_bytes,
            storage,
            gc: true,
        },
        1 => ProtocolSpec::Coordinated {
            checkpoint,
            image_bytes,
            storage,
        },
        _ => ProtocolSpec::EventLogged {
            checkpoint,
            image_bytes,
            storage,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn recorders_never_change_the_record(
        proto in 0u8..3,
        ckpt_ms in 0u64..4,
        seed in 1u64..1024,
        k in 1usize..5,
        n_ranks in 4usize..10,
    ) {
        let mut spec = ScenarioSpec::new(
            WorkloadSpec::Stencil {
                n_ranks,
                iterations: 8,
                face_bytes: 2048,
                compute_us: 50,
                wildcard_recv: false,
            },
            protocol(proto, ckpt_ms),
            ClusterStrategy::Blocks(k),
        );
        // Seed-driven stochastic failures: some cases stay clean, some
        // fail mid-run, exercising rollback/replay under tracing.
        spec.failure_model = FailureModelSpec::Poisson {
            mtbf_ms: 4,
            seed,
            max_failures: 2,
        };

        let plain = Executor::run_one(&spec);
        prop_assert!(plain.completed, "untraced run: {}", plain.status);

        let (span_rec, trace) = SpanRecorder::new();
        let (sampler, samples) = Sampler::new(SimDuration::from_us(50));
        let fanout = Fanout::new()
            .push(Box::new(span_rec))
            .push(Box::new(sampler));
        let traced = Executor::run_one_with_recorder(&spec, Some(Box::new(fanout)));

        // The headline golden values, stated explicitly…
        prop_assert_eq!(plain.digest, traced.digest, "digest drift");
        prop_assert_eq!(plain.makespan_ps, traced.makespan_ps);
        prop_assert_eq!(plain.metrics.failures, traced.metrics.failures);
        prop_assert_eq!(
            plain.metrics.ranks_rolled_back,
            traced.metrics.ranks_rolled_back
        );
        // …and the whole record, so every present and future Metrics
        // field is covered bit-for-bit.
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "RunRecord diverged under tracing"
        );

        // While we're here: the artefacts the recorders produced must be
        // structurally valid for every sampled point of the matrix.
        let json = trace.to_chrome_json();
        let validated = telemetry::validate_chrome_trace(&json);
        prop_assert!(validated.is_ok(), "invalid trace: {:?}", validated.err());
        for row in samples.rows() {
            let parsed = telemetry::json::Value::parse(&row.to_json());
            prop_assert!(parsed.is_ok(), "invalid sample row: {:?}", parsed.err());
        }
    }
}
