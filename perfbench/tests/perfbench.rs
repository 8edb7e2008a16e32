//! The benchmark's own checks: its wrappers observe without perturbing,
//! and its workloads are pinned.

use perfbench::measure::{run_traced, run_untraced, setup};
use perfbench::timed::Hook;
use perfbench::workload::{Workload, SHARDS};
use scenario::{ClusterStrategy, FailureModelSpec, ProtocolSpec, ScenarioSpec, TopologySpec};
use workloads::WorkloadSpec;

fn small(protocol: &str, clusters: ClusterStrategy) -> ScenarioSpec {
    ScenarioSpec::new(
        WorkloadSpec::parse("stencil:64x40:face=4096:compute_us=100").unwrap(),
        ProtocolSpec::parse(protocol).unwrap(),
        clusters,
    )
}

/// `Timed<Hydee>` plus the gauge recorder against the plain factory run.
#[test]
fn traced_hydee_run_is_bit_identical() {
    let spec = small(
        "hydee:periodic:interval=1:first=1:stagger=0:pfs",
        ClusterStrategy::Partitioned(4),
    )
    .with_failure_model(FailureModelSpec::Poisson {
        mtbf_ms: 100,
        seed: 3,
        max_failures: 2,
    });
    let (prep, _) = setup(&spec);
    let (plain, _) = run_untraced(&spec, &prep);
    let traced = run_traced(&spec, &prep, true);
    let t = &traced.report;
    assert!(plain.completed(), "{:?}", plain.status);
    assert!(
        plain.metrics.failures > 0,
        "the spec must exercise recovery"
    );
    assert!(
        plain.metrics.checkpoints > 0,
        "the spec must exercise checkpoints"
    );
    assert_eq!(plain.digests, t.digests);
    assert_eq!(plain.metrics.events, t.metrics.events);
    assert_eq!(
        serde_json::to_string(&plain.metrics).unwrap(),
        serde_json::to_string(&t.metrics).unwrap()
    );
    assert_eq!(plain.makespan, t.makespan);

    // The wrappers saw the run they wrapped.
    assert_eq!(traced.gauges.ticks, t.metrics.events);
    assert_eq!(traced.gauges.sends.len() as u64, t.metrics.app_messages);
    let calls = traced.hooks.calls;
    assert_eq!(calls[Hook::Deliver as usize], t.metrics.deliveries);
    assert_eq!(calls[Hook::Failure as usize], t.metrics.failures);
    assert!(calls[Hook::Timer as usize] > 0);
    assert!(calls[Hook::Control as usize] > 0);
}

/// The gauge recorder on the sharded engine against the plain run.
#[test]
fn traced_sharded_run_is_bit_identical() {
    let spec = small("native", ClusterStrategy::Blocks(4)).with_shards(2);
    let (prep, _) = setup(&spec);
    let (plain, _) = run_untraced(&spec, &prep);
    let traced = run_traced(&spec, &prep, false);
    let t = &traced.report;
    assert!(plain.completed(), "{:?}", plain.status);
    assert_eq!((plain.shards, t.shards), (2, 2));
    assert_eq!(plain.digests, t.digests);
    assert_eq!(
        serde_json::to_string(&plain.metrics).unwrap(),
        serde_json::to_string(&t.metrics).unwrap()
    );
    assert_eq!(plain.barrier_rounds, t.barrier_rounds);
    assert_eq!(traced.gauges.ticks, t.metrics.events);
    assert_eq!(traced.hooks.calls, [0; 5], "native runs no HydEE hooks");
}

/// Changing a workload changes every number measured on it: do it in a
/// change of its own that says so.
#[test]
fn workload_specs_are_pinned() {
    let pinned = [
        (
            Workload::CkptRecovery,
            "stencil:1024x200:face=4096:compute_us=100/\
             hydee:periodic:interval=1:first=1:stagger=0:pfs/part64/mx/\
             poisson:mtbf=10000:seed=7:max=3",
        ),
        (Workload::AlltoallFt, "nas:FT:scale=0.015625/hydee/part2/mx"),
        (
            Workload::Halo4096Sharded,
            "stencil:4096x200:face=4096:compute_us=100/native/blocks64/mx/shards2",
        ),
    ];
    for (w, label) in pinned {
        let spec = w.spec(7);
        assert_eq!(spec.label(), label, "{}", w.name());
        assert_eq!(spec.topology, TopologySpec::Flat, "{}", w.name());
        assert_eq!(spec.max_events, None, "{}", w.name());
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(SHARDS, 2);
    // The seed reaches the failure model and nothing else.
    let (a, b) = (
        Workload::CkptRecovery.spec(7),
        Workload::CkptRecovery.spec(8),
    );
    assert_ne!(a.failure_model, b.failure_model);
    assert_eq!(
        (a.workload, a.protocol, a.clusters),
        (b.workload, b.protocol, b.clusters)
    );
    for w in [Workload::AlltoallFt, Workload::Halo4096Sharded] {
        assert_eq!(w.spec(7), w.spec(8), "{}", w.name());
    }
}
