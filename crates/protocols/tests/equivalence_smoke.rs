//! One-shard-vs-sharded equivalence through the run driver (DESIGN.md
//! §2.8): `Sim::run` is the oracle, and the report `mps_sim::run_sharded`
//! merges from any shard count must match it bit-for-bit on everything
//! deterministic — digests, every metrics counter, makespan, status.

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{
    run_sharded, Application, CheckpointPolicyConfig, ClusterMap, FailureModel, FixedSchedule,
    NullProtocol, PoissonPerRank, RunReport, RunStatus, Sim, SimConfig,
};
use net_model::StorageLedger;
use protocols::{HydeeFactory, HydeeParams, ProtocolFactory, RunRequest};
use std::sync::{Arc, Mutex};
use workloads::WorkloadSpec;

fn stencil(n_ranks: usize, iterations: usize) -> Application {
    WorkloadSpec::Stencil {
        n_ranks,
        iterations,
        face_bytes: 4096,
        compute_us: 50,
        wildcard_recv: false,
    }
    .build()
}

fn assert_equivalent(serial: &RunReport, sharded: &RunReport) {
    assert_eq!(serial.status, sharded.status);
    assert_eq!(serial.digests, sharded.digests);
    assert_eq!(serial.inbox_leftover, sharded.inbox_leftover);
    assert_eq!(serial.makespan, sharded.makespan);
    let a = serde_json::to_string(&serial.metrics).unwrap();
    let b = serde_json::to_string(&sharded.metrics).unwrap();
    assert_eq!(a, b, "metrics diverge");
    assert_eq!(
        serial.trace.distinct_messages(),
        sharded.trace.distinct_messages()
    );
    assert!(sharded.trace.is_consistent());
}

#[test]
fn null_protocol_stencil_matches_serial_at_every_shard_count() {
    let clusters = ClusterMap::blocks(16, 4);
    let serial = Sim::new(stencil(16, 8), SimConfig::default(), NullProtocol).run();
    assert!(serial.completed());
    for shards in [1, 2, 3, 4] {
        let par = run_sharded(
            stencil(16, 8),
            SimConfig::default(),
            &clusters,
            shards,
            no_failures(),
            None,
            |_slice| NullProtocol,
        );
        assert_eq!(par.shards, shards as u32);
        assert_equivalent(&serial, &par);
        if shards > 1 {
            // Every shard count runs the same windows: the decisions
            // depend on the global state only.
            assert_eq!(par.barrier_rounds, 45, "{shards} shards");
        }
    }
}

#[test]
fn hydee_with_periodic_checkpoints_matches_serial() {
    let clusters = ClusterMap::blocks(12, 3);
    let mk_cfg = || {
        HydeeConfig::new(ClusterMap::blocks(12, 3))
            .with_image_bytes(1 << 16)
            .with_policy(CheckpointPolicyConfig::Periodic {
                interval: SimDuration::from_us(300),
                stagger: Some(SimDuration::from_us(40)),
                first: Some(SimTime::from_us(200)),
            })
    };
    let serial = Sim::new(stencil(12, 10), SimConfig::default(), Hydee::new(mk_cfg())).run();
    assert!(serial.completed());
    assert!(serial.metrics.checkpoints > 0, "checkpoints must fire");
    assert!(serial.metrics.logged_bytes_peak > 0, "logs must grow");
    for shards in [1, 2, 3] {
        let ledger = Arc::new(Mutex::new(StorageLedger::new(mk_cfg().storage)));
        let par = run_sharded(
            stencil(12, 10),
            SimConfig::default(),
            &clusters,
            shards,
            no_failures(),
            None,
            |slice| Hydee::sharded(mk_cfg(), ledger.clone(), slice.clusters.clone()),
        );
        assert_equivalent(&serial, &par);
        // One shard is the one-shard run itself: no barrier.
        let rounds = if shards == 1 { 0 } else { 159 };
        assert_eq!(par.barrier_rounds, rounds, "{shards} shards");
    }
}

#[test]
fn failure_request_runs_the_one_shard_case() {
    // A request whose failure model expects failures runs on one shard
    // whatever it asks for, and that run is `Sim::run` itself.
    let clusters = ClusterMap::blocks(12, 3);
    let params = HydeeParams {
        image_bytes: Some(1 << 16),
        checkpoint_policy: Some(CheckpointPolicyConfig::Periodic {
            interval: SimDuration::from_us(300),
            first: None,
            stagger: None,
        }),
        ..Default::default()
    };
    let poisson =
        || Box::new(PoissonPerRank::new(12, SimDuration::from_ms(5), 3).with_max_failures(1));
    let mut sim = Sim::new(
        stencil(12, 10),
        SimConfig::default(),
        Hydee::new(params.config_for(clusters.clone())),
    );
    sim.set_failure_model(poisson());
    let serial = sim.run();
    let driven = HydeeFactory::new(params).run(
        RunRequest::new(stencil(12, 10))
            .clusters(clusters)
            .failure_model(poisson())
            .shards(4),
    );
    assert!(serial.completed(), "{:?}", serial.status);
    assert_eq!(serial.metrics.failures, 1, "the failure must strike");
    assert_equivalent(&serial, &driven);
    assert_eq!((driven.shards, serial.shards), (1, 1));
    assert_eq!((driven.barrier_rounds, serial.barrier_rounds), (0, 0));
    assert_eq!(driven.pair_lookahead, serial.pair_lookahead);
    assert!(driven.pair_lookahead.is_empty());
}

#[test]
fn deadlocked_run_merges_the_stuck_diagnostics() {
    // Rank 1 waits for a message no one sends: the sharded run must
    // report the same deadlock diagnosis as the serial one.
    use mps_sim::{Rank, Tag};
    let build = || {
        let mut app = Application::new(4);
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(9));
        app
    };
    let clusters = ClusterMap::blocks(4, 2);
    let serial = Sim::new(build(), SimConfig::default(), NullProtocol).run();
    let par = run_sharded(
        build(),
        SimConfig::default(),
        &clusters,
        2,
        no_failures(),
        None,
        |_| NullProtocol,
    );
    assert_eq!(serial.status, par.status);
    assert!(!par.completed());
}

#[test]
fn event_budget_stops_a_sharded_run() {
    let cap = 50;
    let config = SimConfig {
        max_events: cap,
        ..SimConfig::default()
    };
    let par = run_sharded(
        stencil(16, 8),
        config,
        &ClusterMap::blocks(16, 4),
        2,
        no_failures(),
        None,
        |_| NullProtocol,
    );
    assert_eq!(par.status, RunStatus::EventLimit);
    assert_eq!(par.shards, 2);
    // Each shard's window stops once its own count passes the budget,
    // and the next decision stops the run.
    assert!(par.metrics.events > cap, "{}", par.metrics.events);
    assert!(
        par.metrics.events <= 2 * (cap + 1),
        "{}",
        par.metrics.events
    );
}

fn no_failures() -> Box<dyn FailureModel> {
    Box::new(FixedSchedule::none())
}
