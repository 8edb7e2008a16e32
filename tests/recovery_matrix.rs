//! Systematic failure-injection matrix across workloads, failure times,
//! failure multiplicities and checkpoint regimes.
//!
//! Every cell asserts the full HydEE correctness contract:
//! * the run completes (Theorem 2: deadlock-free recovery),
//! * zero trace-oracle violations (send-determinism respected, every
//!   replayed/suppressed message byte-identical to its original),
//! * final per-rank digests equal the failure-free golden run (the
//!   recovered execution is *the same* execution),
//! * containment: exactly the failed ranks' clusters rolled back.

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{
    Application, CheckpointPolicyConfig, ClusterMap, Rank, RunReport, Sim, SimConfig, Tag,
};
use workloads::{stencil_2d, NasBench, NasConfig, StencilConfig};

fn run_hydee(
    app: Application,
    clusters: ClusterMap,
    ckpt: Option<SimDuration>,
    failures: Vec<(SimTime, Vec<Rank>)>,
) -> RunReport {
    let mut cfg = HydeeConfig::new(clusters).with_image_bytes(1 << 18);
    cfg.restart_latency = SimDuration::from_us(100);
    if let Some(interval) = ckpt {
        cfg = cfg.with_policy(CheckpointPolicyConfig::Periodic {
            interval,
            first: Some(SimTime::from_us(300)),
            stagger: Some(SimDuration::from_us(100)),
        });
    }
    let mut sim = Sim::new(app, SimConfig::default(), Hydee::new(cfg));
    for (at, ranks) in failures {
        sim.inject_failure(at, ranks);
    }
    sim.run()
}

fn assert_recovered(name: &str, golden: &RunReport, report: &RunReport, expect_rolled: u64) {
    assert!(report.completed(), "{name}: {:?}", report.status);
    assert!(
        report.trace.is_consistent(),
        "{name}: oracle violations {:?}",
        &report.trace.violations
    );
    assert_eq!(
        report.digests, golden.digests,
        "{name}: recovered state diverged from golden run"
    );
    assert_eq!(
        report.metrics.ranks_rolled_back, expect_rolled,
        "{name}: containment violated"
    );
    assert!(
        report.inbox_leftover.iter().all(|&l| l == 0),
        "{name}: leftover messages (duplicate deliveries): {:?}",
        report.inbox_leftover
    );
}

fn ring(n: u32, rounds: usize, bytes: u64) -> Application {
    let mut app = Application::new(n as usize);
    for round in 0..rounds {
        let tag = Tag((round % 3) as u32);
        for r in 0..n {
            app.rank_mut(Rank(r)).send(Rank((r + 1) % n), bytes, tag);
        }
        for r in 0..n {
            app.rank_mut(Rank(r)).recv(Rank((r + n - 1) % n), tag);
        }
    }
    app
}

#[test]
fn ring_failure_time_sweep() {
    let clusters = ClusterMap::blocks(8, 2);
    let golden = run_hydee(ring(8, 400, 4096), clusters.clone(), None, vec![]);
    assert!(golden.completed());
    for us in [1u64, 50, 150, 400, 900, 2000] {
        let report = run_hydee(
            ring(8, 400, 4096),
            clusters.clone(),
            None,
            vec![(SimTime::from_us(us), vec![Rank(2)])],
        );
        assert_recovered(&format!("ring@{us}us"), &golden, &report, 4);
    }
}

#[test]
fn ring_every_victim_recovers() {
    let clusters = ClusterMap::blocks(8, 4);
    let golden = run_hydee(ring(8, 80, 1024), clusters.clone(), None, vec![]);
    for victim in 0..8u32 {
        let report = run_hydee(
            ring(8, 80, 1024),
            clusters.clone(),
            None,
            vec![(SimTime::from_us(200), vec![Rank(victim)])],
        );
        assert_recovered(&format!("victim P{victim}"), &golden, &report, 2);
    }
}

#[test]
fn stencil_with_periodic_checkpoints() {
    let cfg = StencilConfig {
        n_ranks: 16,
        iterations: 60,
        face_bytes: 32 << 10,
        compute_per_iter: SimDuration::from_us(100),
        wildcard_recv: false,
    };
    let clusters = ClusterMap::blocks(16, 4);
    let golden = run_hydee(
        stencil_2d(&cfg),
        clusters.clone(),
        Some(SimDuration::from_ms(2)),
        vec![],
    );
    assert!(golden.completed());
    for ms in [1u64, 5, 9] {
        let report = run_hydee(
            stencil_2d(&cfg),
            clusters.clone(),
            Some(SimDuration::from_ms(2)),
            vec![(SimTime::from_ms(ms), vec![Rank(10)])],
        );
        assert_recovered(&format!("stencil@{ms}ms"), &golden, &report, 4);
    }
}

#[test]
fn stencil_wildcard_receives_recover() {
    // MPI_ANY_SOURCE receives + failure: the reception order differs on
    // replay, send-determinism keeps the outcome identical.
    let cfg = StencilConfig {
        n_ranks: 16,
        iterations: 40,
        face_bytes: 16 << 10,
        compute_per_iter: SimDuration::from_us(50),
        wildcard_recv: true,
    };
    let clusters = ClusterMap::blocks(16, 4);
    let golden = run_hydee(stencil_2d(&cfg), clusters.clone(), None, vec![]);
    let report = run_hydee(
        stencil_2d(&cfg),
        clusters.clone(),
        None,
        vec![(SimTime::from_us(700), vec![Rank(5)])],
    );
    assert_recovered("wildcard stencil", &golden, &report, 4);
}

#[test]
fn concurrent_failures_two_and_three_clusters() {
    let clusters = ClusterMap::blocks(12, 4); // clusters of 3
    let golden = run_hydee(ring(12, 90, 2048), clusters.clone(), None, vec![]);
    // Two clusters at once.
    let report = run_hydee(
        ring(12, 90, 2048),
        clusters.clone(),
        None,
        vec![(SimTime::from_us(300), vec![Rank(0), Rank(6)])],
    );
    assert_recovered("2 concurrent clusters", &golden, &report, 6);
    // Three clusters at once.
    let report = run_hydee(
        ring(12, 90, 2048),
        clusters.clone(),
        None,
        vec![(SimTime::from_us(300), vec![Rank(1), Rank(4), Rank(9)])],
    );
    assert_recovered("3 concurrent clusters", &golden, &report, 9);
    // Two failed ranks inside the SAME cluster: one rollback of 3.
    let report = run_hydee(
        ring(12, 90, 2048),
        clusters,
        None,
        vec![(SimTime::from_us(300), vec![Rank(3), Rank(5)])],
    );
    assert_recovered("2 ranks same cluster", &golden, &report, 3);
}

#[test]
fn sequential_failures_after_recovery() {
    let clusters = ClusterMap::blocks(8, 2);
    let golden = run_hydee(ring(8, 400, 2048), clusters.clone(), None, vec![]);
    // First failure early, second long after the first recovery finished
    // (recovery orchestration completes in well under a millisecond of
    // simulated time here).
    let report = run_hydee(
        ring(8, 400, 2048),
        clusters,
        None,
        vec![
            (SimTime::from_us(200), vec![Rank(1)]),
            (SimTime::from_us(1500), vec![Rank(6)]),
        ],
    );
    assert!(report.completed(), "{:?}", report.status);
    assert!(
        report.trace.is_consistent(),
        "{:?}",
        report.trace.violations
    );
    assert_eq!(report.digests, golden.digests);
    assert_eq!(
        report.metrics.ranks_rolled_back, 8,
        "4 + 4 across two failures"
    );
    assert_eq!(report.metrics.failures, 2);
}

#[test]
fn nas_cg_small_recovers() {
    let cfg = NasConfig {
        n_ranks: 16,
        iterations: 8,
        size_scale: 1e-3,
        compute_per_iter: SimDuration::from_us(100),
    };
    let clusters = ClusterMap::blocks(16, 4); // one cluster per grid row
    let golden = run_hydee(NasBench::CG.build(&cfg), clusters.clone(), None, vec![]);
    let report = run_hydee(
        NasBench::CG.build(&cfg),
        clusters,
        None,
        vec![(SimTime::from_ms(1), vec![Rank(13)])],
    );
    assert_recovered("CG 16", &golden, &report, 4);
}

#[test]
fn nas_bt_and_mg_small_recover() {
    for bench in [NasBench::BT, NasBench::MG] {
        let cfg = NasConfig {
            n_ranks: 16,
            iterations: 6,
            size_scale: 1e-3,
            compute_per_iter: SimDuration::from_us(100),
        };
        let clusters = ClusterMap::blocks(16, 4);
        let golden = run_hydee(bench.build(&cfg), clusters.clone(), None, vec![]);
        let report = run_hydee(
            bench.build(&cfg),
            clusters,
            None,
            vec![(SimTime::from_us(300), vec![Rank(7)])],
        );
        assert_recovered(bench.name(), &golden, &report, 4);
    }
}

#[test]
fn failure_of_done_rank_recovers() {
    // Rank finishes its program, then its cluster-mate's failure drags it
    // back: the Done rank must revive, re-execute, and finish again.
    let mut app = Application::new(4);
    // P0 sends one early message then is done; others keep chatting.
    app.rank_mut(Rank(0)).send(Rank(1), 1024, Tag(0));
    app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
    for _ in 0..100 {
        app.rank_mut(Rank(1)).send(Rank(2), 1024, Tag(1));
        app.rank_mut(Rank(2)).recv(Rank(1), Tag(1));
        app.rank_mut(Rank(2)).send(Rank(3), 1024, Tag(1));
        app.rank_mut(Rank(3)).recv(Rank(2), Tag(1));
        app.rank_mut(Rank(3)).send(Rank(1), 1024, Tag(1));
        app.rank_mut(Rank(1)).recv(Rank(3), Tag(1));
    }
    let clusters = ClusterMap::new(vec![0, 0, 1, 1]);
    let golden = {
        let sim = Sim::new(
            app.clone(),
            SimConfig::default(),
            Hydee::new(HydeeConfig::new(clusters.clone())),
        );
        sim.run()
    };
    let mut sim = Sim::new(
        app,
        SimConfig::default(),
        Hydee::new(HydeeConfig::new(clusters)),
    );
    // By 500us P0 is long done; failing P1 rolls the {0,1} cluster back.
    sim.inject_failure(SimTime::from_us(500), vec![Rank(1)]);
    let report = sim.run();
    assert!(report.completed(), "{:?}", report.status);
    assert_eq!(report.digests, golden.digests);
    assert_eq!(report.metrics.ranks_rolled_back, 2);
}
