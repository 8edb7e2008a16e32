//! Garbage collection safety and engine/protocol edge cases.

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{Application, CheckpointPolicyConfig, ClusterMap, Rank, Sim, SimConfig, Tag};

fn chatter(n: u32, rounds: usize, bytes: u64) -> Application {
    // Ring with both directions so every channel carries traffic.
    let mut app = Application::new(n as usize);
    for round in 0..rounds {
        let tag = Tag((round % 3) as u32);
        for r in 0..n {
            app.rank_mut(Rank(r)).send(Rank((r + 1) % n), bytes, tag);
            app.rank_mut(Rank(r))
                .send(Rank((r + n - 1) % n), bytes, tag);
        }
        for r in 0..n {
            app.rank_mut(Rank(r)).recv(Rank((r + n - 1) % n), tag);
            app.rank_mut(Rank(r)).recv(Rank((r + 1) % n), tag);
        }
    }
    app
}

fn cfg_with_gc(gc: bool) -> HydeeConfig {
    let mut cfg = HydeeConfig::new(ClusterMap::blocks(8, 4))
        .with_image_bytes(1 << 16)
        .with_policy(CheckpointPolicyConfig::Periodic {
            interval: SimDuration::from_us(150),
            first: Some(SimTime::from_us(150)),
            stagger: Some(SimDuration::from_us(20)),
        });
    cfg.restart_latency = SimDuration::from_us(20);
    if !gc {
        cfg = cfg.without_gc();
    }
    cfg
}

/// The critical GC safety property: pruning a sender's log on a
/// checkpoint acknowledgement must never discard a message that a later
/// rollback still needs. Sweep failure times across many checkpoint/GC
/// epochs; every recovery must still be exact.
#[test]
fn gc_never_prunes_messages_a_rollback_needs() {
    let golden = Sim::new(
        chatter(8, 300, 2048),
        SimConfig::default(),
        Hydee::new(cfg_with_gc(true)),
    )
    .run();
    assert!(golden.completed());
    assert!(
        golden.metrics.gc_reclaimed_messages > 0,
        "test vacuous: GC never fired"
    );
    for us in [200u64, 500, 800, 1200, 1800, 2500] {
        let mut sim = Sim::new(
            chatter(8, 300, 2048),
            SimConfig::default(),
            Hydee::new(cfg_with_gc(true)),
        );
        sim.inject_failure(SimTime::from_us(us), vec![Rank(4)]);
        let report = sim.run();
        assert!(report.completed(), "@{us}us: {:?}", report.status);
        assert!(
            report.trace.is_consistent(),
            "@{us}us: {:?}",
            report.trace.violations
        );
        assert_eq!(report.digests, golden.digests, "@{us}us");
    }
}

#[test]
fn gc_reclaims_what_no_gc_keeps() {
    let with_gc = Sim::new(
        chatter(8, 300, 2048),
        SimConfig::default(),
        Hydee::new(cfg_with_gc(true)),
    )
    .run();
    let without = Sim::new(
        chatter(8, 300, 2048),
        SimConfig::default(),
        Hydee::new(cfg_with_gc(false)),
    )
    .run();
    assert!(with_gc.completed() && without.completed());
    assert_eq!(
        with_gc.metrics.logged_bytes_cumulative,
        without.metrics.logged_bytes_cumulative
    );
    assert!(with_gc.metrics.gc_reclaimed_bytes > 0);
    assert_eq!(without.metrics.gc_reclaimed_bytes, 0);
    assert!(
        with_gc.metrics.logged_bytes_peak < without.metrics.logged_bytes_peak,
        "GC must lower the peak: {} vs {}",
        with_gc.metrics.logged_bytes_peak,
        without.metrics.logged_bytes_peak
    );
}

#[test]
fn whole_cluster_fails_at_once() {
    let golden = Sim::new(
        chatter(8, 100, 1024),
        SimConfig::default(),
        Hydee::new(cfg_with_gc(true)),
    )
    .run();
    let mut sim = Sim::new(
        chatter(8, 100, 1024),
        SimConfig::default(),
        Hydee::new(cfg_with_gc(true)),
    );
    // Both members of cluster {2,3} die together.
    sim.inject_failure(SimTime::from_us(400), vec![Rank(2), Rank(3)]);
    let report = sim.run();
    assert!(report.completed(), "{:?}", report.status);
    assert_eq!(report.digests, golden.digests);
    assert_eq!(report.metrics.ranks_rolled_back, 2);
}

#[test]
fn failure_at_time_zero() {
    // Rollback before anything executed: recovery from the initial
    // checkpoint with no orphans and no logs.
    let golden = Sim::new(
        chatter(8, 50, 512),
        SimConfig::default(),
        Hydee::new(cfg_with_gc(true)),
    )
    .run();
    let mut sim = Sim::new(
        chatter(8, 50, 512),
        SimConfig::default(),
        Hydee::new(cfg_with_gc(true)),
    );
    sim.inject_failure(SimTime::from_ps(1), vec![Rank(0)]);
    let report = sim.run();
    assert!(report.completed(), "{:?}", report.status);
    assert_eq!(report.digests, golden.digests);
}

#[test]
fn single_rank_cluster_failure() {
    // A cluster of one: failure containment degenerates to pure message
    // logging for that rank.
    let clusters = ClusterMap::new(vec![0, 1, 1, 1]);
    let mut app = Application::new(4);
    for round in 0..60 {
        let tag = Tag(round % 2);
        app.rank_mut(Rank(0)).send(Rank(1), 4096, tag);
        app.rank_mut(Rank(1)).recv(Rank(0), tag);
        app.rank_mut(Rank(1)).send(Rank(2), 512, tag);
        app.rank_mut(Rank(2)).recv(Rank(1), tag);
        app.rank_mut(Rank(2)).send(Rank(0), 4096, tag);
        app.rank_mut(Rank(0)).recv(Rank(2), tag);
    }
    let mut cfg = HydeeConfig::new(clusters);
    cfg.restart_latency = SimDuration::from_us(20);
    let golden = {
        let c = cfg.clone();
        Sim::new(app.clone(), SimConfig::default(), Hydee::new(c)).run()
    };
    let mut sim = Sim::new(app, SimConfig::default(), Hydee::new(cfg));
    sim.inject_failure(SimTime::from_us(300), vec![Rank(0)]);
    let report = sim.run();
    assert!(report.completed(), "{:?}", report.status);
    assert_eq!(report.digests, golden.digests);
    assert_eq!(report.metrics.ranks_rolled_back, 1, "perfect containment");
}

#[test]
fn empty_and_compute_only_programs() {
    // Ranks with nothing to do (or compute only) coexist with failures.
    let mut app = Application::new(4);
    app.rank_mut(Rank(1)).compute(SimDuration::from_ms(1));
    for _ in 0..40 {
        app.rank_mut(Rank(2)).send(Rank(3), 1024, Tag(0));
        app.rank_mut(Rank(3)).recv(Rank(2), Tag(0));
        app.rank_mut(Rank(3)).send(Rank(2), 1024, Tag(0));
        app.rank_mut(Rank(2)).recv(Rank(3), Tag(0));
    }
    let clusters = ClusterMap::new(vec![0, 0, 1, 1]);
    let mut cfg = HydeeConfig::new(clusters);
    cfg.restart_latency = SimDuration::from_us(10);
    let golden = {
        let c = cfg.clone();
        Sim::new(app.clone(), SimConfig::default(), Hydee::new(c)).run()
    };
    let mut sim = Sim::new(app, SimConfig::default(), Hydee::new(cfg));
    sim.inject_failure(SimTime::from_us(100), vec![Rank(3)]);
    let report = sim.run();
    assert!(report.completed(), "{:?}", report.status);
    assert_eq!(report.digests, golden.digests);
    assert_eq!(report.metrics.ranks_rolled_back, 2);
}

#[test]
fn large_cluster_count_and_tiny_messages() {
    // Stress matching with 1-byte messages across 8 singleton clusters.
    let mut app = Application::new(8);
    for round in 0..50 {
        let tag = Tag(round % 4);
        for r in 0..8u32 {
            app.rank_mut(Rank(r)).send(Rank((r + 3) % 8), 1, tag);
        }
        for r in 0..8u32 {
            app.rank_mut(Rank(r)).recv(Rank((r + 5) % 8), tag);
        }
    }
    let mut cfg = HydeeConfig::new(ClusterMap::per_rank(8));
    cfg.restart_latency = SimDuration::from_us(10);
    let golden = {
        let c = cfg.clone();
        Sim::new(app.clone(), SimConfig::default(), Hydee::new(c)).run()
    };
    let mut sim = Sim::new(app, SimConfig::default(), Hydee::new(cfg));
    sim.inject_failure(SimTime::from_us(100), vec![Rank(6)]);
    let report = sim.run();
    assert!(report.completed(), "{:?}", report.status);
    assert_eq!(report.digests, golden.digests);
    assert_eq!(report.metrics.ranks_rolled_back, 1);
}
