//! Recovery stress under cascading failures (ISSUE 4 satellite 3):
//! a second failure striking while HydEE is mid-recovery must abort and
//! restart the orchestration, complete the run, contain the rollback to
//! the affected clusters, and never deadlock.
//!
//! The offset sweep drives the second failure across a dense range of
//! delays after the first, covering interleavings from
//! "restore-in-progress" through "reports half-filed" to
//! "recovery-finished-but-still-suppressing" — each a different abort
//! point for the re-entrant recovery path. The bounded-step guarantee is
//! asserted through a hard engine event cap: a livelocked recovery
//! (rollback ping-pong) would blow the cap and fail the completion
//! assertion rather than hang the suite.

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{
    Application, Cascade, CheckpointPolicyConfig, ClusterMap, FailureEvent, FixedSchedule, Rank,
    RunReport, Sim, SimConfig, Tag,
};

const N: u32 = 12;
const CLUSTER_SIZE: u64 = 3; // blocks(12, 4)

/// Hard cap standing in for the bounded-step assertion: well above any
/// legitimate run (clean runs here take ~1e5 events), far below forever.
const EVENT_CAP: u64 = 20_000_000;

fn ring(rounds: usize) -> Application {
    let mut app = Application::new(N as usize);
    for round in 0..rounds {
        let tag = Tag((round % 3) as u32);
        for r in 0..N {
            app.rank_mut(Rank(r)).send(Rank((r + 1) % N), 2048, tag);
        }
        for r in 0..N {
            app.rank_mut(Rank(r)).recv(Rank((r + N - 1) % N), tag);
        }
    }
    app
}

fn config() -> HydeeConfig {
    let mut cfg = HydeeConfig::new(ClusterMap::blocks(N as usize, 4)).with_image_bytes(1 << 18);
    cfg.restart_latency = SimDuration::from_us(100);
    cfg
}

fn sim_config() -> SimConfig {
    SimConfig {
        max_events: EVENT_CAP,
        ..Default::default()
    }
}

fn run(rounds: usize, failures: &[FailureEvent]) -> RunReport {
    let mut sim = Sim::new(ring(rounds), sim_config(), Hydee::new(config()));
    sim.set_failure_model(Box::new(FixedSchedule::new(failures.to_vec())));
    sim.run()
}

fn assert_recovered(name: &str, golden: &RunReport, report: &RunReport) {
    assert!(
        report.completed(),
        "{name}: did not complete (bounded-step cap or deadlock): {:?}",
        report.status
    );
    assert!(
        report.trace.is_consistent(),
        "{name}: oracle violations {:?}",
        report.trace.violations
    );
    assert_eq!(
        report.digests, golden.digests,
        "{name}: recovered state diverged from the failure-free run"
    );
    assert!(
        report.inbox_leftover.iter().all(|&l| l == 0),
        "{name}: duplicate deliveries: {:?}",
        report.inbox_leftover
    );
}

/// Second failure in a *different* cluster, swept across offsets that
/// land before, during, and after the first failure's recovery.
#[test]
fn second_failure_mid_recovery_other_cluster() {
    // 300 rounds -> ~1.6 ms clean makespan: every offset below lands
    // well inside the run.
    let golden = run(300, &[]);
    assert!(golden.completed());
    for delta_us in [1u64, 3, 7, 15, 25, 40, 60, 90, 130, 200, 350, 700] {
        let name = format!("cascade +{delta_us}us");
        let report = run(
            300,
            &[
                FailureEvent::at_us(300, vec![Rank(0)]),
                FailureEvent::at_us(300 + delta_us, vec![Rank(6)]),
            ],
        );
        assert_recovered(&name, &golden, &report);
        assert_eq!(report.metrics.failures, 2, "{name}");
        // Containment: each failure rolls back at most the union of the
        // two affected clusters (never the other two clusters).
        assert!(
            (2 * CLUSTER_SIZE..=3 * CLUSTER_SIZE).contains(&report.metrics.ranks_rolled_back),
            "{name}: rolled {} ranks, expected within [{}, {}]",
            report.metrics.ranks_rolled_back,
            2 * CLUSTER_SIZE,
            3 * CLUSTER_SIZE
        );
        assert!(report.metrics.lost_work > SimDuration::ZERO, "{name}");
    }
}

/// Second failure hitting the *same* cluster that is already rolling
/// back (repeated crash of a restarting node).
#[test]
fn second_failure_mid_recovery_same_cluster() {
    let golden = run(90, &[]);
    for delta_us in [1u64, 10, 50, 150, 400] {
        let name = format!("same-cluster +{delta_us}us");
        let report = run(
            90,
            &[
                FailureEvent::at_us(300, vec![Rank(1)]),
                FailureEvent::at_us(300 + delta_us, vec![Rank(2)]),
            ],
        );
        assert_recovered(&name, &golden, &report);
        // Both failures hit cluster {0,1,2}: it rolls back once per
        // failure, and only it.
        assert_eq!(report.metrics.failures, 2, "{name}");
        assert_eq!(
            report.metrics.ranks_rolled_back,
            2 * CLUSTER_SIZE,
            "{name}: containment violated"
        );
    }
}

/// Triple cascade: a third failure lands while the *second* recovery is
/// being orchestrated.
#[test]
fn triple_cascade_across_three_clusters() {
    let golden = run(90, &[]);
    let report = run(
        90,
        &[
            FailureEvent::at_us(300, vec![Rank(0)]),
            FailureEvent::at_us(330, vec![Rank(4)]),
            FailureEvent::at_us(360, vec![Rank(9)]),
        ],
    );
    assert_recovered("triple cascade", &golden, &report);
    assert_eq!(report.metrics.failures, 3);
    // Worst case: 1 + 2 + 3 clusters across the three recoveries.
    assert!(report.metrics.ranks_rolled_back <= 6 * CLUSTER_SIZE);
}

/// The `Cascade` failure model end-to-end: a fixed primary with
/// guaranteed follow-ups inside a window comparable to the recovery
/// span, driven twice for determinism.
#[test]
fn cascade_model_follow_ups_land_mid_recovery() {
    let golden = run(90, &[]);
    let drive = || {
        let base = FixedSchedule::new(vec![FailureEvent::at_us(300, vec![Rank(2)])]);
        let model = Cascade::new(
            Box::new(base),
            N as usize,
            SimDuration::from_us(120),
            1.0, // every failure spawns a follow-up...
            42,
        )
        .with_max_chain(2); // ...to depth 2: three failures total
        let mut sim = Sim::new(ring(90), sim_config(), Hydee::new(config()));
        sim.set_failure_model(Box::new(model));
        sim.run()
    };
    let report = drive();
    assert_recovered("cascade model", &golden, &report);
    assert_eq!(report.metrics.failures, 3);
    let again = drive();
    assert_eq!(report.digests, again.digests, "cascade model determinism");
    assert_eq!(report.metrics.events, again.metrics.events);
}

/// Cascades with periodic checkpoints: later checkpoints move the
/// restore point while failures keep arriving.
#[test]
fn cascade_with_periodic_checkpoints() {
    let cfg = config().with_policy(CheckpointPolicyConfig::Periodic {
        interval: SimDuration::from_ms(2),
        first: Some(SimTime::from_us(300)),
        stagger: Some(SimDuration::from_us(100)),
    });
    let golden = {
        let sim = Sim::new(ring(400), sim_config(), Hydee::new(cfg.clone()));
        sim.run()
    };
    assert!(golden.completed());
    // Clean makespan is ~3.6 ms; both injections stay inside it.
    for (t1_us, delta_us) in [(2500u64, 30u64), (2700, 80), (3000, 400)] {
        let name = format!("ckpt cascade @{t1_us}+{delta_us}us");
        let mut sim = Sim::new(ring(400), sim_config(), Hydee::new(cfg.clone()));
        sim.set_failure_model(Box::new(FixedSchedule::new(vec![
            FailureEvent::at_us(t1_us, vec![Rank(3)]),
            FailureEvent::at_us(t1_us + delta_us, vec![Rank(10)]),
        ])));
        let report = sim.run();
        assert_recovered(&name, &golden, &report);
        assert_eq!(report.metrics.failures, 2, "{name}");
    }
}
