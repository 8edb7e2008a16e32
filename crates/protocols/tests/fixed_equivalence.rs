//! Equivalence oracle (ISSUE 4 acceptance): driving failures through the
//! lazy `FixedSchedule` model reproduces the old eager
//! `Sim::inject_failure` list path **bit-for-bit** — digests, makespan
//! and event counts — across protocols, schedules (single, concurrent,
//! sequential multi-failure) and checkpoint regimes. This is what
//! licenses replacing the static failure list with the model API while
//! keeping every PR 3 golden digest valid.

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{
    Application, CheckpointPolicyConfig, ClusterMap, FailureEvent, FixedSchedule, NullProtocol,
    Rank, RunReport, Sim, SimConfig, Tag,
};
use protocols::{CoordinatedConfig, GlobalCoordinated};

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

fn schedules() -> Vec<Vec<FailureEvent>> {
    vec![
        vec![],
        // Single mid-run failure.
        vec![FailureEvent::at_us(300, vec![Rank(2)])],
        // Concurrent multi-rank failure.
        vec![FailureEvent::at_us(300, vec![Rank(0), Rank(5)])],
        // Sequential failures (second long after the first recovery).
        vec![
            FailureEvent::at_us(200, vec![Rank(1)]),
            FailureEvent::at_us(1500, vec![Rank(6)]),
        ],
        // Three failures, deliberately constructed unsorted.
        vec![
            FailureEvent::at_us(900, vec![Rank(3)]),
            FailureEvent::at_us(250, vec![Rank(7)]),
            FailureEvent::at_us(2000, vec![Rank(0)]),
        ],
    ]
}

fn assert_equivalent(name: &str, eager: &RunReport, lazy: &RunReport) {
    assert_eq!(
        eager.digests, lazy.digests,
        "{name}: digests diverged between inject_failure and FixedSchedule"
    );
    assert_eq!(eager.makespan, lazy.makespan, "{name}: makespan diverged");
    assert_eq!(
        eager.metrics.events, lazy.metrics.events,
        "{name}: event count diverged"
    );
    assert_eq!(eager.metrics.failures, lazy.metrics.failures, "{name}");
    assert_eq!(
        eager.metrics.ranks_rolled_back, lazy.metrics.ranks_rolled_back,
        "{name}"
    );
    assert_eq!(eager.status, lazy.status, "{name}: status diverged");
}

#[test]
fn hydee_fixed_schedule_matches_inject_failure() {
    let clusters = ClusterMap::blocks(8, 2);
    let mk = |ckpt: Option<SimDuration>| {
        let mut cfg = HydeeConfig::new(clusters.clone()).with_image_bytes(1 << 18);
        cfg.restart_latency = SimDuration::from_us(100);
        if let Some(interval) = ckpt {
            cfg = cfg.with_policy(CheckpointPolicyConfig::Periodic {
                interval,
                first: Some(SimTime::from_us(300)),
                stagger: Some(SimDuration::from_us(100)),
            });
        }
        Hydee::new(cfg)
    };
    for ckpt in [None, Some(SimDuration::from_ms(1))] {
        for (i, schedule) in schedules().into_iter().enumerate() {
            let eager = {
                let mut sim = Sim::new(ring(8, 400, 2048), SimConfig::default(), mk(ckpt));
                for ev in &schedule {
                    sim.inject_failure(ev.at, ev.ranks.clone());
                }
                sim.run()
            };
            let lazy = {
                let mut sim = Sim::new(ring(8, 400, 2048), SimConfig::default(), mk(ckpt));
                sim.set_failure_model(Box::new(FixedSchedule::new(schedule)));
                sim.run()
            };
            assert!(eager.completed(), "hydee/{ckpt:?}/{i}: {:?}", eager.status);
            assert_equivalent(&format!("hydee/ckpt={ckpt:?}/schedule {i}"), &eager, &lazy);
        }
    }
}

#[test]
fn coordinated_fixed_schedule_matches_inject_failure() {
    let mk = || {
        GlobalCoordinated::new(CoordinatedConfig {
            image_bytes: 1 << 18,
            restart_latency: SimDuration::from_us(100),
            ..Default::default()
        })
    };
    for (i, schedule) in schedules().into_iter().enumerate() {
        let eager = {
            let mut sim = Sim::new(ring(8, 200, 1024), SimConfig::default(), mk());
            for ev in &schedule {
                sim.inject_failure(ev.at, ev.ranks.clone());
            }
            sim.run()
        };
        let lazy = {
            let mut sim = Sim::new(ring(8, 200, 1024), SimConfig::default(), mk());
            sim.set_failure_model(Box::new(FixedSchedule::new(schedule)));
            sim.run()
        };
        assert!(eager.completed(), "coordinated/{i}: {:?}", eager.status);
        assert_equivalent(&format!("coordinated/schedule {i}"), &eager, &lazy);
    }
}

#[test]
fn native_fixed_schedule_matches_inject_failure() {
    // No recovery: failed runs deadlock identically on both paths.
    for (i, schedule) in schedules().into_iter().enumerate() {
        let eager = {
            let mut sim = Sim::new(ring(8, 50, 512), SimConfig::default(), NullProtocol);
            for ev in &schedule {
                sim.inject_failure(ev.at, ev.ranks.clone());
            }
            sim.run()
        };
        let lazy = {
            let mut sim = Sim::new(ring(8, 50, 512), SimConfig::default(), NullProtocol);
            sim.set_failure_model(Box::new(FixedSchedule::new(schedule)));
            sim.run()
        };
        assert_equivalent(&format!("native/schedule {i}"), &eager, &lazy);
    }
}
