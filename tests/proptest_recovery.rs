//! Property-based failure-injection testing: random send-deterministic
//! applications, random clusterings, random failure times and victims —
//! HydEE must always terminate, keep the trace oracle clean, reproduce the
//! golden digests, and roll back exactly the failed clusters.

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{Application, CheckpointPolicyConfig, ClusterMap, Rank, Sim, SimConfig, Tag};
use proptest::prelude::*;

/// One communication round: a set of directed edges. Ranks post all their
/// sends before their receives, so any round list yields a deadlock-free,
/// balanced application.
#[derive(Debug, Clone)]
struct RoundPlan {
    edges: Vec<(u8, u8, u16)>, // (src, dst, kilobytes-ish size seed)
}

fn arb_rounds(n_ranks: u8, max_rounds: usize) -> impl Strategy<Value = Vec<RoundPlan>> {
    let edge = (0..n_ranks, 0..n_ranks, 1u16..64).prop_filter_map("no self edges", |(a, b, s)| {
        if a == b {
            None
        } else {
            Some((a, b, s))
        }
    });
    prop::collection::vec(
        prop::collection::vec(edge, 1..5).prop_map(|edges| RoundPlan { edges }),
        1..max_rounds,
    )
}

fn build_app(n_ranks: u8, rounds: &[RoundPlan]) -> Application {
    let mut app = Application::new(n_ranks as usize);
    for (i, round) in rounds.iter().enumerate() {
        let tag = Tag(i as u32);
        for &(src, _, _) in &round.edges {
            // Small jitter so schedules vary between ranks.
            app.rank_mut(Rank(src as u32))
                .compute(SimDuration::from_ns(500 * (src as u64 + 1)));
        }
        for &(src, dst, size) in &round.edges {
            app.rank_mut(Rank(src as u32))
                .send(Rank(dst as u32), 64 * size as u64, tag);
        }
        for &(src, dst, _) in &round.edges {
            app.rank_mut(Rank(dst as u32)).recv(Rank(src as u32), tag);
        }
    }
    app
}

fn cluster_map(n_ranks: u8, k: u8) -> ClusterMap {
    ClusterMap::blocks(n_ranks as usize, k as usize)
}

fn hydee_cfg(map: ClusterMap) -> HydeeConfig {
    let mut cfg = HydeeConfig::new(map).with_image_bytes(1 << 16);
    cfg.restart_latency = SimDuration::from_us(20);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_apps_recover_exactly(
        rounds in arb_rounds(8, 20),
        k in 1u8..=8,
        victim in 0u8..8,
        fail_frac in 0.0f64..1.2,
    ) {
        let map = cluster_map(8, k);
        let golden = Sim::new(
            build_app(8, &rounds),
            SimConfig::default(),
            Hydee::new(hydee_cfg(map.clone())),
        )
        .run();
        prop_assert!(golden.completed(), "golden: {:?}", golden.status);

        let fail_at = SimTime::from_ps(
            (golden.makespan.as_ps() as f64 * fail_frac) as u64 + 1,
        );
        let mut sim = Sim::new(
            build_app(8, &rounds),
            SimConfig::default(),
            Hydee::new(hydee_cfg(map.clone())),
        );
        sim.inject_failure(fail_at, vec![Rank(victim as u32)]);
        let report = sim.run();
        prop_assert!(report.completed(), "failed run: {:?}", report.status);
        prop_assert!(
            report.trace.is_consistent(),
            "oracle: {:?}",
            report.trace.violations
        );
        prop_assert_eq!(&report.digests, &golden.digests, "state diverged");
        // Either the failure landed inside the run (cluster rolled back) or
        // after completion (nothing happened).
        let cluster_size = map
            .members(map.cluster_of(Rank(victim as u32)))
            .len() as u64;
        prop_assert!(
            report.metrics.ranks_rolled_back == cluster_size
                || report.metrics.ranks_rolled_back == 0,
            "rolled {} expected {} or 0",
            report.metrics.ranks_rolled_back,
            cluster_size
        );
    }

    #[test]
    fn random_concurrent_failures_recover(
        rounds in arb_rounds(8, 14),
        victims in prop::collection::btree_set(0u8..8, 1..=3),
        fail_us in 10u64..1500,
    ) {
        let map = cluster_map(8, 4); // clusters of 2
        let golden = Sim::new(
            build_app(8, &rounds),
            SimConfig::default(),
            Hydee::new(hydee_cfg(map.clone())),
        )
        .run();
        prop_assert!(golden.completed());
        let mut sim = Sim::new(
            build_app(8, &rounds),
            SimConfig::default(),
            Hydee::new(hydee_cfg(map)),
        );
        sim.inject_failure(
            SimTime::from_us(fail_us),
            victims.iter().map(|&v| Rank(v as u32)).collect(),
        );
        let report = sim.run();
        prop_assert!(report.completed(), "{:?}", report.status);
        prop_assert!(
            report.trace.is_consistent(),
            "oracle: {:?}",
            report.trace.violations
        );
        prop_assert_eq!(&report.digests, &golden.digests);
    }

    #[test]
    fn random_apps_recover_under_periodic_checkpoints(
        rounds in arb_rounds(6, 16),
        victim in 0u8..6,
        ckpt_us in 50u64..400,
        fail_us in 100u64..2000,
    ) {
        let map = cluster_map(6, 3);
        let cfg = hydee_cfg(map.clone()).with_policy(CheckpointPolicyConfig::Periodic {
            interval: SimDuration::from_us(ckpt_us),
            first: Some(SimTime::from_us(ckpt_us)),
            stagger: Some(SimDuration::from_us(7)),
        });
        let golden = Sim::new(
            build_app(6, &rounds),
            SimConfig::default(),
            Hydee::new(cfg.clone_for_test()),
        )
        .run();
        prop_assert!(golden.completed());
        let mut sim = Sim::new(
            build_app(6, &rounds),
            SimConfig::default(),
            Hydee::new(cfg),
        );
        sim.inject_failure(SimTime::from_us(fail_us), vec![Rank(victim as u32)]);
        let report = sim.run();
        prop_assert!(report.completed(), "{:?}", report.status);
        prop_assert!(
            report.trace.is_consistent(),
            "oracle: {:?}",
            report.trace.violations
        );
        prop_assert_eq!(&report.digests, &golden.digests);
    }
}

/// Helper so the checkpointed config can be used for both runs.
trait CloneForTest {
    fn clone_for_test(&self) -> Self;
}

impl CloneForTest for HydeeConfig {
    fn clone_for_test(&self) -> Self {
        self.clone()
    }
}
