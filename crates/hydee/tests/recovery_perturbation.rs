//! Recovery control-plane perturbation (DESIGN.md §2.8): the
//! `perturb_seed` tie-break covers *recovery* control traffic, not just
//! app deliveries. During a HydEE recovery the orchestrator floods
//! same-timestamp control arrivals — rollback orders, suppression
//! notices, replayed log entries, restart completions — and a cascade
//! landing mid-recovery races a second wave against the first. With a
//! seed set, the ordering of every same-time control tie is permuted
//! (classes survive: app still sorts before control at one instant);
//! nothing observable may move. Digests, makespan, the containment
//! integers, checkpoint counts and the replay/suppression totals must
//! be bit-for-bit invariant across every seed, or the recovery path
//! depends on scheduler interleaving — exactly the bug class the
//! content-derived keyspace exists to rule out.

use det_sim::SimDuration;
use hydee::{Hydee, HydeeConfig};
use mps_sim::{
    Application, Cascade, ClusterMap, FailureEvent, FixedSchedule, Rank, RunReport, Sim, SimConfig,
    Tag,
};
use proptest::prelude::*;

const N: u32 = 12;

/// Hard cap standing in for the bounded-step assertion (cf.
/// `cascade_stress.rs`): a livelocked recovery blows the cap and fails
/// the completion assertion rather than hanging the suite.
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

fn sim_config(perturb_seed: Option<u64>) -> SimConfig {
    SimConfig {
        max_events: EVENT_CAP,
        perturb_seed,
        ..Default::default()
    }
}

fn run(rounds: usize, failures: &[FailureEvent], perturb_seed: Option<u64>) -> RunReport {
    let mut sim = Sim::new(ring(rounds), sim_config(perturb_seed), Hydee::new(config()));
    sim.set_failure_model(Box::new(FixedSchedule::new(failures.to_vec())));
    sim.run()
}

/// Everything a perturbed recovery is allowed to differ in: nothing.
fn assert_identical(name: &str, base: &RunReport, perturbed: &RunReport) {
    assert!(
        base.completed() && perturbed.completed(),
        "{name}: base {:?} / perturbed {:?}",
        base.status,
        perturbed.status
    );
    assert!(
        perturbed.trace.is_consistent(),
        "{name}: oracle violations {:?}",
        perturbed.trace.violations
    );
    assert_eq!(base.digests, perturbed.digests, "{name}: digests moved");
    assert_eq!(base.makespan, perturbed.makespan, "{name}: makespan moved");
    let (b, p) = (&base.metrics, &perturbed.metrics);
    assert_eq!(b.failures, p.failures, "{name}");
    assert_eq!(b.failed_ranks, p.failed_ranks, "{name}");
    assert_eq!(b.ranks_rolled_back, p.ranks_rolled_back, "{name}");
    assert_eq!(b.checkpoints, p.checkpoints, "{name}");
    assert_eq!(b.replayed_messages, p.replayed_messages, "{name}");
    assert_eq!(b.suppressed_sends, p.suppressed_sends, "{name}");
    assert_eq!(b.lost_work, p.lost_work, "{name}");
    assert_eq!(b.recovery_time, p.recovery_time, "{name}");
    assert_eq!(
        base.inbox_leftover, perturbed.inbox_leftover,
        "{name}: duplicate deliveries"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A two-failure cascade at a random offset: the second recovery's
    /// control wave races the first's, and the perturbation permutes
    /// every same-time tie between them.
    #[test]
    fn cascading_recovery_is_invariant_under_perturbation(
        t1_us in 250u64..450,
        delta_us in 1u64..150,
        r1 in 0u32..N,
        r2 in 0u32..N,
        seed in any::<u64>(),
    ) {
        let failures = [
            FailureEvent::at_us(t1_us, vec![Rank(r1)]),
            FailureEvent::at_us(t1_us + delta_us, vec![Rank(r2)]),
        ];
        let base = run(90, &failures, None);
        let perturbed = run(90, &failures, Some(seed));
        assert_identical(
            &format!("cascade @{t1_us}+{delta_us}us r{r1}/r{r2} seed={seed}"),
            &base,
            &perturbed,
        );
    }

    /// The stochastic `Cascade` model end-to-end: follow-up failures at
    /// model-chosen times, three perturbation seeds against one base.
    #[test]
    fn cascade_model_recovery_is_invariant_across_seeds(
        fail_seed in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 3),
    ) {
        let drive = |perturb: Option<u64>| {
            let base = FixedSchedule::new(vec![FailureEvent::at_us(300, vec![Rank(2)])]);
            let model = Cascade::new(
                Box::new(base),
                N as usize,
                SimDuration::from_us(120),
                1.0,
                fail_seed,
            )
            .with_max_chain(2);
            let mut sim = Sim::new(ring(90), sim_config(perturb), Hydee::new(config()));
            sim.set_failure_model(Box::new(model));
            sim.run()
        };
        let base = drive(None);
        for seed in seeds {
            let perturbed = drive(Some(seed));
            assert_identical(&format!("cascade model seed={seed}"), &base, &perturbed);
        }
    }
}
