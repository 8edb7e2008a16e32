//! Global coordinated checkpointing — the classic baseline (§II, \[11\]).
//!
//! All processes checkpoint together (one consistent global cut including
//! channel state) and a failure of *any* process rolls back *all* of them
//! to the last checkpoint. No logging, no piggybacking, no recovery
//! choreography — but zero failure containment and a full-width I/O burst
//! at every checkpoint.

use det_sim::{SimDuration, SimTime};
use mps_sim::{
    CheckpointPolicy, CheckpointPolicyConfig, Ctx, InFlightMsg, PolicyObs, Protocol, Rank,
    RankSnapshot,
};
use net_model::{StableStorage, StorageLedger, Topology};

/// Configuration for [`GlobalCoordinated`].
#[derive(Debug, Clone)]
pub struct CoordinatedConfig {
    pub storage: StableStorage,
    /// Checkpoint-scheduling policy (DESIGN.md §2.4). The machine is
    /// one policy "cluster" (id 0), so a stagger never applies.
    /// `Disabled` (the default) keeps only the implicit initial
    /// checkpoint at t=0.
    pub checkpoint_policy: CheckpointPolicyConfig,
    /// Per-rank process image bytes written at each checkpoint.
    pub image_bytes: u64,
    /// Fixed restart latency at rollback.
    pub restart_latency: SimDuration,
}

impl Default for CoordinatedConfig {
    fn default() -> Self {
        CoordinatedConfig {
            storage: StableStorage::default(),
            checkpoint_policy: CheckpointPolicyConfig::Disabled,
            image_bytes: 64 << 20,
            restart_latency: SimDuration::from_ms(10),
        }
    }
}

#[derive(Default)]
struct GlobalCheckpoint {
    taken_at: SimTime,
    snaps: Vec<RankSnapshot>,
    inflight: Vec<InFlightMsg>,
    bytes: u64,
}

/// The protocol.
pub struct GlobalCoordinated {
    cfg: CoordinatedConfig,
    last: Option<GlobalCheckpoint>,
    /// Time of the previous rollback (`ZERO` = none): lost-work
    /// accounting counts each discarded span once, so a cascade re-roll
    /// adds only the work redone since the prior rollback.
    last_rollback_at: SimTime,
    n: usize,
    /// Checkpoint scheduler; the whole machine is policy cluster 0.
    policy: Option<Box<dyn CheckpointPolicy>>,
    /// Dynamic storage-contention ledger: the machine-wide write burst
    /// and the restart read are priced by actual virtual-time overlap,
    /// from the same mechanism as HydEE's staggered clusters.
    ledger: StorageLedger,
    last_ckpt_cost: SimDuration,
    ckpts_taken: u64,
}

impl GlobalCoordinated {
    pub fn new(cfg: CoordinatedConfig) -> Self {
        let policy = cfg.checkpoint_policy.build();
        let ledger = StorageLedger::new(cfg.storage);
        GlobalCoordinated {
            cfg,
            last: None,
            last_rollback_at: SimTime::ZERO,
            n: 0,
            policy,
            ledger,
            last_ckpt_cost: SimDuration::ZERO,
            ckpts_taken: 0,
        }
    }

    /// Route the storage ledger through `topology`'s drain path
    /// (DESIGN.md §2.9): the machine-wide checkpoint burst pays the
    /// topology's widest link class on its way to stable storage. A
    /// no-op on a flat topology. Call before the run starts.
    pub fn drain_through(&mut self, topology: &Topology) {
        self.ledger = self.ledger.draining_through(topology);
    }

    fn obs(&self, ctx: &Ctx<'_, ()>) -> PolicyObs {
        PolicyObs {
            checkpoints_taken: self.ckpts_taken,
            last_cost: self.last_ckpt_cost,
            est_cost: self
                .cfg
                .storage
                .write_time((self.n as u64).saturating_mul(self.cfg.image_bytes), 1),
            mtbf: ctx.failure_mtbf(),
            // No sender logs under coordinated checkpointing: a
            // LogPressure policy never fires here.
            log_bytes_since_ckpt: 0,
        }
    }

    /// Consult the policy as of `now` and arm the (single) timer.
    fn consult_policy(&mut self, ctx: &mut Ctx<'_, ()>, now: SimTime) {
        let obs = self.obs(ctx);
        if let Some(policy) = self.policy.as_mut() {
            if let Some(at) = policy.next_for(0, now, &obs) {
                ctx.set_timer(at.max(ctx.now()), 0);
            }
        }
    }

    fn all_ranks(&self) -> Vec<Rank> {
        (0..self.n as u32).map(Rank).collect()
    }

    /// Capture the global cut into `self.last`, overwriting the previous
    /// checkpoint in place, and return its bytes.
    fn capture(&mut self, ctx: &mut Ctx<'_, ()>) -> u64 {
        let ranks = self.all_ranks();
        let ckpt = self.last.get_or_insert_with(Default::default);
        ctx.capture_inflight_into(&ranks, &mut ckpt.inflight);
        ckpt.snaps.resize_with(ranks.len(), Default::default);
        let mut bytes = 0;
        for (&r, snap) in ranks.iter().zip(&mut ckpt.snaps) {
            ctx.capture_rank_into(r, snap, |_| true);
            bytes += self.cfg.image_bytes + snap.image_bytes();
        }
        ckpt.taken_at = ctx.now();
        ckpt.bytes = bytes;
        bytes
    }
}

impl Protocol for GlobalCoordinated {
    type Ctl = ();

    fn name(&self) -> &'static str {
        "coordinated"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, ()>) {
        self.n = ctx.n_ranks();
        // Implicit cost-free initial checkpoint.
        self.capture(ctx);
        self.consult_policy(ctx, ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _id: u64) {
        let ckpt_bytes = self.capture(ctx);
        // Every rank writes simultaneously — the full-width I/O burst
        // the paper's §VI warns about, priced as one machine-wide batch
        // on the shared pipe (and queued behind anything it overlaps).
        let write = self.ledger.write_batch(ctx.now(), ckpt_bytes);
        // Global coordination barrier: two tree traversals of the machine.
        let levels = (usize::BITS - (self.n.max(1) - 1).leading_zeros()) as u64;
        let coord = ctx.wire_cost(32).one_way() * (2 * levels.max(1));
        let cost = coord + write.total();
        for r in self.all_ranks() {
            ctx.charge(r, cost);
        }
        let now = ctx.now();
        if let Some(rec) = ctx.recorder() {
            rec.on_storage(
                mps_sim::StorageDir::Write,
                now,
                write.queued,
                write.service,
                ckpt_bytes,
            );
            // The whole machine is one containment domain: cluster 0.
            rec.on_checkpoint(0, now, now + cost, ckpt_bytes);
        }
        ctx.metrics().checkpoints += self.n as u64;
        ctx.metrics().checkpoint_bytes += ckpt_bytes;
        ctx.metrics().checkpoint_time += cost * self.n as u64;
        self.last_ckpt_cost = cost;
        self.ckpts_taken += 1;
        // Consult the policy after the write completes (see
        // hydee::protocol) so a checkpoint costing more than the
        // interval cannot livelock.
        let resume = self
            .all_ranks()
            .into_iter()
            .map(|r| ctx.clock(r))
            .max()
            .unwrap_or_else(|| ctx.now());
        self.consult_policy(ctx, resume);
    }

    fn on_failure(&mut self, ctx: &mut Ctx<'_, ()>, _failed: &[Rank]) {
        let started = ctx.now();
        let ranks = self.all_ranks();
        ctx.metrics().ranks_rolled_back += self.n as u64;
        // Everything in flight addresses pre-failure state: drop it all,
        // the checkpoint's channel state replaces it.
        ctx.drop_inflight_to(&ranks);
        let ckpt = self.last.as_ref().expect("no global checkpoint");
        let lost_from = ckpt.taken_at.max(self.last_rollback_at);
        ctx.metrics().lost_work += started.since(lost_from) * self.n as u64;
        self.last_rollback_at = started;
        // One machine-wide restart-read batch: priced by the exact
        // checkpoint total (the old `bytes / n × n readers` dropped the
        // remainder) plus whatever it overlaps.
        let total = ckpt.bytes;
        let read = self.ledger.read_batch(started, total);
        for (i, snap) in ckpt.snaps.iter().enumerate() {
            ctx.restore_rank(Rank(i as u32), snap, false);
            ctx.charge(Rank(i as u32), self.cfg.restart_latency + read.total());
        }
        ctx.inject_inflight(&ckpt.inflight);
        if let Some(rec) = ctx.recorder() {
            rec.on_storage(
                mps_sim::StorageDir::Read,
                started,
                read.queued,
                read.service,
                total,
            );
            // No log replay under coordinated checkpointing: recovery is
            // detect → machine-wide rollback → complete on cluster 0.
            let restored = started + self.cfg.restart_latency + read.total();
            rec.on_recovery_phase(0, mps_sim::RecoveryPhase::Detect, started, started);
            rec.on_recovery_phase(0, mps_sim::RecoveryPhase::Rollback, started, restored);
            rec.on_recovery_phase(0, mps_sim::RecoveryPhase::Complete, restored, restored);
        }
        let span = ctx.now().since(started);
        ctx.metrics().recovery_time += span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::{Application, Sim, SimConfig, Tag};

    fn ring_app(n: u32, rounds: usize) -> Application {
        let mut app = Application::new(n as usize);
        for r in 0..n {
            let next = Rank((r + 1) % n);
            let prev = Rank((r + n - 1) % n);
            for _ in 0..rounds {
                app.rank_mut(Rank(r)).send(next, 1024, Tag(0));
                app.rank_mut(Rank(r)).recv(prev, Tag(0));
            }
        }
        app
    }

    #[test]
    fn failure_free_adds_no_message_overhead() {
        let report = Sim::new(
            ring_app(8, 20),
            SimConfig::default(),
            GlobalCoordinated::new(CoordinatedConfig::default()),
        )
        .run();
        assert!(report.completed());
        // No piggyback: wire bytes == payload bytes.
        assert_eq!(report.metrics.wire_bytes, report.metrics.app_bytes);
        assert_eq!(report.metrics.logged_bytes_cumulative, 0);
    }

    #[test]
    fn failure_rolls_back_everyone() {
        let mut sim = Sim::new(
            ring_app(8, 100),
            SimConfig::default(),
            GlobalCoordinated::new(CoordinatedConfig::default()),
        );
        sim.inject_failure(SimTime::from_us(100), vec![Rank(3)]);
        let report = sim.run();
        assert!(report.completed(), "{:?}", report.status);
        assert_eq!(report.metrics.ranks_rolled_back, 8, "no containment");
        assert!(report.trace.is_consistent());
    }

    #[test]
    fn digests_match_golden_after_recovery() {
        let golden = Sim::new(
            ring_app(6, 60),
            SimConfig::default(),
            GlobalCoordinated::new(CoordinatedConfig::default()),
        )
        .run();
        let mut sim = Sim::new(
            ring_app(6, 60),
            SimConfig::default(),
            GlobalCoordinated::new(CoordinatedConfig::default()),
        );
        sim.inject_failure(SimTime::from_us(400), vec![Rank(0)]);
        let report = sim.run();
        assert!(report.completed());
        assert_eq!(report.digests, golden.digests);
    }

    #[test]
    fn periodic_checkpoints_reduce_lost_work() {
        // With periodic checkpoints the failure rolls back to a later cut,
        // so the recovered run finishes sooner than restart-from-zero.
        let mk = |interval: Option<SimDuration>| {
            let mut cfg = CoordinatedConfig {
                checkpoint_policy: match interval {
                    Some(interval) => CheckpointPolicyConfig::Periodic {
                        interval,
                        first: Some(SimTime::from_us(200)),
                        stagger: None,
                    },
                    None => CheckpointPolicyConfig::Disabled,
                },
                // Keep checkpoints cheap relative to the interval.
                image_bytes: 4 << 10,
                restart_latency: SimDuration::from_us(10),
                ..Default::default()
            };
            cfg.storage.latency = SimDuration::from_us(10);
            let mut sim = Sim::new(
                ring_app(4, 2000),
                SimConfig::default(),
                GlobalCoordinated::new(cfg),
            );
            sim.inject_failure(SimTime::from_ms(4), vec![Rank(1)]);
            sim.run()
        };
        let without = mk(None);
        let with = mk(Some(SimDuration::from_us(500)));
        assert!(without.completed() && with.completed());
        assert!(
            with.makespan < without.makespan,
            "with={} without={}",
            with.makespan,
            without.makespan
        );
        assert!(with.metrics.checkpoints > 0);
    }

    #[test]
    fn young_daly_policy_drives_the_global_schedule() {
        use mps_sim::{CheckpointPolicyConfig, PoissonPerRank};
        let mk = |with_failures: bool| {
            let mut cfg = CoordinatedConfig {
                checkpoint_policy: CheckpointPolicyConfig::YoungDaly {
                    first: Some(SimTime::from_us(200)),
                    stagger: None,
                },
                image_bytes: 4 << 10,
                restart_latency: SimDuration::from_us(10),
                ..Default::default()
            };
            cfg.storage.latency = SimDuration::from_us(10);
            let mut sim = Sim::new(
                ring_app(4, 2000),
                SimConfig::default(),
                GlobalCoordinated::new(cfg),
            );
            if with_failures {
                sim.set_failure_model(Box::new(
                    PoissonPerRank::new(4, SimDuration::from_ms(20), 5).with_max_failures(1),
                ));
            }
            sim.run()
        };
        let clean = mk(false);
        assert!(clean.completed());
        assert_eq!(clean.metrics.checkpoints, 0, "no failure rate, no schedule");
        let failing = mk(true);
        assert!(failing.completed(), "{:?}", failing.status);
        assert!(failing.metrics.checkpoints > 0);
        assert!(failing.metrics.checkpoint_time > SimDuration::ZERO);
        assert!(failing.metrics.waste_fraction(4) > 0.0);
    }

    #[test]
    fn failure_of_multiple_ranks_recovers() {
        let mut sim = Sim::new(
            ring_app(8, 100),
            SimConfig::default(),
            GlobalCoordinated::new(CoordinatedConfig::default()),
        );
        sim.inject_failure(SimTime::from_us(100), vec![Rank(1), Rank(5)]);
        let report = sim.run();
        assert!(report.completed());
        assert_eq!(report.metrics.ranks_rolled_back, 8);
    }
}
