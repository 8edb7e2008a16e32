//! A checkpoint is written over the previous checkpoint of its cluster,
//! and a rollback over the live state, both by `clone_from`. This test
//! shrinks a member's sender log, RPP and inbox between two checkpoints
//! (GC pruning and a drained inbox), grows its peer set after the second
//! one, then fails the cluster. Whatever the first checkpoint or the live
//! state held beyond the second checkpoint must not survive into the
//! restored state: the expected values below were produced by a
//! checkpoint that captured every table afresh.

use det_sim::{SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig, HydeeCtl, RecoveryRole};
use mps_sim::{
    Application, CheckpointPolicyConfig, ClusterMap, Ctx, Endpoint, Message, Protocol, Rank,
    SendDirective, SendInfo, Sim, SimConfig, Tag,
};

/// Hydee, recording member state after each checkpoint of cluster 0 and
/// the restored state of every rolled rank after each failure.
struct Probe {
    inner: Hydee,
    /// `(log entries, rpp entries, buffered messages)` of rank 1 after
    /// each checkpoint of cluster 0.
    at_ckpt: Vec<(usize, usize, usize)>,
    restored: Vec<String>,
}

/// Every buffered message of `r`, as `(source, sender date)`.
fn buffered(ctx: &Ctx<'_, HydeeCtl>, r: Rank) -> Vec<(u32, u64)> {
    (0..ctx.n_ranks() as u32)
        .flat_map(|s| {
            ctx.pending_meta_from(r, Rank(s))
                .into_iter()
                .map(move |m| (s, m.date))
        })
        .collect()
}

impl Protocol for Probe {
    type Ctl = HydeeCtl;

    fn name(&self) -> &'static str {
        "probe"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, HydeeCtl>) {
        self.inner.init(ctx)
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, info: &SendInfo) -> SendDirective {
        self.inner.on_send(ctx, info)
    }

    fn on_deliver(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, msg: &Message) {
        self.inner.on_deliver(ctx, msg)
    }

    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, HydeeCtl>,
        to: Endpoint,
        from: Endpoint,
        ctl: HydeeCtl,
    ) {
        self.inner.on_control(ctx, to, from, ctl)
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, id: u64) {
        self.inner.on_timer(ctx, id);
        if id == 0 {
            let st = self.inner.state(Rank(1));
            let inbox = buffered(ctx, Rank(1)).len();
            self.at_ckpt
                .push((st.log.iter().count(), st.rpp.len(), inbox));
        }
    }

    fn on_failure(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, failed: &[Rank]) {
        self.inner.on_failure(ctx, failed);
        for r in (0..ctx.n_ranks() as u32).map(Rank) {
            let st = self.inner.state(r);
            if st.role != RecoveryRole::Rolled {
                continue;
            }
            let log: Vec<(u32, u64)> = st.log.iter().map(|e| (e.dst.0, e.date)).collect();
            let rpp: Vec<(u32, u64, Vec<u64>)> = st
                .rpp
                .sources()
                .map(|s| (s.0, st.rpp.maxdate(s), st.rpp.orphan_phases(s, 0)))
                .collect();
            let maxdates: Vec<(u32, u64)> =
                st.ckpt_maxdates.iter().map(|(s, &d)| (s.0, d)).collect();
            self.restored.push(format!(
                "r{} date={} phase={} ckpt_date={} log={:?} log_totals=({},{}) rpp={:?} \
                 ckpt_maxdates={:?} ack_pending={:?} inbox={:?}",
                r.0,
                st.date,
                st.phase,
                st.ckpt_date,
                log,
                st.log.messages(),
                st.log.bytes(),
                rpp,
                maxdates,
                st.ack_pending.iter().map(|k| k.0).collect::<Vec<_>>(),
                buffered(ctx, r),
            ));
        }
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, rank: Rank) {
        self.inner.on_done(ctx, rank)
    }
}

/// Clusters {0,1} and {2,3}. Before cluster 0's first checkpoint
/// (100 µs), 1 and 2 trade 8 messages each way, and 0 parks 7 messages
/// in 1's inbox. Cluster 1 checkpoints at 200 µs; 1's next message to 2
/// (at ~285 µs) draws the CkptAck that prunes 1's log and RPP, and 1
/// takes all but one message from its inbox. Cluster 0 checkpoints
/// again at ~311 µs, smaller. After that, 0 opens channels to and from 2
/// (new peers of its send table, log and RPP), and 0 fails at 370 µs.
fn app() -> Application {
    let mut app = Application::new(4);
    // Compute in 5 µs steps: the checkpoint policy schedules the next
    // checkpoint from the members' clocks, which a long compute would
    // push ahead.
    let idle = |app: &mut Application, r: u32, us: u64| {
        for _ in 0..us / 5 {
            app.rank_mut(Rank(r)).compute(SimDuration::from_us(5));
        }
    };
    for t in 0..8 {
        app.rank_mut(Rank(1)).send(Rank(2), 64, Tag(100 + t));
        app.rank_mut(Rank(2)).send(Rank(1), 64, Tag(200 + t));
    }
    for t in 0..8 {
        app.rank_mut(Rank(1)).recv(Rank(2), Tag(200 + t));
        app.rank_mut(Rank(2)).recv(Rank(1), Tag(100 + t));
    }
    for t in 0..7 {
        app.rank_mut(Rank(0)).send(Rank(1), 64, Tag(300 + t));
    }
    idle(&mut app, 1, 250);
    idle(&mut app, 2, 250);
    for t in 0..6 {
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(300 + t));
    }
    app.rank_mut(Rank(1))
        .send(Rank(2), 64, Tag(400))
        .recv(Rank(2), Tag(401));
    idle(&mut app, 1, 400);
    app.rank_mut(Rank(1))
        .recv(Rank(0), Tag(306))
        .send(Rank(0), 64, Tag(402));
    app.rank_mut(Rank(2))
        .recv(Rank(1), Tag(400))
        .send(Rank(1), 64, Tag(401));
    idle(&mut app, 2, 60);
    app.rank_mut(Rank(2))
        .send(Rank(0), 64, Tag(403))
        .recv(Rank(0), Tag(404));
    idle(&mut app, 2, 300);
    idle(&mut app, 0, 335);
    app.rank_mut(Rank(0))
        .send(Rank(2), 64, Tag(404))
        .recv(Rank(2), Tag(403))
        .recv(Rank(1), Tag(402));
    idle(&mut app, 3, 700);
    app
}

fn config() -> HydeeConfig {
    let mut cfg = HydeeConfig::new(ClusterMap::blocks(4, 2))
        .with_policy(CheckpointPolicyConfig::Periodic {
            interval: SimDuration::from_us(200),
            first: Some(SimTime::from_us(100)),
            stagger: Some(SimDuration::from_us(100)),
        })
        .with_image_bytes(1 << 10);
    cfg.storage.latency = SimDuration::from_ns(100);
    cfg.restart_latency = SimDuration::from_us(5);
    cfg
}

#[test]
fn a_shrinking_checkpoint_restores_exactly_its_own_state() {
    let probe = Probe {
        inner: Hydee::new(config()),
        at_ckpt: Vec::new(),
        restored: Vec::new(),
    };
    let mut sim = Sim::new(app(), SimConfig::default(), probe);
    sim.inject_failure(SimTime::from_us(370), vec![Rank(0)]);
    let (report, probe) = sim.run_with_protocol();
    assert!(report.completed(), "{:?}", report.status);
    assert!(
        report.trace.is_consistent(),
        "{:?}",
        report.trace.violations
    );
    assert_eq!(report.metrics.ranks_rolled_back, 2);

    // The premise: rank 1's log, RPP and inbox all shrink between cluster
    // 0's first two checkpoints.
    let (first, second) = (probe.at_ckpt[0], probe.at_ckpt[1]);
    assert!(
        second.0 < first.0 && second.1 < first.1 && second.2 < first.2,
        "no shrink: {:?}",
        probe.at_ckpt
    );

    assert_eq!(
        probe.at_ckpt,
        vec![(8, 8, 7), (1, 1, 1), (1, 1, 1), (1, 1, 1)]
    );

    // Pinned from a run whose checkpoints built every table afresh.
    assert_eq!(
        probe.restored,
        vec![
            "r0 date=7 phase=1 ckpt_date=7 log=[] log_totals=(0,0) rpp=[] ckpt_maxdates=[] \
             ack_pending=[] inbox=[]",
            "r1 date=24 phase=4 ckpt_date=24 log=[(2, 23)] log_totals=(1,64) \
             rpp=[(2, 18, [3])] ckpt_maxdates=[(2, 18)] ack_pending=[2] inbox=[(0, 7)]",
        ]
    );
    assert_eq!(
        report.digests,
        vec![
            744686973269632051,
            3951849972208590982,
            7530867669280139910,
            11469554178119592757
        ]
    );
    assert_eq!(report.metrics.logged_bytes_peak, 1152);
}
