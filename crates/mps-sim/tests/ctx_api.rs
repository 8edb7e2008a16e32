//! Direct tests of the engine's protocol-facing context API: send gates,
//! control-message FIFO with application traffic, charging, snapshot
//! capture/restore, and in-flight channel-state operations.

use det_sim::{SimDuration, SimTime};
use mps_sim::{
    Application, Ctx, Endpoint, Message, Protocol, Rank, RankSnapshot, RunStatus, Sim, SimConfig,
    Tag,
};

/// A scriptable protocol driven by timers, used to poke the Ctx API.
#[derive(Default)]
struct Probe {
    /// Action log (inspected via `run_with_protocol` when needed).
    events: Vec<String>,
    gate_rank: Option<Rank>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ProbeCtl {
    Note(&'static str),
}

impl Protocol for Probe {
    type Ctl = ProbeCtl;

    fn name(&self) -> &'static str {
        "probe"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, ProbeCtl>) {
        ctx.set_timer(SimTime::from_us(10), 1);
        ctx.set_timer(SimTime::from_us(500), 2);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ProbeCtl>, id: u64) {
        match id {
            1 => {
                if let Some(r) = self.gate_rank {
                    ctx.gate(r, true);
                    self.events.push(format!("gated {r} at {}", ctx.now()));
                }
            }
            2 => {
                if let Some(r) = self.gate_rank {
                    ctx.gate(r, false);
                    self.events.push(format!("ungated {r} at {}", ctx.now()));
                }
            }
            _ => {}
        }
    }

    fn on_control(
        &mut self,
        _ctx: &mut Ctx<'_, ProbeCtl>,
        to: Endpoint,
        from: Endpoint,
        ctl: ProbeCtl,
    ) {
        self.events.push(format!("ctl {ctl:?} {from}->{to}"));
    }
}

#[test]
fn gate_blocks_and_release_resumes() {
    // P0 computes past the gate point, then tries to send; the gate at
    // 10us blocks it until 500us.
    let mut app = Application::new(2);
    app.rank_mut(Rank(0))
        .compute(SimDuration::from_us(50))
        .send(Rank(1), 64, Tag(0));
    app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
    let probe = Probe {
        gate_rank: Some(Rank(0)),
        ..Default::default()
    };
    let sim = Sim::new(app, SimConfig::default(), probe);
    let (report, _probe) = sim.run_with_protocol();
    assert!(report.completed(), "{:?}", report.status);
    // The send could not complete before the 500us ungate.
    assert!(
        report.makespan >= SimTime::from_us(500),
        "gate was not enforced: makespan {}",
        report.makespan
    );
}

#[test]
fn gate_on_idle_rank_is_harmless() {
    let mut app = Application::new(2);
    app.rank_mut(Rank(0)).compute(SimDuration::from_ms(1));
    app.rank_mut(Rank(1)).compute(SimDuration::from_ms(1));
    let probe = Probe {
        gate_rank: Some(Rank(1)),
        ..Default::default()
    };
    let report = Sim::new(app, SimConfig::default(), probe).run();
    assert!(report.completed());
}

/// Protocol that sends a control message on the same channel shortly
/// after an application message was put on the wire, to verify shared
/// FIFO ordering (a fast control message must not overtake a slow app
/// message already in the channel — HydEE's LastDate correctness rests on
/// exactly this).
struct FifoProbe {
    log: std::sync::Arc<std::sync::Mutex<Vec<&'static str>>>,
}

impl Protocol for FifoProbe {
    type Ctl = ProbeCtl;

    fn name(&self) -> &'static str {
        "fifo-probe"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, ProbeCtl>) {
        // The 1 MiB app message goes out at t~0 and takes ~850us of
        // transit; this timer fires long before it lands.
        ctx.set_timer(SimTime::from_us(5), 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ProbeCtl>, _id: u64) {
        ctx.send_ctl(
            Endpoint::Rank(Rank(0)),
            Endpoint::Rank(Rank(1)),
            16,
            ProbeCtl::Note("after-app"),
        );
    }

    fn on_deliver(&mut self, _ctx: &mut Ctx<'_, ProbeCtl>, _msg: &Message) {
        self.log.lock().unwrap().push("app");
    }

    fn on_control(
        &mut self,
        _ctx: &mut Ctx<'_, ProbeCtl>,
        _to: Endpoint,
        _from: Endpoint,
        _ctl: ProbeCtl,
    ) {
        self.log.lock().unwrap().push("ctl");
    }
}

#[test]
fn control_messages_share_channel_fifo_with_app_messages() {
    let mut app = Application::new(2);
    app.rank_mut(Rank(0)).send(Rank(1), 1 << 20, Tag(0));
    // Keep the receiver alive past the control message's arrival (the
    // run ends as soon as all programs finish).
    app.rank_mut(Rank(1))
        .recv(Rank(0), Tag(0))
        .compute(SimDuration::from_ms(2));
    let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let probe = FifoProbe { log: log.clone() };
    let report = Sim::new(app, SimConfig::default(), probe).run();
    assert!(report.completed());
    // Although the control message's raw transit (~3us) would land it at
    // ~8us, the 1 MiB app message already occupies the channel until
    // ~850us: FIFO delivers app first.
    assert_eq!(*log.lock().unwrap(), vec!["app", "ctl"]);
}

/// Protocol that snapshots rank 0 early and restores it later.
struct RewindProbe {
    snap: Option<RankSnapshot>,
}

impl Protocol for RewindProbe {
    type Ctl = ProbeCtl;

    fn name(&self) -> &'static str {
        "rewind"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, ProbeCtl>) {
        ctx.set_timer(SimTime::from_ps(1), 1); // capture almost at start
        ctx.set_timer(SimTime::from_us(100), 2); // restore later
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ProbeCtl>, id: u64) {
        match id {
            1 => {
                let mut snap = RankSnapshot::default();
                ctx.capture_rank_into(Rank(0), &mut snap, |_| true);
                self.snap = Some(snap);
            }
            2 => {
                let snap = self.snap.take().expect("captured");
                ctx.restore_rank(Rank(0), &snap, false);
                ctx.charge(Rank(0), SimDuration::from_us(5));
            }
            _ => {}
        }
    }
}

#[test]
fn capture_restore_replays_the_program() {
    // P0 sends 10 messages; a restore at 100us rewinds it to (almost) the
    // start, so it re-sends everything. P1 must receive 10 originals; the
    // re-sends are verified identical by the oracle and the duplicates are
    // consumed by extra receives... instead we simply count messages.
    let mut app = Application::new(2);
    for i in 0..10u32 {
        app.rank_mut(Rank(0))
            .compute(SimDuration::from_us(15))
            .send(Rank(1), 256, Tag(i));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(i));
    }
    let sim = Sim::new(app, SimConfig::default(), RewindProbe { snap: None });
    let (report, _) = sim.run_with_protocol();
    // The rewind re-emits early sends; each re-emission must match its
    // original (send-determinism oracle).
    assert!(
        report.trace.is_consistent(),
        "{:?}",
        report.trace.violations
    );
    // The run may leave duplicates in P1's inbox (RewindProbe is not a
    // full protocol: it restores the sender without restoring the
    // receiver). What matters here: re-execution happened and matched.
    assert!(report.metrics.app_messages > 10);
    assert!(report.trace.consistent_reemissions > 0);
}

/// Captures at 500 µs, when ranks 1 and 2 hold buffered messages, each
/// rank into a fresh snapshot and into one already holding another
/// rank's capture, keeping every buffered message or only rank 0's.
#[derive(Default)]
struct ReuseProbe {
    /// `(fresh, reused)` per capture.
    pairs: Vec<(RankSnapshot, RankSnapshot)>,
}

impl Protocol for ReuseProbe {
    type Ctl = ProbeCtl;

    fn name(&self) -> &'static str {
        "reuse-probe"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, ProbeCtl>) {
        ctx.set_timer(SimTime::from_us(500), 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ProbeCtl>, _id: u64) {
        let from_zero = |m: &Message| m.src == Rank(0);
        for (target, dirty_from) in [(1u32, 2u32), (2, 1), (2, 2)] {
            for keep_all in [true, false] {
                let keep = |m: &Message| keep_all || from_zero(m);
                let mut fresh = RankSnapshot::default();
                ctx.capture_rank_into(Rank(target), &mut fresh, keep);
                let mut reused = RankSnapshot::default();
                ctx.capture_rank_into(Rank(dirty_from), &mut reused, |_| true);
                ctx.capture_rank_into(Rank(target), &mut reused, keep);
                self.pairs.push((fresh, reused));
            }
        }
    }
}

#[test]
fn capture_rank_into_a_dirty_snapshot_equals_a_fresh_capture() {
    // At 500 µs rank 1 holds 3 buffered messages and has sent nothing;
    // rank 2 holds 5 and has used 3 send channels. Reuse runs both
    // ways: into a snapshot with more inbox and peers, and with fewer.
    let mut app = Application::new(4);
    app.rank_mut(Rank(0))
        .send(Rank(1), 64, Tag(0))
        .send(Rank(1), 64, Tag(1))
        .recv(Rank(2), Tag(3));
    app.rank_mut(Rank(1))
        .compute(SimDuration::from_ms(1))
        .recv(Rank(0), Tag(0))
        .recv(Rank(0), Tag(1))
        .recv(Rank(2), Tag(2));
    app.rank_mut(Rank(2))
        .send(Rank(1), 64, Tag(2))
        .send(Rank(0), 64, Tag(3))
        .send(Rank(3), 64, Tag(4))
        .compute(SimDuration::from_ms(1));
    for t in 10..15 {
        app.rank_mut(Rank(3)).send(Rank(2), 64, Tag(t));
        app.rank_mut(Rank(2)).recv(Rank(3), Tag(t));
    }
    app.rank_mut(Rank(3)).recv(Rank(2), Tag(4));
    let (report, probe) =
        Sim::new(app, SimConfig::default(), ReuseProbe::default()).run_with_protocol();
    assert!(report.completed(), "{:?}", report.status);
    assert_eq!(probe.pairs.len(), 6);
    for (fresh, reused) in &probe.pairs {
        assert_eq!(reused, fresh);
    }
    // `clone_from` between snapshots reuses the destination the same way.
    for (src, _) in &probe.pairs {
        for (dst, _) in &probe.pairs {
            let mut copy = dst.clone();
            copy.clone_from(src);
            assert_eq!(&copy, src);
        }
    }
    // The captures are not trivially empty: rank 1 keeps its 3 buffered
    // messages, rank 2 its 5, and the filter keeps only rank 0's two.
    let buffered = |s: &RankSnapshot| (s.image_bytes() - 64) / (64 + 64);
    let counts: Vec<u64> = probe.pairs.iter().map(|(f, _)| buffered(f)).collect();
    assert_eq!(counts, vec![3, 2, 5, 0, 5, 0]);
}

/// Failure with no protocol reaction deadlocks; with drop+restore wiring
/// in a minimal protocol, the run completes — exercising drop_inflight_to
/// and inject_inflight directly.
struct MiniRecover {
    snaps: Vec<RankSnapshot>,
    inflight: Vec<mps_sim::InFlightMsg>,
}

impl Protocol for MiniRecover {
    type Ctl = ProbeCtl;

    fn name(&self) -> &'static str {
        "mini-recover"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, ProbeCtl>) {
        // Initial global checkpoint including channel state.
        let ranks: Vec<Rank> = (0..ctx.n_ranks() as u32).map(Rank).collect();
        ctx.capture_inflight_into(&ranks, &mut self.inflight);
        self.snaps.resize_with(ranks.len(), Default::default);
        for (&r, snap) in ranks.iter().zip(&mut self.snaps) {
            ctx.capture_rank_into(r, snap, |_| true);
        }
    }

    fn on_failure(&mut self, ctx: &mut Ctx<'_, ProbeCtl>, _failed: &[Rank]) {
        let ranks: Vec<Rank> = (0..ctx.n_ranks() as u32).map(Rank).collect();
        ctx.drop_inflight_to(&ranks);
        for (i, snap) in self.snaps.iter().enumerate() {
            ctx.restore_rank(Rank(i as u32), snap, false);
        }
        ctx.inject_inflight(&self.inflight.clone());
    }
}

#[test]
fn minimal_global_restart_protocol_recovers() {
    let mut app = Application::new(3);
    for round in 0..30 {
        let tag = Tag(round % 2);
        for r in 0..3u32 {
            app.rank_mut(Rank(r)).send(Rank((r + 1) % 3), 512, tag);
        }
        for r in 0..3u32 {
            app.rank_mut(Rank(r)).recv(Rank((r + 2) % 3), tag);
        }
    }
    // Without recovery: deadlock.
    let mut dead = Sim::new(app.clone(), SimConfig::default(), mps_sim::NullProtocol);
    dead.inject_failure(SimTime::from_us(50), vec![Rank(1)]);
    let dead_report = dead.run();
    assert!(matches!(dead_report.status, RunStatus::Deadlock(_)));
    // With the minimal restart protocol: completes consistently.
    let mut sim = Sim::new(
        app,
        SimConfig::default(),
        MiniRecover {
            snaps: Vec::new(),
            inflight: Vec::new(),
        },
    );
    sim.inject_failure(SimTime::from_us(50), vec![Rank(1)]);
    let report = sim.run();
    assert!(report.completed(), "{:?}", report.status);
    assert!(report.trace.is_consistent());
    assert!(report.inbox_leftover.iter().all(|&l| l == 0));
}

#[test]
fn charge_delays_execution() {
    struct Charger;
    impl Protocol for Charger {
        type Ctl = ();
        fn name(&self) -> &'static str {
            "charger"
        }
        fn init(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.charge(Rank(0), SimDuration::from_ms(7));
        }
    }
    let mut app = Application::new(1);
    app.rank_mut(Rank(0)).compute(SimDuration::from_us(1));
    let report = Sim::new(app, SimConfig::default(), Charger).run();
    assert!(report.completed());
    assert!(report.makespan >= SimTime::from_ms(7));
}

/// Runs `query` once at 2 µs and keeps what it returns. At that instant
/// every application message of [`sends_in_flight`] is still on the
/// wire, and so is every control message in `ctls` (sent at 1 µs).
/// Control arrivals are logged as `(from, to)`.
struct InflightProbe {
    ctls: Vec<(Endpoint, Endpoint)>,
    query: fn(&mut Ctx<'_, ProbeCtl>) -> Vec<Vec<mps_sim::InFlightMsg>>,
    captured: Vec<Vec<mps_sim::InFlightMsg>>,
    ctl_arrivals: Vec<(Endpoint, Endpoint)>,
}

impl Protocol for InflightProbe {
    type Ctl = ProbeCtl;

    fn name(&self) -> &'static str {
        "inflight-probe"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, ProbeCtl>) {
        // The gate holds P3 back, so the run outlives the timers.
        ctx.gate(Rank(3), true);
        ctx.set_timer(SimTime::from_us(1), 1);
        ctx.set_timer(SimTime::from_us(2), 2);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ProbeCtl>, id: u64) {
        match id {
            1 => {
                for &(from, to) in &self.ctls {
                    ctx.send_ctl(from, to, 16, ProbeCtl::Note("probe"));
                }
            }
            _ => {
                self.captured = (self.query)(ctx);
                ctx.gate(Rank(3), false);
            }
        }
    }

    fn on_control(
        &mut self,
        _ctx: &mut Ctx<'_, ProbeCtl>,
        to: Endpoint,
        from: Endpoint,
        _ctl: ProbeCtl,
    ) {
        self.ctl_arrivals.push((from, to));
    }
}

/// Ranks that only send, all at time 0: P0→P1 (1 MiB), P0→P2 (64 KiB),
/// P1→P0 (4 KiB, lands first) and P2→P1 (64 KiB). P3's one send waits
/// behind the probe's gate until the query has run.
fn sends_in_flight() -> Application {
    let mut app = Application::new(4);
    app.rank_mut(Rank(0))
        .send(Rank(1), 1 << 20, Tag(0))
        .send(Rank(2), 64 << 10, Tag(0));
    app.rank_mut(Rank(1)).send(Rank(0), 4 << 10, Tag(0));
    app.rank_mut(Rank(2)).send(Rank(1), 64 << 10, Tag(0));
    app.rank_mut(Rank(3)).send(Rank(0), 8, Tag(1));
    app
}

fn probe(
    ctls: Vec<(Endpoint, Endpoint)>,
    query: fn(&mut Ctx<'_, ProbeCtl>) -> Vec<Vec<mps_sim::InFlightMsg>>,
) -> InflightProbe {
    let probe = InflightProbe {
        ctls,
        query,
        captured: Vec::new(),
        ctl_arrivals: Vec::new(),
    };
    let (report, probe) =
        Sim::new(sends_in_flight(), SimConfig::default(), probe).run_with_protocol();
    assert!(report.completed(), "{:?}", report.status);
    probe
}

/// [`Ctx::capture_inflight_into`] `set`, into a buffer that already holds
/// a stale message: capture must replace its contents.
fn inflight_within(ctx: &mut Ctx<'_, ProbeCtl>, set: &[Rank]) -> Vec<mps_sim::InFlightMsg> {
    let mut out = vec![crafted(9, 9, 9)];
    ctx.capture_inflight_into(set, &mut out);
    out
}

/// `(src, dst, bytes)` of each captured message, in capture order.
fn channels(msgs: &[mps_sim::InFlightMsg]) -> Vec<(u32, u32, u64)> {
    msgs.iter()
        .map(|m| (m.msg.src.0, m.msg.dst.0, m.msg.bytes))
        .collect()
}

fn rank(r: u32) -> Endpoint {
    Endpoint::Rank(Rank(r))
}

#[test]
fn capture_keeps_only_app_channels_inside_the_set_in_arrival_order() {
    // A control message on P0→P1 is in flight too: it is not channel
    // state. P0→P2 (source only) and P2→P1 (destination only) cross the
    // set's boundary. P1→P0 lands first although it was sent second.
    let p = probe(vec![(rank(0), rank(1))], |ctx| {
        vec![inflight_within(ctx, &[Rank(0), Rank(1)])]
    });
    assert_eq!(
        channels(&p.captured[0]),
        vec![(1, 0, 4 << 10), (0, 1, 1 << 20)]
    );
}

#[test]
fn capture_ignores_duplicated_ranks_in_the_set() {
    let p = probe(Vec::new(), |ctx| {
        vec![
            inflight_within(ctx, &[Rank(0), Rank(1)]),
            inflight_within(ctx, &[Rank(1), Rank(0), Rank(1), Rank(0), Rank(0)]),
        ]
    });
    assert_eq!(channels(&p.captured[1]), channels(&p.captured[0]));
    assert_eq!(p.captured[0].len(), 2);
}

/// A message for re-injection on channel `src→dst`.
fn crafted(src: u32, dst: u32, bytes: u64) -> mps_sim::InFlightMsg {
    mps_sim::InFlightMsg {
        msg: Message {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag(7),
            bytes,
            payload: bytes,
            channel_seq: 1,
            meta: Default::default(),
            replayed: false,
        },
        recv_cost: SimDuration::ZERO,
    }
}

#[test]
fn capture_breaks_arrival_ties_by_creation_order() {
    // Re-injected messages on distinct channels that carry no other
    // traffic all land at the same instant, so capture must return them in injection order —
    // whichever order that is, and whatever their ranks or slab slots.
    let p = probe(Vec::new(), |ctx| {
        let all = [Rank(0), Rank(1), Rank(2), Rank(3)];
        let mut out = Vec::new();
        for order in [[(2, 0), (1, 2), (3, 1)], [(3, 1), (2, 0), (1, 2)]] {
            ctx.drop_inflight_to(&all);
            let msgs: Vec<_> = order.iter().map(|&(s, d)| crafted(s, d, 8)).collect();
            ctx.inject_inflight(&msgs);
            out.push(inflight_within(ctx, &all));
        }
        ctx.drop_inflight_to(&all);
        out
    });
    assert_eq!(
        channels(&p.captured[0]),
        vec![(2, 0, 8), (1, 2, 8), (3, 1, 8)]
    );
    assert_eq!(
        channels(&p.captured[1]),
        vec![(3, 1, 8), (2, 0, 8), (1, 2, 8)]
    );
}

#[test]
fn drop_removes_exactly_the_flights_addressed_to_the_ranks() {
    // In flight at 2 µs: app P0→P1, P0→P2, P1→P0, P2→P1; control P0→P1,
    // P2→P0, aux0→P1 and P1→aux0. Dropping toward P1 must take the two
    // app and two control messages addressed to P1, and nothing else.
    let ctls = vec![
        (rank(0), rank(1)),
        (rank(2), rank(0)),
        (Endpoint::Aux(0), rank(1)),
        (rank(1), Endpoint::Aux(0)),
    ];
    let p = probe(ctls, |ctx| {
        let all = [Rank(0), Rank(1), Rank(2)];
        let before = inflight_within(ctx, &all);
        ctx.drop_inflight_to(&[Rank(1), Rank(1)]);
        vec![before, inflight_within(ctx, &all)]
    });
    assert_eq!(p.captured[0].len(), 4);
    let mut left = channels(&p.captured[1]);
    left.sort_unstable();
    assert_eq!(left, vec![(0, 2, 64 << 10), (1, 0, 4 << 10)]);
    let mut arrived = p.ctl_arrivals.clone();
    arrived.sort_unstable();
    assert_eq!(
        arrived,
        vec![(rank(1), Endpoint::Aux(0)), (rank(2), rank(0))]
    );
}
