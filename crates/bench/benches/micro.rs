//! Criterion micro-benchmarks of the hot paths: event queue, RNG, inbox
//! matching, partitioner, and end-to-end simulation throughput with and
//! without the HydEE protocol (the simulator-side analogue of the paper's
//! "almost no overhead" claim).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use det_sim::{DetRng, Scheduler, SimDuration, SimTime};
use hydee::{Hydee, HydeeConfig};
use mps_sim::{Application, ClusterMap, NullProtocol, Rank, Sim, SimConfig, Tag};
use std::hint::black_box;

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut t = SimTime::ZERO;
            for i in 0..10_000u64 {
                t += SimDuration::from_ns((i % 7) + 1);
                s.schedule(t, i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = s.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_scheduler_with_cancels(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(10_000));
    // The retract-in-flight pattern: every other event is cancelled before
    // it fires (stale-entry skip + slot recycling).
    g.bench_function("schedule_cancel_pop_10k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut t = SimTime::ZERO;
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                t += SimDuration::from_ns((i % 7) + 1);
                let h = s.schedule(t, i);
                if i % 2 == 0 {
                    s.cancel(h);
                }
            }
            while let Some((_, e)) = s.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// The classic hold model: a steady `depth`-deep queue where every step
/// pops the head and schedules one keyed event a random offset ahead.
/// 4k is `halo4096_sharded`'s per-shard depth, 128k `ckpt_recovery`'s
/// peak. One iteration is `HOLD_STEPS` steps (ns/op = ns/iter / steps).
fn bench_scheduler_hold(c: &mut Criterion) {
    const HOLD_STEPS: u64 = 10_000;
    fn hold(s: &mut Scheduler<u64>, rng: &mut DetRng, now: SimTime) {
        let at = now + SimDuration::from_ps(rng.gen_range(1_000_000));
        // Class bits in the top byte, as the engine's keys carry them.
        let key = (rng.gen_range(4) << 56) | rng.gen_range(8_192);
        s.schedule_keyed(at, key, key);
    }
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(HOLD_STEPS));
    for (name, depth) in [("hold_4k", 4_096u64), ("hold_128k", 131_072)] {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut rng = DetRng::new(7);
                let mut s: Scheduler<u64> = Scheduler::new();
                for _ in 0..depth {
                    hold(&mut s, &mut rng, SimTime::ZERO);
                }
                let start = std::time::Instant::now();
                let mut acc = 0u64;
                for _ in 0..iters * HOLD_STEPS {
                    let (t, e) = s.pop().expect("the hold queue never drains");
                    acc = acc.wrapping_add(e);
                    hold(&mut s, &mut rng, t);
                }
                black_box(acc);
                start.elapsed()
            })
        });
    }
    g.finish();
}

fn bench_inbox(c: &mut Criterion) {
    use mps_sim::{Inbox, Message, PbMeta};
    let msg = |src: u32, tag: u32, seq: u64| Message {
        src: Rank(src),
        dst: Rank(0),
        tag: mps_sim::Tag(tag),
        bytes: 1024,
        payload: seq,
        channel_seq: seq,
        meta: PbMeta::default(),
        replayed: false,
    };
    let mut g = c.benchmark_group("inbox");
    g.throughput(Throughput::Elements(8_192));
    // Steady-state specific matching: 32 sources, FIFO depth ~8.
    g.bench_function("push_take_specific_8k", |b| {
        b.iter(|| {
            let mut ib = Inbox::new();
            let mut seq = 0u64;
            for round in 0..32u64 {
                for src in 0..32u32 {
                    for _ in 0..8 {
                        seq += 1;
                        ib.push(msg(src, round as u32, seq), seq, SimDuration::ZERO);
                    }
                }
                for src in 0..32u32 {
                    for _ in 0..8 {
                        black_box(ib.take_specific(Rank(src), mps_sim::Tag(round as u32)));
                    }
                }
            }
            black_box(ib.len())
        })
    });
    // Wildcard matching over a deep inbox: each `take_any` scans every
    // pending message (up to 256).
    g.bench_function("push_take_any_8k", |b| {
        b.iter(|| {
            let mut ib = Inbox::new();
            let mut seq = 0u64;
            for round in 0..32u64 {
                for src in 0..32u32 {
                    for _ in 0..8 {
                        seq += 1;
                        ib.push(msg(src, round as u32, seq), seq, SimDuration::ZERO);
                    }
                }
                for _ in 0..256 {
                    black_box(ib.take_any(mps_sim::Tag(round as u32)));
                }
            }
            black_box(ib.len())
        })
    });
    // The stencil pattern (DESIGN.md §3): 4 neighbours, one message each
    // per iteration, a fresh tag every iteration, drained by specific
    // receives before the next.
    g.bench_function("stencil_4src_new_tag_8k", |b| {
        b.iter(|| {
            let mut ib = Inbox::new();
            let mut seq = 0u64;
            for round in 0..2_048u32 {
                for src in 0..4u32 {
                    seq += 1;
                    ib.push(msg(src, round, seq), seq, SimDuration::ZERO);
                }
                for src in (0..4u32).rev() {
                    black_box(ib.take_specific(Rank(src), mps_sim::Tag(round)));
                }
            }
            black_box(ib.len())
        })
    });
    g.finish();
}

fn bench_trace_digest(c: &mut Criterion) {
    use mps_sim::{Message, PbMeta, Trace};
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(40_000));
    // 16 channels, 2500 sends each: the dense interning path, plus a
    // replay sweep over every identity (the recovery-oracle path).
    g.bench_function("record_40k_replay_40k", |b| {
        b.iter(|| {
            let mut t = Trace::default();
            for seq in 1..=2_500u64 {
                for src in 0..4u32 {
                    for dst in 4..8u32 {
                        let m = Message {
                            src: Rank(src),
                            dst: Rank(dst),
                            tag: Tag(0),
                            bytes: 256,
                            payload: seq ^ (src as u64) << 32,
                            channel_seq: seq,
                            meta: PbMeta::default(),
                            replayed: false,
                        };
                        t.record_send(&m);
                    }
                }
            }
            for seq in 1..=2_500u64 {
                for src in 0..4u32 {
                    for dst in 4..8u32 {
                        let m = Message {
                            src: Rank(src),
                            dst: Rank(dst),
                            tag: Tag(0),
                            bytes: 256,
                            payload: seq ^ (src as u64) << 32,
                            channel_seq: seq,
                            meta: PbMeta::default(),
                            replayed: true,
                        };
                        t.check_replay(&m);
                    }
                }
            }
            assert!(t.is_consistent());
            black_box(t.distinct_messages())
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("next_u64_1k", |b| {
        let mut r = DetRng::new(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_add(r.next_u64());
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    use clustering::{partition, CommGraph, PartitionConfig};
    use workloads::{stencil_2d, NasBench, NasConfig, StencilConfig};
    let app = NasBench::CG.build(&NasConfig::test(256, 2));
    let graph = CommGraph::from_application(&app);
    c.bench_function("partition_cg_256_k16", |b| {
        b.iter(|| black_box(partition(&graph, &PartitionConfig::balanced(16, 256))))
    });
    // The graph shape of the `ckpt_recovery` benchmark cell: a sparse
    // 1024-rank halo cut into 64 clusters.
    let app = stencil_2d(&StencilConfig {
        n_ranks: 1024,
        iterations: 2,
        ..StencilConfig::default()
    });
    let graph = CommGraph::from_application(&app);
    c.bench_function("partition_stencil_1024_k64", |b| {
        b.iter(|| black_box(partition(&graph, &PartitionConfig::balanced(64, 1024))))
    });
    // A dense all-to-all graph (FT's transposes) cut in two.
    let app = NasBench::FT.build(&NasConfig::test(256, 2));
    let graph = CommGraph::from_application(&app);
    c.bench_function("partition_ft_256_k2", |b| {
        b.iter(|| black_box(partition(&graph, &PartitionConfig::balanced(2, 256))))
    });
}

fn ping_pong_app(rounds: usize) -> Application {
    let mut app = Application::new(2);
    for _ in 0..rounds {
        app.rank_mut(Rank(0)).send(Rank(1), 1024, Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        app.rank_mut(Rank(1)).send(Rank(0), 1024, Tag(0));
        app.rank_mut(Rank(0)).recv(Rank(1), Tag(0));
    }
    app
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.throughput(Throughput::Elements(2_000)); // messages per iteration
    g.bench_function("ping_pong_1k_rounds_native", |b| {
        b.iter_batched(
            || ping_pong_app(1000),
            |app| black_box(Sim::new(app, SimConfig::default(), NullProtocol).run()),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("ping_pong_1k_rounds_hydee", |b| {
        b.iter_batched(
            || ping_pong_app(1000),
            |app| {
                let hydee = Hydee::new(HydeeConfig::new(ClusterMap::per_rank(2)));
                black_box(Sim::new(app, SimConfig::default(), hydee).run())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_stencil_protocol_overhead(c: &mut Criterion) {
    use workloads::{stencil_2d, StencilConfig};
    let cfg = StencilConfig {
        n_ranks: 16,
        iterations: 50,
        face_bytes: 8 << 10,
        compute_per_iter: SimDuration::from_us(50),
        wildcard_recv: false,
    };
    let mut g = c.benchmark_group("stencil16x50");
    g.bench_function("native", |b| {
        b.iter_batched(
            || stencil_2d(&cfg),
            |app| black_box(Sim::new(app, SimConfig::default(), NullProtocol).run()),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hydee_4clusters", |b| {
        b.iter_batched(
            || stencil_2d(&cfg),
            |app| {
                let hydee = Hydee::new(HydeeConfig::new(ClusterMap::blocks(16, 4)));
                black_box(Sim::new(app, SimConfig::default(), hydee).run())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Runs HydEE and, at `at`, captures cluster 0 `iters` times, timing
/// only the captures.
struct CaptureLoop {
    inner: Hydee,
    at: SimTime,
    iters: u64,
    elapsed: std::time::Duration,
}

/// Timer id of the capture loop (HydEE's timers are cluster ids).
const CAPTURE_TIMER: u64 = u64::MAX;

impl mps_sim::Protocol for CaptureLoop {
    type Ctl = hydee::HydeeCtl;

    fn name(&self) -> &'static str {
        "capture-loop"
    }

    fn init(&mut self, ctx: &mut mps_sim::Ctx<'_, Self::Ctl>) {
        self.inner.init(ctx);
        ctx.set_timer(self.at, CAPTURE_TIMER);
    }

    fn on_send(
        &mut self,
        ctx: &mut mps_sim::Ctx<'_, Self::Ctl>,
        info: &mps_sim::SendInfo,
    ) -> mps_sim::SendDirective {
        self.inner.on_send(ctx, info)
    }

    fn on_deliver(&mut self, ctx: &mut mps_sim::Ctx<'_, Self::Ctl>, msg: &mps_sim::Message) {
        self.inner.on_deliver(ctx, msg)
    }

    fn on_control(
        &mut self,
        ctx: &mut mps_sim::Ctx<'_, Self::Ctl>,
        to: mps_sim::Endpoint,
        from: mps_sim::Endpoint,
        ctl: Self::Ctl,
    ) {
        self.inner.on_control(ctx, to, from, ctl)
    }

    fn on_timer(&mut self, ctx: &mut mps_sim::Ctx<'_, Self::Ctl>, id: u64) {
        if id != CAPTURE_TIMER {
            return self.inner.on_timer(ctx, id);
        }
        let member = Rank(3);
        assert!(
            !self.inner.state(member).log.is_empty()
                && !self.inner.state(member).rpp.is_empty()
                && !ctx.pending_meta_from(member, Rank(2)).is_empty(),
            "the captured cluster must hold logs, RPP entries and buffered messages"
        );
        let start = std::time::Instant::now();
        for _ in 0..self.iters {
            black_box(self.inner.capture_cluster(ctx, 0));
        }
        self.elapsed = start.elapsed();
    }

    fn on_done(&mut self, ctx: &mut mps_sim::Ctx<'_, Self::Ctl>, rank: Rank) {
        self.inner.on_done(ctx, rank)
    }
}

/// 32 ranks in two clusters of 16. Rank `r < 16` trades 32 inter-cluster
/// messages each way with `r + 16` (sender logs and RPP entries), and
/// sends 4 intra-cluster messages that `r + 1` only receives after
/// 1 ms (buffered in its inbox at the 500 µs capture).
fn capture_app() -> Application {
    let mut app = Application::new(32);
    for r in 0..16u32 {
        let (peer, next) = (Rank(r + 16), Rank((r + 1) % 16));
        for t in 0..32 {
            app.rank_mut(Rank(r)).send(peer, 1024, Tag(t));
            app.rank_mut(peer).send(Rank(r), 1024, Tag(t));
        }
        for t in 0..32 {
            app.rank_mut(Rank(r)).recv(peer, Tag(t));
            app.rank_mut(peer).recv(Rank(r), Tag(t));
        }
        for t in 100..104 {
            app.rank_mut(Rank(r)).send(next, 64, Tag(t));
        }
    }
    for r in 0..16u32 {
        let prev = Rank((r + 15) % 16);
        app.rank_mut(Rank(r)).compute(SimDuration::from_ms(1));
        for t in 100..104 {
            app.rank_mut(Rank(r)).recv(prev, Tag(t));
        }
    }
    app
}

fn bench_checkpoint_capture(c: &mut Criterion) {
    c.bench_function("checkpoint_capture_16_ranks", |b| {
        b.iter_custom(|iters| {
            let probe = CaptureLoop {
                inner: Hydee::new(HydeeConfig::new(ClusterMap::blocks(32, 2))),
                at: SimTime::from_us(500),
                iters,
                elapsed: std::time::Duration::ZERO,
            };
            let (report, probe) =
                Sim::new(capture_app(), SimConfig::default(), probe).run_with_protocol();
            assert!(report.completed(), "{:?}", report.status);
            probe.elapsed
        })
    });
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_scheduler_with_cancels,
    bench_scheduler_hold,
    bench_inbox,
    bench_trace_digest,
    bench_rng,
    bench_partitioner,
    bench_sim_throughput,
    bench_stencil_protocol_overhead,
    bench_checkpoint_capture
);
criterion_main!(benches);
