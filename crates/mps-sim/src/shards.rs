//! The run driver: conservative cluster-sharded simulation (DESIGN.md
//! §2.8).
//!
//! Every run starts in [`run_sharded`] and ends in one `merge`. The
//! driver picks the shard count (clamped to the cluster count; one shard
//! whenever the failure model expects a failure) and runs one engine
//! instance per shard of whole clusters. A one-shard run is
//! [`Sim::run_with_protocol`] on the caller's thread: [`decide`] over its
//! own state with an unbounded lookahead, no thread, no barrier. With n
//! shards, n threads step the same **lockstep loop** on one
//! [`std::sync::Barrier`], with no coordinator and no null messages:
//!
//! 1. inject the envelopes the other shards left in its per-pair slots;
//! 2. publish its [`ShardState`] and wait at the barrier;
//! 3. compute the same decision from every shard's state with the pure
//!    [`decide`]: stop, step or discard one shard's head event, or run
//!    the window `[gmin, gmin + lookahead)` in parallel — a message sent
//!    at `u ≥ gmin` arrives no earlier than `u + lookahead`, where the
//!    lookahead is the minimum transit over the link classes crossing a
//!    shard boundary (DESIGN.md §2.9);
//! 4. act on it with `Sim::act`, move its cross-shard sends into the
//!    slots of their target shards, and wait at the barrier again.
//!
//! Timers, the one event class that touches state shared between shards
//! (the storage ledger), never run inside a window: they are stepped one
//! at a time in global `(time, key)` order, exactly the one-shard order.
//! Content-derived scheduler keys ([`crate::engine::key`]) make the
//! merged report bit-for-bit equal to the one-shard run's at every shard
//! count. A panicking shard releases its peers through the abort slot,
//! and `run_sharded` re-raises the lowest-numbered panicking shard's
//! payload.

use crate::cluster::ClusterMap;
use crate::engine::{key, LogDelta, RemoteEnvelope, RunReport, RunStatus, ShardOutcome, Sim};
use crate::failure::FailureModel;
use crate::metrics::Metrics;
use crate::program::Application;
use crate::protocol::Protocol;
use crate::types::Endpoint;
use crate::SimConfig;
use det_sim::{SimDuration, SimTime};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use telemetry::{Gauges, Recorder, RecoveryPhase, StorageDir};

// ---------------------------------------------------------------------------
// Decision
// ---------------------------------------------------------------------------

/// What the lockstep loop reads from one shard before every decision:
/// the inputs of [`decide`]. Returned by `Sim::shard_state`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardState {
    /// `(time, key)` of the shard's next live event, if any.
    pub peek: Option<(SimTime, u64)>,
    /// Live non-timer events in the shard's queue.
    pub pending_hot: u64,
    /// Have all ranks the shard owns finished?
    pub done: bool,
    /// Events the shard has processed so far.
    pub events: u64,
}

/// What every shard does next. All shards compute it from the same state
/// table, so they agree without a coordinator; `Sim::act` carries it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// End the run; `limit_hit` when the `max_events` budget ran out.
    Stop { limit_hit: bool },
    /// `shard` pops and processes its head event alone.
    Step { shard: usize },
    /// `shard` drops its head timer uncounted.
    DiscardTimer { shard: usize },
    /// Every shard processes its events strictly before the horizon.
    Window(SimTime),
}

/// The one drain decision of a run, from every shard's state. A
/// one-shard run passes an unbounded `lookahead`: its windows end only
/// at timers.
pub(crate) fn decide(states: &[ShardState], lookahead: SimDuration, max_events: u64) -> Decision {
    // Global `max_events` budget. Every shard also stops its window once
    // its own count passes the budget, so one shard stops exactly.
    if states.iter().map(|st| st.events).sum::<u64>() > max_events {
        return Decision::Stop { limit_hit: true };
    }
    let all_done = states.iter().all(|st| st.done);
    if all_done && states.iter().all(|st| st.pending_hot == 0) {
        return Decision::Stop { limit_hit: false }; // leftover timers are moot
    }
    // Global minimum (time, key). Cross-shard (time, key) pairs are
    // distinct by construction (content-derived keys); ties would go to
    // the lower shard.
    let Some(((tmin, kmin), shard)) = states
        .iter()
        .enumerate()
        .filter_map(|(s, st)| st.peek.map(|tk| (tk, s)))
        .min()
    else {
        return Decision::Stop { limit_hit: false }; // deadlock
    };
    if key::class(kmin) == key::CLASS_TIMER {
        // Timers mutate shared state: one at a time in global (time, key)
        // order. Once every rank is done they are discarded uncounted.
        return if all_done {
            Decision::DiscardTimer { shard }
        } else {
            Decision::Step { shard }
        };
    }
    // Saturating: an unbounded lookahead must not wrap past `tmin`.
    let horizon = SimTime::from_ps(tmin.as_ps().saturating_add(lookahead.as_ps()));
    if horizon <= tmin {
        // Zero lookahead (or an event at the end of time): step the
        // globally next event.
        return Decision::Step { shard };
    }
    Decision::Window(horizon)
}

// ---------------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------------

/// Clamp a requested shard count to what the cluster map supports: at
/// least 1, at most one shard per cluster (a cluster is the atomic
/// sharding unit — splitting one would put intra-cluster channels, which
/// have no lookahead guarantee, across a boundary). Returns the effective
/// count and a warning to surface when the request was clamped.
pub fn effective_shards(requested: usize, n_clusters: usize) -> (usize, Option<String>) {
    let req = requested.max(1);
    let cap = n_clusters.max(1);
    if req > cap {
        (
            cap,
            Some(format!(
                "--shards {req} exceeds the {cap} cluster(s); clamping to {cap}"
            )),
        )
    } else {
        (req, None)
    }
}

/// The driver's shard-count rule: [`effective_shards`], except that a
/// run whose failure model expects any failure over the whole
/// representable horizon runs on one shard (recovery is cross-cluster
/// by construction).
fn shard_count(requested: usize, n_clusters: usize, failures: &dyn FailureModel) -> usize {
    if failures.expected_failures(SimTime::MAX) != 0.0 {
        return 1;
    }
    effective_shards(requested, n_clusters).0
}

/// One shard's slice of the machine: a contiguous range of cluster ids.
#[derive(Debug, Clone)]
pub struct ShardSlice {
    pub shard: u32,
    /// Cluster ids this shard owns (ascending, contiguous).
    pub clusters: Vec<u32>,
    /// Ranks owned (sum of member counts).
    pub ranks: usize,
}

/// Partition clusters into `n_shards` contiguous id ranges balanced by
/// rank count (greedy: each shard takes clusters until it reaches the
/// average of what remains, always leaving at least one cluster per
/// remaining shard). Deterministic in the cluster map alone.
///
/// Returns the slices plus the rank → shard table the engines route on.
pub(crate) fn assign_shards(
    clusters: &ClusterMap,
    n_shards: usize,
) -> (Vec<ShardSlice>, Arc<Vec<u32>>) {
    let n_clusters = clusters.n_clusters();
    assert!(
        (1..=n_clusters).contains(&n_shards),
        "n_shards {n_shards} out of range 1..={n_clusters} (clamp with effective_shards)"
    );
    let total_ranks = clusters.n_ranks();
    let mut slices = Vec::with_capacity(n_shards);
    let mut shard_of_rank = vec![0u32; total_ranks];
    let mut next_cluster = 0usize;
    let mut assigned_ranks = 0usize;
    for s in 0..n_shards {
        let shards_left = n_shards - s;
        // ceil: the average rank count over the remaining shards.
        let target = (total_ranks - assigned_ranks).div_ceil(shards_left);
        let mut owned = Vec::new();
        let mut ranks = 0usize;
        while next_cluster < n_clusters {
            // Every shard after this one still needs a cluster.
            let clusters_left = n_clusters - next_cluster;
            if !owned.is_empty() && clusters_left < shards_left {
                break;
            }
            if !owned.is_empty() && shards_left > 1 && ranks >= target {
                break;
            }
            let c = next_cluster as u32;
            for &r in clusters.members(c) {
                shard_of_rank[r.idx()] = s as u32;
            }
            ranks += clusters.members(c).len();
            owned.push(c);
            next_cluster += 1;
        }
        assigned_ranks += ranks;
        slices.push(ShardSlice {
            shard: s as u32,
            clusters: owned,
            ranks,
        });
    }
    debug_assert_eq!(next_cluster, n_clusters);
    debug_assert_eq!(assigned_ranks, total_ranks);
    (slices, Arc::new(shard_of_rank))
}

// ---------------------------------------------------------------------------
// Shared recorder
// ---------------------------------------------------------------------------

/// Fan-in wrapper giving every shard of a run of two or more the same
/// underlying [`Recorder`]. Calls are serialized by the mutex; their
/// interleaving *across shards inside one window* follows wall-clock
/// scheduling, which is why sharded trace files are not byte-stable
/// (DESIGN.md §2.8). Virtual timestamps in the events are exact either
/// way.
#[derive(Clone)]
struct SharedRecorder(Arc<Mutex<Box<dyn Recorder>>>);

impl Recorder for SharedRecorder {
    fn on_tick(&mut self, now: SimTime, gauges: &Gauges) {
        self.0.lock().unwrap().on_tick(now, gauges);
    }
    fn on_send(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64, replayed: bool) {
        self.0
            .lock()
            .unwrap()
            .on_send(now, src, dst, bytes, replayed);
    }
    fn on_deliver(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64) {
        self.0.lock().unwrap().on_deliver(now, src, dst, bytes);
    }
    fn on_failure(&mut self, now: SimTime, ranks: &[u32]) {
        self.0.lock().unwrap().on_failure(now, ranks);
    }
    fn on_checkpoint(&mut self, cluster: u32, begin: SimTime, end: SimTime, bytes: u64) {
        self.0
            .lock()
            .unwrap()
            .on_checkpoint(cluster, begin, end, bytes);
    }
    fn on_recovery_phase(
        &mut self,
        cluster: u32,
        phase: RecoveryPhase,
        begin: SimTime,
        end: SimTime,
    ) {
        self.0
            .lock()
            .unwrap()
            .on_recovery_phase(cluster, phase, begin, end);
    }
    fn on_storage(
        &mut self,
        dir: StorageDir,
        begin: SimTime,
        queued: SimDuration,
        service: SimDuration,
        bytes: u64,
    ) {
        self.0
            .lock()
            .unwrap()
            .on_storage(dir, begin, queued, service, bytes);
    }
    fn on_run_end(&mut self, makespan: SimTime, gauges: &Gauges) {
        self.0.lock().unwrap().on_run_end(makespan, gauges);
    }
}

// ---------------------------------------------------------------------------
// Lockstep loop
// ---------------------------------------------------------------------------

/// What the shard threads of one run share: the barrier they step on,
/// the published state table and the per-pair envelope slots.
struct Lockstep<C> {
    barrier: Barrier,
    /// `states[s]`: shard `s`'s state, published before each decision.
    states: Vec<Mutex<ShardState>>,
    /// `out[from * n + to]`: envelopes `from` sent to `to` in the last
    /// phase, injected by `to` at the top of the next turn.
    out: Vec<Mutex<Vec<RemoteEnvelope<C>>>>,
    /// The barrier wait after which every shard returns, counted from 1
    /// (`usize::MAX` while no shard has panicked). A panicking shard sets
    /// it to the wait it is about to take.
    abort_at: AtomicUsize,
    shard_of_rank: Arc<Vec<u32>>,
    lookahead: SimDuration,
    max_events: u64,
}

impl<C> Lockstep<C> {
    fn slot(&self, from: usize, to: usize) -> &Mutex<Vec<RemoteEnvelope<C>>> {
        &self.out[from * self.states.len() + to]
    }

    /// Take barrier wait number `*waits + 1`; false when a shard
    /// panicked before it. Every shard is between the same two waits, so
    /// the one a panicking shard takes releases all its peers onto this
    /// check; a panic during the phase a peer is just leaving sets a
    /// later wait and does not stop it early.
    fn wait(&self, waits: &mut usize) -> bool {
        self.barrier.wait();
        *waits += 1;
        self.abort_at.load(Ordering::Relaxed) > *waits
    }

    /// Shard `me`'s whole run: its outcome, the windows run and whether
    /// the event budget ran out, or `None` when a peer panicked.
    /// Re-raises this shard's own panic after releasing its peers.
    fn run<P: Protocol<Ctl = C>>(
        &self,
        mut sim: Sim<P>,
        me: usize,
    ) -> Option<(ShardOutcome, u64, bool)> {
        let mut waits = 0;
        match catch_unwind(AssertUnwindSafe(|| self.turns(&mut sim, me, &mut waits))) {
            Ok(Some((rounds, limit_hit))) => Some((sim.shard_finish().0, rounds, limit_hit)),
            Ok(None) => None,
            Err(payload) => {
                self.abort_at.fetch_min(waits + 1, Ordering::Relaxed);
                self.barrier.wait();
                resume_unwind(payload)
            }
        }
    }

    /// The lockstep loop (DESIGN.md §2.8). Slot locks are only held to
    /// move vectors, never across protocol code.
    fn turns<P: Protocol<Ctl = C>>(
        &self,
        sim: &mut Sim<P>,
        me: usize,
        waits: &mut usize,
    ) -> Option<(u64, bool)> {
        let n = self.states.len();
        let mut routed: Vec<Vec<RemoteEnvelope<C>>> = (0..n).map(|_| Vec::new()).collect();
        let mut rounds = 0u64;
        loop {
            // Peeks must include every routed arrival, so inject first.
            for from in 0..n {
                let envs = std::mem::take(&mut *self.slot(from, me).lock().unwrap());
                sim.shard_inject(envs);
            }
            *self.states[me].lock().unwrap() = sim.shard_state();
            if !self.wait(waits) {
                return None;
            }
            let states: Vec<ShardState> = self.states.iter().map(|s| *s.lock().unwrap()).collect();
            match decide(&states, self.lookahead, self.max_events) {
                Decision::Stop { limit_hit } => return Some((rounds, limit_hit)),
                decision => {
                    rounds += matches!(decision, Decision::Window(_)) as u64;
                    sim.act(decision, me);
                }
            }
            for env in sim.shard_take_outbox() {
                let Endpoint::Rank(r) = env.dst() else {
                    unreachable!("aux endpoints never cross shards");
                };
                routed[self.shard_of_rank[r.idx()] as usize].push(env);
            }
            for (to, envs) in routed.iter_mut().enumerate() {
                if !envs.is_empty() {
                    self.slot(me, to).lock().unwrap().append(envs);
                }
            }
            if !self.wait(waits) {
                return None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run `app` to completion under `failures` on as many cluster shards
/// as the driver's shard-count rule allows for the `shards` requested,
/// and merge the shards into one [`RunReport`]
/// bit-for-bit equal (digests, metrics, containment integers) to the
/// one-shard run's.
///
/// `make_protocol` is called once per shard, ascending, with the shard's
/// slice; protocols that hold cross-cluster shared state take it shared
/// here (e.g. `Hydee::sharded` with one storage ledger behind a mutex).
/// The recorder, if any, observes the whole run and sees one
/// `on_run_end`.
pub fn run_sharded<P, F>(
    app: Application,
    mut config: SimConfig,
    clusters: &ClusterMap,
    shards: usize,
    failures: Box<dyn FailureModel>,
    recorder: Option<Box<dyn Recorder>>,
    mut make_protocol: F,
) -> RunReport
where
    P: Protocol + Send,
    P::Ctl: Send,
    F: FnMut(&ShardSlice) -> P,
{
    assert_eq!(clusters.n_ranks(), app.n_ranks());
    let n = shard_count(shards, clusters.n_clusters(), &*failures);
    // Resolve the topology once; every shard prices through this copy.
    let topology = config.resolved_topology(app.n_ranks());
    config.topology = Some(topology.clone());
    let (slices, shard_of_rank) = assign_shards(clusters, n);

    if n == 1 {
        let protocol = make_protocol(&slices[0]);
        let mut sim = Sim::new_sharded(app, config, protocol, shard_of_rank, 0);
        sim.set_failure_model(failures);
        if let Some(recorder) = recorder {
            sim.set_recorder(recorder);
        }
        return sim.run();
    }
    // The shard-count rule only shards runs that expect no failures.
    drop(failures);
    let shared_rec = recorder.map(|rec| SharedRecorder(Arc::new(Mutex::new(rec))));

    // Build every shard on this thread, then run `init` in ascending
    // shard order: shared-state mutations during init replay the
    // one-shard run's cluster order.
    let mut sims: Vec<Sim<P>> = slices
        .iter()
        .map(|slice| {
            let mut sim = Sim::new_sharded(
                app.clone(),
                config.clone(),
                make_protocol(slice),
                shard_of_rank.clone(),
                slice.shard,
            );
            if let Some(rec) = &shared_rec {
                sim.set_recorder(Box::new(rec.clone()));
            }
            sim
        })
        .collect();
    for sim in &mut sims {
        sim.shard_init();
    }

    // Conservative lookahead. Shards are unions of whole clusters, so
    // every cross-shard message crosses a cluster boundary; with a
    // tiered topology its transit is bounded below by the link class of
    // the (sender cluster, receiver cluster) pair, not by the global
    // scalar minimum. The horizon therefore widens to the minimum over
    // the link classes *actually crossing shard boundaries* — strictly
    // larger than the scalar whenever the topology distinguishes
    // inter-cluster links, hence tighter windows and fewer barrier
    // rounds (DESIGN.md §2.9). A flat topology (one class) keeps the
    // scalar and reports no pairs.
    let (lookahead, pair_lookahead) = if topology.n_classes() > 1 {
        let topo = &*topology;
        let mut pairs: Vec<(u32, u32, SimDuration)> = Vec::new();
        for i in 0..slices.len() {
            for j in (i + 1)..slices.len() {
                let pmin = slices[i]
                    .clusters
                    .iter()
                    .flat_map(|&a| {
                        slices[j]
                            .clusters
                            .iter()
                            .map(move |&b| topo.cluster_min_transit(a, b))
                    })
                    .min();
                if let Some(t) = pmin {
                    pairs.push((slices[i].shard, slices[j].shard, t));
                }
            }
        }
        let lookahead = pairs
            .iter()
            .map(|&(_, _, t)| t)
            .min()
            .unwrap_or_else(|| config.network.min_transit());
        (lookahead, pairs)
    } else {
        (config.network.min_transit(), Vec::new())
    };
    let lockstep = Lockstep {
        barrier: Barrier::new(n),
        states: (0..n).map(|_| Mutex::default()).collect(),
        out: (0..n * n).map(|_| Mutex::default()).collect(),
        abort_at: AtomicUsize::new(usize::MAX),
        shard_of_rank: shard_of_rank.clone(),
        lookahead,
        max_events: config.max_events,
    };

    // One thread per shard; this thread only joins them, in shard order,
    // so the first panic met is the lowest-numbered shard's.
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = sims
            .into_iter()
            .enumerate()
            .map(|(me, sim)| {
                let lockstep = &lockstep;
                scope.spawn(move || lockstep.run(sim, me))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut outcomes = Vec::with_capacity(n);
    let (mut barrier_rounds, mut limit_hit) = (0, false);
    for result in joined {
        match result {
            Ok(Some((outcome, rounds, limit))) => {
                outcomes.push(outcome);
                (barrier_rounds, limit_hit) = (rounds, limit);
            }
            Ok(None) => {}
            Err(payload) => resume_unwind(payload),
        }
    }
    merge(
        outcomes,
        &shard_of_rank,
        barrier_rounds,
        pair_lookahead,
        limit_hit,
    )
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// Fan shard outcomes into the run's one [`RunReport`], and fire the
/// recorder's one `on_run_end` with the shards' live gauges summed.
/// Per-rank vectors pick the owner shard's entry; counters sum;
/// `logged_bytes_peak` is replayed from the merged mutation journal
/// (a running-max over *global* order that per-shard counters cannot
/// recover); the trace is a disjoint union.
pub(crate) fn merge(
    mut outcomes: Vec<ShardOutcome>,
    shard_of_rank: &[u32],
    barrier_rounds: u64,
    pair_lookahead: Vec<(u32, u32, SimDuration)>,
    limit_hit: bool,
) -> RunReport {
    let shards = outcomes.len() as u32;
    let n_ranks = shard_of_rank.len();
    let owner = |i: usize| &outcomes[shard_of_rank[i] as usize];
    let digests: Vec<u64> = (0..n_ranks).map(|i| owner(i).digests[i]).collect();
    let inbox_leftover: Vec<usize> = (0..n_ranks).map(|i| owner(i).inbox_leftover[i]).collect();
    let makespan = (0..n_ranks)
        .map(|i| owner(i).clocks[i])
        .max()
        .unwrap_or(SimTime::ZERO);

    let mut metrics = Metrics::default();
    let mut gauges = Gauges::default();
    for o in &outcomes {
        let m = &o.metrics;
        metrics.app_messages += m.app_messages;
        metrics.app_bytes += m.app_bytes;
        metrics.wire_bytes += m.wire_bytes;
        metrics.ctl_messages += m.ctl_messages;
        metrics.ctl_bytes += m.ctl_bytes;
        metrics.deliveries += m.deliveries;
        metrics.events += m.events;
        metrics.logged_messages += m.logged_messages;
        metrics.logged_bytes += m.logged_bytes;
        metrics.logged_bytes_cumulative += m.logged_bytes_cumulative;
        metrics.gc_reclaimed_messages += m.gc_reclaimed_messages;
        metrics.gc_reclaimed_bytes += m.gc_reclaimed_bytes;
        metrics.checkpoints += m.checkpoints;
        metrics.checkpoint_bytes += m.checkpoint_bytes;
        metrics.checkpoint_time += m.checkpoint_time;
        metrics.failures += m.failures;
        metrics.failed_ranks += m.failed_ranks;
        metrics.ranks_rolled_back += m.ranks_rolled_back;
        metrics.lost_work += m.lost_work;
        metrics.suppressed_sends += m.suppressed_sends;
        metrics.replayed_messages += m.replayed_messages;
        metrics.replayed_bytes += m.replayed_bytes;
        metrics.recovery_time += m.recovery_time;
        let g = &o.gauges;
        gauges.events += g.events;
        gauges.queue_depth += g.queue_depth;
        gauges.inflight_msgs += g.inflight_msgs;
        gauges.logged_bytes += g.logged_bytes;
        gauges.deliveries += g.deliveries;
        gauges.checkpoint_time_ps += g.checkpoint_time_ps;
        gauges.lost_work_ps += g.lost_work_ps;
    }
    metrics.makespan = makespan;
    metrics.logged_bytes_peak = match &outcomes[..] {
        // A lone shard applied every mutation in global order itself.
        [only] => only.metrics.logged_bytes_peak,
        _ => replay_log_peak(&outcomes),
    };

    let status = if limit_hit {
        RunStatus::EventLimit
    } else if outcomes.iter().all(|o| o.done) {
        RunStatus::Completed
    } else {
        let mut stuck: Vec<(u32, String)> = outcomes.iter().flat_map(|o| o.stuck.clone()).collect();
        stuck.sort_by_key(|&(r, _)| r);
        RunStatus::Deadlock(stuck.into_iter().map(|(_, d)| d).collect())
    };

    // Every shard of a sharded run holds a handle on the same recorder:
    // the first one fires the run's one `on_run_end`.
    if let Some(mut rec) = outcomes.iter_mut().find_map(|o| o.recorder.take()) {
        rec.on_run_end(makespan, &gauges);
    }

    // Consumes `outcomes`, so everything that reads them comes first:
    // moving the traces keeps one copy of each shard's oracle resident.
    let trace = outcomes
        .into_iter()
        .map(|o| o.trace)
        .reduce(|mut t, other| {
            t.absorb(other);
            t
        })
        .expect("at least one shard");

    RunReport {
        status,
        metrics,
        trace,
        digests,
        inbox_leftover,
        makespan,
        shards,
        barrier_rounds,
        pair_lookahead,
    }
}

/// Replay every shard's sender-log mutation journal in merged global
/// `(time, event key, intra-event index)` order, tracking the running
/// total's maximum — the one-shard `logged_bytes_peak`.
fn replay_log_peak(outcomes: &[ShardOutcome]) -> u64 {
    let mut deltas: Vec<LogDelta> = outcomes
        .iter()
        .flat_map(|o| o.log_timeline.iter().copied())
        .collect();
    // Stamps are globally unique: cross-shard (time, key) pairs are
    // distinct by construction and `sub` orders within one event.
    deltas.sort_unstable_by_key(|d| (d.at, d.key, d.sub));
    let mut level = 0i64;
    let mut peak = 0i64;
    for d in deltas {
        level += d.delta;
        peak = peak.max(level);
    }
    debug_assert!(level >= 0);
    peak.max(0) as u64
}
