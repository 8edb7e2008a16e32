//! # par-sim — conservative cluster-sharded parallel simulation
//!
//! A parallel front-end for the `mps-sim` engine (DESIGN.md §2.8):
//! the rank space is partitioned into **shards of whole clusters**, each
//! shard runs its own engine instance (event queue + scheduler) on its own
//! thread, and the shards advance together through conservative **time
//! windows** derived from the minimum cross-shard transit (the
//! *lookahead*): `NetworkModel::min_transit` for size-only pricing, or —
//! with a topology configured — the minimum over the link classes
//! actually crossing each shard boundary, which is strictly larger on
//! non-flat machines and buys fewer barrier rounds (DESIGN.md §2.9; the
//! per-pair values are reported in `RunReport::pair_lookahead`).
//!
//! There is no coordinator thread and there are no null messages. Every
//! shard runs the same **lockstep loop** on one [`std::sync::Barrier`]:
//!
//! 1. inject the envelopes the other shards left in its per-pair slots;
//! 2. publish its [`ShardState`] (next `(time, key)`, hot backlog,
//!    completion, event count) and wait at the barrier;
//! 3. read every shard's state and compute the same decision with the
//!    pure function `mps_sim::decide`: stop, step one shard's head
//!    event, discard one shard's head timer, or run a window
//!    `[gmin, gmin + lookahead)` in parallel — no event in that window
//!    can make anything arrive on another shard before the horizon,
//!    because a message executed at `u ≥ gmin` arrives no earlier than
//!    `u + lookahead`;
//! 4. act on it with `Sim::act` (only the named shard acts on a step or
//!    a discard), move its cross-shard sends into the slots of their
//!    target shards (their arrival times were FIFO-adjusted on the
//!    sending shard), and wait at the barrier again.
//!
//! **Timers are never run inside a window.** They are the one event class
//! that touches state shared between shards (the storage-contention
//! ledger, via checkpoint policies), so they execute one at a time in
//! global `(time, key)` order — exactly a one-shard run's order. Window
//! events commute across shards: they only touch shard-local state.
//!
//! A serial run is the same loop with one shard, run by
//! `Sim::run_with_protocol` on the caller's thread with an unbounded
//! lookahead and no barrier. The contract is **bit-for-bit equivalence**
//! at every shard count: same digests, same metrics, same containment
//! integers as the one-shard run, whose results the committed goldens
//! pin. It holds because the scheduler orders events by content-derived
//! keys — see `mps_sim::engine::key` — so the pop order of same-instant
//! events does not depend on which engine instance scheduled them. Two
//! deliberate exceptions, both documented in DESIGN.md §2.8: a window
//! stops on its own shard's `max_events` count, so the shards together
//! may pass the budget before the next decision stops the run, and the
//! byte order of telemetry *trace files* depends on wall-clock
//! interleaving (recorders observe, they never influence).
//!
//! A shard that panics records the barrier wait it is about to take in a
//! shared abort slot and takes that one wait, which releases its peers;
//! they see the slot and return, and `run_sharded` re-raises the
//! lowest-numbered panicking shard's own payload.
//!
//! Sharded runs must be failure-free; the caller (`protocols::factory`)
//! routes any run whose failure model expects failures to the serial
//! engine.

use det_sim::{SimDuration, SimTime};
use mps_sim::{
    decide, Application, ClusterMap, Decision, Endpoint, Gauges, LogDelta, Metrics, Protocol,
    Recorder, RecoveryPhase, RemoteEnvelope, RunReport, RunStatus, ShardOutcome, ShardState, Sim,
    SimConfig, StorageDir,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

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
pub fn assign_shards(clusters: &ClusterMap, n_shards: usize) -> (Vec<ShardSlice>, Arc<Vec<u32>>) {
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

/// Fan-in wrapper giving every shard the same underlying [`Recorder`].
/// Calls are serialized by the mutex; their interleaving *across shards
/// inside one window* follows wall-clock scheduling, which is why sharded
/// trace files are not byte-stable (DESIGN.md §2.8). Virtual timestamps
/// in the events are exact either way.
#[derive(Clone)]
pub struct SharedRecorder(Arc<Mutex<Box<dyn Recorder>>>);

impl SharedRecorder {
    pub fn new(inner: Box<dyn Recorder>) -> Self {
        SharedRecorder(Arc::new(Mutex::new(inner)))
    }
}

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
            Ok(Some((rounds, limit_hit))) => Some((sim.shard_finish(), rounds, limit_hit)),
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
// Sharded run
// ---------------------------------------------------------------------------

/// Run `app` under `protocol` instances sharded over `n_shards` shard
/// threads, merging into one [`RunReport`] bit-for-bit equal (digests,
/// metrics, containment integers) to the serial engine's.
///
/// `make_protocol` is called once per shard, ascending, with the shard's
/// slice; protocols that hold cross-cluster shared state take it shared
/// here (e.g. `Hydee::sharded` with one storage ledger behind a mutex).
/// The run must be failure-free — inject no failures and expect none from
/// a model; the caller enforces this before choosing the parallel path.
pub fn run_sharded<P, F>(
    app: Application,
    config: SimConfig,
    clusters: &ClusterMap,
    n_shards: usize,
    mut make_protocol: F,
    recorder: Option<Box<dyn Recorder>>,
) -> RunReport
where
    P: Protocol + Send,
    P::Ctl: Send,
    F: FnMut(&ShardSlice) -> P,
{
    assert_eq!(clusters.n_ranks(), app.n_ranks());
    let (slices, shard_of_rank) = assign_shards(clusters, n_shards);
    let shared_rec = recorder.map(SharedRecorder::new);

    // Build every shard on this thread, then run `init` in ascending
    // shard order: shared-state mutations during init replay the serial
    // engine's cluster order.
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
    // non-flat topology its transit is bounded below by the link class
    // of the (sender cluster, receiver cluster) pair, not by the global
    // scalar minimum. The horizon therefore widens to the minimum over
    // the link classes *actually crossing shard boundaries* — strictly
    // larger than the legacy scalar whenever the topology distinguishes
    // inter-cluster links, hence tighter windows and fewer barrier
    // rounds (DESIGN.md §2.9). Flat topologies (one class) and the
    // no-topology path keep the v6 scalar and report no pairs.
    let (lookahead, pair_lookahead) = match config.topology.as_deref() {
        Some(topo) if topo.n_classes() > 1 => {
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
        }
        _ => (config.network.min_transit(), Vec::new()),
    };
    let n = sims.len();
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
        n as u32,
        barrier_rounds,
        pair_lookahead,
        limit_hit,
        shared_rec,
    )
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// Fan shard outcomes into one [`RunReport`] equal to the serial one.
/// Per-rank vectors pick the owner shard's entry; counters sum;
/// `logged_bytes_peak` is replayed from the merged mutation journal
/// (a running-max over *global* order that per-shard counters cannot
/// recover); the trace is a disjoint union.
fn merge(
    outcomes: Vec<ShardOutcome>,
    shard_of_rank: &[u32],
    shards: u32,
    barrier_rounds: u64,
    pair_lookahead: Vec<(u32, u32, SimDuration)>,
    limit_hit: bool,
    shared_rec: Option<SharedRecorder>,
) -> RunReport {
    let n_ranks = shard_of_rank.len();
    let pick = |f: &dyn Fn(&ShardOutcome, usize) -> u64| -> Vec<u64> {
        (0..n_ranks)
            .map(|i| f(&outcomes[shard_of_rank[i] as usize], i))
            .collect()
    };
    let digests = pick(&|o, i| o.digests[i]);
    let inbox_leftover: Vec<usize> = (0..n_ranks)
        .map(|i| outcomes[shard_of_rank[i] as usize].inbox_leftover[i])
        .collect();
    let makespan = (0..n_ranks)
        .map(|i| outcomes[shard_of_rank[i] as usize].clocks[i])
        .max()
        .unwrap_or(SimTime::ZERO);

    let mut metrics = Metrics::default();
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

    // One global `on_run_end`, with gauges synthesized from the merged
    // metrics (the live queue/inflight gauges are per-shard notions that
    // are all zero-or-moot once the run has drained).
    if let Some(mut rec) = shared_rec {
        let gauges = Gauges {
            events: metrics.events,
            queue_depth: 0,
            inflight_msgs: 0,
            logged_bytes: metrics.logged_bytes,
            deliveries: metrics.deliveries,
            checkpoint_time_ps: metrics.checkpoint_time.as_ps(),
            lost_work_ps: metrics.lost_work.as_ps(),
        };
        rec.on_run_end(makespan, &gauges);
    }

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
/// total's maximum — the serial `logged_bytes_peak`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::ClusterMap;

    #[test]
    fn effective_shards_clamps_with_warning() {
        assert_eq!(effective_shards(4, 8), (4, None));
        assert_eq!(effective_shards(8, 8), (8, None));
        let (n, warn) = effective_shards(16, 8);
        assert_eq!(n, 8);
        let warn = warn.expect("clamping warns");
        assert!(warn.contains("16") && warn.contains("8"), "{warn}");
        // Degenerate requests still produce a runnable plan.
        assert_eq!(effective_shards(0, 8), (1, None));
        let (n, warn) = effective_shards(3, 1);
        assert_eq!(n, 1);
        assert!(warn.is_some());
    }

    #[test]
    fn assign_shards_is_contiguous_and_balanced() {
        let map = ClusterMap::blocks(64, 16); // 16 clusters of 4
        let (slices, sor) = assign_shards(&map, 4);
        assert_eq!(slices.len(), 4);
        // Contiguous cluster ranges covering everything exactly once.
        let all: Vec<u32> = slices.iter().flat_map(|s| s.clusters.clone()).collect();
        assert_eq!(all, (0..16).collect::<Vec<u32>>());
        // Uniform clusters balance exactly.
        for s in &slices {
            assert_eq!(s.ranks, 16);
        }
        // The rank table matches the slices.
        for slice in &slices {
            for &c in &slice.clusters {
                for &r in map.members(c) {
                    assert_eq!(sor[r.idx()], slice.shard);
                }
            }
        }
    }

    #[test]
    fn assign_shards_balances_uneven_clusters() {
        // 3 clusters of 5,1,1 ranks over 2 shards: the greedy split puts
        // the big cluster alone (5 >= ceil(7/2)) and the rest together.
        let map = ClusterMap::new(vec![0, 0, 0, 0, 0, 1, 2]);
        let (slices, _) = assign_shards(&map, 2);
        assert_eq!(slices[0].clusters, vec![0]);
        assert_eq!(slices[1].clusters, vec![1, 2]);
        // Every shard owns at least one cluster even when early shards
        // would gladly swallow everything.
        let map = ClusterMap::new(vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]);
        let (slices, _) = assign_shards(&map, 4);
        assert!(slices.iter().all(|s| !s.clusters.is_empty()));
    }
}
