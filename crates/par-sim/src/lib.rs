//! # par-sim — conservative cluster-sharded parallel simulation
//!
//! A parallel front-end for the serial `mps-sim` engine (DESIGN.md §2.8):
//! the rank space is partitioned into **shards of whole clusters**, each
//! shard runs its own engine instance (event queue + scheduler) on its own
//! worker thread, and a coordinator advances all shards through
//! conservative **time windows** derived from the minimum cross-shard
//! transit (the *lookahead*): `NetworkModel::min_transit` for size-only
//! pricing, or — with a topology configured — the minimum over the link
//! classes actually crossing each shard boundary, which is strictly
//! larger on non-flat machines and buys fewer barrier rounds
//! (DESIGN.md §2.9; the per-pair values are reported in
//! `RunReport::pair_lookahead`).
//!
//! The synchronization scheme is null-message-free:
//!
//! 1. find the global minimum `(time, key)` over every shard's next event
//!    (`gmin`);
//! 2. let every shard process its events in `[gmin, gmin + lookahead)` in
//!    parallel — no event in that window can make anything arrive on
//!    another shard before the horizon, because a message executed at
//!    `u ≥ gmin` arrives no earlier than `u + lookahead`;
//! 3. exchange the cross-shard sends produced (their arrival times were
//!    FIFO-adjusted on the sending shard) and repeat.
//!
//! **Timers are never run inside a window.** They are the one event class
//! that touches state shared between shards (the storage-contention
//! ledger, via checkpoint policies), so the coordinator executes them
//! one at a time in global `(time, key)` order — exactly the serial
//! engine's order. Window events commute across shards: they only touch
//! shard-local state.
//!
//! The contract is **bit-for-bit equivalence** with the serial engine:
//! same digests, same metrics, same containment integers (the serial
//! engine stays the oracle, like `UnrolledProgram` before it). It holds
//! because the scheduler orders events by content-derived keys — see
//! `mps_sim::engine::key` — so the pop order of same-instant events does
//! not depend on which engine instance scheduled them. Two deliberate
//! exceptions, both documented in DESIGN.md §2.8: the `max_events`
//! budget is enforced per window round (a sharded run may overshoot the
//! serial cut-off point before noticing), and the byte order of telemetry
//! *trace files* depends on wall-clock interleaving (recorders observe,
//! they never influence).
//!
//! Sharded runs must be failure-free; the caller (`protocols::factory`)
//! routes any run whose failure model expects failures to the serial
//! engine.

use det_sim::{SimDuration, SimTime};
use mps_sim::engine::key;
use mps_sim::{
    Application, ClusterMap, Gauges, LogDelta, Metrics, Protocol, Recorder, RecoveryPhase,
    RemoteEnvelope, RunReport, RunStatus, ShardOutcome, Sim, SimConfig, StorageDir,
};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::ScopedJoinHandle;

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
// Worker protocol
// ---------------------------------------------------------------------------

enum Cmd<C> {
    /// Inject routed envelopes (possibly none) and report state.
    Exchange(Vec<RemoteEnvelope<C>>),
    /// Process every event strictly before the horizon (stops early at a
    /// timer head).
    RunWindow(SimTime),
    /// Pop and process exactly one event (the coordinator's sequential
    /// phase: timers, degenerate zero-lookahead).
    Step,
    /// Pop and drop the head timer uncounted (global completion reached).
    DiscardTimer,
    /// Tear down and return the shard's outcome.
    Finish,
}

/// Snapshot of a shard's scheduler piggybacked on every reply.
#[derive(Clone, Copy)]
struct ShardState {
    peek: Option<(SimTime, u64)>,
    pending_hot: u64,
    done: bool,
    events: u64,
}

enum Reply<C> {
    State {
        outbox: Vec<RemoteEnvelope<C>>,
        state: ShardState,
    },
    Outcome(Box<ShardOutcome>),
}

fn state_of<P: Protocol>(sim: &mut Sim<P>) -> ShardState {
    ShardState {
        peek: sim.shard_peek(),
        pending_hot: sim.shard_pending_hot(),
        done: sim.shard_done(),
        events: sim.shard_events(),
    }
}

fn worker<P: Protocol>(
    mut sim: Sim<P>,
    rx: mpsc::Receiver<Cmd<P::Ctl>>,
    tx: mpsc::Sender<Reply<P::Ctl>>,
) {
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Exchange(envs) => {
                sim.shard_inject(envs);
                Reply::State {
                    outbox: Vec::new(),
                    state: state_of(&mut sim),
                }
            }
            Cmd::RunWindow(horizon) => {
                sim.shard_run_window(horizon);
                Reply::State {
                    outbox: sim.shard_take_outbox(),
                    state: state_of(&mut sim),
                }
            }
            Cmd::Step => {
                sim.shard_step();
                Reply::State {
                    outbox: sim.shard_take_outbox(),
                    state: state_of(&mut sim),
                }
            }
            Cmd::DiscardTimer => {
                sim.shard_discard_timer();
                Reply::State {
                    outbox: Vec::new(),
                    state: state_of(&mut sim),
                }
            }
            Cmd::Finish => {
                let _ = tx.send(Reply::Outcome(Box::new(sim.shard_finish())));
                return;
            }
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Run `app` under `protocol` instances sharded over `n_shards` worker
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
    let max_events = config.max_events;
    let n = sims.len();

    let (outcomes, barrier_rounds, limit_hit) = std::thread::scope(|scope| {
        let mut w = Workers {
            cmd_tx: Vec::with_capacity(n),
            reply_rx: Vec::with_capacity(n),
            handles: Vec::with_capacity(n),
        };
        for sim in sims {
            let (ctx, crx) = mpsc::channel::<Cmd<P::Ctl>>();
            let (rtx, rrx) = mpsc::channel::<Reply<P::Ctl>>();
            w.cmd_tx.push(ctx);
            w.reply_rx.push(rrx);
            w.handles.push(scope.spawn(move || worker(sim, crx, rtx)));
        }

        // Routed-but-undelivered cross-shard envelopes, per target shard.
        let mut pending: Vec<Vec<RemoteEnvelope<P::Ctl>>> = (0..n).map(|_| Vec::new()).collect();
        let mut states: Vec<ShardState> = Vec::with_capacity(n);
        let mut barrier_rounds = 0u64;
        let mut limit_hit = false;

        // Prime the state table.
        for s in 0..n {
            w.send(s, Cmd::Exchange(Vec::new()));
        }
        for s in 0..n {
            states.push(w.recv_state(s, &mut pending, &shard_of_rank));
        }

        loop {
            // Deliver what the last phase produced before reading gmin:
            // peeks must include every routed arrival.
            for s in 0..n {
                if !pending[s].is_empty() {
                    w.send(s, Cmd::Exchange(std::mem::take(&mut pending[s])));
                    states[s] = w.recv_state(s, &mut pending, &shard_of_rank);
                }
            }

            // Global `max_events` budget, enforced per round (DESIGN.md
            // §2.8: approximate — a window may overshoot the serial
            // cut-off before the coordinator notices).
            if states.iter().map(|st| st.events).sum::<u64>() > max_events {
                limit_hit = true;
                break;
            }

            let all_done = states.iter().all(|st| st.done);
            let hot: u64 = states.iter().map(|st| st.pending_hot).sum();
            if hot == 0 && all_done {
                break; // drain-complete (leftover timers are moot)
            }

            // Global minimum (time, key). Cross-shard (time, key) pairs
            // are distinct by construction (content-derived keys), but a
            // strict `<` keeps the choice deterministic regardless.
            let gmin = states
                .iter()
                .enumerate()
                .filter_map(|(s, st)| st.peek.map(|tk| (tk, s)))
                .min();
            let Some(((tmin, kmin), smin)) = gmin else {
                break; // every queue empty with unfinished ranks: deadlock
            };

            if key::class(kmin) == key::CLASS_TIMER {
                // Timers mutate shared state: execute them one at a time
                // in global (time, key) order — the serial order. After
                // global completion they are discarded uncounted, exactly
                // like the serial drain loop.
                let cmd = if all_done {
                    Cmd::DiscardTimer
                } else {
                    Cmd::Step
                };
                w.send(smin, cmd);
                states[smin] = w.recv_state(smin, &mut pending, &shard_of_rank);
                continue;
            }

            let horizon = tmin + lookahead;
            if horizon <= tmin {
                // Degenerate zero-lookahead model: fall back to stepping
                // the globally next event sequentially.
                w.send(smin, Cmd::Step);
                states[smin] = w.recv_state(smin, &mut pending, &shard_of_rank);
                continue;
            }

            // The parallel phase: every shard advances to the horizon.
            for s in 0..n {
                w.send(s, Cmd::RunWindow(horizon));
            }
            for (s, state) in states.iter_mut().enumerate() {
                *state = w.recv_state(s, &mut pending, &shard_of_rank);
            }
            barrier_rounds += 1;
        }

        let mut outcomes = Vec::with_capacity(n);
        for s in 0..n {
            w.send(s, Cmd::Finish);
            match w.recv(s) {
                Reply::Outcome(o) => outcomes.push(*o),
                Reply::State { .. } => unreachable!("Finish replies with Outcome"),
            }
        }
        (outcomes, barrier_rounds, limit_hit)
    });

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

/// The coordinator's end of the worker threads. A worker only drops its
/// channels by returning, and it returns early only by panicking, so a
/// channel error joins that worker and re-raises its panic payload: the
/// caller sees the shard's own message, not a bare `RecvError`.
struct Workers<'scope, C> {
    cmd_tx: Vec<mpsc::Sender<Cmd<C>>>,
    reply_rx: Vec<mpsc::Receiver<Reply<C>>>,
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<C> Workers<'_, C> {
    fn send(&mut self, s: usize, cmd: Cmd<C>) {
        if self.cmd_tx[s].send(cmd).is_err() {
            self.rethrow(s);
        }
    }

    fn recv(&mut self, s: usize) -> Reply<C> {
        self.reply_rx[s].recv().unwrap_or_else(|_| self.rethrow(s))
    }

    /// Join the dead worker of shard `s` and resume its panic.
    fn rethrow(&mut self, s: usize) -> ! {
        match self.handles.swap_remove(s).join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("shard {s} worker exited without replying"),
        }
    }

    /// Receive one [`Reply::State`] from shard `s`, routing its outbox
    /// into `pending`.
    fn recv_state(
        &mut self,
        s: usize,
        pending: &mut [Vec<RemoteEnvelope<C>>],
        shard_of_rank: &[u32],
    ) -> ShardState {
        match self.recv(s) {
            Reply::State { outbox, state } => {
                for env in outbox {
                    let mps_sim::Endpoint::Rank(r) = env.dst() else {
                        unreachable!("aux endpoints never cross shards");
                    };
                    pending[shard_of_rank[r.idx()] as usize].push(env);
                }
                state
            }
            Reply::Outcome(_) => unreachable!("Outcome only replies to Finish"),
        }
    }
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
    metrics.logged_bytes_peak = replay_log_peak(&outcomes);

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
