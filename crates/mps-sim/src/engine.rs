//! The discrete-event execution engine.
//!
//! Each rank interprets its program inside engine events. An `Exec` event
//! runs a rank forward — inline, advancing only its *local* clock — until
//! it blocks (unsatisfied receive), hits a closed send gate, yields after a
//! compute op, or finishes. Message arrivals, control messages, timers and
//! failures are separate events. All ordering is deterministic (see
//! `det_sim::Scheduler`).
//!
//! ## Timing model
//!
//! * A send charges the sender `cost.sender (+ protocol extras)` CPU time
//!   and schedules an arrival at `sender_clock + transit`, bumped so that
//!   arrivals on a directed channel are FIFO. Control messages share the
//!   FIFO order of application messages on the same channel — HydEE's
//!   `LastDate` correctness argument depends on this.
//! * A delivery charges the receiver `cost.receiver` CPU time.
//! * Because ranks run inline ahead of the global clock, a failure injected
//!   at time `T` takes effect at each victim's current local point; the
//!   execution is equivalent to one where the failure struck at
//!   `max(T, local_clock)`. This is documented engine semantics.
//!
//! ## What protocols can do
//!
//! See [`Ctx`]: charge CPU time, send control messages, capture/restore
//! rank snapshots and in-flight channel state, gate sends, replay logged
//! messages, set timers.

use crate::app::{AppState, DetMode};
use crate::failure::FailureModel;
use crate::inbox::Inbox;
use crate::metrics::Metrics;
use crate::peer_map::PeerMap;
use crate::program::{Application, GenProgram, Op};
use crate::protocol::{Protocol, SendAction, SendInfo};
use crate::shards::{decide, merge, Decision, ShardState};
use crate::trace::Trace;
use crate::types::{Endpoint, Message, Rank};
use det_sim::{EventHandle, Scheduler, SimDuration, SimTime};
use net_model::{CostCache, LinkClass, MsgCost, MxModel, NetworkModel, Topology};
use std::sync::Arc;
use telemetry::{Gauges, Recorder};

/// Engine configuration. `Clone` so a sharded run can hand every shard
/// the same configuration (the network model is behind an `Arc`).
#[derive(Clone)]
pub struct SimConfig {
    pub det_mode: DetMode,
    pub network: Arc<dyn NetworkModel>,
    /// Hard cap on processed events (runaway guard).
    pub max_events: u64,
    /// Bytes assumed for control messages whose logical payload is small
    /// (rollback notifications, phase reports, ...).
    pub ctl_bytes_default: u64,
    /// Seeded delivery-order perturbation (DESIGN.md §2.8): when set, the
    /// tie-break key of same-timestamp message arrivals is replaced by a
    /// seeded hash, deterministically permuting the order in which
    /// concurrent deliveries on *different* channels are processed.
    /// Per-channel FIFO order is untouched (arrival times on a channel
    /// strictly increase), so send-deterministic digests and containment
    /// integers must be invariant across seeds — the fuzzing lever
    /// `tests/perturbation.rs` turns.
    pub perturb_seed: Option<u64>,
    /// Endpoint-aware pricing (DESIGN.md §2.9). When set, messages
    /// between ranks are priced by `topology.cost(src, dst, bytes)`; the
    /// topology must be built over the same base model as `network` (the
    /// scenario executor guarantees this). `None` — the default — means
    /// a flat topology over `network`, which prices every message on
    /// `network` alone (see [`SimConfig::resolved_topology`]). Traffic
    /// involving an auxiliary endpoint is always priced on the local
    /// link class.
    pub topology: Option<Arc<Topology>>,
}

impl SimConfig {
    /// The topology a run of `n_ranks` prices through: `topology`, or a
    /// flat one over `network` when unset. The engine, the run driver's
    /// lookahead and the protocol factories' storage drain path all read
    /// the topology through here.
    pub fn resolved_topology(&self, n_ranks: usize) -> Arc<Topology> {
        self.topology
            .clone()
            .unwrap_or_else(|| Arc::new(Topology::flat(self.network.clone(), vec![0; n_ranks])))
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            det_mode: DetMode::SendDeterministic,
            network: Arc::new(MxModel::default()),
            max_events: 500_000_000,
            ctl_bytes_default: 32,
            perturb_seed: None,
            topology: None,
        }
    }
}

/// Tie-break key space for same-timestamp events (DESIGN.md §2.8): the
/// top byte is the event *class*, the low 56 bits identify the event
/// within its class. Keys are **content-derived** — a pure function of
/// what the event is, never of when it was inserted — which makes the
/// pop order of same-instant events identical whether they were
/// scheduled by a one-shard run or injected across shard boundaries.
pub mod key {
    use super::{Endpoint, Rank};

    pub const CLASS_SHIFT: u32 = 56;
    pub const PAYLOAD_MASK: u64 = (1 << CLASS_SHIFT) - 1;
    pub const CLASS_EXEC: u64 = 0;
    pub const CLASS_APP: u64 = 1;
    pub const CLASS_CTL: u64 = 2;
    pub const CLASS_TIMER: u64 = 3;
    pub const CLASS_FAILURE: u64 = 4;

    #[inline]
    pub fn class(key: u64) -> u64 {
        key >> CLASS_SHIFT
    }

    #[inline]
    pub fn exec(rank: Rank, epoch: u32) -> u64 {
        // class 0: ranks run before same-instant arrivals/timers, ordered
        // by (rank, epoch).
        (CLASS_EXEC << CLASS_SHIFT) | ((rank.0 as u64) << 32) | epoch as u64
    }

    /// 28-bit endpoint encoding: ranks map to their id, aux endpoints
    /// above them.
    #[inline]
    fn endpoint(e: Endpoint) -> u64 {
        match e {
            Endpoint::Rank(r) => r.0 as u64,
            Endpoint::Aux(a) => (1 << 27) | a as u64,
        }
    }

    /// Arrival tie-break: receiver-major, then sender. `perturb` swaps
    /// the channel identity for a seeded hash (class bits preserved so
    /// app arrivals still sort before control arrivals).
    #[inline]
    pub fn arrival(ctl: bool, from: Endpoint, to: Endpoint, perturb: Option<u64>) -> u64 {
        let class = if ctl { CLASS_CTL } else { CLASS_APP };
        let mut payload = (endpoint(to) << 28) | endpoint(from);
        if let Some(seed) = perturb {
            payload = crate::types::mix64(seed ^ ((class << CLASS_SHIFT) | payload)) & PAYLOAD_MASK;
        }
        (class << CLASS_SHIFT) | payload
    }

    #[inline]
    pub fn timer(id: u64) -> u64 {
        (CLASS_TIMER << CLASS_SHIFT) | (id & PAYLOAD_MASK)
    }

    #[inline]
    pub fn failure() -> u64 {
        CLASS_FAILURE << CLASS_SHIFT
    }

    /// Is this the key of a hot (non-timer) event? Timers are excluded
    /// from the drain-termination count: a queue holding nothing but
    /// timers cannot make application progress (DESIGN.md §2.8).
    #[inline]
    pub fn is_hot(key: u64) -> bool {
        class(key) != CLASS_TIMER
    }
}

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every rank finished its program.
    Completed,
    /// The event queue drained with unfinished ranks — the diagnostic lists
    /// each stuck rank and what it was waiting for.
    Deadlock(Vec<String>),
    /// `max_events` exceeded.
    EventLimit,
}

/// Result of a run.
#[derive(Debug)]
pub struct RunReport {
    pub status: RunStatus,
    pub metrics: Metrics,
    pub trace: Trace,
    /// Final application state digest per rank.
    pub digests: Vec<u64>,
    /// Messages still sitting in each rank's inbox at the end of the run.
    /// A completed run should leave every inbox empty; a nonzero count
    /// indicates a duplicate delivery (protocol bug).
    pub inbox_leftover: Vec<usize>,
    pub makespan: SimTime,
    /// Shards the run executed on (the driver's effective count).
    pub shards: u32,
    /// Synchronization windows the lockstep loop ran (0 on one shard).
    pub barrier_rounds: u64,
    /// Per-shard-pair conservative lookahead the parallel engine
    /// derived from the run topology: `(shard_i, shard_j, lookahead)`
    /// for `i < j`, the minimum transit over the link classes actually
    /// crossing that shard boundary (DESIGN.md §2.9). Empty for one-shard
    /// runs and for flat topologies (where the legacy scalar applies).
    pub pair_lookahead: Vec<(u32, u32, SimDuration)>,
}

impl RunReport {
    pub fn completed(&self) -> bool {
        self.status == RunStatus::Completed
    }
}

/// Everything one shard contributes to the merged [`RunReport`]
/// (extracted by [`Sim::shard_finish`], merged by `shards::merge`).
/// Vectors are indexed by global rank id and full-length; only the
/// entries for ranks the shard owns are meaningful.
pub(crate) struct ShardOutcome {
    pub digests: Vec<u64>,
    pub inbox_leftover: Vec<usize>,
    pub clocks: Vec<SimTime>,
    /// Did every owned rank finish?
    pub done: bool,
    /// `(rank, diagnostic)` for owned unfinished ranks.
    pub stuck: Vec<(u32, String)>,
    /// Sender-log mutation journal in shard-local order (already sorted
    /// by global stamp, since a shard processes events in stamp order);
    /// empty for a shard owning every rank.
    pub log_timeline: Vec<LogDelta>,
    pub metrics: Metrics,
    pub trace: Trace,
    /// The shard's recorder, which the merge fires `on_run_end` on.
    pub recorder: Option<Box<dyn Recorder>>,
    /// The shard's live gauges at the end of the run.
    pub gauges: Gauges,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedRecv,
    WaitingGate,
    Failed,
    Done,
}

/// Checkpointable execution state of one rank (protocol-opaque).
///
/// Checkpoints overwrite their previous snapshot ([`Ctx::capture_rank_into`],
/// `clone_from`) so that a steady-state capture allocates nothing.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RankSnapshot {
    pc: usize,
    app: AppState,
    inbox: Inbox,
    send_seq: PeerMap<u64>,
}

impl Clone for RankSnapshot {
    fn clone(&self) -> Self {
        RankSnapshot {
            pc: self.pc,
            app: self.app,
            inbox: self.inbox.clone(),
            send_seq: self.send_seq.clone(),
        }
    }

    /// Overwrite `self` with `src`, reusing its inbox and channel table.
    fn clone_from(&mut self, src: &Self) {
        self.pc = src.pc;
        self.app = src.app;
        self.inbox.clone_from(&src.inbox);
        self.send_seq.clone_from(&src.send_seq);
    }
}

impl RankSnapshot {
    /// Approximate serialized size of the snapshot (for checkpoint cost
    /// models): program counter + app state + buffered messages.
    pub fn image_bytes(&self) -> u64 {
        64 + self.inbox.iter().map(|a| 64 + a.msg.bytes).sum::<u64>()
    }
}

/// A message captured in-flight on an intra-cluster channel (Chandy-Lamport
/// channel state) for inclusion in a coordinated checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct InFlightMsg {
    pub msg: Message,
    pub recv_cost: SimDuration,
}

struct RankState {
    clock: SimTime,
    pc: usize,
    epoch: u32,
    status: Status,
    gated: bool,
    app: AppState,
    inbox: Inbox,
    /// Last used per-destination channel sequence number.
    send_seq: PeerMap<u64>,
}

pub(crate) enum Event {
    Exec {
        rank: Rank,
        epoch: u32,
    },
    /// `flight` is a slab slot; `seq` is the flight's monotone stamp and
    /// guards against a recycled slot (see [`FlightSlab`]).
    AppArrival {
        flight: u32,
        seq: u64,
    },
    CtlArrival {
        flight: u32,
        seq: u64,
    },
    Timer {
        id: u64,
    },
    Failure {
        ranks: Vec<Rank>,
        /// `true` when this event was pulled from the [`FailureModel`]
        /// (its successor is pulled when it fires); `false` for
        /// [`Sim::inject_failure`] one-shots.
        from_model: bool,
    },
}

enum FlightKind<C> {
    App {
        msg: Message,
        recv_cost: SimDuration,
    },
    Ctl {
        from: Endpoint,
        ctl: C,
    },
}

struct Flight<C> {
    to: Endpoint,
    at: SimTime,
    /// Monotone creation stamp: deterministic tie-break for in-flight
    /// capture ordering, independent of slab slot recycling.
    seq: u64,
    handle: EventHandle,
    kind: FlightKind<C>,
}

/// End-of-list marker of the per-destination flight lists.
const NIL: u32 = u32::MAX;

/// Slab arena for in-flight messages: O(1) insert/remove with slot reuse,
/// so per-message traffic costs no tree rebalancing and no allocation in
/// steady state (the previous `BTreeMap<u64, Flight>` paid both). Arrival
/// events carry the flight's `seq` stamp and re-validate it, so an event
/// can never resolve to a different flight that recycled its slot.
///
/// Flights addressed to a rank are also threaded on that rank's doubly
/// linked list, so rank-set queries (checkpoint capture, rollback drop)
/// read only the flights they concern. The links live in `links`, a dense
/// side array parallel to `slots`, not in `Flight`: linking and unlinking
/// then touch 8-byte neighbours instead of whole flights (DESIGN.md §2.1).
struct FlightSlab<C> {
    slots: Vec<Option<Flight<C>>>,
    /// `(prev, next)` slot of each occupied rank-addressed slot.
    links: Vec<(u32, u32)>,
    /// First slot of each destination rank's list.
    heads: Vec<u32>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<C> FlightSlab<C> {
    fn new(n_ranks: usize) -> Self {
        FlightSlab {
            slots: Vec::new(),
            links: Vec::new(),
            heads: vec![NIL; n_ranks],
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Reserve a slot and the next monotone stamp: `(slot, seq)`.
    fn reserve(&mut self) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.links.push((NIL, NIL));
                (self.slots.len() - 1) as u32
            }
        };
        (slot, seq)
    }

    fn fill(&mut self, slot: u32, flight: Flight<C>) {
        debug_assert!(self.slots[slot as usize].is_none());
        if let Endpoint::Rank(r) = flight.to {
            let head = std::mem::replace(&mut self.heads[r.idx()], slot);
            if head != NIL {
                self.links[head as usize].0 = slot;
            }
            self.links[slot as usize] = (NIL, head);
        }
        self.slots[slot as usize] = Some(flight);
    }

    /// Remove the flight in `slot` if its stamp matches `seq`.
    fn remove(&mut self, slot: u32, seq: u64) -> Option<Flight<C>> {
        let f = self
            .slots
            .get_mut(slot as usize)?
            .take_if(|f| f.seq == seq)?;
        if let Endpoint::Rank(r) = f.to {
            let (prev, next) = self.links[slot as usize];
            match prev {
                NIL => self.heads[r.idx()] = next,
                p => self.links[p as usize].1 = next,
            }
            if next != NIL {
                self.links[next as usize].0 = prev;
            }
        }
        self.free.push(slot);
        Some(f)
    }

    /// Flights addressed to rank `r`, most recently inserted first.
    fn to_rank(&self, r: Rank) -> impl Iterator<Item = (u32, &Flight<C>)> {
        let mut slot = self.heads[r.idx()];
        std::iter::from_fn(move || {
            if slot == NIL {
                return None;
            }
            let at = slot;
            slot = self.links[at as usize].1;
            Some((at, self.get(at)))
        })
    }

    /// Every occupied slot, in slot order (the oracle of the rank lists).
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (u32, &Flight<C>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (i as u32, f)))
    }

    /// The flight in occupied `slot`.
    fn get(&self, slot: u32) -> &Flight<C> {
        self.slots[slot as usize]
            .as_ref()
            .expect("slot is occupied")
    }

    /// Messages currently in flight (every vacant slot is on the free
    /// list, so this is O(1)).
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Reusable scratch of the rank-set queries (checkpoint capture, rollback
/// drop), so that neither allocates once its buffers are warm.
#[derive(Default)]
struct RankQuery {
    /// Membership bitmap over rank indices: O(1) membership, where a
    /// linear `contains` would cost O(|set|) per flight. All clear between
    /// queries: [`RankQuery::end`] clears exactly the words `begin` set.
    bits: Vec<u64>,
    /// Distinct members of the current set, in first-seen order.
    ranks: Vec<Rank>,
    /// `(at, seq, slot)` of each flight the query selected.
    found: Vec<(SimTime, u64, u32)>,
}

impl RankQuery {
    /// Start a query over `set` (of `n` ranks in all).
    fn begin(&mut self, n: usize, set: &[Rank]) {
        self.bits.resize(n.div_ceil(64), 0);
        for &r in set {
            let (word, bit) = (r.idx() / 64, 1u64 << (r.idx() % 64));
            if self.bits[word] & bit == 0 {
                self.bits[word] |= bit;
                self.ranks.push(r);
            }
        }
        self.found.clear();
    }

    fn contains(&self, r: Rank) -> bool {
        self.bits[r.idx() / 64] & (1u64 << (r.idx() % 64)) != 0
    }

    /// End the query: clear the bits of its members.
    fn end(&mut self) {
        for r in self.ranks.drain(..) {
            self.bits[r.idx() / 64] = 0;
        }
    }
}

/// A message crossing a shard boundary: everything the receiving shard
/// needs to re-insert the flight into its own scheduler. Opaque outside
/// the engine — the lockstep loop only moves envelopes between shards
/// at window barriers (DESIGN.md §2.8). The arrival time was
/// FIFO-adjusted on the *sender* shard (channel FIFO state lives with the
/// sender), so the receiver schedules it verbatim.
pub(crate) struct RemoteEnvelope<C> {
    at: SimTime,
    from: Endpoint,
    to: Endpoint,
    kind: FlightKind<C>,
}

impl<C> RemoteEnvelope<C> {
    /// Destination endpoint — what the sending shard routes on. Always a
    /// rank: sends to aux endpoints never cross a shard boundary (the
    /// aux process is pinned to the sending shard).
    pub fn dst(&self) -> Endpoint {
        self.to
    }
}

/// Shard identity of one engine instance. A one-shard run is one shard
/// owning every rank.
struct ShardView {
    my_shard: u32,
    /// rank index → owning shard.
    shard_of_rank: Arc<Vec<u32>>,
    /// Ranks this shard owns (its completion target).
    owned: usize,
}

/// One sender-log mutation, stamped with the global event order it
/// happened under: `(time, event key, intra-event index)`. Shard-local
/// sequences of these merge (k-way, by stamp) into the exact order the
/// one-shard run would have applied them in, which is how a sharded run
/// reproduces `logged_bytes_peak` — a running-max over global order that
/// per-shard counters cannot recover (DESIGN.md §2.8).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogDelta {
    pub at: SimTime,
    pub key: u64,
    pub sub: u32,
    pub delta: i64,
}

/// Engine internals shared with protocols through [`Ctx`].
pub struct Core<C> {
    sched: Scheduler<Event>,
    ranks: Vec<RankState>,
    /// One lazy op stream per rank; `op_at(pc)` is pure in `pc`, which is
    /// what makes checkpoint/rollback seeks replay-exact (DESIGN.md §2.2).
    programs: Vec<Arc<GenProgram>>,
    config: SimConfig,
    /// `config.topology`, or a flat one over `config.network` when unset:
    /// every message is priced through this one path.
    topology: Arc<Topology>,
    /// Last arrival time stamped on each channel, for FIFO adjustment:
    /// one table per sender, keyed by receiver. Ranks index their own
    /// table; aux endpoint `a` indexes `n_ranks + a` (aux ids are small:
    /// HydEE's recovery process is 0). Grows on a sender's first send.
    fifo_last: Vec<PeerMap<SimTime, Endpoint>>,
    flights: FlightSlab<C>,
    /// Scratch of [`Ctx::capture_inflight_into`] and
    /// [`Ctx::drop_inflight_to`].
    query: RankQuery,
    /// Memoized network pricing: each delivery burst is priced once per
    /// distinct wire size instead of per message (DESIGN.md §2.1).
    cost_cache: CostCache,
    arrival_counter: u64,
    done_count: usize,
    /// Machine MTBF estimated from the run's failure model (None: no
    /// failures expected). Cached here so protocols can consult it via
    /// [`Ctx::failure_mtbf`] (checkpoint policies size their intervals
    /// from it, DESIGN.md §2.4).
    failure_mtbf: Option<SimDuration>,
    /// Attached telemetry recorder (DESIGN.md §2.5). `None` by default:
    /// every instrumentation point is gated behind this one check, so a
    /// run without telemetry pays a single never-taken branch per site.
    recorder: Option<Box<dyn Recorder>>,
    /// Live non-timer events in `sched`: the drain-termination count.
    /// The run is over when this reaches zero — remaining timers cannot
    /// make application progress on their own (they can only *schedule*
    /// hot events, which would raise the count before the next check).
    pending_hot: u64,
    /// Which ranks this engine instance executes.
    shard: ShardView,
    /// Cross-shard sends produced since the shard last drained them.
    outbox: Vec<RemoteEnvelope<C>>,
    /// Sender-log mutation journal, kept only by a shard that does not
    /// own every rank (see [`LogDelta`]): a lone shard applies every
    /// mutation in global order itself.
    log_timeline: Option<Vec<LogDelta>>,
    /// Stamp of the event currently dispatching, for [`LogDelta`]s.
    cursor: (SimTime, u64, u32),
    pub metrics: Metrics,
    pub trace: Trace,
}

impl<C: Clone + std::fmt::Debug> Core<C> {
    fn new(app: Application, config: SimConfig, shard: ShardView) -> Self {
        let n = app.n_ranks();
        let ranks: Vec<RankState> = (0..n)
            .map(|i| RankState {
                clock: SimTime::ZERO,
                pc: 0,
                epoch: 0,
                status: Status::Runnable,
                gated: false,
                app: AppState::new(Rank(i as u32), config.det_mode),
                inbox: Inbox::new(),
                send_seq: PeerMap::new(),
            })
            .collect();
        let topology = config.resolved_topology(n);
        let mut core = Core {
            sched: Scheduler::new(),
            ranks,
            programs: app.into_programs(),
            config,
            topology,
            fifo_last: Vec::new(),
            flights: FlightSlab::new(n),
            query: RankQuery::default(),
            cost_cache: CostCache::new(),
            arrival_counter: 0,
            done_count: 0,
            failure_mtbf: None,
            recorder: None,
            pending_hot: 0,
            log_timeline: (shard.owned < n).then(Vec::new),
            shard,
            outbox: Vec::new(),
            cursor: (SimTime::ZERO, 0, 0),
            metrics: Metrics::default(),
            trace: Trace::default(),
        };
        for i in 0..n {
            let rank = Rank(i as u32);
            if core.owns(rank) {
                core.schedule_event(
                    SimTime::ZERO,
                    key::exec(rank, 0),
                    Event::Exec { rank, epoch: 0 },
                );
            }
        }
        core
    }

    fn n(&self) -> usize {
        self.ranks.len()
    }

    /// Does this engine instance execute `rank`? Only the owning shard
    /// schedules the rank's events.
    #[inline]
    fn owns(&self, rank: Rank) -> bool {
        self.shard.shard_of_rank[rank.idx()] == self.shard.my_shard
    }

    /// Schedule `ev` under tie-break `key`, maintaining the hot count.
    #[inline]
    fn schedule_event(&mut self, at: SimTime, key: u64, ev: Event) -> EventHandle {
        if key::is_hot(key) {
            self.pending_hot += 1;
        }
        self.sched.schedule_keyed(at, key, ev)
    }

    /// Cancel a scheduled event, maintaining the hot count. Only hot
    /// events are ever cancelled (flight retraction, failure-model
    /// replacement), so a successful cancel always decrements.
    #[inline]
    fn cancel_event(&mut self, handle: EventHandle) -> bool {
        match self.sched.cancel(handle) {
            Some(ev) => {
                debug_assert!(!matches!(ev, Event::Timer { .. }));
                self.pending_hot -= 1;
                true
            }
            None => false,
        }
    }

    /// Pop the next event, maintaining the hot count and stamping the
    /// log-journal cursor with the event's global-order identity.
    #[inline]
    fn pop_event(&mut self) -> Option<(SimTime, Event)> {
        let (t, ekey, ev) = self.sched.pop_keyed()?;
        if key::is_hot(ekey) {
            self.pending_hot -= 1;
        }
        self.cursor = (t, ekey, 0);
        Some((t, ev))
    }

    /// Have all ranks this engine is responsible for finished?
    #[inline]
    fn all_done(&self) -> bool {
        self.done_count == self.shard.owned
    }

    /// Snapshot the counters a time-series recorder samples. Only built
    /// when a recorder is attached.
    fn gauges(&self) -> Gauges {
        Gauges {
            events: self.metrics.events,
            queue_depth: self.sched.len(),
            inflight_msgs: self.flights.len(),
            logged_bytes: self.metrics.logged_bytes,
            deliveries: self.metrics.deliveries,
            checkpoint_time_ps: self.metrics.checkpoint_time.as_ps(),
            lost_work_ps: self.metrics.lost_work.as_ps(),
        }
    }

    /// Price a wire size on the local link class, memoized. Protocol
    /// estimates ([`Ctx::wire_cost`]) and auxiliary-endpoint traffic go
    /// through here; rank-to-rank traffic uses [`Core::priced_between`].
    #[inline]
    fn priced(&mut self, wire_bytes: u64) -> MsgCost {
        self.cost_cache
            .price_class(&self.topology, LinkClass::LOCAL, wire_bytes)
    }

    /// Price a wire size between two endpoints, memoized per
    /// `(link_class, size)`. Whenever either endpoint is auxiliary this
    /// is exactly [`Core::priced`]; under a flat topology the class is
    /// always local, so both price on the base model alone.
    #[inline]
    fn priced_between(&mut self, from: Endpoint, to: Endpoint, wire_bytes: u64) -> MsgCost {
        let class = match (from, to) {
            (Endpoint::Rank(s), Endpoint::Rank(d)) => self.topology.link_class(s.0, d.0),
            _ => LinkClass::LOCAL,
        };
        self.cost_cache
            .price_class(&self.topology, class, wire_bytes)
    }

    /// Append a sender-log mutation to the shard journal, if one is kept.
    #[inline]
    fn journal_log_delta(&mut self, delta: i64) {
        if let Some(timeline) = self.log_timeline.as_mut() {
            let (at, ekey, sub) = self.cursor;
            timeline.push(LogDelta {
                at,
                key: ekey,
                sub,
                delta,
            });
            self.cursor.2 += 1;
        }
    }

    /// FIFO-adjust an arrival on `(from, to)` and record it.
    fn fifo_adjust(&mut self, from: Endpoint, to: Endpoint, computed: SimTime) -> SimTime {
        let sender = match from {
            Endpoint::Rank(r) => r.idx(),
            Endpoint::Aux(a) => self.n() + a as usize,
        };
        if sender >= self.fifo_last.len() {
            self.fifo_last.resize_with(sender + 1, PeerMap::new);
        }
        let last = self.fifo_last[sender].get_or_default(to);
        let at = computed.max(*last + SimDuration::from_ps(1));
        *last = at;
        at
    }

    fn schedule_flight(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        computed: SimTime,
        kind: FlightKind<C>,
    ) {
        let at = self.fifo_adjust(from, to, computed);
        let at = at.max(self.sched.now());
        // Aux endpoints are engine-local: they only take part in
        // recovery, and the run driver's shard-count rule
        // (`shards::shard_count`) runs every request whose failure model
        // expects a failure on one shard (DESIGN.md §2.8).
        if matches!(to, Endpoint::Rank(r) if !self.owns(r)) {
            // Cross-shard: hand the flight to the owning shard. FIFO
            // state was already advanced above — the channel's order is
            // fixed sender-side, the receiver schedules verbatim.
            self.outbox.push(RemoteEnvelope { at, from, to, kind });
            return;
        }
        self.insert_flight(RemoteEnvelope { at, from, to, kind });
    }

    /// Insert a flight (local, or routed here at a barrier from a
    /// remote shard) into this scheduler. No FIFO re-adjustment and no
    /// `max(now)` clamp: both were applied on the sending side, and a
    /// window barrier guarantees `at` has not been passed yet.
    fn insert_flight(&mut self, env: RemoteEnvelope<C>) {
        let RemoteEnvelope { at, from, to, kind } = env;
        // The window invariant: a flight arriving before this shard's
        // clock would land inside a window that already ran.
        debug_assert!(
            at >= self.sched.now(),
            "flight {from:?} -> {to:?} arrives at {at:?}, before now = {:?}",
            self.sched.now()
        );
        let (flight, seq) = self.flights.reserve();
        let (ev, ctl) = match kind {
            FlightKind::App { .. } => (Event::AppArrival { flight, seq }, false),
            FlightKind::Ctl { .. } => (Event::CtlArrival { flight, seq }, true),
        };
        let key = key::arrival(ctl, from, to, self.config.perturb_seed);
        let handle = self.schedule_event(at, key, ev);
        self.flights.fill(
            flight,
            Flight {
                to,
                at,
                seq,
                handle,
                kind,
            },
        );
    }

    /// Transmit an application message from `msg.src`'s current local time.
    fn transmit_app(
        &mut self,
        msg: Message,
        extra_wire_bytes: u64,
        extra_sender_time: SimDuration,
    ) {
        let wire = msg.bytes + extra_wire_bytes;
        let src = msg.src;
        let dst = msg.dst;
        let cost = self.priced_between(Endpoint::Rank(src), Endpoint::Rank(dst), wire);
        {
            let r = &mut self.ranks[src.idx()];
            r.clock += cost.sender + extra_sender_time;
        }
        let computed = self.ranks[src.idx()].clock + cost.transit;
        self.metrics.app_messages += 1;
        self.metrics.app_bytes += msg.bytes;
        self.metrics.wire_bytes += wire;
        if msg.replayed {
            self.metrics.replayed_messages += 1;
            self.metrics.replayed_bytes += msg.bytes;
            self.trace.check_replay(&msg);
        } else {
            self.trace.record_send(&msg);
        }
        if let Some(rec) = self.recorder.as_deref_mut() {
            let now = self.sched.now();
            rec.on_send(now, src.0, dst.0, msg.bytes, msg.replayed);
        }
        self.schedule_flight(
            Endpoint::Rank(src),
            Endpoint::Rank(dst),
            computed,
            FlightKind::App {
                msg,
                recv_cost: cost.receiver,
            },
        );
    }
}

/// The protocol's window into the engine.
pub struct Ctx<'a, C> {
    pub(crate) core: &'a mut Core<C>,
}

impl<'a, C: Clone + std::fmt::Debug> Ctx<'a, C> {
    /// Current global event time.
    pub fn now(&self) -> SimTime {
        self.core.sched.now()
    }

    pub fn n_ranks(&self) -> usize {
        self.core.n()
    }

    /// Local clock of `rank`.
    pub fn clock(&self, rank: Rank) -> SimTime {
        self.core.ranks[rank.idx()].clock
    }

    /// Charge CPU time to `rank` (advances its local clock).
    pub fn charge(&mut self, rank: Rank, d: SimDuration) {
        self.core.ranks[rank.idx()].clock += d;
    }

    /// Is `rank` finished with its program?
    pub fn is_done(&self, rank: Rank) -> bool {
        self.core.ranks[rank.idx()].status == Status::Done
    }

    /// Access run metrics (protocols update their own counters here).
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Price a message of `wire_bytes` on the configured network (lets
    /// protocols compute overlap windows, e.g. for the logging memcpy).
    /// Memoized, shared with the engine's own pricing. Deliberately
    /// endpoint-free: protocol estimates price the *local* link class,
    /// so a topology cannot skew overlap windows that were calibrated
    /// against the base model (endpoint-aware transmission pricing
    /// happens in the engine itself).
    pub fn wire_cost(&mut self, wire_bytes: u64) -> net_model::MsgCost {
        self.core.priced(wire_bytes)
    }

    /// Piggyback metadata of messages from `src` that have *arrived* at
    /// `rank` but are not yet delivered to the application (sitting in its
    /// receive buffers). Rollback-recovery protocols must count these as
    /// received when computing reception horizons: they exist physically
    /// at the receiver, so the sender must not re-send them.
    pub fn pending_meta_from(&self, rank: Rank, src: Rank) -> Vec<crate::types::PbMeta> {
        self.core.ranks[rank.idx()]
            .inbox
            .iter()
            .filter(|a| a.msg.src == src)
            .map(|a| a.msg.meta)
            .collect()
    }

    /// Send a control message. When both endpoints are ranks it shares the
    /// channel FIFO with application messages. The sender's clock is
    /// charged (if it is a rank); auxiliary endpoints are timeless.
    pub fn send_ctl(&mut self, from: Endpoint, to: Endpoint, bytes: u64, ctl: C) {
        let bytes = if bytes == 0 {
            self.core.config.ctl_bytes_default
        } else {
            bytes
        };
        let cost = self.core.priced_between(from, to, bytes);
        let base = match from {
            Endpoint::Rank(r) => {
                let rs = &mut self.core.ranks[r.idx()];
                rs.clock += cost.sender;
                rs.clock.max(self.core.sched.now())
            }
            Endpoint::Aux(_) => self.core.sched.now(),
        };
        self.core.metrics.ctl_messages += 1;
        self.core.metrics.ctl_bytes += bytes;
        self.core
            .schedule_flight(from, to, base + cost.transit, FlightKind::Ctl { from, ctl });
    }

    /// Replay a logged application message (HydEE's `NotifySendLog` path).
    /// The message must carry `replayed = true` and its original identity
    /// (`channel_seq`, `payload`, `meta`); the trace oracle verifies it.
    pub fn replay_app(&mut self, msg: Message) {
        debug_assert!(msg.replayed, "replay_app requires msg.replayed = true");
        self.core.transmit_app(msg, 0, SimDuration::ZERO);
    }

    /// Close (`true`) or open (`false`) `rank`'s send gate. Reopening
    /// resumes the rank if it was parked at a send.
    pub fn gate(&mut self, rank: Rank, closed: bool) {
        let now = self.now();
        let rs = &mut self.core.ranks[rank.idx()];
        rs.gated = closed;
        if !closed && rs.status == Status::WaitingGate {
            rs.status = Status::Runnable;
            let at = rs.clock.max(now);
            let epoch = rs.epoch;
            self.core
                .schedule_event(at, key::exec(rank, epoch), Event::Exec { rank, epoch });
        }
    }

    /// Capture `rank`'s execution state for a checkpoint into `snap`,
    /// overwriting it in place (no allocation once `snap`'s buffers are
    /// large enough). Only the buffered (arrived-but-undelivered) messages
    /// that satisfy `keep` are copied.
    ///
    /// Hybrid protocols keep "same cluster" so the checkpoint holds only
    /// intra-cluster channel state: an arrived-but-undelivered
    /// INTER-cluster message has no RPP record yet (RPP is written at
    /// delivery), so the sender would replay it after a rollback — keeping
    /// the buffered copy too would deliver it twice.
    pub fn capture_rank_into(
        &self,
        rank: Rank,
        snap: &mut RankSnapshot,
        keep: impl FnMut(&Message) -> bool,
    ) {
        let rs = &self.core.ranks[rank.idx()];
        snap.pc = rs.pc;
        snap.app = rs.app;
        snap.inbox.clone_kept_from(&rs.inbox, keep);
        snap.send_seq.clone_from(&rs.send_seq);
    }

    /// Restore `rank` from a snapshot. The rank resumes at the current
    /// event time (add storage read latency with [`Ctx::charge`]). Any
    /// pending execution or gate state is discarded; the send gate is left
    /// closed iff `gated`.
    pub fn restore_rank(&mut self, rank: Rank, snap: &RankSnapshot, gated: bool) {
        let now = self.now();
        let was_done = self.core.ranks[rank.idx()].status == Status::Done;
        if was_done {
            self.core.done_count -= 1;
        }
        let rs = &mut self.core.ranks[rank.idx()];
        rs.pc = snap.pc;
        rs.app = snap.app;
        rs.inbox.clone_from(&snap.inbox);
        rs.send_seq.clone_from(&snap.send_seq);
        rs.clock = now;
        rs.epoch += 1;
        rs.status = Status::Runnable;
        rs.gated = gated;
        let epoch = rs.epoch;
        self.core
            .schedule_event(now, key::exec(rank, epoch), Event::Exec { rank, epoch });
    }

    /// Capture into `out`, replacing its contents, the in-flight messages
    /// whose source *and* destination are both in `set` (intra-cluster
    /// channel state for a coordinated checkpoint), ordered by arrival
    /// time. Reads only the flights addressed to `set`, and allocates
    /// nothing once the engine's query scratch and `out` are warm.
    pub fn capture_inflight_into(&mut self, set: &[Rank], out: &mut Vec<InFlightMsg>) {
        let core = &mut *self.core;
        let n = core.n();
        let query = &mut core.query;
        query.begin(n, set);
        for &r in &query.ranks {
            for (slot, f) in core.flights.to_rank(r) {
                if matches!(&f.kind, FlightKind::App { msg, .. } if query.contains(msg.src)) {
                    query.found.push((f.at, f.seq, slot));
                }
            }
        }
        // `seq` is the flight's creation order — the same deterministic
        // tie-break the pre-slab implementation got from its monotone map
        // keys, immune to slot recycling and to the walk order above.
        query.found.sort_unstable();
        out.clear();
        out.extend(
            query
                .found
                .iter()
                .map(|&(_, _, slot)| match &core.flights.get(slot).kind {
                    FlightKind::App { msg, recv_cost } => InFlightMsg {
                        msg: *msg,
                        recv_cost: *recv_cost,
                    },
                    FlightKind::Ctl { .. } => unreachable!("only application flights are selected"),
                }),
        );
        query.end();
    }

    /// Drop every in-flight message (application and control) destined to
    /// any of `ranks`. Used at rollback: messages addressed to the old
    /// incarnation are lost.
    pub fn drop_inflight_to(&mut self, ranks: &[Rank]) {
        let core = &mut *self.core;
        let n = core.n();
        core.query.begin(n, ranks);
        for &r in &core.query.ranks {
            for (slot, f) in core.flights.to_rank(r) {
                core.query.found.push((f.at, f.seq, slot));
            }
        }
        // Remove in slot order, so the free list refills exactly as a
        // scan of the whole slab would refill it.
        core.query.found.sort_unstable_by_key(|&(_, _, slot)| slot);
        for i in 0..core.query.found.len() {
            let (_, seq, slot) = core.query.found[i];
            if let Some(f) = core.flights.remove(slot, seq) {
                core.cancel_event(f.handle);
            }
        }
        core.query.end();
    }

    /// Record `bytes` appended to a sender log. Equivalent to
    /// `metrics().log_append(bytes)` plus the journal entry a sharded run
    /// needs to reconstruct the global `logged_bytes_peak` (see
    /// DESIGN.md §2.8); protocols must route log mutations through these
    /// two methods rather than the raw metrics.
    pub fn log_append(&mut self, bytes: u64) {
        self.core.metrics.log_append(bytes);
        self.core.journal_log_delta(bytes as i64);
    }

    /// Record `messages` log entries totalling `bytes` reclaimed by GC.
    pub fn log_reclaim(&mut self, messages: u64, bytes: u64) {
        let before = self.core.metrics.logged_bytes;
        self.core.metrics.log_reclaim(messages, bytes);
        let delta = self.core.metrics.logged_bytes as i64 - before as i64;
        self.core.journal_log_delta(delta);
    }

    /// Re-inject channel state captured by [`Ctx::capture_inflight_into`]
    /// after a rollback: the messages re-enter their channels now.
    pub fn inject_inflight(&mut self, msgs: &[InFlightMsg]) {
        let now = self.now();
        for m in msgs {
            self.core.schedule_flight(
                Endpoint::Rank(m.msg.src),
                Endpoint::Rank(m.msg.dst),
                now + SimDuration::from_ns(1),
                FlightKind::App {
                    msg: m.msg,
                    recv_cost: m.recv_cost,
                },
            );
        }
    }

    /// Machine MTBF estimated from the run's failure model
    /// ([`crate::failure::estimate_mtbf`]); `None` when no model is set
    /// or the model expects no failures. Checkpoint policies derive
    /// Young/Daly intervals from it.
    pub fn failure_mtbf(&self) -> Option<SimDuration> {
        self.core.failure_mtbf
    }

    /// Arrange for `on_timer(id)` at absolute time `at`.
    pub fn set_timer(&mut self, at: SimTime, id: u64) {
        let at = at.max(self.now());
        self.core
            .schedule_event(at, key::timer(id), Event::Timer { id });
    }

    /// The attached telemetry recorder, if any. Protocols emit their
    /// structural events (checkpoints, recovery phases, storage batches)
    /// through this; `None` is the common case and the caller's `if let`
    /// is the entire disabled-path cost (DESIGN.md §2.5).
    pub fn recorder(&mut self) -> Option<&mut (dyn Recorder + 'static)> {
        self.core.recorder.as_deref_mut()
    }
}

/// The simulator: an [`Application`] + a [`Protocol`] + a [`SimConfig`].
pub struct Sim<P: Protocol> {
    core: Core<P::Ctl>,
    protocol: P,
    failure_model: Option<Box<dyn FailureModel>>,
    /// The one outstanding model-driven failure event (lazy pull).
    model_event: Option<EventHandle>,
}

impl<P: Protocol> Sim<P> {
    /// A one-shard run: the one shard, owning every rank.
    pub fn new(app: Application, config: SimConfig, protocol: P) -> Self {
        let n = app.n_ranks();
        Self::new_sharded(app, config, protocol, Arc::new(vec![0; n]), 0)
    }

    /// Build one shard of a run (DESIGN.md §2.8): this engine instance
    /// holds the full application but only executes the ranks that
    /// `shard_of_rank` maps to `my_shard`; sends to other shards land in
    /// an outbox the shard hands over at window barriers. Runs of more
    /// than one shard must be failure-free — `run_sharded` enforces this
    /// when it picks the shard count.
    pub(crate) fn new_sharded(
        app: Application,
        config: SimConfig,
        protocol: P,
        shard_of_rank: Arc<Vec<u32>>,
        my_shard: u32,
    ) -> Self {
        assert_eq!(shard_of_rank.len(), app.n_ranks());
        let owned = shard_of_rank.iter().filter(|&&s| s == my_shard).count();
        Sim {
            core: Core::new(
                app,
                config,
                ShardView {
                    my_shard,
                    shard_of_rank,
                    owned,
                },
            ),
            protocol,
            failure_model: None,
            model_event: None,
        }
    }

    /// Schedule a fail-stop failure of `ranks` at time `at`. Multiple
    /// ranks in one call fail *concurrently*; calling several times with
    /// increasing times injects sequential failures.
    pub fn inject_failure(&mut self, at: SimTime, ranks: Vec<Rank>) {
        self.core.schedule_event(
            at,
            key::failure(),
            Event::Failure {
                ranks,
                from_model: false,
            },
        );
    }

    /// Drive failure injection from a [`FailureModel`]. The engine pulls
    /// *lazily*: exactly one model event is scheduled at a time, and the
    /// next is requested only when it fires — a stochastic model's tail
    /// is never materialised. A model event whose time is in the past
    /// (the model lagging the clock) fires immediately rather than being
    /// dropped. Replaces any previously set model, cancelling its
    /// pending event.
    pub fn set_failure_model(&mut self, model: Box<dyn FailureModel>) {
        if let Some(handle) = self.model_event.take() {
            self.core.cancel_event(handle);
        }
        self.core.failure_mtbf = crate::failure::estimate_mtbf(&*model);
        self.failure_model = Some(model);
        self.pull_model_event(SimTime::ZERO);
    }

    /// Ask the model for its event after `prev` and schedule it (clamped
    /// to now — never into the past). One model event is outstanding at
    /// a time; `model_event` tracks it for cancellation on replacement.
    fn pull_model_event(&mut self, prev: SimTime) {
        let Some(model) = self.failure_model.as_mut() else {
            return;
        };
        if let Some(ev) = model.next_after(prev) {
            let at = ev.at.max(self.core.sched.now());
            self.model_event = Some(self.core.schedule_event(
                at,
                key::failure(),
                Event::Failure {
                    ranks: ev.ranks,
                    from_model: true,
                },
            ));
        }
    }

    /// Attach a telemetry recorder for this run (DESIGN.md §2.5).
    /// Recorders observe, they never influence: digests, metrics and
    /// makespan are bit-for-bit identical with or without one
    /// (`tests/recorder_neutrality.rs`).
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.core.recorder = Some(recorder);
    }

    /// Access the protocol (for post-run inspection in tests).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Run to completion (or deadlock / event limit).
    pub fn run(self) -> RunReport {
        self.run_with_protocol().0
    }

    /// Run to completion, returning the protocol for post-run inspection
    /// (phases, dates, logs, RPP tables in tests).
    ///
    /// Termination is by **drain** (DESIGN.md §2.8): the run completes
    /// when every rank is done *and* no hot (non-timer) event remains —
    /// post-completion arrivals and protocol acknowledgements are
    /// processed, not abandoned, so one-shard and sharded runs agree on
    /// every counter. Timers popped after completion are discarded
    /// uncounted; timers remain live before completion (a timer can
    /// reopen a gate).
    ///
    /// This is the one-shard case of the run driver's lockstep loop
    /// ([`crate::run_sharded`]): the lockstep decision over this shard's
    /// state with an unbounded lookahead, acted on on this thread — no
    /// barrier, no window count — and the report comes from the same
    /// merge as a sharded run's.
    pub fn run_with_protocol(mut self) -> (RunReport, P) {
        self.shard_init();
        let unbounded = SimDuration::from_ps(u64::MAX);
        let limit_hit = loop {
            let state = self.shard_state();
            match decide(&[state], unbounded, self.core.config.max_events) {
                Decision::Stop { limit_hit } => break limit_hit,
                decision => self.act(decision, 0),
            }
        };
        let shard_of_rank = self.core.shard.shard_of_rank.clone();
        let (outcome, protocol) = self.shard_finish();
        let report = merge(vec![outcome], &shard_of_rank, 0, Vec::new(), limit_hit);
        (report, protocol)
    }

    /// Process one popped event. Every event of every run goes through
    /// here from [`Sim::process_next`] — the dispatch semantics ARE the
    /// engine's observable behaviour, so there is exactly one copy.
    fn dispatch(&mut self, t: SimTime, ev: Event) {
        match ev {
            Event::Exec { rank, epoch } => {
                let rs = &self.core.ranks[rank.idx()];
                if rs.epoch != epoch || rs.status != Status::Runnable {
                    return; // stale
                }
                if t < rs.clock {
                    // The rank was charged extra time since this event
                    // was scheduled; run it when its clock is reached.
                    let at = rs.clock;
                    self.core.schedule_event(
                        at,
                        key::exec(rank, epoch),
                        Event::Exec { rank, epoch },
                    );
                    return;
                }
                self.step(rank);
            }
            Event::AppArrival { flight, seq } => {
                let Some(f) = self.core.flights.remove(flight, seq) else {
                    return;
                };
                let FlightKind::App { msg, recv_cost } = f.kind else {
                    return;
                };
                let dst = msg.dst;
                let rs = &mut self.core.ranks[dst.idx()];
                if rs.status == Status::Failed {
                    return; // lost on the wire to a dead process
                }
                let seq = self.core.arrival_counter;
                self.core.arrival_counter += 1;
                rs.inbox.push(msg, seq, recv_cost);
                if rs.status == Status::BlockedRecv {
                    rs.clock = rs.clock.max(t);
                    rs.status = Status::Runnable;
                    self.step(dst);
                }
            }
            Event::CtlArrival { flight, seq } => {
                let Some(f) = self.core.flights.remove(flight, seq) else {
                    return;
                };
                let FlightKind::Ctl { from, ctl } = f.kind else {
                    return;
                };
                if let Endpoint::Rank(r) = f.to {
                    let rs = &mut self.core.ranks[r.idx()];
                    if rs.status == Status::Failed {
                        return;
                    }
                    rs.clock = rs.clock.max(t);
                }
                self.protocol.on_control(
                    &mut Ctx {
                        core: &mut self.core,
                    },
                    f.to,
                    from,
                    ctl,
                );
            }
            Event::Timer { id } => {
                self.protocol.on_timer(
                    &mut Ctx {
                        core: &mut self.core,
                    },
                    id,
                );
            }
            Event::Failure { ranks, from_model } => {
                self.core.metrics.failures += 1;
                self.core.metrics.failed_ranks += ranks.len() as u64;
                if let Some(rec) = self.core.recorder.as_deref_mut() {
                    let ids: Vec<u32> = ranks.iter().map(|r| r.0).collect();
                    rec.on_failure(t, &ids);
                }
                for &r in &ranks {
                    let rs = &mut self.core.ranks[r.idx()];
                    if rs.status == Status::Done {
                        self.core.done_count -= 1;
                    }
                    rs.status = Status::Failed;
                    rs.epoch += 1;
                }
                // Messages in flight to the victims die with them.
                Ctx {
                    core: &mut self.core,
                }
                .drop_inflight_to(&ranks);
                self.protocol.on_failure(
                    &mut Ctx {
                        core: &mut self.core,
                    },
                    &ranks,
                );
                // Lazy pull: this model event fired, ask for the next.
                if from_model {
                    self.model_event = None;
                    self.pull_model_event(t);
                }
            }
        }
    }

    // ---- shard driving API -------------------------------------------
    //
    // A run of n shards (`shards::run_sharded`) holds one `Sim` per
    // shard, built with [`Sim::new_sharded`]. Every shard thread runs
    // the same lockstep loop: inject the envelopes routed to it, publish
    // its [`ShardState`], agree with its peers on one [`decide`]
    // decision, [`Sim::act`] on it, and hand its outbox over. A one-shard
    // run is the same loop with no barrier (DESIGN.md §2.8).

    /// Run the protocol's `init` hook. `run_sharded` calls this once per
    /// shard in ascending shard order, so shared-state mutations during
    /// init replay the one-shard run's order.
    pub(crate) fn shard_init(&mut self) {
        self.protocol.init(&mut Ctx {
            core: &mut self.core,
        });
    }

    /// The shard's next event, hot backlog, completion and event count.
    pub(crate) fn shard_state(&mut self) -> ShardState {
        ShardState {
            peek: self.core.sched.peek_keyed(),
            pending_hot: self.core.pending_hot,
            done: self.core.all_done(),
            events: self.core.metrics.events,
        }
    }

    /// Act on `decision` as shard `me`. A `Step` pops and processes the
    /// head event, the sequential phase that keeps timers (shared-ledger
    /// mutations) in global order; a `DiscardTimer` drops the head timer
    /// uncounted once every rank is done. Both apply only to the shard
    /// they name. A `Window` processes every event strictly before its
    /// horizon, stopping early at a timer (timers are never run inside a
    /// window) or once this shard's own count passes `max_events`.
    /// `Stop` does nothing.
    pub(crate) fn act(&mut self, decision: Decision, me: usize) {
        match decision {
            Decision::Step { shard } if shard == me => {
                self.process_next();
            }
            Decision::DiscardTimer { shard } if shard == me => {
                let popped = self.core.pop_event();
                debug_assert!(
                    matches!(popped, Some((_, Event::Timer { .. }))),
                    "a timer discard popped a non-timer event"
                );
            }
            Decision::Window(horizon) => {
                while let Some((t, k)) = self.core.sched.peek_keyed() {
                    if t >= horizon || key::class(k) == key::CLASS_TIMER || !self.process_next() {
                        break;
                    }
                }
            }
            Decision::Step { .. } | Decision::DiscardTimer { .. } | Decision::Stop { .. } => {}
        }
    }

    /// Pop, count and dispatch the head event; fire the sampling
    /// recorder hook between count and dispatch. An event past the
    /// `max_events` budget is counted but not dispatched, and `false`
    /// ends the window: the next decision stops the run.
    fn process_next(&mut self) -> bool {
        let Some((t, ev)) = self.core.pop_event() else {
            return false;
        };
        self.core.metrics.events += 1;
        if self.core.metrics.events > self.core.config.max_events {
            return false;
        }
        if self.core.recorder.is_some() {
            let g = self.core.gauges();
            if let Some(rec) = self.core.recorder.as_deref_mut() {
                rec.on_tick(t, &g);
            }
        }
        self.dispatch(t, ev);
        true
    }

    /// Drain the cross-shard sends produced since the last call.
    pub(crate) fn shard_take_outbox(&mut self) -> Vec<RemoteEnvelope<P::Ctl>> {
        std::mem::take(&mut self.core.outbox)
    }

    /// Insert flights routed here from other shards. A routed arrival
    /// is never before this shard's clock: `Core::insert_flight` asserts
    /// the window invariant in debug builds.
    pub(crate) fn shard_inject(&mut self, envelopes: Vec<RemoteEnvelope<P::Ctl>>) {
        for env in envelopes {
            self.core.insert_flight(env);
        }
    }

    /// Tear down this shard and extract everything the merge needs for
    /// the one [`RunReport`], handing the protocol back. Deliberately
    /// does *not* fire the recorder's `on_run_end` — the merge fires it
    /// once for the whole run.
    pub(crate) fn shard_finish(mut self) -> (ShardOutcome, P) {
        let done = self.core.all_done();
        let stuck = if done { Vec::new() } else { self.diagnose() };
        let outcome = ShardOutcome {
            digests: self.core.ranks.iter().map(|r| r.app.digest).collect(),
            inbox_leftover: self.core.ranks.iter().map(|r| r.inbox.len()).collect(),
            clocks: self.core.ranks.iter().map(|r| r.clock).collect(),
            done,
            stuck,
            log_timeline: self.core.log_timeline.take().unwrap_or_default(),
            gauges: self.core.gauges(),
            recorder: self.core.recorder.take(),
            metrics: self.core.metrics,
            trace: self.core.trace,
        };
        (outcome, self.protocol)
    }

    /// Per-stuck-rank diagnostics, keyed by rank id so a sharded run can
    /// merge shards' diagnoses into one globally ordered list. Only ranks
    /// this engine owns are reported.
    fn diagnose(&self) -> Vec<(u32, String)> {
        let mut out = Vec::new();
        for (i, rs) in self.core.ranks.iter().enumerate() {
            if rs.status == Status::Done || !self.core.owns(Rank(i as u32)) {
                continue;
            }
            let opdesc = self.core.programs[i]
                .op_at(rs.pc)
                .map(|op| format!("{op:?}"))
                .unwrap_or_else(|| "<end>".into());
            out.push((
                i as u32,
                format!(
                    "P{i}: {:?} at pc={} ({opdesc}), gated={}, inbox={}",
                    rs.status,
                    rs.pc,
                    rs.gated,
                    rs.inbox.len()
                ),
            ));
        }
        out
    }

    /// Interpret `rank`'s program until it blocks, parks, yields or ends.
    fn step(&mut self, rank: Rank) {
        loop {
            let (pc, op) = {
                let rs = &self.core.ranks[rank.idx()];
                if rs.status != Status::Runnable {
                    return;
                }
                match self.core.programs[rank.idx()].op_at(rs.pc) {
                    None => {
                        // Program finished.
                        let rs = &mut self.core.ranks[rank.idx()];
                        rs.status = Status::Done;
                        self.core.done_count += 1;
                        self.protocol.on_done(
                            &mut Ctx {
                                core: &mut self.core,
                            },
                            rank,
                        );
                        return;
                    }
                    Some(op) => (rs.pc, op),
                }
            };
            match op {
                Op::Compute { time } => {
                    let rs = &mut self.core.ranks[rank.idx()];
                    rs.clock += time;
                    rs.pc = pc + 1;
                    let at = rs.clock;
                    let epoch = rs.epoch;
                    self.core.schedule_event(
                        at,
                        key::exec(rank, epoch),
                        Event::Exec { rank, epoch },
                    );
                    return;
                }
                Op::Send { dst, bytes, tag } => {
                    if self.core.ranks[rank.idx()].gated {
                        self.core.ranks[rank.idx()].status = Status::WaitingGate;
                        return;
                    }
                    let seq = self.core.ranks[rank.idx()]
                        .send_seq
                        .get(dst)
                        .copied()
                        .unwrap_or(0)
                        + 1;
                    let payload = self.core.ranks[rank.idx()]
                        .app
                        .payload_for_send(rank, dst, seq);
                    let info = SendInfo {
                        src: rank,
                        dst,
                        tag,
                        bytes,
                        channel_seq: seq,
                        payload,
                    };
                    let directive = self.protocol.on_send(
                        &mut Ctx {
                            core: &mut self.core,
                        },
                        &info,
                    );
                    match directive.action {
                        SendAction::Gate => {
                            self.core.ranks[rank.idx()].status = Status::WaitingGate;
                            return;
                        }
                        SendAction::Suppress => {
                            let rs = &mut self.core.ranks[rank.idx()];
                            *rs.send_seq.get_or_default(dst) = seq;
                            rs.pc = pc + 1;
                            rs.clock += directive.extra_sender_time;
                            self.core.metrics.suppressed_sends += 1;
                            // The suppressed send must be identical to the
                            // original (that is the premise of suppression);
                            // verify through the oracle.
                            let msg = Message {
                                src: rank,
                                dst,
                                tag,
                                bytes,
                                payload,
                                channel_seq: seq,
                                meta: directive.meta,
                                replayed: true,
                            };
                            self.core.trace.check_replay(&msg);
                        }
                        SendAction::Proceed => {
                            let rs = &mut self.core.ranks[rank.idx()];
                            *rs.send_seq.get_or_default(dst) = seq;
                            rs.pc = pc + 1;
                            let msg = Message {
                                src: rank,
                                dst,
                                tag,
                                bytes,
                                payload,
                                channel_seq: seq,
                                meta: directive.meta,
                                replayed: false,
                            };
                            self.core.transmit_app(
                                msg,
                                directive.extra_wire_bytes,
                                directive.extra_sender_time,
                            );
                        }
                    }
                }
                Op::Recv { src, tag } => {
                    let taken = self.core.ranks[rank.idx()].inbox.take_specific(src, tag);
                    match taken {
                        Some(arr) => self.deliver(rank, arr),
                        None => {
                            self.core.ranks[rank.idx()].status = Status::BlockedRecv;
                            return;
                        }
                    }
                }
                Op::RecvAny { tag } => {
                    let taken = self.core.ranks[rank.idx()].inbox.take_any(tag);
                    match taken {
                        Some(arr) => self.deliver(rank, arr),
                        None => {
                            self.core.ranks[rank.idx()].status = Status::BlockedRecv;
                            return;
                        }
                    }
                }
            }
        }
    }

    fn deliver(&mut self, rank: Rank, arr: crate::inbox::Arrived) {
        {
            let rs = &mut self.core.ranks[rank.idx()];
            rs.clock += arr.recv_cost;
            rs.app.deliver(arr.msg.payload);
            rs.pc += 1;
        }
        self.core.metrics.deliveries += 1;
        if let Some(rec) = self.core.recorder.as_deref_mut() {
            let now = self.core.sched.now();
            rec.on_deliver(now, arr.msg.src.0, rank.0, arr.msg.bytes);
        }
        self.protocol.on_deliver(
            &mut Ctx {
                core: &mut self.core,
            },
            &arr.msg,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NullProtocol;
    use crate::types::Tag;

    fn ping_pong(rounds: usize, bytes: u64) -> Application {
        let mut app = Application::new(2);
        for _ in 0..rounds {
            app.rank_mut(Rank(0)).send(Rank(1), bytes, Tag(0));
            app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
            app.rank_mut(Rank(1)).send(Rank(0), bytes, Tag(0));
            app.rank_mut(Rank(0)).recv(Rank(1), Tag(0));
        }
        app
    }

    #[test]
    fn ping_pong_completes() {
        let report = Sim::new(ping_pong(10, 8), SimConfig::default(), NullProtocol).run();
        assert!(report.completed(), "{:?}", report.status);
        assert_eq!(report.metrics.app_messages, 20);
        assert_eq!(report.metrics.deliveries, 20);
        assert!(report.trace.is_consistent());
    }

    #[test]
    fn ping_pong_latency_matches_model() {
        // 1 round of 8-byte ping-pong should take ~2 one-way latencies.
        let report = Sim::new(ping_pong(1, 8), SimConfig::default(), NullProtocol).run();
        let mx = MxModel::default();
        let expect = mx.cost(8).one_way() * 2;
        let got = report.makespan.since(SimTime::ZERO);
        let slack = SimDuration::from_ns(10);
        assert!(
            got >= expect && got <= expect + slack,
            "got {got}, expected ~{expect}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Sim::new(ping_pong(50, 100), SimConfig::default(), NullProtocol).run();
        let b = Sim::new(ping_pong(50, 100), SimConfig::default(), NullProtocol).run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.metrics.events, b.metrics.events);
    }

    #[test]
    fn unmatched_recv_deadlocks_with_diagnostic() {
        let mut app = Application::new(2);
        app.rank_mut(Rank(0)).recv(Rank(1), Tag(0));
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        match report.status {
            RunStatus::Deadlock(diag) => {
                assert_eq!(diag.len(), 1);
                assert!(diag[0].contains("P0"), "{diag:?}");
                assert!(diag[0].contains("BlockedRecv"), "{diag:?}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn fifo_per_channel_ordering() {
        // P0 fires two sends back-to-back; P1 must see them in order even
        // though both are in flight simultaneously.
        let mut app = Application::new(2);
        app.rank_mut(Rank(0)).send(Rank(1), 8, Tag(0));
        app.rank_mut(Rank(0)).send(Rank(1), 8, Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        assert!(report.completed());
        assert!(report.trace.is_consistent());
    }

    #[test]
    fn wildcard_receives_complete() {
        let mut app = Application::new(3);
        app.rank_mut(Rank(0)).send(Rank(2), 64, Tag(1));
        app.rank_mut(Rank(1)).send(Rank(2), 64, Tag(1));
        app.rank_mut(Rank(2)).recv_any(Tag(1)).recv_any(Tag(1));
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        assert!(report.completed());
        assert_eq!(report.metrics.deliveries, 2);
    }

    #[test]
    fn wildcard_digest_is_order_independent() {
        // Two different senders race into a wildcard pair; the final digest
        // of the receiver must match regardless of delivery order because
        // the app is send-deterministic. Run with senders swapped in
        // priority by staggering compute.
        let build = |stagger: bool| {
            let mut app = Application::new(3);
            if stagger {
                app.rank_mut(Rank(0)).compute(SimDuration::from_us(50));
            }
            app.rank_mut(Rank(0)).send(Rank(2), 64, Tag(1));
            if !stagger {
                app.rank_mut(Rank(1)).compute(SimDuration::from_us(50));
            }
            app.rank_mut(Rank(1)).send(Rank(2), 64, Tag(1));
            app.rank_mut(Rank(2)).recv_any(Tag(1)).recv_any(Tag(1));
            app
        };
        let a = Sim::new(build(false), SimConfig::default(), NullProtocol).run();
        let b = Sim::new(build(true), SimConfig::default(), NullProtocol).run();
        assert!(a.completed() && b.completed());
        assert_eq!(
            a.digests[2], b.digests[2],
            "send-deterministic digest must not depend on arrival order"
        );
    }

    #[test]
    fn compute_advances_clock() {
        let mut app = Application::new(1);
        app.rank_mut(Rank(0))
            .compute(SimDuration::from_ms(3))
            .compute(SimDuration::from_ms(2));
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        assert!(report.completed());
        assert_eq!(report.makespan, SimTime::from_ms(5));
    }

    #[test]
    fn failed_rank_without_protocol_deadlocks() {
        let mut app = Application::new(2);
        app.rank_mut(Rank(0))
            .compute(SimDuration::from_ms(10))
            .send(Rank(1), 8, Tag(0));
        app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        let mut sim = Sim::new(app, SimConfig::default(), NullProtocol);
        sim.inject_failure(SimTime::from_ms(1), vec![Rank(0)]);
        let report = sim.run();
        assert!(matches!(report.status, RunStatus::Deadlock(_)));
        assert_eq!(report.metrics.failures, 1);
    }

    #[test]
    fn topology_prices_inter_cluster_traffic_higher() {
        use net_model::TopologyKind;
        let base: Arc<dyn NetworkModel> = Arc::new(MxModel::default());
        let run = |cluster_of: Vec<u32>| {
            let cfg = SimConfig {
                topology: Some(Arc::new(Topology::new(
                    TopologyKind::TwoLevel,
                    base.clone(),
                    cluster_of,
                ))),
                network: base.clone(),
                ..SimConfig::default()
            };
            Sim::new(ping_pong(10, 1024), cfg, NullProtocol).run()
        };
        let intra = run(vec![0, 0]);
        let inter = run(vec![0, 1]);
        assert!(intra.completed() && inter.completed());
        assert!(
            inter.makespan > intra.makespan,
            "inter-cluster ping-pong must pay the class-1 transit: {} vs {}",
            inter.makespan,
            intra.makespan
        );
        // Same messages, same digests: only the wire time moved.
        assert_eq!(intra.digests, inter.digests);
    }

    #[test]
    fn event_limit_stops_exactly_one_past_the_cap() {
        let cap = 7;
        let config = SimConfig {
            max_events: cap,
            ..SimConfig::default()
        };
        let report = Sim::new(ping_pong(10, 8), config, NullProtocol).run();
        assert_eq!(report.status, RunStatus::EventLimit);
        // The over-budget event is counted, not dispatched.
        assert_eq!(report.metrics.events, cap + 1);
        assert!(report.metrics.deliveries < 20);
    }

    #[test]
    fn many_rank_ring_completes() {
        let n = 64u32;
        let mut app = Application::new(n as usize);
        for r in 0..n {
            let next = Rank((r + 1) % n);
            let prev = Rank((r + n - 1) % n);
            for _ in 0..10 {
                app.rank_mut(Rank(r)).send(next, 1024, Tag(0));
                app.rank_mut(Rank(r)).recv(prev, Tag(0));
            }
        }
        let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
        assert!(report.completed(), "{:?}", report.status);
        assert_eq!(report.metrics.app_messages, (n as u64) * 10);
        assert!(report.trace.is_consistent());
    }

    /// The per-destination rank lists against a brute-force filter of the
    /// whole slab, after every step of a random reserve/fill/remove run.
    mod flight_index {
        use super::*;
        use proptest::prelude::*;

        const N: u32 = 5;

        fn check(slab: &FlightSlab<()>) {
            for r in (0..N).map(Rank) {
                let listed: Vec<(u32, u64)> = slab.to_rank(r).map(|(s, f)| (s, f.seq)).collect();
                // Newest first: a list is in descending creation order.
                prop_assert!(listed.windows(2).all(|w| w[0].1 > w[1].1));
                let mut listed: Vec<u32> = listed.into_iter().map(|(s, _)| s).collect();
                listed.sort_unstable();
                let scanned: Vec<u32> = slab
                    .iter()
                    .filter(|(_, f)| f.to == Endpoint::Rank(r))
                    .map(|(s, _)| s)
                    .collect();
                prop_assert_eq!(listed, scanned, "list of {} diverged", r);
            }
        }

        proptest! {
            #[test]
            fn rank_lists_match_slab_scan(
                steps in prop::collection::vec((any::<u8>(), any::<u32>()), 0..300)
            ) {
                let mut sched: Scheduler<()> = Scheduler::new();
                let handle = sched.schedule(SimTime::ZERO, ());
                let mut slab: FlightSlab<()> = FlightSlab::new(N as usize);
                let mut live: Vec<(u32, u64)> = Vec::new();
                for (op, arg) in steps {
                    if op % 3 != 0 || live.is_empty() {
                        // One destination in four is an aux endpoint.
                        let to = match arg % 4 {
                            0 => Endpoint::Aux(arg),
                            _ => Endpoint::Rank(Rank(arg % N)),
                        };
                        let (slot, seq) = slab.reserve();
                        slab.fill(
                            slot,
                            Flight {
                                to,
                                at: SimTime::from_ps(arg as u64),
                                seq,
                                handle,
                                kind: FlightKind::Ctl {
                                    from: Endpoint::Aux(0),
                                    ctl: (),
                                },
                            },
                        );
                        live.push((slot, seq));
                    } else {
                        let (slot, seq) = live.swap_remove(arg as usize % live.len());
                        prop_assert!(slab.remove(slot, seq).is_some());
                        // A stale stamp never removes (or unlinks) anything.
                        prop_assert!(slab.remove(slot, seq).is_none());
                    }
                    prop_assert_eq!(slab.len(), live.len());
                    check(&slab);
                }
            }
        }
    }
}
