//! The HydEE protocol (Algorithms 1–4 of the paper).
//!
//! * **Failure free** (Algorithm 1): every send increments the sender's
//!   date and carries `(date, phase)`; inter-cluster sends are logged in
//!   sender memory; deliveries update the phase (`max(phase, m.phase)`
//!   intra-cluster, `max(phase, m.phase + 1)` inter-cluster), record the
//!   RPP entry, and increment the date. Clusters checkpoint in a
//!   coordinated way, saving `(image, RPP, Logs, Phase, Date)`.
//!
//! * **Failure** (Algorithms 2–4): the failed process's whole cluster
//!   restores its last checkpoint; restarted processes notify everyone
//!   outside their cluster (`Rollback`), peers answer `LastDate` and
//!   report logged-message phases, orphan phases, and their own phase to a
//!   freshly launched *recovery process*, which releases log replays and
//!   first sends in phase order. Re-executed sends that the receiver
//!   already has are **suppressed** and acknowledged to the recovery
//!   process — send-determinism guarantees the suppressed message is
//!   byte-identical to the original (the engine's trace oracle verifies
//!   exactly that).
//!
//! Multi-cluster (concurrent) failures are handled symmetrically: rolled
//! processes also run the survivor duties toward *other* rolled clusters,
//! answering `LastDate` and replaying logs from their restored state.

use crate::checkpoint::ClusterCheckpoint;
use crate::config::HydeeConfig;
use crate::ctl::{HydeeCtl, RpNotice, RECOVERY_PROCESS};
use crate::log::LogEntry;
use crate::recovery::RecoveryProcess;
use crate::state::{remove_sorted, HydeeState, RecoveryRole};
use det_sim::{SimDuration, SimTime};
use mps_sim::{
    CheckpointPolicy, Ctx, Endpoint, Message, PbMeta, PolicyObs, Protocol, Rank, SendAction,
    SendDirective, SendInfo,
};
use net_model::{MemcpyModel, PiggybackPolicy, StorageLedger};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The HydEE rollback-recovery protocol.
pub struct Hydee {
    cfg: HydeeConfig,
    /// How `(date, phase)` rides on application messages.
    piggyback: PiggybackPolicy,
    /// Cost model for the sender-based log copy.
    memcpy: MemcpyModel,
    states: Vec<HydeeState>,
    checkpoints: Vec<Option<ClusterCheckpoint>>,
    rp: Option<RecoveryProcess>,
    recovering: bool,
    recovery_started: SimTime,
    /// Recovery incarnation counter: bumped on every failure. Control
    /// messages of earlier incarnations still in flight are discarded on
    /// arrival (see `ctl.rs`).
    recovery_epoch: u64,
    /// Clusters rolled back by the recovery currently being orchestrated
    /// (empty when no recovery is active). A failure arriving mid-recovery
    /// re-rolls these together with the newly hit clusters.
    active_rolled: BTreeSet<u32>,
    /// When each cluster last rolled back (`ZERO` = never). Lost-work
    /// accounting is *incremental*: a re-roll discards only the work
    /// redone since the previous rollback, not the whole
    /// checkpoint-to-now span again.
    last_rolled_at: Vec<SimTime>,
    /// When each active rolled cluster finished its checkpoint restore —
    /// the boundary between its rollback and replay telemetry spans.
    rollback_end: Vec<SimTime>,
    /// Checkpoint scheduler (DESIGN.md §2.4); `None` = no periodic
    /// checkpoints beyond the implicit t=0 one.
    policy: Option<Box<dyn CheckpointPolicy>>,
    /// Cached `policy.reactive()`: gates the per-send policy consult so
    /// non-reactive policies cost nothing on the hot path.
    policy_reactive: bool,
    /// Dynamic storage-contention ledger: every checkpoint write and
    /// restart read is priced by what actually overlaps it in virtual
    /// time, replacing the static `concurrent_writers` divisor. Shared
    /// across shards in a sharded run (DESIGN.md §2.8) — checkpoints on
    /// different shards overlapping in virtual time must contend exactly
    /// as they do serially; mutation order stays deterministic because
    /// only timers touch the ledger and the sharded engine executes
    /// timers globally sequenced.
    ledger: Arc<Mutex<StorageLedger>>,
    /// Clusters this protocol instance captures and schedules
    /// checkpoints for, in ascending order: every cluster in a serial
    /// run, the shard's cluster set in a sharded one. Per-cluster policy
    /// state only ever observes its own cluster, so per-shard policy
    /// copies over disjoint owned sets are equivalent to the serial
    /// single policy.
    owned: Vec<u32>,
    /// Fire time of each cluster's armed checkpoint timer (`None`: no
    /// timer outstanding — at most one per cluster).
    armed: Vec<Option<SimTime>>,
    /// Clusters whose due checkpoint was deferred by an active
    /// recovery; they fire when the recovery completes.
    deferred: BTreeSet<u32>,
    /// Measured duration of each cluster's last checkpoint.
    last_ckpt_cost: Vec<SimDuration>,
    /// Completed checkpoints per cluster (excluding the implicit t=0).
    ckpts_taken: Vec<u64>,
    /// Cluster sender-log bytes at its last checkpoint (baseline for
    /// the LogPressure growth observation).
    log_bytes_at_ckpt: Vec<u64>,
}

impl Hydee {
    /// A serial run's instance: its own storage ledger, every cluster
    /// owned.
    pub fn new(cfg: HydeeConfig) -> Self {
        let ledger = Arc::new(Mutex::new(StorageLedger::new(cfg.storage)));
        let owned = (0..cfg.clusters.n_clusters() as u32).collect();
        Self::sharded(cfg, ledger, owned)
    }

    /// Route this instance's storage ledger through an interconnect
    /// drain path (DESIGN.md §2.9): checkpoint writes and restart reads
    /// pay the topology's widest link class on their way to the storage
    /// tier. The `(ZERO, 0)` flat surcharge is a no-op, keeping legacy
    /// pricing bit-for-bit. Call before the run starts (the factory
    /// does), never mid-run.
    pub fn set_drain_surcharge(&mut self, latency: SimDuration, ps_per_byte: u64) {
        let mut ledger = self.ledger.lock().unwrap();
        *ledger = ledger.with_drain_surcharge(latency, ps_per_byte);
    }

    /// Construct one shard's protocol instance for a sharded run: `ledger`
    /// is shared by every shard, `owned` is the ascending cluster set this
    /// shard simulates (it captures the t=0 checkpoint and schedules
    /// checkpoint timers only for those).
    pub fn sharded(cfg: HydeeConfig, ledger: Arc<Mutex<StorageLedger>>, owned: Vec<u32>) -> Self {
        debug_assert!(owned.is_sorted(), "owned clusters must ascend");
        let policy = cfg.checkpoint_policy.build();
        let n = cfg.clusters.n_ranks();
        let n_clusters = cfg.clusters.n_clusters();
        Hydee {
            cfg,
            piggyback: PiggybackPolicy::default(),
            memcpy: MemcpyModel::default(),
            states: (0..n).map(|_| HydeeState::new()).collect(),
            checkpoints: (0..n_clusters).map(|_| None).collect(),
            rp: None,
            recovering: false,
            recovery_started: SimTime::ZERO,
            recovery_epoch: 0,
            active_rolled: BTreeSet::new(),
            last_rolled_at: vec![SimTime::ZERO; n_clusters],
            rollback_end: vec![SimTime::ZERO; n_clusters],
            policy_reactive: policy.as_deref().is_some_and(|p| p.reactive()),
            policy,
            ledger,
            owned,
            armed: vec![None; n_clusters],
            deferred: BTreeSet::new(),
            last_ckpt_cost: vec![SimDuration::ZERO; n_clusters],
            ckpts_taken: vec![0; n_clusters],
            log_bytes_at_ckpt: vec![0; n_clusters],
        }
    }

    /// Protocol state of one rank (for tests and instrumentation).
    pub fn state(&self, r: Rank) -> &HydeeState {
        &self.states[r.idx()]
    }

    pub fn config(&self) -> &HydeeConfig {
        &self.cfg
    }

    fn cluster_of(&self, r: Rank) -> u32 {
        self.cfg.clusters.cluster_of(r)
    }

    /// Capture a consistent cut of cluster `c` (engine snapshots, protocol
    /// states, intra-cluster channel state) into its checkpoint slot,
    /// overwriting the cluster's previous checkpoint in place, and return
    /// its bytes. It also starts the members' GC epoch, as every
    /// checkpoint does. Charges no time and consults no policy: this is
    /// the capture half of a checkpoint, run alone at t=0 (and by the
    /// `checkpoint_capture_16_ranks` micro-benchmark).
    pub fn capture_cluster(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, c: u32) -> u64 {
        let mut ckpt = self.checkpoints[c as usize].take().unwrap_or_default();
        let clusters = &self.cfg.clusters;
        let members = clusters.members(c);
        ctx.capture_inflight_into(members, &mut ckpt.inflight);
        ckpt.snaps.resize_with(members.len(), Default::default);
        ckpt.states.resize_with(members.len(), Default::default);
        let mut bytes = 0u64;
        for ((&r, snap), saved) in members.iter().zip(&mut ckpt.snaps).zip(&mut ckpt.states) {
            // Inter-cluster channel state is NOT part of a cluster
            // checkpoint: sender-based logs cover it (see
            // Ctx::capture_rank_into).
            ctx.capture_rank_into(r, snap, |m| clusters.same_cluster(m.src, m.dst));
            let st = &mut self.states[r.idx()];
            // GC epoch bookkeeping: remember what this checkpoint covers
            // and arm the acknowledgement-on-first-delivery markers.
            st.ckpt_date = st.date;
            st.ckpt_maxdates.clear();
            st.ckpt_maxdates.extend_sorted(st.rpp.maxdates());
            st.ack_pending.clear();
            st.ack_pending
                .extend(st.rpp.sources().filter(|&s| clusters.cluster_of(s) != c));
            bytes += self.cfg.image_bytes + st.checkpoint_bytes() + snap.image_bytes();
            st.checkpoint_into(saved);
        }
        ckpt.taken_at = ctx.now();
        ckpt.bytes = bytes;
        self.checkpoints[c as usize] = Some(ckpt);
        bytes
    }

    /// Sender-log bytes currently held by cluster `c`'s members.
    fn cluster_log_bytes(&self, c: u32) -> u64 {
        self.cfg
            .clusters
            .members(c)
            .iter()
            .map(|&r| self.states[r.idx()].log.bytes())
            .sum()
    }

    /// Observations for a policy consult about cluster `c`.
    fn obs_for(&self, ctx: &Ctx<'_, HydeeCtl>, c: u32) -> PolicyObs {
        let ci = c as usize;
        let members = self.cfg.clusters.members(c).len() as u64;
        PolicyObs {
            checkpoints_taken: self.ckpts_taken[ci],
            last_cost: self.last_ckpt_cost[ci],
            // Closed-form estimate until a measurement exists: the
            // cluster's images at uncontended aggregate bandwidth.
            est_cost: self
                .cfg
                .storage
                .write_time(members.saturating_mul(self.cfg.image_bytes), 1),
            // Containment scales the failure domain: a cluster's
            // checkpoint only insures against failures that roll *this
            // cluster* back, and with uniform victims those arrive
            // `n_clusters` times more rarely than machine failures.
            // (Global coordinated checkpointing has n_clusters = 1 and
            // sees the raw machine MTBF — the §VI asymmetry, surfaced
            // through the same policy interface.)
            mtbf: ctx.failure_mtbf().map(|m| {
                // Saturating: rare-failure models can report MTBFs near
                // the u64-picosecond ceiling, and a wrapped product
                // would read as a near-zero MTBF (continuous
                // checkpointing) instead of "practically never".
                SimDuration::from_ps(
                    m.as_ps()
                        .saturating_mul(self.cfg.clusters.n_clusters().max(1) as u64),
                )
            }),
            log_bytes_since_ckpt: self
                .cluster_log_bytes(c)
                .saturating_sub(self.log_bytes_at_ckpt[ci]),
        }
    }

    /// Ask the policy when cluster `c` should next checkpoint, as of
    /// `now`, and arm a timer. At most one timer is outstanding per
    /// cluster; a consult while one is armed is a no-op.
    fn consult_policy(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, c: u32, now: SimTime) {
        if self.armed[c as usize].is_some() {
            return;
        }
        let obs = self.obs_for(ctx, c);
        let Some(policy) = self.policy.as_mut() else {
            return;
        };
        if let Some(at) = policy.next_for(c, now, &obs) {
            let at = at.max(ctx.now());
            self.armed[c as usize] = Some(at);
            ctx.set_timer(at, c as u64);
        }
    }

    /// Coordinated checkpoint of cluster `c` with full cost accounting.
    fn do_checkpoint(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, c: u32) {
        let ckpt_bytes = self.capture_cluster(ctx, c);
        let members = self.cfg.clusters.members(c);
        let n_members = members.len() as u64;
        // Cluster-internal coordination: one small-message round per tree
        // level, down and up.
        let levels = (usize::BITS - (members.len().max(1) - 1).leading_zeros()) as u64;
        let coord = ctx.wire_cost(32).one_way() * (2 * levels.max(1));
        // The cluster's members share the aggregate pipe as one batch;
        // checkpoints of *other* clusters overlapping this one in
        // virtual time queue it (the §VI I/O-burst pricing).
        let write = self
            .ledger
            .lock()
            .unwrap()
            .write_batch(ctx.now(), ckpt_bytes);
        let cost = coord + write.total();
        for &r in members {
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
            rec.on_checkpoint(c, now, now + cost, ckpt_bytes);
        }
        ctx.metrics().checkpoints += n_members;
        ctx.metrics().checkpoint_bytes += ckpt_bytes;
        ctx.metrics().checkpoint_time += cost * n_members;
        let ci = c as usize;
        self.last_ckpt_cost[ci] = cost;
        self.ckpts_taken[ci] += 1;
        self.log_bytes_at_ckpt[ci] = self.cluster_log_bytes(c);
    }

    /// Send every notice the recovery process produced, then finish
    /// recovery if its bookkeeping completed.
    fn dispatch_rp(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, notices: Vec<RpNotice>) {
        for n in notices {
            let bytes = n.ctl.wire_bytes();
            ctx.send_ctl(RECOVERY_PROCESS, Endpoint::Rank(n.to), bytes, n.ctl);
        }
        if self.rp.as_ref().is_some_and(|rp| rp.done()) {
            self.rp = None;
            self.recovering = false;
            let now = ctx.now();
            if ctx.recorder().is_some() {
                for &c in &self.active_rolled {
                    let restored = self.rollback_end[c as usize];
                    if let Some(rec) = ctx.recorder() {
                        rec.on_recovery_phase(c, mps_sim::RecoveryPhase::Replay, restored, now);
                        rec.on_recovery_phase(c, mps_sim::RecoveryPhase::Complete, now, now);
                    }
                }
            }
            self.active_rolled.clear();
            let span = now.since(self.recovery_started);
            ctx.metrics().recovery_time += span;
            // Checkpoints that fell due during the recovery fire now,
            // anchored at its completion — not one blind interval past
            // the deferral point, which silently stretched the
            // effective interval (the policy then reschedules from the
            // executed checkpoint as usual).
            let due = std::mem::take(&mut self.deferred);
            for c in due {
                if self.armed[c as usize].is_none() {
                    self.armed[c as usize] = Some(ctx.now());
                    ctx.set_timer(ctx.now(), c as u64);
                }
            }
        }
    }

    /// All rollback notifications this process was waiting for have
    /// arrived: answer each restarted peer, select log replays, and report
    /// to the recovery process (Algorithm 3, lines 8–17).
    fn compile_reports(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, me: Rank) {
        let info: Vec<(Rank, u64, u64)> = self.states[me.idx()]
            .rollback_info
            .iter()
            .map(|(&k, &(own_date, maxdate))| (k, own_date, maxdate))
            .collect();
        let mut log_phases = Vec::new();
        let mut orphan_phases = Vec::new();
        let mut resent: Vec<LogEntry> = Vec::new();
        let mut lastdate: Vec<(Rank, u64)> = Vec::new();
        {
            let st = &self.states[me.idx()];
            for &(k, own_date, maxdate_from_me) in &info {
                let replay = st.log.replay_set(k, maxdate_from_me);
                log_phases.extend(replay.iter().map(|e| e.phase));
                resent.extend(replay);
                orphan_phases.extend(st.rpp.orphan_phases(k, own_date));
                // Messages from k that arrived but are still buffered count
                // as received (library-level reception): they raise our
                // LastDate horizon and, past k's restored date, they are
                // orphans k will suppress.
                let pending = ctx.pending_meta_from(me, k);
                let mut max_received = st.rpp.maxdate(k);
                for meta in pending {
                    max_received = max_received.max(meta.date);
                    if meta.date > own_date {
                        orphan_phases.push(meta.phase);
                    }
                }
                lastdate.push((k, max_received));
            }
        }
        resent.sort_by_key(|e| e.date);
        self.states[me.idx()].resent_logs = resent;
        let from = Endpoint::Rank(me);
        let epoch = self.recovery_epoch;
        for (k, max_received) in lastdate {
            let answer = HydeeCtl::LastDate {
                epoch,
                maxdate_from_you: max_received,
            };
            let bytes = answer.wire_bytes();
            ctx.send_ctl(from, Endpoint::Rank(k), bytes, answer);
        }
        for ctl in [
            HydeeCtl::LogReport {
                epoch,
                phases: log_phases,
            },
            HydeeCtl::OrphanReport {
                epoch,
                phases: orphan_phases,
            },
            HydeeCtl::OwnPhase {
                epoch,
                phase: self.states[me.idx()].phase,
            },
        ] {
            let bytes = ctl.wire_bytes();
            ctx.send_ctl(from, RECOVERY_PROCESS, bytes, ctl);
        }
    }

    /// Open the send gate if this process has everything it needs
    /// (Algorithm 2 line 8 / Algorithm 3 line 18).
    fn try_open_gate(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, me: Rank) {
        let st = &self.states[me.idx()];
        let ready = match st.role {
            RecoveryRole::Rolled => st.notify_recv && st.waiting_lastdate.is_empty(),
            RecoveryRole::Survivor => st.notify_recv,
            RecoveryRole::None => return,
        };
        if ready {
            let st = &mut self.states[me.idx()];
            if st.role == RecoveryRole::Survivor {
                st.role = RecoveryRole::None;
            }
            st.notify_recv = false;
            ctx.gate(me, false);
        }
    }
}

impl Protocol for Hydee {
    type Ctl = HydeeCtl;

    fn name(&self) -> &'static str {
        "hydee"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, HydeeCtl>) {
        // Implicit initial checkpoint of every owned cluster at t=0
        // (cost-free: nothing has executed, the "image" is the binary
        // itself).
        for i in 0..self.owned.len() {
            self.capture_cluster(ctx, self.owned[i]);
        }
        for i in 0..self.owned.len() {
            self.consult_policy(ctx, self.owned[i], ctx.now());
        }
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, info: &SendInfo) -> SendDirective {
        let inter = !self.cfg.clusters.same_cluster(info.src, info.dst);
        let src_idx = info.src.idx();

        // Algorithm 2 line 21: once the re-executing process's date passes
        // every orphan horizon it switches back to the failure-free path.
        if self.states[src_idx].suppressing && self.states[src_idx].past_all_orphans() {
            let st = &mut self.states[src_idx];
            st.suppressing = false;
            st.role = RecoveryRole::None;
        }

        // Date is incremented for every send event, suppressed or not
        // (Algorithm 1 line 6 / Algorithm 2 line 12).
        self.states[src_idx].date += 1;
        let date = self.states[src_idx].date;
        let phase = self.states[src_idx].phase;
        let meta = PbMeta { date, phase };

        // Algorithm 2 lines 13-15: a re-executed inter-cluster send the
        // receiver already has is suppressed; notify the recovery process.
        //
        // Deviation from the paper's pseudo-code (documented in DESIGN.md):
        // the suppressed message is still APPENDED TO THE SENDER LOG. The
        // paper's Algorithm 2 only logs transmitted sends, which leaves the
        // restarted process's log missing its suppressed messages — a
        // *subsequent* failure rolling the receiver back past those
        // deliveries would then find nothing to replay and recovery would
        // deadlock. Re-logging restores the Algorithm 1 invariant that the
        // sender log covers every inter-cluster send since the last
        // checkpoint.
        if self.states[src_idx].suppressing && inter {
            if let Some(&od) = self.states[src_idx].orphan_date.get(&info.dst) {
                if date <= od {
                    self.states[src_idx].log.append(LogEntry {
                        date,
                        phase,
                        dst: info.dst,
                        tag: info.tag,
                        bytes: info.bytes,
                        payload: info.payload,
                        channel_seq: info.channel_seq,
                    });
                    ctx.log_append(info.bytes);
                    let ctl = HydeeCtl::OrphanNotification {
                        epoch: self.recovery_epoch,
                        phase,
                    };
                    let bytes = ctl.wire_bytes();
                    ctx.send_ctl(Endpoint::Rank(info.src), RECOVERY_PROCESS, bytes, ctl);
                    // The log copy cannot overlap a transmission that never
                    // happens: charge the full copy.
                    return SendDirective {
                        action: SendAction::Suppress,
                        meta,
                        extra_wire_bytes: 0,
                        extra_sender_time: self.memcpy.copy_time(info.bytes),
                    };
                }
            }
        }

        // Piggyback (date, phase): inline below the threshold, separate
        // protocol message above it (§V-A).
        let extra_wire_bytes;
        let mut extra_sender_time;
        match self.piggyback.apply(info.bytes) {
            net_model::PiggybackCost::Inline { extra_bytes } => {
                extra_wire_bytes = extra_bytes;
                extra_sender_time = SimDuration::ZERO;
            }
            net_model::PiggybackCost::Separate { sender_overhead } => {
                extra_wire_bytes = 0;
                extra_sender_time = sender_overhead;
            }
        }

        // Algorithm 1 lines 7-8: sender-based logging of inter-cluster
        // payloads. The memcpy overlaps with the NIC transfer; only the
        // non-overlapped remainder (if any) costs sender time.
        if inter {
            self.states[src_idx].log.append(LogEntry {
                date,
                phase,
                dst: info.dst,
                tag: info.tag,
                bytes: info.bytes,
                payload: info.payload,
                channel_seq: info.channel_seq,
            });
            ctx.log_append(info.bytes);
            let transit = ctx.wire_cost(info.bytes + extra_wire_bytes).transit;
            extra_sender_time += self.memcpy.non_overlapped(info.bytes, transit);
            // Reactive policies (LogPressure) watch the log grow; the
            // cached flag keeps this off the hot path otherwise.
            if self.policy_reactive {
                let c = self.cluster_of(info.src);
                self.consult_policy(ctx, c, ctx.now());
            }
        }

        SendDirective {
            action: SendAction::Proceed,
            meta,
            extra_wire_bytes,
            extra_sender_time,
        }
    }

    fn on_deliver(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, msg: &Message) {
        let inter = !self.cfg.clusters.same_cluster(msg.src, msg.dst);
        let me = msg.dst.idx();
        if inter {
            // Algorithm 1 lines 11-14.
            self.states[me].phase = self.states[me].phase.max(msg.meta.phase + 1);
            self.states[me]
                .rpp
                .record(msg.src, msg.meta.date, msg.meta.phase);
            // GC §III-E: acknowledge the first delivery from each external
            // peer after a checkpoint with what that checkpoint covers.
            let st = &mut self.states[me];
            let acked = st.ack_pending.binary_search(&msg.src).ok();
            if let (true, Some(i)) = (self.cfg.gc, acked) {
                st.ack_pending.remove(i);
                let ack = HydeeCtl::CkptAck {
                    your_maxdate: st.ckpt_maxdates.get(msg.src).copied().unwrap_or(0),
                    my_ckpt_date: st.ckpt_date,
                };
                let bytes = ack.wire_bytes();
                ctx.send_ctl(Endpoint::Rank(msg.dst), Endpoint::Rank(msg.src), bytes, ack);
            }
        } else {
            // Algorithm 1 line 16.
            self.states[me].phase = self.states[me].phase.max(msg.meta.phase);
        }
        // Algorithm 1 line 17.
        self.states[me].date += 1;
    }

    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, HydeeCtl>,
        to: Endpoint,
        from: Endpoint,
        ctl: HydeeCtl,
    ) {
        // A message of an aborted recovery incarnation (a failure struck
        // while it was in flight and restarted the orchestration) must
        // not feed the current incarnation's bookkeeping: drop it.
        if let Some(epoch) = ctl.epoch() {
            if epoch != self.recovery_epoch {
                debug_assert!(
                    epoch < self.recovery_epoch,
                    "control message from a future recovery incarnation"
                );
                return;
            }
        }
        match (to, ctl) {
            // ---- messages to the recovery process ----
            (Endpoint::Aux(_), HydeeCtl::OwnPhase { phase, .. }) => {
                let Endpoint::Rank(r) = from else { return };
                let notices = self
                    .rp
                    .as_mut()
                    .expect("OwnPhase with no active recovery")
                    .on_own_phase(r, phase);
                self.dispatch_rp(ctx, notices);
            }
            (Endpoint::Aux(_), HydeeCtl::LogReport { phases, .. }) => {
                let Endpoint::Rank(r) = from else { return };
                let notices = self
                    .rp
                    .as_mut()
                    .expect("LogReport with no active recovery")
                    .on_log_report(r, &phases);
                self.dispatch_rp(ctx, notices);
            }
            (Endpoint::Aux(_), HydeeCtl::OrphanReport { phases, .. }) => {
                let notices = self
                    .rp
                    .as_mut()
                    .expect("OrphanReport with no active recovery")
                    .on_orphan_report(&phases);
                self.dispatch_rp(ctx, notices);
            }
            (Endpoint::Aux(_), HydeeCtl::OrphanNotification { phase, .. }) => {
                let notices = self
                    .rp
                    .as_mut()
                    .expect("OrphanNotification with no active recovery")
                    .on_orphan_notification(phase);
                self.dispatch_rp(ctx, notices);
            }

            // ---- messages to application processes ----
            (
                Endpoint::Rank(me),
                HydeeCtl::Rollback {
                    own_date,
                    maxdate_from_you,
                    ..
                },
            ) => {
                let Endpoint::Rank(k) = from else { return };
                let st = &mut self.states[me.idx()];
                st.rollback_info.insert(k, (own_date, maxdate_from_you));
                remove_sorted(&mut st.waiting_rollback, k);
                if st.waiting_rollback.is_empty() && st.role != RecoveryRole::None {
                    self.compile_reports(ctx, me);
                }
            }
            (
                Endpoint::Rank(me),
                HydeeCtl::LastDate {
                    maxdate_from_you, ..
                },
            ) => {
                let Endpoint::Rank(j) = from else { return };
                let st = &mut self.states[me.idx()];
                st.orphan_date.insert(j, maxdate_from_you);
                remove_sorted(&mut st.waiting_lastdate, j);
                self.try_open_gate(ctx, me);
            }
            (Endpoint::Rank(me), HydeeCtl::NotifySendMsg { .. }) => {
                self.states[me.idx()].notify_recv = true;
                self.try_open_gate(ctx, me);
            }
            (Endpoint::Rank(me), HydeeCtl::NotifySendLog { phase, .. }) => {
                // Replay all selected log entries with phase <= notified
                // phase, in date order (Algorithm 3, lines 22-24).
                let st = &mut self.states[me.idx()];
                let (replay, keep): (Vec<LogEntry>, Vec<LogEntry>) =
                    st.resent_logs.drain(..).partition(|e| e.phase <= phase);
                st.resent_logs = keep;
                for e in replay {
                    let m = e.to_message(me);
                    ctx.replay_app(m);
                }
            }
            (
                Endpoint::Rank(me),
                HydeeCtl::CkptAck {
                    your_maxdate,
                    my_ckpt_date,
                },
            ) => {
                let Endpoint::Rank(k) = from else { return };
                let st = &mut self.states[me.idx()];
                let (msgs, bytes) = st.log.prune(k, your_maxdate);
                st.rpp.prune(k, my_ckpt_date);
                if msgs > 0 {
                    ctx.log_reclaim(msgs, bytes);
                }
            }
            (to, ctl) => {
                unreachable!("unexpected control message {ctl:?} at {to}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, id: u64) {
        if self.policy.is_none() {
            return;
        }
        let c = id as u32;
        self.armed[c as usize] = None;
        if self.recovering
            && self
                .policy
                .as_deref()
                .is_some_and(|p| p.defer_during_recovery())
        {
            // The due checkpoint is parked until the recovery completes
            // (see `dispatch_rp`), not re-armed a blind interval out.
            self.deferred.insert(c);
            return;
        }
        self.do_checkpoint(ctx, c);
        // Consult the policy relative to when the cluster finishes
        // writing, not when the timer fired — a checkpoint that costs
        // more than the interval must not starve the application.
        let resume = self
            .cfg
            .clusters
            .members(c)
            .iter()
            .map(|&r| ctx.clock(r))
            .max()
            .unwrap_or_else(|| ctx.now());
        self.consult_policy(ctx, c, resume);
    }

    fn on_failure(&mut self, ctx: &mut Ctx<'_, HydeeCtl>, failed: &[Rank]) {
        // A failure during an ongoing recovery (a cascade) aborts that
        // recovery and restarts the orchestration over the *union* of the
        // affected clusters: the previously rolled clusters are restored
        // again (their partial re-execution is discarded — it restarts
        // from the same checkpoint and, by send determinism, reproduces
        // the same messages), a fresh recovery process is launched, and
        // every control message of the aborted incarnation still in
        // flight is invalidated by the epoch bump.
        let was_recovering = self.recovering;
        if !was_recovering {
            self.recovery_started = ctx.now();
        }
        self.recovering = true;
        self.recovery_epoch += 1;

        let mut rolled_clusters: BTreeSet<u32> =
            failed.iter().map(|&r| self.cluster_of(r)).collect();
        if was_recovering {
            rolled_clusters.extend(self.active_rolled.iter().copied());
        }
        // A rank still inside its suppression window is mid-re-execution
        // from an earlier recovery: its suppression horizons and orphan
        // accounting belong to that recovery's peer state, which this
        // failure is about to reshape. Roll its cluster back too — the
        // restart recomputes everything from checkpointed state. (A rank
        // that finished its program has necessarily re-emitted every
        // pre-failure send, so its stale `suppressing` flag is inert.)
        for i in 0..self.cfg.clusters.n_ranks() {
            let r = Rank(i as u32);
            if self.states[i].suppressing && !ctx.is_done(r) {
                rolled_clusters.insert(self.cluster_of(r));
            }
        }
        self.active_rolled = rolled_clusters.clone();

        let rolled: Vec<Rank> = rolled_clusters
            .iter()
            .flat_map(|&c| self.cfg.clusters.members(c).iter().copied())
            .collect();
        // `rolled`, ascending: the survivors' `waiting_rollback`.
        let mut rolled_set = rolled.clone();
        rolled_set.sort_unstable();
        ctx.metrics().ranks_rolled_back += rolled.len() as u64;
        for &c in &rolled_clusters {
            if let Some(ckpt) = &self.checkpoints[c as usize] {
                // Work discarded *by this rollback*: everything computed
                // since the later of the restored cut and the cluster's
                // previous rollback (earlier spans were already counted).
                let start = ckpt.taken_at.max(self.last_rolled_at[c as usize]);
                let span = ctx.now().since(start);
                ctx.metrics().lost_work += span * self.cfg.clusters.members(c).len() as u64;
            }
            self.last_rolled_at[c as usize] = ctx.now();
        }

        // Messages in flight to any rolled-back rank address a dead
        // incarnation: drop them (their content is covered by sender logs
        // or by re-execution).
        ctx.drop_inflight_to(&rolled);

        // Log replays authorised by a *completed* earlier recovery may
        // still be parked here waiting for their (now stale-epoch)
        // NotifySendLog. Entries toward ranks rolling back now are
        // recomputed from the fresh Rollback horizons; entries toward
        // ranks that stay up have no other path — their target's state
        // still needs them, so release them now.
        for i in 0..self.cfg.clusters.n_ranks() {
            let r = Rank(i as u32);
            if rolled_set.binary_search(&r).is_ok() || self.states[i].resent_logs.is_empty() {
                continue;
            }
            let entries = std::mem::take(&mut self.states[i].resent_logs);
            for e in entries {
                if rolled_set.binary_search(&e.dst).is_err() {
                    ctx.replay_app(e.to_message(r));
                }
            }
        }

        // Launch the recovery process: every rank (rolled and survivor)
        // files each report kind exactly once.
        self.rp = Some(RecoveryProcess::new(
            self.cfg.clusters.n_ranks(),
            self.recovery_epoch,
        ));

        // Survivors: gate the next send, await rollback notifications from
        // every rolled rank.
        for i in 0..self.cfg.clusters.n_ranks() {
            let r = Rank(i as u32);
            if rolled_set.binary_search(&r).is_ok() {
                continue;
            }
            let st = &mut self.states[i];
            st.role = RecoveryRole::Survivor;
            st.waiting_rollback.clear();
            st.waiting_rollback.extend_from_slice(&rolled_set);
            st.rollback_info.clear();
            st.notify_recv = false;
            ctx.gate(r, true);
        }

        // Rolled clusters: restore from the last checkpoint. All rolled
        // ranks read their images together: one batch on the storage
        // ledger, priced by its total bytes (the exact remainder-
        // conserving sum, not `per_member × readers`) plus whatever
        // transfers it overlaps in virtual time.
        let total_restore_bytes: u64 = rolled_clusters
            .iter()
            .map(|&c| {
                self.checkpoints[c as usize]
                    .as_ref()
                    .expect("no checkpoint for rolled cluster")
                    .bytes
            })
            .sum();
        let read_batch = self
            .ledger
            .lock()
            .unwrap()
            .read_batch(ctx.now(), total_restore_bytes);
        let read = read_batch.total();
        let t_fail = ctx.now();
        // Every rolled cluster's members resume compute at the end of the
        // shared restore batch: that instant splits its recovery into the
        // rollback span (restore) and the replay span (ends when the
        // recovery process completes, see `dispatch_rp`).
        let restore_end = t_fail + self.cfg.restart_latency + read;
        for &c in &rolled_clusters {
            self.rollback_end[c as usize] = restore_end;
        }
        if ctx.recorder().is_some() {
            if let Some(rec) = ctx.recorder() {
                rec.on_storage(
                    mps_sim::StorageDir::Read,
                    t_fail,
                    read_batch.queued,
                    read_batch.service,
                    total_restore_bytes,
                );
            }
            for &c in &rolled_clusters {
                if let Some(rec) = ctx.recorder() {
                    rec.on_recovery_phase(c, mps_sim::RecoveryPhase::Detect, t_fail, t_fail);
                    rec.on_recovery_phase(c, mps_sim::RecoveryPhase::Rollback, t_fail, restore_end);
                }
            }
        }
        let clusters = &self.cfg.clusters;
        for &c in &rolled_clusters {
            let ckpt = self.checkpoints[c as usize]
                .as_ref()
                .expect("no checkpoint for rolled cluster");
            let members = clusters.members(c);
            let outside = clusters.non_members(c);
            for ((&r, snap), saved) in members.iter().zip(&ckpt.snaps).zip(&ckpt.states) {
                let st = &mut self.states[r.idx()];
                saved.checkpoint_into(st);
                st.role = RecoveryRole::Rolled;
                st.suppressing = true;
                st.waiting_lastdate.extend_from_slice(&outside);
                st.waiting_rollback.extend(
                    rolled_set
                        .iter()
                        .copied()
                        .filter(|&k| clusters.cluster_of(k) != c),
                );
                ctx.restore_rank(r, snap, true);
                ctx.charge(r, self.cfg.restart_latency + read);
            }
            // Chandy-Lamport channel state: re-inject intra-cluster
            // messages that were in flight at the cut.
            ctx.inject_inflight(&ckpt.inflight);
        }

        // Restarted processes notify everyone outside their cluster
        // (Algorithm 2, lines 6-7) — carrying both date quantities (see
        // ctl.rs on date domains).
        for &c in &rolled_clusters {
            let outside = self.cfg.clusters.non_members(c);
            for &r in self.cfg.clusters.members(c) {
                for &peer in &outside {
                    let ctl = HydeeCtl::Rollback {
                        epoch: self.recovery_epoch,
                        own_date: self.states[r.idx()].date,
                        maxdate_from_you: self.states[r.idx()].rpp.maxdate(peer),
                    };
                    let bytes = ctl.wire_bytes();
                    ctx.send_ctl(Endpoint::Rank(r), Endpoint::Rank(peer), bytes, ctl);
                }
            }
        }
        // Ranks with nothing to wait for (single-cluster failure: the
        // rolled ranks themselves) report immediately.
        for &r in &rolled {
            if self.states[r.idx()].waiting_rollback.is_empty() {
                self.compile_reports(ctx, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::{Application, ClusterMap, Sim, SimConfig, Tag};

    fn two_cluster_app(rounds: usize) -> (Application, ClusterMap) {
        // 4 ranks, clusters {0,1} and {2,3}. Each round: 0<->1 intra,
        // 1->2 inter, 2<->3 intra, 3->0 inter.
        let mut app = Application::new(4);
        for _ in 0..rounds {
            app.rank_mut(Rank(0)).send(Rank(1), 512, Tag(0));
            app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
            app.rank_mut(Rank(1)).send(Rank(2), 2048, Tag(1));
            app.rank_mut(Rank(2)).recv(Rank(1), Tag(1));
            app.rank_mut(Rank(2)).send(Rank(3), 512, Tag(0));
            app.rank_mut(Rank(3)).recv(Rank(2), Tag(0));
            app.rank_mut(Rank(3)).send(Rank(0), 2048, Tag(1));
            app.rank_mut(Rank(0)).recv(Rank(3), Tag(1));
        }
        (app, ClusterMap::new(vec![0, 0, 1, 1]))
    }

    #[test]
    fn failure_free_run_logs_only_inter_cluster() {
        let (app, clusters) = two_cluster_app(10);
        let hydee = Hydee::new(HydeeConfig::new(clusters));
        let report = Sim::new(app, SimConfig::default(), hydee).run();
        assert!(report.completed(), "{:?}", report.status);
        // 20 inter-cluster messages of 2048 B are logged; intra are not.
        assert_eq!(report.metrics.logged_bytes_cumulative, 20 * 2048);
        assert_eq!(report.metrics.app_messages, 40);
        assert!(report.trace.is_consistent());
    }

    #[test]
    fn phases_grow_only_on_inter_cluster_paths() {
        let (app, clusters) = two_cluster_app(3);
        let hydee = Hydee::new(HydeeConfig::new(clusters));
        let mut sim = Sim::new(app, SimConfig::default(), hydee);
        let _ = &mut sim; // run consumes
        let (app2, clusters2) = two_cluster_app(3);
        let report_protocol = Sim::new(
            app2,
            SimConfig::default(),
            Hydee::new(HydeeConfig::new(clusters2)),
        )
        .run();
        assert!(report_protocol.completed());
    }

    #[test]
    fn intra_only_app_logs_nothing() {
        let mut app = Application::new(2);
        for _ in 0..5 {
            app.rank_mut(Rank(0)).send(Rank(1), 4096, Tag(0));
            app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        }
        let hydee = Hydee::new(HydeeConfig::new(ClusterMap::single(2)));
        let report = Sim::new(app, SimConfig::default(), hydee).run();
        assert!(report.completed());
        assert_eq!(report.metrics.logged_bytes_cumulative, 0);
    }

    #[test]
    fn per_rank_clusters_log_everything() {
        let mut app = Application::new(2);
        for _ in 0..5 {
            app.rank_mut(Rank(0)).send(Rank(1), 4096, Tag(0));
            app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
        }
        let hydee = Hydee::new(HydeeConfig::new(ClusterMap::per_rank(2)));
        let report = Sim::new(app, SimConfig::default(), hydee).run();
        assert!(report.completed());
        assert_eq!(report.metrics.logged_bytes_cumulative, 5 * 4096);
    }

    #[test]
    fn member_shares_of_a_real_checkpoint_conserve_its_bytes() {
        let (app, clusters) = two_cluster_app(20);
        // An image size that does not divide evenly by the cluster size.
        let cfg = HydeeConfig::new(clusters)
            .with_policy(mps_sim::CheckpointPolicyConfig::Periodic {
                interval: SimDuration::from_us(200),
                first: Some(SimTime::from_us(100)),
                stagger: Some(SimDuration::from_us(50)),
            })
            .with_image_bytes((1 << 20) + 7);
        let sim = Sim::new(app, SimConfig::default(), Hydee::new(cfg));
        let (report, hydee) = sim.run_with_protocol();
        assert!(report.completed());
        assert!(report.metrics.checkpoints > 0);
        assert!(report.metrics.checkpoint_time > SimDuration::ZERO);
        for ckpt in hydee.checkpoints.iter().flatten() {
            let n = ckpt.snaps.len();
            let total: u64 = (0..n).map(|i| ckpt.member_share(i)).sum();
            assert_eq!(total, ckpt.bytes, "shares must sum to the checkpoint");
        }
    }

    #[test]
    fn unset_first_and_stagger_run_bit_for_bit_as_100ms_and_50ms() {
        use mps_sim::CheckpointPolicyConfig;
        // `two_cluster_app`'s round with 5 ms of compute per rank first:
        // the run outlasts the default first checkpoints (100 ms, then
        // 150 ms for cluster 1) and the failure at 200 ms.
        let app = || {
            let mut app = Application::new(4);
            for _ in 0..60 {
                for r in 0..4 {
                    app.rank_mut(Rank(r)).compute(SimDuration::from_ms(5));
                }
                app.rank_mut(Rank(0)).send(Rank(1), 512, Tag(0));
                app.rank_mut(Rank(1)).recv(Rank(0), Tag(0));
                app.rank_mut(Rank(1)).send(Rank(2), 2048, Tag(1));
                app.rank_mut(Rank(2)).recv(Rank(1), Tag(1));
                app.rank_mut(Rank(2)).send(Rank(3), 512, Tag(0));
                app.rank_mut(Rank(3)).recv(Rank(2), Tag(0));
                app.rank_mut(Rank(3)).send(Rank(0), 2048, Tag(1));
                app.rank_mut(Rank(0)).recv(Rank(3), Tag(1));
            }
            app
        };
        let run = |first, stagger| {
            let (_, clusters) = two_cluster_app(0);
            let cfg = HydeeConfig::new(clusters)
                .with_image_bytes(1 << 16)
                .with_policy(CheckpointPolicyConfig::Periodic {
                    interval: SimDuration::from_ms(20),
                    first,
                    stagger,
                });
            let mut sim = Sim::new(app(), SimConfig::default(), Hydee::new(cfg));
            sim.inject_failure(SimTime::from_ms(200), vec![Rank(2)]);
            sim.run()
        };
        let defaults = run(None, None);
        let explicit = run(Some(SimTime::from_ms(100)), Some(SimDuration::from_ms(50)));
        assert!(defaults.completed() && explicit.completed());
        assert!(defaults.metrics.checkpoints > 0, "the run must checkpoint");
        assert_eq!(defaults.digests, explicit.digests);
        assert_eq!(
            defaults.makespan, explicit.makespan,
            "timing equal, not just state"
        );
        assert_eq!(defaults.metrics.events, explicit.metrics.events);
        assert_eq!(defaults.metrics.checkpoints, explicit.metrics.checkpoints);
    }

    #[test]
    fn young_daly_checkpoints_only_when_failures_are_expected() {
        use mps_sim::{CheckpointPolicyConfig, PoissonPerRank};
        let mk = |with_failures: bool| {
            let (app, clusters) = two_cluster_app(80);
            let mut cfg = HydeeConfig::new(clusters)
                .with_image_bytes(1 << 14)
                .with_policy(CheckpointPolicyConfig::YoungDaly {
                    first: Some(SimTime::from_us(50)),
                    stagger: Some(SimDuration::from_us(20)),
                });
            cfg.storage.latency = SimDuration::from_us(5);
            let mut sim = Sim::new(app, SimConfig::default(), Hydee::new(cfg));
            if with_failures {
                sim.set_failure_model(Box::new(
                    PoissonPerRank::new(4, SimDuration::from_ms(40), 11).with_max_failures(1),
                ));
            }
            sim.run()
        };
        let clean = mk(false);
        assert!(clean.completed());
        assert_eq!(
            clean.metrics.checkpoints, 0,
            "no expected failures => infinite Young/Daly interval"
        );
        let failing = mk(true);
        assert!(failing.completed(), "{:?}", failing.status);
        assert!(
            failing.metrics.checkpoints > 0,
            "an expected failure rate sizes a finite interval"
        );
    }

    #[test]
    fn log_pressure_checkpoints_track_inter_cluster_traffic() {
        use mps_sim::CheckpointPolicyConfig;
        let budget = 16 * 2048; // ~16 inter-cluster messages
        let run = |rounds: usize| {
            let (app, clusters) = two_cluster_app(rounds);
            let cfg = HydeeConfig::new(clusters)
                .with_image_bytes(1 << 14)
                .with_policy(CheckpointPolicyConfig::LogPressure {
                    budget_bytes: budget,
                });
            Sim::new(app, SimConfig::default(), Hydee::new(cfg)).run()
        };
        let quiet = run(4); // 8 inter-cluster msgs < budget
        assert!(quiet.completed());
        assert_eq!(quiet.metrics.checkpoints, 0, "under budget: no checkpoints");
        let chatty = run(100);
        assert!(chatty.completed());
        assert!(
            chatty.metrics.checkpoints > 0,
            "budget crossings checkpoint"
        );
        // Each checkpoint resets the growth baseline, so the count is
        // bounded by total logged bytes / budget, not exponential.
        let ckpt_events = chatty.metrics.checkpoints / 2; // 2 ranks per cluster
        assert!(
            ckpt_events <= chatty.metrics.logged_bytes_cumulative / budget + 2,
            "{} checkpoint events for {} logged bytes",
            ckpt_events,
            chatty.metrics.logged_bytes_cumulative
        );
    }

    #[test]
    fn overlapping_cluster_checkpoints_pay_contention_staggered_ones_do_not() {
        use mps_sim::CheckpointPolicyConfig;
        // Big images, slow storage: the write dominates the makespan.
        let mk = |stagger_us: u64| {
            let (app, clusters) = two_cluster_app(30);
            let mut cfg = HydeeConfig::new(clusters)
                .with_image_bytes(8 << 20)
                .with_policy(CheckpointPolicyConfig::Periodic {
                    interval: SimDuration::from_ms(500),
                    first: Some(SimTime::from_us(100)),
                    stagger: Some(SimDuration::from_us(stagger_us)),
                });
            cfg.storage.latency = SimDuration::from_us(1);
            Sim::new(app, SimConfig::default(), Hydee::new(cfg)).run()
        };
        let burst = mk(0); // both clusters write at t=100us: queueing
        let staggered = mk(50_000); // second cluster waits out the first
        assert!(burst.completed() && staggered.completed());
        assert!(
            burst.metrics.checkpoint_time > staggered.metrics.checkpoint_time,
            "burst {:?} vs staggered {:?}",
            burst.metrics.checkpoint_time,
            staggered.metrics.checkpoint_time
        );
    }

    #[test]
    fn single_cluster_failure_recovers_and_contains() {
        let (app, clusters) = two_cluster_app(50);
        let golden = {
            let (app, clusters) = two_cluster_app(50);
            Sim::new(
                app,
                SimConfig::default(),
                Hydee::new(HydeeConfig::new(clusters)),
            )
            .run()
        };
        let hydee = Hydee::new(HydeeConfig::new(clusters));
        let mut sim = Sim::new(app, SimConfig::default(), hydee);
        // Fail rank 2 mid-run: cluster {2,3} rolls back to t=0 checkpoint.
        sim.inject_failure(SimTime::from_us(300), vec![Rank(2)]);
        let report = sim.run();
        assert!(report.completed(), "{:?}", report.status);
        assert!(
            report.trace.violations.is_empty(),
            "oracle violations: {:?}",
            report.trace.violations
        );
        assert_eq!(report.digests, golden.digests, "recovered state differs");
        assert_eq!(
            report.metrics.ranks_rolled_back, 2,
            "containment: only cluster {{2,3}}"
        );
        assert_eq!(report.metrics.failures, 1);
    }

    #[test]
    fn concurrent_failures_in_both_clusters_recover() {
        let (app, clusters) = two_cluster_app(50);
        let golden = {
            let (app, clusters) = two_cluster_app(50);
            Sim::new(
                app,
                SimConfig::default(),
                Hydee::new(HydeeConfig::new(clusters)),
            )
            .run()
        };
        let hydee = Hydee::new(HydeeConfig::new(clusters));
        let mut sim = Sim::new(app, SimConfig::default(), hydee);
        sim.inject_failure(SimTime::from_us(300), vec![Rank(0), Rank(2)]);
        let report = sim.run();
        assert!(report.completed(), "{:?}", report.status);
        assert!(
            report.trace.violations.is_empty(),
            "oracle violations: {:?}",
            report.trace.violations
        );
        assert_eq!(report.digests, golden.digests);
        assert_eq!(report.metrics.ranks_rolled_back, 4);
    }
}
