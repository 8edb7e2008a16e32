//! Stable (reliable) storage model for checkpoints.
//!
//! HydEE saves cluster-coordinated checkpoints — including the sender-side
//! message logs and the RPP table — to reliable storage (Algorithm 1,
//! line 21), and restarts failed clusters from it. Two layers model the
//! cost:
//!
//! * [`StableStorage`] — the closed-form price of one transfer: a fixed
//!   setup latency plus a bandwidth term, with an optional static
//!   `concurrent` divisor for callers that know their own contention.
//! * [`StorageLedger`] — the *dynamic* contention model (DESIGN.md §2.4):
//!   a per-run ledger that prices each write/read batch by the transfers
//!   actually overlapping it in virtual time. The I/O burst the paper
//!   discusses (§VI) — all clusters checkpointing at once under
//!   coordinated checkpointing, versus HydEE's staggered per-cluster
//!   schedules — falls out of the same mechanism instead of a hand-fed
//!   divisor: overlapping batches queue on the shared aggregate pipe,
//!   non-overlapping batches each see full bandwidth.

use crate::topology::Topology;
use det_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Reliable storage (parallel filesystem / SSD tier) cost model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StableStorage {
    /// Per-operation setup latency.
    pub latency: SimDuration,
    /// Aggregate write bandwidth, bytes per microsecond (default 1 GB/s).
    pub write_bytes_per_us: u64,
    /// Aggregate read bandwidth, bytes per microsecond (default 2 GB/s).
    pub read_bytes_per_us: u64,
}

impl Default for StableStorage {
    fn default() -> Self {
        StableStorage {
            latency: SimDuration::from_us(500),
            write_bytes_per_us: 1_000,
            read_bytes_per_us: 2_000,
        }
    }
}

/// `bytes` over `bytes_per_us` shared `ways` ways, in picoseconds —
/// computed in u128 (multiply *before* divide, so nothing truncates) and
/// saturated to `u64` on the way out. The old u64 arithmetic both
/// truncated (`bytes * 1e6 / bw` rounds down before the `* ways`
/// amplifies the loss) and overflowed for large images × many writers
/// (16 GiB × 4096 writers wraps 2^64).
fn transfer_ps(bytes: u64, bytes_per_us: u64, ways: u64) -> u64 {
    let ps = ((bytes as u128) * 1_000_000u128).saturating_mul(ways.max(1) as u128)
        / (bytes_per_us.max(1) as u128);
    u64::try_from(ps).unwrap_or(u64::MAX)
}

impl StableStorage {
    /// Time for one writer to persist `bytes` while `concurrent_writers`
    /// share the aggregate bandwidth (static divisor; see
    /// [`StorageLedger`] for contention derived from actual overlap).
    pub fn write_time(&self, bytes: u64, concurrent_writers: u64) -> SimDuration {
        SimDuration::from_ps(self.latency.as_ps().saturating_add(transfer_ps(
            bytes,
            self.write_bytes_per_us,
            concurrent_writers,
        )))
    }

    /// Time for one reader to load `bytes` while `concurrent_readers` share
    /// the aggregate bandwidth.
    pub fn read_time(&self, bytes: u64, concurrent_readers: u64) -> SimDuration {
        SimDuration::from_ps(self.latency.as_ps().saturating_add(transfer_ps(
            bytes,
            self.read_bytes_per_us,
            concurrent_readers,
        )))
    }
}

/// Dynamic I/O-contention ledger over a [`StableStorage`].
///
/// One ledger lives per run (owned by the protocol instance) and sees
/// every checkpoint write and restart read as a *batch*: a set of
/// processes that start a coordinated transfer of `total_bytes` at the
/// same virtual instant and complete together. The ledger keeps one busy
/// timeline per direction; a batch that overlaps transfers already
/// underway queues behind them (FIFO on the shared aggregate pipe) and
/// its members are all charged the queueing delay plus the setup latency
/// plus `total_bytes` at full aggregate bandwidth.
///
/// Pricing equivalences that make this a drop-in replacement for the old
/// static divisor:
///
/// * a *non-overlapping* batch (HydEE's staggered cluster checkpoints)
///   costs `latency + total/bw` — exactly the old
///   `write_time(total/n, n)` each of its `n` members paid;
/// * a machine-wide simultaneous batch (coordinated checkpointing's
///   full-width burst) also costs `latency + total/bw` per member — the
///   old `write_time(total/n, n)` again, but now because everyone shares
///   one pipe, not because the caller guessed the divisor;
/// * two batches that *do* overlap — which the static model silently
///   priced as if they were alone — now queue: the second pays the
///   first's residual transfer time on top of its own.
///
/// Determinism: the ledger is driven only by protocol events, whose
/// order the §2 contract already fixes, and does integer arithmetic
/// only. Rollback does not rewind the ledger — storage traffic that
/// happened, happened; a restarted cluster's new writes still queue
/// behind transfers in progress at the failure.
#[derive(Debug, Clone, Copy)]
pub struct StorageLedger {
    cfg: StableStorage,
    write_busy_until: SimTime,
    read_busy_until: SimTime,
    /// Extra per-batch latency for draining through the interconnect to
    /// the storage tier (DESIGN.md §2.9): set from the run topology's
    /// widest link class, zero for flat / directly-attached storage —
    /// which keeps every legacy price bit-for-bit.
    drain_latency: SimDuration,
    /// Extra picoseconds per byte on the same drain path.
    drain_ps_per_byte: u64,
}

/// Priced breakdown of one ledger batch: how long it waited for the
/// shared pipe and how long the pipe then served it. Telemetry renders
/// the two as separate spans on the storage-pipe track, so a saturated
/// pipe is visible as queueing rather than mysteriously slow transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageBatch {
    /// Residual time of transfers already underway (0 when the pipe is
    /// idle at admission).
    pub queued: SimDuration,
    /// Setup latency + transfer at full aggregate bandwidth.
    pub service: SimDuration,
}

impl StorageBatch {
    /// The duration each member of the batch is charged.
    pub fn total(&self) -> SimDuration {
        self.queued + self.service
    }
}

impl StorageLedger {
    pub fn new(cfg: StableStorage) -> Self {
        StorageLedger {
            cfg,
            write_busy_until: SimTime::ZERO,
            read_busy_until: SimTime::ZERO,
            drain_latency: SimDuration::ZERO,
            drain_ps_per_byte: 0,
        }
    }

    /// Route this ledger's batches through an interconnect drain path:
    /// every batch pays `latency` extra setup and `ps_per_byte` extra
    /// serialization, and the drain occupies the shared pipe (so
    /// coordinated checkpointing's full-width burst and HydEE's
    /// staggered writes contend over the drain links too). The values
    /// come from [`crate::topology::Topology::drain_surcharge`]; the
    /// `(ZERO, 0)` flat surcharge leaves pricing bit-for-bit.
    pub fn with_drain_surcharge(mut self, latency: SimDuration, ps_per_byte: u64) -> Self {
        self.drain_latency = latency;
        self.drain_ps_per_byte = ps_per_byte;
        self
    }

    /// Route this ledger's batches through `topology`'s drain path: its
    /// [`Topology::drain_surcharge`], which is a no-op on a flat
    /// topology.
    pub fn draining_through(self, topology: &Topology) -> Self {
        let (latency, ps_per_byte) = topology.drain_surcharge();
        self.with_drain_surcharge(latency, ps_per_byte)
    }

    /// The active drain surcharge `(per-batch latency, ps per byte)`.
    pub fn drain_surcharge(&self) -> (SimDuration, u64) {
        (self.drain_latency, self.drain_ps_per_byte)
    }

    /// The underlying closed-form cost model (for estimates).
    pub fn storage(&self) -> &StableStorage {
        &self.cfg
    }

    fn batch(
        busy_until: &mut SimTime,
        now: SimTime,
        latency: SimDuration,
        ps: u64,
    ) -> StorageBatch {
        let queue = busy_until.since(now); // saturates to ZERO when idle
        let transfer = SimDuration::from_ps(ps);
        *busy_until = now + queue + transfer;
        StorageBatch {
            queued: queue,
            service: latency + transfer,
        }
    }

    /// Price a coordinated write batch of `total_bytes` starting at
    /// `now`. Returns the duration each member of the batch is charged
    /// (members complete together).
    pub fn write(&mut self, now: SimTime, total_bytes: u64) -> SimDuration {
        self.write_batch(now, total_bytes).total()
    }

    /// [`StorageLedger::write`] with the queue/service breakdown.
    pub fn write_batch(&mut self, now: SimTime, total_bytes: u64) -> StorageBatch {
        let ps = transfer_ps(total_bytes, self.cfg.write_bytes_per_us, 1)
            .saturating_add(total_bytes.saturating_mul(self.drain_ps_per_byte));
        Self::batch(
            &mut self.write_busy_until,
            now,
            self.cfg.latency + self.drain_latency,
            ps,
        )
    }

    /// Price a coordinated read batch of `total_bytes` starting at `now`
    /// (restart: a rolled-back set of processes loads its checkpoints).
    pub fn read(&mut self, now: SimTime, total_bytes: u64) -> SimDuration {
        self.read_batch(now, total_bytes).total()
    }

    /// [`StorageLedger::read`] with the queue/service breakdown.
    pub fn read_batch(&mut self, now: SimTime, total_bytes: u64) -> StorageBatch {
        let ps = transfer_ps(total_bytes, self.cfg.read_bytes_per_us, 1)
            .saturating_add(total_bytes.saturating_mul(self.drain_ps_per_byte));
        Self::batch(
            &mut self.read_busy_until,
            now,
            self.cfg.latency + self.drain_latency,
            ps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_scales_with_contention() {
        let s = StableStorage::default();
        let alone = s.write_time(1 << 30, 1);
        let crowd = s.write_time(1 << 30, 8);
        // 8 concurrent writers each see ~1/8 bandwidth.
        let a = (alone - s.latency).as_ps();
        let c = (crowd - s.latency).as_ps();
        assert_eq!(c, a * 8);
    }

    #[test]
    fn read_faster_than_write() {
        let s = StableStorage::default();
        assert!(s.read_time(1 << 30, 1) < s.write_time(1 << 30, 1));
    }

    #[test]
    fn zero_writers_treated_as_one() {
        let s = StableStorage::default();
        assert_eq!(s.write_time(4096, 0), s.write_time(4096, 1));
    }

    #[test]
    fn io_burst_motivation() {
        // The paper's §VI argument: all clusters checkpointing at once (the
        // coordinated-checkpointing burst) is much slower per-cluster than
        // staggered cluster checkpoints.
        let s = StableStorage::default();
        let staggered = s.write_time(8 << 30, 1);
        let burst = s.write_time(8 << 30, 16);
        assert!(burst.as_ps() > 10 * staggered.as_ps());
    }

    #[test]
    fn large_image_times_many_writers_saturates_instead_of_wrapping() {
        // Regression: 16 GiB × 4096 writers. The old u64
        // `bytes * 1e6 / bw * writers` path wrapped (debug: panicked)
        // once the product crossed 2^64; the u128 path is exact until the
        // result itself exceeds u64 picoseconds, then saturates.
        let s = StableStorage::default();
        let t = s.write_time(16 << 30, 4096);
        let want = (16u128 << 30) * 1_000_000 * 4096 / 1_000;
        assert_eq!(t.as_ps() as u128, want + s.latency.as_ps() as u128);
        // Push past u64 picoseconds entirely: saturate, don't wrap.
        let huge = s.write_time(u64::MAX, u64::MAX);
        assert_eq!(huge.as_ps(), u64::MAX);
    }

    #[test]
    fn multiply_before_divide_does_not_truncate() {
        // bw = 3 B/us does not divide 7 MB * 1e6 evenly; the old
        // divide-first order lost up to `writers - 1` quanta.
        let s = StableStorage {
            latency: SimDuration::ZERO,
            write_bytes_per_us: 3,
            read_bytes_per_us: 3,
        };
        let t = s.write_time(7, 9);
        assert_eq!(t.as_ps(), 7 * 1_000_000 * 9 / 3);
    }

    #[test]
    fn ledger_idle_batch_costs_like_the_static_model() {
        let s = StableStorage::default();
        let mut ledger = StorageLedger::new(s);
        // A lone batch of n writers sharing the aggregate == the old
        // per-writer price with the static divisor.
        let total = 8u64 << 20;
        let n = 16u64;
        let got = ledger.write(SimTime::from_ms(1), total);
        assert_eq!(got, s.write_time(total / n, n));
    }

    #[test]
    fn ledger_overlapping_batches_queue() {
        let s = StableStorage::default();
        let mut ledger = StorageLedger::new(s);
        let now = SimTime::from_ms(10);
        let first = ledger.write(now, 1 << 20);
        let second = ledger.write(now, 1 << 20);
        // The second batch pays the first's full residual transfer.
        assert_eq!(
            second.as_ps() - first.as_ps(),
            (first - s.latency).as_ps(),
            "second batch queues behind the first"
        );
        // A batch arriving after the pipe drains is unaffected.
        let later = now + SimDuration::from_secs(10);
        assert_eq!(ledger.write(later, 1 << 20), first);
    }

    #[test]
    fn ledger_partial_overlap_pays_the_residual() {
        let s = StableStorage {
            latency: SimDuration::ZERO,
            write_bytes_per_us: 1_000,
            read_bytes_per_us: 2_000,
        };
        let mut ledger = StorageLedger::new(s);
        let t0 = SimTime::from_us(0);
        let first = ledger.write(t0, 1_000_000); // busy for 1000 us
        assert_eq!(first, SimDuration::from_us(1000));
        // Arrives 600 us in: 400 us of residual queueing.
        let second = ledger.write(SimTime::from_us(600), 1_000_000);
        assert_eq!(second, SimDuration::from_us(400 + 1000));
    }

    #[test]
    fn batch_breakdown_sums_to_the_charged_duration() {
        let s = StableStorage::default();
        let mut a = StorageLedger::new(s);
        let mut b = StorageLedger::new(s);
        let now = SimTime::from_ms(1);
        for bytes in [1u64 << 20, 1 << 20, 4 << 20] {
            let batch = a.write_batch(now, bytes);
            assert_eq!(batch.total(), b.write(now, bytes), "write equivalence");
            let batch = a.read_batch(now, bytes);
            assert_eq!(batch.total(), b.read(now, bytes), "read equivalence");
        }
        // The second overlapping batch's wait shows up as `queued`.
        let mut l = StorageLedger::new(s);
        let first = l.write_batch(now, 1 << 20);
        assert_eq!(first.queued, SimDuration::ZERO);
        let second = l.write_batch(now, 1 << 20);
        assert_eq!(second.queued, first.service - s.latency);
    }

    #[test]
    fn zero_drain_surcharge_is_bit_for_bit_free() {
        let s = StableStorage::default();
        let now = SimTime::from_ms(3);
        let mut plain = StorageLedger::new(s);
        let mut drained = StorageLedger::new(s).with_drain_surcharge(SimDuration::ZERO, 0);
        for bytes in [0u64, 1 << 10, 8 << 20, 1 << 30] {
            assert_eq!(
                plain.write_batch(now, bytes),
                drained.write_batch(now, bytes)
            );
            assert_eq!(plain.read_batch(now, bytes), drained.read_batch(now, bytes));
        }
    }

    #[test]
    fn drain_surcharge_extends_service_and_occupies_the_pipe() {
        let s = StableStorage::default();
        let now = SimTime::from_ms(3);
        let lat = SimDuration::from_us(7);
        let per_byte = 5u64; // 5 ps/B
        let bytes = 1u64 << 20;
        let mut plain = StorageLedger::new(s);
        let mut drained = StorageLedger::new(s).with_drain_surcharge(lat, per_byte);
        let p = plain.write_batch(now, bytes);
        let d = drained.write_batch(now, bytes);
        assert_eq!(
            d.service.as_ps(),
            p.service.as_ps() + lat.as_ps() + bytes * per_byte
        );
        // The drain bytes hold the shared pipe: the next same-instant
        // batch queues behind transfer + drain, not transfer alone.
        let p2 = plain.write_batch(now, bytes);
        let d2 = drained.write_batch(now, bytes);
        assert_eq!(d2.queued.as_ps(), p2.queued.as_ps() + bytes * per_byte);
    }

    #[test]
    fn ledger_directions_are_independent_pipes() {
        let s = StableStorage::default();
        let mut ledger = StorageLedger::new(s);
        let now = SimTime::from_ms(1);
        let w = ledger.write(now, 1 << 20);
        // A read at the same instant sees an idle read pipe.
        assert_eq!(ledger.read(now, 1 << 20), s.read_time(1 << 20, 1));
        assert_eq!(
            ledger.write(now, 1 << 20).as_ps(),
            w.as_ps() * 2 - s.latency.as_ps()
        );
    }
}
