//! # telemetry — virtual-time observability for the simulation engine
//!
//! The engine's end-of-run [`Metrics`](../mps_sim/struct.Metrics.html) are
//! scalars; the paper's §V–§VI claims are *time decompositions* — how a
//! run's makespan splits into compute, logging, checkpoint I/O, rollback
//! and replay per containment domain. This crate provides the layer that
//! captures those timelines without perturbing the simulation:
//!
//! * [`Recorder`] — an object-safe observer trait with no-op defaults.
//!   The engine holds `Option<Box<dyn Recorder>>`; when `None` (the
//!   default) the hot path pays exactly one branch. Recorders receive
//!   **virtual-time** spans and samples; they must never feed anything
//!   back into the engine (see DESIGN.md §2.5).
//! * [`SpanRecorder`] — buffers spans per (cluster, track) and exports
//!   Chrome trace-event JSON loadable in Perfetto (`chrome://tracing`),
//!   with one track per cluster plus storage-pipe and failure-injection
//!   tracks.
//! * [`Sampler`] — periodic virtual-time samples (logged bytes, in-flight
//!   messages, queue depth, cumulative waste) as JSONL time series.
//! * [`Fanout`] — composes several recorders behind one `Box`.
//!
//! IDs are plain integers (`u32` rank/cluster) so this crate sits *below*
//! the engine in the dependency graph and both the engine and the
//! protocols can emit events without a cycle.

pub mod json;
pub mod sampler;
pub mod span;

pub use sampler::{SampleHandle, SampleRow, Sampler};
pub use span::{validate_chrome_trace, SpanHandle, SpanRecorder, TraceEvent, TraceStats};

use det_sim::{SimDuration, SimTime};

/// Engine gauges passed to [`Recorder::on_tick`]: a snapshot of the
/// counters a time-series recorder might sample. Building one is a few
/// integer loads; the engine only does it when a recorder is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Events processed so far.
    pub events: u64,
    /// Live events in the scheduler queue.
    pub queue_depth: usize,
    /// Messages (app + ctl) currently in flight on the network.
    pub inflight_msgs: usize,
    /// Bytes currently held in sender-side logs.
    pub logged_bytes: u64,
    /// Application messages delivered so far.
    pub deliveries: u64,
    /// Cumulative checkpoint overhead, picoseconds.
    pub checkpoint_time_ps: u64,
    /// Cumulative compute discarded by rollbacks, picoseconds.
    pub lost_work_ps: u64,
}

/// Phases of one cluster's recovery choreography, in order. `Detect` and
/// `Complete` are instants (`begin == end`); `Rollback` and `Replay` are
/// spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPhase {
    /// Failure observed (instant, at the injection time).
    Detect,
    /// Checkpoint restore: restart latency + storage read.
    Rollback,
    /// Log replay until the cluster rejoins the frontier.
    Replay,
    /// Recovery finished for this cluster (instant).
    Complete,
}

impl RecoveryPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryPhase::Detect => "detect",
            RecoveryPhase::Rollback => "rollback",
            RecoveryPhase::Replay => "replay",
            RecoveryPhase::Complete => "complete",
        }
    }
}

/// Direction of a stable-storage batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageDir {
    Write,
    Read,
}

impl StorageDir {
    pub fn as_str(self) -> &'static str {
        match self {
            StorageDir::Write => "write",
            StorageDir::Read => "read",
        }
    }
}

/// Observer of one simulation run. Every method has a no-op default, so
/// a recorder implements only what it consumes; all times are **virtual**
/// (the engine's picosecond clock), never wall clock.
///
/// Determinism contract (DESIGN.md §2.5): recorders observe, they never
/// influence. The engine calls them *after* state transitions and ignores
/// anything they do; a run with any recorder attached must produce
/// bit-for-bit the digests, metrics and makespan of a run with none
/// (locked in by `tests/recorder_neutrality.rs`).
pub trait Recorder: Send {
    /// One engine event processed at `now`. This is the per-event hook —
    /// the only one on the hot path — so implementations should be O(1).
    fn on_tick(&mut self, _now: SimTime, _gauges: &Gauges) {}

    /// Application message transmitted (`replayed` for log replays).
    fn on_send(&mut self, _now: SimTime, _src: u32, _dst: u32, _bytes: u64, _replayed: bool) {}

    /// Fail-stop failure of `ranks` injected at `now`.
    fn on_failure(&mut self, _now: SimTime, _ranks: &[u32]) {}

    /// Cluster checkpoint: coordination + storage write spanning
    /// `[begin, end]`, writing `bytes` to stable storage.
    fn on_checkpoint(&mut self, _cluster: u32, _begin: SimTime, _end: SimTime, _bytes: u64) {}

    /// Recovery phase transition for one cluster (see [`RecoveryPhase`]).
    fn on_recovery_phase(
        &mut self,
        _cluster: u32,
        _phase: RecoveryPhase,
        _begin: SimTime,
        _end: SimTime,
    ) {
    }

    /// Stable-storage batch accepted at `begin`: `queued` waiting for the
    /// pipe, then `service` (latency + transfer) moving `bytes`.
    fn on_storage(
        &mut self,
        _dir: StorageDir,
        _begin: SimTime,
        _queued: SimDuration,
        _service: SimDuration,
        _bytes: u64,
    ) {
    }

    /// Run finished (completed, deadlocked or event-limited) with the
    /// final `makespan` and gauges.
    fn on_run_end(&mut self, _makespan: SimTime, _gauges: &Gauges) {}
}

/// A recorder that does nothing. Useful to measure the cost of the
/// instrumentation points themselves (the perf-baseline overhead gate
/// attaches one so every dyn-dispatch site fires).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Broadcast every event to several recorders (e.g. a [`SpanRecorder`]
/// and a [`Sampler`] on the same run).
#[derive(Default)]
pub struct Fanout {
    recorders: Vec<Box<dyn Recorder>>,
}

impl Fanout {
    pub fn new() -> Self {
        Fanout::default()
    }

    pub fn push(mut self, r: Box<dyn Recorder>) -> Self {
        self.recorders.push(r);
        self
    }
}

impl Recorder for Fanout {
    fn on_tick(&mut self, now: SimTime, gauges: &Gauges) {
        for r in &mut self.recorders {
            r.on_tick(now, gauges);
        }
    }

    fn on_send(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64, replayed: bool) {
        for r in &mut self.recorders {
            r.on_send(now, src, dst, bytes, replayed);
        }
    }

    fn on_failure(&mut self, now: SimTime, ranks: &[u32]) {
        for r in &mut self.recorders {
            r.on_failure(now, ranks);
        }
    }

    fn on_checkpoint(&mut self, cluster: u32, begin: SimTime, end: SimTime, bytes: u64) {
        for r in &mut self.recorders {
            r.on_checkpoint(cluster, begin, end, bytes);
        }
    }

    fn on_recovery_phase(
        &mut self,
        cluster: u32,
        phase: RecoveryPhase,
        begin: SimTime,
        end: SimTime,
    ) {
        for r in &mut self.recorders {
            r.on_recovery_phase(cluster, phase, begin, end);
        }
    }

    fn on_storage(
        &mut self,
        dir: StorageDir,
        begin: SimTime,
        queued: SimDuration,
        service: SimDuration,
        bytes: u64,
    ) {
        for r in &mut self.recorders {
            r.on_storage(dir, begin, queued, service, bytes);
        }
    }

    fn on_run_end(&mut self, makespan: SimTime, gauges: &Gauges) {
        for r in &mut self.recorders {
            r.on_run_end(makespan, gauges);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_is_object_safe_with_noop_defaults() {
        struct CountTicks(u64);
        impl Recorder for CountTicks {
            fn on_tick(&mut self, _now: SimTime, _g: &Gauges) {
                self.0 += 1;
            }
        }
        let mut boxed: Box<dyn Recorder> = Box::new(CountTicks(0));
        boxed.on_tick(SimTime::ZERO, &Gauges::default());
        boxed.on_send(SimTime::ZERO, 0, 1, 8, false); // default: no-op
        let mut noop: Box<dyn Recorder> = Box::new(NoopRecorder);
        noop.on_run_end(SimTime::from_ms(1), &Gauges::default());
    }

    #[test]
    fn fanout_broadcasts() {
        struct Tally {
            ticks: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl Recorder for Tally {
            fn on_tick(&mut self, _now: SimTime, _g: &Gauges) {
                self.ticks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let a = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut f = Fanout::new()
            .push(Box::new(Tally { ticks: a.clone() }))
            .push(Box::new(Tally { ticks: a.clone() }));
        f.on_tick(SimTime::ZERO, &Gauges::default());
        assert_eq!(a.load(std::sync::atomic::Ordering::Relaxed), 2);
    }
}
