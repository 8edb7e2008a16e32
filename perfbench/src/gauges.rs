//! [`GaugeRecorder`]: a counting `telemetry::Recorder` for the traced run.
//!
//! It keeps the peaks of the engine gauges the engine hands every
//! recorder once per event, and optionally the `(src, dst, bytes)` of
//! every application send so the network layer can be replayed later.
//! Totals accumulate locally and are published to the shared handle once,
//! at `on_run_end`, so the recorder adds no lock to the per-event path.
//! In a sharded run `par_sim` serialises all shards onto this one recorder
//! behind its own mutex, and the peaks are those of the largest shard.

use mps_sim::prelude::SimTime;
use mps_sim::{Gauges, Recorder};
use std::sync::{Arc, Mutex};

/// What one traced run recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeTotals {
    /// Engine events seen through `on_tick`.
    pub ticks: u64,
    pub peak_queue_depth: usize,
    pub peak_inflight_msgs: usize,
    /// Application sends as `(src, dst, payload bytes)`, in recorder order
    /// (empty unless requested).
    pub sends: Vec<(u32, u32, u64)>,
}

/// Shared handle the caller keeps to read the totals after the run.
pub type GaugeHandle = Arc<Mutex<GaugeTotals>>;

pub struct GaugeRecorder {
    local: GaugeTotals,
    record_sends: bool,
    out: GaugeHandle,
}

impl GaugeRecorder {
    pub fn new(record_sends: bool) -> (Self, GaugeHandle) {
        let out = GaugeHandle::default();
        let rec = GaugeRecorder {
            local: GaugeTotals::default(),
            record_sends,
            out: out.clone(),
        };
        (rec, out)
    }
}

impl Recorder for GaugeRecorder {
    fn on_tick(&mut self, _now: SimTime, g: &Gauges) {
        self.local.ticks += 1;
        self.local.peak_queue_depth = self.local.peak_queue_depth.max(g.queue_depth);
        self.local.peak_inflight_msgs = self.local.peak_inflight_msgs.max(g.inflight_msgs);
    }

    fn on_send(&mut self, _now: SimTime, src: u32, dst: u32, bytes: u64, _replayed: bool) {
        if self.record_sends {
            self.local.sends.push((src, dst, bytes));
        }
    }

    fn on_run_end(&mut self, _makespan: SimTime, _g: &Gauges) {
        *self
            .out
            .lock()
            .expect("gauge handle poisoned by a panicked run") = std::mem::take(&mut self.local);
    }
}
