//! Periodic virtual-time sampling to JSONL time series.
//!
//! A [`Sampler`] turns the engine's per-event [`Gauges`] into a
//! fixed-interval time series: one row per elapsed interval of *virtual*
//! time, sample-and-hold semantics (the row reports the most recent
//! gauges at or before its boundary). Rows serialize as JSON Lines so
//! plotting scripts can stream them without loading the whole run.

use crate::{Gauges, Recorder};
use det_sim::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// One sample row. All divisions behind the derived fields are guarded:
/// no NaN or infinity can reach the serialized artefact (ISSUE 6
/// satellite; `tests` lock it in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRow {
    /// Sample boundary, integer picoseconds (exact).
    pub t_ps: u64,
    /// Sample boundary in seconds (for plotting).
    pub t_s: f64,
    pub events: u64,
    pub queue_depth: usize,
    pub inflight_msgs: usize,
    pub logged_bytes: u64,
    pub deliveries: u64,
    /// Cumulative fault-tolerance waste (checkpoint overhead + lost
    /// work), seconds.
    pub cum_waste_s: f64,
    /// Events processed per *virtual* second since the previous row
    /// (0 for the first row or a degenerate zero-length interval).
    pub events_per_vs: f64,
}

impl SampleRow {
    fn from_gauges(t: SimTime, g: &Gauges, prev_events: u64, interval: SimDuration) -> Self {
        let interval_s = interval.as_secs_f64();
        let delta = g.events.saturating_sub(prev_events);
        // Guard: a zero/degenerate interval yields rate 0, never inf/NaN.
        let events_per_vs = if interval_s > 0.0 && delta > 0 {
            delta as f64 / interval_s
        } else {
            0.0
        };
        SampleRow {
            t_ps: t.as_ps(),
            t_s: t.as_secs_f64(),
            events: g.events,
            queue_depth: g.queue_depth,
            inflight_msgs: g.inflight_msgs,
            logged_bytes: g.logged_bytes,
            deliveries: g.deliveries,
            cum_waste_s: SimDuration::from_ps(g.checkpoint_time_ps + g.lost_work_ps).as_secs_f64(),
            events_per_vs,
        }
    }

    /// Render as one JSON object (numbers only — nothing to escape).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"t_ps\":{},\"t_s\":{:.9},\"events\":{},\"queue_depth\":{},",
                "\"inflight_msgs\":{},\"logged_bytes\":{},\"deliveries\":{},",
                "\"cum_waste_s\":{:.9},\"events_per_vs\":{:.3}}}"
            ),
            self.t_ps,
            self.t_s,
            self.events,
            self.queue_depth,
            self.inflight_msgs,
            self.logged_bytes,
            self.deliveries,
            self.cum_waste_s,
            self.events_per_vs,
        )
    }
}

/// Shared row-buffer handle; the caller keeps it and exports after the
/// run (the engine owns the boxed [`Sampler`]).
#[derive(Clone, Default)]
pub struct SampleHandle {
    rows: Arc<Mutex<Vec<SampleRow>>>,
}

impl SampleHandle {
    pub fn rows(&self) -> Vec<SampleRow> {
        self.rows.lock().unwrap().clone()
    }

    /// Render all rows as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let rows = self.rows.lock().unwrap();
        let mut out = String::with_capacity(rows.len() * 128);
        for r in rows.iter() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

/// Emits one [`SampleRow`] per `interval` of virtual time, plus a final
/// row at the makespan.
pub struct Sampler {
    interval: SimDuration,
    next: SimTime,
    prev_events: u64,
    last_emitted: Option<SimTime>,
    handle: SampleHandle,
}

impl Sampler {
    /// `interval` is clamped to at least 1 ps: a zero interval would
    /// otherwise loop forever on the first tick (satellite guard).
    pub fn new(interval: SimDuration) -> (Self, SampleHandle) {
        let interval = interval.max(SimDuration::from_ps(1));
        let handle = SampleHandle::default();
        (
            Sampler {
                interval,
                next: SimTime::ZERO + interval,
                prev_events: 0,
                last_emitted: None,
                handle: handle.clone(),
            },
            handle,
        )
    }

    fn emit(&mut self, t: SimTime, g: &Gauges) {
        let row = SampleRow::from_gauges(t, g, self.prev_events, self.interval);
        self.handle.rows.lock().unwrap().push(row);
        self.prev_events = g.events;
        self.last_emitted = Some(t);
    }
}

impl Recorder for Sampler {
    fn on_tick(&mut self, now: SimTime, gauges: &Gauges) {
        while self.next <= now {
            let t = self.next;
            self.emit(t, gauges);
            self.next = t + self.interval;
        }
    }

    fn on_run_end(&mut self, makespan: SimTime, gauges: &Gauges) {
        if self.last_emitted != Some(makespan) {
            self.emit(makespan, gauges);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn g(events: u64, logged: u64) -> Gauges {
        Gauges {
            events,
            logged_bytes: logged,
            ..Gauges::default()
        }
    }

    #[test]
    fn samples_on_interval_boundaries() {
        let (mut s, h) = Sampler::new(SimDuration::from_ms(1));
        s.on_tick(SimTime::from_us(500), &g(10, 0));
        assert!(h.rows().is_empty(), "before first boundary");
        s.on_tick(SimTime::from_us(2500), &g(30, 64));
        let rows = h.rows();
        assert_eq!(rows.len(), 2, "boundaries at 1ms and 2ms crossed");
        assert_eq!(rows[0].t_ps, SimTime::from_ms(1).as_ps());
        assert_eq!(rows[1].t_ps, SimTime::from_ms(2).as_ps());
        assert_eq!(rows[0].events, 30, "sample-and-hold of latest gauges");
        s.on_run_end(SimTime::from_ms(3), &g(40, 64));
        assert_eq!(h.rows().len(), 3, "final row at makespan");
    }

    #[test]
    fn zero_interval_is_clamped_not_infinite() {
        let (mut s, h) = Sampler::new(SimDuration::ZERO);
        // With a 0 interval this loop would never terminate; the clamp to
        // 1 ps makes it emit exactly 5 rows.
        s.on_tick(SimTime::from_ps(5), &g(1, 0));
        assert_eq!(h.rows().len(), 5);
    }

    #[test]
    fn rates_and_waste_never_nan_or_inf() {
        let (mut s, h) = Sampler::new(SimDuration::from_ps(1));
        s.on_run_end(SimTime::ZERO, &Gauges::default()); // zero-makespan run
        s.on_tick(SimTime::from_ps(1), &g(0, 0));
        for r in h.rows() {
            for v in [r.t_s, r.cum_waste_s, r.events_per_vs] {
                assert!(v.is_finite(), "{r:?}");
            }
            // NaN/inf are not valid JSON number tokens, so a strict
            // parse rejects any leak.
            Value::parse(&r.to_json()).expect("row stays valid JSON");
        }
    }

    #[test]
    fn jsonl_rows_parse_as_json() {
        let (mut s, h) = Sampler::new(SimDuration::from_ms(1));
        s.on_tick(SimTime::from_ms(2), &g(100, 2048));
        s.on_run_end(SimTime::from_ms(2) + SimDuration::from_us(1), &g(120, 0));
        let jsonl = h.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let v = Value::parse(line).expect("row is valid JSON");
            assert!(v.get("t_ps").unwrap().as_u64().is_some());
            assert!(matches!(v.get("events_per_vs"), Some(Value::Number(_))));
        }
    }

    #[test]
    fn run_end_does_not_duplicate_boundary_row() {
        let (mut s, h) = Sampler::new(SimDuration::from_ms(1));
        s.on_tick(SimTime::from_ms(1), &g(5, 0));
        s.on_run_end(SimTime::from_ms(1), &g(5, 0));
        assert_eq!(h.rows().len(), 1);
    }
}
