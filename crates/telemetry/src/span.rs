//! Virtual-time span buffering and Chrome trace-event export.
//!
//! [`SpanRecorder`] buffers protocol-level spans (checkpoints, recovery
//! phases, storage batches, failure instants) per track and exports the
//! Chrome trace-event JSON array format, which Perfetto and
//! `chrome://tracing` load directly. Tracks map to `tid`s under one
//! `pid`: one track per cluster, plus a storage-pipe track and a
//! failure-injection track; `ph:"M"` metadata events carry the human
//! names.
//!
//! Timestamps: the trace-event format wants microseconds; the engine
//! counts picoseconds. Values are emitted as fractional microseconds with
//! six decimals, so single-picosecond resolution survives the export.

use crate::json::Value;
use crate::{Recorder, RecoveryPhase, StorageDir};
use det_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// `tid` of the stable-storage pipe track.
pub const STORAGE_TID: u64 = 9998;
/// `tid` of the failure-injection track.
pub const FAILURES_TID: u64 = 9999;

/// One buffered trace event (span or instant) on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: String,
    /// Trace-event phase: `X` (complete span) or `i` (instant).
    pub ph: char,
    pub ts_ps: u64,
    /// Span duration (0 for instants).
    pub dur_ps: u64,
    pub tid: u64,
    /// Numeric arguments, rendered into the `args` object.
    pub args: Vec<(&'static str, u64)>,
}

/// Shared buffer handle: the engine owns the boxed [`SpanRecorder`], the
/// caller keeps the handle and exports after the run.
#[derive(Clone, Default)]
pub struct SpanHandle {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl SpanHandle {
    /// Snapshot of the buffered events (test/inspection use).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Render the buffer as a Chrome trace-event JSON array.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock().unwrap();
        let mut out = String::with_capacity(events.len() * 96 + 256);
        out.push('[');
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&s);
            *first = false;
        };
        push(
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"hydee-sim (virtual time)"}}"#.to_string(),
            &mut first,
        );
        let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        for tid in &tids {
            push(
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"{}"}}}}"#,
                    track_name(*tid)
                ),
                &mut first,
            );
        }
        for e in events.iter() {
            let mut args = String::new();
            for (k, v) in &e.args {
                if !args.is_empty() {
                    args.push(',');
                }
                args.push_str(&format!(r#""{k}":{v}"#));
            }
            let mut name = String::new();
            serde::write_json_str(&e.name, &mut name);
            let body = match e.ph {
                'X' => format!(
                    r#"{{"name":{name},"cat":"sim","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{{args}}}}}"#,
                    ps_to_us(e.ts_ps),
                    ps_to_us(e.dur_ps),
                    e.tid
                ),
                _ => format!(
                    r#"{{"name":{name},"cat":"sim","ph":"i","s":"t","ts":{},"pid":1,"tid":{},"args":{{{args}}}}}"#,
                    ps_to_us(e.ts_ps),
                    e.tid
                ),
            };
            push(body, &mut first);
        }
        out.push_str("\n]\n");
        out
    }
}

/// Fixed-point picoseconds → fractional microseconds with 6 decimals
/// (exact: 1 ps == 1e-6 µs), avoiding float formatting entirely.
fn ps_to_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

fn track_name(tid: u64) -> String {
    match tid {
        STORAGE_TID => "storage pipe".into(),
        FAILURES_TID => "failures".into(),
        t => format!("cluster {}", t - 1),
    }
}

/// Buffers spans per (cluster, track) for Perfetto export. Ignores the
/// per-event hooks (`on_tick`/`on_send`) — those belong to
/// the [`Sampler`](crate::Sampler); this recorder captures the sparse,
/// structural timeline the paper's figures draw.
#[derive(Default)]
pub struct SpanRecorder {
    handle: SpanHandle,
}

impl SpanRecorder {
    /// Create the recorder plus the export handle the caller keeps.
    pub fn new() -> (Self, SpanHandle) {
        let rec = SpanRecorder::default();
        let handle = rec.handle.clone();
        (rec, handle)
    }

    fn push(&mut self, e: TraceEvent) {
        self.handle.events.lock().unwrap().push(e);
    }
}

/// Cluster `c` renders on `tid = c + 1` (tid 0 carries process metadata).
fn cluster_tid(cluster: u32) -> u64 {
    cluster as u64 + 1
}

impl Recorder for SpanRecorder {
    fn on_failure(&mut self, now: SimTime, ranks: &[u32]) {
        let label = ranks
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.push(TraceEvent {
            name: format!("failure P{label}"),
            ph: 'i',
            ts_ps: now.as_ps(),
            dur_ps: 0,
            tid: FAILURES_TID,
            args: vec![("ranks", ranks.len() as u64)],
        });
    }

    fn on_checkpoint(&mut self, cluster: u32, begin: SimTime, end: SimTime, bytes: u64) {
        self.push(TraceEvent {
            name: "checkpoint".into(),
            ph: 'X',
            ts_ps: begin.as_ps(),
            dur_ps: end.since(begin).as_ps(),
            tid: cluster_tid(cluster),
            args: vec![("bytes", bytes)],
        });
    }

    fn on_recovery_phase(
        &mut self,
        cluster: u32,
        phase: RecoveryPhase,
        begin: SimTime,
        end: SimTime,
    ) {
        let instant = matches!(phase, RecoveryPhase::Detect | RecoveryPhase::Complete);
        self.push(TraceEvent {
            name: phase.as_str().into(),
            ph: if instant { 'i' } else { 'X' },
            ts_ps: begin.as_ps(),
            dur_ps: end.since(begin).as_ps(),
            tid: cluster_tid(cluster),
            args: vec![],
        });
    }

    fn on_storage(
        &mut self,
        dir: StorageDir,
        begin: SimTime,
        queued: SimDuration,
        service: SimDuration,
        bytes: u64,
    ) {
        // Queueing renders as its own span so a saturated pipe is visible
        // as back-to-back "queued" blocks ahead of the service span.
        if queued > SimDuration::ZERO {
            self.push(TraceEvent {
                name: format!("{} queued", dir.as_str()),
                ph: 'X',
                ts_ps: begin.as_ps(),
                dur_ps: queued.as_ps(),
                tid: STORAGE_TID,
                args: vec![("bytes", bytes)],
            });
        }
        self.push(TraceEvent {
            name: dir.as_str().into(),
            ph: 'X',
            ts_ps: (begin + queued).as_ps(),
            dur_ps: service.as_ps(),
            tid: STORAGE_TID,
            args: vec![("bytes", bytes)],
        });
    }
}

/// Summary counts returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    pub spans: usize,
    pub instants: usize,
    pub metadata: usize,
    pub tracks: usize,
}

/// Validate `text` against the trace-event schema subset this crate
/// emits: a JSON array of objects, each with a string `name`, a `ph` of
/// `M`/`X`/`i`, numeric `pid`/`tid`, numeric `ts` (and `dur` for `X`).
/// Used by unit tests and by the CI trace-smoke job through the
/// `recovery` binary.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let value = Value::parse(text)?;
    let events = value.as_array().ok_or("top level is not an array")?;
    let mut stats = TraceStats::default();
    let mut tracks = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        ev.as_object().ok_or(format!("event {i}: not an object"))?;
        let field = |k: &str| ev.get(k).ok_or(format!("event {i}: missing \"{k}\""));
        // A number token, not `null` (which `Value::as_f64` reads as NaN).
        let number = |k: &str| match field(k)? {
            Value::Number(raw) => Ok(raw.parse::<f64>().unwrap_or(f64::NAN)),
            _ => Err(format!("event {i}: \"{k}\" is not a number")),
        };
        field("name")?
            .as_str()
            .ok_or(format!("event {i}: \"name\" is not a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or(format!("event {i}: \"ph\" is not a string"))?;
        number("pid")?;
        let tid = number("tid")?;
        match ph {
            "M" => stats.metadata += 1,
            "X" => {
                number("ts")?;
                number("dur")?;
                tracks.insert(tid.to_bits());
                stats.spans += 1;
            }
            "i" => {
                number("ts")?;
                tracks.insert(tid.to_bits());
                stats.instants += 1;
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    stats.tracks = tracks.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn spans_export_and_validate() {
        let (mut rec, handle) = SpanRecorder::new();
        rec.on_checkpoint(0, t(1), t(2), 4096);
        rec.on_failure(t(3), &[5, 6]);
        rec.on_recovery_phase(1, RecoveryPhase::Detect, t(3), t(3));
        rec.on_recovery_phase(1, RecoveryPhase::Rollback, t(3), t(5));
        rec.on_recovery_phase(1, RecoveryPhase::Replay, t(5), t(8));
        rec.on_recovery_phase(1, RecoveryPhase::Complete, t(8), t(8));
        rec.on_storage(
            StorageDir::Write,
            t(1),
            SimDuration::from_ms(1),
            SimDuration::from_ms(2),
            4096,
        );
        let json = handle.to_chrome_json();
        let stats = validate_chrome_trace(&json).expect("valid trace");
        // checkpoint + rollback + replay + write-queued + write spans.
        assert_eq!(stats.spans, 5);
        // failure + detect + complete instants.
        assert_eq!(stats.instants, 3);
        // process_name + one thread_name per used tid (cluster 0, cluster
        // 1, storage, failures).
        assert_eq!(stats.metadata, 1 + 4);
        assert_eq!(stats.tracks, 4);
        assert!(json.contains(r#""name":"rollback""#), "{json}");
        assert!(json.contains(r#""name":"cluster 1""#), "{json}");
    }

    #[test]
    fn timestamps_are_exact_fractional_microseconds() {
        assert_eq!(ps_to_us(1), "0.000001");
        assert_eq!(ps_to_us(1_000_000), "1.000000");
        assert_eq!(ps_to_us(1_234_567), "1.234567");
        // ~3 simulated hours stays exact (u64 arithmetic, no floats).
        assert_eq!(ps_to_us(10_800_000_000_000_000), "10800000000.000000");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[").is_err());
        assert!(validate_chrome_trace(r#"[{"ph":"X"}]"#).is_err());
        assert!(
            validate_chrome_trace(r#"[{"name":"a","ph":"X","pid":1,"tid":1,"ts":0}]"#).is_err(),
            "X span without dur must fail"
        );
        assert!(
            validate_chrome_trace(r#"[{"name":"a","ph":"i","pid":null,"tid":1,"ts":0}]"#).is_err(),
            "null pid must fail"
        );
        assert!(
            validate_chrome_trace(r#"[{"name":"a","ph":"i","pid":1,"tid":1,"ts":"1"}]"#).is_err(),
            "string ts must fail"
        );
        assert!(
            validate_chrome_trace(r#"[{"name":"a","ph":"i","pid":1,"tid":1,"ts":0.5}]"#).is_ok()
        );
    }

    #[test]
    fn names_are_json_escaped() {
        let (mut rec, handle) = SpanRecorder::new();
        rec.push(TraceEvent {
            name: "a\"b\\c".into(),
            ph: 'i',
            ts_ps: 0,
            dur_ps: 0,
            tid: FAILURES_TID,
            args: vec![],
        });
        let json = handle.to_chrome_json();
        validate_chrome_trace(&json).expect("escaped name still parses");
    }
}
