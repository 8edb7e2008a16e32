//! Resident job orchestration: a priority queue of suite-file jobs.
//!
//! A *job* is one PR-7 suite file (the same text `sweep --suite` reads)
//! plus a priority and an optional cell cap. Jobs move through
//! `Queued → Running → {Done, Cancelled, Failed}` (DESIGN.md §2.7):
//! `Failed` means the suite did not parse or a cell panicked (the error
//! names the cell); `Cancelled` keeps the records of cells that
//! finished before the flag was seen. The worker drains the queue
//! highest-priority-first (FIFO within a priority) and runs each job's
//! cells across cores through the shared [`RunStore`] — so two jobs
//! racing on overlapping matrices never simulate a cell twice, and a
//! re-submitted suite is pure cache hits.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use rayon::prelude::*;
use scenario::{ProgressSink, ProgressSnapshot, RunCache, RunRecord, ScenarioSpec, Suite};
use serde::Serialize;

use crate::codec;
use crate::store::RunStore;

/// What a client submits: a suite, a priority, an optional cell cap.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human label (defaults to the suite's `name` on the client path).
    pub name: String,
    /// Full suite file text (PR 7 format).
    pub suite_text: String,
    /// Origin string for suite diagnostics (file name or `<tcp>`).
    pub origin: String,
    /// Higher runs first; FIFO within equal priorities.
    pub priority: i64,
    /// Truncate the expanded cell list (smoke runs). Cells are cached
    /// individually, so truncation can never poison the store.
    pub max_cells: Option<usize>,
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl JobState {
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// Point-in-time view of one job, serializable for the wire protocol.
#[derive(Debug, Clone, Serialize)]
pub struct JobStatus {
    pub id: u64,
    pub name: String,
    pub state: String,
    pub priority: i64,
    /// Expanded cell count (0 until the suite is parsed).
    pub total: usize,
    pub completed: usize,
    pub hits: usize,
    pub misses: usize,
    /// Wall seconds Running so far, or total once terminal.
    pub wall_s: f64,
    /// Parse/abort diagnostic for `failed` jobs.
    pub error: Option<String>,
}

/// Live per-job counters shared between the worker and status readers.
#[derive(Default)]
struct JobCounters {
    total: AtomicUsize,
    completed: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    counters: Arc<JobCounters>,
    started: Option<Instant>,
    wall_s: f64,
    error: Option<String>,
    /// Raw serialized records of finished cells, in cell order.
    records: Option<Vec<String>>,
}

struct QueueInner {
    next_id: u64,
    /// Pending job ids, submission order.
    pending: Vec<u64>,
    jobs: HashMap<u64, JobEntry>,
    shutdown: bool,
}

/// The server's job table + scheduling queue. Share via `Arc`; the
/// worker blocks on [`JobQueue::next_job`].
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    work_ready: Condvar,
}

/// Everything the worker needs to run one claimed job.
pub struct ClaimedJob {
    pub id: u64,
    pub spec: JobSpec,
    pub cancel: Arc<AtomicBool>,
    counters: Arc<JobCounters>,
}

/// Terminal outcome the worker reports back.
pub struct JobOutcome {
    pub state: JobState,
    pub error: Option<String>,
    pub records: Vec<String>,
}

impl Default for JobQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl JobQueue {
    pub fn new() -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                next_id: 1,
                pending: Vec::new(),
                jobs: HashMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        }
    }

    /// Enqueue a job; returns its id.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                counters: Arc::new(JobCounters::default()),
                started: None,
                wall_s: 0.0,
                error: None,
                records: None,
            },
        );
        inner.pending.push(id);
        drop(inner);
        self.work_ready.notify_all();
        id
    }

    /// Cancel a job. Queued jobs terminate immediately; a running job's
    /// flag is raised and the worker stops dispatching new cells (cells
    /// already simulating run to completion — they are cached work, not
    /// waste). Returns false for unknown or already-terminal jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        let Some(entry) = inner.jobs.get_mut(&id) else {
            return false;
        };
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Cancelled;
                entry.records = Some(Vec::new());
                inner.pending.retain(|&p| p != id);
                true
            }
            JobState::Running => {
                entry.cancel.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Status of one job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let inner = self.inner.lock().expect("job queue poisoned");
        inner.jobs.get(&id).map(|e| Self::view(id, e))
    }

    /// Status of every job, id order.
    pub fn status_all(&self) -> Vec<JobStatus> {
        let inner = self.inner.lock().expect("job queue poisoned");
        let mut ids: Vec<u64> = inner.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .map(|&id| Self::view(id, &inner.jobs[&id]))
            .collect()
    }

    fn view(id: u64, e: &JobEntry) -> JobStatus {
        JobStatus {
            id,
            name: e.spec.name.clone(),
            state: e.state.name().into(),
            priority: e.spec.priority,
            total: e.counters.total.load(Ordering::Relaxed),
            completed: e.counters.completed.load(Ordering::Relaxed),
            hits: e.counters.hits.load(Ordering::Relaxed),
            misses: e.counters.misses.load(Ordering::Relaxed),
            wall_s: match (e.state, e.started) {
                (JobState::Running, Some(t)) => t.elapsed().as_secs_f64(),
                _ => e.wall_s,
            },
            error: e.error.clone(),
        }
    }

    /// Terminal state + raw records of a finished job (None while the
    /// job is still queued/running or unknown).
    pub fn result(&self, id: u64) -> Option<(JobStatus, Vec<String>)> {
        let inner = self.inner.lock().expect("job queue poisoned");
        let e = inner.jobs.get(&id)?;
        let records = e.records.clone()?;
        Some((Self::view(id, e), records))
    }

    /// Wake every worker to exit; pending jobs stay queued (a resident
    /// server owns its jobs only for the process lifetime — the *store*
    /// is the durable artefact).
    pub fn shutdown(&self) {
        self.inner.lock().expect("job queue poisoned").shutdown = true;
        self.work_ready.notify_all();
    }

    pub fn is_shut_down(&self) -> bool {
        self.inner.lock().expect("job queue poisoned").shutdown
    }

    /// Block until a job is available (highest priority first, FIFO
    /// within a priority) or shutdown. The claimed job is Running.
    pub fn next_job(&self) -> Option<ClaimedJob> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        loop {
            if inner.shutdown {
                return None;
            }
            // Highest priority wins; `pending` is submission-ordered, so
            // the first max is also the FIFO winner within its priority.
            let best = inner
                .pending
                .iter()
                .copied()
                .max_by_key(|id| (inner.jobs[id].spec.priority, std::cmp::Reverse(*id)));
            if let Some(id) = best {
                inner.pending.retain(|&p| p != id);
                let entry = inner.jobs.get_mut(&id).expect("pending id in table");
                entry.state = JobState::Running;
                entry.started = Some(Instant::now());
                return Some(ClaimedJob {
                    id,
                    spec: entry.spec.clone(),
                    cancel: Arc::clone(&entry.cancel),
                    counters: Arc::clone(&entry.counters),
                });
            }
            inner = self.work_ready.wait(inner).expect("job queue poisoned");
        }
    }

    /// Record a claimed job's terminal outcome.
    pub fn finish(&self, id: u64, outcome: JobOutcome) {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        if let Some(e) = inner.jobs.get_mut(&id) {
            e.state = outcome.state;
            e.error = outcome.error;
            e.records = Some(outcome.records);
            e.wall_s = e.started.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
        }
    }
}

/// Simulates one cell on a cache miss. The server's is
/// [`scenario::Executor::run_one`]; tests substitute their own.
pub type CellRunner = fn(&ScenarioSpec) -> RunRecord;

/// Run one claimed job's cells against the shared store, simulating
/// misses with `run_cell`. Pure function of (job, store) apart from the
/// cancellation flag; the caller feeds the outcome back through
/// [`JobQueue::finish`]. A panicking cell fails the job with an error
/// naming the cell instead of unwinding into the caller.
pub fn run_job(
    job: &ClaimedJob,
    store: &RunStore,
    run_cell: CellRunner,
    progress: Option<&dyn ProgressSink>,
) -> JobOutcome {
    let suite = match Suite::parse_str(&job.spec.suite_text, &job.spec.origin) {
        Ok(suite) => suite,
        Err(err) => {
            return JobOutcome {
                state: JobState::Failed,
                error: Some(err.to_string()),
                records: Vec::new(),
            }
        }
    };
    let mut cells = suite.cells();
    if let Some(cap) = job.spec.max_cells {
        cells.truncate(cap);
    }
    job.counters.total.store(cells.len(), Ordering::Relaxed);
    let started = Instant::now();
    let results: Vec<Result<Option<String>, String>> = cells
        .par_iter()
        .map(|cell: &scenario::SuiteCell| {
            // The flag gates *dispatch*: cells already simulating finish
            // (and land in the store); cells not yet started are skipped.
            if job.cancel.load(Ordering::SeqCst) {
                return Ok(None);
            }
            let run = catch_unwind(AssertUnwindSafe(|| {
                store.get_or_run(&cell.spec, &|| run_cell(&cell.spec))
            }))
            .map_err(|payload| {
                format!(
                    "cell `{}` panicked: {}",
                    cell.spec.label(),
                    panic_message(payload.as_ref())
                )
            })?;
            let raw = codec::encode_record(&run.record);
            if run.hit {
                job.counters.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                job.counters.misses.fetch_add(1, Ordering::Relaxed);
            }
            let completed = job.counters.completed.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(sink) = progress {
                sink.update(&ProgressSnapshot {
                    phase: "done".into(),
                    cell: run.record.scenario.clone(),
                    total: cells.len(),
                    completed,
                    running: 0,
                    events: run.record.metrics.events,
                    wall_s: started.elapsed().as_secs_f64(),
                    events_per_sec: 0.0,
                    eta_s: 0.0,
                });
            }
            Ok(Some(raw))
        })
        .collect();
    let mut error = None;
    let mut records = Vec::new();
    for result in results {
        match result {
            Ok(raw) => records.extend(raw),
            Err(why) => {
                error.get_or_insert(why);
            }
        }
    }
    let state = if error.is_some() {
        JobState::Failed
    } else if job.cancel.load(Ordering::SeqCst) {
        JobState::Cancelled
    } else {
        JobState::Done
    };
    JobOutcome {
        state,
        error,
        records,
    }
}

/// The message of a panic payload (`panic!` with a literal or a format
/// string), or a placeholder for any other payload type.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, priority: i64) -> JobSpec {
        JobSpec {
            name: name.into(),
            suite_text: String::new(),
            origin: "<test>".into(),
            priority,
            max_cells: None,
        }
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let q = JobQueue::new();
        let low = q.submit(spec("low", 0));
        let hi_a = q.submit(spec("hi-a", 5));
        let hi_b = q.submit(spec("hi-b", 5));
        assert_eq!(
            q.next_job().unwrap().id,
            hi_a,
            "priority first, FIFO within"
        );
        assert_eq!(q.next_job().unwrap().id, hi_b);
        assert_eq!(q.next_job().unwrap().id, low);
        q.shutdown();
        assert!(q.next_job().is_none());
    }

    #[test]
    fn queued_cancellation_is_immediate_and_terminal() {
        let q = JobQueue::new();
        let a = q.submit(spec("a", 0));
        let b = q.submit(spec("b", 0));
        assert!(q.cancel(a));
        assert_eq!(q.status(a).unwrap().state, "cancelled");
        assert!(!q.cancel(a), "already terminal");
        // The cancelled job never reaches a worker.
        assert_eq!(q.next_job().unwrap().id, b);
        let (status, records) = q.result(a).expect("terminal job has a result");
        assert_eq!(status.state, "cancelled");
        assert!(records.is_empty());
    }

    #[test]
    fn running_job_lifecycle_reaches_done() {
        let q = JobQueue::new();
        let id = q.submit(spec("job", 0));
        assert!(q.result(id).is_none(), "no result while queued");
        let claimed = q.next_job().unwrap();
        assert_eq!(q.status(id).unwrap().state, "running");
        q.finish(
            claimed.id,
            JobOutcome {
                state: JobState::Done,
                error: None,
                records: vec!["{}".into()],
            },
        );
        let status = q.status(id).unwrap();
        assert_eq!(status.state, "done");
        let (_, records) = q.result(id).unwrap();
        assert_eq!(records, vec!["{}".to_string()]);
    }
}
