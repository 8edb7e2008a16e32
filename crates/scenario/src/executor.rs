//! The run engine: specs in, records out.
//!
//! [`Executor::run`] evaluates a batch of [`ScenarioSpec`]s, in parallel
//! by default (one spec per worker, rayon-style dynamic load balancing).
//! Two invariants carry the workspace's determinism guarantee up through
//! the orchestration layer:
//!
//! 1. **Per-spec determinism** — each spec resolves and simulates from
//!    scratch on its worker thread with no shared mutable state, so a
//!    spec's record is bit-for-bit identical no matter where or when it
//!    runs.
//! 2. **Deterministic output order** — records come back in spec order
//!    regardless of completion order (results land in their input slot).
//!
//! `tests/determinism.rs` locks both in by comparing a parallel run
//! against [`Executor::serial`].

use rayon::prelude::*;

use crate::cache::{CacheStats, RunCache};
use crate::progress::{ProgressSink, ProgressState};
use crate::record::RunRecord;
use crate::spec::ScenarioSpec;
use clustering::ClusteringStats;
use mps_sim::{Metrics, Recorder};
use protocols::RunRequest;

/// Runs scenario batches. Construct with [`Executor::new`] (parallel) or
/// [`Executor::serial`] (reference mode for determinism checks and
/// debugging).
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor {
    serial: bool,
}

impl Executor {
    /// Parallel executor: specs are distributed across all cores.
    pub fn new() -> Self {
        Executor { serial: false }
    }

    /// Serial reference executor: same records, one spec at a time.
    pub fn serial() -> Self {
        Executor { serial: true }
    }

    /// Evaluate one spec. Public so single-run callers (examples, tests)
    /// can skip batch plumbing.
    pub fn run_one(spec: &ScenarioSpec) -> RunRecord {
        Self::run_one_with_recorder(spec, None)
    }

    /// Evaluate one spec with an optional [`Recorder`] attached to the
    /// simulation (trace spans, time-series samples). Recorders are
    /// observers: the returned record is bit-for-bit identical with or
    /// without one (`tests/recorder_neutrality.rs` locks this in).
    pub fn run_one_with_recorder(
        spec: &ScenarioSpec,
        recorder: Option<Box<dyn Recorder>>,
    ) -> RunRecord {
        let app = spec.workload.build();
        let map = spec.clusters.resolve(&app);
        let stats = ClusteringStats::evaluate(&app, &map);
        let record = RunRecord {
            scenario: spec.label(),
            workload: spec.workload.name(),
            protocol: spec.protocol.name(),
            clusters: spec.clusters.name(),
            network: spec.network.name().into(),
            topology: spec.topology.name(),
            n_ranks: app.n_ranks(),
            n_clusters: map.n_clusters(),
            n_failures: spec.failure_model.scheduled_failures(),
            failure_model: spec.failure_model.name(),
            checkpoint_policy: spec.protocol.checkpoint_policy().name(),
            avg_rollback_pct: stats.avg_rollback_pct,
            static_logged_bytes: stats.logged_bytes,
            static_total_bytes: stats.total_bytes,
            static_logged_pct: stats.logged_pct(),
            program_resident_bytes: app.resident_bytes(),
            program_unrolled_bytes: app.unrolled_bytes(),
            completed: false,
            status: "static".into(),
            makespan_ps: 0,
            makespan_s: 0.0,
            digest: 0,
            trace_consistent: true,
            trace_violations: 0,
            rollback_rank_fraction: 0.0,
            lost_work_s: 0.0,
            recovery_s: 0.0,
            checkpoint_overhead_s: 0.0,
            waste_fraction: 0.0,
            metrics: Metrics::default(),
            shards: 1,
            barrier_rounds: 0,
            pair_lookahead: String::new(),
        };
        if !spec.simulate {
            return record;
        }
        // A fixed-schedule rank outside the workload would panic inside
        // the engine (worse, inside a rayon worker): surface it as an
        // incomplete record instead.
        if let Some(bad) = spec.failure_model.invalid_rank(app.n_ranks()) {
            return RunRecord {
                status: format!(
                    "invalid failure schedule: rank {bad} out of range (workload has {} ranks)",
                    app.n_ranks()
                ),
                ..record
            };
        }
        let factory = spec.protocol.to_factory();
        // Always attach the built topology, `Flat` included: the engine
        // prices every message through one topology path either way.
        let mut cfg = spec.sim_config();
        cfg.topology = Some(std::sync::Arc::new(
            spec.topology
                .build(cfg.network.clone(), map.assignment().to_vec()),
        ));
        let mut req = RunRequest::new(app)
            .sim_config(cfg)
            .failure_model(spec.failure_model.build(&map))
            .clusters(map)
            .shards(spec.shards);
        if let Some(rec) = recorder {
            req = req.recorder(rec);
        }
        let report = factory.run(req);
        record.with_report(&report)
    }

    /// Evaluate `specs`, returning one record per spec **in spec order**.
    pub fn run(&self, specs: &[ScenarioSpec]) -> Vec<RunRecord> {
        if self.serial {
            specs.iter().map(Self::run_one).collect()
        } else {
            specs.par_iter().map(Self::run_one).collect()
        }
    }

    /// Like [`Executor::run`], but reports every cell start/completion
    /// through `sink` (see [`crate::progress`]). Progress is advisory:
    /// the records are identical to a plain [`Executor::run`].
    pub fn run_with_progress(
        &self,
        specs: &[ScenarioSpec],
        sink: &dyn ProgressSink,
    ) -> Vec<RunRecord> {
        let state = ProgressState::new(specs.len());
        let eval = |spec: &ScenarioSpec| {
            state.on_start(sink, &spec.label());
            let record = Self::run_one(spec);
            state.on_done(sink, &record);
            record
        };
        if self.serial {
            specs.iter().map(eval).collect()
        } else {
            specs.par_iter().map(eval).collect()
        }
    }

    /// Like [`Executor::run_with_progress`], but consults `cache` before
    /// simulating each cell: a hit returns the stored record (bit-for-bit
    /// the record the original simulation produced — determinism plus the
    /// [`RunCache`] contract make that sound), a miss simulates and
    /// remembers. Progress heartbeats still fire for every cell, so a hit
    /// shows up as an instant completion; records come back in spec
    /// order, exactly as [`Executor::run`]. Pass `sink = None` for a
    /// silent batch. Also returns the batch's hit/miss tally.
    pub fn run_cached(
        &self,
        specs: &[ScenarioSpec],
        cache: &dyn RunCache,
        sink: Option<&dyn ProgressSink>,
    ) -> (Vec<RunRecord>, CacheStats) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let state = ProgressState::new(specs.len());
        let hits = AtomicUsize::new(0);
        let eval = |spec: &ScenarioSpec| {
            if let Some(sink) = sink {
                state.on_start(sink, &spec.label());
            }
            let cached = cache.get_or_run(spec, &|| Self::run_one(spec));
            if cached.hit {
                hits.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(sink) = sink {
                state.on_done(sink, &cached.record);
            }
            cached.record
        };
        let records: Vec<RunRecord> = if self.serial {
            specs.iter().map(eval).collect()
        } else {
            specs.par_iter().map(eval).collect()
        };
        let hits = hits.into_inner();
        let stats = CacheStats {
            hits,
            misses: specs.len() - hits,
        };
        (records, stats)
    }

    /// [`Executor::run_one_with_recorder`] plus progress heartbeats for
    /// the one-cell batch, so `sweep --trace-out --progress-out` still
    /// feeds its progress sinks.
    pub fn run_one_with_recorder_and_progress(
        spec: &ScenarioSpec,
        recorder: Option<Box<dyn Recorder>>,
        sink: &dyn ProgressSink,
    ) -> RunRecord {
        let state = ProgressState::new(1);
        state.on_start(sink, &spec.label());
        let record = Self::run_one_with_recorder(spec, recorder);
        state.on_done(sink, &record);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterStrategy, ProtocolSpec};
    use workloads::WorkloadSpec;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            WorkloadSpec::NetPipe {
                rounds: 3,
                bytes: 256,
            },
            ProtocolSpec::hydee(),
            ClusterStrategy::PerRank,
        )
    }

    #[test]
    fn run_one_simulates_and_analyses() {
        let rec = Executor::run_one(&tiny_spec());
        assert!(rec.completed, "{}", rec.status);
        assert_eq!(rec.n_ranks, 2);
        assert_eq!(rec.n_clusters, 2);
        assert_eq!(rec.metrics.app_messages, 6);
        assert!(rec.makespan_ps > 0);
        // Per-rank clustering logs everything.
        assert_eq!(rec.static_logged_pct, 100.0);
        assert_eq!(rec.metrics.logged_bytes_cumulative, 6 * 256);
    }

    #[test]
    fn out_of_range_failure_rank_is_an_incomplete_record_not_a_panic() {
        let mut spec = tiny_spec();
        spec.failure_model =
            crate::spec::FailureModelSpec::Fixed(vec![crate::spec::FailureSpec::at_ms(
                1,
                vec![99],
            )]);
        let rec = Executor::run_one(&spec);
        assert!(!rec.completed);
        assert!(
            rec.status.contains("rank 99 out of range"),
            "{}",
            rec.status
        );
        assert_eq!(rec.metrics.events, 0, "simulation must not have started");
    }

    #[test]
    fn static_spec_skips_simulation() {
        let mut spec = tiny_spec();
        spec.simulate = false;
        let rec = Executor::run_one(&spec);
        assert_eq!(rec.status, "static");
        assert!(!rec.completed);
        assert_eq!(rec.metrics.events, 0);
        assert_eq!(rec.static_total_bytes, 6 * 256);
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let specs: Vec<ScenarioSpec> = (1..=8)
            .map(|i| {
                ScenarioSpec::new(
                    WorkloadSpec::NetPipe {
                        rounds: i,
                        bytes: 64 * i as u64,
                    },
                    ProtocolSpec::hydee(),
                    ClusterStrategy::PerRank,
                )
            })
            .collect();
        let serial = Executor::serial().run(&specs);
        let parallel = Executor::new().run(&specs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                serde_json::to_string(s).unwrap(),
                serde_json::to_string(p).unwrap()
            );
        }
    }

    #[test]
    fn run_with_progress_reports_every_cell_and_matches_run() {
        let specs: Vec<ScenarioSpec> = (1..=4)
            .map(|i| {
                ScenarioSpec::new(
                    WorkloadSpec::NetPipe {
                        rounds: i,
                        bytes: 128,
                    },
                    ProtocolSpec::hydee(),
                    ClusterStrategy::PerRank,
                )
            })
            .collect();
        let sink = crate::progress::tests::CollectSink::default();
        // Serial so heartbeat ordering is deterministic for assertions;
        // the parallel path shares the same eval closure.
        let with = Executor::serial().run_with_progress(&specs, &sink);
        let plain = Executor::serial().run(&specs);
        for (a, b) in with.iter().zip(&plain) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
        let snaps = sink.snaps.lock().unwrap();
        assert_eq!(snaps.iter().filter(|s| s.phase == "start").count(), 4);
        assert_eq!(snaps.iter().filter(|s| s.phase == "done").count(), 4);
        let last = snaps.last().unwrap();
        assert_eq!(last.completed, 4);
        assert_eq!(last.running, 0);
        let total_events: u64 = plain.iter().map(|r| r.metrics.events).sum();
        assert_eq!(last.events, total_events);
    }

    #[test]
    fn attached_recorder_does_not_change_the_record() {
        let spec = tiny_spec();
        let plain = Executor::run_one(&spec);
        let traced = Executor::run_one_with_recorder(&spec, Some(Box::new(mps_sim::NoopRecorder)));
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
    }
}
