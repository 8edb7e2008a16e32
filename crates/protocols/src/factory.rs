//! Object-safe protocol construction and execution.
//!
//! [`mps_sim::Protocol`] is deliberately *not* object-safe (`Sized` +
//! an associated control-message type), so heterogeneous experiment
//! drivers could not hold "some protocol" and run it. A
//! [`ProtocolFactory`] closes that gap: it owns the protocol's
//! configuration, and `run` instantiates the concrete protocol for a
//! [`RunRequest`] and drives one simulation to completion through the
//! one run driver, [`mps_sim::run_sharded`] — erasing the protocol type
//! right after that monomorphic call.
//!
//! A [`RunRequest`] bundles everything one run needs — the application,
//! engine configuration, cluster map and a [`FailureModel`] — behind a
//! builder, replacing the positional
//! `run(app, config, clusters, failures)` signature that grew a
//! parameter per feature. Fault injection is a first-class model rather
//! than a static list: [`RunRequest::failures`] wraps a hand-written
//! schedule in [`FixedSchedule`] (the equivalence oracle for the old
//! list path), while [`RunRequest::failure_model`] accepts any
//! generator (Poisson, correlated-cluster, cascade, ...).
//!
//! Factories are `Send + Sync` so a parallel executor (the `scenario`
//! crate) can dispatch the same factory across worker threads.

use hydee::{Hydee, HydeeConfig};
use mps_sim::{
    Application, CheckpointPolicyConfig, ClusterMap, FailureModel, FixedSchedule, NullProtocol,
    Protocol, Recorder, RunReport, ShardSlice, SimConfig,
};
use net_model::{StableStorage, StorageLedger};
use std::sync::{Arc, Mutex};

pub use mps_sim::FailureEvent;

use crate::coordinated::{CoordinatedConfig, GlobalCoordinated};
use crate::event_logged::{DeterminantCost, EventLogged};

/// Everything one simulation run needs, behind a builder.
///
/// ```
/// use mps_sim::{Application, ClusterMap, PoissonPerRank, Rank, Tag};
/// use det_sim::SimDuration;
/// use protocols::{HydeeFactory, ProtocolFactory, RunRequest};
///
/// let mut app = Application::new(4);
/// app.rank_mut(Rank(0)).send(Rank(2), 4096, Tag(0));
/// app.rank_mut(Rank(2)).recv(Rank(0), Tag(0));
///
/// let req = RunRequest::new(app)
///     .clusters(ClusterMap::blocks(4, 2))
///     .failure_model(Box::new(PoissonPerRank::new(
///         4,
///         SimDuration::from_secs(1),
///         42,
///     ).with_max_failures(1)));
/// let report = HydeeFactory::default().run(req);
/// assert!(report.completed());
/// ```
pub struct RunRequest {
    pub app: Application,
    pub sim_config: SimConfig,
    pub clusters: ClusterMap,
    pub failure_model: Box<dyn FailureModel>,
    /// Telemetry recorder attached to the run (DESIGN.md §2.5); `None`
    /// (the default) costs one branch per instrumentation point.
    pub recorder: Option<Box<dyn Recorder>>,
    /// Shards requested from the run driver, [`mps_sim::run_sharded`]
    /// (DESIGN.md §2.8). `1` (the default) runs on the caller's thread.
    /// Higher values run that many cluster shards in lockstep, with the
    /// driver's shard-count rule applied: counts above the cluster count
    /// are clamped, and a run whose failure model expects any failures
    /// runs on one shard (recovery is cross-cluster by construction).
    /// Either way the results are bit-for-bit identical.
    pub shards: usize,
}

impl RunRequest {
    /// A clean run: default engine config, every rank in one cluster, no
    /// failures.
    pub fn new(app: Application) -> Self {
        let n = app.n_ranks();
        RunRequest {
            app,
            sim_config: SimConfig::default(),
            clusters: ClusterMap::single(n),
            failure_model: Box::new(FixedSchedule::none()),
            recorder: None,
            shards: 1,
        }
    }

    pub fn sim_config(mut self, config: SimConfig) -> Self {
        self.sim_config = config;
        self
    }

    pub fn clusters(mut self, clusters: ClusterMap) -> Self {
        self.clusters = clusters;
        self
    }

    /// Inject failures from an arbitrary deterministic generator.
    pub fn failure_model(mut self, model: Box<dyn FailureModel>) -> Self {
        self.failure_model = model;
        self
    }

    /// Inject a hand-written failure schedule (sugar for a
    /// [`FixedSchedule`] model).
    pub fn failures(self, events: Vec<FailureEvent>) -> Self {
        self.failure_model(Box::new(FixedSchedule::new(events)))
    }

    /// Attach a telemetry recorder (a `telemetry::SpanRecorder`, a
    /// `telemetry::Sampler`, or a [`mps_sim::Fanout`] of several). The
    /// caller keeps the recorder's export handle and reads it after
    /// [`ProtocolFactory::run`].
    pub fn recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Request `n` cluster shards (see the field docs for the driver's
    /// shard-count rule).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }
}

/// Runtime-interchangeable protocol constructor/runner (object-safe).
pub trait ProtocolFactory: Send + Sync {
    /// Short name for records and reports.
    fn name(&self) -> String;

    /// Instantiate the protocol for the request's cluster map and drive
    /// its application to completion under the request's failure model.
    fn run(&self, req: RunRequest) -> RunReport;
}

/// Run the request through the one run driver, `make_protocol` building
/// each shard's protocol from the request's cluster map and the shard's
/// slice.
fn run<P, F>(req: RunRequest, mut make_protocol: F) -> RunReport
where
    P: Protocol + Send,
    P::Ctl: Send,
    F: FnMut(&ClusterMap, &ShardSlice) -> P,
{
    let RunRequest {
        app,
        sim_config,
        clusters,
        failure_model,
        recorder,
        shards,
    } = req;
    mps_sim::run_sharded(
        app,
        sim_config,
        &clusters,
        shards,
        failure_model,
        recorder,
        |slice| make_protocol(&clusters, slice),
    )
}

/// One storage ledger shared by all shard-local HydEE copies, behind the
/// storage drain path of the request's topology (DESIGN.md §2.9): stable
/// storage is the only machine-global resource, and the driver sequences
/// every timer (= every policy consultation) in global order, so sharing
/// it is safe.
fn shared_ledger(params: &HydeeParams, req: &RunRequest) -> Arc<Mutex<StorageLedger>> {
    let topology = req.sim_config.resolved_topology(req.app.n_ranks());
    Arc::new(Mutex::new(
        StorageLedger::new(params.storage.unwrap_or_default()).draining_through(&topology),
    ))
}

/// Native MPICH2: no fault tolerance (ignores the cluster map).
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeFactory;

impl ProtocolFactory for NativeFactory {
    fn name(&self) -> String {
        "native".into()
    }

    fn run(&self, req: RunRequest) -> RunReport {
        run(req, |_, _| NullProtocol)
    }
}

/// HydEE parameterisation minus the cluster map (which arrives with the
/// [`RunRequest`]). `None` fields keep [`HydeeConfig`]'s defaults.
#[derive(Debug, Clone, Default)]
pub struct HydeeParams {
    /// Checkpoint-scheduling policy (DESIGN.md §2.4).
    pub checkpoint_policy: Option<CheckpointPolicyConfig>,
    pub image_bytes: Option<u64>,
    pub storage: Option<StableStorage>,
    /// Disable the §III-E log garbage collection.
    pub disable_gc: bool,
}

impl HydeeParams {
    pub fn config_for(&self, clusters: ClusterMap) -> HydeeConfig {
        let mut cfg = HydeeConfig::new(clusters);
        if let Some(p) = self.checkpoint_policy {
            cfg.checkpoint_policy = p;
        }
        if let Some(b) = self.image_bytes {
            cfg.image_bytes = b;
        }
        if let Some(s) = self.storage {
            cfg.storage = s;
        }
        cfg.gc = !self.disable_gc;
        cfg
    }
}

/// HydEE over whatever cluster map the request supplies.
#[derive(Debug, Clone, Default)]
pub struct HydeeFactory {
    pub params: HydeeParams,
}

impl HydeeFactory {
    pub fn new(params: HydeeParams) -> Self {
        HydeeFactory { params }
    }
}

impl ProtocolFactory for HydeeFactory {
    fn name(&self) -> String {
        "hydee".into()
    }

    fn run(&self, req: RunRequest) -> RunReport {
        let ledger = shared_ledger(&self.params, &req);
        run(req, |clusters, slice| {
            Hydee::sharded(
                self.params.config_for(clusters.clone()),
                ledger.clone(),
                slice.clusters.clone(),
            )
        })
    }
}

/// Global coordinated checkpointing (ignores the cluster map: the
/// "cluster" is the whole machine).
#[derive(Debug, Clone, Default)]
pub struct CoordinatedFactory {
    pub config: CoordinatedConfig,
}

impl CoordinatedFactory {
    pub fn new(config: CoordinatedConfig) -> Self {
        CoordinatedFactory { config }
    }
}

impl ProtocolFactory for CoordinatedFactory {
    fn name(&self) -> String {
        "coordinated".into()
    }

    fn run(&self, req: RunRequest) -> RunReport {
        // Always one shard: the coordinated protocol's "cluster" is the
        // whole machine and it owns a private storage ledger, so there
        // is no shard decomposition to exploit.
        let topology = req.sim_config.resolved_topology(req.app.n_ranks());
        run(req.shards(1), |_, _| {
            let mut protocol = GlobalCoordinated::new(self.config.clone());
            protocol.drain_through(&topology);
            protocol
        })
    }
}

/// HydEE plus reliable determinant writes on every delivery — the
/// event-logging ablation (\[8\]/\[22\]-style hybrid; with per-rank clusters,
/// classic pessimistic message logging).
#[derive(Debug, Clone, Default)]
pub struct EventLoggedFactory {
    pub params: HydeeParams,
    pub cost: DeterminantCost,
}

impl EventLoggedFactory {
    pub fn new(params: HydeeParams, cost: DeterminantCost) -> Self {
        EventLoggedFactory { params, cost }
    }
}

impl ProtocolFactory for EventLoggedFactory {
    fn name(&self) -> String {
        "event-logged".into()
    }

    fn run(&self, req: RunRequest) -> RunReport {
        let ledger = shared_ledger(&self.params, &req);
        run(req, |clusters, slice| {
            // The determinant wrapper holds only shard-local state (a
            // counter and per-delivery charges), so it shards by wrapping
            // the sharded inner protocol.
            EventLogged::new(
                Hydee::sharded(
                    self.params.config_for(clusters.clone()),
                    ledger.clone(),
                    slice.clusters.clone(),
                ),
                self.cost,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use det_sim::{SimDuration, SimTime};
    use mps_sim::{PoissonPerRank, Rank, Tag};

    fn ping_pong() -> Application {
        let mut app = Application::new(4);
        app.rank_mut(Rank(1)).send(Rank(2), 4096, Tag(0));
        app.rank_mut(Rank(2)).recv(Rank(1), Tag(0));
        app
    }

    /// The point of the trait: heterogeneous factories behind one type.
    #[test]
    fn factories_are_object_safe_and_interchangeable() {
        let factories: Vec<Box<dyn ProtocolFactory>> = vec![
            Box::new(NativeFactory),
            Box::new(HydeeFactory::default()),
            Box::new(CoordinatedFactory::default()),
            Box::new(EventLoggedFactory::default()),
        ];
        for f in &factories {
            let req = RunRequest::new(ping_pong()).clusters(ClusterMap::blocks(4, 2));
            let report = f.run(req);
            assert!(report.completed(), "{}: {:?}", f.name(), report.status);
        }
    }

    #[test]
    fn hydee_factory_logs_inter_cluster_only() {
        let f = HydeeFactory::default();
        let report =
            f.run(RunRequest::new(ping_pong()).clusters(ClusterMap::new(vec![0, 0, 1, 1])));
        assert_eq!(report.metrics.logged_bytes_cumulative, 4096);
        let report = f.run(RunRequest::new(ping_pong()).clusters(ClusterMap::single(4)));
        assert_eq!(report.metrics.logged_bytes_cumulative, 0);
    }

    #[test]
    fn failures_are_injected() {
        let f = HydeeFactory::new(HydeeParams {
            image_bytes: Some(1 << 16),
            ..Default::default()
        });
        let mut app = Application::new(2);
        for i in 0..50 {
            app.rank_mut(Rank(0)).send(Rank(1), 1 << 16, Tag(i));
            app.rank_mut(Rank(1)).recv(Rank(0), Tag(i));
        }
        let clean = f.run(RunRequest::new(app.clone()).clusters(ClusterMap::per_rank(2)));
        assert!(clean.completed());
        let fail_at = SimTime::from_ps(clean.makespan.as_ps() / 2);
        let failed = f.run(
            RunRequest::new(app)
                .clusters(ClusterMap::per_rank(2))
                .failures(vec![FailureEvent {
                    at: fail_at,
                    ranks: vec![Rank(1)],
                }]),
        );
        assert!(failed.completed(), "{:?}", failed.status);
        assert_eq!(failed.metrics.failures, 1);
        assert_eq!(failed.metrics.failed_ranks, 1);
        assert!(failed.metrics.ranks_rolled_back >= 1);
        assert!(failed.metrics.lost_work > SimDuration::ZERO);
        assert!(failed.metrics.recovery_time > SimDuration::ZERO);
        assert_eq!(clean.digests, failed.digests);
    }

    /// The `shards` knob must be transparent: every factory that
    /// accepts it returns a bit-identical report, and runs that cannot
    /// shard (failure models, single cluster) run on one shard.
    #[test]
    fn sharded_requests_match_serial_per_factory() {
        let mut app = Application::new(8);
        for i in 0..20 {
            app.rank_mut(Rank(0)).send(Rank(5), 4096, Tag(i));
            app.rank_mut(Rank(5)).recv(Rank(0), Tag(i));
            app.rank_mut(Rank(3)).send(Rank(6), 2048, Tag(i));
            app.rank_mut(Rank(6)).recv(Rank(3), Tag(i));
        }
        let factories: Vec<Box<dyn ProtocolFactory>> = vec![
            Box::new(NativeFactory),
            Box::new(HydeeFactory::new(HydeeParams {
                checkpoint_policy: Some(CheckpointPolicyConfig::Periodic {
                    interval: SimDuration::from_us(200),
                    first: None,
                    stagger: None,
                }),
                image_bytes: Some(1 << 14),
                ..Default::default()
            })),
            Box::new(CoordinatedFactory::default()),
            Box::new(EventLoggedFactory::default()),
        ];
        for f in &factories {
            let mk = || RunRequest::new(app.clone()).clusters(ClusterMap::blocks(8, 4));
            let serial = f.run(mk());
            let sharded = f.run(mk().shards(4));
            assert!(serial.completed(), "{}: {:?}", f.name(), serial.status);
            assert_eq!(serial.digests, sharded.digests, "{}", f.name());
            assert_eq!(
                serde_json::to_string(&serial.metrics).unwrap(),
                serde_json::to_string(&sharded.metrics).unwrap(),
                "{}: metrics diverge",
                f.name()
            );
        }
    }

    /// A failure model with nonzero expectation runs on one shard even
    /// when shards were requested — and still completes.
    #[test]
    fn failure_runs_fall_back_to_serial() {
        let f = HydeeFactory::new(HydeeParams {
            image_bytes: Some(1 << 14),
            ..Default::default()
        });
        let mut app = Application::new(4);
        for i in 0..30 {
            app.rank_mut(Rank(0)).send(Rank(3), 1 << 14, Tag(i));
            app.rank_mut(Rank(3)).recv(Rank(0), Tag(i));
        }
        let req = RunRequest::new(app)
            .clusters(ClusterMap::per_rank(4))
            .failure_model(Box::new(
                PoissonPerRank::new(4, SimDuration::from_ms(2), 7).with_max_failures(1),
            ))
            .shards(4);
        let report = f.run(req);
        assert!(report.completed(), "{:?}", report.status);
        assert_eq!(report.shards, 1, "ran on one shard");
        assert_eq!(report.barrier_rounds, 0);
    }

    #[test]
    fn stochastic_model_through_the_factory() {
        let f = HydeeFactory::new(HydeeParams {
            image_bytes: Some(1 << 14),
            ..Default::default()
        });
        let mut app = Application::new(4);
        for i in 0..40 {
            app.rank_mut(Rank(0)).send(Rank(3), 1 << 14, Tag(i));
            app.rank_mut(Rank(3)).recv(Rank(0), Tag(i));
        }
        let run = |seed: u64| {
            f.run(
                RunRequest::new(app.clone())
                    .clusters(ClusterMap::blocks(4, 2))
                    .failure_model(Box::new(
                        PoissonPerRank::new(4, SimDuration::from_ms(2), seed).with_max_failures(2),
                    )),
            )
        };
        let a = run(11);
        let b = run(11);
        assert!(a.completed(), "{:?}", a.status);
        assert_eq!(a.digests, b.digests, "same seed, same run");
        assert_eq!(a.metrics.events, b.metrics.events);
        assert_eq!(a.metrics.failures, b.metrics.failures);
    }
}
