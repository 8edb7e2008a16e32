//! One workload's phases, each driven through a layer's public entry
//! point: set-up (`WorkloadSpec::build`, `ClusterStrategy::resolve`,
//! `Topology::build`), the untraced simulation (`ProtocolFactory::run`)
//! and the traced simulation (`Sim::run_with_protocol` around
//! [`Timed`]`<Hydee>`, or the factory's `par_sim::run_sharded`, with a
//! [`GaugeRecorder`] attached).

use crate::gauges::{GaugeRecorder, GaugeTotals};
use crate::host;
use crate::timed::{HookTotals, Timed};
use hydee::Hydee;
use mps_sim::{Application, ClusterMap, RunReport, Sim};
use net_model::Topology;
use protocols::{HydeeParams, RunRequest};
use scenario::{ProtocolSpec, ScenarioSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything set-up produces for the simulation phase.
pub struct Prepared {
    pub app: Application,
    pub map: ClusterMap,
    pub topology: Arc<Topology>,
}

/// Host time of each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build: Duration,
    pub resolve: Duration,
    pub topology: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.build + self.resolve + self.topology
    }
}

/// Build the workload, resolve its clusters and build its topology.
pub fn setup(spec: &ScenarioSpec) -> (Prepared, SetupTimes) {
    let network = spec.sim_config().network;
    let started = Instant::now();
    let app = spec.workload.build();
    let built = Instant::now();
    let map = spec.clusters.resolve(&app);
    let resolved = Instant::now();
    let topology = Arc::new(spec.topology.build(network, map.assignment().to_vec()));
    let done = Instant::now();
    let times = SetupTimes {
        build: built - started,
        resolve: resolved - built,
        topology: done - resolved,
    };
    (Prepared { app, map, topology }, times)
}

/// One simulation's host cost.
pub struct Timing {
    pub wall: Duration,
    /// CPU time of every thread of the process during the simulation.
    pub cpu: Duration,
    /// CPU time of the calling thread, which is `par_sim`'s coordinator
    /// in a sharded run.
    pub caller_cpu: Duration,
}

fn timed<R>(run: impl FnOnce() -> R) -> (R, Timing) {
    let (cpu0, caller0) = (host::process_cpu(), host::thread_cpu());
    let started = Instant::now();
    let out = run();
    let wall = started.elapsed();
    let timing = Timing {
        wall,
        cpu: host::process_cpu() - cpu0,
        caller_cpu: host::thread_cpu() - caller0,
    };
    (out, timing)
}

fn sim_config(spec: &ScenarioSpec, prep: &Prepared) -> mps_sim::SimConfig {
    let mut cfg = spec.sim_config();
    cfg.topology = Some(prep.topology.clone());
    cfg
}

/// The factory request the scenario executor builds for `spec`.
fn request(spec: &ScenarioSpec, prep: &Prepared) -> RunRequest {
    RunRequest::new(prep.app.clone())
        .sim_config(sim_config(spec, prep))
        .failure_model(spec.failure_model.build(&prep.map))
        .clusters(prep.map.clone())
        .shards(spec.shards)
}

/// The untraced simulation, exactly as the scenario executor runs it.
pub fn run_untraced(spec: &ScenarioSpec, prep: &Prepared) -> (RunReport, Timing) {
    let factory = spec.protocol.to_factory();
    let req = request(spec, prep);
    timed(|| factory.run(req))
}

/// A traced simulation and what its wrappers measured.
pub struct Traced {
    pub report: RunReport,
    pub timing: Timing,
    pub hooks: HookTotals,
    pub gauges: GaugeTotals,
}

/// The traced simulation: the same run as [`run_untraced`] with the
/// gauge recorder attached. Serial HydEE is rebuilt from the layers'
/// public entry points so [`Timed`] can sit between the engine and the
/// protocol; any other run goes through its factory with its hooks
/// untimed (the sharded native workload has none).
pub fn run_traced(spec: &ScenarioSpec, prep: &Prepared, record_sends: bool) -> Traced {
    let (recorder, handle) = GaugeRecorder::new(record_sends);
    let (report, timing, hooks) = match spec.protocol {
        ProtocolSpec::Hydee {
            checkpoint,
            image_bytes,
            storage,
            gc,
        } if spec.shards <= 1 => {
            // What `HydeeFactory::run` builds on its serial path.
            let params = HydeeParams {
                checkpoint_policy: Some(checkpoint.to_config()),
                image_bytes: Some(image_bytes),
                storage: Some(storage.build()),
                disable_gc: !gc,
                ..Default::default()
            };
            let mut hydee = Hydee::new(params.config_for(prep.map.clone()));
            let (latency, ps_per_byte) = prep.topology.drain_surcharge();
            hydee.set_drain_surcharge(latency, ps_per_byte);
            let mut sim = Sim::new(prep.app.clone(), sim_config(spec, prep), Timed::new(hydee));
            sim.set_failure_model(spec.failure_model.build(&prep.map));
            sim.set_recorder(Box::new(recorder));
            let ((report, protocol), timing) = timed(|| sim.run_with_protocol());
            (report, timing, protocol.totals())
        }
        _ => {
            let req = request(spec, prep).recorder(Box::new(recorder));
            let factory = spec.protocol.to_factory();
            let (report, timing) = timed(|| factory.run(req));
            (report, timing, HookTotals::default())
        }
    };
    let gauges = std::mem::take(&mut *handle.lock().expect("gauge handle poisoned"));
    Traced {
        report,
        timing,
        hooks,
        gauges,
    }
}

/// Price every recorded send through `Topology::cost` again; returns the
/// calls made and the host time they took.
pub fn replay_costs(topology: &Topology, sends: &[(u32, u32, u64)]) -> (u64, Duration) {
    let started = Instant::now();
    let mut sink = 0u64;
    for &(src, dst, bytes) in sends {
        let cost = topology.cost(
            std::hint::black_box(src),
            std::hint::black_box(dst),
            std::hint::black_box(bytes),
        );
        sink = sink.wrapping_add(std::hint::black_box(cost).transit.as_ps());
    }
    std::hint::black_box(sink);
    (sends.len() as u64, started.elapsed())
}
