//! **X1 — failure containment & recovery cost** (motivated by §I/§III;
//! the paper argues containment qualitatively, we quantify it).
//!
//! One workload (CG skeleton, 256 ranks, periodic checkpoints), one
//! mid-run failure, three protocols:
//!
//! * HydEE with Table-I clustering — only the failed cluster rolls back;
//! * global coordinated checkpointing — everyone rolls back;
//! * full message logging + event logging — only the failed rank rolls
//!   back, but failure-free execution pays determinant writes.
//!
//! Each protocol runs clean and with the failure (a two-schedule failure
//! axis of the scenario matrix); all six simulations run in parallel.
//! Reported: ranks rolled back, failure-free makespan, makespan with the
//! failure, lost time, log memory.
//!
//! ```text
//! recovery [--fail <ms>:<rank[+rank...]>] [--trace-out FILE] [--sample-out FILE]
//! ```
//!
//! * `--fail` — override the injected failure (default `195:7`). It takes
//!   one injection in the sweep grammar (`FailureSpec::parse`): `<ms>:<r>`,
//!   `<t>us:<r>`, `<t>ms:<r>` or `fail@<t>us:r<r>`, several ranks joined
//!   by `+` (`195:7+8`)
//! * `--trace-out FILE` — re-run the failed HydEE cell with a
//!   [`telemetry::SpanRecorder`] attached and write a Perfetto-loadable
//!   Chrome trace-event JSON file. The trace is validated before it is
//!   written, and the recovery track is checked to show the
//!   detect → rollback → replay → complete choreography for exactly the
//!   failed cluster(s); the traced run's digest must equal the untraced
//!   one.
//! * `--sample-out FILE` — same re-run, with a [`telemetry::Sampler`]
//!   writing virtual-time series rows (logged bytes, in-flight messages,
//!   queue depth, cumulative waste) as JSONL.
//!
//! Run: `cargo run -p bench --release --bin recovery`

use bench::{gb, Artefact, Table};
use det_sim::{SimDuration, SimTime};
use mps_sim::Rank;
use scenario::{
    CheckpointPolicySpec, ClusterStrategy, Executor, FailureModelSpec, FailureSpec, Matrix,
    ProtocolSpec, SpecAxis, StorageSpec,
};
use serde::Serialize;
use std::collections::BTreeSet;
use std::path::PathBuf;
use telemetry::{Fanout, Sampler, SpanRecorder};
use workloads::{NasBench, WorkloadSpec};

const SCALE: f64 = 1.0 / 64.0;
const N: usize = 256;
/// Default: mid-way between two checkpoints so the rolled cluster both
/// loses work and has emitted post-checkpoint inter-cluster messages
/// (orphans).
const FAILURE_MS: u64 = 195;
const CKPT_MS: u64 = 100;

const USAGE: &str =
    "recovery [--fail <ms>:<rank[+rank...]>] [--trace-out FILE] [--sample-out FILE]";

fn fail_usage<T>(msg: &str) -> T {
    eprintln!("recovery: {msg}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

#[derive(Serialize)]
struct Row {
    protocol: &'static str,
    ranks_rolled_back: u64,
    failure_free_s: f64,
    with_failure_s: f64,
    lost_s: f64,
    replayed_mb: f64,
    suppressed_sends: u64,
    logged_peak_gb: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failure = FailureSpec::at_ms(FAILURE_MS, vec![7]);
    let mut trace_out: Option<PathBuf> = None;
    let mut sample_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--fail" => {
                failure = <FailureSpec as SpecAxis>::parse(&value("--fail"))
                    .unwrap_or_else(|e| fail_usage(&e.to_string()))
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--sample-out" => sample_out = Some(PathBuf::from(value("--sample-out"))),
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail_usage(&format!("unknown flag `{other}`")),
        }
    }
    let victims = failure.ranks.clone();
    if victims.iter().any(|&v| v as usize >= N) {
        fail_usage::<()>(&format!(
            "--fail rank out of range (workload has {N} ranks)"
        ));
    }

    let mut artefact = Artefact::begin("recovery");
    let victim_list = victims
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "X1: containment & recovery — CG skeleton, 256 ranks, failure of rank {victim_list} at {}",
        failure.to_event().at
    );
    println!();

    // ParallelFs storage: the default 1 GB/s exaggerates the coordinated-
    // checkpoint I/O burst so much that checkpoint cost dwarfs the
    // rollback effects this experiment isolates.
    let storage = StorageSpec::ParallelFs;
    let image_bytes = 1 << 20;
    let configs: [(&'static str, ProtocolSpec, ClusterStrategy); 3] = [
        (
            "hydee (16 clusters)",
            ProtocolSpec::Hydee {
                checkpoint: CheckpointPolicySpec::periodic(CKPT_MS),
                image_bytes,
                storage,
                gc: true,
            },
            ClusterStrategy::Partitioned(16),
        ),
        (
            "coordinated (global)",
            ProtocolSpec::Coordinated {
                checkpoint: CheckpointPolicySpec::periodic(CKPT_MS),
                image_bytes,
                storage,
            },
            ClusterStrategy::Single,
        ),
        (
            "full logging + events",
            ProtocolSpec::EventLogged {
                checkpoint: CheckpointPolicySpec::periodic(CKPT_MS),
                image_bytes,
                storage,
            },
            ClusterStrategy::PerRank,
        ),
    ];

    // Per protocol: clean then failed (the matrix's failure axis).
    let workload = WorkloadSpec::Nas {
        bench: NasBench::CG,
        scale: SCALE,
        iterations: None,
    };
    let specs: Vec<_> = configs
        .iter()
        .flat_map(|(_, protocol, clusters)| {
            Matrix::new()
                .workloads([workload.clone()])
                .protocols([*protocol])
                .clusters([*clusters])
                .failure_models([
                    FailureModelSpec::none(),
                    FailureModelSpec::Fixed(vec![failure.clone()]),
                ])
                .expand()
        })
        .collect();
    let records = Executor::new().run(&specs);
    assert_eq!(
        records.len(),
        configs.len() * 2,
        "clean+failed per protocol"
    );
    artefact.record_runs(&records);

    let mut table = Table::new(&[
        "protocol",
        "rolled back",
        "clean",
        "failed",
        "lost",
        "replayed MB",
        "suppressed",
        "log peak GB",
    ]);
    for ((name, _, _), chunk) in configs.iter().zip(records.chunks(2)) {
        let [clean, failed] = [&chunk[0], &chunk[1]];
        assert!(clean.completed, "{name} clean: {}", clean.status);
        assert!(failed.completed, "{name} failed: {}", failed.status);
        assert!(
            failed.trace_consistent,
            "{name}: {} oracle violations",
            failed.trace_violations
        );
        assert_eq!(
            clean.digest, failed.digest,
            "{name}: recovered state diverged"
        );
        // Durations derive from the exact integer picosecond makespans and
        // render through `SimTime`/`SimDuration`'s display helpers — no
        // hand-rolled picosecond division that could drift from the
        // canonical unit handling. Lost time stays *signed*: a failure run
        // finishing faster than the clean run is an anomaly the report
        // must surface, not saturate away.
        let clean_makespan = SimTime::from_ps(clean.makespan_ps);
        let failed_makespan = SimTime::from_ps(failed.makespan_ps);
        let lost_ps = failed.makespan_ps as i128 - clean.makespan_ps as i128;
        let lost_display = format!(
            "{}{}",
            if lost_ps < 0 { "-" } else { "" },
            det_sim::SimDuration::from_ps(lost_ps.unsigned_abs() as u64)
        );
        let row = Row {
            protocol: name,
            ranks_rolled_back: failed.metrics.ranks_rolled_back,
            failure_free_s: clean_makespan.as_secs_f64(),
            with_failure_s: failed_makespan.as_secs_f64(),
            lost_s: failed_makespan.as_secs_f64() - clean_makespan.as_secs_f64(),
            replayed_mb: failed.metrics.replayed_bytes as f64 / 1e6,
            suppressed_sends: failed.metrics.suppressed_sends,
            logged_peak_gb: failed.metrics.logged_bytes_peak as f64 / 1e9,
        };
        table.row(&[
            name.to_string(),
            format!("{}/{}", row.ranks_rolled_back, N),
            clean_makespan.to_string(),
            failed_makespan.to_string(),
            lost_display,
            format!("{:.1}", row.replayed_mb),
            row.suppressed_sends.to_string(),
            gb(failed.metrics.logged_bytes_peak),
        ]);
        artefact.row(&row);
    }
    table.print();
    println!();
    println!("Expected: hydee rolls back 16/256 (one cluster), coordinated 256/256,");
    println!("full logging 1/256 but with the largest log memory and the slowest");
    println!("failure-free run (determinant writes).");

    if trace_out.is_some() || sample_out.is_some() {
        export_telemetry(
            &specs[1],
            &records[1],
            &victims,
            trace_out.as_deref(),
            sample_out.as_deref(),
        );
    }
}

/// Re-run the failed HydEE cell with recorders attached, check the trace
/// against the schema *and* against the recovery choreography the run
/// must have produced, then write the artefacts.
fn export_telemetry(
    spec: &scenario::ScenarioSpec,
    untraced: &scenario::RunRecord,
    victims: &[u32],
    trace_out: Option<&std::path::Path>,
    sample_out: Option<&std::path::Path>,
) {
    assert_eq!(spec.label(), untraced.scenario, "spec/record pairing");
    let (span_rec, trace) = SpanRecorder::new();
    let (sampler, samples) = Sampler::new(SimDuration::from_ms(1));
    let fanout = Fanout::new()
        .push(Box::new(span_rec))
        .push(Box::new(sampler));
    let traced = Executor::run_one_with_recorder(spec, Some(Box::new(fanout)));
    assert_eq!(
        traced.digest, untraced.digest,
        "tracing changed the digest — recorder neutrality broken"
    );

    // The failed cluster(s), from the same clustering the spec resolves.
    let app = spec.workload.build();
    let map = spec.clusters.resolve(&app);
    let expected: BTreeSet<u64> = victims
        .iter()
        .map(|&v| map.cluster_of(Rank(v)) as u64 + 1) // cluster c → tid c+1
        .collect();
    for phase in ["detect", "rollback", "replay", "complete"] {
        let tids: BTreeSet<u64> = trace
            .events()
            .iter()
            .filter(|e| e.name == phase)
            .map(|e| e.tid)
            .collect();
        assert_eq!(
            tids, expected,
            "`{phase}` events must appear on exactly the failed cluster track(s)"
        );
    }

    let json = trace.to_chrome_json();
    let stats = telemetry::validate_chrome_trace(&json).expect("trace validates");
    if let Some(path) = trace_out {
        std::fs::write(path, &json)
            .unwrap_or_else(|e| fail_usage(&format!("write {}: {e}", path.display())));
        println!(
            "trace: {} ({} spans, {} instants, {} tracks) — load in https://ui.perfetto.dev",
            path.display(),
            stats.spans,
            stats.instants,
            stats.tracks
        );
    }
    if let Some(path) = sample_out {
        let rows = samples.rows();
        std::fs::write(path, samples.to_jsonl())
            .unwrap_or_else(|e| fail_usage(&format!("write {}: {e}", path.display())));
        println!(
            "samples: {} ({} rows, 1 ms virtual interval)",
            path.display(),
            rows.len()
        );
    }
}
