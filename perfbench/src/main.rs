//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up, runs one untimed warm-up simulation, then
//! repeats rounds of one simulation and a batch of set-ups until
//! `--seconds` are used (at least [`MIN_ROUNDS`] rounds) and reports
//! medians. With `--trace 1` every round also runs the traced simulation,
//! and the per-layer split is reported instead of the end-to-end metrics.
//! Every simulation is checked; the last line of standard output is the
//! JSON result.

use perfbench::host;
use perfbench::measure::{self, Prepared, SetupTimes, Timing, Traced};
use perfbench::timed::Hook;
use perfbench::workload::{Workload, TIMED_SEED};
use scenario::ScenarioSpec;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Simulation rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Set-up is repeated in a batch after every simulation round. A batch
/// runs at least this many set-ups ...
const MIN_SETUP_BATCH: usize = 3;
/// ... and goes on until this much time is spent.
const SETUP_BATCH: Duration = Duration::from_millis(400);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Simulations attempted and failed; every failure is reported on stderr.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: {what}: {e}");
        }
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Bit-identical digests, metrics and event counts.
fn same_run(a: &mps_sim::RunReport, b: &mps_sim::RunReport) -> Result<(), String> {
    let metrics =
        |r: &mps_sim::RunReport| serde_json::to_string(&r.metrics).expect("metrics serialise");
    if a.digests != b.digests {
        return Err("digests differ from the untraced run".into());
    }
    if metrics(a) != metrics(b) {
        return Err("metrics differ from the untraced run".into());
    }
    Ok(())
}

/// One batch of timed set-ups: pushes the batch's mean time per layer
/// and returns the last set-up's output and the batch size. The median
/// over batches is the reported set-up time. A millisecond set-up flips
/// between a fast and a ~2x slower mode as the host's state changes, so
/// the median of single set-ups jumps between modes from run to run; a
/// batch averages the flips the way one long simulation does, and its
/// place after each round samples the whole run.
fn setup_batch(spec: &ScenarioSpec, batches: &mut Vec<SetupTimes>) -> (Prepared, usize) {
    let started = Instant::now();
    let mut sum = SetupTimes::default();
    let mut reps = 0;
    loop {
        let (prep, t) = measure::setup(spec);
        sum.build += t.build;
        sum.resolve += t.resolve;
        sum.topology += t.topology;
        reps += 1;
        if reps >= MIN_SETUP_BATCH && started.elapsed() >= SETUP_BATCH {
            let n = reps as u32;
            batches.push(SetupTimes {
                build: sum.build / n,
                resolve: sum.resolve / n,
                topology: sum.topology / n,
            });
            return (prep, reps);
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One untraced simulation round.
struct Round {
    timing: Timing,
    events: u64,
}

fn end_to_end(rounds: &[Round], setups: &[SetupTimes], peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric(
            "events_per_s",
            median(rounds.iter().map(|r| r.events as f64 / secs(r.timing.wall))),
            "1/s",
        ),
        metric(
            "sim_wall_s",
            median(rounds.iter().map(|r| secs(r.timing.wall))),
            "s",
        ),
        metric(
            "cpu_s",
            median(rounds.iter().map(|r| secs(r.timing.cpu))),
            "s",
        ),
        metric(
            "setup_s",
            median(setups.iter().map(|t| secs(t.total()))),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// The per-layer split: medians over the set-ups and the traced rounds
/// (the counts repeat exactly from round to round).
fn per_layer(
    setups: &[SetupTimes],
    untraced: &[Round],
    traced: &[Traced],
    cost: (u64, Duration),
    serial_twin_wall: Option<Duration>,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Traced) -> f64| median(traced.iter().map(f));
    let setup = |f: &dyn Fn(&SetupTimes) -> Duration| median(setups.iter().map(|t| secs(f(t))));
    let mut out = vec![
        metric("workloads.build_s", setup(&|t| t.build), "s"),
        metric("clustering.resolve_s", setup(&|t| t.resolve), "s"),
        metric("net_model.topology_build_s", setup(&|t| t.topology), "s"),
    ];
    for hook in Hook::ALL {
        let i = hook as usize;
        let name = hook.name();
        out.push(metric(
            format!("hydee.{name}_s"),
            med(&|t| secs(t.hooks.time[i])),
            "s",
        ));
        out.push(metric(
            format!("hydee.{name}_calls"),
            med(&|t| t.hooks.calls[i] as f64),
            "count",
        ));
    }
    let events = |t: &Traced| t.report.metrics.events as f64;
    let run_s = med(&|t| secs(t.timing.wall));
    out.extend([
        metric("mps_sim.run_s", run_s, "s"),
        metric(
            "mps_sim.self_s",
            med(&|t| secs(t.timing.wall.saturating_sub(t.hooks.total_time()))),
            "s",
        ),
        metric(
            "mps_sim.ns_per_event",
            med(&|t| 1e9 * secs(t.timing.wall) / events(t)),
            "ns",
        ),
        metric("mps_sim.events", med(&events), "count"),
        metric(
            "mps_sim.peak_queue_depth",
            med(&|t| t.gauges.peak_queue_depth as f64),
            "count",
        ),
        metric(
            "mps_sim.peak_inflight_msgs",
            med(&|t| t.gauges.peak_inflight_msgs as f64),
            "count",
        ),
        metric("net_model.cost_calls", cost.0 as f64, "count"),
        metric("net_model.cost_s", secs(cost.1), "s"),
    ]);
    let untraced_wall = median(untraced.iter().map(|r| secs(r.timing.wall)));
    let barrier_rounds = med(&|t| t.report.barrier_rounds as f64);
    // Thread CPU times come from the untraced rounds: in the traced run
    // every shard takes the shared recorder's lock once per event. A
    // serial run has no coordinator and no workers.
    let sharded = traced.iter().all(|t| t.report.shards > 1);
    let thread_cpu = |f: &dyn Fn(&Timing) -> Duration| {
        if sharded {
            median(untraced.iter().map(|r| secs(f(&r.timing))))
        } else {
            0.0
        }
    };
    out.extend([
        metric(
            "par_sim.coordinator_cpu_s",
            thread_cpu(&|t| t.caller_cpu),
            "s",
        ),
        metric(
            "par_sim.worker_cpu_s",
            thread_cpu(&|t| t.cpu.saturating_sub(t.caller_cpu)),
            "s",
        ),
        metric("par_sim.barrier_rounds", barrier_rounds, "count"),
        metric(
            "par_sim.events_per_window",
            if barrier_rounds == 0.0 {
                0.0
            } else {
                med(&events) / barrier_rounds
            },
            "count",
        ),
        metric(
            "par_sim.speedup_vs_serial",
            serial_twin_wall.map_or(1.0, |w| secs(w) / untraced_wall),
            "x",
        ),
        metric(
            "tracing.overhead_pct",
            100.0 * (run_s / untraced_wall - 1.0),
            "%",
        ),
    ]);
    out
}

fn print_result(ops: &Ops, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (wl, seed) = (args.workload, args.seed);
    let spec = wl.spec(TIMED_SEED);
    if spec.shards > host::nproc() {
        eprintln!(
            "perfbench: warning: {} shards on {} core(s) time the OS scheduler, not the engine",
            spec.shards,
            host::nproc()
        );
    }

    let mut setups = Vec::new();
    let (prep, mut setup_reps) = setup_batch(&spec, &mut setups);
    let mut ops = Ops::default();
    let (warm, _) = measure::run_untraced(&spec, &prep);
    ops.record("warm-up", wl.check(TIMED_SEED, &warm));
    drop(warm);

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut cost = (0, Duration::ZERO);
    // Peak RSS after a fixed amount of work: the process's peak creeps up
    // by a few MiB over repeated simulations, so a reading at the end
    // would follow the round count, that is the host's speed.
    let mut peak_rss_mb = 0.0;
    loop {
        let (report, timing) = measure::run_untraced(&spec, &prep);
        ops.record("simulation", wl.check(TIMED_SEED, &report));
        eprintln!(
            "perfbench: round {}: wall {:.4} s, cpu {:.4} s",
            untraced.len() + 1,
            secs(timing.wall),
            secs(timing.cpu)
        );
        untraced.push(Round {
            timing,
            events: report.metrics.events,
        });
        if args.trace {
            let mut t = measure::run_traced(&spec, &prep, traced.is_empty());
            ops.record(
                "traced simulation",
                wl.check(TIMED_SEED, &t.report)
                    .and_then(|()| same_run(&report, &t.report)),
            );
            if traced.is_empty() {
                cost = measure::replay_costs(&prep.topology, &t.gauges.sends);
                t.gauges.sends = Vec::new();
            }
            traced.push(t);
        }
        setup_reps += setup_batch(&spec, &mut setups).1;
        if untraced.len() == MIN_ROUNDS {
            peak_rss_mb = host::peak_rss_mb();
        }
        let rounds = untraced.len() as u32;
        let elapsed = started.elapsed();
        if rounds as usize >= MIN_ROUNDS && elapsed + elapsed / rounds > budget {
            break;
        }
    }

    let metrics = if args.trace {
        // The speed-up base: the same run on the serial engine, traced
        // runs only.
        let twin = (spec.shards > 1).then(|| {
            let serial = spec.clone().with_shards(1);
            let (report, timing) = measure::run_untraced(&serial, &prep);
            let reference = &traced.last().expect("traced round").report;
            ops.record("serial twin", same_run(reference, &report));
            timing.wall
        });
        per_layer(&setups, &untraced, &traced, cost, twin)
    } else {
        end_to_end(&untraced, &setups, peak_rss_mb)
    };
    // The held-out check runs after every metric is taken, so the seed's
    // failure draw moves none of them (peak RSS included).
    let held_out = wl.spec(seed);
    if held_out != spec {
        let (report, _) = measure::run_untraced(&held_out, &prep);
        ops.record("held-out seed", wl.check(seed, &report));
    }
    println!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"revision\": \"{}\", \"setup_reps\": {}, \"sim_reps\": {}, \"traced_reps\": {}, \"shards\": {}}}}}",
        wl.name(),
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::revision(),
        setup_reps,
        untraced.len(),
        traced.len(),
        spec.shards,
    );
    print_result(&ops, &metrics);
    ExitCode::SUCCESS
}
