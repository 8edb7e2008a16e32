//! **perf_baseline** — the CI-gated engine throughput baseline.
//!
//! Runs the fixed macro matrix of [`bench::perf`] (1024-rank stencil
//! native, the same under clustered HydEE, a 256-rank CG
//! checkpoint/failure/recovery run, the waste-frontier pair, and the
//! long-horizon 4096-rank stencil that only the streaming program API
//! fits in memory — serial, on the sharded parallel engine whose digest
//! must match bit-for-bit, and sharded once more under a fat-tree
//! topology whose per-class lookahead must cut barrier rounds), times
//! the simulation phase of each cell — once bare
//! and once with a no-op telemetry recorder attached — and writes
//! `BENCH_engine.json` — wall time, events/sec, recorder overhead,
//! program-representation bytes (streamed vs unrolled), peak RSS and the
//! determinism digests — in a stable schema CI can diff. The aggregate
//! recorder overhead is gated at `perf::MAX_RECORDER_OVERHEAD_PCT`.
//!
//! ```text
//! perf_baseline [--out DIR] [--repeat N] [--check FILE] [--tolerance F]
//! ```
//!
//! * `--out DIR` — where to write `BENCH_engine.json`, before any gate
//!   runs, so a failing run still leaves its report [default: `.`]
//! * `--repeat N` — simulations per cell, fastest kept [default: 3]
//! * `--check FILE` — compare against a committed baseline; exit 1 on a
//!   throughput regression beyond the tolerance or on any digest drift,
//!   exit 2 (before running anything) if the file is malformed or a cell
//!   lacks a gated field. Every gate prints its verdict before the exit,
//!   the baseline's deterministic drift first
//! * `--tolerance F` — fractional regression gate [default: 0.20]
//!
//! Run: `cargo run -p bench --release --bin perf_baseline`

use bench::perf::{self, macro_matrix};
use bench::Table;
use std::path::PathBuf;

fn fail<T>(msg: &str) -> T {
    eprintln!("perf_baseline: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from(".");
    let mut repeat = 3u32;
    let mut check: Option<PathBuf> = None;
    let mut tolerance = 0.20f64;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(value("--out")),
            "--repeat" => {
                let v = value("--repeat");
                repeat = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --repeat `{v}`")));
            }
            "--check" => check = Some(PathBuf::from(value("--check"))),
            "--tolerance" => {
                let v = value("--tolerance");
                tolerance = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --tolerance `{v}`")));
            }
            "-h" | "--help" => {
                println!("perf_baseline [--out DIR] [--repeat N] [--check FILE] [--tolerance F]");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    // Parse the baseline before minutes of simulation: a malformed one is
    // an input error (exit 2) up front.
    let baseline = check.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())));
        let baseline = perf::parse_baseline(&text)
            .unwrap_or_else(|e| fail(&format!("baseline {}: {e}", path.display())));
        if baseline.cells.is_empty() {
            fail::<()>(&format!("no cells found in baseline {}", path.display()));
        }
        (path, baseline)
    });

    let cells = macro_matrix();
    println!(
        "perf_baseline: {} cells, repeat={repeat} (fastest kept)",
        cells.len()
    );
    let report = perf::run_matrix(&cells, repeat);

    let mut table = Table::new(&[
        "cell",
        "ranks",
        "shards",
        "events",
        "sim wall (s)",
        "events/sec",
        "rec ovh %",
        "ckpts",
        "waste",
        "digest",
    ]);
    for c in &report.cells {
        assert!(c.completed, "{}: simulation did not complete", c.name);
        assert!(c.trace_consistent, "{}: trace oracle violations", c.name);
        table.row(&[
            c.name.clone(),
            c.n_ranks.to_string(),
            c.shards.to_string(),
            c.events.to_string(),
            format!("{:.3}", c.sim_wall_s),
            format!("{:.0}", c.events_per_sec),
            format!("{:+.2}", c.recorder_overhead_pct),
            c.checkpoints.to_string(),
            format!("{:.4}", c.waste_fraction),
            format!("{:#018x}", c.digest),
        ]);
    }
    table.print();

    // Write the report before any gate can exit: a failing run's fresh
    // numbers are what the next baseline is regenerated from.
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| fail(&format!("create {}: {e}", out_dir.display())));
    let path = out_dir.join("BENCH_engine.json");
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&path, format!("{json}\n"))
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
    println!("wrote {}", path.display());

    println!(
        "aggregate: {:.0} events/sec over {} events, peak RSS {:.1} MB",
        report.aggregate_events_per_sec,
        report.total_events,
        report.peak_rss_bytes as f64 / 1e6
    );

    // Every gate reports before any exit, deterministic drift against
    // the baseline first, so a slow host cannot hide a digest change.
    let mut failed = false;
    let mut gate = |violations: Vec<String>, ok: String| {
        if violations.is_empty() {
            println!("{ok}");
        }
        for v in &violations {
            eprintln!("perf_baseline: {v}");
        }
        failed |= !violations.is_empty();
    };

    if let Some((baseline_path, baseline)) = &baseline {
        let violations = perf::check_against(baseline, &report, tolerance);
        if !violations.is_empty() {
            eprintln!("gate: FAILED against {}", baseline_path.display());
        }
        gate(
            violations,
            format!(
                "gate: OK against {} ({} cells, tolerance {:.0}%)",
                baseline_path.display(),
                baseline.cells.len(),
                tolerance * 100.0
            ),
        );
    }

    let cell = |name: &str| {
        report
            .cells
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| fail(&format!("missing cell `{name}`")))
    };

    // The §VI frontier acceptance: the adaptive Young/Daly policy must
    // waste less of the machine than the aggressive fixed interval it
    // shares the waste_frontier workload with.
    let fixed = cell("waste_frontier_fixed1ms");
    let young = cell("waste_frontier_young_daly");
    let frontier = format!(
        "young-daly {:.4} vs fixed-1ms {:.4}",
        young.waste_fraction, fixed.waste_fraction
    );
    gate(
        if young.waste_fraction < fixed.waste_fraction {
            Vec::new()
        } else {
            vec![format!(
                "waste frontier: young-daly must waste less: {frontier}"
            )]
        },
        format!("waste frontier: {frontier}"),
    );

    // The topology gate (DESIGN.md §2.9): the fat-tree sharded cell's
    // per-link-class lookahead must need strictly fewer barrier rounds
    // than the flat cell's scalar. Machine-independent, always enforced.
    let par = cell(perf::PAR_SHARDED_CELL);
    let tiered = cell(perf::PAR_TOPOLOGY_CELL);
    gate(
        perf::check_topology_lookahead(&report),
        format!(
            "topology lookahead: {} barrier rounds under `{}` vs {} flat (strict reduction)",
            tiered.barrier_rounds, tiered.topology, par.barrier_rounds
        ),
    );

    // The parallel-engine acceptance pair (DESIGN.md §2.8): digest
    // equality with the serial oracle is enforced everywhere; the
    // speedup floor only where the host has cores for the shards.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = cell(perf::PAR_SERIAL_CELL);
    gate(
        perf::check_parallel_speedup(&report, perf::MIN_PAR_SPEEDUP, cores),
        if cores >= par.shards.max(1) as usize {
            format!(
                "parallel engine: {:.2}x at {} shards over {} barrier rounds (gate {:.1}x), \
                 digest equal",
                par.events_per_sec / serial.events_per_sec.max(1e-9),
                par.shards,
                par.barrier_rounds,
                perf::MIN_PAR_SPEEDUP
            )
        } else {
            format!(
                "parallel engine: digest equal at {} shards over {} barrier rounds; speedup \
                 gate skipped ({cores} core(s) detected, need {})",
                par.shards, par.barrier_rounds, par.shards
            )
        },
    );

    // Telemetry must be free when off: every cell was also timed with a
    // no-op recorder attached (digest equality asserted inside run_cell),
    // and the aggregate slowdown has a hard ceiling.
    gate(
        perf::check_recorder_overhead(&report, perf::MAX_RECORDER_OVERHEAD_PCT)
            .into_iter()
            .collect(),
        format!(
            "recorder overhead: {:+.2}% aggregate (gate {:.0}%)",
            report.recorder_overhead_pct,
            perf::MAX_RECORDER_OVERHEAD_PCT
        ),
    );

    if failed {
        std::process::exit(1);
    }
}
