//! **sweep** — run any cross-product of the experiment matrix from the
//! command line, or a whole checked-in suite file.
//!
//! ```text
//! sweep --suite suites/fig5.suite [--scenario NAME ...] [--max-cells N]
//!       [--cache DIR]
//! sweep --workloads nas:CG:scale=0.015625,netpipe:1024 \
//!       --protocols native,hydee --clusters per-rank,part:16 \
//!       --networks mx,tcp --ckpt-ms none,100 \
//!       --fail none --fail 195:7 --fail poisson:mtbf=500:seed=7 \
//!       [--static] [--serial] [--image-bytes N] [--max-events N] \
//!       [--out DIR] [--name NAME] [--list]
//! sweep --serve <spool-dir|host:port> [--store DIR] [--out DIR]
//! sweep submit <suite-file> [--addr A] [--priority P] [--wait]
//! sweep status [JOB] | cancel JOB | result JOB | stats | shutdown
//! ```
//!
//! `--suite` loads a declarative suite file (DESIGN.md §2.6,
//! `suites/example.suite` is a commented tour): named scenarios with
//! `[defaults]` inheritance and `include` composition, compiled to the
//! same matrix the axis flags build. `--scenario` filters to named
//! scenarios, `--max-cells` truncates the cell list (CI smoke mode).
//! Axis flags and `--suite` are mutually exclusive.
//!
//! Workload names follow the `workloads::registry` grammar (`--list`
//! prints it with examples). Each `--fail` flag adds one *failure model*
//! to the matrix axis: `none`, a comma-separated fixed schedule of
//! injections (`fail@<t>us:r<r>[+<r>...]`, `<t>us:`/`<t>ms:` forms, or
//! the legacy bare-`<ms>:<rank>`), or a stochastic regime
//! (`poisson:`/`cluster:`/`cascade:` — see `FailureModelSpec::parse`).
//! Results go to `<out>/<name>_records.{jsonl,csv}` plus a rendered table
//! and per-(workload, protocol) summary on stdout.
//!
//! Run: `cargo run -p bench --release --bin sweep -- --help`

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bench::Table;
use scenario::{
    CheckpointPolicySpec, ClusterStrategy, Executor, FailureModelSpec, Matrix, MatrixSummary,
    NetworkSpec, ProtocolSpec, StorageSpec, Suite, TopologySpec, DEFAULT_IMAGE_BYTES,
};
use sweep_server::{Client, RunStore, Server};
use workloads::WorkloadSpec;

/// Default TCP address for the service subcommands; override with
/// `--addr` or `HYDEE_SWEEP_ADDR`.
const DEFAULT_ADDR: &str = "127.0.0.1:7077";

const USAGE: &str = "\
sweep — declarative experiment sweeps over the HydEE reproduction

USAGE:
    sweep [OPTIONS]

SUITE MODE (mutually exclusive with the axis flags below):
    --suite <file>        run a declarative suite file (DESIGN.md §2.6;
                          see suites/example.suite): named scenarios,
                          [defaults] inheritance, include composition
    --scenario <name>     run only this scenario of the suite
                          (repeatable)
    --max-cells <n>       truncate the suite to its first n cells
                          (CI smoke mode; cells are cached individually,
                          so truncation never poisons a --cache store)

SERVICE MODE (simulation as a service — DESIGN.md §2.7):
    --cache <dir>         run this sweep through a content-addressed run
                          store at <dir>: cells already in the store are
                          served from cache bit-identically, only new
                          cells simulate
    --serve <target>      run resident: <target> is either host:port
                          (TCP line-delimited JSON protocol) or a spool
                          directory to watch for *.suite files (a `stop`
                          file shuts it down)
    --store <dir>         run store for --serve [default: <out>/store]

    sweep submit <suite-file> [--name N] [--priority P] [--max-cells N]
                 [--wait] [--record-out F]     queue a suite on a server
    sweep status [JOB]                         one job or all jobs
    sweep cancel JOB                           cancel queued/running job
    sweep result JOB [--record-out F]          terminal job's records
    sweep stats                                store hit/miss counters
    sweep shutdown                             stop a TCP server
    (all take --addr <host:port>; default $HYDEE_SWEEP_ADDR or
     127.0.0.1:7077)

OPTIONS (comma-separate values; every combination runs):
    --workloads <w,...>   workload registry names [default: netpipe:1024]
    --protocols <p,...>   native | hydee | coordinated | event-logged
                          [default: native,hydee]
    --clusters <c,...>    single | per-rank | blocks:K | part:K (or blocksK, partK)
                          [default: single]
    --networks <n,...>    mx | tcp [default: mx]
    --topologies <t,...>  flat | two-level | fat-tree:<k> | dragonfly:<g>
                          [default: flat] — endpoint-aware pricing over
                          the cell's cluster map (DESIGN.md §2.9)
    --topology <t>        add one topology to the axis (repeatable;
                          shares the --topologies axis)
    --ckpt-ms <v,...>     none or an interval in ms; overrides protocols'
                          checkpointing [default: leave as configured]
    --ckpt-policy <p>     add one checkpoint policy to the axis
                          (repeatable, shares the --ckpt-ms axis):
                            none
                            periodic:interval=<ms>[:first=<ms>][:stagger=<ms>]
                            young-daly[:first=<ms>][:stagger=<ms>]
                            log-pressure:budget=<bytes>
    --fail <model>        add one failure model to the axis (repeatable):
                            none
                            fixed schedule: comma list of injections, each
                              fail@<t>us:r<r>[+<r>...] | <t>us:<r> |
                              <t>ms:<r> | <ms>:<r>  (legacy)
                            poisson:mtbf=<ms>:seed=<n>[:max=<n>]
                            cluster:mtbf=<ms>:seed=<n>[:max=<n>]
                            cascade:mtbf=<ms>:seed=<n>[:window=<us>]
                              [:follow=<pct>][:max=<n>]
    --image-bytes <n>     per-rank checkpoint image size [default: 1048576]
    --static              static clustering analysis only (no simulation)
    --serial              run on one core (reference mode)
    --max-events <n>      engine event-limit override
    --shards <n>          run every cell on the parallel engine with n
                          cluster shards (DESIGN.md §2.8; clamped to each
                          cell's cluster count, serial fallback under
                          failure models — results are bit-for-bit
                          identical either way). In suite mode this
                          overrides any `shards =` keys in the file
    --progress            live progress on stderr (one line per finished
                          cell: done/total, running, events/sec, ETA)
    --progress-out <f>    machine-readable progress heartbeats as JSONL
                          (one object per cell start/completion)
    --trace-out <f>       write a Perfetto-loadable Chrome trace-event
                          JSON of the run (matrix must be exactly one
                          simulated cell); validated before writing
    --sample-out <f>      write virtual-time series samples (JSONL, 1 ms
                          grid) of the run (single-cell matrices only)
    --out <dir>           results directory [default: $HYDEE_RESULTS_DIR or ./results]
    --name <name>         results file stem [default: sweep]
    --list                print known workload families/examples and exit
    -h, --help            this message

EXAMPLES:
    A whole checked-in study:
      sweep --suite suites/fig5.suite
    One scenario of it, traced:
      sweep --suite suites/fig5.suite --scenario log --max-cells 1 \\
            --trace-out fig5_log.trace.json
    Figure 6 in one line:
      sweep --workloads nas:BT:scale=0.015625,nas:CG:scale=0.015625 \\
            --protocols native,hydee --clusters per-rank,part:16
    Containment under a stochastic failure regime:
      sweep --workloads stencil:64x400 --protocols hydee,coordinated \\
            --clusters part:8 --ckpt-ms 5 \\
            --fail poisson:mtbf=2000:seed=7:max=4";

fn fail<T>(msg: &str) -> T {
    eprintln!("sweep: {msg}");
    eprintln!("run `sweep --help` for usage");
    std::process::exit(2);
}

fn split_csv(v: &str) -> Vec<&str> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn parse_protocol(name: &str, image_bytes: u64) -> ProtocolSpec {
    let storage = StorageSpec::Default;
    match name {
        "native" => ProtocolSpec::Native,
        "hydee" => ProtocolSpec::Hydee {
            checkpoint: CheckpointPolicySpec::None,
            image_bytes,
            storage,
            gc: true,
        },
        "coordinated" => ProtocolSpec::Coordinated {
            checkpoint: CheckpointPolicySpec::None,
            image_bytes,
            storage,
        },
        "event-logged" => ProtocolSpec::EventLogged {
            checkpoint: CheckpointPolicySpec::None,
            image_bytes,
            storage,
        },
        other => fail(&format!("unknown protocol `{other}`")),
    }
}

fn parse_clusters(name: &str) -> ClusterStrategy {
    ClusterStrategy::parse(name).unwrap_or_else(|e| fail(&e))
}

fn parse_failure_model(arg: &str) -> FailureModelSpec {
    FailureModelSpec::parse(arg).unwrap_or_else(|e| fail(&e))
}

fn list_registry() {
    println!(
        "workload registry families: {}",
        workloads::registry::FAMILIES.join(", ")
    );
    println!();
    println!("examples:");
    for example in [
        "nas:CG",
        "nas:LU:scale=0.015625:iters=10",
        "netpipe:1024",
        "netpipe:8388608:rounds=5",
        "stencil:64x400:face=262144:compute_us=500",
        "stencil:16x10:wildcard",
        "master_worker:8:tasks=4",
    ] {
        let spec = WorkloadSpec::parse(example).expect("example parses");
        println!("  {example:<45} -> {} ranks", spec.n_ranks());
    }
}

/// `--serve` entry point: open the store, pick TCP vs spool by the shape
/// of `target` (a colon means host:port), serve until shutdown.
fn run_serve(target: &str, store_dir: &Path, results_dir: &Path) {
    let store = Arc::new(
        RunStore::open(store_dir)
            .unwrap_or_else(|e| fail(&format!("open run store {}: {e}", store_dir.display()))),
    );
    let load = store.load_report();
    println!(
        "sweep: run store {} — {} record(s) in {} segment(s){}",
        store_dir.display(),
        load.loaded,
        load.segments,
        if load.skipped > 0 {
            format!(", {} corrupt line(s) skipped", load.skipped)
        } else {
            String::new()
        }
    );
    let server = Server::new(store, Some(results_dir.to_path_buf()));
    if target.contains(':') {
        let listener = std::net::TcpListener::bind(target)
            .unwrap_or_else(|e| fail(&format!("bind {target}: {e}")));
        let addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| target.to_string());
        println!(
            "sweep: serving on {addr} (results -> {})",
            results_dir.display()
        );
        server
            .run_tcp(listener)
            .unwrap_or_else(|e| fail(&format!("serve {addr}: {e}")));
    } else {
        println!(
            "sweep: watching spool {target}/ for *.suite files \
             (results -> {}; `touch {target}/stop` to quit)",
            results_dir.display()
        );
        server
            .run_spool(Path::new(target))
            .unwrap_or_else(|e| fail(&format!("serve spool {target}: {e}")));
    }
    println!("sweep: server stopped");
}

fn service_addr(flag: Option<String>) -> String {
    flag.or_else(|| std::env::var("HYDEE_SWEEP_ADDR").ok())
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

/// Print a terminal job's summary (stderr) and records (stdout or file).
/// Exits nonzero for a failed job so CI can gate on it.
fn print_job_result(
    id: u64,
    status: &telemetry::json::Value,
    records: &[String],
    record_out: Option<&str>,
) {
    use telemetry::json::Value;
    let state = status.get("state").and_then(Value::as_str).unwrap_or("?");
    let hits = status.get("hits").and_then(Value::as_u64).unwrap_or(0);
    let misses = status.get("misses").and_then(Value::as_u64).unwrap_or(0);
    let wall = status.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0);
    eprintln!(
        "job {id}: {state} — {} record(s), {hits} cache hit(s), {misses} miss(es), {wall:.2}s wall",
        records.len()
    );
    let mut body = String::new();
    for raw in records {
        body.push_str(raw);
        body.push('\n');
    }
    match record_out {
        Some(path) => {
            std::fs::write(path, body.as_bytes())
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!("records -> {path}");
        }
        None => print!("{body}"),
    }
    if state != "done" {
        if let Some(err) = status.get("error").and_then(Value::as_str) {
            eprintln!("error: {err}");
        }
        std::process::exit(1);
    }
}

/// The client subcommands: `sweep submit/status/cancel/result/stats/shutdown`.
fn service_command(cmd: &str, args: &[String]) {
    use telemetry::json::Value;
    let mut addr: Option<String> = None;
    let mut name: Option<String> = None;
    let mut priority: i64 = 0;
    let mut max_cells: Option<usize> = None;
    let mut wait = false;
    let mut record_out: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--name" => name = Some(value("--name")),
            "--priority" => {
                let v = value("--priority");
                priority = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --priority `{v}`")));
            }
            "--max-cells" => {
                let v = value("--max-cells");
                max_cells = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("bad --max-cells `{v}`"))),
                );
            }
            "--wait" => wait = true,
            "--record-out" => record_out = Some(value("--record-out")),
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => fail(&format!("unknown flag `{other}` for `sweep {cmd}`")),
        }
    }
    let client = Client::new(service_addr(addr));
    let job_arg = |positional: &[String]| -> u64 {
        let raw = positional
            .first()
            .unwrap_or_else(|| fail(&format!("`sweep {cmd}` needs a job id")));
        raw.parse()
            .unwrap_or_else(|_| fail(&format!("bad job id `{raw}`")))
    };
    match cmd {
        "submit" => {
            let path = positional
                .first()
                .unwrap_or_else(|| fail("`sweep submit` needs a suite file"));
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            // Parse locally first: a bad suite fails here with line/column
            // diagnostics instead of as a `failed` job on the server.
            let suite = Suite::parse_str(&text, path).unwrap_or_else(|e| fail(&e.to_string()));
            let job_name = name.unwrap_or_else(|| suite.name.clone());
            let id = client
                .submit(&job_name, &text, priority, max_cells)
                .unwrap_or_else(|e| fail(&e));
            eprintln!("job {id} queued ({job_name}, priority {priority})");
            println!("{id}");
            if wait {
                let (status, records) = client
                    .wait(id, std::time::Duration::from_secs(3600))
                    .unwrap_or_else(|e| fail(&e));
                print_job_result(id, &status, &records, record_out.as_deref());
            }
        }
        "status" => {
            let job = positional.first().map(|raw| {
                raw.parse()
                    .unwrap_or_else(|_| fail(&format!("bad job id `{raw}`")))
            });
            let rows = client.status(job).unwrap_or_else(|e| fail(&e));
            let mut table = Table::new(&[
                "job", "name", "state", "prio", "cells", "hits", "misses", "wall (s)",
            ]);
            for row in &rows {
                let u = |k: &str| row.get(k).and_then(Value::as_u64).unwrap_or(0);
                table.row(&[
                    u("id").to_string(),
                    row.get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .into(),
                    row.get("state")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .into(),
                    row.get("priority")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                        .to_string(),
                    format!("{}/{}", u("completed"), u("total")),
                    u("hits").to_string(),
                    u("misses").to_string(),
                    format!(
                        "{:.2}",
                        row.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0)
                    ),
                ]);
            }
            table.print();
        }
        "cancel" => {
            let id = job_arg(&positional);
            let accepted = client.cancel(id).unwrap_or_else(|e| fail(&e));
            println!(
                "job {id}: {}",
                if accepted {
                    "cancellation requested"
                } else {
                    "already terminal"
                }
            );
        }
        "result" => {
            let id = job_arg(&positional);
            let (status, records) = client.result(id).unwrap_or_else(|e| fail(&e));
            print_job_result(id, &status, &records, record_out.as_deref());
        }
        "stats" => {
            let (entries, hits, misses) = client.stats().unwrap_or_else(|e| fail(&e));
            println!("store: {entries} record(s), {hits} hit(s), {misses} miss(es)");
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(&e));
            println!("server shutting down");
        }
        _ => unreachable!("dispatcher only routes known subcommands"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Service subcommands talk to a resident `sweep --serve` instance.
    if let Some(cmd) = args.first() {
        match cmd.as_str() {
            "submit" | "status" | "cancel" | "result" | "stats" | "shutdown" => {
                return service_command(cmd, &args[1..]);
            }
            _ => {}
        }
    }
    let mut workloads_arg = "netpipe:1024".to_string();
    let mut protocols_arg = "native,hydee".to_string();
    let mut clusters_arg = "single".to_string();
    let mut networks_arg = "mx".to_string();
    let mut topologies: Vec<TopologySpec> = Vec::new();
    let mut ckpt_arg: Option<String> = None;
    let mut ckpt_policies: Vec<CheckpointPolicySpec> = Vec::new();
    let mut failure_models: Vec<FailureModelSpec> = Vec::new();
    let mut image_bytes = DEFAULT_IMAGE_BYTES;
    let mut static_only = false;
    let mut serial = false;
    let mut max_events: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut suite_path: Option<String> = None;
    let mut scenarios: Vec<String> = Vec::new();
    let mut max_cells: Option<usize> = None;
    let mut axis_flags: Vec<&'static str> = Vec::new();
    let mut progress = false;
    let mut progress_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut sample_out: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut name: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut serve_target: Option<String> = None;
    let mut store_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--workloads" => {
                axis_flags.push("--workloads");
                workloads_arg = value("--workloads");
            }
            "--protocols" => {
                axis_flags.push("--protocols");
                protocols_arg = value("--protocols");
            }
            "--clusters" => {
                axis_flags.push("--clusters");
                clusters_arg = value("--clusters");
            }
            "--networks" => {
                axis_flags.push("--networks");
                networks_arg = value("--networks");
            }
            "--topologies" => {
                axis_flags.push("--topologies");
                for t in split_csv(&value("--topologies")) {
                    topologies.push(TopologySpec::parse(t).unwrap_or_else(|e| fail(&e)));
                }
            }
            "--topology" => {
                axis_flags.push("--topology");
                topologies
                    .push(TopologySpec::parse(&value("--topology")).unwrap_or_else(|e| fail(&e)));
            }
            "--ckpt-ms" => {
                axis_flags.push("--ckpt-ms");
                ckpt_arg = Some(value("--ckpt-ms"));
            }
            "--ckpt-policy" => {
                axis_flags.push("--ckpt-policy");
                ckpt_policies.push(
                    CheckpointPolicySpec::parse(&value("--ckpt-policy"))
                        .unwrap_or_else(|e| fail(&e)),
                );
            }
            "--fail" => {
                axis_flags.push("--fail");
                failure_models.push(parse_failure_model(&value("--fail")));
            }
            "--image-bytes" => {
                axis_flags.push("--image-bytes");
                let v = value("--image-bytes");
                image_bytes = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --image-bytes `{v}`")));
            }
            "--static" => {
                axis_flags.push("--static");
                static_only = true;
            }
            "--max-events" => {
                axis_flags.push("--max-events");
                let v = value("--max-events");
                max_events = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("bad --max-events `{v}`"))),
                );
            }
            "--shards" => {
                let v = value("--shards");
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --shards `{v}`")));
                if n == 0 {
                    fail::<()>("--shards must be at least 1");
                }
                shards = Some(n);
            }
            "--suite" => suite_path = Some(value("--suite")),
            "--scenario" => scenarios.push(value("--scenario")),
            "--max-cells" => {
                let v = value("--max-cells");
                max_cells = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("bad --max-cells `{v}`"))),
                );
            }
            "--serial" => serial = true,
            "--progress" => progress = true,
            "--progress-out" => progress_out = Some(value("--progress-out")),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--sample-out" => sample_out = Some(value("--sample-out")),
            "--out" => out_dir = Some(value("--out")),
            "--name" => name = Some(value("--name")),
            "--cache" => cache_dir = Some(value("--cache")),
            "--serve" => serve_target = Some(value("--serve")),
            "--store" => store_dir = Some(value("--store")),
            "--list" => {
                list_registry();
                return;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    if let Some(target) = &serve_target {
        if suite_path.is_some() || !axis_flags.is_empty() {
            fail::<()>("--serve runs resident; submit suites with `sweep submit` instead");
        }
        let results = out_dir
            .map(PathBuf::from)
            .unwrap_or_else(scenario::default_results_dir);
        let store = store_dir
            .map(PathBuf::from)
            .unwrap_or_else(|| results.join("store"));
        return run_serve(target, &store, &results);
    }
    if store_dir.is_some() {
        fail::<()>("--store only applies to --serve");
    }

    let specs = if let Some(path) = &suite_path {
        if !axis_flags.is_empty() {
            fail::<()>(&format!(
                "--suite is mutually exclusive with the axis flags ({}) — \
                 put the axes in the suite file instead",
                axis_flags.join(", ")
            ));
        }
        let suite = Suite::load(path).unwrap_or_else(|e| fail(&e.to_string()));
        let suite = if scenarios.is_empty() {
            suite
        } else {
            suite.select(&scenarios).unwrap_or_else(|e| fail(&e))
        };
        let mut cells = suite.cells();
        if let Some(cap) = max_cells {
            if cells.len() > cap {
                println!(
                    "sweep: --max-cells {cap} truncates {} of {} cell(s)",
                    cells.len() - cap,
                    cells.len()
                );
                cells.truncate(cap);
            }
        }
        if cells.is_empty() {
            fail::<()>(&format!("suite `{}` has no cells", suite.name));
        }
        println!(
            "sweep: suite `{}` — {} scenario(s), {} cell(s)",
            suite.name,
            suite.scenarios.len(),
            cells.len()
        );
        for sc in &suite.scenarios {
            let n = cells.iter().filter(|c| c.scenario == sc.name).count();
            println!("  {}: {} cell(s)", sc.name, n);
        }
        name.get_or_insert_with(|| suite.name.clone());
        let mut specs: Vec<_> = cells.into_iter().map(|c| c.spec).collect();
        // The CLI flag wins over `shards =` keys in the suite file, so
        // CI can rerun a checked-in suite on either engine unchanged.
        if let Some(n) = shards {
            for spec in &mut specs {
                spec.shards = n;
            }
        }
        specs
    } else {
        if !scenarios.is_empty() || max_cells.is_some() {
            fail::<()>("--scenario/--max-cells need --suite");
        }
        let mut matrix = Matrix::new()
            .workloads(
                split_csv(&workloads_arg)
                    .into_iter()
                    .map(|w| WorkloadSpec::parse(w).unwrap_or_else(|e| fail(&e))),
            )
            .protocols(
                split_csv(&protocols_arg)
                    .into_iter()
                    .map(|p| parse_protocol(p, image_bytes)),
            )
            .clusters(split_csv(&clusters_arg).into_iter().map(parse_clusters))
            .networks(split_csv(&networks_arg).into_iter().map(|n| match n {
                "mx" => NetworkSpec::Mx,
                "tcp" => NetworkSpec::Tcp,
                other => fail(&format!("unknown network `{other}`")),
            }))
            .topologies(topologies)
            .failure_models(failure_models);
        if let Some(ckpt) = &ckpt_arg {
            matrix = matrix.checkpoint_policies(split_csv(ckpt).into_iter().map(|c| {
                match c {
                    "none" => CheckpointPolicySpec::None,
                    ms => CheckpointPolicySpec::periodic(
                        ms.parse()
                            .unwrap_or_else(|_| fail(&format!("bad --ckpt-ms `{ms}`"))),
                    ),
                }
            }));
        }
        if !ckpt_policies.is_empty() {
            matrix = matrix.checkpoint_policies(ckpt_policies);
        }
        if static_only {
            matrix = matrix.static_analysis();
        }
        matrix.max_events = max_events;
        if let Some(n) = shards {
            matrix = matrix.shards(n);
        }
        matrix.expand()
    };
    // Warn about shard clamping up front (once per distinct message):
    // the engine clamps silently (the record's `shards` column reports
    // the effective count), so this is the only place the user hears it.
    {
        let mut warned = std::collections::BTreeSet::new();
        for spec in &specs {
            if spec.shards <= 1 {
                continue;
            }
            let n_clusters = spec.clusters.n_clusters_for(spec.workload.n_ranks());
            let (_, warning) = mps_sim::effective_shards(spec.shards, n_clusters);
            if let Some(w) = warning {
                let msg = format!("{} ({}): {w}", spec.clusters.name(), spec.workload.name());
                if warned.insert(msg.clone()) {
                    eprintln!("sweep: {msg}");
                }
            }
        }
    }
    let name = name.unwrap_or_else(|| "sweep".to_string());
    if specs.is_empty() {
        fail::<()>("matrix is empty (no workloads)");
    }
    println!(
        "sweep: {} scenario(s) ({} mode)",
        specs.len(),
        if serial { "serial" } else { "parallel" }
    );
    let executor = if serial {
        Executor::serial()
    } else {
        Executor::new()
    };
    let mut sinks = scenario::ProgressFanout::new();
    if progress {
        sinks = sinks.push(Box::new(scenario::HumanProgress));
    }
    if let Some(path) = &progress_out {
        let sink = scenario::JsonlProgress::create(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(&format!("create {path}: {e}")));
        sinks = sinks.push(Box::new(sink));
    }
    let tracing = trace_out.is_some() || sample_out.is_some();
    if tracing && cache_dir.is_some() {
        fail::<()>("--cache does not combine with --trace-out/--sample-out (recorders attach to live runs only)");
    }
    if tracing && (specs.len() != 1 || !specs[0].simulate) {
        fail::<()>(&format!(
            "--trace-out/--sample-out need a matrix of exactly one simulated cell \
             (this one has {})",
            specs.len()
        ));
    }
    let started = std::time::Instant::now();
    let records = if tracing {
        // Recorders attach to a single run; the recorder-neutrality suite
        // guarantees the record is identical to an untraced run.
        let (span_rec, trace) = telemetry::SpanRecorder::new();
        let (sampler, samples) = telemetry::Sampler::new(det_sim::SimDuration::from_ms(1));
        let fanout = telemetry::Fanout::new()
            .push(Box::new(span_rec))
            .push(Box::new(sampler));
        let records = if sinks.is_empty() {
            vec![Executor::run_one_with_recorder(
                &specs[0],
                Some(Box::new(fanout)),
            )]
        } else {
            vec![Executor::run_one_with_recorder_and_progress(
                &specs[0],
                Some(Box::new(fanout)),
                &sinks,
            )]
        };
        if let Some(path) = &trace_out {
            let json = trace.to_chrome_json();
            let stats = telemetry::validate_chrome_trace(&json)
                .unwrap_or_else(|e| fail(&format!("trace failed validation: {e}")));
            std::fs::write(path, &json).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            println!(
                "trace: {path} ({} spans, {} instants, {} tracks) — load in https://ui.perfetto.dev",
                stats.spans, stats.instants, stats.tracks
            );
        }
        if let Some(path) = &sample_out {
            std::fs::write(path, samples.to_jsonl())
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            println!("samples: {path} ({} rows)", samples.rows().len());
        }
        records
    } else if let Some(dir) = &cache_dir {
        let store = RunStore::open(Path::new(dir))
            .unwrap_or_else(|e| fail(&format!("open run store {dir}: {e}")));
        let load = store.load_report();
        if load.loaded > 0 || load.skipped > 0 {
            println!(
                "cache: {dir} — {} record(s) in {} segment(s){}",
                load.loaded,
                load.segments,
                if load.skipped > 0 {
                    format!(", {} corrupt line(s) skipped", load.skipped)
                } else {
                    String::new()
                }
            );
        }
        let sink: Option<&dyn scenario::ProgressSink> =
            if sinks.is_empty() { None } else { Some(&sinks) };
        let (records, stats) = executor.run_cached(&specs, &store, sink);
        println!(
            "cache: {} hit(s), {} miss(es) ({:.0}% hit)",
            stats.hits,
            stats.misses,
            stats.hit_pct()
        );
        records
    } else if sinks.is_empty() {
        executor.run(&specs)
    } else {
        executor.run_with_progress(&specs, &sinks)
    };
    let wall = started.elapsed();

    let dir = out_dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(scenario::default_results_dir);
    let stem = format!("{name}_records");
    let mut jsonl = scenario::JsonlSink::create(&dir, &stem)
        .unwrap_or_else(|e| fail(&format!("create {stem}.jsonl: {e}")));
    let mut csv = scenario::CsvSink::create(&dir, &stem)
        .unwrap_or_else(|e| fail(&format!("create {stem}.csv: {e}")));
    scenario::write_all(&records, &mut [&mut jsonl, &mut csv])
        .unwrap_or_else(|e| fail(&format!("write records: {e}")));

    let mut table = Table::new(&[
        "scenario",
        "ok",
        "makespan (s)",
        "logged %",
        "ckpts",
        "fails",
        "rolled back",
        "rolled %",
        "lost (s)",
        "events",
    ]);
    for r in &records {
        let logged_pct = if r.metrics.app_bytes > 0 {
            100.0 * r.metrics.logged_bytes_cumulative as f64 / r.metrics.app_bytes as f64
        } else {
            r.static_logged_pct
        };
        table.row(&[
            r.scenario.clone(),
            if !r.completed && r.status == "static" {
                "-".into()
            } else {
                r.completed.to_string()
            },
            format!("{:.4}", r.makespan_s),
            format!("{logged_pct:.1}%"),
            r.metrics.checkpoints.to_string(),
            r.metrics.failures.to_string(),
            r.metrics.ranks_rolled_back.to_string(),
            format!("{:.1}%", 100.0 * r.rollback_rank_fraction),
            format!("{:.4}", r.lost_work_s),
            r.metrics.events.to_string(),
        ]);
    }
    table.print();
    println!();
    let summary = MatrixSummary::from_records(&records);
    summary.table().print();
    println!();
    println!(
        "{} run(s), {} completed, {:.2}s simulated in {:.2}s wall -> {}/{name}_records.jsonl",
        summary.total_runs,
        summary.total_completed,
        summary.total_simulated_seconds,
        wall.as_secs_f64(),
        dir.display(),
    );
    let incomplete: Vec<&str> = records
        .iter()
        .filter(|r| !r.completed && r.status != "static")
        .map(|r| r.scenario.as_str())
        .collect();
    if !incomplete.is_empty() {
        eprintln!("sweep: {} scenario(s) did not complete:", incomplete.len());
        for s in incomplete {
            eprintln!("  {s}");
        }
        std::process::exit(1);
    }
}
