//! Named workload registry — the declarative face of this crate.
//!
//! Every workload the evaluation uses is describable as a small value
//! ([`WorkloadSpec`]) with a canonical name, parseable back from that
//! name. The `scenario` crate builds its experiment matrices from these
//! specs; the `sweep` binary accepts the same names on the command line.
//!
//! Name grammar (`parse`):
//!
//! ```text
//! nas:<BT|CG|FT|LU|MG|SP>[:scale=<f64 in (0, 1]>][:iters=<n>]
//! netpipe:<bytes>[:rounds=<n>]
//! stencil:<n_ranks>x<iterations>[:face=<bytes>][:compute_us=<us>][:wildcard]
//! master_worker:<n_ranks>[:tasks=<n>]
//! ```
//!
//! The optional segments come in any order, each at most once, and are
//! read by the shared [`Params`] reader like every other axis value.

use crate::master_worker::{master_worker, MasterWorkerConfig};
use crate::nas::{NasBench, NasConfig};
use crate::netpipe::ping_pong;
use crate::params::{digits, float, uint, us, Params};
use crate::stencil::{stencil_2d, StencilConfig};
use det_sim::SimDuration;
use mps_sim::Application;
use serde::Serialize;

/// A declarative, buildable description of one workload instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum WorkloadSpec {
    /// A NAS class-D skeleton at `scale` of the paper's message volumes.
    /// `iterations: None` uses the paper's per-bench iteration count.
    Nas {
        bench: NasBench,
        scale: f64,
        iterations: Option<usize>,
    },
    /// Two-rank ping-pong of `bytes` messages, `rounds` round trips.
    NetPipe { rounds: usize, bytes: u64 },
    /// 2D halo-exchange stencil.
    Stencil {
        n_ranks: usize,
        iterations: usize,
        face_bytes: u64,
        compute_us: u64,
        wildcard_recv: bool,
    },
    /// Master/worker (the canonical non-send-deterministic pattern).
    MasterWorker {
        n_ranks: usize,
        tasks_per_worker: usize,
    },
}

impl WorkloadSpec {
    /// Canonical registry name; `parse` round-trips it.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Nas {
                bench,
                scale,
                iterations,
            } => {
                let mut s = format!("nas:{}", bench.name());
                if *scale != 1.0 {
                    s.push_str(&format!(":scale={scale}"));
                }
                if let Some(it) = iterations {
                    s.push_str(&format!(":iters={it}"));
                }
                s
            }
            WorkloadSpec::NetPipe { rounds, bytes } => {
                if *rounds == 20 {
                    format!("netpipe:{bytes}")
                } else {
                    format!("netpipe:{bytes}:rounds={rounds}")
                }
            }
            WorkloadSpec::Stencil {
                n_ranks,
                iterations,
                face_bytes,
                compute_us,
                wildcard_recv,
            } => {
                let mut s = format!(
                    "stencil:{n_ranks}x{iterations}:face={face_bytes}:compute_us={compute_us}"
                );
                if *wildcard_recv {
                    s.push_str(":wildcard");
                }
                s
            }
            WorkloadSpec::MasterWorker {
                n_ranks,
                tasks_per_worker,
            } => format!("master_worker:{n_ranks}:tasks={tasks_per_worker}"),
        }
    }

    /// Number of ranks the built application will have.
    pub fn n_ranks(&self) -> usize {
        match self {
            WorkloadSpec::Nas { bench, scale, .. } => {
                let _ = (bench, scale);
                256
            }
            WorkloadSpec::NetPipe { .. } => 2,
            WorkloadSpec::Stencil { n_ranks, .. } => *n_ranks,
            WorkloadSpec::MasterWorker { n_ranks, .. } => *n_ranks,
        }
    }

    /// Build the application this spec describes (lazy generators).
    pub fn build(&self) -> Application {
        match self {
            WorkloadSpec::Nas {
                bench,
                scale,
                iterations,
            } => {
                let mut cfg: NasConfig = bench.paper_config(*scale);
                if let Some(it) = iterations {
                    cfg.iterations = *it;
                }
                bench.build(&cfg)
            }
            WorkloadSpec::NetPipe { rounds, bytes } => ping_pong(*rounds, *bytes),
            WorkloadSpec::Stencil {
                n_ranks,
                iterations,
                face_bytes,
                compute_us,
                wildcard_recv,
            } => stencil_2d(&StencilConfig {
                n_ranks: *n_ranks,
                iterations: *iterations,
                face_bytes: *face_bytes,
                compute_per_iter: SimDuration::from_us(*compute_us),
                wildcard_recv: *wildcard_recv,
            }),
            WorkloadSpec::MasterWorker {
                n_ranks,
                tasks_per_worker,
            } => master_worker(&MasterWorkerConfig {
                n_ranks: *n_ranks,
                tasks_per_worker: *tasks_per_worker,
                ..Default::default()
            }),
        }
    }

    /// Parse a registry name (see module docs for the grammar). Strict:
    /// parameters go through [`Params`], and a value whose simulated
    /// time or message pricing would overflow (see [`MAX_MESSAGE_BYTES`]
    /// and [`TIME_BUDGET_PS`]) is an error, so every name that parses
    /// builds and runs on an unwrapped clock.
    pub fn parse(s: &str) -> Result<WorkloadSpec, String> {
        let mut segs = s.split(':');
        let family = segs.next().unwrap_or_default();
        let head = segs.next();
        let read = |keys: &[&str], flags: &[&str]| Params::read(s, segs.clone(), keys, flags);
        match family {
            "nas" => {
                let bench_name =
                    head.ok_or_else(|| format!("`{s}`: nas needs a benchmark name"))?;
                let bench = NasBench::from_name(bench_name)
                    .ok_or_else(|| format!("`{s}`: unknown NAS benchmark `{bench_name}`"))?;
                let p = read(&["scale", "iters"], &[])?;
                let scale = p.get("scale", float)?.unwrap_or(1.0);
                // Every paper run uses scale <= 1; larger scales only
                // multiply byte volumes past anything measured.
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(format!(
                        "`scale` in `{s}` must be finite and > 0, and at most 1"
                    ));
                }
                let iterations: Option<usize> = p.get("iters", uint)?;
                let n = iterations.unwrap_or_else(|| bench.paper_config(scale).iterations);
                within_budget(s, "`iters`", n as u64, NAS_ITERATION_PS)?;
                Ok(WorkloadSpec::Nas {
                    bench,
                    scale,
                    iterations,
                })
            }
            "netpipe" => {
                let size = head.ok_or_else(|| format!("`{s}`: netpipe needs a message size"))?;
                let bytes =
                    digits(size).ok_or_else(|| format!("`{s}`: bad message size `{size}`"))?;
                let bytes = message_bytes(s, "message size", bytes)?;
                let rounds: usize = read(&["rounds"], &[])?.get("rounds", uint)?.unwrap_or(20);
                // A round trip: each rank sends once and waits for one.
                within_budget(s, "`rounds`", rounds as u64, 2 * wire_ps(bytes))?;
                Ok(WorkloadSpec::NetPipe { rounds, bytes })
            }
            "stencil" => {
                let (r, i) = head
                    .and_then(|dims| dims.split_once('x'))
                    .ok_or_else(|| format!("`{s}`: stencil needs <ranks>x<iters>"))?;
                let n_ranks = digits(r).ok_or_else(|| format!("`{s}`: bad ranks `{r}`"))?;
                if n_ranks < 1 {
                    return Err(format!("`{s}`: stencil needs at least 1 rank"));
                }
                let iterations: usize =
                    digits(i).ok_or_else(|| format!("`{s}`: bad iters `{i}`"))?;
                let p = read(&["face", "compute_us"], &["wildcard"])?;
                let face_bytes =
                    message_bytes(s, "`face`", p.get("face", uint)?.unwrap_or(64 << 10))?;
                let compute_us = p.get("compute_us", us)?.unwrap_or(200);
                // One iteration: the compute plus up to four face sends.
                let iteration_ps = compute_us as u128 * PS_PER_US + 4 * wire_ps(face_bytes);
                within_budget(s, "`compute_us`", 1, iteration_ps)?;
                within_budget(s, "iterations", iterations as u64, iteration_ps)?;
                Ok(WorkloadSpec::Stencil {
                    n_ranks,
                    iterations,
                    face_bytes,
                    compute_us,
                    wildcard_recv: p.flag("wildcard"),
                })
            }
            "master_worker" => {
                let n = head.ok_or_else(|| format!("`{s}`: master_worker needs a rank count"))?;
                let n_ranks: usize =
                    digits(n).ok_or_else(|| format!("`{s}`: bad rank count `{n}`"))?;
                if n_ranks < 2 {
                    return Err(format!(
                        "`{s}`: master_worker needs at least 2 ranks (a master and a worker)"
                    ));
                }
                let tasks_per_worker: usize =
                    read(&["tasks"], &[])?.get("tasks", uint)?.unwrap_or(4);
                // One round: the master sends every worker a task and
                // takes every result, and a worker computes up to
                // `workers` times the base work per task.
                let cfg = MasterWorkerConfig::default();
                let workers = n_ranks as u128 - 1;
                let round_ps = workers
                    * (wire_ps(cfg.task_bytes + cfg.result_bytes) + cfg.work_base.as_ps() as u128);
                within_budget(s, "rank count", 1, round_ps)?;
                within_budget(s, "`tasks`", tasks_per_worker as u64, round_ps)?;
                Ok(WorkloadSpec::MasterWorker {
                    n_ranks,
                    tasks_per_worker,
                })
            }
            other => Err(format!(
                "unknown workload family `{other}` (known: {})",
                FAMILIES.join(", ")
            )),
        }
    }
}

/// Largest message a workload may send. Pricing multiplies a size by at
/// most 10^6 on its way to picoseconds (MX charges 800 ps/B and splits
/// the total into permille shares, x1000, before dividing), so a larger
/// size wraps its price.
pub const MAX_MESSAGE_BYTES: u64 = u64::MAX / 1_000_000;

/// Most simulated time one rank's own work may take: a sixteenth of the
/// `u64` picosecond clock (about 13 days). The rest is left for what a
/// run adds on top of the workload: waits on peers, latencies,
/// checkpoints, rollbacks and replays.
pub const TIME_BUDGET_PS: u64 = u64::MAX >> 4;

/// Wire time charged per byte when bounding a rank's own time: TCP's
/// 900 ps/B, the dearest base price, rounded up. Tiered topologies taper
/// transit further, within the headroom [`TIME_BUDGET_PS`] leaves.
const PS_PER_BYTE: u128 = 1_000;

const PS_PER_US: u128 = 1_000_000;

/// Bound on one iteration of any NAS skeleton at scale <= 1: FT's
/// 300 ms of compute, the longest, plus 2^28 bytes sent by one rank
/// (FT's alltoall sends 133.7 MB, the most; `nas_iteration_bound_holds`
/// checks both against the skeletons).
const NAS_ITERATION_PS: u128 = 300_000_000_000 + (1 << 28) * PS_PER_BYTE;

fn wire_ps(bytes: u64) -> u128 {
    bytes as u128 * PS_PER_BYTE
}

/// `bytes` if it is at most [`MAX_MESSAGE_BYTES`]; `what` names it in
/// the error.
fn message_bytes(s: &str, what: &str, bytes: u64) -> Result<u64, String> {
    if bytes > MAX_MESSAGE_BYTES {
        return Err(format!(
            "{what} {bytes} in `{s}` overflows message pricing (at most {MAX_MESSAGE_BYTES} bytes)"
        ));
    }
    Ok(bytes)
}

/// `Err` naming `what` unless `count` repeats of `each_ps` fit
/// [`TIME_BUDGET_PS`].
fn within_budget(s: &str, what: &str, count: u64, each_ps: u128) -> Result<(), String> {
    if count as u128 * each_ps > TIME_BUDGET_PS as u128 {
        return Err(format!(
            "{what} in `{s}` overflows simulated time (one rank's work must fit \
             {TIME_BUDGET_PS} ps)"
        ));
    }
    Ok(())
}

/// Workload families the registry knows.
pub const FAMILIES: [&str; 4] = ["nas", "netpipe", "stencil", "master_worker"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for name in [
            "nas:CG",
            "nas:LU:scale=0.015625:iters=4",
            "netpipe:1024",
            "netpipe:8192:rounds=5",
            "stencil:16x10:face=65536:compute_us=200",
            "stencil:64x400:face=262144:compute_us=500:wildcard",
            "master_worker:8:tasks=4",
        ] {
            let spec = WorkloadSpec::parse(name).unwrap();
            assert_eq!(WorkloadSpec::parse(&spec.name()).unwrap(), spec, "{name}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(WorkloadSpec::parse("quux:1").is_err());
        assert!(WorkloadSpec::parse("nas:ZZ").is_err());
        assert!(WorkloadSpec::parse("netpipe:notasize").is_err());
        assert!(WorkloadSpec::parse("stencil:16").is_err());
    }

    #[test]
    fn parse_rejects_specs_that_cannot_build() {
        for (name, rule) in [
            ("stencil:0x5", "at least 1 rank"),
            ("master_worker:1", "at least 2 ranks"),
            ("master_worker:0:tasks=3", "at least 2 ranks"),
            ("nas:FT:scale=nan", "finite and > 0"),
            ("nas:FT:scale=inf", "finite and > 0"),
            ("nas:CG:scale=0", "finite and > 0"),
            ("nas:CG:scale=-0.5", "finite and > 0"),
        ] {
            let err = WorkloadSpec::parse(name).unwrap_err();
            assert!(err.contains(rule), "{name}: {err}");
        }
        // The smallest valid instances build and run.
        for name in [
            "stencil:1x5",
            "master_worker:2",
            "nas:MG:scale=1e-9:iters=1",
        ] {
            let app = WorkloadSpec::parse(name).unwrap().build();
            assert!(app.check_balance().is_ok(), "{name}");
        }
    }

    #[test]
    fn specs_build_runnable_apps() {
        let spec = WorkloadSpec::parse("stencil:9x2:face=1024:compute_us=10").unwrap();
        let app = spec.build();
        assert_eq!(app.n_ranks(), 9);
        assert!(app.check_balance().is_ok());
        assert_eq!(spec.n_ranks(), 9);
    }

    #[test]
    fn nas_iteration_bound_holds() {
        for bench in NasBench::all() {
            let mut cfg = bench.paper_config(1.0);
            cfg.iterations = 1;
            let app = bench.build(&cfg);
            let most = (0..app.n_ranks())
                .map(|r| app.rank(mps_sim::Rank(r as u32)).bytes_sent())
                .max()
                .unwrap();
            let iteration_ps = cfg.compute_per_iter.as_ps() as u128 + wire_ps(most);
            assert!(
                iteration_ps <= NAS_ITERATION_PS,
                "{bench:?}: {iteration_ps} ps"
            );
        }
    }

    #[test]
    fn nas_spec_overrides_iterations() {
        let spec = WorkloadSpec::Nas {
            bench: NasBench::MG,
            scale: 1e-4,
            iterations: Some(2),
        };
        let app = spec.build();
        assert_eq!(app.n_ranks(), 256);
        assert!(app.check_balance().is_ok());
    }
}
