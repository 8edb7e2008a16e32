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
//! nas:<BT|CG|FT|LU|MG|SP>[:scale=<f64>][:iters=<n>]
//! netpipe:<bytes>[:rounds=<n>]
//! stencil:<n_ranks>x<iterations>[:face=<bytes>][:wildcard]
//! master_worker:<n_ranks>[:tasks=<n>]
//! ```

use crate::master_worker::{master_worker, MasterWorkerConfig};
use crate::nas::{NasBench, NasConfig};
use crate::netpipe::ping_pong;
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

    /// Parse a registry name (see module docs for the grammar).
    pub fn parse(s: &str) -> Result<WorkloadSpec, String> {
        let mut parts = s.split(':');
        let family = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        match family {
            "nas" => {
                let bench_name = rest
                    .first()
                    .ok_or_else(|| format!("`{s}`: nas needs a benchmark name"))?;
                let bench = NasBench::from_name(bench_name)
                    .ok_or_else(|| format!("`{s}`: unknown NAS benchmark `{bench_name}`"))?;
                let mut scale = 1.0f64;
                let mut iterations = None;
                for opt in &rest[1..] {
                    if let Some(v) = opt.strip_prefix("scale=") {
                        scale = v.parse().map_err(|_| format!("`{s}`: bad scale `{v}`"))?;
                        if !(scale.is_finite() && scale > 0.0) {
                            return Err(format!("`{s}`: scale must be finite and > 0"));
                        }
                    } else if let Some(v) = opt.strip_prefix("iters=") {
                        iterations =
                            Some(v.parse().map_err(|_| format!("`{s}`: bad iters `{v}`"))?);
                    } else {
                        return Err(format!("`{s}`: unknown option `{opt}`"));
                    }
                }
                Ok(WorkloadSpec::Nas {
                    bench,
                    scale,
                    iterations,
                })
            }
            "netpipe" => {
                let bytes = rest
                    .first()
                    .ok_or_else(|| format!("`{s}`: netpipe needs a message size"))?
                    .parse()
                    .map_err(|_| format!("`{s}`: bad message size"))?;
                let mut rounds = 20usize;
                for opt in &rest[1..] {
                    if let Some(v) = opt.strip_prefix("rounds=") {
                        rounds = v.parse().map_err(|_| format!("`{s}`: bad rounds `{v}`"))?;
                    } else {
                        return Err(format!("`{s}`: unknown option `{opt}`"));
                    }
                }
                Ok(WorkloadSpec::NetPipe { rounds, bytes })
            }
            "stencil" => {
                let dims = rest
                    .first()
                    .ok_or_else(|| format!("`{s}`: stencil needs <ranks>x<iters>"))?;
                let (r, i) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("`{s}`: stencil needs <ranks>x<iters>"))?;
                let n_ranks = r.parse().map_err(|_| format!("`{s}`: bad ranks `{r}`"))?;
                if n_ranks < 1 {
                    return Err(format!("`{s}`: stencil needs at least 1 rank"));
                }
                let iterations = i.parse().map_err(|_| format!("`{s}`: bad iters `{i}`"))?;
                let mut spec = WorkloadSpec::Stencil {
                    n_ranks,
                    iterations,
                    face_bytes: 64 << 10,
                    compute_us: 200,
                    wildcard_recv: false,
                };
                for opt in &rest[1..] {
                    let WorkloadSpec::Stencil {
                        face_bytes,
                        compute_us,
                        wildcard_recv,
                        ..
                    } = &mut spec
                    else {
                        unreachable!()
                    };
                    if let Some(v) = opt.strip_prefix("face=") {
                        *face_bytes = v
                            .parse()
                            .map_err(|_| format!("`{s}`: bad face bytes `{v}`"))?;
                    } else if let Some(v) = opt.strip_prefix("compute_us=") {
                        *compute_us = v
                            .parse()
                            .map_err(|_| format!("`{s}`: bad compute_us `{v}`"))?;
                    } else if *opt == "wildcard" {
                        *wildcard_recv = true;
                    } else {
                        return Err(format!("`{s}`: unknown option `{opt}`"));
                    }
                }
                Ok(spec)
            }
            "master_worker" => {
                let n_ranks = rest
                    .first()
                    .ok_or_else(|| format!("`{s}`: master_worker needs a rank count"))?
                    .parse()
                    .map_err(|_| format!("`{s}`: bad rank count"))?;
                if n_ranks < 2 {
                    return Err(format!(
                        "`{s}`: master_worker needs at least 2 ranks (a master and a worker)"
                    ));
                }
                let mut tasks_per_worker = 4usize;
                for opt in &rest[1..] {
                    if let Some(v) = opt.strip_prefix("tasks=") {
                        tasks_per_worker =
                            v.parse().map_err(|_| format!("`{s}`: bad tasks `{v}`"))?;
                    } else {
                        return Err(format!("`{s}`: unknown option `{opt}`"));
                    }
                }
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
