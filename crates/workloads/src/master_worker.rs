//! Master/worker — the canonical NON-send-deterministic workload.
//!
//! The send-determinism study the paper builds on found master/worker
//! applications to be the only common pattern that violates
//! send-determinism: the master hands the next task to *whichever worker
//! answers first*, so the sequence of messages it sends depends on
//! message-reception order. Run with
//! [`mps_sim::DetMode::OrderSensitive`], this workload demonstrates where
//! HydEE's core assumption is load-bearing: after a failure the trace
//! oracle reports send-determinism violations (re-executed sends differ
//! from the originals).
//!
//! Structurally: the master scatters one seed task per worker, then for
//! each remaining task receives *any* result (wildcard) and would send
//! the next task to that worker. Because our programs are static op
//! streams we approximate the dynamic dispatch with a fixed task count
//! per worker but a wildcard-receiving master — the *payload* order
//! sensitivity (not the partner choice) carries the violation.

use det_sim::SimDuration;
use mps_sim::{Application, GenProgram, Op, OpTemplate, Rank, Tag};

/// Master/worker parameters. Rank 0 is the master.
#[derive(Debug, Clone)]
pub struct MasterWorkerConfig {
    pub n_ranks: usize,
    /// Tasks each worker processes.
    pub tasks_per_worker: usize,
    pub task_bytes: u64,
    pub result_bytes: u64,
    /// Worker compute time per task; staggered per rank so results race.
    pub work_base: SimDuration,
}

impl Default for MasterWorkerConfig {
    fn default() -> Self {
        MasterWorkerConfig {
            n_ranks: 8,
            tasks_per_worker: 4,
            task_bytes: 4 << 10,
            result_bytes: 16 << 10,
            work_base: SimDuration::from_us(100),
        }
    }
}

/// Build the master/worker application as lazy per-rank generators.
///
/// Round `r` uses tags `2r` (tasks) and `2r + 1` (results) — an
/// [`OpTemplate::IterTag`] of stride 2 — and each worker's per-round
/// compute jitter `(w·37 + r·13) mod workers` is an
/// [`OpTemplate::IterCompute`], so the whole dispatch schedule is closed
/// form in the round index.
pub fn master_worker(cfg: &MasterWorkerConfig) -> Application {
    assert!(cfg.n_ranks >= 2, "need a master and at least one worker");
    let master = Rank(0);
    let workers = cfg.n_ranks - 1;
    Application::generated_with(cfg.n_ranks, |me| {
        let mut body = Vec::new();
        if me == master {
            // One task per worker, then results first-come-first-served.
            for w in 1..cfg.n_ranks {
                body.push(OpTemplate::IterTag {
                    op: Op::Send {
                        dst: Rank(w as u32),
                        bytes: cfg.task_bytes,
                        tag: Tag(0),
                    },
                    stride: 2,
                });
            }
            for _ in 1..cfg.n_ranks {
                body.push(OpTemplate::IterTag {
                    op: Op::RecvAny { tag: Tag(1) },
                    stride: 2,
                });
            }
        } else {
            let w = me.idx();
            body.push(OpTemplate::IterTag {
                op: Op::Recv {
                    src: master,
                    tag: Tag(0),
                },
                stride: 2,
            });
            body.push(OpTemplate::IterCompute {
                base: cfg.work_base,
                offset: (w * 37) as u64,
                stride: 13,
                modulus: workers as u64,
            });
            body.push(OpTemplate::IterTag {
                op: Op::Send {
                    dst: master,
                    bytes: cfg.result_bytes,
                    tag: Tag(1),
                },
                stride: 2,
            });
        }
        GenProgram::new(body, cfg.tasks_per_worker)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::{DetMode, NullProtocol, Sim, SimConfig};

    #[test]
    fn completes_in_both_determinism_modes() {
        for mode in [DetMode::SendDeterministic, DetMode::OrderSensitive] {
            let app = master_worker(&MasterWorkerConfig::default());
            assert!(app.check_balance().is_ok());
            let config = SimConfig {
                det_mode: mode,
                ..Default::default()
            };
            let report = Sim::new(app, config, NullProtocol).run();
            assert!(report.completed(), "mode={mode:?}");
        }
    }

    #[test]
    fn worker_compute_is_staggered() {
        let app = master_worker(&MasterWorkerConfig::default());
        // Distinct compute times across workers in round 0.
        let computes: Vec<_> = (1..8u32)
            .map(|w| {
                app.ops(Rank(w))
                    .find_map(|op| match op {
                        mps_sim::Op::Compute { time } => Some(time),
                        _ => None,
                    })
                    .unwrap()
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = computes.iter().collect();
        assert!(distinct.len() > 1, "workers must race");
    }

    #[test]
    #[should_panic(expected = "need a master")]
    fn requires_two_ranks() {
        let _ = master_worker(&MasterWorkerConfig {
            n_ranks: 1,
            ..Default::default()
        });
    }
}
