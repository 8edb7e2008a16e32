//! Generic 2D halo-exchange stencil.
//!
//! The workhorse long-running workload for the log-memory/GC experiment
//! (X3) and the examples: a non-periodic 2D grid where every rank
//! exchanges its four faces each iteration, with optional wildcard
//! receives (the send-deterministic-with-`MPI_ANY_SOURCE` case §II-C
//! discusses: reception order does not matter because the following sends
//! need all four faces).

use crate::grid::Grid2D;
use det_sim::SimDuration;
use mps_sim::{Application, GenProgram, Op, OpTemplate, Tag};

/// Stencil parameters.
#[derive(Debug, Clone)]
pub struct StencilConfig {
    pub n_ranks: usize,
    pub iterations: usize,
    /// Bytes per face message.
    pub face_bytes: u64,
    pub compute_per_iter: SimDuration,
    /// Receive faces with wildcard (`MPI_ANY_SOURCE`) receives instead of
    /// source-specific ones.
    pub wildcard_recv: bool,
}

impl Default for StencilConfig {
    fn default() -> Self {
        StencilConfig {
            n_ranks: 16,
            iterations: 10,
            face_bytes: 64 << 10,
            compute_per_iter: SimDuration::from_us(200),
            wildcard_recv: false,
        }
    }
}

/// Build the stencil application as lazy per-rank generators: each rank
/// holds its one-iteration halo pattern plus a tag stride — the
/// per-iteration tag (wildcard safety, DESIGN.md §3) is closed form, so
/// memory is O(ranks × degree) regardless of the horizon.
pub fn stencil_2d(cfg: &StencilConfig) -> Application {
    let g = Grid2D::squarest(cfg.n_ranks);
    Application::generated_with(cfg.n_ranks, |me| {
        let mut body = vec![OpTemplate::Fixed(Op::Compute {
            time: cfg.compute_per_iter,
        })];
        for (dr, dc) in [(0, 1), (0, -1), (1, 0), (-1, 0)] {
            if let Some(nb) = g.neighbor(me, dr, dc) {
                body.push(OpTemplate::IterTag {
                    op: Op::Send {
                        dst: nb,
                        bytes: cfg.face_bytes,
                        tag: Tag(0),
                    },
                    stride: 1,
                });
            }
        }
        for (dr, dc) in [(0, 1), (0, -1), (1, 0), (-1, 0)] {
            if let Some(nb) = g.neighbor(me, dr, dc) {
                let op = if cfg.wildcard_recv {
                    Op::RecvAny { tag: Tag(0) }
                } else {
                    Op::Recv {
                        src: nb,
                        tag: Tag(0),
                    }
                };
                body.push(OpTemplate::IterTag { op, stride: 1 });
            }
        }
        GenProgram::new(body, cfg.iterations)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sim::{NullProtocol, Sim, SimConfig};

    #[test]
    fn specific_and_wildcard_variants_complete() {
        for wildcard in [false, true] {
            let cfg = StencilConfig {
                wildcard_recv: wildcard,
                ..Default::default()
            };
            let app = stencil_2d(&cfg);
            assert!(app.check_balance().is_ok());
            let report = Sim::new(app, SimConfig::default(), NullProtocol).run();
            assert!(report.completed(), "wildcard={wildcard}");
        }
    }

    #[test]
    fn wildcard_digest_matches_specific_digest() {
        // Send-determinism in action: the receive mode cannot change the
        // final state (commutative fold + same message set).
        let mk = |wildcard| {
            let cfg = StencilConfig {
                wildcard_recv: wildcard,
                iterations: 5,
                ..Default::default()
            };
            Sim::new(stencil_2d(&cfg), SimConfig::default(), NullProtocol).run()
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a.digests, b.digests);
    }

    #[test]
    fn message_count_matches_edges() {
        // 4x4 non-periodic grid: 2*(rows*(cols-1) + cols*(rows-1)) = 48
        // directed edges per iteration.
        let cfg = StencilConfig {
            n_ranks: 16,
            iterations: 3,
            ..Default::default()
        };
        let app = stencil_2d(&cfg);
        assert_eq!(app.total_messages(), 48 * 3);
    }
}
