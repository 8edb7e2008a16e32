//! Round-trip property test for the suite DSL (ISSUE 7 satellite 4):
//! rendering a set of named matrices to suite text and re-parsing it must
//! reproduce the identical cell set — `Suite::render` and
//! `Suite::parse_str` are inverses up to formatting. Every axis value is
//! addressed by its canonical `name()` string in the file, so this also
//! transitively exercises all five axis grammars under composition.

use proptest::prelude::*;
use scenario::{
    CheckpointPolicySpec, ClusterStrategy, FailureModelSpec, FailureSpec, Matrix, NetworkSpec,
    ProtocolSpec, StorageSpec, Suite,
};
use workloads::{NasBench, WorkloadSpec};

/// Largest millisecond value whose picosecond conversion fits in u64 —
/// the domain the policy/time grammars accept.
const MAX_MS: u64 = u64::MAX / 1_000_000_000;

/// Deterministically decode one workload from raw draws (the vendored
/// proptest stub has no `prop_oneof`).
fn decode_workload(variant: u8, a: u64, b: u64) -> WorkloadSpec {
    match variant % 4 {
        0 => WorkloadSpec::NetPipe {
            // `rounds == 20` exercises the eliding short form.
            rounds: if a & 1 == 0 {
                20
            } else {
                1 + (a % 500) as usize
            },
            bytes: 1 + b % (64 << 20),
        },
        1 => WorkloadSpec::Nas {
            bench: NasBench::all()[(a % 6) as usize],
            // Exact binary fractions in (0, 1], the scales the grammar
            // accepts (sometimes exactly 1.0, the eliding default), so
            // Display→parse is lossless by construction, not just by f64
            // shortest-round-trip.
            scale: (1 + b % 1024) as f64 / 1024.0,
            iterations: (a & 2 == 0).then_some(1 + (b % 400) as usize),
        },
        2 => WorkloadSpec::Stencil {
            n_ranks: 1 + (a % 4096) as usize,
            iterations: 1 + (b % 2000) as usize,
            face_bytes: 1 + a.rotate_left(17) % (8 << 20),
            compute_us: b.rotate_left(29) % 100_000,
            wildcard_recv: a & 4 == 0,
        },
        _ => WorkloadSpec::MasterWorker {
            n_ranks: 2 + (a % 512) as usize,
            tasks_per_worker: 1 + (b % 100) as usize,
        },
    }
}

fn decode_policy(variant: u8, a: u64, b: u64) -> CheckpointPolicySpec {
    let first_ms = (a & 8 == 0).then_some(b % (MAX_MS + 1));
    let stagger_ms = (a & 16 == 0).then_some(a.rotate_left(13) % (MAX_MS + 1));
    match variant % 4 {
        0 => CheckpointPolicySpec::None,
        1 => CheckpointPolicySpec::Periodic {
            interval_ms: 1 + a % MAX_MS,
            first_ms,
            stagger_ms,
        },
        2 => CheckpointPolicySpec::YoungDaly {
            first_ms,
            stagger_ms,
        },
        _ => CheckpointPolicySpec::LogPressure {
            budget_bytes: 1 + b % (u64::MAX - 1),
        },
    }
}

fn decode_protocol(variant: u8, a: u64, b: u64) -> ProtocolSpec {
    let checkpoint = decode_policy(variant / 4, a.rotate_left(7), b.rotate_left(11));
    let image_bytes = if a & 32 == 0 {
        scenario::DEFAULT_IMAGE_BYTES // the name-eliding default
    } else {
        1 + b % (1 << 30)
    };
    let storage = if a & 64 == 0 {
        StorageSpec::Default
    } else {
        StorageSpec::ParallelFs
    };
    match variant % 4 {
        0 => ProtocolSpec::Native,
        1 => ProtocolSpec::Hydee {
            checkpoint,
            image_bytes,
            storage,
            gc: a & 128 == 0,
        },
        2 => ProtocolSpec::Coordinated {
            checkpoint,
            image_bytes,
            storage,
        },
        _ => ProtocolSpec::EventLogged {
            checkpoint,
            image_bytes,
            storage,
        },
    }
}

fn decode_clusters(variant: u8, a: u64) -> ClusterStrategy {
    match variant % 4 {
        0 => ClusterStrategy::Single,
        1 => ClusterStrategy::PerRank,
        2 => ClusterStrategy::Blocks(1 + (a % 64) as usize),
        _ => ClusterStrategy::Partitioned(1 + (a % 64) as usize),
    }
}

fn decode_model(variant: u8, a: u64, b: u64) -> FailureModelSpec {
    match variant % 3 {
        0 => FailureModelSpec::Fixed(
            (0..1 + a % 3)
                .map(|i| FailureSpec {
                    at_us: (b.rotate_left(5 * i as u32)) % (u64::MAX / 1_000_000 + 1),
                    ranks: vec![(a.rotate_left(i as u32) % 1024) as u32],
                })
                .collect(),
        ),
        1 => FailureModelSpec::Poisson {
            mtbf_ms: 1 + a % 1_000_000,
            seed: b,
            max_failures: scenario::DEFAULT_MAX_FAILURES,
        },
        _ => FailureModelSpec::none(),
    }
}

/// One scenario matrix from raw draws: every axis populated (or left to
/// its default) independently.
fn decode_matrix(seed: u64, salt: u64) -> Matrix {
    let d = |i: u64| seed.rotate_left(((salt + i) % 64) as u32) ^ (salt.wrapping_mul(i | 1));
    let mut m = Matrix::new();
    for i in 0..1 + d(0) % 3 {
        m.workloads
            .push(decode_workload(d(i + 1) as u8, d(i + 2), d(i + 3)));
    }
    for i in 0..d(4) % 3 {
        m.protocols
            .push(decode_protocol(d(i + 5) as u8, d(i + 6), d(i + 7)));
    }
    for i in 0..d(8) % 3 {
        m.clusters.push(decode_clusters(d(i + 9) as u8, d(i + 10)));
    }
    if d(11) & 1 == 0 {
        m.networks.push(NetworkSpec::Mx);
    }
    if d(11) & 2 == 0 {
        m.networks.push(NetworkSpec::Tcp);
    }
    for i in 0..d(12) % 3 {
        m.checkpoint_policies
            .push(decode_policy(d(i + 13) as u8, d(i + 14), d(i + 15)));
    }
    for i in 0..d(16) % 3 {
        m.failure_models
            .push(decode_model(d(i + 17) as u8, d(i + 18), d(i + 19)));
    }
    m.simulate = d(20) & 1 == 0;
    m.max_events = (d(21) & 1 == 0).then_some(d(22) % 1_000_000_000);
    m
}

proptest! {
    #[test]
    fn render_parse_round_trips_the_cell_set(
        seed in any::<u64>(),
        salt in any::<u64>(),
        n_scenarios in any::<u8>(),
    ) {
        let n = 1 + (n_scenarios % 3) as u64;
        let scenarios: Vec<(String, Matrix)> = (0..n)
            .map(|i| (format!("s{i}"), decode_matrix(seed, salt.wrapping_add(i * 997))))
            .collect();
        let text = Suite::render("round_trip", &scenarios);
        let suite = Suite::parse_str(&text, "render.suite");
        prop_assert!(suite.is_ok(), "rendered text failed to parse: {:?}\n---\n{text}", suite);
        let suite = suite.unwrap();
        prop_assert_eq!(&suite.name, "round_trip");
        prop_assert_eq!(suite.scenarios.len(), scenarios.len());
        for ((name, matrix), parsed) in scenarios.iter().zip(&suite.scenarios) {
            prop_assert_eq!(name, &parsed.name);
            // Identical cell sets: the compile contract is expansion
            // equality, not field-by-field Matrix equality (sugar fields
            // normalize at the builder boundary).
            let (want, got) = (matrix.expand(), parsed.matrix.expand());
            prop_assert_eq!(
                want.len(), got.len(),
                "scenario `{}` expanded to a different cell count\n---\n{}", name, text
            );
            for (w, g) in want.iter().zip(&got) {
                prop_assert_eq!(w, g, "scenario `{}` cell drifted\n---\n{}", name, text);
            }
        }
    }
}
