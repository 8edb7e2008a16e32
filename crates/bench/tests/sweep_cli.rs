//! The axis grammar through the `sweep` binary: every protocol name a
//! record can carry is accepted back by `--protocols` and comes back as
//! the same `protocol` column, and values that are aliases of canonical
//! names or would overflow simulated time exit 2 before any record file
//! is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use scenario::{CheckpointPolicySpec, ProtocolSpec, StorageSpec, DEFAULT_IMAGE_BYTES};
use telemetry::json::Value;

/// Largest ms value the policy grammar accepts (ps must fit in u64).
const MAX_MS: u64 = u64::MAX / 1_000_000_000;

/// The protocol half of `proptest_descriptor.rs`'s `decode_spec`: every
/// family, policy kind, storage, image size and GC setting it draws.
fn decode_protocol(a: u64, b: u64, c: u64) -> ProtocolSpec {
    let policy = match b % 4 {
        0 => CheckpointPolicySpec::None,
        1 => CheckpointPolicySpec::Periodic {
            interval_ms: 1 + c % MAX_MS,
            first_ms: (c & 1 == 1).then_some(b % MAX_MS),
            stagger_ms: None,
        },
        2 => CheckpointPolicySpec::YoungDaly {
            first_ms: None,
            stagger_ms: (b & 2 == 2).then_some(c % MAX_MS),
        },
        _ => CheckpointPolicySpec::LogPressure {
            budget_bytes: 1 + a % (u64::MAX - 1),
        },
    };
    let storage = if c & 1 == 1 {
        StorageSpec::ParallelFs
    } else {
        StorageSpec::Default
    };
    let image_bytes = DEFAULT_IMAGE_BYTES + (a % 3) * 4096;
    match (a >> 8) % 4 {
        0 => ProtocolSpec::Native,
        1 => ProtocolSpec::Hydee {
            checkpoint: policy,
            image_bytes,
            storage,
            gc: b & 4 == 4,
        },
        2 => ProtocolSpec::Coordinated {
            checkpoint: policy,
            image_bytes,
            storage,
        },
        _ => ProtocolSpec::EventLogged {
            checkpoint: policy,
            image_bytes,
            storage,
        },
    }
}

/// A fresh, empty output directory for one test.
fn out_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

fn sweep(out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--static", "--workloads", "netpipe:64"])
        .args(args)
        .args(["--out", out.to_str().expect("utf-8 path"), "--name", "cli"])
        .output()
        .expect("run sweep")
}

#[test]
fn every_record_protocol_name_round_trips_through_the_cli() {
    // Cover every parameter combination the decoder reaches, with
    // interval, stagger and budget values spread by a fixed LCG.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let mut names: Vec<String> = Vec::new();
    for family in 0..4u64 {
        for b in 0..8u64 {
            for (a, c) in [(0, 0), (1, 1), (2, 2)] {
                let (ra, rb, rc) = (next(), next(), next());
                let a = (ra & !0x3ff) | family << 8 | a;
                let b = (rb & !7) | b;
                let c = (rc & !1) | c;
                let name = decode_protocol(a, b, c).name();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    assert!(names.len() > 60, "{} names", names.len());
    let dir = out_dir("round_trip");
    let output = sweep(&dir, &["--protocols", &names.join(",")]);
    assert!(
        output.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let records = std::fs::read_to_string(dir.join("cli_records.jsonl")).expect("records");
    let printed: Vec<String> = records
        .lines()
        .map(|line| {
            let v = Value::parse(line).expect("record parses");
            v.get("protocol")
                .and_then(Value::as_str)
                .expect("protocol column")
                .to_string()
        })
        .collect();
    assert_eq!(printed, names);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aliases_and_overflowing_values_exit_2_without_records() {
    let dir = out_dir("probes");
    for (flag, value, axis, key) in [
        ("--workloads", "netpipe:+1024", "workload", "message size"),
        (
            "--workloads",
            "stencil:4x2:face=1:face=2",
            "workload",
            "face",
        ),
        (
            "--workloads",
            "stencil:4x2:compute_us=18446744073709551615",
            "workload",
            "compute_us",
        ),
        (
            "--workloads",
            "stencil:4x2:face=18446744073709551615",
            "workload",
            "face",
        ),
        (
            "--workloads",
            "netpipe:18446744073709551615",
            "workload",
            "message size",
        ),
        ("--workloads", "nas:CG:scale=1e300", "workload", "scale"),
        ("--ckpt-ms", "0", "checkpoint-policy", "interval"),
        ("--protocols", "hydee:ckpt0ms", "protocol", "interval"),
        ("--fail", "poisson:mtbf=5:mtbf=6", "failure-model", "mtbf"),
    ] {
        let output = sweep(&dir, &[flag, value]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(axis) && stderr.contains(key),
            "{flag} {value}: the error must name `{axis}` and `{key}`: {stderr}"
        );
        assert!(
            !dir.join("cli_records.jsonl").exists(),
            "{flag} {value} wrote records"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
