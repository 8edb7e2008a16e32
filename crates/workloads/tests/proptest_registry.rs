//! Round-trip property test for the workload registry name grammar
//! (ISSUE 3 satellite 2): `WorkloadSpec::parse(spec.name()) == spec` for
//! every representable spec. The `sweep` CLI and the scenario matrices
//! address workloads exclusively by these names, so a rename or a
//! formatting drift in `name()` would silently orphan them — this test
//! turns that into a hard failure.

use proptest::prelude::*;
use workloads::params::MAX_US;
use workloads::registry::{MAX_MESSAGE_BYTES, TIME_BUDGET_PS};
use workloads::{NasBench, WorkloadSpec};

/// Deterministically decode one arbitrary spec from a tuple of raw draws
/// (the vendored proptest stub has no `prop_oneof`, so variant selection
/// is an explicit integer).
fn decode_spec(
    variant: u8,
    a: u32, // rank-ish / bench selector
    b: u32, // iterations / rounds / tasks
    c: u64, // bytes
    d: u32, // scale numerator / compute_us
    flags: u8,
) -> WorkloadSpec {
    match variant % 4 {
        0 => WorkloadSpec::Nas {
            bench: NasBench::all()[(a % 6) as usize],
            // Exact binary fractions in (0, 1], the scales the grammar
            // accepts (1.0 is the name-eliding default), exercise the f64
            // Display/parse round trip.
            scale: (1 + d % 256) as f64 / 256.0,
            iterations: if flags & 1 == 0 {
                None
            } else {
                Some((b % 1000) as usize)
            },
        },
        1 => WorkloadSpec::NetPipe {
            // Includes 20, the default the name elides.
            rounds: (1 + b % 40) as usize,
            bytes: 1 + c % (1 << 22),
        },
        2 => WorkloadSpec::Stencil {
            n_ranks: (1 + a % 256) as usize,
            iterations: (1 + b % 2000) as usize,
            face_bytes: 1 + c % (1 << 26),
            compute_us: (d % 10_000) as u64,
            wildcard_recv: flags & 1 != 0,
        },
        _ => WorkloadSpec::MasterWorker {
            n_ranks: (2 + a % 256) as usize,
            // Includes 4, the default value (always printed).
            tasks_per_worker: (1 + b % 64) as usize,
        },
    }
}

/// Every spelling of `name` that repeats one `key=value` segment or puts
/// a `+` before one of its numbers: none of them is canonical.
fn non_canonical_spellings(name: &str) -> Vec<String> {
    let segs: Vec<&str> = name.split(':').collect();
    let mut out = Vec::new();
    for (i, seg) in segs.iter().enumerate().skip(1) {
        if seg.contains('=') {
            out.push(format!("{name}:{seg}"));
        }
        // `+` before the first digit run of this segment.
        if let Some(at) = seg.find(|c: char| c.is_ascii_digit()) {
            let mut edited = segs.clone();
            let plus = format!("{}+{}", &seg[..at], &seg[at..]);
            edited[i] = &plus;
            out.push(edited.join(":"));
        }
    }
    out
}

#[test]
fn overflowing_times_are_rejected() {
    // The probes: each once ran on a wrapped clock.
    for (name, key) in [
        ("stencil:4x2:compute_us=18446744073709551615", "compute_us"),
        ("stencil:4x2:face=18446744073709551615", "face"),
        ("netpipe:18446744073709551615", "message size"),
        ("nas:CG:scale=1e300", "scale"),
    ] {
        let err = WorkloadSpec::parse(name).unwrap_err();
        assert!(err.contains(key), "{name}: {err}");
    }
    // One rank's work fits the time budget; one more microsecond of
    // compute, iteration or byte past it does not.
    let budget_us = TIME_BUDGET_PS / 1_000_000;
    assert!(budget_us < MAX_US);
    assert!(WorkloadSpec::parse(&format!("stencil:1x1:face=0:compute_us={budget_us}")).is_ok());
    for name in [
        format!("stencil:1x1:face=0:compute_us={}", budget_us + 1),
        format!("stencil:1x{}:face=0:compute_us=1", budget_us + 1),
        format!("stencil:4x2:face=0:compute_us={}", MAX_US + 1),
        format!("stencil:4x2:face={}", MAX_MESSAGE_BYTES + 1),
        format!("netpipe:{}", MAX_MESSAGE_BYTES + 1),
        format!("netpipe:{MAX_MESSAGE_BYTES}:rounds=18446744073709551615"),
        "master_worker:8:tasks=18446744073709551615".to_string(),
        "nas:FT:iters=18446744073709551615".to_string(),
        "nas:CG:scale=1.5".to_string(),
    ] {
        assert!(WorkloadSpec::parse(&name).is_err(), "`{name}` parsed");
    }
    assert!(WorkloadSpec::parse(&format!("netpipe:{MAX_MESSAGE_BYTES}:rounds=1")).is_ok());
}

proptest! {
    #[test]
    fn parse_name_round_trips(
        variant in any::<u8>(),
        a in any::<u32>(),
        b in any::<u32>(),
        c in any::<u64>(),
        d in any::<u32>(),
        flags in any::<u8>(),
    ) {
        let spec = decode_spec(variant, a, b, c, d, flags);
        let name = spec.name();
        let reparsed = WorkloadSpec::parse(&name);
        prop_assert!(
            reparsed.is_ok(),
            "`{}` failed to reparse: {:?}", name, reparsed
        );
        prop_assert_eq!(reparsed.unwrap(), spec, "`{}` round-tripped to a different spec", name);
    }

    #[test]
    fn names_are_injective_across_random_pairs(
        v1 in any::<u8>(), a1 in any::<u32>(), b1 in any::<u32>(),
        c1 in any::<u64>(), d1 in any::<u32>(), f1 in any::<u8>(),
        v2 in any::<u8>(), a2 in any::<u32>(), b2 in any::<u32>(),
        c2 in any::<u64>(), d2 in any::<u32>(), f2 in any::<u8>(),
    ) {
        let s1 = decode_spec(v1, a1, b1, c1, d1, f1);
        let s2 = decode_spec(v2, a2, b2, c2, d2, f2);
        // Distinct specs must never share a canonical name (matrix labels
        // and summary cells key on it).
        if s1 != s2 {
            prop_assert_ne!(s1.name(), s2.name());
        } else {
            prop_assert_eq!(s1.name(), s2.name());
        }
    }

    #[test]
    fn trailing_garbage_never_parses(
        variant in any::<u8>(),
        a in any::<u32>(),
        b in any::<u32>(),
        c in any::<u64>(),
        d in any::<u32>(),
        flags in any::<u8>(),
    ) {
        let name = decode_spec(variant, a, b, c, d, flags).name();
        let last = name.rsplit(':').next().unwrap_or_default();
        for mangled in [
            format!("{name}:zzz"),
            format!("{name}:"),
            format!("{name} x"),
            format!("{name}:{last}"),
        ] {
            prop_assert!(
                WorkloadSpec::parse(&mangled).is_err(),
                "`{mangled}` parsed but must be rejected"
            );
        }
    }

    #[test]
    fn non_canonical_spellings_never_parse(
        variant in any::<u8>(),
        a in any::<u32>(),
        b in any::<u32>(),
        c in any::<u64>(),
        d in any::<u32>(),
        flags in any::<u8>(),
    ) {
        // A leading `+` or a repeated key would make a second name for
        // the same spec; the strict reader refuses both.
        let name = decode_spec(variant, a, b, c, d, flags).name();
        for mangled in non_canonical_spellings(&name) {
            prop_assert!(
                WorkloadSpec::parse(&mangled).is_err(),
                "`{mangled}` parsed but is not canonical"
            );
        }
    }
}
