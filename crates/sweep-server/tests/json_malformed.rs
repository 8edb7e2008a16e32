//! Malformed-input property tests for the workspace's JSON reader,
//! `telemetry::json::Value`, which parses every TCP request, store
//! segment line and baseline file the service reads.
//!
//! Properties, over JSON-heavy random text, every truncation of an
//! emitted `RunRecord` line and single-byte edits of that line:
//!
//! * `Value::parse` never panics;
//! * any `Ok` value re-emits via `to_json` and re-parses to an equal
//!   `Value`.

use std::sync::OnceLock;

use proptest::prelude::*;
use scenario::{ClusterStrategy, Executor, ProtocolSpec, ScenarioSpec};
use telemetry::json::Value;
use workloads::WorkloadSpec;

/// Fragments biased towards JSON structure, escapes, numbers and
/// multi-byte UTF-8, so random concatenations hit the parser's edges.
const ALPHABET: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "d83d", "dc00", "00", "0", "1", "9", "-", "+",
    ".", "e", "E", " ", "\n", "\t", "\u{1}", "true", "false", "null", "nul", "a", "é", "😀",
    "\"k\":", "[[[[", "]]]]",
];

/// Bytes a single-byte edit writes: structural, numeric and escape bytes.
const EDIT_BYTES: &[u8] = b"{}[],:\"\\0123456789-+.eE ntfu\x01";

/// One emitted `RunRecord` line: the exact bytes the run store persists.
fn record_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let mut record = Executor::run_one(&ScenarioSpec::new(
            WorkloadSpec::NetPipe {
                rounds: 3,
                bytes: 256,
            },
            ProtocolSpec::hydee(),
            ClusterStrategy::PerRank,
        ));
        record.digest = u64::MAX;
        record.waste_fraction = f64::NAN; // emits as `null`
        record.status = "a \"quoted\"\n\tstatus «π» 😀".into();
        serde_json::to_string(&record).unwrap()
    })
}

/// The reader's contract on one input: no panic, and an accepted value
/// survives `to_json` + re-parse unchanged.
fn check(text: &str) -> Result<Value, String> {
    let parsed = Value::parse(text);
    if let Ok(v) = &parsed {
        let emitted = v.to_json();
        assert_eq!(
            Value::parse(&emitted).as_ref(),
            Ok(v),
            "{text:?} → {emitted:?}"
        );
    }
    parsed
}

#[test]
fn the_unedited_line_round_trips_byte_identically() {
    let line = record_line();
    assert_eq!(check(line).unwrap().to_json(), line);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn random_json_heavy_text_never_panics(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..48),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = check(&text);
    }

    #[test]
    fn truncated_record_lines_are_rejected(frac in 0.0f64..1.0) {
        let line = record_line();
        let cut = (frac * line.len() as f64) as usize;
        // Cut at a char boundary at or below `cut`.
        let cut = (0..=cut).rev().find(|&c| line.is_char_boundary(c)).unwrap();
        // A strict prefix of one object is never a complete document.
        prop_assert!(check(&line[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }

    #[test]
    fn single_byte_edits_never_panic(
        frac in 0.0f64..1.0,
        byte in 0..EDIT_BYTES.len(),
        op in 0u8..3,
    ) {
        let mut bytes = record_line().as_bytes().to_vec();
        let at = (frac * bytes.len() as f64) as usize;
        match op {
            0 => bytes[at] = EDIT_BYTES[byte],
            1 => bytes.insert(at, EDIT_BYTES[byte]),
            _ => {
                bytes.remove(at);
            }
        }
        // Edits inside a multi-byte character leave invalid UTF-8, which
        // a `&str` reader can never be handed.
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = check(&text);
        }
    }
}
