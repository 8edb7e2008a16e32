//! Malformed-input tests for `bench::perf::parse_baseline`, which reads
//! the committed `BENCH_engine.json` for `perf_baseline --check`.
//!
//! The inputs come from the committed baseline itself: every truncation
//! at a char boundary, and single-byte edits — replace, insert or delete
//! one byte of [`EDIT_BYTES`] — that leave valid UTF-8. Properties: a
//! truncated document is always an `Err` (no prefix of a JSON object is
//! one), an edited one is `Ok` or an `Err` with a message, and the parser
//! never panics.

use bench::perf::parse_baseline;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

/// Bytes an edit writes: JSON's structure, escapes, number and literal
/// characters, and whitespace.
const EDIT_BYTES: &[u8] = b"{}[]:,\"\\-+.0159eEtfnu \n";

/// The committed baseline, trailing whitespace trimmed.
fn baseline() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
        std::fs::read_to_string(path).unwrap().trim_end().to_owned()
    })
}

/// Parse `text`; a panic fails the test, naming the input by `what`.
fn parse(text: &str, what: impl Fn() -> String) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| parse_baseline(text))) {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => {
            assert!(!e.is_empty(), "{}: empty error", what());
            Err(e)
        }
        Err(_) => panic!("parse_baseline panicked on {}", what()),
    }
}

#[test]
fn the_committed_baseline_parses() {
    let base = parse_baseline(baseline()).unwrap();
    assert!(base.cells.len() >= 9, "{} cells", base.cells.len());
}

#[test]
fn every_truncation_is_an_error() {
    let text = baseline();
    let mut inputs = 0;
    for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
        let what = || format!("the baseline cut at byte {cut}");
        assert!(parse(&text[..cut], what).is_err(), "{} parsed", what());
        inputs += 1;
    }
    assert!(inputs > 5_000, "{inputs} truncations");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    fn single_byte_edits_parse_or_error(
        frac in 0.0f64..1.0,
        byte in 0..EDIT_BYTES.len(),
        op in 0u8..3,
    ) {
        let mut bytes = baseline().as_bytes().to_vec();
        let at = (frac * bytes.len() as f64) as usize;
        let edit = match op {
            0 => {
                bytes[at] = EDIT_BYTES[byte];
                format!("byte {at} := {:?}", EDIT_BYTES[byte] as char)
            }
            1 => {
                bytes.insert(at, EDIT_BYTES[byte]);
                format!("insert {:?} at {at}", EDIT_BYTES[byte] as char)
            }
            _ => {
                bytes.remove(at);
                format!("delete byte {at}")
            }
        };
        // An edit inside a multi-byte character leaves invalid UTF-8,
        // which a `&str` reader can never be handed.
        if let Ok(edited) = String::from_utf8(bytes) {
            let _ = parse(&edited, || format!("the baseline with {edit}"));
        }
    }
}
