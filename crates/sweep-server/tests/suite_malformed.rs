//! Malformed-input tests for the suite DSL, `scenario::Suite::parse_str`,
//! which compiles every suite the sweep CLI and the server's spool read.
//!
//! The inputs come from each checked-in `suites/*.suite` file: every
//! truncation at a char boundary, and single-byte edits — delete one
//! byte, or replace or insert one byte of [`EDIT_BYTES`] — that leave
//! valid UTF-8. Property: `parse_str` returns `Ok` or a `SuiteError`
//! naming the origin, and never panics.

use proptest::prelude::*;
use scenario::Suite;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

/// Bytes an edit writes: the DSL's structure (tables, arrays, strings,
/// comments, axis sugar), digits, letters and whitespace.
const EDIT_BYTES: &[u8] = b"[]=,\"#.:-_ \n\t019az";

/// Every checked-in suite file as `(name, text)`, sorted by name.
fn corpus() -> &'static [(String, String)] {
    static CORPUS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../suites");
        let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "suite"))
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        files.sort();
        assert!(files.len() >= 9, "suite corpus went missing: {files:?}");
        files
    })
}

/// The parser's contract on one input: `Ok`, or an error naming the
/// origin — never a panic. `what` names the input if it panics.
fn check(name: &str, text: &str, what: impl Fn() -> String) -> bool {
    match catch_unwind(AssertUnwindSafe(|| Suite::parse_str(text, name))) {
        Ok(Ok(_)) => true,
        Ok(Err(e)) => {
            assert_eq!(e.file, name, "{}: error lost its origin", what());
            false
        }
        Err(_) => panic!("Suite::parse_str panicked on {}", what()),
    }
}

#[test]
fn the_checked_in_suites_parse() {
    for (name, text) in corpus() {
        assert!(check(name, text, || name.clone()), "{name} must parse");
    }
}

#[test]
fn every_truncation_parses_or_errors() {
    let mut inputs = 0;
    for (name, text) in corpus() {
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            check(name, &text[..cut], || format!("{name} cut at byte {cut}"));
            inputs += 1;
        }
    }
    assert!(inputs > 10_000, "{inputs} truncations");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// Sampled rather than exhaustive: most edits still compile, and all
    /// 536,046 valid-UTF-8 edits of the corpus take minutes to parse in a
    /// debug build.
    #[test]
    fn single_byte_edits_parse_or_error(
        file in 0..corpus().len(),
        frac in 0.0f64..1.0,
        byte in 0..EDIT_BYTES.len(),
        op in 0u8..3,
    ) {
        let (name, text) = &corpus()[file];
        let mut bytes = text.as_bytes().to_vec();
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
            check(name, &edited, || format!("{name}: {edit}"));
        }
    }
}
