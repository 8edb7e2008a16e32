//! Malformed-input tests for the service's record and request layers:
//! `codec::decode_verified`, which guards every record the run store
//! loads, and `Server::handle_request`, which answers every TCP line.
//!
//! The inputs come from emitted record lines (simulated, then encoded
//! exactly as the store persists them) and from well-formed request
//! lines: every truncation at a char boundary, and single-byte edits —
//! replace, insert or delete one byte of [`EDIT_BYTES`] — that leave
//! valid UTF-8. Properties: `decode_verified` returns an `Err`, or a
//! record that re-encodes to exactly its input; `handle_request` answers
//! one JSON line, and `{"ok":false,...}` to anything that is not a
//! request. Neither ever panics.

use proptest::prelude::*;
use scenario::{ClusterStrategy, Executor, FailureSpec, ProtocolSpec, ScenarioSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use sweep_server::codec::{decode_verified, encode_record};
use sweep_server::{RunStore, Server};
use telemetry::json::Value;
use workloads::WorkloadSpec;

/// Bytes an edit writes: JSON's structure, escapes, number and literal
/// characters, and whitespace.
const EDIT_BYTES: &[u8] = b"{}[]:,\"\\-+.0159eEtfnu \n";

/// Emitted record lines: a clean run and a run with a failure.
fn records() -> &'static [String] {
    static RECORDS: OnceLock<Vec<String>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let netpipe = WorkloadSpec::NetPipe {
            rounds: 3,
            bytes: 256,
        };
        let clean = ScenarioSpec::new(netpipe, ProtocolSpec::hydee(), ClusterStrategy::PerRank);
        let failed = clean.clone().with_failures(vec![FailureSpec {
            at_us: 1,
            ranks: vec![1],
        }]);
        [clean, failed]
            .iter()
            .map(|spec| encode_record(&Executor::run_one(spec)))
            .collect()
    })
}

/// Well-formed request lines, one per command that leaves the server
/// serving.
const REQUESTS: &[&str] = &[
    r#"{"cmd":"submit","suite":"[scenario.a]\nworkloads = [\"netpipe:8\"]\n","name":"j","priority":2,"max_cells":1}"#,
    r#"{"cmd":"status","job":1}"#,
    r#"{"cmd":"status"}"#,
    r#"{"cmd":"cancel","job":1}"#,
    r#"{"cmd":"result","job":1}"#,
    r#"{"cmd":"stats"}"#,
];

/// One server over an empty store in the build's scratch directory. No
/// worker is spawned, so submitted jobs only queue.
fn server() -> &'static Server {
    static SERVER: OnceLock<Arc<Server>> = OnceLock::new();
    SERVER.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("record_malformed_store");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(RunStore::open(&dir).unwrap());
        Server::new(store, None)
    })
}

/// `decode_verified`'s contract on one input: an `Err`, or a record
/// that re-encodes to exactly `raw` — never a panic.
fn check_decode(raw: &str, what: &dyn Fn() -> String) {
    match catch_unwind(AssertUnwindSafe(|| decode_verified(raw))) {
        Ok(Ok(record)) => assert_eq!(encode_record(&record), raw, "{}", what()),
        Ok(Err(_)) => {}
        Err(_) => panic!("decode_verified panicked on {}", what()),
    }
}

/// `handle_request`'s contract on one input: one JSON line whose `ok`
/// is a bool, carrying an `error` string when false — never a panic.
/// Returns `ok`.
fn check_request(line: &str, what: &dyn Fn() -> String) -> bool {
    let response = catch_unwind(AssertUnwindSafe(|| server().handle_request(line)))
        .unwrap_or_else(|_| panic!("handle_request panicked on {}", what()));
    let body = response
        .strip_suffix('\n')
        .unwrap_or_else(|| panic!("{}: response lacks its newline", what()));
    assert!(!body.contains('\n'), "{}: multi-line response", what());
    let v = Value::parse(body).unwrap_or_else(|e| panic!("{}: bad response JSON: {e}", what()));
    let ok = v
        .get("ok")
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("{}: response without `ok`", what()));
    if !ok {
        assert!(
            v.get("error").and_then(Value::as_str).is_some(),
            "{}: failure without an error string",
            what()
        );
    }
    ok
}

/// A record line is never a request: the server must refuse it.
fn check_record(raw: &str, what: &dyn Fn() -> String) {
    check_decode(raw, what);
    assert!(
        !check_request(raw, what),
        "{}: a record was accepted",
        what()
    );
}

/// Every char-boundary prefix of `text`, with its length.
fn truncations(text: &str) -> impl Iterator<Item = (usize, &str)> {
    (0..text.len())
        .filter(|&c| text.is_char_boundary(c))
        .map(|c| (c, &text[..c]))
}

#[test]
fn emitted_records_round_trip_and_are_not_requests() {
    for raw in records() {
        decode_verified(raw).expect("an emitted record decodes");
        check_record(raw, &|| "the emitted record".into());
    }
    for req in REQUESTS {
        assert!(
            check_request(req, &|| req.to_string()),
            "{req} must be served"
        );
    }
}

#[test]
fn every_record_truncation_is_refused() {
    let mut inputs = 0;
    for (i, raw) in records().iter().enumerate() {
        for (cut, prefix) in truncations(raw) {
            let what = || format!("record {i} cut at byte {cut}");
            assert!(decode_verified(prefix).is_err(), "{}", what());
            check_record(prefix, &what);
            inputs += 1;
        }
    }
    assert!(inputs > 1_000, "{inputs} truncations");
}

#[test]
fn every_request_truncation_is_answered() {
    for req in REQUESTS {
        for (cut, prefix) in truncations(req) {
            let ok = check_request(prefix, &|| format!("{req} cut at byte {cut}"));
            assert!(!ok, "{req} cut at byte {cut} was accepted");
        }
    }
}

/// `bytes` with one edit applied at `frac` of its length, and a label.
fn edit(mut bytes: Vec<u8>, frac: f64, byte: u8, op: u8) -> (Vec<u8>, String) {
    let at = (frac * bytes.len() as f64) as usize;
    let label = match op {
        0 => {
            bytes[at] = byte;
            format!("byte {at} := {:?}", byte as char)
        }
        1 => {
            bytes.insert(at, byte);
            format!("insert {:?} at {at}", byte as char)
        }
        _ => {
            bytes.remove(at);
            format!("delete byte {at}")
        }
    };
    (bytes, label)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    fn single_byte_edits_of_records_never_panic(
        which in 0usize..2,
        frac in 0.0f64..1.0,
        byte in 0..EDIT_BYTES.len(),
        op in 0u8..3,
    ) {
        let raw = &records()[which];
        let (bytes, label) = edit(raw.as_bytes().to_vec(), frac, EDIT_BYTES[byte], op);
        // An edit inside a multi-byte character leaves invalid UTF-8,
        // which a `&str` reader can never be handed.
        if let Ok(edited) = String::from_utf8(bytes) {
            check_record(&edited, &|| format!("record {which}: {label}"));
        }
    }

    #[test]
    fn single_byte_edits_of_requests_never_panic(
        which in 0..REQUESTS.len(),
        frac in 0.0f64..1.0,
        byte in 0..EDIT_BYTES.len(),
        op in 0u8..3,
    ) {
        let req = REQUESTS[which];
        let (bytes, label) = edit(req.as_bytes().to_vec(), frac, EDIT_BYTES[byte], op);
        if let Ok(edited) = String::from_utf8(bytes) {
            check_request(&edited, &|| format!("{req}: {label}"));
        }
    }
}
