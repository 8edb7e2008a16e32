//! Malformed-input tests for run-store segments: `RunStore::open` reads
//! every `segment-*.jsonl` file in its directory, which a crash, a
//! truncated copy or a hand edit can leave in any state.
//!
//! The input is one segment written by the store itself (a clean run
//! and a run with a failure). The store is reopened over every
//! char-boundary truncation of it, and over single-byte edits — replace,
//! insert or delete one byte of [`EDIT_BYTES`] — that leave valid UTF-8.
//! Properties: `open` never panics and never fails; every record it
//! serves re-encodes to exactly the bytes committed for its key; and a
//! truncation loads exactly the lines it leaves whole.

use proptest::prelude::*;
use scenario::{
    CacheKey, ClusterStrategy, Executor, FailureSpec, ProtocolSpec, RunCache, ScenarioSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use sweep_server::codec::encode_record;
use sweep_server::RunStore;
use workloads::WorkloadSpec;

/// Bytes an edit writes: JSON's structure, escapes, number and literal
/// characters, and whitespace.
const EDIT_BYTES: &[u8] = b"{}[]:,\"\\-+.0159eEtfnu \n";

/// A segment as the store wrote it, and each cell's key with the record
/// bytes committed for it.
struct Written {
    segment: String,
    committed: Vec<(CacheKey, String)>,
}

fn written() -> &'static Written {
    static WRITTEN: OnceLock<Written> = OnceLock::new();
    WRITTEN.get_or_init(|| {
        let netpipe = WorkloadSpec::NetPipe {
            rounds: 3,
            bytes: 256,
        };
        let clean = ScenarioSpec::new(netpipe, ProtocolSpec::hydee(), ClusterStrategy::PerRank);
        let failed = clean.clone().with_failures(vec![FailureSpec {
            at_us: 1,
            ranks: vec![1],
        }]);
        let dir = scratch("written");
        let store = RunStore::open(&dir).unwrap();
        let committed = [clean, failed]
            .iter()
            .map(|spec| {
                store.get_or_run(spec, &|| Executor::run_one(spec));
                let stored = store.get(spec.cache_key()).unwrap();
                (spec.cache_key(), stored.raw.clone())
            })
            .collect();
        drop(store);
        let mut segments = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect::<Vec<_>>();
        assert_eq!(segments.len(), 1, "one handle writes one segment");
        let segment = std::fs::read_to_string(segments.pop().unwrap()).unwrap();
        Written { segment, committed }
    })
}

/// An empty directory of its own under the build's scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("store_malformed_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reopen a store whose one segment holds `text`, and check what it
/// serves: never a panic or an error, and only records that re-encode to
/// exactly their committed bytes. Returns the load report.
fn reopen(dir: &Path, text: &str, what: &dyn Fn() -> String) -> sweep_server::LoadReport {
    std::fs::write(dir.join("segment-000000.jsonl"), text).unwrap();
    let store = catch_unwind(AssertUnwindSafe(|| RunStore::open(dir)))
        .unwrap_or_else(|_| panic!("open panicked on {}", what()))
        .unwrap_or_else(|e| panic!("open failed on {}: {e}", what()));
    let mut served = 0;
    for (key, committed) in &written().committed {
        if let Some(stored) = store.get(*key) {
            assert_eq!(&stored.raw, committed, "{}", what());
            assert_eq!(&encode_record(&stored.record), committed, "{}", what());
            served += 1;
        }
    }
    assert_eq!(store.len(), served, "{}: a record under a new key", what());
    store.load_report()
}

#[test]
fn the_written_segment_loads_whole() {
    let dir = scratch("whole");
    let w = written();
    let report = reopen(&dir, &w.segment, &|| "the written segment".into());
    assert_eq!((report.loaded, report.skipped), (2, 0));
}

#[test]
fn every_segment_truncation_loads_exactly_its_whole_lines() {
    let dir = scratch("truncations");
    let text = &written().segment;
    // Byte offset where each line's content ends (before its newline).
    let ends: Vec<usize> = text.match_indices('\n').map(|(i, _)| i).collect();
    assert_eq!(ends.len(), 2);
    let mut inputs = 0;
    for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
        let what = || format!("segment cut at byte {cut}");
        let report = reopen(&dir, &text[..cut], &what);
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(report.loaded, whole, "{}", what());
        inputs += 1;
    }
    assert!(inputs > 1_000, "{inputs} truncations");
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
    fn single_byte_edits_of_a_segment_never_panic(
        frac in 0.0f64..1.0,
        byte in 0..EDIT_BYTES.len(),
        op in 0u8..3,
    ) {
        static DIR: OnceLock<PathBuf> = OnceLock::new();
        let dir = DIR.get_or_init(|| scratch("edits"));
        let (bytes, label) = edit(written().segment.as_bytes().to_vec(), frac, EDIT_BYTES[byte], op);
        // An edit inside a multi-byte character leaves invalid UTF-8,
        // which `open` reports as an I/O error of the whole segment.
        if let Ok(edited) = String::from_utf8(bytes) {
            let report = reopen(dir, &edited, &|| label.clone());
            prop_assert!(report.loaded <= 2, "{}: {:?}", label, report);
        }
    }
}
