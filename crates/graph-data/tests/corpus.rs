//! The malformed-fixture corpus: every file under `tests/corpus/` is a
//! deliberately broken input in one of the four supported formats
//! (SNAP text, binary edges, CSR, MatrixMarket). The hardened loaders
//! must reject each with a structured `io::Error` — never a panic, and
//! never a silently wrong edge list. CI runs this in the `test` job's
//! `cargo test --workspace -q`; adding a new breakage class is just
//! dropping a file in the directory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use graph_data::io::read_edges_auto;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_corpus_fixture_errors_without_panicking() {
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.is_file())
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 14,
        "corpus should hold the full breakage matrix, found {}",
        fixtures.len()
    );

    let mut covered_ext = std::collections::BTreeSet::new();
    for path in &fixtures {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        covered_ext.insert(path.extension().unwrap().to_string_lossy().into_owned());
        let bytes = std::fs::read(path).expect("fixture readable");
        // The loader must return Err — and must do so without
        // unwinding, which is what a slice-index or allocation bug
        // would do instead.
        let result = catch_unwind(AssertUnwindSafe(|| read_edges_auto(&bytes[..])));
        match result {
            Ok(Ok(edges)) => panic!(
                "{name}: malformed fixture parsed successfully into {} edge(s)",
                edges.len()
            ),
            Ok(Err(e)) => {
                assert!(
                    !e.to_string().is_empty(),
                    "{name}: error must carry a message"
                );
            }
            Err(_) => panic!("{name}: loader panicked instead of returning Err"),
        }
    }
    // All four formats are represented: text, binary, csr, matrix
    // market.
    for ext in ["txt", "bin", "csr", "mtx"] {
        assert!(covered_ext.contains(ext), "corpus covers no .{ext} fixture");
    }
}
