//! Every committed pin, checked on the tier-1 path: each entry of
//! `tc_bench::pins::PIN_FILES` must render to the committed bytes of its
//! file. After an intentional change, refresh them all with
//! `cargo run --release -p tc-bench -- pins` at the repo root and commit
//! the diff.

use std::path::Path;

use rayon::prelude::*;
use tc_bench::pins::{PinFile, PIN_FILES};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Assert `text` is the committed file of `pin`, naming the file and the
/// first line that differs.
fn assert_committed(pin: &PinFile, text: &str) {
    let committed = std::fs::read_to_string(Path::new(ROOT).join(pin.path))
        .unwrap_or_else(|e| panic!("read committed {}: {e}", pin.path));
    for (i, (got, want)) in text.lines().zip(committed.lines()).enumerate() {
        assert_eq!(got, want, "{} line {} differs", pin.path, i + 1);
    }
    assert_eq!(text, committed, "{} differs in length", pin.path);
}

fn render(pin: &PinFile) -> String {
    (pin.render)().unwrap_or_else(|e| panic!("{}: {e}", pin.path))
}

/// The only test in this binary that launches kernels, so no other test
/// holds part of the rayon worker budget while it runs.
#[test]
fn every_pin_renders_its_committed_bytes() {
    for pin in PIN_FILES {
        assert_committed(pin, &render(pin));
    }
    // Determinism against worker count: the outer parallel loop holds
    // every worker, so each launch inside item 0 runs its blocks inline
    // on one worker. The sweep is left out: its 30 cells on one worker
    // would take minutes.
    for pin in PIN_FILES.iter().filter(|pin| pin.path != "SWEEP_sim.csv") {
        let text = (0..rayon::current_num_threads())
            .into_par_iter()
            .map(|i| (i == 0).then(|| render(pin)))
            .collect::<Vec<_>>()
            .swap_remove(0)
            .expect("item 0 renders");
        assert_committed(pin, &text);
    }
}

/// No pin is committed outside `tc pins`: every `*_sim.*` file at the
/// repo root is a `PIN_FILES` entry, and every entry exists.
#[test]
fn every_root_sim_file_is_a_pin_and_every_pin_exists() {
    for entry in std::fs::read_dir(ROOT).expect("list the repo root") {
        let name = entry.expect("read a repo root entry").file_name();
        let name = name.to_string_lossy();
        if name.contains("_sim.") {
            assert!(
                PIN_FILES.iter().any(|pin| pin.path == name),
                "{name} is not written by `tc pins`"
            );
        }
    }
    for pin in PIN_FILES {
        assert!(
            Path::new(ROOT).join(pin.path).is_file(),
            "{} is missing",
            pin.path
        );
    }
}
