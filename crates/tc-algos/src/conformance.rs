//! Cross-algorithm conformance checks: differential testing against the
//! CPU reference plus metamorphic invariants, all executed under the
//! simulator's data-race detector *and* SimSan.
//!
//! Since the backend split, every check is also *three-way* differential:
//! the sim kernel, the algorithm's native host kernel
//! ([`TcAlgorithm::count_cpu`]) and the `cpu_ref::node_iterator` oracle
//! must agree on every case — the CPU execution path lives behind the
//! same wall the sim path does.
//!
//! Every check runs on a [`Device::with_race_detection`] +
//! [`Device::with_sanitizer`] device, so a kernel that only *appears*
//! correct because the simulator serializes lanes (or zero-fills memory
//! that real hardware leaves as garbage) fails here with
//! [`SimError::DataRace`] or [`SimError::Sanitizer`] instead of passing
//! on a schedule-dependent answer. Each run goes through
//! [`TcAlgorithm::run`], whose leak check pins that the algorithm
//! released every scratch buffer it allocated.
//!
//! Failure messages always embed a paste-able generator call (kept in
//! sync with the actual case construction by `stringify!`), so any red
//! test reproduces with a one-liner like
//! `let edges = gen::rmat(9, 3000, 0.57, 0.19, 0.19, 0.05, 104);`.

use gpu_sim::{Device, SimError};
use graph_data::{clean_edges, cpu_ref, gen, orient, DagGraph, EdgeList, Orientation, VertexId};

use crate::api::{TcAlgorithm, TcOutput};

/// One conformance input: a generated graph plus the exact expression
/// that regenerates it.
pub struct ConformanceCase {
    /// Short case label (unique within [`generator_cases`]).
    pub name: &'static str,
    /// Paste-able expression reproducing `edges` exactly.
    pub repro: &'static str,
    /// Whether the (more expensive) metamorphic checks run on this case.
    pub metamorphic: bool,
    pub edges: EdgeList,
}

/// Builds a [`ConformanceCase`] whose `repro` string is derived from the
/// actual generator call, so the two can never drift apart.
macro_rules! case {
    ($name:literal, $metamorphic:expr, $gen:ident($($arg:expr),* $(,)?)) => {
        ConformanceCase {
            name: $name,
            repro: concat!(
                "gen::",
                stringify!($gen),
                "(",
                stringify!($($arg),*),
                ")"
            ),
            metamorphic: $metamorphic,
            edges: gen::$gen($($arg),*),
        }
    };
}

/// The conformance corpus: one or two representatives of every generator
/// family (Erdős–Rényi, Barabási–Albert, R-MAT, Watts–Strogatz, road
/// grid), sized so the full registry sweep stays in test-suite budget.
pub fn generator_cases() -> Vec<ConformanceCase> {
    vec![
        case!("er-sparse", false, erdos_renyi(200, 400, 101)),
        case!("er-dense", true, erdos_renyi(120, 2000, 102)),
        case!("ba-hubs", false, barabasi_albert(250, 5, 0.5, 103)),
        case!(
            "rmat-skewed",
            true,
            rmat(9, 3000, 0.57, 0.19, 0.19, 0.05, 104)
        ),
        case!(
            "rmat-uniform",
            false,
            rmat(8, 2500, 0.25, 0.25, 0.25, 0.25, 105)
        ),
        case!("ws-ring", true, watts_strogatz(180, 4, 0.15, 106)),
        case!("road-grid", true, road_grid(12, 12, 0.9, 0.4, 107)),
    ]
}

/// [`TcAlgorithm::run`] on a V100 with the data-race detector, SimSan
/// and SimLint forced on: the checked run every conformance check and
/// kernel fixture test uses. An algorithm that abandons a scratch buffer
/// fails with [`SimError::Sanitizer`] (leak), and one whose lanes
/// disagree on a barrier fails with [`SimError::BarrierDivergence`].
/// Performance lints are advisory and land in `TcOutput::stats.lint`.
pub fn run_checked(algo: &dyn TcAlgorithm, dag: &DagGraph) -> Result<TcOutput, SimError> {
    let dev = Device::v100()
        .with_race_detection()
        .with_sanitizer()
        .with_lints();
    algo.run(&dev, dag)
}

/// `run_checked` under the algorithm's preferred orientation, panicking
/// with the case's repro one-liner on any failure (including a detected
/// data race).
fn count_or_die(algo: &dyn TcAlgorithm, case: &ConformanceCase, dag: &DagGraph) -> TcOutput {
    match run_checked(algo, dag) {
        Ok(out) => out,
        Err(e) => panic!(
            "{} failed on case `{}` under {:?}: {e}\n  reproduce with: let edges = {};",
            algo.name(),
            case.name,
            dag.orientation(),
            case.repro,
        ),
    }
}

/// `count_cpu` for one case, asserting the host kernel agrees with the
/// node-iterator oracle (and therefore with any sim count that passed
/// its own differential check).
fn cpu_count_checked(algo: &dyn TcAlgorithm, case: &ConformanceCase, dag: &DagGraph) -> u64 {
    let expected = {
        let (g, _) = clean_edges(&case.edges);
        cpu_ref::node_iterator(&g)
    };
    let got = algo.count_cpu(dag);
    assert_eq!(
        got,
        expected,
        "{}: cpu kernel counted {got} but the node-iterator oracle says {expected} \
         on case `{}` under {:?}\n  reproduce with: let edges = {};",
        algo.name(),
        case.name,
        dag.orientation(),
        case.repro,
    );
    got
}

/// Differential check: the GPU count must equal the CPU node-iterator
/// baseline (an implementation independent of orientation and of every
/// GPU intersection strategy), and the algorithm's native host kernel
/// must agree with both. Returns the race-detector, sanitizer and lint
/// check counts so callers can prove all three were live.
pub fn check_differential(algo: &dyn TcAlgorithm, case: &ConformanceCase) -> (u64, u64, u64) {
    let (g, _) = clean_edges(&case.edges);
    let expected = cpu_ref::node_iterator(&g);
    let dag = orient(&g, algo.preferred_orientation());
    let out = count_or_die(algo, case, &dag);
    assert_eq!(
        out.triangles,
        expected,
        "{} counted {} but the CPU reference says {expected} on case `{}`\n  \
         reproduce with: let edges = {};",
        algo.name(),
        out.triangles,
        case.name,
        case.repro,
    );
    cpu_count_checked(algo, case, &dag);
    assert!(
        out.stats.counters.race_checks > 0,
        "{}: race detector performed no checks on `{}` — detection wiring is broken",
        algo.name(),
        case.name,
    );
    assert!(
        out.stats.counters.sanitizer_checks > 0,
        "{}: sanitizer performed no checks on `{}` — SimSan wiring is broken",
        algo.name(),
        case.name,
    );
    assert!(
        out.stats.counters.lint_checks > 0,
        "{}: SimLint performed no checks on `{}` — lint wiring is broken",
        algo.name(),
        case.name,
    );
    (
        out.stats.counters.race_checks,
        out.stats.counters.sanitizer_checks,
        out.stats.counters.lint_checks,
    )
}

/// Metamorphic check: the triangle count is a graph invariant, so the
/// three standard orientations must all agree — on both backends.
pub fn check_orientation_invariance(algo: &dyn TcAlgorithm, case: &ConformanceCase) {
    let (g, _) = clean_edges(&case.edges);
    let mut counts = Vec::new();
    for o in [
        Orientation::ById,
        Orientation::DegreeAsc,
        Orientation::DegreeDesc,
    ] {
        let dag = orient(&g, o);
        let sim = count_or_die(algo, case, &dag).triangles;
        let cpu = cpu_count_checked(algo, case, &dag);
        assert_eq!(
            cpu,
            sim,
            "{}: cpu and sim disagree under {o:?} on case `{}`\n  \
             reproduce with: let edges = {};",
            algo.name(),
            case.name,
            case.repro,
        );
        counts.push((o, sim));
    }
    let (first_o, first) = counts[0];
    for &(o, n) in &counts[1..] {
        assert_eq!(
            n,
            first,
            "{}: {o:?} counted {n} but {first_o:?} counted {first} on case `{}`\n  \
             reproduce with: let edges = {};",
            algo.name(),
            case.name,
            case.repro,
        );
    }
}

/// Metamorphic check: renaming vertices cannot change the number of
/// triangles. The permutation is a deterministic Fisher–Yates shuffle
/// seeded per case, so a failure reproduces exactly.
pub fn check_relabel_invariance(algo: &dyn TcAlgorithm, case: &ConformanceCase, seed: u64) {
    let baseline = {
        let (g, _) = clean_edges(&case.edges);
        let dag = orient(&g, algo.preferred_orientation());
        count_or_die(algo, case, &dag).triangles
    };
    let relabeled = relabel_edges(&case.edges, seed);
    let (g, _) = clean_edges(&relabeled);
    let dag = orient(&g, algo.preferred_orientation());
    let got = count_or_die(algo, case, &dag).triangles;
    assert_eq!(
        got,
        baseline,
        "{}: relabeling (seed {seed}) changed the count from {baseline} to {got} on case `{}`\n  \
         reproduce with: let edges = relabel_edges(&{}, {seed});",
        algo.name(),
        case.name,
        case.repro,
    );
    let cpu = algo.count_cpu(&dag);
    assert_eq!(
        cpu,
        baseline,
        "{}: cpu kernel counted {cpu} on the relabeled (seed {seed}) case `{}`, expected \
         {baseline}\n  reproduce with: let edges = relabel_edges(&{}, {seed});",
        algo.name(),
        case.name,
        case.repro,
    );
}

/// Metamorphic check on the cleaning pipeline itself (no GPU involved):
/// injecting self-loops and duplicate/reversed-duplicate edges must not
/// change the triangle count, and cleaning must be idempotent.
pub fn check_cleaning_idempotence(case: &ConformanceCase) {
    let (clean, _) = clean_edges(&case.edges);
    let expected = cpu_ref::node_iterator(&clean);

    let dirty = dirty_edges(&case.edges);
    let (recleaned, report) = clean_edges(&dirty);
    assert_eq!(
        cpu_ref::node_iterator(&recleaned),
        expected,
        "cleaning the dirtied `{}` changed its triangle count\n  \
         reproduce with: let edges = dirty_edges(&{});",
        case.name,
        case.repro,
    );
    assert!(
        report.removed_self_loops > 0 && report.removed_duplicates > 0,
        "dirtying `{}` should have injected removable noise",
        case.name,
    );

    // Idempotence: re-cleaning an already-clean graph removes nothing.
    let already_clean = EdgeList::new(clean.undirected_edges().collect());
    let (twice, report2) = clean_edges(&already_clean);
    assert_eq!(report2.removed_self_loops, 0, "case `{}`", case.name);
    assert_eq!(report2.removed_duplicates, 0, "case `{}`", case.name);
    assert_eq!(report2.removed_isolated_vertices, 0, "case `{}`", case.name);
    assert_eq!(twice.num_vertices(), clean.num_vertices());
    assert_eq!(twice.num_edges(), clean.num_edges());
}

/// Apply a seeded random permutation to the vertex labels of `edges`.
pub fn relabel_edges(edges: &EdgeList, seed: u64) -> EdgeList {
    let n = edges.id_space();
    let perm = permutation(n, seed);
    EdgeList::new(
        edges
            .edges
            .iter()
            .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
            .collect(),
    )
}

/// Inject the noise the paper's cleaning pipeline exists to remove:
/// self-loops, exact duplicates and reversed duplicates.
pub fn dirty_edges(edges: &EdgeList) -> EdgeList {
    let mut dirty = edges.edges.clone();
    for (i, &(u, v)) in edges.edges.iter().enumerate() {
        match i % 3 {
            0 => dirty.push((u, v)), // exact duplicate
            1 => dirty.push((v, u)), // reversed duplicate
            _ => dirty.push((u, u)), // self-loop
        }
    }
    EdgeList::new(dirty)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic Fisher–Yates permutation of `0..n`.
fn permutation(n: u32, seed: u64) -> Vec<VertexId> {
    let mut p: Vec<VertexId> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..p.len()).rev() {
        let j = (xorshift(&mut s) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Summary of one algorithm's pass through the whole corpus.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceStats {
    /// Differential + metamorphic GPU runs executed.
    pub runs: u64,
    /// Native host-kernel runs executed alongside the sim runs (every
    /// sim run is mirrored by a `count_cpu` differential twin).
    pub cpu_runs: u64,
    /// Race-detector checks accumulated across the differential runs —
    /// nonzero proves the suite exercised the detector.
    pub race_checks: u64,
    /// SimSan checks accumulated across the differential runs — nonzero
    /// proves the suite actually ran sanitized.
    pub sanitizer_checks: u64,
    /// SimLint checks accumulated across the differential runs — nonzero
    /// proves the suite actually ran under the diagnostics engine.
    pub lint_checks: u64,
}

/// Run the full conformance suite for one algorithm: differential on
/// every case (sim ≡ cpu ≡ node-iterator), metamorphic checks on the
/// designated subset.
pub fn run_all(algo: &dyn TcAlgorithm) -> ConformanceStats {
    let mut stats = ConformanceStats {
        runs: 0,
        cpu_runs: 0,
        race_checks: 0,
        sanitizer_checks: 0,
        lint_checks: 0,
    };
    for case in generator_cases() {
        let (race_checks, sanitizer_checks, lint_checks) = check_differential(algo, &case);
        stats.race_checks += race_checks;
        stats.sanitizer_checks += sanitizer_checks;
        stats.lint_checks += lint_checks;
        stats.runs += 1;
        stats.cpu_runs += 1;
        if case.metamorphic {
            check_orientation_invariance(algo, &case);
            check_relabel_invariance(algo, &case, 0xC0FFEE ^ case.name.len() as u64);
            stats.runs += 4; // three orientations + one relabeled run
            stats.cpu_runs += 4; // their host-kernel twins
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_generator_family() {
        let cases = generator_cases();
        for family in [
            "erdos_renyi",
            "barabasi_albert",
            "rmat",
            "watts_strogatz",
            "road_grid",
        ] {
            assert!(
                cases.iter().any(|c| c.repro.contains(family)),
                "no case for generator family `{family}`"
            );
        }
        assert!(
            cases.iter().filter(|c| c.metamorphic).count() >= 3,
            "metamorphic subset too thin"
        );
    }

    #[test]
    fn repro_strings_are_paste_able_generator_calls() {
        for case in generator_cases() {
            assert!(case.repro.starts_with("gen::"), "{}", case.repro);
            assert!(case.repro.ends_with(')'), "{}", case.repro);
        }
    }

    #[test]
    fn relabeling_is_a_permutation() {
        let edges = gen::erdos_renyi(50, 200, 1);
        let relabeled = relabel_edges(&edges, 99);
        assert_eq!(relabeled.len(), edges.len());
        let (g1, _) = clean_edges(&edges);
        let (g2, _) = clean_edges(&relabeled);
        assert_eq!(g1.num_vertices(), g2.num_vertices());
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(cpu_ref::node_iterator(&g1), cpu_ref::node_iterator(&g2));
    }

    #[test]
    fn dirtying_injects_all_three_noise_kinds() {
        let edges = gen::erdos_renyi(30, 90, 2);
        let dirty = dirty_edges(&edges);
        assert_eq!(dirty.len(), 2 * edges.len());
        let (_, report) = clean_edges(&dirty);
        assert!(report.removed_self_loops > 0);
        assert!(report.removed_duplicates > 0);
    }

    #[test]
    fn cleaning_idempotence_holds_on_the_corpus() {
        for case in generator_cases() {
            check_cleaning_idempotence(&case);
        }
    }
}
