//! Quickstart: count the triangles of a graph in a few lines.
//!
//! ```sh
//! cargo run --release --example quickstart [path/to/edges.txt]
//! ```
//!
//! With a path, the file may be SNAP text, a tc-compare binary edge
//! list, or a binary CSR (auto-detected). Without one, a small synthetic
//! social network is generated.

use tc_compare::algos::{GroupTc, TcAlgorithm};
use tc_compare::graph::{clean_edges, gen, io, orient, Orientation};
use tc_compare::sim::Device;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Get an edge list: from a file, or generated.
    let raw = match std::env::args().nth(1) {
        Some(path) => io::read_edges_auto(std::fs::File::open(path)?)?,
        None => gen::barabasi_albert(10_000, 6, 0.4, 42),
    };

    // 2. Clean (drop self-loops, duplicates, isolated vertices) and
    //    orient into a DAG so each triangle is counted exactly once.
    let (graph, report) = clean_edges(&raw);
    let dag = orient(&graph, Orientation::DegreeAsc);
    println!(
        "graph: {} vertices, {} edges (cleaned: -{} self-loops, -{} duplicates)",
        graph.num_vertices(),
        graph.num_edges(),
        report.removed_self_loops,
        report.removed_duplicates
    );

    // 3. Run GroupTC on a simulated V100: one call uploads the graph,
    //    counts, frees the graph and checks nothing leaked.
    let result = GroupTc::default().run(&Device::v100(), &dag)?;

    println!("triangles: {}", result.triangles);
    println!(
        "modelled kernel time: {} cycles ({} global load requests, \
         warp efficiency {:.1}%)",
        result.stats.kernel_cycles,
        result.stats.counters.global_load_requests,
        result.stats.counters.warp_execution_efficiency() * 100.0
    );
    Ok(())
}
