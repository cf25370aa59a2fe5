//! Global clustering coefficient of a social network — one of the
//! motivating applications in the paper's introduction.
//!
//! The coefficient is `3 * triangles / wedges`; triangles come from a
//! GPU counter, wedges (`sum over v of C(deg(v), 2)`) from the degree
//! sequence.
//!
//! ```sh
//! cargo run --release --example clustering_coefficient [dataset-name]
//! ```

use tc_compare::algos::{GroupTc, TcAlgorithm};
use tc_compare::graph::{orient, DatasetSpec, Orientation};
use tc_compare::sim::Device;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Com-Dblp".to_string());
    let spec = DatasetSpec::by_name(&name)
        .ok_or_else(|| format!("unknown dataset `{name}` (see Table II)"))?;
    eprintln!("building {} stand-in...", spec.name);
    let graph = spec.build();

    // Wedges from the degree sequence.
    let wedges: u64 = (0..graph.num_vertices())
        .map(|v| {
            let d = graph.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();

    // Triangles on the simulated GPU.
    let dag = orient(&graph, Orientation::DegreeAsc);
    let result = GroupTc::default().run(&Device::v100(), &dag)?;

    let coefficient = if wedges == 0 {
        0.0
    } else {
        3.0 * result.triangles as f64 / wedges as f64
    };
    println!("dataset:               {}", spec.name);
    println!(
        "vertices / edges:      {} / {}",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!("triangles:             {}", result.triangles);
    println!("wedges:                {wedges}");
    println!("clustering coefficient: {coefficient:.4}");
    Ok(())
}
