//! # tc-compare — facade crate
//!
//! Re-exports the whole reproduction of *"A Comparative Study of
//! Intersection-Based Triangle Counting Algorithms on GPUs"* behind one
//! dependency:
//!
//! * [`sim`] — the deterministic SIMT GPU simulator substrate.
//! * [`graph`] — graph formats, cleaning, generators, dataset registry and
//!   CPU reference triangle counters.
//! * [`algos`] — every counter behind one registry: the eight published
//!   GPU ITC algorithms (Polak, Green, Bisson, TriCore, Fox, Hu, H-INDEX,
//!   TRUST), the paper's new GroupTC, CoverEdge, and GroupTC-H.
//! * [`core`] — the unified evaluation framework that runs them.
//!
//! See `examples/quickstart.rs` for a five-line triangle count.
//!
//! ```
//! use tc_compare::algos::{GroupTc, TcAlgorithm};
//! use tc_compare::graph::{clean_edges, orient, EdgeList, Orientation};
//! use tc_compare::sim::Device;
//!
//! let raw = EdgeList::new(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let (graph, _) = clean_edges(&raw);
//! let dag = orient(&graph, Orientation::DegreeAsc);
//!
//! // Upload, count, free the graph and leak-check, in one call.
//! let out = GroupTc::default().run(&Device::v100(), &dag)?;
//! assert_eq!(out.triangles, 1);
//! # Ok::<(), tc_compare::sim::SimError>(())
//! ```

pub use gpu_sim as sim;
pub use graph_data as graph;
pub use tc_algos as algos;
pub use tc_core as core;
