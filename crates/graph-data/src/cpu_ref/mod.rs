//! Exact CPU triangle counters used as ground truth for every GPU run,
//! plus the two non-intersection baselines sketched in the paper's
//! Section II (matrix multiplication and subgraph matching).

mod baselines;
mod intersect;
mod itc;

pub use baselines::{matmul_count, node_iterator, subgraph_match};
pub use intersect::{
    intersect_binsearch, intersect_bitmap, intersect_hash, intersect_merge, Bitmap, HashTable,
};
pub use itc::{
    forward_bitmap_parallel, forward_merge, forward_merge_parallel, forward_parallel,
    per_edge_supports,
};
