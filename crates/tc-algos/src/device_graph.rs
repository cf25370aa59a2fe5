//! The oriented graph as it lives on the simulated device, plus host
//! mirrors used for launch planning (grid sizing, workload binning,
//! degree classification) — the part real implementations do on the CPU
//! before the timed kernel. A cell runs on one device, so every kernel's
//! work covers the whole graph: all `num_edges` edges and all
//! `num_vertices` pivots.

use gpu_sim::{BufId, DeviceMem, SimError};
use graph_data::DagGraph;

/// CSR + edge arrays uploaded to device memory.
#[derive(Debug)]
pub struct DeviceGraph {
    pub num_vertices: u32,
    pub num_edges: u32,
    /// CSR row offsets (`num_vertices + 1` words).
    pub row_offsets: BufId,
    /// CSR column indices (`num_edges` words), per-vertex sorted.
    pub col_indices: BufId,
    /// Edge-centric source array (CSR edge order).
    pub edge_src: BufId,
    /// Edge-centric destination array (CSR edge order).
    pub edge_dst: BufId,
    pub max_out_degree: u32,
    /// Host mirror of the offsets (launch planning only — reads of this
    /// are CPU work, not device traffic).
    pub host_offsets: Vec<u32>,
    /// Host mirror of the edge endpoints (launch planning only).
    pub host_src: Vec<u32>,
    pub host_dst: Vec<u32>,
}

impl DeviceGraph {
    /// Upload an oriented DAG. Fails with [`SimError::OutOfMemory`] when
    /// the graph alone exceeds device capacity.
    pub fn upload(dag: &DagGraph, mem: &mut DeviceMem) -> Result<Self, SimError> {
        let csr = dag.csr();
        let (src, dst) = dag.edge_arrays();
        let row_offsets = mem.alloc_from_slice(csr.offsets(), "csr.row_offsets")?;
        let col_indices = mem.alloc_from_slice(csr.targets(), "csr.col_indices")?;
        let edge_src = mem.alloc_from_slice(&src, "edges.src")?;
        let edge_dst = mem.alloc_from_slice(&dst, "edges.dst")?;
        Ok(DeviceGraph {
            num_vertices: dag.num_vertices(),
            num_edges: dag.num_edges() as u32,
            row_offsets,
            col_indices,
            edge_src,
            edge_dst,
            max_out_degree: dag.max_out_degree(),
            host_offsets: csr.offsets().to_vec(),
            host_src: src,
            host_dst: dst,
        })
    }

    /// Host-side out-degree (planning only).
    #[inline]
    pub fn host_out_degree(&self, v: u32) -> u32 {
        self.host_offsets[v as usize + 1] - self.host_offsets[v as usize]
    }

    /// Average out-degree = edges / vertices (Bisson's mode switch).
    pub fn avg_out_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            return 0.0;
        }
        self.num_edges as f64 / self.num_vertices as f64
    }

    /// Release the graph's device buffers. Freeing the same graph twice
    /// surfaces as [`SimError::Sanitizer`] (double-free).
    pub fn free(self, mem: &mut DeviceMem) -> Result<(), SimError> {
        mem.free(self.row_offsets)?;
        mem.free(self.col_indices)?;
        mem.free(self.edge_src)?;
        mem.free(self.edge_dst)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use graph_data::{clean_edges, orient, EdgeList, Orientation};

    fn upload_triangle() -> (Device, DeviceMem, DeviceGraph) {
        let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1), (1, 2), (0, 2)]));
        let dag = orient(&g, Orientation::ById);
        let dev = Device::v100();
        let mut mem = DeviceMem::new(&dev);
        let dg = DeviceGraph::upload(&dag, &mut mem).unwrap();
        (dev, mem, dg)
    }

    #[test]
    fn upload_mirrors_host_data() {
        let (_, mem, dg) = upload_triangle();
        assert_eq!(dg.num_vertices, 3);
        assert_eq!(dg.num_edges, 3);
        assert_eq!(mem.read_back(dg.row_offsets), dg.host_offsets);
        assert_eq!(mem.read_back(dg.edge_src), dg.host_src);
        assert_eq!(mem.read_back(dg.edge_dst), dg.host_dst);
        assert_eq!(dg.host_out_degree(0), 2);
        assert_eq!(dg.max_out_degree, 2);
        assert!((dg.avg_out_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn free_releases_capacity() {
        let (_, mut mem, dg) = upload_triangle();
        let before = mem.allocated_words();
        assert!(before > 0);
        dg.free(&mut mem).unwrap();
        assert_eq!(mem.allocated_words(), 0);
        assert!(mem.leak_check().is_ok());
    }

    #[test]
    fn upload_fails_on_tiny_device() {
        let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1), (1, 2), (0, 2)]));
        let dag = orient(&g, Orientation::ById);
        let dev = Device::with_memory_words(4);
        let mut mem = DeviceMem::new(&dev);
        assert!(matches!(
            DeviceGraph::upload(&dag, &mut mem),
            Err(SimError::OutOfMemory { .. })
        ));
    }
}
