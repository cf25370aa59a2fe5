//! Profiling utility: one-line counter digest per algorithm for a
//! single dataset — handy when calibrating the cost model.
use gpu_sim::{Device, DeviceMem};
use graph_data::{orient, DatasetSpec};
use tc_algos::all_algorithms;
use tc_algos::device_graph::DeviceGraph;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Com-Lj".into());
    // Optional second arg: comma-separated algorithm filter.
    let filter: Option<Vec<String>> = std::env::args()
        .nth(2)
        .map(|s| s.split(',').map(|a| a.to_lowercase()).collect());
    let dev = Device::v100();
    let g = DatasetSpec::by_name(&name).unwrap().build();
    for algo in all_algorithms() {
        if let Some(f) = &filter {
            if !f.contains(&algo.name().to_lowercase()) {
                continue;
            }
        }
        let dag = orient(&g, algo.preferred_orientation());
        let mut mem = DeviceMem::new(&dev);
        let dg = DeviceGraph::upload(&dag, &mut mem).unwrap();
        match algo.count(&dev, &mut mem, &dg) {
            Ok(out) => {
                let c = out.stats.counters;
                let sectors = c.dram_load_sectors + c.gst_transactions + c.global_atomic_requests;
                println!(
                    "{:<9} cyc={:>9} blkcyc={:>11} bw_floor={:>9} reqs={:>9} tx={:>9} dram={:>9} eff={:>5.1}% tpr={:>5.2} atom={:>8} sh={:>9} slots={:>10}",
                    algo.name(), out.stats.kernel_cycles, out.stats.total_block_cycles,
                    sectors / 20, c.global_load_requests, c.gld_transactions,
                    c.dram_load_sectors,
                    c.warp_execution_efficiency() * 100.0, c.gld_transactions_per_request(),
                    c.global_atomic_requests,
                    c.shared_load_requests + c.shared_store_requests + c.shared_atomic_requests,
                    c.issued_slots
                );
            }
            Err(e) => println!("{:<9} FAILED: {e}", algo.name()),
        }
    }
}
