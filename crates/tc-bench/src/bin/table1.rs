//! Regenerates Table I: the taxonomy of major ITC algorithms on GPUs
//! (reference, year, iterator, intersection method, granularity), plus
//! the GroupTC row.

use tc_algos::all_algorithms;
use tc_algos::api::{Granularity, Intersection, IteratorKind};
use tc_core::framework::report::Table;

fn main() {
    let mut t = Table::new(&[
        "Name",
        "Year",
        "Iterator",
        "Intersection",
        "Granularity",
        "Reference",
    ]);
    for algo in all_algorithms() {
        let m = algo.meta();
        t.row(vec![
            m.name.to_string(),
            m.year.to_string(),
            match m.iterator {
                IteratorKind::Vertex => "vertex",
                IteratorKind::Edge => "edge",
            }
            .to_string(),
            match m.intersection {
                Intersection::Merge => "Merge",
                Intersection::BinSearch => "Bin-Search",
                Intersection::Hash => "Hash",
                Intersection::BitMap => "BitMap",
                Intersection::MergeOrBinSearch => "Merge/Bin-Search",
            }
            .to_string(),
            match m.granularity {
                Granularity::Coarse => "coarse",
                Granularity::Fine => "fine",
            }
            .to_string(),
            m.reference.to_string(),
        ]);
    }
    println!("TABLE I: MAJOR ITC ALGORITHMS ON GPUS (+ GroupTC)");
    println!("{}", t.render());
}
