//! The one registry of every counter under evaluation: the eight
//! published implementations in Table I order (chronological), then
//! GroupTC (as in Figure 15), then the cover-edge counter (PAPERS.md
//! follow-on work).
//!
//! GroupTC-H, the paper's Section VI future work, is deliberately not
//! registered: every sweep, figure and pin runs these ten. It has its
//! own conformance run next to the registry sweep.

use crate::api::TcAlgorithm;
use crate::{
    bisson::Bisson, coveredge::CoverEdge, fox::Fox, green::Green, grouptc::GroupTc, hindex::HIndex,
    hu::Hu, polak::Polak, tricore::TriCore, trust::Trust,
};

/// All ten counters: Table I order, then GroupTC, then CoverEdge.
pub fn all_algorithms() -> Vec<Box<dyn TcAlgorithm>> {
    vec![
        Box::new(Green),
        Box::new(Polak),
        Box::new(Bisson),
        Box::new(TriCore),
        Box::new(Fox),
        Box::new(Hu),
        Box::new(HIndex),
        Box::new(Trust),
        Box::new(GroupTc::default()),
        Box::new(CoverEdge),
    ]
}

/// Look an algorithm up by (case-insensitive) name.
pub fn algorithm_by_name(name: &str) -> Option<Box<dyn TcAlgorithm>> {
    all_algorithms()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_pins_the_table1_rows_in_order() {
        use crate::api::{Granularity::*, Intersection::*, IteratorKind::*};
        let mut algos = all_algorithms();
        algos.push(Box::new(crate::GroupTcHybrid::default()));
        let rows: Vec<_> = algos
            .iter()
            .map(|a| a.meta())
            .map(|m| (m.name, m.year, m.iterator, m.intersection, m.granularity))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("Green", 2014, Edge, Merge, Fine),
                ("Polak", 2016, Edge, Merge, Coarse),
                ("Bisson", 2017, Vertex, BitMap, Coarse),
                ("TriCore", 2018, Edge, BinSearch, Fine),
                ("Fox", 2018, Edge, MergeOrBinSearch, Fine),
                ("Hu", 2019, Vertex, BinSearch, Fine),
                ("H-INDEX", 2019, Edge, Hash, Fine),
                ("TRUST", 2021, Vertex, Hash, Fine),
                ("GroupTC", 2024, Edge, BinSearch, Fine),
                ("CoverEdge", 2024, Edge, Merge, Coarse),
                ("GroupTC-H", 2024, Edge, Hash, Fine),
            ]
        );
        let mut names: Vec<&str> = rows.iter().map(|r| r.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "names must be unique");
    }

    #[test]
    fn lookup_is_case_insensitive_and_registry_only() {
        assert!(algorithm_by_name("grouptc").is_some());
        assert!(algorithm_by_name("TRUST").is_some());
        assert!(algorithm_by_name("coveredge").is_some());
        assert!(algorithm_by_name("polak").is_some());
        assert!(algorithm_by_name("GroupTC-H").is_none());
        assert!(algorithm_by_name("cuGraph").is_none());
    }
}
