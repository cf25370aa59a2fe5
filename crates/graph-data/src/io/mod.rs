//! Data transformation tools: parsers and writers for the edge-list
//! formats the published implementations consume (Section IV: "text edge
//! lists, binary edge lists, CSRs, etc."), with format auto-detection.

mod binary;
mod csr_file;
mod matrix_market;
mod snap;

pub use binary::{read_binary_edges, write_binary_edges, BINARY_MAGIC};
pub use csr_file::{read_csr, write_csr, CSR_MAGIC};
pub use matrix_market::{read_matrix_market, write_matrix_market, MM_MAGIC};
pub use snap::{parse_snap_text, write_snap_text};

use std::io::{self, Read};

use crate::types::EdgeList;

/// Which on-disk format a byte stream is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    SnapText,
    BinaryEdges,
    Csr,
    MatrixMarket,
}

/// Sniff the format from the leading bytes.
pub fn detect_format(head: &[u8]) -> Format {
    if head.starts_with(BINARY_MAGIC) {
        Format::BinaryEdges
    } else if head.starts_with(CSR_MAGIC) {
        Format::Csr
    } else if head.starts_with(MM_MAGIC) {
        Format::MatrixMarket
    } else {
        Format::SnapText
    }
}

/// Read an edge list from any supported format.
pub fn read_edges_auto<R: Read>(mut reader: R) -> io::Result<EdgeList> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    match detect_format(&bytes) {
        Format::BinaryEdges => read_binary_edges(&bytes[..]),
        Format::SnapText => parse_snap_text(&bytes[..]),
        Format::Csr => {
            let csr = read_csr(&bytes[..])?;
            Ok(EdgeList::new(csr.edge_iter().collect()))
        }
        Format::MatrixMarket => read_matrix_market(&bytes[..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection() {
        assert_eq!(detect_format(b"# comment\n0 1\n"), Format::SnapText);
        assert_eq!(detect_format(BINARY_MAGIC), Format::BinaryEdges);
        assert_eq!(detect_format(CSR_MAGIC), Format::Csr);
        assert_eq!(
            detect_format(b"%%MatrixMarket matrix"),
            Format::MatrixMarket
        );
        assert_eq!(detect_format(b""), Format::SnapText);
    }

    #[test]
    fn auto_roundtrip_all_formats() {
        let edges = EdgeList::new(vec![(0, 1), (1, 2), (5, 3)]);

        let mut text = Vec::new();
        write_snap_text(&mut text, &edges).unwrap();
        assert_eq!(read_edges_auto(&text[..]).unwrap(), edges);

        let mut bin = Vec::new();
        write_binary_edges(&mut bin, &edges).unwrap();
        assert_eq!(read_edges_auto(&bin[..]).unwrap(), edges);

        let csr =
            crate::types::Csr::from_adjacency(&[vec![1], vec![2], vec![], vec![], vec![], vec![3]]);
        let mut csr_bytes = Vec::new();
        write_csr(&mut csr_bytes, &csr).unwrap();
        let roundtrip = read_edges_auto(&csr_bytes[..]).unwrap();
        assert_eq!(roundtrip, EdgeList::new(vec![(0, 1), (1, 2), (5, 3)]));

        let mut mm = Vec::new();
        write_matrix_market(&mut mm, &edges).unwrap();
        assert_eq!(read_edges_auto(&mm[..]).unwrap(), edges);
    }
}
