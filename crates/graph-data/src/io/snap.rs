//! SNAP text edge-list format: one `src dst` pair per line (whitespace or
//! tab separated), `#`-prefixed comment lines, as distributed at
//! <https://snap.stanford.edu/data/>.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use crate::types::EdgeList;

/// Parse SNAP text. Malformed lines produce `InvalidData` errors with the
/// line number; blank lines and comments are skipped.
pub fn parse_snap_text<R: Read>(reader: R) -> io::Result<EdgeList> {
    let mut edges = Vec::new();
    let mut buf = String::new();
    let mut reader = BufReader::new(reader);
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u32> {
            tok.ok_or_else(|| malformed(line_no, line))?
                .parse::<u32>()
                .map_err(|_| malformed(line_no, line))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        // Extra columns (weights, timestamps) are tolerated and ignored,
        // like the paper's transformation tools do for temporal graphs
        // such as sx-stackoverflow.
        edges.push((u, v));
    }
    Ok(EdgeList::new(edges))
}

fn malformed(line_no: usize, line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed SNAP line {line_no}: {line:?}"),
    )
}

/// Write SNAP text with a provenance header.
pub fn write_snap_text<W: Write>(writer: W, edges: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# Directed edge list written by tc-compare")?;
    writeln!(w, "# Edges: {}", edges.len())?;
    for &(u, v) in &edges.edges {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_tabs() {
        let text = "# FromNodeId\tToNodeId\n\n0\t1\n2 3\n  4   5  \n";
        let e = parse_snap_text(text.as_bytes()).unwrap();
        assert_eq!(e.edges, vec![(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn tolerates_extra_columns() {
        let text = "0 1 1350000000\n1 2 1360000000\n";
        let e = parse_snap_text(text.as_bytes()).unwrap();
        assert_eq!(e.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_snap_text("0 x\n".as_bytes()).is_err());
        assert!(parse_snap_text("42\n".as_bytes()).is_err());
        assert!(parse_snap_text("-1 3\n".as_bytes()).is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_snap_text("0 1\nbad line\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn roundtrip() {
        let e = EdgeList::new(vec![(3, 1), (0, 0), (7, 9)]);
        let mut out = Vec::new();
        write_snap_text(&mut out, &e).unwrap();
        assert_eq!(parse_snap_text(&out[..]).unwrap(), e);
    }

    #[test]
    fn empty_input_is_empty_list() {
        assert!(parse_snap_text("".as_bytes()).unwrap().is_empty());
        assert!(parse_snap_text("# only comments\n".as_bytes())
            .unwrap()
            .is_empty());
    }
}
