//! Binary CSR format: magic, `u32` vertex count, `u64` target count, the
//! offsets array, then the targets array (all little-endian). Several of
//! the published implementations load CSRs directly; the framework
//! converts once and reuses.

use std::io::{self, Read, Write};

use super::binary::read_full_at;
use crate::types::Csr;

/// File magic for binary CSR files.
pub const CSR_MAGIC: &[u8; 8] = b"TCCSRv01";

/// Byte offset where the offsets array starts (magic + n + m).
const CSR_HEADER_BYTES: u64 = 20;

/// Streaming slab size for payload reads (see `io::binary`).
const SLAB_BYTES: usize = 1 << 20;

/// Write a CSR.
pub fn write_csr<W: Write>(mut w: W, csr: &Csr) -> io::Result<()> {
    w.write_all(CSR_MAGIC)?;
    w.write_all(&csr.num_vertices().to_le_bytes())?;
    w.write_all(&csr.num_entries().to_le_bytes())?;
    let mut buf = Vec::with_capacity((csr.offsets().len() + csr.targets().len()) * 4);
    for &x in csr.offsets() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    for &x in csr.targets() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    w.write_all(&buf)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Stream `count` little-endian u32 words starting at absolute byte
/// offset `base`, in bounded slabs — a header whose declared sizes
/// exceed the remaining stream length fails at the truncation offset
/// instead of allocating the declared size up front.
fn read_u32s_streamed<R: Read>(r: &mut R, count: u64, base: u64) -> io::Result<Vec<u32>> {
    let count_usize = usize::try_from(count).map_err(|_| {
        invalid(format!(
            "declared word count {count} exceeds the address space"
        ))
    })?;
    let total_bytes = count * 4;
    let mut words = Vec::with_capacity(count_usize.min(SLAB_BYTES / 4));
    let mut slab = vec![0u8; SLAB_BYTES.min(total_bytes.max(1) as usize)];
    let mut consumed = 0u64;
    while consumed < total_bytes {
        let want = usize::try_from((total_bytes - consumed).min(SLAB_BYTES as u64)).unwrap();
        read_full_at(r, &mut slab[..want], base + consumed)?;
        words.extend(
            slab[..want]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        consumed += want as u64;
    }
    Ok(words)
}

/// Read a CSR, validating the header and structure. Every length and
/// offset computation is checked; malformed input returns `InvalidData`
/// with the byte offset, never a panic.
pub fn read_csr<R: Read>(mut r: R) -> io::Result<Csr> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != CSR_MAGIC {
        return Err(invalid("not a tc-compare CSR file (bad magic)".into()));
    }
    let mut b4 = [0u8; 4];
    read_full_at(&mut r, &mut b4, 8)?;
    let n = u32::from_le_bytes(b4);
    let mut b8 = [0u8; 8];
    read_full_at(&mut r, &mut b8, 12)?;
    let m = u64::from_le_bytes(b8);
    // Targets are indexed by u32 offsets, so any m beyond u32::MAX can
    // never be consistent with the offsets array — reject it before
    // trusting it to size anything.
    if m > u32::MAX as u64 {
        return Err(invalid(format!(
            "declared target count {m} exceeds the u32 offset space (header at byte offset 12)"
        )));
    }
    // n + 1 <= 2^32 words, so the targets base cannot overflow a u64.
    let targets_base = CSR_HEADER_BYTES + (n as u64 + 1) * 4;
    let offsets = read_u32s_streamed(&mut r, n as u64 + 1, CSR_HEADER_BYTES)?;
    let targets = read_u32s_streamed(&mut r, m, targets_base)?;
    validate_offsets(&offsets, m)?;
    let mut trailer = [0u8; 1];
    if r.read(&mut trailer)? != 0 {
        return Err(invalid("trailing bytes after declared CSR arrays".into()));
    }
    Ok(Csr::from_parts(offsets, targets))
}

/// The structural invariants [`Csr::from_parts`] would otherwise assert
/// on (and panic): checked here so corrupt files surface as `Err`.
fn validate_offsets(offsets: &[u32], num_targets: u64) -> io::Result<()> {
    if offsets.first() != Some(&0)
        || offsets.last().map(|&o| o as u64) != Some(num_targets)
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(invalid("inconsistent CSR offsets".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let csr = Csr::from_adjacency(&[vec![1, 2], vec![2], vec![], vec![0]]);
        let mut bytes = Vec::new();
        write_csr(&mut bytes, &csr).unwrap();
        assert_eq!(read_csr(&bytes[..]).unwrap(), csr);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let csr = Csr::from_adjacency(&[]);
        let mut bytes = Vec::new();
        write_csr(&mut bytes, &csr).unwrap();
        let back = read_csr(&bytes[..]).unwrap();
        assert_eq!(back.num_vertices(), 0);
    }

    #[test]
    fn corrupt_offsets_rejected() {
        let csr = Csr::from_adjacency(&[vec![1], vec![0]]);
        let mut bytes = Vec::new();
        write_csr(&mut bytes, &csr).unwrap();
        // Corrupt the first offset (byte 20 = after magic + n + m).
        bytes[20] = 9;
        assert!(read_csr(&bytes[..]).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(read_csr(&b"XXXXXXXX\0\0\0\0\0\0\0\0\0\0\0\0"[..]).is_err());
    }

    #[test]
    fn oversized_vertex_count_rejected_without_huge_alloc() {
        // n = u32::MAX declares a ~16 GiB offsets array; the reader must
        // fail at the truncation offset, not attempt the allocation.
        let mut bytes = CSR_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = read_csr(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte offset"), "{err}");
    }

    #[test]
    fn target_count_beyond_u32_rejected() {
        let mut bytes = CSR_MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 8).to_le_bytes());
        let err = read_csr(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("u32 offset space"), "{err}");
    }

    #[test]
    fn declared_sizes_exceeding_stream_rejected_with_offset() {
        // A valid one-vertex header whose targets array is missing.
        let csr = Csr::from_adjacency(&[vec![0]]);
        let mut bytes = Vec::new();
        write_csr(&mut bytes, &csr).unwrap();
        bytes.truncate(bytes.len() - 4);
        let err = read_csr(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // offsets end at 20 + 8 = 28; the missing target word is at 28.
        assert!(err.to_string().contains("byte offset 28"), "{err}");
    }

    #[test]
    fn truncated_header_rejected() {
        let mut bytes = CSR_MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 0]); // n cut short
        let err = read_csr(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let csr = Csr::from_adjacency(&[vec![1], vec![]]);
        let mut bytes = Vec::new();
        write_csr(&mut bytes, &csr).unwrap();
        bytes.push(7);
        assert!(read_csr(&bytes[..]).is_err());
    }
}
