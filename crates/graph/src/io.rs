//! Binary CSR file format (ECLgraph-style).
//!
//! Layout (all little-endian `u32` unless noted):
//!
//! ```text
//! magic "ECLR" | version | flags | num_vertices | num_edges
//! row_offsets[num_vertices + 1]
//! col_indices[num_edges]
//! weights[num_edges]            (only if flags bit 0 set)
//! ```

use crate::{Csr, GraphError};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"ECLR";
const VERSION: u32 = 1;
const FLAG_WEIGHTS: u32 = 1;

/// Writes a graph to `writer` in the binary CSR format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_graph<W: Write>(g: &Csr, mut writer: W) -> std::io::Result<()> {
    writer.write_all(MAGIC)?;
    let flags = if g.weights().is_some() {
        FLAG_WEIGHTS
    } else {
        0
    };
    for word in [
        VERSION,
        flags,
        g.num_vertices() as u32,
        g.num_edges() as u32,
    ] {
        writer.write_all(&word.to_le_bytes())?;
    }
    for &w in g.row_offsets() {
        writer.write_all(&w.to_le_bytes())?;
    }
    for &w in g.col_indices() {
        writer.write_all(&w.to_le_bytes())?;
    }
    if let Some(weights) = g.weights() {
        for &w in weights {
            writer.write_all(&w.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a graph previously written by [`write_graph`].
///
/// # Errors
///
/// Returns [`GraphError::Format`] on malformed input and propagates the
/// validation errors of [`Csr::from_raw`].
pub fn read_graph<R: Read>(mut reader: R) -> Result<Csr, GraphError> {
    let mut magic = [0u8; 4];
    read_exact(&mut reader, &mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::Format("bad magic".into()));
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(GraphError::Format(format!("unsupported version {version}")));
    }
    let flags = read_u32(&mut reader)?;
    let n = read_u32(&mut reader)? as usize;
    let m = read_u32(&mut reader)? as usize;
    let row_offsets = read_u32_vec(&mut reader, n + 1)?;
    let col_indices = read_u32_vec(&mut reader, m)?;
    let weights = if flags & FLAG_WEIGHTS != 0 {
        Some(read_u32_vec(&mut reader, m)?)
    } else {
        None
    };
    Csr::from_raw(row_offsets, col_indices, weights)
}

/// Writes a graph to a file path. See [`write_graph`].
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save<P: AsRef<Path>>(g: &Csr, path: P) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_graph(g, std::io::BufWriter::new(file))
}

/// Reads a graph from a file path. See [`read_graph`].
///
/// # Errors
///
/// Returns [`GraphError::Io`] — reporting the path — when the file cannot be
/// opened or decoded.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Csr, GraphError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| GraphError::Io {
        path: path.display().to_string(),
        message: format!("open failed: {e}"),
    })?;
    read_graph(std::io::BufReader::new(file)).map_err(|e| e.in_file(path))
}

fn read_exact<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<(), GraphError> {
    reader
        .read_exact(buf)
        .map_err(|e| GraphError::Format(format!("short read: {e}")))
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32, GraphError> {
    let mut buf = [0u8; 4];
    read_exact(reader, &mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads `len` words. The buffer grows only as bytes arrive, so a header
/// that declares more than the stream holds cannot make it allocate more
/// than the stream's size.
fn read_u32_vec<R: Read>(reader: &mut R, len: usize) -> Result<Vec<u32>, GraphError> {
    let want = len as u64 * 4;
    let mut bytes = Vec::new();
    reader
        .take(want)
        .read_to_end(&mut bytes)
        .map_err(|e| GraphError::Format(format!("read failed: {e}")))?;
    if bytes.len() as u64 != want {
        return Err(GraphError::Format(format!(
            "short read: {} of {want} bytes",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip_unweighted() {
        let g = gen::rmat(256, 1024, 0.57, 0.19, 0.19, true, 4);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_weighted() {
        let g = gen::grid2d_torus(8, 8).with_random_weights(1000, 3);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_graph(&b"NOPE\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)));
    }

    #[test]
    fn oversized_header_is_a_short_read_not_an_allocation() {
        // Declares u32::MAX vertices and edges, then ends after 3 words.
        let mut buf = MAGIC.to_vec();
        for word in [VERSION, 0, u32::MAX, u32::MAX, 0, 0, 0] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        match read_graph(&buf[..]).unwrap_err() {
            GraphError::Format(message) => assert!(message.contains("short read"), "{message}"),
            other => panic!("expected Format, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let g = gen::grid2d_torus(4, 4);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_graph(&buf[..]).is_err());
    }
}
