//! Matrix Market (`.mtx`) import/export.
//!
//! The paper's original inputs are SuiteSparse/SNAP matrices distributed in
//! the Matrix Market coordinate format; this module lets the suite load the
//! *real* graphs when they are available, instead of the synthetic
//! stand-ins. Supports the `matrix coordinate` format with `pattern`,
//! `integer`, or `real` values and `general` or `symmetric` symmetry.

use crate::{Csr, CsrBuilder, GraphError};
use std::io::{BufRead, Write};
use std::path::Path;

/// How the entry values of an `.mtx` file are mapped to edge weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    Pattern,
    Integer,
    Real,
}

/// Parses a Matrix Market stream into a graph.
///
/// Rows/columns become vertices, entries become edges; `symmetric` files
/// are mirrored. Self-loops are dropped (as in ECL preprocessing). Values
/// are rounded/clamped into `u32` weights when present; `pattern` files
/// yield an unweighted graph.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] — carrying the 1-based line number — for
/// anything that is not a supported `matrix coordinate` file. Use
/// [`GraphError::in_file`] (or [`load_mtx`], which does it for you) to
/// attach the file path.
pub fn read_mtx<R: BufRead>(reader: R) -> Result<Csr, GraphError> {
    let at = |line: usize, message: String| GraphError::Parse {
        path: String::new(),
        line,
        message,
    };
    let mut lines = reader
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.map_err(|e| at(i + 1, format!("read failed: {e}")))));

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let header = match lines.next() {
        Some((_, line)) => line?,
        None => return Err(at(1, "empty file".into())),
    };
    let lower = header.to_lowercase();
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() < 5 || !tokens[0].starts_with("%%matrixmarket") {
        return Err(at(1, "missing MatrixMarket header".into()));
    }
    if tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(at(
            1,
            format!("unsupported object/format '{} {}'", tokens[1], tokens[2]),
        ));
    }
    let value_kind = match tokens[3] {
        "pattern" => ValueKind::Pattern,
        "integer" => ValueKind::Integer,
        "real" => ValueKind::Real,
        other => return Err(at(1, format!("unsupported field '{other}'"))),
    };
    let symmetric = match tokens[4] {
        "general" => false,
        "symmetric" => true,
        other => return Err(at(1, format!("unsupported symmetry '{other}'"))),
    };

    // Size line (skipping comments).
    let mut size_line = None;
    let mut last_line = 1;
    for (lineno, line) in lines.by_ref() {
        let line = line?;
        last_line = lineno;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some((lineno, trimmed.to_string()));
        break;
    }
    let (size_lineno, size_line) =
        size_line.ok_or_else(|| at(last_line, "missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| at(size_lineno, format!("bad size token '{t}'")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(at(size_lineno, "size line needs rows cols nnz".into()));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    let n = rows.max(cols);
    if u32::try_from(n).is_err() {
        return Err(at(
            size_lineno,
            format!("{rows}x{cols} matrix exceeds the u32 vertex-id range"),
        ));
    }

    let mut builder = CsrBuilder::new(n).symmetric(symmetric);
    let mut weights: Vec<((u32, u32), u32)> = Vec::new();
    let mut seen = 0usize;
    for (lineno, line) in lines {
        let line = line?;
        last_line = lineno;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: u32 = parse_coord(it.next(), lineno)?;
        let c: u32 = parse_coord(it.next(), lineno)?;
        if r as usize > n || c as usize > n {
            return Err(at(
                lineno,
                format!("coordinate ({r}, {c}) outside declared {rows}x{cols} matrix"),
            ));
        }
        // 1-indexed in the format.
        let (src, dst) = (r - 1, c - 1);
        let w = match value_kind {
            ValueKind::Pattern => None,
            ValueKind::Integer => Some(
                it.next()
                    .and_then(|t| t.parse::<i64>().ok())
                    .map(|v| v.unsigned_abs().min(u32::MAX as u64) as u32)
                    .ok_or_else(|| at(lineno, "missing integer value".into()))?,
            ),
            ValueKind::Real => Some(
                it.next()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(|v| v.abs().round().min(u32::MAX as f64) as u32)
                    .ok_or_else(|| at(lineno, "missing real value".into()))?,
            ),
        };
        if src != dst {
            builder.add_edge(src, dst);
            if let Some(w) = w {
                let key = if symmetric {
                    (src.min(dst), src.max(dst))
                } else {
                    (src, dst)
                };
                weights.push((key, w.max(1)));
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(at(
            last_line,
            format!("entry count mismatch: header says {nnz}, found {seen}"),
        ));
    }

    let g = builder.build();
    if value_kind == ValueKind::Pattern {
        return Ok(g);
    }
    // Attach weights by looking each edge up in the collected map.
    weights.sort_unstable();
    weights.dedup_by_key(|(k, _)| *k);
    let lookup = |a: u32, b: u32| -> u32 {
        let key = if symmetric {
            (a.min(b), a.max(b))
        } else {
            (a, b)
        };
        weights
            .binary_search_by_key(&key, |(k, _)| *k)
            .map(|i| weights[i].1)
            .unwrap_or(1)
    };
    let w: Vec<u32> = g.edges().map(|(u, v)| lookup(u, v)).collect();
    Csr::from_raw(g.row_offsets().to_vec(), g.col_indices().to_vec(), Some(w))
}

fn parse_coord(token: Option<&str>, line: usize) -> Result<u32, GraphError> {
    token
        .and_then(|t| t.parse::<u32>().ok())
        .filter(|&v| v >= 1)
        .ok_or_else(|| GraphError::Parse {
            path: String::new(),
            line,
            message: match token {
                Some(t) => format!("bad coordinate '{t}' (need a 1-based integer)"),
                None => "missing coordinate".into(),
            },
        })
}

/// Writes a graph as a Matrix Market coordinate file (`general` symmetry,
/// `pattern` or `integer` depending on whether the graph is weighted).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_mtx<W: Write>(g: &Csr, mut writer: W) -> std::io::Result<()> {
    let field = if g.weights().is_some() {
        "integer"
    } else {
        "pattern"
    };
    writeln!(writer, "%%MatrixMarket matrix coordinate {field} general")?;
    writeln!(writer, "% written by ecl-graph")?;
    writeln!(
        writer,
        "{} {} {}",
        g.num_vertices(),
        g.num_vertices(),
        g.num_edges()
    )?;
    let weights = g.weights();
    for (e, (u, v)) in g.edges().enumerate() {
        match weights {
            Some(w) => writeln!(writer, "{} {} {}", u + 1, v + 1, w[e])?,
            None => writeln!(writer, "{} {}", u + 1, v + 1)?,
        }
    }
    Ok(())
}

/// Reads an `.mtx` file from a path. See [`read_mtx`].
///
/// # Errors
///
/// Returns [`GraphError::Io`] when the file cannot be opened and
/// [`GraphError::Parse`] for malformed content; both report the path (and,
/// for parse errors, the line).
pub fn load_mtx<P: AsRef<Path>>(path: P) -> Result<Csr, GraphError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| GraphError::Io {
        path: path.display().to_string(),
        message: format!("open failed: {e}"),
    })?;
    read_mtx(std::io::BufReader::new(file)).map_err(|e| e.in_file(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pattern_symmetric() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a triangle\n\
                    3 3 3\n\
                    2 1\n\
                    3 1\n\
                    3 2\n";
        let g = read_mtx(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6); // mirrored
        assert!(g.is_symmetric());
        assert!(g.weights().is_none());
    }

    #[test]
    fn parses_integer_general() {
        let text = "%%MatrixMarket matrix coordinate integer general\n\
                    2 2 2\n\
                    1 2 7\n\
                    2 1 9\n";
        let g = read_mtx(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        let w = g.weights().unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.contains(&7) && w.contains(&9));
    }

    #[test]
    fn parses_real_values_rounded() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1\n\
                    1 2 3.7\n";
        let g = read_mtx(text.as_bytes()).unwrap();
        assert_eq!(g.weights().unwrap()[0], 4);
    }

    #[test]
    fn drops_self_loops_but_counts_them() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 1\n\
                    1 2\n";
        let g = read_mtx(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_bad_header_and_counts() {
        assert!(read_mtx("not a matrix\n1 1 0\n".as_bytes()).is_err());
        assert!(read_mtx(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 2\n".as_bytes()
        )
        .is_err());
        assert!(
            read_mtx("%%MatrixMarket matrix array real general\n2 2 1\n1 2 1.0\n".as_bytes())
                .is_err()
        );
    }

    #[test]
    fn parse_errors_report_the_line() {
        // Bad coordinate on line 4 (header, size, good entry, bad entry).
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    3 3 2\n\
                    1 2\n\
                    1 frog\n";
        match read_mtx(text.as_bytes()).unwrap_err() {
            GraphError::Parse { line, message, .. } => {
                assert_eq!(line, 4);
                assert!(message.contains("frog"), "got: {message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_coordinates_are_an_error_not_a_panic() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 1\n\
                    1 9\n";
        match read_mtx(text.as_bytes()).unwrap_err() {
            GraphError::Parse { line, message, .. } => {
                assert_eq!(line, 3);
                assert!(message.contains("outside declared"), "got: {message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn oversized_dimensions_are_rejected_on_the_size_line() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % rows past u32::MAX\n\
                    4294967296 2 1\n\
                    1 2\n";
        match read_mtx(text.as_bytes()).unwrap_err() {
            GraphError::Parse { line, message, .. } => {
                assert_eq!(line, 3);
                assert!(message.contains("u32"), "got: {message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn load_errors_report_the_path() {
        let err = load_mtx("/no/such/dir/graph.mtx").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("/no/such/dir/graph.mtx"), "got: {text}");
        // Parse errors get the path stitched in by load_mtx.
        let dir = std::env::temp_dir().join("ecl_mtx_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.mtx");
        std::fs::write(&path, "not a matrix\n").unwrap();
        let text = load_mtx(&path).unwrap_err().to_string();
        assert!(text.contains("bad.mtx:1:"), "got: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_through_mtx() {
        let g = crate::gen::rmat(64, 256, 0.5, 0.2, 0.2, true, 3).with_random_weights(50, 1);
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).unwrap();
        let back = read_mtx(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = crate::gen::star_polygon(32, 5);
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).unwrap();
        let back = read_mtx(&buf[..]).unwrap();
        assert_eq!(g, back);
    }
}
