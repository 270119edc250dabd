//! Comparison with the committed golden files under `output/`.
//!
//! A deliberate change regenerates the file (the fresh copy is written
//! under the test's target scratch directory) and says why in CHANGES.md.

use std::path::Path;

fn read_committed(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Compares `fresh` with `committed`, reporting the first differing line
/// and writing the fresh copy to the target scratch directory as `copy`.
fn assert_same(what: &str, copy: &str, committed: &str, fresh: &str) {
    if committed == fresh {
        return;
    }
    let fresh_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(copy);
    std::fs::write(&fresh_path, fresh).expect("write fresh copy");
    let first_diff = committed
        .lines()
        .zip(fresh.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| committed.lines().count().min(fresh.lines().count()));
    panic!(
        "{what} differs from this build at line {} (committed {} bytes, fresh {} bytes); \
         fresh copy written to {}",
        first_diff + 1,
        committed.len(),
        fresh.len(),
        fresh_path.display()
    );
}

fn file_name(file: &str) -> &str {
    Path::new(file)
        .file_name()
        .and_then(|n| n.to_str())
        .expect("file name")
}

/// Compares `fresh` with the committed `file`.
#[allow(dead_code)]
pub fn assert_matches_committed(file: &str, fresh: &str) {
    assert_same(file, file_name(file), &read_committed(file), fresh);
}

/// Compares `fresh` with one part of the committed `file`: the lines from
/// `heading` (a line starting with `## `, which `fresh` begins with) up to
/// the next such line or the end of the file.
#[allow(dead_code)]
pub fn assert_part_matches_committed(file: &str, heading: &str, fresh: &str) {
    let committed = read_committed(file);
    let start = committed
        .find(&format!("{heading}\n"))
        .unwrap_or_else(|| panic!("{file} has no line '{heading}'"));
    let part = &committed[start..];
    let end = part[heading.len()..]
        .find("\n## ")
        .map_or(part.len(), |i| heading.len() + i + 1);
    let what = format!("{file} part '{heading}'");
    let copy = format!("{}.{}", file_name(file), heading.trim_start_matches("## "));
    assert_same(&what, &copy, &part[..end], fresh);
}
