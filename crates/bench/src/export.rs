//! Machine-readable bench artifacts: a tiny dependency-free JSON layer and
//! the `BENCH_RESULTS.json` report built from measured tables.
//!
//! The repo vendors stubs instead of real crates, so there is no serde; the
//! [`Json`] tree here writes deterministic, pretty-printed JSON (object keys
//! keep insertion order, floats use Rust's shortest round-trip formatting)
//! and parses it back for the round-trip tests. Two runs of the same
//! experiment — at any worker count — must produce byte-identical reports,
//! except for the optional `timing` block, which callers omit when diffing.

use crate::matrix::{CellFailure, Experiment, MeasuredCell, MeasuredTable, VariantProfile};
use crate::stats::geomean;
use ecl_core::suite::{Algorithm, RunError};
use ecl_graph::inputs::{directed_catalog, undirected_catalog};
use ecl_graph::props::GraphProperties;
use ecl_simt::metrics::RunStats;
use ecl_simt::GpuConfig;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so rendered output is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Renders the value on a single line with no whitespace — the form the
    /// JSONL journal writes (one record per line) and the form record
    /// digests are computed over. Parses back to the same tree as
    /// [`Json::render`]'s output.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is the shortest representation that parses
                    // back to the same bits — exactly what a diffable,
                    // round-trippable artifact needs.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed
    /// input.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Combine a surrogate pair when one follows.
                            let c = if (0xd800..0xdc00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| "bad \\u escape".to_string())?);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe via chars()).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(cp)
    }
}

/// Wall-clock metadata for one full sweep. Excluded from determinism diffs
/// (pass `timing: None` to [`BenchReport`]) because it is the one part of
/// the report that legitimately differs between runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTiming {
    /// Seconds spent on the undirected (CC/GC/MIS/MST) sweep.
    pub undirected_seconds: f64,
    /// Seconds spent on the directed (SCC) sweep.
    pub directed_seconds: f64,
}

/// Everything `BENCH_RESULTS.json` serializes.
#[derive(Debug, Clone)]
pub struct BenchReport<'a> {
    /// The experiment configuration that produced the tables.
    pub experiment: &'a Experiment,
    /// The undirected sweep (Tables IV–VII).
    pub undirected: &'a MeasuredTable,
    /// The directed sweep (Table VIII).
    pub directed: &'a MeasuredTable,
    /// Wall-clock metadata, or `None` for byte-stable diffable output.
    pub timing: Option<SweepTiming>,
}

impl BenchReport<'_> {
    /// Builds the JSON tree.
    pub fn to_json(&self) -> Json {
        let e = self.experiment;
        let mut top = vec![
            ("schema", Json::Str("ecl-bench/BENCH_RESULTS/v1".into())),
            (
                "experiment",
                Json::obj(vec![
                    ("scale", Json::Num(e.scale)),
                    ("runs", Json::Num(e.runs as f64)),
                    ("seed", Json::Num(e.seed as f64)),
                    ("jobs", Json::Num(e.jobs as f64)),
                    (
                        "gpus",
                        Json::Arr(e.gpus.iter().map(|g| Json::Str(g.name.into())).collect()),
                    ),
                ]),
            ),
        ];
        if let Some(t) = self.timing {
            top.push((
                "timing",
                Json::obj(vec![
                    ("wall_undirected_seconds", Json::Num(t.undirected_seconds)),
                    ("wall_directed_seconds", Json::Num(t.directed_seconds)),
                    (
                        "wall_total_seconds",
                        Json::Num(t.undirected_seconds + t.directed_seconds),
                    ),
                ]),
            ));
        }
        top.push((
            "tables",
            Json::obj(vec![
                ("undirected", table_json(self.undirected)),
                ("directed", table_json(self.directed)),
            ]),
        ));
        Json::obj(top)
    }

    /// Renders the full pretty-printed document (with trailing newline).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render();
        s.push('\n');
        s
    }
}

/// Serializes one [`MeasuredTable`]: every cell, every recorded failure, and
/// the per-(GPU, algorithm) min/geomean/max summary rows of the paper's
/// tables.
pub fn table_json(table: &MeasuredTable) -> Json {
    let cells = table.cells.iter().map(cell_json).collect();
    let failures = table.failures.iter().map(failure_json).collect();

    // Summary rows in first-appearance order, mirroring the text tables.
    let mut gpus: Vec<&'static str> = Vec::new();
    let mut algorithms: Vec<Algorithm> = Vec::new();
    for c in &table.cells {
        if !gpus.contains(&c.gpu) {
            gpus.push(c.gpu);
        }
        if !algorithms.contains(&c.algorithm) {
            algorithms.push(c.algorithm);
        }
    }
    let mut summary = Vec::new();
    for gpu in &gpus {
        for &alg in &algorithms {
            let col = table.column(gpu, alg);
            if col.is_empty() {
                continue;
            }
            summary.push(Json::obj(vec![
                ("gpu", Json::Str((*gpu).into())),
                ("algorithm", Json::Str(alg.name().into())),
                (
                    "min",
                    Json::Num(col.iter().copied().fold(f64::INFINITY, f64::min)),
                ),
                ("geomean", Json::Num(geomean(&col))),
                ("max", Json::Num(col.iter().copied().fold(0.0, f64::max))),
            ]));
        }
    }

    Json::obj(vec![
        ("cells", Json::Arr(cells)),
        ("failures", Json::Arr(failures)),
        ("summary", Json::Arr(summary)),
    ])
}

/// Serializes one measured cell. This is the *lossless* form: together with
/// [`parse_cell`] it round-trips every field bit-exactly (floats use
/// shortest round-trip formatting), which is what lets a resumed sweep
/// reconstruct journaled cells without re-running them and still produce a
/// byte-identical report.
pub fn cell_json(c: &MeasuredCell) -> Json {
    Json::obj(vec![
        ("input", Json::Str(c.input.into())),
        ("algorithm", Json::Str(c.algorithm.name().into())),
        ("gpu", Json::Str(c.gpu.into())),
        ("baseline_cycles", Json::Num(c.baseline_cycles)),
        ("racefree_cycles", Json::Num(c.racefree_cycles)),
        ("speedup", Json::Num(c.speedup)),
        ("vertices", Json::Num(c.props.num_vertices as f64)),
        ("edges", Json::Num(c.props.num_edges as f64)),
        ("avg_degree", Json::Num(c.props.avg_degree)),
        ("max_degree", Json::Num(c.props.max_degree as f64)),
        ("min_degree", Json::Num(c.props.min_degree as f64)),
        ("baseline_profile", profile_json(&c.baseline_profile)),
        ("racefree_profile", profile_json(&c.racefree_profile)),
    ])
}

/// Serializes one cell failure (same shape `BENCH_RESULTS.json` uses).
pub fn failure_json(f: &CellFailure) -> Json {
    Json::obj(vec![
        ("input", Json::Str(f.input.into())),
        ("algorithm", Json::Str(f.algorithm.name().into())),
        ("gpu", Json::Str(f.gpu.into())),
        ("run", Json::Num(f.run as f64)),
        ("error", Json::Str(f.error.to_string())),
    ])
}

/// Resolves an input name back to the catalog's `&'static str` for it, so
/// deserialized cells compare pointer-free against freshly measured ones.
pub fn resolve_input_name(name: &str) -> Option<&'static str> {
    undirected_catalog()
        .iter()
        .chain(directed_catalog())
        .map(|i| i.name())
        .find(|n| *n == name)
}

fn field_num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn field_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn parse_cell_names(j: &Json) -> Result<(&'static str, Algorithm, &'static str), String> {
    let input = field_str(j, "input")?;
    let input = resolve_input_name(input).ok_or_else(|| format!("unknown input '{input}'"))?;
    let alg = field_str(j, "algorithm")?;
    let algorithm = Algorithm::parse(alg).ok_or_else(|| format!("unknown algorithm '{alg}'"))?;
    let gpu = field_str(j, "gpu")?;
    let gpu = GpuConfig::by_name(gpu)
        .map(|g| g.name)
        .ok_or_else(|| format!("unknown gpu '{gpu}'"))?;
    Ok((input, algorithm, gpu))
}

/// Inverse of [`cell_json`]. Input and GPU names are resolved back to the
/// catalogs' `&'static str`s; unknown names are an error (the journal came
/// from a different build).
pub fn parse_cell(j: &Json) -> Result<MeasuredCell, String> {
    let (input, algorithm, gpu) = parse_cell_names(j)?;
    let profile = |key: &str| -> Result<VariantProfile, String> {
        let p = j.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        Ok(VariantProfile {
            l1_hit_rate: field_num(p, "l1_hit_rate")?,
            atomic_accesses: field_num(p, "atomic_accesses")? as u64,
            launches: field_num(p, "launches")? as u64,
        })
    };
    Ok(MeasuredCell {
        input,
        algorithm,
        gpu,
        baseline_cycles: field_num(j, "baseline_cycles")?,
        racefree_cycles: field_num(j, "racefree_cycles")?,
        speedup: field_num(j, "speedup")?,
        props: GraphProperties {
            num_vertices: field_num(j, "vertices")? as usize,
            num_edges: field_num(j, "edges")? as usize,
            avg_degree: field_num(j, "avg_degree")?,
            max_degree: field_num(j, "max_degree")? as usize,
            min_degree: field_num(j, "min_degree")? as usize,
        },
        baseline_profile: profile("baseline_profile")?,
        racefree_profile: profile("racefree_profile")?,
    })
}

/// Inverse of [`failure_json`]. The typed [`RunError`] was flattened to its
/// display string when serialized, so it comes back as
/// [`RunError::Remote`] — which displays as exactly that string, keeping
/// re-serialization stable.
pub fn parse_failure(j: &Json) -> Result<CellFailure, String> {
    let (input, algorithm, gpu) = parse_cell_names(j)?;
    Ok(CellFailure {
        input,
        algorithm,
        gpu,
        run: field_num(j, "run")? as usize,
        error: RunError::Remote(field_str(j, "error")?.to_string()),
    })
}

/// Reassembles a [`MeasuredTable`] from journaled cell bodies, in the
/// canonical order `keys` dictates (see `matrix::set_cell_keys`). This is
/// how an out-of-order executor — the farm fleet, a resumed sweep — emits a
/// report byte-identical to a serial in-process run: the bodies carry the
/// lossless cell serialization, and this function restores the ordering.
///
/// # Errors
///
/// A key with no record (the sweep is incomplete) or an unparsable body
/// (the records came from a different build) is an error.
pub fn table_from_records(
    records: &std::collections::HashMap<String, (bool, Json)>,
    keys: &[String],
) -> Result<MeasuredTable, String> {
    let mut table = MeasuredTable::default();
    for key in keys {
        let (ok, body) = records
            .get(key)
            .ok_or_else(|| format!("no record for cell '{key}' — the sweep is incomplete"))?;
        if *ok {
            table.cells.push(
                parse_cell(body).map_err(|e| format!("record for '{key}' is unusable: {e}"))?,
            );
        } else {
            table.failures.push(
                parse_failure(body)
                    .map_err(|e| format!("failure record for '{key}' is unusable: {e}"))?,
            );
        }
    }
    Ok(table)
}

fn profile_json(p: &crate::matrix::VariantProfile) -> Json {
    Json::obj(vec![
        ("l1_hit_rate", Json::Num(p.l1_hit_rate)),
        ("atomic_accesses", Json::Num(p.atomic_accesses as f64)),
        ("launches", Json::Num(p.launches as f64)),
    ])
}

/// Serializes a full per-launch [`RunStats`] profile (the detailed form;
/// measured cells embed only the aggregate [`crate::matrix::VariantProfile`]).
pub fn run_stats_json(stats: &RunStats) -> Json {
    Json::obj(vec![
        ("total_cycles", Json::Num(stats.total_cycles() as f64)),
        ("l1_hit_rate", Json::Num(stats.l1_hit_rate())),
        ("atomic_accesses", Json::Num(stats.atomic_accesses() as f64)),
        (
            "launches",
            Json::Arr(
                stats
                    .launches
                    .iter()
                    .map(|l| {
                        Json::obj(vec![
                            ("name", Json::Str(l.name.clone())),
                            ("cycles", Json::Num(l.cycles as f64)),
                            ("l1_hits", Json::Num(l.l1.hits as f64)),
                            ("l1_misses", Json::Num(l.l1.misses as f64)),
                            ("l2_hits", Json::Num(l.l2.hits as f64)),
                            ("l2_misses", Json::Num(l.l2.misses as f64)),
                            ("dram_accesses", Json::Num(l.dram_accesses as f64)),
                            ("plain_accesses", Json::Num(l.plain_accesses as f64)),
                            ("volatile_accesses", Json::Num(l.volatile_accesses as f64)),
                            ("atomic_accesses", Json::Num(l.atomic_accesses as f64)),
                            ("threads", Json::Num(l.threads as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let doc = Json::obj(vec![
            ("name", Json::Str("rmat16.sym \"quoted\"\n".into())),
            ("speedup", Json::Num(1.11)),
            ("count", Json::Num(3.0)),
            ("negative", Json::Num(-0.5)),
            ("big", Json::Num(1.0e21)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::Str("π ≠ \\pi".into())]),
            ),
            ("empty_list", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, doc);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, -1.25e-7, 0.0, 123456789.0] {
            let text = Json::Num(v).render();
            let back = Json::parse(&text).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} round-trips");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""aéb😀c\td""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aéb😀c\td");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"abc",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn measured_cells_round_trip_losslessly() {
        // Resume rebuilds cells from journal bodies; if any field were
        // dropped or rounded, the resumed BENCH_RESULTS.json would differ
        // from the uninterrupted one. Use awkward floats on purpose.
        let cell = MeasuredCell {
            input: resolve_input_name("rmat16.sym").unwrap(),
            algorithm: Algorithm::Cc,
            gpu: GpuConfig::a100().name,
            baseline_cycles: 1.0 / 3.0,
            racefree_cycles: 6.02e23,
            speedup: 0.1 + 0.2,
            props: GraphProperties {
                num_vertices: 65536,
                num_edges: 1 << 20,
                avg_degree: 16.000000000000004,
                max_degree: 1234,
                min_degree: 1,
            },
            baseline_profile: VariantProfile {
                l1_hit_rate: 0.6412705003113971,
                atomic_accesses: 250,
                launches: 5,
            },
            racefree_profile: VariantProfile {
                l1_hit_rate: 0.4611485010051569,
                atomic_accesses: 48968,
                launches: 5,
            },
        };
        let j = cell_json(&cell);
        let text = j.render_compact();
        let back = parse_cell(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(cell_json(&back).render_compact(), text, "lossy round-trip");
        assert!(std::ptr::eq(back.input, cell.input), "static name resolved");
    }

    #[test]
    fn failures_round_trip_through_remote() {
        let f = CellFailure {
            input: resolve_input_name("cage14").unwrap(),
            algorithm: Algorithm::Scc,
            gpu: GpuConfig::test_tiny().name,
            run: 2,
            error: RunError::Remote("kernel 'sweep': watchdog timeout".into()),
        };
        let j = failure_json(&f);
        let back = parse_failure(&j).unwrap();
        // The error string survives verbatim, so re-serialization is stable.
        assert_eq!(failure_json(&back), j);
        assert_eq!(back.run, 2);
    }

    #[test]
    fn compact_and_pretty_renderings_parse_to_the_same_tree() {
        let doc = Json::obj(vec![
            ("a", Json::Num(0.1)),
            ("b", Json::Arr(vec![Json::Null, Json::Str("x\n".into())])),
            ("c", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
        assert!(!doc.render_compact().contains('\n'));
    }

    #[test]
    fn run_stats_serialize() {
        let mut stats = RunStats::default();
        stats.launches.push(ecl_simt::KernelStats {
            name: "init".into(),
            cycles: 42,
            ..Default::default()
        });
        let j = run_stats_json(&stats);
        assert_eq!(j.get("total_cycles").and_then(Json::as_num), Some(42.0));
        assert_eq!(j.get("launches").and_then(Json::as_arr).unwrap().len(), 1);
    }
}
