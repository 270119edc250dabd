//! Repro bundles: one self-contained JSON file per failed cell.
//!
//! A bundle (`ecl-bench/REPRO/v1`) records the cell key, the typed error,
//! the exact experiment seeds, and a ready-to-run `--replay` command line —
//! everything needed to re-execute precisely the failing configuration
//! without the rest of the sweep. Both the `all_tests` sweep and the farm
//! daemon build them with [`Bundle::for_cell`] and write them through this
//! module, so a replay measures what the failing run measured.
//!
//! File naming: the first failure of a cell gets `<slug>.json`. A cell that
//! fails *again* — on a resumed run, a retried run, or a later attempt of a
//! quarantined poison cell — gets `<slug>.attempt2.json`, `.attempt3.json`,
//! … instead of overwriting the earlier bundle: the sequence of failures is
//! itself evidence (a flaky cell looks different from a deterministic one),
//! so every bundle is kept.

use crate::export::Json;
use crate::matrix::{graph_seed, sched_seed};
use crate::storage::{Storage, StorageError};
use crate::sweep::{parse_cell_key, SweepSpec};
use std::path::{Path, PathBuf};

/// Schema tag of a repro bundle.
pub const SCHEMA: &str = "ecl-bench/REPRO/v1";

/// File-name slug for a cell key: path separators and anything non-portable
/// become `-`.
pub fn slug(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The path the next bundle for `key` should be written to: `<slug>.json`
/// if the cell never failed before, otherwise the first unused
/// `<slug>.attemptN.json` — earlier bundles are never overwritten.
pub fn unique_bundle_path(dir: &Path, key: &str) -> PathBuf {
    unique_bundle_path_on(&Storage::real(), dir, key)
}

/// [`unique_bundle_path`] on an explicit storage backend.
pub fn unique_bundle_path_on(storage: &Storage, dir: &Path, key: &str) -> PathBuf {
    let base = slug(key);
    let first = dir.join(format!("{base}.json"));
    if !storage.exists(&first) {
        return first;
    }
    (2..)
        .map(|n| dir.join(format!("{base}.attempt{n}.json")))
        .find(|p| !storage.exists(p))
        .expect("some attempt suffix is unused")
}

/// Everything a bundle serializes besides its own path.
#[derive(Debug, Clone)]
pub struct Bundle<'a> {
    /// The cell key `<set>/<input>/<algorithm>/<gpu>`.
    pub key: &'a str,
    /// Display form of the typed error.
    pub error: String,
    /// Zero-based run index that failed first.
    pub run: usize,
    /// The experiment block (seeds, scale, retry policy…).
    pub experiment: Json,
    /// Worker argv that reproduces the failing configuration.
    pub replay_args: Vec<String>,
}

impl<'a> Bundle<'a> {
    /// The bundle for the failed cell `key` of the sweep `spec`. Its replay
    /// flags are the spec's worker flags plus the cell's GPU and set, so
    /// they parse back to `spec` restricted to that cell.
    ///
    /// # Errors
    ///
    /// A key that names no cell (see [`parse_cell_key`]).
    pub fn for_cell(
        spec: &SweepSpec,
        key: &'a str,
        error: String,
        run: usize,
    ) -> Result<Bundle<'a>, String> {
        let (set, _, _, gpu) = parse_cell_key(key)?;
        let mut replay_args = spec.worker_args();
        replay_args.extend(["--gpu".into(), gpu.name.into(), "--sets".into(), set.into()]);
        let experiment = Json::obj(vec![
            ("scale", Json::Num(spec.scale)),
            ("runs", Json::Num(spec.runs as f64)),
            ("seed", Json::Num(spec.seed as f64)),
            (
                "graph_seed",
                Json::Str(format!("{:#x}", graph_seed(spec.seed))),
            ),
            (
                "sched_seed0",
                Json::Str(format!("{:#x}", sched_seed(spec.seed, 0))),
            ),
            ("retries", Json::Num(spec.retries as f64)),
            (
                "watchdog",
                spec.watchdog.map_or(Json::Null, |w| Json::Num(w as f64)),
            ),
            ("fault_rate", Json::Num(spec.fault.map_or(0.0, |f| f.0))),
            (
                "fault_seed",
                Json::Num(spec.fault.map_or(42, |f| f.2) as f64),
            ),
        ]);
        Ok(Bundle {
            key,
            error,
            run,
            experiment,
            replay_args,
        })
    }
}

/// Writes one bundle into `dir` (created if needed) at a collision-free
/// path and returns that path. Failures are typed, never fatal to the
/// caller's sweep: a bundle is evidence, not a result, so callers skip it
/// with a journal note and keep going (see `all_tests::write_repro_bundles`).
pub fn write_bundle(dir: &Path, b: &Bundle<'_>) -> Result<PathBuf, StorageError> {
    write_bundle_on(&Storage::real(), dir, b)
}

/// [`write_bundle`] on an explicit storage backend.
pub fn write_bundle_on(
    storage: &Storage,
    dir: &Path,
    b: &Bundle<'_>,
) -> Result<PathBuf, StorageError> {
    storage.create_dir_all(dir)?;
    let path = unique_bundle_path_on(storage, dir, b.key);
    let doc = Json::obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("key", Json::Str(b.key.into())),
        ("error", Json::Str(b.error.clone())),
        ("run", Json::Num(b.run as f64)),
        ("experiment", b.experiment.clone()),
        (
            "replay",
            Json::obj(vec![
                (
                    "args",
                    Json::Arr(b.replay_args.iter().cloned().map(Json::Str).collect()),
                ),
                (
                    "cli",
                    Json::Str(format!(
                        "cargo run --release -p ecl-bench --bin all_tests -- --replay {}",
                        path.display()
                    )),
                ),
            ]),
        ),
    ]);
    let mut text = doc.render();
    text.push('\n');
    // Atomic (tmp + fsync + rename): a half-written bundle that *looks*
    // replayable is worse than no bundle.
    storage.write_atomic(&path, text.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ecl-repro-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bundle(key: &str) -> Bundle<'_> {
        Bundle {
            key,
            error: "worker process died".into(),
            run: 0,
            experiment: Json::obj(vec![("seed", Json::Num(1.0))]),
            replay_args: vec!["--seed".into(), "1".into()],
        }
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(
            slug("directed/cage14/SCC/2070 Super"),
            "directed-cage14-SCC-2070-Super"
        );
    }

    #[test]
    fn repeated_failures_keep_every_bundle() {
        // Regression: a cell failing again on a resumed or retried run used
        // to overwrite the earlier bundle at the same path.
        let dir = scratch("collide");
        let b = bundle("directed/cage14/SCC/TestTiny");
        let p1 = write_bundle(&dir, &b).unwrap();
        let p2 = write_bundle(&dir, &b).unwrap();
        let p3 = write_bundle(&dir, &b).unwrap();
        assert_eq!(p1.file_name().unwrap(), "directed-cage14-SCC-TestTiny.json");
        assert_eq!(
            p2.file_name().unwrap(),
            "directed-cage14-SCC-TestTiny.attempt2.json"
        );
        assert_eq!(
            p3.file_name().unwrap(),
            "directed-cage14-SCC-TestTiny.attempt3.json"
        );
        for p in [&p1, &p2, &p3] {
            let doc = Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
            assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
            // Each bundle's replay line points at its own path.
            let cli = doc.get("replay").unwrap().get("cli").unwrap();
            assert!(cli.as_str().unwrap().ends_with(&p.display().to_string()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_disk_is_a_typed_error_not_a_panic() {
        use crate::storage::{FaultPlan, StorageErrorKind};
        let (storage, _fs) = Storage::mem(FaultPlan {
            seed: 2,
            disk_capacity: Some(16),
            ..FaultPlan::default()
        });
        let dir = PathBuf::from("/repro");
        let err = write_bundle_on(&storage, &dir, &bundle("set/in/ALG/GPU")).unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::Enospc);
        // And the target path never holds a torn document.
        assert!(!storage.exists(&dir.join("set-in-ALG-GPU.json")));
    }
}
