//! The farm's JSONL job API: submission lines, acknowledgements, events.
//!
//! A client submits one job per line, on the daemon's stdin or over its TCP
//! listener:
//!
//! ```text
//! {"schema":"ecl-farm/JOB/v1","id":"nightly-directed","priority":5,
//!  "spec":{"scale":0.05,"runs":1,"seed":1,"gpus":["TestTiny"],
//!          "sets":["directed"],"retries":1,"cell_timeout":300}}
//! ```
//!
//! and receives exactly one acknowledgement line back
//! (`ecl-farm/ACK/v1`, `accepted` true or false with a `reason` — queue
//! backpressure, duplicate id, draining, parse error). Progress and
//! completion travel as `ecl-farm/EVENT/v1` lines on the daemon's stdout.
//!
//! Every field of `spec` except `sets`/`gpus` mirrors the corresponding
//! `all_tests` flag; a job is a sweep specification, nothing more. The
//! daemon normalizes the spec on acceptance (defaults filled in, GPU names
//! resolved) and persists the *normalized* form, so a job reloaded after a
//! daemon crash reconstructs the identical experiment.

use ecl_bench::sweep::{level_name, parse_level};
use ecl_bench::Json;
pub use ecl_bench::SweepSpec;
use ecl_simt::GpuConfig;

/// Schema tag of a job submission line.
pub const JOB_SCHEMA: &str = "ecl-farm/JOB/v1";
/// Schema tag of an acknowledgement line.
pub const ACK_SCHEMA: &str = "ecl-farm/ACK/v1";
/// Schema tag of a daemon event line.
pub const EVENT_SCHEMA: &str = "ecl-farm/EVENT/v1";

/// One accepted sweep job: identity, scheduling priority, and the sweep
/// specification.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Client-chosen job id; names the job's journal and report files, so
    /// it is restricted to `[A-Za-z0-9._-]`, at most 64 chars.
    pub id: String,
    /// Scheduling priority: higher runs first; ties run in submission
    /// order. Default 0.
    pub priority: i64,
    /// What to sweep.
    pub sweep: SweepSpec,
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Parses and normalizes one submission line.
///
/// # Errors
///
/// A human-readable reason, suitable for the ACK's `reason` field.
pub fn parse_job(line: &str) -> Result<JobSpec, String> {
    let doc = Json::parse(line.trim()).map_err(|e| format!("not JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(JOB_SCHEMA) {
        return Err(format!("not a {JOB_SCHEMA} line"));
    }
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .ok_or("missing 'id'")?
        .to_string();
    if !valid_id(&id) {
        return Err(format!(
            "invalid id '{id}' (want 1-64 chars of [A-Za-z0-9._-])"
        ));
    }
    let priority = doc
        .get("priority")
        .and_then(Json::as_num)
        .map(|p| p as i64)
        .unwrap_or(0);
    let spec = doc.get("spec").cloned().unwrap_or(Json::obj(vec![]));
    let num = |key: &str| spec.get(key).and_then(Json::as_num);

    let gpus: Vec<GpuConfig> = match spec.get("gpus").and_then(Json::as_arr) {
        None => GpuConfig::paper_gpus(),
        Some(names) => {
            let mut out = Vec::with_capacity(names.len());
            for n in names {
                let name = n.as_str().ok_or("'gpus' entries must be strings")?;
                out.push(GpuConfig::by_name(name).ok_or_else(|| format!("unknown gpu '{name}'"))?);
            }
            if out.is_empty() {
                return Err("'gpus' must not be empty".into());
            }
            out
        }
    };
    let sets: Vec<String> = match spec.get("sets").and_then(Json::as_arr) {
        None => vec!["undirected".into(), "directed".into()],
        Some(entries) => {
            let mut out = Vec::with_capacity(entries.len());
            for s in entries {
                let s = s.as_str().ok_or("'sets' entries must be strings")?;
                if ecl_bench::set_plan(s).is_none() {
                    return Err(format!("unknown set '{s}' (want undirected or directed)"));
                }
                if !out.contains(&s.to_string()) {
                    out.push(s.to_string());
                }
            }
            if out.is_empty() {
                return Err("'sets' must not be empty".into());
            }
            out
        }
    };
    let fault = match spec.get("fault") {
        None | Some(Json::Null) => None,
        Some(f) => {
            let rate = f.get("rate").and_then(Json::as_num).unwrap_or(0.0);
            let level = match f.get("level").and_then(Json::as_str) {
                None => ecl_simt::MemLevel::Dram,
                Some(name) => {
                    parse_level(name).ok_or_else(|| format!("unknown fault level '{name}'"))?
                }
            };
            let seed = f.get("seed").and_then(Json::as_num).unwrap_or(42.0) as u64;
            (rate > 0.0).then_some((rate, level, seed))
        }
    };
    let d = SweepSpec::default();
    Ok(JobSpec {
        id,
        priority,
        sweep: SweepSpec {
            scale: num("scale").unwrap_or(d.scale),
            runs: num("runs").map_or(d.runs, |n| n as usize).max(1),
            seed: num("seed").map_or(d.seed, |n| n as u64),
            gpus,
            sets,
            retries: num("retries").map_or(d.retries, |n| n as u32).max(1),
            watchdog: num("watchdog").map(|w| w as u64),
            fault,
            cell_timeout: num("cell_timeout")
                .map_or(d.cell_timeout, |n| n as u64)
                .max(1),
        },
    })
}

/// Serializes a (normalized) job for the durable job store. Round-trips
/// through [`parse_job`]: `parse_job(&job_json(j).render_compact())`
/// reconstructs an identical job.
pub fn job_json(job: &JobSpec) -> Json {
    let s = &job.sweep;
    let fault = match s.fault {
        None => Json::Null,
        Some((rate, level, seed)) => Json::obj(vec![
            ("rate", Json::Num(rate)),
            ("level", Json::Str(level_name(level).into())),
            ("seed", Json::Num(seed as f64)),
        ]),
    };
    Json::obj(vec![
        ("schema", Json::Str(JOB_SCHEMA.into())),
        ("id", Json::Str(job.id.clone())),
        ("priority", Json::Num(job.priority as f64)),
        (
            "spec",
            Json::obj(vec![
                ("scale", Json::Num(s.scale)),
                ("runs", Json::Num(s.runs as f64)),
                ("seed", Json::Num(s.seed as f64)),
                (
                    "gpus",
                    Json::Arr(s.gpus.iter().map(|g| Json::Str(g.name.into())).collect()),
                ),
                (
                    "sets",
                    Json::Arr(s.sets.iter().cloned().map(Json::Str).collect()),
                ),
                ("retries", Json::Num(s.retries as f64)),
                (
                    "watchdog",
                    s.watchdog
                        .map(|w| Json::Num(w as f64))
                        .unwrap_or(Json::Null),
                ),
                ("fault", fault),
                ("cell_timeout", Json::Num(s.cell_timeout as f64)),
            ]),
        ),
    ])
}

/// Builds an acknowledgement line for a submission.
pub fn ack(id: &str, accepted: bool, reason: Option<&str>, queued_cells: usize) -> Json {
    let mut pairs = vec![
        ("schema", Json::Str(ACK_SCHEMA.into())),
        ("id", Json::Str(id.into())),
        ("accepted", Json::Bool(accepted)),
    ];
    if let Some(r) = reason {
        pairs.push(("reason", Json::Str(r.into())));
    }
    if accepted {
        pairs.push(("queued_cells", Json::Num(queued_cells as f64)));
    }
    Json::obj(pairs)
}

/// Builds an event line: `event(kind, [(field, value)…])`.
pub fn event(kind: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("schema", Json::Str(EVENT_SCHEMA.into())),
        ("event", Json::Str(kind.into())),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_job_fills_defaults() {
        let j = parse_job(r#"{"schema":"ecl-farm/JOB/v1","id":"a"}"#).unwrap();
        assert_eq!(j.id, "a");
        assert_eq!(j.priority, 0);
        assert_eq!(j.sweep.scale, 1.0);
        assert_eq!(j.sweep.runs, 3);
        assert_eq!(j.sweep.sets, ["undirected", "directed"]);
        assert_eq!(j.sweep.gpus.len(), 4);
        assert_eq!(j.sweep.cell_timeout, 300);
        assert!(j.sweep.fault.is_none());
    }

    #[test]
    fn job_round_trips_through_the_store_form() {
        let line = r#"{"schema":"ecl-farm/JOB/v1","id":"n1","priority":7,
            "spec":{"scale":0.05,"runs":2,"seed":9,"gpus":["TestTiny"],
                    "sets":["directed"],"retries":2,"watchdog":100000,
                    "fault":{"rate":0.001,"level":"l2","seed":5},
                    "cell_timeout":60}}"#;
        let j = parse_job(line).unwrap();
        let stored = job_json(&j).render_compact();
        let j2 = parse_job(&stored).unwrap();
        assert_eq!(
            job_json(&j2).render_compact(),
            stored,
            "normal form is a fixpoint"
        );
        assert_eq!(j2.sweep.identity(), j.sweep.identity());
        assert_eq!(j2.priority, 7);
        assert_eq!(j2.sweep.fault.map(|f| f.0), Some(0.001));
    }

    #[test]
    fn bad_submissions_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "not JSON"),
            (r#"{"schema":"nope","id":"a"}"#, "not a ecl-farm/JOB"),
            (r#"{"schema":"ecl-farm/JOB/v1"}"#, "missing 'id'"),
            (
                r#"{"schema":"ecl-farm/JOB/v1","id":"has space"}"#,
                "invalid id",
            ),
            (
                r#"{"schema":"ecl-farm/JOB/v1","id":"a","spec":{"gpus":["NoSuch"]}}"#,
                "unknown gpu",
            ),
            (
                r#"{"schema":"ecl-farm/JOB/v1","id":"a","spec":{"sets":["diagonal"]}}"#,
                "unknown set",
            ),
        ] {
            let err = parse_job(line).unwrap_err();
            assert!(err.contains(needle), "line {line}: got '{err}'");
        }
    }

    #[test]
    fn cell_keys_enumerate_all_sets_in_canonical_order() {
        let j = parse_job(
            r#"{"schema":"ecl-farm/JOB/v1","id":"a",
                "spec":{"gpus":["TestTiny"],"sets":["directed"]}}"#,
        )
        .unwrap();
        let keys = j.sweep.cell_keys();
        assert_eq!(keys.len(), 10, "10 directed inputs x 1 alg x 1 gpu");
        assert!(keys[0].starts_with("directed/cage14/SCC/"));
        assert!(keys.iter().all(|k| k.ends_with("/TestTiny")));
    }

    #[test]
    fn quarantine_bundle_replays_the_jobs_experiment() {
        // The bundle of a quarantined cell must re-run the job's own
        // experiment: its replay flags parse back to the job's spec, the
        // watchdog and the fault plan included.
        let j = parse_job(
            r#"{"schema":"ecl-farm/JOB/v1","id":"w",
                "spec":{"scale":0.05,"runs":1,"seed":3,"gpus":["TestTiny"],
                        "sets":["directed"],"watchdog":5000000,"cell_timeout":60,
                        "fault":{"rate":0.01,"level":"l2","seed":7}}}"#,
        )
        .unwrap();
        let key = &j.sweep.cell_keys()[0];
        let bundle =
            ecl_bench::repro::Bundle::for_cell(&j.sweep, key, "worker process died".into(), 0)
                .unwrap();
        assert_eq!(bundle.key, key);
        assert_eq!(SweepSpec::from_argv(&bundle.replay_args), Ok(j.sweep));
    }

    #[test]
    fn identity_matches_the_all_tests_journal_identity() {
        // A farm job and an `all_tests --journal` run with the same knobs
        // must pin the same identity, or cross-resume soundness breaks.
        let j = parse_job(
            r#"{"schema":"ecl-farm/JOB/v1","id":"a",
                "spec":{"scale":0.05,"runs":1,"seed":1,"gpus":["TestTiny"],"sets":["directed"]}}"#,
        )
        .unwrap();
        let e = j.sweep.experiment();
        let direct = ecl_bench::journal::identity_json(&e, &["directed"]);
        assert_eq!(j.sweep.identity(), direct);
    }
}
