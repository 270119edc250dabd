//! Durable job state: the store, per-job journals, and report assembly.
//!
//! Everything the daemon must not lose lives under one state directory:
//!
//! ```text
//! <state>/jobs.jsonl            accepted/done job log  (ecl-farm/JOBSTORE/v1)
//! <state>/journals/job-<id>.jsonl   per-job cell journal (ecl-bench/JOURNAL/v1)
//! <state>/reports/REPORT-<id>.json  finished reports     (BENCH_RESULTS/v1)
//! <state>/repro/                repro bundles for quarantined cells
//! <state>/tmp/                  worker stdout/stderr capture
//! ```
//!
//! The write protocol makes `kill -9` at any instant recoverable:
//!
//! 1. A job is appended to `jobs.jsonl` and **fsync'd before it is acked**,
//!    so any job a client saw accepted survives a daemon crash.
//! 2. Every finished cell is appended to the job's journal and fsync'd
//!    before the daemon moves on — the same fsync-before-progress contract
//!    `all_tests --journal` keeps, with the same torn-tail tolerance.
//! 3. Reports are assembled only from journal bodies, in canonical cell
//!    order, with `jobs` pinned to 1 in the experiment header — so the
//!    report bytes depend on *what was measured*, never on fleet size,
//!    execution order, or how many times the daemon was restarted.
//!
//! On restart the daemon replays `jobs.jsonl`, reopens each unfinished
//! job's journal (verifying the identity header), and resumes the cells
//! with no record. Journaled records — measured or failed — are final:
//! a farm journal's failures are quarantine verdicts or deterministic
//! in-process failures, both of which a resume must preserve, not retry.

use crate::api::{self, JobSpec};
use ecl_bench::storage::{DurableFile, Storage, StorageError, StorageErrorKind};
use ecl_bench::{BenchReport, JournalWriter, Json, MeasuredTable};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Schema tag of the `jobs.jsonl` store.
pub const STORE_SCHEMA: &str = "ecl-farm/JOBSTORE/v1";

/// Why the job store failed to open — each case a distinct operator action.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The backing store failed (EIO, power loss, …).
    Storage(StorageError),
    /// A non-final line is malformed or contradictory: real corruption.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The file carries a different schema tag.
    WrongSchema,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Storage(e) => write!(f, "job store: {e}"),
            StoreError::Corrupt { line, reason } => {
                write!(f, "jobs.jsonl line {line} is corrupt: {reason}")
            }
            StoreError::WrongSchema => write!(f, "jobs.jsonl is not a {STORE_SCHEMA} store"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One job replayed from the store.
pub struct StoredJob {
    /// The job, exactly as accepted (normalized form).
    pub spec: JobSpec,
    /// Whether a `done` record follows its `accepted` record.
    pub done: bool,
}

/// Append-only fsync'd log of accepted and finished jobs.
///
/// Like the journal writer, the store latches itself **degraded** on the
/// first failed append: the partial line the failure left behind must stay
/// the final line (the tolerant replay drops it), and the daemon NACKs all
/// new submissions with the latched error as the explicit reason.
pub struct JobStore {
    file: Box<dyn DurableFile>,
    path: PathBuf,
    degraded: Option<StorageError>,
}

impl JobStore {
    /// Opens (or creates) the store under `state`, returning the replayed
    /// jobs in acceptance order. A torn final line (daemon killed
    /// mid-append) is dropped *and truncated away* — since acks follow the
    /// fsync, no client saw that job accepted, and truncating keeps the
    /// next append from gluing onto the partial line. Duplicate `accepted`
    /// records for one id (the ack-retry artifact) collapse when the job
    /// documents are identical; divergent duplicates are corruption.
    pub fn open(state: &Path) -> Result<(JobStore, Vec<StoredJob>), StoreError> {
        Self::open_on(&Storage::real(), state)
    }

    /// [`JobStore::open`] on an explicit storage backend.
    pub fn open_on(
        storage: &Storage,
        state: &Path,
    ) -> Result<(JobStore, Vec<StoredJob>), StoreError> {
        storage.create_dir_all(state).map_err(StoreError::Storage)?;
        let path = state.join("jobs.jsonl");
        let mut jobs: Vec<StoredJob> = Vec::new();
        let mut saw_header = false;
        if storage.exists(&path) {
            let bytes = storage.read(&path).map_err(StoreError::Storage)?;
            // Drop the kill artifact before appending anything after it: a
            // write is a whole line + '\n', so "no trailing newline" ⇔ torn.
            let keep = bytes
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|i| i + 1)
                .unwrap_or(0);
            if keep < bytes.len() {
                storage
                    .truncate(&path, keep as u64)
                    .map_err(StoreError::Storage)?;
            }
            let text = String::from_utf8_lossy(&bytes[..keep]);
            for (idx, line) in text.split('\n').enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let doc = Json::parse(line).map_err(|e| StoreError::Corrupt {
                    line: idx + 1,
                    reason: e,
                })?;
                match doc.get("type").and_then(Json::as_str) {
                    Some("header") => {
                        if doc.get("schema").and_then(Json::as_str) != Some(STORE_SCHEMA) {
                            return Err(StoreError::WrongSchema);
                        }
                        saw_header = true;
                    }
                    Some("accepted") => {
                        let job = doc
                            .get("job")
                            .map(|j| api::parse_job(&j.render_compact()))
                            .unwrap_or_else(|| Err("accepted record carries no job".into()))
                            .map_err(|e| StoreError::Corrupt {
                                line: idx + 1,
                                reason: e,
                            })?;
                        match jobs.iter().find(|j| j.spec.id == job.id) {
                            // A crash between the fsync and the ack can make a
                            // retrying client resubmit; the daemon records the
                            // identical job again. Benign — collapse it.
                            Some(prev)
                                if api::job_json(&prev.spec).render_compact()
                                    == api::job_json(&job).render_compact() => {}
                            Some(_) => {
                                return Err(StoreError::Corrupt {
                                    line: idx + 1,
                                    reason: format!(
                                        "divergent duplicate 'accepted' record for id '{}'",
                                        job.id
                                    ),
                                })
                            }
                            None => jobs.push(StoredJob {
                                spec: job,
                                done: false,
                            }),
                        }
                    }
                    Some("done") => {
                        let id = doc.get("id").and_then(Json::as_str).unwrap_or("");
                        if let Some(j) = jobs.iter_mut().find(|j| j.spec.id == id) {
                            j.done = true;
                        }
                    }
                    other => {
                        return Err(StoreError::Corrupt {
                            line: idx + 1,
                            reason: format!("unknown record type {other:?}"),
                        })
                    }
                }
            }
        }
        let file = storage.open_append(&path).map_err(StoreError::Storage)?;
        let mut store = JobStore {
            file,
            path,
            degraded: None,
        };
        if !saw_header {
            // Fresh store — or one whose header line was torn away by a
            // crash before its fsync (then no record survived either, so
            // rewriting the header loses nothing).
            store
                .append(&Json::obj(vec![
                    ("type", Json::Str("header".into())),
                    ("schema", Json::Str(STORE_SCHEMA.into())),
                ]))
                .map_err(StoreError::Storage)?;
        }
        Ok((store, jobs))
    }

    /// The storage error that latched this store degraded, if any. A
    /// degraded store refuses new records; the daemon surfaces this as the
    /// NACK reason for every subsequent submission.
    pub fn degraded(&self) -> Option<&StorageError> {
        self.degraded.as_ref()
    }

    fn append(&mut self, doc: &Json) -> Result<(), StorageError> {
        if self.degraded.is_some() {
            return Err(StorageError {
                op: "append",
                path: self.path.clone(),
                kind: StorageErrorKind::ReadOnly,
            });
        }
        let mut text = doc.render_compact();
        text.push('\n');
        let result = self
            .file
            .append(text.as_bytes())
            .and_then(|()| self.file.sync());
        if let Err(e) = &result {
            self.degraded = Some(e.clone());
        }
        result
    }

    /// Durably records an accepted job. Call this BEFORE acking the client:
    /// the `ACK/v1` a client trusts is a promise that this fsync succeeded.
    pub fn record_accepted(&mut self, job: &JobSpec) -> Result<(), StorageError> {
        self.append(&Json::obj(vec![
            ("type", Json::Str("accepted".into())),
            ("job", api::job_json(job)),
        ]))
    }

    /// Durably records a finished job (report written).
    pub fn record_done(&mut self, id: &str, failures: usize) -> Result<(), StorageError> {
        self.append(&Json::obj(vec![
            ("type", Json::Str("done".into())),
            ("id", Json::Str(id.into())),
            ("failures", Json::Num(failures as f64)),
        ]))
    }
}

/// The standard state-directory paths.
pub fn journal_path(state: &Path, id: &str) -> PathBuf {
    state.join("journals").join(format!("job-{id}.jsonl"))
}
/// Where job `id`'s report goes.
pub fn report_path(state: &Path, id: &str) -> PathBuf {
    state.join("reports").join(format!("REPORT-{id}.json"))
}
/// Repro bundles for quarantined cells.
pub fn repro_dir(state: &Path) -> PathBuf {
    state.join("repro")
}
/// Worker scratch (stdout and stderr capture).
pub fn tmp_dir(state: &Path) -> PathBuf {
    state.join("tmp")
}

/// One job's in-memory execution state, backed by its journal.
pub struct ActiveJob {
    /// The job.
    pub spec: JobSpec,
    /// All cell keys, canonical order.
    pub keys: Vec<String>,
    /// key → (ok, body) for every journaled cell.
    pub records: HashMap<String, (bool, Json)>,
    /// Keys with no record yet.
    pub remaining: HashSet<String>,
    writer: std::sync::Arc<JournalWriter>,
    storage: Storage,
}

impl ActiveJob {
    /// Opens (or creates) the job's journal and loads its progress.
    ///
    /// A journal with **no intact header** — empty, or torn inside the
    /// header line — is treated as fresh and recreated: the header is line
    /// one, so its loss proves no cell record survived, and the identity is
    /// reproducible from the spec (the crash-between-create-and-fsync case).
    ///
    /// # Errors
    ///
    /// Identity mismatch (the state dir holds a journal for a *different*
    /// job with the same id), journal corruption, or storage failure.
    pub fn open(state: &Path, spec: JobSpec) -> Result<ActiveJob, String> {
        Self::open_on(&Storage::real(), state, spec)
    }

    /// [`ActiveJob::open`] on an explicit storage backend.
    pub fn open_on(storage: &Storage, state: &Path, spec: JobSpec) -> Result<ActiveJob, String> {
        let identity = spec.sweep.identity();
        let path = journal_path(state, &spec.id);
        let keys = spec.sweep.cell_keys();
        let mut records = HashMap::new();
        let loaded = if storage.exists(&path) {
            match ecl_bench::Journal::load_on(storage, &path) {
                Ok(journal) => Some(journal),
                Err(ecl_bench::LoadError::NoHeader) => None,
                Err(e) => return Err(e.to_string()),
            }
        } else {
            None
        };
        let writer = match loaded {
            Some(journal) => {
                journal.check_identity(&identity)?;
                // Duplicate keys (a record landed twice around a crash): identical
                // bodies collapse; divergence is a determinism violation.
                for rec in &journal.records {
                    if let Some((_, prev)) = records.get(&rec.key) {
                        if prev != &rec.body {
                            return Err(format!(
                                "determinism violation in {}: cell '{}' recorded twice \
                                 with different bodies",
                                path.display(),
                                rec.key
                            ));
                        }
                    }
                    records.insert(rec.key.clone(), (rec.ok, rec.body.clone()));
                }
                JournalWriter::append_to_on(storage, &path)
                    .map_err(|e| format!("cannot reopen journal: {e}"))?
            }
            None => JournalWriter::create_on(storage, &path, &identity)
                .map_err(|e| format!("cannot create journal: {e}"))?,
        };
        let remaining = keys
            .iter()
            .filter(|k| !records.contains_key(*k))
            .cloned()
            .collect();
        Ok(ActiveJob {
            spec,
            keys,
            records,
            remaining,
            writer: std::sync::Arc::new(writer),
            storage: storage.clone(),
        })
    }

    /// A shared handle to the job's journal writer, for the force-quit
    /// watcher: the second SIGINT appends one final note line to every
    /// in-flight journal before the process exits.
    pub fn journal_writer(&self) -> std::sync::Arc<JournalWriter> {
        self.writer.clone()
    }

    /// Durably records one finished cell (measured or failed). Idempotent
    /// across the resume race: a record for an already-recorded key is
    /// accepted silently when the body matches.
    pub fn record_cell(&mut self, key: &str, ok: bool, body: Json) -> Result<(), String> {
        if let Some((_, prev)) = self.records.get(key) {
            if prev == &body {
                return Ok(());
            }
            return Err(format!(
                "determinism violation: cell '{key}' produced two different results"
            ));
        }
        self.writer
            .append_cell(key, ok, &body)
            .map_err(|e| format!("journal write failed for '{key}': {e}"))?;
        self.remaining.remove(key);
        self.records.insert(key.to_string(), (ok, body));
        Ok(())
    }

    /// True when every cell has a journaled record.
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Failed records so far.
    pub fn failures(&self) -> usize {
        self.records.values().filter(|(ok, _)| !ok).count()
    }

    /// Assembles and writes the job's report. The tables are rebuilt from
    /// journal bodies in canonical cell order, so the bytes are identical
    /// no matter which workers ran which cells in what order — or how many
    /// daemon restarts happened along the way.
    pub fn finalize(&self, state: &Path) -> Result<PathBuf, String> {
        let experiment = self.spec.sweep.experiment();
        let empty = MeasuredTable::default();
        let mut undirected = None;
        let mut directed = None;
        for set in &self.spec.sweep.sets {
            let keys = ecl_bench::set_cell_keys(&experiment, set);
            let table = ecl_bench::table_from_records(&self.records, &keys)
                .map_err(|e| format!("job '{}': {e}", self.spec.id))?;
            match set.as_str() {
                "undirected" => undirected = Some(table),
                _ => directed = Some(table),
            }
        }
        let report = BenchReport {
            experiment: &experiment,
            undirected: undirected.as_ref().unwrap_or(&empty),
            directed: directed.as_ref().unwrap_or(&empty),
            timing: None,
        };
        let path = report_path(state, &self.spec.id);
        if let Some(dir) = path.parent() {
            self.storage
                .create_dir_all(dir)
                .map_err(|e| format!("cannot create report dir: {e}"))?;
        }
        // Atomic with an fsync before the rename: previously the rename
        // could become durable while the report content was not, leaving a
        // torn REPORT-<id>.json after a power cut.
        self.storage
            .write_atomic(&path, report.render().as_bytes())
            .map_err(|e| format!("cannot write report: {e}"))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str) -> JobSpec {
        api::parse_job(&format!(
            r#"{{"schema":"ecl-farm/JOB/v1","id":"{id}",
                "spec":{{"scale":0.05,"runs":1,"seed":1,"gpus":["TestTiny"],"sets":["directed"]}}}}"#
        ))
        .unwrap()
    }

    fn tmp_state(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ecl-farm-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_replays_accepted_and_done_jobs() {
        let state = tmp_state("store");
        {
            let (mut store, jobs) = JobStore::open(&state).unwrap();
            assert!(jobs.is_empty());
            store.record_accepted(&job("a")).unwrap();
            store.record_accepted(&job("b")).unwrap();
            store.record_done("a", 0).unwrap();
        }
        let (_store, jobs) = JobStore::open(&state).unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs[0].done && jobs[0].spec.id == "a");
        assert!(!jobs[1].done && jobs[1].spec.id == "b");
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn store_drops_a_torn_tail() {
        let state = tmp_state("torn");
        {
            let (mut store, _) = JobStore::open(&state).unwrap();
            store.record_accepted(&job("whole")).unwrap();
        }
        // Simulate a kill mid-append: a partial record with no newline.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(state.join("jobs.jsonl"))
            .unwrap();
        write!(f, "{{\"type\":\"accepted\",\"job\":{{\"id\":\"to").unwrap();
        drop(f);
        let (_store, jobs) = JobStore::open(&state).unwrap();
        assert_eq!(jobs.len(), 1, "torn record dropped, intact one kept");
        assert_eq!(jobs[0].spec.id, "whole");
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn store_truncates_the_torn_tail_so_appends_never_glue() {
        // Regression: record A torn mid-append, daemon restarts, records B.
        // Without truncation B glues onto A's partial line; that corrupt
        // line is then *final*, so the NEXT replay silently drops B — a
        // durably-recorded (and possibly ACKed) job vanishes.
        let state = tmp_state("glue");
        {
            let (mut store, _) = JobStore::open(&state).unwrap();
            store.record_accepted(&job("whole")).unwrap();
        }
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(state.join("jobs.jsonl"))
            .unwrap();
        write!(f, "{{\"type\":\"accepted\",\"job\":{{\"id\":\"to").unwrap();
        drop(f);
        {
            let (mut store, jobs) = JobStore::open(&state).unwrap();
            assert_eq!(jobs.len(), 1);
            store.record_accepted(&job("after-crash")).unwrap();
        }
        let (_store, jobs) = JobStore::open(&state).unwrap();
        let ids: Vec<&str> = jobs.iter().map(|j| j.spec.id.as_str()).collect();
        assert_eq!(ids, ["whole", "after-crash"], "no record glued or lost");
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn duplicate_accepted_records_collapse_or_refuse() {
        // An ack-retry artifact records the same job twice: benign, one
        // job. The same id with a *different* spec is corruption — loading
        // it as either job would silently drop the other's cells.
        let state = tmp_state("dup-ack");
        {
            let (mut store, _) = JobStore::open(&state).unwrap();
            store.record_accepted(&job("j")).unwrap();
            store.record_accepted(&job("j")).unwrap();
        }
        let (_s, jobs) = JobStore::open(&state).unwrap();
        assert_eq!(jobs.len(), 1, "identical duplicates collapse");

        let mut divergent = job("j");
        divergent.sweep.seed = 99;
        {
            let (mut store, _) = JobStore::open(&state).unwrap();
            store.record_accepted(&divergent).unwrap();
        }
        match JobStore::open(&state) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("divergent duplicate"), "{reason}")
            }
            other => panic!(
                "divergent duplicate accepted: {:?}",
                other.map(|(_, j)| j.len())
            ),
        }
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn headerless_store_heals_and_wrong_schema_is_typed() {
        // Crash before the header's fsync leaves an empty (or torn) file:
        // nothing durable was lost, the header is rewritten on open.
        let state = tmp_state("headerless");
        std::fs::write(state.join("jobs.jsonl"), "").unwrap();
        {
            let (mut store, jobs) = JobStore::open(&state).unwrap();
            assert!(jobs.is_empty());
            store.record_accepted(&job("a")).unwrap();
        }
        let (_s, jobs) = JobStore::open(&state).unwrap();
        assert_eq!(jobs.len(), 1);
        let text = std::fs::read_to_string(state.join("jobs.jsonl")).unwrap();
        assert!(text.starts_with("{\"type\":\"header\""), "header rewritten");

        std::fs::write(
            state.join("jobs.jsonl"),
            "{\"type\":\"header\",\"schema\":\"ecl-farm/OTHER/v9\"}\n",
        )
        .unwrap();
        match JobStore::open(&state) {
            Err(StoreError::WrongSchema) => {}
            other => panic!("wrong schema accepted: {:?}", other.map(|(_, j)| j.len())),
        }
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn failed_store_append_latches_degraded() {
        use ecl_bench::storage::{FaultPlan, StorageErrorKind};
        let (storage, _fs) = Storage::mem(FaultPlan {
            seed: 5,
            fail_fsync: Some(1), // header=0, first accepted=1
            ..FaultPlan::default()
        });
        let state = PathBuf::from("/state");
        let (mut store, _) = JobStore::open_on(&storage, &state).unwrap();
        assert!(store.degraded().is_none());
        let err = store.record_accepted(&job("a")).unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::FsyncFailed);
        assert_eq!(store.degraded(), Some(&err));
        // Latched: the next record is refused without touching the file.
        let err = store.record_accepted(&job("b")).unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::ReadOnly);
        let err = store.record_done("a", 0).unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::ReadOnly);
    }

    #[test]
    fn active_job_resumes_and_refuses_divergence() {
        let state = tmp_state("active");
        let body = Json::obj(vec![("x", Json::Num(1.0))]);
        {
            let mut a = ActiveJob::open(&state, job("j")).unwrap();
            assert_eq!(a.remaining.len(), 10, "10 directed cells on one gpu");
            let key = a.keys[0].clone();
            a.record_cell(&key, true, body.clone()).unwrap();
            assert_eq!(a.remaining.len(), 9);
        }
        let mut a = ActiveJob::open(&state, job("j")).unwrap();
        assert_eq!(a.remaining.len(), 9, "journaled cell survives reopen");
        let key = a.keys[0].clone();
        // Same body again: benign (resume race). Different body: refused.
        a.record_cell(&key, true, body).unwrap();
        let err = a
            .record_cell(&key, true, Json::obj(vec![("x", Json::Num(2.0))]))
            .unwrap_err();
        assert!(err.contains("determinism violation"), "{err}");
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn different_job_under_same_id_is_refused() {
        let state = tmp_state("ident");
        drop(ActiveJob::open(&state, job("j")).unwrap());
        let mut other = job("j");
        other.sweep.seed = 99;
        let err = match ActiveJob::open(&state, other) {
            Err(e) => e,
            Ok(_) => panic!("identity mismatch was accepted"),
        };
        assert!(err.contains("identity mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn headerless_job_journal_is_recreated_not_fatal() {
        // Crash between journal creation and the header fsync leaves an
        // empty journal file. The job was possibly already ACKed, so
        // recovery must not hard-fail: no record existed, recreate fresh.
        let state = tmp_state("noheader");
        let jpath = journal_path(&state, "j");
        std::fs::create_dir_all(jpath.parent().unwrap()).unwrap();
        std::fs::write(&jpath, "").unwrap();
        let a = ActiveJob::open(&state, job("j")).expect("empty journal recreated");
        assert_eq!(a.remaining.len(), 10, "all cells pending");
        drop(a);
        // Torn header (no newline): same story.
        std::fs::write(&jpath, "{\"schema\":\"ecl-ben").unwrap();
        let a = ActiveJob::open(&state, job("j")).expect("torn header recreated");
        assert_eq!(a.remaining.len(), 10);
        let _ = std::fs::remove_dir_all(&state);
    }
}
