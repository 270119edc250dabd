//! Process isolation for sweep cells: one worker subprocess per cell.
//!
//! In-process, `ecl_core::suite::run_cell` already converts panics and
//! launch failures into typed errors — but an *abort* (allocation failure,
//! stack overflow, a `panic = "abort"` dependency), a runaway cell, or the
//! OOM killer still takes the whole sweep down. `--isolate` closes that
//! hole: the parent re-invokes its own binary as a per-cell worker with a
//! wall-clock deadline, and a dead or deadlocked worker becomes one typed
//! [`RunError::Worker`] failure while the sweep continues.
//!
//! This is the one subprocess executor. [`spawn`] starts a worker and
//! [`RunningCell::poll`] reaps it without blocking, so the farm's fleet
//! holds one running cell per slot; [`run_worker`] blocks on one cell for
//! the sweep's job pool.
//!
//! Protocol: the worker receives the sweep's worker flags
//! ([`crate::SweepSpec::worker_args`]) plus `--worker-cell
//! <set>/<input>/<alg>/<gpu>`, measures exactly that cell
//! ([`crate::sweep::measure_cell`]), and prints a single JSON document to
//! stdout:
//!
//! ```text
//! {"schema":"ecl-bench/WORKER_CELL/v1","ok":{…cell body…}}
//! {"schema":"ecl-bench/WORKER_CELL/v1","failed":{…failure body…}}
//! ```
//!
//! It exits 0 in both cases — the verdict travels in the JSON. Any other
//! exit (nonzero, signal, timeout) is a worker death. Stdout and stderr go
//! to per-cell scratch files, not pipes, so a chatty worker can never
//! deadlock against a parent that isn't reading.

use crate::export::Json;
use ecl_core::suite::RunError;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Byte budget for every stderr/stdout tail a dead worker leaves behind in
/// a [`RunError::Worker`]. The tail travels into journal lines, repro
/// bundles, and `BENCH_RESULTS.json`, so a log-spamming worker must not be
/// able to balloon those artifacts: whatever the worker wrote, at most this
/// many bytes of it survive.
pub const STDERR_TAIL_BUDGET: usize = 2048;

/// Truncates `text` to its last `limit` bytes on a UTF-8 boundary. The
/// in-memory counterpart of `tail_of`, for tails that arrive as strings
/// (worker stdout echoes).
pub fn cap_tail(text: &str, limit: usize) -> String {
    let start = text.len().saturating_sub(limit);
    let start = (start..=text.len())
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(text.len());
    text[start..].to_string()
}

/// How a sweep launches per-cell workers.
#[derive(Debug, Clone)]
pub struct IsolateSpec {
    /// The worker executable — normally `std::env::current_exe()`.
    pub exe: PathBuf,
    /// Experiment flags forwarded to every worker (scale, runs, seed,
    /// watchdog, fault plan…), excluding the `--worker-cell` key.
    pub base_args: Vec<String>,
    /// Wall-clock budget per cell; an overrunning worker is killed.
    pub timeout: Duration,
    /// Directory for per-cell stdout/stderr capture files.
    pub scratch: PathBuf,
}

/// What a worker that *ran to completion* reported.
#[derive(Debug, Clone)]
pub enum WorkerVerdict {
    /// The cell measured cleanly; the body parses with
    /// [`crate::export::parse_cell`].
    Ok(Json),
    /// The cell failed in a typed, in-process way; the body parses with
    /// [`crate::export::parse_failure`].
    Failed(Json),
}

/// Last `limit` bytes of a capture file, trimmed, for failure reports.
/// Seeks instead of slurping: a worker that spammed gigabytes of stderr
/// costs `limit` bytes of memory here, not its file size.
fn tail_of(path: &std::path::Path, limit: usize) -> String {
    let read_tail = || -> std::io::Result<Vec<u8>> {
        let mut f = std::fs::File::open(path)?;
        let len = f.seek(SeekFrom::End(0))?;
        let start = len.saturating_sub(limit as u64);
        f.seek(SeekFrom::Start(start))?;
        let mut buf = Vec::with_capacity(limit.min(len as usize));
        f.take(limit as u64).read_to_end(&mut buf)?;
        Ok(buf)
    };
    let bytes = read_tail().unwrap_or_default();
    // Seeking may have landed mid-scalar (and spam may not be UTF-8 at
    // all); lossy conversion keeps whatever is readable.
    String::from_utf8_lossy(&bytes).trim().to_string()
}

/// A worker subprocess measuring one cell. [`RunningCell::poll`] reaps it;
/// dropping it kills a worker still running.
#[derive(Debug)]
pub struct RunningCell {
    child: Child,
    deadline: Instant,
    out_path: PathBuf,
    err_path: PathBuf,
}

/// Names this process's capture files apart from those of every other
/// parent, earlier incarnations of this one included: an orphaned worker of
/// a parent killed mid-cell may still be writing to its files.
fn incarnation() -> &'static str {
    static ID: OnceLock<String> = OnceLock::new();
    ID.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        format!("{}-{nanos:x}", std::process::id())
    })
}

fn worker_error(stderr_tail: String) -> RunError {
    RunError::Worker {
        exit: None,
        signal: None,
        timed_out: false,
        stderr_tail,
    }
}

/// Starts the worker for cell `key`. `seq` tells the capture files of this
/// process's cells apart; a sequence number may be reused only once its
/// cell has been reaped.
///
/// # Errors
///
/// [`RunError::Worker`] when the capture files or the process cannot be
/// created.
pub fn spawn(spec: &IsolateSpec, key: &str, seq: u64) -> Result<RunningCell, RunError> {
    std::fs::create_dir_all(&spec.scratch)
        .map_err(|e| worker_error(format!("cannot create scratch dir: {e}")))?;
    let stem = format!("cell-{}-{seq}", incarnation());
    let out_path = spec.scratch.join(format!("{stem}.out"));
    let err_path = spec.scratch.join(format!("{stem}.err"));
    let create = |p: &std::path::Path| std::fs::File::create(p);
    let child = create(&out_path)
        .and_then(|out| Ok((out, create(&err_path)?)))
        .and_then(|(out, err)| {
            Command::new(&spec.exe)
                .args(&spec.base_args)
                .arg("--worker-cell")
                .arg(key)
                .stdin(std::process::Stdio::null())
                .stdout(out)
                .stderr(err)
                .spawn()
        })
        .map_err(|e| worker_error(format!("failed to spawn worker: {e}")))?;
    Ok(RunningCell {
        child,
        deadline: Instant::now() + spec.timeout,
        out_path,
        err_path,
    })
}

impl RunningCell {
    /// Checks on the worker without blocking: `None` while it runs within
    /// its deadline, else what it reported or how it died. A worker past its
    /// deadline is killed here. Call until it returns `Some`.
    pub fn poll(&mut self) -> Option<Result<WorkerVerdict, RunError>> {
        let waited = match self.child.try_wait() {
            Ok(None) if Instant::now() < self.deadline => return None,
            Ok(Some(status)) => Ok((status, false)),
            Ok(None) => {
                let _ = self.child.kill();
                self.child.wait().map(|status| (status, true))
            }
            Err(e) => Err(e),
        };
        let verdict = match waited {
            Ok((status, timed_out)) => self.verdict(status, timed_out),
            Err(e) => Err(worker_error(format!("wait failed: {e}"))),
        };
        // The verdict holds all it needs of the files, stderr tail included.
        self.remove_capture_files();
        Some(verdict)
    }

    fn remove_capture_files(&self) {
        let _ = std::fs::remove_file(&self.out_path);
        let _ = std::fs::remove_file(&self.err_path);
    }

    fn verdict(
        &self,
        status: std::process::ExitStatus,
        timed_out: bool,
    ) -> Result<WorkerVerdict, RunError> {
        let dead = |stderr_tail: String| RunError::Worker {
            exit: status.code(),
            signal: unix_signal(&status),
            timed_out,
            stderr_tail,
        };
        if timed_out || !status.success() {
            return Err(dead(tail_of(&self.err_path, STDERR_TAIL_BUDGET)));
        }

        let stdout = std::fs::read_to_string(&self.out_path).unwrap_or_default();
        // The stdout echo in the error is capped too: a worker spamming
        // garbage to stdout must not balloon the failure payload any more
        // than a stderr-spammer can.
        let doc = Json::parse(stdout.trim()).map_err(|e| {
            dead(format!(
                "unparsable worker output ({e}): {}",
                cap_tail(stdout.trim(), STDERR_TAIL_BUDGET)
            ))
        })?;
        if doc.get("schema").and_then(Json::as_str) != Some(WORKER_SCHEMA) {
            return Err(dead(format!(
                "worker spoke the wrong schema: {}",
                stdout.trim()
            )));
        }
        if let Some(body) = doc.get("ok") {
            Ok(WorkerVerdict::Ok(body.clone()))
        } else if let Some(body) = doc.get("failed") {
            Ok(WorkerVerdict::Failed(body.clone()))
        } else {
            Err(dead("worker reported neither ok nor failed".to_string()))
        }
    }
}

impl Drop for RunningCell {
    fn drop(&mut self) {
        // A reaped child is not signalled again.
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.remove_capture_files();
    }
}

/// Runs one cell in a worker subprocess and waits for it. `idx` names the
/// capture files, so concurrent cells never collide.
///
/// # Errors
///
/// [`RunError::Worker`] when the process dies (nonzero exit, signal, or
/// deadline kill) or produces unparsable output.
pub fn run_worker(spec: &IsolateSpec, key: &str, idx: usize) -> Result<WorkerVerdict, RunError> {
    let mut cell = spawn(spec, key, idx as u64)?;
    // A cell's worker often exits within a few milliseconds: poll every
    // millisecond to reap it promptly, never sleeping past the deadline so
    // the kill lands on time.
    loop {
        if let Some(result) = cell.poll() {
            return result;
        }
        let left = cell.deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(Duration::from_millis(1).min(left));
    }
}

/// Schema tag of the worker's stdout document.
pub const WORKER_SCHEMA: &str = "ecl-bench/WORKER_CELL/v1";

/// Builds the worker's stdout document (the worker side of the protocol).
pub fn worker_doc(verdict: &WorkerVerdict) -> Json {
    let (tag, body) = match verdict {
        WorkerVerdict::Ok(b) => ("ok", b),
        WorkerVerdict::Failed(b) => ("failed", b),
    };
    Json::obj(vec![
        ("schema", Json::Str(WORKER_SCHEMA.into())),
        (tag, body.clone()),
    ])
}

#[cfg(unix)]
fn unix_signal(status: &std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn unix_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fake worker is `sh -c <script>`: the script sits in `base_args`,
    // and the `--worker-cell <key>` tokens run_worker appends land in the
    // script's $0/$1, harmlessly. Real protocol end-to-end coverage (the
    // actual binary as the worker) lives in tests/crash_safety.rs.
    fn capture_files(s: &IsolateSpec, seq: u64) -> [PathBuf; 2] {
        let stem = format!("cell-{}-{seq}", incarnation());
        ["out", "err"].map(|ext| s.scratch.join(format!("{stem}.{ext}")))
    }

    fn spec(script: &str, timeout_ms: u64) -> IsolateSpec {
        IsolateSpec {
            exe: PathBuf::from("/bin/sh"),
            base_args: vec!["-c".into(), script.into()],
            timeout: Duration::from_millis(timeout_ms),
            scratch: std::env::temp_dir().join(format!("ecl-isolate-{}", std::process::id())),
        }
    }

    #[test]
    fn well_formed_worker_output_parses() {
        let doc = r#"{"schema":"ecl-bench/WORKER_CELL/v1","ok":{"speedup":1.5}}"#;
        let s = spec(&format!("printf '%s' '{doc}'"), 5_000);
        let v = run_worker(&s, "k", 0).unwrap();
        match v {
            WorkerVerdict::Ok(body) => {
                assert_eq!(body.get("speedup").and_then(Json::as_num), Some(1.5));
            }
            WorkerVerdict::Failed(_) => panic!("expected ok"),
        }
    }

    #[test]
    fn dying_worker_becomes_typed_error() {
        let s = spec("echo boom >&2; exit 3", 5_000);
        let err = run_worker(&s, "k", 1).unwrap_err();
        match err {
            RunError::Worker {
                exit,
                timed_out,
                stderr_tail,
                ..
            } => {
                assert_eq!(exit, Some(3));
                assert!(!timed_out);
                assert!(stderr_tail.contains("boom"), "tail: {stderr_tail}");
            }
            other => panic!("expected Worker, got {other:?}"),
        }
        for path in capture_files(&s, 1) {
            assert!(!path.exists(), "{} outlived its verdict", path.display());
        }
    }

    #[test]
    fn overrunning_worker_is_killed() {
        let s = spec("sleep 30", 100);
        let started = Instant::now();
        let err = run_worker(&s, "k", 2).unwrap_err();
        assert!(started.elapsed() >= s.timeout, "killed before the deadline");
        match err {
            RunError::Worker { timed_out, .. } => assert!(timed_out),
            other => panic!("expected Worker, got {other:?}"),
        }
    }

    #[test]
    fn poll_does_not_block_and_a_dropped_cell_kills_its_worker() {
        let s = spec("sleep 30", 60_000);
        let started = Instant::now();
        let mut cell = spawn(&s, "k", 20).unwrap();
        assert!(cell.poll().is_none(), "the worker is still sleeping");
        // Capture files carry the parent's id, so a later parent never
        // reuses the files of this one's orphaned workers.
        let stem = format!("cell-{}-", std::process::id());
        assert!(std::fs::read_dir(&s.scratch).unwrap().any(|e| e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with(&stem)));
        drop(cell);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "drop waited for the worker instead of killing it"
        );
        for path in capture_files(&s, 20) {
            assert!(!path.exists(), "{} outlived its worker", path.display());
        }
    }

    #[test]
    fn log_spamming_worker_tails_are_capped() {
        // 4 MiB of stderr spam, then a marker, then death: the captured
        // tail must stay within the byte budget and keep the *end* of the
        // stream (where the actual panic message lives).
        let s = spec(
            "yes spamspamspamspam | head -c 4194304 >&2; echo FINAL-MARKER >&2; exit 7",
            30_000,
        );
        let err = run_worker(&s, "k", 10).unwrap_err();
        match err {
            RunError::Worker { stderr_tail, .. } => {
                assert!(
                    stderr_tail.len() <= STDERR_TAIL_BUDGET,
                    "tail ballooned to {} bytes",
                    stderr_tail.len()
                );
                assert!(stderr_tail.ends_with("FINAL-MARKER"), "tail lost the end");
            }
            other => panic!("expected Worker, got {other:?}"),
        }

        // Same budget for stdout spam that fails to parse as the protocol.
        let s = spec("yes notjson | head -c 4194304", 30_000);
        let err = run_worker(&s, "k", 11).unwrap_err();
        match err {
            RunError::Worker { stderr_tail, .. } => {
                assert!(stderr_tail.contains("unparsable"));
                assert!(
                    stderr_tail.len() <= STDERR_TAIL_BUDGET + 128,
                    "stdout echo ballooned to {} bytes",
                    stderr_tail.len()
                );
            }
            other => panic!("expected Worker, got {other:?}"),
        }
    }

    #[test]
    fn cap_tail_respects_utf8_boundaries() {
        assert_eq!(cap_tail("abcdef", 3), "def");
        assert_eq!(cap_tail("abc", 10), "abc");
        assert_eq!(cap_tail("", 4), "");
        // 'é' is two bytes; a cut landing inside it must skip the scalar.
        let s = "xéy";
        assert_eq!(cap_tail(s, 2), "y");
        assert_eq!(cap_tail(s, 3), "éy");
    }

    #[test]
    fn garbage_output_is_a_worker_error() {
        let s = spec("echo not-json", 5_000);
        let err = run_worker(&s, "k", 3).unwrap_err();
        match err {
            RunError::Worker {
                exit, stderr_tail, ..
            } => {
                assert_eq!(exit, Some(0));
                assert!(stderr_tail.contains("unparsable"), "tail: {stderr_tail}");
            }
            other => panic!("expected Worker, got {other:?}"),
        }
    }
}
