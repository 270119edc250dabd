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
//! Protocol: the worker receives `--worker-cell <set>/<input>/<alg>/<gpu>`
//! plus the parent's experiment flags, measures exactly that cell, and
//! prints a single JSON document to stdout:
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
use std::process::Command;
use std::time::{Duration, Instant};

/// Byte budget for every stderr/stdout tail a dead worker leaves behind in
/// a [`RunError::Worker`]. The tail travels into journal lines, repro
/// bundles, and `BENCH_RESULTS.json`, so a log-spamming worker must not be
/// able to balloon those artifacts: whatever the worker wrote, at most this
/// many bytes of it survive.
pub const STDERR_TAIL_BUDGET: usize = 2048;

/// Truncates `text` to its last `limit` bytes on a UTF-8 boundary. The
/// in-memory counterpart of [`tail_of`], for tails that arrive as strings
/// (worker stdout echoes, farm supervisor captures).
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
pub fn tail_of(path: &std::path::Path, limit: usize) -> String {
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

/// Runs one cell in a worker subprocess. `idx` names the scratch files, so
/// concurrent cells never collide.
///
/// # Errors
///
/// [`RunError::Worker`] when the process dies (nonzero exit, signal, or
/// deadline kill) or produces unparsable output.
pub fn run_worker(spec: &IsolateSpec, key: &str, idx: usize) -> Result<WorkerVerdict, RunError> {
    std::fs::create_dir_all(&spec.scratch).map_err(|e| RunError::Worker {
        exit: None,
        signal: None,
        timed_out: false,
        stderr_tail: format!("cannot create scratch dir: {e}"),
    })?;
    let out_path = spec.scratch.join(format!("cell-{idx}.out"));
    let err_path = spec.scratch.join(format!("cell-{idx}.err"));
    let spawn = |p: &std::path::Path| std::fs::File::create(p);
    let child = spawn(&out_path)
        .and_then(|out| Ok((out, spawn(&err_path)?)))
        .and_then(|(out, err)| {
            Command::new(&spec.exe)
                .args(&spec.base_args)
                .arg("--worker-cell")
                .arg(key)
                .stdin(std::process::Stdio::null())
                .stdout(out)
                .stderr(err)
                .spawn()
        });
    let mut child = match child {
        Ok(c) => c,
        Err(e) => {
            return Err(RunError::Worker {
                exit: None,
                signal: None,
                timed_out: false,
                stderr_tail: format!("failed to spawn worker: {e}"),
            })
        }
    };

    // A cell's worker often exits within a few milliseconds: poll every
    // millisecond to reap it promptly, never sleeping past the deadline so
    // the kill lands on time.
    let deadline = Instant::now() + spec.timeout;
    let (status, timed_out) = loop {
        match child.try_wait() {
            Ok(Some(status)) => break (status, false),
            Ok(None) => {
                let now = Instant::now();
                if now >= deadline {
                    let _ = child.kill();
                    let status = child.wait().expect("wait on killed worker");
                    break (status, true);
                }
                std::thread::sleep(Duration::from_millis(1).min(deadline - now));
            }
            Err(e) => {
                let _ = child.kill();
                return Err(RunError::Worker {
                    exit: None,
                    signal: None,
                    timed_out: false,
                    stderr_tail: format!("wait failed: {e}"),
                });
            }
        }
    };

    let dead = |stderr_tail: String| RunError::Worker {
        exit: status.code(),
        signal: unix_signal(&status),
        timed_out,
        stderr_tail,
    };
    if timed_out || !status.success() {
        return Err(dead(tail_of(&err_path, STDERR_TAIL_BUDGET)));
    }

    let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
    // The stdout echo in the error is capped too: a worker spamming garbage
    // to stdout must not balloon the failure payload any more than a
    // stderr-spammer can.
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
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(&err_path);
    if let Some(body) = doc.get("ok") {
        Ok(WorkerVerdict::Ok(body.clone()))
    } else if let Some(body) = doc.get("failed") {
        Ok(WorkerVerdict::Failed(body.clone()))
    } else {
        Err(dead("worker reported neither ok nor failed".to_string()))
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
