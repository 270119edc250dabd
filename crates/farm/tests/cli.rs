//! `farm` refuses a command line it cannot honour: exit 2, one line on
//! stderr naming the argument, and the state directory left untouched. Its
//! internal per-cell worker is just as strict, because a worker that fell
//! back to a default would measure another experiment than its job.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn farm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_farm"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn farm")
}

#[test]
fn usage_errors_exit_2_with_one_line_and_touch_no_state() {
    let state: PathBuf = std::env::temp_dir().join(format!("ecl-farm-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let state_arg = state.to_str().unwrap();
    let key = "directed/cage14/SCC/TestTiny";
    let cases: [(&[&str], &str); 8] = [
        (
            &["--state", state_arg, "--bogus"],
            "unknown argument '--bogus'",
        ),
        (&["--state", state_arg, "--workers", "two"], "--workers"),
        (
            &["--state", state_arg, "--queue-cap"],
            "--queue-cap needs a value",
        ),
        (
            &["--state", state_arg, "--max-attempts", "-3"],
            "--max-attempts",
        ),
        (
            &["--state", state_arg, "--deadline-ms", "1000"],
            "unknown argument '--deadline-ms'",
        ),
        (
            &["--state", state_arg, "--once", "extra"],
            "unknown argument 'extra'",
        ),
        (
            &["--worker-cell", key, "--state", state_arg],
            "unknown argument '--state'",
        ),
        (
            &["--scale", "big", "--worker-cell", key],
            "--scale cannot take the value 'big'",
        ),
    ];
    for (args, message) in cases {
        let run = farm(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} printed output");
        assert!(!state.exists(), "{args:?} created the state directory");
    }
}

#[test]
fn the_worker_measures_the_cell_it_is_given() {
    let run = farm(&[
        "--scale",
        "0.05",
        "--runs",
        "1",
        "--worker-cell",
        "directed/cage14/SCC/TestTiny",
    ]);
    assert_eq!(run.status.code(), Some(0));
    let doc = ecl_bench::Json::parse(String::from_utf8_lossy(&run.stdout).trim()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(ecl_bench::Json::as_str),
        Some("ecl-bench/WORKER_CELL/v1")
    );
    let cell = doc.get("ok").expect("the cell measured");
    assert_eq!(
        cell.get("input").and_then(ecl_bench::Json::as_str),
        Some("cage14")
    );
}
