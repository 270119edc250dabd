//! `all_tests` refuses a command line it cannot honour: exit 2, one line on
//! stderr naming the argument, and nothing built, run or written. The same
//! holds for its per-cell worker, which must never measure a cell other
//! than the one its parent sent.

use std::path::PathBuf;
use std::process::{Command, Output};

fn all_tests(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_tests"))
        .args(args)
        .output()
        .expect("spawn all_tests")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecl-all-tests-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_exit_2_with_one_line_and_write_nothing() {
    let dir = scratch("usage");
    let out = dir.join("out");
    let out = out.to_str().unwrap();
    let key = "directed/cage14/SCC/TestTiny";
    let cases: [(&[&str], &str); 13] = [
        (
            &["--runs", "abc", "--bogus-flag"],
            "unknown argument '--bogus-flag'",
        ),
        (&["--runs", "abc"], "--runs cannot take the value 'abc'"),
        (&["--help"], "unknown argument '--help'"),
        (&["--scale"], "--scale needs a value"),
        (&["--seed", "1", "--seed", "2"], "--seed is given twice"),
        (&["--jobs", "-1"], "--jobs"),
        (&["--sets", "diagonal"], "--sets"),
        (&["--gpu", "NoSuch"], "--gpu"),
        (&["--fault-level", "l4"], "--fault-level"),
        (&["--cell-timeout", "5m", "--isolate"], "--cell-timeout"),
        (&["stray"], "unknown argument 'stray'"),
        (&["--worker-cell", key, "--retries", "x"], "--retries"),
        (
            &["--worker-cell", "directed/cage14/SCC"],
            "malformed cell key",
        ),
    ];
    for (args, message) in cases {
        let mut argv = vec!["--out", out];
        argv.extend(args);
        let run = all_tests(&argv);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} printed output");
        assert!(!std::path::Path::new(out).exists(), "{args:?} wrote {out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_refuses_extra_arguments_and_unparsable_bundles() {
    let dir = scratch("replay");
    let bundle = dir.join("bundle.json");
    std::fs::write(
        &bundle,
        r#"{"schema":"ecl-bench/REPRO/v1","key":"directed/cage14/SCC/TestTiny",
            "replay":{"args":["--scale","0.05","--worker-cell","directed/cage14/SCC/TestTiny"]}}"#,
    )
    .unwrap();
    let path = bundle.to_str().unwrap();
    for (args, message) in [
        (
            &["--replay", path, "--runs", "5"][..],
            "--replay takes no other arguments",
        ),
        (&["--replay", path], "unknown argument '--worker-cell'"),
    ] {
        let run = all_tests(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} measured a cell");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
