//! `native_bench` rejects a bad command line with exit 2 and a one-line
//! message, before it builds any input or writes its report.

use std::process::Command;

#[test]
fn usage_errors_exit_2_without_writing_the_report() {
    let dir = std::env::temp_dir().join(format!("ecl-native-bench-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_NATIVE.json");
    let cases: [(&[&str], &str); 4] = [
        (&["--backend", "gpu", "--quick"], "unknown backend 'gpu'"),
        (&["--backend", "sim"], "--backend sim requires --quick"),
        (
            &["--quick", "--threads", "four"],
            "--threads expects a number",
        ),
        (&["--quick", "--reps", "-1"], "--reps expects a number"),
    ];
    for (args, message) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_native_bench"))
            .args(args)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn native_bench");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!out.exists(), "{args:?} wrote {}", out.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_missing_and_repeated_flags_exit_2_before_any_input_is_built() {
    let dir = std::env::temp_dir().join(format!("ecl-native-bench-argv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_NATIVE.json");
    // `--out` goes first here, so that the missing value is the last flag's.
    let cases: [(&[&str], &str); 3] = [
        (
            &["--quick", "--bogus-flag"],
            "unknown argument '--bogus-flag'",
        ),
        (&["--quick", "--reps"], "--reps needs a value"),
        (
            &["--quick", "--threads", "1", "--threads", "2"],
            "--threads is given twice",
        ),
    ];
    for (args, message) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_native_bench"))
            .arg("--out")
            .arg(&out)
            .args(args)
            .output()
            .expect("spawn native_bench");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        // The one stderr line is the refusal, so no input was generated.
        assert!(run.stdout.is_empty(), "{args:?} printed a run header");
        assert!(!out.exists(), "{args:?} wrote {}", out.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
