//! `repair_tool` and `analyze_tool` refuse a command line they cannot
//! honour with exit 2 and a one-line message, before they run anything: a
//! value flag at the end without its value, a value flag given twice, and
//! a stray word.

use std::process::Command;

#[test]
fn trailing_repeated_and_stray_arguments_exit_2_with_one_line() {
    let repair = env!("CARGO_BIN_EXE_repair_tool");
    let analyze = env!("CARGO_BIN_EXE_analyze_tool");
    let cases: [(&str, &[&str], &str); 6] = [
        (
            repair,
            &["--alg", "cc", "--json", "--scale"],
            "--scale needs a value",
        ),
        (
            repair,
            &["--alg", "cc", "--alg", "mis", "--json"],
            "--alg is given twice",
        ),
        (
            repair,
            &["--alg", "cc", "stray", "--json"],
            "unknown argument 'stray'",
        ),
        (analyze, &["--json", "--seeds"], "--seeds needs a value"),
        (
            analyze,
            &["--json", "--seeds", "3", "--seeds", "1"],
            "--seeds is given twice",
        ),
        (analyze, &["--json", "stray"], "unknown argument 'stray'"),
    ];
    for (bin, args, message) in cases {
        let run = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{bin} {args:?} printed a report");
    }
}
