//! `racecheck_tool` rejects a command line it cannot honour with exit 2 and
//! a one-line message, before it builds any input or runs anything, and it
//! runs every detector mode, bounded or not.

use std::process::{Command, Output};

fn racecheck_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_racecheck_tool"))
        .args(args)
        .output()
        .expect("spawn racecheck_tool")
}

#[test]
fn usage_errors_exit_2_with_one_line() {
    let cases: [(&[&str], &str); 8] = [
        (
            &["--alg", "cc", "--variant", "racefre"],
            "unknown variant 'racefre'",
        ),
        (
            &["--alg", "scc", "--varient", "race-free"],
            "unknown argument '--varient'",
        ),
        (&["--algo", "scc"], "unknown argument '--algo'"),
        (&["--json", "stray"], "unknown argument 'stray'"),
        (&["--alg"], "--alg needs a value"),
        (&["--mode", "tsan"], "unknown detector mode 'tsan'"),
        (
            &["--max-pairs", "0"],
            "--max-pairs needs a positive integer",
        ),
        (&["--alg", "cc", "--alg", "mis"], "--alg is given twice"),
    ];
    for (args, message) in cases {
        let run = racecheck_tool(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn every_mode_runs_bounded_and_both_variant_spellings_are_accepted() {
    let input = ["--input", "internet", "--scale", "0.05", "--json"];
    for (variant, exit) in [("baseline", 1), ("race-free", 0), ("racefree", 0)] {
        for mode in [
            "precise",
            "shared-only",
            "no-launch-barrier",
            "happens-before",
        ] {
            let mut args = vec!["--alg", "cc", "--variant", variant, "--mode", mode];
            args.extend(["--max-pairs", "2"]);
            args.extend(input);
            let run = racecheck_tool(&args);
            let stdout = String::from_utf8_lossy(&run.stdout);
            // The shared-only mode is blind to CC's global-memory races.
            let exit = if mode == "shared-only" { 0 } else { exit };
            assert_eq!(run.status.code(), Some(exit), "{args:?}: {stdout}");
            assert!(stdout.contains("\"max_pairs\": 2"), "{args:?}: {stdout}");
            assert!(
                stdout.contains(&format!("\"variant\": \"{variant}\"")),
                "{args:?}: {stdout}"
            );
        }
    }
}
