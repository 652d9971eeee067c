//! The batch experiment runner rejects flags it does not read and words
//! that name nothing to run, like the serving subcommands do: a misspelt
//! `--json` or experiment must not print the rest and exit 0.

use std::process::{Command, Output};

fn ncar_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ncar-bench")).args(args).output().expect("run ncar-bench")
}

#[test]
fn a_misspelt_flag_exits_2_without_running() {
    for (args, flag) in [
        (&["--jsn", "table4"][..], "--jsn"),
        // `check` reads `--json` and no other flag.
        (&["check", "--matrix"], "--matrix"),
        (&["check", "--deny-warnings"], "--deny-warnings"),
        (&["check", "--baseline", "sxcheck.baseline"], "--baseline"),
    ] {
        let out = ncar_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim(), format!("unknown flag {flag}"), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran anyway: {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn a_word_that_names_nothing_to_run_exits_2_without_running() {
    for (args, word) in [
        (&["--json", "table2", "tabel4"][..], "tabel4"),
        (&["check", "table2"], "table2"),
        (&["perf"], "perf"),
    ] {
        let out = ncar_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(word), "{args:?} must name {word}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn the_batch_flags_still_run() {
    let out = ncar_bench(&["--jobs", "1", "--json", "table2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with('{') && stdout.contains("Table 2"), "{stdout}");
}
