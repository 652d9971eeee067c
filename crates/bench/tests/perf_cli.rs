//! `ncar-bench perf` as a user runs it: the committed `BENCH_*.json`
//! baselines sit in the repository root, so a run without `--out` must
//! write nothing there.

use std::process::Command;

#[test]
fn perf_without_out_leaves_the_working_directory_unchanged() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-no-out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ncar-bench"))
        .args(["perf", "--smoke", "--runs", "1"])
        .current_dir(&dir)
        .output()
        .expect("run ncar-bench perf");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fig5_ladder"), "the table still prints: {stdout}");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "perf without --out wrote {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
