//! Every experiment's artifacts, pinned byte for byte.
//!
//! `tests/golden/<experiment>.json` at the repository root holds what
//! `ncar-bench --json <experiment>` prints: one artifact per line. This
//! test runs the binary for every experiment `ncar-bench list` names and
//! compares its output with the file, naming the first differing artifact
//! and row. To regenerate a file on purpose, redirect that same command
//! into it (`ncar-bench --json table5 > tests/golden/table5.json`) and list
//! the changed files in CHANGES.md.
//!
//! `check.json` pins the `sxcheck` diagnostics the same way (`ncar-bench
//! check --json`: the fixtures, and every preset's lints and ledger
//! audit), so a new finding, a lost finding or an unsatisfied fixture
//! fails here. `served/` holds full daemon replies; the `serve` module's
//! tests own it.

use std::path::PathBuf;
use std::process::Command;

use ncar_suite::Json;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ncar-bench"))
}

/// The experiment names `ncar-bench list` prints (to stderr, after the
/// `experiments:` line).
fn experiments() -> Vec<String> {
    let out = bench().arg("list").output().expect("run ncar-bench list");
    assert!(out.status.success(), "ncar-bench list failed");
    let text = String::from_utf8(out.stderr).expect("utf-8 listing");
    let listing = text.split_once("experiments:\n").expect("listing has an experiments section").1;
    listing.lines().filter_map(|l| l.split_whitespace().next()).map(str::to_string).collect()
}

/// Where two rows of an artifact first differ: `rows[i]` of a table,
/// `series[s].points[i]` of a figure, or the value of a scalar.
fn first_row_difference(want: &Json, got: &Json) -> String {
    let arr = |j: &Json, key: &str| j.get(key).and_then(Json::as_arr).map(<[Json]>::to_vec);
    if let (Some(w), Some(g)) = (arr(want, "rows"), arr(got, "rows")) {
        return match (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)) {
            Some(i) => format!("row {i}: want {:?}, got {:?}", w.get(i), g.get(i)),
            None => "rows equal; headers or title differ".into(),
        };
    }
    if let (Some(w), Some(g)) = (arr(want, "series"), arr(got, "series")) {
        for s in 0..w.len().max(g.len()) {
            let (ws, gs) = (w.get(s), g.get(s));
            let label = ws.and_then(|x| x.get("label")).and_then(Json::as_str).unwrap_or("?");
            let points = |x: Option<&Json>| x.and_then(|x| arr(x, "points")).unwrap_or_default();
            let (wp, gp) = (points(ws), points(gs));
            if let Some(i) = (0..wp.len().max(gp.len())).find(|&i| wp.get(i) != gp.get(i)) {
                return format!(
                    "series {s} ({label:?}) point {i}: want {:?}, got {:?}",
                    wp.get(i),
                    gp.get(i)
                );
            }
            if ws != gs {
                return format!("series {s} ({label:?}) names differ");
            }
        }
        return "series equal; title differs".into();
    }
    format!("want {:?}, got {:?}", want.get("value"), got.get("value"))
}

/// `None` when `got` equals `want` byte for byte; otherwise which
/// artifact (line) and row differ first.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let Some(i) = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)) else {
        return Some("same artifacts, different line endings".into());
    };
    let (Some(wl), Some(gl)) = (w.get(i), g.get(i)) else {
        return Some(format!("artifact count: want {}, got {}", w.len(), g.len()));
    };
    let parsed = (Json::parse(wl), Json::parse(gl));
    let (Ok(wj), Ok(gj)) = parsed else {
        return Some(format!("artifact {i}: not comparable JSON\nwant {wl}\ngot  {gl}"));
    };
    let title = wj.get("title").and_then(Json::as_str).unwrap_or("?").to_string();
    Some(format!("artifact {i} ({title:?}): {}", first_row_difference(&wj, &gj)))
}

#[test]
fn every_experiment_matches_its_golden_file() {
    let names = experiments();
    assert_eq!(names.len(), 24, "{names:?}");
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|e| e.expect("readable entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = names.iter().map(|n| format!("{n}.json")).collect();
    expected.push("check.json".into());
    expected.push("served".into());
    expected.sort();
    assert_eq!(files, expected, "one golden file per experiment and the check report, no strays");

    let failures: Vec<String> = ncar_suite::par_map(names, |name| {
        let want = std::fs::read_to_string(golden_dir().join(format!("{name}.json")))
            .expect("golden file readable");
        let out = bench().args(["--json", &name]).output().expect("run ncar-bench");
        if !out.status.success() {
            return Some(format!("{name}: exited with {}", out.status));
        }
        let got = String::from_utf8(out.stdout).expect("utf-8 output");
        first_difference(&want, &got).map(|d| format!("{name}: {d}"))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "artifacts moved from their golden files:\n{}",
        failures.join("\n")
    );
}

#[test]
fn check_reports_match_their_golden_files() {
    let want =
        std::fs::read_to_string(golden_dir().join("check.json")).expect("golden file readable");
    let out = bench().args(["check", "--json"]).output().expect("run ncar-bench check");
    assert!(out.status.success(), "check.json: exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(got == want, "check.json moved:\nwant {want}\ngot  {got}");
}

#[test]
fn differences_name_the_artifact_and_row() {
    let table = |cell: &str| {
        format!(
            "{{\"kind\":\"table\",\"title\":\"T\",\"headers\":[\"a\"],\"rows\":[[\"x\"],[\"{cell}\"]]}}\n"
        )
    };
    let figure = |y: f64| {
        format!(
            "{{\"kind\":\"figure\",\"title\":\"F\",\"series\":[{{\"label\":\"s\",\"x_name\":\"x\",\
             \"y_name\":\"y\",\"points\":[[1.0,2.0],[2.0,{y}]]}}]}}\n"
        )
    };
    let want = table("1.00") + &figure(3.0);
    assert_eq!(first_difference(&want, &want), None);
    let moved_row = first_difference(&want, &(table("1.01") + &figure(3.0))).unwrap();
    assert!(moved_row.starts_with("artifact 0 (\"T\"): row 1:"), "{moved_row}");
    let moved_point = first_difference(&want, &(table("1.00") + &figure(3.5))).unwrap();
    assert!(
        moved_point.starts_with("artifact 1 (\"F\"): series 0 (\"s\") point 1:"),
        "{moved_point}"
    );
    let missing = first_difference(&want, &table("1.00")).unwrap();
    assert_eq!(missing, "artifact count: want 2, got 1");
}
