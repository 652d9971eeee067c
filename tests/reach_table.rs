//! DESIGN.md's reach table names what reaches each module of each
//! workspace crate. This test keeps it honest in both directions: every
//! module a crate root declares has exactly one row, and every row names a
//! module that still exists.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// (package, module) for every module a library crate's root declares.
fn declared_modules(root: &Path) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(lib) = fs::read_to_string(dir.join("src/lib.rs")) else { continue };
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        let package = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("package name")
            .trim_matches('"')
            .to_string();
        for line in lib.lines() {
            let decl = line.strip_prefix("pub ").unwrap_or(line);
            if let Some(module) = decl.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
                out.insert((package.clone(), module.to_string()));
            }
        }
    }
    out
}

/// (crate, module) of every reach-table row, each checked for a non-empty
/// "reached by" cell.
fn table_rows(design: &str) -> Vec<(String, String)> {
    let section = design.split("### Reach table").nth(1).expect("DESIGN.md has a reach table");
    section
        .lines()
        .skip_while(|l| !l.starts_with("| Crate |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert!(cells.len() >= 4 && !cells[3].is_empty(), "row without a reach: {row}");
            (cells[1].trim_matches('`').to_string(), cells[2].trim_matches('`').to_string())
        })
        .collect()
}

#[test]
fn every_module_has_one_reach_row_and_every_row_a_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let declared = declared_modules(root);
    assert!(declared.len() > 50, "found only {} modules", declared.len());
    let rows = table_rows(&design);
    let unique: BTreeSet<_> = rows.iter().cloned().collect();
    assert_eq!(unique.len(), rows.len(), "a module has more than one reach row");
    let missing: Vec<_> = declared.difference(&unique).collect();
    let stale: Vec<_> = unique.difference(&declared).collect();
    assert!(missing.is_empty(), "modules without a reach row in DESIGN.md: {missing:?}");
    assert!(stale.is_empty(), "reach rows naming no module: {stale:?}");
}
