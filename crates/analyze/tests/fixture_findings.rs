//! Pins the full engine output on the fixture corpus: every finding
//! (all rules, full message text) for each `tests/fixtures/*.rs`, run
//! under the same virtual path `engine_fixtures.rs` loads it at. The
//! fixture tests there check the shape of each diagnostic by
//! substring; this snapshot makes every byte of every chain part of
//! the contract, so an engine refactor that reorders a witness or
//! rewords a message shows up as a diff. Regenerate with:
//!
//! ```text
//! OA_REGEN_SNAPSHOT=1 cargo test -p oa-analyze --test fixture_findings
//! ```

use oa_analyze::engine::run;
use std::path::Path;

const SNAPSHOT: &str = "tests/snapshots/fixture_findings.txt";

/// `(fixture file, virtual workspace path)`, in snapshot order.
const FIXTURES: &[(&str, &str)] = &[
    ("alloc_bad.rs", "crates/linalg/src/sparse.rs"),
    ("alloc_good.rs", "crates/linalg/src/sparse.rs"),
    ("blocking_bad.rs", "crates/router/src/router.rs"),
    ("blocking_good.rs", "crates/router/src/router.rs"),
    ("locks_bad.rs", "crates/serve/src/service.rs"),
    ("locks_good.rs", "crates/serve/src/service.rs"),
    ("panic_bad.rs", "crates/serve/src/service.rs"),
    ("panic_good.rs", "crates/serve/src/service.rs"),
    ("range_bad.rs", "crates/serve/src/service.rs"),
    ("range_good.rs", "crates/serve/src/service.rs"),
    ("taint_bad.rs", "crates/serve/src/service.rs"),
    ("taint_good.rs", "crates/serve/src/service.rs"),
];

fn render() -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut out = String::new();
    for (file, path) in FIXTURES {
        let source = std::fs::read_to_string(dir.join(file)).unwrap();
        let report = run(&[((*path).to_owned(), source)]);
        out.push_str(&format!(
            "== {file} as {path} ({} finding(s))\n",
            report.findings.len()
        ));
        for finding in &report.findings {
            out.push_str(&format!("{finding}\n"));
        }
    }
    out
}

#[test]
fn every_fixture_finding_matches_the_snapshot() {
    let text = render();
    let snap_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(SNAPSHOT);
    if std::env::var_os("OA_REGEN_SNAPSHOT").is_some() {
        std::fs::write(&snap_path, &text).unwrap();
        return;
    }
    let snapshot = std::fs::read_to_string(&snap_path).unwrap_or_default();
    assert!(
        snapshot == text,
        "fixture findings drifted from {SNAPSHOT}; review and regenerate with \
         OA_REGEN_SNAPSHOT=1\n--- snapshot\n{snapshot}--- now\n{text}"
    );
}

#[test]
fn the_snapshot_covers_every_fixture_file() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".rs"))
        .collect();
    on_disk.sort();
    let pinned: Vec<&str> = FIXTURES.iter().map(|(file, _)| *file).collect();
    assert_eq!(on_disk, pinned);
}
