//! The fixture corpus: every rule has a file under `fixtures/` that,
//! planted at an in-scope path of a synthetic tree, trips exactly that
//! rule — plus a clean file the audit must stay silent on, a
//! migration-proof file the old substring grep would have failed, and a
//! golden check of the JSON report's schema.

use std::path::{Path, PathBuf};

use mgps_lint::{audit, rules};
use minijson::Value;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Materialize `(repo-relative path, fixture file)` pairs as a temp tree.
fn plant(tag: &str, tree: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mgps-lint-fixture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (rel, fix) in tree {
        let p = dir.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, fixture(fix)).unwrap();
    }
    dir
}

/// Where each rule's fixture must live to fall inside that rule's scope.
const CORPUS: &[(&str, &str, &str)] = &[
    ("wall-clock", "crates/cellsim/src/machine.rs", "wall_clock.rs"),
    ("unbounded-channel", "crates/mgps-runtime/src/pool.rs", "unbounded_channel.rs"),
    ("trace-clock", "crates/mgps-runtime/src/tracing.rs", "trace_clock.rs"),
    ("unordered-iter", "crates/analysis/src/checker.rs", "unordered_iter.rs"),
    ("rng-discipline", "src/sim.rs", "rng_discipline.rs"),
    ("lock-order", "crates/mgps-runtime/src/state.rs", "lock_order_cycle.rs"),
    ("event-coverage", "crates/mgps-runtime/src/events.rs", "event_coverage.rs"),
    ("panic-path", "src/serve.rs", "panic_path.rs"),
    ("request-sleep", "src/serve.rs", "request_sleep.rs"),
];

#[test]
fn every_rule_fixture_trips_exactly_its_rule() {
    for (rule, dest, fix) in CORPUS {
        let dir = plant(rule, &[(dest, fix)]);
        let report = audit(&dir);
        assert!(
            !report.findings.is_empty(),
            "{rule}: fixture {fix} planted at {dest} must trip"
        );
        for f in &report.findings {
            assert_eq!(
                f.rule, *rule,
                "{rule}: fixture {fix} tripped foreign rule {} at {}:{}",
                f.rule, f.file, f.line
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_clean_fixture_passes_every_rule() {
    let dir = plant("clean", &[("crates/mgps-runtime/src/clean.rs", "clean.rs")]);
    let report = audit(&dir);
    assert!(report.clean(), "clean fixture tripped: {:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_lock_cycle_fixture_names_both_locks() {
    let dir = plant("cycle", &[("crates/mgps-runtime/src/state.rs", "lock_order_cycle.rs")]);
    let report = audit(&dir);
    assert_eq!(report.lock_graph.sites.len(), 4, "four acquisition sites");
    assert_eq!(report.lock_graph.edges.len(), 2, "{:?}", report.lock_graph.edges);
    assert!(!report.lock_graph.cycles.is_empty(), "the cycle must be detected");
    let cycle = &report.lock_graph.cycles[0];
    for lock in ["alpha", "beta"] {
        assert!(cycle.iter().any(|n| n == lock), "cycle {cycle:?} must pass through {lock}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_migration_fixture_passes_the_engine_but_fails_the_old_grep() {
    let src = fixture("migration.rs");
    let dir = plant("migration", &[("crates/cellsim/src/lib.rs", "migration.rs")]);
    let report = audit(&dir);
    assert!(
        report.clean(),
        "token engine must ignore comment/string spellings: {:?}",
        report.findings
    );
    // The very same bytes would have failed the legacy substring scan on
    // three separate lines — the false-hit classes this PR retires.
    assert_eq!(rules::old_grep_hits("wall-clock", &src), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_json_report_keeps_its_schema() {
    // A tree with one finding per family: needle (wall-clock), analysis
    // (lock-order cycle), and coverage (orphan variant).
    let dir = plant(
        "schema",
        &[
            ("crates/cellsim/src/machine.rs", "wall_clock.rs"),
            ("crates/mgps-runtime/src/events.rs", "event_coverage.rs"),
            ("crates/mgps-runtime/src/state.rs", "lock_order_cycle.rs"),
        ],
    );
    let report = audit(&dir);
    let doc = minijson::parse(&report.to_value().to_json_pretty())
        .expect("report must serialize to valid JSON");

    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("mgps-lint/v1"));
    assert_eq!(doc.get("clean").and_then(Value::as_bool), Some(false));
    assert!(doc.get("files_scanned").and_then(Value::as_u64).is_some());

    let rule_rows = doc.get("rules").and_then(Value::as_array).expect("rules array");
    assert_eq!(rule_rows.len(), rules::CATALOG.len(), "one row per catalog rule");
    for row in rule_rows {
        for key in ["name", "roots", "why", "budget", "skips_tests", "findings", "exemptions", "markers"] {
            assert!(row.get(key).is_some(), "rule row missing `{key}`");
        }
    }

    let findings = doc.get("findings").and_then(Value::as_array).expect("findings array");
    assert!(!findings.is_empty());
    for f in findings {
        for key in ["rule", "file", "line", "col", "excerpt", "note", "why"] {
            assert!(f.get(key).is_some(), "finding missing `{key}`");
        }
    }

    let cov = doc.get("coverage").expect("coverage object");
    assert!(cov.get("columns").and_then(Value::as_array).is_some_and(|c| c.len() == 4));
    assert!(cov.get("rows").and_then(Value::as_array).is_some_and(|r| !r.is_empty()));
    assert!(cov.get("holes").and_then(Value::as_u64).is_some_and(|h| h >= 4));

    let locks = doc.get("locks").expect("locks object");
    assert!(locks.get("sites").and_then(Value::as_u64).is_some_and(|s| s == 4));
    assert!(locks.get("edges").and_then(Value::as_array).is_some_and(|e| e.len() == 2));
    assert!(locks.get("cycles").and_then(Value::as_array).is_some_and(|c| !c.is_empty()));

    assert!(doc.get("exemptions").and_then(Value::as_array).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
