//! `cargo xtask lint` — thin driver over the `mgps-lint` static analysis
//! engine (see `crates/lint`) — and `cargo xtask ledger`, the writer of
//! the root `BENCH_<n>.json` perf ledgers (see [`ledger`]).
//!
//! The engine lexes the workspace (comments and string literals can no
//! longer produce hits, `tests/` and `benches/` trees are covered) and
//! runs the nine-rule catalog: wall-clock, unbounded-channel,
//! trace-clock, unordered-iter, rng-discipline, lock-order,
//! event-coverage, panic-path, and request-sleep. Exemptions require a justified
//! `// xtask-allow: <rule> — <why>` marker and are bounded per rule by an
//! exemption budget; CI fails when either discipline slips.
//!
//! Usage:
//!
//! ```text
//! cargo xtask lint              # human-readable report
//! cargo xtask lint --json       # machine-readable report on stdout
//! cargo xtask lint --json --out lint-report.json
//! cargo xtask ledger            # trajectory of the committed ledgers
//! cargo xtask ledger --pr N --parent <set.json>… --change <set.json>…
//! ```

mod ledger;

use std::path::PathBuf;
use std::process::ExitCode;

/// The tree to audit. xtask lives at `<repo>/xtask`, so the root is its
/// manifest dir's parent. Cargo sets `CARGO_MANIFEST_DIR` for `cargo run`,
/// and that run-time value wins: a copy of the repo whose `xtask` binary
/// cargo still counts as fresh carries the compile-time path of the tree
/// it was built in, and would audit that tree instead.
fn repo_root() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest_dir.parent().expect("xtask sits inside the repo").to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = format!("usage: cargo xtask lint [--json] [--out <file>]\n{}", ledger::USAGE);
    match args.first().map(String::as_str) {
        Some("lint") => {}
        Some("ledger") => {
            return match ledger::run(&repo_root(), &args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(why) => {
                    eprintln!("xtask ledger: {why}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
    }
    let json = args.iter().any(|a| a == "--json");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let root = repo_root();
    let report = mgps_lint::audit(&root);
    let rendered = if json {
        report.to_value().to_json_pretty() + "\n"
    } else {
        format!("mgps-lint: auditing {}\n{}", root.display(), report.render_text())
    };
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("xtask lint: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("xtask lint: report written to {}", path.display());
            if !report.clean() {
                eprintln!("xtask lint: {} violation(s)", report.findings.len());
            }
        }
        None => print!("{rendered}"),
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        if !json && out_path.is_none() {
            eprintln!("xtask lint: {} violation(s)", report.findings.len());
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_passes_lint() {
        let report = mgps_lint::audit(&repo_root());
        let text = report.render_text();
        assert!(report.clean(), "repo must pass its own audit:\n{text}");
        assert!(text.contains("event-vocabulary coverage"), "{text}");
        assert!(text.contains("mgps-lint: clean"), "{text}");
    }

    #[test]
    fn repo_coverage_matrix_has_no_holes() {
        let report = mgps_lint::audit(&repo_root());
        assert_eq!(report.coverage.hole_count(), 0, "\n{}", report.render_text());
        assert!(!report.coverage.rows.is_empty(), "EventKind variants must parse");
    }

    #[test]
    fn forbidden_pattern_is_detected_in_a_synthetic_tree() {
        let dir = std::env::temp_dir().join(format!("xtask-lint-{}", std::process::id()));
        let sim = dir.join("crates/des/src");
        std::fs::create_dir_all(&sim).unwrap();
        std::fs::write(sim.join("bad.rs"), "fn f() { let t = Instant::now(); }\n").unwrap();
        let report = mgps_lint::audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "wall-clock");
    }
}
