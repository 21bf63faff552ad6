//! mgps-lint: in-house static analysis for the multigrain workspace.
//!
//! The workspace's experimental claims rest on determinism: replay
//! digests, byte-identical unarmed chaos runs, and a 16-rule runtime
//! checker all assume nothing in the tree leaks nondeterminism. This
//! crate is the static half of that guarantee — a small Rust lexer
//! ([`lexer`]) plus nine rules that *prove* the discipline rather than
//! sampling it:
//!
//! 1. `wall-clock` — no host clocks in simulation code.
//! 2. `unbounded-channel` — every native channel carries a bound.
//! 3. `trace-clock` — one designated clock in the tracing hot path.
//! 4. `unordered-iter` — no hashed-collection iteration in digest,
//!    checker, or obs-export paths.
//! 5. `rng-discipline` — no entropy-seeded RNG constructors anywhere.
//! 6. `lock-order` — the runtime's lock-acquisition graph is acyclic.
//! 7. `event-coverage` — every `EventKind` variant of the event table is
//!    alive on all four pipeline surfaces (sim emit, native recording
//!    site, checker arm, obs fold).
//! 8. `panic-path` — no `unwrap`/`expect`/`panic!` in the fault-recovery
//!    ladder, the `RunLog` decoder or serve request handlers.
//! 9. `request-sleep` — no `thread::sleep` in the serve plane beyond the
//!    named survivors; a request waits for an event, never for a timer.
//!
//! A line can opt out with a trailing
//! `// xtask-allow: <rule> — <justification>` marker. The justification
//! is mandatory, every exemption is listed in the report, and each rule
//! carries an **exemption budget**: when the marker count for a rule
//! rises past its budget the audit fails, so exemptions cannot creep in
//! without a budget change review.
//!
//! Driver: `cargo xtask lint [--json]`.

#![warn(missing_docs)]

pub mod coverage;
pub mod lexer;
pub mod locks;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use minijson::Value;

use coverage::CoverageMatrix;
use lexer::Lexed;
use locks::LockGraph;
use rules::CATALOG;

/// One loaded-and-lexed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path (forward slashes).
    pub rel: String,
    /// Source lines (for excerpts).
    pub lines: Vec<String>,
    /// The lexed token stream.
    pub lexed: Lexed,
}

impl SourceFile {
    /// Trimmed text of 1-based `line` (empty if out of range).
    pub fn line_text(&self, line: u32) -> String {
        self.lines.get(line as usize - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    }
}

/// One FORBIDDEN finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line (0 for file-level findings like coverage holes).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Trimmed source line.
    pub excerpt: String,
    /// The rule's rationale.
    pub why: String,
    /// What specifically matched.
    pub note: String,
}

/// One justified `xtask-allow` exemption.
#[derive(Debug, Clone)]
pub struct Exemption {
    /// The exempted rule.
    pub rule: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the marker.
    pub line: u32,
    /// The marker's justification text.
    pub justification: String,
}

/// A parsed `xtask-allow` marker.
#[derive(Debug, Clone)]
struct Marker {
    rule: String,
    line: u32,
    justification: Option<String>,
}

/// The audit result: findings, exemptions, coverage matrix, lock graph.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// FORBIDDEN findings (the audit fails if non-empty).
    pub findings: Vec<Finding>,
    /// Justified exemptions (informational, bounded by budgets).
    pub exemptions: Vec<Exemption>,
    /// Marker count per rule (budget accounting).
    pub marker_counts: BTreeMap<String, usize>,
    /// The event-vocabulary coverage matrix.
    pub coverage: CoverageMatrix,
    /// The runtime's lock-order graph.
    pub lock_graph: LockGraph,
    /// Distinct files lexed.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree passed every rule.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable report.
    pub fn to_value(&self) -> Value {
        let rules = Value::Array(
            CATALOG
                .iter()
                .map(|m| {
                    let findings = self.findings.iter().filter(|f| f.rule == m.name).count();
                    let exemptions = self.exemptions.iter().filter(|e| e.rule == m.name).count();
                    let markers = self.marker_counts.get(m.name).copied().unwrap_or(0);
                    Value::object(vec![
                        ("name", m.name.into()),
                        ("roots", Value::array(m.roots.iter().map(|r| Value::from(*r)))),
                        ("why", m.why.into()),
                        ("budget", m.exemption_budget.into()),
                        ("skips_tests", m.skips_tests.into()),
                        ("findings", findings.into()),
                        ("exemptions", exemptions.into()),
                        ("markers", markers.into()),
                    ])
                })
                .collect(),
        );
        let findings = Value::Array(
            self.findings
                .iter()
                .map(|f| {
                    Value::object(vec![
                        ("rule", f.rule.as_str().into()),
                        ("file", f.file.as_str().into()),
                        ("line", f.line.into()),
                        ("col", f.col.into()),
                        ("excerpt", f.excerpt.as_str().into()),
                        ("note", f.note.as_str().into()),
                        ("why", f.why.as_str().into()),
                    ])
                })
                .collect(),
        );
        let exemptions = Value::Array(
            self.exemptions
                .iter()
                .map(|e| {
                    Value::object(vec![
                        ("rule", e.rule.as_str().into()),
                        ("file", e.file.as_str().into()),
                        ("line", e.line.into()),
                        ("justification", e.justification.as_str().into()),
                    ])
                })
                .collect(),
        );
        let coverage = Value::object(vec![
            ("columns", Value::array(coverage::COLUMNS.iter().map(|c| Value::from(*c)))),
            (
                "rows",
                Value::Array(
                    self.coverage
                        .rows
                        .iter()
                        .map(|r| {
                            Value::object(vec![
                                ("variant", r.variant.as_str().into()),
                                ("sim", r.counts[0].into()),
                                ("native", r.counts[1].into()),
                                ("checker", r.counts[2].into()),
                                ("obs", r.counts[3].into()),
                                ("sim_only", r.sim_only.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("holes", self.coverage.hole_count().into()),
        ]);
        let locks = Value::object(vec![
            ("sites", self.lock_graph.sites.len().into()),
            (
                "edges",
                Value::Array(
                    self.lock_graph
                        .edges
                        .iter()
                        .map(|e| {
                            Value::object(vec![
                                ("held", e.held.as_str().into()),
                                ("acquired", e.acquired.as_str().into()),
                                ("file", e.site.file.as_str().into()),
                                ("line", e.site.line.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cycles",
                Value::Array(
                    self.lock_graph
                        .cycles
                        .iter()
                        .map(|c| Value::array(c.iter().map(|n| Value::from(n.as_str()))))
                        .collect(),
                ),
            ),
        ]);
        Value::object(vec![
            ("schema", "mgps-lint/v1".into()),
            ("clean", self.clean().into()),
            ("files_scanned", self.files_scanned.into()),
            ("rules", rules),
            ("findings", findings),
            ("exemptions", exemptions),
            ("coverage", coverage),
            ("locks", locks),
        ])
    }

    /// Human-readable rendering (what `cargo xtask lint` prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let loc = if f.line > 0 { format!("{}:{}", f.file, f.line) } else { f.file.clone() };
            out.push_str(&format!("FORBIDDEN [{}] {loc}\n", f.rule));
            if !f.excerpt.is_empty() {
                out.push_str(&format!("  {}\n", f.excerpt));
            }
            if !f.note.is_empty() {
                out.push_str(&format!("  note: {}\n", f.note));
            }
            out.push_str(&format!("  rule: {}\n", f.why));
        }
        for e in &self.exemptions {
            out.push_str(&format!(
                "ALLOWED [{}] {}:{} — {}\n",
                e.rule, e.file, e.line, e.justification
            ));
        }
        out.push_str("event-vocabulary coverage (non-test references per surface):\n");
        out.push_str(&coverage::render(&self.coverage));
        out.push_str(&format!(
            "lock-order: {} acquisition site(s), {} nesting edge(s), {} cycle(s)\n",
            self.lock_graph.sites.len(),
            self.lock_graph.edges.len(),
            self.lock_graph.cycles.len()
        ));
        if self.clean() {
            out.push_str(&format!(
                "mgps-lint: clean ({} rules, {} files, {} exemption(s))\n",
                CATALOG.len(),
                self.files_scanned,
                self.exemptions.len()
            ));
        } else {
            out.push_str(&format!("mgps-lint: {} violation(s)\n", self.findings.len()));
        }
        out
    }
}

/// Directory names the walker never descends into: vendored stand-ins,
/// build output, VCS metadata, and the lint fixture corpus (fixtures are
/// test vectors, most of which *must* trip a rule).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", "node_modules"];

fn walk(root: &Path, out: &mut Vec<PathBuf>) {
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Load-and-lex cache keyed by repo-relative path.
struct FileCache {
    root: PathBuf,
    files: BTreeMap<String, SourceFile>,
}

impl FileCache {
    fn new(root: &Path) -> FileCache {
        FileCache { root: root.to_path_buf(), files: BTreeMap::new() }
    }

    /// Repo-relative paths of every `.rs` file under `rel_root`.
    fn files_under(&mut self, rel_root: &str) -> Vec<String> {
        let mut paths = Vec::new();
        walk(&self.root.join(rel_root), &mut paths);
        paths.sort();
        let mut rels = Vec::new();
        for p in paths {
            let rel = p
                .strip_prefix(&self.root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            if self.load(&rel) {
                rels.push(rel);
            }
        }
        rels
    }

    fn load(&mut self, rel: &str) -> bool {
        if self.files.contains_key(rel) {
            return true;
        }
        let Ok(src) = std::fs::read_to_string(self.root.join(rel)) else {
            return false;
        };
        let file = SourceFile {
            rel: rel.to_string(),
            lines: src.lines().map(String::from).collect(),
            lexed: lexer::lex(&src),
        };
        self.files.insert(rel.to_string(), file);
        true
    }

    fn get(&self, rel: &str) -> Option<&SourceFile> {
        self.files.get(rel)
    }
}

/// Parse every `xtask-allow` marker in a file's comments.
fn markers_of(file: &SourceFile) -> Vec<Marker> {
    let mut out = Vec::new();
    for c in &file.lexed.comments {
        // A marker is the *whole* comment (`code; // xtask-allow: rule — why`).
        // Prose that merely mentions the syntax — doc comments, this line —
        // does not start with it and is ignored.
        let body = c.text.trim_start();
        if !body.starts_with("xtask-allow:") {
            continue;
        }
        let rest = &body["xtask-allow:".len()..];
        // Split `<rules> — <justification>`; accept an em dash or `--`.
        let (rules_part, justification) = if let Some(d) = rest.find('—') {
            (&rest[..d], Some(rest[d + '—'.len_utf8()..].trim().to_string()))
        } else if let Some(d) = rest.find("--") {
            (&rest[..d], Some(rest[d + 2..].trim().to_string()))
        } else {
            (rest, None)
        };
        let justification = justification.filter(|j| !j.is_empty());
        for rule in rules_part.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            out.push(Marker {
                rule: rule.to_string(),
                line: c.line,
                justification: justification.clone(),
            });
        }
    }
    out
}

/// Run the full audit over the workspace at `root`.
pub fn audit(root: &Path) -> Report {
    let mut cache = FileCache::new(root);
    let mut report = Report::default();
    let mut raw: Vec<Finding> = Vec::new();
    // Per rule: repo-relative files in scope.
    let mut scope: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
    for m in CATALOG {
        let mut files = Vec::new();
        for r in m.roots {
            for rel in cache.files_under(r) {
                if !files.contains(&rel) {
                    files.push(rel);
                }
            }
        }
        scope.insert(m.name, files);
    }

    // Needle-family rules + unordered-iter.
    for m in CATALOG {
        match m.name {
            "wall-clock" | "unbounded-channel" | "trace-clock" | "rng-discipline"
            | "panic-path" | "request-sleep" => {
                for rel in &scope[m.name] {
                    if let Some(f) = cache.get(rel) {
                        raw.extend(rules::run_needle_rule(m, f));
                    }
                }
            }
            "unordered-iter" => {
                for rel in &scope[m.name] {
                    if let Some(f) = cache.get(rel) {
                        raw.extend(rules::run_unordered_iter(m, f));
                    }
                }
            }
            _ => {}
        }
    }

    // Lock-order analysis.
    let lock_meta = rules::meta("lock-order").expect("catalog has lock-order");
    let mut graph = LockGraph::default();
    for rel in &scope["lock-order"] {
        if let Some(f) = cache.get(rel) {
            locks::scan_file(f, lock_meta.skips_tests, &mut graph);
        }
    }
    raw.extend(locks::cycle_findings(&mut graph, lock_meta.why));
    report.lock_graph = graph;

    // Event-vocabulary coverage.
    let cov_meta = rules::meta("event-coverage").expect("catalog has event-coverage");
    let event_rel = "crates/mgps-runtime/src/events.rs";
    cache.load(event_rel);
    let variants =
        cache.get(event_rel).map(coverage::parse_variants).unwrap_or_default();
    let surface_files: [Vec<String>; 4] = [
        // sim emit: the machine, plus the two emitters that serve both
        // engines — the health detector (`Health`) and the serve plane's
        // job queue (job events; there is no simulated job plane).
        {
            let mut v = cache.files_under("crates/cellsim/src");
            v.push("crates/obs/src/live.rs".into());
            v.push("src/serve.rs".into());
            v
        },
        // native emit: the recording sites themselves — the runtime's
        // engine, the serve plane's job queue, and the health detector
        // (serve's `merge_health_events` embeds its `Health` records).
        {
            let mut v = cache.files_under("crates/mgps-runtime/src/native");
            v.push("src/serve.rs".into());
            v.push("crates/obs/src/live.rs".into());
            v
        },
        // checker arms.
        cache.files_under("crates/analysis/src"),
        // obs folds/exports (everything but the ring merge, which is
        // vocabulary-blind).
        cache
            .files_under("crates/obs/src")
            .into_iter()
            .filter(|r| r != "crates/obs/src/native.rs")
            .collect(),
    ];
    for s in &surface_files {
        for rel in s {
            cache.load(rel);
        }
    }
    let surfaces: [Vec<&SourceFile>; 4] = [
        surface_files[0].iter().filter_map(|r| cache.get(r)).collect(),
        surface_files[1].iter().filter_map(|r| cache.get(r)).collect(),
        surface_files[2].iter().filter_map(|r| cache.get(r)).collect(),
        surface_files[3].iter().filter_map(|r| cache.get(r)).collect(),
    ];
    let (matrix, cov_findings) =
        coverage::analyze(&variants, &surfaces, &coverage::SIM_ONLY, cov_meta.why, event_rel);
    raw.extend(cov_findings);
    report.coverage = matrix;

    // Allow-marker processing: suppress justified findings, flag
    // unjustified or unknown markers, and enforce budgets.
    for m in CATALOG {
        let mut markers_seen = 0usize;
        for rel in &scope[m.name] {
            let Some(f) = cache.get(rel) else { continue };
            for mk in markers_of(f) {
                if mk.rule != m.name {
                    continue;
                }
                match &mk.justification {
                    Some(j) => {
                        markers_seen += 1;
                        // Trailing markers exempt their own line; a marker
                        // on a comment line of its own exempts the line
                        // below it.
                        let before = raw.len();
                        raw.retain(|fd| {
                            !(fd.rule == m.name
                                && fd.file == *rel
                                && (fd.line == mk.line || fd.line == mk.line + 1))
                        });
                        let suppressed = before - raw.len();
                        // A justified marker is an exemption whether or not
                        // a finding fired this run: it is a standing claim
                        // that must stay visible and within budget.
                        let _ = suppressed;
                        report.exemptions.push(Exemption {
                            rule: m.name.to_string(),
                            file: rel.clone(),
                            line: mk.line,
                            justification: j.clone(),
                        });
                    }
                    None => raw.push(Finding {
                        rule: m.name.to_string(),
                        file: rel.clone(),
                        line: mk.line,
                        col: 1,
                        excerpt: f.line_text(mk.line),
                        why: m.why.to_string(),
                        note: "xtask-allow marker lacks a justification (write \
                               `// xtask-allow: <rule> — <why>`)"
                            .into(),
                    }),
                }
            }
        }
        report.marker_counts.insert(m.name.to_string(), markers_seen);
        if markers_seen > m.exemption_budget {
            raw.push(Finding {
                rule: m.name.to_string(),
                file: String::new(),
                line: 0,
                col: 0,
                excerpt: String::new(),
                why: m.why.to_string(),
                note: format!(
                    "exemption budget exceeded: {markers_seen} xtask-allow marker(s) against a \
                     budget of {} — remove exemptions or raise the budget in the rule catalog",
                    m.exemption_budget
                ),
            });
        }
    }
    // Markers naming a rule that does not exist are typos that would
    // silently exempt nothing.
    for (rel, f) in &cache.files {
        for mk in markers_of(f) {
            if rules::meta(&mk.rule).is_none() {
                raw.push(Finding {
                    rule: "allow-marker".into(),
                    file: rel.clone(),
                    line: mk.line,
                    col: 1,
                    excerpt: f.line_text(mk.line),
                    why: "xtask-allow markers must name a rule from the catalog".into(),
                    note: format!("unknown rule `{}`", mk.rule),
                });
            }
        }
    }

    let order = |rule: &str| CATALOG.iter().position(|m| m.name == rule).unwrap_or(usize::MAX);
    raw.sort_by(|a, b| {
        (order(&a.rule), &a.file, a.line, a.col).cmp(&(order(&b.rule), &b.file, b.line, b.col))
    });
    report.findings = raw;
    report.exemptions.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.files_scanned = cache.files.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(tree: &[(&str, &str)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mgps-lint-{}-{:p}",
            std::process::id(),
            tree.as_ptr()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, src) in tree {
            let p = dir.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, src).unwrap();
        }
        dir
    }

    #[test]
    fn clean_synthetic_tree_only_reports_coverage_holes_it_has() {
        let dir = synth(&[("crates/des/src/lib.rs", "pub fn f() {}\n")]);
        let report = audit(&dir);
        // No event.rs → no variants → no coverage holes; no findings.
        std::fs::remove_dir_all(&dir).ok();
        assert!(report.clean(), "{:?}", report.findings);
    }

    #[test]
    fn forbidden_clock_is_found_and_marker_without_justification_fails() {
        let dir = synth(&[(
            "crates/des/src/bad.rs",
            "fn f() { let t = Instant::now(); }\nfn g() { let t = Instant::now(); } // xtask-allow: wall-clock\n",
        )]);
        let report = audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        // Line 1: plain finding. Line 2: finding survives (no
        // justification) plus the marker-hygiene finding.
        let wall: Vec<_> = report.findings.iter().filter(|f| f.rule == "wall-clock").collect();
        assert_eq!(wall.len(), 3, "{wall:?}");
        assert!(report.exemptions.is_empty());
    }

    #[test]
    fn justified_marker_exempts_within_budget() {
        let dir = synth(&[(
            "crates/mgps-runtime/src/tracing.rs",
            "use std::time::Instant; // xtask-allow: trace-clock — designated clock reader\n",
        )]);
        let report = audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.exemptions.len(), 1);
        assert_eq!(report.exemptions[0].justification, "designated clock reader");
    }

    #[test]
    fn budget_overflow_fails_even_with_justifications() {
        let src: String = (0..4)
            .map(|i| {
                format!("fn f{i}() {{ let t = Instant::now(); }} // xtask-allow: trace-clock — reason {i}\n")
            })
            .collect();
        let dir = synth(&[("crates/mgps-runtime/src/tracing.rs", src.as_str())]);
        let report = audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert!(!report.clean());
        assert!(report.findings.iter().any(|f| f.note.contains("exemption budget exceeded")));
        assert_eq!(report.exemptions.len(), 4, "exemptions stay listed");
    }

    #[test]
    fn unknown_rule_marker_is_flagged() {
        let dir = synth(&[(
            "crates/des/src/lib.rs",
            "fn f() {} // xtask-allow: no-such-rule — because\n",
        )]);
        let report = audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "allow-marker");
    }

    #[test]
    fn report_json_has_the_stable_schema() {
        let dir = synth(&[("crates/des/src/lib.rs", "pub fn f() {}\n")]);
        let report = audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let v = report.to_value();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("mgps-lint/v1"));
        assert_eq!(v.get("clean").and_then(|c| c.as_bool()), Some(true));
        for key in ["files_scanned", "rules", "findings", "exemptions", "coverage", "locks"] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        let rules = v.get("rules").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rules.len(), rules::CATALOG.len());
        // The JSON must round-trip through the strict parser.
        let text = v.to_json_pretty();
        assert_eq!(minijson::parse(&text).unwrap(), v);

        // A violating tree's report is unclean and names the rule.
        let dir = synth(&[("crates/des/src/bad.rs", "fn f() { let t = Instant::now(); }\n")]);
        let v = audit(&dir).to_value();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(v.get("clean").and_then(|c| c.as_bool()), Some(false));
        let findings = v.get("findings").and_then(|f| f.as_array()).unwrap();
        assert_eq!(findings[0].get("rule").and_then(|r| r.as_str()), Some("wall-clock"));
    }
}
