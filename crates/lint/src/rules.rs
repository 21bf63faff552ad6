//! The rule catalog and the token-level rule implementations.
//!
//! Three rule families live here:
//!
//! * **Needle rules** — forbidden token paths (`Instant::now`,
//!   `channel::unbounded`, `thread_rng`, …) scoped to directory roots.
//!   These are the old substring grep's rules re-based on the lexer, so a
//!   spelling inside a comment or string literal no longer counts, and
//!   `tests/` + `benches/` trees are now inside the scope.
//! * **`unordered-iter`** — iteration over `HashMap`/`HashSet` bindings in
//!   digest/checker/obs-export paths. Iteration order of hashed
//!   collections is randomized per instance; any fold that feeds a
//!   serialized report or a replay digest must iterate a `BTreeMap` (or
//!   sort first). Lookups (`get`/`insert`/`entry`/…) are fine.
//! * **`panic-path`** — `unwrap`/`expect`/`panic!` in the fault-recovery
//!   ladder, the `RunLog` decoder and the serve-mode request path, where a
//!   panic turns graceful degradation (or a malformed log) into an outage.
//!   `#[cfg(test)]` regions are exempt.
//! * **`request-sleep`** — `thread::sleep` in the serve plane, where a
//!   sleep on the accept, worker-idle, `/events` or drain path puts a
//!   timer between a request and the event it waits for. The sleeps that
//!   are not waits carry a justified exemption each.

use crate::lexer::{find_seq, Tok, TokKind};
use crate::{Finding, SourceFile};

/// Static description of one rule (name, scope, rationale, budget).
pub struct RuleMeta {
    /// Rule slug, as used by `xtask-allow:` markers.
    pub name: &'static str,
    /// Repo-relative roots the rule scans (dirs or single files).
    pub roots: &'static [&'static str],
    /// One-line rationale, echoed in findings and the JSON report.
    pub why: &'static str,
    /// Maximum justified `xtask-allow` exemptions before the audit fails.
    pub exemption_budget: usize,
    /// Whether `#[cfg(test)]` regions are skipped.
    pub skips_tests: bool,
}

/// The full catalog, in report order.
pub const CATALOG: &[RuleMeta] = &[
    RuleMeta {
        name: "wall-clock",
        roots: &["crates/des", "crates/cellsim"],
        why: "simulation code must use virtual SimTime, never host clocks",
        exemption_budget: 0,
        skips_tests: false,
    },
    RuleMeta {
        name: "unbounded-channel",
        roots: &["crates/mgps-runtime"],
        why: "native runtime channels must carry an explicit capacity bound",
        exemption_budget: 0,
        skips_tests: false,
    },
    RuleMeta {
        name: "trace-clock",
        roots: &["crates/mgps-runtime/src/tracing.rs"],
        why: "the tracing hot path must read time only through the designated monotonic TraceClock",
        exemption_budget: 3,
        skips_tests: false,
    },
    RuleMeta {
        name: "unordered-iter",
        roots: &[
            "crates/analysis/src",
            "crates/obs/src",
            "crates/cellsim/src/event.rs",
            "crates/mgps-runtime/src/policy/drr.rs",
            "src/serve.rs",
        ],
        why: "HashMap/HashSet iteration order is randomized; digest, checker, and obs-export \
              paths must iterate ordered collections or replay digests diverge between runs",
        exemption_budget: 0,
        skips_tests: true,
    },
    RuleMeta {
        name: "rng-discipline",
        roots: &["crates", "src", "tests", "benches", "examples", "xtask"],
        why: "entropy-seeded RNGs (thread_rng/from_entropy) make runs irreproducible; \
              every RNG must be constructed from an explicit seed",
        exemption_budget: 0,
        skips_tests: false,
    },
    RuleMeta {
        name: "lock-order",
        roots: &["crates/mgps-runtime/src"],
        why: "a cycle in the lock-acquisition order graph is a potential deadlock the loom \
              models can only sample; the static graph must stay acyclic",
        exemption_budget: 0,
        skips_tests: true,
    },
    RuleMeta {
        name: "event-coverage",
        roots: &["crates/mgps-runtime/src/events.rs"],
        why: "every EventKind variant must be emitted by the sim machine and recorded at a \
              native site (none, for a sim-only Cell hardware cost), matched by a checker \
              arm, and consumed by an obs fold — a hole means an event class the audit \
              pipeline silently ignores",
        exemption_budget: 0,
        skips_tests: true,
    },
    RuleMeta {
        name: "panic-path",
        roots: &[
            "crates/mgps-runtime/src/faults.rs",
            "crates/mgps-runtime/src/native/adaptive.rs",
            "crates/cellsim/src/event.rs",
            "src/serve.rs",
        ],
        why: "unwrap/expect/panic! in the fault-recovery ladder, the RunLog decoder or a \
              serve request handler converts graceful degradation (or a malformed log) into \
              an outage",
        exemption_budget: 0,
        skips_tests: true,
    },
    RuleMeta {
        name: "request-sleep",
        roots: &["src/serve.rs"],
        why: "a thread::sleep in the serve plane makes a request wait for a timer instead of \
              the event it approximates; a sleep that is not a wait carries a named exemption",
        exemption_budget: 4,
        skips_tests: true,
    },
];

/// Look up a rule's metadata by name.
pub fn meta(name: &str) -> Option<&'static RuleMeta> {
    CATALOG.iter().find(|m| m.name == name)
}

/// Token needles for the needle-family rules (empty for the analyses that
/// have dedicated engines).
fn needles(rule: &str) -> &'static [&'static [&'static str]] {
    const CLOCKS: &[&[&str]] =
        &[&["std", "::", "time", "::", "Instant"], &["Instant", "::", "now"], &["SystemTime"]];
    const CHANNELS: &[&[&str]] =
        &[&["channel", "::", "unbounded"], &["mpsc", "::", "channel", "("], &["unbounded", "(", ")"]];
    const RNG: &[&[&str]] = &[&["thread_rng"], &["from_entropy"]];
    const PANICS: &[&[&str]] =
        &[&[".", "unwrap", "("], &[".", "expect", "("], &["panic", "!"], &["unreachable", "!"]];
    const SLEEPS: &[&[&str]] = &[&["thread", "::", "sleep"]];
    match rule {
        "wall-clock" | "trace-clock" => CLOCKS,
        "unbounded-channel" => CHANNELS,
        "rng-discipline" => RNG,
        "panic-path" => PANICS,
        "request-sleep" => SLEEPS,
        _ => &[],
    }
}

fn finding(rule: &RuleMeta, file: &SourceFile, tok: &Tok, note: &str) -> Finding {
    Finding {
        rule: rule.name.to_string(),
        file: file.rel.clone(),
        line: tok.line,
        col: tok.col,
        excerpt: file.line_text(tok.line),
        why: rule.why.to_string(),
        note: note.to_string(),
    }
}

/// Run one needle-family rule over a lexed file.
pub fn run_needle_rule(rule: &RuleMeta, file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for needle in needles(rule.name) {
        for i in find_seq(&file.lexed.toks, needle) {
            let tok = &file.lexed.toks[i];
            if rule.skips_tests && file.lexed.in_test_region(tok.line) {
                continue;
            }
            out.push(finding(rule, file, tok, &format!("forbidden `{}`", needle.join(""))));
        }
    }
    out
}

/// Iterator-like methods whose call on a hashed collection leaks order.
const ORDER_LEAKS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "into_keys", "into_values"];

/// Run the `unordered-iter` analysis over a lexed file.
///
/// Pass 1 collects names bound to hashed collections, from type
/// ascriptions (`name: HashMap<…>`, struct fields included) and
/// initializers (`let name = HashMap::new()` / `with_capacity` /
/// `from`). Pass 2 flags `name.iter()`-family calls and
/// `for … in [&[mut]] name {` loops over those names. The analysis is
/// per-file and name-based — good enough for an audit that runs on every
/// commit, and every flagged site is a place a `BTreeMap` is the honest
/// fix.
pub fn run_unordered_iter(rule: &RuleMeta, file: &SourceFile) -> Vec<Finding> {
    let toks = &file.lexed.toks;
    let mut hashed: Vec<String> = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for i in find_seq(toks, &[ty]) {
            if i == 0 {
                continue;
            }
            let prev = &toks[i - 1];
            // `use std::collections::HashMap` — a use path, not a binding.
            if prev.text == "::" {
                // `= HashMap::new()` style initializer: walk back past the
                // path head to the `=`.
                continue;
            }
            let binder = if prev.text == ":" || prev.text == "=" {
                toks.get(i.wrapping_sub(2))
            } else {
                None
            };
            if let Some(b) = binder {
                if b.kind == TokKind::Ident && !hashed.contains(&b.text) {
                    hashed.push(b.text.clone());
                }
            }
        }
        // Initializers where the binder sits before a path: `let m =
        // HashMap::new()` has `=` directly before `HashMap`, which the
        // ascription arm above already caught (prev == "="). Turbofish
        // collects (`collect::<HashMap<_, _>>()`) have `<` before the
        // type; bind them to the let target if the statement has one.
        for i in find_seq(toks, &["<", ty]) {
            let mut j = i;
            // Walk back to the start of the statement.
            while j > 0 && toks[j].text != ";" && toks[j].text != "{" && toks[j].text != "let" {
                j -= 1;
            }
            if toks[j].text == "let" {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.text == "mut") {
                    k += 1;
                }
                if let Some(b) = toks.get(k) {
                    if b.kind == TokKind::Ident && !hashed.contains(&b.text) {
                        hashed.push(b.text.clone());
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for name in &hashed {
        for leak in ORDER_LEAKS {
            for i in find_seq(toks, &[name, ".", leak, "("]) {
                let tok = &toks[i];
                if rule.skips_tests && file.lexed.in_test_region(tok.line) {
                    continue;
                }
                out.push(finding(
                    rule,
                    file,
                    tok,
                    &format!("`{name}` is a hashed collection; `.{leak}()` leaks its order"),
                ));
            }
        }
        for i in find_seq(toks, &["in", name]) {
            if toks.get(i + 2).is_some_and(|t| t.text == "{") {
                let tok = &toks[i + 1];
                if rule.skips_tests && file.lexed.in_test_region(tok.line) {
                    continue;
                }
                out.push(finding(
                    rule,
                    file,
                    tok,
                    &format!("`{name}` is a hashed collection; `for … in {name}` leaks its order"),
                ));
            }
        }
        for pat in [["in", "&", name].as_slice(), ["in", "&", "mut", name].as_slice()] {
            for i in find_seq(toks, pat) {
                let at = i + pat.len() - 1;
                if toks.get(at + 1).is_some_and(|t| t.text == "{") {
                    let tok = &toks[at];
                    if rule.skips_tests && file.lexed.in_test_region(tok.line) {
                        continue;
                    }
                    out.push(finding(
                        rule,
                        file,
                        tok,
                        &format!("`{name}` is a hashed collection; `for … in &{name}` leaks its order"),
                    ));
                }
            }
        }
    }
    out.sort_by_key(|f| (f.line, f.col));
    out.dedup_by_key(|f| (f.line, f.col));
    out
}

/// Whether `lexed` contains any hit for `rule` under the *old* substring
/// semantics (plain line `contains`, comments and strings included).
/// Kept for the migration-proof tests: fixtures that pass the token
/// engine but would have failed the grep.
pub fn old_grep_hits(rule: &str, src: &str) -> usize {
    let legacy: &[&str] = match rule {
        "wall-clock" | "trace-clock" => {
            &["std::time::Instant", "Instant::now", "SystemTime", "time::SystemTime"]
        }
        "unbounded-channel" => &["channel::unbounded", "mpsc::channel(", "unbounded()"],
        _ => &[],
    };
    src.lines().filter(|l| legacy.iter().any(|n| l.contains(n))).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.into(), lines: src.lines().map(String::from).collect(), lexed: lex(src) }
    }

    #[test]
    fn needle_rule_ignores_comments_and_strings() {
        let src = "/// call Instant::now() here\nlet s = \"Instant::now\";\nlet t = Instant::now();\n";
        let f = file("a.rs", src);
        let hits = run_needle_rule(meta("wall-clock").unwrap(), &f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
        // The same source would have produced three hits under the grep.
        assert_eq!(old_grep_hits("wall-clock", src), 3);
    }

    #[test]
    fn unordered_iter_flags_iteration_not_lookup() {
        let src = "let mut m: HashMap<u64, u64> = HashMap::new();\n\
                   m.insert(1, 2);\n\
                   let v = m.get(&1);\n\
                   for (k, v) in &m {\n    out.push(k);\n}\n\
                   let ks: Vec<_> = m.keys().collect();\n";
        let f = file("b.rs", src);
        let hits = run_unordered_iter(meta("unordered-iter").unwrap(), &f);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 4);
        assert_eq!(hits[1].line, 7);
    }

    #[test]
    fn unordered_iter_tracks_turbofish_collect() {
        let src = "let grouped = rows.iter().collect::<HashMap<u64, u64>>();\n\
                   for r in grouped.values() {\n    touch(r);\n}\n";
        let f = file("c.rs", src);
        let hits = run_unordered_iter(meta("unordered-iter").unwrap(), &f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn unordered_iter_allows_btreemap() {
        let src = "let mut m: BTreeMap<u64, u64> = BTreeMap::new();\nfor (k, v) in &m {\n    out.push(k);\n}\n";
        let f = file("d.rs", src);
        assert!(run_unordered_iter(meta("unordered-iter").unwrap(), &f).is_empty());
    }

    #[test]
    fn panic_path_skips_test_regions() {
        let src = "fn prod(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        let f = file("e.rs", src);
        let hits = run_needle_rule(meta("panic-path").unwrap(), &f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn request_sleep_flags_sleeps_but_not_timed_waits() {
        let src = "fn idle() { std::thread::sleep(POLL); }\n\
                   fn wait(cv: &Condvar, g: Guard) { let _ = cv.wait_timeout(g, POLL); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(POLL); }\n}\n";
        let f = file("g.rs", src);
        let hits = run_needle_rule(meta("request-sleep").unwrap(), &f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn unwrap_or_default_is_not_unwrap() {
        let f = file("f.rs", "let v = m.get(&1).copied().unwrap_or_default();\n");
        assert!(run_needle_rule(meta("panic-path").unwrap(), &f).is_empty());
    }
}
