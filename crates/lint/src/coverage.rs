//! Event-vocabulary coverage: every `EventKind` variant must be alive on
//! all four surfaces of the observability pipeline.
//!
//! The vocabulary is parsed from the event table in
//! `crates/mgps-runtime/src/events.rs`, whose input is written as
//! `pub enum EventKind { … }` precisely so this token parser reads it like
//! any enum. For each variant the analysis then requires a non-test
//! `EventKind::<Variant>` reference in each surface:
//!
//! | column   | surface                                              |
//! |----------|------------------------------------------------------|
//! | sim      | `crates/cellsim/src`, plus the two emitters shared   |
//! |          | by both engines: `crates/obs/src/live.rs` (the       |
//! |          | health detector emits `Health`) and `src/serve.rs`   |
//! |          | (job events — there is no simulated job plane)       |
//! | native   | the recording sites: `crates/mgps-runtime/src/native`|
//! |          | (the engine's rings), `src/serve.rs` (the job plane) |
//! |          | and `crates/obs/src/live.rs` (`Health`)              |
//! | checker  | `crates/analysis/src`                                |
//! | obs      | `crates/obs/src` minus `native.rs` (folds/exports)   |
//!
//! A hole means an event class that can be declared but is never recorded
//! by an engine, or is recorded but silently bypasses part of the pipeline
//! — exactly how a new variant added for a future roadmap item would
//! otherwise dodge the checker.
//!
//! The [`SIM_ONLY`] variants name Cell hardware costs that only the
//! simulator models. Their rule is the other way round in the native
//! column: it must be *empty*, because a native reference could only
//! fabricate one. Their sim, checker and obs cells are required like any
//! other variant's.

use crate::lexer::find_seq;
use crate::{Finding, SourceFile};

/// The four pipeline surfaces, in matrix column order.
pub const COLUMNS: [&str; 4] = ["sim", "native", "checker", "obs"];

/// Index of the native column in [`COLUMNS`].
const NATIVE: usize = 1;

/// Variants no native site may record: an MFC transfer and its
/// completion, a local-store allocation and its release, and a code-image
/// reload are costs of the Cell hardware, which the simulator models and a
/// host thread does not have.
pub const SIM_ONLY: [&str; 5] = ["Dma", "DmaComplete", "LsAlloc", "LsFree", "CodeReload"];

/// Coverage of one variant across the four columns.
#[derive(Debug, Clone)]
pub struct VariantCoverage {
    /// Variant name.
    pub variant: String,
    /// Per-column hit counts, indexed like [`COLUMNS`].
    pub counts: [usize; 4],
    /// The variant is in [`SIM_ONLY`]: its native cell must be empty.
    pub sim_only: bool,
}

impl VariantCoverage {
    /// Required columns with zero references (a sim-only variant's native
    /// column is not required).
    pub fn holes(&self) -> Vec<&'static str> {
        COLUMNS
            .iter()
            .zip(self.counts.iter())
            .enumerate()
            .filter(|(i, (_, c))| **c == 0 && !(self.sim_only && *i == NATIVE))
            .map(|(_, (n, _))| *n)
            .collect()
    }
}

/// The full coverage matrix.
#[derive(Debug, Clone, Default)]
pub struct CoverageMatrix {
    /// One row per variant, in declaration order.
    pub rows: Vec<VariantCoverage>,
}

impl CoverageMatrix {
    /// Total number of empty cells.
    pub fn hole_count(&self) -> usize {
        self.rows.iter().map(|r| r.holes().len()).sum()
    }
}

/// Parse the variant names of `pub enum EventKind { … }` from the lexed
/// event table, in declaration order. Table decorations after a variant
/// name (`= "tag" @ rank`) and on fields (`= 0`) are skipped like any other
/// non-name token.
pub fn parse_variants(event_file: &SourceFile) -> Vec<String> {
    let toks = &event_file.lexed.toks;
    let Some(start) = find_seq(toks, &["enum", "EventKind", "{"]).first().copied() else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut i = start + 2; // at '{'
    let mut expect_variant = false;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
                // Entering a variant's field block: the next variant comes
                // after it closes.
                if depth == 2 {
                    expect_variant = false;
                }
            }
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                if depth == 1 {
                    expect_variant = false; // wait for the comma
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" if depth == 1 => {
                // Skip attribute groups between variants.
                if toks.get(i + 1).is_some_and(|t| t.text == "[") {
                    let mut d = 0usize;
                    i += 1;
                    while i < toks.len() {
                        match toks[i].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            text => {
                if depth == 1 && expect_variant && !text.is_empty() {
                    if text.chars().next().is_some_and(char::is_uppercase) {
                        variants.push(text.to_string());
                    }
                    expect_variant = false;
                }
            }
        }
        i += 1;
    }
    variants
}

/// Count non-test `EventKind::<variant>` references in `files`.
fn count_refs(variant: &str, files: &[&SourceFile]) -> usize {
    let mut n = 0;
    for f in files {
        for i in find_seq(&f.lexed.toks, &["EventKind", "::", variant]) {
            if !f.lexed.in_test_region(f.lexed.toks[i].line) {
                n += 1;
            }
        }
    }
    n
}

/// Build the coverage matrix and the findings for its holes, and for any
/// native reference to a `sim_only` variant.
///
/// `surfaces` holds the four file sets in [`COLUMNS`] order.
pub fn analyze(
    variants: &[String],
    surfaces: &[Vec<&SourceFile>; 4],
    sim_only: &[&str],
    why: &str,
    event_file_rel: &str,
) -> (CoverageMatrix, Vec<Finding>) {
    let mut matrix = CoverageMatrix::default();
    let mut findings = Vec::new();
    for v in variants {
        let counts = [
            count_refs(v, &surfaces[0]),
            count_refs(v, &surfaces[1]),
            count_refs(v, &surfaces[2]),
            count_refs(v, &surfaces[3]),
        ];
        let row = VariantCoverage {
            variant: v.clone(),
            counts,
            sim_only: sim_only.contains(&v.as_str()),
        };
        let holes = row.holes();
        let mut notes = Vec::new();
        if !holes.is_empty() {
            notes.push(format!(
                "EventKind::{v} has no non-test reference on surface(s): {}",
                holes.join(", ")
            ));
        }
        if row.sim_only && counts[NATIVE] > 0 {
            notes.push(format!(
                "EventKind::{v} is sim-only but has {} native reference(s)",
                counts[NATIVE]
            ));
        }
        findings.extend(notes.into_iter().map(|note| Finding {
            rule: "event-coverage".into(),
            file: event_file_rel.to_string(),
            line: 0,
            col: 0,
            excerpt: String::new(),
            why: why.to_string(),
            note,
        }));
        matrix.rows.push(row);
    }
    (matrix, findings)
}

/// Render the matrix as an aligned text table.
pub fn render(matrix: &CoverageMatrix) -> String {
    let name_w = matrix.rows.iter().map(|r| r.variant.len()).max().unwrap_or(7).max(7);
    let mut out = String::new();
    out.push_str(&format!(
        "  {:name_w$}  {:>5}  {:>6}  {:>7}  {:>5}\n",
        "variant", "sim", "native", "checker", "obs"
    ));
    for r in &matrix.rows {
        let cell = |i: usize| match r.counts[i] {
            0 if r.sim_only && i == NATIVE => "-".to_string(),
            0 => "HOLE".to_string(),
            n => n.to_string(),
        };
        out.push_str(&format!(
            "  {:name_w$}  {:>5}  {:>6}  {:>7}  {:>5}\n",
            r.variant,
            cell(0),
            cell(1),
            cell(2),
            cell(3),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.into(), lines: src.lines().map(String::from).collect(), lexed: lex(src) }
    }

    #[test]
    fn variants_parse_from_the_event_table_form() {
        // The table decorates each row with docs, attributes, a tag, a rank
        // and field defaults, and the macro that consumes it spells
        // `enum $name`, which must not be mistaken for the declaration.
        let f = file(
            "events.rs",
            "macro_rules! define { (pub enum $name:ident { $($v:ident),* }) => { pub enum $name { $($v),* } } }\n\
             macro_rules! event_table { ($cb:path) => { $cb! {\n\
                 /// The vocabulary.\n\
                 pub enum EventKind {\n\
                     /// An off-load.\n\
                     Offload = \"offload\" @ 4 { proc: usize, task: u64 },\n\
                     #[allow(dead_code)]\n\
                     JobStarted = \"job_started\" @ 2 { job: u64, attempt: u64 = 0 },\n\
                     Dma = \"dma\" @ 11 { spe: usize, element_bytes: Vec<usize>, },\n\
                 }\n\
             } } }\n",
        );
        assert_eq!(parse_variants(&f), vec!["Offload", "JobStarted", "Dma"]);
    }

    #[test]
    fn holes_are_reported_per_surface() {
        let ev = file("event.rs", "pub enum EventKind { A, B }\n");
        let sim = file("m.rs", "emit(EventKind::A); emit(EventKind::B);\n");
        let native = file("n.rs", "emit(EventKind::A);\n");
        let checker = file("c.rs", "match k { EventKind::A => 1, EventKind::B => 2 }\n");
        let obs = file("o.rs", "match k { EventKind::A => 1, EventKind::B => 2 }\n");
        let variants = parse_variants(&ev);
        let surfaces = [vec![&sim], vec![&native], vec![&checker], vec![&obs]];
        let (matrix, findings) = analyze(&variants, &surfaces, &[], "why", "event.rs");
        assert_eq!(matrix.hole_count(), 1);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].note.contains("EventKind::B"));
        assert!(findings[0].note.contains("native"));
    }

    #[test]
    fn test_region_references_do_not_count() {
        let ev = file("event.rs", "pub enum EventKind { A }\n");
        let sim = file("m.rs", "#[cfg(test)]\nmod t {\n    fn f() { emit(EventKind::A); }\n}\n");
        let surfaces: [Vec<&SourceFile>; 4] =
            [vec![&sim], vec![&sim], vec![&sim], vec![&sim]];
        let (matrix, findings) =
            analyze(&parse_variants(&ev), &surfaces, &[], "why", "event.rs");
        assert_eq!(matrix.hole_count(), 4);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn a_sim_only_variant_must_stay_out_of_the_native_column() {
        let ev = file("event.rs", "pub enum EventKind { A, B }\n");
        let everywhere = file("x.rs", "match k { EventKind::A => 1, EventKind::B => 2 }\n");
        let only_a = file("n.rs", "emit(EventKind::A);\n");
        let variants = parse_variants(&ev);

        // Sim-only B with an empty native cell: clean, and the matrix
        // shows the cell as not applicable rather than as a hole.
        let surfaces = [vec![&everywhere], vec![&only_a], vec![&everywhere], vec![&everywhere]];
        let (matrix, findings) = analyze(&variants, &surfaces, &["B"], "why", "event.rs");
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(matrix.hole_count(), 0);
        let rendered = render(&matrix);
        let b_row = rendered.lines().find(|l| l.trim_start().starts_with('B')).unwrap();
        assert_eq!(b_row.split_whitespace().collect::<Vec<_>>(), ["B", "1", "-", "1", "1"]);

        // A native reference to it is the finding.
        let surfaces =
            [vec![&everywhere], vec![&everywhere], vec![&everywhere], vec![&everywhere]];
        let (_, findings) = analyze(&variants, &surfaces, &["B"], "why", "event.rs");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].note, "EventKind::B is sim-only but has 1 native reference(s)");

        // Its sim cell is still required.
        let surfaces = [vec![&only_a], vec![&only_a], vec![&everywhere], vec![&everywhere]];
        let (matrix, findings) = analyze(&variants, &surfaces, &["B"], "why", "event.rs");
        assert_eq!(matrix.hole_count(), 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].note, "EventKind::B has no non-test reference on surface(s): sim");
    }
}
