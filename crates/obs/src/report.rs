//! Profiling reports: folded stacks and a self-contained HTML document.
//!
//! Two renderings of the same profile:
//!
//! * [`folded_stacks`] — flamegraph-style folded lines, one per non-zero
//!   phase of each completed off-load
//!   (`scheduler;proc N;task N;t_phase value`), pipeable straight into
//!   `flamegraph.pl` or `inferno`;
//! * [`html_report`] — one HTML file with no external references: per-SPE
//!   task tracks as inline SVG with the critical path highlighted, the
//!   critical-path blame table, a what-if summary for the three canonical
//!   questions ("+1 SPE", "2× DMA bandwidth", "LLP degree 4"), and the
//!   counter table with unobservable counters rendered "n/a".
//!
//! Both are pure functions of the log: deterministic runs give
//! byte-identical reports.

use std::collections::HashSet;
use std::fmt::Write as _;

use cellsim::event::RunLog;
use mgps_runtime::Counter;

use crate::critpath::{what_if, CriticalPath, Phase, WhatIf};
use crate::htmlkit::{esc, Page};
use crate::phases::PhaseBreakdown;
use crate::summary::{ObsSummary, RunSource};
use crate::timeline::Timeline;

/// Render `log` as folded stack lines, one per non-zero phase of each
/// completed off-load, weighted in nanoseconds.
pub fn folded_stacks(log: &RunLog) -> String {
    let pb = PhaseBreakdown::from_log(log);
    let mut out = String::new();
    for ph in &pb.offloads {
        for (phase, ns) in [
            (Phase::Ppe, ph.t_ppe_ns),
            (Phase::Wait, ph.t_wait_ns),
            (Phase::Spe, ph.t_spe_ns),
            (Phase::Code, ph.t_code_ns),
            (Phase::Comm, ph.t_comm_ns),
        ] {
            if ns > 0 {
                let _ = writeln!(
                    out,
                    "{};proc {};task {};{} {ns}",
                    log.scheduler,
                    ph.proc,
                    ph.task,
                    phase.name()
                );
            }
        }
    }
    out
}

/// Fill colors cycled by owning process (SVG track rectangles).
const PROC_COLORS: [&str; 6] =
    ["#4e79a7", "#59a14f", "#9c755f", "#b07aa1", "#76b7b2", "#edc948"];

/// Render `log` as a self-contained HTML profiling report. `source`
/// declares the log's provenance so unobservable counters say "n/a".
pub fn html_report(log: &RunLog, source: RunSource) -> String {
    let tl = Timeline::from_log(log);
    let cp = CriticalPath::from_log(log);
    let summary = ObsSummary::from_log_with_source(log, source);
    let on_path: HashSet<u64> = cp.steps.iter().map(|s| s.task).collect();

    let mut page = Page::new(&format!(
        "multigrain profile: {} seed {}",
        log.scheduler, log.seed
    ));
    page.heading(1, "multigrain profile");
    page.para(&format!(
        "scheduler <b>{sched}</b> · seed {seed} · {n} SPEs · makespan \
         <b>{mk}</b> ns · {tasks} tasks",
        sched = esc(&log.scheduler.to_string()),
        seed = log.seed,
        n = log.n_spes,
        mk = cp.makespan_ns,
        tasks = summary.metrics.get(Counter::TasksCompleted),
    ));
    let mut html = String::new();

    // Per-SPE tracks. Critical-path occupancy gets a red outline; other
    // spans are filled by owning process.
    let width = 960.0f64;
    let row = 22usize;
    let label_w = 54.0f64;
    let span_ns = tl.makespan_ns.max(1) as f64;
    let scale = (width - label_w) / span_ns;
    let height = row * tl.n_spes + 4;
    page.heading(2, "Per-SPE tracks");
    page.raw(
        "<p class=\"legend\">fill = owning process · \
         <span style=\"outline:2px solid #d62728\">red outline</span> = on the critical path</p>\n",
    );
    let _ = writeln!(html, "<svg width=\"{width}\" height=\"{height}\" role=\"img\">");
    for spe in 0..tl.n_spes {
        let y = spe * row;
        let _ = write!(
            html,
            "<text x=\"0\" y=\"{ty}\" font-size=\"12\">SPE {spe}</text>\n\
             <line x1=\"{label_w}\" y1=\"{ly}\" x2=\"{width}\" y2=\"{ly}\" stroke=\"#ddd\"/>\n",
            ty = y + row - 7,
            ly = y + row - 2,
        );
    }
    for s in &tl.tasks {
        let x = label_w + s.start_ns as f64 * scale;
        let w = ((s.end_ns - s.start_ns) as f64 * scale).max(1.0);
        let y = s.spe * row + 3;
        let fill = PROC_COLORS[s.proc % PROC_COLORS.len()];
        let stroke = if on_path.contains(&s.task) {
            "stroke=\"#d62728\" stroke-width=\"2\""
        } else {
            "stroke=\"none\""
        };
        let _ = writeln!(
            html,
            "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{h}\" \
             fill=\"{fill}\" {stroke}><title>task {t} proc {p} deg {d}: \
             {a}..{b} ns</title></rect>",
            h = row - 8,
            t = s.task,
            p = s.proc,
            d = s.degree,
            a = s.start_ns,
            b = s.end_ns,
        );
    }
    html.push_str("</svg>\n");
    page.raw(&html);

    // Critical-path blame: which granularity term bounds the makespan.
    let dominant = cp.dominant();
    page.heading(2, "Critical-path blame");
    page.para(&format!(
        "{steps} tasks on the path; every nanosecond of the makespan \
         blamed on one phase (the rows sum to the makespan exactly). \
         Bound by <b>{dom}</b>.",
        steps = cp.steps.len(),
        dom = dominant.name(),
    ));
    page.table_start(&["phase", "ns", "% of makespan"]);
    for &p in &Phase::ALL {
        let ns = cp.blame.get(p);
        let pct = if cp.makespan_ns == 0 { 0.0 } else { 100.0 * ns as f64 / cp.makespan_ns as f64 };
        let class = if p == dominant { Some("dom") } else { None };
        page.table_row(class, &format!("<td>{}</td><td>{ns}</td><td>{pct:.1}</td>", p.name()));
    }
    page.table_end();

    // What-if replay for the canonical knobs.
    let scenarios: [(&str, WhatIf); 3] = [
        ("+1 SPE", WhatIf { extra_spes: 1, ..WhatIf::default() }),
        ("2\u{d7} DMA bandwidth", WhatIf { dma_scale: 0.5, ..WhatIf::default() }),
        ("LLP degree 4", WhatIf { degree_override: Some(4), ..WhatIf::default() }),
    ];
    page.heading(2, "What-if");
    page.table_start(&["scenario", "predicted makespan (ns)", "speedup"]);
    for (name, knobs) in scenarios {
        let out = what_if(log, knobs);
        page.table_row(
            None,
            &format!(
                "<td>{name}</td><td>{}</td><td>{:.2}\u{d7}</td>",
                out.predicted_makespan_ns, out.speedup
            ),
        );
    }
    page.table_end();

    // Counters, with unobservable ones honestly absent.
    page.heading(2, "Counters");
    page.table_start(&["counter", "value"]);
    for &c in &Counter::ALL {
        let rendered = crate::htmlkit::na_cell(summary.counter(c));
        page.table_row(None, &format!("<td>{}</td><td>{rendered}</td>", c.name()));
    }
    page.table_end();

    // Health alarms the online detector raised while the run was live
    // (absent entirely for runs that stayed healthy).
    if !summary.health.is_empty() {
        page.heading(2, "Health alarms");
        page.para(&format!(
            "{n} alarm(s) raised by the live telemetry detector.",
            n = summary.health.len(),
        ));
        page.table_start(&["alarm", "severity", "detail"]);
        for (alarm, severity, detail) in &summary.health {
            page.table_row(
                None,
                &format!(
                    "<td>{alarm}</td><td>{severity}</td><td style=\"text-align:left\">{}</td>",
                    esc(detail)
                ),
            );
        }
        page.table_end();
    }
    page.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::{AlarmKind, EventKind, EventRecord, FaultKind, SchedulerTag, Severity};

    fn small_log() -> RunLog {
        let events = vec![
            (10, EventKind::Offload { proc: 0, task: 0 }),
            (20, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![0, 1] }),
            (20, EventKind::DmaComplete { spe: 0, bytes: 4096, latency_ns: 7 }),
            (120, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0, 1] }),
            (150, EventKind::Offload { proc: 1, task: 1 }),
            (155, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![0] }),
            (255, EventKind::TaskEnd { proc: 1, task: 1, team: vec![0] }),
        ];
        RunLog {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 2,
            quantum_ns: 0,
            seed: 3,
            local_store_bytes: 256 * 1024,
            loop_iters: 16,
            mgps_window: None,
            fault_policy: None,
            tenant_weights: None,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
                .collect(),
        }
    }

    #[test]
    fn folded_stacks_weigh_each_phase() {
        let folded = folded_stacks(&small_log());
        assert!(folded.contains("edtlp;proc 0;task 0;t_spe 100"));
        assert!(folded.contains("edtlp;proc 0;task 0;t_comm 7"));
        assert!(folded.contains("edtlp;proc 0;task 0;t_wait 10"));
        assert!(folded.contains("edtlp;proc 1;task 1;t_ppe 150"));
        // Zero-weight phases are omitted (task 0 reloaded no code).
        assert!(!folded.contains("task 0;t_code"));
        // Every line parses as `stack weight`.
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weighted line");
            assert_eq!(stack.split(';').count(), 4, "{line}");
            weight.parse::<u64>().expect("numeric weight");
        }
    }

    #[test]
    fn html_report_is_self_contained_and_highlights_the_path() {
        let log = small_log();
        let html = html_report(&log, RunSource::Simulated);
        assert!(html.starts_with("<!DOCTYPE html>"));
        // Self-contained: no external fetches.
        for needle in ["http://", "https://", "<script", "src="] {
            assert!(!html.contains(needle), "found {needle}");
        }
        // Only task 1 is on the critical path (task 0 ends before task 1's
        // off-load, so it never blocked it): exactly its span is
        // highlighted. Tracks exist for both SPEs.
        assert_eq!(html.matches("stroke=\"#d62728\"").count(), 1);
        assert!(html.contains(">SPE 0<") && html.contains(">SPE 1<"));
        // Blame table, what-if rows, and n/a counters are present.
        assert!(html.contains("t_spe"));
        assert!(html.contains("+1 SPE"));
        assert!(html.contains("<td>n/a</td>"));
        assert!(html.contains("mailbox_stalls"));
    }

    #[test]
    fn health_alarms_surface_in_the_report() {
        let clean = html_report(&small_log(), RunSource::Simulated);
        assert!(!clean.contains("Health alarms"), "healthy runs get no alarm section");

        let mut log = small_log();
        let seq = log.events.len() as u64;
        log.events.push(EventRecord {
            seq,
            at_ns: 300,
            kind: EventKind::Health {
                alarm: AlarmKind::UtilizationCollapse,
                severity: Severity::Warning,
                detail: "U=1 <= 4 with degree 1 for 3 consecutive windows".to_string(),
            },
        });
        let html = html_report(&log, RunSource::Native);
        assert!(html.contains("Health alarms"));
        assert!(html.contains("utilization_collapse"));
        assert!(html.contains("3 consecutive windows"));
        // Still self-contained.
        for needle in ["http://", "https://", "<script", "src="] {
            assert!(!html.contains(needle), "found {needle}");
        }
    }

    #[test]
    fn report_survives_a_run_whose_only_offload_faulted() {
        // Off-load 0 faults every attempt and completes on the PPE: the
        // log has no TaskStart/TaskEnd at all, so the timeline is empty,
        // every SPE is zero-busy, and the critical path has no steps. The
        // report must render zeros, not divide by them.
        let events = vec![
            (10, EventKind::Offload { proc: 0, task: 0 }),
            (
                15,
                EventKind::FaultInjected {
                    spe: 0,
                    task: 0,
                    fault: FaultKind::SpeCrash,
                    attempt: 0,
                },
            ),
            (40, EventKind::PpeFallback { proc: 0, task: 0, attempts: 1 }),
        ];
        let log = RunLog {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 2,
            quantum_ns: 0,
            seed: 3,
            local_store_bytes: 256 * 1024,
            loop_iters: 16,
            mgps_window: None,
            fault_policy: Some("seed=1,pin=crash@0,retries=0".into()),
            tenant_weights: None,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
                .collect(),
        };
        let html = html_report(&log, RunSource::Simulated);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("0 tasks"));
        assert!(!html.contains("NaN") && !html.contains("inf"), "no poisoned arithmetic");
        // Zero-duration what-if rows report identity speedups.
        assert!(html.contains("1.00\u{d7}"));
        assert!(folded_stacks(&log).is_empty(), "no completed off-loads, no stacks");
    }

    #[test]
    fn report_is_byte_deterministic() {
        let log = small_log();
        assert_eq!(
            html_report(&log, RunSource::Simulated),
            html_report(&log, RunSource::Simulated)
        );
        assert_eq!(folded_stacks(&log), folded_stacks(&log));
    }
}
