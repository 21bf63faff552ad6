//! Chrome trace-event export.
//!
//! [`chrome_trace`] renders a [`RunLog`] as a JSON document in the Chrome
//! trace-event format, loadable in `chrome://tracing` or Perfetto. The
//! layout:
//!
//! * one thread per SPE (`tid = spe`) carrying task-occupancy spans —
//!   plus, on faulted runs, `quarantined` bench spans and `fault: <kind>`
//!   instants (distinguishable from occupancy by name),
//! * one `MGPS` thread (`tid = n_spes`) carrying decision instants, an
//!   `llp_degree` counter track, `ppe fallback` instants,
//!   `retry task …` instants, and `granularity: <kernel> -> …` verdict
//!   instants,
//! * one DMA thread per SPE (`tid = n_spes + 1 + spe`) carrying transfer
//!   spans,
//! * `chunk [a, b)` instants on the worker SPE's thread, and one
//!   `ls_in_use <spe>` counter track per SPE with local-store occupancy
//!   sampled at every `LsAlloc`/`LsFree`.
//!
//! Timestamps and durations are **integer nanoseconds** — no floating
//! point anywhere — so a deterministic run produces a byte-identical
//! trace, and summing `dur` per SPE thread reproduces the checker's
//! per-SPE busy accounting exactly.
//!
//! [`RunLog`]: cellsim::event::RunLog

use cellsim::event::{EventKind, RunLog};
use minijson::Piece::{Str, U64};
use minijson::{Piece, Writer};

use crate::decisions::decisions;
use crate::timeline::Timeline;

/// The trace document under construction. Each method writes one whole
/// trace event, its members in the order the format's readers (and this
/// crate's goldens) have always seen them; `args` writes the members of
/// the event's `args` object.
struct Trace(Writer<Vec<u8>>);

impl Trace {
    fn uint(&mut self, key: &str, v: u64) {
        self.0.key(key);
        self.0.u64(v);
    }

    fn string(&mut self, key: &str, v: &str) {
        self.0.key(key);
        self.0.str(v);
    }

    /// Open an event: `name`, `ph`, then `pid` — after `s`, the scope of an
    /// instant, when there is one.
    fn begin(&mut self, name: &[Piece<'_>], ph: &str, scope: Option<&str>) {
        self.0.begin_object();
        self.0.key("name");
        self.0.text(name);
        self.string("ph", ph);
        if let Some(scope) = scope {
            self.string("s", scope);
        }
        self.uint("pid", 0);
    }

    /// Close an event with its `args` object.
    fn end(&mut self, args: impl FnOnce(&mut Trace)) {
        self.0.key("args");
        self.0.begin_object();
        args(self);
        self.0.end_object();
        self.0.end_object();
    }

    /// Metadata naming the process (`tid` absent) or one of its threads.
    fn meta(&mut self, name: &str, tid: Option<u64>, value: &[Piece<'_>]) {
        self.begin(&[Str(name)], "M", None);
        if let Some(tid) = tid {
            self.uint("tid", tid);
        }
        self.end(|t| {
            t.0.key("name");
            t.0.text(value);
        });
    }

    /// A complete (`X`) event covering `[start_ns, end_ns]` on `tid`.
    fn span(
        &mut self,
        name: &[Piece<'_>],
        tid: u64,
        (start_ns, end_ns): (u64, u64),
        args: impl FnOnce(&mut Trace),
    ) {
        self.begin(name, "X", None);
        self.uint("tid", tid);
        self.uint("ts", start_ns);
        self.uint("dur", end_ns - start_ns);
        self.end(args);
    }

    /// A thread-scoped instant on `tid`.
    fn instant(&mut self, name: &[Piece<'_>], tid: u64, at_ns: u64, args: impl FnOnce(&mut Trace)) {
        self.begin(name, "i", Some("t"));
        self.uint("tid", tid);
        self.uint("ts", at_ns);
        self.end(args);
    }

    /// One sample of the counter track `name`.
    fn counter(&mut self, name: &[Piece<'_>], at_ns: u64, series: &str, v: u64) {
        self.begin(name, "C", None);
        self.uint("ts", at_ns);
        self.end(|t| t.uint(series, v));
    }
}

/// Render `log` as a Chrome trace-event JSON document.
pub fn chrome_trace(log: &RunLog) -> String {
    let tl = Timeline::from_log(log);
    let mgps_tid = log.n_spes as u64;
    // Grown, not reserved: sizing the buffer up front (a trace runs 40–80
    // bytes per log event) bought about a millisecond per five traces and
    // cost 1.5 MB of peak RSS on the benchmark's verify pipeline.
    let mut t = Trace(Writer::new(Vec::new()));
    t.0.begin_object();
    t.0.key("traceEvents");
    t.0.begin_array();

    let scheduler = log.scheduler.to_string();
    t.meta("process_name", None, &[Str("cellsim "), Str(&scheduler), Str(" seed="), U64(log.seed)]);
    for spe in 0..mgps_tid {
        t.meta("thread_name", Some(spe), &[Str("SPE "), U64(spe)]);
    }
    t.meta("thread_name", Some(mgps_tid), &[Str("MGPS")]);
    for spe in 0..mgps_tid {
        t.meta("thread_name", Some(mgps_tid + 1 + spe), &[Str("DMA "), U64(spe)]);
    }

    for s in &tl.tasks {
        let (proc, degree) = (s.proc as u64, s.degree as u64);
        t.span(
            &[Str("task "), U64(s.task), Str(" (proc "), U64(proc), Str(", deg "), U64(degree), Str(")")],
            s.spe as u64,
            (s.start_ns, s.end_ns),
            |t| {
                t.uint("task", s.task);
                t.uint("proc", proc);
                t.uint("degree", degree);
            },
        );
    }

    for d in &tl.dmas {
        let bytes = d.bytes as u64;
        t.span(
            &[Str("dma "), U64(bytes), Str(" B")],
            mgps_tid + 1 + d.spe as u64,
            (d.start_ns, d.end_ns),
            |t| t.uint("bytes", bytes),
        );
    }

    for q in &tl.quarantines {
        let spe = q.spe as u64;
        t.span(&[Str("quarantined")], spe, (q.start_ns, q.end_ns), |t| t.uint("spe", spe));
    }

    for e in &log.events {
        match &e.kind {
            EventKind::FaultInjected { spe, task, fault, attempt } => {
                t.instant(&[Str("fault: "), Str(fault.as_str())], *spe as u64, e.at_ns, |t| {
                    t.uint("task", *task);
                    t.uint("attempt", *attempt);
                });
            }
            EventKind::PpeFallback { task, attempts, .. } => {
                t.instant(&[Str("ppe fallback task "), U64(*task)], mgps_tid, e.at_ns, |t| {
                    t.uint("task", *task);
                    t.uint("attempts", *attempts);
                });
            }
            EventKind::Chunk { task, start, len, worker, .. } => {
                let (start, len) = (*start as u64, *len as u64);
                t.instant(
                    &[Str("chunk ["), U64(start), Str(", "), U64(start + len), Str(")")],
                    *worker as u64,
                    e.at_ns,
                    |t| {
                        t.uint("task", *task);
                        t.uint("start", start);
                        t.uint("len", len);
                    },
                );
            }
            EventKind::GranularityVerdict { kernel, offload, reprobe, .. } => {
                let ruling = if *reprobe {
                    "reprobe"
                } else if *offload {
                    "offload"
                } else {
                    "ppe"
                };
                t.instant(
                    &[Str("granularity: "), Str(kernel.as_str()), Str(" -> "), Str(ruling)],
                    mgps_tid,
                    e.at_ns,
                    |t| {
                        t.string("kernel", kernel.as_str());
                        t.0.key("offload");
                        t.0.bool(*offload);
                        t.0.key("reprobe");
                        t.0.bool(*reprobe);
                    },
                );
            }
            EventKind::OffloadRetry { task, attempt, backoff_ns } => {
                t.instant(
                    &[Str("retry task "), U64(*task), Str(" (attempt "), U64(*attempt), Str(")")],
                    mgps_tid,
                    e.at_ns,
                    |t| {
                        t.uint("task", *task);
                        t.uint("attempt", *attempt);
                        t.uint("backoff_ns", *backoff_ns);
                    },
                );
            }
            EventKind::LsAlloc { spe, in_use, .. } | EventKind::LsFree { spe, in_use, .. } => {
                // One counter track per SPE: local-store occupancy over time.
                t.counter(&[Str("ls_in_use "), U64(*spe as u64)], e.at_ns, "bytes", *in_use as u64);
            }
            _ => {}
        }
    }

    for d in &decisions(log) {
        let degree = d.degree as u64;
        t.instant(&[Str("degree -> "), U64(degree)], mgps_tid, d.at_ns, |t| {
            t.uint("u", d.u as u64);
            t.uint("waiting", d.waiting as u64);
            t.uint("degree", degree);
        });
        t.counter(&[Str("llp_degree")], d.at_ns, "degree", degree);
    }

    t.0.end_array();
    t.string("displayTimeUnit", "ns");
    t.0.end_object();
    t.0.into_string()
}

/// The tree-building exporter this module's [`chrome_trace`] replaced,
/// kept as the oracle its bytes are held to.
#[cfg(test)]
mod classic {
    use cellsim::event::RunLog;
    use minijson::Value;

    use crate::decisions::decisions;
    use crate::timeline::Timeline;

    fn meta(name: &str, tid: u64, value: &str) -> Value {
        Value::object(vec![
            ("name", name.into()),
            ("ph", "M".into()),
            ("pid", 0u64.into()),
            ("tid", tid.into()),
            ("args", Value::object(vec![("name", value.into())])),
        ])
    }

    /// Render `log` as a Chrome trace-event JSON document.
    pub(super) fn chrome_trace(log: &RunLog) -> String {
        let tl = Timeline::from_log(log);
        let mgps_tid = log.n_spes as u64;
        let mut events = Vec::new();

        events.push(Value::object(vec![
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", 0u64.into()),
            (
                "args",
                Value::object(vec![(
                    "name",
                    format!("cellsim {} seed={}", log.scheduler, log.seed).into(),
                )]),
            ),
        ]));
        for spe in 0..log.n_spes {
            events.push(meta("thread_name", spe as u64, &format!("SPE {spe}")));
        }
        events.push(meta("thread_name", mgps_tid, "MGPS"));
        for spe in 0..log.n_spes {
            events.push(meta(
                "thread_name",
                mgps_tid + 1 + spe as u64,
                &format!("DMA {spe}"),
            ));
        }

        for s in &tl.tasks {
            events.push(Value::object(vec![
                (
                    "name",
                    format!("task {} (proc {}, deg {})", s.task, s.proc, s.degree).into(),
                ),
                ("ph", "X".into()),
                ("pid", 0u64.into()),
                ("tid", (s.spe as u64).into()),
                ("ts", s.start_ns.into()),
                ("dur", (s.end_ns - s.start_ns).into()),
                (
                    "args",
                    Value::object(vec![
                        ("task", s.task.into()),
                        ("proc", s.proc.into()),
                        ("degree", s.degree.into()),
                    ]),
                ),
            ]));
        }

        for d in &tl.dmas {
            events.push(Value::object(vec![
                ("name", format!("dma {} B", d.bytes).into()),
                ("ph", "X".into()),
                ("pid", 0u64.into()),
                ("tid", (mgps_tid + 1 + d.spe as u64).into()),
                ("ts", d.start_ns.into()),
                ("dur", (d.end_ns - d.start_ns).into()),
                ("args", Value::object(vec![("bytes", d.bytes.into())])),
            ]));
        }

        for q in &tl.quarantines {
            events.push(Value::object(vec![
                ("name", "quarantined".into()),
                ("ph", "X".into()),
                ("pid", 0u64.into()),
                ("tid", (q.spe as u64).into()),
                ("ts", q.start_ns.into()),
                ("dur", (q.end_ns - q.start_ns).into()),
                ("args", Value::object(vec![("spe", q.spe.into())])),
            ]));
        }

        for e in &log.events {
            match &e.kind {
                cellsim::event::EventKind::FaultInjected { spe, task, fault, attempt } => {
                    events.push(Value::object(vec![
                        ("name", format!("fault: {fault}").into()),
                        ("ph", "i".into()),
                        ("s", "t".into()),
                        ("pid", 0u64.into()),
                        ("tid", (*spe as u64).into()),
                        ("ts", e.at_ns.into()),
                        (
                            "args",
                            Value::object(vec![("task", (*task).into()), ("attempt", (*attempt).into())]),
                        ),
                    ]));
                }
                cellsim::event::EventKind::PpeFallback { task, attempts, .. } => {
                    events.push(Value::object(vec![
                        ("name", format!("ppe fallback task {task}").into()),
                        ("ph", "i".into()),
                        ("s", "t".into()),
                        ("pid", 0u64.into()),
                        ("tid", mgps_tid.into()),
                        ("ts", e.at_ns.into()),
                        (
                            "args",
                            Value::object(vec![("task", (*task).into()), ("attempts", (*attempts).into())]),
                        ),
                    ]));
                }
                cellsim::event::EventKind::Chunk { task, start, len, worker, .. } => {
                    events.push(Value::object(vec![
                        ("name", format!("chunk [{start}, {})", start + len).into()),
                        ("ph", "i".into()),
                        ("s", "t".into()),
                        ("pid", 0u64.into()),
                        ("tid", (*worker as u64).into()),
                        ("ts", e.at_ns.into()),
                        (
                            "args",
                            Value::object(vec![
                                ("task", (*task).into()),
                                ("start", (*start).into()),
                                ("len", (*len).into()),
                            ]),
                        ),
                    ]));
                }
                cellsim::event::EventKind::GranularityVerdict { kernel, offload, reprobe, .. } => {
                    let ruling = if *reprobe {
                        "reprobe"
                    } else if *offload {
                        "offload"
                    } else {
                        "ppe"
                    };
                    events.push(Value::object(vec![
                        ("name", format!("granularity: {kernel} -> {ruling}").into()),
                        ("ph", "i".into()),
                        ("s", "t".into()),
                        ("pid", 0u64.into()),
                        ("tid", mgps_tid.into()),
                        ("ts", e.at_ns.into()),
                        (
                            "args",
                            Value::object(vec![
                                ("kernel", kernel.as_str().into()),
                                ("offload", Value::Bool(*offload)),
                                ("reprobe", Value::Bool(*reprobe)),
                            ]),
                        ),
                    ]));
                }
                cellsim::event::EventKind::OffloadRetry { task, attempt, backoff_ns } => {
                    events.push(Value::object(vec![
                        ("name", format!("retry task {task} (attempt {attempt})").into()),
                        ("ph", "i".into()),
                        ("s", "t".into()),
                        ("pid", 0u64.into()),
                        ("tid", mgps_tid.into()),
                        ("ts", e.at_ns.into()),
                        (
                            "args",
                            Value::object(vec![
                                ("task", (*task).into()),
                                ("attempt", (*attempt).into()),
                                ("backoff_ns", (*backoff_ns).into()),
                            ]),
                        ),
                    ]));
                }
                cellsim::event::EventKind::LsAlloc { spe, in_use, .. }
                | cellsim::event::EventKind::LsFree { spe, in_use, .. } => {
                    // One counter track per SPE: local-store occupancy over time.
                    events.push(Value::object(vec![
                        ("name", format!("ls_in_use {spe}").into()),
                        ("ph", "C".into()),
                        ("pid", 0u64.into()),
                        ("ts", e.at_ns.into()),
                        ("args", Value::object(vec![("bytes", (*in_use).into())])),
                    ]));
                }
                _ => {}
            }
        }

        for d in &decisions(log) {
            events.push(Value::object(vec![
                ("name", format!("degree -> {}", d.degree).into()),
                ("ph", "i".into()),
                ("s", "t".into()),
                ("pid", 0u64.into()),
                ("tid", mgps_tid.into()),
                ("ts", d.at_ns.into()),
                (
                    "args",
                    Value::object(vec![
                        ("u", d.u.into()),
                        ("waiting", d.waiting.into()),
                        ("degree", d.degree.into()),
                    ]),
                ),
            ]));
            events.push(Value::object(vec![
                ("name", "llp_degree".into()),
                ("ph", "C".into()),
                ("pid", 0u64.into()),
                ("ts", d.at_ns.into()),
                ("args", Value::object(vec![("degree", d.degree.into())])),
            ]));
        }

        Value::object(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", "ns".into()),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::{EventRecord, FaultKind, KernelKind, SchedulerTag};
    use minijson::Value;

    fn small_log() -> RunLog {
        let events = vec![
            (10, EventKind::Offload { proc: 0, task: 0 }),
            (20, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![0, 1] }),
            (20, EventKind::DmaComplete { spe: 0, bytes: 4096, latency_ns: 7 }),
            (120, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0, 1] }),
            (
                120,
                EventKind::DegreeDecision {
                    degree: 2,
                    u: 0,
                    waiting: 1,
                    n_spes: 2,
                    window: 1,
                    window_fill: 1,
                },
            ),
        ];
        RunLog {
            scheduler: SchedulerTag::Mgps,
            n_spes: 2,
            quantum_ns: 0,
            seed: 3,
            local_store_bytes: 256 * 1024,
            loop_iters: 16,
            mgps_window: Some(1),
            fault_policy: None,
            tenant_weights: None,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
                .collect(),
        }
    }

    /// Sum `dur` per SPE thread from a parsed trace.
    fn busy_from_trace(json: &str, n_spes: usize) -> Vec<u64> {
        let v = minijson::parse(json).unwrap();
        let mut busy = vec![0u64; n_spes];
        for e in v.get("traceEvents").and_then(Value::as_array).unwrap() {
            if e.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let tid = e.get("tid").and_then(Value::as_u64).unwrap() as usize;
            if tid < n_spes {
                busy[tid] += e.get("dur").and_then(Value::as_u64).unwrap();
            }
        }
        busy
    }

    #[test]
    fn trace_is_valid_json_with_expected_tracks() {
        let log = small_log();
        let json = chrome_trace(&log);
        let v = minijson::parse(&json).expect("trace parses");
        assert_eq!(v.get("displayTimeUnit").and_then(Value::as_str), Some("ns"));
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        // 1 process + 2 SPE + 1 MGPS + 2 DMA metadata, 2 task spans, 1 DMA
        // span, 1 instant + 1 counter.
        assert_eq!(events.len(), 6 + 2 + 1 + 2);
        assert!(json.contains("\"name\":\"MGPS\""));
        assert!(json.contains("\"llp_degree\""));
    }

    #[test]
    fn per_spe_busy_sums_match_the_timeline() {
        let log = small_log();
        let json = chrome_trace(&log);
        let tl = Timeline::from_log(&log);
        assert_eq!(busy_from_trace(&json, log.n_spes), tl.busy_ns());
        assert_eq!(tl.busy_ns(), vec![100, 100]);
    }

    #[test]
    fn granularity_verdicts_export_as_mgps_instants() {
        let mut log = small_log();
        let base = log.events.len() as u64;
        for (i, (at_ns, kind)) in [
            (
                30,
                EventKind::GranularityVerdict {
                    kernel: KernelKind::MakeNewz,
                    offload: false,
                    throttled: true,
                    reprobe: false,
                },
            ),
            (
                60,
                EventKind::GranularityVerdict {
                    kernel: KernelKind::MakeNewz,
                    offload: true,
                    throttled: true,
                    reprobe: true,
                },
            ),
        ]
        .into_iter()
        .enumerate()
        {
            log.events.push(EventRecord { seq: base + i as u64, at_ns, kind });
        }
        let json = chrome_trace(&log);
        assert_eq!(json, classic::chrome_trace(&log));
        let v = minijson::parse(&json).expect("trace parses");
        assert!(json.contains("\"granularity: makenewz -> ppe\""));
        assert!(json.contains("\"granularity: makenewz -> reprobe\""));
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let verdict = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Value::as_str) == Some("granularity: makenewz -> ppe")
            })
            .expect("verdict instant present");
        // Rendered on the MGPS thread, not an SPE track.
        assert_eq!(verdict.get("tid").and_then(Value::as_u64), Some(log.n_spes as u64));
        assert_eq!(verdict.get("ts").and_then(Value::as_u64), Some(30));
        assert_eq!(
            verdict.get("args").and_then(|a| a.get("offload")).and_then(Value::as_bool),
            Some(false)
        );
    }

    #[test]
    fn streamed_export_equals_the_tree_built_one_byte_for_byte() {
        let logs = crate::testlogs::oracle_logs();
        let faulted = chrome_trace(logs.last().expect("the faulted run"));
        for record in ["\"quarantined\"", "\"fault: ", "\"retry task ", "\"ppe fallback task "] {
            assert!(faulted.contains(record), "the faulted run exports no {record} record");
        }
        for log in logs {
            assert!(
                chrome_trace(log) == classic::chrome_trace(log),
                "{} seed {}: the streamed trace diverges from the tree-built one",
                log.scheduler,
                log.seed
            );
        }
    }

    #[test]
    fn export_is_byte_deterministic() {
        let log = small_log();
        assert_eq!(chrome_trace(&log), chrome_trace(&log));
    }

    #[test]
    fn faulted_runs_export_quarantine_spans_and_fault_instants() {
        let mut log = small_log();
        log.fault_policy = Some("seed=1,stall=0.5".into());
        let base = log.events.len() as u64;
        for (i, (at_ns, kind)) in [
            (
                130,
                EventKind::FaultInjected {
                    spe: 1,
                    task: 1,
                    fault: FaultKind::SpeStall,
                    attempt: 0,
                },
            ),
            (140, EventKind::SpeQuarantined { spe: 1, faults: 3 }),
            (180, EventKind::SpeReadmitted { spe: 1 }),
            (190, EventKind::PpeFallback { proc: 0, task: 1, attempts: 4 }),
        ]
        .into_iter()
        .enumerate()
        {
            log.events.push(EventRecord { seq: base + i as u64, at_ns, kind });
        }
        let json = chrome_trace(&log);
        assert_eq!(json, classic::chrome_trace(&log));
        let v = minijson::parse(&json).expect("trace parses");
        assert!(json.contains("\"fault: spe_stall\""));
        assert!(json.contains("\"ppe fallback task 1\""));
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let bench = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("quarantined"))
            .expect("quarantine span present");
        assert_eq!(bench.get("tid").and_then(Value::as_u64), Some(1));
        assert_eq!(bench.get("ts").and_then(Value::as_u64), Some(140));
        assert_eq!(bench.get("dur").and_then(Value::as_u64), Some(40));
    }
}
