//! `sim_core` and `sim_verify`: the Cell simulator alone, and the verified
//! pipeline `analyze` / `trace` / `profile` users wait for.

use std::time::Instant;

use multigrain::cellsim::event::RunLog;
use multigrain::cellsim::machine::{run as run_simulation, RunReport, SimConfig};
use multigrain::des::sim::Sim;
use multigrain::des::time::{SimDuration, SimTime};
use multigrain::mgps_analysis::{check_run, digest_hex};
use multigrain::mgps_obs::{chrome_trace, CriticalPath, ObsSummary, PhaseBreakdown, Timeline};
use multigrain::mgps_runtime::policy::SchedulerKind;

use crate::anchors::{Anchors, SimAnchor};
use crate::harness::{median, peak_rss_mb, timed_rounds, Gauge, Outcome, RunCfg, Spans};

/// The five schedulers `multigrain analyze` sweeps, with the CLI's names.
const SCHEDULERS: [(&str, SchedulerKind); 5] = [
    ("edtlp", SchedulerKind::Edtlp),
    ("linux", SchedulerKind::LinuxLike),
    ("llp2", SchedulerKind::StaticHybrid { spes_per_loop: 2 }),
    ("llp4", SchedulerKind::StaticHybrid { spes_per_loop: 4 }),
    ("mgps", SchedulerKind::Mgps),
];

const BOOTSTRAPS: usize = 8;

/// Inverse workload size (`--scale`): larger is less work.
fn scale(verify: bool, tiny: bool) -> usize {
    match (verify, tiny) {
        (false, false) => 6,
        (false, true) => 400,
        (true, false) => 1_000,
        (true, true) => 20_000,
    }
}

fn config(kind: SchedulerKind, verify: bool, cfg: &RunCfg) -> SimConfig {
    let mut sim = SimConfig::cell_42sc(kind, BOOTSTRAPS, scale(verify, cfg.tiny));
    sim.seed = cfg.seed;
    sim.record_events = verify;
    sim
}

fn facts(name: &str, r: &RunReport, digest: Option<String>) -> SimAnchor {
    SimAnchor {
        scheduler: name.to_string(),
        tasks_completed: r.tasks_completed,
        context_switches: r.context_switches,
        makespan_ns: r.makespan.as_nanos(),
        digest_hex: digest,
    }
}

/// What the verified pipeline produced for one scheduler.
struct Verified {
    facts: SimAnchor,
    events: usize,
    chrome_bytes: usize,
    json_bytes: usize,
}

/// One scheduler through the whole verified pipeline. Every stage is a
/// child span, so the traced run reads each layer's self time off them.
fn verify_one(
    name: &'static str,
    kind: SchedulerKind,
    cfg: &RunCfg,
    id: u64,
    spans: &mut Spans,
) -> Result<Verified, String> {
    spans.enter("scheduler", id);
    let report = spans.scope("run", id, || run_simulation(config(kind, true, cfg)));
    let log: &RunLog = report.run_log.as_ref().expect("record_events was set");
    let checked = spans.scope("check", id, || check_run(log));
    let digest = spans.scope("digest", id, || digest_hex(log));
    let timeline = spans.scope("timeline", id, || Timeline::from_log(log));
    let phases = spans.scope("phases", id, || PhaseBreakdown::from_log(log));
    let critical = spans.scope("critpath", id, || CriticalPath::from_log(log));
    let summary = spans.scope("summary", id, || ObsSummary::from_log(log));
    let chrome = spans.scope("chrome", id, || chrome_trace(log));
    let json = spans.scope("encode", id, || log.to_value().to_json());
    spans.exit();
    std::hint::black_box((&timeline, &phases));

    if !checked.is_clean() {
        return Err(format!(
            "{name}: checker found {} violation(s)",
            checked.violations.len()
        ));
    }
    if summary.busy_ns != checked.spe_busy_ns {
        return Err(format!(
            "{name}: summary busy time diverges from the checker's"
        ));
    }
    if critical.makespan_ns == 0 || critical.makespan_ns > report.makespan.as_nanos() {
        return Err(format!("{name}: critical path does not fit the makespan"));
    }
    Ok(Verified {
        facts: facts(name, &report, Some(digest)),
        events: log.events.len(),
        chrome_bytes: chrome.len(),
        json_bytes: json.len(),
    })
}

/// A round's facts must equal the warm-up round's (same seed, same
/// stream) and, for an anchored seed, the committed ones.
fn judge(
    got: &[SimAnchor],
    reference: &[SimAnchor],
    anchored: Option<&[SimAnchor]>,
) -> Result<(), String> {
    if got != reference {
        return Err("round diverged from the warm-up round of the same seed".to_string());
    }
    match anchored {
        Some(want) if want != got => Err("round diverged from anchors.json".to_string()),
        _ => Ok(()),
    }
}

fn core_round(cfg: &RunCfg) -> Vec<SimAnchor> {
    SCHEDULERS
        .iter()
        .map(|&(name, kind)| facts(name, &run_simulation(config(kind, false, cfg)), None))
        .collect()
}

fn verify_round(cfg: &RunCfg, id: u64, spans: &mut Spans) -> Result<Vec<Verified>, String> {
    spans.enter("round", id);
    let out = SCHEDULERS
        .iter()
        .map(|&(name, kind)| verify_one(name, kind, cfg, id, spans))
        .collect();
    spans.exit();
    out
}

/// The anchors of one seed, as `--write-anchors` stores them.
pub fn anchor_facts(verify: bool, cfg: &RunCfg) -> Vec<SimAnchor> {
    if verify {
        let mut spans = Spans::new(Instant::now());
        let round = verify_round(cfg, 0, &mut spans).expect("anchor run must verify");
        round.into_iter().map(|v| v.facts).collect()
    } else {
        core_round(cfg)
    }
}

pub fn run(verify: bool, cfg: &RunCfg, anchors: &Anchors) -> Outcome {
    let workload = if verify { "sim_verify" } else { "sim_core" };
    let anchored = anchors.sim(workload, cfg.tiny, cfg.seed);
    let anchored = anchored.as_deref();
    let mut out = Outcome::default();
    // Single-threaded and CPU-bound: gauged by the calibration spin.
    let mut host = Gauge::spin();

    // Set-up: build the configurations and run the untimed warm-up round,
    // whose facts every timed round is then held to.
    let mut reference = Vec::new();
    let setups: Vec<f64> = (0..5)
        .map(|_| {
            host.sample();
            let t = Instant::now();
            reference = if verify {
                match verify_round(cfg, 0, &mut Spans::new(Instant::now())) {
                    Ok(round) => round.into_iter().map(|v| v.facts).collect(),
                    Err(why) => {
                        out.notes.push(format!("warm-up: {why}"));
                        Vec::new()
                    }
                }
            } else {
                core_round(cfg)
            };
            t.elapsed().as_secs_f64()
        })
        .collect();

    if cfg.trace {
        let mut spans = Spans::new(Instant::now());
        traced(verify, cfg, &reference, anchored, &mut spans, &mut out);
        spans.save(cfg, workload, &mut out);
        return out;
    }

    let walls = timed_rounds(cfg.seconds, 3, &mut host, |round| {
        let got = if verify {
            verify_round(cfg, round as u64, &mut Spans::new(Instant::now()))
                .map(|r| r.into_iter().map(|v| v.facts).collect::<Vec<_>>())
        } else {
            Ok(core_round(cfg))
        };
        out.attempt(got.and_then(|g| judge(&g, &reference, anchored)));
    });
    out.put("setup_s", median(&setups) * host.correction());
    out.put("round_s", median(&walls) * host.correction());
    out.put("peak_rss_mb", peak_rss_mb(None));
    out
}

/// The traced run: untraced rounds for the overhead baseline, then traced
/// rounds whose stage spans give each layer's throughput, then the direct
/// probes of the layers this workload leans on.
fn traced(
    verify: bool,
    cfg: &RunCfg,
    reference: &[SimAnchor],
    anchored: Option<&[SimAnchor]>,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let plain = timed_rounds(cfg.seconds / 3.0, 2, &mut Gauge::none(), |round| {
        if verify {
            let _ = verify_round(cfg, round as u64, &mut Spans::new(Instant::now()));
        } else {
            std::hint::black_box(core_round(cfg));
        }
    });

    let (mut events, mut chrome_bytes, mut json_bytes, mut tasks) = (0usize, 0usize, 0usize, 0u64);
    let walls = timed_rounds(cfg.seconds / 2.0, 2, &mut Gauge::none(), |round| {
        let id = round as u64;
        if verify {
            let got = verify_round(cfg, id, spans).map(|r| {
                events += r.iter().map(|v| v.events).sum::<usize>();
                chrome_bytes += r.iter().map(|v| v.chrome_bytes).sum::<usize>();
                json_bytes += r.iter().map(|v| v.json_bytes).sum::<usize>();
                tasks += r.iter().map(|v| v.facts.tasks_completed).sum::<u64>();
                r.into_iter().map(|v| v.facts).collect::<Vec<_>>()
            });
            out.attempt(got.and_then(|g| judge(&g, reference, anchored)));
        } else {
            spans.enter("round", id);
            let got: Vec<SimAnchor> = SCHEDULERS
                .iter()
                .map(|&(name, kind)| {
                    spans.enter("scheduler", id);
                    let r = spans.scope("run", id, || run_simulation(config(kind, false, cfg)));
                    spans.exit();
                    facts(name, &r, None)
                })
                .collect();
            spans.exit();
            tasks += got.iter().map(|f| f.tasks_completed).sum::<u64>();
            out.attempt(judge(&got, reference, anchored));
        }
    });

    let totals = spans.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let per_s = |amount: f64, name: &str| {
        if secs(name) > 0.0 {
            amount / secs(name)
        } else {
            0.0
        }
    };
    let round_wall: f64 = walls.iter().sum();
    let self_sum: f64 = totals.values().map(|t| t.self_ns as f64 / 1e9).sum();

    out.put("round.wall_s", median(&walls));
    out.put("trace.self_sum_ratio", self_sum / round_wall);
    out.put(
        "tracing.overhead_share",
        median(&walls) / median(&plain) - 1.0,
    );
    out.put(
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.put("cellsim.tasks_per_s", per_s(tasks as f64, "run"));
    out.put("cellsim.round_share", secs("run") / round_wall);
    if verify {
        let ev = events as f64;
        out.put("cellsim.events_per_task", ev / tasks.max(1) as f64);
        out.put("analysis.check_events_per_s", per_s(ev, "check"));
        out.put("analysis.digest_events_per_s", per_s(ev, "digest"));
        out.put("obs.timeline_events_per_s", per_s(ev, "timeline"));
        out.put("obs.phases_events_per_s", per_s(ev, "phases"));
        out.put("obs.critpath_events_per_s", per_s(ev, "critpath"));
        out.put("obs.summary_events_per_s", per_s(ev, "summary"));
        out.put(
            "obs.chrome_mb_per_s",
            per_s(chrome_bytes as f64 / 1e6, "chrome"),
        );
        out.put(
            "event.encode_mb_per_s",
            per_s(json_bytes as f64 / 1e6, "encode"),
        );
        out.put("event.decode_mb_per_s", decode_probe(cfg));
    } else {
        let (plain_s, recorded_s) = record_probe(cfg);
        out.put("cellsim.record_overhead", recorded_s / plain_s);
        let (fire, cancel) = des_probe(if cfg.tiny { 50_000 } else { 1_000_000 });
        out.put("des.events_per_s", fire);
        out.put("des.cancel_events_per_s", cancel);
    }
}

/// The same MGPS run with and without event recording, wall seconds each.
fn record_probe(cfg: &RunCfg) -> (f64, f64) {
    let time = |record: bool| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let mut sim = config(SchedulerKind::Mgps, false, cfg);
                sim.workload = sim.workload.scaled(8);
                sim.record_events = record;
                let t = Instant::now();
                std::hint::black_box(run_simulation(sim));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    (time(false), time(true))
}

/// `minijson::parse` + `RunLog::from_value` in MB/s, on a log kept under
/// 256 KB because the parser's cost grows with the square of the input.
fn decode_probe(cfg: &RunCfg) -> f64 {
    let mut sim = config(SchedulerKind::Edtlp, true, cfg);
    sim.n_bootstraps = 1;
    sim.workload.tasks_per_bootstrap = if cfg.tiny { 40 } else { 160 };
    let log = run_simulation(sim).run_log.expect("record_events was set");
    let json = log.to_value().to_json();
    assert!(
        json.len() <= 256 * 1024,
        "decode probe log grew to {} bytes",
        json.len()
    );
    let t = Instant::now();
    let value = minijson::parse(&json).expect("the encoder's output parses");
    let back = RunLog::from_value(&value).expect("the encoder's output decodes");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(back.events.len(), log.events.len());
    json.len() as f64 / 1e6 / secs
}

/// Direct `des::sim::Sim` loops: events fired per second when nothing is
/// cancelled, and when every second scheduled event is cancelled.
fn des_probe(n: u64) -> (f64, f64) {
    let fire = {
        let mut sim = Sim::new(0u64);
        let t = Instant::now();
        for i in 0..n {
            sim.schedule_at(SimTime::ZERO + SimDuration::from_nanos(i % 997), |s| {
                *s.model_mut() += 1;
            });
        }
        sim.run();
        assert_eq!(*sim.model(), n);
        n as f64 / t.elapsed().as_secs_f64()
    };
    let cancel = {
        let mut sim = Sim::new(0u64);
        let t = Instant::now();
        for i in 0..n {
            let id = sim.schedule_at(SimTime::ZERO + SimDuration::from_nanos(i % 997), |s| {
                *s.model_mut() += 1;
            });
            if i % 2 == 1 {
                sim.cancel(id);
            }
        }
        sim.run();
        assert_eq!(*sim.model(), n / 2);
        n as f64 / t.elapsed().as_secs_f64()
    };
    (fire, cancel)
}
