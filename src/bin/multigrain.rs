//! `multigrain` — command-line front end for the whole workspace.
//!
//! ```text
//! multigrain simulate  --scheduler mgps --bootstraps 8 [--cells 2] [--scale 500] [--profile optimized]
//! multigrain trace     --scheduler mgps --bootstraps 8 [--seed S] [--out trace.json]
//! multigrain profile   --scheduler mgps --bootstraps 8 [--seed S] [--out report.html]
//! multigrain atlas     [--grid mini] [--seed S] [--shard 0/4] [--out atlas.json]
//! multigrain infer     --input data.fasta [--model jc|k80|gtr|poisson] [--gamma <alpha>|estimate]
//!                      [--search nni|spr] [--bootstraps N] [--seed S]
//! multigrain predict   --input data.fasta [--bootstraps N] [--scale 500]
//! multigrain demo      [--taxa 16] [--sites 400]
//! multigrain serve     [--port P] [--workers N] [--job-queue N] [--for-ms MS] [--out run.json]
//! multigrain loadgen   [--rate R] [--duration MS] [--seed S] [--tenants N] [--url HOST:PORT]
//! multigrain top       --url HOST:PORT [--frames N] [--interval-ms MS] [--plain on]
//! ```
//!
//! `simulate` drives the Cell BE model; `trace` replays a run with event
//! recording and exports a Chrome trace plus a metrics summary; `profile`
//! adds critical-path/what-if analysis and writes a self-contained HTML
//! report plus flamegraph-style folded stacks; `infer` runs a real DNA or
//! protein analysis — search, bootstraps and support under one model —
//! through the native multigrain runtime; `predict` derives a Cell
//! workload from your alignment and forecasts scheduler performance;
//! `demo` generates a synthetic alignment to play with;
//! `serve` keeps a native pool resident, admits phylo jobs over
//! `POST /jobs`, and exposes live telemetry over HTTP (`/metrics`,
//! `/health`, `/events`); `loadgen` is the seeded open-loop load-test
//! harness for that plane; `top` renders the feed as a terminal
//! dashboard.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use multigrain::bridge::workload_for;
use multigrain::prelude::*;

/// A classified CLI failure. Every command reports *why* it failed through
/// the process exit code, so scripts and CI can branch without scraping
/// stderr:
///
/// * `0` — success
/// * `1` — any other error (data, search, internal)
/// * `2` — usage: unknown command/flag or an unparseable value
/// * `3` — I/O: a file or socket could not be read, written, or bound
/// * `4` — checker: the run violated a schedule invariant (or a trace
///   refused export because it would record an illegal schedule)
/// * `5` — unrecovered fault: an armed `--faults` plan stranded at least
///   one task (retries exhausted with the PPE fallback disabled) — the
///   run *completed* but the workload did not
#[derive(Debug)]
enum CliError {
    Usage(String),
    Io(String),
    Violation(String),
    Unrecovered(String),
    Other(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
    fn io(msg: impl Into<String>) -> CliError {
        CliError::Io(msg.into())
    }
    fn violation(msg: impl Into<String>) -> CliError {
        CliError::Violation(msg.into())
    }
    fn unrecovered(msg: impl Into<String>) -> CliError {
        CliError::Unrecovered(msg.into())
    }

    fn code(&self) -> u8 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Violation(_) => 4,
            CliError::Unrecovered(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Violation(m)
            | CliError::Unrecovered(m)
            | CliError::Other(m) => m,
        }
    }
}

/// Untagged `format!(...)` errors stay exit code 1.
impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Other(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}\n{USAGE}", e.message());
            return ExitCode::from(e.code());
        }
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        name => match COMMANDS.iter().find(|(n, ..)| *n == name) {
            None => Err(CliError::usage(format!("unknown command {name:?}"))),
            Some((_, run, flags)) => match opts.keys().find(|k| !flags.contains(&k.as_str())) {
                Some(flag) => Err(CliError::usage(format!("{name} does not take --{flag}"))),
                None => run(&opts),
            },
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if matches!(e, CliError::Usage(_)) {
                eprintln!("error: {}\n{USAGE}", e.message());
            } else {
                eprintln!("error: {}", e.message());
            }
            ExitCode::from(e.code())
        }
    }
}

/// A command: its name, what runs it, and every flag it reads. Any other
/// flag is a usage error, not a silently ignored typo.
type Command = (&'static str, fn(&Opts) -> Result<(), CliError>, &'static [&'static str]);

const COMMANDS: [Command; 12] = [
    ("simulate", simulate, &["scheduler", "bootstraps", "cells", "scale", "profile", "faults"]),
    (
        "trace",
        trace,
        &["scheduler", "bootstraps", "cells", "scale", "seed", "out", "check", "faults"],
    ),
    ("profile", profile, &["scheduler", "bootstraps", "cells", "scale", "seed", "out"]),
    ("atlas", atlas_cmd, &["grid", "seed", "scale", "bootstraps", "shard", "out", "faults"]),
    ("analyze", analyze, &["scale", "bootstraps", "seed", "experiments"]),
    ("chaos", chaos, &["scheduler", "bootstraps", "scale", "seed", "rates", "faults"]),
    (
        "serve",
        serve_cmd,
        &[
            "port", "workers", "tasks", "seed", "poll-ms", "ring-capacity", "job-queue", "for-ms",
            "out", "faults", "tenant-weights",
        ],
    ),
    (
        "loadgen",
        loadgen_cmd,
        &[
            "rate", "duration", "seed", "tenants", "workers", "job-queue", "tenant-weights", "url",
            "out", "html",
        ],
    ),
    ("top", top_cmd, &["url", "frames", "interval-ms", "plain"]),
    ("infer", infer, &["input", "model", "gamma", "search", "bootstraps", "workers", "seed"]),
    ("predict", predict, &["input", "bootstraps", "scale"]),
    ("demo", demo, &["taxa", "sites", "seed", "format"]),
];

const USAGE: &str = "\
multigrain — dynamic multigrain parallelization (PPoPP'07 reproduction)

USAGE:
  multigrain simulate [--scheduler edtlp|linux|llp2|llp4|mgps] [--bootstraps N]
                      [--cells N] [--scale N] [--profile optimized|naive|ppe]
                      [--faults SPEC]
  multigrain trace    [--scheduler edtlp|linux|llp2|llp4|mgps] [--bootstraps N]
                      [--cells N] [--scale N] [--seed N] [--out FILE] [--check on|off]
                      [--faults SPEC]
                      (replay one run with event recording; write a Chrome
                       trace-event JSON and print a per-SPE metrics summary)
  multigrain chaos    [--scheduler edtlp|linux|llp2|llp4|mgps|all] [--bootstraps N]
                      [--scale N] [--seed N] [--rates F,F,...] [--faults SPEC]
                      (seeded fault sweep: inject every fault kind at each
                       rate under each scheduler, push every recorded log
                       through the schedule checker, and report survival —
                       tasks completed, retries, fallbacks, quarantines,
                       losses; --faults runs one explicit spec instead of
                       the rate sweep)
  multigrain profile  [--scheduler edtlp|linux|llp2|llp4|mgps] [--bootstraps N]
                      [--cells N] [--scale N] [--seed N] [--out FILE.html]
                      (critical-path profile: per-phase blame for the makespan,
                       what-if projections, a self-contained HTML report, and
                       flamegraph-ready folded stacks next to it)
  multigrain atlas    [--grid mini|default] [--seed N] [--scale N] [--bootstraps N]
                      [--shard I/N] [--out FILE.json] [--faults SPEC]
                      (granularity characterization sweep: run every grid
                       cell of (task size x arrival rate x loop width x
                       scheduler) through the invariant checker; write a
                       byte-deterministic mgps-atlas/v1 JSON plus a
                       self-contained HTML report with makespan surfaces,
                       crossover frontiers, and per-cell blame; a cell
                       whose checker run reports a violation is refused
                       and renders as n/a — and the sweep exits 4)
  multigrain analyze  [--scale N] [--bootstraps N] [--seed N] [--experiments on|off]
                      (replay every scheduler with event recording, statically
                       verify all schedule invariants, prove digest determinism,
                       and sweep every table/figure regenerator through the checker)
  multigrain serve    [--port N] [--workers N] [--tasks N] [--seed N] [--poll-ms N]
                      [--ring-capacity N] [--job-queue N] [--for-ms N] [--out FILE]
                      [--faults SPEC] [--tenant-weights W,W,...]
                      (live telemetry plane: keep the native MGPS pool resident,
                       admit POST /jobs phylo jobs (each scores the bootstrap
                       replicates of a seeded alignment, one off-load per
                       replicate; GET /jobs/<id> returns the lnLs) through
                       per-tenant queues under a deficit-round-robin dispatcher
                       (--tenant-weights; a POST that finds --job-queue jobs
                       queued gets 429 with Retry-After; queued jobs past
                       their deadline_ms are shed),
                       and serve /metrics (Prometheus text, with job latency
                       quantiles and per-tenant gauges), /health (JSON), and
                       /events (NDJSON decision+alarm+job stream) on 127.0.0.1;
                       with --faults armed, a job killed by an unrecovered
                       off-load retries with bounded deterministic backoff and
                       is quarantined as poison after the jobr budget (exit 4);
                       SIGINT or --for-ms drains admitted jobs, refuses new ones,
                       and writes a checker-valid run log; --tasks is accepted
                       and does nothing)
  multigrain loadgen  [--rate JOBS_PER_S] [--duration MS] [--seed N] [--tenants N]
                      [--workers N] [--job-queue N] [--tenant-weights W,W,...]
                      [--url HOST:PORT] [--out FILE.json] [--html FILE.html]
                      (seeded open-loop load test of the serve plane: exponential
                       interarrivals x bounded-Pareto job sizes through W model
                       servers on serve's own DRR job queue at 0.25x/0.5x/1x/2x/4x
                       the offered rate; writes a byte-deterministic mgps-loadtest/v1
                       JSON and a self-contained HTML report (per-tenant latency
                       CDFs, throughput-vs-offered-load, queue-depth timeline,
                       per-job blame); --url additionally drives the same 1x
                       schedule as live POST /jobs traffic against a running
                       serve and reports admission outcomes)
  multigrain top      [--url HOST:PORT] [--frames N] [--interval-ms N] [--plain on|off]
                      (live terminal dashboard over a running `serve`: per-SPE
                       utilization bars, LLP degree, stall counters, alarms)
  multigrain infer    --input FILE(.fasta|.phy) [--model jc|k80|gtr|poisson]
                      [--gamma ALPHA|estimate] [--search nni|spr]
                      [--bootstraps N] [--workers N] [--seed N]
                      (search, bootstraps and support under one model and its +G)
  multigrain predict  --input FILE [--bootstraps N] [--scale N]
  multigrain demo     [--taxa N] [--sites N] [--seed N] [--format fasta|phylip]

FAULT SPECS (--faults):
  comma-separated key=value pairs, e.g.
    seed=7,stall=0.05,dma=0.01          5% stalls + 1% DMA errors
    pin=crash@0                         crash exactly off-load 0
    broken=2,k=3,readmit=32             SPEs 0-1 always fault; bench after
                                        3 consecutive faults, probe every 32
    crash=0.5,retries=0,fallback=off    lethal: tasks are lost (exit 5, or
                                        4 where the checker sees the log)
  keys: seed, stall|crash|dma|mbox (fraction), broken, pin=<kind>@<task>,
        retries, backoff (ns), k, readmit, fallback=on|off, watchdog,
        jobr (serve-plane job retries before poison quarantine)

EXIT CODES:
  0  success
  1  other error (data, search, internal)
  2  usage: unknown command/flag or unparseable value
  3  I/O: file or socket could not be read, written, or bound
  4  checker: a schedule-invariant violation was detected
  5  unrecovered fault: an armed fault plan stranded at least one task";

type Opts = BTreeMap<String, String>;

fn parse_opts(rest: &[String]) -> Result<Opts, CliError> {
    let mut opts = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| CliError::usage(format!("expected --flag, got {flag:?}")))?;
        let val =
            it.next().ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
        opts.insert(key.to_string(), val.clone());
    }
    Ok(opts)
}

fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| CliError::usage(format!("--{key}: cannot parse {v:?}")))
        }
    }
}

/// Parse `--seed`. A seed is written into run logs and reports as a JSON
/// number, which holds integers exactly only up to 2^53: a larger one
/// would be rounded on the way out (`RunLog::from_value` then refuses the
/// file, and two such seeds share one digest header), so it is refused
/// here, at the door.
fn seed(opts: &Opts, default: u64) -> Result<u64, CliError> {
    const MAX: u64 = 1 << 53;
    let v = get(opts, "seed", default)?;
    if v > MAX {
        return Err(CliError::usage(format!(
            "--seed: {v} is above 2^53 ({MAX}), the largest seed a run log records exactly"
        )));
    }
    Ok(v)
}

/// Parse `--key` as a count that must be at least 1, with a clean error
/// naming what the value sizes (mirrors the `--bootstraps 0` diagnostics).
fn positive(opts: &Opts, key: &str, default: usize, what: &str) -> Result<usize, CliError> {
    let v = get(opts, key, default)?;
    if v == 0 {
        return Err(CliError::usage(format!("--{key}: {what}")));
    }
    Ok(v)
}

/// Parse `--faults` into a [`FaultPlan`] (inert when the flag is absent).
fn faults_of(opts: &Opts) -> Result<mgps_runtime::faults::FaultPlan, CliError> {
    match opts.get("faults") {
        None => Ok(mgps_runtime::faults::FaultPlan::inert()),
        Some(spec) => mgps_runtime::faults::FaultPlan::parse(spec)
            .map_err(|e| CliError::usage(format!("--faults: {e}"))),
    }
}

/// Parse `--tenant-weights` as comma-separated per-tenant DRR weights
/// (`4,2,1` gives tenant 0 weight 4; unlisted tenants weigh 1). Empty
/// when the flag is absent — equal weights, byte-identical logs.
fn tenant_weights_of(opts: &Opts) -> Result<Vec<u64>, CliError> {
    let Some(spec) = opts.get("tenant-weights") else { return Ok(Vec::new()) };
    spec.split(',')
        .map(|w| {
            let w: u64 = w
                .trim()
                .parse()
                .map_err(|_| CliError::usage(format!("--tenant-weights: cannot parse {w:?}")))?;
            if w == 0 {
                return Err(CliError::usage(
                    "--tenant-weights: every weight must be at least 1",
                ));
            }
            Ok(w)
        })
        .collect()
}

fn scheduler_of(opts: &Opts) -> Result<SchedulerKind, CliError> {
    Ok(match opts.get("scheduler").map(String::as_str).unwrap_or("mgps") {
        "edtlp" => SchedulerKind::Edtlp,
        "linux" => SchedulerKind::LinuxLike,
        "llp2" => SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        "llp4" => SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        "mgps" => SchedulerKind::Mgps,
        other => return Err(CliError::usage(format!("unknown scheduler {other:?}"))),
    })
}

/// `--input` as an alignment over `S` states, FASTA or PHYLIP.
fn load_alignment<const S: usize>(opts: &Opts) -> Result<Alignment<S>, CliError> {
    let path = opts.get("input").ok_or_else(|| CliError::usage("--input is required"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
    let parsed = if path.ends_with(".fasta") || path.ends_with(".fa") || text.starts_with('>') {
        Alignment::from_fasta(&text)
    } else {
        Alignment::from_phylip(&text)
    };
    parsed.map_err(|e| {
        // Amino acids read as DNA fail on their first non-nucleotide letter.
        let protein = S == STATES && matches!(e, AlignmentError::BadCharacter { .. });
        let hint = if protein { " (amino-acid data? `infer --model poisson` reads protein)" } else { "" };
        format!("{path}: {e}{hint}").into()
    })
}

fn simulate(opts: &Opts) -> Result<(), CliError> {
    let scheduler = scheduler_of(opts)?;
    let bootstraps = get(opts, "bootstraps", 8usize)?;
    if bootstraps == 0 {
        return Err(CliError::usage("--bootstraps: the workload needs at least 1 bootstrap"));
    }
    let cells = positive(opts, "cells", 1, "the blade needs at least 1 Cell processor")?;
    let scale = positive(opts, "scale", 500, "the workload scale must be at least 1")?;
    let faults = faults_of(opts)?;
    let mut cfg = machines::blade_config(cells, scheduler, bootstraps, scale);
    cfg.faults = faults;
    cfg.profile = match opts.get("profile").map(String::as_str).unwrap_or("optimized") {
        "optimized" => KernelProfile::Optimized,
        "naive" => KernelProfile::Naive,
        "ppe" => KernelProfile::PpeOnly,
        other => return Err(CliError::usage(format!("unknown profile {other:?}"))),
    };
    let r = run_simulation(cfg);
    println!("scheduler          {}", scheduler.label());
    println!("bootstraps         {bootstraps} on {cells} Cell(s)");
    println!("makespan           {:.2} s (paper scale)", r.paper_scale_secs);
    println!("mean SPE util      {:.0}%", r.mean_spe_utilization * 100.0);
    println!("context switches   {}", r.context_switches);
    println!("tasks              {}", r.tasks_completed);
    println!("code reloads       {}", r.code_reloads);
    if let Some((evals, acts, deacts)) = r.mgps_counters {
        println!("MGPS               {evals} windows, {acts} activations, {deacts} deactivations, final degree {}", r.final_degree);
    }
    if faults.armed() {
        let f = r.faults;
        println!(
            "faults             {} injected, {} retries, {} PPE fallbacks, {} quarantines, {} readmissions, {} lost",
            f.injected, f.retries, f.ppe_fallbacks, f.quarantines, f.readmissions, f.lost
        );
    }
    if r.unrecovered {
        return Err(CliError::unrecovered(format!(
            "{} task(s) lost: retries exhausted with the PPE fallback disabled",
            r.faults.lost
        )));
    }
    Ok(())
}

/// `multigrain trace` — replay one run with event recording, export a
/// Chrome trace-event JSON document, and print the metrics summary in the
/// schema shared with the native runtime.
///
/// With `--check on` (the default) the recorded log is first pushed
/// through the schedule-invariant checker, and the trace's per-SPE busy
/// totals are cross-validated against the checker's independent
/// accounting before anything is written.
fn trace(opts: &Opts) -> Result<(), CliError> {
    let scheduler = scheduler_of(opts)?;
    let bootstraps = get(opts, "bootstraps", 8usize)?;
    if bootstraps == 0 {
        return Err(CliError::usage("--bootstraps: the workload needs at least 1 bootstrap"));
    }
    let cells = positive(opts, "cells", 1, "the blade needs at least 1 Cell processor")?;
    let scale = positive(opts, "scale", 500, "the workload scale must be at least 1")?;
    let seed = seed(opts, 0x5eedu64)?;
    let check = match opts.get("check").map(String::as_str).unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(CliError::usage(format!("--check: expected on|off, got {other:?}"))),
    };

    let mut cfg = machines::blade_config(cells, scheduler, bootstraps, scale);
    cfg.seed = seed;
    cfg.record_events = true;
    // Granularity rulings ride the trace as MGPS-thread instants.
    cfg.granularity_verdicts = true;
    cfg.faults = faults_of(opts)?;
    let r = run_simulation(cfg);
    if r.unrecovered {
        return Err(CliError::unrecovered(format!(
            "refusing to export a trace of a stranded workload: {} task(s) lost",
            r.faults.lost
        )));
    }
    let log = r.run_log.expect("record_events was set");
    let summary = ObsSummary::from_log(&log);

    if check {
        let report = mgps_analysis::check_run(&log);
        if !report.is_clean() {
            return Err(CliError::violation(format!(
                "refusing to export a trace of an illegal schedule:\n{}",
                report.render()
            )));
        }
        if summary.busy_ns != report.spe_busy_ns {
            return Err(CliError::violation(format!(
                "trace busy accounting diverged from the checker: {:?} vs {:?}",
                summary.busy_ns, report.spe_busy_ns
            )));
        }
    }

    let json = chrome_trace(&log);
    let out = match opts.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => experiments::Experiment::default_dir()
            .join(format!("trace-{}-{seed:#x}.json", log.scheduler)),
    };
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| CliError::io(format!("{}: {e}", parent.display())))?;
    }
    std::fs::write(&out, &json).map_err(|e| CliError::io(format!("{}: {e}", out.display())))?;

    print!("{}", summary.render_text());
    println!(
        "trace              {} ({} events, {} bytes{})",
        out.display(),
        log.events.len(),
        json.len(),
        if check { ", checker-verified" } else { "" }
    );
    Ok(())
}

/// `multigrain profile` — critical-path profiling of one recorded run.
///
/// Replays a run with event recording, verifies it, then blames the
/// makespan on the granularity phases along the critical path, projects
/// three what-if scenarios against the same dependence structure, and
/// writes a self-contained HTML report plus flamegraph-ready folded
/// stacks.
fn profile(opts: &Opts) -> Result<(), CliError> {
    use mgps_obs::{what_if, CriticalPath, Phase, RunSource, WhatIf};

    let scheduler = scheduler_of(opts)?;
    let bootstraps = get(opts, "bootstraps", 8usize)?;
    if bootstraps == 0 {
        return Err(CliError::usage("--bootstraps: the workload needs at least 1 bootstrap"));
    }
    let cells = positive(opts, "cells", 1, "the blade needs at least 1 Cell processor")?;
    let scale = positive(opts, "scale", 500, "the workload scale must be at least 1")?;
    let seed = seed(opts, 0x5eedu64)?;

    let mut cfg = machines::blade_config(cells, scheduler, bootstraps, scale);
    cfg.seed = seed;
    cfg.record_events = true;
    let r = run_simulation(cfg);
    let log = r.run_log.expect("record_events was set");

    let report = mgps_analysis::check_run(&log);
    if !report.is_clean() {
        return Err(CliError::violation(format!(
            "refusing to profile an illegal schedule:\n{}",
            report.render()
        )));
    }

    let cp = CriticalPath::from_log(&log);
    println!("scheduler          {}", log.scheduler);
    println!("makespan           {:.3} ms ({} critical-path steps)", cp.makespan_ns as f64 / 1e6, cp.steps.len());
    println!("critical-path blame:");
    for &phase in &Phase::ALL {
        let ns = cp.blame.get(phase);
        let pct = if cp.makespan_ns > 0 { 100.0 * ns as f64 / cp.makespan_ns as f64 } else { 0.0 };
        let marker = if phase == cp.dominant() { "  <- dominant" } else { "" };
        println!("  {:<7} {:>12.3} ms {:>5.1}%{}", phase.name(), ns as f64 / 1e6, pct, marker);
    }
    println!("what-if projections:");
    for (label, knobs) in [
        ("+1 SPE", WhatIf { extra_spes: 1, ..WhatIf::default() }),
        ("2x DMA bandwidth", WhatIf { dma_scale: 0.5, ..WhatIf::default() }),
        ("LLP degree 4", WhatIf { degree_override: Some(4), ..WhatIf::default() }),
    ] {
        let o = what_if(&log, knobs);
        println!(
            "  {:<17} {:>12.3} ms  ({:.2}x)",
            label,
            o.predicted_makespan_ns as f64 / 1e6,
            o.speedup
        );
    }

    let html = mgps_obs::html_report(&log, RunSource::Simulated);
    let out = match opts.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => experiments::Experiment::default_dir()
            .join(format!("profile-{}-{seed:#x}.html", log.scheduler)),
    };
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| CliError::io(format!("{}: {e}", parent.display())))?;
    }
    std::fs::write(&out, &html).map_err(|e| CliError::io(format!("{}: {e}", out.display())))?;
    let folded_path = out.with_extension("folded");
    let folded = mgps_obs::folded_stacks(&log);
    std::fs::write(&folded_path, &folded)
        .map_err(|e| CliError::io(format!("{}: {e}", folded_path.display())))?;

    println!("report             {} ({} bytes)", out.display(), html.len());
    println!("folded stacks      {} ({} lines)", folded_path.display(), folded.lines().count());
    Ok(())
}

/// `multigrain atlas` — the granularity characterization sweep.
///
/// Runs every cell of a preset grid over (task size × arrival rate ×
/// loop width × scheduler) through `experiments::checked_run`, then
/// writes two byte-deterministic artifacts: the `mgps-atlas/v1` JSON
/// (per-cell records, per-scheduler winners, crossover frontier) and a
/// self-contained HTML report (makespan/utilization heatmaps, frontier
/// overlay, per-cell blame drill-down). Cells whose checker run reports
/// a violation are refused — they render as explicit `n/a`, and the
/// command exits 4 after writing both artifacts.
fn atlas_cmd(opts: &Opts) -> Result<(), CliError> {
    use experiments::{sweep, SweepConfig};
    use mgps_obs::GridSpec;

    let grid_name = opts.get("grid").map(String::as_str).unwrap_or("default");
    let grid = GridSpec::preset(grid_name).ok_or_else(|| {
        CliError::usage(format!("--grid: unknown preset {grid_name:?} (mini|default)"))
    })?;
    let seed = seed(opts, 0x5eedu64)?;
    let scale = positive(opts, "scale", 4_000, "the workload scale must be at least 1")?;
    let bootstraps = positive(opts, "bootstraps", 2, "each cell needs at least 1 bootstrap")?;
    let shard = match opts.get("shard") {
        None => None,
        Some(s) => {
            let parsed = s.split_once('/').and_then(|(i, n)| {
                let i: usize = i.parse().ok()?;
                let n: usize = n.parse().ok()?;
                (n > 0 && i < n).then_some((i, n))
            });
            Some(parsed.ok_or_else(|| {
                CliError::usage(format!("--shard: expected I/N with I < N, got {s:?}"))
            })?)
        }
    };
    let cfg = SweepConfig {
        grid,
        seed,
        scale,
        n_bootstraps: bootstraps,
        shard,
        faults: faults_of(opts)?,
    };

    let atlas = sweep(&cfg);

    let out = match opts.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => experiments::Experiment::default_dir()
            .join(format!("atlas-{}-{seed:#x}.json", cfg.grid.name)),
    };
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| CliError::io(format!("{}: {e}", parent.display())))?;
    }
    let json = atlas.to_json();
    std::fs::write(&out, &json).map_err(|e| CliError::io(format!("{}: {e}", out.display())))?;
    let html_path = out.with_extension("html");
    let html = atlas.render_html();
    std::fs::write(&html_path, &html)
        .map_err(|e| CliError::io(format!("{}: {e}", html_path.display())))?;

    println!(
        "grid               {} ({} points x {} schedulers = {} cells, {} run)",
        cfg.grid.name,
        cfg.grid.points(),
        cfg.grid.schedulers.len(),
        cfg.grid.cells(),
        atlas.cells.len()
    );
    if let Some((i, n)) = shard {
        println!("shard              {i}/{n}");
    }
    println!("winners            {}", atlas
        .winner_counts()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(s, n)| format!("{s}:{n}"))
        .collect::<Vec<_>>()
        .join(" "));
    let frontier = atlas.frontier();
    println!("frontier           {} crossover edge(s)", frontier.len());
    for e in &frontier {
        println!(
            "  {} -> {} along {} at (task {} us, gap {} us, iters {})",
            e.winner_a,
            e.winner_b,
            e.axis,
            e.a.task_mean_ns / 1000,
            e.a.ppe_gap_ns / 1000,
            e.a.loop_iters
        );
    }
    println!("atlas              {} ({} bytes)", out.display(), json.len());
    println!("report             {} ({} bytes)", html_path.display(), html.len());

    let violations = atlas.violations();
    if violations > 0 {
        return Err(CliError::violation(format!(
            "{violations} schedule-invariant violation(s); {} cell(s) refused",
            atlas.cells.iter().filter(|c| c.violations > 0).count()
        )));
    }
    Ok(())
}

/// `multigrain analyze` — the static schedule-invariant checker.
///
/// Replays every scheduler configuration with structured event recording,
/// verifies the full invariant catalog (see `mgps-analysis`), proves the
/// deterministic-replay property (same seed ⇒ identical trace digest), and
/// optionally funnels every table/figure regenerator through the
/// `experiments::checked_run` hook.
fn analyze(opts: &Opts) -> Result<(), CliError> {
    let scale = positive(opts, "scale", 2_000, "the workload scale must be at least 1")?;
    let bootstraps = get(opts, "bootstraps", 4usize)?;
    if bootstraps == 0 {
        return Err(CliError::usage("--bootstraps: the analyzed runs need at least 1 bootstrap"));
    }
    let seed = seed(opts, 0x5eedu64)?;
    let with_experiments = match opts.get("experiments").map(String::as_str).unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(CliError::usage(format!("--experiments: expected on|off, got {other:?}"))),
    };

    let record = |scheduler: SchedulerKind| {
        let mut cfg = SimConfig::cell_42sc(scheduler, bootstraps, scale);
        cfg.seed = seed;
        cfg.record_events = true;
        run_simulation(cfg).run_log.expect("record_events was set")
    };

    println!("schedule-invariant analysis ({bootstraps} bootstraps, scale {scale}, seed {seed:#x})");
    let mut violations = 0usize;
    for scheduler in [
        SchedulerKind::Edtlp,
        SchedulerKind::LinuxLike,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let log = record(scheduler);
        let report = mgps_analysis::check_run(&log);
        let digest = mgps_analysis::digest_hex(&log);
        let verdict = if report.is_clean() {
            "clean".to_string()
        } else {
            format!("{} VIOLATION(S)", report.violations.len())
        };
        println!(
            "  {:<44} {:>7} events {:>5} tasks  digest {digest}  {verdict}",
            scheduler.label(),
            report.events_checked,
            report.tasks_checked
        );
        print!("{}", report.render());
        violations += report.violations.len();

        // Deterministic replay: the same seed must reproduce the exact
        // event stream, hence the exact digest.
        let replay = mgps_analysis::digest_hex(&record(scheduler));
        if replay != digest {
            return Err(CliError::violation(format!(
                "{} replay diverged: digest {digest} vs {replay} from the same seed",
                scheduler.label()
            )));
        }
    }

    if with_experiments {
        println!("sweeping every table/figure regenerator through the checker...");
        experiments::reset_tally();
        let n = experiments::all(scale).len();
        let tally = experiments::tally();
        println!(
            "  {n} regenerators: {} checked runs, {} events, {} violation(s)",
            tally.runs,
            tally.events,
            tally.violations.len()
        );
        for line in &tally.violations {
            println!("  {line}");
        }
        violations += tally.violations.len();
    }

    if violations > 0 {
        return Err(CliError::violation(format!("{violations} schedule-invariant violation(s) found")));
    }
    println!("all schedule invariants hold; replay is digest-deterministic");
    Ok(())
}

/// `multigrain chaos` — seeded fault sweeps with checker-verified survival.
///
/// For each scheduler and each fault rate, arms a [`FaultPlan`] injecting
/// every fault kind at that rate, replays the workload with event
/// recording, and pushes the log through the schedule-invariant checker.
/// Each cell is replayed a second time to prove the faulted run is
/// digest-deterministic — same (workload seed, fault spec) pair, same
/// byte-identical event stream.
///
/// Exit classification, most-diagnostic first: any checker violation is 4
/// (a lethal plan that *loses* tasks lands here — the checker sees the
/// stranded off-load in the log); otherwise a stranded workload that the
/// checker could not see is 5; otherwise 0 and every admitted task
/// completed exactly once.
///
/// [`FaultPlan`]: mgps_runtime::faults::FaultPlan
fn chaos(opts: &Opts) -> Result<(), CliError> {
    use mgps_runtime::faults::{FaultPlan, PPM};

    let bootstraps = get(opts, "bootstraps", 4usize)?;
    if bootstraps == 0 {
        return Err(CliError::usage("--bootstraps: the chaos runs need at least 1 bootstrap"));
    }
    let scale = positive(opts, "scale", 2_000, "the workload scale must be at least 1")?;
    let seed = seed(opts, 0x5eedu64)?;

    let schedulers: Vec<SchedulerKind> =
        match opts.get("scheduler").map(String::as_str).unwrap_or("all") {
            "all" => vec![
                SchedulerKind::Edtlp,
                SchedulerKind::LinuxLike,
                SchedulerKind::StaticHybrid { spes_per_loop: 2 },
                SchedulerKind::StaticHybrid { spes_per_loop: 4 },
                SchedulerKind::Mgps,
            ],
            _ => vec![scheduler_of(opts)?],
        };

    // One explicit spec, or a sweep arming every fault kind at each rate.
    let plans: Vec<FaultPlan> = match opts.get("faults") {
        Some(spec) => vec![
            FaultPlan::parse(spec).map_err(|e| CliError::usage(format!("--faults: {e}")))?
        ],
        None => {
            let rates = opts.get("rates").map(String::as_str).unwrap_or("0.001,0.01,0.05");
            rates
                .split(',')
                .map(str::trim)
                .filter(|r| !r.is_empty())
                .map(|r| {
                    let f: f64 = r
                        .parse()
                        .ok()
                        .filter(|f| (0.0..=1.0).contains(f))
                        .ok_or_else(|| {
                            CliError::usage(format!("--rates: expected fractions in [0,1], got {r:?}"))
                        })?;
                    let ppm = (f * PPM as f64).round() as u32;
                    Ok(FaultPlan { seed, rate_ppm: [ppm; 4], ..FaultPlan::inert() })
                })
                .collect::<Result<_, CliError>>()?
        }
    };

    println!("chaos sweep ({bootstraps} bootstraps, scale {scale}, seed {seed:#x})");
    let mut violations = 0usize;
    let mut lost = 0u64;
    for plan in &plans {
        println!("fault spec: {}", plan.to_spec());
        for &scheduler in &schedulers {
            let record = || {
                let mut cfg = SimConfig::cell_42sc(scheduler, bootstraps, scale);
                cfg.seed = seed;
                cfg.record_events = true;
                cfg.faults = *plan;
                run_simulation(cfg)
            };
            let r = record();
            let log = r.run_log.as_ref().expect("record_events was set");
            let report = mgps_analysis::check_run(log);
            let digest = mgps_analysis::digest_hex(log);
            let replay =
                mgps_analysis::digest_hex(record().run_log.as_ref().expect("record_events was set"));
            if replay != digest {
                return Err(CliError::violation(format!(
                    "{} chaos replay diverged: digest {digest} vs {replay} from the same seed",
                    scheduler.label()
                )));
            }
            let f = r.faults;
            let verdict = if !report.is_clean() {
                format!("{} VIOLATION(S)", report.violations.len())
            } else if r.unrecovered {
                "STRANDED".to_string()
            } else {
                "survived".to_string()
            };
            println!(
                "  {:<44} {:>5} tasks  {:>4} faults {:>4} retries {:>4} fallbacks {:>3} bench {:>3} readmit {:>3} lost  {verdict}",
                scheduler.label(),
                r.tasks_completed,
                f.injected,
                f.retries,
                f.ppe_fallbacks,
                f.quarantines,
                f.readmissions,
                f.lost
            );
            print!("{}", report.render());
            violations += report.violations.len();
            lost += f.lost;
        }
    }

    if violations > 0 {
        return Err(CliError::violation(format!(
            "{violations} schedule-invariant violation(s) across the sweep"
        )));
    }
    if lost > 0 {
        return Err(CliError::unrecovered(format!("{lost} task(s) lost across the sweep")));
    }
    println!("every admitted task completed exactly once; replay is digest-deterministic");
    Ok(())
}

/// `multigrain serve` — the live telemetry plane (see `multigrain::serve`).
///
/// Keeps a native MGPS runtime resident, runs the phylo jobs `POST /jobs`
/// admits, and serves `/metrics`, `/health`, `/events` and `/jobs/<id>` on
/// loopback.
/// Shuts down gracefully on SIGINT or after `--for-ms`, draining the trace
/// rings into a checker-verified run log; a violation (including ring
/// drops from an undersized `--ring-capacity`) exits with code 4.
fn serve_cmd(opts: &Opts) -> Result<(), CliError> {
    use multigrain::serve::{serve, ServeConfig};

    let defaults = ServeConfig::default();
    // Accepted so existing command lines keep working; it has no effect.
    positive(opts, "tasks", 1, "--tasks must be at least 1")?;
    let cfg = ServeConfig {
        port: get(opts, "port", 0u16)?,
        workers: positive(opts, "workers", defaults.workers, "the service needs at least 1 worker")?,
        seed: seed(opts, defaults.seed)?,
        poll_ms: positive(opts, "poll-ms", defaults.poll_ms as usize, "the telemetry cadence must be at least 1 ms")?
            as u64,
        ring_capacity: positive(
            opts,
            "ring-capacity",
            defaults.ring_capacity,
            "trace rings need at least 1 slot",
        )?,
        duration_ms: match opts.get("for-ms") {
            None => None,
            Some(_) => Some(get(opts, "for-ms", 0u64)?),
        },
        job_queue: positive(
            opts,
            "job-queue",
            defaults.job_queue,
            "the admission queue needs at least 1 slot",
        )?,
        out: opts.get("out").map(std::path::PathBuf::from),
        faults: match opts.get("faults") {
            None => None,
            Some(_) => Some(faults_of(opts)?),
        },
        tenant_weights: tenant_weights_of(opts)?,
    };
    let outcome = serve(&cfg).map_err(|e| CliError::io(e.to_string()))?;
    if outcome.violations > 0 {
        return Err(CliError::violation(format!(
            "{} schedule-invariant violation(s) in the service run log",
            outcome.violations
        )));
    }
    if outcome.jobs_poisoned > 0 {
        return Err(CliError::violation(format!(
            "{} job(s) quarantined as poison after exhausting their retry budget",
            outcome.jobs_poisoned
        )));
    }
    Ok(())
}

/// `multigrain loadgen` — the seeded load-test harness for the serve plane.
///
/// Runs the deterministic open-loop queueing model (exponential
/// interarrivals × bounded-Pareto job sizes, W model servers popping
/// serve's own deficit-round-robin job queue, built from `--job-queue` and
/// `--tenant-weights` as `serve` builds it) at five rate multipliers,
/// writes the `mgps-loadtest/v1` JSON and the self-contained HTML report —
/// both byte-deterministic for a given seed — and, with `--url`, replays
/// the 1× arrival schedule as live `POST /jobs` traffic against a running
/// `serve`.
fn loadgen_cmd(opts: &Opts) -> Result<(), CliError> {
    use multigrain::loadgen::{drive, run_loadtest, LoadgenConfig};

    let d = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        rate: get(opts, "rate", d.rate)?,
        duration_ms: positive(
            opts,
            "duration",
            d.duration_ms as usize,
            "the load test needs at least 1 ms of traffic",
        )? as u64,
        seed: seed(opts, d.seed)?,
        tenants: positive(opts, "tenants", d.tenants, "the traffic needs at least 1 tenant")?,
        workers: positive(opts, "workers", d.workers, "the model needs at least 1 server")?,
        queue_cap: positive(
            opts,
            "job-queue",
            d.queue_cap,
            "the admission queue needs at least 1 slot",
        )?,
        tenant_weights: tenant_weights_of(opts)?,
    };
    if !cfg.rate.is_finite() || cfg.rate <= 0.0 {
        return Err(CliError::usage("--rate: the offered load must be a positive jobs/second"));
    }

    let report = run_loadtest(&cfg);

    let out = match opts.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => experiments::Experiment::default_dir()
            .join(format!("loadtest-{:#x}.json", cfg.seed)),
    };
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| CliError::io(format!("{}: {e}", parent.display())))?;
    }
    let json = report.to_json();
    std::fs::write(&out, &json).map_err(|e| CliError::io(format!("{}: {e}", out.display())))?;
    let html_path = match opts.get("html") {
        Some(p) => std::path::PathBuf::from(p),
        None => out.with_extension("html"),
    };
    let html = report.render_html();
    std::fs::write(&html_path, &html)
        .map_err(|e| CliError::io(format!("{}: {e}", html_path.display())))?;

    println!(
        "offered load       {} jobs/s for {} ms, {} tenant(s), {} server(s), queue cap {}",
        cfg.rate, cfg.duration_ms, cfg.tenants, cfg.workers, cfg.queue_cap
    );
    for run in &report.curve {
        println!(
            "  {:>5.2}x  offered {:>6}  admitted {:>6}  rejected {:>5}  throughput {:>8.1}/s  p50 {:>8.2} ms  p99 {:>8.2} ms",
            run.multiplier,
            run.offered,
            run.admitted,
            run.rejected,
            run.throughput_per_s,
            run.p50_ns.unwrap_or(0.0) / 1e6,
            run.p99_ns.unwrap_or(0.0) / 1e6,
        );
    }
    println!(
        "verdicts           goodput {} ({:.1}% completed in-horizon), rejects {} ({:.2}% refused), fairness {} (Jain {:.3})",
        report.verdicts.goodput,
        report.verdicts.goodput_fraction * 100.0,
        report.verdicts.rejects,
        report.verdicts.reject_fraction * 100.0,
        report.verdicts.fairness,
        report.verdicts.jain_index,
    );
    println!("loadtest           {} ({} bytes)", out.display(), json.len());
    println!("report             {} ({} bytes)", html_path.display(), html.len());

    if let Some(url) = opts.get("url") {
        let live = drive(url, &cfg).map_err(CliError::Io)?;
        println!(
            "live drive         {url}: {} sent, {} admitted, {} rejected, {} draining, {} errors",
            live.sent, live.admitted, live.rejected, live.draining, live.errors
        );
        if live.retried > 0 {
            println!(
                "retry-after        honored {} advised backoff(s), {} retry POST(s) then admitted",
                live.retried, live.recovered
            );
        }
    }
    Ok(())
}

/// `multigrain top` — scrape a running `serve` and render a dashboard.
fn top_cmd(opts: &Opts) -> Result<(), CliError> {
    use multigrain::serve::{run_top, TopConfig};

    let plain = match opts.get("plain").map(String::as_str).unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(CliError::usage(format!("--plain: expected on|off, got {other:?}"))),
    };
    let cfg = TopConfig {
        url: opts.get("url").cloned().unwrap_or_else(|| "127.0.0.1:9090".to_string()),
        frames: get(opts, "frames", 0u64)?,
        interval_ms: get(opts, "interval-ms", 500u64)?,
        plain,
    };
    run_top(&cfg).map_err(CliError::Io)
}

fn infer(opts: &Opts) -> Result<(), CliError> {
    match opts.get("model").map(String::as_str).unwrap_or("jc") {
        "jc" => infer_with(Jc69, opts),
        "k80" => infer_with(K80::new(2.0), opts),
        "gtr" => infer_with(Gtr::example(), opts),
        "poisson" => infer_with(PoissonAa, opts),
        other => Err(CliError::usage(format!(
            "unknown model {other:?} (expected jc|k80|gtr|poisson)"
        ))),
    }
}

/// `multigrain infer` under `model`, or under `model`+Γ with `--gamma`: an
/// estimated shape is fitted on the plain-model ML tree, then held fixed.
fn infer_with<M: SubstModel<S> + Clone + 'static, const S: usize>(
    model: M,
    opts: &Opts,
) -> Result<(), CliError> {
    let seed = seed(opts, 42u64)?;
    let bootstraps = get(opts, "bootstraps", 0usize)?;
    let workers = positive(opts, "workers", 4, "the runtime needs at least 1 worker process")?;
    let spr = match opts.get("search").map(String::as_str).unwrap_or("nni") {
        "nni" => false,
        "spr" => true,
        other => return Err(CliError::usage(format!("unknown search {other:?}"))),
    };
    // `Some(None)`: estimate the shape.
    let gamma = match opts.get("gamma").map(String::as_str) {
        None => None,
        Some("estimate") => Some(None),
        Some(v) => match v.parse::<f64>() {
            Ok(alpha) if alpha.is_finite() && alpha > 0.0 => Some(Some(alpha)),
            _ => {
                return Err(CliError::usage(format!(
                    "--gamma: {v:?} is neither a finite positive shape nor `estimate`"
                )))
            }
        },
    };
    let aln = load_alignment::<S>(opts)?;
    let data = Arc::new(PatternAlignment::compress(&aln));

    println!(
        "alignment: {} taxa x {} sites ({} patterns)",
        data.n_taxa(),
        data.n_sites(),
        data.n_patterns()
    );

    let run = (spr, seed, bootstraps, workers);
    let tree = match gamma {
        None => search_and_bootstrap(model, &data, run),
        Some(alpha) => {
            let alpha = alpha.unwrap_or_else(|| {
                let plain = ml_search(&model, &data, spr, seed);
                estimate_alpha(&model, &data, &plain.tree, 4, 0.05, 50.0).0
            });
            println!("+G alpha           {alpha:.4}");
            search_and_bootstrap(Gamma::new(model, alpha, 4), &data, run)
        }
    };
    println!("{}", tree.to_newick(aln.taxa()));
    Ok(())
}

/// The ML search `--search` names, deterministic in `seed`.
fn ml_search<M: SubstModel<S>, const S: usize>(
    model: &M,
    data: &PatternAlignment<S>,
    spr: bool,
    seed: u64,
) -> SearchResult {
    if spr {
        spr_hill_climb(model, data, &SearchConfig::default(), 3, seed)
    } else {
        hill_climb(model, data, &SearchConfig::default(), seed)
    }
}

/// The one inference pipeline: the ML search, then the bootstraps on the
/// MGPS runtime and the support of the ML tree's bipartitions, all under
/// `model`. Prints each result and returns the ML tree.
fn search_and_bootstrap<M: SubstModel<S> + Clone + 'static, const S: usize>(
    model: M,
    data: &Arc<PatternAlignment<S>>,
    (spr, seed, bootstraps, workers): (bool, u64, usize, usize),
) -> Tree {
    let result = ml_search(&model, data, spr, seed);
    println!("best tree lnL      {:.4}", result.lnl);
    println!("NNI/SPR accepted   {}", result.accepted_moves);
    if bootstraps > 0 {
        println!("running {bootstraps} bootstraps on {workers} worker processes (MGPS runtime)...");
        let analysis = ParallelAnalysis::cell(SchedulerKind::Mgps, workers);
        let (reps, stats) = analysis.run_bootstraps(model, data, bootstraps, seed);
        let trees: Vec<Tree> = reps.into_iter().map(|r| r.tree).collect();
        let support = support_values(&result.tree, &trees);
        println!(
            "support            {:?}",
            support.iter().map(|s| (s * 100.0).round() as u32).collect::<Vec<_>>()
        );
        println!("context switches   {}", stats.context_switches);
    }
    result.tree
}

fn predict(opts: &Opts) -> Result<(), CliError> {
    let bootstraps = get(opts, "bootstraps", 8usize)?;
    let scale = positive(opts, "scale", 500, "the workload scale must be at least 1")?;
    let aln = load_alignment(opts)?;
    let data = PatternAlignment::compress(&aln);
    let workload = workload_for(&data).scaled(scale);
    println!(
        "derived Cell workload: {} tasks/bootstrap (scaled), {} loop iterations, task mean {}",
        workload.tasks_per_bootstrap, workload.loop_iters, workload.task_mean
    );
    println!("\npredicted makespans for {bootstraps} bootstraps on one Cell:");
    for scheduler in [
        SchedulerKind::LinuxLike,
        SchedulerKind::Edtlp,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let mut cfg = SimConfig::cell_42sc(scheduler, bootstraps, 1);
        cfg.workload = workload;
        let r = run_simulation(cfg);
        println!("  {:<42} {:>9.2} s", scheduler.label(), r.paper_scale_secs);
    }
    Ok(())
}

fn demo(opts: &Opts) -> Result<(), CliError> {
    let taxa = get(opts, "taxa", 16usize)?;
    let sites = get(opts, "sites", 400usize)?;
    let seed = seed(opts, 7u64)?;
    let aln = Alignment::synthetic(taxa, sites, &Jc69, 0.08, seed);
    match opts.get("format").map(String::as_str).unwrap_or("fasta") {
        "fasta" => print!("{}", aln.to_fasta()),
        "phylip" => print!("{}", aln.to_phylip()),
        other => return Err(CliError::usage(format!("unknown format {other:?}"))),
    }
    Ok(())
}
