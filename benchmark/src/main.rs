//! `mgbench` — the repository's benchmark. `benchmark/run.sh` builds it and
//! passes its arguments through; see that file for the modes, and
//! `benchmark/README.md` for what is measured and why.

mod anchors;
mod boot;
mod harness;
mod report;
mod serve;
mod sim;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use anchors::{Anchors, ANCHORED_SEEDS, HOLD_OUT_SEED};
use harness::{calib_ms, handover_us, Outcome, RunCfg};
use minijson::Value;
use report::{RunRecord, Spec};

const USAGE: &str = "usage: run.sh [--workload W --seed N --seconds S --trace 0|1] | --check | \
                     --sets K --out F.json | --compare A.json B.json | --write-anchors";

struct Args {
    flags: HashMap<String, String>,
    /// Bare arguments (the two files of `--compare`).
    rest: Vec<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut rest = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key @ ("check" | "compare" | "write-anchors" | "tiny")) => {
                    flags.insert(key.to_string(), String::new());
                }
                Some(key) => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{key} needs a value\n{USAGE}"))?;
                    flags.insert(key.to_string(), value);
                }
                None => rest.push(a),
            }
        }
        Ok(Args { flags, rest })
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot read {v:?}\n{USAGE}")),
        }
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.flags
            .get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("--{key} is required\n{USAGE}"))
    }
}

fn run_workload(workload: &str, cfg: &RunCfg, anchors: &Anchors) -> Result<Outcome, String> {
    if let Some(spec) = boot::spec(workload, cfg.tiny) {
        return Ok(boot::run(&spec, cfg, anchors));
    }
    Ok(match workload {
        "sim_core" => sim::run(false, cfg, anchors),
        "sim_verify" => sim::run(true, cfg, anchors),
        "serve_open" => serve::run(cfg),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// One run as the driver asks for it: the result object is the last line
/// of stdout; everything else goes to stderr.
fn single(args: &Args, spec: &Spec, bench_dir: &std::path::Path) -> Result<(), String> {
    let workload: String = args.get("workload", String::new())?;
    if !spec.workloads.contains(&workload) {
        return Err(format!("--workload must be one of {:?}", spec.workloads));
    }
    let cfg = RunCfg {
        seed: args.get("seed", 1)?,
        seconds: args.get("seconds", spec.run_seconds)?,
        trace: args.get::<u8>("trace", 0)? != 0,
        tiny: args.has("tiny"),
        serve_bin: args.path("serve-bin")?,
        out_dir: bench_dir.join("out"),
    };
    let anchors = Anchors::load(&bench_dir.join("anchors.json"))?;
    let mut outcome = run_workload(&workload, &cfg, &anchors)?;
    if cfg.trace {
        outcome.put("host.calib_ms", calib_ms());
        outcome.put("host.handover_us", handover_us());
    }
    for note in &outcome.notes {
        eprintln!("{workload}: {note}");
    }

    let wanted = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for m in wanted {
        let value = match outcome.metrics.iter().find(|(name, _)| *name == m.name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(&(_, v)) => return Err(format!("{workload}: {} measured as {v}", m.name)),
            // A layer this workload does not exercise reads 0 in its traced run.
            None if cfg.trace => 0.0,
            None => return Err(format!("{workload}: {} was not measured", m.name)),
        };
        metrics.push((
            m.name.as_str(),
            Value::object(vec![
                ("value", value.into()),
                ("unit", m.unit.as_str().into()),
            ]),
        ));
    }
    if let Some((stray, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "{workload}: emitted {stray}, which BENCHMARK.json does not list"
        ));
    }
    if outcome.attempted == 0 {
        return Err(format!("{workload}: nothing was attempted"));
    }
    let line = Value::object(vec![
        ("correct", (outcome.failed == 0).into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Value::object(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(())
}

/// Run this binary again for one (workload, seed, trace) and parse the
/// result line: every multi-run mode measures in a process of its own, so
/// that peak memory belongs to one workload.
fn child_run(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    for key in ["spec", "bench-dir", "serve-bin"] {
        cmd.arg(format!("--{key}")).arg(args.path(key)?);
    }
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if tiny {
        cmd.arg("--tiny");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: exited with {}",
            trace as u8, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: printed nothing"))?;
    RunRecord::from_line(workload, seed, trace, last)
}

/// Every workload with tracing off, then the traced run; every metric by
/// name with its unit.
fn all(args: &Args, spec: &Spec, bench_dir: &std::path::Path) -> Result<(), String> {
    let seed = args.get("seed", 1)?;
    let seconds = args.get("seconds", spec.run_seconds)?;
    let mut records = Vec::new();
    let mut wrong = 0;
    for trace in [false, true] {
        println!(
            "== {} (seed {seed}, {seconds} s per workload) ==",
            if trace {
                "traced run: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            }
        );
        for workload in &spec.workloads {
            let record = child_run(args, workload, seed, seconds, trace, false)?;
            wrong += usize::from(!record.correct);
            report::print_record(&record, spec);
            records.push(record);
        }
    }
    let path = bench_dir.join("out").join(format!("run-{seed}.json"));
    report::write_records(&path, seconds, &records)?;
    println!("results written to {}", path.display());
    if wrong > 0 {
        return Err(format!("{wrong} run(s) produced wrong output"));
    }
    Ok(())
}

/// `K` end-to-end runs per workload on seeds `N..N+K-1`, as one result set.
fn sets(args: &Args, spec: &Spec) -> Result<(), String> {
    let (k, seed0): (u64, u64) = (args.get("sets", 10)?, args.get("seed", 1)?);
    let seconds = args.get("seconds", spec.run_seconds)?;
    let out = args.path("out")?;
    let mut records = Vec::new();
    for workload in &spec.workloads {
        for seed in seed0..seed0 + k {
            let record = child_run(args, workload, seed, seconds, false, false)?;
            eprintln!("{}", report::one_line(&record));
            records.push(record);
        }
    }
    report::write_records(&out, seconds, &records)?;
    println!("{} runs written to {}", records.len(), out.display());
    Ok(())
}

/// Regenerate `anchors.json`. Only a change that redefines the benchmark
/// may do this; a change that claims a gain must leave the file alone.
fn write_anchors(bench_dir: &std::path::Path) -> Result<(), String> {
    let mut sizes = Vec::new();
    for (key, tiny) in [("full", false), ("tiny", true)] {
        let mut seeds = Vec::new();
        for seed in ANCHORED_SEEDS {
            eprintln!("anchoring {key} seed {seed}");
            let cfg = RunCfg {
                seed,
                seconds: 0.0,
                trace: false,
                tiny,
                serve_bin: PathBuf::new(),
                out_dir: bench_dir.join("out"),
            };
            let mut entry = Vec::new();
            for w in ["boot_adaptive", "boot_offload_task", "boot_offload_loop"] {
                entry.push((w, anchors::boot_value(&boot::anchor_facts(w, tiny, seed))));
            }
            entry.push((
                "sim_core",
                anchors::sim_value(&sim::anchor_facts(false, &cfg)),
            ));
            entry.push((
                "sim_verify",
                anchors::sim_value(&sim::anchor_facts(true, &cfg)),
            ));
            seeds.push((seed.to_string(), Value::object(entry)));
        }
        sizes.push((key, Value::Object(seeds)));
    }
    let mut doc = vec![(
        "note",
        Value::from(format!(
            "Outputs every run must reproduce for these seeds ({HOLD_OUT_SEED} is the hold-out seed). \
             Written by run.sh --write-anchors; see benchmark/README.md."
        )),
    )];
    doc.extend(sizes);
    let path = bench_dir.join("anchors.json");
    std::fs::write(&path, Value::object(doc).to_json_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<(), String> {
    let args = Args::parse()?;
    let bench_dir = args.path("bench-dir")?;
    let spec = Spec::load(&args.path("spec")?)?;
    if args.has("compare") {
        let [a, b] = args.rest.as_slice() else {
            return Err(format!("--compare takes two result sets\n{USAGE}"));
        };
        return report::compare(&spec, a.as_ref(), b.as_ref());
    }
    if args.has("check") {
        return report::check(&spec, |workload, trace| {
            child_run(&args, workload, 1, 1.0, trace, true)
        });
    }
    if args.has("write-anchors") {
        return write_anchors(&bench_dir);
    }
    if args.has("sets") {
        return sets(&args, &spec);
    }
    if args.has("workload") {
        return single(&args, &spec, &bench_dir);
    }
    all(&args, &spec, &bench_dir)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("mgbench: {why}");
            ExitCode::FAILURE
        }
    }
}
