//! Everything that reads results rather than producing them:
//! `BENCHMARK.json` as the single list of metric names, units, directions
//! and bounds; result sets on disk; `--compare`; `--check`.

use std::collections::BTreeMap;
use std::path::Path;

use minijson::Value;

use crate::harness::python_quartiles;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the first set's median by which the second may be worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string {key:?}"))
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = minijson::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("missing list {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better: text(m, "better")?,
                        bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing run_seconds")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The result of one run, as its result line gave it.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl RunRecord {
    pub fn from_line(
        workload: &str,
        seed: u64,
        trace: bool,
        line: &str,
    ) -> Result<RunRecord, String> {
        let v = minijson::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
        RunRecord::from_value(workload, seed, trace, &v)
            .ok_or_else(|| format!("{workload}: malformed result line"))
    }

    fn from_value(workload: &str, seed: u64, trace: bool, v: &Value) -> Option<RunRecord> {
        Some(RunRecord {
            workload: workload.to_string(),
            seed,
            trace,
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            metrics: v
                .get("metrics")?
                .as_object()?
                .iter()
                .map(|(name, m)| {
                    Some((
                        name.clone(),
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect::<Option<_>>()?,
        })
    }

    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.as_str(),
                    Value::object(vec![("value", (*v).into()), ("unit", u.as_str().into())]),
                )
            })
            .collect();
        Value::object(vec![
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("trace", self.trace.into()),
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::object(metrics)),
        ])
    }
}

pub fn one_line(r: &RunRecord) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| format!("{n}={v:.6}{u}"))
        .collect();
    format!(
        "{} seed {} {} {}/{} ok  {}",
        r.workload,
        r.seed,
        if r.correct { "correct" } else { "WRONG" },
        r.attempted - r.failed,
        r.attempted,
        metrics.join(" ")
    )
}

/// One workload's metrics, one per line. In the traced run, values of 0
/// (layers the workload does not exercise, counters with nothing to count)
/// are left out.
pub fn print_record(r: &RunRecord, spec: &Spec) {
    println!(
        "{} — {} of {} operations correct",
        r.workload,
        r.attempted - r.failed,
        r.attempted
    );
    let listed = if r.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for m in listed {
        let Some((_, value, unit)) = r.metrics.iter().find(|(n, _, _)| *n == m.name) else {
            continue;
        };
        if r.trace && *value == 0.0 {
            continue;
        }
        println!("  {:<34} {:>16.6} {}", m.name, value, unit);
    }
}

pub fn write_records(path: &Path, seconds: f64, records: &[RunRecord]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = Value::object(vec![
        ("seconds", seconds.into()),
        (
            "runs",
            Value::Array(records.iter().map(RunRecord::to_value).collect()),
        ),
    ]);
    std::fs::write(path, doc.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_records(path: &Path) -> Result<Vec<RunRecord>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = minijson::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no runs", path.display()))?
        .iter()
        .map(|v| {
            let workload = text(v, "workload")?;
            let seed = v
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or("run without a seed")?;
            let trace = v.get("trace").and_then(Value::as_bool).unwrap_or(false);
            RunRecord::from_value(&workload, seed, trace, v)
                .ok_or_else(|| format!("{}: malformed run", path.display()))
        })
        .collect()
}

/// Apply each end-to-end metric's bound to two result sets, one row per
/// (workload, metric). The spread of a set is the distance between its
/// first and third quartile as a share of its median, quartiles as
/// Python's `statistics.quantiles(values, n=4)` gives them. A pair whose
/// spread exceeds the bound is `unresolved`, not unchanged — unless every
/// run of B reads better than every run of A.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<(), String> {
    let (a, b) = (read_records(a)?, read_records(b)?);
    let values = |set: &[RunRecord], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == workload && !r.trace)
            .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == metric).map(|m| m.1))
            .collect()
    };
    println!(
        "{:<18} {:<12} {:>4} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "A q1 / median / q3", "B q1 / median / q3", "worse", "bound"
    );
    let mut regressed = 0;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&a, workload, &m.name), values(&b, workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {:<12} missing from one of the sets", m.name);
                continue;
            }
            let (qa, qb) = (python_quartiles(&va), python_quartiles(&vb));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let sign = if m.better == "higher" { -1.0 } else { 1.0 };
            let worse = sign * (qb[1] - qa[1]) / qa[1];
            let all_better = vb.iter().all(|y| va.iter().all(|x| sign * (y - x) < 0.0));
            // setup_s is held to its bound on the medians only.
            let noisy = m.name != "setup_s" && spread(qa).max(spread(qb)) > m.bound;
            let verdict = if all_better {
                "better in every run"
            } else if noisy {
                "unresolved (spread exceeds bound)"
            } else if worse > m.bound {
                regressed += 1;
                "REGRESSED"
            } else if worse < -m.bound {
                "improved"
            } else {
                "within bound"
            };
            let cell = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
            println!(
                "{workload:<18} {:<12} {:>4} {:>32} {:>32} {:>+7.1}% {:>5.0}%  {verdict}",
                m.name,
                va.len().min(vb.len()),
                cell(qa),
                cell(qb),
                worse * 100.0,
                m.bound * 100.0
            );
        }
        let wrong = |set: &[RunRecord]| {
            set.iter()
                .filter(|r| r.workload == *workload && !r.correct)
                .count()
        };
        if wrong(&a) + wrong(&b) > 0 {
            regressed += 1;
            println!(
                "{workload:<18} wrong output in {} run(s) of A and {} of B",
                wrong(&a),
                wrong(&b)
            );
        }
    }
    if regressed > 0 {
        return Err(format!("{regressed} pair(s) regressed or were wrong"));
    }
    Ok(())
}

/// The self-check that stands in for CI: tiny sizes, every workload in
/// both modes. Every name in `BENCHMARK.json` must come out exactly once
/// per run with a finite value, nothing else may come out, names must be
/// well-formed and unique, and every output must be correct.
pub fn check(
    spec: &Spec,
    mut run: impl FnMut(&str, bool) -> Result<RunRecord, String>,
) -> Result<(), String> {
    let mut seen = BTreeMap::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        let well_formed = !m.name.is_empty()
            && m.name.len() <= 64
            && m.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed {
            return Err(format!("metric name {:?} is not [A-Za-z0-9_.-]+", m.name));
        }
        if seen.insert(m.name.clone(), ()).is_some() {
            return Err(format!("metric {} is listed twice", m.name));
        }
    }
    if !spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
    {
        return Err("end_to_end lacks setup_s in s, lower is better".to_string());
    }
    let mut exercised = BTreeMap::new();
    for workload in &spec.workloads {
        for trace in [false, true] {
            let record = run(workload, trace)?;
            let listed = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let mut names: Vec<&str> = record.metrics.iter().map(|m| m.0.as_str()).collect();
            let mut wanted: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
            names.sort_unstable();
            wanted.sort_unstable();
            if names != wanted {
                return Err(format!(
                    "{workload} trace {}: emitted names differ from BENCHMARK.json",
                    trace as u8
                ));
            }
            if let Some(bad) = record
                .metrics
                .iter()
                .find(|m| !m.1.is_finite() || (!trace && m.1 <= 0.0))
            {
                return Err(format!("{workload}: {} = {}", bad.0, bad.1));
            }
            if !record.correct {
                return Err(format!(
                    "{workload} trace {}: {} of {} operations failed",
                    trace as u8, record.failed, record.attempted
                ));
            }
            for (name, value, _) in &record.metrics {
                if trace && *value != 0.0 {
                    *exercised.entry(name.clone()).or_insert(0) += 1;
                }
            }
            println!(
                "ok  {workload} trace {} ({} metrics, {} operations)",
                trace as u8,
                record.metrics.len(),
                record.attempted
            );
        }
    }
    // Counters that are 0 when all is well are exempt (as is the count of
    // `score` calls: the hill climber scores through `optimize_branches`
    // only); every other layer metric must be measured by some workload.
    let may_be_zero = [
        "fail_share",
        "serve.rejected",
        "serve.dropped_events",
        "serve.violations",
        "driver.late_share",
        "runtime.llp_activations",
        "runtime.gate_contention_s",
        "adapters.score_calls",
        "adapters.score_busy_s",
    ];
    for m in &spec.per_layer {
        if !exercised.contains_key(&m.name) && !may_be_zero.contains(&m.name.as_str()) {
            return Err(format!("{}: no workload's traced run measures it", m.name));
        }
    }
    println!(
        "check passed: {} workloads, {} end-to-end and {} per-layer metrics",
        spec.workloads.len(),
        spec.end_to_end.len(),
        spec.per_layer.len()
    );
    Ok(())
}
