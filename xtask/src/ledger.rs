//! `cargo xtask ledger` — the one writer of `BENCH_<n>.json`.
//!
//! A perf PR measures parent and change as alternating pairs of
//! `benchmark/run.sh --sets 1 --seed <s> --out <file>` runs. This merges
//! those files per side into one ledger with one `summary` shape — per
//! (workload, end-to-end metric): pairs, wins, quartiles, spread, hold-out
//! and a verdict against the bound `BENCHMARK.json` fixes — and prints the
//! trajectory of every committed ledger, so a drift that stays "within
//! bound" from each parent to its child still shows across them.

use std::collections::BTreeMap;
use std::path::Path;

use minijson::Value;

pub const USAGE: &str =
    "usage: cargo xtask ledger [--pr N --parent <set.json>… --change <set.json>… \
    [--claim workload.metric] [--title T] [--parent-commit SHA] \
    [--attach key=<file.json>]…]\n\
    without --pr: print the trajectory of the committed BENCH_*.json only";

/// The seed the frozen benchmark holds out: reported on its own row, never
/// in the quartiles.
const HOLD_OUT: u64 = 7919;

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Metric {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the change may be worse.
    pub bound: f64,
}

/// One untraced run of one workload: its seed, its metrics, its failures.
struct Run {
    workload: String,
    seed: u64,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    minijson::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

/// Workload names and end-to-end metrics, in `BENCHMARK.json`'s order.
pub fn read_spec(path: &Path) -> Result<(Vec<String>, Vec<Metric>), String> {
    let doc = read_json(path)?;
    let list = |key: &str| {
        doc.get(key).and_then(Value::as_array).ok_or_else(|| format!("BENCHMARK.json: no {key}"))
    };
    let name = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or("BENCHMARK.json: unnamed entry")
    };
    let workloads = list("workloads")?.iter().map(name).collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: name(m)?,
                lower_is_better: m.get("better").and_then(Value::as_str) != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end metric without a bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// The untraced runs of a `run.sh --sets` result set.
fn runs_of(set: &Value) -> Result<Vec<Run>, String> {
    let runs = set.get("runs").and_then(Value::as_array).ok_or("result set without runs")?;
    runs.iter()
        .filter(|r| r.get("trace").and_then(Value::as_bool) != Some(true))
        .map(|r| {
            let count = |key: &str| r.get(key).and_then(Value::as_u64);
            Some(Run {
                workload: r.get("workload")?.as_str()?.to_string(),
                seed: count("seed")?,
                attempted: count("attempted")?,
                failed: count("failed")?,
                metrics: r
                    .get("metrics")?
                    .as_object()?
                    .iter()
                    .map(|(n, m)| Some((n.clone(), m.get("value")?.as_f64()?)))
                    .collect::<Option<_>>()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "malformed run in result set".to_string())
}

/// The three quartile cut points as Python's `statistics.quantiles(v, n=4)`
/// gives them — the driver's and `run.sh --compare`'s measure of spread.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Distance between the outer quartiles as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1]
}

fn quartile_object(q: [f64; 3]) -> Value {
    Value::object(vec![("q1", q[0].into()), ("median", q[1].into()), ("q3", q[2].into())])
}

/// One (workload, metric) pairing of the two sides.
struct Pairing {
    pairs: usize,
    change_wins: usize,
    ties: usize,
    parent: [f64; 3],
    change: [f64; 3],
    /// Change median over parent median, minus one.
    shift: f64,
    hold_out: Option<(f64, f64)>,
    verdict: &'static str,
}

const WORSE: &str = "worse than bound";
const UNRESOLVED: &str = "unresolved (spread exceeds bound)";
const HOLDS: &str = "no worse within bound";

impl Pairing {
    /// Pair the two sides' runs of `workload` by seed. The hold-out seed is
    /// reported on its own and stays out of the quartiles.
    fn of(parent: &[Run], change: &[Run], workload: &str, m: &Metric) -> Option<Pairing> {
        let by_seed = |runs: &[Run]| -> BTreeMap<u64, f64> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| Some((r.seed, r.metric(&m.name)?)))
                .collect()
        };
        let (p, c) = (by_seed(parent), by_seed(change));
        let pairs: Vec<(f64, f64)> = p
            .iter()
            .filter(|(seed, _)| **seed != HOLD_OUT)
            .filter_map(|(seed, x)| Some((*x, *c.get(seed)?)))
            .collect();
        if pairs.is_empty() {
            return None;
        }
        // Positive when `y` reads better than `x`.
        let gain = |x: f64, y: f64| if m.lower_is_better { x - y } else { y - x };
        let (ps, cs): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        let (qp, qc) = (quartiles(&ps), quartiles(&cs));
        let worse_by = -gain(qp[1], qc[1]) / qp[1];
        let every_run_better = cs.iter().all(|y| ps.iter().all(|x| gain(*x, *y) > 0.0));
        let verdict = if worse_by > m.bound {
            WORSE
        } else if spread(qp).max(spread(qc)) > m.bound && !every_run_better {
            UNRESOLVED
        } else {
            HOLDS
        };
        Some(Pairing {
            pairs: pairs.len(),
            change_wins: pairs.iter().filter(|(x, y)| gain(*x, *y) > 0.0).count(),
            ties: pairs.iter().filter(|(x, y)| x == y).count(),
            parent: qp,
            change: qc,
            shift: qc[1] / qp[1] - 1.0,
            hold_out: p.get(&HOLD_OUT).copied().zip(c.get(&HOLD_OUT).copied()),
            verdict,
        })
    }

    fn to_value(&self) -> Value {
        let hold_key = format!("hold_out_{HOLD_OUT}");
        let mut members = vec![
            ("pairs", self.pairs.into()),
            ("change_wins", self.change_wins.into()),
            ("ties", self.ties.into()),
            ("parent", quartile_object(self.parent)),
            ("change", quartile_object(self.change)),
            ("median_change_vs_parent", self.shift.into()),
            ("parent_iqr_over_median", spread(self.parent).into()),
            ("change_iqr_over_median", spread(self.change).into()),
        ];
        if let Some((p, c)) = self.hold_out {
            members
                .push((&hold_key, Value::object(vec![("parent", p.into()), ("change", c.into())])));
        }
        members.push(("verdict", self.verdict.into()));
        Value::object(members)
    }

    /// The gain rule: the change wins at least nine tenths of the pairs (a
    /// tie is a win for neither side), the medians differ by more than the
    /// distance between the parent's quartiles, and the hold-out agrees.
    fn claim(&self, workload: &str, m: &Metric) -> Value {
        let needed = self.pairs * 9;
        let gap = if m.lower_is_better {
            self.parent[1] - self.change[1]
        } else {
            self.change[1] - self.parent[1]
        };
        let iqr = self.parent[2] - self.parent[0];
        let hold_out_better =
            self.hold_out.map(|(p, c)| if m.lower_is_better { c < p } else { c > p });
        let met = self.change_wins * 10 >= needed && gap > iqr && hold_out_better != Some(false);
        Value::object(vec![
            ("workload", workload.into()),
            ("metric", m.name.as_str().into()),
            ("pairs", self.pairs.into()),
            ("change_wins", self.change_wins.into()),
            ("median_gain", gap.into()),
            ("median_change_vs_parent", self.shift.into()),
            ("parent_iqr", iqr.into()),
            ("hold_out_better", hold_out_better.map_or(Value::Null, Value::from)),
            ("met", met.into()),
        ])
    }
}

/// What `write` needs besides the result sets.
pub struct LedgerArgs {
    pub pr: u64,
    pub title: Option<String>,
    pub parent_commit: Option<String>,
    /// `workload.metric` whose gain the PR claims.
    pub claim: Option<String>,
    /// Extra documents embedded under their key (traced rows, side checks).
    pub attach: Vec<(String, Value)>,
}

/// The ledger document for one PR from each side's result sets.
pub fn ledger(
    args: &LedgerArgs,
    workloads: &[String],
    metrics: &[Metric],
    parent_sets: &[Value],
    change_sets: &[Value],
) -> Result<Value, String> {
    let side = |sets: &[Value]| -> Result<Vec<Run>, String> {
        Ok(sets.iter().map(runs_of).collect::<Result<Vec<_>, _>>()?.into_iter().flatten().collect())
    };
    let (parent, change) = (side(parent_sets)?, side(change_sets)?);
    let seconds =
        parent_sets.first().and_then(|s| s.get("seconds")).cloned().unwrap_or(Value::Null);

    let mut summary = Vec::new();
    let (mut worse, mut unresolved) = (Vec::new(), Vec::new());
    let mut claim = Value::Null;
    for w in workloads {
        let mut rows = Vec::new();
        for m in metrics {
            let Some(pairing) = Pairing::of(&parent, &change, w, m) else {
                continue;
            };
            let name = format!("{w}.{}", m.name);
            match pairing.verdict {
                WORSE => worse.push(Value::from(name.as_str())),
                UNRESOLVED => unresolved.push(Value::from(name.as_str())),
                _ => {}
            }
            if args.claim.as_deref() == Some(&name) {
                claim = pairing.claim(w, m);
            }
            rows.push((m.name.as_str(), pairing.to_value()));
        }
        let total = |runs: &[Run], pick: fn(&Run) -> u64| -> u64 {
            runs.iter().filter(|r| r.workload == *w).map(pick).sum()
        };
        rows.push((
            "failed",
            Value::object(vec![
                ("parent", total(&parent, |r| r.failed).into()),
                ("change", total(&change, |r| r.failed).into()),
                ("attempted_parent", total(&parent, |r| r.attempted).into()),
                ("attempted_change", total(&change, |r| r.attempted).into()),
            ]),
        ));
        summary.push((w.as_str(), Value::object(rows)));
    }
    if args.claim.is_some() && claim == Value::Null {
        return Err(format!("--claim {:?} names no measured pairing", args.claim));
    }

    let text = |s: &Option<String>| s.as_deref().map_or(Value::Null, Value::from);
    let mut doc = vec![
        ("schema", "mgbench-ledger/v1".into()),
        ("pr", args.pr.into()),
        ("title", text(&args.title)),
        ("parent_commit", text(&args.parent_commit)),
        (
            "command",
            "benchmark/run.sh --sets 1 --seed <seed> --out <file>, one per side per seed, sides \
             alternating; merged by cargo xtask ledger"
                .into(),
        ),
        ("seconds", seconds),
        ("hold_out_seed", HOLD_OUT.into()),
        ("claim", claim),
        (
            "verdict",
            Value::object(vec![
                ("worse_than_bound", Value::Array(worse)),
                ("unresolved", Value::Array(unresolved)),
                (
                    "rule",
                    "worse: change median worse than parent median by more than the bound; \
                     unresolved: either side IQR/median above the bound unless every change run \
                     beats every parent run; hold-out seed reported apart, not in the quartiles"
                        .into(),
                ),
            ]),
        ),
        ("summary", Value::object(summary)),
    ];
    doc.extend(args.attach.iter().map(|(k, v)| (k.as_str(), v.clone())));
    doc.push((
        "sets",
        Value::object(vec![
            ("parent", Value::Array(parent_sets.to_vec())),
            ("change", Value::Array(change_sets.to_vec())),
        ]),
    ));
    Ok(Value::object(doc))
}

/// `round_s` medians of every ledger, parent → change, one row per
/// workload. Seconds, or `ms` below 10 ms.
pub fn trajectory(ledgers: &[(u64, Value)], workloads: &[String]) -> String {
    let cell = |v: f64| if v < 0.01 { format!("{:.3}ms", v * 1e3) } else { format!("{v:.4}") };
    let mut out = String::from(
        "round_s medians per ledger, parent -> change. A ledger is one host phase: a PR's effect \
         is the step inside its column; a step from one column's change to the next column's \
         parent is drift no PR claimed\n",
    );
    out.push_str(&format!("{:<20}", "workload"));
    for (pr, _) in ledgers {
        out.push_str(&format!("{:>22}", format!("PR {pr}")));
    }
    out.push('\n');
    for w in workloads {
        out.push_str(&format!("{w:<20}"));
        for (_, doc) in ledgers {
            let median = |side: &str| {
                doc.get("summary")?.get(w)?.get("round_s")?.get(side)?.get("median")?.as_f64()
            };
            let shown = match (median("parent"), median("change")) {
                (Some(p), Some(c)) => format!("{} -> {}", cell(p), cell(c)),
                _ => "-".to_string(),
            };
            out.push_str(&format!("{shown:>22}"));
        }
        out.push('\n');
    }
    out
}

/// Every `BENCH_<n>.json` at the repository root, by PR number.
fn committed_ledgers(root: &Path) -> Result<Vec<(u64, Value)>, String> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let number = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse::<u64>().ok());
        if let Some(pr) = number {
            found.push((pr, read_json(&path)?));
        }
    }
    found.sort_by_key(|(pr, _)| *pr);
    Ok(found)
}

/// The command line: write the ledger if `--pr` is given, then print the
/// trajectory of everything committed.
pub fn run(root: &Path, args: &[String]) -> Result<(), String> {
    let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut key = None;
    for a in args {
        match a.strip_prefix("--") {
            Some(k) => {
                flags.entry(k.to_string()).or_default();
                key = Some(k.to_string());
            }
            None => flags
                .get_mut(key.as_ref().ok_or_else(|| format!("stray argument {a:?}\n{USAGE}"))?)
                .expect("the flag was entered when it was read")
                .push(a.clone()),
        }
    }
    let one = |k: &str| flags.get(k).and_then(|v| v.first()).cloned();
    let (workloads, metrics) = read_spec(&root.join("BENCHMARK.json"))?;

    if let Some(pr) = one("pr") {
        let pr: u64 = pr.parse().map_err(|_| format!("--pr {pr:?} is not a number\n{USAGE}"))?;
        let sets = |k: &str| -> Result<Vec<Value>, String> {
            let files = flags.get(k).filter(|f| !f.is_empty());
            let files =
                files.ok_or_else(|| format!("--{k} needs at least one result set\n{USAGE}"))?;
            files.iter().map(|f| read_json(Path::new(f))).collect()
        };
        let attach = flags
            .get("attach")
            .into_iter()
            .flatten()
            .map(|kv| {
                let (k, file) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--attach {kv:?} is not key=file\n{USAGE}"))?;
                Ok((k.to_string(), read_json(Path::new(file))?))
            })
            .collect::<Result<_, String>>()?;
        let ledger_args = LedgerArgs {
            pr,
            title: one("title"),
            parent_commit: one("parent-commit"),
            claim: one("claim"),
            attach,
        };
        let doc = ledger(&ledger_args, &workloads, &metrics, &sets("parent")?, &sets("change")?)?;
        let out = root.join(format!("BENCH_{pr}.json"));
        std::fs::write(&out, doc.to_json_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("xtask ledger: wrote {}", out.display());
    }
    print!("{}", trajectory(&committed_ledgers(root)?, &workloads));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result set of one workload: `(seed, round_s)` per run.
    fn set(runs: &[(u64, f64)]) -> Value {
        let runs = runs
            .iter()
            .map(|&(seed, round_s)| {
                Value::object(vec![
                    ("workload", "w".into()),
                    ("seed", seed.into()),
                    ("trace", false.into()),
                    ("correct", true.into()),
                    ("attempted", 10u64.into()),
                    ("failed", 0u64.into()),
                    (
                        "metrics",
                        Value::object(vec![(
                            "round_s",
                            Value::object(vec![("value", round_s.into()), ("unit", "s".into())]),
                        )]),
                    ),
                ])
            })
            .collect();
        Value::object(vec![("seconds", 12.0.into()), ("runs", Value::Array(runs))])
    }

    fn args(claim: Option<&str>) -> LedgerArgs {
        LedgerArgs {
            pr: 99,
            title: None,
            parent_commit: None,
            claim: claim.map(str::to_string),
            attach: vec![("note".to_string(), "kept".into())],
        }
    }

    fn spec() -> (Vec<String>, Vec<Metric>) {
        let round_s = Metric { name: "round_s".to_string(), lower_is_better: true, bound: 0.25 };
        (vec!["w".to_string()], vec![round_s])
    }

    #[test]
    fn two_fixture_sets_merge_into_the_summary_shape() {
        let (workloads, metrics) = spec();
        // Two files per side, as two alternating campaigns leave them; the
        // hold-out seed rides in the second.
        let parent = [set(&[(1, 1.00), (2, 1.10), (3, 1.20)]), set(&[(4, 1.30), (7919, 1.05)])];
        let change = [set(&[(1, 0.50), (2, 0.55), (3, 1.25)]), set(&[(4, 0.60), (7919, 0.52)])];
        let doc = ledger(&args(Some("w.round_s")), &workloads, &metrics, &parent, &change).unwrap();

        let row = doc.get("summary").unwrap().get("w").unwrap().get("round_s").unwrap();
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(num(row, "pairs"), 4.0, "the hold-out seed is not a pair");
        assert_eq!(num(row, "change_wins"), 3.0);
        assert_eq!(num(row, "ties"), 0.0);
        // statistics.quantiles([1.0, 1.1, 1.2, 1.3], n=4) == [1.025, 1.15, 1.275]
        let parent_q = row.get("parent").unwrap();
        assert!((num(parent_q, "q1") - 1.025).abs() < 1e-12);
        assert!((num(parent_q, "median") - 1.15).abs() < 1e-12);
        assert!((num(parent_q, "q3") - 1.275).abs() < 1e-12);
        assert!((num(row, "parent_iqr_over_median") - 0.25 / 1.15).abs() < 1e-12);
        assert!((num(row, "median_change_vs_parent") - (0.575 / 1.15 - 1.0)).abs() < 1e-12);
        let hold = row.get("hold_out_7919").unwrap();
        assert_eq!((num(hold, "parent"), num(hold, "change")), (1.05, 0.52));
        // The change's runs spread over more than the bound and one of them
        // loses to a parent run: not "unchanged", unresolved.
        assert_eq!(row.get("verdict").unwrap().as_str(), Some(UNRESOLVED));
        let verdict = doc.get("verdict").unwrap();
        assert_eq!(verdict.get("unresolved").unwrap().as_array().unwrap().len(), 1);
        assert!(verdict.get("worse_than_bound").unwrap().as_array().unwrap().is_empty());

        // Three wins of four is short of nine tenths: the claim is not met.
        let claim = doc.get("claim").unwrap();
        assert_eq!(claim.get("met").unwrap().as_bool(), Some(false));
        assert_eq!(claim.get("hold_out_better").unwrap().as_bool(), Some(true));

        let failed = doc.get("summary").unwrap().get("w").unwrap().get("failed").unwrap();
        assert_eq!(num(failed, "attempted_parent"), 50.0);
        assert_eq!(doc.get("note").unwrap().as_str(), Some("kept"));
        assert_eq!(doc.get("sets").unwrap().get("change").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_gain_rule() {
        let (workloads, metrics) = spec();
        let parent = [set(&[(1, 1.00), (2, 1.01), (3, 1.02), (4, 1.03), (7919, 1.0)])];
        let verdict_of = |change: &Value, claim: bool| {
            let claim = claim.then_some("w.round_s");
            let doc =
                ledger(&args(claim), &workloads, &metrics, &parent, std::slice::from_ref(change))
                    .unwrap();
            let row = doc.get("summary").unwrap().get("w").unwrap().get("round_s").unwrap();
            (
                row.get("verdict").unwrap().as_str().unwrap().to_string(),
                doc.get("claim").unwrap().get("met").and_then(Value::as_bool),
            )
        };
        let faster = set(&[(1, 0.60), (2, 0.61), (3, 0.62), (4, 0.63), (7919, 0.6)]);
        assert_eq!(verdict_of(&faster, true), (HOLDS.to_string(), Some(true)));
        let slower = set(&[(1, 1.40), (2, 1.41), (3, 1.42), (4, 1.43), (7919, 1.4)]);
        assert_eq!(verdict_of(&slower, false), (WORSE.to_string(), None));
        // Faster in the pairs but slower on the hold-out seed: no gain.
        let overfit = set(&[(1, 0.60), (2, 0.61), (3, 0.62), (4, 0.63), (7919, 1.2)]);
        assert_eq!(verdict_of(&overfit, true), (HOLDS.to_string(), Some(false)));
        // A claim on a pairing nobody measured is an error, not a null.
        let bad = LedgerArgs { claim: Some("w.setup_s".to_string()), ..args(None) };
        assert!(ledger(&bad, &workloads, &metrics, &parent, &[faster]).is_err());
    }

    #[test]
    fn the_trajectory_shows_every_ledger_side_by_side() {
        let (workloads, metrics) = spec();
        let mut ledgers = Vec::new();
        for (pr, parent, change) in [(1, 0.40, 0.004), (2, 0.0045, 0.005)] {
            let a = LedgerArgs { pr, ..args(None) };
            let doc =
                ledger(&a, &workloads, &metrics, &[set(&[(1, parent)])], &[set(&[(1, change)])]);
            ledgers.push((pr, doc.unwrap()));
        }
        let table = trajectory(&ledgers, &workloads);
        let row = table.lines().find(|l| l.starts_with("w ")).unwrap();
        assert!(row.contains("0.4000 -> 4.000ms"), "{table}");
        assert!(row.contains("4.500ms -> 5.000ms"), "{table}");
        assert!(table.contains("PR 1") && table.contains("PR 2"));
    }
}
