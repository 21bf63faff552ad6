//! `boot_adaptive`, `boot_offload_task`, `boot_offload_loop`: the paper's
//! application — bootstrap tree searches with every likelihood kernel going
//! through the native runtime — in the production configuration and in the
//! two dispatch shapes the runtime has.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use multigrain::adapters::OffloadedEngine;
use multigrain::mgps_obs::quantile_from_log2_buckets;
use multigrain::mgps_runtime::metrics::{AtomicMetrics, Counter, HistKind, MetricsSink};
use multigrain::mgps_runtime::native::{
    GateMode, LoopBody, LoopSite, MgpsRuntime, PpeGate, RuntimeConfig, SpeContext, SpePool,
    TeamRunner,
};
use multigrain::mgps_runtime::policy::SchedulerKind;
use multigrain::mgps_runtime::tracing::{TraceEventKind, TraceLog, Tracer};
use multigrain::parallel::ParallelAnalysis;
use multigrain::phylo::alignment::{Alignment, PatternAlignment};
use multigrain::phylo::bootstrap::bootstrap_replicate;
use multigrain::phylo::likelihood::LikelihoodEngine;
use multigrain::phylo::model::Jc69;
use multigrain::phylo::search::{hill_climb, hill_climb_with, ScoringEngine, SearchConfig};
use multigrain::phylo::tree::Tree;

use crate::anchors::{Anchors, BootAnchor};
use crate::harness::{
    median, peak_rss_mb, quantile, timed_rounds, Gauge, Outcome, RunCfg, Spans, SplitMix64,
};

/// Log-likelihood sums must agree this closely: with the plain serial
/// search, with the warm-up round, and with `anchors.json`.
const LNL_TOLERANCE: f64 = 1e-6;

pub struct BootSpec {
    pub workload: String,
    taxa: usize,
    sites: usize,
    /// Distinct site patterns of every generated alignment. Kernel cost is
    /// proportional to it, so it is pinned rather than left to the seed.
    patterns: usize,
    bootstraps: usize,
    analysis: ParallelAnalysis,
    /// Kernel invocations of the nominal round that `round_s` is quoted
    /// for (see `scaled_round_s`).
    nominal_calls: f64,
}

/// The sizes and configuration of a `boot_*` workload; `None` for any
/// other name.
pub fn spec(workload: &str, tiny: bool) -> Option<BootSpec> {
    let search = SearchConfig::default();
    let plain = |scheduler, workers| ParallelAnalysis {
        runtime: RuntimeConfig::cell(scheduler),
        workers,
        search,
    };
    let (taxa, sites, patterns, bootstraps, analysis, nominal_calls) = match workload {
        // Production configuration: granularity control on, so kernels
        // throttle to the PPE and the dispatch path is mostly bypassed.
        "boot_adaptive" => (
            6,
            400,
            300,
            4,
            ParallelAnalysis::cell(SchedulerKind::Mgps, 2),
            64_000.0,
        ),
        // Every kernel is one single-SPE off-load.
        "boot_offload_task" => (6, 120, 60, 4, plain(SchedulerKind::Edtlp, 2), 40_000.0),
        // Every kernel is one four-way work-shared loop.
        "boot_offload_loop" => (
            6,
            120,
            60,
            1,
            plain(SchedulerKind::StaticHybrid { spes_per_loop: 4 }, 1),
            10_000.0,
        ),
        _ => return None,
    };
    let bootstraps = if tiny { analysis.workers } else { bootstraps };
    let (taxa, sites, patterns) = if tiny {
        (5, 60, 24)
    } else {
        (taxa, sites, patterns)
    };
    Some(BootSpec {
        workload: workload.to_string(),
        taxa,
        sites,
        patterns,
        bootstraps,
        analysis,
        nominal_calls,
    })
}

/// The seeds `ParallelAnalysis::run_bootstraps` derives for bootstrap `b`.
fn replicate_seed(seed: u64, b: usize) -> u64 {
    seed.wrapping_add(b as u64)
}

fn search_seed(seed: u64, b: usize) -> u64 {
    seed ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A seeded alignment with exactly `spec.sites` columns and
/// `spec.patterns` distinct patterns: columns of a longer
/// `Alignment::synthetic` draw, kept in order while they add a new pattern
/// or repeat a kept one. Sequences differ from seed to seed; the size of
/// the likelihood loops does not.
fn alignment(spec: &BootSpec, seed: u64) -> Alignment {
    let mut stream = SplitMix64(seed);
    for _ in 0..64 {
        let raw = Alignment::synthetic(spec.taxa, spec.sites * 6, &Jc69, 0.1, stream.next());
        let fasta = raw.to_fasta();
        let mut rows: Vec<Vec<char>> = Vec::new();
        for line in fasta.lines() {
            match line.strip_prefix('>') {
                Some(_) => rows.push(Vec::new()),
                None => rows
                    .last_mut()
                    .expect("FASTA starts with a header")
                    .extend(line.trim().chars()),
            }
        }
        let column = |c: usize| -> String { rows.iter().map(|r| r[c]).collect() };
        let mut kept_patterns = std::collections::HashSet::new();
        let (mut firsts, mut repeats) = (Vec::new(), Vec::new());
        for c in 0..rows[0].len() {
            let p = column(c);
            if kept_patterns.contains(&p) {
                repeats.push(c);
            } else if kept_patterns.len() < spec.patterns {
                kept_patterns.insert(p);
                firsts.push(c);
            }
        }
        if firsts.len() < spec.patterns || firsts.len() + repeats.len() < spec.sites {
            continue; // too little variation in this draw; take the next one
        }
        repeats.truncate(spec.sites - firsts.len());
        let mut cols = firsts;
        cols.extend(repeats);
        cols.sort_unstable();
        let seqs: Vec<String> = rows
            .iter()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect();
        let names: Vec<String> = (0..spec.taxa).map(|i| format!("taxon{i:03}")).collect();
        let pairs: Vec<(&str, &str)> = names
            .iter()
            .zip(&seqs)
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        return Alignment::from_strings(&pairs).expect("columns of a valid alignment");
    }
    panic!(
        "seed {seed}: no draw had {} patterns in {} sites",
        spec.patterns, spec.sites
    );
}

fn inputs(spec: &BootSpec, seed: u64) -> Arc<PatternAlignment> {
    let data = PatternAlignment::compress(&alignment(spec, seed));
    assert_eq!(
        (data.n_sites(), data.n_patterns()),
        (spec.sites, spec.patterns)
    );
    Arc::new(data)
}

/// What one round must produce, computed twice over: by the off-loading
/// engine on one thread, which also counts the kernel invocations, and by
/// the plain single-threaded search (no runtime involved).
struct Reference {
    /// The seed handed to `run_bootstraps` (see `balanced_run_seed`).
    run_seed: u64,
    lnl_sum: f64,
    kernel_calls: u64,
    /// Kernel invocations of each worker process (bootstraps are dealt
    /// round-robin), in worker order.
    calls_per_worker: Vec<u64>,
    /// Wall seconds of the plain serial pass (the baseline).
    serial_s: f64,
}

/// Log-likelihood and kernel invocations of each bootstrap of a round,
/// from the off-loading engine run on the calling thread. Its kernels stay
/// on the PPE (granularity control with no re-probe), which is the cheapest
/// way to count: the count is the same under every scheduler.
fn count_round(spec: &BootSpec, data: &Arc<PatternAlignment>, run_seed: u64) -> Vec<(f64, u64)> {
    let rt = MgpsRuntime::new(
        RuntimeConfig::cell(SchedulerKind::Mgps).with_granularity_control(1 << 40),
    );
    let mut ctx = rt.enter_process();
    (0..spec.bootstraps)
        .map(|b| {
            let replicate = Arc::new(bootstrap_replicate(data, replicate_seed(run_seed, b)));
            let mut engine = OffloadedEngine::new(&mut ctx, Jc69, replicate);
            let found = hill_climb_with(
                &mut engine,
                data.n_taxa(),
                &spec.analysis.search,
                search_seed(run_seed, b),
            );
            (found.lnl, engine.offloads())
        })
        .collect()
}

fn calls_per_worker(spec: &BootSpec, counted: &[(f64, u64)]) -> Vec<u64> {
    let mut calls = vec![0; spec.analysis.workers];
    for (b, &(_, n)) in counted.iter().enumerate() {
        calls[b % spec.analysis.workers] += n;
    }
    calls
}

/// Searches differ in length, and `run_bootstraps` deals bootstraps to
/// workers round-robin, so an arbitrary seed leaves one worker idle for a
/// tenth or more of the round — by an amount that differs from seed to
/// seed. Of a few run seeds drawn from `seed`, take the one that deals the
/// workers the most equal work, so that rounds of different seeds compare.
fn balanced_run_seed(
    spec: &BootSpec,
    data: &Arc<PatternAlignment>,
    seed: u64,
) -> (u64, Vec<(f64, u64)>) {
    let mut stream = SplitMix64(seed ^ 0xb007);
    let candidates = if spec.analysis.workers > 1 { 8 } else { 1 };
    (0..candidates)
        .map(|_| {
            let run_seed = stream.next();
            (run_seed, count_round(spec, data, run_seed))
        })
        .min_by_key(|(_, counted)| {
            let calls = calls_per_worker(spec, counted);
            calls.iter().max().unwrap_or(&0) - calls.iter().min().unwrap_or(&0)
        })
        .expect("at least one candidate")
}

fn reference(
    spec: &BootSpec,
    data: &Arc<PatternAlignment>,
    seed: u64,
) -> Result<Reference, String> {
    let (run_seed, counted) = balanced_run_seed(spec, data, seed);
    let t = Instant::now();
    for (b, &(got, _)) in counted.iter().enumerate() {
        let replicate = bootstrap_replicate(data, replicate_seed(run_seed, b));
        let want = hill_climb(
            &Jc69,
            &replicate,
            &spec.analysis.search,
            search_seed(run_seed, b),
        )
        .lnl;
        if (got - want).abs() > LNL_TOLERANCE {
            return Err(format!(
                "bootstrap {b}: off-loading search found {got}, plain search {want}"
            ));
        }
    }
    let calls_per_worker = calls_per_worker(spec, &counted);
    Ok(Reference {
        run_seed,
        lnl_sum: counted.iter().map(|c| c.0).sum(),
        kernel_calls: calls_per_worker.iter().sum(),
        calls_per_worker,
        serial_s: t.elapsed().as_secs_f64(),
    })
}

fn judge(lnl_sum: f64, reference: &Reference, anchored: Option<&BootAnchor>) -> Result<(), String> {
    if (lnl_sum - reference.lnl_sum).abs() > LNL_TOLERANCE {
        return Err(format!(
            "lnl_sum {lnl_sum} differs from the serial reference {}",
            reference.lnl_sum
        ));
    }
    if let Some(a) = anchored {
        if (lnl_sum - a.lnl_sum).abs() > LNL_TOLERANCE {
            return Err(format!(
                "lnl_sum {lnl_sum} differs from anchors.json {}",
                a.lnl_sum
            ));
        }
        if reference.kernel_calls != a.kernel_calls {
            return Err(format!(
                "{} kernel calls, anchors.json has {}",
                reference.kernel_calls, a.kernel_calls
            ));
        }
    }
    Ok(())
}

/// One round through the production entry point.
fn round(spec: &BootSpec, data: &Arc<PatternAlignment>, seed: u64) -> Result<f64, String> {
    let analysis = spec.analysis;
    let data = Arc::clone(data);
    let bootstraps = spec.bootstraps;
    std::panic::catch_unwind(move || {
        let (results, _stats) = analysis.run_bootstraps(Jc69, &data, bootstraps, seed);
        results.iter().map(|r| r.lnl).sum()
    })
    .map_err(|_| "round panicked".to_string())
}

/// Seeds draw searches of different lengths, so a round's wall time is
/// quoted for the nominal round: scaled by nominal over actual kernel
/// invocations. The count is exact per seed and pinned by `anchors.json`;
/// a change in how many kernels a search needs shows there and in
/// `round.kernel_calls`, not here.
fn scaled_round_s(spec: &BootSpec, wall_s: f64, kernel_calls: u64) -> f64 {
    wall_s * spec.nominal_calls / kernel_calls as f64
}

/// The anchor of one seed, as `--write-anchors` stores it.
pub fn anchor_facts(workload: &str, tiny: bool, seed: u64) -> BootAnchor {
    let spec = &spec(workload, tiny).expect("a boot workload");
    let data = inputs(spec, seed);
    let r = reference(spec, &data, seed).expect("anchor run must agree with the serial search");
    BootAnchor {
        lnl_sum: r.lnl_sum,
        kernel_calls: r.kernel_calls,
    }
}

pub fn run(spec: &BootSpec, cfg: &RunCfg, anchors: &Anchors) -> Outcome {
    let anchored = anchors.boot(&spec.workload, cfg.tiny, cfg.seed);
    let mut out = Outcome::default();

    // Set-up: generate the inputs and run the untimed warm-up (one
    // bootstrap per worker, which also builds and tears down a runtime).
    // Every kernel call may hand work to another thread: gauged by the
    // echo round trip.
    let mut host = Gauge::hand_over();
    let setups: Vec<f64> = (0..5)
        .map(|_| {
            host.sample();
            let t = Instant::now();
            let data = inputs(spec, cfg.seed);
            let warm = spec.analysis.workers.min(spec.bootstraps);
            std::hint::black_box(spec.analysis.run_bootstraps(Jc69, &data, warm, cfg.seed));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let data = inputs(spec, cfg.seed);

    let reference = match reference(spec, &data, cfg.seed) {
        Ok(r) => r,
        Err(why) => {
            out.attempt(Err(format!("reference: {why}")));
            return out;
        }
    };

    out.notes.push(format!(
        "kernel calls per worker {:?}",
        reference.calls_per_worker
    ));
    if cfg.trace {
        traced(spec, cfg, &data, &reference, anchored.as_ref(), &mut out);
        return out;
    }

    let walls = timed_rounds(cfg.seconds, 3, &mut host, |_| {
        let got = round(spec, &data, reference.run_seed);
        out.attempt(got.and_then(|lnl| judge(lnl, &reference, anchored.as_ref())));
    });
    out.put("setup_s", median(&setups) * host.correction());
    out.put(
        "round_s",
        scaled_round_s(spec, median(&walls), reference.kernel_calls) * host.correction(),
    );
    out.put("peak_rss_mb", peak_rss_mb(None));
    out
}

/// The search's view of the off-loading engine, with a span around every
/// call the search makes into it.
struct TracedEngine<'s, 'a, 'rt> {
    inner: OffloadedEngine<'a, 'rt, Jc69>,
    spans: &'s mut Spans,
    id: u64,
}

impl ScoringEngine for TracedEngine<'_, '_, '_> {
    fn score(&mut self, tree: &Tree) -> f64 {
        self.spans.enter("score", self.id);
        let lnl = self.inner.score(tree);
        self.spans.exit();
        lnl
    }

    fn optimize_branches(&mut self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64 {
        self.spans.enter("optimize", self.id);
        let lnl = ScoringEngine::optimize_branches(&mut self.inner, tree, max_passes, epsilon);
        self.spans.exit();
        lnl
    }
}

/// What the runtime itself reported for one traced round.
struct RoundFacts {
    lnl_sum: f64,
    offloads: u64,
    gate_contention_ns: u64,
}

/// `run_bootstraps`' loop re-assembled from its public pieces, so that a
/// metrics sink and a tracer can be handed to the runtime and spans put
/// around each piece: round → worker → bootstrap → {replicate, search →
/// {score, optimize}}.
fn traced_round(
    spec: &BootSpec,
    data: &Arc<PatternAlignment>,
    seed: u64,
    id: u64,
    spans: &mut Spans,
    sink: &Arc<AtomicMetrics>,
    tracer: Option<&Arc<Tracer>>,
) -> RoundFacts {
    spans.enter("round", id);
    let rt = MgpsRuntime::with_observability(
        spec.analysis.runtime,
        Arc::clone(sink) as Arc<dyn MetricsSink>,
        tracer.cloned(),
    );
    let (workers, bootstraps, search) =
        (spec.analysis.workers, spec.bootstraps, spec.analysis.search);
    let epoch = spans.epoch();
    let mut facts = RoundFacts {
        lnl_sum: 0.0,
        offloads: 0,
        gate_contention_ns: 0,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let rt = &rt;
                scope.spawn(move || {
                    let mut local = Spans::new(epoch);
                    local.enter("worker", id);
                    let mut ctx = rt.enter_process();
                    let (mut lnl, mut offloads) = (0.0, 0);
                    for b in (w..bootstraps).step_by(workers) {
                        local.enter("bootstrap", id);
                        let replicate = local.scope("replicate", id, || {
                            Arc::new(bootstrap_replicate(data, replicate_seed(seed, b)))
                        });
                        local.enter("search", id);
                        let mut engine = TracedEngine {
                            inner: OffloadedEngine::new(&mut ctx, Jc69, replicate),
                            spans: &mut local,
                            id,
                        };
                        lnl += hill_climb_with(
                            &mut engine,
                            data.n_taxa(),
                            &search,
                            search_seed(seed, b),
                        )
                        .lnl;
                        offloads += engine.inner.offloads();
                        drop(engine);
                        local.exit();
                        local.exit();
                    }
                    drop(ctx);
                    local.exit();
                    (local, lnl, offloads)
                })
            })
            .collect();
        for h in handles {
            let (local, lnl, offloads) = h.join().expect("worker process panicked");
            spans.adopt(local);
            facts.lnl_sum += lnl;
            facts.offloads += offloads;
        }
    });
    facts.gate_contention_ns = rt.gate_contention_ns();
    drop(rt);
    spans.exit();
    facts
}

/// Off-load wait (request → task start on an SPE), µs, from the tracer's
/// rings. Rings keep their first events only, so this is the round's head.
fn offload_waits_us(log: &TraceLog) -> Vec<f64> {
    let mut requested = std::collections::HashMap::new();
    let mut started = Vec::new();
    for e in log.threads.iter().flat_map(|t| &t.events) {
        match &e.kind {
            TraceEventKind::Offload { task, .. } => {
                requested.insert(*task, e.at_ns);
            }
            TraceEventKind::TaskStart { task, .. } => started.push((*task, e.at_ns)),
            _ => {}
        }
    }
    started
        .into_iter()
        .filter_map(|(task, at)| Some(at.saturating_sub(*requested.get(&task)?) as f64 / 1e3))
        .collect()
}

fn traced(
    spec: &BootSpec,
    cfg: &RunCfg,
    data: &Arc<PatternAlignment>,
    reference: &Reference,
    anchored: Option<&BootAnchor>,
    out: &mut Outcome,
) {
    let plain = timed_rounds(cfg.seconds / 3.0, 2, &mut Gauge::none(), |_| {
        let _ = round(spec, data, reference.run_seed);
    });

    let mut spans = Spans::new(Instant::now());
    let sink = Arc::new(AtomicMetrics::new());
    let mut waits = Vec::new();
    let (mut offloads, mut gate_ns) = (0u64, 0u64);
    let walls = timed_rounds(cfg.seconds / 2.0, 2, &mut Gauge::none(), |i| {
        // The first traced round also carries the tracer; its rings are
        // sized to hold the head of the round, not all of it.
        let tracer = (i == 0).then(|| Tracer::new(1 << 15));
        let facts = traced_round(
            spec,
            data,
            reference.run_seed,
            i as u64,
            &mut spans,
            &sink,
            tracer.as_ref(),
        );
        if let Some(t) = tracer {
            waits = offload_waits_us(&t.drain());
        }
        offloads += facts.offloads;
        gate_ns += facts.gate_contention_ns;
        out.attempt(judge(facts.lnl_sum, reference, anchored).and_then(|()| {
            if facts.offloads == reference.kernel_calls {
                Ok(())
            } else {
                Err(format!(
                    "{} kernel calls, reference {}",
                    facts.offloads, reference.kernel_calls
                ))
            }
        }));
    });

    let rounds = walls.len() as f64;
    let totals = spans.totals();
    let per_round = |name: &str, pick: fn(&crate::harness::SpanTotals) -> u64| {
        totals.get(name).map_or(0.0, |t| pick(t) as f64) / rounds
    };
    let snap = sink.snapshot();
    let hist_us = |kind: HistKind, q: f64| {
        quantile_from_log2_buckets(&snap.hists[kind as usize], q).unwrap_or(0.0) / 1e3
    };
    let runtime_offloads = snap.get(Counter::Offloads) as f64 / rounds;
    let wall = median(&walls);
    let workers = spec.analysis.workers as f64;

    // The longest worker's spans plus the round's own self time should
    // account for the round wall.
    let round_self = per_round("round", |t| t.self_ns) * rounds / 1e9;
    let mut longest_worker = std::collections::BTreeMap::<u64, u64>::new();
    for s in spans.spans.iter().filter(|s| s.name == "worker") {
        let slot = longest_worker.entry(s.id).or_default();
        *slot = (*slot).max(s.end_ns - s.start_ns);
    }
    let worker_max = longest_worker.values().sum::<u64>() as f64 / 1e9;

    out.put("round.wall_s", wall);
    out.put("round.kernel_calls", offloads as f64 / rounds);
    out.put(
        "trace.self_sum_ratio",
        (round_self + worker_max) / walls.iter().sum::<f64>(),
    );
    out.put("tracing.overhead_share", wall / median(&plain) - 1.0);
    out.put(
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.put(
        "phylo.serial_bootstrap_s",
        reference.serial_s / spec.bootstraps as f64,
    );
    out.put(
        "parallel.speedup_vs_serial",
        reference.serial_s / median(&plain),
    );
    out.put(
        "parallel.kernel_share",
        (reference.serial_s / workers / median(&plain)).min(1.0),
    );
    out.put("adapters.score_calls", per_round("score", |t| t.count));
    out.put(
        "adapters.score_busy_s",
        per_round("score", |t| t.total_ns) / 1e9,
    );
    out.put(
        "adapters.optimize_calls",
        per_round("optimize", |t| t.count),
    );
    out.put(
        "adapters.optimize_busy_s",
        per_round("optimize", |t| t.total_ns) / 1e9,
    );
    out.put("adapters.offloads", offloads as f64 / rounds);
    out.put("search.self_s", per_round("search", |t| t.self_ns) / 1e9);
    out.put("runtime.offloads", runtime_offloads);
    out.put(
        "runtime.offload_share",
        runtime_offloads * rounds / offloads.max(1) as f64,
    );
    out.put(
        "runtime.ctx_switches",
        snap.get(Counter::CtxSwitchOffload) as f64 / rounds,
    );
    out.put(
        "runtime.llp_activations",
        snap.get(Counter::LlpActivations) as f64 / rounds,
    );
    out.put(
        "runtime.kernel_throttles",
        snap.get(Counter::KernelThrottles) as f64 / rounds,
    );
    out.put("runtime.offload_wait_p50_us", quantile(&waits, 0.50));
    out.put("runtime.offload_wait_p99_us", quantile(&waits, 0.99));
    out.put("runtime.ctx_hold_p50_us", hist_us(HistKind::CtxHoldNs, 0.5));
    out.put("runtime.task_dur_p50_us", hist_us(HistKind::TaskDurNs, 0.5));
    out.put("runtime.gate_contention_s", gate_ns as f64 / 1e9 / rounds);
    out.put(
        "runtime.us_per_offload",
        if runtime_offloads > 0.0 {
            wall * 1e6 / runtime_offloads
        } else {
            0.0
        },
    );

    let reps = if cfg.tiny { 2_000 } else { 20_000 };
    match spec.workload.as_str() {
        "boot_adaptive" => kernel_probes(data, reps, out),
        "boot_offload_task" => task_probes(reps, out),
        _ => team_probes(reps, out),
    }

    spans.save(cfg, &spec.workload, out);
}

/// Nanoseconds per call of `f`, over `reps` calls.
fn ns_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// The three likelihood kernels called directly, ns per site pattern.
fn kernel_probes(data: &PatternAlignment, reps: usize, out: &mut Outcome) {
    let engine = LikelihoodEngine::new(&Jc69, data);
    let (a, b, c) = (engine.tip_clv(0), engine.tip_clv(1), engine.tip_clv(2));
    let inner = engine.newview(&a, 0.1, &b, 0.1);
    let patterns = data.n_patterns() as f64;
    let newview = ns_per_call(reps, || {
        std::hint::black_box(engine.newview(&a, 0.1, &b, 0.12));
    });
    let evaluate = ns_per_call(reps, || {
        std::hint::black_box(engine.evaluate(&inner, &c, 0.1));
    });
    let makenewz = ns_per_call(reps / 4, || {
        std::hint::black_box(engine.makenewz(&inner, &c, 0.3));
    });
    out.put("phylo.newview_ns_per_pattern", newview / patterns);
    out.put("phylo.evaluate_ns_per_pattern", evaluate / patterns);
    out.put("phylo.makenewz_ns_per_pattern", makenewz / patterns);
}

/// A loop of `n` cheap iterations: the grain the off-load round trips of
/// the probes below carry.
struct Grain(usize);

impl LoopBody for Grain {
    type Acc = f64;
    fn len(&self) -> usize {
        self.0
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        range.map(|i| (i as f64).sqrt()).sum()
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// The task-shaped dispatch path piece by piece: the PPE gate alone, the
/// SPE pool alone, then a whole `offload_loop` at three grains.
fn task_probes(reps: usize, out: &mut Outcome) {
    let gate = PpeGate::new(2, GateMode::YieldOnOffload, Duration::from_nanos(1_500));
    let mut token = gate.enter();
    out.put(
        "gate.roundtrip_ns",
        ns_per_call(reps * 10, || token.offload(|| ())),
    );
    drop(token);

    let pool = SpePool::new(8, Duration::ZERO);
    let pool_ns = ns_per_call(reps, || {
        pool.offload(|_| ())
            .wait()
            .expect("no-op off-load completes");
    });
    out.put("pool.roundtrip_us", pool_ns / 1e3);
    drop(pool);

    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
    let mut ctx = rt.enter_process();
    for (name, n) in [
        ("adaptive.offload_rtt_us_n8", 8),
        ("adaptive.offload_rtt_us_n64", 64),
        ("adaptive.offload_rtt_us_n512", 512),
    ] {
        let body = Arc::new(Grain(n));
        let ns = ns_per_call(reps, || {
            ctx.offload_loop(LoopSite(9), Arc::clone(&body))
                .expect("probe loop completes");
        });
        out.put(name, ns / 1e3);
    }
}

/// The loop-shaped dispatch path: one team wake, `degree` chunks, the
/// `Pass` rendezvous and the reduction, around an empty body.
fn team_probes(reps: usize, out: &mut Outcome) {
    let runner = TeamRunner::new(Arc::new(SpePool::new(8, Duration::ZERO)), Duration::ZERO);
    for (name, degree) in [
        ("team.roundtrip_us_d2", 2),
        ("team.roundtrip_us_d4", 4),
        ("team.roundtrip_us_d8", 8),
    ] {
        let body = Arc::new(Grain(8));
        let ns = ns_per_call(reps, || {
            runner
                .parallel_reduce(LoopSite(7), degree, Arc::clone(&body))
                .expect("probe loop completes");
        });
        out.put(name, ns / 1e3);
    }
}
