//! `multigrain loadgen` — the seeded load-test harness for the serve
//! plane.
//!
//! The generator is **open-loop**: arrivals are drawn up front from a
//! seeded exponential interarrival process and do not slow down when the
//! service backs up, so overload actually overloads. Job sizes come from
//! a bounded Pareto, giving the heavy-tailed mix that makes tail
//! quantiles interesting without unbounded outliers.
//!
//! One invocation evaluates the same seeded traffic at five rate
//! multipliers (0.25×/0.5×/1×/2×/4×) through a deterministic model of the
//! serve plane's job queue and writes two artifacts. The model's queue *is*
//! serve's: a [`Drr`] built exactly as serve builds it — dispatch weights
//! `tenant_weights`, bound `queue_cap` (`--job-queue`) — with W servers
//! popping it in the order they come free. An arrival is refused when
//! [`Drr::admits`] says no, so admission, dispatch order and per-tenant
//! shares follow serve's rules. The artifacts:
//!
//! * the `mgps-loadtest/v1` JSON document, and
//! * a self-contained HTML report (per-tenant latency CDFs, a
//!   throughput-vs-offered-load curve, the 1× queue-depth timeline, and a
//!   per-job blame drill-down).
//!
//! **Determinism contract**: both artifacts are pure functions of
//! [`LoadgenConfig`], so two runs with the same flags emit byte-identical
//! bytes — CI diffs them. The optional `--url` live driver replays the 1×
//! arrival schedule as real `POST /jobs` traffic against a running
//! `serve`; its outcome depends on host timing, so it reports to stdout
//! only and never touches the artifacts.
//!
//! Every model job carries the four job-granularity terms the serve plane
//! records — `t_queue`/`t_dispatch`/`t_kernel`/`t_reduce` — and the model
//! keeps the same invariant the checker enforces on real logs: the four
//! terms partition the job's wall time exactly.

use std::fmt::Write as _;

use mgps_obs::htmlkit::{esc, Page};
use mgps_runtime::policy::Drr;
use minijson::Value;

/// The rate multipliers every load test sweeps, in report order. The 1×
/// run (index [`ONE_X`]) supplies the per-job detail, the tenant CDFs,
/// and the queue-depth timeline.
pub const MULTIPLIERS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Index of the 1× run in [`MULTIPLIERS`].
pub const ONE_X: usize = 2;

/// Schema tag written into every JSON document.
pub const LOADTEST_SCHEMA: &str = "mgps-loadtest/v1";

/// Bounded-Pareto shape: heavy-tailed but with a finite mean.
const PARETO_ALPHA: f64 = 1.5;
/// Smallest job service demand (0.2 ms) the size distribution emits.
const SERVICE_LO_NS: f64 = 200_000.0;
/// Largest job service demand (50 ms) — the bound in "bounded Pareto".
const SERVICE_HI_NS: f64 = 50_000_000.0;

/// Knobs for one load test. All artifacts are pure functions of this
/// struct — see the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Offered load at 1×, jobs per second.
    pub rate: f64,
    /// Modeled traffic span in milliseconds.
    pub duration_ms: u64,
    /// Seed for interarrivals, sizes, and tenant assignment.
    pub seed: u64,
    /// Number of tenants traffic is spread across (round-robin-free:
    /// tenant per job is drawn from the seeded stream).
    pub tenants: usize,
    /// Model servers — matches `serve --workers`.
    pub workers: usize,
    /// Admission-queue bound — matches `serve --job-queue`.
    pub queue_cap: usize,
    /// Per-tenant weights, as `serve --tenant-weights` takes them; empty
    /// means equal. They are the model queue's deficit-round-robin
    /// dispatch shares, as in serve, and they normalize the fairness
    /// verdict: each tenant's admitted share is divided by its weight.
    pub tenant_weights: Vec<u64>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            rate: 2_000.0,
            duration_ms: 2_000,
            seed: 0x10ad,
            tenants: 2,
            workers: 2,
            queue_cap: 8,
            tenant_weights: Vec::new(),
        }
    }
}

impl LoadgenConfig {
    /// Declared weight of `tenant` (unlisted tenants weigh 1).
    fn weight(&self, tenant: usize) -> u64 {
        self.tenant_weights.get(tenant).copied().unwrap_or(1).max(1)
    }
}

/// The seeded linear congruential generator `loadgen` and `serve` share
/// (same multiplier/increment as the simulator's streams).
pub(crate) struct Lcg(pub(crate) u64);

impl Lcg {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A uniform draw strictly inside (0, 1) — safe under `ln`.
    fn unit(&mut self) -> f64 {
        (self.next() + 1) as f64 / ((1u64 << 31) + 2) as f64
    }
}

/// Inverse-CDF sample of a Pareto(α) truncated to `[lo, hi]`.
fn bounded_pareto(u: f64, lo: f64, hi: f64) -> f64 {
    let la = lo.powf(-PARETO_ALPHA);
    let ha = hi.powf(-PARETO_ALPHA);
    (la - u * (la - ha)).powf(-1.0 / PARETO_ALPHA)
}

/// One arrival of the offered (pre-admission) traffic.
#[derive(Debug, Clone, Copy)]
pub struct OfferedJob {
    /// Arrival instant, ns from test start.
    pub arrival_ns: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Service demand in ns (bounded Pareto).
    pub service_ns: u64,
}

/// The seeded arrival schedule at `MULTIPLIERS[index]` times the
/// configured rate. The live driver replays exactly this schedule for
/// the 1× index, so the model and the wire see the same traffic.
pub fn offered_jobs(cfg: &LoadgenConfig, index: usize) -> Vec<OfferedJob> {
    let mult = MULTIPLIERS[index];
    let mut rng =
        Lcg(cfg.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mean_ia_ns = 1e9 / (cfg.rate * mult);
    let horizon_ns = cfg.duration_ms.saturating_mul(1_000_000);
    let mut t = 0.0f64;
    let mut jobs = Vec::new();
    loop {
        t += -rng.unit().ln() * mean_ia_ns;
        if t >= horizon_ns as f64 {
            break;
        }
        let tenant = rng.next() as usize % cfg.tenants.max(1);
        let service_ns = bounded_pareto(rng.unit(), SERVICE_LO_NS, SERVICE_HI_NS) as u64;
        jobs.push(OfferedJob { arrival_ns: t as u64, tenant, service_ns });
    }
    jobs
}

/// One admitted job's modeled life, in the serve plane's vocabulary.
/// The four granularity terms partition the wall time exactly:
/// `t_queue + t_dispatch + t_kernel + t_reduce == wall_ns()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelJob {
    /// Sequential job id within the run.
    pub job: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Arrival instant, ns from test start.
    pub arrival_ns: u64,
    /// Time spent waiting in the admission queue.
    pub t_queue_ns: u64,
    /// PPE-side marshalling share of the service demand.
    pub t_dispatch_ns: u64,
    /// Off-loaded kernel share of the service demand.
    pub t_kernel_ns: u64,
    /// PPE-side fold share of the service demand.
    pub t_reduce_ns: u64,
}

impl ModelJob {
    /// Submission-to-completion wall time.
    pub fn wall_ns(&self) -> u64 {
        self.t_queue_ns + self.t_dispatch_ns + self.t_kernel_ns + self.t_reduce_ns
    }

    /// Completion instant, ns from test start.
    pub fn completion_ns(&self) -> u64 {
        self.arrival_ns + self.wall_ns()
    }

    /// Job `job` admitted from `o`, not yet started: its service demand
    /// split exactly into 5% dispatch, 10% reduce, remainder kernel.
    fn admitted(job: u64, o: &OfferedJob) -> ModelJob {
        let t_dispatch_ns = o.service_ns / 20;
        let t_reduce_ns = o.service_ns / 10;
        ModelJob {
            job,
            tenant: o.tenant,
            arrival_ns: o.arrival_ns,
            t_queue_ns: 0,
            t_dispatch_ns,
            t_kernel_ns: o.service_ns - t_dispatch_ns - t_reduce_ns,
            t_reduce_ns,
        }
    }
}

/// The outcome of the queueing model at one rate multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct RateRun {
    /// Rate multiplier this run modeled.
    pub multiplier: f64,
    /// Arrivals offered over the horizon.
    pub offered: usize,
    /// Jobs admitted to the queue.
    pub admitted: usize,
    /// Jobs refused because the queue was at its bound.
    pub rejected: usize,
    /// Admitted jobs whose completion landed inside the horizon.
    pub completed_in_horizon: usize,
    /// Completions-in-horizon per second of horizon.
    pub throughput_per_s: f64,
    /// Median wall time over admitted jobs (exact, interpolated).
    pub p50_ns: Option<f64>,
    /// 95th-percentile wall time over admitted jobs.
    pub p95_ns: Option<f64>,
    /// 99th-percentile wall time over admitted jobs.
    pub p99_ns: Option<f64>,
    /// Largest queue depth the run reached.
    pub max_depth: usize,
    /// Every admitted job, in admission order.
    pub jobs: Vec<ModelJob>,
}

/// Exact quantile of a sorted sample at continuous rank `q * (n-1)`,
/// linearly interpolated — the reference the log2-bucket estimator on
/// `/metrics` is error-bounded against. `None` on an empty sample.
pub fn exact_quantile(sorted: &[u64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac)
}

/// Run serve's admission queue over one arrival schedule: W servers
/// popping a [`Drr`] built as `serve` builds its job queue.
fn simulate(cfg: &LoadgenConfig, index: usize) -> RateRun {
    let offered = offered_jobs(cfg, index);
    let mut drr = Drr::new(cfg.tenant_weights.clone()).bounded(cfg.queue_cap);
    let mut free = vec![0u64; cfg.workers.max(1)];
    let mut jobs = Vec::new();
    let mut rejected = 0usize;
    let mut max_depth = 0usize;
    for o in &offered {
        drain(&mut drr, &mut free, &mut jobs, o.arrival_ns);
        if !drr.admits() {
            rejected += 1;
            continue;
        }
        drr.push(o.tenant, jobs.len());
        jobs.push(ModelJob::admitted(jobs.len() as u64, o));
        drain(&mut drr, &mut free, &mut jobs, o.arrival_ns);
        max_depth = max_depth.max(drr.len());
    }
    drain(&mut drr, &mut free, &mut jobs, u64::MAX);
    rate_run(cfg, index, offered.len(), jobs, rejected, max_depth)
}

/// Servers take queued jobs in the order they come free, ties to the
/// lowest index, until the queue empties or no server is free by `until`.
/// A job starts when its server is free and it has arrived.
fn drain(drr: &mut Drr<usize>, free: &mut [u64], jobs: &mut [ModelJob], until: u64) {
    while let Some(w) = (0..free.len()).min_by_key(|&w| free[w]).filter(|&w| free[w] <= until) {
        let Some((_, id)) = drr.pop() else { return };
        let job = &mut jobs[id];
        job.t_queue_ns = free[w].saturating_sub(job.arrival_ns);
        free[w] = job.completion_ns();
    }
}

/// Fold one run's admitted jobs into its [`RateRun`].
fn rate_run(
    cfg: &LoadgenConfig,
    index: usize,
    offered: usize,
    jobs: Vec<ModelJob>,
    rejected: usize,
    max_depth: usize,
) -> RateRun {
    let horizon_ns = cfg.duration_ms.saturating_mul(1_000_000);
    let completed_in_horizon =
        jobs.iter().filter(|j| j.completion_ns() <= horizon_ns).count();
    let mut walls: Vec<u64> = jobs.iter().map(ModelJob::wall_ns).collect();
    walls.sort_unstable();
    RateRun {
        multiplier: MULTIPLIERS[index],
        offered,
        admitted: jobs.len(),
        rejected,
        completed_in_horizon,
        throughput_per_s: completed_in_horizon as f64 * 1e3 / cfg.duration_ms as f64,
        p50_ns: exact_quantile(&walls, 0.50),
        p95_ns: exact_quantile(&walls, 0.95),
        p99_ns: exact_quantile(&walls, 0.99),
        max_depth,
        jobs,
    }
}

/// Per-tenant latency summary over the 1× run.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: usize,
    /// Admitted jobs owned by this tenant.
    pub jobs: usize,
    /// Median wall time.
    pub p50_ns: Option<f64>,
    /// 95th-percentile wall time.
    pub p95_ns: Option<f64>,
    /// 99th-percentile wall time.
    pub p99_ns: Option<f64>,
    /// Sorted wall times, for the CDF.
    walls: Vec<u64>,
}

/// Pass/fail calls over the 1× run, mirrored into JSON and HTML.
#[derive(Debug, Clone)]
pub struct Verdicts {
    /// `"ok"` when at least 90% of offered jobs completed inside the
    /// horizon at 1×, else `"degraded"`.
    pub goodput: String,
    /// Completions-in-horizon over offered arrivals at 1×.
    pub goodput_fraction: f64,
    /// `"ok"` when at most 1% of offered jobs were refused at 1×, else
    /// `"hot"`.
    pub rejects: String,
    /// Refused arrivals over offered arrivals at 1×.
    pub reject_fraction: f64,
    /// `"fair"` when the weight-normalized Jain index at 1× is at least
    /// 0.9, else `"skewed"`.
    pub fairness: String,
    /// Jain fairness index over per-tenant admitted jobs at 1×, each
    /// divided by its declared weight: `(Σx)² / (n·Σx²)`, 1.0 = perfectly
    /// proportional, `1/n` = one tenant took everything.
    pub jain_index: f64,
}

/// Jain's fairness index over weight-normalized shares. An empty or
/// all-zero sample is vacuously fair (1.0).
pub fn jain_index(shares: &[f64]) -> f64 {
    let n = shares.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

/// The full load-test result: the five-point rate curve plus 1× detail.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// The configuration the artifacts are a pure function of.
    pub config: LoadgenConfig,
    /// One model outcome per [`MULTIPLIERS`] entry.
    pub curve: Vec<RateRun>,
    /// Per-tenant latency summaries over the 1× run.
    pub tenants: Vec<TenantSummary>,
    /// Queue-depth samples `(t_ns, depth)` over the 1× run.
    pub depth_timeline: Vec<(u64, usize)>,
    /// Goodput / reject calls over the 1× run.
    pub verdicts: Verdicts,
}

/// How many per-job rows the JSON document and the HTML drill-down list.
const JOB_ROWS: usize = 200;
/// Queue-depth samples across the horizon.
const DEPTH_SAMPLES: u64 = 96;

/// Run the whole load test: the five-multiplier sweep plus 1× detail.
pub fn run_loadtest(cfg: &LoadgenConfig) -> LoadtestReport {
    let curve: Vec<RateRun> = (0..MULTIPLIERS.len()).map(|i| simulate(cfg, i)).collect();
    let one = &curve[ONE_X];

    let mut tenants = Vec::new();
    for tenant in 0..cfg.tenants.max(1) {
        let mut walls: Vec<u64> =
            one.jobs.iter().filter(|j| j.tenant == tenant).map(ModelJob::wall_ns).collect();
        walls.sort_unstable();
        tenants.push(TenantSummary {
            tenant,
            jobs: walls.len(),
            p50_ns: exact_quantile(&walls, 0.50),
            p95_ns: exact_quantile(&walls, 0.95),
            p99_ns: exact_quantile(&walls, 0.99),
            walls,
        });
    }

    // Occupancy spans of jobs that actually waited, for the timeline.
    let spans: Vec<(u64, u64)> = one
        .jobs
        .iter()
        .filter(|j| j.t_queue_ns > 0)
        .map(|j| (j.arrival_ns, j.arrival_ns + j.t_queue_ns))
        .collect();
    let horizon_ns = cfg.duration_ms.saturating_mul(1_000_000);
    let depth_timeline: Vec<(u64, usize)> = (0..=DEPTH_SAMPLES)
        .map(|k| {
            let t = horizon_ns / DEPTH_SAMPLES * k;
            (t, spans.iter().filter(|&&(a, s)| a <= t && t < s).count())
        })
        .collect();

    let goodput_fraction = if one.offered > 0 {
        one.completed_in_horizon as f64 / one.offered as f64
    } else {
        1.0
    };
    let reject_fraction =
        if one.offered > 0 { one.rejected as f64 / one.offered as f64 } else { 0.0 };
    let shares: Vec<f64> =
        tenants.iter().map(|t| t.jobs as f64 / cfg.weight(t.tenant) as f64).collect();
    let jain = jain_index(&shares);
    let verdicts = Verdicts {
        goodput: if goodput_fraction >= 0.9 { "ok" } else { "degraded" }.to_string(),
        goodput_fraction,
        rejects: if reject_fraction <= 0.01 { "ok" } else { "hot" }.to_string(),
        reject_fraction,
        fairness: if jain >= 0.9 { "fair" } else { "skewed" }.to_string(),
        jain_index: jain,
    };

    LoadtestReport { config: cfg.clone(), curve, tenants, depth_timeline, verdicts }
}

fn opt_ns(v: Option<f64>) -> Value {
    match v {
        Some(v) => Value::Number(v),
        None => Value::Null,
    }
}

impl LoadtestReport {
    /// The `mgps-loadtest/v1` document, pretty-printed with a trailing
    /// newline. Byte-deterministic for a given [`LoadgenConfig`].
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let curve = Value::Array(
            self.curve
                .iter()
                .map(|r| {
                    Value::object(vec![
                        ("multiplier", Value::Number(r.multiplier)),
                        ("offered", r.offered.into()),
                        ("admitted", r.admitted.into()),
                        ("rejected", r.rejected.into()),
                        ("completed_in_horizon", r.completed_in_horizon.into()),
                        ("throughput_per_s", Value::Number(r.throughput_per_s)),
                        ("p50_ns", opt_ns(r.p50_ns)),
                        ("p95_ns", opt_ns(r.p95_ns)),
                        ("p99_ns", opt_ns(r.p99_ns)),
                        ("max_queue_depth", r.max_depth.into()),
                    ])
                })
                .collect(),
        );
        let tenants = Value::Array(
            self.tenants
                .iter()
                .map(|t| {
                    Value::object(vec![
                        ("tenant", t.tenant.into()),
                        ("weight", self.config.weight(t.tenant).into()),
                        ("jobs", t.jobs.into()),
                        ("p50_ns", opt_ns(t.p50_ns)),
                        ("p95_ns", opt_ns(t.p95_ns)),
                        ("p99_ns", opt_ns(t.p99_ns)),
                    ])
                })
                .collect(),
        );
        let one = &self.curve[ONE_X];
        let jobs = Value::Array(
            one.jobs
                .iter()
                .take(JOB_ROWS)
                .map(|j| {
                    Value::object(vec![
                        ("job", j.job.into()),
                        ("tenant", j.tenant.into()),
                        ("arrival_ns", j.arrival_ns.into()),
                        ("t_queue_ns", j.t_queue_ns.into()),
                        ("t_dispatch_ns", j.t_dispatch_ns.into()),
                        ("t_kernel_ns", j.t_kernel_ns.into()),
                        ("t_reduce_ns", j.t_reduce_ns.into()),
                        ("wall_ns", j.wall_ns().into()),
                    ])
                })
                .collect(),
        );
        let depth = Value::Array(
            self.depth_timeline
                .iter()
                .map(|&(t, d)| Value::array([Value::from(t), Value::from(d)]))
                .collect(),
        );
        let doc = Value::object(vec![
            ("schema", LOADTEST_SCHEMA.into()),
            (
                "config",
                Value::object({
                    let mut members = vec![
                        ("rate_per_s", Value::Number(cfg.rate)),
                        ("duration_ms", cfg.duration_ms.into()),
                        ("seed", cfg.seed.into()),
                        ("tenants", cfg.tenants.into()),
                        ("workers", cfg.workers.into()),
                        ("queue_cap", cfg.queue_cap.into()),
                    ];
                    // Declared only when fairness is shaped, mirroring the
                    // serve log header's omit-when-default rule.
                    if !cfg.tenant_weights.is_empty() {
                        members.push((
                            "tenant_weights",
                            Value::Array(
                                cfg.tenant_weights.iter().map(|&w| w.into()).collect(),
                            ),
                        ));
                    }
                    members
                }),
            ),
            ("curve", curve),
            ("tenants", tenants),
            ("jobs", jobs),
            ("jobs_listed", one.jobs.len().min(JOB_ROWS).into()),
            ("jobs_total", one.jobs.len().into()),
            ("depth_timeline", depth),
            (
                "verdicts",
                Value::object(vec![
                    ("goodput", self.verdicts.goodput.as_str().into()),
                    ("goodput_fraction", Value::Number(self.verdicts.goodput_fraction)),
                    ("rejects", self.verdicts.rejects.as_str().into()),
                    ("reject_fraction", Value::Number(self.verdicts.reject_fraction)),
                    ("fairness", self.verdicts.fairness.as_str().into()),
                    ("jain_index", Value::Number(self.verdicts.jain_index)),
                ]),
            ),
        ]);
        doc.to_json_pretty() + "\n"
    }

    /// The self-contained HTML report. Byte-deterministic, no external
    /// references (the [`Page`] contract).
    pub fn render_html(&self) -> String {
        let mut page = Page::with_style(
            "multigrain loadtest",
            ".chart{margin:1em 0}\n.axis{stroke:#999}\n.grid{stroke:#eee}\n",
        );
        let cfg = &self.config;
        page.heading(1, "multigrain loadtest");
        page.para(&format!(
            "seed <b>{:#x}</b> · offered <b>{}</b> jobs/s for <b>{}</b> ms · \
             {} tenant(s) · {} model server(s) · queue cap {} · schema {}",
            cfg.seed,
            cfg.rate,
            cfg.duration_ms,
            cfg.tenants,
            cfg.workers,
            cfg.queue_cap,
            esc(LOADTEST_SCHEMA),
        ));
        page.para(&format!(
            "verdicts: goodput <b>{}</b> ({:.1}% of offered jobs completed inside the \
             horizon at 1×) · rejects <b>{}</b> ({:.2}% of offered jobs refused at 1×) · \
             fairness <b>{}</b> (weight-normalized Jain index {:.3} at 1×)",
            esc(&self.verdicts.goodput),
            self.verdicts.goodput_fraction * 100.0,
            esc(&self.verdicts.rejects),
            self.verdicts.reject_fraction * 100.0,
            esc(&self.verdicts.fairness),
            self.verdicts.jain_index,
        ));

        self.curve_table(&mut page);
        self.cdf_chart(&mut page);
        self.throughput_chart(&mut page);
        self.depth_chart(&mut page);
        self.blame_table(&mut page);
        page.finish()
    }

    fn curve_table(&self, page: &mut Page) {
        page.heading(2, "Rate sweep");
        page.table_start(&[
            "multiplier",
            "offered",
            "admitted",
            "rejected",
            "in-horizon",
            "throughput /s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "max depth",
        ]);
        for r in &self.curve {
            let ms = |v: Option<f64>| match v {
                Some(v) => format!("{:.2}", v / 1e6),
                None => "n/a".to_string(),
            };
            let class = (r.multiplier == 1.0).then_some("dom");
            page.table_row(
                class,
                &format!(
                    "<td>{}x</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                     <td>{:.1}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>",
                    r.multiplier,
                    r.offered,
                    r.admitted,
                    r.rejected,
                    r.completed_in_horizon,
                    r.throughput_per_s,
                    ms(r.p50_ns),
                    ms(r.p95_ns),
                    ms(r.p99_ns),
                    r.max_depth,
                ),
            );
        }
        page.table_end();
    }

    fn cdf_chart(&self, page: &mut Page) {
        page.heading(2, "Latency CDF per tenant (1x run)");
        let max_wall = self
            .tenants
            .iter()
            .filter_map(|t| t.walls.last().copied())
            .max()
            .unwrap_or(1)
            .max(1);
        let (w, h, lx, by) = (640.0, 240.0, 56.0, 212.0);
        let mut svg = String::new();
        let _ = writeln!(svg, "<svg class=\"chart\" width=\"{w}\" height=\"{h}\" role=\"img\">");
        axes(&mut svg, w, h, lx, by);
        // x is log10 latency from SERVICE_LO to the observed max.
        let x_lo = SERVICE_LO_NS.log10();
        let x_hi = (max_wall as f64).log10().max(x_lo + 0.1);
        let x_of = |ns: f64| lx + (ns.max(1.0).log10() - x_lo) / (x_hi - x_lo) * (w - lx - 8.0);
        let y_of = |frac: f64| by - frac * (by - 16.0);
        let mut legend = String::from("<p class=\"legend\">");
        for t in &self.tenants {
            if t.walls.is_empty() {
                continue;
            }
            let color = PALETTE[t.tenant % PALETTE.len()];
            let n = t.walls.len();
            let step = (n / 64).max(1);
            let pts: Vec<(f64, f64)> = t
                .walls
                .iter()
                .enumerate()
                .filter(|(i, _)| i % step == 0 || *i == n - 1)
                .map(|(i, &wall)| (x_of(wall as f64), y_of((i + 1) as f64 / n as f64)))
                .collect();
            polyline(&mut svg, &pts, color);
            let _ = write!(
                legend,
                "<span style=\"background:{color};color:#fff\">tenant {}</span> ",
                t.tenant
            );
        }
        for (frac, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let y = y_of(frac);
            let _ = writeln!(
                svg,
                "<line class=\"grid\" x1=\"{lx}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\"/>\
                 <text x=\"4\" y=\"{:.1}\" font-size=\"11\">{label}</text>",
                w - 8.0,
                y + 4.0,
            );
        }
        let _ = writeln!(
            svg,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\">wall time (log scale, \
             {:.1} ms max)</text>",
            lx,
            h - 4.0,
            max_wall as f64 / 1e6,
        );
        svg.push_str("</svg>\n");
        legend.push_str("</p>\n");
        page.raw(&legend);
        page.raw(&svg);
    }

    fn throughput_chart(&self, page: &mut Page) {
        page.heading(2, "Throughput vs offered load");
        let (w, h, lx, by) = (640.0, 240.0, 56.0, 212.0);
        let max_offered = self.config.rate * MULTIPLIERS[MULTIPLIERS.len() - 1];
        let max_y = self
            .curve
            .iter()
            .map(|r| r.throughput_per_s)
            .fold(self.config.rate, f64::max)
            .max(1.0);
        let x_of = |rate: f64| lx + rate / max_offered * (w - lx - 8.0);
        let y_of = |thr: f64| by - thr / max_y * (by - 16.0);
        let mut svg = String::new();
        let _ = writeln!(svg, "<svg class=\"chart\" width=\"{w}\" height=\"{h}\" role=\"img\">");
        axes(&mut svg, w, h, lx, by);
        // The lossless diagonal: throughput == offered load.
        let ideal_end = max_offered.min(max_y);
        let _ = writeln!(
            svg,
            "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" \
             stroke=\"#bbb\" stroke-dasharray=\"4 3\"/>",
            x_of(0.0),
            y_of(0.0),
            x_of(ideal_end),
            y_of(ideal_end),
        );
        let pts: Vec<(f64, f64)> = self
            .curve
            .iter()
            .map(|r| (x_of(self.config.rate * r.multiplier), y_of(r.throughput_per_s)))
            .collect();
        polyline(&mut svg, &pts, PALETTE[0]);
        for (r, &(x, y)) in self.curve.iter().zip(&pts) {
            let _ = writeln!(
                svg,
                "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"3\" fill=\"{}\"/>\
                 <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\">{}x</text>",
                PALETTE[0],
                x + 5.0,
                y - 5.0,
                r.multiplier,
            );
        }
        let _ = writeln!(
            svg,
            "<text x=\"{lx}\" y=\"{:.1}\" font-size=\"11\">offered load (max {max_offered} \
             jobs/s); dashed = lossless</text>",
            h - 4.0,
        );
        svg.push_str("</svg>\n");
        page.raw(&svg);
    }

    fn depth_chart(&self, page: &mut Page) {
        page.heading(2, "Queue depth over time (1x run)");
        let (w, h, lx, by) = (640.0, 160.0, 56.0, 132.0);
        let horizon = self.config.duration_ms.saturating_mul(1_000_000).max(1);
        let max_d = self.depth_timeline.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let cap = self.config.queue_cap.max(1);
        let top = cap.max(max_d).max(1) as f64;
        let x_of = |t: u64| lx + t as f64 / horizon as f64 * (w - lx - 8.0);
        let y_of = |d: f64| by - d / top * (by - 16.0);
        let mut svg = String::new();
        let _ = writeln!(svg, "<svg class=\"chart\" width=\"{w}\" height=\"{h}\" role=\"img\">");
        axes(&mut svg, w, h, lx, by);
        let cap_y = y_of(cap as f64);
        let _ = writeln!(
            svg,
            "<line x1=\"{lx}\" y1=\"{cap_y:.1}\" x2=\"{:.1}\" y2=\"{cap_y:.1}\" \
             stroke=\"#d62728\" stroke-dasharray=\"4 3\"/>\
             <text x=\"4\" y=\"{:.1}\" font-size=\"11\">cap {cap}</text>",
            w - 8.0,
            cap_y + 4.0,
        );
        let pts: Vec<(f64, f64)> =
            self.depth_timeline.iter().map(|&(t, d)| (x_of(t), y_of(d as f64))).collect();
        polyline(&mut svg, &pts, PALETTE[1]);
        let _ = writeln!(
            svg,
            "<text x=\"{lx}\" y=\"{:.1}\" font-size=\"11\">0..{} ms (peak depth {max_d})</text>",
            h - 4.0,
            self.config.duration_ms,
        );
        svg.push_str("</svg>\n");
        page.raw(&svg);
    }

    fn blame_table(&self, page: &mut Page) {
        let one = &self.curve[ONE_X];
        page.heading(2, "Per-job blame (1x run)");
        page.para(&format!(
            "first {} of {} admitted jobs; the dominant granularity term is bold. \
             The four terms partition each job's wall time exactly.",
            one.jobs.len().min(40),
            one.jobs.len(),
        ));
        page.table_start(&[
            "job",
            "tenant",
            "arrival ms",
            "queue us",
            "dispatch us",
            "kernel us",
            "reduce us",
            "wall us",
        ]);
        for j in one.jobs.iter().take(40) {
            let terms =
                [j.t_queue_ns, j.t_dispatch_ns, j.t_kernel_ns, j.t_reduce_ns];
            let dom = terms.iter().copied().max().unwrap_or(0);
            let cell = |v: u64| {
                if v == dom && dom > 0 {
                    format!("<td><b>{:.1}</b></td>", v as f64 / 1e3)
                } else {
                    format!("<td>{:.1}</td>", v as f64 / 1e3)
                }
            };
            page.table_row(
                None,
                &format!(
                    "<td>{}</td><td>{}</td><td>{:.2}</td>{}{}{}{}<td>{:.1}</td>",
                    j.job,
                    j.tenant,
                    j.arrival_ns as f64 / 1e6,
                    cell(j.t_queue_ns),
                    cell(j.t_dispatch_ns),
                    cell(j.t_kernel_ns),
                    cell(j.t_reduce_ns),
                    j.wall_ns() as f64 / 1e3,
                ),
            );
        }
        page.table_end();
    }
}

/// The shared qualitative palette (matplotlib tab colors).
const PALETTE: [&str; 6] =
    ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"];

fn axes(svg: &mut String, w: f64, h: f64, lx: f64, by: f64) {
    let _ = writeln!(
        svg,
        "<line class=\"axis\" x1=\"{lx}\" y1=\"16\" x2=\"{lx}\" y2=\"{by}\"/>\
         <line class=\"axis\" x1=\"{lx}\" y1=\"{by}\" x2=\"{:.1}\" y2=\"{by}\"/>",
        w - 8.0,
    );
    let _ = h;
}

fn polyline(svg: &mut String, pts: &[(f64, f64)], color: &str) {
    if pts.is_empty() {
        return;
    }
    let mut d = String::new();
    for &(x, y) in pts {
        let _ = write!(d, "{x:.1},{y:.1} ");
    }
    let _ = writeln!(
        svg,
        "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>",
        d.trim_end(),
    );
}

/// Outcome tallies of one live drive against a running `serve`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveSummary {
    /// POSTs attempted.
    pub sent: usize,
    /// `202 Accepted` responses.
    pub admitted: usize,
    /// `429 Too Many Requests` responses (queue at its bound).
    pub rejected: usize,
    /// `503 Service Unavailable` responses (service draining).
    pub draining: usize,
    /// Connections or responses that failed outright.
    pub errors: usize,
    /// 429s re-POSTed after honoring the server's `Retry-After`.
    pub retried: usize,
    /// Retries that were then admitted.
    pub recovered: usize,
}

/// Replay the 1× arrival schedule as live `POST /jobs` traffic against
/// `url` (`HOST:PORT`). Pacing uses the host clock, so outcomes are
/// timing-dependent — they report to stdout only and never feed the
/// byte-deterministic artifacts. Each POST goes through
/// [`crate::serve::http_request`], so a server that accepts and never
/// answers fails that POST after the client timeout instead of hanging.
pub fn drive(url: &str, cfg: &LoadgenConfig) -> Result<LiveSummary, String> {
    let post_job = |body: &str| crate::serve::http_request(url, "POST", "/jobs", body);
    let schedule = offered_jobs(cfg, ONE_X);
    let start = std::time::Instant::now();
    let mut sum = LiveSummary::default();
    let mut jitter = Lcg(cfg.seed ^ 0x7e74_af7e);
    for (index, o) in schedule.iter().enumerate() {
        let due = std::time::Duration::from_nanos(o.arrival_ns);
        if let Some(remaining) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(remaining);
        }
        sum.sent += 1;
        // Size the phylo spec by the modeled service demand, within the
        // serve plane's clamps.
        let sites = (o.service_ns / 4_000).clamp(16, 8192);
        let body = format!("taxa=8&sites={sites}&bootstraps=1&tenant={}", o.tenant);
        match post_job(&body) {
            Ok((202, _, _)) => sum.admitted += 1,
            Ok((429, retry_after_s, _)) => {
                // Honor the server's advice once, capped so one hot job
                // cannot stall the whole open loop, with seeded jitter to
                // decorrelate a burst of rejected arrivals.
                sum.rejected += 1;
                let advised_ms = retry_after_s.unwrap_or(1).saturating_mul(1_000);
                let backoff_ms = advised_ms.min(25) + jitter.next() % (1 + index as u64 % 5);
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                sum.retried += 1;
                match post_job(&body) {
                    Ok((202, _, _)) => sum.recovered += 1,
                    Ok((429 | 503, _, _)) => {}
                    _ => sum.errors += 1,
                }
            }
            Ok((503, _, _)) => sum.draining += 1,
            _ => sum.errors += 1,
        }
    }
    if sum.sent > 0 && sum.errors == sum.sent {
        return Err(format!("{url}: every POST /jobs failed — is a serve running there?"));
    }
    Ok(sum)
}

/// The pre-`Drr` model — W servers draining one global FIFO — kept as the
/// differential oracle: with one tenant DRR is FIFO, so [`simulate`] must
/// reproduce it exactly.
#[cfg(test)]
mod classic {
    use std::collections::VecDeque;

    use super::*;

    pub fn simulate(cfg: &LoadgenConfig, index: usize) -> RateRun {
        let offered = offered_jobs(cfg, index);
        let mut free = vec![0u64; cfg.workers.max(1)];
        // Start instants of admitted-but-not-yet-started jobs. In a FIFO
        // multi-server queue start instants are non-decreasing, so the
        // occupancy at any arrival is a suffix of this deque.
        let mut waiting: VecDeque<u64> = VecDeque::new();
        let cap = cfg.queue_cap.max(1);
        let mut jobs = Vec::new();
        let mut rejected = 0usize;
        let mut max_depth = 0usize;
        for o in &offered {
            while waiting.front().is_some_and(|&s| s <= o.arrival_ns) {
                waiting.pop_front();
            }
            if waiting.len() >= cap {
                rejected += 1;
                continue;
            }
            let (w, earliest) = free
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(i, f)| (f, i))
                .unwrap_or((0, 0));
            let start = o.arrival_ns.max(earliest);
            free[w] = start + o.service_ns;
            if start > o.arrival_ns {
                waiting.push_back(start);
                max_depth = max_depth.max(waiting.len());
            }
            let mut job = ModelJob::admitted(jobs.len() as u64, o);
            job.t_queue_ns = start - o.arrival_ns;
            jobs.push(job);
        }
        rate_run(cfg, index, offered.len(), jobs, rejected, max_depth)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn small() -> LoadgenConfig {
        LoadgenConfig { rate: 800.0, duration_ms: 400, seed: 0x10ad, ..LoadgenConfig::default() }
    }

    #[test]
    fn artifacts_are_byte_deterministic() {
        let (a, b) = (run_loadtest(&small()), run_loadtest(&small()));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_html(), b.render_html());
    }

    #[test]
    fn different_seeds_change_the_traffic() {
        let mut other = small();
        other.seed = 0xbeef;
        assert_ne!(run_loadtest(&small()).to_json(), run_loadtest(&other).to_json());
    }

    #[test]
    fn blame_terms_partition_wall_time_exactly() {
        let report = run_loadtest(&small());
        for run in &report.curve {
            for j in &run.jobs {
                assert_eq!(
                    j.t_queue_ns + j.t_dispatch_ns + j.t_kernel_ns + j.t_reduce_ns,
                    j.wall_ns(),
                    "job {} at {}x", j.job, run.multiplier
                );
                assert_eq!(j.completion_ns(), j.arrival_ns + j.wall_ns());
            }
        }
    }

    #[test]
    fn the_queue_bound_is_respected_and_overload_rejects() {
        let cfg = LoadgenConfig { rate: 4_000.0, ..small() };
        let report = run_loadtest(&cfg);
        for run in &report.curve {
            assert!(
                run.max_depth <= cfg.queue_cap,
                "{}x reached depth {} past cap {}", run.multiplier, run.max_depth, cfg.queue_cap
            );
            assert_eq!(run.offered, run.admitted + run.rejected);
        }
        // The open loop does not slow down: 4x offered load must actually
        // shed jobs at this service mix.
        assert!(report.curve[4].rejected > report.curve[0].rejected);
    }

    #[test]
    fn quantiles_are_ordered_and_exact_quantile_interpolates() {
        let report = run_loadtest(&small());
        for run in &report.curve {
            let (p50, p95, p99) = (run.p50_ns.unwrap(), run.p95_ns.unwrap(), run.p99_ns.unwrap());
            assert!(p50 <= p95 && p95 <= p99, "{}x: {p50} {p95} {p99}", run.multiplier);
        }
        assert_eq!(exact_quantile(&[], 0.5), None);
        assert_eq!(exact_quantile(&[10], 0.99), Some(10.0));
        assert_eq!(exact_quantile(&[0, 100], 0.5), Some(50.0));
        assert_eq!(exact_quantile(&[0, 100, 200, 300], 0.25), Some(75.0));
    }

    #[test]
    fn the_json_document_is_strictly_parseable_with_the_declared_schema() {
        let report = run_loadtest(&small());
        let doc = minijson::parse(&report.to_json()).expect("strict parse");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(LOADTEST_SCHEMA));
        let curve = doc.get("curve").and_then(|v| v.as_array()).expect("curve");
        assert_eq!(curve.len(), MULTIPLIERS.len());
        let jobs = doc.get("jobs").and_then(|v| v.as_array()).expect("jobs");
        assert!(!jobs.is_empty());
        for j in jobs {
            let term = |k: &str| j.get(k).and_then(|v| v.as_u64()).expect("term");
            assert_eq!(
                term("t_queue_ns")
                    + term("t_dispatch_ns")
                    + term("t_kernel_ns")
                    + term("t_reduce_ns"),
                term("wall_ns"),
            );
        }
        assert_eq!(
            doc.get("jobs_listed").and_then(|v| v.as_u64()).unwrap(),
            jobs.len() as u64
        );
    }

    #[test]
    fn the_html_report_is_self_contained() {
        let html = run_loadtest(&small()).render_html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        for needle in ["http://", "https://", "<script", "src="] {
            assert!(!html.contains(needle), "found {needle}");
        }
        for section in [
            "Latency CDF per tenant",
            "Throughput vs offered load",
            "Queue depth over time",
            "Per-job blame",
        ] {
            assert!(html.contains(section), "missing {section}");
        }
    }

    #[test]
    fn jain_index_is_one_when_even_and_drops_when_skewed() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        // One tenant hogging everything: J = 1/n.
        let hog = jain_index(&[12.0, 0.0, 0.0, 0.0]);
        assert!((hog - 0.25).abs() < 1e-12, "got {hog}");
        let mild = jain_index(&[4.0, 6.0]);
        assert!(mild < 1.0 && mild > 0.9, "got {mild}");
    }

    #[test]
    fn fairness_verdict_normalizes_shares_by_tenant_weight() {
        let report = run_loadtest(&small());
        let shares: Vec<f64> = report
            .tenants
            .iter()
            .map(|t| t.jobs as f64) // unweighted: every weight defaults to 1
            .collect();
        assert_eq!(report.verdicts.jain_index, jain_index(&shares));
        let expected = if report.verdicts.jain_index >= 0.9 { "fair" } else { "skewed" };
        assert_eq!(report.verdicts.fairness, expected);
        let json = report.to_json();
        assert!(json.contains("\"fairness\""), "verdicts must carry the fairness call");
        assert!(json.contains("\"jain_index\""), "verdicts must carry the raw index");
    }

    #[test]
    fn tenant_weights_shape_the_verdict_and_stay_deterministic() {
        let mut cfg = small();
        cfg.tenants = 4;
        cfg.tenant_weights = vec![8, 1, 1, 1];
        let (a, b) = (run_loadtest(&cfg), run_loadtest(&cfg));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_html(), b.render_html());
        // The declared weights are part of the record.
        assert!(a.to_json().contains("\"tenant_weights\""));
        // The uniform open loop gives tenant 0 roughly a 1/4 share, so
        // normalizing by weight 8 must read as skew against tenant 0.
        let mut even = cfg.clone();
        even.tenant_weights = Vec::new();
        let unweighted = run_loadtest(&even);
        assert!(
            a.verdicts.jain_index < unweighted.verdicts.jain_index,
            "weighted {} vs unweighted {}",
            a.verdicts.jain_index,
            unweighted.verdicts.jain_index,
        );
        assert_eq!(a.verdicts.fairness, "skewed");
    }

    #[test]
    fn the_live_schedule_matches_the_modeled_one_x_run() {
        let cfg = small();
        let offered = offered_jobs(&cfg, ONE_X);
        let modeled = &run_loadtest(&cfg).curve[ONE_X];
        assert_eq!(offered.len(), modeled.offered);
        // Admission order is arrival order, so the admitted jobs are a
        // subsequence of the offered schedule.
        let mut it = offered.iter();
        for j in &modeled.jobs {
            assert!(it.any(|o| o.arrival_ns == j.arrival_ns && o.tenant == j.tenant));
        }
    }

    /// Median wall time of `tenant`'s admitted jobs in `run`.
    fn tenant_p50(run: &RateRun, tenant: usize) -> f64 {
        let mut walls: Vec<u64> =
            run.jobs.iter().filter(|j| j.tenant == tenant).map(ModelJob::wall_ns).collect();
        walls.sort_unstable();
        exact_quantile(&walls, 0.5).expect("tenant admitted jobs")
    }

    /// Under a global FIFO the two tenants' traffic is exchangeable, so
    /// their medians sit within a few percent of each other. Serve's DRR
    /// pops four weight-4 jobs per weight-1 job, so in the overloaded 4×
    /// run the light tenant waits several times longer.
    #[test]
    fn tenant_weights_drive_dispatch() {
        let cfg = LoadgenConfig {
            duration_ms: 400,
            tenants: 2,
            tenant_weights: vec![4, 1],
            ..LoadgenConfig::default()
        };
        let run = &run_loadtest(&cfg).curve[4];
        let (heavy, light) = (tenant_p50(run, 0), tenant_p50(run, 1));
        assert!(2.0 * heavy < light, "weight-4 p50 {heavy} ns vs weight-1 p50 {light} ns");
    }

    #[test]
    fn drive_fails_on_a_silent_server_instead_of_hanging() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let cfg = LoadgenConfig { rate: 1.0, duration_ms: 1_000, seed: 2, ..small() };
        assert_eq!(offered_jobs(&cfg, ONE_X).len(), 1, "the schedule should hold one POST");
        let (done, finished) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // Accept the one POST and hold it unanswered until drive gives up.
            s.spawn(move || {
                let held = listener.accept();
                finished.recv().ok();
                drop(held);
            });
            let start = std::time::Instant::now();
            let outcome = drive(&addr, &cfg);
            let elapsed = start.elapsed();
            done.send(()).unwrap();
            assert!(outcome.is_err(), "{outcome:?}");
            assert!(elapsed < std::time::Duration::from_secs(10), "{elapsed:?}");
        });
    }

    proptest! {
        /// With one tenant DRR is FIFO: every run of serve's queue equals
        /// the global-FIFO oracle's, job for job.
        #[test]
        fn one_tenant_drr_matches_the_global_fifo_model(
            seed in 0u64..=u64::MAX,
            rate in 50.0f64..6_000.0,
            workers in 1usize..=4,
            queue_cap in 1usize..=16,
            index in 0..MULTIPLIERS.len(),
        ) {
            let cfg = LoadgenConfig {
                rate,
                duration_ms: 200,
                seed,
                tenants: 1,
                workers,
                queue_cap,
                tenant_weights: Vec::new(),
            };
            prop_assert_eq!(simulate(&cfg, index), classic::simulate(&cfg, index));
        }
    }
}
