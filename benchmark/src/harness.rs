//! The measuring kit every workload shares: run configuration and outcome,
//! order statistics, the seeded generator, process memory, the host
//! calibration spin, and the in-memory span recorder of the traced run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Instant;

use minijson::Value;

/// What one invocation measures.
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured part, seconds.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// The `--check` sizes: same code paths, a fraction of the work.
    pub tiny: bool,
    /// The `multigrain` binary `serve_open` spawns.
    pub serve_bin: PathBuf,
    /// Where the traced run writes its spans (`benchmark/out/`).
    pub out_dir: PathBuf,
}

/// What one invocation found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured part (rounds, or jobs sent).
    pub attempted: u64,
    /// Operations whose output was wrong, or that did not complete.
    pub failed: u64,
    /// Named values: the end-to-end metrics with tracing off, this
    /// workload's per-layer metrics in the traced run.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable findings (mismatches, counts per phase), to stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Count one operation and record why it failed, if it did.
    pub fn attempt(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why);
            }
        }
    }
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile at continuous rank `q * (n - 1)`, linearly interpolated.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them, so `--compare` judges spread the way the driver does.
pub fn python_quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The harness's own generator (splitmix64): workload inputs never depend
/// on a generator inside the program under test.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1), safe under `ln`.
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Peak resident set (`VmHWM`) in MB of this process, or of `pid`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed spin, in ms: eight independent multiply chains and a scattered
/// store, so it slows down when a neighbour shares the core or the cache,
/// as CPU-bound workloads do. It does the same work on every host and every
/// commit.
pub fn calib_spin_ms() -> f64 {
    let t = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut table = vec![0u64; 4096];
    for i in 0..4_000_000u64 {
        for lane in &mut lanes {
            *lane = lane.rotate_left(13).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i;
        }
        let slot = (lanes[0] as usize) & 4095;
        table[slot] = table[slot].wrapping_add(lanes[1]);
    }
    std::hint::black_box((lanes, table));
    t.elapsed().as_secs_f64() * 1e3
}

/// `host.calib_ms`: a run whose value stands out was taken on a busy host.
pub fn calib_ms() -> f64 {
    median(&(0..5).map(|_| calib_spin_ms()).collect::<Vec<_>>())
}

/// A second thread that sends back whatever it is sent: one round trip is
/// two thread hand-overs through a channel, each parking one thread and
/// waking the other — what an off-load to an SPE thread costs the host.
struct Echo {
    to: Option<mpsc::Sender<()>>,
    from: mpsc::Receiver<()>,
    partner: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    fn start() -> Echo {
        let (to, inbox) = mpsc::channel();
        let (reply, from) = mpsc::channel();
        let partner = std::thread::spawn(move || {
            for () in inbox {
                if reply.send(()).is_err() {
                    break;
                }
            }
        });
        Echo {
            to: Some(to),
            from,
            partner: Some(partner),
        }
    }

    /// Microseconds per round trip, over 200 of them.
    fn round_trip_us(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..200 {
            let sent = self.to.as_ref().is_some_and(|to| to.send(()).is_ok());
            assert!(sent && self.from.recv().is_ok(), "echo thread is gone");
        }
        t.elapsed().as_secs_f64() * 1e6 / 200.0
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.to.take(); // closes the channel, which ends the partner's loop
        if let Some(partner) = self.partner.take() {
            let _ = partner.join();
        }
    }
}

/// `host.handover_us`: the echo round trip, median of five bursts.
pub fn handover_us() -> f64 {
    let echo = Echo::start();
    median(&(0..5).map(|_| echo.round_trip_us()).collect::<Vec<_>>())
}

/// A gauge of the host's condition, sampled — untimed — before every
/// set-up and every round of a run.
///
/// This host is shared, and its neighbours are audible: the same
/// deterministic `sim_core` round read 0.78 s and, twenty minutes later,
/// 1.0–1.3 s; two sets of ten `boot_offload_task` runs of one commit
/// differed by 20 %. A probe that does fixed work in harness code follows
/// those swings (run-level correlation with the spin: `sim_core` 0.93,
/// `sim_verify` 0.74; with the echo round trip: `boot_offload_task` 0.91,
/// `boot_adaptive` 0.93), so a workload's times are reported at the
/// reference host condition: multiplied by reference ÷ the run's median
/// probe reading. A change to the program moves the round and not the
/// probe.
pub struct Gauge {
    probe: Box<dyn FnMut() -> f64>,
    /// What the probe reads on the host the benchmark was defined on while
    /// its neighbours are quiet.
    reference: f64,
    samples: Vec<f64>,
}

impl Gauge {
    /// CPU speed, for single-threaded CPU-bound workloads.
    pub fn spin() -> Gauge {
        Gauge {
            probe: Box::new(calib_spin_ms),
            reference: 10.8,
            samples: Vec::new(),
        }
    }

    /// Thread hand-over latency, for workloads that off-load.
    pub fn hand_over() -> Gauge {
        let echo = Echo::start();
        Gauge {
            probe: Box::new(move || echo.round_trip_us()),
            reference: 36.0,
            samples: Vec::new(),
        }
    }

    /// No probe and no correction (the traced run reports raw times).
    pub fn none() -> Gauge {
        Gauge {
            probe: Box::new(|| 1.0),
            reference: 1.0,
            samples: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        self.samples.push((self.probe)());
    }

    pub fn correction(&self) -> f64 {
        self.reference / median(&self.samples)
    }
}

/// Run `op` until `seconds` have passed and at least `min_rounds` rounds
/// are done; returns each round's wall seconds. The gauge is sampled
/// before each round, outside its timing.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    gauge: &mut Gauge,
    mut op: impl FnMut(usize),
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        gauge.sample();
        let t = Instant::now();
        op(walls.len());
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// One recorded interval. `id` ties the spans of one round (or one job)
/// together; `parent` indexes the span that caused this one.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the run ends. One recorder
/// per thread; a parent adopts its workers' recorders after joining them.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Count, total and self nanoseconds of every span of one name.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, id: u64) {
        let at = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: at,
            end_ns: at,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let at = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        self.spans[open].end_ns = at;
    }

    pub fn scope<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let r = f();
        self.exit();
        r
    }

    /// Record an interval measured elsewhere (a finished exchange, a
    /// service-stamped term) under `parent`.
    pub fn push_closed(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Take over a worker thread's spans as children of the open span.
    pub fn adopt(&mut self, other: Spans) {
        let base = self.spans.len();
        let top = self.stack.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(top);
            self.spans.push(s);
        }
    }

    /// Self time of a span is its duration minus the part of it that its
    /// direct children cover (their union, so parallel children count once).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids = std::mem::take(&mut children[i]);
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Write the spans of a traced run to `out/spans-<workload>-<seed>.json`.
    pub fn save(&self, cfg: &RunCfg, workload: &str, out: &mut Outcome) {
        let path = cfg
            .out_dir
            .join(format!("spans-{workload}-{}.json", cfg.seed));
        if let Err(e) = self.write(&path) {
            out.notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }

    /// Every span as one JSON array (name, id, parent, start, end).
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, Value::from);
            let row = Value::object(vec![
                ("name", s.name.into()),
                ("id", s.id.into()),
                ("parent", parent),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
            ]);
            text.push_str(&row.to_json());
            text.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        text.push_str("]\n");
        std::fs::write(path, text)
    }
}
