//! `serve_open`: the `multigrain serve` binary as a child process, under
//! an open-loop load of the harness's own making.
//!
//! Tenants are independent, so arrivals follow a schedule drawn up front
//! (seeded Poisson arrivals, bounded-Pareto job sizes) and do not slow
//! down when the service does. Every request is timed from the instant it
//! was *due*; how late the generator fired is reported, and a run whose
//! generator ran late is not valid. The generator is this file's own: a
//! later change to `multigrain loadgen` cannot change the load.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use multigrain::loadgen::{run_loadtest, LoadgenConfig, ONE_X};

use crate::harness::{median, peak_rss_mb, quantile, Outcome, RunCfg, Spans, SplitMix64};

/// Offered load, jobs per second.
const RATE: f64 = 100.0;
const TENANTS: usize = 2;
const WORKERS: usize = 2;
const JOB_QUEUE: usize = 64;
/// Sender threads (each with a collector that waits for the responses).
const SENDERS: usize = 2;
/// A request fired more than this long after it was due counts as late.
/// When the median request is late the schedule is slipping: the measured
/// latencies then describe the generator, not the service, and the run is
/// not valid. Single late requests do not invalidate a run — on a two-core
/// host a burst of service threads can keep a woken sender off the CPU
/// for milliseconds — but their share and the 99th percentile are
/// reported, and every latency is timed from the due instant regardless.
const LATE_MS: f64 = 2.0;

/// One arrival of the offered traffic.
struct Job {
    due: Duration,
    tenant: usize,
    sites: usize,
}

/// `count` arrivals: exponential gaps at `RATE`, a tenant drawn per job,
/// and a bounded-Pareto (alpha 1.5, 0.2–50 ms) service demand turned into
/// the `sites` of the job's spec.
fn schedule(rng: &mut SplitMix64, count: usize) -> Vec<Job> {
    let (lo, hi, alpha) = (200_000.0f64, 50_000_000.0f64, 1.5);
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += -rng.unit().ln() / RATE;
            let tenant = (rng.next() % TENANTS as u64) as usize;
            let (la, ha) = (lo.powf(-alpha), hi.powf(-alpha));
            let service_ns = (la - rng.unit() * (la - ha)).powf(-1.0 / alpha);
            let sites = ((service_ns / 4_000.0) as usize).clamp(16, 8192);
            Job {
                due: Duration::from_secs_f64(at),
                tenant,
                sites,
            }
        })
        .collect()
}

/// What became of one request. Times are ns since the phase began.
#[derive(Clone, Copy, Default)]
struct Sent {
    due_ns: u64,
    fired_ns: u64,
    answered_ns: u64,
    /// HTTP status, 0 when the exchange failed.
    status: u16,
    job: u64,
}

/// The four service-stamped terms of one completed job, ns.
type Terms = [u64; 4];

struct Server {
    child: Child,
    addr: String,
    stdout: std::thread::JoinHandle<Vec<String>>,
    boot_ms: f64,
}

fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    Ok(text)
}

impl Server {
    /// Spawn `multigrain serve` and wait until `/health` answers.
    fn boot(cfg: &RunCfg) -> Result<Server, String> {
        let started = Instant::now();
        // --for-ms is only the safety net that ends an orphaned child; the
        // harness stops the service itself with SIGINT.
        let lifetime_ms = ((cfg.seconds + 90.0) * 1e3) as u64;
        let mut child = Command::new(&cfg.serve_bin)
            .args(["serve", "--workers", &WORKERS.to_string(), "--tasks", "1"])
            .args([
                "--job-queue",
                &JOB_QUEUE.to_string(),
                "--ring-capacity",
                "65536",
            ])
            .args([
                "--for-ms",
                &lifetime_ms.to_string(),
                "--seed",
                &cfg.seed.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cfg.serve_bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let first = lines.next().and_then(Result::ok).unwrap_or_default();
        let Some(addr) = first
            .rsplit("http://")
            .next()
            .filter(|_| first.contains("listening"))
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("serve did not announce its address: {first:?}"));
        };
        let addr = addr.trim().to_string();
        let stdout = std::thread::spawn(move || lines.map_while(Result::ok).collect());
        let mut server = Server {
            child,
            addr,
            stdout,
            boot_ms: 0.0,
        };
        while !http_get(&server.addr, "/health").is_ok_and(|r| r.starts_with("HTTP/1.1 200")) {
            if started.elapsed() > Duration::from_secs(20) {
                server.stop();
                return Err("serve never answered /health".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.boot_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(server)
    }

    /// SIGINT, wait for the drain, and return the exit code, the drain
    /// time in ms, and everything the child printed.
    fn stop(mut self) -> (Option<i32>, f64, Vec<String>) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGINT: i32 = 2;
        let t = Instant::now();
        // SAFETY: `kill` only takes two integers; the pid is our own
        // child's, which has not been waited for yet, so it cannot have
        // been reused.
        unsafe { kill(self.child.id() as i32, SIGINT) };
        let code = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.code(),
                Ok(None) if t.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        (code, drain_ms, self.stdout.join().unwrap_or_default())
    }
}

/// Tail `/events` and collect every `job_completed` record by job id.
fn follow_events(
    addr: &str,
    done: Arc<Mutex<HashMap<u64, (Terms, u32)>>>,
) -> std::thread::JoinHandle<()> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let Ok(mut stream) = TcpStream::connect(&addr) else {
            return;
        };
        if write!(stream, "GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").is_err() {
            return;
        }
        for line in BufReader::new(stream).lines().map_while(Result::ok) {
            if !line.contains("\"job_completed\"") {
                continue;
            }
            let Ok(v) = minijson::parse(&line) else {
                continue;
            };
            let field = |k: &str| v.get(k).and_then(minijson::Value::as_u64);
            if let (Some(job), Some(q), Some(d), Some(k), Some(r)) = (
                field("job"),
                field("t_queue_ns"),
                field("t_dispatch_ns"),
                field("t_kernel_ns"),
                field("t_reduce_ns"),
            ) {
                let mut map = done.lock().expect("events map poisoned");
                let entry = map.entry(job).or_insert(([q, d, k, r], 0));
                entry.1 += 1;
            }
        }
    })
}

/// Scrape `/metrics` once a second until told to stop; ms per scrape.
fn scrape(addr: &str, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<Vec<f64>> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut took = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let t = Instant::now();
            if http_get(&addr, "/metrics").is_ok_and(|r| r.starts_with("HTTP/1.1 200")) {
                took.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let mut slept = 0;
            while slept < 1_000 && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                slept += 20;
            }
        }
        took
    })
}

/// Replay `jobs` against the service. Each sender sleeps until a job is
/// due, connects and writes the request, and hands the socket to its
/// collector, which waits for the answer — so a slow answer never delays
/// the next request.
fn drive(addr: &str, jobs: &[Job]) -> Vec<Sent> {
    let epoch = Instant::now();
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut all = vec![Sent::default(); jobs.len()];
    std::thread::scope(|scope| {
        let mut collectors = Vec::new();
        for s in 0..SENDERS {
            let (tx, rx) = mpsc::channel::<(usize, Sent, Option<TcpStream>)>();
            scope.spawn(move || {
                for (i, job) in jobs.iter().enumerate().skip(s).step_by(SENDERS) {
                    if let Some(wait) = job.due.checked_sub(epoch.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let fired = Instant::now();
                    let body = format!(
                        "taxa=8&sites={}&bootstraps=1&tenant={}",
                        job.sites, job.tenant
                    );
                    let stream = TcpStream::connect(addr).ok().and_then(|mut stream| {
                        write!(
                            stream,
                            "POST /jobs HTTP/1.1\r\nHost: {addr}\r\n\
                             Content-Type: application/x-www-form-urlencoded\r\n\
                             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                            body.len()
                        )
                        .ok()
                        .map(|()| stream)
                    });
                    let sent = Sent {
                        due_ns: job.due.as_nanos() as u64,
                        fired_ns: since(fired),
                        ..Sent::default()
                    };
                    if tx.send((i, sent, stream)).is_err() {
                        return;
                    }
                }
            });
            collectors.push(scope.spawn(move || {
                let mut got = Vec::new();
                for (i, mut sent, stream) in rx {
                    let mut text = String::new();
                    if let Some(mut stream) = stream {
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                        let _ = stream.read_to_string(&mut text);
                    }
                    sent.answered_ns = since(Instant::now());
                    sent.status = text.get(9..12).and_then(|c| c.parse().ok()).unwrap_or(0);
                    sent.job = text
                        .split_once("\"job\":")
                        .map(|(_, rest)| {
                            rest.chars()
                                .take_while(char::is_ascii_digit)
                                .collect::<String>()
                        })
                        .and_then(|digits| digits.parse().ok())
                        .unwrap_or(0);
                    got.push((i, sent));
                }
                got
            }));
        }
        for c in collectors {
            for (i, sent) in c.join().expect("collector panicked") {
                all[i] = sent;
            }
        }
    });
    all
}

/// Counts of one phase, for the log and for `failed`.
#[derive(Default)]
struct Tally {
    sent: usize,
    admitted: usize,
    rejected: usize,
    draining: usize,
    errors: usize,
    completed: usize,
    duplicated: usize,
}

impl Tally {
    fn line(&self, phase: &str) -> String {
        format!(
            "{phase}: sent {} / 202 {} / 429 {} / 503 {} / errors {} / completed {} / completed twice {}",
            self.sent, self.admitted, self.rejected, self.draining, self.errors, self.completed, self.duplicated
        )
    }

    /// Requests that did not end as one admitted job completed once.
    fn failed(&self) -> usize {
        self.sent - self.completed + self.duplicated
    }
}

/// Latencies of one phase, ms: due → 202 on the client's clock, and
/// admission → completion as the service stamped it.
struct Phase {
    tally: Tally,
    admit_ms: Vec<f64>,
    job_ms: Vec<f64>,
    /// Admission plus completion per job: time to result.
    result_ms: Vec<f64>,
    late_ms: Vec<f64>,
    terms: Terms,
    span_s: f64,
}

/// Wait (briefly) for the completion records of every admitted job, then
/// fold the phase.
fn settle(sent: &[Sent], done: &Mutex<HashMap<u64, (Terms, u32)>>) -> Phase {
    let admitted: Vec<&Sent> = sent.iter().filter(|s| s.status == 202).collect();
    let waited = Instant::now();
    while waited.elapsed() < Duration::from_secs(3) {
        let map = done.lock().expect("events map poisoned");
        if admitted.iter().all(|s| map.contains_key(&s.job)) {
            break;
        }
        drop(map);
        std::thread::sleep(Duration::from_millis(10));
    }
    let map = done.lock().expect("events map poisoned");
    let mut p = Phase {
        tally: Tally {
            sent: sent.len(),
            admitted: admitted.len(),
            ..Tally::default()
        },
        admit_ms: Vec::new(),
        job_ms: Vec::new(),
        result_ms: Vec::new(),
        late_ms: sent
            .iter()
            .map(|s| s.fired_ns.saturating_sub(s.due_ns) as f64 / 1e6)
            .collect(),
        terms: [0; 4],
        span_s: sent.iter().map(|s| s.answered_ns).max().unwrap_or(0) as f64 / 1e9,
    };
    for s in sent {
        match s.status {
            202 => {}
            429 => p.tally.rejected += 1,
            503 => p.tally.draining += 1,
            _ => p.tally.errors += 1,
        }
    }
    for s in admitted {
        let admit = s.answered_ns.saturating_sub(s.due_ns) as f64 / 1e6;
        p.admit_ms.push(admit);
        if let Some((terms, times)) = map.get(&s.job) {
            p.tally.completed += 1;
            p.tally.duplicated += usize::from(*times > 1);
            let job = terms.iter().sum::<u64>() as f64 / 1e6;
            p.job_ms.push(job);
            p.result_ms.push(admit + job);
            for (total, t) in p.terms.iter_mut().zip(terms) {
                *total += t;
            }
        }
    }
    p
}

/// Pull `N <word>` out of the service's closing summary line.
fn summary_count(lines: &[String], word: &str) -> Option<u64> {
    let line = lines
        .iter()
        .rev()
        .find(|l| l.contains("violation(s)") && l.contains("tasks,"))?;
    let before = line.split(word).next()?;
    before.trim_end().rsplit([' ', ',']).next()?.parse().ok()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let warm_jobs = if cfg.tiny { 20 } else { 50 };
    let drive_jobs = (cfg.seconds * RATE).ceil() as usize;
    let mut rng = SplitMix64(cfg.seed);
    let warm = schedule(&mut rng, warm_jobs);

    // Set-up: spawn → /health answers → warm-up jobs drained. The first
    // two services exist only to time that and are stopped again.
    let mut setups = Vec::new();
    let mut live = None;
    for attempt in 0..3 {
        let t = Instant::now();
        let server = match Server::boot(cfg) {
            Ok(s) => s,
            Err(why) => {
                out.attempt(Err(why));
                return out;
            }
        };
        let done = Arc::new(Mutex::new(HashMap::new()));
        let events = follow_events(&server.addr, Arc::clone(&done));
        let phase = settle(&drive(&server.addr, &warm), &done);
        setups.push(t.elapsed().as_secs_f64());
        if attempt == 2 {
            out.notes.push(phase.tally.line("warm-up"));
            live = Some((server, done, events));
        } else {
            server.stop();
            let _ = events.join();
        }
    }
    let (server, done, events) = live.expect("third set-up keeps its service");

    let stop_scraper = Arc::new(AtomicBool::new(false));
    let scraper = scrape(&server.addr, Arc::clone(&stop_scraper));

    // The traced run drives twice: the first drive is its untraced
    // baseline, the second is turned into spans.
    let plain_jobs = if cfg.trace {
        drive_jobs / 3
    } else {
        drive_jobs
    };
    let plain = settle(&drive(&server.addr, &schedule(&mut rng, plain_jobs)), &done);
    out.notes.push(plain.tally.line("drive"));
    let mut spans = Spans::new(Instant::now());
    let traced = cfg.trace.then(|| {
        let sent = drive(&server.addr, &schedule(&mut rng, drive_jobs / 2));
        let phase = settle(&sent, &done);
        out.notes.push(phase.tally.line("traced drive"));
        // One `post` span per exchange and, under it, the service-stamped
        // terms of the job it admitted, laid end to end.
        let map = done.lock().expect("events map poisoned");
        for s in &sent {
            let post = spans.spans.len();
            spans.push_closed("post", s.job, None, s.fired_ns, s.answered_ns);
            let Some((terms, _)) = map.get(&s.job) else {
                continue;
            };
            let mut at = s.answered_ns;
            for (name, t) in ["queue", "dispatch", "kernel", "reduce"]
                .into_iter()
                .zip(terms)
            {
                spans.push_closed(name, s.job, Some(post), at, at + t);
                at += t;
            }
        }
        phase
    });

    stop_scraper.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().unwrap_or_default();
    let rss = peak_rss_mb(Some(server.child.id()));
    let boot_ms = server.boot_ms;
    let (code, drain_ms, printed) = server.stop();
    let _ = events.join();

    let violations = summary_count(&printed, "violation(s)");
    let dropped = summary_count(&printed, "dropped");
    let log_events = summary_count(&printed, "events,");
    let measured = traced.as_ref().unwrap_or(&plain);
    out.attempted = (plain.tally.sent + traced.as_ref().map_or(0, |p| p.tally.sent)) as u64;
    out.failed = (plain.tally.failed() + traced.as_ref().map_or(0, |p| p.tally.failed())) as u64;
    let late_p99 = quantile(&measured.late_ms, 0.99);
    let late_share = measured.late_ms.iter().filter(|&&ms| ms > LATE_MS).count() as f64
        / measured.late_ms.len().max(1) as f64;
    for (ok, why) in [
        (code == Some(0), format!("serve exited with {code:?}")),
        (
            violations == Some(0),
            format!("serve reported {violations:?} violation(s)"),
        ),
        (
            dropped == Some(0),
            format!("serve dropped {dropped:?} trace event(s)"),
        ),
        (
            median(&measured.late_ms) <= LATE_MS,
            format!(
                "generator fired {:.0}% of requests more than {LATE_MS} ms late: run invalid",
                late_share * 100.0
            ),
        ),
    ] {
        if !ok {
            out.failed = out.failed.max(1);
            out.notes.push(why);
        }
    }

    if !cfg.trace {
        out.put("setup_s", median(&setups));
        out.put("round_s", median(&plain.result_ms) / 1e3);
        out.put("peak_rss_mb", rss);
        return out;
    }

    let total: f64 = measured.terms.iter().sum::<u64>() as f64;
    let share = |i: usize| {
        if total > 0.0 {
            measured.terms[i] as f64 / total
        } else {
            0.0
        }
    };
    let model = run_loadtest(&LoadgenConfig {
        rate: RATE,
        duration_ms: (measured.tally.sent as f64 / RATE * 1e3) as u64,
        seed: cfg.seed,
        tenants: TENANTS,
        workers: WORKERS,
        queue_cap: JOB_QUEUE,
        tenant_weights: Vec::new(),
    });
    let model_p50_ms = model.curve[ONE_X].p50_ns.unwrap_or(0.0) / 1e6;
    let job_p50 = median(&measured.job_ms);
    out.put("round.wall_s", median(&measured.result_ms) / 1e3);
    out.put(
        "tracing.overhead_share",
        median(&measured.result_ms) / median(&plain.result_ms) - 1.0,
    );
    out.put(
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.put("serve.boot_ms", boot_ms);
    out.put("serve.admit_p50_ms", median(&measured.admit_ms));
    out.put("serve.admit_p95_ms", quantile(&measured.admit_ms, 0.95));
    out.put("serve.admit_p99_ms", quantile(&measured.admit_ms, 0.99));
    out.put("serve.job_p50_ms", job_p50);
    out.put("serve.job_p95_ms", quantile(&measured.job_ms, 0.95));
    out.put("serve.job_p99_ms", quantile(&measured.job_ms, 0.99));
    out.put(
        "serve.goodput_jobs_per_s",
        measured.tally.completed as f64 / measured.span_s,
    );
    out.put("serve.t_queue_share", share(0));
    out.put("serve.t_dispatch_share", share(1));
    out.put("serve.t_kernel_share", share(2));
    out.put("serve.t_reduce_share", share(3));
    out.put("serve.rejected", measured.tally.rejected as f64);
    out.put("serve.scrape_p50_ms", median(&scrapes));
    out.put("serve.drain_ms", drain_ms);
    out.put("serve.log_events", log_events.unwrap_or(0) as f64);
    out.put("serve.dropped_events", dropped.unwrap_or(0) as f64);
    out.put("serve.violations", violations.unwrap_or(0) as f64);
    out.put(
        "loadgen.model_job_p50_ratio",
        if model_p50_ms > 0.0 {
            job_p50 / model_p50_ms
        } else {
            0.0
        },
    );
    out.put("driver.late_p99_ms", late_p99);
    out.put("driver.late_share", late_share);

    spans.save(cfg, "serve_open", &mut out);
    out
}
