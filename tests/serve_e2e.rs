//! End-to-end tests of `multigrain serve`: scrape all three telemetry
//! endpoints of a live service, read job results back, interrupt it, and
//! verify the graceful-shutdown contract — the interrupted run still
//! writes a checker-valid RunLog — plus the ring-drop alarm path
//! (undersized rings ⇒ `ring_drop` health event ⇒ exit code 4).

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cellsim::event::{AlarmKind, EventKind, RunLog, Severity};
use mgps_analysis::{check_run_with, CheckMode};
use mgps_obs::{parse_prometheus, validate_families};
use multigrain::serve::{http_get, ACCEPTORS, FIRST_WAIT};
use phylo::alignment::{Alignment, PatternAlignment};
use phylo::bootstrap::bootstrap_replicate;
use phylo::likelihood::LikelihoodEngine;
use phylo::model::Jc69;
use phylo::tree::Tree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test executable path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push("multigrain");
    p
}

/// A running `multigrain serve`. Dropping it kills and reaps the child
/// unless a wait already saw it exit, so a test that fails before its
/// SIGINT leaves no service behind.
struct Serve(Child);

impl Serve {
    /// Interrupt the service: the graceful-shutdown signal.
    fn sigint(&self) {
        extern "C" {
            #[link_name = "kill"]
            fn libc_kill(pid: i32, sig: i32) -> i32;
        }
        // SAFETY: `kill(2)` takes two integers and touches no memory of this
        // process; the pid is this test's own child, not yet reaped.
        unsafe {
            libc_kill(self.0.id() as i32, 2);
        }
    }

    /// Wait for the service to exit, with a hard timeout.
    fn wait_with_timeout(&mut self, limit: Duration) -> i32 {
        let start = Instant::now();
        loop {
            if let Some(status) = self.0.try_wait().expect("try_wait") {
                return status.code().expect("exited normally");
            }
            assert!(start.elapsed() < limit, "serve did not exit within {limit:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            self.0.kill().ok();
            self.0.wait().ok();
        }
    }
}

/// Spawn `multigrain serve` with `extra` flags and wait for its stdout to
/// announce the bound address. Returns the service and `host:port`.
fn spawn_serve(extra: &[&str]) -> (Serve, String) {
    let mut serve = Serve(
        Command::new(bin())
            .arg("serve")
            .args(["--port", "0", "--poll-ms", "50"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns"),
    );
    let stdout = serve.0.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("serve prints its address")
        .expect("stdout is UTF-8");
    let addr = first
        .rsplit("http://")
        .next()
        .expect("address after scheme")
        .trim()
        .to_string();
    assert!(addr.starts_with("127.0.0.1:"), "unexpected announce line: {first}");
    // Keep draining stdout in the background so the child never blocks on
    // a full pipe.
    std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
    (serve, addr)
}

/// Tail the `/events` NDJSON stream until `pred` matches a complete line
/// or the deadline passes. Returns the matching line, if any. `/events`
/// never ends on its own (it tails the journal until shutdown), so this
/// reads incrementally instead of waiting for EOF.
fn events_line_matching(
    addr: &str,
    pred: impl Fn(&str) -> bool,
    limit: Duration,
) -> Option<String> {
    use std::io::{Read, Write};
    let start = Instant::now();
    let mut stream = loop {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(_) if start.elapsed() < limit => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("connect {addr}: {e}"),
        }
    };
    stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    stream
        .write_all(format!("GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    let mut buf = [0u8; 4096];
    while start.elapsed() < limit {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) => {} // timeout tick; check what we have so far
        }
        // Only scan complete lines: the final fragment may be mid-write.
        if let Some((_, body)) = raw.split_once("\r\n\r\n") {
            if let Some((complete, _)) = body.rsplit_once('\n') {
                if let Some(found) = complete.lines().find(|l| pred(l)) {
                    return Some(found.to_string());
                }
            }
        }
    }
    None
}

/// One long-lived `/events` connection, read line by line. Unlike
/// [`events_line_matching`] it does not reconnect (and so does not replay
/// the backlog): once caught up, a line can only reach it by the tail
/// being woken for it.
struct EventsTail(BufReader<std::net::TcpStream>);

impl EventsTail {
    fn open(addr: &str) -> EventsTail {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(addr).expect("connect /events");
        // A line that never comes fails the test instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(format!("GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
            .expect("send request");
        EventsTail(BufReader::new(stream))
    }

    /// Block until a line matching `pred` arrives.
    fn next_matching(&mut self, what: &str, pred: impl Fn(&str) -> bool) -> String {
        loop {
            let mut line = String::new();
            match self.0.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                other => panic!("/events ended or stalled waiting for {what}: {other:?}"),
            }
            if pred(&line) {
                return line;
            }
        }
    }
}

/// The `"job"` field of a JSON object (an admission answer, an event line).
fn job_id(json: &str) -> u64 {
    minijson::parse(json)
        .ok()
        .and_then(|v| v.get("job").and_then(minijson::Value::as_u64))
        .unwrap_or_else(|| panic!("no job id in {json}"))
}

/// `POST /jobs` with `body`; the admitted job's id.
fn submit(addr: &str, body: &str) -> u64 {
    let (status, head, payload) = raw_request(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "{head} {payload}");
    job_id(&payload)
}

/// Retry a scrape until the telemetry thread has published a status.
fn scrape(addr: &str, path: &str) -> String {
    let start = Instant::now();
    loop {
        match http_get(addr, path) {
            Ok(body) => return body,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "{path} never became ready: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn serve_exposes_metrics_health_and_events_then_survives_sigint() {
    let dir = std::env::temp_dir().join(format!("mg-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("serve-run.json");

    let (mut child, addr) = spawn_serve(&["--out", log_path.to_str().unwrap()]);
    // 32 replicate off-loads: four MGPS windows of departures, so four
    // decisions at least.
    for _ in 0..2 {
        submit(&addr, "taxa=8&sites=64&bootstraps=16");
    }

    // /metrics parses as strict Prometheus text and the histogram
    // families validate (cumulative buckets, +Inf == _count).
    let metrics = scrape(&addr, "/metrics");
    let families = parse_prometheus(&metrics).expect("metrics parse");
    validate_families(&families).expect("families validate");
    assert!(metrics.contains("multigrain_offloads_total"));
    assert!(metrics.contains("multigrain_task_dur_ns_bucket"));
    assert!(metrics.contains("multigrain_spe_busy{spe=\"0\"}"));
    assert!(metrics.contains("multigrain_llp_degree"));

    // /health is JSON with an overall verdict.
    let health = scrape(&addr, "/health");
    let parsed = minijson::parse(&health).expect("health is JSON");
    assert_eq!(parsed.get("status").and_then(|v| v.as_str()), Some("ok"), "{health}");

    // /events streams NDJSON; decision lines carry the paper's
    // observables spelled out.
    let first = events_line_matching(
        &addr,
        |l| l.contains("\"type\":\"decision\""),
        Duration::from_secs(10),
    )
    .expect("a decision line on /events");
    let ev = minijson::parse(&first).expect("event line is JSON");
    assert_eq!(ev.get("type").and_then(|v| v.as_str()), Some("decision"), "{first}");
    assert!(ev.get("u").is_some() && ev.get("degree").is_some(), "{first}");

    // SIGINT: graceful shutdown, exit 0, and the interrupted run's log
    // passes the native-mode invariant checker.
    child.sigint();
    let code = child.wait_with_timeout(Duration::from_secs(30));
    assert_eq!(code, 0, "interrupted serve should still exit cleanly");

    let text = std::fs::read_to_string(&log_path).expect("run log written");
    let log = RunLog::from_value(&minijson::parse(&text).expect("log is JSON"))
        .expect("log deserializes");
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "interrupted run must be checker-valid:\n{}", report.render());
    assert!(log.events.iter().any(|e| matches!(e.kind, EventKind::Offload { .. })));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_client_disconnect_mid_stream_does_not_kill_the_service() {
    use std::io::{Read, Write};

    let dir = std::env::temp_dir().join(format!("mg-serve-epipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("epipe-run.json");

    let (mut child, addr) =
        spawn_serve(&["--for-ms", "2500", "--out", log_path.to_str().unwrap()]);
    // Its admission is a journal line to stream.
    submit(&addr, "taxa=8&sites=64&bootstraps=16");

    // Open /events, read until at least one journal line has actually been
    // streamed (so the server is mid-conversation, not idle), then drop
    // the socket without so much as a FIN handshake.
    let start = Instant::now();
    let mut stream = loop {
        match std::net::TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(_) if start.elapsed() < Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("connect {addr}: {e}"),
        }
    };
    stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    stream
        .write_all(format!("GET /events HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    let mut buf = [0u8; 4096];
    while start.elapsed() < Duration::from_secs(10) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) => {}
        }
        if raw.split_once("\r\n\r\n").is_some_and(|(_, body)| body.contains('\n')) {
            break;
        }
    }
    assert!(
        raw.split_once("\r\n\r\n").is_some_and(|(_, body)| body.contains('\n')),
        "never saw a streamed line before disconnecting: {raw:?}"
    );
    // Abort the connection, then give the tail something to write: each
    // job's admission grows the journal, so the tail wakes and writes to
    // the dead socket. The first write draws the peer's reset; the ones
    // after it hit EPIPE/ECONNRESET.
    drop(stream);
    let after: Vec<u64> = (0..5)
        .map(|_| {
            let job = submit(&addr, "taxa=8&sites=64&bootstraps=1");
            std::thread::sleep(Duration::from_millis(20));
            job
        })
        .collect();

    // The tail's thread must shrug it off: the timed run still serves and
    // drains, exits 0, and writes a checker-valid log.
    let code = child.wait_with_timeout(Duration::from_secs(30));
    assert_eq!(code, 0, "a client hangup must not take down the service");

    let text = std::fs::read_to_string(&log_path).expect("run log written");
    let log = RunLog::from_value(&minijson::parse(&text).expect("log is JSON"))
        .expect("log deserializes");
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "post-hangup log must be checker-valid:\n{}", report.render());
    for job in after {
        assert!(
            log.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::JobCompleted { job: j, .. } if j == job)),
            "job {job}, posted after the hangup, never completed"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn undersized_rings_raise_the_ring_drop_alarm_and_exit_4() {
    let dir = std::env::temp_dir().join(format!("mg-serve-drop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("drop-run.json");

    let (mut child, addr) = spawn_serve(&[
        "--ring-capacity",
        "32",
        "--for-ms",
        "1500",
        "--out",
        log_path.to_str().unwrap(),
    ]);
    // 64 replicate off-loads, each several records on its worker's ring:
    // far more than 32 slots hold.
    for _ in 0..4 {
        submit(&addr, "taxa=8&sites=64&bootstraps=16");
    }

    // The alarm reaches the /events stream while the service is live.
    let alarm = events_line_matching(
        &addr,
        |l| l.contains("\"alarm\":\"ring_drop\""),
        Duration::from_secs(10),
    );
    assert!(alarm.is_some(), "ring_drop alarm never appeared on /events");

    // Dropped events mean an incomplete log: the checker objects and the
    // CLI reports it as a violation exit.
    let code = child.wait_with_timeout(Duration::from_secs(30));
    assert_eq!(code, 4, "ring drops should classify as a checker violation");

    // The alarm is also merged into the written RunLog as a health event.
    let text = std::fs::read_to_string(&log_path).expect("run log written");
    let log = RunLog::from_value(&minijson::parse(&text).expect("log is JSON"))
        .expect("log deserializes");
    assert!(
        log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Health { alarm: AlarmKind::RingDrop, severity: Severity::Critical, .. }
        )),
        "ring_drop health event should be merged into the run log"
    );
    assert_eq!(log.to_json(), text, "the log with its health record re-encodes byte for byte");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_armed_mid_kernel_fault_retries_the_job_to_exactly_one_completion() {
    let dir = std::env::temp_dir().join(format!("mg-serve-retry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("retry-run.json");

    // Nothing off-loads but jobs, so the first job's single replicate
    // (bootstraps=1) is TaskId 0 — pinned to crash with SPE retries and
    // PPE fallback both off, the only path left is the job plane's own
    // retry ladder. The retry attempt re-offloads as TaskId 1, which no
    // pin touches, and completes.
    let (mut child, addr) = spawn_serve(&[
        "--workers",
        "1",
        "--faults",
        "seed=11,pin=crash@0,retries=0,fallback=off,jobr=2,backoff=1000",
        "--out",
        log_path.to_str().unwrap(),
    ]);

    let (status, head, payload) =
        raw_request(&addr, "POST", "/jobs", "taxa=8&sites=64&bootstraps=1&tenant=0");
    assert_eq!(status, 202, "{head} {payload}");

    // The retry is visible on the live /events stream before shutdown.
    let retried = events_line_matching(
        &addr,
        |l| l.contains("\"type\":\"job_retried\""),
        Duration::from_secs(10),
    )
    .expect("a job_retried line on /events");
    assert!(retried.contains("\"attempt\":1"), "{retried}");

    // SIGINT: the drain waits for the retried job, so exactly-once
    // completion is part of the graceful-shutdown contract.
    child.sigint();
    let code = child.wait_with_timeout(Duration::from_secs(30));
    assert_eq!(code, 0, "a recovered fault must not change the exit code");

    let text = std::fs::read_to_string(&log_path).expect("run log written");
    let log = RunLog::from_value(&minijson::parse(&text).expect("log is JSON"))
        .expect("log deserializes");
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "armed recovered run must be checker-valid:\n{}", report.render());

    let count = |f: &dyn Fn(&EventKind) -> bool| log.events.iter().filter(|e| f(&e.kind)).count();
    assert_eq!(count(&|k| matches!(k, EventKind::JobCompleted { .. })), 1, "exactly once");
    assert_eq!(count(&|k| matches!(k, EventKind::JobRetried { .. })), 1);
    assert_eq!(count(&|k| matches!(k, EventKind::JobPoisoned { .. })), 0);
    assert_eq!(count(&|k| matches!(k, EventKind::JobShed { .. })), 0);
    let attempts: Vec<u64> = log
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::JobStarted { attempt, .. } => Some(attempt),
            _ => None,
        })
        .collect();
    assert_eq!(attempts, vec![0, 1], "one start per attempt, in order");

    std::fs::remove_dir_all(&dir).ok();
}

/// A best-effort `POST /jobs` that reports `None` once the listener is
/// gone (connect, write, or read failure) instead of failing the test.
fn try_post(addr: &str, body: &str) -> Option<(u16, String)> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream
        .write_all(
            format!(
                "POST /jobs HTTP/1.1\r\nHost: {addr}\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .ok()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok()?;
    let status: u16 = raw.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()?;
    let payload = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Some((status, payload))
}

/// One raw HTTP round-trip; returns (status, raw head, body).
fn raw_request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // A request nobody serves fails the test instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let (head, payload) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), payload.to_string())
}

#[test]
fn known_paths_answer_405_with_an_allow_header_per_verb() {
    let (mut child, addr) = spawn_serve(&["--for-ms", "8000"]);
    scrape(&addr, "/health"); // wait until the plane is up

    // The read-only endpoints accept GET and nothing else.
    for path in ["/metrics", "/health", "/events", "/jobs/1"] {
        for verb in ["POST", "PUT", "DELETE", "PATCH", "HEAD"] {
            let (status, head, _) = raw_request(&addr, verb, path, "");
            assert_eq!(status, 405, "{verb} {path}: {head}");
            assert!(head.contains("Allow: GET"), "{verb} {path}: {head}");
        }
    }
    // The job endpoint accepts POST and nothing else.
    for verb in ["GET", "PUT", "DELETE", "PATCH", "HEAD"] {
        let (status, head, _) = raw_request(&addr, verb, "/jobs", "");
        assert_eq!(status, 405, "{verb} /jobs: {head}");
        assert!(head.contains("Allow: POST"), "{verb} /jobs: {head}");
    }
    // Unknown paths stay 404 regardless of verb.
    let (status, _, _) = raw_request(&addr, "POST", "/nope", "");
    assert_eq!(status, 404);

    let code = child.wait_with_timeout(Duration::from_secs(30));
    assert_eq!(code, 0);
}

#[test]
fn more_workers_than_ppe_contexts_strand_no_job() {
    // Four processes on the PPE's two contexts. An idle process that kept
    // its context while it waited would keep it from the one whose
    // off-load just finished, and that one's job would hang until the
    // drain released the idlers: every job must complete while the
    // service is still up.
    let (mut child, addr) =
        spawn_serve(&["--workers", "4", "--job-queue", "32"]);
    let mut tail = EventsTail::open(&addr);
    let mut pending: std::collections::BTreeSet<u64> =
        (0..30).map(|_| submit(&addr, "taxa=8&sites=256&bootstraps=2")).collect();
    while !pending.is_empty() {
        let line = tail.next_matching(&format!("{} more completion(s)", pending.len()), |l| {
            l.contains("\"type\":\"job_completed\"")
        });
        let done = job_id(&line);
        assert!(pending.remove(&done), "job {done} completed twice or was never admitted");
    }

    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

#[test]
fn a_completion_reaches_an_open_events_tail_before_the_next_job_is_sent() {
    let (mut child, addr) = spawn_serve(&[]);
    let mut tail = EventsTail::open(&addr);
    // One job at a time: after the first, the tail has nothing left to
    // replay and is parked when the job is sent, so each completion line
    // gets here only if appending it to the journal wakes the tail.
    for _ in 0..20 {
        let job = submit(&addr, "taxa=8&sites=64&bootstraps=1");
        let id = format!("\"job\":{job},");
        tail.next_matching(&format!("job {job} to complete"), |l| {
            l.contains("\"type\":\"job_completed\"") && l.contains(&id)
        });
    }
    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

#[test]
fn an_idle_service_nobody_connected_to_still_stops() {
    // The acceptor blocks in `accept`; with no client ever connecting,
    // only the service's own shutdown wake gets it out.
    let (mut timed, _) = spawn_serve(&["--for-ms", "200"]);
    assert_eq!(timed.wait_with_timeout(Duration::from_secs(20)), 0, "--for-ms expiry");

    let (mut interrupted, _) = spawn_serve(&[]);
    interrupted.sigint();
    assert_eq!(interrupted.wait_with_timeout(Duration::from_secs(20)), 0, "SIGINT");
}

#[test]
fn a_drain_whose_backlog_is_shed_rather_than_run_still_exits() {
    // One worker, busy with a heavy job when the interrupt lands; behind
    // it, jobs whose 1 ms deadline is long gone by the time the worker
    // looks again. That last look starts nothing — it only sheds — and
    // the drain has to hear that the queue is empty from it. The heavy job
    // is one max-size replicate: about 1.2 s in a debug build (80 ms in
    // release), far longer than the three submissions and the interrupt
    // take, and far inside the limit.
    let (mut child, addr) = spawn_serve(&["--workers", "1"]);
    submit(&addr, "taxa=256&sites=8192&bootstraps=1");
    for _ in 0..3 {
        submit(&addr, "taxa=8&sites=16&bootstraps=1&deadline_ms=1");
    }
    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

#[test]
fn unreadable_requests_are_answered_not_hung_up_on() {
    use std::io::{Read, Write};
    let (mut child, addr) = spawn_serve(&[]);
    // Send `bytes`, stop sending (but keep the read side open), and
    // return the status code of whatever comes back.
    let answer = |bytes: &[u8]| -> u16 {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(bytes).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("an answer, not a reset");
        raw.strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("no status line in {raw:?}"))
    };
    // A head that fills the request buffer and never ends.
    assert_eq!(answer(format!("GET /{} HTTP/1.1\r\n", "x".repeat(5000)).as_bytes()), 431);
    // A head that stops mid-way: the read times out.
    assert_eq!(answer(b"GET /health HTTP/1.1\r\nHost: h\r\n"), 408);
    // A body the buffer cannot hold.
    assert_eq!(answer(b"POST /jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"), 413);
    // A body that never arrives in full.
    assert_eq!(answer(b"POST /jobs HTTP/1.1\r\nContent-Length: 30\r\n\r\ntaxa=8"), 408);
    // Not a request line.
    assert_eq!(answer(b"hello\r\n\r\n"), 400);
    // And the service is none the worse for it.
    submit(&addr, "taxa=8&sites=64&bootstraps=1");

    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

#[test]
fn sigint_mid_load_drains_admitted_jobs_and_refuses_new_ones() {
    let dir = std::env::temp_dir().join(format!("mg-serve-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("jobs-run.json");

    let (mut child, addr) = spawn_serve(&[
        "--workers",
        "1",
        "--job-queue",
        "6",
        "--out",
        log_path.to_str().unwrap(),
    ]);
    scrape(&addr, "/health");

    // Flood the single worker with heavy jobs so a backlog is guaranteed
    // to still be draining when the interrupt lands: each is 16 replicates
    // of 64 taxa × 8 192 sites, about 2 s in a debug build (75 ms in
    // release).
    let (mut admitted, mut rejected) = (0usize, 0usize);
    for i in 0..10 {
        let body = format!("taxa=64&sites=8192&bootstraps=16&tenant={}", i % 3);
        let (status, head, payload) = raw_request(&addr, "POST", "/jobs", &body);
        match status {
            202 => admitted += 1,
            429 => rejected += 1,
            other => panic!("unexpected status {other} for job {i}: {head} {payload}"),
        }
    }
    assert!(admitted >= 1, "at least one job must be admitted");

    // SIGINT mid-load: the service flips to draining...
    child.sigint();
    // ...and new submissions are refused with a status distinct from the
    // queue-full 429 while the backlog is worked off.
    let mut saw_draining = false;
    for _ in 0..2_000 {
        // The listener may vanish at any instant once the drain finishes,
        // so a failed round-trip ends the probe rather than the test.
        let Some((status, payload)) =
            try_post(&addr, "taxa=8&sites=16&bootstraps=1&tenant=0")
        else {
            break;
        };
        match status {
            503 => {
                assert!(payload.contains("draining"), "{payload}");
                saw_draining = true;
                break;
            }
            // The signal may still be in flight: submissions that beat the
            // drain flag are real admissions/refusals and must balance in
            // the final log like any other.
            202 => admitted += 1,
            429 => rejected += 1,
            other => panic!("unexpected status {other} while draining: {payload}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(saw_draining, "a draining service must answer POST /jobs with 503");

    let code = child.wait_with_timeout(Duration::from_secs(60));
    assert_eq!(code, 0, "an interrupted loaded service still exits cleanly");

    // The log is checker-valid and the job lifecycle is balanced: every
    // admitted job ran to completion, every refusal was recorded, and the
    // drain-time 503s left no trace (a drain admits nothing).
    let text = std::fs::read_to_string(&log_path).expect("run log written");
    let log = RunLog::from_value(&minijson::parse(&text).expect("log is JSON"))
        .expect("log deserializes");
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "interrupted run must be checker-valid:\n{}", report.render());

    let count = |f: &dyn Fn(&EventKind) -> bool| log.events.iter().filter(|e| f(&e.kind)).count();
    let submitted = count(&|k| matches!(k, EventKind::JobSubmitted { .. }));
    let started = count(&|k| matches!(k, EventKind::JobStarted { .. }));
    let completed = count(&|k| matches!(k, EventKind::JobCompleted { .. }));
    let refused = count(&|k| matches!(k, EventKind::JobRejected { .. }));
    assert_eq!(submitted, admitted, "one JobSubmitted per 202");
    assert_eq!(started, admitted, "every admitted job started");
    assert_eq!(completed, admitted, "every admitted job drained to completion");
    assert_eq!(refused, rejected, "one JobRejected per 429");

    std::fs::remove_dir_all(&dir).ok();
}

/// `GET /jobs/<id>` as `(status, state, lnls)`; the state and lnLs are
/// empty unless the answer is a `200`.
fn job_result(addr: &str, job: &str) -> (u16, String, Vec<f64>) {
    let (status, head, payload) = raw_request(addr, "GET", &format!("/jobs/{job}"), "");
    if status != 200 {
        return (status, String::new(), Vec::new());
    }
    let v = minijson::parse(&payload).unwrap_or_else(|e| panic!("{head} {payload}: {e:?}"));
    let state = v.get("state").and_then(minijson::Value::as_str).expect("a state").to_string();
    let lnls = v
        .get("lnl")
        .and_then(minijson::Value::as_array)
        .map(|a| a.iter().map(|x| x.as_f64().expect("an lnL is a number")).collect())
        .unwrap_or_default();
    (status, state, lnls)
}

#[test]
fn a_job_result_is_the_direct_score_of_its_seeded_replicates() {
    let (mut child, addr) = spawn_serve(&[]);
    let mut tail = EventsTail::open(&addr);
    let (taxa, sites, bootstraps) = (12, 300, 5u64);
    let job = submit(&addr, &format!("taxa={taxa}&sites={sites}&bootstraps={bootstraps}"));
    let id = format!("\"job\":{job},");
    tail.next_matching("the job to complete", |l| {
        l.contains("\"type\":\"job_completed\"") && l.contains(&id)
    });
    let (status, state, lnls) = job_result(&addr, &job.to_string());
    assert_eq!((status, state.as_str()), (200, "completed"));

    // The job id seeds the alignment, the tree and each replicate.
    let data = PatternAlignment::compress(&Alignment::synthetic(taxa, sites, &Jc69, 0.1, job));
    let tree = Tree::random(taxa, 0.1, &mut SmallRng::seed_from_u64(job));
    let want: Vec<f64> = (0..bootstraps)
        .map(|b| {
            let replicate = bootstrap_replicate(&data, job.wrapping_add(b));
            LikelihoodEngine::new(&Jc69, &replicate).log_likelihood(&tree)
        })
        .collect();
    assert_eq!(lnls.len(), want.len(), "one lnL per replicate: {lnls:?}");
    for (b, (got, want)) in lnls.iter().zip(&want).enumerate() {
        assert!((got - want).abs() < 1e-9, "replicate {b}: served {got}, direct {want}");
    }

    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

#[test]
fn get_jobs_reports_unknown_completed_and_shed_states() {
    let (mut child, addr) = spawn_serve(&["--workers", "1"]);
    let mut tail = EventsTail::open(&addr);
    for unknown in ["18446744073709551615", "0x10", "", "1/2"] {
        assert_eq!(job_result(&addr, unknown).0, 404, "/jobs/{unknown}");
    }

    let light = submit(&addr, "taxa=8&sites=64&bootstraps=2");
    let id = format!("\"job\":{light},");
    tail.next_matching("the light job to complete", |l| {
        l.contains("\"type\":\"job_completed\"") && l.contains(&id)
    });
    let (status, state, lnls) = job_result(&addr, &light.to_string());
    assert_eq!((status, state.as_str(), lnls.len()), (200, "completed", 2));

    // One worker, busy with a max-size replicate for far longer than the
    // 1 ms deadline of the job queued behind it.
    let heavy = submit(&addr, "taxa=256&sites=8192&bootstraps=1");
    let late = submit(&addr, "taxa=8&sites=16&bootstraps=1&deadline_ms=1");
    let (_, state, lnls) = job_result(&addr, &heavy.to_string());
    assert!(matches!(state.as_str(), "queued" | "running") && lnls.is_empty(), "{state}");
    let id = format!("\"job\":{late},");
    tail.next_matching("the late job to be shed", |l| {
        l.contains("\"type\":\"job_shed\"") && l.contains(&id)
    });
    let (status, state, lnls) = job_result(&addr, &late.to_string());
    assert_eq!((status, state.as_str(), lnls.len()), (200, "shed", 0));

    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

/// The status code on the first line of a raw response.
fn status_code(raw: &str) -> u16 {
    raw.strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"))
}

#[test]
fn a_request_split_across_the_first_wait_keeps_its_first_part() {
    use std::io::{Read, Write};
    let (mut child, addr) = spawn_serve(&[]);
    let body = "taxa=8&sites=64&bootstraps=1";
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // Split after the head (the handoff finishes the body) and inside it
    // (the handoff finishes the head): either way the acceptor gives up
    // its wait before the rest arrives, and the bytes it read must reach
    // the thread that takes over.
    let head_end = request.find("\r\n\r\n").unwrap() + 4;
    for split in [head_end, 10] {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&request.as_bytes()[..split]).expect("send first part");
        std::thread::sleep(FIRST_WAIT * 10);
        stream.write_all(&request.as_bytes()[split..]).expect("send the rest");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("an answer");
        assert_eq!(status_code(&raw), 202, "split at byte {split}: {raw}");
    }

    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

#[test]
fn silent_clients_hold_no_acceptor_past_the_first_wait() {
    use std::io::Read;
    let (mut child, addr) = spawn_serve(&[]);
    scrape(&addr, "/health"); // wait until the plane is up
    // One more silent client than there are acceptors, each connected
    // and saying nothing: accepted ahead of the POST, every one of them
    // would keep an acceptor for the whole read timeout (500 ms) if
    // nothing handed it off.
    let silent: Vec<std::net::TcpStream> = (0..ACCEPTORS + 1)
        .map(|_| {
            let s = std::net::TcpStream::connect(&addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    let sent = Instant::now();
    submit(&addr, "taxa=8&sites=64&bootstraps=1");
    let waited = sent.elapsed();
    assert!(waited < Duration::from_millis(250), "POST behind silent clients took {waited:?}");
    // And each silent client still gets its answer once its time is up.
    for (i, mut s) in silent.into_iter().enumerate() {
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("an answer, not a reset");
        assert_eq!(status_code(&raw), 408, "silent client {i}: {raw}");
    }

    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}

#[test]
fn events_tails_beyond_the_acceptor_count_each_see_a_completion() {
    let (mut child, addr) = spawn_serve(&[]);
    // More tails than acceptors: a tail that kept its acceptor would
    // leave none for the POST below.
    let mut tails: Vec<EventsTail> = (0..ACCEPTORS + 1).map(|_| EventsTail::open(&addr)).collect();
    let job = submit(&addr, "taxa=8&sites=64&bootstraps=1");
    let id = format!("\"job\":{job},");
    for (i, tail) in tails.iter_mut().enumerate() {
        tail.next_matching(&format!("tail {i} to see job {job} complete"), |l| {
            l.contains("\"type\":\"job_completed\"") && l.contains(&id)
        });
    }
    // Shutdown wakes every acceptor and ends every tail.
    child.sigint();
    assert_eq!(child.wait_with_timeout(Duration::from_secs(30)), 0);
}
