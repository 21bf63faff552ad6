//! Deterministic fault injection and recovery policy — the chaos plane.
//!
//! A [`FaultPlan`] decides, per off-load attempt, whether the attempt is
//! sabotaged and how. Decisions are a pure function of the plan's own
//! `seed` and the attempt coordinates `(task, attempt, lead SPE)`:
//!
//! * the plan never draws from the driving engine's RNG stream, so arming
//!   faults cannot perturb the schedule an unfaulted run would produce,
//!   and an unarmed plan leaves runs byte-identical to builds that predate
//!   the fault plane;
//! * re-running the same `(workload seed, fault spec)` pair reproduces the
//!   exact same fault pattern, which is what lets the checker re-derive
//!   the declared backoff sequence from the RunLog header.
//!
//! Recovery is owned by the runtime (simulator and native engine alike)
//! and parameterized by the embedded [`RecoveryPolicy`]: watchdog
//! deadlines scale the engine's *own observed* minimum task duration (no
//! wall-clock magic numbers in sim paths), faulted off-loads retry with
//! bounded exponential backoff plus seeded jitter, SPEs are quarantined
//! after `quarantine_k` consecutive faults (with periodic re-admission
//! probes), and the PPE fallback copy of the kernel is the terminal
//! degradation — an admitted task always completes *somewhere*, unless
//! the plan explicitly disables the fallback (the "lethal" configuration
//! used to prove the checker notices lost tasks).

/// Maximum number of pinned `(kind, task)` fault entries in a plan.
///
/// Pins are for surgical regression tests ("fault exactly off-load 0");
/// sweeps use the rate fields. The array is fixed-size so [`FaultPlan`]
/// stays `Copy` and can ride inside engine configs.
pub const MAX_PINS: usize = 8;

/// Parts-per-million denominator for fault rates.
pub const PPM: u64 = 1_000_000;

crate::events::slug_enum! {
    /// The kinds of fault the plan can inject, declared in
    /// injection-priority order (also the order rate hashes are evaluated
    /// in, so the mapping spec → pattern is stable).
    #[derive(PartialOrd, Ord)]
    pub enum FaultKind {
        /// The lead SPE hangs: no progress until the watchdog fires.
        SpeStall = "spe_stall",
        /// The lead SPE dies mid-assignment: the attempt is lost outright.
        SpeCrash = "spe_crash",
        /// A transient DMA transfer error corrupts the argument fetch.
        DmaError = "dma_error",
        /// The start signal is dropped from the inbound mailbox.
        MailboxDrop = "mailbox_drop",
    }
}

/// The short name a fault spec gives each kind, in [`FaultKind::ALL`]
/// order: its rate key (`stall=0.1`) and, beside the slug, a pin kind
/// (`pin=crash@0`). Only a spec accepts these; a run log names a fault by
/// its slug.
const SPEC_NAMES: [&str; 4] = ["stall", "crash", "dma", "mbox"];

/// How the runtime recovers from injected (or real) faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per task before terminal degradation (attempt 0 plus
    /// `max_retries` re-off-loads).
    pub max_retries: u32,
    /// First-retry backoff; attempt `a` waits `base << (a-1)` (capped)
    /// plus seeded jitter.
    pub backoff_base_ns: u64,
    /// Consecutive faults on one SPE before it is quarantined.
    pub quarantine_k: u32,
    /// Completions between a quarantine and its re-admission probe.
    pub readmit_period: u32,
    /// Whether the PPE fallback copy runs exhausted tasks. Disabling it
    /// makes high-rate plans lethal (tasks are lost) — the checker must
    /// notice.
    pub ppe_fallback: bool,
    /// Watchdog deadline = `watchdog_factor ×` the engine's minimum
    /// observed task duration (bootstrapped from the first assignment's
    /// own predicted duration before any completion is observed).
    pub watchdog_factor: u64,
    /// Serve-plane job retries: re-queues a job gets after an execution
    /// attempt dies on an unrecoverable off-load fault (attempt 0 plus
    /// `job_retries` restarts; the next failure poisons the job). This
    /// budget is independent of `max_retries`, which governs off-load
    /// attempts *within* one job execution — faults escalate to the job
    /// layer precisely when that inner ladder is exhausted.
    pub job_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base_ns: 50_000,
            quarantine_k: 3,
            readmit_period: 32,
            ppe_fallback: true,
            watchdog_factor: 8,
            job_retries: 2,
        }
    }
}

/// Exponent cap for the backoff shift: `base << 6` = 64× base at most.
const BACKOFF_SHIFT_CAP: u32 = 6;

/// A seeded, deterministic fault-injection plan.
///
/// `Copy` by design: engine configs ([`crate::native::RuntimeConfig`],
/// the simulator's `SimConfig`) embed it by value. An inert plan (the
/// default) injects nothing and costs one branch per off-load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for all fault decisions and backoff jitter. Independent of
    /// the workload seed.
    pub seed: u64,
    /// Per-kind injection rate in parts-per-million, indexed in
    /// [`FaultKind::ALL`] order.
    pub rate_ppm: [u32; 4],
    /// The first `broken_spes` SPEs always fault when chosen as team
    /// lead — a hard-broken-hardware model that drives quarantine.
    pub broken_spes: u32,
    /// Pinned faults: `pin_task[i]` faults with kind
    /// `FaultKind::ALL[pin_kind[i] as usize]` on attempt 0.
    pub pin_task: [u64; MAX_PINS],
    /// Kind index (into [`FaultKind::ALL`]) for each pin.
    pub pin_kind: [u8; MAX_PINS],
    /// Number of live entries in `pin_task`/`pin_kind`.
    pub pin_len: u8,
    /// Recovery parameters the runtime must follow (and declare in the
    /// RunLog header so the checker can audit the backoff sequence).
    pub policy: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::inert()
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn inert() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rate_ppm: [0; 4],
            broken_spes: 0,
            pin_task: [0; MAX_PINS],
            pin_kind: [0; MAX_PINS],
            pin_len: 0,
            policy: RecoveryPolicy::default(),
        }
    }

    /// Whether this plan can inject at least one fault.
    pub fn armed(&self) -> bool {
        self.broken_spes > 0 || self.pin_len > 0 || self.rate_ppm.iter().any(|&r| r > 0)
    }

    /// Decide the fate of one off-load attempt. `task` is the task id,
    /// `attempt` counts from 0 (the original off-load), `lead_spe` is the
    /// SPE the work was assigned to (team lead).
    ///
    /// Deterministic: same plan + same coordinates → same answer.
    pub fn decide(&self, task: u64, attempt: u32, lead_spe: usize) -> Option<FaultKind> {
        if !self.armed() {
            return None;
        }
        if lead_spe < 64 && (lead_spe as u32) < self.broken_spes {
            return Some(FaultKind::SpeStall);
        }
        if attempt == 0 {
            for i in 0..self.pin_len as usize {
                if self.pin_task[i] == task {
                    return Some(FaultKind::ALL[self.pin_kind[i] as usize]);
                }
            }
        }
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            if self.rate_ppm[i] == 0 {
                continue;
            }
            let h = mix3(self.seed, task, (u64::from(attempt) << 8) | i as u64);
            if h % PPM < u64::from(self.rate_ppm[i]) {
                return Some(*kind);
            }
        }
        None
    }

    /// The declared backoff before retry `attempt` (≥ 1) of `task`:
    /// exponential in the attempt number with seeded jitter in
    /// `[0, base/4]`. The checker recomputes this from the RunLog header
    /// and flags any divergence.
    pub fn backoff_ns(&self, task: u64, attempt: u32) -> u64 {
        debug_assert!(attempt >= 1, "attempt 0 is the original off-load");
        let base = self.policy.backoff_base_ns.max(1);
        let shift = (attempt - 1).min(BACKOFF_SHIFT_CAP);
        let jitter = mix3(self.seed ^ 0x0062_6163_6b6f_6666, task, u64::from(attempt));
        base.saturating_shl(shift) + jitter % (base / 4 + 1)
    }

    /// Watchdog deadline for an attempt whose best duration hint is
    /// `hint_ns` (the engine's minimum observed task duration, or the
    /// attempt's own predicted duration before any completion exists).
    pub fn watchdog_ns(&self, hint_ns: u64) -> u64 {
        hint_ns.max(1).saturating_mul(self.policy.watchdog_factor.max(1))
    }

    /// Parse a fault spec: comma-separated `key=value` pairs.
    ///
    /// Keys: `seed=<u64>`, rates `stall=`/`crash=`/`dma=`/`mbox=`
    /// (fraction in `[0,1]`), `broken=<n>` (first `n` SPEs hard-broken),
    /// `pin=<kind>@<task>` (repeatable, ≤ 8), `retries=<n>`,
    /// `backoff=<ns>`, `k=<n>` (quarantine threshold), `readmit=<n>`,
    /// `fallback=on|off`, `watchdog=<factor>`, `jobr=<n>` (serve-plane
    /// job retries before poison quarantine).
    ///
    /// # Errors
    /// A human-readable message naming the offending pair.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::inert();
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                pair.split_once('=').ok_or_else(|| format!("expected key=value, got '{pair}'"))?;
            if let Some(i) = SPEC_NAMES.iter().position(|n| *n == key) {
                plan.rate_ppm[i] = parse_rate(key, value)?;
                continue;
            }
            match key {
                "seed" => plan.seed = parse_num(key, value)?,
                "broken" => plan.broken_spes = parse_num(key, value)?,
                "pin" => {
                    let (kname, task) = value
                        .split_once('@')
                        .ok_or_else(|| format!("pin wants <kind>@<task>, got '{value}'"))?;
                    let kind = FaultKind::from_slug(kname)
                        .or_else(|| {
                            let i = SPEC_NAMES.iter().position(|n| *n == kname)?;
                            Some(FaultKind::ALL[i])
                        })
                        .ok_or_else(|| format!("unknown fault kind '{kname}'"))?;
                    let i = plan.pin_len as usize;
                    if i >= MAX_PINS {
                        return Err(format!("too many pins (max {MAX_PINS})"));
                    }
                    plan.pin_task[i] = parse_num("pin task", task)?;
                    plan.pin_kind[i] = kind as u8;
                    plan.pin_len += 1;
                }
                "retries" => plan.policy.max_retries = parse_num(key, value)?,
                "backoff" => plan.policy.backoff_base_ns = parse_num(key, value)?,
                "k" => plan.policy.quarantine_k = parse_num(key, value)?,
                "readmit" => plan.policy.readmit_period = parse_num(key, value)?,
                "fallback" => {
                    plan.policy.ppe_fallback = match value {
                        "on" => true,
                        "off" => false,
                        other => return Err(format!("fallback wants on|off, got '{other}'")),
                    }
                }
                "watchdog" => plan.policy.watchdog_factor = parse_num(key, value)?,
                "jobr" => plan.policy.job_retries = parse_num(key, value)?,
                other => return Err(format!("unknown fault-spec key '{other}'")),
            }
        }
        if plan.policy.quarantine_k == 0 {
            return Err("k (quarantine threshold) must be positive".into());
        }
        Ok(plan)
    }

    /// Canonical spec string: `parse(to_spec())` reproduces the plan
    /// exactly. This is what the RunLog header stores, so logs are
    /// self-describing and the checker can rebuild the plan.
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for (short, &ppm) in SPEC_NAMES.iter().zip(&self.rate_ppm) {
            if ppm > 0 {
                out.push_str(&format!(",{short}={}", fmt_rate(ppm)));
            }
        }
        if self.broken_spes > 0 {
            out.push_str(&format!(",broken={}", self.broken_spes));
        }
        for i in 0..self.pin_len as usize {
            let kind = FaultKind::ALL[self.pin_kind[i] as usize];
            out.push_str(&format!(",pin={kind}@{}", self.pin_task[i]));
        }
        let p = &self.policy;
        out.push_str(&format!(
            ",retries={},backoff={},k={},readmit={},fallback={},watchdog={}",
            p.max_retries,
            p.backoff_base_ns,
            p.quarantine_k,
            p.readmit_period,
            if p.ppe_fallback { "on" } else { "off" },
            p.watchdog_factor,
        ));
        // Appended only when non-default so specs (and the armed-run
        // transcripts that quote them) from before the job-retry ladder
        // stay canonical verbatim.
        if p.job_retries != RecoveryPolicy::default().job_retries {
            out.push_str(&format!(",jobr={}", p.job_retries));
        }
        out
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

/// splitmix64 finalizer over three words — the only randomness source in
/// the fault plane. Stable across platforms and releases by construction.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{key} wants a number, got '{value}'"))
}

fn parse_rate(key: &str, value: &str) -> Result<u32, String> {
    let f: f64 = value.parse().map_err(|_| format!("{key} wants a fraction, got '{value}'"))?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("{key} must be in [0,1], got {value}"));
    }
    Ok((f * PPM as f64).round() as u32)
}

/// Render a ppm rate as the shortest exact decimal fraction.
fn fmt_rate(ppm: u32) -> String {
    let mut s = format!("{:.6}", ppm as f64 / PPM as f64);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_faults() {
        let p = FaultPlan::inert();
        assert!(!p.armed());
        for task in 0..1000 {
            assert_eq!(p.decide(task, 0, task as usize % 8), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan { seed: 1, rate_ppm: [200_000, 0, 0, 0], ..FaultPlan::inert() };
        let b = FaultPlan { seed: 2, ..a };
        let hits = |p: &FaultPlan| -> Vec<u64> {
            (0..500).filter(|&t| p.decide(t, 0, 7).is_some()).collect()
        };
        assert_eq!(hits(&a), hits(&a), "same plan, same pattern");
        assert_ne!(hits(&a), hits(&b), "different seeds, different patterns");
        let n = hits(&a).len();
        assert!((50..150).contains(&n), "20% rate over 500 tasks, got {n}");
    }

    #[test]
    fn broken_spes_always_fault_as_lead() {
        let p = FaultPlan { broken_spes: 4, ..FaultPlan::inert() };
        assert!(p.armed());
        for spe in 0..4 {
            assert_eq!(p.decide(17, 3, spe), Some(FaultKind::SpeStall));
        }
        for spe in 4..8 {
            assert_eq!(p.decide(17, 3, spe), None);
        }
    }

    #[test]
    fn pins_fault_exactly_attempt_zero() {
        let p = FaultPlan::parse("pin=crash@0,pin=dma@5").unwrap();
        assert_eq!(p.decide(0, 0, 7), Some(FaultKind::SpeCrash));
        assert_eq!(p.decide(0, 1, 7), None, "the retry must be allowed to succeed");
        assert_eq!(p.decide(5, 0, 7), Some(FaultKind::DmaError));
        assert_eq!(p.decide(1, 0, 7), None);
    }

    #[test]
    fn backoff_is_exponential_bounded_and_jittered() {
        let p = FaultPlan::parse("seed=9,backoff=1000").unwrap();
        let b1 = p.backoff_ns(3, 1);
        let b2 = p.backoff_ns(3, 2);
        let b3 = p.backoff_ns(3, 3);
        assert!((1000..=1250).contains(&b1), "base + jitter<=base/4, got {b1}");
        assert!((2000..=2250).contains(&b2), "{b2}");
        assert!((4000..=4250).contains(&b3), "{b3}");
        // Cap: the shift saturates at 64x base.
        let b99 = p.backoff_ns(3, 99);
        assert!(b99 <= 64 * 1000 + 250, "{b99}");
        // Deterministic per (task, attempt), varies across tasks.
        assert_eq!(p.backoff_ns(3, 1), b1);
        assert!((0..64).any(|t| p.backoff_ns(t, 1) != b1), "jitter should vary by task");
    }

    #[test]
    fn spec_round_trips_through_canonical_form() {
        let spec = "seed=42,stall=0.05,crash=0.01,dma=0.002,mbox=0.3,broken=2,\
                    pin=stall@0,pin=mbox@9,retries=5,backoff=2000,k=2,readmit=16,\
                    fallback=off,watchdog=12,jobr=4";
        let p = FaultPlan::parse(spec).unwrap();
        assert_eq!(p.rate_ppm, [50_000, 10_000, 2_000, 300_000]);
        assert!(!p.policy.ppe_fallback);
        assert_eq!(p.policy.job_retries, 4);
        let round = FaultPlan::parse(&p.to_spec()).unwrap();
        assert_eq!(p, round, "canonical spec must reproduce the plan:\n{}", p.to_spec());
    }

    #[test]
    fn default_job_retries_stay_out_of_the_canonical_spec() {
        let p = FaultPlan::parse("seed=7,stall=0.1").unwrap();
        assert_eq!(p.policy.job_retries, 2);
        assert!(!p.to_spec().contains("jobr"), "default jobr must not serialize");
        let q = FaultPlan::parse("seed=7,stall=0.1,jobr=0").unwrap();
        assert!(q.to_spec().ends_with(",jobr=0"), "got {}", q.to_spec());
        assert_eq!(FaultPlan::parse(&q.to_spec()).unwrap(), q);
    }

    #[test]
    fn default_policy_round_trips_too() {
        let p = FaultPlan::parse("seed=7,stall=0.1").unwrap();
        assert_eq!(FaultPlan::parse(&p.to_spec()).unwrap(), p);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "rate=0.5",
            "stall=1.5",
            "stall=-0.1",
            "pin=stall",
            "pin=frobnicate@3",
            "fallback=maybe",
            "k=0",
            "seed=abc",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should fail to parse");
        }
    }

    #[test]
    fn empty_spec_is_the_inert_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::inert());
        assert!(!FaultPlan::parse("").unwrap().armed());
    }

    #[test]
    fn watchdog_scales_the_duration_hint() {
        let p = FaultPlan::parse("watchdog=8").unwrap();
        assert_eq!(p.watchdog_ns(96_000), 768_000);
        assert_eq!(p.watchdog_ns(0), 8, "zero hints clamp to 1");
    }
}
