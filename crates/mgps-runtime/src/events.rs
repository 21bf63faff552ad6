//! The event vocabulary, declared once.
//!
//! Both engines — the `cellsim` discrete-event machine and the native
//! host-thread runtime — and the serve plane's job queue describe what
//! they did in one stream of [`EventKind`] records.
//! [`crate::event_table!`] is the single declaration of that vocabulary:
//! per variant its name, its JSON `type` tag, its same-instant causal
//! rank, and its documented, typed fields (a field written
//! `name: ty = 0` is *omitted from JSON when zero* and reads back as zero
//! when absent, so logs that never use it keep their earlier byte form).
//! The table is a callback macro: this crate expands it into the enum,
//! [`EventKind::tag`] and [`EventKind::rank`]; `cellsim::event` expands
//! the same table into the JSON encoder/decoder beside `RunLog` and into
//! its property-test strategies, and `mgps-lint` reads the table's
//! variant list for its coverage matrix.
//!
//! A field that names something — a switch reason, a mailbox, a kernel,
//! a fault kind, an alarm and its severity — holds the runtime's own
//! `slug_enum!` type, never a `String`: the slug is spelled once, in
//! that enum's declaration, and a log naming anything else does not
//! decode. `Health.detail` is the table's only free text.
//!
//! ## Adding an event
//!
//! 1. add a row to the table below (name, tag, rank, documented fields);
//! 2. record it at its site — `TraceHandle::record` on the native engine,
//!    the machine's `emit` in `cellsim`;
//! 3. run `cargo xtask lint`: its `event-coverage` matrix names the
//!    consumer (checker arm, obs fold) the new variant still lacks.
//!
//! ## Rank ladder
//!
//! Ring timestamps are comparable across threads but can tie, and the
//! checker's lifecycle rules care about same-instant precedence, so
//! merges sort stably by `(at_ns, rank)`. A job is admitted (0) or
//! refused (1) before anything it causes; a same-instant start (2)
//! follows its submission but precedes the verdicts (3) and off-loads (4)
//! of the work it dispatches. A fault (5) precedes the quarantine or
//! re-admission (6) it causes, which precedes the retry (7) it forces;
//! all precede any same-instant grant. The start signal — inbound mailbox
//! write (8), then its read (9) — precedes the task start (10); code
//! reload, DMA and local-store reservation (11) sit inside the task,
//! before its chunks (12); scratch is released (13) at teardown, before
//! the task end or PPE-fallback completion (14). A job resolves —
//! completion, shed, retry re-queue, poison quarantine (15) — only after
//! its last task event. The context switch (16) and the MGPS window
//! decision (17) an off-load triggers close the instant; health alarms
//! (18) are commentary on everything before them.

pub use crate::faults::FaultKind;
pub use crate::policy::KernelKind;

/// Declares a `Copy` enum of unit variants, each with a stable JSON slug:
/// the one place a name in the event vocabulary is spelled. The enum gets
/// `ALL` (declaration order), [`as_str`](SwitchReason::as_str),
/// [`from_slug`](SwitchReason::from_slug) and a `Display` that writes the
/// slug; `cellsim::event` gives every slug enum one JSON codec.
macro_rules! slug_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident { $( $(#[$vmeta:meta])* $variant:ident = $slug:literal ),* $(,)? }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name { $( $(#[$vmeta])* $variant ),* }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: [$name; 0 $( + $crate::events::slug_enum!(@one $variant) )*] =
                [$( $name::$variant ),*];

            /// The stable slug this value serializes as.
            pub fn as_str(self) -> &'static str {
                match self { $( $name::$variant => $slug ),* }
            }

            /// Inverse of [`Self::as_str`]; `None` for an unknown slug.
            pub fn from_slug(s: &str) -> Option<$name> {
                match s { $( $slug => Some($name::$variant), )* _ => None }
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
    (@one $variant:ident) => { 1 };
}
pub(crate) use slug_enum;

slug_enum! {
    /// Why a process lost its PPE context.
    pub enum SwitchReason {
        /// Voluntary yield at an off-load point (EDTLP-family schedulers;
        /// the only kind the native gate records — quantum rotation there
        /// is the host OS scheduler's business).
        Offload = "offload",
        /// Involuntary quantum-expiry rotation (Linux-like scheduler).
        Quantum = "quantum",
    }
}

slug_enum! {
    /// Which of an SPU's three hardware mailboxes an operation touched.
    pub enum MailboxKind {
        /// PPE → SPU command mailbox (4 entries).
        Inbound = "inbound",
        /// SPU → PPE data mailbox (1 entry).
        Outbound = "outbound",
        /// SPU → PPE interrupting mailbox (1 entry).
        OutboundInterrupt = "outbound_interrupt",
    }
}

slug_enum! {
    /// The closed set of alarms the online health detector (`mgps-obs`)
    /// can raise, in rendering order.
    pub enum AlarmKind {
        /// `U` stayed at or below the MGPS threshold for `k` consecutive
        /// windows while the LLP degree stayed throttled at 1: the machine
        /// is underutilized and the controller cannot widen (the
        /// starved-gate signature — many waiters, no concurrency).
        UtilizationCollapse = "utilization_collapse",
        /// Mailbox/off-load-queue stalls in one snapshot interval jumped
        /// far above the rolling baseline.
        StallSpike = "stall_spike",
        /// A trace ring overflowed and dropped events: every downstream
        /// fold of this run is now incomplete.
        RingDrop = "ring_drop",
        /// Several SPEs were quarantined within one snapshot interval: the
        /// machine is shedding compute capacity faster than re-admission
        /// can restore it (the fault plane's signature failure pattern).
        QuarantineStorm = "quarantine_storm",
        /// The serve plane's job p99 latency (estimated from the
        /// `JobTotalNs` bucket deltas of one telemetry window) sat above
        /// the SLO — and above the EWMA baseline by the spike factor once
        /// a baseline exists — for `k` consecutive windows: the service is
        /// burning its latency budget, not just seeing one slow job.
        LatencySloBurn = "latency_slo_burn",
        /// A tenant held queued jobs across `k` consecutive telemetry
        /// windows without the dispatcher starting a single one of them:
        /// the fair-share scheduler is not delivering this tenant's
        /// configured weight (a misconfiguration or an overload so deep
        /// even round-robin cannot reach the tenant).
        TenantStarvation = "tenant_starvation",
    }
}

slug_enum! {
    /// How bad a health alarm is.
    pub enum Severity {
        /// A performance pathology.
        Warning = "warning",
        /// The record itself is damaged.
        Critical = "critical",
    }
}

impl AlarmKind {
    /// Ring drops corrupt the record (critical); the others describe
    /// performance pathologies (warning).
    pub fn severity(self) -> Severity {
        match self {
            AlarmKind::RingDrop => Severity::Critical,
            _ => Severity::Warning,
        }
    }
}

impl MailboxKind {
    /// The hardware capacity of this mailbox kind (§4).
    pub fn capacity(self) -> usize {
        match self {
            MailboxKind::Inbound => 4,
            MailboxKind::Outbound | MailboxKind::OutboundInterrupt => 1,
        }
    }
}

/// The event table. `event_table!(callback)` expands to
/// `callback! { pub enum EventKind { … } }`, each variant written
/// `Name = "json_tag" @ rank { field: ty, omitted_when_zero: ty = 0 }`.
#[macro_export]
macro_rules! event_table {
    ($callback:path) => { $callback! {

/// One recorded action of either engine or of the serve plane.
pub enum EventKind {
    /// Process `proc` requested an off-load of `task`.
    Offload = "offload" @ 4 {
        /// Requesting worker process.
        proc: usize,
        /// Task identifier (monotonic per run).
        task: u64,
    },
    /// Process `proc` lost its PPE context.
    CtxSwitch = "ctx_switch" @ 16 {
        /// The descheduled process.
        proc: usize,
        /// Why the context was lost.
        reason: SwitchReason,
        /// How long the context was held, ns.
        held_ns: u64,
    },
    /// `task` began executing for `proc` on `team` (work-shared when
    /// `degree > 1`).
    TaskStart = "task_start" @ 10 {
        /// Owning worker process.
        proc: usize,
        /// Task identifier.
        task: u64,
        /// Loop-level parallelism degree in force at grant time.
        degree: usize,
        /// The SPEs granted (team\[0\] is the lead).
        team: Vec<usize>,
    },
    /// `task` finished on `team` (reduction merged, result delivered).
    TaskEnd = "task_end" @ 14 {
        /// Owning worker process.
        proc: usize,
        /// Task identifier.
        task: u64,
        /// The SPEs released.
        team: Vec<usize>,
    },
    /// A DMA list was issued from `spe`.
    Dma = "dma" @ 11 {
        /// Issuing SPE.
        spe: usize,
        /// Per-element transfer sizes, bytes.
        element_bytes: Vec<usize>,
        /// Local-store base address.
        local_addr: usize,
        /// Main-memory base address (modeled; 0 on the native engine).
        main_addr: usize,
    },
    /// A message was written into a mailbox.
    MailboxWrite = "mailbox_write" @ 8 {
        /// The SPU whose mailbox was written.
        spe: usize,
        /// Which mailbox.
        mailbox: MailboxKind,
        /// Occupancy after the write.
        occupancy: usize,
    },
    /// A message was read from a mailbox.
    MailboxRead = "mailbox_read" @ 9 {
        /// The SPU whose mailbox was read.
        spe: usize,
        /// Which mailbox.
        mailbox: MailboxKind,
        /// Occupancy after the read.
        occupancy: usize,
    },
    /// Local-store buffer space reserved on `spe`.
    LsAlloc = "ls_alloc" @ 11 {
        /// The SPE.
        spe: usize,
        /// Bytes reserved.
        bytes: usize,
        /// Total bytes in use after the reservation.
        in_use: usize,
    },
    /// Local-store buffer space released on `spe`.
    LsFree = "ls_free" @ 13 {
        /// The SPE.
        spe: usize,
        /// Bytes released.
        bytes: usize,
        /// Total bytes in use after the release.
        in_use: usize,
    },
    /// One work-sharing chunk of `task`'s parallel loop was assigned
    /// (simulator) or completed (native engine).
    Chunk = "chunk" @ 12 {
        /// The work-shared task.
        task: u64,
        /// Total loop iterations of the task.
        loop_iters: usize,
        /// First iteration of this chunk.
        start: usize,
        /// Iterations in this chunk.
        len: usize,
        /// The SPE executing the chunk.
        worker: usize,
    },
    /// `spe` reloaded its resident code image before starting a task (the
    /// granularity term `t_code`).
    CodeReload = "code_reload" @ 11 {
        /// The reloading SPE.
        spe: usize,
        /// Stall paid for the reload, ns.
        stall_ns: u64,
    },
    /// A DMA transfer to `spe` finished (the granularity term `t_comm`).
    DmaComplete = "dma_complete" @ 11 {
        /// The receiving SPE.
        spe: usize,
        /// Bytes moved.
        bytes: usize,
        /// End-to-end transfer latency, ns.
        latency_ns: u64,
    },
    /// The MGPS policy issued a degree decision at a window boundary.
    DegreeDecision = "degree_decision" @ 17 {
        /// The new loop degree (1 = LLP off).
        degree: usize,
        /// The utilization sample `U` the decision was based on (tasks
        /// off-loaded during the departing task's execution window). The
        /// simulator records 0 — replay it from the off-load history with
        /// `mgps_obs::decisions`; the native runtime records the sample so
        /// live consumers do not have to replay rings.
        u: usize = 0,
        /// Tasks waiting for off-load at the decision (the paper's `T`).
        waiting: usize,
        /// SPEs on the machine.
        n_spes: usize,
        /// Configured utilization-window length.
        window: usize,
        /// Off-loads currently held in the window sample.
        window_fill: usize,
    },
    /// The online health detector (`mgps-obs`) raised an alarm while the run
    /// was live. Informational: it places no scheduling constraint; reports
    /// surface it prominently.
    Health = "health" @ 18 {
        /// What fired.
        alarm: AlarmKind,
        /// How bad it is.
        severity: Severity,
        /// Human-readable explanation of what tripped.
        detail: String,
    },
    /// The fault plane sabotaged off-load attempt `attempt` of `task`, which
    /// had been assigned to lead SPE `spe`. The attempt produces no
    /// `TaskStart`; the watchdog reclaims the team and recovery decides
    /// between a retry, the PPE fallback, or (lethal plans only) a lost task
    /// the checker must flag.
    FaultInjected = "fault_injected" @ 5 {
        /// Team-lead SPE of the sabotaged assignment.
        spe: usize,
        /// The faulted task.
        task: u64,
        /// What was injected.
        fault: FaultKind,
        /// Off-load attempt number (0 = original off-load).
        attempt: u64,
    },
    /// Recovery re-queued faulted `task` for off-load attempt `attempt` after
    /// waiting the declared exponential backoff. Not an `Offload`: the task
    /// keeps its identity and its single completion obligation.
    OffloadRetry = "offload_retry" @ 7 {
        /// The retried task.
        task: u64,
        /// The new attempt number (≥ 1, strictly increasing per task).
        attempt: u64,
        /// Backoff waited before this retry, ns (must match the policy
        /// declared in the log header).
        backoff_ns: u64,
    },
    /// `spe` exceeded the policy's consecutive-fault threshold and was removed
    /// from scheduling (no team may include it until readmitted).
    SpeQuarantined = "spe_quarantined" @ 6 {
        /// The quarantined SPE.
        spe: usize,
        /// Consecutive faults that tripped the threshold.
        faults: u64,
    },
    /// A re-admission probe returned quarantined `spe` to scheduling.
    SpeReadmitted = "spe_readmitted" @ 6 {
        /// The readmitted SPE.
        spe: usize,
    },
    /// Terminal degradation: `task` ran to completion on the PPE fallback
    /// copy. This is the task's completion record — a fallen-back task has no
    /// `TaskStart`/`TaskEnd`.
    PpeFallback = "ppe_fallback" @ 14 {
        /// Owning worker process.
        proc: usize,
        /// The task completed on the PPE.
        task: u64,
        /// Off-load attempts consumed before falling back.
        attempts: u64,
    },
    /// A serve-plane job was admitted to the bounded request queue. Jobs lift
    /// the granularity decomposition one level up: one job spans one or more
    /// off-loads, and its `JobCompleted` terms partition its wall time the way
    /// `t_ppe`/`t_wait`/`t_spe`/`t_comm` partition one off-load.
    JobSubmitted = "job_submitted" @ 0 {
        /// Seeded job id (unique per run).
        job: u64,
        /// Submitting tenant.
        tenant: usize,
        /// Taxa in the phylo job spec.
        taxa: usize,
        /// Alignment sites in the spec.
        sites: usize,
        /// Bootstrap replicates in the spec.
        bootstraps: usize,
        /// Relative completion deadline, ns since admission (0 = none).
        deadline_ns: u64 = 0,
        /// Queue occupancy after the admission (this job included).
        queue_depth: usize,
        /// Configured admission-queue bound.
        queue_cap: usize,
    },
    /// A worker dequeued admitted job `job` and began executing it. Within a
    /// tenant, starts must follow submission (FIFO) order.
    JobStarted = "job_started" @ 2 {
        /// The job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Zero-based execution attempt (0 = first start; restarts after a
        /// `JobRetried` carry that retry's number).
        attempt: u64 = 0,
    },
    /// An admitted job was dropped at dispatch because its declared deadline
    /// expired while it waited in queue. Terminal: a shed job is never
    /// started, retried, or completed. Never silent — every expired job leaves
    /// exactly this record.
    JobShed = "job_shed" @ 15 {
        /// The shed job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// The deadline it missed, ns since its admission stamp.
        deadline_ns: u64,
    },
    /// A job whose execution attempt died on an unrecoverable off-load fault
    /// was re-queued (back of its tenant's queue) for the attempt number
    /// recorded here, after the declared deterministic backoff. Not a new
    /// submission: the job keeps its identity, its admission stamp, and its
    /// single completion obligation.
    JobRetried = "job_retried" @ 15 {
        /// The retried job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// One-based retry number (the next `JobStarted` carries it).
        attempt: u64,
        /// Backoff waited before the re-queue, ns (must match the policy
        /// declared in the log header).
        backoff_ns: u64,
    },
    /// Terminal quarantine: `job` exhausted its retry budget and was removed
    /// from the queue as poison instead of wedging it. A poisoned job has no
    /// `JobCompleted`.
    JobPoisoned = "job_poisoned" @ 15 {
        /// The quarantined job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Total execution attempts consumed before giving up.
        attempts: u64,
    },
    /// Job `job` finished. The four terms partition its wall time exactly:
    /// their sum equals this event's timestamp minus the job's `JobSubmitted`
    /// timestamp.
    JobCompleted = "job_completed" @ 15 {
        /// The job.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Admission-queue wait, ns.
        t_queue_ns: u64,
        /// Dequeue-to-kernel setup (argument marshalling), ns.
        t_dispatch_ns: u64,
        /// Off-loaded kernel execution, ns.
        t_kernel_ns: u64,
        /// Result reduction on the PPE, ns.
        t_reduce_ns: u64,
    },
    /// A submission was refused — queue at capacity, or the serve plane was
    /// draining after a shutdown signal. A rejected job has no `JobSubmitted`
    /// record: submission means admission.
    JobRejected = "job_rejected" @ 1 {
        /// The refused job's (seeded) id.
        job: u64,
        /// Its tenant.
        tenant: usize,
        /// Queue occupancy at refusal time.
        queue_depth: usize,
        /// Configured admission-queue bound.
        queue_cap: usize,
    },
    /// The granularity controller ruled on where a kernel invocation runs (the
    /// §5.2 inequality `t_spe + t_code + 2·t_comm < t_ppe`). Informational:
    /// the checker verifies its flags agree but it places no scheduling
    /// constraint.
    GranularityVerdict = "granularity_verdict" @ 3 {
        /// The kernel ruled on.
        kernel: KernelKind,
        /// Whether the invocation was granted an SPE off-load.
        offload: bool,
        /// Whether the kernel is throttled after this verdict.
        throttled: bool,
        /// Whether the off-load was a periodic re-probe of a throttled kernel
        /// (implies `offload`).
        reprobe: bool,
    },
}

    } };
}

/// Expands the table into the enum itself plus its tag and rank.
macro_rules! define_event_kind {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal @ $rank:literal {
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty $(= $default:literal)? ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* } ),*
        }

        impl $name {
            /// The JSON `type` tag of this event.
            pub fn tag(&self) -> &'static str {
                match self { $( $name::$variant { .. } => $tag ),* }
            }

            /// Causal precedence among events stamped with the same
            /// instant (lower sorts first; see the module docs).
            pub fn rank(&self) -> u8 {
                match self { $( $name::$variant { .. } => $rank ),* }
            }
        }
    };
}

event_table!(define_event_kind);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_capacities_match_hardware() {
        assert_eq!(MailboxKind::Inbound.capacity(), 4);
        assert_eq!(MailboxKind::Outbound.capacity(), 1);
        assert_eq!(MailboxKind::OutboundInterrupt.capacity(), 1);
    }
}
