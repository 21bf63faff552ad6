//! Structured execution-event records for post-hoc invariant checking.
//!
//! When [`crate::machine::SimConfig::record_events`] is set, the machine
//! model appends one [`EventRecord`] per semantically meaningful action —
//! off-loads, context switches, task starts/ends, DMA issues, mailbox
//! operations, local-store accounting, loop chunk dispatch, and MGPS
//! degree decisions — into a [`RunLog`]. The log is what `mgps-analysis`
//! statically verifies; it serializes to JSON (via `minijson`) so runs can
//! be archived and diffed, and its serialized form is the input to the
//! deterministic-replay digest.
//!
//! The vocabulary itself — [`EventKind`] with its JSON tags, field order
//! and omitted-when-zero marks — is declared once, in
//! [`mgps_runtime::events`], and shared with the native runtime's trace
//! rings. This module expands that same table into the JSON
//! encoder/decoder, so the codec cannot drift from the enum. The encoder
//! is one walk over a log's members with two sinks: a `minijson::Value`
//! tree ([`RunLog::to_value`]) and streamed text ([`RunLog::to_json`],
//! [`RunLog::write_json`], [`json_line`]) — the same bytes, without the
//! tree, for the digest and for writing a log out.

use minijson::{Sink, Value, Writer};

pub use mgps_runtime::events::{
    AlarmKind, EventKind, FaultKind, KernelKind, MailboxKind, Severity, SwitchReason,
};

/// An [`EventKind`] stamped with its emission order and simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Emission sequence number (0-based, dense).
    pub seq: u64,
    /// Simulated time of the event, ns.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Which scheduling scheme produced a log (determines the context-switch
/// discipline the checker enforces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerTag {
    /// Event-driven task-level parallelism.
    Edtlp,
    /// Linux-like quantum rotation.
    Linux,
    /// EDTLP with a fixed loop degree.
    StaticHybrid(usize),
    /// Adaptive multigrain scheduling.
    Mgps,
}

impl std::fmt::Display for SchedulerTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_string())
    }
}

impl SchedulerTag {
    fn as_string(self) -> String {
        match self {
            SchedulerTag::Edtlp => "edtlp".to_string(),
            SchedulerTag::Linux => "linux".to_string(),
            SchedulerTag::StaticHybrid(k) => format!("static_hybrid:{k}"),
            SchedulerTag::Mgps => "mgps".to_string(),
        }
    }

    fn from_string(s: &str) -> Option<SchedulerTag> {
        match s {
            "edtlp" => Some(SchedulerTag::Edtlp),
            "linux" => Some(SchedulerTag::Linux),
            "mgps" => Some(SchedulerTag::Mgps),
            other => other
                .strip_prefix("static_hybrid:")
                .and_then(|k| k.parse().ok())
                .map(SchedulerTag::StaticHybrid),
        }
    }
}

/// The complete structured log of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// Scheduling scheme of the run.
    pub scheduler: SchedulerTag,
    /// SPEs on the simulated machine.
    pub n_spes: usize,
    /// Effective Linux quantum, ns (also recorded for non-Linux runs).
    pub quantum_ns: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Local-store capacity per SPE, bytes.
    pub local_store_bytes: usize,
    /// Parallel-loop iteration count per task.
    pub loop_iters: usize,
    /// MGPS utilization-window length, when the run used MGPS.
    pub mgps_window: Option<usize>,
    /// Canonical fault spec (`FaultPlan::to_spec`) when a fault plan was
    /// armed for the run. Its presence tells the checker to (a) enforce
    /// the fault-recovery/quarantine/backoff rules against this exact
    /// declared policy and (b) relax FIFO start order and degree pinning,
    /// which retries and healthy-SPE clamping legitimately perturb.
    pub fault_policy: Option<String>,
    /// Per-tenant deficit-round-robin dispatch weights when the serve
    /// plane ran with non-default fairness (tenant `t` gets
    /// `tenant_weights[t]`, or weight 1 beyond the list's end). `None`
    /// means every tenant weighs 1; the key is omitted from the
    /// serialized form so equal-weight logs keep their pre-fairness byte
    /// form. The checker's `tenant-fairness` rule replays dispatch
    /// against exactly these weights.
    pub tenant_weights: Option<Vec<u64>>,
    /// The events, in emission order.
    pub events: Vec<EventRecord>,
}

/// The JSON form of one field type of the event table or the log header:
/// as a tree node, as streamed text (the two agree byte for byte), and
/// back from a tree node.
trait Field {
    fn encode(&self) -> Value;
    fn stream<S: Sink>(&self, w: &mut Writer<S>);
    /// `None` when `v` is not a well-formed value of this type.
    fn decode(v: &Value) -> Option<Self>
    where
        Self: Sized;
}

impl Field for u64 {
    fn encode(&self) -> Value {
        (*self).into()
    }
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        w.u64(*self);
    }
    fn decode(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

impl Field for usize {
    fn encode(&self) -> Value {
        (*self).into()
    }
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        w.u64(*self as u64);
    }
    fn decode(v: &Value) -> Option<usize> {
        v.as_u64().and_then(|n| usize::try_from(n).ok())
    }
}

impl Field for bool {
    fn encode(&self) -> Value {
        (*self).into()
    }
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        w.bool(*self);
    }
    fn decode(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

/// Encode-only: event tags and slugs are `&'static str`.
impl Field for str {
    fn encode(&self) -> Value {
        self.into()
    }
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        w.str(self);
    }
}

impl Field for String {
    fn encode(&self) -> Value {
        self.as_str().encode()
    }
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        w.str(self);
    }
    fn decode(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// Every slug enum of the vocabulary is its slug: one JSON string, and an
/// unknown slug does not decode.
macro_rules! slug_fields {
    ($($slug:ty),*) => { $(
        impl Field for $slug {
            fn encode(&self) -> Value {
                self.as_str().encode()
            }
            fn stream<S: Sink>(&self, w: &mut Writer<S>) {
                w.str(self.as_str());
            }
            fn decode(v: &Value) -> Option<$slug> {
                v.as_str().and_then(<$slug>::from_slug)
            }
        }

        #[cfg(test)]
        impl tests::Arb for $slug {
            fn arb(rng: &mut proptest::prelude::TestRng) -> $slug {
                <$slug>::ALL[rng.below(<$slug>::ALL.len() as u64) as usize]
            }
        }
    )* };
}

slug_fields!(SwitchReason, MailboxKind, KernelKind, FaultKind, AlarmKind, Severity);

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        w.begin_array();
        for item in self {
            item.stream(w);
        }
        w.end_array();
    }
    fn decode(v: &Value) -> Option<Vec<T>> {
        v.as_array()?.iter().map(T::decode).collect()
    }
}

/// `None` is `null`; with a `Some(None)` default an absent key is too.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::encode)
    }
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        match self {
            Some(x) => x.stream(w),
            None => w.null(),
        }
    }
    fn decode(v: &Value) -> Option<Option<T>> {
        match v {
            Value::Null => Some(None),
            other => T::decode(other).map(Some),
        }
    }
}

/// Takes the members of one JSON object in order. Every walk below is
/// written once against this and feeds either form of the log: the
/// `(String, Value)` member list of a tree node, or the streamed writer.
trait Members {
    /// `more` members are about to arrive.
    fn reserve(&mut self, _more: usize) {}
    fn member<T: Field + ?Sized>(&mut self, key: &'static str, value: &T);
}

impl Members for Vec<(String, Value)> {
    fn reserve(&mut self, more: usize) {
        self.reserve_exact(more);
    }
    fn member<T: Field + ?Sized>(&mut self, key: &'static str, value: &T) {
        self.push((key.to_string(), value.encode()));
    }
}

impl<S: Sink> Members for Writer<S> {
    fn member<T: Field + ?Sized>(&mut self, key: &'static str, value: &T) {
        self.key(key);
        value.stream(self);
    }
}

/// Read member `key` of object `v`: an absent key takes `default` (an
/// error when the field has none), a present but mistyped one is always
/// an error — it never silently decays to the default.
fn field<T: Field>(v: &Value, key: &str, default: Option<T>) -> Result<T, String> {
    match v.get(key) {
        Some(x) => T::decode(x).ok_or_else(|| format!("mistyped field '{key}'")),
        None => default.ok_or_else(|| format!("missing field '{key}'")),
    }
}

/// Expands the event table into the JSON codec of [`EventKind`].
macro_rules! event_codec {
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
        /// Hand `kind`'s fields to `out` in table order, skipping
        /// omitted-when-zero fields that are zero.
        fn walk_fields(kind: &$name, out: &mut impl Members) {
            match kind {
                $( $name::$variant { $($field),* } => {
                    out.reserve(0 $(+ event_codec!(@one $field))*);
                    $( if event_codec!(@keep $field $($default)?) {
                        out.member(stringify!($field), $field);
                    } )*
                } )*
            }
        }

        /// Decode the event carried by object `v` (its `type` tag plus
        /// that variant's fields; other members are ignored).
        fn kind_from_value(v: &Value) -> Result<$name, String> {
            match v.get("type").and_then(Value::as_str) {
                $( Some($tag) => Ok($name::$variant {
                    $( $field: field(v, stringify!($field), event_codec!(@default $($default)?))? ),*
                }), )*
                Some(other) => Err(format!("unknown event type '{other}'")),
                None => Err("missing or mistyped field 'type'".to_string()),
            }
        }
    };
    (@one $field:ident) => { 1 };
    (@keep $field:ident) => { true };
    (@keep $field:ident $default:literal) => { *$field != $default };
    (@default) => { None };
    (@default $default:literal) => { Some($default) };
}

mgps_runtime::event_table!(event_codec);

/// The members of one live-stream line: `type`, `at_ns`, then the
/// event's fields exactly as the [`RunLog`] schema writes them.
fn line_members(at_ns: u64, kind: &EventKind, out: &mut impl Members) {
    out.member("type", kind.tag());
    out.member("at_ns", &at_ns);
    walk_fields(kind, out);
}

/// One compact NDJSON line for a live event stream, so a stream consumer
/// and a log consumer parse the same vocabulary.
pub fn json_line(at_ns: u64, kind: &EventKind) -> String {
    let mut w = Writer::with_capacity(160);
    w.begin_object();
    line_members(at_ns, kind, &mut w);
    w.end_object();
    w.into_string()
}

/// Streamed bytes per event to reserve for: simulator logs run 90–100.
const BYTES_PER_EVENT: usize = 104;

impl RunLog {
    /// The header members, up to but not including `events`.
    fn header_members(&self, out: &mut impl Members) {
        out.member("scheduler", &self.scheduler.as_string());
        out.member("n_spes", &self.n_spes);
        out.member("quantum_ns", &self.quantum_ns);
        out.member("seed", &self.seed);
        out.member("local_store_bytes", &self.local_store_bytes);
        out.member("loop_iters", &self.loop_iters);
        out.member("mgps_window", &self.mgps_window);
        out.member("fault_policy", &self.fault_policy);
        if let Some(weights) = &self.tenant_weights {
            out.member("tenant_weights", weights);
        }
    }

    /// The members of one entry of `events`.
    fn event_members(e: &EventRecord, out: &mut impl Members) {
        out.member("seq", &e.seq);
        out.member("at_ns", &e.at_ns);
        out.member("type", e.kind.tag());
        walk_fields(&e.kind, out);
    }

    /// Serialize to a JSON value tree.
    pub fn to_value(&self) -> Value {
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut members = Vec::with_capacity(3);
                Self::event_members(e, &mut members);
                Value::Object(members)
            })
            .collect::<Vec<_>>();
        let mut members = Vec::with_capacity(10);
        self.header_members(&mut members);
        members.push(("events".to_string(), Value::Array(events)));
        Value::Object(members)
    }

    /// Write the compact JSON form: the bytes of
    /// `self.to_value().to_json()`, without the tree.
    fn stream<S: Sink>(&self, w: &mut Writer<S>) {
        w.begin_object();
        self.header_members(w);
        w.key("events");
        w.begin_array();
        for e in &self.events {
            w.begin_object();
            Self::event_members(e, w);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    /// Stream the compact JSON form into `sink` and hand it back.
    pub fn write_json<S: Sink>(&self, sink: S) -> S {
        let mut w = Writer::new(sink);
        self.stream(&mut w);
        w.into_sink()
    }

    /// The compact JSON form as a string.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(256 + self.events.len() * BYTES_PER_EVENT);
        self.stream(&mut w);
        w.into_string()
    }

    /// Rebuild a log from [`Self::to_value`] output.
    ///
    /// # Errors
    /// A description of the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<RunLog, String> {
        let events = v
            .get("events")
            .and_then(Value::as_array)
            .ok_or("missing or mistyped field 'events'")?
            .iter()
            .map(|e| {
                Ok(EventRecord {
                    seq: field(e, "seq", None)?,
                    at_ns: field(e, "at_ns", None)?,
                    kind: kind_from_value(e)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunLog {
            scheduler: SchedulerTag::from_string(&field::<String>(v, "scheduler", None)?)
                .ok_or("bad scheduler tag")?,
            n_spes: field(v, "n_spes", None)?,
            quantum_ns: field(v, "quantum_ns", None)?,
            seed: field(v, "seed", None)?,
            local_store_bytes: field(v, "local_store_bytes", None)?,
            loop_iters: field(v, "loop_iters", None)?,
            mgps_window: field(v, "mgps_window", Some(None))?,
            fault_policy: field(v, "fault_policy", Some(None))?,
            tenant_weights: field(v, "tenant_weights", Some(None))?,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Largest integer the JSON number model round-trips exactly.
    const MAX_JSON_INT: u64 = 1 << 53;

    /// A generated value of one field type of the event table.
    pub(super) trait Arb {
        fn arb(rng: &mut TestRng) -> Self;
    }

    impl Arb for u64 {
        fn arb(rng: &mut TestRng) -> u64 {
            // Zero often (the omitted-when-zero path), small often, and
            // the whole exactly representable range otherwise.
            match rng.below(4) {
                0 => 0,
                1 => rng.below(16),
                _ => rng.below(MAX_JSON_INT + 1),
            }
        }
    }

    impl Arb for usize {
        fn arb(rng: &mut TestRng) -> usize {
            u64::arb(rng) as usize
        }
    }

    impl Arb for bool {
        fn arb(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    impl Arb for String {
        fn arb(rng: &mut TestRng) -> String {
            const ALPHABET: [char; 12] =
                ['a', 'Z', '_', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'π', '🦀'];
            (0..rng.below(8)).map(|_| ALPHABET[rng.below(12) as usize]).collect()
        }
    }

    impl Arb for SchedulerTag {
        fn arb(rng: &mut TestRng) -> SchedulerTag {
            match rng.below(4) {
                0 => SchedulerTag::Edtlp,
                1 => SchedulerTag::Linux,
                2 => SchedulerTag::StaticHybrid(usize::arb(rng)),
                _ => SchedulerTag::Mgps,
            }
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(rng: &mut TestRng) -> Vec<T> {
            (0..rng.below(4)).map(|_| T::arb(rng)).collect()
        }
    }

    impl<T: Arb> Arb for Option<T> {
        fn arb(rng: &mut TestRng) -> Option<T> {
            (rng.below(2) == 1).then(|| T::arb(rng))
        }
    }

    /// A strategy from a plain generator function.
    struct Gen<T>(fn(&mut TestRng) -> T);

    impl<T> Strategy for Gen<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Expands the event table into one strategy per variant.
    macro_rules! event_strategies {
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
            /// One strategy per table row, in declaration order.
            fn variant_strategies() -> Vec<Gen<$name>> {
                vec![ $( Gen(|rng| $name::$variant { $( $field: <$ty as Arb>::arb(rng) ),* }) ),* ]
            }
        };
    }

    mgps_runtime::event_table!(event_strategies);

    /// A log with an arbitrary header and one to three events of *every*
    /// variant, so each case covers the whole vocabulary.
    fn arb_log(rng: &mut TestRng) -> RunLog {
        let mut events = Vec::new();
        for strategy in variant_strategies() {
            for _ in 0..=rng.below(3) {
                events.push(EventRecord {
                    seq: events.len() as u64,
                    at_ns: u64::arb(rng),
                    kind: strategy.generate(rng),
                });
            }
        }
        RunLog {
            scheduler: Arb::arb(rng),
            n_spes: Arb::arb(rng),
            quantum_ns: Arb::arb(rng),
            seed: Arb::arb(rng),
            local_store_bytes: Arb::arb(rng),
            loop_iters: Arb::arb(rng),
            mgps_window: Arb::arb(rng),
            fault_policy: Arb::arb(rng),
            tenant_weights: Arb::arb(rng),
            events,
        }
    }

    /// An arbitrary JSON tree, at most `depth` containers deep.
    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(bool::arb(rng)),
            2 => Value::Number(u64::arb(rng) as f64),
            3 => Value::Number((rng.unit_f64() - 0.5) * 1e6),
            4 => Value::String(String::arb(rng)),
            5 => Value::Array((0..rng.below(4)).map(|_| arb_value(rng, depth - 1)).collect()),
            _ => Value::Object(
                (0..rng.below(4)).map(|_| (arb_key(rng), arb_value(rng, depth - 1))).collect(),
            ),
        }
    }

    /// Mostly keys the decoder actually looks up, so arbitrary trees get
    /// past the first `get`.
    fn arb_key(rng: &mut TestRng) -> String {
        const KEYS: [&str; 8] =
            ["events", "type", "seq", "at_ns", "scheduler", "team", "attempt", "tenant_weights"];
        KEYS.get(rng.below(9) as usize).map_or_else(|| String::arb(rng), |k| k.to_string())
    }

    /// Replace the node reached by a random walk from `v` with an
    /// arbitrary tree.
    fn mutate(v: &mut Value, rng: &mut TestRng) {
        match v {
            Value::Array(items) if !items.is_empty() && rng.below(8) != 0 => {
                let i = rng.below(items.len() as u64) as usize;
                mutate(&mut items[i], rng);
            }
            Value::Object(members) if !members.is_empty() && rng.below(8) != 0 => {
                let i = rng.below(members.len() as u64) as usize;
                mutate(&mut members[i].1, rng);
            }
            node => *node = arb_value(rng, 2),
        }
    }

    proptest! {
        /// Decode inverts encode over the whole vocabulary, through both
        /// text forms, and re-encoding is byte-stable; a stream line
        /// carries the same fields under the same keys, led by `type` and
        /// `at_ns`.
        #[test]
        fn json_round_trips_the_whole_vocabulary(log in Gen(arb_log)) {
            let parse = |text: &str| minijson::parse(text).map_err(|e| TestCaseError::fail(e.to_string()));
            let value = log.to_value();
            prop_assert_eq!(RunLog::from_value(&value), Ok(log.clone()));
            for text in [value.to_json(), value.to_json_pretty()] {
                let back = RunLog::from_value(&parse(&text)?).map_err(TestCaseError::fail)?;
                prop_assert_eq!(&back, &log);
                prop_assert_eq!(back.to_value().to_json(), value.to_json());
            }
            for e in &log.events {
                let line = json_line(e.at_ns, &e.kind);
                let head = format!(r#"{{"type":"{}","at_ns":{},"#, e.kind.tag(), e.at_ns);
                prop_assert!(line.starts_with(&head), "{line}");
                prop_assert_eq!(kind_from_value(&parse(&line)?), Ok(e.kind.clone()));
            }
        }

        /// The streamed encoders emit the tree's bytes: the whole log
        /// into a string and into a bare sink, and every stream line.
        #[test]
        fn streamed_bytes_equal_the_tree_rendered_bytes(log in Gen(arb_log)) {
            let tree = log.to_value().to_json();
            prop_assert_eq!(&log.to_json(), &tree);
            prop_assert_eq!(log.write_json(Vec::new()), tree.into_bytes());
            for e in &log.events {
                prop_assert_eq!(json_line(e.at_ns, &e.kind), tree_line(e.at_ns, &e.kind));
            }
        }

        /// Arbitrary JSON trees are refused, never a panic.
        #[test]
        fn arbitrary_trees_are_rejected(tree in Gen(|rng| arb_value(rng, 3))) {
            prop_assert!(RunLog::from_value(&tree).is_err());
        }

        /// One corrupted node in a valid log is refused or decodes to a
        /// log that re-encodes to itself — never a panic.
        #[test]
        fn corrupted_logs_never_panic(
            value in Gen(|rng| {
                let mut value = arb_log(rng).to_value();
                mutate(&mut value, rng);
                value
            }),
        ) {
            if let Ok(back) = RunLog::from_value(&value) {
                prop_assert_eq!(RunLog::from_value(&back.to_value()), Ok(back));
            }
        }

        /// Arbitrary bytes through `parse` + `from_value`: an error, never
        /// a panic.
        #[test]
        fn arbitrary_bytes_are_rejected(
            bytes in prop::collection::vec(0u8..=255, 0..64),
            splice_at in 0usize..64,
        ) {
            // Raw noise, and the same noise spliced into a valid document
            // so the parser is deep inside a log when it hits it.
            let noise = String::from_utf8_lossy(&bytes).into_owned();
            let mut doc = sample_log().to_value().to_json();
            doc.insert_str(splice_at % doc.len(), &noise); // the sample is ASCII
            for text in [noise, doc] {
                if let Ok(v) = minijson::parse(&text) {
                    let _ = RunLog::from_value(&v);
                }
            }
        }
    }

    /// [`json_line`] the long way round: the same members as a tree node.
    fn tree_line(at_ns: u64, kind: &EventKind) -> String {
        let mut members = Vec::new();
        line_members(at_ns, kind, &mut members);
        Value::Object(members).to_json()
    }

    #[test]
    fn streamed_bytes_equal_the_tree_at_the_edges_of_the_number_and_string_forms() {
        // From 2^53 up an integer takes the tree's `f64` form, digits and
        // all; every escape class appears in a header string and in an
        // event string.
        let nasty = "q\"b\\n\nc\u{1}t\tr\rπ🦀".to_string();
        for big in [MAX_JSON_INT - 1, MAX_JSON_INT, MAX_JSON_INT + 1, u64::MAX - 5, u64::MAX] {
            let mut log = sample_log();
            log.seed = big;
            log.quantum_ns = big;
            log.n_spes = big as usize;
            log.fault_policy = Some(nasty.clone());
            log.tenant_weights = Some(vec![0, big]);
            for kind in [
                EventKind::OffloadRetry { task: big, attempt: 1, backoff_ns: big },
                EventKind::TaskStart { proc: 0, task: 1, degree: 2, team: vec![big as usize, 0] },
                EventKind::Health {
                    alarm: AlarmKind::RingDrop,
                    severity: Severity::Critical,
                    detail: nasty.clone(),
                },
            ] {
                log.events.push(EventRecord { seq: big, at_ns: big, kind });
            }
            assert_eq!(log.to_json(), log.to_value().to_json(), "{big}");
            for e in &log.events {
                assert_eq!(json_line(e.at_ns, &e.kind), tree_line(e.at_ns, &e.kind), "{big}");
            }
        }
        let mut empty = sample_log();
        empty.events.clear();
        assert_eq!(empty.to_json(), empty.to_value().to_json());
        assert!(empty.to_json().ends_with(r#""events":[]}"#));
        empty.seed = u64::MAX - 5;
        assert!(empty.to_json().contains(r#""seed":18446744073709552000,"#));
    }

    fn sample_log() -> RunLog {
        RunLog {
            scheduler: SchedulerTag::Mgps,
            n_spes: 8,
            quantum_ns: 1_000_000,
            seed: 42,
            local_store_bytes: 256 * 1024,
            loop_iters: 228,
            mgps_window: Some(8),
            fault_policy: None,
            tenant_weights: None,
            events: vec![
                EventRecord { seq: 0, at_ns: 10, kind: EventKind::Offload { proc: 0, task: 0 } },
                EventRecord {
                    seq: 1,
                    at_ns: 10,
                    kind: EventKind::JobSubmitted {
                        job: 1,
                        tenant: 0,
                        taxa: 16,
                        sites: 256,
                        bootstraps: 1,
                        deadline_ns: 0,
                        queue_depth: 1,
                        queue_cap: 8,
                    },
                },
                EventRecord {
                    seq: 2,
                    at_ns: 11,
                    kind: EventKind::JobStarted { job: 1, tenant: 0, attempt: 0 },
                },
                EventRecord {
                    seq: 3,
                    at_ns: 12,
                    kind: EventKind::DegreeDecision {
                        degree: 4,
                        u: 0,
                        waiting: 2,
                        n_spes: 8,
                        window: 8,
                        window_fill: 3,
                    },
                },
            ],
        }
    }

    #[test]
    fn default_valued_fields_are_omitted_from_json() {
        // Byte-identity contract: a run with no deadlines, no retries,
        // equal weights and simulator-side (replayed) `U` must serialize
        // exactly as it did before those fields existed, so the optional
        // keys may not appear at all.
        let log = sample_log();
        let text = log.to_value().to_json_pretty();
        for key in ["deadline_ns", "attempt", "tenant_weights", "\"u\""] {
            assert!(!text.contains(key), "default-valued {key} must not serialize");
        }
        let back = RunLog::from_value(&minijson::parse(&text).unwrap()).unwrap();
        assert_eq!(back, log, "omitted fields read back as their defaults");
        assert_eq!(back.fault_policy, None);
    }

    #[test]
    fn stream_lines_keep_their_key_order() {
        // `/events` consumers (the benchmark's `job_completed` follower
        // among them) read these bytes: `type`, `at_ns`, then the fields
        // in table order.
        let completed = EventKind::JobCompleted {
            job: 7,
            tenant: 2,
            t_queue_ns: 1,
            t_dispatch_ns: 2,
            t_kernel_ns: 3,
            t_reduce_ns: 4,
        };
        assert_eq!(
            json_line(51, &completed),
            r#"{"type":"job_completed","at_ns":51,"job":7,"tenant":2,"t_queue_ns":1,"t_dispatch_ns":2,"t_kernel_ns":3,"t_reduce_ns":4}"#
        );
    }

    /// Decode `text` after splicing `member` in right behind `anchor`.
    fn decode_with(text: &str, anchor: &str, member: &str) -> Result<RunLog, String> {
        assert!(text.contains(anchor), "{anchor} not in {text}");
        let text = text.replace(anchor, &format!("{anchor},{member}"));
        RunLog::from_value(&minijson::parse(&text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn a_mistyped_optional_field_is_an_error_not_its_default() {
        // Both used to decode as 0.
        let text = sample_log().to_value().to_json();
        let soon = decode_with(&text, r#""type":"job_submitted""#, r#""deadline_ns":"soon""#);
        assert!(soon.unwrap_err().contains("deadline_ns"));
        let negative = decode_with(&text, r#""type":"job_started""#, r#""attempt":-1"#);
        assert!(negative.unwrap_err().contains("attempt"));
        // Present and well-typed still decodes.
        let set = decode_with(&text, r#""type":"job_started""#, r#""attempt":3"#).unwrap();
        assert_eq!(set.events[2].kind, EventKind::JobStarted { job: 1, tenant: 0, attempt: 3 });
    }

    #[test]
    fn a_mistyped_tenant_weight_is_an_error_not_a_shorter_list() {
        // `[1,"x",3]` used to decode as `[1,3]`: the checker's
        // tenant-fairness rule would then replay tenant 1 at weight 3.
        let text = sample_log().to_value().to_json();
        let mixed = decode_with(&text, r#""seed":42"#, r#""tenant_weights":[1,"x",3]"#);
        assert!(mixed.unwrap_err().contains("tenant_weights"));
        let clean = decode_with(&text, r#""seed":42"#, r#""tenant_weights":[1,2,3]"#).unwrap();
        assert_eq!(clean.tenant_weights, Some(vec![1, 2, 3]));
    }

    /// `sample_log` with three named-decision records appended, as text.
    fn named_decisions(kernel: &str, fault: &str, alarm: &str, severity: &str) -> String {
        let records = format!(
            r#"{{"seq":4,"at_ns":13,"type":"granularity_verdict","kernel":"{kernel}","offload":true,"throttled":false,"reprobe":false}},{{"seq":5,"at_ns":14,"type":"fault_injected","spe":0,"task":0,"fault":"{fault}","attempt":0}},{{"seq":6,"at_ns":15,"type":"health","alarm":"{alarm}","severity":"{severity}","detail":"d"}}"#
        );
        sample_log().to_json().replacen("]}", &format!(",{records}]}}"), 1)
    }

    #[test]
    fn an_unknown_name_is_refused_at_decode_as_a_mistyped_field() {
        let decode = |text: &str| RunLog::from_value(&minijson::parse(text).unwrap());
        let good = named_decisions("makenewz", "spe_stall", "ring_drop", "critical");
        assert_eq!(decode(&good).unwrap().to_json(), good, "slugs re-encode byte for byte");
        // A spec alias names no fault in a log: only `FaultPlan::parse`
        // reads `stall`.
        for (text, field) in [
            (named_decisions("ppe_copy", "spe_stall", "ring_drop", "critical"), "kernel"),
            (named_decisions("makenewz", "stall", "ring_drop", "critical"), "fault"),
            (named_decisions("makenewz", "spe_stall", "ring_overflow", "critical"), "alarm"),
            (named_decisions("makenewz", "spe_stall", "ring_drop", "fatal"), "severity"),
        ] {
            assert_eq!(decode(&text).unwrap_err(), format!("mistyped field '{field}'"));
        }
    }

    #[test]
    fn scheduler_tags_round_trip() {
        for tag in [
            SchedulerTag::Edtlp,
            SchedulerTag::Linux,
            SchedulerTag::StaticHybrid(4),
            SchedulerTag::Mgps,
        ] {
            assert_eq!(SchedulerTag::from_string(&tag.as_string()), Some(tag));
        }
        assert_eq!(SchedulerTag::from_string("nope"), None);
    }
}
