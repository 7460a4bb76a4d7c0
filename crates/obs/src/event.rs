//! The structured event model: one [`Event`] per observable step of an
//! engine run, forming hierarchical spans
//! (query → layer → round → invocation → attempt).
//!
//! Hierarchy is encoded positionally rather than with parent pointers:
//! every event carries the enclosing round and layer, a `query_start`
//! opens a span that the matching `query_end` closes, and `seq` orders
//! events totally within one query span. The stream is **deterministic**:
//! all emission happens on the engine's sequential phases (detection,
//! splice, accounting), never on dispatch threads, so two runs with the
//! same seed produce byte-identical streams even when parallel batches
//! run on real OS threads. Events are therefore sequenced by the engine's
//! own order — (simulated time, layer index, document position) — not by
//! OS scheduling.

/// The outcome of one cross-query cache probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A valid entry was served at zero network cost.
    Hit,
    /// An entry existed but its validity window had expired.
    Stale,
    /// Nothing was cached for the call.
    Miss,
}

impl CacheOutcome {
    /// Wire name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Stale => "stale",
            CacheOutcome::Miss => "miss",
        }
    }

    /// Parses a wire name back.
    pub fn from_name(s: &str) -> Option<CacheOutcome> {
        match s {
            "hit" => Some(CacheOutcome::Hit),
            "stale" => Some(CacheOutcome::Stale),
            "miss" => Some(CacheOutcome::Miss),
            _ => None,
        }
    }
}

/// Why the admission gate shed a candidate call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The service's in-flight-per-batch limit was reached.
    Inflight,
    /// The service's latency EWMA crossed the configured limit.
    Latency,
}

impl ShedReason {
    /// Wire name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::Inflight => "inflight",
            ShedReason::Latency => "latency",
        }
    }

    /// Parses a wire name back.
    pub fn from_name(s: &str) -> Option<ShedReason> {
        match s {
            "inflight" => Some(ShedReason::Inflight),
            "latency" => Some(ShedReason::Latency),
            _ => None,
        }
    }
}

/// What one event records.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// An engine run began.
    QueryStart {
        /// Strategy name (`naive`, `topdown`, `lpq`, `nfq`, `shared`).
        strategy: String,
        /// Rendered query text.
        query: String,
    },
    /// The engine run finished (closes the span `query_start` opened).
    QueryEnd {
        /// Whether the answer is the full answer.
        complete: bool,
        /// Service calls actually invoked.
        calls_invoked: usize,
        /// Simulated time this run consumed, in ms.
        sim_time_ms: f64,
    },
    /// An influence layer began processing (§4.3). The layer index is the
    /// event's `layer` field.
    LayerStart {
        /// NFQs assigned to this layer.
        nfqs: usize,
        /// Whether condition (✳) lets the layer batch in parallel.
        independent: bool,
    },
    /// The layer's fixpoint was reached.
    LayerEnd,
    /// The candidate set one detection pass produced — the calls found
    /// relevant this round, *before* any of them is invoked. The laziness
    /// oracle replays these sets.
    Candidates {
        /// The relevant calls' ids, in document order.
        calls: Vec<u64>,
        /// Their service names, parallel to `calls`.
        services: Vec<String>,
    },
    /// A cross-query cache probe and its outcome.
    CacheProbe {
        /// Service name.
        service: String,
        /// The probed call's id.
        call: u64,
        /// Hit / stale / miss.
        outcome: CacheOutcome,
    },
    /// One service attempt within an invocation (index 0 is the first
    /// try; later indices are retries). Derived from the registry's
    /// per-call outcome during the deterministic accounting phase.
    Attempt {
        /// Service name.
        service: String,
        /// The call's id.
        call: u64,
        /// Zero-based attempt index.
        index: usize,
        /// Whether this attempt succeeded.
        ok: bool,
    },
    /// A call was resolved: a real invocation (successful or permanently
    /// failed) or a cache hit.
    Invocation {
        /// Service name.
        service: String,
        /// The call's id.
        call: u64,
        /// Slash-joined label path of the call's parent.
        path: String,
        /// Whether a pushed query rode along (§7).
        pushed: bool,
        /// Whether the answer came from the cross-query cache.
        cached: bool,
        /// Whether the call delivered an answer.
        ok: bool,
        /// Attempts made (0 for cache hits).
        attempts: usize,
        /// Simulated cost charged for the call, in ms.
        cost_ms: f64,
        /// Result bytes moved over the simulated network (0 for cache
        /// hits and failures).
        bytes: usize,
    },
    /// A per-service circuit breaker changed state.
    BreakerTransition {
        /// Service name.
        service: String,
        /// `true` when the breaker opened, `false` when it closed.
        open: bool,
    },
    /// A dispatch was refused outright by an open breaker.
    BreakerSkip {
        /// Service name.
        service: String,
        /// The refused call's id.
        call: u64,
    },
    /// A call named a service the registry does not know.
    UnknownService {
        /// Service name.
        service: String,
        /// The skipped call's id.
        call: u64,
    },
    /// One batch of resolutions and how it was charged to the simulated
    /// clock: parallel batches advance by the **maximum** member cost
    /// (§4.4), sequential ones by the sum.
    Batch {
        /// Whether the batch overlapped on the simulated clock.
        parallel: bool,
        /// The member costs, in resolution order.
        costs: Vec<f64>,
        /// What the clock actually advanced by.
        advance_ms: f64,
    },
    /// The invocation budget ran out with relevant calls still pending.
    Truncated {
        /// Candidates still relevant when the budget died.
        pending: usize,
    },
    /// A hedge leg was fired for a slow call and the race was resolved.
    /// Exactly one outcome (the winner's) is recorded per logical call,
    /// so a hedge is *not* a degradation.
    Hedge {
        /// Service name.
        service: String,
        /// The hedged call's id.
        call: u64,
        /// Simulated ms into the call at which the hedge leg fired.
        fired_at_ms: f64,
        /// The primary leg's own simulated cost, in ms.
        primary_cost_ms: f64,
        /// The hedge leg's own simulated cost (excluding the firing
        /// offset), in ms.
        hedge_cost_ms: f64,
        /// Whether the hedge leg finished first and its outcome won.
        hedge_won: bool,
    },
    /// The admission gate shed a candidate call before dispatch — like a
    /// breaker skip, the answer degrades to a sound partial result.
    Shed {
        /// Service name.
        service: String,
        /// The shed call's id.
        call: u64,
        /// Which limit triggered the shed.
        reason: ShedReason,
    },
    /// The end-to-end deadline expired with relevant calls still pending;
    /// no later invocation starts in this span. A `Truncated`-style event
    /// with a distinct cause.
    DeadlineExceeded {
        /// Candidates still relevant when the deadline expired.
        pending: usize,
    },
    /// A standing query was registered with the subscription engine and
    /// its initial answer computed. Opens the subscription's span: every
    /// later `subscription_delta` with the same name belongs to it.
    SubscriptionStart {
        /// The subscription's name (unique within its engine).
        subscription: String,
        /// Rendered standing-query text.
        query: String,
        /// Rows in the initial answer.
        initial: usize,
    },
    /// A compiled-plan cache probe and its outcome. Emitted by the
    /// store's plan cache through its **own** sink, never into an
    /// engine's query span — query traces must stay byte-identical
    /// whether a plan was reused or compiled, so plan-cache activity gets
    /// a stream of its own (like subscription events, the span checks
    /// partition it out).
    PlanCacheProbe {
        /// Rendered query text of the probed plan key.
        query: String,
        /// Stable fingerprint of the full plan key (query + schema +
        /// compile-relevant config bits), hex-encoded.
        key: String,
        /// `true`: a compiled plan was reused. `false`: nothing cached
        /// under the key — the probe compiled and inserted.
        hit: bool,
    },
    /// The durability layer appended one CRC-framed record to a
    /// document's write-ahead log. Emitted through the store's own sink
    /// (like plan-cache events), never into an engine's query span.
    WalAppend {
        /// The stored document's name.
        doc: String,
        /// The published version the record describes (for `watermark`
        /// records: the subscription watermark being persisted).
        version: u64,
        /// Record type: `checkpoint`, `splices`, `snapshot` or
        /// `watermark`.
        record: String,
        /// Framed bytes appended (header + payload).
        bytes: usize,
        /// Whether the append was fsync-acknowledged (the publication is
        /// durable) or left buffered (a crash may lose it).
        synced: bool,
    },
    /// The checkpoint policy wrote a full-document checkpoint frame.
    WalCheckpoint {
        /// The stored document's name.
        doc: String,
        /// The checkpointed version.
        version: u64,
        /// Framed bytes the checkpoint occupies in the log.
        bytes: usize,
    },
    /// One document finished crash recovery: the log was scanned,
    /// possibly truncated at its first invalid frame, and replayed.
    WalRecovery {
        /// The recovered document's name.
        doc: String,
        /// The version the document recovered to.
        version: u64,
        /// Valid frames scanned (including the base checkpoint).
        frames: usize,
        /// Splice records replayed atop the base checkpoint.
        splices_replayed: usize,
        /// Whether a torn or corrupt tail was truncated away.
        truncated: bool,
    },
    /// A standing query's answer changed at a published document version
    /// and a delta was delivered to its sinks.
    SubscriptionDelta {
        /// The subscription's name.
        subscription: String,
        /// The document version the delta brings the subscriber to.
        version: u64,
        /// Answer rows added at this version.
        added: usize,
        /// Answer rows removed at this version.
        removed: usize,
        /// Rows counted as changed (paired add/remove on the same key).
        changed: usize,
        /// Whether the delta was computed by a sound full re-evaluation
        /// (splice history evicted) instead of the incremental path.
        full_reeval: bool,
    },
}

impl EventKind {
    /// Wire name used in the JSONL encoding (the `"kind"` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryStart { .. } => "query_start",
            EventKind::QueryEnd { .. } => "query_end",
            EventKind::LayerStart { .. } => "layer_start",
            EventKind::LayerEnd => "layer_end",
            EventKind::Candidates { .. } => "candidates",
            EventKind::CacheProbe { .. } => "cache_probe",
            EventKind::Attempt { .. } => "attempt",
            EventKind::Invocation { .. } => "invocation",
            EventKind::BreakerTransition { .. } => "breaker",
            EventKind::BreakerSkip { .. } => "breaker_skip",
            EventKind::UnknownService { .. } => "unknown_service",
            EventKind::Batch { .. } => "batch",
            EventKind::Truncated { .. } => "truncated",
            EventKind::Hedge { .. } => "hedge",
            EventKind::Shed { .. } => "shed",
            EventKind::DeadlineExceeded { .. } => "deadline",
            EventKind::PlanCacheProbe { .. } => "plan_cache",
            EventKind::SubscriptionStart { .. } => "subscription_start",
            EventKind::SubscriptionDelta { .. } => "subscription_delta",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::WalCheckpoint { .. } => "wal_checkpoint",
            EventKind::WalRecovery { .. } => "wal_recovery",
        }
    }
}

/// One record of the execution trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotone position within the query span (resets at `query_start`).
    pub seq: u64,
    /// Simulated clock at emission, in ms (session-absolute: a run
    /// started at clock *t* emits its first event at `sim_ms ≥ t`).
    pub sim_ms: f64,
    /// The invoke/re-evaluate round the event belongs to (0 before the
    /// first round).
    pub round: usize,
    /// The influence layer being processed (0 when unlayered).
    pub layer: usize,
    /// Measured CPU time, in ms, where it is meaningful (`query_end`).
    /// CPU time is wall-clock dependent, so deterministic serializations
    /// omit it — see [`crate::json::to_jsonl`].
    pub cpu_ms: Option<f64>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// True for the event kinds whose presence means the answer is
    /// partial: permanent failures, breaker refusals, unknown services,
    /// shed calls, budget truncation and deadline expiry.
    /// `EngineStats::is_complete()` must be `true` exactly when a trace
    /// contains none of these. A [`EventKind::Hedge`] is *not* a
    /// degradation: the logical call still resolved to one outcome.
    pub fn is_degradation(&self) -> bool {
        match &self.kind {
            EventKind::Invocation { ok, .. } => !ok,
            EventKind::BreakerSkip { .. }
            | EventKind::UnknownService { .. }
            | EventKind::Truncated { .. }
            | EventKind::Shed { .. }
            | EventKind::DeadlineExceeded { .. } => true,
            _ => false,
        }
    }
}
