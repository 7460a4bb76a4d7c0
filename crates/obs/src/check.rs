//! The trace-oracle harness: replays an event stream and verifies the
//! paper's behavioural propositions as machine-checkable invariants —
//! laziness (no call is invoked unless some preceding candidate set named
//! it), layer-order soundness (§4.3), parallel-batch max-vs-sum clock
//! charging (§4.4), and accounting identities against the engine's
//! aggregate statistics.
//!
//! The harness is engine-agnostic: it consumes only [`Event`]s plus an
//! optional [`StatsView`] (a plain mirror of `EngineStats`, so this crate
//! needs no dependency on the core). Streams may contain several query
//! spans (a session); every structural check is applied per span.

use crate::event::{CacheOutcome, Event, EventKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Tolerance for comparing simulated-clock sums (pure f64 addition, so
/// only representation error accumulates).
const EPS: f64 = 1e-6;

/// One invariant the trace failed.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Name of the check that fired (`laziness`, `layer-order`, …).
    pub check: &'static str,
    /// The offending event's `seq`, when one event is to blame.
    pub seq: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.seq {
            Some(seq) => write!(f, "[{}] at seq {}: {}", self.check, seq, self.message),
            None => write!(f, "[{}] {}", self.check, self.message),
        }
    }
}

fn violation(check: &'static str, seq: Option<u64>, message: String) -> Violation {
    Violation {
        check,
        seq,
        message,
    }
}

/// The aggregate counters the accounting checks compare the trace
/// against — a dependency-free mirror of the engine's `EngineStats`
/// (plus its `is_complete()` verdict in `complete`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsView {
    /// Service calls actually invoked (successes; excludes cache hits).
    pub calls_invoked: usize,
    /// Service attempts made across all calls, successful or not.
    pub call_attempts: usize,
    /// Calls that failed permanently.
    pub failed_calls: usize,
    /// Calls refused by an open circuit breaker.
    pub breaker_skips: usize,
    /// Calls naming a service the registry does not know.
    pub skipped_unknown: usize,
    /// Cross-query cache hits.
    pub cache_hits: usize,
    /// Cache probes that found nothing.
    pub cache_misses: usize,
    /// Cache probes that found an expired entry.
    pub cache_stale: usize,
    /// Calls whose invocation carried a pushed query.
    pub pushed_calls: usize,
    /// Result bytes moved over the simulated network.
    pub bytes_transferred: usize,
    /// Simulated time consumed, in ms.
    pub sim_time_ms: f64,
    /// Whether the invocation budget truncated the run.
    pub truncated: bool,
    /// Whether truncation was caused by the end-to-end deadline.
    pub deadline_exceeded: bool,
    /// Calls shed by the admission gate.
    pub shed_skips: usize,
    /// Hedge legs fired inside parallel batches.
    pub hedged_calls: usize,
    /// Hedged calls whose hedge leg won the race.
    pub hedge_wins: usize,
    /// The engine's `is_complete()` verdict.
    pub complete: bool,
    /// Per-service invocation counts.
    pub invoked_by_service: BTreeMap<String, usize>,
    /// Per-shard `(hits, misses, stale)` counters of the sharded call
    /// cache, in shard-index order. Empty means "not captured" and skips
    /// the shard-sum identity check — engines don't know shard layouts,
    /// so this is filled by harnesses that hold the cache itself.
    pub cache_shards: Vec<(usize, usize, usize)>,
}

/// Whether an event belongs to the subscription stream rather than to an
/// engine query span. Subscription events interleave freely with query
/// spans (a delta can be emitted between two refresh evaluations), so the
/// span checks partition them out and `check_subscriptions` replays them
/// on their own.
fn is_subscription_event(e: &Event) -> bool {
    matches!(
        e.kind,
        EventKind::SubscriptionStart { .. } | EventKind::SubscriptionDelta { .. }
    )
}

/// Whether an event belongs to the plan-cache stream. Plan-cache probes
/// are emitted by the store's plan cache, outside any engine query span
/// (query traces are byte-identical whether a plan was reused), so —
/// like subscription events — they are partitioned out of the span checks
/// and replayed by `check_plan_cache`.
fn is_plan_cache_event(e: &Event) -> bool {
    matches!(e.kind, EventKind::PlanCacheProbe { .. })
}

/// Whether an event belongs to the durability stream. WAL appends run
/// inside the publication critical section of the store — outside any
/// engine query span, and byte-identical traces must not depend on
/// whether a store is durable — so, like plan-cache events, they are
/// partitioned out of the span checks and replayed by
/// `check_durability_stream`.
fn is_durability_event(e: &Event) -> bool {
    matches!(
        e.kind,
        EventKind::WalAppend { .. }
            | EventKind::WalCheckpoint { .. }
            | EventKind::WalRecovery { .. }
    )
}

/// Structural checks on the durability stream, per document: recovery
/// events precede any append (a store recovers before it serves),
/// non-watermark append versions advance by at most one and never go
/// backwards (the log records a version *chain*), every checkpoint
/// carries the version of the publication it snapshots, and frames are
/// never empty.
fn check_durability_stream(events: &[Event], out: &mut Vec<Violation>) {
    use std::collections::btree_map::Entry;
    let mut last_version: BTreeMap<&str, u64> = BTreeMap::new();
    let mut appended: BTreeMap<&str, bool> = BTreeMap::new();
    for e in events {
        match &e.kind {
            EventKind::WalAppend {
                doc,
                version,
                record,
                bytes,
                ..
            } => {
                if *bytes == 0 {
                    out.push(violation(
                        "durability",
                        Some(e.seq),
                        format!("empty WAL frame appended for doc {doc:?}"),
                    ));
                }
                appended.insert(doc.as_str(), true);
                if record == "watermark" {
                    continue; // carries a subscription watermark, not a doc version
                }
                match last_version.entry(doc.as_str()) {
                    Entry::Vacant(v) => {
                        v.insert(*version);
                    }
                    Entry::Occupied(mut o) => {
                        let prev = *o.get();
                        if *version < prev || *version > prev + 1 {
                            out.push(violation(
                                "durability",
                                Some(e.seq),
                                format!(
                                    "doc {doc:?} WAL version jumped {prev} -> {version} \
                                     (the log must be a chain)"
                                ),
                            ));
                        }
                        o.insert(*version);
                    }
                }
            }
            EventKind::WalCheckpoint {
                doc,
                version,
                bytes,
            } => {
                if *bytes == 0 {
                    out.push(violation(
                        "durability",
                        Some(e.seq),
                        format!("empty checkpoint frame for doc {doc:?}"),
                    ));
                }
                if let Some(&prev) = last_version.get(doc.as_str()) {
                    if *version != prev {
                        out.push(violation(
                            "durability",
                            Some(e.seq),
                            format!(
                                "doc {doc:?} checkpoint at version {version} but the log is \
                                 at {prev}"
                            ),
                        ));
                    }
                }
            }
            EventKind::WalRecovery { doc, version, .. } => {
                if appended.get(doc.as_str()).copied().unwrap_or(false) {
                    out.push(violation(
                        "durability",
                        Some(e.seq),
                        format!("doc {doc:?} recovered after WAL appends in the same stream"),
                    ));
                }
                last_version.insert(doc.as_str(), *version);
            }
            _ => {}
        }
    }
}

/// Accounting identity between a stream's durability events and the WAL
/// manager's own counters: appends, fsync-acknowledged appends and
/// checkpoints in the stream must equal the manager's aggregate counts
/// over the same window.
pub fn check_wal_accounting(
    events: &[Event],
    appends: usize,
    synced: usize,
    checkpoints: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let (mut a, mut s, mut c) = (0usize, 0usize, 0usize);
    for e in events {
        match &e.kind {
            EventKind::WalAppend { synced, .. } => {
                a += 1;
                if *synced {
                    s += 1;
                }
            }
            EventKind::WalCheckpoint { .. } => c += 1,
            _ => {}
        }
    }
    if a != appends {
        out.push(violation(
            "wal-accounting",
            None,
            format!("trace has {a} WAL appends, counters say {appends}"),
        ));
    }
    if s != synced {
        out.push(violation(
            "wal-accounting",
            None,
            format!("trace has {s} synced WAL appends, counters say {synced}"),
        ));
    }
    if c != checkpoints {
        out.push(violation(
            "wal-accounting",
            None,
            format!("trace has {c} checkpoints, counters say {checkpoints}"),
        ));
    }
    out
}

/// Structural checks on the plan-cache stream: the first probe of every
/// key must be a miss (a hit before any compile would mean a plan
/// materialized out of nowhere), and a key's rendered query text never
/// changes (the key fingerprints the query, so two queries may not share
/// one).
fn check_plan_cache_stream(events: &[Event], out: &mut Vec<Violation>) {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new(); // key -> query
    for e in events {
        if let EventKind::PlanCacheProbe { query, key, hit } = &e.kind {
            match seen.get(key.as_str()) {
                None => {
                    if *hit {
                        out.push(violation(
                            "plan-cache",
                            Some(e.seq),
                            format!("key {key} hit before any miss compiled it"),
                        ));
                    }
                    seen.insert(key.as_str(), query.as_str());
                }
                Some(prev) if *prev != query.as_str() => {
                    out.push(violation(
                        "plan-cache",
                        Some(e.seq),
                        format!(
                            "key {key} probed for two different queries ({prev:?} vs {query:?})"
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
}

/// Accounting identity between a stream's plan-cache probe events and the
/// plan cache's own counters: hits and misses in the stream must equal
/// the cache's aggregate counts over the same window.
pub fn check_plan_cache(events: &[Event], hits: usize, misses: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    let (mut h, mut m) = (0usize, 0usize);
    for e in events {
        if let EventKind::PlanCacheProbe { hit, .. } = &e.kind {
            if *hit {
                h += 1;
            } else {
                m += 1;
            }
        }
    }
    if h != hits {
        out.push(violation(
            "plan-cache-accounting",
            None,
            format!("trace has {h} plan-cache hits, counters say {hits}"),
        ));
    }
    if m != misses {
        out.push(violation(
            "plan-cache-accounting",
            None,
            format!("trace has {m} plan-cache misses, counters say {misses}"),
        ));
    }
    out
}

/// Splits a stream into query spans. Events before the first
/// `query_start` form a leading segment of their own (they would
/// themselves be a structural violation, caught by `check_trace`).
fn spans(events: &[Event]) -> Vec<&[Event]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, e) in events.iter().enumerate() {
        if matches!(e.kind, EventKind::QueryStart { .. }) && i > start {
            out.push(&events[start..i]);
            start = i;
        }
    }
    if start < events.len() {
        out.push(&events[start..]);
    }
    out
}

/// Structural checks on one query span.
fn check_span(span: &[Event], out: &mut Vec<Violation>) {
    let first = &span[0];
    if !matches!(first.kind, EventKind::QueryStart { .. }) {
        out.push(violation(
            "span",
            Some(first.seq),
            format!(
                "span does not open with query_start (got {})",
                first.kind.name()
            ),
        ));
    }

    // -- ordering: seq strictly increasing, sim_ms monotone
    let mut prev_seq = None::<u64>;
    let mut prev_sim = f64::NEG_INFINITY;
    for e in span {
        if let Some(p) = prev_seq {
            if e.seq <= p {
                out.push(violation(
                    "ordering",
                    Some(e.seq),
                    format!("seq {} not greater than predecessor {}", e.seq, p),
                ));
            }
        }
        prev_seq = Some(e.seq);
        if e.sim_ms < prev_sim - EPS {
            out.push(violation(
                "ordering",
                Some(e.seq),
                format!(
                    "simulated clock moved backwards ({} -> {})",
                    prev_sim, e.sim_ms
                ),
            ));
        }
        prev_sim = prev_sim.max(e.sim_ms);
    }

    // -- laziness: every invocation was named by a preceding candidate set
    let mut announced = BTreeSet::new();
    for e in span {
        match &e.kind {
            EventKind::Candidates { calls, .. } => announced.extend(calls.iter().copied()),
            EventKind::Invocation { call, service, .. } if !announced.contains(call) => {
                out.push(violation(
                    "laziness",
                    Some(e.seq),
                    format!(
                        "call #{call} ({service}) invoked without appearing in any preceding candidate set"
                    ),
                ));
            }
            _ => {}
        }
    }

    // -- layer order: layers open in non-decreasing index order, close in
    //    LIFO-of-one fashion, and interior events carry the open layer
    let mut open_layer: Option<usize> = None;
    let mut last_opened: Option<usize> = None;
    for e in span {
        match &e.kind {
            EventKind::LayerStart { .. } => {
                if let Some(open) = open_layer {
                    out.push(violation(
                        "layer-order",
                        Some(e.seq),
                        format!("layer {} started while layer {open} is still open", e.layer),
                    ));
                }
                if let Some(prev) = last_opened {
                    if e.layer < prev {
                        out.push(violation(
                            "layer-order",
                            Some(e.seq),
                            format!(
                                "layer {} started after layer {prev} — may-influence order violated",
                                e.layer
                            ),
                        ));
                    }
                }
                open_layer = Some(e.layer);
                last_opened = Some(e.layer);
            }
            EventKind::LayerEnd => {
                match open_layer {
                    Some(open) if open == e.layer => {}
                    Some(open) => out.push(violation(
                        "layer-order",
                        Some(e.seq),
                        format!("layer_end for layer {} while layer {open} is open", e.layer),
                    )),
                    None => out.push(violation(
                        "layer-order",
                        Some(e.seq),
                        format!("layer_end for layer {} with no layer open", e.layer),
                    )),
                }
                open_layer = None;
            }
            EventKind::Invocation { call, .. } => {
                if let Some(open) = open_layer {
                    if e.layer != open {
                        out.push(violation(
                            "layer-order",
                            Some(e.seq),
                            format!(
                                "call #{call} invoked under layer {} while layer {open} is open",
                                e.layer
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(open) = open_layer {
        out.push(violation(
            "layer-order",
            None,
            format!("layer {open} never closed"),
        ));
    }

    // -- clock charging: each batch advances by max (parallel) or sum
    //    (sequential) of its member costs; the advances account for the
    //    whole of the span's simulated time
    let mut advanced = 0.0f64;
    for e in span {
        if let EventKind::Batch {
            parallel,
            costs,
            advance_ms,
        } = &e.kind
        {
            let expect = if *parallel {
                costs.iter().copied().fold(0.0, f64::max)
            } else {
                costs.iter().sum()
            };
            if (expect - advance_ms).abs() > EPS {
                out.push(violation(
                    "clock",
                    Some(e.seq),
                    format!(
                        "{} batch of {:?} advanced the clock by {advance_ms}ms, expected {expect}ms",
                        if *parallel { "parallel" } else { "sequential" },
                        costs
                    ),
                ));
            }
            advanced += advance_ms;
        }
    }
    if let Some(end) = span.iter().rev().find_map(|e| match &e.kind {
        EventKind::QueryEnd { sim_time_ms, .. } => Some((e, *sim_time_ms)),
        _ => None,
    }) {
        let (end_event, sim_time_ms) = end;
        if (advanced - sim_time_ms).abs() > EPS {
            out.push(violation(
                "clock",
                Some(end_event.seq),
                format!("batch advances sum to {advanced}ms but query_end reports {sim_time_ms}ms"),
            ));
        }
        let elapsed = end_event.sim_ms - span[0].sim_ms;
        if (elapsed - sim_time_ms).abs() > EPS {
            out.push(violation(
                "clock",
                Some(end_event.seq),
                format!("span clock moved {elapsed}ms but query_end reports {sim_time_ms}ms"),
            ));
        }
    }

    // -- hedging: at most one hedge leg per logical call, each hedged
    //    call resolves to exactly one invocation (one outcome per call),
    //    and Σ hedge legs never exceeds the span's real invocations
    let mut hedged: BTreeMap<u64, u64> = BTreeMap::new(); // call -> hedge seq
    let mut real_invocations = 0usize;
    let mut outcomes: BTreeMap<u64, usize> = BTreeMap::new(); // call -> invocation count
    for e in span {
        match &e.kind {
            EventKind::Hedge { call, service, .. } if hedged.insert(*call, e.seq).is_some() => {
                out.push(violation(
                    "hedge",
                    Some(e.seq),
                    format!("call #{call} ({service}) hedged more than once"),
                ));
            }
            EventKind::Invocation { call, cached, .. } => {
                if !cached {
                    real_invocations += 1;
                }
                *outcomes.entry(*call).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    for (call, hedge_seq) in &hedged {
        let n = outcomes.get(call).copied().unwrap_or(0);
        if n != 1 {
            out.push(violation(
                "hedge",
                Some(*hedge_seq),
                format!(
                    "hedged call #{call} resolved to {n} invocation outcomes, expected exactly 1"
                ),
            ));
        }
    }
    if hedged.len() > real_invocations {
        out.push(violation(
            "hedge",
            None,
            format!(
                "{} hedge legs fired but the span only resolved {real_invocations} real invocations",
                hedged.len()
            ),
        ));
    }

    // -- shedding: a shed call was never dispatched, so it must have no
    //    invocation outcome anywhere in the span
    for e in span {
        if let EventKind::Shed { call, service, .. } = &e.kind {
            if outcomes.contains_key(call) {
                out.push(violation(
                    "shed",
                    Some(e.seq),
                    format!("call #{call} ({service}) was shed yet has an invocation outcome"),
                ));
            }
        }
    }

    // -- deadline: once the deadline event fires, no later real
    //    invocation starts in this span (zero-cost cache hits are fine)
    let mut deadline_seq: Option<u64> = None;
    for e in span {
        match &e.kind {
            EventKind::DeadlineExceeded { .. } => deadline_seq = Some(e.seq),
            EventKind::Invocation {
                call,
                cached: false,
                ..
            } => {
                if let Some(d) = deadline_seq {
                    out.push(violation(
                        "deadline",
                        Some(e.seq),
                        format!("call #{call} invoked after the deadline expired at seq {d}"),
                    ));
                }
            }
            _ => {}
        }
    }

    // -- query_end consistency with the span's own degradation events
    if let Some((end_event, complete)) = span.iter().rev().find_map(|e| match &e.kind {
        EventKind::QueryEnd { complete, .. } => Some((e, *complete)),
        _ => None,
    }) {
        let degraded = span.iter().any(Event::is_degradation);
        if complete == degraded {
            out.push(violation(
                "completeness",
                Some(end_event.seq),
                format!(
                    "query_end says complete={complete} but the span {} degradation events",
                    if degraded { "contains" } else { "has no" }
                ),
            ));
        }
    }
}

/// Structural checks on the subscription stream: every delta names a
/// subscription that was started earlier, no subscription starts twice,
/// delta versions per subscription strictly increase, and each
/// subscription's simulated clock never moves backwards.
fn check_subscriptions(events: &[Event], out: &mut Vec<Violation>) {
    let mut started: BTreeSet<&str> = BTreeSet::new();
    let mut last_version: BTreeMap<&str, u64> = BTreeMap::new();
    let mut last_sim: BTreeMap<&str, f64> = BTreeMap::new();
    for e in events {
        match &e.kind {
            EventKind::SubscriptionStart { subscription, .. } => {
                if !started.insert(subscription.as_str()) {
                    out.push(violation(
                        "subscription",
                        Some(e.seq),
                        format!("subscription {subscription} started more than once"),
                    ));
                }
                last_sim.insert(subscription.as_str(), e.sim_ms);
            }
            EventKind::SubscriptionDelta {
                subscription,
                version,
                ..
            } => {
                if !started.contains(subscription.as_str()) {
                    out.push(violation(
                        "subscription",
                        Some(e.seq),
                        format!("delta for {subscription} before its subscription_start"),
                    ));
                }
                if let Some(prev) = last_version.get(subscription.as_str()) {
                    if version <= prev {
                        out.push(violation(
                            "subscription",
                            Some(e.seq),
                            format!(
                                "{subscription} delta versions not strictly increasing \
                                 ({prev} -> {version})"
                            ),
                        ));
                    }
                }
                last_version.insert(subscription.as_str(), *version);
                if let Some(prev) = last_sim.get(subscription.as_str()) {
                    if e.sim_ms < prev - EPS {
                        out.push(violation(
                            "subscription",
                            Some(e.seq),
                            format!(
                                "{subscription} clock moved backwards ({prev} -> {})",
                                e.sim_ms
                            ),
                        ));
                    }
                }
                last_sim.insert(subscription.as_str(), e.sim_ms);
            }
            _ => {}
        }
    }
}

/// Runs every structural check (laziness, layer order, ordering, clock
/// charging, per-span completeness) over a stream that may hold several
/// query spans, plus the subscription-stream checks over any interleaved
/// subscription events. Returns all violations found (empty = clean).
pub fn check_trace(events: &[Event]) -> Vec<Violation> {
    let mut out = Vec::new();
    let (subs, rest): (Vec<Event>, Vec<Event>) =
        events.iter().cloned().partition(is_subscription_event);
    let (plans, rest): (Vec<Event>, Vec<Event>) = rest.into_iter().partition(is_plan_cache_event);
    let (wal, engine): (Vec<Event>, Vec<Event>) = rest.into_iter().partition(is_durability_event);
    for span in spans(&engine) {
        check_span(span, &mut out);
    }
    check_subscriptions(&subs, &mut out);
    check_plan_cache_stream(&plans, &mut out);
    check_durability_stream(&wal, &mut out);
    out
}

/// Verifies the accounting identities between a stream and the engine's
/// aggregate counters. For multi-span streams pass stats aggregated over
/// the same runs the stream covers.
pub fn check_stats(events: &[Event], stats: &StatsView) -> Vec<Violation> {
    let mut out = Vec::new();

    let mut invoked = 0usize;
    let mut failed = 0usize;
    let mut cached = 0usize;
    let mut attempts = 0usize;
    let mut bytes = 0usize;
    let mut pushed = 0usize;
    let mut by_service: BTreeMap<String, usize> = BTreeMap::new();
    let mut breaker_skips = 0usize;
    let mut unknown = 0usize;
    let mut probes = (0usize, 0usize, 0usize); // hit, stale, miss
    let mut truncated = false;
    let mut deadline = false;
    let mut sheds = 0usize;
    let mut hedges = 0usize;
    let mut hedge_wins = 0usize;

    for e in events {
        match &e.kind {
            EventKind::Invocation {
                service,
                cached: c,
                ok,
                attempts: a,
                bytes: b,
                pushed: p,
                ..
            } => {
                if *c {
                    cached += 1;
                } else if *ok {
                    invoked += 1;
                    attempts += a;
                    bytes += b;
                    if *p {
                        pushed += 1;
                    }
                    *by_service.entry(service.clone()).or_insert(0) += 1;
                } else {
                    failed += 1;
                    attempts += a;
                }
            }
            EventKind::BreakerSkip { .. } => breaker_skips += 1,
            EventKind::UnknownService { .. } => unknown += 1,
            EventKind::CacheProbe { outcome, .. } => match outcome {
                CacheOutcome::Hit => probes.0 += 1,
                CacheOutcome::Stale => probes.1 += 1,
                CacheOutcome::Miss => probes.2 += 1,
            },
            EventKind::Truncated { .. } => truncated = true,
            EventKind::DeadlineExceeded { .. } => {
                // deadline expiry is a truncation with a distinct cause
                truncated = true;
                deadline = true;
            }
            EventKind::Shed { .. } => sheds += 1,
            EventKind::Hedge { hedge_won, .. } => {
                hedges += 1;
                if *hedge_won {
                    hedge_wins += 1;
                }
            }
            _ => {}
        }
    }

    let mut expect = |name: &'static str, got: usize, want: usize| {
        if got != want {
            out.push(violation(
                "accounting",
                None,
                format!("trace derives {name}={got} but stats report {want}"),
            ));
        }
    };
    expect("calls_invoked", invoked, stats.calls_invoked);
    expect("failed_calls", failed, stats.failed_calls);
    expect("cache_hits", cached, stats.cache_hits);
    expect("cache_hits(probe)", probes.0, stats.cache_hits);
    expect("cache_stale", probes.1, stats.cache_stale);
    expect("cache_misses", probes.2, stats.cache_misses);
    expect("call_attempts", attempts, stats.call_attempts);
    expect("bytes_transferred", bytes, stats.bytes_transferred);
    expect("pushed_calls", pushed, stats.pushed_calls);
    expect("breaker_skips", breaker_skips, stats.breaker_skips);
    expect("skipped_unknown", unknown, stats.skipped_unknown);
    expect("shed_skips", sheds, stats.shed_skips);
    expect("hedged_calls", hedges, stats.hedged_calls);
    expect("hedge_wins", hedge_wins, stats.hedge_wins);

    if deadline != stats.deadline_exceeded {
        out.push(violation(
            "accounting",
            None,
            format!(
                "trace {} deadline events but stats say deadline_exceeded={}",
                if deadline { "contains" } else { "has no" },
                stats.deadline_exceeded
            ),
        ));
    }
    if truncated != stats.truncated {
        out.push(violation(
            "accounting",
            None,
            format!(
                "trace {} truncation events but stats say truncated={}",
                if truncated { "contains" } else { "has no" },
                stats.truncated
            ),
        ));
    }
    if by_service != stats.invoked_by_service {
        out.push(violation(
            "accounting",
            None,
            format!(
                "per-service invocations differ: trace {by_service:?} vs stats {:?}",
                stats.invoked_by_service
            ),
        ));
    }
    if !stats.cache_shards.is_empty() {
        let (shard_hits, shard_misses, shard_stale) = stats
            .cache_shards
            .iter()
            .fold((0usize, 0usize, 0usize), |acc, (h, m, s)| {
                (acc.0 + h, acc.1 + m, acc.2 + s)
            });
        let shard_sums = [
            ("cache_hits", shard_hits, stats.cache_hits),
            ("cache_misses", shard_misses, stats.cache_misses),
            ("cache_stale", shard_stale, stats.cache_stale),
        ];
        for (name, got, want) in shard_sums {
            if got != want {
                out.push(violation(
                    "accounting",
                    None,
                    format!(
                        "per-shard cache counters sum to {name}={got} across {} shard(s) \
                         but stats report {want}",
                        stats.cache_shards.len()
                    ),
                ));
            }
        }
    }
    let per_service_total: usize = stats.invoked_by_service.values().sum();
    if per_service_total != stats.calls_invoked {
        out.push(violation(
            "accounting",
            None,
            format!(
                "Σ invoked_by_service = {per_service_total} ≠ calls_invoked = {}",
                stats.calls_invoked
            ),
        ));
    }
    if stats.call_attempts < stats.calls_invoked + stats.failed_calls {
        out.push(violation(
            "accounting",
            None,
            format!(
                "call_attempts = {} < calls_invoked + failed_calls = {}",
                stats.call_attempts,
                stats.calls_invoked + stats.failed_calls
            ),
        ));
    }
    let degraded = events.iter().any(Event::is_degradation);
    if stats.complete == degraded {
        out.push(violation(
            "completeness",
            None,
            format!(
                "stats report complete={} but the trace {} degradation events",
                stats.complete,
                if degraded { "contains" } else { "has no" }
            ),
        ));
    }
    let span_sim: f64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::QueryEnd { sim_time_ms, .. } => Some(*sim_time_ms),
            _ => None,
        })
        .sum();
    if (span_sim - stats.sim_time_ms).abs() > EPS {
        out.push(violation(
            "accounting",
            None,
            format!(
                "query_end spans sum to {span_sim}ms but stats report {}ms",
                stats.sim_time_ms
            ),
        ));
    }
    out
}

/// Runs [`check_trace`] and, when stats are supplied, [`check_stats`].
pub fn check_all(events: &[Event], stats: Option<&StatsView>) -> Vec<Violation> {
    let mut out = check_trace(events);
    if let Some(s) = stats {
        out.extend(check_stats(events, s));
    }
    out
}

/// Panics with a readable report if any check fails — the test-harness
/// entry point.
pub fn assert_clean(events: &[Event], stats: Option<&StatsView>) {
    let violations = check_all(events, stats);
    if !violations.is_empty() {
        let mut msg = format!("trace oracle found {} violation(s):\n", violations.len());
        for v in &violations {
            msg.push_str(&format!("  {v}\n"));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ShedReason;

    fn ev(seq: u64, sim_ms: f64, layer: usize, kind: EventKind) -> Event {
        Event {
            seq,
            sim_ms,
            round: 1,
            layer,
            cpu_ms: None,
            kind,
        }
    }

    fn clean_span() -> Vec<Event> {
        vec![
            ev(
                0,
                0.0,
                0,
                EventKind::QueryStart {
                    strategy: "nfq".into(),
                    query: "q".into(),
                },
            ),
            ev(
                1,
                0.0,
                0,
                EventKind::LayerStart {
                    nfqs: 1,
                    independent: true,
                },
            ),
            ev(
                2,
                0.0,
                0,
                EventKind::Candidates {
                    calls: vec![7],
                    services: vec!["s".into()],
                },
            ),
            ev(
                3,
                5.0,
                0,
                EventKind::Invocation {
                    service: "s".into(),
                    call: 7,
                    path: "a/b".into(),
                    pushed: false,
                    cached: false,
                    ok: true,
                    attempts: 1,
                    cost_ms: 5.0,
                    bytes: 10,
                },
            ),
            ev(
                4,
                5.0,
                0,
                EventKind::Batch {
                    parallel: true,
                    costs: vec![5.0],
                    advance_ms: 5.0,
                },
            ),
            ev(5, 5.0, 0, EventKind::LayerEnd),
            ev(
                6,
                5.0,
                0,
                EventKind::QueryEnd {
                    complete: true,
                    calls_invoked: 1,
                    sim_time_ms: 5.0,
                },
            ),
        ]
    }

    fn clean_stats() -> StatsView {
        let mut invoked_by_service = BTreeMap::new();
        invoked_by_service.insert("s".to_string(), 1);
        StatsView {
            calls_invoked: 1,
            call_attempts: 1,
            bytes_transferred: 10,
            sim_time_ms: 5.0,
            complete: true,
            invoked_by_service,
            ..StatsView::default()
        }
    }

    #[test]
    fn clean_trace_passes() {
        assert_clean(&clean_span(), Some(&clean_stats()));
    }

    fn probe(seq: u64, key: &str, hit: bool) -> Event {
        ev(
            seq,
            0.0,
            0,
            EventKind::PlanCacheProbe {
                query: "q".into(),
                key: key.into(),
                hit,
            },
        )
    }

    #[test]
    fn plan_cache_stream_does_not_disturb_spans() {
        // Plan-cache probes interleaved with a clean engine span must be
        // partitioned out, not break the span checks.
        let mut events = vec![probe(0, "k1", false)];
        events.extend(clean_span());
        events.push(probe(99, "k1", true));
        let vs = check_trace(&events);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn plan_cache_hit_before_miss_flagged() {
        let events = vec![probe(0, "k1", true)];
        let vs = check_trace(&events);
        assert!(vs.iter().any(|v| v.check == "plan-cache"), "{vs:?}");
    }

    #[test]
    fn plan_cache_key_collision_flagged() {
        let mut events = vec![probe(0, "k1", false)];
        events.push(ev(
            1,
            0.0,
            0,
            EventKind::PlanCacheProbe {
                query: "other".into(),
                key: "k1".into(),
                hit: true,
            },
        ));
        let vs = check_trace(&events);
        assert!(vs.iter().any(|v| v.check == "plan-cache"), "{vs:?}");
    }

    #[test]
    fn plan_cache_accounting_matches_counters() {
        let events = vec![
            probe(0, "k1", false),
            probe(1, "k1", true),
            probe(2, "k2", false),
        ];
        assert!(check_plan_cache(&events, 1, 2).is_empty());
        let vs = check_plan_cache(&events, 2, 2);
        assert!(
            vs.iter().any(|v| v.check == "plan-cache-accounting"),
            "{vs:?}"
        );
        let vs = check_plan_cache(&events, 1, 1);
        assert!(
            vs.iter().any(|v| v.check == "plan-cache-accounting"),
            "{vs:?}"
        );
    }

    #[test]
    fn unannounced_invocation_violates_laziness() {
        let mut span = clean_span();
        if let EventKind::Candidates { calls, services } = &mut span[2].kind {
            calls.clear();
            services.clear();
        }
        let vs = check_trace(&span);
        assert!(vs.iter().any(|v| v.check == "laziness"), "{vs:?}");
    }

    #[test]
    fn out_of_order_layer_flagged() {
        let mut span = clean_span();
        span[1].layer = 2;
        if let EventKind::LayerStart { .. } = span[1].kind {}
        // open layer 2, then append a layer 1 start after the end
        span.insert(
            6,
            ev(
                51,
                5.0,
                1,
                EventKind::LayerStart {
                    nfqs: 1,
                    independent: false,
                },
            ),
        );
        span.insert(7, ev(52, 5.0, 1, EventKind::LayerEnd));
        // fix seqs to stay increasing
        for (i, e) in span.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        // inner events now sit under "layer 2" while carrying layer 0 —
        // and layer 1 opens after layer 2
        let vs = check_trace(&span);
        assert!(vs.iter().any(|v| v.check == "layer-order"), "{vs:?}");
    }

    #[test]
    fn wrong_batch_charge_flagged() {
        let mut span = clean_span();
        if let EventKind::Batch { costs, .. } = &mut span[4].kind {
            costs.push(3.0); // parallel max stays 5.0, so still consistent
            costs.push(9.0); // now max is 9.0 but advance says 5.0
        }
        let vs = check_trace(&span);
        assert!(vs.iter().any(|v| v.check == "clock"), "{vs:?}");
    }

    #[test]
    fn stats_mismatch_flagged() {
        let mut stats = clean_stats();
        stats.calls_invoked = 2;
        stats.invoked_by_service.insert("s".to_string(), 2);
        let vs = check_stats(&clean_span(), &stats);
        assert!(vs.iter().any(|v| v.check == "accounting"), "{vs:?}");
    }

    #[test]
    fn incomplete_claim_with_clean_trace_flagged() {
        let mut stats = clean_stats();
        stats.complete = false;
        let vs = check_stats(&clean_span(), &stats);
        assert!(vs.iter().any(|v| v.check == "completeness"), "{vs:?}");
    }

    #[test]
    fn matching_shard_sums_pass() {
        // empty = "not captured": never checked
        assert_clean(&clean_span(), Some(&clean_stats()));
        // captured shards whose components sum to the totals are clean
        let mut stats = clean_stats();
        stats.cache_shards = vec![(0, 0, 0), (0, 0, 0)];
        assert_clean(&clean_span(), Some(&stats));
    }

    #[test]
    fn shard_sum_mismatch_flagged() {
        let mut stats = clean_stats();
        // totals say zero hits, but a shard claims one
        stats.cache_shards = vec![(1, 0, 0), (0, 0, 0)];
        let vs = check_stats(&clean_span(), &stats);
        assert!(
            vs.iter()
                .any(|v| v.check == "accounting" && v.message.contains("per-shard")),
            "{vs:?}"
        );
    }

    #[test]
    fn clean_hedged_span_passes() {
        let mut span = clean_span();
        span.insert(
            3,
            ev(
                30,
                0.0,
                0,
                EventKind::Hedge {
                    service: "s".into(),
                    call: 7,
                    fired_at_ms: 2.0,
                    primary_cost_ms: 9.0,
                    hedge_cost_ms: 3.0,
                    hedge_won: true,
                },
            ),
        );
        for (i, e) in span.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        let mut stats = clean_stats();
        stats.hedged_calls = 1;
        stats.hedge_wins = 1;
        assert_clean(&span, Some(&stats));
    }

    #[test]
    fn double_hedge_flagged() {
        let mut span = clean_span();
        let hedge = |seq| {
            ev(
                seq,
                0.0,
                0,
                EventKind::Hedge {
                    service: "s".into(),
                    call: 7,
                    fired_at_ms: 2.0,
                    primary_cost_ms: 9.0,
                    hedge_cost_ms: 3.0,
                    hedge_won: false,
                },
            )
        };
        span.insert(3, hedge(0));
        span.insert(4, hedge(0));
        for (i, e) in span.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        let vs = check_trace(&span);
        assert!(vs.iter().any(|v| v.check == "hedge"), "{vs:?}");
    }

    #[test]
    fn shed_call_with_an_outcome_flagged() {
        let mut span = clean_span();
        // call 7 is invoked by the clean span, so shedding it contradicts
        span.insert(
            3,
            ev(
                0,
                0.0,
                0,
                EventKind::Shed {
                    service: "s".into(),
                    call: 7,
                    reason: ShedReason::Inflight,
                },
            ),
        );
        for (i, e) in span.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        let vs = check_trace(&span);
        assert!(vs.iter().any(|v| v.check == "shed"), "{vs:?}");
    }

    #[test]
    fn invocation_after_deadline_flagged() {
        let mut span = clean_span();
        // the deadline fires before the invocation at index 3
        span.insert(3, ev(0, 0.0, 0, EventKind::DeadlineExceeded { pending: 1 }));
        for (i, e) in span.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        let vs = check_trace(&span);
        assert!(vs.iter().any(|v| v.check == "deadline"), "{vs:?}");
    }

    #[test]
    fn deadline_stats_must_match_the_trace() {
        let span = clean_span();
        let mut stats = clean_stats();
        stats.deadline_exceeded = true;
        stats.truncated = true;
        let vs = check_stats(&span, &stats);
        assert!(vs.iter().any(|v| v.check == "accounting"), "{vs:?}");
    }

    fn sub_start(seq: u64, sim_ms: f64, name: &str) -> Event {
        ev(
            seq,
            sim_ms,
            0,
            EventKind::SubscriptionStart {
                subscription: name.into(),
                query: "q".into(),
                initial: 3,
            },
        )
    }

    fn sub_delta(seq: u64, sim_ms: f64, name: &str, version: u64) -> Event {
        ev(
            seq,
            sim_ms,
            0,
            EventKind::SubscriptionDelta {
                subscription: name.into(),
                version,
                added: 1,
                removed: 0,
                changed: 0,
                full_reeval: false,
            },
        )
    }

    #[test]
    fn subscription_events_interleave_with_query_spans_cleanly() {
        // a subscription's start and deltas sit between (and inside)
        // engine query spans without breaking any span check
        let mut stream = vec![sub_start(100, 0.0, "watch")];
        stream.extend(clean_span());
        stream.push(sub_delta(101, 5.0, "watch", 1));
        let mut second = clean_span();
        for e in &mut second {
            e.seq += 10;
            e.sim_ms += 5.0;
        }
        stream.extend(second);
        stream.push(sub_delta(102, 10.0, "watch", 2));
        assert!(
            check_trace(&stream).is_empty(),
            "{:?}",
            check_trace(&stream)
        );
    }

    #[test]
    fn delta_before_start_flagged() {
        let stream = vec![sub_delta(0, 0.0, "watch", 1)];
        let vs = check_trace(&stream);
        assert!(vs.iter().any(|v| v.check == "subscription"), "{vs:?}");
    }

    #[test]
    fn non_increasing_delta_versions_flagged() {
        let stream = vec![
            sub_start(0, 0.0, "watch"),
            sub_delta(1, 1.0, "watch", 2),
            sub_delta(2, 2.0, "watch", 2),
        ];
        let vs = check_trace(&stream);
        assert!(
            vs.iter()
                .any(|v| v.check == "subscription" && v.message.contains("strictly increasing")),
            "{vs:?}"
        );
    }

    #[test]
    fn subscription_clock_regression_flagged() {
        let stream = vec![
            sub_start(0, 5.0, "watch"),
            sub_delta(1, 1.0, "watch", 1), // clock went backwards
        ];
        let vs = check_trace(&stream);
        assert!(
            vs.iter()
                .any(|v| v.check == "subscription" && v.message.contains("backwards")),
            "{vs:?}"
        );
    }

    #[test]
    fn independent_subscriptions_tracked_separately() {
        // versions only need to increase within one subscription
        let stream = vec![
            sub_start(0, 0.0, "a"),
            sub_start(1, 0.0, "b"),
            sub_delta(2, 1.0, "a", 5),
            sub_delta(3, 1.0, "b", 1),
            sub_delta(4, 2.0, "a", 6),
        ];
        assert!(check_trace(&stream).is_empty());
    }

    #[test]
    fn multi_span_streams_checked_per_span() {
        let mut two = clean_span();
        let mut second = clean_span();
        for e in &mut second {
            e.sim_ms += 5.0; // session clock keeps running
        }
        two.extend(second);
        assert!(check_trace(&two).is_empty());
    }
}
