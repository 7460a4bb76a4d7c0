//! The subscription engine: standing queries over one stored document,
//! maintained as service results stream in.
//!
//! Two halves, usable together (feed mode) or separately:
//!
//! * **refresh** — the producer. Re-evaluates every standing query
//!   against the engine's *base* document (the original, calls intact)
//!   through the store's shared [`CallCache`]: calls whose TTL validity
//!   window still covers the simulated clock are zero-cost hits, lapsed
//!   ones are really re-invoked and may answer differently. When any
//!   real re-invocation happened, the spliced working copy is published
//!   as the document's next version, *tagged* with the label paths the
//!   re-invocations spliced at — the change scope downstream consumers
//!   filter on.
//!
//! * **reconcile** — the consumer. Each subscription holds a watermark
//!   (the last document version it delivered) and catches up via
//!   [`VersionedDocument::publications_since`]. A publication whose
//!   tagged splice paths cannot affect the query (its [`QueryScope`])
//!   is skipped without evaluation; otherwise the published version is
//!   evaluated and the answer difference is emitted as a [`Delta`].
//!   When the publication history has evicted the records a subscriber
//!   needs — or a publication carries no change tags — reconciliation
//!   degrades *soundly* to a full re-evaluation, never to a stale
//!   answer (mirroring the engine's `splice_floor` semantics).
//!
//! [`SubscriptionEngine::run_until`] drives both on a schedule derived
//! from the cache's TTL horizon ([`CallCache::earliest_expiry`]): the
//! clock jumps to the next validity lapse, refreshes, reconciles, and
//! repeats — so refresh work happens exactly when some cached answer
//! may have gone stale, not on a blind polling loop.

use crate::delta::{Delta, DeltaSink};
use axml_core::{EngineConfig, EngineStats, QueryScope};
use axml_obs::{Event, EventKind, RingSink, TraceSink};
use axml_query::{render, render_result, Pattern};
use axml_schema::Schema;
use axml_services::Registry;
use axml_store::{CallCache, DocumentStore, DurabilityManager, PlanCache};
use axml_xml::{CatchUp, Document, VersionedDocument};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How a [`SubscriptionEngine`] refreshes and delivers.
#[derive(Clone, Debug)]
pub struct SubscriptionOptions {
    /// Engine configuration used for every evaluation (initial answers,
    /// refreshes and reconciliations).
    pub engine: EngineConfig,
    /// Publication-history ring capacity enabled on the watched document
    /// (see [`VersionedDocument::enable_history`]). Subscribers that fall
    /// more than this many publications behind degrade to a full
    /// re-evaluation.
    pub history_capacity: usize,
    /// Idle tick of [`SubscriptionEngine::run_until`], in simulated ms:
    /// how far the clock advances when no cached entry is due to lapse.
    pub watch_ms: f64,
    /// Guardrail: total real re-invocations each subscription's refresh
    /// work may perform over the engine's lifetime. Exhausted
    /// subscriptions stop driving refreshes (deltas published by other
    /// subscriptions' refreshes are still delivered).
    pub max_refires: usize,
    /// Guardrail: real invocations one refresh evaluation may perform
    /// (bounds recursive call chains per refresh; the engine's own
    /// `max_invocations` still applies on top).
    pub refresh_depth: usize,
}

impl Default for SubscriptionOptions {
    fn default() -> Self {
        SubscriptionOptions {
            engine: EngineConfig::default(),
            history_capacity: 64,
            watch_ms: 100.0,
            max_refires: usize::MAX,
            refresh_depth: usize::MAX,
        }
    }
}

/// Aggregate counters of one [`SubscriptionEngine`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SubscriptionEngineStats {
    /// Refresh passes run.
    pub refreshes: usize,
    /// Refresh passes that published a new document version.
    pub publications: usize,
    /// Real re-invocations performed by refresh work.
    pub refresh_invocations: usize,
    /// Deltas emitted across all subscriptions.
    pub deltas_emitted: usize,
    /// Published versions skipped without evaluation because their
    /// tagged splice paths were outside a subscription's scope.
    pub versions_skipped: usize,
    /// Reconciliations that evaluated a version because its change scope
    /// was unknown (untagged publication).
    pub full_reevals: usize,
    /// Catch-ups that degraded to a full re-evaluation because the
    /// publication history had evicted the needed records.
    pub degradations: usize,
    /// Answer rows added across all deltas.
    pub rows_added: usize,
    /// Answer rows removed across all deltas.
    pub rows_removed: usize,
    /// Real CPU spent in [`SubscriptionEngine::refresh`] (the producer
    /// side: pumping the feed and publishing versions), in ms.
    pub refresh_cpu_ms: f64,
    /// Real CPU spent in [`SubscriptionEngine::reconcile`] (the consumer
    /// side: scope-filtered catch-up evaluation and delta diffing), in
    /// ms. E16 compares this against full re-evaluation of every
    /// subscription at every version.
    pub reconcile_cpu_ms: f64,
}

/// One subscription's public state (see [`SubscriptionEngine::status`]).
#[derive(Clone, Debug)]
pub struct SubscriptionStatus {
    /// The subscription's name.
    pub name: String,
    /// The standing query, rendered.
    pub query: String,
    /// Last document version delivered.
    pub watermark: u64,
    /// Rows in the current answer.
    pub rows: usize,
    /// Deltas emitted so far.
    pub deltas_emitted: usize,
    /// Published versions skipped by the scope filter.
    pub versions_skipped: usize,
    /// Real re-invocations still allowed for this subscription's
    /// refresh work.
    pub refires_left: usize,
}

struct SubState {
    name: String,
    query: Pattern,
    query_text: String,
    scope: QueryScope,
    watermark: u64,
    answers: BTreeSet<Vec<String>>,
    refires_left: usize,
    deltas_emitted: usize,
    versions_skipped: usize,
}

/// Standing queries over one versioned document, with delta delivery.
pub struct SubscriptionEngine<'a> {
    doc: Arc<VersionedDocument>,
    base: Document,
    registry: &'a Registry,
    schema: Option<&'a Schema>,
    cache: Arc<CallCache>,
    plans: Option<Arc<PlanCache>>,
    durability: Option<(Arc<DurabilityManager>, String)>,
    options: SubscriptionOptions,
    subs: Vec<SubState>,
    sinks: Vec<Box<dyn DeltaSink + 'a>>,
    observer: Option<&'a dyn TraceSink>,
    clock_ms: f64,
    event_seq: u64,
    pending_lapse: Option<f64>,
    stats: SubscriptionEngineStats,
}

impl<'a> SubscriptionEngine<'a> {
    /// An engine over the document stored under `name`, sharing the
    /// store's call cache; enables publication history on the document
    /// (capacity from the options). `None` when the store has no such
    /// document.
    pub fn over_store(
        store: &DocumentStore,
        name: &str,
        registry: &'a Registry,
        schema: Option<&'a Schema>,
        options: SubscriptionOptions,
    ) -> Option<Self> {
        let doc = Arc::clone(store.versioned(name)?);
        let cache = Arc::clone(store.cache());
        let plans = Arc::clone(store.plans());
        let mut engine =
            SubscriptionEngine::new(doc, registry, schema, cache, options).with_plans(plans);
        if let Some(manager) = store.durability() {
            engine = engine.with_durability(Arc::clone(manager), name);
        }
        Some(engine)
    }

    /// An engine over `doc` directly. Enables publication history on the
    /// document (capacity from the options).
    pub fn new(
        doc: Arc<VersionedDocument>,
        registry: &'a Registry,
        schema: Option<&'a Schema>,
        cache: Arc<CallCache>,
        options: SubscriptionOptions,
    ) -> Self {
        assert!(options.watch_ms > 0.0, "watch_ms must be positive");
        doc.enable_history(options.history_capacity);
        let base = doc.snapshot().to_document();
        SubscriptionEngine {
            doc,
            base,
            registry,
            schema,
            cache,
            plans: None,
            durability: None,
            options,
            subs: Vec::new(),
            sinks: Vec::new(),
            observer: None,
            clock_ms: 0.0,
            event_seq: 0,
            pending_lapse: None,
            stats: SubscriptionEngineStats::default(),
        }
    }

    /// Attaches the shared compiled-plan cache: every refresh and
    /// reconcile evaluation fetches its [`axml_core::CompiledQuery`]
    /// from it instead of the engine compiling one per evaluation.
    /// [`over_store`] wires this automatically. Answers, deltas, traces
    /// and stats are byte-identical either way.
    ///
    /// [`over_store`]: SubscriptionEngine::over_store
    pub fn with_plans(mut self, plans: Arc<PlanCache>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Attaches the store's durability manager: every watermark advance
    /// is appended to `doc_name`'s write-ahead log as a `watermark`
    /// record, so a recovered store can re-anchor subscriptions (see
    /// [`SubscriptionEngine::subscribe_from`]). [`over_store`] wires
    /// this automatically when the store is durable.
    ///
    /// [`over_store`]: SubscriptionEngine::over_store
    pub fn with_durability(
        mut self,
        manager: Arc<DurabilityManager>,
        doc_name: impl Into<String>,
    ) -> Self {
        self.durability = Some((manager, doc_name.into()));
        self
    }

    /// Attaches a structured-trace observer: refresh evaluations emit
    /// their query spans into it and the engine adds
    /// `subscription_start` / `subscription_delta` events of its own.
    pub fn with_observer(mut self, observer: &'a dyn TraceSink) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Adds a delivery sink; every emitted delta reaches every sink, in
    /// registration order.
    pub fn add_sink(&mut self, sink: impl DeltaSink + 'a) {
        self.sinks.push(Box::new(sink));
    }

    /// The engine's simulated clock, in ms.
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Advances the simulated clock by `ms` without doing work — models
    /// idle time during which cached entries age toward their horizons.
    pub fn advance_clock(&mut self, ms: f64) {
        assert!(ms >= 0.0, "the simulated clock cannot run backwards");
        self.clock_ms += ms;
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &SubscriptionEngineStats {
        &self.stats
    }

    /// Public state of every subscription, in registration order.
    pub fn status(&self) -> Vec<SubscriptionStatus> {
        self.subs
            .iter()
            .map(|s| SubscriptionStatus {
                name: s.name.clone(),
                query: s.query_text.clone(),
                watermark: s.watermark,
                rows: s.answers.len(),
                deltas_emitted: s.deltas_emitted,
                versions_skipped: s.versions_skipped,
                refires_left: s.refires_left,
            })
            .collect()
    }

    /// The named subscription's current answer.
    pub fn answers(&self, name: &str) -> Option<&BTreeSet<Vec<String>>> {
        self.subs
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.answers)
    }

    /// Registers a standing query and computes its initial answer at the
    /// document's currently published version (through the shared cache,
    /// at the engine's clock). Returns the initial answer.
    ///
    /// Panics if a subscription with the same name already exists.
    pub fn subscribe(&mut self, name: impl Into<String>, query: Pattern) -> BTreeSet<Vec<String>> {
        let name = name.into();
        assert!(
            self.subs.iter().all(|s| s.name != name),
            "duplicate subscription name {name:?}"
        );
        let snapshot = self.doc.snapshot();
        let watermark = snapshot.version();
        let mut working = snapshot.to_document();
        let (answers, stats) = self.run_engine(&mut working, &query, self.options.engine.clone());
        self.clock_ms += stats.sim_time_ms;
        let query_text = render(&query);
        let scope = QueryScope::of(&query);
        self.emit(EventKind::SubscriptionStart {
            subscription: name.clone(),
            query: query_text.clone(),
            initial: answers.len(),
        });
        self.subs.push(SubState {
            name,
            query,
            query_text,
            scope,
            watermark,
            answers: answers.clone(),
            refires_left: self.options.max_refires,
            deltas_emitted: 0,
            versions_skipped: 0,
        });
        self.persist_watermark(self.subs.len() - 1);
        answers
    }

    /// Re-registers a standing query after crash recovery, anchored at
    /// the `watermark` persisted in the document's write-ahead log
    /// (see `DocumentStore::recovered_watermark`).
    ///
    /// When the watermark already matches the recovered version this is
    /// an exact resume (identical to [`subscribe`]). When it is older —
    /// the watermark record for later deliveries was lost with the
    /// unsynced tail — the subscription starts with no answer state at
    /// the stale watermark, and the next [`reconcile`] degrades soundly
    /// to a full re-evaluation (the recovered history floor sits at the
    /// recovered version, so catch-up can never silently skip the gap):
    /// the subscriber gets one `full_reeval` delta rebuilding its state
    /// rather than a stale answer.
    ///
    /// [`subscribe`]: SubscriptionEngine::subscribe
    /// [`reconcile`]: SubscriptionEngine::reconcile
    pub fn subscribe_from(
        &mut self,
        name: impl Into<String>,
        query: Pattern,
        watermark: u64,
    ) -> BTreeSet<Vec<String>> {
        let name = name.into();
        if watermark >= self.doc.version() {
            return self.subscribe(name, query);
        }
        assert!(
            self.subs.iter().all(|s| s.name != name),
            "duplicate subscription name {name:?}"
        );
        let query_text = render(&query);
        let scope = QueryScope::of(&query);
        self.emit(EventKind::SubscriptionStart {
            subscription: name.clone(),
            query: query_text.clone(),
            initial: 0,
        });
        self.subs.push(SubState {
            name,
            query,
            query_text,
            scope,
            watermark,
            answers: BTreeSet::new(),
            refires_left: self.options.max_refires,
            deltas_emitted: 0,
            versions_skipped: 0,
        });
        BTreeSet::new()
    }

    fn persist_watermark(&self, sub_idx: usize) {
        if let Some((manager, doc)) = &self.durability {
            manager.record_watermark(doc, &self.subs[sub_idx].name, self.subs[sub_idx].watermark);
        }
    }

    /// One refresh pass: re-evaluates every (non-exhausted) standing
    /// query against the base document through the shared cache. When
    /// any call was really re-invoked (a TTL had lapsed), publishes the
    /// spliced working copy as the document's next version, tagged with
    /// the splice paths. Returns the published version, or `None` when
    /// everything was still cache-valid.
    ///
    /// If a guardrail (`refresh_depth`, `max_refires`, or the engine's
    /// own invocation budget) truncates an evaluation — or any refresh
    /// evaluation is otherwise *incomplete* (a failed call, an open
    /// circuit breaker refusing a refreshed service mid-round, an
    /// unknown service) — the whole round is abandoned: a partial
    /// materialization is never published, so the history only ever
    /// holds versions whose answers are complete. A *truncated*
    /// subscription is marked exhausted and skipped by later refreshes;
    /// a merely incomplete one (e.g. breaker open) keeps its refire
    /// budget and is retried on the next round, when the breaker may
    /// have half-opened. Either way the successful re-invocations stay
    /// warm in the cache, so the retry only re-pays the failed calls.
    ///
    /// Feed mode assumes this engine is the document's only publisher;
    /// a concurrent publication triggers a re-snapshot retry.
    pub fn refresh(&mut self) -> Option<u64> {
        let t0 = std::time::Instant::now();
        let out = self.refresh_inner();
        self.stats.refresh_cpu_ms += t0.elapsed().as_secs_f64() * 1000.0;
        out
    }

    fn refresh_inner(&mut self) -> Option<u64> {
        self.stats.refreshes += 1;
        let mut changed_paths: Vec<Vec<String>> = Vec::new();
        let mut real_invocations = 0usize;
        loop {
            let base_version = self.doc.version();
            let mut working = self.base.clone();
            let mut truncated = false;
            let mut incomplete = false;
            for i in 0..self.subs.len() {
                if self.subs[i].refires_left == 0 {
                    continue;
                }
                let mut config = self.options.engine.clone();
                config.max_invocations = config
                    .max_invocations
                    .min(self.options.refresh_depth)
                    .min(self.subs[i].refires_left);
                let query = self.subs[i].query.clone();
                let ring = RingSink::unbounded();
                let (_, stats) = self.run_engine_observed(&mut working, &query, config, &ring);
                self.clock_ms += stats.sim_time_ms;
                self.stats.refresh_invocations += stats.calls_invoked;
                for e in ring.events() {
                    if let EventKind::Invocation {
                        cached: false,
                        ok: true,
                        path,
                        ..
                    } = &e.kind
                    {
                        real_invocations += 1;
                        changed_paths.push(path.split('/').map(str::to_string).collect());
                    }
                }
                let sub = &mut self.subs[i];
                sub.refires_left = sub.refires_left.saturating_sub(stats.calls_invoked);
                if stats.truncated {
                    sub.refires_left = 0;
                    truncated = true;
                }
                if !stats.is_complete() {
                    incomplete = true;
                }
            }
            if truncated || incomplete || real_invocations == 0 {
                return None;
            }
            changed_paths.sort();
            changed_paths.dedup();
            // The working copy was re-materialized from the *base*
            // document, so its splice journal is relative to the base,
            // not to the predecessor version — a durable store must log
            // this publication as a full snapshot, not as splices.
            working.mark_journal_unknown();
            match self
                .doc
                .publish_if_tagged(base_version, working, Some(changed_paths.clone()))
            {
                Ok(version) => {
                    self.stats.publications += 1;
                    return Some(version);
                }
                Err(_) => continue,
            }
        }
    }

    /// One reconcile pass: catches every subscription up to the
    /// document's currently published version, emitting a [`Delta`] for
    /// each version that changed its answer. Versions whose tagged
    /// splice paths fall outside a subscription's scope are skipped
    /// without evaluation; untagged or history-evicted catch-ups
    /// degrade to a full re-evaluation.
    pub fn reconcile(&mut self) -> Vec<Delta> {
        let t0 = std::time::Instant::now();
        let out = self.reconcile_inner();
        self.stats.reconcile_cpu_ms += t0.elapsed().as_secs_f64() * 1000.0;
        out
    }

    fn reconcile_inner(&mut self) -> Vec<Delta> {
        let mut out = Vec::new();
        for i in 0..self.subs.len() {
            let watermark_before = self.subs[i].watermark;
            match self.doc.publications_since(self.subs[i].watermark) {
                CatchUp::Degraded(snapshot) => {
                    let version = snapshot.version();
                    if version == self.subs[i].watermark {
                        continue;
                    }
                    self.stats.degradations += 1;
                    let mut working = snapshot.to_document();
                    let query = self.subs[i].query.clone();
                    let (answers, stats) =
                        self.run_engine(&mut working, &query, self.options.engine.clone());
                    self.clock_ms += stats.sim_time_ms;
                    if let Some(d) = self.deliver(i, version, answers, true) {
                        out.push(d);
                    }
                    self.subs[i].watermark = version;
                }
                CatchUp::Records(records) => {
                    for record in records {
                        let relevant = match &record.changed_paths {
                            Some(paths) => self.subs[i].scope.may_affect_any(paths),
                            None => true,
                        };
                        let full = record.changed_paths.is_none();
                        if !relevant {
                            self.subs[i].versions_skipped += 1;
                            self.stats.versions_skipped += 1;
                            self.subs[i].watermark = record.version;
                            continue;
                        }
                        if full {
                            self.stats.full_reevals += 1;
                        }
                        let mut working = (*record.doc).clone();
                        let query = self.subs[i].query.clone();
                        let (answers, stats) =
                            self.run_engine(&mut working, &query, self.options.engine.clone());
                        self.clock_ms += stats.sim_time_ms;
                        if let Some(d) = self.deliver(i, record.version, answers, full) {
                            out.push(d);
                        }
                        self.subs[i].watermark = record.version;
                    }
                }
            }
            // One watermark record per sub per pass (not per version):
            // recovery only needs the final anchor, and losing it merely
            // degrades to a full re-evaluation.
            if self.subs[i].watermark != watermark_before {
                self.persist_watermark(i);
            }
        }
        out
    }

    /// Drives refresh + reconcile until the simulated clock reaches
    /// `t_end_ms`. The clock jumps to the next cache-validity lapse when
    /// one is due (so refresh work happens exactly when cached answers
    /// may have gone stale), or by `watch_ms` idle ticks otherwise.
    /// Returns every delta emitted, in order.
    pub fn run_until(&mut self, t_end_ms: f64) -> Vec<Delta> {
        let mut out = Vec::new();
        while self.clock_ms < t_end_ms {
            let lapse = self.cache.earliest_expiry().filter(|&e| e <= t_end_ms);
            let target = match lapse {
                Some(e) => e.max(self.clock_ms),
                None => self.clock_ms + self.options.watch_ms,
            };
            if target > t_end_ms {
                break;
            }
            self.clock_ms = self.clock_ms.max(target);
            self.pending_lapse = lapse;
            self.refresh();
            out.extend(self.reconcile());
            self.pending_lapse = None;
            // drop entries that lapsed but were not re-armed by any
            // subscription's refresh (e.g. other tenants' calls), so the
            // expiry horizon always moves forward
            self.cache.purge_expired(self.clock_ms);
        }
        out
    }

    fn deliver(
        &mut self,
        sub_idx: usize,
        version: u64,
        new_answers: BTreeSet<Vec<String>>,
        full_reeval: bool,
    ) -> Option<Delta> {
        let added: Vec<Vec<String>> = new_answers
            .difference(&self.subs[sub_idx].answers)
            .cloned()
            .collect();
        let removed: Vec<Vec<String>> = self.subs[sub_idx]
            .answers
            .difference(&new_answers)
            .cloned()
            .collect();
        self.subs[sub_idx].answers = new_answers;
        if added.is_empty() && removed.is_empty() {
            return None;
        }
        let delta = Delta {
            subscription: self.subs[sub_idx].name.clone(),
            version,
            sim_ms: self.clock_ms,
            changed: Delta::count_changed(&added, &removed),
            added,
            removed,
            full_reeval,
            latency_ms: self.pending_lapse.map(|l| self.clock_ms - l),
        };
        self.subs[sub_idx].deltas_emitted += 1;
        self.stats.deltas_emitted += 1;
        self.stats.rows_added += delta.added.len();
        self.stats.rows_removed += delta.removed.len();
        self.emit(EventKind::SubscriptionDelta {
            subscription: delta.subscription.clone(),
            version: delta.version,
            added: delta.added.len(),
            removed: delta.removed.len(),
            changed: delta.changed,
            full_reeval: delta.full_reeval,
        });
        for sink in &self.sinks {
            sink.deliver(&delta);
        }
        Some(delta)
    }

    fn run_engine(
        &self,
        working: &mut Document,
        query: &Pattern,
        config: EngineConfig,
    ) -> (BTreeSet<Vec<String>>, EngineStats) {
        let ring = RingSink::unbounded();
        self.run_engine_observed(working, query, config, &ring)
    }

    fn run_engine_observed(
        &self,
        working: &mut Document,
        query: &Pattern,
        config: EngineConfig,
        ring: &RingSink,
    ) -> (BTreeSet<Vec<String>>, EngineStats) {
        let plan = self
            .plans
            .as_ref()
            .map(|plans| plans.fetch(query, self.schema, &config));
        let mut engine = axml_core::Engine::new(self.registry, config)
            .with_cache(self.cache.as_ref())
            .starting_at(self.clock_ms)
            .with_observer(ring);
        if let Some(plan) = plan {
            engine = engine.with_plan(plan);
        }
        if let Some(schema) = self.schema {
            engine = engine.with_schema(schema);
        }
        let report = engine.evaluate(working, query);
        if let Some(observer) = self.observer {
            for e in ring.events() {
                observer.emit(&e);
            }
        }
        let answers: BTreeSet<Vec<String>> =
            render_result(working, &report.result).into_iter().collect();
        (answers, report.stats)
    }

    fn emit(&mut self, kind: EventKind) {
        if let Some(observer) = self.observer {
            self.event_seq += 1;
            observer.emit(&Event {
                seq: self.event_seq,
                sim_ms: self.clock_ms,
                round: 0,
                layer: 0,
                cpu_ms: None,
                kind,
            });
        }
    }
}
