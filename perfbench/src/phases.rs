//! The three phases every workload runs — the feed loop, the closed-loop
//! session mix and recovery — each untraced or traced, with every
//! output checked outside the timed regions.

use crate::alloc;
use crate::inputs::{self, Rng, Workload};
use crate::trace::{self, Ledger, ProbeSink, TimedCache, TimedDir};
use axml_core::{CompiledQuery, Engine, EngineConfig};
use axml_gen::feeds::Feed;
use axml_query::{construct_results, parse_query, render, render_result};
use axml_schema::Schema;
use axml_services::Registry;
use axml_store::{
    log_file_name, CacheConfig, CrashProfile, DocumentStore, DurabilityOptions, LogDir,
    PlanCacheConfig, SchedulerMode, SessionOptions, SessionSpec, SimDir,
};
use axml_sub::{replay, CallbackSink, Delta, SubscriptionEngine, SubscriptionOptions};
use axml_xml::{to_xml, CatchUp, Document, VersionedDocument};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The answer rows of one query, deduplicated and ordered.
pub type Answers = BTreeSet<Vec<String>>;

const FEED_DOC: &str = "feed";

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Operations attempted and failed, with the first few failures kept for
/// the diagnostic output.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

// ---------------------------------------------------------------- feed

/// One feed episode's document, durable store and services.
pub struct FeedRig {
    pub feed: Feed,
    pub store: DocumentStore,
    pub dir: SimDir,
}

impl FeedRig {
    /// The `price_feed` document on a durable in-memory store with
    /// `fsync always`, its call cache using the feed's validity windows.
    pub fn build(hotels: usize, traced: bool) -> FeedRig {
        let feed = inputs::feed(hotels);
        let mut config = CacheConfig::with_ttl_ms(f64::INFINITY);
        for (service, ttl) in &feed.ttls {
            config = config.ttl_for(service.clone(), *ttl);
        }
        let dir = SimDir::new(CrashProfile::default());
        let mut store = DocumentStore::durable_with_configs(
            log_dir(&dir, traced),
            DurabilityOptions::default(),
            config,
            PlanCacheConfig::default(),
        );
        store.insert(FEED_DOC, feed.doc.clone());
        FeedRig { feed, store, dir }
    }

    fn subscribe<'a>(
        &'a self,
        sink: CallbackSink<impl Fn(&Delta) + Send + Sync + 'a>,
    ) -> (SubscriptionEngine<'a>, Vec<Answers>) {
        let mut engine = SubscriptionEngine::over_store(
            &self.store,
            FEED_DOC,
            &self.feed.registry,
            None,
            SubscriptionOptions {
                history_capacity: 1 << 16,
                ..SubscriptionOptions::default()
            },
        )
        .expect("the feed document is stored");
        engine.add_sink(sink);
        let initials = self
            .feed
            .watchers
            .iter()
            .map(|(name, query)| engine.subscribe(name.clone(), query.clone()))
            .collect();
        (engine, initials)
    }

    /// What recovery must reproduce: the last acknowledged version,
    /// serialized.
    fn recovery_target(&self, tally: &mut Tally) -> RecoveryTarget {
        let snapshot = self
            .store
            .get(FEED_DOC)
            .expect("the feed document is stored");
        let acked = self
            .store
            .durability()
            .and_then(|m| m.acked_version(FEED_DOC));
        tally.check(acked == Some(snapshot.version()), || {
            format!("feed: acked {acked:?} but published {}", snapshot.version())
        });
        RecoveryTarget {
            dir: self.dir.clone(),
            docs: vec![(
                FEED_DOC.to_string(),
                snapshot.version(),
                to_xml(&snapshot.to_document()),
            )],
        }
    }
}

fn log_dir(dir: &SimDir, traced: bool) -> Box<dyn LogDir> {
    if traced {
        Box::new(TimedDir(dir.clone()))
    } else {
        Box::new(dir.clone())
    }
}

/// Set-up work of the feed phase: build the store and subscribe every
/// watcher (the engine is dropped; each episode subscribes its own).
pub fn feed_setup(hotels: usize) {
    let rig = FeedRig::build(hotels, false);
    let (engine, initials) = rig.subscribe(CallbackSink::new(|_: &Delta| {}));
    black_box((engine.stats().clone(), initials));
}

/// Totals of the feed loop over all episodes.
#[derive(Default)]
pub struct FeedTotals {
    pub episodes: u64,
    pub rounds: u64,
    pub versions: u64,
    pub loop_ns: f64,
    /// Versions published per second of loop time, one per episode.
    pub episode_rates: Vec<f64>,
    pub wal_bytes: u64,
    /// Wall ms from the start of the refresh that published a version to
    /// the delivery of each of its deltas.
    pub delta_ms: Vec<f64>,
    /// Subscription engine counters, summed over episodes.
    pub refresh_invocations: u64,
    pub sub_versions: u64,
    pub skipped: u64,
    pub full_reevals: u64,
    /// Durability-manager counters: publication/watermark records and
    /// checkpoints written.
    pub wal_records: u64,
    pub checkpoints: u64,
}

/// Runs one feed episode on `rig` — the refresh → reconcile →
/// `purge_expired` loop of `SubscriptionEngine::run_until`, driven
/// through the public calls up to `horizon_ms` of simulated time — then
/// checks every delta against a full re-evaluation at every version.
pub fn feed_episode(
    rig: &FeedRig,
    horizon_ms: f64,
    totals: &mut FeedTotals,
    mut ledger: Option<&mut Ledger>,
    tally: &mut Tally,
) {
    let delivered: Mutex<Vec<(u64, Instant)>> = Mutex::new(Vec::new());
    let (mut engine, initials) = rig.subscribe(CallbackSink::new(|d: &Delta| {
        let now = Instant::now();
        delivered
            .lock()
            .expect("delivery log")
            .push((d.version, now));
    }));
    let wal_name = log_file_name(FEED_DOC);
    let wal_before = rig.dir.persisted(&wal_name).len();
    let watch_ms = SubscriptionOptions::default().watch_ms;
    let cache = rig.store.cache();
    let mut started: HashMap<u64, Instant> = HashMap::new();
    let mut deltas: Vec<Delta> = Vec::new();
    let mut episode_ns = 0.0;
    trace::take();
    loop {
        let clock = engine.clock_ms();
        let lapse = cache.earliest_expiry().filter(|&e| e <= horizon_ms);
        let target = match lapse {
            Some(e) => e.max(clock),
            None => clock + watch_ms,
        };
        if clock >= horizon_ms || target > horizon_ms {
            break;
        }
        engine.advance_clock(target - clock);
        let t0 = Instant::now();
        let published = engine.refresh();
        let t1 = Instant::now();
        // WAL records are appended inside refresh (publications) and
        // reconcile (watermarks); the taps are empty unless traced
        let wal_refresh = trace::take();
        let out = engine.reconcile();
        let t2 = Instant::now();
        cache.purge_expired(engine.clock_ms());
        let t3 = Instant::now();
        if let Some(v) = published {
            started.insert(v, t0);
        }
        totals.rounds += 1;
        episode_ns += ns(t3 - t0);
        if let Some(l) = ledger.as_deref_mut() {
            let wal_reconcile = trace::take();
            l.feed_rounds += 1.0;
            l.round_ns += ns(t3 - t0);
            l.refresh_ns += ns(t1 - t0) - l.charge_wal(&wal_refresh) as f64;
            l.reconcile_ns += ns(t2 - t1) - l.charge_wal(&wal_reconcile) as f64;
            l.purge_ns += ns(t3 - t2);
        }
        deltas.extend(out);
    }
    let stats = engine.stats().clone();
    drop(engine);
    totals.episodes += 1;
    totals
        .episode_rates
        .push(stats.publications as f64 / (episode_ns / 1e9));
    totals.versions += stats.publications as u64;
    totals.loop_ns += episode_ns;
    totals.wal_bytes += (rig.dir.persisted(&wal_name).len() - wal_before) as u64;
    totals.refresh_invocations += stats.refresh_invocations as u64;
    totals.sub_versions += (stats.publications * rig.feed.watchers.len()) as u64;
    totals.skipped += stats.versions_skipped as u64;
    totals.full_reevals += (stats.full_reevals + stats.degradations) as u64;
    if let Some(manager) = rig.store.durability() {
        let d = manager.stats();
        totals.wal_records += d.appends as u64;
        totals.checkpoints += d.checkpoints as u64;
    }
    for (version, at) in delivered.into_inner().expect("delivery log") {
        match started.get(&version) {
            Some(t0) => totals.delta_ms.push((at - *t0).as_secs_f64() * 1e3),
            None => tally.check(false, || {
                format!("feed: delta for unpublished version {version}")
            }),
        }
    }
    check_deltas(rig, &initials, &deltas, tally);
}

/// The subscription oracle: at every published version, each watcher's
/// initial answer with its deltas replayed equals a fresh full
/// evaluation of that version.
fn check_deltas(rig: &FeedRig, initials: &[Answers], deltas: &[Delta], tally: &mut Tally) {
    let doc = rig
        .store
        .versioned(FEED_DOC)
        .expect("the feed document is stored");
    let records = match doc.publications_since(0) {
        CatchUp::Records(records) => records,
        CatchUp::Degraded(_) => {
            tally.check(false, || {
                "feed: publication history was evicted".to_string()
            });
            return;
        }
    };
    let mut replayed: Vec<Answers> = initials.to_vec();
    let mut next = vec![0usize; initials.len()];
    let mine: Vec<Vec<&Delta>> = rig
        .feed
        .watchers
        .iter()
        .map(|(name, _)| deltas.iter().filter(|d| &d.subscription == name).collect())
        .collect();
    for record in &records {
        let mut ok = true;
        for (w, (_, query)) in rig.feed.watchers.iter().enumerate() {
            let upto: Vec<Delta> = mine[w][next[w]..]
                .iter()
                .take_while(|d| d.version <= record.version)
                .map(|d| (*d).clone())
                .collect();
            next[w] += upto.len();
            replayed[w] = replay(&replayed[w], &upto);
            let mut working = (*record.doc).clone();
            let report = Engine::new(&rig.feed.registry, EngineConfig::default())
                .evaluate(&mut working, query);
            let full: Answers = render_result(&working, &report.result)
                .into_iter()
                .collect();
            ok &= report.complete && full == replayed[w];
        }
        tally.check(ok, || {
            format!(
                "feed: deltas diverge from full re-evaluation at version {}",
                record.version
            )
        });
    }
}

// ------------------------------------------------------------ sessions

/// One stored document of the session mix and the query texts its
/// sessions draw from.
pub struct Doc {
    pub name: String,
    /// The document as inserted, calls intact: reference answers are
    /// computed on private copies of it.
    pub original: Document,
    pub queries: Vec<String>,
}

/// The session mix: a store, its documents and how sessions use them.
pub struct ServeRig {
    pub workload: Workload,
    pub seed: u64,
    pub store: DocumentStore,
    pub registry: Registry,
    pub schema: Option<Schema>,
    pub docs: Vec<Doc>,
    /// Persistent sessions publish what they materialize; their
    /// documents are reset to `original` before every batch.
    pub persistent: bool,
    pub sessions_per_doc: usize,
    pub queries_per_session: usize,
    /// The durable directory of a persistent mix.
    pub dir: Option<SimDir>,
    reference: HashMap<(usize, usize), Option<Answers>>,
}

/// Hotels per document in `read-mix`: two documents of each size, so the
/// seed's draw of hotel ratings and names averages out.
pub const READ_SIZES: [usize; 8] = [50, 50, 100, 100, 200, 200, 400, 400];
/// Tenant documents, hotels per tenant and distinct queries per tenant in
/// `tenant-write`.
pub const TENANTS: usize = 8;
pub const TENANT_HOTELS: usize = 6;
pub const TENANT_POOL: usize = 24;

impl ServeRig {
    /// The session mix of `read-mix` or `tenant-write`, built and warmed.
    pub fn build(workload: Workload, seed: u64, traced: bool) -> ServeRig {
        ServeRig::build_with(workload, seed, traced, |_| {})
    }

    /// [`ServeRig::build`], with `adjust` applied to the registry before
    /// anything is invoked.
    pub fn build_with(
        workload: Workload,
        seed: u64,
        traced: bool,
        adjust: impl FnOnce(&mut Registry),
    ) -> ServeRig {
        let options = SessionOptions::default();
        match workload {
            Workload::ReadMix => {
                let (docs, mut registry, schema) =
                    inputs::hotel_docs(inputs::sub_seed(seed, 1, 0), &READ_SIZES);
                adjust(&mut registry);
                let mut store = DocumentStore::with_configs(
                    CacheConfig::with_ttl_ms(f64::INFINITY),
                    PlanCacheConfig::default(),
                );
                let docs = store_docs(&mut store, "hotels", docs, |_| {
                    inputs::READ_QUERIES.iter().map(|q| q.to_string()).collect()
                });
                // warm the call cache and the plan cache: every query
                // once on every document
                for doc in &docs {
                    let mut session = store
                        .session(&doc.name, &registry, Some(&schema), options.clone())
                        .expect("document stored");
                    for q in &doc.queries {
                        black_box(session.query(&parse_query(q).expect("read query parses")));
                    }
                }
                ServeRig::new(
                    workload,
                    seed,
                    store,
                    registry,
                    Some(schema),
                    docs,
                    false,
                    1,
                    16,
                    None,
                )
            }
            Workload::TenantWrite => {
                let (docs, mut registry, schema) =
                    inputs::hotel_docs(inputs::sub_seed(seed, 1, 0), &[TENANT_HOTELS; TENANTS]);
                adjust(&mut registry);
                let dir = SimDir::new(CrashProfile::default());
                let mut store = DocumentStore::durable_with_configs(
                    log_dir(&dir, traced),
                    DurabilityOptions::default(),
                    CacheConfig::with_ttl_ms(0.0),
                    PlanCacheConfig::default(),
                );
                let mut rng = Rng::new(inputs::sub_seed(seed, 2, 0));
                let docs = store_docs(&mut store, "tenant", docs, |d| {
                    inputs::tenant_queries(&mut rng, d * TENANT_HOTELS, TENANT_HOTELS, TENANT_POOL)
                });
                ServeRig::new(
                    workload,
                    seed,
                    store,
                    registry,
                    Some(schema),
                    docs,
                    true,
                    2,
                    TENANT_POOL / 2,
                    Some(dir),
                )
            }
            Workload::FeedDurable => unreachable!("feed readers are built from a feed rig"),
        }
    }

    /// `feed-durable`'s readers: snapshot sessions running the watchers'
    /// queries against the feed document as the feed loop left it.
    pub fn feed_readers(seed: u64, rig: FeedRig) -> ServeRig {
        let FeedRig { feed, store, .. } = rig;
        let original = store
            .get(FEED_DOC)
            .expect("the feed document is stored")
            .to_document();
        let queries = feed.watchers.iter().map(|(_, q)| render(q)).collect();
        let docs = vec![Doc {
            name: FEED_DOC.to_string(),
            original,
            queries,
        }];
        ServeRig::new(
            Workload::FeedDurable,
            seed,
            store,
            feed.registry,
            None,
            docs,
            false,
            4,
            10,
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        workload: Workload,
        seed: u64,
        store: DocumentStore,
        registry: Registry,
        schema: Option<Schema>,
        docs: Vec<Doc>,
        persistent: bool,
        sessions_per_doc: usize,
        queries_per_session: usize,
        dir: Option<SimDir>,
    ) -> ServeRig {
        ServeRig {
            workload,
            seed,
            store,
            registry,
            schema,
            docs,
            persistent,
            sessions_per_doc,
            queries_per_session,
            dir,
            reference: HashMap::new(),
        }
    }

    /// Persistent sessions run with query pushing off: a pushed query
    /// makes a service return only the rows that query wants, and
    /// publishing that filtered result would leave later queries with
    /// other predicates reading incomplete data (a store defect; see the
    /// ignored test in `tests.rs`).
    fn options(&self) -> SessionOptions {
        SessionOptions {
            snapshot_per_query: !self.persistent,
            engine: EngineConfig {
                push_queries: !self.persistent,
                ..EngineConfig::default()
            },
            ..SessionOptions::default()
        }
    }

    /// Batch `b`: for every session, its document and the indices of the
    /// queries it sends, in order.
    fn plan(&self, b: u64) -> Vec<(usize, Vec<usize>)> {
        let mut out = Vec::new();
        for d in 0..self.docs.len() {
            let pool = self.docs[d].queries.len();
            for s in 0..self.sessions_per_doc {
                let session = (d * self.sessions_per_doc + s) as u64;
                let queries = if self.persistent {
                    // ad-hoc: the document's sessions split a seeded
                    // permutation of its pool, the same in every batch,
                    // so each batch replays equal work on reset documents
                    let order = inputs::permutation(
                        &mut Rng::new(inputs::sub_seed(self.seed, 3, d as u64)),
                        pool,
                    );
                    (0..self.queries_per_session)
                        .map(|k| order[(s * self.queries_per_session + k) % pool])
                        .collect()
                } else {
                    // a fixed cycle, each session starting elsewhere in it
                    let start = inputs::sub_seed(self.seed, 4, session) % pool as u64 + b;
                    (0..self.queries_per_session as u64)
                        .map(|k| ((start + k) % pool as u64) as usize)
                        .collect()
                };
                out.push((d, queries));
            }
        }
        out
    }

    /// Resets every document of a persistent mix to its original,
    /// unmaterialized state.
    fn reset_docs(&mut self) {
        for doc in &self.docs {
            self.store.insert(doc.name.clone(), doc.original.clone());
        }
    }

    /// The reference answer to query `q` on document `d`: a fresh
    /// single-threaded engine with the same registry, no caches, on a
    /// private copy of the original document. `None` if incomplete.
    pub fn reference(&mut self, d: usize, q: usize) -> Option<&Answers> {
        let (registry, schema, docs) = (&self.registry, self.schema.as_ref(), &self.docs);
        self.reference
            .entry((d, q))
            .or_insert_with(|| {
                let query = parse_query(&docs[d].queries[q]).expect("generated query parses");
                let mut engine = Engine::new(registry, EngineConfig::default());
                if let Some(schema) = schema {
                    engine = engine.with_schema(schema);
                }
                let mut working = docs[d].original.clone();
                let report = engine.evaluate(&mut working, &query);
                report.complete.then(|| {
                    render_result(&working, &report.result)
                        .into_iter()
                        .collect()
                })
            })
            .as_ref()
    }

    fn check_answer(
        &mut self,
        d: usize,
        q: usize,
        answers: &Answers,
        complete: bool,
        tally: &mut Tally,
    ) {
        let ok = complete && self.reference(d, q) == Some(answers);
        tally.check(ok, || {
            format!(
                "{}: wrong answer to {:?} on {}",
                self.workload.name(),
                self.docs[d].queries[q],
                self.docs[d].name
            )
        });
    }

    /// What recovery must reproduce for a persistent mix.
    fn recovery_target(&self, tally: &mut Tally) -> Option<RecoveryTarget> {
        let dir = self.dir.clone()?;
        let manager = self
            .store
            .durability()
            .expect("a persistent mix is durable");
        let docs = self
            .docs
            .iter()
            .map(|doc| {
                let snapshot = self.store.get(&doc.name).expect("document stored");
                let acked = manager.acked_version(&doc.name);
                tally.check(acked == Some(snapshot.version()), || {
                    format!(
                        "{}: acked {acked:?} but published {}",
                        doc.name,
                        snapshot.version()
                    )
                });
                (
                    doc.name.clone(),
                    snapshot.version(),
                    to_xml(&snapshot.to_document()),
                )
            })
            .collect();
        Some(RecoveryTarget { dir, docs })
    }
}

fn store_docs(
    store: &mut DocumentStore,
    prefix: &str,
    docs: Vec<Document>,
    mut queries: impl FnMut(usize) -> Vec<String>,
) -> Vec<Doc> {
    docs.into_iter()
        .enumerate()
        .map(|(d, original)| {
            let name = format!("{prefix}{d}");
            store.insert(name.clone(), original.clone());
            Doc {
                name,
                original,
                queries: queries(d),
            }
        })
        .collect()
}

/// Totals of the session mix.
#[derive(Default)]
pub struct ServeTotals {
    pub batches: u64,
    pub queries: u64,
    /// Wall time of the timed batches (query parsing plus serving).
    pub wall_ns: f64,
    /// Queries per second of each batch.
    pub batch_rates: Vec<f64>,
    /// Per-query latencies, ms.
    pub latency_ms: Vec<f64>,
    /// Σ per-query wall time, ms (for scheduler idleness).
    pub busy_ms: f64,
    pub winner_calls: u64,
    pub registry_calls: u64,
}

/// Runs one batch of the session mix — untraced through
/// `DocumentStore::serve`, or traced through the benchmark's own
/// closed-loop runner — and checks every answer.
pub fn serve_step(
    rig: &mut ServeRig,
    workers: usize,
    ledger: Option<&mut Ledger>,
    totals: &mut ServeTotals,
    tally: &mut Tally,
) {
    if rig.persistent && totals.batches > 0 {
        rig.reset_docs();
    }
    let plan = rig.plan(totals.batches);
    let results = match ledger {
        None => serve_batch(rig, &plan, workers, totals),
        Some(l) => {
            rig.store.plans().set_sink(Arc::new(ProbeSink));
            traced_batch(rig, &plan, workers, l, totals)
        }
    };
    for ((d, queries), outcomes) in plan.iter().zip(results) {
        for (&q, (answers, complete)) in queries.iter().zip(outcomes) {
            rig.check_answer(*d, q, &answers, complete, tally);
        }
    }
    totals.batches += 1;
}

type Outcomes = Vec<Vec<(Answers, bool)>>;

fn serve_batch(
    rig: &ServeRig,
    plan: &[(usize, Vec<usize>)],
    workers: usize,
    totals: &mut ServeTotals,
) -> Outcomes {
    let options = rig.options();
    let calls_before = rig.registry.stats().calls;
    let t0 = Instant::now();
    let specs: Vec<SessionSpec> = plan
        .iter()
        .enumerate()
        .map(|(i, (d, queries))| SessionSpec {
            name: format!("s{i}"),
            document: rig.docs[*d].name.clone(),
            queries: queries
                .iter()
                .map(|&q| parse_query(&rig.docs[*d].queries[q]).expect("generated query parses"))
                .collect(),
            options: options.clone(),
        })
        .collect();
    let report = rig.store.serve(
        &specs,
        &rig.registry,
        rig.schema.as_ref(),
        &SchedulerMode::Concurrent { workers },
        None,
    );
    let wall = ns(t0.elapsed());
    totals.wall_ns += wall;
    totals
        .batch_rates
        .push(report.total_queries as f64 / (wall / 1e9));
    totals.registry_calls += (rig.registry.stats().calls - calls_before) as u64;
    report
        .sessions
        .into_iter()
        .map(|s| {
            s.queries
                .into_iter()
                .map(|q| {
                    totals.queries += 1;
                    totals.latency_ms.push(q.wall_ms);
                    totals.busy_ms += q.wall_ms;
                    totals.winner_calls += q.calls_invoked as u64;
                    (q.answers, q.complete)
                })
                .collect()
        })
        .collect()
}

/// A session moving through the traced runner.
struct Traced {
    idx: usize,
    doc: usize,
    vdoc: Arc<VersionedDocument>,
    clock_ms: f64,
    outcomes: Vec<(Answers, bool)>,
}

/// The traced runner: `workers` threads share a queue of sessions; a
/// session is queued again only after its query returns (closed loop).
fn traced_batch(
    rig: &ServeRig,
    plan: &[(usize, Vec<usize>)],
    workers: usize,
    ledger: &mut Ledger,
    totals: &mut ServeTotals,
) -> Outcomes {
    let queue: Mutex<VecDeque<Traced>> = Mutex::new(
        plan.iter()
            .enumerate()
            .map(|(idx, (d, queries))| Traced {
                idx,
                doc: *d,
                vdoc: Arc::clone(
                    rig.store
                        .versioned(&rig.docs[*d].name)
                        .expect("document stored"),
                ),
                clock_ms: 0.0,
                outcomes: Vec::with_capacity(queries.len()),
            })
            .collect(),
    );
    let live = AtomicUsize::new(plan.len());
    let done: Mutex<Vec<Traced>> = Mutex::new(Vec::new());
    let merged: Mutex<(Ledger, Vec<f64>)> = Mutex::new((Ledger::default(), Vec::new()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| {
                let mut mine = Ledger::default();
                let mut latencies = Vec::new();
                loop {
                    let next = queue.lock().expect("session queue").pop_front();
                    let Some(mut session) = next else {
                        if live.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    let queries = &plan[session.idx].1;
                    let text = &rig.docs[session.doc].queries[queries[session.outcomes.len()]];
                    let (answers, complete, wall_ns) =
                        traced_query(rig, &mut session, text, &mut mine);
                    latencies.push(wall_ns / 1e6);
                    session.outcomes.push((answers, complete));
                    if session.outcomes.len() < queries.len() {
                        queue.lock().expect("session queue").push_back(session);
                    } else {
                        done.lock().expect("finished sessions").push(session);
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                let mut m = merged.lock().expect("ledger merge");
                m.0.merge(&mine);
                m.1.extend(latencies);
            });
        }
    });
    let wall = ns(t0.elapsed());
    totals.wall_ns += wall;
    let (l, latencies) = merged.into_inner().expect("ledger merge");
    totals
        .batch_rates
        .push(latencies.len() as f64 / (wall / 1e9));
    ledger.merge(&l);
    totals.queries += latencies.len() as u64;
    totals.busy_ms += latencies.iter().sum::<f64>();
    totals.latency_ms.extend(latencies);
    let mut sessions = done.into_inner().expect("finished sessions");
    sessions.sort_by_key(|s| s.idx);
    sessions.into_iter().map(|s| s.outcomes).collect()
}

/// One session query, step for step as `Session::query` runs it, with
/// each layer's public call timed and allocation-counted. Returns the
/// answers, completeness and the query's wall time less side probes.
fn traced_query(
    rig: &ServeRig,
    session: &mut Traced,
    text: &str,
    l: &mut Ledger,
) -> (Answers, bool, f64) {
    let op0 = Instant::now();
    let config = rig.options().engine;
    let schema = rig.schema.as_ref();

    let t = Instant::now();
    let query = parse_query(text).expect("generated query parses");
    l.parse_ns += ns(t.elapsed());

    trace::take();
    let t = Instant::now();
    let plan = rig.store.plans().fetch(&query, schema, &config);
    let fetch = ns(t.elapsed());
    l.fetches += 1.0;
    let mut side = 0.0;
    if trace::take().plan_hit == Some(true) {
        l.plan_hits += 1.0;
        l.fetch_ns += fetch;
    } else {
        // the fetch compiled inside; compile the same query again on the
        // side to split the fetch into compile and probe
        let s0 = Instant::now();
        let a0 = alloc::thread_counts();
        let t = Instant::now();
        let compiled = CompiledQuery::compile(&query, schema, &config);
        let compile = ns(t.elapsed());
        l.compile_allocs += alloc::thread_counts().since(a0).allocs as f64;
        drop(black_box(compiled));
        // the compile inside the fetch cannot have taken longer than
        // the fetch itself
        let inside = compile.min(fetch);
        l.compiles += 1.0;
        l.compile_ns += inside;
        l.fetch_ns += fetch - inside;
        side = ns(s0.elapsed());
        l.side_ns += side;
    }

    let cache = TimedCache(rig.store.cache().as_ref());
    loop {
        let mut engine = Engine::new(&rig.registry, config.clone())
            .with_cache(&cache)
            .starting_at(session.clock_ms)
            .with_plan(Arc::clone(&plan));
        if let Some(schema) = schema {
            engine = engine.with_schema(schema);
        }

        let t = Instant::now();
        let snapshot = session.vdoc.snapshot();
        let version = snapshot.version();
        let mut working = snapshot.to_document();
        drop(snapshot);
        l.snapshot_ns += ns(t.elapsed());

        trace::take();
        let a0 = alloc::thread_counts();
        let t = Instant::now();
        let report = engine.evaluate(&mut working, &query);
        let eval = ns(t.elapsed());
        let allocs = alloc::thread_counts().since(a0);
        let probes = trace::take();
        let stats = &report.stats;
        let relevance = ns(stats.relevance_cpu);
        let final_eval = ns(stats.final_eval_cpu);
        l.relevance_ns += relevance;
        l.relevance_evals += stats.relevance_evals as f64;
        l.rounds += stats.rounds as f64;
        l.final_ns += final_eval;
        l.probe_ns += probes.cache_ns as f64;
        l.probes += probes.cache_probes as f64;
        l.probe_hits += probes.cache_hits as f64;
        l.splice_ns += (eval - relevance - final_eval - probes.cache_ns as f64).max(0.0);
        l.eval_allocs += allocs.allocs as f64;
        l.eval_bytes += allocs.bytes as f64;
        l.sim_ms += stats.sim_time_ms;
        session.clock_ms += stats.sim_time_ms;

        if rig.persistent {
            let t = Instant::now();
            let published = session.vdoc.publish_if(version, working.clone());
            let publish = ns(t.elapsed());
            let wal = trace::take();
            l.query_wal_appends += wal.wal_appends as f64;
            let wal_ns = l.charge_wal(&wal) as f64;
            l.publish_ns += publish - wal_ns;
            if published.is_err() {
                continue;
            }
        }
        l.winner_calls += stats.calls_invoked as f64;

        let t = Instant::now();
        let answers: Answers = render_result(&working, &report.result)
            .into_iter()
            .collect();
        black_box(to_xml(&construct_results(&working, &query, &report.result)));
        l.render_ns += ns(t.elapsed());
        // the session report carries the cache's cumulative counters
        let t = Instant::now();
        black_box(rig.store.cache().stats());
        l.probe_ns += ns(t.elapsed());

        let wall = ns(op0.elapsed()) - side;
        l.queries += 1.0;
        l.query_ns += wall;
        return (answers, report.complete, wall);
    }
}

// ------------------------------------------------------------ recovery

/// A durable directory and the state recovery must reproduce from it:
/// per document, the last acknowledged version and its serialization.
pub struct RecoveryTarget {
    pub dir: SimDir,
    pub docs: Vec<(String, u64, String)>,
}

/// Reboots the target's directory and recovers it with
/// `DocumentStore::recover`, checking the recovered store against the
/// acknowledged state. Returns the recovery time in ms.
pub fn recover_once(
    target: &RecoveryTarget,
    ledger: Option<&mut Ledger>,
    tally: &mut Tally,
) -> f64 {
    let boot = target.dir.reopen(CrashProfile::default());
    let t = Instant::now();
    let recovered = DocumentStore::recover(Box::new(boot), DurabilityOptions::default());
    let elapsed = t.elapsed();
    let mut frames = 0;
    let ok = match &recovered {
        Ok((store, report)) => {
            frames = report.docs.iter().map(|d| d.frames).sum::<usize>();
            report.ok()
                && target.docs.iter().all(|(name, version, xml)| {
                    report
                        .docs
                        .iter()
                        .any(|d| &d.name == name && d.recovered_version == *version)
                        && store
                            .get(name)
                            .is_some_and(|s| to_xml(&s.to_document()) == *xml)
                })
        }
        Err(_) => false,
    };
    tally.check(ok, || {
        "recovery: recovered store differs from the acked state".to_string()
    });
    if let Some(l) = ledger {
        l.recover_ns += ns(elapsed);
        l.frames += frames as f64;
    }
    elapsed.as_secs_f64() * 1e3
}

// ----------------------------------------------------------------- run

/// Everything one run measured.
#[derive(Default)]
pub struct RunTotals {
    pub feed: FeedTotals,
    pub serve: ServeTotals,
    pub recover_ms: f64,
    pub ledger: Ledger,
}

/// Builds the session mix (for `read-mix` and `tenant-write`) and one
/// feed rig with its watchers subscribed: the set-up that `setup_s`
/// times.
pub fn setup(workload: Workload, seed: u64, traced: bool) -> Option<ServeRig> {
    feed_setup(workload.shape().feed_hotels);
    match workload {
        Workload::FeedDurable => None,
        w => Some(ServeRig::build(w, seed, traced)),
    }
}

/// Runs the three phases for `seconds` of measured time, interleaved so
/// that a burst of outside load hits all of them alike: feed episodes
/// (each followed by a recovery of its log) while the feed has less than
/// its share of the measured time, session batches otherwise (each
/// followed, for a persistent mix, by a recovery of the tenants' logs).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    workers: usize,
    mut serve: Option<ServeRig>,
    traced: bool,
    tally: &mut Tally,
) -> RunTotals {
    let shape = workload.shape();
    let mut totals = RunTotals::default();
    let mut ledger = traced.then(Ledger::default);
    let mut feed_recoveries = Vec::new();
    let mut serve_recoveries = Vec::new();
    let budget = seconds * 1e9;
    loop {
        let feed_ns = totals.feed.loop_ns;
        let spent = feed_ns + totals.serve.wall_ns;
        if spent >= budget && totals.serve.batches > 0 {
            break;
        }
        match serve.as_mut() {
            Some(rig) if feed_ns >= shape.feed_share * spent => {
                serve_step(rig, workers, ledger.as_mut(), &mut totals.serve, tally);
                if let Some(target) = rig.recovery_target(tally) {
                    serve_recoveries.push(recover_once(&target, ledger.as_mut(), tally));
                }
            }
            _ => {
                let rig = FeedRig::build(shape.feed_hotels, traced);
                feed_episode(
                    &rig,
                    shape.feed_horizon_ms,
                    &mut totals.feed,
                    ledger.as_mut(),
                    tally,
                );
                let target = rig.recovery_target(tally);
                feed_recoveries.push(recover_once(&target, ledger.as_mut(), tally));
                if serve.is_none() {
                    // feed-durable's readers query the first episode's
                    // document as the feed loop left it
                    serve = Some(ServeRig::feed_readers(seed, rig));
                }
            }
        }
    }
    if let Some(rig) = serve.as_ref().filter(|r| r.persistent) {
        let d = rig
            .store
            .durability()
            .expect("a persistent mix is durable")
            .stats();
        totals.feed.wal_records += d.appends as u64;
        totals.feed.checkpoints += d.checkpoints as u64;
    }
    totals.recover_ms = crate::stats::slow_time(&mut feed_recoveries);
    if !serve_recoveries.is_empty() {
        totals.recover_ms += crate::stats::slow_time(&mut serve_recoveries);
    }
    totals.ledger = ledger.unwrap_or_default();
    totals
}
