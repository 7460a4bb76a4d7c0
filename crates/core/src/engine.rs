//! The lazy query-evaluation engine — the paper's central algorithm.
//!
//! Given an AXML document, a tree-pattern query and a service registry,
//! the engine drives a **relevant rewriting** (Definition 4): it invokes
//! only calls that may contribute to the query, in rounds, until the
//! document is complete for the query, then evaluates the query once to
//! obtain the **full result**. The strategy space covers the whole paper:
//!
//! | knob | paper section |
//! |---|---|
//! | [`Strategy::Naive`] — invoke everything to a fixpoint | §1 (baseline) |
//! | [`Strategy::TopDown`] — one call at a time along traversed paths | §1 (baseline) |
//! | [`Strategy::Lpq`] — linear path queries | §3.1 / §6.1 |
//! | [`Strategy::Nfq`] — node-focused queries + NFQA | §3.2, §4.1 |
//! | `layering` — influence layers, topological processing | §4.2–4.3 |
//! | `parallel` — condition (✳) batch invocation | §4.4 |
//! | `typing` — refined NFQs via satisfiability | §5 |
//! | `relax_xpath` — drop value joins from NFQs | §6.1 |
//! | `use_fguide` — function-call guide + residual filtering | §6.2 |
//! | `push_queries` — ship `sub_q_v` to providers | §7 |

use crate::fguide::{filter_candidates, FGuide};
use crate::influence::Layers;
use crate::nfq::Nfq;
use crate::plan::{affected_language, position_language, CompiledQuery};
use crate::stats::EngineStats;
use crate::typed::TypeRefiner;
use axml_obs::{CacheOutcome, Event, EventKind, ShedReason, TraceSink};
use axml_query::{
    eval_with, render, EdgeKind, EvalOptions, PLabel, Pattern, PlanScratch, SnapshotResult,
};
use axml_schema::{Nfa, SatMode, Schema, SymDfa, SymNfa};
use axml_services::{
    CacheLookup, Deadline, FailedCall, InvokeCache, InvokeError, InvokeOutcome, PushedQuery,
    Registry, SimClock,
};
use axml_xml::{CallId, Document, NodeId};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Which family of call-finding queries drives the rewriting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Invoke every call recursively until a fixpoint — the naive baseline
    /// ruled out in the introduction.
    Naive,
    /// Invoke calls one at a time, restarting the (linear-path) analysis
    /// after each answer — the "less naive" blocking baseline of §1.
    TopDown,
    /// Position-only pruning with LPQs (§3.1): safe superset, batched.
    Lpq,
    /// Node-focused queries with the NFQA loop (§3.2/§4.1): exact
    /// relevance under unconstrained types.
    Nfq,
}

impl Strategy {
    /// Stable name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::TopDown => "topdown",
            Strategy::Lpq => "lpq",
            Strategy::Nfq => "nfq",
        }
    }
}

/// Type-based pruning level (Section 5 / §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Typing {
    /// Ignore signatures (Section 3's assumption).
    None,
    /// Lenient graph-schema satisfiability (§6.1) — PTIME, may keep extra
    /// functions.
    Lenient,
    /// Exact derived-instance satisfiability (Section 5).
    Exact,
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Call-finding family.
    pub strategy: Strategy,
    /// Type-based pruning (needs a schema; ignored without one).
    pub typing: Typing,
    /// Maintain an F-guide and detect candidates on it (§6.2).
    pub use_fguide: bool,
    /// Push `sub_q_v` to capable providers (§7). NFQ strategy only.
    pub push_queries: bool,
    /// Invoke independent batches in parallel (§4.4); also batches the
    /// naive/LPQ strategies' rounds.
    pub parallel: bool,
    /// Split NFQs into influence layers (§4.3).
    pub layering: bool,
    /// Simplify finished layers' `()` branches away (§4.3's note).
    pub simplify_layers: bool,
    /// Drop value-join variables from NFQs (§6.1 XPath relaxation).
    pub relax_xpath: bool,
    /// Hard cap on invocations — the paper's termination guard (§2 assumes
    /// termination or a limit).
    pub max_invocations: usize,
    /// Eliminate call-finding queries subsumed by others (§4.1's
    /// containment-based redundancy elimination): exact language inclusion
    /// for LPQs, homomorphism-based for NFQs.
    pub containment_pruning: bool,
    /// Check every (un-pushed) service result against the declared output
    /// type and the element content models (§2: "its result is guaranteed
    /// to match the out regular expression"). Violations are counted in
    /// the stats; the result is spliced regardless (the algorithms stay
    /// correct, the guarantee was the provider's).
    pub enforce_output_types: bool,
    /// Incremental relevance detection: re-evaluate an NFQ only when some
    /// splice since its last evaluation happened at a position its pattern
    /// can observe (tested on the prefix closure of the union of the
    /// pattern's path languages). Unaffected NFQs reuse their cached
    /// candidate sets. A further answer to §4.1's "costly reevaluation of
    /// NFQs after each call".
    pub incremental_detection: bool,
    /// Capacity of the splice log backing incremental detection, a ring
    /// buffer mirroring the registry's `set_call_log_capacity` model: the
    /// newest records win. When records an NFQ would need have been
    /// evicted, incremental detection degrades *soundly* to a full
    /// re-evaluation for that NFQ — never to a stale answer. Keeps
    /// long-running sessions (many queries over one engine) from growing
    /// the log without bound.
    pub splice_log_capacity: usize,
    /// Hot-path toggles of the tree-pattern evaluator (label interning,
    /// label→node index). Both on by default; the `--no-interning` /
    /// `--no-index` CLI flags switch them off for debugging and A/B
    /// benchmarking. Every combination computes identical results.
    pub eval_options: EvalOptions,
    /// Dispatch parallel batches on real OS threads (one per call), the
    /// way the original system issued asynchronous SOAP calls. Results are
    /// still spliced sequentially and deterministically (document order),
    /// so answers and statistics are identical — only wall-clock changes
    /// when services do real work or real I/O.
    pub real_threads: bool,
    /// Speculative invocation — the paper's §4.4 closing direction:
    /// "calling functions in parallel *just in case*", trading possibly
    /// wasted calls for wall-clock.
    pub speculation: Speculation,
    /// End-to-end deadline for the whole run, in simulated ms from the
    /// run's start. When the budget runs out the engine stops dispatching
    /// and closes the round with the same sound partial-answer semantics
    /// as invocation-budget exhaustion — `truncated` with the distinct
    /// `deadline_exceeded` cause. In-flight calls are clipped to the
    /// remaining budget (per-attempt timeouts and backoff sleeps never
    /// overrun it); zero-cost cache hits are still served after expiry.
    /// `f64::INFINITY` (the default) disables the deadline.
    pub deadline_ms: f64,
    /// Hedged-invocation policy for parallel batches (off by default).
    pub hedge: HedgeConfig,
    /// Adaptive load-shedding policy (off by default).
    pub shed: ShedConfig,
}

/// When to fire a duplicate *hedge leg* for a slow call inside a parallel
/// batch. The first leg to complete wins; the loser is cancelled at zero
/// answer-state cost and only its already-elapsed simulated time is
/// charged to [`EngineStats::hedge_wasted_ms`]. Exactly one logical
/// outcome (the winner's) reaches the stats, the trace and the circuit
/// breaker. Both triggers default to `f64::INFINITY` (hedging off); when
/// both are set the earlier trigger fires the hedge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Fixed trigger: fire the hedge once a call's elapsed simulated cost
    /// passes this many ms.
    pub threshold_ms: f64,
    /// Adaptive trigger: fire once the elapsed cost passes this multiple
    /// of the service's observed latency EWMA (no effect until the
    /// service has at least one observation).
    pub latency_factor: f64,
}

impl HedgeConfig {
    /// Whether any trigger is configured.
    pub fn enabled(&self) -> bool {
        self.threshold_ms.is_finite() || self.latency_factor.is_finite()
    }

    /// The elapsed-cost point (ms) at which a hedge fires for a service
    /// with the given latency EWMA; `f64::INFINITY` means never.
    fn trigger_ms(&self, ewma: Option<f64>) -> f64 {
        let adaptive = match ewma {
            Some(e) if self.latency_factor.is_finite() => self.latency_factor * e,
            _ => f64::INFINITY,
        };
        self.threshold_ms.min(adaptive)
    }
}

impl Default for HedgeConfig {
    /// Hedging off.
    fn default() -> Self {
        HedgeConfig {
            threshold_ms: f64::INFINITY,
            latency_factor: f64::INFINITY,
        }
    }
}

/// Admission gate in front of the circuit breaker: sheds the
/// lowest-priority candidate calls (latest in document order) when a
/// service is overloaded. A shed call is recorded as a skip — like a
/// breaker refusal — keeping the answer a sound partial result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedConfig {
    /// Maximum calls admitted per service within one batch; further
    /// candidates are shed with [`axml_obs::ShedReason::Inflight`].
    /// `usize::MAX` (the default) disables the gate.
    pub max_inflight_per_batch: usize,
    /// Shed every candidate of a service whose latency EWMA exceeds this
    /// many ms ([`axml_obs::ShedReason::Latency`]). `f64::INFINITY` (the
    /// default) disables the gate.
    pub ewma_limit_ms: f64,
}

impl Default for ShedConfig {
    /// Shedding off.
    fn default() -> Self {
        ShedConfig {
            max_inflight_per_batch: usize::MAX,
            ewma_limit_ms: f64::INFINITY,
        }
    }
}

/// When to fire *all* currently relevant calls in one batch, ignoring the
/// layer order and condition (✳) (§4.4's "more parallelism" direction).
/// Every call fired is relevant at firing time (Prop. 1), but a batch mate
/// may retroactively make it useless — a *lenient* rewriting: safe, maybe
/// wasteful.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Speculation {
    /// Strict relevant rewriting (the default).
    Off,
    /// Always batch everything.
    Always,
    /// Cost model: batch when the observed mean call cost exceeds the
    /// threshold — latency expensive ⇒ wasted calls are worth the rounds
    /// they save.
    CostBased {
        /// Mean simulated call cost (ms) above which speculation pays.
        latency_threshold_ms: f64,
    },
}

impl Default for EngineConfig {
    /// The full lazy configuration: NFQ + layering + parallel + exact
    /// typing + push, no F-guide.
    fn default() -> Self {
        EngineConfig {
            strategy: Strategy::Nfq,
            typing: Typing::Exact,
            use_fguide: false,
            push_queries: true,
            parallel: true,
            layering: true,
            simplify_layers: true,
            relax_xpath: false,
            max_invocations: 100_000,
            containment_pruning: true,
            enforce_output_types: false,
            incremental_detection: false,
            splice_log_capacity: 4096,
            eval_options: EvalOptions::default(),
            real_threads: false,
            speculation: Speculation::Off,
            deadline_ms: f64::INFINITY,
            hedge: HedgeConfig::default(),
            shed: ShedConfig::default(),
        }
    }
}

impl EngineConfig {
    /// The naive materialize-everything baseline.
    pub fn naive() -> Self {
        EngineConfig {
            strategy: Strategy::Naive,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            parallel: false,
            ..Default::default()
        }
    }

    /// The blocking top-down baseline.
    pub fn top_down() -> Self {
        EngineConfig {
            strategy: Strategy::TopDown,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            parallel: false,
            ..Default::default()
        }
    }

    /// Plain LPQ pruning.
    pub fn lpq() -> Self {
        EngineConfig {
            strategy: Strategy::Lpq,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            ..Default::default()
        }
    }

    /// Plain NFQA (no typing, no layering, sequential).
    pub fn nfq_plain() -> Self {
        EngineConfig {
            strategy: Strategy::Nfq,
            typing: Typing::None,
            push_queries: false,
            layering: false,
            parallel: false,
            ..Default::default()
        }
    }
}

/// The outcome of one engine run.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// The full result of the query (snapshot on the completed document).
    pub result: SnapshotResult,
    /// Measurements.
    pub stats: EngineStats,
    /// Whether the answer is the *full* result. `false` means degradation
    /// happened — some relevant call permanently failed, was refused by an
    /// open circuit breaker, named an unknown service, or the invocation
    /// budget ran out — and the answer is a sound partial result: exactly
    /// the full answer minus subtrees below the unresolved calls.
    pub complete: bool,
}

/// The lazy query evaluation engine.
pub struct Engine<'a> {
    registry: &'a Registry,
    schema: Option<&'a Schema>,
    cache: Option<&'a dyn InvokeCache>,
    observer: Option<&'a dyn TraceSink>,
    start_ms: f64,
    config: EngineConfig,
    plan: Option<Arc<CompiledQuery>>,
}

impl<'a> Engine<'a> {
    /// Creates an engine without schema information (typing disabled).
    pub fn new(registry: &'a Registry, config: EngineConfig) -> Self {
        Engine {
            registry,
            schema: None,
            cache: None,
            observer: None,
            start_ms: 0.0,
            config,
            plan: None,
        }
    }

    /// Attaches a [`CompiledQuery`]: runs whose `(query, schema, config)`
    /// match the plan's compile key take their NFQs, LPQs, layers, label
    /// NFAs, satisfiability verdicts and final-evaluation plan from it
    /// instead of compiling them. A non-matching plan is ignored — never
    /// misapplied — and the run compiles its own.
    pub fn with_plan(mut self, plan: Arc<CompiledQuery>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The plan a run of `query` evaluates through: the attached one when
    /// it was compiled for exactly this `(query, schema, config)`,
    /// otherwise a cold compile.
    fn plan_for(&self, query: &Pattern) -> Arc<CompiledQuery> {
        match &self.plan {
            Some(p) if p.compatible(query, self.schema, &self.config) => Arc::clone(p),
            _ => Arc::new(CompiledQuery::compile(query, self.schema, &self.config)),
        }
    }

    /// The §5 typing refiner for `query`, sharing the plan's verdict store
    /// (keyed by the same `(schema, query, typing)` triple the plan was
    /// compiled under); `None` without a schema or with typing off.
    fn refiner<'q>(&self, query: &'q Pattern, plan: &CompiledQuery) -> Option<TypeRefiner<'a, 'q>> {
        let mode = match self.config.typing {
            Typing::None => return None,
            Typing::Lenient => SatMode::Lenient,
            Typing::Exact => SatMode::Exact,
        };
        let schema = self.schema?;
        Some(TypeRefiner::with_verdicts(
            schema,
            query,
            mode,
            plan.verdicts.clone(),
        ))
    }

    /// Attaches a structured-trace observer: every observable step of a
    /// run (query/layer spans, candidate sets, cache probes, attempts,
    /// invocations, breaker transitions, batch clock charges) is emitted
    /// as an [`axml_obs::Event`]. Emission happens only on the engine's
    /// sequential phases — detection, splice, accounting — never on
    /// dispatch threads, so the stream's order is deterministic even for
    /// `real_threads` parallel batches.
    pub fn with_observer(mut self, observer: &'a dyn TraceSink) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a schema, enabling `Typing::{Lenient, Exact}`.
    pub fn with_schema(mut self, schema: &'a Schema) -> Self {
        self.schema = Some(schema);
        self
    }

    /// Attaches a cross-query call-result cache (reconstructed §7): the
    /// engine probes it before every dispatch — a valid entry is spliced
    /// in at **zero** network cost and counted in
    /// [`EngineStats::cache_hits`]; a successful real invocation
    /// populates it. Failed calls are never cached.
    pub fn with_cache(mut self, cache: &'a dyn InvokeCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Starts the run's simulated clock at `ms` instead of zero — used by
    /// sessions serving a stream of queries, so cache validity windows
    /// and breaker cooldowns keep counting across runs.
    /// [`EngineStats::sim_time_ms`] still reports only this run's elapsed
    /// simulated time.
    pub fn starting_at(mut self, ms: f64) -> Self {
        self.start_ms = ms;
        self
    }

    /// Rewrites `doc` until it is complete for the query, **without** the
    /// final evaluation — the exchange use case of Section 1's closing
    /// remark ("our technique can be used to evaluate queries on exchanged
    /// AXML data"): materialize exactly what a recipient needs for `query`
    /// and ship the document.
    pub fn complete_for(&self, doc: &mut Document, query: &Pattern) -> EngineStats {
        let mut report = self.evaluate(doc, query);
        report.stats.final_eval_cpu = std::time::Duration::ZERO;
        report.stats
    }

    /// Evaluates several queries over one document with a **shared**
    /// rewriting — the multi-query optimization Section 4.1 points to
    /// ("techniques for multi-query optimization \[7\] are essential"):
    /// a call relevant to any of the queries is invoked exactly once.
    ///
    /// The shared loop batches the union of all queries' relevant calls per
    /// round (every fired call is relevant to some query at firing time, a
    /// lenient rewriting in the sense of Section 2); pushed queries are
    /// disabled because a pruned result safe for one query may starve
    /// another.
    pub fn evaluate_many(&self, doc: &mut Document, queries: &[Pattern]) -> Vec<EvalReport> {
        if queries.is_empty() {
            return Vec::new();
        }
        let t0 = Instant::now();
        let shared = Engine {
            config: EngineConfig {
                push_queries: false,
                ..self.config.clone()
            },
            plan: None,
            ..*self
        };
        let plans: Vec<Arc<CompiledQuery>> = queries.iter().map(|q| self.plan_for(q)).collect();
        // push is off, so the run's own query is never consulted
        let mut run = Run::new(&shared, &queries[0]);
        // one NFQ index space across all queries, so per-NFQ caches of
        // different queries never collide
        let mut nfqs: Vec<Nfq> = Vec::new();
        let mut per_query: Vec<(Vec<usize>, Option<TypeRefiner<'_, '_>>)> = Vec::new();
        for (q, plan) in queries.iter().zip(&plans) {
            let first = nfqs.len();
            run.load_nfqs(plan, &mut nfqs);
            run.stats.queries_pruned += plan.nfq_pruned;
            per_query.push(((first..nfqs.len()).collect(), self.refiner(q, plan)));
        }

        if run.observing() {
            let rendered: Vec<String> = queries.iter().map(render).collect();
            run.emit(EventKind::QueryStart {
                strategy: "shared".to_string(),
                query: rendered.join(" ; "),
            });
        }
        loop {
            let mut merged: BTreeMap<CallId, Candidate> = BTreeMap::new();
            for (indices, refiner) in per_query.iter_mut() {
                let (cands, _) = run.detect_nfq_candidates(doc, &nfqs, indices, refiner);
                for c in cands {
                    merged.entry(c.call).or_insert(c);
                }
            }
            if merged.is_empty() || run.budget == 0 {
                run.note_truncation(merged.len());
                break;
            }
            run.stats.rounds += 1;
            let cands: Vec<Candidate> = merged.into_values().collect();
            run.emit_candidates(&cands);
            let invoked = run.invoke_set(doc, &cands, &BTreeMap::new(), self.config.parallel);
            if invoked == 0 {
                run.note_truncation(run.pending_count(&cands));
                break;
            }
        }

        let shared_sim = run.clock.now_ms() - self.start_ms;
        run.stats.sim_time_ms = shared_sim;
        run.stats.final_doc_size = doc.len();
        if run.observing() {
            let kind = EventKind::QueryEnd {
                complete: run.stats.is_complete(),
                calls_invoked: run.stats.calls_invoked,
                sim_time_ms: shared_sim,
            };
            let cpu = t0.elapsed().as_secs_f64() * 1e3;
            run.emit_with_cpu(kind, Some(cpu));
        }
        let shared_stats = run.stats;
        let mut final_cache = PlanScratch::default();
        plans
            .iter()
            .map(|plan| {
                let tq = Instant::now();
                let result = plan
                    .plan
                    .eval_with(doc, self.config.eval_options, &mut final_cache);
                let mut stats = shared_stats.clone();
                stats.final_eval_cpu = tq.elapsed();
                stats.total_cpu = t0.elapsed();
                let complete = stats.is_complete();
                EvalReport {
                    result,
                    stats,
                    complete,
                }
            })
            .collect()
    }

    /// Runs the rewriting on `doc` (mutated in place) and evaluates the
    /// query on the completed document, through the attached plan when it
    /// is compatible and through a freshly compiled one otherwise.
    pub fn evaluate(&self, doc: &mut Document, query: &Pattern) -> EvalReport {
        let t0 = Instant::now();
        let plan = self.plan_for(query);
        let mut run = Run::new(self, query);
        if run.observing() {
            run.emit(EventKind::QueryStart {
                strategy: self.config.strategy.name().to_string(),
                query: render(query),
            });
        }
        match self.config.strategy {
            Strategy::Naive => run.run_naive(doc),
            Strategy::TopDown => run.run_lpq(doc, &plan, true),
            Strategy::Lpq => run.run_lpq(doc, &plan, false),
            Strategy::Nfq => run.run_nfq(doc, &plan),
        }
        let tq = Instant::now();
        // the plan binds into this document's symbol space by a remap
        // (identical tables ⇒ identical result)
        let result = plan
            .plan
            .eval_with(doc, self.config.eval_options, &mut run.eval_cache);
        run.stats.final_eval_cpu = tq.elapsed();
        run.stats.sim_time_ms = run.clock.now_ms() - self.start_ms;
        run.stats.total_cpu = t0.elapsed();
        run.stats.final_doc_size = doc.len();
        run.stats.guide_nodes = run.guide.as_ref().map_or(0, FGuide::len);
        let complete = run.stats.is_complete();
        if run.observing() {
            let kind = EventKind::QueryEnd {
                complete,
                calls_invoked: run.stats.calls_invoked,
                sim_time_ms: run.stats.sim_time_ms,
            };
            let cpu = run.stats.total_cpu.as_secs_f64() * 1e3;
            run.emit_with_cpu(kind, Some(cpu));
        }
        EvalReport {
            result,
            stats: run.stats,
            complete,
        }
    }
}

/// Cached candidate triple: node, call identity, service name.
type CachedCandidate = (NodeId, CallId, String);

/// Does the NFQ's output node accept a call to `service`? The output is a
/// function node by construction; anything else never matches a call.
fn output_accepts(nfq: &Nfq, service: &str) -> bool {
    match &nfq.pattern.node(nfq.output).label {
        PLabel::Fun(m) => m.accepts(service),
        _ => false,
    }
}

/// One splice, as remembered for incremental detection: which call was
/// consumed, where, and under which label path (interned against the
/// document's symbol table).
#[derive(Clone, Debug)]
struct SpliceRecord {
    /// Monotone splice sequence number.
    seq: u64,
    /// The node slot the consumed call occupied (slots are reused; pair
    /// with `consumed` for a reliable identity).
    node: NodeId,
    /// The call the splice consumed.
    consumed: CallId,
    /// Label path of the call's parent, as interned symbols.
    parent_syms: Vec<u32>,
}

/// Cached relevance state of one NFQ, for incremental detection.
#[derive(Clone, Debug, Default)]
struct NfqCacheEntry {
    /// `splice_seq` at evaluation time.
    seq: u64,
    /// `Document::next_call_id` at evaluation time — calls with an id at
    /// or above it appeared after this entry was built.
    call_watermark: u64,
    /// *Positional* candidates: visible calls whose parent path matches
    /// the NFQ's linear path (via the `via` edge), **before** side
    /// conditions and service tests. Positions of surviving nodes never
    /// change under splices, so this set is delta-maintainable; the
    /// non-monotone residual conditions are re-checked on every use.
    positional: Vec<CachedCandidate>,
    /// The fully filtered candidates of the last evaluation — reused
    /// verbatim while no splice touches the NFQ's observable region.
    retrieved: Vec<CachedCandidate>,
}

/// Per-run mutable state.
struct Run<'e, 'a, 'q> {
    engine: &'e Engine<'a>,
    query: &'q Pattern,
    clock: SimClock,
    stats: EngineStats,
    /// calls that cannot be invoked (unknown services)
    dead: HashSet<CallId>,
    guide: Option<FGuide>,
    budget: usize,
    total_call_cost_ms: f64,
    /// monotone splice counter + bounded log of splice records, for
    /// incremental detection
    splice_seq: u64,
    splice_log: VecDeque<SpliceRecord>,
    /// sequence number below which records have been evicted from the
    /// ring buffer (0 = nothing evicted); queries about older history
    /// must degrade to "assume affected"
    splice_floor: u64,
    /// per-NFQ-index cached candidates and their freshness
    nfq_cache: HashMap<usize, NfqCacheEntry>,
    /// per-NFQ-index prefix-closed union of path languages: borrowed from
    /// the plan, or `None` once `simplify_layers` rewrote the NFQ (rebuilt
    /// on first use)
    affected_nfas: Vec<Option<Cow<'q, Nfa>>>,
    /// per-NFQ-index label-level *position* language (the linear path,
    /// suffix-closed for descendant-ended NFQs), same ownership
    pos_nfas: Vec<Option<Cow<'q, Nfa>>>,
    /// symbol-compiled `affected_nfas`, stamped with the `sym_count` they
    /// were compiled at (recompiled when the symbol table grows)
    affected_sym: HashMap<usize, (usize, SymAuto)>,
    /// symbol-compiled `pos_nfas`, same staleness stamp
    pos_sym: HashMap<usize, (usize, SymAuto)>,
    /// reusable evaluator memo tables (the NFQA loop re-evaluates
    /// patterns once per round)
    eval_cache: PlanScratch,
    /// monotone event counter for the structured trace (resets per run)
    seq: u64,
    /// influence layer currently being processed (0 when unlayered)
    layer: usize,
    /// absolute end-to-end deadline on the simulated clock
    deadline: Deadline,
    /// set when a dispatch was refused because the deadline had expired
    /// (or a call burned its whole remaining budget)
    deadline_hit: bool,
    /// per-batch admitted-call counts per service, for the shed gate
    batch_admitted: BTreeMap<String, usize>,
}

/// A symbol-compiled path automaton: determinized when the subset
/// construction stays under a state cap, the NFA itself otherwise. Both
/// forms accept exactly the same words (the schema crate pins agreement),
/// so the choice never shows in answers or traces — only in per-word
/// stepping cost on the incremental-detection hot path.
enum SymAuto {
    Dfa(SymDfa),
    Nfa(SymNfa),
}

/// Subset-construction state cap: path-language NFAs are tiny (one state
/// per query step plus closures), so blowups past this are pathological
/// and fall back to NFA stepping.
const SYM_DFA_MAX_STATES: usize = 64;

impl SymAuto {
    fn compile(nfa: SymNfa) -> SymAuto {
        match nfa.determinize(SYM_DFA_MAX_STATES) {
            Some(dfa) => SymAuto::Dfa(dfa),
            None => SymAuto::Nfa(nfa),
        }
    }

    fn accepts(&self, word: &[u32]) -> bool {
        match self {
            SymAuto::Dfa(d) => d.accepts(word),
            SymAuto::Nfa(n) => n.accepts(word),
        }
    }
}

/// One invocation candidate.
#[derive(Clone, Debug)]
struct Candidate {
    node: NodeId,
    call: CallId,
    service: String,
    /// the query nodes whose NFQs retrieved it (empty for LPQ/naive)
    foci: BTreeSet<axml_query::PNodeId>,
}

/// Accounting for one fired hedge leg, produced on the dispatch side and
/// consumed by the batch's sequential accounting phase.
struct HedgeLeg {
    /// Elapsed cost (ms into the call) at which the hedge fired.
    fired_at_ms: f64,
    /// The primary leg's own cost, had it run alone.
    primary_cost_ms: f64,
    /// The hedge leg's own cost, measured from its firing point.
    hedge_cost_ms: f64,
    /// Whether the hedge leg won the race.
    hedge_won: bool,
    /// The losing leg's elapsed run time up to the winner's completion —
    /// the work hedging wasted (never charged to the simulated clock).
    wasted_ms: f64,
}

/// Resolves a primary/hedge race into exactly one logical outcome. The
/// hedge leg starts `fired_at_ms` into the primary's run; the first leg
/// to *succeed* wins and cancels the other, so the logical call completes
/// at the winner's completion point. When both legs fail the call fails
/// when the later leg gives up (the primary's attempt count is reported).
fn combine_hedge(
    primary: Result<InvokeOutcome, InvokeError>,
    hedge: Result<InvokeOutcome, InvokeError>,
    fired_at_ms: f64,
) -> (Result<InvokeOutcome, InvokeError>, HedgeLeg) {
    // prepare() verified the service exists, so neither leg can be
    // `Unknown`; map it to a zero-cost failure defensively.
    let failed_of = |e: InvokeError| match e {
        InvokeError::Failed(f) => f,
        InvokeError::Unknown(service) => FailedCall {
            service,
            attempts: 0,
            cost_ms: 0.0,
            timed_out: false,
            deadline_exceeded: false,
        },
    };
    match (primary, hedge) {
        (Ok(p), Ok(h)) => {
            let h_done = fired_at_ms + h.cost_ms;
            if h_done < p.cost_ms {
                let leg = HedgeLeg {
                    fired_at_ms,
                    primary_cost_ms: p.cost_ms,
                    hedge_cost_ms: h.cost_ms,
                    hedge_won: true,
                    wasted_ms: p.cost_ms.min(h_done),
                };
                (
                    Ok(InvokeOutcome {
                        cost_ms: h_done,
                        ..h
                    }),
                    leg,
                )
            } else {
                let leg = HedgeLeg {
                    fired_at_ms,
                    primary_cost_ms: p.cost_ms,
                    hedge_cost_ms: h.cost_ms,
                    hedge_won: false,
                    wasted_ms: h.cost_ms.min((p.cost_ms - fired_at_ms).max(0.0)),
                };
                (Ok(p), leg)
            }
        }
        (Ok(p), Err(he)) => {
            let hf = failed_of(he);
            let leg = HedgeLeg {
                fired_at_ms,
                primary_cost_ms: p.cost_ms,
                hedge_cost_ms: hf.cost_ms,
                hedge_won: false,
                wasted_ms: hf.cost_ms.min((p.cost_ms - fired_at_ms).max(0.0)),
            };
            (Ok(p), leg)
        }
        (Err(pe), Ok(h)) => {
            let pf = failed_of(pe);
            let h_done = fired_at_ms + h.cost_ms;
            let leg = HedgeLeg {
                fired_at_ms,
                primary_cost_ms: pf.cost_ms,
                hedge_cost_ms: h.cost_ms,
                hedge_won: true,
                wasted_ms: pf.cost_ms.min(h_done),
            };
            (
                Ok(InvokeOutcome {
                    cost_ms: h_done,
                    ..h
                }),
                leg,
            )
        }
        (Err(pe), Err(he)) => {
            let pf = failed_of(pe);
            let hf = failed_of(he);
            let completion = pf.cost_ms.max(fired_at_ms + hf.cost_ms);
            let leg = HedgeLeg {
                fired_at_ms,
                primary_cost_ms: pf.cost_ms,
                hedge_cost_ms: hf.cost_ms,
                hedge_won: false,
                wasted_ms: hf.cost_ms,
            };
            let combined = FailedCall {
                service: pf.service,
                attempts: pf.attempts,
                cost_ms: completion,
                timed_out: pf.timed_out || hf.timed_out,
                deadline_exceeded: pf.deadline_exceeded || hf.deadline_exceeded,
            };
            (Err(InvokeError::Failed(combined)), leg)
        }
    }
}

/// Dispatches one call with the hedging policy: the primary leg runs
/// under the full remaining deadline budget; when its elapsed cost
/// passes `hedge_after_ms` a duplicate hedge leg fires (with an
/// independent deterministic fault fate) and the race is resolved by
/// [`combine_hedge`]. Pure with respect to engine state, so threaded and
/// sequential batch dispatch behave identically.
fn dispatch_hedged(
    registry: &Registry,
    service: &str,
    params: axml_xml::Forest,
    pushed: Option<&PushedQuery>,
    remaining_ms: f64,
    hedge_after_ms: f64,
) -> (Result<InvokeOutcome, InvokeError>, Option<HedgeLeg>) {
    if !hedge_after_ms.is_finite() || remaining_ms - hedge_after_ms <= 0.0 {
        return (
            registry.invoke_within(service, params, pushed, remaining_ms),
            None,
        );
    }
    let primary = registry.invoke_within(service, params.clone(), pushed, remaining_ms);
    let primary_cost = match &primary {
        Ok(o) => Some(o.cost_ms),
        Err(InvokeError::Failed(f)) => Some(f.cost_ms),
        Err(InvokeError::Unknown(_)) => None,
    };
    match primary_cost {
        Some(cost) if cost > hedge_after_ms => {
            let hedge =
                registry.invoke_hedge(service, params, pushed, remaining_ms - hedge_after_ms);
            let (combined, leg) = combine_hedge(primary, hedge, hedge_after_ms);
            (combined, Some(leg))
        }
        _ => (primary, None),
    }
}

impl<'e, 'a, 'q> Run<'e, 'a, 'q> {
    fn new(engine: &'e Engine<'a>, query: &'q Pattern) -> Self {
        Run {
            engine,
            query,
            clock: SimClock::at(engine.start_ms),
            stats: EngineStats::default(),
            dead: HashSet::new(),
            guide: None,
            budget: engine.config.max_invocations,
            total_call_cost_ms: 0.0,
            splice_seq: 0,
            splice_log: VecDeque::new(),
            splice_floor: 0,
            nfq_cache: HashMap::new(),
            affected_nfas: Vec::new(),
            pos_nfas: Vec::new(),
            affected_sym: HashMap::new(),
            pos_sym: HashMap::new(),
            eval_cache: PlanScratch::default(),
            seq: 0,
            layer: 0,
            deadline: Deadline::after(engine.start_ms, engine.config.deadline_ms),
            deadline_hit: false,
            batch_admitted: BTreeMap::new(),
        }
    }

    fn config(&self) -> &EngineConfig {
        &self.engine.config
    }

    /// Appends the plan's NFQs to `nfqs`, borrowing their label NFAs at
    /// the same indices.
    fn load_nfqs(&mut self, plan: &'q CompiledQuery, nfqs: &mut Vec<Nfq>) {
        nfqs.extend(plan.nfqs.iter().cloned());
        self.affected_nfas
            .extend(plan.affected_nfas.iter().map(|n| Some(Cow::Borrowed(n))));
        self.pos_nfas
            .extend(plan.pos_nfas.iter().map(|n| Some(Cow::Borrowed(n))));
    }

    /// Whether a structured-trace observer is attached. Callers use this
    /// to skip the clones event construction needs on the hot path.
    fn observing(&self) -> bool {
        self.engine.observer.is_some()
    }

    /// Emits one structured event stamped with the run's current position
    /// (seq, simulated clock, round, layer).
    fn emit(&mut self, kind: EventKind) {
        self.emit_with_cpu(kind, None);
    }

    fn emit_with_cpu(&mut self, kind: EventKind, cpu_ms: Option<f64>) {
        if !self.observing() {
            return;
        }
        let event = Event {
            seq: self.seq,
            sim_ms: self.clock.now_ms(),
            round: self.stats.rounds,
            layer: self.layer,
            cpu_ms,
            kind,
        };
        self.seq += 1;
        if let Some(obs) = self.engine.observer {
            obs.emit(&event);
        }
    }

    /// Emits one `candidates` event naming the calls detection just found
    /// relevant — the sets the laziness oracle replays.
    fn emit_candidates(&mut self, cands: &[Candidate]) {
        if !self.observing() {
            return;
        }
        self.emit(EventKind::Candidates {
            calls: cands.iter().map(|c| c.call.0).collect(),
            services: cands.iter().map(|c| c.service.clone()).collect(),
        });
    }

    /// Flags truncation (once) when the run died with relevant candidates
    /// still pending, emitting the matching trace event. Deadline expiry
    /// closes the round with the same sound partial-answer semantics as
    /// invocation-budget exhaustion but a distinct cause — a
    /// `deadline` event and [`EngineStats::deadline_exceeded`].
    fn note_truncation(&mut self, pending: usize) {
        if pending == 0 || self.stats.truncated {
            return;
        }
        if self.deadline_hit || self.deadline.expired(self.clock.now_ms()) {
            self.stats.truncated = true;
            self.stats.deadline_exceeded = true;
            self.emit(EventKind::DeadlineExceeded { pending });
        } else if self.budget == 0 {
            self.stats.truncated = true;
            self.emit(EventKind::Truncated { pending });
        }
    }

    /// Candidates of `cands` that are still undispatched and not dead —
    /// the pending count reported when a round closes without progress.
    fn pending_count(&self, cands: &[Candidate]) -> usize {
        cands
            .iter()
            .filter(|c| !self.dead.contains(&c.call))
            .count()
    }

    /// Calls visible to queries: pre-order, never descending below a call
    /// (parameters are service inputs, not content).
    fn visible_calls(&self, doc: &Document) -> Vec<(NodeId, CallId, String)> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = doc.roots().iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            if let Some((id, svc)) = doc.call_info(n) {
                if !self.dead.contains(&id) {
                    out.push((n, id, svc.to_string()));
                }
                continue;
            }
            for &c in doc.children(n).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Validates a candidate and extracts what its dispatch needs: the
    /// parameter forest and the parent label path. `None` means skipped
    /// (stale node, unknown service, budget exhausted).
    fn prepare(
        &mut self,
        doc: &Document,
        cand: &Candidate,
    ) -> Option<(axml_xml::Forest, Vec<String>)> {
        if self.budget == 0 {
            // not marked truncated here: a failed batch mate may refund
            // budget and let this call proceed in a later round. The
            // driving loops flag truncation when the budget is still
            // exhausted at re-detection time.
            return None;
        }
        if self.deadline.expired(self.clock.now_ms()) {
            // no dead-marking: the call stays detectable, so a zero-cost
            // cache hit (probed before this gate) can still resolve it.
            // The driving loops flag deadline truncation when a round
            // closes without progress.
            self.deadline_hit = true;
            return None;
        }
        if !doc.is_alive(cand.node) {
            return None;
        }
        match doc.call_info(cand.node) {
            Some((id, _)) if id == cand.call => {}
            _ => return None, // slot reused by a different node
        }
        if !self.engine.registry.has_service(&cand.service) {
            self.dead.insert(cand.call);
            self.stats.skipped_unknown += 1;
            if self.observing() {
                self.emit(EventKind::UnknownService {
                    service: cand.service.clone(),
                    call: cand.call.0,
                });
            }
            return None;
        }
        if let Some(reason) = self.shed_reason(&cand.service) {
            // the admission gate refuses the dispatch before the breaker
            // even sees it; like a breaker skip, the call is marked
            // exhausted so the answer degrades to a sound partial result
            // instead of spinning
            self.dead.insert(cand.call);
            self.stats.shed_skips += 1;
            if self.observing() {
                self.emit(EventKind::Shed {
                    service: cand.service.clone(),
                    call: cand.call.0,
                    reason,
                });
            }
            return None;
        }
        if !self
            .engine
            .registry
            .breaker_allows(&cand.service, self.clock.now_ms())
        {
            // an open circuit breaker refuses the dispatch outright; the
            // call is marked exhausted so the rewriting can terminate with
            // a partial answer instead of spinning on a zero-cost skip
            self.dead.insert(cand.call);
            self.stats.breaker_skips += 1;
            self.engine.registry.record_breaker_skip();
            if self.observing() {
                self.emit(EventKind::BreakerSkip {
                    service: cand.service.clone(),
                    call: cand.call.0,
                });
            }
            return None;
        }
        let params = doc.children_to_forest(cand.node);
        let parent_path: Vec<String> = match doc.parent(cand.node) {
            Some(p) => doc.path_labels(p),
            None => Vec::new(),
        };
        // reserve budget now: threaded batches dispatch before applying
        self.budget -= 1;
        *self.batch_admitted.entry(cand.service.clone()).or_default() += 1;
        Some((params, parent_path))
    }

    /// Whether the admission gate sheds a candidate of `service` right
    /// now, and why. Checked per batch: the in-flight gate counts calls
    /// already admitted for the service in the current batch, the latency
    /// gate reads the service's observed cost EWMA.
    fn shed_reason(&self, service: &str) -> Option<ShedReason> {
        let shed = &self.config().shed;
        if shed.max_inflight_per_batch != usize::MAX
            && self.batch_admitted.get(service).copied().unwrap_or(0) >= shed.max_inflight_per_batch
        {
            return Some(ShedReason::Inflight);
        }
        if shed.ewma_limit_ms.is_finite() {
            if let Some(ewma) = self.engine.registry.latency_ewma(service) {
                if ewma > shed.ewma_limit_ms {
                    return Some(ShedReason::Latency);
                }
            }
        }
        None
    }

    /// Probes the cross-query call-result cache for a candidate
    /// (reconstructed §7). On a valid entry the cached forest is spliced
    /// in at **zero** network cost — before the budget and circuit-breaker
    /// gates, so a hit is served even while the service is failing or its
    /// breaker is open — and `true` is returned. Expired entries and
    /// misses return `false` and fall through to the real invoke path.
    fn try_cache(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        pushed: Option<&PushedQuery>,
    ) -> bool {
        let Some(cache) = self.engine.cache else {
            return false;
        };
        if !doc.is_alive(cand.node) {
            return false;
        }
        match doc.call_info(cand.node) {
            Some((id, _)) if id == cand.call => {}
            _ => return false, // slot reused by a different node
        }
        let params = doc.children_to_forest(cand.node);
        match cache.lookup(&cand.service, &params, pushed, self.clock.now_ms()) {
            CacheLookup::Hit(hit) => {
                let parent_path: Vec<String> = match doc.parent(cand.node) {
                    Some(p) => doc.path_labels(p),
                    None => Vec::new(),
                };
                self.splice_result(doc, cand, &parent_path, &hit.result);
                if self.observing() {
                    self.emit(EventKind::CacheProbe {
                        service: cand.service.clone(),
                        call: cand.call.0,
                        outcome: CacheOutcome::Hit,
                    });
                    self.emit(EventKind::Invocation {
                        service: cand.service.clone(),
                        call: cand.call.0,
                        path: parent_path.join("/"),
                        pushed: hit.pushed,
                        cached: true,
                        ok: true,
                        attempts: 0,
                        cost_ms: 0.0,
                        bytes: 0,
                    });
                }
                self.stats.cache_hits += 1;
                true
            }
            CacheLookup::Stale => {
                self.stats.cache_stale += 1;
                if self.observing() {
                    self.emit(EventKind::CacheProbe {
                        service: cand.service.clone(),
                        call: cand.call.0,
                        outcome: CacheOutcome::Stale,
                    });
                }
                false
            }
            CacheLookup::Miss => {
                self.stats.cache_misses += 1;
                if self.observing() {
                    self.emit(EventKind::CacheProbe {
                        service: cand.service.clone(),
                        call: cand.call.0,
                        outcome: CacheOutcome::Miss,
                    });
                }
                false
            }
        }
    }

    /// Records a completed call with the circuit breaker and notifies the
    /// cache when the recorded outcome flipped the breaker's state (the
    /// automatic-invalidation hook of the reconstructed §7).
    fn record_breaker(&mut self, service: &str, ok: bool) {
        let now = self.clock.now_ms();
        let registry = self.engine.registry;
        let allowed_before = registry.breaker_allows(service, now);
        registry.breaker_record(service, ok, now);
        let allowed_after = registry.breaker_allows(service, now);
        if allowed_before != allowed_after {
            if let Some(cache) = self.engine.cache {
                cache.on_breaker_transition(service, !allowed_after);
            }
            if self.observing() {
                self.emit(EventKind::BreakerTransition {
                    service: service.to_string(),
                    open: !allowed_after,
                });
            }
        }
    }

    /// Invokes one candidate; returns its simulated cost, or `None` when
    /// the call was skipped (stale, unknown service, breaker open, budget
    /// exhausted). A cache hit resolves the candidate at zero cost. A
    /// permanent failure counts as *resolved*: it returns the burned cost
    /// and the call joins the dead set, so the rewriting proceeds to a
    /// partial answer instead of aborting.
    fn invoke(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        pushed: Option<&PushedQuery>,
    ) -> Option<f64> {
        if self.try_cache(doc, cand, pushed) {
            return Some(0.0);
        }
        let (params, parent_path) = self.prepare(doc, cand)?;
        let cache_params = self.engine.cache.map(|_| params.clone());
        let remaining = self.deadline.remaining_ms(self.clock.now_ms());
        match self
            .engine
            .registry
            .invoke_within(&cand.service, params, pushed, remaining)
        {
            Ok(outcome) => {
                if let (Some(cache), Some(p)) = (self.engine.cache, cache_params) {
                    cache.store(&cand.service, &p, pushed, &outcome, self.clock.now_ms());
                }
                Some(self.apply(doc, cand, parent_path, outcome))
            }
            Err(InvokeError::Unknown(_)) => {
                // prepare checked existence; defend anyway
                self.budget += 1;
                self.dead.insert(cand.call);
                self.stats.skipped_unknown += 1;
                if self.observing() {
                    self.emit(EventKind::UnknownService {
                        service: cand.service.clone(),
                        call: cand.call.0,
                    });
                }
                None
            }
            Err(InvokeError::Failed(failed)) => Some(self.apply_failure(cand, parent_path, failed)),
        }
    }

    /// Splices a result forest over a call slot and does the shared
    /// bookkeeping (F-guide maintenance, splice log for incremental
    /// detection) — common to real invocations and cache hits.
    fn splice_result(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        parent_path: &[String],
        result: &axml_xml::Forest,
    ) {
        if let Some(g) = &mut self.guide {
            g.remove_call(doc, parent_path, cand.node);
        }
        let parent = doc.parent(cand.node);
        let inserted = doc.splice_call(cand.node, result);
        if let Some(g) = &mut self.guide {
            for &r in &inserted {
                g.add_subtree(doc, r, parent_path);
            }
        }
        self.splice_seq += 1;
        if self.config().incremental_detection {
            // ring buffer: evict the oldest record when full and remember
            // the eviction horizon, so stale queries degrade soundly
            let cap = self.config().splice_log_capacity.max(1);
            if self.splice_log.len() >= cap {
                if let Some(evicted) = self.splice_log.pop_front() {
                    self.splice_floor = self.splice_floor.max(evicted.seq);
                }
            }
            self.splice_log.push_back(SpliceRecord {
                seq: self.splice_seq,
                node: cand.node,
                consumed: cand.call,
                parent_syms: parent.map(|p| doc.path_syms(p)).unwrap_or_default(),
            });
        }
    }

    /// Splices a dispatched call's outcome into the document and accounts
    /// for it; returns the simulated cost.
    fn apply(
        &mut self,
        doc: &mut Document,
        cand: &Candidate,
        parent_path: Vec<String>,
        outcome: axml_services::InvokeOutcome,
    ) -> f64 {
        if self.config().enforce_output_types && !outcome.pushed {
            if let Some(schema) = self.engine.schema {
                if let Some(sig) = schema.function(&cand.service) {
                    let root_ok = axml_schema::forest_matches_type(&outcome.result, &sig.output);
                    let content_errors = axml_schema::validate(&outcome.result, schema)
                        .into_iter()
                        .filter(|e| !matches!(e, axml_schema::ValidationError::RootMismatch { .. }))
                        .count();
                    if !root_ok || content_errors > 0 {
                        self.stats.type_violations += 1;
                    }
                }
            }
        }
        self.splice_result(doc, cand, &parent_path, &outcome.result);
        if self.observing() {
            // the registry reports the final attempt count; individual
            // attempt events are derived here, on the sequential
            // accounting phase (only the last attempt succeeded)
            for i in 0..outcome.attempts {
                self.emit(EventKind::Attempt {
                    service: cand.service.clone(),
                    call: cand.call.0,
                    index: i,
                    ok: i + 1 == outcome.attempts,
                });
            }
            self.emit(EventKind::Invocation {
                service: cand.service.clone(),
                call: cand.call.0,
                path: parent_path.join("/"),
                pushed: outcome.pushed,
                cached: false,
                ok: true,
                attempts: outcome.attempts,
                cost_ms: outcome.cost_ms,
                bytes: outcome.bytes,
            });
        }
        self.stats.calls_invoked += 1;
        self.stats.call_attempts += outcome.attempts;
        self.total_call_cost_ms += outcome.cost_ms;
        self.stats.bytes_transferred += outcome.bytes;
        if outcome.pushed {
            self.stats.pushed_calls += 1;
        }
        *self
            .stats
            .invoked_by_service
            .entry(cand.service.clone())
            .or_default() += 1;
        self.engine
            .registry
            .latency_observe(&cand.service, outcome.cost_ms);
        self.record_breaker(&cand.service, true);
        outcome.cost_ms
    }

    /// Accounts for a call that exhausted its retry budget: the call is
    /// marked exhausted (never re-detected), the reserved invocation
    /// budget is refunded, the failure is recorded in the stats, the trace
    /// and the circuit breaker, and the burned simulated cost is returned
    /// so the caller still charges it to the clock. The document is left
    /// untouched — the final answer simply misses the subtree this call
    /// would have produced.
    fn apply_failure(
        &mut self,
        cand: &Candidate,
        parent_path: Vec<String>,
        failed: FailedCall,
    ) -> f64 {
        self.budget += 1; // the dispatch reserved it; nothing materialized
        self.dead.insert(cand.call);
        self.stats.failed_calls += 1;
        self.stats.call_attempts += failed.attempts;
        self.total_call_cost_ms += failed.cost_ms;
        if failed.deadline_exceeded {
            // the call burned its whole remaining deadline budget — the
            // driving loop will close the round as deadline-truncated if
            // candidates are still pending
            self.deadline_hit = true;
        }
        if self.observing() {
            for i in 0..failed.attempts {
                self.emit(EventKind::Attempt {
                    service: cand.service.clone(),
                    call: cand.call.0,
                    index: i,
                    ok: false,
                });
            }
            self.emit(EventKind::Invocation {
                service: cand.service.clone(),
                call: cand.call.0,
                path: parent_path.join("/"),
                pushed: false,
                cached: false,
                ok: false,
                attempts: failed.attempts,
                cost_ms: failed.cost_ms,
                bytes: 0,
            });
        }
        self.engine
            .registry
            .latency_observe(&cand.service, failed.cost_ms);
        self.record_breaker(&cand.service, false);
        failed.cost_ms
    }

    /// One-at-a-time dispatch (top-down / NFQA): resolves the *first*
    /// candidate that is still invocable, in the given order, advancing
    /// the clock sequentially. Candidates skipped on the way (stale slots,
    /// unknown services, open breakers) do not abort the round — the next
    /// candidate is tried, so degradation never strands invocable calls
    /// behind a refused one. Returns 1 if a candidate was resolved.
    fn invoke_first(
        &mut self,
        doc: &mut Document,
        cands: &[Candidate],
        pushes: &BTreeMap<CallId, PushedQuery>,
    ) -> usize {
        self.batch_admitted.clear();
        for c in cands {
            if let Some(cost) = self.invoke(doc, c, pushes.get(&c.call)) {
                self.clock.advance(cost);
                self.emit(EventKind::Batch {
                    parallel: false,
                    costs: vec![cost],
                    advance_ms: cost,
                });
                return 1;
            }
        }
        0
    }

    /// Invokes a set of candidates, sequential or as a parallel batch
    /// (logical-clock overlap always; real OS threads when configured).
    ///
    /// Returns the number of candidates *resolved*: successful splices
    /// plus permanent failures. Both advance the rewriting — a failed call
    /// joins the dead set and is never re-detected — so callers' loops
    /// terminate with a partial answer instead of spinning or aborting.
    fn invoke_set(
        &mut self,
        doc: &mut Document,
        cands: &[Candidate],
        pushes: &BTreeMap<CallId, PushedQuery>,
        parallel: bool,
    ) -> usize {
        let mut invoked = 0;
        self.batch_admitted.clear();
        if parallel {
            // phase 0/1: serve cache hits immediately (zero cost, so they
            // don't contribute to the batch's clock advance), then
            // validate the remaining candidates for dispatch. Hits splice
            // right away — candidates are distinct call slots, and calls
            // never nest inside another call's parameters, so a hit
            // cannot invalidate a batch mate.
            let mut prepared: Vec<(&Candidate, axml_xml::Forest, Vec<String>)> = Vec::new();
            for c in cands {
                if self.try_cache(doc, c, pushes.get(&c.call)) {
                    invoked += 1;
                    continue;
                }
                if let Some((params, path)) = self.prepare(doc, c) {
                    prepared.push((c, params, path));
                }
            }
            // the remaining deadline budget and each call's hedge trigger
            // are fixed here, on the sequential phase, before any dispatch
            // — the latency EWMA only moves during phase 3, so threaded
            // and sequential dispatch see identical values
            let remaining = self.deadline.remaining_ms(self.clock.now_ms());
            let hedge_cfg = self.config().hedge;
            let registry = self.engine.registry;
            let triggers: Vec<f64> = prepared
                .iter()
                .map(|(c, _, _)| hedge_cfg.trigger_ms(registry.latency_ewma(&c.service)))
                .collect();
            // phase 2: dispatch — one OS thread per call when configured,
            // sequentially under the logical clock otherwise. Either way
            // the whole batch is dispatched before any result is applied,
            // so a mid-batch failure cannot starve its siblings and both
            // modes observe identical fault and breaker schedules.
            type Dispatched = (Result<InvokeOutcome, InvokeError>, Option<HedgeLeg>);
            let results: Vec<Dispatched> = if self.config().real_threads {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = prepared
                        .iter()
                        .zip(&triggers)
                        .map(|((c, params, _), trigger)| {
                            let params = params.clone();
                            let pushed = pushes.get(&c.call);
                            let service = c.service.clone();
                            let trigger = *trigger;
                            scope.spawn(move || {
                                dispatch_hedged(
                                    registry, &service, params, pushed, remaining, trigger,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("service panicked"))
                        .collect()
                })
            } else {
                prepared
                    .iter()
                    .zip(&triggers)
                    .map(|((c, params, _), trigger)| {
                        dispatch_hedged(
                            registry,
                            &c.service,
                            params.clone(),
                            pushes.get(&c.call),
                            remaining,
                            *trigger,
                        )
                    })
                    .collect()
            };
            // phase 3: splice sequentially, deterministically. A fired
            // hedge leg is accounted here, exactly once per logical call:
            // the `hedge` event precedes the single invocation outcome.
            let mut costs = Vec::new();
            for ((c, params, path), (res, hedge)) in prepared.into_iter().zip(results) {
                if let Some(leg) = &hedge {
                    self.stats.hedged_calls += 1;
                    if leg.hedge_won {
                        self.stats.hedge_wins += 1;
                    }
                    self.stats.hedge_wasted_ms += leg.wasted_ms;
                    if self.observing() {
                        self.emit(EventKind::Hedge {
                            service: c.service.clone(),
                            call: c.call.0,
                            fired_at_ms: leg.fired_at_ms,
                            primary_cost_ms: leg.primary_cost_ms,
                            hedge_cost_ms: leg.hedge_cost_ms,
                            hedge_won: leg.hedge_won,
                        });
                    }
                }
                match res {
                    Ok(outcome) => {
                        if let Some(cache) = self.engine.cache {
                            cache.store(
                                &c.service,
                                &params,
                                pushes.get(&c.call),
                                &outcome,
                                self.clock.now_ms(),
                            );
                        }
                        costs.push(self.apply(doc, c, path, outcome));
                        invoked += 1;
                    }
                    Err(InvokeError::Unknown(_)) => {
                        self.budget += 1;
                        self.dead.insert(c.call);
                        self.stats.skipped_unknown += 1;
                        if self.observing() {
                            self.emit(EventKind::UnknownService {
                                service: c.service.clone(),
                                call: c.call.0,
                            });
                        }
                    }
                    Err(InvokeError::Failed(failed)) => {
                        costs.push(self.apply_failure(c, path, failed));
                        invoked += 1;
                    }
                }
            }
            self.clock.advance_parallel(&costs);
            if !costs.is_empty() {
                let advance_ms = costs.iter().copied().fold(0.0, f64::max);
                self.emit(EventKind::Batch {
                    parallel: true,
                    costs,
                    advance_ms,
                });
            }
        } else {
            let mut costs = Vec::new();
            for c in cands {
                if let Some(cost) = self.invoke(doc, c, pushes.get(&c.call)) {
                    self.clock.advance(cost);
                    costs.push(cost);
                    invoked += 1;
                }
            }
            if !costs.is_empty() {
                let advance_ms = costs.iter().sum();
                self.emit(EventKind::Batch {
                    parallel: false,
                    costs,
                    advance_ms,
                });
            }
        }
        invoked
    }

    // ---------------- naive ----------------

    fn run_naive(&mut self, doc: &mut Document) {
        loop {
            let cands: Vec<Candidate> = self
                .visible_calls(doc)
                .into_iter()
                .map(|(node, call, service)| Candidate {
                    node,
                    call,
                    service,
                    foci: BTreeSet::new(),
                })
                .collect();
            if cands.is_empty() || self.budget == 0 {
                self.note_truncation(cands.len());
                break;
            }
            self.stats.rounds += 1;
            self.emit_candidates(&cands);
            let par = self.config().parallel;
            let invoked = self.invoke_set(doc, &cands, &BTreeMap::new(), par);
            if invoked == 0 {
                // everything left is dead — or undispatchable because the
                // deadline expired
                self.note_truncation(self.pending_count(&cands));
                break;
            }
        }
    }

    // ---------------- LPQ / top-down ----------------

    fn run_lpq(&mut self, doc: &mut Document, plan: &CompiledQuery, one_at_a_time: bool) {
        self.stats.queries_pruned = plan.lpq_pruned;
        loop {
            let t = Instant::now();
            let mut cands: Vec<Candidate> = Vec::new();
            let mut seen: HashSet<CallId> = HashSet::new();
            // LPQ patterns are immutable over the run, so their compiled
            // plans apply verbatim (remap per eval)
            for (lpq, lpq_plan) in plan.lpqs.iter().zip(&plan.lpq_plans) {
                self.stats.relevance_evals += 1;
                let opts = self.config().eval_options;
                let r = lpq_plan.eval_with(doc, opts, &mut self.eval_cache);
                for node in r.bindings_of(lpq.output) {
                    if let Some((id, svc)) = doc.call_info(node) {
                        if !self.dead.contains(&id) && seen.insert(id) {
                            cands.push(Candidate {
                                node,
                                call: id,
                                service: svc.to_string(),
                                foci: BTreeSet::new(),
                            });
                        }
                    }
                }
            }
            self.stats.relevance_cpu += t.elapsed();
            if cands.is_empty() || self.budget == 0 {
                self.note_truncation(cands.len());
                break;
            }
            cands.sort_by(|a, b| doc.cmp_document_order(a.node, b.node));
            self.stats.rounds += 1;
            self.emit_candidates(&cands);
            let invoked = if one_at_a_time {
                self.invoke_first(doc, &cands, &BTreeMap::new())
            } else {
                self.invoke_set(doc, &cands, &BTreeMap::new(), self.config().parallel)
            };
            if invoked == 0 && cands.iter().all(|c| self.dead.contains(&c.call)) {
                break;
            }
            if invoked == 0 {
                // nothing invocable this round (all stale/unknown): the
                // candidate set can only shrink, so re-detect once more and
                // stop if it repeats
                let still: Vec<&Candidate> = cands
                    .iter()
                    .filter(|c| !self.dead.contains(&c.call))
                    .collect();
                if !still.is_empty() {
                    self.note_truncation(still.len());
                    break;
                }
            }
        }
    }

    // ---------------- NFQ (NFQA + layers + typing + F-guide) ----------------

    fn run_nfq(&mut self, doc: &mut Document, plan: &'q CompiledQuery) {
        let mut nfqs = Vec::new();
        self.load_nfqs(plan, &mut nfqs);
        self.stats.queries_pruned = plan.nfq_pruned;
        let single;
        let layers: &Layers = if self.config().layering {
            &plan.layers
        } else {
            // a single layer containing everything; check (✳) globally
            let computed = &plan.layers;
            let independent =
                computed.layers.len() == nfqs.len() && computed.independent.iter().all(|&b| b);
            single = Layers {
                layers: vec![(0..nfqs.len()).collect()],
                independent: vec![independent],
            };
            &single
        };

        if self.config().use_fguide {
            self.guide = Some(FGuide::build(doc));
        }

        let mut refiner = self.engine.refiner(self.query, plan);

        if self.config().speculation != Speculation::Off {
            self.run_nfq_speculative(doc, &nfqs, &mut refiner);
            return;
        }

        // focus → layer index, for the post-layer simplification
        let mut layer_of: BTreeMap<axml_query::PNodeId, usize> = BTreeMap::new();
        for (li, layer) in layers.layers.iter().enumerate() {
            for &i in layer {
                layer_of.insert(nfqs[i].focus, li);
            }
        }

        for (li, layer) in layers.layers.iter().enumerate() {
            let parallel_ok = layers.independent[li] && self.config().parallel;
            self.layer = li;
            self.emit(EventKind::LayerStart {
                nfqs: layer.len(),
                independent: layers.independent[li],
            });
            loop {
                let (cands, pushes) = self.detect_nfq_candidates(doc, &nfqs, layer, &mut refiner);
                if cands.is_empty() || self.budget == 0 {
                    self.note_truncation(cands.len());
                    break;
                }
                self.stats.rounds += 1;
                self.emit_candidates(&cands);
                let invoked = if parallel_ok {
                    self.invoke_set(doc, &cands, &pushes, true)
                } else {
                    // NFQA: one relevant call, then re-evaluate
                    let mut sorted = cands.clone();
                    sorted.sort_by(|a, b| doc.cmp_document_order(a.node, b.node));
                    self.invoke_first(doc, &sorted, &pushes)
                };
                if invoked == 0 && cands.iter().all(|c| self.dead.contains(&c.call)) {
                    break;
                }
                if invoked == 0 {
                    self.note_truncation(self.pending_count(&cands));
                    break;
                }
            }
            self.emit(EventKind::LayerEnd);
            // §4.3: drop the `()` side branches guarding positions whose
            // layers are now fully processed
            if self.config().simplify_layers {
                let mut changed_nfqs: Vec<usize> = Vec::new();
                for (ni, nfq) in nfqs.iter_mut().enumerate() {
                    let doomed: Vec<axml_query::PNodeId> = nfq
                        .fun_branches
                        .iter()
                        .filter(|&&(f, u)| {
                            f != nfq.output && layer_of.get(&u).is_some_and(|&lu| lu <= li)
                        })
                        .map(|&(f, _)| f)
                        .collect();
                    if !doomed.is_empty() {
                        for f in &doomed {
                            nfq.pattern.remove_subtree(*f);
                        }
                        nfq.fun_branches.retain(|(f, _)| !doomed.contains(f));
                        changed_nfqs.push(ni);
                    }
                }
                for ni in changed_nfqs {
                    self.nfq_cache.remove(&ni);
                    self.affected_nfas[ni] = None;
                    self.pos_nfas[ni] = None;
                    self.affected_sym.remove(&ni);
                    self.pos_sym.remove(&ni);
                }
            }
        }
    }

    /// §4.4's closing direction: fire every currently relevant call in one
    /// parallel batch, ignoring the layer order and condition (✳). With
    /// `Speculation::CostBased`, the first call is fired alone to observe
    /// the service cost; batching starts once the mean call cost exceeds
    /// the threshold.
    fn run_nfq_speculative(
        &mut self,
        doc: &mut Document,
        nfqs: &[Nfq],
        refiner: &mut Option<TypeRefiner<'_, '_>>,
    ) {
        let all: Vec<usize> = (0..nfqs.len()).collect();
        loop {
            let (cands, pushes) = self.detect_nfq_candidates(doc, nfqs, &all, refiner);
            if cands.is_empty() || self.budget == 0 {
                self.note_truncation(cands.len());
                break;
            }
            self.stats.rounds += 1;
            self.emit_candidates(&cands);
            let avg_cost = if self.stats.calls_invoked > 0 {
                Some(self.total_call_cost_ms / self.stats.calls_invoked as f64)
            } else {
                None
            };
            let speculate = match self.config().speculation {
                Speculation::Always => true,
                Speculation::CostBased {
                    latency_threshold_ms,
                } => avg_cost.is_some_and(|c| c >= latency_threshold_ms),
                Speculation::Off => unreachable!("handled by run_nfq"),
            };
            let invoked = if speculate {
                self.stats.speculative_rounds += 1;
                self.invoke_set(doc, &cands, &pushes, true)
            } else {
                let mut sorted = cands.clone();
                sorted.sort_by(|a, b| doc.cmp_document_order(a.node, b.node));
                self.invoke_first(doc, &sorted, &pushes)
            };
            if invoked == 0 {
                self.note_truncation(self.pending_count(&cands));
                break;
            }
        }
    }

    /// Did any splice after `since` touch a position observable by NFQ
    /// `i`'s pattern? Tested on the prefix closure of the union of the
    /// pattern's root-path languages (conservative: may say yes
    /// needlessly, never no wrongly). When the ring buffer has evicted
    /// records newer than `since`, the answer degrades to `true` — the
    /// lost history might have contained a relevant splice.
    fn affected_since(&mut self, doc: &Document, i: usize, nfq: &Nfq, since: u64) -> bool {
        if since < self.splice_floor {
            self.stats.splice_degradations += 1;
            return true; // history evicted: assume affected
        }
        if self.splice_log.iter().all(|r| r.seq <= since) {
            return false;
        }
        // symbol-compiled form, recompiled whenever the symbol table grew
        // (a label unknown at compile time may have been interned since)
        let sym_count = doc.sym_count();
        if !matches!(self.affected_sym.get(&i), Some((stamp, _)) if *stamp == sym_count) {
            let nfa =
                self.affected_nfas[i].get_or_insert_with(|| Cow::Owned(affected_language(nfq)));
            let compiled = SymAuto::compile(nfa.compile_syms(|l| doc.lookup_sym(l)));
            self.affected_sym.insert(i, (sym_count, compiled));
        }
        let nfa = &self.affected_sym[&i].1;
        self.splice_log
            .iter()
            .any(|r| r.seq > since && nfa.accepts(&r.parent_syms))
    }

    /// Is the call node visible (not nested inside another call's
    /// parameters) and positioned where NFQ `i`'s linear path (via its
    /// output edge) can retrieve it? Pure position test — side conditions
    /// and service tests are checked elsewhere.
    fn call_position_matches(&mut self, doc: &Document, i: usize, nfq: &Nfq, call: NodeId) -> bool {
        // visibility: every strict ancestor must be a data node
        let mut cur = doc.parent(call);
        while let Some(p) = cur {
            if !doc.is_data(p) {
                return false;
            }
            cur = doc.parent(p);
        }
        // position language: L(lin), suffix-closed for descendant-ended
        // NFQs (calls strictly below any node matching the path)
        let sym_count = doc.sym_count();
        if !matches!(self.pos_sym.get(&i), Some((stamp, _)) if *stamp == sym_count) {
            let nfa = self.pos_nfas[i].get_or_insert_with(|| Cow::Owned(position_language(nfq)));
            let compiled = SymAuto::compile(nfa.compile_syms(|l| doc.lookup_sym(l)));
            self.pos_sym.insert(i, (sym_count, compiled));
        }
        let word = match doc.parent(call) {
            Some(p) => doc.path_syms(p),
            None => Vec::new(),
        };
        self.pos_sym[&i].1.accepts(&word)
    }

    /// The *positional* candidate set of NFQ `i`: visible calls whose
    /// parent path matches the NFQ's linear path. With a usable cache
    /// entry (its history still covered by the splice log), this is
    /// delta-scoped: cached candidates are kept unless their call was
    /// consumed by a splice, and only calls created since the entry's
    /// watermark are position-tested. Without one, it falls back to a
    /// fresh scan of the document's (unordered) call list.
    fn positional_candidates(
        &mut self,
        doc: &Document,
        i: usize,
        nfq: &Nfq,
        base: Option<NfqCacheEntry>,
    ) -> Vec<CachedCandidate> {
        let (mut out, watermark) = match base {
            Some(e) if e.seq >= self.splice_floor => {
                self.stats.nfq_delta_evals += 1;
                let retired: HashSet<(NodeId, CallId)> = self
                    .splice_log
                    .iter()
                    .filter(|r| r.seq > e.seq)
                    .map(|r| (r.node, r.consumed))
                    .collect();
                let kept: Vec<CachedCandidate> = e
                    .positional
                    .into_iter()
                    .filter(|&(n, id, _)| !retired.contains(&(n, id)))
                    .collect();
                (kept, e.call_watermark)
            }
            Some(_) => {
                // cached entry predates the splice log's floor: its
                // history is gone, so degrade to a full fresh scan
                self.stats.splice_degradations += 1;
                (Vec::new(), 0)
            }
            None => (Vec::new(), 0),
        };
        for &c in doc.calls_unordered() {
            let Some((id, svc)) = doc.call_info(c) else {
                continue;
            };
            if id.0 < watermark {
                continue; // already covered by the cached set
            }
            let svc = svc.clone();
            if self.call_position_matches(doc, i, nfq, c) {
                out.push((c, id, svc.to_string()));
            }
        }
        out.sort_by_key(|e| e.1);
        out.dedup_by_key(|e| e.1);
        out
    }

    /// Evaluates the NFQs of one layer and assembles the candidate set and
    /// the pushed queries (for uniquely-retrieved calls).
    fn detect_nfq_candidates(
        &mut self,
        doc: &Document,
        nfqs: &[Nfq],
        layer: &[usize],
        refiner: &mut Option<TypeRefiner<'_, '_>>,
    ) -> (Vec<Candidate>, BTreeMap<CallId, PushedQuery>) {
        let t = Instant::now();
        // function names currently in the document (for refinement)
        let known: Vec<String> = {
            let mut v: Vec<String> = self
                .visible_calls(doc)
                .into_iter()
                .map(|(_, _, s)| s)
                .collect();
            v.sort();
            v.dedup();
            v
        };
        let mut by_call: BTreeMap<CallId, Candidate> = BTreeMap::new();
        for &i in layer {
            let nfq = &nfqs[i];
            // incremental detection: reuse the cached candidate set when
            // no splice since the last evaluation touched a position this
            // NFQ's pattern can observe
            let mut delta_base: Option<NfqCacheEntry> = None;
            if self.config().incremental_detection {
                let entry = self.nfq_cache.get(&i).cloned();
                if let Some(entry) = entry {
                    if !self.affected_since(doc, i, nfq, entry.seq) {
                        self.stats.nfq_evals_skipped += 1;
                        for (node, id, svc) in entry.retrieved {
                            if self.dead.contains(&id) || !doc.is_alive(node) {
                                continue;
                            }
                            match doc.call_info(node) {
                                Some((cur, _)) if cur == id => {}
                                _ => continue, // slot reused
                            }
                            by_call
                                .entry(id)
                                .or_insert_with(|| Candidate {
                                    node,
                                    call: id,
                                    service: svc.clone(),
                                    foci: BTreeSet::new(),
                                })
                                .foci
                                .insert(nfq.focus);
                        }
                        continue;
                    }
                    delta_base = Some(entry);
                }
            }
            let effective = match refiner.as_mut() {
                Some(r) => match r.refine(nfq, &known) {
                    Some(refined) => refined,
                    None => continue, // no function can ever satisfy v
                },
                None => nfq.clone(),
            };
            self.stats.relevance_evals += 1;
            let mut positional: Vec<CachedCandidate> = Vec::new();
            let retrieved: Vec<NodeId> = if let Some(g) = &self.guide {
                let cands: Vec<NodeId> = g
                    .eval_linear(doc, &effective.lin, effective.via)
                    .into_iter()
                    .filter(|(_, svc)| match refiner.as_mut() {
                        Some(r) => r.satisfies(svc.as_str(), nfq.focus),
                        None => true,
                    })
                    .map(|(n, _)| n)
                    .collect();
                filter_candidates(&effective, doc, &cands)
            } else if self.config().incremental_detection && nfq.pattern.join_variables().is_empty()
            {
                // delta-scoped re-evaluation: maintain the positional set
                // from the splice log / call-id watermark instead of
                // re-walking the document, then re-check the (possibly
                // non-monotone) residual conditions on the survivors.
                // Join NFQs fall through to the full evaluation: residual
                // filtering is join-blind.
                positional = self.positional_candidates(doc, i, nfq, delta_base);
                let pos_nodes: Vec<NodeId> = positional
                    .iter()
                    .filter(|(_, _, svc)| output_accepts(&effective, svc))
                    .map(|&(n, _, _)| n)
                    .collect();
                let got = filter_candidates(&effective, doc, &pos_nodes);
                #[cfg(debug_assertions)]
                {
                    // cross-check against the seed evaluator (string
                    // compares, no index) — an independent code path
                    let full: BTreeSet<NodeId> = axml_query::seed_eval(&effective.pattern, doc)
                        .bindings_of(effective.output)
                        .into_iter()
                        .collect();
                    let mine: BTreeSet<NodeId> = got.iter().copied().collect();
                    assert_eq!(
                        mine, full,
                        "delta-scoped NFQ candidates diverged from full evaluation"
                    );
                }
                got
            } else {
                let opts = self.config().eval_options;
                eval_with(&effective.pattern, doc, opts, &mut self.eval_cache)
                    .bindings_of(effective.output)
            };
            let mut cache_entry: Vec<CachedCandidate> = Vec::new();
            for node in retrieved {
                let Some((id, svc)) = doc.call_info(node) else {
                    continue;
                };
                if self.config().incremental_detection {
                    cache_entry.push((node, id, svc.to_string()));
                }
                if self.dead.contains(&id) {
                    continue;
                }
                by_call
                    .entry(id)
                    .or_insert_with(|| Candidate {
                        node,
                        call: id,
                        service: svc.to_string(),
                        foci: BTreeSet::new(),
                    })
                    .foci
                    .insert(nfq.focus);
            }
            if self.config().incremental_detection {
                // an empty positional set with watermark 0 makes a later
                // delta attempt rescan every call — correct for entries
                // built by the guide / full-eval branches
                let call_watermark = if positional.is_empty() {
                    0
                } else {
                    doc.next_call_id()
                };
                self.nfq_cache.insert(
                    i,
                    NfqCacheEntry {
                        seq: self.splice_seq,
                        call_watermark,
                        positional,
                        retrieved: cache_entry,
                    },
                );
            }
        }
        self.stats.relevance_cpu += t.elapsed();

        let mut pushes = BTreeMap::new();
        if self.config().push_queries {
            for cand in by_call.values() {
                // Push only when exactly one query node can justify the
                // call: pruning for one subquery could drop data another
                // needs. The check must range over ALL NFQs — with
                // layering, a later layer's NFQ may also retrieve this
                // call even though only the current layer evaluated it.
                if cand.foci.len() != 1 || !self.engine.registry.supports_push(&cand.service) {
                    continue;
                }
                let parent_word: Vec<String> = match doc.parent(cand.node) {
                    Some(p) => doc.path_labels(p),
                    None => Vec::new(),
                };
                let word: Vec<&str> = parent_word.iter().map(String::as_str).collect();
                let positional_foci: BTreeSet<axml_query::PNodeId> = nfqs
                    .iter()
                    .filter(|n| match n.via {
                        EdgeKind::Child => n.lin.matches_word(&word),
                        EdgeKind::Descendant => {
                            (0..=word.len()).any(|k| n.lin.matches_word(&word[..k]))
                        }
                    })
                    .map(|n| n.focus)
                    .collect();
                if positional_foci.len() == 1 {
                    let &focus = cand.foci.iter().next().unwrap();
                    let via = if self.query.parent(focus).is_none() {
                        EdgeKind::Child
                    } else {
                        self.query.node(focus).edge
                    };
                    pushes.insert(
                        cand.call,
                        PushedQuery {
                            pattern: self.query.subtree(focus),
                            via,
                        },
                    );
                }
            }
        }
        (by_call.into_values().collect(), pushes)
    }
}
