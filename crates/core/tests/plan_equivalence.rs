//! The differential plan-equivalence oracle: for random documents,
//! queries and schemas, evaluating through a [`CompiledQuery`] compiled
//! once and reused must be **observationally identical** to compiling a
//! fresh plan per run — same answers, same structured trace byte for
//! byte, same statistics — across every engine mode: all
//! strategy/optimization combinations, fault schedules with retries, a
//! shared call cache warmed across queries, and both serve schedulers with
//! a plan-reusing and a never-reusing (capacity 0) store plan cache.
//!
//! The cold side attaches no plan, so the engine compiles one on entry.
//! The warm side attaches, with [`Engine::with_plan`], the plan a shared
//! [`PlanCache`] compiled the first time it saw the `(query, schema,
//! config)` key; later documents, runs and modes with the same key reuse
//! it, together with the satisfiability verdicts earlier runs stored in
//! it. A separate case pins the compatibility gate: a plan compiled for a
//! different key, once attached, must be inert.

use axml_core::{CompiledQuery, Engine, EngineConfig, EngineStats};
use axml_gen::synthetic::{random_query, random_workload, SyntheticParams};
use axml_obs::{to_jsonl, RingSink, StatsView};
use axml_query::{render_result, Pattern};
use axml_schema::Schema;
use axml_services::{FaultProfile, Registry, RetryPolicy};
use axml_store::{
    CacheConfig, CallCache, DocumentStore, PlanCache, PlanCacheConfig, QueryOutcome, SchedulerMode,
    SessionSpec,
};
use axml_xml::Document;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

type Answers = BTreeSet<Vec<String>>;

/// Everything one evaluation observably produced. Two runs that agree on
/// this value are indistinguishable to any consumer of the engine.
#[derive(Debug, PartialEq)]
struct Observation {
    answers: Answers,
    complete: bool,
    trace_jsonl: String,
    stats: StatsView,
    /// Engine-internal counters not part of the [`StatsView`] projection
    /// (the CPU `Duration`s stay excluded: wall clock is not semantics).
    extra: (
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
    ),
}

fn extra_counters(
    s: &EngineStats,
) -> (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
) {
    (
        s.rounds,
        s.relevance_evals,
        s.queries_pruned,
        s.speculative_rounds,
        s.type_violations,
        s.nfq_evals_skipped,
        s.nfq_delta_evals,
        s.splice_degradations,
        s.guide_nodes,
        s.final_doc_size,
    )
}

/// Runs one evaluation. `plan` is attached whenever given — the engine
/// uses it only if it is compatible with `(q, schema, config)`. `cache`,
/// when given, wires a shared call cache (each side of a
/// differential pair gets its own, identically configured).
fn observe(
    doc: &Document,
    q: &Pattern,
    registry: &Registry,
    schema: Option<&Schema>,
    config: EngineConfig,
    plan: Option<&Arc<CompiledQuery>>,
    cache: Option<&CallCache>,
) -> Observation {
    let ring = RingSink::unbounded();
    let mut d = doc.clone();
    let mut engine = Engine::new(registry, config).with_observer(&ring);
    if let Some(plan) = plan {
        engine = engine.with_plan(Arc::clone(plan));
    }
    if let Some(schema) = schema {
        engine = engine.with_schema(schema);
    }
    if let Some(cache) = cache {
        engine = engine.with_cache(cache);
    }
    let report = engine.evaluate(&mut d, q);
    d.check_integrity().unwrap();
    Observation {
        answers: render_result(&d, &report.result).into_iter().collect(),
        complete: report.complete,
        trace_jsonl: to_jsonl(&ring.events()),
        stats: report.stats.view(),
        extra: extra_counters(&report.stats),
    }
}

/// The differential heart: cold (no plan attached, so the engine
/// compiles one per run) vs warm (the shared cache's plan for this key,
/// possibly compiled and used by earlier runs).
fn assert_plan_equivalent(
    label: &str,
    doc: &Document,
    q: &Pattern,
    registry: &Registry,
    schema: Option<&Schema>,
    config: &EngineConfig,
    plans: &PlanCache,
) -> Result<(), TestCaseError> {
    let cold = observe(doc, q, registry, schema, config.clone(), None, None);
    let plan = plans.fetch(q, schema, config);
    let warm = observe(doc, q, registry, schema, config.clone(), Some(&plan), None);
    prop_assert_eq!(
        &warm,
        &cold,
        "mode {} observably diverges between a reused plan and a per-run compile",
        label
    );
    Ok(())
}

/// The full engine-mode matrix (mirrors the cross-strategy equivalence
/// suite): every strategy and optimization combination the engine ships.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    use axml_core::{Speculation, Strategy};
    vec![
        ("naive", EngineConfig::naive()),
        ("topdown", EngineConfig::top_down()),
        ("lpq", EngineConfig::lpq()),
        (
            "lpq-par",
            EngineConfig {
                parallel: true,
                ..EngineConfig::lpq()
            },
        ),
        ("nfq-plain", EngineConfig::nfq_plain()),
        (
            "nfq-layered",
            EngineConfig {
                layering: true,
                simplify_layers: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-fguide",
            EngineConfig {
                use_fguide: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-push",
            EngineConfig {
                push_queries: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-relaxed",
            EngineConfig {
                relax_xpath: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-incremental-layered",
            EngineConfig {
                incremental_detection: true,
                layering: true,
                simplify_layers: true,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-no-containment",
            EngineConfig {
                containment_pruning: false,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-speculative",
            EngineConfig {
                speculation: Speculation::Always,
                ..EngineConfig::nfq_plain()
            },
        ),
        (
            "nfq-everything",
            EngineConfig {
                strategy: Strategy::Nfq,
                use_fguide: true,
                push_queries: true,
                layering: true,
                simplify_layers: true,
                ..EngineConfig::default()
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reused-vs-per-run plan invariance across the full mode matrix on
    /// random synthetic workloads: answers, traces (byte for byte) and
    /// stats all agree, in every mode. One plan cache serves the whole
    /// matrix, so modes sharing a compile key share one plan.
    #[test]
    fn reused_plan_is_observably_identical_in_every_mode(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        doc_nodes in 30usize..100,
        call_probability in 0.05f64..0.5,
    ) {
        let params = SyntheticParams {
            seed: wseed,
            doc_nodes,
            call_probability,
            ..Default::default()
        };
        let (doc, registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        let plans = PlanCache::new(PlanCacheConfig::default());
        for (name, config) in configs() {
            assert_plan_equivalent(name, &doc, &q, &registry, None, &config, &plans)?;
        }
    }

    /// The compatibility gate: a plan compiled under a different XPath
    /// relaxation, typing, containment setting or schema, once attached,
    /// is ignored — the run observes exactly as with no plan at all.
    #[test]
    fn an_incompatible_plan_is_inert_in_every_mode(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
    ) {
        use axml_core::Typing;
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        let schema = axml_schema::figure2_schema();
        for (name, config) in configs() {
            let others = [
                (None, EngineConfig { relax_xpath: !config.relax_xpath, ..config.clone() }),
                (None, EngineConfig {
                    containment_pruning: !config.containment_pruning,
                    ..config.clone()
                }),
                (None, EngineConfig {
                    typing: if config.typing == Typing::Exact { Typing::Lenient } else { Typing::Exact },
                    ..config.clone()
                }),
                (Some(&schema), config.clone()),
            ];
            let alone = observe(&doc, &q, &registry, None, config.clone(), None, None);
            for (other_schema, other_config) in others {
                let plan = Arc::new(CompiledQuery::compile(&q, other_schema, &other_config));
                prop_assert!(!plan.compatible(&q, None, &config));
                let attached = observe(&doc, &q, &registry, None, config.clone(), Some(&plan), None);
                prop_assert_eq!(
                    &attached,
                    &alone,
                    "mode {}: an incompatible plan changed the run",
                    name
                );
            }
        }
    }

    /// Same invariance under a random deterministic fault schedule with a
    /// retry budget that outlasts the transients: the reused plan must
    /// reproduce the per-run compile's retries, breaker bookkeeping and
    /// fault accounting event for event.
    #[test]
    fn reused_plan_is_identical_under_faults_and_retries(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
        fseed in 1u64..10_000,
        fail_prob in 0.0f64..1.0,
        transients in 1usize..3,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, mut registry) = random_workload(&params);
        let q = random_query(qseed, params.alphabet, 7);
        registry.set_default_fault_profile(FaultProfile {
            seed: fseed,
            fail_prob,
            transient_failures: transients,
            timeout_prob: 0.25,
            slowdown_prob: 0.1,
            slowdown_factor: 3.0,
        });
        registry.set_retry_policy(RetryPolicy::default().with_retries(3));
        let plans = PlanCache::new(PlanCacheConfig::default());
        for (name, config) in [
            ("default", EngineConfig::default()),
            (
                "layered",
                EngineConfig {
                    layering: true,
                    simplify_layers: true,
                    ..EngineConfig::nfq_plain()
                },
            ),
        ] {
            assert_plan_equivalent(name, &doc, &q, &registry, None, &config, &plans)?;
        }
    }

    /// Schema-typed invariance on instances generated straight from τ: a
    /// reused plan, whose verdict store earlier runs filled, must type
    /// exactly as a fresh one, including typing-driven pruning decisions.
    #[test]
    fn reused_plan_is_identical_with_schema_typing(seed in 0u64..10_000) {
        use axml_gen::from_schema::{random_instance, InstanceParams};
        let schema = axml_schema::figure2_schema();
        let (doc, registry) = random_instance(
            &schema,
            "hotels",
            &InstanceParams { seed, ..Default::default() },
        );
        let q = axml_gen::figure4_query();
        let plans = PlanCache::new(PlanCacheConfig::default());
        for (name, config) in [
            ("typed-default", EngineConfig::default()),
            ("typed-naive", EngineConfig::naive()),
            (
                "typed-layered",
                EngineConfig {
                    layering: true,
                    simplify_layers: true,
                    ..EngineConfig::nfq_plain()
                },
            ),
        ] {
            // twice: the second run reuses verdicts the first one stored
            for _ in 0..2 {
                assert_plan_equivalent(name, &doc, &q, &registry, Some(&schema), &config, &plans)?;
            }
        }
    }

    /// Shared-call-cache invariance: each side gets its *own* identically
    /// configured call cache and runs three queries back to back, so the
    /// later queries' hit/stale pattern — and the cache-probe events they
    /// emit — must reproduce exactly when the repeated query reuses its
    /// plan.
    #[test]
    fn reused_plan_is_identical_through_a_warming_call_cache(
        wseed in 0u64..10_000,
        qseed in 0u64..10_000,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (doc, registry) = random_workload(&params);
        let queries = [
            random_query(qseed, params.alphabet, 7),
            random_query(qseed.wrapping_add(1), params.alphabet, 7),
            random_query(qseed, params.alphabet, 7), // repeat: warm hits
        ];
        let config = EngineConfig::default();
        let run_side = |reuse: bool| {
            let cache = CallCache::new(CacheConfig::default());
            let plans = PlanCache::new(PlanCacheConfig::default());
            queries
                .iter()
                .map(|q| {
                    let plan = reuse.then(|| plans.fetch(q, None, &config));
                    observe(&doc, q, &registry, None, config.clone(), plan.as_ref(), Some(&cache))
                })
                .collect::<Vec<_>>()
        };
        let cold = run_side(false);
        let warm = run_side(true);
        prop_assert_eq!(
            &warm, &cold,
            "cache-warmed sequence diverges (wseed={}, qseed={})", wseed, qseed
        );
    }
}

/// The interleaving-independent projection of a [`QueryOutcome`] (drops
/// `wall_ms`, the only wall-clock field).
fn sim_outcome(o: &QueryOutcome) -> (Answers, bool, usize, usize, f64, u64) {
    (
        o.answers.clone(),
        o.complete,
        o.calls_invoked,
        o.cache_hits,
        o.sim_time_ms,
        o.doc_version,
    )
}

/// Three sessions over one random document: each asks two queries of its
/// own and one query all three share.
fn serve_store(
    params: &SyntheticParams,
    plans: PlanCacheConfig,
) -> (DocumentStore, Registry, Vec<SessionSpec>) {
    let (doc, registry) = random_workload(params);
    let mut store = DocumentStore::with_configs(CacheConfig::default(), plans);
    store.insert("doc", doc);
    let specs: Vec<SessionSpec> = (0..3)
        .map(|i| {
            SessionSpec::new(
                format!("s{i}"),
                "doc",
                vec![
                    random_query(params.seed.wrapping_add(i), params.alphabet, 7),
                    random_query(params.seed.wrapping_add(i + 10), params.alphabet, 7),
                    random_query(params.seed.wrapping_add(100), params.alphabet, 7),
                ],
            )
        })
        .collect();
    (store, registry, specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent-serving invariance: a deterministic-seeded serve run
    /// over a store whose plan cache reuses plans produces exactly the
    /// outcomes of the same run over a store whose capacity-0 plan cache
    /// compiles on every fetch — per query, per session, including cache
    /// counters and simulated time.
    #[test]
    fn deterministic_serve_is_identical_with_reused_and_never_reused_plans(
        wseed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let mode = SchedulerMode::DeterministicSeeded { seed: sched_seed };
        let run = |plans: PlanCacheConfig| {
            let (store, registry, specs) = serve_store(&params, plans);
            let report = store.serve(&specs, &registry, None, &mode, None);
            let outcomes = report
                .sessions
                .iter()
                .map(|s| (s.name.clone(), s.queries.iter().map(sim_outcome).collect::<Vec<_>>(), s.clock_ms))
                .collect::<Vec<_>>();
            (outcomes, store.plans().stats().hits)
        };
        let (reused, reused_hits) = run(PlanCacheConfig::default());
        let (never, never_hits) = run(PlanCacheConfig::with_capacity(0));
        prop_assert_eq!(
            reused,
            never,
            "plan reuse changed a served outcome (wseed={}, sched_seed={})",
            wseed, sched_seed
        );
        prop_assert!(reused_hits >= 2, "the shared query never reused its plan");
        prop_assert_eq!(never_hits, 0, "a capacity-0 plan cache served a hit");
    }

    /// Under the real thread pool the interleaving is free, so only the
    /// interleaving-independent projection is compared — and the store's
    /// plan cache must have compiled each distinct (query, config) at most
    /// once while serving every session.
    #[test]
    fn concurrent_serve_agrees_and_shares_compiled_plans(wseed in 0u64..10_000) {
        let params = SyntheticParams { seed: wseed, ..Default::default() };
        let (store, registry, specs) = serve_store(&params, PlanCacheConfig::default());
        let report = store.serve(
            &specs,
            &registry,
            None,
            &SchedulerMode::Concurrent { workers: 4 },
            None,
        );
        let plan_stats = store.plans().stats();
        prop_assert!(
            plan_stats.compiles <= 7 && plan_stats.hits >= 2,
            "3 sessions × 3 queries hold ≤ 7 distinct queries, one of them shared, \
             but the cache compiled {} times and hit {} times",
            plan_stats.compiles, plan_stats.hits
        );

        // reference: same specs, fresh never-reusing store, serial
        // deterministic run
        let (store2, registry2, specs2) = serve_store(&params, PlanCacheConfig::with_capacity(0));
        let reference = store2.serve(
            &specs2,
            &registry2,
            None,
            &SchedulerMode::DeterministicSeeded { seed: 0 },
            None,
        );
        for (got, want) in report.sessions.iter().zip(&reference.sessions) {
            prop_assert_eq!(&got.name, &want.name);
            for (g, w) in got.queries.iter().zip(&want.queries) {
                prop_assert_eq!(&g.answers, &w.answers, "session {} diverges", got.name);
                prop_assert_eq!(g.complete, w.complete, "session {} diverges", got.name);
            }
        }
    }
}

/// Remap correctness at the engine level: one warm plan cache serves two
/// documents whose symbol tables assign *different* ids to the same
/// labels; the shared compiled plan must answer both exactly as a plan
/// compiled for the run does.
#[test]
fn one_cached_plan_serves_documents_with_permuted_symbol_tables() {
    let params = SyntheticParams {
        seed: 11,
        ..Default::default()
    };
    let (doc_a, registry) = random_workload(&params);
    // doc_b interns the alphabet in reverse before growing its content,
    // permuting every symbol id relative to doc_a
    let mut doc_b = Document::with_root("root");
    let warm = doc_b.add_element(doc_b.root(), "warmup");
    for i in (0..params.alphabet).rev() {
        doc_b.add_element(warm, format!("e{i}"));
    }
    let mut parent = doc_b.root();
    for i in 0..20 {
        let e = doc_b.add_element(parent, format!("e{}", i % params.alphabet));
        doc_b.add_text(e, format!("v{}", i % 3));
        if i % 4 == 0 {
            parent = e;
        }
    }
    doc_b.check_integrity().unwrap();

    let q = random_query(3, params.alphabet, 7);
    let config = EngineConfig::default();
    let plans = PlanCache::new(PlanCacheConfig::default());
    for doc in [&doc_a, &doc_b] {
        let plan = plans.fetch(&q, None, &config);
        let warm = observe(doc, &q, &registry, None, config.clone(), Some(&plan), None);
        let cold = observe(doc, &q, &registry, None, config.clone(), None, None);
        assert_eq!(
            warm, cold,
            "shared plan mis-answers under a permuted symbol table"
        );
    }
    let stats = plans.stats();
    assert_eq!(stats.compiles, 1, "the second fetch must reuse the plan");
}
