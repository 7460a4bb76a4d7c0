//! Golden structured-trace snapshots: the paper-walkthrough (Figure 1)
//! scenario's event stream is pinned byte-for-byte as JSONL under the
//! default schedule, under a threaded parallel schedule, and under a
//! deterministic fault seed. Each case also asserts two-run determinism,
//! parse-back round-tripping, and trace-oracle cleanliness against the
//! engine's own accounting.
//!
//! Regenerate the pinned files with `AXML_UPDATE_GOLDEN=1 cargo test`.

use activexml::core::{CompiledQuery, Engine, EngineConfig, EngineStats};
use activexml::gen::{figure1, figure4_query};
use activexml::obs::{assert_clean, parse_jsonl, to_jsonl, RingSink};
use activexml::services::{FaultProfile, NetProfile};
use std::path::PathBuf;
use std::sync::Arc;

/// Runs the Figure 1 walkthrough under `config` (and optional faults, and
/// an optionally attached plan) with an observer attached; returns the
/// deterministic JSONL and the stats.
fn run(
    config: EngineConfig,
    faults: Option<FaultProfile>,
    plan: Option<Arc<CompiledQuery>>,
) -> (String, EngineStats) {
    let mut sc = figure1();
    sc.registry.set_default_profile(NetProfile::latency(10.0));
    if let Some(f) = faults {
        sc.registry.set_default_fault_profile(f);
    }
    let ring = RingSink::unbounded();
    let mut engine = Engine::new(&sc.registry, config)
        .with_schema(&sc.schema)
        .with_observer(&ring);
    if let Some(plan) = plan {
        engine = engine.with_plan(plan);
    }
    let report = engine.evaluate(&mut sc.doc, &figure4_query());
    (to_jsonl(&ring.events()), report.stats)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, config: EngineConfig, faults: Option<FaultProfile>) {
    check_golden_with_plan(name, config, faults, None);
}

fn check_golden_with_plan(
    name: &str,
    config: EngineConfig,
    faults: Option<FaultProfile>,
    plan: Option<Arc<CompiledQuery>>,
) {
    let (first, stats) = run(config.clone(), faults, plan.clone());
    let (second, _) = run(config, faults, plan);
    assert_eq!(first, second, "{name}: two same-seed runs diverged");

    let events = parse_jsonl(&first).expect("trace JSONL parses back");
    assert_eq!(
        to_jsonl(&events),
        first,
        "{name}: parse/serialize round-trip"
    );
    assert_clean(&events, Some(&stats.view()));

    let path = golden_path(name);
    if std::env::var("AXML_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &first).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun with AXML_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        first, pinned,
        "{name}: trace diverged from the pinned golden; if the change is \
         intended, regenerate with AXML_UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_default_schedule() {
    check_golden("figure1_default.jsonl", EngineConfig::default(), None);
}

#[test]
fn golden_threaded_parallel_batches() {
    check_golden(
        "figure1_threads.jsonl",
        EngineConfig {
            parallel: true,
            real_threads: true,
            ..EngineConfig::default()
        },
        None,
    );
}

/// The hot-path machinery must be trace-invisible: the *same* golden file
/// as the default schedule, byte for byte, with delta-scoped incremental
/// detection on and with the whole hot path off. No new golden is pinned —
/// divergence from `figure1_default.jsonl` is the failure.
#[test]
fn golden_default_schedule_is_eval_mode_invariant() {
    use activexml::query::EvalOptions;
    check_golden(
        "figure1_default.jsonl",
        EngineConfig {
            incremental_detection: true,
            ..EngineConfig::default()
        },
        None,
    );
    check_golden(
        "figure1_default.jsonl",
        EngineConfig {
            eval_options: EvalOptions {
                interning: false,
                index: false,
            },
            ..EngineConfig::default()
        },
        None,
    );
}

/// An attached plan compiled for a different configuration must be
/// trace-invisible: the engine ignores it and compiles its own, so each
/// incompatible plan — other XPath relaxation, other typing, no schema —
/// reproduces the *same* golden file as the default schedule. No new
/// golden is pinned — divergence from `figure1_default.jsonl` is the
/// failure.
#[test]
fn golden_default_schedule_is_plan_mode_invariant() {
    let sc = figure1();
    let config = EngineConfig::default();
    let relaxed = EngineConfig {
        relax_xpath: true,
        ..EngineConfig::default()
    };
    let untyped = EngineConfig {
        typing: activexml::core::Typing::None,
        ..EngineConfig::default()
    };
    let query = figure4_query();
    for plan in [
        CompiledQuery::compile(&query, Some(&sc.schema), &relaxed),
        CompiledQuery::compile(&query, Some(&sc.schema), &untyped),
        CompiledQuery::compile(&query, None, &config),
    ] {
        assert!(!plan.compatible(&query, Some(&sc.schema), &config));
        check_golden_with_plan(
            "figure1_default.jsonl",
            config.clone(),
            None,
            Some(Arc::new(plan)),
        );
    }
}

/// A warm cross-session plan cache must be trace-invisible too: fetching
/// the Figure 4 plan from a [`PlanCache`] (cold compile, then a cache
/// hit) and evaluating with the shared plan reproduces the default
/// golden byte for byte, both times. Plan-cache probe events go to the
/// cache's own sink, never into the engine's query span.
#[test]
fn golden_default_schedule_through_a_warm_plan_cache() {
    use activexml::store::{PlanCache, PlanCacheConfig};

    let plans = PlanCache::new(PlanCacheConfig::default());
    let pinned = std::fs::read_to_string(golden_path("figure1_default.jsonl"))
        .expect("figure1_default.jsonl is pinned");
    for fetch in 0..2 {
        let mut sc = figure1();
        sc.registry.set_default_profile(NetProfile::latency(10.0));
        let config = EngineConfig::default();
        let plan = plans.fetch(&figure4_query(), Some(&sc.schema), &config);
        let ring = RingSink::unbounded();
        let engine = Engine::new(&sc.registry, config)
            .with_schema(&sc.schema)
            .with_plan(plan)
            .with_observer(&ring);
        let report = engine.evaluate(&mut sc.doc, &figure4_query());
        assert_clean(&ring.events(), Some(&report.stats.view()));
        assert_eq!(
            to_jsonl(&ring.events()),
            pinned,
            "fetch {fetch} diverged from the pinned golden"
        );
    }
    let stats = plans.stats();
    assert_eq!(
        (stats.compiles, stats.hits),
        (1, 1),
        "second fetch must be a warm hit"
    );
}

#[test]
fn golden_fault_seed_1() {
    check_golden(
        "figure1_faults.jsonl",
        EngineConfig::default(),
        Some(FaultProfile::chaos(1, 0.3)),
    );
}

/// The versioned-publication layer must be trace-invisible too: pushing
/// the Figure 1 document through a full snapshot → COW working copy →
/// publish → re-snapshot round trip and evaluating the result reproduces
/// `figure1_default.jsonl` byte for byte. The shared page structure a
/// snapshot hands out is an evaluation-identical document, not merely an
/// equivalent one.
#[test]
fn golden_default_schedule_survives_the_snapshot_layer() {
    use activexml::xml::VersionedDocument;

    let mut sc = figure1();
    sc.registry.set_default_profile(NetProfile::latency(10.0));
    let versioned = VersionedDocument::new(sc.doc);
    let round_trip = versioned.snapshot().to_document();
    versioned.publish(round_trip);
    assert_eq!(versioned.version(), 1);
    let snapshot = versioned.snapshot();
    snapshot
        .check_integrity()
        .expect("published version intact");
    let mut doc = snapshot.to_document();

    let ring = RingSink::unbounded();
    let engine = Engine::new(&sc.registry, EngineConfig::default())
        .with_schema(&sc.schema)
        .with_observer(&ring);
    let report = engine.evaluate(&mut doc, &figure4_query());
    let events = ring.events();
    assert_clean(&events, Some(&report.stats.view()));
    let jsonl = to_jsonl(&events);
    let pinned = std::fs::read_to_string(golden_path("figure1_default.jsonl"))
        .expect("figure1_default.jsonl is pinned");
    assert_eq!(
        jsonl, pinned,
        "the snapshot/publish round trip changed the Figure 1 trace"
    );
}
