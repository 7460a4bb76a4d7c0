//! Persistent sessions and query pushing (§7). A pushed query makes the
//! provider return only what that query selects. A persistent session
//! publishes its working copy, so a filtered result published for one
//! query would starve every later query with other predicates. Persistent
//! sessions therefore evaluate with pushing off: each answer must equal a
//! fresh engine's on the original document.

use axml_core::{Engine, EngineConfig};
use axml_gen::scenario::{figure1, figure4_query};
use axml_query::{parse_query, render_result, Pattern};
use axml_store::{DocumentStore, SessionOptions};
use std::collections::BTreeSet;

/// Queries over the same push-capable services with different
/// predicates: the first pushes a five-star filter into
/// `getNearbyRestos`, the later ones need the restaurants it drops.
fn queries() -> Vec<Pattern> {
    vec![
        figure4_query(),
        parse_query("/hotels/hotel/nearby//restaurant[name=$X] -> $X").unwrap(),
        parse_query("/hotels/hotel[name=\"Best Western\"]/nearby//restaurant[rating=$R] -> $R")
            .unwrap(),
        figure4_query(),
    ]
}

#[test]
fn persistent_queries_with_pushing_answer_like_a_fresh_engine() {
    let sc = figure1();
    let config = EngineConfig::default();
    assert!(config.push_queries, "the default pushes queries");
    let expected: Vec<BTreeSet<Vec<String>>> = queries()
        .iter()
        .map(|q| {
            let mut doc = sc.doc.clone();
            let report = Engine::new(&sc.registry, config.clone())
                .with_schema(&sc.schema)
                .evaluate(&mut doc, q);
            render_result(&doc, &report.result).into_iter().collect()
        })
        .collect();

    let mut store = DocumentStore::new();
    store.insert("hotels", sc.doc.clone());
    let options = SessionOptions {
        engine: config,
        snapshot_per_query: false,
    };
    let mut session = store
        .session("hotels", &sc.registry, Some(&sc.schema), options)
        .expect("document is stored");
    let mut pushed = 0;
    for (i, (q, want)) in queries().iter().zip(&expected).enumerate() {
        let report = session.query(q);
        pushed += report.stats.pushed_calls;
        assert_eq!(&report.answers, want, "query {i} answered wrongly");
    }
    assert_eq!(pushed, 0, "a persistent session pushed a query");
}
