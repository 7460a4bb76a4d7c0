//! Checks of the benchmark's own machinery: the answer checker catches a
//! service that lies, the allocation counts repeat exactly, and the
//! store defect that made `tenant-write` turn query pushing off.

use crate::inputs::Workload;
use crate::phases::{serve_step, ServeRig, ServeTotals, Tally};
use crate::trace::Ledger;
use axml_query::parse_query;
use axml_services::{CallRequest, FnService};
use axml_store::SessionOptions;
use axml_xml::Forest;
use std::sync::atomic::{AtomicU64, Ordering};

fn one_batch(rig: &mut ServeRig, workers: usize, ledger: Option<&mut Ledger>) -> Tally {
    let mut tally = Tally::default();
    serve_step(
        rig,
        workers,
        ledger,
        &mut ServeTotals::default(),
        &mut tally,
    );
    tally
}

#[test]
fn a_tampered_service_pushes_failed_frac_above_zero() {
    // getRating answers five stars and one star by turns, whatever it is
    // asked: answers served from the warmed cache disagree with a fresh
    // evaluation
    let mut tampered = ServeRig::build_with(Workload::ReadMix, 5, false, |registry| {
        let turn = AtomicU64::new(0);
        registry.register(FnService::new("getRating", move |_: &CallRequest| {
            let stars = if turn.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                5
            } else {
                1
            };
            let mut f = Forest::new();
            f.add_root_text("*".repeat(stars));
            f
        }));
    });
    let tally = one_batch(&mut tampered, 2, None);
    assert!(tally.attempted > 0);
    assert!(tally.failed > 0, "a lying service went unnoticed");

    let mut honest = ServeRig::build(Workload::ReadMix, 5, false);
    let tally = one_batch(&mut honest, 2, None);
    assert_eq!(tally.failed, 0, "{:?}", tally.notes);
}

#[test]
fn single_threaded_traced_runs_count_identical_allocations() {
    let run = |workload| {
        let mut rig = ServeRig::build(workload, 9, true);
        let mut ledger = Ledger::default();
        let tally = one_batch(&mut rig, 1, Some(&mut ledger));
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        (
            ledger.eval_allocs,
            ledger.eval_bytes,
            ledger.compiles,
            ledger.compile_allocs,
        )
    };
    for workload in [Workload::ReadMix, Workload::TenantWrite] {
        let first = run(workload);
        let second = run(workload);
        assert!(first.0 > 0.0, "{workload:?} counted no allocations");
        assert_eq!(
            first, second,
            "{workload:?}: allocation counts differ between identical runs"
        );
    }
    assert!(
        run(Workload::TenantWrite).2 > 0.0,
        "tenant-write compiles plans"
    );
}

#[test]
#[ignore = "known defect: a persistent session publishes the filtered result of a pushed query, \
            so later queries with other predicates read incomplete data"]
fn persistent_sessions_with_pushed_queries_answer_like_a_fresh_engine() {
    let mut rig = ServeRig::build(Workload::TenantWrite, 1, false);
    let expected: Vec<_> = (0..rig.docs[0].queries.len())
        .map(|q| rig.reference(0, q).cloned())
        .collect();
    // query pushing is on by default
    let options = SessionOptions {
        snapshot_per_query: false,
        ..SessionOptions::default()
    };
    let mut session = rig
        .store
        .session(
            &rig.docs[0].name,
            &rig.registry,
            rig.schema.as_ref(),
            options,
        )
        .expect("document stored");
    let wrong: Vec<&String> = rig.docs[0]
        .queries
        .iter()
        .zip(&expected)
        .filter(|(text, want)| {
            let got = session.query(&parse_query(text).expect("query parses"));
            want.as_ref() != Some(&got.answers)
        })
        .map(|(text, _)| text)
        .collect();
    assert!(wrong.is_empty(), "wrong answers to {wrong:?}");
}
