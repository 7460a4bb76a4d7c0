#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # axml-core — Lazy Query Evaluation for Active XML
//!
//! The central contribution of *Lazy Query Evaluation for Active XML*
//! (Abiteboul, Benjelloun, Cautis, Manolescu, Milo, Preda — SIGMOD 2004):
//! given an AXML document (XML with embedded Web-service calls) and a
//! tree-pattern query, invoke **only the calls whose results may
//! contribute to the answer**, in an order that never fires a call that
//! has already become irrelevant, then evaluate the query on the completed
//! document.
//!
//! * [`nfq`] — LPQ and NFQ construction (Sections 3.1–3.2, Figure 5)
//! * [`influence`] — may-influence, layers, condition (✳) (Section 4)
//! * [`typed`] — type-based NFQ refinement (Section 5)
//! * [`fguide`] — the function-call guide (Section 6.2)
//! * [`engine`] — the NFQA rewriting loop and all strategy knobs
//!
//! ```no_run
//! use axml_core::{Engine, EngineConfig};
//! use axml_query::parse_query;
//! use axml_services::Registry;
//! use axml_xml::parse;
//!
//! let registry = Registry::new(); // register services here
//! let mut doc = parse("<hotels><axml:call service=\"getHotels\"/></hotels>").unwrap();
//! let q = parse_query("/hotels/hotel[rating=\"*****\"]/name").unwrap();
//! let report = Engine::new(&registry, EngineConfig::default()).evaluate(&mut doc, &q);
//! println!("{}", report.stats);
//! ```

pub mod containment;
pub mod engine;
pub mod fguide;
pub mod influence;
pub mod nfq;
pub mod plan;
pub mod scope;
pub mod stats;
pub mod typed;

pub use containment::{lpq_subsumes, nfq_subsumes, prune_subsumed_lpqs, prune_subsumed_nfqs};
pub use engine::{
    Engine, EngineConfig, EvalReport, HedgeConfig, ShedConfig, Speculation, Strategy, Typing,
};
pub use fguide::{filter_candidates, FGuide};
pub use influence::{compute_layers, may_influence, Layers};
pub use nfq::{build_lpqs, build_nfq, build_nfqs, relax_nfq_to_xpath, Lpq, Nfq};
pub use plan::{plan_fingerprint, CompiledQuery};
pub use scope::QueryScope;
pub use stats::{plural, EngineStats};
pub use typed::{SatVerdicts, TypeRefiner};

/// The paper's first contribution as a one-shot API: "an algorithm that,
/// given a query q and a document d, finds all the function calls in d
/// that are relevant for q" (Section 2, *The results*, item 1).
///
/// Without a schema, this is exactly Proposition 1 (NFQ retrieval); with
/// one, the refined NFQs of Section 5 prune by output types too.
///
/// ```
/// use axml_core::relevant_calls;
/// use axml_query::parse_query;
/// use axml_xml::parse;
///
/// let doc = parse(
///     "<hotels><hotel><name>BW</name><rating>*</rating>\
///        <nearby><axml:call service=\"getNearbyRestos\"/></nearby></hotel>\
///      <hotel><name>BW</name><rating>*****</rating>\
///        <nearby><axml:call service=\"getNearbyRestos\"/></nearby></hotel></hotels>",
/// ).unwrap();
/// let q = parse_query("/hotels/hotel[rating=\"*****\"]/nearby//restaurant").unwrap();
/// // only the five-star hotel's call is relevant
/// assert_eq!(relevant_calls(&doc, &q, None, axml_schema::SatMode::Exact).len(), 1);
/// ```
pub fn relevant_calls(
    doc: &axml_xml::Document,
    query: &axml_query::Pattern,
    schema: Option<&axml_schema::Schema>,
    mode: axml_schema::SatMode,
) -> Vec<(axml_xml::NodeId, axml_xml::CallId, String)> {
    let nfqs = build_nfqs(query);
    let mut refiner = schema.map(|s| TypeRefiner::new(s, query, mode));
    let known: Vec<String> = {
        let mut v: Vec<String> = doc
            .calls()
            .into_iter()
            .filter_map(|c| doc.call_info(c).map(|(_, s)| s.to_string()))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let mut out: Vec<(axml_xml::NodeId, axml_xml::CallId, String)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for nfq in &nfqs {
        let effective = match refiner.as_mut() {
            Some(r) => match r.refine(nfq, &known) {
                Some(refined) => refined,
                None => continue,
            },
            None => nfq.clone(),
        };
        for node in axml_query::eval(&effective.pattern, doc).bindings_of(effective.output) {
            if let Some((id, svc)) = doc.call_info(node) {
                if seen.insert(id) {
                    out.push((node, id, svc.to_string()));
                }
            }
        }
    }
    out.sort_by(|a, b| doc.cmp_document_order(a.0, b.0));
    out
}
