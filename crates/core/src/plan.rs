//! Compiled query plans for the engine: parse/compile **once per
//! (query, schema, config)**, serve any number of documents.
//!
//! A [`CompiledQuery`] fuses every artifact the engine derives from the
//! query alone. It is the engine's only compile path:
//! [`crate::Engine::evaluate`] always runs from one — the plan attached
//! with [`crate::Engine::with_plan`] when compatible, otherwise one it
//! compiles on entry. The artifacts:
//!
//! * the main pattern's [`QueryPlan`] (interned symbol table + compiled
//!   label tests, bindable to any document by a symbol remap),
//! * the NFQs (Figure 5) after XPath relaxation and containment pruning,
//!   with the pruned count preserved for the stats,
//! * the LPQs and their per-pattern [`QueryPlan`]s,
//! * the influence [`Layers`] (§4.2–4.3),
//! * per-NFQ label-level NFAs: the prefix-closed *affected* language
//!   driving incremental detection, and the *position* language of the
//!   linear path (suffix-closed for descendant-ended NFQs),
//! * a shared satisfiability-verdict store ([`SatVerdicts`]) so §5's
//!   typing refinement never reproves a `(function, query-node)` pair,
//!   across runs and sessions.
//!
//! Per document, the remaining setup is a **symbol-table remap**: plan
//! symbols translate through the document's interner
//! ([`QueryPlan::bind`]), and the label NFAs compile to symbol automata
//! (determinized up to a state cap) against the same table. Reusing a
//! plan is observationally invisible: results, traces and statistics are
//! byte-identical to a run that compiled its own — the remap produces
//! *the same* compiled tables, an invariant the differential
//! plan-equivalence oracle pins.
//!
//! The artifact is immutable and thread-safe; share it behind an `Arc`
//! (the store's `PlanCache` does exactly that).

use crate::engine::{EngineConfig, Typing};
use crate::influence::{compute_layers, Layers};
use crate::nfq::{build_lpqs, build_nfqs, relax_nfq_to_xpath, Lpq, Nfq};
use crate::typed::SatVerdicts;
use axml_query::{LinearPath, Pattern, QueryPlan};
use axml_schema::{Nfa, Schema};

/// The compile-relevant slice of an [`EngineConfig`] plus the query and
/// schema identities, captured at compile time. A plan is consulted only
/// when the run's key matches — a mismatched plan is silently ignored
/// (the engine compiles its own), never misapplied.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PlanKey {
    query: String,
    schema: Option<String>,
    typing: Typing,
    relax_xpath: bool,
    containment_pruning: bool,
}

impl PlanKey {
    fn new(query: &Pattern, schema: Option<&Schema>, config: &EngineConfig) -> PlanKey {
        PlanKey {
            query: format!("{query:?}"),
            schema: schema.map(|s| format!("{s:?}")),
            typing: config.typing,
            relax_xpath: config.relax_xpath,
            containment_pruning: config.containment_pruning,
        }
    }
}

/// A stable hex fingerprint of the compile-relevant plan key — what a
/// plan cache indexes on, and what a `plan_cache` trace event reports.
/// FNV-1a over the key's canonical rendering: deterministic across
/// builds and platforms (unlike `DefaultHasher`), so cached-plan traces
/// are reproducible byte for byte.
pub fn plan_fingerprint(query: &Pattern, schema: Option<&Schema>, config: &EngineConfig) -> String {
    let key = PlanKey::new(query, schema, config);
    let text = format!("{key:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Everything the engine can precompute from a query before seeing any
/// document. See the module docs for the artifact inventory.
pub struct CompiledQuery {
    key: PlanKey,
    query: Pattern,
    /// Plan for the main pattern (the final evaluation).
    pub(crate) plan: QueryPlan,
    /// NFQs after relaxation/pruning, in the order `run_nfq` indexes them.
    pub(crate) nfqs: Vec<Nfq>,
    pub(crate) nfq_pruned: usize,
    /// LPQs after pruning, with compiled plans (LPQ patterns are never
    /// mutated during a run, so their plans can be used directly).
    pub(crate) lpqs: Vec<Lpq>,
    pub(crate) lpq_plans: Vec<QueryPlan>,
    pub(crate) lpq_pruned: usize,
    /// Influence layers over `nfqs`.
    pub(crate) layers: Layers,
    /// Per-NFQ prefix-closed union of the pattern's path languages
    /// (incremental detection's "affected" test).
    pub(crate) affected_nfas: Vec<Nfa>,
    /// Per-NFQ position language of the linear path.
    pub(crate) pos_nfas: Vec<Nfa>,
    /// Shared §5 satisfiability verdicts for `(schema, query, typing)`.
    pub(crate) verdicts: SatVerdicts,
}

impl CompiledQuery {
    /// Compiles `query` under the given schema and engine configuration.
    /// Only the compile-relevant config bits enter the artifact (and its
    /// compatibility key): `typing`, `relax_xpath`, `containment_pruning`.
    pub fn compile(
        query: &Pattern,
        schema: Option<&Schema>,
        config: &EngineConfig,
    ) -> CompiledQuery {
        let mut nfqs = build_nfqs(query);
        if config.relax_xpath {
            nfqs = nfqs.iter().map(relax_nfq_to_xpath).collect();
        }
        let mut nfq_pruned = 0;
        if config.containment_pruning {
            let (kept, pruned) = crate::containment::prune_subsumed_nfqs(query, nfqs);
            nfqs = kept;
            nfq_pruned = pruned;
        }
        let mut lpqs = build_lpqs(query);
        let mut lpq_pruned = 0;
        if config.containment_pruning {
            let (kept, pruned) = crate::containment::prune_subsumed_lpqs(lpqs);
            lpqs = kept;
            lpq_pruned = pruned;
        }
        let lpq_plans = lpqs
            .iter()
            .map(|l| QueryPlan::compile(&l.pattern))
            .collect();
        let layers = compute_layers(&nfqs);
        let affected_nfas = nfqs.iter().map(affected_language).collect();
        let pos_nfas = nfqs.iter().map(position_language).collect();
        CompiledQuery {
            key: PlanKey::new(query, schema, config),
            query: query.clone(),
            plan: QueryPlan::compile(query),
            nfqs,
            nfq_pruned,
            lpqs,
            lpq_plans,
            lpq_pruned,
            layers,
            affected_nfas,
            pos_nfas,
            verdicts: SatVerdicts::default(),
        }
    }

    /// Is this plan the compiled form of exactly `(query, schema, config)`?
    /// Compared on the compile-relevant key — strategy, parallelism,
    /// budgets etc. don't invalidate a plan.
    pub fn compatible(
        &self,
        query: &Pattern,
        schema: Option<&Schema>,
        config: &EngineConfig,
    ) -> bool {
        self.key == PlanKey::new(query, schema, config)
    }

    /// The compiled query.
    pub fn query(&self) -> &Pattern {
        &self.query
    }

    /// The main pattern's bindable plan.
    pub fn main_plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Number of NFQs surviving pruning.
    pub fn nfq_count(&self) -> usize {
        self.nfqs.len()
    }
}

/// The prefix-closed union of the root-path languages of every node of
/// the NFQ's pattern — the language of positions whose splices can change
/// the NFQ's answer. The engine rebuilds it for NFQs that layer
/// simplification rewrote.
pub(crate) fn affected_language(nfq: &Nfq) -> Nfa {
    let parts: Vec<Nfa> = nfq
        .pattern
        .node_ids()
        .map(|id| Nfa::from_linear_path(&LinearPath::to_node(&nfq.pattern, id, true)))
        .collect();
    Nfa::union_of(&parts).prefix_closure()
}

/// The position language of the NFQ's linear path, suffix-closed for
/// descendant-ended NFQs. Rebuilt like [`affected_language`].
pub(crate) fn position_language(nfq: &Nfq) -> Nfa {
    let nfa = Nfa::from_linear_path(&nfq.lin);
    if nfq.via == axml_query::EdgeKind::Descendant {
        nfa.suffix_closure()
    } else {
        nfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::parse_query;
    use axml_schema::figure2_schema;

    fn fig4() -> Pattern {
        parse_query(
            "/hotel[name=\"Best Western\"][rating=\"*****\"]\
             /nearby//restaurant[name=$X][address=$Y][rating=\"*****\"] -> $X,$Y",
        )
        .unwrap()
    }

    #[test]
    fn compile_matches_engine_construction() {
        let q = fig4();
        let config = EngineConfig::default();
        let plan = CompiledQuery::compile(&q, None, &config);
        // the engine's own construction, replicated
        let nfqs = build_nfqs(&q);
        let (kept, pruned) = crate::containment::prune_subsumed_nfqs(&q, nfqs);
        assert_eq!(plan.nfqs.len(), kept.len());
        assert_eq!(plan.nfq_pruned, pruned);
        assert_eq!(plan.affected_nfas.len(), plan.nfqs.len());
        assert_eq!(plan.pos_nfas.len(), plan.nfqs.len());
        assert_eq!(plan.layers.layers.len(), compute_layers(&kept).layers.len());
    }

    #[test]
    fn compatibility_is_keyed_on_compile_relevant_bits() {
        let q = fig4();
        let s = figure2_schema();
        let config = EngineConfig::default();
        let plan = CompiledQuery::compile(&q, Some(&s), &config);
        assert!(plan.compatible(&q, Some(&s), &config));
        // runtime-only knobs don't invalidate
        let mut runtime = config.clone();
        runtime.parallel = false;
        runtime.max_invocations = 7;
        assert!(plan.compatible(&q, Some(&s), &runtime));
        // compile-relevant knobs do
        let mut relaxed = config.clone();
        relaxed.relax_xpath = true;
        assert!(!plan.compatible(&q, Some(&s), &relaxed));
        let mut untyped = config.clone();
        untyped.typing = Typing::None;
        assert!(!plan.compatible(&q, Some(&s), &untyped));
        // a different schema or query invalidates
        assert!(!plan.compatible(&q, None, &config));
        let other = parse_query("/hotels/hotel/name").unwrap();
        assert!(!plan.compatible(&other, Some(&s), &config));
    }
}
