//! Workload definitions and their inputs, all derived from the run seed.

use axml_gen::feeds::{price_feed, Feed, PriceFeedParams};
use axml_gen::scenario::{generate, ScenarioParams};
use axml_schema::Schema;
use axml_services::{NetProfile, Registry};
use axml_xml::{Document, NodeId, NodeKind};

/// SplitMix64: a tiny seedable generator, so inputs depend on the seed
/// alone and not on any external crate's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Derives an independent sub-seed, so each input stream of a run has its
/// own generator and adding one stream never shifts another.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ index.rotate_left(17));
    r.next()
}

/// The three workloads. Every workload runs the same three phases — a
/// feed loop, a closed-loop session mix and recovery — in different
/// proportions; see the README for why each was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadMix,
    TenantWrite,
    FeedDurable,
}

/// How one workload divides its run among the phases, and how large each
/// phase's inputs are.
pub struct Shape {
    /// Share of the measured seconds spent in the feed loop; the session
    /// mix gets the rest (recovery is a fixed amount of work).
    pub feed_share: f64,
    /// Hotels in the `price_feed` document.
    pub feed_hotels: usize,
    /// Simulated horizon of one feed episode, in ms.
    pub feed_horizon_ms: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadMix,
        Workload::TenantWrite,
        Workload::FeedDurable,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMix => "read-mix",
            Workload::TenantWrite => "tenant-write",
            Workload::FeedDurable => "feed-durable",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            // a side feed, so the feed metrics exist here too, sized so a
            // run delivers enough deltas for three 1000-sample tail windows
            Workload::ReadMix | Workload::TenantWrite => Shape {
                feed_share: 0.4,
                feed_hotels: 15,
                feed_horizon_ms: 6_000.0,
            },
            Workload::FeedDurable => Shape {
                feed_share: 0.8,
                feed_hotels: 40,
                feed_horizon_ms: 6_000.0,
            },
        }
    }
}

/// Hotel documents of the given sizes sharing one registry: one scenario
/// of `Σ sizes` hotels is generated and its hotels are dealt out in
/// order, so every call's parameter (the hotel's address) stays unique
/// across documents and one registry answers them all.
pub fn hotel_docs(seed: u64, sizes: &[usize]) -> (Vec<Document>, Registry, Schema) {
    let total: usize = sizes.iter().sum();
    let scenario = generate(&ScenarioParams {
        hotels: total,
        intensional_hotels: 0,
        seed,
        ..ScenarioParams::default()
    });
    let src = &scenario.doc;
    let hotels: Vec<NodeId> = src.children(src.root()).to_vec();
    assert_eq!(hotels.len(), total, "one root child per generated hotel");
    let mut docs = Vec::with_capacity(sizes.len());
    let mut next = 0;
    for &size in sizes {
        let mut doc = Document::with_root("hotels");
        let root = doc.root();
        for &h in &hotels[next..next + size] {
            copy_subtree(src, h, &mut doc, root);
        }
        next += size;
        docs.push(doc);
    }
    let mut registry = scenario.registry;
    // simulated round trip per call: it advances session clocks, never
    // the wall clock
    registry.set_default_profile(NetProfile::latency(5.0));
    (docs, registry, scenario.schema)
}

fn copy_subtree(src: &Document, node: NodeId, dst: &mut Document, parent: NodeId) {
    let new = match src.kind(node) {
        NodeKind::Element(label) => dst.add_element(parent, label.clone()),
        NodeKind::Text(text) => dst.add_text(parent, text.clone()),
        NodeKind::Call(_, service) => dst.add_call(parent, service.clone()),
    };
    for &child in src.children(node) {
        copy_subtree(src, child, dst, new);
    }
}

/// The four read-mix queries: Figure 4, the descendant five-star query,
/// name + rating, and name only.
pub const READ_QUERIES: [&str; 4] = [
    "/hotels/hotel[name=\"Best Western\"][rating=\"*****\"]/nearby//restaurant[name=$X][address=$Y][rating=\"*****\"] -> $X,$Y",
    "//restaurant[rating=\"*****\"]/name/$N -> $N",
    "/hotels/hotel[name=$N][rating=$R] -> $N,$R",
    "/hotels/hotel/name/$N -> $N",
];

/// `n` distinct ad-hoc queries over the hotels numbered `first..first +
/// count` (hotel `i`'s address is `"{i} Main St."`): the six templates
/// take turns, so every seed gets the same mix of query shapes, and the
/// constants are drawn from `rng`.
pub fn tenant_queries(rng: &mut Rng, first: usize, count: usize, n: usize) -> Vec<String> {
    let stars = |k: usize| "*".repeat(k + 1);
    let mut out: Vec<String> = Vec::with_capacity(n);
    while out.len() < n {
        let addr = format!("{} Main St.", first + rng.below(count));
        let s = stars(rng.below(5));
        let q = match out.len() % 6 {
            0 => format!("/hotels/hotel[address=\"{addr}\"]/rating/$R -> $R"),
            1 => format!("/hotels/hotel[rating=\"{s}\"]/name/$N -> $N"),
            2 => format!(
                "/hotels/hotel[address=\"{addr}\"]/nearby/restaurant[rating=\"{s}\"]/name/$N -> $N"
            ),
            3 => format!(
                "/hotels/hotel[name=\"Best Western\"][rating=\"{s}\"]/nearby//restaurant/name/$N -> $N"
            ),
            4 => format!("/hotels/hotel[address=\"{addr}\"]/reviews/review/$V -> $V"),
            _ => format!("/hotels/hotel[address=\"{addr}\"]/nearby/museum/name/$M -> $M"),
        };
        if !out.contains(&q) {
            out.push(q);
        }
    }
    out
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// The hotel price-watcher feed of the subscription experiments.
pub fn feed(hotels: usize) -> Feed {
    price_feed(&PriceFeedParams {
        hotels,
        volatile_stride: 2,
    })
}
