//! Benchmark-side tracing: thin timing wrappers over the public
//! `LogDir`/`LogFile` and `InvokeCache` traits, a plan-cache probe sink,
//! and the per-layer ledger the traced run fills.
//!
//! Wrapped calls run deep inside library code on the calling thread, so
//! the wrappers record into thread-local taps; the traced runner drains
//! the taps around each layer call it times.

use axml_obs::{Event, EventKind, TraceSink};
use axml_services::{CacheLookup, InvokeCache, InvokeOutcome, PushedQuery};
use axml_store::{CallCache, LogDir, LogFile, SimDir, WalError};
use axml_xml::Forest;
use std::cell::Cell;
use std::time::Instant;

/// What the wrappers saw on this thread since the last [`take`].
#[derive(Clone, Copy, Debug)]
pub struct Taps {
    pub cache_ns: u64,
    pub cache_probes: u64,
    pub cache_hits: u64,
    pub wal_append_ns: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_sync_ns: u64,
    pub wal_syncs: u64,
    /// Outcome of the last plan-cache probe, if one happened.
    pub plan_hit: Option<bool>,
}

const NO_TAPS: Taps = Taps {
    cache_ns: 0,
    cache_probes: 0,
    cache_hits: 0,
    wal_append_ns: 0,
    wal_appends: 0,
    wal_bytes: 0,
    wal_sync_ns: 0,
    wal_syncs: 0,
    plan_hit: None,
};

impl Taps {
    pub fn wal_ns(&self) -> u64 {
        self.wal_append_ns + self.wal_sync_ns
    }
}

thread_local! {
    static TAPS: Cell<Taps> = const { Cell::new(NO_TAPS) };
}

/// Returns and clears this thread's taps.
pub fn take() -> Taps {
    TAPS.with(|t| t.replace(NO_TAPS))
}

fn update(f: impl FnOnce(&mut Taps)) {
    TAPS.with(|t| {
        let mut v = t.get();
        f(&mut v);
        t.set(v);
    });
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A [`SimDir`] whose log files time every append and sync.
pub struct TimedDir(pub SimDir);

struct TimedFile(Box<dyn LogFile>);

impl LogDir for TimedDir {
    fn open_append(&self, name: &str) -> Result<Box<dyn LogFile>, WalError> {
        Ok(Box::new(TimedFile(self.0.open_append(name)?)))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        self.0.read(name)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        self.0.truncate(name, len)
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        self.0.list()
    }
}

impl LogFile for TimedFile {
    fn append(&self, bytes: &[u8]) -> Result<(), WalError> {
        let t = Instant::now();
        let r = self.0.append(bytes);
        let ns = ns_since(t);
        update(|v| {
            v.wal_append_ns += ns;
            v.wal_appends += 1;
            v.wal_bytes += bytes.len() as u64;
        });
        r
    }

    fn sync(&self) -> Result<(), WalError> {
        let t = Instant::now();
        let r = self.0.sync();
        let ns = ns_since(t);
        update(|v| {
            v.wal_sync_ns += ns;
            v.wal_syncs += 1;
        });
        r
    }
}

/// The store's call cache, with every probe and store timed.
pub struct TimedCache<'a>(pub &'a CallCache);

impl InvokeCache for TimedCache<'_> {
    fn lookup(
        &self,
        service: &str,
        params: &Forest,
        pushed: Option<&PushedQuery>,
        now_ms: f64,
    ) -> CacheLookup {
        let t = Instant::now();
        let r = self.0.lookup(service, params, pushed, now_ms);
        let ns = ns_since(t);
        let hit = matches!(r, CacheLookup::Hit(_));
        update(|v| {
            v.cache_ns += ns;
            v.cache_probes += 1;
            v.cache_hits += u64::from(hit);
        });
        r
    }

    fn store(
        &self,
        service: &str,
        params: &Forest,
        pushed: Option<&PushedQuery>,
        outcome: &InvokeOutcome,
        now_ms: f64,
    ) {
        let t = Instant::now();
        self.0.store(service, params, pushed, outcome, now_ms);
        let ns = ns_since(t);
        update(|v| v.cache_ns += ns);
    }

    fn on_breaker_transition(&self, service: &str, open: bool) {
        self.0.on_breaker_transition(service, open);
    }
}

/// Records whether each plan-cache probe hit; the cache emits the probe
/// on the fetching thread, under its shard lock.
pub struct ProbeSink;

impl TraceSink for ProbeSink {
    fn emit(&self, event: &Event) {
        if let EventKind::PlanCacheProbe { hit, .. } = &event.kind {
            let hit = *hit;
            update(|v| v.plan_hit = Some(hit));
        }
    }
}

macro_rules! ledger {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Per-layer totals of a traced run (times in ns, counts as
        /// counts). One per worker thread, merged at the end.
        #[derive(Clone, Debug, Default)]
        pub struct Ledger {
            $($(#[$doc])* pub $field: f64,)*
        }

        impl Ledger {
            pub fn merge(&mut self, other: &Ledger) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

ledger! {
    /// Session queries completed, and their wall time less side probes.
    queries,
    query_ns,
    /// Time spent in side probes that are not part of any operation.
    side_ns,
    parse_ns,
    fetches,
    plan_hits,
    /// Self time of `PlanCache::fetch`: on a miss the compile inside it
    /// is timed on the side and subtracted.
    fetch_ns,
    compiles,
    compile_ns,
    compile_allocs,
    snapshot_ns,
    relevance_ns,
    relevance_evals,
    rounds,
    final_ns,
    probe_ns,
    probes,
    probe_hits,
    splice_ns,
    eval_allocs,
    eval_bytes,
    publish_ns,
    winner_calls,
    /// Simulated service time, conflict reruns included.
    sim_ms,
    render_ns,
    wal_append_ns,
    wal_appends,
    wal_bytes,
    wal_sync_ns,
    wal_syncs,
    /// WAL appends made by session queries (publishes).
    query_wal_appends,
    /// Feed-loop rounds and their wall time.
    feed_rounds,
    round_ns,
    refresh_ns,
    reconcile_ns,
    purge_ns,
    recover_ns,
    frames,
}

impl Ledger {
    /// Charges WAL taps to the ledger and returns their total time.
    pub fn charge_wal(&mut self, taps: &Taps) -> u64 {
        self.wal_append_ns += taps.wal_append_ns as f64;
        self.wal_appends += taps.wal_appends as f64;
        self.wal_bytes += taps.wal_bytes as f64;
        self.wal_sync_ns += taps.wal_sync_ns as f64;
        self.wal_syncs += taps.wal_syncs as f64;
        taps.wal_ns()
    }
}
