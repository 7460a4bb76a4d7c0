//! `axml` — a command-line front end to the lazy AXML query engine.
//!
//! ```text
//! axml query --doc doc.xml --query '/hotels/hotel/name' \
//!            [--world world.xml] [--schema schema.txt] \
//!            [--strategy nfq|lpq|topdown|naive] [--typing none|lenient|exact] \
//!            [--push] [--fguide] [--no-parallel] [--speculate] [--stats] \
//!            [--no-interning] [--no-index] \
//!            [--retries N] [--timeout-ms X] [--fault-seed N] [--fail-prob P] \
//!            [--latency-ms X] \
//!            [--deadline-ms X] [--hedge-threshold-ms X] [--hedge-quantile F] \
//!            [--shed-inflight N] [--shed-ewma-ms X] \
//!            [--cache] [--cache-ttl-ms X] [--cache-capacity N] [--cache-bytes N] \
//!            [--trace-json PATH] [--trace-summary] \
//!            [--out results|doc]
//! axml session --doc doc.xml --world world.xml \
//!              --query Q1 [--query Q2 ...] [--idle-ms X] [--persist] \
//!              [--sessions N] [--workers N] [--sched-seed N] \
//!              [--latency-ms X] \
//!              [--deadline-ms X] [--hedge-threshold-ms X] [--hedge-quantile F] \
//!              [--shed-inflight N] [--shed-ewma-ms X] \
//!              [--cache-ttl-ms X] [--cache-capacity N] [--cache-bytes N] \
//!              [--cache-shards N] \
//!              [--durable DIR] [--checkpoint-every N] [--fsync always|never|every:N] \
//!              [--quiet] [--stats] [--trace] [--trace-json PATH] [--trace-summary]
//! axml subscribe --doc doc.xml --world world.xml \
//!                --query Q1 [--query Q2 ...] [--horizon-ms X] \
//!                [--watch-ms X] [--max-refires N] [--refresh-depth N] \
//!                [--history N] [--latency-ms X] \
//!                [--cache-ttl-ms X] [--cache-capacity N] [--cache-bytes N] \
//!                [--deltas-json PATH] [--quiet] [--stats] \
//!                [--trace-json PATH] [--trace-summary]
//! axml recover DIR                               # replay WALs, report per-doc
//! axml validate --doc doc.xml --schema schema.txt
//! axml termination --doc doc.xml --schema schema.txt
//! axml materialize --doc doc.xml --world world.xml [--max-calls N]
//! axml explain --query '/a//b[c="v"]'           # LPQs, NFQs, layers
//! ```
//!
//! Documents use the `<axml:call service="…">` convention, schemas the
//! DTD-like syntax of Figure 2, and world files the declarative service
//! format of `axml-services::worldfile`.

use activexml::core::{
    build_lpqs, build_nfqs, compute_layers, plural, Engine, EngineConfig, HedgeConfig, ShedConfig,
    Speculation, Strategy, Typing,
};
use activexml::obs::{aggregate, to_jsonl, Event, EventKind, RingSink};
use activexml::query::{construct_results, parse_query, render, EvalOptions, Pattern};
use activexml::schema::{parse_schema, Schema};
use activexml::services::{load_registry, FaultProfile, Registry};
use activexml::store::{
    CacheConfig, CallCache, DocumentStore, DurabilityOptions, FsDir, FsyncPolicy, LogDir,
    PlanCacheConfig, RecoveryReport, SessionOptions,
};
use activexml::xml::{parse, to_xml_with, Document, SerializeOptions};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("axml: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Opts {
    flags: Vec<String>,
    values: HashMap<String, Vec<String>>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut flags = Vec::new();
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    values
                        .entry(name.to_string())
                        .or_default()
                        .push(it.next().unwrap().clone());
                }
                _ => flags.push(name.to_string()),
            }
        }
        Ok(Opts { flags, values })
    }

    /// The last occurrence of a single-valued option.
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every occurrence of a repeatable option, in order.
    fn values_of(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.value(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        print_usage();
        return Ok(());
    };
    if cmd == "recover" {
        // `recover` takes its store directory as a positional argument.
        return cmd_recover(rest);
    }
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "query" => cmd_query(&opts),
        "session" => cmd_session(&opts),
        "subscribe" => cmd_subscribe(&opts),
        "relevant" => cmd_relevant(&opts),
        "validate" => cmd_validate(&opts),
        "termination" => cmd_termination(&opts),
        "materialize" => cmd_materialize(&opts),
        "explain" => cmd_explain(&opts),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `axml help`")),
    }
}

fn print_usage() {
    println!(
        "axml — lazy query evaluation for Active XML (SIGMOD 2004)\n\n\
         commands:\n\
         \x20 query        evaluate a tree-pattern query lazily\n\
         \x20 session      evaluate a stream of queries with a shared call cache\n\
         \x20 subscribe    register standing queries and stream answer deltas\n\
         \x20 relevant     list the calls relevant for a query (Prop. 1)\n\
         \x20 validate     check a document against a schema\n\
         \x20 termination  static termination analysis of a document's calls\n\
         \x20 materialize  invoke every call to a fixpoint\n\
         \x20 explain      print the LPQs, NFQs and layers of a query\n\
         \x20 recover      replay a durable store's write-ahead logs and report\n\n\
         run `axml <command>` without options to see what it needs."
    );
}

fn load_doc(opts: &Opts) -> Result<Document, String> {
    let path = opts.require("doc")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_schema(opts: &Opts) -> Result<Option<Schema>, String> {
    match opts.value("schema") {
        None => Ok(None),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            parse_schema(&text)
                .map(Some)
                .map_err(|e| format!("{path}: {e}"))
        }
    }
}

fn load_world(opts: &Opts) -> Result<Registry, String> {
    match opts.value("world") {
        None => Ok(Registry::new()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
            load_registry(&doc).map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// Applies the retry-policy and fault-injection options to a registry.
///
/// `--retries` and `--timeout-ms` tune the retry policy; `--fault-seed N`
/// (default: the `AXML_FAULT_SEED` environment variable, used by CI to
/// run everything under injected faults) enables a deterministic chaos
/// profile on every service, with failure probability `--fail-prob`
/// (default 0.3). Seed 0 — or no seed — keeps invocations fault-free.
/// `--latency-ms X` gives every service a simulated per-call network
/// latency (world-file services default to zero cost) — without it,
/// `--deadline-ms`, `--hedge-threshold-ms` and `--shed-ewma-ms` have
/// nothing to measure.
fn apply_fault_opts(registry: &mut Registry, opts: &Opts) -> Result<(), String> {
    if let Some(v) = opts.value("latency-ms") {
        let ms: f64 = v
            .parse()
            .map_err(|_| format!("--latency-ms expects milliseconds, got {v:?}"))?;
        registry.set_default_profile(activexml::services::NetProfile::latency(ms));
    }
    let mut policy = registry.retry_policy();
    if let Some(v) = opts.value("retries") {
        policy.max_retries = v
            .parse()
            .map_err(|_| format!("--retries expects a number, got {v:?}"))?;
    }
    if let Some(v) = opts.value("timeout-ms") {
        policy.timeout_ms = v
            .parse()
            .map_err(|_| format!("--timeout-ms expects milliseconds, got {v:?}"))?;
    }
    registry.set_retry_policy(policy);
    let seed: u64 = match opts.value("fault-seed") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--fault-seed expects a number, got {v:?}"))?,
        None => std::env::var("AXML_FAULT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    };
    if seed != 0 {
        let fail_prob: f64 = match opts.value("fail-prob") {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--fail-prob expects a probability, got {v:?}"))?,
            None => 0.3,
        };
        registry.set_default_fault_profile(FaultProfile::chaos(seed, fail_prob));
    }
    Ok(())
}

fn load_query(opts: &Opts) -> Result<Pattern, String> {
    let src = opts.require("query")?;
    parse_query(src).map_err(|e| e.to_string())
}

/// Builds the cross-query call-cache configuration from `--cache-ttl-ms`
/// (validity window, default: never expires), `--cache-capacity`
/// (max entries) and `--cache-bytes` (max serialized result bytes).
fn cache_config(opts: &Opts) -> Result<CacheConfig, String> {
    let mut config = CacheConfig::default();
    if let Some(v) = opts.value("cache-ttl-ms") {
        config.default_ttl_ms = v
            .parse()
            .map_err(|_| format!("--cache-ttl-ms expects milliseconds, got {v:?}"))?;
    }
    if let Some(v) = opts.value("cache-capacity") {
        config.max_entries = v
            .parse()
            .map_err(|_| format!("--cache-capacity expects a number, got {v:?}"))?;
    }
    if let Some(v) = opts.value("cache-bytes") {
        config.max_bytes = v
            .parse()
            .map_err(|_| format!("--cache-bytes expects a number, got {v:?}"))?;
    }
    if let Some(v) = opts.value("cache-shards") {
        let shards: usize = v
            .parse()
            .map_err(|_| format!("--cache-shards expects a number, got {v:?}"))?;
        config = config.with_shards(shards);
    }
    Ok(config)
}

/// Builds the compiled-plan cache configuration from
/// `--plan-cache-capacity` (max cached plans before LRU eviction; 0 never
/// keeps a plan, so every query compiles its own).
fn plan_config(opts: &Opts) -> Result<PlanCacheConfig, String> {
    let mut config = PlanCacheConfig::default();
    if let Some(v) = opts.value("plan-cache-capacity") {
        config.capacity = v
            .parse()
            .map_err(|_| format!("--plan-cache-capacity expects a number, got {v:?}"))?;
    }
    Ok(config)
}

/// Builds the durability configuration from `--checkpoint-every N`
/// (publications between full-document checkpoints, 0 = never; default 8)
/// and `--fsync always|never|every:N` (when appended WAL frames are
/// acknowledged to disk; default `always`).
fn durability_options(opts: &Opts) -> Result<DurabilityOptions, String> {
    let mut options = DurabilityOptions::default();
    if let Some(v) = opts.value("checkpoint-every") {
        options.checkpoint_every = v
            .parse()
            .map_err(|_| format!("--checkpoint-every expects a count, got {v:?}"))?;
    }
    if let Some(v) = opts.value("fsync") {
        options.fsync = FsyncPolicy::parse(v)?;
    }
    Ok(options)
}

/// Opens (or creates) the durable store behind `--durable DIR`.
///
/// A missing directory starts a fresh durable store. An existing
/// directory with write-ahead logs is *recovered first* — replay stops at
/// the first invalid frame, and an unrecoverable log (no intact
/// checkpoint prefix) is a hard error with the offending file and offset,
/// never a silently empty store.
fn open_durable_store(opts: &Opts, dir: &str) -> Result<DocumentStore, String> {
    let options = durability_options(opts)?;
    let cache = cache_config(opts)?;
    let plans = plan_config(opts)?;
    let path = std::path::Path::new(dir);
    let fs = if path.exists() {
        FsDir::open(path).map_err(|e| e.to_string())?
    } else {
        FsDir::create(path).map_err(|e| e.to_string())?
    };
    if fs.list().map_err(|e| e.to_string())?.is_empty() {
        return Ok(DocumentStore::durable_with_configs(
            Box::new(fs),
            options,
            cache,
            plans,
        ));
    }
    let (store, report) = DocumentStore::recover_with_configs(Box::new(fs), options, cache, plans)
        .map_err(|e| e.to_string())?;
    if let Some(err) = report.first_error() {
        return Err(err.to_string());
    }
    print_recovery_summary(&report);
    Ok(store)
}

fn print_recovery_summary(report: &RecoveryReport) {
    for d in &report.docs {
        if let Some(err) = &d.error {
            println!("-- {}: UNRECOVERABLE ({err})", d.name);
            continue;
        }
        println!(
            "-- recovered {}: v{} ({} frames, checkpoint v{}, {} splice(s) replayed{}{})",
            d.name,
            d.recovered_version,
            d.frames,
            d.checkpoint_version,
            d.splices_replayed,
            if d.watermarks.is_empty() {
                String::new()
            } else {
                format!(", {} watermark(s)", d.watermarks.len())
            },
            match (&d.truncated_at, &d.truncate_reason) {
                (Some(off), Some(reason)) => format!("; tail truncated at offset {off}: {reason}"),
                _ => String::new(),
            }
        );
    }
    println!(
        "== recovery: {} document(s), {} splice(s) replayed{}",
        report.docs.len(),
        report.splices_replayed(),
        if report.any_truncated() {
            ", torn tail discarded"
        } else {
            ", log intact"
        }
    );
}

/// `axml recover DIR` — replay the write-ahead logs of a durable store
/// directory and report what survives, without serving anything. A torn
/// tail (crash mid-append) is normal: recovery truncates it and exits 0.
/// A missing directory, an empty one, or a log with no intact checkpoint
/// prefix is an error: one-line diagnostic, nonzero exit.
fn cmd_recover(args: &[String]) -> Result<(), String> {
    let mut dir: Option<&str> = None;
    let mut rest: Vec<String> = Vec::new();
    for a in args {
        if !a.starts_with("--") && dir.is_none() {
            dir = Some(a);
        } else {
            rest.push(a.clone());
        }
    }
    let Some(dir) = dir else {
        return Err("usage: axml recover DIR [--checkpoint-every N] [--fsync MODE]".into());
    };
    let opts = Opts::parse(&rest)?;
    let path = std::path::Path::new(dir);
    if !path.is_dir() {
        return Err(format!("store directory {dir:?} does not exist"));
    }
    let fs = FsDir::open(path).map_err(|e| e.to_string())?;
    if fs.list().map_err(|e| e.to_string())?.is_empty() {
        return Err(format!("no write-ahead logs in {dir:?}"));
    }
    let (_store, report) = DocumentStore::recover(Box::new(fs), durability_options(&opts)?)
        .map_err(|e| e.to_string())?;
    print_recovery_summary(&report);
    if let Some(err) = report.first_error() {
        return Err(err.to_string());
    }
    Ok(())
}

/// Whether any cache option was given (`--cache` alone enables the
/// defaults; any `--cache-*` value implies `--cache`).
fn wants_cache(opts: &Opts) -> bool {
    opts.flag("cache")
        || opts.value("cache-ttl-ms").is_some()
        || opts.value("cache-capacity").is_some()
        || opts.value("cache-bytes").is_some()
}

fn engine_config(opts: &Opts) -> Result<EngineConfig, String> {
    let strategy = match opts.value("strategy").unwrap_or("nfq") {
        "nfq" => Strategy::Nfq,
        "lpq" => Strategy::Lpq,
        "topdown" => Strategy::TopDown,
        "naive" => Strategy::Naive,
        other => return Err(format!("unknown strategy {other:?}")),
    };
    let typing = match opts.value("typing").unwrap_or("exact") {
        "none" => Typing::None,
        "lenient" => Typing::Lenient,
        "exact" => Typing::Exact,
        other => return Err(format!("unknown typing {other:?}")),
    };
    let max_invocations = match opts.value("max-calls") {
        None => 100_000,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--max-calls expects a number, got {v:?}"))?,
    };
    let deadline_ms = match opts.value("deadline-ms") {
        None => f64::INFINITY,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--deadline-ms expects milliseconds, got {v:?}"))?,
    };
    let mut hedge = HedgeConfig::default();
    if let Some(v) = opts.value("hedge-threshold-ms") {
        hedge.threshold_ms = v
            .parse()
            .map_err(|_| format!("--hedge-threshold-ms expects milliseconds, got {v:?}"))?;
    }
    if let Some(v) = opts.value("hedge-quantile") {
        hedge.latency_factor = v
            .parse()
            .map_err(|_| format!("--hedge-quantile expects a factor, got {v:?}"))?;
    }
    let mut shed = ShedConfig::default();
    if let Some(v) = opts.value("shed-inflight") {
        shed.max_inflight_per_batch = v
            .parse()
            .map_err(|_| format!("--shed-inflight expects a number, got {v:?}"))?;
    }
    if let Some(v) = opts.value("shed-ewma-ms") {
        shed.ewma_limit_ms = v
            .parse()
            .map_err(|_| format!("--shed-ewma-ms expects milliseconds, got {v:?}"))?;
    }
    Ok(EngineConfig {
        strategy,
        typing,
        use_fguide: opts.flag("fguide"),
        push_queries: opts.flag("push"),
        parallel: !opts.flag("no-parallel"),
        layering: true,
        simplify_layers: true,
        relax_xpath: opts.flag("relax"),
        max_invocations,
        containment_pruning: !opts.flag("no-containment"),
        enforce_output_types: opts.flag("enforce-types"),
        incremental_detection: opts.flag("incremental"),
        real_threads: opts.flag("threads"),
        speculation: if opts.flag("speculate") {
            Speculation::Always
        } else {
            Speculation::Off
        },
        deadline_ms,
        hedge,
        shed,
        eval_options: EvalOptions {
            interning: !opts.flag("no-interning"),
            index: !opts.flag("no-index"),
        },
        ..EngineConfig::default()
    })
}

/// Builds the structured-trace collector when `--trace`, `--trace-json`
/// or `--trace-summary` asks for one. Events are collected in memory
/// during the run and written out afterwards, so one stream serves every
/// output.
fn trace_collector(opts: &Opts) -> Option<RingSink> {
    (opts.flag("trace") || opts.value("trace-json").is_some() || opts.flag("trace-summary"))
        .then(RingSink::unbounded)
}

/// Writes the collected stream: `--trace-json PATH` gets the
/// deterministic JSONL encoding (byte-identical across same-seed runs);
/// `--trace-summary` prints the aggregated per-service/per-layer metrics
/// to stderr.
fn finish_trace(opts: &Opts, ring: &RingSink) -> Result<(), String> {
    let events = ring.events();
    if let Some(path) = opts.value("trace-json") {
        std::fs::write(path, to_jsonl(&events)).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if opts.flag("trace-summary") {
        eprint!("{}", aggregate(&events));
    }
    Ok(())
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let mut doc = load_doc(opts)?;
    let query = load_query(opts)?;
    let mut registry = load_world(opts)?;
    apply_fault_opts(&mut registry, opts)?;
    let schema = load_schema(opts)?;
    let config = engine_config(opts)?;
    let cache = if wants_cache(opts) {
        Some(CallCache::new(cache_config(opts)?))
    } else {
        None
    };
    let ring = trace_collector(opts);
    let mut engine = Engine::new(&registry, config);
    if let Some(s) = &schema {
        engine = engine.with_schema(s);
    }
    if let Some(c) = &cache {
        engine = engine.with_cache(c);
    }
    if let Some(r) = &ring {
        engine = engine.with_observer(r);
    }
    let report = engine.evaluate(&mut doc, &query);
    if let Some(r) = &ring {
        finish_trace(opts, r)?;
    }
    if !report.complete {
        eprintln!(
            "warning: partial answer — {} call(s) failed permanently, \
             {} refused by open breaker, {} shed by the admission gate, \
             {} unknown service(s){}",
            report.stats.failed_calls,
            report.stats.breaker_skips,
            report.stats.shed_skips,
            report.stats.skipped_unknown,
            if report.stats.deadline_exceeded {
                ", deadline exceeded"
            } else if report.stats.truncated {
                ", budget exhausted"
            } else {
                ""
            }
        );
    }
    if opts.flag("stats") {
        eprintln!("{}", report.stats);
    }
    if let (true, Some(r)) = (opts.flag("trace"), &ring) {
        print_trace(&r.events());
    }
    let pretty = SerializeOptions {
        pretty: true,
        declaration: false,
    };
    match opts.value("out").unwrap_or("results") {
        "results" => {
            let out = construct_results(&doc, &query, &report.result);
            println!("{}", to_xml_with(&out, pretty));
        }
        "doc" => println!("{}", to_xml_with(&doc, pretty)),
        other => return Err(format!("--out expects results|doc, got {other:?}")),
    }
    Ok(())
}

/// `--trace`: one stderr line per invocation, projected from the
/// structured stream. A call is `[HEDGED]` when a `hedge` event for it
/// precedes its invocation.
fn print_trace(events: &[Event]) {
    let mut hedged_call = None;
    for e in events {
        match &e.kind {
            EventKind::Hedge { call, .. } => hedged_call = Some(*call),
            EventKind::Invocation {
                service,
                call,
                path,
                pushed,
                cached,
                ok,
                attempts,
                cost_ms,
                ..
            } => {
                eprintln!(
                    "round {:>3}  {:<20} at /{}{}{}{}{}  ({:.1} ms, {} attempt{})",
                    e.round,
                    service,
                    path,
                    if *cached { "  [CACHED]" } else { "" },
                    if hedged_call == Some(*call) {
                        "  [HEDGED]"
                    } else {
                        ""
                    },
                    if *pushed { "  [pushed]" } else { "" },
                    if *ok { "" } else { "  [FAILED]" },
                    cost_ms,
                    attempts,
                    plural(*attempts, "s")
                );
                hedged_call = None;
            }
            _ => {}
        }
    }
}

/// A stream of queries against one document through the store's session
/// machinery (reconstructed §7): the call cache and the simulated clock
/// persist across queries, so repeated work is served at zero network
/// cost. `--idle-ms X` inserts simulated idle time between consecutive
/// queries (aging cached entries toward their `--cache-ttl-ms` horizon);
/// `--persist` materializes results into the stored document instead of
/// evaluating each query on a snapshot (and so ignores `--push`: a pushed
/// query's filtered result must not be published).
fn cmd_session(opts: &Opts) -> Result<(), String> {
    let doc = load_doc(opts)?;
    let sources = opts.values_of("query");
    if sources.is_empty() {
        return Err("session needs at least one --query".into());
    }
    let queries: Vec<Pattern> = sources
        .iter()
        .map(|src| parse_query(src).map_err(|e| format!("{src:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let mut registry = load_world(opts)?;
    apply_fault_opts(&mut registry, opts)?;
    let schema = load_schema(opts)?;
    let options = SessionOptions {
        engine: engine_config(opts)?,
        snapshot_per_query: !opts.flag("persist"),
    };
    let idle_ms: f64 = match opts.value("idle-ms") {
        None => 0.0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--idle-ms expects milliseconds, got {v:?}"))?,
    };

    let sessions: usize = match opts.value("sessions") {
        None => 1,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--sessions expects a count, got {v:?}"))?,
    };

    let ring = trace_collector(opts);
    let mut store = match opts.value("durable") {
        None => DocumentStore::with_configs(cache_config(opts)?, plan_config(opts)?),
        Some(dir) => open_durable_store(opts, dir)?,
    };
    // A recovered store already holds the document at its pre-crash
    // version; only a fresh store takes the `--doc` file as version 0.
    if store.versioned("doc").is_none() {
        store.insert("doc", doc);
    }

    if sessions > 1 {
        return serve_sessions(opts, &store, &registry, schema.as_ref(), options, &queries);
    }

    let mut session = store
        .session("doc", &registry, schema.as_ref(), options)
        .expect("document just inserted");
    if let Some(r) = &ring {
        session = session.with_observer(r);
    }

    let mut total_invoked = 0;
    for (i, query) in queries.iter().enumerate() {
        if i > 0 && idle_ms > 0.0 {
            session.advance_clock(idle_ms);
        }
        let first_event = ring.as_ref().map_or(0, RingSink::len);
        let report = session.query(query);
        let s = &report.stats;
        total_invoked += s.calls_invoked;
        println!("-- query {}: {}", i + 1, render(query));
        println!(
            "   calls={}  cache: {} hits / {} misses / {} expired  \
             sim={:.1} ms  clock={:.1} ms{}",
            s.calls_invoked,
            s.cache_hits,
            s.cache_misses,
            s.cache_stale,
            s.sim_time_ms,
            report.clock_ms,
            if report.complete { "" } else { "  [PARTIAL]" }
        );
        if let (true, Some(r)) = (opts.flag("trace"), &ring) {
            print_trace(&r.events()[first_event..]);
        }
        if opts.flag("stats") {
            eprintln!("{s}");
        }
        if !opts.flag("quiet") {
            for row in &report.answers {
                println!("   {}", row.join(" | "));
            }
        }
    }
    let cs = session.cache().stats();
    println!(
        "== session: {} queries, {} invocations, cache {} hits / {} misses / {} expired \
         ({:.0}% hit rate), {} entries live ({} bytes)",
        queries.len(),
        total_invoked,
        cs.hits,
        cs.misses,
        cs.stale,
        cs.hit_rate() * 100.0,
        session.cache().len(),
        session.cache().total_bytes()
    );
    let ps = store.plans().stats();
    println!(
        "== plans: {} compiled, {} hits / {} misses ({:.0}% hit rate), {} live",
        ps.compiles,
        ps.hits,
        ps.misses,
        ps.hit_rate() * 100.0,
        store.plans().len()
    );
    if let Some(manager) = store.durability() {
        let ds = manager.stats();
        println!(
            "== wal: {} append(s) ({} synced), {} checkpoint(s), acked v{}",
            ds.appends,
            ds.synced_appends,
            ds.checkpoints,
            manager.acked_version("doc").unwrap_or(0)
        );
        if let Some(err) = manager.failure("doc") {
            return Err(format!("write-ahead log failed during session: {err}"));
        }
    }
    if let Some(r) = &ring {
        finish_trace(opts, r)?;
    }
    Ok(())
}

/// Continuous AXML from the command line: registers every `--query` as a
/// standing subscription over the stored document and drives the
/// refresh/reconcile loop for `--horizon-ms` of simulated time. Each
/// cache-TTL lapse (`--cache-ttl-ms`, or per-service windows from the
/// world file's defaults) triggers a refresh that re-invokes exactly the
/// lapsed calls; subscribers whose scope a new version cannot affect
/// skip it without evaluation. Answer deltas stream to stdout (and to
/// `--deltas-json PATH` as JSONL). `--watch-ms` sets the idle polling
/// tick, `--max-refires` bounds total re-invocations per subscription,
/// `--refresh-depth` bounds the calls any single refresh may chase.
fn cmd_subscribe(opts: &Opts) -> Result<(), String> {
    use activexml::sub::{SubscriptionEngine, SubscriptionOptions};

    let doc = load_doc(opts)?;
    let sources = opts.values_of("query");
    if sources.is_empty() {
        return Err("subscribe needs at least one --query".into());
    }
    let queries: Vec<Pattern> = sources
        .iter()
        .map(|src| parse_query(src).map_err(|e| format!("{src:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let mut registry = load_world(opts)?;
    apply_fault_opts(&mut registry, opts)?;
    let schema = load_schema(opts)?;

    let mut options = SubscriptionOptions {
        engine: engine_config(opts)?,
        ..SubscriptionOptions::default()
    };
    if let Some(v) = opts.value("watch-ms") {
        options.watch_ms = v
            .parse()
            .ok()
            .filter(|ms: &f64| *ms > 0.0)
            .ok_or_else(|| format!("--watch-ms expects positive milliseconds, got {v:?}"))?;
    }
    if let Some(v) = opts.value("max-refires") {
        options.max_refires = v
            .parse()
            .map_err(|_| format!("--max-refires expects a count, got {v:?}"))?;
    }
    if let Some(v) = opts.value("refresh-depth") {
        options.refresh_depth = v
            .parse()
            .map_err(|_| format!("--refresh-depth expects a count, got {v:?}"))?;
    }
    if let Some(v) = opts.value("history") {
        options.history_capacity = v
            .parse()
            .map_err(|_| format!("--history expects a count, got {v:?}"))?;
    }
    let horizon_ms: f64 = match opts.value("horizon-ms") {
        None => 1_000.0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--horizon-ms expects milliseconds, got {v:?}"))?,
    };

    let ring = trace_collector(opts);
    let mut store = match opts.value("durable") {
        None => DocumentStore::with_cache_config(cache_config(opts)?),
        Some(dir) => open_durable_store(opts, dir)?,
    };
    if store.versioned("doc").is_none() {
        store.insert("doc", doc);
    }
    let mut engine =
        SubscriptionEngine::over_store(&store, "doc", &registry, schema.as_ref(), options)
            .expect("document just inserted");
    if let Some(r) = &ring {
        engine = engine.with_observer(r);
    }

    for (i, query) in queries.iter().enumerate() {
        let name = format!("sub-{}", i + 1);
        let initial = engine.subscribe(name.clone(), query.clone());
        println!(
            "-- {name}: {} ({} initial rows)",
            render(query),
            initial.len()
        );
        if !opts.flag("quiet") {
            for row in &initial {
                println!("   {}", row.join(" | "));
            }
        }
    }

    let deltas = engine.run_until(horizon_ms);
    for d in &deltas {
        println!(
            "@{:.1} ms  {}  v{}{}  +{} -{} rows{}",
            d.sim_ms,
            d.subscription,
            d.version,
            if d.full_reeval { "  [full]" } else { "" },
            d.added.len(),
            d.removed.len(),
            match d.latency_ms {
                Some(l) => format!("  ({l:.1} ms after lapse)"),
                None => String::new(),
            }
        );
        if !opts.flag("quiet") {
            for row in &d.added {
                println!("   + {}", row.join(" | "));
            }
            for row in &d.removed {
                println!("   - {}", row.join(" | "));
            }
        }
    }
    if let Some(path) = opts.value("deltas-json") {
        let mut out = String::new();
        for d in &deltas {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let stats = engine.stats();
    println!(
        "== subscribe: {} subscription(s), {} refresh(es), {} version(s) published, \
         {} delta(s), {} version(s) scope-skipped, {} re-invocation(s), clock {:.1} ms",
        queries.len(),
        stats.refreshes,
        stats.publications,
        stats.deltas_emitted,
        stats.versions_skipped,
        stats.refresh_invocations,
        engine.clock_ms()
    );
    if opts.flag("stats") {
        for s in engine.status() {
            eprintln!(
                "{}: watermark v{}, {} rows, {} delta(s), {} skipped, {} refire(s) left",
                s.name,
                s.watermark,
                s.rows,
                s.deltas_emitted,
                s.versions_skipped,
                match s.refires_left {
                    usize::MAX => "unbounded".to_string(),
                    n => n.to_string(),
                }
            );
        }
    }
    if let Some(r) = &ring {
        finish_trace(opts, r)?;
    }
    Ok(())
}

/// The multi-tenant path of `axml session` (`--sessions N`): N sessions,
/// each running the full query stream against the stored document, on the
/// store's scheduler — the work-stealing pool (`--workers`), or the
/// seeded deterministic interleaving (`--sched-seed`, single-threaded and
/// reproducible).
fn serve_sessions(
    opts: &Opts,
    store: &DocumentStore,
    registry: &Registry,
    schema: Option<&Schema>,
    options: SessionOptions,
    queries: &[Pattern],
) -> Result<(), String> {
    use activexml::store::{SchedulerMode, SessionSpec};

    let sessions: usize = opts
        .value("sessions")
        .expect("caller checked --sessions")
        .parse()
        .unwrap();
    let workers: usize = match opts.value("workers") {
        None => 4,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--workers expects a count, got {v:?}"))?,
    };
    let mode = match opts.value("sched-seed") {
        None => SchedulerMode::Concurrent { workers },
        Some(v) => SchedulerMode::DeterministicSeeded {
            seed: v
                .parse()
                .map_err(|_| format!("--sched-seed expects a number, got {v:?}"))?,
        },
    };
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|i| {
            let mut spec = SessionSpec::new(format!("session-{i}"), "doc", queries.to_vec());
            spec.options = options.clone();
            spec
        })
        .collect();

    let report = store.serve(&specs, registry, schema, &mode, None);
    for s in &report.sessions {
        let invoked: usize = s.queries.iter().map(|q| q.calls_invoked).sum();
        let hits: usize = s.queries.iter().map(|q| q.cache_hits).sum();
        let partial = s.queries.iter().filter(|q| !q.complete).count();
        println!(
            "-- {}: {} queries, {} invocations, {} cache hits, clock {:.1} ms{}",
            s.name,
            s.queries.len(),
            invoked,
            hits,
            s.clock_ms,
            if partial == 0 {
                String::new()
            } else {
                format!("  [{partial} PARTIAL]")
            }
        );
        if !opts.flag("quiet") {
            for (i, q) in s.queries.iter().enumerate() {
                for row in &q.answers {
                    println!("   q{} {}", i + 1, row.join(" | "));
                }
            }
        }
    }
    let hist = report.latency_histogram();
    let cs = store.cache().stats();
    let sched = match &mode {
        SchedulerMode::Concurrent { workers } => format!("{workers} workers"),
        SchedulerMode::DeterministicSeeded { seed } => format!("seeded interleaving {seed}"),
    };
    println!(
        "== serve: {} sessions x {} queries on {sched}: {:.1} q/s \
         (p50 {:.2} ms, p99 {:.2} ms, wall {:.1} ms), cache {} hits / {} misses \
         across {} shard(s)",
        sessions,
        queries.len(),
        report.queries_per_sec(),
        hist.quantile(0.5),
        hist.quantile(0.99),
        report.wall_ms,
        cs.hits,
        cs.misses,
        store.cache().shard_count()
    );
    Ok(())
}

/// Contribution #1 of the paper, standalone: list the calls of the
/// document that are relevant for the query (Prop. 1 / §5 refined).
fn cmd_relevant(opts: &Opts) -> Result<(), String> {
    let doc = load_doc(opts)?;
    let query = load_query(opts)?;
    let schema = load_schema(opts)?;
    let mode = match opts.value("typing").unwrap_or("exact") {
        "lenient" => activexml::schema::SatMode::Lenient,
        _ => activexml::schema::SatMode::Exact,
    };
    let relevant = activexml::core::relevant_calls(&doc, &query, schema.as_ref(), mode);
    let total = doc.calls().len();
    println!(
        "{} of {} embedded calls are relevant for the query:",
        relevant.len(),
        total
    );
    for (node, id, service) in relevant {
        let path = doc
            .parent(node)
            .map(|p| doc.path_labels(p).join("/"))
            .unwrap_or_default();
        println!("  {id:?}  {service:<24} at /{path}");
    }
    Ok(())
}

fn cmd_validate(opts: &Opts) -> Result<(), String> {
    let doc = load_doc(opts)?;
    let schema = load_schema(opts)?.ok_or("validate needs --schema")?;
    let errors = activexml::schema::validate(&doc, &schema);
    if errors.is_empty() {
        println!(
            "valid: {} nodes, {} pending calls",
            doc.len(),
            doc.calls().len()
        );
        Ok(())
    } else {
        for e in &errors {
            eprintln!("invalid: {e}");
        }
        Err(format!("{} validation error(s)", errors.len()))
    }
}

fn cmd_termination(opts: &Opts) -> Result<(), String> {
    let doc = load_doc(opts)?;
    let schema = load_schema(opts)?.ok_or("termination needs --schema")?;
    match activexml::schema::check_document(&schema, &doc) {
        activexml::schema::Termination::Terminates { max_depth } => {
            println!("terminates: call chains are at most {max_depth} deep");
            Ok(())
        }
        activexml::schema::Termination::PossiblyDiverges { cycle } => {
            let names: Vec<&str> = cycle.iter().map(|l| l.as_str()).collect();
            Err(format!("possibly diverges: cycle {}", names.join(" -> ")))
        }
        activexml::schema::Termination::Unknown { function } => {
            Err(format!("unknown: function {function} is not declared"))
        }
    }
}

fn cmd_materialize(opts: &Opts) -> Result<(), String> {
    let mut doc = load_doc(opts)?;
    let mut registry = load_world(opts)?;
    apply_fault_opts(&mut registry, opts)?;
    let config = EngineConfig {
        max_invocations: match opts.value("max-calls") {
            None => 100_000,
            Some(v) => v.parse().map_err(|_| "--max-calls expects a number")?,
        },
        ..EngineConfig::naive()
    };
    // materialization = naive completion for the match-anything query
    let query = parse_query("/*").map_err(|e| e.to_string())?;
    let stats = Engine::new(&registry, config).complete_for(&mut doc, &query);
    eprintln!("{stats}");
    println!(
        "{}",
        to_xml_with(
            &doc,
            SerializeOptions {
                pretty: true,
                declaration: false
            }
        )
    );
    Ok(())
}

fn cmd_explain(opts: &Opts) -> Result<(), String> {
    let query = load_query(opts)?;
    println!("query: {}", render(&query));
    println!("\nLPQs (§3.1):");
    for lpq in build_lpqs(&query) {
        println!("  {}", render(&lpq.pattern));
    }
    let nfqs = build_nfqs(&query);
    println!("\nNFQs (§3.2, one per query node):");
    for nfq in &nfqs {
        println!("  lin={:<30} {}", nfq.lin.to_string(), render(&nfq.pattern));
    }
    let layers = compute_layers(&nfqs);
    println!("\ninfluence layers (§4.3, topological order):");
    for (i, (layer, independent)) in layers.layers.iter().zip(&layers.independent).enumerate() {
        let lins: Vec<String> = layer.iter().map(|&j| nfqs[j].lin.to_string()).collect();
        println!(
            "  layer {i}{}: {}",
            if *independent {
                " (✳ independent)"
            } else {
                ""
            },
            lins.join(", ")
        );
    }
    Ok(())
}
