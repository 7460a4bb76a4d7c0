//! End-to-end serving benchmark for the Active XML store.
//!
//! ```text
//! perfbench --workload <read-mix|tenant-write|feed-durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs three phases in one process: a subscription feed
//! loop on a durable store, a closed loop of sessions through
//! `DocumentStore::serve`, and recovery of every log the run wrote. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
//! the same phases once untraced and once through the benchmark's own
//! layer-by-layer runner, and prints the per-layer metrics. Diagnostics
//! go to standard error; the last line of standard output is the result
//! object. See README.md for the metrics and workloads.

mod alloc;
mod inputs;
mod phases;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use inputs::Workload;
use phases::{RunTotals, Tally};
use stats::{median, metric, ratio, slow_rate, windowed, Metric, SLOW_QUARTILE};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Share of the traced operations' wall time that per-layer self times
/// must account for.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (read-mix, tenant-write or feed-durable)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} workers {workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, workers, &mut tally)
    } else {
        untraced(&args, workers, &mut tally)
    };
    eprintln!(
        "perfbench: {} operations checked, {} failed (failed_frac {:.6})",
        tally.attempted,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    for note in &tally.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    println!(
        "{}",
        stats::result_line(tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn untraced(args: &Args, workers: usize, tally: &mut Tally) -> Vec<Metric> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut serve = None;
    for _ in 0..SETUP_REPS {
        drop(serve.take());
        let t = Instant::now();
        serve = phases::setup(args.workload, args.seed, false);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut run = phases::run(
        args.workload,
        args.seed,
        args.seconds,
        workers,
        serve,
        false,
        tally,
    );
    // central values take the windows' slower quartile, tails the
    // windows' median. The delta tail stops at p95: above it lie stalls
    // of the host that last a whole feed episode, a few per run.
    let (p50, _, _) = windowed(&run.serve.latency_ms, 0.5, SLOW_QUARTILE);
    let (p99, q, qn) = windowed(&run.serve.latency_ms, 0.99, 0.5);
    let (d50, _, _) = windowed(&run.feed.delta_ms, 0.5, SLOW_QUARTILE);
    let (d95, dq, dn) = windowed(&run.feed.delta_ms, 0.95, 0.5);
    eprintln!(
        "perfbench: {} queries in {} batches, tail over windows of {qn} at q {q:.4}; {} versions in {} feed episodes, {} deltas, tail over windows of {dn} at q {dq:.4}",
        run.serve.queries,
        run.serve.batches,
        run.feed.versions,
        run.feed.episodes,
        run.feed.delta_ms.len(),
    );
    vec![
        metric("qps", slow_rate(&mut run.serve.batch_rates), "1/s"),
        metric("query_p50_ms", p50, "ms"),
        metric("query_p99_ms", p99, "ms"),
        metric(
            "versions_per_s",
            slow_rate(&mut run.feed.episode_rates),
            "1/s",
        ),
        metric("delta_p50_ms", d50, "ms"),
        metric("delta_p95_ms", d95, "ms"),
        metric("recover_ms", run.recover_ms, "ms"),
        metric(
            "wal_kb_per_version",
            ratio(run.feed.wal_bytes as f64 / 1024.0, run.feed.versions as f64),
            "KB",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("setup_s", median(&mut setup_s), "s"),
    ]
}

/// The traced run: the phases once untraced (the baseline for the
/// tracing overhead and the scheduler's idle share) and once traced, on
/// half of `--seconds` each.
fn traced(args: &Args, workers: usize, tally: &mut Tally) -> Vec<Metric> {
    let half = args.seconds / 2.0;
    let serve = phases::setup(args.workload, args.seed, false);
    let plain = phases::run(args.workload, args.seed, half, workers, serve, false, tally);
    let serve = phases::setup(args.workload, args.seed, true);
    let traced = phases::run(args.workload, args.seed, half, workers, serve, true, tally);
    let metrics = layer_metrics(&plain, &traced, workers);
    report_layers(args.workload, &traced);
    let covered = coverage(&traced);
    tally.check(covered >= MIN_COVERAGE, || {
        format!(
            "trace: layer self times cover only {:.1}% of operation wall time",
            100.0 * covered
        )
    });
    metrics
}

fn layer_metrics(plain: &RunTotals, traced: &RunTotals, workers: usize) -> Vec<Metric> {
    let l = &traced.ledger;
    let q = l.queries;
    let per_q = |v: f64, scale: f64| ratio(v / scale, q);
    let rounds = l.feed_rounds;
    let f = &traced.feed;

    // tracing overhead: busy time of the traced operations (side probes
    // included) over what the untraced run spent per operation; busy
    // time, not throughput, so the two runners' scheduling cancels out
    let plain_per_query = ratio(plain.serve.busy_ms * 1e6, plain.serve.queries as f64);
    let plain_per_round = ratio(plain.feed.loop_ns, plain.feed.rounds as f64);
    let expected = l.queries * plain_per_query + rounds * plain_per_round;
    let overhead = ratio(l.query_ns + l.side_ns + l.round_ns, expected) - 1.0;

    vec![
        metric("core.relevance_ms", per_q(l.relevance_ns, 1e6), "ms"),
        metric(
            "core.relevance_evals",
            per_q(l.relevance_evals, 1.0),
            "count",
        ),
        metric("core.rounds", per_q(l.rounds, 1.0), "count"),
        metric("core.final_eval_ms", per_q(l.final_ns, 1e6), "ms"),
        metric("core.allocs_per_query", per_q(l.eval_allocs, 1.0), "count"),
        metric("core.alloc_kb_per_query", per_q(l.eval_bytes, 1024.0), "KB"),
        metric("core.splice_invoke_ms", per_q(l.splice_ns, 1e6), "ms"),
        metric("store.cache_probe_us", per_q(l.probe_ns, 1e3), "us"),
        metric(
            "store.cache_hit_ratio",
            ratio(l.probe_hits, l.probes),
            "ratio",
        ),
        metric("xml.snapshot_copy_us", per_q(l.snapshot_ns, 1e3), "us"),
        metric("query.render_us", per_q(l.render_ns, 1e3), "us"),
        metric("query.parse_us", per_q(l.parse_ns, 1e3), "us"),
        metric("core.compile_ms", per_q(l.compile_ns, 1e6), "ms"),
        metric(
            "core.compile_allocs",
            ratio(l.compile_allocs, l.compiles),
            "count",
        ),
        metric(
            "store.plan_fetch_us",
            ratio(l.fetch_ns / 1e3, l.fetches),
            "us",
        ),
        metric(
            "store.plan_hit_ratio",
            ratio(l.plan_hits, l.fetches),
            "ratio",
        ),
        metric("store.publish_us", per_q(l.publish_ns, 1e3), "us"),
        metric(
            "store.conflict_rerun_ratio",
            if plain.serve.winner_calls > 0 {
                plain.serve.registry_calls as f64 / plain.serve.winner_calls as f64 - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "services.calls_per_query",
            per_q(l.winner_calls, 1.0),
            "count",
        ),
        metric("services.sim_ms_per_query", per_q(l.sim_ms, 1.0), "ms"),
        metric(
            "store.wal_append_us",
            ratio(l.wal_append_ns / 1e3, l.wal_appends),
            "us",
        ),
        metric(
            "store.wal_sync_us",
            ratio(l.wal_sync_ns / 1e3, l.wal_syncs),
            "us",
        ),
        metric(
            "store.wal_bytes_per_append",
            ratio(l.wal_bytes, l.wal_appends),
            "B",
        ),
        metric(
            "store.wal_appends_per_query",
            per_q(l.query_wal_appends, 1.0),
            "count",
        ),
        metric(
            "store.checkpoint_ratio",
            ratio(f.checkpoints as f64, f.wal_records as f64),
            "ratio",
        ),
        metric("sub.refresh_ms", ratio(l.refresh_ns / 1e6, rounds), "ms"),
        metric(
            "sub.refresh_calls_per_round",
            ratio(f.refresh_invocations as f64, f.rounds as f64),
            "count",
        ),
        metric(
            "sub.reconcile_ms",
            ratio(l.reconcile_ns / 1e6, rounds),
            "ms",
        ),
        metric(
            "sub.skip_ratio",
            ratio(f.skipped as f64, f.sub_versions as f64),
            "ratio",
        ),
        metric(
            "sub.full_reeval_ratio",
            ratio(f.full_reevals as f64, f.sub_versions as f64),
            "ratio",
        ),
        metric(
            "store.recover_us_per_frame",
            ratio(l.recover_ns / 1e3, l.frames),
            "us",
        ),
        metric(
            "store.sched_idle_frac",
            1.0 - ratio(
                plain.serve.busy_ms,
                plain.serve.wall_ns / 1e6 * workers as f64,
            ),
            "ratio",
        ),
        metric("trace.overhead_frac", overhead, "ratio"),
        metric("trace.unattributed_frac", 1.0 - coverage(traced), "ratio"),
    ]
}

/// Self time of each layer over the traced operations (session queries
/// and feed rounds), in ns.
fn layer_times(run: &RunTotals) -> Vec<(&'static str, f64)> {
    let l = &run.ledger;
    vec![
        ("query.parse", l.parse_ns),
        ("store.plan_fetch", l.fetch_ns),
        ("core.compile", l.compile_ns),
        ("xml.snapshot_copy", l.snapshot_ns),
        ("core.relevance", l.relevance_ns),
        ("core.final_eval", l.final_ns),
        ("store.cache_probe", l.probe_ns),
        ("core.splice_invoke", l.splice_ns),
        ("store.publish", l.publish_ns),
        ("store.wal", l.wal_append_ns + l.wal_sync_ns),
        ("query.render", l.render_ns),
        ("sub.refresh", l.refresh_ns),
        ("sub.reconcile", l.reconcile_ns),
        ("store.cache_purge", l.purge_ns),
    ]
}

/// Share of the traced operations' wall time that layer self times
/// account for.
fn coverage(run: &RunTotals) -> f64 {
    let attributed: f64 = layer_times(run).iter().map(|(_, t)| t).sum();
    ratio(attributed, run.ledger.query_ns + run.ledger.round_ns)
}

fn report_layers(workload: Workload, run: &RunTotals) {
    let total = run.ledger.query_ns + run.ledger.round_ns;
    let mut layers = layer_times(run);
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!(
        "perfbench: layer self time over {:.3} s of traced operations",
        total / 1e9
    );
    for (name, t) in &layers {
        eprintln!("perfbench:   {name:<20} {:>7.2}%", 100.0 * ratio(*t, total));
    }
    eprintln!(
        "perfbench: largest layer on {}: {} ({:.1}%); attributed {:.1}%",
        workload.name(),
        layers[0].0,
        100.0 * ratio(layers[0].1, total),
        100.0 * coverage(run)
    );
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
