//! End-to-end benchmark of the evorec stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Boots the real stack (synthetic world → stream ingest → windows →
//! adaptive engine → HTTP edge), drives it with seeded open-loop load
//! from this process, checks every answer, and prints a report followed
//! by one JSON result line. `--trace 0` measures the end-to-end metrics
//! with the stack untraced; `--trace 1` measures the per-layer metrics
//! from a paired untraced and traced run. See `README.md`.

mod client;
mod gen;
mod layers;
mod metrics;
mod stack;
mod stats;
mod workload;

use crate::gen::PhaseStats;
use crate::metrics::{MetricDef, Values};
use crate::stack::{Stopped, HISTORY_STEPS};
use crate::workload::{Kind, Live, Probe, StreamStats, MAX_GEN_LAG_P99_MS};
use evorec_core::CacheStats;
use evorec_obs::Tracer;
use evorec_serve::json::{self, Json};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// An untraced run boots its stack in two rounds, one before and one
/// after the measured phase, so that `setup_s` (the median of every
/// boot) spans the run rather than the machine's state in its first
/// seconds. A round boots at least `MIN_SETUPS` times and until
/// `SETUP_BUDGET_S` seconds went into it (at most `MAX_SETUPS` times).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET_S: f64 = 2.0;

/// Live epochs whose window spans are replayed on the cold path.
const COLD_EPOCHS: usize = 4;

/// Exit code of a run whose generator fell behind its own schedule.
const EXIT_INVALID: i32 = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required (serve_warm, feedback_churn, epoch_stream)")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Oracle checks made and failed.
#[derive(Default)]
struct Verdict {
    checked: u64,
    wrong: u64,
}

impl Verdict {
    fn add(&mut self, (checked, wrong): (u64, u64)) {
        self.checked += checked;
        self.wrong += wrong;
    }
}

/// Everything one measured arm produced.
struct Arm {
    live: Live,
    latency: PhaseStats,
    stream: StreamStats,
    /// The latency phase plus every ladder probe.
    all: PhaseStats,
    capacity: Option<(f64, Vec<Probe>)>,
}

/// Run the latency phase (and, with `ladder` and a workload that has
/// one, the capacity ladder in the second half of `seconds`) while the
/// live stream pushes bursts.
fn measure(live: Live, seconds: f64, seed: u64, ladder: bool) -> Arm {
    let ladder = ladder && live.tuning.ladder;
    let latency_share = if ladder { 0.5 } else { 1.0 };
    // Freshness counts every epoch of the arm: with the ladder, the
    // latency phase alone holds too few for a tail percentile.
    let ((latency, capacity), stream) = live.with_stream(seconds, || {
        let from = Instant::now();
        let latency = live.latency_phase(seconds * latency_share, seed);
        let capacity = ladder.then(|| live.capacity(seconds * (1.0 - latency_share), seed));
        ((latency, capacity), from, Instant::now())
    });
    let mut all = latency.clone();
    for probe in capacity.iter().flat_map(|(_, probes)| probes) {
        all.absorb(&probe.stats);
    }
    Arm {
        live,
        latency,
        stream,
        all,
        capacity,
    }
}

/// Print the capacity ladder's outcome and every probe.
fn print_capacity(capacity: f64, probes: &[Probe]) {
    println!(
        "  capacity_rps   {capacity:>10.1} req/s  p99 limit {} ms, ladder {}..{} x{}, {} probes",
        workload::P99_LIMIT_MS,
        workload::LADDER.0,
        workload::LADDER.1,
        workload::LADDER_RATIO,
        probes.len()
    );
    for p in probes {
        println!(
            "      probe {:>9.1} req/s  p99 {:>9.3} ms  backlog {:>8.3} ms  errors {}  {}",
            p.rate,
            p.p99_ms,
            p.stats.tail_backlog_ms,
            p.stats.errors(),
            if p.ok { "pass" } else { "miss" }
        );
    }
}

/// Oracles that need the stack running: bit-identity of kept answers
/// (`serve_warm`) and feedback conservation (`feedback_churn`).
fn check_running(live: &Live) -> (u64, u64) {
    match live.kind {
        Kind::ServeWarm => {
            let (checked, wrong) = live.check_identity();
            if wrong > 0 || checked == 0 {
                eprintln!("oracle: {wrong} of {checked} kept answers differ from in-process serve");
            }
            (checked.max(1), wrong + u64::from(checked == 0))
        }
        Kind::FeedbackChurn => {
            live.stack.adaptive.sync();
            let applied = live.stack.adaptive.stats().worker.events;
            let accepted = live.checker.accepted.load(Ordering::Relaxed);
            if applied != accepted || accepted == 0 {
                eprintln!(
                    "oracle: the worker applied {applied} events, the edge accepted {accepted}"
                );
            }
            (1, u64::from(applied != accepted || accepted == 0))
        }
        Kind::EpochStream => (0, 0),
    }
}

/// Stop the stack and run the stream oracle on what it leaves.
fn stop(live: Live, verdict: &mut Verdict) -> Stopped {
    let kind = live.kind;
    let stopped = live.stack.shutdown();
    if kind == Kind::EpochStream {
        verdict.add(workload::check_stream(&stopped));
    }
    stopped
}

/// Generator lateness over the latency phase, including the event
/// pusher; `None` when the run stayed within [`MAX_GEN_LAG_P99_MS`].
fn generator_fault(latency: &PhaseStats, stream: &StreamStats) -> Option<f64> {
    let mut lag = latency.lag_ms.clone();
    lag.extend_from_slice(&stream.lag_ms);
    stats::sort(&mut lag);
    let p99 = stats::percentile(&lag, 0.99).unwrap_or(0.0);
    (p99 > MAX_GEN_LAG_P99_MS).then_some(p99)
}

fn print_result(values: &Values, defs: &[MetricDef], correct: bool, attempted: u64, failed: u64) {
    let missing = values.missing(defs);
    assert!(missing.is_empty(), "metrics not measured: {missing:?}");
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "{}",
        values.result_line(correct, attempted.max(1), failed)
    );
    let _ = out.flush();
}

fn ms_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One round of set-ups (see [`MIN_SETUPS`]), each timed into
/// `setup_s`; returns the last stack booted.
fn boot_round(kind: Kind, setup_s: &mut Vec<f64>) -> Live {
    let mut round = 0.0;
    for n in 1.. {
        let started = Instant::now();
        let live = Live::boot(kind, None);
        let took = started.elapsed().as_secs_f64();
        setup_s.push(took);
        round += took;
        if (n >= MIN_SETUPS && round >= SETUP_BUDGET_S) || n >= MAX_SETUPS {
            return live;
        }
        drop(live.stack.shutdown());
    }
    unreachable!("the round ends within MAX_SETUPS boots")
}

/// `--trace 0`: set-up time, latency and memory over `--seconds` of
/// fixed-rate load.
fn run_untraced(args: &Args) -> i32 {
    let mut setup_s = Vec::new();
    let mut live = boot_round(args.kind, &mut setup_s);
    live.warm_up();
    let arm = measure(live, args.seconds, args.seed, false);
    let mut verdict = Verdict::default();
    verdict.add(check_running(&arm.live));
    let Arm {
        live,
        latency,
        stream,
        all,
        ..
    } = arm;
    let tuning = live.tuning;
    drop(stop(live, &mut verdict));
    let rss_mb = peak_rss_mb();
    drop(boot_round(args.kind, &mut setup_s).stack.shutdown());

    let p99 = latency.latency_p99();
    let slices = latency.slice_p99_ms.len();
    let beyond = stats::beyond(latency.latency_ms.len() / slices.max(1), 0.99);
    let errors = all.errors() + verdict.wrong;
    let error_rate = errors as f64 / all.sent.max(1) as f64;

    println!(
        "workload {}  seed {}  seconds {}  cores {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        cores()
    );
    println!(
        "  setup_s        {:>10.4} s      median of {} set-ups [{}]",
        stats::median(&setup_s),
        setup_s.len(),
        ms_list(&setup_s)
    );
    println!(
        "  response_p50_ms {:>9.4} ms     n={} at {} req/s offered",
        latency.response_p50(),
        latency.response_ms.len(),
        tuning.nominal_rps
    );
    println!(
        "  latency_p50_ms {:>10.4} ms     from the due time; of the response, the edge's handler p50 {:.4} ms and the rest p50 {:.4} ms",
        latency.latency(0.5),
        stats::percentile(&latency.handler_ms, 0.5).unwrap_or(0.0),
        stats::percentile(&latency.edge_ms, 0.5).unwrap_or(0.0)
    );
    println!(
        "  latency_p90_ms {:>10.4} ms     {} beyond",
        latency.latency(0.9),
        stats::beyond(latency.latency_ms.len(), 0.9)
    );
    match p99 {
        Some(v) => println!(
            "  latency_p99_ms {v:>10.4} ms     median of {slices} slice p99s [{}], {beyond} beyond each",
            ms_list(&latency.slice_p99_ms)
        ),
        None => println!(
            "  latency_p99_ms        n/a       n={} (only {beyond} beyond per slice; needs 10)",
            latency.latency_ms.len()
        ),
    }
    println!("  capacity_rps          n/a       measured by the traced run (--trace 1)");
    println!(
        "  error_rate     {error_rate:>10.4}        {errors} of {} attempted (failed {}, refused {}, wrong {}, oracle {}/{})",
        all.sent, all.failed, all.refused, all.wrong, verdict.wrong, verdict.checked
    );
    print_freshness(&stream);
    println!("  peak_rss_mb    {rss_mb:>10.1} MiB");
    println!(
        "  gen            lag p99 {:.3} ms, sent {}, ok {}, failed {}",
        latency.lag_p99_ms(),
        all.sent,
        all.ok,
        all.errors()
    );
    if let Some(lag) = generator_fault(&latency, &stream) {
        eprintln!(
            "e2ebench: run invalid: the generator ran {lag:.3} ms late at p99 \
             (limit {MAX_GEN_LAG_P99_MS} ms); it measured itself, not the stack"
        );
        return EXIT_INVALID;
    }

    let defs = metrics::end_to_end();
    let mut v = Values::default();
    v.set(&defs, "setup_s", stats::median(&setup_s));
    v.set(&defs, "response_p50_ms", latency.response_p50());
    v.set(&defs, "peak_rss_mb", rss_mb);
    let correct = verdict.wrong == 0 && all.wrong == 0;
    print_result(&v, &defs, correct, all.sent, errors);
    if correct {
        0
    } else {
        1
    }
}

fn print_freshness(stream: &StreamStats) {
    if stream.pushed == 0 {
        println!("  fresh_p50_ms          n/a       no live stream on this workload");
        println!("  fresh_tail_ms         n/a");
        return;
    }
    let n = stream.fresh_ms.len();
    match stats::reportable(&stream.fresh_ms, 0.5) {
        Some(p50) => println!(
            "  fresh_p50_ms   {p50:>10.4} ms     n={n} epochs, {} events pushed",
            stream.pushed
        ),
        None => println!("  fresh_p50_ms          n/a       n={n} epochs (needs 20)"),
    }
    match stats::tail_percentile(&stream.fresh_ms) {
        Some((q, v)) => println!(
            "  fresh_tail_ms  {v:>10.4} ms     at p{} (n={n})",
            q * 100.0
        ),
        None => println!("  fresh_tail_ms         n/a       n={n} epochs"),
    }
}

/// Reported cache counters over an interval, both levels.
fn cache_delta(before: &CacheStats, after: &CacheStats) -> (f64, u64, u64) {
    let hits = (after.hits + after.derived_hits) - (before.hits + before.derived_hits);
    let misses = (after.misses + after.derived_misses) - (before.misses + before.derived_misses);
    let lookups = hits + misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    (ratio, lookups, after.invalidations - before.invalidations)
}

/// `(window, user)` pairs of a plan's requests.
fn serve_pairs(live: &Live, seconds: f64, seed: u64) -> Vec<(String, u32)> {
    let n = (live.tuning.nominal_rps * seconds).ceil() as usize;
    let mut pairs = Vec::new();
    for planned in live.traffic.plan(live.tuning.nominal_rps, n, seed) {
        if planned.path == "/v1/feedback" {
            continue;
        }
        let Ok(doc) = json::parse(planned.body.as_bytes()) else {
            continue;
        };
        let window = doc
            .get("window")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let users: Vec<u32> = match doc.get("users").and_then(Json::as_arr) {
            Some(users) => users.iter().filter_map(Json::as_u32).collect(),
            None => doc.get("user").and_then(Json::as_u32).into_iter().collect(),
        };
        pairs.extend(users.into_iter().map(|u| (window.clone(), u)));
    }
    pairs
}

fn p(values: &[f64], q: f64) -> f64 {
    stats::percentile(values, q).unwrap_or(0.0)
}

/// `--trace 1`: the per-layer metrics, from an untraced arm (replays,
/// stream counters, the overhead baseline) and a traced arm (edge
/// timings, span self times, cache and adapt counters).
fn run_traced(args: &Args) -> i32 {
    let defs = metrics::per_layer();
    let mut v = Values::default();
    let mut verdict = Verdict::default();
    let half = args.seconds / 2.0;

    // Untraced arm.
    let mut live = Live::boot(args.kind, None);
    live.warm_up();
    let untraced = measure(live, half, args.seed, true);
    verdict.add(check_running(&untraced.live));
    let pairs = serve_pairs(&untraced.live, half, args.seed);
    let serving = layers::replay_serving(&untraced.live.stack.adaptive, &pairs);
    let Arm {
        live,
        latency: lat_u,
        stream: stream_u,
        all: all_u,
        capacity,
    } = untraced;
    let rejected_u = live.checker.rejected.load(Ordering::Relaxed);
    let stopped = stop(live, &mut verdict);
    let records = stopped.sink.records();
    let streamed = records.len() > HISTORY_STEPS && stream_u.pushed > 0;
    let epochs: Vec<_> = if streamed {
        records[HISTORY_STEPS..].to_vec()
    } else {
        records[..HISTORY_STEPS.min(records.len())].to_vec()
    };
    let cold_spans: Vec<_> = if streamed {
        let step = (epochs.len() / COLD_EPOCHS).max(1);
        epochs
            .iter()
            .step_by(step)
            .take(COLD_EPOCHS)
            .flat_map(|r| r.spans.clone())
            .collect()
    } else {
        let last = &records.last().expect("history epochs").spans;
        last.iter().chain(last.iter()).copied().collect()
    };
    let cold = layers::replay_cold(stopped.ingestor.store(), &cold_spans);
    let windows = stopped.manager.stats();
    let delta_grown = stopped.delta_growth();
    let log = stopped.log.unwrap_or_default();
    drop(stopped);

    // Traced arm.
    let tracer = Arc::new(Tracer::monotonic().with_ring_capacity(1 << 22));
    let mut live = Live::boot(args.kind, Some(Arc::clone(&tracer)));
    live.warm_up();
    let cache_before = live.stack.cache.stats();
    let adapt_before = live.stack.adaptive.stats();
    let traced = measure(live, half, args.seed, false);
    let cache_after = traced.live.stack.cache.stats();
    let sync_started = Instant::now();
    traced.live.stack.adaptive.sync();
    let feedback_sync_ms = sync_started.elapsed().as_secs_f64() * 1e3;
    let adapt_after = traced.live.stack.adaptive.stats();
    let (connections, queue_rejected, admission_rejected) = traced.live.scrape();
    verdict.add(check_running(&traced.live));
    let Arm {
        live,
        latency: lat_t,
        stream: stream_t,
        all: all_t,
        ..
    } = traced;
    let rejected_t = live.checker.rejected.load(Ordering::Relaxed);
    drop(stop(live, &mut verdict));
    let spans = tracer.finished();
    write_spans(args, &spans);

    let set = |v: &mut Values, name: &str, value: f64| v.set(&defs, name, value);
    set(&mut v, "serve.handler_p50_ms", p(&lat_t.handler_ms, 0.5));
    set(&mut v, "serve.handler_p99_ms", p(&lat_t.handler_ms, 0.99));
    set(&mut v, "serve.edge_overhead_p50_ms", p(&lat_t.edge_ms, 0.5));
    set(
        &mut v,
        "serve.edge_overhead_p99_ms",
        p(&lat_t.edge_ms, 0.99),
    );
    set(&mut v, "serve.connections_accepted", connections as f64);
    set(&mut v, "serve.queue_rejected", queue_rejected as f64);
    set(
        &mut v,
        "serve.admission_rejected",
        admission_rejected as f64,
    );
    set(&mut v, "adapt.serve_p50_us", p(&serving.serve_us, 0.5));
    set(&mut v, "adapt.serve_p99_us", p(&serving.serve_us, 0.99));
    set(&mut v, "adapt.feedback_sync_ms", feedback_sync_ms);
    let batches = adapt_after.worker.batches - adapt_before.worker.batches;
    let applied = adapt_after.worker.events - adapt_before.worker.events;
    set(
        &mut v,
        "adapt.events_per_batch",
        if batches == 0 {
            0.0
        } else {
            applied as f64 / batches as f64
        },
    );
    set(
        &mut v,
        "adapt.feedback_rejected",
        (rejected_u + rejected_t) as f64,
    );
    set(
        &mut v,
        "core.profile_expand_p50_us",
        p(&serving.expand_us, 0.5),
    );
    set(
        &mut v,
        "core.profile_expand_p99_us",
        p(&serving.expand_us, 0.99),
    );
    set(&mut v, "core.select_mmr_us", p(&serving.mmr_us, 0.5));
    let (hit_ratio, lookups, invalidations) = cache_delta(&cache_before, &cache_after);
    set(&mut v, "core.cache_hit_ratio", hit_ratio);
    set(&mut v, "core.cache_lookups", lookups as f64);
    set(&mut v, "core.cache_invalidations", invalidations as f64);
    set(
        &mut v,
        "measures.context_build_ms",
        stats::median(&cold.context_build_ms),
    );
    for (id, samples) in &cold.compute_ms {
        set(
            &mut v,
            &format!("measures.compute_ms.{id}"),
            stats::median(samples),
        );
    }
    set(
        &mut v,
        "graphalg.betweenness_ms",
        stats::median(&cold.betweenness_ms),
    );
    let ns_ms = |ns: u64| ns as f64 / 1e6;
    let advance: Vec<f64> = epochs.iter().map(|r| ns_ms(r.advance_ns)).collect();
    let warm_wait: Vec<f64> = epochs.iter().map(|r| ns_ms(r.warm_wait_ns)).collect();
    set(&mut v, "windows.advance_ms", stats::median(&advance));
    set(&mut v, "windows.warm_wait_ms", stats::median(&warm_wait));
    set(
        &mut v,
        "windows.publishes_per_epoch",
        windows.publishes as f64 / windows.epochs.max(1) as f64,
    );
    set(
        &mut v,
        "windows.ring_fallbacks",
        windows.ring_fallbacks as f64,
    );
    for (metric, span) in [
        ("stream.ingest_self_ms", "ingest"),
        ("stream.commit_self_ms", "epoch_commit"),
        ("stream.publish_self_ms", "publish"),
    ] {
        set(
            &mut v,
            metric,
            stats::median(&layers::self_times_ms(&spans, span)),
        );
    }
    let events: usize = epochs.iter().map(|r| r.events).sum();
    set(
        &mut v,
        "stream.events_per_epoch",
        if streamed {
            events as f64 / epochs.len() as f64
        } else {
            0.0
        },
    );
    set(&mut v, "stream.log_high_water", log.high_water as f64);
    set(&mut v, "stream.producer_waits", log.producer_waits as f64);
    set(&mut v, "versioning.delta_computations", delta_grown as f64);
    let overhead = |traced: f64, untraced: f64| {
        if untraced > 0.0 && traced > 0.0 {
            (traced / untraced - 1.0) * 100.0
        } else {
            0.0
        }
    };
    set(
        &mut v,
        "obs.trace_overhead_pct",
        overhead(lat_t.response_p50(), lat_u.response_p50()),
    );
    set(
        &mut v,
        "obs.trace_overhead_fresh_pct",
        overhead(
            stats::median(&stream_t.fresh_ms),
            stats::median(&stream_u.fresh_ms),
        ),
    );
    let mut both = all_u.clone();
    both.absorb(&all_t);
    let mut lag = both.lag_ms.clone();
    lag.extend_from_slice(&stream_u.lag_ms);
    lag.extend_from_slice(&stream_t.lag_ms);
    stats::sort(&mut lag);
    set(&mut v, "gen.lag_p99_ms", p(&lag, 0.99));
    set(&mut v, "gen.sent", both.sent as f64);
    set(&mut v, "gen.ok", both.ok as f64);
    set(&mut v, "gen.failed", both.errors() as f64);
    set(&mut v, "fresh_p50_ms", stats::median(&stream_u.fresh_ms));
    let tail = stats::tail_percentile(&stream_u.fresh_ms);
    set(&mut v, "fresh_tail_ms", tail.map_or(0.0, |(_, t)| t));
    let errors = both.errors() + verdict.wrong;
    set(
        &mut v,
        "error_rate",
        errors as f64 / both.sent.max(1) as f64,
    );
    set(&mut v, "latency_p50_ms", lat_u.latency(0.5));
    set(&mut v, "latency_p90_ms", lat_u.latency(0.9));
    set(
        &mut v,
        "latency_p99_ms",
        lat_u
            .latency_p99()
            .unwrap_or_else(|| stats::median(&lat_u.slice_p99_ms)),
    );
    set(
        &mut v,
        "capacity_rps",
        capacity.as_ref().map_or(0.0, |(rps, _)| *rps),
    );

    println!(
        "workload {}  seed {}  seconds {}  cores {}  (traced run: {} spans kept)",
        args.kind.name(),
        args.seed,
        args.seconds,
        cores(),
        spans.len()
    );
    print!("{}", v.table());
    if let Some((rps, probes)) = &capacity {
        print_capacity(*rps, probes);
    }
    if let Some((q, _)) = tail {
        println!(
            "  (fresh_tail_ms is p{}; {} epochs)",
            q * 100.0,
            stream_u.fresh_ms.len()
        );
    }
    if let Some(lag) = generator_fault(&lat_u, &stream_u).or(generator_fault(&lat_t, &stream_t)) {
        eprintln!(
            "e2ebench: run invalid: the generator ran {lag:.3} ms late at p99 \
             (limit {MAX_GEN_LAG_P99_MS} ms)"
        );
        return EXIT_INVALID;
    }
    let correct = verdict.wrong == 0 && both.wrong == 0;
    print_result(&v, &defs, correct, both.sent, errors);
    if correct {
        0
    } else {
        1
    }
}

/// Write the traced arm's spans as JSON lines under `.bench_out/`.
fn write_spans(args: &Args, spans: &[evorec_obs::FinishedSpan]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-spans.jsonl",
        args.kind.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            writeln!(out, "{}", layers::span_json(s))?;
        }
        out.flush()
    });
    match written {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let code = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    std::process::exit(code);
}
