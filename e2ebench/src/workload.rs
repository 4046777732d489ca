//! The three workloads: their stacks, their seeded traffic, their
//! oracles, and the measured phases (fixed-rate latency phase and
//! capacity ladder).

use crate::client::{self, Reply};
use crate::gen::{self, PhaseStats, Planned, Wait};
use crate::stack::{BenchSink, Ingest, Stack, StackSpec, Stopped, HISTORY_STEPS, WINDOWS};
use crate::stats;
use evorec_core::{ScoredItem, UserId};
use evorec_kb::TripleStore;
use evorec_measures::EvolutionContext;
use evorec_serve::json::{self, Json};
use evorec_serve::wire;
use evorec_stream::{ChangeEvent, EventLog};
use evorec_synth::Zipf;
use evorec_versioning::{VersionId, VersionedStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Generator threads (and connections) never exceed the machine's
/// two cores.
pub const MAX_THREADS: usize = 2;

/// Every `ORACLE_EVERY`-th request's answer is kept for the in-process
/// bit-identity check.
const ORACLE_EVERY: usize = 8;

/// A generator whose own lateness exceeds this at p99 measured itself.
pub const MAX_GEN_LAG_P99_MS: f64 = 10.0;

/// Which workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Warm keep-alive reads at 1000 classes.
    ServeWarm,
    /// Feedback writes beside reads, one connection per request.
    FeedbackChurn,
    /// A live event stream with reads alongside.
    EpochStream,
}

/// Every workload, in report order.
pub const KINDS: [Kind; 3] = [Kind::ServeWarm, Kind::FeedbackChurn, Kind::EpochStream];

/// Fixed parameters of one workload.
#[derive(Copy, Clone, Debug)]
pub struct Tuning {
    /// Stack shape.
    pub stack: StackSpec,
    /// Offered request rate of the latency phase (req/s): [`LOAD_SHARE`]
    /// of the workload's capacity on the reference machine.
    pub nominal_rps: f64,
    /// Whether the workload reports a capacity (runs the [`LADDER`]).
    pub ladder: bool,
    /// Keep-alive connections (else one connection per request).
    pub keep_alive: bool,
    /// Generator threads issuing requests (the event pusher of the
    /// live stream takes the other one).
    pub threads: usize,
    /// Events per burst of the live stream.
    pub burst_events: usize,
    /// Time between bursts of the live stream.
    pub burst_interval: Duration,
}

/// Share of its capacity at which every workload's latency phase runs.
/// At a quarter of capacity requests rarely queue behind one another,
/// so the median shows what one request costs rather than how long the
/// queue was, while both generator threads stay busy enough to overlap
/// requests on the edge. The capacities this is a share of were measured
/// by the ladder below on the reference machine (2 vCPUs): about 2160
/// req/s on `serve_warm` and 1040 on `feedback_churn`. `epoch_stream`'s
/// single read connection took about 4000 req/s before its backlog grew;
/// its p99 limit was left out there, because the cold reads after each
/// burst keep its p99 at 80–160 ms at every rate from 50 req/s up.
pub const LOAD_SHARE: f64 = 0.25;

/// The p99 latency a capacity-ladder rung must meet (ms): 0.1 s, the
/// response time under which users perceive an answer as immediate
/// (Miller 1968; Card, Robertson and Mackinlay 1991). At a quarter of
/// capacity the p99 of both workloads that run the ladder is a few ms,
/// so in practice a rung fails on a growing backlog or an error first.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Lowest and highest rung of the capacity ladder (req/s); rungs are
/// geometric with ratio [`LADDER_RATIO`].
pub const LADDER: (f64, f64) = (100.0, 20_000.0);

/// Ratio between consecutive capacity-ladder rungs.
pub const LADDER_RATIO: f64 = 1.05;

/// A ladder rung whose last quarter ran this far behind its schedule
/// (median) had a growing backlog: over a one-second probe, about 3%
/// more offered load than the system completes.
pub const MAX_TAIL_BACKLOG_MS: f64 = 20.0;

impl Kind {
    /// Workload name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeWarm => "serve_warm",
            Kind::FeedbackChurn => "feedback_churn",
            Kind::EpochStream => "epoch_stream",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn tuning(self) -> Tuning {
        match self {
            Kind::ServeWarm => Tuning {
                stack: StackSpec {
                    classes: 1000,
                    users: 3000,
                    live_steps: 0,
                },
                nominal_rps: LOAD_SHARE * 2160.0,
                ladder: true,
                keep_alive: true,
                threads: 2,
                burst_events: 0,
                burst_interval: Duration::ZERO,
            },
            Kind::FeedbackChurn => Tuning {
                stack: StackSpec {
                    classes: 200,
                    users: 1000,
                    live_steps: 0,
                },
                nominal_rps: LOAD_SHARE * 1040.0,
                ladder: true,
                keep_alive: false,
                threads: 2,
                burst_events: 0,
                burst_interval: Duration::ZERO,
            },
            // Its reads sample what epochs cost the read path. It
            // reports no capacity: under the p99 limit that would only
            // say whether a probe happened to miss the cold reads after
            // a burst.
            Kind::EpochStream => Tuning {
                stack: StackSpec {
                    classes: 500,
                    users: 1000,
                    live_steps: 64,
                },
                nominal_rps: LOAD_SHARE * 4000.0,
                ladder: false,
                keep_alive: true,
                threads: 1,
                burst_events: 64,
                burst_interval: Duration::from_millis(500),
            },
        }
    }
}

/// A feedback target taken from an earlier answer.
#[derive(Clone, Debug)]
struct PoolItem {
    measure: String,
    category: String,
    focus: u32,
    intensity: f64,
}

/// Seeded request planning for one workload over one stack.
pub struct Traffic {
    kind: Kind,
    users: Vec<u32>,
    popularity: Zipf,
    hot: Vec<u32>,
    pool: Vec<PoolItem>,
}

/// Users of the feedback workload's hot set.
const HOT_USERS: usize = 32;

fn recommend_body(user: u32, window: &str) -> String {
    format!(r#"{{"user":{user},"window":"{window}"}}"#)
}

impl Traffic {
    fn new(kind: Kind, stack: &Stack) -> Traffic {
        let users: Vec<u32> = stack.profiles.iter().map(|p| p.id.0).collect();
        let popularity = Zipf::new(users.len(), 1.0);
        let hot = users.iter().copied().take(HOT_USERS).collect();
        Traffic {
            kind,
            users,
            popularity,
            hot,
            pool: Vec::new(),
        }
    }

    fn window(rng: &mut StdRng) -> &'static str {
        WINDOWS[rng.gen_range(0..WINDOWS.len())].0
    }

    fn popular_user(&self, rng: &mut StdRng) -> u32 {
        self.users[self.popularity.sample(rng)]
    }

    /// One planned request (due time filled by the caller).
    fn request(&self, rng: &mut StdRng) -> (&'static str, String) {
        match self.kind {
            Kind::ServeWarm => {
                let window = Traffic::window(rng);
                if rng.gen_bool(0.7) {
                    (
                        "/v1/recommend",
                        recommend_body(self.popular_user(rng), window),
                    )
                } else {
                    let users: Vec<String> =
                        (0..4).map(|_| self.popular_user(rng).to_string()).collect();
                    (
                        "/v1/recommend/bulk",
                        format!(r#"{{"window":"{window}","users":[{}]}}"#, users.join(",")),
                    )
                }
            }
            Kind::FeedbackChurn => {
                let user = self.hot[rng.gen_range(0..self.hot.len())];
                let window = Traffic::window(rng);
                if rng.gen_bool(0.5) && !self.pool.is_empty() {
                    let events: Vec<String> = (0..2)
                        .map(|_| {
                            let item = &self.pool[rng.gen_range(0..self.pool.len())];
                            let reaction = ["accept", "dwell", "dismiss", "reject"][rng.gen_range(0..4usize)];
                            format!(
                                r#"{{"user":{user},"measure":"{}","category":"{}","focus":{},"intensity":{},"reaction":"{reaction}","window":"{window}"}}"#,
                                item.measure, item.category, item.focus, item.intensity
                            )
                        })
                        .collect();
                    (
                        "/v1/feedback",
                        format!(r#"{{"events":[{}]}}"#, events.join(",")),
                    )
                } else {
                    ("/v1/recommend", recommend_body(user, window))
                }
            }
            Kind::EpochStream => (
                "/v1/recommend",
                recommend_body(self.popular_user(rng), Traffic::window(rng)),
            ),
        }
    }

    /// `n` requests at `rate`, drawn from `seed`.
    pub fn plan(&self, rate: f64, n: usize, seed: u64) -> Vec<Planned> {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::schedule(n, rate)
            .map(|due_ns| {
                let (path, body) = self.request(&mut rng);
                Planned { due_ns, path, body }
            })
            .collect()
    }
}

/// Judges answers and keeps what the oracles need.
#[derive(Default)]
pub struct Checker {
    /// `(request body, response body)` samples for bit-identity.
    samples: Mutex<Vec<(String, Vec<u8>)>>,
    /// Feedback events the edge accepted.
    pub accepted: AtomicU64,
    /// Feedback events the edge refused (429 partial accepts).
    pub rejected: AtomicU64,
}

impl Checker {
    /// Check one answer to `request`; `keep` asks for it to be kept
    /// for the bit-identity oracle.
    fn check(&self, request: &Planned, reply: &Reply, keep: bool) -> bool {
        if request.path == "/v1/feedback" {
            let Ok(doc) = json::parse(&reply.body) else {
                return false;
            };
            let accepted = doc.get("accepted").and_then(Json::as_u64).unwrap_or(0);
            let rejected = doc.get("rejected").and_then(Json::as_u64).unwrap_or(0);
            self.accepted.fetch_add(accepted, Ordering::Relaxed);
            self.rejected.fetch_add(rejected, Ordering::Relaxed);
            return reply.status != 200 || accepted == 2;
        }
        let body = &reply.body;
        let well_formed = body.first() == Some(&b'{')
            && body.last() == Some(&b'}')
            && !body.windows(17).any(|w| w == b"\"status\":\"error\"");
        if keep && well_formed {
            self.samples
                .lock()
                .expect("oracle samples")
                .push((request.body.clone(), body.clone()));
        }
        well_formed
    }
}

/// Bit-level identity of a served item list.
fn bits(items: &[ScoredItem]) -> Vec<(String, u32, [u64; 4])> {
    items
        .iter()
        .map(|s| {
            (
                s.item.measure.as_str().to_string(),
                s.item.focus.as_u32(),
                [
                    s.item.intensity.to_bits(),
                    s.relevance.to_bits(),
                    s.novelty.to_bits(),
                    s.objective.to_bits(),
                ],
            )
        })
        .collect()
}

/// A booted workload with its traffic and answer checks.
pub struct Live {
    /// Which workload.
    pub kind: Kind,
    /// Its parameters.
    pub tuning: Tuning,
    /// The stack under test.
    pub stack: Stack,
    /// Request planning.
    pub traffic: Traffic,
    /// Answer checks and oracle samples.
    pub checker: Checker,
    addr: SocketAddr,
}

/// Results of the live event stream.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Freshness of every epoch completed while the load ran (ms),
    /// sorted.
    pub fresh_ms: Vec<f64>,
    /// Events pushed.
    pub pushed: usize,
    /// The pusher's own lateness (ms), sorted.
    pub lag_ms: Vec<f64>,
}

impl Live {
    /// Boot the workload's stack.
    pub fn boot(kind: Kind, tracer: Option<Arc<evorec_obs::Tracer>>) -> Live {
        let tuning = kind.tuning();
        let stack = Stack::boot(tuning.stack, tracer);
        let traffic = Traffic::new(kind, &stack);
        let addr = stack.server.local_addr();
        Live {
            kind,
            tuning,
            stack,
            traffic,
            checker: Checker::default(),
            addr,
        }
    }

    /// A fixed, sequential warm-up: every window once for each of 8
    /// hot users. The feedback pool is taken from these answers.
    pub fn warm_up(&mut self) {
        let mut conn = client::connect(self.addr).expect("edge accepts");
        for &user in self.traffic.hot.iter().take(8) {
            for (window, _) in WINDOWS {
                let req =
                    client::encode("/v1/recommend", Some(&recommend_body(user, window)), true);
                let reply = client::exchange(&mut conn, &req).expect("warm-up answer");
                assert_eq!(reply.status, 200, "warm-up request refused");
                let doc = json::parse(&reply.body).expect("warm-up json");
                for item in wire::decode_items(&doc).expect("warm-up items") {
                    self.traffic.pool.push(PoolItem {
                        measure: item.item.measure.as_str().to_string(),
                        category: item.item.category.label().to_string(),
                        focus: item.item.focus.as_u32(),
                        intensity: item.item.intensity,
                    });
                }
            }
        }
    }

    /// Run one planned phase against the edge.
    pub fn drive(&self, plan: &[Planned], threads: usize) -> PhaseStats {
        let keep_alive = self.tuning.keep_alive;
        let addr = self.addr;
        let wait = if keep_alive { Wait::Yield } else { Wait::Sleep };
        let records = gen::drive(
            plan,
            threads.min(MAX_THREADS),
            wait,
            |_| {
                let mut conn = None;
                move |p: &Planned| {
                    let request = client::encode(p.path, Some(&p.body), keep_alive);
                    if !keep_alive {
                        return client::exchange(&mut client::connect(addr)?, &request);
                    }
                    if conn.is_none() {
                        conn = Some(client::connect(addr)?);
                    }
                    let stream = conn.as_mut().expect("connected");
                    let reply = client::exchange(stream, &request);
                    if reply.is_err() {
                        conn = None;
                    }
                    reply
                }
            },
            // Only serve_warm's answers stay comparable with a later
            // in-process serve (nothing changes profiles or contexts).
            |i, reply| {
                let keep = self.kind == Kind::ServeWarm && i % ORACLE_EVERY == 0;
                self.checker.check(&plan[i], reply, keep)
            },
        );
        PhaseStats::from_records(&records)
    }

    /// The fixed-rate latency phase: `seconds` at the nominal rate.
    pub fn latency_phase(&self, seconds: f64, seed: u64) -> PhaseStats {
        let n = (self.tuning.nominal_rps * seconds).ceil() as usize;
        let plan = self.traffic.plan(self.tuning.nominal_rps, n, seed);
        self.drive(&plan, self.tuning.threads)
    }

    /// The capacity ladder, searched by bisection within `seconds`:
    /// returns the highest rung that met the p99 limit with no error
    /// and no growing backlog, and every probe made. A rung that misses
    /// is probed once more before it counts as missed, so one stall of
    /// the machine does not halve the figure.
    pub fn capacity(&self, seconds: f64, seed: u64) -> (f64, Vec<Probe>) {
        let (lo, hi) = LADDER;
        let rungs: Vec<f64> = (0..)
            .map(|k| lo * LADDER_RATIO.powi(k))
            .take_while(|&r| r <= hi)
            .collect();
        // Bisection steps, plus a retry for about half of them.
        let steps = (rungs.len() as f64).log2().ceil() as usize + 1;
        let probe_s = seconds / (steps + steps / 2) as f64;
        let (mut pass, mut fail) = (None::<usize>, rungs.len());
        let mut probes = Vec::new();
        let mut low = 0usize;
        while low < fail {
            let mid = low + (fail - low) / 2;
            let rate = rungs[mid];
            let n = ((rate * probe_s).ceil() as usize).max(20);
            let mut ok = false;
            for attempt in 0..2u64 {
                let plan = self
                    .traffic
                    .plan(rate, n, seed ^ (0xC0FFEE + 2 * mid as u64 + attempt));
                let stats = self.drive(&plan, self.tuning.threads);
                let p99 = stats.latency(0.99);
                ok = stats.errors() == 0
                    && p99 <= P99_LIMIT_MS
                    && stats.tail_backlog_ms <= MAX_TAIL_BACKLOG_MS;
                probes.push(Probe {
                    rate,
                    p99_ms: p99,
                    ok,
                    stats,
                });
                if ok {
                    break;
                }
            }
            if ok {
                pass = Some(mid);
                low = mid + 1;
            } else {
                fail = mid;
            }
        }
        (pass.map_or(0.0, |ix| rungs[ix]), probes)
    }

    /// Push the live stream's bursts on schedule while `body` runs;
    /// freshness is taken over the epochs that complete between the two
    /// instants `body` returns.
    pub fn with_stream<R>(
        &self,
        seconds: f64,
        body: impl FnOnce() -> (R, Instant, Instant),
    ) -> (R, StreamStats) {
        let Ingest::Live {
            pipeline, events, ..
        } = &self.stack.ingest
        else {
            let (result, _, _) = body();
            return (result, StreamStats::default());
        };
        let log: Arc<EventLog> = Arc::clone(pipeline.log());
        let sink = &self.stack.sink;
        let stop = AtomicBool::new(false);
        let first_live_epoch = sink.records().len();
        let (burst, interval) = (self.tuning.burst_events, self.tuning.burst_interval);
        // A fixed number of bursts per run: every epoch adds a version
        // to the store, so the count must not depend on how long the
        // ladder's probes happened to take.
        let bursts = (seconds / interval.as_secs_f64()) as usize;
        let events = &events[..(bursts * burst).min(events.len())];
        sink.arm(true);
        let (result, phase, pushed) = std::thread::scope(|scope| {
            let pusher = scope.spawn(|| push_bursts(sink, &log, events, burst, interval, &stop));
            let (result, from, to) = body();
            stop.store(true, Ordering::Release);
            let pushed = pusher.join().expect("event pusher");
            (result, (from, to), pushed)
        });
        sink.arm(false);
        let (due, lag_ms) = pushed;
        // Let the pipeline catch up before reading the sink.
        sink.await_events(first_live_epoch, due.len(), Duration::from_secs(60));
        let mut fresh_ms = Vec::new();
        let mut cumulative = 0usize;
        for record in self.stack.sink.records().iter().skip(first_live_epoch) {
            cumulative += record.events;
            let Some(&newest) = due.get(cumulative.saturating_sub(1)) else {
                continue;
            };
            if record.done >= phase.0 && record.done <= phase.1 {
                fresh_ms.push(record.done.saturating_duration_since(newest).as_secs_f64() * 1e3);
            }
        }
        stats::sort(&mut fresh_ms);
        let stream = StreamStats {
            fresh_ms,
            pushed: due.len(),
            lag_ms,
        };
        (result, stream)
    }

    /// Scrape `GET /metrics` and return the edge's
    /// `(connections, queue rejections, admission rejections)`.
    pub fn scrape(&self) -> (u64, u64, u64) {
        let mut conn = client::connect(self.addr).expect("edge accepts");
        let reply = client::exchange(&mut conn, &client::encode("/metrics", None, false))
            .expect("metrics answer");
        let text = String::from_utf8_lossy(&reply.body);
        let value = |prefix: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(prefix))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .map(|v| v as u64)
                .sum()
        };
        let queue = value("evorec_serve_admission_rejections_total{reason=\"queue\"}");
        let admission = value("evorec_serve_admission_rejections_total{reason=\"saturated\"}")
            + value("evorec_serve_admission_rejections_total{reason=\"rate\"}");
        (value("evorec_serve_connections_total"), queue, admission)
    }

    /// Bit-identity oracle: every kept answer equals the in-process
    /// `AdaptiveRecommender::serve` for the same window and user.
    /// Returns `(checked rows, mismatches)`. Only valid while profiles
    /// and contexts are unchanged since the answers were served.
    pub fn check_identity(&self) -> (u64, u64) {
        let samples = std::mem::take(&mut *self.checker.samples.lock().expect("samples"));
        let (mut checked, mut wrong) = (0u64, 0u64);
        for (request, response) in samples {
            let (Ok(req), Ok(resp)) = (json::parse(request.as_bytes()), json::parse(&response))
            else {
                wrong += 1;
                continue;
            };
            let window = req.get("window").and_then(Json::as_str).unwrap_or("");
            let rows: Vec<(u32, &Json)> = match req.get("users").and_then(Json::as_arr) {
                Some(users) => {
                    let results = resp.get("results").and_then(Json::as_arr).unwrap_or(&[]);
                    if results.len() != users.len() {
                        wrong += 1;
                        continue;
                    }
                    users
                        .iter()
                        .filter_map(Json::as_u32)
                        .zip(results.iter())
                        .collect()
                }
                None => match req.get("user").and_then(Json::as_u32) {
                    Some(user) => vec![(user, &resp)],
                    None => Vec::new(),
                },
            };
            for (user, row) in rows {
                checked += 1;
                let local = self.stack.adaptive.serve(window, UserId(user));
                let served = wire::decode_items(row);
                match (local, served) {
                    (Some(local), Ok(served)) if bits(&local.items) == bits(&served) => {}
                    _ => wrong += 1,
                }
            }
        }
        (checked, wrong)
    }
}

/// One capacity-ladder probe.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Offered rate (req/s).
    pub rate: f64,
    /// Observed p99 (ms).
    pub p99_ms: f64,
    /// Whether the rung passed.
    pub ok: bool,
    /// The probe's phase statistics.
    pub stats: PhaseStats,
}

/// Push `events` in bursts of `burst`, one burst every `interval`,
/// until they run out or `stop` is raised. Returns every pushed
/// event's due instant (its burst's) and the pusher's own lateness per
/// burst (ms, sorted).
fn push_bursts(
    sink: &BenchSink,
    log: &EventLog,
    events: &[ChangeEvent],
    burst: usize,
    interval: Duration,
    stop: &AtomicBool,
) -> (Vec<Instant>, Vec<f64>) {
    let start = Instant::now();
    let mut due_at = Vec::with_capacity(events.len());
    let mut lag_ms = Vec::new();
    let mut ready = start;
    for (k, chunk) in events.chunks(burst.max(1)).enumerate() {
        let due = start + interval.mul_f64(k as f64);
        gen::wait_until(due, Wait::Yield);
        if stop.load(Ordering::Acquire) {
            break;
        }
        lag_ms.push(
            Instant::now()
                .saturating_duration_since(due.max(ready))
                .as_secs_f64()
                * 1e3,
        );
        let pushed = sink.push_burst(|| {
            chunk
                .iter()
                .take_while(|event| log.push((*event).clone()).is_ok())
                .count()
        });
        ready = Instant::now();
        due_at.extend(std::iter::repeat_n(due, pushed));
        if pushed < chunk.len() {
            break;
        }
    }
    stats::sort(&mut lag_ms);
    (due_at, lag_ms)
}

/// The epoch-stream oracle, run on the final history: every window's
/// live context fingerprint equals a batch `EvolutionContext::build`
/// over its span in a fresh store (which diffs the two snapshots from
/// scratch), and no window advance re-diffed snapshots in the live
/// store. Returns `(checks, failures)`.
pub fn check_stream(stopped: &Stopped) -> (u64, u64) {
    let store = stopped.ingestor.store();
    let mut failures = 0;
    for (name, _) in WINDOWS {
        let (from, to) = stopped.manager.span(name).expect("managed window");
        let live = stopped
            .manager
            .window(name)
            .expect("managed window")
            .current();
        let batch = batch_context(store, from, to);
        if live.fingerprint() != batch.fingerprint() {
            eprintln!(
                "oracle: window {name} serves {} but a batch build gives {}",
                live.fingerprint(),
                batch.fingerprint()
            );
            failures += 1;
        }
    }
    let grown = stopped.delta_growth();
    if grown != 0 {
        eprintln!("oracle: {grown} snapshot re-diffs during the stream (expected none)");
        failures += 1;
    }
    if stopped.sink.records().len() <= HISTORY_STEPS {
        eprintln!("oracle: the stream committed no epoch");
        failures += 1;
    }
    (WINDOWS.len() as u64 + 2, failures)
}

/// A context for `from → to` built by a store that only knows the two
/// snapshots (placeholders fill the other version slots so ids match).
fn batch_context(store: &VersionedStore, from: VersionId, to: VersionId) -> EvolutionContext {
    let mut fresh = VersionedStore::new();
    for v in 0..=to.as_u32() {
        let id = VersionId::from_u32(v);
        let snapshot = if id == from || id == to {
            store.snapshot(id).clone()
        } else {
            TripleStore::new()
        };
        fresh.commit_snapshot(format!("v{v}"), snapshot);
    }
    EvolutionContext::build(&fresh, from, to)
}
