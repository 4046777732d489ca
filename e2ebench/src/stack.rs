//! Booting the real stack: synthetic world → stream ingest → windows →
//! adaptive engine → HTTP edge, with default options throughout and the
//! optional [`Tracer`] passed in through the public options only. The
//! one addition is the benchmark's epoch sink ([`BenchSink`]), which
//! times each window advance and, while the live stream runs, holds the
//! ingest worker between bursts.

use evorec_adapt::{AdaptiveOptions, AdaptiveRecommender};
use evorec_core::{RecommenderConfig, ReportCache, UserProfile};
use evorec_measures::MeasureRegistry;
use evorec_obs::{span, MetricsRegistry, MetricsSource, SpanHandle, Tracer};
use evorec_serve::{HttpServer, ServeOptions};
use evorec_stream::{
    ChangeEvent, EpochCommit, EpochSink, Ingestor, IngestorConfig, LogStats, PipelineOptions,
    StreamPipeline,
};
use evorec_synth::workload::curated_kb;
use evorec_synth::workload::streamed::{replay, seeded_ingestor};
use evorec_synth::{generate_population, PopulationConfig, Scenario};
use evorec_versioning::{VersionId, VersionedStore};
use evorec_windows::{
    WindowDef, WindowManager, WindowManagerOptions, WindowSpec, WindowedRecommender,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// World and population seeds are fixed: `--seed` varies the traffic,
/// not the world, so runs with different seeds measure the same system.
const WORLD_SEED: u64 = 11;
const POPULATION_SEED: u64 = 12;

/// Evolution steps every world gets before serving (the curated
/// preset's own uniform-churn and hotspot steps).
pub const HISTORY_STEPS: usize = 2;

/// The served windows: name and temporal spec.
pub const WINDOWS: [(&str, WindowSpec); 3] = [
    ("landmark", WindowSpec::Landmark),
    ("last", WindowSpec::LastEpoch),
    ("sliding4", WindowSpec::SlidingEpochs(4)),
];

/// Shape of one stack.
#[derive(Clone, Copy, Debug)]
pub struct StackSpec {
    /// Classes of the curated world.
    pub classes: usize,
    /// Generated users seeded into the profile store.
    pub users: usize,
    /// Extra evolution steps evolved after the history and kept back
    /// as the live event stream (0 = no live stream).
    pub live_steps: usize,
}

/// The seeded cycle of scenarios the live stream is evolved from.
fn live_scenario(step: usize) -> Scenario {
    match step % 4 {
        0 => Scenario::UniformChurn { rate: 0.1 },
        1 => Scenario::Hotspot {
            focus_classes: 3,
            rate: 0.1,
            concentration: 0.9,
        },
        2 => Scenario::Drift { rate: 0.2 },
        _ => Scenario::SchemaRefactor { moves: 5 },
    }
}

/// What the benchmark's epoch sink saw for one epoch.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Events folded into the epoch.
    pub events: usize,
    /// Time inside `WindowManager::on_epoch` (advance + publish).
    pub advance_ns: u64,
    /// Time inside `WindowManager::wait_for_warm` afterwards.
    pub warm_wait_ns: u64,
    /// When every window served a warm context containing the epoch.
    pub done: Instant,
    /// Every window's `(from, to)` span after the epoch, in
    /// [`WINDOWS`] order.
    pub spans: Vec<(VersionId, VersionId)>,
    /// The store's `delta_computations` when the epoch reached the
    /// sink.
    pub delta_computations: u64,
}

/// Burst bookkeeping of the live stream (see [`BenchSink::push_burst`]).
#[derive(Default)]
struct Gate {
    /// Whether the sink holds the ingest worker between bursts.
    armed: bool,
    /// Events of completely pushed bursts.
    pushed: usize,
    /// Events committed in epochs.
    committed: usize,
}

/// The benchmark-owned [`EpochSink`]: forwards each epoch to the
/// window manager, then waits until every window is warm, timing both
/// from outside.
///
/// While the live stream runs, the sink also holds the ingest worker
/// after each epoch until the next burst of events is completely in the
/// log. A burst then always commits as one epoch; otherwise the
/// pipeline's micro-batching would cut bursts wherever the worker
/// happened to drain the log mid-push, and epoch sizes (and so their
/// cost) would vary from run to run. The ingest options stay at their
/// defaults: a burst is smaller than the default micro-batch, so it
/// still commits whole. When the pipeline falls behind, the next burst
/// is already in and the worker is not held at all: it then merges the
/// bursts waiting in the log into larger epochs, and a log that fills up
/// makes the pusher wait, as it would any producer.
pub struct BenchSink {
    manager: Arc<WindowManager>,
    records: Mutex<Vec<EpochRecord>>,
    recorded: Condvar,
    gate: Mutex<Gate>,
    next_burst: Condvar,
}

impl BenchSink {
    fn new(manager: Arc<WindowManager>) -> BenchSink {
        BenchSink {
            manager,
            records: Mutex::new(Vec::new()),
            recorded: Condvar::new(),
            gate: Mutex::new(Gate::default()),
            next_burst: Condvar::new(),
        }
    }

    /// Every epoch seen so far, oldest first.
    pub fn records(&self) -> Vec<EpochRecord> {
        self.records.lock().expect("sink records").clone()
    }

    /// Block until the epochs after the first `skip` records hold at
    /// least `events` events, or `timeout` has passed.
    pub fn await_events(&self, skip: usize, events: usize, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut records = self.records.lock().expect("sink records");
        loop {
            let seen: usize = records.iter().skip(skip).map(|r| r.events).sum();
            let now = Instant::now();
            if seen >= events || now >= deadline {
                return;
            }
            records = self
                .recorded
                .wait_timeout(records, deadline - now)
                .expect("sink records")
                .0;
        }
    }

    /// Start (`true`) or stop holding the worker between bursts.
    pub fn arm(&self, armed: bool) {
        self.gate.lock().expect("burst gate").armed = armed;
        self.next_burst.notify_all();
    }

    /// Run `push`, which pushes one burst and returns how many events
    /// it pushed, and only then release a held worker, so that it sees
    /// the burst once all of it is in the log. The gate is not held
    /// while pushing: a push blocked on a full log must not keep the
    /// worker from draining it.
    pub fn push_burst(&self, push: impl FnOnce() -> usize) -> usize {
        let pushed = push();
        self.gate.lock().expect("burst gate").pushed += pushed;
        self.next_burst.notify_all();
        pushed
    }

    /// After an epoch of `events`: hold the worker while armed and no
    /// complete burst is waiting in the log.
    fn await_next_burst(&self, events: usize) {
        let mut gate = self.gate.lock().expect("burst gate");
        if !gate.armed {
            return;
        }
        gate.committed += events;
        while gate.armed && gate.pushed <= gate.committed {
            gate = self.next_burst.wait(gate).expect("burst gate");
        }
    }
}

impl EpochSink for BenchSink {
    fn on_epoch(&self, store: &VersionedStore, commit: &EpochCommit) {
        self.on_epoch_observed(store, commit, None, SpanHandle::NONE);
    }

    fn on_epoch_observed(
        &self,
        store: &VersionedStore,
        commit: &EpochCommit,
        tracer: Option<&Tracer>,
        parent: SpanHandle,
    ) {
        let delta_computations = store.delta_computations();
        let guard = span(tracer, "bench.window_sink", parent);
        let started = Instant::now();
        self.manager
            .on_epoch_observed(store, commit, tracer, guard.handle());
        let advanced = Instant::now();
        self.manager.wait_for_warm();
        let done = Instant::now();
        guard.finish();
        let spans = WINDOWS
            .iter()
            .map(|(name, _)| self.manager.span(name).expect("managed window"))
            .collect();
        self.records
            .lock()
            .expect("sink records")
            .push(EpochRecord {
                events: commit.events,
                advance_ns: (advanced - started).as_nanos() as u64,
                warm_wait_ns: (done - advanced).as_nanos() as u64,
                done,
                spans,
                delta_computations,
            });
        self.recorded.notify_all();
        // Its own span, so that holding the worker is not counted as
        // the pipeline's `epoch_commit` self time.
        let held = span(tracer, "bench.burst_wait", parent);
        self.await_next_burst(commit.events);
        held.finish();
    }
}

/// Where ingestion stands once the stack is serving.
pub enum Ingest {
    /// History ingested by hand; no live stream.
    Idle(Box<Ingestor>),
    /// A running pipeline with its events still to push.
    Live {
        /// The pipeline (the benchmark's sink is subscribed).
        pipeline: StreamPipeline,
        /// Events of the live steps, in push order.
        events: Vec<ChangeEvent>,
    },
}

/// A booted stack.
pub struct Stack {
    /// The seeded user population.
    pub profiles: Vec<UserProfile>,
    /// The window manager.
    pub manager: Arc<WindowManager>,
    /// The benchmark's epoch sink.
    pub sink: Arc<BenchSink>,
    /// The shared report cache.
    pub cache: Arc<ReportCache>,
    /// The adaptive engine behind the edge.
    pub adaptive: Arc<AdaptiveRecommender>,
    /// The running edge.
    pub server: HttpServer,
    /// Ingestion state.
    pub ingest: Ingest,
    /// The store's `delta_computations` once the stack was serving.
    pub delta_at_boot: u64,
}

/// What is left of a stack after [`Stack::shutdown`].
pub struct Stopped {
    /// The ingestor, with the full history.
    pub ingestor: Ingestor,
    /// The window manager.
    pub manager: Arc<WindowManager>,
    /// The benchmark's epoch sink.
    pub sink: Arc<BenchSink>,
    /// The store's `delta_computations` once the stack was serving.
    pub delta_at_boot: u64,
    /// The live stream's event-log counters (`None` without a stream).
    pub log: Option<LogStats>,
}

impl Stopped {
    /// Snapshot re-diffs since the stack served, or — with a live
    /// stream — since its first epoch reached the sink (so the
    /// pipeline's one-off set-up at spawn is not counted).
    pub fn delta_growth(&self) -> u64 {
        let baseline = match self.log {
            Some(_) => self
                .sink
                .records()
                .get(HISTORY_STEPS)
                .map_or(self.delta_at_boot, |r| r.delta_computations),
            None => self.delta_at_boot,
        };
        self.ingestor
            .store()
            .delta_computations()
            .saturating_sub(baseline)
    }
}

impl Stack {
    /// Build the world, ingest its history, warm every window and bind
    /// the edge (and, with live steps, start the stream pipeline).
    pub fn boot(spec: StackSpec, tracer: Option<Arc<Tracer>>) -> Stack {
        let mut world = curated_kb(spec.classes, WORLD_SEED);
        for step in 0..spec.live_steps {
            let outcome = world
                .kb
                .evolve(&live_scenario(step), WORLD_SEED ^ (0x100 + step as u64));
            world.outcomes.push(outcome);
        }
        let profiles = generate_population(
            &world.kb,
            PopulationConfig {
                users: spec.users,
                seed: POPULATION_SEED,
                ..Default::default()
            },
        )
        .profiles;
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let mut ingestor = seeded_ingestor(&world, IngestorConfig::default());
        let origin = ingestor.head().expect("seeded history");
        let defs = WINDOWS
            .iter()
            .map(|(name, spec)| WindowDef::new(*name, *spec))
            .collect();
        let manager = Arc::new(WindowManager::new(
            ingestor.store(),
            origin,
            defs,
            WindowManagerOptions {
                serving: Some((registry, Arc::clone(&cache))),
                background_warm: true,
                ..Default::default()
            },
        ));
        let sink = Arc::new(BenchSink::new(Arc::clone(&manager)));
        let mut steps = replay(&world);
        let live: Vec<ChangeEvent> = steps
            .split_off(HISTORY_STEPS)
            .into_iter()
            .flatten()
            .collect();
        for batch in steps {
            ingestor.ingest_all(batch);
            if let Some(commit) = ingestor.commit_epoch() {
                sink.on_epoch(ingestor.store(), &commit);
            }
        }
        manager.wait_for_warm();
        let windowed = Arc::new(WindowedRecommender::new(
            Arc::clone(&manager),
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
        ));
        let adaptive = Arc::new(AdaptiveRecommender::new(
            windowed,
            profiles.clone(),
            AdaptiveOptions {
                tracer: tracer.clone(),
                ..Default::default()
            },
        ));
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.register_source(Arc::clone(&cache) as Arc<dyn MetricsSource>);
        metrics.register_source(Arc::clone(&manager) as Arc<dyn MetricsSource>);
        let server = HttpServer::start(
            Arc::clone(&adaptive),
            metrics,
            ServeOptions {
                tracer: tracer.clone(),
                ..Default::default()
            },
        )
        .expect("edge binds a loopback port");
        let delta_at_boot = ingestor.store().delta_computations();
        let ingest = if live.is_empty() {
            Ingest::Idle(Box::new(ingestor))
        } else {
            let pipeline = StreamPipeline::spawn(
                ingestor,
                PipelineOptions {
                    sinks: vec![Arc::clone(&sink) as Arc<dyn EpochSink>],
                    tracer: tracer.clone(),
                    ..Default::default()
                },
            );
            Ingest::Live {
                pipeline,
                events: live,
            }
        };
        Stack {
            profiles,
            manager,
            sink,
            cache,
            adaptive,
            server,
            ingest,
            delta_at_boot,
        }
    }

    /// Stop the edge (draining it and flushing feedback) and the
    /// pipeline (draining every pushed event into epochs).
    pub fn shutdown(self) -> Stopped {
        self.server.shutdown();
        let (ingestor, log) = match self.ingest {
            Ingest::Idle(ingestor) => (*ingestor, None),
            Ingest::Live { pipeline, .. } => {
                let log = Arc::clone(pipeline.log());
                let ingestor = pipeline.shutdown();
                (ingestor, Some(log.stats()))
            }
        };
        Stopped {
            ingestor,
            manager: self.manager,
            sink: self.sink,
            delta_at_boot: self.delta_at_boot,
            log,
        }
    }
}
