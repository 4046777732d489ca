//! Benchmarks for multi-window temporal serving: per-epoch
//! window-advance latency and k-window fan-out throughput.
//!
//! The advance path is the acceptance-critical one: every window moves
//! by composing per-epoch deltas (`invert`/`compose` over the epoch
//! ring plus one normalisation against the `from` snapshot) — the
//! store's `delta_computations` counter, printed after the benches,
//! stays flat across a whole replay because no window ever re-diffs two
//! snapshots.
//!
//! Every sample replays into a freshly built store (untimed setup): the
//! store memoises each version's class graph and centralities, so a
//! store shared across samples would serve every sample after the first
//! from the memo instead of paying what new versions pay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_stream::{EpochCommit, IngestorConfig};
use evorec_synth::workload::curated_kb;
use evorec_synth::workload::streamed::committed_epochs;
use evorec_versioning::{VersionId, VersionedStore};
use evorec_windows::{WindowDef, WindowManager, WindowManagerOptions, WindowSpec};
use std::hint::black_box;

/// Replay a synth workload as many small epochs (micro-batched at
/// `max_batch` events), returning the full store, the commit sequence,
/// and the seed head managers replay from.
fn commit_stream(max_batch: usize) -> (VersionedStore, Vec<EpochCommit>, VersionId) {
    let world = curated_kb(120, 71);
    let (ingestor, commits) = committed_epochs(&world, IngestorConfig {
        max_batch,
        ..Default::default()
    });
    let seed_head = VersionId::from_u32(0);
    let (store, _ledger) = ingestor.into_parts();
    (store, commits, seed_head)
}

/// A manager anchored at the seed head, ready to replay the stream.
fn manager_at_seed(
    store: &VersionedStore,
    seed_head: VersionId,
    defs: Vec<WindowDef>,
) -> WindowManager {
    WindowManager::new(store, seed_head, defs, WindowManagerOptions {
        head: Some(seed_head),
        ..Default::default()
    })
}

/// The canonical curator set: last epoch, sliding band, since-clock,
/// landmark.
fn four_windows() -> Vec<WindowDef> {
    vec![
        WindowDef::new("last", WindowSpec::LastEpoch),
        WindowDef::new("band", WindowSpec::SlidingEpochs(3)),
        WindowDef::new("recent", WindowSpec::Since(4)),
        WindowDef::new("release", WindowSpec::Landmark),
    ]
}

/// Window-advance latency: replay the whole commit stream through a
/// four-window manager; per-epoch cost is the reported time divided by
/// the epoch count in the bench id.
fn bench_window_advance(c: &mut Criterion) {
    let epochs = commit_stream(16).1.len();
    let mut group = c.benchmark_group("windows");
    group.sample_size(10);
    group.bench_function(format!("advance_4w_{epochs}epochs"), |b| {
        b.iter_batched(
            || commit_stream(16),
            |(store, commits, seed_head)| {
                black_box(replay(&store, &commits, seed_head, four_windows()))
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    let (store, commits, seed_head) = commit_stream(16);
    let before = store.delta_computations();
    replay(&store, &commits, seed_head, four_windows());
    println!(
        "windows: {} snapshot diffs during a full {epochs}-epoch four-window replay \
         (sliding/landmark advances run purely on delta composition)",
        store.delta_computations() - before
    );
}

/// Replay `commits` through a fresh manager over `defs`; returns the
/// publish count.
fn replay(
    store: &VersionedStore,
    commits: &[EpochCommit],
    seed_head: VersionId,
    defs: Vec<WindowDef>,
) -> u64 {
    let manager = manager_at_seed(store, seed_head, defs);
    for commit in commits {
        manager.advance(store, commit);
    }
    manager.stats().publishes
}

/// Fan-out throughput: the same epoch stream feeding 1, 4, and 8
/// concurrent windows of mixed horizon.
fn bench_window_fanout(c: &mut Criterion) {
    let epochs = commit_stream(16).1.len();
    let mut group = c.benchmark_group("windows");
    group.sample_size(10);
    for k in [1usize, 4, 8] {
        let defs: Vec<WindowDef> = (0..k)
            .map(|i| {
                let spec = match i % 4 {
                    0 => WindowSpec::Landmark,
                    1 => WindowSpec::LastEpoch,
                    2 => WindowSpec::SlidingEpochs(1 + i),
                    _ => WindowSpec::Since(3 + i as u64),
                };
                WindowDef::new(format!("w{i}"), spec)
            })
            .collect();
        group.bench_function(format!("fanout_{k}w_{epochs}epochs"), |b| {
            b.iter_batched(
                || commit_stream(16),
                |(store, commits, seed_head)| {
                    black_box(replay(&store, &commits, seed_head, defs.clone()))
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_advance, bench_window_fanout);
criterion_main!(benches);
