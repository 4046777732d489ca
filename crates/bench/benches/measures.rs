//! Criterion micro-benchmarks for the §II measure catalogue (E2's
//! per-measure cost, measured precisely).
//!
//! The compute benches build a fresh store (same deterministic history)
//! per sample in the untimed setup: the store memoises each version's
//! class graph and centralities, so a shared store would serve every
//! sample after the first from the memo and the structural measures
//! would stop paying the Brandes run a new version pays.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_synth::{GeneratedKb, Scenario, SchemaConfig};
use std::hint::black_box;

fn evolved(classes: usize) -> GeneratedKb {
    let mut kb = GeneratedKb::generate(SchemaConfig {
        classes,
        properties: (classes / 5).max(2),
        instances: classes * 5,
        instance_zipf: 1.0,
        links_per_instance: 2.0,
        seed: 88,
    });
    kb.evolve(
        &Scenario::Hotspot {
            focus_classes: 3,
            rate: 0.15,
            concentration: 0.9,
        },
        89,
    );
    kb
}

/// A context over a freshly generated store, so nothing is memoised.
fn fresh_context() -> EvolutionContext {
    let kb = evolved(300);
    EvolutionContext::build(&kb.store, kb.base_version, kb.store.head().unwrap())
}

fn bench_each_measure(c: &mut Criterion) {
    let registry = MeasureRegistry::standard();
    let mut group = c.benchmark_group("measure");
    group.sample_size(10);
    for measure in registry.all() {
        group.bench_function(measure.id().as_str(), |b| {
            b.iter_batched(
                fresh_context,
                |ctx| black_box(measure.compute(&ctx)),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_catalogue(c: &mut Criterion) {
    let kb = evolved(300);
    let head = kb.store.head().unwrap();
    let registry = MeasureRegistry::standard();
    let mut group = c.benchmark_group("catalogue");
    group.sample_size(10);
    group.bench_function("compute_all_300c", |b| {
        b.iter_batched(
            fresh_context,
            |ctx| black_box(registry.compute_all(&ctx)),
            BatchSize::PerIteration,
        )
    });
    // Rebuilding over versions the store already knows: the window
    // publish path, where only the change set, union graph and digest
    // are built per context.
    group.bench_function("context_build_300c", |b| {
        b.iter(|| black_box(EvolutionContext::build(&kb.store, kb.base_version, head)))
    });
    group.finish();
}

criterion_group!(benches, bench_each_measure, bench_catalogue);
criterion_main!(benches);
