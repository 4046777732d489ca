//! Per-layer timings, all taken from outside the program: in-process
//! replays of each module's public functions over the run's own data,
//! and self times of the spans the program already emits.

use crate::stats;
use evorec_adapt::AdaptiveRecommender;
use evorec_core::relatedness::item_relatedness;
use evorec_core::{select_mmr, DistanceMatrix, ExpandedProfile, UserId, UserProfile};
use evorec_graph::betweenness;
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_obs::FinishedSpan;
use evorec_versioning::{VersionId, VersionedStore};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Replays per serving-layer sample.
pub const SERVING_REPLAYS: usize = 1000;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn millis(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Serving-path timings over `(window, user)` pairs, in µs.
#[derive(Clone, Debug, Default)]
pub struct ServingLayers {
    /// `AdaptiveRecommender::serve`.
    pub serve_us: Vec<f64>,
    /// `ExpandedProfile::expand` over the window's union graph.
    pub expand_us: Vec<f64>,
    /// `select_mmr` over the window's pooled distance matrix.
    pub mmr_us: Vec<f64>,
}

/// Replay the serving path in-process, [`SERVING_REPLAYS`] times over
/// the cycled `pairs`.
pub fn replay_serving(adaptive: &AdaptiveRecommender, pairs: &[(String, u32)]) -> ServingLayers {
    let mut out = ServingLayers::default();
    if pairs.is_empty() {
        return out;
    }
    let recommender = adaptive.windowed().recommender();
    let config = *recommender.config();
    // Per-window shared artefacts, built once like the engine's
    // second-level cache does.
    let mut pools = HashMap::new();
    for (i, (window, user)) in pairs.iter().cycle().take(SERVING_REPLAYS).enumerate() {
        let started = Instant::now();
        let served = black_box(adaptive.serve(window, UserId(*user)));
        out.serve_us.push(micros(started));
        if served.is_none() {
            continue;
        }
        let Some(ctx) = adaptive.windowed().context(window) else {
            continue;
        };
        let profile = adaptive
            .profile(UserId(*user))
            .unwrap_or_else(|| Arc::new(UserProfile::new(UserId(*user), user.to_string())));
        let started = Instant::now();
        let expanded = black_box(ExpandedProfile::expand(
            &profile,
            black_box(&ctx.graph_union),
            config.pagerank,
        ));
        out.expand_us.push(micros(started));
        let (items, distances) = pools.entry(window.clone()).or_insert_with(|| {
            let (items, reports) = recommender.candidates(&ctx);
            let distances = DistanceMatrix::compute(
                &items,
                &reports,
                config.rank_k_for_distance,
                config.distance_weights,
            );
            (items, distances)
        });
        let w = config.novelty_weight.clamp(0.0, 1.0);
        let effective: Vec<f64> = items
            .iter()
            .map(|it| {
                let novelty = if profile.has_seen(&it.measure, it.focus) {
                    0.0
                } else {
                    1.0
                };
                item_relatedness(&expanded, it) * (1.0 - w + w * novelty)
            })
            .collect();
        let started = Instant::now();
        let picks = black_box(select_mmr(
            black_box(&effective),
            distances,
            config.top_k,
            config.mmr_lambda,
        ));
        out.mmr_us.push(micros(started));
        assert!(picks.len() <= config.top_k, "replay {i}: MMR over-selected");
    }
    for v in [&mut out.serve_us, &mut out.expand_us, &mut out.mmr_us] {
        stats::sort(v);
    }
    out
}

/// Cold-path timings over window spans, in ms.
#[derive(Clone, Debug, Default)]
pub struct ColdLayers {
    /// `EvolutionContext::build`.
    pub context_build_ms: Vec<f64>,
    /// `EvolutionMeasure::compute`, per measure id, in registry order
    /// on one shared context (as serving computes them).
    pub compute_ms: Vec<(String, Vec<f64>)>,
    /// `betweenness` on a context's before or after class graph.
    pub betweenness_ms: Vec<f64>,
}

/// Replay context builds, measure computes and Brandes betweenness
/// over each `(from, to)` span of `store`.
pub fn replay_cold(store: &VersionedStore, spans: &[(VersionId, VersionId)]) -> ColdLayers {
    let registry = MeasureRegistry::standard();
    let mut out = ColdLayers {
        compute_ms: registry
            .ids()
            .into_iter()
            .map(|id| (id.as_str().to_string(), Vec::new()))
            .collect(),
        ..Default::default()
    };
    for &(from, to) in spans {
        let started = Instant::now();
        let ctx = EvolutionContext::build(store, from, to);
        out.context_build_ms.push(millis(started));
        for (measure, (_, samples)) in registry.all().iter().zip(out.compute_ms.iter_mut()) {
            let started = Instant::now();
            black_box(measure.compute(black_box(&ctx)));
            samples.push(millis(started));
        }
        for graph in [&ctx.graph_before, &ctx.graph_after] {
            let started = Instant::now();
            black_box(betweenness(black_box(graph)));
            out.betweenness_ms.push(millis(started));
        }
    }
    out
}

/// Self time of every finished span called `name`, in ms: its duration
/// minus the part of it covered by its child spans.
pub fn self_times_ms(spans: &[FinishedSpan], name: &str) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_nanos, s.end_nanos));
        }
    }
    let mut out: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut covered: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_nanos), b.min(s.end_nanos)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            covered.sort_unstable();
            let (mut union, mut reach) = (0u64, s.start_nanos);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            s.duration_nanos().saturating_sub(union) as f64 / 1e6
        })
        .collect();
    stats::sort(&mut out);
    out
}

/// One span as a JSON line of the span file.
pub fn span_json(s: &FinishedSpan) -> String {
    format!(
        r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
        s.id, s.parent, s.name, s.start_nanos, s.end_nanos
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> FinishedSpan {
        FinishedSpan {
            id,
            parent,
            name,
            start_nanos: start,
            end_nanos: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "epoch_commit", 0, 10_000_000),
            // Two overlapping children cover 2..7 ms; one spills past
            // the parent's end and is clipped to 9..10 ms.
            span(2, 1, "publish", 2_000_000, 5_000_000),
            span(3, 1, "bench.window_sink", 4_000_000, 7_000_000),
            span(4, 1, "late", 9_000_000, 12_000_000),
            // A grandchild does not count against the root twice.
            span(5, 3, "window_advance", 4_500_000, 6_000_000),
            span(6, 0, "ingest", 0, 1_500_000),
        ];
        assert_eq!(self_times_ms(&spans, "epoch_commit"), vec![4.0]);
        assert_eq!(self_times_ms(&spans, "bench.window_sink"), vec![1.5]);
        assert_eq!(self_times_ms(&spans, "ingest"), vec![1.5]);
        assert!(self_times_ms(&spans, "missing").is_empty());
    }
}
