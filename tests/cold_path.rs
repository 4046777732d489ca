//! The cold path's per-version memo: a store computes each version's
//! class graph and centrality vectors once, and every context over that
//! version — any step, any window, any epoch — reads the same ones.
//!
//! The oracle shares nothing with the memo: each step's reports are
//! compared, bitwise, with a context built on a fresh store holding the
//! same history, where nothing has been computed before.

use evorec::core::ReportCache;
use evorec::measures::{EvolutionContext, MeasureRegistry, MeasureReport};
use evorec::stream::IngestorConfig;
use evorec::synth::workload::streamed::committed_epochs;
use evorec::synth::workload::{clinical, curated_kb, sensor_stream, social_feed, Workload};
use evorec::versioning::{VersionId, VersionedStore};
use evorec::windows::{WindowDef, WindowManager, WindowManagerOptions, WindowSpec};
use std::collections::HashMap;
use std::sync::Arc;

type ReportBits = Vec<(String, Vec<(u32, u64)>)>;

fn bits(reports: &[MeasureReport]) -> ReportBits {
    reports
        .iter()
        .map(|report| {
            let scores = report
                .scores()
                .iter()
                .map(|&(term, score)| (term.as_u32(), score.to_bits()))
                .collect();
            (report.measure.as_str().to_string(), scores)
        })
        .collect()
}

fn v(n: u32) -> VersionId {
    VersionId::from_u32(n)
}

/// A store with `store`'s history (same ids, labels, snapshots) and
/// empty memos.
fn fresh_copy(store: &VersionedStore) -> VersionedStore {
    let mut copy = VersionedStore::new();
    for info in store.versions() {
        copy.commit_snapshot(info.label.clone(), store.snapshot(info.id).clone());
    }
    copy
}

/// Every standard measure over every step of `steps`, built in order
/// on one store (so later steps read earlier steps' memo entries),
/// equals the same step built on `fresh(step)`.
fn assert_memo_matches_fresh(
    name: &str,
    store: &VersionedStore,
    steps: &[(VersionId, VersionId)],
    fresh: impl Fn() -> VersionedStore,
) {
    let registry = MeasureRegistry::standard();
    for &(from, to) in steps {
        let memoised = EvolutionContext::build(store, from, to);
        let oracle_store = fresh();
        let oracle = EvolutionContext::build(&oracle_store, from, to);
        assert_eq!(
            memoised.fingerprint(),
            oracle.fingerprint(),
            "{name} {from}→{to}"
        );
        assert_eq!(
            bits(&registry.compute_all(&memoised)),
            bits(&registry.compute_all(&oracle)),
            "{name} {from}→{to}"
        );
    }
}

#[test]
fn memoised_reports_equal_fresh_store_reports_on_curated_kb() {
    let world = curated_kb(200, 41);
    let steps = [
        (v(0), v(1)),
        (v(0), v(2)),
        (v(1), v(2)),
        (v(2), v(0)),
        (v(1), v(1)),
    ];
    assert_memo_matches_fresh("curated-kb", &world.kb.store, &steps, || {
        curated_kb(200, 41).kb.store
    });
}

/// The landmark, last-epoch and four-epoch sliding spans ending at
/// every streamed version.
fn window_steps(versions: usize) -> Vec<(VersionId, VersionId)> {
    (1..versions as u32)
        .flat_map(|head| {
            [
                (v(0), v(head)),
                (v(head - 1), v(head)),
                (v(head.saturating_sub(4)), v(head)),
            ]
        })
        .collect()
}

#[test]
fn memoised_reports_equal_fresh_store_reports_on_streamed_workloads() {
    let worlds: [Workload; 4] = [
        curated_kb(40, 11),
        social_feed(32, 12),
        sensor_stream(36, 13),
        clinical(30, 14),
    ];
    for world in &worlds {
        let (ingestor, commits) = committed_epochs(
            world,
            IngestorConfig {
                max_batch: 16,
                ..Default::default()
            },
        );
        assert!(
            commits.len() >= 3,
            "{}: {} epochs",
            world.name,
            commits.len()
        );
        let store = ingestor.store();
        let steps = window_steps(store.version_count());
        assert_memo_matches_fresh(world.name, store, &steps, || fresh_copy(store));
    }
}

/// Three serving windows warming in the background race on the same
/// versions every epoch; they must all read one vector per version, for
/// the whole stream.
#[test]
fn windows_share_one_centrality_vector_per_version() {
    let world = curated_kb(60, 7);
    let (ingestor, commits) = committed_epochs(
        &world,
        IngestorConfig {
            max_batch: 32,
            ..Default::default()
        },
    );
    let (store, _ledger) = ingestor.into_parts();
    assert!(commits.len() >= 4, "{} epochs", commits.len());
    let seed_head = v(0);
    let manager = WindowManager::new(
        &store,
        seed_head,
        vec![
            WindowDef::new("landmark", WindowSpec::Landmark),
            WindowDef::new("last", WindowSpec::LastEpoch),
            WindowDef::new("sliding4", WindowSpec::SlidingEpochs(4)),
        ],
        WindowManagerOptions {
            serving: Some((
                Arc::new(MeasureRegistry::standard()),
                Arc::new(ReportCache::new()),
            )),
            background_warm: true,
            head: Some(seed_head),
            ..Default::default()
        },
    );
    // Per version: the betweenness and bridging vectors first served.
    type Centralities = (Arc<Vec<f64>>, Arc<Vec<f64>>);
    let mut first_seen: HashMap<VersionId, Centralities> = HashMap::new();
    for commit in &commits {
        manager.advance(&store, commit);
        manager.wait_for_warm();
        for (name, _, live) in manager.windows() {
            let ctx = live.current();
            let sides = [
                (ctx.from, ctx.betweenness_before(), ctx.bridging_before()),
                (ctx.to, ctx.betweenness_after(), ctx.bridging_after()),
            ];
            for (version, betweenness, bridging) in sides {
                let (b0, br0) = first_seen
                    .entry(version)
                    .or_insert_with(|| (Arc::clone(betweenness), Arc::clone(bridging)));
                assert!(
                    Arc::ptr_eq(b0, betweenness),
                    "{name} betweenness of {version}"
                );
                assert!(Arc::ptr_eq(br0, bridging), "{name} bridging of {version}");
            }
        }
    }
    // Every version the stream committed was served by some window.
    assert_eq!(first_seen.len(), store.version_count());
}
