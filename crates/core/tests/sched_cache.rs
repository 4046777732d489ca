//! Interleaving models of the [`ReportCache`] lineage-counter
//! consistency protocol: under `--cfg evorec_sched` the harness
//! enumerates bounded schedules of hit-credits, lineage publishes, and
//! `stats()` snapshots, proving a snapshot can never observe a hit or
//! invalidation split across the global and per-lineage counters —
//! the double-/under-count the write-locked snapshot fixed. Under the
//! default build the same closures run once as concurrency smoke
//! tests.

use evorec_core::{Recommender, RecommenderConfig, ReportCache, UserId, UserProfile};
use evorec_kb::{Triple, TripleStore};
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_versioning::VersionedStore;
use std::sync::Arc;

fn bounded() -> sched::Builder {
    sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    }
}

/// A tiny three-version world shared by every schedule (contexts carry
/// no sched primitives, so building them outside the model is sound).
/// Returns two contexts with distinct fingerprints: the v0→v1 step and
/// the v1→v2 step.
fn world() -> (EvolutionContext, EvolutionContext) {
    let mut vs = VersionedStore::new();
    let a = vs.intern_iri("http://x/A");
    let b = vs.intern_iri("http://x/B");
    let v = *vs.vocab();
    let mut s0 = TripleStore::new();
    s0.insert(Triple::new(a, v.rdfs_subclassof, b));
    let v0 = vs.commit_snapshot("v0", s0.clone());
    let mut s1 = s0;
    let c = vs.intern_iri("http://x/C");
    s1.insert(Triple::new(c, v.rdfs_subclassof, a));
    let v1 = vs.commit_snapshot("v1", s1.clone());
    let mut s2 = s1;
    let d = vs.intern_iri("http://x/D");
    s2.insert(Triple::new(d, v.rdfs_subclassof, c));
    let v2 = vs.commit_snapshot("v2", s2);
    (
        EvolutionContext::build(&vs, v0, v1),
        EvolutionContext::build(&vs, v1, v2),
    )
}

/// A hit on a fingerprint claimed by two lineages racing a `stats()`
/// snapshot: every snapshot sees the hit credited to *both* lineages
/// and the global counter, or to none of them — never a partial
/// credit.
#[test]
fn snapshot_never_sees_a_half_credited_hit() {
    let (ctx, _) = world();
    let registry = MeasureRegistry::standard();
    let measure = registry.all()[0].id();
    let report = registry.all()[0].compute(&ctx);
    let fingerprint = ctx.fingerprint();

    let builder = bounded();
    let report_handle = builder.explore(move || {
        let cache = Arc::new(ReportCache::with_shards_and_capacity(1, 8));
        let a = cache.register_lineage("window:a");
        let b = cache.register_lineage("window:b");
        cache.claim_lineage(a, fingerprint);
        cache.claim_lineage(b, fingerprint);
        cache.insert(fingerprint, report.clone());
        cache.reset_stats();

        let reader = {
            let cache = Arc::clone(&cache);
            sched::thread::spawn(move || cache.stats())
        };
        let hitter = {
            let cache = Arc::clone(&cache);
            let measure = measure.clone();
            sched::thread::spawn(move || {
                assert!(cache.get(&measure, fingerprint).is_some());
            })
        };
        let mid = reader.join().unwrap();
        hitter.join().unwrap();

        // The mid-race snapshot is transactional: the single hit is
        // either fully absent or fully present across all three
        // counters.
        assert_eq!(
            mid.lineages[0].hits, mid.lineages[1].hits,
            "co-claiming lineages must be credited atomically"
        );
        assert_eq!(
            mid.hits, mid.lineages[0].hits,
            "global and lineage hit tallies must move together"
        );

        // Quiescent exactness.
        let end = cache.stats();
        assert_eq!(end.hits, 1);
        assert_eq!(end.lineages[0].hits, 1);
        assert_eq!(end.lineages[1].hits, 1);
    });
    assert!(report_handle.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(
            report_handle.schedules > 1,
            "the race has multiple interleavings"
        );
    }
}

/// A lineage publish (epoch swap + scoped eviction) racing a `stats()`
/// snapshot: the global invalidation counter and the publishing
/// lineage's counter always agree — the eviction is never visible in
/// one but not the other.
#[test]
fn snapshot_never_tears_a_lineage_publish() {
    let (ctx, next) = world();
    let registry = MeasureRegistry::standard();
    let report = registry.all()[0].compute(&ctx);
    let fingerprint = ctx.fingerprint();
    let fresh = next.fingerprint();

    let builder = bounded();
    let report_handle = builder.explore(move || {
        let cache = Arc::new(ReportCache::with_shards_and_capacity(1, 8));
        let lineage = cache.register_lineage("window:a");
        cache.claim_lineage(lineage, fingerprint);
        cache.insert(fingerprint, report.clone());
        cache.reset_stats();

        let reader = {
            let cache = Arc::clone(&cache);
            sched::thread::spawn(move || cache.stats())
        };
        let publisher = {
            let cache = Arc::clone(&cache);
            sched::thread::spawn(move || cache.publish_lineage(lineage, fingerprint, fresh))
        };
        let mid = reader.join().unwrap();
        let removed = publisher.join().unwrap();

        assert_eq!(removed, 1, "the superseded entry must be evicted");
        assert_eq!(
            mid.invalidations, mid.lineages[0].invalidations,
            "global and lineage invalidation tallies must move together"
        );

        let end = cache.stats();
        assert_eq!(end.invalidations, 1);
        assert_eq!(end.lineages[0].invalidations, 1);
    });
    assert!(report_handle.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report_handle.schedules > 1);
    }
}

/// Two servings of one user racing on a cold relevance memo: both
/// expand, the first insert wins, the loser adopts it — one row, one
/// budget slot, and both answers bit-identical.
#[test]
fn concurrent_memo_misses_keep_one_row() {
    let (ctx, _) = world();
    let registry = MeasureRegistry::standard();
    let fingerprint = ctx.fingerprint();
    let reports: Vec<_> = registry.all().iter().map(|m| m.compute(&ctx)).collect();
    let focus = ctx.graph_union.terms()[0];
    let ctx = Arc::new(ctx);

    let builder = bounded();
    let report_handle = builder.explore(move || {
        let cache = Arc::new(ReportCache::with_shards_and_capacity(1, 64));
        for report in &reports {
            cache.insert(fingerprint, report.clone());
        }
        let recommender = Arc::new(Recommender::with_cache(
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
            Arc::clone(&cache),
        ));
        // Build the pool before the race; only the memo is contended.
        let _ = recommender.recommend(&ctx, &UserProfile::new(UserId(0), "blank"));
        let profile = Arc::new(UserProfile::new(UserId(1), "u").with_interest(focus, 1.0));
        let servers: Vec<_> = (0..2)
            .map(|_| {
                let (recommender, ctx, profile) = (
                    Arc::clone(&recommender),
                    Arc::clone(&ctx),
                    Arc::clone(&profile),
                );
                sched::thread::spawn(move || {
                    let rec = recommender.recommend(&ctx, &profile);
                    rec.items
                        .iter()
                        .map(|s| (s.item.focus, s.relevance.to_bits(), s.objective.to_bits()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let answers: Vec<_> = servers.into_iter().map(|s| s.join().unwrap()).collect();
        assert_eq!(answers[0], answers[1]);
        let stats = cache.stats();
        assert_eq!(
            stats.memo_entries, 2,
            "the blank row and one row for the user"
        );
        assert_eq!(stats.memo_hits + stats.memo_misses, 3);
    });
    assert!(report_handle.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report_handle.schedules > 1);
    }
}
