//! The warm path's relevance memo: a cached recommender answers a
//! repeat user from the pool's memoised relevance row instead of
//! re-running personalised PageRank, and must stay bit-identical to the
//! uncached oracle (`Recommender::new`, which never memoises) — on a
//! first call (memo miss) and a repeat call (memo hit), for single,
//! batch, boosted and group serving, and after every kind of interest
//! change. The memo's key and bound are pinned here too.

use evorec::adapt::{
    decay_interests, AdaptiveOptions, AdaptiveRecommender, FeedbackEvent, NoExploration, Reaction,
};
use evorec::core::{
    GroupRecommendation, Item, Recommendation, Recommender, RecommenderConfig, ReportCache,
    ScoreBoost, UserId, UserProfile, RELEVANCE_MEMO_CAPACITY,
};
use evorec::graph::PageRankConfig;
use evorec::kb::TermId;
use evorec::measures::{EvolutionContext, MeasureRegistry};
use evorec::synth::workload::{curated_kb, Workload};
use evorec::synth::{generate_population, PopulationConfig};
use evorec::windows::{
    WindowDef, WindowManager, WindowManagerOptions, WindowSpec, WindowedRecommender,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Every reported number of a recommendation, floats by bit pattern.
fn bits(rec: &Recommendation) -> Vec<(String, TermId, u64, u64, u64)> {
    rec.items
        .iter()
        .map(|s| {
            (
                s.item.measure.as_str().to_string(),
                s.item.focus,
                s.relevance.to_bits(),
                s.novelty.to_bits(),
                s.objective.to_bits(),
            )
        })
        .collect()
}

fn group_bits(rec: &GroupRecommendation) -> Vec<(String, TermId, u64)> {
    rec.items
        .iter()
        .map(|s| {
            (
                s.item.measure.as_str().to_string(),
                s.item.focus,
                s.relevance.to_bits(),
            )
        })
        .collect()
}

/// A 200-class curated world, its head context, and 64 users: the
/// generated population plus one user without interests.
fn world() -> (Workload, EvolutionContext, Vec<UserProfile>) {
    let world = curated_kb(200, 5);
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let mut profiles = generate_population(
        &world.kb,
        PopulationConfig {
            users: 63,
            seed: 17,
            ..Default::default()
        },
    )
    .profiles;
    profiles.push(UserProfile::new(UserId(9_999), "blank"));
    (world, ctx, profiles)
}

fn cached(cache: &Arc<ReportCache>, config: RecommenderConfig) -> Recommender {
    Recommender::with_cache(MeasureRegistry::standard(), config, Arc::clone(cache))
}

fn oracle() -> Recommender {
    Recommender::new(MeasureRegistry::standard(), RecommenderConfig::default())
}

/// Lifts every item of one measure far above the rest.
struct Favour(String);

impl ScoreBoost for Favour {
    fn boost(&self, item: &Item, effective: f64) -> f64 {
        if item.measure.as_str() == self.0 {
            effective + 0.5
        } else {
            effective
        }
    }
}

#[test]
fn memoised_serving_is_bit_identical_to_the_uncached_oracle() {
    let (_world, ctx, profiles) = world();
    let oracle = oracle();
    let expected: Vec<Recommendation> =
        profiles.iter().map(|p| oracle.recommend(&ctx, p)).collect();
    let cache = Arc::new(ReportCache::new());
    let memoised = cached(&cache, RecommenderConfig::default());

    // First call misses the memo, the repeat call hits it.
    for pass in ["miss", "hit"] {
        for (profile, want) in profiles.iter().zip(&expected) {
            let got = memoised.recommend(&ctx, profile);
            assert_eq!(bits(&got), bits(want), "{pass}: user {}", profile.id);
        }
    }
    let stats = cache.stats();
    let users = profiles.len() as u64;
    assert_eq!(stats.memo_misses, users, "one expansion per user");
    assert_eq!(stats.memo_hits, users, "the repeat pass never expands");
    assert_eq!(stats.memo_entries, users);

    // Batch serving reads the same rows; a fresh cache's batch fills
    // them from misses on the worker threads.
    for cache in [Arc::clone(&cache), Arc::new(ReportCache::new())] {
        let batched = cached(&cache, RecommenderConfig::default())
            .batch()
            .with_threads(3)
            .recommend_all(&ctx, &profiles);
        for ((profile, got), want) in profiles.iter().zip(&batched).zip(&expected) {
            assert_eq!(bits(got), bits(want), "batch: user {}", profile.id);
        }
    }

    // Boosted serving moves only the objective; relevance still comes
    // from the memo (hit) and must match the boosted oracle.
    let favoured = Favour(expected[0].items[0].item.measure.as_str().to_string());
    let boost: Option<&dyn ScoreBoost> = Some(&favoured);
    for profile in &profiles {
        let want = oracle.recommend_with_boost(&ctx, profile, boost);
        let got = memoised.recommend_with_boost(&ctx, profile, boost);
        assert_eq!(bits(&got), bits(&want), "boosted: user {}", profile.id);
    }

    // Group serving scores its relevance rows through the memo too.
    let group = &profiles[..8];
    assert_eq!(
        group_bits(&memoised.recommend_for_group(&ctx, group)),
        group_bits(&oracle.recommend_for_group(&ctx, group))
    );
    // The uncached oracle never touched a memo.
    assert!(oracle.cache().is_none());
}

#[test]
fn interest_changes_reach_the_next_serve() {
    let (_world, ctx, profiles) = world();
    let oracle = oracle();
    let cache = Arc::new(ReportCache::new());
    let memoised = cached(&cache, RecommenderConfig::default());
    let check = |profile: &UserProfile, what: &str| {
        let want = oracle.recommend(&ctx, profile);
        // Twice: the miss after the change, then the hit on its row.
        assert_eq!(
            bits(&memoised.recommend(&ctx, profile)),
            bits(&want),
            "{what}"
        );
        assert_eq!(
            bits(&memoised.recommend(&ctx, profile)),
            bits(&want),
            "{what}"
        );
    };
    let mut profile = profiles[0].clone();
    check(&profile, "before");
    let (top, weight) = profile.top_interests(1)[0];
    // A focus from the pool: moving interest there changes the answer.
    let focus = memoised.recommend(&ctx, &profiles[1]).items[0].item.focus;

    profile.set_interest(focus, 4.0 * weight);
    check(&profile, "set_interest");
    profile.nudge_interest(top, -0.5 * weight);
    check(&profile, "nudge_interest");
    decay_interests(&mut profile, 0.5);
    check(&profile, "decay_interests");
    for (term, _) in profile.top_interests(usize::MAX) {
        profile.set_interest(term, 0.0);
    }
    assert_eq!(profile.interest_stamp(), 0, "no interests, blank stamp");
    check(&profile, "cleared");
    // The superseded rows were overwritten, not stranded: one row for
    // the user, one shared blank row, one for `profiles[1]`.
    assert_eq!(cache.stats().memo_entries, 3);
}

#[test]
fn feedback_applied_through_sync_reaches_the_next_serve() {
    let world = curated_kb(200, 5);
    let cache = Arc::new(ReportCache::new());
    let registry = Arc::new(MeasureRegistry::standard());
    let manager = Arc::new(WindowManager::new(
        &world.kb.store,
        world.base(),
        vec![WindowDef::new("all", WindowSpec::Landmark)],
        WindowManagerOptions {
            serving: Some((registry, Arc::clone(&cache))),
            ..Default::default()
        },
    ));
    let served = Arc::new(WindowedRecommender::new(
        manager,
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
    ));
    let profiles: Vec<UserProfile> = world.population.profiles[..4].to_vec();
    let user = profiles[0].id;
    let adaptive = AdaptiveRecommender::new(
        Arc::clone(&served),
        profiles,
        AdaptiveOptions {
            policy: Arc::new(NoExploration),
            ..Default::default()
        },
    );
    let ctx = served.context("all").expect("window exists");
    let oracle = oracle();
    let first = adaptive.serve("all", user).expect("window exists");
    let before = adaptive.profile(user).expect("seeded");
    assert_eq!(bits(&first), bits(&oracle.recommend(&ctx, &before)));
    for (i, scored) in first.items.iter().enumerate() {
        let reaction = if i % 2 == 0 {
            Reaction::Accept
        } else {
            Reaction::Reject
        };
        adaptive
            .observe(FeedbackEvent::new(user, scored.item.clone(), reaction))
            .expect("log open");
    }
    adaptive.sync();
    let after = adaptive.profile(user).expect("seeded");
    assert_ne!(after.interest_stamp(), before.interest_stamp());
    let served_after = adaptive.serve("all", user).expect("window exists");
    assert_eq!(bits(&served_after), bits(&oracle.recommend(&ctx, &after)));
    // Decay on the epoch clock is an interest change too.
    adaptive.advance_epoch();
    let decayed = adaptive.profile(user).expect("seeded");
    let served_decayed = adaptive.serve("all", user).expect("window exists");
    assert_eq!(
        bits(&served_decayed),
        bits(&oracle.recommend(&ctx, &decayed))
    );
    adaptive.shutdown();
}

#[test]
fn pagerank_configs_sharing_a_cache_never_share_rows() {
    let (_world, ctx, profiles) = world();
    let cache = Arc::new(ReportCache::new());
    let spread = RecommenderConfig {
        pagerank: PageRankConfig {
            damping: 0.85,
            ..PageRankConfig::default()
        },
        ..Default::default()
    };
    let configs = [RecommenderConfig::default(), spread];
    let shared: Vec<Recommender> = configs.iter().map(|&c| cached(&cache, c)).collect();
    let profile = &profiles[0];
    let mut answers = Vec::new();
    for (config, recommender) in configs.iter().zip(&shared) {
        // The other config's row is already there; it must not be read.
        let got = recommender.recommend(&ctx, profile);
        let want = Recommender::new(MeasureRegistry::standard(), *config).recommend(&ctx, profile);
        assert_eq!(bits(&got), bits(&want));
        answers.push(got);
    }
    assert_ne!(
        bits(&answers[0]),
        bits(&answers[1]),
        "the configs disagree, so a shared row would show"
    );
    let stats = cache.stats();
    assert_eq!(stats.derived_misses, 1, "one pool serves both configs");
    assert_eq!(stats.memo_misses, 2);
    assert_eq!(stats.memo_hits, 0);
    assert_eq!(stats.memo_entries, 2);
}

#[test]
fn memo_rows_stay_within_the_cap_and_blank_profiles_share_one() {
    let (world, ctx, _) = world();
    let cache = Arc::new(ReportCache::new());
    let memoised = cached(&cache, RecommenderConfig::default());
    // Blank (transient) profiles of many users: one shared row.
    for user in 0..50 {
        let _ = memoised.recommend(&ctx, &UserProfile::new(UserId(user), "blank"));
    }
    let stats = cache.stats();
    assert_eq!(stats.memo_entries, 1);
    assert_eq!((stats.memo_misses, stats.memo_hits), (1, 49));

    // A flood of distinct transient profiles through the cheap group
    // path: the row count stops at the cap.
    let classes = &world.kb.classes;
    let flood: Vec<UserProfile> = (0..RELEVANCE_MEMO_CAPACITY as u32 + 100)
        .map(|user| {
            UserProfile::new(UserId(user + 1), "transient")
                .with_interest(classes[user as usize % classes.len()], 1.0)
        })
        .collect();
    let _ = memoised.batch().recommend_for_group(&ctx, &flood);
    assert_eq!(
        cache.stats().memo_entries,
        RELEVANCE_MEMO_CAPACITY as u64,
        "insertion stops at the cap"
    );
    // Rows past the cap are still answered exactly, just not memoised.
    let late = flood.last().expect("non-empty flood");
    assert_eq!(
        bits(&memoised.recommend(&ctx, late)),
        bits(&oracle().recommend(&ctx, late))
    );
    // Dropping the artefacts gives the rows back to the budget.
    cache.invalidate_fingerprint(ctx.fingerprint());
    assert_eq!(cache.stats().memo_entries, 0);
}

proptest! {
    /// Equal interest stamps imply bit-identical interests, over random
    /// sequences of clones and interest mutations; stamp 0 means no
    /// interests.
    #[test]
    fn equal_stamps_imply_equal_interests(
        // (profile pick, op, term, weight): op % 5 picks clone /
        // set_interest / nudge_interest / decay / with_interest.
        ops in prop::collection::vec((0u8..8, 0u8..5, 0u32..6, -1.0f64..2.0), 0..60),
    ) {
        let mut pool = vec![
            UserProfile::new(UserId(1), "a"),
            UserProfile::new(UserId(2), "b").with_interest(TermId::from_u32(0), 1.0),
        ];
        for &(pick, op, term, weight) in &ops {
            let ix = pick as usize % pool.len();
            let term = TermId::from_u32(term);
            match op {
                0 => pool.push(pool[ix].clone()),
                1 => pool[ix].set_interest(term, weight),
                2 => pool[ix].nudge_interest(term, weight),
                3 => decay_interests(&mut pool[ix], weight.clamp(0.0, 1.0)),
                _ => {
                    let next = pool[ix].clone().with_interest(term, weight);
                    pool.push(next);
                }
            }
            for p in &pool {
                prop_assert_eq!(p.interest_stamp() == 0, p.interest_count() == 0);
            }
            for a in &pool {
                for b in &pool {
                    if a.interest_stamp() == b.interest_stamp() {
                        let mut ia: Vec<(TermId, u64)> =
                            a.interests().map(|(t, w)| (t, w.to_bits())).collect();
                        let mut ib: Vec<(TermId, u64)> =
                            b.interests().map(|(t, w)| (t, w.to_bits())).collect();
                        ia.sort_unstable();
                        ib.sort_unstable();
                        prop_assert_eq!(ia, ib);
                    }
                }
            }
        }
    }
}
