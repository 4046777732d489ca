//! User-population generation: interest profiles, groups, and private
//! change feeds.
//!
//! Users pick a *topic* class by Zipf over the class list (popular
//! classes attract more users — the §III "humans who generate and consume
//! the data"), then spread interest over the topic's neighbourhood in the
//! subclass tree: full weight on the topic, decaying weight on its
//! parent/children. Planted topics give the relatedness experiments
//! (E5) measurable ground truth.

use crate::schema_gen::GeneratedKb;
use crate::zipf::Zipf;
use evorec_core::{Group, UserFeed, UserId, UserProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a generated user population.
#[derive(Clone, Copy, Debug)]
pub struct PopulationConfig {
    /// Number of users.
    pub users: usize,
    /// Zipf exponent over classes for topic selection.
    pub topic_zipf: f64,
    /// Interest decay per tree hop away from the topic.
    pub spread_decay: f64,
    /// Maximum tree hops interest spreads.
    pub spread_radius: usize,
    /// Fraction of users flagged sensitive (clinical workload).
    pub sensitive_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            users: 20,
            topic_zipf: 1.0,
            spread_decay: 0.5,
            spread_radius: 2,
            sensitive_fraction: 0.0,
            seed: 99,
        }
    }
}

/// A generated population with its ground truth.
pub struct Population {
    /// The user profiles.
    pub profiles: Vec<UserProfile>,
    /// Each user's planted topic (class index into `kb.classes`).
    pub topics: Vec<usize>,
}

/// Generate a population of interest profiles over `kb`.
pub fn generate_population(kb: &GeneratedKb, config: PopulationConfig) -> Population {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let topic_pick = Zipf::new(kb.classes.len(), config.topic_zipf);
    // Children of every class, ascending (as `GeneratedKb::children_of`
    // lists them), indexed once instead of scanning `class_parent` per
    // frontier class.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); kb.classes.len()];
    for (class, parent) in kb.class_parent.iter().enumerate() {
        if let Some(parent) = *parent {
            children[parent].push(class);
        }
    }
    let mut profiles = Vec::with_capacity(config.users);
    let mut topics = Vec::with_capacity(config.users);
    for u in 0..config.users {
        let topic = topic_pick.sample(&mut rng);
        topics.push(topic);
        let mut profile = UserProfile::new(UserId(u as u32), format!("user-{u}"));
        if rng.gen_bool(config.sensitive_fraction.clamp(0.0, 1.0)) {
            profile.sensitive = true;
        }
        // Spread interest over the topic's tree neighbourhood by BFS.
        let mut frontier = vec![topic];
        let mut weight = 1.0;
        let mut visited = vec![topic];
        for _hop in 0..=config.spread_radius {
            for &class in &frontier {
                profile.nudge_interest(kb.classes[class], weight);
            }
            let mut next = Vec::new();
            for &class in &frontier {
                if let Some(parent) = kb.class_parent[class] {
                    if !visited.contains(&parent) {
                        visited.push(parent);
                        next.push(parent);
                    }
                }
                for &child in &children[class] {
                    if !visited.contains(&child) {
                        visited.push(child);
                        next.push(child);
                    }
                }
            }
            frontier = next;
            weight *= config.spread_decay;
            if frontier.is_empty() {
                break;
            }
        }
        profiles.push(profile);
    }
    Population { profiles, topics }
}

/// Partition `population` into groups of `size`. With
/// `homogeneous = true`, users are grouped by topic proximity (sorted by
/// topic class); otherwise topics are interleaved so each group mixes
/// tastes — the hard case for §III(d) fairness.
pub fn generate_groups(population: &Population, size: usize, homogeneous: bool) -> Vec<Group> {
    assert!(size >= 1, "group size must be >= 1");
    let mut order: Vec<usize> = (0..population.profiles.len()).collect();
    if homogeneous {
        order.sort_by_key(|&u| population.topics[u]);
    } else {
        // Interleave by topic: sort by topic then round-robin deal.
        order.sort_by_key(|&u| population.topics[u]);
        let groups = population.profiles.len().div_ceil(size);
        let mut dealt: Vec<Vec<usize>> = vec![Vec::new(); groups.max(1)];
        for (ix, u) in order.iter().enumerate() {
            dealt[ix % groups.max(1)].push(*u);
        }
        return dealt
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(g, members)| {
                Group::new(
                    format!("group-{g}"),
                    members
                        .into_iter()
                        .map(|u| population.profiles[u].id)
                        .collect(),
                )
            })
            .collect();
    }
    order
        .chunks(size)
        .enumerate()
        .map(|(g, chunk)| {
            Group::new(
                format!("group-{g}"),
                chunk.iter().map(|&u| population.profiles[u].id).collect(),
            )
        })
        .collect()
}

/// Generate private per-user change feeds: each user carries change mass
/// on `entries_per_user` classes sampled Zipf-near their topic (the
/// clinical-records stand-in for the §III(e) anonymity experiments).
pub fn generate_feeds(
    kb: &GeneratedKb,
    population: &Population,
    entries_per_user: usize,
    seed: u64,
) -> Vec<UserFeed> {
    let mut rng = StdRng::seed_from_u64(seed);
    population
        .profiles
        .iter()
        .zip(&population.topics)
        .map(|(profile, &topic)| {
            // Feed classes: the topic subtree plus random fill.
            let subtree = kb.subtree_of(topic);
            let entries: Vec<(evorec_kb::TermId, f64)> = (0..entries_per_user)
                .map(|_| {
                    let class = if rng.gen_bool(0.7) {
                        subtree[rng.gen_range(0..subtree.len())]
                    } else {
                        rng.gen_range(0..kb.classes.len())
                    };
                    (kb.classes[class], rng.gen_range(1..=5) as f64)
                })
                .collect();
            UserFeed::new(profile.id, entries)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_gen::SchemaConfig;

    fn kb() -> GeneratedKb {
        GeneratedKb::generate(SchemaConfig {
            classes: 25,
            properties: 5,
            instances: 50,
            instance_zipf: 1.0,
            links_per_instance: 1.0,
            seed: 5,
        })
    }

    fn config(users: usize) -> PopulationConfig {
        PopulationConfig {
            users,
            seed: 123,
            ..Default::default()
        }
    }

    #[test]
    fn population_has_planted_topics() {
        let kb = kb();
        let pop = generate_population(&kb, config(10));
        assert_eq!(pop.profiles.len(), 10);
        assert_eq!(pop.topics.len(), 10);
        for (profile, &topic) in pop.profiles.iter().zip(&pop.topics) {
            // The topic class carries the maximal interest weight.
            let topic_term = kb.classes[topic];
            let max = pop
                .profiles
                .iter()
                .find(|p| p.id == profile.id)
                .unwrap()
                .top_interests(1);
            assert_eq!(max[0].0, topic_term, "topic dominates interests");
            assert!(profile.interest(topic_term) >= 1.0);
        }
    }

    #[test]
    fn interest_spreads_with_decay() {
        let kb = kb();
        let pop = generate_population(&kb, config(10));
        for (profile, &topic) in pop.profiles.iter().zip(&pop.topics) {
            if let Some(parent) = kb.class_parent[topic] {
                let pw = profile.interest(kb.classes[parent]);
                assert!(pw > 0.0, "parent gets spread weight");
                assert!(pw < profile.interest(kb.classes[topic]));
            }
        }
    }

    #[test]
    fn deterministic_population() {
        let kb = kb();
        let a = generate_population(&kb, config(8));
        let b = generate_population(&kb, config(8));
        assert_eq!(a.topics, b.topics);
        for (x, y) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(x.interest_mass(), y.interest_mass());
        }
    }

    #[test]
    fn sensitive_fraction_respected_statistically() {
        let kb = kb();
        let mut cfg = config(200);
        cfg.sensitive_fraction = 0.4;
        let pop = generate_population(&kb, cfg);
        let sensitive = pop.profiles.iter().filter(|p| p.sensitive).count();
        assert!((60..=140).contains(&sensitive), "got {sensitive}");
    }

    #[test]
    fn homogeneous_groups_chunk_by_topic() {
        let kb = kb();
        let pop = generate_population(&kb, config(12));
        let groups = generate_groups(&pop, 4, true);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.len() <= 4));
        let total: usize = groups.iter().map(Group::len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn heterogeneous_groups_mix_topics() {
        let kb = kb();
        let mut cfg = config(12);
        cfg.topic_zipf = 0.3; // spread topics out
        let pop = generate_population(&kb, cfg);
        let groups = generate_groups(&pop, 4, false);
        let total: usize = groups.iter().map(Group::len).sum();
        assert_eq!(total, 12);
        // At least one group spans more than one topic (unless the
        // population degenerated to a single topic).
        let distinct_topics: std::collections::HashSet<_> = pop.topics.iter().collect();
        if distinct_topics.len() > 1 {
            let mixed = groups.iter().any(|g| {
                let topics: std::collections::HashSet<_> = g
                    .members
                    .iter()
                    .map(|&UserId(u)| pop.topics[u as usize])
                    .collect();
                topics.len() > 1
            });
            assert!(mixed);
        }
    }

    #[test]
    fn feeds_cover_all_users_with_positive_mass() {
        let kb = kb();
        let pop = generate_population(&kb, config(10));
        let feeds = generate_feeds(&kb, &pop, 5, 77);
        assert_eq!(feeds.len(), 10);
        for feed in &feeds {
            assert!(feed.total_mass() > 0.0);
            assert!(feed.mass_per_class.len() <= 5);
        }
    }

    /// The generator as it was before the children index: one
    /// `children_of` scan per frontier class.
    fn reference_population(kb: &GeneratedKb, config: PopulationConfig) -> Population {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topic_pick = Zipf::new(kb.classes.len(), config.topic_zipf);
        let mut profiles = Vec::with_capacity(config.users);
        let mut topics = Vec::with_capacity(config.users);
        for u in 0..config.users {
            let topic = topic_pick.sample(&mut rng);
            topics.push(topic);
            let mut profile = UserProfile::new(UserId(u as u32), format!("user-{u}"));
            if rng.gen_bool(config.sensitive_fraction.clamp(0.0, 1.0)) {
                profile.sensitive = true;
            }
            let mut frontier = vec![topic];
            let mut weight = 1.0;
            let mut visited = vec![topic];
            for _hop in 0..=config.spread_radius {
                for &class in &frontier {
                    profile.nudge_interest(kb.classes[class], weight);
                }
                let mut next = Vec::new();
                for &class in &frontier {
                    if let Some(parent) = kb.class_parent[class] {
                        if !visited.contains(&parent) {
                            visited.push(parent);
                            next.push(parent);
                        }
                    }
                    for child in kb.children_of(class) {
                        if !visited.contains(&child) {
                            visited.push(child);
                            next.push(child);
                        }
                    }
                }
                frontier = next;
                weight *= config.spread_decay;
                if frontier.is_empty() {
                    break;
                }
            }
            profiles.push(profile);
        }
        Population { profiles, topics }
    }

    fn interest_bits(profile: &UserProfile) -> Vec<(evorec_kb::TermId, u64)> {
        let mut out: Vec<_> = profile.interests().map(|(t, w)| (t, w.to_bits())).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn children_index_matches_children_of_scan() {
        for (classes, users, seed) in [(25, 40, 5), (120, 200, 17), (400, 300, 61), (1, 5, 3)] {
            let kb = GeneratedKb::generate(SchemaConfig {
                classes,
                properties: 4,
                instances: classes * 2,
                instance_zipf: 1.0,
                links_per_instance: 1.0,
                seed,
            });
            let config = PopulationConfig {
                users,
                spread_radius: 3,
                sensitive_fraction: 0.3,
                seed: seed ^ 0x5eed,
                ..Default::default()
            };
            let got = generate_population(&kb, config);
            let want = reference_population(&kb, config);
            assert_eq!(got.topics, want.topics, "{classes} classes, seed {seed}");
            for (g, w) in got.profiles.iter().zip(&want.profiles) {
                assert_eq!((g.id, &g.name, g.sensitive), (w.id, &w.name, w.sensitive));
                assert_eq!(interest_bits(g), interest_bits(w), "user {:?}", g.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn zero_group_size_rejected() {
        let kb = kb();
        let pop = generate_population(&kb, config(4));
        let _ = generate_groups(&pop, 0, true);
    }
}
