//! Interleaving model of [`VersionedStore::class_structure`]'s
//! first-insert-wins slot: under `--cfg evorec_sched` the harness
//! enumerates bounded schedules of two threads asking for the same
//! fresh version's class structure, proving both always get the one
//! slot — so the version's betweenness runs once, however the read
//! miss, the graph build and the write interleave. Under the default
//! build the closure runs once as a concurrency smoke test.

use evorec_kb::{Triple, TripleStore};
use evorec_versioning::{ClassStructure, VersionId, VersionedStore};
use std::sync::Arc;

/// A two-version store. Built inside the model run, so its locks are
/// scheduling points.
fn store() -> VersionedStore {
    let mut vs = VersionedStore::new();
    let a = vs.intern_iri("http://x/A");
    let b = vs.intern_iri("http://x/B");
    let c = vs.intern_iri("http://x/C");
    let vocab = *vs.vocab();
    let mut s = TripleStore::new();
    s.insert(Triple::new(a, vocab.rdfs_subclassof, b));
    vs.commit_snapshot("v0", s.clone());
    s.insert(Triple::new(c, vocab.rdfs_subclassof, a));
    vs.commit_snapshot("v1", s);
    vs
}

#[test]
fn racing_requests_for_one_version_share_one_slot() {
    let report = sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    }
    .explore(|| {
        let store = Arc::new(store());
        let v1 = VersionId::from_u32(1);
        let request = || {
            let store = Arc::clone(&store);
            sched::thread::spawn(move || {
                let slot: Arc<ClassStructure> = store.class_structure(v1);
                let scores = Arc::clone(slot.betweenness());
                (slot, scores)
            })
        };
        let (first, second) = (request(), request());
        let (slot_a, scores_a) = first.join().expect("first request");
        let (slot_b, scores_b) = second.join().expect("second request");
        assert!(Arc::ptr_eq(&slot_a, &slot_b), "one slot per version");
        assert!(Arc::ptr_eq(&scores_a, &scores_b), "one betweenness run");
        assert!(
            Arc::ptr_eq(&slot_a, &store.class_structure(v1)),
            "later requests read the winning slot"
        );
        // A → C path through A: A carries the only nonzero score.
        assert_eq!(scores_a.iter().filter(|&&s| s > 0.0).count(), 1);
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}
