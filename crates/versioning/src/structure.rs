//! One version's class structure: its class graph and the centrality
//! vectors the structural measures read, built at most once per
//! version of a [`VersionedStore`](crate::VersionedStore).

use evorec_graph::{betweenness, bridging_centrality_with, SchemaGraph};
use std::sync::{Arc, OnceLock};

/// The class graph of one version plus its lazily computed Brandes
/// betweenness and bridging centrality (the paper's §II(c) substrate).
///
/// [`VersionedStore::class_structure`](crate::VersionedStore::class_structure)
/// keeps one of these per version for the lifetime of the store, so
/// every evolution context over that version — across window kinds,
/// epochs and threads — reads the same graph and runs Brandes on it at
/// most once. Snapshots are immutable, so the vectors never go stale.
pub struct ClassStructure {
    graph: Arc<SchemaGraph>,
    betweenness: OnceLock<Arc<Vec<f64>>>,
    bridging: OnceLock<Arc<Vec<f64>>>,
}

impl ClassStructure {
    /// Wrap `graph` with empty centrality slots.
    pub(crate) fn new(graph: SchemaGraph) -> ClassStructure {
        ClassStructure {
            graph: Arc::new(graph),
            betweenness: OnceLock::new(),
            bridging: OnceLock::new(),
        }
    }

    /// The version's class graph.
    pub fn graph(&self) -> &Arc<SchemaGraph> {
        &self.graph
    }

    /// Exact betweenness of every node of [`graph`](ClassStructure::graph)
    /// (computed on first use; concurrent first callers share one run).
    pub fn betweenness(&self) -> &Arc<Vec<f64>> {
        self.betweenness
            .get_or_init(|| Arc::new(betweenness(&self.graph)))
    }

    /// Bridging centrality of every node, from the memoised betweenness.
    pub fn bridging(&self) -> &Arc<Vec<f64>> {
        self.bridging
            .get_or_init(|| Arc::new(bridging_centrality_with(&self.graph, self.betweenness())))
    }
}

impl std::fmt::Debug for ClassStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassStructure")
            .field("classes", &self.graph.node_count())
            .field("betweenness", &self.betweenness.get().is_some())
            .field("bridging", &self.bridging.get().is_some())
            .finish()
    }
}
