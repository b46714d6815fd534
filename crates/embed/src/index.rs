//! Footprint reporting for the retrieval store.

use serde::Serialize;

/// Structural footprint report of the retrieval store: what the bench
/// JSON and the serving report surface so memory regressions are
/// visible. `bytes` is an estimate of the stored columns' resident size
/// from the store's own accounting, not an allocator measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IndexStats {
    /// Stored vectors.
    pub vectors: usize,
    /// Vector dimensionality (0 while empty).
    pub dim: usize,
    /// Row chunks.
    pub chunks: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
}
