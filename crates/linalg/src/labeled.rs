//! The one search surface every labelled associative memory shares.
//!
//! A served associative memory is labelled centroid rows answering a
//! packed [`QueryBatch`] one-shot. [`LabeledMemory`] is that surface and
//! nothing more; each model crate implements it for the types whose
//! representation it owns, and the serving layer drives every one of
//! them through it.

use crate::{QueryBatch, Result, SearchMemory, TopK};

/// Labelled rows searched by batched k-best dot similarity, with the
/// workspace's highest-score / lowest-row order.
///
/// Implementations must be [`Send`] + [`Sync`] so a serving layer can
/// share one behind an `Arc` across threads.
pub trait LabeledMemory: Send + Sync {
    /// Hypervector dimensionality `D` queries must match.
    fn dim(&self) -> usize;

    /// Number of stored rows.
    fn rows(&self) -> usize;

    /// Class label of row `row`.
    ///
    /// # Panics
    ///
    /// May panic if `row >= rows()`.
    fn class_of(&self, row: usize) -> usize;

    /// Each query's `min(k, rows)` best `(row, score)` pairs, sorted by
    /// score descending then row ascending. `k == 1` answers the argmax
    /// winner through the sweep's winners sink.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LinalgError::Empty`] when `k == 0` and
    /// [`crate::LinalgError::ShapeMismatch`] when the batch width is not
    /// [`LabeledMemory::dim`].
    fn topk(&self, batch: &QueryBatch, k: usize) -> Result<TopK>;
}

/// A raw row store: every row is its own class.
impl LabeledMemory for SearchMemory {
    fn dim(&self) -> usize {
        self.cols()
    }

    fn rows(&self) -> usize {
        SearchMemory::rows(self)
    }

    fn class_of(&self, row: usize) -> usize {
        row
    }

    fn topk(&self, batch: &QueryBatch, k: usize) -> Result<TopK> {
        self.topk_batch(batch, k)
    }
}
