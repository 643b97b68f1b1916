//! Hot model swap: an `Arc`-based generation registry.
//!
//! The registry holds the *current* model generation behind a short
//! read-locked `Arc` clone. A flush clones the `Arc` once and answers its
//! whole batch from that snapshot, so
//!
//! * [`ModelRegistry::publish`] never blocks in-flight searches (they own
//!   their snapshot; the old generation is freed when its last flush
//!   finishes), and
//! * one batch can never mix two model generations — the invariant the
//!   micro-batcher stress suite pins.
//!
//! This is the hook the `imc_sim` fault-injection path uses: program a
//! degraded `imc_sim::FaultyAmMapping` off-line (e.g. via
//! `imc_sim::FaultyAmMapping::inject`) and republish it mid-traffic.

use crate::error::{Result, ServeError};
use crate::searchable::Searchable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One published model generation.
pub struct Generation {
    id: u64,
    model: Arc<dyn Searchable>,
}

impl Generation {
    /// Monotonic generation id (the first published model is generation
    /// 1).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The generation's model.
    pub fn model(&self) -> &Arc<dyn Searchable> {
        &self.model
    }
}

impl std::fmt::Debug for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generation")
            .field("id", &self.id)
            .field("dim", &self.model.dim())
            .field("rows", &self.model.rows())
            .finish()
    }
}

/// Atomic-swap registry of the currently served model.
pub struct ModelRegistry {
    current: RwLock<Arc<Generation>>,
    next_id: AtomicU64,
    /// Dimensionality every published generation must keep (in-flight
    /// queries were validated against it at submit time).
    dim: usize,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("dim", &self.dim)
            .field("generation", &self.generation())
            .finish()
    }
}

impl ModelRegistry {
    /// Creates a registry serving `model` as generation 1.
    pub fn new(model: Arc<dyn Searchable>) -> Self {
        let dim = model.dim();
        ModelRegistry {
            current: RwLock::new(Arc::new(Generation { id: 1, model })),
            next_id: AtomicU64::new(2),
            dim,
        }
    }

    /// Dimensionality served by every generation of this registry.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The current generation's id.
    pub fn generation(&self) -> u64 {
        self.snapshot().id
    }

    /// Clones out the current generation — the per-flush snapshot.
    pub fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().expect("registry lock poisoned"))
    }

    /// Atomically swaps in a new model generation and returns its id.
    /// In-flight flushes keep answering from the snapshot they already
    /// hold; later flushes see the new model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DimensionMismatch`] if the new model's
    /// dimensionality differs from the registry's (queued queries were
    /// already validated against it).
    pub fn publish(&self, model: Arc<dyn Searchable>) -> Result<u64> {
        if model.dim() != self.dim {
            return Err(ServeError::DimensionMismatch { expected: self.dim, found: model.dim() });
        }
        // Allocate the id while holding the write lock so concurrent
        // publishes install strictly increasing generations (an id drawn
        // outside the lock could be installed after a newer one, leaving
        // an older model current).
        let mut current = self.current.write().expect("registry lock poisoned");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        *current = Arc::new(Generation { id, model });
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::{BitMatrix, SearchMemory};

    fn memory(rows: usize, dim: usize) -> Arc<dyn Searchable> {
        Arc::new(SearchMemory::new(BitMatrix::zeros(rows, dim)))
    }

    #[test]
    fn publish_bumps_generation_and_keeps_old_snapshots_alive() {
        let registry = ModelRegistry::new(memory(8, 64));
        assert_eq!(registry.generation(), 1);
        let old = registry.snapshot();
        let id = registry.publish(memory(16, 64)).unwrap();
        assert_eq!(id, 2);
        assert_eq!(registry.generation(), 2);
        // The pre-swap snapshot still answers from the old model.
        assert_eq!(old.model().rows(), 8);
        assert_eq!(registry.snapshot().model().rows(), 16);
    }

    #[test]
    fn publish_rejects_dimension_change() {
        let registry = ModelRegistry::new(memory(8, 64));
        assert!(matches!(
            registry.publish(memory(8, 128)),
            Err(ServeError::DimensionMismatch { expected: 64, found: 128 })
        ));
        assert_eq!(registry.generation(), 1, "failed publish must not swap");
    }
}
