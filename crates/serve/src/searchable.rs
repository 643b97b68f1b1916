//! The model interface the server batches over, plus adapters for every
//! associative memory in the workspace.
//!
//! A [`Searchable`] answers a packed [`QueryBatch`] with one [`Winner`]
//! per query. The server hands each flush a single `Arc<QueryBatch>` so
//! sharded implementations can ship the batch to worker threads without
//! copying; plain implementations just deref.
//!
//! Adapters are provided for:
//!
//! * [`hd_linalg::SearchMemory`] — raw row store, `class == row`;
//! * [`hdc::BinaryAm`] — centroid rows with class labels;
//! * [`memhd::MemhdModel`] — serves the model's quantized AM (queries are
//!   pre-encoded `D`-bit hypervectors; encoding stays with the client,
//!   matching the paper's architecture where the encoding module and AM
//!   are separate IMC structures);
//! * [`imc_sim::AmMapping`] / [`imc_sim::FaultyAmMapping`] /
//!   [`imc_sim::ReplicatedAmMapping`] — mapped (possibly fault-injected,
//!   possibly replicated-with-majority-readout) arrays, bit-exact
//!   against software search;
//! * the four baselines ([`hd_baselines::BasicHdc`],
//!   [`hd_baselines::QuantHd`], [`hd_baselines::SearcHd`],
//!   [`hd_baselines::LeHdc`]) via their binary AMs.

use crate::error::{Result, ServeError};
use hd_linalg::QueryBatch;
use std::sync::Arc;

/// The winning centroid of one served query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Winner {
    /// Winning row in the served memory.
    pub row: usize,
    /// Class owning the winning row (equal to `row` for unlabeled
    /// memories).
    pub class: usize,
    /// Dot-similarity score of the winning row.
    pub score: u32,
}

/// A model the serving layer can drive: batched associative search with
/// the workspace's highest-score / lowest-row winner semantics.
///
/// Implementations must be [`Send`] + [`Sync`]: the deadline flusher and
/// any submitting thread may execute a flush, and snapshot swaps hand
/// `Arc`s across threads.
pub trait Searchable: Send + Sync {
    /// Hypervector dimensionality `D` queries must match.
    fn dim(&self) -> usize;

    /// Number of stored rows (centroids).
    fn rows(&self) -> usize;

    /// Answers every query of `batch` with its winning row, class, and
    /// score. The tie-break is the workspace standard: highest score,
    /// then lowest row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DimensionMismatch`] when the batch width
    /// differs from [`Searchable::dim`], and [`ServeError::Model`] for
    /// model-internal failures.
    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>>;

    /// Answers every query with its `min(k, rows)` best rows, sorted by
    /// score descending then row ascending — the top-1 entry is exactly
    /// the [`Searchable::search_winners`] winner. Every workspace adapter
    /// runs the fused bounded k-best sweep
    /// ([`hd_linalg::SearchMemory::topk_batch`] or its layer's
    /// equivalent).
    ///
    /// # Errors
    ///
    /// As [`Searchable::search_winners`], plus
    /// [`ServeError::InvalidConfig`] when `k == 0`.
    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>>;

    /// Shards this model has permanently lost, ascending. Non-empty
    /// means searches answer exactly over the *surviving* rows only —
    /// the server flags such answers with [`crate::Prediction::degraded`]
    /// rather than failing them. Must be monotone within one model
    /// instance: a shard reported missing stays missing. The default
    /// (for unsharded models) is "none".
    fn missing_shards(&self) -> Vec<usize> {
        Vec::new()
    }
}

fn check_dim(expected: usize, batch: &QueryBatch) -> Result<()> {
    if batch.dim() != expected {
        return Err(ServeError::DimensionMismatch { expected, found: batch.dim() });
    }
    Ok(())
}

pub(crate) fn check_topk(k: usize) -> Result<()> {
    if k == 0 {
        return Err(ServeError::InvalidConfig { reason: "top-k search requires k >= 1".into() });
    }
    Ok(())
}

impl Searchable for hd_linalg::SearchMemory {
    fn dim(&self) -> usize {
        self.cols()
    }

    fn rows(&self) -> usize {
        self.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        check_dim(self.cols(), &batch)?;
        let winners =
            self.winners_batch(&batch).map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(winners.into_iter().map(|(row, score)| Winner { row, class: row, score }).collect())
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        check_topk(k)?;
        check_dim(self.cols(), &batch)?;
        let raw =
            self.topk_batch(&batch, k).map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok((0..raw.len())
            .map(|q| {
                raw.hits(q).iter().map(|&(row, score)| Winner { row, class: row, score }).collect()
            })
            .collect())
    }
}

impl Searchable for hdc::BinaryAm {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn rows(&self) -> usize {
        self.num_centroids()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        check_dim(self.dim(), &batch)?;
        let winners = self
            .search_memory()
            .winners_batch(&batch)
            .map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(winners
            .into_iter()
            .map(|(row, score)| Winner { row, class: self.class_of(row), score })
            .collect())
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        check_topk(k)?;
        check_dim(self.dim(), &batch)?;
        let hits =
            self.search_topk(&batch, k).map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(hits
            .into_iter()
            .map(|per_query| {
                per_query
                    .into_iter()
                    .map(|h| Winner { row: h.row, class: h.class, score: h.score })
                    .collect()
            })
            .collect())
    }
}

impl Searchable for memhd::MemhdModel {
    fn dim(&self) -> usize {
        self.binary_am().dim()
    }

    fn rows(&self) -> usize {
        self.binary_am().num_centroids()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        self.binary_am().search_winners(batch)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        Searchable::search_topk(self.binary_am(), batch, k)
    }
}

/// Projects a mapped batch search's results into per-query [`Winner`]s
/// (shared by the ideal and fault-injected mapping adapters).
fn winners_from_mapped(stats: &imc_sim::BatchInferenceStats) -> Vec<Winner> {
    (0..stats.len())
        .map(|q| {
            let row = stats.predicted_rows[q];
            Winner { row, class: stats.predicted_classes[q], score: stats.scores.scores(q)[row] }
        })
        .collect()
}

/// Projects a mapped top-k search's results into per-query [`Winner`]
/// lists (shared by the ideal and fault-injected mapping adapters).
fn topk_from_mapped(stats: imc_sim::TopKBatchStats) -> Vec<Vec<Winner>> {
    stats
        .hits
        .into_iter()
        .map(|per_query| {
            per_query
                .into_iter()
                .map(|h| Winner { row: h.row, class: h.class, score: h.score })
                .collect()
        })
        .collect()
}

impl Searchable for imc_sim::AmMapping {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn rows(&self) -> usize {
        self.num_vectors()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        check_dim(self.dim(), &batch)?;
        let stats =
            self.search_batch(&batch).map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(winners_from_mapped(&stats))
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        check_topk(k)?;
        check_dim(self.dim(), &batch)?;
        let stats = self
            .search_batch_topk(&batch, k)
            .map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(topk_from_mapped(stats))
    }
}

impl Searchable for imc_sim::FaultyAmMapping {
    fn dim(&self) -> usize {
        self.as_mapping().dim()
    }

    fn rows(&self) -> usize {
        Searchable::rows(self.as_mapping())
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        check_dim(Searchable::dim(self.as_mapping()), &batch)?;
        let stats =
            self.search_batch(&batch).map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(winners_from_mapped(&stats))
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        check_topk(k)?;
        check_dim(Searchable::dim(self.as_mapping()), &batch)?;
        let stats = self
            .search_batch_topk(&batch, k)
            .map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(topk_from_mapped(stats))
    }
}

impl Searchable for imc_sim::ReplicatedAmMapping {
    fn dim(&self) -> usize {
        self.majority_mapping().dim()
    }

    fn rows(&self) -> usize {
        Searchable::rows(self.majority_mapping())
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        check_dim(Searchable::dim(self.majority_mapping()), &batch)?;
        let stats =
            self.search_batch(&batch).map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(winners_from_mapped(&stats))
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        check_topk(k)?;
        check_dim(Searchable::dim(self.majority_mapping()), &batch)?;
        let stats = self
            .search_batch_topk(&batch, k)
            .map_err(|e| ServeError::Model { reason: e.to_string() })?;
        Ok(topk_from_mapped(stats))
    }
}

/// Implements [`Searchable`] for a baseline model by delegating to its
/// quantized AM.
macro_rules! baseline_searchable {
    ($($ty:ty),* $(,)?) => {$(
        impl Searchable for $ty {
            fn dim(&self) -> usize {
                self.binary_am().dim()
            }

            fn rows(&self) -> usize {
                self.binary_am().num_centroids()
            }

            fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
                self.binary_am().search_winners(batch)
            }

            fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
                Searchable::search_topk(self.binary_am(), batch, k)
            }
        }
    )*};
}

baseline_searchable!(
    hd_baselines::BasicHdc,
    hd_baselines::QuantHd,
    hd_baselines::SearcHd,
    hd_baselines::LeHdc,
);

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::{BitMatrix, BitVector, SearchMemory};

    fn bits(pattern: &[u8]) -> BitVector {
        BitVector::from_bools(&pattern.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    #[test]
    fn search_memory_adapter_uses_row_as_class() {
        let mem = SearchMemory::from_rows(&[bits(&[1, 1, 0, 0]), bits(&[0, 0, 1, 1])]).unwrap();
        let batch = Arc::new(
            QueryBatch::from_vectors(&[bits(&[0, 0, 1, 1]), bits(&[1, 1, 0, 0])]).unwrap(),
        );
        let winners = mem.search_winners(batch).unwrap();
        assert_eq!(winners[0], Winner { row: 1, class: 1, score: 2 });
        assert_eq!(winners[1], Winner { row: 0, class: 0, score: 2 });
    }

    #[test]
    fn binary_am_adapter_maps_classes() {
        let am = hdc::BinaryAm::from_centroids(
            2,
            vec![(1, bits(&[1, 1, 0, 0])), (0, bits(&[0, 0, 1, 1]))],
        )
        .unwrap();
        let batch = Arc::new(QueryBatch::from_vectors(&[bits(&[1, 1, 0, 0])]).unwrap());
        let winners = Searchable::search_winners(&am, batch).unwrap();
        assert_eq!(winners[0], Winner { row: 0, class: 1, score: 2 });
        assert_eq!(Searchable::dim(&am), 4);
        assert_eq!(Searchable::rows(&am), 2);
    }

    #[test]
    fn adapters_agree_on_topk() {
        let mem = SearchMemory::from_rows(&[
            bits(&[1, 1, 0, 0]),
            bits(&[0, 0, 1, 1]),
            bits(&[1, 1, 0, 0]),
        ])
        .unwrap();
        let batch = Arc::new(QueryBatch::from_vectors(&[bits(&[1, 1, 1, 0])]).unwrap());
        // SearchMemory adapter: rows double as classes; duplicate rows
        // tie and order by row index.
        let lists = Searchable::search_topk(&mem, Arc::clone(&batch), 3).unwrap();
        assert_eq!(
            lists[0],
            vec![
                Winner { row: 0, class: 0, score: 2 },
                Winner { row: 2, class: 2, score: 2 },
                Winner { row: 1, class: 1, score: 1 },
            ]
        );
        assert!(Searchable::search_topk(&mem, Arc::clone(&batch), 0).is_err());
        // The top-1 entry is the argmax winner.
        let top1 = Searchable::search_topk(&mem, Arc::clone(&batch), 1).unwrap();
        assert_eq!(vec![top1[0][0]], mem.search_winners(batch).unwrap());
    }

    #[test]
    fn mapping_adapter_topk_matches_am_topk() {
        use hd_linalg::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(9);
        let centroids: Vec<(usize, BitVector)> = (0..6)
            .map(|v| {
                let b: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
                (v % 3, BitVector::from_bools(&b))
            })
            .collect();
        let am = hdc::BinaryAm::from_centroids(3, centroids).unwrap();
        let queries: Vec<BitVector> = (0..5)
            .map(|_| BitVector::from_bools(&(0..96).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = Arc::new(QueryBatch::from_vectors(&queries).unwrap());
        for strategy in [
            imc_sim::MappingStrategy::Basic,
            imc_sim::MappingStrategy::Partitioned { partitions: 2 },
        ] {
            let mapping =
                imc_sim::AmMapping::new(&am, imc_sim::ArraySpec::default(), strategy).unwrap();
            for k in [1usize, 4, 8] {
                assert_eq!(
                    mapping.search_topk(Arc::clone(&batch), k).unwrap(),
                    Searchable::search_topk(&am, Arc::clone(&batch), k).unwrap(),
                    "mapped top-k must stay bit-exact against the software AM"
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_reported() {
        let mem = SearchMemory::new(BitMatrix::zeros(2, 8));
        let batch = Arc::new(QueryBatch::from_vectors(&[BitVector::zeros(9)]).unwrap());
        assert_eq!(
            mem.search_winners(batch),
            Err(ServeError::DimensionMismatch { expected: 8, found: 9 })
        );
    }

    #[test]
    fn mapping_adapter_matches_am_search() {
        use hd_linalg::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(5);
        let centroids: Vec<(usize, BitVector)> = (0..6)
            .map(|v| {
                let b: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
                (v % 3, BitVector::from_bools(&b))
            })
            .collect();
        let am = hdc::BinaryAm::from_centroids(3, centroids).unwrap();
        let mapping = imc_sim::AmMapping::new(
            &am,
            imc_sim::ArraySpec::default(),
            imc_sim::MappingStrategy::Partitioned { partitions: 2 },
        )
        .unwrap();
        let queries: Vec<BitVector> = (0..5)
            .map(|_| BitVector::from_bools(&(0..96).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = Arc::new(QueryBatch::from_vectors(&queries).unwrap());
        assert_eq!(
            mapping.search_winners(Arc::clone(&batch)).unwrap(),
            Searchable::search_winners(&am, batch).unwrap(),
            "mapped search must stay bit-exact against the software AM"
        );
        assert_eq!(Searchable::rows(&mapping), 6);
    }
}
