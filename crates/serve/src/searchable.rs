//! The model interface the server batches over.
//!
//! A [`Searchable`] answers a packed [`QueryBatch`] with one [`Winner`]
//! per query. The server hands each flush a single `Arc<QueryBatch>` so
//! sharded implementations can ship the batch to worker threads without
//! copying; plain implementations just deref.
//!
//! Every [`hd_linalg::LabeledMemory`] is a [`Searchable`] through one
//! blanket impl. The model crates implement that trait for their own
//! types: `hd_linalg::SearchMemory` (`class == row`), `hdc::BinaryAm`,
//! `memhd::MemhdModel` and the four `hd_baselines` models (their
//! quantized AMs, queried with pre-encoded hypervectors), and
//! `imc_sim::AmMapping` / `FaultyAmMapping` / `ReplicatedAmMapping`
//! (mapped arrays, bit-exact against the software search).
//! [`crate::ShardedSearcher`] implements [`Searchable`] itself.

use crate::error::{Result, ServeError};
use hd_linalg::{LabeledMemory, QueryBatch, TopK};
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
/// Implementations must be [`Send`] + [`Sync`]: any submitting, waiting or
/// shutting-down thread, or a wire connection's reader, may execute a
/// flush, and snapshot swaps hand `Arc`s across threads.
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
    /// the [`Searchable::search_winners`] winner. Every
    /// [`LabeledMemory`] runs its fused bounded k-best sweep
    /// ([`LabeledMemory::topk`]).
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

pub(crate) fn check_topk(k: usize) -> Result<()> {
    if k == 0 {
        return Err(ServeError::InvalidConfig { reason: "top-k search requires k >= 1".into() });
    }
    Ok(())
}

/// The typed serve checks (`k`, then width) ahead of a labelled
/// memory's k-best sweep.
fn labeled_topk<T: LabeledMemory>(memory: &T, batch: &QueryBatch, k: usize) -> Result<TopK> {
    check_topk(k)?;
    let expected = memory.dim();
    if batch.dim() != expected {
        return Err(ServeError::DimensionMismatch { expected, found: batch.dim() });
    }
    memory.topk(batch, k).map_err(|e| ServeError::Model { reason: e.to_string() })
}

/// Every labelled memory serves through its k-best sweep; the winners
/// are its `k = 1` projection.
impl<T: LabeledMemory> Searchable for T {
    fn dim(&self) -> usize {
        LabeledMemory::dim(self)
    }

    fn rows(&self) -> usize {
        LabeledMemory::rows(self)
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        let top = labeled_topk(self, &batch, 1)?;
        Ok((0..top.len())
            .map(|q| {
                let (row, score) = top.hits(q)[0];
                Winner { row, class: self.class_of(row), score }
            })
            .collect())
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        let top = labeled_topk(self, &batch, k)?;
        Ok((0..top.len())
            .map(|q| {
                top.hits(q)
                    .iter()
                    .map(|&(row, score)| Winner { row, class: self.class_of(row), score })
                    .collect()
            })
            .collect())
    }
}

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

    /// `memory`'s fused k-best lists labelled by `classes`: the software
    /// oracle every implementor must match bit for bit.
    fn oracle(
        memory: &SearchMemory,
        classes: &[usize],
        batch: &QueryBatch,
        k: usize,
    ) -> Vec<Vec<Winner>> {
        let top = memory.topk_batch(batch, k).unwrap();
        (0..top.len())
            .map(|q| {
                top.hits(q)
                    .iter()
                    .map(|&(row, score)| Winner { row, class: classes[row], score })
                    .collect()
            })
            .collect()
    }

    /// Checks `model` against the oracle over `memory` / `classes` at
    /// k in {1, 4, rows + 1}, and that its winners are its top-1.
    fn assert_matches_oracle(
        name: &str,
        model: &dyn Searchable,
        memory: &SearchMemory,
        classes: &[usize],
        batch: &Arc<QueryBatch>,
    ) {
        assert_eq!((model.dim(), model.rows()), (memory.cols(), memory.rows()), "{name}");
        for k in [1, 4, memory.rows() + 1] {
            assert_eq!(
                model.search_topk(Arc::clone(batch), k).unwrap(),
                oracle(memory, classes, batch, k),
                "{name}: k {k}"
            );
        }
        let top1 = model.search_topk(Arc::clone(batch), 1).unwrap();
        let winners = model.search_winners(Arc::clone(batch)).unwrap();
        assert_eq!(winners.len(), top1.len(), "{name}");
        for (q, (w, slate)) in winners.iter().zip(&top1).enumerate() {
            assert_eq!(slate.as_slice(), [*w], "{name}: query {q}");
        }
        assert!(
            matches!(
                model.search_topk(Arc::clone(batch), 0),
                Err(ServeError::InvalidConfig { .. })
            ),
            "{name}"
        );
    }

    /// Six random 96-bit centroids over three classes, plus five queries.
    fn random_am(seed: u64) -> (hdc::BinaryAm, Arc<QueryBatch>) {
        use hd_linalg::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(seed);
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
        (am, Arc::new(QueryBatch::from_vectors(&queries).unwrap()))
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

        // Every software implementor agrees with the fused sweep over its
        // own rows and labels.
        let (am, batch) = random_am(9);
        let memory = am.search_memory();
        let rows: Vec<usize> = (0..memory.rows()).collect();
        assert_matches_oracle("SearchMemory", memory, memory, &rows, &batch);
        assert_matches_oracle("BinaryAm", &am, memory, am.class_labels(), &batch);
        let features = hd_linalg::Matrix::from_rows(&[
            &[0.9f32, 0.1, 0.9, 0.1][..],
            &[0.1, 0.9, 0.1, 0.9][..],
            &[0.5, 0.5, 0.9, 0.9][..],
        ])
        .unwrap();
        let basic = hd_baselines::BasicHdc::fit(96, &features, &[0, 1, 2], 3, 42).unwrap();
        let base_am = basic.binary_am();
        let base_memory = base_am.search_memory();
        assert_matches_oracle("BasicHdc", &basic, base_memory, base_am.class_labels(), &batch);
    }

    #[test]
    fn mapping_adapter_topk_matches_am_topk() {
        use imc_sim::{
            AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy, ReplicatedAmMapping,
        };
        let (am, batch) = random_am(9);
        let map = |strategy| AmMapping::new(&am, ArraySpec::default(), strategy).unwrap();
        // D = 96: the 3-way split has unaligned 32-bit segments.
        for strategy in [
            MappingStrategy::Basic,
            MappingStrategy::Partitioned { partitions: 2 },
            MappingStrategy::Partitioned { partitions: 3 },
        ] {
            let name = format!("AmMapping {strategy:?}");
            let mapping = map(strategy);
            assert_matches_oracle(&name, &mapping, am.search_memory(), am.class_labels(), &batch);
            for k in [1usize, 4, 8] {
                assert_eq!(
                    mapping.search_topk(Arc::clone(&batch), k).unwrap(),
                    am.search_topk(Arc::clone(&batch), k).unwrap(),
                    "mapped top-k must stay bit-exact against the software AM"
                );
            }
        }
        // Faulted arrays answer exactly as software over the bits they
        // actually hold.
        let faulted_rows = |mapping: &AmMapping| {
            let rows: Vec<BitVector> =
                (0..mapping.num_vectors()).map(|v| mapping.logical_row(v).unwrap()).collect();
            SearchMemory::from_rows(&rows).unwrap()
        };
        let ideal = map(MappingStrategy::Partitioned { partitions: 3 });
        let faulty = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.05), 3).unwrap();
        assert!(faulty.effective_flipped(&ideal).unwrap() > 0);
        let memory = faulted_rows(faulty.as_mapping());
        assert_matches_oracle("FaultyAmMapping", &faulty, &memory, am.class_labels(), &batch);
        let ideal = map(MappingStrategy::Partitioned { partitions: 2 });
        let replicated =
            ReplicatedAmMapping::program(&ideal, FaultModel::bit_flip(0.05), 3, 4).unwrap();
        let memory = faulted_rows(replicated.majority_mapping());
        assert_matches_oracle(
            "ReplicatedAmMapping",
            &replicated,
            &memory,
            am.class_labels(),
            &batch,
        );
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
