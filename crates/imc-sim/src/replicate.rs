//! Replicated-array readout: majority voting over independently-faulted
//! replicas.
//!
//! Spatial redundancy is the classic defence against static cell faults:
//! program the same associative memory onto `R` physical arrays, each
//! with its own (independent) defect pattern, and read back the bitwise
//! majority of the replicas. A cell reads wrong only when a majority of
//! replicas fault *the same cell*, so the effective bit-error rate drops
//! from `O(p)` to `O(p^{ceil(R/2)})` — at BER 5% and `R = 3` that is
//! roughly 0.7%, enough to restore near-ideal accuracy where a single
//! array visibly degrades (measured by the `fault_tolerance` bench).
//!
//! The vote happens digitally at readout-model construction via
//! [`hd_linalg::majority_words`] (word-level bit-sliced counters, no
//! per-bit extraction), producing a plain [`AmMapping`] whose search
//! results — including cascade and top-k paths — are exactly what a
//! per-read majority would return, at zero per-query cost.

use crate::error::{ImcError, Result};
use crate::faults::{FaultModel, FaultyAmMapping};
use crate::mapping::AmMapping;
use hd_linalg::rng::derive_seed;
use hd_linalg::BitMatrix;

/// An associative memory programmed onto `R` independently-faulted
/// replica arrays, searched through their bitwise-majority readout.
///
/// The majority is **strict** (`> R/2` votes): exact for odd `R`, while
/// an even `R` resolves exact ties to 0 — prefer odd replication.
/// `R = 1` degenerates to a single [`FaultyAmMapping`].
///
/// # Example
///
/// ```
/// use hd_linalg::BitVector;
/// use hdc::BinaryAm;
/// use imc_sim::{AmMapping, ArraySpec, FaultModel, MappingStrategy, ReplicatedAmMapping};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let am = BinaryAm::from_centroids(2, vec![
///     (0, BitVector::from_bools(&[true; 64])),
///     (1, BitVector::from_bools(&[false; 64])),
/// ])?;
/// let ideal = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic)?;
/// let replicated = ReplicatedAmMapping::program(&ideal, FaultModel::bit_flip(0.05), 3, 7)?;
/// let hit = replicated.majority_mapping().search(&BitVector::from_bools(&[true; 64]))?;
/// assert_eq!(hit.predicted_class, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedAmMapping {
    replicas: Vec<FaultyAmMapping>,
    majority: AmMapping,
    model: FaultModel,
}

impl ReplicatedAmMapping {
    /// Programs `ideal` onto `replicas` arrays, each faulted
    /// independently under `model` (replica `i` samples from
    /// `derive_seed(seed, i)`), and derives the majority readout.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] for invalid fault rates or a
    /// zero replica count.
    pub fn program(
        ideal: &AmMapping,
        model: FaultModel,
        replicas: usize,
        seed: u64,
    ) -> Result<Self> {
        if replicas == 0 {
            return Err(ImcError::InvalidSpec { reason: "replica count must be positive".into() });
        }
        let replicas: Vec<FaultyAmMapping> = (0..replicas)
            .map(|i| FaultyAmMapping::program(ideal, model, derive_seed(seed, i as u64)))
            .collect::<Result<_>>()?;
        let majority = Self::vote(ideal, &replicas)?;
        Ok(ReplicatedAmMapping { replicas, majority, model })
    }

    /// Derives the majority mapping from the replicas' partition
    /// matrices, one word-level vote per partition.
    fn vote(shape: &AmMapping, replicas: &[FaultyAmMapping]) -> Result<AmMapping> {
        let parts = shape.partition_memories().len();
        let matrices: Vec<BitMatrix> = (0..parts)
            .map(|p| {
                let views: Vec<&BitMatrix> = replicas
                    .iter()
                    .map(|r| r.as_mapping().partition_memories()[p].matrix())
                    .collect();
                BitMatrix::bitwise_majority(&views).map_err(|e| ImcError::InvalidSpec {
                    reason: format!("majority vote failed: {e}"),
                })
            })
            .collect::<Result<_>>()?;
        shape.clone_with_partition_matrices(matrices)
    }

    /// Number of replica arrays `R`.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The fault model each replica was programmed under.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The digital majority readout all searches run against. Its cells
    /// are the per-bit strict-majority vote of the replicas.
    pub fn majority_mapping(&self) -> &AmMapping {
        &self.majority
    }

    /// Replica `i`'s (independently faulted) mapping.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] if `i` is out of range.
    pub fn replica(&self, i: usize) -> Result<&FaultyAmMapping> {
        self.replicas.get(i).ok_or_else(|| ImcError::InvalidSpec {
            reason: format!("replica {i} out of range for {} replicas", self.replicas.len()),
        })
    }

    /// Cells where the majority readout still differs from `ideal` —
    /// the residual corruption replication could not vote away.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] on a shape mismatch.
    pub fn residual_flipped(&self, ideal: &AmMapping) -> Result<usize> {
        self.majority.diff_cells(ideal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArraySpec, MappingStrategy};
    use hd_linalg::rng::seeded;
    use hd_linalg::BitVector;
    use hdc::BinaryAm;
    use rand::Rng;

    fn small_am(dim: usize, seed: u64) -> BinaryAm {
        let mut rng = seeded(seed);
        let centroids: Vec<(usize, BitVector)> = (0..4)
            .map(|v| {
                let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                (v % 2, BitVector::from_bools(&bits))
            })
            .collect();
        BinaryAm::from_centroids(2, centroids).unwrap()
    }

    fn mapping(dim: usize, strategy: MappingStrategy, seed: u64) -> AmMapping {
        AmMapping::new(&small_am(dim, seed), ArraySpec::default(), strategy).unwrap()
    }

    #[test]
    fn ideal_replicas_match_ideal_mapping_bit_for_bit() {
        for strategy in [MappingStrategy::Basic, MappingStrategy::Partitioned { partitions: 4 }] {
            let ideal = mapping(256, strategy, 1);
            let rep = ReplicatedAmMapping::program(&ideal, FaultModel::ideal(), 3, 5).unwrap();
            assert_eq!(rep.residual_flipped(&ideal).unwrap(), 0);
            for v in 0..ideal.num_vectors() {
                assert_eq!(
                    rep.majority_mapping().logical_row(v).unwrap(),
                    ideal.logical_row(v).unwrap()
                );
            }
        }
    }

    #[test]
    fn single_replica_equals_plain_faulty_mapping() {
        let ideal = mapping(256, MappingStrategy::Basic, 2);
        let model = FaultModel::bit_flip(0.1);
        let rep = ReplicatedAmMapping::program(&ideal, model, 1, 9).unwrap();
        let plain = FaultyAmMapping::program(&ideal, model, derive_seed(9, 0)).unwrap();
        assert_eq!(rep.majority_mapping().diff_cells(plain.as_mapping()).unwrap(), 0);
    }

    #[test]
    fn majority_vote_reduces_residual_corruption() {
        let ideal = mapping(512, MappingStrategy::Basic, 3);
        let model = FaultModel::bit_flip(0.05);
        let rep = ReplicatedAmMapping::program(&ideal, model, 3, 17).unwrap();
        let single = FaultyAmMapping::program(&ideal, model, derive_seed(17, 0)).unwrap();
        let residual = rep.residual_flipped(&ideal).unwrap();
        let plain = single.effective_flipped(&ideal).unwrap();
        assert!(
            residual * 4 < plain,
            "majority residual {residual} should be far below single-array {plain}"
        );
    }

    #[test]
    fn replicas_fault_independently() {
        let ideal = mapping(256, MappingStrategy::Basic, 4);
        let rep = ReplicatedAmMapping::program(&ideal, FaultModel::bit_flip(0.1), 3, 23).unwrap();
        let d01 = rep.replica(0).unwrap().as_mapping();
        let d1 = rep.replica(1).unwrap().as_mapping();
        assert!(d01.diff_cells(d1).unwrap() > 0, "replicas must not share a fault pattern");
        assert!(rep.replica(3).is_err());
    }

    #[test]
    fn searches_agree_with_majority_mapping() {
        use hd_linalg::{CascadePlan, QueryBatch};
        let ideal = mapping(512, MappingStrategy::Partitioned { partitions: 4 }, 5);
        let rep = ReplicatedAmMapping::program(&ideal, FaultModel::bit_flip(0.02), 3, 31).unwrap();
        let mut rng = seeded(6);
        let queries: Vec<BitVector> = (0..5)
            .map(|_| BitVector::from_bools(&(0..512).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let exact = rep.majority_mapping().search_batch(&batch).unwrap();
        let plan = CascadePlan::prefix(512, 128).unwrap();
        let cascade = rep.majority_mapping().search_batch_cascade(&batch, &plan).unwrap();
        assert_eq!(cascade.predicted_rows, exact.predicted_rows);
        let topk = rep.majority_mapping().search_batch_topk(&batch, 1).unwrap();
        for (q, hits) in topk.hits.iter().enumerate() {
            assert_eq!(hits[0].row, exact.predicted_rows[q]);
        }
    }

    #[test]
    fn zero_replicas_rejected() {
        let ideal = mapping(64, MappingStrategy::Basic, 7);
        assert!(ReplicatedAmMapping::program(&ideal, FaultModel::ideal(), 0, 1).is_err());
    }
}
