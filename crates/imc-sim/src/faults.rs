//! Array non-ideality modeling: cell faults and readout noise.
//!
//! The paper's intro motivates HDC on IMC partly by HDC's inherent noise
//! robustness; real SRAM/NVM arrays suffer programming errors, stuck-at
//! cells, and noisy column readouts. This module injects those effects
//! into a mapped associative memory so the robustness claim can be
//! measured rather than assumed (see the `ablation` bench binary, which
//! sweeps bit-error rate against accuracy for MEMHD and BasicHDC).

use crate::error::{ImcError, Result};
use crate::mapping::AmMapping;
use hd_linalg::rng::{derive_seed, seeded};
use rand::Rng;

/// Stochastic fault model for programmed IMC cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability that a programmed cell reads back flipped (bit-error
    /// rate). Applied independently per cell, once, at programming time.
    pub bit_error_rate: f64,
    /// Probability that a cell is stuck at 0 (always reads 0 regardless of
    /// the programmed value).
    pub stuck_at_zero_rate: f64,
    /// Probability that a cell is stuck at 1.
    pub stuck_at_one_rate: f64,
}

impl FaultModel {
    /// A fault-free array.
    pub fn ideal() -> Self {
        FaultModel { bit_error_rate: 0.0, stuck_at_zero_rate: 0.0, stuck_at_one_rate: 0.0 }
    }

    /// A pure bit-flip model with the given error rate.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]`.
    pub fn bit_flip(ber: f64) -> Self {
        assert!((0.0..=1.0).contains(&ber), "bit error rate must be in [0, 1]");
        FaultModel { bit_error_rate: ber, ..Self::ideal() }
    }

    /// Validates all rates.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] if any rate is outside `[0, 1]`
    /// or the stuck-at rates sum above 1.
    pub fn validate(&self) -> Result<()> {
        for (name, r) in [
            ("bit_error_rate", self.bit_error_rate),
            ("stuck_at_zero_rate", self.stuck_at_zero_rate),
            ("stuck_at_one_rate", self.stuck_at_one_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(ImcError::InvalidSpec {
                    reason: format!("{name} = {r} outside [0, 1]"),
                });
            }
        }
        if self.stuck_at_zero_rate + self.stuck_at_one_rate > 1.0 {
            return Err(ImcError::InvalidSpec { reason: "stuck-at rates sum above 1".into() });
        }
        Ok(())
    }

    /// Whether the model injects no faults at all.
    pub fn is_ideal(&self) -> bool {
        self.bit_error_rate == 0.0
            && self.stuck_at_zero_rate == 0.0
            && self.stuck_at_one_rate == 0.0
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::ideal()
    }
}

/// An [`AmMapping`] programmed onto faulty arrays.
///
/// Faults are sampled once at construction (they model manufacturing and
/// programming defects, which are static per chip); every subsequent search
/// sees the same perturbed cells.
///
/// # Example
///
/// ```
/// use hd_linalg::BitVector;
/// use hdc::BinaryAm;
/// use imc_sim::{AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let am = BinaryAm::from_centroids(2, vec![
///     (0, BitVector::from_bools(&[true; 64])),
///     (1, BitVector::from_bools(&[false; 64])),
/// ])?;
/// let ideal = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic)?;
/// let faulty = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.0), 1)?;
/// let q = BitVector::from_bools(&[true; 64]);
/// // Zero BER: identical to the ideal mapping.
/// assert_eq!(faulty.as_mapping().search(&q)?.scores, ideal.search(&q)?.scores);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultyAmMapping {
    mapping: AmMapping,
    model: FaultModel,
    flipped_cells: usize,
}

impl FaultyAmMapping {
    /// Programs the cells of `ideal` onto arrays with the given fault
    /// model, sampling faults deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] for invalid fault rates.
    pub fn program(ideal: &AmMapping, model: FaultModel, seed: u64) -> Result<Self> {
        model.validate()?;
        if model.is_ideal() {
            return Ok(FaultyAmMapping { mapping: ideal.clone(), model, flipped_cells: 0 });
        }
        let mut rng = seeded(derive_seed(seed, 0x6661756c)); // "faul"
        let mut mapping = ideal.clone();
        let mut flipped = 0usize;
        mapping.for_each_cell_mut(|bit| {
            let original = *bit;
            // Stuck-at faults take precedence over transient flips.
            let r: f64 = rng.gen();
            if r < model.stuck_at_zero_rate {
                *bit = false;
            } else if r < model.stuck_at_zero_rate + model.stuck_at_one_rate {
                *bit = true;
            } else if rng.gen_bool(model.bit_error_rate) {
                *bit = !*bit;
            }
            if *bit != original {
                flipped += 1;
            }
        });
        Ok(FaultyAmMapping { mapping, model, flipped_cells: flipped })
    }

    /// Injects *additional* faults into the already-perturbed cells —
    /// modeling in-field degradation (retention loss, drift) on top of the
    /// programming-time defects sampled by [`FaultyAmMapping::program`].
    ///
    /// Returns a new mapping; the original is untouched, so a serving
    /// layer can keep answering queries from the old snapshot while the
    /// degraded one is prepared and then republished atomically.
    /// `flipped_cells` of the result counts perturbation events across
    /// both rounds (a double-flipped cell counts twice); use
    /// [`FaultyAmMapping::effective_flipped`] against a reference mapping
    /// for the net corruption.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] for invalid fault rates.
    pub fn inject(&self, model: FaultModel, seed: u64) -> Result<Self> {
        let degraded = FaultyAmMapping::program(&self.mapping, model, seed)?;
        Ok(FaultyAmMapping {
            mapping: degraded.mapping,
            model,
            flipped_cells: self.flipped_cells + degraded.flipped_cells,
        })
    }

    /// The fault model of the **most recent** programming or injection
    /// round: [`FaultyAmMapping::program`]'s model for a fresh array,
    /// the last [`FaultyAmMapping::inject`]'s model afterwards. Earlier
    /// rounds' perturbations remain in the cells (see
    /// [`FaultyAmMapping::flipped_cells`] for the cumulative count) but
    /// are not described by this value.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// Number of perturbation **events** accumulated across
    /// [`FaultyAmMapping::program`] and every subsequent
    /// [`FaultyAmMapping::inject`] round. A cell flipped in two rounds
    /// counts **twice** even though its final value may equal the
    /// programmed one — this is a wear/activity counter, not a corruption
    /// measure. For the number of cells that currently differ from a
    /// reference mapping, use [`FaultyAmMapping::effective_flipped`].
    pub fn flipped_cells(&self) -> usize {
        self.flipped_cells
    }

    /// Number of cells whose **current** value differs from `ideal` — the
    /// effective corruption, where an even number of flips on the same
    /// cell cancels out. Contrast with [`FaultyAmMapping::flipped_cells`],
    /// which counts perturbation events and can exceed this after
    /// multiple injection rounds.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] if `ideal`'s logical shape
    /// differs from this mapping's.
    pub fn effective_flipped(&self, ideal: &AmMapping) -> Result<usize> {
        self.mapping.diff_cells(ideal)
    }

    /// The underlying (perturbed) mapping: every search on the faulty
    /// arrays runs on it. A cascade derives its pruning bound from the
    /// bits programmed at call time, so it tracks every flip.
    pub fn as_mapping(&self) -> &AmMapping {
        &self.mapping
    }

    /// Mutable access for the scrubbing layer, which reprograms corrupted
    /// rows in place from a golden reference.
    pub(crate) fn mapping_mut(&mut self) -> &mut AmMapping {
        &mut self.mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArraySpec, MappingStrategy};
    use hd_linalg::BitVector;
    use hdc::BinaryAm;

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

    fn mapping(dim: usize, seed: u64) -> AmMapping {
        AmMapping::new(&small_am(dim, seed), ArraySpec::default(), MappingStrategy::Basic).unwrap()
    }

    #[test]
    fn zero_ber_is_identity() {
        let ideal = mapping(96, 1);
        let faulty = FaultyAmMapping::program(&ideal, FaultModel::ideal(), 7).unwrap();
        assert_eq!(faulty.flipped_cells(), 0);
        let mut rng = seeded(3);
        let bits: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
        let q = BitVector::from_bools(&bits);
        assert_eq!(
            faulty.as_mapping().search(&q).unwrap().scores,
            ideal.search(&q).unwrap().scores
        );
    }

    #[test]
    fn full_ber_flips_everything() {
        let ideal = mapping(64, 2);
        let faulty = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(1.0), 7).unwrap();
        assert_eq!(faulty.flipped_cells(), 4 * 64);
    }

    #[test]
    fn ber_flip_fraction_approximate() {
        let ideal = mapping(512, 3);
        let faulty = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.1), 11).unwrap();
        let total = 4 * 512;
        let frac = faulty.flipped_cells() as f64 / total as f64;
        assert!((frac - 0.1).abs() < 0.04, "flip fraction {frac}");
    }

    #[test]
    fn stuck_at_one_saturates() {
        let ideal = mapping(64, 4);
        let model =
            FaultModel { bit_error_rate: 0.0, stuck_at_zero_rate: 0.0, stuck_at_one_rate: 1.0 };
        let faulty = FaultyAmMapping::program(&ideal, model, 5).unwrap();
        // Every query now scores popcount(query) against every centroid.
        let q = BitVector::from_bools(&[true; 64]);
        let scores = faulty.as_mapping().search(&q).unwrap().scores;
        assert!(scores.iter().all(|&s| s == 64));
    }

    #[test]
    fn deterministic_under_seed() {
        let ideal = mapping(128, 5);
        let a = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.2), 9).unwrap();
        let b = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.2), 9).unwrap();
        let mut rng = seeded(6);
        let bits: Vec<bool> = (0..128).map(|_| rng.gen()).collect();
        let q = BitVector::from_bools(&bits);
        assert_eq!(
            a.as_mapping().search(&q).unwrap().scores,
            b.as_mapping().search(&q).unwrap().scores
        );
        assert_eq!(a.flipped_cells(), b.flipped_cells());
    }

    #[test]
    fn inject_degrades_cumulatively() {
        let ideal = mapping(256, 7);
        let first = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.05), 3).unwrap();
        let degraded = first.inject(FaultModel::bit_flip(0.05), 4).unwrap();
        assert!(degraded.flipped_cells() >= first.flipped_cells());
        // The original snapshot is untouched (serve layers rely on this
        // for hot republish).
        let mut rng = seeded(8);
        let bits: Vec<bool> = (0..256).map(|_| rng.gen()).collect();
        let q = BitVector::from_bools(&bits);
        let before = first.as_mapping().search(&q).unwrap().scores.clone();
        let _ = degraded.as_mapping().search(&q).unwrap();
        assert_eq!(first.as_mapping().search(&q).unwrap().scores, before);
        // Zero-rate injection is an identity on the cells.
        let same = first.inject(FaultModel::ideal(), 9).unwrap();
        assert_eq!(same.as_mapping().search(&q).unwrap().scores, before);
        assert_eq!(same.flipped_cells(), first.flipped_cells());
    }

    #[test]
    fn invalid_rates_rejected() {
        let ideal = mapping(64, 6);
        let bad =
            FaultModel { bit_error_rate: 0.0, stuck_at_zero_rate: 0.7, stuck_at_one_rate: 0.7 };
        assert!(FaultyAmMapping::program(&ideal, bad, 1).is_err());
        let bad = FaultModel { bit_error_rate: 1.5, ..FaultModel::ideal() };
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "bit error rate")]
    fn bit_flip_constructor_panics_out_of_range() {
        FaultModel::bit_flip(2.0);
    }

    #[test]
    fn fault_injection_invalidates_cascade_bounds_and_stays_exact() {
        use hd_linalg::{CascadePlan, LabeledMemory, QueryBatch};
        let mut rng = seeded(21);
        let queries: Vec<BitVector> = (0..9)
            .map(|_| BitVector::from_bools(&(0..512).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let am = small_am(512, 20);
        for strategy in [MappingStrategy::Basic, MappingStrategy::Partitioned { partitions: 4 }] {
            let ideal = AmMapping::new(&am, ArraySpec::default(), strategy).unwrap();
            let plan = CascadePlan::prefix(512, 128).unwrap();
            // Search the ideal mapping, then degrade through two
            // injection rounds: a row-suffix table of the pre-fault bits
            // would make the pruning bound silently lie.
            let winners = |mapping: &AmMapping| -> Vec<usize> {
                let out = mapping.search_batch_cascade(&batch, &plan, 1).unwrap();
                (0..batch.len()).map(|q| out.topk().hits(q)[0].0).collect()
            };
            assert_eq!(winners(&ideal), ideal.search_batch(&batch).unwrap().predicted_rows);
            let mut faulty =
                FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.2), 13).unwrap();
            for round in 0..2 {
                let exact = faulty.as_mapping().search_batch(&batch).unwrap();
                let rows = winners(faulty.as_mapping());
                assert_eq!(
                    rows, exact.predicted_rows,
                    "{strategy:?} round {round}: cascade must track the faulty bits"
                );
                let classes: Vec<usize> = rows.iter().map(|&r| faulty.class_of(r)).collect();
                assert_eq!(classes, exact.predicted_classes);
                faulty = faulty.inject(FaultModel::bit_flip(0.2), 14 + round).unwrap();
            }
        }
    }
}
