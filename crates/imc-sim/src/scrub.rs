//! Online fault scrubbing: detect and repair corrupted rows in place.
//!
//! Static redundancy ([`crate::ReplicatedAmMapping`]) masks faults;
//! scrubbing *removes* them. At programming time the [`Scrubber`] derives
//! a per-row reference signature (a seeded word checksum plus the row's
//! popcount) from the golden mapping. In the field it sweeps the deployed
//! arrays incrementally — a bounded number of cells per tick, so the
//! repair loop can share the array with serving traffic — recomputes each
//! visited row's signature, and reprograms any row whose signature
//! disagrees from the golden copy. [`ScrubReport`] telemetry (rows
//! scanned / dirty / repaired, cells healed) feeds the serving layer's
//! health view, and a repaired snapshot is republished through
//! `hd_serve::ModelRegistry` so queries never observe a half-repaired
//! memory.
//!
//! Signatures compare full row content (checksum over every packed word,
//! mixed per-word so word swaps are detected, plus the popcount), so a
//! signature match on honest hardware means the row is bit-identical to
//! the golden copy; collisions for adversarial corruption are ~2⁻⁶⁴.

use crate::error::{ImcError, Result};
use crate::faults::FaultyAmMapping;
use crate::mapping::AmMapping;
use hd_linalg::rng::derive_seed;
use hd_linalg::BitVector;

/// Reference signature of one logical row, derived at programming time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSignature {
    /// Seeded mix over the row's packed words (position-sensitive).
    checksum: u64,
    /// Number of set bits — a cheap first-line check and a direct
    /// measure of charge loss on real arrays.
    popcount: u32,
}

impl RowSignature {
    fn of(row: &BitVector, seed: u64) -> Self {
        let mut acc = seed ^ 0x7363_7275_6262_6572; // "scrubber"
        for (i, &w) in row.as_words().iter().enumerate() {
            // splitmix64-style finalizer keeps single-bit differences
            // avalanching across the whole checksum.
            let mut z = acc ^ w.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            acc = z ^ (z >> 31);
        }
        RowSignature { checksum: acc, popcount: row.count_ones() }
    }
}

/// Sweep pacing for a [`Scrubber`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Cell budget per [`Scrubber::tick`]: each tick scans
    /// `max(1, cells_per_tick / D)` rows. `0` means unbounded — a single
    /// tick sweeps the whole memory (what [`Scrubber::scrub_full`] uses).
    pub cells_per_tick: usize,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        // One 128-row × 128-col array's worth of cells per tick.
        ScrubConfig { cells_per_tick: 128 * 128 }
    }
}

/// Telemetry from one scrub pass or tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Rows whose signatures were recomputed this tick.
    pub rows_scanned: usize,
    /// Scanned rows whose signature disagreed with the reference.
    pub rows_dirty: usize,
    /// Dirty rows reprogrammed from the golden copy (always equals
    /// `rows_dirty` — kept separate so a future partial-repair policy
    /// can report the difference).
    pub rows_repaired: usize,
    /// Individual cells whose value changed during repair.
    pub cells_healed: usize,
    /// Whether the sweep cursor wrapped past the last row this tick,
    /// completing a full pass over the memory.
    pub completed_pass: bool,
}

impl ScrubReport {
    fn absorb(&mut self, other: ScrubReport) {
        self.rows_scanned += other.rows_scanned;
        self.rows_dirty += other.rows_dirty;
        self.rows_repaired += other.rows_repaired;
        self.cells_healed += other.cells_healed;
        self.completed_pass |= other.completed_pass;
    }
}

/// Incremental scrub engine bound to one golden [`AmMapping`].
///
/// Holds a clone of the golden mapping (the repair source) and the
/// per-row reference signatures. [`Scrubber::tick`] advances a cursor
/// over the target's rows under the configured cell budget;
/// [`Scrubber::scrub_full`] drives ticks until one full pass completes.
///
/// # Example
///
/// ```
/// use hd_linalg::{rng::seeded, BitVector};
/// use hdc::BinaryAm;
/// use imc_sim::{
///     AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy, ScrubConfig, Scrubber,
/// };
/// use rand::Rng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = seeded(1);
/// let centroids: Vec<(usize, BitVector)> = (0..4)
///     .map(|v| {
///         let bits: Vec<bool> = (0..256).map(|_| rng.gen()).collect();
///         (v, BitVector::from_bools(&bits))
///     })
///     .collect();
/// let am = BinaryAm::from_centroids(4, centroids)?;
/// let golden = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic)?;
/// let scrubber = Scrubber::new(&golden, ScrubConfig::default(), 42)?;
///
/// let mut deployed = FaultyAmMapping::program(&golden, FaultModel::bit_flip(0.05), 7)?;
/// assert!(deployed.effective_flipped(&golden)? > 0);
/// let report = scrubber.scrub_full(&mut deployed)?;
/// assert!(report.cells_healed > 0);
/// assert_eq!(deployed.effective_flipped(&golden)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scrubber {
    golden: AmMapping,
    signatures: Vec<RowSignature>,
    config: ScrubConfig,
    /// Base seed keying the per-row checksum streams.
    seed: u64,
    /// Next logical row the incremental sweep will visit.
    cursor: std::cell::Cell<usize>,
}

impl Scrubber {
    /// Derives reference signatures for every row of `golden` and binds
    /// the sweep pacing. `seed` keys the checksums; the same seed must
    /// not be reused across unrelated memories if signatures are ever
    /// persisted externally.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] if `golden` stores no vectors.
    pub fn new(golden: &AmMapping, config: ScrubConfig, seed: u64) -> Result<Self> {
        if golden.num_vectors() == 0 {
            return Err(ImcError::InvalidSpec {
                reason: "cannot scrub a mapping with no stored vectors".into(),
            });
        }
        let signatures = (0..golden.num_vectors())
            .map(|v| Ok(RowSignature::of(&golden.logical_row(v)?, derive_seed(seed, v as u64))))
            .collect::<Result<Vec<_>>>()?;
        Ok(Scrubber {
            golden: golden.clone(),
            signatures,
            config,
            seed,
            cursor: std::cell::Cell::new(0),
        })
    }

    /// The sweep pacing.
    pub fn config(&self) -> ScrubConfig {
        self.config
    }

    /// Rows a single [`Scrubber::tick`] scans under the cell budget.
    pub fn rows_per_tick(&self) -> usize {
        if self.config.cells_per_tick == 0 {
            self.golden.num_vectors()
        } else {
            (self.config.cells_per_tick / self.golden.dim()).max(1)
        }
    }

    /// Scans the next budgeted slice of rows in `target`, reprogramming
    /// any row whose signature disagrees with the golden reference.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] if `target`'s logical shape
    /// differs from the golden mapping's.
    pub fn tick(&self, target: &mut FaultyAmMapping) -> Result<ScrubReport> {
        self.check_shape(target)?;
        let rows = self.golden.num_vectors();
        let budget = self.rows_per_tick().min(rows);
        let mut report = ScrubReport::default();
        let mut cursor = self.cursor.get();
        for _ in 0..budget {
            let healed = self.scrub_row(target, cursor)?;
            report.rows_scanned += 1;
            if healed > 0 {
                report.rows_dirty += 1;
                report.rows_repaired += 1;
                report.cells_healed += healed;
            }
            cursor += 1;
            if cursor == rows {
                cursor = 0;
                report.completed_pass = true;
            }
        }
        self.cursor.set(cursor);
        Ok(report)
    }

    /// Drives [`Scrubber::tick`] until a full pass over `target`
    /// completes, returning the aggregated report. Afterwards the target
    /// is bit-identical to the golden mapping.
    ///
    /// # Errors
    ///
    /// As [`Scrubber::tick`].
    pub fn scrub_full(&self, target: &mut FaultyAmMapping) -> Result<ScrubReport> {
        let mut total = ScrubReport::default();
        loop {
            let report = self.tick(target)?;
            let done = report.completed_pass;
            total.absorb(report);
            if done {
                return Ok(total);
            }
        }
    }

    fn check_shape(&self, target: &FaultyAmMapping) -> Result<()> {
        let t = target.as_mapping();
        if t.dim() != self.golden.dim() || t.num_vectors() != self.golden.num_vectors() {
            return Err(ImcError::InvalidSpec {
                reason: format!(
                    "scrub target shape {}x{} does not match golden {}x{}",
                    t.num_vectors(),
                    t.dim(),
                    self.golden.num_vectors(),
                    self.golden.dim()
                ),
            });
        }
        Ok(())
    }

    /// Verifies row `v`'s signature and repairs on mismatch, returning
    /// the number of cells healed.
    fn scrub_row(&self, target: &mut FaultyAmMapping, v: usize) -> Result<usize> {
        let observed = RowSignature::of(
            &target.as_mapping().logical_row(v)?,
            derive_seed(self.seed, v as u64),
        );
        if observed == self.signatures[v] {
            return Ok(0);
        }
        let golden_row = self.golden.logical_row(v)?;
        Ok(target.mapping_mut().overwrite_logical_row(v, &golden_row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArraySpec, FaultModel, MappingStrategy};
    use hd_linalg::rng::seeded;
    use hdc::BinaryAm;
    use rand::Rng;

    fn small_am(dim: usize, vectors: usize, seed: u64) -> BinaryAm {
        let mut rng = seeded(seed);
        let centroids: Vec<(usize, BitVector)> = (0..vectors)
            .map(|v| {
                let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                (v % 2, BitVector::from_bools(&bits))
            })
            .collect();
        BinaryAm::from_centroids(2, centroids).unwrap()
    }

    fn mapping(dim: usize, vectors: usize, strategy: MappingStrategy, seed: u64) -> AmMapping {
        AmMapping::new(&small_am(dim, vectors, seed), ArraySpec::default(), strategy).unwrap()
    }

    #[test]
    fn clean_memory_scrubs_to_zero_repairs() {
        let golden = mapping(256, 6, MappingStrategy::Basic, 1);
        let scrubber = Scrubber::new(&golden, ScrubConfig::default(), 11).unwrap();
        let mut clean = FaultyAmMapping::program(&golden, FaultModel::ideal(), 3).unwrap();
        let report = scrubber.scrub_full(&mut clean).unwrap();
        assert_eq!(report.rows_scanned, 6);
        assert_eq!(report.rows_dirty, 0);
        assert_eq!(report.rows_repaired, 0);
        assert_eq!(report.cells_healed, 0);
        assert!(report.completed_pass);
    }

    #[test]
    fn full_scrub_restores_golden_bits() {
        for strategy in [MappingStrategy::Basic, MappingStrategy::Partitioned { partitions: 4 }] {
            let golden = mapping(512, 8, strategy, 2);
            let scrubber = Scrubber::new(&golden, ScrubConfig::default(), 13).unwrap();
            let mut deployed =
                FaultyAmMapping::program(&golden, FaultModel::bit_flip(0.05), 7).unwrap();
            let corrupted = deployed.effective_flipped(&golden).unwrap();
            assert!(corrupted > 0);
            let report = scrubber.scrub_full(&mut deployed).unwrap();
            assert_eq!(report.cells_healed, corrupted, "{strategy:?}");
            assert_eq!(deployed.effective_flipped(&golden).unwrap(), 0);
            // A second pass finds nothing.
            let again = scrubber.scrub_full(&mut deployed).unwrap();
            assert_eq!(again.rows_dirty, 0);
        }
    }

    #[test]
    fn incremental_ticks_bound_work_and_converge() {
        let golden = mapping(256, 10, MappingStrategy::Basic, 3);
        // Budget of one row per tick.
        let scrubber = Scrubber::new(&golden, ScrubConfig { cells_per_tick: 1 }, 17).unwrap();
        assert_eq!(scrubber.rows_per_tick(), 1);
        let mut deployed =
            FaultyAmMapping::program(&golden, FaultModel::bit_flip(0.1), 19).unwrap();
        let mut ticks = 0;
        loop {
            let report = scrubber.tick(&mut deployed).unwrap();
            assert_eq!(report.rows_scanned, 1);
            ticks += 1;
            if report.completed_pass {
                break;
            }
        }
        assert_eq!(ticks, 10, "one pass = one tick per row");
        assert_eq!(deployed.effective_flipped(&golden).unwrap(), 0);
    }

    #[test]
    fn repaired_cascade_results_match_exact_search() {
        use hd_linalg::{CascadePlan, LabeledMemory, QueryBatch};
        let golden = mapping(512, 8, MappingStrategy::Partitioned { partitions: 4 }, 4);
        let scrubber = Scrubber::new(&golden, ScrubConfig::default(), 23).unwrap();
        let mut deployed =
            FaultyAmMapping::program(&golden, FaultModel::bit_flip(0.1), 29).unwrap();
        let mut rng = seeded(5);
        let queries: Vec<BitVector> = (0..7)
            .map(|_| BitVector::from_bools(&(0..512).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let plan = CascadePlan::prefix(512, 128).unwrap();
        // Search the faulty mapping, then repair: the next cascade must
        // prune against the repaired bits, not the faulty ones.
        let _ = deployed.as_mapping().search_batch_cascade(&batch, &plan, 1).unwrap();
        scrubber.scrub_full(&mut deployed).unwrap();
        let exact = golden.search_batch(&batch).unwrap();
        let cascade = deployed.as_mapping().search_batch_cascade(&batch, &plan, 1).unwrap();
        let rows: Vec<usize> = (0..batch.len()).map(|q| cascade.topk().hits(q)[0].0).collect();
        let classes: Vec<usize> = rows.iter().map(|&r| deployed.class_of(r)).collect();
        assert_eq!(rows, exact.predicted_rows);
        assert_eq!(classes, exact.predicted_classes);
        let repaired_exact = deployed.as_mapping().search_batch(&batch).unwrap();
        assert_eq!(repaired_exact.predicted_rows, exact.predicted_rows);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let golden = mapping(256, 4, MappingStrategy::Basic, 6);
        let other = mapping(128, 4, MappingStrategy::Basic, 6);
        let scrubber = Scrubber::new(&golden, ScrubConfig::default(), 31).unwrap();
        let mut wrong = FaultyAmMapping::program(&other, FaultModel::ideal(), 1).unwrap();
        assert!(scrubber.tick(&mut wrong).is_err());
    }
}
