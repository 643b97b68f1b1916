//! Mapping associative memories onto IMC arrays (paper Fig. 1, Table II).
//!
//! The logical AM is a `D × V` binary matrix: hypervector dimensions on
//! wordlines, class vectors on bitlines. [`AmMapping`] programs that matrix
//! into fixed-size tiles and executes associative searches tile by tile,
//! counting cycles exactly as the paper does: one cycle per tile
//! activation, with partitioned layouts re-driving each array once per
//! partition (only that partition's columns active).

use crate::energy::EnergyModel;
use crate::error::{ImcError, Result};
use crate::spec::{tile_grid, ArraySpec};
use hd_linalg::{
    BitMatrix, BitVector, CascadePlan, CascadeTopK, LabeledMemory, QueryBatch, ScoreMatrix,
    SearchMemory, SegmentedCascade, TopK,
};
use hdc::{BinaryAm, SearchHit};

/// How the AM is laid out across arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingStrategy {
    /// One logical `D × V` matrix tiled directly (paper Fig. 1a).
    ///
    /// MEMHD's fully-utilized mapping (Fig. 1c) is this strategy applied to
    /// an AM whose `D` and `V = C` match the array dimensions.
    #[default]
    Basic,
    /// Hypervectors split into `partitions` segments of `D/P` dimensions,
    /// mapped across otherwise-unused columns (paper Fig. 1b). Uses fewer
    /// arrays but needs `P` activations per array, so the cycle count does
    /// not drop.
    Partitioned {
        /// Number of segments `P`. Must divide `D`.
        partitions: usize,
    },
}

impl MappingStrategy {
    fn partitions(&self) -> usize {
        match self {
            MappingStrategy::Basic => 1,
            MappingStrategy::Partitioned { partitions } => *partitions,
        }
    }
}

/// Static cost metrics of a mapping — one row of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingStats {
    /// Arrays required to hold the structure.
    pub arrays: usize,
    /// Tile activations per inference (serialized onto one physical array).
    pub cycles: usize,
    /// Mapped columns / total column capacity of the occupied arrays.
    pub utilization: f64,
}

/// Result of one mapped associative search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceStats {
    /// Per-centroid dot-similarity scores, identical to the software
    /// associative search.
    pub scores: Vec<u32>,
    /// Winning centroid row.
    pub predicted_row: usize,
    /// Class owning the winning centroid.
    pub predicted_class: usize,
    /// Tile activations consumed.
    pub cycles: usize,
}

/// Result of a batched mapped associative search
/// ([`AmMapping::search_batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInferenceStats {
    /// `Q × V` dot-similarity scores, bit-exact against the software
    /// batched search.
    pub scores: ScoreMatrix,
    /// Winning centroid row per query.
    pub predicted_rows: Vec<usize>,
    /// Class owning the winning centroid, per query.
    pub predicted_classes: Vec<usize>,
    /// Tile activations consumed **per query**; the array answers queries
    /// independently, so a batch of `Q` costs `Q × cycles_per_query`.
    pub cycles_per_query: usize,
}

impl BatchInferenceStats {
    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.predicted_rows.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.predicted_rows.is_empty()
    }

    /// Total tile activations for the whole batch.
    pub fn total_cycles(&self) -> usize {
        self.cycles_per_query * self.len()
    }
}

/// Result of a batched top-k mapped associative search
/// ([`AmMapping::search_batch_topk`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKBatchStats {
    /// Per-query k-best centroids, sorted by score descending then row
    /// ascending — bit-exact against sorting the full
    /// [`AmMapping::search_batch`] score row. Each inner list holds
    /// `min(k, V)` hits.
    pub hits: Vec<Vec<SearchHit>>,
    /// Tile activations consumed per query (top-k reads the same tiles
    /// an argmax search does).
    pub cycles_per_query: usize,
}

impl TopKBatchStats {
    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// Total tile activations for the whole batch.
    pub fn total_cycles(&self) -> usize {
        self.cycles_per_query * self.len()
    }
}

/// A binary associative memory programmed onto IMC arrays.
///
/// # Example
///
/// ```
/// use hd_linalg::BitVector;
/// use hdc::BinaryAm;
/// use imc_sim::{AmMapping, ArraySpec, MappingStrategy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let am = BinaryAm::from_centroids(2, vec![
///     (0, BitVector::from_bools(&[true, true, false, false])),
///     (1, BitVector::from_bools(&[false, false, true, true])),
/// ])?;
/// let mapping = AmMapping::new(&am, ArraySpec::new(2, 2)?, MappingStrategy::Basic)?;
/// let hit = mapping.search(&BitVector::from_bools(&[true, true, false, false]))?;
/// assert_eq!(hit.predicted_class, 0);
/// assert_eq!(hit.scores, vec![2, 0]); // bit-exact vs. software search
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AmMapping {
    spec: ArraySpec,
    strategy: MappingStrategy,
    /// Full hypervector dimensionality `D`.
    dim: usize,
    /// Number of stored class vectors `V`.
    num_vectors: usize,
    classes: Vec<usize>,
    /// Segment length `D / P`.
    seg_len: usize,
    /// Packed logical columns, one memory per partition: row `v` of
    /// `partitions[p]` holds segment `p` of class vector `v` (`seg_len`
    /// bits). Physically these are the bitline columns of the arrays; the
    /// per-partition split lets batched searches run the shared kernel
    /// dispatch directly on each partition, and holding a
    /// [`SearchMemory`] keeps each partition's SIMD-blocked mirror packed
    /// once instead of per batch.
    partitions: Vec<SearchMemory>,
}

impl AmMapping {
    /// Programs `am` onto arrays of the given spec with the given layout.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidPartitioning`] if the partition count is
    /// zero or does not divide the AM's dimensionality.
    pub fn new(am: &BinaryAm, spec: ArraySpec, strategy: MappingStrategy) -> Result<Self> {
        let dim = am.dim();
        let num_vectors = am.num_centroids();
        let p = strategy.partitions();
        if p == 0 {
            return Err(ImcError::InvalidPartitioning {
                dim,
                partitions: p,
                reason: "partition count must be positive".into(),
            });
        }
        if !dim.is_multiple_of(p) {
            return Err(ImcError::InvalidPartitioning {
                dim,
                partitions: p,
                reason: "partition count must divide the dimensionality".into(),
            });
        }
        let seg_len = dim / p;

        let mut matrices = vec![BitMatrix::zeros(num_vectors, seg_len); p];
        for v in 0..num_vectors {
            let row = am.centroid(v);
            for (part, matrix) in matrices.iter_mut().enumerate() {
                matrix
                    .set_row(v, &row.slice(part * seg_len, seg_len))
                    .expect("segment width matches partition matrix");
            }
        }
        let partitions = matrices.into_iter().map(SearchMemory::new).collect();

        Ok(AmMapping {
            spec,
            strategy,
            dim,
            num_vectors,
            classes: am.class_labels().to_vec(),
            seg_len,
            partitions,
        })
    }

    /// The array geometry this mapping targets.
    pub fn spec(&self) -> ArraySpec {
        self.spec
    }

    /// The layout strategy.
    pub fn strategy(&self) -> MappingStrategy {
        self.strategy
    }

    /// Full hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored class vectors `V` (searchable centroids),
    /// independent of the partition layout.
    pub fn num_vectors(&self) -> usize {
        self.num_vectors
    }

    /// Logical AM shape as mapped: `(rows, cols) = (D/P, V·P)` — the
    /// "AM Structure" row of Table II.
    pub fn logical_shape(&self) -> (usize, usize) {
        (self.seg_len, self.num_vectors * self.strategy.partitions())
    }

    /// Static cost metrics (Table II row).
    pub fn stats(&self) -> MappingStats {
        let (rows, cols) = self.logical_shape();
        let grid = tile_grid(rows, cols, self.spec);
        let p = self.strategy.partitions();

        // Cycles: each partition drives every row tile once, activating
        // only the column tiles that contain that partition's columns.
        let row_tiles = grid.row_tiles;
        let mut cycles = 0usize;
        for part in 0..p {
            let first_col = part * self.num_vectors;
            let last_col = (part + 1) * self.num_vectors - 1;
            let first_tile = first_col / self.spec.cols();
            let last_tile = last_col / self.spec.cols();
            cycles += row_tiles * (last_tile - first_tile + 1);
        }

        let capacity = grid.col_tiles * self.spec.cols();
        MappingStats { arrays: grid.tiles(), cycles, utilization: cols as f64 / capacity as f64 }
    }

    /// Executes one associative search on the mapped arrays.
    ///
    /// Functionally identical to [`BinaryAm::search`] on the original
    /// memory — the tiles hold the same bits — while counting tile
    /// activations.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::QueryDimensionMismatch`] if the query length is
    /// not `D`.
    pub fn search(&self, query: &BitVector) -> Result<InferenceStats> {
        if query.len() != self.dim {
            return Err(ImcError::QueryDimensionMismatch {
                expected: self.dim,
                found: query.len(),
            });
        }
        let mut scores = vec![0u32; self.num_vectors];
        for (part, memory) in self.partitions.iter().enumerate() {
            let seg = query.slice(part * self.seg_len, self.seg_len);
            for (v, slot) in scores.iter_mut().enumerate() {
                *slot += memory.row_dot(v, &seg);
            }
        }

        let (best, _) = hd_linalg::argmax_u32(&scores);
        Ok(InferenceStats {
            predicted_row: best,
            predicted_class: self.classes[best],
            cycles: self.stats().cycles,
            scores,
        })
    }

    /// Executes a batched associative search on the mapped arrays: every
    /// query's per-partition segment MVMs run through the shared tiled
    /// popcount kernel, and partial scores accumulate digitally — exactly
    /// `Q` independent copies of [`AmMapping::search`], bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::QueryDimensionMismatch`] if the batch width is
    /// not `D`.
    pub fn search_batch(&self, batch: &QueryBatch) -> Result<BatchInferenceStats> {
        if batch.dim() != self.dim {
            return Err(ImcError::QueryDimensionMismatch {
                expected: self.dim,
                found: batch.dim(),
            });
        }
        let q = batch.len();
        let mut scores = ScoreMatrix::zeros(q, self.num_vectors);
        if self.partitions.len() == 1 {
            // Basic / MEMHD layout: the batch drives the one partition
            // directly — no segment extraction at all.
            self.partitions[0]
                .dot_batch_into(batch, &mut scores)
                .expect("basic layout matches the full query width");
        } else {
            // Partitioned layout: drive every partition with its segment
            // of the batch (zero-copy windows on the word grid, views of
            // one packed buffer off it) and accumulate the partials.
            let seg_batches =
                batch.segments(self.seg_len).expect("mapping width is partitions x seg_len");
            let mut scratch = ScoreMatrix::zeros(0, 0);
            for (part, memory) in self.partitions.iter().enumerate() {
                memory
                    .dot_batch_into(&seg_batches[part], &mut scratch)
                    .expect("segment width matches partition matrix");
                for i in 0..q {
                    let partials = scratch.scores(i);
                    for (dst, &s) in scores.scores_mut(i).iter_mut().zip(partials) {
                        *dst += s;
                    }
                }
            }
        }

        let mut predicted_rows = Vec::with_capacity(q);
        let mut predicted_classes = Vec::with_capacity(q);
        for i in 0..q {
            let (best, _) = scores.argmax(i);
            predicted_rows.push(best);
            predicted_classes.push(self.classes[best]);
        }
        Ok(BatchInferenceStats {
            scores,
            predicted_rows,
            predicted_classes,
            cycles_per_query: self.stats().cycles,
        })
    }

    /// Executes a batched **top-k** associative search on the mapped
    /// arrays: per query, the `min(k, V)` best centroids sorted by score
    /// descending then row ascending — bit-exact against stably sorting
    /// the full [`AmMapping::search_batch`] score row. This is the
    /// mapping's [`LabeledMemory::topk`] sweep with class labels and
    /// cycles attached.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] when `k == 0` and
    /// [`ImcError::QueryDimensionMismatch`] if the batch width is not
    /// `D`.
    pub fn search_batch_topk(&self, batch: &QueryBatch, k: usize) -> Result<TopKBatchStats> {
        self.check_topk(batch, k)?;
        let raw = self.topk(batch, k).expect("k and dimensions validated above");
        let hits = (0..raw.len())
            .map(|i| {
                raw.hits(i)
                    .iter()
                    .map(|&(row, score)| SearchHit { row, class: self.classes[row], score })
                    .collect()
            })
            .collect();
        Ok(TopKBatchStats { hits, cycles_per_query: self.stats().cycles })
    }

    /// Executes a batched **cascade** top-k search on the mapped arrays:
    /// dimension prefixes are driven first, centroid columns that
    /// provably cannot reach a query's k best are gated off (Hamming
    /// bound), and only the survivors see the remaining wordlines. The
    /// lists are bit-exact against [`AmMapping::search_batch_topk`] (at
    /// `k = 1`, the winners of [`AmMapping::search_batch`]); the returned
    /// [`hd_linalg::CascadeStats`] report the activated-dimension count
    /// the paper's Fig. 7 energy ladder is proportional to. Map rows to
    /// classes with [`LabeledMemory::class_of`]; the batch's energy is
    /// [`EnergyModel::scaled_inference_energy_pj`] of
    /// `stats().cycles × queries` at the activation fraction.
    ///
    /// Both layouts cascade. The basic (MEMHD fully-utilized) layout
    /// prunes at arbitrary stage boundaries; a partitioned layout drives
    /// each array once per segment, so stages can only end where
    /// segments do — every interior stage boundary must be a multiple of
    /// the segment length `D / P` (snap a tuned plan with
    /// [`CascadePlan::snapped`]). Pruned centroids carry their shortlist
    /// across partitions: a column gated off after one segment's
    /// activation stays off for every later segment.
    ///
    /// Each call derives the plan's row-suffix table (the logical one of
    /// a partitioned layout) from the programmed bits, so a search after
    /// fault injection or repair prunes against the bits it scores.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] when `k == 0`,
    /// [`ImcError::QueryDimensionMismatch`] if the batch or plan width is
    /// not `D`, and [`ImcError::CascadeStageMisaligned`] when a
    /// partitioned layout gets a plan whose stage boundary misses every
    /// segment boundary.
    pub fn search_batch_cascade(
        &self,
        batch: &QueryBatch,
        plan: &CascadePlan,
        k: usize,
    ) -> Result<CascadeTopK> {
        self.check_topk(batch, k)?;
        if plan.dim() != self.dim {
            return Err(ImcError::QueryDimensionMismatch { expected: self.dim, found: plan.dim() });
        }
        if self.partitions.len() == 1 {
            return Ok(self.partitions[0]
                .search_cascade_topk(batch, plan, k)
                .expect("k and dimensions validated above"));
        }
        for (stage, &end) in plan.ends()[..plan.stages() - 1].iter().enumerate() {
            if !end.is_multiple_of(self.seg_len) {
                return Err(ImcError::CascadeStageMisaligned { stage, end, seg_len: self.seg_len });
            }
        }
        Ok(self.segmented_search(batch, plan, k).expect("layout and plan validated above"))
    }

    /// Rejects `k == 0` and a batch whose width is not `D`.
    fn check_topk(&self, batch: &QueryBatch, k: usize) -> Result<()> {
        if k == 0 {
            return Err(ImcError::InvalidSpec { reason: "top-k search requires k >= 1".into() });
        }
        if batch.dim() != self.dim {
            return Err(ImcError::QueryDimensionMismatch {
                expected: self.dim,
                found: batch.dim(),
            });
        }
        Ok(())
    }

    /// The partitioned layout's one segmented search: `plan` (the exact
    /// one-stage plan for [`LabeledMemory::topk`], which derives nothing)
    /// through a handle derived for this call. Callers must have
    /// validated the plan's stage alignment.
    fn segmented_search(
        &self,
        batch: &QueryBatch,
        plan: &CascadePlan,
        k: usize,
    ) -> hd_linalg::Result<CascadeTopK> {
        SegmentedCascade::new(&self.partitions, plan)?.search_topk(&self.partitions, batch, k)
    }

    /// Auto-tunes a cascade stage plan for this mapping from a sample of
    /// real queries (see [`CascadePlan::tuned`]). For a partitioned
    /// layout the logical memory is reassembled once and tuning runs
    /// directly on the segment-aligned candidate grid
    /// ([`CascadePlan::tuned_aligned`] with `unit = D / P`), so the
    /// returned plan is always valid for
    /// [`AmMapping::search_batch_cascade`] on this mapping **and** the
    /// tuner's exact-fallback guarantee holds: a layout too coarse to
    /// cascade profitably gets the exact one-stage plan back.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::QueryDimensionMismatch`] when the sample
    /// width is not `D` and [`ImcError::InvalidSpec`] for an empty
    /// sample.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, QueryBatch};
    /// use hdc::BinaryAm;
    /// use imc_sim::{AmMapping, ArraySpec, MappingStrategy};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let am = BinaryAm::from_centroids(2, vec![
    ///     (0, BitVector::from_bools(&[true; 256])),
    ///     (1, BitVector::from_bools(&[false; 256])),
    /// ])?;
    /// let mapping = AmMapping::new(
    ///     &am,
    ///     ArraySpec::default(),
    ///     MappingStrategy::Partitioned { partitions: 2 },
    /// )?;
    /// let sample = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 256])])?;
    /// let plan = mapping.tuned_cascade_plan(&sample)?;
    /// let out = mapping.search_batch_cascade(&sample, &plan, 1)?; // always aligned
    /// assert_eq!(out.topk().hits(0)[0].0, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn tuned_cascade_plan(&self, sample: &QueryBatch) -> Result<CascadePlan> {
        if sample.dim() != self.dim {
            return Err(ImcError::QueryDimensionMismatch {
                expected: self.dim,
                found: sample.dim(),
            });
        }
        let tune_on = |memory: &SearchMemory, unit: usize| {
            CascadePlan::tuned_aligned(memory, sample, unit).map_err(|e| ImcError::InvalidSpec {
                reason: format!("cascade plan tuning failed: {e}"),
            })
        };
        if self.partitions.len() == 1 {
            // Basic layout: any word-aligned boundary is legal.
            return tune_on(&self.partitions[0], 64);
        }
        // Reassemble the logical D-bit rows once: tuning is a
        // per-deployment derivation, and replaying candidate plans wants
        // the contiguous layout the tuner's cost model describes.
        let rows: Vec<BitVector> = (0..self.num_vectors)
            .map(|v| self.logical_row(v).expect("every stored vector is in range"))
            .collect();
        let logical = BitMatrix::from_rows(&rows).expect("mappings store at least one vector");
        tune_on(&SearchMemory::new(logical), self.seg_len)
    }

    /// Executes one associative search with per-cycle ADC readout.
    ///
    /// Each tile activation's column sums pass through `adc` before being
    /// accumulated digitally — the physical signal path of an analog IMC
    /// array. Partitioned mappings therefore quantize `P` partial sums per
    /// column (error compounds), while a one-shot MEMHD mapping quantizes
    /// each score exactly once: an architectural advantage of the
    /// fully-utilized layout that [`AmMapping::search`] (ideal readout)
    /// does not show.
    ///
    /// The ADC's full scale should normally be the segment length
    /// (`dim / P`), the largest possible column sum per activation.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::QueryDimensionMismatch`] if the query length is
    /// not `D`.
    pub fn search_with_adc(
        &self,
        query: &BitVector,
        adc: &crate::AdcModel,
    ) -> Result<InferenceStats> {
        if query.len() != self.dim {
            return Err(ImcError::QueryDimensionMismatch {
                expected: self.dim,
                found: query.len(),
            });
        }
        let mut scores = vec![0u32; self.num_vectors];
        for (part, memory) in self.partitions.iter().enumerate() {
            let seg = query.slice(part * self.seg_len, self.seg_len);
            for (v, slot) in scores.iter_mut().enumerate() {
                *slot += adc.quantize(memory.row_dot(v, &seg));
            }
        }
        let (best, _) = hd_linalg::argmax_u32(&scores);
        Ok(InferenceStats {
            predicted_row: best,
            predicted_class: self.classes[best],
            cycles: self.stats().cycles,
            scores,
        })
    }

    /// Visits every programmed cell, allowing the fault-injection layer to
    /// perturb it. Cells are visited in a fixed (column-major by logical
    /// column, then bit) order so fault sampling is reproducible. Each
    /// partition's SIMD-blocked mirror is rebuilt once after its sweep —
    /// and only if the sweep actually flipped a bit.
    pub(crate) fn for_each_cell_mut<F: FnMut(&mut bool)>(&mut self, mut f: F) {
        for memory in &mut self.partitions {
            memory.modify_reporting(|matrix| {
                let mut changed = false;
                for r in 0..matrix.rows() {
                    for c in 0..matrix.cols() {
                        let mut bit = matrix.get(r, c);
                        let before = bit;
                        f(&mut bit);
                        if bit != before {
                            matrix.set(r, c, bit);
                            changed = true;
                        }
                    }
                }
                changed
            });
        }
    }

    /// Reassembles the full `D`-bit logical row for stored vector `v`
    /// from its per-partition segments. This is the programmed (possibly
    /// faulted) content as the search kernels see it — the fault-tolerance
    /// layers diff and repair through this view.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] if `v` is out of range.
    pub fn logical_row(&self, v: usize) -> Result<BitVector> {
        if v >= self.num_vectors {
            return Err(ImcError::InvalidSpec {
                reason: format!("row {v} out of range for {} stored vectors", self.num_vectors),
            });
        }
        if self.partitions.len() == 1 {
            return Ok(self.partitions[0].matrix().row(v));
        }
        Ok(if self.seg_len.is_multiple_of(64) {
            let mut words = Vec::with_capacity(self.dim / 64);
            for memory in &self.partitions {
                words.extend_from_slice(memory.matrix().row(v).as_words());
            }
            BitVector::from_words(self.dim, words).expect("aligned segments concatenate")
        } else {
            let mut bools = vec![false; self.dim];
            for (part, memory) in self.partitions.iter().enumerate() {
                let m = memory.matrix();
                for c in 0..self.seg_len {
                    bools[part * self.seg_len + c] = m.get(v, c);
                }
            }
            BitVector::from_bools(&bools)
        })
    }

    /// Counts the programmed cells whose value differs from `other` — the
    /// *effective* corruption between two mappings of the same model,
    /// regardless of how many perturbation events produced it.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidSpec`] if the mappings' logical shapes
    /// (dimensionality, stored-vector count, or partitioning) differ.
    pub fn diff_cells(&self, other: &AmMapping) -> Result<usize> {
        if self.dim != other.dim
            || self.num_vectors != other.num_vectors
            || self.seg_len != other.seg_len
        {
            return Err(ImcError::InvalidSpec {
                reason: format!(
                    "cannot diff mappings of different shapes: {}x{} (seg {}) vs {}x{} (seg {})",
                    self.num_vectors,
                    self.dim,
                    self.seg_len,
                    other.num_vectors,
                    other.dim,
                    other.seg_len
                ),
            });
        }
        let mut diff = 0usize;
        for (a, b) in self.partitions.iter().zip(&other.partitions) {
            for v in 0..self.num_vectors {
                diff += a.matrix().row(v).hamming(&b.matrix().row(v)) as usize;
            }
        }
        Ok(diff)
    }

    /// Per-partition [`SearchMemory`] handles, in partition order. The
    /// replication layer votes over these matrices word-by-word.
    pub(crate) fn partition_memories(&self) -> &[SearchMemory] {
        &self.partitions
    }

    /// Builds a mapping with this one's metadata (spec, strategy, classes)
    /// but freshly supplied partition matrices — the majority-vote readout
    /// constructs its digital view this way.
    pub(crate) fn clone_with_partition_matrices(&self, matrices: Vec<BitMatrix>) -> Result<Self> {
        if matrices.len() != self.partitions.len() {
            return Err(ImcError::InvalidSpec {
                reason: format!(
                    "expected {} partition matrices, got {}",
                    self.partitions.len(),
                    matrices.len()
                ),
            });
        }
        for m in &matrices {
            if m.shape() != (self.num_vectors, self.seg_len) {
                return Err(ImcError::InvalidSpec {
                    reason: format!(
                        "partition matrix shape {:?} does not match mapping ({}, {})",
                        m.shape(),
                        self.num_vectors,
                        self.seg_len
                    ),
                });
            }
        }
        Ok(AmMapping {
            spec: self.spec,
            strategy: self.strategy,
            dim: self.dim,
            num_vectors: self.num_vectors,
            classes: self.classes.clone(),
            seg_len: self.seg_len,
            partitions: matrices.into_iter().map(SearchMemory::new).collect(),
        })
    }

    /// Reprograms logical row `v` to `bits`, touching only partitions
    /// whose segment actually changed (each rebuilds its SIMD mirror at
    /// most once). Returns the number of cells that flipped.
    pub(crate) fn overwrite_logical_row(&mut self, v: usize, bits: &BitVector) -> usize {
        debug_assert_eq!(bits.len(), self.dim);
        debug_assert!(v < self.num_vectors);
        let mut flipped = 0usize;
        for (part, memory) in self.partitions.iter_mut().enumerate() {
            let segment = bits.slice(part * self.seg_len, self.seg_len);
            let distance = memory.matrix().row(v).hamming(&segment) as usize;
            if distance == 0 {
                continue;
            }
            flipped += distance;
            memory.modify_reporting(|matrix| {
                matrix.set_row(v, &segment).expect("segment width matches partition matrix");
                true
            });
        }
        flipped
    }

    /// Energy of one inference under `model` (Fig. 7's y-axis before
    /// normalization).
    pub fn inference_energy_pj(&self, model: &EnergyModel) -> f64 {
        model.inference_energy_pj(self.stats().cycles)
    }

    /// One-time programming energy for all mapped cells.
    pub fn program_energy_pj(&self, model: &EnergyModel) -> f64 {
        let (rows, cols) = self.logical_shape();
        model.program_energy_pj(rows * cols)
    }
}

/// The mapped arrays as a labelled memory: one fused k-best sweep, with
/// no `Q × V` score matrix. The basic layout sweeps its one partition;
/// a partitioned layout runs the exact one-stage plan through the
/// segmented search [`AmMapping::search_batch_cascade`] uses, which sums
/// the partitions' lane counts per row block before selecting.
impl LabeledMemory for AmMapping {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.num_vectors
    }

    fn class_of(&self, row: usize) -> usize {
        self.classes[row]
    }

    fn topk(&self, batch: &QueryBatch, k: usize) -> hd_linalg::Result<TopK> {
        if self.partitions.len() == 1 {
            return self.partitions[0].topk_batch(batch, k);
        }
        self.segmented_search(batch, &CascadePlan::exact(self.dim), k).map(CascadeTopK::into_topk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::seeded;
    use rand::Rng;

    fn random_am(num_classes: usize, per_class: usize, dim: usize, seed: u64) -> BinaryAm {
        let mut rng = seeded(seed);
        let centroids: Vec<(usize, BitVector)> = (0..num_classes)
            .flat_map(|c| {
                (0..per_class)
                    .map(|_| {
                        let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                        (c, BitVector::from_bools(&bits))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        BinaryAm::from_centroids(num_classes, centroids).unwrap()
    }

    fn random_query(dim: usize, seed: u64) -> BitVector {
        let mut rng = seeded(seed);
        let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
        BitVector::from_bools(&bits)
    }

    #[test]
    fn basic_mapping_is_bit_exact() {
        let am = random_am(4, 3, 300, 1);
        let mapping = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        for s in 0..5 {
            let q = random_query(300, 100 + s);
            let hw = mapping.search(&q).unwrap();
            let sw = am.scores(&q).unwrap();
            assert_eq!(hw.scores, sw);
            assert_eq!(hw.predicted_class, am.search(&q).unwrap().class);
        }
    }

    #[test]
    fn partitioned_mapping_is_bit_exact() {
        let am = random_am(3, 2, 320, 2);
        for p in [2usize, 4, 5, 8] {
            let mapping = AmMapping::new(
                &am,
                ArraySpec::default(),
                MappingStrategy::Partitioned { partitions: p },
            )
            .unwrap();
            let q = random_query(320, 50 + p as u64);
            let hw = mapping.search(&q).unwrap();
            assert_eq!(hw.scores, am.scores(&q).unwrap(), "P={p}");
        }
    }

    #[test]
    fn topk_matches_sorted_scores_across_layouts() {
        let am = random_am(3, 2, 320, 9);
        let queries: Vec<BitVector> = (0..7).map(|s| random_query(320, 900 + s)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let strategies = [
            MappingStrategy::Basic,
            MappingStrategy::Partitioned { partitions: 2 },
            MappingStrategy::Partitioned { partitions: 5 },
        ];
        for strategy in strategies {
            let mapping = AmMapping::new(&am, ArraySpec::default(), strategy).unwrap();
            for k in [1usize, 3, 6, 9] {
                let topk = mapping.search_batch_topk(&batch, k).unwrap();
                assert_eq!(topk.len(), queries.len(), "{strategy:?} k {k}");
                // Top-k reads the same tiles an argmax sweep does.
                assert_eq!(topk.cycles_per_query, mapping.stats().cycles);
                assert_eq!(topk.total_cycles(), mapping.stats().cycles * queries.len());
                for (q, query) in queries.iter().enumerate() {
                    let mut rows: Vec<(usize, u32)> =
                        am.scores(query).unwrap().into_iter().enumerate().collect();
                    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    rows.truncate(k.min(am.num_centroids()));
                    let got: Vec<(usize, u32)> =
                        topk.hits[q].iter().map(|h| (h.row, h.score)).collect();
                    assert_eq!(got, rows, "{strategy:?} query {q} k {k}");
                    for hit in &topk.hits[q] {
                        assert_eq!(hit.class, am.class_of(hit.row), "{strategy:?}");
                    }
                }
            }
            assert!(mapping.search_batch_topk(&batch, 0).is_err());
            let skinny = QueryBatch::from_vectors(&[random_query(64, 77)]).unwrap();
            assert!(mapping.search_batch_topk(&skinny, 2).is_err());
        }
    }

    #[test]
    fn unaligned_partitioned_batches_are_bit_exact() {
        // seg_len = 300 / 3 = 100 (off the word grid): every search packs
        // the batch's segments through QueryBatch::segments, and repeated
        // searches of the same batch stay bit-identical to the basic
        // layout and to each other.
        let am = random_am(4, 2, 300, 11);
        let basic = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        let part = AmMapping::new(
            &am,
            ArraySpec::default(),
            MappingStrategy::Partitioned { partitions: 3 },
        )
        .unwrap();
        let queries: Vec<BitVector> = (0..9).map(|s| random_query(300, 700 + s)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();

        let reference = basic.search_batch(&batch).unwrap();
        let first = part.search_batch(&batch).unwrap();
        assert_eq!(first.scores, reference.scores);
        assert_eq!(first.predicted_classes, reference.predicted_classes);
        // A repeat call packs the same segments again.
        let second = part.search_batch(&batch).unwrap();
        assert_eq!(second.scores, first.scores);
        assert_eq!(second.predicted_classes, first.predicted_classes);

        let topk_ref = basic.search_batch_topk(&batch, 3).unwrap();
        for _ in 0..2 {
            let topk = part.search_batch_topk(&batch, 3).unwrap();
            assert_eq!(topk.hits, topk_ref.hits);
        }

        let plan = CascadePlan::from_widths(300, &[100, 200]).unwrap();
        for _ in 0..2 {
            let cascade = part.search_batch_cascade(&batch, &plan, 1).unwrap();
            assert_eq!(winners(&cascade), reference.predicted_rows);
            assert_eq!(classes(&part, &cascade), reference.predicted_classes);
        }
    }

    #[test]
    fn clone_then_fault_and_repair_keeps_each_mapping_exact() {
        // Off the word grid (seg_len 100). After the original takes
        // faults and repairs, each mapping's cascade and top-k must agree
        // with its own exact search, not with the other's bits.
        let am = random_am(4, 3, 300, 41);
        let strategy = MappingStrategy::Partitioned { partitions: 3 };
        let mut original = AmMapping::new(&am, ArraySpec::default(), strategy).unwrap();
        let batch = random_batch(10, 300, 1000);
        let plans = [
            CascadePlan::from_widths(300, &[100, 200]).unwrap(),
            CascadePlan::uniform(300, 3).unwrap(),
        ];
        let check = |mapping: &AmMapping, label: &str| {
            let scores = mapping.search_batch(&batch).unwrap().scores;
            for k in [1usize, 3] {
                let want: Vec<Vec<(usize, u32)>> = (0..batch.len())
                    .map(|q| {
                        let mut rows: Vec<(usize, u32)> =
                            scores.scores(q).iter().copied().enumerate().collect();
                        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        rows.truncate(k);
                        rows
                    })
                    .collect();
                let topk = mapping.topk(&batch, k).unwrap();
                let cascades: Vec<CascadeTopK> = (plans.iter())
                    .map(|plan| mapping.search_batch_cascade(&batch, plan, k).unwrap())
                    .collect();
                for (q, want) in want.iter().enumerate() {
                    assert_eq!(topk.hits(q), want.as_slice(), "{label}: topk k {k} q {q}");
                    for (plan, out) in plans.iter().zip(&cascades) {
                        assert_eq!(out.topk().hits(q), want.as_slice(), "{label}: {plan:?} k {k}");
                    }
                }
            }
        };
        check(&original, "original");
        let clone = original.clone();
        let mut rng = seeded(42);
        original.for_each_cell_mut(|bit| {
            if rng.gen::<f32>() < 0.1 {
                *bit = !*bit;
            }
        });
        assert!(original.diff_cells(&clone).unwrap() > 0);
        check(&original, "faulted");
        check(&clone, "clone of the faulted");
        for v in [0usize, 5] {
            original.overwrite_logical_row(v, &clone.logical_row(v).unwrap());
        }
        check(&original, "repaired");
        check(&clone, "clone of the repaired");
    }

    #[test]
    fn table2_mnist_basic() {
        // BasicHDC on MNIST: AM 10240 × 10 over 128×128 arrays.
        let am = random_am(10, 1, 10240, 3);
        let m = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        let s = m.stats();
        assert_eq!(m.logical_shape(), (10240, 10));
        assert_eq!(s.arrays, 80);
        assert_eq!(s.cycles, 80);
        assert!((s.utilization - 10.0 / 128.0).abs() < 1e-9); // 7.81%
    }

    #[test]
    fn table2_mnist_partitioned() {
        let am = random_am(10, 1, 10240, 4);
        // P=5 -> 2048 × 50: 16 arrays, still 80 cycles, 39.06% util.
        let m5 = AmMapping::new(
            &am,
            ArraySpec::default(),
            MappingStrategy::Partitioned { partitions: 5 },
        )
        .unwrap();
        assert_eq!(m5.logical_shape(), (2048, 50));
        let s5 = m5.stats();
        assert_eq!(s5.arrays, 16);
        assert_eq!(s5.cycles, 80);
        assert!((s5.utilization - 50.0 / 128.0).abs() < 1e-9);
        // P=10 -> 1024 × 100: 8 arrays, 80 cycles, 78.13% util.
        let m10 = AmMapping::new(
            &am,
            ArraySpec::default(),
            MappingStrategy::Partitioned { partitions: 10 },
        )
        .unwrap();
        let s10 = m10.stats();
        assert_eq!(s10.arrays, 8);
        assert_eq!(s10.cycles, 80);
        assert!((s10.utilization - 100.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn table2_memhd_one_shot() {
        // MEMHD 128×128: exactly one array, one cycle, 100% utilization.
        let am = random_am(10, 12, 128, 5); // 120 centroids
                                            // Pad to exactly 128 columns with 8 more of class 9.
        let mut centroids: Vec<(usize, BitVector)> =
            (0..am.num_centroids()).map(|r| (am.class_of(r), am.centroid(r))).collect();
        let mut rng = seeded(9);
        for _ in 0..8 {
            let bits: Vec<bool> = (0..128).map(|_| rng.gen()).collect();
            centroids.push((9, BitVector::from_bools(&bits)));
        }
        let am = BinaryAm::from_centroids(10, centroids).unwrap();
        let m = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        let s = m.stats();
        assert_eq!(s.arrays, 1);
        assert_eq!(s.cycles, 1);
        assert!((s.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table2_isolet_shapes() {
        let spec = ArraySpec::default();
        // Basic: 10240 × 26 -> 80 arrays... (80 row tiles × 1 col tile)
        let am = random_am(26, 1, 10240, 6);
        let s = AmMapping::new(&am, spec, MappingStrategy::Basic).unwrap().stats();
        assert_eq!(s.arrays, 80);
        assert_eq!(s.cycles, 80);
        assert!((s.utilization - 26.0 / 128.0).abs() < 1e-9); // 20.31%

        // P=2: 5120 × 52 -> 40 arrays, 80 cycles, 40.63%.
        let s2 = AmMapping::new(&am, spec, MappingStrategy::Partitioned { partitions: 2 })
            .unwrap()
            .stats();
        assert_eq!(s2.arrays, 40);
        assert_eq!(s2.cycles, 80);
        assert!((s2.utilization - 52.0 / 128.0).abs() < 1e-9);

        // P=4: 2560 × 104 -> 20 arrays, 80 cycles, 81.25%.
        let s4 = AmMapping::new(&am, spec, MappingStrategy::Partitioned { partitions: 4 })
            .unwrap()
            .stats();
        assert_eq!(s4.arrays, 20);
        assert_eq!(s4.cycles, 80);
        assert!((s4.utilization - 104.0 / 128.0).abs() < 1e-9);

        // MEMHD 512 × 128: 4 arrays, 4 cycles, 100%.
        let memhd_am = random_am(26, 4, 512, 7); // 104 centroids < 128...
        let mut centroids: Vec<(usize, BitVector)> = (0..memhd_am.num_centroids())
            .map(|r| (memhd_am.class_of(r), memhd_am.centroid(r)))
            .collect();
        let mut rng = seeded(11);
        while centroids.len() < 128 {
            let bits: Vec<bool> = (0..512).map(|_| rng.gen()).collect();
            centroids.push((25, BitVector::from_bools(&bits)));
        }
        let memhd_am = BinaryAm::from_centroids(26, centroids).unwrap();
        let sm = AmMapping::new(&memhd_am, spec, MappingStrategy::Basic).unwrap().stats();
        assert_eq!(sm.arrays, 4);
        assert_eq!(sm.cycles, 4);
        assert!((sm.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lossless_adc_matches_ideal_search() {
        let am = random_am(3, 2, 256, 12);
        let spec = ArraySpec::default();
        for strategy in [MappingStrategy::Basic, MappingStrategy::Partitioned { partitions: 2 }] {
            let m = AmMapping::new(&am, spec, strategy).unwrap();
            let seg_len = m.logical_shape().0;
            let adc = crate::AdcModel::lossless(seg_len as u32).unwrap();
            let q = random_query(256, 77);
            assert_eq!(
                m.search_with_adc(&q, &adc).unwrap().scores,
                m.search(&q).unwrap().scores,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn coarse_adc_compresses_scores() {
        let am = random_am(2, 2, 128, 13);
        let m = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        let adc = crate::AdcModel::new(2, 128).unwrap(); // 4 codes, step 33
        let q = random_query(128, 14);
        let out = m.search_with_adc(&q, &adc).unwrap();
        assert!(out.scores.iter().all(|&s| s % 33 == 0), "scores {:?}", out.scores);
    }

    #[test]
    fn partitioned_adc_error_compounds() {
        // With a coarse ADC, a partitioned mapping accumulates P quantized
        // partials, so its digitized scores can only be >= the one-shot
        // digitization in count of ADC applications; verify they diverge
        // from the ideal scores at least as much as the one-shot mapping's.
        let am = random_am(2, 2, 512, 15);
        let spec = ArraySpec::new(512, 16).unwrap();
        let adc = crate::AdcModel::new(3, 512).unwrap();
        let basic = AmMapping::new(&am, spec, MappingStrategy::Basic).unwrap();
        let part =
            AmMapping::new(&am, spec, MappingStrategy::Partitioned { partitions: 8 }).unwrap();
        // Both run; scores differ in scale (one-shot codes vs summed
        // partial codes) but both stay argmax-comparable structures.
        let q = random_query(512, 16);
        let adc_part = crate::AdcModel::new(3, 64).unwrap(); // per-segment scale
        assert_eq!(basic.search_with_adc(&q, &adc).unwrap().scores.len(), 4);
        assert_eq!(part.search_with_adc(&q, &adc_part).unwrap().scores.len(), 4);
    }

    fn random_batch(n: usize, dim: usize, seed: u64) -> QueryBatch {
        let queries: Vec<BitVector> = (0..n).map(|i| random_query(dim, seed + i as u64)).collect();
        QueryBatch::from_vectors(&queries).unwrap()
    }

    /// Each query's top-1 row of a cascade result.
    fn winners(out: &CascadeTopK) -> Vec<usize> {
        (0..out.topk().len()).map(|q| out.topk().hits(q)[0].0).collect()
    }

    /// Classes of each query's top-1 row.
    fn classes(mapping: &AmMapping, out: &CascadeTopK) -> Vec<usize> {
        winners(out).into_iter().map(|row| mapping.class_of(row)).collect()
    }

    /// Whole-batch energy of a cascade: the exact batch energy scaled by
    /// the activated fraction.
    fn cascade_energy(mapping: &AmMapping, out: &CascadeTopK, model: &EnergyModel) -> f64 {
        let cycles = mapping.stats().cycles * out.topk().len();
        model.scaled_inference_energy_pj(cycles, out.stats().activation_fraction())
    }

    #[test]
    fn cascade_predictions_bit_exact_and_full_activation_without_pruning() {
        let am = random_am(4, 3, 256, 31);
        let m = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        let batch = random_batch(9, 256, 400);
        let exact = m.search_batch(&batch).unwrap();
        // One-stage plan: pruning cannot fire, so the activated-dimension
        // telemetry must sum to exactly the exact search's dimension
        // count — queries × centroids × D.
        let out = m.search_batch_cascade(&batch, &CascadePlan::exact(256), 1).unwrap();
        let stats = out.stats();
        assert_eq!(winners(&out), exact.predicted_rows);
        assert_eq!(classes(&m, &out), exact.predicted_classes);
        assert_eq!(stats.activated_dims(), stats.exact_dims());
        assert_eq!(stats.exact_dims(), 9 * 12 * 256);
        assert!((stats.activation_fraction() - 1.0).abs() < 1e-12);
        let equivalent_cycles = (m.stats().cycles * 9) as f64 * stats.activation_fraction();
        assert!(
            (equivalent_cycles - exact.total_cycles() as f64).abs() < 1e-9,
            "exact-plan cascade must recover the exact cycle count"
        );
        // Multi-stage plans stay bit-exact regardless of whether pruning
        // fires.
        for plan in [CascadePlan::prefix(256, 64).unwrap(), CascadePlan::uniform(256, 4).unwrap()] {
            let s = m.search_batch_cascade(&batch, &plan, 1).unwrap();
            assert_eq!(winners(&s), exact.predicted_rows, "{plan:?}");
            assert!(s.stats().activated_dims() <= s.stats().exact_dims(), "{plan:?}");
        }
    }

    #[test]
    fn cascade_telemetry_strictly_decreases_when_pruning_fires() {
        // Separable memory: each query is a stored centroid, the other
        // centroids are sparse — the Hamming bound prunes them after the
        // first stage, so activation must drop strictly below exact.
        let dim = 512;
        let mut rng = seeded(32);
        let hot: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
        let mut centroids = vec![(0usize, BitVector::from_bools(&hot))];
        for c in 1..8 {
            let sparse: Vec<bool> = (0..dim).map(|_| rng.gen::<f32>() < 0.05).collect();
            centroids.push((c % 3, BitVector::from_bools(&sparse)));
        }
        let am = BinaryAm::from_centroids(3, centroids).unwrap();
        let m = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&hot)]).unwrap();
        let plan = CascadePlan::prefix(dim, 128).unwrap();
        let out = m.search_batch_cascade(&batch, &plan, 1).unwrap();
        let stats = out.stats();
        assert_eq!(winners(&out), vec![0]);
        assert!(
            stats.activated_dims() < stats.exact_dims(),
            "pruning must strictly reduce activation: {} vs {}",
            stats.activated_dims(),
            stats.exact_dims()
        );
        assert!(stats.activation_fraction() < 1.0);
        let exact_cycles = m.stats().cycles * batch.len();
        assert!((exact_cycles as f64 * stats.activation_fraction()) < exact_cycles as f64);
        // Energy scales with the activated fraction.
        let model = EnergyModel::default();
        let exact_energy = model.inference_energy_pj(exact_cycles);
        let cascade_energy = cascade_energy(&m, &out, &model);
        assert!(cascade_energy < exact_energy);
        assert!(
            (cascade_energy / exact_energy - stats.activation_fraction()).abs() < 1e-12,
            "energy ratio must equal the activation fraction"
        );
    }

    #[test]
    fn cascade_rejects_bad_dims() {
        let am = random_am(2, 2, 256, 33);
        let batch = random_batch(2, 256, 500);
        let basic = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        assert!(matches!(
            basic.search_batch_cascade(&batch, &CascadePlan::exact(128), 1),
            Err(ImcError::QueryDimensionMismatch { expected: 256, found: 128 })
        ));
        let bad_batch = random_batch(2, 128, 501);
        assert!(matches!(
            basic.search_batch_cascade(&bad_batch, &CascadePlan::exact(256), 1),
            Err(ImcError::QueryDimensionMismatch { expected: 256, found: 128 })
        ));
        assert!(matches!(
            basic.search_batch_cascade(&batch, &CascadePlan::exact(256), 0),
            Err(ImcError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn partitioned_cascade_matches_exact_batched_search() {
        let am = random_am(3, 4, 320, 34);
        let batch = random_batch(11, 320, 600);
        for p in [2usize, 4, 5] {
            let mapping = AmMapping::new(
                &am,
                ArraySpec::default(),
                MappingStrategy::Partitioned { partitions: p },
            )
            .unwrap();
            let exact = mapping.search_batch(&batch).unwrap();
            let seg = 320 / p;
            let mut plans = vec![CascadePlan::exact(320), CascadePlan::prefix(320, seg).unwrap()];
            if p > 2 {
                plans.push(CascadePlan::from_widths(320, &[seg, seg, 320 - 2 * seg]).unwrap());
            }
            for plan in plans {
                let out = mapping.search_batch_cascade(&batch, &plan, 1).unwrap();
                let stats = out.stats();
                assert_eq!(winners(&out), exact.predicted_rows, "P={p} {plan:?}");
                assert_eq!(classes(&mapping, &out), exact.predicted_classes, "P={p} {plan:?}");
                assert!(stats.activated_dims() <= stats.exact_dims(), "P={p} {plan:?}");
                if plan.stages() == 1 {
                    assert!((stats.activation_fraction() - 1.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn partitioned_cascade_topk_matches_stably_sorted_scores() {
        // Rows 0 and 1 tie on every query across the seam of segments 0
        // and 1: row 1 is row 0 with bit 63 moved to bit 64, and every
        // query sets both bits, so equal totals come from different
        // per-segment partials. Row 2 duplicates row 3, and the sparse
        // rows let the multi-stage plan prune.
        let dim = 256;
        let mut rng = seeded(38);
        let mut random_row =
            |density: f32| -> Vec<bool> { (0..dim).map(|_| rng.gen::<f32>() < density).collect() };
        let mut seam = random_row(0.5);
        seam[63] = true;
        seam[64] = false;
        let mut moved = seam.clone();
        moved[63] = false;
        moved[64] = true;
        let dup = random_row(0.5);
        let mut rows = vec![seam, moved, dup.clone(), dup];
        rows.extend((0..3).map(|_| random_row(0.5)));
        rows.extend((0..4).map(|_| random_row(0.05)));
        let v = rows.len();
        let centroids: Vec<(usize, BitVector)> =
            rows.iter().enumerate().map(|(i, r)| (i % 3, BitVector::from_bools(r))).collect();
        let am = BinaryAm::from_centroids(3, centroids).unwrap();
        let queries: Vec<BitVector> = (0..13)
            .map(|i| {
                let mut q = if i % 4 == 0 { rows[0].clone() } else { random_row(0.5) };
                q[63] = true;
                q[64] = true;
                BitVector::from_bools(&q)
            })
            .collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let mapping = AmMapping::new(
            &am,
            ArraySpec::default(),
            MappingStrategy::Partitioned { partitions: 4 },
        )
        .unwrap();
        let scores = mapping.search_batch(&batch).unwrap().scores;
        let snapped = CascadePlan::from_widths(dim, &[40, 90, 126]).unwrap().snapped(64).unwrap();
        assert_eq!(snapped.ends(), &[64, 128, 256]);
        for plan in [CascadePlan::exact(dim), snapped] {
            for k in [1usize, 3, v] {
                // Twice: each call derives its own handle.
                for _ in 0..2 {
                    let out = mapping.search_batch_cascade(&batch, &plan, k).unwrap();
                    for q in 0..batch.len() {
                        let mut want: Vec<(usize, u32)> =
                            scores.scores(q).iter().copied().enumerate().collect();
                        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        want.truncate(k);
                        assert_eq!(out.topk().hits(q), want.as_slice(), "{plan:?} k {k} q {q}");
                    }
                }
            }
        }
        // The seam tie is real: rows 0 and 1 score equally on every query.
        for q in 0..batch.len() {
            assert_eq!(scores.scores(q)[0], scores.scores(q)[1], "query {q}");
        }
    }

    #[test]
    fn partitioned_cascade_misaligned_plan_is_a_precise_error() {
        let am = random_am(2, 2, 256, 35);
        let mapping = AmMapping::new(
            &am,
            ArraySpec::default(),
            MappingStrategy::Partitioned { partitions: 4 },
        )
        .unwrap();
        let batch = random_batch(2, 256, 700);
        // Stage 0 ends at 100, between the segment boundaries 64 and 128.
        let misaligned = CascadePlan::prefix(256, 100).unwrap();
        let err = mapping.search_batch_cascade(&batch, &misaligned, 1).unwrap_err();
        assert_eq!(
            err,
            ImcError::CascadeStageMisaligned { stage: 0, end: 100, seg_len: 64 },
            "misalignment must name the offending stage"
        );
        assert!(err.to_string().contains("snapped(64)"));
        // A later misaligned stage is reported at its own index.
        let late = CascadePlan::from_widths(256, &[64, 70, 122]).unwrap();
        assert!(matches!(
            mapping.search_batch_cascade(&batch, &late, 1),
            Err(ImcError::CascadeStageMisaligned { stage: 1, end: 134, seg_len: 64 })
        ));
        // Snapping repairs the plan.
        let snapped = misaligned.snapped(64).unwrap();
        let out = mapping.search_batch_cascade(&batch, &snapped, 1).unwrap();
        assert_eq!(winners(&out), mapping.search_batch(&batch).unwrap().predicted_rows);
    }

    #[test]
    fn partitioned_cascade_pruning_reduces_activation_and_energy() {
        // The separable workload of the basic-layout telemetry test, on
        // a partitioned mapping: per-partition shortlist carry-over must
        // still cut activation strictly below exact.
        let dim = 512;
        let mut rng = seeded(36);
        let hot: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
        let mut centroids = vec![(0usize, BitVector::from_bools(&hot))];
        for c in 1..8 {
            let sparse: Vec<bool> = (0..dim).map(|_| rng.gen::<f32>() < 0.05).collect();
            centroids.push((c % 3, BitVector::from_bools(&sparse)));
        }
        let am = BinaryAm::from_centroids(3, centroids).unwrap();
        let mapping = AmMapping::new(
            &am,
            ArraySpec::default(),
            MappingStrategy::Partitioned { partitions: 4 },
        )
        .unwrap();
        let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&hot)]).unwrap();
        let plan = CascadePlan::prefix(dim, 128).unwrap(); // one segment
        let out = mapping.search_batch_cascade(&batch, &plan, 1).unwrap();
        let stats = out.stats();
        assert_eq!(winners(&out), vec![0]);
        assert!(stats.activated_dims() < stats.exact_dims());
        assert!(stats.activation_fraction() < 1.0);
        let model = EnergyModel::default();
        let exact_energy = model.inference_energy_pj(mapping.stats().cycles * batch.len());
        assert!(cascade_energy(&mapping, &out, &model) < exact_energy);
    }

    #[test]
    fn tuned_plan_is_always_segment_aligned() {
        let mut rng = seeded(37);
        let dim = 2048;
        // Imbalanced AM so the tuner actually cascades.
        let mut centroids =
            vec![(0usize, BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))];
        for c in 1..10 {
            centroids.push((
                c,
                BitVector::from_bools(
                    &(0..dim).map(|_| rng.gen::<f32>() < 0.02).collect::<Vec<_>>(),
                ),
            ));
        }
        let rows: Vec<BitVector> = centroids.iter().map(|(_, b)| b.clone()).collect();
        let am = BinaryAm::from_centroids(10, centroids).unwrap();
        let queries: Vec<BitVector> = (0..64)
            .map(|i| {
                let mut q = rows[if i % 32 == 0 { 1 + i % 9 } else { 0 }].clone();
                for _ in 0..dim / 20 {
                    let bit = rng.gen_range(0..dim);
                    q.set(bit, !q.get(bit));
                }
                q
            })
            .collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for p in [1usize, 4, 8] {
            let strategy = if p == 1 {
                MappingStrategy::Basic
            } else {
                MappingStrategy::Partitioned { partitions: p }
            };
            let mapping = AmMapping::new(&am, ArraySpec::default(), strategy).unwrap();
            let plan = mapping.tuned_cascade_plan(&batch).unwrap();
            assert_eq!(plan.dim(), dim);
            if p > 1 {
                let seg = dim / p;
                for &e in &plan.ends()[..plan.stages() - 1] {
                    assert!(e.is_multiple_of(seg), "P={p}: boundary {e} off segment grid");
                }
            } else {
                assert!(plan.stages() > 1, "basic tuned plan should cascade here: {plan:?}");
            }
            // And the tuned plan runs, bit-exactly.
            let out = mapping.search_batch_cascade(&batch, &plan, 1).unwrap();
            assert_eq!(winners(&out), mapping.search_batch(&batch).unwrap().predicted_rows);
        }
        let wrong = random_batch(2, 128, 900);
        let basic = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        assert!(matches!(
            basic.tuned_cascade_plan(&wrong),
            Err(ImcError::QueryDimensionMismatch { .. })
        ));
    }

    #[test]
    fn partition_must_divide_dim() {
        let am = random_am(2, 1, 100, 8);
        assert!(matches!(
            AmMapping::new(
                &am,
                ArraySpec::default(),
                MappingStrategy::Partitioned { partitions: 3 }
            ),
            Err(ImcError::InvalidPartitioning { .. })
        ));
    }

    #[test]
    fn query_dimension_checked() {
        let am = random_am(2, 1, 64, 9);
        let m = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
        assert!(matches!(
            m.search(&BitVector::zeros(65)),
            Err(ImcError::QueryDimensionMismatch { expected: 64, found: 65 })
        ));
    }

    #[test]
    fn partitioning_saves_arrays_not_cycles() {
        // The paper's core observation about partitioning (Fig. 1b).
        let am = random_am(10, 1, 1024, 10);
        let spec = ArraySpec::default();
        let basic = AmMapping::new(&am, spec, MappingStrategy::Basic).unwrap().stats();
        let part = AmMapping::new(&am, spec, MappingStrategy::Partitioned { partitions: 4 })
            .unwrap()
            .stats();
        assert!(part.arrays < basic.arrays);
        assert_eq!(part.cycles, basic.cycles);
        assert!(part.utilization > basic.utilization);
    }
}
