//! Associative memory (AM) structures (paper §II-A, §II-D).
//!
//! An associative memory stores class vectors and answers queries by
//! similarity. Both the floating-point training AM and the 1-bit quantized
//! inference AM support **multi-centroid** layouts: each stored vector (one
//! IMC column in the paper's mapping; one row here) is tagged with the
//! class it represents and a sub-label distinguishing centroids of the same
//! class. A traditional single-vector-per-class HDC model is simply the
//! special case of one centroid per class.

use crate::error::{HdcError, Result};
use hd_linalg::{
    BitMatrix, BitVector, LabeledMemory, Matrix, QueryBatch, ScoreMatrix, SearchMemory, TopK,
};

/// Identifies one centroid: the class it belongs to plus a per-class
/// sub-label (paper notation: class index `j`, sub-label `i` in Eq. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CentroidId {
    /// Class label.
    pub class: usize,
    /// Sub-label within the class (0-based).
    pub sub: usize,
}

impl std::fmt::Display for CentroidId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class {} / centroid {}", self.class, self.sub)
    }
}

/// Floating-point associative memory — the training-time "shadow" AM.
///
/// Rows are centroids; `class_of(row)` maps a row back to its class. MEMHD
/// keeps this FP AM alongside the binary AM during quantization-aware
/// iterative learning (§III-C): vector updates land here, and the binary AM
/// is refreshed by re-binarizing.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatAm {
    vectors: Matrix,
    classes: Vec<usize>,
    num_classes: usize,
}

impl FloatAm {
    /// Builds an AM from per-centroid `(class, vector)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidTrainingSet`] if `centroids` is empty or
    /// vectors have inconsistent dimensionality, and
    /// [`HdcError::UnknownClass`] if a class label is `>= num_classes`.
    pub fn from_centroids(num_classes: usize, centroids: Vec<(usize, Vec<f32>)>) -> Result<Self> {
        if centroids.is_empty() {
            return Err(HdcError::InvalidTrainingSet { reason: "no centroids supplied".into() });
        }
        let dim = centroids[0].1.len();
        let mut classes = Vec::with_capacity(centroids.len());
        let mut flat = Vec::with_capacity(centroids.len() * dim);
        for (class, v) in &centroids {
            if *class >= num_classes {
                return Err(HdcError::UnknownClass { class: *class, num_classes });
            }
            if v.len() != dim {
                return Err(HdcError::DimensionMismatch { expected: dim, found: v.len() });
            }
            classes.push(*class);
            flat.extend_from_slice(v);
        }
        Ok(FloatAm { vectors: Matrix::from_vec(centroids.len(), dim, flat)?, classes, num_classes })
    }

    /// Creates a zeroed AM with exactly one centroid per class — the
    /// traditional single-centroid HDC layout.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or `dim == 0`.
    pub fn zeroed_single_centroid(num_classes: usize, dim: usize) -> Self {
        assert!(num_classes > 0 && dim > 0, "num_classes and dim must be positive");
        FloatAm {
            vectors: Matrix::zeros(num_classes, dim),
            classes: (0..num_classes).collect(),
            num_classes,
        }
    }

    /// Number of stored centroids (`C` in the paper: IMC columns in use).
    pub fn num_centroids(&self) -> usize {
        self.classes.len()
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// Class owning centroid row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_centroids()`.
    pub fn class_of(&self, row: usize) -> usize {
        self.classes[row]
    }

    /// The [`CentroidId`] of a row (class plus sub-label position).
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_centroids()`.
    pub fn id_of(&self, row: usize) -> CentroidId {
        let class = self.classes[row];
        let sub = self.classes[..row].iter().filter(|&&c| c == class).count();
        CentroidId { class, sub }
    }

    /// Row indices of all centroids belonging to `class`.
    pub fn rows_of_class(&self, class: usize) -> Vec<usize> {
        self.classes.iter().enumerate().filter_map(|(i, &c)| (c == class).then_some(i)).collect()
    }

    /// Borrows centroid row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_centroids()`.
    pub fn centroid(&self, row: usize) -> &[f32] {
        self.vectors.row(row)
    }

    /// Applies the iterative-learning update `C_row ← C_row + alpha·h`
    /// (Eqs. 2 and 6; pass a negative `alpha` for the subtractive side).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `h.len() != dim()`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_centroids()`.
    pub fn update(&mut self, row: usize, alpha: f32, h: &[f32]) -> Result<()> {
        if h.len() != self.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), found: h.len() });
        }
        self.vectors.add_scaled_row(row, alpha, h)?;
        Ok(())
    }

    /// Normalizes every centroid to unit L2 norm (§III-C-4).
    ///
    /// This keeps learning influence evenly distributed across the multiple
    /// class vectors of one class, preventing any single centroid from
    /// dominating its siblings.
    pub fn normalize(&mut self) {
        for r in 0..self.vectors.rows() {
            hd_linalg::normalize_l2(self.vectors.row_mut(r));
        }
    }

    /// Centers every centroid (subtracts its own mean) and then normalizes
    /// it to unit L2 norm — the full §III-C-4 normalization.
    ///
    /// Centering matters for the binary associative search: after 1-bit
    /// quantization, a centroid's dot similarity grows with its popcount,
    /// so heterogeneous row means would let ones-heavy centroids dominate
    /// every query regardless of signal. Centering gives every centroid an
    /// approximately balanced bit pattern, which is what keeps "any single
    /// vector from dominating" (paper §III-C-4).
    pub fn center_and_normalize(&mut self) {
        for r in 0..self.vectors.rows() {
            let row = self.vectors.row_mut(r);
            let mean = hd_linalg::mean(row);
            for v in row.iter_mut() {
                *v -= mean;
            }
            hd_linalg::normalize_l2(row);
        }
    }

    /// Mean of all AM values — the 1-bit quantization threshold `µ`
    /// (§III-B).
    pub fn mean(&self) -> f32 {
        self.vectors.mean().unwrap_or(0.0)
    }

    /// 1-bit quantization at the AM-wide mean (§III-B): values above `µ`
    /// become 1, the rest 0.
    pub fn quantize(&self) -> BinaryAm {
        self.quantize_at(self.mean())
    }

    /// 1-bit quantization with a per-centroid threshold: each row is
    /// binarized at **its own** mean.
    ///
    /// This is the majority-rule binarization of classic bundled
    /// hypervectors (a bit is set when more than the average mass landed on
    /// it), and it is the right choice for single-pass class vectors whose
    /// row means differ — a global threshold would hand ones-heavy rows a
    /// systematic popcount advantage in dot-similarity search.
    pub fn quantize_per_row(&self) -> BinaryAm {
        let rows: Vec<BitVector> = (0..self.vectors.rows())
            .map(|r| BitVector::from_mean_threshold(self.vectors.row(r)))
            .collect();
        BinaryAm {
            vectors: SearchMemory::from_rows(&rows).expect("FloatAm is never empty"),
            classes: self.classes.clone(),
            num_classes: self.num_classes,
        }
    }

    /// 1-bit quantization at an explicit threshold.
    pub fn quantize_at(&self, threshold: f32) -> BinaryAm {
        let rows: Vec<BitVector> = (0..self.vectors.rows())
            .map(|r| BitVector::from_threshold(self.vectors.row(r), threshold))
            .collect();
        BinaryAm {
            vectors: SearchMemory::from_rows(&rows).expect("FloatAm is never empty"),
            classes: self.classes.clone(),
            num_classes: self.num_classes,
        }
    }

    /// Dot-similarity scores of a floating-point query against every
    /// centroid.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `query.len() != dim()`.
    pub fn scores(&self, query: &[f32]) -> Result<Vec<f32>> {
        if query.len() != self.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), found: query.len() });
        }
        Ok(self.vectors.matvec(query)?)
    }

    /// Dot-similarity scores of every row of `queries` against every
    /// centroid: returns a `Q × C` matrix (row `q` = scores of query `q`).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `queries.cols() != dim()`.
    pub fn scores_batch(&self, queries: &Matrix) -> Result<Matrix> {
        if queries.cols() != self.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                found: queries.cols(),
            });
        }
        Ok(queries.matmul(&self.vectors.transpose())?)
    }

    /// Borrows the underlying centroid matrix (rows = centroids).
    pub fn as_matrix(&self) -> &Matrix {
        &self.vectors
    }

    /// Per-row class labels, parallel to the matrix rows.
    pub fn class_labels(&self) -> &[usize] {
        &self.classes
    }
}

/// Result of one associative search against a [`BinaryAm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    /// Winning row index in the AM.
    pub row: usize,
    /// Class owning the winning row.
    pub class: usize,
    /// Dot-similarity score of the winning row.
    pub score: u32,
}

/// Results of a batched associative search against a [`BinaryAm`]: one
/// [`SearchHit`] per query, plus the full score matrix for callers that
/// need runner-up scores (e.g. the within-class argmax of MEMHD's
/// quantization-aware training, paper Eq. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResults {
    hits: Vec<SearchHit>,
    scores: ScoreMatrix,
}

impl SearchResults {
    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The winning hit of query `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    pub fn hit(&self, q: usize) -> &SearchHit {
        &self.hits[q]
    }

    /// All hits, parallel to the batch's queries.
    pub fn hits(&self) -> &[SearchHit] {
        &self.hits
    }

    /// Predicted classes, one per query.
    pub fn classes(&self) -> impl Iterator<Item = usize> + '_ {
        self.hits.iter().map(|h| h.class)
    }

    /// Scores of query `q` against every centroid row.
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    pub fn scores(&self, q: usize) -> &[u32] {
        self.scores.scores(q)
    }

    /// The full `Q × C` score matrix.
    pub fn score_matrix(&self) -> &ScoreMatrix {
        &self.scores
    }
}

/// 1-bit quantized associative memory — what actually maps onto the IMC
/// array (§III-D).
///
/// One associative search ([`BinaryAm::search`]) is a single binary MVM:
/// the popcount-AND of the query against every stored centroid, followed by
/// an argmax across columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryAm {
    /// Centroid rows paired with their SIMD-blocked mirror: built once at
    /// construction so every batched search skips per-call packing.
    vectors: SearchMemory,
    classes: Vec<usize>,
    num_classes: usize,
}

impl BinaryAm {
    /// Builds a binary AM from `(class, vector)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidTrainingSet`] if empty,
    /// [`HdcError::DimensionMismatch`] on ragged vectors, and
    /// [`HdcError::UnknownClass`] for out-of-range labels.
    pub fn from_centroids(num_classes: usize, centroids: Vec<(usize, BitVector)>) -> Result<Self> {
        if centroids.is_empty() {
            return Err(HdcError::InvalidTrainingSet { reason: "no centroids supplied".into() });
        }
        let dim = centroids[0].1.len();
        let mut classes = Vec::with_capacity(centroids.len());
        let mut rows = Vec::with_capacity(centroids.len());
        for (class, v) in centroids {
            if class >= num_classes {
                return Err(HdcError::UnknownClass { class, num_classes });
            }
            if v.len() != dim {
                return Err(HdcError::DimensionMismatch { expected: dim, found: v.len() });
            }
            classes.push(class);
            rows.push(v);
        }
        Ok(BinaryAm { vectors: SearchMemory::from_rows(&rows)?, classes, num_classes })
    }

    /// Number of stored centroids (`C`).
    pub fn num_centroids(&self) -> usize {
        self.classes.len()
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// Class owning centroid row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_centroids()`.
    pub fn class_of(&self, row: usize) -> usize {
        self.classes[row]
    }

    /// Row indices of all centroids belonging to `class`.
    pub fn rows_of_class(&self, class: usize) -> Vec<usize> {
        self.classes.iter().enumerate().filter_map(|(i, &c)| (c == class).then_some(i)).collect()
    }

    /// Dot-similarity scores of a binary query against every centroid —
    /// one in-memory MVM.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `query.len() != dim()`.
    pub fn scores(&self, query: &BitVector) -> Result<Vec<u32>> {
        if query.len() != self.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), found: query.len() });
        }
        Ok(self.vectors.dot_all(query))
    }

    /// Full associative search: returns the best row, its class, and score
    /// (`pred = argmax_{i,j} δ_dot(C^b_ij, H^b)`, §III-D).
    ///
    /// Ties break toward the lower row index. This is the single-query
    /// slice of [`BinaryAm::search_batch`] — both run the same popcount
    /// kernel and winner selection; prefer the batched entry point when
    /// classifying many queries.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `query.len() != dim()`.
    pub fn search(&self, query: &BitVector) -> Result<SearchHit> {
        let scores = self.scores(query)?;
        let (row, score) = hd_linalg::argmax_u32(&scores);
        Ok(SearchHit { row, class: self.classes[row], score })
    }

    /// Predicted class for a query (convenience over [`BinaryAm::search`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `query.len() != dim()`.
    pub fn classify(&self, query: &BitVector) -> Result<usize> {
        Ok(self.search(query)?.class)
    }

    /// Dot-similarity scores of every query in `batch` against every
    /// centroid — `Q` in-memory MVMs answered in one tiled sweep.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `batch.dim() != dim()`.
    pub fn scores_batch(&self, batch: &QueryBatch) -> Result<ScoreMatrix> {
        if batch.dim() != self.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), found: batch.dim() });
        }
        Ok(self.vectors.dot_batch(batch)?)
    }

    /// Like [`BinaryAm::scores_batch`] but reusing `out` as scratch — the
    /// zero-allocation path for loops that re-score the same batch every
    /// epoch (quantization-aware training).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `batch.dim() != dim()`.
    pub fn scores_batch_into(&self, batch: &QueryBatch, out: &mut ScoreMatrix) -> Result<()> {
        if batch.dim() != self.dim() {
            return Err(HdcError::DimensionMismatch { expected: self.dim(), found: batch.dim() });
        }
        Ok(self.vectors.dot_batch_into(batch, out)?)
    }

    /// Batched associative search — the preferred inference entry point.
    ///
    /// Equivalent to calling [`BinaryAm::search`] once per query (same
    /// kernel, same low-row tie-break) but tiled so each stored centroid
    /// word is loaded once per query tile, with no per-query allocation.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `batch.dim() != dim()`.
    pub fn search_batch(&self, batch: &QueryBatch) -> Result<SearchResults> {
        let scores = self.scores_batch(batch)?;
        let hits = (0..scores.num_queries())
            .map(|q| {
                let (row, score) = scores.argmax(q);
                SearchHit { row, class: self.classes[row], score }
            })
            .collect();
        Ok(SearchResults { hits, scores })
    }

    /// Predicted class per query of `batch`.
    ///
    /// Uses the winners-only blocked sweep (scores are reduced while
    /// cache-hot, never materialized), which is the fastest path when
    /// only predictions are needed.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if `batch.dim() != dim()`.
    pub fn classify_batch(&self, batch: &QueryBatch) -> Result<Vec<usize>> {
        let winners = self.vectors.winners_batch(batch).map_err(|_| {
            HdcError::DimensionMismatch { expected: self.dim(), found: batch.dim() }
        })?;
        Ok(winners.into_iter().map(|(row, _)| self.classes[row]).collect())
    }

    /// Borrows centroid row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_centroids()`.
    pub fn centroid(&self, row: usize) -> BitVector {
        self.vectors.matrix().row(row)
    }

    /// Borrows the packed centroid matrix.
    pub fn as_bit_matrix(&self) -> &BitMatrix {
        self.vectors.matrix()
    }

    /// Borrows the search-optimized memory (row-major matrix plus its
    /// blocked layout). Cascade search runs on it
    /// ([`SearchMemory::search_cascade_topk`], or a
    /// [`hd_linalg::BoundCascade`] over a clone of it), as does plan tuning
    /// ([`hd_linalg::CascadePlan::tuned`]); map rows to classes with
    /// [`BinaryAm::class_of`].
    pub fn search_memory(&self) -> &SearchMemory {
        &self.vectors
    }

    /// Per-row class labels, parallel to the matrix rows.
    pub fn class_labels(&self) -> &[usize] {
        &self.classes
    }

    /// Associative memory footprint in bits: `C × D` (Table I).
    pub fn memory_bits(&self) -> u64 {
        self.vectors.matrix().payload_bits()
    }
}

/// Centroid rows with their class labels, searched by the fused k-best
/// sweep.
impl LabeledMemory for BinaryAm {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn rows(&self) -> usize {
        self.num_centroids()
    }

    fn class_of(&self, row: usize) -> usize {
        self.classes[row]
    }

    fn topk(&self, batch: &QueryBatch, k: usize) -> hd_linalg::Result<TopK> {
        self.vectors.topk_batch(batch, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_float_am() -> FloatAm {
        FloatAm::from_centroids(
            2,
            vec![
                (0, vec![1.0, 0.0, 2.0, -1.0]),
                (0, vec![0.0, 1.0, 0.0, 1.0]),
                (1, vec![-1.0, -1.0, 3.0, 3.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn float_am_layout() {
        let am = small_float_am();
        assert_eq!(am.num_centroids(), 3);
        assert_eq!(am.num_classes(), 2);
        assert_eq!(am.dim(), 4);
        assert_eq!(am.class_of(0), 0);
        assert_eq!(am.class_of(2), 1);
        assert_eq!(am.rows_of_class(0), vec![0, 1]);
        assert_eq!(am.id_of(1), CentroidId { class: 0, sub: 1 });
    }

    #[test]
    fn float_am_rejects_bad_input() {
        assert!(FloatAm::from_centroids(2, vec![]).is_err());
        assert!(FloatAm::from_centroids(1, vec![(1, vec![0.0])]).is_err());
        assert!(FloatAm::from_centroids(2, vec![(0, vec![0.0, 1.0]), (1, vec![0.0])]).is_err());
    }

    #[test]
    fn update_and_scores() {
        let mut am = small_float_am();
        am.update(0, 2.0, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(am.centroid(0), &[3.0, 2.0, 4.0, 1.0]);
        let scores = am.scores(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(scores, vec![3.0, 0.0, -1.0]);
        assert!(am.update(0, 1.0, &[0.0]).is_err());
        assert!(am.scores(&[0.0]).is_err());
    }

    #[test]
    fn normalize_unit_rows() {
        let mut am = small_float_am();
        am.normalize();
        for r in 0..am.num_centroids() {
            let n = hd_linalg::l2_norm(am.centroid(r));
            assert!((n - 1.0).abs() < 1e-5, "row {r} norm {n}");
        }
    }

    #[test]
    fn quantize_thresholds_at_mean() {
        let am = small_float_am();
        let mu = am.mean();
        let bam = am.quantize();
        for r in 0..am.num_centroids() {
            for c in 0..am.dim() {
                assert_eq!(bam.as_bit_matrix().get(r, c), am.centroid(r)[c] > mu);
            }
        }
        assert_eq!(bam.class_labels(), am.class_labels());
    }

    #[test]
    fn quantize_per_row_uses_row_means() {
        // Row 0 mean 1.0, row 1 mean 10.0: a global threshold would zero
        // row 0 entirely; per-row keeps both rows' structure.
        let am = FloatAm::from_centroids(
            2,
            vec![(0, vec![0.5, 1.5, 0.5, 1.5]), (1, vec![5.0, 15.0, 5.0, 15.0])],
        )
        .unwrap();
        let b = am.quantize_per_row();
        assert_eq!(b.centroid(0).to_f32(), vec![0.0, 1.0, 0.0, 1.0]);
        assert_eq!(b.centroid(1).to_f32(), vec![0.0, 1.0, 0.0, 1.0]);
        // Contrast with the global-mean quantizer.
        let g = am.quantize();
        assert_eq!(g.centroid(0).count_ones(), 0);
    }

    #[test]
    fn binary_am_search_picks_best_class() {
        let centroids = vec![
            (0, BitVector::from_bools(&[true, true, false, false])),
            (1, BitVector::from_bools(&[false, false, true, true])),
        ];
        let am = BinaryAm::from_centroids(2, centroids).unwrap();
        let q = BitVector::from_bools(&[true, true, true, false]);
        let hit = am.search(&q).unwrap();
        assert_eq!(hit.class, 0);
        assert_eq!(hit.score, 2);
        assert_eq!(am.classify(&q).unwrap(), 0);
    }

    #[test]
    fn binary_am_tie_breaks_low_row() {
        let centroids = vec![
            (1, BitVector::from_bools(&[true, false])),
            (0, BitVector::from_bools(&[false, true])),
        ];
        let am = BinaryAm::from_centroids(2, centroids).unwrap();
        let q = BitVector::from_bools(&[true, true]);
        assert_eq!(am.search(&q).unwrap().row, 0);
        assert_eq!(am.classify(&q).unwrap(), 1);
    }

    #[test]
    fn cascade_matches_batched_search() {
        use hd_linalg::rng::seeded;
        use hd_linalg::CascadePlan;
        use rand::Rng;
        let mut rng = seeded(31);
        let dim = 192;
        let centroids: Vec<(usize, BitVector)> = (0..11)
            .map(|v| {
                let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                (v % 4, BitVector::from_bools(&bits))
            })
            .collect();
        let am = BinaryAm::from_centroids(4, centroids).unwrap();
        let queries: Vec<BitVector> = (0..23)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let exact = am.search_batch(&batch).unwrap();
        for plan in [
            CascadePlan::exact(dim),
            CascadePlan::prefix(dim, 64).unwrap(),
            CascadePlan::uniform(dim, 5).unwrap(),
        ] {
            let cascade = am.search_memory().search_cascade_topk(&batch, &plan, 1).unwrap();
            let hits: Vec<SearchHit> = (0..batch.len())
                .map(|q| {
                    let (row, score) = cascade.topk().hits(q)[0];
                    SearchHit { row, class: am.class_of(row), score }
                })
                .collect();
            assert_eq!(hits, exact.hits(), "{plan:?}");
            assert_eq!(
                hits.iter().map(|h| h.class).collect::<Vec<_>>(),
                am.classify_batch(&batch).unwrap(),
                "{plan:?}"
            );
            assert!(cascade.stats().activated_dims() <= cascade.stats().exact_dims());
        }
    }

    #[test]
    fn topk_matches_sorted_scores() {
        use hd_linalg::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(47);
        let dim = 160;
        let centroids: Vec<(usize, BitVector)> = (0..9)
            .map(|v| {
                let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                (v % 3, BitVector::from_bools(&bits))
            })
            .collect();
        let am = BinaryAm::from_centroids(3, centroids).unwrap();
        let queries: Vec<BitVector> = (0..17)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let exact = am.search_batch(&batch).unwrap();
        for k in [1usize, 3, 9, 12] {
            let topk = am.topk(&batch, k).unwrap();
            for (q, query) in queries.iter().enumerate() {
                // Oracle: stable sort of the full score vector by
                // (score desc, row asc), truncated to k.
                let mut rows: Vec<(usize, u32)> =
                    am.scores(query).unwrap().into_iter().enumerate().collect();
                rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                rows.truncate(k.min(am.num_centroids()));
                assert_eq!(topk.hits(q), rows.as_slice(), "query {q} k {k}");
                // The top-1 entry is exactly the argmax search winner.
                let (row, score) = topk.hits(q)[0];
                assert_eq!(
                    (row, am.class_of(row), score),
                    (exact.hits()[q].row, exact.hits()[q].class, exact.hits()[q].score),
                    "query {q} k {k}"
                );
            }
        }
        assert!(am.topk(&batch, 0).is_err());
    }

    #[test]
    fn cascade_dimension_checked() {
        use hd_linalg::{CascadePlan, LinalgError};
        let am = BinaryAm::from_centroids(1, vec![(0, BitVector::zeros(64))]).unwrap();
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(64)]).unwrap();
        let bad_batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        let plan = CascadePlan::exact(64);
        let memory = am.search_memory();
        assert!(matches!(
            memory.search_cascade_topk(&bad_batch, &plan, 1),
            Err(LinalgError::ShapeMismatch { expected: 64, found: 65, .. })
        ));
        assert!(matches!(
            memory.search_cascade_topk(&batch, &CascadePlan::exact(63), 1),
            Err(LinalgError::ShapeMismatch { expected: 64, found: 63, .. })
        ));
    }

    #[test]
    fn binary_am_memory_bits() {
        let centroids = vec![(0, BitVector::zeros(128)), (1, BitVector::zeros(128))];
        let am = BinaryAm::from_centroids(2, centroids).unwrap();
        assert_eq!(am.memory_bits(), 256);
    }

    #[test]
    fn binary_am_dimension_checked() {
        let am = BinaryAm::from_centroids(1, vec![(0, BitVector::zeros(8))]).unwrap();
        assert!(am.scores(&BitVector::zeros(9)).is_err());
    }

    #[test]
    fn zeroed_single_centroid_layout() {
        let am = FloatAm::zeroed_single_centroid(3, 16);
        assert_eq!(am.num_centroids(), 3);
        assert_eq!(am.class_labels(), &[0, 1, 2]);
    }

    #[test]
    fn centroid_id_display() {
        let id = CentroidId { class: 2, sub: 5 };
        assert_eq!(id.to_string(), "class 2 / centroid 5");
    }
}
