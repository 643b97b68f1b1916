//! Cache-conscious interleaved associative-memory storage.
//!
//! The row-major [`BitMatrix`] stores one class vector per packed row —
//! natural for construction and mutation, but a SIMD sweep wants the
//! *transposed-within-tile* view: for one query word, the corresponding
//! word of **eight consecutive rows** side by side, so a single vector
//! load feeds eight popcount lanes. [`BlockedBitMatrix`] is that layout:
//! class rows are tiled into blocks of [`LANES`] rows, and each block
//! stores its rows' words column-panel-major — panel `(b, w)` holds word
//! `w` of rows `b·LANES .. b·LANES+LANES` contiguously (512 bits, one
//! AVX-512 register, two AVX2 registers, four NEON registers). Rows are
//! padded to the lane count with all-zero rows, which can never win a
//! search (scores are non-negative and ties break toward lower, real,
//! rows).
//!
//! A batched sweep over this layout streams the memory exactly once per
//! query in perfectly sequential panel order, and every loaded panel
//! feeds [`LANES`] independent accumulator lanes. The sweep is written
//! once: one query × row-block loop that hands each block's accumulator
//! to a sink — dot (score rows), winners (per-lane best kept in
//! registers) or top-k (threshold skip, then a bounded insert). A
//! backend supplies only its `block_acc` and the lane ops of its
//! accumulator type, and each SIMD backend compiles the loop through one
//! `#[target_feature]` wrapper, published in the [`crate::kernel`]
//! dispatch table. Every backend is bit-identical to the scalar
//! row-major path (the `simd_equivalence` and `blocked_edges` suites pin
//! this for every reachable backend).

use crate::batch::{
    dot_search, kbest_search, topk_insert, MemoryRef, ScoreMatrix, SearchResults, Slots, SweepOut,
    TopK,
};
use crate::bits::{BitMatrix, BitVector};
use crate::error::{LinalgError, Result};
use crate::kernel::{self, Backend};
use crate::QueryBatch;

/// Rows per interleaved block — one 512-bit panel of `u64` lanes.
pub const LANES: usize = 8;

/// A [`BitMatrix`] re-packed into interleaved row blocks for SIMD sweeps.
///
/// Construction packs once ([`BlockedBitMatrix::from_matrix`]); searches
/// then run the active [`crate::kernel`] backend. The layout is purely an
/// execution detail: [`BlockedBitMatrix::to_matrix`] recovers the
/// original matrix bit-for-bit.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitMatrix, BitVector, BlockedBitMatrix, QueryBatch};
///
/// let rows = vec![
///     BitVector::from_bools(&[true, false, true]),
///     BitVector::from_bools(&[false, true, true]),
/// ];
/// let m = BitMatrix::from_rows(&rows).unwrap();
/// let blocked = BlockedBitMatrix::from_matrix(&m);
/// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true, true, true])]).unwrap();
/// let scores = blocked.dot_batch(&batch).unwrap();
/// assert_eq!(scores.scores(0), &[2, 2]);
/// assert_eq!(blocked.to_matrix(), m);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedBitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    row_blocks: usize,
    /// Panel-major storage: `data[(b * words_per_row + w) * LANES + l]`
    /// is word `w` of row `b * LANES + l` (zero for padding rows).
    data: Vec<u64>,
}

impl BlockedBitMatrix {
    /// Packs a row-major matrix into interleaved blocks.
    pub fn from_matrix(m: &BitMatrix) -> Self {
        let rows = m.rows();
        let wpr = m.words_per_row_pub();
        let row_blocks = rows.div_ceil(LANES);
        let mut data = vec![0u64; row_blocks * wpr * LANES];
        for r in 0..rows {
            let (b, l) = (r / LANES, r % LANES);
            let words = m.row_words_pub(r);
            for (w, &word) in words.iter().enumerate() {
                data[(b * wpr + w) * LANES + l] = word;
            }
        }
        BlockedBitMatrix { rows, cols: m.cols(), words_per_row: wpr, row_blocks, data }
    }

    /// Packs equal-length rows directly (convenience over
    /// [`BitMatrix::from_rows`] + [`BlockedBitMatrix::from_matrix`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty row set and
    /// [`LinalgError::RaggedRows`] if rows disagree on length.
    pub fn from_rows(rows: &[BitVector]) -> Result<Self> {
        Ok(Self::from_matrix(&BitMatrix::from_rows(rows)?))
    }

    /// Number of stored (real, unpadded) rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bits per row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of [`LANES`]-row blocks (the last may be partially padded).
    #[inline]
    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    /// Packed words per row.
    #[inline]
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The interleaved panel buffer.
    #[inline]
    pub(crate) fn data(&self) -> &[u64] {
        &self.data
    }

    /// Panel `(b, w)`: word `w` of the block's [`LANES`] rows.
    #[cfg(test)]
    fn panel(&self, b: usize, w: usize) -> &[u64] {
        let start = (b * self.words_per_row + w) * LANES;
        &self.data[start..start + LANES]
    }

    /// Unpacks row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> BitVector {
        assert!(r < self.rows, "row index {r} out of bounds");
        let (b, l) = (r / LANES, r % LANES);
        let words: Vec<u64> = (0..self.words_per_row)
            .map(|w| self.data[(b * self.words_per_row + w) * LANES + l])
            .collect();
        BitVector::from_words(self.cols, words).expect("packed rows have clean tails")
    }

    /// Unpacks the whole matrix back to row-major form (the exact inverse
    /// of [`BlockedBitMatrix::from_matrix`]).
    pub fn to_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            m.set_row(r, &self.row(r)).expect("row width matches");
        }
        m
    }

    /// Copies rows `[start, start + count)` into a new blocked matrix
    /// without round-tripping through the row-major layout.
    ///
    /// `start` must be block-aligned (`start % LANES == 0`): a block is
    /// the smallest unit the interleaved storage can slice contiguously,
    /// and shard planners align on it anyway. The copied region is one
    /// contiguous `memcpy` of whole panels; a `count` that is not a
    /// multiple of [`LANES`] simply leaves the final block partially
    /// padded, exactly as construction would.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `count == 0`,
    /// [`LinalgError::IndexOutOfBounds`] when the range overruns `rows()`,
    /// and [`LinalgError::ShapeMismatch`] when `start` is not
    /// block-aligned.
    pub fn row_range(&self, start: usize, count: usize) -> Result<Self> {
        if count == 0 {
            return Err(LinalgError::Empty { op: "BlockedBitMatrix::row_range" });
        }
        let end = start.checked_add(count).filter(|&e| e <= self.rows).ok_or_else(|| {
            LinalgError::IndexOutOfBounds {
                index: start.saturating_add(count) - 1,
                bound: self.rows,
            }
        })?;
        if !start.is_multiple_of(LANES) {
            return Err(LinalgError::ShapeMismatch {
                op: "BlockedBitMatrix::row_range",
                expected: LANES,
                found: start % LANES,
            });
        }
        let first_block = start / LANES;
        let row_blocks = count.div_ceil(LANES);
        let panel_words = self.words_per_row * LANES;
        let mut data =
            self.data[first_block * panel_words..end.div_ceil(LANES) * panel_words].to_vec();
        // A shard boundary can cut through the source's final copied
        // block; zero the lanes past `count` so padding rows stay all-zero
        // (the invariant every sweep kernel relies on for tie-breaks).
        if !count.is_multiple_of(LANES) {
            let keep = count % LANES;
            let last = row_blocks - 1;
            for w in 0..self.words_per_row {
                let base = (last * self.words_per_row + w) * LANES;
                for lane in keep..LANES {
                    data[base + lane] = 0;
                }
            }
        }
        Ok(BlockedBitMatrix {
            rows: count,
            cols: self.cols,
            words_per_row: self.words_per_row,
            row_blocks,
            data,
        })
    }

    /// Batched dot-similarity sweep on the active backend (the blocked
    /// analogue of [`BitMatrix::dot_batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn dot_batch(&self, batch: &QueryBatch) -> Result<ScoreMatrix> {
        let mut out = ScoreMatrix::zeros(batch.len(), self.rows);
        self.dot_batch_into(batch, &mut out)?;
        Ok(out)
    }

    /// Like [`BlockedBitMatrix::dot_batch`] but reuses `out` as scratch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn dot_batch_into(&self, batch: &QueryBatch, out: &mut ScoreMatrix) -> Result<()> {
        dot_search(self.shape(), batch, out, |out| MemoryRef::Blocked(self).sweep(batch, out))
    }

    /// Batched associative search with the full score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols` and [`LinalgError::Empty`] when the memory has
    /// no rows.
    pub fn search_batch(&self, batch: &QueryBatch) -> Result<SearchResults> {
        SearchResults::from_scores(self.dot_batch(batch)?)
    }

    /// Winners-only batched search (low-row tie-break), never
    /// materializing scores.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when the memory has no rows and
    /// [`LinalgError::ShapeMismatch`] if the batch dimensionality differs
    /// from `cols`.
    pub fn winners_batch(&self, batch: &QueryBatch) -> Result<Vec<(usize, u32)>> {
        kbest_search("winners_batch", self.shape(), batch, 1, |out| {
            MemoryRef::Blocked(self).sweep(batch, out)
        })
        .map(TopK::into_flat)
    }

    /// Fused top-k batched search on the active backend (the blocked
    /// analogue of [`BitMatrix::topk_batch`]): per-query bounded k-best
    /// lists carried through the 8-row panel sweep, never materializing
    /// scores.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `k == 0` or a memory with no
    /// rows, and [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn topk_batch(&self, batch: &QueryBatch, k: usize) -> Result<TopK> {
        kbest_search("topk_batch", self.shape(), batch, k, |out| {
            MemoryRef::Blocked(self).sweep(batch, out)
        })
    }

    /// The blocked sweep of an explicit backend over the whole batch —
    /// what the `_with` equivalence-testing hooks run (serial; no thread
    /// chunking).
    fn sweep_with<'a>(
        &'a self,
        backend: Backend,
        batch: &'a QueryBatch,
    ) -> impl FnOnce(SweepOut<'_>) + 'a {
        assert!(backend.is_available(), "backend {backend} not available on this host");
        let sweep = kernel::table_for(backend).blocked_sweep;
        move |out| sweep(self, batch, 0, out)
    }

    /// [`BlockedBitMatrix::dot_batch`] on an explicit backend — the
    /// equivalence-testing hook (serial; no thread chunking).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn dot_batch_with(&self, batch: &QueryBatch, backend: Backend) -> Result<ScoreMatrix> {
        let mut out = ScoreMatrix::zeros(batch.len(), self.rows);
        dot_search(self.shape(), batch, &mut out, self.sweep_with(backend, batch))?;
        Ok(out)
    }

    /// [`BlockedBitMatrix::winners_batch`] on an explicit backend — the
    /// equivalence-testing hook (serial; no thread chunking).
    ///
    /// # Errors
    ///
    /// As [`BlockedBitMatrix::winners_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn winners_batch_with(
        &self,
        batch: &QueryBatch,
        backend: Backend,
    ) -> Result<Vec<(usize, u32)>> {
        let sweep = self.sweep_with(backend, batch);
        kbest_search("winners_batch", self.shape(), batch, 1, sweep).map(TopK::into_flat)
    }

    /// [`BlockedBitMatrix::topk_batch`] on an explicit backend — the
    /// equivalence-testing hook (serial; no thread chunking).
    ///
    /// # Errors
    ///
    /// As [`BlockedBitMatrix::topk_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn topk_batch_with(&self, batch: &QueryBatch, k: usize, backend: Backend) -> Result<TopK> {
        kbest_search("topk_batch", self.shape(), batch, k, self.sweep_with(backend, batch))
    }
}

/// A search-optimized associative memory: the row-major matrix plus, when
/// the active backend is SIMD, its interleaved blocked mirror built once
/// at construction.
///
/// This is the type long-lived memories (class AMs, per-partition IMC
/// matrices) should hold: batched searches skip the per-call packing that
/// [`BitMatrix::dot_batch`] would otherwise perform, and on the scalar
/// backend it stays a plain [`BitMatrix`] with zero overhead. Cascade
/// searches additionally cache their derived bound forms (prefix
/// sub-memory, row-suffix table) here, keyed by plan — see
/// [`SearchMemory::search_cascade`]. Equality compares the logical
/// matrix only, and a clone starts with an empty cascade cache (forms
/// re-derive lazily).
#[derive(Debug)]
pub struct SearchMemory {
    matrix: BitMatrix,
    blocked: Option<BlockedBitMatrix>,
    /// Derived cascade bound forms, keyed by plan; invalidated on any
    /// mutation of `matrix`.
    cascade_cache: crate::cascade::CascadeCache,
}

impl Clone for SearchMemory {
    fn clone(&self) -> Self {
        SearchMemory {
            matrix: self.matrix.clone(),
            blocked: self.blocked.clone(),
            cascade_cache: crate::cascade::CascadeCache::new(),
        }
    }
}

impl PartialEq for SearchMemory {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
    }
}

impl Eq for SearchMemory {}

impl From<BitMatrix> for SearchMemory {
    fn from(matrix: BitMatrix) -> Self {
        SearchMemory::new(matrix)
    }
}

impl SearchMemory {
    /// Wraps a matrix, building the blocked mirror iff the active backend
    /// is a SIMD one.
    pub fn new(matrix: BitMatrix) -> Self {
        let blocked = (kernel::active() != Backend::Scalar && matrix.rows() > 0)
            .then(|| BlockedBitMatrix::from_matrix(&matrix));
        SearchMemory { matrix, blocked, cascade_cache: crate::cascade::CascadeCache::new() }
    }

    /// The memory's cascade bound-form cache.
    #[inline]
    pub(crate) fn cascade_cache(&self) -> &crate::cascade::CascadeCache {
        &self.cascade_cache
    }

    /// Builds from equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] / [`LinalgError::RaggedRows`] as
    /// [`BitMatrix::from_rows`] does.
    pub fn from_rows(rows: &[BitVector]) -> Result<Self> {
        Ok(SearchMemory::new(BitMatrix::from_rows(rows)?))
    }

    /// The row-major matrix.
    #[inline]
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Consumes the wrapper, yielding the row-major matrix.
    pub fn into_matrix(self) -> BitMatrix {
        self.matrix
    }

    /// The blocked mirror, when one was built (SIMD backends only).
    #[inline]
    pub fn blocked(&self) -> Option<&BlockedBitMatrix> {
        self.blocked.as_ref()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of columns (bits per row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.matrix.cols()
    }

    /// Mutates the underlying matrix and unconditionally rebuilds the
    /// blocked mirror. Prefer [`SearchMemory::modify_reporting`] when the
    /// closure can tell whether it changed anything.
    pub fn modify<R>(&mut self, f: impl FnOnce(&mut BitMatrix) -> R) -> R {
        let mut out = None;
        self.modify_reporting(|matrix| {
            out = Some(f(matrix));
            true
        });
        out.expect("modify closure always runs")
    }

    /// Like [`SearchMemory::modify`], but the closure reports whether it
    /// actually mutated the matrix and the blocked mirror is rebuilt only
    /// then — so sweeps that touch every cell but flip none (e.g. a
    /// zero-probability fault pass) stay free. A reported mutation also
    /// drops every cached cascade bound form: the prefix sub-memory and
    /// row-suffix tables describe the old bits, and the next
    /// [`SearchMemory::search_cascade`] re-derives them. Returns the
    /// closure's report.
    pub fn modify_reporting(&mut self, f: impl FnOnce(&mut BitMatrix) -> bool) -> bool {
        let changed = f(&mut self.matrix);
        if changed {
            if self.blocked.is_some() {
                self.blocked = Some(BlockedBitMatrix::from_matrix(&self.matrix));
            }
            self.cascade_cache.invalidate();
        }
        changed
    }

    /// Copies rows `[start, start + count)` into a standalone
    /// [`SearchMemory`]. When a blocked mirror exists and `start` is
    /// block-aligned, the mirror is sliced directly (contiguous panel
    /// copy) instead of being re-packed.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `count == 0` and
    /// [`LinalgError::IndexOutOfBounds`] when the range overruns `rows()`.
    pub fn row_range(&self, start: usize, count: usize) -> Result<SearchMemory> {
        let matrix = self.matrix.row_range(start, count)?;
        let blocked = match &self.blocked {
            Some(b) if start.is_multiple_of(LANES) => {
                Some(b.row_range(start, count).expect("range validated by row-major slice"))
            }
            Some(_) => Some(BlockedBitMatrix::from_matrix(&matrix)),
            None => None,
        };
        Ok(SearchMemory { matrix, blocked, cascade_cache: crate::cascade::CascadeCache::new() })
    }

    /// Splits the memory into `shards` contiguous row ranges for
    /// data-parallel serving: each returned `(row_offset, memory)` pair
    /// owns its rows (and its own pre-packed blocked mirror), so the
    /// shards are independently `Send` to per-shard worker threads.
    ///
    /// Boundaries are aligned to [`LANES`] so every shard except possibly
    /// the last starts on a block boundary and the mirrors slice without
    /// re-packing; a shard count above `rows().div_ceil(LANES)` is
    /// clamped, so fewer (never empty) shards may be returned. Global row
    /// indices are recovered as `row_offset + local_row`, and because
    /// shards are ascending contiguous ranges, a merge that scans shards
    /// in order with a strict `>` comparison preserves the workspace's
    /// lowest-row tie-break.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `shards == 0` or an empty
    /// memory.
    pub fn split_rows(&self, shards: usize) -> Result<Vec<(usize, SearchMemory)>> {
        if shards == 0 || self.rows() == 0 {
            return Err(LinalgError::Empty { op: "SearchMemory::split_rows" });
        }
        let blocks = self.rows().div_ceil(LANES);
        let shards = shards.min(blocks);
        // Distribute blocks as evenly as possible (the first `blocks %
        // shards` shards take one extra), so exactly `min(shards,
        // blocks)` non-empty shards come back — never fewer.
        let base = blocks / shards;
        let extra = blocks % shards;
        let mut out = Vec::with_capacity(shards);
        let mut start = 0usize;
        for i in 0..shards {
            let shard_blocks = base + usize::from(i < extra);
            let count = (shard_blocks * LANES).min(self.rows() - start);
            out.push((start, self.row_range(start, count)?));
            start += count;
        }
        debug_assert_eq!(start, self.rows());
        Ok(out)
    }

    #[inline]
    pub(crate) fn memory_ref(&self) -> MemoryRef<'_> {
        match &self.blocked {
            Some(b) => MemoryRef::Blocked(b),
            None => MemoryRef::Rows(&self.matrix),
        }
    }

    /// Dot similarity of every row against one query (single-query slice;
    /// see [`BitMatrix::dot_all`]).
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from `cols`.
    pub fn dot_all(&self, query: &BitVector) -> Vec<u32> {
        self.matrix.dot_all(query)
    }

    /// Dot similarity of row `r` with a query.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or `r >= rows()`.
    pub fn row_dot(&self, r: usize, query: &BitVector) -> u32 {
        self.matrix.row_dot(r, query)
    }

    /// Batched dot-similarity sweep (pre-packed; see
    /// [`BitMatrix::dot_batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn dot_batch(&self, batch: &QueryBatch) -> Result<ScoreMatrix> {
        let mut out = ScoreMatrix::zeros(batch.len(), self.rows());
        self.dot_batch_into(batch, &mut out)?;
        Ok(out)
    }

    /// Like [`SearchMemory::dot_batch`] but reusing `out` as scratch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn dot_batch_into(&self, batch: &QueryBatch, out: &mut ScoreMatrix) -> Result<()> {
        dot_search(self.matrix.shape(), batch, out, |out| self.memory_ref().sweep(batch, out))
    }

    /// Batched associative search with the full score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch and [`LinalgError::Empty`] when the memory has no rows.
    pub fn search_batch(&self, batch: &QueryBatch) -> Result<SearchResults> {
        SearchResults::from_scores(self.dot_batch(batch)?)
    }

    /// Winners-only batched search (low-row tie-break).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when the memory has no rows and
    /// [`LinalgError::ShapeMismatch`] on a dimensionality mismatch.
    pub fn winners_batch(&self, batch: &QueryBatch) -> Result<Vec<(usize, u32)>> {
        kbest_search("winners_batch", self.matrix.shape(), batch, 1, |out| {
            self.memory_ref().sweep(batch, out)
        })
        .map(TopK::into_flat)
    }

    /// Fused batched top-k search (pre-packed; see
    /// [`BitMatrix::topk_batch`] for the result contract): each query's
    /// `min(k, rows)` best rows by `(score desc, row asc)`, selected
    /// inside the sweep with no score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `k == 0` or the memory has no
    /// rows, and [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn topk_batch(&self, batch: &QueryBatch, k: usize) -> Result<TopK> {
        kbest_search("topk_batch", self.matrix.shape(), batch, k, |out| {
            self.memory_ref().sweep(batch, out)
        })
    }
}

// ---------------------------------------------------------------------------
// The blocked sweep: one query × block loop over per-backend lane ops.
// ---------------------------------------------------------------------------

/// [`LANES`] counters in a backend's register form — one block's
/// popcounts, or the winners sink's per-lane best scores or blocks —
/// with the few lane ops the sinks need.
///
/// # Safety
///
/// The methods may use the backend's target features: callers guarantee
/// the backend is available on this host.
pub(crate) trait LaneVec: Copy {
    /// All-zero counters.
    unsafe fn zero() -> Self;
    /// Narrows the counters to 8 `u32`s and stores them.
    unsafe fn store(self, out: &mut [u32; LANES]);
    /// Whether any lane's score is strictly above `thr`.
    unsafe fn any_gt(self, thr: u32) -> bool;
    /// Per lane, keeps the running best `(score, block)` unless block
    /// `b` scores strictly higher — so a lane keeps its lowest
    /// max-scoring block.
    unsafe fn keep_best(best: (Self, Self), acc: Self, b: usize) -> (Self, Self);
}

/// One backend's blocked kernel: only the panel accumulation of one
/// query against one block. [`sweep_blocks`] is written once over it and
/// the [`LaneVec`] ops of its accumulator; each SIMD backend instantiates
/// the loop through its one `#[target_feature]` wrapper,
/// [`Lanes::sweep`], so `block_acc` and the lane ops inline into a loop
/// compiled for that backend's features.
///
/// # Safety
///
/// As [`LaneVec`]; `block_acc` additionally needs `panels` to point at
/// `qw.len()` readable panels of [`LANES`] words, and `sweep` the
/// conditions of [`sweep_blocks`].
pub(crate) trait Lanes: Sized {
    /// The block accumulator.
    type Acc: LaneVec;

    /// Accumulates `popcount(panel & query word)` per lane over one
    /// block: the `qw.len()` panels starting at `panels`.
    unsafe fn block_acc(panels: *const u64, qw: &[u64]) -> Self::Acc;
    /// [`sweep_blocks`] for sink `S`; SIMD backends override it with the
    /// one `#[target_feature]` wrapper that compiles the loop for them.
    unsafe fn sweep<S: PanelSink<Self>>(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        out: Slots<'_, S::Slot>,
    ) {
        sweep_blocks::<Self, S>(m, batch, q_offset, out)
    }
}

/// What the sweep does with each block's accumulators — one impl per
/// [`SweepOut`] kind. `slots` is the current query's output and `rows`
/// the memory's real row count (lanes past it are padding).
///
/// # Safety
///
/// The methods run lane ops of `L::Acc`: callers guarantee `L` is
/// available on this host.
pub(crate) trait PanelSink<L: Lanes> {
    /// Output slot type.
    type Slot;
    /// Per-query state carried across the block loop.
    type State;

    /// State at the start of a query.
    unsafe fn start() -> Self::State;
    /// Consumes block `b`'s accumulators.
    unsafe fn block(
        st: &mut Self::State,
        slots: &mut [Self::Slot],
        rows: usize,
        b: usize,
        acc: L::Acc,
    );
    /// Writes the query's result once every block was seen.
    unsafe fn finish(_: Self::State, _: &mut [Self::Slot], _: usize) {}
}

/// The one query × row-block loop: for every query of `out` (queries
/// `q_offset..` of `batch`), every block's accumulators go to sink `S`.
/// Memory is streamed in panel order, each panel load feeding
/// [`LANES`] lanes.
///
/// # Safety
///
/// Backend `L` is available on this host. Panel reads stay in bounds by
/// construction: each query is cut to the memory's `wpr` words (a
/// shorter query panics), and every block holds `wpr` panels.
#[inline(always)]
unsafe fn sweep_blocks<L: Lanes, S: PanelSink<L>>(
    m: &BlockedBitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    out: Slots<'_, S::Slot>,
) {
    let (rows, wpr) = (m.rows(), m.words_per_row());
    let data = m.data().as_ptr();
    for (q, slots) in out.data.chunks_exact_mut(out.per_query).enumerate() {
        let qw = &batch.query_words(q_offset + q)[..wpr];
        let mut state = S::start();
        for b in 0..m.row_blocks() {
            let acc = L::block_acc(data.add(b * wpr * LANES), qw);
            S::block(&mut state, slots, rows, b, acc);
        }
        S::finish(state, slots, rows);
    }
}

/// The kernel-table entry of backend `L`: sweeps queries `q_offset..`
/// of `batch` into `out`.
pub(crate) fn blocked_sweep<L: Lanes>(
    m: &BlockedBitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    out: SweepOut<'_>,
) {
    // SAFETY: a kernel table publishes `blocked_sweep::<L>` only for a
    // backend whose features were detected on this host; panels stay in
    // bounds because `sweep_blocks` hands `block_acc` exactly `wpr` query
    // words for a block that holds `wpr` panels.
    unsafe {
        match out {
            SweepOut::Dot(out) => L::sweep::<DotSink>(m, batch, q_offset, out),
            SweepOut::KBest(out) if out.per_query == 1 => {
                L::sweep::<WinnersSink>(m, batch, q_offset, out)
            }
            SweepOut::KBest(out) => L::sweep::<TopKSink>(m, batch, q_offset, out),
        }
    }
}

/// Dot sink: every block's scores stored into the query's score row
/// (padding lanes of the final block are dropped).
struct DotSink;

impl<L: Lanes> PanelSink<L> for DotSink {
    type Slot = u32;
    type State = ();

    #[inline(always)]
    unsafe fn start() {}

    #[inline(always)]
    unsafe fn block(_: &mut (), slots: &mut [u32], _: usize, b: usize, acc: L::Acc) {
        let base = b * LANES;
        if let Some(full) = slots.get_mut(base..base + LANES) {
            acc.store(full.try_into().expect("LANES slots"));
        } else {
            // The final, padded block: real lanes only, stored lane by
            // lane (a slice copy here would compile to a `memcpy` call).
            let mut tail = [0u32; LANES];
            acc.store(&mut tail);
            for (l, &s) in tail.iter().enumerate() {
                if let Some(slot) = slots.get_mut(base + l) {
                    *slot = s;
                }
            }
        }
    }
}

/// Winners sink: the per-lane running best `(score, block)` stays in
/// registers across the sweep; the lane candidates are reduced once per
/// query under the workspace tie-break (highest score, then lowest row).
/// Each lane keeps its *lowest* max-scoring row, so the global lowest
/// max-scoring row is among the candidates; padding lanes (rows ≥
/// `rows`, all-zero) are skipped.
struct WinnersSink;

impl<L: Lanes> PanelSink<L> for WinnersSink {
    type Slot = (usize, u32);
    type State = (L::Acc, L::Acc);

    #[inline(always)]
    unsafe fn start() -> (L::Acc, L::Acc) {
        (L::Acc::zero(), L::Acc::zero())
    }

    #[inline(always)]
    unsafe fn block(best: &mut Self::State, _: &mut [Self::Slot], _: usize, b: usize, acc: L::Acc) {
        *best = LaneVec::keep_best(*best, acc, b);
    }

    #[inline(always)]
    unsafe fn finish((score, block): Self::State, slots: &mut [(usize, u32)], rows: usize) {
        let (mut scores, mut blocks) = ([0u32; LANES], [0u32; LANES]);
        score.store(&mut scores);
        block.store(&mut blocks);
        let mut winner = (usize::MAX, 0u32);
        for (l, (&s, &b)) in scores.iter().zip(&blocks).enumerate() {
            let row = b as usize * LANES + l;
            if row < rows && (s > winner.1 || (s == winner.1 && row < winner.0)) {
                winner = (row, s);
            }
        }
        // Lane 0 of block 0 is row 0, a real row of the non-empty memory.
        debug_assert!(winner.0 < rows);
        slots[0] = winner;
    }
}

/// Top-k sink: once a query's k-best list is full, a block is skipped
/// with one vector compare against the k-th score — only a block with a
/// lane strictly above it (which would displace the k-th entry even
/// after tie-breaks) pays the store and [`topk_insert`]. Padding lanes
/// never enter the list.
struct TopKSink;

impl<L: Lanes> PanelSink<L> for TopKSink {
    type Slot = (usize, u32);
    /// Entries filled so far.
    type State = usize;

    #[inline(always)]
    unsafe fn start() -> usize {
        0
    }

    #[inline(always)]
    unsafe fn block(
        filled: &mut usize,
        slots: &mut [(usize, u32)],
        rows: usize,
        b: usize,
        acc: L::Acc,
    ) {
        let k = slots.len();
        if *filled == k && !acc.any_gt(slots[k - 1].1) {
            return;
        }
        let mut scores = [0u32; LANES];
        acc.store(&mut scores);
        let base = b * LANES;
        for (l, &s) in scores.iter().enumerate().take(rows - base) {
            topk_insert(slots, filled, base + l, s);
        }
    }

    #[inline(always)]
    unsafe fn finish(filled: usize, slots: &mut [(usize, u32)], _: usize) {
        debug_assert_eq!(filled, slots.len());
    }
}

/// Portable blocked kernel: eight scalar accumulator lanes per panel —
/// the reference the SIMD backends are tested against.
pub(crate) struct ScalarLanes;

impl Lanes for ScalarLanes {
    type Acc = [u32; LANES];

    #[inline]
    unsafe fn block_acc(panels: *const u64, qw: &[u64]) -> [u32; LANES] {
        let mut acc = [0u32; LANES];
        for (w, &x) in qw.iter().enumerate() {
            let panel = std::slice::from_raw_parts(panels.add(w * LANES), LANES);
            for (a, &p) in acc.iter_mut().zip(panel) {
                *a += (p & x).count_ones();
            }
        }
        acc
    }
}

/// Plain `u32` scores: the scalar backend's accumulator, and NEON's once
/// its vector counts are narrowed per block.
impl LaneVec for [u32; LANES] {
    #[inline]
    unsafe fn zero() -> Self {
        [0; LANES]
    }

    #[inline]
    unsafe fn store(self, out: &mut [u32; LANES]) {
        *out = self;
    }

    #[inline]
    unsafe fn any_gt(self, thr: u32) -> bool {
        self.iter().any(|&s| s > thr)
    }

    #[inline]
    unsafe fn keep_best(
        (mut scores, mut blocks): (Self, Self),
        acc: Self,
        b: usize,
    ) -> (Self, Self) {
        for (l, &s) in acc.iter().enumerate() {
            if s > scores[l] {
                scores[l] = s;
                blocks[l] = b as u32;
            }
        }
        (scores, blocks)
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86_lanes::{Avx2Lanes, Avx512Lanes};

/// AVX2 and AVX-512 lane ops.
#[cfg(target_arch = "x86_64")]
mod x86_lanes {
    use super::{sweep_blocks, BlockedBitMatrix, LaneVec, Lanes, PanelSink, Slots, LANES};
    use crate::kernel::x86::popcnt_bytes_avx2;
    use crate::QueryBatch;
    use std::arch::x86_64::*;

    /// AVX-512 `VPOPCNTDQ`: a block's 8 × u64 lane counts in one ZMM
    /// register.
    pub(crate) struct Avx512Lanes;

    impl Lanes for Avx512Lanes {
        type Acc = __m512i;

        #[inline]
        #[target_feature(enable = "avx512f,avx512vpopcntdq")]
        unsafe fn block_acc(panels: *const u64, qw: &[u64]) -> __m512i {
            let mut acc = _mm512_setzero_si512();
            for (w, &x) in qw.iter().enumerate() {
                let panel = _mm512_loadu_si512(panels.add(w * LANES) as *const _);
                let qv = _mm512_set1_epi64(x as i64);
                acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(panel, qv)));
            }
            acc
        }

        #[target_feature(enable = "avx512f,avx512vpopcntdq")]
        unsafe fn sweep<S: PanelSink<Self>>(
            m: &BlockedBitMatrix,
            batch: &QueryBatch,
            q_offset: usize,
            out: Slots<'_, S::Slot>,
        ) {
            sweep_blocks::<Self, S>(m, batch, q_offset, out)
        }
    }

    /// 8 × u64 lanes in one ZMM register.
    impl LaneVec for __m512i {
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn zero() -> Self {
            _mm512_setzero_si512()
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(self, out: &mut [u32; LANES]) {
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, _mm512_cvtepi64_epi32(self));
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn any_gt(self, thr: u32) -> bool {
            _mm512_cmpgt_epu64_mask(self, _mm512_set1_epi64(thr as i64)) != 0
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn keep_best((score, block): (Self, Self), acc: Self, b: usize) -> (Self, Self) {
            let gt = _mm512_cmpgt_epu64_mask(acc, score);
            (
                _mm512_mask_mov_epi64(score, gt, acc),
                _mm512_mask_mov_epi64(block, gt, _mm512_set1_epi64(b as i64)),
            )
        }
    }

    /// AVX2: the 8-lane panel is two 256-bit halves of 4 × u64 lanes.
    pub(crate) struct Avx2Lanes;

    impl Lanes for Avx2Lanes {
        type Acc = (__m256i, __m256i);

        /// Byte counts accumulate across runs of ≤ 31 words (31 × 8 =
        /// 248 < 256) before one `psadbw` horizontal step per half.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn block_acc(panels: *const u64, qw: &[u64]) -> Self::Acc {
            let zero = _mm256_setzero_si256();
            let mut acc_lo = zero;
            let mut acc_hi = zero;
            for (r, run) in qw.chunks(31).enumerate() {
                let mut bytes_lo = zero;
                let mut bytes_hi = zero;
                for (i, &qword) in run.iter().enumerate() {
                    let qv = _mm256_set1_epi64x(qword as i64);
                    let p = panels.add((r * 31 + i) * LANES);
                    let p_lo = _mm256_loadu_si256(p as *const __m256i);
                    let p_hi = _mm256_loadu_si256(p.add(4) as *const __m256i);
                    bytes_lo =
                        _mm256_add_epi8(bytes_lo, popcnt_bytes_avx2(_mm256_and_si256(p_lo, qv)));
                    bytes_hi =
                        _mm256_add_epi8(bytes_hi, popcnt_bytes_avx2(_mm256_and_si256(p_hi, qv)));
                }
                acc_lo = _mm256_add_epi64(acc_lo, _mm256_sad_epu8(bytes_lo, zero));
                acc_hi = _mm256_add_epi64(acc_hi, _mm256_sad_epu8(bytes_hi, zero));
            }
            (acc_lo, acc_hi)
        }

        #[target_feature(enable = "avx2")]
        unsafe fn sweep<S: PanelSink<Self>>(
            m: &BlockedBitMatrix,
            batch: &QueryBatch,
            q_offset: usize,
            out: Slots<'_, S::Slot>,
        ) {
            sweep_blocks::<Self, S>(m, batch, q_offset, out)
        }
    }

    /// Lanes 0-3 and 4-7 as two YMM registers of u64 lanes. Counts fit
    /// in i64, so signed 64-bit compares are exact.
    impl LaneVec for (__m256i, __m256i) {
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn zero() -> Self {
            (_mm256_setzero_si256(), _mm256_setzero_si256())
        }

        /// Counts are far below 2³², so the upper dwords are zero and a
        /// dword permute narrows each half.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store(self, out: &mut [u32; LANES]) {
            let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
            let lo32 = _mm256_permutevar8x32_epi32(self.0, idx);
            let hi32 = _mm256_permutevar8x32_epi32(self.1, idx);
            let packed = _mm256_inserti128_si256(lo32, _mm256_castsi256_si128(hi32), 1);
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, packed);
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn any_gt(self, thr: u32) -> bool {
            let thr = _mm256_set1_epi64x(thr as i64);
            let gt =
                _mm256_or_si256(_mm256_cmpgt_epi64(self.0, thr), _mm256_cmpgt_epi64(self.1, thr));
            _mm256_movemask_epi8(gt) != 0
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn keep_best(
            (score, block): (Self, Self),
            (lo, hi): Self,
            b: usize,
        ) -> (Self, Self) {
            let cur = _mm256_set1_epi64x(b as i64);
            let gt_lo = _mm256_cmpgt_epi64(lo, score.0);
            let gt_hi = _mm256_cmpgt_epi64(hi, score.1);
            (
                (_mm256_blendv_epi8(score.0, lo, gt_lo), _mm256_blendv_epi8(score.1, hi, gt_hi)),
                (_mm256_blendv_epi8(block.0, cur, gt_lo), _mm256_blendv_epi8(block.1, cur, gt_hi)),
            )
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) use neon_lanes::NeonLanes;

/// NEON: the 8-lane panel is four 128-bit vectors, with `vcnt` byte
/// counts widened once per ≤ 31-word run and narrowed to 8 `u32` scores
/// per block, whose lane ops are the portable ones.
#[cfg(target_arch = "aarch64")]
mod neon_lanes {
    use super::{sweep_blocks, BlockedBitMatrix, Lanes, PanelSink, Slots, LANES};
    use crate::QueryBatch;
    use std::arch::aarch64::*;

    pub(crate) struct NeonLanes;

    impl Lanes for NeonLanes {
        type Acc = [u32; LANES];

        #[inline]
        #[target_feature(enable = "neon")]
        unsafe fn block_acc(panels: *const u64, qw: &[u64]) -> [u32; LANES] {
            let mut acc = [vdupq_n_u64(0); 4];
            for (r, run) in qw.chunks(31).enumerate() {
                let mut bytes = [vdupq_n_u8(0); 4];
                for (i, &qword) in run.iter().enumerate() {
                    let qv = vdupq_n_u64(qword);
                    let p = panels.add((r * 31 + i) * LANES);
                    for (h, byte_acc) in bytes.iter_mut().enumerate() {
                        let panel = vld1q_u64(p.add(2 * h));
                        *byte_acc = vaddq_u8(
                            *byte_acc,
                            vcntq_u8(vreinterpretq_u8_u64(vandq_u64(panel, qv))),
                        );
                    }
                }
                for (a, &b) in acc.iter_mut().zip(&bytes) {
                    *a = vaddq_u64(*a, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(b))));
                }
            }
            let mut scores = [0u32; LANES];
            for (h, &a) in acc.iter().enumerate() {
                scores[2 * h] = vgetq_lane_u64(a, 0) as u32;
                scores[2 * h + 1] = vgetq_lane_u64(a, 1) as u32;
            }
            scores
        }

        #[target_feature(enable = "neon")]
        unsafe fn sweep<S: PanelSink<Self>>(
            m: &BlockedBitMatrix,
            batch: &QueryBatch,
            q_offset: usize,
            out: Slots<'_, S::Slot>,
        ) {
            sweep_blocks::<Self, S>(m, batch, q_offset, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix(rows: usize, cols: usize) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        let mut state = 0x1234_5678_9abc_def0u64;
        for r in 0..rows {
            for c in 0..cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if state >> 63 == 1 {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (rows, cols) in [(1usize, 1usize), (7, 64), (8, 65), (9, 128), (16, 130), (13, 300)] {
            let m = sample_matrix(rows, cols);
            let blocked = BlockedBitMatrix::from_matrix(&m);
            assert_eq!(blocked.shape(), m.shape());
            assert_eq!(blocked.row_blocks(), rows.div_ceil(LANES));
            assert_eq!(blocked.to_matrix(), m, "{rows}x{cols}");
            for r in 0..rows {
                assert_eq!(blocked.row(r), m.row(r), "{rows}x{cols} row {r}");
            }
        }
    }

    #[test]
    fn padding_lanes_are_zero() {
        let m = sample_matrix(5, 64);
        let blocked = BlockedBitMatrix::from_matrix(&m);
        for w in 0..blocked.words_per_row() {
            let panel = blocked.panel(0, w);
            for &lane in &panel[5..] {
                assert_eq!(lane, 0);
            }
        }
    }

    #[test]
    fn search_memory_matches_matrix() {
        let m = sample_matrix(10, 96);
        let mem = SearchMemory::new(m.clone());
        let queries: Vec<BitVector> =
            (0..9).map(|i| sample_matrix(1, 96).row(0).rotate_left(i)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let scores = mem.dot_batch(&batch).unwrap();
        let reference = m.dot_batch(&batch).unwrap();
        assert_eq!(scores, reference);
        assert_eq!(mem.winners_batch(&batch).unwrap(), m.winners_batch(&batch).unwrap());
        assert_eq!(mem, SearchMemory::new(m));
    }

    #[test]
    fn search_memory_modify_rebuilds() {
        let m = sample_matrix(9, 70);
        let mut mem = SearchMemory::new(m);
        mem.modify(|mat| mat.set(8, 69, true));
        assert!(mem.matrix().get(8, 69));
        if let Some(blocked) = mem.blocked() {
            assert!(blocked.row(8).get(69), "blocked mirror must track mutation");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let blocked = BlockedBitMatrix::from_matrix(&sample_matrix(4, 64));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        assert!(blocked.dot_batch(&batch).is_err());
        assert!(blocked.winners_batch(&batch).is_err());
    }

    #[test]
    fn blocked_row_range_matches_row_major_slice() {
        let m = sample_matrix(21, 130);
        let blocked = BlockedBitMatrix::from_matrix(&m);
        for (start, count) in [(0usize, 8usize), (8, 8), (8, 13), (16, 5), (0, 21)] {
            let sub = blocked.row_range(start, count).unwrap();
            assert_eq!(sub.to_matrix(), m.row_range(start, count).unwrap(), "{start}+{count}");
            // Padding lanes of the final block stay zero even when the
            // range cuts through a source block.
            let last = sub.row_blocks() - 1;
            for w in 0..sub.words_per_row() {
                for (l, &lane) in sub.panel(last, w).iter().enumerate() {
                    if last * LANES + l >= count {
                        assert_eq!(lane, 0, "padding lane {l} of word {w} dirty");
                    }
                }
            }
        }
        assert!(blocked.row_range(3, 4).is_err(), "unaligned start must be rejected");
        assert!(blocked.row_range(8, 0).is_err());
        assert!(blocked.row_range(16, 6).is_err());
    }

    #[test]
    fn split_rows_covers_all_rows_and_preserves_winners() {
        let m = sample_matrix(29, 96);
        let mem = SearchMemory::new(m.clone());
        let queries: Vec<BitVector> =
            (0..7).map(|i| sample_matrix(1, 96).row(0).rotate_left(i)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let reference = mem.winners_batch(&batch).unwrap();
        for shards in [1usize, 2, 3, 4, 100] {
            let parts = mem.split_rows(shards).unwrap();
            // Exactly min(shards, blocks) shards: 29 rows = 4 blocks, so
            // e.g. 3 shards must yield 3 parts (2+1+1 blocks), not 2.
            assert_eq!(parts.len(), shards.min(29usize.div_ceil(LANES)), "{shards} shards");
            // Contiguous ascending cover of all rows.
            let mut next = 0usize;
            for (offset, part) in &parts {
                assert_eq!(*offset, next);
                for r in 0..part.rows() {
                    assert_eq!(part.matrix().row(r), m.row(offset + r));
                }
                next += part.rows();
            }
            assert_eq!(next, m.rows(), "{shards} shards");
            // Shard-order merge with strict > reproduces the global
            // winners (including the low-row tie-break).
            let merged: Vec<(usize, u32)> = (0..batch.len())
                .map(|q| {
                    let mut best = (0usize, 0u32);
                    let mut first = true;
                    for (offset, part) in &parts {
                        let (row, score) = part.winners_batch(&batch).unwrap()[q];
                        if first || score > best.1 {
                            best = (offset + row, score);
                            first = false;
                        }
                    }
                    best
                })
                .collect();
            assert_eq!(merged, reference, "{shards} shards");
        }
        assert!(mem.split_rows(0).is_err());
    }
}
