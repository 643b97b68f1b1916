//! Cache-conscious interleaved associative-memory storage, and the one
//! type that searches it.
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
//! [`SearchMemory`] holds a matrix together with its blocked layout and
//! the kernel backend it searches on. Every batched search is one sweep
//! of the blocked layout, which streams the memory at most once per
//! query in sequential panel order, each loaded panel feeding [`LANES`]
//! independent accumulator lanes. The sweep is written once: one query ×
//! row-block loop that hands each block's accumulator to a sink — dot
//! (score rows), winners (per-lane best kept in registers) or top-k
//! (threshold skip, then a bounded insert). A backend supplies only its
//! `block_acc` and the lane ops of its accumulator type (the scalar
//! backend's portable lanes included), and each SIMD backend compiles the
//! loop through one `#[target_feature]` wrapper, published in the
//! [`crate::kernel`] dispatch table. Every backend is bit-identical to
//! the flat-kernel row walk of [`BitMatrix::dot_all`] (the
//! `simd_equivalence` and `blocked_edges` suites pin this for every
//! reachable backend).
//!
//! # The block bound
//!
//! A row's dot score never exceeds its popcount, so the layout also
//! keeps each block's largest row popcount
//! ([`BlockedBitMatrix::block_max`], derived wherever the layout is
//! built: packing, row ranges, shards and the rebuild after a mutation).
//! Once a query's k-best list is full, a block whose bound is strictly
//! below the k-th score cannot place a row in the list, and the top-k
//! sink skips it unscored; the cascade's first stage applies the same
//! rule against its running k-th partial (the block-max index of Ding &
//! Suel, "Faster top-k document retrieval using block-max indexes",
//! SIGIR 2011). The compare is strict, so a row tying the k-th score is
//! always scored and the lowest-row tie-break holds in any visiting
//! order. A memory whose heavy rows share a few blocks is then searched
//! at the cost of those blocks: one block of 256 on a graded 2048-row
//! memory. The dot sink never skips, and neither does the winners sink:
//! its best score lives in vector lanes, and reading it out per block
//! costs the flagship 128 × 128 memory more than the skip saves there.
//! The top-k sweep compares bounds only once the k-th score passes the
//! lightest block's bound, so a memory of even rows pays nothing for it.

use crate::batch::{
    chunk_queries, dot_search, kbest_search, topk_insert, ScoreMatrix, Slots, SweepOut, TopK,
};
use crate::bits::{BitMatrix, BitVector};
use crate::error::{LinalgError, Result};
use crate::kernel::{self, Backend};
use crate::QueryBatch;
use std::marker::PhantomData;

/// Rows per interleaved block — one 512-bit panel of `u64` lanes.
pub const LANES: usize = 8;

/// One panel: word `w` of a block's [`LANES`] rows, 512 bits on a cache
/// line of its own, so a panel load never straddles two lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, align(64))]
struct Panel([u64; LANES]);

/// A [`BitMatrix`] re-packed into interleaved row blocks for SIMD sweeps.
///
/// Construction packs once ([`BlockedBitMatrix::from_matrix`]); a
/// [`SearchMemory`] holds one and runs every batched search over it. The
/// layout is purely an execution detail: [`BlockedBitMatrix::to_matrix`]
/// recovers the original matrix bit-for-bit.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitMatrix, BitVector, BlockedBitMatrix};
///
/// let rows = vec![
///     BitVector::from_bools(&[true, false, true]),
///     BitVector::from_bools(&[false, true, true]),
/// ];
/// let m = BitMatrix::from_rows(&rows).unwrap();
/// let blocked = BlockedBitMatrix::from_matrix(&m);
/// assert_eq!(blocked.row_blocks(), 1); // two rows, six padding lanes
/// assert_eq!(blocked.row(1), rows[1]);
/// assert_eq!(blocked.to_matrix(), m);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedBitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    row_blocks: usize,
    /// Panel-major storage: lane `l` of panel `data[b * words_per_row +
    /// w]` is word `w` of row `b * LANES + l` (zero for padding rows).
    data: Vec<Panel>,
    /// `block_max[b]`: the largest row popcount of block `b`, derived
    /// from `data` wherever the layout is built.
    block_max: Vec<u32>,
}

impl BlockedBitMatrix {
    /// Packs a row-major matrix into interleaved blocks.
    pub fn from_matrix(m: &BitMatrix) -> Self {
        let rows = m.rows();
        let wpr = m.words_per_row_pub();
        let row_blocks = rows.div_ceil(LANES);
        let mut data = vec![Panel::default(); row_blocks * wpr];
        for r in 0..rows {
            let (b, l) = (r / LANES, r % LANES);
            let words = m.row_words_pub(r);
            for (w, &word) in words.iter().enumerate() {
                data[b * wpr + w].0[l] = word;
            }
        }
        Self::with_data(rows, m.cols(), wpr, row_blocks, data)
    }

    /// Wraps a panel buffer, deriving each block's largest row popcount.
    fn with_data(
        rows: usize,
        cols: usize,
        words_per_row: usize,
        row_blocks: usize,
        data: Vec<Panel>,
    ) -> Self {
        let block_max = (0..row_blocks)
            .map(|b| {
                let mut ones = [0u32; LANES];
                for panel in &data[b * words_per_row..(b + 1) * words_per_row] {
                    for (o, &word) in ones.iter_mut().zip(&panel.0) {
                        *o += word.count_ones();
                    }
                }
                ones.into_iter().max().unwrap_or(0)
            })
            .collect();
        BlockedBitMatrix { rows, cols, words_per_row, row_blocks, data, block_max }
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

    /// The largest row popcount of every block, one entry per
    /// [`BlockedBitMatrix::row_blocks`] (padding rows count zero ones). A
    /// row's dot score never exceeds its popcount, so no row of block `b`
    /// scores above `block_max()[b]` against any query: the bound the
    /// top-k sweep and the cascade's first stage skip blocks with.
    #[inline]
    pub fn block_max(&self) -> &[u32] {
        &self.block_max
    }

    /// Packed words per row.
    #[inline]
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The interleaved panel buffer.
    #[inline]
    pub(crate) fn data(&self) -> &[u64] {
        // SAFETY: `Panel` is `repr(C)` over `[u64; LANES]` and exactly
        // that size, so the panels are `LANES * len` initialized words.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast(), self.data.len() * LANES) }
    }

    /// Panel `(b, w)`: word `w` of the block's [`LANES`] rows.
    #[cfg(test)]
    fn panel(&self, b: usize, w: usize) -> &[u64] {
        &self.data[b * self.words_per_row + w].0
    }

    /// Unpacks row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> BitVector {
        assert!(r < self.rows, "row index {r} out of bounds");
        let (b, l) = (r / LANES, r % LANES);
        let words: Vec<u64> =
            (0..self.words_per_row).map(|w| self.data[b * self.words_per_row + w].0[l]).collect();
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
        let wpr = self.words_per_row;
        let mut data = self.data[first_block * wpr..end.div_ceil(LANES) * wpr].to_vec();
        // A shard boundary can cut through the source's final copied
        // block; zero the lanes past `count` so padding rows stay all-zero
        // (the invariant every sweep kernel relies on for tie-breaks).
        if !count.is_multiple_of(LANES) {
            let keep = count % LANES;
            let last = row_blocks - 1;
            for panel in &mut data[last * wpr..] {
                panel.0[keep..].fill(0);
            }
        }
        Ok(Self::with_data(count, self.cols, self.words_per_row, row_blocks, data))
    }
}

/// A search-optimized associative memory: the row-major matrix, its
/// interleaved [`BlockedBitMatrix`] layout built once at construction,
/// and the kernel backend its searches run on.
///
/// This is the one type with batched search, and the type long-lived
/// memories (class AMs, per-partition IMC matrices) hold. Every batched
/// search is one blocked sweep on the memory's backend: the active one
/// for [`SearchMemory::new`], a pinned one for
/// [`SearchMemory::with_backend`], kept by clones, row ranges, shards and
/// mutations. Equality compares the logical matrix only.
#[derive(Debug, Clone)]
pub struct SearchMemory {
    matrix: BitMatrix,
    blocked: BlockedBitMatrix,
    backend: Backend,
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
    /// Wraps a matrix searched on the active kernel backend
    /// ([`kernel::active`]).
    pub fn new(matrix: BitMatrix) -> Self {
        Self::with_backend(matrix, kernel::active())
    }

    /// Wraps a matrix searched on `backend` — how the equivalence suites
    /// run one explicit backend through the same entry points as the
    /// active one.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn with_backend(matrix: BitMatrix, backend: Backend) -> Self {
        assert!(backend.is_available(), "backend {backend} not available on this host");
        let blocked = BlockedBitMatrix::from_matrix(&matrix);
        SearchMemory { matrix, blocked, backend }
    }

    /// The kernel backend every search of this memory runs on.
    #[inline]
    pub fn backend(&self) -> Backend {
        self.backend
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

    /// The blocked layout every batched search sweeps.
    #[inline]
    pub fn blocked(&self) -> &BlockedBitMatrix {
        &self.blocked
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
    /// blocked layout. Prefer [`SearchMemory::modify_reporting`] when the
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
    /// actually mutated the matrix and the blocked layout is rebuilt only
    /// then — so sweeps that touch every cell but flip none (e.g. a
    /// zero-probability fault pass) stay free. Returns the closure's
    /// report.
    pub fn modify_reporting(&mut self, f: impl FnOnce(&mut BitMatrix) -> bool) -> bool {
        let changed = f(&mut self.matrix);
        if changed {
            self.blocked = BlockedBitMatrix::from_matrix(&self.matrix);
        }
        changed
    }

    /// Copies rows `[start, start + count)` into a standalone
    /// [`SearchMemory`] on the same backend. When `start` is
    /// block-aligned, the blocked layout is sliced directly (contiguous
    /// panel copy) instead of being re-packed.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `count == 0` and
    /// [`LinalgError::IndexOutOfBounds`] when the range overruns `rows()`.
    pub fn row_range(&self, start: usize, count: usize) -> Result<SearchMemory> {
        let matrix = self.matrix.row_range(start, count)?;
        let blocked = if start.is_multiple_of(LANES) {
            self.blocked.row_range(start, count).expect("range validated by row-major slice")
        } else {
            BlockedBitMatrix::from_matrix(&matrix)
        };
        let backend = self.backend;
        Ok(SearchMemory { matrix, blocked, backend })
    }

    /// Splits the memory into `shards` contiguous row ranges for
    /// data-parallel serving: each returned `(row_offset, memory)` pair
    /// owns its rows (and its own pre-packed blocked layout, on this
    /// memory's backend), so the shards are independently `Send` to
    /// per-shard worker threads.
    ///
    /// Boundaries are aligned to [`LANES`] so every shard except possibly
    /// the last starts on a block boundary and the layouts slice without
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

    /// Sweeps every query of `batch` into `out` on the memory's backend,
    /// in query chunks across threads under the `rayon` feature (see
    /// [`chunk_queries`]).
    fn sweep(&self, batch: &QueryBatch, out: SweepOut<'_>) {
        let sweep = kernel::table_for(self.backend).blocked_sweep;
        let words = self.rows() * self.blocked.words_per_row();
        chunk_queries(batch.len(), words, out, |q_offset, out| {
            sweep(&self.blocked, batch, q_offset, out)
        });
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

    /// Dot similarity of every row against every query of `batch` — the
    /// batched associative search (`Q` in-memory MVMs in the paper's
    /// architecture, answered in one sweep).
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

    /// Like [`SearchMemory::dot_batch`] but reusing `out` as scratch
    /// (resized as needed) — the zero-allocation path for loops that
    /// re-score batches.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn dot_batch_into(&self, batch: &QueryBatch, out: &mut ScoreMatrix) -> Result<()> {
        dot_search(self.matrix.shape(), batch, out, |out| self.sweep(batch, out))
    }

    /// Winners-only batched search (low-row tie-break): the top-1 of
    /// [`SearchMemory::topk_batch`], which the sweep answers from a
    /// register-resident per-lane best.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when the memory has no rows and
    /// [`LinalgError::ShapeMismatch`] on a dimensionality mismatch.
    pub fn winners_batch(&self, batch: &QueryBatch) -> Result<Vec<(usize, u32)>> {
        kbest_search("winners_batch", self.matrix.shape(), batch, 1, |out| self.sweep(batch, out))
            .map(TopK::into_flat)
    }

    /// Batched top-k associative search: per query, the `min(k, rows)`
    /// best `(row, score)` pairs under dot similarity, sorted by score
    /// descending with ties toward the lower row — fused into the sweep
    /// (a bounded k-best list per query, threshold = the running k-th
    /// score), never materializing the `Q × R` score matrix. `k == 1` is
    /// exactly [`SearchMemory::winners_batch`]; `k >= rows` returns every
    /// row in sorted order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `k == 0` or the memory has no
    /// rows, and [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn topk_batch(&self, batch: &QueryBatch, k: usize) -> Result<TopK> {
        kbest_search("topk_batch", self.matrix.shape(), batch, k, |out| self.sweep(batch, out))
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
/// query against one block. The loops over it — the blocked sweep and
/// the cascade's [`BlockPass`] — are written once over it and the
/// [`LaneVec`] ops of its accumulator; each SIMD backend instantiates
/// them through its one `#[target_feature]` wrapper, [`Lanes::run`], so
/// `block_acc` and the lane ops inline into a loop compiled for that
/// backend's features.
///
/// # Safety
///
/// As [`LaneVec`]; `block_acc` additionally needs `panels` to point at
/// `qw.len()` readable panels of [`LANES`] words, and `run` the
/// conditions of the job it runs.
pub(crate) trait Lanes: Sized {
    /// The block accumulator.
    type Acc: LaneVec;

    /// Accumulates `popcount(panel & query word)` per lane over one
    /// block: the `qw.len()` panels starting at `panels`.
    unsafe fn block_acc(panels: *const u64, qw: &[u64]) -> Self::Acc;
    /// The cascade's prune compare over one block's partial scores: the
    /// lanes where `partial + min(row_suffix, q_suffix) >= kth`.
    #[inline(always)]
    unsafe fn keep_lanes(
        partial: &[u32; LANES],
        row_suffix: &[u32; LANES],
        q_suffix: u32,
        kth: u32,
    ) -> u8 {
        lanes_where(|l| partial[l] + row_suffix[l].min(q_suffix) >= kth)
    }
    /// The lanes of a block's `partial` scores strictly above `thr`.
    #[inline(always)]
    unsafe fn lanes_above(partial: &[u32; LANES], thr: u32) -> u8 {
        lanes_where(|l| partial[l] > thr)
    }
    /// Runs `job`; SIMD backends override it with the one
    /// `#[target_feature]` wrapper that compiles every job's loop for
    /// them.
    unsafe fn run<J: LaneJob<Self>>(job: J) {
        job.run()
    }
}

/// A loop over backend `L`'s blocked kernel — the blocked sweep or the
/// cascade's block pass — run through [`Lanes::run`].
///
/// # Safety
///
/// `run` needs backend `L` to be available on this host, plus the
/// job's own conditions.
pub(crate) trait LaneJob<L: Lanes> {
    /// Runs the loop (inlined into the backend's wrapper).
    unsafe fn run(self);
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
    /// Whether the query may skip a block none of whose rows holds more
    /// than `bound` ones (so none scores above it) without scoring it.
    #[inline(always)]
    unsafe fn skips(_: &Self::State, _bound: u32) -> bool {
        false
    }
    /// Consumes block `b`'s accumulators; returns whether the query's
    /// skip threshold may have risen (never, for a sink that never
    /// skips).
    unsafe fn block(
        st: &mut Self::State,
        slots: &mut [Self::Slot],
        rows: usize,
        b: usize,
        acc: L::Acc,
    ) -> bool;
    /// Writes the query's result once every block was seen.
    unsafe fn finish(_: Self::State, _: &mut [Self::Slot], _: usize) {}
}

/// The one query × row-block loop of the blocked sweep: for every query
/// of `out` (queries `q_offset..` of `batch`), every block the sink does
/// not skip on its [`BlockedBitMatrix::block_max`] bound has its
/// accumulators over `m` go to sink `S`. Memory is streamed in panel
/// order, each panel load feeding [`LANES`] lanes.
struct Sweep<'a, S, T> {
    m: &'a BlockedBitMatrix,
    batch: &'a QueryBatch,
    q_offset: usize,
    out: Slots<'a, T>,
    sink: PhantomData<S>,
}

impl<L: Lanes, S: PanelSink<L, Slot = T>, T> LaneJob<L> for Sweep<'_, S, T> {
    /// # Safety
    ///
    /// Backend `L` is available on this host. Panel reads stay in bounds
    /// by construction: each query is cut to the memory's `wpr` words (a
    /// shorter query panics), and every block holds `wpr` panels.
    #[inline(always)]
    unsafe fn run(self) {
        let Sweep { m, batch, q_offset, out, .. } = self;
        let (rows, wpr) = (m.rows(), m.words_per_row());
        let (data, block_max) = (m.data().as_ptr(), m.block_max());
        // No block can be skipped before the query's threshold rises above
        // the lightest block's bound, so the sweep checks bounds only from
        // then on. Both phases step one index `b`, so for a sink that never
        // raises the threshold the second phase provably runs zero times
        // and compiles away.
        let lightest = block_max.iter().copied().min().unwrap_or(0);
        for (q, slots) in out.data.chunks_exact_mut(out.per_query).enumerate() {
            let qw = &batch.query_words(q_offset + q)[..wpr];
            let mut state = S::start();
            let mut b = 0;
            while b < block_max.len() {
                let acc = L::block_acc(data.add(b * wpr * LANES), qw);
                let rose = S::block(&mut state, slots, rows, b, acc);
                b += 1;
                if rose && S::skips(&state, lightest) {
                    break;
                }
            }
            while b < block_max.len() {
                if !S::skips(&state, block_max[b]) {
                    let acc = L::block_acc(data.add(b * wpr * LANES), qw);
                    S::block(&mut state, slots, rows, b, acc);
                }
                b += 1;
            }
            S::finish(state, slots, rows);
        }
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
    // bounds because the sweep hands `block_acc` exactly `wpr` query
    // words for a block that holds `wpr` panels.
    unsafe {
        match out {
            SweepOut::Dot(out) => {
                L::run(Sweep::<DotSink, _> { m, batch, q_offset, out, sink: PhantomData })
            }
            SweepOut::KBest(out) if out.per_query == 1 => {
                L::run(Sweep::<WinnersSink, _> { m, batch, q_offset, out, sink: PhantomData })
            }
            SweepOut::KBest(out) => {
                L::run(Sweep::<TopKSink, _> { m, batch, q_offset, out, sink: PhantomData })
            }
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
    unsafe fn block(_: &mut (), slots: &mut [u32], _: usize, b: usize, acc: L::Acc) -> bool {
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
        false
    }
}

/// Winners sink: the per-lane running best `(score, block)` stays in
/// registers across the sweep; the lane candidates are reduced once per
/// query under the workspace tie-break (highest score, then lowest row).
/// Each lane keeps its *lowest* max-scoring row, so the global lowest
/// max-scoring row is among the candidates; padding lanes (rows ≥
/// `rows`, all-zero) are skipped. It never skips a block: its best score
/// lives in vector lanes, and tracking it as a scalar costs the branchless
/// per-lane update a data-dependent branch on every block.
struct WinnersSink;

impl<L: Lanes> PanelSink<L> for WinnersSink {
    type Slot = (usize, u32);
    type State = (L::Acc, L::Acc);

    #[inline(always)]
    unsafe fn start() -> (L::Acc, L::Acc) {
        (L::Acc::zero(), L::Acc::zero())
    }

    #[inline(always)]
    unsafe fn block(
        best: &mut Self::State,
        _: &mut [Self::Slot],
        _: usize,
        b: usize,
        acc: L::Acc,
    ) -> bool {
        *best = LaneVec::keep_best(*best, acc, b);
        false
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

/// Top-k sink: once a query's k-best list is full, a block whose
/// largest row popcount is strictly below the k-th score is skipped
/// unscored (none of its rows can reach the list, in any visiting
/// order), and a scored block is dropped with one vector compare
/// against the k-th score — only a block with a lane strictly above it
/// (which would displace the k-th entry even after tie-breaks) pays the
/// store and [`topk_insert`]. Padding lanes never enter the list.
struct TopKSink;

impl<L: Lanes> PanelSink<L> for TopKSink {
    type Slot = (usize, u32);
    /// Entries filled so far, and the k-th score once the list is full
    /// (0 before, which no bound is below).
    type State = (usize, u32);

    #[inline(always)]
    unsafe fn start() -> (usize, u32) {
        (0, 0)
    }

    #[inline(always)]
    unsafe fn skips(&(_, kth): &(usize, u32), bound: u32) -> bool {
        bound < kth
    }

    #[inline(always)]
    unsafe fn block(
        (filled, kth): &mut (usize, u32),
        slots: &mut [(usize, u32)],
        rows: usize,
        b: usize,
        acc: L::Acc,
    ) -> bool {
        let k = slots.len();
        if *filled == k && !acc.any_gt(*kth) {
            return false;
        }
        let mut scores = [0u32; LANES];
        acc.store(&mut scores);
        let base = b * LANES;
        for (l, &s) in scores.iter().enumerate().take(rows - base) {
            topk_insert(slots, filled, base + l, s);
        }
        if *filled < k {
            return false;
        }
        *kth = slots[k - 1].1;
        true
    }

    #[inline(always)]
    unsafe fn finish((filled, _): (usize, u32), slots: &mut [(usize, u32)], _: usize) {
        debug_assert_eq!(filled, slots.len());
    }
}

/// One word window of a cascade stage: part `part`'s rows against bits
/// `[lo, hi)` of `queries` (the full batch for a contiguous memory, the
/// partition's segment batch for a segmented one), scored over words
/// `[lo / 64, ⌈hi / 64⌉)`.
pub(crate) struct Window<'a> {
    pub(crate) stage: usize,
    pub(crate) part: usize,
    pub(crate) queries: &'a QueryBatch,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

impl Window<'_> {
    fn words(&self) -> std::ops::Range<usize> {
        self.lo / 64..self.hi.div_ceil(64)
    }

    /// Whether a stage boundary cuts one of the window's words, which the
    /// pass then masks in a staged copy of the query's words.
    fn cut(&self) -> bool {
        !self.lo.is_multiple_of(64)
            || (!self.hi.is_multiple_of(64) && self.hi != self.queries.dim())
    }
}

/// Everything a cascade's block pass reads, shared by its query
/// chunks: the parts (one memory for a contiguous cascade, one per
/// partition for a segmented one), every stage's word windows in stage
/// order (between
/// them they cover each query bit once), the row-suffix table
/// (`row_suffix[s * stride + r]` = ones of row `r` after stage `s`,
/// `stride` = the rows rounded up to whole blocks), and the flat dot
/// kernel that scores lone live rows and counts query bits.
pub(crate) struct BlockPass<'a> {
    pub(crate) parts: &'a [SearchMemory],
    pub(crate) windows: &'a [Window<'a>],
    pub(crate) row_suffix: &'a [u32],
    pub(crate) dot: fn(&[u64], &[u64]) -> u32,
}

/// One stage's work, summed over queries: the rows entering it, the row
/// blocks it scores, and how many of those held a lone live lane.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageWork {
    pub(crate) rows: u64,
    pub(crate) blocks: u64,
    pub(crate) lone: u64,
}

/// The kernel-table entry of backend `L`: the block pass of queries
/// `q_offset..` into their k-best `lists`, tallied per stage into `work`.
///
/// # Panics
///
/// Panics if the parts disagree on their row count, or a window overruns
/// its part's words.
pub(crate) fn cascade_pass<L: Lanes>(
    pass: &BlockPass<'_>,
    q_offset: usize,
    lists: Slots<'_, (usize, u32)>,
    work: &mut [StageWork],
) {
    let rows = pass.parts[0].rows();
    assert!(pass.parts.iter().all(|p| p.rows() == rows), "block pass: parts disagree on shape");
    let fits = |w: &Window<'_>| {
        w.lo < w.hi
            && w.hi <= w.queries.dim()
            && w.words().end <= pass.parts[w.part].blocked().words_per_row()
    };
    assert!(pass.windows.iter().all(fits), "block pass: window overruns its part");
    // Every window resolved to its panels and rows once per pass, so the
    // per-query loop reads no `SearchMemory`.
    let mut staged = 0usize;
    let views: Vec<WindowView<'_>> = (pass.windows.iter())
        .map(|w| {
            let (part, words) = (&pass.parts[w.part], w.words());
            let blocked = part.blocked();
            let staged_at = w.cut().then(|| {
                staged += words.len();
                staged - words.len()
            });
            WindowView {
                stage: w.stage,
                queries: w.queries,
                words: (words.start, words.end),
                edges: (w.lo % 64, w.hi % 64),
                panels: blocked.data()[words.start * LANES..].as_ptr(),
                stride: blocked.words_per_row() * LANES,
                row_major: part.matrix().words().as_ptr(),
                row_stride: blocked.words_per_row(),
                staged_at,
            }
        })
        .collect();
    // A block's rows hold at most the sum of its parts' block maxima ones
    // over the whole query width.
    let mut block_max = vec![0u32; rows.div_ceil(LANES)];
    for part in pass.parts {
        for (m, &ones) in block_max.iter_mut().zip(part.blocked().block_max()) {
            *m += ones;
        }
    }
    let (row_suffix, dot) = (pass.row_suffix, pass.dot);
    // SAFETY: a kernel table publishes `cascade_pass::<L>` only for a
    // backend whose features were detected on this host. The pass reads
    // the panels of a window's words inside one block, through `panels`,
    // derived from the part's whole blocked buffer; a lone live lane's
    // row-major words (live masks hold real lanes only), through
    // `row_major`, derived from the part's whole row-major buffer, so it
    // may reach every row; the checks above keep both within the part
    // (its row-major rows have the same words per row). And each window's
    // query words, which end inside the query by the same checks.
    unsafe {
        L::run(PassJob {
            views: &views,
            block_max: &block_max,
            row_suffix,
            dot,
            rows,
            staged,
            q_offset,
            lists,
            work,
        })
    }
}

/// A [`Window`] resolved for the pass: its stage, query batch, word range
/// `[words.0, words.1)` and the bit offsets of its bounds inside their
/// words, block 0's first panel of those words (blocks `stride` words
/// apart), the row-major rows (`row_stride` words apart) a lone live lane
/// is scored on, and where its masked query words sit in the staged
/// buffer when a stage boundary cuts one of its words.
#[derive(Clone, Copy)]
struct WindowView<'a> {
    stage: usize,
    queries: &'a QueryBatch,
    words: (usize, usize),
    edges: (usize, usize),
    panels: *const u64,
    stride: usize,
    row_major: *const u64,
    row_stride: usize,
    staged_at: Option<usize>,
}

/// One query chunk of a [`BlockPass`]: its windows resolved to
/// [`WindowView`]s, and every block's largest row popcount.
struct PassJob<'a> {
    views: &'a [WindowView<'a>],
    block_max: &'a [u32],
    row_suffix: &'a [u32],
    dot: fn(&[u64], &[u64]) -> u32,
    rows: usize,
    staged: usize,
    q_offset: usize,
    lists: Slots<'a, (usize, u32)>,
    work: &'a mut [StageWork],
}

impl<L: Lanes> LaneJob<L> for PassJob<'_> {
    /// Per query, stage by stage, block by block: every row block that
    /// still holds a live lane is scored over the stage's word windows,
    /// its lane counts are added to the query's partial scores, and its
    /// lanes enter the stage's k-best list (the final stage's list is the
    /// answer). Stage 0 admits every real lane of a block, unless the
    /// list already holds `k` entries and the block's largest row
    /// popcount is strictly below the k-th: the row-side bound with a
    /// partial of 0, exact because no row scores above its popcount and
    /// the stage's k-th partial is at most the final k-th score. The live
    /// mask of a later stage is a lane compare of the Hamming bound
    /// against the previous stage's k-th best partial: the row-side bound
    /// `partial + row_suffix >= kth` first, then — only once more than
    /// `k` rows survive it — `partial + min(q_suffix, row_suffix) >=
    /// kth`, with the query's suffix popcounts taken the first time they
    /// are needed. See [`crate::cascade`] for why that prune is exact.
    ///
    /// # Safety
    ///
    /// As [`cascade_pass`].
    #[inline(always)]
    unsafe fn run(self) {
        let PassJob { views, block_max, row_suffix, dot, rows, staged, q_offset, lists, work } =
            self;
        let k = lists.per_query;
        let stages = work.len();
        let blocks = block_max.len();
        // Stage `s` owns `views[stage_at[s]..stage_at[s + 1]]`.
        let mut stage_at = vec![0usize; stages + 1];
        for (i, v) in views.iter().enumerate() {
            stage_at[v.stage + 1] = i + 1;
        }
        let (row_suffix, _) = row_suffix.as_chunks::<LANES>();
        // The blocks still in the running, in ascending order: stage 0
        // admits them, every later stage drops those left without a live
        // lane, so a stage walks only what the last one kept.
        let mut active: Vec<LiveBlock> = Vec::with_capacity(blocks);
        let mut qbuf = vec![0u64; staged];
        let mut qwords: Vec<*const u64> = vec![std::ptr::null(); views.len()];
        let mut q_suffix = vec![0u32; stages];
        // Padding lanes never enter: with every bound 0 against a kth of
        // 0 they would pass any compare.
        let last_mask = u8::MAX >> (blocks * LANES - rows);
        for (q, list) in lists.data.chunks_exact_mut(k).enumerate() {
            let q = q_offset + q;
            // The cut windows' query words, boundary bits masked, then
            // every window's words.
            for v in views {
                if let Some(at) = v.staged_at {
                    let buf = &mut qbuf[at..at + v.words.1 - v.words.0];
                    buf.copy_from_slice(&v.queries.query_words(q)[v.words.0..v.words.1]);
                    buf[0] &= u64::MAX << v.edges.0;
                    buf[buf.len() - 1] &= u64::MAX >> ((64 - v.edges.1) % 64);
                }
            }
            for (v, words) in views.iter().zip(&mut qwords) {
                *words = match v.staged_at {
                    Some(at) => qbuf.as_ptr().add(at),
                    None => v.queries.query_words(q)[v.words.0..].as_ptr(),
                };
            }
            let query = |i: usize| {
                let (lo, hi) = views[i].words;
                std::slice::from_raw_parts(qwords[i], hi - lo)
            };
            let mut kth = 0u32;
            let mut q_suffix_ready = false;
            for s in 0..stages {
                let stage = stage_at[s]..stage_at[s + 1];
                let (stage_views, stage_words) = (&views[stage.clone()], &qwords[stage]);
                let tally = &mut work[s];
                let mut filled = 0usize;
                if s == 0 {
                    // Block by block, so the skip sees the list as it
                    // fills: `thr` is its k-th entry once it is full (0
                    // before, which no bound is below).
                    active.clear();
                    let mut thr = 0u32;
                    for (b, &bound) in block_max.iter().enumerate() {
                        if bound < thr {
                            continue;
                        }
                        let mask = if b + 1 == blocks { last_mask } else { u8::MAX };
                        let mut block = LiveBlock { b: b as u32, mask, partial: [0; LANES] };
                        for (&v, &qw) in stage_views.iter().zip(stage_words) {
                            score_block::<L>(&mut block, &v, qw, dot);
                        }
                        admit::<L>(list, &mut filled, tally, &block);
                        if filled == k {
                            thr = list[k - 1].1;
                        }
                        active.push(block);
                    }
                } else {
                    // The bound's lane compare against the last k-th best.
                    let rs = &row_suffix[(s - 1) * blocks..s * blocks];
                    let mut survivors = 0usize;
                    for block in &active {
                        let keep =
                            L::keep_lanes(&block.partial, &rs[block.b as usize], u32::MAX, kth);
                        survivors += (block.mask & keep).count_ones() as usize;
                        if survivors > k {
                            break;
                        }
                    }
                    let q_suf = if survivors > k {
                        if !q_suffix_ready {
                            // Each stage's query ones, then the ones after it.
                            q_suffix.fill(0);
                            for (i, v) in views.iter().enumerate() {
                                q_suffix[v.stage] += dot(query(i), query(i));
                            }
                            let mut after = 0u32;
                            for ones in q_suffix.iter_mut().rev() {
                                (*ones, after) = (after, after + *ones);
                            }
                            q_suffix_ready = true;
                        }
                        q_suffix[s - 1]
                    } else {
                        u32::MAX
                    };
                    for block in &mut active {
                        block.mask &=
                            L::keep_lanes(&block.partial, &rs[block.b as usize], q_suf, kth);
                    }
                    active.retain(|block| block.mask != 0);
                    // Window by window, then the list.
                    for (&v, &qw) in stage_views.iter().zip(stage_words) {
                        for block in &mut active {
                            score_block::<L>(block, &v, qw, dot);
                        }
                    }
                    for block in &active {
                        admit::<L>(list, &mut filled, tally, block);
                    }
                }
                // The stage's k-th entry is the next stage's pruning
                // threshold, the last stage's list is the answer. At least
                // k rows hold a partial >= kth and every bound keeps them,
                // so the list always fills.
                debug_assert_eq!(filled, k);
                kth = list[k - 1].1;
            }
        }
    }
}

/// A row block still in a query's running: its index, its live lanes
/// and their partial scores.
struct LiveBlock {
    b: u32,
    mask: u8,
    partial: [u32; LANES],
}

/// Adds the live lanes' counts of `block` over window `v` (query words
/// at `qw`) to its partial scores. A lone live lane is scored by the flat
/// kernel on its row-major row, so a few wide rows never pay [`LANES`]
/// lanes each.
///
/// # Safety
///
/// As [`cascade_pass`]: `L` is available, and `qw` points at the
/// window's query words.
#[inline(always)]
unsafe fn score_block<L: Lanes>(
    block: &mut LiveBlock,
    v: &WindowView<'_>,
    qw: *const u64,
    dot: fn(&[u64], &[u64]) -> u32,
) {
    let LiveBlock { b, mask, ref mut partial } = *block;
    let b = b as usize;
    let (lo, hi) = v.words;
    let qs = std::slice::from_raw_parts(qw, hi - lo);
    if mask & (mask - 1) != 0 {
        let mut counts = [0u32; LANES];
        L::block_acc(v.panels.add(b * v.stride), qs).store(&mut counts);
        for (x, c) in partial.iter_mut().zip(counts) {
            *x += c;
        }
    } else {
        let l = mask.trailing_zeros() as usize;
        let row = v.row_major.add((b * LANES + l) * v.row_stride + lo);
        partial[l] += dot(std::slice::from_raw_parts(row, hi - lo), qs);
    }
}

/// Tallies `block`'s live lanes into the stage's work and offers those
/// above the list's k-th entry (all of them while it fills) to `list`.
///
/// # Safety
///
/// As [`cascade_pass`].
#[inline(always)]
unsafe fn admit<L: Lanes>(
    list: &mut [(usize, u32)],
    filled: &mut usize,
    tally: &mut StageWork,
    block: &LiveBlock,
) {
    let n = block.mask.count_ones();
    tally.rows += u64::from(n);
    tally.blocks += 1;
    tally.lone += u64::from(n == 1);
    let k = list.len();
    let mut hits = block.mask;
    if *filled == k {
        hits &= L::lanes_above(&block.partial, list[k - 1].1);
    }
    while hits != 0 {
        let l = hits.trailing_zeros() as usize;
        topk_insert(list, filled, block.b as usize * LANES + l, block.partial[l]);
        hits &= hits - 1;
    }
}

/// The lanes where `f` holds, as a bit mask.
#[inline(always)]
fn lanes_where(f: impl Fn(usize) -> bool) -> u8 {
    (0..LANES).fold(0u8, |m, l| m | (u8::from(f(l)) << l))
}

/// Portable blocked kernel: eight scalar accumulator lanes per panel —
/// the scalar backend's sweep and block pass.
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
    use super::{LaneJob, LaneVec, Lanes, LANES};
    use crate::kernel::x86::popcnt_bytes_avx2;
    use std::arch::x86_64::*;

    /// [`Lanes::keep_lanes`] on AVX2 (both x86 backends; the sums stay
    /// far below 2³¹, so the unsigned compares are exact).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn keep_lanes_avx2(
        partial: &[u32; LANES],
        row_suffix: &[u32; LANES],
        q_suffix: u32,
        kth: u32,
    ) -> u8 {
        let p = _mm256_loadu_si256(partial.as_ptr() as *const __m256i);
        let rs = _mm256_loadu_si256(row_suffix.as_ptr() as *const __m256i);
        let bound = _mm256_add_epi32(p, _mm256_min_epu32(rs, _mm256_set1_epi32(q_suffix as i32)));
        // bound >= kth  <=>  max(bound, kth) == bound
        let kth = _mm256_set1_epi32(kth as i32);
        let ge = _mm256_cmpeq_epi32(_mm256_max_epu32(bound, kth), bound);
        _mm256_movemask_ps(_mm256_castsi256_ps(ge)) as u8
    }

    /// [`Lanes::lanes_above`] on AVX2 (both x86 backends).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_above_avx2(partial: &[u32; LANES], thr: u32) -> u8 {
        let p = _mm256_loadu_si256(partial.as_ptr() as *const __m256i);
        // p <= thr  <=>  min(p, thr) == p
        let le = _mm256_cmpeq_epi32(_mm256_min_epu32(p, _mm256_set1_epi32(thr as i32)), p);
        !(_mm256_movemask_ps(_mm256_castsi256_ps(le)) as u8)
    }

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

        #[inline(always)]
        unsafe fn keep_lanes(p: &[u32; LANES], rs: &[u32; LANES], qs: u32, kth: u32) -> u8 {
            keep_lanes_avx2(p, rs, qs, kth)
        }

        #[inline(always)]
        unsafe fn lanes_above(p: &[u32; LANES], thr: u32) -> u8 {
            lanes_above_avx2(p, thr)
        }

        #[target_feature(enable = "avx512f,avx512vpopcntdq")]
        unsafe fn run<J: LaneJob<Self>>(job: J) {
            job.run()
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

        #[inline(always)]
        unsafe fn keep_lanes(p: &[u32; LANES], rs: &[u32; LANES], qs: u32, kth: u32) -> u8 {
            keep_lanes_avx2(p, rs, qs, kth)
        }

        #[inline(always)]
        unsafe fn lanes_above(p: &[u32; LANES], thr: u32) -> u8 {
            lanes_above_avx2(p, thr)
        }

        #[target_feature(enable = "avx2")]
        unsafe fn run<J: LaneJob<Self>>(job: J) {
            job.run()
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
    use super::{LaneJob, Lanes, LANES};
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
        unsafe fn run<J: LaneJob<Self>>(job: J) {
            job.run()
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
        let winners = mem.winners_batch(&batch).unwrap();
        for (q, query) in queries.iter().enumerate() {
            let reference = m.dot_all(query);
            assert_eq!(scores.scores(q), reference.as_slice(), "query {q}");
            assert_eq!(winners[q], crate::argmax_u32(&reference), "query {q}");
        }
        assert_eq!(mem, SearchMemory::new(m));
    }

    #[test]
    fn search_memory_modify_rebuilds() {
        let m = sample_matrix(9, 70);
        let mut mem = SearchMemory::new(m);
        mem.modify(|mat| mat.set(8, 69, true));
        assert!(mem.matrix().get(8, 69));
        assert!(mem.blocked().row(8).get(69), "blocked layout must track mutation");
    }

    /// Each block's largest row popcount, recomputed from the row-major
    /// rows.
    fn fresh_block_max(m: &BitMatrix) -> Vec<u32> {
        let ones: Vec<u32> = (0..m.rows()).map(|r| m.row_view(r).count_ones()).collect();
        ones.chunks(LANES).map(|block| block.iter().copied().max().unwrap()).collect()
    }

    #[test]
    fn block_max_is_derived_wherever_the_layout_is_built() {
        let m = sample_matrix(21, 130);
        let mut mem = SearchMemory::new(m.clone());
        assert_eq!(mem.blocked().block_max(), fresh_block_max(&m).as_slice());
        // A mutation that adds ones to a block's lightest row, and one
        // that empties its heaviest.
        mem.modify(|mat| (0..130).for_each(|c| mat.set(9, c, true)));
        assert_eq!(mem.blocked().block_max()[1], 130);
        mem.modify(|mat| (0..130).for_each(|c| mat.set(9, c, false)));
        assert_eq!(mem.blocked().block_max(), fresh_block_max(mem.matrix()).as_slice());
        // Row ranges: a block-aligned slice cut through a source block
        // (its padding lanes cleared) and an unaligned one (re-packed).
        for (start, count) in [(8usize, 13usize), (0, 21), (16, 5), (3, 11), (5, 16)] {
            let sub = mem.row_range(start, count).unwrap();
            assert_eq!(
                sub.blocked().block_max(),
                fresh_block_max(sub.matrix()).as_slice(),
                "{start}+{count}"
            );
        }
        // Shards.
        for shards in [1usize, 2, 3] {
            for (_, part) in mem.split_rows(shards).unwrap() {
                assert_eq!(part.blocked().block_max(), fresh_block_max(part.matrix()).as_slice());
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mem = SearchMemory::new(sample_matrix(4, 64));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        assert!(mem.dot_batch(&batch).is_err());
        assert!(mem.winners_batch(&batch).is_err());
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
