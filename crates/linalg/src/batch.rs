//! Batched associative search: the query batch, the result types, and
//! the plumbing every sweep shares.
//!
//! The MEMHD hardware answers *many* queries per array activation; the
//! software analogue is one sweep of a [`crate::SearchMemory`] that
//! amortizes every load of the memory across the batch. The batched
//! entry points ([`crate::SearchMemory::dot_batch`],
//! [`crate::SearchMemory::topk_batch`] and their projections) all run the
//! one blocked sweep of [`crate::blocked`]; the one-query entry points
//! ([`BitMatrix::dot_all`], [`BitVector::dot`]) bottom out in the same
//! flat word kernels the cascade scores lone rows with.
//!
//! Layout: a [`QueryBatch`] packs `Q` equal-length queries row-major (the
//! same packing as [`BitMatrix`]); a [`ScoreMatrix`] holds the resulting
//! `Q × R` scores with one contiguous row per query, and a [`TopK`] the
//! per-query k-best lists (one entry per query is the winner).
//!
//! With the `rayon` feature enabled, batches above a size threshold are
//! swept in parallel query chunks (scoped threads; this offline
//! environment has no rayon crate, but the feature name matches the
//! conventional opt-in so downstream crates forward it unchanged). Results
//! are bit-identical with and without the feature.

use crate::bits::{copy_bits, BitMatrix, BitVector, BitView};
use crate::error::{LinalgError, Result};
use crate::kernel;
use std::sync::Arc;

/// Query granularity of the thread chunks [`chunk_queries`] cuts a
/// batch into.
pub(crate) const QUERY_TILE: usize = 8;

/// Minimum `Q × R` word-products before the `rayon` feature spreads a
/// batch across threads; below this the spawn cost dominates.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Minimum word-slice width before the runtime-dispatched SIMD kernels
/// beat the inline scalar loop; below this the indirect call costs more
/// than the vectorization saves (a MEMHD-sized 128-bit row is 2 words).
const DISPATCH_MIN_WORDS: usize = 8;

/// Popcount dot product of two equal-length word slices. Routes through
/// the active [`crate::kernel`] backend for wide slices; short slices
/// (every MEMHD-sized row) keep the inline scalar loop.
#[inline]
pub(crate) fn dot_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < DISPATCH_MIN_WORDS {
        kernel::scalar::dot_words(a, b)
    } else {
        // The SIMD kernels read both slices up to `a.len()`; enforce the
        // equal-length contract here even in release builds (the check is
        // noise next to a ≥ 8-word sweep, and a violation would otherwise
        // be an out-of-bounds read rather than safe truncation).
        assert_eq!(a.len(), b.len(), "dot_words: length mismatch");
        (kernel::active_table().dot_words)(a, b)
    }
}

/// Popcount XOR (Hamming distance) of two equal-length word slices,
/// dispatched like [`dot_words`].
#[inline]
pub(crate) fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < DISPATCH_MIN_WORDS {
        kernel::scalar::hamming_words(a, b)
    } else {
        assert_eq!(a.len(), b.len(), "hamming_words: length mismatch");
        (kernel::active_table().hamming_words)(a, b)
    }
}

/// A flat per-query output buffer: `per_query` consecutive slots for
/// each query, queries in order.
pub(crate) struct Slots<'a, T> {
    pub(crate) data: &'a mut [T],
    pub(crate) per_query: usize,
}

impl<'a, T> Slots<'a, T> {
    pub(crate) fn new(data: &'a mut [T], per_query: usize) -> Self {
        debug_assert!(per_query > 0 && data.len().is_multiple_of(per_query));
        Slots { data, per_query }
    }
}

/// What one batched sweep writes per query — the three sinks every
/// backend serves.
pub(crate) enum SweepOut<'a> {
    /// Every row's score (`rows` slots per query).
    Dot(Slots<'a, u32>),
    /// The k-best `(row, score)` list, score desc then row asc (`k`
    /// slots, with `k` pre-clamped to the row count). One slot per query
    /// is the winner (lowest row on ties), which kernels answer from a
    /// register-resident per-lane best instead of a list.
    KBest(Slots<'a, (usize, u32)>),
}

/// Output buffers a chunked sweep can cut at a query boundary.
pub(crate) trait QuerySplit: Send + Sized {
    /// Splits off the first `queries` queries.
    fn split_queries(self, queries: usize) -> (Self, Self);
}

impl<T: Send> QuerySplit for Slots<'_, T> {
    fn split_queries(self, queries: usize) -> (Self, Self) {
        let (head, tail) = self.data.split_at_mut(queries * self.per_query);
        (Slots { data: head, ..self }, Slots { data: tail, ..self })
    }
}

impl<A: QuerySplit, B: QuerySplit> QuerySplit for (A, B) {
    fn split_queries(self, queries: usize) -> (Self, Self) {
        let (a_head, a_tail) = self.0.split_queries(queries);
        let (b_head, b_tail) = self.1.split_queries(queries);
        ((a_head, b_head), (a_tail, b_tail))
    }
}

impl QuerySplit for SweepOut<'_> {
    fn split_queries(self, queries: usize) -> (Self, Self) {
        match self {
            SweepOut::Dot(s) => {
                let (head, tail) = s.split_queries(queries);
                (SweepOut::Dot(head), SweepOut::Dot(tail))
            }
            SweepOut::KBest(s) => {
                let (head, tail) = s.split_queries(queries);
                (SweepOut::KBest(head), SweepOut::KBest(tail))
            }
        }
    }
}

/// Runs `run(q_offset, part)` over contiguous query chunks of `parts`
/// and returns the chunk results in query order — the one place a sweep
/// is spread across threads. Without the `rayon` feature, and for
/// batches below [`PARALLEL_THRESHOLD`] word-products (`queries ×
/// words_per_query`) or two query tiles, it is a single serial
/// `run(0, parts)`. Otherwise chunks align to [`QUERY_TILE`] and run on
/// scoped threads; queries are independent and chunks own disjoint
/// outputs, so the result is bit-identical to the serial call.
pub(crate) fn chunk_queries<P: QuerySplit, R: Send>(
    queries: usize,
    words_per_query: usize,
    parts: P,
    run: impl Fn(usize, P) -> R + Sync,
) -> Vec<R> {
    let threads = if cfg!(feature = "rayon") {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        1
    };
    if threads < 2 || queries * words_per_query < PARALLEL_THRESHOLD || queries < 2 * QUERY_TILE {
        return vec![run(0, parts)];
    }
    let chunks = threads.min(queries.div_ceil(QUERY_TILE));
    let per_chunk = queries.div_ceil(chunks).next_multiple_of(QUERY_TILE);
    let mut jobs = Vec::with_capacity(chunks);
    let mut rest = parts;
    let mut offset = 0usize;
    while offset < queries {
        let take = per_chunk.min(queries - offset);
        let (head, tail) = rest.split_queries(take);
        jobs.push((offset, head));
        rest = tail;
        offset += take;
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(q_offset, part)| scope.spawn(move || run(q_offset, part)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("query chunk worker panicked")).collect()
    })
}

/// Entry validation shared by every batched search of a
/// [`crate::SearchMemory`]: the batch must be `cols` bits wide.
fn check_width(op: &'static str, cols: usize, batch: &QueryBatch) -> Result<()> {
    if batch.dim() != cols {
        return Err(LinalgError::ShapeMismatch { op, expected: cols, found: batch.dim() });
    }
    Ok(())
}

/// Validated dot sweep: checks the width, sizes `out` to `Q × rows`,
/// and lets `sweep` fill it (a zero-row memory has nothing to score).
pub(crate) fn dot_search(
    (rows, cols): (usize, usize),
    batch: &QueryBatch,
    out: &mut ScoreMatrix,
    sweep: impl FnOnce(SweepOut<'_>),
) -> Result<()> {
    check_width("dot_batch", cols, batch)?;
    out.reset(batch.len(), rows);
    if rows > 0 {
        sweep(SweepOut::Dot(Slots::new(&mut out.data, rows)));
    }
    Ok(())
}

/// Validated k-best sweep (winners are `k = 1`): rejects `k == 0` and a
/// zero-row memory — which has no winner — as [`LinalgError::Empty`],
/// then the width, and lets `sweep` fill `min(k, rows)` slots per query.
pub(crate) fn kbest_search(
    op: &'static str,
    (rows, cols): (usize, usize),
    batch: &QueryBatch,
    k: usize,
    sweep: impl FnOnce(SweepOut<'_>),
) -> Result<TopK> {
    if k == 0 || rows == 0 {
        return Err(LinalgError::Empty { op });
    }
    check_width(op, cols, batch)?;
    let per_query = k.min(rows);
    let mut entries = vec![(0usize, 0u32); batch.len() * per_query];
    sweep(SweepOut::KBest(Slots::new(&mut entries, per_query)));
    Ok(TopK::from_flat(batch.len(), k, per_query, entries))
}

/// A packed batch of equal-length binary queries.
///
/// Construction packs the queries once; every subsequent batched search
/// reuses the packed words without touching the originals. The packed
/// storage is shared (`Arc`), so clones — and the word-aligned
/// column-segment views [`QueryBatch::word_segment`] hands out — are
/// zero-copy. Column-partitioned layouts go through
/// [`QueryBatch::segments`].
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, QueryBatch};
///
/// let queries = vec![
///     BitVector::from_bools(&[true, false, true]),
///     BitVector::from_bools(&[false, true, true]),
/// ];
/// let batch = QueryBatch::from_vectors(&queries).unwrap();
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.dim(), 3);
/// ```
///
/// Equality compares what a search sees — the dimensionality, the query
/// count and every query's bits — not how the words are stored: a
/// [`QueryBatch::word_segment`] view equals a batch packed from the same
/// slices.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    queries: Arc<BitMatrix>,
    /// First visible packed word of every row — non-zero only for
    /// column-segment views.
    word_lo: usize,
    /// Visible bits per query (the full width for non-segment batches).
    dim: usize,
}

impl QueryBatch {
    /// Packs a slice of equal-length queries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty slice and
    /// [`LinalgError::RaggedRows`] on length disagreement.
    pub fn from_vectors(queries: &[BitVector]) -> Result<Self> {
        Ok(Self::from_matrix(BitMatrix::from_rows(queries)?))
    }

    /// Wraps an existing packed matrix (rows = queries).
    pub fn from_matrix(queries: BitMatrix) -> Self {
        let dim = queries.cols();
        QueryBatch { queries: Arc::new(queries), word_lo: 0, dim }
    }

    /// Number of queries `Q`.
    pub fn len(&self) -> usize {
        self.queries.rows()
    }

    /// Whether the batch is empty (never true for a constructed batch).
    pub fn is_empty(&self) -> bool {
        self.queries.rows() == 0
    }

    /// Query dimensionality `D` (the visible segment width for views from
    /// [`QueryBatch::word_segment`]).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows query `q` as a zero-copy [`BitView`] over the packed words
    /// (use [`BitView::to_bit_vector`] when an owned copy is needed).
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    pub fn query(&self, q: usize) -> BitView<'_> {
        BitView::from_clean_words(self.query_words(q), self.dim)
    }

    /// The underlying packed matrix.
    ///
    /// # Panics
    ///
    /// Panics on a column-segment view (from
    /// [`QueryBatch::word_segment`]): a segment has no standalone packed
    /// matrix — that is the copy the view exists to avoid.
    pub fn as_bit_matrix(&self) -> &BitMatrix {
        assert!(
            self.word_lo == 0 && self.dim == self.queries.cols(),
            "as_bit_matrix on a column-segment view"
        );
        &self.queries
    }

    /// A zero-copy view of bit columns `[start, start + len)` of every
    /// query — what column-partitioned layouts (`SegmentedCascade`,
    /// `imc_sim`'s partitioned mappings) feed their per-partition sweeps
    /// instead of re-packing each query's segment. The view shares the
    /// batch's packed storage and behaves as a `len`-bit [`QueryBatch`]
    /// everywhere (searches, further word-aligned sub-segmenting).
    ///
    /// `start` must be word-aligned (`start % 64 == 0`), and the segment
    /// must either end word-aligned or run to the batch's full width —
    /// the two shapes whose packed words are a clean sub-slice of each
    /// row. Unaligned segments need [`BitView::slice`] re-packing.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for a zero-width segment,
    /// [`LinalgError::IndexOutOfBounds`] when the segment overruns the
    /// batch width, and [`LinalgError::ShapeMismatch`] for boundaries off
    /// the word grid.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, QueryBatch};
    ///
    /// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 130])]).unwrap();
    /// let seg = batch.word_segment(64, 64).unwrap(); // no copy
    /// assert_eq!((seg.len(), seg.dim()), (1, 64));
    /// assert_eq!(seg.query(0), batch.query(0).slice(64, 64));
    /// ```
    pub fn word_segment(&self, start: usize, len: usize) -> Result<QueryBatch> {
        if len == 0 {
            return Err(LinalgError::Empty { op: "QueryBatch::word_segment" });
        }
        let end = start.checked_add(len).filter(|&e| e <= self.dim).ok_or(
            LinalgError::IndexOutOfBounds { index: start.saturating_add(len), bound: self.dim },
        )?;
        if !start.is_multiple_of(64) || !(end.is_multiple_of(64) || end == self.dim) {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatch::word_segment",
                expected: 64,
                found: if start.is_multiple_of(64) { end % 64 } else { start % 64 },
            });
        }
        Ok(QueryBatch {
            queries: Arc::clone(&self.queries),
            word_lo: self.word_lo + start / 64,
            dim: len,
        })
    }

    /// The batch pre-sliced into its `dim / seg_len` consecutive
    /// `seg_len`-bit segments — the entry point for column-partitioned
    /// layouts ([`crate::SegmentedCascade`], `imc_sim`'s partitioned
    /// mappings). Segments on the word grid are zero-copy
    /// [`QueryBatch::word_segment`] windows; off it, all segments are
    /// packed into one buffer, each query's words shifted out of the
    /// batch's, and handed out as views of it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `seg_len == 0` and
    /// [`LinalgError::ShapeMismatch`] when `seg_len` does not divide the
    /// batch width.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, QueryBatch};
    ///
    /// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 300])]).unwrap();
    /// let segs = batch.segments(100).unwrap(); // 100 % 64 != 0: packed
    /// assert_eq!(segs.len(), 3);
    /// assert_eq!(segs[1].query(0), batch.query(0).slice(100, 100));
    /// assert_eq!(segs, batch.clone().segments(100).unwrap());
    /// ```
    pub fn segments(&self, seg_len: usize) -> Result<Vec<QueryBatch>> {
        if seg_len == 0 {
            return Err(LinalgError::Empty { op: "QueryBatch::segments" });
        }
        if !self.dim.is_multiple_of(seg_len) {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatch::segments",
                expected: seg_len,
                found: self.dim,
            });
        }
        let parts = self.dim / seg_len;
        if seg_len.is_multiple_of(64) || parts == 1 {
            return Ok((0..parts)
                .map(|p| self.word_segment(p * seg_len, seg_len).expect("validated aligned window"))
                .collect());
        }
        // Off the word grid every segment is packed into one buffer:
        // segment `p` takes words `[p * words, (p + 1) * words)` of each
        // row, shifted out of the query's words.
        let words = seg_len.div_ceil(64);
        let mut data = vec![0u64; self.len() * parts * words];
        for (q, row) in data.chunks_exact_mut(parts * words).enumerate() {
            for (p, out) in row.chunks_exact_mut(words).enumerate() {
                copy_bits(self.query_words(q), p * seg_len, seg_len, out);
            }
        }
        let queries = Arc::new(BitMatrix::from_raw_words(self.len(), parts * words * 64, data));
        Ok((0..parts)
            .map(|p| QueryBatch { queries: Arc::clone(&queries), word_lo: p * words, dim: seg_len })
            .collect())
    }

    #[inline]
    pub(crate) fn query_words(&self, q: usize) -> &[u64] {
        let row = self.queries.row_words_pub(q);
        &row[self.word_lo..self.word_lo + self.dim.div_ceil(64)]
    }
}

impl PartialEq for QueryBatch {
    fn eq(&self, other: &Self) -> bool {
        // Bits of the last word past `dim` are not part of the query.
        let tail = u64::MAX >> ((64 - self.dim % 64) % 64);
        let same = |a: &[u64], b: &[u64]| match (a.split_last(), b.split_last()) {
            (Some((la, a)), Some((lb, b))) => a == b && (la ^ lb) & tail == 0,
            _ => a.len() == b.len(),
        };
        self.dim == other.dim
            && self.len() == other.len()
            && (0..self.len()).all(|q| same(self.query_words(q), other.query_words(q)))
    }
}

impl Eq for QueryBatch {}

/// Incrementally packs single queries into a [`QueryBatch`] without
/// re-packing at build time — the accumulation buffer of a micro-batching
/// service, where queries arrive one at a time but must leave as one
/// packed batch.
///
/// Every [`QueryBatchBuilder::push`] appends the query's packed words to
/// one contiguous row-major buffer (exactly the [`QueryBatch`] layout),
/// so [`QueryBatchBuilder::take_batch`] is a move, not a copy.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, QueryBatchBuilder};
///
/// let mut b = QueryBatchBuilder::new(3);
/// b.push(BitVector::from_bools(&[true, false, true]).as_view()).unwrap();
/// b.push(BitVector::from_bools(&[false, true, true]).as_view()).unwrap();
/// let batch = b.take_batch().unwrap();
/// assert_eq!((batch.len(), batch.dim()), (2, 3));
/// assert!(b.is_empty()); // ready for the next fill cycle
/// ```
#[derive(Debug, Clone)]
pub struct QueryBatchBuilder {
    dim: usize,
    words_per_row: usize,
    len: usize,
    data: Vec<u64>,
}

impl QueryBatchBuilder {
    /// Creates an empty builder for queries of `dim` bits.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "query dimensionality must be positive");
        QueryBatchBuilder { dim, words_per_row: dim.div_ceil(64), len: 0, data: Vec::new() }
    }

    /// Like [`QueryBatchBuilder::new`] with room for `queries` queries.
    pub fn with_capacity(dim: usize, queries: usize) -> Self {
        let mut b = Self::new(dim);
        b.data.reserve(queries * b.words_per_row);
        b
    }

    /// Queries accumulated so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no queries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Query dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Appends one query (packed word copy, no bit manipulation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `query.len() != dim()`.
    pub fn push(&mut self, query: BitView<'_>) -> Result<()> {
        if query.len() != self.dim {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatchBuilder::push",
                expected: self.dim,
                found: query.len(),
            });
        }
        self.data.extend_from_slice(query.as_words());
        self.len += 1;
        Ok(())
    }

    /// Appends already-packed queries in one word copy — the zero-repack
    /// wire-ingest path. `words` must hold a whole number of
    /// `dim().div_ceil(64)`-word rows laid out exactly as [`QueryBatch`]
    /// stores them (row-major, little-endian bit order within each word);
    /// a network frame whose payload uses that layout lands in the
    /// builder with a single `memcpy` and no per-bit repacking. Returns
    /// the number of queries appended.
    ///
    /// Padding bits past `dim()` in each row's last word are cleared
    /// here: wire payloads are untrusted, and every other producer of
    /// packed words in this crate maintains the clean-tail invariant the
    /// popcount kernels rely on.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty slice and
    /// [`LinalgError::ShapeMismatch`] if `words.len()` is not a multiple
    /// of the per-row word count.
    pub fn push_packed_words(&mut self, words: &[u64]) -> Result<usize> {
        if words.is_empty() {
            return Err(LinalgError::Empty { op: "QueryBatchBuilder::push_packed_words" });
        }
        if !words.len().is_multiple_of(self.words_per_row) {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatchBuilder::push_packed_words",
                expected: self.words_per_row,
                found: words.len(),
            });
        }
        let count = words.len() / self.words_per_row;
        let start = self.data.len();
        self.data.extend_from_slice(words);
        let tail = self.dim % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            let mut row_end = start + self.words_per_row - 1;
            while row_end < self.data.len() {
                self.data[row_end] &= mask;
                row_end += self.words_per_row;
            }
        }
        self.len += count;
        Ok(count)
    }

    /// Moves the accumulated queries out as a packed [`QueryBatch`],
    /// leaving the builder empty and ready for the next fill cycle (the
    /// replacement buffer is pre-sized to the outgoing one's capacity, so
    /// a steady-state fill/take loop never walks the reallocation
    /// ladder).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if no queries were pushed.
    pub fn take_batch(&mut self) -> Result<QueryBatch> {
        if self.len == 0 {
            return Err(LinalgError::Empty { op: "QueryBatchBuilder::take_batch" });
        }
        let rows = std::mem::take(&mut self.len);
        let capacity = self.data.capacity();
        let data = std::mem::replace(&mut self.data, Vec::with_capacity(capacity));
        Ok(QueryBatch::from_matrix(BitMatrix::from_raw_words(rows, self.dim, data)))
    }
}

/// A dense `Q × R` matrix of dot-similarity scores: row `q` holds query
/// `q`'s score against every memory row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreMatrix {
    queries: usize,
    rows: usize,
    data: Vec<u32>,
}

impl ScoreMatrix {
    /// Creates a zeroed `queries × rows` score matrix (reusable scratch for
    /// [`crate::SearchMemory::dot_batch_into`]).
    pub fn zeros(queries: usize, rows: usize) -> Self {
        ScoreMatrix { queries, rows, data: vec![0; queries * rows] }
    }

    /// `(queries, rows)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.queries, self.rows)
    }

    /// Number of queries `Q`.
    pub fn num_queries(&self) -> usize {
        self.queries
    }

    /// Number of memory rows `R` scored per query.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Scores of query `q` against every memory row.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_queries()`.
    pub fn scores(&self, q: usize) -> &[u32] {
        &self.data[q * self.rows..(q + 1) * self.rows]
    }

    /// Winning `(row, score)` for query `q`, ties toward the lower row
    /// index — the tie-break every associative search in the workspace
    /// uses.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_queries()` or the matrix has zero rows.
    pub fn argmax(&self, q: usize) -> (usize, u32) {
        argmax_scores(self.scores(q))
    }

    /// Mutable scores of query `q` — for callers that accumulate partial
    /// scores across sub-searches (e.g. partitioned IMC mappings).
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_queries()`.
    pub fn scores_mut(&mut self, q: usize) -> &mut [u32] {
        &mut self.data[q * self.rows..(q + 1) * self.rows]
    }

    /// Resizes (reallocating only on growth) and zeroes the matrix.
    pub fn reset(&mut self, queries: usize, rows: usize) {
        self.queries = queries;
        self.rows = rows;
        self.data.clear();
        self.data.resize(queries * rows, 0);
    }
}

/// Winner selection over a score row: highest score, ties toward the
/// lower index — the tie-break every associative search in the workspace
/// shares (exported as [`crate::argmax_u32`]).
///
/// Two passes, both branch-predictable and auto-vectorizable: a `u32` max
/// reduction, then the first position holding the max (which IS the
/// lowest-index tie-break).
///
/// # Panics
///
/// Panics if `scores` is empty.
#[inline]
pub fn argmax_scores(scores: &[u32]) -> (usize, u32) {
    assert!(!scores.is_empty(), "argmax over empty score row");
    let max = scores.iter().copied().max().expect("non-empty");
    let idx = scores.iter().position(|&s| s == max).expect("max exists");
    (idx, max)
}

/// Per-query k-best results of a batched top-k associative search: for
/// every query, the `min(k, rows)` best `(row, score)` pairs sorted by
/// score descending, ties toward the lower row — the same order a stable
/// sort of the full score row by `(score desc, row asc)` produces, so the
/// list's first entry IS the [`crate::SearchMemory::winners_batch`]
/// winner.
///
/// Storage is one flat buffer with [`TopK::hits_per_query`] slots per
/// query; [`TopK::hits`] slices it per query without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    queries: usize,
    k: usize,
    per_query: usize,
    entries: Vec<(usize, u32)>,
}

impl TopK {
    pub(crate) fn from_flat(
        queries: usize,
        k: usize,
        per_query: usize,
        entries: Vec<(usize, u32)>,
    ) -> Self {
        debug_assert_eq!(entries.len(), queries * per_query);
        TopK { queries, k, per_query, entries }
    }

    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.queries
    }

    /// Whether no queries were answered.
    pub fn is_empty(&self) -> bool {
        self.queries == 0
    }

    /// The `k` that was requested.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries actually held per query: `min(k, rows)` (a memory with
    /// fewer rows than `k` yields every row).
    #[inline]
    pub fn hits_per_query(&self) -> usize {
        self.per_query
    }

    /// Query `q`'s k-best `(row, score)` list, best first.
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    pub fn hits(&self, q: usize) -> &[(usize, u32)] {
        &self.entries[q * self.per_query..(q + 1) * self.per_query]
    }

    /// Consumes the results into the flat buffer behind
    /// [`TopK::hits`]: [`TopK::hits_per_query`] entries per query.
    pub(crate) fn into_flat(self) -> Vec<(usize, u32)> {
        self.entries
    }
}

/// Bounded k-best insertion for an **ascending-row** scan: `list[..
/// *filled]` stays sorted by `(score desc, row asc)`. Rows arrive in
/// ascending order, so a strict `>` threshold against the current k-th
/// score is exact — a later row tying the k-th score loses the row-asc
/// tie-break and can never displace it — and the common case is a single
/// compare (branch only on beat).
#[inline]
pub(crate) fn topk_insert(list: &mut [(usize, u32)], filled: &mut usize, row: usize, score: u32) {
    let n = *filled;
    if n == list.len() {
        if score <= list[n - 1].1 {
            return;
        }
        let mut i = n - 1;
        while i > 0 && list[i - 1].1 < score {
            list[i] = list[i - 1];
            i -= 1;
        }
        list[i] = (row, score);
    } else {
        let mut i = n;
        while i > 0 && list[i - 1].1 < score {
            list[i] = list[i - 1];
            i -= 1;
        }
        list[i] = (row, score);
        *filled = n + 1;
    }
}

impl BitVector {
    /// Dot similarity of this vector against each of `others` — the
    /// one-query-many-memories fast path (all popcounts through the shared
    /// word kernel, no per-pair temporaries).
    ///
    /// # Panics
    ///
    /// Panics if any element of `others` has a different length.
    pub fn dot_many(&self, others: &[BitVector]) -> Vec<u32> {
        others
            .iter()
            .map(|o| {
                assert_eq!(
                    o.len(),
                    self.len(),
                    "dot_many: length mismatch ({} vs {})",
                    o.len(),
                    self.len()
                );
                dot_words(self.as_words(), o.as_words())
            })
            .collect()
    }

    /// Hamming distance of this vector against each of `others`.
    ///
    /// # Panics
    ///
    /// Panics if any element of `others` has a different length.
    pub fn hamming_many(&self, others: &[BitVector]) -> Vec<u32> {
        others
            .iter()
            .map(|o| {
                assert_eq!(
                    o.len(),
                    self.len(),
                    "hamming_many: length mismatch ({} vs {})",
                    o.len(),
                    self.len()
                );
                hamming_words(self.as_words(), o.as_words())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::SearchMemory;
    use rand::Rng;

    fn random_bits(len: usize, rng: &mut rand::rngs::StdRng) -> BitVector {
        let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
        BitVector::from_bools(&bits)
    }

    #[test]
    fn batch_matches_sequential_dot_all() {
        let mut rng = seeded(1);
        for dim in [1usize, 63, 64, 65, 128, 257] {
            let rows: Vec<BitVector> = (0..13).map(|_| random_bits(dim, &mut rng)).collect();
            let m = SearchMemory::from_rows(&rows).unwrap();
            let queries: Vec<BitVector> = (0..9).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let scores = m.dot_batch(&batch).unwrap();
            for (q, query) in queries.iter().enumerate() {
                assert_eq!(scores.scores(q), m.dot_all(query).as_slice(), "dim {dim} q {q}");
            }
        }
    }

    #[test]
    fn dot_batch_argmax_matches_dot_all() {
        let mut rng = seeded(2);
        let rows: Vec<BitVector> = (0..7).map(|_| random_bits(100, &mut rng)).collect();
        let m = SearchMemory::from_rows(&rows).unwrap();
        let queries: Vec<BitVector> = (0..21).map(|_| random_bits(100, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let results = m.dot_batch(&batch).unwrap();
        assert_eq!(results.num_queries(), 21);
        for (q, query) in queries.iter().enumerate() {
            let scores = m.dot_all(query);
            let (row, score) = results.argmax(q);
            assert_eq!(score, scores[row]);
            // Low-row tie-break: no earlier row may match the best score.
            for (r, &s) in scores.iter().enumerate().take(row) {
                assert!(s < score, "query {q}: row {r} ties winner {row}");
            }
            assert!(scores.iter().all(|&s| s <= score));
        }
    }

    #[test]
    fn dot_many_and_hamming_many_match_pairwise() {
        let mut rng = seeded(3);
        let v = random_bits(130, &mut rng);
        let others: Vec<BitVector> = (0..6).map(|_| random_bits(130, &mut rng)).collect();
        let dots = v.dot_many(&others);
        let hams = v.hamming_many(&others);
        for (i, o) in others.iter().enumerate() {
            assert_eq!(dots[i], v.dot(o));
            assert_eq!(hams[i], v.hamming(o));
        }
    }

    #[test]
    fn scratch_reuse_resets_state() {
        let mut rng = seeded(4);
        let rows: Vec<BitVector> = (0..3).map(|_| random_bits(64, &mut rng)).collect();
        let m = SearchMemory::from_rows(&rows).unwrap();
        let q1: Vec<BitVector> = (0..5).map(|_| random_bits(64, &mut rng)).collect();
        let q2: Vec<BitVector> = (0..2).map(|_| random_bits(64, &mut rng)).collect();
        let mut scratch = ScoreMatrix::zeros(0, 0);
        m.dot_batch_into(&QueryBatch::from_vectors(&q1).unwrap(), &mut scratch).unwrap();
        assert_eq!(scratch.shape(), (5, 3));
        m.dot_batch_into(&QueryBatch::from_vectors(&q2).unwrap(), &mut scratch).unwrap();
        assert_eq!(scratch.shape(), (2, 3));
        assert_eq!(scratch.scores(1), m.dot_all(&q2[1]).as_slice());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let m = SearchMemory::new(BitMatrix::zeros(2, 64));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        assert!(matches!(
            m.dot_batch(&batch),
            Err(LinalgError::ShapeMismatch { op: "dot_batch", .. })
        ));
    }

    #[test]
    fn query_batch_roundtrip() {
        let queries = vec![BitVector::from_bools(&[true, false, true]), BitVector::zeros(3)];
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        assert_eq!(batch.query(0), queries[0]);
        assert_eq!(batch.query(1), queries[1]);
        assert!(QueryBatch::from_vectors(&[]).is_err());
    }

    #[test]
    fn winners_batch_matches_dot_batch_argmax() {
        let mut rng = seeded(7);
        for (n_rows, dim, n_queries) in [(3usize, 64usize, 5usize), (128, 128, 300)] {
            let rows: Vec<BitVector> = (0..n_rows).map(|_| random_bits(dim, &mut rng)).collect();
            let m = SearchMemory::from_rows(&rows).unwrap();
            let queries: Vec<BitVector> =
                (0..n_queries).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let winners = m.winners_batch(&batch).unwrap();
            let full = m.dot_batch(&batch).unwrap();
            assert_eq!(winners.len(), n_queries);
            for (q, &w) in winners.iter().enumerate() {
                assert_eq!(w, full.argmax(q), "query {q}");
            }
        }
        // Dimension mismatch is rejected.
        let m = SearchMemory::new(BitMatrix::zeros(2, 64));
        let bad = QueryBatch::from_vectors(&[BitVector::zeros(63)]).unwrap();
        assert!(m.winners_batch(&bad).is_err());
    }

    #[test]
    fn builder_matches_from_vectors() {
        let mut rng = seeded(11);
        let queries: Vec<BitVector> = (0..6).map(|_| random_bits(130, &mut rng)).collect();
        let mut builder = QueryBatchBuilder::with_capacity(130, queries.len());
        for q in &queries {
            builder.push(q.as_view()).unwrap();
        }
        assert_eq!(builder.len(), 6);
        let batch = builder.take_batch().unwrap();
        assert_eq!(batch, QueryBatch::from_vectors(&queries).unwrap());
        // Builder is reusable after take_batch.
        assert!(builder.is_empty());
        assert!(builder.take_batch().is_err());
        builder.push(queries[0].as_view()).unwrap();
        assert_eq!(builder.take_batch().unwrap().len(), 1);
        // Dimension mismatches are rejected without corrupting state.
        let mut b = QueryBatchBuilder::new(8);
        assert!(b.push(BitVector::zeros(9).as_view()).is_err());
        assert!(b.is_empty());
    }

    #[test]
    fn argmax_scores_tie_break() {
        assert_eq!(argmax_scores(&[3, 5, 5, 1]), (1, 5));
        assert_eq!(argmax_scores(&[7]), (0, 7));
        assert_eq!(argmax_scores(&[0, 0, 0]), (0, 0));
    }

    #[test]
    fn equality_compares_visible_bits() {
        let mut rng = seeded(8);
        let queries: Vec<BitVector> = (0..3).map(|_| random_bits(128, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let slices = |lo: usize, len: usize| -> Vec<BitVector> {
            queries.iter().map(|q| q.slice(lo, len)).collect()
        };
        // A zero-copy view equals a batch packed from the same slices,
        // and the other way round.
        let view = batch.word_segment(64, 64).unwrap();
        let packed = QueryBatch::from_vectors(&slices(64, 64)).unwrap();
        assert_eq!(view, packed);
        assert_eq!(packed, view);
        // Views cut differently from the same storage hold other bits.
        assert_ne!(view, batch.word_segment(0, 64).unwrap());
        assert_eq!(
            batch.word_segment(0, 64).unwrap(),
            QueryBatch::from_vectors(&slices(0, 64)).unwrap()
        );
        // Off the word grid too: the packed segment views of `segments`.
        let segs = batch.segments(32).unwrap();
        assert_eq!(segs[3], QueryBatch::from_vectors(&slices(96, 32)).unwrap());
        // The dimension and the query count are part of equality.
        assert_ne!(view, QueryBatch::from_vectors(&slices(64, 64)[..2]).unwrap());
        assert_ne!(batch, view);
    }

    #[test]
    fn segments_match_per_bit_slices_on_every_grid() {
        let mut rng = seeded(7);
        // Word-aligned (64), unaligned (100, 50), and sub-word (25)
        // partitionings all reproduce the per-bit slices exactly.
        for (dim, seg_len) in [
            (256usize, 64usize),
            (300, 100),
            (300, 150),
            (300, 75),
            (300, 50),
            (100, 25),
            (130, 65),
        ] {
            let queries: Vec<BitVector> = (0..9).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let segs = batch.segments(seg_len).unwrap();
            assert_eq!(segs.len(), dim / seg_len);
            for (p, seg) in segs.iter().enumerate() {
                assert_eq!((seg.len(), seg.dim()), (queries.len(), seg_len));
                for (i, q) in queries.iter().enumerate() {
                    assert_eq!(
                        seg.query(i).to_bit_vector(),
                        q.slice(p * seg_len, seg_len),
                        "dim {dim} seg {seg_len} part {p} query {i}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Any interleaving of `segments` calls across a batch and its
        /// clone, over aligned and unaligned `seg_len`s, returns views of
        /// exactly the requested `seg_len` whose bits match a per-bit
        /// reference slice.
        #[test]
        fn segments_interleaved_across_clones_match_slices(
            ops in proptest::collection::vec(0usize..4, 1..24),
            rows in 1usize..5,
            seed in 0u64..(1u64 << 32),
        ) {
            use proptest::prelude::prop_assert_eq;
            let lens = [100usize, 150, 75, 300];
            let mut rng = seeded(seed);
            let queries: Vec<BitVector> = (0..rows).map(|_| random_bits(300, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let clone = batch.clone();
            for (i, &op) in ops.iter().enumerate() {
                let seg_len = lens[op];
                // Alternate between the original and the clone.
                let via = if i % 2 == 0 { &batch } else { &clone };
                let segs = via.segments(seg_len).unwrap();
                prop_assert_eq!(segs.len(), 300 / seg_len);
                for (p, seg) in segs.iter().enumerate() {
                    prop_assert_eq!(seg.dim(), seg_len);
                    for q in 0..rows {
                        prop_assert_eq!(
                            seg.query(q).to_bit_vector(),
                            batch.query(q).slice(p * seg_len, seg_len)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn push_packed_words_matches_per_query_push_and_cleans_tails() {
        let mut rng = seeded(23);
        for dim in [64usize, 130, 300] {
            let queries: Vec<BitVector> = (0..6).map(|_| random_bits(dim, &mut rng)).collect();
            // Wire layout: each query's packed words back to back.
            let wpr = dim.div_ceil(64);
            let mut words: Vec<u64> = Vec::with_capacity(6 * wpr);
            for q in &queries {
                words.extend_from_slice(q.as_words());
            }
            // Dirty the padding bits the way a hostile client could.
            if dim % 64 != 0 {
                for r in 0..queries.len() {
                    words[r * wpr + wpr - 1] |= !0u64 << (dim % 64);
                }
            }
            let mut packed = QueryBatchBuilder::new(dim);
            assert_eq!(packed.push_packed_words(&words).unwrap(), queries.len());
            assert_eq!(packed.len(), queries.len());
            let mut reference = QueryBatchBuilder::new(dim);
            for q in &queries {
                reference.push(q.as_view()).unwrap();
            }
            // Bit-identical to the per-query path (tails cleaned), so
            // the wire payload landed without any repacking step.
            assert_eq!(packed.take_batch().unwrap(), reference.take_batch().unwrap());
        }
    }

    #[test]
    fn push_packed_words_rejects_bad_shapes_and_interleaves_with_push() {
        let mut rng = seeded(24);
        let dim = 130usize;
        let wpr = dim.div_ceil(64);
        let queries: Vec<BitVector> = (0..5).map(|_| random_bits(dim, &mut rng)).collect();
        let mut b = QueryBatchBuilder::new(dim);
        assert!(matches!(
            b.push_packed_words(&[]),
            Err(LinalgError::Empty { op: "QueryBatchBuilder::push_packed_words" })
        ));
        let stray = vec![0u64; wpr + 1];
        assert!(matches!(
            b.push_packed_words(&stray),
            Err(LinalgError::ShapeMismatch { found: 4, .. })
        ));
        assert!(b.is_empty(), "failed pushes must not enqueue partial rows");
        // Mixed single-query and packed-frame ingestion builds the same
        // batch as packing everything up front.
        b.push(queries[0].as_view()).unwrap();
        let mut frame: Vec<u64> = Vec::new();
        for q in &queries[1..4] {
            frame.extend_from_slice(q.as_words());
        }
        assert_eq!(b.push_packed_words(&frame).unwrap(), 3);
        b.push(queries[4].as_view()).unwrap();
        assert_eq!(b.take_batch().unwrap(), QueryBatch::from_vectors(&queries).unwrap());
    }

    #[test]
    fn segments_validate_partitioning() {
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(128)]).unwrap();
        assert!(matches!(
            batch.segments(0),
            Err(LinalgError::Empty { op: "QueryBatch::segments" })
        ));
        assert!(matches!(
            batch.segments(100),
            Err(LinalgError::ShapeMismatch { op: "QueryBatch::segments", .. })
        ));
        // The full width is a valid single-segment partitioning.
        let whole = batch.segments(128).unwrap();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0], batch);
    }

    #[test]
    fn large_batch_exercises_tiling_tails() {
        // 10 queries over 5 rows: one partially padded row block.
        let mut rng = seeded(5);
        let rows: Vec<BitVector> = (0..5).map(|_| random_bits(65, &mut rng)).collect();
        let m = SearchMemory::from_rows(&rows).unwrap();
        let queries: Vec<BitVector> = (0..10).map(|_| random_bits(65, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let scores = m.dot_batch(&batch).unwrap();
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(scores.scores(q), query.dot_many(&rows).as_slice());
        }
    }
}
