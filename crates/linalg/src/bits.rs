//! Bit-packed binary vectors and matrices.
//!
//! Binary hypervectors in MEMHD take values in `{0, 1}` and are compared
//! with *dot similarity*, which for binary operands is the popcount of the
//! bitwise AND. Packing 64 components per `u64` word makes an associative
//! search over a whole memory a handful of popcount instructions per class
//! vector — the software analogue of the single-cycle in-memory MVM the
//! paper maps onto SRAM arrays.

use crate::error::{LinalgError, Result};

const WORD_BITS: usize = 64;

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask selecting the valid bits of the final word of a `len`-bit vector.
#[inline]
fn tail_mask(len: usize) -> u64 {
    let rem = len % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// A bit-packed binary (`{0,1}`) vector.
///
/// The unused bits of the final storage word are always zero, so popcount
/// based operations never see garbage.
///
/// # Example
///
/// ```
/// use hd_linalg::BitVector;
///
/// let a = BitVector::from_bools(&[true, true, false]);
/// let b = BitVector::from_bools(&[true, false, false]);
/// assert_eq!(a.dot(&b), 1);
/// assert_eq!(a.hamming(&b), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    len: usize,
    words: Vec<u64>,
}

impl BitVector {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVector { len, words: vec![0; words_for(len)] }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVector { len, words: vec![u64::MAX; words_for(len)] };
        v.mask_tail();
        v
    }

    /// Builds a vector from booleans (`true` ⇒ 1).
    pub fn from_bools(bits: &[bool]) -> Self {
        // A word at a time, branch-free: bit `i` of a word is `chunk[i]`,
        // and a short final chunk leaves the tail bits zero.
        let words = bits
            .chunks(WORD_BITS)
            .map(|chunk| chunk.iter().rev().fold(0u64, |w, &b| (w << 1) | u64::from(b)))
            .collect();
        BitVector { len: bits.len(), words }
    }

    /// Builds a vector by thresholding `values`: bit `i` is 1 iff
    /// `values[i] > threshold`.
    ///
    /// This is the 1-bit quantization primitive of the paper (§III-B):
    /// MEMHD binarizes the floating-point associative memory at its mean.
    pub fn from_threshold(values: &[f32], threshold: f32) -> Self {
        let mut v = BitVector::zeros(values.len());
        for (i, &x) in values.iter().enumerate() {
            if x > threshold {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a vector by thresholding `values` at their own mean.
    pub fn from_mean_threshold(values: &[f32]) -> Self {
        Self::from_threshold(values, crate::vector::mean(values))
    }

    /// Reconstructs a vector from its packed word representation (the
    /// inverse of [`BitVector::as_words`]), for deserialization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the word count does not
    /// match `len`, and [`LinalgError::IndexOutOfBounds`] if bits beyond
    /// `len` are set in the final word.
    pub fn from_words(len: usize, words: Vec<u64>) -> Result<Self> {
        if words.len() != words_for(len) {
            return Err(LinalgError::ShapeMismatch {
                op: "from_words",
                expected: words_for(len),
                found: words.len(),
            });
        }
        if let Some(&last) = words.last() {
            if last & !tail_mask(len) != 0 {
                return Err(LinalgError::IndexOutOfBounds { index: len, bound: len });
            }
        }
        Ok(BitVector { len, words })
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds for length {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds for length {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Dot similarity for binary vectors: `popcount(a AND b)`.
    ///
    /// This is the similarity measure of paper Eq. (3) specialized to
    /// `{0,1}` operands, and the quantity an IMC array computes per column.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVector) -> u32 {
        assert_eq!(self.len, other.len, "dot: length mismatch ({} vs {})", self.len, other.len);
        crate::batch::dot_words(&self.words, &other.words)
    }

    /// Hamming distance: `popcount(a XOR b)`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &BitVector) -> u32 {
        assert_eq!(self.len, other.len, "hamming: length mismatch ({} vs {})", self.len, other.len);
        crate::batch::hamming_words(&self.words, &other.words)
    }

    /// Expands to a `{0.0, 1.0}` float vector.
    pub fn to_f32(&self) -> Vec<f32> {
        (0..self.len).map(|i| if self.get(i) { 1.0 } else { 0.0 }).collect()
    }

    /// Selective sum: `Σ values[i]` over set bits `i`.
    ///
    /// Equivalent to the dot product of this binary vector with a real
    /// vector — one output of a binary random projection.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn dot_f32(&self, values: &[f32]) -> f32 {
        assert_eq!(
            values.len(),
            self.len,
            "dot_f32: length mismatch ({} vs {})",
            values.len(),
            self.len
        );
        let mut acc = 0.0f32;
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            let base = wi * WORD_BITS;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                acc += values[base + bit];
                w &= w - 1;
            }
        }
        acc
    }

    /// Returns a copy rotated left by `k` positions (bit `i` moves to
    /// `(i + k) mod len`).
    ///
    /// Cyclic shifts are the classic HDC *permutation* operation: they
    /// produce a vector nearly orthogonal to the original, which n-gram
    /// text encoders use to mark symbol positions.
    pub fn rotate_left(&self, k: usize) -> BitVector {
        if self.len == 0 {
            return self.clone();
        }
        let k = k % self.len;
        let mut out = BitVector::zeros(self.len);
        for i in self.iter_ones() {
            out.set((i + k) % self.len, true);
        }
        out
    }

    /// Bitwise XOR — HDC's binding operator for binary hypervectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &BitVector) -> BitVector {
        assert_eq!(self.len, other.len, "xor: length mismatch ({} vs {})", self.len, other.len);
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a ^ b).collect();
        BitVector { len: self.len, words }
    }

    /// Copies out the `len`-bit sub-vector starting at bit `start`, using
    /// word-level shifts (the segment-extraction primitive of partitioned
    /// IMC mappings).
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn slice(&self, start: usize, len: usize) -> BitVector {
        assert!(
            start + len <= self.len,
            "slice [{start}, {start}+{len}) out of bounds for length {}",
            self.len
        );
        slice_packed(&self.words, start, len)
    }

    /// Borrows this vector as a zero-copy [`BitView`].
    #[inline]
    pub fn as_view(&self) -> BitView<'_> {
        BitView { len: self.len, words: &self.words }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes { vec: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Zeroes any bits beyond `len` in the last word, restoring the
    /// invariant relied on by popcount operations.
    fn mask_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.len);
        }
    }

    /// Raw packed words (little-endian bit order within each word).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// Word-shift extraction of a `len`-bit span starting at bit `start` of a
/// packed word buffer (bits beyond the buffer read as zero).
fn slice_packed(words: &[u64], start: usize, len: usize) -> BitVector {
    let mut out = BitVector::zeros(len);
    copy_bits(words, start, len, &mut out.words);
    out
}

/// Writes bits `[start, start + len)` of `words` into `out`, one shifted
/// word per 64 bits (`out.len() == len.div_ceil(64)`), bits past `len`
/// cleared.
pub(crate) fn copy_bits(words: &[u64], start: usize, len: usize, out: &mut [u64]) {
    let word_off = start / WORD_BITS;
    let bit_off = start % WORD_BITS;
    for (i, o) in out.iter_mut().enumerate() {
        let lo = words.get(word_off + i).copied().unwrap_or(0) >> bit_off;
        let hi = if bit_off == 0 {
            0
        } else {
            words.get(word_off + i + 1).copied().unwrap_or(0) << (WORD_BITS - bit_off)
        };
        *o = lo | hi;
    }
    if let Some(last) = out.last_mut() {
        *last &= tail_mask(len);
    }
}

/// A borrowed, zero-copy view of one bit-packed row — what
/// [`crate::QueryBatch::query`] and [`BitMatrix::row_view`] hand out
/// instead of allocating a fresh [`BitVector`] per call.
///
/// The view supports the read-side operations of [`BitVector`] (dot,
/// Hamming, segment extraction, bit access) directly on the borrowed
/// words; [`BitView::to_bit_vector`] makes an owned copy when one is
/// genuinely needed.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, QueryBatch};
///
/// let queries = vec![BitVector::from_bools(&[true, false, true])];
/// let batch = QueryBatch::from_vectors(&queries).unwrap();
/// let view = batch.query(0); // no allocation
/// assert_eq!(view, queries[0]);
/// assert_eq!(view.dot(&queries[0]), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BitView<'a> {
    len: usize,
    words: &'a [u64],
}

impl<'a> BitView<'a> {
    /// Wraps already-packed words whose tail past `len` bits is known
    /// clean (the invariant every packed row in the crate maintains).
    #[inline]
    pub(crate) fn from_clean_words(words: &'a [u64], len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(WORD_BITS));
        debug_assert!(
            len.is_multiple_of(WORD_BITS)
                || words.last().is_none_or(|&w| w >> (len % WORD_BITS) == 0),
            "tail bits past the view length must be zero"
        );
        BitView { len, words }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds for length {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Dot similarity (`popcount(a AND b)`) against an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVector) -> u32 {
        self.dot_view(other.as_view())
    }

    /// Dot similarity against another view.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot_view(&self, other: BitView<'_>) -> u32 {
        assert_eq!(self.len, other.len, "dot: length mismatch ({} vs {})", self.len, other.len);
        crate::batch::dot_words(self.words, other.words)
    }

    /// Hamming distance (`popcount(a XOR b)`) against an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &BitVector) -> u32 {
        self.hamming_view(other.as_view())
    }

    /// Hamming distance against another view.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_view(&self, other: BitView<'_>) -> u32 {
        assert_eq!(self.len, other.len, "hamming: length mismatch ({} vs {})", self.len, other.len);
        crate::batch::hamming_words(self.words, other.words)
    }

    /// Copies out the `len`-bit sub-vector starting at `start` (the only
    /// allocation a segment extraction needs — the source stays borrowed).
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn slice(&self, start: usize, len: usize) -> BitVector {
        assert!(
            start + len <= self.len,
            "slice [{start}, {start}+{len}) out of bounds for length {}",
            self.len
        );
        slice_packed(self.words, start, len)
    }

    /// Makes an owned copy.
    pub fn to_bit_vector(&self) -> BitVector {
        BitVector { len: self.len, words: self.words.to_vec() }
    }

    /// The borrowed packed words.
    #[inline]
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }
}

impl PartialEq for BitView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for BitView<'_> {}

impl PartialEq<BitVector> for BitView<'_> {
    fn eq(&self, other: &BitVector) -> bool {
        self.len == other.len && self.words == &other.words[..]
    }
}

impl PartialEq<BitView<'_>> for BitVector {
    fn eq(&self, other: &BitView<'_>) -> bool {
        other == self
    }
}

impl<'a> From<&'a BitVector> for BitView<'a> {
    fn from(v: &'a BitVector) -> Self {
        v.as_view()
    }
}

/// Iterator over set-bit indices of a [`BitVector`], produced by
/// [`BitVector::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    vec: &'a BitVector,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

/// A matrix of bit-packed binary rows.
///
/// MEMHD's binary associative memory stores one class vector per IMC array
/// *column*; in software we keep each class vector as one bit-packed *row*
/// so an associative search is a row-wise popcount sweep
/// ([`BitMatrix::dot_all`]).
///
/// # Example
///
/// ```
/// use hd_linalg::{BitMatrix, BitVector};
///
/// let rows = vec![
///     BitVector::from_bools(&[true, false, true]),
///     BitVector::from_bools(&[false, true, true]),
/// ];
/// let m = BitMatrix::from_rows(&rows).unwrap();
/// let q = BitVector::from_bools(&[true, true, true]);
/// assert_eq!(m.dot_all(&q), vec![2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` bit matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let wpr = words_for(cols);
        BitMatrix { rows, cols, words_per_row: wpr, data: vec![0; rows * wpr] }
    }

    /// Builds a matrix from equal-length [`BitVector`] rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty row set and
    /// [`LinalgError::RaggedRows`] if rows disagree on length.
    pub fn from_rows(rows: &[BitVector]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { op: "BitMatrix::from_rows" });
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::RaggedRows { first: cols, row: i, len: r.len() });
            }
        }
        let wpr = words_for(cols);
        let mut data = Vec::with_capacity(rows.len() * wpr);
        for r in rows {
            data.extend_from_slice(r.as_words());
        }
        Ok(BitMatrix { rows: rows.len(), cols, words_per_row: wpr, data })
    }

    /// Number of rows.
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

    #[inline]
    fn row_words(&self, r: usize) -> &[u64] {
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Packed words of row `r` — crate-internal access for the batched
    /// kernels in [`crate::batch`].
    #[inline]
    pub(crate) fn row_words_pub(&self, r: usize) -> &[u64] {
        self.row_words(r)
    }

    /// Every row's packed words, row after row — crate-internal access
    /// for the cascade's block pass, which offsets into any row.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.data
    }

    /// Words per packed row — crate-internal access for kernel dispatch in
    /// [`crate::batch`].
    #[inline]
    pub(crate) fn words_per_row_pub(&self) -> usize {
        self.words_per_row
    }

    /// Returns bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "bit index ({r},{c}) out of bounds");
        (self.row_words(r)[c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(r < self.rows && c < self.cols, "bit index ({r},{c}) out of bounds");
        let idx = r * self.words_per_row + c / WORD_BITS;
        let mask = 1u64 << (c % WORD_BITS);
        if value {
            self.data[idx] |= mask;
        } else {
            self.data[idx] &= !mask;
        }
    }

    /// Copies row `r` out as a [`BitVector`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> BitVector {
        assert!(r < self.rows, "row index {r} out of bounds");
        BitVector { len: self.cols, words: self.row_words(r).to_vec() }
    }

    /// Borrows row `r` as a zero-copy [`BitView`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_view(&self, r: usize) -> BitView<'_> {
        assert!(r < self.rows, "row index {r} out of bounds");
        BitView { len: self.cols, words: self.row_words(r) }
    }

    /// Overwrites row `r` with `values`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `values.len() != cols`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn set_row(&mut self, r: usize, values: &BitVector) -> Result<()> {
        assert!(r < self.rows, "row index {r} out of bounds");
        if values.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "set_row",
                expected: self.cols,
                found: values.len(),
            });
        }
        let start = r * self.words_per_row;
        self.data[start..start + self.words_per_row].copy_from_slice(values.as_words());
        Ok(())
    }

    /// Wraps pre-packed row-major words (tails already clean) — the
    /// zero-repack constructor behind [`crate::QueryBatchBuilder`].
    #[inline]
    pub(crate) fn from_raw_words(rows: usize, cols: usize, data: Vec<u64>) -> Self {
        let words_per_row = words_for(cols);
        debug_assert_eq!(data.len(), rows * words_per_row);
        BitMatrix { rows, cols, words_per_row, data }
    }

    /// Copies rows `[start, start + count)` into a new matrix — the
    /// row-major side of shard splitting (see
    /// [`crate::SearchMemory::split_rows`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `count == 0` and
    /// [`LinalgError::IndexOutOfBounds`] when the range overruns `rows()`.
    pub fn row_range(&self, start: usize, count: usize) -> Result<BitMatrix> {
        if count == 0 {
            return Err(LinalgError::Empty { op: "BitMatrix::row_range" });
        }
        let end = start.checked_add(count).filter(|&e| e <= self.rows).ok_or_else(|| {
            LinalgError::IndexOutOfBounds {
                index: start.saturating_add(count) - 1,
                bound: self.rows,
            }
        })?;
        let wpr = self.words_per_row;
        Ok(BitMatrix {
            rows: count,
            cols: self.cols,
            words_per_row: wpr,
            data: self.data[start * wpr..end * wpr].to_vec(),
        })
    }

    /// Dot similarity of row `r` with a binary query.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or `r >= rows`.
    pub fn row_dot(&self, r: usize, query: &BitVector) -> u32 {
        assert!(r < self.rows, "row index {r} out of bounds");
        assert_eq!(query.len(), self.cols, "row_dot: query length mismatch");
        crate::batch::dot_words(self.row_words(r), query.as_words())
    }

    /// Dot similarity of every row with a binary query — a full associative
    /// search (one in-memory MVM in the paper's architecture).
    ///
    /// This is the flat-kernel row walk the batched sweep
    /// ([`crate::SearchMemory::dot_batch`]) is tested against. Prefer the
    /// batched entry point when answering many queries.
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from `cols`.
    pub fn dot_all(&self, query: &BitVector) -> Vec<u32> {
        assert_eq!(query.len(), self.cols, "dot_all: query length mismatch");
        let qw = query.as_words();
        (0..self.rows).map(|r| crate::batch::dot_words(self.row_words(r), qw)).collect()
    }

    /// Dot product of every row with a real-valued input — a binary-weight
    /// MVM (`y = B·x`): a set-bit walk into one serial f32 sum per row.
    /// It is the reference [`BitMatrix::matvec_t_f32`] (the projection
    /// encoder's kernel) is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_f32(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec_f32: input length mismatch");
        (0..self.rows)
            .map(|r| {
                let mut acc = 0.0f32;
                for (wi, &word) in self.row_words(r).iter().enumerate() {
                    let mut w = word;
                    let base = wi * WORD_BITS;
                    while w != 0 {
                        let bit = w.trailing_zeros() as usize;
                        acc += x[base + bit];
                        w &= w - 1;
                    }
                }
                acc
            })
            .collect()
    }

    /// Dot product of every column with a real-valued input — the
    /// transposed binary-weight MVM (`y = Bᵀ·x`), on the active kernel
    /// backend. Output `c` sums `x[r]` over the rows `r` whose bit `c` is
    /// set, in ascending `r`, from `+0.0`: the same f32 additions in the
    /// same order as [`BitMatrix::matvec_f32`] on the transpose, so the
    /// two are bit-identical. Every backend adds `x[r]` into a run of
    /// outputs at once: a masked add straight from row `r`'s words.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t_f32(&self, x: &[f32]) -> Vec<f32> {
        crate::kernel::matvec_t_f32_with(crate::kernel::active(), self, x)
    }

    /// The transpose: bit `(c, r)` of the result is bit `(r, c)` of `self`.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for (wi, &word) in self.row_words(r).iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    t.set(wi * WORD_BITS + w.trailing_zeros() as usize, r, true);
                    w &= w - 1;
                }
            }
        }
        t
    }

    /// Total number of set bits in the matrix.
    pub fn count_ones(&self) -> u64 {
        self.data.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Memory footprint of the payload in bits (`rows × cols`), the
    /// quantity the paper's memory-requirement comparisons use.
    pub fn payload_bits(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Bitwise majority vote across equally-shaped matrices: output bit
    /// `(r, c)` is set iff a **strict** majority of the replicas set it.
    /// Exact for an odd replica count; with an even count an exact tie
    /// (`R/2` votes) resolves to 0. See [`majority_words`].
    ///
    /// This is the digital model of replicated-array readout: the same
    /// logical memory programmed onto `R` independently-faulted physical
    /// arrays reads back with per-cell error `O(p^2)` instead of `O(p)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty replica slice and
    /// [`LinalgError::ShapeMismatch`] when the shapes disagree.
    pub fn bitwise_majority(replicas: &[&BitMatrix]) -> Result<BitMatrix> {
        let first = replicas.first().ok_or(LinalgError::Empty { op: "bitwise_majority" })?;
        for m in replicas {
            if m.shape() != first.shape() {
                let (expected, found) =
                    if m.cols != first.cols { (first.cols, m.cols) } else { (first.rows, m.rows) };
                return Err(LinalgError::ShapeMismatch { op: "bitwise_majority", expected, found });
            }
        }
        let mut out = BitMatrix::zeros(first.rows, first.cols);
        let words: Vec<&[u64]> = replicas.iter().map(|m| m.data.as_slice()).collect();
        // Row tails are clean in every replica, so the word-level vote
        // keeps them clean in the output (zero votes never win).
        majority_words(&words, &mut out.data);
        Ok(out)
    }
}

/// Word-level bitwise majority vote: `out` bit `i` is set iff a
/// **strict** majority (`> R/2`) of the `R` replica slices set bit `i`.
/// Exact for odd `R`; with even `R` an exact tie (`R/2` votes) resolves
/// to 0, so prefer odd replication. `R == 1` is a plain copy.
///
/// The vote runs entirely on packed words: replica words accumulate into
/// `ceil(log2(R+1))` bit-sliced counter planes (a carry-save adder per
/// bit lane), and the threshold compare is a bitwise borrow ripple — no
/// per-bit extraction anywhere, so voting costs `O(R log R)` word ops
/// per output word.
///
/// # Panics
///
/// Panics when `replicas` is empty or any slice length differs from
/// `out`'s (the [`BitVector::majority`] / [`BitMatrix::bitwise_majority`]
/// wrappers validate and return errors instead).
pub fn majority_words(replicas: &[&[u64]], out: &mut [u64]) {
    assert!(!replicas.is_empty(), "majority_words: no replicas");
    for (i, r) in replicas.iter().enumerate() {
        assert_eq!(r.len(), out.len(), "majority_words: replica {i} length mismatch");
    }
    match replicas {
        [only] => out.copy_from_slice(only),
        [a, b, c] => {
            // Majority-of-3: one word of carry-save logic per lane.
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = (a[i] & b[i]) | ((a[i] | b[i]) & c[i]);
            }
        }
        _ => {
            let r = replicas.len();
            let threshold = r / 2 + 1;
            // Planes enough to count up to R without overflow.
            let planes = (usize::BITS - r.leading_zeros()) as usize;
            let mut counter = vec![0u64; planes];
            for (i, slot) in out.iter_mut().enumerate() {
                counter.iter_mut().for_each(|p| *p = 0);
                for rep in replicas {
                    // Carry-save add of one vote into the bit-sliced
                    // counter (64 lanes at once).
                    let mut carry = rep[i];
                    for plane in counter.iter_mut() {
                        let t = *plane & carry;
                        *plane ^= carry;
                        carry = t;
                        if carry == 0 {
                            break;
                        }
                    }
                }
                // Bitwise compare `counter >= threshold` per lane via the
                // borrow ripple of `counter - threshold`: a lane ends with
                // no borrow exactly when its count reached the threshold.
                let mut borrow = 0u64;
                for (j, &plane) in counter.iter().enumerate() {
                    let t = if (threshold >> j) & 1 == 1 { u64::MAX } else { 0 };
                    borrow = (!plane & (t | borrow)) | (t & borrow);
                }
                *slot = !borrow;
            }
        }
    }
}

impl BitVector {
    /// Bitwise majority vote across equally-sized vectors (see
    /// [`majority_words`]): bit `i` of the result is set iff a strict
    /// majority of the replicas set it. Exact for odd replica counts.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty replica slice and
    /// [`LinalgError::ShapeMismatch`] when the lengths disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::BitVector;
    ///
    /// let a = BitVector::from_bools(&[true, true, false]);
    /// let b = BitVector::from_bools(&[true, false, false]);
    /// let c = BitVector::from_bools(&[false, true, true]);
    /// let m = BitVector::majority(&[&a, &b, &c]).unwrap();
    /// assert_eq!(m, BitVector::from_bools(&[true, true, false]));
    /// ```
    pub fn majority(replicas: &[&BitVector]) -> Result<BitVector> {
        let first = replicas.first().ok_or(LinalgError::Empty { op: "majority" })?;
        for v in replicas {
            if v.len != first.len {
                return Err(LinalgError::ShapeMismatch {
                    op: "majority",
                    expected: first.len,
                    found: v.len,
                });
            }
        }
        let mut out = BitVector::zeros(first.len);
        let words: Vec<&[u64]> = replicas.iter().map(|v| v.words.as_slice()).collect();
        majority_words(&words, &mut out.words);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_counts() {
        assert_eq!(BitVector::zeros(100).count_ones(), 0);
        assert_eq!(BitVector::ones(100).count_ones(), 100);
    }

    #[test]
    fn tail_bits_masked() {
        let v = BitVector::ones(65);
        assert_eq!(v.count_ones(), 65);
        assert_eq!(v.as_words().len(), 2);
        assert_eq!(v.as_words()[1], 1);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVector::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn from_bools_places_every_bit_across_word_seams() {
        for len in [0, 1, 63, 64, 65, 127, 128, 130] {
            let bools: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i % 7 == 5).collect();
            let v = BitVector::from_bools(&bools);
            assert_eq!(v.len(), len);
            assert_eq!(v.as_words().len(), len.div_ceil(64), "len {len}");
            for (i, &b) in bools.iter().enumerate() {
                assert_eq!(v.get(i), b, "len {len} bit {i}");
            }
            // The tail stays zero: from_words accepts exactly valid tails.
            assert_eq!(BitVector::from_words(len, v.as_words().to_vec()).unwrap(), v);
        }
    }

    #[test]
    fn from_words_roundtrip() {
        let mut v = BitVector::zeros(70);
        v.set(0, true);
        v.set(69, true);
        let back = BitVector::from_words(70, v.as_words().to_vec()).unwrap();
        assert_eq!(back, v);
        // Wrong word count rejected.
        assert!(BitVector::from_words(70, vec![0]).is_err());
        // Garbage in the tail rejected.
        assert!(BitVector::from_words(70, vec![0, u64::MAX]).is_err());
    }

    #[test]
    fn dot_and_hamming_known() {
        let a = BitVector::from_bools(&[true, true, false, true]);
        let b = BitVector::from_bools(&[true, false, false, true]);
        assert_eq!(a.dot(&b), 2);
        assert_eq!(a.hamming(&b), 1);
    }

    #[test]
    fn threshold_construction() {
        let v = BitVector::from_threshold(&[0.1, 0.9, 0.5, 0.4999], 0.5);
        assert_eq!(v.to_f32(), vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn mean_threshold_centers() {
        // mean = 2.5 -> bits above the mean are 3 and 4
        let v = BitVector::from_mean_threshold(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.to_f32(), vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn dot_f32_matches_expanded() {
        let bits = BitVector::from_bools(&[true, false, true, true, false]);
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let expanded: f32 = bits.to_f32().iter().zip(x.iter()).map(|(b, v)| b * v).sum();
        assert_eq!(bits.dot_f32(&x), expanded);
    }

    #[test]
    fn rotate_left_moves_bits_cyclically() {
        let v = BitVector::from_bools(&[true, false, false, true, false]);
        let r = v.rotate_left(2);
        assert_eq!(r.to_f32(), vec![1.0, 0.0, 1.0, 0.0, 0.0]);
        // Full rotation is the identity; popcount is invariant.
        assert_eq!(v.rotate_left(5), v);
        assert_eq!(v.rotate_left(3).count_ones(), v.count_ones());
        // Rotating an empty vector is a no-op.
        assert_eq!(BitVector::zeros(0).rotate_left(7).len(), 0);
    }

    #[test]
    fn xor_binding_properties() {
        let a = BitVector::from_bools(&[true, true, false, false]);
        let b = BitVector::from_bools(&[true, false, true, false]);
        let bound = a.xor(&b);
        assert_eq!(bound.to_f32(), vec![0.0, 1.0, 1.0, 0.0]);
        // Self-inverse: unbinding recovers the operand.
        assert_eq!(bound.xor(&b), a);
        assert_eq!(a.xor(&a), BitVector::zeros(4));
    }

    #[test]
    fn iter_ones_order() {
        let mut v = BitVector::zeros(200);
        for i in [3usize, 64, 70, 199] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 70, 199]);
    }

    #[test]
    fn iter_ones_empty() {
        assert_eq!(BitVector::zeros(10).iter_ones().count(), 0);
        assert_eq!(BitVector::zeros(0).iter_ones().count(), 0);
    }

    #[test]
    fn bitmatrix_roundtrip() {
        let rows = vec![
            BitVector::from_bools(&[true, false, true]),
            BitVector::from_bools(&[false, true, false]),
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(0), rows[0]);
        assert_eq!(m.row(1), rows[1]);
        assert!(m.get(0, 2));
        assert!(!m.get(1, 2));
    }

    #[test]
    fn bitmatrix_ragged_rejected() {
        let rows = vec![BitVector::zeros(3), BitVector::zeros(4)];
        assert!(matches!(BitMatrix::from_rows(&rows), Err(LinalgError::RaggedRows { row: 1, .. })));
    }

    #[test]
    fn bitmatrix_empty_rejected() {
        assert!(matches!(BitMatrix::from_rows(&[]), Err(LinalgError::Empty { .. })));
    }

    #[test]
    fn dot_all_matches_row_dots() {
        let rows = vec![
            BitVector::from_bools(&[true, true, false, true]),
            BitVector::from_bools(&[false, true, true, true]),
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        let q = BitVector::from_bools(&[true, true, true, false]);
        assert_eq!(m.dot_all(&q), vec![m.row_dot(0, &q), m.row_dot(1, &q)]);
        assert_eq!(m.dot_all(&q), vec![2, 2]);
    }

    #[test]
    fn matvec_f32_matches_dense() {
        let rows = vec![
            BitVector::from_bools(&[true, false, true, true]),
            BitVector::from_bools(&[false, false, false, true]),
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        let x = [0.5f32, 1.5, 2.5, 3.5];
        assert_eq!(m.matvec_f32(&x), vec![6.5, 3.5]);
        assert_eq!(m.transpose().matvec_t_f32(&x), vec![6.5, 3.5]);
    }

    #[test]
    fn transpose_swaps_indices() {
        let mut m = BitMatrix::zeros(3, 70);
        for (r, c) in [(0, 0), (0, 69), (1, 64), (2, 5), (2, 63)] {
            m.set(r, c, true);
        }
        let t = m.transpose();
        assert_eq!(t.shape(), (70, 3));
        for r in 0..3 {
            for c in 0..70 {
                assert_eq!(t.get(c, r), m.get(r, c), "({r},{c})");
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn set_row_and_counts() {
        let mut m = BitMatrix::zeros(2, 70);
        let r = BitVector::ones(70);
        m.set_row(1, &r).unwrap();
        assert_eq!(m.count_ones(), 70);
        assert_eq!(m.payload_bits(), 140);
        assert!(m.set_row(0, &BitVector::zeros(3)).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        BitVector::zeros(3).dot(&BitVector::zeros(4));
    }

    /// Per-bit reference vote to pin the word-level kernel against.
    fn naive_majority(replicas: &[&BitVector]) -> BitVector {
        let len = replicas[0].len();
        let mut out = BitVector::zeros(len);
        for i in 0..len {
            let votes = replicas.iter().filter(|v| v.get(i)).count();
            if votes > replicas.len() / 2 {
                out.set(i, true);
            }
        }
        out
    }

    fn pseudo_random_vector(len: usize, seed: u64) -> BitVector {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bools: Vec<bool> = (0..len).map(|_| next() & 1 == 1).collect();
        BitVector::from_bools(&bools)
    }

    #[test]
    fn majority_matches_naive_for_odd_and_even_counts() {
        for len in [1usize, 63, 64, 65, 200] {
            for r in 1..=6usize {
                let owned: Vec<BitVector> =
                    (0..r).map(|i| pseudo_random_vector(len, (len * 31 + i) as u64)).collect();
                let refs: Vec<&BitVector> = owned.iter().collect();
                let got = BitVector::majority(&refs).unwrap();
                assert_eq!(got, naive_majority(&refs), "len={len} r={r}");
                assert_eq!(got.count_ones() as usize, got.iter_ones().count());
            }
        }
    }

    #[test]
    fn majority_of_one_is_identity() {
        let v = pseudo_random_vector(130, 7);
        assert_eq!(BitVector::majority(&[&v]).unwrap(), v);
    }

    #[test]
    fn majority_even_tie_resolves_to_zero() {
        let a = BitVector::ones(70);
        let b = BitVector::zeros(70);
        let m = BitVector::majority(&[&a, &b]).unwrap();
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn majority_keeps_tail_clean() {
        // len=70 leaves 58 padding bits in the final word; all-ones
        // replicas must still produce a clean tail.
        let a = BitVector::ones(70);
        let b = BitVector::ones(70);
        let c = BitVector::ones(70);
        let m = BitVector::majority(&[&a, &b, &c]).unwrap();
        assert_eq!(m, BitVector::ones(70));
        assert_eq!(m.count_ones(), 70);
        // Round-trip through the validating constructor proves the tail
        // words carry no stray bits.
        assert!(BitVector::from_words(70, m.as_words().to_vec()).is_ok());
    }

    #[test]
    fn majority_rejects_empty_and_mismatched() {
        assert!(matches!(BitVector::majority(&[]), Err(LinalgError::Empty { .. })));
        let a = BitVector::zeros(10);
        let b = BitVector::zeros(11);
        assert!(matches!(
            BitVector::majority(&[&a, &b]),
            Err(LinalgError::ShapeMismatch { expected: 10, found: 11, .. })
        ));
    }

    #[test]
    fn matrix_majority_votes_per_cell() {
        let rows_a = vec![BitVector::ones(65), BitVector::zeros(65)];
        let rows_b = vec![BitVector::ones(65), BitVector::ones(65)];
        let rows_c = vec![BitVector::zeros(65), BitVector::zeros(65)];
        let a = BitMatrix::from_rows(&rows_a).unwrap();
        let b = BitMatrix::from_rows(&rows_b).unwrap();
        let c = BitMatrix::from_rows(&rows_c).unwrap();
        let m = BitMatrix::bitwise_majority(&[&a, &b, &c]).unwrap();
        assert_eq!(m.row(0), BitVector::ones(65));
        assert_eq!(m.row(1), BitVector::zeros(65));
    }

    #[test]
    fn matrix_majority_rejects_shape_mismatch() {
        let a = BitMatrix::zeros(2, 8);
        let b = BitMatrix::zeros(3, 8);
        assert!(matches!(
            BitMatrix::bitwise_majority(&[&a, &b]),
            Err(LinalgError::ShapeMismatch { expected: 2, found: 3, .. })
        ));
        assert!(matches!(BitMatrix::bitwise_majority(&[]), Err(LinalgError::Empty { .. })));
    }
}
