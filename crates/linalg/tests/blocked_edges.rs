//! Edge-geometry coverage for the interleaved [`BlockedBitMatrix`]
//! layout: dimensions that are not a multiple of the 64-bit panel word,
//! row counts that are not a multiple of the 8-row block, degenerate 0/1
//! row matrices, and all-tie score fields — asserting on **every backend
//! reachable on this host** that the blocked sweep is bit-identical to
//! the row-major reference (scores, winners, top-k lists, and the
//! low-row tie-break).

use hd_linalg::kernel::Backend;
use hd_linalg::{
    BitMatrix, BitVector, BlockedBitMatrix, LinalgError, QueryBatch, SearchMemory, BLOCK_LANES,
};
use proptest::prelude::*;

fn deterministic_matrix(rows: usize, cols: usize, salt: u64) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, cols);
    let mut state = salt | 1;
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

fn deterministic_batch(queries: usize, cols: usize, salt: u64) -> QueryBatch {
    let m = deterministic_matrix(queries, cols, salt);
    QueryBatch::from_matrix(m)
}

/// Blocked scores, winners and top-k lists must equal the row-major
/// reference on every reachable backend, for the given geometry. Top-k
/// is checked at k = 1, 3, rows and rows + 1 against a stable sort of
/// the reference scores (score desc, row asc).
fn assert_blocked_matches(m: &BitMatrix, batch: &QueryBatch, label: &str) {
    let blocked = BlockedBitMatrix::from_matrix(m);
    let ref_scores = m.dot_batch(batch).expect("reference dot_batch");
    let ref_winners: Vec<(usize, u32)> =
        (0..batch.len()).map(|q| hd_linalg::argmax_u32(ref_scores.scores(q))).collect();
    let ref_sorted: Vec<Vec<(usize, u32)>> = (0..batch.len())
        .map(|q| {
            let mut hits: Vec<(usize, u32)> =
                ref_scores.scores(q).iter().copied().enumerate().collect();
            hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            hits
        })
        .collect();
    for backend in Backend::available() {
        let scores = blocked.dot_batch_with(batch, backend).expect("blocked dot");
        assert_eq!(scores, ref_scores, "{label}: scores diverge on {backend}");
        let winners = blocked.winners_batch_with(batch, backend).expect("blocked winners");
        assert_eq!(winners, ref_winners, "{label}: winners diverge on {backend}");
        for k in [1, 3, m.rows(), m.rows() + 1] {
            let topk = blocked.topk_batch_with(batch, k, backend).expect("blocked top-k");
            assert_eq!(topk.hits_per_query(), k.min(m.rows()), "{label}: k={k} on {backend}");
            for (q, sorted) in ref_sorted.iter().enumerate() {
                assert_eq!(
                    topk.hits(q),
                    &sorted[..k.min(m.rows())],
                    "{label}: top-{k} of query {q} diverges on {backend}"
                );
            }
        }
    }
}

/// Dimensions straddling panel-word boundaries and row counts straddling
/// the 8-row block: every remainder class of both.
#[test]
fn word_and_block_remainder_geometries() {
    for &cols in &[1usize, 63, 64, 65, 127, 128, 129, 191, 300] {
        for &rows in &[1usize, 7, 8, 9, 15, 16, 17] {
            let m = deterministic_matrix(rows, cols, (rows * 1000 + cols) as u64);
            let batch = deterministic_batch(5, cols, 0xbeef + cols as u64);
            assert_blocked_matches(&m, &batch, &format!("{rows}x{cols}"));
        }
    }
}

/// Widths around the AVX2/NEON byte-counter run: those kernels sum
/// per-byte popcounts over at most 31 panel words (31 x 8 = 248 < 256)
/// before widening, so 1984 bits (31 words) is the last single-run width
/// and 1985 / 2048 / 2049 / 3968 / 4033 bits span run boundaries. The
/// all-ones memory and queries put 8 in every byte counter per word, so
/// a run one word too long overflows and shows up as a wrong score.
#[test]
fn byte_counter_run_boundary_geometries() {
    for &cols in &[1983usize, 1984, 1985, 2048, 2049, 3968, 4033] {
        for &rows in &[1usize, 7, 8, 9, 17] {
            let m = deterministic_matrix(rows, cols, (rows * 7919 + cols) as u64);
            let batch = deterministic_batch(3, cols, 0xfeed + cols as u64);
            assert_blocked_matches(&m, &batch, &format!("{rows}x{cols}"));
            let ones = BitVector::from_bools(&vec![true; cols]);
            let full = BitMatrix::from_rows(&vec![ones.clone(); rows]).unwrap();
            let full_batch = QueryBatch::from_vectors(&[ones]).unwrap();
            assert_blocked_matches(&full, &full_batch, &format!("all-ones {rows}x{cols}"));
        }
    }
}

/// A zero-row memory has no winner: winners (like top-k at every k)
/// must be `Empty`, never a made-up row 0, on every type and backend and
/// on both the row-major and the packed batch paths.
#[test]
fn zero_row_memories_have_no_winner() {
    let empty = BitMatrix::zeros(0, 8);
    let blocked = BlockedBitMatrix::from_matrix(&empty);
    let memory = SearchMemory::new(empty.clone());
    for queries in [1usize, 40] {
        let batch = QueryBatch::from_vectors(&vec![BitVector::zeros(8); queries]).unwrap();
        let is_empty = |r: Result<_, LinalgError>| matches!(r, Err(LinalgError::Empty { .. }));
        assert!(is_empty(empty.winners_batch(&batch).map(drop)), "BitMatrix winners");
        assert!(is_empty(blocked.winners_batch(&batch).map(drop)), "blocked winners");
        assert!(is_empty(memory.winners_batch(&batch).map(drop)), "SearchMemory winners");
        for k in [1usize, 2] {
            assert!(is_empty(empty.topk_batch(&batch, k).map(drop)), "BitMatrix top-{k}");
            assert!(is_empty(blocked.topk_batch(&batch, k).map(drop)), "blocked top-{k}");
            assert!(is_empty(memory.topk_batch(&batch, k).map(drop)), "SearchMemory top-{k}");
        }
        for backend in Backend::available() {
            assert!(is_empty(blocked.winners_batch_with(&batch, backend).map(drop)), "{backend}");
            assert!(is_empty(blocked.topk_batch_with(&batch, 1, backend).map(drop)), "{backend}");
        }
        assert_eq!(memory.dot_batch(&batch).unwrap().shape(), (queries, 0));
    }
}

/// Class counts that are not a multiple of 8 leave padded lanes in the
/// final block; those lanes must never win (they hold score 0 and rows
/// >= rows()).
#[test]
fn padded_final_block_never_wins() {
    // All-zero real rows: every score ties at 0 and the winner must be
    // row 0, not a padding lane.
    for rows in 1..=9usize {
        let m = BitMatrix::zeros(rows, 70);
        let blocked = BlockedBitMatrix::from_matrix(&m);
        let batch = deterministic_batch(3, 70, 99);
        for backend in Backend::available() {
            for &(row, score) in &blocked.winners_batch_with(&batch, backend).unwrap() {
                assert_eq!((row, score), (0, 0), "{rows} rows on {backend}");
            }
        }
    }
}

/// All-ties field: identical rows everywhere — the winner must be row 0
/// on every backend (the global low-row tie-break).
#[test]
fn all_tie_rows_resolve_to_row_zero() {
    for &rows in &[3usize, 8, 11, 24] {
        let proto = deterministic_matrix(1, 130, 7).row(0);
        let m = BitMatrix::from_rows(&vec![proto; rows]).unwrap();
        let batch = deterministic_batch(6, 130, 13);
        let blocked = BlockedBitMatrix::from_matrix(&m);
        for backend in Backend::available() {
            for (q, &(row, score)) in
                blocked.winners_batch_with(&batch, backend).unwrap().iter().enumerate()
            {
                assert_eq!(row, 0, "{rows} tied rows, query {q}, backend {backend}");
                assert_eq!(score, m.row_dot(0, &batch.query(q).to_bit_vector()));
            }
        }
    }
}

/// Single-row and single-query degenerate shapes.
#[test]
fn degenerate_single_row_and_query() {
    let m = deterministic_matrix(1, 65, 21);
    let batch = deterministic_batch(1, 65, 22);
    assert_blocked_matches(&m, &batch, "1x65 single query");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary geometry: blocked == row-major on every reachable
    /// backend, with rows/cols drawn to hit every remainder class of the
    /// block height and panel word width.
    #[test]
    fn blocked_equals_rowmajor_arbitrary_geometry(
        rows in 1usize..40,
        cols in 1usize..200,
        queries in 1usize..12,
        salt in any::<u64>(),
    ) {
        let m = deterministic_matrix(rows, cols, salt);
        let batch = deterministic_batch(queries, cols, salt ^ 0xa5a5_a5a5);
        assert_blocked_matches(&m, &batch, &format!("prop {rows}x{cols}x{queries}"));
    }

    /// Row-range sub-views keep winners consistent with the parent: a
    /// shard-aligned slice answers exactly like the same rows of the full
    /// memory.
    #[test]
    fn row_range_winners_match_parent(
        blocks in 2usize..5,
        extra in 0usize..hd_linalg::BLOCK_LANES,
        cols in 1usize..150,
        salt in any::<u64>(),
    ) {
        let rows = (blocks - 1) * BLOCK_LANES + extra.max(1);
        let m = deterministic_matrix(rows, cols, salt);
        let blocked = BlockedBitMatrix::from_matrix(&m);
        let batch = deterministic_batch(4, cols, salt ^ 0x5a5a);
        let start = BLOCK_LANES;
        let count = rows - start;
        let sub = blocked.row_range(start, count).unwrap();
        let full = blocked.dot_batch(&batch).unwrap();
        let sliced = sub.dot_batch(&batch).unwrap();
        for q in 0..batch.len() {
            prop_assert_eq!(sliced.scores(q), &full.scores(q)[start..], "query {}", q);
        }
    }
}
