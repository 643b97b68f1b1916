//! Edge-geometry coverage for the interleaved blocked layout every
//! [`SearchMemory`] sweeps: dimensions that are not a multiple of the
//! 64-bit panel word, row counts that are not a multiple of the 8-row
//! block, degenerate 0/1 row matrices, and all-tie score fields —
//! asserting on **every backend reachable on this host** (a memory
//! pinned with [`SearchMemory::with_backend`]) that the blocked sweep is
//! bit-identical to the flat-kernel row walk of [`BitMatrix::dot_all`]
//! (scores, winners, top-k lists, and the low-row tie-break) — that the
//! cascade's block pass over the same layout keeps its lists and
//! telemetry at those edges, and that a pinned backend survives every
//! derived memory.

use hd_linalg::kernel::Backend;
use hd_linalg::{
    BitMatrix, BitVector, BoundCascade, CascadePlan, LinalgError, QueryBatch, SearchMemory,
    SegmentedCascade, BLOCK_LANES,
};
use proptest::prelude::*;
use std::sync::Arc;

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

/// Per query, every row's score from the flat-kernel row walk.
fn reference_scores(m: &BitMatrix, batch: &QueryBatch) -> Vec<Vec<u32>> {
    (0..batch.len()).map(|q| m.dot_all(&batch.query(q).to_bit_vector())).collect()
}

/// Per query, every `(row, score)` stable-sorted by score desc, row asc.
fn sorted_hits(scores: &[Vec<u32>]) -> Vec<Vec<(usize, u32)>> {
    scores
        .iter()
        .map(|row| {
            let mut hits: Vec<(usize, u32)> = row.iter().copied().enumerate().collect();
            hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            hits
        })
        .collect()
}

/// Blocked scores, winners and top-k lists must equal the flat-kernel
/// row walk on every reachable backend, for the given geometry. Top-k
/// is checked at k = 1, 3, rows and rows + 1 against a stable sort of
/// the reference scores (score desc, row asc).
fn assert_blocked_matches(m: &BitMatrix, batch: &QueryBatch, label: &str) {
    let ref_scores = reference_scores(m, batch);
    let ref_winners: Vec<(usize, u32)> =
        ref_scores.iter().map(|row| hd_linalg::argmax_u32(row)).collect();
    let ref_sorted = sorted_hits(&ref_scores);
    for backend in Backend::available() {
        let mem = SearchMemory::with_backend(m.clone(), backend);
        let scores = mem.dot_batch(batch).expect("blocked dot");
        assert_eq!(scores.shape(), (batch.len(), m.rows()), "{label}: shape on {backend}");
        for (q, expect) in ref_scores.iter().enumerate() {
            assert_eq!(scores.scores(q), expect.as_slice(), "{label}: scores diverge on {backend}");
        }
        let winners = mem.winners_batch(batch).expect("blocked winners");
        assert_eq!(winners, ref_winners, "{label}: winners diverge on {backend}");
        for k in [1, 3, m.rows(), m.rows() + 1] {
            let topk = mem.topk_batch(batch, k).expect("blocked top-k");
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

/// A zero-row memory has no winner: winners, top-k at every k and the
/// cascade (contiguous, bound and segmented) must be `Empty`, never a
/// made-up row 0, on every backend and for single- and many-query
/// batches.
#[test]
fn zero_row_memories_have_no_winner() {
    let empty = BitMatrix::zeros(0, 8);
    let plans = [CascadePlan::exact(8), CascadePlan::prefix(8, 4).unwrap()];
    let is_empty = |r: Result<(), LinalgError>| matches!(r, Err(LinalgError::Empty { .. }));
    for backend in Backend::available() {
        let memory = SearchMemory::with_backend(empty.clone(), backend);
        for queries in [1usize, 40] {
            let batch = QueryBatch::from_vectors(&vec![BitVector::zeros(8); queries]).unwrap();
            assert!(is_empty(memory.winners_batch(&batch).map(drop)), "winners on {backend}");
            for k in [1usize, 2] {
                assert!(is_empty(memory.topk_batch(&batch, k).map(drop)), "top-{k} on {backend}");
                for plan in &plans {
                    let cascade = memory.search_cascade_topk(&batch, plan, k);
                    assert!(is_empty(cascade.map(drop)), "cascade top-{k} on {backend}");
                }
            }
            assert_eq!(memory.dot_batch(&batch).unwrap().shape(), (queries, 0));
        }
        for plan in &plans {
            let bound = BoundCascade::new(Arc::new(memory.clone()), plan.clone());
            assert!(is_empty(bound.map(drop)), "bound cascade on {backend}");
            let segmented = SegmentedCascade::new(std::slice::from_ref(&memory), plan);
            assert!(is_empty(segmented.map(drop)), "segmented cascade on {backend}");
        }
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
        let batch = deterministic_batch(3, 70, 99);
        for backend in Backend::available() {
            let mem = SearchMemory::with_backend(m.clone(), backend);
            for &(row, score) in &mem.winners_batch(&batch).unwrap() {
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
        for backend in Backend::available() {
            let mem = SearchMemory::with_backend(m.clone(), backend);
            for (q, &(row, score)) in mem.winners_batch(&batch).unwrap().iter().enumerate() {
                assert_eq!(row, 0, "{rows} tied rows, query {q}, backend {backend}");
                assert_eq!(score, m.row_dot(0, &batch.query(q).to_bit_vector()));
            }
        }
    }
}

/// A memory pinned to a backend keeps it through every derived memory —
/// a clone, a block-aligned and an unaligned row range, every shard of
/// `split_rows`, and a reported mutation — and each still answers top-k
/// bit-identically to the flat-kernel row walk of its own rows.
#[test]
fn pinned_backend_survives_derivations() {
    let batch = deterministic_batch(5, 130, 0x51de);
    let check = |mem: &SearchMemory, backend: Backend, label: &str| {
        assert_eq!(mem.backend(), backend, "{label}");
        let sorted = sorted_hits(&reference_scores(mem.matrix(), &batch));
        let topk = mem.topk_batch(&batch, 3).unwrap();
        for (q, hits) in sorted.iter().enumerate() {
            assert_eq!(topk.hits(q), &hits[..3.min(mem.rows())], "{label} query {q}");
        }
    };
    for backend in Backend::available() {
        let mut mem = SearchMemory::with_backend(deterministic_matrix(21, 130, 77), backend);
        check(&mem, backend, &format!("pinned {backend}"));
        check(&mem.clone(), backend, &format!("clone on {backend}"));
        check(&mem.row_range(8, 13).unwrap(), backend, &format!("aligned range on {backend}"));
        check(&mem.row_range(3, 11).unwrap(), backend, &format!("unaligned range on {backend}"));
        for (offset, shard) in mem.split_rows(3).unwrap() {
            check(&shard, backend, &format!("shard at {offset} on {backend}"));
        }
        assert!(mem.modify_reporting(|m| {
            let flipped = !m.get(20, 129);
            m.set(20, 129, flipped);
            true
        }));
        check(&mem, backend, &format!("mutated on {backend}"));
    }
}

/// Single-row and single-query degenerate shapes.
#[test]
fn degenerate_single_row_and_query() {
    let m = deterministic_matrix(1, 65, 21);
    let batch = deterministic_batch(1, 65, 22);
    assert_blocked_matches(&m, &batch, "1x65 single query");
}

/// `len` deterministic bits, each set with probability `1 / 2^sparsity`.
fn lcg_bits(len: usize, sparsity: u32, salt: u64) -> BitVector {
    let mut state = salt | 1;
    let bits: Vec<bool> = (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> (64 - sparsity) == 0
        })
        .collect();
    BitVector::from_bools(&bits)
}

/// The cascade's block pass at the edges of the block and word grids, on
/// every reachable backend, contiguous and segmented: every row count
/// residue mod 8; `k` in {1, 5, rows, rows + 1}; all-zero queries (every
/// bound is then 0 against a k-th best of 0 — exactly where a padding
/// lane could slip into a list); stage windows of 1, 7, 8 and 9 words
/// and unaligned interior boundaries; and live blocks with one live lane
/// (one query-like row per block at k = 1) or all eight (k ≥ rows).
/// Lists must equal the sorted reference, and every backend's lists and
/// telemetry must equal the scalar backend's.
#[test]
fn cascade_block_pass_edges() {
    let dim = 1600; // 25 words
    let dense = lcg_bits(dim, 1, 0x0d15_ea5e);
    let mut noisy = dense.clone();
    for bit in (0..dim).step_by(37) {
        noisy.set(bit, !noisy.get(bit));
    }
    let queries = [BitVector::zeros(dim), dense.clone(), noisy, lcg_bits(dim, 1, 0xbeef)];
    let batch = QueryBatch::from_vectors(&queries).unwrap();
    let plans = [
        CascadePlan::from_widths(dim, &[64, 7 * 64, 8 * 64, 9 * 64]).unwrap(),
        CascadePlan::from_widths(dim, &[77, 430, 518, 575]).unwrap(),
        CascadePlan::from_widths(dim, &[1, 1599]).unwrap(),
        CascadePlan::exact(dim),
    ];
    // 25 word-aligned segments, and 16 unaligned 100-bit ones.
    let segmentations = [64usize, 100];
    for rows in 1..=17usize {
        // Lane 3 of every block holds a near copy of the dense pattern,
        // the other rows are sparse.
        let stored: Vec<BitVector> = (0..rows)
            .map(|r| {
                if r % BLOCK_LANES == 3 {
                    let mut row = dense.clone();
                    row.set(r, !row.get(r));
                    row
                } else {
                    lcg_bits(dim, 4, r as u64 * 7919)
                }
            })
            .collect();
        let m = BitMatrix::from_rows(&stored).unwrap();
        let pinned = |backend| SearchMemory::with_backend(m.clone(), backend);
        let scalar = pinned(Backend::Scalar);
        let mems: Vec<(Backend, SearchMemory)> =
            Backend::available().into_iter().map(|b| (b, pinned(b))).collect();
        // Per backend and segment width, the segment memories.
        let segmented: Vec<(Backend, usize, Vec<SearchMemory>)> = (mems.iter())
            .flat_map(|&(backend, _)| segmentations.map(|seg| (backend, seg)))
            .map(|(backend, seg)| {
                let parts = (0..dim / seg)
                    .map(|p| {
                        let segs: Vec<BitVector> =
                            stored.iter().map(|r| r.slice(p * seg, seg)).collect();
                        SearchMemory::with_backend(BitMatrix::from_rows(&segs).unwrap(), backend)
                    })
                    .collect();
                (backend, seg, parts)
            })
            .collect();
        let sorted = sorted_hits(&reference_scores(&m, &batch));
        for plan in &plans {
            for k in [1, 5, rows, rows + 1] {
                let label = format!("rows {rows} plan {:?} k {k}", plan.ends());
                let walk = scalar.search_cascade_topk(&batch, plan, k).unwrap();
                for (q, hits) in sorted.iter().enumerate() {
                    assert_eq!(walk.topk().hits(q), &hits[..k.min(rows)], "{label} query {q}");
                }
                for (backend, mem) in &mems {
                    let out = mem.search_cascade_topk(&batch, plan, k).unwrap();
                    assert_eq!(out, walk, "{label} on {backend}");
                }
                for (backend, seg, parts) in &segmented {
                    let snapped = plan.snapped(*seg).unwrap();
                    let contiguous = scalar.search_cascade_topk(&batch, &snapped, k).unwrap();
                    let cascade = SegmentedCascade::new(parts, &snapped).unwrap();
                    let out = cascade.search_topk(parts, &batch, k).unwrap();
                    assert_eq!(out, contiguous, "{label} segments of {seg} on {backend}");
                }
            }
        }
    }
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
        let mem = SearchMemory::new(deterministic_matrix(rows, cols, salt));
        let batch = deterministic_batch(4, cols, salt ^ 0x5a5a);
        let start = BLOCK_LANES;
        let count = rows - start;
        let sub = mem.row_range(start, count).unwrap();
        let full = mem.dot_batch(&batch).unwrap();
        let sliced = sub.dot_batch(&batch).unwrap();
        for q in 0..batch.len() {
            prop_assert_eq!(sliced.scores(q), &full.scores(q)[start..], "query {}", q);
        }
    }
}
