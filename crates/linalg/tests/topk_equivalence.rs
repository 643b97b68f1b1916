//! Top-k ↔ full-sort equivalence properties.
//!
//! The fused top-k sweep is an execution strategy, not an approximation:
//! for every reachable backend, every geometry, and every `k`, its
//! per-query k-best lists must be **bit-identical** (same rows, same
//! order) to stable-sorting the full score column by score desc then row
//! asc. The k-th-score cascade prune and the segmented cascade inherit
//! the same contract, and the multi-row flat kernel that powers the
//! cascade continuation must agree with a per-row `dot_words` loop.

use hd_linalg::kernel::{self, Backend};
use hd_linalg::{
    BitMatrix, BitVector, BlockedBitMatrix, BoundCascade, CascadePlan, QueryBatch, SearchMemory,
    SegmentedCascade,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Asserts a top-k result equals the oracle's per-query lists.
fn check_lists(out: &hd_linalg::TopK, expected: &[Vec<(usize, u32)>], label: &str) {
    for (q, expect) in expected.iter().enumerate() {
        assert_eq!(out.hits(q), expect.as_slice(), "{label} query {q}");
    }
}

fn bool_vec(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), len)
}

/// Dimensions covering sub-word, exact-word, and multi-word tails, plus
/// widths that cross the flat kernels' 4- and 8-word vector strides.
fn dims() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 7, 63, 64, 65, 127, 128, 129, 255, 256, 300, 520])
}

fn bits(len: usize) -> impl Strategy<Value = BitVector> {
    bool_vec(len).prop_map(|b| BitVector::from_bools(&b))
}

fn bit_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    prop::collection::vec(bits(len), rows)
}

/// Rows drawn from a tiny pattern alphabet, so whole-memory score ties
/// (identical rows) and partial ties are the norm, not the exception.
fn tie_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    (bit_rows(3, len), prop::collection::vec(0usize..3, rows))
        .prop_map(|(alphabet, picks)| picks.iter().map(|&p| alphabet[p].clone()).collect())
}

/// An arbitrary cascade plan over `dim` dimensions: random interior cut
/// points (deduplicated), so stage widths are unconstrained.
fn plans(dim: usize) -> impl Strategy<Value = CascadePlan> {
    prop::collection::vec(1usize..dim.max(2), 0..6).prop_map(move |mut cuts| {
        cuts.retain(|&c| c < dim);
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(dim);
        let mut widths = Vec::with_capacity(cuts.len());
        let mut prev = 0usize;
        for &c in &cuts {
            widths.push(c - prev);
            prev = c;
        }
        CascadePlan::from_widths(dim, &widths).expect("cuts are strictly increasing")
    })
}

/// The oracle: full scores, stable-sorted by score desc then row asc,
/// truncated to `k`.
fn sorted_topk(rows: &[BitVector], queries: &[BitVector], k: usize) -> Vec<Vec<(usize, u32)>> {
    queries
        .iter()
        .map(|q| {
            let mut scored: Vec<(usize, u32)> = rows.iter().map(|r| r.dot(q)).enumerate().collect();
            scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            scored.truncate(k.min(scored.len()));
            scored
        })
        .collect()
}

proptest! {
    /// Fused top-k equals the sort oracle for arbitrary geometries and
    /// every reachable backend, through both the pre-packed
    /// `SearchMemory` path and the explicit-backend blocked hook.
    #[test]
    fn fused_topk_matches_sorted_reference(
        (rows, queries, k) in (1usize..20, dims())
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(4, d), 1usize..12))
    ) {
        let expected = sorted_topk(&rows, &queries, k);
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let fused = mem.topk_batch(&batch, k).unwrap();
        prop_assert_eq!(fused.k(), k);
        for (q, expect) in expected.iter().enumerate() {
            prop_assert_eq!(fused.hits(q), expect.as_slice(), "SearchMemory query {}", q);
        }
        let m = BitMatrix::from_rows(&rows).unwrap();
        let fused_m = m.topk_batch(&batch, k).unwrap();
        let blocked = BlockedBitMatrix::from_matrix(&m);
        for backend in Backend::available() {
            let out = blocked.topk_batch_with(&batch, k, backend).unwrap();
            for (q, expect) in expected.iter().enumerate() {
                prop_assert_eq!(
                    out.hits(q), expect.as_slice(), "backend {} query {}", backend, q
                );
                prop_assert_eq!(fused_m.hits(q), expect.as_slice());
            }
        }
    }

    /// `k == 1` lists are exactly the winners of `winners_batch` —
    /// same row, same score, same low-row tie-break.
    #[test]
    fn topk_k1_matches_winners(
        (rows, queries) in (1usize..20, dims())
            .prop_flat_map(|(r, d)| (tie_rows(r, d), bit_rows(4, d)))
    ) {
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let winners = mem.winners_batch(&batch).unwrap();
        let topk = mem.topk_batch(&batch, 1).unwrap();
        for (q, &winner) in winners.iter().enumerate() {
            prop_assert_eq!(topk.hits(q), &[winner], "query {}", q);
        }
    }

    /// `k >= rows` returns every row, fully sorted — and any larger `k`
    /// yields the identical clamped list.
    #[test]
    fn topk_k_ge_rows_returns_all(
        (rows, queries) in (1usize..12, dims())
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(3, d)))
    ) {
        let n = rows.len();
        let expected = sorted_topk(&rows, &queries, n);
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for k in [n, n + 1, n + 7] {
            let topk = mem.topk_batch(&batch, k).unwrap();
            prop_assert_eq!(topk.hits_per_query(), n, "k {} clamps to rows", k);
            for (q, expect) in expected.iter().enumerate() {
                prop_assert_eq!(topk.hits(q), expect.as_slice(), "k {} query {}", k, q);
            }
        }
    }

    /// Tie stress: memories built from a 3-pattern alphabet produce
    /// score plateaus everywhere; the k-best order must still be the
    /// oracle's (ties resolved row-ascending) on every backend.
    #[test]
    fn topk_tie_stress(
        (rows, queries, k) in (4usize..20, dims())
            .prop_flat_map(|(r, d)| (tie_rows(r, d), bit_rows(4, d), 1usize..10))
    ) {
        let expected = sorted_topk(&rows, &queries, k);
        let blocked = BlockedBitMatrix::from_rows(&rows).unwrap();
        for backend in Backend::available() {
            let out = blocked.topk_batch_with(&queries_batch(&queries), k, backend).unwrap();
            for (q, expect) in expected.iter().enumerate() {
                prop_assert_eq!(
                    out.hits(q), expect.as_slice(), "backend {} query {}", backend, q
                );
            }
        }
    }

    /// The k-th-score cascade prune is exact: for arbitrary stage plans
    /// and every backend, cascade top-k lists are bit-identical to the
    /// fused sweep, through every entry point (cold and cached memory,
    /// bound handle, explicit backend), and telemetry never claims more
    /// activation than the exact search performs.
    #[test]
    fn cascade_topk_matches_fused(
        (rows, queries, k, plan) in (2usize..12, dims())
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(4, d), 1usize..8, plans(d)))
    ) {
        let expected = sorted_topk(&rows, &queries, k);
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let m = BitMatrix::from_rows(&rows).unwrap();
        let direct = SearchMemory::new(m).search_cascade_topk(&batch, &plan, k).unwrap();
        let stats = direct.stats();
        prop_assert!(stats.activated_dims() <= stats.exact_dims());
        prop_assert_eq!(stats.queries(), queries.len());
        check_lists(&direct.into_topk(), &expected, "cold SearchMemory");
        check_lists(
            &mem.search_cascade_topk(&batch, &plan, k).unwrap().into_topk(),
            &expected,
            "SearchMemory",
        );
        let bound = BoundCascade::new(Arc::new(mem.clone()), plan.clone()).unwrap();
        check_lists(&bound.search_topk(&batch, k).unwrap().into_topk(), &expected, "BoundCascade");
        for backend in Backend::available() {
            check_lists(
                &mem.search_cascade_topk_with(&batch, &plan, k, backend).unwrap().into_topk(),
                &expected,
                &format!("backend {backend}"),
            );
        }
    }

    /// The segmented (partitioned-layout) cascade's top-k matches the
    /// contiguous oracle for arbitrary segment counts and
    /// segment-aligned plans.
    #[test]
    fn segmented_cascade_topk_matches(
        (rows, queries, k, parts_pick) in
            (2usize..12, prop::sample::select(vec![128usize, 192, 256, 320]))
            .prop_flat_map(|(r, d)| (tie_rows(r, d), bit_rows(4, d), 1usize..8, 0usize..3))
    ) {
        let dim = rows[0].len();
        let divisors: Vec<usize> =
            [2usize, 4, 8, 3, 5].iter().copied().filter(|p| dim % p == 0).collect();
        let p = divisors[parts_pick % divisors.len()];
        let seg = dim / p;
        let parts: Vec<SearchMemory> = (0..p)
            .map(|i| {
                let segs: Vec<BitVector> = rows.iter().map(|r| r.slice(i * seg, seg)).collect();
                SearchMemory::from_rows(&segs).unwrap()
            })
            .collect();
        let expected = sorted_topk(&rows, &queries, k);
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let mut plans = vec![CascadePlan::exact(dim)];
        if p > 1 {
            plans.push(CascadePlan::prefix(dim, seg).unwrap());
            plans.push(CascadePlan::uniform(dim, p).unwrap());
        }
        for plan in plans {
            let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
            let out = cascade.search_topk(&parts, &batch, k).unwrap();
            let stats = out.stats().clone();
            prop_assert!(stats.activated_dims() <= stats.exact_dims());
            let topk = out.into_topk();
            for (q, expect) in expected.iter().enumerate() {
                prop_assert_eq!(
                    topk.hits(q), expect.as_slice(), "P={} {:?} query {}", p, plan.ends(), q
                );
            }
        }
    }

    /// The multi-row flat kernel agrees with a per-row `dot_words` loop
    /// on every backend — including the accumulate-into-`out` contract
    /// and every const-generic group width (0..=18 rows covers the
    /// 8-wide groups plus each remainder).
    #[test]
    fn multi_dot_words_matches_dot_loop(
        (qs, rows, seed) in dims()
            .prop_flat_map(|d| (bits(d), bit_rows(18, d), any::<u32>()))
    ) {
        for take in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 18] {
            let refs: Vec<&[u64]> = rows[..take].iter().map(|r| r.as_words()).collect();
            let mut expected: Vec<u32> = (0..take).map(|i| seed.wrapping_add(i as u32)).collect();
            let base = expected.clone();
            for (slot, row) in expected.iter_mut().zip(&refs) {
                *slot += kernel::dot_words_with(Backend::Scalar, qs.as_words(), row);
            }
            for backend in Backend::available() {
                let mut got = base.clone();
                kernel::multi_dot_words_with(backend, qs.as_words(), &refs, &mut got);
                prop_assert_eq!(
                    &got, &expected, "backend {} rows {}", backend, take
                );
            }
        }
    }
}

fn queries_batch(queries: &[BitVector]) -> QueryBatch {
    QueryBatch::from_vectors(queries).unwrap()
}
