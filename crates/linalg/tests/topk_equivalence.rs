//! Top-k ↔ full-sort equivalence properties.
//!
//! The fused top-k sweep is an execution strategy, not an approximation:
//! for every reachable backend, every geometry, and every `k`, its
//! per-query k-best lists must be **bit-identical** (same rows, same
//! order) to stable-sorting the full score column by score desc then row
//! asc. The k-th-score cascade prune and the segmented cascade inherit
//! the same contract.

use hd_linalg::kernel::Backend;
use hd_linalg::{
    BitMatrix, BitVector, BoundCascade, CascadePlan, QueryBatch, SearchMemory, SegmentedCascade,
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

/// Rows of graded density (empty, 2%, 10%, 40% or 90% of their bits
/// set, picked per row), so a few heavy rows sit among light ones and
/// whole blocks hold rows too light to reach a query's k-th score.
fn graded_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    prop::collection::vec((0usize..5, any::<u64>()), rows).prop_map(move |picks| {
        picks
            .iter()
            .map(|&(grade, seed)| {
                let percent = [0u64, 2, 10, 40, 90][grade];
                let mut state = seed;
                let bits: Vec<bool> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) % 100 < percent
                    })
                    .collect();
                BitVector::from_bools(&bits)
            })
            .collect()
    })
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

/// `rows` as a memory pinned to `backend`.
fn pinned(rows: &[BitVector], backend: Backend) -> SearchMemory {
    SearchMemory::with_backend(BitMatrix::from_rows(rows).unwrap(), backend)
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
    /// every reachable backend, through both the active-backend
    /// `SearchMemory` and memories pinned to each backend.
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
        for backend in Backend::available() {
            let out = pinned(&rows, backend).topk_batch(&batch, k).unwrap();
            for (q, expect) in expected.iter().enumerate() {
                prop_assert_eq!(
                    out.hits(q), expect.as_slice(), "backend {} query {}", backend, q
                );
            }
        }
    }

    /// Graded memories, where the sweep skips the blocks whose heaviest
    /// row cannot reach a query's k-th score: fused top-k (and the
    /// winners at `k = 1`) still equal the sort oracle on every reachable
    /// backend.
    #[test]
    fn fused_topk_matches_sorted_reference_on_graded_memories(
        (rows, queries, k) in (1usize..40, dims())
            .prop_flat_map(|(r, d)| (graded_rows(r, d), bit_rows(4, d), 1usize..10))
    ) {
        let expected = sorted_topk(&rows, &queries, k);
        let top1 = sorted_topk(&rows, &queries, 1);
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            let mem = pinned(&rows, backend);
            check_lists(&mem.topk_batch(&batch, k).unwrap(), &expected, &format!("backend {backend}"));
            let winners = mem.winners_batch(&batch).unwrap();
            for (q, expect) in top1.iter().enumerate() {
                prop_assert_eq!(&[winners[q]][..], expect.as_slice(), "backend {} query {}", backend, q);
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
        for backend in Backend::available() {
            let out = pinned(&rows, backend).topk_batch(&queries_batch(&queries), k).unwrap();
            for (q, expect) in expected.iter().enumerate() {
                prop_assert_eq!(
                    out.hits(q), expect.as_slice(), "backend {} query {}", backend, q
                );
            }
        }
    }

    /// The k-th-score cascade prune is exact: for arbitrary stage plans
    /// and every backend, cascade top-k lists are bit-identical to the
    /// fused sweep, through every entry point (one-shot memory path,
    /// bound handle, pinned backend), and telemetry never claims more
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
                &pinned(&rows, backend).search_cascade_topk(&batch, &plan, k).unwrap().into_topk(),
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
}

fn queries_batch(queries: &[BitVector]) -> QueryBatch {
    QueryBatch::from_vectors(queries).unwrap()
}
