//! Cascade ↔ exact-search equivalence properties.
//!
//! The progressive-precision cascade must be **bit-identical** to the
//! exact batched search — same winning rows, same scores, same low-row
//! tie-break — for arbitrary stage plans (including the degenerate
//! one-stage plan and the `D` one-dimension-stage plan), every tail
//! geometry, and every kernel backend reachable on the host. Telemetry
//! must never claim more activation than the exact search performs, and
//! must equal a row-at-a-time replay of the prune rule — first stage's
//! block skip included — exactly.

use hd_linalg::kernel::Backend;
use hd_linalg::{
    BitMatrix, BitVector, BoundCascade, CascadePlan, CascadeTopK, QueryBatch, SearchMemory,
    SegmentedCascade, BLOCK_LANES,
};
use proptest::prelude::*;
use std::sync::Arc;

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
/// points (deduplicated), so stage widths are unconstrained — unaligned
/// one-dimension slivers included.
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

/// `rows` cut into `parts` equal-width segment memories pinned to
/// `backend`.
fn segments(rows: &[BitVector], parts: usize, backend: Backend) -> Vec<SearchMemory> {
    let seg = rows[0].len() / parts;
    (0..parts)
        .map(|p| {
            let segs: Vec<BitVector> = rows.iter().map(|r| r.slice(p * seg, seg)).collect();
            pinned(&segs, backend)
        })
        .collect()
}

/// Asserts the `k = 1` cascade of `mem` (on its backend) is bit-identical
/// to the exact per-query oracle and that its telemetry is internally
/// consistent.
fn assert_cascade_exact(
    mem: &SearchMemory,
    queries: &[BitVector],
    batch: &QueryBatch,
    plan: &CascadePlan,
) {
    let backend = mem.backend();
    let out = mem.search_cascade_topk(batch, plan, 1).unwrap();
    let winner = |q: usize| out.topk().hits(q)[0];
    prop_assert_eq!(out.topk().len(), queries.len());
    for (q, query) in queries.iter().enumerate() {
        let scores = mem.dot_all(query);
        let expected = hd_linalg::argmax_u32(&scores);
        prop_assert_eq!(
            winner(q),
            expected,
            "backend {} plan {:?} query {}",
            backend,
            plan.ends(),
            q
        );
        // Low-row tie-break: no earlier row reaches the winning score.
        let (row, score) = winner(q);
        for (r, &s) in scores.iter().enumerate().take(row) {
            prop_assert!(
                s < score,
                "backend {} query {}: row {} ties winner {}",
                backend,
                q,
                r,
                row
            );
        }
    }
    let stats = out.stats();
    prop_assert_eq!(stats.queries(), queries.len());
    prop_assert!(stats.activated_dims() <= stats.exact_dims());
    prop_assert!(stats.activated_dims() > 0);
    // Stage 0 scores the rows of every block the skip rule admits.
    let rows: Vec<BitVector> = (0..mem.rows()).map(|r| mem.matrix().row(r)).collect();
    let (_, stage_rows, _) = reference_cascade(&rows, queries, plan.ends(), 1, 1);
    prop_assert_eq!(stats.stage_rows()[0], stage_rows[0]);
    // Shortlists only ever shrink.
    for pair in stats.stage_rows().windows(2) {
        prop_assert!(pair[1] <= pair[0], "shortlist grew: {:?}", stats.stage_rows());
    }
}

/// Asserts `top1` (a `k = 1` cascade) holds exactly `winners`: one entry
/// per query, the winner.
fn assert_top1_winners(top1: &CascadeTopK, winners: &[(usize, u32)], what: &str) {
    let lists = top1.topk();
    prop_assert_eq!(lists.len(), winners.len(), "{}", what);
    prop_assert_eq!(lists.hits_per_query(), 1, "{}", what);
    for (q, winner) in winners.iter().enumerate() {
        prop_assert_eq!(lists.hits(q), &[*winner][..], "{} query {}", what, q);
    }
}

/// What a cascade top-k search must return: per-query k-best lists
/// (score desc, row asc), rows entering each stage, and activated
/// row-dimensions.
type Reference = (Vec<Vec<(usize, u32)>>, Vec<u64>, u64);

/// Row-at-a-time reference of the cascade's prune rule on a layout of
/// `parts` equal column segments (1 for a contiguous memory). Stage 0
/// visits the rows block by block ([`BLOCK_LANES`] rows) and skips a
/// block once `k` rows are listed and the block's bound — the sum over
/// segments of its largest row popcount in that segment — is strictly
/// below the k-th best partial listed so far. Every later stage adds
/// each shortlisted row's dot over the stage's dimensions. After a
/// non-final stage, with `kth` the k-th best partial over the
/// shortlist, the row-side bound `partial + ones(row suffix) >= kth`
/// filters first; then, only while more than `k` rows remain, so does
/// `partial + min(ones(query suffix), ones(row suffix)) >= kth`.
fn reference_cascade(
    rows: &[BitVector],
    queries: &[BitVector],
    ends: &[usize],
    k: usize,
    parts: usize,
) -> Reference {
    let dim = rows[0].len();
    let k = k.min(rows.len());
    let ones_after = |v: &BitVector, e: usize| v.slice(e, dim - e).count_ones();
    let seg = dim / parts;
    let bounds: Vec<u32> = rows
        .chunks(BLOCK_LANES)
        .map(|block| {
            (0..parts)
                .map(|p| block.iter().map(|r| r.slice(p * seg, seg).count_ones()).max().unwrap())
                .sum()
        })
        .collect();
    let mut stage_rows = vec![0u64; ends.len()];
    let mut activated = 0u64;
    let mut lists = Vec::with_capacity(queries.len());
    for q in queries {
        let mut partial = vec![0u32; rows.len()];
        let mut cands: Vec<usize> = Vec::new();
        let mut lo = 0usize;
        for (s, &hi) in ends.iter().enumerate() {
            let qs = q.slice(lo, hi - lo);
            let score = |r: usize| rows[r].slice(lo, hi - lo).dot(&qs);
            if s == 0 {
                let mut listed: Vec<u32> = Vec::new();
                for (b, &bound) in bounds.iter().enumerate() {
                    listed.sort_unstable_by(|a, b| b.cmp(a));
                    if listed.len() >= k && bound < listed[k - 1] {
                        continue;
                    }
                    let block = partial.iter_mut().enumerate().skip(b * BLOCK_LANES);
                    for (r, p) in block.take(BLOCK_LANES) {
                        *p = score(r);
                        listed.push(*p);
                        cands.push(r);
                    }
                }
            } else {
                for &r in &cands {
                    partial[r] += score(r);
                }
            }
            stage_rows[s] += cands.len() as u64;
            activated += (cands.len() * (hi - lo)) as u64;
            lo = hi;
            if s + 1 == ends.len() {
                break;
            }
            let mut best: Vec<u32> = cands.iter().map(|&r| partial[r]).collect();
            best.sort_unstable_by(|a, b| b.cmp(a));
            let kth = best[k - 1];
            cands.retain(|&r| partial[r] + ones_after(&rows[r], hi) >= kth);
            if cands.len() > k {
                let q_suffix = ones_after(q, hi);
                cands.retain(|&r| partial[r] + q_suffix.min(ones_after(&rows[r], hi)) >= kth);
            }
        }
        let mut hits: Vec<(usize, u32)> = cands.iter().map(|&r| (r, partial[r])).collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        lists.push(hits);
    }
    (lists, stage_rows, activated)
}

/// Asserts a cascade top-k result equals [`reference_cascade`]: lists,
/// per-stage shortlists and activated dimensions.
fn assert_matches_reference(out: &CascadeTopK, reference: &Reference, what: &str) {
    let (lists, stage_rows, activated) = reference;
    for (q, expect) in lists.iter().enumerate() {
        prop_assert_eq!(out.topk().hits(q), expect.as_slice(), "{} query {}", what, q);
    }
    prop_assert_eq!(out.stats().stage_rows(), stage_rows.as_slice(), "{}", what);
    prop_assert_eq!(out.stats().activated_dims(), *activated, "{}", what);
}

proptest! {
    /// Arbitrary plans, arbitrary memories/batches, every reachable
    /// backend: cascade == exact, winners/scores/tie-breaks included.
    #[test]
    fn cascade_matches_exact_for_arbitrary_plans(
        (rows, queries, plan) in (1usize..20, dims()).prop_flat_map(|(r, d)| {
            (bit_rows(r, d), bit_rows(9, d), plans(d))
        })
    ) {
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            assert_cascade_exact(&pinned(&rows, backend), &queries, &batch, &plan);
        }
    }

    /// The two degenerate plans: one stage (the cascade IS the exact
    /// search, full activation) and `D` one-dimension stages (the
    /// paper's column-by-column evaluation).
    #[test]
    fn degenerate_plans_match_exact(
        (rows, queries) in (1usize..12, prop::sample::select(vec![1usize, 7, 64, 65, 130]))
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(5, d)))
    ) {
        let dim = rows[0].len();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let exact = CascadePlan::exact(dim);
        let one_dim = CascadePlan::uniform(dim, dim).unwrap();
        prop_assert_eq!(one_dim.stages(), dim);
        for backend in Backend::available() {
            let pinned = pinned(&rows, backend);
            assert_cascade_exact(&pinned, &queries, &batch, &exact);
            assert_cascade_exact(&pinned, &queries, &batch, &one_dim);
        }
        // The one-stage plan prunes nothing but the blocks its skip rule
        // drops: telemetry reports exactly the replay's activation.
        let stats_exact = mem.search_cascade_topk(&batch, &exact, 1).unwrap();
        let (_, _, activated) = reference_cascade(&rows, &queries, exact.ends(), 1, 1);
        prop_assert_eq!(stats_exact.stats().activated_dims(), activated);
    }

    /// Tie stress: duplicated row patterns force frequent exact ties;
    /// pruning must never discard the lowest tying row, on any backend.
    #[test]
    fn cascade_tie_break_survives_pruning(
        (patterns, picks, queries, plan) in (2usize..5, 64usize..130).prop_flat_map(|(p, d)| {
            (
                bit_rows(p, d),
                prop::collection::vec(0usize..p, 4..30),
                bit_rows(5, d),
                plans(d),
            )
        })
    ) {
        let rows: Vec<BitVector> = picks.iter().map(|&i| patterns[i].clone()).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            assert_cascade_exact(&pinned(&rows, backend), &queries, &batch, &plan);
        }
    }

    /// The public dispatch entry points (active backend, thread chunking
    /// when the `rayon` feature is on) agree with each other — one memory
    /// searched twice and a fresh one over the same matrix — and with
    /// `dot_batch`/`winners_batch`.
    #[test]
    fn cascade_entry_points_agree(
        (rows, queries, plan) in (1usize..10, prop::sample::select(vec![64usize, 128, 200]))
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(40, d), plans(d)))
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let mem = SearchMemory::new(m.clone());
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let reference = mem.winners_batch(&batch).unwrap();
        let via_memory = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        let via_cold = SearchMemory::new(m).search_cascade_topk(&batch, &plan, 1).unwrap();
        assert_top1_winners(&via_memory, &reference, "memory");
        assert_top1_winners(&via_cold, &reference, "cold memory");
        prop_assert_eq!(&via_cold, &via_memory);
        // Full-score search agrees with the cascade winner too.
        let full = mem.dot_batch(&batch).unwrap();
        for q in 0..queries.len() {
            prop_assert_eq!(full.argmax(q), via_memory.topk().hits(q)[0]);
        }
        // The bound (pre-derived) form answers identically, telemetry
        // included, and keeps answering identically across reuse.
        let bound = BoundCascade::new(Arc::new(mem.clone()), plan.clone()).unwrap();
        prop_assert_eq!(&bound.search_topk(&batch, 1).unwrap(), &via_memory);
        prop_assert_eq!(&bound.search_topk(&batch, 1).unwrap(), &via_memory);
    }

    /// Top-1 is the argmax: every cascade entry point's `k = 1` lists
    /// are the exact winners, with equal `CascadeStats` wherever the plan
    /// is the same — the one-shot memory path, the bound handle, every
    /// reachable backend, and the segmented layout (segment-aligned
    /// plans).
    #[test]
    fn cascade_is_top1_of_cascade_topk(
        (rows, queries, plan, parts) in
            (1usize..14, prop::sample::select(vec![64usize, 128, 192, 200, 256]))
            .prop_flat_map(|(r, d)| {
                (bit_rows(r, d), bit_rows(37, d), plans(d), prop::sample::select(vec![1usize, 2, 4]))
            })
    ) {
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let winners = mem.winners_batch(&batch).unwrap();
        let cascade = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        assert_top1_winners(&cascade, &winners, "SearchMemory");
        let bound = BoundCascade::new(Arc::new(mem.clone()), plan.clone()).unwrap();
        prop_assert_eq!(&bound.search_topk(&batch, 1).unwrap(), &cascade);
        for backend in Backend::available() {
            let out = pinned(&rows, backend).search_cascade_topk(&batch, &plan, 1).unwrap();
            prop_assert_eq!(&out, &cascade, "backend {}", backend);
        }
        // Segmented layout: `parts` equal segments, with the arbitrary
        // plan's boundaries snapped onto the segment grid.
        let segments = segments(&rows, parts, hd_linalg::kernel::active());
        let snapped = plan.snapped(rows[0].len() / parts).unwrap();
        let segmented = SegmentedCascade::new(&segments, &snapped).unwrap();
        let seg_cascade = segmented.search_topk(&segments, &batch, 1).unwrap();
        assert_top1_winners(&seg_cascade, &winners, "SegmentedCascade");
        prop_assert_eq!(seg_cascade.topk(), cascade.topk());
    }

    /// `CascadeStats` (per-stage shortlists, activated dimensions) and
    /// the k-best lists equal the row-at-a-time reference of the prune
    /// rule, for arbitrary plans and every `k` up to past the row count,
    /// on every reachable backend — contiguous and segmented.
    #[test]
    fn cascade_stats_match_row_at_a_time_reference(
        (rows, queries, plan, k, parts) in (1usize..20, dims()).prop_flat_map(|(r, d)| {
            (
                bit_rows(r, d),
                bit_rows(6, d),
                plans(d),
                1usize..r + 2,
                prop::sample::select(vec![1usize, 2, 4]),
            )
        })
    ) {
        assert_stats_match_reference(&rows, &queries, &plan, k, parts);
    }

    /// The same on graded memories, where the first stage skips the
    /// blocks whose heaviest row cannot reach the k-th partial.
    #[test]
    fn cascade_stats_match_reference_on_graded_memories(
        (rows, queries, plan, k, parts) in (1usize..40, dims()).prop_flat_map(|(r, d)| {
            (
                graded_rows(r, d),
                bit_rows(6, d),
                plans(d),
                1usize..10,
                prop::sample::select(vec![1usize, 2, 4]),
            )
        })
    ) {
        assert_stats_match_reference(&rows, &queries, &plan, k, parts);
    }
}

/// Asserts every cascade entry point over `rows` — the active backend,
/// each reachable backend, and `parts` equal segments when they divide
/// the width — matches [`reference_cascade`] for `plan` at `k`.
fn assert_stats_match_reference(
    rows: &[BitVector],
    queries: &[BitVector],
    plan: &CascadePlan,
    k: usize,
    parts: usize,
) {
    let dim = rows[0].len();
    let mem = SearchMemory::from_rows(rows).unwrap();
    let batch = QueryBatch::from_vectors(queries).unwrap();
    let reference = reference_cascade(rows, queries, plan.ends(), k, 1);
    assert_matches_reference(
        &mem.search_cascade_topk(&batch, plan, k).unwrap(),
        &reference,
        "active",
    );
    for backend in Backend::available() {
        let out = pinned(rows, backend).search_cascade_topk(&batch, plan, k).unwrap();
        assert_matches_reference(&out, &reference, &format!("backend {backend}"));
    }
    // Segmented: `parts` equal segments when they divide the width, the
    // plan snapped onto the segment grid.
    if dim.is_multiple_of(parts) {
        let snapped = plan.snapped(dim / parts).unwrap();
        let reference = reference_cascade(rows, queries, snapped.ends(), k, parts);
        let active = segments(rows, parts, hd_linalg::kernel::active());
        let segmented = SegmentedCascade::new(&active, &snapped).unwrap();
        let out = segmented.search_topk(&active, &batch, k).unwrap();
        assert_matches_reference(&out, &reference, "segmented");
        for backend in Backend::available() {
            let pinned_parts = segments(rows, parts, backend);
            let out = segmented.search_topk(&pinned_parts, &batch, k).unwrap();
            assert_matches_reference(&out, &reference, &format!("segmented {backend}"));
        }
    }
}

/// Rows of `dim = 128` bits whose set bits are `[lo, lo + ones)`.
fn span_row(lo: usize, ones: usize) -> BitVector {
    BitVector::from_bools(&(0..128).map(|i| (lo..lo + ones).contains(&i)).collect::<Vec<_>>())
}

/// A block whose heaviest row equals the k-th score is scored, not
/// skipped: the skip is strict, so it stays exact in any visiting order,
/// where a tying row lower than the k-th entry would displace it. Against
/// the all-ones query a row scores its popcount. Block 0 lists rows 0
/// and 1 at 90 and rows 2-7 at 40, so at k = 3 the k-th score is 40;
/// block 1 holds rows 8-15 at 40, its largest popcount equal to the k-th
/// (the telemetry counts its rows as scored, and in this ascending sweep
/// they lose the tie to row 2); block 2 holds rows 16-23 at 10, strictly
/// below it, and is skipped.
#[test]
fn block_at_the_kth_score_is_scored_and_keeps_the_lower_row() {
    let mut rows = vec![span_row(0, 90), span_row(38, 90)];
    rows.extend((2..16).map(|r| span_row(r * 4, 40)));
    rows.extend((16..24).map(|r| span_row(r, 10)));
    let query = vec![BitVector::ones(128)];
    let batch = QueryBatch::from_vectors(&query).unwrap();
    let expected: Vec<(usize, u32)> = vec![(0, 90), (1, 90), (2, 40)];
    for backend in Backend::available() {
        let mem = pinned(&rows, backend);
        assert_eq!(mem.topk_batch(&batch, 3).unwrap().hits(0), expected.as_slice());
        let out = mem.search_cascade_topk(&batch, &CascadePlan::exact(128), 3).unwrap();
        assert_eq!(out.topk().hits(0), expected.as_slice(), "backend {}", backend);
        // Blocks 0 and 1 are scored, block 2 is skipped.
        assert_eq!(out.stats().stage_rows(), &[16], "backend {}", backend);
        // At k = 10 the list takes rows 8 and 9 from block 1 at the tie.
        let out = mem.search_cascade_topk(&batch, &CascadePlan::exact(128), 10).unwrap();
        let ten: Vec<(usize, u32)> =
            [(0, 90), (1, 90)].into_iter().chain((2..10).map(|r| (r, 40))).collect();
        assert_eq!(out.topk().hits(0), ten.as_slice(), "backend {}", backend);
        assert_eq!(out.topk(), &mem.topk_batch(&batch, 10).unwrap());
        assert_eq!(out.stats().stage_rows(), &[16], "backend {}", backend);
    }
}

/// The rows each query's search scores, pinned exactly on a small graded
/// memory of 24 rows × 128 bits (three blocks). Row 0 holds bits
/// `[0, 100)`, rows 1-4 bits `[0, 60)`, rows 5-7 bits `[120, 122)`, and
/// rows 8-23 twenty bits each inside `[64, 84)`-`[64, 104)`.
#[test]
fn cascade_stats_pin_the_rows_each_query_scores() {
    let mut rows = vec![span_row(0, 100)];
    rows.extend((1..5).map(|_| span_row(0, 60)));
    rows.extend((5..8).map(|_| span_row(120, 2)));
    rows.extend((8..24).map(|r| span_row(64 + r % 4, 20)));
    let mem = SearchMemory::from_rows(&rows).unwrap();
    let ones = QueryBatch::from_vectors(&[BitVector::ones(128)]).unwrap();
    let stats = |batch: &QueryBatch, plan: &CascadePlan, k: usize| {
        let out = mem.search_cascade_topk(batch, plan, k).unwrap();
        (out.stats().stage_rows().to_vec(), out.stats().activated_dims())
    };
    let exact = CascadePlan::exact(128);
    // k = 1 and k = 5: block 0 fills the list (k-th score 100 or 60)
    // above every later block's largest popcount (20): 8 rows scored.
    assert_eq!(stats(&ones, &exact, 1), (vec![8], 8 * 128));
    assert_eq!(stats(&ones, &exact, 5), (vec![8], 8 * 128));
    // k = 8: block 0's k-th score is 2, so blocks 1 and 2 are scored too.
    assert_eq!(stats(&ones, &exact, 8), (vec![24], 24 * 128));
    // Two stages, [0, 64) then [64, 128), at k = 5. Stage 0 lists rows
    // 0-4 at 64, 60, 60, 60, 60, above every later block's 20: 8 rows.
    // Its k-th partial is 60; rows 5-7 (partial 0, 2 ones after 64) fall
    // to the row-side bound, rows 0-4 go on: 5 rows over 64 dims.
    let halves = CascadePlan::prefix(128, 64).unwrap();
    assert_eq!(stats(&ones, &halves, 5), (vec![8, 5], 8 * 64 + 5 * 64));
    // At k = 1 the stage-0 k-th partial is row 0's 64: rows 1-4 (60 and
    // no ones after 64) and 5-7 fall to the row-side bound, and row 0
    // alone goes on.
    assert_eq!(stats(&ones, &halves, 1), (vec![8, 1], 8 * 64 + 64));
    // A query of bits [64, 128) only: every stage-0 partial is 0, so the
    // k-th is 0, no block is skipped and no bound prunes (every bound is
    // at least 0): all 24 rows go through both stages.
    let high = QueryBatch::from_vectors(&[span_row(64, 64)]).unwrap();
    assert_eq!(stats(&high, &halves, 1), (vec![24, 24], 24 * 128));
    // Batched, the counts add up query by query.
    let both = QueryBatch::from_vectors(&[BitVector::ones(128), span_row(64, 64)]).unwrap();
    assert_eq!(stats(&both, &halves, 1).0, vec![8 + 24, 1 + 24]);
}
