//! Auto-tuned-plan and mutation equivalence properties.
//!
//! `CascadePlan::tuned` must always produce a *valid* plan whose cascade
//! is **bit-identical** to the exact sweep — for arbitrary memories and
//! query samples, on every kernel backend reachable on the host (the CI
//! scalar-forced job runs this suite with `HD_LINALG_BACKEND=scalar`).
//! Repeated searches agree, and a search after a mutation prunes
//! against the new bits and stays exact. The segmented
//! (partitioned-layout) cascade obeys the same contract. The tuner's
//! cost model is compiled in, so tuned plans are pinned exactly too.

use hd_linalg::kernel::Backend;
use hd_linalg::rng::seeded;
use hd_linalg::{
    BitVector, CascadePlan, CascadeTopK, CostModel, QueryBatch, SearchMemory, SegmentedCascade,
};
use proptest::prelude::*;
use rand::Rng;

fn bool_vec(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), len)
}

fn bits(len: usize) -> impl Strategy<Value = BitVector> {
    bool_vec(len).prop_map(|b| BitVector::from_bools(&b))
}

fn bit_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    prop::collection::vec(bits(len), rows)
}

/// Sparse rows with one dense outlier: the shapes where tuning actually
/// picks a multi-stage plan (uniform random rows tune to the exact plan,
/// which is also worth covering — both appear under this strategy).
fn mixed_density_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    (bit_rows(1, len), prop::collection::vec(0u8..=20, rows.saturating_sub(1))).prop_map(
        move |(dense, densities)| {
            let mut out = dense;
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for (i, d) in densities.iter().enumerate() {
                let bools: Vec<bool> = (0..len)
                    .map(|j| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407 + (i + j) as u64);
                        (state >> 56) as u8 % 100 < *d
                    })
                    .collect();
                out.push(BitVector::from_bools(&bools));
            }
            out
        },
    )
}

/// Each query's one entry of a `k = 1` cascade: its winner.
fn top1(out: &CascadeTopK) -> Vec<(usize, u32)> {
    (0..out.topk().len()).map(|q| out.topk().hits(q)[0]).collect()
}

/// Dimensions with and without tuning candidates (below 128 every
/// candidate grid is empty and `tuned` must fall back to the exact
/// plan), word-aligned and masked tails included.
fn dims() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![65usize, 128, 130, 192, 256, 300])
}

proptest! {
    /// `tuned` always yields a valid plan whose cascade results are
    /// bit-identical to the exact sweep, on every reachable backend and
    /// through the active-backend path (twice, so the two calls must
    /// agree).
    #[test]
    fn tuned_plan_is_valid_and_exact(
        (rows, queries) in (2usize..14, dims()).prop_flat_map(|(r, d)| {
            (mixed_density_rows(r, d), bit_rows(7, d))
        })
    ) {
        let dim = rows[0].len();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let plan = CascadePlan::tuned(&mem, &batch).unwrap();
        // Structural validity: covers the memory's width, strictly
        // increasing boundaries ending at dim, interior boundaries on
        // the word grid (the tuner's candidate set).
        prop_assert_eq!(plan.dim(), dim);
        let ends = plan.ends();
        prop_assert_eq!(*ends.last().unwrap(), dim);
        for pair in ends.windows(2) {
            prop_assert!(pair[0] < pair[1], "ends not increasing: {:?}", ends);
        }
        for &e in &ends[..ends.len() - 1] {
            prop_assert!(e % 64 == 0, "interior boundary {} off the word grid", e);
        }
        // Tuning is deterministic.
        prop_assert_eq!(&plan, &CascadePlan::tuned(&mem, &batch).unwrap());
        // Bit-identical to the exact sweep everywhere.
        let reference = mem.winners_batch(&batch).unwrap();
        for backend in Backend::available() {
            let pinned = SearchMemory::with_backend(mem.matrix().clone(), backend);
            let out = pinned.search_cascade_topk(&batch, &plan, 1).unwrap();
            prop_assert_eq!(top1(&out), reference.clone(), "backend {}", backend);
        }
        let first = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        prop_assert_eq!(top1(&first), reference.clone());
        prop_assert_eq!(&mem.search_cascade_topk(&batch, &plan, 1).unwrap(), &first);
    }

    /// Cascades after a mutation match a freshly-built memory bit for bit
    /// (a stale row-suffix table would corrupt the pruning bound).
    #[test]
    fn mutation_rederives_row_suffix_tables(
        (rows, queries, flips) in (2usize..10, dims()).prop_flat_map(|(r, d)| {
            (
                bit_rows(r, d),
                bit_rows(6, d),
                prop::collection::vec((0..r, 0..d), 1..8),
            )
        })
    ) {
        let dim = rows[0].len();
        let mut mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let plan = CascadePlan::prefix(dim, dim / 2).unwrap();
        // Search once before the mutation.
        mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        mem.modify(|m| {
            for &(r, c) in &flips {
                let flipped = !m.get(r, c);
                m.set(r, c, flipped);
            }
        });
        let fresh = SearchMemory::new(mem.matrix().clone());
        let expected = fresh.winners_batch(&batch).unwrap();
        prop_assert_eq!(mem.winners_batch(&batch).unwrap(), expected.clone());
        let cascade = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        prop_assert_eq!(top1(&cascade), expected.clone());
        // The tuned plan of the mutated memory is exact too.
        let tuned = CascadePlan::tuned(&mem, &batch).unwrap();
        prop_assert_eq!(top1(&mem.search_cascade_topk(&batch, &tuned, 1).unwrap()), expected);
    }

    /// The segmented (partitioned-layout) cascade matches the contiguous
    /// exact search for arbitrary segment counts and segment-aligned
    /// plans, including tuned-then-snapped ones.
    #[test]
    fn segmented_cascade_matches_exact(
        (rows, queries, parts_pick) in (2usize..12, prop::sample::select(vec![128usize, 192, 256, 320]))
            .prop_flat_map(|(r, d)| (mixed_density_rows(r, d), bit_rows(6, d), 0usize..3))
    ) {
        let dim = rows[0].len();
        let divisors: Vec<usize> = [2usize, 4, 8, 3, 5].iter().copied().filter(|p| dim % p == 0).collect();
        let p = divisors[parts_pick % divisors.len()];
        let seg = dim / p;
        let parts: Vec<SearchMemory> = (0..p)
            .map(|i| {
                let segs: Vec<BitVector> = rows.iter().map(|r| r.slice(i * seg, seg)).collect();
                SearchMemory::from_rows(&segs).unwrap()
            })
            .collect();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let reference = mem.winners_batch(&batch).unwrap();
        let mut plans = vec![CascadePlan::exact(dim)];
        if p > 1 {
            plans.push(CascadePlan::prefix(dim, seg).unwrap());
            plans.push(CascadePlan::uniform(dim, p).unwrap());
        }
        plans.push(CascadePlan::tuned(&mem, &batch).unwrap().snapped(seg).unwrap());
        let aligned_tuned = CascadePlan::tuned_aligned(&mem, &batch, seg).unwrap();
        for &e in &aligned_tuned.ends()[..aligned_tuned.stages() - 1] {
            prop_assert!(e % seg == 0, "tuned_aligned boundary {} off the {} grid", e, seg);
        }
        plans.push(aligned_tuned);
        for plan in plans {
            let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
            let out = cascade.search_topk(&parts, &batch, 1).unwrap();
            prop_assert_eq!(top1(&out), reference.clone(), "P={} {:?}", p, plan);
            // Reuse of the derived handle answers identically.
            prop_assert_eq!(&cascade.search_topk(&parts, &batch, 1).unwrap(), &out);
            let stats = out.stats();
            prop_assert!(stats.activated_dims() <= stats.exact_dims());
            prop_assert_eq!(stats.queries(), queries.len());
        }
    }
}

/// The imbalanced memory of the `cascade_calibrated` bench at width
/// `dim`: one dense majority row over nine sparse ones, and 256 queries
/// that are noisy copies of the majority row except every fiftieth.
fn imbalanced(dim: usize) -> (SearchMemory, QueryBatch) {
    let vectors = 10usize;
    let mut rng = seeded(23);
    let mut density_bits = |density: f32| -> BitVector {
        BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>())
    };
    let mut rows = vec![density_bits(0.5)];
    for _ in 1..vectors {
        rows.push(density_bits(0.02));
    }
    let queries: Vec<BitVector> = (0..256)
        .map(|i| {
            let base = if i % 50 != 0 { 0 } else { 1 + i % (vectors - 1) };
            let mut q = rows[base].clone();
            for _ in 0..dim / 20 {
                let bit = rng.gen_range(0..dim);
                q.set(bit, !q.get(bit));
            }
            q
        })
        .collect();
    (SearchMemory::from_rows(&rows).unwrap(), QueryBatch::from_vectors(&queries).unwrap())
}

/// The tuner prices plans with compiled-in constants, and servebench's
/// provenance line prints them in this form.
#[test]
fn cost_model_is_the_compiled_in_constants() {
    let model = CostModel::active();
    assert_eq!(
        (model.cont_weight, model.row_overhead_words, model.stage_overhead_words),
        (4.0, 2.0, 80.0)
    );
    assert_eq!(model.to_string(), "cont=4,row=2,stage=80");
}

/// Tuned plans depend on the memory and sample alone, not on the host or
/// its kernel backend, so their ends are pinned exactly.
#[test]
fn tuned_plans_are_golden() {
    // The imbalanced 10240x10 workload cuts after ten words.
    let (mem, batch) = imbalanced(10240);
    assert_eq!(CascadePlan::tuned(&mem, &batch).unwrap().ends(), &[640, 10240]);

    // Balanced random rows never separate early: the exact plan wins.
    let mut rng = seeded(7);
    let mut random_bits =
        || BitVector::from_bools(&(0..1024).map(|_| rng.gen::<bool>()).collect::<Vec<_>>());
    let rows: Vec<BitVector> = (0..64).map(|_| random_bits()).collect();
    let queries: Vec<BitVector> = (0..64).map(|_| random_bits()).collect();
    let mem = SearchMemory::from_rows(&rows).unwrap();
    let batch = QueryBatch::from_vectors(&queries).unwrap();
    assert_eq!(CascadePlan::tuned(&mem, &batch).unwrap(), CascadePlan::exact(1024));

    // On a 100-bit segment grid the two-segment prefix beats the
    // one-segment one.
    let (mem, batch) = imbalanced(2000);
    assert_eq!(CascadePlan::tuned_aligned(&mem, &batch, 100).unwrap().ends(), &[200, 2000]);
}
