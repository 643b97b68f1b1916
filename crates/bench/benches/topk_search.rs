//! Exact top-k associative search: the fused k-best sweep vs the naive
//! score-then-sort reference, the k-th-score cascade vs the exact fused
//! sweep on the imbalanced BasicHDC 10240×10 AM and on a shard where
//! nothing prunes, and the exact sweep's block skip on the graded wide
//! memory.
//!
//! The fused path (`SearchMemory::topk_batch`) carries a bounded k-best
//! list per query lane through the blocked panel sweep and never
//! materializes the full `ScoreMatrix`; the reference materializes all
//! rows×queries scores and stable-sorts each query's row slice. Both
//! paths are asserted bit-identical (same rows, same order) before any
//! timing runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, BoundCascade, CascadePlan, QueryBatch, SearchMemory};
use rand::Rng;

const K: usize = 5;

fn random_rows(rows: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..rows)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

fn random_batch(n: usize, dim: usize, seed: u64) -> QueryBatch {
    let mut rng = seeded(seed);
    let queries: Vec<BitVector> = (0..n)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect();
    QueryBatch::from_vectors(&queries).expect("batch")
}

/// Score-then-sort reference: materialize the full score matrix, then
/// stable-sort each query's `(row, score)` rows by (score desc, row asc)
/// and truncate to `k`. This is what callers had to write before
/// `topk_batch` existed — and what the fused sweep must beat.
fn sorted_topk(memory: &SearchMemory, batch: &QueryBatch, k: usize) -> Vec<Vec<(usize, u32)>> {
    let scores = memory.dot_batch(batch).expect("scores");
    (0..batch.len())
        .map(|q| {
            let mut rows: Vec<(usize, u32)> =
                scores.scores(q).iter().copied().enumerate().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            rows.truncate(k.min(rows.len()));
            rows
        })
        .collect()
}

/// Fused top-k vs score-then-sort at the Table II AM shapes: MEMHD
/// 128×128 (many rows, narrow) and BasicHDC 10240×10 (few rows, wide).
fn bench_topk_fused(c: &mut Criterion) {
    eprintln!("hd_linalg kernel backend: {}", hd_linalg::kernel::active());
    let mut group = c.benchmark_group("topk_search");
    let n_queries = 1_000usize;
    // (label, rows, dim)
    let shapes = [("memhd_128x128", 128usize, 128usize), ("basic_10240x10", 10, 10240)];
    for (label, rows, dim) in shapes {
        let memory = SearchMemory::from_rows(&random_rows(rows, dim, 23)).expect("memory");
        let batch = random_batch(n_queries, dim, 24);
        // The fused sweep is an execution strategy, not an approximation:
        // pin list equality (rows AND order) before timing.
        let reference = sorted_topk(&memory, &batch, K);
        let fused = memory.topk_batch(&batch, K).expect("topk");
        for (q, expect) in reference.iter().enumerate() {
            assert_eq!(fused.hits(q), expect.as_slice(), "query {q} at {label}");
        }
        group.throughput(Throughput::Elements(n_queries as u64));
        group.bench_with_input(BenchmarkId::new(format!("fused_{label}"), n_queries), &batch, {
            let memory = memory.clone();
            move |b, batch| {
                b.iter(|| {
                    memory
                        .topk_batch(batch, K)
                        .expect("topk")
                        .hits(0)
                        .iter()
                        .map(|&(row, _)| row)
                        .sum::<usize>()
                })
            }
        });
        group.bench_with_input(BenchmarkId::new(format!("sorted_{label}"), n_queries), &batch, {
            let memory = memory.clone();
            move |b, batch| {
                b.iter(|| {
                    sorted_topk(&memory, batch, K)[0].iter().map(|&(row, _)| row).sum::<usize>()
                })
            }
        });
    }
    group.finish();
}

/// k-th-score cascade pruning vs the exact fused top-k sweep on a
/// class-imbalanced BasicHDC 10240×10 AM with a graded popcount profile
/// (the global-threshold quantization pathology of §III-B, one step
/// further along: a dense majority centroid, four moderate minority
/// centroids, five near-empty ones) and 99% majority traffic. Top-k
/// pruning needs the ranks below k to be *boundedly* below the k-th —
/// the near-empty tail's Hamming suffix bound cannot reach the running
/// k-th-best score, so the cascade finishes only the top-5 slate — and
/// the returned k-best lists stay bit-identical to `topk_batch`
/// (asserted). A flat nine-identical-sparse-centroids profile is the
/// adversarial case: every rank below 1 is statistically exchangeable,
/// nothing below the k-th can be bounded out, and the cascade degrades
/// to exact work plus overhead (see the README plan-picking guidance).
fn bench_topk_cascade(c: &mut Criterion) {
    let dim = 10240usize;
    let vectors = 10usize;
    // Serving-sized batch (~1.3 MB of query words): L2-resident on the
    // reference host, so both sides measure compute, not the DRAM/L3
    // streaming wall that equalizes them on multi-MB batches (at 10k
    // queries the ratio collapses toward 1 — both paths must stream
    // every query word once, and that stream is the bottleneck).
    let n_queries = 1_000usize;
    let mut rng = seeded(17);
    let mut density_bits = |density: f32| -> BitVector {
        BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>())
    };
    // Centroid 0: dense majority class. Centroids 1..5: moderate
    // minorities (the true top-5 slate for majority traffic).
    // Centroids 5..10: near-empty — prunable below any k=5 threshold.
    let mut rows = vec![density_bits(0.5)];
    for _ in 1..5 {
        rows.push(density_bits(0.3));
    }
    for _ in 5..vectors {
        rows.push(density_bits(0.005));
    }
    let memory = SearchMemory::from_rows(&rows).expect("memory");
    // Queries: 5%-perturbed copies of a stored centroid, 99% majority.
    let queries: Vec<BitVector> = (0..n_queries)
        .map(|i| {
            let base = if i % 100 != 0 { 0 } else { 1 + (i / 100) % (vectors - 1) };
            let mut q = rows[base].clone();
            for _ in 0..dim / 20 {
                let bit = rng.gen_range(0..dim);
                q.set(bit, !q.get(bit));
            }
            q
        })
        .collect();
    let batch = QueryBatch::from_vectors(&queries).expect("batch");
    let plan = CascadePlan::prefix(dim, dim / 16).expect("plan");
    // Serving holds exactly this handle: its row-suffix table derived once.
    let bound = BoundCascade::new(std::sync::Arc::new(memory.clone()), plan).expect("bound");

    // Acceptance: the cascade's k-best lists are bit-identical (same
    // rows, same order) to the sort reference and the fused sweep.
    let reference = sorted_topk(&memory, &batch, K);
    let fused = memory.topk_batch(&batch, K).expect("topk");
    let cascade = bound.search_topk(&batch, K).expect("cascade topk");
    eprintln!(
        "topk_cascade: activation fraction {:.3} (stage shortlists {:?})",
        cascade.stats().activation_fraction(),
        cascade.stats().stage_rows()
    );
    let cascade_topk = cascade.into_topk();
    for (q, expect) in reference.iter().enumerate() {
        assert_eq!(fused.hits(q), expect.as_slice(), "fused query {q}");
        assert_eq!(cascade_topk.hits(q), expect.as_slice(), "cascade query {q}");
    }

    let mut group = c.benchmark_group("topk_search");
    group.throughput(Throughput::Elements(n_queries as u64));
    group.bench_with_input(BenchmarkId::new("exact_k5_10240x10", n_queries), &batch, |b, batch| {
        b.iter(|| {
            memory
                .topk_batch(batch, K)
                .expect("topk")
                .hits(0)
                .iter()
                .map(|&(row, _)| row)
                .sum::<usize>()
        })
    });
    group.bench_with_input(
        BenchmarkId::new("cascade_k5_10240x10", n_queries),
        &batch,
        |b, batch| {
            b.iter(|| {
                bound
                    .search_topk(batch, K)
                    .expect("cascade topk")
                    .into_topk()
                    .hits(0)
                    .iter()
                    .map(|&(row, _)| row)
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

/// The cascade's worst case: the wide serving workload's second shard —
/// 1024 near-empty rows (0.5% density, 2048 bits) searched by 256
/// perturbed copies of the dense centroid at k = 5 under
/// `[64, 256, 2048]`, the plan the whole-memory tuner picked while it
/// priced the exact plan as a full sweep. Every row's score is near zero
/// and the k-th best partial never separates from the rest, so almost
/// nothing prunes: the cascade can only lose to the exact fused sweep
/// (which skips the odd block whose rows are all lighter than the k-th
/// score), and the same-run cascade:exact ratio is what a stage that
/// cannot prune costs. Lists are asserted bit-identical before timing.
fn bench_topk_unprunable(c: &mut Criterion) {
    let (rows, dim, n_queries) = (1024usize, 2048usize, 256usize);
    let mut rng = seeded(31);
    let mut density_bits = |density: f32| -> BitVector {
        BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>())
    };
    let dense = density_bits(0.5);
    let sparse: Vec<BitVector> = (0..rows).map(|_| density_bits(0.005)).collect();
    let memory = SearchMemory::from_rows(&sparse).expect("memory");
    let queries: Vec<BitVector> = (0..n_queries)
        .map(|_| {
            let mut q = dense.clone();
            for _ in 0..dim / 20 {
                let bit = rng.gen_range(0..dim);
                q.set(bit, !q.get(bit));
            }
            q
        })
        .collect();
    let batch = QueryBatch::from_vectors(&queries).expect("batch");
    let plan = CascadePlan::from_widths(dim, &[64, 192, 1792]).expect("plan");
    let bound = BoundCascade::new(std::sync::Arc::new(memory.clone()), plan).expect("bound");
    let fused = memory.topk_batch(&batch, K).expect("topk");
    let cascade = bound.search_topk(&batch, K).expect("cascade topk");
    eprintln!(
        "topk_unprunable: activation fraction {:.3} (stage shortlists {:?})",
        cascade.stats().activation_fraction(),
        cascade.stats().stage_rows()
    );
    assert_eq!(cascade.topk(), &fused, "cascade lists must equal the fused sweep's");

    let mut group = c.benchmark_group("topk_search");
    group.throughput(Throughput::Elements(n_queries as u64));
    group.bench_with_input(
        BenchmarkId::new("exact_k5_unprunable_1024x2048", n_queries),
        &batch,
        |b, batch| b.iter(|| memory.topk_batch(batch, K).expect("topk").hits(0)[0].0),
    );
    group.bench_with_input(
        BenchmarkId::new("cascade_k5_unprunable_1024x2048", n_queries),
        &batch,
        |b, batch| {
            b.iter(|| bound.search_topk(batch, K).expect("cascade topk").topk().hits(0)[0].0)
        },
    );
    group.finish();
}

/// The exact fused top-5 sweep on servebench's graded wide memory: one
/// dense (50%) row, four moderate (30%) rows and 2043 near-empty (0.5%)
/// rows of 2048 bits, searched by 256 perturbed copies of stored rows
/// (99% of them of the dense row). The five heavy rows share block 0 and
/// the light rows' heaviest holds a few dozen bits, so once block 0 has
/// filled a query's list every other block's largest row popcount sits
/// below the k-th score and the sweep skips it unscored. Lists are
/// asserted equal to the score-then-sort reference before timing.
fn bench_topk_graded(c: &mut Criterion) {
    let (rows, dim, n_queries) = (2048usize, 2048usize, 256usize);
    let mut rng = seeded(0x7769_6465);
    let stored: Vec<BitVector> = (0..rows)
        .map(|r| {
            let density = match r {
                0 => 0.5,
                1..=4 => 0.3,
                _ => 0.005,
            };
            BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>())
        })
        .collect();
    let queries: Vec<BitVector> = (0..n_queries)
        .map(|i| {
            let base = if i % 100 != 0 { 0 } else { rng.gen_range(1..rows) };
            let mut q = stored[base].clone();
            for _ in 0..dim / 20 {
                let bit = rng.gen_range(0..dim);
                q.set(bit, !q.get(bit));
            }
            q
        })
        .collect();
    let memory = SearchMemory::from_rows(&stored).expect("memory");
    let batch = QueryBatch::from_vectors(&queries).expect("batch");
    let reference = sorted_topk(&memory, &batch, K);
    let fused = memory.topk_batch(&batch, K).expect("topk");
    for (q, expect) in reference.iter().enumerate() {
        assert_eq!(fused.hits(q), expect.as_slice(), "graded query {q}");
    }

    let mut group = c.benchmark_group("topk_search");
    group.throughput(Throughput::Elements(n_queries as u64));
    group.bench_with_input(
        BenchmarkId::new("exact_k5_graded_2048x2048", n_queries),
        &batch,
        |b, batch| b.iter(|| memory.topk_batch(batch, K).expect("topk").hits(0)[0].0),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_topk_fused,
    bench_topk_cascade,
    bench_topk_unprunable,
    bench_topk_graded
);
criterion_main!(benches);
