//! Associative-search latency: the software popcount sweep behind every
//! training epoch, at the AM shapes of Table II.
//!
//! MEMHD 128×128 (one array worth of memory) vs BasicHDC 10240×10 (the
//! high-dimensional baseline) — the software echo of the paper's 80×
//! cycle-count gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hd_linalg::rng::seeded;
use hd_linalg::{
    BitVector, BoundCascade, CascadePlan, CascadeTopK, CostModel, LabeledMemory, QueryBatch,
    ScoreMatrix, SearchMemory,
};
use hdc::BinaryAm;
use imc_sim::{AmMapping, ArraySpec, MappingStrategy};
use rand::Rng;

fn random_am(k: usize, vectors: usize, dim: usize, seed: u64) -> BinaryAm {
    let mut rng = seeded(seed);
    let centroids: Vec<(usize, BitVector)> = (0..vectors)
        .map(|v| {
            let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
            (v % k, BitVector::from_bools(&bits))
        })
        .collect();
    BinaryAm::from_centroids(k, centroids).expect("valid AM")
}

fn random_query(dim: usize, seed: u64) -> BitVector {
    let mut rng = seeded(seed);
    let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
    BitVector::from_bools(&bits)
}

/// Class of each query's top-1 row in a cascade result.
fn top1_classes(memory: &impl LabeledMemory, out: &CascadeTopK) -> Vec<usize> {
    (0..out.topk().len()).map(|q| memory.class_of(out.topk().hits(q)[0].0)).collect()
}

fn bench_search(c: &mut Criterion) {
    // Provenance for the recorded numbers: which popcount backend the
    // runtime dispatch selected (see BENCH_search.json `environment`).
    eprintln!("hd_linalg kernel backend: {}", hd_linalg::kernel::active());
    let mut group = c.benchmark_group("associative_search");
    // (label, k, vectors, dim) — Table II structures.
    let shapes = [
        ("memhd_128x128", 10usize, 128usize, 128usize),
        ("memhd_512x128", 26, 128, 512),
        ("basic_10240x10", 10, 10, 10240),
        ("searchd_1024x160", 10, 160, 1024),
    ];
    for (label, k, vectors, dim) in shapes {
        let am = random_am(k, vectors, dim, 3);
        let q = random_query(dim, 4);
        group.bench_with_input(BenchmarkId::from_parameter(label), &am, |b, am| {
            b.iter(|| am.search(&q).expect("search"))
        });
    }
    group.finish();
}

/// Batched vs per-query associative search at the MEMHD 128×128 shape —
/// the throughput comparison behind the committed `BENCH_search.json`
/// perf trajectory. The per-query loop already runs the shared popcount
/// kernel; the batched path additionally amortizes memory-row loads over
/// register-blocked query tiles and drops all per-query allocation.
fn bench_search_batched(c: &mut Criterion) {
    let (k, vectors, dim) = (10usize, 128usize, 128usize);
    let am = random_am(k, vectors, dim, 3);
    let mut group = c.benchmark_group("associative_search_batched");
    for &n_queries in &[1_000usize, 10_000] {
        let queries: Vec<BitVector> =
            (0..n_queries).map(|i| random_query(dim, 1000 + i as u64)).collect();
        let batch = QueryBatch::from_vectors(&queries).expect("batch");
        group.throughput(Throughput::Elements(n_queries as u64));
        group.bench_with_input(
            BenchmarkId::new("single_loop", n_queries),
            &queries,
            |b, queries| {
                b.iter(|| queries.iter().map(|q| am.search(q).expect("search").row).sum::<usize>())
            },
        );
        group.bench_with_input(BenchmarkId::new("batched", n_queries), &batch, |b, batch| {
            b.iter(|| {
                am.search_batch(batch).expect("search").hits().iter().map(|h| h.row).sum::<usize>()
            })
        });
        // Winners-only sweep: the classification fast path (no score
        // matrix is materialized).
        group.bench_with_input(
            BenchmarkId::new("batched_classify", n_queries),
            &batch,
            |b, batch| b.iter(|| am.classify_batch(batch).expect("search").iter().sum::<usize>()),
        );
    }
    group.finish();
}

/// Progressive-precision cascade vs the exact winners sweep on a
/// class-imbalanced AM at the BasicHDC 10240×10 shape.
///
/// The workload models imbalanced traffic over an AM whose centroid
/// popcounts are imbalanced (the global-threshold quantization pathology
/// §III-B warns about): one dense majority-class centroid, nine sparse
/// minority ones, and 99% of the 10k queries near the majority centroid.
/// The cascade scores a D/16 prefix, prunes the sparse centroids via the
/// Hamming bound, and finishes only the survivors — same predictions as
/// `classify_batch`, bit for bit (asserted before timing).
fn bench_cascade_search(c: &mut Criterion) {
    let dim = 10240usize;
    let vectors = 10usize;
    let n_queries = 10_000usize;
    let mut rng = seeded(17);
    let mut density_bits = |density: f32| -> BitVector {
        BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>())
    };
    // Centroid 0: dense majority class. Centroids 1..10: sparse.
    let mut centroids = vec![(0usize, density_bits(0.5))];
    for v in 1..vectors {
        centroids.push((v, density_bits(0.02)));
    }
    let rows: Vec<BitVector> = centroids.iter().map(|(_, b)| b.clone()).collect();
    let am = BinaryAm::from_centroids(vectors, centroids).expect("valid AM");
    // Queries: 5%-perturbed copies of a stored centroid, 99% of them
    // from the majority class.
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
    // Bind the plan once, mirroring how `classify_batch` reuses the AM's
    // pre-packed memory: the serving path (hd_serve's cascade shards)
    // holds exactly this handle.
    let bound = BoundCascade::new(std::sync::Arc::new(am.search_memory().clone()), plan.clone())
        .expect("bound cascade");

    // Auto-tuned plan: the tuner replays the Hamming bound on a strided
    // subsample of the real traffic and picks the stage widths itself —
    // the id pins that it is no slower than the hand-picked D/16 plan.
    let tuned_plan = CascadePlan::tuned(am.search_memory(), &batch).expect("tuned plan");
    let tuned_bound =
        BoundCascade::new(std::sync::Arc::new(am.search_memory().clone()), tuned_plan.clone())
            .expect("tuned bound cascade");
    // Partitioned mapping (Table II's P=16 shape for 10240x10): the
    // cascade runs with stage boundaries on the 640-dim segment grid and
    // per-partition shortlist carry-over; the mapping-level tuner scores
    // candidates on that grid directly.
    let partitions = 16usize;
    let mapping =
        AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Partitioned { partitions })
            .expect("partitioned mapping");
    let part_plan = mapping.tuned_cascade_plan(&batch).expect("segment-aligned tuned plan");

    // The cascade is an execution strategy, not an approximation: pin
    // prediction equality (and report the pruning rate) before timing.
    let exact = am.classify_batch(&batch).expect("exact");
    let memory = am.search_memory();
    let stats = memory.search_cascade_topk(&batch, &plan, 1).expect("cascade");
    assert_eq!(exact, top1_classes(&am, &stats));
    let tuned_out = memory.search_cascade_topk(&batch, &tuned_plan, 1).expect("tuned cascade");
    assert_eq!(exact, top1_classes(&am, &tuned_out));
    let part_out =
        mapping.search_batch_cascade(&batch, &part_plan, 1).expect("partitioned cascade");
    assert_eq!(exact, top1_classes(&mapping, &part_out));
    eprintln!(
        "cascade_search: activation fraction {:.3} (stage shortlists {:?}); tuned plan ends \
         {:?} (activation {:.3}); partitioned P={partitions} plan ends {:?} (activation {:.3})",
        stats.stats().activation_fraction(),
        stats.stats().stage_rows(),
        tuned_plan.ends(),
        tuned_out.stats().activation_fraction(),
        part_plan.ends(),
        part_out.stats().activation_fraction(),
    );

    let mut group = c.benchmark_group("cascade_search");
    group.throughput(Throughput::Elements(n_queries as u64));
    group.bench_with_input(
        BenchmarkId::new("batched_classify_10240x10", n_queries),
        &batch,
        |b, batch| b.iter(|| am.classify_batch(batch).expect("search").iter().sum::<usize>()),
    );
    group.bench_with_input(
        BenchmarkId::new("cascade_classify_10240x10", n_queries),
        &batch,
        |b, batch| {
            b.iter(|| {
                let out = bound.search_topk(batch, 1).expect("search");
                let lists = out.topk();
                (0..lists.len()).map(|q| am.class_of(lists.hits(q)[0].0)).sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("cascade_tuned_10240x10", n_queries),
        &batch,
        |b, batch| {
            b.iter(|| {
                let out = tuned_bound.search_topk(batch, 1).expect("search");
                let lists = out.topk();
                (0..lists.len()).map(|q| am.class_of(lists.hits(q)[0].0)).sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("cascade_partitioned_10240x10", n_queries),
        &batch,
        |b, batch| {
            b.iter(|| {
                let out = mapping.search_batch_cascade(batch, &part_plan, 1).expect("search");
                let lists = out.topk();
                (0..lists.len()).map(|q| mapping.class_of(lists.hits(q)[0].0)).sum::<usize>()
            })
        },
    );
    group.finish();
}

/// Repeated-batch cascade loops at the model layer: one `BoundCascade`
/// over the model's binary-AM memory, bound outside the loop. Small
/// batches against a wide imbalanced AM — the QAT-epoch / eval-sweep
/// shape. `memhd_bound_cached` runs the three-stage `[128, 512, 2048]`
/// plan, pinned so the id keeps timing a multi-stage pass;
/// `memhd_bound_exact` runs the exact plan, which the tuner picks here:
/// the dense centroid sits in block 0 and the sparse ones hold a few
/// dozen bits each, so the exact plan's block-max skip scores one block
/// per query.
fn bench_cascade_repeat(c: &mut Criterion) {
    let dim = 2048usize;
    let classes = 64usize;
    let vectors = 2048usize; // 32 centroids per class
    let batch_queries = 64usize;
    let features = 8usize;
    let mut rng = seeded(19);
    let mut density_bits = |density: f32| -> BitVector {
        BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>())
    };
    // Centroid 0: dense majority class. The rest: sparse minorities.
    let mut centroids = vec![(0usize, density_bits(0.5))];
    for v in 1..vectors {
        centroids.push((v % classes, density_bits(0.02)));
    }
    let rows: Vec<BitVector> = centroids.iter().map(|(_, b)| b.clone()).collect();
    let am = BinaryAm::from_centroids(classes, centroids).expect("valid AM");
    // Wrap the AM in a real MemhdModel (assemble = the import path for
    // externally produced memories) so the loop runs through the model
    // layer the acceptance criterion names.
    let fp_rows: Vec<(usize, Vec<f32>)> =
        (0..vectors).map(|v| (am.class_of(v), am.centroid(v).to_f32())).collect();
    let fp_am = hdc::FloatAm::from_centroids(classes, fp_rows).expect("fp mirror");
    let config = memhd::MemhdConfig::new(dim, vectors, classes).expect("config");
    let encoder = hdc::RandomProjectionEncoder::new(features, dim, 7);
    let model = memhd::MemhdModel::assemble(config, encoder, fp_am, am).expect("assembled model");
    let am = model.binary_am();
    // One micro-batch of encoded queries, 99% majority traffic, replayed
    // every iteration — the repeated-batch loop.
    let queries: Vec<BitVector> = (0..batch_queries)
        .map(|i| {
            let base = if i % 32 != 0 { 0 } else { 1 + (i % (vectors - 1)) };
            let mut q = rows[base].clone();
            for _ in 0..dim / 20 {
                let bit = rng.gen_range(0..dim);
                q.set(bit, !q.get(bit));
            }
            q
        })
        .collect();
    let batch = QueryBatch::from_vectors(&queries).expect("batch");
    let memory = am.search_memory();
    let tuned = CascadePlan::tuned(memory, &batch).expect("tuned plan");
    eprintln!("cascade_repeat: tuned plan ends {:?} over {vectors}x{dim}", tuned.ends());
    let exact = am.classify_batch(&batch).expect("exact");
    let memory = std::sync::Arc::new(memory.clone());

    let mut group = c.benchmark_group("cascade_repeat");
    group.throughput(Throughput::Elements(batch_queries as u64));
    let plans = [
        ("memhd_bound_cached", CascadePlan::from_widths(dim, &[128, 384, 1536]).expect("plan")),
        ("memhd_bound_exact", CascadePlan::exact(dim)),
    ];
    for (id, plan) in plans {
        let bound = BoundCascade::new(std::sync::Arc::clone(&memory), plan).expect("bound cascade");
        assert_eq!(exact, top1_classes(&model, &bound.search_topk(&batch, 1).expect("search")));
        group.bench_with_input(BenchmarkId::new(id, batch_queries), &batch, |b, batch| {
            b.iter(|| {
                let out = bound.search_topk(batch, 1).expect("search");
                let lists = out.topk();
                (0..lists.len()).map(|q| model.class_of(lists.hits(q)[0].0)).sum::<usize>()
            })
        });
    }
    group.finish();
}

/// The plan tuner and the zero-repack segment-view paths (the group
/// keeps its historical `cascade_calibrated` id, which baselines are
/// keyed by).
///
/// `tuned_plan_10240x10` times `CascadePlan::tuned` itself — candidate
/// plans priced with the compiled-in `CostModel` — on the imbalanced
/// 10240×10 workload, asserting first that the tuner converges to a
/// multi-stage plan with a short prefix that classifies bit-identically
/// to the exact sweep. The `segview_*` pair times the segment packing
/// the partitioned layouts pay on unaligned segment grids (dim 1600,
/// P=16 → 100-bit segments, off the word grid): `segview_reuse` drives
/// every partition through `QueryBatch::segments` (all segments shifted
/// into one buffer per call), `segview_repack` re-slices every query
/// segment into its own `BitVector` and re-packs one batch per segment —
/// the old `AmMapping` behavior, kept here as the reference. Scores are
/// asserted bit-identical across the two paths before timing.
fn bench_cascade_calibrated(c: &mut Criterion) {
    eprintln!("cascade_calibrated: cost model {}", CostModel::active());

    // Tuner latency on the imbalanced 10240x10 workload (one dense
    // majority centroid, nine sparse; mostly-majority traffic).
    let dim = 10240usize;
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
    let mem = SearchMemory::from_rows(&rows).expect("memory");
    let batch = QueryBatch::from_vectors(&queries).expect("batch");
    let plan = CascadePlan::tuned(&mem, &batch).expect("tuned plan");
    assert!(plan.stages() > 1, "tuner must cascade here: {plan:?}");
    assert!(plan.ends()[0] <= dim / 8, "prefix should be short: {plan:?}");
    let cascade = mem.search_cascade_topk(&batch, &plan, 1).expect("cascade");
    let winners = mem.winners_batch(&batch).expect("exact");
    assert!((0..batch.len()).all(|q| cascade.topk().hits(q) == [winners[q]]));
    eprintln!("cascade_calibrated: tuned plan ends {:?}", plan.ends());

    let mut group = c.benchmark_group("cascade_calibrated");
    group.bench_with_input(
        BenchmarkId::from_parameter("tuned_plan_10240x10"),
        &batch,
        |b, batch| b.iter(|| CascadePlan::tuned(&mem, batch).expect("tuned").stages()),
    );

    // Segment-view reuse vs per-call re-pack on an unaligned grid.
    let (sdim, srows, parts) = (1600usize, 64usize, 16usize);
    let seg = sdim / parts; // 100 bits: off the word grid
    let stored: Vec<BitVector> = (0..srows).map(|i| random_query(sdim, 40 + i as u64)).collect();
    let memories: Vec<SearchMemory> = (0..parts)
        .map(|p| {
            let segs: Vec<BitVector> = stored.iter().map(|r| r.slice(p * seg, seg)).collect();
            SearchMemory::from_rows(&segs).expect("partition memory")
        })
        .collect();
    let squeries: Vec<BitVector> = (0..64).map(|i| random_query(sdim, 400 + i as u64)).collect();
    let sbatch = QueryBatch::from_vectors(&squeries).expect("batch");
    let mut scratch = ScoreMatrix::zeros(squeries.len(), srows);
    let mut acc = vec![0u32; squeries.len() * srows];
    let reuse = |batch: &QueryBatch, scratch: &mut ScoreMatrix, acc: &mut Vec<u32>| -> u64 {
        acc.iter_mut().for_each(|a| *a = 0);
        let segs = batch.segments(seg).expect("segment views");
        for (p, memory) in memories.iter().enumerate() {
            memory.dot_batch_into(&segs[p], scratch).expect("partition sweep");
            for q in 0..batch.len() {
                for (a, s) in acc[q * srows..(q + 1) * srows].iter_mut().zip(scratch.scores(q)) {
                    *a += s;
                }
            }
        }
        acc.iter().map(|&a| u64::from(a)).sum()
    };
    let repack = |batch: &QueryBatch, scratch: &mut ScoreMatrix, acc: &mut Vec<u32>| -> u64 {
        acc.iter_mut().for_each(|a| *a = 0);
        for (p, memory) in memories.iter().enumerate() {
            let packed: Vec<BitVector> =
                (0..batch.len()).map(|i| batch.query(i).slice(p * seg, seg)).collect();
            let seg_batch = QueryBatch::from_vectors(&packed).expect("segment batch");
            memory.dot_batch_into(&seg_batch, scratch).expect("partition sweep");
            for q in 0..batch.len() {
                for (a, s) in acc[q * srows..(q + 1) * srows].iter_mut().zip(scratch.scores(q)) {
                    *a += s;
                }
            }
        }
        acc.iter().map(|&a| u64::from(a)).sum()
    };
    assert_eq!(
        reuse(&sbatch, &mut scratch, &mut acc),
        repack(&sbatch, &mut scratch, &mut acc),
        "segment views must be bit-identical to per-call re-packing"
    );

    group.throughput(Throughput::Elements(squeries.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("segview_reuse_1600x64", squeries.len()),
        &sbatch,
        |b, batch| b.iter(|| reuse(batch, &mut scratch, &mut acc)),
    );
    group.bench_with_input(
        BenchmarkId::new("segview_repack_1600x64", squeries.len()),
        &sbatch,
        |b, batch| b.iter(|| repack(batch, &mut scratch, &mut acc)),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_search,
    bench_search_batched,
    bench_cascade_search,
    bench_cascade_repeat,
    bench_cascade_calibrated
);
criterion_main!(benches);
