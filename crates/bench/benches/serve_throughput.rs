//! Serving-layer throughput: single-query submissions through the
//! `hd-serve` micro-batcher vs. the hand-batched classify path.
//!
//! The question this bench answers: how much of the batched SIMD sweep's
//! throughput survives when nobody hands the kernel a batch — when
//! queries arrive one at a time and the server must coalesce them itself?
//! Submitters pipeline a window of in-flight single-query submissions
//! (the "concurrency" in the id: `served_1x256` = 1 submitter thread with
//! 256 in-flight, `served_4x64` = 4 threads with 64 in-flight each), and
//! the micro-batcher flushes every `max_batch` inline. `served_1x1` is
//! one caller with one query in flight (a closed loop of `LONE_QUERIES`
//! round trips per iteration, `max_delay` zero): the in-process twin of
//! `wire_throughput/wire_uds_1x1`, where each waiter flushes its own
//! batch of one.
//!
//! The served shapes use the paper's flagship MEMHD 128 centroids × 128
//! bits AM, matching `associative_search_batched` in `BENCH_search.json`.
//! `sharded_wide_k5/256` calls a 2-shard tuned-cascade `ShardedSearcher`
//! directly on the graded 2048 × 2048 memory of servebench's
//! `inproc_wide_topk5`: the flush that workload's server runs, without
//! the queueing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, QueryBatch, SearchMemory};
use hd_serve::{PendingTopK, Searchable, ServeConfig, Server, ShardedSearcher};
use hdc::BinaryAm;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

const QUERIES: usize = 8192;
const DIM: usize = 128;
/// Round trips per `served_1x1` iteration.
const LONE_QUERIES: usize = 256;

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

fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

/// The graded wide memory (one dense row, four moderate ones, a
/// near-empty rest; 2048 × 2048 bits) and `n` queries that are
/// 5%-perturbed copies of its rows, 99% of them of the dense row 0.
fn wide_memory(n: usize) -> (SearchMemory, Vec<BitVector>) {
    const WIDE: usize = 2048;
    let mut rng = seeded(0x7769_6465);
    let rows: Vec<BitVector> = (0..WIDE)
        .map(|r| {
            let density = match r {
                0 => 0.5,
                1..=4 => 0.3,
                _ => 0.005,
            };
            BitVector::from_bools(
                &(0..WIDE).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>(),
            )
        })
        .collect();
    let queries = (0..n)
        .map(|i| {
            let base = if i % 100 != 0 { 0 } else { rng.gen_range(1..WIDE) };
            let mut q = rows[base].clone();
            for _ in 0..WIDE / 20 {
                let bit = rng.gen_range(0..WIDE);
                q.set(bit, !q.get(bit));
            }
            q
        })
        .collect();
    (SearchMemory::from_rows(&rows).expect("wide memory"), queries)
}

/// Pushes `queries` through `server` as pipelined single-query
/// submissions with `window` in-flight, returning a checksum of winning
/// rows (keeps the optimizer honest).
fn drive(server: &Server, queries: &[BitVector], window: usize) -> usize {
    let mut sum = 0usize;
    for chunk in queries.chunks(window) {
        let pendings: Vec<PendingTopK> =
            chunk.iter().map(|q| server.submit(q.as_view(), 1).expect("submit")).collect();
        for p in pendings {
            sum += p.wait().expect("wait")[0].row;
        }
    }
    sum
}

fn bench_serve(c: &mut Criterion) {
    // Provenance for the recorded numbers (see BENCH_search.json).
    eprintln!("hd_linalg kernel backend: {}", hd_linalg::kernel::active());
    let am = Arc::new(random_am(10, 128, DIM, 3));
    let queries = random_queries(QUERIES, DIM, 1000);
    let batch = QueryBatch::from_vectors(&queries).expect("batch");

    let mut group = c.benchmark_group("serve_throughput");
    group.throughput(Throughput::Elements(QUERIES as u64));

    // The ceiling: the whole batch handed to the kernel at once.
    group.bench_with_input(
        BenchmarkId::new("direct_batched_classify", QUERIES),
        &batch,
        |b, batch| b.iter(|| am.classify_batch(batch).expect("classify").iter().sum::<usize>()),
    );

    // One submitter, 256 in-flight single-query submissions: every flush
    // is a full inline (flat-combined) one.
    {
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .expect("server");
        group.bench_with_input(
            BenchmarkId::new("served_1x256", QUERIES),
            &queries,
            |b, queries| b.iter(|| drive(&server, queries, 256)),
        );
        server.shutdown();
    }

    // Four concurrent submitters, 64 in-flight each — contended mutex,
    // cross-thread coalescing, occasional parking.
    {
        let server = Arc::new(
            Server::start(
                Arc::clone(&am) as Arc<dyn Searchable>,
                ServeConfig {
                    max_batch: 64,
                    max_delay: Duration::from_micros(200),
                    ..Default::default()
                },
            )
            .expect("server"),
        );
        group.bench_with_input(BenchmarkId::new("served_4x64", QUERIES), &queries, |b, queries| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = queries
                        .chunks(QUERIES / 4)
                        .map(|part| {
                            let server = Arc::clone(&server);
                            scope.spawn(move || drive(&server, part, 64))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("submitter")).sum::<usize>()
                })
            })
        });
        server.shutdown();
    }

    // One caller, one query at a time: nothing ever fills a batch, so
    // every round trip is one deadline flush of one query.
    {
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 64, max_delay: Duration::ZERO, ..Default::default() },
        )
        .expect("server");
        group.throughput(Throughput::Elements(LONE_QUERIES as u64));
        group.bench_with_input(
            BenchmarkId::new("served_1x1", LONE_QUERIES),
            &queries[..LONE_QUERIES],
            |b, queries| b.iter(|| drive(&server, queries, 1)),
        );
        server.shutdown();
    }

    // One 256-query flush of the wide top-5 workload, straight into the
    // 2-shard tuned cascade.
    {
        const WIDE_QUERIES: usize = 256;
        const K: usize = 5;
        let (memory, queries) = wide_memory(2 * WIDE_QUERIES);
        let sample = QueryBatch::from_vectors(&queries[WIDE_QUERIES..]).expect("sample");
        let batch =
            Arc::new(QueryBatch::from_vectors(&queries[..WIDE_QUERIES]).expect("wide batch"));
        let classes = (0..memory.rows()).map(|r| r % 64).collect();
        let sharded = ShardedSearcher::with_cascade_tuned(memory.clone(), classes, 2, &sample)
            .expect("tuned sharded cascade");
        let reference = memory.topk_batch(&batch, K).expect("exact top-k");
        let lists = sharded.search_topk(Arc::clone(&batch), K).expect("sharded top-k");
        for (q, list) in lists.iter().enumerate() {
            let got: Vec<(usize, u32)> = list.iter().map(|w| (w.row, w.score)).collect();
            assert_eq!(got, reference.hits(q), "query {q}");
        }
        group.throughput(Throughput::Elements(WIDE_QUERIES as u64));
        group.bench_with_input(
            BenchmarkId::new("sharded_wide_k5", WIDE_QUERIES),
            &batch,
            |b, batch| {
                b.iter(|| {
                    sharded.search_topk(Arc::clone(batch), K).expect("sharded top-k")[0][0].row
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
