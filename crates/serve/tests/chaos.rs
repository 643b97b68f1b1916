//! Chaos harness: drives the three fault-tolerance layers together and
//! pins the serving-layer invariants under injected failure —
//!
//! * no query is ever lost or blocked forever: every submission resolves
//!   as an answer, a `Timeout`, or an `Overloaded` shed;
//! * a degraded answer is **flagged**, never silently wrong: a shard
//!   that panics past its retry shrinks the row space and the server
//!   marks the predictions;
//! * a fault-injected model republished through the registry is fully
//!   healed by the scrubber, restoring bit-identical predictions.

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, QueryBatch, SearchMemory};
use hd_serve::{Prediction, Searchable, ServeConfig, ServeError, Server, ShardedSearcher, Winner};
use imc_sim::{
    AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy, ScrubConfig, Scrubber,
};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn random_rows(rows: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..rows)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    random_rows(n, dim, seed)
}

/// Submit-and-wait for the argmax winner.
fn classify(server: &Server, query: &BitVector) -> hd_serve::Result<Prediction> {
    server.submit(query.as_view(), 1)?.wait().map(|slate| slate[0])
}

/// A 4-shard searcher plus the raw row set it serves.
fn sharded_fixture(seed: u64) -> (Arc<ShardedSearcher>, Vec<BitVector>, Vec<usize>) {
    let rows = random_rows(61, 128, seed);
    let classes: Vec<usize> = (0..rows.len()).map(|r| r % 5).collect();
    let memory = SearchMemory::from_rows(&rows).unwrap();
    let sharded = ShardedSearcher::new(memory, classes.clone(), 4).unwrap();
    assert!(sharded.num_shards() >= 3);
    (Arc::new(sharded), rows, classes)
}

/// Wraps a model with a fixed per-flush latency so deadline and
/// admission-control paths can be driven deterministically.
struct SlowModel {
    inner: Arc<dyn Searchable>,
    delay: Duration,
    /// Searches started so far.
    searches: AtomicUsize,
}

impl SlowModel {
    fn new(inner: Arc<dyn Searchable>, delay: Duration) -> Arc<Self> {
        Arc::new(SlowModel { inner, delay, searches: AtomicUsize::new(0) })
    }
}

impl Searchable for SlowModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> hd_serve::Result<Vec<Winner>> {
        self.searches.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.search_winners(batch)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> hd_serve::Result<Vec<Vec<Winner>>> {
        self.searches.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.search_topk(batch, k)
    }
}

#[test]
fn shard_panic_retry_keeps_served_answers_exact() {
    let (sharded, rows, classes) = sharded_fixture(301);
    let memory = SearchMemory::from_rows(&rows).unwrap();
    let server = Server::start(
        Arc::clone(&sharded) as Arc<dyn Searchable>,
        ServeConfig { max_batch: 1, max_delay: Duration::from_millis(5), ..Default::default() },
    )
    .unwrap();
    let queries = random_queries(12, 128, 302);
    // One panic: absorbed by the in-flush retry, nothing degrades.
    sharded.inject_shard_panics(1, 1).unwrap();
    for q in &queries {
        let pred = classify(&server, q).unwrap();
        let (row, score) = memory
            .winners_batch(&QueryBatch::from_vectors(std::slice::from_ref(q)).unwrap())
            .unwrap()[0];
        assert_eq!((pred.row, pred.class, pred.score), (row, classes[row], score));
        assert!(!pred.degraded, "a retried shard serves full answers");
    }
    assert!(sharded.missing_shards().is_empty());
    assert_eq!(server.stats().degraded_queries, 0);
    server.shutdown();
}

#[test]
fn degraded_shard_answers_survivors_and_flags_predictions() {
    let (sharded, rows, classes) = sharded_fixture(311);
    let num_shards = sharded.num_shards();
    let server = Server::start(
        Arc::clone(&sharded) as Arc<dyn Searchable>,
        ServeConfig { max_batch: 1, max_delay: Duration::from_millis(5), ..Default::default() },
    )
    .unwrap();
    // Panic shard 0 past its one retry.
    sharded.inject_shard_panics(0, 100).unwrap();
    let memory = SearchMemory::from_rows(&rows).unwrap();
    let parts = memory.split_rows(num_shards).unwrap();
    let lost = parts[1].0; // shard 0 owns rows [0, lost)
    let survivors = SearchMemory::from_rows(&rows[lost..]).unwrap();
    let queries = random_queries(12, 128, 312);
    for q in &queries {
        let pred = classify(&server, q).unwrap();
        let (local_row, score) = survivors
            .winners_batch(&QueryBatch::from_vectors(std::slice::from_ref(q)).unwrap())
            .unwrap()[0];
        let row = lost + local_row;
        assert_eq!(
            (pred.row, pred.class, pred.score),
            (row, classes[row], score),
            "degraded answers are exact over the surviving rows"
        );
        assert!(pred.degraded, "answers over a shrunken row space must be flagged");
    }
    assert_eq!(sharded.missing_shards(), vec![0]);
    let stats = server.stats();
    assert_eq!(stats.degraded_queries, queries.len() as u64);
    server.shutdown();
}

#[test]
fn deadline_timeout_leaves_query_answered_and_server_alive() {
    let (sharded, _, _) = sharded_fixture(321);
    let slow = SlowModel::new(sharded, Duration::from_millis(80));
    let server = Server::start(
        Arc::clone(&slow) as Arc<dyn Searchable>,
        ServeConfig { max_batch: 2, max_delay: Duration::from_millis(2), ..Default::default() },
    )
    .unwrap();
    let queries = random_queries(2, 128, 322);
    let query = &queries[0];
    let pending = server.submit(query.as_view(), 1).unwrap();
    std::thread::scope(|scope| {
        // A second submitter fills the batch and runs its flush, which
        // the model stretches to 80 ms, on its own thread.
        let filler = scope.spawn(|| server.submit(queries[1].as_view(), 1).and_then(|p| p.wait()));
        let patience = Instant::now() + Duration::from_secs(10);
        while slow.searches.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < patience, "the filling submitter never flushed");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A 10 ms waiter must give up with Timeout while that flush runs.
        let give_up = Instant::now() + Duration::from_millis(10);
        assert_eq!(pending.wait_until(give_up), Err(ServeError::Timeout));
        // The query itself is not lost: the flush still answers it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().queries < 1 {
            assert!(Instant::now() < deadline, "flush never answered the timed-out query");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(filler.join().unwrap().is_ok(), "the filling submitter's own query is answered");
    });
    // And the server keeps serving patient submitters.
    let pred = classify(&server, query).unwrap();
    assert!(pred.score > 0 || pred.row < 61);
    server.shutdown();
}

#[test]
fn overload_sheds_at_admission_but_accepted_queries_all_resolve() {
    let (sharded, _, _) = sharded_fixture(331);
    let slow = SlowModel::new(sharded, Duration::from_millis(10));
    let server = Server::start(
        slow as Arc<dyn Searchable>,
        ServeConfig { max_batch: 4, max_delay: Duration::from_millis(1), max_in_flight: 4 },
    )
    .unwrap();
    let queries = random_queries(48, 128, 332);
    let mut answered = 0u64;
    let mut shed = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in queries.chunks(6) {
            let server = &server;
            handles.push(scope.spawn(move || {
                let mut local = (0u64, 0u64);
                for q in chunk {
                    match server.submit(q.as_view(), 1) {
                        Ok(pending) => {
                            // Admitted queries must always resolve.
                            pending.wait().unwrap();
                            local.0 += 1;
                        }
                        Err(ServeError::Overloaded) => local.1 += 1,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                local
            }));
        }
        for h in handles {
            let (a, s) = h.join().unwrap();
            answered += a;
            shed += s;
        }
    });
    assert_eq!(answered + shed, queries.len() as u64);
    assert!(shed > 0, "48 rushed queries against a 4-slot server must shed some");
    let stats = server.stats();
    assert_eq!(stats.queries, answered, "answered exactly the admitted queries");
    assert_eq!(stats.shed, shed);
    assert_eq!(server.in_flight(), 0, "in-flight drains back to zero");
    server.shutdown();
}

#[test]
fn scrub_and_republish_restore_bit_identical_predictions() {
    // Golden mapped AM, served directly.
    let mut rng = seeded(341);
    let centroids: Vec<(usize, BitVector)> = (0..8)
        .map(|v| (v % 3, BitVector::from_bools(&(0..256).map(|_| rng.gen()).collect::<Vec<_>>())))
        .collect();
    let am = hdc::BinaryAm::from_centroids(3, centroids).unwrap();
    let golden =
        AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Partitioned { partitions: 2 })
            .unwrap();
    let server = Server::start(
        Arc::new(golden.clone()) as Arc<dyn Searchable>,
        ServeConfig { max_batch: 1, max_delay: Duration::from_millis(5), ..Default::default() },
    )
    .unwrap();
    let queries = random_queries(10, 256, 342);
    let baseline: Vec<Prediction> = queries.iter().map(|q| classify(&server, q).unwrap()).collect();

    // Fault the array and hot-swap the degraded model in.
    let mut deployed = FaultyAmMapping::program(&golden, FaultModel::bit_flip(0.05), 343).unwrap();
    let corrupted = deployed.effective_flipped(&golden).unwrap();
    assert!(corrupted > 0, "5% BER must corrupt something");
    let gen_faulty = server.publish(Arc::new(deployed.clone()) as Arc<dyn Searchable>).unwrap();

    // Scrub online in bounded ticks until the pass completes, then
    // republish the healed model.
    let scrubber = Scrubber::new(&golden, ScrubConfig { cells_per_tick: 1024 }, 344).unwrap();
    let mut healed = 0;
    loop {
        let report = scrubber.tick(&mut deployed).unwrap();
        healed += report.cells_healed;
        if report.completed_pass {
            break;
        }
    }
    assert_eq!(healed, corrupted, "the scrubber heals exactly the corrupted cells");
    assert_eq!(deployed.effective_flipped(&golden).unwrap(), 0);
    let gen_healed = server.publish(Arc::new(deployed) as Arc<dyn Searchable>).unwrap();
    assert!(gen_healed > gen_faulty);

    for (q, before) in queries.iter().zip(&baseline) {
        let after = classify(&server, q).unwrap();
        assert_eq!(
            (after.row, after.class, after.score),
            (before.row, before.class, before.score),
            "healed model answers bit-identically to the golden baseline"
        );
        assert_eq!(after.generation, gen_healed);
        assert!(!after.degraded);
    }
    server.shutdown();
}

#[test]
fn combined_chaos_every_submission_resolves() {
    let (sharded, _, _) = sharded_fixture(351);
    let server = Server::start(
        Arc::clone(&sharded) as Arc<dyn Searchable>,
        ServeConfig { max_batch: 8, max_delay: Duration::from_millis(1), max_in_flight: 64 },
    )
    .unwrap();
    let queries = random_queries(40, 128, 352);
    let mut resolved = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, chunk) in queries.chunks(5).enumerate() {
            let server = &server;
            let sharded = &sharded;
            handles.push(scope.spawn(move || {
                let mut local = 0u64;
                for (i, q) in chunk.iter().enumerate() {
                    // Interleave chaos with traffic: one absorbable
                    // panic, then one shard killed for good.
                    if t == 0 && i == 1 {
                        sharded.inject_shard_panics(1, 1).unwrap();
                    }
                    if t == 3 && i == 2 {
                        sharded.inject_shard_panics(2, 100).unwrap();
                    }
                    let outcome = if i % 3 == 0 {
                        let give_up = Instant::now() + Duration::from_millis(250);
                        server
                            .submit(q.as_view(), 1)
                            .and_then(|p| p.wait_until(give_up))
                            .map(|v| v[0])
                    } else if i % 3 == 1 {
                        server.submit(q.as_view(), 3).and_then(|p| p.wait()).map(|mut v| {
                            assert!(!v.is_empty());
                            v.remove(0)
                        })
                    } else {
                        server.submit(q.as_view(), 1).and_then(|p| p.wait()).map(|v| v[0])
                    };
                    match outcome {
                        Ok(_) | Err(ServeError::Timeout) | Err(ServeError::Overloaded) => {
                            local += 1;
                        }
                        Err(e) => panic!("query neither answered nor cleanly shed: {e}"),
                    }
                }
                local
            }));
        }
        for h in handles {
            resolved += h.join().unwrap();
        }
    });
    assert_eq!(resolved, queries.len() as u64, "every submission resolves — none hang or vanish");
    // The killed shard is flagged, and post-chaos traffic still answers
    // (degraded, but exact over the survivors).
    assert_eq!(sharded.missing_shards(), vec![2]);
    let pred = classify(&server, &queries[0]).unwrap();
    assert!(pred.degraded);
    server.shutdown();
    let stats = server.stats();
    assert!(stats.queries > 0);
    assert!(stats.degraded_queries > 0);
}
