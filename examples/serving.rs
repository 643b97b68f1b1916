//! End-to-end serving demo: train a MEMHD model, stand up the `hd-serve`
//! micro-batching server over its quantized AM, drive it from concurrent
//! client threads, then hot-swap in a fault-degraded IMC mapping (the
//! republish hook) without dropping a single in-flight query.
//!
//! Run with: `cargo run --release --example serving`

use hd_datasets::synthetic::SyntheticSpec;
use hd_serve::{PendingTopK, Searchable, ServeConfig, Server, ShardedSearcher};
use hdc::Encoder;
use imc_sim::{AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy};
use memhd::{MemhdConfig, MemhdModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== hd-serve: sharded micro-batching associative search ==\n");
    println!("kernel backend: {}\n", hd_linalg::kernel::active());

    // 1. Train a small MEMHD model on synthetic multi-modal data.
    let ds = SyntheticSpec::fmnist_like(60, 25).generate(7)?;
    let config = MemhdConfig::new(128, 64, ds.num_classes)?.with_epochs(5).with_seed(1);
    let model = MemhdModel::fit(&config, &ds.train_features, &ds.train_labels)?;
    let accuracy = model.evaluate(&ds.test_features, &ds.test_labels)?;
    println!("trained MEMHD 128x64 ({} classes), test accuracy {accuracy:.3}", ds.num_classes);

    // Pre-encode the test set into binary hypervector queries — clients
    // of the AM service submit encoded queries (the encoding module is a
    // separate IMC structure in the paper's architecture).
    let queries = model.encoder().encode_binary_batch(&ds.test_features)?;
    let queries: Vec<hd_linalg::BitVector> =
        (0..queries.len()).map(|i| queries.query(i).to_bit_vector()).collect();

    // 2. Serve the model's AM as two row shards, both searched by the
    //    thread that flushes each batch.
    let am = model.binary_am();
    let sharded = ShardedSearcher::new(am.search_memory().clone(), am.class_labels().to_vec(), 2)?;
    println!(
        "sharded AM: {} rows x {} bits over {} shard(s)",
        Searchable::rows(&sharded),
        Searchable::dim(&sharded),
        sharded.num_shards(),
    );
    let server = Arc::new(Server::start(
        Arc::new(sharded),
        ServeConfig { max_batch: 64, max_delay: Duration::from_micros(200), ..Default::default() },
    )?);

    // 3. Drive it from concurrent clients, each pipelining single-query
    //    submissions.
    let started = Instant::now();
    let correct: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                let queries = &queries;
                let labels = &ds.test_labels;
                scope.spawn(move || {
                    let mut correct = 0usize;
                    for (chunk_q, chunk_l) in
                        queries.chunks(64).zip(labels.chunks(64)).skip(t).step_by(4)
                    {
                        let pendings: Vec<PendingTopK> = chunk_q
                            .iter()
                            .map(|q| server.submit(q.as_view(), 1).expect("submit"))
                            .collect();
                        for (p, &label) in pendings.into_iter().zip(chunk_l) {
                            if p.wait().expect("wait")[0].class == label {
                                correct += 1;
                            }
                        }
                    }
                    correct
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = started.elapsed();
    let stats = server.stats();
    println!(
        "\nserved {} queries from 4 clients in {elapsed:.2?} \
         ({:.0} ns/query, {} batches, largest {})",
        stats.queries,
        elapsed.as_nanos() as f64 / stats.queries.max(1) as f64,
        stats.batches,
        stats.largest_batch,
    );
    println!(
        "served accuracy {:.3} (matches direct evaluation)",
        correct as f64 / queries.len() as f64
    );

    // 4. Hot republish: map the AM onto IMC arrays, degrade it with
    //    injected faults, and swap it in mid-traffic.
    let mapping = AmMapping::new(model.binary_am(), ArraySpec::default(), MappingStrategy::Basic)?;
    let healthy = FaultyAmMapping::program(&mapping, FaultModel::ideal(), 1)?;
    let degraded = healthy.inject(FaultModel::bit_flip(0.02), 2)?;
    println!(
        "\nfault injection: {} of {} cells flipped (BER 2%)",
        degraded.flipped_cells(),
        Searchable::rows(&degraded) * Searchable::dim(&degraded),
    );
    let generation = server.publish(Arc::new(degraded))?;
    println!("republished degraded mapping as generation {generation}");

    let p = server.submit(queries[0].as_view(), 1)?.wait()?[0];
    println!(
        "query 0 on generation {}: class {} (score {}) — still {} on the degraded array",
        p.generation,
        p.class,
        p.score,
        if p.class == ds.test_labels[0] { "correct" } else { "incorrect" },
    );

    server.shutdown();
    Ok(())
}
