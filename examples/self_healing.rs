//! Self-healing fault-tolerant serving, end to end: the three layers
//! that keep an IMC-backed associative memory answering correctly while
//! its hardware misbehaves.
//!
//! 1. **Replicated readout** — program the AM onto R independently
//!    faulted replicas and read back the bitwise majority; cell BER `p`
//!    becomes ~`3p^2` at R=3.
//! 2. **Online scrubbing** — sweep rows against golden signatures in
//!    bounded ticks, repair in place, republish the healed model.
//! 3. **Supervised serving** — a shard's search is retried once on a
//!    panic and degraded out after that, with degraded answers flagged
//!    (never silently wrong), deadlines for impatient callers, and
//!    admission shedding under overload.
//!
//! Run with: `cargo run --release --example self_healing`

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, SearchMemory};
use hd_serve::{Searchable, ServeConfig, Server, ShardedSearcher};
use hdc::BinaryAm;
use imc_sim::{
    AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy, ReplicatedAmMapping,
    ScrubConfig, Scrubber,
};
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 256;
    let classes = 16;
    let mut rng = seeded(7);
    let centroids: Vec<(usize, BitVector)> = (0..classes)
        .map(|c| (c, BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>())))
        .collect();
    let am = BinaryAm::from_centroids(classes, centroids)?;
    let golden = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic)?;

    // --- Layer 1: replicated readout -------------------------------
    let ber = 0.05;
    let plain = FaultyAmMapping::program(&golden, FaultModel::bit_flip(ber), 11)?;
    let replicated = ReplicatedAmMapping::program(&golden, FaultModel::bit_flip(ber), 3, 11)?;
    println!("programming at BER {ber}:");
    println!("  plain mapping:      {:5} corrupted cells", plain.effective_flipped(&golden)?);
    println!(
        "  3-replica majority: {:5} corrupted cells (each replica independently faulted)",
        replicated.residual_flipped(&golden)?
    );

    // --- Layer 2: online scrubbing ---------------------------------
    let mut deployed = plain.clone();
    let scrubber = Scrubber::new(&golden, ScrubConfig { cells_per_tick: 2048 }, 13)?;
    let mut ticks = 0;
    let mut healed = 0;
    loop {
        let report = scrubber.tick(&mut deployed)?;
        ticks += 1;
        healed += report.cells_healed;
        if report.completed_pass {
            break;
        }
    }
    println!("\nscrubbing the plain mapping ({} rows/tick):", scrubber.rows_per_tick());
    println!("  {ticks} ticks, {healed} cells healed, residual = {}", {
        deployed.effective_flipped(&golden)?
    });

    // --- Layer 3: supervised serving -------------------------------
    let rows: Vec<BitVector> = (0..48)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect();
    let memory = SearchMemory::from_rows(&rows)?;
    let labels: Vec<usize> = (0..rows.len()).map(|r| r % classes).collect();
    let sharded = Arc::new(ShardedSearcher::new(memory, labels, 4)?);
    let server = Server::start(
        Arc::clone(&sharded) as Arc<dyn Searchable>,
        ServeConfig { max_batch: 16, max_delay: Duration::from_micros(200), max_in_flight: 1024 },
    )?;
    let query = BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>());
    let classify = || server.submit(query.as_view(), 1)?.wait().map(|slate| slate[0]);

    let healthy = classify()?;
    println!("\nserving over {} shards:", sharded.num_shards());
    println!("  healthy:  row {:2}, degraded = {}", healthy.row, healthy.degraded);

    // The injected panics below are expected; keep the demo output
    // readable by silencing the default panic-backtrace printer.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // One injected panic is absorbed by the in-flush retry.
    sharded.inject_shard_panics(1, 1)?;
    let retried = classify()?;
    println!(
        "  1 panic:  row {:2}, degraded = {} (shard retried, missing = {:?})",
        retried.row,
        retried.degraded,
        sharded.missing_shards()
    );

    // A crash loop outlasts the retry: the shard degrades out and
    // answers are flagged, exact over the surviving rows.
    sharded.inject_shard_panics(2, 100)?;
    let degraded = classify()?;
    println!(
        "  crashes:  row {:2}, degraded = {} (shard degraded, missing = {:?})",
        degraded.row,
        degraded.degraded,
        sharded.missing_shards()
    );

    std::panic::set_hook(default_hook);

    // The healed mapping republishes through the registry: a new
    // generation, zero residual faults.
    let generation = server.publish(Arc::new(deployed) as Arc<dyn Searchable>)?;
    // An impatient caller bounds its wait with a deadline.
    let deadline = Instant::now() + Duration::from_millis(100);
    let served = server.submit(query.as_view(), 1)?.wait_until(deadline)?[0];
    println!(
        "\nrepublished the scrubbed mapping as generation {generation}: \
         class {} at score {}, degraded = {}",
        served.class, served.score, served.degraded
    );

    server.shutdown();
    let stats = server.stats();
    println!(
        "server stats: {} queries, {} batches, {} shed, {} degraded-flagged",
        stats.queries, stats.batches, stats.shed, stats.degraded_queries
    );
    Ok(())
}
