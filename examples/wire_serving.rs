//! Serving over the wire: stand up the TCP + Unix-domain-socket
//! front-end over a trained MEMHD associative memory, drive it with a
//! pipelined wire client (packed frames, zero repacking on either
//! side), ask for ranked top-k slates, and see a malformed request come
//! back as a typed error frame instead of a dropped connection.
//!
//! Run with: `cargo run --release --example wire_serving`

use hd_datasets::synthetic::SyntheticSpec;
use hd_serve::net::{
    code, ResilientClient, ResilientConfig, ResilientError, Target, WireClient, WireConfig,
    WireEvent, WireServer,
};
use hd_serve::{ServeConfig, Server, ShardedSearcher};
use hdc::Encoder;
use memhd::{MemhdConfig, MemhdModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== hd-serve wire front-end: packed frames over TCP and UDS ==\n");
    println!("kernel backend: {}\n", hd_linalg::kernel::active());

    // 1. Train a small MEMHD model and serve its AM, sharded.
    let ds = SyntheticSpec::fmnist_like(60, 25).generate(7)?;
    let config = MemhdConfig::new(128, 64, ds.num_classes)?.with_epochs(5).with_seed(1);
    let model = MemhdModel::fit(&config, &ds.train_features, &ds.train_labels)?;
    let encoded = model.encoder().encode_binary_batch(&ds.test_features)?;
    let queries: Vec<hd_linalg::BitVector> =
        (0..encoded.len()).map(|i| encoded.query(i).to_bit_vector()).collect();
    let am = model.binary_am();
    let sharded = ShardedSearcher::new(am.search_memory().clone(), am.class_labels().to_vec(), 2)?;
    let server = Arc::new(Server::start(
        Arc::new(sharded),
        ServeConfig { max_batch: 64, max_delay: Duration::from_micros(200), ..Default::default() },
    )?);

    // 2. One front-end, two transports: an ephemeral TCP port for remote
    //    clients and a Unix socket for co-located ones. Every connection
    //    feeds the same micro-batcher, so traffic coalesces across them.
    let wire = Arc::new(WireServer::start(Arc::clone(&server), WireConfig::default())?);
    let addr = wire.listen_tcp("127.0.0.1:0")?;
    let uds_path = std::env::temp_dir().join(format!("hd-wire-demo-{}.sock", std::process::id()));
    wire.listen_uds(&uds_path)?;
    println!("listening on tcp://{addr} and {}", uds_path.display());

    // 3. A TCP client pipelines the whole test set as 32-query frames.
    //    The frame payload is the packed batch layout itself: the
    //    client sends `BitVector` words verbatim, the server ingests
    //    them with one word copy (`Server::submit_packed`).
    let mut client = WireClient::connect_tcp(addr)?;
    println!(
        "handshake: D = {}, {} rows, generation {}\n",
        client.dim(),
        client.rows(),
        client.generation()
    );
    let started = Instant::now();
    let mut in_flight = 0usize;
    let mut correct = 0usize;
    let mut answered = 0usize;
    for frame in queries.chunks(32) {
        client.send_queries(frame, 1)?;
        in_flight += frame.len();
        // Keep at most ~8 frames outstanding — per-connection windowing
        // on top of the server's own admission control.
        while in_flight > 224 {
            let (id, hits) = client.recv_response()?;
            correct += usize::from(hits[0].class == ds.test_labels[id as usize]);
            in_flight -= 1;
            answered += 1;
        }
    }
    while in_flight > 0 {
        let (id, hits) = client.recv_response()?;
        correct += usize::from(hits[0].class == ds.test_labels[id as usize]);
        in_flight -= 1;
        answered += 1;
    }
    let elapsed = started.elapsed();
    println!(
        "tcp: {answered} queries in {elapsed:.2?} ({:.0} ns/query over the wire), accuracy {:.3}",
        elapsed.as_nanos() as f64 / answered.max(1) as f64,
        correct as f64 / answered.max(1) as f64,
    );

    // 4. A UDS client asks for ranked slates (k = 3) instead.
    let mut uds = WireClient::connect_uds(&uds_path)?;
    uds.send_queries(&queries[..1], 3)?;
    let (_, slate) = uds.recv_response()?;
    println!("\nuds top-3 slate for query 0 (true class {}):", ds.test_labels[0]);
    for (rank, hit) in slate.iter().enumerate() {
        println!("  #{rank}: class {} (row {}, score {})", hit.class, hit.row, hit.score);
    }

    // 5. Malformed input answers a typed error frame; the connection
    //    (and every other in-flight query) survives.
    uds.send_queries(&queries[..1], 0)?; // k = 0 is invalid
    match uds.recv()? {
        WireEvent::Error(body) => println!(
            "\nk = 0 rejected with error frame: code {} ({}), \"{}\"",
            body.code,
            if body.code == code::BAD_K { "BAD_K" } else { "?" },
            body.message
        ),
        other => println!("unexpected: {other:?}"),
    }
    uds.send_queries(&queries[..1], 1)?;
    let (_, hits) = uds.recv_response()?;
    println!("same connection still serves: class {} for query 0", hits[0].class);

    // 6. ResilientClient: the same workload through the self-healing
    //    wrapper — connect/request deadlines, reconnect under jittered
    //    backoff, and a retry ledger that makes delivery exactly-once
    //    even across resets and GOAWAYs.
    let resilient_config = ResilientConfig {
        max_attempts: 4,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        ..Default::default()
    };
    let mut resilient =
        ResilientClient::new(Target::Tcp(addr.to_string()), resilient_config.clone());
    let slates = resilient.search(&queries[..16], 1)?;
    println!(
        "\nresilient client: {} / 16 answers delivered exactly once \
         (generation pinned at {:?}, {} connection(s) used)",
        slates.len(),
        resilient.generation().unwrap_or_default(),
        resilient.reconnects(),
    );

    // 7. Graceful drain: queries accepted before the drain are flushed
    //    to completion, then the connection hears GOAWAY carrying the
    //    last-accepted id — everything beyond it is safe to resubmit.
    let mut tail = WireClient::connect_tcp(addr)?;
    let ids = tail.send_queries(&queries[..8], 1)?;
    // Receiving one answer proves the whole frame was accepted (a frame
    // is admitted atomically) before the drain begins.
    let _ = tail.recv_response()?;
    let mut flushed = 1usize;
    let drainer = {
        let wire = Arc::clone(&wire);
        std::thread::spawn(move || wire.drain(Duration::from_secs(5)))
    };
    loop {
        match tail.recv()? {
            WireEvent::Response { .. } => flushed += 1,
            WireEvent::GoAway { last_accepted } => {
                println!(
                    "\ndrain: {flushed} / {} accepted answers flushed, then GOAWAY \
                     (last accepted id {last_accepted} = every id sent; nothing to resubmit)",
                    ids.end - ids.start
                );
                break;
            }
            other => println!("unexpected during drain: {other:?}"),
        }
    }
    assert!(drainer.join().expect("drain thread"), "drain deadline was generous");

    // A post-drain search fails with a typed, retries-exhausted error —
    // the resilient client reports *why* instead of hanging.
    match resilient.search(&queries[..1], 1) {
        Err(ResilientError::RetriesExhausted { attempts, .. }) => {
            println!(
                "post-drain search: retries exhausted after {attempts} attempts (as designed)"
            );
        }
        other => println!("unexpected post-drain outcome: {other:?}"),
    }

    // 8. Clean shutdown closes sockets and unlinks the UDS file; the
    //    in-process server outlives the front-end.
    wire.shutdown();
    println!(
        "\nfront-end down (socket file removed: {}); in-process server still answers: class {}",
        !uds_path.exists(),
        server.submit(queries[0].as_view(), 1)?.wait()?[0].class
    );
    server.shutdown();
    Ok(())
}
