//! Over-the-wire serving throughput: pipelined QUERY frames through the
//! loopback TCP and Unix-domain-socket front-ends.
//!
//! The question this bench answers: what does the socket hop cost on
//! top of the in-process micro-batcher (`serve_throughput`)? The client
//! keeps its queries packed (`WireClient::send_packed_words` — the
//! zero-repack path) and pipelines a window of frames before collecting
//! responses, so the wire cost measured is framing + syscalls + the
//! extra copy through the kernel socket buffer, not round-trip stalls.
//!
//! Ids: `wire_tcp_32x8` = TCP, frames of 32 queries, 8 frames in
//! flight; `wire_uds_32x8` = the same over a Unix-domain socket;
//! `wire_uds_1x1` = 1-query frames over a Unix-domain socket with one in
//! flight (a closed loop, so each iteration is `LONE_QUERIES` round
//! trips: the thin-traffic case, where a query's latency is whatever
//! makes the server flush a batch of one). Model shape matches
//! `serve_throughput` (MEMHD flagship 128 × 128).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hd_linalg::rng::seeded;
use hd_linalg::BitVector;
use hd_serve::net::{WireClient, WireConfig, WireServer};
use hd_serve::{Searchable, ServeConfig, Server};
use hdc::BinaryAm;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

const QUERIES: usize = 8192;
const DIM: usize = 128;
const FRAME: usize = 32;
const WINDOW_FRAMES: usize = 8;
/// Round trips per `wire_uds_1x1` iteration.
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

/// All queries pre-packed into one contiguous word buffer — the client
/// sends `FRAME`-query slices of it verbatim (no per-bit repacking
/// anywhere between here and the server's pending batch).
fn packed_queries(n: usize, dim: usize, seed: u64) -> Vec<u64> {
    let mut rng = seeded(seed);
    let mut words = Vec::with_capacity(n * dim.div_ceil(64));
    for _ in 0..n {
        let q = BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>());
        words.extend_from_slice(q.as_words());
    }
    words
}

/// Pushes every query through `client` as pipelined `frame`-query
/// frames with `window` frames outstanding, returning a checksum of
/// winning rows.
fn drive(client: &mut WireClient, words: &[u64], frame: usize, window: usize) -> usize {
    let wpq = client.words_per_query() as usize;
    let mut sum = 0usize;
    let mut outstanding = 0usize;
    for chunk in words.chunks(frame * wpq) {
        client.send_packed_words(chunk, 1).expect("send");
        outstanding += chunk.len() / wpq;
        while outstanding > (window - 1) * frame {
            let (_, hits) = client.recv_response().expect("recv");
            sum += hits[0].row;
            outstanding -= 1;
        }
    }
    while outstanding > 0 {
        let (_, hits) = client.recv_response().expect("recv");
        sum += hits[0].row;
        outstanding -= 1;
    }
    sum
}

fn bench_wire(c: &mut Criterion) {
    // Provenance for the recorded numbers (see BENCH_search.json).
    eprintln!("hd_linalg kernel backend: {}", hd_linalg::kernel::active());
    let am = Arc::new(random_am(10, 128, DIM, 3));
    let words = packed_queries(QUERIES, DIM, 1000);
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
    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).expect("wire server");
    let addr = wire.listen_tcp("127.0.0.1:0").expect("tcp listener");

    let mut group = c.benchmark_group("wire_throughput");
    group.throughput(Throughput::Elements(QUERIES as u64));

    {
        let mut client = WireClient::connect_tcp(addr).expect("tcp client");
        group.bench_with_input(
            BenchmarkId::new(format!("wire_tcp_{FRAME}x{WINDOW_FRAMES}"), QUERIES),
            &words,
            |b, words| b.iter(|| drive(&mut client, words, FRAME, WINDOW_FRAMES)),
        );
    }

    #[cfg(unix)]
    {
        let path = std::env::temp_dir().join(format!("hd-wire-bench-{}.sock", std::process::id()));
        wire.listen_uds(&path).expect("uds listener");
        let mut client = WireClient::connect_uds(&path).expect("uds client");
        group.bench_with_input(
            BenchmarkId::new(format!("wire_uds_{FRAME}x{WINDOW_FRAMES}"), QUERIES),
            &words,
            |b, words| b.iter(|| drive(&mut client, words, FRAME, WINDOW_FRAMES)),
        );
        group.throughput(Throughput::Elements(LONE_QUERIES as u64));
        let lone = &words[..LONE_QUERIES * DIM.div_ceil(64)];
        group.bench_with_input(BenchmarkId::new("wire_uds_1x1", LONE_QUERIES), lone, |b, words| {
            b.iter(|| drive(&mut client, words, 1, 1))
        });
    }

    group.finish();
    wire.shutdown();
    server.shutdown();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
