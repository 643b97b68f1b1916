//! Chaos-proxy end-to-end suite for the wire front-end.
//!
//! An in-process TCP proxy sits between a [`ResilientClient`] and the
//! [`WireServer`] and misbehaves on a deterministic seeded schedule:
//! connections die mid-handshake, mid-frame, and mid-response; writes
//! are chopped into hostile little chunks; payloads are truncated at
//! arbitrary byte offsets before the socket is reset. The suite proves
//! the acceptance criterion of the resilience work: under seeded proxy
//! faults plus a concurrent server drain/restart, the client completes a
//! fixed workload with **zero lost and zero duplicated answers**,
//! bit-identical to an in-process run.
//!
//! Timing-sensitive stall injection (real sleeps interacting with
//! `idle_timeout` and `request_timeout`) is gated behind
//! `HD_WIRE_CHAOS_TIMING=1` so the default suite stays deterministic on
//! a 1-vCPU CI runner.

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, QueryBatch, SearchMemory};
use hd_serve::net::{
    ResilientClient, ResilientConfig, ResilientError, Target, WireConfig, WireServer,
};
use hd_serve::{Prediction, Searchable, ServeConfig, Server, ShardedSearcher, Winner};
use rand::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const DIM: usize = 128;
const ROWS: usize = 61;

// ---------------------------------------------------------------------
// Deterministic fault schedule
// ---------------------------------------------------------------------

/// SplitMix64 — the schedule must be reproducible from (seed, conn idx)
/// alone, with no dependence on wall-clock or thread interleaving.
fn splitmix(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one proxied connection does to the bytes crossing it.
#[derive(Debug, Clone)]
struct FaultPlan {
    /// Total bytes (both directions combined) forwarded before the
    /// connection is truncated and reset. `i64::MAX` = survives.
    budget: i64,
    /// Forwarding chunk size; 1–7 bytes exercises partial writes and
    /// header/payload split points.
    chunk: usize,
    /// Optional mid-stream stall (timing-gated tests only).
    stall: Option<(u64, Duration)>,
}

impl FaultPlan {
    /// The schedule guarantees progress: every third connection is
    /// clean, so a client that retries with backoff always completes.
    /// The other two thirds die at seeded offsets — mid-handshake,
    /// mid-frame, and mid-response — or forward in hostile tiny chunks.
    fn for_conn(seed: u64, idx: u64, stalls: bool) -> FaultPlan {
        let mut rng = splitmix(seed ^ idx.wrapping_mul(0xA076_1D64_78BD_642F));
        if idx % 3 == 2 {
            return FaultPlan { budget: i64::MAX, chunk: 4096, stall: None };
        }
        if stalls && idx.is_multiple_of(3) {
            // Freeze mid-frame, past both ends' timeouts, then resume
            // into what is by then a dead connection.
            return FaultPlan {
                budget: i64::MAX,
                chunk: 4096,
                stall: Some((90, Duration::from_millis(400))),
            };
        }
        let roll = rng() % 4;
        let (budget, chunk) = match roll {
            // Dies around the handshake (HELLO + HELLO_ACK ≈ 64 bytes).
            0 => (40 + (rng() % 200) as i64, 4096),
            // Dies mid-frame early in the workload.
            1 => (300 + (rng() % 1200) as i64, 1 + (rng() % 512) as usize),
            // Dies deep in the response stream.
            2 => (1500 + (rng() % 8000) as i64, 4096),
            // Survives, but forwards byte-by-byte-ish.
            _ => (i64::MAX, 1 + (rng() % 7) as usize),
        };
        let stall = (stalls && roll == 2).then(|| (500 + rng() % 500, Duration::from_millis(400)));
        FaultPlan { budget, chunk, stall }
    }
}

// ---------------------------------------------------------------------
// The chaos proxy
// ---------------------------------------------------------------------

/// An in-process TCP proxy with a swappable upstream (so a "server
/// restart" is: drain old server, start new one, swap the address) that
/// applies a [`FaultPlan`] to every accepted connection.
struct ChaosProxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<SocketAddr>>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accepted: Arc<AtomicU64>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr, seed: u64, stalls: bool) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let upstream = Arc::new(Mutex::new(upstream));
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accepted = Arc::new(AtomicU64::new(0));
        let accept = {
            let upstream = Arc::clone(&upstream);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for inbound in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(client) = inbound else { continue };
                    let idx = accepted.fetch_add(1, Ordering::Relaxed);
                    let plan = FaultPlan::for_conn(seed, idx, stalls);
                    let target = *upstream.lock().unwrap();
                    // A dead upstream (mid-restart) is itself a fault the
                    // client must absorb: hang up immediately.
                    let Ok(server) = TcpStream::connect(target) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    {
                        let mut registry = conns.lock().unwrap();
                        registry.push(client.try_clone().unwrap());
                        registry.push(server.try_clone().unwrap());
                    }
                    let budget = Arc::new(AtomicI64::new(plan.budget));
                    let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                    let (b1, p1) = (Arc::clone(&budget), plan.clone());
                    std::thread::spawn(move || pump(client, server, &b1, &p1));
                    std::thread::spawn(move || pump(s2, c2, &budget, &plan));
                }
            })
        };
        ChaosProxy { addr, upstream, stop, conns, accepted, accept: Some(accept) }
    }

    /// Points new connections at a different upstream (server restart).
    fn swap_upstream(&self, to: SocketAddr) {
        *self.upstream.lock().unwrap() = to;
    }

    fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for conn in self.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One forwarding direction. The byte budget is shared with the sibling
/// pump; crossing it truncates the in-flight chunk at an arbitrary byte
/// offset and resets both sockets (a mid-frame cut, not a clean close).
fn pump(mut from: TcpStream, mut to: TcpStream, budget: &AtomicI64, plan: &FaultPlan) {
    let mut buf = vec![0u8; plan.chunk.max(1)];
    let mut forwarded = 0u64;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let before = budget.fetch_sub(n as i64, Ordering::AcqRel);
        let allowed = before.clamp(0, n as i64) as usize;
        if let Some((at, dur)) = plan.stall {
            if forwarded < at && forwarded + allowed as u64 >= at {
                std::thread::sleep(dur);
            }
        }
        if allowed > 0 && to.write_all(&buf[..allowed]).is_err() {
            break;
        }
        forwarded += allowed as u64;
        if allowed < n {
            break; // budget exhausted: truncate and reset
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn random_rows(rows: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..rows)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

fn sharded_fixture(seed: u64) -> Arc<ShardedSearcher> {
    let rows = random_rows(ROWS, DIM, seed);
    let classes: Vec<usize> = (0..rows.len()).map(|r| r % 5).collect();
    let memory = SearchMemory::from_rows(&rows).unwrap();
    Arc::new(ShardedSearcher::new(memory, classes, 4).unwrap())
}

/// Wraps a model with a fixed per-flush latency so drains and restarts
/// reliably overlap in-flight work.
struct SlowModel {
    inner: Arc<dyn Searchable>,
    delay: Duration,
}

impl Searchable for SlowModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> hd_serve::Result<Vec<Winner>> {
        std::thread::sleep(self.delay);
        self.inner.search_winners(batch)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> hd_serve::Result<Vec<Vec<Winner>>> {
        std::thread::sleep(self.delay);
        self.inner.search_topk(batch, k)
    }
}

fn start_server(model: Arc<dyn Searchable>, max_delay: Duration) -> Arc<Server> {
    Arc::new(
        Server::start(model, ServeConfig { max_batch: 8, max_delay, ..Default::default() })
            .unwrap(),
    )
}

/// In-process ground truth, computed before any proxy exists.
fn ground_truth(server: &Server, queries: &[BitVector], k: usize) -> Vec<Vec<Prediction>> {
    queries.iter().map(|q| server.submit(q.as_view(), k).unwrap().wait().unwrap()).collect()
}

fn chaos_client_config() -> ResilientConfig {
    ResilientConfig {
        connect_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(5),
        max_attempts: 64,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(50),
        retry_seed: 0x5EED_CAFE,
        max_batch: 7,
        allow_generation_change: false,
    }
}

// ---------------------------------------------------------------------
// The chaos e2e suite
// ---------------------------------------------------------------------

#[test]
fn seeded_proxy_faults_lose_and_duplicate_nothing() {
    let server = start_server(sharded_fixture(601), Duration::from_micros(200));
    let queries = random_rows(48, DIM, 602);
    let want = ground_truth(&server, &queries, 3);

    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut proxy = ChaosProxy::start(addr, 0xC0FF_EE00, false);

    let mut client =
        ResilientClient::new(Target::Tcp(proxy.addr.to_string()), chaos_client_config());
    let got = client.search(&queries, 3).unwrap();
    assert_eq!(got.len(), queries.len(), "zero lost answers");
    assert_eq!(got, want, "answers are bit-identical to the in-process run");
    assert!(
        client.reconnects() >= 2,
        "the seeded schedule must actually kill connections (saw {})",
        client.reconnects()
    );

    // A second pass over the same client (fresh ledger, surviving or
    // fresh connection) delivers the identical slate again — the reads
    // really are idempotent.
    let again = client.search(&queries, 3).unwrap();
    assert_eq!(again, want);

    proxy.stop();
    wire.shutdown();
    server.shutdown();
}

#[test]
fn drain_and_restart_under_proxy_faults_lose_and_duplicate_nothing() {
    let sharded = sharded_fixture(611);
    let slow: Arc<dyn Searchable> =
        Arc::new(SlowModel { inner: sharded, delay: Duration::from_millis(20) });
    let server = start_server(slow, Duration::from_millis(1));
    let queries = random_rows(24, DIM, 612);
    let want = ground_truth(&server, &queries, 1);

    let wire_a = Arc::new(WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap());
    let addr_a = wire_a.listen_tcp("127.0.0.1:0").unwrap();
    let mut proxy = ChaosProxy::start(addr_a, 0xD1CE_0001, false);

    // Mid-workload: drain server A (flushes every accepted answer, says
    // GOAWAY), bring up server B over the same inner server, and swap
    // the proxy's upstream — a rolling restart as the client sees one.
    let restarter = {
        let wire_a = Arc::clone(&wire_a);
        let server = Arc::clone(&server);
        let upstream = ChaosSwapHandle { upstream: Arc::clone(&proxy.upstream) };
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            let flushed = wire_a.drain(Duration::from_secs(20));
            let wire_b = WireServer::start(server, WireConfig::default()).unwrap();
            let addr_b = wire_b.listen_tcp("127.0.0.1:0").unwrap();
            upstream.swap(addr_b);
            (flushed, wire_b)
        })
    };

    let mut client =
        ResilientClient::new(Target::Tcp(proxy.addr.to_string()), chaos_client_config());
    let got = client.search(&queries, 1).unwrap();
    assert_eq!(got, want, "zero lost, zero duplicated, bit-identical across the restart");

    let (flushed, wire_b) = restarter.join().unwrap();
    assert!(flushed, "drain flushed every accepted in-flight answer");
    assert!(proxy.accepted() >= 2, "the restart must have forced at least one reconnect");

    proxy.stop();
    wire_b.shutdown();
    server.shutdown();
}

/// Hands the proxy's upstream slot to the restarter thread without
/// moving the proxy itself.
struct ChaosSwapHandle {
    upstream: Arc<Mutex<SocketAddr>>,
}

impl ChaosSwapHandle {
    fn swap(&self, to: SocketAddr) {
        *self.upstream.lock().unwrap() = to;
    }
}

#[test]
fn generation_change_across_restart_is_surfaced_not_mixed() {
    let model: Arc<dyn Searchable> = sharded_fixture(621);
    let server_a = start_server(Arc::clone(&model), Duration::from_micros(200));
    let generation_a = server_a.registry().snapshot().id();

    // Server B serves the same rows under a bumped generation — what a
    // redeploy with a republished model looks like.
    let server_b = start_server(Arc::clone(&model), Duration::from_micros(200));
    server_b.publish(Arc::clone(&model)).unwrap();
    let generation_b = server_b.registry().snapshot().id();
    assert_ne!(generation_a, generation_b);

    let wire_a = WireServer::start(Arc::clone(&server_a), WireConfig::default()).unwrap();
    let addr_a = wire_a.listen_tcp("127.0.0.1:0").unwrap();
    let wire_b = WireServer::start(Arc::clone(&server_b), WireConfig::default()).unwrap();
    let addr_b = wire_b.listen_tcp("127.0.0.1:0").unwrap();
    let proxy = ChaosProxy::start(addr_a, 0xFEED_0002, false);

    let queries = random_rows(16, DIM, 622);
    let strict_config = ResilientConfig { max_batch: 4, ..chaos_client_config() };
    let mut strict = ResilientClient::new(Target::Tcp(proxy.addr.to_string()), strict_config);
    let lenient_config =
        ResilientConfig { allow_generation_change: true, max_batch: 4, ..chaos_client_config() };
    let mut lenient = ResilientClient::new(Target::Tcp(proxy.addr.to_string()), lenient_config);

    // Both clients pin generation A with a completed workload.
    let first = strict.search(&queries, 1).unwrap();
    assert!(first.iter().all(|s| s.iter().all(|p| p.generation == generation_a)));
    lenient.search(&queries, 1).unwrap();
    assert_eq!(strict.generation(), Some(generation_a));
    assert_eq!(lenient.generation(), Some(generation_a));

    // Rolling restart: drain A (its connections get GOAWAY and close),
    // then point the proxy at B.
    assert!(wire_a.drain(Duration::from_secs(20)));
    proxy.swap_upstream(addr_b);

    // The strict client's reconnect lands on a different generation and
    // must refuse to mix it in silently.
    match strict.search(&queries, 1) {
        Err(ResilientError::GenerationChanged { pinned, current }) => {
            assert_eq!(pinned, generation_a);
            assert_eq!(current, generation_b);
        }
        Ok(_) => panic!("a generation change across the restart must not complete silently"),
        Err(other) => panic!("expected GenerationChanged, got {other}"),
    }

    // Opting in accepts the new generation; every delivered answer is
    // visibly stamped with it.
    let got = lenient.search(&queries, 1).unwrap();
    assert_eq!(got.len(), queries.len());
    assert!(got.iter().all(|s| s.iter().all(|p| p.generation == generation_b)));
    assert_eq!(lenient.generation(), Some(generation_b));

    wire_b.shutdown();
    server_b.shutdown();
    server_a.shutdown();
}

/// Real-sleep stall injection: the proxy freezes mid-response past the
/// client's `request_timeout` and the server's `idle_timeout`; both ends
/// abandon the stalled connection and the retry still completes the
/// workload exactly. Timing-sensitive, so gated behind
/// `HD_WIRE_CHAOS_TIMING=1` (see CI docs).
#[test]
fn stalls_trip_timeouts_and_retries_still_complete() {
    if std::env::var("HD_WIRE_CHAOS_TIMING").as_deref() != Ok("1") {
        eprintln!("skipping: set HD_WIRE_CHAOS_TIMING=1 to run stall-injection chaos");
        return;
    }
    let server = start_server(sharded_fixture(631), Duration::from_micros(200));
    let queries = random_rows(32, DIM, 632);
    let want = ground_truth(&server, &queries, 1);

    let config =
        WireConfig { idle_timeout: Some(Duration::from_millis(100)), ..Default::default() };
    let wire = WireServer::start(Arc::clone(&server), config).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut proxy = ChaosProxy::start(addr, 0x57A1_1001, true);

    let client_config =
        ResilientConfig { request_timeout: Duration::from_millis(150), ..chaos_client_config() };
    let mut client = ResilientClient::new(Target::Tcp(proxy.addr.to_string()), client_config);
    let got = client.search(&queries, 1).unwrap();
    assert_eq!(got, want, "stalled-and-retried answers stay exact");
    assert!(
        client.reconnects() >= 2,
        "the stall must actually trip the request timeout (saw {})",
        client.reconnects()
    );

    proxy.stop();
    wire.shutdown();
    server.shutdown();
}
