//! Loopback end-to-end tests for the wire front-end: results over the
//! socket must be bit-identical to in-process submission (including
//! under forced shard degradation and however the frames are split
//! across socket reads), a lone frame must be answered by the reader's
//! ingest flush rather than the deadline, replies must leave in frame
//! order, a connection at its in-flight bound must answer rather than
//! stall, malformed frames must answer typed error frames without losing
//! any in-flight query, overload must shed whole frames with a typed
//! error, and drain must keep its deadline.

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, QueryBatch, SearchMemory};
use hd_serve::net::wire::{self, ErrorBody};
use hd_serve::net::{
    code, Header, WireClient, WireConfig, WireEvent, WireServer, CONNECTION_ERROR_ID, FT_ERROR,
    FT_GOAWAY, FT_HELLO_ACK, FT_PING, FT_PONG, FT_QUERY, FT_RESPONSE, GOAWAY_NONE, HEADER_LEN,
};
use hd_serve::{Prediction, Searchable, ServeConfig, Server, ShardedSearcher, Winner};
use rand::Rng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const DIM: usize = 128;
const ROWS: usize = 61;

fn random_rows(rows: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..rows)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

fn random_queries(n: usize, seed: u64) -> Vec<BitVector> {
    random_rows(n, DIM, seed)
}

fn sharded_fixture(seed: u64) -> Arc<ShardedSearcher> {
    let rows = random_rows(ROWS, DIM, seed);
    let classes: Vec<usize> = (0..rows.len()).map(|r| r % 5).collect();
    let memory = SearchMemory::from_rows(&rows).unwrap();
    Arc::new(ShardedSearcher::new(memory, classes, 4).unwrap())
}

/// A served sharded fixture with a TCP listener on an ephemeral port.
fn wire_fixture(seed: u64) -> (Arc<ShardedSearcher>, Arc<Server>, WireServer, SocketAddr) {
    wire_fixture_with(seed, Duration::from_micros(200))
}

/// [`wire_fixture`] with a chosen deadline. A `max_delay` far beyond any
/// test's run time leaves full and ingest flushes as the only ways a
/// query gets answered.
fn wire_fixture_with(
    seed: u64,
    max_delay: Duration,
) -> (Arc<ShardedSearcher>, Arc<Server>, WireServer, SocketAddr) {
    let sharded = sharded_fixture(seed);
    let server = Arc::new(
        Server::start(
            Arc::clone(&sharded) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 8, max_delay, ..Default::default() },
        )
        .unwrap(),
    );
    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    (sharded, server, wire, addr)
}

/// Shuts a server down when dropped. Bound after the front-end on
/// fixtures whose deadline is out of reach, so that a failing assertion
/// answers every query still pending first: the front-end's shutdown
/// then joins readers that can no longer wait on that far-off deadline.
struct DrainOnDrop(Arc<Server>);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// In-process ground truth for one query at one k, via the same server.
fn expected(server: &Server, q: &BitVector, k: usize) -> Vec<Prediction> {
    server.submit(q.as_view(), k).unwrap().wait().unwrap()
}

/// Ground truth straight from the served model as `(row, class, score)`
/// slates, bypassing the server's queue — which, on a fixture whose
/// deadline is out of reach, only a full or ingest flush would answer.
fn direct(model: &ShardedSearcher, queries: &[BitVector], k: usize) -> Vec<Vec<(u32, u32, u32)>> {
    let batch = Arc::new(QueryBatch::from_vectors(queries).unwrap());
    let slates = model.search_topk(batch, k).unwrap();
    slates
        .iter()
        .map(|s| s.iter().map(|w| (w.row as u32, w.class as u32, w.score)).collect())
        .collect()
}

/// Drives `n` queries through `client` (first `split` at k=1, rest at
/// k=3) and asserts every response is bit-identical to in-process
/// submission and arrives in submission order.
fn roundtrip_and_compare(client: &mut WireClient, server: &Server, queries: &[BitVector]) {
    let split = queries.len() / 2;
    let base = client.send_queries(&queries[..split], 1).unwrap().start;
    client.send_queries(&queries[split..], 3).unwrap();
    let mut order = Vec::new();
    let mut got: HashMap<u64, Vec<Prediction>> = HashMap::new();
    for _ in 0..queries.len() {
        match client.recv().unwrap() {
            WireEvent::Response { id, hits } => {
                order.push(id);
                got.insert(id, hits);
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert!(order.windows(2).all(|w| w[0] < w[1]), "responses arrive in submission order");
    for (i, q) in queries.iter().enumerate() {
        let k = if i < split { 1 } else { 3 };
        let id = base + i as u64;
        assert_eq!(got[&id], expected(server, q, k), "query {i} must be bit-identical");
    }
}

#[test]
fn tcp_loopback_is_bit_identical_to_in_process_submission() {
    let (_sharded, server, wire, addr) = wire_fixture(401);
    let mut client = WireClient::connect_tcp(addr).unwrap();
    assert_eq!(client.dim() as usize, DIM);
    assert_eq!(client.rows() as usize, ROWS);
    let queries = random_queries(20, 402);
    roundtrip_and_compare(&mut client, &server, &queries);

    // The zero-copy path: a BitVector's packed words sent verbatim
    // answer identically to the BitVector itself.
    let ids = client.send_packed_words(queries[0].as_words(), 1).unwrap();
    let (id, hits) = client.recv_response().unwrap();
    assert_eq!(id, ids.start);
    assert_eq!(hits, expected(&server, &queries[0], 1));

    wire.shutdown();
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn uds_loopback_is_bit_identical_and_socket_file_is_cleaned_up() {
    let (_sharded, server, wire, _addr) = wire_fixture(411);
    let path = std::env::temp_dir().join(format!("hd-wire-test-{}.sock", std::process::id()));
    wire.listen_uds(&path).unwrap();
    let mut client = WireClient::connect_uds(&path).unwrap();
    assert_eq!(client.dim() as usize, DIM);
    let queries = random_queries(16, 412);
    roundtrip_and_compare(&mut client, &server, &queries);
    wire.shutdown();
    assert!(!path.exists(), "shutdown unlinks the socket file");
    server.shutdown();
}

#[test]
fn degraded_shard_failover_flags_wire_responses_and_stays_exact() {
    let (sharded, server, wire, addr) = wire_fixture(421);
    // Kill shard 0 past its respawn budget: the model serves exactly
    // over the survivors and must say so on the wire.
    sharded.inject_shard_panics(0, 100).unwrap();
    // Drive one classification through to force the failover to settle.
    let warmup = random_queries(1, 422).pop().unwrap();
    while !server.submit(warmup.as_view(), 1).unwrap().wait().unwrap()[0].degraded {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = WireClient::connect_tcp(addr).unwrap();
    let queries = random_queries(12, 423);
    let ids = client.send_queries(&queries, 2).unwrap();
    for (i, id) in ids.enumerate() {
        let (got_id, hits) = client.recv_response().unwrap();
        assert_eq!(got_id, id);
        assert!(hits.iter().all(|h| h.degraded), "degraded answers must be flagged on the wire");
        assert_eq!(hits, expected(&server, &queries[i], 2), "exact over the surviving rows");
    }
    assert_eq!(sharded.missing_shards(), vec![0]);
    wire.shutdown();
    server.shutdown();
}

/// Raw-protocol helper: connect + HELLO handshake, returning the stream
/// positioned after the HELLO_ACK.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    wire::write_hello(&mut stream).unwrap();
    let header = wire::read_header(&mut stream).unwrap();
    assert_eq!(header.frame_type, FT_HELLO_ACK);
    wire::drain(&mut stream, 16).unwrap(); // dim, rows, generation
    stream
}

fn read_error_frame(stream: &mut TcpStream) -> ErrorBody {
    let header = wire::read_header(stream).unwrap();
    assert_eq!(header.frame_type, FT_ERROR);
    wire::read_error_body(stream).unwrap()
}

fn read_response_frame(stream: &mut TcpStream) -> (u64, Vec<(u32, u32, u32)>) {
    let header = wire::read_header(stream).unwrap();
    assert_eq!(header.frame_type, FT_RESPONSE);
    let id = wire::read_u64(stream).unwrap();
    let _generation = wire::read_u64(stream).unwrap();
    let hits = (0..header.k)
        .map(|_| {
            (
                wire::read_u32(stream).unwrap(),
                wire::read_u32(stream).unwrap(),
                wire::read_u32(stream).unwrap(),
            )
        })
        .collect();
    (id, hits)
}

fn assert_eof(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).unwrap(), 0, "connection must be closed");
}

#[test]
fn recoverable_bad_frames_answer_typed_errors_and_keep_the_connection() {
    let (_sharded, server, wire, addr) = wire_fixture(431);
    let mut stream = raw_connect(addr);
    // Fail rather than hang if a frame goes unanswered.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let wpq = (DIM / 64) as u32;
    let query = random_queries(1, 432).pop().unwrap();

    // k = 0: rejected before submission.
    wire::write_query(&mut stream, 0, 10, wpq, query.as_words()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (10, code::BAD_K));

    // Wrong dimensionality: one word short per query.
    let short = vec![0u64; (wpq - 1) as usize];
    wire::write_query(&mut stream, 1, 20, wpq - 1, &short).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (20, code::DIMENSION_MISMATCH));

    // Zero queries declared.
    let mut header = Header::new(FT_QUERY);
    header.k = 1;
    header.count = 0;
    header.words_per_query = wpq;
    stream.write_all(&header.encode()).unwrap();
    stream.write_all(&30u64.to_le_bytes()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (30, code::MALFORMED));

    // Non-default model key.
    let mut header = Header::new(FT_QUERY);
    header.k = 1;
    header.count = 1;
    header.words_per_query = wpq;
    header.model_key = 7;
    stream.write_all(&header.encode()).unwrap();
    stream.write_all(&40u64.to_le_bytes()).unwrap();
    for word in query.as_words() {
        stream.write_all(&word.to_le_bytes()).unwrap();
    }
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (40, code::UNKNOWN_MODEL_KEY));

    // Unknown-but-header-only frame type (a future extension frame):
    // the stream stays synchronized, so the rejection is recoverable.
    stream.write_all(&Header::new(99).encode()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_FRAME_TYPE));

    // Query ids past u64::MAX - 1: with 2 queries the last id would be
    // the reserved u64::MAX, with 3 it would overflow.
    for count in [2, 3] {
        let words: Vec<u64> = (0..count).flat_map(|_| query.as_words().to_vec()).collect();
        wire::write_query(&mut stream, 1, u64::MAX - 1, wpq, &words).unwrap();
        let err = read_error_frame(&mut stream);
        assert_eq!((err.id, err.code), (u64::MAX - 1, code::MALFORMED), "{count} queries");
    }

    // After all of that, a good frame still answers on this connection.
    wire::write_query(&mut stream, 1, 50, wpq, query.as_words()).unwrap();
    let (id, hits) = read_response_frame(&mut stream);
    assert_eq!(id, 50);
    let want = expected(&server, &query, 1)[0];
    assert_eq!(hits, vec![(want.row as u32, want.class as u32, want.score)]);

    drop(stream);
    wire.shutdown();
    server.shutdown();
}

#[test]
fn fatal_bad_frames_answer_a_final_error_and_close() {
    let (_sharded, server, wire, addr) = wire_fixture(441);

    // Garbage magic.
    let mut stream = raw_connect(addr);
    stream.write_all(&[0xabu8; HEADER_LEN]).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_MAGIC));
    assert_eof(&mut stream);

    // Unknown frame type declaring a payload: the stream position past
    // it cannot be trusted, so the connection dies.
    let mut stream = raw_connect(addr);
    let mut header = Header::new(99);
    header.count = 1;
    header.words_per_query = 2;
    stream.write_all(&header.encode()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_FRAME_TYPE));
    assert_eof(&mut stream);

    // A frame declaring more queries than the server accepts: the
    // payload cannot be trusted enough to drain, so the connection dies.
    let mut stream = raw_connect(addr);
    let mut header = Header::new(FT_QUERY);
    header.k = 1;
    header.count = WireConfig::default().max_frame_queries + 1;
    header.words_per_query = (DIM / 64) as u32;
    stream.write_all(&header.encode()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::OVERSIZED_FRAME));
    assert_eof(&mut stream);

    // The server survives all three abuses.
    let query = random_queries(1, 442).pop().unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.send_queries(std::slice::from_ref(&query), 1).unwrap();
    let (_, hits) = client.recv_response().unwrap();
    assert_eq!(hits, expected(&server, &query, 1));

    wire.shutdown();
    server.shutdown();
}

#[test]
fn in_flight_queries_are_answered_before_a_fatal_error_closes() {
    let (_sharded, server, wire, addr) = wire_fixture(451);
    let mut stream = raw_connect(addr);
    let queries = random_queries(4, 452);
    let wpq = (DIM / 64) as u32;
    let words: Vec<u64> = queries.iter().flat_map(|q| q.as_words().to_vec()).collect();
    // One write carrying a good 4-query frame immediately followed by
    // garbage: the four answers must drain before the fatal error frame.
    let mut burst = Vec::new();
    wire::write_query(&mut burst, 1, 0, wpq, &words).unwrap();
    burst.extend_from_slice(&[0u8; HEADER_LEN]);
    stream.write_all(&burst).unwrap();
    for (i, q) in queries.iter().enumerate() {
        let (id, hits) = read_response_frame(&mut stream);
        assert_eq!(id, i as u64, "in-flight answers drain in order before the error");
        let want = expected(&server, q, 1)[0];
        assert_eq!(hits, vec![(want.row as u32, want.class as u32, want.score)]);
    }
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_MAGIC));
    assert_eof(&mut stream);
    wire.shutdown();
    server.shutdown();
}

#[test]
fn buffered_ingest_parses_coalesced_and_byte_split_frames_bit_exactly() {
    let (sharded, server, wire, addr) = wire_fixture_with(479, Duration::from_secs(600));
    let _drain = DrainOnDrop(Arc::clone(&server));
    let wpq = (DIM / 64) as u32;
    let queries = random_queries(7, 480);
    let words =
        |qs: &[BitVector]| qs.iter().flat_map(|q| q.as_words().to_vec()).collect::<Vec<_>>();
    let mut stream = raw_connect(addr);
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Four QUERY frames of mixed k with a PING between the second and
    // the third, all in one write.
    let frames = [(0..2, 1u16), (2..3, 3), (3..6, 2), (6..7, 1)];
    let mut burst = Vec::new();
    for (i, (range, k)) in frames.iter().enumerate() {
        if i == 2 {
            wire::write_ping(&mut burst, 99).unwrap();
        }
        wire::write_query(&mut burst, *k, 100 * i as u64, wpq, &words(&queries[range.clone()]))
            .unwrap();
    }
    stream.write_all(&burst).unwrap();
    for (i, (range, k)) in frames.iter().enumerate() {
        if i == 2 {
            let header = wire::read_header(&mut stream).unwrap();
            assert_eq!((header.frame_type, header.model_key), (FT_PONG, 99));
        }
        for (j, want) in
            direct(&sharded, &queries[range.clone()], *k as usize).into_iter().enumerate()
        {
            assert_eq!(read_response_frame(&mut stream), (100 * i as u64 + j as u64, want));
        }
    }

    // One frame written a byte at a time: the reader goes back to the
    // socket after every partial read and submits the frame only whole,
    // so exactly one more ingest flush answers it.
    let flushed = server.stats().ingest_flushes;
    let mut frame = Vec::new();
    wire::write_query(&mut frame, 2, 500, wpq, &words(&queries[..3])).unwrap();
    stream.set_nodelay(true).unwrap();
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_micros(500));
    }
    for (j, want) in direct(&sharded, &queries[..3], 2).into_iter().enumerate() {
        assert_eq!(read_response_frame(&mut stream), (500 + j as u64, want));
    }
    let stats = server.stats();
    assert_eq!(stats.ingest_flushes, flushed + 1);
    assert_eq!((stats.queries, stats.deadline_flushes), (10, 0));
    drop(stream);
    wire.shutdown();
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_is_dropped_cleanly_and_server_keeps_serving() {
    let (_sharded, server, wire, addr) = wire_fixture(461);
    let query = random_queries(1, 462).pop().unwrap();
    let wpq = (DIM / 64) as u32;
    {
        let mut stream = raw_connect(addr);
        // A full good frame, answered...
        wire::write_query(&mut stream, 1, 0, wpq, query.as_words()).unwrap();
        let (id, _) = read_response_frame(&mut stream);
        assert_eq!(id, 0);
        // ...then a frame whose payload never finishes.
        let mut header = Header::new(FT_QUERY);
        header.k = 1;
        header.count = 2;
        header.words_per_query = wpq;
        stream.write_all(&header.encode()).unwrap();
        stream.write_all(&1u64.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 8]).unwrap(); // 1 of 4 payload words
    } // disconnect mid-frame
      // Nothing of the truncated frame was submitted; fresh connections
      // are served as if nothing happened.
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.send_queries(std::slice::from_ref(&query), 1).unwrap();
    let (_, hits) = client.recv_response().unwrap();
    assert_eq!(hits, expected(&server, &query, 1));
    wire.shutdown();
    server.shutdown();
}

/// Wraps a model with a fixed per-flush latency (chaos-test idiom) so
/// the admission gauge stays occupied long enough to overload reliably.
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

#[test]
fn overload_sheds_whole_frames_with_a_typed_error_frame() {
    let slow = SlowModel { inner: sharded_fixture(471), delay: Duration::from_millis(150) };
    let server = Arc::new(
        Server::start(
            Arc::new(slow) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 8, max_delay: Duration::from_millis(1), max_in_flight: 8 },
        )
        .unwrap(),
    );
    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut client_a = WireClient::connect_tcp(addr).unwrap();
    let mut client_b = WireClient::connect_tcp(addr).unwrap();
    let queries = random_queries(12, 472);
    // Frame A (6 queries) occupies the gauge for the model's 150 ms;
    // frame B (6 more) exceeds max_in_flight = 8 and is shed whole. B
    // comes in on a second connection: A's own reader may be the thread
    // running A's flush, and then reads nothing until it publishes.
    client_a.send_queries(&queries[..6], 1).unwrap();
    std::thread::sleep(Duration::from_millis(20)); // let A reach admission
    let ids_b = client_b.send_queries(&queries[6..], 1).unwrap();
    // Frame A's six answers, then frame B's shed notice carrying the
    // frame's first id.
    for i in 0..6u64 {
        let (id, hits) = client_a.recv_response().unwrap();
        assert_eq!(id, i);
        assert_eq!(hits.len(), 1);
    }
    match client_b.recv().unwrap() {
        WireEvent::Error(body) => {
            assert_eq!((body.id, body.code), (ids_b.start, code::OVERLOADED));
        }
        other => panic!("expected an OVERLOADED error frame, got {other:?}"),
    }
    // The connection survives a shed: retry succeeds once capacity frees.
    let retry = client_b.send_queries(&queries[6..7], 1).unwrap();
    let (id, hits) = client_b.recv_response().unwrap();
    assert_eq!(id, retry.start);
    assert_eq!(hits.len(), 1);
    assert!(server.stats().shed >= 6, "the whole frame was shed");
    wire.shutdown();
    server.shutdown();
}

/// Wraps a model so that each flush reports its start and then holds
/// until the test releases it, which lets a test send bytes while a
/// flush is running without relying on sleeps.
struct GatedModel {
    inner: Arc<dyn Searchable>,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl GatedModel {
    fn hold(&self) {
        let _ = self.entered.lock().unwrap().send(());
        // Bounded, so a failing test cannot wedge the flush forever.
        let _ = self.release.lock().unwrap().recv_timeout(Duration::from_secs(10));
    }
}

impl Searchable for GatedModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> hd_serve::Result<Vec<Winner>> {
        self.hold();
        self.inner.search_winners(batch)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> hd_serve::Result<Vec<Vec<Winner>>> {
        self.hold();
        self.inner.search_topk(batch, k)
    }
}

#[test]
fn a_frame_behind_its_readers_ingest_flush_waits_instead_of_being_shed() {
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let gated = GatedModel {
        inner: sharded_fixture(473),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    };
    // No deadline flush within the test: frame A can only be answered by
    // its reader's ingest flush.
    let server = Arc::new(
        Server::start(
            Arc::new(gated) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 8, max_delay: Duration::from_secs(600), max_in_flight: 8 },
        )
        .unwrap(),
    );
    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
    let _drain = DrainOnDrop(Arc::clone(&server));
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let queries = random_queries(12, 474);
    let flush_started = || entered.recv_timeout(Duration::from_secs(10)).unwrap();

    client.send_queries(&queries[..6], 1).unwrap();
    flush_started(); // frame A's flush holds its reader
    let ids_b = client.send_queries(&queries[6..], 1).unwrap();
    release.send(()).unwrap();
    // Frame B waited in the socket until A's flush freed its slots, then
    // was admitted and flushed in turn: answered after A, not shed.
    flush_started();
    release.send(()).unwrap();
    for i in 0..12u64 {
        let (id, hits) = client.recv_response().unwrap();
        assert_eq!(id, i);
        assert_eq!(hits.len(), 1);
    }
    assert_eq!(ids_b, 6..12);
    let stats = server.stats();
    assert_eq!(stats.shed, 0, "frame B was admitted, not shed");
    assert_eq!((stats.ingest_flushes, stats.deadline_flushes), (2, 0));
    wire.shutdown();
    server.shutdown();
}

/// The reader writes every reply itself, at its settle points; replies
/// owed before an answer (a PONG, an earlier frame's answer) must still
/// leave first, whether or not they share a settle with it. Many rounds,
/// so the frames of one burst are read both together and apart.
#[test]
fn inline_answers_keep_frame_order_behind_queued_replies() {
    let (sharded, server, wire, addr) = wire_fixture_with(481, Duration::from_secs(600));
    let _drain = DrainOnDrop(Arc::clone(&server));
    let wpq = (DIM / 64) as u32;
    let queries = random_queries(2, 482);
    let want = direct(&sharded, &queries, 1);
    let query = |burst: &mut Vec<u8>, id: u64, q: usize| {
        wire::write_query(burst, 1, id, wpq, queries[q].as_words()).unwrap();
    };
    let mut stream = raw_connect(addr);
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for round in 0..200u64 {
        let id = 10 * round;
        // Even rounds: PING, QUERY. Odd rounds: QUERY, PING, QUERY.
        let mut burst = Vec::new();
        if round % 2 == 1 {
            query(&mut burst, id, 0);
        }
        wire::write_ping(&mut burst, round).unwrap();
        query(&mut burst, id + 1, 1);
        stream.write_all(&burst).unwrap();
        if round % 2 == 1 {
            assert_eq!(read_response_frame(&mut stream), (id, want[0].clone()), "round {round}");
        }
        let header = wire::read_header(&mut stream).unwrap();
        assert_eq!((header.frame_type, header.model_key), (FT_PONG, round), "round {round}");
        assert_eq!(read_response_frame(&mut stream), (id + 1, want[1].clone()), "round {round}");
    }
    let stats = server.stats();
    assert_eq!((stats.queries, stats.deadline_flushes), (300, 0));
    drop(stream);
    wire.shutdown();
    server.shutdown();
}

/// A reader holding `conn_in_flight` unanswered queries answers them
/// before it reads on: each frame at the bound gets its own ingest
/// flush, and nothing waits for the deadline.
#[test]
fn a_connection_at_its_in_flight_bound_answers_instead_of_stalling() {
    let sharded = sharded_fixture(483);
    let server = Arc::new(
        Server::start(
            Arc::clone(&sharded) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(600),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let config = WireConfig { conn_in_flight: 4, ..Default::default() };
    let wire = WireServer::start(Arc::clone(&server), config).unwrap();
    let _drain = DrainOnDrop(Arc::clone(&server));
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let wpq = (DIM / 64) as u32;
    let queries = random_queries(12, 484);
    let mut stream = raw_connect(addr);
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Three 4-query frames in one write.
    let mut burst = Vec::new();
    for (i, frame) in queries.chunks(4).enumerate() {
        let words: Vec<u64> = frame.iter().flat_map(|q| q.as_words().to_vec()).collect();
        wire::write_query(&mut burst, 1, 4 * i as u64, wpq, &words).unwrap();
    }
    stream.write_all(&burst).unwrap();
    for (id, want) in direct(&sharded, &queries, 1).into_iter().enumerate() {
        assert_eq!(read_response_frame(&mut stream), (id as u64, want));
    }
    let stats = server.stats();
    assert_eq!((stats.ingest_flushes, stats.deadline_flushes), (3, 0));
    drop(stream);
    wire.shutdown();
    server.shutdown();
}

/// Sends one 1-query frame to an idle server whose deadline flush is ten
/// minutes away, over the connection `connect` opens, and asserts that
/// the reader's ingest flush answered it.
fn assert_lone_frame_answered_by_ingest_flush(
    seed: u64,
    connect: impl FnOnce(&WireServer, SocketAddr) -> WireClient,
) {
    let query = random_queries(1, seed + 1).pop().unwrap();
    let (sharded, server, wire, addr) = wire_fixture_with(seed, Duration::from_secs(600));
    let _drain = DrainOnDrop(Arc::clone(&server));
    let mut client = connect(&wire, addr);
    // Fail rather than hang if nothing but the deadline could answer.
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let ids = client.send_queries(std::slice::from_ref(&query), 3).unwrap();
    let (id, hits) = client.recv_response().unwrap();
    assert_eq!(id, ids.start);
    assert!(hits.iter().all(|h| h.generation == 1 && !h.degraded));
    let hits: Vec<_> = hits.iter().map(|h| (h.row as u32, h.class as u32, h.score)).collect();
    assert_eq!(vec![hits], direct(&sharded, std::slice::from_ref(&query), 3));
    let stats = server.stats();
    assert_eq!(
        (stats.ingest_flushes, stats.deadline_flushes, stats.full_flushes),
        (1, 0, 0),
        "only the reader's ingest flush can have answered"
    );
    wire.shutdown();
    server.shutdown();
}

#[test]
fn a_lone_tcp_frame_is_answered_by_the_ingest_flush() {
    assert_lone_frame_answered_by_ingest_flush(475, |_, addr| {
        WireClient::connect_tcp(addr).unwrap()
    });
}

#[cfg(unix)]
#[test]
fn a_lone_uds_frame_is_answered_by_the_ingest_flush() {
    assert_lone_frame_answered_by_ingest_flush(477, |wire, _| {
        let path = std::env::temp_dir().join(format!("hd-wire-ingest-{}.sock", std::process::id()));
        wire.listen_uds(&path).unwrap();
        WireClient::connect_uds(&path).unwrap()
    });
}

/// A wire fixture with a short idle budget, for the liveness tests.
fn idle_fixture(
    seed: u64,
    idle: Duration,
    max_conns: usize,
) -> (Arc<Server>, WireServer, SocketAddr) {
    let sharded = sharded_fixture(seed);
    let server = Arc::new(
        Server::start(
            sharded as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let config =
        WireConfig { idle_timeout: Some(idle), max_connections: max_conns, ..Default::default() };
    let wire = WireServer::start(Arc::clone(&server), config).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    (server, wire, addr)
}

/// Polls until `cond` holds or `deadline` passes; asserts it held.
fn wait_until(deadline: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn idle_connection_gets_ping_grace_then_is_reaped() {
    let idle = Duration::from_millis(100);
    let (server, wire, addr) = idle_fixture(481, idle, 1024);
    let mut stream = raw_connect(addr);
    assert_eq!(wire.connections(), 1);

    // Sitting idle draws a PING probe at the idle boundary; answering it
    // proves liveness and buys a full fresh budget.
    let header = wire::read_header(&mut stream).unwrap();
    assert_eq!(header.frame_type, FT_PING);
    wire::write_pong(&mut stream, header.model_key).unwrap();

    // Going silent after the next probe exhausts the grace: the server
    // answers a typed IDLE_TIMEOUT error and closes.
    let header = wire::read_header(&mut stream).unwrap();
    assert_eq!(header.frame_type, FT_PING, "a live-but-idle peer is probed again");
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::IDLE_TIMEOUT));
    assert_eof(&mut stream);
    wait_until(Duration::from_secs(5), "idle connection reaped", || wire.connections() == 0);

    wire.shutdown();
    server.shutdown();
}

#[test]
fn slow_loris_mid_header_is_reaped_without_ping_grace() {
    let idle = Duration::from_millis(100);
    let (server, wire, addr) = idle_fixture(491, idle, 1024);
    let mut stream = raw_connect(addr);

    // Five header bytes, then silence: the peer owes bytes, so no PING —
    // straight to a typed reap once the budget runs out.
    stream.write_all(&MAGIC_PREFIX[..5]).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::IDLE_TIMEOUT));
    assert_eof(&mut stream);
    wait_until(Duration::from_secs(5), "stalled connection reaped", || wire.connections() == 0);

    // A byte-at-a-time dribbler is caught by the same total budget even
    // though each byte resets the per-read timeout.
    let mut stream = raw_connect(addr);
    let header = Header::new(FT_QUERY).encode();
    let start = std::time::Instant::now();
    let mut reaped_at = None;
    for (i, byte) in header.iter().enumerate().take(HEADER_LEN - 1) {
        std::thread::sleep(idle / 2);
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            reaped_at = Some(i);
            break;
        }
    }
    if reaped_at.is_none() {
        // The writes may all have landed in socket buffers before the
        // server closed; the read side still must see the typed reap.
        let err = read_error_frame(&mut stream);
        assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::IDLE_TIMEOUT));
    }
    assert!(
        start.elapsed() >= idle,
        "a dribbler must survive at least one full idle period before the reap"
    );
    wait_until(Duration::from_secs(5), "dribbling connection reaped", || wire.connections() == 0);

    wire.shutdown();
    server.shutdown();
}

const MAGIC_PREFIX: [u8; HEADER_LEN] = {
    let mut buf = [0u8; HEADER_LEN];
    let m = hd_serve::net::MAGIC.to_le_bytes();
    buf[0] = m[0];
    buf[1] = m[1];
    buf[2] = m[2];
    buf[3] = m[3];
    buf
};

#[test]
fn max_connections_gate_answers_a_typed_error_and_recovers() {
    let (server, wire, addr) = idle_fixture(501, Duration::from_secs(60), 2);
    let a = raw_connect(addr);
    let _b = raw_connect(addr);
    assert_eq!(wire.connections(), 2);

    // The third connect is rejected with a typed frame before any
    // handshake, on the accept thread.
    let mut rejected = TcpStream::connect(addr).unwrap();
    let err = read_error_frame(&mut rejected);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::CONNECTION_LIMIT));
    assert_eof(&mut rejected);

    // Freeing a slot lets the next connect through (the gate prunes
    // finished readers on every accept).
    drop(a);
    wait_until(Duration::from_secs(5), "freed slot accepted a new connection", || {
        WireClient::connect_tcp(addr).is_ok()
    });

    wire.shutdown();
    server.shutdown();
}

#[test]
fn drain_flushes_in_flight_answers_then_says_goaway() {
    // A slow model keeps answers in flight long enough for drain to
    // overlap them deterministically.
    let slow = SlowModel { inner: sharded_fixture(511), delay: Duration::from_millis(300) };
    let server = Arc::new(
        Server::start(
            Arc::new(slow) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 8, max_delay: Duration::from_millis(1), ..Default::default() },
        )
        .unwrap(),
    );
    let queries = random_queries(4, 512);
    let in_process: Vec<Vec<Prediction>> =
        queries.iter().map(|q| server.submit(q.as_view(), 1).unwrap().wait().unwrap()).collect();

    let wire = Arc::new(WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap());
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.send_queries(&queries, 1).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the frame reach admission

    let drainer = {
        let wire = Arc::clone(&wire);
        std::thread::spawn(move || wire.drain(Duration::from_secs(30)))
    };
    wait_until(Duration::from_secs(5), "drain flag raised", || wire.is_draining());

    // A connect during the drain window is answered GOAWAY (nothing was
    // ever accepted on it) and closed, still on the accept thread.
    let mut late = TcpStream::connect(addr).unwrap();
    let header = wire::read_header(&mut late).unwrap();
    assert_eq!(header.frame_type, FT_GOAWAY);
    assert_eq!(header.model_key, GOAWAY_NONE);
    assert_eof(&mut late);

    // Every accepted answer flushes before the close; the GOAWAY carries
    // the last accepted id.
    let mut responses = Vec::new();
    let mut goaway = None;
    while responses.len() < queries.len() || goaway.is_none() {
        match client.recv().unwrap() {
            WireEvent::Response { id, hits } => responses.push((id, hits)),
            WireEvent::GoAway { last_accepted } => goaway = Some(last_accepted),
            other => panic!("unexpected event during drain: {other:?}"),
        }
    }
    assert_eq!(goaway, Some(3), "GOAWAY names the last accepted id");
    responses.sort_by_key(|(id, _)| *id);
    for (i, (id, hits)) in responses.iter().enumerate() {
        assert_eq!(*id, i as u64);
        assert_eq!(hits, &in_process[i], "drained answers are bit-identical");
    }
    assert!(drainer.join().unwrap(), "every accepted answer flushed before the deadline");
    assert_eq!(wire.connections(), 0);

    // Idempotent: draining an already-drained front-end is a no-op true.
    assert!(wire.drain(Duration::from_millis(1)));
    server.shutdown();
}

#[test]
fn drain_keeps_its_deadline_when_a_peer_stops_reading() {
    let (_sharded, server, wire, addr) = wire_fixture(531);
    let wire = Arc::new(wire);
    let wpq = (DIM / 64) as u32;
    let queries = random_queries(64, 532);
    let words: Vec<u64> = queries.iter().flat_map(|q| q.as_words().to_vec()).collect();
    let mut stream = raw_connect(addr);
    // Pipeline full-slate frames without reading a single answer, until
    // the answers fill the socket buffers, the reader blocks writing
    // them, and stops reading in turn.
    stream.set_write_timeout(Some(Duration::from_millis(500))).unwrap();
    let mut first_id = 0;
    while wire::write_query(&mut stream, ROWS as u16, first_id, wpq, &words).is_ok() {
        first_id += queries.len() as u64;
    }
    let (done, drained) = mpsc::channel();
    let drainer = {
        let wire = Arc::clone(&wire);
        std::thread::spawn(move || done.send(wire.drain(Duration::from_millis(200))).unwrap())
    };
    let flushed = drained.recv_timeout(Duration::from_secs(10)).expect("drain kept its deadline");
    assert!(!flushed, "answers the peer never read were not flushed");
    drainer.join().unwrap();
    assert_eq!(wire.connections(), 0);
    server.shutdown();
}

#[test]
fn config_rejects_zero_idle_timeout_and_max_connections() {
    let sharded = sharded_fixture(521);
    let server =
        Arc::new(Server::start(sharded as Arc<dyn Searchable>, ServeConfig::default()).unwrap());
    for config in [
        WireConfig { idle_timeout: Some(Duration::ZERO), ..Default::default() },
        WireConfig { max_connections: 0, ..Default::default() },
    ] {
        assert!(
            matches!(
                WireServer::start(Arc::clone(&server), config),
                Err(hd_serve::ServeError::InvalidConfig { .. })
            ),
            "config {config:?} must be rejected"
        );
    }
    // None disables reaping and is valid.
    let wire = WireServer::start(
        Arc::clone(&server),
        WireConfig { idle_timeout: None, ..Default::default() },
    );
    assert!(wire.is_ok());
    server.shutdown();
}
