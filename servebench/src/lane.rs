//! Closed-loop callers: a wire connection that pipelines QUERY frames,
//! and an in-process submitter on `Server::submit_packed`. Each keeps a
//! window of frames in flight and sends the next only as answers come
//! back.

use crate::oracle::{Oracle, Tally};
use crate::trace::{fingerprint, now_ns, ClientLog, FrameSpan, QuerySample};
use hd_serve::net::{code, WireClient, WireEvent, CONNECTION_ERROR_ID, HEADER_LEN};
use hd_serve::{PendingTopK, Server};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Packed queries; callers cycle over a range of them.
#[derive(Debug)]
pub struct QueryPool {
    pub words: Vec<u64>,
    pub words_per_query: usize,
}

impl QueryPool {
    pub fn from_batch(batch: &hd_linalg::QueryBatch) -> Self {
        let words_per_query = batch.dim().div_ceil(64);
        let mut words = Vec::with_capacity(batch.len() * words_per_query);
        for q in 0..batch.len() {
            words.extend_from_slice(batch.query(q).as_words());
        }
        QueryPool { words, words_per_query }
    }

    pub fn len(&self) -> usize {
        self.words.len() / self.words_per_query
    }

    pub fn frame(&self, start: usize, n: usize) -> &[u64] {
        &self.words[start * self.words_per_query..(start + n) * self.words_per_query]
    }
}

/// When a caller stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant (a timed phase).
    At(Instant),
    /// After this many frames (warm-up).
    After(u64),
}

impl Stop {
    fn more(self, sent: u64) -> bool {
        match self {
            Stop::At(deadline) => Instant::now() < deadline,
            Stop::After(frames) => sent < frames,
        }
    }
}

/// Frame geometry and the pool range a caller cycles over.
#[derive(Debug, Clone)]
pub struct Shape {
    pub range: Range<usize>,
    pub frame: usize,
    pub window: usize,
    pub k: usize,
}

#[derive(Debug)]
struct InFlight {
    first_id: u64,
    first_query: usize,
    len: usize,
    answered: usize,
    sent: Instant,
    sent_ns: u64,
}

/// Advances the pool cursor by one frame, wrapping before a frame would
/// run past the range.
fn next_frame(shape: &Shape, cursor: &mut usize) -> usize {
    if *cursor + shape.frame > shape.range.end {
        *cursor = shape.range.start;
    }
    let start = *cursor;
    *cursor += shape.frame;
    start
}

/// Bytes a QUERY frame of `queries` queries puts on the wire.
pub fn query_frame_bytes(queries: usize, words_per_query: usize) -> u64 {
    (HEADER_LEN + 8 + queries * words_per_query * 8) as u64
}

/// Bytes of a RESPONSE frame carrying `hits` hits.
pub fn response_frame_bytes(hits: usize) -> u64 {
    (HEADER_LEN + 16 + hits * 12) as u64
}

/// One wire connection driven closed-loop.
pub struct WireLane {
    client: WireClient,
    shape: Shape,
    cursor: usize,
    inflight: VecDeque<InFlight>,
    pub tally: Tally,
    pub log: Option<ClientLog>,
    /// Set once the connection can no longer be used.
    broken: bool,
}

impl WireLane {
    /// Answers slower than this count as timed out.
    const READ_TIMEOUT: Duration = Duration::from_secs(10);

    pub fn new(mut client: WireClient, shape: Shape, seed: u64) -> Self {
        client.set_read_timeout(Some(Self::READ_TIMEOUT)).expect("socket accepts a read timeout");
        let cursor = shape.range.start;
        WireLane {
            client,
            shape,
            cursor,
            inflight: VecDeque::new(),
            tally: Tally::new(seed),
            log: None,
            broken: false,
        }
    }

    /// Starts a fresh phase: new tally, optional trace log.
    pub fn reset(&mut self, seed: u64, trace: bool) {
        self.tally = Tally::new(seed);
        self.log = trace.then(ClientLog::default);
    }

    fn send(&mut self, pool: &QueryPool) {
        let first_query = next_frame(&self.shape, &mut self.cursor);
        let words = pool.frame(first_query, self.shape.frame);
        let sent = Instant::now();
        let sent_ns = now_ns();
        let k = u16::try_from(self.shape.k).expect("k fits the wire's u16");
        self.tally.attempted += self.shape.frame as u64;
        match self.client.send_packed_words(words, k) {
            Ok(ids) => {
                if let Some(log) = &mut self.log {
                    log.send_ns += now_ns() - sent_ns;
                    log.queries_sent += self.shape.frame as u64;
                    log.bytes += query_frame_bytes(self.shape.frame, pool.words_per_query);
                }
                self.inflight.push_back(InFlight {
                    first_id: ids.start,
                    first_query,
                    len: self.shape.frame,
                    answered: 0,
                    sent,
                    sent_ns,
                });
            }
            Err(e) => {
                self.tally.error(self.shape.frame as u64, &format!("not sent: {e}"));
                self.broken = true;
            }
        }
    }

    /// Receives one frame from the server and accounts for it.
    fn recv(&mut self, oracle: &Oracle, pool: &QueryPool) {
        let t = now_ns();
        let event = self.client.recv();
        if let Some(log) = &mut self.log {
            log.recv_ns += now_ns() - t;
        }
        match event {
            Ok(event) => self.on_event(event, oracle, pool),
            Err(e) => self.fail_all(&format!("unanswered: {e}")),
        }
    }

    /// Accounts for one received event.
    pub fn on_event(&mut self, event: WireEvent, oracle: &Oracle, pool: &QueryPool) {
        match event {
            WireEvent::Response { id, hits } => {
                let Some(front) = self.inflight.front_mut() else {
                    self.tally.error(1, &format!("answer {id} arrived with nothing in flight"));
                    return;
                };
                if id != front.first_id + front.answered as u64 {
                    self.tally.error(1, &format!("answer {id} arrived out of order"));
                    return;
                }
                let q = front.first_query + front.answered;
                front.answered += 1;
                let now = Instant::now();
                self.tally.answer(oracle, q, self.shape.k, &hits, now - front.sent);
                if let Some(log) = &mut self.log {
                    let answered_ns = now_ns();
                    log.answers += 1;
                    log.bytes += response_frame_bytes(hits.len());
                    log.sample(QuerySample {
                        fingerprint: fingerprint(pool.frame(q, 1)),
                        sent_ns: front.sent_ns,
                        answered_ns,
                    });
                    if front.answered == front.len {
                        log.frame(FrameSpan {
                            first_id: front.first_id,
                            queries: front.len as u32,
                            sent_ns: front.sent_ns,
                            last_ns: answered_ns,
                        });
                    }
                }
                if front.answered == front.len {
                    self.inflight.pop_front();
                }
            }
            WireEvent::Error(body) => {
                if let Some(log) = &mut self.log {
                    log.error_frames += 1;
                }
                if body.id == CONNECTION_ERROR_ID {
                    self.fail_all(&format!("connection error frame: {}", body.message));
                    return;
                }
                let Some(pos) = self
                    .inflight
                    .iter()
                    .position(|f| (f.first_id..f.first_id + f.len as u64).contains(&body.id))
                else {
                    self.tally.error(1, &format!("error frame for unknown id {}", body.id));
                    return;
                };
                let frame = &mut self.inflight[pos];
                if body.code == code::MODEL {
                    // A per-query failure: the rest of the frame follows.
                    frame.answered += 1;
                    self.tally.error(1, &format!("error frame: {}", body.message));
                    if frame.answered == frame.len {
                        self.inflight.remove(pos);
                    }
                } else {
                    // The whole frame was rejected before submission.
                    let left = (frame.len - frame.answered) as u64;
                    self.inflight.remove(pos);
                    self.tally.error(left, &format!("frame rejected: {}", body.message));
                }
            }
            WireEvent::GoAway { .. } => {
                if let Some(log) = &mut self.log {
                    log.error_frames += 1;
                }
                self.fail_all("connection drained by GOAWAY");
            }
            WireEvent::Pong { .. } => {}
        }
    }

    fn fail_all(&mut self, what: &str) {
        let left: usize = self.inflight.drain(..).map(|f| f.len - f.answered).sum();
        self.tally.error(left as u64, what);
        self.broken = true;
    }

    fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Runs closed-loop until `stop`, then collects every answer still
    /// in flight. `each_frame` runs after every frame sent.
    pub fn run(
        &mut self,
        oracle: &Oracle,
        pool: &QueryPool,
        stop: Stop,
        mut each_frame: impl FnMut(),
    ) {
        let mut sent = 0u64;
        while !self.broken && stop.more(sent) {
            while !self.broken && self.outstanding() < self.shape.window && stop.more(sent) {
                self.send(pool);
                sent += 1;
                each_frame();
            }
            if !self.broken && self.outstanding() > 0 {
                self.recv(oracle, pool);
            }
        }
        while !self.broken && self.outstanding() > 0 {
            self.recv(oracle, pool);
        }
    }
}

/// An in-process submitter on `Server::submit_packed`.
pub struct InprocLane {
    shape: Shape,
    cursor: usize,
    next_id: u64,
    pub tally: Tally,
    pub log: Option<ClientLog>,
}

struct Submitted {
    pendings: Vec<PendingTopK>,
    first_id: u64,
    first_query: usize,
    sent: Instant,
    sent_ns: u64,
}

impl InprocLane {
    pub fn new(shape: Shape, seed: u64) -> Self {
        let cursor = shape.range.start;
        InprocLane { shape, cursor, next_id: 0, tally: Tally::new(seed), log: None }
    }

    pub fn reset(&mut self, seed: u64, trace: bool) {
        self.tally = Tally::new(seed);
        self.log = trace.then(ClientLog::default);
    }

    fn submit(&mut self, server: &Server, pool: &QueryPool) -> Option<Submitted> {
        let first_query = next_frame(&self.shape, &mut self.cursor);
        let first_id = self.next_id;
        self.next_id += self.shape.frame as u64;
        self.tally.attempted += self.shape.frame as u64;
        let sent = Instant::now();
        let sent_ns = now_ns();
        match server.submit_packed(pool.frame(first_query, self.shape.frame), self.shape.k) {
            Ok(pendings) => Some(Submitted { pendings, first_id, first_query, sent, sent_ns }),
            Err(e) => {
                self.tally.error(self.shape.frame as u64, &format!("submission refused: {e}"));
                None
            }
        }
    }

    fn collect(&mut self, s: Submitted, oracle: &Oracle, pool: &QueryPool) {
        let len = s.pendings.len();
        for (i, pending) in s.pendings.into_iter().enumerate() {
            let q = s.first_query + i;
            match pending.wait() {
                Ok(hits) => {
                    let now = Instant::now();
                    self.tally.answer(oracle, q, self.shape.k, &hits, now - s.sent);
                    if let Some(log) = &mut self.log {
                        let answered_ns = now_ns();
                        log.answers += 1;
                        log.sample(QuerySample {
                            fingerprint: fingerprint(pool.frame(q, 1)),
                            sent_ns: s.sent_ns,
                            answered_ns,
                        });
                        if i + 1 == len {
                            log.frame(FrameSpan {
                                first_id: s.first_id,
                                queries: len as u32,
                                sent_ns: s.sent_ns,
                                last_ns: answered_ns,
                            });
                        }
                    }
                }
                Err(e) => self.tally.error(1, &format!("answered with an error: {e}")),
            }
        }
    }

    /// Runs closed-loop until `stop`, then collects every answer still
    /// in flight.
    pub fn run(&mut self, server: &Server, oracle: &Oracle, pool: &QueryPool, stop: Stop) {
        let mut inflight: VecDeque<Submitted> = VecDeque::new();
        let mut sent = 0u64;
        while stop.more(sent) {
            while inflight.len() < self.shape.window && stop.more(sent) {
                sent += 1;
                if let Some(s) = self.submit(server, pool) {
                    inflight.push_back(s);
                }
            }
            if let Some(s) = inflight.pop_front() {
                self.collect(s, oracle, pool);
            }
        }
        while let Some(s) = inflight.pop_front() {
            self.collect(s, oracle, pool);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GenTable, ModelOracle};
    use hd_linalg::rng::seeded;
    use hd_linalg::{BitVector, QueryBatch, SearchMemory};
    use hd_serve::net::{ErrorBody, WireConfig, WireServer};
    use hd_serve::{Prediction, Searchable, ServeConfig};
    use rand::Rng;
    use std::sync::Arc;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect()
    }

    struct Fixture {
        server: Arc<Server>,
        wire: WireServer,
        oracle: Oracle,
        pool: QueryPool,
    }

    fn fixture() -> Fixture {
        let memory = SearchMemory::from_rows(&random_vectors(24, 128, 1)).unwrap();
        let batch = QueryBatch::from_vectors(&random_vectors(16, 128, 2)).unwrap();
        let gens = GenTable::new(8);
        gens.set(1, 0);
        let oracle = Oracle {
            models: vec![ModelOracle::new(&memory, (0..24).collect(), &batch, 3)],
            labels: vec![0; 16],
            gens,
        };
        let server = Arc::new(
            Server::start(
                Arc::new(memory) as Arc<dyn Searchable>,
                ServeConfig {
                    max_batch: 8,
                    max_delay: Duration::from_micros(200),
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
        Fixture { server, wire, oracle, pool: QueryPool::from_batch(&batch) }
    }

    fn lane(f: &Fixture, k: usize) -> WireLane {
        let addr = f.wire.listen_tcp("127.0.0.1:0").unwrap();
        let client = WireClient::connect_tcp(addr).unwrap();
        WireLane::new(client, Shape { range: 0..16, frame: 4, window: 2, k }, 1)
    }

    #[test]
    fn clean_wire_traffic_has_no_failures() {
        let f = fixture();
        let mut lane = lane(&f, 3);
        lane.reset(1, true);
        lane.run(&f.oracle, &f.pool, Stop::After(10), || {});
        assert_eq!((lane.tally.attempted, lane.tally.answered, lane.tally.failed()), (40, 40, 0));
        let log = lane.log.as_ref().unwrap();
        assert_eq!(log.frames.len(), 10);
        // Query frame 32 + 4 x 16 bytes, and four 3-hit responses.
        assert_eq!(log.bytes_per_answer(), (32.0 + 64.0) / 4.0 + (40.0 + 36.0));
        f.wire.shutdown();
        f.server.shutdown();
    }

    #[test]
    fn an_error_frame_and_an_injected_wrong_answer_each_count() {
        let f = fixture();
        // k = 0 is rejected by the server with one error frame for the
        // whole frame.
        let mut bad = lane(&f, 0);
        bad.run(&f.oracle, &f.pool, Stop::After(1), || {});
        assert_eq!((bad.tally.errors, bad.tally.answered), (4, 0));

        // A wrong answer injected where the next reply is due.
        let mut lane = lane(&f, 1);
        lane.send(&f.pool);
        let first_id = lane.inflight[0].first_id;
        let wrong = Prediction { row: 99, class: 99, score: 0, generation: 1, degraded: false };
        lane.on_event(WireEvent::Response { id: first_id, hits: vec![wrong] }, &f.oracle, &f.pool);
        // A per-query model error for the next id.
        lane.on_event(
            WireEvent::Error(ErrorBody {
                id: first_id + 1,
                code: code::MODEL,
                message: "x".into(),
            }),
            &f.oracle,
            &f.pool,
        );
        assert_eq!((lane.tally.mismatches, lane.tally.errors), (1, 1));
        f.wire.shutdown();
        f.server.shutdown();
    }

    #[test]
    fn inproc_lane_answers_every_submission() {
        let f = fixture();
        let mut lane = InprocLane::new(Shape { range: 0..16, frame: 4, window: 3, k: 3 }, 1);
        lane.run(&f.server, &f.oracle, &f.pool, Stop::After(9));
        assert_eq!((lane.tally.attempted, lane.tally.answered, lane.tally.failed()), (36, 36, 0));
        f.wire.shutdown();
        f.server.shutdown();
    }
}
