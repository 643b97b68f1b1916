//! Spans for the traced run, recorded from the benchmark's side of each
//! layer boundary and held in bounded memory until the run ends.
//!
//! * `server.flush`: a timing [`Searchable`] wrapper around the served
//!   model records each flush (start, end, batch size, k, generation and
//!   a fingerprint per query);
//! * `client.frame`: the client records each frame from the start of
//!   its send until its last answer, keyed by its first query id, plus a
//!   per-query sample of send and answer times;
//! * `registry.publish`: each `Server::publish` call.
//!
//! Query fingerprints tie a client sample to the flush that answered
//! it, which splits its latency into queue wait, flush, and the time
//! after the flush until the client holds the answer.

use hd_linalg::QueryBatch;
use hd_serve::{Result, Searchable, Winner};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Span records kept per kind; later spans only feed the aggregates.
pub const SPAN_CAP: usize = 1 << 16;
/// Query fingerprints kept across all recorded flushes.
const FINGERPRINT_CAP: usize = 1 << 20;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Identifies a query by its packed words.
pub fn fingerprint(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

#[derive(Debug, Clone, Copy)]
pub struct FlushSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub queries: u32,
    pub k: u32,
    pub generation: u64,
    /// Offset of this flush's query fingerprints in the shared pool.
    fp_at: usize,
}

#[derive(Debug, Default)]
struct FlushRecords {
    spans: Vec<FlushSpan>,
    fingerprints: Vec<u64>,
}

/// Flush spans from every [`Timed`] wrapper of one run.
#[derive(Debug, Default)]
pub struct FlushLog {
    records: Mutex<FlushRecords>,
    queries: AtomicU64,
    busy_ns: AtomicU64,
}

impl FlushLog {
    fn record(&self, start_ns: u64, end_ns: u64, batch: &QueryBatch, k: usize, generation: u64) {
        let queries = batch.len();
        self.queries.fetch_add(queries as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        let mut rec = self.records.lock().expect("flush log poisoned by a panicking flush");
        if rec.spans.len() >= SPAN_CAP || rec.fingerprints.len() + queries > FINGERPRINT_CAP {
            return;
        }
        let fp_at = rec.fingerprints.len();
        rec.fingerprints.extend((0..queries).map(|q| fingerprint(batch.query(q).as_words())));
        rec.spans.push(FlushSpan {
            start_ns,
            end_ns,
            queries: queries as u32,
            k: k as u32,
            generation,
            fp_at,
        });
    }

    /// (queries, summed flush time) over every flush, recorded or not.
    pub fn totals(&self) -> (u64, u64) {
        (self.queries.load(Ordering::Relaxed), self.busy_ns.load(Ordering::Relaxed))
    }

    /// Recorded spans sorted by start, with their fingerprint pool.
    fn snapshot(&self) -> (Vec<FlushSpan>, Vec<u64>) {
        let rec = self.records.lock().expect("flush log poisoned by a panicking flush");
        let mut spans = rec.spans.clone();
        spans.sort_by_key(|s| s.start_ns);
        (spans, rec.fingerprints.clone())
    }
}

/// A timing wrapper that forwards every [`Searchable`] method, including
/// `search_topk` and `missing_shards` (the trait's defaults would answer
/// only k == 1 and hide lost shards).
pub struct Timed {
    inner: Arc<dyn Searchable>,
    generation: u64,
    log: Arc<FlushLog>,
}

impl Timed {
    /// Wraps `inner`, which is about to be published as `generation`.
    pub fn new(inner: Arc<dyn Searchable>, generation: u64, log: Arc<FlushLog>) -> Self {
        Timed { inner, generation, log }
    }
}

impl Searchable for Timed {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        let start = now_ns();
        let out = self.inner.search_winners(Arc::clone(&batch));
        self.log.record(start, now_ns(), &batch, 1, self.generation);
        out
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        let start = now_ns();
        let out = self.inner.search_topk(Arc::clone(&batch), k);
        self.log.record(start, now_ns(), &batch, k, self.generation);
        out
    }

    fn missing_shards(&self) -> Vec<usize> {
        self.inner.missing_shards()
    }
}

/// One query as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    pub fingerprint: u64,
    pub sent_ns: u64,
    pub answered_ns: u64,
}

/// `client.frame`: from the start of the send until the last answer.
#[derive(Debug, Clone, Copy)]
pub struct FrameSpan {
    pub first_id: u64,
    pub queries: u32,
    pub sent_ns: u64,
    pub last_ns: u64,
}

/// Client-side record of one connection or submitter.
#[derive(Debug, Default, Clone)]
pub struct ClientLog {
    pub samples: Vec<QuerySample>,
    pub frames: Vec<FrameSpan>,
    /// Time inside the send call (`send_packed_words`).
    pub send_ns: u64,
    /// Time inside the receive call (`recv_response`), waiting included.
    pub recv_ns: u64,
    pub queries_sent: u64,
    pub answers: u64,
    pub bytes: u64,
    pub error_frames: u64,
}

impl ClientLog {
    pub fn sample(&mut self, s: QuerySample) {
        if self.samples.len() < SPAN_CAP {
            self.samples.push(s);
        }
    }

    pub fn frame(&mut self, f: FrameSpan) {
        if self.frames.len() < SPAN_CAP {
            self.frames.push(f);
        }
    }

    /// Wire bytes per answer on this connection (0 without answers).
    pub fn bytes_per_answer(&self) -> f64 {
        if self.answers == 0 {
            0.0
        } else {
            self.bytes as f64 / self.answers as f64
        }
    }
}

/// `registry.publish`.
#[derive(Debug, Clone, Copy)]
pub struct PublishSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub generation: u64,
}

/// Per query: (queue wait, time after the flush) in nanoseconds, for
/// every sample whose answering flush was recorded. The answering flush
/// is the first recorded flush that starts after the query was sent,
/// ends before its answer arrived, and holds its fingerprint.
pub fn split_latency(samples: &[QuerySample], log: &FlushLog) -> Vec<(u64, u64)> {
    let (spans, fps) = log.snapshot();
    samples
        .iter()
        .filter_map(|s| {
            let first = spans.partition_point(|f| f.start_ns < s.sent_ns);
            spans[first..]
                .iter()
                .take_while(|f| f.start_ns <= s.answered_ns)
                .find(|f| {
                    f.end_ns <= s.answered_ns
                        && fps[f.fp_at..f.fp_at + f.queries as usize].contains(&s.fingerprint)
                })
                .map(|f| (f.start_ns - s.sent_ns, s.answered_ns - f.end_ns))
        })
        .collect()
}

/// Flush durations of the recorded spans, ascending.
pub fn flush_durations(log: &FlushLog) -> Vec<u64> {
    let (spans, _) = log.snapshot();
    let mut d: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    d.sort_unstable();
    d
}

/// Writes every recorded span as one JSON object per line.
pub fn write_spans(
    path: &std::path::Path,
    clients: &[ClientLog],
    log: &FlushLog,
    publishes: &[PublishSpan],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (conn, c) in clients.iter().enumerate() {
        for f in &c.frames {
            writeln!(
                out,
                r#"{{"span":"client.frame","conn":{conn},"first_id":{},"queries":{},"start_ns":{},"end_ns":{}}}"#,
                f.first_id, f.queries, f.sent_ns, f.last_ns
            )?;
        }
    }
    for f in log.snapshot().0 {
        writeln!(
            out,
            r#"{{"span":"server.flush","queries":{},"k":{},"generation":{},"start_ns":{},"end_ns":{}}}"#,
            f.queries, f.k, f.generation, f.start_ns, f.end_ns
        )?;
    }
    for p in publishes {
        writeln!(
            out,
            r#"{{"span":"registry.publish","generation":{},"start_ns":{},"end_ns":{}}}"#,
            p.generation, p.start_ns, p.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::seeded;
    use hd_linalg::{BitVector, SearchMemory};
    use rand::Rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn wrapped_and_unwrapped_give_identical_k3_slates() {
        let rows = random_vectors(40, 130, 1);
        let am = hdc::BinaryAm::from_centroids(
            7,
            rows.into_iter().enumerate().map(|(r, v)| (r % 7, v)).collect(),
        )
        .unwrap();
        let plain: Arc<dyn Searchable> = Arc::new(am);
        let log = Arc::new(FlushLog::default());
        let timed = Timed::new(Arc::clone(&plain), 1, Arc::clone(&log));
        let batch = Arc::new(QueryBatch::from_vectors(&random_vectors(9, 130, 2)).unwrap());
        assert_eq!(
            timed.search_topk(Arc::clone(&batch), 3).unwrap(),
            plain.search_topk(Arc::clone(&batch), 3).unwrap()
        );
        assert_eq!(
            timed.search_winners(Arc::clone(&batch)).unwrap(),
            plain.search_winners(Arc::clone(&batch)).unwrap()
        );
        assert_eq!(timed.missing_shards(), plain.missing_shards());
        assert_eq!((timed.dim(), timed.rows()), (130, 40));
        assert_eq!(log.totals().0, 18, "two flushes of nine queries");
    }

    #[test]
    fn wrapper_forwards_lost_shards() {
        let memory = SearchMemory::from_rows(&random_vectors(32, 64, 3)).unwrap();
        let sharded =
            Arc::new(hd_serve::ShardedSearcher::new(memory, (0..32).collect(), 2).unwrap());
        sharded.inject_shard_panics(1, 2).unwrap();
        let timed = Timed::new(sharded.clone(), 1, Arc::new(FlushLog::default()));
        let batch = Arc::new(QueryBatch::from_vectors(&random_vectors(4, 64, 4)).unwrap());
        // The first panic respawns the worker, the second retires it.
        for _ in 0..2 {
            let _ = timed.search_topk(Arc::clone(&batch), 3);
        }
        assert_eq!(timed.missing_shards(), vec![1]);
    }

    #[test]
    fn samples_split_at_the_flush_holding_their_fingerprint() {
        let log = FlushLog::default();
        let queries = random_vectors(3, 64, 5);
        let batch = |idx: &[usize]| {
            QueryBatch::from_vectors(&idx.iter().map(|&i| queries[i].clone()).collect::<Vec<_>>())
                .unwrap()
        };
        log.record(100, 150, &batch(&[0]), 1, 1);
        log.record(160, 200, &batch(&[1, 2]), 3, 1);
        let fp = |i: usize| fingerprint(queries[i].as_words());
        let samples = [
            QuerySample { fingerprint: fp(0), sent_ns: 90, answered_ns: 170 },
            // Sent before the first flush but answered by the second.
            QuerySample { fingerprint: fp(2), sent_ns: 95, answered_ns: 260 },
            // Never flushed as far as the log knows.
            QuerySample { fingerprint: 42, sent_ns: 10, answered_ns: 400 },
        ];
        assert_eq!(split_latency(&samples, &log), vec![(10, 20), (65, 60)]);
        assert_eq!(flush_durations(&log), vec![40, 50]);
    }
}
