//! The micro-batching associative-search server.
//!
//! Independent single-query submissions are coalesced into SIMD-sized
//! [`QueryBatch`]es under a latency budget and answered in one sweep —
//! the amortization that makes the batched popcount kernels engage even
//! when no caller owns a whole batch.
//!
//! # Flush discipline (flat combining)
//!
//! * **Full flush** — the submitter whose query fills the batch to
//!   [`ServeConfig::max_batch`] takes the whole pending batch out of the
//!   queue and executes it *inline* on its own thread. No hand-off, no
//!   wake-up latency: on the hot path the batcher costs one short mutex
//!   section per query plus the amortized sweep.
//! * **Ingest flush** — a wire connection's reader (see [`crate::net`])
//!   that has submitted every frame at hand flushes the pending batch
//!   inline just before it goes back to its socket for more bytes. Frames
//!   that arrive together still coalesce into one batch, but a lone frame
//!   is answered at once instead of waiting out the deadline. In-process
//!   submitters never trigger it.
//! * **Deadline flush** — a waiter ([`PendingTopK::wait`] /
//!   [`PendingTopK::wait_until`]) whose query is still in the open cycle
//!   parks until that cycle falls due, [`ServeConfig::max_delay`] after
//!   its first query arrived (or at the waiter's own deadline, if that
//!   comes first), then takes the cycle and flushes it inline: group
//!   commit, bounding latency when traffic is too thin to fill batches.
//!   No thread watches the clock; a cycle nobody waits on stays open
//!   until one of these flushes or shutdown takes it.
//!
//! Every flush answers its entire batch from **one** model snapshot
//! ([`crate::ModelRegistry`]), so hot swaps never mix generations within
//! a batch, and a submission is *never lost*: it is answered by a full
//! flush, an ingest flush, a deadline flush, or the drain that
//! [`Server::shutdown`] runs on its calling thread (after which new
//! submissions fail with [`ServeError::Shutdown`]).

use crate::error::{Result, ServeError};
use crate::registry::ModelRegistry;
use crate::searchable::Searchable;
use hd_linalg::{BitView, QueryBatch, QueryBatchBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Micro-batcher tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Flush as soon as this many queries are pending. Batches of 32+
    /// engage the on-the-fly SIMD packing threshold in `hd_linalg`;
    /// pre-packed [`crate::ShardedSearcher`] memories amortize at any
    /// size, with diminishing returns past a few hundred.
    pub max_batch: usize,
    /// How long the first waiter lets an open cycle gather more queries
    /// before it flushes the cycle itself (the deadline flush in the
    /// module docs). [`Duration::ZERO`] is group commit: a waiter flushes
    /// whatever is pending at once. Wire connections usually flush sooner
    /// (the ingest flush).
    pub max_delay: Duration,
    /// Admission limit: queries accepted but not yet answered by a
    /// flush. At the limit new submissions are shed with
    /// [`ServeError::Overloaded`] instead of queuing unboundedly behind
    /// a slow model. `0` (the default) disables shedding.
    pub max_in_flight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 256, max_delay: Duration::from_micros(200), max_in_flight: 0 }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero `max_batch` or a
    /// positive `max_in_flight` smaller than `max_batch` (every batch
    /// must be admittable in full, or full flushes could never trigger).
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig { reason: "max_batch must be positive".into() });
        }
        if self.max_in_flight != 0 && self.max_in_flight < self.max_batch {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "max_in_flight ({}) must be 0 or >= max_batch ({})",
                    self.max_in_flight, self.max_batch
                ),
            });
        }
        Ok(())
    }
}

/// The answer to one served query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Winning row in the served memory.
    pub row: usize,
    /// Class owning the winning row.
    pub class: usize,
    /// Dot-similarity score of the winning row.
    pub score: u32,
    /// Model generation that answered the query (see
    /// [`crate::ModelRegistry`]).
    pub generation: u64,
    /// Whether the answering model was serving in degraded mode (one or
    /// more shards permanently failed — see
    /// [`crate::Searchable::missing_shards`]). A degraded answer is the
    /// exact best over the *surviving* rows, flagged so callers can
    /// retry elsewhere or accept reduced coverage, never silently wrong.
    pub degraded: bool,
}

/// What one flush produced: every query's slate in one flat buffer, query
/// `i` owning `predictions[ends[i - 1]..ends[i]]` (from 0 for the first).
/// Slates are answered at the cycle's largest k and every waiter
/// truncates to its own — top-k lists are prefix-monotone in `k`. End
/// offsets rather than a fixed stride, because degraded or foreign models
/// may return short slates.
#[derive(Debug)]
struct Answers {
    predictions: Vec<Prediction>,
    ends: Vec<usize>,
}

impl Answers {
    fn slate(&self, index: usize) -> &[Prediction] {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        &self.predictions[start..self.ends[index]]
    }
}

/// Shared completion state of one batch cycle: every query queued into
/// the same flush shares this single allocation (amortizing what a
/// per-query oneshot would spend on malloc, mutex, and condvar), and the
/// answers are published once through an [`OnceLock`] so pipelined
/// waiters read them lock-free.
struct BatchState {
    /// The cycle's answers, or the error every query of it gets. Written
    /// exactly once, by the flush that answers the batch.
    results: OnceLock<Result<Answers>>,
    /// Whether any waiter parked on `cv` before the results landed.
    parked: Mutex<bool>,
    cv: Condvar,
    /// The server whose queue opened this cycle, so that a waiter can
    /// take and flush it (see [`Shared::flush_when_due`]). Weak: the
    /// queue holds its open cycle's state.
    server: Weak<Shared>,
}

impl BatchState {
    fn new(server: Weak<Shared>) -> Arc<Self> {
        Arc::new(BatchState {
            results: OnceLock::new(),
            parked: Mutex::new(false),
            cv: Condvar::new(),
            server,
        })
    }

    /// Publishes the batch's results and wakes any parked waiters.
    fn fill(&self, results: Result<Answers>) {
        self.results.set(results).expect("each batch is flushed exactly once");
        // Synchronize with parkers: a waiter either sees the results on
        // its lock-free check, or sets `parked` under the lock and then
        // re-checks — so taking the lock here guarantees the notify
        // reaches anyone who parked before it.
        let parked = *self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Parks until the results land or `until` passes.
    fn park(&self, until: Option<Instant>) {
        let mut parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the lock: fill() takes it after publishing, so a
        // result published before we parked is visible here.
        if self.results.get().is_some() {
            return;
        }
        *parked = true;
        match until {
            None => drop(self.cv.wait(parked)),
            Some(t) => {
                drop(self.cv.wait_timeout(parked, t.saturating_duration_since(Instant::now())))
            }
        }
    }

    /// Blocks until the results land, flushing the cycle on this thread
    /// if it is still open once it falls due. With a deadline, gives up
    /// with [`ServeError::Timeout`] once it passes while another thread
    /// runs the cycle's flush — the batch state stays alive (that flush
    /// still fills it), only this waiter stops waiting.
    fn wait(self: &Arc<Self>, deadline: Option<Instant>) -> Result<&Answers> {
        fn published(results: &Result<Answers>) -> Result<&Answers> {
            results.as_ref().map_err(Clone::clone)
        }
        if let Some(results) = self.results.get() {
            return published(results);
        }
        // A server that is gone drained its open cycle at shutdown.
        if let Some(server) = self.server.upgrade() {
            server.flush_when_due(self, deadline);
        }
        loop {
            if let Some(results) = self.results.get() {
                return published(results);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ServeError::Timeout);
            }
            self.park(deadline);
        }
    }
}

/// A submitted query's handle: redeem it with [`PendingTopK::wait`] or
/// [`PendingTopK::wait_until`].
///
/// Submitters that pipeline (submit a window of queries, then collect)
/// usually find the result already published by the time they wait, so
/// the handle costs no locking or parking at all on the hot path.
#[must_use = "a PendingTopK that is never waited on discards its predictions"]
pub struct PendingTopK {
    batch: Arc<BatchState>,
    index: usize,
    /// The k this submission asked for; the flush answers the whole
    /// cycle at the largest pending k and the wait truncates back.
    k: usize,
}

impl PendingTopK {
    /// Whether the result is already available (non-blocking). It never
    /// flushes: a handle that is only polled is answered by a full flush,
    /// an ingest flush, a waiter on its cycle, or shutdown.
    pub fn is_ready(&self) -> bool {
        self.batch.results.get().is_some()
    }

    /// Blocks until the query is answered, returning its `min(k, rows)`
    /// best rows sorted by score descending then row ascending — never
    /// empty, and the first entry is the argmax winner. If the query's
    /// cycle is still open, the wait parks until the cycle falls due
    /// ([`ServeConfig::max_delay`] after it opened) and then flushes it
    /// on this thread.
    ///
    /// # Errors
    ///
    /// Returns whatever the flush produced: [`ServeError::Model`] for
    /// model-side failures (including a model that answered the query
    /// with an empty slate). Shutdown fails no accepted query: its drain
    /// answers it.
    pub fn wait(self) -> Result<Vec<Prediction>> {
        self.wait_inner(None)
    }

    /// As [`PendingTopK::wait`], but the query's cycle, while still
    /// open, falls due at `deadline` if that comes before
    /// [`ServeConfig::max_delay`]. A waiter that flushes the cycle itself
    /// returns its answer, overrunning `deadline` by at most that one
    /// flush. [`ServeError::Timeout`] comes only when `deadline` passes
    /// while another thread runs the cycle's flush; the query is still
    /// answered server-side — a timed-out waiter never strands or
    /// corrupts its batch — so use this to bound caller latency against
    /// slow models, not to cancel work.
    ///
    /// # Errors
    ///
    /// As [`PendingTopK::wait`], plus [`ServeError::Timeout`].
    pub fn wait_until(self, deadline: Instant) -> Result<Vec<Prediction>> {
        self.wait_inner(Some(deadline))
    }

    fn wait_inner(self, deadline: Option<Instant>) -> Result<Vec<Prediction>> {
        let slate = self.batch.wait(deadline)?.slate(self.index);
        if slate.is_empty() {
            return Err(ServeError::Model { reason: "model returned an empty top-k slate".into() });
        }
        Ok(slate[..slate.len().min(self.k)].to_vec())
    }
}

/// Point-in-time serving counters (see [`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Queries answered by flushes (accepted queries still pending in the
    /// current batch cycle are not counted yet).
    pub queries: u64,
    /// Batches flushed (full + ingest + deadline + shutdown drain).
    pub batches: u64,
    /// Flushes triggered by a full batch.
    pub full_flushes: u64,
    /// Flushes run by a wire connection's reader once it had submitted
    /// every frame at hand (see [`crate::net`]).
    pub ingest_flushes: u64,
    /// Flushes run by a waiter whose open cycle fell due (see
    /// [`ServeConfig::max_delay`]), or by the shutdown drain.
    pub deadline_flushes: u64,
    /// Largest batch flushed so far.
    pub largest_batch: u64,
    /// Queries shed at admission because the server was at
    /// [`ServeConfig::max_in_flight`].
    pub shed: u64,
    /// Queries answered while the model reported missing shards (their
    /// predictions carry [`Prediction::degraded`]).
    pub degraded_queries: u64,
}

#[derive(Default)]
struct StatCounters {
    queries: AtomicU64,
    batches: AtomicU64,
    full_flushes: AtomicU64,
    ingest_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    largest_batch: AtomicU64,
    shed: AtomicU64,
    degraded_queries: AtomicU64,
}

struct Queue {
    builder: QueryBatchBuilder,
    /// Completion state shared by every query of the current cycle.
    state: Arc<BatchState>,
    /// Largest k requested by the cycle's pending queries. The flush
    /// answers everyone at this k.
    max_k: usize,
    /// When the oldest pending query arrived; `None` while empty.
    opened_at: Option<Instant>,
    shutdown: bool,
}

/// A taken batch cycle awaiting its flush: the queries, their shared
/// completion state, and the cycle's largest k.
type Work = (QueryBatch, Arc<BatchState>, usize);

impl Queue {
    /// Moves the pending batch out (caller flushes it outside the lock)
    /// and opens a fresh cycle.
    fn take_work(&mut self) -> Work {
        let batch = self.builder.take_batch().expect("take_work on a non-empty queue");
        self.opened_at = None;
        let max_k = std::mem::replace(&mut self.max_k, 1);
        let next = BatchState::new(Weak::clone(&self.state.server));
        (batch, std::mem::replace(&mut self.state, next), max_k)
    }

    /// Takes the open cycle, if it has any queries.
    fn take_open(&mut self) -> Option<Work> {
        (!self.builder.is_empty()).then(|| self.take_work())
    }
}

enum FlushKind {
    Full,
    Ingest,
    Deadline,
}

struct Shared {
    queue: Mutex<Queue>,
    registry: ModelRegistry,
    config: ServeConfig,
    stats: StatCounters,
    /// Queries accepted but not yet answered by a flush — the admission
    /// gauge [`ServeConfig::max_in_flight`] sheds against. Incremented
    /// under the queue lock at admission; decremented by each flush just
    /// before it publishes its results, so it reads 0 once every admitted
    /// query is answered. Only maintained while admission control is
    /// on (`max_in_flight != 0`): with it off the counter steers nothing,
    /// and the per-query atomic increment sits inside the contended queue
    /// critical section — measurable on the serve-throughput benches.
    in_flight: AtomicU64,
}

impl Shared {
    /// The deadline flush: while `state` is still the open cycle, parks
    /// its waiter until the cycle falls due — `max_delay` after it opened,
    /// or at the waiter's own `deadline` if that comes first — then takes
    /// the cycle and flushes it on the waiter's thread. Returns once the
    /// cycle has left the queue, whoever took it.
    fn flush_when_due(&self, state: &Arc<BatchState>, deadline: Option<Instant>) {
        loop {
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if !Arc::ptr_eq(&q.state, state) {
                return;
            }
            let due = q.opened_at.and_then(|opened| opened.checked_add(self.config.max_delay));
            let due = [due, deadline].into_iter().flatten().min();
            match due {
                Some(due) if Instant::now() >= due => {
                    let work = q.take_work();
                    drop(q);
                    return self.flush(work, FlushKind::Deadline);
                }
                _ => {
                    drop(q);
                    state.park(due);
                }
            }
        }
    }

    fn flush(&self, (batch, state, max_k): Work, kind: FlushKind) {
        let snapshot = self.registry.snapshot();
        let queries = batch.len();
        self.stats.queries.fetch_add(queries as u64, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.largest_batch.fetch_max(queries as u64, Ordering::Relaxed);
        match kind {
            FlushKind::Full => self.stats.full_flushes.fetch_add(1, Ordering::Relaxed),
            FlushKind::Ingest => self.stats.ingest_flushes.fetch_add(1, Ordering::Relaxed),
            FlushKind::Deadline => self.stats.deadline_flushes.fetch_add(1, Ordering::Relaxed),
        };
        let generation = snapshot.id();
        let predict = move |w: &crate::searchable::Winner| Prediction {
            row: w.row,
            class: w.class,
            score: w.score,
            generation,
            // Filled in after the sweep from the post-search shard
            // health sample (see below).
            degraded: false,
        };
        // A panicking model must not unwind past the batch state: the
        // batch was already taken out of the queue, so an unfilled state
        // would strand its waiters forever, and the panic would unwind
        // into whichever submitter, waiter or wire reader ran the flush.
        // Contain it and answer the batch with an error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let batch = Arc::new(batch);
            if max_k == 1 {
                // k == 1 takes the sweep's argmax path, which keeps each
                // lane's best score in registers.
                snapshot.model().search_winners(batch).map(|winners| Answers {
                    predictions: winners.iter().map(predict).collect(),
                    ends: (1..=winners.len()).collect(),
                })
            } else {
                snapshot.model().search_topk(batch, max_k).map(|slates| {
                    let mut predictions = Vec::with_capacity(slates.iter().map(Vec::len).sum());
                    let ends = slates
                        .iter()
                        .map(|slate| {
                            predictions.extend(slate.iter().map(predict));
                            predictions.len()
                        })
                        .collect();
                    Answers { predictions, ends }
                })
            }
        }))
        .unwrap_or_else(|payload| {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(ServeError::Model { reason: format!("model panicked during flush: {what}") })
        });
        let results = result.and_then(|mut answers| {
            if answers.ends.len() != queries {
                return Err(ServeError::Model {
                    reason: format!(
                        "model returned {} answers for {queries} queries",
                        answers.ends.len()
                    ),
                });
            }
            // Sample shard health *after* the sweep: degradation is
            // monotone within a generation, so a shard that died
            // mid-search (making this sweep answer from the surviving
            // rows only) is visible here. The converse race — a shard
            // dying right after a complete sweep — only over-flags, never
            // under-flags.
            if !snapshot.model().missing_shards().is_empty() {
                self.stats.degraded_queries.fetch_add(queries as u64, Ordering::Relaxed);
                answers.predictions.iter_mut().for_each(|p| p.degraded = true);
            }
            Ok(answers)
        });
        // Release the admission slots before publishing the results:
        // `fill` publishes with release ordering, so a waiter that sees
        // its answers also sees its batch's slots freed, and the gauge
        // reads 0 once every admitted query is answered. The batch has
        // already left the queue, so a submission admitted in between
        // still waits behind a bounded queue.
        if self.config.max_in_flight != 0 {
            self.in_flight.fetch_sub(queries as u64, Ordering::Relaxed);
        }
        state.fill(results);
    }
}

/// The sharded micro-batching associative-search server.
///
/// # Example
///
/// ```
/// use hd_linalg::BitVector;
/// use hd_serve::{ServeConfig, Server};
/// use hdc::BinaryAm;
/// use std::sync::Arc;
///
/// let am = BinaryAm::from_centroids(2, vec![
///     (0, BitVector::from_bools(&[true, true, false, false])),
///     (1, BitVector::from_bools(&[false, false, true, true])),
/// ]).unwrap();
/// let server = Server::start(Arc::new(am), ServeConfig {
///     max_batch: 8,
///     max_delay: std::time::Duration::from_micros(50),
///     ..Default::default()
/// }).unwrap();
/// let query = BitVector::from_bools(&[true, true, true, false]);
/// let slate = server.submit(query.as_view(), 1).unwrap().wait().unwrap();
/// assert_eq!(slate[0].class, 0);
/// assert_eq!(slate[0].generation, 1);
/// ```
pub struct Server {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("dim", &self.dim())
            .field("config", &self.shared.config)
            .field("generation", &self.generation())
            .finish()
    }
}

impl Server {
    /// Starts a server over `model` (generation 1). It spawns no thread:
    /// every flush runs on a submitting, waiting or shutting-down thread,
    /// or on a wire connection's reader.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid `config`.
    pub fn start(model: Arc<dyn Searchable>, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let dim = model.dim();
        // Pre-size for the configured batch, but don't let a huge
        // (deadline-only) max_batch pre-reserve unbounded memory.
        let reserve = config.max_batch.min(4096);
        let shared = Arc::new_cyclic(|server| Shared {
            queue: Mutex::new(Queue {
                builder: QueryBatchBuilder::with_capacity(dim, reserve),
                state: BatchState::new(Weak::clone(server)),
                max_k: 1,
                opened_at: None,
                shutdown: false,
            }),
            registry: ModelRegistry::new(model),
            config,
            stats: StatCounters::default(),
            in_flight: AtomicU64::new(0),
        });
        Ok(Server { shared })
    }

    /// Dimensionality queries must match.
    pub fn dim(&self) -> usize {
        self.shared.registry.dim()
    }

    /// The registry's current model generation.
    pub fn generation(&self) -> u64 {
        self.shared.registry.generation()
    }

    /// The model registry (for snapshots and direct inspection).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Atomically swaps in a new model generation; in-flight batches
    /// finish on their old snapshot. See [`ModelRegistry::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DimensionMismatch`] if the new model's
    /// dimensionality differs.
    pub fn publish(&self, model: Arc<dyn Searchable>) -> Result<u64> {
        self.shared.registry.publish(model)
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            queries: s.queries.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            full_flushes: s.full_flushes.load(Ordering::Relaxed),
            ingest_flushes: s.ingest_flushes.load(Ordering::Relaxed),
            deadline_flushes: s.deadline_flushes.load(Ordering::Relaxed),
            largest_batch: s.largest_batch.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            degraded_queries: s.degraded_queries.load(Ordering::Relaxed),
        }
    }

    /// Queries accepted but not yet answered by a flush (the gauge
    /// [`ServeConfig::max_in_flight`] sheds against). Always 0 when
    /// admission control is off (`max_in_flight == 0`): the gauge is
    /// only maintained while something sheds against it.
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Submits one query asking for its `k` best rows, returning a
    /// [`PendingTopK`] handle. If this query fills the batch, the
    /// submitting thread flushes it inline before returning (flat
    /// combining). Submissions of different k share batch cycles: the
    /// flush answers the whole cycle at the largest pending k in one
    /// fused sweep (the argmax sweep when that is 1), and every handle
    /// truncates back to its own k.
    ///
    /// Under thin traffic the first waiter on the cycle flushes it once
    /// it has been open for [`ServeConfig::max_delay`] — the latency
    /// budget buying batch amortization. Latency-critical single callers
    /// should lower it (to [`Duration::ZERO`] for group commit), bound
    /// their own wait with [`PendingTopK::wait_until`], or come in over
    /// [`crate::net`], whose readers flush as soon as they run out of
    /// frames at hand.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `k == 0`,
    /// [`ServeError::DimensionMismatch`] for a wrong-width query,
    /// [`ServeError::Overloaded`] at the in-flight limit, and
    /// [`ServeError::Shutdown`] after shutdown.
    pub fn submit(&self, query: BitView<'_>, k: usize) -> Result<PendingTopK> {
        crate::searchable::check_topk(k)?;
        if query.len() != self.dim() {
            return Err(ServeError::DimensionMismatch { expected: self.dim(), found: query.len() });
        }
        let (index, state, work) = self.enqueue(query.as_words(), k)?;
        let pending = PendingTopK { batch: state, index, k };
        self.flush_full(work);
        Ok(pending)
    }

    /// Submits a whole frame of already-packed queries in one queue
    /// transaction — the wire front-end's ingest path (see
    /// [`crate::net`]). `words` must hold one or more
    /// `dim().div_ceil(64)`-word rows laid out exactly as a
    /// [`QueryBatch`] stores them; they land in the pending batch via
    /// [`QueryBatchBuilder::push_packed_words`] as one word copy, with
    /// no per-bit repacking and a single lock acquisition for the whole
    /// frame. The frame is admitted or shed atomically against
    /// [`ServeConfig::max_in_flight`], every query is answered at `k`,
    /// and a frame that fills the batch is flushed inline by the
    /// submitting thread, exactly like [`Server::submit`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::MalformedPayload`] when `words` does not
    /// form whole queries, [`ServeError::InvalidConfig`] when `k == 0`,
    /// [`ServeError::Overloaded`] when admitting the frame would exceed
    /// the in-flight limit (nothing is enqueued), and
    /// [`ServeError::Shutdown`] after shutdown.
    pub fn submit_packed(&self, words: &[u64], k: usize) -> Result<Vec<PendingTopK>> {
        crate::searchable::check_topk(k)?;
        let words_per_query = self.dim().div_ceil(64);
        if words.is_empty() || !words.len().is_multiple_of(words_per_query) {
            return Err(ServeError::MalformedPayload {
                reason: format!(
                    "payload of {} words is not a positive multiple of the {words_per_query}-word \
                     query width (D = {})",
                    words.len(),
                    self.dim()
                ),
            });
        }
        let (start, state, work) = self.enqueue(words, k)?;
        let pendings = (start..start + words.len() / words_per_query)
            .map(|index| PendingTopK { batch: Arc::clone(&state), index, k })
            .collect();
        self.flush_full(work);
        Ok(pendings)
    }

    /// Queues whole packed queries (shape validated by the caller) with
    /// their requested k under one lock acquisition, admitted or shed as
    /// a unit, returning the first query's index in the cycle, the
    /// cycle's completion state, and — when they filled the batch — the
    /// work the caller must flush inline.
    fn enqueue(&self, words: &[u64], k: usize) -> Result<(usize, Arc<BatchState>, Option<Work>)> {
        let count = words.len() / self.dim().div_ceil(64);
        let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.shutdown {
            return Err(ServeError::Shutdown);
        }
        let limit = self.shared.config.max_in_flight;
        if limit != 0 {
            if self.shared.in_flight.load(Ordering::Relaxed) + count as u64 > limit as u64 {
                self.shared.stats.shed.fetch_add(count as u64, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            // Under the queue lock, so admission never over-admits a
            // cycle (flushes decrement outside the lock, which can only
            // free slots late — shedding slightly conservatively, never
            // unboundedly). A frame is admitted only whole, so the gauge
            // never exceeds the limit.
            self.shared.in_flight.fetch_add(count as u64, Ordering::Relaxed);
        }
        let start = q.builder.len();
        if let Err(e) = q.builder.push_packed_words(words) {
            // Shape was validated by the caller, so this is unreachable —
            // but a client-fed path never panics on principle. Undo the
            // admission reservation before surfacing the typed error.
            if limit != 0 {
                self.shared.in_flight.fetch_sub(count as u64, Ordering::Relaxed);
            }
            return Err(ServeError::MalformedPayload { reason: e.to_string() });
        }
        q.max_k = q.max_k.max(k);
        if start == 0 {
            q.opened_at = Some(Instant::now());
        }
        let state = Arc::clone(&q.state);
        let work = (q.builder.len() >= self.shared.config.max_batch).then(|| q.take_work());
        Ok((start, state, work))
    }

    /// Flushes `work` inline on the submitting thread, if a submission
    /// filled the batch.
    fn flush_full(&self, work: Option<Work>) {
        if let Some(work) = work {
            self.shared.flush(work, FlushKind::Full);
        }
    }

    /// Flushes the pending batch inline on the calling thread, if there
    /// is one — the ingest flush a wire reader runs once it has submitted
    /// every frame at hand. The batch is taken exactly as a full flush
    /// takes it, whatever its size and whoever queued it.
    pub(crate) fn flush_pending(&self) {
        let work = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner).take_open();
        if let Some(work) = work {
            self.shared.flush(work, FlushKind::Ingest);
        }
    }

    /// Shuts the server down: the pending batch is drained and answered
    /// on the calling thread, and subsequent submissions fail with
    /// [`ServeError::Shutdown`]. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let work = {
            let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.shutdown = true;
            q.take_open()
        };
        if let Some(work) = work {
            self.shared.flush(work, FlushKind::Deadline);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::seeded;
    use hd_linalg::{BitVector, LabeledMemory, SearchMemory};
    use rand::Rng;

    fn random_am(vectors: usize, dim: usize, seed: u64) -> Arc<hdc::BinaryAm> {
        let mut rng = seeded(seed);
        let centroids: Vec<(usize, BitVector)> = (0..vectors)
            .map(|v| {
                let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                (v % 5, BitVector::from_bools(&bits))
            })
            .collect();
        Arc::new(hdc::BinaryAm::from_centroids(5, centroids).unwrap())
    }

    fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect()
    }

    /// Submit-and-wait for the argmax winner.
    fn classify(server: &Server, query: &BitVector) -> Result<Prediction> {
        server.submit(query.as_view(), 1)?.wait().map(|slate| slate[0])
    }

    #[test]
    fn served_predictions_match_direct_search() {
        let am = random_am(40, 128, 1);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 16,
                max_delay: Duration::from_micros(100),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(50, 128, 2);
        let pendings: Vec<PendingTopK> =
            queries.iter().map(|q| server.submit(q.as_view(), 1).unwrap()).collect();
        for (q, p) in queries.iter().zip(pendings) {
            let got = p.wait().unwrap()[0];
            let want = am.search(q).unwrap();
            assert_eq!((got.row, got.class, got.score), (want.row, want.class, want.score));
            assert_eq!(got.generation, 1);
        }
        let stats = server.stats();
        assert_eq!(stats.queries, 50);
        // 50 queries at max_batch 16: three full flushes run by the
        // submitters, then the last two queries' first waiter flushes
        // the remainder once it falls due. No other thread flushes.
        assert_eq!((stats.full_flushes, stats.deadline_flushes, stats.batches), (3, 1, 4));
        assert!(stats.largest_batch <= 16, "{stats:?}");
    }

    #[test]
    fn mixed_k_submissions_share_one_cycle_and_truncate_back() {
        let am = random_am(40, 128, 11);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_millis(2),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(12, 128, 12);
        // One pipelined window mixing argmax (k = 1) submissions with
        // top-k asks of different depths (including k > rows, which
        // clamps): the flush answers the cycle at the largest pending k
        // and every handle truncates back to its own.
        let ks = [1usize, 3, 7, 45];
        let mut plain = Vec::new();
        let mut ranked = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            if i % 2 == 0 {
                plain.push((i, server.submit(q.as_view(), 1).unwrap()));
            } else {
                let k = ks[(i / 2) % ks.len()];
                ranked.push((i, k, server.submit(q.as_view(), k).unwrap()));
            }
        }
        let batch = hd_linalg::QueryBatch::from_vectors(&queries).unwrap();
        let reference = am.topk(&batch, 45).unwrap();
        let want = |i: usize| reference.hits(i).iter().map(|&(r, s)| (r, am.class_of(r), s));
        for (i, p) in plain {
            let slate = p.wait().unwrap();
            assert_eq!(slate.len(), 1, "query {i}");
            let got = slate[0];
            assert_eq!((got.row, got.class, got.score), want(i).next().unwrap());
        }
        for (i, k, p) in ranked {
            let slate = p.wait().unwrap();
            assert_eq!(slate.len(), k.min(am.num_centroids()), "query {i} k {k}");
            for (got, want) in slate.iter().zip(want(i)) {
                assert_eq!((got.row, got.class, got.score), want, "query {i} k {k}");
                assert_eq!(got.generation, 1);
            }
        }
        assert!(server.submit(queries[0].as_view(), 0).is_err());
        // A lone submit-and-wait returns the same slate.
        let slate = server.submit(queries[0].as_view(), 3).unwrap().wait().unwrap();
        let lone: Vec<(usize, usize, u32)> = want(0).take(3).collect();
        let got: Vec<(usize, usize, u32)> =
            slate.iter().map(|p| (p.row, p.class, p.score)).collect();
        assert_eq!(got, lone);
    }

    #[test]
    fn deadline_flush_answers_partial_batches() {
        let am = random_am(16, 64, 3);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        let q = random_queries(1, 64, 4).remove(0);
        // A single query can never fill the batch; only the deadline
        // flush, run by its own waiter, can answer it.
        let got = classify(&server, &q).unwrap();
        assert_eq!(got.class, am.classify(&q).unwrap());
        assert_eq!(server.stats().deadline_flushes, 1);
        assert_eq!(server.stats().full_flushes, 0);
    }

    /// A lone waiter whose deadline comes long before `max_delay` flushes
    /// its own cycle at that deadline instead of timing out, and releases
    /// its admission slot.
    #[test]
    fn wait_until_flushes_its_open_cycle_at_its_deadline() {
        let am = random_am(16, 64, 40);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 4, max_delay: Duration::from_secs(600), max_in_flight: 4 },
        )
        .unwrap();
        let q = random_queries(1, 64, 41).remove(0);
        let pending = server.submit(q.as_view(), 1).unwrap();
        let got = pending.wait_until(Instant::now() + Duration::from_millis(5)).unwrap()[0];
        let want = am.search(&q).unwrap();
        assert_eq!((got.row, got.class, got.score), (want.row, want.class, want.score));
        assert_eq!(server.stats().deadline_flushes, 1);
        assert_eq!(server.in_flight(), 0);
    }

    /// With `max_delay` zero a lone submit-and-wait is group commit: the
    /// waiter searches its batch of one on its own thread.
    #[test]
    fn zero_max_delay_searches_on_the_waiting_thread() {
        /// Records the thread that runs each search.
        struct ThreadRecorder {
            inner: Arc<hdc::BinaryAm>,
            threads: Mutex<Vec<std::thread::ThreadId>>,
        }
        impl crate::Searchable for ThreadRecorder {
            fn dim(&self) -> usize {
                crate::Searchable::dim(&*self.inner)
            }
            fn rows(&self) -> usize {
                crate::Searchable::rows(&*self.inner)
            }
            fn search_winners(
                &self,
                batch: Arc<hd_linalg::QueryBatch>,
            ) -> Result<Vec<crate::Winner>> {
                self.threads.lock().unwrap().push(std::thread::current().id());
                self.inner.search_winners(batch)
            }
            fn search_topk(
                &self,
                batch: Arc<hd_linalg::QueryBatch>,
                k: usize,
            ) -> Result<Vec<Vec<crate::Winner>>> {
                self.threads.lock().unwrap().push(std::thread::current().id());
                self.inner.search_topk(batch, k)
            }
        }
        let am = random_am(16, 64, 42);
        let model = Arc::new(ThreadRecorder { inner: Arc::clone(&am), threads: Mutex::default() });
        let server = Server::start(
            Arc::clone(&model) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 64, max_delay: Duration::ZERO, ..Default::default() },
        )
        .unwrap();
        let q = random_queries(1, 64, 43).remove(0);
        assert_eq!(classify(&server, &q).unwrap().class, am.classify(&q).unwrap());
        assert_eq!(*model.threads.lock().unwrap(), [std::thread::current().id()]);
        assert_eq!(server.stats().deadline_flushes, 1);
    }

    /// A waiter parked on a cycle that will not fall due for 600 s is
    /// answered by the shutdown drain on another thread.
    #[test]
    fn shutdown_answers_a_waiter_parked_on_another_thread() {
        let am = random_am(16, 64, 44);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_secs(600),
                ..Default::default()
            },
        )
        .unwrap();
        let q = random_queries(1, 64, 45).remove(0);
        let pending = server.submit(q.as_view(), 1).unwrap();
        let waiter = std::thread::spawn(move || pending.wait());
        // Give the waiter time to park; shutdown answers it either way.
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        assert_eq!(waiter.join().unwrap().unwrap()[0].class, am.classify(&q).unwrap());
        assert_eq!(server.stats().deadline_flushes, 1);
    }

    #[test]
    fn publish_swaps_generation_for_later_flushes() {
        let dim = 64;
        let am_a = random_am(24, dim, 5);
        let am_b = random_am(24, dim, 6);
        let server = Server::start(
            Arc::clone(&am_a) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 4, max_delay: Duration::from_millis(5), ..Default::default() },
        )
        .unwrap();
        let q = random_queries(1, dim, 7).remove(0);
        let before = classify(&server, &q).unwrap();
        assert_eq!(before.generation, 1);
        assert_eq!(server.publish(Arc::clone(&am_b) as Arc<dyn Searchable>).unwrap(), 2);
        let after = classify(&server, &q).unwrap();
        assert_eq!(after.generation, 2);
        let want = am_b.search(&q).unwrap();
        assert_eq!((after.row, after.score), (want.row, want.score));
    }

    #[test]
    fn rejects_bad_dimensions_and_post_shutdown_submissions() {
        let am = random_am(8, 64, 8);
        let server =
            Server::start(Arc::clone(&am) as Arc<dyn Searchable>, ServeConfig::default()).unwrap();
        assert!(matches!(
            server.submit(BitVector::zeros(65).as_view(), 1),
            Err(ServeError::DimensionMismatch { expected: 64, found: 65 })
        ));
        server.shutdown();
        assert!(matches!(
            server.submit(BitVector::zeros(64).as_view(), 1),
            Err(ServeError::Shutdown)
        ));
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let am = random_am(8, 64, 9);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            // Deadline far away: only the shutdown drain can answer.
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_secs(600),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(5, 64, 10);
        let pendings: Vec<PendingTopK> =
            queries.iter().map(|q| server.submit(q.as_view(), 1).unwrap()).collect();
        server.shutdown();
        for (q, p) in queries.iter().zip(pendings) {
            assert_eq!(p.wait().unwrap()[0].class, am.classify(q).unwrap());
        }
    }

    #[test]
    fn panicking_model_answers_with_error_and_keeps_serving() {
        struct PanickyModel;
        impl crate::Searchable for PanickyModel {
            fn dim(&self) -> usize {
                64
            }
            fn rows(&self) -> usize {
                1
            }
            fn search_winners(
                &self,
                _batch: Arc<hd_linalg::QueryBatch>,
            ) -> Result<Vec<crate::Winner>> {
                panic!("synthetic model failure");
            }
            fn search_topk(
                &self,
                _batch: Arc<hd_linalg::QueryBatch>,
                _k: usize,
            ) -> Result<Vec<Vec<crate::Winner>>> {
                panic!("synthetic model failure");
            }
        }
        let server = Server::start(
            Arc::new(PanickyModel),
            // Large max_batch: both flushes are deadline flushes run by
            // the waiter, so a contained panic is also proven not to
            // unwind into it.
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .unwrap();
        let q = random_queries(1, 64, 20).remove(0);
        match classify(&server, &q) {
            Err(ServeError::Model { reason }) => {
                assert!(reason.contains("panicked"), "unexpected reason: {reason}")
            }
            other => panic!("expected a Model error, got {other:?}"),
        }
        // The server survived: after swapping in a healthy model, the
        // deadline path answers normally.
        let am = random_am(8, 64, 21);
        server.publish(Arc::clone(&am) as Arc<dyn Searchable>).unwrap();
        assert_eq!(classify(&server, &q).unwrap().class, am.classify(&q).unwrap());
    }

    #[test]
    fn zero_max_batch_rejected() {
        let am = random_am(8, 64, 11);
        assert!(Server::start(
            am as Arc<dyn Searchable>,
            ServeConfig { max_batch: 0, max_delay: Duration::from_micros(1), ..Default::default() }
        )
        .is_err());
    }

    /// Regression: a foreign model returning empty top-k slates used to
    /// panic a waiter on `slate[0]`; it must surface as a typed
    /// [`ServeError::Model`] instead, so a handle's slate is never empty.
    #[test]
    fn empty_slate_from_foreign_model_is_a_typed_error_not_a_panic() {
        struct EmptySlateModel;
        impl crate::Searchable for EmptySlateModel {
            fn dim(&self) -> usize {
                64
            }
            fn rows(&self) -> usize {
                4
            }
            fn search_winners(
                &self,
                batch: Arc<hd_linalg::QueryBatch>,
            ) -> Result<Vec<crate::Winner>> {
                Ok(vec![crate::Winner { row: 0, class: 0, score: 0 }; batch.len()])
            }
            fn search_topk(
                &self,
                batch: Arc<hd_linalg::QueryBatch>,
                _k: usize,
            ) -> Result<Vec<Vec<crate::Winner>>> {
                Ok(vec![Vec::new(); batch.len()])
            }
        }
        let server = Server::start(
            Arc::new(EmptySlateModel),
            ServeConfig { max_batch: 2, max_delay: Duration::from_millis(5), ..Default::default() },
        )
        .unwrap();
        let queries = random_queries(2, 64, 30);
        // An argmax submission sharing a cycle with a top-k one is
        // answered from the (empty) shared slate, as is the top-k one.
        let plain = server.submit(queries[0].as_view(), 1).unwrap();
        let ranked = server.submit(queries[1].as_view(), 3).unwrap();
        for pending in [plain, ranked] {
            match pending.wait() {
                Err(ServeError::Model { reason }) => {
                    assert!(reason.contains("empty"), "unexpected reason: {reason}")
                }
                other => panic!("expected a Model error, got {other:?}"),
            }
        }
    }

    /// Short slates of different lengths land at the right offsets of the
    /// flush's flat buffer: each waiter gets its own query's slate,
    /// truncated to its own k.
    #[test]
    fn ragged_slates_from_foreign_model_reach_their_own_waiters() {
        /// Answers query `q` with `q % 3 + 1` rows, row `r` scoring `q`.
        struct RaggedModel;
        impl crate::Searchable for RaggedModel {
            fn dim(&self) -> usize {
                64
            }
            fn rows(&self) -> usize {
                8
            }
            fn search_winners(
                &self,
                batch: Arc<hd_linalg::QueryBatch>,
            ) -> Result<Vec<crate::Winner>> {
                Ok(self.search_topk(batch, 1)?.into_iter().map(|slate| slate[0]).collect())
            }
            fn search_topk(
                &self,
                batch: Arc<hd_linalg::QueryBatch>,
                k: usize,
            ) -> Result<Vec<Vec<crate::Winner>>> {
                Ok((0..batch.len())
                    .map(|q| {
                        (0..(q % 3 + 1).min(k))
                            .map(|r| crate::Winner { row: r, class: r, score: q as u32 })
                            .collect()
                    })
                    .collect())
            }
        }
        let server = Server::start(
            Arc::new(RaggedModel),
            ServeConfig { max_batch: 6, max_delay: Duration::from_secs(600), ..Default::default() },
        )
        .unwrap();
        let ks = [1usize, 3, 2, 3, 3, 1];
        let pendings: Vec<PendingTopK> =
            ks.iter().map(|&k| server.submit(BitVector::zeros(64).as_view(), k).unwrap()).collect();
        for (q, (p, &k)) in pendings.into_iter().zip(&ks).enumerate() {
            let got: Vec<(usize, u32)> =
                p.wait().unwrap().iter().map(|p| (p.row, p.score)).collect();
            let want: Vec<(usize, u32)> = (0..(q % 3 + 1).min(k)).map(|r| (r, q as u32)).collect();
            assert_eq!(got, want, "query {q} k {k}");
        }
    }

    #[test]
    fn zero_row_model_fails_every_k() {
        let server = Server::start(
            Arc::new(SearchMemory::new(hd_linalg::BitMatrix::zeros(0, 8))),
            ServeConfig { max_batch: 1, ..Default::default() },
        )
        .unwrap();
        for k in [1usize, 2] {
            let got = server.submit(BitVector::zeros(8).as_view(), k).unwrap().wait();
            assert!(matches!(got, Err(ServeError::Model { .. })), "k = {k}: {got:?}");
        }
    }

    #[test]
    fn submit_packed_matches_per_query_submission() {
        let dim = 130; // dirty-tail width
        let am = random_am(40, dim, 31);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(100),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(20, dim, 32);
        let mut words: Vec<u64> = Vec::new();
        for q in &queries {
            words.extend_from_slice(q.as_words());
        }
        // One oversized frame (> max_batch) plus a small one: the first
        // flushes inline, the rest is flushed by its first waiter.
        let wpq = dim.div_ceil(64);
        let mut pendings = server.submit_packed(&words[..16 * wpq], 1).unwrap();
        pendings.extend(server.submit_packed(&words[16 * wpq..], 3).unwrap());
        assert_eq!(pendings.len(), queries.len());
        let batch = hd_linalg::QueryBatch::from_vectors(&queries).unwrap();
        let reference = am.topk(&batch, 3).unwrap();
        for (i, p) in pendings.into_iter().enumerate() {
            let slate = p.wait().unwrap();
            let want_len = if i < 16 { 1 } else { 3 };
            assert_eq!(slate.len(), want_len, "query {i}");
            for (got, &(row, score)) in slate.iter().zip(reference.hits(i)) {
                assert_eq!(
                    (got.row, got.class, got.score),
                    (row, am.class_of(row), score),
                    "query {i}"
                );
            }
        }
    }

    #[test]
    fn submit_packed_rejects_malformed_payloads_and_sheds_whole_frames() {
        let dim = 64;
        let am = random_am(8, dim, 33);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 4, max_delay: Duration::from_secs(600), max_in_flight: 4 },
        )
        .unwrap();
        assert!(matches!(server.submit_packed(&[], 1), Err(ServeError::MalformedPayload { .. })));
        assert!(matches!(
            server.submit_packed(&[0u64; 2], 0),
            Err(ServeError::InvalidConfig { .. })
        ));
        // A misaligned payload needs a multi-word width: 100 bits = 2
        // words/query, 3 words is one-and-a-half queries.
        let wide =
            Server::start(random_am(8, 100, 34) as Arc<dyn Searchable>, ServeConfig::default())
                .unwrap();
        assert!(matches!(
            wide.submit_packed(&[0u64; 3], 1),
            Err(ServeError::MalformedPayload { .. })
        ));
        // Admission: a 3-query frame fits the 4-slot gauge; a second
        // 3-query frame would exceed it and is shed whole (nothing
        // partially enqueued — the retry succeeds after capacity frees).
        let held = server.submit_packed(&[1u64, 2, 3], 1).unwrap();
        assert_eq!(server.in_flight(), 3);
        assert!(matches!(server.submit_packed(&[4u64, 5, 6], 1), Err(ServeError::Overloaded)));
        assert_eq!(server.in_flight(), 3);
        assert_eq!(server.stats().shed, 3);
        // One more single query fits exactly at the limit, fills the
        // 4-slot batch, and flushes inline — freeing every slot.
        let single = server.submit(BitVector::zeros(dim).as_view(), 1).unwrap();
        assert_eq!(server.in_flight(), 0);
        for p in held {
            p.wait().unwrap();
        }
        single.wait().unwrap();
    }

    #[test]
    fn serves_raw_search_memory_with_row_as_class() {
        let memory = SearchMemory::from_rows(&random_queries(12, 64, 12)).unwrap();
        let server = Server::start(
            Arc::new(memory.clone()) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(50),
                ..Default::default()
            },
        )
        .unwrap();
        let q = random_queries(1, 64, 13).remove(0);
        let got = classify(&server, &q).unwrap();
        assert_eq!(got.row, got.class);
        let direct = memory
            .winners_batch(&QueryBatch::from_vectors(std::slice::from_ref(&q)).unwrap())
            .unwrap()[0];
        assert_eq!((got.row, got.score), direct);
    }
}
