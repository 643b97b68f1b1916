//! Row-sharded associative search across pinned worker threads.
//!
//! A [`ShardedSearcher`] splits a [`SearchMemory`]'s class-row space into
//! `N` contiguous, [`hd_linalg::BLOCK_LANES`]-aligned row ranges (via
//! [`SearchMemory::split_rows`]); each shard owns its rows **and its own
//! pre-packed blocked mirror**, and — when more than one shard exists —
//! is pinned to a dedicated worker thread that lives for the searcher's
//! lifetime. A flush sends the shared `Arc<QueryBatch>` and its `k` to
//! every worker, collects per-shard k-best lists (`k = 1` is the
//! winners), and merges them in ascending-shard order, where a later
//! shard displaces an entry only on a strictly higher score — which
//! reproduces the global highest-score / lowest-row tie-break exactly
//! (the property the SIMD equivalence suite pins for the underlying
//! kernels).
//!
//! [`ShardedSearcher::with_cascade`] runs a [`CascadePlan`] inside every
//! shard instead of the exact sweep — with one shard, it is the
//! unsharded cascade searcher: shards prune independently against their
//! own rows, and because each shard's cascade lists are bit-identical to
//! its exact lists, the strict merge is untouched and the sharded
//! cascade equals the unsharded search exactly.
//!
//! # Worker supervision
//!
//! A panicking shard worker must not poison the searcher. Each worker
//! wraps its sweep in `catch_unwind`, posts the panic back, and exits;
//! the dispatcher then **respawns the worker once** (the blocked mirror
//! is immutable, so a fresh thread over the same `Arc`ed shard is safe)
//! and retries the failed shards in a new collection round. A worker
//! that dies again is **degraded**: its shard drops out permanently,
//! searches answer exactly over the surviving rows, and the loss is
//! reported through [`ShardedSearcher::missing_shards`] so the serving
//! layer can flag the answers (see `Prediction::degraded`) instead of
//! failing them. Deterministic kernel errors (e.g. a bad `k`) still fail
//! the whole request — only worker *death* degrades.

use crate::error::{Result, ServeError};
use crate::searchable::{check_topk, Searchable, Winner};
use hd_linalg::{BoundCascade, CascadePlan, CascadeTopK, QueryBatch, SearchMemory, TopK};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// What a worker computed for one job: the shard-local k-best lists
/// (or the deterministic kernel failure), or the panic that killed the
/// worker.
enum ShardOutcome {
    Answer(hd_linalg::Result<TopK>),
    Panicked(String),
}

/// What a worker posts back per job: its shard index plus the outcome.
type ShardReply = (usize, ShardOutcome);

/// One dispatched unit of shard work: the shared batch, the `k` of the
/// shard's k-best sweep, and the reply channel the worker posts a
/// [`ShardReply`] to.
struct Job {
    batch: Arc<QueryBatch>,
    k: usize,
    reply: SyncSender<ShardReply>,
}

/// Supervision state of one shard's worker, guarded by a mutex so
/// concurrent flushes agree on who pays for a respawn.
struct ShardSupervisor {
    /// Job channel of the live worker; `None` once the shard degrades.
    jobs: Option<Sender<Job>>,
    /// Bumped on every respawn. Lets a flush tell "my worker died" apart
    /// from "another flush already replaced it", so one death never
    /// consumes the respawn budget twice.
    generation: u64,
    /// Remaining respawns before the shard degrades permanently.
    respawns_left: u32,
}

struct Shard {
    /// Global row index of this shard's first row.
    offset: usize,
    memory: Arc<SearchMemory>,
    /// The cascade plan bound to this shard's rows (prefix sub-memory
    /// and row-suffix table derived once at construction); `None` runs
    /// the exact winners sweep.
    cascade: Option<Arc<BoundCascade>>,
    /// Worker supervision state; `None` when the searcher runs shards
    /// inline (single shard, or worker spawn disabled).
    supervisor: Option<Mutex<ShardSupervisor>>,
    /// Chaos failpoint: every pending count makes the worker panic on
    /// its next job (see [`ShardedSearcher::inject_shard_panics`]).
    chaos_panics: Arc<AtomicUsize>,
}

/// Renders a `catch_unwind` payload for the panic reply.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Spawns the pinned worker thread for shard `idx`. The worker answers
/// jobs until its channel closes — or until a job panics, in which case
/// it posts the panic back and exits so the supervisor can respawn it.
fn spawn_worker(
    idx: usize,
    memory: Arc<SearchMemory>,
    cascade: Option<Arc<BoundCascade>>,
    chaos: Arc<AtomicUsize>,
) -> Result<(Sender<Job>, JoinHandle<()>)> {
    let (tx, rx) = mpsc::channel::<Job>();
    let handle = std::thread::Builder::new()
        .name(format!("hd-serve-shard-{idx}"))
        .spawn(move || {
            // The worker owns its shard for its whole life: the blocked
            // mirror stays hot and no re-packing ever happens on the
            // search path.
            while let Ok(job) = rx.recv() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if chaos
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                        .is_ok()
                    {
                        panic!("injected chaos panic");
                    }
                    shard_answer(&memory, &job.batch, cascade.as_deref(), job.k)
                }));
                match outcome {
                    Ok(answer) => {
                        // A dropped reply receiver means the dispatch
                        // errored out early; keep serving later jobs.
                        let _ = job.reply.send((idx, ShardOutcome::Answer(answer)));
                    }
                    Err(payload) => {
                        let _ =
                            job.reply.send((idx, ShardOutcome::Panicked(panic_message(payload))));
                        // A panicked sweep leaves no trustworthy state;
                        // die and let the supervisor respawn the shard
                        // from its immutable Arc'ed mirror.
                        break;
                    }
                }
            }
        })
        .map_err(|e| ServeError::InvalidConfig {
            reason: format!("failed to spawn shard worker: {e}"),
        })?;
    Ok((tx, handle))
}

/// Shard-local k-best lists: the fused sweep, or the bound cascade when
/// a plan is installed (`k == 1` takes the winners sink either way).
/// Both paths produce bit-identical results; only the activation cost
/// differs, and neither re-packs anything.
fn shard_answer(
    memory: &SearchMemory,
    batch: &QueryBatch,
    cascade: Option<&BoundCascade>,
    k: usize,
) -> hd_linalg::Result<TopK> {
    match cascade {
        Some(bound) => bound.search_topk(batch, k).map(CascadeTopK::into_topk),
        None => memory.topk_batch(batch, k),
    }
}

/// Rejects a shard answer whose length disagrees with the batch — the
/// invariant the merge indexes on (`hits(q)`). The search kernels
/// uphold it by construction; converting a violation into a typed error
/// here means a buggy kernel degrades one request instead of panicking
/// the calling thread (which, on a direct [`ShardedSearcher`] user
/// outside [`crate::Server`]'s catch_unwind, would unwind into the
/// caller).
fn check_answer_len(answer: &TopK, queries: usize, shard: usize) -> Result<()> {
    let got = answer.len();
    if got != queries {
        return Err(ServeError::Model {
            reason: format!("shard {shard} answered {got} queries for a {queries}-query batch"),
        });
    }
    Ok(())
}

/// A sharded, worker-backed [`Searchable`] over a row-partitioned
/// associative memory.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitMatrix, BitVector, QueryBatch, SearchMemory};
/// use hd_serve::{Searchable, ShardedSearcher};
/// use std::sync::Arc;
///
/// let rows: Vec<BitVector> =
///     (0..32).map(|r| BitVector::from_bools(&[r % 3 == 0, true, r % 2 == 0])).collect();
/// let memory = SearchMemory::from_rows(&rows).unwrap();
/// let classes = (0..32).map(|r| r % 4).collect();
/// let sharded = ShardedSearcher::new(memory.clone(), classes, 2).unwrap();
/// let batch = Arc::new(QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 3])]).unwrap());
/// let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
/// assert_eq!(winners[0].row, memory.winners_batch(&batch).unwrap()[0].0);
/// ```
pub struct ShardedSearcher {
    dim: usize,
    rows: usize,
    /// Global row → class label.
    classes: Arc<Vec<usize>>,
    /// Stage plan each shard runs (`None` = exact winners sweep).
    plan: Option<Arc<CascadePlan>>,
    shards: Vec<Shard>,
    /// Join handles of every worker ever spawned (respawns append from
    /// `&self`, hence the mutex); drained and joined on drop.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ShardedSearcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner).len();
        f.debug_struct("ShardedSearcher")
            .field("dim", &self.dim)
            .field("rows", &self.rows)
            .field("shards", &self.shards.len())
            .field("workers", &workers)
            .field("missing_shards", &self.missing_shards())
            .finish()
    }
}

impl ShardedSearcher {
    /// Splits `memory` into (at most) `num_shards` row shards, spawning
    /// one pinned worker thread per shard when more than one results.
    /// `num_shards == 0` selects [`std::thread::available_parallelism`].
    ///
    /// `classes[r]` is the class label of global row `r`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `classes` disagrees with
    /// the memory's row count or the memory is empty.
    pub fn new(memory: SearchMemory, classes: Vec<usize>, num_shards: usize) -> Result<Self> {
        Self::build(memory, classes, num_shards, None)
    }

    /// Like [`ShardedSearcher::new`] but every shard answers its rows
    /// through the progressive-precision cascade under `plan`. Shards
    /// prune independently; merged winners are bit-identical to the
    /// exact sharded (and unsharded) search.
    ///
    /// # Errors
    ///
    /// As [`ShardedSearcher::new`], plus [`ServeError::InvalidConfig`]
    /// when the plan's dimensionality differs from the memory's.
    pub fn with_cascade(
        memory: SearchMemory,
        classes: Vec<usize>,
        num_shards: usize,
        plan: CascadePlan,
    ) -> Result<Self> {
        if plan.dim() != memory.cols() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "cascade plan covers {} dimensions but the memory has {}",
                    plan.dim(),
                    memory.cols()
                ),
            });
        }
        Self::build(memory, classes, num_shards, Some(Arc::new(plan)))
    }

    fn build(
        memory: SearchMemory,
        classes: Vec<usize>,
        num_shards: usize,
        plan: Option<Arc<CascadePlan>>,
    ) -> Result<Self> {
        if classes.len() != memory.rows() {
            return Err(ServeError::InvalidConfig {
                reason: format!("{} class labels for {} rows", classes.len(), memory.rows()),
            });
        }
        let num_shards = if num_shards == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            num_shards
        };
        let dim = memory.cols();
        let rows = memory.rows();
        let parts = memory
            .split_rows(num_shards)
            .map_err(|e| ServeError::InvalidConfig { reason: e.to_string() })?;
        let spawn_workers = parts.len() > 1;
        let mut shards = Vec::with_capacity(parts.len());
        let mut workers = Vec::new();
        for (idx, (offset, part)) in parts.into_iter().enumerate() {
            let memory = Arc::new(part);
            // Bind the plan to this shard's rows once; workers and the
            // inline path reuse the derived prefix/suffix artifacts for
            // every flush.
            let cascade = match &plan {
                Some(plan) => Some(Arc::new(
                    BoundCascade::new(Arc::clone(&memory), plan.as_ref().clone())
                        .map_err(|e| ServeError::InvalidConfig { reason: e.to_string() })?,
                )),
                None => None,
            };
            let chaos_panics = Arc::new(AtomicUsize::new(0));
            let supervisor = if spawn_workers {
                let (tx, handle) = spawn_worker(
                    idx,
                    Arc::clone(&memory),
                    cascade.clone(),
                    Arc::clone(&chaos_panics),
                )?;
                workers.push(handle);
                Some(Mutex::new(ShardSupervisor {
                    jobs: Some(tx),
                    generation: 0,
                    respawns_left: 1,
                }))
            } else {
                None
            };
            shards.push(Shard { offset, memory, cascade, supervisor, chaos_panics });
        }
        Ok(ShardedSearcher {
            dim,
            rows,
            classes: Arc::new(classes),
            plan,
            shards,
            workers: Mutex::new(workers),
        })
    }

    /// Like [`ShardedSearcher::with_cascade`] but the stage plan is
    /// auto-tuned from a sample of real queries before sharding
    /// ([`CascadePlan::tuned`] on the whole memory): every shard then
    /// runs the same tuned plan against its own rows, so the merged
    /// winners stay bit-identical to the unsharded search under any plan
    /// the tuner picks.
    ///
    /// # Errors
    ///
    /// As [`ShardedSearcher::with_cascade`], plus
    /// [`ServeError::InvalidConfig`] when tuning rejects the sample
    /// (empty, or off-dimension).
    pub fn with_cascade_tuned(
        memory: SearchMemory,
        classes: Vec<usize>,
        num_shards: usize,
        sample: &QueryBatch,
    ) -> Result<Self> {
        let plan = CascadePlan::tuned(&memory, sample)
            .map_err(|e| ServeError::InvalidConfig { reason: e.to_string() })?;
        Self::with_cascade(memory, classes, num_shards, plan)
    }

    /// The cascade plan shards run, when one is installed.
    pub fn cascade_plan(&self) -> Option<&CascadePlan> {
        self.plan.as_deref()
    }

    /// Number of row shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether shards execute on pinned worker threads (vs. inline).
    pub fn has_workers(&self) -> bool {
        self.shards.iter().any(|s| s.supervisor.is_some())
    }

    /// Shards whose workers died and exhausted their respawn budget, in
    /// ascending order. Searches keep answering **exactly over the
    /// surviving rows**; a non-empty result means answers no longer
    /// cover the full row space, which the serving layer surfaces as
    /// `Prediction::degraded` instead of failing the queries.
    pub fn missing_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.supervisor.as_ref().is_some_and(|m| {
                    m.lock().unwrap_or_else(PoisonError::into_inner).jobs.is_none()
                })
            })
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Whether any shard has degraded out of the row space. See
    /// [`ShardedSearcher::missing_shards`].
    pub fn degraded(&self) -> bool {
        !self.missing_shards().is_empty()
    }

    /// Chaos failpoint: makes `shard`'s worker panic on its next `count`
    /// jobs. Each injected panic kills the worker exactly as a real
    /// fault would; the supervisor's respawn-once-then-degrade path
    /// takes over from there. Intended for tests and chaos harnesses.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `shard` is out of
    /// range or the searcher runs inline (no workers to kill).
    pub fn inject_shard_panics(&self, shard: usize, count: usize) -> Result<()> {
        if !self.has_workers() {
            return Err(ServeError::InvalidConfig {
                reason: "cannot inject worker panics into an inline searcher".into(),
            });
        }
        let Some(target) = self.shards.get(shard) else {
            return Err(ServeError::InvalidConfig {
                reason: format!("shard {shard} out of range ({} shards)", self.shards.len()),
            });
        };
        target.chaos_panics.store(count, Ordering::Relaxed);
        Ok(())
    }

    /// Sends one k-best job for shard `idx` to its worker, respawning on
    /// a dead channel. Returns the worker generation the job landed on,
    /// or `None` when the shard is (or just became) degraded.
    fn dispatch(
        &self,
        idx: usize,
        batch: &Arc<QueryBatch>,
        k: usize,
        reply: &SyncSender<ShardReply>,
    ) -> Option<u64> {
        let shard = &self.shards[idx];
        let sup = shard.supervisor.as_ref().expect("worker-backed searcher supervises shards");
        let mut sup = sup.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let sender = sup.jobs.as_ref()?;
            let job = Job { batch: Arc::clone(batch), k, reply: reply.clone() };
            if sender.send(job).is_ok() {
                return Some(sup.generation);
            }
            // The worker hung up between flushes; pay for a respawn here
            // and retry the send on the fresh worker.
            sup.jobs = None;
            if !self.respawn_locked(idx, &mut sup) {
                return None;
            }
        }
    }

    /// Respawns `idx`'s worker if budget remains. The caller holds the
    /// supervisor lock with `jobs` already cleared.
    fn respawn_locked(&self, idx: usize, sup: &mut ShardSupervisor) -> bool {
        if sup.respawns_left == 0 {
            return false;
        }
        sup.respawns_left -= 1;
        let shard = &self.shards[idx];
        match spawn_worker(
            idx,
            Arc::clone(&shard.memory),
            shard.cascade.clone(),
            Arc::clone(&shard.chaos_panics),
        ) {
            Ok((tx, handle)) => {
                sup.jobs = Some(tx);
                sup.generation += 1;
                self.workers.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
                true
            }
            Err(_) => false,
        }
    }

    /// Handles a worker death observed at `failed_generation`: when
    /// another flush already replaced the worker the replacement is
    /// reused for free, otherwise the respawn budget is spent. Returns
    /// whether `idx` has a live worker to retry on.
    fn revive(&self, idx: usize, failed_generation: u64) -> bool {
        let shard = &self.shards[idx];
        let sup = shard.supervisor.as_ref().expect("worker-backed searcher supervises shards");
        let mut sup = sup.lock().unwrap_or_else(PoisonError::into_inner);
        if sup.generation > failed_generation {
            return sup.jobs.is_some();
        }
        sup.jobs = None;
        self.respawn_locked(idx, &mut sup)
    }

    /// Runs the k-best sweep on every shard — inline when no workers
    /// exist, else fanned out to the pinned workers under
    /// death-and-respawn supervision — and collects the answers in shard
    /// order. A degraded shard yields `None`; the merge then answers
    /// exactly over the surviving rows.
    ///
    /// Collection is round-based: every round opens a **fresh** reply
    /// channel, dispatches the still-unanswered shards, drops its own
    /// sender, and drains until every job's sender clone is gone —
    /// either the worker replied, or it died and dropped the queued job
    /// (so a dead worker can never block the round). Shards whose
    /// workers died are revived (or degraded) and retried next round.
    fn per_shard_answers(&self, batch: &Arc<QueryBatch>, k: usize) -> Result<Vec<Option<TopK>>> {
        let mut per_shard: Vec<Option<TopK>> = (0..self.shards.len()).map(|_| None).collect();
        if !self.has_workers() {
            for (idx, (slot, shard)) in per_shard.iter_mut().zip(&self.shards).enumerate() {
                let answer = shard_answer(&shard.memory, batch, shard.cascade.as_deref(), k)
                    .map_err(|e| ServeError::Model { reason: e.to_string() })?;
                check_answer_len(&answer, batch.len(), idx)?;
                *slot = Some(answer);
            }
            return Ok(per_shard);
        }
        let mut dead = vec![false; self.shards.len()];
        let mut last_panic: Option<String> = None;
        let mut pending: Vec<usize> = (0..self.shards.len()).collect();
        while !pending.is_empty() {
            let (reply_tx, reply_rx) = mpsc::sync_channel(pending.len());
            let mut dispatched: Vec<(usize, u64)> = Vec::with_capacity(pending.len());
            for idx in pending.drain(..) {
                match self.dispatch(idx, batch, k, &reply_tx) {
                    Some(generation) => dispatched.push((idx, generation)),
                    None => dead[idx] = true,
                }
            }
            drop(reply_tx);
            for (idx, outcome) in reply_rx.iter() {
                match outcome {
                    ShardOutcome::Answer(answer) => {
                        let answer =
                            answer.map_err(|e| ServeError::Model { reason: e.to_string() })?;
                        check_answer_len(&answer, batch.len(), idx)?;
                        per_shard[idx] = Some(answer);
                    }
                    // The worker died; the retry below (keyed on the
                    // missing answer) revives or degrades the shard.
                    ShardOutcome::Panicked(msg) => last_panic = Some(msg),
                }
            }
            for (idx, generation) in dispatched {
                if per_shard[idx].is_none() && !dead[idx] {
                    if self.revive(idx, generation) {
                        pending.push(idx);
                    } else {
                        dead[idx] = true;
                    }
                }
            }
        }
        if per_shard.iter().all(Option::is_none) {
            let detail = last_panic.map_or(String::new(), |msg| format!(" (last panic: {msg})"));
            return Err(ServeError::Model {
                reason: format!("all shard workers degraded{detail}"),
            });
        }
        Ok(per_shard)
    }

    /// Runs the k-best sweep on every shard and merges the per-shard
    /// lists (ordered by ascending shard) into each query's global
    /// slate, handed to `slate` in query order. Indexing `hits(q)` cannot
    /// panic: every present answer was length-checked against the batch
    /// by `check_answer_len`. Equal scores insert after their peers and
    /// shards contribute in ascending-offset order (each shard list
    /// already score-descending / local-row-ascending), so the slate
    /// carries the global highest-score / lowest-row tie-break exactly —
    /// bit-identical to the unsharded top-k; at `k = 1` a later shard
    /// replaces the leader only on a strictly higher score. Degraded
    /// shards contribute nothing: the slate is exact over the surviving
    /// rows (and may come up short of `k`).
    fn merge(
        &self,
        batch: &Arc<QueryBatch>,
        k: usize,
        mut slate: impl FnMut(&[Winner]),
    ) -> Result<()> {
        check_topk(k)?;
        if batch.dim() != self.dim {
            return Err(ServeError::DimensionMismatch { expected: self.dim, found: batch.dim() });
        }
        let per_shard = self.per_shard_answers(batch, k)?;
        let k = k.min(self.rows);
        let mut slots: Vec<Winner> = Vec::with_capacity(k);
        for q in 0..batch.len() {
            slots.clear();
            for (shard, lists) in self.shards.iter().zip(&per_shard) {
                let Some(lists) = lists else { continue };
                for &(local_row, score) in lists.hits(q) {
                    if slots.len() == k {
                        if score <= slots[k - 1].score {
                            // Shard lists are score-descending: nothing
                            // later here can make the slate.
                            break;
                        }
                        slots.pop();
                    }
                    let row = shard.offset + local_row;
                    let pos = slots.partition_point(|w| w.score >= score);
                    slots.insert(pos, Winner { row, class: self.classes[row], score });
                }
            }
            slate(&slots);
        }
        Ok(())
    }
}

impl Searchable for ShardedSearcher {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        let mut winners = Vec::with_capacity(batch.len());
        self.merge(&batch, 1, |slate| winners.push(slate[0]))?;
        Ok(winners)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        let mut slates = Vec::with_capacity(batch.len());
        self.merge(&batch, k, |slate| slates.push(slate.to_vec()))?;
        Ok(slates)
    }

    fn missing_shards(&self) -> Vec<usize> {
        ShardedSearcher::missing_shards(self)
    }
}

impl Drop for ShardedSearcher {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops.
        for shard in &mut self.shards {
            if let Some(sup) = &mut shard.supervisor {
                sup.get_mut().unwrap_or_else(PoisonError::into_inner).jobs = None;
            }
        }
        for handle in self.workers.get_mut().unwrap_or_else(PoisonError::into_inner).drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::seeded;
    use hd_linalg::BitVector;
    use rand::Rng;

    fn random_memory(rows: usize, dim: usize, seed: u64) -> (SearchMemory, Vec<usize>) {
        let mut rng = seeded(seed);
        let vectors: Vec<BitVector> = (0..rows)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let classes = (0..rows).map(|r| r % 7).collect();
        (SearchMemory::from_rows(&vectors).unwrap(), classes)
    }

    fn random_batch(n: usize, dim: usize, seed: u64) -> Arc<QueryBatch> {
        let mut rng = seeded(seed);
        let queries: Vec<BitVector> = (0..n)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        Arc::new(QueryBatch::from_vectors(&queries).unwrap())
    }

    #[test]
    fn sharded_matches_unsharded_for_every_shard_count() {
        let (memory, classes) = random_memory(53, 96, 1);
        let batch = random_batch(17, 96, 2);
        let reference = memory.winners_batch(&batch).unwrap();
        for shards in [1usize, 2, 3, 4, 9] {
            let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), shards).unwrap();
            assert_eq!(sharded.has_workers(), sharded.num_shards() > 1, "{shards}");
            let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
            for (q, w) in winners.iter().enumerate() {
                assert_eq!((w.row, w.score), reference[q], "shards {shards}, query {q}");
                assert_eq!(w.class, classes[w.row]);
            }
        }
    }

    #[test]
    fn tie_break_prefers_lowest_row_across_shard_boundary() {
        // Rows 0 and 16 are identical; they land in different shards and
        // tie on every query — the merged winner must be row 0.
        let mut rows: Vec<BitVector> =
            (0..24).map(|_| BitVector::from_bools(&[false; 64])).collect();
        let hot = BitVector::from_bools(&[true; 64]);
        rows[0] = hot.clone();
        rows[16] = hot.clone();
        let memory = SearchMemory::from_rows(&rows).unwrap();
        let sharded = ShardedSearcher::new(memory, (0..24).collect(), 3).unwrap();
        assert!(sharded.num_shards() >= 2);
        let batch = Arc::new(QueryBatch::from_vectors(&[hot]).unwrap());
        let w = sharded.search_winners(batch).unwrap();
        assert_eq!((w[0].row, w[0].score), (0, 64));
    }

    #[test]
    fn sharded_topk_matches_unsharded_for_every_shard_count() {
        let (memory, classes) = random_memory(53, 96, 21);
        let batch = random_batch(17, 96, 22);
        for shards in [1usize, 2, 3, 4, 9] {
            let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), shards).unwrap();
            for k in [1usize, 3, 7, 53, 60] {
                let reference = memory.topk_batch(&batch, k).unwrap();
                let lists = sharded.search_topk(Arc::clone(&batch), k).unwrap();
                for (q, list) in lists.iter().enumerate() {
                    let got: Vec<(usize, u32)> = list.iter().map(|w| (w.row, w.score)).collect();
                    assert_eq!(got, reference.hits(q), "shards {shards}, k {k}, query {q}");
                    for w in list {
                        assert_eq!(w.class, classes[w.row]);
                    }
                }
            }
            assert!(sharded.search_topk(Arc::clone(&batch), 0).is_err());
        }
    }

    #[test]
    fn topk_merge_keeps_global_tie_break_across_shard_boundary() {
        // Rows 0 and 16 are identical and land in different shards; the
        // k-way merge must order the tie by global row index, not by
        // shard arrival order.
        let mut rows: Vec<BitVector> =
            (0..24).map(|_| BitVector::from_bools(&[false; 64])).collect();
        let hot = BitVector::from_bools(&[true; 64]);
        rows[0] = hot.clone();
        rows[16] = hot.clone();
        let memory = SearchMemory::from_rows(&rows).unwrap();
        let sharded = ShardedSearcher::new(memory, (0..24).collect(), 3).unwrap();
        assert!(sharded.num_shards() >= 2);
        let batch = Arc::new(QueryBatch::from_vectors(&[hot]).unwrap());
        let lists = sharded.search_topk(batch, 4).unwrap();
        let got: Vec<(usize, u32)> = lists[0].iter().map(|w| (w.row, w.score)).collect();
        // The two tied winners first (row order), then the zero rows by
        // row order.
        assert_eq!(got, vec![(0, 64), (16, 64), (1, 0), (2, 0)]);
    }

    #[test]
    fn cascade_sharded_topk_matches_unsharded() {
        let (memory, classes) = random_memory(53, 192, 25);
        let batch = random_batch(17, 192, 26);
        for shards in [1usize, 3] {
            for plan in [CascadePlan::exact(192), CascadePlan::prefix(192, 64).unwrap()] {
                let sharded = ShardedSearcher::with_cascade(
                    memory.clone(),
                    classes.clone(),
                    shards,
                    plan.clone(),
                )
                .unwrap();
                for k in [1usize, 5] {
                    let reference = memory.topk_batch(&batch, k).unwrap();
                    let lists = sharded.search_topk(Arc::clone(&batch), k).unwrap();
                    for (q, list) in lists.iter().enumerate() {
                        let got: Vec<(usize, u32)> =
                            list.iter().map(|w| (w.row, w.score)).collect();
                        assert_eq!(
                            got,
                            reference.hits(q),
                            "shards {shards}, plan {plan:?}, k {k}, query {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cascade_shards_match_exact_for_every_shard_count() {
        let (memory, classes) = random_memory(53, 192, 11);
        let batch = random_batch(17, 192, 12);
        let reference = memory.winners_batch(&batch).unwrap();
        for shards in [1usize, 2, 3, 7] {
            for plan in [
                CascadePlan::exact(192),
                CascadePlan::prefix(192, 64).unwrap(),
                CascadePlan::uniform(192, 5).unwrap(),
            ] {
                let sharded = ShardedSearcher::with_cascade(
                    memory.clone(),
                    classes.clone(),
                    shards,
                    plan.clone(),
                )
                .unwrap();
                assert_eq!(sharded.cascade_plan(), Some(&plan));
                let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
                for (q, w) in winners.iter().enumerate() {
                    assert_eq!(
                        (w.row, w.score),
                        reference[q],
                        "shards {shards}, plan {plan:?}, query {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn tuned_cascade_shards_match_exact() {
        let (memory, classes) = random_memory(53, 256, 14);
        let batch = random_batch(24, 256, 15);
        let reference = memory.winners_batch(&batch).unwrap();
        for shards in [1usize, 3] {
            let sharded = ShardedSearcher::with_cascade_tuned(
                memory.clone(),
                classes.clone(),
                shards,
                &batch,
            )
            .unwrap();
            assert!(sharded.cascade_plan().is_some(), "tuned plan is installed");
            let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
            for (q, w) in winners.iter().enumerate() {
                assert_eq!((w.row, w.score), reference[q], "shards {shards}, query {q}");
            }
        }
        let wrong = random_batch(2, 64, 16);
        assert!(ShardedSearcher::with_cascade_tuned(memory, classes, 2, &wrong).is_err());
    }

    #[test]
    fn cascade_plan_dimension_validated() {
        let (memory, classes) = random_memory(16, 64, 13);
        assert!(ShardedSearcher::with_cascade(
            memory.clone(),
            classes.clone(),
            2,
            CascadePlan::exact(65)
        )
        .is_err());
        let ok =
            ShardedSearcher::with_cascade(memory, classes, 2, CascadePlan::prefix(64, 16).unwrap())
                .unwrap();
        assert!(ok.cascade_plan().is_some());
    }

    #[test]
    fn one_shard_cascade_matches_exact() {
        let (memory, classes) = random_memory(24, 128, 51);
        let batch = random_batch(13, 128, 52);
        let reference = memory.winners_batch(&batch).unwrap();
        for plan in [
            CascadePlan::exact(128),
            CascadePlan::prefix(128, 32).unwrap(),
            CascadePlan::uniform(128, 4).unwrap(),
        ] {
            let searcher =
                ShardedSearcher::with_cascade(memory.clone(), classes.clone(), 1, plan).unwrap();
            assert!(!searcher.has_workers());
            let winners = searcher.search_winners(Arc::clone(&batch)).unwrap();
            for (q, w) in winners.iter().enumerate() {
                assert_eq!((w.row, w.score), reference[q]);
                assert_eq!(w.class, classes[w.row]);
            }
        }
    }

    #[test]
    fn one_shard_cascade_topk_matches_fused_sweep() {
        let (memory, classes) = random_memory(24, 128, 61);
        let batch = random_batch(13, 128, 62);
        for plan in [
            CascadePlan::exact(128),
            CascadePlan::prefix(128, 32).unwrap(),
            CascadePlan::uniform(128, 4).unwrap(),
        ] {
            let searcher =
                ShardedSearcher::with_cascade(memory.clone(), classes.clone(), 1, plan).unwrap();
            for k in [1usize, 4, 24, 30] {
                let reference = memory.topk_batch(&batch, k).unwrap();
                let lists = searcher.search_topk(Arc::clone(&batch), k).unwrap();
                for (q, list) in lists.iter().enumerate() {
                    let got: Vec<(usize, u32)> = list.iter().map(|w| (w.row, w.score)).collect();
                    assert_eq!(got, reference.hits(q), "k {k}, query {q}");
                    for w in list {
                        assert_eq!(w.class, classes[w.row]);
                    }
                }
            }
            assert!(searcher.search_topk(Arc::clone(&batch), 0).is_err());
            let bad = random_batch(1, 63, 63);
            assert!(searcher.search_topk(bad, 2).is_err());
        }
    }

    #[test]
    fn one_shard_tuned_cascade_matches_exact() {
        let (memory, classes) = random_memory(24, 512, 54);
        let batch = random_batch(20, 512, 55);
        let searcher =
            ShardedSearcher::with_cascade_tuned(memory.clone(), classes.clone(), 1, &batch)
                .unwrap();
        let reference = memory.winners_batch(&batch).unwrap();
        let winners = searcher.search_winners(Arc::clone(&batch)).unwrap();
        for (q, w) in winners.iter().enumerate() {
            assert_eq!((w.row, w.score), reference[q]);
        }
        // Empty / off-dimension samples are configuration errors.
        let empty = QueryBatch::from_matrix(hd_linalg::BitMatrix::zeros(0, 512));
        assert!(ShardedSearcher::with_cascade_tuned(memory.clone(), classes.clone(), 1, &empty)
            .is_err());
        let wrong = random_batch(1, 64, 56);
        assert!(ShardedSearcher::with_cascade_tuned(memory, classes, 1, &wrong).is_err());
    }

    #[test]
    fn one_shard_cascade_config_validated() {
        let (memory, classes) = random_memory(8, 64, 53);
        let with = |classes: &[usize], plan| {
            ShardedSearcher::with_cascade(memory.clone(), classes.to_vec(), 1, plan)
        };
        assert!(with(&classes[..4], CascadePlan::exact(64)).is_err());
        assert!(with(&classes, CascadePlan::exact(65)).is_err());
        let ok = with(&classes, CascadePlan::prefix(64, 16).unwrap()).unwrap();
        assert_eq!(ok.cascade_plan().map(CascadePlan::stages), Some(2));
        assert_eq!((Searchable::dim(&ok), Searchable::rows(&ok)), (64, 8));
        let bad = random_batch(1, 63, 57);
        assert!(matches!(
            ok.search_winners(bad),
            Err(ServeError::DimensionMismatch { expected: 64, found: 63 })
        ));
    }

    #[test]
    fn shard_count_clamped_and_validated() {
        let (memory, classes) = random_memory(10, 64, 3);
        let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), 100).unwrap();
        assert!(sharded.num_shards() <= 2, "10 rows = 2 lane blocks at most");
        assert!(ShardedSearcher::new(memory, classes[..5].to_vec(), 2).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (memory, classes) = random_memory(16, 64, 4);
        let sharded = ShardedSearcher::new(memory, classes, 2).unwrap();
        let batch = random_batch(3, 65, 5);
        assert!(matches!(
            sharded.search_winners(batch),
            Err(ServeError::DimensionMismatch { expected: 64, found: 65 })
        ));
    }

    #[test]
    fn injected_panic_respawns_worker_and_results_stay_exact() {
        let (memory, classes) = random_memory(53, 96, 31);
        let batch = random_batch(9, 96, 32);
        let reference = memory.winners_batch(&batch).unwrap();
        let sharded = ShardedSearcher::new(memory, classes, 3).unwrap();
        assert!(sharded.has_workers());
        sharded.inject_shard_panics(1, 1).unwrap();
        let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
        for (q, w) in winners.iter().enumerate() {
            assert_eq!((w.row, w.score), reference[q], "query {q}");
        }
        assert!(sharded.missing_shards().is_empty(), "one panic is absorbed by the respawn");
        assert!(!sharded.degraded());
        // The respawned worker keeps serving.
        let again = sharded.search_winners(batch).unwrap();
        for (q, w) in again.iter().enumerate() {
            assert_eq!((w.row, w.score), reference[q], "query {q} after respawn");
        }
    }

    #[test]
    fn repeated_panics_degrade_shard_and_answers_cover_survivors() {
        let mut rng = seeded(41);
        let dim = 96;
        let vectors: Vec<BitVector> = (0..53)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let memory = SearchMemory::from_rows(&vectors).unwrap();
        let classes: Vec<usize> = (0..53).map(|r| r % 7).collect();
        let batch = random_batch(9, dim, 42);
        let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), 3).unwrap();
        assert!(sharded.num_shards() >= 2);
        // More panics than the respawn budget: shard 0 dies for good.
        sharded.inject_shard_panics(0, 100).unwrap();
        let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
        assert_eq!(sharded.missing_shards(), vec![0]);
        assert!(sharded.degraded());
        // Degraded answers are exact over the surviving rows: rebuild the
        // reference without shard 0's rows.
        let parts = memory.split_rows(3).unwrap();
        let lost = parts[1].0; // shard 0 covers rows [0, parts[1].0)
        let survivors = SearchMemory::from_rows(&vectors[lost..]).unwrap();
        let reference = survivors.winners_batch(&batch).unwrap();
        for (q, w) in winners.iter().enumerate() {
            let (local_row, score) = reference[q];
            assert_eq!((w.row, w.score), (lost + local_row, score), "query {q}");
            assert_eq!(w.class, classes[w.row]);
        }
        // Top-k likewise skips the dead shard.
        let lists = sharded.search_topk(Arc::clone(&batch), 5).unwrap();
        let topk = survivors.topk_batch(&batch, 5).unwrap();
        for (q, list) in lists.iter().enumerate() {
            let got: Vec<(usize, u32)> = list.iter().map(|w| (w.row - lost, w.score)).collect();
            assert_eq!(got, topk.hits(q), "query {q}");
        }
        // Degradation is sticky; later searches stay degraded but exact.
        assert_eq!(sharded.missing_shards(), vec![0]);
    }

    #[test]
    fn all_shards_degraded_fails_instead_of_answering_empty() {
        let (memory, classes) = random_memory(53, 96, 51);
        let batch = random_batch(4, 96, 52);
        let sharded = ShardedSearcher::new(memory, classes, 3).unwrap();
        for shard in 0..sharded.num_shards() {
            sharded.inject_shard_panics(shard, 100).unwrap();
        }
        assert!(matches!(
            sharded.search_winners(Arc::clone(&batch)),
            Err(ServeError::Model { .. })
        ));
        assert_eq!(sharded.missing_shards().len(), sharded.num_shards());
    }

    #[test]
    fn chaos_injection_validated() {
        let (memory, classes) = random_memory(53, 96, 61);
        let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), 3).unwrap();
        assert!(sharded.inject_shard_panics(99, 1).is_err(), "out of range");
        let inline = ShardedSearcher::new(memory, classes, 1).unwrap();
        assert!(!inline.has_workers());
        assert!(inline.inject_shard_panics(0, 1).is_err(), "inline has no workers");
        assert!(inline.missing_shards().is_empty());
    }

    #[test]
    fn degraded_shard_cascade_stays_exact_over_survivors() {
        let mut rng = seeded(71);
        let dim = 192;
        let vectors: Vec<BitVector> = (0..53)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let memory = SearchMemory::from_rows(&vectors).unwrap();
        let classes: Vec<usize> = (0..53).map(|r| r % 7).collect();
        let batch = random_batch(9, dim, 72);
        let plan = CascadePlan::prefix(dim, 64).unwrap();
        let sharded = ShardedSearcher::with_cascade(memory.clone(), classes, 3, plan).unwrap();
        sharded.inject_shard_panics(2, 100).unwrap();
        let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
        assert_eq!(sharded.missing_shards(), vec![2]);
        let parts = memory.split_rows(3).unwrap();
        let lost_offset = parts[2].0; // shard 2 covers the tail rows
        let survivors = SearchMemory::from_rows(&vectors[..lost_offset]).unwrap();
        let reference = survivors.winners_batch(&batch).unwrap();
        for (q, w) in winners.iter().enumerate() {
            assert_eq!((w.row, w.score), reference[q], "query {q}");
        }
    }
}
