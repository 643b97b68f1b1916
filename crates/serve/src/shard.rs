//! Row-sharded associative search, every shard searched on the calling
//! thread.
//!
//! A [`ShardedSearcher`] splits a [`SearchMemory`]'s class-row space into
//! `N` contiguous, [`hd_linalg::BLOCK_LANES`]-aligned row ranges (via
//! [`SearchMemory::split_rows`]); each shard owns its rows **and its own
//! pre-packed blocked mirror**. A flush searches, on the thread that
//! flushes it, every shard that can contribute to the shared batch at its
//! `k` (see *Floor-gated fan-out* below), one after the other, and merges
//! the per-shard k-best lists (`k = 1` is the winners) in ascending-shard
//! order, where a later shard displaces an entry only on a strictly
//! higher score — which reproduces the global highest-score / lowest-row
//! tie-break exactly (the property the SIMD equivalence suite pins for
//! the underlying kernels). The searcher starts no thread: a shard is a
//! row range, not a worker.
//!
//! [`ShardedSearcher::with_cascade`] runs a [`CascadePlan`] inside every
//! shard instead of the exact sweep — with one shard, it is the
//! unsharded cascade searcher: shards prune independently against their
//! own rows, and because each shard's cascade lists are bit-identical to
//! its exact lists, the strict merge is untouched and the sharded
//! cascade equals the unsharded search exactly.
//!
//! # Floor-gated fan-out
//!
//! A row's score is at most its popcount, so a shard whose heaviest row
//! cannot reach a query's top-k need not search that query. At
//! construction the searcher records each shard's largest row popcount
//! (`max_ones`) and keeps a *pilot*: the [`hd_linalg::BLOCK_LANES`] rows
//! with the most set bits (ties to the lower row), as one small
//! [`SearchMemory`] on the memory's backend. For `k` up to the pilot's
//! size, each flush first searches the pilot: a query's k-th best pilot
//! score `F` is a floor under its global k-th best score (k real rows
//! score at least `F`). Shard `s` then serves only the queries with
//! `F <= max_ones[s]` — the shared batch when all qualify, a sub-batch
//! copy of their words when some do, no search when none do. The rule
//! is exact: every row of a skipped shard scores strictly below `F`,
//! hence strictly below the global k-th entry, so it can neither enter
//! the top-k nor tie the k-th entry, and lists stay bit-identical,
//! low-row tie-break included. Floors are computed only when the pilot's
//! k-th popcount exceeds some shard's `max_ones` (otherwise none could
//! skip anything: one shard, `k` above the pilot, even popcounts), and
//! never while a shard is missing, since the floor may come from rows
//! that are gone.
//!
//! The floor is the shard-level form of the bound every shard's own
//! search applies block by block: inside a shard, the top-k sweep and
//! the cascade's first stage skip each 8-row block whose heaviest row is
//! strictly below the k-th score found so far in that shard, and end the
//! query at the first block whose tail bound is (see
//! [`hd_linalg::BlockedBitMatrix::block_max`] and
//! [`hd_linalg::BlockedBitMatrix::tail_max`]). The two are not
//! redundant. A shard learns its k-th score only from its own rows, so
//! a shard of light rows never reaches a threshold that skips them; only
//! the pilot's floor, taken from the heavy rows of the whole memory,
//! keeps it out of the query. And a shard the floor admits skips the
//! blocks that cannot reach its own k-th.
//!
//! # Panic supervision
//!
//! A panicking shard search must not poison the searcher. Each shard's
//! search runs inside `catch_unwind`; the first panic a shard ever
//! raises is **retried once, in the same flush** (the blocked mirror is
//! immutable, so a panicked search leaves nothing to repair). A shard
//! that panics again is **degraded**: it drops out permanently, searches
//! answer exactly over the surviving rows, and the loss is reported
//! through [`ShardedSearcher::missing_shards`] so the serving layer can
//! flag the answers (see `Prediction::degraded`) instead of failing
//! them. Deterministic kernel errors (e.g. a bad `k`) still fail the
//! whole request — only a panic degrades. When a shard degrades in a
//! flush whose floors skipped work, every surviving shard that sat out a
//! query re-runs the whole batch without floors.

use crate::error::{Result, ServeError};
use crate::searchable::{check_topk, Searchable, Winner};
use hd_linalg::{
    BitMatrix, BoundCascade, CascadePlan, CascadeTopK, QueryBatch, QueryBatchBuilder, SearchMemory,
    TopK, BLOCK_LANES,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Shard {
    /// Global row index of this shard's first row.
    offset: usize,
    memory: Arc<SearchMemory>,
    /// Largest row popcount in the shard: no row here scores above it.
    max_ones: u32,
    /// The cascade plan bound to this shard's rows (its row-suffix table
    /// derived once at construction); `None` runs `topk_batch` at the
    /// flush's k.
    cascade: Option<BoundCascade>,
    /// Panics this shard's search has raised: the first is retried, the
    /// second degrades the shard out of the row space.
    panics: AtomicUsize,
    /// Chaos failpoint: every pending count makes the shard's next search
    /// panic (see [`ShardedSearcher::inject_shard_panics`]).
    chaos_panics: AtomicUsize,
}

impl Shard {
    /// Whether the shard degraded out of the row space.
    fn missing(&self) -> bool {
        self.panics.load(Ordering::Relaxed) > 1
    }

    /// The shard's k-best lists over `batch` (the fused sweep, or the
    /// bound cascade when a plan is installed; both bit-identical), its
    /// search run inside `catch_unwind`. A panic is retried while the
    /// shard has not degraded; `None` means it has, and `last_panic`
    /// keeps the message of the latest panic.
    fn answer(
        &self,
        batch: &QueryBatch,
        k: usize,
        last_panic: &mut Option<String>,
    ) -> hd_linalg::Result<Option<TopK>> {
        while !self.missing() {
            let search = AssertUnwindSafe(|| {
                let chaos =
                    self.chaos_panics
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
                if chaos.is_ok() {
                    panic!("injected chaos panic");
                }
                match &self.cascade {
                    Some(bound) => bound.search_topk(batch, k).map(CascadeTopK::into_topk),
                    None => self.memory.topk_batch(batch, k),
                }
            });
            match catch_unwind(search) {
                Ok(answer) => return answer.map(Some),
                Err(payload) => {
                    *last_panic = Some(panic_message(payload));
                    self.panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(None)
    }
}

/// The memory's heaviest rows, searched ahead of the shards to floor
/// each query's k-th best score (see the module docs).
struct Pilot {
    memory: SearchMemory,
    /// Largest `k` whose floor can skip some shard: the pilot's first
    /// `max_k` popcounts exceed the smallest shard `max_ones`.
    max_k: usize,
}

/// Which of a flush's queries one shard serves.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Share {
    /// Every query: the shard searches the shared batch.
    All,
    /// These queries (ascending): the shard searches a sub-batch of them.
    Only(Vec<usize>),
    /// No query: the shard is not searched.
    Skip,
}

/// The batch a shard searches under `share`.
fn share_batch(batch: &QueryBatch, share: &Share) -> Option<QueryBatch> {
    match share {
        Share::All => Some(batch.clone()),
        Share::Only(queries) => {
            let mut sub = QueryBatchBuilder::with_capacity(batch.dim(), queries.len());
            for &q in queries {
                sub.push(batch.query(q)).expect("a query has its batch's width");
            }
            Some(sub.take_batch().expect("a served share is non-empty"))
        }
        Share::Skip => None,
    }
}

/// One flush's shard answers, in shard order.
struct Collected {
    /// k-best lists over each shard's batch; `None` for a shard that
    /// was not searched or degraded.
    answers: Vec<Option<TopK>>,
    /// Whether a searched shard degraded instead of answering.
    lost: bool,
    last_panic: Option<String>,
}

/// Renders a `catch_unwind` payload for error messages.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
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

/// A sharded [`Searchable`] over a row-partitioned associative memory,
/// every shard searched on the calling thread.
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
    classes: Vec<usize>,
    /// Stage plan each shard runs (`None` = `topk_batch` at the flush's k).
    plan: Option<CascadePlan>,
    shards: Vec<Shard>,
    /// Floors the fan-out; `None` when no floor could skip a shard.
    pilot: Option<Pilot>,
}

impl std::fmt::Debug for ShardedSearcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSearcher")
            .field("dim", &self.dim)
            .field("rows", &self.rows)
            .field("shards", &self.shards.len())
            .field("missing_shards", &self.missing_shards())
            .finish()
    }
}

impl ShardedSearcher {
    /// Splits `memory` into (at most) `num_shards` row shards.
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
    /// prune independently, and a shard sits out the queries whose pilot
    /// floor exceeds its heaviest row (a row scores at most its
    /// popcount, so none of its rows could reach their top-k — see the
    /// module docs); merged winners are bit-identical to the exact
    /// sharded (and unsharded) search.
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
        Self::build(memory, classes, num_shards, Some(plan))
    }

    fn build(
        memory: SearchMemory,
        classes: Vec<usize>,
        num_shards: usize,
        plan: Option<CascadePlan>,
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
        let ones: Vec<u32> = (0..rows).map(|r| memory.matrix().row_view(r).count_ones()).collect();
        let parts = memory
            .split_rows(num_shards)
            .map_err(|e| ServeError::InvalidConfig { reason: e.to_string() })?;
        let pilot = Self::pilot(&memory, &ones, &parts);
        let mut shards = Vec::with_capacity(parts.len());
        for (offset, part) in parts {
            let memory = Arc::new(part);
            // Bind the plan to this shard's rows once; every flush reuses
            // its row-suffix table.
            let cascade = match &plan {
                Some(plan) => Some(
                    BoundCascade::new(Arc::clone(&memory), plan.clone())
                        .map_err(|e| ServeError::InvalidConfig { reason: e.to_string() })?,
                ),
                None => None,
            };
            let max_ones = ones[offset..offset + memory.rows()].iter().copied().max().unwrap_or(0);
            shards.push(Shard {
                offset,
                memory,
                max_ones,
                cascade,
                panics: AtomicUsize::new(0),
                chaos_panics: AtomicUsize::new(0),
            });
        }
        Ok(ShardedSearcher { dim, rows, classes, plan, shards, pilot })
    }

    /// The [`BLOCK_LANES`] heaviest rows of `memory` (row popcounts
    /// `ones`, ties to the lower row) as a pilot memory, or `None` when
    /// the heaviest rows of all shards in `parts` weigh the same (one
    /// shard included): then no floor could ever skip a shard.
    fn pilot(
        memory: &SearchMemory,
        ones: &[u32],
        parts: &[(usize, SearchMemory)],
    ) -> Option<Pilot> {
        let lightest_shard = parts
            .iter()
            .map(|(offset, part)| ones[*offset..offset + part.rows()].iter().copied().max())
            .min()
            .flatten()?;
        let mut heaviest: Vec<usize> = (0..ones.len()).collect();
        heaviest.sort_by_key(|&r| (std::cmp::Reverse(ones[r]), r));
        heaviest.truncate(BLOCK_LANES);
        let max_k = heaviest.iter().take_while(|&&r| ones[r] > lightest_shard).count();
        if max_k == 0 {
            return None;
        }
        let rows: Vec<_> = heaviest.iter().map(|&r| memory.matrix().row(r)).collect();
        let matrix = BitMatrix::from_rows(&rows).expect("a non-empty memory yields pilot rows");
        Some(Pilot { memory: SearchMemory::with_backend(matrix, memory.backend()), max_k })
    }

    /// Like [`ShardedSearcher::with_cascade`] but the stage plan is
    /// auto-tuned from a sample of real queries before sharding
    /// ([`CascadePlan::tuned`] on the whole memory): every shard then
    /// runs the same tuned plan against its own rows, on the queries its
    /// heaviest row can still serve under the pilot floor, so the merged
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
        self.plan.as_ref()
    }

    /// Number of row shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards whose searches panicked twice, in ascending order: each
    /// shard's first panic is retried, the second degrades it for good.
    /// Searches keep answering **exactly over the surviving rows**; a
    /// non-empty result means answers no longer cover the full row space,
    /// which the serving layer surfaces as `Prediction::degraded` instead
    /// of failing the queries.
    pub fn missing_shards(&self) -> Vec<usize> {
        self.shards.iter().enumerate().filter(|(_, s)| s.missing()).map(|(idx, _)| idx).collect()
    }

    /// Whether any shard has degraded out of the row space. See
    /// [`ShardedSearcher::missing_shards`].
    pub fn degraded(&self) -> bool {
        !self.missing_shards().is_empty()
    }

    /// Chaos failpoint: makes `shard`'s next `count` searches panic. Each
    /// injected panic unwinds out of the shard's search exactly as a real
    /// fault would; the retry-once-then-degrade path takes over from
    /// there. Intended for tests and chaos harnesses.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `shard` is out of range.
    pub fn inject_shard_panics(&self, shard: usize, count: usize) -> Result<()> {
        let Some(target) = self.shards.get(shard) else {
            return Err(ServeError::InvalidConfig {
                reason: format!("shard {shard} out of range ({} shards)", self.shards.len()),
            });
        };
        target.chaos_panics.store(count, Ordering::Relaxed);
        Ok(())
    }

    /// Which queries of `batch` each shard serves at `k`: all of them,
    /// unless the pilot floors some queries above a shard's `max_ones`
    /// (see the module docs).
    fn shares(&self, batch: &QueryBatch, k: usize) -> Result<Vec<Share>> {
        let all = vec![Share::All; self.shards.len()];
        let Some(pilot) = self.pilot.as_ref().filter(|p| k <= p.max_k) else {
            return Ok(all);
        };
        // A floor may come from a pilot row whose shard is gone.
        if self.shards.iter().any(Shard::missing) {
            return Ok(all);
        }
        let top = pilot
            .memory
            .topk_batch(batch, k)
            .map_err(|e| ServeError::Model { reason: e.to_string() })?;
        let mut served: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for q in 0..batch.len() {
            let floor = top.hits(q)[k - 1].1;
            for (queries, shard) in served.iter_mut().zip(&self.shards) {
                if floor <= shard.max_ones {
                    queries.push(q);
                }
            }
        }
        Ok(served
            .into_iter()
            .map(|queries| match queries.len() {
                0 => Share::Skip,
                n if n == batch.len() => Share::All,
                _ => Share::Only(queries),
            })
            .collect())
    }

    /// Searches every shard with a batch (`None` sits the shard out) on
    /// this thread, under the retry-once-then-degrade supervision, and
    /// collects the answers in shard order. A degraded shard yields `None`
    /// and sets [`Collected::lost`].
    fn per_shard_answers(&self, batches: &[Option<QueryBatch>], k: usize) -> Result<Collected> {
        let mut collected =
            Collected { answers: Vec::with_capacity(batches.len()), lost: false, last_panic: None };
        for (idx, (shard, batch)) in self.shards.iter().zip(batches).enumerate() {
            let Some(batch) = batch else {
                collected.answers.push(None);
                continue;
            };
            let answer = shard
                .answer(batch, k, &mut collected.last_panic)
                .map_err(|e| ServeError::Model { reason: e.to_string() })?;
            if let Some(answer) = &answer {
                check_answer_len(answer, batch.len(), idx)?;
            }
            collected.lost |= answer.is_none();
            collected.answers.push(answer);
        }
        Ok(collected)
    }

    /// Runs the k-best sweep on the shards each query needs and merges
    /// the per-shard lists (ordered by ascending shard) into each
    /// query's global slate, handed to `slate` in query order. Indexing
    /// `hits` cannot panic: every present answer was length-checked
    /// against its shard's batch by `check_answer_len`, and a shard
    /// serving [`Share::Only`] answers its queries in ascending order.
    /// Equal scores insert after their peers and shards contribute in
    /// ascending-offset order (each shard list already score-descending /
    /// local-row-ascending), so the slate carries the global
    /// highest-score / lowest-row tie-break exactly — bit-identical to
    /// the unsharded top-k; at `k = 1` a later shard replaces the leader
    /// only on a strictly higher score. Floor-skipped shards hold no row
    /// of the slate; degraded shards contribute nothing, so the slate is
    /// exact over the surviving rows (and may come up short of `k`).
    fn merge(&self, batch: &QueryBatch, k: usize, mut slate: impl FnMut(&[Winner])) -> Result<()> {
        check_topk(k)?;
        if batch.dim() != self.dim {
            return Err(ServeError::DimensionMismatch { expected: self.dim, found: batch.dim() });
        }
        let mut shares = self.shares(batch, k)?;
        let batches: Vec<_> = shares.iter().map(|share| share_batch(batch, share)).collect();
        let mut collected = self.per_shard_answers(&batches, k)?;
        if collected.lost && shares.iter().any(|share| *share != Share::All) {
            // The floors may have come from rows that just died: every
            // shard that sat out a query re-runs the whole batch without
            // them (a dead one answers `None`), so each present answer
            // covers every query.
            let rerun: Vec<_> =
                shares.iter().map(|share| (*share != Share::All).then(|| batch.clone())).collect();
            let again = self.per_shard_answers(&rerun, k)?;
            for (idx, answer) in again.answers.into_iter().enumerate() {
                if rerun[idx].is_some() {
                    collected.answers[idx] = answer;
                    shares[idx] = Share::All;
                }
            }
            collected.last_panic = again.last_panic.or(collected.last_panic);
        }
        if collected.answers.iter().all(Option::is_none) {
            let detail =
                collected.last_panic.map_or(String::new(), |msg| format!(" (last panic: {msg})"));
            return Err(ServeError::Model { reason: format!("all shards degraded{detail}") });
        }
        let k = k.min(self.rows);
        let mut slots: Vec<Winner> = Vec::with_capacity(k);
        // Per shard, how many of its `Share::Only` queries are merged.
        let mut cursors = vec![0usize; self.shards.len()];
        for q in 0..batch.len() {
            slots.clear();
            for (s, (shard, lists)) in self.shards.iter().zip(&collected.answers).enumerate() {
                let Some(lists) = lists else { continue };
                let local_q = match &shares[s] {
                    Share::All => q,
                    Share::Only(queries) if queries.get(cursors[s]) == Some(&q) => {
                        cursors[s] += 1;
                        cursors[s] - 1
                    }
                    Share::Only(_) | Share::Skip => continue,
                };
                for &(local_row, score) in lists.hits(local_q) {
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

    /// A memory with a graded popcount profile, so that pilot floors
    /// skip shard work: four dense rows and four moderate ones up front,
    /// one mid-weight row in each later block, near-empty rows elsewhere.
    /// Returns the rows as well.
    fn graded_memory(rows: usize, dim: usize, seed: u64) -> (Vec<BitVector>, Vec<usize>) {
        let mut rng = seeded(seed);
        let vectors = (0..rows)
            .map(|r| {
                let density = match r {
                    0..=3 => 0.5,
                    4..=7 => 0.3,
                    _ if r % 8 == 3 => 0.1,
                    _ => 0.02,
                };
                BitVector::from_bools(
                    &(0..dim).map(|_| rng.gen::<f64>() < density).collect::<Vec<_>>(),
                )
            })
            .collect();
        (vectors, (0..rows).map(|r| r % 7).collect())
    }

    /// `n` queries that are 5%-perturbed copies of `rows[base(i)]`.
    fn perturbed_batch(
        rows: &[BitVector],
        n: usize,
        seed: u64,
        base: impl Fn(usize) -> usize,
    ) -> Arc<QueryBatch> {
        let mut rng = seeded(seed);
        let dim = rows[0].len();
        let queries: Vec<BitVector> = (0..n)
            .map(|i| {
                let mut q = rows[base(i)].clone();
                for _ in 0..dim / 20 {
                    let bit = rng.gen_range(0..dim);
                    q.set(bit, !q.get(bit));
                }
                q
            })
            .collect();
        Arc::new(QueryBatch::from_vectors(&queries).unwrap())
    }

    /// The graded memory's equivalence inputs: queries near a dense row
    /// (every light shard sits out), near a light row, and near rows of
    /// every weight (shards serve sub-batches).
    fn graded_batches(rows: &[BitVector], seed: u64) -> [Arc<QueryBatch>; 3] {
        let light = rows.len() - 1;
        [
            perturbed_batch(rows, 9, seed, |i| i % 4),
            perturbed_batch(rows, 5, seed + 1, |_| light),
            perturbed_batch(rows, 17, seed + 2, |i| (i * 5) % rows.len()),
        ]
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

    /// Checks `sharded`'s top-k and winners against the unsharded sweep
    /// over `memory`, and returns the shares the flush ran under.
    fn assert_exact(
        sharded: &ShardedSearcher,
        memory: &SearchMemory,
        classes: &[usize],
        batch: &Arc<QueryBatch>,
        k: usize,
        what: &str,
    ) -> Vec<Share> {
        let reference = memory.topk_batch(batch, k).unwrap();
        let lists = sharded.search_topk(Arc::clone(batch), k).unwrap();
        for (q, list) in lists.iter().enumerate() {
            let got: Vec<(usize, u32)> = list.iter().map(|w| (w.row, w.score)).collect();
            assert_eq!(got, reference.hits(q), "{what}, k {k}, query {q}");
            for w in list {
                assert_eq!(w.class, classes[w.row]);
            }
        }
        let winners = sharded.search_winners(Arc::clone(batch)).unwrap();
        let top1 = memory.winners_batch(batch).unwrap();
        let got: Vec<(usize, u32)> = winners.iter().map(|w| (w.row, w.score)).collect();
        assert_eq!(got, top1, "{what}: winners");
        sharded.shares(batch, k).unwrap()
    }

    #[test]
    fn sharded_topk_matches_unsharded_for_every_shard_count() {
        let (memory, classes) = random_memory(53, 96, 21);
        let batch = random_batch(17, 96, 22);
        for shards in [1usize, 2, 3, 4, 9] {
            let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), shards).unwrap();
            for k in [1usize, 3, 7, 53, 60] {
                assert_exact(&sharded, &memory, &classes, &batch, k, &format!("shards {shards}"));
            }
            assert!(sharded.search_topk(Arc::clone(&batch), 0).is_err());
        }
        // Graded popcounts: the pilot floors skip shard work.
        let (rows, classes) = graded_memory(53, 192, 23);
        let memory = SearchMemory::from_rows(&rows).unwrap();
        let (mut sub_batches, mut skipped) = (0, 0);
        for shards in [2usize, 3, 4] {
            let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), shards).unwrap();
            for (b, batch) in graded_batches(&rows, 24).iter().enumerate() {
                for k in [1usize, 5, 8, 9] {
                    let what = format!("graded, shards {shards}, batch {b}");
                    let shares = assert_exact(&sharded, &memory, &classes, batch, k, &what);
                    if k > BLOCK_LANES {
                        assert!(shares.iter().all(|s| *s == Share::All), "{what}: k {k}");
                    }
                    sub_batches += shares.iter().filter(|s| matches!(s, Share::Only(_))).count();
                    skipped += shares.iter().filter(|s| **s == Share::Skip).count();
                }
            }
        }
        assert!(sub_batches > 0 && skipped > 0, "{sub_batches} sub-batches, {skipped} skips");
    }

    #[test]
    fn floor_tie_keeps_the_lower_row() {
        // Shard 0 (rows 0..8) is light: row 0 holds bits 0..4, the rest
        // are empty, so its max_ones is 4. Shard 1 (rows 8..16) is the
        // pilot: row 8 holds bits 0..32, row 9 bits 28..60, rows 10..16
        // bits 32..64.
        let span = |lo: usize, hi: usize| {
            BitVector::from_bools(&(0..64).map(|b| (lo..hi).contains(&b)).collect::<Vec<_>>())
        };
        let mut rows = vec![span(0, 4)];
        rows.extend((1..8).map(|_| BitVector::zeros(64)));
        rows.push(span(0, 32));
        rows.push(span(28, 60));
        rows.extend((10..16).map(|_| span(32, 64)));
        let memory = SearchMemory::from_rows(&rows).unwrap();
        let classes: Vec<usize> = (0..16).collect();
        let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), 2).unwrap();
        assert_eq!(sharded.pilot.as_ref().map(|p| p.max_k), Some(BLOCK_LANES));
        // Query 0 = bits 0..32: the pilot's 2nd best is row 9 at 4, so
        // F = 4 = max_ones of shard 0, which serves it; row 0 ties row 9
        // at the floor and displaces it as the lower row. Query 1 = bits
        // 32..64 floors at 32 and skips shard 0.
        let batch = Arc::new(QueryBatch::from_vectors(&[span(0, 32), span(32, 64)]).unwrap());
        let shares = assert_exact(&sharded, &memory, &classes, &batch, 2, "floor tie");
        assert_eq!(shares, vec![Share::Only(vec![0]), Share::All]);
        let lists = sharded.search_topk(Arc::clone(&batch), 2).unwrap();
        let got: Vec<(usize, u32)> = lists[0].iter().map(|w| (w.row, w.score)).collect();
        assert_eq!(got, vec![(8, 32), (0, 4)]);
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
        let (rows, graded_classes) = graded_memory(53, 192, 27);
        let graded = SearchMemory::from_rows(&rows).unwrap();
        let graded_batches = graded_batches(&rows, 28);
        let (mut sub_batches, mut skipped) = (0, 0);
        for shards in [1usize, 2, 3, 4] {
            for plan in [CascadePlan::exact(192), CascadePlan::prefix(192, 64).unwrap()] {
                let sharded = ShardedSearcher::with_cascade(
                    memory.clone(),
                    classes.clone(),
                    shards,
                    plan.clone(),
                )
                .unwrap();
                for k in [1usize, 5] {
                    let what = format!("shards {shards}, plan {plan:?}");
                    assert_exact(&sharded, &memory, &classes, &batch, k, &what);
                }
                let sharded = ShardedSearcher::with_cascade(
                    graded.clone(),
                    graded_classes.clone(),
                    shards,
                    plan.clone(),
                )
                .unwrap();
                for (b, batch) in graded_batches.iter().enumerate() {
                    for k in [1usize, 5, 8, 9] {
                        let what = format!("graded, shards {shards}, plan {plan:?}, batch {b}");
                        let shares =
                            assert_exact(&sharded, &graded, &graded_classes, batch, k, &what);
                        if shards == 1 || k > BLOCK_LANES {
                            assert!(shares.iter().all(|s| *s == Share::All), "{what}: k {k}");
                        }
                        sub_batches +=
                            shares.iter().filter(|s| matches!(s, Share::Only(_))).count();
                        skipped += shares.iter().filter(|s| **s == Share::Skip).count();
                    }
                }
            }
        }
        assert!(sub_batches > 0 && skipped > 0, "{sub_batches} sub-batches, {skipped} skips");
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
    fn injected_panic_is_retried_and_results_stay_exact() {
        let (memory, classes) = random_memory(53, 96, 31);
        let batch = random_batch(9, 96, 32);
        let reference = memory.winners_batch(&batch).unwrap();
        let sharded = ShardedSearcher::new(memory, classes, 3).unwrap();
        sharded.inject_shard_panics(1, 1).unwrap();
        let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
        for (q, w) in winners.iter().enumerate() {
            assert_eq!((w.row, w.score), reference[q], "query {q}");
        }
        assert!(sharded.missing_shards().is_empty(), "one panic is absorbed by the retry");
        assert!(!sharded.degraded());
        // The retried shard keeps serving.
        let again = sharded.search_winners(batch).unwrap();
        for (q, w) in again.iter().enumerate() {
            assert_eq!((w.row, w.score), reference[q], "query {q} after the retry");
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
        // More panics than the one retry: shard 0 degrades for good.
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
    fn shard_dying_in_a_skipping_flush_reruns_the_skipped_queries() {
        // Every pilot row lives in shard 0; queries near a dense row
        // floor far above shard 1's heaviest row, so shard 1 sits the
        // flush out. Shard 0 then panics twice during it (retry, then
        // degrade).
        let dim = 192;
        let (rows, classes) = graded_memory(16, dim, 81);
        let memory = SearchMemory::from_rows(&rows).unwrap();
        let batch = perturbed_batch(&rows, 9, 82, |i| i % 4);
        let survivors = SearchMemory::from_rows(&rows[8..]).unwrap();
        for k in [1usize, 5] {
            let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), 2).unwrap();
            assert_eq!(sharded.shares(&batch, k).unwrap(), vec![Share::All, Share::Skip]);
            sharded.inject_shard_panics(0, 2).unwrap();
            let lists = if k == 1 {
                let winners = sharded.search_winners(Arc::clone(&batch)).unwrap();
                assert_eq!(winners.len(), batch.len(), "one winner per query");
                winners.into_iter().map(|w| vec![w]).collect()
            } else {
                sharded.search_topk(Arc::clone(&batch), k).unwrap()
            };
            assert_eq!(sharded.missing_shards(), vec![0]);
            let reference = survivors.topk_batch(&batch, k).unwrap();
            for (q, list) in lists.iter().enumerate() {
                let got: Vec<(usize, u32)> = list.iter().map(|w| (w.row - 8, w.score)).collect();
                assert_eq!(got, reference.hits(q), "k {k}, query {q}");
                for w in list {
                    assert_eq!(w.class, classes[w.row]);
                }
            }
            // With a shard missing, later flushes run without floors.
            assert_eq!(sharded.shares(&batch, k).unwrap(), vec![Share::All, Share::All]);
        }
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
        let batch = random_batch(4, 96, 62);
        let reference = memory.winners_batch(&batch).unwrap();
        let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), 3).unwrap();
        assert!(sharded.inject_shard_panics(99, 1).is_err(), "out of range");
        // A one-shard searcher takes injection too: one panic is absorbed
        // by the in-flush retry, a second degrades its only shard.
        let one = ShardedSearcher::new(memory, classes, 1).unwrap();
        assert!(one.inject_shard_panics(1, 1).is_err(), "out of range");
        one.inject_shard_panics(0, 1).unwrap();
        let winners = one.search_winners(Arc::clone(&batch)).unwrap();
        let got: Vec<(usize, u32)> = winners.iter().map(|w| (w.row, w.score)).collect();
        assert_eq!(got, reference);
        assert!(one.missing_shards().is_empty(), "one panic is retried");
        one.inject_shard_panics(0, 1).unwrap();
        assert!(matches!(one.search_winners(batch), Err(ServeError::Model { .. })));
        assert_eq!(one.missing_shards(), vec![0], "a second panic degrades the shard");
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
